"""Zero-copy columnar result substrate.

The on-disk representation of cached profiling results: a versioned,
self-describing columnar payload (:mod:`.format`) and an object codec
pinned byte-identical to pickle (:mod:`.codec`).  The result cache
writes it as a ``.cols`` sidecar next to each pickled entry and serves
warm hits from it by ``mmap``:

* :func:`encode` / :func:`decode` — object tree <-> payload bytes, with
  ndarray leaves decoded as zero-copy views,
* :func:`encode_payload` / :func:`decode_payload` — the raw container
  (meta tree + typed column buffers),
* :func:`register` — opt a dataclass or enum into the codec.

Pickle remains the fallback at every seam: :func:`encode` returns
``None`` for unsupported objects, corrupt payloads raise
:class:`~repro.errors.SubstrateError`, and callers fall back rather
than fail.  See ``docs/architecture.md`` (result substrate) and
``docs/performance.md`` for layout and measurements.
"""

from __future__ import annotations

from repro.substrate.codec import decode, encodable, encode, register
from repro.substrate.format import (
    ALIGN,
    FORMAT_VERSION,
    MAGIC,
    decode_payload,
    encode_payload,
    is_payload,
    payload_version,
)

__all__ = [
    "ALIGN",
    "FORMAT_VERSION",
    "MAGIC",
    "decode",
    "decode_payload",
    "encodable",
    "encode",
    "encode_payload",
    "is_payload",
    "payload_version",
    "register",
]
