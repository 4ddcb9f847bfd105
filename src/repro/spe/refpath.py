"""Toggle between the vectorized and scalar-reference SPE record paths.

The hot record path (:func:`repro.spe.sampler.collision_scan` and
:meth:`repro.spe.driver.SpeDriver.feed`) is vectorized; the original
scalar implementations are retained as ``_reference_*`` twins and pinned
byte-identical by the differential suite in
``tests/spe/test_vectorized_parity.py``.  :func:`reference_path` routes
every call inside its scope through the scalar twins, which is how the
golden-parity tests produce the reference side of the comparison without
plumbing a flag through profiler, backends, and sessions.

The toggle is mirrored into ``$REPRO_SPE_REFERENCE`` so it survives the
process boundary: worker processes forked *inside* a
``reference_path()`` scope (e.g. a ``workers > 1`` sweep) inherit the
environment and take the scalar path too.  Workers forked before the
scope opened keep their own setting — a ``ParallelRunner.map`` without
a caller-owned pool forks a fresh
:class:`~repro.orchestrate.pool.WorkerPool` per call, so in practice
the scope covers them; a persistent pool opened outside the scope
(the serve scheduler's) does not.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_ENV_FLAG = "REPRO_SPE_REFERENCE"
_use_reference = False


def reference_active() -> bool:
    """Whether calls should take the retained scalar reference path."""
    return _use_reference or bool(os.environ.get(_ENV_FLAG))


@contextmanager
def reference_path() -> Iterator[None]:
    """Route the SPE record path through the scalar reference twins.

    Affects :func:`~repro.spe.sampler.collision_scan` and
    :meth:`~repro.spe.driver.SpeDriver.feed` for the duration of the
    ``with`` block (reentrant; restores the previous state on exit),
    including in worker processes spawned within the block.
    """
    global _use_reference
    prev = _use_reference
    prev_env = os.environ.get(_ENV_FLAG)
    _use_reference = True
    os.environ[_ENV_FLAG] = "1"
    try:
        yield
    finally:
        _use_reference = prev
        if prev_env is None:
            os.environ.pop(_ENV_FLAG, None)
        else:
            os.environ[_ENV_FLAG] = prev_env
