"""OpenMP-style loop partitioning.

The paper's benchmarks are OpenMP codes with default static scheduling:
``#pragma omp parallel for`` splits the iteration space into one
contiguous chunk per thread.  That contiguity is what produces the
"regular incremental small line segments" in the STREAM address scatter
(paper Fig. 4) — each thread walks its own slice of the arrays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


def static_chunks(n_iters: int, n_threads: int) -> list[tuple[int, int]]:
    """OpenMP static schedule: ``[start, stop)`` per thread.

    Matches ``schedule(static)`` semantics: chunks differ by at most one
    iteration and earlier threads get the larger chunks.
    """
    if n_iters < 0:
        raise WorkloadError("n_iters must be >= 0")
    if n_threads <= 0:
        raise WorkloadError("n_threads must be >= 1")
    base = n_iters // n_threads
    rem = n_iters % n_threads
    out: list[tuple[int, int]] = []
    start = 0
    for t in range(n_threads):
        size = base + (1 if t < rem else 0)
        out.append((start, start + size))
        start += size
    return out


def chunk_of(n_iters: int, n_threads: int, thread: int | np.ndarray):
    """The static chunk assigned to one thread (no list allocation).

    ``thread`` may also be an integer array (one thread id per element,
    as in a phase-batched sampling pass); the bounds then broadcast over
    it as two int64 arrays of the same shape.
    """
    base = n_iters // n_threads
    rem = n_iters % n_threads
    if np.ndim(thread):
        t = np.asarray(thread, dtype=np.int64)
        if t.size and (t.min() < 0 or t.max() >= n_threads):
            raise WorkloadError(f"thread ids outside team of {n_threads}")
        lead = t < rem
        start = np.where(lead, t * (base + 1), rem * (base + 1) + (t - rem) * base)
        return start, start + base + lead
    if not 0 <= thread < n_threads:
        raise WorkloadError(f"thread {thread} outside team of {n_threads}")
    if thread < rem:
        start = thread * (base + 1)
        return start, start + base + 1
    start = rem * (base + 1) + (thread - rem) * base
    return start, start + base


def interleaved_chunks(n_iters: int, n_threads: int, chunk: int = 1) -> list[np.ndarray]:
    """``schedule(static, chunk)`` round-robin partition (index arrays).

    Used by tests to check that region profiling distinguishes contiguous
    from interleaved thread access patterns.
    """
    if chunk <= 0:
        raise WorkloadError("chunk must be >= 1")
    if n_iters < 0 or n_threads <= 0:
        raise WorkloadError("bad iteration/thread counts")
    idx = np.arange(n_iters)
    block = idx // chunk
    return [idx[block % n_threads == t] for t in range(n_threads)]
