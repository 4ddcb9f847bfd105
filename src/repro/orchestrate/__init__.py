"""Experiment orchestration: parallel trial execution + result caching.

The evaluation layer (``repro.evalharness``) describes *what* each
paper exhibit computes; this package decides *how* the grid of
independent trials actually runs:

:class:`ParallelRunner`
    Fans :class:`TrialSpec` lists out over a :class:`WorkerPool` with
    deterministic per-trial seeding and spec-order result collection,
    so ``workers=N`` is byte-identical to the serial run.
:class:`WorkerPool`
    The one multi-process executor: crash-tolerant workers reporting
    ``done``/``error``/``lost`` events, opened per ``map`` call or kept
    across jobs by a long-running driver such as the serve scheduler.
:class:`ResultCache`
    A content-addressed on-disk store keyed by (experiment, config,
    seed, package version); repeated invocations become cache hits,
    inspectable via ``python -m repro cache stats``.

Quickstart::

    from repro.orchestrate import ParallelRunner, ResultCache, TrialSpec

    cache = ResultCache()          # ~/.cache/repro by default
    runner = ParallelRunner(workers=8, cache=cache)
    specs = [TrialSpec("demo", {"period": p}, seed=t)
             for p in (1024, 4096) for t in range(5)]
    rows = runner.map(my_module.run_trial, specs)   # ordered like specs
"""

from repro.orchestrate.cache import (
    DEFAULT_CACHE_DIR,
    CacheStats,
    ResultCache,
    cache_key,
    canonical_config,
    default_cache_dir,
    make_cache,
)
from repro.orchestrate.pool import WorkerPool
from repro.orchestrate.runner import (
    ParallelRunner,
    RunReport,
    TrialSpec,
    default_workers,
    derive_seed,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "ParallelRunner",
    "ResultCache",
    "RunReport",
    "TrialSpec",
    "WorkerPool",
    "cache_key",
    "canonical_config",
    "default_cache_dir",
    "default_workers",
    "derive_seed",
    "make_cache",
]
