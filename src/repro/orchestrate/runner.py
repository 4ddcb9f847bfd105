"""Parallel trial execution with deterministic seeding and ordering.

The evaluation grid (Figs. 2-11) is embarrassingly parallel: every
trial is an independent, seeded simulation.  :class:`ParallelRunner`
fans a list of :class:`TrialSpec` out over a
:class:`~repro.orchestrate.pool.WorkerPool` and collects results back
**in submission order**, so a parallel run is byte-identical to a
serial one:

* seeds are fixed in the specs *before* anything is submitted — they
  depend on the grid position, never on scheduling,
* results land in a slot indexed by spec position, never by completion
  order,
* ``workers=1`` short-circuits to a plain in-process loop (no pickling
  requirements, exact legacy behaviour).

When a :class:`~repro.orchestrate.cache.ResultCache` is attached, the
parent resolves hits up front and only submits the misses; workers
never touch the cache directory.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import ReproError
from repro.orchestrate.cache import ResultCache, canonical_config
from repro.orchestrate.pool import WorkerPool

_MISS = object()


def derive_seed(*parts: Any) -> int:
    """Stable 32-bit seed from arbitrary grid coordinates.

    Hash-derived (not positional), so inserting a sweep point does not
    reseed its neighbours.
    """
    payload = json.dumps(canonical_config(list(parts)), sort_keys=True)
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def default_workers() -> int:
    """Worker count for ``workers=0`` (auto): one per available core."""
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class TrialSpec:
    """One unit of work: an experiment name, its config, and a seed.

    ``config`` must be picklable (it crosses the process boundary) and
    canonicalisable (it becomes part of the cache key); dataclasses and
    dicts of primitives both work.
    """

    experiment: str
    config: Any
    seed: int


@dataclass
class RunReport:
    """What happened during one :meth:`ParallelRunner.map` call."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    workers: int = 1
    extra: dict = field(default_factory=dict)


class ParallelRunner:
    """Execute trial specs across processes, results in spec order.

    With ``pool`` set, trials run on that persistent
    :class:`~repro.orchestrate.pool.WorkerPool` — no pool spin-up or
    teardown per ``map``, stable worker PIDs across calls, and the pool
    outlives the runner (the caller owns its lifecycle).  This is how
    the serve scheduler and any other long-running driver reuse workers
    across jobs.  Without one, a ``workers > 1`` map opens a pool of
    ``min(workers, misses)`` workers for the call and closes it before
    returning.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        pool: WorkerPool | None = None,
    ) -> None:
        if workers < 0:
            raise ReproError(f"workers must be >= 0 (0 = auto), got {workers}")
        self.pool = pool
        if pool is not None:
            self.workers = pool.workers
        else:
            self.workers = workers if workers > 0 else default_workers()
        self.cache = cache
        self.last_report = RunReport()

    def map(
        self,
        fn: Callable[[TrialSpec], Any],
        specs: Sequence[TrialSpec],
    ) -> list[Any]:
        """Run ``fn(spec)`` for every spec; results in spec order.

        With ``workers > 1``, ``fn``, each spec's config and each
        result must be picklable (use a module-level function, or a
        :func:`functools.partial` of one).  The first trial failure
        propagates — an exception, or a task or result that cannot be
        pickled; a per-call pool is then stopped without running the
        remaining trials.
        """
        specs = list(specs)
        results: list[Any] = [None] * len(specs)
        pending: list[tuple[int, TrialSpec, str | None]] = []
        for i, spec in enumerate(specs):
            key = None
            if self.cache is not None:
                key = self.cache.key(spec.experiment, spec.config, spec.seed)
                hit = self.cache.get(key, _MISS)
                if hit is not _MISS:
                    results[i] = hit
                    continue
            pending.append((i, spec, key))

        report = RunReport(
            total=len(specs),
            cache_hits=len(specs) - len(pending),
            executed=len(pending),
            workers=self.workers,
        )
        try:
            if self.pool is not None and pending:
                self._map_on_pool(fn, pending, results, self.pool)
            elif self.workers == 1 or len(pending) <= 1:
                for i, spec, key in pending:
                    value = fn(spec)
                    results[i] = value
                    if key is not None:
                        self.cache.put(key, value)
            else:
                with WorkerPool(min(self.workers, len(pending))) as pool:
                    self._map_on_pool(fn, pending, results, pool)
        finally:
            if self.cache is not None:
                # how the hits were served (mmap'd columnar sidecar vs
                # pickle) — snapshot before flush_stats resets counters
                report.extra["cache_hits_mmap"] = self.cache.stats.hits_mmap
                report.extra["cache_hits_pickle"] = self.cache.stats.hits_pickle
                self.cache.flush_stats()
            self.last_report = report
        return results

    def _map_on_pool(
        self,
        fn: Callable[[TrialSpec], Any],
        pending: list[tuple[int, TrialSpec, str | None]],
        results: list[Any],
        pool: WorkerPool,
    ) -> None:
        """Run the cache misses on ``pool`` (spec order kept).

        A worker crash mid-trial is retried once on the replacement
        worker the pool spawned; a second loss (or a trial failure)
        propagates.
        """
        tasks = {
            pool.submit(fn, spec): (i, spec, key, 0)
            for i, spec, key in pending
        }
        while tasks:
            event = pool.next_event(timeout=None)
            kind, task_id, payload = event
            if task_id not in tasks:
                continue  # a different owner's task (shared pool)
            i, spec, key, retries = tasks.pop(task_id)
            if kind == "done":
                results[i] = payload
                if key is not None:
                    self.cache.put(key, payload)
            elif kind == "lost" and retries < 1:
                tasks[pool.submit(fn, spec)] = (i, spec, key, retries + 1)
            elif kind == "lost":
                raise ReproError(f"trial lost twice to worker crashes: {payload}")
            elif isinstance(payload, BaseException):
                raise payload
            else:
                raise ReproError(f"worker trial failed: {payload}")
