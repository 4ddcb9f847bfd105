"""Out-of-program tracing: spans around calls into each layer of ``repro``.

The tracer patches public functions where their callers look them up (a
class attribute, or the module namespace a ``from x import f`` caller
reads) with a wrapper that records a span: name, start ns, end ns and
parent span.  Nothing under ``src/`` changes; :meth:`Tracer.uninstall`
restores every original, so untraced runs execute the program as shipped.

Spans are kept in memory, one list per thread ("lane"), and written once
at the end as Chrome trace-event JSON (opens in Perfetto) plus a per-layer
table.  A layer's self time is its span minus the time its child spans
cover; in one lane the children of a span are sequential, so the self
times of every span under a root plus the root's own uncovered time add
up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

now_ns = time.perf_counter_ns  # CLOCK_MONOTONIC: comparable across processes

#: root span of one measured unit (not a layer; its uncovered time is
#: ``trace.unattributed_s``)
ROOT = "bench.unit"

# -- what is wrapped ---------------------------------------------------------
#: (span name, module, attribute path) — the attribute path is
#: ``Class.method``, a module-level ``function``, or ``DICT[key]``
WRAP_POINTS: tuple[tuple[str, str, str], ...] = (
    ("workloads.ops_at", "repro.workloads.base", "PhaseOpSource.ops_at"),
    ("workloads.levels_at", "repro.workloads.base", "PhaseOpSource.levels_at"),
    ("workloads.pcs_at", "repro.workloads.base", "PhaseOpSource.pcs_at"),
    ("workloads.build", "repro.scenarios.trials", "TRIAL_FNS[period_sweep]"),
    ("workloads.build", "repro.scenarios.trials", "TRIAL_FNS[aux_sweep]"),
    ("cpu.op_latencies", "repro.cpu.pipeline", "PipelineModel.op_latencies"),
    ("spe.sample_stream", "repro.spe.sampler", "SpeSampler.sample_stream"),
    ("spe.strategy_sample", "repro.spe.strategies", "PeriodicStrategy.sample"),
    ("spe.strategy_sample", "repro.spe.strategies", "PoissonStrategy.sample"),
    ("spe.strategy_sample", "repro.spe.strategies", "_HashFilterStrategy.sample"),
    ("spe.strategy_sample", "repro.spe.strategies", "HybridStrategy.sample"),
    ("spe.collision_scan", "repro.spe.sampler", "collision_scan"),
    ("spe.feed", "repro.spe.driver", "SpeDriver.feed"),
    ("spe.encode_records", "repro.spe.driver", "encode_records"),
    ("spe.decode_stream", "repro.spe.driver", "decode_stream"),
    ("kernel.open_session", "repro.nmo.backends", "ArmSpeBackend.open_session"),
    ("kernel.open_session", "repro.nmo.backends",
     "FixedAuxPagesBackend.open_session"),
    ("kernel.stream_paced", "repro.kernel.aux_buffer", "AuxBuffer.stream_paced"),
    ("nmo.profiler_run", "repro.nmo.profiler", "NmoProfiler.run"),
    ("nmo.run_baseline", "repro.nmo.profiler", "NmoProfiler.run_baseline"),
    ("orchestrate.map", "repro.orchestrate.runner", "ParallelRunner.map"),
    ("orchestrate.cache_key", "repro.orchestrate.cache", "cache_key"),
    ("orchestrate.cache_key", "repro.serve.server", "cache_key"),
    ("orchestrate.cache_get", "repro.orchestrate.cache", "ResultCache.get"),
    ("orchestrate.cache_put", "repro.orchestrate.cache", "ResultCache.put"),
    ("substrate.encode", "repro.substrate.codec", "encode"),
    ("substrate.decode", "repro.substrate.codec", "decode"),
    ("scenarios.plan", "repro.scenarios.session", "Session.plan"),
    ("scenarios.aggregate", "repro.scenarios.session", "Session.aggregate"),
    ("scenarios.render", "repro.scenarios.session", "RunReport.render"),
    ("serve.submit", "repro.serve.client", "ServerClient.submit"),
    ("serve.results", "repro.serve.client", "ServerClient.results"),
)

#: layers reported as ``<layer>.self_s``, and those also counted as ``.calls``
SELF_LAYERS = (
    "workloads.ops_at", "workloads.levels_at", "workloads.pcs_at",
    "workloads.build", "cpu.op_latencies",
    "spe.sample_stream", "spe.strategy_sample", "spe.collision_scan",
    "spe.feed", "spe.encode_records", "spe.decode_stream",
    "kernel.open_session", "kernel.stream_paced",
    "nmo.profiler_run", "nmo.run_baseline",
    "orchestrate.map", "orchestrate.cache_key", "orchestrate.cache_get",
    "orchestrate.cache_put", "substrate.encode", "substrate.decode",
    "scenarios.plan", "scenarios.aggregate", "scenarios.render",
)
CALL_LAYERS = (
    "workloads.ops_at", "spe.sample_stream", "spe.feed",
    "kernel.open_session", "nmo.profiler_run", "orchestrate.cache_get",
)
#: client-side serve phases, recorded by the stream wrapper and the
#: submit/results wrappers: metric name -> span name
SERVE_PHASES = {
    "serve.submit_s": "serve.submit",
    "serve.first_row_s": "serve.first_row",
    "serve.stream_s": "serve.stream",
    "serve.results_s": "serve.results",
}
#: exact counts recorded by the exit hooks below
COUNTS = (
    "spe.samples_kept", "spe.collisions", "spe.aux_bytes",
    "spe.records_lost", "spe.wakeups",
    "orchestrate.cache_get.hits_mmap", "orchestrate.cache_get.hits_pickle",
    "orchestrate.cache_put.bytes_pkl", "orchestrate.cache_put.bytes_cols",
    "substrate.encode.fallbacks", "serve.rows_streamed", "serve.message_bytes",
)


# -- exit hooks: counts read off arguments and results -------------------------

def _on_sample_stream(t: "Tracer", args, out) -> None:
    t.count("spe.samples_kept", out.n_kept)
    t.count("spe.collisions", out.n_collisions)
    t.sample("spe.samples_per_call", out.n_kept)


def _on_feed(t: "Tracer", args, res) -> None:
    t.count("spe.records_lost", res.n_lost_stall)
    t.count("spe.wakeups", res.n_wakeups)


def _on_stream_paced(t: "Tracer", args, _res) -> None:
    t.count("spe.aux_bytes", int(args[1].nbytes))


def _before_cache_get(args) -> tuple[int, int]:
    stats = args[0].stats
    return stats.hits_mmap, stats.hits_pickle


def _on_cache_get(t: "Tracer", args, _value, before) -> None:
    stats = args[0].stats
    t.count("orchestrate.cache_get.hits_mmap", stats.hits_mmap - before[0])
    t.count("orchestrate.cache_get.hits_pickle", stats.hits_pickle - before[1])


def _on_cache_put(t: "Tracer", args, _res) -> None:
    cache, key = args[0], args[1]
    pkl, cols = cache._path(key), cache._cols_path(key)
    t.count("orchestrate.cache_put.bytes_pkl", pkl.stat().st_size)
    if cols.is_file():
        t.count("orchestrate.cache_put.bytes_cols", cols.stat().st_size)


def _on_encode(t: "Tracer", _args, payload) -> None:
    if payload is None:
        t.count("substrate.encode.fallbacks", 1)


EXIT_HOOKS: dict[str, Callable] = {
    "spe.sample_stream": _on_sample_stream,
    "spe.feed": _on_feed,
    "kernel.stream_paced": _on_stream_paced,
    "orchestrate.cache_put": _on_cache_put,
    "substrate.encode": _on_encode,
}


# -- the tracer ------------------------------------------------------------------

class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: one lane per thread: [tid, spans, marks]; a span is
        #: [name, start_ns, end_ns, parent index], a mark is
        #: [name, value, ns, kind] with kind "c" (count) or "s" (sample)
        self._lanes: list[list] = []
        self._undo: list[Callable[[], None]] = []

    # recording -----------------------------------------------------------

    def _lane(self) -> tuple[list, list, list]:
        local = self._local
        if getattr(local, "spans", None) is None:
            local.spans, local.marks, local.stack = [], [], []
            with self._lock:
                self._lanes.append(
                    [threading.get_ident(), local.spans, local.marks]
                )
        return local.spans, local.marks, local.stack

    def open(self, name: str) -> int | None:
        """Start a span; None when ``name`` is already the innermost
        span (an override calling ``super()`` is one call, not two)."""
        spans, _marks, stack = self._lane()
        if stack and spans[stack[-1]][0] == name:
            return None
        idx = len(spans)
        spans.append([name, now_ns(), 0, stack[-1] if stack else -1])
        stack.append(idx)
        return idx

    def close(self, idx: int | None) -> None:
        if idx is None:
            return
        spans, _marks, stack = self._lane()
        stack.pop()
        spans[idx][2] = now_ns()

    def record(self, name: str, start: int, end: int) -> None:
        """A finished span under the current innermost span."""
        spans, _marks, stack = self._lane()
        spans.append([name, start, end, stack[-1] if stack else -1])

    def count(self, name: str, n: int) -> None:
        self._lane()[1].append([name, int(n), now_ns(), "c"])

    def sample(self, name: str, value: int) -> None:
        self._lane()[1].append([name, int(value), now_ns(), "s"])

    def drain(self) -> dict:
        """Everything recorded since the last drain, as plain data.

        Call it between units, when no span is open."""
        with self._lock:
            snap = {
                "pid": os.getpid(),
                "lanes": [[tid, [list(s) for s in spans], [list(m) for m in marks]]
                          for tid, spans, marks in self._lanes if spans or marks],
            }
            for _tid, spans, marks in self._lanes:
                spans.clear()
                marks.clear()
        return snap

    # wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        on_exit = EXIT_HOOKS.get(name)
        tracer = self
        if name == "orchestrate.cache_get":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = _before_cache_get(args)
                idx = tracer.open(name)
                try:
                    value = fn(*args, **kwargs)
                    _on_cache_get(tracer, args, value, before)
                    return value
                finally:
                    tracer.close(idx)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
                if on_exit is not None and idx is not None:
                    on_exit(tracer, args, out)
                return out
            finally:
                tracer.close(idx)
        return wrapper

    def _wrap_stream(self, fn: Callable) -> Callable:
        """``ServerClient.stream`` is a generator: split it into
        first-row wait and row streaming, and count the rows."""
        tracer = self

        @functools.wraps(fn)
        def stream(*args, **kwargs):
            start = now_ns()
            first = None
            for event in fn(*args, **kwargs):
                kind = event.get("event")
                if kind == "row":
                    if first is None:
                        first = now_ns()
                        tracer.record("serve.first_row", start, first)
                    tracer.count("serve.rows_streamed", 1)
                elif kind == "end":
                    end = now_ns()
                    tracer.record("serve.stream", first or end, end)
                yield event
        return stream

    def _wrap_codec(self, fn: Callable, size: Callable[[Any, Any], int]):
        tracer = self

        @functools.wraps(fn)
        def codec(arg):
            out = fn(arg)
            tracer.count("serve.message_bytes", size(arg, out))
            return out
        return codec

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        if isinstance(owner, dict):
            old = owner[attr]
            owner[attr] = new
            self._undo.append(lambda: owner.__setitem__(attr, old))
        else:
            old = inspect.getattr_static(owner, attr)
            setattr(owner, attr, new)
            self._undo.append(lambda: setattr(owner, attr, old))

    def install(self, client: bool = False) -> None:
        """Wrap every point in :data:`WRAP_POINTS`; with ``client``, also
        split the serve client's stream and count protocol bytes."""
        for name, modname, path in WRAP_POINTS:
            owner, attr = _resolve(importlib.import_module(modname), path)
            fn = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            self._patch(owner, attr, self._wrap(name, fn))
        if client:
            from repro.serve import client as client_mod, protocol

            cls = client_mod.ServerClient
            self._patch(cls, "stream", self._wrap_stream(cls.stream))
            self._patch(protocol, "encode_message", self._wrap_codec(
                protocol.encode_message, lambda _obj, out: len(out)))
            self._patch(protocol, "decode_message", self._wrap_codec(
                protocol.decode_message, lambda line, _out: len(line)))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _resolve(module: Any, path: str) -> tuple[Any, str]:
    if path.endswith("]"):
        dict_name, key = path[:-1].split("[")
        return getattr(module, dict_name), key
    *owners, attr = path.split(".")
    owner = module
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr



# -- analysis ---------------------------------------------------------------------

def self_times(spans: list) -> list[int]:
    """Per-span self ns: duration minus the durations of its children."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_table(
    snaps: list[dict],
    root_lane: tuple[int, int],
    window: tuple[int, int] | None = None,
) -> dict[str, Any]:
    """Per-layer metrics from drained snapshots.

    ``root_lane`` is ``(pid, tid)`` of the lane holding the unit's
    :data:`ROOT` span; its duration is the traced wall time and its
    own uncovered time is ``trace.unattributed_s``, so the layer self
    times of that lane plus ``trace.unattributed_s`` equal the wall
    time.  Spans of other lanes (the server process of ``serve_warm``)
    ran concurrently with the root: they are reported per layer but sit
    outside that sum.  ``window`` keeps only spans and marks that start
    inside it (one job of a long-lived traced server).
    """
    def inside(ns: int) -> bool:
        return window is None or window[0] <= ns <= window[1]

    self_ns: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    samples: dict[str, list[int]] = {}
    wall_ns = unattributed_ns = root_lane_ns = 0
    for snap in snaps:
        for tid, spans, marks in snap["lanes"]:
            in_root_lane = (snap["pid"], tid) == root_lane
            own = self_times(spans)
            for (name, start, end, _p), ns in zip(spans, own):
                if not inside(start):
                    continue
                if name == ROOT:
                    if in_root_lane:
                        wall_ns += end - start
                        unattributed_ns += ns
                    continue
                self_ns[name] += ns
                calls[name] += 1
                if in_root_lane:
                    root_lane_ns += ns
            for name, value, ns, kind in marks:
                if not inside(ns):
                    continue
                if kind == "c":
                    counts[name] += value
                else:
                    samples.setdefault(name, []).append(value)
    out: dict[str, Any] = {}
    for name in SELF_LAYERS:
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    for name in CALL_LAYERS:
        out[f"{name}.calls"] = calls[name]
    for metric, span in SERVE_PHASES.items():
        out[metric] = self_ns[span] / 1e9
    for name in COUNTS:
        out[name] = counts[name]
    kept = samples.get("spe.samples_per_call")
    out["spe.samples_per_call"] = statistics.median(kept) if kept else 0
    out["trace.unattributed_s"] = unattributed_ns / 1e9
    out["trace.wall_s"] = wall_ns / 1e9
    out["trace.layer_sum_s"] = root_lane_ns / 1e9
    return out


def write_chrome_trace(
    path: Path, snaps: list[dict], window: tuple[int, int] | None = None
) -> None:
    """Chrome trace-event JSON ("X" complete events, microseconds)."""
    events = []
    for snap in snaps:
        pid = snap["pid"]
        for tid, spans, _marks in snap["lanes"]:
            for i, (name, start, end, parent) in enumerate(spans):
                if window is not None and not window[0] <= start <= window[1]:
                    continue
                events.append({
                    "name": name, "ph": "X", "pid": pid, "tid": tid,
                    "ts": start / 1e3, "dur": (end - start) / 1e3,
                    "args": {"id": i, "parent": parent},
                })
    path.write_text(json.dumps({"traceEvents": events}) + "\n")
