"""The SPE sampling engine.

Implements the hardware flow of paper Fig. 1 for one core:

1. the **sampling interval counter** is loaded with the period and
   decremented per decoded operation; a random perturbation avoids
   lock-step bias (``jitter`` config bit),
2. the selected operation is **tracked** through the pipeline for its
   full latency; if the interval counter fires again while the tracker is
   busy, the *new* sample is discarded — a **sample collision** — before
   filtering, so it costs no buffer space and no processing time
   (paper §VII-A),
3. surviving samples pass the **filter** (operation type, minimum
   latency); NMO's memory profiling keeps loads and stores only,
4. filtered-in samples become 64-byte records destined for the aux
   buffer (handled by :mod:`repro.spe.driver`).

The sampler never materialises the full op stream: it draws sample
*positions* arithmetically and asks an :class:`OpSource` to describe just
those operations, which is what lets the reproduction sample workloads
with 10^10+ operations.  Several cores running the same phase can be
sampled in one pass (``SpeSampler.sample_stream(..., peers=...)``):
positions and random draws stay per core, everything else runs once
over the joined segments.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.cpu.clock import GenericTimer
from repro.cpu.ops import OpKind
from repro.cpu.pipeline import PipelineModel
from repro.errors import SpeError
from repro.spe.config import SpeConfig
from repro.spe.records import SampleBatch
from repro.spe.refpath import reference_active
from repro.spe.strategies import check_period, get_strategy


class OpSource(Protocol):
    """What the sampler needs to know about one core's op stream.

    Implementations: closed-form workload phases
    (:class:`repro.workloads.base.PhaseOpSource`) and the exact
    trace-driven adapter (:class:`TraceOpSource`).
    """

    #: total decoded operations in this stream
    n_ops: int
    #: average cycles per decoded op (converts op index -> cycles)
    cpi: float

    def ops_at(
        self, idx: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """(kinds uint8, addrs uint64) of the ops at global indices.

        Must not draw from ``rng``: a phase-batched pass describes
        several cores' ops in one call."""
        ...

    def levels_at(
        self, idx: np.ndarray, kinds: np.ndarray, addrs: np.ndarray,
        rng: np.random.Generator | Sequence[np.random.Generator],
        offsets: Sequence[int] | np.ndarray | None = None,
    ) -> np.ndarray:
        """MemLevel uint8 per op (0 where not a memory op).

        With ``offsets`` (segment bounds into ``idx``), ``rng`` is one
        generator per segment and each segment draws from its own."""
        ...

    def pcs_at(self, idx: np.ndarray) -> np.ndarray:
        """Program counter of each op (uint64)."""
        ...


class TraceOpSource:
    """Exact :class:`OpSource` over a materialised execution result."""

    def __init__(self, kinds: np.ndarray, addrs: np.ndarray,
                 levels: np.ndarray, cpi: float, pc_base: int = 0x400000) -> None:
        self._kinds = np.asarray(kinds, dtype=np.uint8)
        self._addrs = np.asarray(addrs, dtype=np.uint64)
        self._levels = np.asarray(levels, dtype=np.uint8)
        if not (len(self._kinds) == len(self._addrs) == len(self._levels)):
            raise SpeError("kinds/addrs/levels must be equal length")
        if cpi <= 0:
            raise SpeError("cpi must be positive")
        self.n_ops = int(len(self._kinds))
        self.cpi = float(cpi)
        self.pc_base = pc_base

    def ops_at(self, idx, rng):
        return self._kinds[idx], self._addrs[idx]

    def levels_at(self, idx, kinds, addrs, rng, offsets=None):
        return self._levels[idx]

    def pcs_at(self, idx):
        return (self.pc_base + (np.asarray(idx, dtype=np.uint64) % 256) * 4).astype(
            np.uint64
        )


def sample_positions(
    n_ops: int,
    period: int,
    jitter: bool,
    rng: np.random.Generator,
    carry: int | None = None,
) -> tuple[np.ndarray, int]:
    """Indices selected by the interval counter, plus the carried counter.

    SPE always perturbs the counter reload slightly — "when the counter
    reaches zero, with some random perturbation added to avoid bias, an
    operation is selected" (paper §II-A) — otherwise periodic code would
    alias with the sampling interval.  The ``jitter`` config bit widens
    that window from the inherent ``period/256`` to ``period/16``.

    ``carry`` is the counter value left over from the previous op stream
    (the hardware counter runs continuously across program phases);
    the second return value is the residue to pass to the next stream.
    """
    check_period(period)
    if n_ops < 0:
        raise SpeError("n_ops must be >= 0")
    window = max(2, period // 16) if jitter else max(2, period // 256)

    def draw(k: int) -> np.ndarray:
        return period - rng.integers(0, window, size=k, dtype=np.int64)

    first = int(carry) if carry is not None else int(draw(1)[0])
    if first <= 0:
        raise SpeError(f"carry must be positive, got {first}")
    if n_ops == 0:
        return np.zeros(0, dtype=np.int64), first
    if first > n_ops:
        return np.zeros(0, dtype=np.int64), first - n_ops
    # draw enough intervals to exceed n_ops, then trim; a short draw is
    # topped up chunk by chunk (accumulated in a list and joined once at
    # the end, so the already-drawn prefix is never re-copied and the
    # total grows geometrically instead of quadratically)
    n_est = int((n_ops - first) // max(1, period - window)) + 2
    chunks = [first - 1 + np.concatenate([[0], np.cumsum(draw(n_est))])]
    last = int(chunks[-1][-1])
    while last < n_ops - 1:
        more = last + np.cumsum(draw(n_est))
        chunks.append(more)
        last = int(more[-1])
    pos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    past = pos[pos >= n_ops]
    residue = int(past[0]) - (n_ops - 1) if past.size else int(draw(1)[0])
    return pos[pos < n_ops], residue


def _reference_collision_scan(
    select_cycles: np.ndarray, latencies: np.ndarray
) -> tuple[np.ndarray, int]:
    """Scalar reference for :func:`collision_scan`.

    The original O(n) Python loop, retained verbatim: the differential
    suite pins the vectorized scan bit-identical to this implementation.
    """
    n = select_cycles.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool), 0
    gaps = np.diff(select_cycles)
    if gaps.size == 0 or gaps.min() >= latencies.max():
        return np.ones(n, dtype=bool), 0  # fast path: no overlap possible
    keep = np.ones(n, dtype=bool)
    t = select_cycles.tolist()
    lat = latencies.tolist()
    busy_until = t[0] + lat[0]
    collisions = 0
    for j in range(1, n):
        if t[j] < busy_until:
            keep[j] = False
            collisions += 1
        else:
            busy_until = t[j] + lat[j]
    return keep, collisions


#: block size for the vectorized successor-map computation
_SCAN_BLOCK = 16384
#: estimated keep fraction below which the lazy per-step search wins
_SCAN_SPARSE_FRAC = 1 / 16
#: cap on the expected selected positions of one phase-batched pass
#: (:func:`phase_groups`), which bounds a group's working arrays the way
#: ``_SCAN_BLOCK`` bounds the successor-map temporaries
_GROUP_POSITIONS = 32768


def _segment_successors(
    t: np.ndarray, end: np.ndarray, a: int, b: int, f: np.ndarray
) -> None:
    """Fill ``f[a:b]`` with the successor map of segment ``[a, b)``.

    ``f[j]`` = first index of the segment whose select time clears the
    tracker freed by a kept sample at ``j``, or ``b`` (the next
    segment's first sample, always kept) when none does.  Dense
    segments get it vectorized in blocks (clamped strictly forward so
    zero-latency ties cannot stall the chain); collision-heavy segments
    of at least 4096 samples, found by a strided density probe, get
    their kept chain linked in directly via a lazy C ``bisect`` per kept
    sample.  A bail-out bound (chain much longer than the probe
    predicted) falls back to the dense map.
    """
    m = b - a
    if m >= 4096:
        # strided probe of the overlap ratio: keep rate of the renewal
        # process is ~ 1 / (1 + E[lat] / E[gap])
        stride = max(1, m // 512)
        probe = np.arange(a, b - 1, stride)
        gap_mean = float(np.mean(t[probe + 1] - t[probe]))
        lat_mean = float(np.mean(end[probe] - t[probe]))
        est_frac = 1.0 / (1.0 + lat_mean / max(gap_mean, 1e-300))
        if est_frac <= _SCAN_SPARSE_FRAC:
            chain = _sparse_chain_walk(
                t, end, a, b, bail=int(2.5 * est_frac * m) + 1024
            )
            if chain is not None:
                f[chain[:-1]] = chain[1:]
                f[chain[-1]] = b
                return
    ts = t[a:b]
    for s in range(a, b, _SCAN_BLOCK):
        eb = end[s : min(s + _SCAN_BLOCK, b)]
        f[s : s + eb.shape[0]] = np.searchsorted(ts, eb, side="left") + a
    np.maximum(f[a:b], np.arange(a + 1, b + 1, dtype=np.int64), out=f[a:b])


def collision_scan(
    select_cycles: np.ndarray,
    latencies: np.ndarray,
    offsets: Sequence[int] | np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Greedy in-flight tracking: drop samples that arrive while busy.

    ``select_cycles`` are the (sorted) cycle times at which the interval
    counter fired; ``latencies`` the pipeline lifetime of each selected
    op.  Only a *kept* sample occupies the tracker.  Returns (keep mask,
    number of collisions).  ``offsets`` (``k + 1`` non-decreasing
    bounds from 0 to ``n``) splits the input into ``k`` independent
    segments — one per core of a phase-batched pass — each sorted on its
    own and scanned with its own tracker; None means one segment.

    Bit-identical, segment by segment, to
    :func:`_reference_collision_scan` but never walks the full stream in
    Python.  The key structural fact: because a segment's select times
    are sorted, a kept sample at ``j`` drops exactly the *contiguous*
    run of following samples with ``t < t[j] + lat[j]`` — so the kept
    set is the orbit of index 0 under a "next kept" successor map, and
    only the chain nodes need any scalar work.  Per segment:

    * **fast path**: no gap shorter than the segment's longest latency
      means no overlap; the segment is kept whole and the chain jumps
      over it in one step (found for all segments in one vectorized
      pass);
    * otherwise the successor map is built by
      :func:`_segment_successors` (dense or sparse, by a density probe),
      searching only within the segment and ending at the next
      segment's first sample.

    One chain walk over the joined successor map then covers every
    segment.
    """
    n = select_cycles.shape[0]
    bounds = np.asarray([0, n] if offsets is None else offsets, dtype=np.int64)
    if reference_active():
        keep = np.zeros(n, dtype=bool)
        collisions = 0
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            keep[a:b], c = _reference_collision_scan(
                select_cycles[a:b], latencies[a:b]
            )
            collisions += c
        return keep, collisions
    if n == 0:
        return np.zeros(0, dtype=bool), 0
    t = np.ascontiguousarray(select_cycles, dtype=np.float64)
    lat = np.asarray(latencies, dtype=np.float64)
    sizes = np.diff(bounds)
    live = sizes > 0
    starts, sizes = bounds[:-1][live], sizes[live]
    seg = np.repeat(np.arange(starts.size), sizes)
    tight = np.diff(t) < np.maximum.reduceat(lat, starts)[seg[:-1]]
    tight &= seg[1:] == seg[:-1]  # gaps inside one segment only
    if not tight.any():
        return np.ones(n, dtype=bool), 0  # fast path: no overlap possible
    slow = np.zeros(starts.size, dtype=bool)
    slow[seg[:-1][tight]] = True
    ends = starts + sizes
    f = np.arange(1, n + 1, dtype=np.int64)
    f[starts[~slow]] = ends[~slow]  # collision-free segments: one hop
    end = t + lat
    for a, b in zip(starts[slow].tolist(), ends[slow].tolist()):
        _segment_successors(t, end, a, b, f)
    fv = memoryview(f)
    kept = []
    append = kept.append
    j = 0
    while j < n:
        append(j)
        j = fv[j]
    keep = np.repeat(~slow, sizes)
    keep[kept] = True
    return keep, n - int(np.count_nonzero(keep))


def _sparse_chain_walk(
    t: np.ndarray, end: np.ndarray, a: int, b: int, bail: int
) -> list[int] | None:
    """Kept-chain indices of segment ``[a, b)`` via lazy per-node
    bisect; None past ``bail``."""
    haystack = memoryview(t)
    targets = memoryview(end)
    kept: list[int] = []
    append = kept.append
    search = bisect.bisect_left
    j = a
    while j < b:
        if len(kept) > bail:
            return None  # probe misjudged the density: redo vectorized
        append(j)
        j = search(haystack, targets[j], j + 1, b)
    return kept


def phase_groups(n_cores: int, n_ops: int, period: int) -> list[range]:
    """Runs of consecutive cores sampled together in one batched pass.

    A group's expected selected positions (``n_ops // period`` per core)
    stay within :data:`_GROUP_POSITIONS`; a core expecting more forms a
    group alone, so bulk streams keep the per-core working-set size.
    Under :func:`~repro.spe.refpath.reference_path` every core is its own
    group: the reference side of the golden-parity suite keeps the
    per-(phase, thread) sampler as its oracle.
    """
    per_core = max(1, n_ops // max(1, period))
    size = 1 if reference_active() else max(1, _GROUP_POSITIONS // per_core)
    return [range(c, min(c + size, n_cores)) for c in range(0, n_cores, size)]


@dataclass
class SamplerOutput:
    """Result of sampling one op stream on one core (or, from a
    phase-batched pass, several cores' streams joined in core order)."""

    batch: SampleBatch            #: samples that survived collisions + filter
    arrival_cycles: np.ndarray    #: absolute cycle time each record completes
    n_selected: int               #: interval-counter firings
    n_collisions: int             #: dropped while tracker busy (pre-filter)
    n_filtered: int               #: dropped by the event filter
    duration_cycles: float        #: op-stream execution span covered
    #: per-core (kept, selected, collisions, filtered) rows of a batched
    #: pass over several cores; None for one core
    segments: np.ndarray | None = None

    @property
    def n_kept(self) -> int:
        return len(self.batch)

    def split(self) -> list["SamplerOutput"]:
        """One output per core, in core order (``[self]`` for one core).

        Each core's batch and arrival times are views into this one's.
        """
        if self.segments is None:
            return [self]
        bounds = np.concatenate(([0], np.cumsum(self.segments[:, 0]))).tolist()
        return [
            SamplerOutput(
                batch=self.batch.select(slice(a, b)),
                arrival_cycles=self.arrival_cycles[a:b],
                n_selected=sel,
                n_collisions=col,
                n_filtered=filt,
                duration_cycles=self.duration_cycles,
            )
            for a, b, (_kept, sel, col, filt) in zip(
                bounds[:-1], bounds[1:], self.segments.tolist()
            )
        ]


class SpeSampler:
    """Per-core sampling pipeline (Fig. 1 stages 1-3)."""

    def __init__(
        self,
        period: int,
        config: SpeConfig,
        pipeline: PipelineModel,
        timer: GenericTimer,
        rng: np.random.Generator,
        track_collisions: bool = True,
    ) -> None:
        """``track_collisions=False`` disables the in-flight tracking
        window (PEBS-style backends, which do not collide)."""
        check_period(period)
        self.period = period
        self.config = config
        self.pipeline = pipeline
        self.timer = timer
        self.rng = rng
        self.track_collisions = track_collisions
        #: the selection rule (None on the config means ``periodic``,
        #: which delegates straight back to :func:`sample_positions`)
        self.strategy = get_strategy(config.strategy or "periodic")
        #: interval-counter residue carried across op streams (phases);
        #: the hardware counter never resets between code regions
        self._carry: int | None = None

    def _filter_mask(self, kinds: np.ndarray, total_lat: np.ndarray) -> np.ndarray:
        cfg = self.config
        mask = np.zeros(kinds.shape, dtype=bool)
        if cfg.loads:
            mask |= kinds == OpKind.LOAD
        if cfg.stores:
            mask |= kinds == OpKind.STORE
        if cfg.branches:
            mask |= kinds == OpKind.BRANCH
        if cfg.min_latency > 0:
            mask &= total_lat >= cfg.min_latency
        return mask

    def sample_stream(
        self,
        source: OpSource,
        start_cycle: float = 0.0,
        peers: Sequence[tuple[SpeSampler, OpSource, float]] = (),
    ) -> SamplerOutput:
        """Sample one op stream starting at ``start_cycle`` (core clock).

        ``peers`` adds more cores to the same pass: ``(sampler, source,
        start_cycle)`` triples for other threads of the same phase, each
        source a :meth:`~repro.workloads.base.PhaseOpSource.with_thread`
        view of ``source``'s stream and each sampler with its own
        generator and this sampler's config.  The stages:

        1. positions, per core, from the core's strategy, generator and
           carried counter (these give the segment sizes);
        2. ops, PCs, levels mapping, latencies, the collision scan and
           the filter, once over the joined positions, with per-core
           segment offsets;
        3. inside stage 2, each core draws its level uniforms and then
           its latency jitter from its own generator.

        Every core's RNG sequence is therefore positions, levels, jitter
        — exactly what it draws when sampled alone — and the result
        equals the per-core calls byte for byte.  The returned output
        covers all cores; :meth:`SamplerOutput.split` gives one per core.
        """
        members = [(self, source, start_cycle), *peers]
        for sampler, _src, _start in peers:
            if (sampler.config != self.config
                    or sampler.track_collisions != self.track_collisions):
                raise SpeError("batched samplers must share one configuration")
        rngs = [m[0].rng for m in members]
        if len({id(g) for g in rngs}) != len(rngs):
            raise SpeError("batched samplers need one generator per core")
        parts = []
        for sampler, src, _start in members:
            pos, sampler._carry = sampler.strategy.sample(
                src, sampler.period, sampler.config.jitter, sampler.rng,
                sampler._carry,
            )
            parts.append(pos)
        sizes = np.array([p.size for p in parts], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        n_selected = int(offsets[-1])
        duration = source.n_ops * source.cpi
        if n_selected == 0:
            return SamplerOutput(
                batch=SampleBatch(),
                arrival_cycles=np.zeros(0),
                n_selected=0,
                n_collisions=0,
                n_filtered=0,
                duration_cycles=duration,
                segments=np.zeros((len(members), 4), dtype=np.int64)
                if peers else None,
            )
        pos = parts[0]
        if peers:
            pos = np.concatenate(parts)
            threads = [src.thread for _s, src, _c in members]
            source = source.with_thread(np.repeat(threads, sizes))
        kinds, addrs = source.ops_at(pos, self.rng)
        levels = source.levels_at(pos, kinds, addrs, rngs, offsets)
        dram_scale = float(getattr(source, "dram_latency_scale", 1.0))
        lat = self.pipeline.op_latencies(
            kinds, levels, rng=rngs, dram_scale=dram_scale, offsets=offsets
        )

        starts = np.array([m[2] for m in members], dtype=np.float64)
        select_cycles = np.repeat(starts, sizes) + pos.astype(np.float64) * source.cpi
        if self.track_collisions:
            keep, n_collisions = collision_scan(select_cycles, lat, offsets)
        else:
            keep = np.ones(n_selected, dtype=bool)
            n_collisions = 0

        kinds, addrs, levels, lat = kinds[keep], addrs[keep], levels[keep], lat[keep]
        pos_kept = pos[keep]
        retire_cycles = select_cycles[keep] + lat

        total_lat = np.minimum(lat, 0xFFFF).astype(np.uint16)
        fmask = self._filter_mask(kinds, total_lat)
        n_filtered = int((~fmask).sum())

        retire_cycles = retire_cycles[fmask]
        ts = self.timer.cycles_to_ticks(retire_cycles)
        ts = np.maximum(ts, 1).astype(np.uint64)  # 0 would be decode-skipped
        issue_lat = np.minimum(
            np.maximum(total_lat[fmask].astype(np.float64) * 0.25, 1), 0xFFFF
        ).astype(np.uint16)
        batch = SampleBatch(
            pc=source.pcs_at(pos_kept[fmask]),
            addr=addrs[fmask],
            ts=ts,
            level=levels[fmask],
            kind=kinds[fmask],
            total_lat=total_lat[fmask],
            issue_lat=issue_lat,
        )
        segments = None
        if peers:
            passed = keep.copy()
            passed[keep] = fmask
            seg_kept = np.diff(np.concatenate(([0], np.cumsum(keep)))[offsets])
            seg_passed = np.diff(np.concatenate(([0], np.cumsum(passed)))[offsets])
            segments = np.stack([
                seg_passed, sizes, sizes - seg_kept, seg_kept - seg_passed
            ], axis=1)
        return SamplerOutput(
            batch=batch,
            arrival_cycles=retire_cycles,
            n_selected=n_selected,
            n_collisions=n_collisions,
            n_filtered=n_filtered,
            duration_cycles=duration,
            segments=segments,
        )
