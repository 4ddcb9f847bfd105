"""Parity suite for the phase-batched sampler.

One batched pass per phase must equal the per-(phase, thread) pipeline
it replaced, piece by piece:

* the segmented :func:`collision_scan` against
  :func:`_reference_collision_scan` run on each segment alone (empty,
  1-sample and >= 4096-sample segments, dense and sparse probe
  branches),
* every ``access_patterns`` builder called with a thread-id array
  against its per-thread scalar calls,
* the inverse-CDF level draw against ``Generator.choice(levels, p=...)``,
* per-segment latency jitter against one ``op_latencies`` call per core,
* ``SpeSampler.sample_stream`` with peers against one call per core
  (outputs, carried counters and generator states).
"""

import dataclasses

import numpy as np
import pytest

import repro.spe.sampler as sampler_mod
from repro.cpu.clock import GenericTimer
from repro.cpu.ops import OpKind
from repro.cpu.pipeline import PipelineModel
from repro.errors import SpeError, WorkloadError
from repro.machine.hierarchy import CORE_LEVELS
from repro.machine.statcache import AccessClass, StatCacheModel
from repro.machine.tiers import placement_for
from repro.machine.spec import tiered_altra_max
from repro.runtime.openmp import chunk_of
from repro.spe.config import SpeConfig
from repro.spe.refpath import reference_path
from repro.spe.sampler import (
    _GROUP_POSITIONS,
    SpeSampler,
    _reference_collision_scan,
    collision_scan,
    phase_groups,
)
from repro.workloads import access_patterns as ap
from repro.workloads.registry import make_workload


def segmented_reference(t, lat, offsets):
    keep, total = [], 0
    for a, b in zip(offsets[:-1], offsets[1:]):
        k, c = _reference_collision_scan(t[a:b], lat[a:b])
        keep.append(k)
        total += c
    return np.concatenate(keep), total


def make_segments(rng, sizes, gap, lat_lo, lat_hi):
    """Concatenated per-segment (select times, latencies) plus offsets;
    each segment sorted on its own with an arbitrary start time."""
    ts, lats = [], []
    for m in sizes:
        start = rng.uniform(0, 1e6)
        ts.append(start + np.sort(rng.uniform(0, m * gap, m)))
        lats.append(rng.uniform(lat_lo, lat_hi, m))
    offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    return np.concatenate(ts), np.concatenate(lats), offsets


class TestSegmentedCollisionScan:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_layouts(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.choice([0, 1, 2, 7, 40, 300], size=int(rng.integers(1, 20)))
        t, lat, off = make_segments(rng, sizes, gap=100.0, lat_lo=1, lat_hi=400)
        keep, coll = collision_scan(t, lat, off)
        keep_r, coll_r = segmented_reference(t, lat, off)
        assert coll == coll_r
        assert (keep == keep_r).all()

    def test_dense_and_sparse_branches(self, monkeypatch):
        calls = []
        real = sampler_mod._sparse_chain_walk

        def spy(t, end, a, b, bail):
            out = real(t, end, a, b, bail)
            calls.append((a, b, out is not None))
            return out

        monkeypatch.setattr(sampler_mod, "_sparse_chain_walk", spy)
        rng = np.random.default_rng(3)
        # dense (some overlap, most kept), collision-free, sparse
        # (heavy overlap), a single sample, an empty segment, dense again
        parts = [
            make_segments(rng, [5000], 100.0, 1, 300),
            make_segments(rng, [4100], 100.0, 1, 50),
            make_segments(rng, [6000], 1.0, 1000, 8000),
            make_segments(rng, [1], 1.0, 5, 5),
            make_segments(rng, [0], 1.0, 5, 5),
            make_segments(rng, [4096], 50.0, 10, 200),
        ]
        t = np.concatenate([p[0] for p in parts])
        lat = np.concatenate([p[1] for p in parts])
        sizes = [len(p[0]) for p in parts]
        off = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        keep, coll = collision_scan(t, lat, off)
        keep_r, coll_r = segmented_reference(t, lat, off)
        assert coll == coll_r and (keep == keep_r).all()
        # exactly the collision-heavy segment took the sparse walk
        assert calls == [(off[2], off[3], True)]
        # the dense segments did collide (so neither took the fast path)
        for s in (0, 5):
            a, b = off[s], off[s + 1]
            assert not keep[a:b].all()

    def test_sparse_bail_out_per_segment(self):
        rng = np.random.default_rng(11)
        n = 8000
        t = np.sort(rng.uniform(0, n * 100, n))
        lat = np.where(np.arange(n) < n // 2, rng.uniform(5e3, 2e4, n), 0.1)
        t2, lat2, _ = make_segments(rng, [300], 10.0, 1, 100)
        t_all = np.concatenate([t2, t])
        lat_all = np.concatenate([lat2, lat])
        off = np.array([0, 300, 300 + n], dtype=np.int64)
        keep, coll = collision_scan(t_all, lat_all, off)
        keep_r, coll_r = segmented_reference(t_all, lat_all, off)
        assert coll == coll_r and (keep == keep_r).all()

    def test_segments_do_not_interact(self):
        # a long-latency sample at the end of one segment must not drop
        # the next segment's first samples, even when they start earlier
        t = np.array([0.0, 10.0, 5.0, 6.0])
        lat = np.array([1.0, 1000.0, 0.5, 0.5])
        keep, coll = collision_scan(t, lat, np.array([0, 2, 4]))
        assert keep.tolist() == [True, True, True, True] and coll == 0

    def test_none_offsets_is_one_segment(self):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0, 1000, 500))
        lat = rng.uniform(1, 50, 500)
        a = collision_scan(t, lat)
        b = collision_scan(t, lat, np.array([0, 500]))
        assert a[1] == b[1] and (a[0] == b[0]).all()

    def test_reference_path_is_segmented(self):
        rng = np.random.default_rng(9)
        t, lat, off = make_segments(rng, [0, 50, 1, 80], 10.0, 1, 100)
        with reference_path():
            keep, coll = collision_scan(t, lat, off)
        keep_r, coll_r = segmented_reference(t, lat, off)
        assert coll == coll_r and (keep == keep_r).all()


class TestThreadArrayAddressFns:
    N_THREADS = 7

    def builders(self):
        base, n = 1 << 30, 10_007
        t = self.N_THREADS
        seq = ap.sequential(base, n, 8, n_threads=t, passes=2)
        return {
            "sequential": seq,
            "strided": ap.strided(base, n, 4, stride_elems=3, n_threads=t),
            "random_in": ap.random_in(base, n, 8, salt=13),
            "local_window": ap.local_window(
                base, n, 8, window=64, n_threads=t, salt=3,
                global_fraction=0.2,
            ),
            "round_robin": ap.round_robin(
                [seq, ap.random_in(base, n, 8, salt=1)]
            ),
            "weighted_mix": ap.weighted_mix(
                [(seq, 2.0), (ap.random_in(base, n, 8, salt=2), 1.0)], salt=4
            ),
        }

    @pytest.mark.parametrize("name", [
        "sequential", "strided", "random_in", "local_window",
        "round_robin", "weighted_mix",
    ])
    def test_array_thread_equals_scalar_calls(self, name):
        fn = self.builders()[name]
        rng = np.random.default_rng(0)
        mem_idx = rng.integers(0, 1 << 20, 600)
        threads = np.sort(rng.integers(0, self.N_THREADS, 600))
        got = fn(mem_idx, threads)
        want = np.empty_like(got)
        for th in np.unique(threads):
            m = threads == th
            want[m] = fn(mem_idx[m], int(th))
        assert got.dtype == np.uint64
        assert (got == want).all()

    def test_chunk_of_broadcasts(self):
        threads = np.arange(5)
        lo, hi = chunk_of(23, 5, threads)
        assert [(int(a), int(b)) for a, b in zip(lo, hi)] == [
            chunk_of(23, 5, i) for i in range(5)
        ]
        with pytest.raises(WorkloadError):
            chunk_of(23, 5, np.array([0, 5]))

    def test_phase_source_thread_array(self):
        # kind_fn / addr_fn receive the per-op thread ids through ops_at
        w = make_workload("stream", tiered_altra_max(), n_threads=4,
                          scale=1 / 512)
        phase = w.phases[1]
        rng = np.random.default_rng(1)
        idx = np.sort(rng.integers(0, phase.n_ops, 400))
        threads = np.repeat(np.arange(4), 100)
        kinds, addrs = w.op_source(phase, 0).with_thread(threads).ops_at(
            idx, None)
        for th in range(4):
            m = threads == th
            k1, a1 = w.op_source(phase, th).ops_at(idx[m], None)
            assert (kinds[m] == k1).all() and (addrs[m] == a1).all()


class TestLevelDraw:
    def test_inverse_cdf_matches_generator_choice(self, ampere):
        model = StatCacheModel(ampere)
        levels = np.array([int(lv) for lv in CORE_LEVELS], dtype=np.uint8)
        classes = [AccessClass(footprint=1 << 26, stride=64, weight=2.0),
                   AccessClass(footprint=1 << 16, stride=0)]
        probs = model.mixture_probabilities(classes)
        pvec = np.array([probs[lv] for lv in CORE_LEVELS], dtype=np.float64)
        pvec = pvec / pvec.sum()
        for seed in range(200):
            n = 1 + seed * 7
            want = np.random.default_rng(seed).choice(levels, size=n, p=pvec)
            got = model.levels_for(
                classes, np.random.default_rng(seed).random(n))
            drawn = model.draw_levels(classes, n, np.random.default_rng(seed))
            assert got.dtype == want.dtype == drawn.dtype
            assert (got == want).all() and (drawn == want).all()


class TestSegmentedJitter:
    def test_per_segment_generators(self, ampere):
        pm = PipelineModel(ampere)
        rng = np.random.default_rng(2)
        sizes = [3, 0, 50, 1]
        kinds = rng.choice(
            np.array([OpKind.LOAD, OpKind.STORE, OpKind.OTHER, OpKind.FLOP],
                     dtype=np.uint8), size=sum(sizes))
        levels = rng.integers(1, 5, sum(sizes)).astype(np.uint8)
        off = np.concatenate(([0], np.cumsum(sizes)))
        got = pm.op_latencies(
            kinds, levels, rng=[np.random.default_rng(s) for s in range(4)],
            dram_scale=1.7, offsets=off,
        )
        want = np.concatenate([
            pm.op_latencies(kinds[a:b], levels[a:b],
                            rng=np.random.default_rng(s), dram_scale=1.7)
            for s, (a, b) in enumerate(zip(off[:-1], off[1:])) if b > a
        ])
        assert (got == want).all()


def make_samplers(machine, n, period, *, strategy=None, track=True, seed=0):
    cfg = SpeConfig.loads_and_stores()
    if strategy is not None:
        cfg = dataclasses.replace(cfg, strategy=strategy)
    pm = PipelineModel(machine)
    timer = GenericTimer(machine.frequency_hz)
    return [
        SpeSampler(period, cfg, pm, timer,
                   np.random.default_rng([seed, c, period]),
                   track_collisions=track)
        for c in range(n)
    ]


def assert_outputs_equal(a, b):
    for c in a.batch._COLUMNS:
        assert (getattr(a.batch, c) == getattr(b.batch, c)).all(), c
    assert (a.arrival_cycles == b.arrival_cycles).all()
    for f in ("n_selected", "n_collisions", "n_filtered", "n_kept",
              "duration_cycles"):
        assert getattr(a, f) == getattr(b, f), f


class TestBatchedSampleStream:
    @pytest.mark.parametrize("case", [
        ("stream", 512, None, True),
        ("bfs", 256, "poisson", True),
        ("cfd", 1024, "addr_hash", True),
        ("stream", 2000, "hybrid", True),
        ("stream", 512, None, False),
        # a mean gap near the ops per thread: some cores select nothing
        ("stream", 1 << 19, "poisson", True),
    ])
    def test_equals_per_core_calls(self, case):
        name, period, strategy, track = case
        machine = tiered_altra_max()
        n = 9
        w = make_workload(name, machine, n_threads=n, scale=1 / 256)
        w.attach_tiering(placement_for(
            w.process.address_space, len(machine.tiers), "interleave", 0.5))
        batched = make_samplers(machine, n, period, strategy=strategy,
                                track=track)
        single = make_samplers(machine, n, period, strategy=strategy,
                               track=track)
        starts = [1000.0 * c + 0.5 for c in range(n)]
        for phase in w.phases[:4]:
            srcs = [w.op_source(phase, c) for c in range(n)]
            lead, *rest = zip(batched, srcs, starts)
            group = lead[0].sample_stream(lead[1], lead[2], peers=rest)
            parts = group.split()
            assert len(parts) == n
            assert group.n_kept == sum(p.n_kept for p in parts)
            assert group.n_collisions == sum(p.n_collisions for p in parts)
            for c in range(n):
                want = single[c].sample_stream(srcs[c], starts[c])
                assert_outputs_equal(parts[c], want)
        for b, s in zip(batched, single):
            assert b._carry == s._carry
            assert b.rng.random() == s.rng.random()

    def test_one_core_is_the_plain_call(self, ampere):
        w = make_workload("bfs", ampere, n_threads=2, scale=1 / 64)
        a, b = make_samplers(ampere, 1, 300), make_samplers(ampere, 1, 300)
        src = w.op_source(w.phases[1], 1)
        out = a[0].sample_stream(src, 42.0)
        assert out.segments is None and out.split() == [out]
        assert_outputs_equal(out, b[0].sample_stream(src, 42.0, peers=()))

    def test_shared_generator_rejected(self, ampere):
        w = make_workload("stream", ampere, n_threads=2, scale=1 / 256)
        s0, s1 = make_samplers(ampere, 2, 512)
        s1.rng = s0.rng
        src = w.op_source(w.phases[0], 0)
        with pytest.raises(SpeError, match="one generator per core"):
            s0.sample_stream(src, 0.0, peers=[(s1, src.with_thread(1), 0.0)])

    def test_mixed_config_rejected(self, ampere):
        w = make_workload("stream", ampere, n_threads=2, scale=1 / 256)
        s0, = make_samplers(ampere, 1, 512)
        s1, = make_samplers(ampere, 1, 512, track=False, seed=1)
        src = w.op_source(w.phases[0], 0)
        with pytest.raises(SpeError, match="share one configuration"):
            s0.sample_stream(src, 0.0, peers=[(s1, src.with_thread(1), 0.0)])


class TestPhaseGroups:
    def test_groups_cover_cores_under_the_cap(self):
        groups = phase_groups(32, 70_000, 2000)  # 35 expected per core
        assert [c for g in groups for c in g] == list(range(32))
        assert len(groups) == 1
        per_core = 5_000
        groups = phase_groups(32, per_core * 1024, 1024)
        assert all(len(g) * per_core <= _GROUP_POSITIONS for g in groups)
        assert [c for g in groups for c in g] == list(range(32))

    def test_bulk_cores_sample_alone(self):
        groups = phase_groups(4, 25_000_000, 1024)  # ~24.4k per core
        assert [list(g) for g in groups] == [[0], [1], [2], [3]]

    def test_reference_path_uses_singletons(self):
        with reference_path():
            groups = phase_groups(8, 1000, 100)
        assert [list(g) for g in groups] == [[c] for c in range(8)]
