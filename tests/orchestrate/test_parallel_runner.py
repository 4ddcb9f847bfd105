"""ParallelRunner: ordering, seeding, cache integration, fallback."""

import multiprocessing
import os
import threading
import time

import pytest

from repro.errors import ReproError
from repro.orchestrate import (
    ParallelRunner,
    ResultCache,
    TrialSpec,
    default_workers,
    derive_seed,
)

WORKERS = 3


def echo_trial(spec: TrialSpec) -> dict:
    """Module-level so it pickles across the process-pool boundary."""
    return {"value": spec.config["value"] * 10, "seed": spec.seed,
            "pid": os.getpid()}


def failing_trial(spec: TrialSpec) -> dict:
    if spec.config["value"] == 2:
        raise ValueError("trial 2 exploded")
    return {"ok": spec.config["value"]}


def lock_trial(spec: TrialSpec) -> dict:
    return {"lock": threading.Lock()}


def fail_first_trial(spec: TrialSpec) -> dict:
    if spec.config["value"] == 0:
        raise ValueError("trial 0 exploded")
    time.sleep(60)
    return {"ok": spec.config["value"]}


def bounded(call, timeout=10.0):
    """Run ``call`` in a thread: fail past ``timeout`` instead of hanging."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # noqa: BLE001 - inspected by tests
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout}s"
    return outcome


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def specs(n=6, experiment="runner-test"):
    return [
        TrialSpec(experiment=experiment, config={"value": i}, seed=i % 2)
        for i in range(n)
    ]


class TestSerial:
    def test_results_in_spec_order(self):
        out = ParallelRunner(workers=1).map(echo_trial, specs())
        assert [r["value"] for r in out] == [0, 10, 20, 30, 40, 50]

    def test_serial_runs_in_process(self):
        out = ParallelRunner(workers=1).map(echo_trial, specs(2))
        assert all(r["pid"] == os.getpid() for r in out)

    def test_serial_accepts_lambdas(self):
        # no pickling requirement at workers=1
        out = ParallelRunner(workers=1).map(lambda s: s.seed, specs(3))
        assert out == [0, 1, 0]

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError, match="trial 2"):
            ParallelRunner(workers=1).map(failing_trial, specs(4))


class TestParallel:
    def test_results_match_serial(self):
        serial = ParallelRunner(workers=1).map(echo_trial, specs())
        parallel = ParallelRunner(workers=WORKERS).map(echo_trial, specs())
        for s, p in zip(serial, parallel):
            assert {k: s[k] for k in ("value", "seed")} == {
                k: p[k] for k in ("value", "seed")
            }

    def test_seeds_fixed_by_grid_position(self):
        out = ParallelRunner(workers=WORKERS).map(echo_trial, specs())
        assert [r["seed"] for r in out] == [0, 1, 0, 1, 0, 1]

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError, match="trial 2"):
            ParallelRunner(workers=WORKERS).map(failing_trial, specs(4))

    def test_single_pending_short_circuits_serial(self):
        out = ParallelRunner(workers=WORKERS).map(echo_trial, specs(1))
        assert out[0]["pid"] == os.getpid()

    def test_report_counts(self):
        runner = ParallelRunner(workers=WORKERS)
        runner.map(echo_trial, specs())
        rep = runner.last_report
        assert (rep.total, rep.cache_hits, rep.executed) == (6, 0, 6)


class TestOneExecutor:
    """``workers > 1`` without a caller pool runs on a per-call
    :class:`~repro.orchestrate.WorkerPool`: failures surface fast and
    nothing outlives the call."""

    def test_unpicklable_fn_raises(self):
        outcome = bounded(
            lambda: ParallelRunner(workers=2).map(lambda s: s, specs(4))
        )
        assert isinstance(outcome.get("error"), ReproError)
        assert "cannot be pickled" in str(outcome["error"])

    def test_unpicklable_result_raises(self):
        outcome = bounded(
            lambda: ParallelRunner(workers=2).map(lock_trial, specs(4))
        )
        assert isinstance(outcome.get("error"), ReproError)
        assert "lock" in str(outcome["error"])

    def test_failure_stops_the_remaining_trials(self):
        outcome = bounded(
            lambda: ParallelRunner(workers=2).map(fail_first_trial, specs(4))
        )
        assert isinstance(outcome.get("error"), ValueError)
        assert multiprocessing.active_children() == []

    def test_sequential_maps_leave_no_workers_or_fds(self):
        runner = ParallelRunner(workers=2)
        runner.map(echo_trial, specs(4))  # settle lazily-opened fds
        fds_before = open_fds()
        for _ in range(20):
            out = runner.map(echo_trial, specs(4))
            assert [r["value"] for r in out] == [0, 10, 20, 30]
            assert multiprocessing.active_children() == []
        assert open_fds() <= fds_before


class TestWorkerCount:
    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            ParallelRunner(workers=-1)

    def test_zero_means_auto(self):
        assert ParallelRunner(workers=0).workers == default_workers()
        assert default_workers() >= 1


class TestCacheIntegration:
    def test_second_run_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = ParallelRunner(workers=1, cache=cache)
        a = first.map(echo_trial, specs())
        assert first.last_report.executed == 6

        second = ParallelRunner(workers=1, cache=ResultCache(tmp_path))
        b = second.map(echo_trial, specs())
        assert second.last_report.cache_hits == 6
        assert second.last_report.executed == 0
        assert a == b
        totals = ResultCache(tmp_path).persistent_stats()
        assert totals["hits"] == 6
        assert totals["misses"] == 6

    def test_parallel_populates_serial_reads(self, tmp_path):
        a = ParallelRunner(workers=WORKERS, cache=ResultCache(tmp_path)).map(
            echo_trial, specs()
        )
        reader = ParallelRunner(workers=1, cache=ResultCache(tmp_path))
        b = reader.map(echo_trial, specs())
        assert reader.last_report.cache_hits == 6
        for x, y in zip(a, b):
            assert x == y  # pids included: hits are literal stored values

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelRunner(workers=1, cache=cache).map(echo_trial, specs())
        other = [
            TrialSpec("runner-test", {"value": i, "extra": True}, seed=i % 2)
            for i in range(6)
        ]
        runner = ParallelRunner(workers=1, cache=ResultCache(tmp_path))
        runner.map(echo_trial, other)
        assert runner.last_report.cache_hits == 0

    def test_experiment_name_partitions_cache(self, tmp_path):
        ParallelRunner(workers=1, cache=ResultCache(tmp_path)).map(
            echo_trial, specs(2, experiment="a")
        )
        runner = ParallelRunner(workers=1, cache=ResultCache(tmp_path))
        runner.map(echo_trial, specs(2, experiment="b"))
        assert runner.last_report.cache_hits == 0


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("fig8", 1024, 0) == derive_seed("fig8", 1024, 0)

    def test_varies_with_any_part(self):
        base = derive_seed("fig8", 1024, 0)
        assert derive_seed("fig8", 1024, 1) != base
        assert derive_seed("fig8", 2048, 0) != base
        assert derive_seed("fig7", 1024, 0) != base

    def test_fits_32_bits(self):
        assert 0 <= derive_seed("x") < 2**32
