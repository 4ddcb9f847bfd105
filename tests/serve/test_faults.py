"""Fault injection: dead workers and vanished clients.

A worker killed mid-trial must degrade the job (retry, then
``partial``) — never hang it; a client that disconnects mid-stream
must not take the server or its job down.  The trial functions here
are module-level so the fork-started workers can unpickle them, and
the ``profile`` trial function is monkeypatched per test — patching in
the parent works because :meth:`Session.trial_fn` resolves the
function at dispatch time, then ships it to the worker by reference.
"""

import os
import signal
import socket
import threading
import time
from pathlib import Path

from repro.orchestrate import ResultCache, cache_key
from repro.scenarios import Session
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.scenarios.trials import TRIAL_FNS
from repro.serve import ProfilingServer, ServerClient, protocol


def flaky_trial(machine, tspec):
    """Announce the worker pid, then stall — but only the first time.

    The marker file makes the retry (on the replacement worker) return
    instantly, so the retry path is exercised without re-waiting.
    """
    kw = tspec.config["kwargs"]
    marker = Path(kw["scratch"]) / f"ran-{tspec.seed}"
    if not marker.exists():
        marker.write_text(str(os.getpid()))
        (Path(kw["scratch"]) / f"pid-{tspec.seed}").write_text(
            str(os.getpid())
        )
        time.sleep(kw.get("stall", 60))
    return {"metric": float(tspec.seed)}


def slow_trial(machine, tspec):
    kw = tspec.config["kwargs"]
    time.sleep(kw.get("stall", 1.0))
    return {"metric": float(tspec.seed)}


def unpicklable_trial(machine, tspec):
    return {"metric": float(tspec.seed), "lock": threading.Lock()}


def fault_spec(name, scratch, stall, trials=1, seed=100):
    return ScenarioSpec(
        name=name,
        kind="profile",
        workloads=(
            WorkloadSpec(
                "stream",
                n_threads=2,
                scale=0.02,
                kwargs={"scratch": str(scratch), "stall": stall},
            ),
        ),
        machine="small_test_machine",
        trials=trials,
        seed=seed,
    )


def wait_for(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestWorkerDeath:
    def test_killed_worker_trial_is_retried_to_done(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(TRIAL_FNS, "profile", flaky_trial)
        spec = fault_spec("kill-retry", tmp_path, stall=60, seed=100)
        pidfile = tmp_path / "pid-100"
        with ProfilingServer(port=0, workers=1, max_retries=1) as srv:
            with ServerClient(*srv.address) as c:
                ack = c.submit(spec)
                assert wait_for(pidfile.exists), "trial never started"
                os.kill(int(pidfile.read_text()), signal.SIGKILL)
                assert wait_for(
                    lambda: c.status(ack["job_id"])["state"] == "done"
                ), "job did not recover from the worker death"
                result = c.results(ack["job_id"])
        assert result["state"] == "done"
        assert result["rows"][0]["row"] == {"metric": 100.0}
        # the pool replaced the dead worker: capacity never decayed
        assert len(srv.pool.pids()) == 0  # closed on exit

    def test_exhausted_retries_degrade_to_partial_not_hang(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(TRIAL_FNS, "profile", flaky_trial)
        spec = fault_spec("kill-partial", tmp_path, stall=60, seed=200)
        pidfile = tmp_path / "pid-200"
        with ProfilingServer(port=0, workers=1, max_retries=0) as srv:
            with ServerClient(*srv.address) as c:
                ack = c.submit(spec)
                assert wait_for(pidfile.exists), "trial never started"
                os.kill(int(pidfile.read_text()), signal.SIGKILL)
                assert wait_for(
                    lambda: c.status(ack["job_id"])["state"] == "partial"
                ), "job did not degrade to partial"
                snap = c.status(ack["job_id"])
                assert snap["lost"] == [0]
                # results are still retrievable for the partial job
                result = c.results(ack["job_id"])
                assert result["state"] == "partial"
                assert result["report"] is None
                assert result["lost"] == [0]
                assert "lost" in result["error"]
                # the server keeps serving after the fault
                assert c.ping()["workers"] == 1

    def test_replacement_worker_restores_capacity(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(TRIAL_FNS, "profile", flaky_trial)
        spec = fault_spec("respawn", tmp_path, stall=60, seed=300)
        pidfile = tmp_path / "pid-300"
        with ProfilingServer(port=0, workers=2, max_retries=1) as srv:
            with ServerClient(*srv.address) as c:
                before = set(c.ping()["worker_pids"])
                ack = c.submit(spec)
                assert wait_for(pidfile.exists)
                dead = int(pidfile.read_text())
                os.kill(dead, signal.SIGKILL)
                assert wait_for(
                    lambda: c.status(ack["job_id"])["state"] == "done"
                )
                after = set(c.ping()["worker_pids"])
        assert len(after) == 2
        assert dead in before and dead not in after


class TestUnpicklableResult:
    def test_job_fails_instead_of_hanging(self, tmp_path, monkeypatch):
        monkeypatch.setitem(TRIAL_FNS, "profile", unpicklable_trial)
        spec = fault_spec("unpicklable", tmp_path, stall=0, seed=500)
        with ProfilingServer(port=0, workers=1) as srv:
            with ServerClient(*srv.address) as c:
                ack = c.submit(spec)
                assert wait_for(
                    lambda: c.status(ack["job_id"])["state"] == "failed",
                    timeout=10,
                ), "job with an unpicklable result never failed"
                snap = c.status(ack["job_id"])
                # the server keeps serving after the failure
                assert c.ping()["workers"] == 1
        assert "cannot be pickled" in snap["error"]


class TestClientDisconnect:
    def test_disconnect_mid_stream_leaves_job_running(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(TRIAL_FNS, "profile", slow_trial)
        cache = ResultCache(tmp_path / "cache")
        spec = fault_spec(
            "vanish", tmp_path, stall=1.0, trials=2, seed=400
        )
        with ProfilingServer(port=0, workers=1, cache=cache) as srv:
            sock = socket.create_connection(srv.address, timeout=10)
            f = sock.makefile("rwb")
            protocol.write_message(f, {"op": "submit", "spec": spec.to_dict()})
            ack = protocol.read_message(f)
            assert ack["ok"]
            job_id = ack["job_id"]
            protocol.write_message(f, {"op": "stream", "job_id": job_id})
            assert protocol.read_message(f)["streaming"] is True
            # hang up abruptly, mid-stream, before any row lands
            sock.close()

            # the server keeps serving and the job completes into cache
            with ServerClient(*srv.address) as c:
                assert wait_for(
                    lambda: c.status(job_id)["state"] == "done", timeout=60
                ), "job died with its streaming client"
                result = c.results(job_id)
        assert len(result["rows"]) == 2
        keys = [
            cache_key(t.experiment, t.config, t.seed)
            for t in Session().plan(spec)
        ]
        missing = object()
        for key in keys:
            assert cache.get(key, missing) is not missing
