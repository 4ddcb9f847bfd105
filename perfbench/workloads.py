"""The four workloads: inputs generated from the seed, set-up, one unit.

Every workload runs serially in one generating process with at most one
client connection and at most ``nproc`` worker processes.  One *unit* is
what a user waits for: one scenario run, measured from the outside.

* ``sweep_cold`` — the Fig. 8 period sweep in-process, empty cache: the
  many-small-calls regime (3264 ``sample_stream`` calls of ~35 samples).
* ``aux_cold`` — the Fig. 9 aux-buffer sweep in-process, empty cache:
  the bulk regime (144 calls of ~24.6k samples) with aux loss/wakeups.
* ``warm_cli`` — ``python -m repro run <grid> --cache`` on a filled
  cache: interpreter start, imports, cache reads and render only.
* ``serve_warm`` — the same grid replayed through ``repro serve`` by one
  closed-loop ``ServerClient``: the socket protocol, queue and scheduler.
"""

from __future__ import annotations

import copy
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PYTHON = sys.executable

#: generous per-unit ceiling; a unit over it counts as failed
UNIT_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 30.0
#: serve_warm reads the server's peak RSS after this many measured jobs
RSS_PROBE_UNITS = 64

_SAMPLING = {
    "NMO_ENABLE": "on", "NMO_NAME": "nmo", "NMO_MODE": "sampling",
    "NMO_TRACK_RSS": "off", "NMO_BUFSIZE": "1", "NMO_AUXBUFSIZE": "1",
}

#: ``examples/scenarios/fig8_small.json``, inlined so that edits to the
#: example cannot move the benchmark's inputs
FIG8_SMALL = {
    "name": "fig8", "kind": "period_sweep", "machine": "ampere_altra_max",
    "workloads": [
        {"name": "stream", "n_threads": 32, "scale": None, "kwargs": {}},
        {"name": "bfs", "n_threads": 32, "scale": None, "kwargs": {}},
    ],
    "settings": {**_SAMPLING, "NMO_PERIOD": "2000"},
    "sweep": {"param": "period", "values": [2000, 8000, 32000]},
    "colocation": None, "trials": 2, "seed": 0,
}
#: ``fig9_spec(aux_pages=(2, 8, 32, 128, 512, 2048), scale=0.25)``
FIG9_AUX = {
    "name": "fig9", "kind": "aux_sweep", "machine": "ampere_altra_max",
    "workloads": [
        {"name": "stream", "n_threads": 4, "scale": 0.25, "kwargs": {}},
    ],
    "settings": {**_SAMPLING, "NMO_PERIOD": "1024"},
    "sweep": {"param": "aux_pages", "values": [2, 8, 32, 128, 512, 2048]},
    "colocation": None, "trials": 1, "seed": 0,
}
#: 192 trials: the eight Fig. 8 periods x 12 trials x stream+bfs at
#: scale 0.005 with 4 threads (fills in about 4 s, replays in ~0.1 s)
WARM_GRID = {
    "name": "fig8", "kind": "period_sweep", "machine": "ampere_altra_max",
    "workloads": [
        {"name": "stream", "n_threads": 4, "scale": 0.005, "kwargs": {}},
        {"name": "bfs", "n_threads": 4, "scale": 0.005, "kwargs": {}},
    ],
    "settings": {**_SAMPLING, "NMO_PERIOD": "1000"},
    "sweep": {"param": "period",
              "values": [1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000]},
    "colocation": None, "trials": 12, "seed": 0,
}


def seeded(spec: dict, seed: int) -> dict:
    """The spec with the benchmark's seed written in."""
    out = copy.deepcopy(spec)
    out["seed"] = int(seed)
    return out


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` on the
    path and every default cache location inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(WORK / "default-cache")
    return env


@dataclass
class Delivered:
    """What one unit handed back to its user."""

    results: Any   #: the report's ``results`` (plain JSON types)
    trials: int    #: trials delivered, computed or served from cache
    samples: int   #: SPE samples in the delivered results


def count_samples(results: Any) -> int:
    """SPE samples in a report's ``results`` (period or aux sweep)."""
    if isinstance(results, dict):  # period sweep: workload -> points
        return sum(
            int(sum(p["samples_trials"]))
            for points in results.values() for p in points
        )
    return sum(int(row["samples"]) for row in results)


class Timeout:
    """Raise TimeoutError in the main thread after ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def _fire(self, _signum, _frame):
        raise TimeoutError(f"unit exceeded {self.seconds:.0f} s")

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def _vm_hwm_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Workload:
    """One workload: ``setup`` (timed, repeatable), then units."""

    name = ""
    spec_template: dict = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec_dict = seeded(self.spec_template, seed)
        WORK.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=WORK))
        self.spec_path = self.dir / "spec.json"
        self.spec_path.write_text(json.dumps(self.spec_dict, indent=2) + "\n")

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Delivered:
        raise NotImplementedError

    def traced_run(self, tracer) -> tuple[Delivered, list[dict], tuple, tuple | None]:
        """One unit under ``tracer``: (delivered, snapshots, root lane,
        window of the root span)."""
        raise NotImplementedError

    def begin_tracing(self, tracer) -> None:
        """Switch to traced units (after the untraced ones)."""

    def end_tracing(self, tracer) -> list[dict]:
        """Stop tracing; snapshots recorded outside the units."""
        return []

    def peak_rss_mib(self) -> float:
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class InProcessCold(Workload):
    """A cold scenario run through ``Session(workers=1)`` into an empty
    ``ResultCache``, in this process."""

    #: what a fresh interpreter does before it can start the first trial
    SETUP_CODE = (
        "import sys; from repro.scenarios import Session, ScenarioSpec; "
        "from repro.orchestrate import ResultCache; "
        "spec = ScenarioSpec.from_file(sys.argv[1]); "
        "Session(workers=1, cache=ResultCache(sys.argv[2])).plan(spec)"
    )

    def setup(self) -> None:
        cache = Path(tempfile.mkdtemp(prefix="setup-", dir=self.dir))
        try:
            subprocess.run(
                [PYTHON, "-c", self.SETUP_CODE, str(self.spec_path), str(cache)],
                env=child_env(), check=True, timeout=UNIT_TIMEOUT_S,
                stdout=subprocess.DEVNULL,
            )
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        from repro.scenarios import ScenarioSpec

        self.spec = ScenarioSpec.from_file(self.spec_path)

    def run(self) -> Delivered:
        from repro.orchestrate import ResultCache
        from repro.scenarios import Session

        cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.dir))
        try:
            with Timeout(UNIT_TIMEOUT_S):
                report = Session(workers=1, cache=ResultCache(cache)).run(self.spec)
            results = json.loads(json.dumps(report.to_dict()["results"]))
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return Delivered(results, report.execution["total_trials"],
                         count_samples(results))

    def traced_run(self, tracer):
        from tracing import ROOT as ROOT_SPAN

        tracer.drain()
        idx = tracer.open(ROOT_SPAN)
        try:
            delivered = self.run()
        finally:
            tracer.close(idx)
        lane = (os.getpid(), threading.get_ident())
        return delivered, [tracer.drain()], lane, None

    def begin_tracing(self, tracer) -> None:
        tracer.install()

    def end_tracing(self, tracer) -> list[dict]:
        tracer.uninstall()
        return []

    def peak_rss_mib(self) -> float:
        return _vm_hwm_mib(os.getpid())


class SweepCold(InProcessCold):
    name = "sweep_cold"
    spec_template = FIG8_SMALL


class AuxCold(InProcessCold):
    name = "aux_cold"
    spec_template = FIG9_AUX


#: fills a cache with a spec's trials in a fresh interpreter, on
#: ``nproc`` (at most 2) worker processes
FILL_CODE = (
    "import os, sys; from repro.scenarios import Session, ScenarioSpec; "
    "from repro.orchestrate import ResultCache; "
    "spec = ScenarioSpec.from_file(sys.argv[1]); "
    "workers = min(2, os.cpu_count() or 1); "
    "Session(workers=workers, cache=ResultCache(sys.argv[2])).run(spec)"
)


def _fill(spec_path: Path, cache_dir: Path) -> None:
    # a child, so this process never grows: a child's ru_maxrss starts
    # from its parent's high-water mark at spawn time
    subprocess.run([PYTHON, "-c", FILL_CODE, str(spec_path), str(cache_dir)],
                   env=child_env(), check=True, timeout=UNIT_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)


def run_child(argv: list[str], cwd: Path) -> int:
    """Run a child to completion; return its peak RSS in KiB.

    ``os.wait4`` gives this child's own rusage (``RUSAGE_CHILDREN`` is a
    running max over every child); a timer kills it past the ceiling.
    """
    with tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(argv, env=child_env(), cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(UNIT_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            tail = err.read().decode(errors="replace")[-500:]
            raise RuntimeError(f"{argv[1:3]} exited {proc.returncode}: {tail}")
    return usage.ru_maxrss


class WarmCli(Workload):
    """``python -m repro run <grid> --cache`` against a filled cache."""

    name = "warm_cli"
    spec_template = WARM_GRID

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cache: Path | None = None
        self.rss_kib: list[int] = []

    def setup(self) -> None:
        if self.cache is not None:
            shutil.rmtree(self.cache, ignore_errors=True)
        self.cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.dir))
        _fill(self.spec_path, self.cache)

    def _cli(self, prefix: list[str]) -> Delivered:
        report = self.dir / "report.json"
        report.unlink(missing_ok=True)
        self.rss_kib.append(run_child(prefix + [
            "run", str(self.spec_path), "--cache", "--cache-dir",
            str(self.cache), "--report-json", str(report),
        ], cwd=self.dir))
        doc = json.loads(report.read_text())
        results = doc["results"]
        return Delivered(results, doc["execution"]["total_trials"],
                         count_samples(results))

    def run(self) -> Delivered:
        return self._cli([PYTHON, "-m", "repro"])

    def traced_run(self, tracer):
        spans = self.dir / "spans.json"
        delivered = self._cli([PYTHON, str(HERE / "traced_child.py"),
                               "--spans", str(spans), "--"])
        snap = json.loads(spans.read_text())
        return delivered, [snap], tuple(snap["root_lane"]), None

    def peak_rss_mib(self) -> float:
        """Median peak RSS of the CLI children (one per unit)."""
        return statistics.median(self.rss_kib) / 1024


class ServeWarm(Workload):
    """The warm grid replayed through ``repro serve --workers 1 --cache``
    by one ``ServerClient`` in a closed loop: the next ``run()`` is sent
    only after the previous job's results have returned."""

    name = "serve_warm"
    spec_template = WARM_GRID

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cache: Path | None = None
        self.server: subprocess.Popen | None = None
        self.client = None
        self.units = 0
        self.rss_mib: float | None = None
        from repro.scenarios import ScenarioSpec

        self.spec = ScenarioSpec.from_dict(self.spec_dict)

    def _start(self, prefix: list[str]) -> None:
        from repro.serve import ServerClient

        self.server = subprocess.Popen(
            prefix + ["serve", "--workers", "1", "--port", "0",
                      "--cache-dir", str(self.cache)],
            env=child_env(), cwd=self.dir, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        banner = _read_line(self.server.stdout, SERVER_START_TIMEOUT_S)
        if not banner.startswith("serving on "):
            raise RuntimeError(f"server did not start: {banner!r}")
        port = int(banner.split()[2].rsplit(":", 1)[1])
        self.client = ServerClient(port=port, timeout=UNIT_TIMEOUT_S)
        self.client.connect()

    def _stop(self) -> None:
        """Shut the server down through its op (so its worker pool is
        closed), then make sure its whole process group is gone."""
        server, self.server = self.server, None
        client, self.client = self.client, None
        if server is None:
            return
        try:
            if client is not None:
                client.shutdown()
            server.wait(timeout=UNIT_TIMEOUT_S)
        except Exception:
            pass
        finally:
            try:
                os.killpg(server.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            server.wait()
            server.stdout.close()

    def setup(self) -> None:
        self._stop()
        if self.cache is not None:
            shutil.rmtree(self.cache, ignore_errors=True)
        self.cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.dir))
        self._start([PYTHON, "-m", "repro"])
        self._replay()  # fills the cache through the server's WorkerPool

    def _replay(self) -> Delivered:
        with Timeout(UNIT_TIMEOUT_S):
            outcome = self.client.run(self.spec)
        if outcome.state != "done" or outcome.report is None:
            raise RuntimeError(f"job ended {outcome.state}: {outcome.error}")
        results = outcome.report["results"]
        return Delivered(results, len(outcome.rows), count_samples(results))

    def run(self) -> Delivered:
        delivered = self._replay()
        self.units += 1
        if self.units == RSS_PROBE_UNITS:
            self.rss_mib = _vm_hwm_mib(self.server.pid)
        return delivered

    def begin_tracing(self, tracer) -> None:
        self._stop()
        self.spans = self.dir / "server-spans.json"
        self._start([PYTHON, str(HERE / "traced_child.py"),
                     "--spans", str(self.spans), "--"])
        tracer.install(client=True)

    def traced_run(self, tracer):
        from tracing import ROOT as ROOT_SPAN

        tracer.drain()
        idx = tracer.open(ROOT_SPAN)
        try:
            delivered = self._replay()
        finally:
            tracer.close(idx)
        snap = tracer.drain()
        lane = (os.getpid(), threading.get_ident())
        root = next(s for _tid, spans, _m in snap["lanes"] for s in spans
                    if s[0] == ROOT_SPAN)
        return delivered, [snap], lane, (root[1], root[2])

    def end_tracing(self, tracer) -> list[dict]:
        tracer.uninstall()
        self._stop()
        return [json.loads(self.spans.read_text())]

    def peak_rss_mib(self) -> float:
        """Server peak RSS after set-up and ``RSS_PROBE_UNITS`` jobs.

        The server keeps up to 256 finished jobs for ``results``, so its
        RSS grows with every job until then; reading it after a fixed
        job count keeps the figure independent of how many jobs fit in
        the measured seconds."""
        if self.rss_mib is None:
            return _vm_hwm_mib(self.server.pid)
        return self.rss_mib

    def close(self) -> None:
        self._stop()
        super().close()


def _read_line(stream, timeout: float) -> str:
    sel = selectors.DefaultSelector()
    sel.register(stream, selectors.EVENT_READ)
    try:
        if not sel.select(timeout):
            raise TimeoutError("no banner from the server")
    finally:
        sel.close()
    return stream.readline().decode(errors="replace").strip()


WORKLOADS = {w.name: w for w in (SweepCold, AuxCold, WarmCli, ServeWarm)}
