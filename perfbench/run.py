"""End-to-end and per-layer benchmark of the ``repro`` simulation stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_cold --seed 0 --seconds 15 --trace 0

``--trace 0`` sets the workload up several times (reporting the median
set-up time), then runs units for ``--seconds`` with no wrappers
installed and prints every end-to-end metric.  Times are host seconds
scaled to a reference host speed by a probe timed around each span
(``hostspeed.py``); the unscaled figures are printed beside them.  ``--trace 1`` spends half
the time on untraced units and half on traced ones, and prints every
per-layer metric; it also writes the median traced unit as Chrome
trace-event JSON and a per-layer table under ``.perfbench_out/``.

Every unit's ``results`` are checked: for the default seed against the
digest recorded in ``expected_digests.json``, for any seed against the
other units of the same invocation.  A mismatch, an exception or a
timeout counts as a failed unit.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import contract  # noqa: E402
from hostspeed import REF_PROBE_S, HostSpeed  # noqa: E402
from workloads import (  # noqa: E402
    PYTHON, ROOT, SRC, WORKLOADS, Delivered, child_env,
)

OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected_digests.json"
SETUP_REPEATS = 3
MIN_UNITS = 3
#: no new unit starts after this many seconds of the invocation
HARD_STOP_S = 140.0
START = time.perf_counter()


def digest(results: Any) -> str:
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Checker:
    """Output check: the recorded digest for the default seed, else the
    first unit's digest (all units of one invocation must agree)."""

    def __init__(self, workload: str, seed: int) -> None:
        self.reference = None
        if seed == contract.DEFAULT_SEED:
            self.reference = json.loads(EXPECTED.read_text())[workload]

    def ok(self, results: Any) -> bool:
        d = digest(results)
        if self.reference is None:
            self.reference = d
        return d == self.reference


@dataclass
class Units:
    """Outcome of a measuring loop."""

    seconds: list[float] = field(default_factory=list)  #: scaled
    raw: list[float] = field(default_factory=list)      #: host seconds
    extras: list[Any] = field(default_factory=list)
    trials: int = 0
    samples: int = 0
    attempted: int = 0
    failed: int = 0

    def p50(self) -> float:
        return statistics.median(self.seconds) if self.seconds else 0.0


def measure(unit: Callable[[], tuple[Delivered, Any]], seconds: float,
            checker: Checker, speed: HostSpeed) -> Units:
    """Run units until ``seconds`` have passed (at least ``MIN_UNITS``)."""
    got = Units()
    deadline = time.perf_counter() + seconds
    while got.attempted < MIN_UNITS or time.perf_counter() < deadline:
        if time.perf_counter() - START > HARD_STOP_S:
            break
        got.attempted += 1
        try:
            (delivered, extra), raw, scaled = speed.timed(unit)
        except Exception:
            got.failed += 1
            traceback.print_exc()
            continue
        if not checker.ok(delivered.results):
            got.failed += 1
            print(f"unit {got.attempted}: results differ from the reference",
                  file=sys.stderr)
            continue
        got.seconds.append(scaled)
        got.raw.append(raw)
        got.extras.append(extra)
        got.trials += delivered.trials
        got.samples += delivered.samples
    return got


def end_to_end(wl, seconds: float, checker: Checker) -> tuple[dict, Units]:
    speed = HostSpeed()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        _none, raw, scaled = speed.timed(wl.setup)
        raw_setups.append(raw)
        setups.append(scaled)
    got = measure(lambda: (wl.run(), None), seconds, checker, speed)
    print(f"  host seconds: setup p50 {statistics.median(raw_setups):.4f}  "
          f"run p50 {statistics.median(got.raw) if got.raw else 0.0:.4f}  "
          f"probe p50 {statistics.median(speed.probes) * 1e3:.3f} ms "
          f"(reference {REF_PROBE_S * 1e3:.3f} ms)")
    busy = sum(got.seconds)
    metrics = {
        "run_p50_s": got.p50(),
        "trials_per_s": got.trials / busy if busy else 0.0,
        "sim_samples_per_s": got.samples / busy if busy else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": wl.peak_rss_mib(),
    }
    return metrics, got


def import_breakdown() -> dict[str, float]:
    """``import.*`` from ``python -X importtime -c "import repro"`` (the
    median of three runs per key) and a bare interpreter start."""
    runs: list[dict[str, float]] = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([PYTHON, "-c", "pass"], env=child_env(), check=True)
        row = {"import.interpreter_s": time.perf_counter() - t0}
        err = subprocess.run(
            [PYTHON, "-X", "importtime", "-c", "import repro"],
            env=child_env(), check=True, capture_output=True, text=True,
        ).stderr
        row.update(parse_importtime(err))
        runs.append(row)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def parse_importtime(text: str) -> dict[str, float]:
    out = {"import.numpy_s": 0.0, "import.total_s": 0.0,
           "import.repro.root_s": 0.0}
    out.update({f"import.repro.{p}_s": 0.0 for p in contract.SUBPACKAGES})
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        name = name.strip()
        if name == "numpy" and not out["import.numpy_s"]:
            out["import.numpy_s"] = int(cum_us) / 1e6
        elif name == "repro":
            out["import.total_s"] = int(cum_us) / 1e6
        if name == "repro" or name.startswith("repro."):
            parts = name.split(".")
            sub = parts[1] if len(parts) > 1 else ""
            key = (f"import.repro.{sub}_s" if sub in contract.SUBPACKAGES
                   else "import.repro.root_s")
            out[key] += int(self_us) / 1e6
    return out


def per_layer(wl, seconds: float, checker: Checker) -> tuple[dict, Units]:
    from tracing import Tracer, layer_table, write_chrome_trace

    speed = HostSpeed()
    wl.setup()
    plain = measure(lambda: (wl.run(), None), seconds / 2, checker, speed)
    tracer = Tracer()
    wl.begin_tracing(tracer)
    try:
        def traced():
            delivered, snaps, lane, window = wl.traced_run(tracer)
            return delivered, (snaps, lane, window)
        traced_units = measure(traced, seconds / 2, checker, speed)
    finally:
        outside = wl.end_tracing(tracer)
    if not traced_units.seconds:
        raise RuntimeError("no traced unit succeeded")
    order = sorted(range(len(traced_units.seconds)),
                   key=traced_units.seconds.__getitem__)
    snaps, lane, window = traced_units.extras[order[len(order) // 2]]
    snaps = snaps + outside
    metrics = layer_table(snaps, lane, window)
    metrics["trace.overhead_s"] = traced_units.p50() - plain.p50()
    metrics.update(import_breakdown())

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{wl.seed}"
    write_chrome_trace(stem.with_suffix(".trace.json"), snaps, window)
    stem.with_suffix(".layers.txt").write_text(layer_report(metrics))
    both = Units(attempted=plain.attempted + traced_units.attempted,
                 failed=plain.failed + traced_units.failed)
    return metrics, both


def host_facts() -> dict[str, str]:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                line.split(":", 1)[1].strip() for line in f
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {"nproc": str(os.cpu_count()), "cpu": model,
            "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def layer_report(metrics: dict) -> str:
    units = {m["name"]: m["unit"] for m in contract.per_layer()}
    lines = [f"{k}: {v}" for k, v in host_facts().items()]
    lines += [f"{name:<40} {metrics[name]:>16.6g} {units[name]}"
              for name in contract.per_layer_names()]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=contract.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=contract.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}: run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    print(f"workload {args.workload}  seed {args.seed}")
    wl = WORKLOADS[args.workload](args.seed)
    checker = Checker(args.workload, args.seed)
    try:
        if args.trace:
            metrics, units = per_layer(wl, args.seconds, checker)
            wanted = contract.per_layer_names()
            table = {m["name"]: m["unit"] for m in contract.per_layer()}
        else:
            metrics, units = end_to_end(wl, args.seconds, checker)
            wanted = [m[0] for m in contract.END_TO_END]
            table = {m[0]: m[1] for m in contract.END_TO_END}
    finally:
        wl.close()
    missing = set(wanted) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric set differs from the contract: {missing}")

    for name in wanted:
        print(f"  {name:<40} {metrics[name]:>16.6g} {table[name]}")
    fail_frac = units.failed / units.attempted if units.attempted else 1.0
    print(f"  {'fail_frac':<40} {fail_frac:>16.6g} ratio "
          f"({units.failed} of {units.attempted} units)")
    if not args.trace:
        print("  unit host seconds: "
              + " ".join(f"{t:.4f}" for t in units.raw))
    print(f"  results digest {checker.reference}")
    print(json.dumps({
        "correct": units.failed == 0 and units.attempted > 0,
        "attempted": units.attempted,
        "failed": units.failed,
        "metrics": {n: {"value": metrics[n], "unit": table[n]} for n in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own child (peak RSS is per process), one
    after another; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [PYTHON, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True,
        ).stdout.splitlines()
        print("\n".join(out[:-1]))
        last = json.loads(out[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": v for k, v in last["metrics"].items()}
        )
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
