"""What the benchmark reports, and the ``BENCHMARK.json`` built from it.

Run ``python3 perfbench/contract.py`` from the repository root to write
``BENCHMARK.json``; ``run.py`` checks that every run emits exactly the
metrics named here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracing

RUN_SECONDS = 20
DEFAULT_SEED = 0

#: why each workload exists (one line each; the long form is in README.md)
WORKLOADS = {
    "sweep_cold": "Fig. 8 period sweep in-process, empty cache: 3264 small "
                  "sample_stream calls, so per-call overhead dominates",
    "aux_cold": "Fig. 9 aux-buffer sweep in-process, empty cache: 144 bulk "
                "calls with aux loss and wakeups; driver, encode/decode and "
                "memory dominate",
    "warm_cli": "repro run on a filled cache as a subprocess: interpreter "
                "start, imports, cache reads and render, no simulation",
    "serve_warm": "192-trial warm grid replayed by one closed-loop client "
                  "through repro serve: socket protocol, queue, scheduler",
}

#: (name, unit, better, bound)
END_TO_END = (
    ("run_p50_s", "s", "lower", 0.24),
    ("trials_per_s", "1/s", "higher", 0.24),
    ("sim_samples_per_s", "1/s", "higher", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.2),
)

#: ``repro`` subpackages whose import self time is reported separately;
#: every other ``repro`` module (the package itself, ``errors``,
#: ``__main__``) lands in ``import.repro.root_s``
SUBPACKAGES = (
    "analysis", "cluster", "colocation", "cpu", "evalharness", "kernel",
    "machine", "nmo", "orchestrate", "runtime", "scenarios", "serve", "spe",
    "substrate", "workloads",
)


#: per-layer counts where more is better (work delivered per call);
#: every other per-layer metric is a cost
HIGHER = ("spe.samples_per_call", "spe.samples_kept", "serve.rows_streamed")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name.rsplit(".", 1)[-1]:
        return "bytes"
    return "count"


def per_layer_names() -> list[str]:
    names = [f"{n}.calls" for n in tracing.CALL_LAYERS]
    names += [f"{n}.self_s" for n in tracing.SELF_LAYERS]
    names += list(tracing.SERVE_PHASES)
    names += list(tracing.COUNTS)
    names += ["spe.samples_per_call"]
    names += ["import.interpreter_s", "import.numpy_s", "import.total_s",
              "import.repro.root_s"]
    names += [f"import.repro.{p}_s" for p in SUBPACKAGES]
    names += ["trace.wall_s", "trace.layer_sum_s", "trace.unattributed_s",
              "trace.overhead_s"]
    return names


def per_layer() -> list[dict]:
    return [
        {"name": n, "unit": _unit(n),
         "better": "higher" if n in HIGHER else "lower"}
        for n in per_layer_names()
    ]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": per_layer(),
    }


if __name__ == "__main__":
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "BENCHMARK.json")
    out.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {out}")
