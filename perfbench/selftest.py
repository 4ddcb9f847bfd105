"""Self-test of the benchmark's output check.

Usage (from the repository root): python3 perfbench/selftest.py

Feeds the real measuring loop (``run.measure``) with units whose results
are good, corrupted in one number, or raise, and checks that every bad
unit is counted as failed — for any seed (units must agree with each
other) and for the default seed (units must match the recorded digest).
Exits 0 when every case holds.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import contract  # noqa: E402
import run  # noqa: E402
from workloads import Delivered  # noqa: E402

GOOD = {"stream": [{"period": 2000, "samples_trials": [417, 421]}]}
CORRUPT = copy.deepcopy(GOOD)
CORRUPT["stream"][0]["samples_trials"][1] += 1


def _units(seq):
    items = iter(seq)

    def unit():
        item = next(items)
        if isinstance(item, Exception):
            raise item
        return Delivered(item, 1, 838), None
    return unit


def _case(label: str, seq: list, seed: int, want_failed: int) -> bool:
    checker = run.Checker("sweep_cold", seed)
    if seed == contract.DEFAULT_SEED:
        checker.reference = run.digest(GOOD)  # stands in for the record
    got = run.measure(_units(seq), 0.0, checker, run.HostSpeed())
    ok = got.attempted == len(seq) and got.failed == want_failed
    print(f"{'ok  ' if ok else 'FAIL'} {label}: attempted {got.attempted}, "
          f"failed {got.failed} (want {want_failed})")
    return ok


def main() -> int:
    other = contract.DEFAULT_SEED + 1
    cases = [
        _case("clean units", [GOOD, GOOD, GOOD], other, 0),
        _case("corrupted unit, any seed", [GOOD, CORRUPT, GOOD], other, 1),
        _case("raising unit", [GOOD, RuntimeError("boom"), GOOD], other, 1),
        _case("corrupted first unit, default seed",
              [CORRUPT, GOOD, GOOD], contract.DEFAULT_SEED, 1),
    ]
    return 0 if all(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
