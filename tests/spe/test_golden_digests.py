"""Golden digests: whole profiles pinned to hard-coded sha256 values.

The golden-parity suite compares the fast path against the reference
path, which catches a divergence between the two but not a change both
share.  These digests were recorded from the per-(phase, thread)
sampler before it was phase-batched, so they pin the program's output
itself: every sample column, every per-thread counter and every scalar
of the :class:`ProfileResult`, across the five paper workloads at 32
threads, flat and tiered memory, three sampling strategies, the
collision-free PEBS-style backend and a serial (``parallel=False``)
phase.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.machine.spec import (
    ampere_altra_max,
    tiered_altra_max,
    x86_pebs_machine,
)
from repro.machine.statcache import AccessClass
from repro.machine.tiers import placement_for
from repro.nmo.backends import ArmSpeBackend, X86PebsBackend
from repro.nmo.env import NmoMode, NmoSettings
from repro.nmo.profiler import NmoProfiler
from repro.spe.config import SpeConfig
from repro.workloads.access_patterns import random_in, sequential, weighted_mix
from repro.workloads.base import Phase, Workload
from repro.workloads.registry import make_workload


class SerialTailWorkload(Workload):
    """A team phase followed by a single-threaded (serial) phase."""

    name = "serial_tail"

    def _build(self):
        n = 1 << 16
        base = self.alloc_object("buf", n * 8)
        t = self.n_threads
        self.add_phase(Phase(
            name="team", n_mem_ops=40_000, cpi=0.8,
            addr_fn=weighted_mix([
                (sequential(base, n, 8, n_threads=t), 3.0),
                (random_in(base, n, 8, salt=5), 1.0),
            ]),
            classes=[AccessClass(footprint=n * 8, stride=8)],
        ))
        self.add_phase(Phase(
            name="reduce", n_mem_ops=60_000, cpi=1.2, parallel=False,
            addr_fn=random_in(base, n, 8, salt=11),
            classes=[AccessClass(footprint=n * 8, stride=0)],
        ))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def profile_digests(r) -> dict[str, str]:
    """sha256 of the sample columns, the per-thread stats and the scalars."""
    cols = [np.ascontiguousarray(getattr(r.batch, c)).tobytes()
            for c in r.batch._COLUMNS]
    cols += [r.sample_cores.tobytes(), r.sample_times_s.tobytes()]
    per_thread = [dataclasses.astuple(s) for s in r.per_thread]
    scalars = (
        r.mem_counted, r.samples_processed, r.accuracy, r.baseline_cycles,
        r.profiled_cycles, r.time_overhead, r.collisions, r.wakeups,
        r.truncated, r.throttle_events, r.throttled_samples,
        r.decode_skipped, r.phase_spans,
    )
    return {
        "columns": _digest(*cols),
        "per_thread": _digest(per_thread),
        "scalars": _digest(scalars),
    }


def run_case(case: str):
    """Profile one named configuration (all at seed 0)."""
    strategy = None
    machine = ampere_altra_max()
    backend = None
    tiered = False
    if case.startswith("tiered_"):
        machine, tiered = tiered_altra_max(), True
        name = case[len("tiered_"):]
    elif case == "pebs_stream":
        machine, name = x86_pebs_machine(), "stream"
        backend = X86PebsBackend()
    elif case.endswith(("_poisson", "_addr_hash")):
        name, strategy = case.split("_", 1)
    else:
        name = case
    period = {"stream": 512, "cfd": 1024, "bfs": 256,
              "serial_tail": 256}.get(name, 4096)
    if name == "serial_tail":
        w = SerialTailWorkload(machine, n_threads=32)
    else:
        scale = {"stream": 1 / 128, "cfd": 1 / 1024, "bfs": 1 / 16,
                 "pagerank": 1 / 4096, "inmem_analytics": 1 / 16384}[name]
        extra = {"iterations": 5} if name == "cfd" else {}
        w = make_workload(name, machine, n_threads=32, scale=scale, **extra)
    if tiered:
        w.attach_tiering(placement_for(
            w.process.address_space, len(machine.tiers), "interleave", 0.5))
    if strategy is not None:
        backend = ArmSpeBackend(SpeConfig.loads_and_stores())
        backend.config = dataclasses.replace(backend.config, strategy=strategy)
    settings = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=period)
    return NmoProfiler(w, settings, seed=0, backend=backend).run()


#: recorded from the per-(phase, thread) sampler; see the module docstring
GOLDEN: dict[str, dict[str, str]] = {
    "bfs": {
        "columns": "62a6518e9c5aa61f2d02ca98322727f8dbc60800a7d07135bfeea113f8965997",
        "per_thread": "15e43be12127fa55bcab1702f334c4ba5475f51f4d23db989b000cde05e3c3b0",
        "scalars": "5e36c583e7b347a91ddc7ec1f1dc1d3fa6bbd13d0b039b66d7a7bf4c9a97d7c3",
    },
    "bfs_poisson": {
        "columns": "642433ff360320355b152c0041f07067727e976201dca4a424d4c9b740b9491b",
        "per_thread": "7ab08fdb0aa2b8b82498f88a4ab2540276ec94d51b198125f4be2c40923332d6",
        "scalars": "d8c26e51bd5e58291afc635a0b5b788925ec089fe61a397aec46920201f6e900",
    },
    "cfd": {
        "columns": "8f753f595d6b3d50a84eac484d1f855e03ea96dc0d9bf8da620ddb6662d6e079",
        "per_thread": "a064e6bf7650d21ce3907a88b4a69fc415e08eb04e491ce99e419dbeb1bc5b58",
        "scalars": "46397804ccdd911e7d644dc2173a58e04207e04571cc98e09252fa079fc8a3ee",
    },
    "cfd_addr_hash": {
        "columns": "f2b852faa7b4248876519eab82f43570b78c1bbb35bf00c907cb16278da7043d",
        "per_thread": "3738d1a8e9fcaa1ef4263d6e61f0b5c2b2e2ac4bab022f7bf2d744c7b9578b1b",
        "scalars": "cfcd5c80493de17cb7ea9a2a3f7c4204a5ecfb62f68aa13fe51e400f48ccf7c1",
    },
    "inmem_analytics": {
        "columns": "3ed0fe6ac9138ea378d727760c092c09b47765cda68f809ce4d5e2c07952179f",
        "per_thread": "ff2aadf26341393aa87cc591b4421e66e5bef790ad3e9f93ac7b31362cf7e8e4",
        "scalars": "089b19bdeeb2597f2e3e5b1ab2cc0f7958b985749cd841259f2e40e7458c9540",
    },
    "pagerank": {
        "columns": "eb744e207aa91f54bb71e96d30eb249e5f00839fd76c086b66ec3630f4b5c687",
        "per_thread": "1546eecaa927df88045680770dbe9862e9b59449d05058a176d5a93c075eb5c1",
        "scalars": "b65e6767ef52c09143fc04ac82505fd26faf56240ee421238241407a5eb6310a",
    },
    "pebs_stream": {
        "columns": "84d5de4efc2691f6d2e8c97ca13ad64d560fdff53a445567d8521572695fc994",
        "per_thread": "623b0bda18c22777322e33b855e96cc52fddeb3210d688197a0eb3f6dc152791",
        "scalars": "19bbc02dd60a38b9c004eadcc80578c72fe2b74c37271ebe085927b7d2c92099",
    },
    "serial_tail": {
        "columns": "3dd4d8ba0a0d69c6464e1b5915a042b5645c8ad65ed608fcef75413ccf3eabc6",
        "per_thread": "0d5ef55ddd814cf4853a30668b2dd1ccd195bc7b3089b5913b67406ef7b7e36b",
        "scalars": "d9e22538d9c937a5693000804bf6a15a92feb815e5875d61d0b276aa2a41faa6",
    },
    "stream": {
        "columns": "b94e33187a08266a6e7a933c1d8a8d2704958f8e4685b29496c06bcdb39025ad",
        "per_thread": "6f637cd83c5085f78d73296834577ff123643e5604df9aeae180ccff47edba69",
        "scalars": "77f5286b9a9535494a64f25f4e86672bb673b7e5e244f966ce1daa5b3f663a46",
    },
    "stream_poisson": {
        "columns": "f7f3a1035c54ac949759bbb7648087338f44f57e544a1c97784e20bf177adad5",
        "per_thread": "e7e5a3d483fb33f0e8824e310129eaa64ab67cd892346f1062bb30c7a3c68f23",
        "scalars": "ad177c63e221c15bfd10073a17d9d45167d990e3731c2d560242f8f67a936a50",
    },
    "tiered_cfd": {
        "columns": "adf01d45c0f9e1f6cd525c6e1609dcf8ac449833491fa1ecee5291aba9a12822",
        "per_thread": "b54c858fdc3ff2e161bdfa45fcd42934ac5bb45689f4b28dc53a6f4836fa6b8f",
        "scalars": "bfe5fed32df9936fc817c17b15be468e1430342c4fa632fdf8351c2d0212768b",
    },
    "tiered_inmem_analytics": {
        "columns": "e7769b9e844ef7a466e273c662f3dc64b909ca62bf33e7f5e8b8283612f3c3bf",
        "per_thread": "ff2aadf26341393aa87cc591b4421e66e5bef790ad3e9f93ac7b31362cf7e8e4",
        "scalars": "089b19bdeeb2597f2e3e5b1ab2cc0f7958b985749cd841259f2e40e7458c9540",
    },
    "tiered_stream": {
        "columns": "f184c6f57c99424c11188a7fcf744384778180aeaae00cc2afea4dc1abbda42d",
        "per_thread": "0610defc61625db69049ceb323e3aca7f1c7e3f7da67747d16a40e08e4f4725e",
        "scalars": "0fad0e882d0a327997f0ad5fb259de15f81076274845065ecfd609fb4a365591",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_profile_matches_golden_digest(case):
    r = run_case(case)
    assert r.n_samples > 0
    assert profile_digests(r) == GOLDEN[case]
