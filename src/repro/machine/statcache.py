"""Analytic cache model for closed-form access streams.

The paper's sensitivity study (Fig. 7-11) implies on the order of 10^10 to
10^11 memory operations per run — far beyond what a trace-driven simulator
can walk.  SPE, however, only *samples* that stream: at period P one in P
operations is observed.  The reproduction therefore evaluates workloads in
closed form and uses this statistical cache model to assign a memory level
(and hence latency) to each *sampled* access without simulating the
unsampled ones.

Model
-----
Each workload phase describes its accesses as a mixture of
:class:`AccessClass` components.  A class is characterised by

* ``footprint`` — bytes of distinct data the class cycles through,
* ``stride`` — bytes between successive accesses (0 = random within the
  footprint),
* ``reuse`` — fraction of accesses that re-touch recently used lines
  (temporal locality on top of the spatial term).

For a class, the probability that an access hits level ``k`` uses the
classic fully-associative capacity approximation: a level of capacity
``C`` holds the most recent ``C`` bytes of the footprint ``F``, so a
random access hits with probability ``min(1, C/F)``.  Sequential access
adds the spatial term: with stride ``s`` and line size ``L``, a fraction
``1 - s/L`` of accesses fall in the line fetched by the previous miss and
hit L1 regardless of footprint.  Probabilities are assigned level by
level on the *residual* miss stream, which keeps the vector normalised by
construction.

The exact and analytic models are cross-validated in
``tests/machine/test_statcache.py`` on patterns where both are tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MachineError
from repro.machine.hierarchy import CORE_LEVELS, MemLevel
from repro.machine.spec import MachineSpec


@dataclass(frozen=True)
class AccessClass:
    """A homogeneous component of a phase's memory access mixture.

    Parameters
    ----------
    footprint:
        Distinct bytes this class touches per traversal.
    stride:
        Byte distance between consecutive accesses; ``0`` means random
        accesses uniformly distributed over the footprint.
    reuse:
        Extra temporal-reuse fraction in [0, 1): that share of accesses
        hit L1 unconditionally (register-blocked reuse, hot scalars).
    weight:
        Relative share of the phase's accesses from this class.
    """

    footprint: int
    stride: int = 8
    reuse: float = 0.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.footprint <= 0:
            raise MachineError("footprint must be positive")
        if self.stride < 0:
            raise MachineError("stride must be >= 0")
        if not 0.0 <= self.reuse < 1.0:
            raise MachineError("reuse must be in [0, 1)")
        if self.weight <= 0:
            raise MachineError("weight must be positive")


class StatCacheModel:
    """Closed-form per-level hit probabilities for access mixtures."""

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        self.line = spec.line_size
        # capacity visible to one thread at each level
        self._caps = {
            MemLevel.L1: spec.l1d.size,
            MemLevel.L2: spec.l2.size,
            MemLevel.SLC: spec.slc.size,
        }

    # -- single class ----------------------------------------------------------

    def level_probabilities(
        self, cls: AccessClass, sharers: int = 1
    ) -> dict[MemLevel, float]:
        """P(access serviced by level) for one access class.

        ``sharers`` divides the shared SLC capacity between concurrently
        active threads, modelling multi-threaded contention for the system
        level cache (the effect that separates Fig. 5 from Fig. 6).
        """
        if sharers <= 0:
            raise MachineError("sharers must be >= 1")
        probs: dict[MemLevel, float] = {}
        residual = 1.0

        # Spatial locality: with stride s < line L, a fraction 1 - s/L of
        # accesses land in the line brought in by the previous miss and hit
        # L1 regardless of footprint.  Temporal ``reuse`` hits L1 outright.
        spatial = 0.0
        if cls.stride > 0:
            spatial = max(0.0, 1.0 - cls.stride / self.line)
        p_l1_base = cls.reuse + (1.0 - cls.reuse) * spatial

        for level in (MemLevel.L1, MemLevel.L2, MemLevel.SLC):
            cap = self._caps[level]
            if level is MemLevel.SLC:
                cap = cap / sharers
            if cls.stride > 0:
                # cyclic sequential sweep under LRU: classic all-or-nothing
                # thrashing — the level either holds the whole footprint or
                # contributes no capacity hits at all
                p_cap = 1.0 if cls.footprint <= cap else 0.0
            else:
                # random access: stationary hit probability cap/footprint
                p_cap = min(1.0, cap / cls.footprint)
            if level is MemLevel.L1:
                # spatial/temporal hits plus capacity hits on the rest
                p = p_l1_base + (1.0 - p_l1_base) * p_cap
            else:
                p = p_cap
            p = min(max(p, 0.0), 1.0)
            probs[level] = residual * p
            residual *= 1.0 - p
        probs[MemLevel.DRAM] = residual
        # the statistical model stops at "reached main memory"; which
        # *tier* serviced the access is a property of the page, applied
        # downstream by the placement map (repro.machine.tiers)
        probs[MemLevel.DRAM_REMOTE] = 0.0
        probs[MemLevel.DRAM_CXL] = 0.0
        return probs

    def mixture_probabilities(
        self, classes: list[AccessClass], sharers: int = 1
    ) -> dict[MemLevel, float]:
        """Weight-averaged level probabilities for a mixture of classes."""
        if not classes:
            raise MachineError("mixture needs at least one access class")
        total_w = sum(c.weight for c in classes)
        agg = {lv: 0.0 for lv in MemLevel}
        for c in classes:
            p = self.level_probabilities(c, sharers=sharers)
            for lv, v in p.items():
                agg[lv] += v * (c.weight / total_w)
        return agg

    # -- sampling ---------------------------------------------------------------

    def draw_levels(
        self,
        classes: list[AccessClass],
        n: int,
        rng: np.random.Generator,
        sharers: int = 1,
    ) -> np.ndarray:
        """Draw ``n`` memory levels from the mixture distribution.

        Returns a uint8 array of :class:`MemLevel` values — the statistical
        analogue of :meth:`MemoryHierarchy.access_many` for sampled ops.
        """
        if n < 0:
            raise MachineError("n must be >= 0")
        return self.levels_for(classes, rng.random(n), sharers=sharers)

    def levels_for(
        self,
        classes: list[AccessClass],
        uniforms: np.ndarray,
        sharers: int = 1,
    ) -> np.ndarray:
        """Memory levels for pre-drawn uniforms in [0, 1).

        The inverse-CDF step of :meth:`draw_levels`, bit-identical to
        ``rng.choice(levels, size=n, p=pvec)`` on ``rng.random(n)`` (that
        is how ``Generator.choice`` draws with ``p``).  Split out so a
        phase-batched pass can draw each core's uniforms from the core's
        own generator and map them all with one mixture vector.
        """
        probs = self.mixture_probabilities(classes, sharers=sharers)
        # draw over the core levels only: tier attribution is a pure
        # post-hoc remap of DRAM draws, so the RNG stream (and hence
        # every flat-machine profile) stays bit-identical
        levels = np.array([int(lv) for lv in CORE_LEVELS], dtype=np.uint8)
        pvec = np.array([probs[MemLevel(lv)] for lv in levels], dtype=np.float64)
        cdf = (pvec / pvec.sum()).cumsum()
        cdf /= cdf[-1]
        return levels[cdf.searchsorted(uniforms, side="right")]

    def expected_latency(
        self, classes: list[AccessClass], sharers: int = 1
    ) -> float:
        """Mean access latency in cycles under the mixture distribution."""
        probs = self.mixture_probabilities(classes, sharers=sharers)
        lat = {
            MemLevel.L1: self.spec.l1d.latency_cycles,
            MemLevel.L2: self.spec.l2.latency_cycles,
            MemLevel.SLC: self.spec.slc.latency_cycles,
            MemLevel.DRAM: self.spec.dram.latency_cycles,
        }
        return sum(probs[lv] * lat[lv] for lv in CORE_LEVELS)

    def dram_fraction(self, classes: list[AccessClass], sharers: int = 1) -> float:
        """Share of accesses that reach DRAM (drives bandwidth estimates)."""
        return self.mixture_probabilities(classes, sharers=sharers)[MemLevel.DRAM]
