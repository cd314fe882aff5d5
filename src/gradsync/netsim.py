"""Alpha-beta link model over reduce schedules, plus scaling efficiency.

A schedule round of concurrent transfers costs ``alpha + bytes/bandwidth``
where ``bytes`` is the largest transfer in the round; rounds are fully
serialized.  Intra-group rounds may use distinct link parameters, which
is how the hierarchical algorithm's advantage over NVLink-style local
links is modeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .collectives import ReduceSchedule, Topology, hierarchical_schedule, ring_schedule

__all__ = [
    "LinkModel",
    "SimReport",
    "simulate",
    "EfficiencyInput",
    "EfficiencyReport",
    "scaling_efficiency",
    "implied_system_throughput",
    "crossover_sweep",
    "find_crossover",
]


@dataclass(frozen=True)
class LinkModel:
    """Per-round latency (s) and bandwidth (bytes/s), optionally split
    into distinct intra-group parameters."""

    alpha: float = 1e-5
    beta_inv: float = 1e9
    intra_group_alpha: float | None = None
    intra_group_beta_inv: float | None = None

    def __post_init__(self):
        for value in (self.alpha, self.beta_inv,
                      self.intra_group_alpha, self.intra_group_beta_inv):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"link parameters must be finite, got {value}")
        if self.alpha < 0:
            raise ValueError(f"latency must be >= 0, got {self.alpha}")
        if self.beta_inv <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.beta_inv}")
        if self.intra_group_alpha is not None and self.intra_group_alpha < 0:
            raise ValueError("intra-group latency must be >= 0")
        if self.intra_group_beta_inv is not None and self.intra_group_beta_inv <= 0:
            raise ValueError("intra-group bandwidth must be > 0")

    def params_for(self, phase: str) -> tuple[float, float]:
        if phase.startswith("intra"):
            a = self.alpha if self.intra_group_alpha is None else self.intra_group_alpha
            b = self.beta_inv if self.intra_group_beta_inv is None else self.intra_group_beta_inv
            return a, b
        return self.alpha, self.beta_inv


@dataclass
class SimReport:
    """Modeled cost of one schedule under one link model."""

    algorithm: str
    total_time: float
    per_phase_time: dict[str, float]
    total_steps: int
    bytes_on_wire: int


def simulate(schedule: ReduceSchedule, link: LinkModel) -> SimReport:
    """Serialize the schedule's rounds through the link model."""
    per_phase: dict[str, float] = {}
    total = 0.0
    wire = 0
    for r in schedule.rounds:
        alpha, bw = link.params_for(r.phase)
        t = alpha + r.max_bytes / bw
        per_phase[r.phase] = per_phase.get(r.phase, 0.0) + t
        total += t
        wire += r.total_bytes
    return SimReport(
        algorithm=schedule.algorithm,
        total_time=total,
        per_phase_time=per_phase,
        total_steps=schedule.total_steps,
        bytes_on_wire=wire,
    )


@dataclass(frozen=True)
class EfficiencyInput:
    """Throughput triple for the e = T / (S * N) identity."""

    single_worker_throughput: float   # S, samples/s on one worker
    worker_count: int                 # N
    system_throughput: float          # T, samples/s across the system

    def __post_init__(self):
        if self.single_worker_throughput <= 0:
            raise ValueError("single-worker throughput must be > 0")
        if self.worker_count < 1:
            raise ValueError("worker count must be >= 1")
        if self.system_throughput < 0:
            raise ValueError("system throughput must be >= 0")


@dataclass(frozen=True)
class EfficiencyReport:
    efficiency: float        # raw T / (S * N)
    clamped: float           # min(efficiency, 1.0), for headline reporting
    exceeds_ideal: bool      # flagged rather than silently hidden


def scaling_efficiency(inp: EfficiencyInput) -> EfficiencyReport:
    """Compute e = T / (S * N); efficiencies above 1 are flagged."""
    e = inp.system_throughput / (inp.single_worker_throughput * inp.worker_count)
    return EfficiencyReport(efficiency=e, clamped=min(e, 1.0), exceeds_ideal=e > 1.0)


def implied_system_throughput(single: float, workers: int, efficiency: float) -> float:
    """Invert the identity: T = S * N * e."""
    return single * workers * efficiency


def crossover_sweep(p: int, k: int, link: LinkModel, sizes_bytes: list[int],
                    itemsize: int = 4) -> list[dict]:
    """Model ring vs hierarchical time across payload sizes.

    Returns one row per size with both times and which algorithm the
    model favors (ties go to ring, matching the hybrid selector).
    """
    topo = Topology(p, k)
    rows = []
    for nbytes in sizes_bytes:
        n = max(int(nbytes) // itemsize, 0)
        ring_t = simulate(ring_schedule(p, n, itemsize, k=k), link).total_time
        hier_t = simulate(hierarchical_schedule(topo, n, itemsize), link).total_time
        rows.append({
            "bytes": n * itemsize,
            "ring_time": ring_t,
            "hierarchical_time": hier_t,
            "faster": "hierarchical" if hier_t < ring_t else "ring",
        })
    return rows


def find_crossover(rows: list[dict]) -> int | None:
    """First sampled size where ring stops losing to hierarchical.

    Used to seed the hybrid threshold: payloads below the returned byte
    size go hierarchical.  None when the model never favors ring.
    """
    for row in rows:
        if row["faster"] == "ring":
            return row["bytes"]
    return None
