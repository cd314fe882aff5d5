"""All-reduce schedules and deterministic in-memory execution.

Two schedule families with exact step accounting:

* ring: reduce-scatter then all-gather, ``2(p-1)`` rounds, each worker
  moving one of ``p`` contiguous chunks per round;
* hierarchical: intra-group reduce to a group master, a ring across the
  ``p/k`` masters, then an intra-group broadcast, for
  ``4(k-1) + 2(p/k-1)`` rounds.

The hybrid selector picks hierarchical for payloads strictly under a
byte threshold and ring otherwise; callers then run the chosen one.

Arithmetic convention: FP32 combines are always applied in ascending
rank order, whatever order messages would arrive in, so results are
bitwise identical across algorithms and transports.  To make that order
physically realizable the reduce-scatter rounds deliver each raw chunk
straight to the rank that owns it (a pairwise exchange with the same
round and byte accounting as the classic rotating ring) and the owner
folds contributions 0,1,...,p-1.  Binary16 payloads stay uint16
patterns on the wire (2 bytes per element in the schedule); the fold
widens every rank to FP32, runs the same ascending fold, and narrows
once, so the only binary16 rounding is the inputs' and the result's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np

from .halfprec import f16_to_f32, f32_to_f16

__all__ = [
    "Topology",
    "Round",
    "ReduceSchedule",
    "ring_schedule",
    "hierarchical_schedule",
    "choose_algorithm",
    "ring_allreduce",
    "hierarchical_allreduce",
]


def _is_whole(value) -> bool:
    """An int or a numpy integer, but not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Topology:
    """Worker count ``p`` split into contiguous groups of size ``k``.

    The lowest rank of each group acts as its master.
    """

    p: int
    k: int = 1

    def __post_init__(self):
        for name, value in (("p", self.p), ("k", self.k)):
            if not _is_whole(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.p < 1:
            raise ValueError(f"need at least one worker, got p={self.p}")
        if self.k < 1:
            raise ValueError(f"group size must be >= 1, got k={self.k}")
        if self.p % self.k:
            raise ValueError(f"group size {self.k} does not divide worker count {self.p}")

    @property
    def group_count(self) -> int:
        return self.p // self.k


@dataclass(frozen=True, eq=False)
class Round:
    """One step round: concurrent transfers sharing a phase tag.

    ``transfers`` is an (n, 3) int64 array of sender, receiver,
    byte_count rows.  The round keeps its own read-only copy, so a
    schedule can be shared and the caller's array is left alone.  Its
    largest and total byte counts are taken once, as Python ints, so
    costing a cached schedule runs no numpy reductions.
    """

    phase: str
    transfers: np.ndarray
    max_bytes: int = field(init=False, repr=False)
    total_bytes: int = field(init=False, repr=False)

    def __post_init__(self):
        t = np.array(self.transfers, dtype=np.int64).reshape(-1, 3)
        t.flags.writeable = False
        object.__setattr__(self, "transfers", t)
        nbytes = t[:, 2]
        object.__setattr__(self, "max_bytes", int(nbytes.max()) if len(t) else 0)
        object.__setattr__(self, "total_bytes", int(nbytes.sum()) if len(t) else 0)

    def __eq__(self, other):
        if not isinstance(other, Round):
            return NotImplemented
        return self.phase == other.phase and np.array_equal(self.transfers,
                                                             other.transfers)


@dataclass(frozen=True)
class ReduceSchedule:
    """Ordered rounds for one all-reduce.

    Immutable, so the all-reduce entry points can hand one schedule to
    every call of the same shape.
    """

    algorithm: str
    p: int
    k: int
    rounds: tuple[Round, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(self.rounds))

    @property
    def total_steps(self) -> int:
        return len(self.rounds)

    @property
    def bytes_on_wire(self) -> int:
        return sum(r.total_bytes for r in self.rounds)


def chunk_sizes(n: int, parts: int) -> np.ndarray:
    """Sizes of ``parts`` contiguous chunks covering ``n`` elements."""
    base, extra = divmod(n, parts)
    return base + (np.arange(parts) < extra).astype(np.int64)


def _round(phase: str, senders, receivers, nbytes) -> Round:
    t = np.empty((len(senders), 3), dtype=np.int64)
    t[:, 0] = senders
    t[:, 1] = receivers
    t[:, 2] = nbytes
    return Round(phase=phase, transfers=t)


def ring_schedule(p: int, n_elems: int, itemsize: int = 4, k: int = 1) -> ReduceSchedule:
    """Ring all-reduce schedule: ``2(p-1)`` rounds over ``p`` chunks.

    Reduce-scatter rounds send each rank's raw slice of chunk ``c``
    straight to owner ``c`` (rank ``r`` reaches ``(r+s) % p`` in round
    ``s``); all-gather rounds circulate the finished chunks neighbor to
    neighbor.  Every round moves one chunk per worker, matching the
    classic ring's accounting.
    """
    if p == 1:
        return ReduceSchedule(algorithm="ring", p=p, k=k)
    sizes = chunk_sizes(n_elems, p) * itemsize
    ranks = np.arange(p)
    rounds = []
    for s in range(1, p):
        owners = (ranks + s) % p
        rounds.append(_round("reduce_scatter", ranks, owners, sizes[owners]))
    for s in range(1, p):
        chunks = (ranks - s + 1) % p
        rounds.append(_round("allgather", ranks, (ranks + 1) % p, sizes[chunks]))
    return ReduceSchedule(algorithm="ring", p=p, k=k, rounds=rounds)


def hierarchical_schedule(topo: Topology, n_elems: int, itemsize: int = 4) -> ReduceSchedule:
    """Three-phase hierarchical schedule: ``4(k-1) + 2(p/k-1)`` rounds.

    Intra-group reduce (a reduce-scatter plus a pipelined gather to the
    master, ``2(k-1)`` rounds), a ring across the group masters
    (``2(p/k-1)`` rounds), and an intra-group broadcast mirroring the
    reduce (``2(k-1)`` rounds).
    """
    p, k, G = topo.p, topo.k, topo.group_count
    if p == 1:
        return ReduceSchedule(algorithm="hierarchical", p=p, k=k)
    intra = chunk_sizes(n_elems, k) * itemsize
    base = np.repeat(np.arange(G) * k, k)          # group base rank per member slot
    offs = np.tile(np.arange(k), G)                # member offset within group
    rounds = []

    if k > 1:
        for s in range(1, k):
            dest = (offs + s) % k
            rounds.append(_round(
                "intra_reduce_scatter", base + offs, base + dest, intra[dest]))
        for s in range(1, k):
            # pipeline: chunk j+s-1 rides the sender at offset j this round
            j = np.arange(1, k - s + 1)
            snd = (np.arange(G)[:, None] * k + j[None, :]).ravel()
            chunk = np.tile(j + s - 1, G)
            rounds.append(_round("intra_gather", snd, snd - 1, intra[chunk]))

    if G > 1:
        masters = np.arange(G) * k
        gsizes = chunk_sizes(n_elems, G) * itemsize
        gids = np.arange(G)
        for s in range(1, G):
            owners = (gids + s) % G
            rounds.append(_round(
                "master_reduce_scatter", masters, masters[owners], gsizes[owners]))
        for s in range(1, G):
            chunks = (gids - s + 1) % G
            rounds.append(_round(
                "master_allgather", masters, masters[(gids + 1) % G], gsizes[chunks]))

    if k > 1:
        for s in range(1, k):
            # farthest result chunk leaves the master first
            j = np.arange(0, s)
            snd = (np.arange(G)[:, None] * k + j[None, :]).ravel()
            chunk = np.tile(k - s + j, G)
            rounds.append(_round("intra_scatter", snd, snd + 1, intra[chunk]))
        for s in range(1, k):
            chunk = (offs - s + 1) % k
            rounds.append(_round(
                "intra_allgather", base + offs, base + (offs + 1) % k, intra[chunk]))
    return ReduceSchedule(algorithm="hierarchical", p=p, k=k, rounds=rounds)


def choose_algorithm(nbytes: int, eta_bytes: int) -> str:
    """Hybrid rule: hierarchical strictly under the threshold, else ring.

    A zero threshold therefore always picks ring, and a payload exactly
    at the threshold goes to ring as well.
    """
    return "hierarchical" if nbytes < eta_bytes else "ring"


def _validated(buffers) -> list[np.ndarray]:
    if not buffers:
        raise ValueError("need at least one buffer")
    arrs = [np.asarray(b) for b in buffers]
    shape, dtype = arrs[0].shape, arrs[0].dtype
    if dtype not in (np.float32, np.uint16):
        raise ValueError(f"expected float32 or uint16 (binary16) buffers, got {dtype}")
    for i, a in enumerate(arrs):
        if a.shape != shape or a.dtype != dtype:
            raise ValueError(
                f"buffer {i} has shape {a.shape} dtype {a.dtype}, expected {shape} {dtype}")
    return arrs


def fold_ascending(buffers: list[np.ndarray], op: str = "sum") -> np.ndarray:
    """Sequential left-to-right FP32 fold in rank order (the fixed order)."""
    if op not in ("sum", "mean"):
        raise ValueError(f"unknown reduction op {op!r}")
    acc = buffers[0].astype(np.float32, copy=True)
    for b in buffers[1:]:
        acc += b
    if op == "mean":
        acc /= np.float32(len(buffers))
    return acc


def _finish(buffers, schedule, op) -> tuple[list[np.ndarray], ReduceSchedule]:
    if buffers[0].dtype == np.uint16:
        reduced = f32_to_f16(fold_ascending([f16_to_f32(b) for b in buffers], op))
    else:
        reduced = fold_ascending(buffers, op)
    # one allocation for every rank's copy; each rank gets its own row
    results = np.empty((len(buffers), *reduced.shape), dtype=reduced.dtype)
    results[:] = reduced
    return list(results), schedule


# One build per all-reduce shape.  The builders themselves stay uncached:
# a p=1024 ring schedule holds ~50 MB of transfer rows, and sweeps touch
# many sizes once.  A run with more distinct buckets than ``maxsize``
# cycles the LRU and falls back to one build per call.
@lru_cache(maxsize=128)
def _schedule(algorithm: str, p: int, k: int, n_elems: int, itemsize: int) -> ReduceSchedule:
    topo = Topology(p, k)  # rejects a group size that does not divide p, ring too
    if algorithm == "ring":
        return ring_schedule(p, n_elems, itemsize, k=k)
    if algorithm == "hierarchical":
        return hierarchical_schedule(topo, n_elems, itemsize)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def ring_allreduce(buffers, topo: Topology | None = None, *, op: str = "sum"):
    """All-reduce FP32 or binary16 (uint16) buffers over the ring schedule.

    Returns (per-worker results, schedule); results are bitwise equal to
    the ascending sequential fold on every worker (for binary16, the fold
    of the widened inputs, narrowed once).  The schedule is shared by
    every call of the same shape.
    """
    arrs = _validated(buffers)
    p = len(arrs)
    if topo is not None and topo.p != p:
        raise ValueError(f"topology is for p={topo.p}, got {p} buffers")
    sched = _schedule("ring", p, topo.k if topo else 1, arrs[0].size, arrs[0].itemsize)
    return _finish(arrs, sched, op)


def hierarchical_allreduce(buffers, topo: Topology, *, op: str = "sum"):
    """All-reduce FP32 or binary16 buffers over the hierarchical schedule."""
    arrs = _validated(buffers)
    if topo.p != len(arrs):
        raise ValueError(f"topology is for p={topo.p}, got {len(arrs)} buffers")
    sched = _schedule("hierarchical", topo.p, topo.k, arrs[0].size, arrs[0].itemsize)
    return _finish(arrs, sched, op)
