"""Loopback-TCP execution of the all-reduce schedules.

One OS process per worker.  Workers rendezvous through a coordinator,
open a full mesh of loopback stream sockets, and run the collective as
indexed message rounds; any socket failure aborts the run with the round
index in the error.  Each algorithm is a table of rounds, and one loop
runs any table: send some blocks, receive each frame in place into its
block, and maybe fold columns.  Results are bitwise identical to the
in-memory executor because both fold in ascending rank order: the ring's
reduce-scatter rounds deliver raw chunks straight to their owners, and
the hierarchical path gathers raw rows to the group masters, trades
group bundles between masters, and passes the result back out.  (Its
wire rounds therefore differ from the cost model's ring-pass step
accounting, which stays the authority for simulated time.)

Every socket runs with ``TCP_NODELAY``: a round's frames are small and
each one is waited on, so Nagle's algorithm and delayed ACKs would add
tens of milliseconds per round.  Each worker starts one sender thread
with its mesh.  A round that both sends and receives hands its sends to
that thread and receives on the calling thread; a round that only sends
sends on the calling thread, since its peer is receiving.  A round's
sends finish before the next round starts, so frames on a socket never
interleave.

Wire format, all frames: u32 little-endian length, one dtype tag byte,
payload.  The length counts the tag byte plus the payload.  Tags:
0 = float32 array, 1 = uint16 array, 2 = UTF-8 JSON control record.
A float32 frame received in place must be exactly the expected size.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import struct
import threading
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import accumulate

import multiprocessing as mp

import numpy as np

from .collectives import (
    ReduceSchedule,
    Topology,
    chunk_sizes,
    fold_ascending,
    hierarchical_schedule,
    ring_schedule,
)

__all__ = ["CollectiveAbort", "TcpCluster", "run_over_tcp",
           "run_coordinator", "run_worker",
           "TAG_F32", "TAG_U16", "TAG_JSON"]

TAG_F32 = 0
TAG_U16 = 1
TAG_JSON = 2

_LEN = struct.Struct("<I")
_HEAD = struct.Struct("<IB")  # length and tag
HOST = "127.0.0.1"


class CollectiveAbort(RuntimeError):
    """A collective failed partway; ``step`` is the failing round index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


# --- framing ----------------------------------------------------------------


def _nodelay(sock: socket.socket) -> socket.socket:
    """Send each frame at once instead of waiting on Nagle's algorithm."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        part = sock.recv(n - len(buf))
        if not part:
            raise ConnectionError("peer closed the connection")
        buf.extend(part)
    return bytes(buf)


def send_frame(sock: socket.socket, tag: int, payload: bytes) -> None:
    sock.sendall(_LEN.pack(1 + len(payload)) + bytes([tag]) + payload)


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    (length,) = _LEN.unpack(recv_exact(sock, 4))
    if length < 1:
        raise ConnectionError("zero-length frame")
    body = recv_exact(sock, length)
    if body[0] not in (TAG_F32, TAG_U16, TAG_JSON):
        raise ConnectionError(f"unknown frame tag {body[0]}")
    return body[0], body[1:]


def send_json(sock: socket.socket, doc: dict) -> None:
    send_frame(sock, TAG_JSON, json.dumps(doc).encode())


def recv_json(sock: socket.socket) -> dict:
    tag, payload = recv_frame(sock)
    if tag != TAG_JSON:
        raise ConnectionError(f"expected control frame, got tag {tag}")
    return json.loads(payload.decode())


def send_array(sock: socket.socket, arr: np.ndarray) -> None:
    if arr.dtype == np.float32:
        send_frame(sock, TAG_F32, arr.astype("<f4", copy=False).tobytes())
    elif arr.dtype == np.uint16:
        send_frame(sock, TAG_U16, arr.astype("<u2", copy=False).tobytes())
    else:
        raise TypeError(f"unsendable dtype {arr.dtype}")


def recv_array(sock: socket.socket) -> np.ndarray:
    tag, payload = recv_frame(sock)
    if tag == TAG_F32:
        return np.frombuffer(payload, dtype="<f4").astype(np.float32)
    if tag == TAG_U16:
        return np.frombuffer(payload, dtype="<u2").astype(np.uint16)
    raise ConnectionError(f"expected array frame, got tag {tag}")


def recv_array_into(sock: socket.socket, out: np.ndarray) -> None:
    """Read one float32 frame of exactly ``out.nbytes`` into contiguous ``out``."""
    length, tag = _HEAD.unpack(recv_exact(sock, _HEAD.size))
    if tag != TAG_F32 or length != 1 + out.nbytes:
        raise ConnectionError(f"expected a float32 frame of {out.nbytes} bytes, "
                              f"got tag {tag} with length {length}")
    view, got = memoryview(out).cast("B"), 0
    while got < len(view):
        part = sock.recv_into(view[got:])
        if not part:
            raise ConnectionError("peer closed the connection")
        got += part


# --- message plans ----------------------------------------------------------
# A plan is one worker's list of rounds ``(sends, recvs, fold)``.  Sends
# and receives are ``(peer, block)``; a block ``(row, (lo, hi))`` is one
# frame: elements lo:hi of the worker's (p, n) raw input matrix counted
# from the start of ``row`` (a group's rows are one block), or of the
# reduced vector ``out`` when ``row`` is None.  ``fold`` is the column span
# folded into ``out`` once the round's receives are in.  Every worker
# builds its plan from the same plan config, which keeps them in lockstep.


def _ring_plan(rank: int, p: int, n: int):
    edges = [0, *accumulate(chunk_sizes(n, p).tolist())]
    chunk = list(zip(edges, edges[1:]))
    plan = []
    for s in range(1, p):  # each raw chunk goes straight to its owner
        to, frm = (rank + s) % p, (rank - s) % p
        plan.append(([(to, (rank, chunk[to]))], [(frm, (frm, chunk[rank]))],
                     chunk[rank] if s == p - 1 else None))
    for s in range(1, p):  # the folded chunks circulate
        plan.append(([((rank + 1) % p, (None, chunk[(rank - s + 1) % p]))],
                     [((rank - 1) % p, (None, chunk[(rank - s) % p]))], None))
    return plan


def _hier_plan(rank: int, p: int, k: int, n: int):
    G = p // k
    g, off = divmod(rank, k)
    whole, bundle = (0, n), (0, k * n)
    fold = whole if off == 0 else None  # the group master folds everything
    plan = []
    for s in range(1, k):  # raw rows ripple down the group to its master
        plan.append(([(rank - 1, (rank + s - 1, whole))] if 1 <= off <= k - s else [],
                     [(rank + 1, (rank + s, whole))] if off < k - s else [],
                     fold if G == 1 and s == k - 1 else None))
    for s in range(1, G):  # masters trade their groups' raw rows
        to, frm = ((g + s) % G) * k, ((g - s) % G) * k
        plan.append(([(to, (g * k, bundle))] if off == 0 else [],
                     [(frm, (frm, bundle))] if off == 0 else [],
                     fold if s == G - 1 else None))
    for s in range(1, k):  # the result ripples back up the group
        plan.append(([(rank + 1, (None, whole))] if off == s - 1 else [],
                     [(rank - 1, (None, whole))] if off == s else [], None))
    return plan


# --- worker -----------------------------------------------------------------


class _Sender:
    """A worker's one long-lived sender thread, fed one round at a time."""

    def __init__(self):
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._run, name="gradsync-sender",
                                        daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while (job := self._jobs.get()) is not None:
            try:
                for sock, arr in job:
                    send_array(sock, arr)
            except Exception as exc:  # handed to the waiting round
                self._done.put(exc)
            else:
                self._done.put(None)

    def submit(self, outgoing: list[tuple[socket.socket, np.ndarray]]) -> None:
        self._jobs.put(outgoing)

    def wait(self) -> Exception | None:
        """Block until the submitted round is sent; returns its error."""
        return self._done.get()

    def close(self) -> None:
        self._jobs.put(None)
        self._thread.join()


def _worker_collective(rank: int, plan_cfg: dict, inp: np.ndarray,
                       peers: dict[int, socket.socket], sender: _Sender,
                       die_at_step: int | None):
    """Run this worker's plan (p >= 2: one worker never opens a socket)."""
    p, n = plan_cfg["p"], inp.size
    if plan_cfg["algorithm"] == "ring":
        plan = _ring_plan(rank, p, n)
    else:
        plan = _hier_plan(rank, p, plan_cfg["k"], n)
    raw = np.empty((p, n), dtype=np.float32)
    raw[rank] = inp
    flat, out = raw.reshape(-1), np.empty(n, dtype=np.float32)

    def view(block):
        row, (lo, hi) = block
        return out[lo:hi] if row is None else flat[row * n + lo:row * n + hi]

    for step, (sends, recvs, fold) in enumerate(plan):
        if step == die_at_step:
            os._exit(17)
        outgoing = [(peers[peer], view(block)) for peer, block in sends]
        incoming = [(peers[peer], view(block)) for peer, block in recvs]
        # A round's sends overlap its receives: peers that both sent first
        # could fill each other's socket buffers and deadlock.  A round
        # that only sends needs no overlap, since its peers are receiving.
        try:
            if outgoing and incoming:
                sender.submit(outgoing)
                try:
                    for sock, buf in incoming:
                        recv_array_into(sock, buf)
                finally:
                    send_error = sender.wait()
                if send_error is not None:
                    raise send_error
            else:
                for sock, arr in outgoing:
                    send_array(sock, arr)
                for sock, buf in incoming:
                    recv_array_into(sock, buf)
        except (OSError, ConnectionError) as exc:
            raise CollectiveAbort(f"worker {rank} failed at step {step}: {exc}",
                                  step=step) from exc
        if fold is not None:
            lo, hi = fold
            out[lo:hi] = fold_ascending(list(raw[:, lo:hi]), plan_cfg["op"])
    return out


def run_worker(coord_host: str, coord_port: int, rank: int,
               die_at_step: int | None = None, timeout: float = 30.0) -> int:
    """Worker entry: rendezvous, run collectives until told to stop.

    Returns a process exit code (0 ok, 3 abort).
    """
    listener = socket.create_server((HOST, 0), backlog=64)
    listener.settimeout(timeout)

    coord = _nodelay(socket.create_connection((coord_host, coord_port),
                                              timeout=timeout))
    coord.settimeout(timeout)
    peers: dict[int, socket.socket] = {}
    sender: _Sender | None = None
    try:
        send_json(coord, {"hello": rank, "listen_port": listener.getsockname()[1]})
        go = recv_json(coord)
        if "error" in go:
            return 3
        peer_ports = {int(r): port for r, port in go["peers"].items()}
        p = go["p"]

        # higher ranks dial, lower ranks accept: one socket per pair
        for other in range(rank):
            s = _nodelay(socket.create_connection((HOST, peer_ports[other]),
                                                  timeout=timeout))
            s.settimeout(timeout)
            send_json(s, {"rank": rank})
            peers[other] = s
        for _ in range(p - 1 - rank):
            s, _ = listener.accept()
            _nodelay(s).settimeout(timeout)
            peers[recv_json(s)["rank"]] = s

        sender = _Sender()

        while True:
            msg = recv_json(coord)
            if "bye" in msg:
                return 0
            plan_cfg = msg["plan"]
            inp = recv_array(coord)
            try:
                out = _worker_collective(rank, plan_cfg, inp, peers, sender,
                                         die_at_step)
            except CollectiveAbort as exc:
                try:
                    send_json(coord, {"abort": exc.step, "rank": rank})
                except OSError:
                    pass
                return 3
            send_json(coord, {"done": rank})
            send_array(coord, out)
    except (OSError, ConnectionError):
        return 3
    finally:
        if sender is not None:
            sender.close()
        for s in peers.values():
            s.close()
        coord.close()
        listener.close()


# --- coordinator ------------------------------------------------------------


@dataclass
class _Member:
    rank: int
    sock: socket.socket
    listen_port: int = 0


class TcpCluster:
    """Coordinator side of a persistent worker cluster.

    Spawns one process per worker (unless workers attach externally via
    the CLI), then runs any number of collectives before ``close``.  Once
    a collective aborts the cluster is dead: its workers have exited or
    lost their peers, so every later ``allreduce`` raises at once.
    """

    def __init__(self, p: int, *, spawn: bool = True, port: int = 0,
                 timeout: float = 30.0, die_at_step: dict[int, int] | None = None):
        if p < 1:
            raise ValueError(f"need at least one worker, got {p}")
        self.p = p
        self.timeout = timeout
        self._members: list[_Member] = []
        self._procs: list[mp.Process] = []
        self._abort: CollectiveAbort | None = None
        self._listener = socket.create_server((HOST, port), backlog=p)
        self._listener.settimeout(timeout)
        self.port = self._listener.getsockname()[1]
        if spawn and p > 1:
            ctx = mp.get_context("fork")
            for rank in range(p):
                die = (die_at_step or {}).get(rank)
                proc = ctx.Process(
                    target=lambda *a: os._exit(run_worker(*a)),
                    args=(HOST, self.port, rank, die, timeout),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        if p > 1:
            try:
                self._rendezvous()
            except BaseException:
                self.close()
                raise

    def _rendezvous(self) -> None:
        seen: dict[int, _Member] = {}
        with ExitStack() as accepted:  # closes every accepted socket on a raise
            while len(seen) < self.p:
                sock, _ = self._listener.accept()
                accepted.enter_context(sock)
                _nodelay(sock).settimeout(self.timeout)
                try:
                    hello = recv_json(sock)
                except (OSError, ConnectionError):
                    # a probe or dropped dial; keep waiting for real claims
                    sock.close()
                    continue
                rank = hello.get("hello")
                port = hello.get("listen_port")
                if not isinstance(rank, int) or not 0 <= rank < self.p or rank in seen:
                    send_json(sock, {"error": f"bad or duplicate rank claim: {rank!r}"})
                    for m in seen.values():
                        send_json(m.sock, {"error": "rendezvous failed"})
                    raise CollectiveAbort(f"rendezvous rejected rank claim {rank!r}")
                seen[rank] = _Member(rank=rank, sock=sock, listen_port=port)
            accepted.pop_all()
        self._members = [seen[r] for r in range(self.p)]
        ports = {m.rank: m.listen_port for m in self._members}
        for m in self._members:
            send_json(m.sock, {"peers": ports, "p": self.p})

    def allreduce(self, buffers, *, algorithm: str = "ring", k: int = 1,
                  op: str = "sum") -> tuple[list[np.ndarray], ReduceSchedule]:
        """Run one collective across the cluster; returns per-rank results."""
        if self._abort is not None:
            raise CollectiveAbort(f"cluster is dead after an earlier abort: "
                                  f"{self._abort}", step=self._abort.step)
        arrs = []
        for i, b in enumerate(buffers):
            a = np.asarray(b)
            if a.dtype != np.float32 or a.ndim != 1:
                raise TypeError(
                    f"buffer {i} must be a 1-D float32 vector, got "
                    f"{a.dtype} with shape {a.shape}")
            arrs.append(np.ascontiguousarray(a))
        if len(arrs) != self.p:
            raise ValueError(f"cluster has {self.p} workers, got {len(arrs)} buffers")
        n = arrs[0].size
        if any(a.size != n for a in arrs):
            raise ValueError("buffers must share a length")
        topo = Topology(self.p, k)
        if algorithm == "ring":
            sched = ring_schedule(self.p, n, 4, k=k)
        elif algorithm == "hierarchical":
            sched = hierarchical_schedule(topo, n, 4)
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")

        if self.p == 1:
            return [fold_ascending(arrs, op)], sched

        plan = {"algorithm": algorithm, "p": self.p, "k": k, "op": op}
        for m, arr in zip(self._members, arrs):
            send_json(m.sock, {"plan": plan})
            send_array(m.sock, arr)

        # Drain every member before deciding the outcome: the crashed
        # worker itself reports nothing, so the step index comes from
        # a surviving peer's abort message.
        results = np.empty((self.p, n), dtype=np.float32)
        reported_abort: dict | None = None
        vanished: tuple[int, Exception] | None = None
        for m in self._members:
            try:
                status = recv_json(m.sock)
                if "abort" in status:
                    reported_abort = reported_abort or status
                    continue
                recv_array_into(m.sock, results[m.rank])
            except (OSError, ConnectionError) as exc:
                vanished = vanished or (m.rank, exc)
        if reported_abort is not None:
            self._abort = CollectiveAbort(
                f"worker {reported_abort['rank']} aborted at step "
                f"{reported_abort['abort']} of the wire plan", step=reported_abort["abort"])
        elif vanished is not None:
            self._abort = CollectiveAbort(
                f"worker {vanished[0]} vanished mid-collective: {vanished[1]}")
        if self._abort is not None:
            raise self._abort
        return list(results), sched

    def close(self) -> None:
        self._listener.close()
        for m in self._members:
            try:
                send_json(m.sock, {"bye": True})
            except OSError:
                pass
            m.sock.close()
        self._members = []
        for proc in self._procs:
            proc.join(timeout=self.timeout)
            if proc.is_alive():
                proc.terminate()
        self._procs = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_over_tcp(buffers, topo: Topology | None = None, *,
                 algorithm: str = "ring", op: str = "sum", timeout: float = 30.0,
                 die_at_step: dict[int, int] | None = None):
    """One-shot collective over spawned loopback worker processes.

    Returns (per-rank results, schedule); raises CollectiveAbort (with
    the failing round index when known) if any worker dies mid-run.
    """
    p = len(buffers)
    k = topo.k if topo is not None else 1
    if topo is not None and topo.p != p:
        raise ValueError(f"topology is for p={topo.p}, got {p} buffers")
    with TcpCluster(p, timeout=timeout, die_at_step=die_at_step) as cluster:
        return cluster.allreduce(buffers, algorithm=algorithm, k=k, op=op)


def run_coordinator(port: int, workers: int, make_inputs, *, algorithm: str = "ring",
                    k: int = 1, op: str = "sum", timeout: float = 60.0) -> dict:
    """Coordinator for externally launched workers (the CLI path).

    ``make_inputs(p)`` supplies the per-rank input vectors.  Returns a
    JSON-ready report with result digests and the schedule step count.
    """
    cluster = TcpCluster(workers, spawn=False, port=port, timeout=timeout)
    try:
        arrs = make_inputs(workers)
        results, sched = cluster.allreduce(arrs, algorithm=algorithm, k=k, op=op)
        reference = fold_ascending([np.asarray(a, np.float32) for a in arrs], op)
        return {
            "workers": workers,
            "algorithm": sched.algorithm,
            "total_steps": sched.total_steps,
            "matches_in_memory": all(np.array_equal(r, reference) for r in results),
            "result_l2": float(np.linalg.norm(reference)),
        }
    finally:
        cluster.close()
