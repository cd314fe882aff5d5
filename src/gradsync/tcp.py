"""Loopback-TCP execution of the all-reduce schedules.

One OS process per worker.  Workers rendezvous through a coordinator,
open a full mesh of loopback stream sockets, and run the collective as
indexed message rounds; any socket failure aborts the run with the round
index in the error.  Results are bitwise identical to the in-memory
executor because both fold contributions in ascending rank order: the
ring's reduce-scatter rounds deliver raw chunks straight to their
owners, and the hierarchical path gathers raw vectors to the group
masters, exchanges group bundles between masters, and broadcasts the
folded result back out.  (The hierarchical wire rounds therefore differ
from the cost model's ring-pass step accounting, which stays the
authority for simulated time.)

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
"""

from __future__ import annotations

import json
import os
import queue
import socket
import struct
import threading
from dataclasses import dataclass

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


# --- message plans ----------------------------------------------------------
# A plan is a list of rounds; each round holds (peer, chunk_key) send and
# receive directives for one worker.  Building it deterministically on
# every worker from the same plan config keeps the processes in lockstep.


def _ring_plan(rank: int, p: int):
    sends, recvs = [], []
    for s in range(1, p):
        sends.append([((rank + s) % p, ("raw", rank, (rank + s) % p))])
        recvs.append([((rank - s) % p, ("raw", (rank - s) % p, rank))])
    for s in range(1, p):
        sends.append([((rank + 1) % p, ("chunk", (rank - s + 1) % p))])
        recvs.append([((rank - 1) % p, ("chunk", (rank - s) % p))])
    return sends, recvs


def _hier_plan(rank: int, p: int, k: int):
    G = p // k
    g, off = divmod(rank, k)
    base = g * k
    sends, recvs = [], []
    for s in range(1, k):
        snd, rcv = [], []
        if 1 <= off <= k - s:
            snd.append((base + off - 1, ("member_raw", base + off + s - 1)))
        if off <= k - s - 1:
            rcv.append((base + off + 1, ("member_raw", base + off + s)))
        sends.append(snd)
        recvs.append(rcv)
    for s in range(1, G):
        if off == 0:
            sends.append([(((g + s) % G) * k, ("bundle", g))])
            recvs.append([(((g - s) % G) * k, ("bundle", (g - s) % G))])
        else:
            sends.append([])
            recvs.append([])
    for s in range(1, k):
        snd, rcv = [], []
        if off == s - 1:
            snd.append((base + s, ("result",)))
        if off == s:
            rcv.append((base + s - 1, ("result",)))
        sends.append(snd)
        recvs.append(rcv)
    return sends, recvs


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
    p = plan_cfg["p"]
    algorithm = plan_cfg["algorithm"]
    op = plan_cfg["op"]
    n = inp.size

    if algorithm == "ring":
        sends, recvs = _ring_plan(rank, p)
        spans = np.concatenate([[0], np.cumsum(chunk_sizes(n, p))])
        store = {("raw", rank, c): inp[spans[c]:spans[c + 1]] for c in range(p)}
        contributions = {rank: inp[spans[rank]:spans[rank + 1]]}
        chunks: dict[int, np.ndarray] = {}
    else:
        k = plan_cfg["k"]
        sends, recvs = _hier_plan(rank, p, k)
        store = {("member_raw", rank): inp}
        raws = {rank: inp}
        result: np.ndarray | None = None

    for step, (snd, rcv) in enumerate(zip(sends, recvs)):
        if die_at_step is not None and step == die_at_step:
            os._exit(17)

        outgoing = []
        for peer, key in snd:
            if algorithm == "ring":
                if key[0] == "raw":
                    payload = store[key]
                else:
                    payload = chunks[key[1]] if key[1] != rank else folded
            else:
                k = plan_cfg["k"]
                if key[0] == "member_raw":
                    payload = store[key]
                elif key[0] == "bundle":
                    # own group's raws only; foreign raws land in the
                    # same dict as the exchange proceeds
                    payload = np.concatenate([raws[key[1] * k + i] for i in range(k)])
                else:
                    payload = result
            outgoing.append((peers[peer], payload))

        # A round's sends overlap its receives: peers that both sent first
        # could fill each other's socket buffers and deadlock.  A round
        # that only sends needs no overlap, since its peers are receiving.
        try:
            if outgoing and rcv:
                sender.submit(outgoing)
                try:
                    received = [recv_array(peers[peer]) for peer, _ in rcv]
                finally:
                    send_error = sender.wait()
                if send_error is not None:
                    raise send_error
            else:
                for s_sock, arr in outgoing:
                    send_array(s_sock, arr)
                received = [recv_array(peers[peer]) for peer, _ in rcv]
        except (OSError, ConnectionError) as exc:
            raise CollectiveAbort(f"worker {rank} failed at step {step}: {exc}",
                                  step=step) from exc

        for (_, key), arr in zip(rcv, received):
            if algorithm == "ring":
                if key[0] == "raw":
                    contributions[key[1]] = arr
                else:
                    chunks[key[1]] = arr
            else:
                if key[0] == "member_raw":
                    store[key] = arr
                    raws[key[1]] = arr
                elif key[0] == "bundle":
                    src_group = key[1]
                    w = plan_cfg["k"]
                    for i in range(w):
                        raws[src_group * w + i] = arr[i * n:(i + 1) * n]
                else:
                    result = arr

        if algorithm == "ring" and step == p - 2:
            # reduce-scatter complete: fold this worker's chunk in
            # ascending rank order (the fixed reduction order)
            folded = fold_ascending([contributions[r] for r in range(p)], op)
            chunks[rank] = folded
        if algorithm == "hierarchical":
            k = plan_cfg["k"]
            G = p // k
            if rank % k == 0 and step == (k - 1) + (G - 1) - 1 and result is None:
                result = fold_ascending([raws[r] for r in range(p)], op)

    if algorithm == "ring":
        if p == 1:
            return inp.copy()
        spans = np.concatenate([[0], np.cumsum(chunk_sizes(n, p))])
        out = np.empty(n, dtype=np.float32)
        for c in range(p):
            out[spans[c]:spans[c + 1]] = chunks[c]
        return out
    if result is None:  # single-member groups fold locally
        result = fold_ascending([raws[r] for r in range(p)], op)
    return result


def run_worker(coord_host: str, coord_port: int, rank: int,
               die_at_step: int | None = None, timeout: float = 30.0) -> int:
    """Worker entry: rendezvous, run collectives until told to stop.

    Returns a process exit code (0 ok, 3 abort).
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((HOST, 0))
    listener.listen(64)
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
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((HOST, port))
        self._listener.listen(p)
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
            self._rendezvous()

    def _rendezvous(self) -> None:
        seen: dict[int, _Member] = {}
        while len(seen) < self.p:
            sock, _ = self._listener.accept()
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
        results: list[np.ndarray | None] = [None] * self.p
        reported_abort: dict | None = None
        vanished: tuple[int, Exception] | None = None
        for m in self._members:
            try:
                status = recv_json(m.sock)
                if "abort" in status:
                    reported_abort = reported_abort or status
                    continue
                results[m.rank] = recv_array(m.sock)
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
        return results, sched  # type: ignore[return-value]

    def close(self) -> None:
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
        self._listener.close()

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
