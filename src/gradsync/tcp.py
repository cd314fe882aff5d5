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

One coordinator exchange covers a whole collective, however many
buckets split the vector.  The plan record lists the buckets as
``[n_elems, algorithm]`` in vector order.  The coordinator sends it
before the first collective and again only when a call's plan differs,
and the worker builds its buffers and every round's block views once
per record.  Each collective then sends each worker one input frame,
which it receives in place into the buffer the plan sized.  A worker
that holds a plan takes only that frame, a new plan or ``bye`` next.  It
runs each bucket's table over its slice, one bucket after another, and
numbers the rounds on across the buckets, so an abort names a round of
the whole plan.  Then the rank that the plan names for the result
replies with its result frame alone, which stands for done, and every
other rank replies with a ``done`` record; an abort is a control record
too.  A call with one algorithm name is the one-bucket case.

Every socket runs with ``TCP_NODELAY``: a round's frames are small and
each one is waited on, so Nagle's algorithm and delayed ACKs would add
tens of milliseconds per round.  A worker runs every round on its own
thread, and in each round of either plan it has at most one send and at
most one receive.  It sends first when its send goes to a higher rank
or it has none, and otherwise receives first.  A round's frames then
link the ranks in chains and rings; a chain always drains, and a ring
could stall only if all its ranks sent first or all received first,
but its lowest rank sends first and its highest receives first.  So no
round deadlocks, however far a frame outgrows the socket buffers.

Workers dial by address, never through the resolver.  Both listeners
bind IPv4 127.0.0.1, and ``_dial`` connects an IPv4 socket directly:
``socket.create_connection`` would call ``getaddrinfo``, whose IDNA
encoding of the host imports a codec, ``stringprep`` and ``unicodedata``
that the coordinator never loads, in every worker after fork.  A forked
worker imports nothing.

Wire format, all frames: u32 little-endian length, one dtype tag byte,
payload.  The length counts the tag byte plus the payload.  Tags:
0 = float32 array, 2 = UTF-8 JSON control record.  Tag 1 is reserved
for binary16 gradients; nothing sends it yet.  Both sides read every
frame with ``recv_frame``, which takes a control record of at most
1 MiB, or a float32 frame of exactly the size its caller expects, read
in place; it rejects any other frame from the header, before the body.
Both sides also check a plan record with one rule, ``_plan_error``.
"""

from __future__ import annotations

import json
import math
import os
import socket
import struct
from contextlib import ExitStack
from itertools import accumulate

import multiprocessing as mp

import numpy as np

from .collectives import (
    ReduceSchedule,
    _is_whole,
    _schedule,
    chunk_sizes,
    fold_ascending,
)

__all__ = ["CollectiveAbort", "TcpCluster", "run_coordinator", "run_worker",
           "TAG_F32", "TAG_U16", "TAG_JSON"]

TAG_F32 = 0
TAG_U16 = 1
TAG_JSON = 2

_HEAD = struct.Struct("<IB")  # length and tag
# Cap on a control record's payload; the largest real one, the peer
# table, is ~14 KB at p = 1024.
_MAX_JSON = 1 << 20
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


def _dial(host: str, port: int, timeout: float) -> socket.socket:
    """A connected IPv4 stream socket with ``timeout`` and ``TCP_NODELAY``,
    dialled without ``socket.getaddrinfo``: ``connect`` parses a numeric
    address itself and resolves an ASCII host name without the IDNA codec."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect((host, port))
        return _nodelay(sock)
    except BaseException:
        sock.close()
        raise


def recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:  # n is at most the control record cap
        part = sock.recv(n - len(buf))
        if not part:
            raise ConnectionError("peer closed the connection")
        buf.extend(part)
    return bytes(buf)


def send_frame(sock: socket.socket, tag: int, payload: bytes) -> None:
    sock.sendall(_HEAD.pack(1 + len(payload), tag) + payload)


def send_json(sock: socket.socket, doc: dict) -> None:
    send_frame(sock, TAG_JSON, json.dumps(doc).encode())


def send_array(sock: socket.socket, arr: np.ndarray) -> None:
    if arr.dtype != np.float32:
        raise TypeError(f"unsendable dtype {arr.dtype}")
    send_frame(sock, TAG_F32, arr.astype("<f4", copy=False).tobytes())


def recv_frame(sock: socket.socket, out: np.ndarray | None = None):
    """Read one frame.  A control record of at most ``_MAX_JSON`` bytes is
    decoded and returned.  A float32 frame of exactly ``out.nbytes`` is
    read in place into contiguous ``out``, and None is returned.  Any
    other frame raises ConnectionError from its header, before its body
    is read: an unknown tag or the reserved tag 1, a zero length, a
    control record over the cap, or a float32 frame of another size or
    with no ``out``."""
    length, tag = _HEAD.unpack(recv_exact(sock, _HEAD.size))
    if tag == TAG_JSON and 0 < length <= 1 + _MAX_JSON:
        payload = recv_exact(sock, length - 1)
        try:
            doc = json.loads(payload.decode())
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
            raise ConnectionError(f"undecodable control frame: {exc}") from exc
        if doc is None:  # None stands for a float32 frame read into out
            raise ConnectionError("null control record")
        return doc
    if tag == TAG_F32 and out is not None and length == 1 + out.nbytes:
        view, got = memoryview(out).cast("B"), 0
        while got < len(view):
            part = sock.recv_into(view[got:])
            if not part:
                raise ConnectionError("peer closed the connection")
            got += part
        return None
    data = "" if out is None else f" or float32 frame of {out.nbytes} bytes"
    raise ConnectionError(f"expected control frame of at most {_MAX_JSON} bytes "
                          f"(the cap){data}, got tag {tag} with length {length}")


def recv_array_into(sock: socket.socket, out: np.ndarray) -> None:
    """Read one float32 frame of exactly ``out.nbytes`` into contiguous ``out``."""
    if recv_frame(sock, out) is not None:
        raise ConnectionError(f"expected float32 frame of {out.nbytes} bytes, "
                              f"got a control record")


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


def _in_order(rank: int, sends, recvs):
    """A round's transfers as ``(send_array or recv_array_into, peer,
    block)``, in the order this rank makes them: sends first, unless the
    send goes down to a lower rank."""
    io = [(send_array, peer, block) for peer, block in sends]
    io += [(recv_array_into, peer, block) for peer, block in recvs]
    return io[::-1] if sends and sends[0][0] < rank else io


def _standing_plan(rank: int, plan_cfg: dict):
    """Everything this worker needs to run a plan record, built once per
    record: ``(inp, own, out, rounds)``.  Each collective's input lands in
    ``inp``, and ``own`` pairs each bucket's row of its (p, n) raw input
    matrix with that bucket's slice of ``inp``.  ``out`` is the reduced
    vector.  ``rounds`` lists every bucket's rounds, one bucket after
    another, as ``(moves, fold)``: the moves are ``(send_array or
    recv_array_into, peer, block view)`` in ``_in_order``'s order, and
    ``fold`` is None or ``(span of out, the raw rows over that span)``."""
    p, k = plan_cfg["p"], plan_cfg["k"]
    total = sum(n for n, _ in plan_cfg["buckets"])
    inp, out = np.empty(total, dtype=np.float32), np.empty(total, dtype=np.float32)
    raws = np.empty(p * total, dtype=np.float32)  # the raw matrices, back to back
    own, rounds, start = [], [], 0
    for n, algorithm in plan_cfg["buckets"]:
        flat, res = raws[p * start:p * (start + n)], out[start:start + n]
        raw = flat.reshape(p, n)
        own.append((raw[rank], inp[start:start + n]))

        def view(block):  # in this bucket
            row, (lo, hi) = block
            return res[lo:hi] if row is None else flat[row * n + lo:row * n + hi]

        plan = _ring_plan(rank, p, n) if algorithm == "ring" else _hier_plan(rank, p, k, n)
        for sends, recvs, fold in plan:
            moves = [(move, peer, view(block))
                     for move, peer, block in _in_order(rank, sends, recvs)]
            if fold is not None:
                fold = res[fold[0]:fold[1]], list(raw[:, fold[0]:fold[1]])
            rounds.append((moves, fold))
        start += n
    return inp, own, out, rounds


def _worker_collective(rank: int, standing, op: str,
                       peers: dict[int, socket.socket], die_at_step: int | None):
    """Run a standing plan over the input in its ``inp`` and return its
    ``out`` (p >= 2: one worker never opens a socket).  Round indices run
    on across the buckets, so a failure names its round in the whole plan.
    Each round has at most one send and one receive, made in the order
    ``_in_order`` gives, so no round deadlocks (see the module docstring)."""
    _, own, out, rounds = standing
    for row, part in own:
        row[:] = part
    for step, (moves, fold) in enumerate(rounds):
        if step == die_at_step:
            os._exit(17)
        try:
            for move, peer, view in moves:
                move(peers[peer], view)
        except (OSError, ConnectionError) as exc:
            raise CollectiveAbort(f"worker {rank} failed at step {step}: {exc}",
                                  step=step) from exc
        if fold is not None:
            res, rows = fold
            res[:] = fold_ascending(rows, op)
    return out


def _is_int(value) -> bool:
    return type(value) is int  # JSON true and false are not ranks or sizes


def _parse_go(go, rank: int) -> tuple[int, dict[int, int]] | None:
    """The mesh size and the peer ports from a coordinator's ``go``
    record, or None if the record is malformed: p must exceed this rank,
    and the peer table must map integer ranks to ports, every lower rank
    included."""
    if (not isinstance(go, dict) or not _is_int(go.get("p")) or go["p"] <= rank
            or not isinstance(go.get("peers"), dict)):
        return None
    try:
        ports = {int(r): port for r, port in go["peers"].items()}
    except ValueError:
        return None
    ok = (all(_is_int(port) and 0 < port < 1 << 16 for port in ports.values())
          and all(r in ports for r in range(rank)))
    return (go["p"], ports) if ok else None


def _plan_error(plan, p: int) -> str | None:
    """Why a mesh of p workers cannot run a plan record, or None if it can.
    ``buckets`` lists each bucket's ``[n_elems, algorithm]`` in input
    order, and ``result`` names the one rank that sends its result back,
    or is None for every rank.  The coordinator checks its record before
    it sends it, and each worker checks the record it receives."""
    if not (isinstance(plan, dict) and _is_int(plan.get("p")) and plan["p"] == p):
        return f"plan must be a record for {p} workers"
    k, result, buckets = plan.get("k"), plan.get("result"), plan.get("buckets")
    if not (_is_int(k) and k >= 1 and p % k == 0):
        return f"group size must be an integer >= 1 that divides {p}, got {k!r}"
    if plan.get("op") not in ("sum", "mean"):
        return f"unknown reduction op {plan.get('op')!r}"
    if "result" not in plan or not (result is None or _is_int(result) and 0 <= result < p):
        return f"result_rank must be a rank below {p} or None, got {result!r}"
    if not (isinstance(buckets, list) and buckets and all(
            isinstance(b, (list, tuple)) and len(b) == 2 and _is_int(b[0]) and b[0] >= 0
            for b in buckets)):
        return (f"buckets must be one or more [size, algorithm] pairs with "
                f"non-negative integer sizes, got {buckets!r}")
    for _, name in buckets:
        if name not in ("ring", "hierarchical"):
            return f"unknown algorithm {name!r}"
    total = sum(size for size, _ in buckets)
    if 4 * total >= 1 << 32:  # one frame's length field must count the input
        return f"{total} elements overflow one frame"
    return None


def run_worker(coord_host: str, coord_port: int, rank: int,
               die_at_step: int | None = None, timeout: float = 30.0) -> int:
    """Worker entry: rendezvous, run collectives until told to stop.

    Returns a process exit code: 0 ok, 3 on an abort, a socket failure
    or a malformed coordinator or peer record.
    """
    listener = socket.create_server((HOST, 0), backlog=64)
    listener.settimeout(timeout)

    coord = _dial(coord_host, coord_port, timeout)
    peers: dict[int, socket.socket] = {}
    try:
        send_json(coord, {"hello": rank, "listen_port": listener.getsockname()[1]})
        mesh = _parse_go(recv_frame(coord), rank)
        if mesh is None:  # a rendezvous error record lands here too
            return 3
        p, peer_ports = mesh

        # higher ranks dial, lower ranks accept: one socket per pair
        for other in range(rank):
            s = _dial(HOST, peer_ports[other], timeout)
            send_json(s, {"rank": rank})
            peers[other] = s
        for _ in range(p - 1 - rank):
            s, _ = listener.accept()
            _nodelay(s).settimeout(timeout)
            hello = recv_frame(s)
            other = hello.get("rank") if isinstance(hello, dict) else None
            if not _is_int(other) or not rank < other < p or other in peers:
                s.close()
                return 3
            peers[other] = s

        # Once a plan is held, the next frame is its input, a new plan or bye.
        plan_cfg = standing = None
        while True:
            msg = recv_frame(coord, None if standing is None else standing[0])
            if msg is None:  # the input, read into the standing plan's inp
                try:
                    out = _worker_collective(rank, standing, plan_cfg["op"], peers,
                                             die_at_step)
                except CollectiveAbort as exc:
                    try:
                        send_json(coord, {"abort": exc.step, "rank": rank})
                    except OSError:
                        pass
                    return 3
                if plan_cfg["result"] in (None, rank):
                    send_array(coord, out)  # the result stands for done
                else:
                    send_json(coord, {"done": rank})
            elif isinstance(msg, dict) and "bye" in msg:
                return 0
            elif isinstance(msg, dict) and "plan" in msg:
                plan_cfg = msg["plan"]
                if p < 2 or _plan_error(plan_cfg, p) is not None:
                    return 3  # one worker never opens a socket, so runs no plan
                standing = _standing_plan(rank, plan_cfg)
            else:
                return 3
    except (OSError, ConnectionError):
        return 3
    finally:
        for s in peers.values():
            s.close()
        coord.close()
        listener.close()


# --- coordinator ------------------------------------------------------------


class TcpCluster:
    """Coordinator side of a persistent worker cluster.

    Spawns one process per worker (unless workers attach externally via
    the CLI), then runs any number of collectives before ``close``.  Once
    a collective aborts the cluster is dead: its workers have exited or
    lost their peers, so every later ``allreduce`` raises at once.
    """

    def __init__(self, p: int, *, spawn: bool = True, port: int = 0,
                 timeout: float = 30.0, die_at_step: dict[int, int] | None = None):
        if not _is_whole(p):
            raise ValueError(f"worker count must be an integer, got {p!r}")
        if p < 1:
            raise ValueError(f"need at least one worker, got {p}")
        if not 0 < timeout < math.inf:  # NaN fails too; 0 would make accept non-blocking
            raise ValueError(f"timeout must be finite seconds > 0, got {timeout!r}")
        self.p = p = int(p)  # a plain int, which the JSON records can carry
        self.timeout = timeout
        self._socks: list[socket.socket] = []  # one per rank, in rank order
        self._procs: list[mp.Process] = []
        self._abort: CollectiveAbort | None = None
        self._held: bytes | None = None  # the plan record the workers hold
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
        seen: dict[int, tuple] = {}  # rank: (socket, its listen port)
        with ExitStack() as accepted:  # closes every accepted socket on a raise
            while len(seen) < self.p:
                sock, _ = self._listener.accept()
                accepted.enter_context(sock)
                _nodelay(sock).settimeout(self.timeout)
                try:
                    hello = recv_frame(sock)
                except (OSError, ConnectionError):
                    # a probe or dropped dial; keep waiting for real claims
                    sock.close()
                    continue
                claim = hello if isinstance(hello, dict) else {}
                rank = claim.get("hello")
                if type(rank) is not int or not 0 <= rank < self.p or rank in seen:
                    send_json(sock, {"error": f"bad or duplicate rank claim: {rank!r}"})
                    for other, _ in seen.values():
                        send_json(other, {"error": "rendezvous failed"})
                    raise CollectiveAbort(f"rendezvous rejected rank claim {rank!r}")
                seen[rank] = sock, claim.get("listen_port")
            accepted.pop_all()
        self._socks = [seen[r][0] for r in range(self.p)]
        ports = {r: seen[r][1] for r in range(self.p)}
        for sock in self._socks:
            send_json(sock, {"peers": ports, "p": self.p})

    def allreduce(self, buffers, *, algorithm="ring", k: int = 1,
                  op: str = "sum", result_rank: int | None = None
                  ) -> tuple[list[np.ndarray], ReduceSchedule | list[ReduceSchedule]]:
        """Run one collective across the cluster; returns per-rank results
        and the schedule.

        ``algorithm`` names one algorithm for the whole vector, or lists
        the buckets that split it, in order, as ``[(n_elems, algorithm),
        ...]``; each bucket runs its own schedule, and the list of their
        schedules comes back in place of one.  Either way each worker gets
        one input frame, and replies once; it gets the plan record first
        only when the plan differs from the one it holds.  With
        ``result_rank`` only that rank sends its result back, and the list
        holds just that one.  Every other worker still reports done or
        abort, so a failure anywhere is caught either way.
        """
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
        buckets = [(n, algorithm)] if isinstance(algorithm, str) else list(algorithm)
        plan = {"buckets": buckets, "p": self.p, "k": k, "op": op,
                "result": result_rank}
        reason = _plan_error(plan, self.p)  # the rule every worker applies
        if reason is not None:
            raise ValueError(reason)
        total = sum(size for size, _ in buckets)
        if total != n:
            raise ValueError(f"bucket sizes sum to {total}, but the buffers hold "
                             f"{n} elements")
        scheds = [_schedule(name, self.p, k, size, 4) for size, name in buckets]
        sched = scheds[0] if isinstance(algorithm, str) else scheds

        if self.p == 1:
            return [fold_ascending(arrs, op)], sched

        # Every worker keeps the last plan record it got, so a call whose
        # plan is unchanged sends the inputs alone.
        record = json.dumps({"plan": plan}).encode()
        try:
            for rank, (sock, arr) in enumerate(zip(self._socks, arrs)):
                if record != self._held:
                    send_frame(sock, TAG_JSON, record)
                send_array(sock, arr)
        except OSError as exc:
            self._abort = CollectiveAbort(f"sending to worker {rank} failed: {exc}")
            raise self._abort from exc
        self._held = record

        # Drain every member before deciding the outcome: the crashed
        # worker itself reports nothing, so the step index comes from
        # a surviving peer's abort message.
        wanted = range(self.p) if result_rank is None else [result_rank]
        results = np.empty((len(wanted), n), dtype=np.float32)
        reported_abort: dict | None = None
        vanished: tuple[int, Exception] | None = None
        for rank, sock in enumerate(self._socks):
            out = results[wanted.index(rank)] if rank in wanted else None
            try:
                status = recv_frame(sock, out)
                if status is None:  # the result frame stands for done
                    continue
                if isinstance(status, dict) and "abort" in status:
                    reported_abort = reported_abort or status
                elif out is not None or not (isinstance(status, dict) and "done" in status):
                    raise ConnectionError(f"unexpected reply {status!r}")
            except (OSError, ConnectionError) as exc:
                vanished = vanished or (rank, exc)
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
        for sock in self._socks:
            try:
                send_json(sock, {"bye": True})
            except OSError:
                pass
            sock.close()
        self._socks = []
        for proc in self._procs:
            proc.join(timeout=self.timeout)
            if proc.is_alive():
                proc.terminate()
        self._procs = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


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
