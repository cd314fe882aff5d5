"""Loopback transport tests: framing, rendezvous, and wire-vs-memory equality."""

import dataclasses
import json
import multiprocessing as mp
import re
import socket
import subprocess
import sys
import threading
from contextlib import ExitStack
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradsync import experiment, tcp
from gradsync.collectives import (
    Topology,
    fold_ascending,
    hierarchical_allreduce,
    hierarchical_schedule,
    ring_allreduce,
    ring_schedule,
)
from gradsync.experiment import ExperimentConfig, run_experiment
from gradsync.tcp import CollectiveAbort, TcpCluster


def rand_buffers(p, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n).astype(np.float32) for _ in range(p)]


def test_frame_roundtrip_f32_json():
    a, b = socket.socketpair()
    try:
        vec = np.arange(5, dtype=np.float32) * 0.25
        got = np.empty(5, dtype=np.float32)
        tcp.send_array(a, vec)
        tcp.recv_array_into(b, got)
        assert np.array_equal(got, vec)

        tcp.send_json(a, {"hello": 3, "listen_port": 1234})
        assert tcp.recv_frame(b) == {"hello": 3, "listen_port": 1234}
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("dtype", [np.uint16, np.float64])
def test_send_array_sends_float32_only(dtype):
    a, b = socket.socketpair()
    try:
        with pytest.raises(TypeError, match="unsendable"):
            tcp.send_array(a, np.ones(3, dtype=dtype))
        a.shutdown(socket.SHUT_WR)
        b.settimeout(5)
        assert b.recv(16) == b""  # the peer got no byte
    finally:
        a.close()
        b.close()


def test_frame_rejects_wrong_kind():
    a, b = socket.socketpair()
    try:
        tcp.send_array(a, np.ones(2, dtype=np.float32))
        with pytest.raises(ConnectionError, match="expected control frame"):
            tcp.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_rejects_unknown_tag():
    a, b = socket.socketpair()
    try:
        tcp.send_frame(a, 7, b"\x00\x00\x80\x3f")
        with pytest.raises(ConnectionError, match="tag 7"):
            tcp.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_rejects_unknown_tag_before_the_body():
    a, b = socket.socketpair()
    try:
        b.settimeout(5)  # reading the promised body would time out instead
        a.sendall(tcp._HEAD.pack(1000, 7))
        with pytest.raises(ConnectionError, match="tag 7"):
            tcp.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_control_frames_are_capped():
    a, b = socket.socketpair()
    try:
        b.settimeout(5)
        a.sendall(tcp._HEAD.pack(2 + tcp._MAX_JSON, tcp.TAG_JSON))
        with pytest.raises(ConnectionError, match="cap"):
            tcp.recv_frame(b)
    finally:
        a.close()
        b.close()
    a, b = socket.socketpair()
    try:
        b.settimeout(5)
        record = '"' + "x" * (tcp._MAX_JSON - 2) + '"'  # exactly at the cap
        sender = threading.Thread(
            target=tcp.send_frame, args=(a, tcp.TAG_JSON, record.encode()))
        sender.start()
        assert tcp.recv_frame(b) == record[1:-1]
        sender.join(timeout=5)
        assert not sender.is_alive()
    finally:
        a.close()
        b.close()


def test_recv_json_rejects_undecodable_payload():
    a, b = socket.socketpair()
    try:
        tcp.send_frame(a, tcp.TAG_JSON, b"{not json")
        tcp.send_frame(a, tcp.TAG_JSON, b"\xff\xfe")
        for _ in range(2):
            with pytest.raises(ConnectionError, match="undecodable"):
                tcp.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_null_control_record_is_rejected():
    # None is what the reader returns once it has filled out
    a, b = socket.socketpair()
    try:
        tcp.send_frame(a, tcp.TAG_JSON, b"null")
        with pytest.raises(ConnectionError, match="null"):
            tcp.recv_frame(b, np.empty(1, dtype=np.float32))
    finally:
        a.close()
        b.close()


def send_records(sock, records):
    """Send each record: bytes as a float32 frame's payload, anything else
    as a control frame."""
    for record in records:
        if isinstance(record, bytes):
            tcp.send_frame(sock, tcp.TAG_F32, record)
        else:
            tcp.send_frame(sock, tcp.TAG_JSON, json.dumps(record).encode())


def recv_any(sock):
    """One frame, as ``recv_frame`` decodes a control record, or a float32
    frame of any length as its array."""
    length, tag = tcp._HEAD.unpack(tcp.recv_exact(sock, tcp._HEAD.size))
    payload = tcp.recv_exact(sock, length - 1)
    return np.frombuffer(payload, "<f4") if tag == tcp.TAG_F32 else json.loads(payload)


def worker_exit_code(rank, go, *records, peer_hello=None, peer_records=(),
                     replies=None):
    """Exit code of one worker thread run against a fake coordinator.

    The coordinator answers the worker's hello with ``go`` (a callable
    gets the port of a fake rank-0 peer), then sends each record with
    ``send_records``.  The fake peer only listens, unless there are
    ``peer_records``: then it accepts the worker's dial and sends those.
    With ``peer_hello``, a fake higher-rank peer dials the worker and
    sends it instead.  A ``replies`` list gets every frame that the
    worker sends the coordinator after its hello: a control record
    decoded, a float32 frame as its array.  Returns None if the worker
    raised instead of returning.
    """
    with socket.create_server((tcp.HOST, 0)) as server, \
            socket.create_server((tcp.HOST, 0)) as peer:
        server.settimeout(10)
        codes = []
        worker = threading.Thread(target=lambda: codes.append(
            tcp.run_worker(tcp.HOST, server.getsockname()[1], rank, timeout=10)))
        worker.start()
        coord, _ = server.accept()
        with coord:
            coord.settimeout(10)
            hello = tcp.recv_frame(coord)
            assert hello["hello"] == rank
            doc = go(peer.getsockname()[1]) if callable(go) else go
            send_records(coord, [doc, *records])
            with ExitStack() as dials:
                if peer_hello is not None:
                    dial = dials.enter_context(socket.create_connection(
                        (tcp.HOST, hello["listen_port"]), timeout=10))
                    send_records(dial, [peer_hello])
                if peer_records:
                    peer.settimeout(10)
                    dial = dials.enter_context(peer.accept()[0])
                    dial.settimeout(10)
                    assert tcp.recv_frame(dial) == {"rank": rank}
                    send_records(dial, peer_records)
                worker.join(timeout=10)
            if replies is not None:
                with pytest.raises(ConnectionError):  # the worker hung up
                    while True:
                        replies.append(recv_any(coord))
    assert not worker.is_alive()
    return codes[0] if codes else None


def mesh_of_2(port):
    return {"peers": {"0": port}, "p": 2}


def plan_of(**changes):
    """A plan record for a mesh of two, two float32 elements in one ring
    bucket, with ``changes`` applied; a None value drops its key."""
    plan = {"buckets": [[2, "ring"]], "p": 2, "k": 1, "op": "sum", "result": 0}
    plan.update(changes)
    return {"plan": {k: v for k, v in plan.items() if v is not None}}


def test_worker_exits_3_on_a_partial_element_input():
    assert worker_exit_code(1, mesh_of_2, plan_of(), b"\x00" * 6) == 3


@pytest.mark.parametrize("go", [
    pytest.param([1], id="not-an-object"),
    pytest.param(lambda port: {"p": 2}, id="no-peers"),
    pytest.param(lambda port: {"peers": {"x": port}, "p": 2}, id="rank-x"),
    pytest.param(lambda port: {"peers": [port], "p": 2}, id="peers-a-list"),
    pytest.param({"peers": {}, "p": 2}, id="lower-rank-missing"),
    pytest.param(lambda port: {"peers": {"0": str(port)}, "p": 2}, id="port-a-string"),
    pytest.param(lambda port: {"peers": {"0": 1 << 16}, "p": 2}, id="port-out-of-range"),
    pytest.param(lambda port: {"peers": {"0": port}}, id="no-p"),
    pytest.param(lambda port: {"peers": {"0": port}, "p": True}, id="p-a-bool"),
    pytest.param(lambda port: {"peers": {"0": port}, "p": 1}, id="p-not-above-rank"),
    pytest.param(lambda port: {"peers": {"0": port}, "p": 2.0}, id="p-a-float"),
    pytest.param({"error": "rendezvous failed"}, id="rendezvous-error"),
])
def test_worker_exits_3_on_a_malformed_go_record(go):
    assert worker_exit_code(1, go) == 3


@pytest.mark.parametrize("record", [{"done": 1}, [1], "bye"],
                         ids=["other-object", "a-list", "a-string"])
def test_worker_exits_3_on_a_record_that_is_neither_bye_nor_plan(record):
    assert worker_exit_code(1, mesh_of_2, record) == 3


# plans that the plan rule rejects on its own, whatever input follows
MALFORMED_PLANS = [
    pytest.param(plan_of(p=None), id="no-p"),
    pytest.param(plan_of(p=3), id="p-not-the-mesh"),
    pytest.param(plan_of(p=2.0), id="p-a-float"),
    pytest.param(plan_of(buckets=[[2, "tree"]]), id="algorithm-tree"),
    pytest.param(plan_of(buckets=[[2]]), id="no-algorithm"),
    pytest.param(plan_of(k=None), id="no-k"),
    pytest.param(plan_of(k=0), id="k-0"),
    pytest.param(plan_of(k=3), id="k-not-dividing-p"),
    pytest.param(plan_of(k=True), id="k-a-bool"),
    pytest.param(plan_of(op="max"), id="op-max"),
    pytest.param(plan_of(op=None), id="no-op"),
    pytest.param(plan_of(result=None), id="no-result"),
    pytest.param(plan_of(result=2), id="result-past-p"),
    pytest.param(plan_of(result=-1), id="result-negative"),
    pytest.param(plan_of(result=True), id="result-a-bool"),
    pytest.param(plan_of(result="0"), id="result-a-string"),
    pytest.param({"plan": [1]}, id="plan-a-list"),
    pytest.param(plan_of(buckets=None), id="no-buckets"),
    pytest.param(plan_of(buckets=[]), id="buckets-empty"),
    pytest.param(plan_of(buckets={"2": "ring"}), id="buckets-an-object"),
    pytest.param(plan_of(buckets=[2, "ring"]), id="bucket-not-a-list"),
    pytest.param(plan_of(buckets=[[2, "ring", 0]]), id="bucket-of-three"),
    pytest.param(plan_of(buckets=[[-1, "ring"], [3, "ring"]]), id="size-negative"),
    pytest.param(plan_of(buckets=[[True, "ring"], [1, "ring"]]), id="size-a-bool"),
    pytest.param(plan_of(buckets=[[2.0, "ring"]]), id="size-a-float"),
    pytest.param(plan_of(buckets=[[1, "ring"], [1, "tree"]]), id="tree-in-second-bucket"),
    # more elements than one frame's length field can count, and than numpy
    # can allocate: rejected before anything is sized by it
    pytest.param(plan_of(buckets=[[1 << 62, "ring"]]), id="sizes-past-one-frame"),
]


@pytest.mark.parametrize("plan", MALFORMED_PLANS + [
    # well-formed plans whose sizes do not match the input frame
    pytest.param(plan_of(buckets=[[1, "ring"], [2, "ring"]]), id="sizes-over-the-input"),
    pytest.param(plan_of(buckets=[[1, "ring"]]), id="sizes-under-the-input"),
])
def test_worker_exits_3_on_a_malformed_plan(plan):
    # the input frame holds two float32 elements
    assert worker_exit_code(1, mesh_of_2, plan, b"\x00" * 8) == 3


@pytest.mark.parametrize("plan", MALFORMED_PLANS)
def test_plan_rule_gives_every_malformed_plan_a_reason(plan):
    reason = tcp._plan_error(plan["plan"], 2)
    assert isinstance(reason, str) and reason


def test_plan_rule_holds_the_input_to_one_frame():
    # a frame's u32 length field counts the tag byte and 4 bytes an element
    assert tcp._plan_error(plan_of()["plan"], 2) is None
    plan = plan_of(buckets=[[(1 << 30) - 1, "ring"]])["plan"]
    assert tcp._plan_error(plan, 2) is None
    plan = plan_of(buckets=[[1 << 30, "ring"]])["plan"]
    assert "frame" in tcp._plan_error(plan, 2)


def test_worker_aborts_on_a_control_frame_where_data_is_due():
    # rank 0 sends its round-0 chunk, then a control record in place of
    # round 1's float32 frame: the worker exits 3, and its abort record
    # names round 1
    replies = []
    code = worker_exit_code(1, mesh_of_2, plan_of(), b"\x00" * 8,
                            peer_records=[b"\x00" * 4, {"done": 0}], replies=replies)
    assert code == 3
    assert replies == [{"abort": 1, "rank": 1}]


def f32(*values):
    return np.array(values, dtype="<f4").tobytes()


# rank 0's two ring frames to rank 1 under plan_of(): its raw value of the
# chunk that rank 1 folds, then its own folded chunk
RING_OF_2 = [f32(5), f32(6)]


@pytest.mark.parametrize("records,peer_records,replied", [
    pytest.param([f32(0, 0)], [], [], id="input-before-any-plan"),
    pytest.param([plan_of(), f32(0, 0), f32(0, 0, 0)], RING_OF_2, [{"done": 1}],
                 id="input-of-another-size-after-a-plan"),
    pytest.param([plan_of(), f32(0, 0), plan_of(k=3), f32(0, 0)], RING_OF_2,
                 [{"done": 1}], id="second-plan-malformed"),
])
def test_worker_exits_3_on_a_frame_its_plan_does_not_allow(records, peer_records,
                                                            replied):
    # once a worker holds a plan, the next frame is its input, a plan or bye
    replies = []
    code = worker_exit_code(1, mesh_of_2, *records, peer_records=peer_records,
                            replies=replies)
    assert code == 3
    assert replies == replied


def test_worker_runs_a_second_plan_and_its_input():
    # the second plan holds four elements in one ring bucket, and every
    # rank's result comes back: rank 0 sends its raw 10 and 20 of the
    # chunk that rank 1 folds with its 3 and 4, then its folded 11 and 22
    replies = []
    second = plan_of(buckets=[[4, "ring"]])
    second["plan"]["result"] = None
    code = worker_exit_code(1, mesh_of_2, plan_of(), f32(0, 0), second,
                            f32(1, 2, 3, 4), {"bye": True},
                            peer_records=[*RING_OF_2, f32(10, 20), f32(11, 22)],
                            replies=replies)
    assert code == 0
    assert replies[0] == {"done": 1} and len(replies) == 2
    assert replies[1].tolist() == [11, 22, 13, 24]


def test_worker_exits_3_on_a_plan_for_one_worker():
    # a one-worker plan has no rounds, so nothing would fill its result
    plan = {"plan": {"buckets": [[2, "ring"]], "p": 1, "k": 1, "op": "sum",
                     "result": None}}
    assert worker_exit_code(0, {"peers": {}, "p": 1}, plan, b"\x00" * 8) == 3


@pytest.mark.parametrize("hello", [{"rank": "1"}, {"rank": 0}, {"rank": 2},
                                   {"rank": True}, [1], {}],
                         ids=["rank-a-string", "own-rank", "rank-past-p",
                              "rank-a-bool", "a-list", "no-rank"])
def test_worker_exits_3_on_a_malformed_peer_hello(hello):
    assert worker_exit_code(0, {"peers": {}, "p": 2}, peer_hello=hello) == 3


def test_empty_array_frame():
    a, b = socket.socketpair()
    try:
        empty = np.empty(0, dtype=np.float32)
        tcp.send_array(a, empty)
        tcp.send_array(a, empty)
        tcp.recv_array_into(b, empty)
        assert tcp.recv_frame(b, empty) is None
    finally:
        a.close()
        b.close()


def test_recv_array_into_lands_in_place():
    a, b = socket.socketpair()
    try:
        out = np.zeros(6, dtype=np.float32)
        vec = np.arange(3, dtype=np.float32) - 0.5
        tcp.send_array(a, vec)
        tcp.recv_array_into(b, out[2:5])
        assert np.array_equal(out, [0, 0, -0.5, 0.5, 1.5, 0])
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("tag,payload", [
    (tcp.TAG_F32, np.ones(3, dtype=np.float32).tobytes()),  # 12 bytes, not 8
    (tcp.TAG_JSON, b'{"a": 1}'),                             # 8 bytes, wrong tag
], ids=["wrong-length", "json-tag"])
def test_recv_array_into_rejects_wrong_frames(tag, payload):
    a, b = socket.socketpair()
    try:
        out = np.zeros(2, dtype=np.float32)
        tcp.send_frame(a, tag, payload)
        with pytest.raises(ConnectionError, match="float32 frame of 8 bytes"):
            tcp.recv_array_into(b, out)
        assert not out.any()
    finally:
        a.close()
        b.close()


_TAGS = st.one_of(st.sampled_from([tcp.TAG_F32, tcp.TAG_U16, tcp.TAG_JSON]),
                  st.integers(0, 255))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
# raw bytes; a frame header with any length and tag before raw bytes; and
# frames whose length is right, with raw or JSON payloads
_WIRE = st.one_of(
    st.binary(max_size=40),
    st.builds(lambda length, tag, body: tcp._HEAD.pack(length, tag) + body,
              st.one_of(st.integers(0, 48), st.integers(0, 2**32 - 1)),
              _TAGS, st.binary(max_size=40)),
    st.builds(lambda tag, body: tcp._HEAD.pack(1 + len(body), tag) + body,
              _TAGS, st.binary(max_size=40)),
    st.builds(lambda doc: tcp._HEAD.pack(1 + len(doc), tcp.TAG_JSON) + doc,
              _JSON.map(lambda d: json.dumps(d).encode())),
)


# a well-formed frame of two binary16 elements: tag 1 is reserved, so
# every receiver rejects it, even where its size is the expected one
_U16_FRAME = tcp._HEAD.pack(5, tcp.TAG_U16) + np.ones(2, np.float16).tobytes()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(wire=_WIRE, decoder=st.sampled_from(["json", "into", "reply", "reply-none"]),
       n_out=st.integers(0, 3))
@example(wire=tcp._HEAD.pack(200_001, tcp.TAG_JSON) + b"[" * 200_000,
         decoder="json", n_out=0)  # nested past the recursion limit
@example(wire=tcp._HEAD.pack(2**32 - 1, tcp.TAG_F32), decoder="reply", n_out=0)
@example(wire=_U16_FRAME, decoder="json", n_out=1)
@example(wire=_U16_FRAME, decoder="into", n_out=1)
@example(wire=_U16_FRAME, decoder="reply", n_out=1)
@example(wire=_U16_FRAME, decoder="reply-none", n_out=1)
def test_frame_decoders_return_or_raise_connection_error(wire, decoder, n_out):
    # whatever a peer sends before it hangs up, each decoder returns a
    # value or raises ConnectionError, and never waits for more bytes;
    # none of them takes a frame with the reserved tag 1
    a, b = socket.socketpair()
    try:
        a.settimeout(5)
        b.settimeout(5)

        def send():
            a.sendall(wire)
            a.shutdown(socket.SHUT_WR)

        sender = threading.Thread(target=send)
        sender.start()
        out = np.zeros(n_out, dtype=np.float32)
        read = {"json": tcp.recv_frame,
                "into": lambda sock: tcp.recv_array_into(sock, out),
                "reply": lambda sock: tcp.recv_frame(sock, out),
                "reply-none": lambda sock: tcp.recv_frame(sock, None)}[decoder]
        taken = 0
        with pytest.raises(ConnectionError):
            while True:  # every frame in the bytes, then the hang-up
                read(b)
                taken += 1
        sender.join(timeout=5)
        assert not sender.is_alive()
        if wire[4:5] == bytes([tcp.TAG_U16]):
            assert taken == 0
    finally:
        a.close()
        b.close()


def test_length_field_does_not_size_the_reads():
    # a control frame at the 1 MiB cap that then ends: no recv asks for
    # more than 1 MiB, since recv reserves what it is asked for
    class Wire:
        def __init__(self, data):
            self.data, self.asked = data, []

        def recv(self, n):
            self.asked.append(n)
            part, self.data = self.data[:n], self.data[n:]
            return part

    wire = Wire(tcp._HEAD.pack(1 + tcp._MAX_JSON, tcp.TAG_JSON) + b"\x00" * 10)
    with pytest.raises(ConnectionError, match="closed"):
        tcp.recv_frame(wire)
    assert max(wire.asked) <= 1 << 20


def _plan_traffic(plans, i):
    """Round i's sends and receives as sorted (sender, receiver, bytes)."""
    def nbytes(block):
        _, (lo, hi) = block
        return 4 * (hi - lo)
    sent = sorted((rank, peer, nbytes(block))
                  for rank, plan in enumerate(plans) for peer, block in plan[i][0])
    received = sorted((peer, rank, nbytes(block))
                      for rank, plan in enumerate(plans) for peer, block in plan[i][1])
    return sent, received


def test_wire_plans_match_sends_to_receives_and_schedules():
    for p in range(1, 17):
        for n in (0, 5, 37):
            plans = [tcp._ring_plan(r, p, n) for r in range(p)]
            sched = ring_schedule(p, n)
            assert all(len(plan) == sched.total_steps for plan in plans)
            for i, rnd in enumerate(sched.rounds):
                sent, received = _plan_traffic(plans, i)
                assert sent == received == sorted(map(tuple, rnd.transfers.tolist()))
            for k in (k for k in range(1, p + 1) if p % k == 0):
                plans = [tcp._hier_plan(r, p, k, n) for r in range(p)]
                assert len({len(plan) for plan in plans}) == 1
                for i in range(len(plans[0])):
                    sent, received = _plan_traffic(plans, i)
                    assert sent == received, (p, k, n, i)


def _drains(ops):
    """Whether every rank's ordered ``(is_send, peer)`` list completes when
    nothing is buffered: a send completes only together with the matching
    receive at the head of its peer's list."""
    heads = [0] * len(ops)
    moved = True
    while moved:
        moved = False
        for rank, mine in enumerate(ops):
            if heads[rank] < len(mine):
                is_send, peer = mine[heads[rank]]
                theirs = ops[peer]
                if is_send and heads[peer] < len(theirs) and theirs[heads[peer]] == (False, rank):
                    heads[rank] += 1
                    heads[peer] += 1
                    moved = True
    return all(head == len(mine) for head, mine in zip(heads, ops))


def test_every_plan_round_drains_without_socket_buffering():
    # a frame larger than the socket buffers blocks its sender until the
    # peer receives it; the workers' send order must drain every round
    # anyway, where always sending first would not
    rounds = stalled = 0
    for p in range(2, 17):
        for n in (0, 5, 37):
            tables = [[tcp._ring_plan(r, p, n) for r in range(p)]]
            tables += [[tcp._hier_plan(r, p, k, n) for r in range(p)]
                       for k in range(1, p + 1) if p % k == 0]
            for plans in tables:
                for i in range(len(plans[0])):
                    moves = [plan[i][:2] for plan in plans]
                    assert all(len(sends) <= 1 and len(recvs) <= 1
                               for sends, recvs in moves), (p, n, i)
                    ordered = [[(move is tcp.send_array, peer)
                                for move, peer, _ in tcp._in_order(r, sends, recvs)]
                               for r, (sends, recvs) in enumerate(moves)]
                    assert _drains(ordered), (p, n, i, moves)
                    send_first = [[(True, peer) for peer, _ in sends]
                                  + [(False, peer) for peer, _ in recvs]
                                  for sends, recvs in moves]
                    stalled += not _drains(send_first)
                    rounds += 1
    assert 0 < stalled < rounds


@pytest.mark.parametrize("p,k,ratio", [(4, 2, 1), (8, 2, Fraction(16, 9)),
                                       (8, 4, Fraction(13, 10))])
def test_hierarchical_plan_bytes_against_the_model(p, k, ratio):
    # the plan moves whole raw rows where the model moves chunks of
    # partial sums; bench/sweep.py counts the same ratios on the sockets
    n = 64
    plans = [tcp._hier_plan(r, p, k, n) for r in range(p)]
    wire = sum(nbytes for i in range(len(plans[0]))
               for _, _, nbytes in _plan_traffic(plans, i)[0])
    modeled = hierarchical_schedule(Topology(p, k), n).bytes_on_wire
    assert Fraction(wire, modeled) == ratio


@pytest.mark.parametrize("algorithm,p,k,n", [
    ("hierarchical", 4, 4, 33),  # one group: no master rounds
    ("hierarchical", 4, 1, 33),  # one-member groups: only master rounds
    ("ring", 3, 1, 10),          # uneven chunks 4, 3, 3
])
def test_edge_plans_over_tcp_match_in_memory(algorithm, p, k, n):
    bufs = rand_buffers(p, n, seed=p + k + n)
    with TcpCluster(p, timeout=20) as cluster:
        wire, _ = cluster.allreduce(bufs, algorithm=algorithm, k=k)
    if algorithm == "ring":
        mem, _ = ring_allreduce(bufs)
    else:
        mem, _ = hierarchical_allreduce(bufs, Topology(p, k))
    for r in range(p):
        assert np.array_equal(wire[r], mem[r]), f"rank {r} diverged"


@pytest.mark.parametrize("p", [2, 4])
def test_ring_over_tcp_matches_in_memory(p):
    bufs = rand_buffers(p, 257, seed=p)
    with TcpCluster(p, timeout=20) as cluster:
        wire, sched = cluster.allreduce(bufs, algorithm="ring")
    mem, mem_sched = ring_allreduce(bufs)
    assert sched.total_steps == mem_sched.total_steps == 2 * (p - 1)
    for r in range(p):
        assert np.array_equal(wire[r], mem[r]), f"rank {r} diverged"


def test_hierarchical_over_tcp_matches_in_memory():
    topo = Topology(4, 2)
    bufs = rand_buffers(4, 64, seed=9)
    with TcpCluster(4, timeout=20) as cluster:
        wire, _ = cluster.allreduce(bufs, algorithm="hierarchical", k=topo.k)
    mem, _ = hierarchical_allreduce(bufs, topo)
    for r in range(4):
        assert np.array_equal(wire[r], mem[r])


def test_mean_op_over_tcp():
    bufs = rand_buffers(2, 33, seed=5)
    with TcpCluster(2, timeout=20) as cluster:
        wire, _ = cluster.allreduce(bufs, op="mean")
    mem, _ = ring_allreduce(bufs, op="mean")
    assert np.array_equal(wire[0], mem[0])


def test_payload_larger_than_socket_buffers(monkeypatch):
    # 4 MiB per rank through 64 KiB socket buffers (pinned, since loopback
    # autotuning can buffer tens of MiB): a round in which every rank sent
    # before it received would deadlock, so this needs the workers' order
    nodelay = tcp._nodelay

    def small_buffers(sock):
        for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            sock.setsockopt(socket.SOL_SOCKET, opt, 1 << 16)
        return nodelay(sock)

    monkeypatch.setattr(tcp, "_nodelay", small_buffers)
    bufs = rand_buffers(4, 1 << 20, seed=11)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # forked workers switch threads often too
    try:
        with TcpCluster(4, timeout=20) as cluster:
            wire, _ = cluster.allreduce(bufs, algorithm="ring")
            mem, _ = ring_allreduce(bufs)
            assert all(np.array_equal(w, m) for w, m in zip(wire, mem))
            wire, _ = cluster.allreduce(bufs, algorithm="hierarchical", k=2)
            mem, _ = hierarchical_allreduce(bufs, Topology(4, 2))
            assert all(np.array_equal(w, m) for w, m in zip(wire, mem))
    finally:
        sys.setswitchinterval(interval)


def test_persistent_cluster_runs_multiple_collectives():
    with TcpCluster(4, timeout=20) as cluster:
        b1 = rand_buffers(4, 40, seed=1)
        r1, _ = cluster.allreduce(b1, algorithm="ring")
        m1, _ = ring_allreduce(b1)
        assert all(np.array_equal(a, b) for a, b in zip(r1, m1))

        b2 = rand_buffers(4, 70, seed=2)
        r2, _ = cluster.allreduce(b2, algorithm="hierarchical", k=2)
        m2, _ = hierarchical_allreduce(b2, Topology(4, 2))
        assert all(np.array_equal(a, b) for a, b in zip(r2, m2))


def test_cluster_shares_one_frozen_schedule_per_shape():
    bufs = rand_buffers(2, 9, seed=4)
    with TcpCluster(2, timeout=20) as cluster:
        for algorithm in ("ring", "hierarchical"):
            _, sched = cluster.allreduce(bufs, algorithm=algorithm, k=2)
            assert cluster.allreduce(bufs, algorithm=algorithm, k=2)[1] is sched
            assert sched == (ring_schedule(2, 9, k=2) if algorithm == "ring"
                             else hierarchical_schedule(Topology(2, 2), 9))
            assert isinstance(sched.rounds, tuple)
            with pytest.raises(dataclasses.FrozenInstanceError):
                sched.k = 1
            with pytest.raises(ValueError, match="read-only"):
                sched.rounds[0].transfers[0, 2] = 0
            # an invalid group size is rejected before anything is sent
            with pytest.raises(ValueError, match="group size"):
                cluster.allreduce(bufs, algorithm=algorithm, k=3)
        with pytest.raises(ValueError, match="unknown algorithm"):
            cluster.allreduce(bufs, algorithm="tree")
        wire, _ = cluster.allreduce(bufs)
        assert np.array_equal(wire[0], ring_allreduce(bufs)[0][0])


def bucket_reference(bufs, buckets, k, op):
    """Per-bucket in-memory results, each rank's row joined across the
    buckets, and each bucket's schedule."""
    topo = Topology(len(bufs), k)
    rows, scheds, lo = [], [], 0
    for n, algorithm in buckets:
        allreduce = hierarchical_allreduce if algorithm == "hierarchical" else ring_allreduce
        results, sched = allreduce([b[lo:lo + n] for b in bufs], topo, op=op)
        rows.append(results)
        scheds.append(sched)
        lo += n
    return [np.concatenate([r[rank] for r in rows]) for rank in range(len(bufs))], scheds


@pytest.mark.parametrize("p,k,buckets", [
    (4, 2, [(37, "ring"), (21, "hierarchical"), (1, "ring"), (9, "hierarchical")]),
    (8, 4, [(1, "hierarchical"), (45, "ring"), (30, "hierarchical"), (7, "ring")]),
], ids=["p4-k2", "p8-k4"])
def test_bucket_list_matches_each_bucket_in_memory(p, k, buckets):
    # one collective per call, bitwise the per-bucket in-memory results,
    # with 1-element buckets and chunks that do not split evenly
    n = sum(size for size, _ in buckets)
    bufs = rand_buffers(p, n, seed=p * k)
    with TcpCluster(p, timeout=20) as cluster:
        for op in ("sum", "mean"):
            mem, mem_scheds = bucket_reference(bufs, buckets, k, op)
            for rank in (None, 0, p - 1):
                wire, scheds = cluster.allreduce(bufs, algorithm=buckets, k=k, op=op,
                                                 result_rank=rank)
                want = mem if rank is None else [mem[rank]]
                assert len(wire) == len(want)
                for got, ref in zip(wire, want):
                    assert got.view(np.uint32).tolist() == ref.view(np.uint32).tolist()
                assert len(scheds) == len(buckets)
                assert all(a is b for a, b in zip(scheds, mem_scheds))


def test_loopback_dials_never_call_the_resolver(monkeypatch):
    # the forked workers inherit the patch, so a worker that dialled the
    # coordinator or a peer through getaddrinfo would exit before its hello
    def resolver(*args, **kwargs):
        raise socket.gaierror(f"getaddrinfo{args} called")

    monkeypatch.setattr(socket, "getaddrinfo", resolver)
    buckets = [(30, "ring"), (10, "hierarchical")]
    bufs = rand_buffers(4, 40, seed=27)
    with TcpCluster(4, timeout=5) as cluster:
        wire, _ = cluster.allreduce(bufs, algorithm=buckets, k=2)
    mem, _ = bucket_reference(bufs, buckets, 2, "sum")
    for got, ref in zip(wire, mem):
        assert got.view(np.uint32).tolist() == ref.view(np.uint32).tolist()


# Run in a fresh interpreter: a module that this one has imported already
# would go unseen.  The fork target looks run_worker up at call time, so
# each rank lists what it imported while it ran.
_LIST_WORKER_IMPORTS = """
import json, sys
from pathlib import Path
import numpy as np
from gradsync import tcp

out, run_worker = Path(sys.argv[1]), tcp.run_worker

def listing(coord_host, coord_port, rank, *args):
    at_entry = set(sys.modules)
    code = run_worker(coord_host, coord_port, rank, *args)
    imported = sorted(set(sys.modules) - at_entry)
    (out / f"rank{rank}.json").write_text(json.dumps(imported))
    return code

tcp.run_worker = listing
bufs = [np.arange(24, dtype=np.float32) * rank for rank in range(4)]
with tcp.TcpCluster(4, timeout=20) as cluster:
    for algorithm in ("ring", "hierarchical"):
        cluster.allreduce(bufs, algorithm=algorithm, k=2)
"""


def test_a_forked_worker_imports_nothing(tmp_path):
    # a module imported after fork costs every worker of every cluster its
    # CPU time and copy-on-write faults at each start-up
    subprocess.run([sys.executable, "-c", _LIST_WORKER_IMPORTS, str(tmp_path)],
                   check=True, timeout=60)
    listed = {path.name: json.loads(path.read_text()) for path in tmp_path.iterdir()}
    assert listed == {f"rank{rank}.json": [] for rank in range(4)}


def test_one_name_is_the_one_bucket_case():
    # a single algorithm name runs the whole vector as one bucket, and
    # returns the shared schedule itself rather than a list of one
    bufs = rand_buffers(4, 23, seed=6)
    with TcpCluster(4, timeout=20) as cluster:
        for algorithm in ("ring", "hierarchical"):
            wire, sched = cluster.allreduce(bufs, algorithm=algorithm, k=2, op="mean")
            listed, scheds = cluster.allreduce(bufs, algorithm=[(23, algorithm)], k=2,
                                               op="mean")
            mem, mem_sched = bucket_reference(bufs, [(23, algorithm)], 2, "mean")
            assert sched is scheds[0] is mem_sched[0]
            for got, also, ref in zip(wire, listed, mem):
                assert np.array_equal(got, ref) and np.array_equal(also, ref)


def test_plan_record_is_sent_only_when_the_plan_changes(monkeypatch):
    # three plans that differ in their buckets, k and result rank, then the
    # first again; a repeated call sends the inputs alone
    p = 4
    first = (58, [(37, "ring"), (21, "hierarchical")], 2, None)
    calls = [first, first,
             (15, [(10, "hierarchical"), (5, "ring")], 2, 0),
             (58, [(37, "ring"), (21, "hierarchical")], 4, 3),
             first, first]
    sent = []
    send_frame = tcp.send_frame

    def counted(sock, tag, payload):  # the coordinator's frames only
        sent.append(tag)
        return send_frame(sock, tag, payload)

    with TcpCluster(p, timeout=20) as cluster:
        monkeypatch.setattr(tcp, "send_frame", counted)
        for i, (n, buckets, k, rank) in enumerate(calls):
            sent.clear()
            bufs = rand_buffers(p, n, seed=i)
            wire, _ = cluster.allreduce(bufs, algorithm=buckets, k=k, op="mean",
                                        result_rank=rank)
            mem, _ = bucket_reference(bufs, buckets, k, "mean")
            want = mem if rank is None else [mem[rank]]
            assert len(wire) == len(want)
            for got, ref in zip(wire, want):
                assert got.view(np.uint32).tolist() == ref.view(np.uint32).tolist()
            changed = i == 0 or calls[i] != calls[i - 1]
            assert sent.count(tcp.TAG_JSON) == (p if changed else 0), i
            assert sent.count(tcp.TAG_F32) == p


# calls on four 12-element buffers with k = 2 that the plan rule rejects,
# and what its reason says
BAD_CALLS = [
    pytest.param(dict(algorithm=[(6, "ring"), (6, "tree")]), "unknown algorithm", id="tree"),
    pytest.param(dict(algorithm=[(13, "ring"), (-1, "ring")]), "non-negative", id="negative"),
    pytest.param(dict(algorithm=[(True, "ring"), (11, "ring")]), "non-negative", id="bool"),
    pytest.param(dict(algorithm=[(12.0, "ring")]), "non-negative", id="float"),
    pytest.param(dict(algorithm=[]), "non-negative", id="empty"),
    pytest.param(dict(algorithm="ring", op="max"), "unknown reduction op", id="op-max"),
    # Topology takes True as 1, but every worker would reject the plan
    pytest.param(dict(algorithm="hierarchical", k=True), "group size",
                 id="k-bool-hierarchical"),
    pytest.param(dict(algorithm="ring", k=True), "group size", id="k-bool-ring"),
    pytest.param(dict(algorithm="ring", k=2.0), "group size", id="k-float"),
]


@pytest.mark.parametrize("call,match", BAD_CALLS)
def test_plan_rule_gives_every_bad_call_its_reason(call, match):
    # the plan record that TcpCluster.allreduce builds for the call
    call = {"k": 2, "op": "sum", "result_rank": None, **call}
    algorithm = call["algorithm"]
    buckets = [(12, algorithm)] if isinstance(algorithm, str) else list(algorithm)
    plan = {"buckets": buckets, "p": 4, "k": call["k"], "op": call["op"],
            "result": call["result_rank"]}
    assert re.search(match, tcp._plan_error(plan, 4))


@pytest.mark.parametrize("call,match", [
    # sizes that miss the buffers: the one check the coordinator keeps
    pytest.param(dict(algorithm=[(10, "ring"), (5, "hierarchical")]), "sum to 15",
                 id="over"),
    pytest.param(dict(algorithm=[(10, "ring"), (3, "hierarchical")]), "sum to 13",
                 id="under"),
] + BAD_CALLS)
def test_bad_call_is_rejected_before_anything_is_sent(monkeypatch, call, match):
    bufs = rand_buffers(4, 12, seed=8)
    with TcpCluster(4, timeout=20) as cluster:
        def no_wire(*args):
            raise AssertionError("a rejected call sent a frame")

        with monkeypatch.context() as m:
            m.setattr(tcp, "send_frame", no_wire)
            with pytest.raises(ValueError, match=match):
                cluster.allreduce(bufs, **{"k": 2, **call})
        # nothing went out, so the cluster still runs
        wire, _ = cluster.allreduce(bufs, algorithm=[(7, "ring"), (5, "hierarchical")],
                                    k=2)
        mem, _ = bucket_reference(bufs, [(7, "ring"), (5, "hierarchical")], 2, "sum")
        assert all(np.array_equal(w, r) for w, r in zip(wire, mem))


@pytest.mark.parametrize("p,k,buckets,die", [
    # rank 1 dies at the second round of the second ring: rank 0 receives
    # from it in that round
    (3, 1, [(30, "ring"), (30, "ring")], {1: 5}),
    # rank 0 dies at the last hierarchical round, where rank 1 waits on it
    (4, 2, [(40, "ring"), (20, "hierarchical")], {0: 8}),
], ids=["ring-ring", "ring-hierarchical"])
def test_abort_names_the_round_in_the_whole_step_plan(p, k, buckets, die):
    # the step is a round of the second bucket's wire plan, counted on
    # from the first bucket's rounds
    (_, step), = die.items()
    (n1, _), (n2, second) = buckets
    first = len(tcp._ring_plan(0, p, n1))
    rounds = tcp._ring_plan(0, p, n2) if second == "ring" else tcp._hier_plan(0, p, k, n2)
    assert first < step < first + len(rounds)
    bufs = rand_buffers(p, 60, seed=3)
    cluster = TcpCluster(p, timeout=10, die_at_step=die)
    procs = list(cluster._procs)
    try:
        with pytest.raises(CollectiveAbort) as exc_info:
            cluster.allreduce(bufs, algorithm=buckets, k=k)
        assert exc_info.value.step == step
        with pytest.raises(CollectiveAbort, match="dead") as again:
            cluster.allreduce(bufs, algorithm=buckets, k=k)
        assert again.value.step == step
    finally:
        cluster.close()
    assert len(procs) == p and not any(proc.is_alive() for proc in procs)


def test_single_worker_skips_sockets_entirely():
    buf = np.linspace(-1, 1, 17, dtype=np.float32)
    with TcpCluster(1) as cluster:
        assert cluster._procs == [] and cluster._socks == []
        out, sched = cluster.allreduce([buf])
    assert np.array_equal(out[0], buf)
    assert sched.total_steps == 0


def test_zero_length_vectors():
    bufs = [np.empty(0, dtype=np.float32) for _ in range(2)]
    with TcpCluster(2, timeout=20) as cluster:
        wire, _ = cluster.allreduce(bufs)
    assert all(w.size == 0 for w in wire)


def test_worker_death_raises_abort_with_step():
    bufs = rand_buffers(3, 50, seed=3)
    with pytest.raises(CollectiveAbort) as exc_info:
        with TcpCluster(3, timeout=10, die_at_step={1: 1}) as cluster:
            cluster.allreduce(bufs, algorithm="ring")
    assert "step" in str(exc_info.value)
    assert exc_info.value.step is not None and exc_info.value.step >= 1


def test_aborted_cluster_stays_dead(monkeypatch):
    bufs = rand_buffers(3, 50, seed=3)
    cluster = TcpCluster(3, timeout=10, die_at_step={1: 1})
    procs = list(cluster._procs)
    try:
        with pytest.raises(CollectiveAbort) as first:
            cluster.allreduce(bufs)

        def no_wire(*args):
            raise AssertionError("a dead cluster sent a frame")

        with monkeypatch.context() as m:
            m.setattr(tcp, "send_frame", no_wire)
            with pytest.raises(CollectiveAbort, match="dead") as again:
                cluster.allreduce(bufs)
        assert again.value.step == first.value.step
    finally:
        cluster.close()
    assert len(procs) == 3 and not any(proc.is_alive() for proc in procs)


@pytest.mark.parametrize("fail_at", [1, 2, 5, 8])
def test_a_failed_send_kills_the_cluster(monkeypatch, fail_at):
    # the coordinator's fail_at-th frame of a call that sends a new plan
    # (plan, input, plan, input, ... in rank order) fails to send
    bufs = rand_buffers(4, 40, seed=5)
    cluster = TcpCluster(4, timeout=10)
    procs = list(cluster._procs)
    try:
        cluster.allreduce(bufs)  # every worker now holds the ring plan
        sent, send_frame = [], tcp.send_frame

        def failing(sock, tag, payload):
            sent.append(tag)
            if len(sent) == fail_at:
                raise OSError("injected send failure")
            return send_frame(sock, tag, payload)

        with monkeypatch.context() as m:
            m.setattr(tcp, "send_frame", failing)
            with pytest.raises(CollectiveAbort, match="injected"):
                cluster.allreduce(bufs, algorithm="hierarchical", k=2)
            with pytest.raises(CollectiveAbort, match="dead"):
                cluster.allreduce(bufs)
        assert len(sent) == fail_at  # the dead cluster sent nothing more
    finally:
        cluster.close()
    assert len(procs) == 4 and not any(proc.is_alive() for proc in procs)


def test_one_rank_result_comes_back_alone(monkeypatch):
    # the coordinator reads one result frame per collective, not p, and
    # it is the asked rank's result, bitwise the in-memory one; every
    # other worker replies with a control record
    received, records = [], []
    recv_frame = tcp.recv_frame

    def counted(sock, out=None):
        status = recv_frame(sock, out)
        if status is None:
            received.append(out.size)
        else:
            records.append(status)
        return status

    monkeypatch.setattr(tcp, "recv_frame", counted)
    bufs = rand_buffers(4, 37, seed=12)
    with TcpCluster(4, timeout=20) as cluster:
        for algorithm, k, rank in (("ring", 1, 0), ("hierarchical", 2, 3),
                                   ("ring", 2, 2)):
            received.clear()
            records.clear()  # the rendezvous hellos pass through the reader too
            wire, _ = cluster.allreduce(bufs, algorithm=algorithm, k=k, op="mean",
                                        result_rank=rank)
            mem, _ = ring_allreduce(bufs, op="mean")
            assert len(wire) == 1 and np.array_equal(wire[0], mem[rank])
            assert received == [37]
            assert sorted(r["done"] for r in records) == [r for r in range(4) if r != rank]
        received.clear()
        records.clear()
        wire, _ = cluster.allreduce(bufs)  # every rank, as before
        assert len(wire) == 4 and received == [37] * 4 and not records
        for bad in (4, -1, True, 1.0):
            with pytest.raises(ValueError, match="result_rank"):
                cluster.allreduce(bufs, result_rank=bad)
        # the rejections sent nothing, so the cluster still runs
        assert np.array_equal(cluster.allreduce(bufs, result_rank=1)[0][0],
                              ring_allreduce(bufs)[0][1])


def test_one_rank_result_still_detects_a_worker_death():
    bufs = rand_buffers(3, 50, seed=3)
    with pytest.raises(CollectiveAbort) as exc_info:
        with TcpCluster(3, timeout=10, die_at_step={2: 1}) as cluster:
            cluster.allreduce(bufs, algorithm="ring", result_rank=0)
    assert exc_info.value.step is not None and exc_info.value.step >= 1


def test_buffer_validation():
    with pytest.raises(TypeError, match="float32"):
        with TcpCluster(2, timeout=20) as cluster:
            cluster.allreduce([np.zeros(4), np.zeros(4)])
    with TcpCluster(2, timeout=20) as cluster:
        with pytest.raises(ValueError, match="share a length"):
            cluster.allreduce([np.zeros(3, np.float32), np.zeros(4, np.float32)])
        with pytest.raises(ValueError, match="workers"):
            cluster.allreduce([np.zeros(3, np.float32)])
        # cluster still healthy after the rejections
        good = rand_buffers(2, 8, seed=0)
        wire, _ = cluster.allreduce(good)
        mem, _ = ring_allreduce(good)
        assert np.array_equal(wire[0], mem[0])


def test_a_numpy_worker_count_runs():
    bufs = rand_buffers(2, 12, seed=29)
    with TcpCluster(np.int64(2), timeout=20) as cluster:
        assert type(cluster.p) is int
        wire, _ = cluster.allreduce(bufs)
    want = fold_ascending(bufs, "sum").view(np.uint32).tolist()
    assert [got.view(np.uint32).tolist() for got in wire] == [want, want]


@pytest.mark.parametrize("p,timeout,match", [
    (True, 20, "integer"),
    (2.0, 20, "integer"),
    (0, 20, "at least one"),
    (2, 0, "timeout"),
    (2, -1.0, "timeout"),
    (2, float("nan"), "timeout"),
    (2, float("inf"), "timeout"),
])
def test_a_bad_worker_count_or_timeout_is_rejected_before_any_fork(p, timeout, match):
    before = mp.active_children()
    with pytest.raises(ValueError, match=match):
        TcpCluster(p, timeout=timeout)
    assert mp.active_children() == before


def test_a_run_builds_each_worker_plan_once(tmp_path, monkeypatch, bench_workloads):
    # counted in the forked workers through shared memory: over a run of
    # train-tcp, each worker builds its ring and its hierarchical table
    # once, not once per step
    counts = mp.get_context("fork").Array("i", 2)
    for slot, name in enumerate(("_ring_plan", "_hier_plan")):
        def counted(*args, build=getattr(tcp, name), slot=slot):
            with counts.get_lock():
                counts[slot] += 1
            return build(*args)

        monkeypatch.setattr(tcp, name, counted)
    cfg = ExperimentConfig(seed=1, **bench_workloads["train-tcp"]["config"])
    assert [a for *_, a in experiment._Run(cfg).buckets] == ["ring", "hierarchical"]
    assert cfg.steps == 6 and cfg.transport == "tcp"
    run_experiment(cfg, out_root=tmp_path)
    assert list(counts) == [cfg.workers, cfg.workers]


def _claim(port, rank):
    s = socket.create_connection((tcp.HOST, port), timeout=5)
    s.settimeout(5)
    tcp.send_json(s, {"hello": rank, "listen_port": 1})
    return s


def _free_port():
    probe = socket.socket()
    probe.bind((tcp.HOST, 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _boot_unspawned(port, errors):
    try:
        TcpCluster(2, spawn=False, port=port, timeout=5)
    except CollectiveAbort as exc:
        errors.append(exc)


def _connect_retry(port, rank, tries=50):
    for _ in range(tries):
        try:
            return _claim(port, rank)
        except OSError:
            threading.Event().wait(0.02)
    raise AssertionError("coordinator never came up")


def test_rendezvous_rejects_duplicate_rank():
    port = _free_port()
    errors = []
    t = threading.Thread(target=_boot_unspawned, args=(port, errors))
    t.start()
    c1 = _connect_retry(port, 0)
    c2 = _claim(port, 0)
    reply2 = tcp.recv_frame(c2)
    assert "error" in reply2 and "duplicate" in reply2["error"]
    reply1 = tcp.recv_frame(c1)
    assert "error" in reply1
    t.join(timeout=5)
    assert errors and errors[0].args[0].startswith("rendezvous")
    c1.close()
    c2.close()


def test_rendezvous_rejects_out_of_range_rank():
    port = _free_port()
    errors = []
    t = threading.Thread(target=_boot_unspawned, args=(port, errors))
    t.start()
    c = _connect_retry(port, 7)
    reply = tcp.recv_frame(c)
    assert "error" in reply
    t.join(timeout=5)
    assert errors
    c.close()


@pytest.mark.parametrize("hello", [b"[1]", b'{"hello": true, "listen_port": 1}'],
                         ids=["list", "bool-rank"])
def test_rendezvous_rejects_a_malformed_hello(hello):
    port = _free_port()
    errors = []
    t = threading.Thread(target=_boot_unspawned, args=(port, errors))
    t.start()
    c1 = _connect_retry(port, 0)
    c2 = socket.create_connection((tcp.HOST, port), timeout=5)
    c2.settimeout(5)
    try:
        tcp.send_frame(c2, tcp.TAG_JSON, hello)
        assert "error" in tcp.recv_frame(c2) and "error" in tcp.recv_frame(c1)
        t.join(timeout=5)
        assert not t.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], CollectiveAbort)
        assert c1.recv(1) == b"" and c2.recv(1) == b""
    finally:
        c1.close()
        c2.close()


def test_rejected_rendezvous_closes_every_socket():
    port = _free_port()
    errors = []
    t = threading.Thread(target=_boot_unspawned, args=(port, errors))
    t.start()
    c1 = _connect_retry(port, 0)
    c2 = _claim(port, 0)
    try:
        assert "error" in tcp.recv_frame(c2) and "error" in tcp.recv_frame(c1)
        t.join(timeout=5)
        assert errors
        # the coordinator's ends of both claims and its listener are closed
        assert c1.recv(1) == b"" and c2.recv(1) == b""
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((tcp.HOST, port), timeout=5).close()
    finally:
        c1.close()
        c2.close()


def _nodelay_on(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def test_every_socket_sets_nodelay(monkeypatch):
    # workers hosted in threads, so their mesh sockets are visible here
    mesh = {}
    collective = tcp._worker_collective

    def spy(rank, standing, op, peers, *args):
        mesh[rank] = {peer: _nodelay_on(s) for peer, s in peers.items()}
        return collective(rank, standing, op, peers, *args)

    monkeypatch.setattr(tcp, "_worker_collective", spy)
    port = _free_port()
    box = {}
    boot = threading.Thread(target=lambda: box.setdefault(
        "cluster", TcpCluster(2, spawn=False, port=port, timeout=10)))
    boot.start()
    for _ in range(50):  # wait for the listener with a dial it skips
        try:
            socket.create_connection((tcp.HOST, port), timeout=5).close()
            break
        except OSError:
            threading.Event().wait(0.02)
    codes = []
    workers = [threading.Thread(target=lambda r=r: codes.append(
        tcp.run_worker(tcp.HOST, port, r, timeout=10))) for r in range(2)]
    for w in workers:
        w.start()
    boot.join(timeout=10)
    assert not boot.is_alive()
    cluster = box["cluster"]
    try:
        assert all(_nodelay_on(sock) for sock in cluster._socks)
        bufs = rand_buffers(2, 16, seed=4)
        wire, _ = cluster.allreduce(bufs)
        mem, _ = ring_allreduce(bufs)
        assert all(np.array_equal(w, m) for w, m in zip(wire, mem))
    finally:
        cluster.close()
    for w in workers:
        w.join(timeout=10)
        assert not w.is_alive()
    assert codes == [0, 0]
    # rank 1 dialled rank 0, which accepted: both ends of the one pair
    assert mesh == {0: {1: True}, 1: {0: True}}
