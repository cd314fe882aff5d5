"""Loopback transport tests: framing, rendezvous, and wire-vs-memory equality."""

import socket
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from gradsync import tcp
from gradsync.collectives import (
    Topology,
    hierarchical_allreduce,
    hierarchical_schedule,
    ring_allreduce,
    ring_schedule,
)
from gradsync.tcp import CollectiveAbort, TcpCluster, run_over_tcp


def rand_buffers(p, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n).astype(np.float32) for _ in range(p)]


def test_frame_roundtrip_f32_u16_json():
    a, b = socket.socketpair()
    try:
        vec = np.arange(5, dtype=np.float32) * 0.25
        tcp.send_array(a, vec)
        got = tcp.recv_array(b)
        assert got.dtype == np.float32
        assert np.array_equal(got, vec)

        half = np.array([0x3C00, 0x7BFF, 0x8000], dtype=np.uint16)
        tcp.send_array(a, half)
        assert np.array_equal(tcp.recv_array(b), half)

        tcp.send_json(a, {"hello": 3, "listen_port": 1234})
        assert tcp.recv_json(b) == {"hello": 3, "listen_port": 1234}
    finally:
        a.close()
        b.close()


def test_frame_rejects_wrong_kind():
    a, b = socket.socketpair()
    try:
        tcp.send_json(a, {"x": 1})
        with pytest.raises(ConnectionError):
            tcp.recv_array(b)
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


def test_empty_array_frame():
    a, b = socket.socketpair()
    try:
        tcp.send_array(a, np.empty(0, dtype=np.float32))
        got = tcp.recv_array(b)
        assert got.size == 0 and got.dtype == np.float32
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
    wire, _ = run_over_tcp(bufs, Topology(p, k), algorithm=algorithm, timeout=20)
    if algorithm == "ring":
        mem, _ = ring_allreduce(bufs)
    else:
        mem, _ = hierarchical_allreduce(bufs, Topology(p, k))
    for r in range(p):
        assert np.array_equal(wire[r], mem[r]), f"rank {r} diverged"


@pytest.mark.parametrize("p", [2, 4])
def test_ring_over_tcp_matches_in_memory(p):
    bufs = rand_buffers(p, 257, seed=p)
    wire, sched = run_over_tcp(bufs, algorithm="ring", timeout=20)
    mem, mem_sched = ring_allreduce(bufs)
    assert sched.total_steps == mem_sched.total_steps == 2 * (p - 1)
    for r in range(p):
        assert np.array_equal(wire[r], mem[r]), f"rank {r} diverged"


def test_hierarchical_over_tcp_matches_in_memory():
    topo = Topology(4, 2)
    bufs = rand_buffers(4, 64, seed=9)
    wire, _ = run_over_tcp(bufs, topo, algorithm="hierarchical", timeout=20)
    mem, _ = hierarchical_allreduce(bufs, topo)
    for r in range(4):
        assert np.array_equal(wire[r], mem[r])


def test_mean_op_over_tcp():
    bufs = rand_buffers(2, 33, seed=5)
    wire, _ = run_over_tcp(bufs, op="mean", timeout=20)
    mem, _ = ring_allreduce(bufs, op="mean")
    assert np.array_equal(wire[0], mem[0])


def test_payload_larger_than_socket_buffers(monkeypatch):
    # 4 MiB per rank through 64 KiB socket buffers (pinned, since loopback
    # autotuning can buffer tens of MiB): a round that sends before it
    # receives on one thread would deadlock with its peer
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


def test_single_worker_skips_sockets_entirely():
    buf = np.linspace(-1, 1, 17, dtype=np.float32)
    with TcpCluster(1) as cluster:
        assert cluster._procs == [] and cluster._members == []
        out, sched = cluster.allreduce([buf])
    assert np.array_equal(out[0], buf)
    assert sched.total_steps == 0


def test_zero_length_vectors():
    bufs = [np.empty(0, dtype=np.float32) for _ in range(2)]
    wire, _ = run_over_tcp(bufs, timeout=20)
    assert all(w.size == 0 for w in wire)


def test_worker_death_raises_abort_with_step():
    bufs = rand_buffers(3, 50, seed=3)
    with pytest.raises(CollectiveAbort) as exc_info:
        run_over_tcp(bufs, algorithm="ring", timeout=10, die_at_step={1: 1})
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


def test_buffer_validation():
    with pytest.raises(TypeError, match="float32"):
        run_over_tcp([np.zeros(4), np.zeros(4)])
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
    reply2 = tcp.recv_json(c2)
    assert "error" in reply2 and "duplicate" in reply2["error"]
    reply1 = tcp.recv_json(c1)
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
    reply = tcp.recv_json(c)
    assert "error" in reply
    t.join(timeout=5)
    assert errors
    c.close()


def test_rejected_rendezvous_closes_every_socket():
    port = _free_port()
    errors = []
    t = threading.Thread(target=_boot_unspawned, args=(port, errors))
    t.start()
    c1 = _connect_retry(port, 0)
    c2 = _claim(port, 0)
    try:
        assert "error" in tcp.recv_json(c2) and "error" in tcp.recv_json(c1)
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

    def spy(rank, plan_cfg, inp, peers, *args):
        mesh[rank] = {peer: _nodelay_on(s) for peer, s in peers.items()}
        return collective(rank, plan_cfg, inp, peers, *args)

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
        assert all(_nodelay_on(m.sock) for m in cluster._members)
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
