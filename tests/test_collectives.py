"""Schedule accounting and deterministic all-reduce results."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsync import collectives
from gradsync import halfprec as hp
from gradsync.collectives import (
    ReduceSchedule,
    Round,
    Topology,
    choose_algorithm,
    chunk_sizes,
    hierarchical_allreduce,
    hierarchical_schedule,
    ring_allreduce,
    ring_schedule,
)
from gradsync.netsim import LinkModel, crossover_sweep


def seq_sum_oracle(buffers):
    """Sequential left-to-right rank-order sum, independent of the module."""
    acc = np.array(buffers[0], dtype=np.float32, copy=True)
    for b in buffers[1:]:
        acc = acc + np.asarray(b, dtype=np.float32)
    return acc


# --- topology ---------------------------------------------------------------


def test_topology_groups_and_masters():
    t = Topology(8, 2)
    assert (t.p, t.k, t.group_count) == (8, 2, 4)
    # rank r is in group r // k, whose master is its lowest rank
    masters = [r for r in range(t.p) if r % t.k == 0]
    assert masters == [0, 2, 4, 6] and len(masters) == t.group_count


@pytest.mark.parametrize("p,k", [(0, 1), (4, 3), (4, 0), (2, 4)])
def test_topology_rejects_bad_shapes(p, k):
    with pytest.raises(ValueError):
        Topology(p, k)


@pytest.mark.parametrize("p,k", [(4, True), (4, 2.0), (4.0, 2), (True, 1),
                                 (4, np.float64(2))])
def test_topology_rejects_bool_and_float_sizes(p, k):
    # True == 1 and 2.0 == 2 would pass the range checks
    with pytest.raises(ValueError, match="must be an integer"):
        Topology(p, k)


def test_topology_takes_numpy_integers():
    assert Topology(np.int64(4), np.int32(2)).group_count == 2


def test_chunk_sizes_contiguous_cover():
    assert chunk_sizes(7, 4).tolist() == [2, 2, 2, 1]
    assert chunk_sizes(3, 8).tolist() == [1, 1, 1, 0, 0, 0, 0, 0]
    assert chunk_sizes(12, 3).tolist() == [4, 4, 4]


# --- schedules --------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 4, 16, 256])
def test_ring_step_count(p):
    assert ring_schedule(p, 64).total_steps == 2 * (p - 1)


@pytest.mark.parametrize("p,k", [(4, 2), (16, 4), (16, 16), (64, 8), (1024, 16)])
def test_hierarchical_step_count(p, k):
    s = hierarchical_schedule(Topology(p, k), 64)
    assert s.total_steps == 4 * (k - 1) + 2 * (p // k - 1)


def test_flagship_step_counts():
    assert ring_schedule(1024, 25_087_744).total_steps == 2046
    assert hierarchical_schedule(Topology(1024, 16), 25_087_744).total_steps == 186


def test_ring_p4_m8_schedule_bytes():
    # 8 floats over 4 workers: chunks of 2 floats, so every transfer in
    # all 6 rounds is 8 bytes.
    s = ring_schedule(4, 8)
    assert s.total_steps == 6
    for r in s.rounds:
        assert len(r.transfers) == 4
        assert np.all(r.transfers[:, 2] == 8)
    assert s.bytes_on_wire == 6 * 4 * 8


def test_ring_bytes_on_wire_total():
    # every ring round moves the whole vector once across the workers
    p, n = 8, 1000
    s = ring_schedule(p, n)
    for r in s.rounds:
        assert r.total_bytes == n * 4
    assert s.bytes_on_wire == 2 * (p - 1) * n * 4


def test_hierarchical_phase_structure():
    s = hierarchical_schedule(Topology(8, 4), 64)
    phases = list(dict.fromkeys(r.phase for r in s.rounds))  # in first-seen order
    assert phases == [
        "intra_reduce_scatter", "intra_gather",
        "master_reduce_scatter", "master_allgather",
        "intra_scatter", "intra_allgather",
    ]
    counts = {ph: sum(1 for r in s.rounds if r.phase == ph) for ph in phases}
    assert counts == {
        "intra_reduce_scatter": 3, "intra_gather": 3,
        "master_reduce_scatter": 1, "master_allgather": 1,
        "intra_scatter": 3, "intra_allgather": 3,
    }


def test_hierarchical_k_equals_p_has_no_master_ring():
    s = hierarchical_schedule(Topology(16, 16), 64)
    assert s.total_steps == 60
    assert not any(r.phase.startswith("master") for r in s.rounds)


def test_hierarchical_k1_is_pure_master_ring():
    s = hierarchical_schedule(Topology(8, 1), 64)
    assert s.total_steps == 14
    assert all(r.phase.startswith("master") for r in s.rounds)


def test_hierarchical_intra_transfers_stay_in_group():
    k = 4
    s = hierarchical_schedule(Topology(12, k), 48)
    for r in s.rounds:
        for snd, rcv, _ in r.transfers.tolist():
            if r.phase.startswith("intra"):
                assert snd // k == rcv // k
            else:  # only group masters, the lowest rank of each group
                assert snd % k == 0 and rcv % k == 0


def test_p1_schedules_are_empty():
    assert ring_schedule(1, 64).total_steps == 0
    assert hierarchical_schedule(Topology(1, 1), 64).total_steps == 0


def test_ring_p2_golden_schedule():
    s = ring_schedule(2, 4)
    assert [r.phase for r in s.rounds] == ["reduce_scatter", "allgather"]
    assert s.rounds[0].transfers.tolist() == [[0, 1, 8], [1, 0, 8]]
    assert s.rounds[1].transfers.tolist() == [[0, 1, 8], [1, 0, 8]]


# --- frozen, shared schedules -------------------------------------------------

SHAPES = [(2, 1), (4, 2), (6, 3), (8, 2), (8, 4)]


def assert_frozen(sched):
    """A schedule and its rounds cannot be changed in place."""
    assert isinstance(sched.rounds, tuple) and sched.rounds
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.p = 99
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.rounds[0].phase = "other"
    for rnd in sched.rounds:
        with pytest.raises(ValueError, match="read-only"):
            rnd.transfers[0, 2] = 0


@pytest.mark.parametrize("p,k", SHAPES)
@pytest.mark.parametrize("itemsize", [4, 2])
def test_schedules_compare_by_value(p, k, itemsize):
    ring = ring_schedule(p, 37, itemsize, k=k)
    hier = hierarchical_schedule(Topology(p, k), 37, itemsize)
    assert ring == ring_schedule(p, 37, itemsize, k=k)
    assert hier == hierarchical_schedule(Topology(p, k), 37, itemsize)
    assert ring != ring_schedule(p, 38 * p, itemsize, k=k)
    assert ring.rounds[0] != Round("other", ring.rounds[0].transfers)


@pytest.mark.parametrize("p,k", SHAPES)
def test_schedules_are_frozen_from_every_source(p, k):
    topo = Topology(p, k)
    f32 = [np.ones(11, np.float32)] * p
    f16 = [np.full(11, 0x3C00, np.uint16)] * p
    ring = ring_schedule(p, 11, k=k)
    sources = [
        ring,
        hierarchical_schedule(topo, 11),
        ring_allreduce(f32, topo)[1],
        hierarchical_allreduce(f32, topo)[1],
        ring_allreduce(f16, topo)[1],
        hierarchical_allreduce(f16, topo)[1],
    ]
    for sched in sources:
        assert_frozen(sched)


def test_round_copies_the_callers_array():
    rows = np.array([[0, 1, 8], [1, 0, 8]], dtype=np.int64)
    rnd = Round("reduce_scatter", rows)
    assert rows.flags.writeable and not rnd.transfers.flags.writeable
    rows[0, 2] = 99
    assert rnd.transfers.tolist() == [[0, 1, 8], [1, 0, 8]]
    sched = ReduceSchedule(algorithm="ring", p=2, k=1, rounds=[rnd])
    assert sched.rounds == (rnd,)


def test_same_shaped_allreduces_share_one_schedule():
    topo = Topology(4, 2)
    a = [np.arange(10, dtype=np.float32) + r for r in range(4)]
    b = [np.ones(10, np.float32)] * 4
    assert ring_allreduce(a, topo)[1] is ring_allreduce(b, topo)[1]
    assert hierarchical_allreduce(a, topo)[1] is hierarchical_allreduce(b, topo)[1]
    # a different length, dtype or group size is a different schedule
    assert ring_allreduce([x[:9] for x in a], topo)[1] is not ring_allreduce(a, topo)[1]
    assert ring_allreduce(a, Topology(4, 4))[1] is not ring_allreduce(a, topo)[1]
    f16 = [np.zeros(10, np.uint16)] * 4
    assert ring_allreduce(f16, topo)[1] is not ring_allreduce(a, topo)[1]


def test_sweeps_leave_the_allreduce_cache_alone():
    # builders stay uncached: a sweep over many sizes must not pin them
    before = collectives._schedule.cache_info().currsize
    crossover_sweep(64, 8, LinkModel(), [256, 4096, 1 << 20])
    assert collectives._schedule.cache_info().currsize == before


# --- execution --------------------------------------------------------------


def test_ring_matches_sequential_oracle_bitwise():
    rng = np.random.default_rng(1)
    for p in (2, 3, 7, 16):
        bufs = [rng.standard_normal(513).astype(np.float32) * 10 for _ in range(p)]
        out, sched = ring_allreduce(bufs)
        oracle = seq_sum_oracle(bufs)
        assert sched.total_steps == 2 * (p - 1)
        for o in out:
            assert np.array_equal(o, oracle)


def test_cross_algorithm_bitwise_equality():
    rng = np.random.default_rng(2)
    bufs = [rng.standard_normal(200).astype(np.float32) for _ in range(8)]
    ring_out, _ = ring_allreduce(bufs)
    hier_out, _ = hierarchical_allreduce(bufs, Topology(8, 2))
    assert np.array_equal(ring_out[0], hier_out[0])


def test_mean_mode():
    bufs = [np.full(4, float(i + 1), dtype=np.float32) for i in range(4)]
    out, _ = ring_allreduce(bufs, op="mean")
    assert np.array_equal(out[0], np.full(4, 2.5, dtype=np.float32))


def test_mean_permutation_invariance():
    rng = np.random.default_rng(3)
    bufs = [rng.standard_normal(300).astype(np.float32) for _ in range(6)]
    a, _ = ring_allreduce(bufs, op="mean")
    b, _ = ring_allreduce(bufs[::-1], op="mean")
    np.testing.assert_allclose(a[0], b[0], rtol=1e-6, atol=1e-7)


def test_second_reduce_with_zeros_is_identity():
    rng = np.random.default_rng(4)
    bufs = [rng.standard_normal(64).astype(np.float32) for _ in range(4)]
    once, _ = ring_allreduce(bufs)
    again, _ = ring_allreduce([once[0]] + [np.zeros(64, np.float32)] * 3)
    assert np.array_equal(again[0], once[0])


def test_p1_identity():
    buf = np.arange(5, dtype=np.float32)
    out, sched = ring_allreduce([buf])
    assert sched.total_steps == 0
    assert np.array_equal(out[0], buf)
    out[0][0] = -1  # results are copies, caller owns them
    assert buf[0] == 0


@pytest.mark.parametrize("dtype", [np.float32, np.uint16])
@pytest.mark.parametrize("algorithm", ["ring", "hierarchical"])
def test_each_rank_result_is_its_own_memory(algorithm, dtype):
    rng = np.random.default_rng(8)
    inputs = rng.integers(0, 0x3C00, (4, 33)).astype(dtype)  # binary16 below 1.0
    topo = Topology(4, 2)
    run = ring_allreduce if algorithm == "ring" else hierarchical_allreduce
    out, _ = run(list(inputs), topo)
    want = out[0].copy()
    assert len(out) == 4
    for i, r in enumerate(out):
        assert r.dtype == dtype and np.array_equal(r, want)
        assert not np.shares_memory(r, inputs)
        assert not any(np.shares_memory(r, other) for other in out[i + 1:])
    out[0][:] = 0  # writing one rank's result leaves the rest alone
    assert all(np.array_equal(r, want) for r in out[1:])


def test_hybrid_selector_boundaries():
    assert choose_algorithm(100, 101) == "hierarchical"
    assert choose_algorithm(100, 100) == "ring"   # tie goes to ring
    assert choose_algorithm(100, 0) == "ring"     # zero threshold: always ring
    bufs = [np.ones(25, np.float32) for _ in range(4)]  # 100-byte payloads
    run = {"ring": ring_allreduce, "hierarchical": hierarchical_allreduce}
    for eta, expect in ((101, "hierarchical"), (100, "ring")):
        chosen = choose_algorithm(bufs[0].nbytes, eta)
        _, sched = run[chosen](bufs, Topology(4, 2))
        assert sched.algorithm == expect


def test_validation_errors():
    good = np.ones(4, np.float32)
    with pytest.raises(ValueError, match="at least one"):
        ring_allreduce([])
    with pytest.raises(ValueError, match="expected float32"):
        ring_allreduce([good.astype(np.float64), good.astype(np.float64)])
    with pytest.raises(ValueError, match="shape"):
        ring_allreduce([good, np.ones(5, np.float32)])
    with pytest.raises(ValueError, match="expected float32"):
        hierarchical_allreduce([np.ones(4, np.int16)] * 2, Topology(2, 2))
    with pytest.raises(ValueError, match="dtype uint16"):
        ring_allreduce([good, np.ones(4, np.uint16)])
    with pytest.raises(ValueError, match="dtype float32"):
        ring_allreduce([np.ones(4, np.uint16), good])
    with pytest.raises(ValueError, match="topology is for"):
        ring_allreduce([good, good], Topology(4, 2))


# --- fp16 path --------------------------------------------------------------


def test_f16_allreduce_error_bound_and_determinism():
    rng = np.random.default_rng(5)
    for p in (2, 5, 16):
        bufs32 = [rng.uniform(0.5, 1.5, 2048).astype(np.float32) for _ in range(p)]
        bufs16 = [hp.f32_to_f16(b) for b in bufs32]
        out, sched = ring_allreduce(bufs16)
        ref = seq_sum_oracle(bufs32)
        rel = np.max(np.abs(hp.f16_to_f32(out[0]) - ref) / np.abs(ref))
        assert rel <= 2.0**-9
        assert out[0].dtype == np.uint16
        again, _ = ring_allreduce(bufs16)
        assert np.array_equal(out[0], again[0])
        # schedule accounts 2-byte elements
        assert sched.bytes_on_wire == 2 * (p - 1) * 2048 * 2


def test_f16_hierarchical_variant():
    rng = np.random.default_rng(6)
    bufs32 = [rng.uniform(0.5, 1.5, 256).astype(np.float32) for _ in range(8)]
    bufs16 = [hp.f32_to_f16(b) for b in bufs32]
    topo = Topology(8, 4)
    out, sched = hierarchical_allreduce(bufs16, topo)
    assert sched.algorithm == "hierarchical"
    assert sched.bytes_on_wire == hierarchical_schedule(topo, 256, 2).bytes_on_wire
    assert out[0].dtype == np.uint16
    ref = seq_sum_oracle(bufs32)
    rel = np.max(np.abs(hp.f16_to_f32(out[0]) - ref) / np.abs(ref))
    assert rel <= 2.0**-9
    again, _ = hierarchical_allreduce(bufs16, topo)
    assert np.array_equal(out[0], again[0])


def test_f16_reduces_through_the_ascending_fold():
    """uint16 input equals one narrow of the float32 fold of the widened
    inputs, bitwise, for every topology and both ops."""
    rng = np.random.default_rng(9)
    n = 37
    for p in range(1, 17):
        bufs16 = [hp.f32_to_f16(rng.uniform(-0.5, 1, n) * 2.0 ** rng.integers(-24, 16, n))
                  for _ in range(p)]
        for b in bufs16:  # a column whose sum overflows, one of subnormals
            b[:2] = hp.f32_to_f16(np.array([40000.0, 2.0**-24]))
        wide = [hp.f16_to_f32(b) for b in bufs16]
        for op in ("sum", "mean"):
            acc = wide[0].copy()
            for w in wide[1:]:
                acc = acc + w
            if op == "mean":
                acc = acc / np.float32(p)
            expect = hp.f32_to_f16(acc)
            ring, ring_sched = ring_allreduce(bufs16, op=op)
            assert ring_sched.bytes_on_wire == ring_schedule(p, n, 2).bytes_on_wire
            for r in range(p):
                assert ring[r].dtype == np.uint16
                assert np.array_equal(ring[r], expect), (p, op)
            for k in (d for d in range(1, p + 1) if p % d == 0):
                topo = Topology(p, k)
                hier, sched = hierarchical_allreduce(bufs16, topo, op=op)
                assert sched.bytes_on_wire == hierarchical_schedule(topo, n, 2).bytes_on_wire
                for r in range(p):
                    assert np.array_equal(hier[r], expect), (p, k, op)


# --- properties -------------------------------------------------------------


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=24),
    k_idx=st.integers(min_value=0, max_value=10),
    n=st.integers(min_value=1, max_value=300),
)
def test_schedule_accounting_properties(p, k_idx, n):
    divisors = [d for d in range(1, p + 1) if p % d == 0]
    k = divisors[k_idx % len(divisors)]
    ring = ring_schedule(p, n)
    hier = hierarchical_schedule(Topology(p, k), n)
    assert ring.total_steps == 2 * (p - 1)
    assert hier.total_steps == (4 * (k - 1) + 2 * (p // k - 1) if p > 1 else 0)
    for r in ring.rounds + hier.rounds:
        assert np.all(r.transfers[:, 2] >= 0)
        assert np.all(r.transfers[:, 0] != r.transfers[:, 1])  # no self-sends


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=10),
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_allreduce_oracle_property(p, n, seed):
    rng = np.random.default_rng(seed)
    bufs = [rng.standard_normal(n).astype(np.float32) for _ in range(p)]
    out, _ = ring_allreduce(bufs)
    assert np.array_equal(out[0], seq_sum_oracle(bufs))
