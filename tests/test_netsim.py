"""Link-model cost accounting and scaling-efficiency arithmetic."""

import math

import numpy as np
import pytest

from gradsync.collectives import (
    ReduceSchedule,
    Round,
    Topology,
    hierarchical_schedule,
    ring_schedule,
)
from gradsync.netsim import (
    EfficiencyInput,
    LinkModel,
    crossover_sweep,
    find_crossover,
    implied_system_throughput,
    scaling_efficiency,
    simulate,
)


def one_transfer_schedule(nbytes, phase="reduce_scatter"):
    return ReduceSchedule(algorithm="ring", p=2, k=1, rounds=(
        Round(phase=phase, transfers=np.array([[0, 1, nbytes]], dtype=np.int64)),))


def test_single_round_cost():
    # 1000 bytes at alpha 1e-5 s and 1e9 B/s: 1e-5 + 1e-6 = 1.1e-5 s
    rep = simulate(one_transfer_schedule(1000), LinkModel(alpha=1e-5, beta_inv=1e9))
    assert rep.total_time == pytest.approx(1.1e-5, rel=1e-12)
    assert rep.total_steps == 1 and rep.bytes_on_wire == 1000


def test_rounds_serialize_and_use_max_transfer():
    s = ReduceSchedule(algorithm="ring", p=4, k=1, rounds=(
        Round("reduce_scatter",
              np.array([[0, 1, 100], [1, 2, 400], [2, 3, 100]], np.int64)),
        Round("allgather", np.array([[3, 0, 200]], np.int64)),
    ))
    rep = simulate(s, LinkModel(alpha=1e-3, beta_inv=1e6))
    # concurrent transfers cost one alpha plus the largest payload
    assert rep.total_time == pytest.approx((1e-3 + 4e-4) + (1e-3 + 2e-4), rel=1e-12)
    assert rep.per_phase_time["reduce_scatter"] == pytest.approx(1.4e-3, rel=1e-12)
    assert rep.bytes_on_wire == 800


def test_ring_closed_form():
    p, n = 8, 4000
    link = LinkModel(alpha=2e-5, beta_inv=1e8)
    rep = simulate(ring_schedule(p, n), link)
    per_round = 2e-5 + (500 * 4) / 1e8
    assert rep.total_time == pytest.approx(2 * (p - 1) * per_round, rel=1e-12)


def test_alpha_dominated_ratio_matches_step_counts():
    # with bandwidth effectively infinite only the 186 vs 2046 rounds matter
    link = LinkModel(alpha=1e-5, beta_inv=1e30)
    ring_t = simulate(ring_schedule(1024, 1024), link).total_time
    hier_t = simulate(hierarchical_schedule(Topology(1024, 16), 1024), link).total_time
    assert hier_t / ring_t == pytest.approx(186 / 2046, rel=1e-9)


def test_bandwidth_dominated_favors_ring():
    link = LinkModel(alpha=0.0, beta_inv=1e9)
    n = 25_000_000
    ring_t = simulate(ring_schedule(64, n), link).total_time
    hier_t = simulate(hierarchical_schedule(Topology(64, 8), n), link).total_time
    assert ring_t <= hier_t


def test_intra_group_link_parameters():
    # p=4, k=2: four intra rounds and two master rounds; free intra links
    # leave only the master ring's cost
    topo = Topology(4, 2)
    sched = hierarchical_schedule(topo, 200)
    n_intra = sum(1 for r in sched.rounds if r.phase.startswith("intra"))
    n_master = sched.total_steps - n_intra
    assert (n_intra, n_master) == (4, 2)
    link = LinkModel(alpha=1e-3, beta_inv=1e12,
                     intra_group_alpha=0.0, intra_group_beta_inv=1e15)
    rep = simulate(sched, link)
    master_bytes = (100 * 4)  # 200 elems over 2 masters, 4-byte items
    assert rep.total_time == pytest.approx(2 * (1e-3 + master_bytes / 1e12), rel=1e-9)


def test_intra_params_fall_back_independently():
    link = LinkModel(alpha=3.0, beta_inv=10.0, intra_group_beta_inv=20.0)
    assert link.params_for("intra_gather") == (3.0, 20.0)
    assert link.params_for("master_allgather") == (3.0, 10.0)


def test_link_validation():
    with pytest.raises(ValueError):
        LinkModel(alpha=-1e-9)
    with pytest.raises(ValueError):
        LinkModel(beta_inv=0)
    with pytest.raises(ValueError):
        LinkModel(intra_group_alpha=-1.0)
    with pytest.raises(ValueError):
        LinkModel(intra_group_beta_inv=0.0)


@pytest.mark.parametrize("field", [
    "alpha", "beta_inv", "intra_group_alpha", "intra_group_beta_inv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_link_rejects_non_finite_values(field, bad):
    with pytest.raises(ValueError, match="finite"):
        LinkModel(**{field: bad})


def test_scaling_efficiency_identity():
    t = implied_system_throughput(218.0, 1024, 0.992)
    rep = scaling_efficiency(EfficiencyInput(218.0, 1024, t))
    assert rep.efficiency == t / (218.0 * 1024)
    assert rep.efficiency == pytest.approx(0.992, abs=1e-12)
    assert rep.clamped == rep.efficiency and not rep.exceeds_ideal


def test_scaling_efficiency_flags_super_ideal():
    rep = scaling_efficiency(EfficiencyInput(100.0, 4, 420.0))
    assert rep.efficiency == pytest.approx(1.05)
    assert rep.clamped == 1.0 and rep.exceeds_ideal


def test_efficiency_input_validation():
    with pytest.raises(ValueError):
        EfficiencyInput(0.0, 4, 100.0)
    with pytest.raises(ValueError):
        EfficiencyInput(100.0, 0, 100.0)
    with pytest.raises(ValueError):
        EfficiencyInput(100.0, 4, -1.0)


def test_crossover_sweep_finds_regime_change():
    link = LinkModel(alpha=1e-5, beta_inv=1e9)
    sizes = [4 * 10**i for i in range(8)]  # 4 B .. 40 MB
    rows = crossover_sweep(64, 8, link, sizes)
    assert rows[0]["faster"] == "hierarchical"   # latency-bound
    assert rows[-1]["faster"] == "ring"          # bandwidth-bound
    eta = find_crossover(rows)
    assert eta is not None
    # the crossover byte size partitions the sampled sizes cleanly
    for row in rows:
        if row["bytes"] < eta:
            assert row["faster"] == "hierarchical"
        else:
            assert row["faster"] == "ring"


def test_find_crossover_none_when_ring_never_wins():
    link = LinkModel(alpha=1.0, beta_inv=1e9)
    rows = crossover_sweep(64, 8, link, [4, 400])
    assert find_crossover(rows) is None
