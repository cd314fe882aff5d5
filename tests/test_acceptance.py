"""End-to-end checks for the whole package, one test per guarantee.

These are deliberately broader and slower than the per-module suites:
every test here exercises a full pipeline against an independent
reference (closed forms, sequential folds, float64 accumulation, or a
second transport) rather than unit internals.
"""

import math
import time

import numpy as np
import pytest

from gradsync.collectives import (
    Topology,
    choose_algorithm,
    hierarchical_allreduce,
    hierarchical_schedule,
    ring_allreduce,
    ring_schedule,
)
from gradsync.experiment import ablation_pair, preset_config
from gradsync.fusion import FusedBatch, FusionBuffer, unpack
from gradsync.halfprec import (
    LossScale,
    f16_to_f32,
    f32_to_f16,
    unscale_gradients,
)
from gradsync.lars import (
    LarsConfig,
    Schedule,
    lars_local_lr,
    lars_step,
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
from gradsync.tcp import TcpCluster
from gradsync.toymodel import DenseNet, make_synthetic_dataset


def sequential_sum(buffers):
    # rank-ascending fold, written independently of the package engine
    acc = np.array(buffers[0], dtype=np.float32)
    for b in buffers[1:]:
        acc = acc + b
    return acc


def divisors_up_to(p, cap=32):
    return [k for k in range(1, min(p, cap) + 1) if p % k == 0]


# 1 ------------------------------------------------------------------------


def test_step_counts_match_closed_forms_across_topologies():
    for p in (2, 4, 8, 16, 64, 256, 1024):
        n = 1000
        assert ring_schedule(p, n).total_steps == 2 * (p - 1)
        for k in divisors_up_to(p):
            sched = hierarchical_schedule(Topology(p, k), n)
            assert sched.total_steps == 4 * (k - 1) + 2 * (p // k - 1), (p, k)
    assert ring_schedule(1024, 25_087_744).total_steps == 2046
    assert hierarchical_schedule(Topology(1024, 16), 25_087_744).total_steps == 186


# 2 ------------------------------------------------------------------------


def test_reductions_match_sequential_oracle_and_f16_bound():
    rng = np.random.default_rng(2024)
    run = {"ring": ring_allreduce, "hierarchical": hierarchical_allreduce}
    for case in range(200):
        p = int(rng.integers(1, 17))
        n = int(rng.integers(1, 4097))
        ks = divisors_up_to(p)
        k = int(ks[rng.integers(0, len(ks))])
        bufs = [rng.uniform(-1.0, 1.0, n).astype(np.float32) for _ in range(p)]
        expect = sequential_sum(bufs)
        topo = Topology(p, k)

        ring_out, _ = ring_allreduce(bufs)
        hier_out, _ = hierarchical_allreduce(bufs, topo)
        chosen = choose_algorithm(bufs[0].nbytes, n * 2)
        hybrid_out, _ = run[chosen](bufs, topo)
        for r in range(p):
            assert np.array_equal(ring_out[r], expect), f"case {case} ring"
            assert np.array_equal(hier_out[r], expect), f"case {case} hier"
            assert np.array_equal(hybrid_out[r], expect), f"case {case} hybrid"

        if case % 4 == 0:
            scaled = [rng.uniform(0.5, 1.5, n).astype(np.float32)
                      for _ in range(p)]
            ref = sequential_sum(scaled)
            halves = [f32_to_f16(s) for s in scaled]
            half_out, _ = ring_allreduce(halves, topo)
            widened = f16_to_f32(half_out[0])
            rel = np.max(np.abs(widened - ref) / np.abs(ref))
            assert rel <= 2.0 ** -9, f"case {case}: f16 error {rel}"
            assert np.array_equal(half_out[0], f32_to_f16(
                sequential_sum([f16_to_f32(h) for h in halves]))), f"case {case} f16"
            hier_half, _ = hierarchical_allreduce(halves, topo)
            assert np.array_equal(hier_half[0], half_out[0]), f"case {case} f16 hier"


# 3 ------------------------------------------------------------------------


def test_tcp_transport_bitwise_matches_in_memory():
    start = time.monotonic()
    rng = np.random.default_rng(33)
    for p, k in ((2, 1), (4, 2), (8, 4)):
        topo = Topology(p, k)
        bufs = [rng.standard_normal(1500).astype(np.float32) for _ in range(p)]
        mem_ring, _ = ring_allreduce(bufs)
        mem_hier, _ = hierarchical_allreduce(bufs, topo)
        for algorithm, reference in (("ring", mem_ring),
                                     ("hierarchical", mem_hier)):
            with TcpCluster(p, timeout=30) as cluster:
                wire, _ = cluster.allreduce(bufs, algorithm=algorithm, k=k)
            for r in range(p):
                assert np.array_equal(wire[r], reference[r]), (p, algorithm, r)
        # the size-based selector picks one of the same two executors
        nbytes = bufs[0].nbytes
        chosen = choose_algorithm(nbytes, eta_bytes=nbytes + 1)
        with TcpCluster(p, timeout=30) as cluster:
            wire, _ = cluster.allreduce(bufs, algorithm=chosen, k=k)
        reference = mem_hier if chosen == "hierarchical" else mem_ring
        for r in range(p):
            assert np.array_equal(wire[r], reference[r])
    assert time.monotonic() - start < 120.0


# 4 ------------------------------------------------------------------------


def test_cost_model_regimes_and_hybrid_choice():
    p, k = 1024, 16
    topo = Topology(p, k)
    n = 25_087_744

    latency_bound = LinkModel(alpha=1.0, beta_inv=1e30)
    ring_t = simulate(ring_schedule(p, n), latency_bound).total_time
    hier_t = simulate(hierarchical_schedule(topo, n), latency_bound).total_time
    assert hier_t / ring_t == pytest.approx(186 / 2046, rel=1e-9)

    bandwidth_bound = LinkModel(alpha=0.0, beta_inv=1e9)
    small = Topology(64, 8)
    ring_b = simulate(ring_schedule(64, n), bandwidth_bound).total_time
    hier_b = simulate(hierarchical_schedule(small, n), bandwidth_bound).total_time
    assert ring_b <= hier_b

    link = LinkModel(alpha=1e-3, beta_inv=1e9)
    sizes = [int(s) for s in np.geomspace(4, 4e7, 24)]
    rows = crossover_sweep(64, 8, link, sizes)
    cross = find_crossover(rows)
    assert rows[0]["faster"] == "hierarchical"
    assert rows[-1]["faster"] == "ring"
    assert cross is not None
    for row in rows:
        algo = choose_algorithm(row["bytes"], eta_bytes=cross)
        chosen_t = row[f"{'hierarchical' if algo == 'hierarchical' else 'ring'}_time"]
        assert chosen_t <= min(row["ring_time"], row["hierarchical_time"]) * (1 + 1e-12)


# 5 ------------------------------------------------------------------------


def test_half_precision_round_trip_and_loss_scale_rescue():
    everything = np.arange(1 << 16, dtype=np.uint16)
    widened = f16_to_f32(everything)
    back = f32_to_f16(widened)
    finite = np.isfinite(widened)
    assert np.array_equal(back[finite], everything[finite])
    nan_mask = np.isnan(widened)
    assert np.all(back[nan_mask] == 0x7E00)
    assert back[0x7C00] == 0x7C00 and back[0xFC00] == 0xFC00

    assert int(f32_to_f16(np.float32(65520.0))) == 0x7C00
    assert int(f32_to_f16(np.float32(-65520.0))) == 0xFC00
    assert int(f32_to_f16(np.float32(65519.99609375))) == 0x7BFF

    flush_edge = np.float32(2.0 ** -25)
    assert int(f32_to_f16(flush_edge)) == 0x0000
    assert int(f32_to_f16(-flush_edge)) == 0x8000
    assert int(f32_to_f16(np.nextafter(flush_edge, np.float32(1)))) == 0x0001
    assert int(f32_to_f16(np.float32(2.0 ** -24))) == 0x0001

    tiny = np.full(16, 2.0 ** -30, dtype=np.float32)
    assert np.all(f32_to_f16(tiny) == 0)
    scale = LossScale(scale=1024.0)
    boosted = tiny * np.float32(scale.scale)
    encoded = f32_to_f16(boosted)
    assert np.all(encoded != 0)
    recovered = unscale_gradients(f16_to_f32(encoded), scale)
    assert np.array_equal(recovered, tiny)


# 6 ------------------------------------------------------------------------


def test_lars_rate_oracle_scale_invariance_and_master_accumulation(param_group):
    rng = np.random.default_rng(66)
    for _ in range(100):
        n = int(rng.integers(1, 600))
        w = (rng.standard_normal(n) * rng.uniform(0.01, 20)).astype(np.float32)
        g = (rng.standard_normal(n) * rng.uniform(0.001, 5)).astype(np.float32)
        got = lars_local_lr(w, g, eta=0.001)
        want = 0.001 * math.sqrt(math.fsum(float(v) ** 2 for v in w)) / \
            math.sqrt(math.fsum(float(v) ** 2 for v in g))
        assert got == pytest.approx(want, rel=1e-7)

    cfg = LarsConfig(schedule=Schedule(base_lr=0.5), weight_decay=0.0,
                     momentum=0.9)
    w0 = rng.uniform(0.5, 1.5, 128).astype(np.float32)
    g0 = rng.standard_normal(128).astype(np.float32)
    plain = param_group("w", "weight", w0)
    boosted = param_group("w", "weight", w0)
    for step in range(4):
        plain.grad[:] = g0
        boosted.grad[:] = g0 * np.float32(1024.0)
        assert lars_step([plain], cfg, step)
        assert lars_step([boosted], cfg, step)
    assert np.array_equal(plain.master_w, boosted.master_w)
    assert np.array_equal(plain.velocity, boosted.velocity)

    acc_cfg = LarsConfig(schedule=Schedule(base_lr=1.0), weight_decay=0.0,
                         momentum=0.9)
    master = param_group("b", "bias", np.ones(64))
    half_only = param_group("b", "bias", np.ones(64))
    for step in range(200):
        master.grad[:] = 1e-8
        half_only.grad[:] = 1e-8
        assert lars_step([master], acc_cfg, step)
        assert lars_step([half_only], acc_cfg, step)
        half_only.master_w[:] = f16_to_f32(f32_to_f16(half_only.master_w))
    assert np.all(master.master_w < 1.0 - 5e-6)
    assert np.all(half_only.master_w == 1.0)


# 7 ------------------------------------------------------------------------


def test_ablations_win_on_seed_majority():
    start = time.monotonic()
    lars_wins = sum(ablation_pair("lars", preset_config("lars-ablation", [f"seed={s}"]))
                    ["with_wins"] for s in range(5))
    decay_wins = sum(ablation_pair("decay", preset_config("decay-ablation", [f"seed={s}"]))
                     ["with_wins"] for s in range(5))
    assert lars_wins >= 3, f"norm-quotient rates won only {lars_wins}/5 seeds"
    assert decay_wins >= 3, f"decay exemption won only {decay_wins}/5 seeds"
    assert time.monotonic() - start < 300.0


# 8 ------------------------------------------------------------------------


def test_data_parallel_sharding_matches_full_batch():
    x, y = make_synthetic_dataset(48, 10, 3, seed=4)
    for workers in (2, 4, 8):
        net = DenseNet([10, 14, 3], seed=11)
        net.forward_backward(x, y)
        full = {g.name: g.grad.copy() for g in net.groups}

        shard_len = len(x) // workers
        partial: dict[str, np.ndarray] = {}
        for w in range(workers):
            sl = slice(w * shard_len, (w + 1) * shard_len)
            net.forward_backward(x[sl], y[sl])
            for g in net.groups:
                partial.setdefault(g.name, np.zeros_like(g.grad))
                partial[g.name] += g.grad
        for name in full:
            combined = partial[name] / np.float32(workers)
            worst = float(np.max(np.abs(combined - full[name])))
            assert worst <= 1e-6, f"W={workers} {name}: {worst}"


# 9 ------------------------------------------------------------------------


def test_scaling_efficiency_identity_at_reported_operating_point():
    single = 218.0
    workers = 1024
    efficiency = 0.992
    system = implied_system_throughput(single, workers, efficiency)
    assert abs(system - 221_446.144) <= 1.0

    report = scaling_efficiency(EfficiencyInput(
        single_worker_throughput=single,
        worker_count=workers,
        system_throughput=system))
    assert report.efficiency == pytest.approx(efficiency, rel=1e-12)
    assert report.clamped == report.efficiency
    assert not report.exceeds_ideal

    noisy = scaling_efficiency(EfficiencyInput(
        single_worker_throughput=single,
        worker_count=workers,
        system_throughput=single * workers * 1.05))
    assert noisy.exceeds_ideal and noisy.clamped == 1.0


# 10 -----------------------------------------------------------------------


def test_fusion_fuzz_preserves_content_and_thresholds():
    start = time.monotonic()
    rng = np.random.default_rng(1010)
    thresholds = (0, 64, 256, 1024)
    for trial in range(10_000):
        theta = int(thresholds[rng.integers(0, len(thresholds))])
        count = int(rng.integers(1, 7))
        tensors = [(f"t{j}", rng.standard_normal(
            int(rng.integers(1, 129))).astype(np.float32))
            for j in range(count)]

        buf = FusionBuffer(theta)
        batches = []
        for name, values in tensors:
            out = buf.enqueue(name, values)
            if out is not None:
                batches.append(out)
        tail = buf.flush()
        if tail is not None:
            batches.append(tail)

        order = [tid for b in batches for tid in b.tensor_ids]
        assert order == [name for name, _ in tensors], f"trial {trial}"
        for b in batches[:-1]:
            assert b.nbytes > theta, f"trial {trial}: early emission"
        flat_in = np.concatenate([v for _, v in tensors])
        flat_out = np.concatenate([b.payload for b in batches])
        assert np.array_equal(flat_in, flat_out), f"trial {trial}"

        if trial % 10 == 0:
            # pack, reduce, unpack must equal reducing each tensor alone
            partner = {name: rng.standard_normal(v.size).astype(np.float32)
                       for name, v in tensors}
            direct = {name: v + partner[name] for name, v in tensors}
            for b in batches:
                partner_payload = np.concatenate(
                    [partner[tid] for tid, _, _ in b.unpack_map])
                merged = FusedBatch(
                    payload=sequential_sum([b.payload, partner_payload]),
                    unpack_map=b.unpack_map)
                for name, tensor in unpack(merged):
                    assert np.array_equal(tensor, direct[name]), f"trial {trial}"
    assert time.monotonic() - start < 60.0
