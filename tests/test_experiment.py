"""End-to-end driver checks: artifacts, determinism, and the config knobs."""

import csv
import dataclasses
import json
import math
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradsync import collectives, experiment, halfprec, toymodel
from gradsync.collectives import choose_algorithm
from gradsync.experiment import (
    ConfigError,
    ExperimentConfig,
    ablation_pair,
    compare_runs,
    preset_config,
    run_experiment,
    stepcount_table,
)
from gradsync.fusion import trace_record
from gradsync.halfprec import quantize_tensor


def small_config(**kw):
    base = dict(workers=2, samples=32, batch_size=8, steps=6, hidden=(8,))
    base.update(kw)
    return ExperimentConfig(**base)


def read_metrics(report):
    with open(Path(report["run_dir"]) / "metrics.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def read_jsonl(report, name):
    path = Path(report["run_dir"]) / name
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_smoke_preset_writes_all_artifacts(tmp_path):
    report = run_experiment(preset_config("smoke"), out_root=tmp_path)
    run_dir = Path(report["run_dir"])
    for name in ("metrics.csv", "fusion_trace.jsonl", "activations.jsonl",
                 "config.json", "report.json"):
        assert (run_dir / name).exists(), name
    on_disk = json.loads((run_dir / "report.json").read_text())
    assert on_disk == report
    saved = json.loads((run_dir / "config.json").read_text())
    assert saved["config"]["workers"] == 2
    assert saved["hash"] == report["config_hash"]


def test_metrics_has_one_row_per_step(tmp_path):
    report = run_experiment(small_config(steps=7), out_root=tmp_path)
    rows = read_metrics(report)
    assert len(rows) == 7
    assert [int(r["step"]) for r in rows] == list(range(7))
    assert report["steps_run"] == 7


def test_same_seed_reproduces_identical_bytes(tmp_path):
    cfg = small_config()
    rep_a = run_experiment(cfg, out_root=tmp_path / "a")
    rep_b = run_experiment(cfg, out_root=tmp_path / "b")
    bytes_a = (Path(rep_a["run_dir"]) / "metrics.csv").read_bytes()
    bytes_b = (Path(rep_b["run_dir"]) / "metrics.csv").read_bytes()
    assert bytes_a == bytes_b
    assert rep_a["final_loss"] == rep_b["final_loss"]


def test_seed_changes_the_trajectory(tmp_path):
    rep_a = run_experiment(small_config(seed=0), out_root=tmp_path / "a")
    rep_b = run_experiment(small_config(seed=1), out_root=tmp_path / "b")
    assert rep_a["final_loss"] != rep_b["final_loss"]


def test_tcp_transport_reproduces_sim_bytes(tmp_path):
    sim = run_experiment(small_config(steps=4), out_root=tmp_path / "sim")
    tcp = run_experiment(small_config(steps=4, transport="tcp"),
                         out_root=tmp_path / "tcp")
    bytes_sim = (Path(sim["run_dir"]) / "metrics.csv").read_bytes()
    bytes_tcp = (Path(tcp["run_dir"]) / "metrics.csv").read_bytes()
    # the transport leaves no numeric trace, only the config hash differs
    assert bytes_sim == bytes_tcp


@pytest.mark.parametrize("name,seed", [("train-tcp", 1), ("train-tcp", 2),
                                       ("smoke", 0)])
def test_tcp_writes_the_sim_artifacts(tmp_path, bench_workloads, name, seed):
    # one collective per step over the wire, one all-reduce per bucket in
    # memory: the same bytes in every deterministic artifact
    if name == "smoke":
        cfg = preset_config("smoke", ["use_bn=true", "mixed=true"])
    else:
        cfg = ExperimentConfig(seed=seed, **bench_workloads[name]["config"])
    runs = {transport: Path(run_experiment(
        dataclasses.replace(cfg, transport=transport),
        out_root=tmp_path / transport)["run_dir"]) for transport in ("sim", "tcp")}
    for artifact in ("metrics.csv", "fusion_trace.jsonl", "activations.jsonl"):
        assert ((runs["sim"] / artifact).read_bytes()
                == (runs["tcp"] / artifact).read_bytes()), artifact


def _numerics(cfg):
    """A run's ``loss``, ``scale``, ``skipped`` and ``grad_norm`` columns and
    its ``activations.jsonl`` bytes."""
    with tempfile.TemporaryDirectory() as root:
        report = run_experiment(cfg, out_root=root)
        columns = [(r["loss"], r["scale"], r["skipped"], r["grad_norm"])
                   for r in read_metrics(report)]
        return columns, (Path(report["run_dir"]) / "activations.jsonl").read_bytes()


_COMM_SETTINGS = st.fixed_dictionaries({
    "fusion_threshold": st.sampled_from([0, 40, 100, 1 << 30]),
    "hybrid_eta": st.sampled_from([0, 100, 1 << 40]),
    "group_size": st.sampled_from([1, 2, 4]),
    "alpha": st.sampled_from([0.0, 1e-5, 1e-3]),
    "bandwidth": st.sampled_from([1e6, 1e9]),
    "intra_alpha": st.sampled_from([None, 0.0, 1e-6]),
    "intra_bandwidth": st.sampled_from([None, 1e7, 1e11]),
})


@settings(max_examples=50, derandomize=True, deadline=None)
@given(seed=st.integers(0, 3), mixed=st.booleans(), comm=_COMM_SETTINGS)
def test_communication_settings_move_only_the_cost_columns(seed, mixed, comm):
    # every all-reduce path is the ascending-rank fold, so how the
    # gradients are bucketed, routed and costed leaves the numerics alone
    base = small_config(workers=4, batch_size=16, steps=3, hidden=(8, 6),
                        seed=seed, mixed=mixed)
    assert _numerics(dataclasses.replace(base, **comm)) == _numerics(base)


def test_communication_settings_move_only_the_cost_columns_over_tcp():
    base = small_config(workers=4, batch_size=16, steps=3, hidden=(8, 6), seed=1)
    varied = dataclasses.replace(base, transport="tcp", fusion_threshold=40,
                                 hybrid_eta=100, group_size=2, alpha=1e-3,
                                 bandwidth=1e6, intra_alpha=0.0, intra_bandwidth=1e7)
    assert _numerics(varied) == _numerics(base)


def test_fusion_threshold_controls_batch_count(tmp_path):
    # theta 0 never fuses, so each tensor travels alone; a huge theta
    # packs the whole model into a single batch per step
    rep_solo = run_experiment(small_config(fusion_threshold=0),
                              out_root=tmp_path / "solo")
    rep_one = run_experiment(small_config(fusion_threshold=1 << 30),
                             out_root=tmp_path / "one")
    solo_step0 = [r for r in read_jsonl(rep_solo, "fusion_trace.jsonl")
                  if r["step"] == 0]
    one_step0 = [r for r in read_jsonl(rep_one, "fusion_trace.jsonl")
                 if r["step"] == 0]
    # hidden=(8,) nets carry layer0 weight+bias and head weight+bias
    assert len(solo_step0) == 4
    assert all(len(r["tensor_ids"]) == 1 for r in solo_step0)
    assert len(one_step0) == 1
    assert len(one_step0[0]["tensor_ids"]) == 4


def test_hybrid_eta_switches_the_algorithm(tmp_path):
    ring = run_experiment(
        small_config(workers=4, group_size=2, samples=64, batch_size=16,
                     hybrid_eta=0),
        out_root=tmp_path / "ring")
    hier = run_experiment(
        small_config(workers=4, group_size=2, samples=64, batch_size=16,
                     hybrid_eta=1 << 40),
        out_root=tmp_path / "hier")
    assert ring["algorithm_batches"]["hierarchical"] == 0
    assert ring["algorithm_batches"]["ring"] > 0
    assert hier["algorithm_batches"]["ring"] == 0
    assert hier["algorithm_batches"]["hierarchical"] > 0
    algos = {r["algorithm"] for r in read_metrics(hier)}
    assert algos == {"hierarchical"}


def test_bucket_plan_and_costs_are_built_once_per_run(tmp_path, monkeypatch):
    # a deep narrow net with many buckets of both algorithms: the fusion
    # layout is planned once, and each bucket's cost is modeled once
    calls = {"FusionBuffer": 0, "simulate": 0}

    def counted(name):
        original = getattr(experiment, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(experiment, name, wrapper)

    counted("FusionBuffer")
    counted("simulate")
    cfg = ExperimentConfig(workers=8, group_size=2, features=16, classes=4,
                           hidden=(16,) * 12, samples=512, batch_size=64,
                           steps=4, mixed=False, base_lr=0.2,
                           fusion_threshold=256, hybrid_eta=1056)
    report = run_experiment(cfg, out_root=tmp_path)
    trace = read_jsonl(report, "fusion_trace.jsonl")
    buckets = len(trace) // cfg.steps
    assert buckets > 2
    assert calls == {"FusionBuffer": 1, "simulate": buckets}
    # every step ships the same buckets at the same modeled cost
    first = [(r["tensor_ids"], r["bytes"]) for r in trace[:buckets]]
    for step in range(1, cfg.steps):
        rows = trace[step * buckets:(step + 1) * buckets]
        assert [(r["tensor_ids"], r["bytes"]) for r in rows] == first
    costs = {(r["algorithm"], r["comm_time"], r["wire_bytes"])
             for r in read_metrics(report)}
    assert len(costs) == 1
    assert next(iter(costs))[0] == "hierarchical+ring"


TRACE_OVERRIDES = {
    "smoke": [],
    "smoke-bn": ["use_bn=true"],
    "one-tensor-per-bucket": ["fusion_threshold=0"],
    "one-bucket": [f"fusion_threshold={1 << 30}"],
    "one-step": ["steps=1"],
}


def trace_config(name, bench_workloads):
    """``smoke`` with the named overrides, or a benchmark workload at seed 1."""
    if name in bench_workloads:
        return ExperimentConfig(seed=1, **bench_workloads[name]["config"])
    return preset_config("smoke", TRACE_OVERRIDES[name])


@pytest.mark.parametrize("name", ["smoke", "train-fp32-fused"])
def test_fusion_trace_encodes_each_bucket_once_per_run(tmp_path, count_calls,
                                                       bench_workloads, name):
    # the trace is rendered from the bucket plan, not recorded step by step
    cfg = trace_config(name, bench_workloads)
    buckets = len(experiment._Run(cfg).buckets)
    calls = count_calls(trace_record)["trace_record"]
    run_experiment(cfg, out_root=tmp_path)
    assert cfg.steps > 1 and buckets > 1
    assert len(calls) == buckets


@pytest.mark.parametrize("name", [*TRACE_OVERRIDES, "train-fp32-fused"])
def test_fusion_trace_is_one_record_per_step_and_bucket(tmp_path, bench_workloads, name):
    # the trace holds the bytes of one json.dumps(trace_record) line per
    # step and bucket, in step-major, bucket order
    cfg = trace_config(name, bench_workloads)
    report = run_experiment(cfg, out_root=tmp_path)
    batches = [batch for _, _, batch, _ in experiment._Run(cfg).buckets]
    want = "".join(json.dumps(trace_record(step, b, batch)) + "\n"
                   for step in range(cfg.steps) for b, batch in enumerate(batches))
    got = (Path(report["run_dir"]) / "fusion_trace.jsonl").read_text()
    assert got == want
    assert got.count("\n") == cfg.steps * len(batches)
    ids = [tensor for batch in batches for tensor in batch.tensor_ids]
    if name == "smoke-bn":
        assert any(t.endswith(".bn_gamma") for t in ids)
        assert any(t.endswith(".bn_beta") for t in ids)
    elif name == "one-tensor-per-bucket":
        assert len(batches) == len(ids) > 1
    elif name == "one-bucket":
        assert len(batches) == 1 and len(ids) > 1


FP32_FUSED = dict(workers=8, group_size=2, features=16, classes=4,
                  hidden=(16,) * 12, samples=512, batch_size=64, steps=5,
                  mixed=False, base_lr=0.2, fusion_threshold=256, hybrid_eta=1056)


@pytest.mark.parametrize("make_cfg", [
    lambda: ExperimentConfig(**FP32_FUSED),
    lambda: preset_config("smoke", ["transport=tcp"]),
], ids=["fp32-fused", "smoke-tcp"])
def test_each_allreduce_schedule_is_built_once(tmp_path, monkeypatch, make_cfg):
    # one build per (algorithm, bucket size), however many steps and runs
    builds = []
    for name in ("ring_schedule", "hierarchical_schedule"):
        def counted(*args, _build=getattr(collectives, name), **kwargs):
            sched = _build(*args, **kwargs)
            builds.append(sched.algorithm)
            return sched
        monkeypatch.setattr(collectives, name, counted)
    collectives._schedule.cache_clear()
    cfg = make_cfg()
    reports = [run_experiment(cfg, out_root=tmp_path) for _ in range(2)]
    trace = read_jsonl(reports[0], "fusion_trace.jsonl")
    keys = {(choose_algorithm(r["bytes"], cfg.hybrid_eta), r["bytes"]) for r in trace}
    assert Counter(builds) == Counter(algorithm for algorithm, _ in keys)
    assert len(builds) < len(trace) * len(reports)  # bucket all-reduces made


@pytest.mark.parametrize("make_cfg", [
    lambda: preset_config("smoke"),
    lambda: ExperimentConfig(**FP32_FUSED),
], ids=["smoke", "fp32-fused"])
def test_a_step_does_not_need_step_zero(tmp_path, make_cfg):
    # the modeled costs are fixed before any step runs, so the last step
    # run first reports what it reports in a full run
    cfg = make_cfg()
    want = read_metrics(run_experiment(cfg, out_root=tmp_path))[-1]
    run = experiment._Run(cfg)
    with experiment._reducer(run) as reduce:
        row = experiment._step(run, cfg.steps - 1, reduce)
    assert float(want["comm_time"]) > 0 and int(want["wire_bytes"]) > 0
    keys = ("step", "algorithm", "comm_time", "wire_bytes")
    assert {key: str(row[key]) for key in keys} == {key: want[key] for key in keys}


def test_stepcount_table_leaves_the_allreduce_cache_alone():
    before = collectives._schedule.cache_info().currsize
    stepcount_table()
    assert collectives._schedule.cache_info().currsize == before


def test_stepcount_table_flagship_row():
    rows = stepcount_table()["table"]
    flagship = rows[-1]
    assert flagship["workers"] == 1024
    assert flagship["group_size"] == 16
    assert flagship["ring_steps"] == 2046
    assert flagship["hierarchical_steps"] == 186
    assert flagship["ratio"] == 11.0


def test_compare_runs_reports_diffs(tmp_path):
    rep_a = run_experiment(small_config(seed=0), out_root=tmp_path / "a")
    rep_b = run_experiment(small_config(seed=5), out_root=tmp_path / "b")
    result = compare_runs(rep_a["run_dir"], rep_b["run_dir"])
    assert any("seed" in d for d in result["config_diffs"])
    assert not result["identical_metrics"]
    same = compare_runs(rep_a["run_dir"], rep_a["run_dir"])
    assert same["identical_metrics"]
    assert not same["config_diffs"]
    assert same["max_step_loss_delta"] == 0.0


def test_compare_rejects_mismatched_runs(tmp_path):
    rep_a = run_experiment(small_config(steps=6), out_root=tmp_path / "a")
    rep_b = run_experiment(small_config(steps=4), out_root=tmp_path / "b")
    with pytest.raises(ValueError, match="lengths"):
        compare_runs(rep_a["run_dir"], rep_b["run_dir"])

    mangled = tmp_path / "mangled"
    mangled.mkdir()
    src = Path(rep_a["run_dir"])
    (mangled / "report.json").write_bytes((src / "report.json").read_bytes())
    lines = (src / "metrics.csv").read_text().splitlines()
    lines[0] = lines[0].replace("loss", "objective")
    (mangled / "metrics.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="schema"):
        compare_runs(rep_a["run_dir"], mangled)


def test_unshardable_batch_is_rejected():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(workers=3, samples=32, batch_size=8).validate()
    assert "batch" in str(err.value)


@pytest.mark.parametrize("fields", [
    dict(group_size=2.0), dict(workers=4.0), dict(group_size=True), dict(steps=3.0),
    dict(workers=4.0, group_size=True, steps=3.0, seed=1.5, hidden=(8, 2.0)),
    dict(hidden=(True,)),
], ids=["group-float", "workers-float", "group-bool", "steps-float", "several", "hidden-bool"])
def test_integer_fields_reject_floats_and_bools_before_touching_disk(tmp_path, fields):
    out = tmp_path / "runs"
    with pytest.raises(ConfigError) as err:
        run_experiment(ExperimentConfig(**fields), out_root=out)
    for field in fields:
        assert any(problem.startswith(field) for problem in err.value.problems), field
    assert not out.exists()


def test_integer_fields_take_numpy_integers():
    ExperimentConfig(workers=np.int64(4), group_size=np.int32(2),
                     hidden=(np.int64(8),)).validate()


@pytest.mark.parametrize("transport,plain_hash", [("sim", "a9e8349c"), ("tcp", "cdcfd54f")])
def test_numpy_integer_configs_run_and_write_plain_ints(tmp_path, transport, plain_hash):
    # the same run as the plain-int config, whose hash and config.json
    # bytes stay as they were; every int field is written as a plain int
    plain = preset_config("smoke", [f"transport={transport}"])
    numpy_ints = dataclasses.replace(
        plain, workers=np.int64(plain.workers), steps=np.int32(plain.steps),
        fusion_threshold=np.uint32(plain.fusion_threshold),
        hidden=tuple(np.int64(h) for h in plain.hidden))
    assert plain.config_hash() == numpy_ints.config_hash() == plain_hash
    written = {}
    for name, cfg in (("plain", plain), ("numpy", numpy_ints)):
        run_dir = Path(run_experiment(cfg, out_root=tmp_path / name)["run_dir"])
        written[name] = {f: (run_dir / f).read_bytes()
                         for f in ("config.json", "report.json", "metrics.csv")}
    assert written["numpy"]["config.json"] == written["plain"]["config.json"]
    assert written["numpy"]["metrics.csv"] == written["plain"]["metrics.csv"]
    for f in ("config.json", "report.json"):
        config = json.loads(written["numpy"][f])["config"]
        for field, kind in experiment._FIELD_TYPES.items():
            assert kind != "int" or type(config[field]) is int, (f, field)
        assert all(type(h) is int for h in config["hidden"])
    report = json.loads(written["numpy"]["report.json"])
    assert type(report["steps_run"]) is int
    assert report == {**json.loads(written["plain"]["report.json"]),
                      "run_dir": report["run_dir"]}


def test_dynamic_scale_backs_off_then_recovers(tmp_path):
    # 2**24 puts scaled gradients just over the half-precision ceiling, so
    # the first steps skip while the scale halves its way back under it
    cfg = small_config(samples=64, batch_size=16, hidden=(12,), steps=12,
                       loss_scale=2.0 ** 24, fusion_threshold=512)
    report = run_experiment(cfg, out_root=tmp_path)
    assert report["skipped_steps"] >= 1
    assert report["skipped_steps"] < report["steps_run"]
    assert report["loss_scale_end"] < 2.0 ** 24
    flags = [r["skipped"] for r in read_metrics(report)]
    first_ok = flags.index("0")
    assert first_ok >= 1
    assert all(f == "0" for f in flags[first_ok:])


def test_mixed_run_rounds_weights_after_every_step(tmp_path, monkeypatch):
    # the rounded weights every mixed pass reads are exactly the rounded
    # masters, after applied steps and after skipped ones alike
    states = []

    def check(net):
        masters = b"".join(g.master_w.tobytes() for g in net.groups)
        rounded = b"".join(net.rounded[g.name].tobytes() for g in net.groups)
        assert rounded == b"".join(quantize_tensor(g.master_w).tobytes()
                                   for g in net.groups)
        if not states or states[-1] != masters:
            states.append(masters)

    forward_backward = toymodel.DenseNet.forward_backward
    evaluate = experiment.evaluate

    def checked_pass(net, *args, **kwargs):
        check(net)
        return forward_backward(net, *args, **kwargs)

    def checked_evaluate(net, *args, **kwargs):
        check(net)
        return evaluate(net, *args, **kwargs)

    monkeypatch.setattr(toymodel.DenseNet, "forward_backward", checked_pass)
    monkeypatch.setattr(experiment, "evaluate", checked_evaluate)
    cfg = small_config(samples=64, batch_size=16, hidden=(12,), steps=8,
                       loss_scale=2.0 ** 24, fusion_threshold=512)
    assert cfg.mixed and cfg.scale_policy == "dynamic"
    report = run_experiment(cfg, out_root=tmp_path)
    assert 1 <= report["skipped_steps"] < report["steps_run"]
    assert len(states) == 1 + report["steps_run"] - report["skipped_steps"]


@pytest.mark.parametrize("steps", [1, 6])
def test_fp32_run_rounds_weights_once_at_construction(tmp_path, count_calls, steps):
    # one rounding of all masters at once, none after the steps, and the
    # rounding never goes through the binary16 patterns
    cfg = small_config(mixed=False, steps=steps)
    groups = toymodel.DenseNet([cfg.features, *cfg.hidden, cfg.classes]).groups
    calls = count_calls(halfprec.quantize_tensor, halfprec.f32_to_f16)
    report = run_experiment(cfg, out_root=tmp_path)
    assert report["skipped_steps"] == 0
    assert calls == {"quantize_tensor": [sum(g.size for g in groups)],
                     "f32_to_f16": []}


def test_run_dirs_share_one_stamp_and_hash(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "strftime", lambda fmt, t=None: "20260101-000000")
    cfg = small_config(steps=1)
    reports = [run_experiment(cfg, out_root=tmp_path) for _ in range(3)]
    base = f"20260101-000000-{cfg.config_hash()}"
    assert [Path(r["run_dir"]).name for r in reports] == [base, f"{base}-1", f"{base}-2"]
    for report in reports:
        saved = json.loads((Path(report["run_dir"]) / "config.json").read_text())
        assert saved["hash"] == report["config_hash"] == cfg.config_hash()


def test_run_dir_claim_survives_a_race(tmp_path, monkeypatch):
    # another run claims the name between a probe and the mkdir: the probe
    # says the name is free, and this run must still land in a fresh dir
    monkeypatch.setattr(time, "strftime", lambda fmt, t=None: "20260101-000000")
    cfg = small_config(steps=1)
    base = f"20260101-000000-{cfg.config_hash()}"
    (tmp_path / base).mkdir()
    monkeypatch.setattr(Path, "exists", lambda self, **kw: False)
    report = run_experiment(cfg, out_root=tmp_path)
    assert Path(report["run_dir"]).name == f"{base}-1"
    assert list((tmp_path / base).iterdir()) == []


def test_activation_stats_every_tenth_step(tmp_path):
    report = run_experiment(small_config(steps=21), out_root=tmp_path)
    records = read_jsonl(report, "activations.jsonl")
    assert sorted({r["step"] for r in records}) == [0, 10, 20]
    assert {r["layer"] for r in records} == {"layer0", "head"}
    for rec in records:
        assert math.isfinite(rec["mean"])
        assert rec["var"] >= 0.0


def test_ablation_pair_reports_both_arms():
    pair = ablation_pair("precision", preset_config("mixed-vs-fp32", [
        "steps=4", "samples=32", "batch_size=8", "workers=2", "hidden=8"]))
    assert pair["kind"] == "precision"
    assert pair["flipped"] == {"mixed": False}
    assert math.isfinite(pair["loss_with"])
    assert math.isfinite(pair["loss_without"])
    assert isinstance(pair["with_wins"], bool)
