"""Deterministic data-parallel training runs with modeled communication.

A run shards each batch across simulated workers, fuses the per-worker
gradients into threshold-sized buffers, all-reduces every buffer with
the size-based algorithm choice, and applies the shared optimizer step
to one replica.  Communication time comes from the alpha-beta cost
model, never the wall clock, so two runs with the same seed produce
byte-identical metrics files.  Artifacts land in a fresh directory per
run: metrics.csv, fusion_trace.jsonl, activations.jsonl, config.json,
and report.json.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .collectives import (
    Topology,
    choose_algorithm,
    hierarchical_allreduce,
    hierarchical_schedule,
    ring_allreduce,
    ring_schedule,
)
from .fusion import FusedBatch, FusionBuffer, trace_record, unpack
from .halfprec import LossScale, unscale_gradients
from .lars import LarsConfig, Schedule, lars_step
from .netsim import LinkModel, simulate
from .toymodel import DenseNet, evaluate, make_synthetic_dataset

__all__ = ["ConfigError", "ExperimentConfig", "run_experiment", "compare_runs",
           "PRESETS", "preset_config", "stepcount_table", "ablation_pair"]


class ConfigError(ValueError):
    """Carries every violation found, not just the first."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class ExperimentConfig:
    # data and model
    seed: int = 0
    workers: int = 4
    group_size: int = 1
    features: int = 16
    classes: int = 4
    hidden: tuple = (32,)
    samples: int = 256
    batch_size: int = 64
    steps: int = 40
    use_bn: bool = False
    loss: str = "softmax_ce"
    # optimizer
    base_lr: float = 0.1
    schedule: str = "constant"
    warmup_steps: int = 0
    end_lr: float = 0.0
    power: float = 2.0
    eta: float = 0.001
    epsilon: float = 0.0
    weight_decay: float = 0.0001
    momentum: float = 0.9
    decay_exempt_bias_bn: bool = True
    lars_on: bool = True
    # precision
    mixed: bool = True
    loss_scale: float = 1024.0
    scale_policy: str = "dynamic"
    # communication
    fusion_threshold: int = 4096
    hybrid_eta: int = 0
    transport: str = "sim"
    # cost model
    alpha: float = 1e-5
    bandwidth: float = 1e9
    intra_alpha: float | None = None
    intra_bandwidth: float | None = None
    out_dir: str = "runs"

    def validate(self) -> None:
        bad: list[str] = []
        if self.workers < 1:
            bad.append(f"workers must be >= 1, got {self.workers}")
        elif self.group_size < 1 or self.workers % self.group_size != 0:
            bad.append(f"group_size must divide workers, got {self.group_size} "
                       f"vs {self.workers}")
        if self.features < 1:
            bad.append("features must be >= 1")
        if self.classes < 2:
            bad.append("classes must be >= 2")
        if any(h < 1 for h in self.hidden):
            bad.append(f"hidden sizes must be >= 1, got {self.hidden}")
        if self.samples < 1:
            bad.append("samples must be >= 1")
        if self.batch_size < 1 or self.batch_size > self.samples:
            bad.append(f"batch_size must sit in [1, samples], got {self.batch_size}")
        elif self.workers >= 1 and self.batch_size % max(self.workers, 1) != 0:
            bad.append(f"batch_size {self.batch_size} must split evenly over "
                       f"{self.workers} workers")
        elif self.use_bn and self.batch_size // max(self.workers, 1) < 2:
            bad.append("batch norm needs at least 2 samples per worker shard")
        if self.steps < 1:
            bad.append("steps must be >= 1")
        if self.loss not in ("softmax_ce", "mse"):
            bad.append(f"loss must be softmax_ce or mse, got {self.loss!r}")
        if self.schedule not in ("constant", "poly"):
            bad.append(f"schedule must be constant or poly, got {self.schedule!r}")
        elif self.schedule == "poly" and self.steps <= self.warmup_steps:
            bad.append("poly schedule needs steps > warmup_steps")
        if self.warmup_steps < 0:
            bad.append("warmup_steps must be >= 0")
        if self.base_lr <= 0:
            bad.append("base_lr must be positive")
        if self.eta <= 0:
            bad.append("eta must be positive")
        if self.epsilon < 0:
            bad.append("epsilon must be >= 0")
        if self.weight_decay < 0:
            bad.append("weight_decay must be >= 0")
        if not 0 <= self.momentum < 1:
            bad.append(f"momentum must be in [0, 1), got {self.momentum}")
        if self.loss_scale <= 0:
            bad.append("loss_scale must be positive")
        if self.scale_policy not in ("dynamic", "fixed"):
            bad.append(f"scale_policy must be dynamic or fixed, got "
                       f"{self.scale_policy!r}")
        if self.fusion_threshold < 0:
            bad.append("fusion_threshold must be >= 0")
        if self.hybrid_eta < 0:
            bad.append("hybrid_eta must be >= 0")
        if self.transport not in ("sim", "tcp"):
            bad.append(f"transport must be sim or tcp, got {self.transport!r}")
        if self.alpha < 0:
            bad.append("alpha must be >= 0")
        if self.bandwidth <= 0:
            bad.append("bandwidth must be positive")
        if bad:
            raise ConfigError(bad)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["hidden"] = list(self.hidden)
        return doc

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha1(canon.encode()).hexdigest()[:8]


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(name: str, raw):
    """Coerce a JSON or command-line value into a config field's type."""
    if name == "hidden":
        if isinstance(raw, (list, tuple)):
            return tuple(int(v) for v in raw)
        return tuple(int(v) for v in str(raw).split(",") if v != "")
    if name in ("intra_alpha", "intra_bandwidth"):
        if raw is None or raw == "" or raw == "none":
            return None
        return float(raw)
    current = getattr(ExperimentConfig(), name)
    if isinstance(current, bool):
        if isinstance(raw, bool):
            return raw
        lowered = str(raw).lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return str(raw)


def load_config(path=None, overrides=(), base: dict | None = None) -> ExperimentConfig:
    """Build a config from defaults, a JSON file, and key=value overrides.

    Every unknown key and unparsable value is collected before raising,
    so a bad invocation reports all its problems at once.
    """
    doc = dict(base or {})
    problems: list[str] = []
    if path is not None:
        try:
            doc.update(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    for item in overrides:
        if "=" not in item:
            problems.append(f"override {item!r} is not key=value")
            continue
        key, value = item.split("=", 1)
        doc[key] = value

    kwargs = {}
    for key, value in doc.items():
        if key not in _FIELD_TYPES:
            problems.append(f"unknown config key {key!r}")
            continue
        try:
            kwargs[key] = _parse_value(key, value)
        except (TypeError, ValueError) as exc:
            problems.append(f"bad value for {key!r}: {exc}")
    cfg = ExperimentConfig(**kwargs)
    try:
        cfg.validate()
    except ConfigError as exc:
        problems.extend(exc.problems)
    if problems:
        raise ConfigError(problems)
    return cfg


# --- presets ----------------------------------------------------------------

PRESETS: dict[str, dict] = {
    "smoke": {
        "workers": 2, "samples": 64, "batch_size": 16, "steps": 8,
        "hidden": (12,), "fusion_threshold": 512,
    },
    "lars-ablation": {
        # aggressive rate at a large batch: plain momentum diverges
        # here, the norm-quotient rate keeps the run stable
        "workers": 4, "samples": 240, "batch_size": 120, "steps": 40,
        "hidden": (24,), "base_lr": 2.0, "eta": 0.01,
    },
    "decay-ablation": {
        "workers": 4, "samples": 240, "batch_size": 48, "steps": 60,
        "hidden": (24,), "base_lr": 0.3, "use_bn": True,
        "weight_decay": 0.01,
    },
    "mixed-vs-fp32": {
        "workers": 2, "samples": 128, "batch_size": 32, "steps": 30,
        "hidden": (16,),
    },
    "large-batch": {
        "workers": 8, "group_size": 4, "samples": 512, "batch_size": 256,
        "steps": 50, "hidden": (48,), "base_lr": 0.5, "schedule": "poly",
        "warmup_steps": 10, "weight_decay": 0.0005,
    },
}


def preset_config(name: str, overrides=()) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r}; known: "
                           f"{', '.join(sorted(PRESETS))}"])
    return load_config(None, overrides, base=PRESETS[name])


def stepcount_table() -> dict:
    """Step counts of both algorithms at the flagship worker counts."""
    rows = []
    for p, k in [(16, 4), (64, 8), (256, 16), (1024, 16)]:
        ring = ring_schedule(p, 0).total_steps
        hier = hierarchical_schedule(Topology(p, k), 0).total_steps
        rows.append({"workers": p, "group_size": k, "ring_steps": ring,
                     "hierarchical_steps": hier,
                     "ratio": round(ring / hier, 3)})
    return {"table": rows}


# --- the run itself ---------------------------------------------------------


def _fused_allreduce(worker_batches, topo, link, eta_bytes, cluster=None):
    """All-reduce one aligned set of per-worker fused batches.

    Returns (mean payload, algorithm, modeled seconds, wire bytes).
    """
    payloads = [wb.payload for wb in worker_batches]
    nbytes = worker_batches[0].nbytes
    algorithm = choose_algorithm(nbytes, eta_bytes)
    # Overflowed gradients travel through the collective on steps the scale
    # policy is about to skip, so non-finite sums are expected here.
    with np.errstate(over="ignore", invalid="ignore"):
        if cluster is not None:
            results, sched = cluster.allreduce(payloads, algorithm=algorithm,
                                               k=topo.k, op="mean")
        elif algorithm == "hierarchical":
            results, sched = hierarchical_allreduce(payloads, topo, op="mean")
        else:
            results, sched = ring_allreduce(payloads, topo, op="mean")
    report = simulate(sched, link)
    return results[0], algorithm, report.total_time, report.bytes_on_wire


def run_experiment(cfg: ExperimentConfig, out_root=None) -> dict:
    cfg.validate()
    out_base = Path(out_root if out_root is not None else cfg.out_dir)
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    run_dir = out_base / f"{stamp}-{cfg.config_hash()}"
    suffix = 0
    while run_dir.exists():
        suffix += 1
        run_dir = out_base / f"{stamp}-{cfg.config_hash()}-{suffix}"
    run_dir.mkdir(parents=True)

    x, y = make_synthetic_dataset(cfg.samples, cfg.features, cfg.classes,
                                  seed=cfg.seed)
    net = DenseNet([cfg.features, *cfg.hidden, cfg.classes],
                   use_bn=cfg.use_bn, loss=cfg.loss, seed=cfg.seed)
    if not cfg.lars_on:
        for g in net.groups:
            g.lars_enabled = False
    if not cfg.decay_exempt_bias_bn:
        for g in net.groups:
            g.decay_exempt = False

    sched = Schedule(base_lr=cfg.base_lr, kind=cfg.schedule,
                     warmup_steps=cfg.warmup_steps, total_steps=cfg.steps,
                     end_lr=cfg.end_lr, power=cfg.power)
    opt_cfg = LarsConfig(schedule=sched, eta=cfg.eta, epsilon=cfg.epsilon,
                         weight_decay=cfg.weight_decay, momentum=cfg.momentum)
    scale = LossScale(scale=cfg.loss_scale, policy=cfg.scale_policy)
    topo = Topology(cfg.workers, cfg.group_size)
    link = LinkModel(alpha=cfg.alpha, beta_inv=cfg.bandwidth,
                     intra_group_alpha=cfg.intra_alpha,
                     intra_group_beta_inv=cfg.intra_bandwidth)

    cluster = None
    if cfg.transport == "tcp" and cfg.workers > 1:
        from .tcp import TcpCluster
        cluster = TcpCluster(cfg.workers)

    shard_len = cfg.batch_size // cfg.workers
    skipped = 0
    algo_counts = {"ring": 0, "hierarchical": 0}
    comm_total = 0.0
    wire_total = 0
    stats_records: list[dict] = []
    trace_records: list[dict] = []
    metrics_rows: list[dict] = []

    try:
        for step in range(cfg.steps):
            take = (np.arange(cfg.batch_size) + step * cfg.batch_size) % cfg.samples
            bx, by = x[take], y[take]

            step_scale = scale.scale
            shard_losses = []
            worker_grads: list[dict[str, np.ndarray]] = []
            collect = stats_records if step % 10 == 0 else None
            for w in range(cfg.workers):
                sl = slice(w * shard_len, (w + 1) * shard_len)
                loss = net.forward_backward(
                    bx[sl], by[sl], mixed=cfg.mixed, loss_scale=step_scale,
                    collect_stats=collect if w == 0 else None, stats_step=step)
                shard_losses.append(loss)
                worker_grads.append({g.name: g.grad.copy() for g in net.groups})

            buffers = [FusionBuffer(cfg.fusion_threshold)
                       for _ in range(cfg.workers)]
            step_batches: list[list[FusedBatch]] = [[] for _ in range(cfg.workers)]
            for g in net.groups:
                for w in range(cfg.workers):
                    emitted = buffers[w].enqueue(g.name, worker_grads[w][g.name])
                    if emitted is not None:
                        step_batches[w].append(emitted)
            for w in range(cfg.workers):
                tail = buffers[w].flush()
                if tail is not None:
                    step_batches[w].append(tail)

            merged: dict[str, np.ndarray] = {}
            step_comm = 0.0
            step_wire = 0
            step_algos = set()
            for b_idx in range(len(step_batches[0])):
                aligned = [step_batches[w][b_idx] for w in range(cfg.workers)]
                mean_payload, algorithm, secs, wire = _fused_allreduce(
                    aligned, topo, link, cfg.hybrid_eta, cluster)
                algo_counts[algorithm] += 1
                step_algos.add(algorithm)
                step_comm += secs
                step_wire += wire
                trace_records.append(trace_record(step, b_idx, aligned[0]))
                averaged = FusedBatch(payload=mean_payload,
                                      unpack_map=aligned[0].unpack_map)
                for name, tensor in unpack(averaged):
                    merged[name] = tensor
            comm_total += step_comm
            wire_total += step_wire

            for g in net.groups:
                g.grad[:] = merged[g.name]
            applied = scale.update([g.grad for g in net.groups])
            grad_norm = 0.0
            if applied:
                for g in net.groups:
                    g.grad[:] = unscale_gradients(g.grad, step_scale)
                grad_norm = float(np.sqrt(sum(
                    float(np.dot(g.grad.astype(np.float64),
                                 g.grad.astype(np.float64)))
                    for g in net.groups)))
                applied = lars_step(net.groups, opt_cfg, step)
            if not applied:
                skipped += 1

            metrics_rows.append({
                "step": step,
                "loss": f"{float(np.mean(shard_losses)):.9g}",
                "scale": f"{step_scale:.9g}",
                "skipped": 0 if applied else 1,
                "grad_norm": f"{grad_norm:.9g}",
                "algorithm": "+".join(sorted(step_algos)) if step_algos else "none",
                "comm_time": f"{step_comm:.9g}",
                "wire_bytes": step_wire,
            })
    finally:
        if cluster is not None:
            cluster.close()

    final = evaluate(net, x, y, mixed=cfg.mixed)
    report = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "steps_run": cfg.steps,
        "skipped_steps": skipped,
        "final_loss": final["loss"],
        "final_accuracy": final["accuracy"],
        "loss_scale_end": scale.scale,
        "algorithm_batches": algo_counts,
        "modeled_comm_seconds": comm_total,
        "wire_bytes": wire_total,
        "run_dir": str(run_dir),
    }

    with open(run_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(metrics_rows[0].keys()))
        writer.writeheader()
        writer.writerows(metrics_rows)
    with open(run_dir / "fusion_trace.jsonl", "w") as fh:
        for rec in trace_records:
            fh.write(json.dumps(rec) + "\n")
    with open(run_dir / "activations.jsonl", "w") as fh:
        for rec in stats_records:
            fh.write(json.dumps(rec) + "\n")
    (run_dir / "config.json").write_text(
        json.dumps({"config": cfg.to_dict(), "hash": cfg.config_hash()},
                   indent=2) + "\n")
    (run_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def compare_runs(dir_a, dir_b) -> dict:
    """Line up two run directories; flags metric divergence."""
    def load(d):
        d = Path(d)
        report = json.loads((d / "report.json").read_text())
        with open(d / "metrics.csv") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
            fields = reader.fieldnames
        return report, rows, fields

    rep_a, rows_a, fields_a = load(dir_a)
    rep_b, rows_b, fields_b = load(dir_b)
    if fields_a != fields_b:
        raise ValueError(f"metric schemas differ: {fields_a} vs {fields_b}")
    if len(rows_a) != len(rows_b):
        raise ValueError(f"runs have different lengths: "
                         f"{len(rows_a)} vs {len(rows_b)} steps")
    config_diffs = {
        key: [rep_a["config"].get(key), rep_b["config"].get(key)]
        for key in set(rep_a["config"]) | set(rep_b["config"])
        if rep_a["config"].get(key) != rep_b["config"].get(key)
    }
    steps = len(rows_a)
    max_loss_delta = max(
        (abs(float(rows_a[i]["loss"]) - float(rows_b[i]["loss"]))
         for i in range(steps)), default=0.0)
    identical_metrics = all(rows_a[i] == rows_b[i] for i in range(steps))
    return {
        "config_diffs": config_diffs,
        "final_loss": [rep_a["final_loss"], rep_b["final_loss"]],
        "final_accuracy": [rep_a["final_accuracy"], rep_b["final_accuracy"]],
        "max_step_loss_delta": max_loss_delta,
        "identical_metrics": identical_metrics,
    }


def ablation_pair(kind: str, seed: int = 0, overrides=()) -> dict:
    """Run a matched pair of experiments differing in one switch.

    kind: "lars" (norm-quotient rates on/off), "decay" (bias and batch
    norm decay exemption on/off), or "precision" (mixed vs float32).
    """
    import tempfile

    if kind == "lars":
        base = preset_config("lars-ablation", overrides)
        flips = {"lars_on": False}
    elif kind == "decay":
        base = preset_config("decay-ablation", overrides)
        flips = {"decay_exempt_bias_bn": False}
    elif kind == "precision":
        base = preset_config("mixed-vs-fp32", overrides)
        flips = {"mixed": False}
    else:
        raise ConfigError([f"unknown ablation {kind!r}"])

    base.seed = seed
    variant = dataclasses.replace(base, **flips)
    with tempfile.TemporaryDirectory() as tmp:
        rep_on = run_experiment(base, out_root=tmp)
        rep_off = run_experiment(variant, out_root=tmp)
    on, off = rep_on["final_loss"], rep_off["final_loss"]
    # a diverged run (non-finite loss) loses outright
    wins = math.isfinite(on) and (not math.isfinite(off) or on <= off)
    return {
        "kind": kind,
        "seed": seed,
        "flipped": flips,
        "loss_with": on,
        "loss_without": off,
        "accuracy_with": rep_on["final_accuracy"],
        "accuracy_without": rep_off["final_accuracy"],
        "with_wins": wins,
    }
