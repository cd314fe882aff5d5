"""Deterministic data-parallel training runs with modeled communication.

``run_experiment`` claims a fresh run directory and goes prepare, step,
write.  ``_Run(cfg)`` prepares: the data, the net, the optimizer and the
bucket plan, whose cost it models once, so every step reports the same
``comm_time`` and ``wire_bytes``.  ``_step`` runs each worker's pass on
its shard and one ``reduce(grads)``, which all-reduces the gradient
matrix over the run's buckets and writes rank 0's mean into ``net.grad``,
then the loss-scale check and the optimizer step, and returns the
metrics.csv row.  ``reduce`` alone knows the transport: in memory, one
all-reduce per bucket, or one ``TcpCluster`` collective per step with the
whole bucket list.  ``_write`` writes metrics.csv,
fusion_trace.jsonl, activations.jsonl, config.json and report.json; every
step ships the same buckets, so it renders fusion_trace.jsonl from the
bucket plan, one line per step and bucket.
Time comes from the cost model, never the wall clock, so one seed gives
identical bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, count
from pathlib import Path

import numpy as np

from .collectives import (
    Topology,
    _is_whole,
    _schedule,
    choose_algorithm,
    hierarchical_allreduce,
    hierarchical_schedule,
    ring_allreduce,
    ring_schedule,
)
from .fusion import FusionBuffer, trace_record
from .halfprec import LossScale, unscale_gradients
from .lars import LarsConfig, Schedule, lars_step
from .netsim import LinkModel, simulate
from .tcp import TcpCluster
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

    def __post_init__(self):
        # numpy integers pass validate's whole-number check; keep them as
        # plain ints, which the config hash, the artifacts and TCP take
        for name, kind in _FIELD_TYPES.items():
            if kind == "int" and _is_whole(getattr(self, name)):
                setattr(self, name, int(getattr(self, name)))
        if isinstance(self.hidden, (list, tuple)):
            self.hidden = tuple(int(h) if _is_whole(h) else h for h in self.hidden)

    def validate(self) -> None:
        bad: list[str] = [f"{name} must be finite, got {value}"
                          for name, value in vars(self).items()
                          if isinstance(value, float) and not math.isfinite(value)]
        not_int = [f"{name} must be an integer, got {getattr(self, name)!r}"
                   for name, kind in _FIELD_TYPES.items()
                   if kind == "int" and not _is_whole(getattr(self, name))]
        if not all(map(_is_whole, self.hidden)):
            not_int.append(f"hidden sizes must be integers, got {self.hidden!r}")
        if not_int:  # the bounds below are for whole numbers
            raise ConfigError(bad + not_int)
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
        if self.schedule not in ("constant", "poly"):
            bad.append(f"schedule must be constant or poly, got {self.schedule!r}")
        elif self.schedule == "poly":
            if self.steps <= self.warmup_steps:
                bad.append("poly schedule needs steps > warmup_steps")
            if self.power <= 0:
                bad.append(f"power must be positive, got {self.power}")
            if not 0 <= self.end_lr <= self.base_lr:
                bad.append(f"end_lr must sit in [0, base_lr], got {self.end_lr}")
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
        if self.intra_alpha is not None and self.intra_alpha < 0:
            bad.append("intra_alpha must be >= 0")
        if self.intra_bandwidth is not None and self.intra_bandwidth <= 0:
            bad.append("intra_bandwidth must be positive")
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
        except (TypeError, ValueError, OverflowError) as exc:
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


def preset_config(name: str, overrides=(), path=None, base: dict | None = None
                  ) -> ExperimentConfig:
    """``load_config`` with a preset's fields over ``base``."""
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r}; known: "
                           f"{', '.join(sorted(PRESETS))}"])
    return load_config(path, overrides, base={**(base or {}), **PRESETS[name]})


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


class _Run:
    """One run, prepared before step 0: what every step reads, and what the
    steps leave (``stats`` records, the last ``grads``)."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.x, self.y = make_synthetic_dataset(cfg.samples, cfg.features, cfg.classes,
                                                seed=cfg.seed)
        self.net = net = DenseNet([cfg.features, *cfg.hidden, cfg.classes],
                                  use_bn=cfg.use_bn, seed=cfg.seed)
        for g in net.groups:
            g.lars_enabled = g.lars_enabled and cfg.lars_on
            g.decay_exempt = g.decay_exempt and cfg.decay_exempt_bias_bn
        self.group_ends = list(accumulate((g.size for g in net.groups), initial=0))

        sched = Schedule(base_lr=cfg.base_lr, kind=cfg.schedule,
                         warmup_steps=cfg.warmup_steps, total_steps=cfg.steps,
                         end_lr=cfg.end_lr, power=cfg.power)
        self.opt_cfg = LarsConfig(schedule=sched, eta=cfg.eta, epsilon=cfg.epsilon,
                                  weight_decay=cfg.weight_decay, momentum=cfg.momentum)
        self.scale = LossScale(scale=cfg.loss_scale, policy=cfg.scale_policy)
        link = LinkModel(alpha=cfg.alpha, beta_inv=cfg.bandwidth,
                         intra_group_alpha=cfg.intra_alpha,
                         intra_group_beta_inv=cfg.intra_bandwidth)

        # (lo, hi, batch, algorithm) per bucket, columns lo:hi of net.grad, each
        # costed from the cached schedule that its all-reduces will run
        fuser = FusionBuffer(cfg.fusion_threshold)
        planned = [fuser.enqueue(g.name, g.grad) for g in net.groups] + [fuser.flush()]
        planned = [batch for batch in planned if batch is not None]
        bounds = list(accumulate((batch.payload.size for batch in planned), initial=0))
        self.buckets = [(lo, hi, batch, choose_algorithm(batch.nbytes, cfg.hybrid_eta))
                        for lo, hi, batch in zip(bounds, bounds[1:], planned)]
        costs = [simulate(_schedule(algorithm, cfg.workers, cfg.group_size, hi - lo,
                                    net.grad.itemsize), link)
                 for lo, hi, _, algorithm in self.buckets]
        self.comm_time = sum(cost.total_time for cost in costs)
        self.wire_bytes = sum(cost.bytes_on_wire for cost in costs)
        self.stats = []  # activations.jsonl


@contextmanager
def _reducer(run: _Run):
    """Yields ``reduce(grads)``, which all-reduces the (workers x elems)
    gradient matrix over the run's buckets and writes rank 0's mean into
    ``net.grad``: in memory, one all-reduce per bucket, or in one
    collective per step on a ``TcpCluster`` that the context closes."""
    cfg, buckets, grad = run.cfg, run.buckets, run.net.grad
    topo = Topology(cfg.workers, cfg.group_size)
    if cfg.transport == "tcp" and cfg.workers > 1:
        sizes = [(hi - lo, algorithm) for lo, hi, _, algorithm in buckets]
        with TcpCluster(cfg.workers) as cluster:
            def reduce(grads):
                grad[:] = cluster.allreduce(grads, algorithm=sizes, k=topo.k, op="mean",
                                            result_rank=0)[0][0]
            yield reduce
    else:
        def reduce(grads):
            for lo, hi, _, algorithm in buckets:
                allreduce = (hierarchical_allreduce if algorithm == "hierarchical"
                             else ring_allreduce)
                grad[lo:hi] = allreduce(list(grads[:, lo:hi]), topo, op="mean")[0][0]
        yield reduce


def _step(run: _Run, step: int, reduce) -> dict:
    """One training step; returns its metrics.csv row."""
    cfg, net, scale = run.cfg, run.net, run.scale
    take = (np.arange(cfg.batch_size) + step * cfg.batch_size) % cfg.samples
    bx, by = run.x[take], run.y[take]
    shard_len = cfg.batch_size // cfg.workers
    step_scale = scale.scale
    collect = run.stats if step % 10 == 0 else None
    shard_losses = []
    # A fresh matrix every step: the all-reduce inputs are views of it, and
    # a caller that wraps the all-reduce may keep them.  The run holds it till
    # the next one exists; freed at step end, its pages go back to the OS.
    grads = run.grads = np.empty((cfg.workers, net.grad.size), dtype=np.float32)
    for w in range(cfg.workers):
        sl = slice(w * shard_len, (w + 1) * shard_len)
        shard_losses.append(net.forward_backward(
            bx[sl], by[sl], mixed=cfg.mixed, loss_scale=step_scale,
            collect_stats=collect if w == 0 else None, stats_step=step))
        grads[w] = net.grad

    # Overflowed gradients travel through the collective on steps the
    # scale policy is about to skip, so non-finite sums are expected.
    with np.errstate(over="ignore", invalid="ignore"):
        reduce(grads)

    applied = scale.update(net.grad)
    grad_norm = 0.0
    if applied:
        net.grad[:] = unscale_gradients(net.grad, step_scale)
        # one float64 widening; the per-group dots still add up in group order
        grad64 = net.grad.astype(np.float64)
        grad_norm = float(np.sqrt(sum(float(np.dot(grad64[lo:hi], grad64[lo:hi]))
                                      for lo, hi in zip(run.group_ends, run.group_ends[1:]))))
        applied = lars_step(net.groups, run.opt_cfg, step)
        if applied and cfg.mixed:
            net.round_weights()

    return {
        "step": step,
        "loss": f"{float(np.mean(shard_losses)):.9g}",
        "scale": f"{step_scale:.9g}",
        "skipped": 0 if applied else 1,
        "grad_norm": f"{grad_norm:.9g}",
        "algorithm": "+".join(sorted({a for _, _, _, a in run.buckets})),
        "comm_time": f"{run.comm_time:.9g}",
        "wire_bytes": run.wire_bytes,
    }


def _write(run_dir: Path, config_hash: str, run: _Run, rows: list, final: dict) -> dict:
    """Write the five artifacts; returns the report."""
    cfg = run.cfg
    config = cfg.to_dict()
    algorithms = [a for _, _, _, a in run.buckets]
    report = {
        "config": config,
        "config_hash": config_hash,
        "steps_run": cfg.steps,
        "skipped_steps": sum(row["skipped"] for row in rows),
        "final_loss": final["loss"],
        "final_accuracy": final["accuracy"],
        "loss_scale_end": run.scale.scale,
        "algorithm_batches": {a: algorithms.count(a) * cfg.steps
                              for a in ("ring", "hierarchical")},
        "modeled_comm_seconds": run.comm_time * cfg.steps,
        "wire_bytes": run.wire_bytes * cfg.steps,
        "run_dir": str(run_dir),
    }
    with open(run_dir / "metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    # A bucket's record differs from step to step only in "step", its first
    # key: encode the rest once per bucket and prefix each step's number.
    tails = [json.dumps(trace_record(0, b, batch)).partition(", ")[2] + "\n"
             for b, (_, _, batch, _) in enumerate(run.buckets)]
    with open(run_dir / "fusion_trace.jsonl", "w") as fh:
        fh.writelines(f'{{"step": {step}, {tail}'
                      for step in range(cfg.steps) for tail in tails)
    with open(run_dir / "activations.jsonl", "w") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in run.stats)
    (run_dir / "config.json").write_text(
        json.dumps({"config": config, "hash": config_hash}, indent=2) + "\n")
    (run_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_experiment(cfg: ExperimentConfig, out_root=None) -> dict:
    cfg = dataclasses.replace(cfg)  # a copy, with plain ints (see __post_init__)
    cfg.validate()
    out_base = Path(out_root if out_root is not None else cfg.out_dir)
    config_hash = cfg.config_hash()
    name = f"{time.strftime('%Y%m%d-%H%M%S', time.gmtime())}-{config_hash}"
    out_base.mkdir(parents=True, exist_ok=True)
    # mkdir is the claim, so two runs racing for one name never both get it
    for suffix in count():
        run_dir = out_base / (f"{name}-{suffix}" if suffix else name)
        try:
            run_dir.mkdir()
            break
        except FileExistsError:
            pass

    run = _Run(cfg)
    with _reducer(run) as reduce:
        rows = [_step(run, step, reduce) for step in range(cfg.steps)]
    final = evaluate(run.net, run.x, run.y, mixed=cfg.mixed)
    return _write(run_dir, config_hash, run, rows, final)


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


# what the second arm of each ablation pair turns off
_FLIPS = {"lars": {"lars_on": False}, "decay": {"decay_exempt_bias_bn": False},
          "precision": {"mixed": False}}


def ablation_pair(kind: str, base: ExperimentConfig) -> dict:
    """Run ``base`` and a copy of it with one switch turned off.

    kind: "lars" (norm-quotient rates), "decay" (bias and batch norm
    decay exemption), or "precision" (mixed vs float32).
    """
    import tempfile

    if kind not in _FLIPS:
        raise ConfigError([f"unknown ablation {kind!r}"])
    flips = _FLIPS[kind]
    variant = dataclasses.replace(base, **flips)
    with tempfile.TemporaryDirectory() as tmp:
        rep_on = run_experiment(base, out_root=tmp)
        rep_off = run_experiment(variant, out_root=tmp)
    on, off = rep_on["final_loss"], rep_off["final_loss"]
    # a diverged run (non-finite loss) loses outright
    wins = math.isfinite(on) and (not math.isfinite(off) or on <= off)
    return {
        "kind": kind,
        "seed": base.seed,
        "flipped": flips,
        "loss_with": on,
        "loss_without": off,
        "accuracy_with": rep_on["final_accuracy"],
        "accuracy_without": rep_off["final_accuracy"],
        "with_wins": wins,
    }
