"""Correctness checks computed apart from gradsync.

Each check reads the artifacts a run wrote and compares them with what
the benchmark derives itself from the config: the parameter layout of
the dense net, the greedy fusion rule, closed-form ring and hierarchical
byte counts, and alpha-beta times.  None of them calls into gradsync, and
none compares against a stored copy of earlier output.

Every check returns ``(name, ok, detail)``; a failed check counts as one
failed operation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ITEMSIZE = 4  # the runner all-reduces float32 gradients


def param_layout(cfg) -> list[tuple[str, int]]:
    """(name, element count) of every parameter tensor, in network order."""
    sizes = [cfg.features, *cfg.hidden, cfg.classes]
    out = []
    for i in range(len(sizes) - 1):
        hidden = i < len(sizes) - 2
        prefix = f"layer{i}" if hidden else "head"
        out.append((f"{prefix}.weight", sizes[i] * sizes[i + 1]))
        if hidden and cfg.use_bn:
            out.append((f"{prefix}.bn_gamma", sizes[i + 1]))
            out.append((f"{prefix}.bn_beta", sizes[i + 1]))
        else:
            out.append((f"{prefix}.bias", sizes[i + 1]))
    return out


def bucket_plan(cfg) -> list[list[str]]:
    """Greedy fusion: a bucket closes once its bytes exceed the threshold."""
    buckets, pending, pending_bytes = [], [], 0
    for name, n in param_layout(cfg):
        pending.append(name)
        pending_bytes += n * ITEMSIZE
        if pending_bytes > cfg.fusion_threshold:
            buckets.append(pending)
            pending, pending_bytes = [], 0
    if pending:
        buckets.append(pending)
    return buckets


def _chunks(n: int, parts: int) -> list[int]:
    base, extra = divmod(n, parts)
    return [(base + (i < extra)) * ITEMSIZE for i in range(parts)]


def collective_cost(cfg, nbytes: int) -> tuple[str, int, float]:
    """(algorithm, wire bytes, modeled seconds) of one bucket all-reduce.

    Ring: 2(p-1) rounds, each moving every chunk once; a round costs
    alpha plus its largest transfer over the bandwidth.  Hierarchical:
    intra-group reduce-scatter and pipelined gather, a ring across the
    p/k masters, then the mirrored scatter and all-gather.  Times are
    summed round by round, in schedule order.
    """
    p, k = cfg.workers, cfg.group_size
    n = nbytes // ITEMSIZE
    alpha, bw = cfg.alpha, cfg.bandwidth
    a_in = alpha if cfg.intra_alpha is None else cfg.intra_alpha
    bw_in = bw if cfg.intra_bandwidth is None else cfg.intra_bandwidth
    algorithm = "hierarchical" if nbytes < cfg.hybrid_eta else "ring"
    rounds: list[tuple[bool, int, int]] = []   # (intra, total bytes, max bytes)
    if p > 1 and algorithm == "ring":
        c = _chunks(n, p)
        rounds = [(False, sum(c), max(c))] * (2 * (p - 1))
    elif p > 1:
        groups = p // k
        c, gc = _chunks(n, k), _chunks(n, groups)
        if k > 1:
            rounds += [(True, groups * sum(c), max(c))] * (k - 1)
            rounds += [(True, groups * sum(c[s:]), max(c[s:])) for s in range(1, k)]
        if groups > 1:
            rounds += [(False, sum(gc), max(gc))] * (2 * (groups - 1))
        if k > 1:
            rounds += [(True, groups * sum(c[k - s:]), max(c[k - s:]))
                       for s in range(1, k)]
            rounds += [(True, groups * sum(c), max(c))] * (k - 1)
    secs, wire = 0.0, 0
    for intra, total, biggest in rounds:
        a, b = (a_in, bw_in) if intra else (alpha, bw)
        secs += a + biggest / b
        wire += total
    return algorithm, wire, secs


def read_run(run_dir) -> tuple[list[dict], list[dict]]:
    run_dir = Path(run_dir)
    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(run_dir / "fusion_trace.jsonl") as fh:
        trace = [json.loads(line) for line in fh]
    return rows, trace


def check_run(cfg, run_dir) -> list[tuple[str, bool, str]]:
    """Checks on one run directory's metrics.csv and fusion_trace.jsonl."""
    rows, trace = read_run(run_dir)
    out = []
    steps_ok = [int(r["step"]) for r in rows] == list(range(cfg.steps))
    out.append(("rows", steps_ok, f"{len(rows)} rows for {cfg.steps} steps"))
    losses = [float(r["loss"]) for r in rows]
    out.append(("finite_loss", all(math.isfinite(v) for v in losses),
                f"losses {losses[:1]}..{losses[-1:]}"))
    out.append(("loss_falls", bool(losses) and losses[-1] < losses[0],
                f"first {losses[:1]} final {losses[-1:]}"))

    layout = param_layout(cfg)
    names = [name for name, _ in layout]
    sizes = dict(layout)
    by_step: dict[int, list[dict]] = {}
    for rec in trace:
        by_step.setdefault(rec["step"], []).append(rec)

    fusion_bad, cost_bad = [], []
    for step in range(cfg.steps):
        recs = sorted(by_step.get(step, []), key=lambda r: r["batch_index"])
        ids = [tid for r in recs for tid in r["tensor_ids"]]
        ok = ([r["batch_index"] for r in recs] == list(range(len(recs)))
              and ids == names)
        for i, r in enumerate(recs):
            tensor_bytes = [sizes.get(t, 0) * ITEMSIZE for t in r["tensor_ids"]]
            ok = ok and r["bytes"] == sum(tensor_bytes)
            if i < len(recs) - 1:
                # over the threshold, and only because of its last tensor
                ok = (ok and r["bytes"] > cfg.fusion_threshold
                      and sum(tensor_bytes[:-1]) <= cfg.fusion_threshold)
        ok = ok and sum(r["bytes"] for r in recs) == sum(sizes.values()) * ITEMSIZE
        if not ok:
            fusion_bad.append(step)

        algos, wire, secs = set(), 0, 0.0
        for r in recs:
            algorithm, w, s = collective_cost(cfg, r["bytes"])
            algos.add(algorithm)
            wire += w
            secs += s
        row = rows[step] if step < len(rows) else {}
        if (row.get("wire_bytes") != str(wire)
                or row.get("comm_time") != f"{secs:.9g}"
                or row.get("algorithm") != ("+".join(sorted(algos)) or "none")):
            cost_bad.append(step)
    out.append(("fusion_cover", not fusion_bad, f"bad steps {fusion_bad[:5]}"))
    out.append(("wire_and_time", not cost_bad, f"bad steps {cost_bad[:5]}"))
    return out


def check_same_bytes(name: str, dir_a, dir_b, files) -> tuple[str, bool, str]:
    differ = [f for f in files
              if (Path(dir_a) / f).read_bytes() != (Path(dir_b) / f).read_bytes()]
    return name, not differ, f"differing files {differ}"


def check_bucket_mean(inputs, result, op: str) -> tuple[str, bool, str]:
    """Bitwise check of one all-reduced bucket against an ascending-rank
    float32 sum, element-wise over the ranks, divided by p for a mean."""
    acc = np.array(inputs[0], dtype=np.float32, copy=True)
    with np.errstate(over="ignore", invalid="ignore"):
        for rank in range(1, len(inputs)):
            acc = np.add(acc, inputs[rank], dtype=np.float32)
        if op == "mean":
            acc = np.divide(acc, np.float32(len(inputs)), dtype=np.float32)
    got = np.asarray(result, dtype=np.float32)
    ok = got.shape == acc.shape and bool(
        np.array_equal(got.view(np.uint32), acc.view(np.uint32)))
    return "bucket_mean", ok, f"{got.size} elements over {len(inputs)} ranks"
