#!/usr/bin/env python3
"""Training benchmark for gradsync: three workloads, checked and traced.

    python3 bench/run.py --workload train-mixed --seed 1 --seconds 20 --trace 0

Each workload calls ``gradsync.experiment.run_experiment`` in-process,
over and over with the same config and ``--seed``, until ``--seconds``
have passed (and at least two calls and 100 timed steps are done).
Step boundaries come from a wrapper around ``DenseNet.forward_backward``
installed from outside the program; the first step of every call is a
warm-up and is not timed.  After the timed region every run directory
is checked against the benchmark's own closed forms (see checks.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first repeats
the untraced measurement for half the time, then installs the layer
tracer (layertrace.py) for the other half and prints the per-layer metrics,
including the tracing overhead.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Details and
spans go to ``bench/out/<workload>-seed<n>-trace<t>/``.

Exit codes: 0 done; 1 failed rounds left a phase with fewer than 100
good timed steps, so the result line has counts but no metrics; 2 bad
usage or no gradsync source next to the benchmark.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from bisect import bisect_left
from pathlib import Path

# one BLAS thread: the nets are tiny, and a second thread only adds
# scheduling noise on a two-CPU machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))
from checks import bucket_plan, check_run, check_same_bytes  # noqa: E402
from layertrace import StepClock, Tracer  # noqa: E402
from probe import REFERENCE_MS, Probe  # noqa: E402

MIN_ROUNDS = 2
MIN_TIMED_STEPS = 100
# a phase gives up after this many failed rounds rather than spin on a fault
MAX_FAILED_ROUNDS = 10

# Each workload stresses different layers; see README.md for the numbers.
# Set-up and tear-down are CPU work on every workload and are always divided
# by the probe; step times only where ``scale_steps`` is set (not on
# train-tcp, whose steps wait on timer-driven TCP stalls).
WORKLOADS = {
    "train-mixed": {
        "scale_steps": True,
        "config": dict(
            workers=8, group_size=4, features=32, classes=8, hidden=(128, 128),
            samples=1024, batch_size=256, steps=30, mixed=True,
            scale_policy="dynamic", loss_scale=1024.0,
            base_lr=0.5, schedule="poly", warmup_steps=5, weight_decay=0.0005,
            fusion_threshold=32768, hybrid_eta=32768, transport="sim"),
    },
    "train-fp32-fused": {
        "scale_steps": True,
        "config": dict(
            workers=8, group_size=2, features=16, classes=4, hidden=(16,) * 12,
            samples=512, batch_size=64, steps=60, mixed=False,
            base_lr=0.2, fusion_threshold=256, hybrid_eta=1056, transport="sim"),
    },
    "train-tcp": {
        "scale_steps": False,
        "config": dict(
            workers=4, group_size=2, features=64, classes=4, hidden=(256,),
            samples=512, batch_size=64, steps=6, mixed=False,
            base_lr=0.2, fusion_threshold=32768, hybrid_eta=32768,
            transport="tcp"),
    },
}


def load_gradsync():
    """Import gradsync from the source tree next to the benchmark."""
    if not (SRC / "gradsync" / "__init__.py").is_file():
        raise FileNotFoundError(f"no gradsync source under {SRC}")
    sys.path.insert(0, str(SRC))
    import gradsync
    import gradsync.experiment
    import gradsync.tcp
    if Path(gradsync.__file__).resolve().parent != (SRC / "gradsync").resolve():
        raise ImportError(f"imported gradsync from {gradsync.__file__}, not {SRC}")
    return gradsync


def make_config(g, workload: str, seed: int):
    cfg = g.experiment.ExperimentConfig(seed=seed, **WORKLOADS[workload]["config"])
    cfg.validate()
    return cfg


class Session:
    """One benchmark process: timed rounds, checks, and the result."""

    def __init__(self, g, cfg, out: Path):
        self.g, self.cfg, self.out = g, cfg, out
        self.probe = Probe()
        for _ in range(20):
            self.probe()
        self.clock = StepClock(g, cfg.workers, self.probe)
        self.buckets = len(bucket_plan(cfg))
        self.rounds: list[tuple[str | None, object]] = []   # (run dir, RoundTimes)
        self.failed_ops = 0
        self.checks: list[tuple[str, bool, str]] = []

    def timed(self, seconds: float) -> list:
        """Run rounds for ``seconds``; returns the RoundTimes of this phase."""
        phase = []
        deadline = time.perf_counter() + seconds
        timed_steps = failed_rounds = 0
        while (len(phase) < MIN_ROUNDS or timed_steps < MIN_TIMED_STEPS
               or time.perf_counter() < deadline):
            try:
                report, rt = self.clock.run(self.cfg, self.out / "runs")
            except Exception as exc:  # a failed round counts, and the run goes on
                if self.failed_ops:
                    print(f"bench: round failed: {exc!r}", file=sys.stderr)
                else:
                    traceback.print_exc()
                self.failed_ops += self.cfg.steps * (1 + self.buckets)
                self.rounds.append((None, None))
                failed_rounds += 1
                if failed_rounds >= MAX_FAILED_ROUNDS or time.perf_counter() >= deadline:
                    break
                continue
            self.rounds.append((report["run_dir"], rt))
            phase.append(rt)
            timed_steps += self.cfg.steps - 1
        return phase

    def run_checks(self) -> None:
        files = ("metrics.csv", "fusion_trace.jsonl")
        first = next((d for d, _ in self.rounds if d is not None), None)
        for i, (run_dir, _) in enumerate(self.rounds):
            if run_dir is None:
                self.checks += [("round_failed", False, f"round {i}")] * (5 + bool(i))
                continue
            try:
                self.checks += check_run(self.cfg, run_dir)
            except (OSError, ValueError, KeyError) as exc:
                self.checks += [("unreadable_run", False, f"round {i}: {exc}")] * 5
            if i:
                self.checks.append(check_same_bytes(
                    "same_seed_same_bytes", first, run_dir, files))
        if self.cfg.transport == "tcp" and first is not None:
            sim = dataclasses.replace(self.cfg, transport="sim")
            try:
                report = self.g.experiment.run_experiment(sim, out_root=self.out / "sim")
            except Exception as exc:
                self.checks.append(("tcp_equals_sim", False, f"sim run raised {exc!r}"))
            else:
                self.checks.append(check_same_bytes(
                    "tcp_equals_sim", first, report["run_dir"], ("metrics.csv",)))

    def attempted(self) -> int:
        return len(self.rounds) * self.cfg.steps * (1 + self.buckets) + len(self.checks)

    def failed(self) -> int:
        return self.failed_ops + sum(not ok for _, ok, _ in self.checks)


def _ms(ns) -> float:
    return ns / 1e6


def round_times(rounds, scale_steps: bool, scale_ends: bool):
    """Timed step times (ms, every step but the first of each round), and
    per-round setup and teardown (s), each probe-scaled when asked."""
    steps, setups, teardowns = [], [], []
    for rt in rounds:
        f = rt.factors(REFERENCE_MS * 1e6)
        fs = f if scale_steps else [1.0] * rt.steps
        fe = f if scale_ends else [1.0] * rt.steps
        steps += [_ms(ns) * x for ns, x in zip(rt.step_ns()[1:], fs[1:])]
        setups.append(rt.setup_ns * fe[0] / 1e9)
        teardowns.append(rt.teardown_ns * fe[-1] / 1e9)
    return steps, setups, teardowns


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(cfg, rounds, scale_steps: bool, scale_ends: bool, rss_mb: float) -> dict:
    steps, setups, teardowns = round_times(rounds, scale_steps, scale_ends)
    return {
        "samples_per_s": (cfg.batch_size * len(steps)) / (sum(steps) / 1e3),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": p90(steps),
        "setup_s": statistics.median(setups),
        "teardown_s": statistics.median(teardowns),
        "peak_rss_mb": rss_mb,
    }


E2E_UNITS = {"samples_per_s": "samples/s", "step_ms_p50": "ms", "step_ms_p90": "ms",
             "setup_s": "s", "teardown_s": "s", "peak_rss_mb": "MiB"}


def layer_metrics(tracer, rounds, scale_steps: bool) -> dict:
    """Per-step means over the traced timed steps, plus per-round medians.

    Times are scaled like the end-to-end figures: per-round ones (set-up and
    tear-down work) always, per-step ones when ``scale_steps``."""
    spans = tracer.spans
    starts = [s[1] for s in spans]
    cats = tracer.names
    per_ms = {c: 0.0 for c in cats}
    per_n = {c: 0 for c in cats}
    self_ms = 0.0
    frames = mesh = coord = 0
    modeled_s = 0.0
    modeled_bytes = 0
    modeled_at = [m[0] for m in tracer.modeled]
    steps = 0
    per_round = {"toymodel.evaluate": [], "tcp.spawn": [], "tcp.close": [], "write": []}
    for rt in rounds:
        fe = rt.factors(REFERENCE_MS * 1e6)
        fs = fe if scale_steps else [1.0] * rt.steps
        bounds = list(zip(rt.step_starts, rt.step_ends))[1:]
        for (s, e), f in zip(bounds, fs[1:]):
            top = 0
            for i in range(bisect_left(starts, s), bisect_left(starts, e)):
                cat, t0, t1, parent, n = spans[i]
                if t1 > e:
                    raise RuntimeError(f"span {cats[cat]} crosses a step boundary")
                per_ms[cats[cat]] += _ms(t1 - t0) * f
                per_n[cats[cat]] += n
                if parent == -1:
                    top += t1 - t0
            self_ms += _ms(e - s - top) * f
            a, b = tracer.frame_marks[s], tracer.frame_marks[e]
            frames += b[0] - a[0]
            mesh += b[1] - a[1]
            coord += b[2] - a[2]
            for i in range(bisect_left(modeled_at, s), bisect_left(modeled_at, e)):
                modeled_s += tracer.modeled[i][1]
                modeled_bytes += tracer.modeled[i][2]
            steps += 1
        outside = {name: 0.0 for name in per_round}
        for i in range(bisect_left(starts, rt.call), bisect_left(starts, rt.ret)):
            cat, t0, t1, parent, n = spans[i]
            if cats[cat] in outside and not rt.step_starts[0] <= t0 < rt.step_ends[-1]:
                f = fe[0] if t0 < rt.step_starts[0] else fe[-1]
                outside[cats[cat]] += _ms(t1 - t0) * f
        outside["write"] = _ms(rt.write_ns) * fe[-1]
        for name, v in outside.items():
            per_round[name].append(v)

    def ms(*names):
        return sum(per_ms.get(c, 0.0) for c in names) / steps

    def n(*names):
        return sum(per_n.get(c, 0) for c in names) / steps

    return {
        "halfprec.narrow_ms": ms("halfprec.narrow"),
        "halfprec.narrow_elems": n("halfprec.narrow"),
        "halfprec.widen_ms": ms("halfprec.widen"),
        "halfprec.widen_elems": n("halfprec.widen"),
        "halfprec.loss_scale_ms": ms("halfprec.loss_scale"),
        "fusion.pack_ms": ms("fusion.pack"),
        "fusion.unpack_ms": ms("fusion.unpack"),
        "fusion.buckets": n("fusion.unpack"),
        "fusion.bytes": n("fusion.pack"),
        "collectives.schedule_ms": ms("collectives.ring_schedule",
                                      "collectives.hierarchical_schedule"),
        "collectives.fold_ms": ms("collectives.fold"),
        "collectives.ring_calls": n("collectives.ring_schedule"),
        "collectives.hierarchical_calls": n("collectives.hierarchical_schedule"),
        "netsim.simulate_ms": ms("netsim.simulate"),
        "netsim.modeled_comm_ms": modeled_s * 1e3 / steps,
        "netsim.modeled_wire_bytes": modeled_bytes / steps,
        "lars.step_ms": ms("lars.step"),
        "lars.groups": n("lars.step"),
        "toymodel.fwd_bwd_ms": ms("toymodel.fwd_bwd"),
        "toymodel.fwd_bwd_calls": n("toymodel.fwd_bwd"),
        "toymodel.evaluate_ms": statistics.median(per_round["toymodel.evaluate"]),
        "tcp.allreduce_ms": ms("tcp.allreduce"),
        "tcp.frames": frames / steps,
        "tcp.mesh_bytes": mesh / steps,
        "tcp.coord_bytes": coord / steps,
        "tcp.model_to_mesh_bytes": modeled_bytes / mesh if mesh else 0.0,
        "tcp.spawn_ms": statistics.median(per_round["tcp.spawn"]),
        "tcp.close_ms": statistics.median(per_round["tcp.close"]),
        "experiment.self_ms": self_ms / steps,
        "experiment.write_ms": statistics.median(per_round["write"]),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("model_to_mesh_bytes"):
        return "ratio"
    return "B" if name.endswith("bytes") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    try:
        g = load_gradsync()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    cfg = make_config(g, args.workload, args.seed)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    session = Session(g, cfg, out)
    clock = session.clock
    clock.install()
    tracer = None
    try:
        if args.trace:
            plain = session.timed(args.seconds / 2)
            clock.uninstall()
            tracer = Tracer(g)
            tracer.install()
            clock.tracer = tracer
            clock.install()
            traced = session.timed(args.seconds / 2)
        else:
            plain = session.timed(args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        clock.uninstall()
        if tracer is not None:
            tracer.uninstall()

    session.run_checks()
    if tracer is not None:
        tracer.check_samples()
        session.checks += tracer.sample_checks
        tracer.write(out / "spans.csv")

    # figures need MIN_TIMED_STEPS good steps in every phase; when failed
    # rounds leave fewer, the result line carries only the operation counts
    phases = [plain] if tracer is None else [plain, traced]
    good_steps = min(len(round_times(ph, False, False)[0]) for ph in phases)
    short = good_steps < MIN_TIMED_STEPS
    metrics, units, figures = {}, {}, {}
    if short:
        print(f"bench: no figures, a phase has only {good_steps} good timed steps",
              file=sys.stderr)
    else:
        all_rounds = [rt for _, rt in session.rounds if rt is not None]
        probe_ms = statistics.median(_ms(ns) for rt in all_rounds for ns in rt.probes_ns)
        chosen = end_to_end(cfg, plain, wl["scale_steps"], True, rss_mb)
        figures = {"probe_ms_median": probe_ms,
                   "timed_steps": len(round_times(plain, False, False)[0]),
                   "raw": end_to_end(cfg, plain, False, False, rss_mb),
                   "scaled_e2e": end_to_end(cfg, plain, True, True, rss_mb)}
        if tracer is not None:
            metrics = layer_metrics(tracer, traced, wl["scale_steps"])
            traced_p50 = statistics.median(round_times(traced, wl["scale_steps"], True)[0])
            metrics["machine.probe_ms"] = probe_ms
            metrics["trace.step_p50_ms"] = traced_p50
            metrics["trace.overhead_ms"] = traced_p50 - chosen["step_ms_p50"]
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics, units = chosen, E2E_UNITS

    failures = [c for c in session.checks if not c[1]]
    for name, _, detail in failures[:10]:
        print(f"bench: check {name} failed: {detail}", file=sys.stderr)
    counts = {}
    for name, _, _ in session.checks:
        counts[name] = counts.get(name, 0) + 1
    print(f"bench: {len(session.checks) - len(failures)} of {len(session.checks)} "
          f"checks passed {counts}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": session.attempted(),
        "failed": session.failed(),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": cfg.to_dict(), "scale_steps": wl["scale_steps"],
        "rounds": len(session.rounds), **figures, "checks": counts, "result": result,
    }
    (out / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    shutil.rmtree(out / "runs", ignore_errors=True)
    shutil.rmtree(out / "sim", ignore_errors=True)
    print(json.dumps(result))
    return 1 if short else 0


if __name__ == "__main__":
    sys.exit(main())
