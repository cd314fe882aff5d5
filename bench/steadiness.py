#!/usr/bin/env python3
"""Repeat the benchmark and report how steady each end-to-end metric is.

    python3 bench/steadiness.py --workload train-mixed --seeds 1-10 --sets 2

Runs ``run.py --trace 0`` once per seed per set, one process after the
other, and prints per metric the median of each set and the spread
(distance between the first and third quartile over the median), both
for the reported figures and for the raw and probe-scaled variants.
Writes the same table as JSON to ``bench/out/steadiness-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if not done.stdout.strip():
        raise RuntimeError(f"seed {seed}: exit {done.returncode}, no result\n"
                           + done.stderr[-2000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace0"
                         / "result.json").read_text())
    return {"result": result, "raw": detail.get("raw"), "scaled": detail.get("scaled_e2e"),
            "probe_ms": detail.get("probe_ms_median")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((BENCH.parent / "BENCHMARK.json")
                                       .read_text())["run_seconds"])
    args = ap.parse_args(argv)

    sets = []
    for s in range(args.sets):
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(one_run(args.workload, seed, args.seconds))
            print(f"set {s} seed {seed}: " + json.dumps(
                {k: round(v["value"], 6) for k, v in runs[-1]["result"]["metrics"].items()}),
                file=sys.stderr)
        sets.append(runs)

    # a run whose failed rounds left no figures still counts in failed_share
    measured = [[r for r in runs if r["raw"] is not None] for runs in sets]
    table = {}
    if all(len(runs) >= 2 for runs in measured):
        for name in measured[0][0]["result"]["metrics"]:
            row = {}
            for s, runs in enumerate(measured):
                for kind in ("reported", "raw", "scaled"):
                    vals = [r["result"]["metrics"][name]["value"] if kind == "reported"
                            else r[kind][name] for r in runs]
                    row[f"set{s}_{kind}_median"] = statistics.median(vals)
                    row[f"set{s}_{kind}_spread"] = spread(vals)
                    if kind == "reported":
                        row[f"set{s}_values"] = vals
            table[name] = row
    failed = [[r["result"]["failed"] / r["result"]["attempted"] for r in runs]
              for runs in sets]
    doc = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
           "metrics": table, "failed_share": failed,
           "probe_ms": [[r["probe_ms"] for r in runs] for runs in measured]}
    out = BENCH / "out" / f"steadiness-{args.workload}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, row in table.items():
        cells = "  ".join(
            f"set{s}: med {row[f'set{s}_reported_median']:.6g} "
            f"spread {row[f'set{s}_reported_spread']:.3f} "
            f"(raw {row[f'set{s}_raw_spread']:.3f}, scaled {row[f'set{s}_scaled_spread']:.3f})"
            for s in range(len(sets)))
        print(f"{name:14s} {cells}")
    print(f"failed share per run: {failed}")
    if not table:
        print("fewer than two runs with figures in a set: no spreads", file=sys.stderr)
    return 0 if table and not any(map(any, failed)) else 1

if __name__ == "__main__":
    sys.exit(main())
