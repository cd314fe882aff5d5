#!/usr/bin/env python3
"""Loopback all-reduce reference sweep (reference figures, not a workload).

    python3 bench/sweep.py

Times ``TcpCluster.allreduce`` (one warm-up, then ``REPS`` calls) for
ring and hierarchical at p=4 (k=2) and p=8 (k=2 and k=4) over payloads
from 4 KiB to 4 MiB, and counts the
bytes the workers put on the mesh sockets (at ``tcp.send_frame``, in
every process) against the schedule's ``bytes_on_wire``.  A least-squares
alpha-beta fit of the medians per cluster size, T = rounds * alpha +
max-bytes / B, gives the model's relative error per size.  Every call's
results are checked bitwise against an ascending-rank float32 sum
computed here.

The sweep runs twice: with the sockets as gradsync opens them, and with
TCP_NODELAY set on every socket before each frame it sends, from outside
the program.  Writes ``bench/out/sweep.json`` and prints Markdown tables.
"""

from __future__ import annotations

import json
import socket
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import check_bucket_mean  # noqa: E402
from layertrace import Patcher, Tracer  # noqa: E402
from run import OUT, load_gradsync  # noqa: E402

REPS = 5
SIZES = [4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20]
SHAPES = [(4, [("ring", 2), ("hierarchical", 2)]),
          (8, [("ring", 1), ("hierarchical", 2), ("hierarchical", 4)])]
# the train-tcp buckets: 64 KiB ring and 5136 B hierarchical at p=4, k=2
EXTRA_P4 = [("hierarchical", 2, 5136)]


def nodelay(g, patch: Patcher) -> None:
    """Set TCP_NODELAY on a socket before every frame it sends.

    Setting it on every send, rather than once per file descriptor, keeps
    it right when a closed cluster's descriptor numbers are reused."""
    send_frame = g.tcp.send_frame

    def send(sock, tag, payload):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return send_frame(sock, tag, payload)

    patch.everywhere(send_frame, send)


def measure(g, tracer, cluster, p, algorithm, k, nbytes) -> dict:
    n = nbytes // 4
    rng = np.random.default_rng(nbytes + 31 * p + k)
    bufs = [rng.standard_normal(n).astype(np.float32) for _ in range(p)]
    cluster.allreduce(bufs, algorithm=algorithm, k=k, op="mean")   # warm-up
    times, mesh, ok = [], [], True
    for _ in range(REPS):
        before = tracer.frame_totals()[1]
        t0 = time.perf_counter()
        results, sched = cluster.allreduce(bufs, algorithm=algorithm, k=k, op="mean")
        times.append((time.perf_counter() - t0) * 1e3)
        mesh.append(tracer.frame_totals()[1] - before)
        ok = ok and all(check_bucket_mean(bufs, r, "mean")[1] for r in results)
    rounds = sched.total_steps
    max_bytes = sum(r.max_bytes for r in sched.rounds)
    return {"p": p, "k": k, "algorithm": algorithm, "bytes": n * 4,
            "median_ms": statistics.median(times), "min_ms": min(times),
            "mesh_bytes": statistics.median(mesh), "modeled_bytes": sched.bytes_on_wire,
            "mesh_over_model": statistics.median(mesh) / sched.bytes_on_wire,
            "rounds": rounds, "max_bytes_sum": max_bytes, "results_match": ok}


def fit(rows: list[dict]) -> dict:
    """Non-negative least squares for T = rounds * alpha + max_bytes_sum / B."""
    a = np.array([[r["rounds"], r["max_bytes_sum"]] for r in rows], dtype=float)
    t = np.array([r["median_ms"] for r in rows]) / 1e3
    coef, *_ = np.linalg.lstsq(a, t, rcond=None)
    if (coef < 0).any():
        # one term alone: keep whichever single-term fit leaves less error
        singles = []
        for j in range(2):
            c = np.zeros(2)
            c[j] = max(float(a[:, j] @ t) / float(a[:, j] @ a[:, j]), 0.0)
            singles.append((float(np.sum((a @ c - t) ** 2)), c))
        coef = min(singles, key=lambda sc: sc[0])[1]
    alpha, inv_bw = coef
    for r, model in zip(rows, a @ coef):
        r["model_ms"] = model * 1e3
        r["model_rel_err"] = (model * 1e3 - r["median_ms"]) / r["median_ms"]
    return {"alpha_s": float(alpha),
            "bandwidth_Bps": float(1 / inv_bw) if inv_bw > 0 else None}


def sweep(g, with_nodelay: bool) -> dict:
    patch = Patcher()
    tracer = Tracer(g)
    tracer.count_frames()
    if with_nodelay:
        nodelay(g, patch)
    rows = []
    try:
        for p, plans in SHAPES:
            with g.tcp.TcpCluster(p) as cluster:
                extra = EXTRA_P4 if p == 4 else []
                for algorithm, k, nbytes in [(a, k, s) for a, k in plans for s in SIZES] + extra:
                    rows.append(measure(g, tracer, cluster, p, algorithm, k, nbytes))
                    print(json.dumps(rows[-1]), file=sys.stderr)
    finally:
        patch.restore()
        tracer.uninstall()
    # one fit per cluster size: at p=8 the workers outnumber the CPUs
    fits = {p: fit([r for r in rows if r["p"] == p]) for p, _ in SHAPES}
    return {"nodelay": with_nodelay, "fits": fits, "rows": rows}


def table(run: dict) -> str:
    fits = []
    for p, f in run["fits"].items():
        bw = f["bandwidth_Bps"]
        fits.append(f"p={p}: alpha = {f['alpha_s'] * 1e3:.3f} ms, B = "
                    + (f"{bw / 1e6:.1f} MB/s" if bw else "unbounded (no byte term)"))
    head = f"TCP_NODELAY {'on' if run['nodelay'] else 'off'}; " + "; ".join(fits) + "\n\n"
    lines = [head + "| p | k | algorithm | bytes | median ms | model ms | rel err "
             "| mesh bytes | modeled bytes | mesh/model |",
             "|---|---|---|---|---|---|---|---|---|---|"]
    for r in run["rows"]:
        lines.append(
            f"| {r['p']} | {r['k']} | {r['algorithm']} | {r['bytes']} | "
            f"{r['median_ms']:.2f} | {r['model_ms']:.2f} | {r['model_rel_err']:+.2f} | "
            f"{r['mesh_bytes']:.0f} | {r['modeled_bytes']} | {r['mesh_over_model']:.3f} |")
    return "\n".join(lines)


def main() -> int:
    g = load_gradsync()
    runs = [sweep(g, False), sweep(g, True)]
    bad = [r for run in runs for r in run["rows"] if not r["results_match"]]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "sweep.json").write_text(json.dumps(runs, indent=2) + "\n")
    for run in runs:
        print(table(run) + "\n")
    if bad:
        print(f"sweep: {len(bad)} results differ from the ascending-rank sum",
              file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
