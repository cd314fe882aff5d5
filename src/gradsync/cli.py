"""Command-line front end.

Subcommands:
  run       train with a config file, preset, or key=value overrides
  compare   line up two finished run directories
  sweep     model ring vs hierarchical time across payload sizes
  coord     host a collective for externally launched workers
  worker    join a coordinator as one rank
  halfprec  inspect half-precision encodings

Exit codes: 0 success, 2 bad configuration or arguments, 3 a collective
aborted, 4 a verification or comparison found a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from .experiment import (
    ConfigError,
    ablation_pair,
    compare_runs,
    load_config,
    preset_config,
    run_experiment,
    stepcount_table,
)
from .halfprec import describe_half, f16_to_f32, f32_to_f16
from .netsim import LinkModel, crossover_sweep, find_crossover
from .tcp import CollectiveAbort, run_coordinator, run_worker

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_MISMATCH = 4

# presets that run a matched pair instead of a single experiment
_PAIR_PRESETS = {
    "lars-ablation": "lars",
    "decay-ablation": "decay",
    "mixed-vs-fp32": "precision",
}


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _env_seed() -> dict:
    raw = os.environ.get("GRADSYNC_SEED")
    if raw is None:
        return {}
    try:
        return {"seed": int(raw)}
    except ValueError:
        raise ConfigError([f"GRADSYNC_SEED must be an integer, got {raw!r}"])


def _cmd_run(args) -> int:
    if args.preset == "stepcount-vs-paper":
        _emit(stepcount_table())
        return EXIT_OK
    if args.preset is None:
        cfg = load_config(args.config, args.overrides, base=_env_seed())
    else:
        cfg = preset_config(args.preset, args.overrides, args.config, base=_env_seed())
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.validate()
    if args.preset in _PAIR_PRESETS:  # both arms share the resolved config
        _emit(ablation_pair(_PAIR_PRESETS[args.preset], cfg))
    else:
        _emit(run_experiment(cfg, out_root=args.out))
    return EXIT_OK


def _cmd_compare(args) -> int:
    result = compare_runs(args.run_a, args.run_b)
    _emit(result)
    if not result["config_diffs"] and not result["identical_metrics"]:
        # same configuration must reproduce the same bytes
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_sweep(args) -> int:
    bad = [f"{flag} must be at least 1, got {value}"
           for flag, value in (("--min-bytes", args.min_bytes),
                               ("--max-bytes", args.max_bytes),
                               ("--points", args.points)) if value < 1]
    if bad:
        raise ValueError("; ".join(bad))
    link = LinkModel(alpha=args.alpha, beta_inv=args.bandwidth,
                     intra_group_alpha=args.intra_alpha,
                     intra_group_beta_inv=args.intra_bandwidth)
    sizes = np.unique(np.geomspace(args.min_bytes, args.max_bytes,
                                   args.points).astype(np.int64))
    rows = crossover_sweep(args.workers, args.group_size, link,
                           [int(s) for s in sizes])
    cross = find_crossover(rows)
    _emit({
        "workers": args.workers,
        "group_size": args.group_size,
        "rows": rows,
        "crossover_bytes": cross,
        "hierarchical_throughout": cross is None,
        # hierarchical strictly below the threshold: with no crossover, one
        # above the largest sample keeps every sampled size hierarchical
        "suggested_hybrid_eta": cross if cross is not None else rows[-1]["bytes"] + 1,
    })
    return EXIT_OK


def _cmd_coord(args) -> int:
    def make_inputs(p):
        rng = np.random.default_rng(args.seed)
        return [rng.standard_normal(args.elems).astype(np.float32)
                for _ in range(p)]

    try:
        report = run_coordinator(args.port, args.workers, make_inputs,
                                 algorithm=args.algorithm, k=args.k,
                                 timeout=args.timeout)
    except CollectiveAbort as exc:
        print(f"collective aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT
    _emit(report)
    return EXIT_OK if report["matches_in_memory"] else EXIT_MISMATCH


def _cmd_worker(args) -> int:
    return run_worker(args.host, args.port, args.rank,
                      die_at_step=args.die_at_step, timeout=args.timeout)


def _cmd_halfprec(args) -> int:
    raw = args.value.strip()
    if raw.lower().startswith("0x"):
        bits = int(raw, 16)
        doc = describe_half(bits)
    else:
        value = float(raw)
        with np.errstate(over="ignore"):  # past float32 range: infinity
            single = np.float32(value)
        doc = describe_half(int(f32_to_f16(single)))
        doc["input"] = value
        doc["roundtrip_exact"] = doc["value"] == value
    _emit(doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gradsync",
        description="Hierarchical gradient all-reduce and layer-wise "
                    "adaptive training, at desk scale.")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train with the given configuration")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--preset", help="named preset (see docs)")
    run_p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config field")
    run_p.add_argument("--out", help="artifact root directory")
    run_p.add_argument("--seed", type=int, help="override the seed")
    run_p.set_defaults(fn=_cmd_run)

    cmp_p = sub.add_parser("compare", help="diff two run directories")
    cmp_p.add_argument("run_a")
    cmp_p.add_argument("run_b")
    cmp_p.set_defaults(fn=_cmd_compare)

    sweep_p = sub.add_parser("sweep", help="model algorithm crossover")
    sweep_p.add_argument("--workers", type=int, required=True)
    sweep_p.add_argument("--group-size", type=int, default=1)
    sweep_p.add_argument("--alpha", type=float, default=1e-5)
    sweep_p.add_argument("--bandwidth", type=float, default=1e9)
    sweep_p.add_argument("--intra-alpha", type=float, default=None)
    sweep_p.add_argument("--intra-bandwidth", type=float, default=None)
    sweep_p.add_argument("--min-bytes", type=int, default=256)
    sweep_p.add_argument("--max-bytes", type=int, default=4 << 20)
    sweep_p.add_argument("--points", type=int, default=25)
    sweep_p.set_defaults(fn=_cmd_sweep)

    coord_p = sub.add_parser("coord", help="host one collective")
    coord_p.add_argument("--port", type=int, required=True)
    coord_p.add_argument("--workers", type=int, required=True)
    coord_p.add_argument("--elems", type=int, default=1024)
    coord_p.add_argument("--algorithm", choices=["ring", "hierarchical"],
                         default="ring")
    coord_p.add_argument("--k", type=int, default=1)
    coord_p.add_argument("--seed", type=int, default=0)
    coord_p.add_argument("--timeout", type=float, default=60.0)
    coord_p.set_defaults(fn=_cmd_coord)

    worker_p = sub.add_parser("worker", help="join a hosted collective")
    worker_p.add_argument("--port", type=int, required=True)
    worker_p.add_argument("--rank", type=int, required=True)
    worker_p.add_argument("--host", default="127.0.0.1",
                          help="the coordinator's IPv4 address or host name")
    worker_p.add_argument("--timeout", type=float, default=30.0)
    worker_p.add_argument("--die-at-step", type=int, default=None,
                          help="crash before this plan step (fault testing)")
    worker_p.set_defaults(fn=_cmd_worker)

    half_p = sub.add_parser("halfprec", help="half precision utilities")
    half_sub = half_p.add_subparsers(dest="halfprec_command", required=True)
    inspect_p = half_sub.add_parser(
        "inspect", help="decode 0xABCD bit patterns or encode decimals")
    inspect_p.add_argument("value")
    # a leading minus and a digit make a value, not an option (-1e300)
    inspect_p._negative_number_matcher = re.compile(r"-\.?\d")
    inspect_p.set_defaults(fn=_cmd_halfprec)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CollectiveAbort as exc:
        print(f"collective aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
