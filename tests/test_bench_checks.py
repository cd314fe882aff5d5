"""Every benchmark workload passes the benchmark's own run checks.

``bench/checks.py`` derives the fusion layout, the wire bytes and the
modeled times from the config alone, without calling gradsync, so a
runner that mis-slices a bucket or mis-sums a modeled time fails here
instead of only in a benchmark run.
"""

import dataclasses

from gradsync.experiment import ExperimentConfig, run_experiment


def test_workloads_pass_the_benchmark_run_checks(tmp_path, bench_workloads):
    from checks import check_run, check_same_bytes

    results = []
    for name, workload in bench_workloads.items():
        cfg = ExperimentConfig(seed=1, **workload["config"])
        report = run_experiment(cfg, out_root=tmp_path / name)
        results += [(name, *check) for check in check_run(cfg, report["run_dir"])]
        if cfg.transport == "tcp":
            sim = run_experiment(dataclasses.replace(cfg, transport="sim"),
                                 out_root=tmp_path / f"{name}-sim")
            results.append((name, *check_same_bytes(
                "tcp_equals_sim", report["run_dir"], sim["run_dir"],
                ("metrics.csv",))))
    assert len(results) > 5 * len(bench_workloads)
    failed = [r for r in results if not r[2]]
    assert not failed, failed
