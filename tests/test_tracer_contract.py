"""The benchmark's layer tracer and step clock still fit the program.

``bench/layertrace.py`` rebinds public gradsync functions by identity and
raises ``nothing to wrap`` when one is missing, and its ``StepClock``
starts a step on every ``workers``-th ``DenseNet.forward_backward`` call.
A change under ``src/`` that drops or renames a wrapped name, or runs the
workers in some other number of calls, would otherwise surface only in a
benchmark run.
"""

from pathlib import Path

import pytest

import gradsync
from gradsync import experiment
from gradsync.experiment import ExperimentConfig, preset_config, run_experiment
from gradsync.toymodel import DenseNet

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_layer_tracer_wraps_and_restores_gradsync(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layertrace import Tracer

    ring_allreduce = gradsync.collectives.ring_allreduce
    tracer = Tracer(gradsync)
    tracer.install()
    try:
        assert gradsync.collectives.ring_allreduce is not ring_allreduce
        run_experiment(preset_config("smoke"), out_root=tmp_path)
        tracer.check_samples()
    finally:
        tracer.uninstall()
    assert gradsync.collectives.ring_allreduce is ring_allreduce

    allreduce = tracer.names.index("collectives.allreduce")
    assert any(span[0] == allreduce for span in tracer.spans)
    assert tracer.sample_checks
    failed = [check for check in tracer.sample_checks if not check[1]]
    assert not failed, failed


def test_layer_tracer_wraps_the_tcp_path(tmp_path, monkeypatch, count_calls):
    # the runner reaches TcpCluster.allreduce once per step with whole
    # rows, so the tracer's span and bucket-mean sample see every step,
    # and the coordinator sends each worker one plan for the run and one
    # input frame per step
    monkeypatch.syspath_prepend(str(BENCH))
    from layertrace import Tracer

    cfg = preset_config("smoke", ["transport=tcp"])
    # counted under the tracer's own frame counter, which it restores
    frames = count_calls(gradsync.tcp.send_frame)["send_frame"]
    tracer = Tracer(gradsync)
    tracer.install()
    try:
        run_experiment(cfg, out_root=tmp_path)
        tracer.check_samples()
    finally:
        tracer.uninstall()

    allreduce = tracer.names.index("tcp.allreduce")
    assert sum(span[0] == allreduce for span in tracer.spans) == cfg.steps
    assert tracer.sample_checks
    failed = [check for check in tracer.sample_checks if not check[1]]
    assert not failed, failed
    # each sample is a whole gradient row: every bucket of the step
    elems = experiment._Run(cfg).net.grad.size
    assert all(detail == f"{elems} elements over {cfg.workers} ranks"
               for _, _, detail in tracer.sample_checks)
    # per worker, a peer table at the rendezvous, the plan, and a bye at close
    assert len(frames) == cfg.workers * cfg.steps + 3 * cfg.workers


def test_every_step_is_workers_forward_backward_calls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    # importing run pins these BLAS variables; monkeypatch restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    from run import WORKLOADS

    configs = {"smoke": preset_config("smoke")}
    configs.update((name, ExperimentConfig(seed=1, **workload["config"]))
                   for name, workload in WORKLOADS.items())
    calls = []
    forward_backward = DenseNet.forward_backward

    def counted(net, *args, **kwargs):
        calls.append(net)
        return forward_backward(net, *args, **kwargs)

    monkeypatch.setattr(DenseNet, "forward_backward", counted)
    for name, cfg in configs.items():
        calls.clear()
        run_experiment(cfg, out_root=tmp_path / name)
        assert len(calls) == cfg.steps * cfg.workers, name


@pytest.mark.parametrize("name", ["smoke", "train-tcp"])
def test_mesh_socket_bytes_equal_the_modeled_bytes(name, tmp_path, bench_workloads):
    # on the runner's path each step's buckets cross the mesh sockets as
    # exactly the bytes the cost model charges for them
    from layertrace import Tracer

    if name == "smoke":
        cfg = preset_config("smoke", ["transport=tcp", "seed=1"])
    else:
        cfg = ExperimentConfig(seed=1, **bench_workloads[name]["config"])
    tracer = Tracer(gradsync)
    tracer.install()
    try:
        report = run_experiment(cfg, out_root=tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.frame_totals()[1] == report["wire_bytes"] > 0
