"""The benchmark's layer tracer still finds every name it wraps.

``bench/layertrace.py`` rebinds public gradsync functions by identity and
raises ``nothing to wrap`` when one is missing, so a change under ``src/``
that drops or renames such a name would otherwise surface only in a
traced benchmark run.
"""

from pathlib import Path

import gradsync
from gradsync.experiment import preset_config, run_experiment

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
