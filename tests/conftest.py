"""Fixtures shared by the test modules."""

import multiprocessing as mp
import sys
from pathlib import Path

import numpy as np
import pytest

from gradsync.lars import ParamGroup

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(autouse=True)
def no_child_process_outlives_its_test():
    """Fail any test that leaves a child process alive, such as a worker
    of a ``TcpCluster`` that was never closed."""
    before = set(mp.active_children())
    yield
    left = [proc for proc in mp.active_children() if proc not in before]
    assert not left, f"child processes outlived the test: {left}"


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls of gradsync functions wherever they are called from.

    ``count_calls(f, g, ...)`` rebinds every gradsync module attribute that
    is one of the functions (not only the defining module's own) to a
    wrapper that records the element count of its first argument, and
    returns ``{function name: [element counts, in call order]}``.
    """
    def install(*funcs):
        calls = {f.__name__: [] for f in funcs}

        def wrap(f):
            def counted(values, *args, **kwargs):
                calls[f.__name__].append(int(np.size(values)))
                return f(values, *args, **kwargs)
            return counted

        wrappers = [(f, wrap(f)) for f in funcs]
        for name, mod in list(sys.modules.items()):
            if name == "gradsync" or name.startswith("gradsync."):
                for attr, value in list(vars(mod).items()):
                    for f, counted in wrappers:
                        if value is f:
                            monkeypatch.setattr(mod, attr, counted)
        return calls

    return install


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's ``WORKLOADS`` table, read from ``bench/run.py``, with
    ``bench/`` on the import path."""
    monkeypatch.syspath_prepend(str(BENCH))
    # importing run pins these BLAS variables; monkeypatch restores them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    from run import WORKLOADS
    return WORKLOADS


@pytest.fixture(scope="session")  # stateless, so hypothesis tests can take it
def param_group():
    """``param_group(name, kind, values, **flags)``: a ``ParamGroup`` over a
    private float32 copy of ``values``, with zero gradient and velocity."""
    def make(name, kind, values, **flags):
        # always a private copy, so a test can reuse its input buffers
        master = np.array(values, dtype=np.float32).reshape(-1)
        return ParamGroup(name=name, kind=kind, master_w=master,
                          grad=np.zeros_like(master), velocity=np.zeros_like(master),
                          **flags)
    return make
