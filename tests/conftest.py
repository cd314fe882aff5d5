"""Fixtures shared by the test modules."""

import sys

import numpy as np
import pytest


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
