"""Every name a gradsync module exports in ``__all__`` exists.

A public name that goes must leave ``__all__`` with it; otherwise
``from gradsync import *`` fails at a user's import, not here.
"""

import importlib
import pkgutil

import gradsync


def test_every_exported_name_resolves():
    names = ["gradsync"] + [f"gradsync.{m.name}"
                            for m in pkgutil.iter_modules(gradsync.__path__)]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        gone = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
        if gone:
            missing[name] = gone
    assert len(names) > 5
    assert not missing
