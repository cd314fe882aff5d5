"""Every public gradsync name exists, and something in the program uses it.

A public name that goes must leave ``__all__`` with it; otherwise
``from gradsync import *`` fails at a user's import, not here.  A public
name that nothing in ``src/gradsync`` or ``bench/`` loads is surface the
program does not need: delete it, or list it in ``UNCALLED`` with the
open ROADMAP item that will give it a caller.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import gradsync

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradsync"

# Public names with no caller yet, each kept for the ROADMAP item that
# gives it one.  The guard fails once a name here gains a caller or goes.
UNCALLED = {
    # item 11: resumable runs restore the LARS state from a checkpoint
    "lars.save_checkpoint",
    "lars.load_checkpoint",
    # item 7: replay the paper's scaling-efficiency claim at its scale
    "netsim.scaling_efficiency",
    "netsim.implied_system_throughput",
    "netsim.EfficiencyInput",
    "netsim.EfficiencyReport",
}


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


def public_surface(tree: ast.Module, module: str):
    """``(qualified name, bare name, is a method, definition node)`` for
    each ``__all__`` name, public top-level function or class, and public
    method or property of those classes."""
    exported, defined = set(), {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            stores = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in stores if isinstance(t, ast.Name)]
            if "__all__" in targets:
                exported = set(ast.literal_eval(node.value))
            defined.update((t, node) for t in targets)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
    for name in sorted(exported | {n for n, d in defined.items() if n[0] != "_"
                                   and isinstance(d, (ast.FunctionDef, ast.ClassDef))}):
        node = defined[name]
        yield f"{module}.{name}", name, False, node
        if isinstance(node, ast.ClassDef):
            for meth in node.body:
                if isinstance(meth, ast.FunctionDef) and meth.name[0] != "_":
                    yield f"{module}.{name}.{meth.name}", meth.name, True, meth


def loads(tree: ast.Module):
    """``(bare name, node, how)`` for each load in the file: ``how`` is
    "attribute" for ``x.name``, "import" for a name the file imports from
    gradsync, and "local" for any other bare name."""
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").startswith("gradsync"))
                for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node, "attribute"
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in imported:
                yield imported[node.id], node, "import"
            else:
                yield node.id, node, "local"


def uncalled_names() -> tuple[set[str], set[str]]:
    """The public names that nothing loads outside their own definitions,
    and every public name.

    A method counts only as an attribute, and a bare name only in its own
    module or where it is imported, so a local called ``masters`` or
    ``pending_bytes`` is not a caller.  Nor is a load inside the
    definition of an uncalled name, so code that only dead code calls is
    found too.
    """
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    surface = [(path, *entry) for path, tree in trees.items()
               if path.parent == PACKAGE and path.name != "__init__.py"
               for entry in public_surface(tree, path.stem)]
    uses = {}  # bare name -> [(file, node, how)]
    for path, tree in trees.items():
        for name, node, how in loads(tree):
            uses.setdefault(name, []).append((path, node, how))

    def within(node):
        return {id(n) for n in ast.walk(node)}

    def called(path, name, method, own, dead):
        return any(how == "attribute" or not method and (how == "import" or where == path)
                   for where, use, how in uses.get(name, ())
                   if id(use) not in own and id(use) not in dead)

    uncalled = set()
    while True:
        dead = set().union(*(within(node) for _, qual, _, _, node in surface
                             if qual in uncalled))
        found = {qual for path, qual, name, method, node in surface
                 if not called(path, name, method, within(node), dead)}
        if found == uncalled:
            return uncalled, {qual for _, qual, _, _, _ in surface}
        uncalled = found


def test_every_public_name_has_a_caller():
    uncalled, _ = uncalled_names()
    assert sorted(uncalled - UNCALLED) == []


def test_the_uncalled_allowlist_is_current():
    uncalled, public = uncalled_names()
    assert sorted(UNCALLED - public) == [], "listed names that no longer exist"
    assert sorted(UNCALLED - uncalled) == [], "listed names that now have a caller"
