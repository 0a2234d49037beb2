"""Every name a library module imports at top level is read somewhere
in that module.  The only exceptions are the bindings that the
benchmark's layer tracer wraps (perfbench/layertrace.py, BOUNDARIES):
the tracer replaces them by name, so they must exist even where the
module itself never calls them."""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "weakbruhat")
MODULES = sorted(f[:-3] for f in os.listdir(PKG) if f.endswith(".py"))


def _tracer_bindings() -> set[tuple[str, str]]:
    path = os.path.join(ROOT, "perfbench", "layertrace.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            boundaries = ast.literal_eval(node.value)
            return {(site, attr) for _, _, attr, sites in boundaries for site in sites}
    raise AssertionError("BOUNDARIES not found in perfbench/layertrace.py")


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a package re-exports what it lists in __all__
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_scanner_sees_an_unused_import():
    src = "from math import comb, factorial\nimport os\nprint(comb(4, 2))\n"
    assert _unused_imports(src) == {"factorial", "os"}


def test_tracer_bindings_name_library_modules():
    bindings = _tracer_bindings()
    assert bindings
    assert {site for site, _ in bindings} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PKG, module + ".py")) as fh:
        unused = _unused_imports(fh.read())
    allowed = {name for site, name in _tracer_bindings() if site == module}
    assert unused - allowed == set()
