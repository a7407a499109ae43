"""The package's lazy exports, the import boundary of each module, and
no private definition or unexported public function that only the tests
use."""

import ast
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import bsylab

_SRC = Path(bsylab.__file__).parent
_MODULES = sorted(p.stem for p in _SRC.glob("*.py") if p.stem != "__init__")
_ROOT = _SRC.parents[1]
_TRACER = _ROOT / "perfbench" / "tracing.py"
_LOADED = ("import sys, bsylab.{}; print(*sorted(m for m in sys.modules "
           "if m.split('.')[0] in ('bsylab', 'scipy', 'mpmath')))")


def _reach(module, seen):
    """seen, with module and the package modules that its top-level import
    statements reach, read from the source."""
    seen.add(f"bsylab.{module}")
    for node in ast.parse((_SRC / f"{module}.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for name in ([node.module] if node.module
                         else [alias.name for alias in node.names]):
                if f"bsylab.{name}" not in seen:
                    _reach(name, seen)
    return seen


@pytest.fixture(scope="module")
def loaded():
    # one fresh interpreter per module, two at a time (in a row: about 4 s)
    def fresh(module):
        return subprocess.run(
            [sys.executable, "-c", _LOADED.format(module)], text=True,
            capture_output=True, check=True, cwd=_SRC.parent,
            timeout=120).stdout.split()
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(_MODULES, pool.map(fresh, _MODULES)))


@pytest.mark.parametrize("module", _MODULES)
def test_module_imports_alone(loaded, module):
    # the package, the module and what its imports reach; no scipy, mpmath
    assert loaded[module] == sorted(_reach(module, {"bsylab"}))


def test_exports_are_their_home_objects():
    star = {}
    exec("from bsylab import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == bsylab.__all__
    assert set(_MODULES) <= set(bsylab.__all__) <= set(dir(bsylab))
    for name, home in bsylab._HOME.items():
        module = sys.modules[f"bsylab.{home}"]
        assert star[name] is (module if name == home
                              else getattr(module, name))
    assert not hasattr(bsylab, "no_such_name")


def _names(tree):
    """The identifiers a syntax tree reads: names, attributes and string
    constants (the tracer names its boundaries by strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _tops():
    """(module, node, names read) of every top-level statement of src/."""
    return [(module, node, _names(node))
            for module in [*_MODULES, "__init__"]
            for node in ast.parse((_SRC / f"{module}.py").read_text()).body]


def _read_elsewhere(name, node, tops):
    """Whether a top-level statement of src/ other than node, and other
    than a module's ``__all__``, reads name."""
    return any(name in names for _, other, names in tops
               if other is not node and not (
                   isinstance(other, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "__all__"
                           for t in other.targets)))


def test_every_private_definition_has_a_caller_in_src():
    # a private top-level function or class that nothing else in src/
    # reads, and that the benchmark's tracer does not read, serves only
    # the tests: point them at the production path instead
    tracer = _names(ast.parse(_TRACER.read_text()))
    tops = _tops()
    unused = [f"{module}.{node.name}" for module, node, _ in tops
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and not node.name.endswith("__")
              and node.name not in tracer
              and not _read_elsewhere(node.name, node, tops)]
    assert unused == []


def test_every_public_function_has_a_reader():
    # a public top-level function that the package does not export, and
    # that nothing in src/, perfbench/ or demos/ reads apart from its
    # definition and its module's __all__, serves only the tests
    outside = set().union(*(_names(ast.parse(path.read_text()))
                            for folder in ("perfbench", "demos")
                            for path in sorted((_ROOT / folder).glob("*.py"))))
    tops = _tops()
    unused = [f"{module}.{node.name}" for module, node, _ in tops
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")
              and node.name not in bsylab._HOME and node.name not in outside
              and not _read_elsewhere(node.name, node, tops)]
    assert unused == []
