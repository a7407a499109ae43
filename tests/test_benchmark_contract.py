"""The names the benchmark's tracer binds in bsylab still resolve.

``perfbench/tracing.py`` wraps bsylab functions by module and attribute
name, binds their arguments by keyword to count work, and reads a few
private helpers.  A refactor that renames one of them breaks the traced
benchmark; this test catches that without running it.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_boundaries_resolve_with_the_arguments_their_counters_read():
    tracing = _load_tracing()
    for mod_name, attr, _, counter in tracing.BOUNDARIES:
        fn = getattr(importlib.import_module(f"bsylab.{mod_name}"), attr)
        assert callable(fn), (mod_name, attr)
        if counter is None:
            continue
        # the keys of a["..."], the bound arguments the counter reads
        tree = ast.parse(inspect.getsource(counter))
        keys = {node.slice.value for node in ast.walk(tree)
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name) and node.value.id == "a"
                and isinstance(node.slice, ast.Constant)}
        params = inspect.signature(fn).parameters
        assert keys <= set(params), (mod_name, attr, keys - set(params))


def test_module_attributes_read_by_the_tracer_exist():
    from bsylab import dirichlet, zeta
    modules = {"zeta": zeta, "dirichlet": dirichlet}
    tree = ast.parse(TRACING.read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {("zeta", "_RS_CHEBS"), ("zeta", "RS_T_MIN"),
            ("zeta", "_em_choose_M"), ("dirichlet", "_table_arrays")} <= used
    for mod_name, attr in sorted(used):
        assert hasattr(modules[mod_name], attr), f"{mod_name}.{attr}"
