"""The package surface: each public name is declared once, in its module's __all__.

``polynash`` re-exports the union of its library modules' ``__all__`` lists
by star imports, so a name listed in two modules would silently take the
later module's binding. The benchmark in ``perfbench/`` looks up library
functions by name; its layer tables are read here without importing it.
"""

import ast
import pkgutil
import types
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

import polynash

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_FILES = (PERFBENCH / "run.py", PERFBENCH / "tracing.py")

# the command line is a program on top of the library, not part of its surface
LIBRARY_MODULES = [
    import_module(f"polynash.{info.name}")
    for info in pkgutil.iter_modules(polynash.__path__)
    if info.name != "cli"
]


def _assigned(path: Path, name: str):
    """The literal value a module-level ``name = ...`` in ``path`` assigns."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_the_package_exports_the_disjoint_union_of_the_module_lists():
    declared = Counter(name for module in LIBRARY_MODULES for name in module.__all__)
    assert [name for name, count in declared.items() if count > 1] == []
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            # a class or function is declared by the module that defines it
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == module.__name__, name
            assert getattr(polynash, name) is value, name
    assert polynash.__all__ == sorted(declared)


@pytest.mark.skipif(
    not all(path.exists() for path in BENCH_FILES), reason="no benchmark tracer"
)
def test_every_layer_the_benchmark_looks_up_resolves():
    units, tracing = BENCH_FILES
    modules = _assigned(tracing, "LAYER_MODULES")
    classes = _assigned(tracing, "LAYER_CLASSES")
    layers = [key.rsplit(".", 1)[0] for key in _assigned(units, "PER_LAYER_UNITS")]
    checked = 0
    for module_name, name in (layer.split(".") for layer in layers if "." in layer):
        value = getattr(import_module(f"polynash.{module_name}"), name, None)
        if (module_name, name) in classes:
            assert isinstance(value, type), f"{module_name}.{name}"
        else:
            # the tracer's rule: a public function defined in a layer module
            assert module_name in modules and not name.startswith("_"), name
            assert isinstance(value, types.FunctionType), f"{module_name}.{name}"
            assert value.__module__ == f"polynash.{module_name}", name
        checked += 1
    assert checked
