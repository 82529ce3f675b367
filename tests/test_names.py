"""Every name that the package exports or the benchmark looks up still
resolves: each fedsurv module's ``__all__``, each ``(module, function)`` of
``bench/tracer.py``'s ``TRACE_POINTS``, and each entry point of
``bench/worker.py``'s ``EXPERIMENTS`` as ``fedsurv.cli`` binds it.

The bench files are parsed, not imported, so the test neither runs their
code nor writes bytecode next to them."""

import ast
import importlib
import pkgutil
from pathlib import Path

import fedsurv

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _assignment(path: Path, name: str) -> ast.expr:
    """The value expression of the module-level assignment to ``name``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def _exports():
    for info in pkgutil.iter_modules(fedsurv.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"fedsurv.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield module.__name__, name


def _trace_points():
    for point in _assignment(BENCH / "tracer.py", "TRACE_POINTS").elts:
        module_name, function = (ast.literal_eval(e) for e in point.elts[:2])
        yield module_name, function


def _experiments():
    return ast.literal_eval(_assignment(BENCH / "worker.py", "EXPERIMENTS"))


def _missing(pairs) -> list:
    return [
        (module_name, name)
        for module_name, name in pairs
        if not hasattr(importlib.import_module(module_name), name)
    ]


def test_every_exported_name_resolves():
    exports = list(_exports())
    assert len({module_name for module_name, _ in exports}) >= 7, exports
    missing = _missing(exports)
    assert not missing, f"names in __all__ that their module lacks: {missing}"


def test_every_traced_function_resolves():
    points = list(_trace_points())
    assert ("fedsurv.cli", "main") in points
    missing = _missing(points)
    assert not missing, f"bench/tracer.py traces functions the package lacks: {missing}"
    assert all(callable(getattr(importlib.import_module(m), f)) for m, f in points)


def test_every_benchmark_experiment_is_bound_in_cli():
    names = _experiments()
    assert "run_federation" in names
    missing = _missing(("fedsurv.cli", name) for name in names)
    assert not missing, f"bench/worker.py records calls fedsurv.cli does not bind: {missing}"
    cli = importlib.import_module("fedsurv.cli")
    assert all(callable(getattr(cli, name)) for name in names)
