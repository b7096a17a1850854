"""Rules the package source itself must follow."""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "mengerian"
PERFBENCH = ROOT / "perfbench"
SUBMODULES = ("cli", "multigraph", "temporal", "menger", "patterns", "witness", "recognizer")


def test_no_assert_statements():
    # python -O strips asserts, so a check that carries weight raises instead
    files = sorted(SOURCE.glob("*.py"))
    assert files, f"no sources under {SOURCE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_function_calls_itself():
    # recursion depth follows the input (route length, packing size), so
    # a deep enough input overflows the interpreter's recursion limit
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == node.name for call in ast.walk(node))
    ]
    assert found == []


def test_tracer_finds_every_name_it_rebinds(monkeypatch):
    # the benchmark's --trace mode wraps cross-module names of the package;
    # dropping or renaming one of them breaks that mode, not the package
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        tracing = importlib.import_module("tracing")
        pkg = importlib.import_module("mengerian")
        for sub in SUBMODULES:
            importlib.import_module(f"mengerian.{sub}")
        tracer = tracing.Tracer()
        try:
            tracer.install(pkg)
            rebound = list(tracer._undo)
            assert rebound
            assert all(owner.__dict__[attr] is not original
                       for owner, attr, original in rebound)
        finally:
            tracer.uninstall()
        assert all(owner.__dict__[attr] is original for owner, attr, original in rebound)
    finally:
        for name in set(sys.modules) - before:
            if str(PERFBENCH) in str(getattr(sys.modules[name], "__file__", "")):
                del sys.modules[name]
