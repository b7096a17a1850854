"""Rules the package source itself must follow."""

import ast
import importlib
import re
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



def _names_used(tree):
    """(name, line, bare) for every name a module reads: variables (bare),
    attributes, and strings that spell an identifier, as the tracer names
    attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno, False


def _public_definitions(tree):
    """(qualified name, node) of each public top-level function or class
    and each public method; a method's qualified name holds a dot."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


def test_every_public_name_has_a_user():
    # a public name must be read by another part of the package (its own
    # body and __init__'s re-export do not count), by the benchmark, or
    # open a code span of the README; otherwise only tests keep it alive.
    # A method counts as read only through an attribute or an identifier
    # string, not through a variable of the same name.  Attributes match
    # by name alone: `chain.first` would keep a `first` method of any class.
    # The benchmark's read of a name counts only when the benchmark does
    # not define a function or class of that name itself.
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"}
    uses = [(path, name, line, bare) for path, tree in trees.items()
            for name, line, bare in _names_used(tree)]
    bench = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PERFBENCH.glob("*.py"))]
    own = {node.name for tree in bench for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    uses += [(PERFBENCH, name, line, bare) for tree in bench
             for name, line, bare in _names_used(tree) if name not in own]
    readme = (ROOT / "README.md").read_text()
    uses += [(None, word, 0, False) for span in re.findall(r"`([A-Za-z_][\w.]*)[^`\n]*`", readme)
             for word in span.split(".")]
    unused = [
        f"{path.stem}.{qualname}"
        for path, tree in trees.items()
        for qualname, node in _public_definitions(tree)
        if not any(name == node.name and not (bare and "." in qualname)
                   and (where != path or not node.lineno <= line <= node.end_lineno)
                   for where, name, line, bare in uses)
    ]
    assert unused == [], unused


def test_one_place_builds_embeddings():
    # every embedding the package finds takes its hop edges from one
    # constructor that also checks it; only the JSON reader rebuilds
    # one, from the hops a report names
    allowed = {("patterns", "_embedding"), ("cli", "embedding_from_json")}
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = (path.stem, getattr(top, "name", None))
            found += [
                f"{where[0]}.{where[1]}:{node.lineno}"
                for node in ast.walk(top)
                if where not in allowed and isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "MEmbedding"
            ]
    assert found == []


def test_one_helper_words_every_budget_refusal():
    # `menger._over_budget` words the refusal of every search that runs
    # past the work budget, so each search names itself the same way;
    # string pieces split across lines count as the one string they make
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "exceeds the work budget" in node.value
    ]
    assert len(found) == 1, found


def test_no_handler_catches_assembly_errors():
    # recognition picks each F1/F2 construction from the gem's legs, so an
    # assembly that fails is a fault to report, not a verdict to steer
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and any(getattr(n, "id", getattr(n, "attr", None)) == "AssemblyError"
                for n in ast.walk(node.type))
    ]
    assert found == []
