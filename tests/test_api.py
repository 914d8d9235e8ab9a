"""The public names and the functions the benchmark tracer patches exist,
the README's library session runs, and no module keeps an unused import
or an unused private function."""

import ast
import doctest
import importlib
import importlib.util
from pathlib import Path

import comptri

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SRC = ROOT / "src" / "comptri"


def test_all_names_resolve():
    missing = [name for name in comptri.__all__ if not hasattr(comptri, name)]
    assert missing == []


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("comptri_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for target in spans.TARGETS:
        layer, function = target.split(".")
        if not callable(getattr(importlib.import_module(f"comptri.{layer}"), function, None)):
            missing.append(target)
    assert spans.TARGETS and missing == []


def test_readme_session():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted and result.failed == 0


def _module_imports(tree):
    """(line, bound name) of each import outside every function and class body."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        nodes.extend(ast.iter_child_nodes(node))


def test_no_unused_module_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for line, name in _module_imports(tree) if name not in used]
    assert unused == []


def test_no_module_imports_dataclasses():
    # the records are plain slotted classes: importing dataclasses would cost
    # every command its import of inspect, ast and tokenize at startup
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "dataclasses"]
    assert found == []


def test_no_unused_private_functions():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert unused == []
