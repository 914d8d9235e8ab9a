"""The public names and the functions the benchmark tracer patches exist,
the tracer sees every triangle route, the README's library session runs and
its list of record types is whole, no module keeps an unused import or an
unused private name, and no public name is used by the unit tests alone."""

import ast
import doctest
import importlib
import importlib.util
import re
from pathlib import Path

import comptri
import comptri.verify
from comptri import triangle
from comptri.records import Record

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SRC = ROOT / "src" / "comptri"


def test_all_names_resolve():
    missing = [name for name in comptri.__all__ if not hasattr(comptri, name)]
    assert missing == []


def _traced_targets():
    spec = importlib.util.spec_from_file_location("comptri_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_traced_functions_exist():
    targets = _traced_targets()
    missing = []
    for target in targets:
        layer, function = target.split(".")
        if not callable(getattr(importlib.import_module(f"comptri.{layer}"), function, None)):
            missing.append(target)
    assert targets and missing == []


def test_the_tracer_sees_every_route():
    # the tracer wraps module attributes and the values of module-level plain
    # dicts, and nothing else, so the CLI's builds read from ROUTES show in
    # its counters only while both hold
    assert type(triangle.ROUTES) is dict
    traced = [target.split(".")[1] for target in _traced_targets() if target.startswith("triangle.triangle_")]
    assert traced and all(getattr(triangle, name) in triangle.ROUTES.values() for name in traced)


def test_readme_session():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted and result.failed == 0


def test_readme_lists_every_record_type():
    # the README's list of the records, "The records (`A`, ... and `module.B`)",
    # names each subclass of Record in the package and nothing else
    listed = re.search(r"The records \(([^)]*)\)", (ROOT / "README.md").read_text()).group(1)
    subclasses = [cls for cls in Record.__subclasses__() if cls.__module__.startswith("comptri.")]
    assert {name.split(".")[-1] for name in re.findall(r"`([\w.]+)`", listed)} == {c.__name__ for c in subclasses}


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


def _module_names(tree):
    """(line, name) of each function and each assigned name at module level."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id


def test_no_unused_private_functions():
    # private assignments as well, so a table left behind by a refactor fails
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = [
        f"{name}:{line} {private}"
        for name, tree in trees.items()
        for line, private in _module_names(tree)
        if private.startswith("_") and not private.startswith("__") and private not in referenced
    ]
    assert unused == []


def test_every_export_is_used_outside_the_unit_tests():
    # a name in __all__ is used when a module of the package other than
    # __init__ loads it, or when the README, the benchmark or the acceptance
    # tests name it; an export only the unit tests call should go
    loaded = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    documents = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    text = "\n".join(path.read_text() for path in documents + sorted((ROOT / "perfbench").glob("*.py")))
    named = set(re.findall(r"\w+", text))
    assert [name for name in comptri.__all__ if name not in loaded | named] == []
