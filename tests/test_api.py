"""The public names and the functions the benchmark tracer patches exist,
the package imports exactly its public names, the tracer sees every triangle
route, the README's library session runs and its list of record types is
whole, no module keeps an unused import or an unused private name or imports
another's, each argument rule is written once and only errors refuses a
bool, no public name is used by the unit tests alone, and the triangle routes
share only what the pinned sharing map allows."""

import ast
import doctest
import importlib
import importlib.util
import itertools
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


def test_the_package_imports_exactly_its_exports():
    # test_no_unused_module_imports skips __init__, so without this an export
    # dropped from __all__ could leave its import behind
    imported = [name for _, name in _module_imports(ast.parse((SRC / "__init__.py").read_text()))]
    assert len(set(imported)) == len(imported)
    assert sorted(imported) == sorted(comptri.__all__)


def test_no_unused_module_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for line, name in _module_imports(tree) if name not in used]
    assert unused == []


def test_no_private_name_is_imported_from_another_module():
    # a rule two modules need belongs in a public name of one of them
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "comptri"):
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    assert found == []


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


def test_each_argument_rule_is_written_once():
    # a floor is the least of errors.check_integer, which words its refusal,
    # and identities._check_entry holds the one range check 1 <= k <= n; a
    # string constant counts, the literal parts of an f-string included
    floors, ranges = [], []
    for path in sorted(SRC.glob("*.py")):
        strings = [node.value for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)]
        if path.name != "errors.py":
            floors += [f"{path.name} {text!r}" for text in strings if " must be >= " in text]
        ranges += [path.name for text in strings if "need 1 <= k <= n" in text]
    assert floors == []
    assert ranges == ["identities.py"]


def test_only_errors_refuses_a_bool():
    # errors.check_integer and errors.check_integers are the one home of the
    # integer rule, so no other module tests isinstance(<x>, bool)
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
        ]
    assert found == []


def _module_names(tree):
    """(line, name) of each function, class and assigned name at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
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
    # a name in __all__, or a public function, class or constant at the top
    # level of a module, is used when a module of the package other than
    # __init__ loads it, or when the README, the benchmark or the acceptance
    # tests name it; a name only the unit tests call should go
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loaded = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    documents = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]
    text = "\n".join(path.read_text() for path in documents + sorted((ROOT / "perfbench").glob("*.py")))
    named = set(re.findall(r"\w+", text))
    public = {name for tree in trees.values() for _, name in _module_names(tree) if not name.startswith("_")}
    assert sorted((public | set(comptri.__all__)) - loaded - named) == []


# what any two routes may share: the seed, the invert transform, and the
# plumbing of errors, records and the table type; a module name allows all of it
SHARED_BY_RULE = {
    "triangle._prefix", "sequences.ArithmeticFunction", "sequences._series",
    "sequences.check_output_size", "sequences.entry_bits",
    "sequences.iterate_invert", "triangle._weights",
    "errors", "records", "pascal.LowerTriangularMatrix",
}
# what two routes share beyond the rule: triangle_pascal builds its depth-1
# base with the recurrence's first-part sums
SHARED_BY_EXCEPTION = {("recurrence", "pascal"): ["triangle._rows_from_weights"]}


def _reachable_definitions():
    """For each route in ROUTES, the module-level functions and classes of the
    package it can reach, as "module.name", itself included.

    A name in a reached body resolves through its module's definitions and its
    ``from .x import y`` imports; a class counts as its whole body.  The scan
    cannot see a call made through a dict, ``getattr`` or a method of an
    object whose class it has not reached.
    """
    defined, imported = {}, {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[module, node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[module, alias.asname or alias.name] = (node.module, alias.name)

    def reach(start):
        seen, todo = set(), [start]
        while todo:
            key = todo.pop()
            while key in imported:
                key = imported[key]
            if key in defined and key not in seen:
                seen.add(key)
                names = {n.id for n in ast.walk(defined[key]) if isinstance(n, ast.Name)}
                todo += [(key[0], name) for name in names]
        return {f"{module}.{name}" for module, name in seen}

    return {route: reach(("triangle", build.__name__)) for route, build in triangle.ROUTES.items()}


def test_the_routes_share_only_the_seed_and_the_invert_transform():
    reached = _reachable_definitions()
    shared = {}
    for a, b in itertools.combinations(reached, 2):
        beyond = sorted(
            name for name in reached[a] & reached[b]
            if name not in SHARED_BY_RULE and name.split(".")[0] not in SHARED_BY_RULE
        )
        if beyond:
            shared[a, b] = beyond
    assert shared == SHARED_BY_EXCEPTION
    # the convolution and Pascal routes read f_0 alone, never the transform
    for route in ("conv", "pascal"):
        assert not {"sequences.iterate_invert", "triangle._weights"} & reached[route], route
