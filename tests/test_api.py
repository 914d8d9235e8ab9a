"""The public names and the functions the benchmark tracer patches exist,
and the README's library session runs."""

import doctest
import importlib
import importlib.util
from pathlib import Path

import comptri

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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
