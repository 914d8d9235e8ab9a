"""In-memory span tracer for comptri's public functions.

The tracer replaces each traced function at every module attribute that
holds it, so calls made by the CLI and by the package's own modules (for
example ``triangle.triangle_bell`` calling ``bell.bell_table``) all pass
through the same wrapper and nest.  Nothing under ``src/`` changes.

A span is ``(op, id, parent, name, start, end)``: ``op`` is the index of
the CLI call that caused it, so spans of one request share it.  Work
counters are computed from each call's arguments and return value, never
from timing, so they repeat exactly for the same inputs.  The time the
wrapper and its counter take inside a parent span is kept out of that
parent's ``busy_s`` and ``self_s``, so layer times are comptri's own.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("words", "triangle", "bell", "sequences", "pascal", "identities", "cli")


def _mark_histogram(t, result, alphabet, length, restriction, marked_letter, budget=None):
    t.counts["words.mark_histogram.words"] += alphabet**length
    t.counts["words.mark_histogram.accepted"] += sum(result)


def _count_words(t, result, model, budget=None):
    # a mark count above the length returns 0 without enumerating anything
    if model.marked_count is not None and model.marked_count > model.length:
        return
    space = model.alphabet**model.length
    t.counts["words.count_words.words"] += space
    t.spaces[(model.alphabet, model.length, model.restriction, model.marked_letter)] = space


def _triangle(t, result, f0, m, order, order_cap=None):
    bits = max(abs(v).bit_length() for row in result.rows for v in row)
    t.max_entry_bits = max(t.max_entry_bits, bits)


def _bell_table(t, result, x, n_max):
    t.counts["bell.bell_table.cells"] += n_max * (n_max + 1) // 2


def _iterate_invert(t, result, f0, m):
    t.counts["sequences.iterate_invert.terms"] += len(f0) * m


# traced function -> counter run on each successful call (None: spans only)
TARGETS = {
    "cli.main": None,
    "words.oracle_row": None,
    "words.mark_histogram": _mark_histogram,
    "words.count_words": _count_words,
    "triangle.triangle_recurrence": _triangle,
    "triangle.triangle_convolution": _triangle,
    "triangle.triangle_bell": _triangle,
    "triangle.triangle_pascal": _triangle,
    "bell.bell_table": _bell_table,
    "sequences.iterate_invert": _iterate_invert,
    "pascal.mat_mul": None,
    "pascal.mat_pow": None,
    "identities.check_chebyshev": None,
    "identities.check_word_binomial": None,
    "identities.check_closed_forms": None,
}


class Tracer:
    """Records spans and counters while installed; ``take_pass`` drains them."""

    def __init__(self) -> None:
        self.op = 0
        self.spans: list[tuple] = []
        self.done: list[tuple] = []
        self.counts: Counter = Counter()
        self.spaces: dict = {}
        self.max_entry_bits = 0
        self._excluded: Counter = Counter()
        self._next_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((self.op, sid, parent, name, start, end))
            if count is not None:
                count(self, result, *args, **kwargs)
            if parent is not None:
                # the wrapper and its counter run inside the parent's span, but are not comptri
                self._excluded[parent] += start - enter + perf_counter() - end
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"comptri.{layer}")
        modules = [m for n, m in sys.modules.items() if n == "comptri" or n.startswith("comptri.")]
        for name, count in TARGETS.items():
            layer, func = name.split(".")
            orig = getattr(sys.modules[f"comptri.{layer}"], func)
            wrapper = self._wrap(name, orig, count)
            # module attributes, and values of module-level dicts such as cli._BUILDERS
            tables = [vars(m) for m in modules]
            tables += [v for t in tables for k, v in t.items()
                       if type(v) is dict and not k.startswith("__")]
            for table in tables:
                for key in [k for k, v in table.items() if v is orig]:
                    self._patched.append((table, key, orig))
                    table[key] = wrapper

    def uninstall(self) -> None:
        for table, key, orig in reversed(self._patched):
            table[key] = orig
        self._patched.clear()

    def take_pass(self) -> tuple[dict, dict]:
        """Per-layer times and exact counts of the spans since the last call."""
        spans = self.spans
        by_id = {s[1]: s for s in spans}
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_s: Counter = Counter()
        # tracer time inside each span, its children's included; a child
        # ends, and so is listed, before its parent
        inner = Counter(self._excluded)
        for _, sid, parent, *_ in spans:
            if parent is not None:
                inner[parent] += inner[sid]
        for _, sid, parent, name, start, end in spans:
            calls[name] += 1
            self_s[name] += end - start - self._excluded[sid]
            if parent is not None:
                self_s[by_id[parent][3]] -= end - start
            # busy time is the union of the name's intervals: skip spans nested in the same name
            p = parent
            while p is not None and by_id[p][3] != name:
                p = by_id[p][2]
            if p is None:
                busy[name] += end - start - inner[sid]
        times, counts = {}, {}
        for name in TARGETS:
            counts[f"{name}.calls"] = calls[name]
            times[f"{name}.busy_s"] = busy[name]
            times[f"{name}.self_s"] = self_s[name]
        counts.update(self.counts)
        hist_words = self.counts["words.mark_histogram.words"]
        counts["words.mark_histogram.accept_ratio"] = (
            self.counts["words.mark_histogram.accepted"] / hist_words if hist_words else 0.0
        )
        distinct = sum(self.spaces.values())
        counts["words.count_words.repeat_ratio"] = (
            self.counts["words.count_words.words"] / distinct if distinct else 0.0
        )
        counts["triangle.max_entry_bits"] = self.max_entry_bits
        self.done.extend(spans)
        self.spans = []
        self.counts = Counter()
        self.spaces = {}
        self.max_entry_bits = 0
        self._excluded = Counter()
        return times, counts
