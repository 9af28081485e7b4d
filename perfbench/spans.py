"""Spans around calls into pointedcat's public functions, kept in memory.

``install`` wraps each function in ``TARGETS``.  A module-level function is
replaced in every ``pointedcat`` module global bound to the same object,
because ``from .metric import mueger_center`` copies the binding into
``brmod``, ``battery`` and ``cli``; a method is replaced on its class.
Each call records a span ``[name, parent, start, end]``.  The self time of
a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, class or None, attribute)
TARGETS = (
    ("cyclotomic.rank", "pointedcat.cyclotomic", "CycloMatrix", "rank"),
    ("cyclotomic.det", "pointedcat.cyclotomic", "CycloMatrix", "det"),
    ("groups.all_subgroups", "pointedcat.groups", None, "all_subgroups"),
    ("groups.subgroups_of", "pointedcat.groups", None, "subgroups_of"),
    ("groups.characters", "pointedcat.groups", None, "characters"),
    ("groups.quotient", "pointedcat.groups", None, "quotient"),
    ("cocycles.quadratic_form", "pointedcat.cocycles", "QuadraticForm", "__post_init__"),
    ("cocycles.standard_cocycle", "pointedcat.cocycles", None, "standard_cocycle"),
    ("cocycles.pentagon", "pointedcat.cocycles", None, "check_pentagon"),
    ("cocycles.hexagons", "pointedcat.cocycles", None, "check_hexagons"),
    ("cocycles.find_mu", "pointedcat.cocycles", None, "find_mu"),
    ("cocycles.classify_h3ab", "pointedcat.cocycles", None, "classify_h3ab"),
    ("metric.drinfeld_double", "pointedcat.metric", None, "drinfeld_double"),
    ("metric.smatrix1", "pointedcat.metric", None, "smatrix1"),
    ("metric.mueger_center", "pointedcat.metric", None, "mueger_center"),
    ("metric.is_nondegenerate", "pointedcat.metric", None, "is_nondegenerate"),
    ("metric.isotropic_subgroups", "pointedcat.metric", None, "isotropic_subgroups"),
    ("metric.detect_center", "pointedcat.metric", None, "detect_center"),
    ("brmod.schur_classes", "pointedcat.brmod", None, "schur_classes"),
    ("brmod.build_module_cat", "pointedcat.brmod", None, "build_module_cat"),
    ("brmod.smatrix2", "pointedcat.brmod", None, "smatrix2"),
    ("brmod.verify_character_table", "pointedcat.brmod", None, "verify_character_table"),
    ("brmod.pi0_report", "pointedcat.brmod", None, "pi0_report"),
    ("serde.load_category", "pointedcat.serde", None, "load_category"),
    ("serde.category_to_json", "pointedcat.serde", None, "category_to_json"),
    ("serde.cocycle_to_json", "pointedcat.serde", None, "cocycle_to_json"),
)

# Spans the traced CLI launcher adds around pointedcat.cli.main.
CLI_MAIN = "cli.main"
SPAN_NAMES = tuple(t[0] for t in TARGETS) + (CLI_MAIN,)

# Per-pass counters beyond calls and self time, with the call that sets them.
COUNTERS = ("cyclotomic.rank.max_dim", "groups.subgroups_returned",
            "cocycles.find_mu.found")


def _note_rank(rec, args, result):
    rec.counts["cyclotomic.rank.max_dim"] = max(
        rec.counts["cyclotomic.rank.max_dim"], args[0].rows)


def _note_subgroups(rec, args, result):
    rec.counts["groups.subgroups_returned"] += len(result)


def _note_mu(rec, args, result):
    rec.counts["cocycles.find_mu.found"] += result is not None


POST = {
    "cyclotomic.rank": _note_rank,
    "groups.all_subgroups": _note_subgroups,
    "groups.subgroups_of": _note_subgroups,
    "cocycles.find_mu": _note_mu,
}


class Recorder:
    """Spans of one process, in call order; off until ``enabled`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.enabled = False

    def wrap(self, name: str, fn):
        post = POST.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if post is not None:
                post(self, args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """``<name>.calls`` and ``<name>.self_ms`` for every span name, plus counters."""
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_ms = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (end - start - child_time[i]) * 1000.0
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ms[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        return out

    def dump(self, path) -> None:
        """Write every span, one JSON array per line: name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install(rec: Recorder) -> None:
    """Wrap every target so calls record spans in ``rec``."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "pointedcat" or n.startswith("pointedcat.")]
    for name, module_name, owner, attr in TARGETS:
        module = importlib.import_module(module_name)
        if owner is not None:
            cls = getattr(module, owner)
            setattr(cls, attr, rec.wrap(name, cls.__dict__[attr]))
            continue
        original = getattr(module, attr)
        wrapped = rec.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def add(total: dict, part: dict) -> None:
    """Accumulate one process's summary into a pass total (max for max_dim)."""
    for key, value in part.items():
        if key.endswith(".max_dim"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
