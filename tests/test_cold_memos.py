"""Each benchmark pass must start with the level-2 memos empty.

perfbench's worker imports ``pointedcat.cli``, builds its inputs, and then
requires the caches in ``COLD_CACHES`` to be empty before the first op.  The
memos that share level-2 work per transparent subgroup and per (G, H), and
the H^3_ab system kept per group, must be just as cold then, or a pass would
time a warm start.  A fresh
interpreter makes the calls the set-up makes (``enumerate_quadratic_forms``,
``category_from_form`` and ``serde.category_to_json``) and reports every
memo's size, and that the cold caches and traced names still resolve.
Nothing under perfbench/ is imported: its tables are read with ast.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pointedcat
from test_bench_contract import _table

MEMOS = (
    ("pointedcat.brmod", "_lift_table"),
    ("pointedcat.brmod", "_orthogonality_rank"),
    ("pointedcat.brmod", "_is_character_table"),
    ("pointedcat.brmod", "_is_group_hom"),
    ("pointedcat.groups", "quotient"),
    ("pointedcat.groups", "_subgroups_within"),
    ("pointedcat.cocycles", "_h3ab_system"),
)

# perfbench's set-up: the forms of the level-2 and classify groups, and the
# input files of the CLI chain, written from one form on Z4xZ2.
SETUP = """
import importlib, json, sys
import pointedcat.cli
from pointedcat import serde
from pointedcat.battery import enumerate_quadratic_forms
from pointedcat.cocycles import QuadraticForm
from pointedcat.groups import parse_group
from pointedcat.metric import category_from_form

forms = {literal: enumerate_quadratic_forms(parse_group(literal))
         for literal in ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z8", "Z4xZ2")}
group = parse_group("Z4xZ2")
for form in forms["Z4xZ2"][:4]:
    serde.category_to_json(category_from_form(QuadraticForm(group, form.values), label="bench"))
memos, cold, targets = json.loads(sys.argv[1])

def find(module_name, attr):
    return getattr(importlib.import_module(module_name), attr, None)

def owner_attr(module_name, owner, attr):
    cls = find(module_name, owner)
    return vars(cls).get(attr) if cls is not None else None

print(json.dumps({
    "memos": {f"{m}.{a}": find(m, a).cache_info().currsize for m, a in memos},
    "cold": {f"{m}.{a}": find(m, a).cache_info().currsize for m, a in cold},
    "unresolved": [name for name, m, owner, attr in targets
                   if not callable(find(m, attr) if owner is None
                                   else owner_attr(m, owner, attr))],
}))
"""


def test_memos_are_empty_after_the_benchmark_set_up():
    cold = _table("workloads.py", "COLD_CACHES")
    targets = _table("spans.py", "TARGETS")
    assert len(cold) == 5 and len(targets) == 26
    src = str(Path(pointedcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", SETUP, json.dumps([MEMOS, cold, targets])],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["memos"] == {f"{m}.{a}": 0 for m, a in MEMOS}
    assert report["cold"] == {f"{m}.{a}": 0 for m, a in cold}
    assert report["unresolved"] == []
