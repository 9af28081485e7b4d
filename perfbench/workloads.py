"""The benchmark's workloads: seeded inputs, the op list, and the result oracle.

A workload turns a seed into a list of ops.  Each op calls into pointedcat,
and its result is reduced to plain JSON, digested, and compared with the
digest pinned in ``digests.json`` at commit 5bebd5a.  Every op also meets
a closed-form check that does not depend on the pinned digest.

Ops call library functions through module attributes (``pc.preset``, ...)
at call time, so the wrappers installed by a traced pass are seen.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pointedcat as pc
from pointedcat import serde
from run import OP_BUDGET_S

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

# The five caches that must be empty before a pass runs its first op.
COLD_CACHES = (
    ("pointedcat.metric", "preset"),
    ("pointedcat.metric", "drinfeld_double"),
    ("pointedcat.metric", "mueger_center"),
    ("pointedcat.brmod", "schur_classes"),
    ("pointedcat.brmod", "smatrix2"),
)


@dataclass
class Op:
    """One timed call; ``run`` returns a result that ``reduce`` makes JSON."""

    key: str
    run: Callable[[], object]
    reduce: Callable[[object], object]
    check: Callable[[object], str | None]


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def verify(op: Op, result, pinned: dict) -> str | None:
    """None when the result matches its pinned digest and closed form."""
    value = op.reduce(result)
    want = pinned.get(op.key)
    if want is None:
        return f"no pinned digest for {op.key}"
    got = digest(value)
    if got != want:
        return f"{op.key}: digest {got} != pinned {want}"
    return op.check(value)


def _roots(values) -> list[list[int]]:
    return [[v.order, v.exponent] for v in values]


def _elements(sub) -> list[list[int]]:
    return [list(g) for g in sub.elements]


# ----------------------------------------------------------------------
# level1-doubles: rank, center and Lagrangians of Drinfeld doubles.
# ----------------------------------------------------------------------

# Lagrangian subgroups of D(G) correspond to pairs (H <= G, alternating
# bicharacter on H): the subgroups of G when G is cyclic, plus one for the
# nontrivial alternating form on Z2 x Z2.
LAGRANGIAN_COUNTS = {"Z2": 2, "Z3": 2, "Z4": 3, "Z2xZ2": 6, "Z6": 4}


def _level1_op(question: str, literal: str) -> Op:
    name = f"double:{literal}"
    n = pc.parse_group(literal).order

    if question == "double":
        def run():
            return pc.preset(name)

        def reduce(cat):
            return [list(cat.group.factors), _roots(cat.form.values),
                    cat.cocycle is not None]

        def check(value):
            size = math.prod(value[0])
            return None if size == n * n else f"|D(G)| = {size}, expected {n * n}"

    elif question == "rank":
        def run():
            return pc.smatrix1(pc.preset(name)).matrix.rank()

        def reduce(rank):
            return rank

        def check(rank):
            return None if rank == n * n else f"rank {rank}, expected {n * n}"

    elif question == "center":
        def run():
            cat = pc.preset(name)
            return pc.mueger_center(cat), pc.is_symmetric(cat), pc.is_nondegenerate(cat)

        def reduce(result):
            center, symmetric, nondegenerate = result
            return [_elements(center), symmetric, nondegenerate]

        def check(value):
            ok = len(value[0]) == 1 and not value[1] and value[2]
            return None if ok else f"center {value} is not trivial and non-degenerate"

    elif question == "detect":
        def run():
            return pc.detect_center(pc.preset(name))

        def reduce(report):
            return [report.nondegenerate, report.lagrangian_count, report.is_center,
                    [_elements(w) for w in report.witnesses]]

        def check(value):
            want = LAGRANGIAN_COUNTS[literal]
            if value[1] != want or not (value[0] and value[2]):
                return f"{value[1]} Lagrangians (expected {want}) or not a center"
            return None

    else:
        raise ValueError(question)
    return Op(f"level1|{question}|{literal}", run, reduce, check)


# A run must measure every op several times, so every op here stays under
# about 1 s on a 2-vCPU Intel Xeon VM.  Left out for that reason: the
# doubles of Z5 (building it runs a 25-dimensional rank, 2-3 s) and of Z8
# (its Lagrangians, about 5 s), and the 36-dimensional ranks of Z6 and Z2xZ3.
LEVEL1_PLAN = (
    *(tuple((q, g) for q in ("double", "rank", "center", "detect"))
      for g in ("Z2", "Z3", "Z4", "Z2xZ2")),
    (("double", "Z6"), ("center", "Z6"), ("detect", "Z6")),
)


def level1_ops(rng: random.Random, workdir: Path) -> list[Op]:
    # The seed picks the order of the groups and of the questions after the
    # double, which comes first and pays for building it.
    blocks = [list(block) for block in LEVEL1_PLAN]
    rng.shuffle(blocks)
    ops = []
    for head, *rest in blocks:
        rng.shuffle(rest)
        ops += [_level1_op(q, g) for q, g in [head, *rest]]
    return ops


def level1_all() -> list[Op]:
    return [_level1_op(q, g) for block in LEVEL1_PLAN for q, g in block]


# ----------------------------------------------------------------------
# level2-battery: the per-case battery on a seeded sample of forms.
# ----------------------------------------------------------------------

# (group, stride): every stride-th Aut(G)-orbit of forms on the group.  Z4xZ2
# has 30 orbits and most of the cost; a third of them keeps a pass near 4 s,
# so that a run measures every op five to eight times.
LEVEL2_GROUPS = (("Z2", 1), ("Z3", 1), ("Z4", 1), ("Z2xZ2", 1),
                 ("Z5", 1), ("Z6", 1), ("Z8", 1), ("Z4xZ2", 3))


def automorphisms(group) -> list[list[int]]:
    """Every automorphism of G as the permutation of element indices it induces."""
    elems = group.elements()
    index = {g: i for i, g in enumerate(elems)}
    out = []
    for images in itertools.product(elems, repeat=group.rank):
        if any(group.scalar_mul(n, x) != group.zero for n, x in zip(group.factors, images)):
            continue
        perm = []
        for a in elems:
            image = group.zero
            for c, x in zip(a, images):
                image = group.add(image, group.scalar_mul(c, x))
            perm.append(index[image])
        if len(set(perm)) == len(elems):
            out.append(perm)
    return out


def form_orbits(literal: str) -> list[list[tuple]]:
    """The forms on G grouped into Aut(G)-orbits, in a fixed order.

    Forms in one orbit are the same problem up to relabelling, so they
    cost about the same; sampling one member per orbit keeps the work of a
    pass nearly independent of the seed.
    """
    group = pc.parse_group(literal)
    auts = automorphisms(group)
    orbits: dict[tuple, list[tuple]] = {}
    for form in pc.enumerate_quadratic_forms(group):
        values = form.values
        key = min(tuple((values[p[i]].order, values[p[i]].exponent)
                        for i in range(len(values))) for p in auts)
        orbits.setdefault(key, []).append(values)
    return [orbits[k] for k in sorted(orbits)]


def _battery_op(literal: str, values: tuple) -> Op:
    label = ",".join(f"{v.order}/{v.exponent}" for v in values)

    def run():
        return pc.run_all([pc.BatteryCase(literal, values)], include_global=False)

    def reduce(summary):
        return [[r.case, r.check, r.passed, r.witness] for r in summary.rows]

    def check(rows):
        failed = [r[1] for r in rows if not r[2]]
        if failed or len(rows) != 8:
            return f"{len(rows)} rows, failing: {failed}"
        return None

    return Op(f"battery|{literal}|{label}", run, reduce, check)


def _level2_orbits():
    for literal, stride in LEVEL2_GROUPS:
        for orbit in form_orbits(literal)[::stride]:
            yield literal, orbit


def level2_ops(rng: random.Random, workdir: Path) -> list[Op]:
    # One seeded member of each sampled Aut(G)-orbit, in seeded order.
    ops = [_battery_op(literal, rng.choice(orbit)) for literal, orbit in _level2_orbits()]
    rng.shuffle(ops)
    return ops


def level2_all() -> list[Op]:
    return [_battery_op(literal, values)
            for literal, orbit in _level2_orbits() for values in orbit]


# ----------------------------------------------------------------------
# cohomology-classify: brute-force H^3_ab classification.
# ----------------------------------------------------------------------

CLASSIFY_CASES = (
    ("Z2", 2), ("Z2", 4), ("Z2", 8), ("Z3", 3), ("Z3", 6),
    ("Z4", 2), ("Z2xZ2", 2), ("Z4", 3), ("Z2xZ2", 3),
)


def _forms_in_mu(literal: str, n: int) -> int:
    """Forms on G with values in mu_N: the class count, by Eilenberg-Mac Lane."""
    forms = pc.enumerate_quadratic_forms(pc.parse_group(literal))
    return sum(1 for f in forms if all(n % v.order == 0 for v in f.values))


def _classify_op(literal: str, n: int, expected: int) -> Op:
    def run():
        return pc.classify_h3ab(pc.parse_group(literal), n)

    def reduce(classes):
        return [[_roots(c.form.values), _roots(c.representative.psi),
                 _roots(c.representative.omega), c.orbit_size] for c in classes]

    def check(value):
        return None if len(value) == expected else (
            f"{len(value)} classes, expected {expected} forms in mu_{n}")

    return Op(f"classify|{literal}|{n}", run, reduce, check)


def classify_ops(rng: random.Random, workdir: Path) -> list[Op]:
    ops = [_classify_op(g, n, _forms_in_mu(g, n)) for g, n in CLASSIFY_CASES]
    rng.shuffle(ops)
    return ops


def classify_all() -> list[Op]:
    return classify_ops(random.Random(0), Path("."))


# ----------------------------------------------------------------------
# cli-chain: subcommands as subprocesses, one at a time.
# ----------------------------------------------------------------------

CLI_FILE_GROUP = "Z4xZ2"


@dataclass
class CliRun:
    """How a pass starts the CLI: ``python -m pointedcat.cli``, or the traced
    launcher, which writes its span summary into ``spans_dir``."""

    traced: bool = False
    spans_dir: Path | None = None
    process_ms: list[float] = field(default_factory=list)

    def call(self, args: list[str], stdin_text: str | None = None):
        argv, env = [sys.executable, "-m", "pointedcat.cli"], None
        if self.traced:
            argv = [sys.executable, str(HERE / "cli_launcher.py")]
            summary = self.spans_dir / f"cli-{len(self.process_ms)}.json"
            env = dict(os.environ, PERFBENCH_SPANS=str(summary))
        started = time.perf_counter()
        proc = subprocess.run(argv + args, input=stdin_text, capture_output=True,
                              text=True, env=env, timeout=OP_BUDGET_S)
        self.process_ms.append((time.perf_counter() - started) * 1000.0)
        return proc


# Set up by the worker before a cli-chain pass runs its ops.
CLI = CliRun()


def _cli_result(proc) -> dict:
    try:
        results = json.loads(proc.stdout)["results"] if proc.stdout.strip() else None
    except (json.JSONDecodeError, KeyError, TypeError):
        results = "unparsable stdout"
    return {"results": results, "exit": proc.returncode}


def _cli_op(name: str, args: list[str], want_exit: int,
            check_results: Callable[[dict], str | None] | None = None,
            content_key: str = "") -> Op:
    def run():
        return _cli_result(CLI.call(args + ["--json"]))

    def check(value):
        if value["exit"] != want_exit:
            return f"exit {value['exit']}, expected {want_exit}"
        return check_results(value["results"]) if check_results else None

    key = f"cli|{name}" + (f"|{content_key}" if content_key else "")
    return Op(key, run, lambda v: v, check)


def _pipe_op() -> Op:
    def run():
        first = CLI.call(["double", "Z3", "--json"])
        second = CLI.call(["lagrangian", "-", "--json"], stdin_text=first.stdout)
        return {"double": _cli_result(first), "lagrangian": _cli_result(second)}

    def check(value):
        if value["double"]["exit"] or value["lagrangian"]["exit"]:
            return "pipe stage failed"
        return _expect_field(value["lagrangian"]["results"], "lagrangian_count", 2)

    return Op("cli|pipe-double-lagrangian", run, lambda v: v, check)


def _expect_field(results, field: str, want) -> str | None:
    got = results.get(field) if isinstance(results, dict) else None
    return None if got == want else f"{field} = {got}, expected {want}"


def _file_orbit() -> list[tuple]:
    """The first Aut-orbit of size 4 among the forms on CLI_FILE_GROUP."""
    return next(o for o in form_orbits(CLI_FILE_GROUP) if len(o) == 4)


def _write_files(values: tuple, workdir: Path) -> dict[str, tuple[Path, str]]:
    """The input files for one form: a form file, its cocycle file and a
    cocycle file with one associator entry flipped, keyed by role."""
    group = pc.parse_group(CLI_FILE_GROUP)
    category = pc.category_from_form(pc.QuadraticForm(group, values), label="bench")
    cocycle = serde.category_to_json(category)
    form = {k: cocycle[k] for k in ("label", "group", "q")}
    broken = json.loads(json.dumps(cocycle))
    key = "(1,0),(1,0),(1,0)"
    broken["psi"][key] = "1" if broken["psi"].get(key, "1") != "1" else "-1"
    out = {}
    workdir.mkdir(parents=True, exist_ok=True)
    for role, payload in (("form", form), ("cocycle", cocycle), ("broken", broken)):
        text = json.dumps(payload, sort_keys=True)
        path = workdir / f"{role}.json"
        path.write_text(text, encoding="utf-8")
        out[role] = (path, hashlib.sha256(text.encode()).hexdigest()[:12])
    return out


def _cli_ops_for(files: dict, workdir: Path) -> list[Op]:
    def field_is(field, want):
        return lambda results: _expect_field(results, field, want)

    form, form_key = files["form"]
    cocycle, cocycle_key = files["cocycle"]
    broken, broken_key = files["broken"]
    return [
        _cli_op("tmatrix-semion", ["tmatrix", "semion"], 0),
        _cli_op("center-double-Z3", ["center", "double:Z3"], 0, field_is("order", 1)),
        _cli_op("smatrix-svect-2", ["smatrix", "--cat", "svect", "--level", "2"], 0,
                field_is("character_table_match", True)),
        _cli_op("modcats-toric", ["modcats", "--cat", "toric"], 0),
        _cli_op("classify-Z2-4", ["classify", "Z2", "--values", "4"], 0, field_is("count", 4)),
        _cli_op("lagrangian-double-Z2xZ2", ["lagrangian", "double:Z2xZ2"], 0,
                field_is("lagrangian_count", 6)),
        _pipe_op(),
        _cli_op("cocycle-check-file", ["cocycle-check", str(cocycle)], 0,
                field_is("is_abelian_cocycle", True), cocycle_key),
        _cli_op("smatrix-file", ["smatrix", str(form)], 0, None, form_key),
        _cli_op("error-classify-too-large", ["classify", "Z2xZ2xZ2"], 4),
        _cli_op("error-classify-values", ["classify", "Z2", "--values", "9"], 4),
        _cli_op("error-cocycle-check-broken", ["cocycle-check", str(broken)], 2,
                field_is("is_abelian_cocycle", False), broken_key),
        _cli_op("error-missing-file", ["center", str(workdir / "missing.json")], 2),
    ]


def cli_ops(rng: random.Random, workdir: Path) -> list[Op]:
    # The seed picks the member of a fixed orbit that the files carry, and
    # the order of the ops.
    ops = _cli_ops_for(_write_files(rng.choice(_file_orbit()), workdir), workdir)
    rng.shuffle(ops)
    return ops


def cli_all(workdir: Path):
    """Every CLI op any seed can make; file-backed ops run while their files exist."""
    for values in _file_orbit():
        yield from _cli_ops_for(_write_files(values, workdir), workdir)


WORKLOADS = {
    "level1-doubles": level1_ops,
    "level2-battery": level2_ops,
    "cohomology-classify": classify_ops,
    "cli-chain": cli_ops,
}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
