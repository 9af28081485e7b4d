"""Command-line front end.

One binary with subcommands; every command emits a run report (JSON with
--json or to --out, aligned tables for humans otherwise).  Reports echo the
command, digest their inputs, and are deterministic up to the timing field.
Category arguments accept preset names, "double:<group>", a JSON file path,
or "-" to read a category JSON from stdin, so commands can be piped:

    pointedcat double Z2 --json | pointedcat lagrangian -
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from . import __version__
from .errors import GroupTooLarge, ParseError, PointedCatError, exit_code_for
from .cyclotomic import format_root
from .groups import DEFAULT_MAX_GROUP_ORDER, format_group, parse_group
from .cocycles import (
    check_hexagons,
    check_pentagon,
    classify_h3ab,
    trace_form,
)
from .metric import (
    CenterReport,
    detect_center,
    drinfeld_double,
    is_nondegenerate,
    is_symmetric,
    mueger_center,
    smatrix1,
    smatrix_rank,
    tmatrix_diagonal,
)
from .brmod import (
    admissible_subgroups,
    pi0_report,
    schur_classes,
    smatrix2,
    verify_character_table,
)
from .battery import default_cases, run_all
from .serde import (
    category_to_json,
    cocycle_to_json,
    element_array,
    load_category,
    matrix_strings,
    qf_to_json,
    raw_cocycle_from_source,
    source_group,
)


def _digest(payload) -> str:
    """The first 16 hex digits of the sha256 of the canonical JSON.  sha256
    comes from the built-in module ``hashlib`` falls back to, as CPython's
    ``random`` does for sha512: ``hashlib`` loads OpenSSL, a few ms of every
    CLI process's start for one short digest."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()[:16]


def _aligned(rows: list[list[str]]) -> list[str]:
    if not rows:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]


def _emit(args, command: str, inputs, results, human_lines, started: float) -> None:
    report = {
        "command": command,
        "inputs": inputs,
        "digest": _digest({"command": command, "inputs": inputs}),
        "results": results,
        "timing_ms": round((time.perf_counter() - started) * 1000, 3),
        "version": __version__,
    }
    text = json.dumps(report, indent=2, sort_keys=False)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return
    # default to the JSON report when piped, so commands chain through stdin
    want_json = getattr(args, "json", False) or (
        not getattr(args, "human", False) and not sys.stdout.isatty()
    )
    if want_json:
        print(text)
    else:
        for line in human_lines:
            print(line)


def _load(args, load=load_category):
    """``load`` of the category argument, once its |G| is within
    --max-group-order: read from the "double:<G>" literal or the JSON's
    "group", so a source over the bound fails before anything is built."""
    stdin_text = sys.stdin.read() if args.cat == "-" else None
    order = source_group(args.cat, stdin_text).order
    if order > args.max_group_order:
        raise GroupTooLarge(f"|G| = {order} exceeds the bound {args.max_group_order}")
    return load(args.cat, stdin_text)


def _category_inputs(args, category) -> dict:
    return {"cat": args.cat, "category": category_to_json(category)}


# ----------------------------------------------------------------------
# Subcommands.
# ----------------------------------------------------------------------

def cmd_smatrix(args) -> None:
    started = time.perf_counter()
    category = _load(args)
    if args.level == 1:
        sm = smatrix1(category)
        rank = smatrix_rank(category)
        results = {
            "category": category.label,
            "level": 1,
            "elements": [element_array(g) for g in category.group.elements()],
            "matrix": matrix_strings(sm.roots),
            "rank": rank,
            "invertible": rank == category.group.order,
        }
        human = [f"S-matrix (level 1) of {category.label or format_group(category.group)}:"]
        human += _aligned(results["matrix"])
        human.append(f"rank {rank} of {category.group.order}; invertible: {results['invertible']}")
    else:
        sm = smatrix2(category)
        match = verify_character_table(category)
        results = {
            "category": category.label,
            "level": 2,
            "center": [element_array(g) for g in sm.cols],
            "classes": [list(cls.restricted.coords) for cls in sm.rows],
            "matrix": matrix_strings(sm.roots),
            "square": len(sm.rows) == len(sm.cols),
            "invertible": sm.rank == len(sm.roots),
            "character_table_match": match,
        }
        human = [f"S-matrix (level 2) of {category.label or format_group(category.group)}:"]
        human += _aligned(results["matrix"])
        human.append(
            f"square: {results['square']}; invertible: {results['invertible']}; "
            f"character-table match: {match}"
        )
    _emit(args, "smatrix", _category_inputs(args, category) | {"level": args.level},
          results, human, started)


def cmd_tmatrix(args) -> None:
    started = time.perf_counter()
    category = _load(args)
    diag = tmatrix_diagonal(category)
    results = {
        "category": category.label,
        "elements": [element_array(g) for g in category.group.elements()],
        "diagonal": [format_root(r) for r in diag],
    }
    human = [f"T-matrix diagonal of {category.label or format_group(category.group)}:"]
    human += _aligned([[format_root(r)] for r in diag])
    _emit(args, "tmatrix", _category_inputs(args, category), results, human, started)


def cmd_center(args) -> None:
    started = time.perf_counter()
    category = _load(args)
    center = mueger_center(category)
    results = {
        "category": category.label,
        "center": [element_array(g) for g in center.elements],
        "order": center.order,
        "symmetric": is_symmetric(category),
        "nondegenerate": is_nondegenerate(category),
    }
    human = [
        f"transparent subgroup of {category.label or format_group(category.group)}: "
        f"order {center.order}",
        "elements: " + ", ".join(str(list(g)) for g in center.elements),
        f"symmetric: {results['symmetric']}; nondegenerate: {results['nondegenerate']}",
    ]
    _emit(args, "center", _category_inputs(args, category), results, human, started)


def cmd_lagrangian(args) -> None:
    started = time.perf_counter()
    category = _load(args)
    report: CenterReport = detect_center(category, args.max_group_order)
    results = {
        "category": category.label,
        "nondegenerate": report.nondegenerate,
        "lagrangian": [
            [element_array(g) for g in sub.elements] for sub in report.witnesses
        ],
        "lagrangian_count": report.lagrangian_count,
        "is_center": report.is_center,
        "degenerate_ambient_warning": report.degenerate_ambient,
    }
    human = [
        f"{category.label or format_group(category.group)}: "
        f"{report.lagrangian_count} Lagrangian subgroup(s); "
        f"nondegenerate: {report.nondegenerate}; detected as a center: {report.is_center}"
    ]
    for sub in report.witnesses:
        human.append("  L = {" + ", ".join(str(list(g)) for g in sub.elements) + "}")
    if report.degenerate_ambient:
        human.append("warning: ambient category is degenerate; Lagrangian notion is formal")
    _emit(args, "lagrangian", _category_inputs(args, category), results, human, started)


def cmd_double(args) -> None:
    started = time.perf_counter()
    group = parse_group(args.group)
    if group.order ** 2 > DEFAULT_MAX_GROUP_ORDER:
        raise GroupTooLarge(
            f"|G| = {group.order ** 2} exceeds the bound {DEFAULT_MAX_GROUP_ORDER}"
        )
    category = drinfeld_double(group)
    results = {
        "group": format_group(group),
        "category": category_to_json(category),
        "nondegenerate": True,
    }
    human = [
        f"Drinfeld double of {format_group(group)}: "
        f"{format_group(category.group)} with q = chi(g)",
        json.dumps(qf_to_json(category.form)["q"], sort_keys=True),
    ]
    _emit(args, "double", {"group": args.group}, results, human, started)


def cmd_classify(args) -> None:
    started = time.perf_counter()
    group = parse_group(args.group)
    classes = classify_h3ab(group, args.values)
    results = {
        "group": format_group(group),
        "values": args.values,
        "count": len(classes),
        "classes": [
            {
                "q": qf_to_json(cls.form)["q"],
                "psi": tables["psi"],
                "omega": tables["omega"],
                "orbit_size": cls.orbit_size,
            }
            for cls in classes
            for tables in [cocycle_to_json(cls.representative)]
        ],
    }
    human = [
        f"{len(classes)} cohomology class(es) on {format_group(group)} "
        f"with values of order dividing {args.values}:"
    ]
    for cls in results["classes"]:
        human.append(
            f"  q={json.dumps(cls['q'], sort_keys=True)} "
            f"omega={json.dumps(cls['omega'], sort_keys=True)} "
            f"psi={json.dumps(cls['psi'], sort_keys=True)} "
            f"(orbit size {cls['orbit_size']})"
        )
    _emit(args, "classify", {"group": args.group, "values": args.values},
          results, human, started)


def cmd_modcats(args) -> None:
    started = time.perf_counter()
    category = _load(args)
    center = mueger_center(category)
    subs = admissible_subgroups(category, args.max_group_order)
    classes = schur_classes(category)
    report = pi0_report(category)
    results = {
        "category": category.label,
        "center": [element_array(g) for g in center.elements],
        "admissible_subgroups": [
            [element_array(g) for g in sub.elements] for sub in subs
        ],
        "classes": [list(item.schur.restricted.coords) for item in classes],
        "representatives": [
            {
                "chi": list(item.representative.chi.coords),
                "H": [element_array(g) for g in item.representative.subgroup.elements],
            }
            for item in classes
        ],
        "pi0": {"pi0": report.pi0, "pi0_omega": report.pi0_omega, "equal": report.equal},
    }
    human = [
        f"{category.label or format_group(category.group)}: "
        f"{len(subs)} admissible subgroup(s), {len(classes)} Schur class(es)",
        f"pi0 = {report.pi0}, pi0(loop) = {report.pi0_omega}, equal: {report.equal}",
    ]
    for item in classes:
        human.append(f"  class chi|_center = {list(item.schur.restricted.coords)} "
                     f"(lift chi = {list(item.representative.chi.coords)})")
    _emit(args, "modcats", _category_inputs(args, category), results, human, started)


def cmd_cocycle_check(args) -> None:
    started = time.perf_counter()
    label, cocycle = _load(args, raw_cocycle_from_source)
    if cocycle is None:
        raise ParseError("the input carries no cocycle tables to check")
    normalized = cocycle.normalized
    pentagon_ok, pentagon_witness = check_pentagon(cocycle)
    hexagon_ok, hexagon_witness = check_hexagons(cocycle)
    valid = normalized and pentagon_ok and hexagon_ok
    results = {
        "category": label,
        "normalized": normalized,
        "pentagon": {"ok": pentagon_ok, "witness": pentagon_witness and list(map(list, pentagon_witness))},
        "hexagons": {
            "ok": hexagon_ok,
            "witness": hexagon_witness
            and [hexagon_witness[0], [list(x) for x in hexagon_witness[1]]],
        },
        "is_abelian_cocycle": valid,
        "trace_q": qf_to_json(trace_form(cocycle))["q"] if valid else None,
    }
    human = [
        f"normalized: {'yes' if normalized else 'no'}",
        f"pentagon: {'ok' if pentagon_ok else f'fails at {pentagon_witness}'}",
        f"hexagons: {'ok' if hexagon_ok else f'fail at {hexagon_witness}'}",
    ]
    if results["trace_q"] is not None:
        human.append(f"trace form: {json.dumps(results['trace_q'], sort_keys=True)}")
    _emit(args, "cocycle-check", {"cat": args.cat}, results, human, started)
    if not valid:
        raise SystemExit(2)


def cmd_battery(args) -> None:
    started = time.perf_counter()
    summary = run_all(default_cases())
    results = [
        {
            "case": row.case,
            "check": row.check,
            "pass": row.passed,
            **({"witness": row.witness} if row.witness else {}),
        }
        for row in summary.rows
    ]
    table = [["PASS" if row.passed else "FAIL", row.check, row.case]
             for row in summary.rows]
    human = _aligned(table) if table else []
    passed = sum(1 for row in summary.rows if row.passed)
    human.append(f"{passed}/{len(summary.rows)} checks passed")
    if summary.warning:
        human.append(f"warning: {summary.warning}")
    _emit(args, "battery", {"cases": len(summary.rows)}, results, human, started)
    if not summary.all_pass:
        raise SystemExit(1)


# ----------------------------------------------------------------------
# Parser and entry point.
# ----------------------------------------------------------------------

def _add_report_args(sub) -> None:
    sub.add_argument("--json", action="store_true", help="emit the JSON run report")
    sub.add_argument("--human", action="store_true", help="force the aligned table view")
    sub.add_argument("--out", help="write the JSON run report to a file")


def _add_category_arg(sub) -> None:
    sub.add_argument(
        "cat_positional",
        nargs="?",
        metavar="CATEGORY",
        help="preset, double:<group>, JSON file or - for stdin",
    )
    sub.add_argument("--cat", help="same as the positional category argument")
    _add_report_args(sub)
    sub.add_argument(
        "--max-group-order",
        type=int,
        default=DEFAULT_MAX_GROUP_ORDER,
        help="bound on |G|, checked before the category is built (default 256)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointedcat",
        description="Exact S-matrix computations for pointed braided fusion categories.",
    )
    parser.add_argument("--version", action="version", version=f"pointedcat {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sm = subs.add_parser("smatrix", help="S-matrix at level 1 or 2")
    _add_category_arg(sm)
    sm.add_argument("--level", type=int, choices=(1, 2), default=1)
    sm.set_defaults(fn=cmd_smatrix)

    tm = subs.add_parser("tmatrix", help="diagonal of twists q(g)")
    _add_category_arg(tm)
    tm.set_defaults(fn=cmd_tmatrix)

    ce = subs.add_parser("center", help="transparent (Mueger) subgroup")
    _add_category_arg(ce)
    ce.set_defaults(fn=cmd_center)

    la = subs.add_parser("lagrangian", help="Lagrangian subgroups and center detection")
    _add_category_arg(la)
    la.set_defaults(fn=cmd_lagrangian)

    do = subs.add_parser("double", help="Drinfeld double of an abelian group, |G|^2 <= 256")
    do.add_argument("group", help='group literal such as "Z2" or "Z2xZ3"')
    _add_report_args(do)
    do.set_defaults(fn=cmd_double)

    cl = subs.add_parser("classify", help="abelian 3-cocycle classes on tiny groups")
    cl.add_argument("group")
    cl.add_argument("--values", type=int, default=4, help="root-of-unity order bound")
    _add_report_args(cl)
    cl.set_defaults(fn=cmd_classify)

    mo = subs.add_parser("modcats", help="braided module categories and Schur classes")
    _add_category_arg(mo)
    mo.set_defaults(fn=cmd_modcats)

    cc = subs.add_parser("cocycle-check", help="pentagon/hexagon diagnostics")
    _add_category_arg(cc)
    cc.set_defaults(fn=cmd_cocycle_check)

    ba = subs.add_parser("battery", help="run the full verification battery")
    _add_report_args(ba)
    ba.set_defaults(fn=cmd_battery)

    return parser


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "cat_positional"):
            args.cat = args.cat or args.cat_positional
            if not args.cat:
                parser.error("a category is required (positional or --cat)")
            if args.max_group_order < 1:
                raise ParseError(
                    f"--max-group-order must be at least 1, got {args.max_group_order}"
                )
        args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return 0 if exc.code is None else 1
    except PointedCatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    return 0


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`| head`): the rest of the report
        # goes nowhere, and stdout points at devnull so the flush at exit
        # cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        # Not one of the package's errors, so a bug: exit 3 like a failed
        # cross-check, naming only the exception type.
        print(f"error: internal error: {type(exc).__name__}", file=sys.stderr)
        return 3
    return code


def run() -> int:
    """``main()`` for a process that ends when it returns: the console script
    and ``python -m pointedcat.cli``.  Freezing every tracked object spares
    the interpreter's exit its search for cyclic garbage; exit still flushes
    the streams and runs atexit handlers.  Code that goes on running after
    ``main`` returns calls ``main``, so its heap stays collectable."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
