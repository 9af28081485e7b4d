import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pointedcat
from pointedcat import cli
from pointedcat.cli import main
from pointedcat.groups import parse_group
from pointedcat.metric import preset
from pointedcat.serde import category_from_json, category_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# -- smatrix -----------------------------------------------------------------

def test_smatrix_level1_semion(capsys):
    report = run_json(capsys, "smatrix", "--cat", "semion", "--level", "1")
    results = report["results"]
    assert results["matrix"] == [["1", "1"], ["1", "-1"]]
    assert results["rank"] == 2
    assert results["invertible"] is True


def test_smatrix_level2_svect(capsys):
    report = run_json(capsys, "smatrix", "--cat", "svect", "--level", "2")
    results = report["results"]
    assert results["matrix"] == [["1", "1"], ["1", "-1"]]
    assert results["character_table_match"] is True
    assert results["square"] is True and results["invertible"] is True


def test_smatrix_level2_trivial(capsys):
    report = run_json(capsys, "smatrix", "--cat", "trivial", "--level", "2")
    assert report["results"]["matrix"] == [["1"]]


def test_smatrix_human_mode(capsys):
    code, out, _ = run_cli(capsys, "smatrix", "semion", "--level", "1", "--human")
    assert code == 0
    assert "rank 2 of 2" in out


# -- piping double into lagrangian ---------------------------------------------

def test_double_pipes_into_lagrangian(capsys, monkeypatch):
    report = run_json(capsys, "double", "Z2")
    assert report["results"]["category"]["group"] == "Z2xZ2"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(report)))
    chained = run_json(capsys, "lagrangian", "-")
    assert chained["results"]["lagrangian_count"] == 2
    assert chained["results"]["is_center"] is True
    assert chained["results"]["lagrangian"] == [
        [[0, 0], [0, 1]],
        [[0, 0], [1, 0]],
    ]


# -- other subcommands ------------------------------------------------------------

def test_classify_z2(capsys):
    report = run_json(capsys, "classify", "Z2", "--values", "4")
    results = report["results"]
    assert results["count"] == 4
    qs = sorted(cls["q"].get("1", "1") for cls in results["classes"])
    assert qs == sorted(["1", "-1", "z4^1", "z4^3"])


def test_modcats_svect(capsys):
    report = run_json(capsys, "modcats", "--cat", "svect")
    results = report["results"]
    assert results["pi0"] == {"pi0": 2, "pi0_omega": 2, "equal": True}
    assert results["classes"] == [[0], [1]]
    assert all(rep["H"] == [[0]] for rep in results["representatives"])


def test_center_and_tmatrix(capsys):
    report = run_json(capsys, "center", "--cat", "double:Z3")
    assert report["results"]["order"] == 1
    assert report["results"]["nondegenerate"] is True

    report = run_json(capsys, "tmatrix", "--cat", "semion")
    assert report["results"]["diagonal"] == ["1", "z4^1"]


def test_cocycle_check(capsys):
    report = run_json(capsys, "cocycle-check", "--cat", "semion")
    results = report["results"]
    assert results["is_abelian_cocycle"] is True
    assert results["trace_q"] == {"1": "z4^1"}


# -- exit codes ---------------------------------------------------------------------

def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"group": "Z4", "q": {"1": "1", "2": "-1", "3": "1"}}))
    code, _, err = run_cli(capsys, "center", str(bad))
    assert code == 2
    assert "bimultiplicative" in err


def test_exit_code_broken_cocycle(tmp_path, capsys):
    bad = tmp_path / "bad_cocycle.json"
    bad.write_text(json.dumps({"group": "Z2", "psi": {"1,1,1": "z4^1"}}))
    code, _, err = run_cli(capsys, "smatrix", str(bad))
    assert code == 2
    assert "pentagon" in err


def test_exit_code_bounds(capsys):
    code, _, err = run_cli(capsys, "lagrangian", "double:Z32")
    assert code == 4
    code, _, err = run_cli(capsys, "classify", "Z8")
    assert code == 4
    code, _, err = run_cli(capsys, "classify", "Z2xZ2xZ2")  # pinned by perfbench's cli-chain
    assert code == 4


@pytest.mark.parametrize("mode", ["--human", "--json"])
def test_reader_closing_the_pipe_early_exits_quietly(mode):
    src = str(Path(pointedcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pointedcat.cli", "classify", "Z2", "--values", "4", mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader goes away before the report is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_exit_code_unknown_source(capsys):
    code, _, err = run_cli(capsys, "smatrix", "nosuchpreset")
    assert code == 2
    assert "preset" in err


def test_exit_code_map_covers_inconsistency():
    from pointedcat.errors import InternalInconsistency, exit_code_for

    assert exit_code_for(InternalInconsistency()) == 3


# -- round trips and reports ---------------------------------------------------------

def test_emitted_categories_reparse_to_equal_values(capsys):
    for name in ("trivial", "svect", "semion", "semion-bar", "toric", "double:Z3",
                 "double:Z5", "double:Z6"):
        cat = preset(name)
        again = category_from_json(category_to_json(cat))
        assert again == cat


def test_report_digest_is_deterministic(capsys):
    first = run_json(capsys, "center", "--cat", "semion")
    second = run_json(capsys, "center", "--cat", "semion")
    assert first["digest"] == second["digest"]
    assert first["results"] == second["results"]
    assert first["version"] == second["version"]


def test_out_flag_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "center", "semion", "--out", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["command"] == "center"
    assert data["results"]["order"] == 1


# -- battery ---------------------------------------------------------------------------

def test_battery_cli_passes(capsys):
    code, out, _ = run_cli(capsys, "battery", "--human")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_cocycle_check_invalid_reports_and_exits_2(tmp_path, capsys):
    bad = tmp_path / "notcoc.json"
    bad.write_text(
        json.dumps({"group": "Z2", "psi": {"1,1,1": "z4^1"}, "omega": {"1,1": "z8^1"}})
    )
    code, out, _ = run_cli(capsys, "cocycle-check", str(bad), "--json")
    assert code == 2
    report = json.loads(out)
    assert report["results"]["is_abelian_cocycle"] is False
    assert report["results"]["pentagon"]["witness"] == [[1], [1], [1], [1]]


def test_q_gen_category_file(tmp_path, capsys):
    spec = tmp_path / "gen.json"
    spec.write_text(json.dumps({"group": "Z4", "q_gen": ["z8^1"], "label": "gen-form"}))
    report = run_json(capsys, "tmatrix", str(spec))
    assert report["results"]["diagonal"] == ["1", "z8^1", "-1", "z8^1"]


def test_smatrix2_on_double_z4(capsys):
    report = run_json(capsys, "smatrix", "double:Z4", "--level", "2")
    assert report["results"]["matrix"] == [["1"]]
    assert report["results"]["character_table_match"] is True


@pytest.mark.parametrize("literal", ["Z5", "Z8", "Z16"])
def test_level2_on_doubles_without_a_cocycle(capsys, literal):
    """A double has T = 1, so only the regular module is admissible; it needs
    no cocycle, and doubles above order 16 carry none."""
    source = f"double:{literal}"
    assert preset(source).cocycle is None
    sm = run_json(capsys, "smatrix", source, "--level", "2")["results"]
    assert sm["matrix"] == [["1"]]
    assert sm["character_table_match"] is True
    assert sm["classes"] == [[0]]
    mc = run_json(capsys, "modcats", source)["results"]
    assert mc["classes"] == [[0]]
    assert mc["pi0"] == {"pi0": 1, "pi0_omega": 1, "equal": True}


# -- invalid inputs exit 2, never with a traceback ----------------------------------------

def test_classify_value_order_below_one_exits_2(capsys):
    for values in ("0", "-2"):
        code, out, err = run_cli(capsys, "classify", "Z2", "--values", values, "--json")
        assert code == 2
        assert out == ""
        assert "value order" in err
    report = run_json(capsys, "classify", "Z2", "--values", "1")
    assert report["results"]["count"] == 1
    assert report["results"]["classes"][0]["orbit_size"] == 1


def test_cocycle_check_on_form_only_file_exits_2(tmp_path, capsys):
    spec = tmp_path / "form.json"
    spec.write_text(json.dumps({"group": "Z2", "q": {"1": "-1"}}))
    code, _, err = run_cli(capsys, "cocycle-check", str(spec))
    assert code == 2
    assert "no cocycle tables" in err


def test_non_object_tables_exit_2(capsys, monkeypatch):
    for payload in (
        {"group": "Z2", "q": []},
        {"group": "Z2", "psi": []},
        {"group": "Z2xZ2", "q_gen": ["1", "1"], "pairings": []},
        {"group": "Z2", "q_gen": 5},
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        code, _, err = run_cli(capsys, "center", "-")
        assert code == 2, payload
        assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["center", "cocycle-check"])
def test_unreadable_sources_exit_2(tmp_path, capsys, command):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"group": "Z2", "label": "café"}'.encode("latin-1"))
    for source, message in ((tmp_path, "nor a readable file"), (latin1, "is not valid JSON")):
        code, out, err = run_cli(capsys, command, str(source), "--json")
        assert code == 2, source
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_max_group_order_below_one_exits_2(capsys, bound):
    code, out, err = run_cli(capsys, "lagrangian", "--max-group-order", bound, "double:Z2")
    assert code == 2
    assert out == ""
    assert err == f"error: --max-group-order must be at least 1, got {bound}\n"


@pytest.mark.parametrize(
    "command", ["smatrix", "tmatrix", "center", "lagrangian", "modcats", "cocycle-check"]
)
@pytest.mark.parametrize("source", ["double", "file", "-"])
def test_max_group_order_bounds_every_category_command(tmp_path, capsys, monkeypatch,
                                                       command, source):
    """|G| is read from the double's literal or the JSON's "group" and checked
    before the category is built, so nothing over the bound is computed."""
    payload = json.dumps({"group": "Z16xZ16", "q": {}})
    path = tmp_path / "big.json"
    path.write_text(payload)
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    cat = {"double": "double:Z16", "file": str(path), "-": "-"}[source]
    code, out, err = run_cli(capsys, command, cat, "--max-group-order", "4")
    assert code == 4
    assert out == ""
    assert err == "error: |G| = 256 exceeds the bound 4\n"


@pytest.mark.parametrize("literal, code", [("Z16", 0), ("Z17", 4)])
def test_double_is_bounded_before_it_is_built(capsys, monkeypatch, literal, code):
    """The double of G has |G|^2 elements; past the group-order bound the
    command exits 4 without building it."""
    import pointedcat.cli as cli

    built = []
    original = cli.drinfeld_double
    monkeypatch.setattr(cli, "drinfeld_double", lambda g: built.append(g) or original(g))
    status, out, err = run_cli(capsys, "double", literal, "--json")
    assert status == code
    if code == 4:
        assert (out, built) == ("", [])
        assert err == "error: |G| = 289 exceeds the bound 256\n"
    else:
        assert json.loads(out)["results"]["category"]["group"] == "Z16xZ16"


@pytest.mark.parametrize("source", ["-", "file"])
def test_deeply_nested_json_exits_2(tmp_path, source):
    nested = "[" * 100000
    path = tmp_path / "nested.json"
    path.write_text(nested)
    src = str(Path(pointedcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "pointedcat.cli", "center", "-" if source == "-" else str(path)],
        input=nested, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "not valid JSON" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("payload, first, second", [
    ({"group": "Z2", "q": {"1": "z4^1", "1 ": "z4^3"}}, "1", "1 "),
    ({"group": "Z4", "q": {"1": "z8^1", "5": "z8^1"}}, "1", "5"),
    ({"group": "Z2", "omega": {"1,1": "z4^1", "(1),(3)": "z4^1"}}, "1,1", "(1),(3)"),
    ({"group": "Z2", "psi": {"1,1,1": "-1", "1,1,3": "-1"}, "omega": {"1,1": "z4^1"}},
     "1,1,1", "1,1,3"),
    ({"group": "Z2xZ2", "q_gen": ["1", "1"], "pairings": {"0,1": "-1", "0, 1": "1"}},
     "0,1", "0, 1"),
])
def test_two_keys_for_one_entry_exit_2_naming_both(capsys, monkeypatch, payload,
                                                   first, second):
    """Keys that reduce to the same element (or pairing) were merged, the
    later one silently winning; each table kind now refuses them."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    status, out, err = run_cli(capsys, "center", "-", "--json")
    assert (status, out) == (2, "")
    assert f"keys {first!r} and {second!r} name the same entry" in err


# -- inputs at the default bound -----------------------------------------------

_FORM_FILES = {
    "o128": {"group": "Z16xZ8", "q_gen": ["z32^1", "z16^3"], "pairings": {"0,1": "z8^1"}},
    "o256": {"group": "Z16xZ16", "q": {}},
}


def _refuse_cocycles(monkeypatch) -> list:
    """Count each AbelianCocycle built and each cocycle scan begun, and stop
    it by raising; the counts are returned."""
    import pointedcat.cocycles as cocycles

    calls = []

    def refuse(name):
        def refused(*args):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return refused

    monkeypatch.setattr(cocycles.AbelianCocycle, "__init__", refuse("AbelianCocycle"))
    monkeypatch.setattr(cocycles, "_scan_range", refuse("_scan_range"))
    return calls


@pytest.mark.parametrize("name", sorted(_FORM_FILES))
@pytest.mark.parametrize("argv", [["smatrix", "--level", "1"], ["smatrix", "--level", "2"],
                                  ["tmatrix"], ["center"], ["lagrangian"], ["modcats"]])
def test_form_files_at_the_bound_build_no_cocycle(tmp_path, capsys, monkeypatch, name, argv):
    """A q/q_gen-only file is answered from its form: no cocycle is built
    and no cocycle table scanned, and the echo carries no psi/omega.  Either
    would be counted, then stopped with exit 3 instead of taking a minute."""
    calls = _refuse_cocycles(monkeypatch)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_FORM_FILES[name]))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:], "--json")
    assert (code, err, calls) == (0, "", [])
    assert "psi" not in json.loads(out)["inputs"]["category"]


# -- the catch-all and a fuzz test of the front door ---------------------------

def test_unexpected_exceptions_exit_3_without_a_traceback(capsys, monkeypatch):
    import pointedcat.cli as cli

    def broken(args):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "cmd_center", broken)
    code, out, err = run_cli(capsys, "center", "toric", "--json")
    assert (code, out, err) == (3, "", "error: internal error: KeyError\n")


@pytest.mark.parametrize("payload, code, message", [
    # "²" passes str.isdigit() but not int(); so do 5000 digits
    ({"group": "Z²"}, 2, "cannot parse group literal"),
    ({"group": "Z" + "9" * 5000}, 2, "cannot parse group literal"),
    # the table of all N roots was built before the form was checked, which
    # for N = 10^11 never ended; past the cap it is refused
    ({"group": "Z2", "q_gen": ["z10091^1"]}, 4, "conductor 10091 exceeds the cap 10080"),
    ({"group": "Z2xZ2", "q_gen": ["1", "1"], "pairings": {"0,1": "z10091^1"}},
     4, "conductor 10091 exceeds the cap 10080"),
    # int() reads "_", inner spaces and other scripts' digits: "1_0" named 10 = 2 on Z4
    ({"group": "Z٣"}, 2, "cannot parse group literal"),
    ({"group": "Z2", "q": {"1": "z1_0^1"}}, 2, "cannot parse root-of-unity literal"),
    ({"group": "Z2", "q": {"1": "z 4^ 1"}}, 2, "cannot parse root-of-unity literal"),
    ({"group": "Z2", "q": {"1": "z4^+1"}}, 2, "cannot parse root-of-unity literal"),
    ({"group": "Z4", "q": {"1": "z8^1", "1_0": "-1", "3": "z8^1"}}, 2, "bad element '1_0'"),
    ({"group": "Z4", "q": {"1": "z8^1", "٢": "-1", "3": "z8^1"}}, 2, "bad element"),
    ({"group": "Z4", "q": {"١": "z8^1", "2": "-1", "٣": "z8^1"}}, 2, "bad element"),
    ({"group": "Z2", "omega": {"(1),(1 1)": "z4^1"}}, 2, "bad element"),
    ({"group": "Z2xZ2", "q_gen": ["1", "1"], "pairings": {"0,١": "-1"}},
     2, "bad pairing key"),
    ({"group": "Z2xZ2", "q_gen": ["1", "1"], "pairings": {"0,+1": "-1"}}, 2, "bad pairing key"),
])
def test_inputs_that_crashed_or_hung_exit_cleanly(capsys, monkeypatch, payload, code, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    status, out, err = run_cli(capsys, "center", "-", "--json")
    assert (status, out) == (code, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("payload", [
    {"group": "Z4", "q": {"-1": "z8^1", "1": "z8^-7", "2": "-1"}},
    {"group": "Z4xZ2", "q": {"(1,0)": "z8^1", "(-1,0)": "z8^1", "( 1, -1 )": "z8^1",
                             "(3,1)": "z8^1", "(2, 0)": "-1", "(2,1)": "-1"}},
    {"group": "Z2xZ2", "q_gen": ["z4^-1", "1"], "pairings": {" 0 , 1 ": "-1"}},
])
def test_signs_and_spaces_around_integers_still_parse(capsys, monkeypatch, payload):
    """A "-" on an exponent or a coordinate, and spaces around a key's
    integers, keep their meaning."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    status, out, err = run_cli(capsys, "center", "-", "--json")
    assert (status, err) == (0, "")


_LITERALS = ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z6", "Z4xZ2", "Z300", "Z0", "z2X z2", "Z²"]
_ROOTS = ["1", "-1", "z4^1", "z4^3", "z8^1", "z3^2", "z2^1", "z0^1", "z4^x", "0",
          "z10091^1"]
_KEYS = ["0", "1", "2", "3", "(1,0)", "(0,1)", "(1,1)", "(2,1)", "(1)", "1,1", "0,1", "x"]


def _json_values():
    from hypothesis import strategies as st

    scalars = (st.none() | st.booleans() | st.integers(-9, 9) | st.text(max_size=4)
               | st.sampled_from(_ROOTS + _LITERALS))
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


def _payloads():
    from hypothesis import strategies as st

    value = _json_values()
    table = st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=5),
                            st.sampled_from(_ROOTS) | value, max_size=4)
    return st.fixed_dictionaries(
        {"group": st.sampled_from(_LITERALS) | st.text(max_size=6) | value},
        optional={
            "q": table | value,
            "q_gen": st.lists(st.sampled_from(_ROOTS), max_size=3) | value,
            "pairings": table | value,
            "psi": table | value,
            "omega": table | value,
            "label": value,
            "category": value,
            "results": value,
        },
    )


def test_center_on_random_stdin_never_crashes():
    """Random text and JSON objects with small group literals on stdin: every
    run exits 0, 2 or 4 and no traceback reaches stderr."""
    import contextlib
    from unittest import mock

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.text(max_size=40) | _payloads().map(json.dumps))
    def check(text):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["center", "-", "--json"])
        assert code in (0, 2, 4), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()


_GROUPS_OF_ORDER_256 = ["Z16xZ16", "Z256", "Z8xZ8xZ4"]
_SMALL_ROOTS = ["1", "-1", "z4^1", "z8^3", "z16^5", "z32^1"]


def _form_payloads():
    """q or q_gen files, nothing else, on groups of order 256.  Generator
    twists are mostly of an order allowed on their factor (2n, n or 1), so
    many payloads are forms; a z64 twist or a pairing of too large an order
    is not, and neither is most of a q table."""
    from hypothesis import strategies as st

    def on(literal):
        factors = parse_group(literal).factors
        twists = st.tuples(*(st.sampled_from(["1", "-1", f"z{2 * n}^1", f"z{n}^3",
                                              f"z{2 * n}^5", "z64^1"]) for n in factors))
        pairs = [f"{i},{j}" for i in range(len(factors)) for j in range(i + 1, len(factors))]
        key = st.lists(st.integers(0, 17), min_size=len(factors), max_size=len(factors)).map(
            lambda c: str(c[0]) if len(c) == 1 else "(" + ",".join(map(str, c)) + ")")
        q_gen = st.fixed_dictionaries(
            {"group": st.just(literal), "q_gen": twists.map(list)},
            optional={"pairings": st.dictionaries(st.sampled_from(pairs or ["0,1"]),
                                                  st.sampled_from(_SMALL_ROOTS), max_size=2)},
        )
        q = st.fixed_dictionaries({"group": st.just(literal),
                                   "q": st.dictionaries(key, st.sampled_from(_SMALL_ROOTS),
                                                        max_size=1)})
        return q_gen | q

    return st.sampled_from(_GROUPS_OF_ORDER_256).flatmap(on)


def test_center_on_form_files_at_the_bound_builds_no_cocycle(monkeypatch):
    """q/q_gen-only payloads of order 256 on stdin: each run exits 0, 2 or 4
    with no traceback, and none builds a cocycle."""
    import contextlib
    from unittest import mock

    from hypothesis import HealthCheck, given, settings

    built = _refuse_cocycles(monkeypatch)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_form_payloads())
    def check(payload):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(json.dumps(payload))), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["center", "-", "--json"])
        assert code in (0, 2, 4), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert built == [], payload

    check()


# -- the process entry point -------------------------------------------------------

@pytest.mark.parametrize("code", [0, 2, 4])
def test_run_freezes_the_heap_once_main_has_returned(monkeypatch, code):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    assert cli.run() == code
    assert calls == ["main", "freeze"]


def test_main_in_process_freezes_nothing(capsys):
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, "center", "semion", "--json")[0] == 0
    assert run_cli(capsys, "classify", "Z2xZ2xZ2")[0] == 4
    assert gc.get_freeze_count() == frozen


def test_console_script_points_at_run():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'pointedcat = "pointedcat.cli:run"' in pyproject.read_text().splitlines()


def _masked(text):
    return re.sub(r'"timing_ms": [0-9.e+-]+', '"timing_ms": 0', text)


@pytest.mark.parametrize("argv, code", [
    (["smatrix", "semion", "--level", "1", "--json"], 0),
    (["tmatrix", "double:Z2", "--human"], 0),
    (["center", "double:Z3", "--out", "{out}"], 0),
    (["cocycle-check", "{broken}", "--json"], 2),
    (["classify", "Z2xZ2xZ2"], 4),
    (["center", "{missing}"], 2),
])
def test_the_process_matches_main_in_process(tmp_path, capsys, argv, code):
    """``python -m pointedcat.cli`` (``run``, then the interpreter's exit)
    prints what ``main`` prints in process and exits with its code."""
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"group": "Z2", "psi": {"1,1,1": "z4^1"},
                                  "omega": {"1,1": "z8^1"}}))
    paths = {"broken": broken, "missing": tmp_path / "missing.json"}

    def args(out):
        return [a.format(out=out, **paths) for a in argv]

    src = str(Path(pointedcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "pointedcat.cli", *args(tmp_path / "a.json")],
                          capture_output=True, text=True, env=env, timeout=60)
    expected = run_cli(capsys, *args(tmp_path / "b.json"))
    assert (proc.returncode, _masked(proc.stdout), proc.stderr) == (
        code, _masked(expected[1]), expected[2])
    if "--out" in argv:
        written = (tmp_path / "a.json").read_text()
        assert json.loads(written)["results"]["order"] == 1
        assert _masked(written) == _masked((tmp_path / "b.json").read_text())
