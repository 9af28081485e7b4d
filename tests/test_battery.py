import json

import pytest

from pointedcat.cyclotomic import ONE, root_of_unity
from pointedcat.errors import GroupTooLarge
from pointedcat.groups import parse_group
from pointedcat.battery import (
    BatteryCase,
    default_cases,
    enumerate_quadratic_forms,
    run_all,
)
from conftest import brute_force_quadratic_forms


@pytest.mark.parametrize(
    "literal,count,value_order",
    [("Z2", 4, 4), ("Z3", 3, 6), ("Z4", 8, 8), ("Z2xZ2", 32, 4), ("Z1", 1, 2)],
)
def test_enumeration_matches_filter_oracle(literal, count, value_order):
    group = parse_group(literal)
    forms = enumerate_quadratic_forms(group)
    assert len(forms) == count
    oracle = brute_force_quadratic_forms(group, value_order)
    assert {f.values for f in forms} == {f.values for f in oracle}


def test_enumeration_is_sorted_and_bounded():
    forms = enumerate_quadratic_forms(parse_group("Z4"))
    keys = [tuple((v.order, v.exponent) for v in f.values) for f in forms]
    assert keys == sorted(keys)
    with pytest.raises(GroupTooLarge):
        enumerate_quadratic_forms(parse_group("Z32"))


def test_default_cases_cover_the_roster():
    cases = default_cases()
    assert len(cases) == 4 + 3 + 8 + 32
    assert {c.group_literal for c in cases} == {"Z2", "Z3", "Z4", "Z2xZ2"}


def test_run_all_passes():
    summary = run_all()
    assert summary.all_pass
    assert summary.warning is None
    checks = {row.check for row in summary.rows}
    assert "character-table-theorem" in checks
    assert "drinfeld-double-facts" in checks


def test_run_all_is_deterministic():
    def dump(summary):
        return json.dumps(
            [
                {"case": r.case, "check": r.check, "pass": r.passed, "witness": r.witness}
                for r in summary.rows
            ]
        )

    cases = default_cases()[:3]
    assert dump(run_all(cases, include_global=False)) == dump(
        run_all(cases, include_global=False)
    )


def test_corrupted_case_fails_with_witness():
    bad = BatteryCase("Z4", (ONE, ONE, root_of_unity(2, 1), ONE))
    summary = run_all([bad], include_global=False)
    first = summary.rows[0]
    assert first.check == "quadratic-form-valid"
    assert not first.passed
    assert first.witness
    assert not summary.all_pass
    # no other checks run for an invalid case
    assert len(summary.rows) == 1


def test_empty_roster_is_vacuous_pass_with_warning():
    summary = run_all([], include_global=False)
    assert summary.all_pass
    assert summary.rows == ()
    assert summary.warning == "battery ran with no cases"


def test_mu_is_searched_once_per_admissible_subgroup(monkeypatch):
    """mu depends on H alone: the Schur classes build the regular module once,
    with mu = 1 and no search, and the well-definedness check reuses it and
    builds each nontrivial admissible H once."""
    import pointedcat.battery as battery
    import pointedcat.brmod as brmod
    from pointedcat.battery import CASE_CHECKS
    from pointedcat.cocycles import QuadraticForm
    from pointedcat.metric import category_from_form

    group = parse_group("Z2xZ2")
    base = category_from_form(QuadraticForm(group, (ONE,) * 4), label="mu search count")
    searched, built = [], []
    original = brmod.find_mu
    monkeypatch.setattr(brmod, "find_mu", lambda *args: searched.append(args) or original(*args))
    build = brmod.build_module_cat

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(brmod, "build_module_cat", counted)
    monkeypatch.setattr(battery, "build_module_cat", counted)
    for name, check in CASE_CHECKS:
        assert check(base) == (True, None), name
    subs = brmod.admissible_subgroups(base)
    assert len(subs) == 5
    assert len(searched) == len(subs) - 1
    assert len(built) == len(subs)


def test_form_only_bases_give_the_rows_of_bases_with_the_standard_cocycle(monkeypatch):
    """Differential over the roster: every per-case row on make_category(form)
    equals the row on category_from_form(form), and the form-only base builds
    the standard cocycle once exactly when its transparent subgroup is
    nontrivial (only a nontrivial admissible H reads a cocycle)."""
    import pointedcat.metric as metric
    from pointedcat.battery import CASE_CHECKS
    from pointedcat.cocycles import QuadraticForm
    from pointedcat.metric import category_from_form, make_category, mueger_center

    def rows(base):
        return [(name, check(base)) for name, check in CASE_CHECKS]

    standard, built = metric.standard_cocycle, []
    for case in default_cases():
        form = QuadraticForm(parse_group(case.group_literal), case.q_values)
        expected = rows(category_from_form(form, label=case.label))
        monkeypatch.setattr(metric, "standard_cocycle", lambda q: built.append(q) or standard(q))
        base = make_category(form, label=case.label)
        assert rows(base) == expected, case.label
        monkeypatch.setattr(metric, "standard_cocycle", standard)
        assert built == ([form] if mueger_center(base).order > 1 else []), case.label
        built.clear()
