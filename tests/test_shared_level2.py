"""The level-2 layer shared per transparent subgroup, against the per-form oracle.

``brmod._lift_table`` keeps the characters of the presented T and their
lifts per T; the certificate and both verifiers are kept per the data they
read; ``groups.quotient`` and ``groups.subgroups_of`` are kept per
argument.  The oracle in ``level2_oracle.py`` derives everything form by
form, as the code did before, and every result must match it.
"""

import pytest

import level2_oracle as oracle
from pointedcat import brmod
from pointedcat._value import replace
from pointedcat.battery import _abelian_groups_of_order, enumerate_quadratic_forms
from pointedcat.brmod import (
    _lift_table,
    _orthogonality_rank,
    schur_classes,
    smatrix2,
    verify_character_table,
    verify_group_hom,
)
from pointedcat.cocycles import QuadraticForm
from pointedcat.cyclotomic import ONE
from pointedcat.errors import GroupTooLarge, InternalInconsistency, NotSubgroup
from pointedcat.groups import (
    format_group,
    full_subgroup,
    parse_group,
    quotient,
    subgroup_from_elements,
    subgroup_generated,
    subgroups_of,
)
from pointedcat.metric import category_from_form, mueger_center


@pytest.fixture(scope="module")
def small_forms():
    """Every form on every group of order <= 8, each its own category."""
    return [
        category_from_form(form, label=f"{format_group(group)}#{i}, shared")
        for n in range(1, 9)
        for group in _abelian_groups_of_order(n)
        for i, form in enumerate(enumerate_quadratic_forms(group))
    ]


def test_small_forms_cover_every_group_of_order_at_most_8(small_forms):
    counts = {}
    for cat in small_forms:
        literal = format_group(cat.group)
        counts[literal] = counts.get(literal, 0) + 1
    assert counts == {"Z1": 1, "Z2": 4, "Z3": 3, "Z4": 8, "Z2xZ2": 32, "Z5": 5,
                      "Z3xZ2": 12, "Z7": 7, "Z8": 16, "Z4xZ2": 64, "Z2xZ2xZ2": 512}


def test_shared_layer_matches_the_per_form_oracle(small_forms, battery_categories):
    """Classes, lifts, rows, rank and both verdicts, on every small form and
    on the 47 roster forms."""
    assert len(battery_categories) == 47
    for cat in small_forms + battery_categories:
        classes = oracle.schur_classes(cat)
        assert [(item.schur.restricted, item.representative.chi)
                for item in schur_classes(cat)] == classes, cat.label
        sm, rows = smatrix2(cat), oracle.smatrix_rows(cat)
        assert sm.exponents == rows, cat.label
        assert sm.rank == oracle.orthogonality_rank(rows, cat.group.exponent), cat.label
        restricted = [target for target, _ in classes]
        assert verify_character_table(cat) is oracle.verify_character_table(
            cat, rows, sm.cols) is True, cat.label
        assert verify_group_hom(cat) is oracle.verify_group_hom(
            cat, rows, restricted) is True, cat.label


def _shifted(rows, e):
    """The table with entry (1, 1) multiplied by z_e."""
    out = [list(row) for row in rows]
    out[1][1] = (out[1][1] + 1) % e
    return tuple(tuple(row) for row in out)


def test_a_changed_certified_table_is_certified_afresh(small_forms, monkeypatch):
    """A table already certified is a memo hit; the same table with one
    exponent shifted fails the certificate, on every call, and both
    verifiers.  The homomorphism check cannot see the shift when T = Z2 and
    exp G = 2: row 1 then reads 2 (x + 1) = 0 mod 2 against the zero row."""
    tested = 0
    for cat in small_forms:
        sm, e = smatrix2(cat), cat.group.exponent
        if len(sm.exponents) < 2:
            continue
        assert verify_character_table(cat) and verify_group_hom(cat)
        hits = _orthogonality_rank.cache_info().hits
        assert _orthogonality_rank(sm.exponents, e) == sm.rank
        assert _orthogonality_rank.cache_info().hits == hits + 1
        shifted = _shifted(sm.exponents, e)
        for _ in range(2):
            with pytest.raises(InternalInconsistency):
                _orthogonality_rank(shifted, e)
        with monkeypatch.context() as patch:
            patch.setattr(brmod, "smatrix2", lambda _: replace(sm, exponents=shifted))
            assert not verify_character_table(cat), cat.label
            if len(sm.exponents) > 2 or e > 2:
                assert not verify_group_hom(cat), cat.label
        tested += 1
    assert tested == 377  # of 664 forms, those with |T| > 1


def test_smatrix2_aborts_on_a_changed_table_after_a_certified_one(monkeypatch):
    base = category_from_form(
        QuadraticForm(parse_group("Z4"), (ONE,) * 4), label="symmetric Z4, shifted"
    )
    sm = smatrix2(base)
    classes = schur_classes(base)

    class Shifted:
        def exponents(self, cols):
            return list(_shifted(sm.exponents, 4)[1])

    spoiled = list(classes)
    spoiled[1] = replace(classes[1], representative=replace(
        classes[1].representative, chi=Shifted()))
    monkeypatch.setattr(brmod, "schur_classes", lambda _: tuple(spoiled))
    with pytest.raises(InternalInconsistency, match="rows 0 and 1 pair to"):
        smatrix2.__wrapped__(base)


def _by_center(literal):
    """Fresh categories of every form on the group, keyed by their T."""
    out = {}
    for i, form in enumerate(enumerate_quadratic_forms(parse_group(literal))):
        cat = category_from_form(form, label=f"{literal}#{i}, lift count")
        out.setdefault(mueger_center(cat), []).append(cat)
    return out


def test_forms_with_one_transparent_subgroup_build_the_lift_table_once():
    by_center = _by_center("Z4xZ2")
    first, second, *_ = next(
        cats for t, cats in by_center.items() if t.order > 1 and len(cats) > 1
    )
    _lift_table.cache_clear()
    a = schur_classes.__wrapped__(first)
    b = schur_classes.__wrapped__(second)
    info = _lift_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert [item.representative.chi for item in a] == [item.representative.chi for item in b]
    assert all(item.representative.base is first for item in a)
    assert all(item.representative.base is second for item in b)
    # over all 64 forms: one table per distinct T
    _lift_table.cache_clear()
    for cats in by_center.values():
        for cat in cats:
            schur_classes.__wrapped__(cat)
    info = _lift_table.cache_info()
    assert info.misses == len(by_center) < info.misses + info.hits == 64


def test_equal_subgroups_give_one_quotient():
    group = parse_group("Z4xZ2")
    sub = subgroup_generated(group, [(2, 0)])
    same = subgroup_from_elements(group, sub.elements)
    assert same == sub and same is not sub
    assert quotient(group, same) is quotient(group, sub)
    other = subgroup_generated(group, [(0, 1)])
    assert quotient(group, other) is not quotient(group, sub)
    assert quotient(group, other).reps != quotient(group, sub).reps
    for _ in range(2):  # a refusal is not kept
        with pytest.raises(NotSubgroup):
            quotient(parse_group("Z8"), sub)


def test_subgroup_lists_are_fresh_and_bounded_first():
    whole = full_subgroup(parse_group("Z4xZ2"))
    first = subgroups_of(whole)
    kept = list(first)
    first.reverse()
    first.append(None)
    again = subgroups_of(whole)
    assert again == kept and again is not first
    assert len(kept) == 8
    with pytest.raises(GroupTooLarge):
        subgroups_of(whole, max_order=4)
