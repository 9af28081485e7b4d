from types import SimpleNamespace

import pytest

from pointedcat.cyclotomic import ONE, CycloMatrix, CycloNumber, root_of_unity
from pointedcat.errors import InternalInconsistency, ParseError, ValidationError
from pointedcat.groups import parse_group
from pointedcat.cocycles import QuadraticForm, apply_coboundary, trace_form, two_cochain_from_table
from pointedcat.metric import (
    RANK_CHECK_BOUND,
    category_from_form,
    detect_center,
    drinfeld_double,
    is_nondegenerate,
    is_symmetric,
    isotropic_subgroups,
    lagrangian_subgroups,
    make_category,
    mueger_center,
    preset,
    smatrix1,
    tmatrix,
    tmatrix_diagonal,
)

I = root_of_unity(4, 1)
MINUS = root_of_unity(2, 1)


def grid_str(roots):
    return [[str(r) for r in row] for row in roots]


# -- level-1 S-matrix -----------------------------------------------------

def test_smatrix1_examples():
    assert grid_str(smatrix1(preset("semion")).roots) == [["1", "1"], ["1", "-1"]]
    assert grid_str(smatrix1(preset("svect")).roots) == [["1", "1"], ["1", "1"]]
    assert grid_str(smatrix1(preset("trivial")).roots) == [["1"]]


def test_smatrix1_depends_only_on_the_form():
    # twist the standard semion cocycle by a cochain; the S-matrix is unchanged
    semion = preset("semion")
    phi = two_cochain_from_table(
        semion.group, semion.group.elements(), {((1,), (1,)): MINUS}
    )
    twisted = apply_coboundary(semion.cocycle, phi)
    twisted_cat = make_category(trace_form(twisted), twisted, label="semion-twist")
    assert smatrix1(twisted_cat).roots == smatrix1(semion).roots


def test_smatrix1_on_z3_cocycle_representatives():
    from pointedcat.cocycles import classify_h3ab

    for cls in classify_h3ab(parse_group("Z3"), 3):
        cat = make_category(cls.form, cls.representative)
        sm = smatrix1(cat)
        q = cls.form
        for i, g in enumerate(cat.group.elements()):
            for j, h in enumerate(cat.group.elements()):
                assert sm.roots[i][j] == q.pairing(g, h)


def test_tmatrix_examples():
    assert [str(r) for r in tmatrix_diagonal(preset("semion"))] == ["1", "z4^1"]
    assert [str(r) for r in tmatrix_diagonal(preset("svect"))] == ["1", "-1"]
    assert [str(r) for r in tmatrix_diagonal(preset("trivial"))] == ["1"]
    t = tmatrix(preset("semion"))
    assert t.at(1, 1) == CycloNumber.from_rational(0) + t.at(1, 1)
    assert t.at(0, 1).is_zero and t.at(1, 0).is_zero


# -- transparency ----------------------------------------------------------

def test_mueger_center_examples():
    assert mueger_center(preset("svect")).order == 2
    assert mueger_center(preset("semion")).elements == (((0,),))
    z4 = parse_group("Z4")
    z8_form = QuadraticForm(z4, tuple(root_of_unity(8, a * a % 8) for a in range(4)))
    assert mueger_center(category_from_form(z8_form)).elements == ((0,),)
    i_form = QuadraticForm(z4, tuple(root_of_unity(4, a * a % 4) for a in range(4)))
    assert mueger_center(category_from_form(i_form)).elements == ((0,), (2,))


def test_mueger_center_aborts_when_transparent_elements_are_no_subgroup():
    # only an arithmetic bug can get here, so it is exit 3, not a validation error
    pairing = lambda g, h: ONE if g in {(0,), (1,)} else MINUS  # noqa: E731
    fake = SimpleNamespace(group=parse_group("Z4"), form=SimpleNamespace(pairing=pairing))
    with pytest.raises(InternalInconsistency, match="transparent elements"):
        mueger_center.__wrapped__(fake)


def test_nondegenerate_and_symmetric():
    assert is_nondegenerate(preset("semion")) and not is_symmetric(preset("semion"))
    assert not is_nondegenerate(preset("svect")) and is_symmetric(preset("svect"))
    assert is_nondegenerate(preset("toric"))
    assert smatrix1(preset("svect")).matrix.rank() == 1


# -- Drinfeld double ---------------------------------------------------------

def test_double_z2_is_the_toric_code():
    toric = preset("toric")
    q = toric.form
    assert toric.group.factors == (2, 2)
    assert q.q((0, 0)) == ONE
    assert q.q((1, 0)) == ONE
    assert q.q((0, 1)) == ONE
    assert q.q((1, 1)) == MINUS


def test_double_trivial_group():
    double = drinfeld_double(parse_group("Z1"))
    assert double.group.order == 1


def test_double_z3():
    double = drinfeld_double(parse_group("Z3"))
    assert double.group.factors == (3, 3)
    for a in range(3):
        for b in range(3):
            assert double.form.q((a, b)) == root_of_unity(3, a * b % 3)
    assert smatrix1(double).matrix.rank() == 9


def test_doubles_are_nondegenerate_with_lagrangians():
    for literal in ("Z2", "Z3", "Z4", "Z2xZ2"):
        double = drinfeld_double(parse_group(literal))
        assert is_nondegenerate(double)
        assert len(lagrangian_subgroups(double)) >= 1


@pytest.mark.parametrize("literal, checked", [("Z6", True), ("Z8", True), ("Z9", False)])
def test_double_rank_cross_check_runs_up_to_the_bound(literal, checked, monkeypatch):
    """Building D(G) runs the S-matrix rank against the transparent subgroup
    for |D(G)| <= RANK_CHECK_BOUND (36 and 64 here), and skips it past that."""
    ranks = []
    original = CycloMatrix.rank

    def counted(self):
        rank = original(self)
        ranks.append((self.rows, rank))
        return rank

    monkeypatch.setattr(CycloMatrix, "rank", counted)
    double = drinfeld_double.__wrapped__(parse_group(literal))
    n = double.group.order
    assert (n <= RANK_CHECK_BOUND) == checked
    assert ranks == ([(n, n)] if checked else [])


def test_nondegeneracy_is_decided_once_per_category(monkeypatch):
    """Building D(Z4) decides non-degeneracy; detect_center and the CLI's
    center report read the kept answer instead of ranking the S-matrix again."""
    import pointedcat.metric as metric

    calls = []
    original_smatrix1, original_rank = metric.smatrix1, CycloMatrix.rank
    monkeypatch.setattr(metric, "smatrix1", lambda c: calls.append("smatrix1") or original_smatrix1(c))
    monkeypatch.setattr(CycloMatrix, "rank", lambda m: calls.append("rank") or original_rank(m))
    double = drinfeld_double.__wrapped__(parse_group("Z4"))
    assert detect_center(double).is_center
    assert is_nondegenerate(double)
    assert calls == ["smatrix1", "rank"]


# -- isotropic / Lagrangian ---------------------------------------------------

def test_toric_lagrangians():
    toric = preset("toric")
    lagr = lagrangian_subgroups(toric)
    assert [sub.elements for sub in lagr] == [
        (((0, 0)), ((0, 1))),
        (((0, 0)), ((1, 0))),
    ]
    iso = isotropic_subgroups(toric)
    assert [sub.order for sub in iso] == [1, 2, 2]


def test_semion_has_no_lagrangian():
    assert lagrangian_subgroups(preset("semion")) == []


def test_double_z3_contains_the_group_times_one():
    double = drinfeld_double(parse_group("Z3"))
    witness = {(a, 0) for a in range(3)}
    assert witness in [set(sub.elements) for sub in lagrangian_subgroups(double)]


def test_detect_center():
    toric = detect_center(preset("toric"))
    assert toric.is_center and toric.lagrangian_count == 2
    assert not toric.degenerate_ambient

    semion = detect_center(preset("semion"))
    assert not semion.is_center and semion.nondegenerate

    svect = detect_center(preset("svect"))
    assert svect.degenerate_ambient and not svect.is_center

    for literal in ("Z2", "Z3", "Z4"):
        assert detect_center(drinfeld_double(parse_group(literal))).is_center


# -- presets and construction --------------------------------------------------

def test_presets():
    assert preset("semion-bar").form.q((1,)) == root_of_unity(4, 3)
    assert preset("double:Z2").form.values == preset("toric").form.values
    assert preset("TRIVIAL").group.order == 1
    with pytest.raises(ParseError):
        preset("unknown")


def test_make_category_rejects_mismatched_form():
    semion = preset("semion")
    wrong = QuadraticForm(semion.group, (ONE, MINUS))
    with pytest.raises(ValidationError):
        make_category(wrong, semion.cocycle)


def test_unit_row_and_symmetry_hold_on_battery(battery_categories):
    for cat in battery_categories:
        sm = smatrix1(cat)
        n = cat.group.order
        assert all(sm.roots[0][j].is_one for j in range(n))
        assert all(sm.roots[i][0].is_one for i in range(n))


def test_rank_iff_trivial_center_on_battery(battery_categories):
    for cat in battery_categories:
        full_rank = smatrix1(cat).matrix.rank() == cat.group.order
        assert full_rank == (mueger_center(cat).order == 1)
        # is_nondegenerate runs the same cross-check internally and must not abort
        assert is_nondegenerate(cat) == full_rank
