import functools
from types import SimpleNamespace

import pytest

import pointedcat.metric as metric
from pointedcat.battery import enumerate_quadratic_forms
from pointedcat.cyclotomic import ONE, CycloMatrix, CycloNumber, RootOfUnity, root_of_unity
from pointedcat.errors import InternalInconsistency, ParseError, ValidationError
from pointedcat.groups import parse_group, subgroup_generated, trivial_subgroup
from pointedcat.cocycles import (
    QuadraticForm, _kept, apply_coboundary, form_from_generators, trace_form,
    two_cochain_from_table,
)
from pointedcat.metric import (
    PointedBFC,
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
    smatrix_rank,
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


def test_smatrix1_checks_the_sigma_exponents():
    """A sigma table that is not symmetric, or has a nonzero unit row or
    column, aborts with the pinned messages."""
    def tampered(*cells):
        z3 = root_of_unity(3, 1)
        form = QuadraticForm(parse_group("Z3"), (ONE, z3, z3))
        sigma = list(form.sigma_exp)
        for i, j in cells:
            sigma[i * 3 + j] = (sigma[i * 3 + j] + 1) % 3
        object.__setattr__(form, "sigma_exp", tuple(sigma))
        return make_category(form)

    assert str(smatrix1(tampered()).roots[1][1]) == "z3^2"
    with pytest.raises(InternalInconsistency, match=r"not symmetric at \(1,2\)"):
        smatrix1(tampered((1, 2)))
    with pytest.raises(InternalInconsistency, match="unit row/column is not all 1"):
        smatrix1(tampered((2, 0), (0, 2)))


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
    sigma_exp = (0,) * 8 + (1,) * 8  # rows of (0,) and (1,) trivial, the others not
    fake = SimpleNamespace(group=parse_group("Z4"), form=SimpleNamespace(sigma_exp=sigma_exp))
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


def _count_rank_work(monkeypatch) -> list:
    """Record every run of the rank certificate (with |G|), every S-matrix
    build and every elimination."""
    calls = []
    certify = smatrix_rank.__wrapped__

    @functools.wraps(certify)
    def counted(category):
        calls.append(("certificate", category.group.order))
        return certify(category)

    original_smatrix1, original_rank = metric.smatrix1, CycloMatrix.rank
    monkeypatch.setattr(metric, "smatrix_rank", _kept(counted))
    monkeypatch.setattr(metric, "smatrix1", lambda c: calls.append(("smatrix1",)) or original_smatrix1(c))
    monkeypatch.setattr(CycloMatrix, "rank", lambda m: calls.append(("rank",)) or original_rank(m))
    return calls


@pytest.mark.parametrize(
    "literal, oracle", [("Z6", True), ("Z8", True), ("Z9", False), ("Z16", False)]
)
def test_double_rank_cross_check_runs_up_to_the_bound(literal, oracle, monkeypatch):
    """Building D(G) runs the rank certificate once, at every |D(G)| up to the
    group-order bound 256, and neither builds nor eliminates the S-matrix.
    Where the elimination is cheap (|D(G)| <= 64 here) it agrees."""
    calls = _count_rank_work(monkeypatch)
    double = drinfeld_double.__wrapped__(parse_group(literal))
    n = double.group.order
    assert calls == [("certificate", n)]
    if oracle:
        assert smatrix1(double).matrix.rank() == smatrix_rank(double) == n


def test_nondegeneracy_is_decided_once_per_category(monkeypatch):
    """Building D(Z4) certifies the rank; detect_center and the CLI's center
    report read the kept answer.  A rebuilt category is certified again."""
    calls = _count_rank_work(monkeypatch)
    double = drinfeld_double.__wrapped__(parse_group("Z4"))
    assert detect_center(double).is_center
    assert is_nondegenerate(double) and smatrix_rank(double) == 16
    assert calls == [("certificate", 16)]
    drinfeld_double.__wrapped__(parse_group("Z4"))
    assert calls == [("certificate", 16)] * 2


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7, 8])
def test_rank_certificate_matches_the_elimination_on_every_small_form(order):
    """On every quadratic form of every abelian group of this order."""
    groups = {
        4: ["Z4", "Z2xZ2"], 8: ["Z8", "Z4xZ2", "Z2xZ2xZ2"],
    }.get(order, [f"Z{order}"])
    for literal in groups:
        for form in enumerate_quadratic_forms(parse_group(literal)):
            cat = make_category(form)
            assert smatrix_rank(cat) == smatrix1(cat).matrix.rank(), (literal, form.values)


@pytest.mark.parametrize(
    "literal", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z4xZ2", "Z2xZ2xZ2"]
)
def test_rank_certificate_matches_the_elimination_on_doubles(literal):
    double = drinfeld_double(parse_group(literal))
    assert smatrix_rank(double) == smatrix1(double).matrix.rank() == double.group.order


def test_rank_certificate_on_a_degenerate_category_past_64():
    """D(Z4) next to Z8 with q = 1: |G| = 128, T = Z8, so rank S = 16."""
    group = parse_group("Z4xZ4xZ8")
    form = form_from_generators(group, [ONE] * 3, {(0, 1): root_of_unity(4, 1)})
    cat = make_category(form)
    assert mueger_center(cat).order == 8
    assert smatrix_rank(cat) == 16 and not is_nondegenerate(cat)


@pytest.mark.parametrize("cat, wrong", [
    (lambda: preset("svect"), trivial_subgroup),
    (lambda: drinfeld_double(parse_group("Z16")),
     lambda group: subgroup_generated(group, [(8, 0)])),
])
def test_rank_certificate_catches_a_wrong_transparent_subgroup(cat, wrong, monkeypatch):
    """The row sums of sigma contradict a wrong transparent subgroup at any
    size; D(Z16) has |G| = 256."""
    kept = cat()
    fresh = PointedBFC(kept.group, kept.form, kept.cocycle, kept.label)
    monkeypatch.setattr(metric, "mueger_center", lambda c: wrong(c.group))
    with pytest.raises(InternalInconsistency, match="row sum"):
        is_nondegenerate(fresh)


def test_forms_and_categories_hash_once(monkeypatch):
    """Equal forms and categories hash equal, and hashing reads a value kept
    at construction instead of hashing the |G| roots again."""
    z4 = parse_group("Z4")
    values = tuple(root_of_unity(8, a * a % 8) for a in range(4))
    a, b = QuadraticForm(z4, values), QuadraticForm(z4, tuple(values))
    cat_a, cat_b = make_category(a, label="x"), make_category(b, label="x")
    other = QuadraticForm(z4, tuple(root_of_unity(8, 3 * k * k % 8) for k in range(4)))
    monkeypatch.setattr(RootOfUnity, "__hash__", lambda r: pytest.fail("rehashed a root"))
    assert a == b and hash(a) == hash(b)
    assert cat_a == cat_b and hash(cat_a) == hash(cat_b)
    assert cat_a != make_category(a, label="y")
    assert hash(other) != hash(a)


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
