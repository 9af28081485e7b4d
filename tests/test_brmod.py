import pytest

from pointedcat.cyclotomic import ONE, root_of_unity
from pointedcat.errors import NotAdmissible, ValidationError
from pointedcat.groups import (
    character_table,
    characters,
    full_subgroup,
    parse_group,
    restrict,
    trivial_subgroup,
)
from pointedcat.cocycles import QuadraticForm
from pointedcat.metric import category_from_form, make_category, mueger_center, preset
from pointedcat.brmod import (
    admissible_subgroups,
    build_module_cat,
    check_column,
    pi0_report,
    schur_class,
    schur_classes,
    smatrix2,
    verify_character_table,
    verify_group_hom,
)

MINUS = root_of_unity(2, 1)


def symmetric_z2xz2():
    group = parse_group("Z2xZ2")
    return category_from_form(
        QuadraticForm(group, (ONE,) * 4), label="symmetric Z2xZ2"
    )


def grid_str(roots):
    return [[str(r) for r in row] for row in roots]


def braiding_root(mod, k, g):
    """The braiding scalar sigma(k, g) chi(g) on the simple indexed by k."""
    return mod.base.form.pairing(k, g) * mod.chi.eval(g)


def entry(cat, chi, g):
    """The level-2 S-matrix entry of chi's class at the transparent g."""
    sm = smatrix2(cat)
    center = mueger_center(cat)
    row = [cls.restricted.coords for cls in sm.rows].index(restrict(chi, center).coords)
    return sm.roots[row][sm.cols.index(g)]


# -- admissible subgroups ---------------------------------------------------

def test_admissible_subgroups():
    assert [s.elements for s in admissible_subgroups(preset("semion"))] == [((0,),)]
    assert [s.order for s in admissible_subgroups(preset("svect"))] == [1, 2]
    assert [s.order for s in admissible_subgroups(symmetric_z2xz2())] == [1, 2, 2, 2, 4]


# -- building module categories ----------------------------------------------

def test_build_svect_on_whole_group():
    svect = preset("svect")
    chi = characters(svect.group)[0]
    mod = build_module_cat(svect, full_subgroup(svect.group), chi)
    assert all(v.is_one for v in mod.mu.table)
    assert mod.coset_reps == ((0,),)


def test_build_semion_regular_module():
    semion = preset("semion")
    chi = characters(semion.group)[0]
    mod = build_module_cat(semion, trivial_subgroup(semion.group), chi)
    assert mod.coset_reps == ((0,), (1,))


def test_only_the_regular_module_is_built_without_a_cocycle():
    """make_category(form) attaches no cocycle: mu on the trivial H is 1, a
    nontrivial H <= T is still refused."""
    group = parse_group("Z2")
    base = make_category(QuadraticForm(group, (ONE, ONE)))
    assert base.cocycle is None
    chi = characters(group)[0]
    regular = build_module_cat(base, trivial_subgroup(group), chi)
    assert regular.mu.table == (ONE,) and regular.coset_reps == ((0,), (1,))
    assert full_subgroup(group) in admissible_subgroups(base)
    with pytest.raises(ValidationError, match="explicit cocycle"):
        build_module_cat(base, full_subgroup(group), chi)


def test_build_semion_rejects_whole_group():
    semion = preset("semion")
    chi = characters(semion.group)[0]
    with pytest.raises(NotAdmissible):
        build_module_cat(semion, full_subgroup(semion.group), chi)


# -- braiding scalars ----------------------------------------------------------

def test_module_braiding_examples():
    svect = preset("svect")
    nontrivial = characters(svect.group)[1]
    mod = build_module_cat(svect, trivial_subgroup(svect.group), nontrivial)
    assert braiding_root(mod, (0,), (1,)) == MINUS
    assert braiding_root(mod, (1,), (0,)) == ONE

    semion = preset("semion")
    regular = build_module_cat(
        semion, trivial_subgroup(semion.group), characters(semion.group)[0]
    )
    assert braiding_root(regular, (1,), (1,)) == MINUS


def test_smatrix2_entry_examples():
    svect = preset("svect")
    nontrivial = characters(svect.group)[1]
    assert entry(svect, nontrivial, (1,)) == MINUS
    assert entry(svect, nontrivial, (0,)) == ONE

    sym = symmetric_z2xz2()
    chi = characters(sym.group)[sym.group.element_index((1, 0))]
    assert entry(sym, chi, (1, 1)) == MINUS


def test_smatrix2_entry_requires_transparency():
    semion = preset("semion")
    mod = build_module_cat(
        semion, trivial_subgroup(semion.group), characters(semion.group)[0]
    )
    check_column(semion, mod.coset_reps, (0,))
    with pytest.raises(NotAdmissible):
        check_column(semion, mod.coset_reps, (1,))


# -- Schur classes ----------------------------------------------------------------

def test_schur_class_examples():
    svect = preset("svect")
    trivial_chi, nontrivial_chi = characters(svect.group)
    on_whole = build_module_cat(svect, full_subgroup(svect.group), trivial_chi)
    assert not any(schur_class(on_whole).restricted.coords)

    regular = build_module_cat(svect, trivial_subgroup(svect.group), nontrivial_chi)
    assert any(schur_class(regular).restricted.coords)

    semion = preset("semion")
    classes = {
        schur_class(
            build_module_cat(semion, trivial_subgroup(semion.group), chi)
        ).restricted.coords
        for chi in characters(semion.group)
    }
    assert classes == {(0,)}


def test_schur_class_ignores_h_and_mu(battery_categories):
    for cat in battery_categories:
        for item in schur_classes(cat):
            for sub in admissible_subgroups(cat):
                mod = build_module_cat(cat, sub, item.representative.chi)
                assert schur_class(mod) == item.schur


def test_each_class_is_lifted_by_the_first_matching_character(battery_categories):
    """The lift is the first character of G, in character order, whose
    restriction to the transparent subgroup is the class."""
    for cat in battery_categories + [symmetric_z2xz2()]:
        center = mueger_center(cat)
        for item in schur_classes(cat):
            first = next(
                chi for chi in characters(cat.group)
                if restrict(chi, center).coords == item.schur.restricted.coords
            )
            assert item.representative.chi == first, cat.label


def test_schur_class_counts():
    assert len(schur_classes(preset("svect"))) == 2
    assert len(schur_classes(preset("semion"))) == 1
    assert len(schur_classes(symmetric_z2xz2())) == 4


# -- the level-2 S-matrix ------------------------------------------------------------

def test_smatrix2_svect_is_z2_character_table():
    sm = smatrix2(preset("svect"))
    assert grid_str(sm.roots) == [["1", "1"], ["1", "-1"]]
    assert verify_character_table(preset("svect"))


def test_smatrix2_semion_is_1x1():
    sm = smatrix2(preset("semion"))
    assert grid_str(sm.roots) == [["1"]]
    assert verify_character_table(preset("semion"))


def test_smatrix2_symmetric_z2xz2_is_the_full_character_table():
    sym = symmetric_z2xz2()
    sm = smatrix2(sym)
    assert sm.matrix == character_table(sym.group)
    assert verify_character_table(sym)


def test_smatrix2_z4_with_half_center():
    group = parse_group("Z4")
    form = QuadraticForm(group, tuple(root_of_unity(4, a * a % 4) for a in range(4)))
    cat = category_from_form(form, label="i-form")
    assert mueger_center(cat).elements == ((0,), (2,))
    sm = smatrix2(cat)
    assert grid_str(sm.roots) == [["1", "1"], ["1", "-1"]]
    assert verify_character_table(cat)


def test_pi0_reports():
    assert pi0_report(preset("svect")) == pi0_report(preset("svect"))
    assert (pi0_report(preset("svect")).pi0, pi0_report(preset("svect")).pi0_omega) == (2, 2)
    assert pi0_report(preset("semion")).pi0 == 1
    report = pi0_report(symmetric_z2xz2())
    assert (report.pi0, report.pi0_omega, report.equal) == (4, 4, True)


def test_verify_group_hom_on_presets():
    for name in ("trivial", "svect", "semion", "semion-bar", "toric"):
        assert verify_group_hom(preset(name))


# -- battery-wide invariants ------------------------------------------------------

def test_smatrix2_square_invertible_on_battery(battery_categories):
    for cat in battery_categories:
        sm = smatrix2(cat)
        assert len(sm.rows) == len(sm.cols)
        assert not sm.matrix.det().is_zero
        assert sm.rank == sm.matrix.rows
        assert verify_character_table(cat)
        assert verify_group_hom(cat)
        assert pi0_report(cat).equal
        assert all(r.is_one for r in sm.roots[0])
        assert all(row[0].is_one for row in sm.roots)
