"""Acceptance suite: one test per criterion, exact arithmetic, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every comparison is exact (CycloNumber / root-of-unity equality,
zero tolerance); each criterion also carries a wall-clock budget.
"""

import time

import pytest

from pointedcat.cyclotomic import (
    CycloMatrix,
    CycloNumber,
    ONE,
    cyclotomic_polynomial,
    root_of_unity,
    _poly_mul,
)
from pointedcat.errors import NotAdmissible
from pointedcat.groups import (
    character_table,
    characters,
    full_subgroup,
    parse_group,
)
from pointedcat.cocycles import QuadraticForm, classify_h3ab, find_mu
from pointedcat.metric import (
    category_from_form,
    detect_center,
    drinfeld_double,
    is_nondegenerate,
    lagrangian_subgroups,
    mueger_center,
    preset,
    smatrix1,
)
from pointedcat.brmod import (
    admissible_subgroups,
    build_module_cat,
    check_column,
    pi0_report,
    schur_classes,
    smatrix2,
    verify_character_table,
    verify_group_hom,
)
from pointedcat.battery import (
    ROSTER,
    _abelian_groups_of_order,
    enumerate_quadratic_forms,
)

_CATEGORIES = None


def battery_categories():
    global _CATEGORIES
    if _CATEGORIES is None:
        out = []
        for literal in ROSTER:
            group = parse_group(literal)
            for i, form in enumerate(enumerate_quadratic_forms(group)):
                out.append(category_from_form(form, label=f"{literal}#{i}"))
        _CATEGORIES = out
    return _CATEGORIES


def timed(number, description, limit_s, fn):
    start = time.perf_counter()
    try:
        fn()
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f}s, limit {limit_s}s"


def test_c01_character_table_theorem():
    def body():
        cats = battery_categories()
        assert len(cats) == 4 + 3 + 8 + 32
        for cat in cats:
            assert verify_character_table(cat), cat.label

    timed(1, "level-2 S-matrix is the character table of the transparent subgroup "
             "for every quadratic form on Z2, Z3, Z4, Z2xZ2", 10.0, body)


def test_c02_symmetric_case():
    def body():
        one = CycloNumber.one()
        minus = CycloNumber.from_rational(-1)
        z2 = parse_group("Z2")
        cat2 = category_from_form(QuadraticForm(z2, (ONE, ONE)), label="sym Z2")
        sm2 = smatrix2(cat2)
        assert sm2.matrix == CycloMatrix.from_rows([[one, one], [one, minus]])
        assert sm2.matrix == character_table(z2)

        z22 = parse_group("Z2xZ2")
        cat22 = category_from_form(QuadraticForm(z22, (ONE,) * 4), label="sym Z2xZ2")
        assert smatrix2(cat22).matrix == character_table(z22)

    timed(2, "symmetric case: the S-matrix is the character table of G itself",
          1.0, body)


def test_c03_pi0_bijection():
    def body():
        for cat in battery_categories():
            report = pi0_report(cat)
            assert report.equal and report.pi0 == report.pi0_omega

    timed(3, "component count equals transparent-object count on the full battery",
          5.0, body)


def test_c04_full_rank():
    def body():
        for cat in battery_categories():
            assert not smatrix2(cat).matrix.det().is_zero

    timed(4, "level-2 S-matrix has nonzero exact determinant on the full battery",
          10.0, body)


def test_c05_group_homomorphism():
    def body():
        for cat in battery_categories():
            assert verify_group_hom(cat)

    timed(5, "every S-matrix column is a group homomorphism on classes", 5.0, body)


def test_c06_nondegeneracy_equivalence():
    def body():
        for cat in battery_categories():
            full_rank = smatrix1(cat).matrix.rank() == cat.group.order
            center_trivial = mueger_center(cat).order == 1
            assert full_rank == center_trivial
            # the internal cross-check must agree without aborting
            assert is_nondegenerate(cat) == center_trivial

    timed(6, "rank(S) = |G| iff the transparent subgroup is trivial", 5.0, body)


def test_c07_drinfeld_center_facts():
    def body():
        for literal in ("Z2", "Z3", "Z4", "Z2xZ2"):
            double = drinfeld_double(parse_group(literal))
            assert is_nondegenerate(double)
            assert detect_center(double).is_center
        assert len(lagrangian_subgroups(preset("toric"))) == 2

    timed(7, "doubles are non-degenerate centers; the toric double has exactly "
             "2 Lagrangian subgroups", 5.0, body)


def test_c08_braiding_existence():
    def body():
        semion = preset("semion")
        whole = full_subgroup(semion.group)
        chi = characters(semion.group)[0]
        with pytest.raises(NotAdmissible):
            build_module_cat(semion, whole, chi)
        for value_order in (2, 4, 8):
            assert find_mu(semion.cocycle, whole, value_order) is None
        svect = preset("svect")
        mod = build_module_cat(svect, full_subgroup(svect.group),
                               characters(svect.group)[0])
        assert mod is not None

    timed(8, "braidings exist exactly over subgroups of the transparent subgroup",
          1.0, body)


def test_c09_well_definedness():
    def body():
        for cat in battery_categories():
            sm = smatrix2(cat)
            for i, item in enumerate(schur_classes(cat)):
                for sub in admissible_subgroups(cat):
                    mod = build_module_cat(cat, sub, item.representative.chi)
                    for j, g in enumerate(sm.cols):
                        # reads sigma at every coset representative and
                        # aborts unless each braiding scalar is chi(g)
                        check_column(cat, mod.coset_reps, g)
                        assert sm.roots[i][j] == item.representative.chi.eval(g)

    timed(9, "S-matrix entries agree across all coset representatives", 5.0, body)


def test_c10_cohomology_classification():
    def body():
        classes = classify_h3ab(parse_group("Z2"), 4)
        assert len(classes) == 4
        assert {cls.form.q((1,)) for cls in classes} == {
            root_of_unity(1, 0),
            root_of_unity(4, 1),
            root_of_unity(2, 1),
            root_of_unity(4, 3),
        }
        # orbit/fiber coincidence is asserted inside classify_h3ab; the orbit
        # sizes must also tile the enumerated set
        assert sum(cls.orbit_size for cls in classes) == 4

    timed(10, "4 cohomology classes on Z2 keyed by q(1) in mu_4, orbits = fibers",
          5.0, body)


def test_c11_exact_arithmetic_kernel():
    def body():
        for n in range(1, 49):
            product = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    product = _poly_mul(product, list(cyclotomic_polynomial(d)))
            assert product == [-1] + [0] * (n - 1) + [1]
        for order in range(1, 9):
            for group in _abelian_groups_of_order(order):
                table = character_table(group)
                gram = table.matmul(table.conj().transpose())
                assert gram == CycloMatrix.identity(order).scale(
                    CycloNumber.from_rational(order)
                )
                det = table.det()
                assert det * det.conj() == CycloNumber.from_rational(order**order)

    timed(11, "cyclotomic reconstruction to N=48 and |det|^2 = |G|^|G| for "
              "character tables up to |G| = 8", 5.0, body)
