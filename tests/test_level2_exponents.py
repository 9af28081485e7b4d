"""The level-2 layer on integer exponents, against the RootOfUnity/Fraction path.

``_entry_exponent`` reads sigma as exponents, ``smatrix2`` certifies its rank
by character orthogonality, ``verify_character_table`` and
``verify_group_hom`` compare exponents, and the battery's
``nondegeneracy-equivalence`` row ranks the sigma exponents mod primes.  The
oracles below are the code they replaced: products of RootOfUnity objects,
the character table as a CycloMatrix, and ``CycloMatrix.rank``.
"""

from dataclasses import replace

import pytest

from pointedcat import battery, brmod
from pointedcat.battery import default_cases, enumerate_quadratic_forms, run_all
from pointedcat.brmod import (
    _braiding_root,
    _entry_exponent,
    _entry_root,
    _orthogonality_rank,
    admissible_subgroups,
    build_module_cat,
    schur_classes,
    smatrix2,
    verify_character_table,
    verify_group_hom,
)
from pointedcat.cocycles import QuadraticForm
from pointedcat.cyclotomic import ONE, CycloMatrix, root_matrix_rank, root_of_unity
from pointedcat.errors import InternalInconsistency, WellDefinednessViolation
from pointedcat.groups import (
    character_table,
    characters,
    cyclic_presentation,
    full_subgroup,
    parse_group,
    trivial_subgroup,
)
from pointedcat.metric import (
    category_from_form,
    mueger_center,
    preset,
    smatrix1,
    smatrix_rank,
)

GROUPS = ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z8", "Z4xZ2")
MINUS = root_of_unity(2, 1)


@pytest.fixture(scope="module")
def every_form():
    """Every quadratic form on GROUPS, degenerate ones included."""
    return [
        category_from_form(form, label=f"{literal}#{i}")
        for literal in GROUPS
        for i, form in enumerate(enumerate_quadratic_forms(parse_group(literal)))
    ]


# -- the replaced code, kept as the oracle -------------------------------------

def old_entry_root(mod, g):
    """The RootOfUnity-product entry: one braiding scalar per coset rep."""
    values = [_braiding_root(mod, k, g) for k in mod.coset_reps]
    for k, value in zip(mod.coset_reps, values):
        if value != values[0]:
            raise WellDefinednessViolation(
                f"entry at transparent {g} differs between simples {mod.coset_reps[0]} "
                f"and {k}: {values[0]} vs {value}"
            )
    if values[0] != mod.chi.eval(g):
        raise InternalInconsistency(
            "entry at a transparent element must reduce to the character value"
        )
    return values[0]


def old_verify_character_table(base, sm):
    pres = cyclic_presentation(mueger_center(base))
    table = character_table(pres.group)
    col_perm = [pres.group.element_index(pres.from_parent(g)) for g in sm.cols]
    return all(
        sm.matrix.at(i, j) == table.at(i, col_perm[j])
        for i in range(table.rows) for j in range(table.cols)
    )


def old_group_hom(sm):
    pres_group = sm.rows[0].restricted.parent
    index_of = {cls.restricted.coords: i for i, cls in enumerate(sm.rows)}
    for i, a in enumerate(sm.rows):
        for j, b in enumerate(sm.rows):
            k = index_of[pres_group.add(a.restricted.coords, b.restricted.coords)]
            for col in range(len(sm.cols)):
                if sm.roots[k][col] != sm.roots[i][col] * sm.roots[j][col]:
                    return False
    return True


# -- differential tests ----------------------------------------------------------

def test_every_form_group_is_covered(every_form):
    counts = {literal: 0 for literal in GROUPS}
    for cat in every_form:
        counts[cat.label.split("#")[0]] += 1
    assert counts == {"Z2": 4, "Z3": 3, "Z4": 8, "Z2xZ2": 32, "Z5": 5, "Z6": 12,
                      "Z8": 16, "Z4xZ2": 64}


def test_orthogonality_rank_matches_the_fraction_rank(every_form):
    for cat in every_form:
        sm = smatrix2(cat)
        assert sm.rank == sm.matrix.rank() == mueger_center(cat).order, cat.label


def test_exponent_rank_matches_the_fraction_rank(every_form):
    degenerate = 0
    for cat in every_form:
        form, n = cat.form, cat.group.order
        rank = root_matrix_rank(form.sigma_exp, n, form.conductor)
        assert rank == smatrix1(cat).matrix.rank() == smatrix_rank(cat), cat.label
        degenerate += rank < n
    assert degenerate > 0


def test_entries_match_the_root_product_oracle(every_form):
    """Over every admissible H and every class, as the well-definedness row
    reads them."""
    for cat in every_form:
        center = mueger_center(cat)
        classes = schur_classes(cat)
        for sub in admissible_subgroups(cat):
            over_h = build_module_cat(cat, sub, classes[0].representative.chi)
            for item in classes:
                mod = replace(over_h, chi=item.representative.chi)
                for g in center.elements:
                    assert _entry_root(mod, g) == old_entry_root(mod, g), cat.label


def test_character_table_and_group_hom_match_the_matrix_oracle(every_form):
    for cat in every_form:
        sm = smatrix2(cat)
        assert verify_character_table(cat) and old_verify_character_table(cat, sm)
        assert verify_group_hom(cat) and old_group_hom(sm)


def test_exponent_rank_on_small_tables():
    """Exponents mod a multiple of the entries' conductor give the same rank;
    below the upper bound no prime certifies and the caller falls back."""
    rows = [[0, 0, 0], [0, 2, 4], [0, 4, 2]]  # z6^2 = z3: the Z3 character table
    assert root_matrix_rank([k for row in rows for k in row], 3, 6) == 3
    assert root_matrix_rank([0, 3, 0, 3], 2, 6) == 1  # one distinct row
    # [[1, -1], [-1, 1]]: two distinct rows, rank 1
    assert root_matrix_rank([0, 3, 3, 0], 2, 6) is None
    minus_one = CycloMatrix.from_roots([[ONE, MINUS], [MINUS, ONE]])
    assert minus_one.rank() == 1


def test_nondegeneracy_row_falls_back_to_the_fraction_rank(monkeypatch):
    """When no prime certifies, the row ranks the Fraction matrix instead."""
    ranked = []
    original = CycloMatrix.rank

    def counted(self):
        ranked.append(self.rows)
        return original(self)

    monkeypatch.setattr(battery, "root_matrix_rank", lambda *args: None)
    monkeypatch.setattr(CycloMatrix, "rank", counted)
    for name, full in (("semion", True), ("svect", False), ("toric", True)):
        cat = preset(name)
        assert battery.check_nondegeneracy_equivalence(cat) == (True, None)
        assert (smatrix1(cat).matrix.rank() == cat.group.order) == full
    assert ranked == [2, 2, 2, 2, 4, 4]


# -- negative tests ----------------------------------------------------------------

def _tamper(roots, i, j):
    """The table with entry (i, j) multiplied by z_8."""
    rows = [list(row) for row in roots]
    rows[i][j] = rows[i][j] * root_of_unity(8, 1)
    return tuple(tuple(row) for row in rows)


def test_certificate_rejects_any_changed_entry(every_form):
    tested = 0
    for cat in every_form:
        sm = smatrix2(cat)
        if len(sm.roots) < 2:
            continue
        for i in range(len(sm.roots)):
            for j in range(len(sm.cols)):
                with pytest.raises(InternalInconsistency, match="rows .* pair to"):
                    _orthogonality_rank(_tamper(sm.roots, i, j))
                tested += 1
    assert tested > 500


def test_smatrix2_aborts_on_a_changed_entry(monkeypatch):
    """An entry off by a sign at (1, 1) fails the certificate in smatrix2."""
    base = preset("svect")
    original = brmod._entry_exponent
    spoiled = base.group.exponent // 2

    def off_by_sign(mod, g):
        k = original(mod, g)
        return (k + spoiled) % base.group.exponent if mod.chi.coords == (1,) == g else k

    monkeypatch.setattr(brmod, "_entry_exponent", off_by_sign)
    with pytest.raises(InternalInconsistency, match="rows 0 and 1 pair to"):
        smatrix2.__wrapped__(base)


def test_verifiers_reject_a_changed_table(monkeypatch):
    """With a valid but permuted table, the character-table and group-hom checks
    fail on both paths."""
    base = category_from_form(
        QuadraticForm(parse_group("Z4"), (ONE,) * 4), label="symmetric Z4, permuted"
    )
    sm = smatrix2(base)
    swapped = replace(sm, roots=(sm.roots[0], sm.roots[2], sm.roots[1], sm.roots[3]))
    assert _orthogonality_rank(swapped.roots) == 4
    monkeypatch.setattr(brmod, "smatrix2", lambda _: swapped)
    assert not verify_character_table(base)
    assert not old_verify_character_table(base, swapped)
    assert not verify_group_hom(base)
    assert not old_group_hom(swapped)


def _fresh_svect(label):
    """svect under its own label, so no cached result is shared with tests
    that read the untampered form."""
    group = parse_group("Z2")
    base = category_from_form(QuadraticForm(group, (ONE, MINUS)), label=label)
    mueger_center(base)
    return base


def _set_sigma(base, i, j, value):
    form = base.form
    sigma = list(form.sigma_exp)
    sigma[i * base.group.order + j] = value
    object.__setattr__(form, "sigma_exp", tuple(sigma))


def test_tampered_sigma_column_raises_the_old_message():
    base = _fresh_svect("svect, tampered sigma column")
    mod = build_module_cat(base, trivial_subgroup(base.group), characters(base.group)[1])
    _set_sigma(base, 1, 1, 1)  # sigma((1,), (1,)) = -1, so the column is (1, -1)
    with pytest.raises(WellDefinednessViolation) as new:
        _entry_root(mod, (1,))
    with pytest.raises(WellDefinednessViolation) as old:
        old_entry_root(mod, (1,))
    assert str(new.value) == str(old.value)
    assert str(new.value) == (
        "entry at transparent (1,) differs between simples (0,) and (1,): -1 vs 1"
    )


def test_well_definedness_row_reads_sigma():
    """The battery row aborts on a sigma column that differs between coset
    representatives, and run_all turns the abort into a FAIL row."""
    base = _fresh_svect("svect, tampered sigma for the battery row")
    schur_classes(base)
    _set_sigma(base, 1, 1, 1)
    with pytest.raises(WellDefinednessViolation, match="differs between simples"):
        battery.check_well_definedness(base)


def test_nonzero_common_sigma_raises_internal_inconsistency():
    base = _fresh_svect("svect, tampered sigma constant")
    mod = build_module_cat(base, full_subgroup(base.group), characters(base.group)[0])
    assert mod.coset_reps == ((0,),)
    _set_sigma(base, 0, 1, 1)
    with pytest.raises(InternalInconsistency, match="reduce to the character value"):
        _entry_exponent(mod, (1,))
    with pytest.raises(InternalInconsistency, match="reduce to the character value"):
        old_entry_root(mod, (1,))


# -- no Fraction rank on the level-2 path --------------------------------------------

def test_level2_makes_no_fraction_rank_call(monkeypatch, battery_categories, every_form):
    def refuse(self):
        raise AssertionError("CycloMatrix.rank called")

    monkeypatch.setattr(CycloMatrix, "rank", refuse)
    monkeypatch.setattr(CycloMatrix, "_eliminate", refuse)
    smatrix2.cache_clear()
    summary = run_all(default_cases(), include_global=False)
    assert summary.all_pass and summary.rows
    assert all(row.passed for row in summary.rows)
    assert len(summary.rows) == 8 * len(default_cases())
    roster = battery_categories + every_form
    roster += [preset(name) for name in ("trivial", "svect", "semion", "semion-bar", "toric")]
    for cat in roster:
        sm = smatrix2.__wrapped__(cat)
        assert sm.rank == len(sm.roots) == mueger_center(cat).order, cat.label
