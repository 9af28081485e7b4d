"""The level-2 layer on integer exponents, against the RootOfUnity/Fraction path.

``check_column`` reads sigma as exponents once per (coset representatives,
g), ``smatrix2`` keeps chi's exponents and certifies its rank by character
orthogonality, ``verify_character_table`` and ``verify_group_hom`` compare
exponents, and the battery's ``nondegeneracy-equivalence`` row ranks the
sigma exponents mod primes.  The oracles below are the code they replaced:
products of RootOfUnity braiding scalars per (H, class, g), the character
table as a CycloMatrix, and ``CycloMatrix.rank``.
"""

import json

import pytest

from pointedcat import battery, brmod, cyclotomic
from pointedcat._value import replace
from pointedcat.battery import default_cases, enumerate_quadratic_forms, run_all
from pointedcat.brmod import (
    _orthogonality_rank,
    admissible_subgroups,
    build_module_cat,
    check_column,
    schur_classes,
    smatrix2,
    verify_character_table,
    verify_group_hom,
)
from pointedcat.cocycles import QuadraticForm
from pointedcat.cli import main
from pointedcat.cyclotomic import (
    ONE,
    CycloMatrix,
    _is_group,
    orthogonality_rank,
    root_matrix_rank,
    root_of_unity,
    root_sum,
)
from pointedcat.errors import InternalInconsistency, WellDefinednessViolation
from pointedcat.groups import (
    AbelianGroup,
    character_table,
    characters,
    cyclic_presentation,
    full_subgroup,
    parse_group,
    trivial_subgroup,
)
from pointedcat.metric import (
    category_from_form,
    drinfeld_double,
    make_category,
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

def braiding_root(mod, k, g):
    """The braiding scalar sigma(k, g) chi(g) on the simple indexed by k."""
    return mod.base.form.pairing(k, g) * mod.chi.eval(g)


def old_entry_root(mod, g):
    """The RootOfUnity-product entry: one braiding scalar per coset rep."""
    values = [braiding_root(mod, k, g) for k in mod.coset_reps]
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


def _distinct_rows(exponents, width):
    return tuple(dict.fromkeys(
        tuple(exponents[i:i + width]) for i in range(0, len(exponents), width)
    ))


def test_orthogonality_rank_matches_the_fraction_rank(every_form):
    """``CycloMatrix.rank`` runs the same certificate, so the oracles are the
    primes and Bareiss."""
    for cat in every_form:
        sm, e = smatrix2(cat), cat.group.exponent
        primes = root_matrix_rank([k for row in sm.exponents for k in row], len(sm.cols), e)
        assert sm.rank == primes == sm.matrix._eliminate()[0], cat.label
        assert sm.rank == mueger_center(cat).order, cat.label


def test_exponent_rank_matches_the_fraction_rank(every_form):
    """The sigma table's rank by its row sums, by the primes, by Bareiss and
    by orthogonality over its distinct rows: always a group of characters."""
    degenerate = 0
    for cat in every_form:
        form, n = cat.form, cat.group.order
        rank = root_matrix_rank(form.sigma_exp, n, form.conductor)
        assert rank == smatrix1(cat).matrix._eliminate()[0] == smatrix_rank(cat), cat.label
        rows = _distinct_rows(form.sigma_exp, n)
        assert orthogonality_rank(rows, form.conductor) == rank, cat.label
        degenerate += rank < n
    assert degenerate > 0


def test_entries_match_the_root_product_oracle(every_form):
    """S_2's entry (i, j) is the braiding scalar at g_j on every simple of
    every admissible H with class i's lift attached, as products of roots."""
    checked = 0
    for cat in every_form:
        sm = smatrix2(cat)
        classes = schur_classes(cat)
        for sub in admissible_subgroups(cat):
            over_h = build_module_cat(cat, sub, classes[0].representative.chi)
            for i, item in enumerate(classes):
                mod = replace(over_h, chi=item.representative.chi)
                for j, g in enumerate(sm.cols):
                    assert sm.roots[i][j] == old_entry_root(mod, g), cat.label
                    checked += 1
    assert checked > 1000


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


# -- level 1 on sigma's exponents -------------------------------------------------

def _shape(matrix):
    return matrix.rows, matrix.cols, matrix.conductor, matrix.exponents


def test_smatrix1_matrix_is_the_matrix_of_its_roots(every_form):
    """``from_exponents`` on sigma_exp gives what ``from_roots`` gives on the
    roots view: the same shape, the lcm conductor of sigma's orders (below the
    form's where sigma misses some of q's orders; 1 where sigma is 1) and the
    same exponents, on every form of GROUPS and the doubles up to D(Z6)."""
    doubles = [drinfeld_double(parse_group(literal))
               for literal in ("Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6")]
    lowered = trivial = 0
    for cat in every_form + doubles:
        sm = smatrix1(cat)
        assert _shape(sm.matrix) == _shape(CycloMatrix.from_roots(sm.roots)), cat.label
        lowered += sm.matrix.conductor < cat.form.conductor
        trivial += sm.matrix.conductor == 1
    assert lowered > 0 and trivial > len(GROUPS)


def test_smatrix1_rank_builds_no_root(every_form, monkeypatch):
    """A rank reads sigma's exponents only: the ``roots`` view is never built,
    and no RootOfUnity is made on the four benchmarked doubles."""
    doubles = [preset(f"double:{literal}") for literal in ("Z2", "Z3", "Z4", "Z2xZ2")]
    for cat in every_form + doubles:
        sm = smatrix1(cat)
        assert sm.matrix.rank() == smatrix_rank(cat), cat.label
        assert "roots" not in vars(sm), cat.label

    def refuse(*args):
        raise AssertionError("RootOfUnity built")

    monkeypatch.setattr(cyclotomic.RootOfUnity, "__init__", refuse)
    assert [smatrix1(cat).matrix.rank() for cat in doubles] == [4, 9, 16, 16]


# -- negative tests ----------------------------------------------------------------

def _tamper(exponents, e, i, j):
    """The table, with conductor e, as exponents mod 8e with entry (i, j)
    multiplied by z_8e: a change no root of order dividing e can make."""
    rows = [[8 * k for k in row] for row in exponents]
    rows[i][j] += 1
    return tuple(tuple(row) for row in rows), 8 * e


def test_certificate_rejects_any_changed_entry(every_form):
    tested = 0
    for cat in every_form:
        sm, e = smatrix2(cat), cat.group.exponent
        if len(sm.exponents) < 2:
            continue
        scaled = tuple(tuple(8 * k for k in row) for row in sm.exponents)
        assert _orthogonality_rank(scaled, 8 * e) == len(scaled)
        for i in range(len(sm.exponents)):
            for j in range(len(sm.cols)):
                with pytest.raises(InternalInconsistency, match="rows .* pair to"):
                    _orthogonality_rank(*_tamper(sm.exponents, e, i, j))
                tested += 1
    assert tested > 500


def test_smatrix2_aborts_on_a_changed_entry(monkeypatch):
    """A class lifted by a wrong character gives row 1 the trivial entries,
    so rows 0 and 1 fail the certificate in smatrix2."""
    base = preset("svect")
    classes = brmod.schur_classes(base)
    spoiled = (classes[0], replace(classes[1], representative=classes[0].representative))
    monkeypatch.setattr(brmod, "schur_classes", lambda _: spoiled)
    with pytest.raises(InternalInconsistency, match="rows 0 and 1 pair to"):
        smatrix2.__wrapped__(base)


def test_verifiers_reject_a_changed_table(monkeypatch):
    """With a valid but permuted table, the character-table and group-hom checks
    fail on both paths."""
    base = category_from_form(
        QuadraticForm(parse_group("Z4"), (ONE,) * 4), label="symmetric Z4, permuted"
    )
    sm = smatrix2(base)
    rows = sm.exponents
    swapped = replace(sm, exponents=(rows[0], rows[2], rows[1], rows[3]))
    assert _orthogonality_rank(swapped.exponents, base.group.exponent) == 4
    monkeypatch.setattr(brmod, "smatrix2", lambda _: swapped)
    assert not verify_character_table(base)
    assert not old_verify_character_table(base, swapped)
    assert not verify_group_hom(base)
    assert not old_group_hom(swapped)


def test_unit_and_rank_rows_read_the_exponents(monkeypatch):
    """A nonzero exponent in row 0 or column 0 fails ``unit-row-and-column``;
    a rank below the row count fails ``smatrix2-full-rank``."""
    base = preset("svect")
    sm = smatrix2(base)
    assert battery.check_unit_row_col(base) == (True, None)
    assert battery.check_full_rank(base) == (True, None)
    for spoiled in (((0, 1), (0, 1)), ((0, 0), (1, 1))):
        monkeypatch.setattr(battery, "smatrix2", lambda _: replace(sm, exponents=spoiled))
        assert battery.check_unit_row_col(base) == (
            False, "unit row or column contains a value other than 1"
        )
    monkeypatch.setattr(battery, "smatrix2", lambda _: replace(sm, rank=1))
    assert battery.check_full_rank(base) == (False, "determinant is zero")


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


def test_tampered_sigma_column_fails_smatrix2():
    """The check names sigma(k0, g) and sigma(k, g); the oracle names the
    braiding scalars, which are those times chi(g) = -1."""
    base = _fresh_svect("svect, tampered sigma column")
    mod = build_module_cat(base, trivial_subgroup(base.group), characters(base.group)[1])
    _set_sigma(base, 1, 1, 1)  # sigma((1,), (1,)) = -1, so the column is (1, -1)
    with pytest.raises(WellDefinednessViolation) as new:
        smatrix2.__wrapped__(base)
    with pytest.raises(WellDefinednessViolation) as old:
        old_entry_root(mod, (1,))
    assert str(new.value) == (
        "entry at transparent (1,) differs between simples (0,) and (1,): 1 vs -1"
    )
    assert str(old.value) == (
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
        check_column(base, mod.coset_reps, (1,))
    with pytest.raises(InternalInconsistency, match="reduce to the character value"):
        old_entry_root(mod, (1,))


def test_each_column_is_checked_once(monkeypatch):
    """|T| checks in smatrix2, over the regular module; |T| per admissible H
    in the well-definedness row."""
    base = category_from_form(
        QuadraticForm(parse_group("Z2xZ2"), (ONE,) * 4), label="symmetric Z2xZ2, counted"
    )
    order = mueger_center(base).order
    calls = []

    def counted(cat, reps, g, *starts):
        calls.append((reps, g))
        return check_column(cat, reps, g, *starts)

    monkeypatch.setattr(brmod, "check_column", counted)
    monkeypatch.setattr(battery, "check_column", counted)
    smatrix2.__wrapped__(base)
    assert order == 4 and len(calls) == order
    assert {reps for reps, _ in calls} == {tuple(base.group.elements())}
    calls.clear()
    assert battery.check_well_definedness(base) == (True, None)
    subgroups = admissible_subgroups(base)
    assert len(subgroups) == 5 and len(calls) == order * len(subgroups)


def test_representatives_are_indexed_once_per_caller(monkeypatch):
    """smatrix2 and the well-definedness row index their coset
    representatives once, so each check_column looks up only its g."""
    base = category_from_form(
        QuadraticForm(parse_group("Z2xZ2"), (ONE,) * 4), label="symmetric Z2xZ2, indexed"
    )
    columns, lookups, inside = [], [], []
    real_index = AbelianGroup.element_index

    def index(group, g):
        lookups.extend(inside)
        return real_index(group, g)

    def counted(cat, reps, g, *starts):
        columns.append(g)
        inside.append(g)
        try:
            return check_column(cat, reps, g, *starts)
        finally:
            inside.clear()

    monkeypatch.setattr(AbelianGroup, "element_index", index)
    monkeypatch.setattr(brmod, "check_column", counted)
    monkeypatch.setattr(battery, "check_column", counted)
    smatrix2.__wrapped__(base)
    assert battery.check_well_definedness(base) == (True, None)
    assert len(columns) == 4 + 4 * 5  # |T| in smatrix2, |T| per admissible H
    assert lookups == columns


def test_module_representatives_carry_their_indices(every_form):
    """Each module carries its coset representatives' element indices, as
    the quotient built them, for every admissible H of every form."""
    for base in every_form:
        group = base.group
        regular = schur_classes(base)[0].representative
        for sub in admissible_subgroups(base):
            mod = build_module_cat(base, sub, regular.chi) if sub.order > 1 else regular
            assert mod.rep_indices == tuple(map(group.element_index, mod.coset_reps))


def test_row_starts_are_read_from_carried_indices(monkeypatch):
    """smatrix2 and the well-definedness row hand ``row_starts`` the carried
    indices: no representative is looked up while the starts are made."""
    base = category_from_form(
        QuadraticForm(parse_group("Z2xZ2"), (ONE,) * 4), label="symmetric Z2xZ2, starts"
    )
    calls, inside, lookups = [], [], []
    real_index, real_starts = AbelianGroup.element_index, brmod.row_starts

    def index(group, g):
        lookups.extend(inside)
        return real_index(group, g)

    def starts(group, indices):
        calls.append(group)
        inside.append(indices)
        try:
            return real_starts(group, indices)
        finally:
            inside.clear()

    monkeypatch.setattr(AbelianGroup, "element_index", index)
    monkeypatch.setattr(brmod, "row_starts", starts)
    monkeypatch.setattr(battery, "row_starts", starts)
    smatrix2.__wrapped__(base)
    assert battery.check_well_definedness(base) == (True, None)
    assert len(calls) == 1 + 5 and not lookups  # smatrix2, then one per admissible H


# -- the closure certificate ----------------------------------------------------------

def test_certificate_rejects_orthogonal_rows_that_are_not_a_group():
    """The character table of Z2xZ2 mod 2 is a group; with row 1 negated the
    rows stay orthogonal, but (1,0,1,0) + (0,0,1,1) is no row."""
    rows = ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0))
    assert _is_group(rows, 2) and _orthogonality_rank(rows, 2) == 4
    negated = (rows[0], (1, 0, 1, 0), rows[2], rows[3])
    assert not _is_group(negated, 2)
    with pytest.raises(InternalInconsistency, match="not a group of characters"):
        _orthogonality_rank(negated, 2)
    repeated = (rows[0], rows[0], rows[1], rows[1])  # a group of order 2, listed twice
    assert not _is_group(repeated, 2)
    with pytest.raises(InternalInconsistency, match="rows 0 and 1 pair to"):
        _orthogonality_rank(repeated, 2)
    assert not _is_group(rows[1:] + (rows[1],), 2)  # no zero row
    # 3 + 1 is no row; a span grown by cosets of itself would miss that
    assert not _is_group(((0,), (1,), (2,), (3,), (8,), (9,), (10,), (11,)), 16)
    assert _is_group(((0,), (3,), (6,), (1,), (4,), (7,), (2,), (5,)), 8)


class _Row:
    """A stand-in character whose exponents at the columns are a fixed row."""

    def __init__(self, row):
        self.row = row

    def exponents(self, cols):
        return list(self.row)


def test_a_row_that_breaks_closure_aborts_the_run(monkeypatch, tmp_path, capsys):
    path = tmp_path / "symmetric.json"
    path.write_text(json.dumps({"label": "closure broken", "group": "Z2xZ2", "q": {}}))
    classes = brmod.schur_classes

    def spoiled(base):
        out = list(classes(base))
        out[1] = replace(out[1], representative=replace(
            out[1].representative, chi=_Row((1, 0, 1, 0))))
        return tuple(out)

    monkeypatch.setattr(brmod, "schur_classes", spoiled)
    code = main(["smatrix", str(path), "--level", "2"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (
        "error: level-2 S-matrix rows are orthogonal but not a group of characters\n"
    )


def test_certificate_takes_one_row_sum_per_row(monkeypatch):
    """|T| = 256 row sums certify symmetric Z16xZ16, where pairing every two
    rows took |T|(|T| + 1)/2 = 32896.  A work count, not a timing; the
    certificate memo is cleared first, as a table it holds takes no sums."""
    group = parse_group("Z16xZ16")
    base = make_category(QuadraticForm(group, (ONE,) * 256), label="symmetric Z16xZ16")
    _orthogonality_rank.cache_clear()
    calls = []
    monkeypatch.setattr(cyclotomic, "root_sum", lambda exps, n: calls.append(n) or root_sum(exps, n))
    sm = smatrix2.__wrapped__(base)
    assert sm.rank == 256 and calls == [16] * 256


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
