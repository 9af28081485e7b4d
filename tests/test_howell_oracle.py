"""The Howell engine against the reference engine in howell_oracle.py."""

import math
import random

import pytest

import dense_howell
import howell_oracle as oracle
from pointedcat import cocycles, groups
from pointedcat.groups import parse_group, sparse_howell_form, sparse_howell_kernel

MODULI = (1, 2, 3, 4, 6, 8, 9, 12)


def _sparse_system(rng, modulus, nrows, ncols, density=0.15):
    """Rows shaped like the classify equations: few nonzero entries, mostly +-1."""
    def entry():
        if rng.random() >= density:
            return 0
        return rng.choice((1, -1, 1, -1, rng.randrange(modulus)))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 3)):  # all-zero rows and repeats
        rows.insert(rng.randint(0, len(rows)), rng.choice(([0] * ncols, *rows[:1])))
    return rows


def _redundant_system(rng, modulus, nrows=400, ncols=80):
    """Rows shaped like the classify equations' redundancy: combinations of
    ncols // 2 sparse rows, so most reduce to zero, and rows that are 0 mod
    modulus before any elimination."""
    base = [[(c, rng.choice((1, -1, 1, -1, rng.randrange(modulus))))
             for c in rng.sample(range(ncols), rng.randint(2, 6))]
            for _ in range(ncols // 2)]
    rows = []
    for _ in range(nrows):
        vec = [0] * ncols
        for row in rng.sample(base, rng.randint(1, 3)):
            k = rng.choice((1, -1, modulus - 1, modulus + 1))
            for c, v in row:
                vec[c] += k * v
        rows.append(vec)
    for i in rng.sample(range(nrows), 8):
        rows[i] = [modulus * x for x in rows[i]]
    return rows


def _systems():
    rng = random.Random(15)
    for modulus in MODULI:
        for nrows, ncols in ((0, 3), (1, 1), (4, 6), (12, 9), (40, 20), (130, 40)):
            yield modulus, ncols, _sparse_system(rng, modulus, nrows, ncols)
        for _ in range(4):  # small dense systems, entries outside [0, modulus) too
            ncols = rng.randint(1, 6)
            yield modulus, ncols, [[rng.randrange(-2 * modulus, 2 * modulus + 1)
                                    for _ in range(ncols)]
                                   for _ in range(rng.randint(1, 8))]
    rng = random.Random(18)
    for modulus in MODULI:
        yield modulus, 80, _redundant_system(rng, modulus)
        yield modulus, 0, [[]] * rng.randint(0, 3)


def _nonzeros(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


@pytest.mark.parametrize("modulus, ncols, rows", list(_systems()))
def test_howell_engine_matches_oracle(modulus, ncols, rows):
    form = oracle.howell_form(rows, modulus)
    kernel = oracle.howell_kernel(rows, ncols, modulus)
    # the engine, handed every entry of the dense rows
    assert dense_howell.howell_form(rows, modulus) == form
    assert dense_howell.howell_kernel(rows, ncols, modulus) == kernel
    # and handed the nonzeros (entries outside [0, modulus) and multiples of
    # it included) as (column, value) pairs
    pairs = [row.items() for row in _nonzeros(rows)]
    assert sparse_howell_form(pairs, modulus) == _nonzeros(form)
    assert sparse_howell_kernel(pairs, ncols, modulus) == _nonzeros(kernel)
    # from a start column on, the rows of the form with pivot at or past it
    for start in (1, ncols // 2, ncols):
        kept = [row for row in _nonzeros(form) if min(row) >= start]
        assert sparse_howell_form(pairs, modulus, start) == kept


def test_a_repeated_column_sums_its_values():
    assert sparse_howell_form([[(0, 1), (0, 1)]], 4) == [{0: 2}]
    assert sparse_howell_kernel([[(0, 1), (0, 1)]], 1, 4) == [{0: 2}]
    # repeats that cancel mod the modulus leave no entry: column 0 here, and
    # the whole row below, whose kernel is all of Z/4
    assert sparse_howell_form([[(0, 1), (1, 1), (0, 3)]], 4) == [{1: 1}]
    assert sparse_howell_kernel([[(0, 2), (0, 2)]], 1, 4) == [{0: 1}]


def _split(rng, row, modulus):
    """The nonzeros of a dense row as (column, value) pairs, each value cut
    into one to three parts of any residue, with pairs that cancel added at
    some zero columns; the pairs come shuffled."""
    pairs = []
    for c, v in enumerate(row):
        if v:
            parts = [rng.randrange(-2 * modulus, 2 * modulus + 1)
                     for _ in range(rng.randint(0, 2))]
            pairs += [(c, p) for p in parts] + [(c, v - sum(parts))]
        elif rng.random() < 0.1:
            pairs += [(c, modulus), (c, -modulus)]
    rng.shuffle(pairs)
    return pairs


@pytest.mark.parametrize("modulus, ncols, rows", list(_systems()))
def test_rows_with_repeated_columns_equal_the_merged_rows(modulus, ncols, rows):
    rng = random.Random(f"{modulus} {ncols} {len(rows)}")
    merged = [row.items() for row in _nonzeros(rows)]
    split = [_split(rng, row, modulus) for row in rows]
    form = sparse_howell_form(merged, modulus)
    kernel = sparse_howell_kernel(merged, ncols, modulus)
    # as lists, and as one-pass iterators
    assert sparse_howell_form(split, modulus) == form
    assert sparse_howell_form(map(iter, split), modulus) == form
    assert sparse_howell_kernel(split, ncols, modulus) == kernel
    assert sparse_howell_kernel(map(iter, split), ncols, modulus) == kernel


def _shared_factor_system(rng, modulus, nrows, ncols):
    """Sparse rows, each led by a residue a that shares a factor g > 1 with
    the modulus, then a unit, then units or nonzero multiples of g.  Opening a
    pivot on such a row leaves the cofactor (modulus / g) row, which is
    nonzero at the units and zero at the multiples of g."""
    shared = [a for a in range(2, modulus) if math.gcd(a, modulus) > 1]
    rows = []
    for _ in range(nrows):
        lead, a = rng.randrange(ncols - 1), rng.choice(shared)
        g = math.gcd(a, modulus)
        row = [0] * ncols
        row[lead] = a
        unit, *rest = rng.sample(range(lead + 1, ncols), min(ncols - lead - 1, rng.randint(1, 4)))
        row[unit] = rng.choice((1, -1))
        for c in rest:
            row[c] = rng.choice((1, -1, g * rng.randrange(1, modulus // g)))
        rows.append(row)
    return rows


# Rows whose new pivot t row has t v = 0 mod N at an entry v: the extended
# gcd of (N, a) gives t = -2 for (10, 4) and (20, 8), and t = -4 for (18, 4).
KILLED_BY_SCALE = ((10, [4, 5, 1]), (18, [4, 9, 1]), (20, [8, 10, 1]))


def _new_pivot_cases():
    rng = random.Random(23)
    for modulus in (4, 6, 8, 9, 12):
        for nrows, ncols in ((1, 3), (3, 5), (8, 8), (20, 12), (40, 24)):
            yield modulus, ncols, _shared_factor_system(rng, modulus, nrows, ncols)
    for modulus, row in KILLED_BY_SCALE:
        yield modulus, len(row), [row, [0, 2, 3]]


@pytest.mark.parametrize("modulus, row", KILLED_BY_SCALE)
def test_the_scale_cases_kill_an_entry(modulus, row):
    g, _, t = groups._xgcd(modulus, row[0])
    assert g > 1 and t * row[1] % modulus == 0 != row[1] % modulus


@pytest.mark.parametrize("modulus, ncols, rows", list(_new_pivot_cases()))
def test_a_new_pivot_sharing_a_factor_with_the_modulus_keeps_its_cofactor(
    modulus, ncols, rows, monkeypatch
):
    """A new pivot column's row becomes t row, which carries
    g = gcd(modulus, a) at the pivot, and the cofactor (modulus / g) row
    goes back on the work list.  With g > 1 the cofactor is nonzero; both
    rows drop the entries that vanish mod the modulus."""
    cofactors = []
    real_scale = groups._scale

    def scale(k, row, n):
        out = real_scale(k, row, n)
        if out and min(row) not in out:  # vanishes at the lead: a cofactor
            cofactors.append(out)
        return out

    monkeypatch.setattr(groups, "_scale", scale)
    form = _nonzeros(oracle.howell_form(rows, modulus))
    pairs = [row.items() for row in _nonzeros(rows)]
    for start in range(ncols + 1):
        assert sparse_howell_form(pairs, modulus, start) == [
            row for row in form if min(row) >= start
        ]
    assert cofactors
    assert sparse_howell_kernel(pairs, ncols, modulus) == _nonzeros(
        oracle.howell_kernel(rows, ncols, modulus)
    )


def _classify_system(literal, value_order):
    """The (rows, ncols, modulus) that classify_h3ab hands the kernel."""
    systems = []
    real_kernel = groups.sparse_howell_kernel

    def recording_kernel(rows, ncols, modulus):
        rows = [tuple(row) for row in rows]
        systems.append((rows, ncols, modulus))
        return real_kernel(rows, ncols, modulus)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cocycles, "sparse_howell_kernel", recording_kernel)
        cocycles.classify_h3ab(parse_group(literal), value_order)
    (system,) = systems
    return system


def test_kernel_is_one_elimination_sparsest_equations_first(monkeypatch):
    # Count work, not time: on the Z4, N = 3 classification the kernel is
    # handed the equations' 503 nonzeros, not a 122 x 36 matrix, and makes one
    # elimination of the 36 rows of [rows^T | I].
    rows, ncols, modulus = _classify_system("Z4", 3)
    assert (len(rows), ncols, sum(map(len, rows))) == (122, 36, 503)
    eliminations, ops = [], []
    real_eliminate = groups._eliminate

    def counting_eliminate(rows, modulus, start):
        eliminations.append([dict(row) for row in rows])
        return real_eliminate(rows, modulus, start)

    def counted(row_op):
        def wrapper(*args):
            ops.append(row_op.__name__)
            return row_op(*args)
        return wrapper

    monkeypatch.setattr(groups, "_eliminate", counting_eliminate)
    monkeypatch.setattr(groups, "_subtract", counted(groups._subtract))
    monkeypatch.setattr(groups, "_combine", counted(groups._combine))
    sparse_howell_kernel(rows, ncols, modulus)

    (augmented,) = eliminations
    assert len(augmented) == ncols
    # the rows^T block holds one column per equation, sparsest first
    counts = [0] * len(rows)
    for row in augmented:
        for col in row:
            if col < len(rows):
                counts[col] += 1
    assert counts == sorted(len(row) for row in rows)
    # the two eliminations it replaced made 1,091 subtractions and 132
    # combines; each new pivot is opened without a combine
    assert len(ops) <= 72
    assert "_combine" not in ops


@pytest.mark.parametrize("literal, value_order", [("Z4", 3), ("Z2xZ2", 2)])
def test_classify_kernels_over_a_prime_open_each_pivot_in_one_pass(
    literal, value_order, monkeypatch
):
    """Over a prime modulus every nonzero lead is a unit, so a new pivot
    column costs one scaled copy of its row, with no cofactor, and no 2x2
    step is ever needed: the kernel makes no combine."""
    rows, ncols, modulus = _classify_system(literal, value_order)
    calls = []

    def counted(row_op):
        def wrapper(*args):
            calls.append(row_op.__name__)
            return row_op(*args)
        return wrapper

    for name in ("_combine", "_scale", "_subtract"):
        monkeypatch.setattr(groups, name, counted(getattr(groups, name)))
    kernel = sparse_howell_kernel(rows, ncols, modulus)
    assert "_combine" not in calls
    assert kernel == _nonzeros(oracle.howell_kernel(
        [[dict(row).get(c, 0) for c in range(ncols)] for row in rows], ncols, modulus
    ))
    # the identity block gives [rows^T | I] rank ncols: each row opens one pivot
    assert calls.count("_scale") == ncols


@pytest.mark.parametrize("value_order", range(1, 9))
@pytest.mark.parametrize("literal", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2"])
def test_kernel_of_classify_systems_matches_oracle_on_any_presentation(literal, value_order):
    rows, ncols, modulus = _classify_system(literal, value_order)
    expected = _nonzeros(oracle.howell_kernel(
        [[dict(row).get(c, 0) for c in range(ncols)] for row in rows], ncols, modulus
    ))
    assert sparse_howell_kernel(rows, ncols, modulus) == expected
    rng = random.Random(f"{literal} {value_order}")
    shuffled = rng.sample(rows, len(rows))
    duplicated = rows + rng.sample(rows, len(rows) // 3)
    padded = rows[:]
    for zero in ((), tuple((c, c % 2 * modulus) for c in range(min(3, ncols)))) * 3:
        padded.insert(rng.randint(0, len(padded)), zero)
    unreduced = [tuple((c, v + rng.choice((-2, -1, 1, 3)) * modulus) for c, v in row)
                 for row in rows]
    for variant in (shuffled, duplicated, padded, unreduced):
        assert sparse_howell_kernel(variant, ncols, modulus) == expected


@pytest.mark.parametrize("value_order", range(1, 9))
@pytest.mark.parametrize("literal", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2"])
def test_kernel_back_reduces_only_the_rows_it_keeps(literal, value_order, monkeypatch):
    """The kernel keeps the rows of the Howell form of [rows^T | I] whose pivot
    is past the rows^T block, and only those are back-reduced.  A
    back-reduction step subtracts a row with a later pivot (an elimination
    step subtracts the row with the same pivot), so every such step must
    land on a kept row; the kernel still equals the oracle's."""
    rows, ncols, modulus = _classify_system(literal, value_order)
    split = sum(1 for row in rows if any(v % modulus for _, v in row))
    reduced = []
    real_subtract = groups._subtract

    def subtract(row, k, y, n):
        if min(row) < min(y):
            reduced.append(min(row))
        return real_subtract(row, k, y, n)

    monkeypatch.setattr(groups, "_subtract", subtract)
    kernel = sparse_howell_kernel(rows, ncols, modulus)
    assert kernel == _nonzeros(oracle.howell_kernel(
        [[dict(row).get(c, 0) for c in range(ncols)] for row in rows], ncols, modulus
    ))
    assert all(pivot >= split for pivot in reduced), (split, sorted(set(reduced)))
