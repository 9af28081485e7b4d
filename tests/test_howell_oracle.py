"""The Howell engine against the reference engine in howell_oracle.py."""

import random

import pytest

import howell_oracle as oracle
from pointedcat import cocycles, groups
from pointedcat.groups import (
    howell_form,
    howell_kernel,
    parse_group,
    sparse_howell_form,
    sparse_howell_kernel,
)

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
    assert howell_form(rows, modulus) == form
    assert howell_kernel(rows, ncols, modulus) == kernel
    # the sparse entry points, handed the nonzeros (entries outside
    # [0, modulus) and multiples of it included) as (column, value) pairs
    pairs = [row.items() for row in _nonzeros(rows)]
    assert sparse_howell_form(pairs, modulus) == _nonzeros(form)
    assert sparse_howell_kernel(pairs, ncols, modulus) == _nonzeros(kernel)
    # from a start column on, the rows of the form with pivot at or past it
    for start in (1, ncols // 2, ncols):
        kept = [row for row in _nonzeros(form) if min(row) >= start]
        assert sparse_howell_form(pairs, modulus, start) == kept


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
    real_form = groups.sparse_howell_form

    def counting_form(rows, modulus, *start):
        rows = [list(row) for row in rows]
        eliminations.append(rows)
        return real_form(rows, modulus, *start)

    def counted(row_op):
        def wrapper(*args):
            ops.append(row_op.__name__)
            return row_op(*args)
        return wrapper

    monkeypatch.setattr(groups, "sparse_howell_form", counting_form)
    monkeypatch.setattr(groups, "_subtract", counted(groups._subtract))
    monkeypatch.setattr(groups, "_combine", counted(groups._combine))
    sparse_howell_kernel(rows, ncols, modulus)

    (augmented,) = eliminations
    assert len(augmented) == ncols
    # the rows^T block holds one column per equation, sparsest first
    counts = [0] * len(rows)
    for row in augmented:
        for col, _ in row:
            if col < len(rows):
                counts[col] += 1
    assert counts == sorted(len(row) for row in rows)
    # the two eliminations it replaced made 1,091 subtractions and 132 combines
    assert len(ops) < 1091 + 132


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
