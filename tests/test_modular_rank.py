"""Differential tests for the certified rank.

``CycloMatrix.rank`` proves a table of roots' rank by character
orthogonality over its distinct exponent rows when they form a group
(``orthogonality_rank``).  Otherwise it reduces entries modulo primes
p = 1 (mod N) and certifies the result against an exact upper bound: a table
of roots on its exponents (``root_matrix_rank``), any other matrix on its
power-basis coefficients.  Exact Bareiss elimination
(``CycloMatrix._eliminate``) is the oracle they must agree with everywhere,
and orthogonality and the primes are checked against each other.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from pointedcat import cyclotomic
from pointedcat.battery import _abelian_groups_of_order
from pointedcat.brmod import smatrix2
from pointedcat.cyclotomic import (
    _RANK_PRIMES,
    MAX_CONDUCTOR,
    ONE,
    CycloMatrix,
    CycloNumber,
    embed,
    orthogonality_rank,
    root_of_unity,
    _is_prime,
    _rank_mod_p,
    _rank_prime,
    _residues,
    root_matrix_rank,
)
from pointedcat.errors import ConductorCapExceeded
from pointedcat.groups import character_table, characters, format_group, parse_group
from pointedcat.metric import drinfeld_double, preset, smatrix1


def _oracle_rank(matrix):
    rank, _, _ = matrix._eliminate()
    return rank


def _rank_primes(n):
    """The primes ``_prime_rank`` may try for conductor n, in order."""
    return tuple(_rank_prime(n, i) for i in range(_RANK_PRIMES))


def _certificate(matrix):
    """The orthogonality rank of a root table over its distinct rows, or None."""
    exps, width = matrix.exponents, matrix.cols
    rows = {tuple(exps[i:i + width]) for i in range(0, len(exps), width)}
    return orthogonality_rank(sorted(rows), matrix.conductor)


def _rank_by_primes(matrix):
    return root_matrix_rank(matrix.exponents, matrix.cols, matrix.conductor)


def _ints(rows, conductor=1):
    return CycloMatrix.from_rows(
        [[CycloNumber.from_rational(v, conductor) for v in row] for row in rows]
    )


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the calls that reach the exact Bareiss fallback."""
    calls = []
    original = CycloMatrix._eliminate

    def counted(self):
        calls.append((self.rows, self.cols))
        return original(self)

    monkeypatch.setattr(CycloMatrix, "_eliminate", counted)
    return calls


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i in range(limit + 1) if flags[i]]


# -- the prime helper ----------------------------------------------------

def test_is_prime_matches_a_sieve():
    primes = set(_sieve(20000))
    assert [n for n in range(20001) if _is_prime(n)] == sorted(primes)
    # strong pseudoprimes to several small bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383):
        assert not _is_prime(n)


def test_rank_primes_for_conductors_up_to_64():
    small = _sieve(2**16)
    for n in range(1, 65):
        entries = _rank_primes(n)
        assert len(entries) == 3
        assert [p for p, _ in entries] == sorted({p for p, _ in entries})
        for p, w in entries:
            assert 2**31 < p < 2**32 and (p - 1) % n == 0
            assert all(p % q for q in small), (n, p)
            assert pow(w, n, p) == 1
            assert all(pow(w, d, p) != 1 for d in range(1, n)), (n, p, w)


def test_rank_primes_are_the_least_in_order():
    for n in (1, 2, 3, 8, 12, 64):
        candidates = range(2**31 // n * n + 1 + n, 2**32, n)
        least = list(itertools.islice(filter(_is_prime, candidates), 3))
        assert [p for p, _ in _rank_primes(n)] == least


def test_rank_primes_are_found_on_demand(eliminations):
    _rank_prime.cache_clear()
    assert root_matrix_rank([0, 0, 0, 1], 2, 2) == 2  # [[1, 1], [1, -1]]
    assert _rank_prime.cache_info().currsize == 1  # the first prime certified
    # det = p0: singular mod the first prime, so the second one is found
    p0 = _rank_prime(1, 0)[0]
    assert _ints([[2, 1], [1, (p0 + 1) // 2]]).rank() == 2
    assert _rank_prime.cache_info().currsize == 3  # (2, 0), (1, 0) and (1, 1)
    assert not eliminations


# -- agreement with the Bareiss oracle -----------------------------------

@pytest.mark.parametrize(
    "group",
    [g for n in range(1, 17) for g in _abelian_groups_of_order(n)],
    ids=format_group,
)
def test_character_tables_up_to_16(group, eliminations):
    table = character_table(group)
    assert table.rank() == group.order
    assert not eliminations
    assert _certificate(table) == _rank_by_primes(table) == _oracle_rank(table) == group.order


def test_roster_smatrices(battery_categories, eliminations):
    """Level-1 and level-2 S-matrices of every roster form, degenerate or not;
    none reaches Bareiss."""
    degenerate = 0
    for cat in battery_categories:
        for matrix in (smatrix1(cat).matrix, smatrix2(cat).matrix):
            assert matrix.rank() == _oracle_rank(matrix), cat.label
        degenerate += smatrix1(cat).matrix.rank() < cat.group.order
    assert degenerate > 0
    assert len(eliminations) == 2 * len(battery_categories)  # the oracle's own


def _random_matrix(rng, rows, cols, conductor):
    return [
        [embed(root_of_unity(conductor, rng.randrange(conductor)), conductor)
         for _ in range(cols)]
        for _ in range(rows)
    ]


def test_seeded_matrices_with_planted_dependencies():
    rng = random.Random(20261018)
    zero_rows = dependent = 0
    for trial in range(60):
        conductor = rng.choice((1, 2, 3, 4, 5, 6, 8, 12))
        cols = rng.randrange(1, 7)
        rows = _random_matrix(rng, rng.randrange(1, 6), cols, conductor)
        for _ in range(rng.randrange(4)):
            kind = rng.randrange(3)
            if kind == 0:  # duplicate row
                rows.append(list(rng.choice(rows)))
            elif kind == 1:  # cyclotomic-integer combination of two rows
                a, b = rng.choice(rows), rng.choice(rows)
                ca = embed(root_of_unity(conductor, rng.randrange(conductor)), conductor)
                cb = CycloNumber.from_rational(rng.randrange(-3, 4), conductor)
                rows.append([ca * x + cb * y for x, y in zip(a, b)])
                dependent += 1
            else:
                rows.append([CycloNumber.zero(conductor)] * cols)
                zero_rows += 1
        rng.shuffle(rows)
        for matrix in (CycloMatrix.from_rows(rows), CycloMatrix.from_rows(rows).transpose()):
            assert matrix.rank() == _oracle_rank(matrix), (trial, conductor)
    assert zero_rows and dependent


def test_non_integer_coefficients():
    third, half = Fraction(1, 3), Fraction(-5, 2)
    z = embed(root_of_unity(5, 1), 5)
    a = CycloNumber(5, (third, half, Fraction(0), Fraction(7, 11)))
    b = CycloNumber(5, (Fraction(2, 9), Fraction(0), Fraction(1), Fraction(-1, 4)))
    rows = [[a, b, z], [b, z, a], [a * b, z * z, b * z]]
    half_row = [x * CycloNumber.from_rational(half) + y for x, y in zip(rows[0], rows[1])]
    for candidate in (rows, rows + [half_row], [rows[0], half_row]):
        matrix = CycloMatrix.from_rows(candidate)
        assert matrix.rank() == _oracle_rank(matrix)
    assert CycloMatrix.from_rows(rows + [half_row]).rank() == 3


def test_a_prime_dividing_a_denominator_is_skipped(eliminations):
    p0 = _rank_primes(1)[0][0]
    matrix = CycloMatrix.from_rows(
        [[CycloNumber.from_rational(Fraction(1, p0)), CycloNumber.from_rational(1)],
         [CycloNumber.from_rational(0), CycloNumber.from_rational(1)]]
    )
    ids = {e.coeffs: i for i, e in enumerate(matrix.entries)}
    assert _residues(ids, *_rank_primes(1)[0]) is None
    assert matrix.rank() == 2
    assert not eliminations


# -- the Bareiss fallback ------------------------------------------------

@pytest.mark.parametrize(
    "rows, rank",
    [
        ([[1, 2], [2, 4]], 1),
        ([[1, 2, 3], [4, 5, 6], [5, 7, 9]], 2),
    ],
)
def test_dependent_rows_fall_back_to_bareiss(rows, rank, eliminations):
    """Distinct rows that are dependent leave the upper bound unmet, so no
    prime certifies and the exact elimination decides."""
    assert _ints(rows).rank() == rank
    assert eliminations == [(len(rows), len(rows[0]))]


def test_singular_mod_the_first_prime(eliminations):
    """det = p0, so the matrix is singular mod p0 and the second prime
    certifies full rank."""
    (p0, w0), (p1, w1), _ = _rank_primes(1)
    rows = [[2, 1], [1, (p0 + 1) // 2]]
    matrix = _ints(rows)
    assert _oracle_rank(matrix) == 2
    eliminations.clear()
    assert _rank_mod_p([list(r) for r in rows], p0) == 1
    assert _rank_mod_p([list(r) for r in rows], p1) == 2
    assert matrix.rank() == 2
    assert not eliminations


def test_zero_matrix_and_duplicates(eliminations):
    assert _ints([[0, 0], [0, 0]]).rank() == 0
    assert _ints([[0, 0, 0], [1, 1, 1], [1, 1, 1]]).rank() == 1
    assert _ints([[3]]).rank() == 1
    assert _ints([[0, 0], [0, 0]], 12).rank() == 0
    assert not eliminations


# -- root tables ranked on their exponents -------------------------------

GROUPS_UP_TO_16 = [g for n in range(1, 17) for g in _abelian_groups_of_order(n)]
SMALL_GROUPS = [g for n in range(1, 5) for g in _abelian_groups_of_order(n)]


def _character_roots(group):
    elems = group.elements()
    return [[chi.eval(g) for g in elems] for chi in characters(group)]


def _refuse(*args):
    raise AssertionError("a power-basis table, a CycloNumber or Bareiss was reached")


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=format_group)
def test_double_smatrices_up_to_16(group, eliminations):
    """The S-matrix of D(G), |D(G)| <= 16, is a root table of full rank."""
    double = drinfeld_double(group)
    matrix = smatrix1(double).matrix
    assert matrix.exponents is not None
    assert matrix.rank() == double.group.order
    assert not eliminations
    assert _oracle_rank(matrix) == double.group.order


def test_certified_root_tables_build_no_cyclotomic_numbers(monkeypatch):
    """Building and ranking a root table that a prime certifies reads its
    exponents only: no power-basis table, no CycloNumber, no Bareiss."""
    doubles = [drinfeld_double(group) for group in SMALL_GROUPS]
    monkeypatch.setattr(cyclotomic, "_root_powers", _refuse)
    monkeypatch.setattr(cyclotomic, "embed", _refuse)
    monkeypatch.setattr(CycloNumber, "__init__", _refuse)
    monkeypatch.setattr(CycloMatrix, "_eliminate", _refuse)
    for double in doubles:
        assert smatrix1(double).matrix.rank() == double.group.order
    for group in GROUPS_UP_TO_16:
        assert character_table(group).rank() == group.order


def test_lazy_entries_are_the_embedded_roots():
    tables = [_character_roots(group) for group in GROUPS_UP_TO_16]
    tables += [smatrix1(drinfeld_double(group)).roots for group in SMALL_GROUPS]
    # orders 4 and 6 meet at N = 12; one row of the table of z_12^k
    tables += [[[root_of_unity(4, 1), root_of_unity(6, 5), ONE, root_of_unity(2, 1)]],
               [[root_of_unity(12, k)] for k in range(12)]]
    for roots in tables:
        matrix = CycloMatrix.from_roots(roots)
        n = math.lcm(*(r.order for row in roots for r in row))
        assert matrix.conductor == n
        assert matrix.entries == CycloMatrix.from_rows(
            [[embed(r, n) for r in row] for row in roots]
        ).entries
        assert matrix == CycloMatrix.from_rows([[embed(r, n) for r in row] for row in roots])


def test_root_table_conductor_cap_is_checked_before_any_table(monkeypatch):
    """lcm(101, 103) = 10403 is above the cap: refused before an exponent, a
    power-basis table or a CycloNumber is made.  At the cap it is accepted
    and ranked on its exponents."""
    monkeypatch.setattr(cyclotomic, "_root_powers", _refuse)
    monkeypatch.setattr(cyclotomic, "embed", _refuse)
    monkeypatch.setattr(CycloNumber, "__init__", _refuse)

    class Root:  # reads of .exponent would mean the table was being built
        def __init__(self, order):
            self.order = order

        @property
        def exponent(self):
            raise AssertionError("exponent read before the cap was checked")

    with pytest.raises(ConductorCapExceeded, match="10403 exceeds the cap 10080"):
        CycloMatrix.from_roots([[Root(101), Root(103)]])
    top = CycloMatrix.from_roots([[root_of_unity(MAX_CONDUCTOR, 1), ONE]])
    assert top.conductor == MAX_CONDUCTOR and top.exponents == (1, 0)
    assert top.rank() == 1


def _corruptions(roots):
    """(name, table, rank) for four damaged copies of a full-rank n x n table:
    its last row or column replaced by a copy of the one before it."""
    n = len(roots)
    z = root_of_unity(3, 1)
    return [
        ("duplicated row", roots[:-1] + [roots[-2]], n - 1),
        ("row scaled by a root", roots[:-1] + [[z * r for r in roots[-2]]], n - 1),
        ("duplicated column", [row[:-1] + [row[-2]] for row in roots], n - 1),
        ("all ones", [[ONE] * n for _ in range(n)], 1),
    ]


@pytest.mark.parametrize(
    "roots",
    [_character_roots(group) for group in GROUPS_UP_TO_16 if group.order in (3, 4, 6, 8)]
    + [[list(row) for row in smatrix1(drinfeld_double(group)).roots]
       for group in SMALL_GROUPS if group.order > 1],
    ids=lambda roots: f"{len(roots)}x{len(roots)}",
)
def test_corrupted_root_tables(roots, eliminations):
    """A scaled row leaves as many distinct rows and columns as before, so no
    prime certifies and Bareiss decides; the other three certify."""
    for name, table, rank in _corruptions(roots):
        matrix = CycloMatrix.from_roots(table)
        eliminations.clear()
        assert matrix.rank() == rank, name
        assert len(eliminations) == (name == "row scaled by a root"), name
        assert _oracle_rank(matrix) == rank, name



# -- the orthogonality certificate ----------------------------------------

@pytest.mark.parametrize("literal", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6"])
def test_doubles_are_ranked_alike_by_all_three_proofs(literal, eliminations):
    """D(Z1) to D(Z6) and D(Z2xZ2): orthogonality, the primes and Bareiss."""
    group = parse_group(literal)
    matrix = smatrix1(drinfeld_double(group)).matrix
    n = group.order**2
    assert matrix.rank() == n
    assert not eliminations
    assert _certificate(matrix) == _rank_by_primes(matrix) == _oracle_rank(matrix) == n


def _roots(rows, n):
    return [[root_of_unity(n, k) for k in row] for row in rows]


@pytest.mark.parametrize(
    "roots",
    [
        _roots([[1, 1, 1], [1, 3, 5], [1, 5, 3]], 6),  # z6 times the Z3 table
        _roots([[0, 0, 0, 0], [0, 2, 2, 3], [0, 2, 0, 2], [0, 3, 2, 1]], 4),  # one shifted
        _roots([[0, 0, 0], [0, 1, 2]], 3),  # non-square
        _roots([[0, 1], [1, 0]], 2),  # [[1, -1], [-1, 1]]
        _roots([[0, 1, 2], [0, 2, 1]], 3),  # the Z3 table without its trivial row
        _roots([[0, 0], [1, 1]], 2),  # a group, but row 1 sums to -2
    ],
    ids=["coset", "shifted", "non-square", "1,-1;-1,1", "no-zero-row", "row-sum"],
)
def test_tables_that_are_no_group_of_characters_fall_back(roots):
    matrix = CycloMatrix.from_roots(roots)
    assert _certificate(matrix) is None
    assert matrix.rank() == _oracle_rank(matrix)


@pytest.fixture
def prime_ranks(monkeypatch):
    """Counts the calls that reach the elimination modulo primes."""
    calls = []
    original = cyclotomic._prime_rank

    def counted(cells, width, *rest):
        calls.append(width)
        return original(cells, width, *rest)

    monkeypatch.setattr(cyclotomic, "_prime_rank", counted)
    return calls


def test_repeated_rows_are_deduplicated_first(prime_ranks, eliminations):
    """Each table lists a group of characters with repeats: the S-matrix of
    D(Z2xZ2) twice over, its trivial row three times, all ones, and the
    degenerate svect.  The distinct rows are certified, with no prime and no
    Bareiss."""
    table = [list(row) for row in smatrix1(preset("double:Z2xZ2")).roots]
    for roots, rank in [
        (table + table[::-1], 16),
        (table[:1] * 3 + table[1:], 16),
        ([[ONE] * 3] * 3, 1),
        (smatrix1(preset("svect")).roots, 1),
    ]:
        assert CycloMatrix.from_roots(roots).rank() == rank
    assert not prime_ranks and not eliminations


def test_level1_double_ranks_make_no_prime_rank_call(prime_ranks, eliminations):
    """The four rank ops of the level1-doubles benchmark workload."""
    for literal, order in (("Z2", 4), ("Z3", 9), ("Z4", 16), ("Z2xZ2", 16)):
        assert smatrix1(preset(f"double:{literal}")).matrix.rank() == order
    assert not prime_ranks and not eliminations
