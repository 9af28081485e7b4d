import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointedcat.cyclotomic import (
    CycloMatrix,
    CycloNumber,
    cyclotomic_polynomial,
    embed,
    euler_phi,
    format_root,
    parse_root,
    root_of_unity,
    _poly_mul,
)
from pointedcat.errors import (
    ConductorCapExceeded,
    ConductorMismatch,
    DivisionByZero,
    NotSquare,
    ParseError,
)


# -- oracles -----------------------------------------------------------

def naive_divmod(num, den):
    """Schoolbook division of integer polynomials (ascending coefficients)."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        assert num[-1] % den[-1] == 0
        factor = num[-1] // den[-1]
        q[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
    while num and num[-1] == 0:
        num.pop()
    return q, num


def oracle_phi12():
    """Phi_12 by dividing x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6, all derived
    from scratch with the schoolbook routine."""
    def xn_minus_1(n):
        return [-1] + [0] * (n - 1) + [1]

    phi = {1: [-1, 1]}
    for n in (2, 3, 4, 6, 12):
        num = xn_minus_1(n)
        for d in sorted(phi):
            if n % d == 0 and d < n:
                num, rem = naive_divmod(num, phi[d])
                assert rem == []
        phi[n] = num
    return tuple(phi[12])


def test_cyclotomic_polynomial_examples():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # frozen from the division oracle below: x^4 - x^2 + 1
    assert oracle_phi12() == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_phi_reconstruction_up_to_48():
    for n in range(1, 49):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = _poly_mul(product, list(cyclotomic_polynomial(d)))
        assert product == [-1] + [0] * (n - 1) + [1]
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


# -- roots of unity ----------------------------------------------------

def test_root_canonical_form():
    assert root_of_unity(4, 2) == root_of_unity(2, 1)
    assert root_of_unity(6, 0) == root_of_unity(1, 0)
    assert root_of_unity(8, 6) == root_of_unity(4, 3)
    assert (root_of_unity(4, 1) * root_of_unity(4, 1)) == root_of_unity(2, 1)
    assert root_of_unity(8, 3).inv() == root_of_unity(8, 5)


def test_root_literals():
    assert format_root(root_of_unity(1, 0)) == "1"
    assert format_root(root_of_unity(2, 1)) == "-1"
    assert format_root(root_of_unity(8, 3)) == "z8^3"
    assert parse_root("z4^6") == root_of_unity(2, 1)
    assert parse_root("1") == root_of_unity(1, 0)
    assert parse_root("-1") == root_of_unity(2, 1)
    with pytest.raises(ParseError):
        parse_root("zfour^1")


def test_embed_examples():
    minus_one = embed(root_of_unity(2, 1), 4)
    assert [str(c) for c in minus_one.coeffs] == ["-1", "0"]
    i = embed(root_of_unity(4, 1), 4)
    assert i * i == CycloNumber.from_rational(-1)
    z3 = embed(root_of_unity(3, 1), 3)
    assert CycloNumber.one() + z3 + z3 * z3 == CycloNumber.zero()
    with pytest.raises(ConductorMismatch):
        embed(root_of_unity(3, 1), 4)


def test_embedded_root_orders():
    for order in range(1, 13):
        for exponent in range(order):
            if math.gcd(exponent, order) != 1 and order > 1:
                continue
            r = root_of_unity(order, exponent)
            x = embed(r, order)
            assert x ** order == CycloNumber.one(order)
            for m in range(1, order):
                assert x ** m != CycloNumber.one(order)


def _roots_of_order_dividing(n):
    out = []
    for order in range(1, n + 1):
        if n % order:
            continue
        for exponent in range(order):
            if order == 1 or math.gcd(exponent, order) == 1:
                out.append(root_of_unity(order, exponent))
    return out


def test_embedding_is_multiplicative_divisors_of_24():
    roots = _roots_of_order_dividing(24)
    assert len(roots) == 24
    for r in roots:
        for s in roots:
            n = math.lcm(r.order, s.order)
            assert embed(r * s, n) == embed(r, n) * embed(s, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.integers(0, 23), st.integers(1, 24), st.integers(0, 23))
def test_embedding_is_multiplicative_random(n1, k1, n2, k2):
    r = root_of_unity(n1, k1 % n1)
    s = root_of_unity(n2, k2 % n2)
    n = math.lcm(r.order, s.order)
    assert embed(r * s, n) == embed(r, n) * embed(s, n)


# -- field arithmetic --------------------------------------------------

def test_inverse_of_root():
    z8 = embed(root_of_unity(8, 1), 8)
    assert z8.inv() == embed(root_of_unity(8, 7), 8)


def test_product_example():
    i = embed(root_of_unity(4, 1), 4)
    one = CycloNumber.one(4)
    assert (one + i) * (one - i) == CycloNumber.from_rational(2)


def test_cross_conductor_equality():
    # zeta_6 = -zeta_3^2, decided by promoting both to conductor 6
    z6 = embed(root_of_unity(6, 1), 6)
    z3sq = embed(root_of_unity(3, 2), 3)
    assert z6 == -z3sq


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        CycloNumber.zero(4).inv()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6, 8, 12]), st.data())
def test_field_axioms(order, data):
    ks = [data.draw(st.integers(0, order - 1)) for _ in range(3)]
    a, b, c = (embed(root_of_unity(order, k % order), order) for k in ks)
    one = CycloNumber.one(order)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    if not a.is_zero:
        assert a * a.inv() == one
    assert (a + b) - b == a


def test_conj_is_an_involution_and_fixes_rationals():
    z12 = embed(root_of_unity(12, 1), 12)
    assert z12.conj() == embed(root_of_unity(12, 11), 12)
    assert z12.conj().conj() == z12
    half = CycloNumber.from_rational("1/2", 12)
    assert half.conj() == half


def test_conductor_cap(monkeypatch):
    """lcm(101, 103) = 10403 is above the cap 10080: refused before promoting."""
    a = embed(root_of_unity(101, 1), 101)
    b = embed(root_of_unity(103, 1), 103)
    promoted = []
    promote = CycloNumber.promote
    monkeypatch.setattr(
        CycloNumber, "promote", lambda self, n: promoted.append(n) or promote(self, n)
    )
    with pytest.raises(ConductorCapExceeded):
        a * b
    assert promoted == []
    c = embed(root_of_unity(4, 1), 4)
    d = embed(root_of_unity(3, 1), 3)
    assert not (c * d).is_zero
    assert promoted == [12, 12]


# -- matrices ----------------------------------------------------------

def _m(rows):
    return CycloMatrix.from_rows(
        [[CycloNumber.from_rational(v) if isinstance(v, int) else v for v in row]
         for row in rows]
    )


def oracle_det(matrix):
    """Cofactor expansion along the first row."""
    n = matrix.rows
    if n == 1:
        return matrix.at(0, 0)
    total = CycloNumber.zero(matrix.entries[0].conductor)
    for j in range(matrix.cols):
        minor = CycloMatrix.from_rows(
            [
                [matrix.at(i, jj) for jj in range(matrix.cols) if jj != j]
                for i in range(1, matrix.rows)
            ]
        )
        term = matrix.at(0, j) * oracle_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def oracle_rank(matrix):
    """The order of the largest nonzero minor, by cofactor expansion."""
    for k in range(min(matrix.rows, matrix.cols), 0, -1):
        for rows in itertools.combinations(range(matrix.rows), k):
            for cols in itertools.combinations(range(matrix.cols), k):
                minor = CycloMatrix.from_rows([[matrix.at(i, j) for j in cols] for i in rows])
                if not oracle_det(minor).is_zero:
                    return k
    return 0


def test_det_and_rank_examples():
    assert _m([[1, 1], [1, -1]]).det() == CycloNumber.from_rational(-2)
    assert _m([[1, 1], [1, 1]]).rank() == 1
    with pytest.raises(NotSquare):
        _m([[1, 1, 1], [1, 1, 1]]).det()


def test_character_table_determinant_z2xz2():
    from pointedcat.groups import character_table, parse_group

    table = character_table(parse_group("Z2xZ2"))
    det = table.det()
    expected = oracle_det(table)
    assert det == expected
    assert det in (CycloNumber.from_rational(16), CycloNumber.from_rational(-16))
    assert det * det.conj() == CycloNumber.from_rational(256)


def test_random_inverse_via_adjugate():
    rng = random.Random(20240811)
    roots = _roots_of_order_dividing(12)
    found = 0
    while found < 5:
        entries = [[embed(rng.choice(roots), 12) for _ in range(3)] for _ in range(3)]
        m = CycloMatrix.from_rows(entries)
        det = m.det()
        if det.is_zero:
            continue
        found += 1
        assert det == oracle_det(m)
        adjugate = CycloMatrix.from_rows(
            [
                [
                    oracle_det(
                        CycloMatrix.from_rows(
                            [
                                [m.at(i, j) for j in range(3) if j != col]
                                for i in range(3)
                                if i != row
                            ]
                        )
                    ) * CycloNumber.from_rational((-1) ** (row + col))
                    for row in range(3)
                ]
                for col in range(3)
            ]
        )
        inverse = adjugate.scale(det.inv())
        assert m.matmul(inverse) == CycloMatrix.identity(3, 12)
        assert det * inverse.det() == CycloNumber.one()


def _seeded_square_matrices():
    """Seeded 1x1 to 4x4 matrices over several conductors, each followed by
    singular variants: a zero row, a zero column, a row that is a multiple
    of another or a combination of two others, and rank at most 1."""
    rng = random.Random(23)
    for size in range(1, 5):
        for conductor in (1, 3, 4, 5, 8, 12):
            def entry():
                if rng.random() < 0.2:
                    return CycloNumber.zero(conductor)
                coeffs = tuple(rng.randint(-3, 3) for _ in range(euler_phi(conductor)))
                return CycloNumber(conductor, coeffs)

            rows = [[entry() for _ in range(size)] for _ in range(size)]
            yield rows
            i, j = rng.randrange(size), rng.randrange(size)
            variants = [
                [[CycloNumber.zero(conductor)] * size if r == i else row
                 for r, row in enumerate(rows)],
                [[CycloNumber.zero(conductor) if c == j else x for c, x in enumerate(row)]
                 for row in rows],
            ]
            others = [r for r in range(size) if r != i]
            for count in (1, 2)[:len(others)]:
                scales = [entry() for _ in range(count)]
                combined = [CycloNumber.zero(conductor)] * size
                for scale, r in zip(scales, rng.sample(others, count)):
                    combined = [x + scale * y for x, y in zip(combined, rows[r])]
                variants.append([combined if r == i else row for r, row in enumerate(rows)])
            scales = [entry() for _ in rows]
            variants.append([[scale * x for x in rows[0]] for scale in scales])
            yield from variants


@pytest.mark.parametrize("rows", list(_seeded_square_matrices()))
def test_bareiss_inverts_once_per_step_with_a_row_below(rows, monkeypatch):
    """Bareiss divides every updated entry by the previous pivot; it inverts
    that pivot once a step, and only when a row lies below the new pivot."""
    matrix = CycloMatrix.from_rows(rows)
    expected, rank = oracle_det(matrix), oracle_rank(matrix)
    assert expected.is_zero == (rank < matrix.rows)
    inverted = []
    real_inv = CycloNumber.inv

    def inv(self):
        inverted.append(self)
        return real_inv(self)

    monkeypatch.setattr(CycloNumber, "inv", inv)
    assert matrix.det() == expected
    # the pivot steps are rows 0 .. rank - 1; the last row has none below it
    assert len(inverted) == min(rank, matrix.rows - 1)


def test_matmul_and_identity():
    m = _m([[1, 2], [3, 4]])
    assert m.matmul(CycloMatrix.identity(2)) == m
