"""``CycloNumber`` coefficients are ints until a field division.

The oracle is the arithmetic the integers replaced: power-basis coordinates
built with ``Fraction`` throughout.  Ints and Fractions of equal value compare,
hash and print alike, so every value below must equal the oracle's, and the
reports built from them are unchanged.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from pointedcat import cyclotomic
from pointedcat.cli import _digest
from pointedcat.cyclotomic import (
    CycloMatrix,
    CycloNumber,
    cyclotomic_polynomial,
    embed,
    euler_phi,
    root_of_unity,
)

CONDUCTORS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16)


# -- the Fraction oracle ---------------------------------------------------------

def _fraction_reduce_mod_phi(coeffs, n):
    phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
    deg = len(phi) - 1
    work = [Fraction(c) for c in coeffs]
    for i in range(len(work) - 1, deg - 1, -1):
        lead = work[i]
        if lead:
            for j in range(len(phi)):
                work[i - deg + j] -= lead * phi[j]
        work.pop()
    return tuple(work + [Fraction(0)] * (deg - len(work)))


def _fraction_root_powers(n):
    current = [Fraction(1)] + [Fraction(0)] * (euler_phi(n) - 1)
    powers = []
    for _ in range(n):
        powers.append(tuple(current))
        current = list(_fraction_reduce_mod_phi([Fraction(0)] + current, n))
    return tuple(powers)


def _fraction_repr(number):
    return f"CycloNumber({number.conductor}, {[str(Fraction(c)) for c in number.coeffs]})"


def _seeded_numbers(rng, count):
    """Nonzero elements with small coefficients, integer or rational."""
    out = []
    while len(out) < count:
        n = rng.choice(CONDUCTORS)
        coeffs = tuple(
            rng.randint(-3, 3) if rng.random() < 0.7 else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(euler_phi(n))
        )
        x = CycloNumber(n, coeffs)
        if not x.is_zero:
            out.append(x)
    return out


# -- integer coefficients ---------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 61))
def test_root_powers_equal_the_fraction_table_and_are_ints(n):
    powers = cyclotomic._root_powers(n)
    assert powers == _fraction_root_powers(n)
    assert all(type(c) is int for power in powers for c in power)


def test_ring_operations_make_no_fraction():
    rng = random.Random(22)
    for _ in range(200):
        n1, n2 = rng.choice(CONDUCTORS), rng.choice(CONDUCTORS)
        if n1 * n2 > 240:
            continue
        a = embed(root_of_unity(n1, rng.randrange(n1)), n1) + CycloNumber.from_rational(rng.randint(-4, 4), n1)
        b = embed(root_of_unity(n2, rng.randrange(n2)), n2)
        for value in (a * b, a + b, a - b, a.conj(), (a * b) ** 3, a.promote(n1 * 2)):
            assert all(type(c) is int for c in value.coeffs), value


def test_products_equal_the_fraction_oracle():
    rng = random.Random(7)
    for x, y in zip(_seeded_numbers(rng, 60), _seeded_numbers(rng, 60)):
        if x.conductor != y.conductor:
            continue
        n = x.conductor
        product = cyclotomic._poly_mul([Fraction(c) for c in x.coeffs], [Fraction(c) for c in y.coeffs])
        assert (x * y).coeffs == _fraction_reduce_mod_phi(product, n)


def test_inverse_times_itself_is_one():
    rng = random.Random(11)
    for x in _seeded_numbers(rng, 80):
        one = CycloNumber.one(x.conductor)
        assert x * x.inv() == one
        assert x.inv() * x == one
        assert x / x == one


@pytest.mark.parametrize(
    "value,want",
    [(3, Fraction(3)), ("1/2", Fraction(1, 2)), (Fraction(5, 7), Fraction(5, 7)),
     (0.5, Fraction(1, 2)), (True, Fraction(1))],
)
@pytest.mark.parametrize("conductor", [1, 4, 12])
def test_from_rational_gives_the_fraction_coefficients(value, want, conductor):
    number = CycloNumber.from_rational(value, conductor)
    oracle = (want,) + (Fraction(0),) * (euler_phi(conductor) - 1)
    assert number.coeffs == oracle
    assert hash(number.coeffs) == hash(oracle)
    assert repr(number) == _fraction_repr(CycloNumber(conductor, oracle))
    assert (type(number.coeffs[0]) is int) == (type(value) is int)


def test_repr_is_unchanged():
    assert repr(embed(root_of_unity(4, 1), 4)) == "CycloNumber(4, ['0', '1'])"
    assert repr(CycloNumber.from_rational("-3/2", 3)) == "CycloNumber(3, ['-3/2', '0'])"
    rng = random.Random(3)
    for x in _seeded_numbers(rng, 40):
        for value in (x, x * x, x.inv(), x.conj()):
            assert repr(value) == _fraction_repr(value)


def test_mixed_int_and_fraction_coefficients_share_an_id_in_rank(monkeypatch):
    """Equal entries, one with int coefficients and one with Fractions, are one
    id in ``rank``'s table, and a Fraction zero is the int zero key."""
    ints = embed(root_of_unity(4, 1), 4)
    fractions = CycloNumber(4, (Fraction(0), Fraction(1)))
    zero_int, zero_fraction = CycloNumber.zero(4), CycloNumber(4, (Fraction(0), Fraction(0)))
    one = CycloNumber.one(4)
    matrix = CycloMatrix.from_rows(
        [[ints, one, zero_fraction], [fractions, one, zero_int], [one, ints, zero_fraction]]
    )
    seen = []
    prime_rank = cyclotomic._prime_rank
    monkeypatch.setattr(
        cyclotomic, "_prime_rank",
        lambda cells, width, zero, *rest: seen.append((cells, zero)) or prime_rank(cells, width, zero, *rest),
    )
    assert matrix.rank() == 2 == matrix._eliminate()[0]
    (cells, zero), = seen
    assert cells[0] == cells[3] == cells[7]
    assert cells[2] == cells[5] == cells[8] == zero
    assert len(set(cells)) == 3


@pytest.mark.parametrize(
    "payload",
    [{}, {"command": "center", "inputs": {"category": "double:Z3"}},
     {"command": "tmatrix", "inputs": {"category": "semion", "values": [1, 2.5, None, True]}},
     {"command": "x", "inputs": {"text": "ζ é ☃", "nested": {"b": [], "a": {}}}}],
)
def test_digest_equals_hashlib(payload):
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert _digest(payload) == hashlib.sha256(canonical.encode()).hexdigest()[:16]
