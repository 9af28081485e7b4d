"""Oracle for the generator-form builders: products of RootOfUnity objects.

These are the quadratic-form validation scan, the q_gen value loop and the
standard-cocycle table fill that the integer-exponent code in
pointedcat.cocycles replaced, kept as they were (the only change: they are
functions of their inputs instead of methods and constructors).  They serve
to cross-check the new code's verdicts, messages and tables.
"""

import math
import random
from functools import reduce

from pointedcat.cocycles import QuadraticForm, form_from_generators
from pointedcat.cyclotomic import ONE, roots_of_unity
from pointedcat.errors import InvalidQuadraticForm, NotRealizable


def _product(values):
    return reduce(lambda a, b: a * b, values, ONE)


def _basis(g):
    return [
        g.reduce(tuple(1 if j == i else 0 for j in range(g.rank)))
        for i in range(g.rank)
    ]


def polarization_table(g, values):
    """The validated polarization sigma as a flat |G|^2 tuple, or raise
    InvalidQuadraticForm at the first failing check."""
    elems = g.elements()
    if len(values) != g.order:
        raise InvalidQuadraticForm(f"expected {g.order} values, got {len(values)}")
    if not values[0].is_one:
        raise InvalidQuadraticForm("q(0) must be 1")
    idx = g.element_index
    for x in elems:
        if values[idx(x)] != values[idx(g.neg(x))]:
            raise InvalidQuadraticForm(f"q(-g) != q(g) at g = {x}")
    n = g.order
    sigma = [ONE] * (n * n)
    for x in elems:
        ix = idx(x)
        qx_inv = values[ix].inv()
        for y in elems:
            sigma[ix * n + idx(y)] = values[idx(g.add(x, y))] * qx_inv * values[idx(y)].inv()
    for e in _basis(g):
        ie = idx(e)
        for x in elems:
            ix, ixe = idx(x), idx(g.add(x, e))
            for y in elems:
                iy = idx(y)
                if sigma[ixe * n + iy] != sigma[ix * n + iy] * sigma[ie * n + iy]:
                    raise InvalidQuadraticForm(
                        f"polarization not bimultiplicative at ({x}+{e}, {y})"
                    )
    return tuple(sigma)


def q_gen_values(g, gens, pairings):
    """q(a) = prod tau_i^(a_i^2) prod sigma_ij^(a_i a_j), one product at a time."""
    values = []
    for a in g.elements():
        value = ONE
        for tau, ai in zip(gens, a):
            value = value * tau ** (ai * ai)
        for (i, j), sigma in pairings.items():
            value = value * sigma ** (a[i] * a[j])
        values.append(value)
    return tuple(values)


def standard_tables(q: QuadraticForm):
    """(psi, omega) of the standard cocycle as flat tuples in element order."""
    g = q.group
    basis = _basis(g)
    taus = [q.q(e) for e in basis]
    for n, tau in zip(g.factors, taus):
        allowed = n if n % 2 == 1 else 2 * n
        if allowed % tau.order != 0:
            raise NotRealizable(
                f"q(e) of order {tau.order} on a cyclic factor of order {n}"
            )
    cross = {}
    for i in range(g.rank):
        for j in range(i + 1, g.rank):
            s = q.pairing(basis[i], basis[j])
            if math.gcd(g.factors[i], g.factors[j]) % s.order != 0:
                raise NotRealizable(
                    f"pairing of order {s.order} across factors "
                    f"{g.factors[i]} and {g.factors[j]}"
                )
            cross[(i, j)] = s

    elems = g.elements()
    omega = []
    psi = []
    for a in elems:
        for b in elems:
            parts = [tau ** (ai * bi) for tau, ai, bi in zip(taus, a, b)]
            parts += [
                cross[(i, j)] ** (a[i] * b[j])
                for i in range(g.rank)
                for j in range(i + 1, g.rank)
            ]
            omega.append(_product(parts))
            for c in elems:
                parts = [
                    taus[i] ** (g.factors[i] * a[i] * ((b[i] + c[i]) // g.factors[i]))
                    for i in range(g.rank)
                ]
                psi.append(_product(parts))
    return tuple(psi), tuple(omega)


def sampled_forms(group, count: int, rng: random.Random):
    """Seeded forms from random generator data, as the enumeration builds them."""
    pairs = [(i, j) for i in range(group.rank) for j in range(i + 1, group.rank)]
    for _ in range(count):
        taus = [rng.choice(roots_of_unity(n if n % 2 else 2 * n)) for n in group.factors]
        pairings = {
            (i, j): rng.choice(roots_of_unity(math.gcd(group.factors[i], group.factors[j])))
            for i, j in pairs
        }
        yield form_from_generators(group, taus, pairings)
