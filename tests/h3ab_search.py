"""Search oracle for classify_h3ab: DFS over cocycles, BFS over coboundaries.

This is the exhaustive engine that classify_h3ab replaced with linear algebra
over Z/N.  It is exponential in |G| and N and serves only to cross-check the
fast path on small cases.
"""

import itertools

from pointedcat.cocycles import (
    CocycleClass,
    cocycle_from_tables,
    trace_form,
)
from pointedcat.cyclotomic import root_of_unity
from pointedcat.errors import ConventionError

from cocycle_scan_oracle import _solve_exponents


def classify_h3ab_by_search(group, value_order):
    """The classes of classify_h3ab, found by exhaustive search.

    A DFS enumerates every pentagon solution psi and, for each, every hexagon
    solution omega; a BFS closes the coboundaries of elementary 2-cochains;
    each cocycle's orbit is an explicit set.  Representatives are the least
    orbit members and classes are sorted by trace form.
    """
    g = group
    zero = g.zero
    elems = g.elements()
    nonzero = [x for x in elems if x != zero]
    n = value_order

    free_triples = [t for t in itertools.product(nonzero, repeat=3)]
    tslot = {t: i for i, t in enumerate(free_triples)}
    free_pairs = [p for p in itertools.product(nonzero, repeat=2)]
    pslot = {p: i for i, p in enumerate(free_pairs)}

    def psi_term(a, b, c, coeff):
        if zero in (a, b, c):
            return []
        return [(tslot[(a, b, c)], coeff)]

    def omega_term(a, b, coeff):
        if a == zero or b == zero:
            return []
        return [(pslot[(a, b)], coeff)]

    pentagon = []
    for a, b, c, d in itertools.product(elems, repeat=4):
        terms = (
            psi_term(b, c, d, +1)
            + psi_term(a, g.add(b, c), d, +1)
            + psi_term(a, b, c, +1)
            + psi_term(g.add(a, b), c, d, -1)
            + psi_term(a, b, g.add(c, d), -1)
        )
        pentagon.append((terms, 0))

    def psi_value(vec, a, b, c) -> int:
        if zero in (a, b, c):
            return 0
        return vec[tslot[(a, b, c)]]

    solutions = []
    for psi_vec in _solve_exponents(len(free_triples), n, pentagon):
        hexagons = []
        for a, b, c in itertools.product(elems, repeat=3):
            h1_terms = (
                omega_term(a, g.add(b, c), +1)
                + omega_term(a, b, -1)
                + omega_term(a, c, -1)
            )
            h1_target = -psi_value(psi_vec, a, b, c) + psi_value(psi_vec, b, a, c) - psi_value(psi_vec, b, c, a)
            hexagons.append((h1_terms, h1_target))
            h2_terms = (
                omega_term(g.add(a, b), c, +1)
                + omega_term(a, c, -1)
                + omega_term(b, c, -1)
            )
            h2_target = psi_value(psi_vec, a, b, c) - psi_value(psi_vec, a, c, b) + psi_value(psi_vec, c, a, b)
            hexagons.append((h2_terms, h2_target))
        for omega_vec in _solve_exponents(len(free_pairs), n, hexagons):
            solutions.append((psi_vec, omega_vec))

    # coboundary action: generated by elementary cochains, closed under addition
    generators = []
    for pair in free_pairs:
        phi = {pair: 1}

        def phi_at(x, y):
            return phi.get((x, y), 0)

        dpsi = []
        for a, b, c in free_triples:
            dpsi.append(
                (
                    phi_at(b, c)
                    + phi_at(a, g.add(b, c))
                    - phi_at(g.add(a, b), c)
                    - phi_at(a, b)
                )
                % n
            )
        domega = [(phi_at(b, a) - phi_at(a, b)) % n for a, b in free_pairs]
        generators.append((tuple(dpsi), tuple(domega)))

    identity = (tuple([0] * len(free_triples)), tuple([0] * len(free_pairs)))
    coboundaries = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for base in frontier:
            for gen in generators:
                combined = (
                    tuple((x + y) % n for x, y in zip(base[0], gen[0])),
                    tuple((x + y) % n for x, y in zip(base[1], gen[1])),
                )
                if combined not in coboundaries:
                    coboundaries.add(combined)
                    nxt.append(combined)
        frontier = nxt

    def trace_key(vec):
        return tuple(
            vec[1][pslot[(x, x)]] if x != zero else 0 for x in elems
        )

    solution_set = set(solutions)
    remaining = sorted(solution_set)
    seen = set()
    classes = []
    for sol in remaining:
        if sol in seen:
            continue
        orbit = {
            (
                tuple((x + y) % n for x, y in zip(sol[0], b[0])),
                tuple((x + y) % n for x, y in zip(sol[1], b[1])),
            )
            for b in coboundaries
        }
        if not orbit <= solution_set:
            raise ConventionError("coboundary orbit escaped the enumerated cocycle set")
        keys = {trace_key(member) for member in orbit}
        if len(keys) != 1:
            raise ConventionError("coboundary orbit mixes distinct trace forms")
        seen |= orbit
        psi_table = {
            t: root_of_unity(n, k) for t, k in zip(free_triples, sol[0])
        }
        omega_table = {
            p: root_of_unity(n, k) for p, k in zip(free_pairs, sol[1])
        }
        rep = cocycle_from_tables(g, psi_table, omega_table)
        classes.append(CocycleClass(rep, trace_form(rep), len(orbit)))

    forms = [tuple((v.order, v.exponent) for v in cls.form.values) for cls in classes]
    if len(set(forms)) != len(forms):
        raise ConventionError("two coboundary orbits share one trace form")
    order = sorted(range(len(classes)), key=lambda i: forms[i])
    return [classes[i] for i in order]
