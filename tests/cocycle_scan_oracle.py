"""Oracles for the integer-exponent cocycle code: products of RootOfUnity objects.

These are the pentagon, hexagon and normalization scans that the integer
exponent kernels in pointedcat.cocycles replaced, kept as they were (the
only change: they take the cocycle as an argument and never read its kept
results).  They serve to cross-check the kernels' verdicts and witnesses.
``apply_coboundary`` and ``cocycle_to_json`` are the RootOfUnity-product
versions of the coboundary twist and the JSON writer, kept as they were.
``cocycle_from_roots`` builds a cocycle from RootOfUnity tables, and
``psi_at`` and ``omega_at`` read one entry of a cocycle as a RootOfUnity.
``standard_cocycle_dense`` is the dense build of the standard cocycle that
the closed form in pointedcat.cocycles replaced, kept as it was.
``searched_mu`` is ``find_mu`` after its bound and normalization checks as
it was before it decided anything: the equations and the search, always.
The search is ``_solve_exponents``, the depth-first search over exponent
vectors that ``find_mu`` ran before it solved by one Howell kernel; its
first answer is the lexicographically least solution, and its cost grows
as value_order^((|H| - 1)^2) in the worst case.
"""

import itertools

import math

from pointedcat.cocycles import (
    AbelianCocycle,
    TwoCochain,
    _basis,
    _exponents,
    _generator_exponents,
    _trace,
    cocycle_failure,
    cocycle_from_tables,
    two_cochain_from_table,
)
from pointedcat.cyclotomic import format_root, root_of_unity, roots_of_unity
from pointedcat.errors import ConventionError, NotACocycle, NotRealizable, NotSubgroup
from pointedcat.groups import format_group
from pointedcat.serde import format_element_key


def psi_at(c, a, b, cc):
    """psi(a, b, cc) as a RootOfUnity, looked up by element indices."""
    n, idx = c.group.order, c.group.element_index
    return roots_of_unity(c.conductor)[c.psi_exp[(idx(a) * n + idx(b)) * n + idx(cc)]]


def omega_at(c, a, b):
    """omega(a, b) as a RootOfUnity, looked up by element indices."""
    idx = c.group.element_index
    return roots_of_unity(c.conductor)[c.omega_exp[idx(a) * c.group.order + idx(b)]]


def cocycle_from_roots(group, psi, omega):
    """The cocycle with the RootOfUnity tables psi (triples) and omega (pairs)."""
    conductor, exps = _exponents([*psi, *omega])
    return AbelianCocycle(group, conductor, exps[:len(psi)], exps[len(psi):])


def normalization_witness(c):
    """First table entry violating normalization, or None."""
    zero = c.group.zero
    elems = c.group.elements()
    for a in elems:
        if not omega_at(c, a, zero).is_one:
            return ("omega", (a, zero))
        if not omega_at(c, zero, a).is_one:
            return ("omega", (zero, a))
        for b in elems:
            for triple in ((zero, a, b), (a, zero, b), (a, b, zero)):
                if not psi_at(c, *triple).is_one:
                    return ("psi", triple)
    return None


def check_pentagon(c):
    """psi(b,c,d) psi(a,b+c,d) psi(a,b,c) = psi(a+b,c,d) psi(a,b,c+d) on all quadruples."""
    g = c.group
    if all(v.is_one for v in c.psi):
        return True, None
    elems = g.elements()
    if normalization_witness(c) is None:
        elems = [x for x in elems if x != g.zero]
    for a, b, cc, d in itertools.product(elems, repeat=4):
        lhs = psi_at(c, b, cc, d) * psi_at(c, a, g.add(b, cc), d) * psi_at(c, a, b, cc)
        rhs = psi_at(c, g.add(a, b), cc, d) * psi_at(c, a, b, g.add(cc, d))
        if lhs != rhs:
            return False, (a, b, cc, d)
    return True, None


def check_hexagons(c):
    """Both hexagon identities relating omega to psi; witness is ("H1"|"H2", triple)."""
    g = c.group
    elems = g.elements()
    if normalization_witness(c) is None:
        elems = [x for x in elems if x != g.zero]
    for a, b, cc in itertools.product(elems, repeat=3):
        h1 = (
            omega_at(c, a, b)
            * omega_at(c, a, cc)
            * psi_at(c, a, b, cc).inv()
            * psi_at(c, b, a, cc)
            * psi_at(c, b, cc, a).inv()
        )
        if omega_at(c, a, g.add(b, cc)) != h1:
            return False, ("H1", (a, b, cc))
        h2 = (
            omega_at(c, a, cc)
            * omega_at(c, b, cc)
            * psi_at(c, a, b, cc)
            * psi_at(c, a, cc, b).inv()
            * psi_at(c, cc, a, b)
        )
        if omega_at(c, g.add(a, b), cc) != h2:
            return False, ("H2", (a, b, cc))
    return True, None


def apply_coboundary(c: AbelianCocycle, phi: TwoCochain) -> AbelianCocycle:
    """Twist by a normalized 2-cochain on the whole group.

    psi'(a,b,c) = psi(a,b,c) phi(b,c) phi(a,b+c) phi(a+b,c)^-1 phi(a,b)^-1
    omega'(a,b) = omega(a,b) phi(b,a) phi(a,b)^-1

    The direction of the omega twist is the one coherent with the hexagon
    identities in check_hexagons (the opposite twist breaks them already on
    Z/3).  The output must still be a cocycle and must keep its trace form.
    """
    g = c.group
    if len(phi.domain) != g.order or phi.parent != g:
        raise NotSubgroup("coboundary cochain must be defined on the whole group")
    elems = g.elements()
    psi = {}
    omega = {}
    for a in elems:
        for b in elems:
            omega[(a, b)] = omega_at(c, a, b) * phi.at(b, a) * phi.at(a, b).inv()
            for cc in elems:
                psi[(a, b, cc)] = (
                    psi_at(c, a, b, cc)
                    * phi.at(b, cc)
                    * phi.at(a, g.add(b, cc))
                    * phi.at(g.add(a, b), cc).inv()
                    * phi.at(a, b).inv()
                )
    out = cocycle_from_tables(g, psi, omega)
    failure = cocycle_failure(out)
    if failure is not None:
        raise NotACocycle(
            f"coboundary twist broke the {failure[0]} condition at {failure[1]}; "
            "this signals a convention bug"
        )
    if tuple(omega_at(out, x, x) for x in elems) != tuple(omega_at(c, x, x) for x in elems):
        raise ConventionError("coboundary changed the trace form")
    return out


def cocycle_to_json(cocycle: AbelianCocycle) -> dict:
    group = cocycle.group
    elems = group.elements()
    psi = {}
    omega = {}
    for a in elems:
        for b in elems:
            value = omega_at(cocycle, a, b)
            if not value.is_one:
                key = f"{format_element_key(a)},{format_element_key(b)}"
                omega[key] = format_root(value)
            for c in elems:
                value = psi_at(cocycle, a, b, c)
                if not value.is_one:
                    key = ",".join(format_element_key(x) for x in (a, b, c))
                    psi[key] = format_root(value)
    return {"group": format_group(group), "psi": psi, "omega": omega}


def standard_tables_dense(q, psi_sign=1, cross_sign=1):
    """(N, psi, omega): the standard cocycle of q as dense |G|^3 and |G|^2
    exponent lists, before the constructor brings them to lowest terms.

    With tau_i = q(e_i) = z_N^(t_i) on the cyclic factor Z/n_i and
    sigma(e_i, e_j) = z_N^(s_ij):
        omega(a, b) = z_N^(sum_i t_i a_i b_i + sum_(i<j) s_ij a_i b_j)
        psi(a, b, c) = z_N^(sum_i t_i n_i a_i floor((b_i + c_i) / n_i))
    ``psi_sign`` and ``cross_sign`` = -1 flip the sign of psi or of omega's
    cross term, for the tests that show either flip is caught.
    """
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

    modulus, t, cross_exp = _generator_exponents(taus, cross)
    elems = g.elements()
    omega = [
        sum(ti * ai * bi for ti, ai, bi in zip(t, a, b))
        + cross_sign * sum(sij * a[i] * b[j] for i, j, sij in cross_exp)
        for a in elems
        for b in elems
    ]
    weights = [[ti * n * ai for ti, n, ai in zip(t, g.factors, a)] for a in elems]
    carries = [
        [i for i, n in enumerate(g.factors) if b[i] + c[i] >= n]
        for b in elems
        for c in elems
    ]
    psi = [psi_sign * sum(w[i] for i in carry) for w in weights for carry in carries]
    return modulus, psi, omega


def standard_cocycle_dense(q):
    """The standard cocycle of q built from its dense tables, then scanned in
    full and traced back to q: the build that the closed form in
    pointedcat.cocycles replaced."""
    out = AbelianCocycle(q.group, *standard_tables_dense(q))
    failure = cocycle_failure(out)
    if failure is not None:
        raise ConventionError(
            f"standard cocycle violates the {failure[0]} condition at {failure[1]}"
        )
    if _trace(out) != q.values:
        raise ConventionError("standard cocycle does not trace back to its form")
    return out


def _solve_exponents(count: int, modulus: int, equations):
    """Yield exponent vectors in lexicographic order satisfying linear congruences.

    ``equations`` is a list of (terms, target) with terms = [(index, coeff)];
    a solution x has sum(coeff * x[index]) = target (mod modulus) for each.
    Constraints are applied as soon as their last variable is assigned, so the
    DFS prunes early and the first yield is the lexicographic minimum.
    """
    by_last = [[] for _ in range(count)]
    for terms, target in equations:
        merged: dict[int, int] = {}
        for idx, coeff in terms:
            merged[idx] = (merged.get(idx, 0) + coeff) % modulus
        merged = {i: c for i, c in merged.items() if c}
        target %= modulus
        if not merged:
            if target:
                return
            continue
        by_last[max(merged)].append((tuple(sorted(merged.items())), target))

    assign = [0] * count

    def dfs(pos: int):
        if pos == count:
            yield tuple(assign)
            return
        for value in range(modulus):
            assign[pos] = value
            if all(
                sum(coeff * assign[idx] for idx, coeff in terms) % modulus == target
                for terms, target in by_last[pos]
            ):
                yield from dfs(pos + 1)

    yield from dfs(0)


def searched_mu(c, sub, value_order):
    """The first answer of the search for a normalized mu on H with
    (delta mu) = psi|_H, values in the value_order-th roots, or None."""
    g = c.group
    n, add, conductor = g.order, c._add, c.conductor
    nonzero = [a for a in (g.element_index(x) for x in sub.elements) if a]
    free = [(a, b) for a in nonzero for b in nonzero]
    slot = {pair: i for i, pair in enumerate(free)}

    def term(a, b, coeff):
        return [(slot[(a, b)], coeff)] if a and b else []

    equations = []
    for (a, b, cc), k in zip(itertools.product(nonzero, repeat=3), c.psi_on(nonzero)):
        scaled = k * value_order
        if scaled % conductor:
            return None
        terms = (
            term(b, cc, +1)
            + term(a, add[b * n + cc], +1)
            + term(add[a * n + b], cc, -1)
            + term(a, b, -1)
        )
        equations.append((terms, scaled // conductor))

    elems = c._elems
    for solution in _solve_exponents(len(free), value_order, equations):
        table = {
            (elems[a], elems[b]): root_of_unity(value_order, k)
            for (a, b), k in zip(free, solution)
        }
        return two_cochain_from_table(g, sub.elements, table)
    return None
