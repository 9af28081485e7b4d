"""Abelian 3-cocycles (associator + braiding scalars) on a finite abelian group.

A pair of tables (psi, omega) on G encodes a braided monoidal structure on
G-graded lines: psi is the associator scalar on triples, omega the braiding
scalar on pairs.  The pentagon and two hexagon identities below pin the
scalar conventions.  Each cocycle is validated once, on the integer
exponents of its entries, and the result is kept on it; two theorem-backed
assertions guard the convention: the trace g -> omega(g, g) of any valid
pair must be a quadratic form, and building the standard pair back from a
quadratic form must return it as its trace.  If either ever fails the build
aborts; conventions are never silently patched.

All cochains are normalized (value 1 whenever an argument is the identity).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce, wraps

from .cyclotomic import ONE, RootOfUnity, root_of_unity
from .errors import (
    BoundsExceeded,
    ConventionError,
    GroupTooLarge,
    InvalidQuadraticForm,
    NotACocycle,
    NotRealizable,
    NotSubgroup,
    OrderTooLarge,
    ParseError,
)
from .groups import (
    AbelianGroup,
    Element,
    Subgroup,
    addition_table,
    howell_form,
    howell_kernel,
    howell_reduce,
    howell_size,
)


def _product(values) -> RootOfUnity:
    return reduce(lambda a, b: a * b, values, ONE)


# ----------------------------------------------------------------------
# Tables.
# ----------------------------------------------------------------------

def _kept(scan):
    """Run scan(cocycle) once per cocycle and keep its result on the cocycle."""
    @wraps(scan)
    def kept(c):
        results = c._results
        if scan.__name__ not in results:
            results[scan.__name__] = scan(c)
        return results[scan.__name__]

    return kept


@dataclass(frozen=True)
class AbelianCocycle:
    """Dense (psi, omega) tables indexed by element-index triples and pairs.

    Every entry is a power of z_N for one conductor N, the lcm of the entry
    orders, so the tables also have an integer view: ``_psi_exp`` and
    ``_omega_exp`` hold the exponents mod N, and the cocycle conditions are
    congruences on them.  Scan results are kept in ``_results`` (see
    ``_kept``) and the hash is computed once; equality still compares the
    tables.
    """

    group: AbelianGroup
    psi: tuple[RootOfUnity, ...]
    omega: tuple[RootOfUnity, ...]

    def __post_init__(self):
        n = self.group.order
        assert len(self.psi) == n**3 and len(self.omega) == n**2
        orders = {v.order for v in self.psi} | {v.order for v in self.omega}
        conductor = math.lcm(*orders)
        scale = {k: conductor // k for k in orders}
        psi_exp = tuple(v.exponent * scale[v.order] for v in self.psi)
        omega_exp = tuple(v.exponent * scale[v.order] for v in self.omega)
        object.__setattr__(self, "_conductor", conductor)
        object.__setattr__(self, "_psi_exp", psi_exp)
        object.__setattr__(self, "_omega_exp", omega_exp)
        object.__setattr__(self, "_add", addition_table(self.group))
        object.__setattr__(self, "_hash", hash((self.group, psi_exp, omega_exp)))
        object.__setattr__(self, "_results", {})

    def __hash__(self) -> int:
        return self._hash

    def psi_at(self, a: Element, b: Element, c: Element) -> RootOfUnity:
        n = self.group.order
        idx = self.group.element_index
        return self.psi[(idx(a) * n + idx(b)) * n + idx(c)]

    def omega_at(self, a: Element, b: Element) -> RootOfUnity:
        idx = self.group.element_index
        return self.omega[idx(a) * self.group.order + idx(b)]

    @property
    def normalized(self) -> bool:
        return self.normalization_witness() is None

    @_kept
    def normalization_witness(self):
        """First table entry violating normalization, or None."""
        n = self.group.order
        elems = self.group.elements()
        zero = self.group.zero
        psi, omega = self._psi_exp, self._omega_exp
        for a in range(n):
            if omega[a * n]:
                return ("omega", (elems[a], zero))
            if omega[a]:
                return ("omega", (zero, elems[a]))
            for b in range(n):
                if psi[a * n + b]:
                    return ("psi", (zero, elems[a], elems[b]))
                if psi[a * n * n + b]:
                    return ("psi", (elems[a], zero, elems[b]))
                if psi[(a * n + b) * n]:
                    return ("psi", (elems[a], elems[b], zero))
        return None


def cocycle_from_tables(group: AbelianGroup, psi_table: dict, omega_table: dict) -> AbelianCocycle:
    """Assemble from sparse dicts keyed by element tuples; missing entries are 1."""
    elems = group.elements()
    psi = [
        psi_table.get((a, b, c), ONE)
        for a in elems
        for b in elems
        for c in elems
    ]
    omega = [omega_table.get((a, b), ONE) for a in elems for b in elems]
    return AbelianCocycle(group, tuple(psi), tuple(omega))


@dataclass(frozen=True)
class TwoCochain:
    """Normalized map domain x domain -> roots of unity on a subgroup's elements."""

    parent: AbelianGroup
    domain: tuple[Element, ...]
    table: tuple[RootOfUnity, ...]

    def __post_init__(self):
        assert len(self.table) == len(self.domain) ** 2
        object.__setattr__(
            self, "_index", {g: i for i, g in enumerate(self.domain)}
        )
        zero = self.parent.zero
        if zero not in self._index:
            raise ParseError("two-cochain domain must contain the identity")
        for g in self.domain:
            if not (self.at(g, zero).is_one and self.at(zero, g).is_one):
                raise ParseError(f"two-cochain not normalized at {g}")

    def at(self, a: Element, b: Element) -> RootOfUnity:
        return self.table[self._index[a] * len(self.domain) + self._index[b]]


def two_cochain_from_table(
    parent: AbelianGroup, domain, table: dict
) -> TwoCochain:
    domain = tuple(sorted(domain))
    values = [table.get((a, b), ONE) for a in domain for b in domain]
    return TwoCochain(parent, domain, tuple(values))


# ----------------------------------------------------------------------
# Cocycle conditions.
# ----------------------------------------------------------------------

def _scan_range(c: AbelianCocycle) -> range:
    """Element indices to scan: for a normalized table every identity with a
    zero argument holds, so index 0 (the identity) is skipped then."""
    return range(1 if c.normalized else 0, c.group.order)


def _elements_at(c: AbelianCocycle, *indices: int) -> tuple[Element, ...]:
    elems = c.group.elements()
    return tuple(elems[i] for i in indices)


@_kept
def check_pentagon(c: AbelianCocycle):
    """psi(b,c,d) psi(a,b+c,d) psi(a,b,c) = psi(a+b,c,d) psi(a,b,c+d) on all quadruples.

    Returns (True, None) or (False, first violating quadruple).  For a
    normalized table, quadruples with a zero argument hold identically, so
    only all-nonzero ones are scanned; a trivial associator passes outright.
    """
    psi = c._psi_exp
    if not any(psi):
        return True, None
    n, add, conductor = c.group.order, c._add, c._conductor
    indices = _scan_range(c)
    for a in indices:
        for b in indices:
            ab = add[a * n + b]
            row_ab = (a * n + b) * n  # psi(a, b, .)
            for cc in indices:
                fixed = psi[row_ab + cc]  # psi(a, b, c)
                row_bc = (b * n + cc) * n  # psi(b, c, .)
                row_a_bc = (a * n + add[b * n + cc]) * n  # psi(a, b+c, .)
                row_ab_c = (ab * n + cc) * n  # psi(a+b, c, .)
                shift = cc * n
                for d in indices:
                    if (
                        psi[row_bc + d] + psi[row_a_bc + d] + fixed
                        - psi[row_ab_c + d] - psi[row_ab + add[shift + d]]
                    ) % conductor:
                        return False, _elements_at(c, a, b, cc, d)
    return True, None


@_kept
def check_hexagons(c: AbelianCocycle):
    """Both hexagon identities relating omega to psi; witness is ("H1"|"H2", triple).

    H1: omega(a,b+c) = omega(a,b) omega(a,c) psi(a,b,c)^-1 psi(b,a,c) psi(b,c,a)^-1
    H2: omega(a+b,c) = omega(a,c) omega(b,c) psi(a,b,c) psi(a,c,b)^-1 psi(c,a,b)

    For a normalized table both identities hold automatically whenever an
    argument is zero, so only all-nonzero triples are scanned then.
    """
    psi, omega = c._psi_exp, c._omega_exp
    n, add, conductor = c.group.order, c._add, c._conductor
    indices = _scan_range(c)
    for a in indices:
        for b in indices:
            ab = add[a * n + b]
            for cc in indices:
                abc = psi[(a * n + b) * n + cc]
                h1 = (
                    omega[a * n + b] + omega[a * n + cc] - abc
                    + psi[(b * n + a) * n + cc] - psi[(b * n + cc) * n + a]
                )
                if (omega[a * n + add[b * n + cc]] - h1) % conductor:
                    return False, ("H1", _elements_at(c, a, b, cc))
                h2 = (
                    omega[a * n + cc] + omega[b * n + cc] + abc
                    - psi[(a * n + cc) * n + b] + psi[(cc * n + a) * n + b]
                )
                if (omega[ab * n + cc] - h2) % conductor:
                    return False, ("H2", _elements_at(c, a, b, cc))
    return True, None


def is_abelian_cocycle(c: AbelianCocycle) -> bool:
    return check_pentagon(c)[0] and check_hexagons(c)[0]


@_kept
def cocycle_failure(c: AbelianCocycle):
    """(condition name, witness) for the first violated condition, else None.

    Computed once per cocycle: every later caller (trace_form, make_category,
    the file loader) reads the kept result.
    """
    bad_entry = c.normalization_witness()
    if bad_entry is not None:
        return ("normalization", bad_entry)
    ok, witness = check_pentagon(c)
    if not ok:
        return ("pentagon", witness)
    ok, witness = check_hexagons(c)
    if not ok:
        return (witness[0], witness[1])
    return None


def require_cocycle(c: AbelianCocycle) -> None:
    failure = cocycle_failure(c)
    if failure is not None:
        raise NotACocycle(f"{failure[0]} condition fails at {failure[1]}")


# ----------------------------------------------------------------------
# Quadratic forms and their polarization.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticForm:
    """q: G -> roots of unity with q(0)=1, q(-g)=q(g), bimultiplicative polarization.

    The polarization sigma(g,h) = q(g+h) q(g)^-1 q(h)^-1 is cached at
    construction; it equals the double braiding of any cocycle tracing to q.
    """

    group: AbelianGroup
    values: tuple[RootOfUnity, ...]

    def __post_init__(self):
        g = self.group
        elems = g.elements()
        if len(self.values) != g.order:
            raise InvalidQuadraticForm(
                f"expected {g.order} values, got {len(self.values)}"
            )
        if not self.values[0].is_one:
            raise InvalidQuadraticForm("q(0) must be 1")
        idx = g.element_index
        for x in elems:
            if self.values[idx(x)] != self.values[idx(g.neg(x))]:
                raise InvalidQuadraticForm(f"q(-g) != q(g) at g = {x}")
        n = g.order
        sigma = [ONE] * (n * n)
        for x in elems:
            ix = idx(x)
            qx_inv = self.values[ix].inv()
            for y in elems:
                sigma[ix * n + idx(y)] = (
                    self.values[idx(g.add(x, y))] * qx_inv * self.values[idx(y)].inv()
                )
        # bimultiplicativity in one slot (the other follows by symmetry of sigma);
        # stepping by basis vectors is equivalent to the full check by induction
        basis = [
            g.reduce(tuple(1 if j == i else 0 for j in range(g.rank)))
            for i in range(g.rank)
        ]
        for e in basis:
            ie = idx(e)
            for x in elems:
                ix, ixe = idx(x), idx(g.add(x, e))
                for y in elems:
                    iy = idx(y)
                    if sigma[ixe * n + iy] != sigma[ix * n + iy] * sigma[ie * n + iy]:
                        raise InvalidQuadraticForm(
                            f"polarization not bimultiplicative at ({x}+{e}, {y})"
                        )
        object.__setattr__(self, "_sigma", tuple(sigma))

    def q(self, g: Element) -> RootOfUnity:
        return self.values[self.group.element_index(g)]

    def pairing(self, g: Element, h: Element) -> RootOfUnity:
        idx = self.group.element_index
        return self._sigma[idx(g) * self.group.order + idx(h)]

    @property
    def conductor(self) -> int:
        return math.lcm(*(v.order for v in self.values))


@dataclass(frozen=True, eq=False)
class Pairing:
    """Symmetric bimultiplicative pairing table (the polarization)."""

    group: AbelianGroup
    table: tuple[RootOfUnity, ...]

    def eval(self, g: Element, h: Element) -> RootOfUnity:
        idx = self.group.element_index
        return self.table[idx(g) * self.group.order + idx(h)]


def polarization(q: QuadraticForm) -> Pairing:
    """sigma(g,h) = q(g+h) q(g)^-1 q(h)^-1; symmetry and bimultiplicativity checked."""
    pairing = Pairing(q.group, q._sigma)
    elems = q.group.elements()
    for g in elems:
        for h in elems:
            if pairing.eval(g, h) != pairing.eval(h, g):
                raise InvalidQuadraticForm(f"polarization not symmetric at ({g}, {h})")
    return pairing


def trace_form(c: AbelianCocycle) -> QuadraticForm:
    """q(g) = omega(g, g) of a valid cocycle.

    That this is a quadratic form is a theorem about the hexagon convention:
    a failure here means the convention itself is broken, so it aborts.
    """
    require_cocycle(c)
    values = tuple(c.omega_at(g, g) for g in c.group.elements())
    try:
        return QuadraticForm(c.group, values)
    except InvalidQuadraticForm as exc:
        raise ConventionError(
            f"trace of a valid cocycle is not a quadratic form: {exc}"
        ) from exc


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
            omega[(a, b)] = c.omega_at(a, b) * phi.at(b, a) * phi.at(a, b).inv()
            for cc in elems:
                psi[(a, b, cc)] = (
                    c.psi_at(a, b, cc)
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
    if tuple(out.omega_at(x, x) for x in elems) != tuple(c.omega_at(x, x) for x in elems):
        raise ConventionError("coboundary changed the trace form")
    return out


# ----------------------------------------------------------------------
# Standard cocycle of a quadratic form.
# ----------------------------------------------------------------------

def standard_cocycle(q: QuadraticForm) -> AbelianCocycle:
    """The canonical (psi, omega) pair whose trace is q.

    Per cyclic factor Z/n with tau = q(e_i):
        omega(a, b) *= tau^(a_i b_i),   psi(a, b, c) *= tau^(n a_i floor((b_i+c_i)/n))
    and cross terms omega(a, b) *= sigma(e_i, e_j)^(a_i b_j) for i < j.
    """
    g = q.group
    basis = [
        g.reduce(tuple(1 if j == i else 0 for j in range(g.rank)))
        for i in range(g.rank)
    ]
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
    omega = {}
    psi = {}
    for a in elems:
        for b in elems:
            parts = [tau ** (ai * bi) for tau, ai, bi in zip(taus, a, b)]
            parts += [
                cross[(i, j)] ** (a[i] * b[j])
                for i in range(g.rank)
                for j in range(i + 1, g.rank)
            ]
            omega[(a, b)] = _product(parts)
            for c in elems:
                parts = [
                    taus[i] ** (g.factors[i] * a[i] * ((b[i] + c[i]) // g.factors[i]))
                    for i in range(g.rank)
                ]
                psi[(a, b, c)] = _product(parts)
    out = cocycle_from_tables(g, psi, omega)
    failure = cocycle_failure(out)
    if failure is not None:
        raise ConventionError(
            f"standard cocycle violates the {failure[0]} condition at {failure[1]}"
        )
    if tuple(out.omega_at(x, x) for x in elems) != q.values:
        raise ConventionError("standard cocycle does not trace back to its form")
    return out


# ----------------------------------------------------------------------
# Exponent-vector search engine for find_mu.
# ----------------------------------------------------------------------

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


def _rou_exponent(r: RootOfUnity, modulus: int) -> int | None:
    """Exponent k with r = z_modulus^k, or None if the order does not divide."""
    if modulus % r.order != 0:
        return None
    return (r.exponent * (modulus // r.order)) % modulus


# ----------------------------------------------------------------------
# Trivializing 2-cochains on subgroups.
# ----------------------------------------------------------------------

def find_mu(c: AbelianCocycle, sub: Subgroup, value_order: int) -> TwoCochain | None:
    """Lexicographically first normalized mu on H with (delta mu) = psi|_H, or None.

    delta mu (a,b,c) = mu(b,c) mu(a,b+c) mu(a+b,c)^-1 mu(a,b)^-1, searched over
    values in the value_order-th roots of unity.
    """
    if sub.parent != c.group:
        raise NotSubgroup("subgroup belongs to a different group")
    if sub.order > 16 or value_order > 24:
        raise BoundsExceeded(
            f"mu search bounded at |H| <= 16, N <= 24; got {sub.order}, {value_order}"
        )
    if not c.normalized:
        raise NotACocycle("mu search requires a normalized cocycle")

    g = c.group
    zero = g.zero
    domain = sub.elements
    free = [(a, b) for a in domain for b in domain if a != zero and b != zero]
    slot = {pair: i for i, pair in enumerate(free)}

    def term(a: Element, b: Element, coeff: int):
        if a == zero or b == zero:
            return []
        return [(slot[(a, b)], coeff)]

    equations = []
    for a in domain:
        for b in domain:
            for cc in domain:
                target = _rou_exponent(c.psi_at(a, b, cc), value_order)
                if target is None:
                    return None
                terms = (
                    term(b, cc, +1)
                    + term(a, g.add(b, cc), +1)
                    + term(g.add(a, b), cc, -1)
                    + term(a, b, -1)
                )
                equations.append((terms, target))

    for solution in _solve_exponents(len(free), value_order, equations):
        table = {
            pair: root_of_unity(value_order, k) for pair, k in zip(free, solution)
        }
        return two_cochain_from_table(g, domain, table)
    return None


# ----------------------------------------------------------------------
# Classification on tiny groups by linear algebra over Z/N.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CocycleClass:
    """A coboundary orbit, keyed by its trace quadratic form."""

    representative: AbelianCocycle
    form: QuadraticForm
    orbit_size: int


def classify_h3ab(group: AbelianGroup, value_order: int) -> list[CocycleClass]:
    """All normalized (psi, omega) pairs with values in the N-th roots, partitioned
    into coboundary orbits; orbits must coincide with trace-form fibers.

    A pair is an exponent vector mod N: psi on nonzero triples, then omega on
    nonzero pairs.  The pentagon and hexagons cut out its cocycle module Z,
    the coboundaries of elementary 2-cochains span B <= Z, and the classes are
    Z/B, enumerated by closing Z's Howell rows under addition modulo B.
    Reducing modulo B's Howell form yields the lexicographically least orbit
    member, which is the representative; classes are sorted by trace form.
    """
    if value_order < 1:
        raise ParseError(f"value order must be at least 1, got {value_order}")
    if group.order > 4:
        raise GroupTooLarge(f"classification bounded at |G| <= 4, got {group.order}")
    if value_order > 8:
        raise OrderTooLarge(f"classification bounded at N <= 8, got {value_order}")

    g = group
    n = value_order
    zero = g.zero
    add = g.add
    nonzero = [x for x in g.elements() if x != zero]
    triples = list(itertools.product(nonzero, repeat=3))
    pairs = list(itertools.product(nonzero, repeat=2))
    column = {key: i for i, key in enumerate(triples + pairs)}
    width = len(column)

    def vector(*terms) -> tuple[int, ...]:
        """Exponent vector of sum(coeff * x[key]); normalization drops keys with a zero."""
        vec = [0] * width
        for coeff, key in terms:
            if zero not in key:
                vec[column[key]] += coeff
        return tuple(x % n for x in vec)

    # identities with a zero argument hold for every normalized pair
    equations = set()
    for a, b, c, d in itertools.product(nonzero, repeat=4):
        equations.add(vector(
            (1, (b, c, d)), (1, (a, add(b, c), d)), (1, (a, b, c)),
            (-1, (add(a, b), c, d)), (-1, (a, b, add(c, d))),
        ))
    for a, b, c in itertools.product(nonzero, repeat=3):
        equations.add(vector(  # H1
            (1, (a, add(b, c))), (-1, (a, b)), (-1, (a, c)),
            (1, (a, b, c)), (-1, (b, a, c)), (1, (b, c, a)),
        ))
        equations.add(vector(  # H2
            (1, (add(a, b), c)), (-1, (a, c)), (-1, (b, c)),
            (-1, (a, b, c)), (1, (a, c, b)), (-1, (c, a, b)),
        ))
    equations.discard((0,) * width)
    equations = sorted(equations)
    cocycles = howell_kernel(equations, width, n)

    def coboundary(pair) -> tuple[int, ...]:
        """delta of the elementary cochain phi = [(x, y) == pair]."""
        def phi(x, y) -> int:
            return int((x, y) == pair)

        return vector(
            *((phi(b, c) + phi(a, add(b, c)) - phi(add(a, b), c) - phi(a, b), (a, b, c))
              for a, b, c in triples),
            *((phi(b, a) - phi(a, b), (a, b)) for a, b in pairs),
        )

    generators = [coboundary(pair) for pair in pairs]
    for gen in generators:
        if any(sum(e * x for e, x in zip(eq, gen)) % n for eq in equations):
            raise ConventionError("a coboundary violates the pentagon or hexagons")
        if any(gen[column[(x, x)]] for x in nonzero):
            raise ConventionError("a coboundary moves the trace form")
    coboundaries = howell_form(generators, n)

    def reduce(vec) -> tuple[int, ...]:
        return tuple(howell_reduce(vec, coboundaries, n))

    reps = {(0,) * width}
    for z in cocycles:
        for rep in list(reps):
            nxt = reduce([x + y for x, y in zip(rep, z)])
            while nxt not in reps:
                reps.add(nxt)
                nxt = reduce([x + y for x, y in zip(nxt, z)])

    orbit_size = howell_size(coboundaries, n)
    if len(reps) * orbit_size != howell_size(cocycles, n):
        raise ConventionError(
            f"{len(reps)} classes of size {orbit_size} do not tile "
            f"{howell_size(cocycles, n)} cocycles"
        )

    classes = []
    for vec in reps:
        rep = cocycle_from_tables(
            g,
            {t: root_of_unity(n, vec[column[t]]) for t in triples},
            {p: root_of_unity(n, vec[column[p]]) for p in pairs},
        )
        classes.append(CocycleClass(rep, trace_form(rep), orbit_size))

    forms = [tuple((v.order, v.exponent) for v in cls.form.values) for cls in classes]
    if len(set(forms)) != len(forms):
        raise ConventionError("two coboundary orbits share one trace form")
    order = sorted(range(len(classes)), key=lambda i: forms[i])
    return [classes[i] for i in order]
