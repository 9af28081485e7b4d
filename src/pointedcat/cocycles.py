"""Abelian 3-cocycles (associator + braiding scalars) on a finite abelian group.

A pair of tables (psi, omega) on G encodes a braided monoidal structure on
G-graded lines: psi is the associator scalar on triples, omega the braiding
scalar on pairs, stored as integer exponents of z_N for one conductor N.
The pentagon and two hexagon identities below pin the scalar conventions.
Each cocycle is validated once and the result is kept on it: tables given
outright are scanned, and the standard pair of a quadratic form is valid by
the proof in ``standard_cocycle``.  A quadratic form is decided by its Gram
data, q(e_i) and sigma(e_i, e_j), and Wall's two order facts, whether it is
given by that data or by a value table, which must then equal the generator
form of its own data (the proof is in ``form_from_generators``).  Two
theorem-backed assertions guard the convention: the trace g -> omega(g, g)
of any valid pair must be a quadratic form, and building the standard pair
back from a quadratic form must return it as its trace.  If either ever
fails the build aborts; conventions are never silently patched.

All cochains are normalized (value 1 whenever an argument is the identity).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache, wraps

from ._value import Value, setfield
from .cyclotomic import ONE, RootOfUnity, root_of_unity, roots_of_unity
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
    dense_rows,
    element_tables,
    howell_size,
    sparse_howell_form,
    sparse_howell_kernel,
    _pivots,
    _reduce,
)


# ----------------------------------------------------------------------
# Tables.
# ----------------------------------------------------------------------

def _kept(scan):
    """Run scan(obj) once per object and keep its result in obj._results."""
    @wraps(scan)
    def kept(obj):
        results = obj._results
        if scan.__name__ not in results:
            results[scan.__name__] = scan(obj)
        return results[scan.__name__]

    return kept


def _exponents(roots) -> tuple[int, list[int]]:
    """(N, [k, ...]) with each root z_N^k, N the lcm of the orders."""
    conductor = math.lcm(*(r.order for r in roots))
    return conductor, [r.exponent * (conductor // r.order) for r in roots]


class AbelianCocycle(Value):
    """(psi, omega) as exponents mod ``conductor`` N, indexed by element indices.

    psi(a, b, c) = z_N^psi_exp[(a*n + b)*n + c] and omega(a, b) =
    z_N^omega_exp[a*n + b] for element indices a, b, c of a group of order n.
    The constructor brings (N, exponents) to lowest terms: it divides them by
    their gcd with N and takes each exponent mod the reduced N.  So N is the
    lcm of the entry orders, and equal tables have equal fields.
    ``standard_cocycle`` builds its cocycle from generator data instead, and
    ``psi_exp``/``omega_exp`` are then built on first read; ``psi_on``
    reads psi on a subset without building the table.  The hash is taken
    once from (group, N, omega diagonal), which equal cocycles share, so
    hashing builds no table; equality compares the tables.  ``psi`` and
    ``omega`` are read-only RootOfUnity views.  Scan results are kept in
    ``_results`` (see ``_kept``).
    """

    _fields = ("group", "conductor", "psi_exp", "omega_exp")

    def __init__(self, group: AbelianGroup, conductor: int, psi_exp, omega_exp):
        n = group.order
        assert len(psi_exp) == n**3 and len(omega_exp) == n**2
        common = math.gcd(conductor, *psi_exp, *omega_exp)
        conductor //= common
        psi_exp = tuple(k // common % conductor for k in psi_exp)
        omega_exp = tuple(k // common % conductor for k in omega_exp)
        setfield(self, "psi_exp", psi_exp)
        setfield(self, "omega_exp", omega_exp)
        self._keep(group, conductor, omega_exp[::n + 1], None)

    @classmethod
    def _from_generators(cls, group: AbelianGroup, conductor: int, t, cross, diagonal):
        """The standard cocycle of generator data (N, [t_i], [(i, j, s_ij)]) in
        lowest terms (N is the lcm of the generator values' orders, and omega
        holds each t_i and s_ij), with its omega diagonal already summed."""
        out = object.__new__(cls)
        out._keep(group, conductor, diagonal, (t, cross))
        return out

    def _keep(self, group, conductor, diagonal, generators):
        setfield(self, "group", group)
        setfield(self, "conductor", conductor)
        setfield(self, "_diagonal", diagonal)
        setfield(self, "_generators", generators)
        setfield(self, "_elems", group.elements())
        setfield(self, "_add", addition_table(group))
        setfield(self, "_hash", hash((group, conductor, diagonal)))
        setfield(self, "_results", {})

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def omega_exp(self) -> tuple[int, ...]:
        """Standard cocycles only (the constructor stores the table):
        omega(a, b) = sum_i t_i a_i b_i + sum_(i<j) s_ij a_i b_j."""
        pairs = itertools.product(self._elems, repeat=2)
        return tuple(k % self.conductor for k in _omega_sums(*self._generators, pairs))

    @cached_property
    def psi_exp(self) -> tuple[int, ...]:
        """Standard cocycles only (the constructor stores the table)."""
        return tuple(self._summed_psi(self._elems))

    def psi_on(self, indices: list[int]) -> list[int]:
        """The psi exponents at every triple of ``indices`` (element indices),
        in lexicographic order.  A standard cocycle sums them from its
        generator data while ``psi_exp`` is unbuilt: O(len(indices)^3 rank)."""
        if self._generators is None or "psi_exp" in self.__dict__:
            n, psi = self.group.order, self.psi_exp
            return [psi[(a * n + b) * n + c] for a in indices for b in indices for c in indices]
        return self._summed_psi([self._elems[i] for i in indices])

    def _summed_psi(self, elems) -> list[int]:
        """psi(a, b, c) = sum_i t_i n_i a_i carry_i(b, c) mod N at every triple
        of elems, carry_i(b, c) = 1 when b_i + c_i >= n_i; the factors with
        t_i n_i = 0 mod N add nothing (all of them on a Drinfeld double)."""
        t, factors, conductor = self._generators[0], self.group.factors, self.conductor
        active = [i for i, (ti, n) in enumerate(zip(t, factors)) if ti * n % conductor]
        if not active:
            return [0] * len(elems) ** 3
        weights = [[t[i] * factors[i] * a[i] for i in active] for a in elems]
        carries = [
            [k for k, i in enumerate(active) if b[i] + c[i] >= factors[i]]
            for b in elems
            for c in elems
        ]
        return [sum(w[k] for k in carry) % conductor for w in weights for carry in carries]

    @property
    def psi(self) -> tuple[RootOfUnity, ...]:
        roots = roots_of_unity(self.conductor)
        return tuple(roots[k] for k in self.psi_exp)

    @property
    def omega(self) -> tuple[RootOfUnity, ...]:
        roots = roots_of_unity(self.conductor)
        return tuple(roots[k] for k in self.omega_exp)

    @property
    def normalized(self) -> bool:
        return self.normalization_witness() is None

    @_kept
    def normalization_witness(self):
        """First table entry violating normalization, or None."""
        n = self.group.order
        elems = self.group.elements()
        zero = self.group.zero
        psi, omega = self.psi_exp, self.omega_exp
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
    conductor, exps = _exponents(psi + omega)
    return AbelianCocycle(group, conductor, exps[:len(psi)], exps[len(psi):])


class TwoCochain(Value):
    """Normalized map domain x domain -> roots of unity on a subgroup's elements."""

    _fields = ("parent", "domain", "table")
    __slots__ = _fields + ("_index",)

    def __init__(self, parent: AbelianGroup, domain: tuple[Element, ...],
                 table: tuple[RootOfUnity, ...]):
        setfield(self, "parent", parent)
        setfield(self, "domain", domain)
        setfield(self, "table", table)
        assert len(table) == len(domain) ** 2
        setfield(self, "_index", {g: i for i, g in enumerate(domain)})
        zero = parent.zero
        if zero not in self._index:
            raise ParseError("two-cochain domain must contain the identity")
        for g in domain:
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
    psi = c.psi_exp
    if not any(psi):
        return True, None
    n, add, conductor = c.group.order, c._add, c.conductor
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
    psi, omega = c.psi_exp, c.omega_exp
    n, add, conductor = c.group.order, c._add, c.conductor
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

def _generator_exponents(taus, pairings):
    """Generator data over one conductor N: (N, [t_i], [(i, j, s_ij)]) with
    tau_i = z_N^(t_i) and sigma_ij = z_N^(s_ij)."""
    conductor, exps = _exponents([*taus, *pairings.values()])
    cross = [(i, j, sij) for (i, j), sij in zip(pairings, exps[len(taus):])]
    return conductor, exps[:len(taus)], cross


def _omega_sums(t, cross, pairs) -> list[int]:
    """sum_i t_i a_i b_i + sum_(i<j) s_ij a_i b_j for each (a, b) in pairs: the
    exponent of the standard omega(a, b).  Its diagonal, q, is summed for
    every element at once by ``_generator_q``."""
    return [
        sum(ti * ai * bi for ti, ai, bi in zip(t, a, b))
        + sum(sij * a[i] * b[j] for i, j, sij in cross)
        for a, b in pairs
    ]


def _generator_q(factors, t, cross) -> list[int]:
    """Q(a) = sum_i t_i a_i^2 + sum_(i<j) s_ij a_i a_j for every element a, in
    element order, built factor by factor on the mixed radix like
    ``groups.addition_table``: the digit d of factor k adds t_k d^2 + c_k d
    to Q of its prefix, where c_k = sum_(i<k) s_ik a_i is carried per prefix."""
    pairing = {(i, j): sij for i, j, sij in cross}
    q, carry = [0], [[0] for _ in factors]  # carry[j][p]: c_j of prefix p so far
    for k, m in enumerate(factors):
        digits = range(m)
        square = [t[k] * d * d for d in digits]
        q = [x + square[d] + c * d for x, c in zip(q, carry[k]) for d in digits]
        for j in range(k + 1, len(factors)):
            s = pairing.get((k, j), 0)
            carry[j] = [c + s * d for c in carry[j] for d in digits]
    return q


def _gram(factors, conductor: int, q) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The Gram data (t, cross) of exponents q over N: t_i = q(e_i) and, for
    i < j, (i, j, s_ij) with s_ij = q(e_i + e_j) - t_i - t_j mod N.  e_i has
    the index prod_(j>i) n_j, or 0 on a factor Z/1, where e_i = 0."""
    basis, stride = [], 1
    for n in reversed(factors):
        basis.append(stride if n > 1 else 0)
        stride *= n
    basis.reverse()
    t = [q[b] for b in basis]
    return t, [
        (i, j, (q[bi + bj] - t[i] - t[j]) % conductor)
        for i, bi in enumerate(basis) for j, bj in enumerate(basis[i + 1:], i + 1)
    ]


def _order_fact_failure(factors, conductor: int, t, cross) -> str | None:
    """The first of Wall's two order facts that the Gram data (t, cross) over N
    break, or None: ord z_N^t_i | gcd(2 n_i, n_i^2) and ord z_N^s_ij |
    gcd(n_i, n_j).  A factor Z/1 is skipped: its coordinate is always 0."""
    for i, (n, ti) in enumerate(zip(factors, t)):
        if n > 1 and ti * math.gcd(2 * n, n * n) % conductor:
            order = conductor // math.gcd(conductor, ti)
            return f"q(e_{i}) of order {order} on a cyclic factor of order {n}"
    for i, j, s in cross:
        ni, nj = factors[i], factors[j]
        if min(ni, nj) > 1 and s * math.gcd(ni, nj) % conductor:
            return (f"pairing of order {conductor // math.gcd(conductor, s)} between "
                    f"e_{i} and e_{j}, across factors {ni} and {nj}")
    return None


def _sigma_rows(add, conductor: int, q) -> list[list[int]]:
    """Row i of the polarization exponents: sigma(x_i, y) = q(x_i + y) - q(x_i)
    - q(y) mod N for every y, from the exponents q and the addition table."""
    n = len(q)
    return [
        [(q[xy] - qx - qy) % conductor for xy, qy in zip(add[i * n:(i + 1) * n], q)]
        for i, qx in enumerate(q)
    ]


class QuadraticForm(Value):
    """q: G -> roots of unity with q(0)=1, q(-g)=q(g), bimultiplicative polarization.

    Values are read as exponents mod their conductor N, the lcm of the value
    orders.  ``__post_init__``, called through the class where the
    benchmark's tracer wraps it, accepts a value table exactly when it is
    the generator form of its own Gram data (``_gram``) and the data meet
    Wall's order facts (see ``form_from_generators``), in O(r^2 + |G|).
    Both constructors keep the Gram data and sigma(g,h) = q(g+h) q(g)^-1
    q(h)^-1 as exponents z_N^sigma_exp[i*n + j], element indices i, j, n = |G|:
    the double braiding of any cocycle tracing to q.  The hash is computed once.
    """

    _fields = ("group", "values")
    __slots__ = _fields + ("conductor", "sigma_exp", "_gram", "_hash")

    def __init__(self, group: AbelianGroup, values: tuple[RootOfUnity, ...]):
        setfield(self, "group", group)
        setfield(self, "values", values)
        self.__post_init__()

    def __post_init__(self):
        g = self.group
        n = g.order
        if len(self.values) != n:
            raise InvalidQuadraticForm(f"expected {n} values, got {len(self.values)}")
        if not self.values[0].is_one:
            raise InvalidQuadraticForm("q(0) must be 1")
        conductor, q = _exponents(self.values)
        elems, _, negation = element_tables(g.factors)
        for i, j in enumerate(negation):
            if q[i] != q[j]:
                raise InvalidQuadraticForm(f"q(-g) != q(g) at g = {elems[i]}")
        gram = _gram(g.factors, conductor, q)
        failure = _order_fact_failure(g.factors, conductor, *gram)
        if failure is None:
            summed = [k % conductor for k in _generator_q(g.factors, *gram)]
            if summed != q:
                at = next(elems[i] for i, (a, b) in enumerate(zip(summed, q)) if a != b)
                failure = f"q(g) is not fixed by q(e_i) and q(e_i + e_j) at g = {at}"
        if failure is not None:
            raise InvalidQuadraticForm(f"polarization not bimultiplicative: {failure}")
        self._keep(conductor, q, gram)

    @classmethod
    def _from_generators(cls, group: AbelianGroup, values, conductor: int, q):
        """The form of generator data that meet both order facts: its values,
        and their exponents q over N in lowest terms.  Valid by the proof in
        ``form_from_generators``, so it is kept with no check."""
        out = object.__new__(cls)
        setfield(out, "group", group)
        setfield(out, "values", values)
        out._keep(conductor, q, _gram(group.factors, conductor, q))
        return out

    def _keep(self, conductor: int, q, gram):
        sigma = _sigma_rows(addition_table(self.group), conductor, q)
        setfield(self, "conductor", conductor)
        setfield(self, "sigma_exp", tuple(itertools.chain.from_iterable(sigma)))
        setfield(self, "_gram", gram)
        setfield(self, "_hash", hash((self.group, self.values)))

    def __hash__(self) -> int:
        return self._hash

    def q(self, g: Element) -> RootOfUnity:
        return self.values[self.group.element_index(g)]

    def pairing(self, g: Element, h: Element) -> RootOfUnity:
        idx = self.group.element_index
        return roots_of_unity(self.conductor)[self.sigma_exp[idx(g) * self.group.order + idx(h)]]


def form_from_generators(group: AbelianGroup, taus, pairings) -> QuadraticForm:
    """q(a) = prod_i tau_i^(a_i^2) prod_(i<j) sigma_ij^(a_i a_j), Wall's generator form.

    ``taus[i]`` is q(e_i), one per cyclic factor, and ``pairings`` maps (i, j)
    with i < j to sigma(e_i, e_j).  The exponents are summed factor by
    factor over the mixed radix (``_generator_q``), reduced mod one
    conductor N, and the values looked up in the roots of z_N.

    The result is a quadratic form exactly when ord tau_i | gcd(2 n_i, n_i^2)
    and ord sigma_ij | gcd(n_i, n_j) on the factors of order above 1 (Wall
    1963; Kawauchi-Kojima 1980).  If: over Z^r the exponent
    Q(a) = sum_i t_i a_i^2 + sum_(i<j) s_ij a_i a_j is even, with bilinear
    polarization, and adding n_i to a_i changes it by t_i (2 n_i a_i + n_i^2)
    plus multiples of s_ij n_i, 0 mod N under the facts, so Q is a form on
    G.  Only if: tau_i = q(e_i) and sigma_ij = sigma(e_i, e_j) are read back
    from the values, and every quadratic form meets the facts.  A form is
    fixed by that data (q(x + y) = q(x) q(y) sigma(x, y)), so a value table is
    a form exactly when it is the generator form of data that meet the facts.
    The checks here, in O(r^2), come before any table of size |G|: the shape
    of the data (``ParseError``), the conductor cap, the order facts
    (``InvalidQuadraticForm``).  The form equals, in every field and in its
    hash, the one its value table gives; tests keep the dense scan as oracle.
    """
    rank = group.rank
    if len(taus) != rank:
        raise ParseError(f"{len(taus)} generator values for {rank} cyclic factors")
    for key in pairings:
        if not 0 <= key[0] < key[1] < rank:
            raise ParseError(f"pairing key {key} is not (i, j) with 0 <= i < j < {rank}")
    conductor, t, cross = _generator_exponents(taus, pairings)
    roots = roots_of_unity(conductor)
    failure = _order_fact_failure(group.factors, conductor, t, cross)
    if failure is not None:
        raise InvalidQuadraticForm(failure)
    q = [k % conductor for k in _generator_q(group.factors, t, cross)]
    values = tuple(roots[k] for k in q)
    # lowest terms: N becomes the lcm of the value orders, as a checked table gives
    common = math.gcd(conductor, *q)
    return QuadraticForm._from_generators(
        group, values, conductor // common, [k // common for k in q]
    )


def _trace(c: AbelianCocycle) -> tuple[RootOfUnity, ...]:
    """The omega diagonal g -> omega(g, g) in element order."""
    roots = roots_of_unity(c.conductor)
    return tuple(roots[k] for k in c._diagonal)


@_kept
def trace_form(c: AbelianCocycle) -> QuadraticForm:
    """q(g) = omega(g, g) of a valid cocycle.

    That this is a quadratic form is a theorem about the hexagon convention:
    a failure here means the convention itself is broken, so it aborts.
    The standard cocycle of q keeps q itself as its trace form.
    """
    require_cocycle(c)
    try:
        return QuadraticForm(c.group, _trace(c))
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
    Z/3).  It is summed on exponents mod lcm(N, phi's conductor).  The output
    must still be a cocycle and must keep its trace form.
    """
    g = c.group
    if len(phi.domain) != g.order or phi.parent != g:
        raise NotSubgroup("coboundary cochain must be defined on the whole group")
    phi_conductor, f = _exponents([phi.at(*p) for p in itertools.product(g.elements(), repeat=2)])
    conductor = math.lcm(c.conductor, phi_conductor)
    s, t = conductor // c.conductor, conductor // phi_conductor
    n, add, indices = g.order, c._add, range(g.order)
    omega = [
        s * c.omega_exp[a * n + b] + t * (f[b * n + a] - f[a * n + b])
        for a in indices for b in indices
    ]
    psi = [
        s * c.psi_exp[(a * n + b) * n + cc]
        + t * (f[b * n + cc] + f[a * n + add[b * n + cc]]
               - f[add[a * n + b] * n + cc] - f[a * n + b])
        for a in indices for b in indices for cc in indices
    ]
    out = AbelianCocycle(g, conductor, psi, omega)
    failure = cocycle_failure(out)
    if failure is not None:
        raise NotACocycle(
            f"coboundary twist broke the {failure[0]} condition at {failure[1]}; "
            "this signals a convention bug"
        )
    if _trace(out) != _trace(c):
        raise ConventionError("coboundary changed the trace form")
    return out


# ----------------------------------------------------------------------
# Standard cocycle of a quadratic form.
# ----------------------------------------------------------------------

def standard_cocycle(q: QuadraticForm) -> AbelianCocycle:
    """The canonical (psi, omega) pair whose trace is q, proved valid.

    With q's kept Gram data (t, cross) over its conductor N, tau_i = q(e_i) =
    z_N^(t_i) on the cyclic factor Z/n_i and sigma(e_i, e_j) = z_N^(s_ij):
        omega(a, b) = z_N^(sum_i t_i a_i b_i + sum_(i<j) s_ij a_i b_j)
        psi(a, b, c) = z_N^(sum_i t_i n_i a_i floor((b_i + c_i) / n_i))
    Only the omega diagonal is summed here, by ``_generator_q``; the tables
    are built when read.

    The identities hold by the following proof, whose hypotheses are Wall's
    order facts (``form_from_generators``), so no table is scanned.  Write
    k_i(b, c) = floor((b_i + c_i) / n_i), the carry 2-cocycle of Z/n_i.
    Normalization: every term of omega has factors a_i and b_j, and each
    term of psi has a_i and a carry, which is 0 when b_i or c_i is.
    Pentagon: psi is a sum over the factors, and on Z/n_i its defect is
    t_i n_i^2 k_i(a, b) k_i(c, d), 0 mod N because ord tau_i divides n_i^2.
    H1 holds identically on each factor.  H2 needs 2 t_i n_i = 0 mod N,
    which is ord tau_i | 2 n_i.  The cross terms s_ij a_i b_j leave defects
    that are multiples of s_ij n_i or s_ij n_j, 0 because ord sigma_ij |
    gcd(n_i, n_j).  ``cocycle-check`` still scans the tables, and tests
    compare them and the scans with the dense build on the forms up to order
    16.  The trace, the omega diagonal, must give q back.
    """
    g, conductor = q.group, q.conductor
    t, cross = q._gram
    failure = _order_fact_failure(g.factors, conductor, t, cross)
    if failure is not None:
        raise NotRealizable(failure)
    diagonal = tuple(k % conductor for k in _generator_q(g.factors, t, cross))
    out = AbelianCocycle._from_generators(g, conductor, t, cross, diagonal)
    if _trace(out) != q.values:
        raise ConventionError("standard cocycle does not trace back to its form")
    out._results.update(normalization_witness=None, cocycle_failure=None, trace_form=q)
    return out


# ----------------------------------------------------------------------
# Trivializing 2-cochains on subgroups.
# ----------------------------------------------------------------------

def find_mu(c: AbelianCocycle, sub: Subgroup, value_order: int) -> TwoCochain | None:
    """Lexicographically first normalized mu on H with (delta mu) = psi|_H, or None.

    delta mu (a,b,c) = mu(b,c) mu(a,b+c) mu(a+b,c)^-1 mu(a,b)^-1, with values
    in the value_order-th roots of unity.  Decided in this order: the value
    order, the subgroup, the bounds and normalization (errors); then, for a
    cocycle known valid (standard, or its ``cocycle_failure`` kept as None),
    the existence rule: psi|_H is a coboundary, even in C^x, iff
    q(h)^ord(h) = 1 on H, q the omega diagonal.  (Its class in H^3(H, C^x)
    depends on q|_H alone; for the standard cocycle it is the part t_i n_i,
    which vanishes iff each tau_i^(n_i) = 1.)  Then psi is read at the
    nonzero triples of H, not the |G|^3 table: where it is all 1 the
    equations are homogeneous and mu = 1, their least solution, is returned.
    Else the equations A x = b over Z/value_order are solved by one Howell
    kernel of [-b | A]: a solution exists iff the kernel's first row has
    pivot 1 at column 0, and that row, reduced above the pivots of the rows
    below it, which span the solutions of A x = 0, has the least solution as
    its tail.
    """
    if value_order < 1:
        raise ParseError(f"value order must be at least 1, got {value_order}")
    if sub.parent != c.group:
        raise NotSubgroup("subgroup belongs to a different group")
    if sub.order > 16 or value_order > 24:
        raise BoundsExceeded(
            f"mu search bounded at |H| <= 16, N <= 24; got {sub.order}, {value_order}"
        )
    if not c.normalized:
        raise NotACocycle("mu search requires a normalized cocycle")

    g = c.group
    n, add, conductor = g.order, c._add, c.conductor
    domain = sub.indices
    if c._results.get("cocycle_failure", "unscanned") is None and any(
        c._diagonal[i] * g.element_order(x) % conductor for i, x in zip(domain, sub.elements)
    ):
        return None
    # index 0 is the identity, where mu is normalized to 1; a triple with a
    # zero argument gives psi = 1 and an equation whose terms cancel
    nonzero = [a for a in domain if a]
    psi = c.psi_on(nonzero)
    if not any(psi):
        return two_cochain_from_table(g, sub.elements, {})
    # the unknown mu(a, b) sits at column 1, 2, ... in the order of (a, b),
    # and column 0 carries -psi
    column = {pair: i for i, pair in enumerate(itertools.product(nonzero, repeat=2), 1)}

    equations = []
    for (a, b, cc), k in zip(itertools.product(nonzero, repeat=3), psi):
        # psi(a, b, c) = z_N^k must be a value_order-th root: z_V^(k V / N)
        scaled = k * value_order
        if scaled % conductor:
            return None
        row = {0: -(scaled // conductor)}
        for pair, coeff in (
            ((b, cc), 1), ((a, add[b * n + cc]), 1), ((add[a * n + b], cc), -1), ((a, b), -1)
        ):
            if all(pair):  # repeats merge here; the engine sums them on a slower path
                col = column[pair]
                row[col] = row.get(col, 0) + coeff
        equations.append(row.items())

    kernel = sparse_howell_kernel(equations, len(column) + 1, value_order)
    if not kernel or kernel[0].get(0) != 1:
        return None
    first, elems = kernel[0], c._elems
    table = {
        (elems[a], elems[b]): root_of_unity(value_order, first.get(i, 0))
        for (a, b), i in column.items()
    }
    return two_cochain_from_table(g, sub.elements, table)


# ----------------------------------------------------------------------
# Classification on tiny groups by linear algebra over Z/N.
# ----------------------------------------------------------------------

class CocycleClass(Value):
    """A coboundary orbit, keyed by its trace quadratic form."""

    __slots__ = _fields = ("representative", "form", "orbit_size")

    def __init__(self, representative: AbelianCocycle, form: QuadraticForm, orbit_size: int):
        setfield(self, "representative", representative)
        setfield(self, "form", form)
        setfield(self, "orbit_size", orbit_size)


def _check_coboundaries(deltas, identities, diagonal) -> None:
    """Every coboundary row, (column, coefficient) pairs over Z, must vanish
    on the diagonal columns, where omega(x, x) sits, and make every identity
    sum to exactly 0; over Z, so both hold mod every N."""
    uses: dict[int, list[tuple[int, int]]] = {}  # column -> (identity, coeff)
    for e, eq in enumerate(identities):
        for i, k in eq:
            uses.setdefault(i, []).append((e, k))
    for delta in deltas:
        if any(i in diagonal for i, _ in delta):
            raise ConventionError("a coboundary moves the trace form")
        sums: dict[int, int] = {}
        for i, x in delta:
            for e, k in uses.get(i, ()):
                sums[e] = sums.get(e, 0) + k * x
        if any(sums.values()):
            raise ConventionError("a coboundary violates the pentagon or hexagons")


@lru_cache(maxsize=None)
def _h3ab_system(group: AbelianGroup):
    """The part of ``classify_h3ab`` that does not read N, built and checked
    once per group: (psi_slots, omega_slots, identities, deltas).

    A pair is an exponent vector: psi on the nonzero triples (a, b, c), then
    omega on the nonzero pairs (a, b); their slots in the |G|^3 and |G|^2
    tables are ``psi_slots`` and ``omega_slots``.  ``identities`` are the
    pentagon and hexagons as integer rows, (column, coefficient) pairs with
    repeated columns merged and zeros dropped, deduplicated and sorted.
    ``deltas`` are the coboundaries of the elementary 2-cochains
    phi = [(x, y) == pair], one integer row per pair in pair order, checked
    over Z by ``_check_coboundaries``.
    """
    size, table = group.order, addition_table(group)
    nonzero = range(1, size)  # element indices; 0 is the identity
    triples = list(itertools.product(nonzero, repeat=3))
    pairs = list(itertools.product(nonzero, repeat=2))
    add = [table[x * size:(x + 1) * size] for x in range(size)]
    # the column of psi(a, b, c) is psi_at[a][b][c] and that of omega(a, b) is
    # omega_at[a][b]; None where an argument is 0 and normalization fixes the value
    psi_at = [[[None] * size for _ in range(size)] for _ in range(size)]
    omega_at = [[None] * size for _ in range(size)]
    for i, (a, b, c) in enumerate(triples):
        psi_at[a][b][c] = i
    for i, (a, b) in enumerate(pairs, len(triples)):
        omega_at[a][b] = i

    def merged(*terms) -> tuple[tuple[int, int], ...]:
        """(column, coeff) pairs of sum(coeff * x[column]), columns of None dropped."""
        vec: dict[int, int] = {}
        for coeff, i in terms:
            if i is not None:
                vec[i] = vec.get(i, 0) + coeff
        return tuple(sorted((i, k) for i, k in vec.items() if k))

    # identities with a zero argument hold for every normalized pair
    identities = set()
    for a, b, c, d in itertools.product(nonzero, repeat=4):
        identities.add(merged(
            (1, psi_at[b][c][d]), (1, psi_at[a][add[b][c]][d]), (1, psi_at[a][b][c]),
            (-1, psi_at[add[a][b]][c][d]), (-1, psi_at[a][b][add[c][d]]),
        ))
    for a, b, c in triples:
        identities.add(merged(  # H1
            (1, omega_at[a][add[b][c]]), (-1, omega_at[a][b]), (-1, omega_at[a][c]),
            (1, psi_at[a][b][c]), (-1, psi_at[b][a][c]), (1, psi_at[b][c][a]),
        ))
        identities.add(merged(  # H2
            (1, omega_at[add[a][b]][c]), (-1, omega_at[a][c]), (-1, omega_at[b][c]),
            (-1, psi_at[a][b][c]), (1, psi_at[a][c][b]), (-1, psi_at[c][a][b]),
        ))
    identities.discard(())
    identities = tuple(sorted(identities))

    # delta of every elementary cochain at once, keyed by the pair's omega column
    deltas: dict[int, dict[int, int]] = {omega_at[a][b]: {} for a, b in pairs}

    def bump(pair, i: int, coeff: int) -> None:
        if pair is not None:
            delta = deltas[pair]
            delta[i] = delta.get(i, 0) + coeff

    for i, (a, b, c) in enumerate(triples):
        bump(omega_at[b][c], i, 1)
        bump(omega_at[a][add[b][c]], i, 1)
        bump(omega_at[add[a][b]][c], i, -1)
        bump(omega_at[a][b], i, -1)
    for i, (a, b) in enumerate(pairs, len(triples)):
        bump(omega_at[b][a], i, 1)
        bump(omega_at[a][b], i, -1)
    deltas = tuple(tuple((i, k) for i, k in delta.items() if k) for delta in deltas.values())
    _check_coboundaries(deltas, identities, {omega_at[x][x] for x in nonzero})
    psi_slots = tuple((a * size + b) * size + c for a, b, c in triples)
    omega_slots = tuple(a * size + b for a, b in pairs)
    return psi_slots, omega_slots, identities, deltas


# classify_h3ab's bounds on |G| and on the value order N.  On a 2-vCPU VM,
# Z8, Z4xZ2 and Z2^3 classify at N <= 16 in under 0.5 s each, but Z16 at
# N = 2 took 23 s and 631 MiB.
CLASSIFY_MAX_GROUP_ORDER = 4
CLASSIFY_MAX_VALUE_ORDER = 8


def classify_h3ab(group: AbelianGroup, value_order: int) -> list[CocycleClass]:
    """All normalized (psi, omega) pairs with values in the N-th roots, partitioned
    into coboundary orbits; orbits must coincide with trace-form fibers.

    A pair is an exponent vector mod N: psi on nonzero triples, then omega on
    nonzero pairs.  The pentagon and hexagons cut out its cocycle module Z,
    the coboundaries of elementary 2-cochains span B <= Z, and the classes are
    Z/B, enumerated by closing Z's Howell rows under addition modulo B.
    Reducing modulo B's Howell form yields the lexicographically least orbit
    member, which is the representative; classes are sorted by trace form.
    The identities and coboundary rows do not read N: they are built once
    per group as integer rows, and the coboundaries checked over Z, by
    ``_h3ab_system``; each call hands them to the Howell engine, which
    reduces them mod N.  Rows equal mod N are not merged first: the kernel
    is canonical, and merging costs more than it saves.
    """
    if value_order < 1:
        raise ParseError(f"value order must be at least 1, got {value_order}")
    if group.order > CLASSIFY_MAX_GROUP_ORDER:
        raise GroupTooLarge(
            f"classification bounded at |G| <= {CLASSIFY_MAX_GROUP_ORDER}, got {group.order}"
        )
    if value_order > CLASSIFY_MAX_VALUE_ORDER:
        raise OrderTooLarge(
            f"classification bounded at N <= {CLASSIFY_MAX_VALUE_ORDER}, got {value_order}"
        )

    g = group
    n = value_order
    size = g.order
    psi_slots, omega_slots, identities, deltas = _h3ab_system(g)
    width = len(psi_slots) + len(omega_slots)
    cocycles = dense_rows(sparse_howell_kernel(identities, width, n), width)
    coboundaries = dense_rows(sparse_howell_form(deltas, n), width)
    pivots = _pivots(coboundaries, n)  # checked once for the whole closure

    def reduce(vec) -> tuple[int, ...]:
        return tuple(_reduce(vec, coboundaries, pivots, n))

    # Z/B is closed under each cocycle row's residue mod B; zero and repeats add nothing
    zero = (0,) * width
    reps = {zero}
    for z in sorted({reduce(z) for z in cocycles} - reps):
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
        psi, omega = [0] * size**3, [0] * size**2
        for pos, k in zip(psi_slots, vec):
            psi[pos] = k
        for pos, k in zip(omega_slots, vec[len(psi_slots):]):
            omega[pos] = k
        rep = AbelianCocycle(g, n, psi, omega)
        classes.append(CocycleClass(rep, trace_form(rep), orbit_size))

    forms = [tuple((v.order, v.exponent) for v in cls.form.values) for cls in classes]
    if len(set(forms)) != len(forms):
        raise ConventionError("two coboundary orbits share one trace form")
    order = sorted(range(len(classes)), key=lambda i: forms[i])
    return [classes[i] for i in order]
