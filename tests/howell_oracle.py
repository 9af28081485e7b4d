"""Reference Howell engine over Z/N and the dense classification on it, kept as
a test oracle.

`pointedcat.groups` holds each row as a dict from column to nonzero residue
(`sparse_howell_form`, `sparse_howell_kernel`), and `classify_h3ab` reduces
by a form and counts its span on dense rows (`_reduce`, `howell_size`).
This is the dense engine it replaced, in its first form: `howell_form`
steps over zero columns one at a time, pushes all-zero cofactor rows back
on its work list, and back-reduces with one `howell_reduce` call per pair
of rows; `howell_kernel` builds [rows^T | I] on the rows as given.  Below it
is the classification of H^3_ab that `pointedcat.cocycles` ran on that
engine, with the equations and coboundaries built as dense vectors through
tuple addition and each coboundary checked against each equation over every
column.  `tests/test_howell_oracle.py` compares the sparse engine with this
one on random systems, and the two classifications on every group and
value order they accept."""

from __future__ import annotations

import itertools
import math

from pointedcat.cocycles import AbelianCocycle, CocycleClass, trace_form
from pointedcat.errors import ConventionError, GroupTooLarge, OrderTooLarge, ParseError
from pointedcat.groups import AbelianGroup


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        s0, s1, t0, t1 = s1, s0 - k * s1, t1, t0 - k * t1
    return a, s0, t0


def _pivot(row) -> int:
    return next(i for i, x in enumerate(row) if x)


def howell_form(rows, modulus: int) -> list[list[int]]:
    """Howell form of the row span of ``rows`` in (Z/modulus)^n.

    Rows come in echelon order, each pivot divides the modulus and every
    entry above a pivot is reduced below it, so equal spans give equal
    forms.  Howell property: for every column k, the rows with pivot >= k
    span every member of the row span that vanishes before k.  The span
    has prod(modulus / pivot) members.
    """
    n = modulus
    basis: dict[int, list[int]] = {}
    work = [[x % n for x in row] for row in rows]
    while work:
        row = work.pop()
        col = 0
        while col < len(row):
            a = row[col]
            if a == 0:
                col += 1
                continue
            top = basis.get(col) or [0] * len(row)
            d = top[col] or n
            if a % d == 0:
                row = [(x - (a // d) * y) % n for x, y in zip(row, top)]
                continue
            # unimodular 2x2 step: top' = s top + t row carries gcd(d, a), and
            # the cofactor row, which vanishes at col, goes back on the work
            # list.  (modulus / g) top' is a combination of the cofactor and
            # (modulus / d) top, so every pivot row's annihilated multiple
            # lies in the span of later rows: the Howell property.
            g, s, t = _xgcd(d, a)
            basis[col] = [(s * y + t * x) % n for x, y in zip(row, top)]
            work.append([((d // g) * x - (a // g) * y) % n for x, y in zip(row, top)])
            break
    form = [basis[c] for c in sorted(basis)]
    for i, row in enumerate(form):
        form[:i] = [howell_reduce(upper, [row], n) for upper in form[:i]]
    return form


def howell_reduce(vec, form: list[list[int]], modulus: int) -> list[int]:
    """Lexicographically least member of vec + span(form), for a Howell form."""
    vec = [x % modulus for x in vec]
    for row in form:
        col = _pivot(row)
        k = vec[col] // row[col]
        if k:
            vec = [(x - k * y) % modulus for x, y in zip(vec, row)]
    return vec


def howell_size(form: list[list[int]], modulus: int) -> int:
    """Number of members of the span of a Howell form."""
    return math.prod(modulus // row[_pivot(row)] for row in form)


def howell_kernel(rows: list, ncols: int, modulus: int) -> list[list[int]]:
    """Howell form of {x in (Z/modulus)^ncols : row . x = 0 for every row}.

    The Howell form of [rows^T | I] spans the pairs (x rows^T, x); by the
    Howell property, its rows with pivot past the rows^T block span the kernel.
    """
    split = len(rows)
    augmented = [
        [row[j] for row in rows] + [int(i == j) for i in range(ncols)]
        for j in range(ncols)
    ]
    return [row[split:] for row in howell_form(augmented, modulus) if not any(row[:split])]


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

    size, idx = g.order, g.element_index
    psi_slots = [(idx(a) * size + idx(b)) * size + idx(c) for a, b, c in triples]
    omega_slots = [idx(a) * size + idx(b) for a, b in pairs]
    classes = []
    for vec in reps:
        psi, omega = [0] * size**3, [0] * size**2
        for pos, k in zip(psi_slots, vec):
            psi[pos] = k
        for pos, k in zip(omega_slots, vec[len(triples):]):
            omega[pos] = k
        rep = AbelianCocycle(g, n, psi, omega)
        classes.append(CocycleClass(rep, trace_form(rep), orbit_size))

    forms = [tuple((v.order, v.exponent) for v in cls.form.values) for cls in classes]
    if len(set(forms)) != len(forms):
        raise ConventionError("two coboundary orbits share one trace form")
    order = sorted(range(len(classes)), key=lambda i: forms[i])
    return [classes[i] for i in order]
