"""Finite abelian groups as products of cyclic factors.

Elements are plain tuples of residues, ordered lexicographically everywhere
so matrix rows and columns are reproducible across runs.  Subgroups are
extensional (identified by their sorted element list) and grow as sets of
element indices, coset by coset over the addition table; quotients are in
cyclic-factor form via Smith normal form of the relation matrix, and the
dual group is realized as coordinate tuples of the same shape as elements.

The group literal syntax "Z2", "Z4xZ2", "Z2xZ2xZ3" (case-insensitive) is
shared by the CLI and all file formats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import CycloMatrix, RootOfUnity, embed, root_of_unity
from .errors import (
    GroupTooLarge,
    InternalInconsistency,
    NotSubgroup,
    ParseError,
    ShapeMismatch,
)

Element = tuple[int, ...]

DEFAULT_MAX_GROUP_ORDER = 256


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups Z/n_1 x ... x Z/n_r; trivial is (1,)."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors or any(n < 1 for n in self.factors):
            raise ParseError(f"invalid cyclic factors {self.factors}")

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def zero(self) -> Element:
        return (0,) * len(self.factors)

    def elements(self) -> list[Element]:
        return list(itertools.product(*(range(n) for n in self.factors)))

    def _check(self, g: Element) -> None:
        if len(g) != len(self.factors):
            raise ShapeMismatch(
                f"element {g} has {len(g)} coordinates, group has {len(self.factors)}"
            )

    def reduce(self, g: Element) -> Element:
        self._check(g)
        return tuple(c % n for c, n in zip(g, self.factors))

    def add(self, g: Element, h: Element) -> Element:
        self._check(g)
        self._check(h)
        return tuple((a + b) % n for a, b, n in zip(g, h, self.factors))

    def neg(self, g: Element) -> Element:
        self._check(g)
        return tuple((-a) % n for a, n in zip(g, self.factors))

    def scalar_mul(self, k: int, g: Element) -> Element:
        self._check(g)
        return tuple((k * a) % n for a, n in zip(g, self.factors))

    def element_index(self, g: Element) -> int:
        """Position of g in elements() order (mixed-radix value of the coords)."""
        self._check(g)
        idx = 0
        for c, n in zip(g, self.factors):
            idx = idx * n + c
        return idx

    def element_order(self, g: Element) -> int:
        self._check(g)
        return math.lcm(*(n // math.gcd(n, c) for c, n in zip(g, self.factors)))

    def __str__(self) -> str:
        return format_group(self)


def parse_group(text: str) -> AbelianGroup:
    """Parse a group literal like "Z4xZ2" (case-insensitive)."""
    s = text.strip().lower()
    if not s:
        raise ParseError("empty group literal")
    factors = []
    for part in s.split("x"):
        part = part.strip()
        if not part.startswith("z") or not part[1:].isdigit():
            raise ParseError(f"cannot parse group literal {text!r}")
        factors.append(int(part[1:]))
    return AbelianGroup(tuple(factors))


def format_group(group: AbelianGroup) -> str:
    return "x".join(f"Z{n}" for n in group.factors)


@lru_cache(maxsize=None)
def addition_table(group: AbelianGroup) -> tuple[int, ...]:
    """Entry i * |G| + j is the element index of elements()[i] + elements()[j]."""
    elems = group.elements()
    return tuple(group.element_index(group.add(x, y)) for x in elems for y in elems)


# ----------------------------------------------------------------------
# Subgroups.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Subgroup:
    """Subgroup given extensionally; elements sorted, closure validated."""

    parent: AbelianGroup
    elements: tuple[Element, ...]
    generators: tuple[Element, ...]

    def __post_init__(self):
        parent, elems = self.parent, self.elements
        if list(elems) != sorted(set(elems)):
            raise NotSubgroup("subgroup element list must be sorted and deduplicated")
        elemset = frozenset(elems)
        if parent.zero not in elemset:
            raise NotSubgroup("subgroup must contain the identity")
        every, table, n = parent.elements(), addition_table(parent), parent.order
        index = [parent.element_index(parent.reduce(g)) for g in elems]
        # sums are reduced, so an unreduced tuple is never a member
        members = {i for g, i in zip(elems, index) if every[i] == g}
        for g, i in zip(elems, index):
            if parent.neg(g) not in elemset:
                raise NotSubgroup(f"subgroup not closed under negation at {g}")
            for h, j in zip(elems, index):
                if table[i * n + j] not in members:
                    raise NotSubgroup(f"subgroup not closed under addition at {g}+{h}")
        if parent.order % len(elems) != 0:
            raise NotSubgroup("subgroup order does not divide the group order")
        object.__setattr__(self, "_elemset", elemset)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def exponent(self) -> int:
        return math.lcm(*(self.parent.element_order(g) for g in self.elements))

    def contains(self, g: Element) -> bool:
        return g in self._elemset


def _span(group: AbelianGroup, members: frozenset, g: int) -> frozenset:
    """<H, g> on element indices, H the subgroup on ``members``: the cosets
    H + k g up to the first k g back in the set, which then lies in H."""
    table, n = addition_table(group), group.order
    out, step = set(members), g
    while step not in out:
        out.update([table[step * n + h] for h in members])
        step = table[step * n + g]
    return frozenset(out)


def _subgroup_on(group: AbelianGroup, members: frozenset) -> Subgroup:
    """The subgroup on a set of element indices, generated greedily: scanning
    in element order, by each element outside the span of those before."""
    elems, ordered = group.elements(), sorted(members)
    gens, have = [], frozenset({0})
    for i in ordered:
        if have == members:
            break
        if i not in have:
            gens.append(elems[i])
            have = _span(group, have, i)
    return Subgroup(group, tuple(elems[i] for i in ordered), tuple(gens))


def subgroup_generated(group: AbelianGroup, gens) -> Subgroup:
    gens = tuple(group.reduce(g) for g in gens)
    members = frozenset({0})
    for g in gens:
        members = _span(group, members, group.element_index(g))
    elems = group.elements()
    return Subgroup(group, tuple(elems[i] for i in sorted(members)), gens)


def subgroup_from_elements(group: AbelianGroup, elems) -> Subgroup:
    members = frozenset(group.element_index(group.reduce(g)) for g in elems)
    return _subgroup_on(group, members | {0})


def trivial_subgroup(group: AbelianGroup) -> Subgroup:
    return Subgroup(group, (group.zero,), ())


def full_subgroup(group: AbelianGroup) -> Subgroup:
    return _subgroup_on(group, frozenset(range(group.order)))


def _subgroups_over(group: AbelianGroup, universe) -> list[Subgroup]:
    """All subgroups whose element indices lie in the (closed) universe.  Each
    one found grows by one element per coset, as <H, g> depends on g + H."""
    table, n = addition_table(group), group.order
    found = {frozenset({0})}
    todo = list(found)
    while todo:
        current = todo.pop()
        covered = set(current)
        for g in universe:
            if g in covered:
                continue
            covered.update([table[g * n + h] for h in current])
            grown = _span(group, current, g)
            if grown not in found:
                found.add(grown)
                todo.append(grown)
    # index order is element order: this sorts by (order, element list)
    return [_subgroup_on(group, s) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]


def all_subgroups(group: AbelianGroup, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> list[Subgroup]:
    """Every subgroup exactly once, sorted by (order, element list)."""
    if group.order > max_order:
        raise GroupTooLarge(f"|G| = {group.order} exceeds the bound {max_order}")
    return _subgroups_over(group, range(group.order))


def subgroups_of(sub: Subgroup, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> list[Subgroup]:
    if sub.parent.order > max_order:
        raise GroupTooLarge(f"|G| = {sub.parent.order} exceeds the bound {max_order}")
    return _subgroups_over(sub.parent, list(map(sub.parent.element_index, sub.elements)))


# ----------------------------------------------------------------------
# Quotients via Smith normal form.
# ----------------------------------------------------------------------

def smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Nonnegative invariant factors d_1 | d_2 | ... of an integer matrix."""
    m = [row[:] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    diag = []
    top = 0
    while top < min(nrows, ncols):
        pivot = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        dirty = False
        for i in range(top + 1, nrows):
            q = m[i][top] // m[top][top]
            if q:
                for j in range(top, ncols):
                    m[i][j] -= q * m[top][j]
            if m[i][top] != 0:
                dirty = True
        for j in range(top + 1, ncols):
            q = m[top][j] // m[top][top]
            if q:
                for i in range(top, nrows):
                    m[i][j] -= q * m[i][top]
            if m[top][j] != 0:
                dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry for the invariant-factor chain
        offender = None
        for i in range(top + 1, nrows):
            for j in range(top + 1, ncols):
                if m[i][j] % m[top][top] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, ncols):
                m[top][j] += m[offender][j]
            continue
        diag.append(abs(m[top][top]))
        top += 1
    return diag


# ----------------------------------------------------------------------
# Howell form over Z/N (Storjohann and Mulders, ESA 1998).
# ----------------------------------------------------------------------

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


@dataclass(frozen=True)
class Quotient:
    """G/H in cyclic-factor form plus the coset-representative map."""

    group: AbelianGroup
    reps: tuple[Element, ...]
    _rep_of: dict

    def rep_of(self, g: Element) -> Element:
        return self._rep_of[g]


def quotient(group: AbelianGroup, sub: Subgroup) -> Quotient:
    """Quotient group with lexicographically minimal coset representatives."""
    if sub.parent != group:
        raise NotSubgroup("subgroup belongs to a different group")
    relations = [
        [group.factors[i] if i == j else 0 for j in range(group.rank)]
        for i in range(group.rank)
    ]
    for h in sub.elements:
        relations.append(list(h))
    diag = smith_diagonal(relations)
    factors = tuple(sorted((d for d in diag if d > 1), reverse=True)) or (1,)
    table, n, elems = addition_table(group), group.order, group.elements()
    members = [group.element_index(group.reduce(h)) for h in sub.elements]
    rep_of = {}
    reps = []
    for i, g in enumerate(elems):
        if g in rep_of:
            continue
        for j in members:  # in element order, g is the least of its coset
            rep_of[elems[table[i * n + j]]] = g
        reps.append(g)
    q = AbelianGroup(factors)
    if q.order != group.order // sub.order or len(reps) != q.order:
        raise InternalInconsistency(
            f"quotient of order {group.order}/{sub.order} presented with {factors}"
        )
    return Quotient(q, tuple(reps), rep_of)


# ----------------------------------------------------------------------
# Cyclic-factor presentation of a subgroup.
# ----------------------------------------------------------------------

def _decompose(elems, add, neg, zero):
    """Invariant-factor generators [(g, m), ...] with m_1 >= m_2 >= ..., m_{i+1} | m_i.

    Splits off a maximal-order cyclic summand, recurses on the quotient and
    lifts the quotient generators, correcting each lift by a multiple of the
    first generator so its order is preserved.
    """
    if len(elems) == 1:
        return []

    def order_of(x):
        k, acc = 1, x
        while acc != zero:
            acc = add(acc, x)
            k += 1
        return k

    best = None
    for x in sorted(elems):
        m = order_of(x)
        if best is None or m > best[1]:
            best = (x, m)
    head, head_order = best

    cyclic = []
    acc = zero
    for _ in range(head_order):
        cyclic.append(acc)
        acc = add(acc, head)

    rep_of = {}
    for x in elems:
        rep_of[x] = min(add(x, c) for c in cyclic)
    reps = sorted(set(rep_of.values()))

    rest = _decompose(
        reps,
        lambda a, b: rep_of[add(a, b)],
        lambda a: rep_of[neg(a)],
        zero,
    )

    out = [(head, head_order)]
    for gen, m in rest:
        acc = zero
        for _ in range(m):
            acc = add(acc, gen)
        # acc lies in <head>; find it as c * head, then cancel (c//m) * head
        c, probe = 0, zero
        while probe != acc:
            probe = add(probe, head)
            c += 1
        assert c % m == 0, "lift correction must be divisible by the quotient order"
        shift = zero
        for _ in range(c // m):
            shift = add(shift, head)
        out.append((add(gen, neg(shift)), m))
    return out


@dataclass(frozen=True)
class Presentation:
    """Explicit isomorphism between a subgroup and a cyclic-factor group."""

    group: AbelianGroup
    gens: tuple[Element, ...]
    _to_parent: dict
    _from_parent: dict

    def to_parent(self, coords: Element) -> Element:
        return self._to_parent[coords]

    def from_parent(self, g: Element) -> Element:
        return self._from_parent[g]


@lru_cache(maxsize=None)
def cyclic_presentation(sub: Subgroup) -> Presentation:
    """Present a subgroup as a cyclic-factor group with explicit generators.

    When the subgroup is the whole group, the identity presentation on the
    ambient factors is used so reports line up with the original coordinates.
    """
    parent = sub.parent
    if sub.order == parent.order:
        ident = {g: g for g in parent.elements()}
        basis = tuple(
            parent.reduce(tuple(1 if j == i else 0 for j in range(parent.rank)))
            for i in range(parent.rank)
        )
        return Presentation(parent, basis, ident, ident)

    pairs = _decompose(list(sub.elements), parent.add, parent.neg, parent.zero)
    if not pairs:
        group = AbelianGroup((1,))
        zero = parent.zero
        return Presentation(group, (zero,), {(0,): zero}, {zero: (0,)})

    factors = tuple(m for _, m in pairs)
    gens = tuple(g for g, _ in pairs)
    group = AbelianGroup(factors)
    to_parent = {}
    from_parent = {}
    for coords in group.elements():
        g = parent.zero
        for c, gen in zip(coords, gens):
            g = parent.add(g, parent.scalar_mul(c, gen))
        to_parent[coords] = g
        from_parent[g] = coords
    if len(from_parent) != sub.order or set(from_parent) != set(sub.elements):
        raise InternalInconsistency("cyclic presentation is not a bijection")
    return Presentation(group, gens, to_parent, from_parent)


# ----------------------------------------------------------------------
# Characters and the character table.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """chi(g) = prod_i zeta_{n_i}^(coords[i] * g[i]) on the parent group."""

    parent: AbelianGroup
    coords: Element

    def __post_init__(self):
        self.parent._check(self.coords)

    def eval(self, g: Element) -> RootOfUnity:
        self.parent._check(g)
        n = self.parent.exponent
        total = 0
        for c, gi, ni in zip(self.coords, g, self.parent.factors):
            total += c * gi * (n // ni)
        return root_of_unity(n, total % n)

    def __mul__(self, other: "Character") -> "Character":
        assert self.parent == other.parent
        return Character(self.parent, self.parent.add(self.coords, other.coords))

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)


def characters(group: AbelianGroup) -> list[Character]:
    """All |G| characters, in lexicographic coordinate order."""
    return [Character(group, coords) for coords in group.elements()]


def restrict(chi: Character, sub: Subgroup) -> Character:
    """Restriction to a subgroup, expressed on its cyclic-factor presentation."""
    pres = cyclic_presentation(sub)
    coords = []
    for gen, m in zip(pres.gens, pres.group.factors):
        value = chi.eval(gen)
        if m % value.order != 0:
            raise InternalInconsistency(
                f"character value of order {value.order} on a generator of order {m}"
            )
        coords.append((value.exponent * (m // value.order)) % m)
    restricted = Character(pres.group, tuple(coords))
    return restricted


def character_table(group: AbelianGroup) -> CycloMatrix:
    """|G| x |G| matrix of chi(g); rows by characters(), columns by elements()."""
    conductor = group.exponent
    elems = group.elements()
    rows = []
    for chi in characters(group):
        rows.append([embed(chi.eval(g), conductor) for g in elems])
    return CycloMatrix.from_rows(rows)
