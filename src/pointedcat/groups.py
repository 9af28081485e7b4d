"""Finite abelian groups as products of cyclic factors.

Elements are plain tuples of residues, ordered lexicographically everywhere
so matrix rows and columns are reproducible across runs.  Subgroups are
extensional (identified by their sorted element list), proved closed by the
span of their elements, and grow as sets of element indices, coset by coset
over the addition table.  One invariant-factor
decomposition on the same table gives quotients their cyclic factors and
subgroups their cyclic presentations, and the dual group is realized as
coordinate tuples of the same shape as elements.

The group literal syntax "Z2", "Z4xZ2", "Z2xZ2xZ3" (case-insensitive) is
shared by the CLI and all file formats.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from ._value import Value, setfield
from .cyclotomic import CycloMatrix, RootOfUnity, root_of_unity
from .errors import (
    GroupTooLarge,
    InternalInconsistency,
    NotSubgroup,
    ParseError,
    ShapeMismatch,
    ValidationError,
)

Element = tuple[int, ...]

DEFAULT_MAX_GROUP_ORDER = 256


class AbelianGroup(Value):
    """Direct product of cyclic groups Z/n_1 x ... x Z/n_r; trivial is (1,).
    The order is kept from construction."""

    _fields = ("factors",)
    __slots__ = _fields + ("order",)

    def __init__(self, factors: tuple[int, ...]):
        setfield(self, "factors", factors)
        if not factors or any(n < 1 for n in factors):
            raise ParseError(f"invalid cyclic factors {factors}")
        setfield(self, "order", math.prod(factors))

    def __eq__(self, other):
        if other.__class__ is not AbelianGroup:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.factors,))

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
        return list(element_tables(self.factors)[0])

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
        elems, _, negation = element_tables(self.factors)
        return elems[negation[self.element_index(self.reduce(g))]]

    def scalar_mul(self, k: int, g: Element) -> Element:
        self._check(g)
        return tuple((k * a) % n for a, n in zip(g, self.factors))

    def element_index(self, g: Element) -> int:
        """Position of g in elements() order; g must be reduced."""
        i = element_tables(self.factors)[1].get(g)
        if i is None:
            self._check(g)
            raise ShapeMismatch(f"{g} is not a reduced element of {self}")
        return i

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
        try:
            # isdigit() admits digits of other scripts, such as "²" and "٣"
            if not part.startswith("z") or not (part[1:].isascii() and part[1:].isdigit()):
                raise ValueError
            factors.append(int(part[1:]))
        except ValueError:
            raise ParseError(f"cannot parse group literal {text!r}") from None
    return AbelianGroup(tuple(factors))


def format_group(group: AbelianGroup) -> str:
    return "x".join(f"Z{n}" for n in group.factors)


@lru_cache(maxsize=None)
def addition_table(group: AbelianGroup) -> tuple[int, ...]:
    """Entry i * |G| + j is the element index of elements()[i] + elements()[j],
    built on mixed-radix indices: each cyclic factor m multiplies the index
    of the sum so far by m and adds the digit (c + d) mod m."""
    table, size = [0], 1
    for m in group.factors:
        digits = [[(c + d) % m for d in range(m)] for c in range(m)]
        table = [
            t * m + s
            for i in range(size) for row in digits
            for t in table[i * size:(i + 1) * size] for s in row
        ]
        size *= m
    return tuple(table)


@lru_cache(maxsize=None)
def element_tables(factors: tuple[int, ...]) -> tuple[tuple[Element, ...], dict, tuple[int, ...]]:
    """The elements of the group on ``factors`` in elements() order, the map
    from each to its index, and the index of each element's negative, built
    digit by digit like ``addition_table``."""
    elems = tuple(itertools.product(*(range(n) for n in factors)))
    negation = [0]
    for m in factors:
        negation = [t * m + (-d) % m for t in negation for d in range(m)]
    return elems, {g: i for i, g in enumerate(elems)}, tuple(negation)


# ----------------------------------------------------------------------
# Subgroups.
# ----------------------------------------------------------------------

class Subgroup(Value):
    """Subgroup given extensionally by its sorted element list, proved closed
    by its span: scanning the elements in order, each one outside the span
    so far grows it by ``_span``, and the span must stay inside the list.
    The span is the subgroup the list generates and holds every element, so
    it equals the list exactly when the list is closed; negatives come free,
    as G is finite.  The element indices and the hash are kept."""

    _fields = ("parent", "elements")
    __slots__ = _fields + ("indices", "_members", "_hash")

    def __init__(self, parent: AbelianGroup, elements: tuple[Element, ...]):
        setfield(self, "parent", parent)
        setfield(self, "elements", elements)
        if not all(g < h for g, h in zip(elements, elements[1:])):
            raise NotSubgroup("subgroup element list must be sorted and deduplicated")
        if parent.zero not in elements:
            raise NotSubgroup("subgroup must contain the identity")
        elems, index_of, _ = element_tables(parent.factors)
        for g in elements:
            if g not in index_of:
                parent._check(g)
                raise NotSubgroup(
                    f"subgroup element {g} is not a reduced element of {parent}"
                )
        index = [index_of[g] for g in elements]
        members, span = frozenset(index), frozenset({0})
        for i in index:
            if i not in span:
                span = _span(parent, span, i)
                if not span <= members:
                    witness = elems[min(span - members)]
                    raise NotSubgroup(
                        f"subgroup not closed: its elements generate {witness}, not among them"
                    )
        setfield(self, "indices", tuple(index))
        setfield(self, "_members", members)
        setfield(self, "_hash", hash((parent, elements)))

    def __eq__(self, other):
        if other.__class__ is not Subgroup:
            return NotImplemented
        return self.parent == other.parent and self.elements == other.elements

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def exponent(self) -> int:
        return math.lcm(*(self.parent.element_order(g) for g in self.elements))

    def contains(self, g: Element) -> bool:
        return element_tables(self.parent.factors)[1].get(g) in self._members


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
    """The subgroup on a set of element indices."""
    elems = element_tables(group.factors)[0]
    return Subgroup(group, tuple(elems[i] for i in sorted(members)))


def subgroup_generated(group: AbelianGroup, gens) -> Subgroup:
    members = frozenset({0})
    for g in gens:
        members = _span(group, members, group.element_index(group.reduce(g)))
    return _subgroup_on(group, members)


def subgroup_from_elements(group: AbelianGroup, elems) -> Subgroup:
    members = frozenset(group.element_index(group.reduce(g)) for g in elems)
    return _subgroup_on(group, members | {0})


def trivial_subgroup(group: AbelianGroup) -> Subgroup:
    return Subgroup(group, (group.zero,))


def full_subgroup(group: AbelianGroup) -> Subgroup:
    return _subgroup_on(group, frozenset(range(group.order)))


def _subgroups_over(group: AbelianGroup, universe) -> list[Subgroup]:
    """All subgroups whose element indices lie in the universe.  Each one
    found grows by one element per coset, as <H, g> depends on g + H, and
    only by a coset g + H inside the universe.  For a closed universe every
    coset of one of its elements is inside; for another universe the
    subgroups found are those reached through cosets inside it."""
    table, n = addition_table(group), group.order
    inside = frozenset(universe)
    found = {frozenset({0})}
    todo = list(found)
    while todo:
        current = todo.pop()
        covered = set(current)
        for g in universe:
            if g in covered:
                continue
            coset = [table[g * n + h] for h in current]
            covered.update(coset)
            if not inside.issuperset(coset):
                continue
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
    """Every subgroup of ``sub``, as ``all_subgroups`` orders them, in a new
    list; they are found once per ``sub``, after the bound is checked."""
    if sub.parent.order > max_order:
        raise GroupTooLarge(f"|G| = {sub.parent.order} exceeds the bound {max_order}")
    return list(_subgroups_within(sub))


@lru_cache(maxsize=None)
def _subgroups_within(sub: Subgroup) -> tuple[Subgroup, ...]:
    return tuple(_subgroups_over(sub.parent, sub.indices))


# ----------------------------------------------------------------------
# Howell form over Z/N (Storjohann and Mulders, ESA 1998).  The engine holds
# each row as a dict from column to nonzero residue, so a row operation costs
# the nonzeros of the rows it combines, not the width.  A kernel is one
# elimination of [rows^T | I], its rows^T columns sparsest first.  Callers
# convert a form to dense rows (``dense_rows``) to reduce by it and to count
# its span; ``howell_size`` checks shapes, modulus and pivots first.
# ----------------------------------------------------------------------

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        s0, s1, t0, t1 = s1, s0 - k * s1, t1, t0 - k * t1
    return a, s0, t0


def _lead(row) -> int:
    """Index of the first nonzero entry of row, len(row) if there is none."""
    x = next(filter(None, row), 0)
    return row.index(x) if x else len(row)


def _combine(p: int, x: dict[int, int], q: int, y: dict[int, int], n: int) -> dict[int, int]:
    """p x + q y mod n, as a sparse row."""
    out = {c: p * v for c, v in x.items()}
    for c, v in y.items():
        out[c] = out.get(c, 0) + q * v
    return {c: v % n for c, v in out.items() if v % n}


def _scale(k: int, x: dict[int, int], n: int) -> dict[int, int]:
    """k x mod n, as a sparse row."""
    return {c: w for c, v in x.items() if (w := k * v % n)}


def _subtract(row: dict[int, int], k: int, y: dict[int, int], n: int) -> None:
    """row -= k y mod n, in place."""
    for c, v in y.items():
        x = (row.get(c, 0) - k * v) % n
        if x:
            row[c] = x
        else:
            row.pop(c, None)  # k v may vanish mod n where row has no entry


def _residue_rows(rows, n: int) -> list[dict[int, int]]:
    """Rows of (column, value) pairs as dicts from column to nonzero residue
    mod n, zero rows dropped.  The values at a repeated column add up; the
    sum is taken only where the pair count shows a repeat."""
    out = []
    for row in rows:
        try:
            size = len(row)
        except TypeError:  # a one-pass iterator, read twice below
            row = tuple(row)
            size = len(row)
        vec = {c: v % n for c, v in row if v % n}
        if len(vec) < size and len(dict(row)) < size:
            vec = {}
            for c, v in row:
                vec[c] = vec.get(c, 0) + v
            vec = {c: w for c, v in vec.items() if (w := v % n)}
        if vec:
            out.append(vec)
    return out


def sparse_howell_form(rows, modulus: int, start: int = 0) -> list[dict[int, int]]:
    """Howell form of the row span of ``rows`` over Z/modulus, on sparse rows.

    Each row is given as (column, value) pairs, the values at a repeated
    column adding up, and the modulus is at least 1 (``find_mu`` and
    ``classify_h3ab`` check it); each row of the form is a dict from column
    to nonzero residue.  Rows come in
    echelon order, each pivot divides the modulus and every entry above a
    pivot is reduced below it, so equal spans give equal forms.  Howell
    property: for every column k, the rows with pivot >= k span every member
    of the row span that vanishes before k.  The span has prod(modulus /
    pivot) members.  Only the rows with pivot >= ``start`` are back-reduced
    and returned: by the Howell property they are the Howell form of the
    members of the span that vanish before column ``start``.  A row whose
    leading column has no pivot row yet becomes that pivot row in one pass,
    scaled to carry g = gcd(modulus, lead); only when g > 1 does a nonzero
    cofactor, (modulus / g) row, go back on the work list.
    """
    return _eliminate(_residue_rows(rows, modulus), modulus, start)


def _eliminate(work: list[dict[int, int]], n: int, start: int) -> list[dict[int, int]]:
    """The elimination of ``sparse_howell_form`` on rows already held as
    dicts from column to nonzero residue mod n; it consumes ``work``."""
    basis: dict[int, dict[int, int]] = {}  # pivot column -> its row
    while work:
        row = work.pop()
        while row:
            col = min(row)
            a = row[col]
            top = basis.get(col)
            if top is None:
                # a new pivot column: the 2x2 step below with top = 0 and
                # d = modulus, in one pass.  top' = t row carries g, and the
                # cofactor (modulus / g) row is zero unless g > 1.
                g, _, t = _xgcd(n, a)
                basis[col] = _scale(t, row, n)
                row = _scale(n // g, row, n) if g > 1 else None
            else:
                d = top[col]
                if a % d == 0:
                    _subtract(row, a // d, top, n)
                    continue
                # unimodular 2x2 step: top' = s top + t row carries gcd(d, a),
                # and the cofactor row, which vanishes at col, goes back on
                # the work list.  (modulus / g) top' is a combination of the
                # cofactor and (modulus / d) top, so every pivot row's
                # annihilated multiple lies in the span of later rows: the
                # Howell property.
                g, s, t = _xgcd(d, a)
                basis[col] = _combine(s, top, t, row, n)
                row = _combine(d // g, row, -(a // g), top, n)
            if row:
                work.append(row)
            break
    # reduce each kept row above the pivots of the rows below it, in pivot order
    pivots = sorted(c for c in basis if c >= start)
    form = []
    for i, col in enumerate(pivots):
        row = basis[col]
        for p in pivots[i + 1:]:
            below = basis[p]
            k = row.get(p, 0) // below[p]
            if k:
                _subtract(row, k, below, n)
        form.append(row)
    return form


def sparse_howell_kernel(rows, ncols: int, modulus: int) -> list[dict[int, int]]:
    """Howell form of {x in (Z/modulus)^ncols : row . x = 0 for every row},
    rows given and returned as in ``sparse_howell_form``, columns below ncols.

    One elimination: the Howell form of [rows^T | I] spans the pairs
    (x rows^T, x), and by the Howell property its rows with pivot past the
    rows^T block span the kernel.  That block's columns are the nonzero rows,
    sparsest first; the kernel does not depend on their order and the form
    is canonical, so the order changes only the work.  The augmented rows
    are built as residue dicts and go to the elimination as they are.
    """
    n = modulus
    if n == 1:  # (Z/1)^ncols is the zero module
        return []
    rows = sorted(_residue_rows(rows, n), key=len)
    split = len(rows)
    augmented = [{split + j: 1} for j in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            augmented[j][i] = v
    return [{c - split: v for c, v in row.items()} for row in _eliminate(augmented, n, split)]


def _width(rows, modulus: int) -> int | None:
    """The common length of rows (None if there are none), after checking the
    modulus and that no row is ragged."""
    if modulus < 1:
        raise ValidationError(f"modulus must be at least 1, got {modulus}")
    widths = sorted({len(row) for row in rows})
    if len(widths) > 1:
        raise ShapeMismatch(f"rows of different widths {widths}")
    return widths[0] if widths else None


def dense_rows(rows, width: int) -> list[list[int]]:
    """Sparse rows as lists of length width."""
    out = []
    for row in rows:
        vec = [0] * width
        for c, v in row.items():
            vec[c] = v
        out.append(vec)
    return out


def _pivots(form, modulus: int) -> list[int]:
    """The pivot column of each row of ``form``, after checking that each row
    has one and that it is a positive divisor of the modulus."""
    cols = [_lead(row) for row in form]
    for row, col in zip(form, cols):
        if col == len(row) or row[col] < 0 or modulus % row[col]:
            raise ValidationError(
                f"form row {row} has no pivot dividing {modulus}: not a Howell form"
            )
    return cols


def _reduce(vec, form, pivots: list[int], modulus: int) -> list[int]:
    """Lexicographically least member of vec + span(form), for dense rows
    ``form`` of a Howell form whose pivot columns, checked by ``_pivots``,
    are ``pivots``."""
    vec = [x % modulus for x in vec]
    for row, col in zip(form, pivots):
        k = vec[col] // row[col]
        if k:
            vec = [(x - k * y) % modulus for x, y in zip(vec, row)]
    return vec


def howell_size(form: list[list[int]], modulus: int) -> int:
    """Number of members of the span of a Howell form."""
    _width(form, modulus)
    return math.prod(modulus // row[col] for row, col in zip(form, _pivots(form, modulus)))


# ----------------------------------------------------------------------
# Invariant factors, quotients and presentations on the addition table.
# ----------------------------------------------------------------------

def _multiples(group: AbelianGroup, g: int, m: int) -> list[int]:
    """Element indices of 0, g, 2g, ..., (m - 1)g."""
    table, n = addition_table(group), group.order
    out = [0]
    for _ in range(m - 1):
        out.append(table[out[-1] * n + g])
    return out


def _cosets(group: AbelianGroup, members, below: frozenset) -> dict:
    """Each index in ``members`` mapped to the least index of its coset of
    ``below``: scanning in element order, the first member of a new coset is
    its least."""
    table, n = addition_table(group), group.order
    rep_of = {}
    for i in sorted(members):
        if i not in rep_of:
            for b in below:
                rep_of[table[i * n + b]] = i
    return rep_of


def _decompose(group: AbelianGroup, members, below: frozenset) -> list[tuple[int, int]]:
    """Invariant-factor generators [(g, m), ...] of <members>/<below> on element
    indices, m_1 >= m_2 >= ... and m_{i+1} | m_i, each g least in its coset.

    Splits off the least coset representative of largest order, recurses on
    the quotient by it and lifts the generators found there, correcting each
    by a multiple of the head so its order is preserved.
    """
    if len(members) == len(below):
        return []
    table, n = addition_table(group), group.order
    rep_of = _cosets(group, members, below)

    def order(x):
        k, acc = 1, x
        while acc not in below:
            acc, k = table[acc * n + x], k + 1
        return k

    head, head_order = max(
        ((x, order(x)) for x in sorted(set(rep_of.values()))), key=lambda pair: pair[1]
    )
    multiples = _multiples(group, head, head_order)
    position = {rep_of[x]: c for c, x in enumerate(multiples)}
    out = [(head, head_order)]
    for gen, m in _decompose(group, members, _span(group, below, head)):
        # m gen lies in <head> + below; find it as c head, then cancel (c // m) head
        c = position.get(rep_of[_multiples(group, gen, m + 1)[-1]])
        if c is None or c % m:
            raise InternalInconsistency("lift correction must be divisible by the quotient order")
        out.append((rep_of[table[gen * n + multiples[-(c // m) % head_order]]], m))
    return out


class Quotient(Value):
    """G/H in cyclic-factor form plus the coset-representative map; the
    representatives' element indices are ``rep_indices``."""

    __slots__ = _fields = ("group", "reps", "rep_indices", "_rep_of")

    def __init__(self, group: AbelianGroup, reps: tuple[Element, ...],
                 rep_indices: tuple[int, ...], _rep_of: dict):
        setfield(self, "group", group)
        setfield(self, "reps", reps)
        setfield(self, "rep_indices", rep_indices)
        setfield(self, "_rep_of", _rep_of)

    def rep_of(self, g: Element) -> Element:
        return self._rep_of[g]


@lru_cache(maxsize=None)
def quotient(group: AbelianGroup, sub: Subgroup) -> Quotient:
    """Quotient group with lexicographically minimal coset representatives,
    built once per (G, H)."""
    if sub.parent != group:
        raise NotSubgroup("subgroup belongs to a different group")
    elems, every = group.elements(), range(group.order)
    below = frozenset(sub.indices)
    rep_of = _cosets(group, every, below)
    reps = sorted(set(rep_of.values()))
    factors = tuple(m for _, m in _decompose(group, every, below)) or (1,)
    q = AbelianGroup(factors)
    if q.order != group.order // sub.order or len(reps) != q.order:
        raise InternalInconsistency(
            f"quotient of order {group.order}/{sub.order} presented with {factors}"
        )
    return Quotient(
        q, tuple(elems[i] for i in reps), tuple(reps),
        {elems[i]: elems[r] for i, r in rep_of.items()},
    )


class Presentation(Value):
    """Explicit isomorphism between a subgroup and a cyclic-factor group."""

    __slots__ = _fields = ("group", "gens", "_to_parent", "_from_parent")

    def __init__(self, group: AbelianGroup, gens: tuple[Element, ...],
                 _to_parent: dict, _from_parent: dict):
        setfield(self, "group", group)
        setfield(self, "gens", gens)
        setfield(self, "_to_parent", _to_parent)
        setfield(self, "_from_parent", _from_parent)

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

    elems, table, n = parent.elements(), addition_table(parent), parent.order
    members = frozenset(sub.indices)
    pairs = _decompose(parent, members, frozenset({0})) or [(0, 1)]
    group = AbelianGroup(tuple(m for _, m in pairs))
    # element index of sum_i c_i gens_i, for coords c in group.elements() order
    index = [0]
    for g, m in pairs:
        index = [table[x * n + k] for x in index for k in _multiples(parent, g, m)]
    to_parent = {coords: elems[i] for coords, i in zip(group.elements(), index)}
    from_parent = {g: coords for coords, g in to_parent.items()}
    if len(from_parent) != sub.order or set(from_parent) != set(sub.elements):
        raise InternalInconsistency("cyclic presentation is not a bijection")
    return Presentation(group, tuple(elems[g] for g, _ in pairs), to_parent, from_parent)


# ----------------------------------------------------------------------
# Characters and the character table.
# ----------------------------------------------------------------------

class Character(Value):
    """chi(g) = prod_i zeta_{n_i}^(coords[i] * g[i]) on the parent group."""

    __slots__ = _fields = ("parent", "coords")

    def __init__(self, parent: AbelianGroup, coords: Element):
        setfield(self, "parent", parent)
        setfield(self, "coords", coords)
        parent.element_index(coords)  # ShapeMismatch unless coords is an element

    def eval(self, g: Element) -> RootOfUnity:
        self.parent._check(g)
        return root_of_unity(self.parent.exponent, self.exponents([g])[0])

    def exponents(self, elems) -> list[int]:
        """chi as an exponent vector: k with chi(g) = z_e^k, e = exp G, for each
        g in elems; k = sum_i c_i g_i (e / n_i) mod e."""
        e = self.parent.exponent
        weights = [c * (e // n) for c, n in zip(self.coords, self.parent.factors)]
        return [sum(w * x for w, x in zip(weights, g)) % e for g in elems]

    def __mul__(self, other: "Character") -> "Character":
        assert self.parent == other.parent
        return Character(self.parent, self.parent.add(self.coords, other.coords))


def characters(group: AbelianGroup) -> list[Character]:
    """All |G| characters, in lexicographic coordinate order."""
    return [Character(group, coords) for coords in group.elements()]


def restrict(chi: Character, sub: Subgroup) -> Character:
    """Restriction to a subgroup, expressed on its cyclic-factor presentation."""
    pres = cyclic_presentation(sub)
    e = chi.parent.exponent
    coords = []
    for k, m in zip(chi.exponents(pres.gens), pres.group.factors):
        # chi(gen) = z_e^k = z_m^(k m / e), defined when e divides k m
        if k * m % e:
            raise InternalInconsistency(
                f"character value of order {e // math.gcd(k, e)} on a generator of order {m}"
            )
        coords.append(k * m // e % m)
    return Character(pres.group, tuple(coords))


def character_table(group: AbelianGroup) -> CycloMatrix:
    """|G| x |G| matrix of chi(g); rows by characters(), columns by elements()."""
    elems = group.elements()
    return CycloMatrix.from_roots([[chi.eval(g) for g in elems] for chi in characters(group)])
