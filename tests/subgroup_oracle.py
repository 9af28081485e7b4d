"""Reference subgroup engine on element tuples, kept as a test oracle.

This is the engine `pointedcat.groups` used before subgroups moved onto
element indices over `addition_table`: closure by repeated tuple addition,
the lattice BFS that grows every subgroup by every element, the O(|H|^2)
tuple validation of closure under addition and negation, and the
sorted-coset quotient representatives.  The index engine proves closure
from the span of the elements instead, so it rejects the same lists but
names a missing element of the span.  Below them are the invariant-factor
engines: Smith normal form for quotient factors and the recursive tuple
decomposition behind cyclic presentations.  Last come the addition table
built through tuple addition and the isotropic subgroups found by filtering
every subgroup.  `tests/test_subgroup_oracle.py` compares the index engine
with all of it on elements, verdicts, factors and list order.
"""

from __future__ import annotations

from pointedcat import groups
from pointedcat.errors import InternalInconsistency
from pointedcat.groups import AbelianGroup, Subgroup


def _closure(group: AbelianGroup, seed) -> frozenset:
    out = {group.zero}
    frontier = [group.reduce(g) for g in seed]
    out.update(frontier)
    while frontier:
        nxt = []
        for g in frontier:
            for h in list(out):
                s = group.add(g, h)
                if s not in out:
                    out.add(s)
                    nxt.append(s)
        frontier = nxt
    return frozenset(out)


def subgroup_generated(group: AbelianGroup, gens) -> Subgroup:
    return Subgroup(group, tuple(sorted(_closure(group, gens))))


def subgroup_from_elements(group: AbelianGroup, elems) -> Subgroup:
    return Subgroup(group, tuple(sorted({group.reduce(g) for g in elems} | {group.zero})))


def _subgroups_over(group: AbelianGroup, universe) -> list[Subgroup]:
    """All subgroups whose elements lie in the (closed) universe."""
    universe = sorted(universe)
    found = {frozenset({group.zero})}
    frontier = [frozenset({group.zero})]
    while frontier:
        nxt = []
        for current in frontier:
            for g in universe:
                if g in current:
                    continue
                grown = _closure(group, list(current) + [g])
                if grown not in found:
                    found.add(grown)
                    nxt.append(grown)
        frontier = nxt
    subs = [subgroup_from_elements(group, elems) for elems in found]
    subs.sort(key=lambda s: (s.order, s.elements))
    return subs


def all_subgroups(group: AbelianGroup) -> list[Subgroup]:
    return _subgroups_over(group, group.elements())


def subgroups_of(sub: Subgroup) -> list[Subgroup]:
    return _subgroups_over(sub.parent, sub.elements)


def subgroup_failure(parent: AbelianGroup, elems) -> str | None:
    """The NotSubgroup message the tuple validation gives, or None."""
    if list(elems) != sorted(set(elems)):
        return "subgroup element list must be sorted and deduplicated"
    elemset = frozenset(elems)
    if parent.zero not in elemset:
        return "subgroup must contain the identity"
    for g in elems:
        if parent.reduce(g) != g:
            return f"subgroup element {g} is not a reduced element of {parent}"
    for g in elems:
        if parent.neg(g) not in elemset:
            return f"subgroup not closed under negation at {g}"
        for h in elems:
            if parent.add(g, h) not in elemset:
                return f"subgroup not closed under addition at {g}+{h}"
    if parent.order % len(elems) != 0:
        return "subgroup order does not divide the group order"
    return None


def quotient_reps(group: AbelianGroup, sub: Subgroup) -> tuple[tuple, dict]:
    """Lexicographically least coset representatives and the map to them."""
    rep_of = {}
    reps = []
    for g in group.elements():
        if g in rep_of:
            continue
        coset = sorted(group.add(g, h) for h in sub.elements)
        for member in coset:
            rep_of[member] = coset[0]
        reps.append(coset[0])
    reps.sort()
    return tuple(reps), rep_of


# ----------------------------------------------------------------------
# Invariant factors: the Smith normal form of the relation matrix and the
# recursive tuple decomposition, as used before both moved onto one
# decomposition over element indices.
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


def presentation(sub: Subgroup) -> tuple[tuple, tuple, dict]:
    """(generators, factors, to_parent) of the tuple cyclic presentation; the
    whole group keeps its own factors and unit vectors."""
    parent = sub.parent
    if sub.order == parent.order:
        basis = tuple(
            parent.reduce(tuple(1 if j == i else 0 for j in range(parent.rank)))
            for i in range(parent.rank)
        )
        return basis, parent.factors, {g: g for g in parent.elements()}
    pairs = _decompose(list(sub.elements), parent.add, parent.neg, parent.zero)
    if not pairs:
        zero = parent.zero
        return (zero,), (1,), {(0,): zero}
    gens = tuple(g for g, _ in pairs)
    factors = tuple(m for _, m in pairs)
    to_parent = {}
    for coords in AbelianGroup(factors).elements():
        g = parent.zero
        for c, gen in zip(coords, gens):
            g = parent.add(g, parent.scalar_mul(c, gen))
        to_parent[coords] = g
    return gens, factors, to_parent


def quotient_factors(group: AbelianGroup, sub: Subgroup) -> tuple[int, ...]:
    """Invariant factors of G/H from the Smith normal form of its relations."""
    relations = [
        [group.factors[i] if i == j else 0 for j in range(group.rank)]
        for i in range(group.rank)
    ]
    for h in sub.elements:
        relations.append(list(h))
    diag = smith_diagonal(relations)
    return tuple(sorted((d for d in diag if d > 1), reverse=True)) or (1,)


# ----------------------------------------------------------------------
# The addition table through tuple addition, and isotropic subgroups by
# filtering every subgroup of the index engine.
# ----------------------------------------------------------------------

def addition_table(group: AbelianGroup) -> tuple[int, ...]:
    elems = group.elements()
    return tuple(group.element_index(group.add(x, y)) for x in elems for y in elems)


def isotropic_subgroups(category, max_order: int = groups.DEFAULT_MAX_GROUP_ORDER):
    """Every subgroup on which q is identically 1, sigma asserted trivial there."""
    q = category.form
    out = []
    for sub in groups.all_subgroups(category.group, max_order):
        if all(q.q(g).is_one for g in sub.elements):
            for g in sub.elements:
                for h in sub.elements:
                    if not q.pairing(g, h).is_one:
                        raise InternalInconsistency(
                            f"isotropic subgroup with nontrivial pairing at ({g},{h})"
                        )
            out.append(sub)
    return out
