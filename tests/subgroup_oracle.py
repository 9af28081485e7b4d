"""Reference subgroup engine on element tuples, kept as a test oracle.

This is the engine `pointedcat.groups` used before subgroups moved onto
element indices over `addition_table`: closure by repeated tuple addition,
greedy generators that re-close at every step, the lattice BFS that grows
every subgroup by every element, the O(|H|^2) tuple validation and the
sorted-coset quotient representatives.  `tests/test_subgroup_oracle.py`
compares the index engine with it on elements, generators and list order.
"""

from __future__ import annotations

from pointedcat.groups import AbelianGroup, Element, Subgroup


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
    gens = tuple(group.reduce(g) for g in gens)
    elems = tuple(sorted(_closure(group, gens)))
    return Subgroup(group, elems, gens)


def subgroup_from_elements(group: AbelianGroup, elems) -> Subgroup:
    elems = tuple(sorted({group.reduce(g) for g in elems} | {group.zero}))
    return Subgroup(group, elems, minimal_generators(group, elems))


def minimal_generators(group: AbelianGroup, elems) -> tuple[Element, ...]:
    """Greedy generating set, scanning the sorted element list."""
    gens: list[Element] = []
    have = frozenset({group.zero})
    target = frozenset(elems)
    for g in sorted(elems):
        if g in have:
            continue
        gens.append(g)
        have = _closure(group, gens)
        if have == target:
            break
    return tuple(gens)


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
