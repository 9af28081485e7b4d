"""find_mu decides before it searches, and searches by one Howell kernel.

After its bound and normalization checks, ``find_mu`` applies the existence
rule to a cocycle known valid, and where psi vanishes on H it returns
mu = 1 without building the equations: with every target 0 the system is
homogeneous, and the zero vector is its least solution.  Otherwise it reads
mu, or None, from one ``sparse_howell_kernel`` call.  These tests hold each
answer to the depth-first search that the kernel replaced
(``cocycle_scan_oracle.searched_mu``) and count the kernel calls.
"""

import itertools
import random

import pytest

import pointedcat.cocycles as cocycles
from pointedcat.battery import enumerate_quadratic_forms
from pointedcat.cocycles import (
    AbelianCocycle,
    apply_coboundary,
    cocycle_failure,
    find_mu,
    form_from_generators,
    standard_cocycle,
    two_cochain_from_table,
)
from pointedcat.cyclotomic import ONE, root_of_unity
from pointedcat.errors import BoundsExceeded, NotACocycle, NotSubgroup, ParseError
from pointedcat.groups import all_subgroups, full_subgroup, parse_group, subgroup_generated

import cocycle_scan_oracle as oracle

# every abelian group of order <= 8
SMALL = ("Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z4xZ2", "Z2xZ2xZ2")


def schedule(sub) -> list[int]:
    """brmod.build_module_cat's value orders for H."""
    exponent = sub.exponent
    return [v for v in (exponent, 2 * exponent, 4 * exponent) if v <= 24] or [exponent]


def psi_on(c, sub) -> tuple[int, ...]:
    group = c.group
    return tuple(c.psi_on([group.element_index(h) for h in sub.elements if any(h)]))


def twist_off(c, sub):
    """c twisted by phi(a, b) = i^(a b^2) (element indices) on the pairs
    outside H x H and 1 on H x H: (delta phi)|_H = 1, so psi|_H is kept."""
    group = c.group
    inside = {group.element_index(h) for h in sub.elements}
    elems = group.elements()
    table = {
        (elems[a], elems[b]): root_of_unity(4, a * b * b)
        for a in range(group.order)
        for b in range(group.order)
        if not (a in inside and b in inside)
    }
    return apply_coboundary(c, two_cochain_from_table(group, elems, table))


def assert_same_mu(c, sub, searches: dict) -> int:
    """find_mu against the search at each value order; returns the count.
    A search is a function of (N, psi on H, H, value order): each is run once."""
    key = (c.conductor, psi_on(c, sub), sub)
    for value_order in schedule(sub):
        if key + (value_order,) not in searches:
            searches[key + (value_order,)] = oracle.searched_mu(c, sub, value_order)
        expected = searches[key + (value_order,)]
        mu = find_mu(c, sub, value_order)
        assert expected is not None and all(v.is_one for v in expected.table)
        assert mu == expected and hash(mu) == hash(expected)
        assert mu.domain == expected.domain and mu.table == expected.table
    return len(schedule(sub))


@pytest.mark.parametrize("literal", SMALL)
def test_mu_one_is_the_first_answer_of_the_search(literal):
    """Every form, every H on which psi vanishes, brmod's value orders: the
    standard cocycle, the dense oracle tables and a coboundary twist whose
    psi vanishes on H but not on G each give the search's first answer.
    The twist reads psi alone, so it is made once per (psi, H)."""
    group = parse_group(literal)
    subs = all_subgroups(group)
    searches, twists = {}, set()
    checked = twisted = 0
    for form in enumerate_quadratic_forms(group):
        standard = standard_cocycle(form)
        dense = AbelianCocycle(group, *oracle.standard_tables_dense(form))
        for sub in subs:
            if any(psi_on(standard, sub)):
                continue
            assert not any(psi_on(dense, sub))
            checked += assert_same_mu(standard, sub, searches)
            checked += assert_same_mu(dense, sub, searches)
            key = (dense.conductor, dense.psi_exp, sub)
            if sub.order < group.order and key not in twists:
                twists.add(key)
                twist = twist_off(standard, sub)
                assert not any(psi_on(twist, sub))
                if any(twist.psi_exp):
                    twisted += assert_same_mu(twist, sub, searches)
    assert checked > 0
    assert twisted > 0 or group.order <= 3


def test_no_search_where_psi_vanishes_on_h(monkeypatch):
    """The trivial form on Z2xZ2 over its four nontrivial H, and a twist on
    Z4 whose psi vanishes on {0, 2} and not on Z4: mu = 1, no search."""
    z2z2, z4 = parse_group("Z2xZ2"), parse_group("Z4")
    trivial = standard_cocycle(form_from_generators(z2z2, [ONE, ONE], {(0, 1): ONE}))
    half = subgroup_generated(z4, [(2,)])
    twist = twist_off(standard_cocycle(form_from_generators(z4, [ONE], {})), half)
    assert any(twist.psi_exp)
    cases = [(trivial, sub) for sub in all_subgroups(z2z2) if sub.order > 1] + [(twist, half)]
    assert len(cases) == 5
    monkeypatch.setattr(cocycles, "sparse_howell_kernel", lambda *args: pytest.fail("searched"))
    for c, sub in cases:
        for value_order in schedule(sub):
            mu = find_mu(c, sub, value_order)
            assert mu == two_cochain_from_table(c.group, sub.elements, {})


def test_one_nonzero_psi_entry_on_h_sends_find_mu_to_the_search(monkeypatch):
    """psi = -1 at one nonzero triple of Z2xZ2 and 1 elsewhere (normalized,
    not a cocycle, never scanned): whichever triple it is, find_mu at value
    order 2 searches and gives the search's answer."""
    group = parse_group("Z2xZ2")
    whole = full_subgroup(group)
    nonzero = [h for h in group.elements() if any(h)]
    searched = []
    kernel = cocycles.sparse_howell_kernel
    monkeypatch.setattr(cocycles, "sparse_howell_kernel",
                        lambda *args: searched.append(args) or kernel(*args))
    for triple in itertools.product(nonzero, repeat=3):
        c = cocycles.cocycle_from_tables(group, {triple: root_of_unity(2, 1)}, {})
        assert find_mu(c, whole, 2) == oracle.searched_mu(c, whole, 2)
    assert len(searched) == 27


def test_existence_rule_needs_a_cocycle_known_valid():
    """On Z2 with psi = 1 and omega(1, 1) = i, q(1)^2 = -1 breaks the rule,
    but the table is no cocycle (it is never scanned): mu = 1 solves it."""
    group = parse_group("Z2")
    c = cocycles.cocycle_from_tables(group, {}, {((1,), (1,)): root_of_unity(4, 1)})
    whole = full_subgroup(group)
    assert find_mu(c, whole, 2) == two_cochain_from_table(group, whole.elements, {})
    assert "cocycle_failure" not in c._results
    assert cocycle_failure(c) is not None


def test_existence_rule_on_scanned_tables(monkeypatch):
    """The dense standard tables of Z4 with q(1) = z8, H = G, value order 16:
    q(1)^4 = -1, so no mu exists.  Once the tables are scanned valid the
    rule decides it, reading no psi entry on H; unscanned, the kernel finds
    none at value orders 4 (as the search does) and 16, and no scan is
    triggered."""
    group = parse_group("Z4")
    form = form_from_generators(group, [root_of_unity(8, 1)], {})
    whole = full_subgroup(group)
    unscanned = AbelianCocycle(group, *oracle.standard_tables_dense(form))
    assert oracle.searched_mu(unscanned, whole, 4) is None
    assert find_mu(unscanned, whole, 4) is None
    assert find_mu(unscanned, whole, 16) is None
    assert "cocycle_failure" not in unscanned._results
    scanned = AbelianCocycle(group, *oracle.standard_tables_dense(form))
    assert cocycle_failure(scanned) is None
    monkeypatch.setattr(AbelianCocycle, "psi_on", lambda *args: pytest.fail("read psi"))
    monkeypatch.setattr(cocycles, "sparse_howell_kernel", lambda *args: pytest.fail("searched"))
    assert find_mu(scanned, whole, 16) is None


def test_errors_come_before_any_psi_entry_is_read(monkeypatch):
    group = parse_group("Z4")
    trivial = standard_cocycle(form_from_generators(group, [ONE], {}))
    unnormalized = cocycles.cocycle_from_tables(group, {((0,), (1,), (1,)): root_of_unity(2, 1)}, {})
    monkeypatch.setattr(AbelianCocycle, "psi_on", lambda *args: pytest.fail("read psi"))
    for value_order in (0, -4):
        with pytest.raises(ParseError, match=f"value order must be at least 1, got {value_order}"):
            find_mu(trivial, full_subgroup(group), value_order)
    with pytest.raises(NotSubgroup, match="subgroup belongs to a different group"):
        find_mu(trivial, full_subgroup(parse_group("Z2")), 2)
    with pytest.raises(BoundsExceeded, match=r"got 4, 48"):
        find_mu(trivial, full_subgroup(group), 48)
    with pytest.raises(NotACocycle, match="mu search requires a normalized cocycle"):
        find_mu(unnormalized, full_subgroup(group), 4)


@pytest.mark.parametrize("literal", SMALL)
def test_find_mu_is_the_first_answer_of_the_search(literal):
    """Every form, every H, brmod's value orders: find_mu on the standard
    cocycle and on an unscanned copy of its tables, which skips the
    existence rule, agree, and equal the search wherever the search is
    cheap: where a mu exists, or where |H| <= 4 and the value order is at
    most 8.  find_mu reads psi and the omega diagonal on H alone, and on
    the unscanned copy, as the search does, psi on H alone: each distinct
    input is run once."""
    group = parse_group(literal)
    subs = all_subgroups(group)
    decided, solved = set(), {}
    searched = 0
    for form in enumerate_quadratic_forms(group):
        standard = standard_cocycle(form)
        unscanned = AbelianCocycle(group, standard.conductor, standard.psi_exp, standard.omega_exp)
        for sub in subs:
            psi = psi_on(standard, sub)
            diagonal = tuple(standard._diagonal[i] for i in sub.indices)
            for value_order in schedule(sub):
                key = (standard.conductor, psi, sub, value_order)
                if (key, diagonal) in decided:
                    continue
                decided.add((key, diagonal))
                if key not in solved:
                    mu = solved[key] = find_mu(unscanned, sub, value_order)
                    if mu is not None or (sub.order <= 4 and value_order <= 8):
                        assert oracle.searched_mu(unscanned, sub, value_order) == mu
                        searched += 1
                assert find_mu(standard, sub, value_order) == solved[key]
    assert "cocycle_failure" not in unscanned._results
    assert searched > 0 or group.order == 1


def test_no_mu_at_value_order_16_is_the_search_verdict():
    """Unscanned Z4xZ2 tables of q(x, y) = z8^(x^2) on H = <(1, 0)>, value
    order 16: q(1, 0)^4 = -1, so no mu exists, and the search exhausts its
    tree (the costliest search this file runs); the kernel finds none too."""
    group = parse_group("Z4xZ2")
    form = form_from_generators(group, [root_of_unity(8, 1), ONE], {})
    sub = subgroup_generated(group, [(1, 0)])
    unscanned = AbelianCocycle(group, *oracle.standard_tables_dense(form))
    assert find_mu(unscanned, sub, 16) is None
    assert oracle.searched_mu(unscanned, sub, 16) is None


def delta(mu, a, b, cc, add):
    """(delta mu)(a, b, cc) = mu(b, cc) mu(a, b + cc) mu(a + b, cc)^-1 mu(a, b)^-1."""
    return mu.at(b, cc) * mu.at(a, add(b, cc)) * mu.at(add(a, b), cc).inv() * mu.at(a, b).inv()


@pytest.mark.parametrize("literal", ["Z4xZ4", "Z2xZ2xZ2xZ2", "Z8xZ2"])
def test_mu_on_order_16_twists_of_the_trivial_form(literal, monkeypatch):
    """The standard cocycle of q = 1 twisted by a seeded mu_4-valued phi: H = G
    of order 16, value order 4, 225 unknowns and 3375 equations, far past
    the search.  A mu exists (phi is one), and the one found trivializes psi
    at every triple."""
    group = parse_group(literal)
    rng = random.Random(literal)
    elems = group.elements()
    phi = two_cochain_from_table(group, elems, {
        (a, b): root_of_unity(4, rng.randrange(4)) for a in elems[1:] for b in elems[1:]
    })
    twist = apply_coboundary(standard_cocycle(form_from_generators(
        group, [ONE] * len(group.factors), {}
    )), phi)
    whole = full_subgroup(group)
    calls = []
    kernel = cocycles.sparse_howell_kernel
    monkeypatch.setattr(cocycles, "sparse_howell_kernel",
                        lambda *args: calls.append(args) or kernel(*args))
    mu = find_mu(twist, whole, 4)
    assert len(calls) == 1 and mu is not None and mu.domain == tuple(elems)
    for a, b, cc in itertools.product(elems, repeat=3):
        assert delta(mu, a, b, cc, group.add) == oracle.psi_at(twist, a, b, cc)


def test_no_mu_on_unscanned_tables_after_one_kernel(monkeypatch):
    """Unscanned Z4xZ2 tables of q(x, y) = z8^(x^2), H = G, value order 16:
    the existence rule is skipped, and the one kernel of 49 unknowns says
    no mu, where the search would try up to 16^49 vectors."""
    group = parse_group("Z4xZ2")
    form = form_from_generators(group, [root_of_unity(8, 1), ONE], {})
    unscanned = AbelianCocycle(group, *oracle.standard_tables_dense(form))
    calls = []
    kernel = cocycles.sparse_howell_kernel
    monkeypatch.setattr(cocycles, "sparse_howell_kernel",
                        lambda *args: calls.append(args) or kernel(*args))
    assert find_mu(unscanned, full_subgroup(group), 16) is None
    (call,) = calls
    assert call[1:] == (50, 16)  # mu's 49 unknowns and the column of -psi
