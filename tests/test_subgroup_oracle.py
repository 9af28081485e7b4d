"""The index subgroup engine against the tuple engine in subgroup_oracle.py,
the invariant factors against Smith normal form and the tuple decomposition,
isotropic growth against filtering every subgroup, and the Lagrangian count
of D(A) against its closed form."""

import itertools
import math
import random
import sys

import pytest

import subgroup_oracle as oracle
from pointedcat.battery import _abelian_groups_of_order, enumerate_quadratic_forms
from pointedcat.cocycles import QuadraticForm
from pointedcat.errors import GroupTooLarge, InternalInconsistency, NotSubgroup
from pointedcat.groups import (
    AbelianGroup,
    Subgroup,
    _decompose,
    addition_table,
    all_subgroups,
    cyclic_presentation,
    parse_group,
    quotient,
    subgroup_from_elements,
    subgroup_generated,
    subgroups_of,
)
from pointedcat.metric import (
    PointedBFC,
    detect_center,
    drinfeld_double,
    isotropic_subgroups,
    lagrangian_subgroups,
    make_category,
)

GROUPS = [g for n in range(1, 25) for g in _abelian_groups_of_order(n)] + [parse_group("Z6xZ6")]


def _same(subs, expected):
    assert [(s.elements, s.generators) for s in subs] == [
        (s.elements, s.generators) for s in expected
    ]


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_lattice_matches_tuple_oracle(group):
    subs = all_subgroups(group)
    _same(subs, oracle.all_subgroups(group))
    # subgroups_of on the largest proper subgroups and on the whole group
    for sub in [s for s in subs if s.order * 2 >= group.order][:3]:
        _same(subgroups_of(sub), oracle.subgroups_of(sub))
    for sub in subs:
        q = quotient(group, sub)
        reps, rep_of = oracle.quotient_reps(group, sub)
        assert q.reps == reps
        assert {g: q.rep_of(g) for g in group.elements()} == rep_of


@pytest.mark.parametrize(
    "group",
    GROUPS + [AbelianGroup(f) for f in [(16, 16), (2,) * 6, (8, 8), (3, 1, 2)]],
    ids=str,
)
def test_addition_table_matches_tuple_oracle(group):
    assert addition_table.__wrapped__(group) == oracle.addition_table(group)


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_builders_match_tuple_oracle(group):
    rng = random.Random(f"builders {group}")
    elems = group.elements()
    for _ in range(12):
        gens = [rng.choice(elems) for _ in range(rng.randint(0, 3))]
        # unreduced coordinates are reduced by both engines
        gens = [tuple(c + n * rng.randint(-1, 1) for c, n in zip(g, group.factors))
                for g in gens]
        built = subgroup_generated(group, gens)
        expected = oracle.subgroup_generated(group, gens)
        assert (built.elements, built.generators) == (expected.elements, expected.generators)
        members = list(built.elements) * 2
        rng.shuffle(members)
        built = subgroup_from_elements(group, members)
        expected = oracle.subgroup_from_elements(group, members)
        assert (built.elements, built.generators) == (expected.elements, expected.generators)


# Z4xZ4 is the first group whose quotient generators need the lift correction
# (by <(2, 2)>), Z8xZ8 the first whose presentations do (of <(0, 2), (2, 1)>).
@pytest.mark.parametrize("group", GROUPS + [parse_group("Z8xZ8")], ids=str)
def test_invariant_factors_match_tuple_oracle(group):
    elems = group.elements()
    for sub in all_subgroups(group):
        pres = cyclic_presentation(sub)
        assert (pres.gens, pres.group.factors, pres._to_parent) == oracle.presentation(sub)
        assert quotient(group, sub).group.factors == oracle.quotient_factors(group, sub)
        # the tuple decomposition of G/H, run on its least coset representatives
        reps, rep_of = oracle.quotient_reps(group, sub)
        expected = oracle._decompose(
            list(reps), lambda a, b: rep_of[group.add(a, b)],
            lambda a: rep_of[group.neg(a)], group.zero,
        )
        below = frozenset(map(group.element_index, sub.elements))
        got = _decompose(group, range(group.order), below)
        assert [(elems[g], m) for g, m in got] == expected


@pytest.mark.parametrize("literal", ["Z4xZ2", "Z2xZ2xZ2", "Z6xZ6"])
def test_presentations_and_quotients_make_no_tuple_arithmetic(literal, monkeypatch):
    group = parse_group(literal)
    subs = all_subgroups(group)

    def refuse(*args):
        raise AssertionError("tuple arithmetic")

    for name in ("add", "neg", "scalar_mul"):
        monkeypatch.setattr(AbelianGroup, name, refuse)
    for sub in subs:
        pres = cyclic_presentation.__wrapped__(sub)
        assert len(pres.group.elements()) == sub.order
        assert quotient(group, sub).group.order * sub.order == group.order


def _message(group, elems):
    try:
        Subgroup(group, tuple(elems), ())
    except NotSubgroup as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("literal", ["Z2", "Z4", "Z6", "Z2xZ2", "Z2xZ4", "Z3xZ3", "Z8"])
def test_validation_messages_match_tuple_oracle(literal):
    group = parse_group(literal)
    rng = random.Random(f"validation {literal}")
    elems = group.elements()
    cases = [list(s.elements) for s in all_subgroups(group)]
    for _ in range(60):
        subset = sorted(rng.sample(elems, rng.randint(1, len(elems))))
        cases += [subset, subset[::-1], subset + subset[-1:]]
    # unreduced coordinates are refused before any closure check: (4,) is not 0 in Z4
    unreduced = [[(0,), (2,), (4,)], [(0,), (2,), (4,), (6,)], [(0,), (1,), (2,), (7,)]]
    for case in cases + unreduced:
        if len(case[0]) != group.rank:
            continue
        assert _message(group, case) == oracle.subgroup_failure(group, case), case
    if group.rank == 1:
        for case in unreduced:
            bad = [g for g in case if g[0] >= group.order]
            if bad:
                assert _message(group, case) == (
                    f"subgroup element {bad[0]} is not a reduced element of {group}"
                )
    assert _message(group, elems[1:2]) == "subgroup must contain the identity"


def _alternating_count(sub):
    m = cyclic_presentation(sub).group.factors
    return math.prod(math.gcd(a, b) for a, b in itertools.combinations(m, 2))


@pytest.mark.parametrize(
    "group", [g for n in range(1, 9) for g in _abelian_groups_of_order(n)], ids=str
)
def test_lagrangians_of_double_count_alternating_bicharacters(group):
    """Lagrangians of D(A) are pairs (H <= A, alternating bicharacter on H);
    on H = sum Z/m_i there are prod_(i<j) gcd(m_i, m_j) of those."""
    expected = sum(_alternating_count(sub) for sub in all_subgroups(group))
    assert len(lagrangian_subgroups(drinfeld_double(group))) == expected


def test_alternating_counts_of_the_order_8_doubles():
    counts = {str(g): sum(_alternating_count(s) for s in all_subgroups(g))
              for g in _abelian_groups_of_order(8)}
    assert counts == {"Z8": 4, "Z4xZ2": 10, "Z2xZ2xZ2": 30}


# -- isotropic growth --------------------------------------------------------

SMALL_GROUPS = [g for n in range(1, 9) for g in _abelian_groups_of_order(n)]


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=str)
def test_isotropic_growth_matches_the_filter_on_every_small_form(group):
    """Every quadratic form of the group, degenerate ones included: 664 forms
    over the orders 1-8."""
    for form in enumerate_quadratic_forms(group):
        cat = make_category(form)
        _same(isotropic_subgroups(cat), oracle.isotropic_subgroups(cat))


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=str)
def test_isotropic_growth_matches_the_filter_on_doubles(group):
    double = drinfeld_double(group)
    _same(isotropic_subgroups(double), oracle.isotropic_subgroups(double))


def _patch_everywhere(monkeypatch, name, replacement):
    """Replace groups.<name> in every pointedcat module bound to it."""
    original = getattr(sys.modules["pointedcat.groups"], name)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("pointedcat") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def test_isotropic_growth_builds_only_the_isotropic_subgroups(monkeypatch):
    """D(Z2xZ2xZ2) has 2825 subgroups; 171 are isotropic and only those are
    built.  A work count, not a timing."""
    double = drinfeld_double(parse_group("Z2xZ2xZ2"))
    built, enumerations = [], []
    init = Subgroup.__init__

    def counted(self, parent, elements, generators):
        built.append(elements)
        init(self, parent, elements, generators)

    monkeypatch.setattr(Subgroup, "__init__", counted)
    _patch_everywhere(monkeypatch, "all_subgroups",
                      lambda *args: enumerations.append(args) or all_subgroups(*args))
    report = detect_center(double)
    assert len(built) == 171 and enumerations == []
    assert report.is_center and report.lagrangian_count == 30


@pytest.mark.parametrize("literal, first, second", [
    ("Z2xZ2", (1, 0, 0, 0), (1, 0, 0, 0)),  # sigma(g, g) on <g>
    ("Z2xZ2", (1, 0, 0, 0), (0, 1, 0, 0)),  # sigma(g, h) on <g, h>
    ("Z4", (2, 0), (3, 0)),                 # sigma(2g, 3g) on <g>
])
def test_isotropic_growth_still_checks_sigma(literal, first, second):
    """sigma patched to be nontrivial at one pair (and its mirror) of an
    isotropic subgroup aborts, as it does in the filter."""
    kept = drinfeld_double(parse_group(literal))
    group, n = kept.group, kept.group.order
    form = QuadraticForm(group, kept.form.values)
    sigma = list(form.sigma_exp)
    i, j = group.element_index(first), group.element_index(second)
    sigma[i * n + j] = sigma[j * n + i] = 1
    object.__setattr__(form, "sigma_exp", tuple(sigma))
    cat = PointedBFC(group, form, None, "patched")
    with pytest.raises(InternalInconsistency, match="nontrivial pairing"):
        isotropic_subgroups(cat)
    with pytest.raises(InternalInconsistency, match="nontrivial pairing"):
        oracle.isotropic_subgroups(cat)


def test_isotropic_bound_is_checked_before_any_enumeration(monkeypatch):
    double = drinfeld_double(parse_group("Z4"))

    def refuse(*args):
        raise AssertionError("enumerated past the bound")

    for name in ("_subgroups_over", "addition_table", "all_subgroups"):
        _patch_everywhere(monkeypatch, name, refuse)
    with pytest.raises(GroupTooLarge, match=r"^\|G\| = 16 exceeds the bound 15$"):
        isotropic_subgroups(double, max_order=15)
    with pytest.raises(GroupTooLarge, match=r"^\|G\| = 16 exceeds the bound 15$"):
        lagrangian_subgroups(double, max_order=15)
