import itertools
import pickle
import random

import pytest

from pointedcat.cyclotomic import CycloMatrix, CycloNumber, root_of_unity
from pointedcat.errors import (
    GroupTooLarge, InternalInconsistency, NotSubgroup, ParseError, ShapeMismatch,
    ValidationError,
)
from pointedcat import brmod, groups
from dense_howell import howell_form, howell_kernel, howell_reduce
from subgroup_oracle import smith_diagonal
from pointedcat.battery import _abelian_groups_of_order
from pointedcat.cocycles import QuadraticForm
from pointedcat.cyclotomic import ONE
from pointedcat.groups import (
    AbelianGroup,
    Character,
    Subgroup,
    addition_table,
    all_subgroups,
    character_table,
    characters,
    cyclic_presentation,
    format_group,
    full_subgroup,
    howell_size,
    parse_group,
    quotient,
    restrict,
    subgroup_from_elements,
    subgroup_generated,
    trivial_subgroup,
)


def test_group_literals():
    assert parse_group("Z2").factors == (2,)
    assert parse_group("z4Xz2").factors == (4, 2)
    assert parse_group("Z2xZ2xZ3").factors == (2, 2, 3)
    assert format_group(AbelianGroup((4, 2))) == "Z4xZ2"
    with pytest.raises(ParseError):
        parse_group("S3")
    with pytest.raises(ParseError):
        parse_group("")


def test_elements_order_is_lexicographic():
    assert parse_group("Z2").elements() == [(0,), (1,)]
    assert parse_group("Z2xZ2").elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert parse_group("Z4").elements() == [(0,), (1,), (2,), (3,)]


def test_arithmetic():
    g = parse_group("Z4")
    assert g.add((3,), (2,)) == (1,)
    assert g.neg((1,)) == (3,)
    assert g.element_order((2,)) == 2
    with pytest.raises(ShapeMismatch):
        g.add((1, 0), (1,))


def test_element_index_rejects_unreduced_coordinates():
    """(0, 2) is not (1, 0) in Z2xZ2, and (7,) lies past the end of Z4."""
    g22, z4 = parse_group("Z2xZ2"), parse_group("Z4")
    with pytest.raises(ShapeMismatch, match=r"^\(0, 2\) is not a reduced element of Z2xZ2$"):
        g22.element_index((0, 2))
    with pytest.raises(ShapeMismatch, match=r"^\(7,\) is not a reduced element of Z4$"):
        z4.element_index((7,))
    with pytest.raises(ShapeMismatch, match="has 1 coordinates, group has 2"):
        g22.element_index((0,))
    minus = root_of_unity(2, 1)
    form = QuadraticForm(g22, (ONE, ONE, minus, minus))  # q(1, 0) = -1
    assert form.q((1, 0)) == minus and form.q((0, 0)) == ONE
    with pytest.raises(ShapeMismatch):
        form.q((0, 2))
    with pytest.raises(ShapeMismatch):
        Character(z4, (5,))


TABLE_GROUPS = [g for n in range(1, 33) for g in _abelian_groups_of_order(n)]


@pytest.mark.parametrize("group", TABLE_GROUPS + [AbelianGroup((16, 16))], ids=str)
def test_element_tables_match_tuple_arithmetic(group):
    elems, index_of, negation = groups.element_tables(group.factors)
    factors, n, table = group.factors, group.order, addition_table(group)
    assert list(elems) == list(itertools.product(*(range(m) for m in factors)))
    assert group.elements() == list(elems) and len(index_of) == n
    for i, g in enumerate(elems):
        assert group.element_index(g) == i == index_of[g]
        assert elems[negation[i]] == tuple((-c) % m for c, m in zip(g, factors))
        assert group.neg(g) == elems[negation[i]]
        assert table[i * n + negation[i]] == 0
    rng = random.Random(f"tables {group}")
    pairs = itertools.product(range(n), repeat=2) if n <= 32 else (
        (rng.randrange(n), rng.randrange(n)) for _ in range(2000)
    )
    for i, j in pairs:
        assert group.element_index(group.add(elems[i], elems[j])) == table[i * n + j]


def test_elements_returns_a_fresh_list():
    group = parse_group("Z2xZ3")
    product = list(itertools.product(range(2), range(3)))
    first = group.elements()
    first[0] = (9, 9)
    first.reverse()
    first.append((1, 1))
    assert group.elements() == product
    assert [group.element_index(g) for g in product] == list(range(6))
    with pytest.raises(ShapeMismatch):
        group.element_index((9, 9))


def test_subgroup_generated():
    g = parse_group("Z4")
    assert subgroup_generated(g, [(2,)]).elements == ((0,), (2,))
    g22 = parse_group("Z2xZ2")
    assert subgroup_generated(g22, [(1, 0), (0, 1)]).order == 4
    assert subgroup_generated(g22, []).elements == ((0, 0),)


def test_subgroup_validation():
    g = parse_group("Z4")
    with pytest.raises(NotSubgroup):
        # not closed: {0, 1} misses 2
        from pointedcat.groups import Subgroup
        Subgroup(g, ((0,), (1,)))



# The outcome of each corruption on Z2xZ4.  A list that is not closed names
# the least element of the span of its elements that it misses: (0, 1) spans
# {0, 1, 2, 3}, so both lists miss (0, 2).
NOT_CLOSED = "subgroup not closed: its elements generate (0, 2), not among them"
SUBGROUP_CORRUPTIONS = {
    "addition": (((0, 0), (0, 1), (0, 3)), NotSubgroup, NOT_CLOSED),
    "negation": (((0, 0), (0, 1)), NotSubgroup, NOT_CLOSED),
    "identity": (((0, 2), (1, 0), (1, 2)), NotSubgroup, "subgroup must contain the identity"),
    "unsorted": (((0, 0), (1, 0), (0, 2), (1, 2)),
                 NotSubgroup, "subgroup element list must be sorted and deduplicated"),
    "duplicated": (((0, 0), (0, 2), (0, 2), (1, 0), (1, 2)),
                   NotSubgroup, "subgroup element list must be sorted and deduplicated"),
    # unreduced tuples are refused before the closure and order checks
    "unreduced": (((0, 0), (0, 6), (1, 0), (1, 2)),
                  NotSubgroup, "subgroup element (0, 6) is not a reduced element of Z2xZ4"),
    "unreduced-order": (((0, 0), (0, 2), (0, 4)),
                        NotSubgroup, "subgroup element (0, 4) is not a reduced element of Z2xZ4"),
    "wrong-length": (((0, 0), (0, 2), (0, 2, 0), (1, 0), (1, 2)),
                     ShapeMismatch, "element (0, 2, 0) has 3 coordinates, group has 2"),
    "wrong-length-no-identity": (((0, 0, 0), (0, 2)),
                                 NotSubgroup, "subgroup must contain the identity"),
}


@pytest.mark.parametrize("name", SUBGROUP_CORRUPTIONS)
def test_subgroup_validation_classes_and_messages(name):
    elems, cls, message = SUBGROUP_CORRUPTIONS[name]
    with pytest.raises(cls) as info:
        Subgroup(parse_group("Z2xZ4"), elems)
    assert info.type is cls and str(info.value) == message


def test_order_is_kept_from_construction():
    group = parse_group("Z4xZ2xZ3")
    assert group.order == 24 and repr(group) == "AbelianGroup(factors=(4, 2, 3))"
    assert pickle.loads(pickle.dumps(group)).order == 24
    with pytest.raises(AttributeError, match="cannot assign to field 'order'"):
        group.order = 1


def test_unreduced_elements_are_bad_input_not_an_abort():
    # their reductions {0, 2} are closed, and 4 divides |Z4|: once accepted as
    # an order-4 subgroup, it made quotient raise InternalInconsistency
    group = parse_group("Z4")
    with pytest.raises(NotSubgroup, match=r"^subgroup element \(4,\) is not a reduced element of Z4$"):
        Subgroup(group, ((0,), (2,), (4,), (6,)))


def test_subgroup_keeps_indices_and_hash():
    group = parse_group("Z2xZ4")
    for sub in all_subgroups(group):
        assert sub.indices == tuple(map(group.element_index, sub.elements))
        assert hash(sub) == hash((sub.parent, sub.elements))
        copy = Subgroup(group, sub.elements)
        assert copy == sub and hash(copy) == hash(sub)
        assert all(sub.contains(g) for g in sub.elements)
        assert sum(map(sub.contains, group.elements())) == sub.order
        assert not sub.contains((0, 4))
        pres = cyclic_presentation(sub)
        hits = cyclic_presentation.cache_info().hits
        assert cyclic_presentation(copy) is pres
        assert cyclic_presentation.cache_info().hits == hits + 1


class _CountingTable:
    """A table that counts the entries read from it."""

    def __init__(self, table):
        self.table, self.reads = table, 0

    def __getitem__(self, k):
        self.reads += 1
        return self.table[k]


@pytest.mark.parametrize("literal", ["Z2xZ2xZ2xZ2xZ2xZ2", "Z8xZ8xZ4"])
def test_construction_reads_at_most_twice_the_order(literal, monkeypatch):
    """The span proof reads each element's coset sums once, plus one step per
    coset: at most 2|H| addition-table entries, never the |H|^2 of a pair
    scan.  A work count, not a timing."""
    group = parse_group(literal)
    subs = all_subgroups(group)
    counting = _CountingTable(addition_table(group))
    monkeypatch.setattr(groups, "addition_table", lambda g: counting)
    for sub in subs:
        counting.reads = 0
        assert Subgroup(group, sub.elements) == sub
        assert counting.reads <= 2 * sub.order, (sub.elements, counting.reads)


def test_equal_element_sets_are_equal_subgroups():
    z4, z22 = parse_group("Z4"), parse_group("Z2xZ2")
    a, b = subgroup_generated(z4, [(1,), (2,)]), subgroup_generated(z4, [(1,)])
    assert a == b and hash(a) == hash(b)
    assert subgroup_generated(z22, [(1, 0), (0, 1)]) == full_subgroup(z22)


def test_equal_subgroups_share_every_memo_keyed_by_a_subgroup():
    """Each memo reads only a subgroup's parent, elements and indices, so one
    built from other generators, or from its elements, is a cache hit."""
    group = parse_group("Z4xZ4")
    first = subgroup_generated(group, [(1, 1), (2, 0)])
    second = subgroup_from_elements(group, reversed(first.elements))
    assert second == first and second is not first
    calls = [
        (quotient, lambda sub: (group, sub)),
        (cyclic_presentation, lambda sub: (sub,)),
        (groups._subgroups_within, lambda sub: (sub,)),
        (brmod._lift_table, lambda sub: (sub,)),
        (brmod._is_character_table, lambda sub: ((), (), sub, 4)),
    ]
    for memo, args in calls:
        kept = memo(*args(first))
        hits = memo.cache_info().hits
        assert memo(*args(second)) is kept
        assert memo.cache_info().hits == hits + 1, memo.__name__

# -- all_subgroups against a brute-force oracle -------------------------

def oracle_subgroups(group):
    """Close every subset of G and collect the distinct results."""
    elems = group.elements()
    found = set()
    for size in range(len(elems) + 1):
        for subset in itertools.combinations(elems, size):
            closure = {group.zero}
            frontier = list(subset)
            closure.update(frontier)
            while frontier:
                nxt = []
                for a in frontier:
                    for b in list(closure):
                        s = group.add(a, b)
                        if s not in closure:
                            closure.add(s)
                            nxt.append(s)
                frontier = nxt
            found.add(frozenset(closure))
    return found


@pytest.mark.parametrize("literal,count", [("Z2xZ2", 5), ("Z4", 3), ("Z5", 2)])
def test_all_subgroups_counts(literal, count):
    group = parse_group(literal)
    subs = all_subgroups(group)
    assert len(subs) == count
    assert {frozenset(s.elements) for s in subs} == oracle_subgroups(group)


def test_all_subgroups_sorted_and_lagrange():
    group = parse_group("Z2xZ4")
    subs = all_subgroups(group)
    assert {frozenset(s.elements) for s in subs} == oracle_subgroups(group)
    keys = [(s.order, s.elements) for s in subs]
    assert keys == sorted(keys)
    for s in subs:
        assert group.order % s.order == 0


@pytest.mark.parametrize("literal", ["Z2xZ4", "Z3xZ3", "Z12"])
def test_lattice_closed_under_intersection(literal):
    group = parse_group(literal)
    subs = all_subgroups(group)
    lattice = {frozenset(s.elements) for s in subs}
    for a in subs:
        for b in subs:
            assert frozenset(set(a.elements) & set(b.elements)) in lattice


def test_all_subgroups_bound():
    with pytest.raises(GroupTooLarge):
        all_subgroups(parse_group("Z32"), max_order=16)


# -- quotients -----------------------------------------------------------

def test_quotient_examples():
    g4 = parse_group("Z4")
    q = quotient(g4, subgroup_generated(g4, [(2,)]))
    assert q.group.factors == (2,)
    assert q.reps == ((0,), (1,))

    q_id = quotient(g4, trivial_subgroup(g4))
    assert q_id.group.order == 4
    assert q_id.reps == tuple(g4.elements())

    g22 = parse_group("Z2xZ2")
    q_diag = quotient(g22, subgroup_generated(g22, [(1, 1)]))
    assert q_diag.group.factors == (2,)
    assert q_diag.reps == ((0, 0), (0, 1))
    assert q_diag.rep_of((1, 1)) == (0, 0)
    assert q_diag.rep_of((1, 0)) == (0, 1)


def test_quotient_orders_and_fibers():
    group = parse_group("Z2xZ4")
    for sub in all_subgroups(group):
        q = quotient(group, sub)
        assert q.group.order == group.order // sub.order
        fibers = {}
        for g in group.elements():
            fibers.setdefault(q.rep_of(g), []).append(g)
        assert set(fibers) == set(q.reps)
        assert all(len(v) == sub.order for v in fibers.values())


def test_quotient_rejects_foreign_subgroup():
    with pytest.raises(NotSubgroup):
        quotient(parse_group("Z4"), trivial_subgroup(parse_group("Z2")))


def test_smith_diagonal():
    assert smith_diagonal([[2, 0], [0, 4]]) == [2, 4]
    assert smith_diagonal([[4, 0], [0, 2]]) == [2, 4]
    # relation matrix of Z4 x Z4 mod the diagonal Z4: quotient is Z4
    diag = smith_diagonal([[4, 0], [0, 4], [1, 1]])
    assert [d for d in diag if d > 1] == [4]


# -- Howell form over Z/N ------------------------------------------------

def _span(rows, ncols, modulus):
    """Oracle: every Z/N-combination of the rows, by closure under addition."""
    span = {(0,) * ncols}
    frontier = list(span)
    while frontier:
        nxt = []
        for vec in frontier:
            for row in rows:
                new = tuple((x + y) % modulus for x, y in zip(vec, row))
                if new not in span:
                    span.add(new)
                    nxt.append(new)
        frontier = nxt
    return span


def _random_systems():
    rng = random.Random(7)
    for modulus in (1, 2, 4, 6, 8, 9, 12):
        for _ in range(6):
            ncols = rng.randint(1, 3)
            rows = [[rng.randrange(modulus) for _ in range(ncols)]
                    for _ in range(rng.randint(0, 3))]
            yield modulus, ncols, rows


def test_howell_form_example():
    # mod 4, (2, 1) spans 2 * (2, 1) = (0, 2), which an echelon form alone misses
    assert howell_form([[2, 1]], 4) == [[2, 1], [0, 2]]
    assert howell_size([[2, 1], [0, 2]], 4) == 4
    assert howell_form([[3, 0], [0, 6]], 12) == [[3, 0], [0, 6]]
    assert howell_form([[12, 24]], 12) == []


def test_howell_form_is_canonical_and_sized():
    for modulus, ncols, rows in _random_systems():
        form = howell_form(rows, modulus)
        span = _span(rows, ncols, modulus)
        assert _span(form, ncols, modulus) == span
        assert howell_size(form, modulus) == len(span)
        assert howell_form(form[::-1] + rows, modulus) == form
        for row in form:
            pivot = next(i for i, x in enumerate(row) if x)
            assert modulus % row[pivot] == 0


def test_howell_reduce_is_lexicographic_minimum():
    for modulus, ncols, rows in _random_systems():
        form = howell_form(rows, modulus)
        span = _span(rows, ncols, modulus)
        for vec in itertools.product(range(modulus), repeat=ncols):
            least = min(
                tuple((x + y) % modulus for x, y in zip(vec, member)) for member in span
            )
            assert tuple(howell_reduce(vec, form, modulus)) == least


def test_howell_kernel_matches_brute_force():
    for modulus, ncols, rows in _random_systems():
        kernel = {
            vec for vec in itertools.product(range(modulus), repeat=ncols)
            if all(sum(a * x for a, x in zip(row, vec)) % modulus == 0 for row in rows)
        }
        basis = howell_kernel(rows, ncols, modulus)
        assert basis == howell_form(basis, modulus)
        assert _span(basis, ncols, modulus) == kernel


def test_howell_size_rejects_a_ragged_form():
    with pytest.raises(ShapeMismatch):
        howell_size([[1, 0], [1]], 4)


@pytest.mark.parametrize("modulus", [0, -4])
def test_howell_size_rejects_a_modulus_below_one(modulus):
    with pytest.raises(ValidationError, match="modulus must be at least 1"):
        howell_size([[1, 0]], modulus)



@pytest.mark.parametrize("function, args", [
    (howell_reduce, ([1, 0], [[0, 0]], 4)),  # a zero row
    (howell_size, ([[0, 0]], 4)),
    (howell_reduce, ([1, 0], [[1, 0], [0, 0]], 4)),
    (howell_size, ([[3, 0]], 4)),  # a pivot that does not divide 4
    (howell_reduce, ([1, 0], [[3, 0]], 4)),
    (howell_size, ([[2, 1], [0, -2]], 4)),  # a negative pivot
])
def test_howell_rejects_a_form_that_is_not_howell(function, args):
    with pytest.raises(ValidationError, match="not a Howell form"):
        function(*args)

# -- characters ----------------------------------------------------------

def test_characters_z2():
    g = parse_group("Z2")
    values = [chi.eval((1,)) for chi in characters(g)]
    assert values == [root_of_unity(1, 0), root_of_unity(2, 1)]


def test_character_eval_z4():
    g = parse_group("Z4")
    chi = characters(g)[1]
    assert chi.coords == (1,)
    assert chi.eval((1,)) == root_of_unity(4, 1)


def test_characters_are_homomorphisms():
    for literal in ("Z2", "Z3", "Z4", "Z2xZ2", "Z2xZ4"):
        g = parse_group(literal)
        for chi in characters(g):
            for a in g.elements():
                for b in g.elements():
                    assert chi.eval(g.add(a, b)) == chi.eval(a) * chi.eval(b)


def test_restrict_to_diagonal():
    g = parse_group("Z2xZ2")
    diag = subgroup_generated(g, [(1, 1)])
    chi = characters(g)[g.element_index((1, 0))]
    restricted = restrict(chi, diag)
    assert restricted.parent.factors == (2,)
    assert restricted.coords == (1,)
    # restriction agrees with chi on every subgroup element
    pres = cyclic_presentation(diag)
    for coords in pres.group.elements():
        assert restricted.eval(coords) == chi.eval(pres.to_parent(coords))


def test_restrict_is_multiplicative():
    g = parse_group("Z2xZ4")
    sub = subgroup_generated(g, [(1, 2)])
    for chi in characters(g):
        for psi in characters(g):
            lhs = restrict(chi * psi, sub)
            rhs = restrict(chi, sub) * restrict(psi, sub)
            assert lhs.coords == rhs.coords


def test_restrict_agrees_with_chi_on_every_subgroup():
    for literal in ("Z4", "Z2xZ4", "Z3xZ6", "Z8xZ2"):
        group = parse_group(literal)
        for sub in all_subgroups(group):
            pres = cyclic_presentation(sub)
            for chi in characters(group):
                restricted = restrict(chi, sub)
                for coords in pres.group.elements():
                    assert restricted.eval(coords) == chi.eval(pres.to_parent(coords))


def test_restrict_refuses_a_generator_of_too_small_an_order(monkeypatch):
    """A presentation claiming (1,) in Z4 has order 2 cannot carry chi(1) = i."""
    import pointedcat.groups as groups

    z4 = parse_group("Z4")
    wrong = groups.Presentation(AbelianGroup((2,)), ((1,),), {}, {})
    monkeypatch.setattr(groups, "cyclic_presentation", lambda sub: wrong)
    with pytest.raises(
        InternalInconsistency,
        match="character value of order 4 on a generator of order 2",
    ):
        restrict(characters(z4)[1], subgroup_generated(z4, [(1,)]))
    assert restrict(characters(z4)[2], subgroup_generated(z4, [(1,)])).coords == (1,)


def test_cyclic_presentation_every_subgroup():
    for literal in ("Z2", "Z4", "Z2xZ2", "Z2xZ4", "Z3xZ3"):
        group = parse_group(literal)
        for sub in all_subgroups(group):
            pres = cyclic_presentation(sub)
            assert pres.group.order == sub.order
            seen = {pres.to_parent(c) for c in pres.group.elements()}
            assert seen == set(sub.elements)
            if sub.order == group.order:
                # the whole group keeps its own coordinates
                assert pres.group == group
                continue
            for gen, order in zip(pres.gens, pres.group.factors):
                if sub.order > 1:
                    assert group.element_order(gen) == order or order == 1
            # invariant factors descend and divide
            factors = pres.group.factors
            for a, b in zip(factors, factors[1:]):
                assert a % b == 0


def test_character_table_examples():
    one = CycloNumber.one()
    minus = CycloNumber.from_rational(-1)
    assert character_table(parse_group("Z2")) == CycloMatrix.from_rows(
        [[one, one], [one, minus]]
    )
    assert character_table(AbelianGroup((1,))) == CycloMatrix.from_rows([[one]])


def test_character_table_z3_unitary():
    table = character_table(parse_group("Z3"))
    gram = table.matmul(table.conj().transpose())
    assert gram == CycloMatrix.identity(3).scale(CycloNumber.from_rational(3))


def _abelian_groups_up_to(n):
    from pointedcat.battery import _abelian_groups_of_order

    out = []
    for order in range(1, n + 1):
        out.extend(_abelian_groups_of_order(order))
    return out


def test_character_table_invertible_up_to_16():
    for group in _abelian_groups_up_to(16):
        assert character_table(group).rank() == group.order


def test_subgroup_from_elements_dedupes():
    g = parse_group("Z4")
    sub = subgroup_from_elements(g, [(2,), (0,), (2,)])
    assert sub.elements == ((0,), (2,))
