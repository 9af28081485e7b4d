import itertools

import pytest

from pointedcat import cocycles
from pointedcat.cyclotomic import ONE, root_of_unity
from pointedcat.errors import (
    BoundsExceeded,
    ConventionError,
    GroupTooLarge,
    InvalidQuadraticForm,
    NotACocycle,
    NotRealizable,
    OrderTooLarge,
)
from pointedcat.groups import (
    dense_rows,
    full_subgroup,
    parse_group,
    sparse_howell_kernel,
    subgroup_generated,
    _pivots,
    _reduce,
)
from pointedcat.cocycles import (
    QuadraticForm,
    apply_coboundary,
    check_hexagons,
    check_pentagon,
    classify_h3ab,
    cocycle_from_tables,
    cocycle_failure,
    find_mu,
    standard_cocycle,
    trace_form,
    two_cochain_from_table,
)
from pointedcat.battery import enumerate_quadratic_forms

from cocycle_scan_oracle import omega_at, psi_at
from h3ab_search import classify_h3ab_by_search
import howell_oracle

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z4 = parse_group("Z4")
I = root_of_unity(4, 1)
MINUS = root_of_unity(2, 1)

e = (1,)


def z2_cocycle(psi_111=ONE, omega_11=ONE):
    return cocycle_from_tables(Z2, {(e, e, e): psi_111}, {(e, e): omega_11})


SEMION = z2_cocycle(MINUS, I)
SVECT = z2_cocycle(ONE, MINUS)


# -- pentagon / hexagons -------------------------------------------------

def test_pentagon_trivial_and_sign():
    assert check_pentagon(cocycle_from_tables(Z2, {}, {})) == (True, None)
    assert check_pentagon(z2_cocycle(MINUS)) == (True, None)


def test_pentagon_violation_non_normalized():
    broken = cocycle_from_tables(Z2, {(e, e, (0,)): MINUS}, {})
    ok, witness = check_pentagon(broken)
    assert not ok and witness is not None


def test_hexagons_bicharacter():
    assert check_hexagons(z2_cocycle(ONE, MINUS)) == (True, None)
    omega = {((a,), (b,)): root_of_unity(4, a * b % 4) for a in range(4) for b in range(4)}
    assert check_hexagons(cocycle_from_tables(Z4, {}, omega)) == (True, None)


def test_hexagons_semion_needs_associator():
    assert check_hexagons(SEMION) == (True, None)
    ok, witness = check_hexagons(z2_cocycle(ONE, I))
    assert not ok
    assert witness == ("H1", (e, e, e))


def test_is_abelian_cocycle():
    assert cocycle_failure(SEMION) is None
    assert cocycle_failure(SVECT) is None
    assert cocycle_failure(z2_cocycle(ONE, I)) is not None


# -- trace form and polarization -----------------------------------------

def test_trace_form_examples():
    assert trace_form(SVECT).q(e) == MINUS
    assert trace_form(cocycle_from_tables(Z2, {}, {})).q(e) == ONE
    assert trace_form(SEMION).q(e) == I
    with pytest.raises(NotACocycle):
        trace_form(z2_cocycle(ONE, I))


def test_polarization_examples():
    q_svect = QuadraticForm(Z2, (ONE, MINUS))
    assert q_svect.pairing(e, e) == ONE
    q_semion = QuadraticForm(Z2, (ONE, I))
    assert q_semion.pairing(e, e) == MINUS
    q_z8 = QuadraticForm(Z4, tuple(root_of_unity(8, a * a % 8) for a in range(4)))
    for a in range(4):
        for b in range(4):
            assert q_z8.pairing((a,), (b,)) == root_of_unity(4, a * b % 4)


def test_quadratic_form_validation():
    with pytest.raises(InvalidQuadraticForm):
        QuadraticForm(Z2, (MINUS, ONE))  # q(0) != 1
    with pytest.raises(InvalidQuadraticForm):
        # q(1)=1 but q(2)=-1 has no bimultiplicative polarization on Z4
        QuadraticForm(Z4, (ONE, ONE, MINUS, ONE))


# -- coboundaries ---------------------------------------------------------

def _all_cochains(group, value_order):
    elems = group.elements()
    zero = group.zero
    pairs = [(a, b) for a in elems for b in elems if a != zero and b != zero]
    for exponents in itertools.product(range(value_order), repeat=len(pairs)):
        table = {p: root_of_unity(value_order, k) for p, k in zip(pairs, exponents)}
        yield two_cochain_from_table(group, elems, table)


def test_coboundary_identity():
    phi = two_cochain_from_table(Z2, Z2.elements(), {})
    out = apply_coboundary(SEMION, phi)
    assert out.psi == SEMION.psi and out.omega == SEMION.omega


def test_coboundary_on_z2_is_trivial():
    # on Z/2 every twist cancels, so even the flipped-sign cochain acts trivially
    phi = two_cochain_from_table(Z2, Z2.elements(), {(e, e): MINUS})
    out = apply_coboundary(SEMION, phi)
    assert trace_form(out).q(e) == I
    assert out.psi == SEMION.psi and out.omega == SEMION.omega


def test_coboundary_preserves_trace_exhaustively():
    for group, order in ((Z2, 4), (Z3, 3)):
        for cls in classify_h3ab(group, order):
            rep = cls.representative
            before = tuple(omega_at(rep, g, g) for g in group.elements())
            for phi in _all_cochains(group, order):
                out = apply_coboundary(rep, phi)
                after = tuple(omega_at(out, g, g) for g in group.elements())
                assert after == before


def test_coboundary_moves_psi_on_z3():
    rep = classify_h3ab(Z3, 3)[1].representative
    moved = False
    for phi in _all_cochains(Z3, 3):
        out = apply_coboundary(rep, phi)
        if out.psi != rep.psi:
            moved = True
            assert cocycle_failure(out) is None
    assert moved


# -- classification --------------------------------------------------------

@pytest.fixture
def fresh_system():
    """Clear the per-group system memo around a test: a system kept from an
    earlier test would hide a patch of what builds it, or a count of its
    builds, and one built under a patch must not outlive the test."""
    cocycles._h3ab_system.cache_clear()
    yield
    cocycles._h3ab_system.cache_clear()


def test_classify_z2():
    classes = classify_h3ab(Z2, 4)
    assert len(classes) == 4
    assert {cls.form.q(e) for cls in classes} == {
        ONE, I, MINUS, root_of_unity(4, 3)
    }


def test_classify_z2_against_direct_enumeration():
    # oracle: the two free scalars are psi(1,1,1) and omega(1,1); filter directly
    valid = []
    for p in range(4):
        for o in range(4):
            c = z2_cocycle(root_of_unity(4, p), root_of_unity(4, o))
            if cocycle_failure(c) is None:
                valid.append((root_of_unity(4, p), root_of_unity(4, o)))
    assert len(valid) == 4
    # psi is forced to be omega^2, so classes biject with omega(1,1) in mu_4
    assert {(o * o, o) for _, o in valid} == set(valid)
    classes = classify_h3ab(Z2, 4)
    assert {omega_at(cls.representative, e, e) for cls in classes} == {
        o for _, o in valid
    }


def test_classify_trivial_group():
    group = parse_group("Z1")
    classes = classify_h3ab(group, 4)
    assert len(classes) == 1


def test_classify_z3():
    classes = classify_h3ab(Z3, 3)
    assert len(classes) == 3
    assert {cls.form.q(e) for cls in classes} == {
        ONE, root_of_unity(3, 1), root_of_unity(3, 2)
    }
    assert all(cls.orbit_size == 9 for cls in classes)


def test_classify_bounds():
    with pytest.raises(GroupTooLarge):
        classify_h3ab(parse_group("Z8"), 2)
    with pytest.raises(OrderTooLarge):
        classify_h3ab(Z2, 16)


@pytest.mark.parametrize("literal", ["Z8", "Z4xZ2", "Z2xZ2xZ2"])
def test_classify_past_its_bounds_keys_each_form_by_its_standard_cocycle(
    fresh_system, monkeypatch, literal
):
    """With the group bound raised to 8: for N = 2, 4 there is one class per
    form with values in mu_N (Eilenberg-Mac Lane), and that form's standard
    cocycle, as exponents mod N reduced modulo the coboundaries B, is the
    representative of the class keyed by the form.  The group's system is
    built once for both N."""
    monkeypatch.setattr(cocycles, "CLASSIFY_MAX_GROUP_ORDER", 8)
    spans, real = [], cocycles.sparse_howell_form
    monkeypatch.setattr(cocycles, "sparse_howell_form",
                        lambda *args: spans.append(real(*args)) or spans[-1])
    group = parse_group(literal)
    size = group.order
    nonzero = range(1, size)
    triples = [(a * size + b) * size + c for a, b, c in itertools.product(nonzero, repeat=3)]
    pairs = [a * size + b for a, b in itertools.product(nonzero, repeat=2)]

    def vector(c, n):
        assert n % c.conductor == 0  # values in mu_N
        scale = n // c.conductor
        return [c.psi_exp[i] * scale for i in triples] + [c.omega_exp[i] * scale for i in pairs]

    forms = enumerate_quadratic_forms(group)
    for n in (2, 4):
        spans.clear()
        classes = {tuple(_roots(cls.form.values)): cls for cls in classify_h3ab(group, n)}
        (coboundaries,) = spans
        dense = dense_rows(coboundaries, len(triples) + len(pairs))
        pivots = _pivots(dense, n)
        keyed = [f for f in forms if all(n % v.order == 0 for v in f.values)]
        assert len(classes) == len(keyed)
        for form in keyed:
            cls = classes[tuple(_roots(form.values))]
            reduced = _reduce(vector(standard_cocycle(form), n), dense, pivots, n)
            assert reduced == vector(cls.representative, n), (literal, n, form.values)
    info = cocycles._h3ab_system.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("literal", ["Z1", "Z2", "Z2xZ2"])
def test_classify_n1_is_one_trivial_class(literal):
    group = parse_group(literal)
    (cls,) = classify_h3ab(group, 1)
    assert cls.orbit_size == 1
    assert all(v.is_one for v in cls.form.values)
    assert all(v.is_one for v in cls.representative.psi + cls.representative.omega)


def _roots(values):
    return [(v.order, v.exponent) for v in values]


def _class_key(cls):
    return (_roots(cls.form.values), _roots(cls.representative.psi),
            _roots(cls.representative.omega), cls.orbit_size)


@pytest.mark.parametrize("literal, value_order", [
    ("Z1", 4), ("Z2", 1), ("Z2", 2), ("Z2", 4), ("Z2", 8),
    ("Z3", 3), ("Z3", 6), ("Z4", 2), ("Z2xZ2", 2),
])
def test_classify_matches_search_oracle(literal, value_order):
    group = parse_group(literal)
    fast = classify_h3ab(group, value_order)
    slow = classify_h3ab_by_search(group, value_order)
    assert [_class_key(c) for c in fast] == [_class_key(c) for c in slow]


@pytest.mark.parametrize("literal", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2"])
@pytest.mark.parametrize("value_order", range(1, 9))
def test_classify_matches_dense_oracle(literal, value_order):
    # every case classify accepts, against the dense classification on the
    # reference Howell engine
    group = parse_group(literal)
    fast = classify_h3ab(group, value_order)
    dense = howell_oracle.classify_h3ab(group, value_order)
    assert [_class_key(c) for c in fast] == [_class_key(c) for c in dense]


@pytest.mark.parametrize("literal", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2"])
def test_classify_counts_match_eilenberg_mac_lane(literal):
    # H^3_ab(G, mu_N) has one class per quadratic form on G with values in mu_N
    group = parse_group(literal)
    forms = enumerate_quadratic_forms(group)
    for value_order in range(1, 9):
        expected = sorted(
            _roots(f.values) for f in forms
            if all(value_order % v.order == 0 for v in f.values)
        )
        classes = classify_h3ab(group, value_order)
        assert sorted(_roots(cls.form.values) for cls in classes) == expected


# Each ConventionError check of classify_h3ab, fired by one corruption.

def test_classify_rejects_a_coboundary_that_violates_an_equation(fresh_system, monkeypatch):
    # 1 + 1 = 3 on Z4 breaks associativity, and the pentagon of a coboundary
    # holds only because addition is associative
    table = list(cocycles.addition_table(Z4))
    table[1 * 4 + 1] = 3
    monkeypatch.setattr(cocycles, "addition_table", lambda group: tuple(table))
    with pytest.raises(ConventionError, match="violates the pentagon or hexagons"):
        classify_h3ab(Z4, 2)


@pytest.mark.parametrize("literal, value_order", [("Z4", 3), ("Z2xZ2", 4)])
def test_coboundary_check_reads_every_equation(fresh_system, monkeypatch, literal, value_order):
    # the column -> identities index against the exact sum over Z of every
    # identity, in either order: a one-entry vector violates just the
    # identities that hold its column, a coboundary row violates none, and a
    # coboundary row with one entry moved by 1 or by N violates the
    # identities that hold that column
    seen = []
    real = cocycles._check_coboundaries
    monkeypatch.setattr(cocycles, "_check_coboundaries", lambda *args: seen.append(args))
    classify_h3ab(parse_group(literal), value_order)
    ((deltas, identities, _),) = seen
    n = value_order
    width = 1 + max(i for eq in identities for i, _ in eq)
    vectors = [((i, x),) for i in range(width) for x in range(1, n)]
    vectors += deltas
    vectors += [
        tuple({**dict(delta), i: dict(delta).get(i, 0) + shift}.items())
        for delta in deltas[:3] for i in range(width) for shift in (1, n)
    ]
    for vec in vectors:
        violated = any(sum(k * dict(vec).get(i, 0) for i, k in eq) for eq in identities)
        for order in (identities, identities[::-1]):
            if violated:
                with pytest.raises(ConventionError, match="violates the pentagon"):
                    real([vec], order, set())
            else:
                real([vec], order, set())


def test_classify_rejects_a_coboundary_that_moves_the_trace(fresh_system, monkeypatch):
    # on Z2 the one coboundary row is 0 over Z; give it omega(1, 1) = 1, which
    # mod 2 is the cocycle of svect and moves q(1)
    real = cocycles._check_coboundaries
    monkeypatch.setattr(
        cocycles, "_check_coboundaries",
        lambda deltas, identities, diagonal: real([(*deltas[0], (1, 1))], identities, diagonal),
    )
    with pytest.raises(ConventionError, match="moves the trace form"):
        classify_h3ab(Z2, 2)


@pytest.mark.parametrize("literal, value_order", [("Z3", 6), ("Z4", 3), ("Z2xZ2", 4)])
def test_classify_rejects_a_coboundary_moved_by_n(fresh_system, monkeypatch, literal, value_order):
    # one entry of the last coboundary row moved by N: the same row mod N, so
    # a check mod N would pass it, but over Z it breaks the identities that
    # hold its column
    n = value_order
    real = cocycles._check_coboundaries

    def moved(deltas, identities, diagonal):
        (i, k), *rest = deltas[-1]
        row = ((i, k + n), *rest)
        assert [(c, v % n) for c, v in row] == [(c, v % n) for c, v in deltas[-1]]
        real([*deltas[:-1], row], identities, diagonal)

    monkeypatch.setattr(cocycles, "_check_coboundaries", moved)
    with pytest.raises(ConventionError, match="violates the pentagon or hexagons"):
        classify_h3ab(parse_group(literal), n)


def test_classify_rejects_a_dropped_kernel_row(monkeypatch):
    # on Z4 with N = 3 every cocycle is a coboundary (one class), so a kernel
    # without its first row spans fewer cocycles than one orbit holds
    real = cocycles.sparse_howell_kernel
    monkeypatch.setattr(cocycles, "sparse_howell_kernel", lambda *args: real(*args)[1:])
    with pytest.raises(ConventionError, match="1 classes of size 729 do not tile 243"):
        classify_h3ab(Z4, 3)


def test_classify_rejects_two_orbits_with_one_form(monkeypatch):
    trivial = trace_form(z2_cocycle())
    monkeypatch.setattr(cocycles, "trace_form", lambda rep: trivial)
    with pytest.raises(ConventionError, match="share one trace form"):
        classify_h3ab(Z2, 2)


# -- standard cocycle -------------------------------------------------------

def test_standard_cocycle_examples():
    trivial = standard_cocycle(QuadraticForm(Z2, (ONE, ONE)))
    assert all(v.is_one for v in trivial.psi) and all(v.is_one for v in trivial.omega)

    semion = standard_cocycle(QuadraticForm(Z2, (ONE, I)))
    assert omega_at(semion, e, e) == I
    assert psi_at(semion, e, e, e) == MINUS

    svect = standard_cocycle(QuadraticForm(Z2, (ONE, MINUS)))
    assert omega_at(svect, e, e) == MINUS
    assert all(v.is_one for v in svect.psi)


def test_standard_cocycle_round_trip_on_roster():
    for literal in ("Z2", "Z3", "Z4", "Z2xZ2"):
        group = parse_group(literal)
        for form in enumerate_quadratic_forms(group):
            cocycle = standard_cocycle(form)
            assert trace_form(cocycle).values == form.values


def test_standard_cocycle_rejects_wrong_order():
    with pytest.raises((NotRealizable, InvalidQuadraticForm)):
        standard_cocycle(QuadraticForm(Z2, (ONE, root_of_unity(3, 1))))


# -- find_mu -----------------------------------------------------------------

def test_find_mu_trivial_associator():
    whole = full_subgroup(Z2)
    mu = find_mu(SVECT, whole, 2)
    assert mu is not None
    assert all(v.is_one for v in mu.table)


def test_find_mu_semion_has_none():
    whole = full_subgroup(Z2)
    for n in (2, 4, 8):
        assert find_mu(SEMION, whole, n) is None


def test_find_mu_semion_oracle():
    # oracle: normalized mu on Z/2 has one free value m = mu(1,1), and
    # (delta mu)(1,1,1) = mu(1,0) mu(1,1) mu(0,1)^-1 mu(1,1)^-1 = 1 != psi(1,1,1)
    whole = full_subgroup(Z2)
    for n in (2, 4, 8):
        for k in range(n):
            m = root_of_unity(n, k)
            delta = ONE * m * ONE.inv() * m.inv()  # the free value cancels out
            assert delta != psi_at(SEMION, e, e, e)
        assert find_mu(SEMION, whole, n) is None


def test_find_mu_nontrivial_target():
    # on Z/4 the form z8^(a^2) has psi(a,b,c) = (-1)^(a floor((b+c)/4)), the
    # order-2 class of H^3(Z/4, U(1)): no mu trivializes it, at any value order
    q = QuadraticForm(Z4, tuple(root_of_unity(8, a * a % 8) for a in range(4)))
    cocycle = standard_cocycle(q)
    assert not all(v.is_one for v in cocycle.psi)
    whole = full_subgroup(Z4)
    for n in (4, 8, 16):
        assert find_mu(cocycle, whole, n) is None


def test_find_mu_trivializes_a_coboundary():
    # psi = delta phi for a 2-cochain phi with values in mu_4, so a mu exists
    elems = Z4.elements()
    phi = two_cochain_from_table(Z4, elems, {
        ((1,), (1,)): root_of_unity(4, 1),
        ((1,), (2,)): root_of_unity(4, 3),
        ((3,), (2,)): root_of_unity(2, 1),
    })
    cocycle = apply_coboundary(cocycle_from_tables(Z4, {}, {}), phi)
    assert not all(v.is_one for v in cocycle.psi)
    mu = find_mu(cocycle, full_subgroup(Z4), 4)
    assert mu is not None
    g = Z4
    for a in g.elements():
        for b in g.elements():
            for c in g.elements():
                delta = (
                    mu.at(b, c)
                    * mu.at(a, g.add(b, c))
                    * mu.at(g.add(a, b), c).inv()
                    * mu.at(a, b).inv()
                )
                assert delta == psi_at(cocycle, a, b, c)


def test_find_mu_lex_first():
    whole = full_subgroup(Z2)
    trivial = cocycle_from_tables(Z2, {}, {})
    mu = find_mu(trivial, whole, 4)
    assert all(v.is_one for v in mu.table)


def test_find_mu_bounds():
    whole = full_subgroup(Z2)
    with pytest.raises(BoundsExceeded):
        find_mu(SVECT, whole, 48)


def test_find_mu_subgroup_restriction():
    # semion restricted to the trivial subgroup: mu is vacuous and found at once
    sub = subgroup_generated(Z2, [])
    mu = find_mu(SEMION, sub, 2)
    assert mu is not None and mu.domain == ((0,),)
