"""The standard cocycle: valid by proof, its tables built only when read.

``standard_cocycle`` keeps generator data and the omega diagonal; its psi
and omega tables must equal, entry for entry, the dense build it replaced
(``cocycle_scan_oracle.standard_tables_dense``), and the normalization,
pentagon and hexagon scans must pass on them.  Sign flips in the
conventions must still be caught, the level-1 questions and hashing must
build no table, the JSON writer and ``cocycle-check`` must build it and keep
their bytes, and ``find_mu`` must decide a missing mu before its search.
"""

import hashlib
import json
import math
import random

import pytest

import pointedcat.metric as metric
from pointedcat import serde
from pointedcat.brmod import build_module_cat
from pointedcat.battery import enumerate_quadratic_forms
from pointedcat.cli import main
from pointedcat.cocycles import (
    AbelianCocycle,
    _trace,
    apply_coboundary,
    check_hexagons,
    check_pentagon,
    cocycle_failure,
    find_mu,
    form_from_generators,
    standard_cocycle,
    two_cochain_from_table,
)
from pointedcat.cyclotomic import ONE, root_of_unity, roots_of_unity
from pointedcat.errors import NotRealizable, ValidationError
from pointedcat.groups import (
    AbelianGroup, all_subgroups, characters, full_subgroup, parse_group,
)
from pointedcat.metric import make_category, mueger_center

import cocycle_scan_oracle as oracle

TABLES = {"psi_exp", "omega_exp"}

# every abelian group of order <= 16 but the two largest elementary ones
ENUMERATED = (
    "Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z4xZ2", "Z2xZ2xZ2",
    "Z9", "Z3xZ3", "Z10", "Z11", "Z12", "Z6xZ2", "Z13", "Z14", "Z15", "Z16",
    "Z8xZ2", "Z4xZ4",
)
# 1,024 and 16,384 forms: a seeded sample of 64 each
SAMPLED = ("Z4xZ2xZ2", "Z2xZ2xZ2xZ2")


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def sampled_forms(group, count: int, rng: random.Random):
    """Seeded forms from random generator data, as the enumeration builds them."""
    pairs = [(i, j) for i in range(group.rank) for j in range(i + 1, group.rank)]
    for _ in range(count):
        taus = [rng.choice(roots_of_unity(n if n % 2 else 2 * n)) for n in group.factors]
        pairings = {
            (i, j): rng.choice(roots_of_unity(math.gcd(group.factors[i], group.factors[j])))
            for i, j in pairs
        }
        yield form_from_generators(group, taus, pairings)


def check_closed_form(form, rng: random.Random, pentagons: dict) -> None:
    """The closed form against the dense oracle tables, which are scanned;
    the pentagon reads psi alone, so each distinct psi table is scanned once."""
    c = standard_cocycle(form)
    assert TABLES.isdisjoint(vars(c))
    dense = AbelianCocycle(form.group, *oracle.standard_tables_dense(form))
    n = form.group.order
    on = sorted(rng.sample(range(n), min(n, 5)))
    assert c.psi_on(on) == dense.psi_on(on)
    assert TABLES.isdisjoint(vars(c)) and hash(c) == hash(dense)
    assert c.conductor == dense.conductor
    assert c.omega_exp == dense.omega_exp and c.psi_exp == dense.psi_exp
    assert c == dense
    assert dense.normalization_witness() is None
    assert check_hexagons(dense) == (True, None)
    key = (dense.conductor, dense.psi_exp)
    if key not in pentagons:
        pentagons[key] = check_pentagon(dense)
    assert pentagons[key] == (True, None)


@pytest.mark.parametrize("literal", ENUMERATED)
def test_closed_form_matches_the_dense_build_on_every_form(literal):
    rng, pentagons = random.Random(literal), {}
    for form in enumerate_quadratic_forms(parse_group(literal)):
        check_closed_form(form, rng, pentagons)


@pytest.mark.parametrize("literal", SAMPLED)
def test_closed_form_matches_the_dense_build_on_sampled_forms(literal):
    rng, pentagons = random.Random(literal), {}
    for form in sampled_forms(parse_group(literal), 64, rng):
        check_closed_form(form, rng, pentagons)


def test_closed_form_matches_the_dense_build_on_presets_and_doubles():
    rng, pentagons = random.Random(0), {}
    names = metric.preset_names() + [f"double:{g}" for g in ("Z1", "Z2", "Z3", "Z4", "Z2xZ2")]
    for name in names:
        category = metric.preset(name)
        check_closed_form(category.form, rng, pentagons)
        assert category.cocycle == oracle.standard_cocycle_dense(category.form)


# -- the conventions are still guarded ----------------------------------------

def test_negating_psi_changes_no_table():
    """psi = z_N^(t_i n_i ...) with 2 t_i n_i = 0 mod N takes the values +-1,
    so the sign of its formula (and of any psi term of H1 or H2) is no
    convention: both signs give the same table."""
    for literal in ("Z2", "Z4", "Z2xZ2", "Z4xZ2", "Z8", "Z6"):
        for form in enumerate_quadratic_forms(parse_group(literal)):
            plain = AbelianCocycle(form.group, *oracle.standard_tables_dense(form))
            flipped = oracle.standard_tables_dense(form, psi_sign=-1)
            assert AbelianCocycle(form.group, *flipped) == plain


def test_psi_without_its_factor_order_fails_the_scans():
    """The psi formula's one free choice is caught: without the factor n_i,
    every form with psi != 1 fails the scans."""
    caught = 0
    for form in enumerate_quadratic_forms(parse_group("Z4xZ2")):
        modulus, psi, omega = oracle.standard_tables_dense(form)
        if not any(k % modulus for k in psi):
            continue
        elems = form.group.elements()
        taus = [form.q(e) for e in ((1, 0), (0, 1))]
        t = [tau.exponent * (modulus // tau.order) for tau in taus]
        # t_i a_i carry_i(b, c) instead of t_i n_i a_i carry_i(b, c)
        slim = [
            sum(t[i] * a[i] for i, n in enumerate(form.group.factors) if b[i] + cc[i] >= n)
            for a in elems for b in elems for cc in elems
        ]
        assert cocycle_failure(AbelianCocycle(form.group, modulus, slim, omega)) is not None
        caught += 1
    assert caught == 48


def test_flipping_the_cross_term_of_omega_fails_the_trace():
    """Flipping the sign of omega's cross term keeps a valid cocycle but
    moves its trace wherever sigma_ij has order above 2, so a form with
    psi != 1 on Z4xZ4 is refused by make_category."""
    refused = 0
    for form in enumerate_quadratic_forms(parse_group("Z4xZ4")):
        modulus, psi, omega = oracle.standard_tables_dense(form, cross_sign=-1)
        flipped = AbelianCocycle(form.group, modulus, psi, omega)
        if any(k % modulus for k in psi) and _trace(flipped) != form.values:
            if not refused:
                with pytest.raises(ValidationError, match="trace disagrees"):
                    make_category(form, flipped)
            refused += 1
    assert refused == 96


def h2_flipped(c) -> bool:
    """check_hexagons' H2 with the sign of its psi terms flipped:
    omega(a+b,c) = omega(a,c) omega(b,c) psi(a,b,c)^-1 psi(a,c,b) psi(c,a,b)^-1."""
    psi, omega = c.psi_exp, c.omega_exp
    n, add, conductor = c.group.order, c._add, c.conductor
    for a in range(n):
        for b in range(n):
            for cc in range(n):
                h2 = (
                    omega[a * n + cc] + omega[b * n + cc] - psi[(a * n + b) * n + cc]
                    + psi[(a * n + cc) * n + b] - psi[(cc * n + a) * n + b]
                )
                if (omega[add[a * n + b] * n + cc] - h2) % conductor:
                    return False
    return True


@pytest.mark.parametrize("literal, caught", [("Z4", 7), ("Z2xZ2", 29)])
def test_flipping_h2_fails_the_twisted_dense_tables(literal, caught):
    """On the dense standard tables psi = +-1 and a flipped H2 still holds;
    a seeded coboundary twist of them has psi of order 8, which check_hexagons
    accepts and the flipped H2 refuses."""
    group = parse_group(literal)
    elems, rng = group.elements(), random.Random(literal)
    failed = 0
    for form in enumerate_quadratic_forms(group):
        dense = oracle.standard_cocycle_dense(form)
        assert h2_flipped(dense)
        phi = two_cochain_from_table(group, elems, {
            (a, b): root_of_unity(8, rng.randrange(8))
            for a in elems for b in elems if group.zero not in (a, b)
        })
        twisted = apply_coboundary(dense, phi)
        assert check_hexagons(twisted) == (True, None)
        failed += not h2_flipped(twisted)
    assert failed == caught


class StandIn:
    """Generator data that no quadratic form has: tau_i and sigma_ij given
    outright, for the realizability checks."""

    def __init__(self, group, taus, pairing=ONE):
        self.group, self.taus, self.pairing_value = group, taus, pairing

    def q(self, g):
        return self.taus[g.index(1)] if any(g) else ONE

    def pairing(self, g, h):
        return self.pairing_value


def test_unrealizable_generator_data_raise_before_any_cocycle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cocycle was built")

    monkeypatch.setattr(AbelianCocycle, "_from_generators", refuse)
    monkeypatch.setattr(AbelianCocycle, "__init__", refuse)
    # ord tau = 8 does not divide 2 n = 4; ord tau = 6 does not divide n = 3
    for group, tau in ((AbelianGroup((2,)), root_of_unity(8, 1)),
                       (AbelianGroup((3,)), root_of_unity(6, 1))):
        with pytest.raises(NotRealizable, match="cyclic factor"):
            standard_cocycle(StandIn(group, [tau]))
    # ord sigma = 4 does not divide gcd(2, 2)
    z2xz2 = AbelianGroup((2, 2))
    with pytest.raises(NotRealizable, match="pairing of order 4"):
        standard_cocycle(StandIn(z2xz2, [ONE, ONE], root_of_unity(4, 1)))


# -- work counts ----------------------------------------------------------------

@pytest.fixture
def cold_presets():
    for cache in (metric.preset, metric.drinfeld_double, metric.mueger_center):
        cache.cache_clear()
    yield
    for cache in (metric.preset, metric.drinfeld_double, metric.mueger_center):
        cache.cache_clear()


def test_level_one_questions_and_hashing_build_no_table(cold_presets):
    category = metric.preset("double:Z4")
    metric.mueger_center(category)
    metric.detect_center(category)
    metric.smatrix1(category)
    metric.is_nondegenerate(category)
    assert len({category, category.cocycle}) == 2  # both are hashed
    assert category.cocycle is not None and TABLES.isdisjoint(vars(category.cocycle))


def test_json_and_cocycle_check_build_the_tables_and_keep_their_bytes(cold_presets, capsys):
    category = metric.preset("double:Z2xZ2")
    payload = serde.category_to_json(category)
    assert TABLES <= set(vars(category.cocycle))
    # the bytes of the dense build, pinned before it was replaced
    dense = metric.PointedBFC(category.group, category.form,
                              oracle.standard_cocycle_dense(category.form), category.label)
    assert payload == serde.category_to_json(dense)
    assert digest(payload) == "d71aa78a48b29dee"
    metric.preset.cache_clear()
    metric.drinfeld_double.cache_clear()
    assert main(["cocycle-check", "double:Z2xZ2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timing_ms")
    assert digest(report) == "4ae5ed3655d64b80"
    assert TABLES <= set(vars(metric.preset("double:Z2xZ2").cocycle))


def test_level_two_reads_psi_only_on_the_subgroup(monkeypatch):
    """On Z4xZ2 with tau = (i, i) and sigma_12 = -1 the transparent subgroup
    has order 4 and psi is not 1 on it; building its module reads at most
    |H|^3 psi entries and no table."""
    group = parse_group("Z4xZ2")
    form = form_from_generators(group, [root_of_unity(4, 1)] * 2, {(0, 1): root_of_unity(2, 1)})
    base = make_category(form)
    sub = mueger_center(base)
    cocycle = metric.cocycle_of(base)
    dense = oracle.standard_cocycle_dense(form)
    index = [group.element_index(h) for h in sub.elements]
    n = group.order
    assert sub.order == 4
    assert any(dense.psi_exp[(a * n + b) * n + c] for a in index for b in index for c in index)
    reads = []
    psi_on = AbelianCocycle.psi_on
    monkeypatch.setattr(AbelianCocycle, "psi_on",
                        lambda c, indices: reads.append(len(indices) ** 3) or psi_on(c, indices))
    module = build_module_cat(base, sub, characters(group)[0])
    assert 0 < sum(reads) <= sub.order ** 3 and TABLES.isdisjoint(vars(cocycle))
    monkeypatch.undo()
    assert module.mu == build_module_cat(make_category(form, dense), sub, characters(group)[0]).mu


# -- find_mu decides existence first --------------------------------------------

def test_find_mu_returns_none_before_searching_when_q_has_no_root(monkeypatch):
    """Z8, H = G, q(1) = z16: q(1)^8 = -1, so psi|_H is no coboundary.  The
    search used to run for seconds; now no psi entry is read."""
    group = parse_group("Z8")
    cocycle = standard_cocycle(form_from_generators(group, [root_of_unity(16, 1)], {}))
    monkeypatch.setattr(AbelianCocycle, "psi_on", lambda *args: pytest.fail("searched for mu"))
    for value_order in (8, 16):
        assert find_mu(cocycle, full_subgroup(group), value_order) is None


def rule_holds(form, sub) -> bool:
    """q(h)^ord(h) = 1 on every h in H."""
    group = form.group
    return all(
        form.q(h).exponent * group.element_order(h) % form.q(h).order == 0
        for h in sub.elements
    )


@pytest.mark.parametrize(
    "literal", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z4xZ2", "Z2xZ2xZ2"]
)
def test_existence_rule_agrees_with_the_search(literal):
    """On every form and every H with |H| <= 4: the search itself
    (``searched_mu``, which decides nothing first) on the dense tables
    finds mu on brmod's value schedule exactly when the rule holds, and
    find_mu on the standard cocycle gives the same answers.  A search is a
    function of (psi, H, value order), so each is run once; on H inside the
    transparent subgroup the rule always holds."""
    group = parse_group(literal)
    n = group.order
    subs = [sub for sub in all_subgroups(group) if sub.order <= 4]
    searches, psi_ids = {}, {}
    for form in enumerate_quadratic_forms(group):
        standard, dense = standard_cocycle(form), oracle.standard_cocycle_dense(form)
        psi = psi_ids.setdefault((dense.conductor, dense.psi_exp), len(psi_ids))
        transparent = {i for i in range(n) if not any(form.sigma_exp[i * n:(i + 1) * n])}
        for sub in subs:
            rule = rule_holds(form, sub)
            if {group.element_index(h) for h in sub.elements} <= transparent:
                assert rule
            exponent = sub.exponent
            schedule = [v for v in (exponent, 2 * exponent, 4 * exponent) if v <= 24]
            found = False
            for value_order in schedule:
                key = (psi, sub, value_order)
                fresh = key not in searches
                if fresh:
                    searches[key] = oracle.searched_mu(dense, sub, value_order)
                if fresh or not rule:
                    assert find_mu(standard, sub, value_order) == searches[key]
                found |= searches[key] is not None
            assert found == rule
