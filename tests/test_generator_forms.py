"""Forms built from generator data: valid by proof, checked against the scan.

``form_from_generators`` checks the shape of its data and Wall's two order
facts (ord tau_i | gcd(2 n_i, n_i^2), ord sigma_ij | gcd(n_i, n_j)) and
builds the form without the dense scan in ``QuadraticForm.__post_init__``.
The scan of the same values, built by the RootOfUnity product loop, is the
oracle: both must give the same verdict, exception class, values,
conductor, sigma and hash.  A failed check raises before any table of size
|G| is built.  The transparent subgroup is checked against a second oracle,
the kernel of the Gram matrix of sigma on the generators.
"""

import io
import itertools
import json
import math
import random
import re

import pytest

from form_oracle import _basis, q_gen_values
from pointedcat import cocycles
from pointedcat.battery import enumerate_quadratic_forms
from pointedcat.cli import main
from pointedcat.cocycles import QuadraticForm, form_from_generators
from pointedcat.cyclotomic import ONE, parse_root, root_of_unity, roots_of_unity
from pointedcat.errors import InvalidQuadraticForm, ParseError, ValidationError
from pointedcat.groups import (
    AbelianGroup, parse_group, sparse_howell_kernel, subgroup_generated,
)
from pointedcat.metric import make_category, mueger_center

# every abelian group of order <= 16, and two with a factor Z1
SMALL = (
    "Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z4xZ2", "Z2xZ2xZ2",
    "Z9", "Z3xZ3", "Z10", "Z11", "Z12", "Z6xZ2", "Z13", "Z14", "Z15", "Z16",
    "Z8xZ2", "Z4xZ4", "Z4xZ2xZ2", "Z2xZ2xZ2xZ2",
)
WITH_Z1 = ("Z1xZ2", "Z2xZ1xZ3")


def _pair_slots(group):
    return list(itertools.combinations(range(group.rank), 2))


def _generator_data(group, rng: random.Random):
    """Seeded (taus, pairings).  A third of the cases draw each value among
    the roots its fact allows; the rest draw a root of exact order 1, 2 or 3
    times that bound, so about half of all cases break a fact.  The data on a
    factor Z1, which reach no value, are always drawn the second way."""
    factors, lawful = group.factors, rng.random() < 0.35

    def draw(allowed, *orders):
        if lawful and min(orders) > 1:
            return rng.choice(roots_of_unity(allowed))
        order = allowed * rng.choice((1, 2, 3))
        return rng.choice([r for r in roots_of_unity(order) if r.order == order])

    taus = [draw(n if n % 2 else 2 * n, n) for n in factors]
    pairings = {
        (i, j): draw(math.gcd(factors[i], factors[j]), factors[i], factors[j])
        for i, j in _pair_slots(group)
    }
    return taus, pairings


def _fields(form):
    return form.values, form.conductor, form.sigma_exp, hash(form)


def _outcome(build):
    try:
        form = build()
    except ValidationError as exc:
        return type(exc), None
    return _fields(form), form


def test_generator_forms_match_the_dense_scan():
    rng = random.Random(2026)
    rejected = cases = 0
    for literal in SMALL + WITH_Z1:
        group = parse_group(literal)
        for _ in range(40):
            taus, pairings = _generator_data(group, rng)
            new = _outcome(lambda: form_from_generators(group, taus, pairings))
            old = _outcome(lambda: QuadraticForm(group, q_gen_values(group, taus, pairings)))
            assert new == old, (literal, taus, pairings)
            rejected += new[0] is InvalidQuadraticForm
            cases += 1
    assert 0.4 < rejected / cases < 0.6


def _dense_enumeration(group):
    """The forms of all generator data that meet the facts, each scanned,
    in the enumeration's order."""
    factors = group.factors
    slots = _pair_slots(group)
    forms = []
    for taus in itertools.product(*(roots_of_unity(n if n % 2 else 2 * n) for n in factors)):
        for pairs in itertools.product(
            *(roots_of_unity(math.gcd(factors[i], factors[j])) for i, j in slots)
        ):
            forms.append(QuadraticForm(group, q_gen_values(group, taus, dict(zip(slots, pairs)))))
    forms.sort(key=lambda f: tuple((v.order, v.exponent) for v in f.values))
    return forms


# Z2^4 has 16,384 forms: its generator data are covered by the seeded
# sample above instead
@pytest.mark.parametrize("literal", SMALL[:-1])
def test_enumeration_matches_the_scanned_forms(literal):
    group = parse_group(literal)
    forms, dense = enumerate_quadratic_forms(group), _dense_enumeration(group)
    assert forms == dense
    assert [_fields(f) for f in forms] == [_fields(d) for d in dense]


# -- shape and bounds, before any table -----------------------------------------

@pytest.fixture
def no_tables(monkeypatch):
    """Any table of size |G| built by the form builder fails the test."""
    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cocycles, "addition_table", refuse)
    monkeypatch.setattr(cocycles, "_omega_sums", refuse)


@pytest.mark.parametrize("literal, taus, pairings, message", [
    # zip used to drop the second generator, which then had tau = 1
    ("Z2xZ2", [root_of_unity(4, 1)], {}, "1 generator values for 2 cyclic factors"),
    ("Z2", [ONE, ONE], {}, "2 generator values for 1 cyclic factors"),
    # an IndexError
    ("Z2", [ONE], {(0, 3): ONE}, "pairing key (0, 3)"),
    # accepted as if it were (0, 1)
    ("Z2xZ2", [ONE, ONE], {(1, 0): root_of_unity(2, 1)}, "pairing key (1, 0)"),
])
def test_malformed_generator_data_are_parse_errors(no_tables, literal, taus, pairings, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        form_from_generators(parse_group(literal), taus, pairings)


BROKEN = [
    ({"group": "Z2", "q_gen": ["z8^1"]}, "q(e_0) of order 8 on a cyclic factor of order 2"),
    ({"group": "Z2xZ2", "q_gen": ["1", "1"], "pairings": {"0,1": "z4^1"}},
     "pairing of order 4 between e_0 and e_1"),
]


@pytest.mark.parametrize("payload, message", BROKEN)
def test_broken_order_facts_raise_before_any_table(no_tables, payload, message):
    group = parse_group(payload["group"])
    taus = [parse_root(v) for v in payload["q_gen"]]
    pairings = {(0, 1): parse_root(v) for v in payload.get("pairings", {}).values()}
    with pytest.raises(InvalidQuadraticForm, match=re.escape(message)):
        form_from_generators(group, taus, pairings)


@pytest.mark.parametrize("payload, message", BROKEN)
def test_broken_order_facts_exit_2_on_the_cli(capsys, monkeypatch, payload, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = main(["center", "-", "--json"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_generator_forms_run_no_scan(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense scan ran")

    monkeypatch.setattr(QuadraticForm, "__post_init__", refuse)
    group = AbelianGroup((4, 4))
    form = form_from_generators(group, [ONE, ONE], {(0, 1): root_of_unity(4, 1)})
    assert form.conductor == 4
    with pytest.raises(AssertionError, match="dense scan"):
        QuadraticForm(group, form.values)


# -- the transparent subgroup as a Gram kernel ------------------------------------

def _gram_kernel_center(form):
    """x is transparent iff sigma(x, e_j) = 1 for every j, that is
    sum_i x_i B_ij = 0 mod N with B_ij the exponent of sigma(e_i, e_j).  Over
    Z/M, M = lcm(N, n_i), that is one kernel; each x_i is read mod n_i."""
    group, n, conductor = form.group, form.group.order, form.conductor
    basis = [group.element_index(e) for e in _basis(group)]
    modulus = math.lcm(conductor, *group.factors)
    scale = modulus // conductor
    rows = [
        [(i, scale * form.sigma_exp[bi * n + bj]) for i, bi in enumerate(basis)]
        for bj in basis
    ]
    kernel = sparse_howell_kernel(rows, group.rank, modulus)
    gens = [tuple(row.get(i, 0) % m for i, m in enumerate(group.factors)) for row in kernel]
    return subgroup_generated(group, gens).elements


def _center_order(form) -> int:
    category = make_category(form, label="gram kernel")
    center = _gram_kernel_center(form)
    assert center == mueger_center.__wrapped__(category).elements
    return len(center)


@pytest.mark.parametrize("literal", [s for s in SMALL if parse_group(s).order <= 8] + ["Z1xZ2"])
def test_transparent_subgroup_is_the_gram_kernel(literal):
    for form in enumerate_quadratic_forms(parse_group(literal)):
        _center_order(form)


def test_transparent_subgroup_is_the_gram_kernel_at_order_16():
    rng = random.Random(16)
    groups = [parse_group(s) for s in SMALL if parse_group(s).order == 16]
    orders = []
    while len(orders) < 200:
        group = rng.choice(groups)
        taus, pairings = _generator_data(group, rng)
        try:
            form = form_from_generators(group, taus, pairings)
        except InvalidQuadraticForm:
            continue
        orders.append(_center_order(form))
    assert {1, 16} < set(orders)
