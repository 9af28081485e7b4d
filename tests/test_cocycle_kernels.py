"""The integer-exponent cocycle code against the RootOfUnity oracles.

The scans must agree on every verdict and witness: on valid cocycles
(standard ones and classification representatives) and on seeded
single-entry corruptions, including entries with a zero argument and tables
that mix roots of coprime orders.  The coboundary twist and the JSON writer
must give the same cocycles and the same bytes as their oracles.
"""

import json
import math
import random

import pytest

import pointedcat.cocycles as cocycles
from pointedcat.cocycles import (
    QuadraticForm,
    check_hexagons,
    check_pentagon,
    classify_h3ab,
    apply_coboundary,
    cocycle_failure,
    standard_cocycle,
    two_cochain_from_table,
)
from pointedcat.cyclotomic import parse_root, root_of_unity
from pointedcat.errors import NotACocycle, ValidationError
from pointedcat.groups import AbelianGroup, parse_group
from pointedcat.metric import category_from_form, make_category
from pointedcat.serde import category_to_json, cocycle_to_json, load_category
from pointedcat.battery import enumerate_quadratic_forms
from pointedcat.cli import main

import cocycle_scan_oracle as oracle

# roots of orders 1 to 8, so a corrupted entry often brings a conductor the
# rest of the table does not have (z3 next to z4 or z8 entries)
CORRUPTIONS = tuple(
    parse_root(r) for r in ("1", "-1", "z3^1", "z3^2", "z4^1", "z4^3", "z8^3", "z8^5")
)


def assert_kernels_match(c):
    assert c.normalization_witness() == oracle.normalization_witness(c)
    assert check_pentagon(c) == oracle.check_pentagon(c)
    assert check_hexagons(c) == oracle.check_hexagons(c)


def test_roster_standard_cocycles(battery_categories):
    for category in battery_categories:
        c = category.cocycle
        assert_kernels_match(c)
        assert cocycle_failure(c) is None


@pytest.mark.parametrize("literal", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2"])
def test_classification_representatives(literal):
    group = parse_group(literal)
    for n in (1, 2, 3, 4):
        for cls in classify_h3ab(group, n):
            assert_kernels_match(cls.representative)


def corrupt(c, rng: random.Random, table: str):
    """A copy of c with one seeded entry of psi or omega replaced."""
    values = list(getattr(c, table))
    n = c.group.order
    # every fourth corruption hits an entry with a zero argument (index 0)
    if rng.random() < 0.25:
        slot = rng.randrange(n) * (n if table == "omega" else n * n)
    else:
        slot = rng.randrange(len(values))
    values[slot] = rng.choice([r for r in CORRUPTIONS if r != values[slot]])
    tables = {"psi": c.psi, "omega": c.omega, table: tuple(values)}
    return oracle.cocycle_from_roots(c.group, tables["psi"], tables["omega"])


CORRUPTED_GROUPS = ["Z2", "Z3", "Z4", "Z2xZ2", "Z6", "Z4xZ2"]


def seeded_corruptions(literal: str):
    """24 seeded single-entry corruptions of standard cocycles on the group."""
    rng = random.Random(f"corrupt:{literal}")
    forms = enumerate_quadratic_forms(parse_group(literal))
    for _ in range(24):
        base = standard_cocycle(rng.choice(forms))
        yield corrupt(base, rng, rng.choice(("psi", "omega")))


@pytest.mark.parametrize("literal", CORRUPTED_GROUPS)
def test_single_entry_corruptions(literal):
    verdicts, conductors = set(), set()
    for broken in seeded_corruptions(literal):
        assert_kernels_match(broken)
        failure = cocycle_failure(broken)
        verdicts.add(None if failure is None else failure[0])
        conductors.add(math.lcm(*(v.order for v in broken.psi + broken.omega)))
    # the seeds reach unnormalized tables, broken identities, and tables
    # mixing third and fourth roots of unity
    assert "normalization" in verdicts
    assert verdicts & {"pentagon", "H1", "H2"}
    assert any(k % 12 == 0 for k in conductors)


def test_trivial_associator_with_broken_braiding():
    group = parse_group("Z3")
    trivial = standard_cocycle(QuadraticForm(group, (root_of_unity(1, 0),) * 3))
    omega = list(trivial.omega)
    omega[1 * 3 + 2] = root_of_unity(4, 1)
    broken = oracle.cocycle_from_roots(group, trivial.psi, tuple(omega))
    assert check_pentagon(broken) == (True, None)
    assert_kernels_match(broken)
    assert check_hexagons(broken)[0] is False


def test_equal_cocycles_built_apart_hash_equal():
    for form in enumerate_quadratic_forms(parse_group("Z4xZ2"))[:6]:
        first, second = standard_cocycle(form), standard_cocycle(form)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        copy = oracle.cocycle_from_roots(first.group, first.psi, first.omega)
        assert copy == first and hash(copy) == hash(first)
    assert len({standard_cocycle(f) for f in enumerate_quadratic_forms(AbelianGroup((2,)))}) == 4


def test_each_built_cocycle_is_scanned_once(monkeypatch, tmp_path, capsys):
    # every pentagon (nontrivial psi) and hexagon scan asks for its range once
    scans = []
    scan_range = cocycles._scan_range
    monkeypatch.setattr(cocycles, "_scan_range", lambda c: scans.append(c) or scan_range(c))
    group = parse_group("Z4")
    form = QuadraticForm(group, tuple(root_of_unity(8, a * a % 8) for a in range(4)))
    category = category_from_form(form)  # standard_cocycle, then make_category
    assert len(scans) == 2
    text = json.dumps(category_to_json(category))
    load_category("-", text)  # validate, trace, bundle
    assert len(scans) == 4
    path = tmp_path / "cocycle.json"
    path.write_text(text)
    assert main(["cocycle-check", str(path), "--json"]) == 0  # both checks, then trace
    assert json.loads(capsys.readouterr().out)["results"]["is_abelian_cocycle"]
    assert len(scans) == 6


def test_corrupted_table_fails_the_category_gates():
    group = parse_group("Z4xZ2")
    form = enumerate_quadratic_forms(group)[7]
    category = category_from_form(form)
    payload = category_to_json(category)
    key = "(1,0),(1,1),(2,1)"
    payload["psi"][key] = "z3^1"
    with pytest.raises(ValidationError, match="condition"):
        load_category("-", json.dumps(payload))
    broken = corrupt(category.cocycle, random.Random(3), "psi")
    assert cocycle_failure(broken) is not None
    with pytest.raises(NotACocycle):
        make_category(form, broken)


def test_cocycle_fields_are_the_exponents():
    names = list(cocycles.AbelianCocycle._fields)
    assert names == ["group", "conductor", "psi_exp", "omega_exp"]


def test_constructor_brings_exponents_to_lowest_terms():
    group = parse_group("Z2xZ2")
    forms = enumerate_quadratic_forms(group)
    c = next(standard_cocycle(f) for f in forms if standard_cocycle(f).conductor == 4)
    at_4 = cocycles.AbelianCocycle(group, 4, c.psi_exp, c.omega_exp)
    at_8 = cocycles.AbelianCocycle(
        group, 8, [2 * k + 8 for k in c.psi_exp], [2 * k - 16 for k in c.omega_exp]
    )
    assert at_8 == at_4 == c
    assert hash(at_8) == hash(at_4) == hash(c)
    assert at_8.conductor == 4 and at_8.psi == c.psi and at_8.omega == c.omega


def seeded_cochain(group, rng: random.Random, value_order: int):
    """A normalized 2-cochain on the whole group with seeded z_value_order values."""
    zero = group.zero
    elems = group.elements()
    table = {
        (a, b): root_of_unity(value_order, rng.randrange(value_order))
        for a in elems
        for b in elems
        if zero not in (a, b)
    }
    return two_cochain_from_table(group, elems, table)


@pytest.mark.parametrize("literal", ["Z1", "Z2", "Z3", "Z4", "Z2xZ2"])
def test_coboundary_twist_matches_oracle(literal):
    group = parse_group(literal)
    rng = random.Random(f"twist:{literal}")
    moved = False
    for n in (1, 2, 3, 4):
        for cls in classify_h3ab(group, n):
            rep = cls.representative
            for value_order in (n, 3, 8):
                phi = seeded_cochain(group, rng, value_order)
                got = apply_coboundary(rep, phi)
                want = oracle.apply_coboundary(rep, phi)
                assert got == want and hash(got) == hash(want)
                assert got.psi == want.psi and got.omega == want.omega
                moved |= got.conductor != rep.conductor
    # on Z1 and Z2 every coboundary is trivial; elsewhere some phi brings
    # its own conductor into the twisted tables
    assert moved == (group.order > 2)


def test_roster_cocycle_json_matches_oracle(battery_categories):
    for category in battery_categories:
        c = category.cocycle
        assert json.dumps(cocycle_to_json(c)) == json.dumps(oracle.cocycle_to_json(c))


@pytest.mark.parametrize("literal", CORRUPTED_GROUPS)
def test_corrupted_cocycle_json_matches_oracle(literal):
    for broken in seeded_corruptions(literal):
        assert json.dumps(cocycle_to_json(broken)) == json.dumps(oracle.cocycle_to_json(broken))
