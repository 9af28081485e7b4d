"""Differential oracles for the integer-exponent form and cocycle builders.

The RootOfUnity-product code in form_oracle.py is what the builders
replaced; on every input below both must give the same verdict, message
and tables.  A q_gen file is the exception: its rejection names the failing
generator or pair rather than the scan's first witness.
"""

import itertools
import math
import random

import pytest

from cocycle_scan_oracle import cocycle_from_roots
from form_oracle import polarization_table, q_gen_values, standard_tables
from pointedcat.battery import enumerate_quadratic_forms
from pointedcat import cocycles
from pointedcat.cocycles import (
    QuadraticForm,
    _generator_q,
    _omega_sums,
    classify_h3ab,
    form_from_generators,
    standard_cocycle,
)
from pointedcat.cyclotomic import ONE, format_root, root_of_unity, roots_of_unity
from pointedcat.errors import InvalidQuadraticForm, ParseError
from pointedcat.groups import parse_group
from pointedcat.metric import drinfeld_double
from pointedcat.serde import qf_from_json


def _outcome(build):
    try:
        return "ok", build()
    except InvalidQuadraticForm as exc:
        return type(exc), str(exc)


def _pairing_table(form):
    elems = form.group.elements()
    return tuple(form.pairing(x, y) for x in elems for y in elems)


@pytest.mark.parametrize("literal, value_order", [("Z2", 8), ("Z4", 8), ("Z2xZ2", 8), ("Z3", 6)])
def test_quadratic_form_scan_matches_oracle(literal, value_order):
    """Every table with q(0) = 1 and values in mu_N: same verdict, same message."""
    group = parse_group(literal)
    roots = roots_of_unity(value_order)
    verdicts = set()
    for tail in itertools.product(roots, repeat=group.order - 1):
        values = (ONE, *tail)
        new = _outcome(lambda: _pairing_table(QuadraticForm(group, values)))
        old = _outcome(lambda: polarization_table(group, values))
        assert new == old, values
        verdicts.add(new[0])
    assert verdicts == {"ok", InvalidQuadraticForm}


def test_quadratic_form_shape_checks_match_oracle():
    group = parse_group("Z4")
    i = root_of_unity(4, 1)
    for values in ((ONE, ONE), (i, ONE, ONE, ONE), (ONE, i, ONE, ONE)):
        new = _outcome(lambda: QuadraticForm(group, values))
        old = _outcome(lambda: polarization_table(group, values))
        assert new[0] is old[0] is InvalidQuadraticForm
        assert new == old


def _check_rebuilt(cocycle):
    """Rebuilt from its RootOfUnity tables, a cocycle has the same fields and hash."""
    rebuilt = cocycle_from_roots(cocycle.group, cocycle.psi, cocycle.omega)
    assert cocycle == rebuilt and hash(cocycle) == hash(rebuilt)
    assert cocycle.conductor == rebuilt.conductor
    assert cocycle.psi_exp == rebuilt.psi_exp
    assert cocycle.omega_exp == rebuilt.omega_exp


def _check_standard(form):
    cocycle = standard_cocycle(form)
    psi, omega = standard_tables(form)
    assert cocycle.psi == psi and cocycle.omega == omega
    _check_rebuilt(cocycle)


@pytest.mark.parametrize(
    "literal", ["Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z8", "Z4xZ2"]
)
def test_standard_cocycle_matches_product_tables(literal):
    for form in enumerate_quadratic_forms(parse_group(literal)):
        _check_standard(form)


@pytest.mark.parametrize("literal", ["Z2", "Z3", "Z4", "Z2xZ2"])
def test_standard_cocycle_of_doubles_matches_product_tables(literal):
    double = drinfeld_double(parse_group(literal))
    _check_standard(double.form)
    assert double.cocycle == standard_cocycle(double.form)


@pytest.mark.parametrize("literal, value_order", [("Z2", 8), ("Z3", 6), ("Z2xZ2", 4)])
def test_classify_representatives_keep_the_constructor_view(literal, value_order):
    """Representatives whose entries have orders below N reduce to a smaller conductor."""
    conductors = set()
    for cls in classify_h3ab(parse_group(literal), value_order):
        _check_rebuilt(cls.representative)
        conductors.add(cls.representative.conductor)
    assert len(conductors) > 1


def _broken_fact(factors, gens, pairings):
    """How the rejection must name the first generator or pair whose order
    fact fails: ord tau_i | 2 n_i (n_i when odd), ord sigma_ij | gcd(n_i, n_j)."""
    for i, (n, tau) in enumerate(zip(factors, gens)):
        if (n if n % 2 else 2 * n) % tau.order:
            return f"q(e_{i}) of order {tau.order}"
    for (i, j), sigma in pairings.items():
        if math.gcd(factors[i], factors[j]) % sigma.order:
            return f"between e_{i} and e_{j}"
    return None


@pytest.mark.parametrize(
    "literal, tau_orders, pair_order",
    [("Z4xZ2", (8, 4), 4), ("Z3xZ3", (6, 6), 3), ("Z2", (8,), None), ("Z3", (6,), None)],
)
def test_q_gen_files_match_the_product_loop(literal, tau_orders, pair_order):
    """q_gen files, with and without a pairing, including unrealizable tau.

    The verdict and the values are the product loop's and its scan's; a
    rejection comes from the order facts, before any scan, so its message
    names the failing generator or pair instead of a scanned element."""
    group = parse_group(literal)
    pair_choices = roots_of_unity(pair_order) if pair_order else [None]
    verdicts = set()
    for gens in itertools.product(*(roots_of_unity(m) for m in tau_orders)):
        for sigma in pair_choices:
            pairings = {} if sigma is None else {(0, 1): sigma}
            data = {"q_gen": [format_root(t) for t in gens]}
            if sigma is not None:
                data["pairings"] = {"0,1": format_root(sigma)}
            new = _outcome(lambda: qf_from_json(data, group).values)
            values = q_gen_values(group, gens, pairings)
            old = _outcome(lambda: polarization_table(group, values) and values)
            assert new[0] == old[0], data
            broken = _broken_fact(group.factors, gens, pairings)
            if new[0] == "ok":
                assert new == old and broken is None, data
            else:
                assert broken in new[1], data
            verdicts.add(new[0])
    assert verdicts == {"ok", InvalidQuadraticForm}


@pytest.mark.parametrize("literal", [
    "Z1", "Z2", "Z5", "Z16", "Z2xZ4", "Z4xZ2", "Z3xZ5", "Z4xZ4", "Z8xZ2",
    "Z2xZ2xZ2", "Z4xZ2xZ2", "Z2xZ2xZ2xZ2", "Z1xZ2", "Z2xZ1xZ3", "Z3xZ1",
])
def test_generator_q_is_the_omega_diagonal(literal):
    """Q summed factor by factor on the mixed radix equals omega(a, a) summed
    per element, over Z, on seeded exponents and with every pairing absent."""
    group = parse_group(literal)
    rng = random.Random(literal)
    slots = list(itertools.combinations(range(group.rank), 2))
    for _ in range(20):
        t = [rng.randrange(-40, 40) for _ in group.factors]
        cross = [(i, j, rng.randrange(-40, 40)) for i, j in slots if rng.random() < 0.8]
        diagonal = ((a, a) for a in group.elements())
        assert _generator_q(group.factors, t, cross) == _omega_sums(t, cross, diagonal)


@pytest.mark.parametrize("taus, pairings, error", [
    ([root_of_unity(4, 1)], {}, ParseError),
    ([ONE, ONE], {(0, 2): ONE}, ParseError),
    ([root_of_unity(8, 1), ONE], {}, InvalidQuadraticForm),
    ([ONE, ONE], {(0, 1): root_of_unity(4, 1)}, InvalidQuadraticForm),
])
def test_generator_data_are_refused_before_q_is_summed(monkeypatch, taus, pairings, error):
    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(cocycles, "_generator_q", refuse)
    monkeypatch.setattr(cocycles, "addition_table", refuse)
    with pytest.raises(error):
        form_from_generators(parse_group("Z2xZ2"), taus, pairings)
