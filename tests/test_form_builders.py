"""Differential oracles for the integer-exponent form and cocycle builders.

The RootOfUnity-product code in form_oracle.py is what the builders
replaced; on every input below both must give the same verdict, message
and tables.
"""

import itertools

import pytest

from cocycle_scan_oracle import cocycle_from_roots
from form_oracle import polarization_table, q_gen_values, standard_tables
from pointedcat.battery import enumerate_quadratic_forms
from pointedcat.cocycles import (
    QuadraticForm,
    classify_h3ab,
    standard_cocycle,
)
from pointedcat.cyclotomic import ONE, format_root, root_of_unity, roots_of_unity
from pointedcat.errors import InvalidQuadraticForm
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


@pytest.mark.parametrize(
    "literal, tau_orders, pair_order",
    [("Z4xZ2", (8, 4), 4), ("Z3xZ3", (6, 6), 3), ("Z2", (8,), None), ("Z3", (6,), None)],
)
def test_q_gen_files_match_the_product_loop(literal, tau_orders, pair_order):
    """q_gen files, with and without a pairing, including unrealizable tau."""
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
            assert new == old, data
            verdicts.add(new[0])
    assert verdicts == {"ok", InvalidQuadraticForm}
