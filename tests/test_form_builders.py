"""Differential oracles for the integer-exponent form and cocycle builders.

The RootOfUnity-product code in form_oracle.py is what the builders
replaced; on every input below both must give the same verdict, message
and tables.  Two kinds of rejection are the exception.  A q_gen file names
the failing generator or pair rather than the scan's first witness.  A
value table that passes the length, q(0) and q(-g) checks is decided by its
Gram data, q(e_i) and q(e_i + e_j): its rejection says "polarization not
bimultiplicative:" and names a fact of the table that no quadratic form
has, which ``_gram_witness`` checks against the table.
"""

import itertools
import math
import random
import re

import pytest

from cocycle_scan_oracle import cocycle_from_roots
from form_oracle import (
    _basis, polarization_table, q_gen_values, sampled_forms, standard_tables,
)
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


BIMULTIPLICATIVE = "polarization not bimultiplicative: "
WITNESSES = {
    "tau": re.compile(r"q\(e_(\d+)\) of order (\d+) on a cyclic factor of order (\d+)"),
    "pairing": re.compile(
        r"pairing of order (\d+) between e_(\d+) and e_(\d+), across factors (\d+) and (\d+)"
    ),
    "differs": re.compile(r"q\(g\) is not fixed by q\(e_i\) and q\(e_i \+ e_j\) at g = (\(.*\))"),
}


def _gram_witness(group, values, message) -> str | None:
    """The kind of a Gram rejection when it names a true fact of the table
    that no form has, else None: tau_i = q(e_i) or sigma_ij =
    q(e_i + e_j) / (q(e_i) q(e_j)) of an order Wall's facts forbid, or an
    element where q differs from the generator form of (tau, sigma)."""
    if not message.startswith(BIMULTIPLICATIVE):
        return None
    idx, factors = group.element_index, group.factors
    basis = _basis(group)
    taus = [values[idx(e)] for e in basis]
    pairings = {
        (i, j): values[idx(group.add(basis[i], basis[j]))] * taus[i].inv() * taus[j].inv()
        for i, j in itertools.combinations(range(group.rank), 2)
    }
    for kind, witness in WITNESSES.items():
        match = witness.fullmatch(message[len(BIMULTIPLICATIVE):])
        if match:
            break
    else:
        return None
    if kind == "tau":
        i, order, n = map(int, match.groups())
        holds = n == factors[i] > 1 and taus[i].order == order and math.gcd(2 * n, n * n) % order
    elif kind == "pairing":
        order, i, j, ni, nj = map(int, match.groups())
        holds = ((ni, nj) == (factors[i], factors[j]) and min(ni, nj) > 1
                 and pairings[(i, j)].order == order and math.gcd(ni, nj) % order)
    elif kind == "differs":
        at = idx(tuple(int(c) for c in match.group(1).strip("(),").split(",")))
        holds = q_gen_values(group, taus, pairings)[at] != values[at]
    return kind if holds else None


def _check_verdict(group, values) -> str:
    """The Gram check against the dense scan: the same verdict and sigma, the
    same message for a length, q(0) or q(-g) rejection, and for a
    bimultiplicativity rejection a witness that holds.  Returns "ok",
    "scan" or the witness's kind."""
    new = _outcome(lambda: _pairing_table(QuadraticForm(group, values)))
    old = _outcome(lambda: polarization_table(group, values))
    assert new[0] == old[0], values
    if new[0] is InvalidQuadraticForm and old[1].startswith("polarization not"):
        kind = _gram_witness(group, values, new[1])
        assert kind is not None, (values, new[1])
        return kind
    assert new == old, values
    return "ok" if new[0] == "ok" else "scan"


@pytest.mark.parametrize("literal, value_order", [("Z2", 8), ("Z4", 8), ("Z2xZ2", 8), ("Z3", 6)])
def test_quadratic_form_scan_matches_oracle(literal, value_order):
    """Every table with q(0) = 1 and values in mu_N: same verdict, and the
    same message or a true witness."""
    group = parse_group(literal)
    roots = roots_of_unity(value_order)
    verdicts = set()
    for tail in itertools.product(roots, repeat=group.order - 1):
        verdicts.add(_check_verdict(group, (ONE, *tail)))
    assert "ok" in verdicts and verdicts & set(WITNESSES)


@pytest.mark.parametrize("literal, value_order", [("Z5", 10), ("Z2xZ4", 8)])
def test_seeded_tables_match_oracle(literal, value_order):
    """Seeded tables with q(0) = 1 and values in mu_N, half of them made
    symmetric, q(-g) = q(g), so that they reach the Gram check."""
    group, rng = parse_group(literal), random.Random(literal)
    roots = roots_of_unity(value_order)
    negation = [group.element_index(group.neg(x)) for x in group.elements()]
    verdicts = set()
    for case in range(1000):
        values = [ONE] + [rng.choice(roots) for _ in range(group.order - 1)]
        if case % 2:
            values = [values[min(i, j)] for i, j in enumerate(negation)]
        verdicts.add(_check_verdict(group, tuple(values)))
    assert {"scan", "tau", "differs"} <= verdicts


# every abelian group of order <= 16; the dense oracle takes milliseconds a
# form at |G| = 16, so the 1,024 and 16,384 forms of the last two are sampled
PERTURBED = (
    "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z4xZ2", "Z2xZ2xZ2",
    "Z9", "Z3xZ3", "Z10", "Z11", "Z12", "Z6xZ2", "Z13", "Z14", "Z15", "Z16",
    "Z8xZ2", "Z4xZ4", "Z4xZ2xZ2", "Z2xZ2xZ2xZ2",
)


@pytest.mark.parametrize("literal", PERTURBED)
def test_forms_with_one_entry_changed_match_oracle(literal):
    """Every form (128 seeded ones on Z4xZ2xZ2 and Z2^4) with one seeded
    value changed to another root of order dividing 2N, at g and at -g, so
    that the table passes q(-g) = q(g) and reaches the Gram check."""
    group, rng = parse_group(literal), random.Random(literal)
    if literal in PERTURBED[-2:]:
        forms = sampled_forms(group, 128, rng)
    else:
        forms = enumerate_quadratic_forms(group)
    negation = [group.element_index(group.neg(x)) for x in group.elements()]
    verdicts = set()
    for form in forms:
        at = rng.randrange(1, group.order)
        new = rng.choice([r for r in roots_of_unity(2 * form.conductor) if r != form.values[at]])
        values = list(form.values)
        values[at] = values[negation[at]] = new
        verdicts.add(_check_verdict(group, tuple(values)))
    assert verdicts & set(WITNESSES)


@pytest.mark.parametrize("literal, value_order", [
    ("Z1", 8), ("Z2xZ1", 8), ("Z1xZ3", 6), ("Z3xZ1xZ2", 6),
])
def test_trivial_cyclic_factors_match_oracle(literal, value_order):
    """A factor Z1 has e_i = 0, at index 0, not at the product of the later
    factors: every table's verdict is the scan's, and the standard cocycle
    of every form, built from generators or from its table, is the product
    tables'."""
    group = parse_group(literal)
    verdicts = set()
    for tail in itertools.product(roots_of_unity(value_order), repeat=group.order - 1):
        verdicts.add(_check_verdict(group, (ONE, *tail)))
    assert "ok" in verdicts
    for form in enumerate_quadratic_forms(group):
        psi, omega = standard_tables(form)
        for built in (form, QuadraticForm(group, form.values)):
            cocycle = standard_cocycle(built)
            assert cocycle.psi == psi and cocycle.omega == omega


def test_rejected_tables_build_no_sigma(monkeypatch):
    """The Gram check reads O(r^2 + |G|) exponents: a rejected table builds
    no addition table and no sigma, and an accepted one builds sigma once."""
    def refuse(*args):
        raise AssertionError("a |G|^2 table was built")

    group = parse_group("Z4xZ2")
    monkeypatch.setattr(cocycles, "_sigma_rows", refuse)
    monkeypatch.setattr(cocycles, "addition_table", refuse)
    i, minus = root_of_unity(4, 1), root_of_unity(2, 1)
    z16 = root_of_unity(16, 1)
    # elements (0,0), (0,1), (1,0), (1,1), ...: q(e_0) of order 16,
    # sigma(e_0, e_1) of order 4, and q off the generator form at (2, 0)
    for values in ((ONE, ONE, z16, ONE, ONE, ONE, z16, ONE),
                   (ONE, ONE, ONE, i, ONE, ONE, ONE, i),
                   (ONE, ONE, ONE, ONE, minus, ONE, ONE, ONE)):
        with pytest.raises(InvalidQuadraticForm, match="^" + re.escape(BIMULTIPLICATIVE)):
            QuadraticForm(group, values)
    monkeypatch.undo()
    calls, real = [], cocycles._sigma_rows
    monkeypatch.setattr(cocycles, "_sigma_rows", lambda *args: calls.append(args) or real(*args))
    QuadraticForm(group, (ONE,) * 8)
    assert len(calls) == 1


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
