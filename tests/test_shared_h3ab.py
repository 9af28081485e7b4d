"""classify_h3ab on one integer system per group, against the per-call oracle.

`cocycles._h3ab_system` builds the identities and coboundary rows of a
group once and checks them over Z; each `classify_h3ab` call reduces them
mod N, as the Howell engine does.  `tests/h3ab_oracle.py` builds and checks
them mod N on every call.
On every group and value order that classify accepts, called in ascending,
descending and shuffled order, first with the memo cold and then warm, the
two must agree on the equations handed to the kernel (as the set of their
nonzero reductions mod N), the kernel, the
coboundary generators and their Howell form, and the classes with their
representatives and orbit sizes; and each group's system is built once.
"""

import random

import pytest

import h3ab_oracle
from pointedcat import cocycles
from pointedcat.cocycles import CLASSIFY_MAX_VALUE_ORDER, classify_h3ab
from pointedcat.groups import parse_group, sparse_howell_form, sparse_howell_kernel

GROUPS = ("Z1", "Z2", "Z3", "Z4", "Z2xZ2")
VALUE_ORDERS = list(range(1, CLASSIFY_MAX_VALUE_ORDER + 1))
ORDERS = {
    "ascending": VALUE_ORDERS,
    "descending": VALUE_ORDERS[::-1],
    "shuffled": random.Random(7).sample(VALUE_ORDERS, len(VALUE_ORDERS)),
}


def _roots(values):
    return [(v.order, v.exponent) for v in values]


def _classes(classes):
    return [(_roots(c.form.values), _roots(c.representative.psi),
             _roots(c.representative.omega), c.orbit_size) for c in classes]


@pytest.fixture(scope="module")
def oracle():
    """(equations, kernel, generators, B, classes) per (group, N), built per call."""
    out = {}
    for literal in GROUPS:
        group = parse_group(literal)
        for n in VALUE_ORDERS:
            triples, pairs, equations, generators = h3ab_oracle.system(group, n)
            width = len(triples) + len(pairs)
            out[literal, n] = (
                equations,
                sparse_howell_kernel(equations, width, n),
                generators,
                sparse_howell_form((gen.items() for gen in generators), n),
                _classes(h3ab_oracle.classify_h3ab(group, n)),
            )
    return out


@pytest.fixture
def recorded(monkeypatch):
    """What classify_h3ab hands the kernel and the coboundary form, and gets back."""
    calls = []
    real_kernel, real_form = cocycles.sparse_howell_kernel, cocycles.sparse_howell_form

    def kernel(rows, ncols, modulus):
        rows = list(rows)
        equations = {tuple((i, k % modulus) for i, k in row if k % modulus) for row in rows}
        calls.append(("kernel", sorted(equations - {()}), real_kernel(rows, ncols, modulus)))
        return calls[-1][2]

    def form(rows, modulus, *start):
        rows = [tuple(row) for row in rows]
        generators = [{i: k % modulus for i, k in row if k % modulus} for row in rows]
        calls.append(("form", generators, real_form(rows, modulus, *start)))
        return calls[-1][2]

    monkeypatch.setattr(cocycles, "sparse_howell_kernel", kernel)
    monkeypatch.setattr(cocycles, "sparse_howell_form", form)
    cocycles._h3ab_system.cache_clear()
    yield calls
    cocycles._h3ab_system.cache_clear()


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("literal", GROUPS)
def test_shared_system_matches_the_per_call_oracle(oracle, recorded, literal, order):
    group = parse_group(literal)
    values = ORDERS[order]
    for passes in (1, 2):  # the memo cold, then warm
        for n in values:
            recorded.clear()
            classes = _classes(classify_h3ab(group, n))
            equations, kernel, generators, form, expected = oracle[literal, n]
            assert recorded == [("kernel", equations, kernel), ("form", generators, form)]
            assert classes == expected, (literal, n)
        info = cocycles._h3ab_system.cache_info()
        assert (info.misses, info.hits) == (1, passes * len(values) - 1)


def test_an_equal_group_shares_the_system(recorded):
    classify_h3ab(parse_group("Z2xZ2"), 2)
    classify_h3ab(parse_group("Z2xZ2"), 3)
    info = cocycles._h3ab_system.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
