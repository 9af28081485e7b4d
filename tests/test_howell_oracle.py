"""The Howell engine against the reference engine in howell_oracle.py."""

import random

import pytest

import howell_oracle as oracle
from pointedcat import cocycles, groups
from pointedcat.groups import howell_form, howell_kernel, parse_group

MODULI = (1, 2, 3, 4, 6, 8, 9, 12)


def _sparse_system(rng, modulus, nrows, ncols, density=0.15):
    """Rows shaped like the classify equations: few nonzero entries, mostly +-1."""
    def entry():
        if rng.random() >= density:
            return 0
        return rng.choice((1, -1, 1, -1, rng.randrange(modulus)))

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(rng.randint(0, 3)):  # all-zero rows and repeats
        rows.insert(rng.randint(0, len(rows)), rng.choice(([0] * ncols, *rows[:1])))
    return rows


def _systems():
    rng = random.Random(15)
    for modulus in MODULI:
        for nrows, ncols in ((0, 3), (1, 1), (4, 6), (12, 9), (40, 20), (130, 40)):
            yield modulus, ncols, _sparse_system(rng, modulus, nrows, ncols)
        for _ in range(4):  # small dense systems, entries outside [0, modulus) too
            ncols = rng.randint(1, 6)
            yield modulus, ncols, [[rng.randrange(-2 * modulus, 2 * modulus + 1)
                                    for _ in range(ncols)]
                                   for _ in range(rng.randint(1, 8))]


@pytest.mark.parametrize("modulus, ncols, rows", list(_systems()))
def test_howell_engine_matches_oracle(modulus, ncols, rows):
    assert howell_form(rows, modulus) == oracle.howell_form(rows, modulus)
    assert howell_kernel(rows, ncols, modulus) == oracle.howell_kernel(rows, ncols, modulus)


def test_kernel_pre_reduction_bounds_the_augmented_width(monkeypatch):
    # Count work, not time: on the Z4, N = 3 classification every matrix that
    # howell_kernel hands to howell_form is at most rank + ncols wide.
    systems, widths = [], []
    real_form = groups.howell_form

    def counting_form(rows, modulus):
        widths.extend(len(row) for row in rows[:1])
        return real_form(rows, modulus)

    def recording_kernel(rows, ncols, modulus):
        systems.append((rows, ncols, modulus))
        return groups.howell_kernel(rows, ncols, modulus)

    # cocycles holds its own binding of howell_form, so only groups' calls count
    monkeypatch.setattr(groups, "howell_form", counting_form)
    monkeypatch.setattr(cocycles, "howell_kernel", recording_kernel)
    cocycles.classify_h3ab(parse_group("Z4"), 3)

    ((rows, ncols, modulus),) = systems
    rank = len(real_form(rows, modulus))
    assert len(rows) > rank  # without the pre-reduction the bound would fail
    assert len(widths) == 2 and max(widths) <= rank + ncols
