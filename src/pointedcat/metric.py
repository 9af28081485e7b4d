"""Pointed braided fusion categories as metric groups (G, q).

All simple objects are invertible with quantum dimension 1, so the
1-categorical S-matrix entry at (g, h) is just the double-braiding scalar
sigma(g, h) = omega(g,h) omega(h,g), the polarization of q.  Non-degeneracy
(invertible S-matrix) and triviality of the transparent subgroup are two
routes to one fact and are cross-checked against each other; a disagreement
aborts because it can only mean an arithmetic bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import CycloMatrix, CycloNumber, RootOfUnity, embed, root_of_unity
from .errors import (
    InternalInconsistency,
    NotSubgroup,
    ParseError,
    ValidationError,
)
from .groups import (
    DEFAULT_MAX_GROUP_ORDER,
    AbelianGroup,
    Subgroup,
    all_subgroups,
    parse_group,
    format_group,
    subgroup_from_elements,
)
from .cocycles import (
    AbelianCocycle, QuadraticForm, _kept, form_from_generators, standard_cocycle, trace_form,
)

# The S-matrix rank is cross-checked against the transparent subgroup up to
# this order, which covers D(Z6) and D(Z8).  Past it only the (provably
# equivalent) transparent-subgroup criterion runs: on D(Z16) the modular rank
# alone takes about 1 s in pure Python, on top of 0.2 s for smatrix1.
RANK_CHECK_BOUND = 64

# Dense cocycle tables are |G|^3; only attach them to doubles this small.
DOUBLE_COCYCLE_BOUND = 16


@dataclass(frozen=True)
class PointedBFC:
    """A metric group (G, q), optionally carrying an explicit cocycle.  What
    is decided about it once is kept in ``_results`` (see ``cocycles._kept``)."""

    group: AbelianGroup
    form: QuadraticForm
    cocycle: AbelianCocycle | None
    label: str

    def __post_init__(self):
        assert self.form.group == self.group
        object.__setattr__(self, "_results", {})


def make_category(
    form: QuadraticForm,
    cocycle: AbelianCocycle | None = None,
    label: str = "",
) -> PointedBFC:
    """Bundle a quadratic form with an optional cocycle; their traces must agree."""
    if cocycle is not None:
        traced = trace_form(cocycle)
        if traced.values != form.values:
            raise ValidationError(
                "cocycle trace disagrees with the declared quadratic form"
            )
    return PointedBFC(form.group, form, cocycle, label)


def category_from_form(form: QuadraticForm, label: str = "") -> PointedBFC:
    """Category with the standard cocycle attached."""
    return make_category(form, standard_cocycle(form), label)


# ----------------------------------------------------------------------
# S- and T-matrices.
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SMatrix1:
    category: PointedBFC
    matrix: CycloMatrix
    roots: tuple[tuple[RootOfUnity, ...], ...]

    def __post_init__(self):
        n = self.category.group.order
        for i in range(n):
            if not (self.roots[0][i].is_one and self.roots[i][0].is_one):
                raise InternalInconsistency("S-matrix unit row/column is not all 1")
            for j in range(n):
                if self.roots[i][j] != self.roots[j][i]:
                    raise InternalInconsistency(f"S-matrix not symmetric at ({i},{j})")


def smatrix1(category: PointedBFC) -> SMatrix1:
    """Entry (g, h) is the double braiding sigma(g, h); rows/cols in element order."""
    group = category.group
    elems = group.elements()
    q = category.form
    roots = tuple(tuple(q.pairing(g, h) for h in elems) for g in elems)
    conductor = math.lcm(*(r.order for row in roots for r in row))
    matrix = CycloMatrix.from_rows(
        [[embed(r, conductor) for r in row] for row in roots]
    )
    return SMatrix1(category, matrix, roots)


def tmatrix(category: PointedBFC) -> CycloMatrix:
    """Diagonal matrix of the twists q(g) in element order."""
    group = category.group
    elems = group.elements()
    q = category.form
    conductor = math.lcm(*(q.q(g).order for g in elems))
    zero = CycloNumber.zero(conductor)
    rows = [
        [embed(q.q(g), conductor) if i == j else zero for j, _ in enumerate(elems)]
        for i, g in enumerate(elems)
    ]
    return CycloMatrix.from_rows(rows)


def tmatrix_diagonal(category: PointedBFC) -> tuple[RootOfUnity, ...]:
    return tuple(category.form.q(g) for g in category.group.elements())


# ----------------------------------------------------------------------
# Transparency and non-degeneracy.
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def mueger_center(category: PointedBFC) -> Subgroup:
    """The subgroup of g whose double braiding with everything is trivial."""
    group = category.group
    q = category.form
    elems = group.elements()
    center = [g for g in elems if all(q.pairing(g, h).is_one for h in elems)]
    try:
        return subgroup_from_elements(group, center)
    except NotSubgroup as exc:
        raise InternalInconsistency(f"transparent elements are no subgroup: {exc}") from exc


def is_symmetric(category: PointedBFC) -> bool:
    group = category.group
    q = category.form
    elems = group.elements()
    all_trivial = all(q.pairing(g, h).is_one for g in elems for h in elems)
    center_is_everything = mueger_center(category).order == group.order
    if all_trivial != center_is_everything:
        raise InternalInconsistency(
            "sigma == 1 disagrees with the transparent subgroup being everything"
        )
    return all_trivial


@_kept
def is_nondegenerate(category: PointedBFC) -> bool:
    """True iff the S-matrix is invertible, equivalently the center is trivial.

    Both criteria are computed and compared (up to RANK_CHECK_BOUND, past
    which only the center criterion is evaluated), once per category object.
    """
    center_trivial = mueger_center(category).order == 1
    if category.group.order <= RANK_CHECK_BOUND:
        full_rank = smatrix1(category).matrix.rank() == category.group.order
        if full_rank != center_trivial:
            raise InternalInconsistency(
                "S-matrix rank criterion disagrees with the transparent subgroup"
            )
    return center_trivial


# ----------------------------------------------------------------------
# Drinfeld double.
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def drinfeld_double(group: AbelianGroup) -> PointedBFC:
    """The metric group on G x G^ with q(g, chi) = chi(g).

    The dual group is realized on the same cyclic factors: the generators
    have twist 1, and coordinate i of G pairs with coordinate i of G^
    through z_(n_i).
    """
    double = AbelianGroup(group.factors + group.factors)
    r = group.rank
    form = form_from_generators(
        double,
        [root_of_unity(1, 0)] * (2 * r),
        {(i, r + i): root_of_unity(n, 1) for i, n in enumerate(group.factors)},
    )
    cocycle = standard_cocycle(form) if double.order <= DOUBLE_COCYCLE_BOUND else None
    category = make_category(form, cocycle, label=f"double:{format_group(group)}")
    if not is_nondegenerate(category):
        raise InternalInconsistency("a Drinfeld double must be non-degenerate")
    return category


# ----------------------------------------------------------------------
# Isotropic and Lagrangian subgroups; center detection.
# ----------------------------------------------------------------------

def isotropic_subgroups(
    category: PointedBFC, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> list[Subgroup]:
    """All subgroups on which q is identically 1 (so sigma is too, asserted)."""
    q = category.form
    out = []
    for sub in all_subgroups(category.group, max_order):
        if all(q.q(g).is_one for g in sub.elements):
            for g in sub.elements:
                for h in sub.elements:
                    if not q.pairing(g, h).is_one:
                        raise InternalInconsistency(
                            f"isotropic subgroup with nontrivial pairing at ({g},{h})"
                        )
            out.append(sub)
    return out


def lagrangian_subgroups(
    category: PointedBFC, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> list[Subgroup]:
    """Isotropic subgroups with |L|^2 = |G|; empty when |G| is not a square."""
    order = category.group.order
    return [
        sub for sub in isotropic_subgroups(category, max_order)
        if sub.order * sub.order == order
    ]


@dataclass(frozen=True)
class CenterReport:
    nondegenerate: bool
    lagrangian_count: int
    is_center: bool
    witnesses: tuple[Subgroup, ...]
    degenerate_ambient: bool


def detect_center(
    category: PointedBFC, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> CenterReport:
    """A non-degenerate category with a Lagrangian subgroup is a Drinfeld center.

    For degenerate input the Lagrangian notion is only formal; the report
    carries a warning flag instead of erroring.
    """
    nondeg = is_nondegenerate(category)
    witnesses = tuple(lagrangian_subgroups(category, max_order))
    return CenterReport(
        nondegenerate=nondeg,
        lagrangian_count=len(witnesses),
        is_center=nondeg and bool(witnesses),
        witnesses=witnesses,
        degenerate_ambient=not nondeg,
    )


# ----------------------------------------------------------------------
# Presets.
# ----------------------------------------------------------------------

def _rank_one_form(order: int, q1: RootOfUnity) -> QuadraticForm:
    return form_from_generators(AbelianGroup((order,)), [q1], {})


def preset_names() -> list[str]:
    return ["trivial", "svect", "semion", "semion-bar", "toric"]


@lru_cache(maxsize=None)
def preset(name: str) -> PointedBFC:
    """Named example categories; "double:<group>" builds a Drinfeld double."""
    key = name.strip().lower()
    if key == "trivial":
        return category_from_form(_rank_one_form(1, root_of_unity(1, 0)), label="trivial")
    if key == "svect":
        return category_from_form(_rank_one_form(2, root_of_unity(2, 1)), label="svect")
    if key == "semion":
        return category_from_form(_rank_one_form(2, root_of_unity(4, 1)), label="semion")
    if key == "semion-bar":
        return category_from_form(
            _rank_one_form(2, root_of_unity(4, 3)), label="semion-bar"
        )
    if key == "toric":
        double = drinfeld_double(AbelianGroup((2,)))
        return PointedBFC(double.group, double.form, double.cocycle, "toric")
    if key.startswith("double:"):
        return drinfeld_double(parse_group(key.removeprefix("double:")))
    raise ParseError(f"unknown preset {name!r}")
