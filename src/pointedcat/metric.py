"""Pointed braided fusion categories as metric groups (G, q).

All simple objects are invertible with quantum dimension 1, so the
1-categorical S-matrix entry at (g, h) is just the double-braiding scalar
sigma(g, h) = omega(g,h) omega(h,g), the polarization of q.  Non-degeneracy
(invertible S-matrix) and triviality of the transparent subgroup are two
routes to one fact and are cross-checked against each other at every order;
a disagreement aborts because it can only mean an arithmetic bug.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from ._value import Value, setfield
from .cyclotomic import (
    CycloMatrix, CycloNumber, RootOfUnity, embed, root_of_unity, root_sum, roots_of_unity,
)
from .errors import (
    GroupTooLarge,
    InternalInconsistency,
    NotSubgroup,
    ParseError,
    ValidationError,
)
from .groups import (
    DEFAULT_MAX_GROUP_ORDER,
    AbelianGroup,
    Subgroup,
    _subgroups_over,
    addition_table,
    parse_group,
    format_group,
    subgroup_from_elements,
)
from .cocycles import (
    AbelianCocycle, QuadraticForm, _kept, form_from_generators, standard_cocycle, trace_form,
)

# Doubles up to this order carry their standard cocycle.  It is proved valid
# from generator data and its |G|^3 tables are built only when read (the
# `double` JSON, `cocycle-check`), so carrying it costs O(|G| rank^2).  The
# bound stays because perfbench pins `cocycle is not None` per double.
DOUBLE_COCYCLE_BOUND = 16


class PointedBFC(Value):
    """A metric group (G, q), optionally carrying an explicit cocycle.  What
    is decided about it once is kept in ``_results`` (see ``cocycles._kept``)
    and the hash is computed once."""

    _fields = ("group", "form", "cocycle", "label")

    def __init__(self, group: AbelianGroup, form: QuadraticForm,
                 cocycle: AbelianCocycle | None, label: str):
        setfield(self, "group", group)
        setfield(self, "form", form)
        setfield(self, "cocycle", cocycle)
        setfield(self, "label", label)
        assert form.group == group
        setfield(self, "_results", {})
        setfield(self, "_hash", hash((group, form, cocycle, label)))

    def __hash__(self) -> int:
        return self._hash


def make_category(
    form: QuadraticForm,
    cocycle: AbelianCocycle | None = None,
    label: str = "",
) -> PointedBFC:
    """Bundle a quadratic form with an optional cocycle; their traces must agree.
    A standard cocycle keeps its form as its trace, so it is not re-validated."""
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


@_kept
def cocycle_of(category: PointedBFC) -> AbelianCocycle:
    """The category's own cocycle, else its form's standard one, built on first
    use: the form determines the cocycle up to coboundary (H^3_ab(G) = Quad(G))."""
    return category.cocycle if category.cocycle is not None else standard_cocycle(category.form)


# ----------------------------------------------------------------------
# S- and T-matrices.
# ----------------------------------------------------------------------

class SMatrix1(Value):
    """The roots sigma(g, h); the CycloMatrix is built on first access.
    Equal only to itself."""

    _fields = ("category", "roots")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, category: PointedBFC, roots: tuple[tuple[RootOfUnity, ...], ...]):
        setfield(self, "category", category)
        setfield(self, "roots", roots)
        n, sigma = category.group.order, category.form.sigma_exp
        for i in range(n):
            if sigma[i] or sigma[i * n]:
                raise InternalInconsistency("S-matrix unit row/column is not all 1")
            for j in range(n):
                if sigma[i * n + j] != sigma[j * n + i]:
                    raise InternalInconsistency(f"S-matrix not symmetric at ({i},{j})")

    @cached_property
    def matrix(self) -> CycloMatrix:
        return CycloMatrix.from_roots(self.roots)


def smatrix1(category: PointedBFC) -> SMatrix1:
    """Entry (g, h) is the double braiding sigma(g, h); rows/cols in element order."""
    q = category.form
    n = category.group.order
    roots = roots_of_unity(q.conductor)
    rows = tuple(
        tuple(roots[s] for s in q.sigma_exp[i * n:(i + 1) * n]) for i in range(n)
    )
    return SMatrix1(category, rows)


def tmatrix(category: PointedBFC) -> CycloMatrix:
    """Diagonal matrix of the twists q(g) in element order."""
    diagonal = tmatrix_diagonal(category)
    conductor = math.lcm(*(t.order for t in diagonal))
    zero = CycloNumber.zero(conductor)
    rows = [
        [embed(t, conductor) if i == j else zero for j in range(len(diagonal))]
        for i, t in enumerate(diagonal)
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
    sigma, n = category.form.sigma_exp, group.order
    center = [g for i, g in enumerate(group.elements()) if not any(sigma[i * n:(i + 1) * n])]
    try:
        return subgroup_from_elements(group, center)
    except NotSubgroup as exc:
        raise InternalInconsistency(f"transparent elements are no subgroup: {exc}") from exc


def is_symmetric(category: PointedBFC) -> bool:
    all_trivial = not any(category.form.sigma_exp)
    center_is_everything = mueger_center(category).order == category.group.order
    if all_trivial != center_is_everything:
        raise InternalInconsistency(
            "sigma == 1 disagrees with the transparent subgroup being everything"
        )
    return all_trivial


@_kept
def smatrix_rank(category: PointedBFC) -> int:
    """rank S = |G/T| for the transparent subgroup T, certified exactly.

    sigma is a bicharacter, so (S S^H)[g, h] = sum_k sigma(g - h, k), which
    must be |G| for g - h in T and 0 otherwise: |G| times the coset indicator
    of T, of rank |G/T|, and rank S = rank S S^H.  Each row sum sum_j h_j z_N^j
    is taken from the histogram h of its exponents mod N reduced modulo Phi_N,
    so it is exact.  Runs once per category object, at every order; any other
    value aborts.
    """
    q, n = category.form, category.group.order
    center = mueger_center(category)
    transparent = {category.group.element_index(g) for g in center.elements}
    for d in range(n):
        row_sum = root_sum(q.sigma_exp[d * n:(d + 1) * n], q.conductor)
        if row_sum != ([n] if d in transparent else []):
            raise InternalInconsistency(
                f"row sum {row_sum} of sigma at element index {d} disagrees "
                "with the transparent subgroup"
            )
    return n // center.order


def is_nondegenerate(category: PointedBFC) -> bool:
    """True iff the S-matrix is invertible, equivalently the center is trivial;
    the two are cross-checked by ``smatrix_rank``."""
    return smatrix_rank(category) == category.group.order


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
    """All subgroups on which q is identically 1 (so sigma is too, asserted),
    sorted by (order, element list).

    They are grown from {0} through cosets on which q is 1.  For H isotropic
    and q(g) = 1, q(g + h) = sigma(g, h) and q(k g + h) = sigma(g, h)^k, so
    <H, g> is isotropic exactly when the coset g + H is, and every isotropic
    subgroup is reached one element at a time.  Only those are built.  The
    growth reads q alone, so sigma stays an independent check on each.
    """
    group, n = category.group, category.group.order
    if n > max_order:
        raise GroupTooLarge(f"|G| = {n} exceeds the bound {max_order}")
    table, q, sigma = addition_table(group), category.form.values, category.form.sigma_exp
    subs = _subgroups_over(
        group, [i for i, v in enumerate(q) if v.is_one],
        lambda members, g: all(q[table[g * n + h]].is_one for h in members),
    )
    for sub in subs:
        index = [group.element_index(g) for g in sub.elements]
        for g, i in zip(sub.elements, index):
            for h, j in zip(sub.elements, index):
                if sigma[i * n + j]:
                    raise InternalInconsistency(
                        f"isotropic subgroup with nontrivial pairing at ({g},{h})"
                    )
    return subs


def lagrangian_subgroups(
    category: PointedBFC, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> list[Subgroup]:
    """Isotropic subgroups with |L|^2 = |G|; empty when |G| is not a square."""
    order = category.group.order
    return [
        sub for sub in isotropic_subgroups(category, max_order)
        if sub.order * sub.order == order
    ]


class CenterReport(Value):
    __slots__ = _fields = (
        "nondegenerate", "lagrangian_count", "is_center", "witnesses", "degenerate_ambient",
    )

    def __init__(self, nondegenerate: bool, lagrangian_count: int, is_center: bool,
                 witnesses: tuple[Subgroup, ...], degenerate_ambient: bool):
        setfield(self, "nondegenerate", nondegenerate)
        setfield(self, "lagrangian_count", lagrangian_count)
        setfield(self, "is_center", is_center)
        setfield(self, "witnesses", witnesses)
        setfield(self, "degenerate_ambient", degenerate_ambient)


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
