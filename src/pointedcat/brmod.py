"""Braided module categories over a pointed category and the level-2 S-matrix.

A module category is cut out by a subgroup H of the transparent subgroup
together with a 2-cochain mu trivializing the associator on H; its simple
objects are indexed by cosets G/H.  A braiding on it is a character chi of G
acting through

    sigma_(M_k, U_g) = omega(k, g) * omega(g, k) * chi(g)

and two such are equivalent iff their characters agree on the transparent
subgroup.  Pairing the resulting classes against transparent elements gives a
square matrix which must come out as the character table of the transparent
subgroup.  At a transparent g the scalar reduces to chi(g) on every simple,
which does not involve H or mu; ``check_column`` verifies this once per
(coset representatives, g) and aborts on any disagreement.  All of this runs
on integer exponents: sigma as the form keeps it, chi as an exponent vector,
and the rank is certified by character orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .cyclotomic import CycloMatrix, RootOfUnity, root_sum, roots_of_unity
from .errors import (
    InternalInconsistency,
    LiftNotFound,
    NoMuFound,
    NotAdmissible,
    ShapeMismatch,
    WellDefinednessViolation,
)
from .groups import (
    DEFAULT_MAX_GROUP_ORDER,
    Character,
    Element,
    Subgroup,
    characters,
    cyclic_presentation,
    quotient,
    restrict,
    subgroups_of,
    trivial_subgroup,
)
from .cocycles import TwoCochain, find_mu, two_cochain_from_table
from .metric import PointedBFC, cocycle_of, mueger_center


@dataclass(frozen=True)
class BraidedModuleCat:
    """(H, mu, chi) data; simples are indexed by the stored coset representatives."""

    base: PointedBFC
    subgroup: Subgroup
    mu: TwoCochain
    chi: Character
    coset_reps: tuple[Element, ...]


def admissible_subgroups(
    base: PointedBFC, max_order: int = DEFAULT_MAX_GROUP_ORDER
) -> list[Subgroup]:
    """Subgroups of the transparent subgroup, in deterministic order."""
    return subgroups_of(mueger_center(base), max_order)


def build_module_cat(
    base: PointedBFC, sub: Subgroup, chi: Character
) -> BraidedModuleCat:
    """Assemble a braided module category, searching for mu on an escalating
    value-order schedule exp(H), 2 exp(H), 4 exp(H) (capped at the mu-search
    bound) against ``cocycle_of(base)``; on the trivial H, mu = 1 and no
    cocycle is read.  A subgroup outside the transparent subgroup is rejected."""
    group = base.group
    if sub.parent != group:
        raise ShapeMismatch("subgroup belongs to a different group")
    if chi.parent != group:
        raise ShapeMismatch("character belongs to a different group")
    center = mueger_center(base)
    if not all(center.contains(h) for h in sub.elements):
        raise NotAdmissible(
            "braidings only exist over subgroups of the transparent subgroup"
        )
    if sub.order == 1:
        mu = two_cochain_from_table(group, sub.elements, {})
        return BraidedModuleCat(base, sub, mu, chi, tuple(group.elements()))
    exponent = sub.exponent
    schedule = [n for n in (exponent, 2 * exponent, 4 * exponent) if n <= 24] or [exponent]
    mu = None
    for value_order in schedule:
        mu = find_mu(cocycle_of(base), sub, value_order)
        if mu is not None:
            break
    if mu is None:
        raise NoMuFound(
            f"no trivializing cochain on H of order {sub.order} "
            f"with values of order up to {schedule[-1]}"
        )
    reps = quotient(group, sub).reps
    return BraidedModuleCat(base, sub, mu, chi, reps)


def check_column(base: PointedBFC, reps: tuple[Element, ...], g: Element) -> None:
    """The braiding scalar sigma(k, g) chi(g) of every simple k at the
    transparent g reduces to chi(g), whatever chi is: sigma(k, g) is read as
    an exponent at each coset representative k and must be one value, and
    that value 0.  The roots are built only for the error message."""
    if not mueger_center(base).contains(g):
        raise NotAdmissible(f"{g} is not transparent in {base.label or 'the base'}")
    group, form = base.group, base.form
    n, j = group.order, group.element_index(g)
    column = [form.sigma_exp[group.element_index(k) * n + j] for k in reps]
    for k, s in zip(reps, column):
        if s != column[0]:
            raise WellDefinednessViolation(
                f"entry at transparent {g} differs between simples {reps[0]} and {k}: "
                f"{form.pairing(reps[0], g)} vs {form.pairing(k, g)}"
            )
    if column[0]:
        raise InternalInconsistency(
            "entry at a transparent element must reduce to the character value"
        )


# ----------------------------------------------------------------------
# Schur classes.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SchurClass:
    """Equivalence class of braided module categories: the restricted character."""

    base: PointedBFC
    restricted: Character


def schur_class(mod: BraidedModuleCat) -> SchurClass:
    center = mueger_center(mod.base)
    return SchurClass(mod.base, restrict(mod.chi, center))


@dataclass(frozen=True)
class ClassRep:
    schur: SchurClass
    representative: BraidedModuleCat


@lru_cache(maxsize=None)
def schur_classes(base: PointedBFC) -> tuple[ClassRep, ...]:
    """One class per character of the transparent subgroup, each represented on
    the regular module (H trivial, built once) by a lifted character of G: the
    first in character order with that restriction."""
    group = base.group
    center = mueger_center(base)
    pres = cyclic_presentation(center)
    lifts = characters(group)
    regular = build_module_cat(base, trivial_subgroup(group), lifts[0])
    lift_of = {}
    for chi in lifts:
        lift_of.setdefault(restrict(chi, center).coords, chi)
    out = []
    for target in characters(pres.group):
        lift = lift_of.get(target.coords)
        if lift is None:
            raise LiftNotFound(
                f"no character of G restricts to {target.coords} on the "
                "transparent subgroup; this contradicts character extension"
            )
        out.append(ClassRep(SchurClass(base, target), replace(regular, chi=lift)))
    return tuple(out)


# ----------------------------------------------------------------------
# The level-2 S-matrix.
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SMatrix2:
    """chi_i(g_j) = z_e^exponents[i][j], e = exp G: rows over Schur classes,
    columns over transparent elements; ``rank`` is certified by orthogonality.
    ``roots`` and ``matrix`` are views built on first access."""

    base: PointedBFC
    rows: tuple[SchurClass, ...]
    cols: tuple[Element, ...]
    exponents: tuple[tuple[int, ...], ...]
    rank: int

    @cached_property
    def roots(self) -> tuple[tuple[RootOfUnity, ...], ...]:
        table = roots_of_unity(self.base.group.exponent)
        return tuple(tuple(table[k] for k in row) for row in self.exponents)

    @cached_property
    def matrix(self) -> CycloMatrix:
        return CycloMatrix.from_roots(self.roots)


def _orthogonality_rank(rows, conductor: int) -> int:
    """The rank of a square table of roots, certified by orthogonality.

    Entry (i, j) of S S^H is sum_g z_N^(a_ig - a_jg) for the rows a of
    exponents mod N; it is taken exactly, from the histogram of the
    differences mod N reduced modulo Phi_N, and must be |T| delta_ij.  Then
    S S^H = |T| Id and the rank is |T|.  (j, i) is the conjugate of (i, j),
    so j >= i suffices; any other value aborts.
    """
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            total = root_sum([(x - y) % conductor for x, y in zip(a, rows[j])], conductor)
            want = [len(a)] if i == j else []
            if total != want:
                raise InternalInconsistency(
                    f"level-2 S-matrix rows {i} and {j} pair to {total}, not {want}"
                )
    return len(rows)


@lru_cache(maxsize=None)
def smatrix2(base: PointedBFC) -> SMatrix2:
    """Rows over Schur classes (character order), columns over transparent
    elements (element order).  Each column is checked once, over the regular
    module's simples, so row i is its lift's exponents at the columns;
    squareness and invertibility are asserted, and the certified rank is
    kept on the result."""
    cols = mueger_center(base).elements
    reps = schur_classes(base)
    for g in cols:
        check_column(base, reps[0].representative.coset_reps, g)
    rows = tuple(tuple(item.representative.chi.exponents(cols)) for item in reps)
    if len(rows) != len(cols):
        raise InternalInconsistency(
            f"level-2 S-matrix is {len(rows)}x{len(cols)}, not square"
        )
    return SMatrix2(
        base,
        tuple(item.schur for item in reps),
        cols,
        rows,
        _orthogonality_rank(rows, base.group.exponent),
    )


def verify_character_table(base: PointedBFC) -> bool:
    """The level-2 S-matrix must be the character table of the transparent
    subgroup, matched through its cyclic-factor presentation: row i is the
    i-th character of the presented group at each column, compared as
    exponents mod exp G."""
    sm = smatrix2(base)
    pres = cyclic_presentation(mueger_center(base))
    chars = characters(pres.group)
    if len(sm.exponents) != len(chars):
        return False
    scale = base.group.exponent // pres.group.exponent
    coords = [pres.from_parent(g) for g in sm.cols]
    return all(
        list(row) == [k * scale for k in chi.exponents(coords)]
        for row, chi in zip(sm.exponents, chars)
    )


@dataclass(frozen=True)
class Pi0Report:
    pi0: int
    pi0_omega: int
    equal: bool


def pi0_report(base: PointedBFC) -> Pi0Report:
    """|pi_0| of the double layer vs the transparent subgroup order."""
    pi0 = len(schur_classes(base))
    pi0_omega = mueger_center(base).order
    if pi0 != pi0_omega:
        raise InternalInconsistency(
            f"component count {pi0} differs from transparent count {pi0_omega}"
        )
    return Pi0Report(pi0, pi0_omega, pi0 == pi0_omega)


def verify_group_hom(base: PointedBFC) -> bool:
    """Each column of the level-2 S-matrix is multiplicative on classes."""
    sm = smatrix2(base)
    e, rows = base.group.exponent, sm.exponents
    pres_group = sm.rows[0].restricted.parent
    index_of = {cls.restricted.coords: i for i, cls in enumerate(sm.rows)}
    for i, a in enumerate(sm.rows):
        for j, b in enumerate(sm.rows):
            k = index_of[pres_group.add(a.restricted.coords, b.restricted.coords)]
            if any((x + y - z) % e for x, y, z in zip(rows[i], rows[j], rows[k])):
                return False
    return True
