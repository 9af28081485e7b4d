"""The verification battery: every theorem shadow, run over a small-group roster.

Each check is executed for every quadratic form on the roster groups; failures
are collected as data (with a witness string), never raised, so a corrupted
case produces a FAIL row instead of an exception.  Summaries are deterministic
and byte-identical across runs.
"""

from __future__ import annotations

import itertools
import math

from ._value import Value, setfield
from .cyclotomic import (
    CycloNumber,
    RootOfUnity,
    cyclotomic_polynomial,
    format_root,
    root_matrix_rank,
    root_of_unity,
    root_sum,
    roots_of_unity,
    _poly_mul,
)
from .errors import GroupTooLarge, NotAdmissible, PointedCatError
from .groups import (
    AbelianGroup,
    Subgroup,
    character_table,
    characters,
    format_group,
    full_subgroup,
    parse_group,
)
from .cocycles import QuadraticForm, classify_h3ab, find_mu, form_from_generators
from .metric import (
    PointedBFC,
    detect_center,
    drinfeld_double,
    is_nondegenerate,
    lagrangian_subgroups,
    make_category,
    mueger_center,
    preset,
    smatrix1,
)
from .brmod import (
    admissible_subgroups,
    build_module_cat,
    check_column,
    row_starts,
    schur_classes,
    smatrix2,
    pi0_report,
    verify_character_table,
    verify_group_hom,
)

ROSTER = ("Z2", "Z3", "Z4", "Z2xZ2")


def enumerate_quadratic_forms(
    group: AbelianGroup, max_order: int = 16
) -> list[QuadraticForm]:
    """All quadratic forms on G, by brute force over generator values and
    cross pairings.

    A form is determined by tau_i = q(e_i), a root of order dividing 2 n_i
    (n_i when n_i is odd), together with pairings sigma(e_i, e_j) of order
    dividing gcd(n_i, n_j); every combination yields a valid form and every
    form arises once.  Deterministic order, sorted by the value table.
    """
    if group.order > max_order:
        raise GroupTooLarge(f"|G| = {group.order} exceeds the bound {max_order}")
    rank = group.rank
    tau_choices = [roots_of_unity(n if n % 2 == 1 else 2 * n) for n in group.factors]
    pair_slots = [(i, j) for i in range(rank) for j in range(i + 1, rank)]
    pair_choices = [
        roots_of_unity(math.gcd(group.factors[i], group.factors[j])) for i, j in pair_slots
    ]
    forms = []
    for taus in itertools.product(*tau_choices):
        for pairs in itertools.product(*pair_choices):
            forms.append(form_from_generators(group, taus, dict(zip(pair_slots, pairs))))
    forms.sort(key=lambda f: tuple((v.order, v.exponent) for v in f.values))
    return forms


# ----------------------------------------------------------------------
# Cases and rows.
# ----------------------------------------------------------------------

class BatteryCase(Value):
    __slots__ = _fields = ("group_literal", "q_values")

    def __init__(self, group_literal: str, q_values: tuple[RootOfUnity, ...]):
        setfield(self, "group_literal", group_literal)
        setfield(self, "q_values", q_values)

    @property
    def label(self) -> str:
        table = ",".join(format_root(v) for v in self.q_values)
        return f"{self.group_literal} q=[{table}]"


class BatteryRow(Value):
    __slots__ = _fields = ("case", "check", "passed", "witness")

    def __init__(self, case: str, check: str, passed: bool, witness: str | None):
        setfield(self, "case", case)
        setfield(self, "check", check)
        setfield(self, "passed", passed)
        setfield(self, "witness", witness)


class BatterySummary(Value):
    __slots__ = _fields = ("rows", "all_pass", "warning")

    def __init__(self, rows: tuple[BatteryRow, ...], all_pass: bool, warning: str | None):
        setfield(self, "rows", rows)
        setfield(self, "all_pass", all_pass)
        setfield(self, "warning", warning)


def default_cases() -> list[BatteryCase]:
    cases = []
    for literal in ROSTER:
        group = parse_group(literal)
        for form in enumerate_quadratic_forms(group):
            cases.append(BatteryCase(literal, form.values))
    return cases


# ----------------------------------------------------------------------
# Per-case checks (the quantified acceptance criteria).
# ----------------------------------------------------------------------

def check_character_table(base: PointedBFC):
    ok = verify_character_table(base)
    return ok, None if ok else "level-2 S-matrix differs from the character table"


def check_pi0(base: PointedBFC):
    report = pi0_report(base)
    return report.equal, None if report.equal else f"{report.pi0} vs {report.pi0_omega}"


def check_full_rank(base: PointedBFC):
    sm = smatrix2(base)
    full = sm.rank == len(sm.exponents)
    return full, None if full else "determinant is zero"


def check_group_hom(base: PointedBFC):
    ok = verify_group_hom(base)
    return ok, None if ok else "a column is not multiplicative on classes"


def check_nondegeneracy_equivalence(base: PointedBFC):
    """rank S = |G| iff the transparent subgroup is trivial, with S ranked a
    second way, apart from ``smatrix_rank``: its sigma exponents mod primes,
    and ``CycloMatrix.rank`` (orthogonality, the primes, then Bareiss) only
    when no prime certifies."""
    form, n = base.form, base.group.order
    rank = root_matrix_rank(form.sigma_exp, n, form.conductor)
    if rank is None:
        rank = smatrix1(base).matrix.rank()
    full = rank == n
    center_trivial = mueger_center(base).order == 1
    ok = full == center_trivial
    return ok, None if ok else f"rank {rank} vs center order {mueger_center(base).order}"


def check_unit_row_col(base: PointedBFC):
    sm = smatrix2(base)
    trivial_row = not any(sm.exponents[0])
    zero_col = not any(row[0] for row in sm.exponents)
    ok = trivial_row and zero_col
    return ok, None if ok else "unit row or column contains a value other than 1"


def check_well_definedness(base: PointedBFC):
    """Every admissible H carries a module (a mu exists), and every braiding
    scalar on it at a transparent g reduces to chi(g).  That check reads
    sigma alone, so it runs once per (H, g) and covers every chi attached to
    H; the trivial H is the regular module that the Schur classes hold.  A
    failure aborts."""
    cols = mueger_center(base).elements
    regular = schur_classes(base)[0].representative
    for sub in admissible_subgroups(base):
        mod = build_module_cat(base, sub, regular.chi) if sub.order > 1 else regular
        starts = row_starts(base.group, mod.rep_indices)
        for g in cols:
            check_column(base, mod.coset_reps, g, starts)
    return True, None


CASE_CHECKS = (
    ("character-table-theorem", check_character_table),
    ("pi0-bijection", check_pi0),
    ("smatrix2-full-rank", check_full_rank),
    ("group-homomorphism", check_group_hom),
    ("nondegeneracy-equivalence", check_nondegeneracy_equivalence),
    ("unit-row-and-column", check_unit_row_col),
    ("well-definedness", check_well_definedness),
)


# ----------------------------------------------------------------------
# Global checks (unquantified acceptance criteria).
# ----------------------------------------------------------------------

def check_symmetric_case():
    """For q identically 1 the level-2 S-matrix is the character table of G itself."""
    for literal in ("Z2", "Z2xZ2"):
        group = parse_group(literal)
        form = QuadraticForm(group, tuple([root_of_unity(1, 0)] * group.order))
        base = make_category(form, label=f"symmetric {literal}")
        sm = smatrix2(base)
        if sm.matrix != character_table(group):
            return False, f"symmetric case on {literal}"
    return True, None


def check_double_facts():
    for literal in ("Z2", "Z3", "Z4", "Z2xZ2"):
        double = drinfeld_double(parse_group(literal))
        if not is_nondegenerate(double):
            return False, f"double of {literal} is degenerate"
        report = detect_center(double)
        if not report.is_center:
            return False, f"double of {literal} not detected as a center"
    toric = preset("toric")
    count = len(lagrangian_subgroups(toric))
    if count != 2:
        return False, f"toric double has {count} Lagrangian subgroups, expected 2"
    return True, None


def _mu_obstructed(form: QuadraticForm, sub: Subgroup) -> bool:
    """The existence rule: a mu trivializing the associator on H exists iff
    q(h)^ord(h) = 1 for every h in H."""
    group = sub.parent
    return any(not (form.q(h) ** group.element_order(h)).is_one for h in sub.elements)


def check_braiding_existence():
    """The semion admits no braided module structure on H = Z/2; svect does.
    The existence rule and ``find_mu`` are two paths to each verdict."""
    semion = preset("semion")
    whole = full_subgroup(semion.group)
    chi = characters(semion.group)[0]
    try:
        build_module_cat(semion, whole, chi)
        return False, "semion accepted H = Z/2"
    except NotAdmissible:
        pass
    if not _mu_obstructed(semion.form, whole):
        return False, "the existence rule allows mu for the semion on H = Z/2"
    for value_order in (2, 4, 8):
        if find_mu(semion.cocycle, whole, value_order) is not None:
            return False, f"semion found mu at value order {value_order}"
    svect = preset("svect")
    whole = full_subgroup(svect.group)
    if _mu_obstructed(svect.form, whole):
        return False, "the existence rule finds no mu for svect on H = Z/2"
    mod = build_module_cat(svect, whole, characters(svect.group)[0])
    if any(not v.is_one for v in mod.mu.table):
        return False, "svect mu should be identically 1"
    return True, None


def check_classification():
    group = parse_group("Z2")
    classes = classify_h3ab(group, 4)
    if len(classes) != 4:
        return False, f"{len(classes)} classes on Z2, expected 4"
    q_values = sorted(
        (cls.form.q((1,)).order, cls.form.q((1,)).exponent) for cls in classes
    )
    expected = sorted([(1, 0), (4, 1), (2, 1), (4, 3)])
    if q_values != expected:
        return False, f"class keys {q_values}"
    return True, None


def check_phi_reconstruction(limit: int = 48):
    for n in range(1, limit + 1):
        product = [1]
        d = 1
        while d <= n:
            if n % d == 0:
                product = _poly_mul(product, list(cyclotomic_polynomial(d)))
            d += 1
        expected = [-1] + [0] * (n - 1) + [1]
        if product != expected:
            return False, f"Phi product fails at N = {n}"
    return True, None


def _abelian_groups_of_order(n: int) -> list[AbelianGroup]:
    def partitions(k):
        if k == 0:
            yield []
            return
        for first in range(k, 0, -1):
            for rest in partitions(k - first):
                if not rest or rest[0] <= first:
                    yield [first] + rest

    factorization = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            factorization[p] = factorization.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factorization[m] = factorization.get(m, 0) + 1

    per_prime = []
    for p, e in sorted(factorization.items()):
        per_prime.append([[p**part for part in parts] for parts in partitions(e)])
    groups = [AbelianGroup((1,))] if n == 1 else []
    for combo in itertools.product(*per_prime) if per_prime else []:
        factors = sorted((f for parts in combo for f in parts), reverse=True)
        groups.append(AbelianGroup(tuple(factors)))
    return groups


def check_character_determinants(limit: int = 8):
    """|det T|^2 = |G|^|G| for the character table, via T conj(T)^t = |G| Id.
    Entry (i, j) of T conj(T)^t is the root sum of a_i - a_j over the rows a
    of character exponents mod exp G, taken exactly by ``root_sum`` for
    j >= i, since entry (j, i) is the conjugate of entry (i, j); the
    determinant is Bareiss."""
    for n in range(1, limit + 1):
        for group in _abelian_groups_of_order(n):
            elems, e = group.elements(), group.exponent
            rows = [chi.exponents(elems) for chi in characters(group)]
            if any(
                root_sum([(x - y) % e for x, y in zip(a, rows[j])], e) != ([n] if i == j else [])
                for i, a in enumerate(rows) for j in range(i, n)
            ):
                return False, f"orthogonality fails for {format_group(group)}"
            det = character_table(group).det()
            norm = det * det.conj()
            if norm != CycloNumber.from_rational(n**n):
                return False, f"|det|^2 != |G|^|G| for {format_group(group)}"
    return True, None


GLOBAL_CHECKS = (
    ("symmetric-case", check_symmetric_case),
    ("drinfeld-double-facts", check_double_facts),
    ("braiding-existence", check_braiding_existence),
    ("cohomology-classification", check_classification),
    ("phi-reconstruction", check_phi_reconstruction),
    ("character-table-determinant", check_character_determinants),
)


# ----------------------------------------------------------------------
# Runner.
# ----------------------------------------------------------------------

def run_all(cases=None, include_global: bool = True) -> BatterySummary:
    """Run every check; failures (including aborts) become FAIL rows with a witness."""
    if cases is None:
        cases = default_cases()
    rows = []
    for case in cases:
        label = case.label
        try:
            group = parse_group(case.group_literal)
            form = QuadraticForm(group, case.q_values)
            rows.append(BatteryRow(label, "quadratic-form-valid", True, None))
        except PointedCatError as exc:
            rows.append(BatteryRow(label, "quadratic-form-valid", False, str(exc)))
            continue
        base = make_category(form, label=label)
        for name, fn in CASE_CHECKS:
            try:
                passed, witness = fn(base)
            except PointedCatError as exc:
                passed, witness = False, f"{type(exc).__name__}: {exc}"
            rows.append(BatteryRow(label, name, passed, witness))
    if include_global:
        for name, fn in GLOBAL_CHECKS:
            try:
                passed, witness = fn()
            except PointedCatError as exc:
                passed, witness = False, f"{type(exc).__name__}: {exc}"
            rows.append(BatteryRow("global", name, passed, witness))
    warning = "battery ran with no cases" if not cases else None
    all_pass = all(row.passed for row in rows)
    return BatterySummary(tuple(rows), all_pass, warning)
