"""Exact S-matrix computations for pointed braided fusion categories.

Everything is decided in exact cyclotomic arithmetic: the level-1 S-matrix
of a metric group (G, q), its transparent subgroup and non-degeneracy, the
Drinfeld double, Lagrangian subgroups, and the braided-module-category layer
whose S-matrix is verified to be the character table of the transparent
subgroup.
"""

from .errors import (
    BoundsError,
    InconsistencyError,
    PointedCatError,
    ValidationError,
)
from .cyclotomic import (
    CycloMatrix,
    CycloNumber,
    RootOfUnity,
    cyclotomic_polynomial,
    embed,
    format_root,
    parse_root,
    root_of_unity,
)
from .groups import (
    AbelianGroup,
    Character,
    Subgroup,
    all_subgroups,
    character_table,
    characters,
    cyclic_presentation,
    format_group,
    parse_group,
    quotient,
    restrict,
    subgroup_generated,
)
from .cocycles import (
    AbelianCocycle,
    CocycleClass,
    QuadraticForm,
    TwoCochain,
    apply_coboundary,
    check_hexagons,
    check_pentagon,
    classify_h3ab,
    find_mu,
    standard_cocycle,
    trace_form,
)
from .metric import (
    CenterReport,
    PointedBFC,
    category_from_form,
    detect_center,
    drinfeld_double,
    is_nondegenerate,
    is_symmetric,
    isotropic_subgroups,
    lagrangian_subgroups,
    make_category,
    mueger_center,
    preset,
    smatrix1,
    smatrix_rank,
    tmatrix,
)
from .brmod import (
    BraidedModuleCat,
    SchurClass,
    SMatrix2,
    admissible_subgroups,
    build_module_cat,
    pi0_report,
    schur_class,
    schur_classes,
    smatrix2,
    verify_character_table,
    verify_group_hom,
)
from .battery import (
    BatteryCase,
    BatterySummary,
    enumerate_quadratic_forms,
    run_all,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianCocycle", "AbelianGroup", "BatteryCase", "BatterySummary",
    "BoundsError", "BraidedModuleCat", "CenterReport", "Character",
    "CocycleClass", "CycloMatrix", "CycloNumber", "InconsistencyError",
    "PointedBFC", "PointedCatError", "QuadraticForm", "RootOfUnity",
    "SMatrix2", "SchurClass", "Subgroup", "TwoCochain", "ValidationError",
    "admissible_subgroups", "all_subgroups", "apply_coboundary",
    "build_module_cat", "category_from_form", "character_table",
    "characters", "check_hexagons", "check_pentagon", "classify_h3ab",
    "cyclic_presentation", "cyclotomic_polynomial", "detect_center",
    "drinfeld_double", "embed", "enumerate_quadratic_forms", "find_mu",
    "format_group", "format_root", "is_nondegenerate", "is_symmetric",
    "isotropic_subgroups", "lagrangian_subgroups", "make_category",
    "mueger_center", "parse_group", "parse_root", "pi0_report", "preset",
    "quotient", "restrict", "root_of_unity", "run_all", "schur_class",
    "schur_classes", "smatrix1", "smatrix2", "smatrix_rank",
    "standard_cocycle", "subgroup_generated", "tmatrix", "trace_form",
    "verify_character_table", "verify_group_hom",
]
