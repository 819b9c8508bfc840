"""Stack-sorting complexity of permutations.

A word is stack-sorted by repeatedly passing it through a
larger-never-on-smaller stack; the complexity of a permutation is the
number of passes needed to sort it.  This package bundles the operator
itself, a glob-style pattern catalog that classifies the hardest words,
obstruction-based two-sided bounds, exact counting formulas with a
binomial-shape fitter, and an exhaustive, shardable census engine that
proves the pieces against each other.
"""

from .words import (
    Word,
    complexity,
    descents,
    format_word,
    identity_word,
    next_permutation,
    parse_word,
    rank,
    stack_sort,
    stack_sort_pass,
    standardize,
    unrank,
)
from .patterns import (
    Alt,
    AnyOne,
    AbsValue,
    Catalog,
    CompiledCatalog,
    PatternRow,
    PatternSyntaxError,
    RelValue,
    Star,
    builtin_catalog,
    certified_class,
    classify,
    format_row,
    format_tokens,
    matches,
    parse_catalog,
    parse_row,
    parse_tokens,
    row_matches,
    tier,
)
from .forbidden import ForbiddenReport, complexity_bounds, forbidden_report
from .formulas import (
    BinomialFormula,
    FactorialPoly,
    FitResult,
    FormulaEntry,
    InexactDivision,
    REGISTRY,
    VerifyCheck,
    VerifyReport,
    canonical_prefactor,
    fit_binomial,
    verify_census,
)
from .census import (
    Census,
    CensusSoundnessError,
    class_counts_csv,
    descent_polynomial,
    load_census,
    row_counts_csv,
    run_census,
    save_report,
)

__version__ = "0.1.0"
