"""Exact-arithmetic toolkit for digit-permutation multiples of simple
continued fractions: detection, classification, closed-form constructors,
concatenation closure, exhaustive search, and the quadratic-surd case."""

from .cf import (
    ContinuedFraction,
    canonicalize,
    continuant,
    convergents,
    evaluate,
    format_cf,
    format_rational,
    from_rational,
    parse_rational,
    tails,
)
from .classify import (
    FLAG_ORDER,
    ClassificationFlags,
    NotAPermutipleError,
    Permutation,
    Witness,
    canonical_sigma,
    classify,
    find_witnesses,
    format_permutation,
    permute_digits,
)
from .concat import (
    BracketViews,
    bracket_views,
    concat,
    concat_witness,
    palindromic_concat,
)
from .constructors import (
    PerfectParameters,
    enumerate_three_digit_reverse,
    perfect_cyclic,
    perfect_from_parameters,
    perfect_reverse,
    three_digit_reverse,
    two_digit,
    validate_perfect_permutation,
)
from .search import (
    CONJECTURE_IDS,
    ConjectureReport,
    SearchConfig,
    check_conjectures,
    exhaustive_search,
    export,
    witness_record,
)
from .surd import (
    DigitStream,
    QuadraticSurd,
    SurdProbeReport,
    asymptotic_continuant_gap,
    continuant_gaps,
    expansion_digits,
    infinite_perfect_stream,
    is_reduced,
    periodic_expansion,
    surd_multiplier,
    truncation,
    verify_surd_permutiple,
)

__version__ = "0.1.0"
