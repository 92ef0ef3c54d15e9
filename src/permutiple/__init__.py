"""Exact-arithmetic toolkit for digit-permutation multiples of simple
continued fractions: detection, classification, closed-form constructors,
concatenation closure, exhaustive search, and the quadratic-surd case."""

from .cf import (
    ContinuedFraction,
    canonicalize,
    continuant,
    convergents,
    evaluate,
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
    permute_digits,
)
from .concat import (
    BracketViews,
    bracket_views,
    concat,
    concat_witness,
    palindromic_concat,
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

__version__ = "0.1.0"

# The closed-form families and the quadratic-surd case, by name: their two
# modules load on first use of one of these names (PEP 562), so a command
# that runs neither never loads them.  Only these two are deferred, as
# ``classify`` and ``concat`` each name both a module and a function, and a
# late import of such a module would rebind the package attribute to it.
_DEFERRED = {
    "constructors": "constructors",
    "PerfectParameters": "constructors",
    "enumerate_three_digit_reverse": "constructors",
    "perfect_cyclic": "constructors",
    "perfect_from_parameters": "constructors",
    "perfect_reverse": "constructors",
    "three_digit_reverse": "constructors",
    "two_digit": "constructors",
    "validate_perfect_permutation": "constructors",
    "surd": "surd",
    "DigitStream": "surd",
    "QuadraticSurd": "surd",
    "SurdProbeReport": "surd",
    "asymptotic_continuant_gap": "surd",
    "continuant_gaps": "surd",
    "expansion_digits": "surd",
    "infinite_perfect_stream": "surd",
    "is_reduced": "surd",
    "periodic_expansion": "surd",
    "surd_multiplier": "surd",
    "truncation": "surd",
    "verify_surd_permutiple": "surd",
}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | _DEFERRED.keys())


def __getattr__(name: str):
    module = _DEFERRED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _DEFERRED.keys())
