"""Exact arithmetic for finite simple continued fractions.

A digit string [a0; a1, ..., an] is stored as a tuple of integers, every
digit at least 1.  Values are `fractions.Fraction`, which keeps numerator
and denominator reduced, so every identity checked downstream is exact no
matter how large the continuants grow.  Only the two functions that build
one, `evaluate` and `parse_rational`, import `fractions`, so a scan, which
compares continuants and builds none, never loads it.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from functools import lru_cache


def _is_int(value: object) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value: object, name: str, low: int | None = None) -> None:
    """The one rule for an integer argument: refuse, with ValueError, a value
    that is not an int (a bool is not one) or is below ``low`` when given."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, not {value!r}")


class _Record:
    """Base of the package's value records: a record is its ``_fields``.

    Records are equal when their classes and field values are, hash like
    the tuple of their field values, print as ``Name(field=value, ...)``
    and refuse assignment and deletion with AttributeError.  A subclass
    names its fields in ``_fields``, and its ``__init__`` makes its checks
    and then sets every field in one call to ``_set``, the one writer of a
    record's fields.  A record pickles as its class and field values, so
    unpickling runs ``__init__`` and its checks again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        """Set the fields to ``values`` in ``_fields`` order; a wrong count is a ValueError."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class ContinuedFraction(_Record):
    """Digit string of a finite simple continued fraction."""

    __slots__ = _fields = ("digits",)

    def __init__(self, digits: Iterable[int]) -> None:
        digits = tuple(digits)
        if not digits:
            raise ValueError("a continued fraction needs at least one digit")
        for a in digits:
            if isinstance(a, bool) or not isinstance(a, int) or a < 1:
                raise ValueError(f"invalid digit {a!r}: digits are integers >= 1")
        # not _set: 0.6 us a build, 1.1 us through _set (timeit, Python 3.11, 2-core Xeon)
        object.__setattr__(self, "digits", digits)

    @classmethod
    def parse(cls, text: str) -> ContinuedFraction:
        """Parse ``a0;a1,a2,...,an`` (spaces tolerated); a bare ``a0`` is allowed,
        but a ``;`` needs a digit after it."""
        head, semicolon, tail = "".join(text.split()).partition(";")
        return cls((int(head),) + (_ints(tail) if semicolon else ()))

    @property
    def is_canonical(self) -> bool:
        """True when the string is the unique representation of its value.

        Only the last digit matters: a trailing 1 folds into its
        predecessor.  Length-1 strings are canonical by convention,
        including [1].
        """
        return len(self.digits) == 1 or self.digits[-1] >= 2

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return format_cf(self)


# Most digits a surd probe, a printed stream prefix or a perfect cyclic
# string may ask for: each costs in step with the count, and 10**6 digits
# take seconds and over 100 MB.
MAX_DEPTH = 10**5
# Digits a surd probe compares, and a stream prefix prints, when no count is given.
DEFAULT_DEPTH = 20


def _check_depth(value: object, name: str, low: int | None = None) -> None:
    """The one rule for a digit count: refuse one outside 1 (or ``low``)..``MAX_DEPTH``."""
    if low is not None:
        _check_int(value, name, low)
    elif not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if value > MAX_DEPTH:
        raise ValueError(f"{name} {value} is over {MAX_DEPTH} digits")


def _printable(value: int) -> bool:
    """The one print limit: whether Python writes ``value``, an int >= 0, in
    decimal.  It refuses one of more than ``sys.get_int_max_str_digits()``
    digits (0, or a Python without the function, is no limit), that is one
    at or over 10**limit.  Python sets no limit under 640 digits, and a value
    under 8**limit is under 10**limit, so only a value of over 3 * 640 bits
    reads the limit, and only one of over 3 * limit bits is compared with
    the power, which is kept while the limit stands."""
    if value.bit_length() <= 1920:
        return True
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # not in early 3.10s
    return not limit or value.bit_length() <= 3 * limit or value < _power_of_ten(limit)


@lru_cache(maxsize=1)
def _power_of_ten(exponent: int) -> int:
    return 10**exponent


# The refusal of a string whose value p/q cannot be printed, by its length.
# p is at least q, every digit, and every term of a convergent or tail of the
# string (each a continuant of some of its digits), so one check of p is
# enough for all of them.
_UNPRINTABLE_VALUE = "the {}-digit string's value has too many digits to print"


def _ints(text: str) -> tuple[int, ...]:
    """The integers of a comma list, spaces tolerated."""
    return tuple(int(part) for part in "".join(text.split()).split(","))


def format_cf(cf: ContinuedFraction) -> str:
    return _layout([str(a) for a in cf.digits])


def _layout(strings: list[str]) -> str:
    """The ``a0;a1,...,an`` layout of digits already in decimal."""
    head, *rest = strings
    return f"{head};{','.join(rest)}" if rest else head


def parse_rational(text: str) -> Fraction:
    from fractions import Fraction

    compact = "".join(text.split())
    num, slash, den = compact.partition("/")
    if slash and int(den) == 0:
        raise ValueError(f"rational {text!r} has a zero denominator")
    return Fraction(int(num), int(den)) if slash else Fraction(int(num))


def format_rational(value: Fraction) -> str:
    return _ratio(value.numerator, value.denominator)


def _ratio(p: object, q: object) -> str:
    """The one ``p/q`` layout of a value, from its terms as ints or decimal strings."""
    return f"{p}/{q}"


def _ratio_record(p: object, q: object) -> dict[str, str]:
    """The one JSON object of a value, its terms as decimal strings, so a
    consumer with bounded integers cannot truncate them."""
    return {"p": str(p), "q": str(q)}


def _convergents(digits: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The convergent pairs of a digit sequence, one per digit as it is read,
    so a lazy sequence is walked only as far as the caller goes."""
    p_prev, p = 0, 1
    q_prev, q = 1, 0
    for a in digits:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        yield p, q


def convergents(cf: ContinuedFraction) -> tuple[tuple[int, int], ...]:
    """All convergent pairs (p_j, q_j), j = 0..n; the last pair is the value.

    Seeds: p(-1)=1, p(-2)=0, q(-1)=0, q(-2)=1.  Each pair is already in
    lowest terms (p_j q_{j-1} - p_{j-1} q_j = +-1).
    """
    return tuple(_convergents(cf.digits))


# ((p_n, q_n), (p_{n-1}, q_{n-1})): the value of a string, p_n = K(a0, ..., an)
# over q_n = K(a1, ..., an), and the convergent before it
_Tip = tuple[tuple[int, int], tuple[int, int]]


def _tip(digits: Iterable[int]) -> _Tip:
    """The last two convergent pairs of one walk of the digits; no other pair
    is kept.

    The seeds (p_{-2}, q_{-2}) = (0, 1) and (p_{-1}, q_{-1}) = (1, 0) stand
    in for the pairs a short string lacks: one digit reads (1, 0) as its
    (p_{n-1}, q_{n-1}), and no digits read (1, 0) as the value, K() = 1.
    """
    before, last = (0, 1), (1, 0)
    for pair in _convergents(digits):
        before, last = last, pair
    return last, before


def continuant(xs: Iterable[int]) -> int:
    """Continuant K(x0, ..., x_{m-1}): K() = 1, K(x0) = x0, and
    K(x0, x1, ...) = x0 * K(x1, ...) + K(x2, ...)."""
    return _tip(xs)[0][0]


def evaluate(cf: ContinuedFraction) -> Fraction:
    """Exact value of the digit string, evaluated as written (canonical or not)."""
    from fractions import Fraction

    return Fraction(*_tip(cf.digits)[0])


def tails(cf: ContinuedFraction) -> tuple[Fraction, ...]:
    """Tail values g_0, ..., g_{n-1}, where g_j is the value of the suffix
    string [0; a_{j+1}, ..., an].

    For a canonical string this is exactly the left-shift orbit of the
    fractional part (each step is the Gauss map x -> frac(1/x) and the
    digits are recovered by a_{j+1} = floor(1/g_j)).  The shift is driven
    by the stored digits, so the product identity g_0 * ... * g_{n-1} == 1/q_n
    also holds for non-canonical strings, where the raw orbit would stray
    from the written digits.
    """
    ds = cf.digits
    n = len(ds) - 1
    if n == 0:
        return ()
    out = [evaluate(cf) - ds[0]]
    for j in range(1, n):
        out.append(1 / out[-1] - ds[j])
    return tuple(out)


def canonicalize(cf: ContinuedFraction) -> ContinuedFraction:
    """Fold a trailing 1 into its predecessor; value is preserved."""
    ds = cf.digits
    if len(ds) >= 2 and ds[-1] == 1:
        return ContinuedFraction(ds[:-2] + (ds[-2] + 1,))
    return cf


def _euclid(num: int, den: int) -> Iterator[int]:
    """Digits of the canonical expansion of num/den (den > 0), by Euclid's algorithm."""
    while den:
        a, rem = divmod(num, den)
        yield a
        num, den = den, rem


def from_rational(value: Fraction) -> ContinuedFraction:
    """Canonical digit string of a rational value >= 1 (Euclidean expansion)."""
    if value < 1:
        raise ValueError(f"{value} < 1 has no all-positive digit string")
    return ContinuedFraction(tuple(_euclid(value.numerator, value.denominator)))
