"""Quadratic surds, periodic expansions, and infinite perfect digit streams.

Every comparison against a square root is decided by one exact floor
(``math.isqrt``); no floating point enters any decision.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from itertools import count, islice
from math import isqrt

from .cf import (
    DEFAULT_DEPTH,
    MAX_DEPTH,
    ContinuedFraction,
    _check_depth,
    _check_int,
    _convergents,
    _is_int,
    _Record,
)


def _is_square(n: int) -> bool:
    r = isqrt(n)
    return r * r == n


class QuadraticSurd(_Record):
    """The irrational value (a + sqrt(b)) / c with b a positive non-square."""

    __slots__ = _fields = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        _check_int(a, "a")
        _check_int(b, "b")
        _check_int(c, "c")
        if b < 1 or _is_square(b):
            raise ValueError(f"b must be a positive non-square, got {b}")
        if c == 0:
            raise ValueError("c must be nonzero")
        self._set(a, b, c)

    def __str__(self) -> str:
        return f"({self.a}+sqrt({self.b}))/{self.c}"


def surd_multiplier(s: QuadraticSurd) -> int | None:
    """(b - a*a)/c when that quotient is an integer >= 2, else None."""
    num = s.b - s.a * s.a
    if num % s.c:
        return None
    k = num // s.c
    return k if k >= 2 else None


def is_reduced(s: QuadraticSurd) -> bool:
    """Value > 1 with algebraic conjugate (a - sqrt(b))/c in (-1, 0).

    Neither value is an integer, so each bound is read off its floor; the
    conjugate is (-a + sqrt(b)) / -c.
    """
    return _floor_quad(s.a, s.b, s.c) >= 1 and _floor_quad(-s.a, s.b, -s.c) == -1


def _floor_quad(P: int, D: int, Q: int) -> int:
    """floor((P + sqrt(D)) / Q) for non-square D and Q != 0, exactly."""
    s = isqrt(D)
    return (P + s) // Q if Q > 0 else (P + s + 1) // Q


def _expansion(s: QuadraticSurd) -> Iterator[tuple[int, tuple[int, int]]]:
    """Digits of s, each with the (P, Q) state it is read from.

    Runs the integer state recurrence P' = a*Q - P, Q' = (D - P'*P')/Q.
    The state is normalized first so Q divides D - P*P.
    """
    P, D, Q = s.a, s.b, s.c
    if (D - P * P) % Q:
        scale = abs(Q)
        P, D, Q = P * scale, D * scale * scale, Q * scale
    while True:
        a = _floor_quad(P, D, Q)
        yield a, (P, Q)
        P = a * Q - P
        Q = (D - P * P) // Q


# Most (P, Q) states ``periodic_expansion`` walks before it refuses a surd:
# the period of sqrt(D) can grow like sqrt(D) log D, so a large b would
# otherwise never close.
MAX_STATES = 10_000


def periodic_expansion(s: QuadraticSurd) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(preperiod, period) of the digit expansion of a quadratic surd.

    Cycle detection on the (P, Q) states of the expansion.  Reduced surds
    come back with an empty preperiod.  Every expansion is eventually
    periodic, but a period that does not close within ``MAX_STATES``
    states is refused with ValueError.
    """
    digits: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    for a, state in islice(_expansion(s), MAX_STATES):
        if state in seen:
            start = seen[state]
            return tuple(digits[:start]), tuple(digits[start:])
        seen[state] = len(digits)
        digits.append(a)
    raise ValueError(f"no cycle within {MAX_STATES} states for {s}")


def expansion_digits(s: QuadraticSurd, depth: int) -> tuple[int, ...]:
    """First ``depth`` digits of the expansion, 0 to ``MAX_DEPTH``."""
    _check_depth(depth, "expansion depth", 0)
    return tuple(a for a, _ in islice(_expansion(s), depth))


def _find_alignment(base: tuple[int, ...], scaled: tuple[int, ...]) -> str | None:
    d = len(base)
    if d >= 2 and all(scaled[j] == base[j ^ 1] for j in range(d // 2 * 2)):
        return "adjacent-swap"
    for t in range(1, d // 2 + 1):
        for shift in (t, -t):
            window = range(max(0, -shift), min(d, d - shift))
            if window and all(scaled[j] == base[j + shift] for j in window):
                return f"shift:{shift:+d}"
    return None


class SurdProbeReport(_Record):
    """Empirical comparison of a surd's digits with those of its k-th part.

    The verdict is a finite-window observation, never a proof: it says
    whether the two expansions line up under the adjacent-swap permutation
    or a constant shift within the inspected depth.
    """

    __slots__ = _fields = ("k", "digits", "scaled_digits", "multiset_agree", "alignment", "verdict")

    def __init__(
        self,
        k: int,
        digits: tuple[int, ...],
        scaled_digits: tuple[int, ...],
        multiset_agree: bool,
        alignment: str | None,
        verdict: str,
    ) -> None:
        self._set(k, digits, scaled_digits, multiset_agree, alignment, verdict)


def verify_surd_permutiple(s: QuadraticSurd, depth: int = DEFAULT_DEPTH) -> SurdProbeReport:
    """Expand s and s/k to ``depth`` digits and compare them.

    Requires surd_multiplier(s) to be an integer >= 2.  Reports whether the
    digit multisets over the matched (even-length) window agree, and the
    first position alignment found, if any.  ``depth`` must be an int from 1
    to ``MAX_DEPTH``.
    """
    _check_depth(depth, "probe depth")
    k = surd_multiplier(s)
    if k is None:
        raise ValueError(f"(b - a^2)/c is not an integer >= 2 for {s}")
    digits = expansion_digits(s, depth)
    scaled = expansion_digits(QuadraticSurd(s.a, s.b, s.c * k), depth)
    alignment = _find_alignment(digits, scaled)
    window = 2 * (depth // 2)
    multiset_agree = Counter(digits[:window]) == Counter(scaled[:window])
    verdict = f"consistent to depth {depth}" if alignment else f"inconsistent at depth {depth}"
    return SurdProbeReport(
        k=k,
        digits=digits,
        scaled_digits=scaled,
        multiset_agree=multiset_agree,
        alignment=alignment,
        verdict=verdict,
    )


class DigitStream:
    """The perfect digit stream k*s0, s0, k*s1, s1, ... under the
    adjacent-pair swap j -> j ^ 1.

    ``params`` supplies s0, s1, ...: either a callable on indices, called
    once per index in order, or a sequence/iterable (finite ones raise once
    exhausted).  Single consumer; the parameter cache is not locked.
    """

    def __init__(self, k: int, params):
        _check_int(k, "multiplier k", 2)
        self.k = k
        self._params = map(params, count()) if callable(params) else iter(params)
        self._cache: list[int] = []

    def _param(self, i: int) -> int:
        while len(self._cache) <= i:
            index = len(self._cache)
            try:
                s = next(self._params)
            except StopIteration:
                raise ValueError(f"parameter stream exhausted at index {index}") from None
            if not _is_int(s) or s < 1:  # its name is formatted only to refuse it
                _check_int(s, f"parameter s_{index}", 1)
            self._cache.append(s)
        return self._cache[i]

    def digit(self, j: int) -> int:
        _check_int(j, "digit index", 0)
        s = self._param(j // 2)
        return s if j % 2 else self.k * s

    def prefix(self, n: int) -> tuple[int, ...]:
        _check_depth(n, "prefix length", 0)
        return tuple(self.digit(j) for j in range(n))


def infinite_perfect_stream(k: int, params) -> DigitStream:
    """The perfect stream of k and s0, s1, ... (see ``DigitStream``): every
    truncation to even length is a perfect k-permutiple."""
    return DigitStream(k, params)


def continuant_gaps(stream: DigitStream, limit: int) -> Iterator[int]:
    """|top continuant difference| between the stream and its permuted
    stream at truncation lengths 2..limit+1 (one entry per n = 1..limit):
    the limit is checked at the call, each gap computed only when asked for."""
    _check_int(limit, "gap limit", 0)
    indices = range(limit + 1)
    base = _convergents(stream.digit(j) for j in indices)
    permuted = _convergents(stream.digit(j ^ 1) for j in indices)
    pairs = islice(zip(base, permuted), 1, None)  # length 1 has no gap entry
    return (abs(b - p) for (b, _), (p, _) in pairs)


def asymptotic_continuant_gap(stream: DigitStream, limit: int) -> tuple[int, ...]:
    """All of ``continuant_gaps(stream, limit)``."""
    return tuple(continuant_gaps(stream, limit))


def truncation(stream: DigitStream, length: int) -> ContinuedFraction:
    """Finite digit string holding the first ``length`` stream digits, 1 to ``MAX_DEPTH``."""
    _check_depth(length, "truncation length", 1)
    return ContinuedFraction(stream.prefix(length))
