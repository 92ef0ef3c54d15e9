"""Quadratic surds, periodic expansions, and infinite perfect digit streams.

Every comparison against a square root is decided by one exact floor
(``math.isqrt``); no floating point enters any decision, and whether a
surd is a k-permutiple under the adjacent swap is decided for every digit.
"""

from __future__ import annotations

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


def _unroll(preperiod: tuple[int, ...], period: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The first n digits of the expansion with this preperiod and period."""
    return (preperiod + period * (n // len(period) + 1))[:n]


def _swap_failure(u_form: tuple, v_form: tuple) -> int | None:
    """The first j where v_j != u_(j xor 1), or None when there is none, for
    u and v given as (preperiod, period).  From n0 = max(len(pre_u) + 2,
    len(pre_v)) on, the swapped u repeats every 2 len(per_u) digits and v
    every len(per_v); two such sequences that agree for the sum of their
    periods agree for ever (Fine and Wilf).  So the digits below
    n0 + 2 len(per_u) + len(per_v) settle every digit, and no lcm of the
    periods is unrolled."""
    (pre_u, per_u), (pre_v, per_v) = u_form, v_form
    n = max(len(pre_u) + 2, len(pre_v)) + 2 * len(per_u) + len(per_v)
    u, v = _unroll(*u_form, n + 1), _unroll(*v_form, n)  # j xor 1 reaches n
    return next((j for j in range(n) if v[j] != u[j ^ 1]), None)


class SurdProbeReport(_Record):
    """The exact verdict on s = k * (s with its adjacent digits swapped).

    ``fails_at`` is the first index j where digit j of s/k differs from
    digit j xor 1 of s, or None when the swap holds at every digit.
    ``digits`` and ``scaled_digits`` are the first digits of s and s/k,
    shown beside the verdict; their count never changes it.
    """

    __slots__ = _fields = ("k", "digits", "scaled_digits", "fails_at")

    def __init__(
        self, k: int, digits: tuple[int, ...], scaled_digits: tuple[int, ...], fails_at: int | None
    ) -> None:
        self._set(k, digits, scaled_digits, fails_at)


def verify_surd_permutiple(s: QuadraticSurd, depth: int = DEFAULT_DEPTH) -> SurdProbeReport:
    """Decide exactly whether s/k, k = surd_multiplier(s) >= 2, is s with
    each adjacent pair of digits swapped: v_j == u_(j xor 1) for every j,
    for the expansions u of s and v of s/k.

    Both come from ``periodic_expansion`` (a period over ``MAX_STATES`` is
    refused), so the digits checked, at most 3 * MAX_STATES + 2, settle
    every digit.  A constant shift between u and v is no such identity: it
    says only that they share an eventual period, as any two numbers
    related by an integer Moebius map do (Serret).  ``depth``, 1 to
    ``MAX_DEPTH``, is only how many digits the report shows.
    """
    _check_depth(depth, "probe depth")
    k = surd_multiplier(s)
    if k is None:
        raise ValueError(f"(b - a^2)/c is not an integer >= 2 for {s}")
    u_form = periodic_expansion(s)
    v_form = periodic_expansion(QuadraticSurd(s.a, s.b, s.c * k))
    fails_at = _swap_failure(u_form, v_form)
    return SurdProbeReport(k, _unroll(*u_form, depth), _unroll(*v_form, depth), fails_at)


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
        """Digit j, 0 to ``MAX_DEPTH``: reading it draws every parameter up to j // 2."""
        _check_depth(j, "digit index", 0)
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
    the limit, 0 to ``MAX_DEPTH``, is checked at the call, each gap computed
    only when asked for."""
    _check_depth(limit, "gap limit", 0)
    indices = range(limit + 1)
    k = stream.k
    base = _convergents(map(stream.digit, indices))
    # digit j ^ 1 is digit j over k at even j and times k at odd j, so no
    # digit past index limit is read
    digits = enumerate(map(stream.digit, indices))
    permuted = _convergents(d * k if j % 2 else d // k for j, d in digits)
    pairs = islice(zip(base, permuted), 1, None)  # length 1 has no gap entry
    return (abs(b - p) for (b, _), (p, _) in pairs)


def asymptotic_continuant_gap(stream: DigitStream, limit: int) -> tuple[int, ...]:
    """All of ``continuant_gaps(stream, limit)``."""
    return tuple(continuant_gaps(stream, limit))


def truncation(stream: DigitStream, length: int) -> ContinuedFraction:
    """Finite digit string holding the first ``length`` stream digits, 1 to ``MAX_DEPTH``."""
    _check_depth(length, "truncation length")
    return ContinuedFraction(stream.prefix(length))
