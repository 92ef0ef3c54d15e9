"""Closed-form permutiple families.

Every constructor returns a fully classified Witness, verified by exact
evaluation; outputs whose last digit is 1 are returned as written (the
witness's string is simply non-canonical), never silently folded.

There is one perfect-permutiple builder, ``perfect_from_parameters``.  The
2-digit swap family, the perfect reverse multiples and the perfect cyclic
permutiples are sigma choices for it: the transposition (1, 0), the
reversal and a rotation.  ``PerfectParameters`` checks k >= 2 and the
parameters (one positive integer per cycle) for all three; in front of it,
``two_digit`` checks an integer s >= 2, ``perfect_reverse`` a non-empty
half, and ``perfect_cyclic`` an even integer length of at most
``cf.MAX_DEPTH`` and an odd integer ell with 0 < ell < length.  A float
or bool is refused wherever an integer is.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd

from .cf import ContinuedFraction, _check_depth, _check_int, _is_int, _Record
from .classify import Permutation, Witness, canonical_sigma, classify

# Bounds the witnesses one three-digit enumeration holds before it returns
# any, through a0_max - k, the leading digits it covers (at most one witness
# each): past this they would take minutes and hundreds of megabytes.
MAX_LEADING_DIGITS = 10**5


def two_digit(k: int, s: int) -> Witness:
    """The swap family [k*s; s] = k * [s; k*s].

    Both parameters must exceed 1; s == 1 would make the string
    non-canonical and k == 1 is not a multiple.
    """
    _check_int(s, "parameter s", 2)
    return perfect_from_parameters(PerfectParameters(Permutation((1, 0)), k, (s,)))


def three_digit_reverse(k: int, a0: int) -> Witness | None:
    """Reverse multiple [a0; a1, a2] = k * [a2; a1, a0] with leading digit a0.

    By the mirror identity the product relation a0*a1 + 1 == k*(a1*a2 + 1)
    decides it, that is a1*(a0 - k*a2) == k - 1.  So 0 < a0 - k*a2 < k,
    which makes a0 - k*a2 the residue t = a0 mod k and a2 = a0 // k, and
    a1 = (k - 1) / t.  Leading digits whose t does not divide k - 1 admit
    no solution, and None is returned.
    """
    _check_int(k, "multiplier k", 2)
    _check_int(a0, "leading digit")
    if a0 <= k:
        raise ValueError(f"leading digit must exceed k={k}, not {a0}")
    if gcd(a0, k) != 1:
        raise ValueError(f"leading digit {a0} must be relatively prime to k={k}")
    a2, t = divmod(a0, k)
    a1, rem = divmod(k - 1, t)
    if rem:
        return None
    cf = ContinuedFraction((a0, a1, a2))
    return classify(cf, canonical_sigma(cf.digits, (a2, a1, a0)), k, allow_noncanonical=True)


def enumerate_three_digit_reverse(k: int, a0_max: int) -> list[Witness]:
    """All three-digit k-reverse multiples with leading digit up to a0_max.

    Only the solutions are listed: the residue t = a0 mod k must divide
    k - 1, so the leads are a0 = k*a2 + t for a2 = 1, 2, ... and each such t
    in ascending order, which is a0's order as t < k.  Every t | k - 1 is
    prime to k, so ``three_digit_reverse`` solves each lead.  More than
    ``MAX_LEADING_DIGITS`` leading digits (a0_max - k) are refused with
    ValueError before any witness is built.
    """
    _check_int(k, "multiplier k", 2)
    _check_int(a0_max, "a0_max")
    if a0_max - k > MAX_LEADING_DIGITS:
        raise ValueError(
            f"a0_max {a0_max} with k={k} is over {MAX_LEADING_DIGITS} leading digits to try"
        )
    residues = [t for t in range(1, min(k - 1, a0_max - k) + 1) if (k - 1) % t == 0]
    leads = (k * a2 + t for a2 in range(1, a0_max // k + 1) for t in residues)
    return [three_digit_reverse(k, a0) for a0 in leads if a0 <= a0_max]


def validate_perfect_permutation(sigma: Permutation) -> bool:
    """Whether sigma can carry a perfect permutiple.

    Requires a nonempty sigma whose every cycle holds equally many even and
    odd positions; this parity balance is exactly the solvability condition
    for the digit parameters, and exactly the cycles whose
    ``Permutation.perfect_layout`` closes.  Balanced cycles have even length,
    so such a sigma is a derangement of even order on an even number of
    symbols.
    """
    return len(sigma) > 0 and None not in sigma.perfect_layout


class PerfectParameters(_Record):
    """One free positive parameter per cycle of a perfect-capable sigma."""

    __slots__ = _fields = ("sigma", "k", "orbit_params")

    def __init__(self, sigma: Permutation, k: int, orbit_params: Iterable[int]) -> None:
        orbit_params = tuple(orbit_params)
        _check_int(k, "multiplier k", 2)
        if not validate_perfect_permutation(sigma):
            raise ValueError(f"{sigma} cannot carry a perfect permutiple")
        if len(orbit_params) != len(sigma.cycles):
            raise ValueError(
                f"need {len(sigma.cycles)} parameters (one per cycle), got {len(orbit_params)}"
            )
        for i, param in enumerate(orbit_params):
            if not _is_int(param) or param < 1:  # its name is formatted only to refuse it
                _check_int(param, f"cycle parameter {i}", 1)
        self._set(sigma, k, orbit_params)


def perfect_from_parameters(params: PerfectParameters) -> Witness:
    """Perfect permutiple built from one free parameter per cycle of sigma.

    Digit j is its cycle's parameter times k to the power that sigma's
    ``perfect_layout`` gives it, so the parameter is the smallest s_j in its
    cycle (s_j = a_j / k at even j, a_j at odd j) and every digit is an
    integer for any positive parameter.
    """
    sigma, k = params.sigma, params.k
    digits = [0] * len(sigma)
    for cycle, powers, param in zip(sigma.cycles, sigma.perfect_layout, params.orbit_params):
        for j, e in zip(cycle, powers):
            digits[j] = param * k**e
    witness = classify(ContinuedFraction(tuple(digits)), sigma, k, allow_noncanonical=True)
    if not witness.flags.perfect:  # construction guarantees the ratio pattern
        raise AssertionError(f"constructed digits {witness.cf} are not perfect")
    return witness


def perfect_reverse(k: int, half_params: tuple[int, ...]) -> Witness:
    """Perfect reverse multiple from the mirrored parameter list.

    With m = len(half_params) the string has 2*m digits, s_j = s_{n-j}, and
    digits alternate k*s_j / s_j.  The last digit is half_params[0], so a
    leading parameter of 1 yields a non-canonical string (flagged via the
    witness, not rejected).
    """
    half = tuple(half_params)
    if not half:
        raise ValueError("at least one parameter is required")
    witness = perfect_from_parameters(
        PerfectParameters(Permutation.reversal(2 * len(half)), k, half)
    )
    if not witness.flags.reverse_multiple:
        raise AssertionError(f"constructed {witness.cf} is not a reverse multiple")
    return witness


def perfect_cyclic(k: int, length: int, ell: int, params: tuple[int, ...]) -> Witness:
    """Perfect cyclic permutiple for sigma = (rotation by ell), ell odd.

    Even rotations admit no perfect permutiples (every power orbit would
    stay in one parity class), so even ell is rejected.  The parameters are
    constant on each rotation orbit; there are gcd(ell, length) orbits,
    which are the residue classes of position mod gcd.
    """
    if not _is_int(length) or length < 2 or length % 2:
        raise ValueError(f"length must be an even integer >= 2, not {length!r}")
    _check_depth(length, "length")  # checked before a rotation of every position is listed
    _check_int(ell, "shift ell")
    if not 0 < ell < length:
        raise ValueError(f"shift ell must satisfy 0 < ell < {length}, not {ell}")
    if ell % 2 == 0:
        raise ValueError("no perfect cyclic permutiple exists for an even shift")
    sigma = Permutation(tuple((j + ell) % length for j in range(length)))
    return perfect_from_parameters(PerfectParameters(sigma, k, params))
