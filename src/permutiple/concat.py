"""Digit-string concatenation calculus.

Concatenating a Landess witness with a continuant-preserving witness of the
same multiplier yields another continuant-preserving permutiple under the
block permutation; palindromic lists of reverse multiples concatenate to a
reverse multiple.  Both closures take and return a ``Witness`` and read
the flags they need off it.  ``concat`` joins two non-empty digit strings;
there is no empty string.  The bracket views expose the four continuants of
a digit string used by these closure arguments.
"""

from __future__ import annotations

from collections.abc import Sequence

from .cf import ContinuedFraction, _Record, _tip
from .classify import Permutation, Witness, classify


class BracketViews(_Record):
    """The int continuants ``full`` of a digit string, and ``drop_first``,
    ``drop_last`` and ``drop_both`` of its one-sided truncations."""

    __slots__ = _fields = ("full", "drop_first", "drop_last", "drop_both")


def bracket_views(cf: ContinuedFraction) -> BracketViews:
    """The last two convergent pairs: p_n, q_n, p_{n-1}, q_{n-1}.  A single
    digit reads the seed (1, 0) for the dropped ends."""
    (full, drop_first), (drop_last, drop_both) = _tip(cf.digits)
    return BracketViews(full, drop_first, drop_last, drop_both)


def concat(c1: ContinuedFraction, c2: ContinuedFraction) -> ContinuedFraction:
    """The digit string of c1 followed by the digits of c2.

    Interior digits may be anything >= 1, so c1's canonicality is
    irrelevant; the result is canonical exactly when c2 is.
    """
    return ContinuedFraction(c1.digits + c2.digits)


def concat_witness(w1: Witness, w2: Witness) -> Witness:
    """Witness for w1 concatenated with w2 under the block permutation.

    Requires w1 to be Landess and w2 continuant-preserving, with equal
    multipliers.  The value equation is re-verified by exact evaluation
    even though closure guarantees it; a failure here would be an
    implementation bug, not bad data.
    """
    if w1.k != w2.k:
        raise ValueError(f"multiplier mismatch: {w1.k} != {w2.k}")
    if not w1.flags.landess:
        raise ValueError("left factor must carry the landess flag")
    if not w2.flags.continuant_preserving:
        raise ValueError("right factor must be continuant-preserving")
    joined = concat(w1.cf, w2.cf)
    offset = len(w1.cf)
    rho = Permutation(w1.sigma.images + tuple(offset + i for i in w2.sigma.images))
    witness = classify(joined, rho, w1.k, allow_noncanonical=True)
    if not witness.flags.continuant_preserving:
        raise AssertionError("concatenation lost continuant preservation")
    return witness


def palindromic_concat(witnesses: Sequence[Witness], k: int) -> Witness:
    """Reverse multiple formed by concatenating a palindromic list of
    k-reverse multiples (w_j and w_{m-j} must have equal digit strings)."""
    pieces = list(witnesses)
    if not pieces:
        raise ValueError("at least one witness is required")
    for w in pieces:
        if w.k != k:
            raise ValueError(f"mixed multipliers: expected {k}, found {w.k}")
        if not w.flags.reverse_multiple:
            raise ValueError(f"{w.cf} is not a reverse multiple")
    strings = [w.cf.digits for w in pieces]
    if strings != strings[::-1]:
        raise ValueError("witness list is not palindromic")
    joined = ContinuedFraction(tuple([a for string in strings for a in string]))
    witness = classify(joined, Permutation.reversal(len(joined)), k, allow_noncanonical=True)
    if not witness.flags.reverse_multiple:
        raise AssertionError("palindromic concatenation is not a reverse multiple")
    return witness
