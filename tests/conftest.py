"""Shared independent oracles for the test suite.

These deliberately avoid the library's code paths: evaluation nests the
fraction directly, continuants come from 2x2 matrix products, the Gauss
map is its definition, and the witness oracle tries every permutation
against exact Fraction values with no pruning.  Tests marked ``slow`` run only with ``--run-slow``.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import pytest


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", help="also run tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: a long scan, run only with --run-slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow: run with --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def nested_eval(digits) -> Fraction:
    """Evaluate a digit string by literally nesting a0 + 1/(a1 + 1/(...))."""
    acc = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        acc = a + 1 / acc
    return acc


def matrix_continuant(xs) -> int:
    """Continuant as the top-left entry of the product of [[x,1],[1,0]] matrices."""
    a, b, c, d = 1, 0, 0, 1
    for x in xs:
        a, b, c, d = a * x + b, a, c * x + d, c
    return a


def gauss_step(x: Fraction) -> Fraction:
    """One step of the Gauss map, the digit left-shift on [0, 1): 0 -> 0,
    else frac(1/x)."""
    if not 0 <= x < 1:
        raise ValueError(f"{x} is outside [0, 1)")
    if x == 0:
        return Fraction(0)
    inv = 1 / x
    return inv - (inv.numerator // inv.denominator)


@functools.lru_cache(maxsize=1 << 17)
def _string_value(digits: tuple[int, ...]) -> Fraction:
    """``nested_eval`` of a digit tuple, kept: every string of one digit
    multiset tries the same rearrangements."""
    return nested_eval(digits)


@functools.lru_cache(maxsize=1 << 10)
def _rearrangements(multiset: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    return frozenset(itertools.permutations(multiset))


def brute_force_witnesses(digits, k_min=2, k_max=None) -> dict[tuple[int, ...], int]:
    """Unpruned oracle: permuted string -> k over every distinct rearrangement."""
    digits = tuple(digits)
    base_value = _string_value(digits)
    out: dict[tuple[int, ...], int] = {}
    for perm in _rearrangements(tuple(sorted(digits))):
        if perm == digits:
            continue
        value = _string_value(perm)
        # base_value / value, an integer exactly when the cross product divides
        k, rest = divmod(
            base_value.numerator * value.denominator, base_value.denominator * value.numerator
        )
        if rest:
            continue
        if k >= k_min and (k_max is None or k <= k_max):
            out[perm] = k
    return out
