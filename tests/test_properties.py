"""Generative checks of the core identities with hypothesis."""

import itertools
from fractions import Fraction

from conftest import matrix_continuant, nested_eval
from hypothesis import given, settings
from hypothesis import strategies as st

from permutiple import (
    ContinuedFraction,
    Permutation,
    bracket_views,
    canonicalize,
    concat,
    continuant,
    convergents,
    evaluate,
    from_rational,
    gauss_step,
    is_symmetric,
    permute_digits,
    tails,
)
from permutiple.search import _arrangement_table

digit_strings = st.lists(st.integers(1, 40), min_size=1, max_size=9).map(tuple)


def canonical_strings(max_digit=40, max_len=9):
    def fix(ds):
        if len(ds) > 1 and ds[-1] == 1:
            return ds[:-1] + (2,)
        return ds

    return st.lists(st.integers(1, max_digit), min_size=1, max_size=max_len).map(tuple).map(fix)


@given(digit_strings)
def test_continuant_reversal_invariance(ds):
    assert continuant(ds) == continuant(ds[::-1])


@given(digit_strings)
def test_continuant_matches_matrix_oracle(ds):
    assert continuant(ds) == matrix_continuant(ds)


@given(digit_strings)
def test_evaluate_matches_nested_oracle(ds):
    assert evaluate(ContinuedFraction(ds)) == nested_eval(ds)


@given(canonical_strings())
def test_round_trip_through_rational(ds):
    cf = ContinuedFraction(ds)
    assert from_rational(evaluate(cf)) == cf


@given(digit_strings)
def test_canonicalize_idempotent_and_value_preserving(ds):
    cf = ContinuedFraction(ds)
    folded = canonicalize(cf)
    assert folded.is_canonical
    assert evaluate(folded) == evaluate(cf)
    assert canonicalize(folded) == folded


@given(digit_strings)
def test_tail_product_is_reciprocal_denominator(ds):
    cf = ContinuedFraction(ds)
    product = Fraction(1)
    for g in tails(cf):
        product *= g
    assert product == Fraction(1, convergents(cf)[-1][1])


@given(canonical_strings())
def test_gauss_orbit_recovers_digits(ds):
    cf = ContinuedFraction(ds)
    g = evaluate(cf) - ds[0]
    for j in range(1, len(ds)):
        assert ds[j] == (1 / g).numerator // (1 / g).denominator
        g = gauss_step(g)


@given(digit_strings, digit_strings)
def test_concatenation_continuant_identity(d1, d2):
    left, right = ContinuedFraction(d1), ContinuedFraction(d2)
    joined = bracket_views(concat(left, right))
    v1, v2 = bracket_views(left), bracket_views(right)
    assert joined.full == v1.full * v2.full + v1.drop_last * v2.drop_first


@given(digit_strings, digit_strings, digit_strings)
@settings(max_examples=50)
def test_concat_is_associative(d1, d2, d3):
    a, b, c = (ContinuedFraction(d) for d in (d1, d2, d3))
    assert concat(concat(a, b), c) == concat(a, concat(b, c))


@given(st.lists(st.integers(1, 15), min_size=1, max_size=7).map(tuple))
def test_reversal_permutation_is_always_symmetric(ds):
    cf = ContinuedFraction(ds)
    assert is_symmetric(cf, Permutation.reversal(len(ds)))


@given(st.lists(st.integers(1, 15), min_size=2, max_size=6).map(tuple), st.randoms())
def test_convergents_of_permuted_strings_stay_reduced(ds, rng):
    from math import gcd

    images = list(range(len(ds)))
    rng.shuffle(images)
    permuted = permute_digits(ContinuedFraction(ds), Permutation(tuple(images)))
    for p, q in convergents(permuted):
        assert gcd(p, q) == 1


@given(st.lists(st.integers(1, 9), min_size=1, max_size=6))
def test_arrangement_table_is_the_sorted_distinct_arrangements(ds):
    multiset = tuple(sorted(ds))
    table = _arrangement_table(multiset, {})
    assert [row[0] for row in table] == sorted(set(itertools.permutations(multiset)))
    for arrangement, p, q in table:
        assert (p, q) == (continuant(arrangement), continuant(arrangement[1:]))
