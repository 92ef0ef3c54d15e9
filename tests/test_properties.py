"""Generative checks of the core identities with hypothesis."""

import collections
import itertools
import math
from fractions import Fraction

from conftest import gauss_step, matrix_continuant, nested_eval
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permutiple import (
    ContinuedFraction,
    PerfectParameters,
    Permutation,
    SearchConfig,
    bracket_views,
    canonicalize,
    concat,
    continuant,
    convergents,
    evaluate,
    exhaustive_search,
    from_rational,
    perfect_from_parameters,
    perfect_reverse,
    permute_digits,
    tails,
    validate_perfect_permutation,
)
from permutiple.classify import _is_perfect, _is_symmetric
from permutiple.search import _arrangement, _prefix_hits, _table

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
    assert _is_symmetric(cf, Permutation.reversal(len(ds)))


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
    store = collections.defaultdict(lambda: [None] * 10)
    table = _table(multiset, store)
    assert table == [
        (continuant(a), continuant(a[1:]), a[-1])
        for a in sorted(set(itertools.permutations(multiset)))
    ]


@example([1])
@example([1, 1, 1, 1, 1, 1])
@example([1, 2])
@given(st.lists(st.one_of(st.just(1), st.integers(1, 9)), min_size=1, max_size=6))
def test_rows_rebuild_to_their_arrangements(ds):
    # a row holds no digits; its p/q forced to m digits must give back its
    # arrangement, also where that ends in 1 and the expansion is a digit short
    multiset = tuple(sorted(ds))
    store = collections.defaultdict(lambda: [None] * 10)
    rebuilt = [_arrangement(p, q, len(ds)) for p, q, _ in _table(multiset, store)]
    assert rebuilt == sorted(set(itertools.permutations(multiset)))


@settings(deadline=None)
@example([1, 1, 1, 5], 0, True)
@example([1, 1, 1, 4], 4, True)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=5), st.integers(0, 7), st.booleans())
def test_prefix_hits_match_the_pairwise_scan(ds, extra, canonical_only):
    # every base of each multiset R + (c,) against every arrangement led by
    # a digit <= a0 // 2, kept when the exact ratio of their values is an
    # integer k >= 2, with no divisor join and no store; the c below
    # 2 * R[0] must give nothing.  The two examples take the divisor lookups
    # (p >= twice the least p'); the first meets the one j = 2 candidate,
    # q' = 41 for 5;1,1,1,5 (q = 17), and rejects it.  No j > 1 hit exists
    # at these bounds, as one would change the top continuant and so be a
    # counterexample to c2; the doctored row of
    # test_partners_at_a_proper_divisor_of_p_are_candidates checks that hit.
    prefix = tuple(sorted(ds))
    max_digit = min(8, prefix[-1] + extra)
    expected = []
    for c in range(prefix[-1], max_digit + 1):
        multiset = prefix + (c,)
        rows = [
            (a, continuant(a), continuant(a[1:]))
            for a in sorted(set(itertools.permutations(multiset)))
        ]
        for base, p, q in rows:
            if canonical_only and base[-1] < 2:
                continue
            ratios = [  # (p/q) / (pp/qp)
                (a, Fraction(p * qp, q * pp)) for a, pp, qp in rows if a[0] <= base[0] // 2
            ]
            hits = [(a, int(r)) for a, r in ratios if r.denominator == 1 and r >= 2]
            if hits:
                expected.append((base, hits))
    store = collections.defaultdict(lambda: [None] * (max_digit + 1))
    assert _prefix_hits(prefix, max_digit, canonical_only, store) == expected


@settings(deadline=None, max_examples=60)
@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.integers(2, 7),
    st.booleans(),
    st.one_of(st.none(), st.integers(2, 6)),
    st.one_of(st.none(), st.integers(0, 4)),
)
def test_k_bounds_filter_the_unbounded_stream(low, high, max_digit, canonical_only, k_min, k_span):
    # the bounds only drop witnesses: a bounded search is the unbounded
    # stream, in its order, less every witness with k outside [k_min, k_max]
    length = (min(low, high), max(low, high))
    k_max = None if k_span is None else (k_min or 2) + k_span
    config = dict(length=length, max_digit=max_digit, canonical_only=canonical_only)
    bounded = list(exhaustive_search(SearchConfig(**config, k_min=k_min, k_max=k_max)))
    unbounded = exhaustive_search(SearchConfig(**config))
    top = math.inf if k_max is None else k_max
    assert bounded == [w for w in unbounded if (k_min or 2) <= w.k <= top]


# Each single-walk pass below is pinned to the formula it replaced.


def _symmetric_at_every_position(ds, img):
    n = len(ds) - 1
    return all(ds[j] * ds[n - j] == ds[img[j]] * ds[img[n - j]] for j in range(n + 1))


def _perfect_by_position(ds, img, k):
    for j, image in enumerate(img):
        if j % 2 == 0:
            if ds[j] != k * ds[image]:
                return False
        elif ds[image] != k * ds[j]:
            return False
    return True


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=6),
    st.integers(2, 4),
    st.randoms(use_true_random=False),
)
def test_symmetric_and_perfect_match_the_position_loops(half, k, rng):
    # a perfect reverse multiple, then maybe one digit bumped and maybe another
    # sigma, so both answers come out either way
    w = perfect_reverse(k, tuple(half))
    ds = list(w.cf.digits)
    if rng.random() < 0.5:
        ds[rng.randrange(len(ds))] += 1
    if rng.random() < 0.3:
        del ds[rng.randrange(len(ds))]  # an odd length
    img = list(range(len(ds)))[::-1]
    if rng.random() < 0.5:
        rng.shuffle(img)
    cf, sigma = ContinuedFraction(tuple(ds)), Permutation(tuple(img))
    assert _is_symmetric(cf, sigma) == _symmetric_at_every_position(ds, img)
    assert _is_perfect(cf, sigma, k) == _perfect_by_position(ds, img, k)


@st.composite
def balanced_sigmas(draw, max_size=16):
    """Permutations whose every cycle holds as many even as odd positions."""
    size = 2 * draw(st.integers(1, max_size // 2))
    evens = draw(st.permutations(range(0, size, 2)))
    odds = draw(st.permutations(range(1, size, 2)))
    images = [0] * size
    start = 0
    while start < len(evens):
        half = draw(st.integers(1, len(evens) - start))
        cycle = draw(st.permutations(evens[start : start + half] + odds[start : start + half]))
        for j, position in enumerate(cycle):
            images[position] = cycle[(j + 1) % len(cycle)]
        start += half
    return Permutation(tuple(images))


any_sigmas = (
    st.integers(0, 9)
    .flatmap(lambda n: st.permutations(range(n)))
    .map(lambda images: Permutation(tuple(images)))
)


@given(st.one_of(any_sigmas, balanced_sigmas()))
@example(Permutation(()))
@example(Permutation(tuple(range(6))))
@example(Permutation((1, 0, 2)))
def test_validate_perfect_permutation_matches_the_even_odd_count(sigma):
    expected = len(sigma) > 0 and all(
        2 * sum(1 for j in cycle if j % 2 == 0) == len(cycle) for cycle in sigma.cycles
    )
    assert validate_perfect_permutation(sigma) == expected


def _four_walk_digits(sigma, k, orbit_params):
    """The builder ``perfect_from_parameters`` replaced: per cycle, one walk
    each for the powers, their closure, the least power of s_j and the digits."""
    digits = [0] * len(sigma)
    for cycle, param in zip(sigma.cycles, orbit_params):
        powers, power = [], 0
        for j in cycle:
            powers.append(power)
            power += 1 if j % 2 else -1
        assert power == 0
        shift = min(e + j % 2 - 1 for j, e in zip(cycle, powers))
        for j, e in zip(cycle, powers):
            digits[j] = param * k ** (e - shift)
    return tuple(digits)


@given(balanced_sigmas(), st.integers(2, 7), st.data())
def test_perfect_from_parameters_matches_the_four_walk_builder(sigma, k, data):
    count = len(sigma.cycles)
    params = tuple(data.draw(st.lists(st.integers(1, 9), min_size=count, max_size=count)))
    w = perfect_from_parameters(PerfectParameters(sigma, k, params))
    assert w.cf.digits == _four_walk_digits(sigma, k, params)


@given(st.integers(0, 300))
def test_reversal_is_the_shared_reversed_image_list(n):
    assert Permutation.reversal(n) == Permutation(tuple(range(n - 1, -1, -1)))
    assert Permutation.reversal(n) is Permutation.reversal(n)
