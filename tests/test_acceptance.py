"""Acceptance suite: one test per criterion, each ending in a PASS line.

Everything is exact arithmetic; there are no tolerances anywhere.  The two
conjecture scans are shared module-scoped fixtures because several criteria
inspect their witnesses.
"""

import itertools
import os
import random
from fractions import Fraction

import pytest
from conftest import nested_eval

from permutiple import (
    ContinuedFraction,
    PerfectParameters,
    Permutation,
    QuadraticSurd,
    SearchConfig,
    asymptotic_continuant_gap,
    bracket_views,
    canonical_sigma,
    check_conjectures,
    classify,
    concat,
    concat_witness,
    continuant,
    convergents,
    enumerate_three_digit_reverse,
    evaluate,
    exhaustive_search,
    infinite_perfect_stream,
    palindromic_concat,
    perfect_from_parameters,
    perfect_reverse,
    surd_multiplier,
    tails,
    two_digit,
    validate_perfect_permutation,
    verify_surd_permutiple,
)

CF = ContinuedFraction
WORKERS = min(2, os.cpu_count() or 1)


def announce(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def scan_len4_b20():
    config = SearchConfig(length=4, max_digit=20, workers=WORKERS)
    return list(exhaustive_search(config))


@pytest.fixture(scope="module")
def scan_len2to5_b12():
    config = SearchConfig(length=(2, 5), max_digit=12, workers=WORKERS)
    return list(exhaustive_search(config))


GALLERY = [
    # digits, permuted digits, k, required flag values
    ((7, 1, 3), (3, 1, 7), 2, {"reverse_multiple": True, "landess": True}),
    ((7, 2, 1, 3), (3, 1, 2, 7), 2, {"reverse_multiple": True, "perfect": False}),
    ((7, 1, 14, 2), (1, 7, 2, 14), 7, {"perfect": True, "reverse_multiple": False}),
    ((3, 1, 9, 1, 3, 3), (1, 3, 3, 3, 1, 9), 3, {"perfect": True, "symmetric": True}),
    (
        (4, 2, 1, 8, 1, 2),
        (1, 2, 4, 2, 1, 8),
        3,
        {"symmetric": True, "perfect": False, "reverse_multiple": False},
    ),
    ((9, 3, 2, 8, 2), (2, 3, 9, 2, 8), 4, {"symmetric": False}),
    ((2, 1, 5, 1, 2), (1, 2, 2, 1, 5), 2, {"landess": True, "symmetric": False}),
    ((11, 1, 10, 2, 3), (1, 3, 11, 10, 2), 9, {"landess": False}),
]


def test_criterion_1_example_gallery():
    for digits, permuted, k, expected_flags in GALLERY:
        assert nested_eval(digits) == k * nested_eval(permuted)  # independent oracle
        w = classify(CF(digits), canonical_sigma(digits, permuted), k)
        assert evaluate(w.cf) == evaluate(CF(digits))
        assert evaluate(w.cf) == k * evaluate(w.permuted)
        assert w.permuted.digits == permuted
        for name, value in expected_flags.items():
            assert getattr(w.flags, name) == value, (digits, name)
    announce("criterion 1", f"{len(GALLERY)} gallery identities verified exactly")


def three_digit_family(k_max, bound):
    """Canonical constructor witnesses for k = 2..k_max with every digit <= bound."""
    return {
        w
        for k in range(2, k_max + 1)
        for w in enumerate_three_digit_reverse(k, bound)
        if w.cf.is_canonical and max(w.cf.digits) <= bound
    }


def test_criterion_2_three_digit_completeness():
    # every k: a 3-digit witness has a0 > k * a2 >= k, so k < bound
    searched = list(exhaustive_search(SearchConfig(length=3, max_digit=120, workers=WORKERS)))
    for w in searched:
        a0, a1, a2 = w.cf.digits
        assert w.flags.reverse_multiple
        assert w.permuted.digits == (a2, a1, a0)
        assert a0 * a1 + 1 == w.k * (a1 * a2 + 1)
    assert set(searched) == three_digit_family(120, 120)
    assert len(searched) == 953
    # and a bounded multiplier range against the same family cut to it
    config = SearchConfig(length=3, max_digit=25, k_min=2, k_max=5, workers=WORKERS)
    bounded = list(exhaustive_search(config))
    assert bounded and set(bounded) == three_digit_family(5, 25)
    announce(
        "criterion 2",
        f"{len(searched)} three-digit witnesses at bound 120 (every k) and"
        f" {len(bounded)} at bound 25 (k <= 5), search == constructor enumeration",
    )


def test_criterion_3_two_digit_completeness():
    searched = {
        (w.cf.digits, w.k)
        for w in exhaustive_search(SearchConfig(length=2, max_digit=1000, workers=WORKERS))
    }
    family = {((k * s, s), k) for s in range(2, 501) for k in range(2, 1000 // s + 1)}
    assert searched == family
    assert len(searched) == 5070
    announce("criterion 3", f"exactly the swap family: {len(searched)} witnesses at bound 1000")


def four_digit_families(bound):
    """Canonical 4-digit (digits, permuted, k) with every digit <= bound: the
    perfect ones and the reverse multiples, each built, never scanned."""
    perfect = set()
    for images in itertools.permutations(range(4)):
        sigma = Permutation(images)
        if not validate_perfect_permutation(sigma):  # every cycle parity-balanced
            continue
        for k in range(2, bound + 1):
            # a cycle's digits are its parameter times those built with 1
            ones = perfect_from_parameters(PerfectParameters(sigma, k, (1,) * len(sigma.cycles)))
            tops = [bound // max(ones.cf.digits[j] for j in cycle) for cycle in sigma.cycles]
            for params in itertools.product(*(range(1, top + 1) for top in tops)):
                w = perfect_from_parameters(PerfectParameters(sigma, k, params))
                if w.cf.is_canonical:
                    perfect.add((w.cf.digits, w.permuted.digits, w.k))
    # [a0; a1, a2, a3] == k * [a3; a2, a1, a0] exactly when
    # k*a1 == a2 + t*(a1*a2 + 1) and a0 == k*a3 + t for an integer t >= 0;
    # a3 >= 2 and a0 <= bound leave k <= bound // 2
    reverse = set()
    for k in range(2, bound // 2 + 1):
        for a1, a2 in itertools.product(range(1, bound + 1), repeat=2):
            t, rem = divmod(k * a1 - a2, a1 * a2 + 1)
            if rem or t < 0:
                continue
            for a3 in range(2, (bound - t) // k + 1):
                digits = (k * a3 + t, a1, a2, a3)
                assert nested_eval(digits) == k * nested_eval(digits[::-1])
                reverse.add((digits, digits[::-1], k))
    return perfect, reverse


def test_four_digit_completeness():
    searched = {
        (w.cf.digits, w.permuted.digits, w.k)
        for w in exhaustive_search(SearchConfig(length=4, max_digit=30, workers=WORKERS))
    }
    perfect, reverse = four_digit_families(30)
    assert searched == perfect | reverse
    assert (len(searched), len(perfect), len(reverse - perfect)) == (971, 812, 159)
    announce(
        "four-digit families",
        f"{len(searched)} witnesses at bound 30 == {len(perfect)} perfect"
        f" + {len(reverse - perfect)} further reverse multiples",
    )


def solved_reverse_multiples(length, bound):
    """Canonical (digits, k) of every reverse multiple of ``length`` digits
    <= bound, solved from the mirror identity and never scanned.

    With mid the middle digits a1..a_{n-1}, [a0; mid, an] == k * [an; mid', a0]
    (mid' reversed) says K(a0, mid) == k * K(mid, an), that is
    K(mid) * (a0 - k*an) == k * K(mid less its last) - K(mid less its first).
    So t = a0 - k*an is forced, a non-negative integer or no solution, and
    every an >= 2 with a0 = k*an + t <= bound gives a witness, which leaves
    k <= bound // 2.  With no middle both shorter continuants are K_{-1} = 0.
    """
    out = set()
    for mid in itertools.product(range(1, bound + 1), repeat=length - 2):
        whole = continuant(mid)
        less_last, less_first = (continuant(mid[:-1]), continuant(mid[1:])) if mid else (0, 0)
        for k in range(2, bound // 2 + 1):
            t, rem = divmod(k * less_last - less_first, whole)
            if rem or t < 0:
                continue
            for an in range(2, (bound - t) // k + 1):
                out.add(((k * an + t, *mid, an), k))
    return out


REVERSE_MULTIPLE_COUNTS = [
    (2, 60, 142),
    (3, 60, 312),
    (4, 30, 591),
    (5, 10, 63),
    (6, 7, 54),
    (7, 5, 9),
    (8, 4, 13),
]


@pytest.mark.parametrize("length,bound,count", REVERSE_MULTIPLE_COUNTS)
def test_reverse_multiples_solve_the_mirror_identity_at_every_length(length, bound, count):
    searched = {
        (w.cf.digits, w.k)
        for w in exhaustive_search(SearchConfig(length=length, max_digit=bound, workers=WORKERS))
        if w.permuted.digits == w.cf.digits[::-1]
    }
    solved = solved_reverse_multiples(length, bound)
    assert searched == solved
    assert len(solved) == count
    announce(
        f"{length}-digit reverse multiples",
        f"{count} at bound {bound}: search == the mirror identity solved per middle string",
    )


def test_criterion_4_conjecture_scans(scan_len4_b20, scan_len2to5_b12):
    reports4 = check_conjectures(scan_len4_b20, ["c1", "c4"], bounds="length 4, digits <= 20")
    reports5 = check_conjectures(
        scan_len2to5_b12, ["c2", "c3"], bounds="lengths 2..5, digits <= 12"
    )
    for report in list(reports4.values()) + list(reports5.values()):
        assert report.holds_within_bounds, report.summary()
        assert report.examined > 0
    assert reports4["c1"].examined == len(scan_len4_b20)
    announce(
        "criterion 4",
        f"c1/c4 over {len(scan_len4_b20)} witnesses and c2/c3 over "
        f"{len(scan_len2to5_b12)} witnesses: zero counterexamples",
    )


def _random_digit_string(rng, max_len=9, max_digit=40):
    return tuple(rng.randint(1, max_digit) for _ in range(rng.randint(1, max_len)))


def test_criterion_5_property_suites(scan_len4_b20, scan_len2to5_b12):
    rng = random.Random(2026)
    cases = 0

    # continuant reversal invariance: exhaustive tiny plus 1000 randomized
    for n in range(1, 5):
        for ds in itertools.product(range(1, 5), repeat=n):
            assert continuant(ds) == continuant(ds[::-1])
            cases += 1
    for _ in range(1000):
        ds = _random_digit_string(rng)
        assert continuant(ds) == continuant(ds[::-1])

    # concatenation continuant identity
    for n1, n2 in itertools.product((1, 2), repeat=2):
        for d1 in itertools.product((1, 2, 3), repeat=n1):
            for d2 in itertools.product((1, 2, 3), repeat=n2):
                v1, v2 = bracket_views(CF(d1)), bracket_views(CF(d2))
                joined = bracket_views(concat(CF(d1), CF(d2)))
                assert joined.full == v1.full * v2.full + v1.drop_last * v2.drop_first
    for _ in range(1000):
        d1, d2 = _random_digit_string(rng), _random_digit_string(rng)
        v1, v2 = bracket_views(CF(d1)), bracket_views(CF(d2))
        joined = bracket_views(concat(CF(d1), CF(d2)))
        assert joined.full == v1.full * v2.full + v1.drop_last * v2.drop_first

    # tail product == 1/q_n
    for n in range(2, 4):
        for ds in itertools.product(range(1, 4), repeat=n):
            product = Fraction(1)
            for g in tails(CF(ds)):
                product *= g
            assert product == Fraction(1, convergents(CF(ds))[-1][1])
    for _ in range(1000):
        ds = _random_digit_string(rng)
        product = Fraction(1)
        for g in tails(CF(ds)):
            product *= g
        assert product == Fraction(1, convergents(CF(ds))[-1][1])

    # three-way equivalence and the numerator-ratio criterion on every
    # witness from the criterion-4 scans
    witnesses = scan_len4_b20 + scan_len2to5_b12
    assert len(witnesses) > 500
    for w in witnesses:
        cp = w.flags.continuant_preserving
        q = convergents(w.cf)[-1][1]
        qp = convergents(w.permuted)[-1][1]
        denominator_relation = qp == w.k * q
        base_product = Fraction(1)
        for g in tails(w.cf):
            base_product *= g
        permuted_product = Fraction(1)
        for g in tails(w.permuted):
            permuted_product *= g
        tail_relation = base_product == w.k * permuted_product
        assert cp == denominator_relation == tail_relation
        p = continuant(w.cf.digits)
        pp = continuant(w.permuted.digits)
        if p < 2 * pp:
            assert cp

        # implication chain on every scanned witness
        if w.flags.perfect:
            assert len(w.cf) % 2 == 0
            assert w.flags.symmetric
            assert w.flags.landess
        if w.flags.symmetric:
            assert w.flags.landess
    announce(
        "criterion 5",
        f"identity suites (>=1000 randomized each, {cases} exhaustive tiny) and "
        f"equivalence checks on {len(witnesses)} scanned witnesses",
    )


def _landess_corpus(k: int, size: int) -> list:
    corpus = [two_digit(k, s) for s in range(2, 42)]
    corpus.extend(w for w in enumerate_three_digit_reverse(k, 150) if w.cf.is_canonical)
    for s0 in range(2, 7):
        for s1 in range(1, 6):
            corpus.append(perfect_reverse(k, (s0, s1)))
    corpus = [w for w in corpus if w.flags.landess]
    assert len(corpus) >= size, f"only {len(corpus)} landess witnesses for k={k}"
    return corpus[:size]


def test_criterion_6_concatenation_closure():
    checked = 0
    for k in (2, 3, 7):
        corpus = _landess_corpus(k, 100)
        for w1, w2 in itertools.product(corpus, repeat=2):
            joined = concat_witness(w1, w2)
            assert joined.k == k
            assert evaluate(joined.cf) == k * evaluate(joined.permuted)
            assert joined.flags.landess
            checked += 1
        reverses = [w for w in corpus if w.flags.reverse_multiple][:8]
        for a, b in itertools.product(reverses, repeat=2):
            for pieces in ([a], [a, a], [a, b, a]):
                joined = palindromic_concat(pieces, k)
                assert joined.flags.reverse_multiple
                assert evaluate(joined.cf) == k * evaluate(CF(joined.cf.digits[::-1]))
    announce("criterion 6", f"{checked} pairwise concatenations verified and landess-closed")


def test_criterion_7_surd_module():
    report = verify_surd_permutiple(QuadraticSurd(1, 3, 1), depth=40)
    assert report.k == 2
    assert report.fails_at is None  # the adjacent swap holds at every digit
    assert report.digits == (2, 1) * 20 and report.scaled_digits == (1, 2) * 20

    stream = infinite_perfect_stream(2, lambda i: 4**i)
    expected = []
    for i in range(20):
        expected.extend((2 * 4**i, 4**i))
    assert stream.prefix(40) == tuple(expected)
    assert tuple(stream.digit(j ^ 1) for j in range(40)) == tuple(2**j for j in range(40))

    gaps = asymptotic_continuant_gap(stream, 39)
    for n, gap in enumerate(gaps, start=1):
        if n % 2 == 1:
            assert gap == 0, n
    assert all(gaps[n - 1] != 0 for n in range(2, 40, 2))

    golden = verify_surd_permutiple(QuadraticSurd(1, 5, 2), depth=40)
    assert golden.k == 2
    assert golden.fails_at == 0  # (1+sqrt(5))/4 = [0; 1, 4, 4, ...]; recorded, not a failure
    announce(
        "criterion 7",
        "adjacent swap of 1+sqrt(3) holds at every digit, stream digits exact for 40 digits, "
        "gaps vanish at odd indices, golden-ratio swap fails at digit 0",
    )
