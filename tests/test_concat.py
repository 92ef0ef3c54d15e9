import itertools
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from permutiple import (
    BracketViews,
    ContinuedFraction,
    PerfectParameters,
    Permutation,
    SearchConfig,
    bracket_views,
    classify,
    concat,
    concat_witness,
    continuant,
    evaluate,
    exhaustive_search,
    find_witnesses,
    palindromic_concat,
    perfect_from_parameters,
    two_digit,
)

CF = ContinuedFraction
P = Permutation


def witness(digits, permuted, k=None):
    from permutiple import canonical_sigma

    cf = CF(digits)
    return classify(cf, canonical_sigma(digits, permuted), k, allow_noncanonical=True)


class TestConcat:
    def test_examples(self):
        assert concat(CF((7, 1, 3)), CF((7, 1, 3))) == CF((7, 1, 3, 7, 1, 3))
        assert concat(CF((2, 1, 5, 1, 2)), CF((7, 1, 3))) == CF((2, 1, 5, 1, 2, 7, 1, 3))
        assert concat(CF((5, 3, 1)), CF((2,))) == CF((5, 3, 1, 2))

    def test_canonicality_follows_right_factor(self):
        assert concat(CF((5, 3, 1)), CF((2,))).is_canonical
        assert not concat(CF((7, 1, 3)), CF((5, 3, 1))).is_canonical

    def test_associative(self):
        rng = random.Random(3)
        for _ in range(100):
            strings = [
                CF(tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4))))
                for _ in range(3)
            ]
            a, b, c = strings
            assert concat(concat(a, b), c) == concat(a, concat(b, c))


class TestBracketViews:
    def test_match_value(self):
        rng = random.Random(5)
        for _ in range(100):
            ds = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
            views = bracket_views(CF(ds))
            value = evaluate(CF(ds))
            assert views.full == value.numerator
            assert views.drop_first == value.denominator
            assert views.drop_last == continuant(ds[:-1])

    def test_match_separate_continuants(self):
        rng = random.Random(9)
        for length in range(1, 13):
            for _ in range(20):
                ds = tuple(rng.randint(1, 40) for _ in range(length))
                assert bracket_views(CF(ds)) == BracketViews(
                    full=continuant(ds),
                    drop_first=continuant(ds[1:]),
                    drop_last=continuant(ds[:-1]),
                    drop_both=continuant(ds[1:-1]) if length >= 2 else 0,
                )

    def test_concatenation_identity_exhaustive_short(self):
        for n1, n2 in itertools.product((1, 2, 3), repeat=2):
            for d1 in itertools.product((1, 2, 3), repeat=n1):
                for d2 in itertools.product((1, 2, 3), repeat=n2):
                    left, right = CF(d1), CF(d2)
                    joined = bracket_views(concat(left, right))
                    v1, v2 = bracket_views(left), bracket_views(right)
                    assert joined.full == v1.full * v2.full + v1.drop_last * v2.drop_first

    def test_concatenation_identity_randomized_long(self):
        rng = random.Random(7)
        for _ in range(200):
            d1 = tuple(rng.randint(1, 50) for _ in range(rng.randint(1, 10)))
            d2 = tuple(rng.randint(1, 50) for _ in range(rng.randint(1, 10)))
            joined = bracket_views(concat(CF(d1), CF(d2)))
            v1, v2 = bracket_views(CF(d1)), bracket_views(CF(d2))
            assert joined.full == v1.full * v2.full + v1.drop_last * v2.drop_first
            assert joined.drop_first == v1.drop_first * v2.full + v1.drop_both * v2.drop_first


class TestConcatWitness:
    def test_reverse_multiple_with_itself(self):
        w = witness((7, 1, 3), (3, 1, 7))
        joined = concat_witness(w, w)
        assert joined.cf == CF((7, 1, 3, 7, 1, 3))
        assert evaluate(joined.cf) == Fraction(993, 128)
        assert evaluate(joined.permuted) == Fraction(993, 256)
        assert joined.flags.reverse_multiple
        assert joined.flags.continuant_preserving

    def test_landess_left_factor(self):
        landess = witness((2, 1, 5, 1, 2), (1, 2, 2, 1, 5))
        reverse = witness((7, 1, 3), (3, 1, 7))
        joined = concat_witness(landess, reverse)
        assert joined.cf == CF((2, 1, 5, 1, 2, 7, 1, 3))
        assert joined.permuted == CF((1, 2, 2, 1, 5, 3, 1, 7))
        assert joined.k == 2
        assert joined.flags.landess

    def test_perfect_closure(self):
        perfect = perfect_from_parameters(PerfectParameters(P((1, 0, 3, 2)), 7, (1, 2)))
        joined = concat_witness(perfect, perfect)
        assert len(joined.cf) == 8
        assert joined.flags.perfect

    def test_block_permutation_shape(self):
        w = witness((7, 1, 3), (3, 1, 7))
        joined = concat_witness(w, w)
        assert joined.sigma.images == (2, 1, 0, 5, 4, 3)

    def test_multiplier_mismatch_rejected(self):
        with pytest.raises(ValueError, match="multiplier"):
            concat_witness(witness((7, 1, 3), (3, 1, 7)), witness((6, 2), (2, 6)))

    def test_left_factor_must_be_landess(self):
        not_landess = witness((11, 1, 10, 2, 3), (1, 3, 11, 10, 2))
        assert not not_landess.flags.landess
        with pytest.raises(ValueError, match="landess"):
            concat_witness(not_landess, not_landess)

    def test_every_perfect_witness_is_accepted_as_left_factor(self):
        perfects = [
            perfect_from_parameters(PerfectParameters(P((1, 0, 3, 2)), k, (s, t)))
            for k in (2, 3) for s in (1, 2) for t in (1, 3)
        ]
        closer = two_digit(2, 2)
        for w in perfects:
            if w.k == 2:
                assert concat_witness(w, closer).flags.continuant_preserving


class TestPalindromicConcat:
    def test_singleton(self):
        w = witness((7, 1, 3), (3, 1, 7))
        assert palindromic_concat([w], 2).cf == CF((7, 1, 3))

    def test_three_blocks(self):
        a = witness((7, 1, 3), (3, 1, 7))
        b = witness((7, 2, 1, 3), (3, 1, 2, 7))
        joined = palindromic_concat([a, b, a], 2)
        assert joined.cf == CF((7, 1, 3, 7, 2, 1, 3, 7, 1, 3))
        assert joined.flags.reverse_multiple
        assert evaluate(joined.cf) == 2 * evaluate(CF(joined.cf.digits[::-1]))

    def test_non_palindromic_rejected(self):
        a = witness((7, 1, 3), (3, 1, 7))
        b = witness((6, 2), (2, 6), 3)
        with pytest.raises(ValueError):
            palindromic_concat([a, b], 2)
        with pytest.raises(ValueError, match="at least one"):
            palindromic_concat([], 2)
        landess = witness((2, 1, 1, 2, 3, 1, 4, 2), (1, 3, 2, 1, 1, 2, 2, 4))
        with pytest.raises(ValueError, match="not a reverse multiple"):
            palindromic_concat([landess], 2)
        c = witness((7, 2, 1, 3), (3, 1, 2, 7))
        with pytest.raises(ValueError, match="not palindromic"):
            palindromic_concat([a, c], 2)

    def test_four_pieces_test_the_middle_pair_too(self):
        # the outer pair agrees, so a check of it alone would let this through
        a = witness((7, 1, 3), (3, 1, 7))
        b = witness((7, 2, 1, 3), (3, 1, 2, 7))
        c = witness((5, 1, 2), (2, 1, 5))
        with pytest.raises(ValueError, match="not palindromic"):
            palindromic_concat([a, b, c, a], 2)
        joined = palindromic_concat([a, b, b, a], 2)
        assert joined.cf == CF((7, 1, 3, 7, 2, 1, 3, 7, 2, 1, 3, 7, 1, 3))
        assert joined.flags.reverse_multiple

    def test_mixed_multiplier_rejected(self):
        a = witness((7, 1, 3), (3, 1, 7))
        with pytest.raises(ValueError, match="multiplier"):
            palindromic_concat([a], 3)


class TestMonoidClosure:
    def test_landess_corpus_is_closed(self):
        corpus = [two_digit(2, s) for s in range(2, 7)]
        corpus.append(witness((7, 1, 3), (3, 1, 7)))
        corpus.append(witness((2, 1, 5, 1, 2), (1, 2, 2, 1, 5)))
        for w1, w2 in itertools.product(corpus, repeat=2):
            joined = concat_witness(w1, w2)
            assert joined.flags.landess
            assert evaluate(joined.cf) == 2 * evaluate(joined.permuted)


class TestProductsAgainstInversion:
    def test_search_corpus_products_are_found_by_find_witnesses(self):
        # The paper's "new from old" results, checked against the value/k
        # inversion, which shares no code with the closure constructions:
        # every product's (permuted string, k) must be one find_witnesses finds.
        corpus = exhaustive_search(SearchConfig(length=(2, 4), max_digit=12, canonical_only=False))
        flags = ("landess", "continuant_preserving", "reverse_multiple")
        groups = {flag: defaultdict(list) for flag in flags}
        for w in corpus:
            for flag, by_k in groups.items():
                if getattr(w.flags, flag):
                    by_k[w.k].append(w)
        landess, preserving, reverse = groups.values()
        rng = random.Random(13)
        products = []
        for _ in range(300):  # chains w1 . (w2 . (... . w_last)) of up to 40 digits
            k = rng.choice(sorted(landess))
            joined = rng.choice(preserving[k])
            while rng.random() > 0.15:
                left = rng.choice(landess[k])
                if len(left.cf) + len(joined.cf) > 40:
                    break
                joined = concat_witness(left, joined)
            products.append(joined)
        for _ in range(100):  # palindromic lists of odd and even length
            k = rng.choice(sorted(reverse))
            half = [rng.choice(reverse[k]) for _ in range(rng.randint(1, 3))]
            products.append(palindromic_concat(half + half[-1 - rng.randint(0, 1) :: -1], k))
        assert max(len(w.cf) for w in products) > 30
        assert any(not w.cf.is_canonical for w in products)
        for w in products:
            found = find_witnesses(w.cf, allow_noncanonical=True)
            assert (w.permuted.digits, w.k) in {(x.permuted.digits, x.k) for x in found}, w.cf
