import itertools
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from conftest import brute_force_witnesses, matrix_continuant, nested_eval

from permutiple import (
    ClassificationFlags,
    ContinuedFraction,
    NotAPermutipleError,
    Permutation,
    Witness,
    canonical_sigma,
    classify,
    continuant,
    evaluate,
    find_witnesses,
    permute_digits,
    perfect_reverse,
)

classify_module = sys.modules["permutiple.classify"]

CF = ContinuedFraction
P = Permutation

REVERSAL_3 = P((2, 1, 0))


class TestPermutation:
    def test_validates_bijection(self):
        with pytest.raises(ValueError):
            P((0, 0, 1))
        with pytest.raises(ValueError):
            P((1, 3, 0))

    @pytest.mark.parametrize("images", [(True, False), (0.0, 1), (1, 0.0), (0, 2.0, 1), ("0",)])
    def test_refuses_images_that_are_not_ints(self, images):
        # equal to 0..n-1 as values, but no sigma: a witness on (True, False)
        # was exported as "sigma":"True,False"
        with pytest.raises(ValueError, match=r"is not a permutation of 0\.\."):
            P(images)

    @pytest.mark.parametrize("size", [2.0, True, "2", None, -3])
    def test_reversal_refuses_a_size_that_is_not_an_int(self, size):
        assert P.reversal(2).images == (1, 0)  # cached first: 2.0 still misses it
        # range(-4, -1, -1) is empty: -3 was the empty permutation, which is 0's
        assert P.reversal(0) == P(())
        rule = ">= 0" if type(size) is int else "an integer"
        message = f"^reversal size must be {rule}, not {size!r}$"
        with pytest.raises(ValueError, match=message):
            P.reversal(size)

    def test_parse_format(self):
        assert P.parse("2,1,0") == REVERSAL_3
        assert str(REVERSAL_3) == "2,1,0"

    def test_derived_attributes(self):
        assert P((3, 0, 4, 5, 1, 2)).cycles == ((0, 3, 5, 2, 4, 1),)
        assert P((1, 0, 3, 2)).cycles == ((0, 1), (2, 3))
        assert P((0, 1, 2, 3)).cycles == ((0,), (1,), (2,), (3,))
        assert P.reversal(3).images == (2, 1, 0)


class TestPermuteDigits:
    def test_examples(self):
        assert permute_digits(CF((7, 1, 3)), REVERSAL_3) == CF((3, 1, 7))
        assert permute_digits(CF((7, 1, 3)), P((0, 1, 2))) == CF((7, 1, 3))
        assert permute_digits(CF((7, 1, 14, 2)), P((1, 0, 3, 2))) == CF((1, 7, 2, 14))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            permute_digits(CF((7, 1, 3)), P((1, 0)))


class TestMultiplier:
    def test_examples(self):
        assert classify(CF((7, 1, 3)), REVERSAL_3).k == 2
        assert classify(CF((11, 1, 10, 2, 3)), P((1, 4, 0, 2, 3))).k == 9

    def test_ratio_one_or_not_an_integer(self):
        with pytest.raises(NotAPermutipleError):
            classify(CF((7, 1, 3)), P((0, 1, 2)))
        with pytest.raises(NotAPermutipleError):
            classify(CF((7, 1, 3)), P((1, 0, 2)))

    def test_agrees_with_brute_oracle(self):
        rng = random.Random(5)
        for _ in range(150):
            ds = tuple(rng.randint(1, 8) for _ in range(rng.randint(2, 4)))
            oracle = brute_force_witnesses(ds)
            for permuted, k in oracle.items():
                sigma = canonical_sigma(ds, permuted)
                assert classify(CF(ds), sigma, allow_noncanonical=True).k == k


class TestPredicates:
    def test_continuant_preserving(self):
        assert classify(CF((7, 1, 3)), REVERSAL_3).flags.continuant_preserving
        cf = CF((11, 1, 10, 2, 3))
        sigma = P((1, 4, 0, 2, 3))
        assert classify(cf, sigma).flags.continuant_preserving
        assert continuant(cf.digits) == 953
        assert continuant(permute_digits(cf, sigma).digits) == 953
        cf = CF((9, 3, 2, 8, 2))
        sigma = canonical_sigma(cf.digits, (2, 3, 9, 2, 8))
        assert classify(cf, sigma).flags.continuant_preserving
        assert continuant(cf.digits) == 1161

    def test_perfect(self):
        assert classify(CF((7, 1, 14, 2)), P((1, 0, 3, 2)), 7).flags.perfect
        assert classify(CF((3, 1, 9, 1, 3, 3)), P((3, 0, 4, 5, 1, 2)), 3).flags.perfect
        assert not classify(CF((7, 2, 1, 3)), P.reversal(4), 2).flags.perfect

    def test_symmetric(self):
        cf = CF((4, 2, 1, 8, 1, 2))
        assert classify(cf, canonical_sigma(cf.digits, (1, 2, 4, 2, 1, 8))).flags.symmetric
        cf = CF((9, 3, 2, 8, 2))
        assert not classify(cf, canonical_sigma(cf.digits, (2, 3, 9, 2, 8))).flags.symmetric
        # most of these are no permutiple, so the flag's own test reads them
        rng = random.Random(9)
        for _ in range(50):
            ds = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
            assert classify_module._is_symmetric(CF(ds), P.reversal(len(ds)))

    def test_landess(self):
        cf = CF((2, 1, 5, 1, 2))
        sigma = canonical_sigma(cf.digits, (1, 2, 2, 1, 5))
        assert sigma.images == (1, 0, 4, 3, 2)
        assert classify(cf, sigma, 2).flags.landess
        assert continuant(cf.digits[:-1]) == 20 == 2 * 10
        assert continuant(cf.digits[1:-1]) == 7
        assert not classify(CF((11, 1, 10, 2, 3)), P((1, 4, 0, 2, 3)), 9).flags.landess
        assert classify(CF((7, 1, 3)), REVERSAL_3, 2).flags.landess

    def test_reverse_multiple(self):
        assert classify(CF((7, 1, 3)), REVERSAL_3, 2).flags.reverse_multiple
        assert classify(CF((7, 2, 1, 3)), P.reversal(4), 2).flags.reverse_multiple
        assert not classify(CF((7, 1, 14, 2)), P((1, 0, 3, 2)), 7).flags.reverse_multiple

    def test_against_definitions_exhaustive_small(self):
        # every string of 1..4 digits <= 4, canonical or not, and every sigma,
        # against nested evaluation and matrix continuants: a pair that is no
        # permutiple is refused, and a witness's k and value-level flags match
        # their definitions, which pins the mirror formula (reverse multiples)
        K = matrix_continuant
        for m in range(1, 5):
            for ds in itertools.product(range(1, 5), repeat=m):
                cf = CF(ds)
                value = nested_eval(ds)
                for images in itertools.permutations(range(m)):
                    sigma = P(images)
                    ps = tuple(ds[i] for i in images)
                    ratio = value / nested_eval(ps)
                    if ratio.denominator != 1 or ratio < 2:
                        with pytest.raises(NotAPermutipleError):
                            classify(cf, sigma, allow_noncanonical=True)
                        continue
                    k = ratio.numerator
                    w = classify(cf, sigma, allow_noncanonical=True)
                    assert w.k == k
                    preserving = K(ds) == K(ps)
                    assert w.flags.continuant_preserving == preserving
                    assert w.flags.landess == (
                        preserving and K(ds[:-1]) == k * K(ps[:-1]) and K(ds[1:-1]) == K(ps[1:-1])
                    )
                    reverse = value == k * nested_eval(ds[::-1])
                    assert w.flags.reverse_multiple == reverse


class TestClassify:
    def test_perfect_six_digit_example(self):
        w = classify(CF((3, 1, 9, 1, 3, 3)), P((3, 0, 4, 5, 1, 2)), 3)
        assert evaluate(w.cf) == Fraction(547, 140)
        assert evaluate(w.cf) == 3 * evaluate(w.permuted)
        assert w.flags.continuant_preserving
        assert w.flags.perfect
        assert w.flags.symmetric
        assert w.flags.landess
        assert not w.flags.reverse_multiple

    def test_symmetric_not_perfect_example(self):
        cf = CF((4, 2, 1, 8, 1, 2))
        w = classify(cf, canonical_sigma(cf.digits, (1, 2, 4, 2, 1, 8)), 3)
        assert w.flags.symmetric
        assert not w.flags.perfect
        assert not w.flags.reverse_multiple

    def test_not_landess_example(self):
        w = classify(CF((11, 1, 10, 2, 3)), P((1, 4, 0, 2, 3)), 9)
        assert not w.flags.landess
        assert not w.flags.symmetric
        assert w.flags.continuant_preserving

    def test_k_inferred(self):
        w = classify(CF((7, 1, 3)), REVERSAL_3)
        assert w.k == 2

    def test_k_inferred_from_one_walk_of_each_string(self, monkeypatch):
        walked = []
        tip = classify_module._tip

        def counting(digits):
            walked.append(digits)
            return tip(digits)

        monkeypatch.setattr(classify_module, "_tip", counting)
        w = classify(CF((11, 1, 10, 2, 3)), P((1, 4, 0, 2, 3)))
        assert w.k == 9 and w.flags.continuant_preserving
        assert walked == [(11, 1, 10, 2, 3), (1, 3, 11, 10, 2)]
        with pytest.raises(NotAPermutipleError, match="not an integer multiple"):
            classify(CF((7, 1, 3)), P((1, 0, 2)))

    def test_rejects_non_permutiple(self):
        with pytest.raises(NotAPermutipleError):
            classify(CF((7, 1, 3)), P((0, 1, 2)))
        for k in (3, 1):  # a wrong int k, 1 included, is a domain "no"
            with pytest.raises(NotAPermutipleError, match=f"is 2, not {k}"):
                classify(CF((7, 1, 3)), REVERSAL_3, k=k)

    def test_witness_is_checked_against_its_digits(self):
        w = classify(CF((7, 1, 3)), REVERSAL_3)
        with pytest.raises(NotAPermutipleError):  # 9;1,3 is not 2 * 3;1,9
            Witness(CF((9, 1, 3)), w.sigma, w.k)
        with pytest.raises(NotAPermutipleError, match="is 2, not 3"):
            Witness(w.cf, w.sigma, 3)
        assert Witness(w.cf, w.sigma, w.k) == w

    def test_rejects_noncanonical_base_by_default(self):
        with pytest.raises(ValueError, match="^base string 5;3,1 is not canonical$"):
            classify(CF((5, 3, 1)), REVERSAL_3, 4)
        with pytest.raises(ValueError, match="^base string 5;3,1 is not canonical$"):
            find_witnesses(CF((5, 3, 1)))
        w = classify(CF((5, 3, 1)), REVERSAL_3, 4, allow_noncanonical=True)
        assert w.k == 4
        assert not w.cf.is_canonical
        assert w.flags.reverse_multiple

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_text_too_long_to_print_names_the_string_length(self):
        w = perfect_reverse(2, (1,) * 2000)  # a 4000-digit string, its value about 1144 digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ValueError) as excinfo:
                w.text
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(excinfo.value) == "the 4000-digit string's value has too many digits to print"
        assert w.text[0].startswith("2;1,2,1")  # printable again under the old limit

    @pytest.mark.parametrize("k", [2.0, True, "2"])
    def test_refuses_a_k_that_is_not_an_int_before_any_walk(self, monkeypatch, k):
        # 7;1,3 is 2 * 3;1,7, so k = 2.0 would otherwise build a Witness that
        # exports "k":2.0; a bool or str k is refused the same way
        walked = []
        monkeypatch.setattr(classify_module, "_tip", lambda digits: walked.append(digits))
        message = f"^multiplier k must be an integer, not {k!r}$"
        with pytest.raises(ValueError, match=message) as raised:
            classify(CF((7, 1, 3)), REVERSAL_3, k)
        assert type(raised.value) is ValueError and walked == []

    def test_flag_lattice_enforced(self):
        with pytest.raises(ValueError):
            ClassificationFlags(False, True, True, True, False)
        with pytest.raises(ValueError):
            ClassificationFlags(True, True, False, True, False)
        with pytest.raises(ValueError):
            ClassificationFlags(False, False, False, True, False)
        with pytest.raises(ValueError, match="perfect requires landess"):
            ClassificationFlags(True, True, True, False, False)


class TestFindWitnesses:
    def test_single_reverse_witness(self):
        found = find_witnesses(CF((7, 1, 3)))
        assert len(found) == 1
        assert found[0].sigma == REVERSAL_3
        assert found[0].k == 2

    def test_equal_digits_give_nothing(self):
        assert find_witnesses(CF((5, 5))) == []

    def test_two_digit_swap(self):
        found = find_witnesses(CF((6, 2)))
        assert len(found) == 1
        assert found[0].sigma == P((1, 0))
        assert found[0].k == 3

    def test_matches_brute_oracle(self):
        rng = random.Random(15)
        cases = []
        for _ in range(80):
            ds = [rng.randint(1, 9) for _ in range(rng.randint(2, 4))]
            if len(ds) > 1 and ds[-1] == 1:
                ds[-1] = 2
            cases.append(tuple(ds))
        # non-canonical strings (all but the last have witnesses) and a0 = 1
        cases += [(5, 3, 1), (2, 1, 2, 1), (4, 1, 1, 1), (6, 3, 2, 1), (9, 1, 3, 1)]
        cases += [(1, 4, 2), (1, 3, 1, 2)]
        cases += [(4, 3, 6, 2, 4, 3, 6, 2)]  # 16 realizing image lists
        # partners ending in 1: one digit longer than their canonical expansion
        cases += [(5, 1, 4, 1, 2, 1, 2), (6, 1, 2, 1, 2, 1), (8, 1, 3, 1, 1, 1)]
        for ds in cases:
            oracle = brute_force_witnesses(ds)
            found = find_witnesses(CF(ds), allow_noncanonical=True)
            assert {w.permuted.digits: w.k for w in found} == oracle
            expanded = find_witnesses(CF(ds), allow_noncanonical=True, all_sigmas=True)
            realizing = [
                (permuted, images, oracle[permuted])
                for images in itertools.permutations(range(len(ds)))
                if (permuted := tuple(ds[i] for i in images)) in oracle
            ]
            assert [(w.permuted.digits, w.sigma.images, w.k) for w in expanded] == sorted(
                realizing
            )

    def test_dedupe_picks_smallest_sigma(self):
        found = find_witnesses(CF((6, 2, 6, 2)))
        assert [(w.permuted.digits, w.k) for w in found] == [((2, 6, 2, 6), 3)]
        assert found[0].sigma == P((1, 0, 3, 2))  # not the reversal, but realizes it
        assert found[0].flags.reverse_multiple

    def test_all_sigmas_expansion(self):
        found = find_witnesses(CF((6, 2, 6, 2)), all_sigmas=True)
        images = {w.sigma.images for w in found}
        assert images == {(1, 0, 3, 2), (1, 2, 3, 0), (3, 0, 1, 2), (3, 2, 1, 0)}
        assert all(w.permuted.digits == (2, 6, 2, 6) and w.k == 3 for w in found)

    def test_first_digit_law(self):
        rng = random.Random(21)
        for _ in range(60):
            ds = [rng.randint(1, 9) for _ in range(rng.randint(2, 4))]
            if ds[-1] == 1:
                ds[-1] = 2
            for w in find_witnesses(CF(tuple(ds))):
                assert w.cf.digits[0] > w.permuted.digits[0]

    def test_refuses_strings_over_the_k_candidate_limit(self, monkeypatch):
        # (10; 1, 2) has value 32/3 and partners led by 1 or 2, so
        # k runs over ceil(32/9) = 4 .. 32//3 = 10: seven candidates
        monkeypatch.setattr(classify_module, "MAX_K_CANDIDATES", 7)
        assert find_witnesses(CF((10, 1, 2))) == []
        monkeypatch.setattr(classify_module, "MAX_K_CANDIDATES", 6)
        with pytest.raises(ValueError, match="7 multipliers"):
            find_witnesses(CF((10, 1, 2)))

    def test_refuses_strings_over_sys_maxsize_k_candidates(self):
        # a range that long has no len(); the count is stop - start
        message = "^100000000000000000000;1,2 needs 66666666666666666667 multipliers tried"
        with pytest.raises(ValueError, match=message):
            find_witnesses(CF((10**20, 1, 2)))

    def test_all_sigmas_refuses_strings_over_the_list_limit(self, monkeypatch):
        # one hit, and 2!^4 image lists realize it
        cf = CF((4, 3, 6, 2, 4, 3, 6, 2))
        monkeypatch.setattr(classify_module, "MAX_SIGMA_LISTS", 16)
        assert len(find_witnesses(cf, all_sigmas=True)) == 16
        monkeypatch.setattr(classify_module, "MAX_SIGMA_LISTS", 15)
        with pytest.raises(ValueError, match="16 realizing image lists"):
            find_witnesses(cf, all_sigmas=True)
        assert len(find_witnesses(cf)) == 1  # one witness per permuted string: no walk

    def test_refuses_a_one_beside_a_huge_leading_digit(self):
        # about two thirds of 10**7 multipliers, refused before any is tried
        with pytest.raises(ValueError, match="over the limit"):
            find_witnesses(CF((10**7, 1, 2)))

    def test_long_strings_are_not_refused(self):
        # 11 digits were over the old 10-digit cap; only k = 2..7 are tried now
        assert find_witnesses(CF((7,) + (1,) * 9 + (3,))) == []

    def test_finds_a_100_digit_perfect_reverse_witness(self):
        w = perfect_reverse(2, tuple(range(2, 52)))
        assert len(w.cf) == 100
        found = find_witnesses(w.cf)
        assert (w.permuted.digits, w.k) in {(x.permuted.digits, x.k) for x in found}

    def test_ten_digit_results_are_unchanged(self):
        # as the walk over all 10! orderings found them
        assert find_witnesses(CF((9, 8, 7, 6, 5, 4, 3, 2, 2, 2))) == []
        digits = (6, 1, 4, 1, 4, 2, 2, 2, 2, 3)
        found = find_witnesses(CF(digits))
        assert [(w.permuted.digits, w.k) for w in found] == [((3, 2, 2, 2, 2, 4, 1, 4, 1, 6), 2)]
        expanded = find_witnesses(CF(digits), all_sigmas=True)
        assert len(expanded) == 96
        assert [w.sigma.images for w in expanded[:2]] == [
            (9, 5, 6, 7, 8, 2, 1, 4, 3, 0),
            (9, 5, 6, 7, 8, 2, 3, 4, 1, 0),
        ]

    def test_no_witness_is_palindromic_under_sigma(self):
        rng = random.Random(27)
        for _ in range(60):
            ds = [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
            if ds[-1] == 1:
                ds[-1] = 2
            for w in find_witnesses(CF(tuple(ds)), all_sigmas=True):
                assert w.permuted.digits != w.cf.digits


class TestTailRatioCharacterization:
    def test_perfect_iff_alternating_tail_ratios(self):
        # perfectness is equivalent to k = g0/g0' = g1'/g1 = g2/g2' = ...
        from permutiple import SearchConfig, exhaustive_search, tails

        witnesses = list(exhaustive_search(SearchConfig(length=(2, 4), max_digit=8)))
        witnesses += list(exhaustive_search(SearchConfig(length=6, max_digit=4)))
        assert any(w.flags.perfect for w in witnesses)
        assert any(not w.flags.perfect for w in witnesses)
        for w in witnesses:
            base, permuted = tails(w.cf), tails(w.permuted)
            pattern = True
            for j, (g, gp) in enumerate(zip(base, permuted)):
                expected = (g == w.k * gp) if j % 2 == 0 else (gp == w.k * g)
                if not expected:
                    pattern = False
                    break
            assert pattern == w.flags.perfect, w.cf


class TestCanonicalSigma:
    def test_greedy_is_lexicographically_smallest(self):
        assert canonical_sigma((6, 2, 6, 2), (2, 6, 2, 6)).images == (1, 0, 3, 2)
        assert canonical_sigma((7, 1, 3), (3, 1, 7)).images == (2, 1, 0)

    def test_rejects_non_rearrangement(self):
        with pytest.raises(ValueError):
            canonical_sigma((7, 1, 3), (3, 3, 7))
        with pytest.raises(ValueError, match="not a rearrangement"):
            canonical_sigma((7, 1, 3), (3, 1))

    def test_long_repeated_digits_take_linear_memory(self):
        # 1000 twos and 1000 ones: the first image list is built without
        # materializing every later code's choices (about m*m/4 of them)
        base, permuted = (2, 1) * 1000, (1, 2) * 1000
        tracemalloc.start()
        try:
            sigma = canonical_sigma(base, permuted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sigma.images[:4] == (1, 0, 3, 2)
        assert peak < 1 << 20
