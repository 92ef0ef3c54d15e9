import hashlib
import io
import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from conftest import brute_force_witnesses, nested_eval

from permutiple import (
    ContinuedFraction,
    PerfectParameters,
    Permutation,
    concat_witness,
    constructors,
    enumerate_three_digit_reverse,
    evaluate,
    export,
    palindromic_concat,
    perfect_cyclic,
    perfect_from_parameters,
    perfect_reverse,
    three_digit_reverse,
    two_digit,
    validate_perfect_permutation,
)
from permutiple.constructors import MAX_LEADING_DIGITS

CF = ContinuedFraction
P = Permutation


class TestTwoDigit:
    def test_examples(self):
        w = two_digit(3, 2)
        assert w.cf == CF((6, 2))
        assert evaluate(w.cf) == Fraction(13, 2)
        assert evaluate(w.permuted) == Fraction(13, 6)
        w = two_digit(2, 2)
        assert w.cf == CF((4, 2))
        assert evaluate(w.cf) == Fraction(9, 2) == 2 * evaluate(w.permuted)

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            two_digit(2, 1)
        with pytest.raises(ValueError):
            two_digit(1, 2)

    def test_advertised_flags(self):
        for k, s in itertools.product(range(2, 6), range(2, 6)):
            flags = two_digit(k, s).flags
            assert flags.perfect and flags.reverse_multiple and flags.landess


class TestThreeDigitReverse:
    def test_reproduces_first_reverse_example(self):
        w = three_digit_reverse(2, 7)
        assert w.cf == CF((7, 1, 3))
        assert w.k == 2

    def test_noncanonical_output_flagged(self):
        w = three_digit_reverse(4, 5)
        assert w.cf == CF((5, 3, 1))
        assert not w.cf.is_canonical
        assert w.k == 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            three_digit_reverse(2, 4)  # gcd(4, 2) = 2
        with pytest.raises(ValueError):
            three_digit_reverse(3, 3)  # a0 must exceed k
        with pytest.raises(ValueError):
            three_digit_reverse(1, 5)

    def test_no_solution_returns_none(self):
        # a1 * (a0 - k*a2) = k - 1 needs t = 8 mod 5 = 3 to divide k - 1 = 4
        assert three_digit_reverse(5, 8) is None

    def test_documented_method_discrepancy(self):
        # leading digit 5 gives a canonical 2-reverse multiple, not [5;3,1];
        # [5;3,1] belongs to k = 4 (see test_noncanonical_output_flagged)
        w = three_digit_reverse(2, 5)
        assert w.cf == CF((5, 1, 2))
        assert evaluate(w.cf) == Fraction(17, 3) == 2 * Fraction(17, 6)

    def test_enumeration_examples(self):
        leading = [w.cf.digits[0] for w in enumerate_three_digit_reverse(2, 10)]
        assert leading == [3, 5, 7, 9]
        assert CF((7, 1, 3)) in [w.cf for w in enumerate_three_digit_reverse(2, 7)]
        assert enumerate_three_digit_reverse(3, 3) == []

    def test_enumeration_range_is_bounded(self, monkeypatch):
        with pytest.raises(ValueError, match="leading digits to try"):
            enumerate_three_digit_reverse(2, 2 + MAX_LEADING_DIGITS + 1)
        with pytest.raises(ValueError, match="leading digits to try"):
            enumerate_three_digit_reverse(7, 10**9)
        # the bound is on a0_max - k, the leading digits tried: at the limit
        # the range runs, one past it is refused
        monkeypatch.setattr(constructors, "MAX_LEADING_DIGITS", 8)
        assert [w.cf.digits[0] for w in enumerate_three_digit_reverse(2, 10)] == [3, 5, 7, 9]
        with pytest.raises(ValueError):
            enumerate_three_digit_reverse(2, 11)

    def test_direct_solve_agrees_with_the_listing(self):
        # the listing never calls three_digit_reverse on a lead it skips, so
        # the direct solve must find nothing there and the listed witness
        # everywhere else
        listed = solved = 0
        for k in range(2, 41):
            listing = enumerate_three_digit_reverse(k, 300)
            by_lead = {w.cf.digits[0]: w for w in listing}
            assert [w.cf.digits[0] for w in listing] == sorted(by_lead)  # one per lead, ascending
            for a0 in range(k + 1, 301):
                if gcd(a0, k) != 1:
                    assert a0 not in by_lead
                    continue
                witness = three_digit_reverse(k, a0)
                assert witness == by_lead.get(a0), (k, a0)
                solved += witness is not None
            listed += len(by_lead)
        assert listed == solved > 0

    def test_outputs_satisfy_derived_bounds(self):
        for k in range(2, 6):
            for w in enumerate_three_digit_reverse(k, 40):
                a0, a1, a2 = w.cf.digits
                q = (a0 * a1 + 1) // k
                assert a0 * a1 + 1 == k * (a1 * a2 + 1)
                assert a1 <= k - 1
                assert a0 > k * a2
                assert a2 < q
                assert a0 + a2 == w.permuted.digits[0] + w.permuted.digits[2]

    def test_matches_exhaustive_oracle(self):
        # every 3-digit permutiple is a reverse multiple, so the clean
        # outputs must equal a brute-force scan over all canonical tuples
        bound, k_max = 15, 5
        from_method = set()
        for k in range(2, k_max + 1):
            for w in enumerate_three_digit_reverse(k, bound):
                if w.cf.is_canonical and max(w.cf.digits) <= bound:
                    from_method.add((w.cf.digits, w.k))
        from_oracle = set()
        for ds in itertools.product(range(1, bound + 1), repeat=3):
            if ds[-1] == 1:
                continue
            for permuted, k in brute_force_witnesses(ds, k_max=k_max).items():
                assert permuted == ds[::-1]
                from_oracle.add((ds, k))
        assert from_method == from_oracle


def _four_condition_rule(sigma: Permutation) -> bool:
    """The validator's earlier statement, kept as the oracle: a derangement
    of even order on an even number of symbols, every cycle parity-balanced,
    and a zero alternating-sign sum over each position's orbit of
    sigma's order steps."""
    order = lcm(*(len(cycle) for cycle in sigma.cycles))
    derangement = all(sigma.images[j] != j for j in range(len(sigma)))
    if len(sigma) % 2 or not derangement or order % 2:
        return False
    for cycle in sigma.cycles:
        if 2 * sum(1 for j in cycle if j % 2 == 0) != len(cycle):
            return False
    for j in range(len(sigma)):
        total, t = 0, j
        for _ in range(order):
            total += 1 if t % 2 == 0 else -1
            t = sigma.images[t]
        if total:
            return False
    return True


class TestValidatePerfectPermutation:
    def test_examples(self):
        assert validate_perfect_permutation(P((1, 0, 3, 2)))
        assert not validate_perfect_permutation(P((0, 1, 2, 3)))
        assert not validate_perfect_permutation(P.reversal(3))

    def test_parity_unbalanced_cycles_rejected(self):
        # (0 2)(1 3): each cycle sits in one parity class
        assert not validate_perfect_permutation(P((2, 3, 0, 1)))

    def test_mixed_cycle_sizes_allowed(self):
        # (0 3)(1 2 4 5): both cycles hold equally many even and odd positions
        assert validate_perfect_permutation(P((3, 2, 4, 0, 5, 1)))

    def test_reversal_on_even_count_accepted(self):
        assert validate_perfect_permutation(P.reversal(6))

    def test_matches_four_condition_rule_on_every_small_permutation(self):
        checked = accepted = 0
        for size in range(9):  # 46 234 permutations, the empty one included
            for images in itertools.permutations(range(size)):
                sigma = P(images)
                expected = _four_condition_rule(sigma)
                assert validate_perfect_permutation(sigma) == expected, images
                checked += 1
                accepted += expected
        assert checked == 46234
        assert accepted > 0


class TestPerfectFromParameters:
    def test_two_cycles_example(self):
        params = PerfectParameters(P((1, 0, 3, 2)), 7, (1, 2))
        w = perfect_from_parameters(params)
        assert w.cf == CF((7, 1, 14, 2))
        assert w.permuted == CF((1, 7, 2, 14))
        assert evaluate(w.cf) == 7 * evaluate(w.permuted)
        assert w.flags.perfect

    def test_degenerates_to_two_digit_family(self):
        w = perfect_from_parameters(PerfectParameters(P((1, 0)), 3, (2,)))
        assert w.cf == CF((6, 2))

    def test_six_cycle_example(self):
        params = PerfectParameters(P((3, 0, 4, 5, 1, 2)), 3, (1,))
        w = perfect_from_parameters(params)
        assert w.cf == CF((3, 1, 9, 1, 3, 3))
        assert w.permuted == CF((1, 3, 3, 3, 1, 9))

    def test_mixed_cycle_sizes(self):
        sigma = P((3, 2, 4, 0, 5, 1))
        w = perfect_from_parameters(PerfectParameters(sigma, 2, (1, 1)))
        assert w.flags.perfect
        assert evaluate(w.cf) == 2 * evaluate(w.permuted)

    def test_parameter_scaling_is_per_cycle(self):
        sigma = P((1, 0, 3, 2))
        base = perfect_from_parameters(PerfectParameters(sigma, 5, (1, 2))).cf.digits
        bumped = perfect_from_parameters(PerfectParameters(sigma, 5, (1, 4))).cf.digits
        assert bumped[0] == base[0] and bumped[1] == base[1]
        assert bumped[2] == 2 * base[2] and bumped[3] == 2 * base[3]

    def test_validation(self):
        with pytest.raises(ValueError):
            PerfectParameters(P((0, 1, 2, 3)), 2, (1, 1, 1, 1))
        with pytest.raises(ValueError):
            PerfectParameters(P((1, 0, 3, 2)), 2, (1,))  # one parameter per cycle
        with pytest.raises(ValueError):
            PerfectParameters(P((1, 0, 3, 2)), 2, (1, 0))
        with pytest.raises(ValueError):
            PerfectParameters(P((1, 0, 3, 2)), 1, (1, 1))


class TestPerfectReverse:
    def test_four_digit_example(self):
        w = perfect_reverse(2, (3, 1))
        assert w.cf == CF((6, 1, 2, 3))
        assert evaluate(w.cf) == Fraction(67, 10)
        assert evaluate(w.permuted) == Fraction(67, 20)
        assert w.flags.perfect and w.flags.reverse_multiple

    def test_noncanonical_flagged(self):
        w = perfect_reverse(7, (1, 1))
        assert w.cf == CF((7, 1, 7, 1))
        assert not w.cf.is_canonical

    def test_single_parameter_base_case(self):
        assert perfect_reverse(2, (2,)).cf == CF((4, 2))

    def test_longer_mirror(self):
        w = perfect_reverse(3, (2, 5, 4))
        assert w.cf == CF((6, 5, 12, 4, 15, 2))
        assert w.flags.perfect and w.flags.reverse_multiple and w.flags.landess

    def test_empty_half_is_refused(self):
        with pytest.raises(ValueError, match="at least one parameter"):
            perfect_reverse(2, ())


class TestPerfectCyclic:
    def test_six_digit_form(self):
        w = perfect_cyclic(3, 6, 3, (2, 3, 4))
        assert w.cf == CF((6, 3, 12, 2, 9, 4))  # [k*s0; s1, k*s2, s0, k*s1, s2]

    def test_value_example(self):
        w = perfect_cyclic(2, 6, 3, (1, 1, 2))
        assert w.cf == CF((2, 1, 4, 1, 2, 2))
        assert evaluate(w.cf) == Fraction(113, 40)
        assert w.permuted == CF((1, 2, 2, 2, 1, 4))
        assert evaluate(w.permuted) == Fraction(113, 80)

    def test_even_shift_rejected(self):
        with pytest.raises(ValueError):
            perfect_cyclic(2, 4, 2, (1, 1))

    def test_other_validation(self):
        with pytest.raises(ValueError):
            perfect_cyclic(2, 5, 3, (1,))  # odd length
        with pytest.raises(ValueError):
            perfect_cyclic(2, 6, 3, (1, 1))  # needs gcd(3, 6) = 3 parameters
        with pytest.raises(ValueError):
            perfect_cyclic(2, 6, 7, (1,))  # shift out of range

    def test_full_rotation_orbit(self):
        w = perfect_cyclic(2, 6, 1, (3,))
        assert w.cf == CF((6, 3, 6, 3, 6, 3))
        assert w.flags.perfect


@pytest.mark.parametrize("k", [2.5, 2.0, True, "3", 1])
@pytest.mark.parametrize(
    "build",
    [
        lambda k: three_digit_reverse(k, 7),
        lambda k: enumerate_three_digit_reverse(k, 10),
        lambda k: PerfectParameters(P((1, 0)), k, (2,)),
    ],
    ids=["three_digit_reverse", "enumerate_three_digit_reverse", "PerfectParameters"],
)
def test_constructors_refuse_a_multiplier_that_is_not_an_int_above_1(build, k):
    # one rule: a float, bool or str k is refused by the check that refuses
    # k = 1; the perfect families all reach it through PerfectParameters
    rule = ">= 2" if type(k) is int else "an integer"
    with pytest.raises(ValueError, match=f"^multiplier k must be {rule}, not {k!r}$"):
        build(k)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: three_digit_reverse(2, 7.0), "^leading digit must be an integer, not 7.0$"),
        (lambda: three_digit_reverse(2, True), "^leading digit must be an integer, not True$"),
        (lambda: enumerate_three_digit_reverse(2, 10.5), "^a0_max must be an integer, not 10.5$"),
        (lambda: perfect_cyclic(2, 6.0, 3, (1, 1, 2)), "^length must be an even integer >= 2, not 6.0$"),
        (lambda: perfect_cyclic(2, 6, 3.0, (1, 1, 2)), "^shift ell must be an integer, not 3.0$"),
        (lambda: PerfectParameters(P((1, 0)), 2, (1.5,)), "^cycle parameter 0 must be an integer, not 1.5$"),
        (lambda: PerfectParameters(P((1, 0)), 2, (2.0,)), "^cycle parameter 0 must be an integer, not 2.0$"),
        (lambda: perfect_reverse(2, (True, 3)), "^cycle parameter 0 must be an integer, not True$"),  # once built as 2;3,6,1
        (lambda: two_digit(2, 2.0), "^parameter s must be an integer, not 2.0$"),
    ],
    ids=[
        "three_digit_reverse-float",
        "three_digit_reverse-bool",
        "enumerate_three_digit_reverse",
        "perfect_cyclic-length",
        "perfect_cyclic-ell",
        "PerfectParameters-fraction",
        "PerfectParameters-float",
        "perfect_reverse-bool",
        "two_digit",
    ],
)
def test_constructors_refuse_other_arguments_that_are_not_ints(build, message):
    # a float or bool here was a TypeError deep in range() or divmod(), or
    # built a witness whose digits are not ints
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: three_digit_reverse(5, 4), "^leading digit must exceed k=5, not 4$"),
        (lambda: perfect_cyclic(2, 5, 1, (1,)), "^length must be an even integer >= 2, not 5$"),
        (lambda: perfect_cyclic(2, 0, 1, (1,)), "^length must be an even integer >= 2, not 0$"),
        (lambda: perfect_cyclic(2, 6, 0, (1, 1, 2)), "^shift ell must satisfy 0 < ell < 6, not 0$"),
        (lambda: perfect_cyclic(2, 6, 7, (1,)), "^shift ell must satisfy 0 < ell < 6, not 7$"),
        # refused before a rotation of 10**11 positions is built
        (lambda: perfect_cyclic(2, 10**11, 1, (1,)), "^length 100000000000 is over 100000 digits$"),
    ],
    ids=["three_digit_reverse", "perfect_cyclic-odd-length", "perfect_cyclic-zero-length",
         "perfect_cyclic-ell-low", "perfect_cyclic-ell-high", "perfect_cyclic-long-length"],
)
def test_range_refusals_name_the_value_they_refuse(build, message):
    # as every integer-argument refusal does
    with pytest.raises(ValueError, match=message):
        build()


class TestConstructorWitnessesAgreeWithClassifier:
    def test_all_families_verify_by_evaluation(self):
        witnesses = [
            two_digit(4, 3),
            three_digit_reverse(3, 7),
            perfect_from_parameters(PerfectParameters(P((1, 0, 3, 2)), 2, (3, 1))),
            perfect_reverse(2, (2, 3)),
            perfect_cyclic(2, 6, 5, (2,)),
        ]
        for w in witnesses:
            assert w is not None
            assert evaluate(w.cf) == w.k * evaluate(w.permuted)
            assert nested_eval(w.cf.digits) == w.k * nested_eval(w.permuted.digits)

    def test_perfect_families_carry_perfect_family_flags(self):
        for w in [
            perfect_from_parameters(PerfectParameters(P((1, 0, 3, 2)), 2, (3, 1))),
            perfect_reverse(2, (2, 3)),
            perfect_cyclic(2, 6, 5, (2,)),
        ]:
            assert w.flags.perfect
            assert w.flags.landess
            assert w.flags.continuant_preserving


def _constructor_grid():
    """A fixed grid over every perfect family builder."""
    for k, s in itertools.product(range(2, 7), repeat=2):
        yield two_digit(k, s)
    for k in range(2, 5):
        for m in range(1, 4):
            for half in itertools.product(range(1, 4), repeat=m):
                yield perfect_reverse(k, half)
    for k in (2, 3):
        for length in range(2, 13, 2):
            for ell in range(1, length, 2):
                g = gcd(ell, length)
                yield perfect_cyclic(k, length, ell, tuple(1 + (j * j + ell) % 4 for j in range(g)))
    for k in (2, 3):
        for size in (2, 4, 6):
            for images in itertools.permutations(range(size)):
                sigma = P(images)
                if validate_perfect_permutation(sigma):
                    params = tuple(range(1, len(sigma.cycles) + 1))
                    yield perfect_from_parameters(PerfectParameters(sigma, k, params))


class TestConstructorGridIsPinned:
    def test_jsonl_digest(self):
        # recorded from the family builders that each built and classified
        # their own digits; one shared builder must give the same bytes
        out = io.StringIO()
        assert export(_constructor_grid(), "jsonl", out) == 562
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == "ec98c50ac52ffcae1f34e2fcb1c2e01b2cd18a298b039906f8a0b064583f4994"


def _block_sigma(size):
    """A perfect-capable sigma on ``size`` (even) symbols: consecutive blocks of 2, 4, 6
    and 8 positions in turn, the last block taking what is left, each one
    cycle through its even positions upward and its odd ones downward, so
    every cycle is balanced."""
    images = [0] * size
    start, sizes = 0, itertools.cycle((2, 4, 6, 8))
    while start < size:
        block = range(start, min(size, start + next(sizes)))
        cycle = list(block[::2]) + list(block[1::2])[::-1]
        for j, position in enumerate(cycle):
            images[position] = cycle[(j + 1) % len(cycle)]
        start = block.stop
    return P(tuple(images))


def _long_batch():
    """Constructed witnesses of 100 and 200 digits, a concatenation chain
    and a palindromic concatenation."""
    for size, k, ell in ((100, 3, 15), (200, 2, 75)):
        yield perfect_reverse(k, tuple(1 + (j * j) % 9 for j in range(size // 2)))
        orbits = gcd(ell, size)
        yield perfect_cyclic(k, size, ell, tuple(1 + (3 * j) % 7 for j in range(orbits)))
        sigma = _block_sigma(size)
        params = tuple(1 + j % 3 for j in range(len(sigma.cycles)))
        yield perfect_from_parameters(PerfectParameters(sigma, k + 1, params))
    pieces = [perfect_reverse(2, tuple(range(1 + j, 9 + 2 * j))) for j in range(4)]
    chain = pieces[-1]
    for piece in reversed(pieces[:-1]):
        chain = concat_witness(piece, chain)
    yield chain
    yield palindromic_concat(pieces[:3] + pieces[:2][::-1], 2)


class TestLongConstructedWitnessesArePinned:
    # recorded from the builders that walked each cycle four times, checked
    # digits one by one and built a new reversal per call
    @pytest.mark.parametrize(
        "fmt, sha256",
        [
            ("jsonl", "f4f6f3941a9d4f0905d9cbdb12a737a65da8ed8b591a20e5864ece9b8ae9860b"),
            ("csv", "3bb5a516a7f02e27029a9f84df83ea0fe944e86e55a27825fe627adfcab492a8"),
        ],
    )
    def test_export_digest(self, fmt, sha256):
        out = io.StringIO()
        assert export(_long_batch(), fmt, out) == 8
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == sha256

    def test_batch_lengths_and_families(self):
        batch = list(_long_batch())
        assert [len(w.cf) for w in batch] == [100, 100, 100, 200, 200, 200, 76, 88]
        assert all(w.flags.perfect for w in batch)
        assert [w.flags.reverse_multiple for w in batch[-2:]] == [False, True]
