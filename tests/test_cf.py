import enum
import itertools
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from conftest import gauss_step, matrix_continuant, nested_eval

from permutiple import (
    BracketViews,
    ClassificationFlags,
    ConjectureReport,
    ContinuedFraction,
    Permutation,
    SearchConfig,
    Witness,
    canonicalize,
    continuant,
    convergents,
    evaluate,
    format_cf,
    format_rational,
    from_rational,
    parse_rational,
    tails,
)
from permutiple.cf import _check_int, _printable, _Record
from permutiple.constructors import PerfectParameters
from permutiple.surd import QuadraticSurd, SurdProbeReport

CF = ContinuedFraction


def random_digits(rng, max_len=8, max_digit=30, canonical=False):
    n = rng.randint(1, max_len)
    ds = [rng.randint(1, max_digit) for _ in range(n)]
    if canonical and n > 1 and ds[-1] == 1:
        ds[-1] = rng.randint(2, max_digit)
    return tuple(ds)


class TestContinuedFractionType:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CF(())

    def test_rejects_nonpositive_digits(self):
        with pytest.raises(ValueError):
            CF((3, 0, 2))
        with pytest.raises(ValueError):
            CF((-1,))
        with pytest.raises(ValueError):
            CF((True, 2))

    @pytest.mark.parametrize(
        "digits, message",
        [
            ((True,), "invalid digit True: digits are integers >= 1"),
            ((2.0,), "invalid digit 2.0: digits are integers >= 1"),
            ((0,), "invalid digit 0: digits are integers >= 1"),
            ((-1,), "invalid digit -1: digits are integers >= 1"),
            ((), "a continued fraction needs at least one digit"),
            ((3, 2.0, 0, True), "invalid digit 2.0: digits are integers >= 1"),
            ((3, 1, 0, 2.0), "invalid digit 0: digits are integers >= 1"),
            ((3, False, 2.0), "invalid digit False: digits are integers >= 1"),
            ((5, 2, -4, 0), "invalid digit -4: digits are integers >= 1"),
        ],
    )
    def test_refusal_names_the_first_bad_digit(self, digits, message):
        with pytest.raises(ValueError) as raised:
            CF(digits)
        assert str(raised.value) == message

    def test_int_subclass_digits_are_accepted(self):
        class Digit(enum.IntEnum):
            ONE = 1
            SEVEN = 7

        cf = CF((Digit.SEVEN, 1, Digit.ONE, 3))
        assert cf.digits == (7, 1, 1, 3)
        assert evaluate(cf) == evaluate(CF((7, 1, 1, 3)))
        with pytest.raises(ValueError, match="invalid digit 0"):
            CF((Digit.SEVEN, 0))

    def test_canonical_flag(self):
        assert CF((7, 1, 3)).is_canonical
        assert not CF((5, 3, 1)).is_canonical
        assert CF((1,)).is_canonical
        assert CF((2,)).is_canonical

    def test_parse_and_format(self):
        assert CF.parse("7;1,3") == CF((7, 1, 3))
        assert CF.parse(" 7 ; 1 , 3 ") == CF((7, 1, 3))
        assert CF.parse("2") == CF((2,))
        assert format_cf(CF((7, 1, 3))) == "7;1,3"
        assert format_cf(CF((2,))) == "2"
        assert str(CF((11, 1, 10, 2, 3))) == "11;1,10,2,3"

    def test_parse_refuses_an_empty_digit(self):
        # a ";" or "," must be followed by a digit, at the end as anywhere
        for text in ("1;", "1 ; ", "3;2,", ";", "3;,2", ""):
            with pytest.raises(ValueError):
                CF.parse(text)

    def test_parse_format_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            ds = random_digits(rng)
            assert CF.parse(format_cf(CF(ds))).digits == ds

    def test_rational_text(self):
        assert parse_rational("31/4") == Fraction(31, 4)
        assert parse_rational("2") == Fraction(2)
        for text in ("1/0", "0/0"):
            with pytest.raises(ValueError):
                parse_rational(text)
        assert format_rational(Fraction(31, 4)) == "31/4"
        assert format_rational(Fraction(2)) == "2/1"


class TestCheckInt:
    @pytest.mark.parametrize("value", [2.5, True, "2", None])
    def test_refuses_what_is_not_an_int(self, value):
        for low in (None, 0):
            with pytest.raises(ValueError) as raised:
                _check_int(value, "count", low)
            assert str(raised.value) == f"count must be an integer, not {value!r}"

    def test_refuses_a_value_below_low_and_accepts_low(self):
        with pytest.raises(ValueError) as raised:
            _check_int(1, "multiplier k", 2)
        assert str(raised.value) == "multiplier k must be >= 2, not 1"
        assert _check_int(2, "multiplier k", 2) is None
        assert _check_int(-5, "a") is None  # no low: any int


class TestPrintable:
    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize("limit", [640, 641, 1000, 4300])
    def test_agrees_with_str_at_each_boundary(self, limit):
        def prints(value):
            try:
                str(value)
            except ValueError:
                return False
            return True

        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for edge in (2**1920, 8**limit, 10**limit):
                for value in (edge - 1, edge, edge + 1, 3 * edge):
                    assert _printable(value) == prints(value), (limit, value)
            assert not _printable(10**limit) and _printable(10**limit - 1)
        finally:
            sys.set_int_max_str_digits(old)

    def test_no_limit_prints_everything(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        assert _printable(10**10000)


class TestEvaluate:
    def test_examples(self):
        assert evaluate(CF((7, 1, 3))) == Fraction(31, 4)
        assert evaluate(CF((2,))) == Fraction(2, 1)
        assert evaluate(CF((3, 1, 7))) == Fraction(31, 8)
        assert evaluate(CF((7, 1, 3))) == 2 * evaluate(CF((3, 1, 7)))

    def test_matches_nested_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            ds = random_digits(rng)
            assert evaluate(CF(ds)) == nested_eval(ds)

    def test_noncanonical_evaluated_as_written(self):
        assert evaluate(CF((5, 3, 1))) == nested_eval((5, 3, 1)) == Fraction(21, 4)


class TestContinuant:
    def test_examples(self):
        assert continuant(()) == 1
        assert continuant((7, 1, 3)) == 31
        assert continuant((3, 1, 7)) == 31

    def test_matches_matrix_oracle(self):
        rng = random.Random(13)
        for _ in range(300):
            ds = random_digits(rng)
            assert continuant(ds) == matrix_continuant(ds)

    def test_reversal_invariance_exhaustive(self):
        for n in range(1, 5):
            for ds in itertools.product(range(1, 7), repeat=n):
                assert continuant(ds) == continuant(ds[::-1])


class TestConvergents:
    def test_examples(self):
        assert convergents(CF((7, 1, 3))) == ((7, 1), (8, 1), (31, 4))
        assert convergents(CF((2,))) == ((2, 1),)
        assert convergents(CF((2, 1, 5, 1, 2)))[-1] == (57, 20)

    def test_last_pair_is_value(self):
        rng = random.Random(17)
        for _ in range(100):
            ds = random_digits(rng)
            p, q = convergents(CF(ds))[-1]
            assert Fraction(p, q) == nested_eval(ds)

    def test_agree_with_continuants_and_are_reduced(self):
        rng = random.Random(19)
        for _ in range(100):
            ds = random_digits(rng)
            pairs = convergents(CF(ds))
            for j, (p, q) in enumerate(pairs):
                assert p == continuant(ds[: j + 1])
                assert q == continuant(ds[1 : j + 1])
                assert gcd(p, q) == 1


class TestGaussStep:
    def test_examples(self):
        assert gauss_step(Fraction(0)) == 0
        assert gauss_step(Fraction(3, 4)) == Fraction(1, 3)
        assert gauss_step(Fraction(1, 2)) == 0

    @pytest.mark.parametrize("bad", [Fraction(1), Fraction(3, 2), Fraction(-1, 2)])
    def test_rejects_outside_unit_interval(self, bad):
        with pytest.raises(ValueError):
            gauss_step(bad)


class TestTails:
    def test_examples(self):
        assert tails(CF((7, 1, 3))) == (Fraction(3, 4), Fraction(1, 3))
        assert tails(CF((2,))) == ()
        assert tails(CF((3, 1, 7))) == (Fraction(7, 8), Fraction(1, 7))

    def test_gauss_orbit_on_canonical_strings(self):
        rng = random.Random(23)
        for _ in range(100):
            ds = random_digits(rng, canonical=True)
            cf = CF(ds)
            seq = tails(cf)
            if not seq:
                continue
            g = evaluate(cf) - ds[0]
            for got in seq:
                assert got == g
                g = gauss_step(g)

    def test_digit_recovery_on_canonical_strings(self):
        rng = random.Random(29)
        for _ in range(100):
            ds = random_digits(rng, canonical=True)
            seq = tails(CF(ds))
            for j, g in enumerate(seq):
                assert ds[j + 1] == (1 / g).numerator // (1 / g).denominator

    def test_product_is_reciprocal_denominator(self):
        rng = random.Random(31)
        for _ in range(150):
            ds = random_digits(rng)  # holds for non-canonical strings too
            if len(ds) == 1:
                continue
            product = Fraction(1)
            for g in tails(CF(ds)):
                product *= g
            assert product == Fraction(1, convergents(CF(ds))[-1][1])

    def test_suffix_values(self):
        rng = random.Random(37)
        for _ in range(100):
            ds = random_digits(rng)
            seq = tails(CF(ds))
            for j, g in enumerate(seq):
                assert g == 1 / nested_eval(ds[j + 1 :])


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize(CF((5, 3, 1))) == CF((5, 4))
        assert canonicalize(CF((7, 1, 3))) == CF((7, 1, 3))
        assert canonicalize(CF((1,))) == CF((1,))

    def test_idempotent_and_value_preserving(self):
        rng = random.Random(41)
        for _ in range(200):
            ds = random_digits(rng)
            cf = CF(ds)
            folded = canonicalize(cf)
            assert folded.is_canonical
            assert evaluate(folded) == evaluate(cf)
            assert canonicalize(folded) == folded


class TestFromRational:
    def test_examples(self):
        assert from_rational(Fraction(31, 4)) == CF((7, 1, 3))
        assert from_rational(Fraction(2)) == CF((2,))
        assert from_rational(Fraction(31, 8)) == CF((3, 1, 7))

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            from_rational(Fraction(1, 2))

    def test_round_trip_exhaustive_small(self):
        for num in range(1, 40):
            for den in range(1, 15):
                if num < den or gcd(num, den) != 1:
                    continue
                cf = from_rational(Fraction(num, den))
                assert cf.is_canonical
                assert evaluate(cf) == Fraction(num, den)

    def test_round_trip_from_canonical_strings(self):
        rng = random.Random(43)
        for _ in range(200):
            ds = random_digits(rng, canonical=True)
            assert from_rational(evaluate(CF(ds))) == CF(ds)


class _Pair(_Record):
    __slots__ = _fields = ("first", "second")

    def __init__(self, *values):
        self._set(*values)


class TestRecordWriter:
    def test_set_writes_the_fields_in_order(self):
        pair = _Pair(1, (2,))
        assert (pair.first, pair.second) == (1, (2,))
        assert repr(pair) == "_Pair(first=1, second=(2,))"

    @pytest.mark.parametrize("values", [(), (1,), (1, 2, 3)])
    def test_set_refuses_one_value_too_few_or_too_many(self, values):
        with pytest.raises(ValueError, match="^zip\\(\\) argument"):
            _Pair(*values)

    @pytest.mark.parametrize(
        "cls",
        [
            ContinuedFraction,
            Permutation,
            ClassificationFlags,
            Witness,
            BracketViews,
            SearchConfig,
            ConjectureReport,
            PerfectParameters,
            QuadraticSurd,
            SurdProbeReport,
        ],
    )
    def test_every_record_takes_one_value_per_field(self, cls):
        n = len(cls._fields)
        for count in (n - 1, n + 1):
            with pytest.raises(ValueError, match="^zip\\(\\) argument"):
                object.__new__(cls)._set(*range(count))
