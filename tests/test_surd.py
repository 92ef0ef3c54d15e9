import random
from decimal import Decimal, getcontext
from fractions import Fraction
from math import isqrt, lcm

import pytest

from permutiple import (
    ContinuedFraction,
    Permutation,
    QuadraticSurd,
    asymptotic_continuant_gap,
    classify,
    continuant,
    continuant_gaps,
    convergents,
    evaluate,
    expansion_digits,
    infinite_perfect_stream,
    is_reduced,
    periodic_expansion,
    surd_multiplier,
    truncation,
    verify_surd_permutiple,
)
from permutiple import surd
from permutiple.surd import MAX_DEPTH, SurdProbeReport, _floor_quad, _swap_failure

getcontext().prec = 90


def decimal_value(s: QuadraticSurd) -> Decimal:
    return (Decimal(s.a) + Decimal(s.b).sqrt()) / Decimal(s.c)


def decimal_expansion(s: QuadraticSurd, depth: int) -> tuple[int, ...]:
    """Greedy high-precision expansion, independent of the integer recurrence."""
    x = decimal_value(s)
    digits = []
    for _ in range(depth):
        a = int(x.to_integral_value(rounding="ROUND_FLOOR"))
        digits.append(a)
        x = 1 / (x - a)
    return tuple(digits)


class TestQuadraticSurd:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadraticSurd(1, 4, 1)  # square
        with pytest.raises(ValueError):
            QuadraticSurd(1, 0, 1)
        with pytest.raises(ValueError):
            QuadraticSurd(1, 3, 0)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ((1.5, 3, 1), "a"),
            ((1, 3.0, 1), "b"),
            ((1, 3, 1.0), "c"),
            ((True, 3, 1), "a"),
            ((1, 3, "1"), "c"),
        ],
    )
    def test_refuses_fields_that_are_not_ints(self, fields, name):
        # a float a would carry into every digit: (2.0, 0.0, 0.0, ...) for a = 1.5
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not "):
            QuadraticSurd(*fields)

    def test_multiplier_examples(self):
        assert surd_multiplier(QuadraticSurd(1, 3, 1)) == 2
        assert surd_multiplier(QuadraticSurd(1, 2, 1)) is None  # quotient 1
        assert surd_multiplier(QuadraticSurd(1, 5, 2)) == 2
        assert surd_multiplier(QuadraticSurd(1, 7, 4)) is None  # 6/4 not integral

    def test_is_reduced_examples(self):
        assert is_reduced(QuadraticSurd(1, 3, 1))
        assert is_reduced(QuadraticSurd(1, 5, 2))
        assert not is_reduced(QuadraticSurd(0, 2, 1))  # conjugate below -1

    def test_is_reduced_matches_decimal_oracle(self):
        for a in range(-10, 11):
            for b in range(2, 60):
                if isqrt(b) ** 2 == b:
                    continue
                for c in (-3, -2, -1, 1, 2, 3):
                    s = QuadraticSurd(a, b, c)
                    value = decimal_value(s)
                    conj = (Decimal(a) - Decimal(b).sqrt()) / Decimal(c)
                    expected = value > 1 and Decimal(-1) < conj < 0
                    assert is_reduced(s) == expected, s


class TestFloorQuad:
    def test_against_exact_inequalities(self):
        rng = random.Random(11)
        for _ in range(500):
            D = rng.randint(2, 10**6)
            if isqrt(D) ** 2 == D:
                D += 1
            P = rng.randint(-1000, 1000)
            Q = rng.choice([q for q in range(-50, 51) if q])
            n = _floor_quad(P, D, Q)
            # n <= (P + sqrt(D))/Q < n + 1, cross-multiplied with sign care
            if Q > 0:
                lower_ok = (n * Q - P) < 0 or D > (n * Q - P) ** 2
                upper_ok = ((n + 1) * Q - P) > 0 and D < ((n + 1) * Q - P) ** 2
            else:
                lower_ok = (n * Q - P) > 0 and D < (n * Q - P) ** 2
                upper_ok = ((n + 1) * Q - P) < 0 or D > ((n + 1) * Q - P) ** 2
            assert lower_ok and upper_ok, (P, D, Q, n)


class TestPeriodicExpansion:
    def test_examples(self):
        assert periodic_expansion(QuadraticSurd(1, 3, 1)) == ((), (2, 1))
        assert periodic_expansion(QuadraticSurd(1, 5, 2)) == ((), (1,))
        assert periodic_expansion(QuadraticSurd(0, 2, 1)) == ((1,), (2,))

    def test_scaled_golden_ratio(self):
        preperiod, period = periodic_expansion(QuadraticSurd(1, 5, 4))
        assert preperiod == (0, 1)
        assert period == (4,)

    def test_reduced_surds_are_purely_periodic(self):
        for a in range(-8, 9):
            for b in range(2, 50):
                if isqrt(b) ** 2 == b:
                    continue
                for c in range(1, 8):
                    s = QuadraticSurd(a, b, c)
                    if is_reduced(s):
                        preperiod, period = periodic_expansion(s)
                        assert preperiod == ()
                        assert all(d >= 1 for d in period)

    def test_matches_decimal_oracle(self):
        rng = random.Random(13)
        for _ in range(120):
            b = rng.randint(2, 150)
            if isqrt(b) ** 2 == b:
                continue
            s = QuadraticSurd(rng.randint(-9, 9), b, rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
            assert expansion_digits(s, 25) == decimal_expansion(s, 25)

    def test_state_limit_raises(self, monkeypatch):
        monkeypatch.setattr("permutiple.surd.MAX_STATES", 1)
        with pytest.raises(ValueError, match="no cycle within 1 states"):
            periodic_expansion(QuadraticSurd(0, 2, 1))

    def test_long_period_is_refused(self):
        with pytest.raises(ValueError, match="no cycle within 10000 states"):
            periodic_expansion(QuadraticSurd(0, 1000000007, 1))

    def test_digits_do_not_need_the_period(self):
        s = QuadraticSurd(0, 1000000007, 1)
        assert expansion_digits(s, 20) == decimal_expansion(s, 20)

    def test_digits_unroll_the_period(self):
        rng = random.Random(17)
        for _ in range(60):
            b = rng.randint(2, 300)
            if isqrt(b) ** 2 == b:
                continue
            s = QuadraticSurd(rng.randint(-9, 9), b, rng.choice([-3, -1, 1, 2, 5]))
            preperiod, period = periodic_expansion(s)
            depth = len(preperiod) + 3 * len(period) + 1
            unrolled = preperiod + period * 4
            assert expansion_digits(s, depth) == unrolled[:depth]

    @pytest.mark.parametrize("depth", [2.5, True, -1])
    def test_depth_is_an_int_from_0(self, depth):
        # 2.5 reached islice's own message, and True gave (2,)
        assert expansion_digits(QuadraticSurd(1, 3, 1), 0) == ()
        rule = ">= 0" if type(depth) is int else "an integer"
        with pytest.raises(ValueError, match=f"^expansion depth must be {rule}, not {depth!r}$"):
            expansion_digits(QuadraticSurd(1, 3, 1), depth)

    def test_depth_is_bounded(self, monkeypatch):
        s = QuadraticSurd(1, 3, 1)
        assert len(expansion_digits(s, MAX_DEPTH)) == MAX_DEPTH
        monkeypatch.setattr(surd, "_expansion", None)  # refused before the walk is entered
        for depth in (MAX_DEPTH + 1, 10**9):
            message = f"^expansion depth {depth} is over {MAX_DEPTH} digits$"
            with pytest.raises(ValueError, match=message):
                expansion_digits(s, depth)


def swap_oracle(s: QuadraticSurd) -> int | None:
    """The first j where digit j of s/k differs from digit j xor 1 of s, read
    off the digit walk over twice the probe's horizon; None when none does."""
    scaled = QuadraticSurd(s.a, s.b, s.c * surd_multiplier(s))
    (pre_u, per_u), (pre_v, per_v) = periodic_expansion(s), periodic_expansion(scaled)
    n = 2 * (max(len(pre_u) + 2, len(pre_v)) + 2 * len(per_u) + len(per_v))
    u, v = expansion_digits(s, n + 1), expansion_digits(scaled, n)
    return next((j for j in range(n) if v[j] != u[j ^ 1]), None)


def grid_verdicts(a_range, b_range, c_range, reduced_only):
    """Each surd of the grid with a multiplier, mapped to whether the swap
    holds, after checking its verdict against ``swap_oracle``."""
    verdicts = {}
    for a in a_range:
        for b in b_range:
            if isqrt(b) ** 2 == b:
                continue
            for c in c_range:
                s = QuadraticSurd(a, b, c)
                if (reduced_only and not is_reduced(s)) or surd_multiplier(s) is None:
                    continue
                fails_at = verify_surd_permutiple(s, depth=12).fails_at
                assert fails_at == swap_oracle(s), s
                verdicts[(a, b, c)] = fails_at is None
    return verdicts


def form_digit(form, i):
    preperiod, period = form
    return preperiod[i] if i < len(preperiod) else period[(i - len(preperiod)) % len(period)]


def lcm_window_failure(u_form, v_form):
    """The first j where v_j != u_(j xor 1), read over one joint period: past
    max(len(pre_u) + 1, len(pre_v)) both sides repeat every lcm(2 len(per_u),
    len(per_v)) digits, so that window holds every difference there is."""
    start = max(len(u_form[0]) + 1, len(v_form[0]))
    n = start + lcm(2 * len(u_form[1]), len(v_form[1]))
    return next((j for j in range(n) if form_digit(v_form, j) != form_digit(u_form, j ^ 1)), None)


class TestSwapDecision:
    def test_matches_one_joint_period_on_near_misses(self):
        # v is the swapped u written with a longer preperiod and its period
        # repeated, then one digit changed: the first difference can sit
        # anywhere up to the horizon
        rng = random.Random(23)
        deepest = 0
        for _ in range(3000):
            pre_u = tuple(rng.choices((1, 2), k=rng.randint(0, 4)))
            per_u = tuple(rng.choices((1, 2, 3), k=rng.randint(1, 5)))
            start = len(pre_u) + rng.randint(1, 12)
            swapped = [form_digit((pre_u, per_u), j ^ 1) for j in range(start + 6 * len(per_u))]
            v = swapped[: start + 2 * len(per_u) * rng.randint(1, 3)]
            if rng.random() < 0.9:
                v[rng.randrange(len(v))] = 4
            u_form, v_form = (pre_u, per_u), (tuple(v[:start]), tuple(v[start:]))
            expected = lcm_window_failure(u_form, v_form)
            assert _swap_failure(u_form, v_form) == expected, (u_form, v_form)
            deepest = max(deepest, -1 if expected is None else expected)
        assert deepest >= 30

    def test_matches_one_joint_period_on_random_forms(self):
        rng = random.Random(29)
        for _ in range(3000):
            forms = [
                (tuple(rng.choices((1, 2), k=rng.randint(0, 3))), tuple(rng.choices((1, 2), k=p)))
                for p in (rng.randint(1, 6), rng.randint(1, 6))
            ]
            assert _swap_failure(*forms) == lcm_window_failure(*forms), forms


class TestVerifyProbe:
    def test_consistent_example(self):
        report = verify_surd_permutiple(QuadraticSurd(1, 3, 1), depth=20)
        assert report == SurdProbeReport(2, (2, 1) * 10, (1, 2) * 10, None, ((), (2, 1)))

    def test_golden_ratio_is_inconsistent(self):
        # (1+sqrt(5))/4 = [0; 1, 4, 4, ...] leads with 0, where digit 1 of s is 1
        report = verify_surd_permutiple(QuadraticSurd(1, 5, 2), depth=20)
        assert report == SurdProbeReport(2, (1,) * 20, (0, 1) + (4,) * 18, 0, ((), (1,)))

    @pytest.mark.parametrize(
        "fields, fails_at",
        [
            ((1, 3, 1), None),
            ((0, 2, 1), 0),  # sqrt(2)/2 = [0; 1, 2, 2, ...]; a shift by -1 lined them up
            ((11, 139, 6), 4),  # the depth-4 window called these two consistent
            ((12, 162, 9), 4),
            ((1, 5, 2), 0),
        ],
    )
    def test_the_verdict_does_not_depend_on_the_depth(self, fields, fails_at):
        s = QuadraticSurd(*fields)
        scaled = QuadraticSurd(s.a, s.b, s.c * surd_multiplier(s))
        assert swap_oracle(s) == fails_at
        for depth in (1, 4, 20, MAX_DEPTH):
            report = verify_surd_permutiple(s, depth)
            assert report.fails_at == fails_at, depth
            assert report.digits == expansion_digits(s, depth)
            assert report.scaled_digits == expansion_digits(scaled, depth)
            assert report.expansion == periodic_expansion(s)

    @pytest.mark.parametrize(
        "k, param", [(2, 1), (2, 2), (2, 7), (3, 2), (4, 1), (4, 3), (5, 4), (6, 1)]
    )
    def test_perfect_streams_with_periodic_parameters_hold(self, k, param):
        # [k s; s, k s, s, ...] is the root x of x^2 - k s x - k = 0; for k s
        # even it is (k s/2 + sqrt((k s/2)^2 + k))/1, whose multiplier is k
        a = k * param // 2
        s = QuadraticSurd(a, a * a + k, 1)
        stream = infinite_perfect_stream(k, lambda i: param)
        assert surd_multiplier(s) == k
        assert expansion_digits(s, 40) == stream.prefix(40)
        for depth in (1, 4, 20, MAX_DEPTH):
            report = verify_surd_permutiple(s, depth)
            assert report.fails_at is None and report.digits[:40] == stream.prefix(40)[:depth]

    def test_the_verdict_depends_on_how_the_surd_is_written(self):
        # k = (b - a^2)/c is read off the triple: (2+sqrt(12))/2 is the number
        # (1+sqrt(3))/1 written with t = 2, so it has the same digits but k 4,
        # and the swap that holds for k 2 fails at digit 0 for k 4
        plain, scaled = QuadraticSurd(1, 3, 1), QuadraticSurd(2, 12, 2)
        assert periodic_expansion(plain) == periodic_expansion(scaled) == ((), (2, 1))
        assert (surd_multiplier(plain), surd_multiplier(scaled)) == (2, 4)
        assert verify_surd_permutiple(plain).fails_at is None
        assert verify_surd_permutiple(scaled).fails_at == 0

    def test_long_period_surd_is_refused(self):
        # both expansions are needed whole, and this period does not close
        # within MAX_STATES states
        message = r"^no cycle within 10000 states for \(0\+sqrt\(1000000007\)\)/1$"
        with pytest.raises(ValueError, match=message):
            verify_surd_permutiple(QuadraticSurd(0, 1000000007, 1), depth=20)

    def test_requires_integer_multiplier(self):
        with pytest.raises(ValueError):
            verify_surd_permutiple(QuadraticSurd(1, 2, 1), depth=10)

    def test_depth_must_be_positive(self):
        # an int: 2.5 reached islice's own message, and True probed to depth 1
        for depth in (0, -3, 2.5, True, 20.0):
            rule = ">= 1" if type(depth) is int else "an integer"
            message = f"^probe depth must be {rule}, not {depth!r}$"
            with pytest.raises(ValueError, match=message):
                verify_surd_permutiple(QuadraticSurd(1, 3, 1), depth=depth)

    def test_depth_is_bounded(self, monkeypatch):
        with pytest.raises(ValueError, match="is over 100000 digits"):
            verify_surd_permutiple(QuadraticSurd(1, 3, 1), depth=MAX_DEPTH + 1)
        # refused before any digit is computed: the walk is never entered
        monkeypatch.setattr(surd, "_expansion", None)
        with pytest.raises(ValueError, match="is over"):
            verify_surd_permutiple(QuadraticSurd(1, 3, 1), depth=10**12)
        monkeypatch.undo()
        assert len(verify_surd_permutiple(QuadraticSurd(1, 3, 1), MAX_DEPTH).digits) == MAX_DEPTH

    def test_grid_scan_records_verdicts(self):
        verdicts = grid_verdicts(range(-10, 11), range(2, 121), range(1, 11), reduced_only=True)
        assert verdicts[(1, 3, 1)] is True
        assert verdicts[(1, 5, 2)] is False
        assert (len(verdicts), sum(verdicts.values())) == (791, 34)

    @pytest.mark.slow
    def test_wide_grid_verdicts(self):
        # every surd, reduced or not, with a -12..12, b 2..199, c 1..12
        verdicts = grid_verdicts(range(-12, 13), range(2, 200), range(1, 13), reduced_only=False)
        assert (len(verdicts), sum(verdicts.values())) == (10184, 44)
        assert verdicts[(0, 2, 1)] is False


class TestPerfectStream:
    def test_power_parameters_match_documented_digits(self):
        stream = infinite_perfect_stream(2, lambda i: 4**i)
        assert stream.prefix(6) == (2, 1, 8, 4, 32, 16)
        assert tuple(stream.digit(j ^ 1) for j in range(8)) == tuple(2**j for j in range(8))

    def test_constant_parameters_match_surd_expansion(self):
        stream = infinite_perfect_stream(2, lambda i: 1)
        assert stream.prefix(10) == expansion_digits(QuadraticSurd(1, 3, 1), 10)

    def test_finite_parameter_list(self):
        stream = infinite_perfect_stream(7, (1, 2))
        assert stream.prefix(4) == (7, 1, 14, 2)
        with pytest.raises(ValueError, match="exhausted"):
            stream.prefix(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            infinite_perfect_stream(1, (1,))
        with pytest.raises(ValueError):
            infinite_perfect_stream(2, (0,)).digit(0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "3"])
    def test_refuses_a_multiplier_that_is_not_an_int(self, k):
        with pytest.raises(ValueError, match=f"^multiplier k must be an integer, not {k!r}$"):
            infinite_perfect_stream(k, (1,))

    @pytest.mark.parametrize("bad", [1.9, "3", True, 2.0])
    def test_refuses_a_parameter_that_is_not_an_int(self, bad):
        # read through int(), 1.9 and '3' would give the digits (2, 1, 6, 3)
        stream = infinite_perfect_stream(2, [1, bad])
        assert stream.prefix(2) == (2, 1)
        with pytest.raises(ValueError, match=f"^parameter s_1 must be an integer, not {bad!r}$"):
            stream.digit(2)

    @pytest.mark.parametrize("value", [2.0, True, -1, -2])
    def test_refuses_an_index_or_length_that_is_not_an_int_from_0(self, value):
        # a negative index read from the end of the parameter cache: after
        # prefix(4), digit(-1) gave 2 and digit(-2) gave 4
        stream = infinite_perfect_stream(2, [1, 2, 3])
        assert stream.prefix(4) == (2, 1, 4, 2) and stream.prefix(0) == ()
        rule = ">= 0" if type(value) is int else "an integer"
        with pytest.raises(ValueError, match=f"^digit index must be {rule}, not {value!r}$"):
            stream.digit(value)
        with pytest.raises(ValueError, match=f"^prefix length must be {rule}, not {value!r}$"):
            stream.prefix(value)

    def test_prefix_length_is_bounded(self):
        calls = []
        stream = infinite_perfect_stream(2, lambda i: calls.append(i) or 1)
        for n in (MAX_DEPTH + 1, 10**9):
            with pytest.raises(ValueError, match=f"^prefix length {n} is over {MAX_DEPTH} digits$"):
                stream.prefix(n)
            # digit(2 * 10**6) drew and kept a million parameters
            with pytest.raises(ValueError, match=f"^digit index {n} is over {MAX_DEPTH} digits$"):
                stream.digit(n)
        assert calls == []  # refused before any digit is computed
        assert stream.prefix(MAX_DEPTH) == (2, 1) * (MAX_DEPTH // 2)
        assert stream.digit(MAX_DEPTH) == 2

    def test_callable_parameters_are_drawn_once_in_order(self):
        calls = []
        stream = infinite_perfect_stream(3, lambda i: calls.append(i) or i + 1)
        assert tuple(stream.digit(j ^ 1) for j in range(7)) == (1, 3, 2, 6, 3, 9, 4)
        assert stream.prefix(8) == (3, 1, 6, 2, 9, 3, 12, 4)
        assert calls == [0, 1, 2, 3]

    def test_even_truncations_are_exact_multiples(self):
        stream = infinite_perfect_stream(3, lambda i: i + 1)
        for length in (2, 4, 6, 8, 10):
            base = truncation(stream, length)
            permuted = ContinuedFraction(tuple(stream.digit(j ^ 1) for j in range(length)))
            assert evaluate(base) == 3 * evaluate(permuted)

    def test_even_truncations_classify_as_perfect(self):
        stream = infinite_perfect_stream(2, lambda i: 1)
        for length in (2, 4, 6, 8):
            cf = truncation(stream, length)
            sigma = Permutation(tuple(j ^ 1 for j in range(length)))
            w = classify(cf, sigma, 2, allow_noncanonical=True)
            assert w.flags.perfect
            assert w.flags.landess
            assert w.flags.continuant_preserving


class TestAsymptoticGap:
    @pytest.mark.parametrize("limit", [2.5, 4.0, True, -1])
    def test_limit_must_be_an_int(self, limit):
        stream = infinite_perfect_stream(2, lambda i: 1)
        assert list(continuant_gaps(stream, 0)) == []
        rule = ">= 0" if type(limit) is int else "an integer"
        message = f"^gap limit must be {rule}, not {limit!r}$"
        with pytest.raises(ValueError, match=message):
            continuant_gaps(stream, limit)  # at the call, not at the first next()
        with pytest.raises(ValueError, match=message):
            asymptotic_continuant_gap(stream, limit)

    @pytest.mark.parametrize("length", [2.0, True, "4"])
    def test_truncation_length_must_be_an_int(self, length):
        stream = infinite_perfect_stream(2, lambda i: 1)
        message = f"^truncation length must be an integer, not {length!r}$"
        with pytest.raises(ValueError, match=message):
            truncation(stream, length)

    @pytest.mark.parametrize("length", [-1, 0])
    def test_truncation_length_below_one_is_refused_by_name(self, length):
        stream = infinite_perfect_stream(2, lambda i: 1)
        with pytest.raises(ValueError, match=f"^truncation length must be >= 1, not {length}$"):
            truncation(stream, length)

    def test_truncation_length_is_bounded(self):
        calls = []
        stream = infinite_perfect_stream(2, lambda i: calls.append(i) or 1)
        for length in (MAX_DEPTH + 1, 10**9):
            message = f"^truncation length {length} is over {MAX_DEPTH} digits$"
            with pytest.raises(ValueError, match=message):
                truncation(stream, length)
            message = f"^gap limit {length} is over {MAX_DEPTH} digits$"
            with pytest.raises(ValueError, match=message):
                continuant_gaps(stream, length)  # at the call, not at the first next()
            with pytest.raises(ValueError, match=message):
                asymptotic_continuant_gap(stream, length)
        assert calls == []  # refused before any digit is computed
        assert len(truncation(stream, MAX_DEPTH)) == MAX_DEPTH

    def test_gaps_at_the_limit_read_no_digit_past_it(self, monkeypatch):
        # the permuted truncation of odd length n + 1 ends on digit n ^ 1 = n + 1;
        # the gaps take it from digit n, so a limit at the bound is not refused
        monkeypatch.setattr("permutiple.cf.MAX_DEPTH", 6)
        stream = infinite_perfect_stream(2, lambda i: 1)
        with pytest.raises(ValueError, match="^digit index 7 is over 6 digits$"):
            stream.digit(7)
        assert asymptotic_continuant_gap(stream, 6) == (0, 4, 0, 15, 0, 56)

    def test_constant_stream_gaps(self):
        stream = infinite_perfect_stream(2, lambda i: 1)
        assert asymptotic_continuant_gap(stream, 4) == (0, 4, 0, 15)

    def test_power_stream_gaps_vanish_at_odd_indices(self):
        stream = infinite_perfect_stream(2, lambda i: 4**i)
        gaps = asymptotic_continuant_gap(stream, 6)
        assert gaps[0] == 0 and gaps[2] == 0 and gaps[4] == 0
        assert gaps[1] != 0 and gaps[3] != 0

    def test_perfect_streams_vanish_exactly_at_odd_indices(self):
        for k, params in ((2, lambda i: 1), (3, lambda i: 2 * i + 1), (5, lambda i: 7)):
            stream = infinite_perfect_stream(k, params)
            gaps = asymptotic_continuant_gap(stream, 15)
            for n, gap in enumerate(gaps, start=1):
                assert (gap == 0) == (n % 2 == 1), (k, n)

    def test_equivalent_vanishing_conditions(self):
        # continuant gap, denominator relation, and tail products vanish at
        # the same truncation lengths along a perfect stream
        stream = infinite_perfect_stream(2, lambda i: i % 3 + 1)
        k = 2
        for length in range(2, 14):
            base = ContinuedFraction(stream.prefix(length))
            permuted = ContinuedFraction(tuple(stream.digit(j ^ 1) for j in range(length)))
            gap_zero = continuant(base.digits) == continuant(permuted.digits)
            q = convergents(base)[-1][1]
            qp = convergents(permuted)[-1][1]
            denominator_zero = qp == k * q
            tail_zero = Fraction(1, q) == k * Fraction(1, qp)
            assert gap_zero == denominator_zero == tail_zero
            assert gap_zero == (length % 2 == 0)
