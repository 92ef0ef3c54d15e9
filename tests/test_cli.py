import argparse
import hashlib
import itertools
import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permutiple
from permutiple import cli
from permutiple.cli import _decimal_strings, build_parser, main
from permutiple.search import MAX_WORKERS
from permutiple.surd import MAX_DEPTH


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_value(self, capsys):
        code, out, _ = run(["eval", "--cf", "7;1,3"], capsys)
        assert code == 0
        assert out.strip() == "31/4"

    def test_convergents_and_tails(self, capsys):
        code, out, _ = run(["eval", "--cf", "7;1,3", "--convergents", "--tails"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "7/1 8/1 31/4"
        assert lines[2] == "3/4 1/3"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize(
        "flags",
        [[], ["--convergents"], ["--tails"], ["--json"], ["--json", "--convergents", "--tails"]],
    )
    def test_a_value_too_long_to_print_is_refused_by_the_string_length(self, capsys, flags):
        # at the lowest limit Python allows, 640 digits, the value of 2000 twos
        # (765 digits) cannot be printed, and Python's own error named nothing;
        # that of 1600 twos (612 digits) can, with every convergent and tail
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(["eval", "--cf", "2;" + ",".join(["2"] * 1999), *flags], capsys)
            printed = run(["eval", "--cf", "2;" + ",".join(["2"] * 1599), *flags], capsys)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        assert err == "error: the 2000-digit string's value has too many digits to print\n"
        assert printed[0] == 0 and printed[1] and printed[2] == ""

    def test_canonical(self, capsys):
        code, out, _ = run(["eval", "--cf", "5;3,1", "--canonical"], capsys)
        assert code == 0 and out.strip() == "5;4"

    def test_from_rational(self, capsys):
        code, out, _ = run(["eval", "--rational", "31/4"], capsys)
        assert code == 0 and out.strip() == "7;1,3"

    def test_json(self, capsys):
        code, out, _ = run(["eval", "--cf", "7;1,3", "--json"], capsys)
        record = json.loads(out)
        assert record == {"digits": "7;1,3", "value": {"p": "31", "q": "4"}}
        code, out, _ = run(["eval", "--cf", "7;1,3", "--json", "--convergents", "--tails"], capsys)
        assert code == 0
        assert out.endswith(
            ',"convergents":[["7","1"],["8","1"],["31","4"]],"tails":["3/4","1/3"]}\n'
        )


    def test_empty_tail_is_a_usage_error(self, capsys):
        for cf in ("1;", "3;2,"):
            code, out, err = run(["eval", "--cf", cf], capsys)
            assert code == 2 and out == "" and "error" in err


class TestClassify:
    def test_reverse_example(self, capsys):
        code, out, _ = run(["classify", "--cf", "7;1,3", "--sigma", "2,1,0"], capsys)
        assert code == 0
        assert "7;1,3 = 2 * 3;1,7" in out
        assert "reverse_multiple" in out

    def test_identity_is_not_a_permutiple(self, capsys):
        code, out, _ = run(["classify", "--cf", "7;1,3", "--sigma", "0,1,2"], capsys)
        assert code == 1
        assert "not a permutiple" in out

    def test_json_field_order(self, capsys):
        code, out, _ = run(["classify", "--cf", "7;1,3", "--sigma", "2,1,0", "--json"], capsys)
        assert code == 0
        assert out.startswith('{"digits":"7;1,3","sigma":"2,1,0","k":2,"value":')
        record = json.loads(out)
        assert record["flags"]["landess"] is True

    def test_non_canonical_base_is_refused_in_the_same_words_by_both_commands(self, capsys):
        for argv in (["classify", "--cf", "5;1", "--sigma", "1,0"], ["witnesses", "--cf", "5;1"]):
            code, out, err = run(argv, capsys)
            assert (code, out, err) == (2, "", "error: base string 5;1 is not canonical\n"), argv

    def test_printed_cf_round_trips(self, capsys):
        from permutiple import ContinuedFraction

        code, out, _ = run(["classify", "--cf", "11;1,10,2,3", "--sigma", "1,4,0,2,3"], capsys)
        assert code == 0
        left = out.split(" = ")[0]
        assert ContinuedFraction.parse(left).digits == (11, 1, 10, 2, 3)


class TestWitnesses:
    def test_lists_each_witness(self, capsys):
        code, out, _ = run(["witnesses", "--cf", "7;1,3"], capsys)
        assert code == 0
        assert out.count("\n") == 1

    def test_empty_answer_exits_one(self, capsys):
        code, out, _ = run(["witnesses", "--cf", "5;5"], capsys)
        assert code == 1
        assert "no witnesses" in out

    def test_twelve_digit_perfect_string(self, capsys):
        code, out, _ = run(["witnesses", "--cf", "6;2,3,3,6,5,15,2,9,1,6,2"], capsys)
        assert code == 0
        assert out.startswith("6;2,3,3,6,5,15,2,9,1,6,2 = 3 * 2;6,1,9,2,15,5,6,3,3,2,6 |")
        assert out.count("\n") == 1

    def test_all_sigmas_on_a_1000_digit_witness(self, capsys):
        # distinct digits: one realizing image list, walked without recursion
        sigma = permutiple.Permutation(tuple(j ^ 1 for j in range(1000)))
        params = permutiple.PerfectParameters(sigma, 2, tuple(range(1, 1000, 2)))
        cf = permutiple.format_cf(permutiple.perfect_from_parameters(params).cf)
        code, out, _ = run(["witnesses", "--cf", cf, "--all-sigmas"], capsys)
        assert code == 0
        assert out.count("\n") == 1 and " | sigma 1,0,3,2," in out

    def test_all_sigmas_over_the_list_limit_is_refused(self, capsys):
        limit = sys.modules["permutiple.classify"].MAX_SIGMA_LISTS
        cf = "4;1,2,1,2,1,2,1,2,1,2,1,2,1,2,1,2,1,2,2"  # one hit, nine 1s and ten 2s
        code, out, err = run(["witnesses", "--cf", cf, "--all-sigmas"], capsys)
        assert code == 2 and out == ""
        lists = factorial(9) * factorial(10)
        assert err == f"error: {cf} has {lists} realizing image lists, over the limit of {limit}\n"


class TestSearch:
    def test_jsonl_to_stdout(self, capsys):
        code, out, _ = run(["search", "--len", "2", "--max-digit", "10"], capsys)
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert len(lines) == 8
        assert lines[0]["digits"] == "4;2"

    def test_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, _, err = run(
            ["search", "--len", "2", "--max-digit", "10", "--out", str(target), "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert "8 witnesses" in err
        assert target.read_text().splitlines()[0] == "digits,sigma,k,p,q,flags"

    def test_length_range(self, capsys):
        code, out, _ = run(
            ["search", "--len-min", "2", "--len-max", "3", "--max-digit", "6"], capsys
        )
        assert code == 0
        digits = [json.loads(line)["digits"] for line in out.strip().splitlines()]
        assert digits == ["4;2", "6;2", "6;3", "5;1,2"]

    @pytest.mark.parametrize(
        "argv, count, sha256",
        [
            (
                ["--len-min", "2", "--len-max", "3", "--max-digit", "20", "--jobs", jobs],
                67,
                "a647ded9ad8617a046a201a48747d5243cb477b622177cf7e778a150ee3623ff",
            )
            for jobs in ("1", "2")
        ]
        + [
            (
                ["--len", "4", "--max-digit", "8", "--all-sigmas", "--include-noncanonical"]
                + ["--k-min", "3", "--format", "csv"],
                77,
                "338158d7959b892f65ae0602bc07f2863be418ef6efb542ea594970e7d102a44",
            )
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, argv, count, sha256):
        # digests recorded from the search before it shared its candidate
        # loop with `witnesses`; they must not depend on --jobs either
        code, out, err = run(["search", *argv, "--out", "-"], capsys)
        assert code == 0
        assert err == f"{count} witnesses\n"
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_format_choices_are_the_export_writers(self, capsys):
        search = dict(TestParser._leaves(build_parser()))[("search",)]
        (action,) = [a for a in search._actions if a.option_strings == ["--format"]]
        assert action.choices == tuple(permutiple.search._WRITERS)
        argv = ["search", "--len", "3", "--max-digit", "8"]
        assert run(argv, capsys) == run([*argv, "--format", "jsonl"], capsys)

    def test_missing_length_is_usage_error(self, capsys):
        code, _, err = run(["search", "--max-digit", "5"], capsys)
        assert code == 2
        assert "len" in err

    def test_contradictory_bounds_are_usage_errors(self, capsys):
        for argv in (
            ["search", "--len", "2", "--len-max", "3", "--max-digit", "4"],  # not dropped
            ["search", "--len", "2", "--len-min", "2", "--max-digit", "4"],
            ["search", "--len", "2", "--max-digit", "5", "--k-min", "5", "--k-max", "3"],
            ["search", "--len", "2", "--max-digit", "5", "--k-max", "1"],
            ["conjecture", "c2", "--k-min", "9", "--k-max", "2"],
        ):
            code, out, err = run(argv, capsys)
            assert code == 2
            assert err.startswith("error: ") and out == ""


class TestEnumerate:
    def test_two_digit(self, capsys):
        code, out, _ = run(["enumerate", "two-digit", "--k", "3", "--s", "2"], capsys)
        assert code == 0 and out.startswith("6;2 = 3 * 2;6")

    def test_two_digit_bad_parameter(self, capsys):
        code, _, err = run(["enumerate", "two-digit", "--k", "3", "--s", "1"], capsys)
        assert code == 2 and "error" in err

    def test_three_digit_reverse_single(self, capsys):
        code, out, _ = run(["enumerate", "three-digit-reverse", "--k", "2", "--a0", "7"], capsys)
        assert code == 0 and out.startswith("7;1,3 = 2 * 3;1,7")

    def test_three_digit_reverse_no_solution(self, capsys):
        code, out, _ = run(["enumerate", "three-digit-reverse", "--k", "5", "--a0", "8"], capsys)
        assert code == 1 and "no 3-digit reverse multiple" in out

    def test_three_digit_reverse_empty_range_exits_one(self, capsys):
        code, out, _ = run(
            ["enumerate", "three-digit-reverse", "--k", "2", "--a0-max", "1"], capsys
        )
        assert code == 1 and out == "no 3-digit reverse multiple with k=2, a0 <= 1\n"

    def test_three_digit_reverse_range(self, capsys):
        code, out, _ = run(
            ["enumerate", "three-digit-reverse", "--k", "2", "--a0-max", "10"], capsys
        )
        assert code == 0 and len(out.strip().splitlines()) == 4

    def test_three_digit_reverse_multiplier_below_2_is_a_usage_error(self, capsys):
        argv = ["enumerate", "three-digit-reverse", "--k", "1", "--a0-max", "10"]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == "error: multiplier k must be >= 2, not 1\n"

    def test_three_digit_reverse_huge_range_is_refused_at_once(self, capsys):
        code, out, err = run(
            ["enumerate", "three-digit-reverse", "--k", "2", "--a0-max", "1000000000"], capsys
        )
        assert code == 2 and out == ""
        assert "over 100000 leading digits to try" in err

    def test_three_digit_reverse_needs_exactly_one_lead_bound(self, capsys):
        for flags in ([], ["--a0", "5", "--a0-max", "9"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["enumerate", "three-digit-reverse", "--k", "2", *flags])
            assert excinfo.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "error: " in captured.err

    def test_perfect(self, capsys):
        code, out, _ = run(
            ["enumerate", "perfect", "--sigma", "1,0,3,2", "--k", "7", "--params", "1,2"], capsys
        )
        assert code == 0 and out.startswith("7;1,14,2 = 7 * 1;7,2,14")

    def test_perfect_reverse(self, capsys):
        code, out, _ = run(["enumerate", "perfect-reverse", "--k", "2", "--params", "3,1"], capsys)
        assert code == 0 and out.startswith("6;1,2,3 = 2 * 3;2,1,6")

    def test_perfect_cyclic(self, capsys):
        code, out, _ = run(
            ["enumerate", "perfect-cyclic", "--k", "2", "--length", "6", "--ell", "3",
             "--params", "1,1,2"],
            capsys,
        )
        assert code == 0 and out.startswith("2;1,4,1,2,2 = 2 * 1;2,2,2,1,4")

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_unprintable_witness_value_is_refused_in_the_witness_terms(self, capsys, mode):
        # at the lowest limit Python allows, 640 digits, the value of this
        # 4000-digit string (about 1144 digits) cannot be printed
        argv = ["enumerate", "perfect-cyclic", "--k", "2", "--length", "4000", "--ell", "1"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run([*argv, "--params", "1", *mode], capsys)
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2 and out == ""
        assert err == "error: the 4000-digit string's value has too many digits to print\n"


class TestConcat:
    def test_pairwise(self, capsys):
        code, out, _ = run(
            ["concat", "--cf1", "2;1,5,1,2", "--sigma1", "1,0,4,3,2",
             "--cf2", "7;1,3", "--sigma2", "2,1,0"],
            capsys,
        )
        assert code == 0
        assert out.startswith("2;1,5,1,2,7,1,3 = 2 * 1;2,2,1,5,3,1,7")

    def test_palindrome(self, capsys):
        code, out, _ = run(
            ["concat", "--palindrome", "--k", "2", "--cf", "7;1,3", "--cf", "7;2,1,3",
             "--cf", "7;1,3"],
            capsys,
        )
        assert code == 0
        assert out.startswith("7;1,3,7,2,1,3,7,1,3 = 2 * ")

    def test_incomplete_arguments(self, capsys):
        code, _, err = run(["concat", "--cf1", "7;1,3"], capsys)
        assert code == 2 and "error" in err
        code, _, err = run(["concat", "--palindrome", "--cf", "7;1,3"], capsys)  # no --k
        assert code == 2 and "error" in err


class TestConjecture:
    def test_tiny_scan_holds(self, capsys):
        code, out, _ = run(["conjecture", "c2", "--len-max", "3", "--max-digit", "6"], capsys)
        assert code == 0
        assert "0 counterexamples" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            ["conjecture", "c1", "--len", "4", "--max-digit", "5", "--json"], capsys
        )
        assert code == 0
        record = json.loads(out)
        assert record["conjecture"] == "c1"
        assert record["counterexamples"] == []
        assert record["examined"] > 0

    @pytest.mark.parametrize(
        "conjecture, bounds, examined",
        [
            ("c1", "length 4, digits <= 20", 368),
            ("c2", "lengths 2..5, digits <= 12", 352),
            ("c3", "lengths 2..5, digits <= 12", 352),
            ("c4", "length 4, digits <= 20", 368),
        ],
    )
    def test_default_bounds_are_pinned(self, capsys, conjecture, bounds, examined):
        code, out, _ = run(["conjecture", conjecture, "--json"], capsys)
        record = json.loads(out)
        assert code == 0 and record["counterexamples"] == []
        assert (record["bounds"], record["examined"]) == (bounds, examined)

    def test_unknown_id_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["conjecture", "c9"])
        assert excinfo.value.code == 2


class TestSurd:
    def test_probe(self, capsys):
        code, out, _ = run(["surd", "--a", "1", "--b", "3", "--c", "1", "--depth", "10"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "surd (1+sqrt(3))/1",
            "reduced true",
            "preperiod -",
            "period 2,1",
            "k 2",
            "digits 2,1,2,1,2,1,2,1,2,1",
            "scaled 1,2,1,2,1,2,1,2,1,2",
            "probe adjacent swap holds at every digit",
        ]

    def test_depth_only_sets_the_digits_printed(self, capsys):
        # the depth-4 window called (11+sqrt(139))/6 consistent
        argv = ["surd", "--a", "11", "--b", "139", "--c", "6"]
        for depth in ("1", "4", "20", str(MAX_DEPTH)):
            code, out, _ = run([*argv, "--depth", depth], capsys)
            assert code == 1 and out.splitlines()[-1] == "probe adjacent swap fails at digit 4"
            code, out, _ = run([*argv, "--depth", depth, "--json"], capsys)
            record = json.loads(out)
            assert code == 1 and record["fails_at"] == 4 and len(record["digits"]) == int(depth)

    def test_probe_without_multiplier(self, capsys):
        code, out, _ = run(["surd", "--a", "1", "--b", "2", "--c", "1"], capsys)
        assert code == 1
        assert "not an integer" in out

    def test_golden_ratio_probe(self, capsys):
        code, out, _ = run(["surd", "--a", "1", "--b", "5", "--c", "2", "--json"], capsys)
        assert code == 1
        # (1+sqrt(5))/4 = [0; 1, 4, 4, ...]: the swap fails at digit 0
        assert json.loads(out) == {
            "surd": "(1+sqrt(5))/2",
            "k": 2,
            "reduced": True,
            "preperiod": [],
            "period": [1],
            "digits": [1] * 20,
            "scaled_digits": [0, 1] + [4] * 18,
            "fails_at": 0,
        }

    def test_stream(self, capsys):
        code, out, _ = run(
            ["surd", "--k", "2", "--params", "pow:4", "--digits", "6", "--gaps", "5"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "digits 2;1,8,4,32,16"
        assert lines[1] == "permuted 1;2,4,8,16,32"
        assert lines[2].startswith("gaps 0,")
        # an odd count: the permuted prefix ends on digit n, the one past the prefix
        code, out, _ = run(["surd", "--k", "2", "--params", "pow:4", "--digits", "5"], capsys)
        assert code == 0
        assert out.splitlines() == ["digits 2;1,8,4,32", "permuted 1;2,4,8,16"]
        argv = ["surd", "--k", "2", "--params", "pow:4", "--digits", "4", "--json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert json.loads(out) == {"k": 2, "digits": "2;1,8,4", "permuted": "1;2,4,8"}
        code, out, _ = run([*argv, "--gaps", "3"], capsys)
        assert code == 0 and json.loads(out)["gaps"] == ["0", "13", "0"]

    def test_stream_const_and_list_params(self, capsys):
        code, out, _ = run(["surd", "--k", "2", "--params", "const:1", "--digits", "4"], capsys)
        assert code == 0 and out.splitlines()[0] == "digits 2;1,2,1"
        code, out, _ = run(["surd", "--k", "7", "--params", "1,2", "--digits", "4"], capsys)
        assert code == 0 and out.splitlines()[0] == "digits 7;1,14,2"

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_unprintable_gaps_are_refused_before_any_output(self, capsys, mode):
        argv = ["surd", "--k", "2", "--params", "pow:4", "--digits", "2", "--gaps", "800"]
        code, out, err = run(argv + mode, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --gaps 800: the gap at n = ")
        code, out, err = run(argv[:-1] + ["-1"] + mode, capsys)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_mixed_modes_rejected(self, capsys):
        code, _, err = run(["surd", "--a", "1", "--b", "3", "--c", "1", "--k", "2"], capsys)
        assert code == 2

    def test_stream_mode_needs_params(self, capsys):
        code, out, err = run(["surd", "--k", "2"], capsys)
        assert code == 2 and out == ""
        assert err == "error: stream mode needs both --k and --params\n"


class TestDecimalStrings:
    @staticmethod
    def _counted(calls):
        class Counted(int):
            def __str__(self):
                calls.append(int(self))
                return int.__repr__(self)

        return Counted

    def test_refusal_comes_before_any_value_is_formatted(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640, raising=False)
        calls = []
        counted = self._counted(calls)
        values = [counted(7), counted(10**640 - 1), counted(10**640)]

        def later():
            raise AssertionError("a value after the refused one was computed")
            yield

        with pytest.raises(ValueError, match=r"^value 5 is too long$"):
            _decimal_strings(itertools.chain(values, later()), 3, "value {} is too long")
        assert calls == []
        assert _decimal_strings(values[:2], 0, "{}") == ["7", "9" * 640]
        assert calls == [7, 10**640 - 1]

    @pytest.mark.parametrize("limit", [0, None])
    def test_no_limit_refuses_nothing(self, monkeypatch, limit):
        # 0 is Python's "no limit"; None stands for a Python without the function
        if limit is None:
            monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        else:
            monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
        assert _decimal_strings([10**640], 1, "{}") == ["1" + "0" * 640]


class TestParser:
    @staticmethod
    def _leaves(parser, path=()):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    yield from TestParser._leaves(sub, (*path, name))
                return
        yield path, parser

    def test_json_is_the_last_flag_of_every_subcommand_but_search(self):
        leaves = dict(self._leaves(build_parser()))
        assert sorted(leaves) == sorted(_FLAGS)
        named = {
            ("eval",): cli._cmd_eval,
            ("classify",): cli._cmd_classify,
            ("witnesses",): cli._cmd_witnesses,
            ("search",): cli._cmd_search,
            ("conjecture",): cli._cmd_conjecture,
            ("concat",): cli._cmd_concat,
            ("surd",): cli._cmd_surd,
        }
        for path, parser in leaves.items():
            func = parser.get_default("func")
            # every enumerate family binds the one handler that loads the families
            assert func is named.get(path, cli._cmd_enumerate), path
            assert path in named or path[0] == "enumerate", path
            flags = [a.option_strings for a in parser._actions if a.option_strings]
            assert (flags[-1] == ["--json"]) == (path != ("search",)), path
            assert ["--json"] not in flags[:-1], path

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--cf", "7;1,3", "--sigma", "2,1,0"],
            ["witnesses", "--cf", "7;1,3"],
            ["enumerate", "two-digit", "--k", "2", "--s", "3"],
            ["enumerate", "three-digit-reverse", "--k", "13", "--a0", "27"],
            ["enumerate", "perfect", "--sigma", "1,0,3,2", "--k", "2", "--params", "1,3"],
            ["enumerate", "perfect-reverse", "--k", "3", "--params", "1,2"],
            ["enumerate", "perfect-cyclic", "--k", "2", "--length", "6", "--ell", "3",
             "--params", "1,1,2"],
            ["concat", "--palindrome", "--k", "2", "--cf", "7;1,3", "--cf", "7;1,3"],
        ],
    )
    def test_each_witness_printer_writes_one_record_per_line_with_json(self, capsys, argv):
        code, text, _ = run(argv, capsys)
        assert code == 0
        code, out, _ = run([*argv, "--json"], capsys)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == len(text.splitlines()) >= 1
        assert text.startswith(records[0]["digits"] + " = ")


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_brute_force_limit_is_usage_error(self, capsys):
        for argv in (
            ["witnesses", "--cf", "10000000;1,2"],  # over a million k to try
            ["witnesses", "--cf", "99999999999999999999;2"],  # over sys.maxsize k to try
            ["search", "--len", "12", "--max-digit", "4"],  # over 2 * 10**6 rows of shorter tables
            ["witnesses", "--cf", "7;1,3,1"],  # not canonical: refused, not folded
        ):
            code, out, err = run(argv, capsys)
            assert code == 2
            assert err.startswith("error: ") and out == ""

    def test_memory_error_is_a_usage_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(sys.modules["permutiple.cli"], "find_witnesses", exhausted)
        code, out, err = run(["witnesses", "--cf", "7;1,3"], capsys)
        assert code == 2 and out == ""
        assert err == "error: out of memory\n"

    def test_eval_needs_exactly_one_source(self, capsys):
        for argv in (["eval"], ["eval", "--cf", "7;1,3", "--rational", "3/2"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        capsys.readouterr()
        for text in ("1/0", "0/0"):
            code, out, err = run(["eval", "--rational", text], capsys)
            assert code == 2
            assert err.startswith("error: ") and out == ""

    def test_rational_rejects_the_flags_it_would_ignore(self, capsys):
        for flags in (["--json"], ["--convergents"], ["--tails"], ["--canonical"],
                      ["--json", "--convergents"]):
            code, out, err = run(["eval", "--rational", "31/4", *flags], capsys)
            assert code == 2
            assert err.startswith("error: ") and out == ""
        # --canonical prints only the folded digits, so it refuses the same flags
        for flags in (["--json"], ["--convergents"], ["--tails"], ["--json", "--tails"]):
            code, out, err = run(["eval", "--cf", "7;1,3,1", "--canonical", *flags], capsys)
            assert code == 2
            assert err.startswith("error: ") and out == ""

    def test_modes_reject_the_flags_they_would_ignore(self, capsys):
        pair = ["--cf1", "7;1,3", "--sigma1", "2,1,0", "--cf2", "7;1,3", "--sigma2", "2,1,0"]
        probe = ["surd", "--a", "1", "--b", "3", "--c", "1"]
        stream = ["surd", "--k", "2", "--params", "const:1"]
        for argv in (
            ["concat", *pair, "--k", "2"],
            ["concat", *pair, "--cf", "7;1,3"],
            ["concat", "--palindrome", "--k", "2", "--cf", "7;1,3", "--cf1", "7;1,3"],
            ["concat", "--palindrome", "--k", "2", "--cf", "7;1,3", "--sigma2", "2,1,0"],
            [*probe, "--gaps", "5"],
            [*probe, "--digits", "8"],
            [*probe, "--gaps", "0", "--json"],
            [*stream, "--depth", "20"],
        ):
            code, out, err = run(argv, capsys)
            assert code == 2, argv
            assert err.startswith("error: ") and "does not take" in err and out == ""
        # each mode still reads its own flag, and its default is 20
        assert run([*probe, "--depth", "20"], capsys)[1] == run(probe, capsys)[1]
        assert run([*stream, "--digits", "20"], capsys)[1] == run(stream, capsys)[1]

    def test_a_given_zero_or_false_default_is_told_apart(self, capsys):
        # only None and False count as not given: --k 0 is refused, and an
        # unset store_true flag is not
        pair = ["--cf1", "7;1,3", "--sigma1", "2,1,0", "--cf2", "7;1,3", "--sigma2", "2,1,0"]
        code, out, err = run(["concat", *pair, "--k", "0"], capsys)
        assert code == 2 and out == ""
        assert err == "error: concat without --palindrome does not take --k\n"
        for mode, argv, flags in (
            ("--rational", ["--rational", "31/4"], ("json", "convergents", "tails", "canonical")),
            ("--canonical", ["--cf", "7;1,3,1", "--canonical"], ("json", "convergents", "tails")),
        ):
            for flag in flags:
                code, out, err = run(["eval", *argv, f"--{flag}"], capsys)
                assert code == 2 and out == ""
                assert err == f"error: {mode} does not take --{flag}\n"
            code, out, err = run(["eval", *argv], capsys)
            assert code == 0 and out and err == ""

    def test_surd_depth_must_be_positive(self, capsys):
        # also for a surd with no multiplier (1 + sqrt 2: (2 - 1)/1 = 1),
        # which has nothing to probe to that depth
        for surd in (["1", "3"], ["1", "2"]):
            for depth in ("0", "-3", "-5"):
                for flags in ([], ["--json"]):
                    argv = ["surd", "--a", surd[0], "--b", surd[1], "--c", "1"]
                    code, out, err = run([*argv, "--depth", depth, *flags], capsys)
                    assert code == 2, (surd, depth, flags)
                    assert err == f"error: --depth must be >= 1, not {depth}\n"
                    assert out == ""

    def test_surd_stream_digits_must_be_positive(self, capsys):
        for digits in ("0", "-2"):
            argv = ["surd", "--k", "2", "--params", "const:1", "--digits", digits]
            code, out, err = run(argv, capsys)
            assert code == 2
            assert err == f"error: --digits must be >= 1, not {digits}\n"
            assert out == ""

    def test_surd_stream_gaps_must_be_positive(self, capsys):
        # --gaps 0 printed what no --gaps prints, and -1 reached the library
        for gaps in ("0", "-1"):
            for flags in ([], ["--json"]):
                argv = ["surd", "--k", "2", "--params", "1,2", "--digits", "4", "--gaps", gaps]
                code, out, err = run([*argv, *flags], capsys)
                assert code == 2, (gaps, flags)
                assert err == f"error: --gaps must be >= 1, not {gaps}\n"
                assert out == ""

    def test_a_parameter_below_1_is_refused_in_one_wording(self, capsys):
        # the perfect family and the perfect stream state one rule and name the value
        for argv, message in (
            (
                ["enumerate", "perfect", "--sigma", "1,0", "--k", "2", "--params", "0"],
                "cycle parameter 0 must be >= 1, not 0",
            ),
            (["surd", "--k", "2", "--params", "0", "--digits", "2"], "parameter s_0 must be >= 1, not 0"),
        ):
            assert run(argv, capsys) == (2, "", f"error: {message}\n")

    def test_an_out_of_range_length_or_job_count_is_named(self, capsys):
        for argv, message in (
            (["search", "--len", "1", "--max-digit", "3"], "searched lengths must be >= 2, not 1"),
            (["conjecture", "c2", "--len-min", "0"], "searched lengths must be >= 2, not 0"),
            (
                ["search", "--len", "2", "--max-digit", "3", "--jobs", "65"],
                "workers must be <= 64, not 65",
            ),
            (["conjecture", "c1", "--jobs", "65"], "workers must be <= 64, not 65"),
        ):
            assert run(argv, capsys) == (2, "", f"error: {message}\n")

    def test_surd_depth_and_digits_are_bounded(self, capsys):
        over = str(MAX_DEPTH + 1)
        for argv in (
            ["surd", "--a", "1", "--b", "3", "--c", "1", "--depth", over],
            ["surd", "--a", "1", "--b", "2", "--c", "1", "--depth", over],  # no multiplier
            ["surd", "--k", "2", "--params", "const:1", "--digits", over],
            ["surd", "--k", "2", "--params", "const:1", "--gaps", over],
        ):
            for flags in ([], ["--json"]):
                code, out, err = run([*argv, *flags], capsys)
                assert code == 2, (argv, flags)
                assert err == f"error: {argv[-2]} {over} is over {MAX_DEPTH} digits\n"
                assert out == ""
        argv = ["surd", "--k", "2", "--params", "const:1", "--digits", str(MAX_DEPTH)]
        code, out, _ = run(argv, capsys)
        assert code == 0 and out.splitlines()[0] == "digits 2;1" + ",2,1" * (MAX_DEPTH // 2 - 1)
        argv = ["surd", "--a", "1", "--b", "3", "--c", "1", "--depth", str(MAX_DEPTH), "--json"]
        code, out, _ = run(argv, capsys)
        assert code == 0 and len(json.loads(out)["digits"]) == MAX_DEPTH

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_unprintable_stream_digit_is_refused_before_any_output(self, capsys, mode):
        # s_i = 10**(100 i): the digit 2 * 10**4300 at j = 86 is the first
        # past Python's 4300-digit cap, and the walk stops there
        base = "1" + "0" * 100
        argv = ["surd", "--k", "2", "--params", f"pow:{base}", "--digits", "200", *mode]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == "error: --digits 200: the digit at j = 86 has too many digits to print\n"
        code, out, _ = run([*argv[:-1 - len(mode)], "86", *mode], capsys)
        assert code == 0 and out

    def test_surd_period_over_the_state_limit_is_refused(self, capsys):
        for flags in ([], ["--json"]):
            argv = ["surd", "--a", "0", "--b", "1000000007", "--c", "1", *flags]
            code, out, err = run(argv, capsys)
            assert code == 2
            assert err.startswith("error: ") and out == ""

    def test_start_up_does_not_import_the_process_pool(self):
        # only a scan with --jobs above 1 forks, so only it loads multiprocessing
        src = str(Path(permutiple.__file__).parents[1])
        code = "import permutiple.cli, sys; permutiple.cli.build_parser(); "
        code += "sys.exit('multiprocessing' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    def test_a_conjecture_run_loads_no_module_it_does_not_use(self):
        # the closed-form families, the surd case, Fraction values and the csv
        # writer load only in the commands that run them, and no command
        # loads dataclasses or the inspect module it would bring
        src = str(Path(permutiple.__file__).parents[1])
        code = (
            "import permutiple.cli, sys; permutiple.cli.build_parser(); "
            "rc = permutiple.cli.main(['conjecture', 'c2', '--len', '3', '--max-digit', '6']); "
            "unused = ('permutiple.constructors', 'permutiple.surd', 'fractions', 'csv', "
            "'dataclasses', 'inspect'); "
            "print(rc, *[name for name in unused if name in sys.modules])"
        )
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, timeout=60, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0"

    def test_scan_settings_come_from_argv_alone(self, monkeypatch, capsys):
        # the retired PERMUTIPLE_JOBS variable, even a value no int parses,
        # leaves the worker count and the bytes as they are
        argv = ["search", "--len", "2", "--max-digit", "4"]
        assert build_parser().parse_args(argv).jobs == 1
        plain = run(argv, capsys)
        monkeypatch.setenv("PERMUTIPLE_JOBS", "x")
        assert run(argv, capsys) == plain and plain[0] == 0 and plain[1]


# Flags per subcommand, with every family of `enumerate` as its own entry.
# `--jobs` and `--out` are drawn apart from the tokens below (see _JOBS and
# _OUTS), so a drawn token can never become a worker count.
_FLAGS = {
    ("eval",): ["--cf", "--rational", "--convergents", "--tails", "--canonical", "--json"],
    ("classify",): ["--cf", "--sigma", "--k", "--allow-noncanonical", "--json"],
    ("witnesses",): ["--cf", "--all-sigmas", "--allow-noncanonical", "--json"],
    ("search",): ["--len", "--len-min", "--len-max", "--k-min", "--k-max", "--format",
                  "--all-sigmas", "--include-noncanonical"],
    ("conjecture",): ["c1", "c2", "c3", "c4", "c9", "--len", "--len-min", "--len-max",
                      "--k-min", "--k-max", "--json"],
    ("enumerate", "two-digit"): ["--k", "--s", "--json"],
    ("enumerate", "three-digit-reverse"): ["--k", "--a0", "--a0-max", "--json"],
    ("enumerate", "perfect"): ["--sigma", "--k", "--params", "--json"],
    ("enumerate", "perfect-reverse"): ["--k", "--params", "--json"],
    ("enumerate", "perfect-cyclic"): ["--k", "--length", "--ell", "--params", "--json"],
    ("concat",): ["--cf1", "--sigma1", "--cf2", "--sigma2", "--palindrome", "--k", "--cf",
                  "--json"],
    ("surd",): ["--a", "--b", "--c", "--depth", "--k", "--params", "--digits", "--gaps",
                "--json"],
}

# Integers stay at 3 or below, so a drawn length or digit bound keeps every
# scan tiny.
_TOKENS = ["", "0", "-1", "1", "2", "3", "x", "1/0", "0/0", "3/2", "7;1,3", "5;3,1", "5;5",
           "2,1,0", "1,0", "1,0,3,2", "0,1", "3,1", "1,1", "pow:0", "pow:2", "const:1",
           "const:x", "jsonl", "csv"]

# A valid head a scan may start with, so that drawn jobs and outputs also
# reach runs that succeed.
_SCANS = {("search",): ["--len", "2"], ("conjecture",): ["c2"]}

# Worker counts for `--jobs`: each is refused before a pool exists or is at
# most 2, so no draw starts a large pool.
_JOBS = ["-1", "0", "1", "2", "x", "", str(MAX_WORKERS + 1)]

# `--out` targets, resolved in the test's temporary directory; "missing/"
# names a directory that does not exist (OSError, exit 2).
_OUTS = ["-", "out.jsonl", "missing/out.jsonl"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    rest = draw(st.lists(st.sampled_from(_FLAGS[command] + _TOKENS), max_size=8))
    if command in _SCANS:
        rest = (_SCANS[command] if draw(st.booleans()) else []) + rest
        jobs = draw(st.sampled_from([None, *_JOBS]))
        rest += [] if jobs is None else ["--jobs", jobs]
        rest += ["--max-digit", "3"]  # last one wins
    if command == ("search",):
        out = draw(st.sampled_from([None, *_OUTS]))
        rest += [] if out is None else ["--out", out]
    return [*command, *rest]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_argv())
    def test_exit_codes_hold_for_any_argv(self, out_dir, argv):
        argv = [str(out_dir / a) if a in _OUTS[1:] else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2), argv
