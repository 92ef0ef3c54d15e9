import functools
import hashlib
import io
import itertools
import json
import math
import sys

import pytest
from conftest import brute_force_witnesses

from permutiple import (
    ContinuedFraction,
    Permutation,
    SearchConfig,
    Witness,
    check_conjectures,
    classify,
    exhaustive_search,
    export,
    find_witnesses,
    witness_record,
)
from permutiple import search
from permutiple.cf import _continuant_pair
from permutiple.cli import main
from permutiple.search import MAX_MULTISETS, MAX_TABLE_ROWS, MAX_WORKERS

CF = ContinuedFraction


def run(config):
    return list(exhaustive_search(config))


def stream(config):
    return [(w.cf.digits, w.permuted.digits, w.sigma.images, w.k) for w in run(config)]


oracle_hits = functools.lru_cache(maxsize=None)(brute_force_witnesses)


def oracle_stream(lengths, max_digit, dedupe, canonical_only, k_min=2, k_max=math.inf):
    """The ordered (digits, permuted, images, k) stream a search must give,
    from the unpruned Fraction oracle over every digit tuple."""
    out = []
    for n in lengths:
        for ds in itertools.product(range(1, max_digit + 1), repeat=n):
            if canonical_only and ds[-1] == 1:
                continue
            oracle = oracle_hits(ds)
            if not oracle:
                continue
            found = sorted(
                (ds, permuted, images, k)
                for images in itertools.permutations(range(n))
                if (permuted := tuple(ds[i] for i in images)) in oracle
                and k_min <= (k := oracle[permuted]) <= k_max
            )
            if dedupe:  # the smallest image list of each permuted string
                found = [min(g) for _, g in itertools.groupby(found, key=lambda t: t[1])]
            out += found
    return out


class TestSearchConfig:
    def test_lengths(self):
        assert SearchConfig(length=3, max_digit=5).lengths() == (3,)
        assert SearchConfig(length=(2, 5), max_digit=5).lengths() == (2, 3, 4, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(length=1, max_digit=5)
        with pytest.raises(ValueError):
            SearchConfig(length=2, max_digit=1)
        with pytest.raises(ValueError):
            SearchConfig(length=2, max_digit=5, k_min=1)
        with pytest.raises(ValueError):
            SearchConfig(length=2, max_digit=5, workers=0)
        for k_min, k_max in ((5, 3), (None, 1)):
            with pytest.raises(ValueError, match="empty multiplier range"):
                SearchConfig(length=2, max_digit=5, k_min=k_min, k_max=k_max)
        SearchConfig(length=2, max_digit=5, k_min=3, k_max=3)  # one multiplier: accepted
        with pytest.raises(ValueError, match="empty length range"):
            SearchConfig(length=(5, 3), max_digit=5)
        # 4 + 4**2 + ... + 4**9 = 349 524 rows of shorter tables: accepted; to 4**10, refused
        assert sum(4**j for j in range(1, 10)) <= MAX_TABLE_ROWS < sum(4**j for j in range(1, 11))
        SearchConfig(length=10, max_digit=4)
        for length, max_digit in ((11, 4), ((2, 11), 5), ((2, 10**12), 5), ((2, 10**12), 2)):
            with pytest.raises(ValueError, match=f"over {MAX_TABLE_ROWS} rows"):
                SearchConfig(length=length, max_digit=max_digit)  # before the range is built
        with pytest.raises(ValueError, match="multisets"):  # no C(10**12 + 10**6, 10**6) either
            SearchConfig(length=(2, 10**12), max_digit=10**6)

    def test_refuses_work_that_cannot_finish(self):
        SearchConfig(length=2, max_digit=3, workers=MAX_WORKERS)
        with pytest.raises(ValueError, match=f"<= {MAX_WORKERS}"):  # before any pool exists
            SearchConfig(length=2, max_digit=3, workers=10**5)
        # C(14142, 2) = 99 991 011 multisets is under MAX_MULTISETS, C(14143, 2) is over
        assert math.comb(14142, 2) <= MAX_MULTISETS < math.comb(14143, 2)
        SearchConfig(length=2, max_digit=14141)
        for length, max_digit in ((2, 14142), (2, 10**9), ((2, 10), 10**6)):
            with pytest.raises(ValueError, match="multisets"):
                SearchConfig(length=length, max_digit=max_digit)


class TestExhaustiveSearch:
    def test_two_digit_family_at_bound_10(self):
        found = {(w.cf.digits, w.k) for w in run(SearchConfig(length=2, max_digit=10))}
        assert found == {
            ((4, 2), 2),
            ((6, 2), 3),
            ((8, 2), 4),
            ((10, 2), 5),
            ((6, 3), 2),
            ((9, 3), 3),
            ((8, 4), 2),
            ((10, 5), 2),
        }

    def test_three_digit_needs_room(self):
        assert run(SearchConfig(length=3, max_digit=2)) == []

    def test_five_digit_scan_contains_asymmetric_example(self):
        found = {
            (w.cf.digits, w.k) for w in run(SearchConfig(length=5, max_digit=9))
        }
        assert ((9, 3, 2, 8, 2), 4) in found

    def test_matches_unpruned_oracle_at_tiny_bounds(self):
        config = SearchConfig(length=(2, 3), max_digit=6)
        found = {(w.cf.digits, w.permuted.digits, w.k) for w in run(config)}
        expected = set()
        for n in (2, 3):
            for ds in itertools.product(range(1, 7), repeat=n):
                if ds[-1] == 1:
                    continue
                for permuted, k in brute_force_witnesses(ds).items():
                    expected.add((ds, permuted, k))
        assert found == expected
        # every string, and one witness per realizing image list, in output order
        config = SearchConfig(length=(2, 3), max_digit=6, canonical_only=False, dedupe=False)
        assert stream(config) == oracle_stream((2, 3), 6, dedupe=False, canonical_only=False)

    @pytest.mark.parametrize("dedupe", [True, False])
    @pytest.mark.parametrize("canonical_only", [True, False])
    @pytest.mark.parametrize(
        "k_min, k_max, workers", [(None, None, 1), (3, None, 2), (None, 2, 1), (None, None, 2)]
    )
    def test_matches_oracle_on_repeated_digit_multisets(
        self, dedupe, canonical_only, k_min, k_max, workers
    ):
        # with digits <= 4, every 5-digit string and all but 24 of the 256
        # 4-digit ones repeat a digit, so most multisets have fewer than m!
        # distinct arrangements
        config = SearchConfig(
            length=(4, 5),
            max_digit=4,
            k_min=k_min,
            k_max=k_max,
            canonical_only=canonical_only,
            workers=workers,
            dedupe=dedupe,
        )
        expected = oracle_stream(
            (4, 5), 4, dedupe, canonical_only, k_min or 2, k_max or math.inf
        )
        # every canonical base at these bounds has k = 2, so k_min = 3 leaves none
        assert bool(expected) != (canonical_only and k_min == 3)
        assert stream(config) == expected

    @pytest.mark.parametrize("length, max_digit", [(6, 4), (7, 3)])
    @pytest.mark.parametrize("canonical_only", [True, False])
    @pytest.mark.parametrize("k_min, k_max", [(None, None), (3, None), (None, 2)])
    def test_long_multisets_match_oracle(self, length, max_digit, canonical_only, k_min, k_max):
        # Tables of up to 210 arrangements: most bases here get their partners
        # by (p, q) lookups per k, the rest by scanning the table prefix.  At
        # 6/<=4 all 12 canonical hits come from lookups, the non-canonical
        # scan gets hits both ways, and k_min = 3 leaves lead groups with no
        # k to look up.
        config = SearchConfig(
            length=length,
            max_digit=max_digit,
            k_min=k_min,
            k_max=k_max,
            canonical_only=canonical_only,
        )
        expected = oracle_stream(
            (length,), max_digit, True, canonical_only, k_min or 2, k_max or math.inf
        )
        assert stream(config) == expected

    def test_long_multisets_every_sigma_matches_oracle(self):
        config = SearchConfig(length=7, max_digit=3, canonical_only=False, dedupe=False)
        expected = oracle_stream((7,), 3, dedupe=False, canonical_only=False)
        assert len(expected) > 13  # 13 permuted strings, some realized by several sigmas
        assert stream(config) == expected

    @pytest.mark.parametrize(
        "length, max_digit, count", [(8, 4, 54), pytest.param(8, 5, 167, marks=pytest.mark.slow)]
    )
    def test_long_lengths_match_per_base_find_witnesses(self, length, max_digit, count):
        # find_witnesses draws each candidate from the Euclid expansion of
        # p / (k*q), with no arrangement table; only _hits and _k_range are shared
        expected = [
            (ds, w.sigma.images, w.k)
            for ds in itertools.product(range(1, max_digit + 1), repeat=length)
            if ds[-1] >= 2
            for w in find_witnesses(CF(ds))
        ]
        config = SearchConfig(length=length, max_digit=max_digit)
        assert [(w.cf.digits, w.sigma.images, w.k) for w in run(config)] == expected
        assert len(expected) == count

    @pytest.mark.parametrize(
        "length, max_digit, count, sha256",
        [
            (3, 40, 152, "720c2111a791d554faeb09ec23dea47e8ed82af6c5ea3298edae99a794b16cd6"),
            (4, 14, 144, "9af69bfdd42cac4e77b8f30a65d79c2aca4275560ce293e53d53b65cefb52379"),
            (5, 8, 50, "6bf89b8d188e8c85df1fcdcdbeedeed8aa3dd75d2f02c133f09fd0b3bcbea99a"),
            (6, 6, 98, "d911740b2f5e2cd45d8782759f714f7b7becdcec87358a1b53ccf46557208afb"),
        ],
    )
    def test_baseline_bounds_are_pinned(self, length, max_digit, count, sha256):
        # the ROADMAP's four baseline scans, recorded from the per-tuple loop
        # that tested every tuple's own arrangements
        buffer = io.StringIO()
        config = SearchConfig(length=length, max_digit=max_digit)
        assert export(exhaustive_search(config), "jsonl", buffer) == count
        assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == sha256

    def test_order_is_lexicographic_and_by_length(self):
        ws = run(SearchConfig(length=(2, 3), max_digit=6))
        keys = [(len(w.cf), w.cf.digits, w.permuted.digits) for w in ws]
        assert keys == sorted(keys)

    def test_multiplier_bounds(self):
        base = {(w.cf.digits, w.k) for w in run(SearchConfig(length=2, max_digit=12))}
        low = {(w.cf.digits, w.k) for w in run(SearchConfig(length=2, max_digit=12, k_min=3))}
        high = {(w.cf.digits, w.k) for w in run(SearchConfig(length=2, max_digit=12, k_max=2))}
        assert low == {item for item in base if item[1] >= 3}
        assert high == {item for item in base if item[1] == 2}
        assert low | high == base

    def test_k_bounds_drop_hits_before_classify(self, monkeypatch):
        classify_module = sys.modules["permutiple.classify"]
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return classify(*args, **kwargs)

        monkeypatch.setattr(classify_module, "classify", counting)
        loose = dict(length=4, max_digit=8, dedupe=False, canonical_only=False)
        assert len(run(SearchConfig(**loose))) == len(calls) == 130
        calls.clear()
        assert len(run(SearchConfig(**loose, k_min=3))) == len(calls) == 77

    def test_worker_counts_agree(self):
        serial = run(SearchConfig(length=3, max_digit=8))
        parallel = run(SearchConfig(length=3, max_digit=8, workers=3))
        assert serial == parallel

    def test_dedupe_toggle(self):
        deduped = run(SearchConfig(length=4, max_digit=6))
        expanded = run(SearchConfig(length=4, max_digit=6, dedupe=False))
        target = CF((6, 2, 6, 2))
        assert [w.sigma.images for w in deduped if w.cf == target] == [(1, 0, 3, 2)]
        assert [w.sigma.images for w in expanded if w.cf == target] == [
            (1, 0, 3, 2),
            (1, 2, 3, 0),
            (3, 0, 1, 2),
            (3, 2, 1, 0),
        ]
        assert {(w.cf.digits, w.permuted.digits, w.k) for w in expanded} == {
            (w.cf.digits, w.permuted.digits, w.k) for w in deduped
        }

    def test_noncanonical_bases_when_requested(self):
        loose = run(SearchConfig(length=3, max_digit=6, canonical_only=False))
        strict = run(SearchConfig(length=3, max_digit=6))
        extras = {w.cf.digits for w in loose} - {w.cf.digits for w in strict}
        assert all(ds[-1] == 1 for ds in extras)
        assert (5, 3, 1) in extras

    def test_every_witness_reverifies(self):
        for w in run(SearchConfig(length=(2, 4), max_digit=5)):
            assert w.value == w.k * w.permuted_value
            assert w.cf.digits[0] > w.permuted.digits[0]


class TestArrangementTable:
    def test_long_multiset_with_repeated_digits(self):
        multiset = (1, 1, 1, 1, 1, 1, 2, 4)
        table = search._arrangement_table(multiset, {})
        arrangements = sorted(set(itertools.permutations(multiset)))
        assert len(table) == 56  # 8! / 6! distinct rows, against 8! = 40 320 orderings
        assert table == [(a, *_continuant_pair(a)) for a in arrangements]

    def test_memo_holds_only_shorter_tables(self):
        memo = {}
        for multiset in itertools.combinations_with_replacement(range(1, 5), 6):
            search._multiset_hits(multiset, True, (2, math.inf), memo)
        # one-digit tails are built inline and top-length tables are dropped
        assert {len(multiset) for multiset in memo} == {2, 3, 4, 5}
        for multiset, table in memo.items():
            assert table == search._arrangement_table(multiset, {})


class TestConjectures:
    def test_reports_hold_at_tiny_bounds(self):
        stream = run(SearchConfig(length=(2, 4), max_digit=6))
        reports = check_conjectures(stream, ["c1", "c2", "c3", "c4"], bounds="tiny")
        for conjecture, report in reports.items():
            assert report.holds_within_bounds, conjecture
            assert report.examined == len(stream)
            assert report.bounds == "tiny"
            assert "0 counterexamples" in report.summary()

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            check_conjectures([], ["c9"])

    def test_counterexamples_are_collected(self, monkeypatch, capsys):
        # no stated conjecture fails at tiny bounds, so c2 is swapped for a
        # predicate that the k = 3 and k = 4 witnesses of length 2 fail
        statement = "every permutiple doubles"
        monkeypatch.setitem(search._CONJECTURES, "c2", (statement, lambda w: w.k == 2))
        stream = run(SearchConfig(length=2, max_digit=8))
        report = check_conjectures(stream, ["c2"], bounds="tiny")["c2"]
        assert not report.holds_within_bounds
        assert [w.cf.digits for w in report.counterexamples] == [(6, 2), (8, 2)]
        assert f"({statement}): 2 COUNTEREXAMPLES among 5 witnesses [tiny]" in report.summary()

        argv = ["conjecture", "c2", "--len", "2", "--max-digit", "8"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"conjecture c2 ({statement}): 2 COUNTEREXAMPLES among 5 ")
        assert [line.split(" | ")[0] for line in lines[1:]] == ["6;2 = 3 * 2;6", "8;2 = 4 * 2;8"]
        assert main([*argv, "--json"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert [w["digits"] for w in record["counterexamples"]] == ["6;2", "8;2"]
        assert record["examined"] == 5


class TestExport:
    def witness(self):
        return classify(CF((7, 1, 3)), Permutation((2, 1, 0)))

    def test_jsonl_schema_line(self):
        buffer = io.StringIO()
        export([self.witness()], "jsonl", buffer)
        line = buffer.getvalue()
        assert line == (
            '{"digits":"7;1,3","sigma":"2,1,0","k":2,'
            '"value":{"p":"31","q":"4"},'
            '"flags":{"continuant_preserving":true,"perfect":false,'
            '"symmetric":true,"landess":true,"reverse_multiple":true}}\n'
        )
        record = json.loads(line)
        assert list(record) == ["digits", "sigma", "k", "value", "flags"]

    def test_csv_header_once(self, tmp_path):
        target = tmp_path / "out.csv"
        ws = run(SearchConfig(length=2, max_digit=8))
        export(ws, "csv", target)
        lines = target.read_text().splitlines()
        assert lines[0] == "digits,sigma,k,p,q,flags"
        assert sum(1 for line in lines if line.startswith("digits")) == 1
        assert len(lines) == 1 + len(ws)
        assert lines[1].split(",")[0] == "4;2"

    def test_empty_stream_gives_empty_file(self, tmp_path):
        target = tmp_path / "empty.jsonl"
        export([], "jsonl", target)
        assert target.read_text() == ""

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export([], "xml", io.StringIO())

    def test_corrupted_witness_cannot_be_exported(self):
        w = self.witness()
        object.__setattr__(w, "k", 3)
        with pytest.raises(ValueError):
            export([w], "jsonl", io.StringIO())

    def test_determinism_across_worker_counts(self, tmp_path):
        paths = []
        for workers in (1, 2, 4):
            path = tmp_path / f"w{workers}.jsonl"
            export(
                exhaustive_search(SearchConfig(length=(2, 3), max_digit=9, workers=workers)),
                "jsonl",
                path,
            )
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_record_round_trip(self):
        record = witness_record(self.witness())
        assert record["digits"] == "7;1,3"
        assert record["value"] == {"p": "31", "q": "4"}
        assert list(record["flags"]) == [
            "continuant_preserving",
            "perfect",
            "symmetric",
            "landess",
            "reverse_multiple",
        ]
