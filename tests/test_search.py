import collections
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import re
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
    continuant,
    evaluate,
    exhaustive_search,
    export,
    find_witnesses,
    perfect_reverse,
    witness_record,
)
from permutiple import search
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

    def test_bounds_text(self):
        assert SearchConfig(length=4, max_digit=20).bounds_text() == "length 4, digits <= 20"
        assert SearchConfig(length=(3, 3), max_digit=7).bounds_text() == "length 3, digits <= 7"
        text = SearchConfig(length=(2, 5), max_digit=12).bounds_text()
        assert text == "lengths 2..5, digits <= 12"

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
        # 4 + 4**2 + ... + 4**10 = 1 398 100 rows of shorter tables: accepted; to 4**11, refused
        assert sum(4**j for j in range(1, 11)) <= MAX_TABLE_ROWS < sum(4**j for j in range(1, 12))
        SearchConfig(length=11, max_digit=4)
        for length, max_digit in ((12, 4), ((2, 11), 5), ((2, 10**12), 5), ((2, 10**12), 2)):
            with pytest.raises(ValueError, match=f"over {MAX_TABLE_ROWS} rows"):
                SearchConfig(length=length, max_digit=max_digit)  # before the range is built
        with pytest.raises(ValueError, match="multisets"):  # no C(10**12 + 10**6, 10**6) either
            SearchConfig(length=(2, 10**12), max_digit=10**6)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("length", 3.0),
            ("length", True),
            ("length", (2, 3.0)),
            ("length", [2, 3]),
            ("max_digit", 5.5),
            ("max_digit", True),
            ("k_min", 2.5),
            ("k_min", True),
            ("k_max", 3.5),
            ("k_max", True),
            ("workers", 1.5),
            ("workers", True),
        ],
    )
    def test_refuses_non_integer_fields(self, field, value):
        # refused when built, not once the scan starts: a float k_min would
        # otherwise reach the k bounds in _by_length and drop k = 2 hits at 3/<=5
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SearchConfig(**{"length": 3, "max_digit": 5, field: value})

    def test_out_of_range_lengths_and_workers_are_named(self):
        for length, low in ((1, 1), ((0, 3), 0), ((-5, -5), -5)):
            with pytest.raises(ValueError, match=f"^searched lengths must be >= 2, not {low}$"):
                SearchConfig(length=length, max_digit=5)
        for workers in (MAX_WORKERS + 1, 10**5):
            message = f"^workers must be <= {MAX_WORKERS}, not {workers}$"
            with pytest.raises(ValueError, match=message):
                SearchConfig(length=2, max_digit=3, workers=workers)

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
        # Multisets of up to 210 arrangements, many with repeated digits, so
        # partner buckets often hold an arrangement and its reversal, which
        # share a continuant; k_min = 3 leaves every canonical base here
        # without a hit.
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
        # p / (k*q), with no arrangement table and no ratio test; only the
        # Witness that proves each hit is shared
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
            ((2, 3), 60, 454, "8d6f70dac7a06500395f90cbd2bb427fd859c695fd8a7baeab88b51d66e11dc8"),
        ],
    )
    def test_baseline_bounds_are_pinned(self, length, max_digit, count, sha256):
        # the ROADMAP's four baseline scans, recorded from the per-tuple loop
        # that tested every tuple's own arrangements, and the lengths 2..3
        # scan whose bytes perfbench's scan-short workload checks
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

    @pytest.mark.parametrize(
        "length, max_digit, workers",
        # the last two have fewer one-digit prefixes than workers
        [(3, 8, 3), (2, 3, 8), ((2, 3), 7, 8)],
    )
    def test_worker_counts_agree(self, length, max_digit, workers):
        serial = run(SearchConfig(length=length, max_digit=max_digit))
        parallel = run(SearchConfig(length=length, max_digit=max_digit, workers=workers))
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
            assert evaluate(w.cf) == w.k * evaluate(w.permuted)
            assert w.cf.digits[0] > w.permuted.digits[0]


def empty_store(max_digit):
    """A table store whose missing columns have a slot per digit <= max_digit."""
    return collections.defaultdict(lambda: [None] * (max_digit + 1))


class TestArrangementTable:
    def test_long_multiset_with_repeated_digits(self):
        multiset = (1, 1, 1, 1, 1, 1, 2, 4)
        table = search._table(multiset, empty_store(4))
        arrangements = sorted(set(itertools.permutations(multiset)))
        assert len(table) == 56  # 8! / 6! distinct rows, against 8! = 40 320 orderings
        assert table == [(continuant(a), continuant(a[1:]), a[-1]) for a in arrangements]
        # 42 of them end in 1, so their Euclid expansion is a digit short
        assert [search._arrangement(p, q, 8) for p, q, _ in table] == arrangements

    def test_store_holds_only_shorter_tables(self):
        store = empty_store(4)
        for prefix in itertools.combinations_with_replacement(range(1, 5), 5):
            search._prefix_hits(prefix, 4, True, store)
        # length-6 multisets: every table of lengths 1..5 sits at index c of
        # the column of the multiset less its largest digit c, and no
        # top-length table is built
        lengths = set()
        for rest, column in store.items():
            assert len(column) == 5
            for c, table in enumerate(column):
                if table is not None:
                    lengths.add(len(rest) + 1)
                    assert table == search._table(rest + (c,), empty_store(4))
        assert lengths == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("canonical_only", [True, False])
    def test_every_row_is_coprime(self, canonical_only):
        # a row (p, q, last) is d in front of a coprime row (p_t, q_t, last)
        # with p = d*p_t + q_t and q = p_t, so gcd(p, q) = gcd(q_t, p_t) = 1;
        # the divisor lookup's test of q' alone, for a j that divides p,
        # rests on it
        store = empty_store(6)
        for prefix in itertools.combinations_with_replacement(range(1, 7), 5):
            search._prefix_hits(prefix, 6, canonical_only, store)
        rows = [row for column in store.values() for table in column if table for row in table]
        assert len(rows) == 6 + 6**2 + 6**3 + 6**4 + 6**5
        assert all(math.gcd(p, q) == 1 for p, q, _ in rows)


class TestPrefixHits:
    def test_partners_at_a_proper_divisor_of_p_are_candidates(self):
        # 5;1,1,1,5 has p = 96 and q = 17, and no partner at p' = 96 (its
        # reversal is itself, led by 5 > 5 // 2).  A row (17, 31, 2) slipped
        # into the table of (1, 1, 5, 5) becomes the partner row led by 1
        # with p' = 1*17 + 31 = 48 = 96 / 2 and q' = 17, so only the j = 2
        # lookup reaches it, where j*q' == k*q reads 2*17 == k*17, so k = 2;
        # its digits are the 5-digit expansion of 48/17
        store = empty_store(5)
        search._table((1, 1, 5, 5), store)
        store[(1, 1, 5)][5].append((17, 31, 2))
        assert (continuant((5, 1, 1, 1, 5)), continuant((1, 1, 1, 5))) == (96, 17)
        assert search._arrangement(48, 17, 5) == (2, 1, 4, 1, 2)
        # max_digit 5 leaves the one multiset (1, 1, 1, 5) + (5,)
        assert search._prefix_hits((1, 1, 1, 5), 5, True, store) == [
            ((5, 1, 1, 1, 5), [((2, 1, 4, 1, 2), 2)])
        ]

    def test_prefix_with_no_partner_gives_no_hits(self):
        # every c <= max_digit is below 2 * R[0]: no digit is at most half
        # another, so there is no partner row and no base lead
        for prefix, max_digit in (((1, 1, 1, 1, 1), 1), ((2,), 3), ((3, 4), 5)):
            store = empty_store(max_digit)
            assert search._prefix_hits(prefix, max_digit, False, store) == []
            assert store == {}

    def test_length_two_reads_the_column_of_the_empty_rest(self):
        # R = (r,) less its lead is (): every one-digit table (c,) sits in
        # the one column store[()]
        store = empty_store(8)
        hits = []
        for r in range(1, 9):
            hits += search._prefix_hits((r,), 8, True, store)
        assert list(store) == [()]
        assert store[()] == [None] + [[(e, 1, e)] for e in range(1, 9)]
        assert sorted(hits) == sorted(
            (base, sorted(oracle_hits(base).items()))
            for base in itertools.product(range(1, 9), repeat=2)
            if base[-1] >= 2 and oracle_hits(base)
        )
        assert len(hits) == 5


class TestConjectures:
    def test_reports_hold_at_tiny_bounds(self):
        stream = run(SearchConfig(length=(2, 4), max_digit=6))
        reports = check_conjectures(stream, ["c1", "c2", "c3", "c4"], bounds="tiny")
        for conjecture, report in reports.items():
            assert report.holds_within_bounds, conjecture
            assert report.examined == len(stream)
            assert report.bounds == "tiny"
            assert "0 counterexamples" in report.summary()
        # one walk, timed once, fills in every report; each hashes like any record
        assert len({(r.examined, r.wall_time) for r in reports.values()}) == 1
        assert len(set(reports.values())) == len(reports) == 4

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            check_conjectures([], ["c9"])

        # no id at all is refused before the scan starts, not after it
        def unread():
            raise AssertionError("the stream was read")
            yield

        with pytest.raises(ValueError, match="^conjecture ids must name at least one conjecture$"):
            check_conjectures(unread(), [])

    def test_a_bare_string_is_refused_not_read_as_characters(self):
        # "c2" was walked as "c", "2" and refused as "unknown conjecture id 'c'"
        with pytest.raises(ValueError, match="not the string 'c2'"):
            check_conjectures([], "c2")

    def test_repeated_id_is_counted_once(self, monkeypatch):
        scan = search._CONJECTURES["c2"][2]
        monkeypatch.setitem(
            search._CONJECTURES, "c2", ("every permutiple doubles", lambda w: w.k == 2, scan)
        )
        stream = run(SearchConfig(length=2, max_digit=8))
        reports = check_conjectures(stream, ["c2", "c2"])
        assert list(reports) == ["c2"]
        assert reports["c2"].examined == len(stream) == 5
        assert [w.cf.digits for w in reports["c2"].counterexamples] == [(6, 2), (8, 2)]
        with pytest.raises(ValueError):
            check_conjectures([], ["c2", "c9", "c2"])

    def test_counterexamples_are_collected(self, monkeypatch, capsys):
        # no stated conjecture fails at tiny bounds, so c2 is swapped for a
        # predicate that the k = 3 and k = 4 witnesses of length 2 fail
        statement = "every permutiple doubles"
        scan = search._CONJECTURES["c2"][2]  # the row keeps c2's default scan
        monkeypatch.setitem(search._CONJECTURES, "c2", (statement, lambda w: w.k == 2, scan))
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
        for fmt in (["jsonl"], None, "JSONL"):
            with pytest.raises(ValueError, match=f"^unknown export format {re.escape(repr(fmt))}$"):
                export([self.witness()], fmt, io.StringIO())

    def test_formats_are_the_writer_table(self):
        assert tuple(search._WRITERS) == ("jsonl", "csv")
        default, jsonl = io.StringIO(), io.StringIO()
        assert export([self.witness()], destination=default) == 1  # JSONL by default
        export([self.witness()], "jsonl", jsonl)
        assert default.getvalue() == jsonl.getvalue()

    def test_corrupted_witness_cannot_be_exported(self):
        w = self.witness()
        export([w], "jsonl", io.StringIO())  # its text is formatted and kept
        object.__setattr__(w, "k", 3)
        for fmt in ("jsonl", "csv"):
            with pytest.raises(ValueError):
                export([w], fmt, io.StringIO())

    def exported_list(self):
        # short and non-canonical search witnesses, and a 100-digit one
        ws = run(SearchConfig(length=(2, 3), max_digit=12, canonical_only=False))
        return ws + [perfect_reverse(3, tuple(range(1, 51)))]

    def test_jsonl_and_csv_agree_field_by_field(self):
        ws = self.exported_list()
        jsonl, table = io.StringIO(), io.StringIO()
        export(ws, "jsonl", jsonl)
        export(ws, "csv", table)
        records = [json.loads(line) for line in jsonl.getvalue().splitlines()]
        rows = list(csv.reader(io.StringIO(table.getvalue())))
        assert rows[0] == ["digits", "sigma", "k", "p", "q", "flags"]
        assert len(records) == len(rows) - 1 == len(ws)
        for w, record, row in zip(ws, records, rows[1:]):
            flags = [name for name, value in record["flags"].items() if value]
            assert row == [
                record["digits"],
                record["sigma"],
                str(record["k"]),
                record["value"]["p"],
                record["value"]["q"],
                "|".join(flags),
            ]
            assert ContinuedFraction.parse(row[0]) == w.cf
            assert Permutation.parse(row[1]) == w.sigma
            value = evaluate(w.cf)
            assert (int(row[3]), int(row[4])) == (value.numerator, value.denominator)

    def test_each_witness_is_formatted_once_across_formats(self, monkeypatch):
        classify_module = sys.modules["permutiple.classify"]
        calls = collections.Counter()
        for name in ("format_cf", "format_permutation"):

            def counting(x, name=name, original=getattr(classify_module, name)):
                calls[name] += 1
                return original(x)

            monkeypatch.setattr(classify_module, name, counting)
        ws = self.exported_list()
        once = {"format_cf": len(ws), "format_permutation": len(ws)}
        export(ws, "jsonl", io.StringIO())
        assert calls == once
        export(ws, "csv", io.StringIO())
        assert calls == once

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
