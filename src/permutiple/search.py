"""Exhaustive permutiple search over bounded digit strings.

Each length's digit multisets are enumerated once, lazily; a multiset in
which no digit is at most half another is skipped, as none of its bases
can have a partner.  A multiset gets one table of its distinct
arrangements in lexicographic order, each with its value p/q: a row is a
digit in front of a row of the multiset less that digit, whose table is
built once per scanned part and kept for the longer multisets after it.
A base (a0 >= 2, last digit >= 2 unless non-canonical bases are searched)
can only have partners led by digits <= a0 // 2, a prefix of the table.
It scans that prefix, or looks up the one partner value p / (k*q) of each
multiplier k its lead allows in a (p, q) index of the table; each lead
group picks one of the two by its own prefix length and multiplier count.
Either way the candidates go through the exact test that
``classify.find_witnesses`` uses too.  A config is refused when its
longest length has over ``MAX_MULTISETS`` multisets or its shorter tables
would hold over ``MAX_TABLE_ROWS`` rows.  Worker processes take strided
parts of each length's multisets; the parts' hits are sorted by base per
length before they are classified, so the output stream is in (length,
digits, permuted) order and identical for any worker count.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .cf import format_cf
from .classify import (
    FLAG_ORDER,
    Witness,
    _hits,
    _k_range,
    _witness_list,
    format_permutation,
)

# Worker processes a scan may start: the pool forks them all at once.
MAX_WORKERS = 64
# Digit multisets of the longest searched length, C(max_digit + m - 1, m),
# that a config may ask for; past this a scan would not finish.
MAX_MULTISETS = 10**8
# Rows that the tables of one length's shorter multisets may hold: a length-m
# scan keeps them all, at most max_digit**j rows of each length j < m, in
# each worker process.
MAX_TABLE_ROWS = 10**6


@dataclass(frozen=True)
class SearchConfig:
    """Bounds and execution knobs for one exhaustive scan.

    ``length`` is a digit count (n+1) or an inclusive (low, high) range;
    ``max_digit`` bounds every digit.  With ``dedupe`` (the default) one
    witness is emitted per distinct permuted string, carrying the canonical
    sigma; without it every realizing permutation is emitted.
    """

    length: int | tuple[int, int]
    max_digit: int
    k_min: int | None = None
    k_max: int | None = None
    canonical_only: bool = True
    workers: int = 1
    dedupe: bool = True

    def __post_init__(self) -> None:
        low, high = self._bounds()  # checked before lengths() builds the range
        if low > high:
            raise ValueError(f"empty length range {self.length!r}: low exceeds high")
        if low < 2:
            raise ValueError("searched lengths must be >= 2")
        if self.max_digit < 2:
            raise ValueError("max_digit must be >= 2")
        # Both counts grow with the length, so walking the lengths up to the
        # longest and stopping at the first over a bound never computes
        # either far past it.
        d = self.max_digit
        multisets = rows = d  # of length 1
        for m in range(2, high + 1):
            multisets = multisets * (d + m - 1) // m  # C(d + m - 1, m)
            if multisets > MAX_MULTISETS:
                raise ValueError(
                    f"length {high} with digits <= {d} is over {MAX_MULTISETS} multisets"
                )
            if rows > MAX_TABLE_ROWS:  # d + d**2 + ... + d**(m-1)
                raise ValueError(
                    f"length {high} with digits <= {d} is over {MAX_TABLE_ROWS} rows"
                    " of shorter tables"
                )
            rows = rows * d + d
        if self.k_min is not None and self.k_min < 2:
            raise ValueError("k_min must be >= 2 when given")
        if self.k_max is not None and self.k_max < (self.k_min or 2):
            raise ValueError(f"empty multiplier range: k_max {self.k_max} < {self.k_min or 2}")
        if self.workers < 1:
            raise ValueError("workers must be a positive integer")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be <= {MAX_WORKERS}")

    def _bounds(self) -> tuple[int, int]:
        return (self.length, self.length) if isinstance(self.length, int) else self.length

    def lengths(self) -> tuple[int, ...]:
        low, high = self._bounds()
        return tuple(range(low, high + 1))


# (base digits, its (permuted, k) hits ordered by permuted string)
_Hits = tuple[tuple[int, ...], list[tuple[tuple[int, ...], int]]]
# (arrangement, p, q): an arrangement of a multiset and its value p/q
_Row = tuple[tuple[int, ...], int, int]


def _scan_part(args: tuple[SearchConfig, int, int]) -> list[_Hits]:
    """Hits of every base in one strided part of the length-m multisets."""
    config, m, part = args
    k_bounds = (config.k_min or 2, math.inf if config.k_max is None else config.k_max)
    multisets = itertools.combinations_with_replacement(range(1, config.max_digit + 1), m)
    memo: dict[tuple[int, ...], list[_Row]] = {}
    out: list[_Hits] = []
    for multiset in itertools.islice(multisets, part, None, config.workers):
        # a partner is led by a digit <= a0 // 2, so some digit must be <= half another
        if 2 * multiset[0] <= multiset[-1]:
            out += _multiset_hits(multiset, config.canonical_only, k_bounds, memo)
    return out


def _arrangement_table(
    multiset: tuple[int, ...], memo: dict[tuple[int, ...], list[_Row]]
) -> list[_Row]:
    """(arrangement, p, q) for each distinct arrangement of a sorted multiset,
    in lexicographic order, with p/q its value in lowest terms.

    Each distinct digit d, ascending, goes in front of every row (tail, p, q)
    of the table of the multiset less d, in that table's order, with the
    value (d*p + q) / p.  Continuants are coprime, so no fraction needs
    reducing, and no permutation or sort is walked.  The tables of the
    shorter multisets come from ``memo``, or are built and kept there; the
    table returned is not kept.  A one-digit tail (e,) is e/1, so two-digit
    rows are built without a lookup; the empty multiset's one row is
    (), 1, 0, as in ``_continuant_pair``.
    """
    if not multiset:
        return [((), 1, 0)]
    rows: list[_Row] = []
    previous = None
    for i, d in enumerate(multiset):
        if d == previous:
            continue
        previous = d
        rest = multiset[:i] + multiset[i + 1 :]
        if len(rest) == 1:
            e = rest[0]
            rows.append(((d, e), d * e + 1, e))
            continue
        tails = memo.get(rest)
        if tails is None:
            tails = memo[rest] = _arrangement_table(rest, memo)
        head = (d,)
        rows += [(head + tail, d * p + q, p) for tail, p, q in tails]
    return rows


def _multiset_hits(
    multiset: tuple[int, ...],
    canonical_only: bool,
    k_bounds: tuple[int, float],
    memo: dict[tuple[int, ...], list[_Row]],
) -> list[_Hits]:
    """Hits of every base arranged from one sorted digit multiset.

    Its table is built from the shorter tables in ``memo``, the one memo of
    the part being scanned, and is dropped once its bases are tested.
    A base's partners are the arrangements led by a digit <= a0 // 2: the
    table prefix ``table[:end]``, tested row by row.  The other way is one
    (p, q) index lookup per multiplier in the lead's ``_k_range``, which
    costs about m row tests for m digits.  So a lead group inverts when its
    k count times m is below ``end``.  A prefix of at most m rows costs no
    more than one lookup, so it is scanned without measuring.  The first
    group that looks anything up builds the index.
    """
    m, smallest = len(multiset), multiset[0]
    table = _arrangement_table(multiset, memo)
    index = None
    out: list[_Hits] = []
    lead = end = 0
    for base, p, q in table:
        if base[0] != lead:
            lead = base[0]
            while table[end][0][0] <= lead // 2:
                end += 1
            invert = False
            if end > m:
                ks = _k_range(lead, 1, table[end - 1][0][0], smallest, k_bounds)
                invert = len(ks) * m < end
                if invert and ks and index is None:
                    index = {(row[1], row[2]): row for row in table}
        if end == 0 or (canonical_only and base[-1] < 2):
            continue
        if invert:
            found = []
            for k in ks:
                # p/q == k * p'/q' in lowest terms: p'/q' is (p/g) / (k*q/g), g = gcd(p, k)
                g = math.gcd(p, k)
                row = index.get((p // g, k * q // g))
                if row is not None:
                    found.append(row)
            hits = _hits(p, q, sorted(found), k_bounds)
        else:
            hits = _hits(p, q, table[:end], k_bounds)
        if hits:
            out.append((base, hits))
    return out


def _by_length(config: SearchConfig, parts: Iterator[list[_Hits]]) -> Iterator[Witness]:
    """Merge each length's parts by base, then classify the hits in that order."""
    for _ in config.lengths():
        found = itertools.chain.from_iterable(itertools.islice(parts, config.workers))
        for base, hits in sorted(found):
            yield from _witness_list(base, hits, not config.dedupe, not config.canonical_only)


def exhaustive_search(config: SearchConfig) -> Iterator[Witness]:
    """Stream every witness within the configured bounds.

    Output order is (length, digit string, permuted string) lexicographic,
    with the image list as a final tie-break when dedupe is off; the order
    does not depend on the worker count.
    """
    tasks = [(config, m, part) for m in config.lengths() for part in range(config.workers)]
    if config.workers == 1:
        yield from _by_length(config, map(_scan_part, tasks))
        return
    from concurrent.futures import ProcessPoolExecutor  # only a forking scan pays its import

    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        yield from _by_length(config, pool.map(_scan_part, tasks))


# conjecture id -> (statement, predicate every witness must satisfy)
_CONJECTURES: dict[str, tuple[str, Callable[[Witness], bool]]] = {
    "c1": (
        "every 4-digit permutiple is symmetric",
        lambda w: len(w.cf) != 4 or w.flags.symmetric,
    ),
    "c2": ("every permutiple is continuant-preserving", lambda w: w.flags.continuant_preserving),
    "c3": (
        "every symmetric permutiple is a landess permutiple",
        lambda w: not w.flags.symmetric or w.flags.landess,
    ),
    "c4": (
        "every 4-digit permutiple is perfect or a reverse multiple",
        lambda w: len(w.cf) != 4 or w.flags.perfect or w.flags.reverse_multiple,
    ),
}

CONJECTURE_IDS = tuple(_CONJECTURES)


@dataclass
class ConjectureReport:
    """Outcome of scanning one conjecture over a witness stream.

    An empty counterexample list means the conjecture held within the
    searched bounds; it is never a proof.
    """

    conjecture: str
    bounds: str
    examined: int = 0
    counterexamples: list[Witness] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def holds_within_bounds(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        status = (
            "0 counterexamples"
            if self.holds_within_bounds
            else f"{len(self.counterexamples)} COUNTEREXAMPLES"
        )
        return (
            f"conjecture {self.conjecture} ({_CONJECTURES[self.conjecture][0]}): "
            f"{status} among {self.examined} witnesses"
            f" [{self.bounds}] in {self.wall_time:.2f}s"
        )


def check_conjectures(
    stream: Iterable[Witness], which: Iterable[str], bounds: str = ""
) -> dict[str, ConjectureReport]:
    """Evaluate the requested conjecture predicates over one witness stream."""
    ids = list(which)
    for conjecture in ids:
        if conjecture not in _CONJECTURES:
            raise ValueError(f"unknown conjecture id {conjecture!r}")
    reports = {c: ConjectureReport(conjecture=c, bounds=bounds) for c in ids}
    start = time.perf_counter()
    for w in stream:
        for c in ids:
            reports[c].examined += 1
            if not _CONJECTURES[c][1](w):
                reports[c].counterexamples.append(w)
    elapsed = time.perf_counter() - start
    for c in ids:
        reports[c].wall_time = elapsed
    return reports


def witness_record(w: Witness) -> dict:
    """Fixed-schema JSON object for one witness; p and q are decimal strings
    so consumers with bounded integers cannot truncate them."""
    return {
        "digits": format_cf(w.cf),
        "sigma": format_permutation(w.sigma),
        "k": w.k,
        "value": {"p": str(w.value.numerator), "q": str(w.value.denominator)},
        "flags": {name: getattr(w.flags, name) for name in FLAG_ORDER},
    }


def _write_jsonl(witnesses: Iterable[Witness], handle: io.TextIOBase) -> int:
    count = 0
    for count, w in enumerate(witnesses, 1):
        handle.write(json.dumps(witness_record(w), separators=(",", ":")) + "\n")
    return count


def _write_csv(witnesses: Iterable[Witness], handle: io.TextIOBase) -> int:
    writer = csv.writer(handle)
    writer.writerow(["digits", "sigma", "k", "p", "q", "flags"])
    count = 0
    for count, w in enumerate(witnesses, 1):
        writer.writerow(
            [
                format_cf(w.cf),
                format_permutation(w.sigma),
                w.k,
                str(w.value.numerator),
                str(w.value.denominator),
                "|".join(w.flags.true_names()),
            ]
        )
    return count


def export(witnesses: Iterable[Witness], fmt: str = "jsonl", destination="-") -> int:
    """Write witnesses to a path, an open handle, or '-' for stdout, and
    return how many were written.

    Each witness is checked again on the way out (``Witness.verify`` on the
    continuants it walked when built), so a k altered since is refused.
    """
    checked = (w.verify() for w in witnesses)
    if fmt == "jsonl":
        writer = _write_jsonl
    elif fmt == "csv":
        writer = _write_csv
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    if hasattr(destination, "write"):
        return writer(checked, destination)
    if destination == "-":
        return writer(checked, sys.stdout)
    with open(Path(destination), "w", newline="") as handle:
        return writer(checked, handle)
