"""Exhaustive permutiple search over bounded digit strings.

Each length's digit multisets are walked as R + (c,): a sorted prefix R of
all but the largest digit, then each largest digit c from
max(R[-1], 2 * R[0]) up, so a multiset in which no digit is at most half
another is never visited, as none of its bases can have a partner.  A base
(a0 >= 2, last digit >= 2 unless non-canonical bases are searched) can only
have partners led by digits <= a0 // 2.  Arrangements are rows
(p, q, last) with p/q the value and last the last digit, and no digits: a
row is a digit d in front of a row (p_t, q_t, last) of the multiset less d,
with value (d*p_t + q_t) / p_t.  The tables of those shorter multisets are
built once per scanned part and kept for the multisets after it in one
store: a multiset's table sits at index c, its largest digit, of the column
of the multiset less c.  A prefix fetches R's table and the column of each
R less d once, so a multiset costs no slice and no hash.  Per multiset, the
rows led by digits at most half the largest go into one dict keyed by the
top continuant p', each as its q'.  Each base's value is read off the rows
of its tail, and its candidates are the rows at p' = p // j for the
divisors j of p, as a hit has p/q == k * p'/q' in lowest terms, so p'
divides p.  Nearly always that is the one lookup j = 1, where a hit is
q' == k*q; at p' = p // j it is j*q' == k*q, for every k >= 2.  Digits
are rebuilt from p/q, by Euclid's algorithm, only for a base with a hit
and its hit partners.  A config is refused when its longest length has
over ``MAX_MULTISETS`` multisets or its shorter tables would hold over
``MAX_TABLE_ROWS`` rows.  Worker processes take strided parts of each
length's prefixes; the parts' hits are sorted by base per length, and the
hits whose k is outside [k_min, k_max] dropped, before they are
classified, so the output stream is in (length, digits, permuted) order
and identical for any worker count.
"""

from __future__ import annotations

import collections
import io
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator

from .cf import _check_int, _euclid, _is_int, _ratio_record, _Record
from .classify import FLAG_ORDER, Witness, _witness_list

# Worker processes a scan may start: the pool forks them all at once.
MAX_WORKERS = 64
# Digit multisets of the longest searched length, C(max_digit + m - 1, m),
# that a config may ask for; past this a scan would not finish.
MAX_MULTISETS = 10**8
# Rows that the tables of one length's shorter multisets may hold: a length-m
# scan keeps them all, at most max_digit**j rows of each length j < m, in
# each worker process (in its one table store).  A row is three ints and no
# digits, so the most this admits (11 digits <= 4, 1 398 100 rows) peaks
# near 160 MB.
MAX_TABLE_ROWS = 2 * 10**6


class SearchConfig(_Record):
    """Bounds and execution knobs for one exhaustive scan.

    ``length`` is a digit count (n+1) or an inclusive (low, high) range;
    ``max_digit`` bounds every digit.  With ``dedupe`` (the default) one
    witness is emitted per distinct permuted string, carrying the canonical
    sigma; without it every realizing permutation is emitted.
    """

    __slots__ = _fields = (
        "length",
        "max_digit",
        "k_min",
        "k_max",
        "canonical_only",
        "workers",
        "dedupe",
    )

    def __init__(
        self,
        length: int | tuple[int, int],
        max_digit: int,
        k_min: int | None = None,
        k_max: int | None = None,
        canonical_only: bool = True,
        workers: int = 1,
        dedupe: bool = True,
    ) -> None:
        if not (
            _is_int(length)
            or (isinstance(length, tuple) and len(length) == 2 and all(map(_is_int, length)))
        ):
            raise ValueError(f"length must be an integer or a pair of them, not {length!r}")
        low, high = self._bounds(length)  # checked before lengths() builds the range
        if low > high:
            raise ValueError(f"empty length range {length!r}: low exceeds high")
        if low < 2:
            raise ValueError(f"searched lengths must be >= 2, not {low}")
        _check_int(max_digit, "max_digit", 2)
        # Both counts grow with the length, so walking the lengths up to the
        # longest and stopping at the first over a bound never computes
        # either far past it.
        d = max_digit
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
        if k_min is not None:
            _check_int(k_min, "k_min", 2)
        if k_max is not None:
            _check_int(k_max, "k_max")
            if k_max < (k_min or 2):
                raise ValueError(f"empty multiplier range: k_max {k_max} < {k_min or 2}")
        _check_int(workers, "workers", 1)
        if workers > MAX_WORKERS:
            raise ValueError(f"workers must be <= {MAX_WORKERS}, not {workers}")
        self._set(length, max_digit, k_min, k_max, canonical_only, workers, dedupe)

    @staticmethod
    def _bounds(length: int | tuple[int, int]) -> tuple[int, int]:
        return (length, length) if isinstance(length, int) else length

    def lengths(self) -> tuple[int, ...]:
        low, high = self._bounds(self.length)
        return tuple(range(low, high + 1))

    def bounds_text(self) -> str:
        """The bounds as a report states them: "lengths 2..5, digits <= 12"."""
        low, high = self._bounds(self.length)
        length = f"length {low}" if low == high else f"lengths {low}..{high}"
        return f"{length}, digits <= {self.max_digit}"


# (base digits, its (permuted, k) hits ordered by permuted string)
_Hits = tuple[tuple[int, ...], list[tuple[tuple[int, ...], int]]]
# (p, q, last): an arrangement's value p/q and its last digit
_Row = tuple[int, int, int]
# sorted multiset less its largest digit -> the tables of it plus each digit,
# indexed by that digit; a missing column is made with every slot None
_Store = collections.defaultdict[tuple[int, ...], list[list[_Row] | None]]


def _scan_part(args: tuple[SearchConfig, int, int]) -> list[_Hits]:
    """Hits of every base in one part of the length-m multisets: the
    multisets R + (c,) of every sorted (m-1)-digit prefix R in a strided
    part of the prefixes, with each largest digit c >= R[-1]."""
    config, m, part = args
    size = config.max_digit + 1
    store: _Store = collections.defaultdict(lambda: [None] * size)
    prefixes = itertools.combinations_with_replacement(range(1, size), m - 1)
    out: list[_Hits] = []
    for prefix in itertools.islice(prefixes, part, None, config.workers):
        out += _prefix_hits(prefix, config.max_digit, config.canonical_only, store)
    return out


def _table(multiset: tuple[int, ...], store: _Store) -> list[_Row]:
    """(p, q, last) for each distinct arrangement of a non-empty sorted
    multiset, in lexicographic order of the arrangements, with p/q its value
    in lowest terms and last its last digit.  The table is taken from its
    slot in ``store``, at index multiset[-1] of the column
    ``store[multiset[:-1]]``, or built and kept there.

    A one-digit multiset (e,) has the one row (e, 1, e).  Otherwise each
    distinct digit d, ascending, goes in front of every row (p, q, last) of
    the table of the multiset less d, in that table's order, with the value
    (d*p + q) / p and the same last digit.  Continuants are coprime, so no
    fraction needs reducing, and no permutation or sort is walked.  A row
    holds no digits: ``_arrangement`` rebuilds them from p/q.
    """
    column = store[multiset[:-1]]
    table = column[multiset[-1]]
    if table is not None:
        return table
    if len(multiset) == 1:
        e = multiset[0]
        table = [(e, 1, e)]
    else:
        table = []
        previous = None
        for i, d in enumerate(multiset):
            if d == previous:
                continue
            previous = d
            tails = _table(multiset[:i] + multiset[i + 1 :], store)
            table += [(d * p + q, p, last) for p, q, last in tails]
    column[multiset[-1]] = table
    return table


def _arrangement(p: int, q: int, m: int) -> tuple[int, ...]:
    """The m-digit arrangement with value p/q: its Euclid expansion, with the
    last digit a split into a-1, 1 when the expansion has m-1 digits.  A
    rational has two expansions, whose lengths differ by one, so this is the
    only one with m digits."""
    digits = list(_euclid(p, q))
    if len(digits) < m:
        digits[-1:] = (digits[-1] - 1, 1)
    return tuple(digits)


def _prefix_hits(
    prefix: tuple[int, ...], max_digit: int, canonical_only: bool, store: _Store
) -> list[_Hits]:
    """Hits of every base arranged from a multiset R + (c,), for one sorted
    prefix R and each largest digit c from max(R[-1], 2 * R[0]) up to
    ``max_digit``, found by a divisor join on the top continuant.

    Below 2 * R[0] no digit is at most half another, so a multiset has
    neither partners nor bases.  The multiset less its lead c is R, whose
    table is fetched once for every c.  Less any other lead d it is
    (R less d) + (c,), whose table sits at index c of the column
    ``store[R less d]``, fetched once per prefix and filled on first use, so
    no multiset is sliced or hashed per c.  Each c takes two passes.  The
    first puts the partner rows, those led by a digit d <= c // 2, into
    ``by_p``: each goes in as its q' (the p of its tail), keyed by p', lead
    by lead and tail by tail, so each bucket is in lexicographic order of
    the partners' arrangements.  The second tests the bases, led by
    a0 >= 2 * R[0], the lead c last: a base's value (a0*p_t + q_t) / p_t is
    read off each row of the table of the multiset less a0.  A base's
    partners are led by digits <= a0 // 2.  Those led above that are in
    ``by_p`` too, but their value is over half the base's, so no k >= 2
    fits and neither lookup below keeps them.

    For a hit, p/q == k * p'/q' in lowest terms, so p' divides p, and p'
    >= min(by_p) bounds p/p'.  Below 2 * min(by_p) the one candidate bucket
    is p' = p, where p/q == k * p/q' says q' == k*q: each q' there is tested
    inline, with no digits built.  Otherwise the candidates are the
    buckets p // j for each j | p, where p/q == k * (p/j)/q' says
    j*q' == k*q.  Every row is coprime, so p = d*q + q_t is prime to q and
    so is its divisor j: q divides j*q' exactly when it divides q', the
    inline test for any j.  Only a base with a hit and its hit partners are
    rebuilt to digits, by ``_arrangement``.  A base's hits are in permuted
    order: a bucket's order, or the merged buckets' hits sorted.  Hits come
    by c, then by base, with every k >= 2.
    """
    double = 2 * prefix[0]
    first = max(prefix[-1], double)
    if first > max_digit:
        return []
    m = len(prefix) + 1
    leads = []  # (d, R less d, its column) for each distinct digit d of R, ascending
    previous = None
    for i, d in enumerate(prefix):
        if d != previous:
            previous = d
            rest = prefix[:i] + prefix[i + 1 :]
            leads.append((d, rest, store[rest]))
    bases = [lead for lead in leads if lead[0] >= double]
    # the lead c, last: 0 stands for c, and every slot holds R's table
    bases.append((0, prefix, [_table(prefix, store)] * (max_digit + 1)))
    floor = 2 if canonical_only else 0  # a canonical base ends in a digit >= 2
    out: list[_Hits] = []
    for c in range(first, max_digit + 1):
        half = c // 2
        by_p: dict[int, list[int]] = {}  # p' -> the q' of each partner row
        least = twice = math.inf  # the smallest p' in by_p, and twice that
        for d, rest, column in leads:
            if d > half:
                break
            for p, q, _ in column[c] or _table(rest + (c,), store):
                pp = d * p + q
                bucket = by_p.get(pp)
                if bucket is None:
                    by_p[pp] = [p]
                    if pp < least:
                        least, twice = pp, 2 * pp
                else:
                    bucket.append(p)
        for d, rest, column in bases:
            if d == c:
                continue  # R's largest digit is the lead c, taken last
            d = d or c
            for pt, qt, last in column[c] or _table(rest + (c,), store):
                if last < floor:
                    continue
                p = d * pt + qt
                if p < twice:
                    bucket = by_p.get(p)
                    if bucket is None:
                        continue
                    for qp in bucket:  # p/pt == k * p/qp: qp == k*pt, k >= 2
                        if qp > pt and not qp % pt:
                            break
                    else:
                        continue  # no hit: nothing built, and no call made
                    hits = [
                        (_arrangement(p, qp, m), qp // pt)
                        for qp in bucket
                        if qp > pt and not qp % pt
                    ]
                else:  # p/pt == k * (p/j)/qp: j*qp == k*pt, k >= 2, j prime to pt
                    hits = sorted(
                        (_arrangement(p // j, qp, m), j * qp // pt)
                        for j in range(1, p // least + 1)
                        if p % j == 0
                        for qp in by_p.get(p // j, ())
                        if j * qp > pt and not qp % pt
                    )
                    if not hits:
                        continue
                out.append((_arrangement(p, pt, m), hits))
    return out


def _by_length(config: SearchConfig, parts: Iterator[list[_Hits]]) -> Iterator[Witness]:
    """Merge each length's parts by base, drop the hits whose k is outside
    [k_min, k_max], then classify the rest in that order."""
    low = config.k_min or 2
    high = math.inf if config.k_max is None else config.k_max
    for _ in config.lengths():
        found = itertools.chain.from_iterable(itertools.islice(parts, config.workers))
        for base, hits in sorted(found):
            hits = [hit for hit in hits if low <= hit[1] <= high]
            yield from _witness_list(base, hits, not config.dedupe)


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


# conjecture id -> (statement, predicate every witness must satisfy, default (length, max_digit))
_CONJECTURES: dict[str, tuple[str, Callable[[Witness], bool], tuple]] = {
    "c1": (
        "every 4-digit permutiple is symmetric",
        lambda w: len(w.cf) != 4 or w.flags.symmetric,
        (4, 20),
    ),
    "c2": (
        "every permutiple is continuant-preserving",
        lambda w: w.flags.continuant_preserving,
        ((2, 5), 12),
    ),
    "c3": (
        "every symmetric permutiple is a landess permutiple",
        lambda w: not w.flags.symmetric or w.flags.landess,
        ((2, 5), 12),
    ),
    "c4": (
        "every 4-digit permutiple is perfect or a reverse multiple",
        lambda w: len(w.cf) != 4 or w.flags.perfect or w.flags.reverse_multiple,
        (4, 20),
    ),
}

CONJECTURE_IDS = tuple(_CONJECTURES)


class ConjectureReport(_Record):
    """Outcome of scanning one conjecture over a witness stream: its id and
    bounds (``conjecture``, ``bounds``: str), the ``examined`` count (int),
    the ``counterexamples`` (tuple of Witness) and ``wall_time`` (float, s).
    An empty counterexample tuple means the conjecture held within the
    searched bounds; it is never a proof."""

    __slots__ = _fields = ("conjecture", "bounds", "examined", "counterexamples", "wall_time")

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
    """Evaluate the requested conjecture predicates over one witness stream;
    an id asked for twice is evaluated once, and a bare string or no id is refused."""
    if isinstance(which, str):
        raise ValueError(f"conjecture ids must be a collection of ids, not the string {which!r}")
    ids = list(dict.fromkeys(which))
    if not ids:
        raise ValueError("conjecture ids must name at least one conjecture")
    for conjecture in ids:
        if conjecture not in _CONJECTURES:
            raise ValueError(f"unknown conjecture id {conjecture!r}")
    failed: dict[str, list[Witness]] = {c: [] for c in ids}
    examined = 0
    start = time.perf_counter()
    for examined, w in enumerate(stream, 1):
        for c in ids:
            if not _CONJECTURES[c][1](w):
                failed[c].append(w)
    elapsed = time.perf_counter() - start
    return {c: ConjectureReport(c, bounds, examined, tuple(failed[c]), elapsed) for c in ids}


def witness_record(w: Witness) -> dict:
    """Fixed-schema JSON object for one witness, from its ``Witness.text``;
    its value is the ``{"p", "q"}`` object of ``cf._ratio_record``."""
    digits, sigma, p, q = w.text
    return {
        "digits": digits,
        "sigma": sigma,
        "k": w.k,
        "value": _ratio_record(p, q),
        "flags": {name: getattr(w.flags, name) for name in FLAG_ORDER},
    }


def _compact_json(record: dict) -> str:
    """The one JSON layout every output writes: no spaces between items."""
    return json.dumps(record, separators=(",", ":"))


def _write_jsonl(witnesses: Iterable[Witness], handle: io.TextIOBase) -> int:
    count = 0
    for count, w in enumerate(witnesses, 1):
        handle.write(_compact_json(witness_record(w)) + "\n")
    return count


def _write_csv(witnesses: Iterable[Witness], handle: io.TextIOBase) -> int:
    import csv  # loaded only when the csv format is asked for

    writer = csv.writer(handle)
    writer.writerow(["digits", "sigma", "k", "p", "q", "flags"])
    count = 0
    for count, w in enumerate(witnesses, 1):
        digits, sigma, p, q = w.text
        writer.writerow([digits, sigma, w.k, p, q, "|".join(w.flags.true_names())])
    return count


# export format name -> its writer; the CLI's --format choices are its keys
_WRITERS = {"jsonl": _write_jsonl, "csv": _write_csv}


def export(witnesses: Iterable[Witness], fmt: str = "jsonl", destination="-") -> int:
    """Write witnesses in format ``fmt``, one of ``_WRITERS``, to a path, an
    open handle, or '-' for stdout, and return how many were written.

    Each witness is checked again on the way out (``Witness.verify`` on the
    continuants it walked when built), so a k altered since is refused.
    Its strings come from ``Witness.text``, formatted once per witness
    however many formats it is written in.
    """
    checked = (w.verify() for w in witnesses)
    writer = _WRITERS.get(fmt) if isinstance(fmt, str) else None  # a list is refused too
    if writer is None:
        raise ValueError(f"unknown export format {fmt!r}")
    if hasattr(destination, "write"):
        return writer(checked, destination)
    if destination == "-":
        return writer(checked, sys.stdout)
    with open(os.fspath(destination), "w", newline="") as handle:
        return writer(checked, handle)
