"""Output checks that do not use permutiple's own arithmetic.

A witness record claims ``value(digits) == k * value(permuted digits)``.
``fraction`` evaluates a digit string back to front, a different algorithm
from the library's forward convergent recurrence, so a broken kernel in
the library cannot approve its own output.
"""

from __future__ import annotations

import csv
import json


def fraction(digits: list[int]) -> tuple[int, int]:
    """(p, q) of [a0; a1, ..., an], built from the last digit outwards.
    p and q are coprime, since every step maps a coprime pair to one."""
    p, q = digits[-1], 1
    for a in reversed(digits[:-1]):
        p, q = a * p + q, p
    return p, q


def parse_digits(text: str) -> list[int]:
    head, _, tail = text.partition(";")
    return [int(head)] + ([int(part) for part in tail.split(",")] if tail else [])


def witness_holds(digits: str, sigma: str, k: int, p: str, q: str) -> bool:
    """The exported value is the string's value and equals k times the value
    of the permuted string."""
    ds = parse_digits(digits)
    images = [int(part) for part in sigma.split(",")]
    if k < 2 or sorted(images) != list(range(len(ds))) or min(ds) < 1:
        return False
    vp, vq = fraction(ds)
    pp, pq = fraction([ds[i] for i in images])
    return (vp, vq) == (int(p), int(q)) and vp * pq == k * pp * vq


def read_jsonl(path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def record_holds(record: dict) -> bool:
    value = record["value"]
    return witness_holds(record["digits"], record["sigma"], record["k"], value["p"], value["q"])


def csv_matches(records: list[dict], path) -> bool:
    """The CSV export holds the same witnesses, in the same order, as the JSONL one."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    expected = [["digits", "sigma", "k", "p", "q", "flags"]]
    for r in records:
        flags = "|".join(name for name, on in r["flags"].items() if on)
        expected.append([r["digits"], r["sigma"], str(r["k"]), r["value"]["p"], r["value"]["q"], flags])
    return rows == expected
