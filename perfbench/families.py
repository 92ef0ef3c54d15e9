"""The ``families`` workload: a library batch generated from a seed.

``make_plan`` runs in the benchmark process and turns a seed into a list
of plain JSON operations; ``run_plan`` runs in the spawned process and
executes them against the library.  The library therefore sees only the
generated inputs, never the seed.  No operation calls
``exhaustive_search``.

Sizes follow a fixed schedule and only the parameter values are drawn
from the seed, so every seed asks for about the same amount of work.
"""

from __future__ import annotations

import random
from math import gcd, isqrt

# Digit-string lengths of the large constructed witnesses (10..200 digits).
LENGTHS = tuple(range(10, 201, 10))

# Operations that produce exactly one witness.
SINGLE_WITNESS_OPS = frozenset(
    {"perfect_reverse", "perfect_cyclic", "perfect_from_parameters", "concat_chain", "palindrome"}
)


def _balanced_sigma(rng: random.Random, size: int) -> list[int]:
    """Image list of a random permutation on ``size`` (even) symbols whose
    cycles each hold as many even as odd positions, so it can carry a
    perfect permutiple.  Cycles have 2..8 symbols, which keeps the digits
    (parameter times k to the cycle exponent) small."""
    evens = list(range(0, size, 2))
    odds = list(range(1, size, 2))
    rng.shuffle(evens)
    rng.shuffle(odds)
    images = [0] * size
    while evens:
        half = min(rng.randint(1, 4), len(evens))
        cycle = evens[:half] + odds[:half]
        del evens[:half], odds[:half]
        rng.shuffle(cycle)
        for j, position in enumerate(cycle):
            images[position] = cycle[(j + 1) % len(cycle)]
    return images


def _cycle_count(images: list[int]) -> int:
    seen = [False] * len(images)
    count = 0
    for start in range(len(images)):
        if not seen[start]:
            count += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = images[j]
    return count


def _surd(rng: random.Random) -> tuple[int, int, int]:
    """(a, b, c) with (b - a^2)/c an integer k >= 2 and b not a square."""
    while True:
        a, c, k = rng.randint(1, 30), rng.randint(1, 12), rng.randint(2, 9)
        b = a * a + k * c
        if isqrt(b) ** 2 != b:
            return a, b, c


def make_plan(seed: int, scale: float = 1.0) -> list[dict]:
    """Operations of one batch.  ``scale`` shrinks the batch for smoke tests."""
    rng = random.Random(seed)
    lengths = LENGTHS[: max(1, round(len(LENGTHS) * scale))]
    plan: list[dict] = []
    for round_ in range(max(1, round(8 * scale))):
        for i, size in enumerate(lengths):
            k = 2 + (round_ + i) % 8
            plan.append(
                {"op": "perfect_reverse", "k": k, "params": [rng.randint(1, 9) for _ in range(size // 2)]}
            )
            ell = rng.randrange(1, size, 2)
            plan.append(
                {
                    "op": "perfect_cyclic",
                    "k": k,
                    "length": size,
                    "ell": ell,
                    "params": [rng.randint(1, 9) for _ in range(gcd(ell, size))],
                }
            )
            sigma = _balanced_sigma(rng, size)
            plan.append(
                {
                    "op": "perfect_from_parameters",
                    "k": 2 + (round_ + i) % 4,
                    "sigma": sigma,
                    "params": [rng.randint(1, 3) for _ in range(_cycle_count(sigma))],
                }
            )
    for k in range(2, 2 + max(1, round(5 * scale))):
        plan.append({"op": "three_digit_reverse", "k": k, "a0_max": 200})
    for i, pieces in enumerate((2, 3, 4, 5) * max(1, round(3 * scale))):
        k = 2 + i % 8
        plan.append(
            {
                "op": "concat_chain",
                "k": k,
                "pieces": [[rng.randint(1, 9) for _ in range(rng.randint(1, 5))] for _ in range(pieces)],
            }
        )
        half = [[rng.randint(1, 9) for _ in range(rng.randint(1, 4))] for _ in range((pieces + 1) // 2)]
        plan.append({"op": "palindrome", "k": k, "pieces": half + half[: pieces // 2][::-1]})
    for i in range(max(1, round(4 * scale))):
        # a 6-digit perfect reverse multiple, so at least one witness exists;
        # its digits are distinct, so all 720 orderings are distinct
        k = 2 + i % 4
        digits = [1]
        while len(set(digits)) < 6:
            s = rng.sample(range(2, 10), 3)
            digits = [k * s[0], s[1], k * s[2], s[2], k * s[1], s[0]]
        plan.append({"op": "find_witnesses", "digits": digits, "contains": [digits[::-1], k]})
    for _ in range(max(1, round(2 * scale))):
        # 7 distinct digits: all 5040 orderings are distinct
        digits = rng.sample(range(2, 13), 7)
        plan.append({"op": "find_witnesses", "digits": digits, "contains": None})
    for _ in range(max(1, round(20 * scale))):
        a, b, c = _surd(rng)
        plan.append({"op": "verify_surd", "a": a, "b": b, "c": c, "depth": rng.randint(20, 60)})
        plan.append(
            {
                "op": "continuant_gap",
                "k": rng.randint(2, 9),
                "params": [rng.randint(1, 9) for _ in range(101)],
                "limit": rng.randint(50, 200),
            }
        )
    return plan


def run_plan(plan: list[dict], jsonl_path: str, csv_path: str) -> list[int]:
    """Execute the batch and export every witness to JSONL and CSV.

    Returns the number of witnesses each operation produced, in plan order.
    Library names are looked up on their modules at call time, so a tracer
    that rebinds them sees every call.
    """
    import importlib

    lib = importlib.import_module("permutiple")
    classify_mod = importlib.import_module("permutiple.classify")
    constructors = importlib.import_module("permutiple.constructors")
    concat = importlib.import_module("permutiple.concat")
    search = importlib.import_module("permutiple.search")
    surd = importlib.import_module("permutiple.surd")

    witnesses = []
    counts = []
    for op in plan:
        kind = op["op"]
        found = []
        if kind == "perfect_reverse":
            found = [constructors.perfect_reverse(op["k"], tuple(op["params"]))]
        elif kind == "perfect_cyclic":
            found = [
                constructors.perfect_cyclic(op["k"], op["length"], op["ell"], tuple(op["params"]))
            ]
        elif kind == "perfect_from_parameters":
            params = lib.PerfectParameters(
                sigma=lib.Permutation(tuple(op["sigma"])), k=op["k"], orbit_params=tuple(op["params"])
            )
            found = [constructors.perfect_from_parameters(params)]
        elif kind == "three_digit_reverse":
            found = constructors.enumerate_three_digit_reverse(op["k"], op["a0_max"])
        elif kind == "concat_chain":
            pieces = [constructors.perfect_reverse(op["k"], tuple(p)) for p in op["pieces"]]
            joined = pieces[-1]
            for piece in reversed(pieces[:-1]):
                joined = concat.concat_witness(piece, joined)
            found = [joined]
        elif kind == "palindrome":
            pieces = [constructors.perfect_reverse(op["k"], tuple(p)) for p in op["pieces"]]
            found = [concat.palindromic_concat(pieces, op["k"])]
        elif kind == "find_witnesses":
            found = classify_mod.find_witnesses(lib.ContinuedFraction(tuple(op["digits"])))
        elif kind == "verify_surd":
            surd.verify_surd_permutiple(surd.QuadraticSurd(op["a"], op["b"], op["c"]), op["depth"])
        elif kind == "continuant_gap":
            stream = surd.infinite_perfect_stream(op["k"], op["params"])
            surd.asymptotic_continuant_gap(stream, op["limit"])
        else:
            raise ValueError(f"unknown operation {kind!r}")
        witnesses.extend(found)
        counts.append(len(found))
    search.export(witnesses, "jsonl", jsonl_path)
    search.export(witnesses, "csv", csv_path)
    return counts
