"""Permutiple detection and classification.

A digit string r = [a0; a1, ..., an] together with a permutation sigma of
the positions and an integer k >= 2 is a permutiple when r equals k times
the string [a_sigma(0); a_sigma(1), ..., a_sigma(n)] evaluated as written.
This module decides that relation exactly.  ``classify`` and
``find_witnesses`` return a ``Witness``, and its ``k`` and ``flags``
(continuant-preserving, perfect, symmetric, landess, reverse multiple) are
the one route to the multiplier and the classification: both are read off
one walk of each string.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from functools import cached_property, lru_cache
from itertools import islice
from math import factorial, gcd, prod

from .cf import (
    ContinuedFraction,
    _check_int,
    _euclid,
    _ints,
    _is_int,
    _printable,
    _Record,
    _tip,
    _UNPRINTABLE_VALUE,
    format_cf,
)


class NotAPermutipleError(ValueError):
    """The digit string is not an integer multiple (k >= 2) of the permuted string."""


class Permutation(_Record):
    """Bijection on positions {0, ..., n}, stored as the image list."""

    _fields = ("images",)  # no __slots__: the cached properties need a __dict__

    def __init__(self, images: Iterable[int]) -> None:
        images = tuple(images)
        if not all(map(_is_int, images)) or sorted(images) != list(range(len(images))):
            raise ValueError(f"{images!r} is not a permutation of 0..{len(images) - 1}")
        self._set(images)

    @classmethod
    def parse(cls, text: str) -> Permutation:
        return cls(_ints(text))

    @classmethod
    @lru_cache(typed=True)
    def reversal(cls, size: int) -> Permutation:
        """The reversal j -> size - 1 - j: one shared object per size (the
        128 sizes last asked for, keyed by type too, so 2.0 is not 2), and a
        process that builds many reverse witnesses of one length walks its
        cycles and perfect layout once.  Size 0 is the empty permutation."""
        _check_int(size, "reversal size", 0)
        return cls(tuple(range(size - 1, -1, -1)))

    def __len__(self) -> int:
        return len(self.images)

    def __str__(self) -> str:
        return format_permutation(self)

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition; each cycle starts at its smallest member and
        cycles are listed by smallest member."""
        seen = [False] * len(self.images)
        cycles = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cycle = []
            j = start
            while not seen[j]:
                seen[j] = True
                cycle.append(j)
                j = self.images[j]
            cycles.append(tuple(cycle))
        return tuple(cycles)

    @cached_property
    def perfect_layout(self) -> tuple[tuple[int, ...] | None, ...]:
        """Per cycle, the power of k of each position's digit in a perfect
        permutiple on this sigma, in cycle order; None for a cycle that holds
        unequal numbers of even and odd positions, which no perfect digits fit.

        Perfection reads a_sigma(j) = a_j / k at even j and a_j * k at odd j,
        so along a cycle the power steps -1 after an even j and +1 after an
        odd one, and it closes exactly when the steps balance.  The powers
        are shifted so that the lowest is 0.  It falls on an odd j (after an
        even one the next is lower), where s_j = a_j is the smallest of the
        s_j (a_j / k at even j), so every digit is an integer for any
        positive cycle parameter.
        """
        layout = []
        for cycle in self.cycles:
            powers, power = [], 0
            for j in cycle:
                powers.append(power)
                power += 1 if j % 2 else -1
            if power:
                layout.append(None)
            else:
                low = min(powers)
                layout.append(tuple([e - low for e in powers]))
        return tuple(layout)


def format_permutation(sigma: Permutation) -> str:
    return ",".join([str(i) for i in sigma.images])


class ClassificationFlags(_Record):
    __slots__ = _fields = (
        "continuant_preserving",
        "perfect",
        "symmetric",
        "landess",
        "reverse_multiple",
    )

    def __init__(
        self,
        continuant_preserving: bool,
        perfect: bool,
        symmetric: bool,
        landess: bool,
        reverse_multiple: bool,
    ) -> None:
        # Lattice sanity: these implications always hold for genuine
        # permutiples, so violating combinations signal a bug upstream.
        if perfect and not symmetric:
            raise ValueError("flag lattice violated: perfect requires symmetric")
        if perfect and not landess:
            raise ValueError("flag lattice violated: perfect requires landess")
        if landess and not continuant_preserving:
            raise ValueError("flag lattice violated: landess requires continuant preservation")
        self._set(continuant_preserving, perfect, symmetric, landess, reverse_multiple)

    def true_names(self) -> tuple[str, ...]:
        return tuple(name for name in FLAG_ORDER if getattr(self, name))


FLAG_ORDER = ClassificationFlags._fields


class Witness(_Record):
    """A permutiple (cf, sigma, k), proven when built; its flags derive from its digits.

    A k left as None is read off the same walk of the two strings that
    proves the identity, and any other k that is not an int (a bool
    included) is refused with ValueError before any walk, so once built
    ``k`` is always an int.  ``permuted``, the string sigma makes of the
    digits, and the walks of both strings are kept from the build.
    ``text`` is formatted on first use and kept, so a witness written in
    several formats is turned into text once.
    """

    _fields = ("cf", "sigma", "k")  # no __slots__: the kept walks and cached text need a __dict__

    def __init__(self, cf: ContinuedFraction, sigma: Permutation, k: int | None = None) -> None:
        if k is not None:
            _check_int(k, "multiplier k")
        permuted = permute_digits(cf, sigma)
        tips = _tip(cf.digits), _tip(permuted.digits)
        self._set(cf, sigma, _multiplier(*tips[0][0], *tips[1][0]) if k is None else k)
        # not fields: kept in the instance dict, as a cached property keeps its value
        self.__dict__.update(permuted=permuted, _tips=tips)
        self.verify()

    def verify(self) -> Witness:
        """Return self if value(cf) == k * value(permuted), else raise NotAPermutipleError."""
        found = _multiplier(*self._tips[0][0], *self._tips[1][0])
        if found is None or found != self.k:
            raise NotAPermutipleError(
                f"{self.cf} is not an integer multiple (k >= 2) of {self.permuted}"
                if found is None
                else f"multiplier of {self.cf} under {self.sigma} is {found}, not {self.k}"
            )
        return self

    @cached_property
    def text(self) -> tuple[str, str, str, str]:
        """The digit string, the image list, and the value's numerator and
        denominator in decimal, as every output writes them; p and q are the
        continuants of the walk, coprime, so they are the value in lowest
        terms.  A value too long to print is refused, by the string's length."""
        p, q = self._tips[0][0]
        if not _printable(p):
            raise ValueError(_UNPRINTABLE_VALUE.format(len(self.cf)))
        return format_cf(self.cf), format_permutation(self.sigma), str(p), str(q)

    @cached_property
    def flags(self) -> ClassificationFlags:
        ((p, q), (p1, q1)), ((pp, _), (pp1, qp1)) = self._tips
        preserving = p == pp  # the same top continuant
        return ClassificationFlags(
            continuant_preserving=preserving,
            perfect=_is_perfect(self.cf, self.sigma, self.k),
            symmetric=_is_symmetric(self.cf, self.sigma),
            # preservation plus p_{n-1} == k*p'_{n-1} and q_{n-1} == q'_{n-1}
            landess=preserving and p1 == self.k * pp1 and q1 == qp1,
            # mirror formula: value(reversed) = p_n / p_{n-1}, so p_n / q_n ==
            # k * value(reversed) exactly when p_{n-1} == k * q_n.  This is a
            # value-level check, independent of sigma: with repeated digits
            # several permutations realize the reversed string.
            reverse_multiple=p1 == self.k * q,
        )


def _check_lengths(cf: ContinuedFraction, sigma: Permutation) -> None:
    if len(sigma) != len(cf):
        raise ValueError(f"permutation on {len(sigma)} symbols does not fit {len(cf)} digits")


def permute_digits(cf: ContinuedFraction, sigma: Permutation) -> ContinuedFraction:
    """Digit string whose j-th digit is a_sigma(j); may be non-canonical."""
    _check_lengths(cf, sigma)
    ds = cf.digits
    return ContinuedFraction(tuple([ds[i] for i in sigma.images]))


def _multiplier(p: int, q: int, pp: int, qp: int) -> int | None:
    """The integer k >= 2 with value(cf) == k * value(permuted), if any,
    from their values p/q and pp/qp.

    Both values are reduced fractions, so the ratio (p*q')/(p'*q) is
    checked by exact integer divisibility; k == 1 is excluded.
    """
    num, den = p * qp, pp * q
    if num % den:
        return None
    k = num // den
    return k if k >= 2 else None


def _is_perfect(cf: ContinuedFraction, sigma: Permutation, k: int) -> bool:
    """Alternating exact-ratio pattern: a_j = k*a_sigma(j) at even j and
    a_sigma(j) = k*a_j at odd j.  It and ``_is_symmetric`` serve only
    ``Witness.flags``, on a sigma already fitted to the digits."""
    ds, img = cf.digits, sigma.images
    return all(a == k * ds[i] for a, i in zip(ds[::2], img[::2])) and all(
        ds[i] == k * a for a, i in zip(ds[1::2], img[1::2])
    )


def _is_symmetric(cf: ContinuedFraction, sigma: Permutation) -> bool:
    """Symmetric digit products are preserved: a_j*a_{n-j} == a_sigma(j)*a_sigma(n-j).

    The pairs j and n - j are one test, so only j <= n // 2 is walked.
    """
    ds = cf.digits
    n = len(ds) - 1
    img = sigma.images
    return all(ds[j] * ds[n - j] == ds[img[j]] * ds[img[n - j]] for j in range(n // 2 + 1))


def classify(
    cf: ContinuedFraction,
    sigma: Permutation,
    k: int | None = None,
    allow_noncanonical: bool = False,
) -> Witness:
    """The checked Witness of the triple, inferring k when it is None.

    Raises NotAPermutipleError when the multiplier check fails (including
    ratio 1, non-integer ratios and a wrong k), and ValueError for a
    non-canonical base unless ``allow_noncanonical`` is set.  The permuted
    side is always evaluated as written.
    """
    _check_lengths(cf, sigma)  # a sigma that does not fit is reported first
    _check_canonical(cf, allow_noncanonical)
    return Witness(cf, sigma, k)


def _check_canonical(cf: ContinuedFraction, allow_noncanonical: bool) -> None:
    if not cf.is_canonical and not allow_noncanonical:
        raise ValueError(f"base string {cf} is not canonical")


def canonical_sigma(base: tuple[int, ...], permuted: tuple[int, ...]) -> Permutation:
    """Lexicographically smallest image list realizing ``permuted`` from
    ``base``: the first that ``_realizing`` yields."""
    if sorted(base) != sorted(permuted):
        raise ValueError(f"{permuted!r} is not a rearrangement of {base!r}")
    return Permutation(next(_realizing(base, permuted)))


# Most multipliers k that ``find_witnesses`` tries for one string.  The
# count is about a0 / 2 when the string holds a 1, so a huge leading digit
# would otherwise never finish.
MAX_K_CANDIDATES = 10**6
# Most witnesses one string yields with ``all_sigmas`` (``find_witnesses``,
# and ``search`` without dedupe), all held at once.  Each hit has
# prod(multiplicity!) realizing image lists: 9! * 10! for nine 1s and ten
# 2s, but at most 14 400 for any string of 10 digits <= 4.
MAX_SIGMA_LISTS = 10**5


def _realizing(base: tuple[int, ...], permuted: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every image list realizing ``permuted`` from ``base``, in lexicographic
    order; ``permuted`` must rearrange ``base``.

    Position j takes the c_j-th smallest source index still free among
    those holding its digit.  A smaller c_j gives a smaller index, so the
    lists come in the lexicographic order of their codes (c_0, c_1, ...).
    An odometer walks the codes from all zeros, one code held at a time,
    so the first list costs time and memory linear in the length.
    """
    sources = defaultdict(list)
    for i in reversed(range(len(base))):  # descending: the c-th smallest is at ~c
        sources[base[i]].append(i)
    left = {d: len(s) for d, s in sources.items()}
    top = []  # the largest c_j
    for d in permuted:
        left[d] -= 1
        top.append(left[d])
    code = [0] * len(permuted)
    while True:
        free = {d: list(s) for d, s in sources.items()}
        yield tuple(free[d].pop(~c) for d, c in zip(permuted, code))
        j = len(code) - 1
        while j >= 0 and code[j] == top[j]:
            code[j] = 0
            j -= 1
        if j < 0:
            return
        code[j] += 1


def _witness_list(
    digits: tuple[int, ...],
    hits: list[tuple[tuple[int, ...], int]],
    all_sigmas: bool,
) -> list[Witness]:
    """Classified witnesses for hits ordered by permuted string.  Each carries
    the canonical sigma, the first realizing image list, or with
    ``all_sigmas`` becomes one Witness per realizing list, in lexicographic
    order.  Every hit has prod(multiplicity!) realizing lists; more than
    ``MAX_SIGMA_LISTS`` in all are refused with ValueError before any is
    built.  The caller has already applied the canonical check to the base:
    ``find_witnesses`` refuses, and a canonical-only scan never reads, a
    base that ends in 1."""
    if not hits:
        return []
    cf = ContinuedFraction(digits)
    if all_sigmas:
        lists = len(hits) * prod(factorial(c) for c in Counter(digits).values())
        if lists > MAX_SIGMA_LISTS:
            raise ValueError(
                f"{cf} has {lists} realizing image lists, over the limit of {MAX_SIGMA_LISTS}"
            )
    return [
        classify(cf, Permutation(images), k, allow_noncanonical=True)
        for permuted, k in hits
        for images in islice(_realizing(digits, permuted), None if all_sigmas else 1)
    ]


def find_witnesses(
    cf: ContinuedFraction,
    allow_noncanonical: bool = False,
    all_sigmas: bool = False,
) -> list[Witness]:
    """All (sigma, k) witnesses for a digit string, by inverting value / k.

    By default the result holds one Witness per distinct permuted digit
    string (ordered by that string), carrying the canonical sigma.  With
    ``all_sigmas`` every realizing permutation gets its own Witness,
    ordered by permuted string then image list.

    With p/q the string's value in lowest terms, each k has one possible
    partner value, p / (k*q) reduced by gcd(p, k), and at one length that
    value has one digit string: its Euclid expansion, or that expansion with
    the last digit split off as a trailing 1.  A candidate that rearranges
    the digits is a hit with the k it was solved for; the Witness built
    from it proves the identity.  Strings with more than
    ``MAX_K_CANDIDATES`` multipliers to try are refused with ValueError.
    """
    _check_canonical(cf, allow_noncanonical)
    digits = cf.digits
    m = len(digits)
    multiset = sorted(digits)
    # The value is at most a0 + 1 ([a0; 1] reaches it) and a permuted value
    # exceeds its leading digit b0, so k >= 2 forces 2 * b0 < a0 + 1, that
    # is b0 <= a0 // 2.  This also drops the unpermuted string.
    leads = [d for d in multiset if d <= digits[0] // 2]
    if not leads:
        return []
    (p, q), _ = _tip(digits)
    # A partner's value lies in (smallest digit, largest lead + 1], so
    # p/q <= k * (largest lead + 1) and k * smallest digit < p/q.
    ks = range(max(2, -(-p // (q * (leads[-1] + 1)))), p // (q * multiset[0]) + 1)
    tried = ks.stop - ks.start  # len() of a range over sys.maxsize raises OverflowError
    if tried > MAX_K_CANDIDATES:
        raise ValueError(
            f"{cf} needs {tried} multipliers tried, over the limit of {MAX_K_CANDIDATES}"
        )
    present = set(digits)
    hits = []
    for k in ks:
        g = gcd(p, k)
        pp, qp = p // g, k * q // g
        expansion = []
        for a in _euclid(pp, qp):
            # over m digits, or a digit that neither is one of ours nor splits into one
            if len(expansion) == m or (a not in present and a - 1 not in present):
                break
            expansion.append(a)
        else:
            if len(expansion) == m - 1 and expansion[-1] >= 2:  # the trailing-1 form
                expansion[-1:] = [expansion[-1] - 1, 1]
            if sorted(expansion) == multiset:
                hits.append((tuple(expansion), k))
    return _witness_list(digits, sorted(hits), all_sigmas)
