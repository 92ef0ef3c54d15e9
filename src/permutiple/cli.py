"""Command-line front end.

Exit codes: 0 success, 1 domain "no" (not a permutiple, empty witness list,
conjecture counterexample found, surd probe that fails or has no multiplier),
2 usage or parameter errors.
"""

from __future__ import annotations

import argparse
import sys

from .cf import (
    DEFAULT_DEPTH,
    ContinuedFraction,
    _check_depth,
    _ints,
    _layout,
    _printable,
    _ratio,
    _ratio_record,
    _UNPRINTABLE_VALUE,
    canonicalize,
    convergents,
    evaluate,
    format_cf,
    format_rational,
    from_rational,
    parse_rational,
    tails,
)
from .classify import (
    NotAPermutipleError,
    Permutation,
    Witness,
    classify,
    find_witnesses,
)
from .concat import concat_witness, palindromic_concat
from .search import (
    CONJECTURE_IDS,
    SearchConfig,
    _CONJECTURES,
    _WRITERS,
    _compact_json,
    check_conjectures,
    exhaustive_search,
    export,
    witness_record,
)


def _witness_line(w: Witness) -> str:
    digits, sigma, p, q = w.text
    parts = [
        f"{digits} = {w.k} * {format_cf(w.permuted)}",
        f"sigma {sigma}",
        f"value {_ratio(p, q)}",
        f"flags {','.join(w.flags.true_names()) or '-'}",
    ]
    if not w.cf.is_canonical:
        parts.append("non-canonical")
    return " | ".join(parts)


def _emit(witnesses, as_json: bool) -> int:
    """Print each witness as one line, or as JSONL through ``export``; exit code 0."""
    if as_json:
        export(witnesses)
    else:
        for w in witnesses:
            print(_witness_line(w))
    return 0


def _cmd_eval(args) -> int:
    if args.rational is not None:
        _refuse(args, "--rational", ("json", "convergents", "tails", "canonical"))
        cf = from_rational(parse_rational(args.rational))
        print(format_cf(cf))
        return 0
    cf = ContinuedFraction.parse(args.cf)
    if args.canonical:
        _refuse(args, "--canonical", ("json", "convergents", "tails"))
        print(format_cf(canonicalize(cf)))
        return 0
    value = evaluate(cf)
    if not _printable(value.numerator):  # then no convergent or tail term is too long
        raise ValueError(_UNPRINTABLE_VALUE.format(len(cf)))
    if args.json:
        record = {
            "digits": format_cf(cf),
            "value": _ratio_record(value.numerator, value.denominator),
        }
        if args.convergents:
            record["convergents"] = [[str(p), str(q)] for p, q in convergents(cf)]
        if args.tails:
            record["tails"] = [format_rational(g) for g in tails(cf)]
        print(_compact_json(record))
        return 0
    print(format_rational(value))
    if args.convergents:
        print(" ".join(_ratio(p, q) for p, q in convergents(cf)))
    if args.tails:
        print(" ".join(format_rational(g) for g in tails(cf)))
    return 0


def _cmd_classify(args) -> int:
    cf = ContinuedFraction.parse(args.cf)
    sigma = Permutation.parse(args.sigma)
    witness = classify(cf, sigma, args.k, allow_noncanonical=args.allow_noncanonical)
    return _emit([witness], args.json)


def _cmd_witnesses(args) -> int:
    cf = ContinuedFraction.parse(args.cf)
    found = find_witnesses(
        cf, allow_noncanonical=args.allow_noncanonical, all_sigmas=args.all_sigmas
    )
    if not found:
        print("no witnesses")
        return 1
    return _emit(found, args.json)


def _scan_config(args, default_length=None, default_max_digit=None, **options) -> SearchConfig:
    """The bounds of a `search` or `conjecture` scan: --max-digit or else
    ``default_max_digit``, and --len, or the --len-min/--len-max range (low
    defaults to 2, high to low), or else ``default_length``."""
    ranged = args.len_min is not None or args.len_max is not None
    if args.len is not None and ranged:
        raise ValueError("give --len or --len-min/--len-max, not both")
    if ranged:
        low = 2 if args.len_min is None else args.len_min
        length = (low, low if args.len_max is None else args.len_max)
    else:
        length = default_length if args.len is None else args.len
    if length is None:
        raise ValueError("give --len or --len-min/--len-max")
    return SearchConfig(
        length=length,
        max_digit=default_max_digit if args.max_digit is None else args.max_digit,
        k_min=args.k_min,
        k_max=args.k_max,
        workers=args.jobs,
        **options,
    )


def _cmd_search(args) -> int:
    config = _scan_config(
        args, canonical_only=not args.include_noncanonical, dedupe=not args.all_sigmas
    )
    chosen = {} if args.format is None else {"fmt": args.format}  # else export's default
    count = export(exhaustive_search(config), destination=args.out, **chosen)
    print(f"{count} witnesses", file=sys.stderr)
    return 0


def _cmd_conjecture(args) -> int:
    config = _scan_config(args, *_CONJECTURES[args.id][2])
    report = check_conjectures(exhaustive_search(config), [args.id], config.bounds_text())[args.id]
    if args.json:
        record = {
            "conjecture": report.conjecture,
            "bounds": report.bounds,
            "examined": report.examined,
            "counterexamples": [witness_record(w) for w in report.counterexamples],
            "wall_time": round(report.wall_time, 3),
        }
        print(_compact_json(record))
    else:
        print(report.summary())
        for w in report.counterexamples:
            print(_witness_line(w))
    return 0 if report.holds_within_bounds else 1


def _cmd_enumerate(args) -> int:
    from .constructors import (
        PerfectParameters,
        enumerate_three_digit_reverse,
        perfect_cyclic,
        perfect_from_parameters,
        perfect_reverse,
        three_digit_reverse,
        two_digit,
    )

    if args.family == "three-digit-reverse":
        if args.a0 is None:
            found, lead = enumerate_three_digit_reverse(args.k, args.a0_max), f"a0 <= {args.a0_max}"
        else:
            witness = three_digit_reverse(args.k, args.a0)
            found, lead = [] if witness is None else [witness], f"a0={args.a0}"
        if not found:
            print(f"no 3-digit reverse multiple with k={args.k}, {lead}")
            return 1
        return _emit(found, args.json)
    if args.family == "two-digit":
        witness = two_digit(args.k, args.s)
    elif args.family == "perfect":
        sigma = Permutation.parse(args.sigma)
        witness = perfect_from_parameters(PerfectParameters(sigma, args.k, _ints(args.params)))
    elif args.family == "perfect-reverse":
        witness = perfect_reverse(args.k, _ints(args.params))
    else:
        witness = perfect_cyclic(args.k, args.length, args.ell, _ints(args.params))
    return _emit([witness], args.json)


def _refuse(args, mode: str, flags: tuple[str, ...]) -> None:
    """A usage error for any of ``flags`` given where ``mode`` would ignore it.
    A flag is given unless it is None or False (its unset defaults), so a
    given 0 is refused too."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value is not False:
            raise ValueError(f"{mode} does not take --{flag}")


def _count(args, flag: str) -> int:
    """The value of ``--depth`` or ``--digits``: DEFAULT_DEPTH when not
    given, else an integer in 1..MAX_DEPTH."""
    n = getattr(args, flag)
    if n is None:
        return DEFAULT_DEPTH
    _check_depth(n, f"--{flag}")
    return n


def _cmd_concat(args) -> int:
    if args.palindrome:
        _refuse(args, "--palindrome", ("cf1", "sigma1", "cf2", "sigma2"))
        if args.k is None or not args.cf:
            raise ValueError("palindromic mode needs --k and one or more --cf")
        pieces = [
            classify(cf, Permutation.reversal(len(cf)), args.k, allow_noncanonical=True)
            for cf in map(ContinuedFraction.parse, args.cf)
        ]
        witness = palindromic_concat(pieces, args.k)
    else:
        _refuse(args, "concat without --palindrome", ("k", "cf"))
        if not (args.cf1 and args.sigma1 and args.cf2 and args.sigma2):
            raise ValueError("give --cf1/--sigma1 and --cf2/--sigma2, or use --palindrome")
        w1, w2 = [
            classify(ContinuedFraction.parse(cf), Permutation.parse(sigma), allow_noncanonical=True)
            for cf, sigma in ((args.cf1, args.sigma1), (args.cf2, args.sigma2))
        ]
        witness = concat_witness(w1, w2)
    return _emit([witness], args.json)


def _parse_stream_params(expr: str):
    if expr.startswith("const:"):
        value = int(expr.split(":", 1)[1])
        return lambda i: value
    if expr.startswith("pow:"):
        base = int(expr.split(":", 1)[1])
        return lambda i: base**i
    return _ints(expr)


def _decimal_strings(values, first: int, refusal: str) -> list[str]:
    """Each of ``values`` (ints >= 0) in decimal, all formatted before
    anything is printed.  The first value too long to print stops the walk
    before any later, larger value is computed and before any value is
    formatted; its index, counted from ``first``, fills ``refusal``."""
    held = []
    for index, value in enumerate(values, first):
        if not _printable(value):
            raise ValueError(refusal.format(index))
        held.append(value)
    return [str(value) for value in held]


def _cmd_surd(args) -> int:
    from .surd import (
        QuadraticSurd,
        continuant_gaps,
        infinite_perfect_stream,
        is_reduced,
        periodic_expansion,
        surd_multiplier,
        verify_surd_permutiple,
    )

    stream_mode = args.k is not None or args.params is not None
    probe_mode = args.a is not None or args.b is not None or args.c is not None
    if stream_mode and probe_mode:
        raise ValueError("give either --a/--b/--c or --k/--params, not both")
    if stream_mode:
        if args.k is None or args.params is None:
            raise ValueError("stream mode needs both --k and --params")
        _refuse(args, "stream mode", ("depth",))
        n = _count(args, "digits")
        if args.gaps is not None:
            _check_depth(args.gaps, "--gaps")
        stream = infinite_perfect_stream(args.k, _parse_stream_params(args.params))
        refusal = f"--digits {n}: the digit at j = {{}} has too many digits to print"
        # The permuted prefix reads digit j ^ 1, which for odd n reaches digit
        # n = digit n - 1 divided by k: never the first too long to print.
        strings = _decimal_strings(map(stream.digit, range(n + n % 2)), 0, refusal)
        digits = _layout(strings[:n])
        permuted = _layout([strings[j ^ 1] for j in range(n)])
        gaps = None
        if args.gaps is not None:
            refusal = f"--gaps {args.gaps}: the gap at n = {{}} has too many digits to print"
            gaps = _decimal_strings(continuant_gaps(stream, args.gaps), 1, refusal)
        if args.json:
            record = {"k": args.k, "digits": digits, "permuted": permuted}
            if gaps is not None:
                record["gaps"] = gaps
            print(_compact_json(record))
        else:
            print(f"digits {digits}")
            print(f"permuted {permuted}")
            if gaps is not None:
                print("gaps " + ",".join(gaps))
        return 0
    if args.a is None or args.b is None or args.c is None:
        raise ValueError("probe mode needs --a, --b and --c")
    _refuse(args, "probe mode", ("digits", "gaps"))
    depth = _count(args, "depth")  # checked also for a surd with no multiplier, which never probes
    surd = QuadraticSurd(args.a, args.b, args.c)
    k = surd_multiplier(surd)
    report = verify_surd_permutiple(surd, depth) if k is not None else None
    code = 0 if report is not None and report.fails_at is None else 1
    preperiod, period = periodic_expansion(surd)
    if args.json:
        record = {
            "surd": str(surd),
            "k": k,
            "reduced": is_reduced(surd),
            "preperiod": list(preperiod),
            "period": list(period),
        }
        if report is not None:
            digits, scaled = list(report.digits), list(report.scaled_digits)
            record.update(digits=digits, scaled_digits=scaled, fails_at=report.fails_at)
        print(_compact_json(record))
        return code
    print(f"surd {surd}")
    print(f"reduced {str(is_reduced(surd)).lower()}")
    print("preperiod " + (",".join(map(str, preperiod)) or "-"))
    print("period " + ",".join(map(str, period)))
    if k is None:
        print("multiplier (b-a^2)/c is not an integer >= 2")
        return 1
    print(f"k {k}")
    print("digits " + ",".join(map(str, report.digits)))
    print("scaled " + ",".join(map(str, report.scaled_digits)))
    j = report.fails_at
    print("probe adjacent swap " + ("holds at every digit" if j is None else f"fails at digit {j}"))
    return code


def _json_last(parser: argparse.ArgumentParser, func) -> None:
    """Add ``--json`` as the subcommand's last flag and bind its handler."""
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permutiple",
        description="Exact continued-fraction permutiple toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = argparse.ArgumentParser(add_help=False)  # the flags of both scan commands
    scan.add_argument("--len", type=int)
    scan.add_argument("--len-min", type=int)
    scan.add_argument("--len-max", type=int)
    scan.add_argument("--k-min", type=int)
    scan.add_argument("--k-max", type=int)
    scan.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("eval", help="evaluate a digit string exactly")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--cf", help="digit string a0;a1,...,an")
    source.add_argument("--rational", help="value p/q to expand into digits")
    p.add_argument("--convergents", action="store_true")
    p.add_argument("--tails", action="store_true")
    p.add_argument("--canonical", action="store_true", help="print the canonical form")
    _json_last(p, _cmd_eval)

    p = sub.add_parser("classify", help="verify and classify a (cf, sigma[, k]) triple")
    p.add_argument("--cf", required=True)
    p.add_argument("--sigma", required=True, help="image list s0,s1,...,sn")
    p.add_argument("--k", type=int)
    p.add_argument("--allow-noncanonical", action="store_true")
    _json_last(p, _cmd_classify)

    p = sub.add_parser("witnesses", help="all witnesses of a digit string")
    p.add_argument("--cf", required=True)
    p.add_argument("--all-sigmas", action="store_true")
    p.add_argument("--allow-noncanonical", action="store_true")
    _json_last(p, _cmd_witnesses)

    p = sub.add_parser("search", parents=[scan], help="exhaustive search within digit bounds")
    p.add_argument("--max-digit", type=int, required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--format", choices=tuple(_WRITERS))
    p.add_argument("--all-sigmas", action="store_true", help="one witness per permutation")
    p.add_argument("--include-noncanonical", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "conjecture", parents=[scan], help="scan a conjecture, reporting counterexamples"
    )
    p.add_argument("id", choices=CONJECTURE_IDS)
    p.add_argument("--max-digit", type=int)
    _json_last(p, _cmd_conjecture)

    p = sub.add_parser("enumerate", help="closed-form permutiple families")
    fam = p.add_subparsers(dest="family", required=True)

    f = fam.add_parser("two-digit")
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--s", type=int, required=True)
    _json_last(f, _cmd_enumerate)

    f = fam.add_parser("three-digit-reverse")
    f.add_argument("--k", type=int, required=True)
    lead = f.add_mutually_exclusive_group(required=True)
    lead.add_argument("--a0", type=int)
    lead.add_argument("--a0-max", type=int)
    _json_last(f, _cmd_enumerate)

    f = fam.add_parser("perfect")
    f.add_argument("--sigma", required=True)
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--params", required=True, help="one positive integer per cycle")
    _json_last(f, _cmd_enumerate)

    f = fam.add_parser("perfect-reverse")
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--params", required=True, help="s0,s1,... for the first half")
    _json_last(f, _cmd_enumerate)

    f = fam.add_parser("perfect-cyclic")
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--length", type=int, required=True)
    f.add_argument("--ell", type=int, required=True)
    f.add_argument("--params", required=True, help="one positive integer per rotation orbit")
    _json_last(f, _cmd_enumerate)

    p = sub.add_parser("concat", help="concatenate witnesses")
    p.add_argument("--cf1")
    p.add_argument("--sigma1")
    p.add_argument("--cf2")
    p.add_argument("--sigma2")
    p.add_argument("--palindrome", action="store_true")
    p.add_argument("--k", type=int)
    p.add_argument("--cf", action="append", help="repeatable in palindromic mode")
    _json_last(p, _cmd_concat)

    p = sub.add_parser("surd", help="quadratic surd probe or perfect stream")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.add_argument(
        "--depth", type=int, help=f"probe mode: digits printed (default {DEFAULT_DEPTH})"
    )
    p.add_argument("--k", type=int, help="stream mode: multiplier")
    p.add_argument("--params", help="stream mode: const:<v>, pow:<base>, or a comma list")
    p.add_argument(
        "--digits", type=int, help=f"stream mode: digits printed (default {DEFAULT_DEPTH})"
    )
    p.add_argument("--gaps", type=int)
    _json_last(p, _cmd_surd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotAPermutipleError as exc:
        print(f"not a permutiple: {exc}")
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
