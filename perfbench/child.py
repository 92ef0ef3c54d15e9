"""One process of the benchmark: the thing whose wall time is measured.

    python3 perfbench/child.py setup
    python3 perfbench/child.py cli <report.json> <permutiple argv...>
    python3 perfbench/child.py families <report.json> <plan.json> <out.jsonl> <out.csv>

``setup`` imports the CLI and builds its parser, then exits.  ``cli``
runs ``permutiple.cli.main(argv)``, as the ``permutiple`` command does;
``families`` runs a generated library batch.  Both write a report with
the time spent after the imports (``run_s``).  With ``PERFBENCH_SPANS`` set
to a path, the library is traced and the spans are written there at exit.
The benchmark sets ``PYTHONPATH`` to the checkout's ``src``.
"""

import importlib
import json
import os
import sys
import time


def main() -> int:
    mode = sys.argv[1]
    cli = importlib.import_module("permutiple.cli")
    if mode == "setup":
        cli.build_parser()
        return 0
    report_path, rest = sys.argv[2], sys.argv[3:]
    if mode == "cli":
        run = lambda: {"rc": cli.main(rest)}  # noqa: E731
    elif mode == "families":
        import families

        with open(rest[0]) as handle:
            plan = json.load(handle)
        run = lambda: {"rc": 0, "per_op": families.run_plan(plan, rest[1], rest[2])}  # noqa: E731
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    spans_path = os.environ.get("PERFBENCH_SPANS")
    if spans_path:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    start = time.perf_counter()
    report = run()
    report["run_s"] = time.perf_counter() - start
    if spans_path:
        tracer.dump(spans_path)
        report["dump_s"] = time.perf_counter() - start - report["run_s"]
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return report["rc"]


if __name__ == "__main__":
    sys.exit(main())
