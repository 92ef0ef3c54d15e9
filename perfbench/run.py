"""Benchmark of permutiple: end-to-end figures and a traced per-layer split.

    python3 perfbench/run.py --workload conjecture-c2 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --trace both      # everything
    python3 perfbench/run.py --write-spec                      # regenerate BENCHMARK.json

Run from the root of a checkout: the program is imported from ``src/``.
Each repetition is a fresh process (``perfbench/child.py``), run with
one job.  Repetitions are made until ``--seconds`` is used up, every
output is checked, and the medians are reported.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import families
import spans
import verify

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SPEC_PATH = ROOT / "BENCHMARK.json"

RUN_SECONDS = 35
MIN_REPS = 3
REP_TIMEOUT_S = 120

# Output references recorded from the seed code, per bounds.  A scan's
# digest covers its whole output; the conjecture summary's time is masked.
REFERENCES = {
    "conjecture-c2": {
        "full": {
            "bounds": (2, 5, 7),
            "examined": 54,
            "sha256": "3e16579784eb436f3800c9cc25466083773ddb9b6d9ab186cc003081a9fe9813",
        },
        "smoke": {
            "bounds": (2, 5, 5),
            "examined": 13,
            "sha256": "70f35a63a76444cfe5109f8623616a833013e7497adc35540bd5a906f3493ea8",
        },
    },
    "scan-short": {
        "full": {
            "bounds": (2, 3, 60),
            "witnesses": 454,
            "sha256": "8d6f70dac7a06500395f90cbd2bb427fd859c695fd8a7baeab88b51d66e11dc8",
        },
        "smoke": {
            "bounds": (2, 3, 20),
            "witnesses": 67,
            "sha256": "a647ded9ad8617a046a201a48747d5243cb477b622177cf7e778a150ee3623ff",
        },
    },
}

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": RUN_SECONDS,
    "workloads": [
        {
            "name": "conjecture-c2",
            "why": "conjecture c2, lengths 2..5, digits <= 7: up to 120 permutations per tuple, "
            "so the search candidate loop holds nearly all the time",
        },
        {
            "name": "scan-short",
            "why": "search, lengths 2..3, digits <= 60, 454 witnesses to JSONL: many short tuples "
            "with large leading digits; classify and export carry a real share",
        },
        {
            "name": "families",
            "why": "seeded library batch of constructors, concatenation, find_witnesses and surd "
            "probes on up to 200 digits, exported: big-integer cf and classify dominate",
        },
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    ],
    "per_layer": [
        {"name": "search.scan_s", "unit": "s", "better": "lower"},
        {"name": "search.tuples", "unit": "count", "better": "lower"},
        {"name": "search.witnesses", "unit": "count", "better": "higher"},
        {"name": "search.hit_ratio", "unit": "ratio", "better": "higher"},
        {"name": "search.conjecture_s", "unit": "s", "better": "lower"},
        {"name": "search.export_s", "unit": "s", "better": "lower"},
        {"name": "search.export_bytes", "unit": "B", "better": "lower"},
        {"name": "classify.calls", "unit": "count", "better": "lower"},
        {"name": "classify.self_s", "unit": "s", "better": "lower"},
        {"name": "classify.call_us_p50", "unit": "us", "better": "lower"},
        {"name": "classify.call_us_p99", "unit": "us", "better": "lower"},
        {"name": "classify.find_witnesses_s", "unit": "s", "better": "lower"},
        {"name": "cf.calls", "unit": "count", "better": "lower"},
        {"name": "cf.busy_s", "unit": "s", "better": "lower"},
        {"name": "cf.calls_per_classify", "unit": "ratio", "better": "lower"},
        {"name": "constructors.calls", "unit": "count", "better": "lower"},
        {"name": "constructors.self_s", "unit": "s", "better": "lower"},
        {"name": "concat.calls", "unit": "count", "better": "lower"},
        {"name": "concat.self_s", "unit": "s", "better": "lower"},
        {"name": "surd.calls", "unit": "count", "better": "lower"},
        {"name": "surd.busy_s", "unit": "s", "better": "lower"},
        {"name": "surd.states", "unit": "count", "better": "lower"},
        {"name": "cli.overhead_s", "unit": "s", "better": "lower"},
        {"name": "trace_overhead_ratio", "unit": "ratio", "better": "lower"},
    ],
}


def write_spec() -> None:
    SPEC_PATH.write_text(json.dumps(SPEC, indent=2) + "\n")


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def expect(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)


@dataclass
class Job:
    """What one repetition runs, how much work it is, and how to check it."""

    args: list[str]  # child.py arguments after the report path
    mode: str
    work: Callable[[dict], int]  # work units of a repetition, from its report
    work_unit: str
    check: Callable[[dict, Checks, bool], None]  # (report, checks, first repetition)
    note: str


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scan(
    command: list[str], ref: dict, seed: int, check: Callable[[dict, Checks, bool], None]
) -> Job:
    """A CLI scan at the reference's (min length, max length, max digit)."""
    low, high, digits = ref["bounds"]
    argv = [*command, "--len-min", str(low), "--len-max", str(high), "--max-digit", str(digits)]
    tuples = spans.tuple_count(range(low, high + 1), digits)
    return Job(
        args=argv + ["--jobs", "1"],
        mode="cli",
        work=lambda report: tuples,
        work_unit="tuples",
        check=check,
        note=f"lengths {low}..{high}, digits <= {digits}; seed {seed} unused: the scan is "
        "exhaustive and deterministic",
    )


def _conjecture_job(work: Path, seed: int, smoke: bool) -> Job:
    ref = REFERENCES["conjecture-c2"]["smoke" if smoke else "full"]

    def check(report: dict, checks: Checks, first: bool) -> None:
        text = (work / "stdout.txt").read_text()
        masked = re.sub(r" in \d+\.\d+s", " in <t>s", text)
        found = re.search(r": (\d+) counterexamples among (\d+) witnesses", text)
        checks.expect(_sha256(masked.encode()) == ref["sha256"], "conjecture output digest differs")
        checks.expect(found is not None and found.group(2) == str(ref["examined"]), "examined count")
        checks.expect(found is not None and found.group(1) == "0", "counterexamples reported")

    return _scan(["conjecture", "c2"], ref, seed, check)


def _scan_job(work: Path, seed: int, smoke: bool) -> Job:
    ref = REFERENCES["scan-short"]["smoke" if smoke else "full"]
    out = work / "out.jsonl"

    def check(report: dict, checks: Checks, first: bool) -> None:
        data = out.read_bytes()
        checks.expect(_sha256(data) == ref["sha256"], "search output digest differs")
        checks.expect(data.count(b"\n") == ref["witnesses"], "witness count")
        if first:
            for record in verify.read_jsonl(out):
                checks.expect(verify.record_holds(record), f"witness {record['digits']} fails")

    return _scan(["search", "--out", str(out)], ref, seed, check)


def _families_job(work: Path, seed: int, smoke: bool) -> Job:
    plan = families.make_plan(seed, scale=0.1 if smoke else 1.0)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    jsonl, csv_path = work / "out.jsonl", work / "out.csv"
    first_digest: list[str] = []

    def check(report: dict, checks: Checks, first: bool) -> None:
        digest = _sha256(jsonl.read_bytes() + csv_path.read_bytes())
        if not first:
            checks.expect(digest == first_digest[0], "output differs from the first repetition")
            return
        first_digest.append(digest)
        records = verify.read_jsonl(jsonl)
        per_op = report["per_op"]
        checks.expect(len(per_op) == len(plan) and sum(per_op) == len(records), "witness count")
        checks.expect(verify.csv_matches(records, csv_path), "CSV export differs from JSONL")
        start = 0
        for op, count in zip(plan, per_op):
            block = records[start : start + count]
            start += count
            if op["op"] in families.SINGLE_WITNESS_OPS:
                checks.expect(count == 1, f"{op['op']} gave {count} witnesses")
            if op.get("contains"):
                digits, k = op["contains"]
                permuted = [
                    [verify.parse_digits(r["digits"])[int(i)] for i in r["sigma"].split(",")] + [r["k"]]
                    for r in block
                ]
                checks.expect(digits + [k] in permuted, f"find_witnesses missed {digits}")
        for record in records:
            checks.expect(verify.record_holds(record), f"witness {record['digits']} fails")

    return Job(
        args=[str(plan_path), str(jsonl), str(csv_path)],
        mode="families",
        work=lambda report: sum(report["per_op"]),
        work_unit="witnesses",
        check=check,
        note=f"seed {seed}: {len(plan)} operations",
    )


WORKLOADS = {"conjecture-c2": _conjecture_job, "scan-short": _scan_job, "families": _families_job}


@dataclass
class Rep:
    wall_s: float
    rss_mb: float
    report: dict | None


def _child_env(spans_path: Path | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PERMUTIPLE_JOBS", "PERFBENCH_SPANS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    if spans_path is not None:
        env["PERFBENCH_SPANS"] = str(spans_path)
    return env


def spawn(args: list[str], work: Path, env: dict) -> Rep:
    """Run child.py once.  Wall time runs from spawn to exit; the peak
    resident size comes from the child's rusage."""
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), *args]
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    ok = proc.returncode == 0 and report_path.exists()
    return Rep(wall, usage.ru_maxrss / 1024, json.loads(report_path.read_text()) if ok else None)


def _repeat(job: Job, work: Path, env: dict, checks: Checks, first: bool) -> Rep | None:
    rep = spawn([job.mode, str(work / "report.json"), *job.args], work, env)
    errors = (work / "stderr.txt").read_text().strip().splitlines() or ["no output"]
    checks.expect(rep.report is not None, f"{job.mode} process failed: {errors[-1]}")
    if rep.report is None:
        return None
    try:
        job.check(rep.report, checks, first)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks.expect(False, f"output unreadable: {exc!r}")
    return rep


@dataclass
class Result:
    name: str
    traced: bool
    job: Job
    checks: Checks
    metrics: dict
    samples: dict  # end-to-end samples of every repetition, by metric


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> Result:
    """Repeat the workload until ``seconds`` are used; with ``traced``, each
    untraced repetition is followed by a traced one, and the tracing
    overhead is the median ratio of the two walls over these pairs.

    Times are the fastest repetition's: on a shared host a repetition runs
    either at full speed or slowed by other tenants, and the median follows
    how much of the run fell in slow phases.  Memory is the median.
    """
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        job = WORKLOADS[name](work, seed, smoke)
        plain_env, traced_env = _child_env(None), _child_env(work / "spans.json")
        checks = Checks()
        # Warm-up: writes bytecode caches and fully verifies one output.
        spawn(["setup"], work, plain_env)
        _repeat(job, work, plain_env, checks, first=True)
        samples = {"setup_s": [], "wall_s": [], "work_per_s": [], "peak_rss_mb": []}
        traced_walls, layer_samples, overheads = [], [], []
        start = time.perf_counter()
        reps = 0
        while True:
            began = time.perf_counter()
            if not traced:
                samples["setup_s"].append(spawn(["setup"], work, plain_env).wall_s)
            plain = _repeat(job, work, plain_env, checks, first=False)
            if plain is not None:
                samples["wall_s"].append(plain.wall_s)
                samples["work_per_s"].append(job.work(plain.report) / plain.report["run_s"])
                samples["peak_rss_mb"].append(plain.rss_mb)
            if traced:
                rep = _repeat(job, work, traced_env, checks, first=False)
                if rep is not None:
                    wall = rep.wall_s - rep.report["dump_s"]
                    data = json.loads((work / "spans.json").read_text())
                    traced_walls.append(wall)
                    layer_samples.append(spans.layer_metrics(data["spans"], data["counts"], wall))
                    if plain is not None:
                        overheads.append(wall / plain.wall_s)
            reps += 1
            now = time.perf_counter()
            if reps >= MIN_REPS and now - start + (now - began) > seconds:
                break
    walls = samples["wall_s"]
    if not walls or (traced and not overheads):
        raise RuntimeError(f"{name}: no repetition succeeded: {checks.reasons[:3]}")
    if traced:
        fastest = min(range(len(traced_walls)), key=traced_walls.__getitem__)
        metrics = dict(layer_samples[fastest])
        metrics["trace_overhead_ratio"] = statistics.median(overheads)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    else:
        metrics = {
            "setup_s": min(samples["setup_s"]),
            "wall_s": min(walls),
            "work_per_s": max(samples["work_per_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    values = {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}
    return Result(name, traced, job, checks, values, samples)


def _read_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            models = (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    uname = platform.uname()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": f"{uname.system}-{uname.release}-{uname.machine}",
        "cpu": cpu,
        "commit": _read_commit(),
    }


def _print_result(result: Result) -> None:
    kind = "traced" if result.traced else "untraced"
    reps = len(result.samples["wall_s"])
    print(f"== {result.name} ({kind}, {reps} repetitions): {result.job.note}")
    for key, metric in result.metrics.items():
        line = f"  {key:<28} {metric['value']:>14.6g} {metric['unit']}"
        if key == "work_per_s":
            line += f" ({result.job.work_unit} per second after the imports)"
        values = result.samples.get(key)
        if not result.traced and values:
            line += f"  min {min(values):.4g}, median {statistics.median(values):.4g}, max {max(values):.4g}"
        print(line)
    checks = result.checks
    ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"  {'failed_ratio':<28} {ratio:>14.6g} ratio  ({checks.failed} of {checks.attempted} checks)")
    for reason in checks.reasons[:5]:
        print(f"  check failed: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="permutiple benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1, help="input seed; only families uses it")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="measuring time per run")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--smoke", action="store_true", help="tiny bounds, for the self-tests")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if not (ROOT / "src" / "permutiple" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src'} holds no permutiple package; run from a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.trace == "both" else (args.trace == "1",)
    print("machine " + json.dumps(machine_facts()))
    results = []
    for name in names:
        for traced in modes:
            try:
                result = run_workload(name, args.seed, args.seconds, traced, args.smoke)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            _print_result(result)
            results.append(result)
    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {
            f"{r.name}/{key}": value for r in results for key, value in r.metrics.items()
        }
    failed = sum(r.checks.failed for r in results)
    line = {
        "correct": failed == 0,
        "attempted": sum(r.checks.attempted for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
