#!/usr/bin/env python3
"""Performance ledger command line (standard library only).

Builds ledger/erb_ledger from the repository's sources into .bench_build/,
runs one workload per process and checks every output.

  measure --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last line of standard output is the
      result: {"correct", "attempted", "failed", "metrics"}, carrying every
      end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
      metric (--trace 1).
  run [--workloads a,b] [--seed N] [--seconds S] [--repeat R] [--trace]
      [--out DIR]
      Runs the workloads at one thread, writes one report per run to DIR and
      prints every metric as `workload metric median unit [q1-q3, n]`. Exits
      nonzero if an operation failed or an output was wrong.
  compare BASE_DIR HEAD_DIR [--claim WORKLOAD:METRIC]
      Compares two sets of run reports per workload and end-to-end metric.
  validate REPORT...
      Checks reports' metric names and units against BENCHMARK.json.
  smoke [--binary PATH] [--out DIR]
      Every workload on tiny inputs at 1 and 4 threads: digests, phase
      accounting, report schema and the traced Chrome trace.
"""
import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def benchmark_spec():
    return load_json(ROOT / "BENCHMARK.json")


def build():
    """Configures (once) and builds erb_ledger; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"repository sources not found under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", str(BUILD), "--target", "erb_ledger", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "erb_ledger"


def run_binary(binary, workload, seed, seconds, threads, trace, smoke,
               report_path, chrome_path=None):
    """Runs one workload process and returns its report."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--threads={threads}",
           f"--json={report_path}"]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    if chrome_path:
        cmd.append(f"--chrome={chrome_path}")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload}: erb_ledger exited with {proc.returncode}")
    return load_json(report_path)


def expected_digests(report):
    """The pinned digests for a report's workload, or None when its seed has
    none (only seed 0 is pinned)."""
    if report["seed"] != 0:
        return None
    pins = load_json(HERE / "expected.json")
    return pins["smoke" if report["smoke"] else "full"].get(report["workload"])


def output_problems(report):
    """Every reason the report's outputs are not correct."""
    problems = [f"check failed: {name}"
                for name, ok in report["checks"].items() if not ok]
    pinned = expected_digests(report)
    if pinned is not None and pinned != report["digests"]:
        problems.append(f"digests differ from ledger/expected.json: "
                        f"{report['digests']} != {pinned}")
    return problems


def validate_report(report, spec):
    """Names and units of a report against BENCHMARK.json."""
    errors = []
    if report.get("schema") != "erb-ledger/1":
        errors.append(f"schema {report.get('schema')!r} is not erb-ledger/1")
    names = [w["name"] for w in spec["workloads"]]
    if report.get("workload") not in names:
        errors.append(f"workload {report.get('workload')!r} not in {names}")
    for key in ("attempted", "failed"):
        if not isinstance(report.get(key), int) or report[key] < 0:
            errors.append(f"{key} is not a count")
    if report.get("attempted", 0) < 1:
        errors.append("attempted < 1")
    if not report.get("digests"):
        errors.append("no digests")
    sections = [("metrics", spec["end_to_end"])]
    if report.get("trace"):
        sections.append(("layers", spec["per_layer"]))
    for section, declared in sections:
        table = report.get(section, {})
        for metric in declared:
            got = table.get(metric["name"])
            if got is None:
                errors.append(f"{section}: {metric['name']} missing")
            elif got["unit"] != metric["unit"]:
                errors.append(f"{section}: {metric['name']} unit {got['unit']!r}"
                              f" != {metric['unit']!r}")
            elif not isinstance(got["value"], (int, float)):
                errors.append(f"{section}: {metric['name']} is not a number")
    return errors


def cmd_measure(args):
    spec = benchmark_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.trace not in (0, 1):
        fail("--trace takes 0 or 1")
    binary = build()
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        report = run_binary(binary, args.workload, args.seed, args.seconds, 1,
                            args.trace == 1, False, Path(tmp) / "report.json")
    errors = validate_report(report, spec)
    if errors:
        fail("; ".join(errors))
    problems = output_problems(report)
    for p in problems:
        print(f"ledger: {p}", file=sys.stderr)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    table = report["layers"] if args.trace else report["metrics"]
    result = {
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": table[m["name"]]["value"],
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


def print_report(report):
    """Prints `workload metric median unit [q1-q3, n]` lines for a report."""
    w = report["workload"]
    rows = list(report["metrics"].items()) + list(report["calls"].items())
    if report.get("trace"):
        rows += list(report["layers"].items())
    for name, m in rows:
        print(f"{w:18} {name:34} {m['value']:12.6g} {m['unit']:6} "
              f"[{m['q1']:.6g}-{m['q3']:.6g}, n={m['n']}]")
    for name, share in report["call_share"].items():
        print(f"{w:18} {'share.' + name:34} {share:12.3f} of rt_s")
    for kind, lat in report.get("latency", {}).items():
        if isinstance(lat, dict):
            print(f"{w:18} {kind:34} p50={lat['p50']:.4g} p99={lat['p99']:.4g} "
                  f"p999={lat['p999']:.4g} us [n={lat['n']}]")
        else:
            print(f"{w:18} {kind:34} {lat:12.6g}")
    rate = report["failed"] / report["attempted"]
    print(f"{w:18} {'error_rate':34} {rate:12.6g} fraction "
          f"[{report['failed']}/{report['attempted']}]")


def cmd_run(args):
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    for w in workloads:
        if w not in names:
            fail(f"unknown workload {w!r}")
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    validator = ROOT / "tools" / "validate_trace.py"
    bad = 0
    for w in workloads:
        for r in range(args.repeat):
            stem = out / f"{w}.r{r}"
            chrome = f"{stem}.trace.json" if args.trace else None
            report = run_binary(binary, w, args.seed, seconds, 1, args.trace,
                                False, f"{stem}.json", chrome)
            print_report(report)
            problems = validate_report(report, spec) + output_problems(report)
            if chrome and validator.is_file():
                check = subprocess.run(
                    [sys.executable, str(validator),
                     str(ROOT / "docs" / "trace_schema.json"), chrome],
                    stdout=sys.stderr)
                if check.returncode != 0:
                    problems.append("Chrome trace failed validate_trace.py")
            if report["failed"]:
                problems.append(f"{report['failed']} failed operations")
            for p in problems:
                print(f"ledger: {w}: {p}", file=sys.stderr)
            bad += bool(problems)
    return 1 if bad else 0


def quartiles(values):
    """(q1, median, q3) of run-level values, as statistics.quantiles gives."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def cmd_compare(args):
    spec = benchmark_spec()

    def load_dir(d):
        # Traced runs are left out: their peak RSS includes trace buffers.
        reports = {}
        for path in sorted(glob.glob(os.path.join(d, "*.json"))):
            if path.endswith(".trace.json"):
                continue
            report = load_json(path)
            if report.get("schema") == "erb-ledger/1" and not report["trace"]:
                reports.setdefault(report["workload"], []).append(report)
        return reports

    base, head = load_dir(args.base), load_dir(args.head)
    mismatches = 0
    worse = 0
    for w in sorted(set(base) & set(head)):
        # Same workload, same seed and size: the outputs must be identical.
        pinned = {}
        for report in base[w] + head[w]:
            key = (report["seed"], report["smoke"])
            if pinned.setdefault(key, report["digests"]) != report["digests"]:
                mismatches += 1
                print(f"{w}: DIGEST MISMATCH at seed {report['seed']}")
        for side, reports in (("base", base[w]), ("head", head[w])):
            attempted = sum(r["attempted"] for r in reports)
            failed = sum(r["failed"] for r in reports)
            print(f"{w:18} {side} error_rate {failed / attempted:.6g} "
                  f"({failed}/{attempted})")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            a = [r["metrics"][name]["value"] for r in base[w]]
            b = [r["metrics"][name]["value"] for r in head[w]]
            qa, qb = quartiles(a), quartiles(b)
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            change = sign * (qb[1] - qa[1]) / qa[1]  # > 0 is worse
            # A spread wider than the bound leaves the verdict open unless
            # every head run is on the same side of every base run.
            separated = (all(sign * (y - x) < 0 for x in a for y in b) or
                         all(sign * (y - x) > 0 for x in a for y in b))
            if spread > bound and not separated:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            worse += verdict == "worse"
            print(f"{w:18} {name:12} base {qa[1]:.6g} [{qa[0]:.6g}-{qa[2]:.6g}] "
                  f"head {qb[1]:.6g} [{qb[0]:.6g}-{qb[2]:.6g}] "
                  f"{metric['unit']:4} change {100 * sign * change:+.2f}% "
                  f"(bound {100 * bound:.0f}%) {verdict}")
    if args.claim:
        w, name = args.claim.split(":", 1)
        metric = next((m for m in spec["end_to_end"] if m["name"] == name), None)
        if metric is None or w not in base or w not in head:
            fail(f"claim {args.claim!r} names no measured workload metric")
        sign = 1 if metric["better"] == "lower" else -1
        pairs = list(zip(base[w], head[w]))
        wins = sum(sign * (h["metrics"][name]["value"] -
                           b["metrics"][name]["value"]) < 0 for b, h in pairs)
        print(f"claim {args.claim}: head wins {wins}/{len(pairs)} pairs "
              f"({100 * wins / len(pairs):.0f}%; a gain needs >= 90%)")
    if mismatches:
        return 1
    return 2 if worse else 0


def cmd_validate(args):
    spec = benchmark_spec()
    bad = 0
    for path in args.reports:
        errors = validate_report(load_json(path), spec)
        print(f"{path}: " + ("OK" if not errors else "; ".join(errors)))
        bad += bool(errors)
    return 1 if bad else 0


def cmd_smoke(args):
    spec = benchmark_spec()
    binary = Path(args.binary) if args.binary else build()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    validator = ROOT / "tools" / "validate_trace.py"
    problems = []
    start = time.monotonic()
    for w in [w["name"] for w in spec["workloads"]]:
        reports = {}
        for threads in (1, 4):
            chrome = out / f"{w}.t{threads}.trace.json"
            report = run_binary(binary, w, 0, 1, threads, True, True,
                                out / f"{w}.t{threads}.json", chrome)
            reports[threads] = report
            found = validate_report(report, spec) + output_problems(report)
            if report["failed"]:
                found.append(f"{report['failed']} failed operations")
            # One traced pass: its phases plus the unattributed rest must
            # make up its wall time, and no phase may be counted twice.
            layers = report["layers"]
            phases = sum(layers[k]["value"]
                         for k in ("preprocess_ms", "index_ms", "query_ms"))
            wall = layers["pass_ms"]["value"]
            rest = layers["unattributed_ms"]["value"]
            if abs(phases + rest - wall) > 0.01 * wall or rest < -0.01 * wall:
                found.append(f"phases {phases:.3f} + unattributed {rest:.3f} "
                             f"!= pass {wall:.3f} ms")
            if validator.is_file():
                check = subprocess.run(
                    [sys.executable, str(validator),
                     str(ROOT / "docs" / "trace_schema.json"), str(chrome)],
                    stdout=sys.stderr)
                if check.returncode != 0:
                    found.append("Chrome trace failed validate_trace.py")
            problems += [f"{w} threads={threads}: {p}" for p in found]
        if reports[1]["digests"] != reports[4]["digests"]:
            problems.append(f"{w}: digests differ between 1 and 4 threads")
    for p in problems:
        print(f"ledger smoke: {p}", file=sys.stderr)
    print(f"ledger smoke: {'FAIL' if problems else 'OK'} "
          f"({time.monotonic() - start:.1f} s)")
    return 1 if problems else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="one run of one workload")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("run", help="run workloads and print every metric")
    p.add_argument("--workloads", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=0,
                   help="default: BENCHMARK.json run_seconds")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=str(BUILD / "reports"))
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compare", help="compare two directories of reports")
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--claim", default="")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("validate", help="check reports against BENCHMARK.json")
    p.add_argument("reports", nargs="+")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("smoke", help="tiny inputs at 1 and 4 threads")
    p.add_argument("--binary", default="")
    p.add_argument("--out", default=str(BUILD / "smoke"))
    p.set_defaults(fn=cmd_smoke)

    args = parser.parse_args(argv)
    if args.command in ("measure", "run") and (args.seed < 0 or args.seconds < 0):
        fail("--seed and --seconds must not be negative")
    return args.fn(args) or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
