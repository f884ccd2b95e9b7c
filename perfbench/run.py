#!/usr/bin/env python3
"""Repository benchmark for dfsim: builds perfbench/ and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload prod_milc --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

The program is built from source (CMake, Release) into $CARGO_TARGET_DIR
(default .bench_build) on first use. Human-readable lines (host facts, the
equal-work record, every metric with its unit) come first; the last line of
standard output is the JSON result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The full report, with the pass timings, spans and host
facts, is written to <build>/results/. The exit code is 0 only when every
trial passed the correctness gate.
"""
import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench-release")


def build():
    """Configure and build the benchmark program; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "dfsim_perfbench")


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit("perfbench: unknown workload " + repr(args.workload))
    exe = build()
    # Scratch space for the run's cache directories and journals; a run that
    # was killed leaves its directory behind, so start from an empty one.
    work = os.path.join(build_dir(), "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--git-commit", git_commit()]
    if args.event_budget is not None:
        cmd += ["--event-budget", str(args.event_budget)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit("perfbench: program exited %d without a report" % proc.returncode)

    want = expected_metrics(spec, args.trace)
    got = {k: v["unit"] for k, v in report["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise SystemExit("perfbench: metrics do not match BENCHMARK.json "
                         "(missing %s, unexpected %s, unit differs %s)"
                         % (missing, extra, wrong))

    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)

    host = report["host"]
    print("perfbench %s seed=%d trace=%d: %d untraced + %d traced passes"
          % (args.workload, args.seed, args.trace, report["passes"],
             report["traced_passes"]))
    print("host: nproc=%s hardware_concurrency=%s trial_jobs=%s compiler=%s "
          "build=%s flags=%s commit=%s"
          % (host["nproc"], host["hardware_concurrency"], host["trial_jobs"],
             host["compiler"], host["build_type"], host["cxx_flags"].strip(),
             host["git_commit"]))
    print("equal work: " + " ".join("%s=%s" % kv for kv in report["equal_work"].items()))
    print("fail_ratio = %d/%d" % (report["failed"], report["attempted"]))
    for why in report["failures"]:
        print("FAILED: " + why)
    for name, m in report["metrics"].items():
        print("%-32s %.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        for name, values in report["samples"].items():
            if len(values) >= 2:
                q = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                print("spread %-14s median of %d, quartile spread %.1f%% of median"
                      % (name, len(values), 100.0 * (q[2] - q[0]) / med if med else 0.0))
    print("report: " + os.path.relpath(path, ROOT))
    result = {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and report["correct"] else 1


# --- self-test -----------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        problems.append("BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += ["bad name " + n for n in names if not NAME.match(n)]
    if len(set(names)) != len(names):
        problems.append("duplicate names")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]):
            problems.append("bad unit for " + m["name"])
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append("bound out of range for " + m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or malformed")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("workload count")
    return problems


def invoke(*extra):
    cmd = [sys.executable, os.path.abspath(__file__)] + [str(a) for a in extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, proc.stdout, result


def selftest():
    spec = load_spec()
    problems = check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, out, res = invoke("--workload", w["name"], "--seed", 7,
                                    "--seconds", 1, "--trace", trace)
            tag = "%s trace=%d" % (w["name"], trace)
            if code != 0 or res is None or not res["correct"] or res["failed"]:
                problems.append(tag + ": run failed (exit %d)" % code)
                continue
            for name, unit in expected_metrics(spec, trace).items():
                # Every metric must be printed with its unit, both in the
                # human-readable lines and in the result line.
                if not re.search(r"^%s\s+\S+ %s$" % (re.escape(name), re.escape(unit)),
                                 out, re.M):
                    problems.append("%s: %s not printed with unit %s" % (tag, name, unit))
                if res["metrics"].get(name, {}).get("unit") != unit:
                    problems.append("%s: %s missing from the result" % (tag, name))
            log("selftest: %s ok" % tag)
    # A forced failure (an event budget of 1) must be counted, not skipped.
    code, _, res = invoke("--workload", spec["workloads"][0]["name"], "--seed", 7,
                          "--seconds", 1, "--trace", 0, "--event-budget", 1)
    if code == 0 or res is None or res["correct"] or res["failed"] < 1 \
            or res["attempted"] < res["failed"]:
        problems.append("forced failure was not counted in fail_ratio "
                        "(exit %d, result %s)" % (code, res))
    else:
        log("selftest: forced failure counted, fail_ratio %d/%d"
            % (res["failed"], res["attempted"]))
    for p in problems:
        log("selftest FAILED: " + p)
    log("selftest: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--event-budget", type=int, default=None,
                    help="per-trial engine event cap (the self-test forces a "
                         "failure with 1)")
    ap.add_argument("--selftest", action="store_true",
                    help="check the metric names and the failure accounting")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
