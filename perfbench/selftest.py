#!/usr/bin/env python3
"""Self-checks of the end-to-end benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py [--seconds S] [--only NAME]

Checks (each prints PASS or FAIL; the exit code is the number of failures):

  determinism   Per workload: two runs with one seed print a byte-identical
                SQL stream digest, the same plan_cost_ratio and (exec_analytic)
                the same exec.join_rows_total; a run with another seed prints
                a different stream digest.
  aa            Measured-exec A/A: exec_analytic with the expert plan timed on
                both sides must give exec_time_ratio within EXEC_TOLERANCE of 1.
  order-swap    exec_analytic with the learned side always first and with the
                expert side always first must give exec_time_ratios within
                EXEC_TOLERANCE of each other, on the same side of 1.
  no-source     In a directory holding only BENCHMARK.json and perfbench/,
                run.py must exit non-zero without printing a result line.

Takes about ten minutes (every run trains its model during set-up).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Tolerance of the measured-exec protocol checks on exec_time_ratio.
EXEC_TOLERANCE = 0.10
WORKLOADS = ("serve_hot", "plan_cold", "exec_analytic")


def run(workload, seed, seconds, trace=0, protocol="alternate", cwd=ROOT,
        env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), "--protocol", protocol],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    if proc.returncode != 0:
        raise RuntimeError("run failed (exit %d): %s" %
                           (proc.returncode, proc.stdout[-2000:] +
                            proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def digest_of(proc):
    match = re.search(r"^digest (.*)$", proc.stdout, re.MULTILINE)
    if not match:
        raise RuntimeError("no digest line in the output")
    return dict(kv.split("=", 1) for kv in match.group(1).split())


def check_determinism(seconds):
    failures = []
    for workload in WORKLOADS:
        a1 = digest_of(run(workload, 11, seconds))
        a2 = digest_of(run(workload, 11, seconds))
        b = digest_of(run(workload, 12, seconds))
        if a1 != a2:
            failures.append("%s: seed 11 twice gave %s and %s" %
                            (workload, a1, a2))
        if a1["sql_stream"] == b["sql_stream"]:
            failures.append("%s: seeds 11 and 12 gave one SQL stream" %
                            workload)
        print("  %s: seed 11 %s, seed 12 %s" % (workload, a1, b))
    return failures


def exec_time_ratio(protocol, seconds):
    result = result_of(run("exec_analytic", 21, seconds, trace=1,
                           protocol=protocol))
    return result["metrics"]["exec_time_ratio"]["value"]


def check_aa(seconds):
    ratio = exec_time_ratio("aa", seconds)
    print("  A/A exec_time_ratio %.4f (tolerance %.2f)" %
          (ratio, EXEC_TOLERANCE))
    if abs(ratio - 1.0) > EXEC_TOLERANCE:
        return ["A/A exec_time_ratio %.4f is not within %.2f of 1" %
                (ratio, EXEC_TOLERANCE)]
    return []


def check_order_swap(seconds):
    learned_first = exec_time_ratio("learned-first", seconds)
    expert_first = exec_time_ratio("expert-first", seconds)
    print("  exec_time_ratio learned-first %.4f, expert-first %.4f" %
          (learned_first, expert_first))
    failures = []
    if abs(learned_first / expert_first - 1.0) > EXEC_TOLERANCE:
        failures.append("order swap moved exec_time_ratio by more than %.2f" %
                        EXEC_TOLERANCE)
    if (learned_first - 1.0) * (expert_first - 1.0) < 0 and \
            max(abs(learned_first - 1.0), abs(expert_first - 1.0)) > \
            EXEC_TOLERANCE:
        failures.append("order swap flipped the sign of learned vs expert")
    return failures


def check_no_source(_seconds):
    scratch = os.path.join(ROOT, ".bench_build", "selftest-no-source")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = run("serve_hot", 1, 1, cwd=scratch, env=env)
    shutil.rmtree(scratch, ignore_errors=True)
    failures = []
    if proc.returncode == 0:
        failures.append("run.py exited 0 without the optimizer sources")
    if '"correct"' in proc.stdout:
        failures.append("run.py printed a result without the sources")
    print("  exit code %d" % proc.returncode)
    return failures


CHECKS = {
    "no-source": check_no_source,
    "determinism": check_determinism,
    "aa": check_aa,
    "order-swap": check_order_swap,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--only", choices=sorted(CHECKS))
    args = parser.parse_args()
    failed = 0
    for name, check in CHECKS.items():
        if args.only and name != args.only:
            continue
        print("%s:" % name, flush=True)
        try:
            failures = check(args.seconds)
        except (RuntimeError, ValueError, KeyError,
                subprocess.TimeoutExpired) as e:
            failures = [str(e)]
        for failure in failures:
            print("  " + failure)
        print("%s %s" % ("FAIL" if failures else "PASS", name), flush=True)
        failed += bool(failures)
    return failed


if __name__ == "__main__":
    sys.exit(main())
