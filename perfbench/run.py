#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (hfq_perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_hot|plan_cold|exec_analytic \
        --seed N --seconds S --trace 0|1

The optimizer libraries and the benchmark are built from source with CMake
into $CARGO_TARGET_DIR (default .bench_build); build output goes to stderr.
The benchmark's stdout is passed through, and its last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end set, with --trace 1 its per_layer
set; units come from BENCHMARK.json, values from hfq_perfbench. Exits
non-zero when the build fails, an output check fails (the result line then
reads "correct": false), or the run exceeds its time limit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "hfq_perfbench"],
        stdout=sys.stderr, check=True)


def result_line(raw, trace):
    """The benchmark's result from hfq_perfbench's {"values": ...} line.

    BENCHMARK.json names the metrics of each mode and their units: the
    end_to_end set without tracing, the per_layer set with it. Every value
    the program reports must be listed there, and every end-to-end metric
    must be measured; a per-layer metric the workload does not exercise
    reads 0.
    """
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = raw["values"]
    unknown = sorted(set(values) - {m["name"] for m in
                                    spec["end_to_end"] + spec["per_layer"]})
    missing = sorted(m["name"] for m in spec["end_to_end"]
                     if m["name"] not in values)
    if unknown or missing:
        raise ValueError("metrics differ from BENCHMARK.json: unknown %s, "
                         "end-to-end not measured %s" % (unknown, missing))
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = values.get(m["name"], 0.0)
        print("metric %-36s %16.9g %s%s" % (
            m["name"], value, m["unit"],
            "" if m["name"] in values else "  (n/a on this workload)"))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--protocol", default="alternate",
                        help="exec_analytic measured-exec protocol "
                             "(alternate|aa|learned-first|expert-first)")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "hfq_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--protocol", args.protocol,
               "--trace-dir", os.path.join(build_dir, "traces")]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        print("benchmark did not finish within %ds" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = result_line(json.loads(lines[-1]), args.trace == 1)
    except (ValueError, KeyError, OSError) as e:
        print("bad result: %s" % e, file=sys.stderr)
        return proc.returncode or 1
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
