#!/usr/bin/env python3
"""Build and run the serving-stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first form builds the `perfbench`
package (a Cargo workspace of its own that depends on the repository's
crates by path) in release mode, runs one workload, and passes its
standard output through: the last line is the JSON result. Build output
goes to standard error. The build lands in `$CARGO_TARGET_DIR`, or
`perfbench/target` when that is unset; the run's durable directories live
in a scratch directory under it and are removed afterwards.

`--self-test` runs every workload of `BENCHMARK.json` briefly, traced and
untraced, and checks that each run is correct and prints every declared
metric as a finite number with its declared unit.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the program's own phases end well before.
RUN_TIMEOUT_S = 175
SELF_TEST_SECONDS = "2"


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))


def build():
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_once(workload, seed, seconds, trace):
    """Run the benchmark binary once; returns (exit code, stdout)."""
    scratch = os.path.join(target_dir(), "perfbench-scratch", "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    cmd = [
        os.path.join(target_dir(), "release", "perfbench"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scratch", scratch,
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code, out = 1, ""
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return code, out


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out = run_once(w["name"], 7, SELF_TEST_SECONDS, trace)
            where = "%s --trace %d" % (w["name"], trace)
            before = len(problems)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s: exit %d" % (where, code))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: keys %s" % (where, sorted(result)))
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s" % (
                    where, result["correct"], result["attempted"], result["failed"]))
            declared = {m["name"]: m["unit"] for m in table}
            printed = result["metrics"]
            if set(printed) != set(declared):
                problems.append("%s: metrics differ: missing %s, extra %s" % (
                    where, sorted(set(declared) - set(printed)), sorted(set(printed) - set(declared))))
            for name, m in printed.items():
                value = m.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append("%s: %s is not a finite number" % (where, name))
                if name in declared and m.get("unit") != declared[name]:
                    problems.append("%s: %s has unit %s, declared %s" % (
                        where, name, m.get("unit"), declared[name]))
            ok = "ok" if len(problems) == before else "FAILED"
            print("self-test %-28s %2d metrics %s" % (where, len(printed), ok))
    for p in problems:
        print("self-test problem: " + p)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
