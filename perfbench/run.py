#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its result.

    python3 perfbench/run.py --workload paper8 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The script builds the benchmark
executable (perfbench/main.ml) with dune into .bench_build/, runs it,
and prints the executable's report followed, as the last line, by one
JSON object with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
Host times are in reference seconds (wall seconds corrected by a
calibration loop for the shared host's speed; see perfbench/main.ml).
setup_s is the median over three set-up passes, each in a fresh process
(the set-up pass fills process-wide memos, so only a fresh process pays
it again). With --trace 1 the metrics are the per-layer metrics.

Exit status: 0 when every run of every process was correct; 1 when a run
failed or the processes disagreed on the simulated results; 2 when the
benchmark could not build or run, in which case no result is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
TMP = os.path.join(BUILD_DIR, "perfbench")
SETUP_PASSES = 3
RESULT_TAG = "PERFBENCH_RESULT "
# every process must end inside the 180 s a run may take, build excluded
RUN_BUDGET_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        die("cannot run dune: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout[-4000:])
        die("build failed")


def run_exe(args, echo, deadline):
    """Run the executable; return its parsed result object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        die("no time left for %s" % " ".join(args))
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        die("%s timed out" % " ".join(args))
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        elif echo:
            print(line)
    sys.stdout.flush()
    if result is None or proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr[-4000:])
        die("%s ended with status %d and no result"
            % (" ".join(args), proc.returncode))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %s" % a.workload)

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(TMP, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed), "--tmp", TMP]
    main_res = run_exe(common + ["--seconds", str(a.seconds),
                                 "--trace", str(a.trace)],
                       echo=True, deadline=deadline)
    results = [main_res]
    if a.trace == 0:
        results += [run_exe(common + ["--setup-only"], echo=False,
                            deadline=deadline)
                    for _ in range(SETUP_PASSES - 1)]
    setups = [r["setup_s"] for r in results]
    # every process must reproduce the same simulated results
    digests_agree = len({r["sim_digest"] for r in results}) == 1
    if not digests_agree:
        print("FAIL simulated results differ between processes: %s"
              % [r["sim_digest"] for r in results])

    metrics = main_res["metrics"]
    if a.trace == 0:
        metrics["setup_s"]["value"] = statistics.median(setups)
        print("setup_s: median of %s s" % ", ".join("%.3f" % s for s in setups))
    want = [m["name"] for m in spec["end_to_end" if a.trace == 0 else "per_layer"]]
    if sorted(want) != sorted(metrics):
        die("metrics %s do not match BENCHMARK.json %s"
            % (sorted(metrics), sorted(want)))

    failed = sum(r["failed"] for r in results) + (0 if digests_agree else 1)
    correct = failed == 0 and all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
