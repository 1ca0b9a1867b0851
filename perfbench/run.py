"""f4workbench benchmark: one workload, end to end or traced by layer.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  Each sample is a fresh interpreter
(perfbench/sample.py) that pays for the import, the model build and the cold
straightening memos, as a command-line run does.  Samples run one at a time,
so at most two processes (this one and a sample) are alive at once.

--trace 0 runs untraced samples for about --seconds, at least one, and
reports the slowest sample's wall_s and cpu_s and the medians of setup_s and
peak_rss_mb.  --trace 1
runs pairs of one untraced and one cProfile-traced sample and reports the
per-layer figures of the traced one, plus trace.overhead_s, the median gap
between the two.

For each workload prints a stamp line (nproc, Python version, commit, seed,
sample count) and a result line {"correct", "attempted", "failed",
"metrics"}; with --workload all a last line sums the results.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, OPS_PER_ROUND, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SAMPLE_TIMEOUT_S = 170
# Setup-only processes an untraced run adds, so that setup_s is a median of
# at least three set-ups.
SETUP_PROBES = 2

# Each end-to-end metric: its unit, and how a run's samples are summarised.
# On a shared machine the loaded speed is the usual one, and samples that
# fall in a lull of the other tenants run up to 40 % faster.  The slowest
# sample of a run is therefore the steadiest estimate of the workload's time:
# over ten-run sets its quartile spread was 0.06 to 0.22, against 0.11 to
# 0.38 for the mean and 0.13 to 0.41 for the median (perfbench/README.md).
END_TO_END = {"setup_s": ("s", statistics.median),
              "wall_s": ("s", max),
              "cpu_s": ("s", max),
              "peak_rss_mb": ("MB", statistics.median)}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def git_commit():
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_sample(workload, seed, trace):
    """One sample process; returns its record, or None if it died."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--src", SRC]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("sample timed out after %d s" % SAMPLE_TIMEOUT_S,
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(lines[-1])


def measure(workload, seed, seconds, traced):
    """Run one workload for about `seconds`; returns (stamp, result)."""
    plain, profiled = [], []
    rounds = attempted = failed = 0
    problems = []
    start = time.monotonic()
    setups = []
    for _ in range(0 if traced else SETUP_PROBES):
        rec = run_sample("setup", seed, False)
        if rec is not None:
            setups.append(rec["setup_s"])
    durations = []
    while True:
        t0 = time.monotonic()
        batch = [run_sample(workload, seed, False)]
        if traced:
            batch.append(run_sample(workload, seed, True))
        durations.append(time.monotonic() - t0)
        for rec in batch:
            rounds += 1
            if rec is None:
                attempted += OPS_PER_ROUND[workload]
                failed += OPS_PER_ROUND[workload]
                continue
            attempted += rec["attempted"]
            failed += rec["failed"]
            problems.extend(rec["problems"])
            (profiled if "layers" in rec else plain).append(rec)
        elapsed = time.monotonic() - start
        if elapsed + max(durations) > seconds:
            break

    metrics = {}
    if not traced and plain:
        for name, (unit, summary) in END_TO_END.items():
            metrics[name] = {"value": summary([r[name] for r in plain]),
                             "unit": unit}
        metrics["setup_s"]["value"] = statistics.median(
            setups + [r["setup_s"] for r in plain])
    if traced and plain and profiled:
        for name in profiled[0]["layers"]:
            metrics[name] = {"value": statistics.median(
                r["layers"][name] for r in profiled), "unit": _unit(name)}

        def total(r):
            return r["setup_s"] + r["wall_s"]
        metrics["trace.overhead_s"] = {
            "value": statistics.median(total(r) for r in profiled)
            - statistics.median(total(r) for r in plain), "unit": "s"}

    for p in problems[:10]:
        print("%s: problem: %s" % (workload, p), file=sys.stderr)
    stamp = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "commit": git_commit(), "workload": workload, "seed": seed,
             "samples": rounds, "traced_samples": len(profiled),
             "setup_probes": len(setups), "seconds": seconds,
             "sample_wall_s": [round(r["wall_s"], 4) for r in plain]}
    result = {"correct": not problems and len(metrics) > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return stamp, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=58.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "f4workbench", "uea.py")):
        print("no program to measure: %s/f4workbench is missing" % SRC,
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        stamp, result = measure(name, args.seed, args.seconds,
                                bool(args.trace))
        print(json.dumps({"stamp": stamp}))
        print(json.dumps(result))
        results[name] = result
    if len(names) > 1:
        # One summary line for all workloads, metrics keyed workload/metric.
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, m): v for w, r in results.items()
                        for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
