"""Seeded benchmark of time-to-verdict for tanglemc.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, search, large-frame, paths (see README.md).  The run
generates the workload's inputs from the seed, measures set-up time in
fresh interpreters, runs the op list in a worker process for about
`--seconds`, judges every report and prints one metric per line followed
by one JSON line.  `--trace 0` reports the end-to-end metrics, `--trace 1`
the per-layer metrics of a traced run.  Exits 2 when the sources under
src/ are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
from worker import calibrate  # noqa: E402

WORK = os.path.join(".bench_build", "perfbench")
MIN_ROUNDS = 3
SETUP_RUNS = 9
WORKER_TIMEOUT_S = 150
# Seconds the calibration loop takes on the machine the bounds were set on,
# when that machine is quiet.  Every reported time is scaled by
# REFERENCE_CALIBRATION_S / (calibration measured next to it), so a machine
# that runs slower for a while, as shared hosts do, moves the numbers less.
REFERENCE_CALIBRATION_S = 0.0013

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "verdict_s.p50": "s",
    "verdict_s.tail": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def measure_setup(env):
    """Median calibrated wall time of a fresh interpreter importing the CLI
    and building its parser, after one run that writes the bytecode caches.
    -S keeps the host's site-packages out of the measurement."""
    cmd = [sys.executable, "-S", "-c", "import tanglemc.cli as c; c.build_parser()"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_RUNS):
        scale = REFERENCE_CALIBRATION_S / calibrate()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append((time.perf_counter() - t0) * scale)
    return median(times)


def tail_percentile(ops_per_round):
    """Highest whole percentile with at least ten op runs beyond it in the
    fewest runs a measurement makes; fixed per workload, since every seed
    gives the same op count.  It is read from the ops' median times."""
    return math.floor(100 * (1 - 10 / (ops_per_round * MIN_ROUNDS)))


def percentile(values, p):
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_worker(ops, args, env):
    work = os.path.join(ROOT, WORK)
    job_path = os.path.join(work, "job.json")
    result_path = os.path.join(work, "result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({"src": os.path.join(ROOT, "src"), "ops": [op["argv"] for op in ops],
                   "seconds": args.seconds, "trace": bool(args.trace),
                   "min_rounds": 1 if args.trace else MIN_ROUNDS}, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path,
                           result_path], cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def op_times(rounds):
    """Each op's median calibrated time over the rounds, so that a slow
    spell of the host spoils one op run, not a round or a percentile."""
    return [median(r["times"][i] * r["scale"] for r in rounds)
            for i in range(len(rounds[0]["times"]))]


def _scaled(value, unit, scale):
    if unit == "s":
        return value * scale
    return value / scale if unit == "1/s" else value


def judge_runs(ops, result):
    """Reason per op (None when right) and the number of failed op runs."""
    reasons = []
    for i, op in enumerate(ops):
        code, out = result["reports"][i]
        if str(i) in result["raised"]:
            reasons.append(f"raised {result['raised'][str(i)]}")
        else:
            reasons.append(check.judge(op, code, out))
    differs = {(r, i) for r, i in result["mismatches"]}
    failed = sum(
        1 for r in range(len(result["rounds"])) for i in range(len(ops))
        if reasons[i] is not None or (r, i) in differs
    )
    for r, i in sorted(differs):
        if reasons[i] is None:
            reasons[i] = f"report of round {r} differs from round 0"
    return reasons, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tanglemc", "cli.py")):
        print(f"perfbench: no tanglemc sources in {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    work = os.path.join(ROOT, WORK)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    phases = [time.perf_counter()]
    setup_s = None if args.trace else measure_setup(env)
    phases.append(time.perf_counter())
    ops = gen.build(args.workload, args.seed, ROOT, os.path.join(WORK, "inputs"))
    phases.append(time.perf_counter())
    result = run_worker(ops, args, env)
    phases.append(time.perf_counter())
    check.confirm_known_answers(ops, args.seed)
    reasons, failed = judge_runs(ops, result)
    phases.append(time.perf_counter())
    rounds = result["rounds"]
    attempted = len(rounds) * len(ops)

    for r in rounds:
        r["scale"] = REFERENCE_CALIBRATION_S / r["calibration"]
    plain = [r for r in rounds if not r["traced"]]
    print(f"perfbench {args.workload} seed {args.seed}: {len(ops)} ops per round, "
          f"{len(plain)} untraced and {len(rounds) - len(plain)} traced rounds")
    print("phases (s): set-up {:.1f}, inputs {:.1f}, worker {:.1f}, checks {:.1f}".format(
        *(b - a for a, b in zip(phases, phases[1:]))))
    print(f"failed_share {failed / attempted:.4f} ({failed} of {attempted} op runs)")
    print(f"calibration {median(r['calibration'] for r in rounds) * 1000:.3f} ms "
          f"(reference {REFERENCE_CALIBRATION_S * 1000:.3f} ms); uncalibrated round "
          f"{median(sum(r['times']) for r in plain):.6f} s")
    for i, reason in enumerate(reasons):
        if reason is not None:
            print(f"FAILED op {i} {' '.join(ops[i]['argv'][:3])}: {reason}")

    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {
            name: median(_scaled(layers[name], layer_unit(name), r["scale"])
                         for layers, r in zip(result["layers"], traced))
            for name in result["layers"][0]
        }
        metrics["trace.overhead_s"] = sum(op_times(traced)) - sum(op_times(plain))
        units = {name: layer_unit(name) for name in metrics}
        trace_path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
        with open(os.path.join(ROOT, trace_path), "w", encoding="utf-8") as fh:
            json.dump(result["spans"], fh)
        print(f"spans written to {trace_path}")
    else:
        p = tail_percentile(len(ops))
        times = op_times(plain)
        metrics = {
            "setup_s": setup_s,
            "run_s": sum(times),
            "verdict_s.p50": median(times),
            "verdict_s.tail": percentile(times, p),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        units = END_TO_END
        runs = [t * r["scale"] for r in plain for t in r["times"]]
        beyond = sum(1 for t in runs if t > metrics["verdict_s.tail"])
        print(f"verdict_s.tail is p{p} of the op times; {beyond} of {len(runs)} "
              "op runs lie beyond it")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
