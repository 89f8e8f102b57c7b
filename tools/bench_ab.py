#!/usr/bin/env python3
"""A/B benchmark of two git revisions: alternating pairs of perfbench runs.

Usage (from the repository root):

    python3 tools/bench_ab.py --parent HEAD~1 --change HEAD \\
        --seeds 101 102 103 104 105 106 107 108 109 110 --out BENCH_6.json

Both revisions are exported with ``git archive`` into a temporary
directory, so the runs see committed files only; to measure uncommitted
work, stage it and pass the commit that ``git stash create`` prints.  For
every seed, and for every workload in ``BENCHMARK.json``, the script runs
``perfbench/run.py --trace 0`` once in each tree; which side goes first
alternates from one pair to the next.  A seed that the ``seeds`` of a
``BENCH_*.json`` committed at ``HEAD`` already list makes the script exit
2, naming the file, before it exports anything.  The output file holds,
per workload and end-to-end metric, each side's median and quartiles, the
pairs the change won (ties count for neither), whether that makes a
claimable gain (at least nine tenths of the pairs won, and the medians
further apart than the parent's quartiles) and the change against the
benchmark's bound; per workload the failed op runs and the seeds whose
reports differ between the two sides; and the seeds, settings, Python
version and git revisions.  It is rewritten after every pair, so a cut
run leaves the pairs it finished.  At the end the script prints a table
with one row per workload and end-to-end metric: both medians, the
median change, the pairs the change won, and the ``gain`` and
``within_bound`` verdicts; then one row per workload: each side's
failed/attempted op runs and the seeds whose reports differ ("none" when
every seed agrees).
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT = os.path.join(".bench_build", "perfbench", "result.json")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: str) -> dict:
    """Write the files of `rev` under `dest`; returns its commit hash and
    the hash of its ``src`` tree, which names the measured sources even
    when later commits change only documents."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest)
    return {"commit": commit, "src_tree": git("rev-parse", f"{commit}:src").decode().strip()}


def spent_seeds(seeds: list[int]) -> dict[int, str]:
    """The seeds of `seeds` that a ``BENCH_*.json`` committed at ``HEAD``
    lists in its ``seeds``, each with the first such file by name."""
    spent = {}
    names = git("ls-tree", "--name-only", "HEAD").decode().split("\n")
    for name in sorted(n for n in names if fnmatch.fnmatch(n, "BENCH_*.json")):
        for seed in json.loads(git("show", f"HEAD:{name}")).get("seeds", []):
            if seed in seeds:
                spent.setdefault(seed, name)
    return spent


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its metrics, failed op runs and a hash of
    the reports the worker printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_ab: {' '.join(cmd[1:])} exited {proc.returncode} in {tree}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(tree, RESULT), encoding="utf-8") as fh:
        reports = json.load(fh)["reports"]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    return {
        "seed": seed,
        "failed": line["failed"],
        "attempted": line["attempted"],
        "reports_sha256": digest,
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 2
    q = quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarise(runs: dict, metrics: list[dict]) -> dict:
    """Per end-to-end metric: medians, quartiles, change-better pairs and
    the verdicts the benchmark's rules give."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name] for r in runs["parent"]]
        b = [r["metrics"][name] for r in runs["change"]]
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        pa, pb = median(a), median(b)
        qa = quartiles(a)
        worse = (pb - pa) / pa if lower else (pa - pb) / pa
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": {"median": pa, "quartiles": qa, "runs": a},
            "change": {"median": pb, "quartiles": quartiles(b), "runs": b},
            "change_better_pairs": wins,
            "pairs": len(a),
            "gain": wins >= 0.9 * len(a) and (pa - pb if lower else pb - pa) > qa[1] - qa[0],
            "worse_share": worse,
            "bound": m["bound"],
            "within_bound": worse <= m["bound"],
        }
    return out


def _aligned(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(k) for c, k in zip(r, widths)).rstrip() for r in rows)


def closing_table(workloads: dict) -> str:
    """One row per workload and end-to-end metric of a finished run, then
    one per workload with each side's failed/attempted op runs and the
    seeds whose reports differ."""
    rows = [("workload", "metric", "parent", "change", "median", "won", "gain", "within_bound")]
    for w, data in workloads.items():
        for name, m in data["metrics"].items():
            pa, ch = m["parent"]["median"], m["change"]["median"]
            rows.append((w, name, f"{pa:.4g}", f"{ch:.4g}", f"{(ch - pa) / pa:+.1%}",
                         f"{m['change_better_pairs']}/{m['pairs']}",
                         "yes" if m["gain"] else "no", "yes" if m["within_bound"] else "NO"))
    ops = [("workload", "parent failed", "change failed", "reports differ at seeds")]
    for w, data in workloads.items():
        runs = [f"{data['failed'][s]}/{data['attempted'][s]}" for s in ("parent", "change")]
        ops.append((w, *runs, " ".join(map(str, data["seeds_with_different_reports"])) or "none"))
    return _aligned(rows) + "\n\n" + _aligned(ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="one pair of runs per seed and workload")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--tmp", help="directory for the exported trees")
    args = parser.parse_args(argv)
    spent = spent_seeds(args.seeds)
    if spent:  # a claim must hold on seeds no earlier run has seen
        for seed, name in sorted(spent.items()):
            print(f"bench_ab: seed {seed} is already in the seeds of {name}", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    work = tempfile.mkdtemp(prefix="bench_ab-", dir=args.tmp)
    try:
        trees = {side: os.path.join(work, side) for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), trees[side]) for side in trees}
        runs = {w: {"parent": [], "change": []} for w in workloads}
        doc = {
            "revisions": commits,
            "python": platform.python_version(),
            "machine": {"arch": platform.machine(), "cpus": os.cpu_count()},
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds} --trace 0",
            "seeds": args.seeds,
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                for side in order:
                    runs[w][side].append(run_once(trees[side], w, seed, seconds))
                pa, ch = runs[w]["parent"][-1], runs[w]["change"][-1]
                print(f"seed {seed} {w}: run_s {pa['metrics']['run_s']:.4f} -> "
                      f"{ch['metrics']['run_s']:.4f} ({order[0]} first)", flush=True)
            doc["workloads"] = {
                w: {
                    "failed": {s: sum(r["failed"] for r in runs[w][s]) for s in trees},
                    "attempted": {s: sum(r["attempted"] for r in runs[w][s]) for s in trees},
                    "seeds_with_different_reports": [
                        a["seed"] for a, b in zip(runs[w]["parent"], runs[w]["change"])
                        if a["reports_sha256"] != b["reports_sha256"]
                    ],
                    "metrics": summarise(runs[w], bench["end_to_end"]),
                }
                for w in workloads
            }
            doc["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(closing_table(doc["workloads"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
