#!/usr/bin/env python3
"""A/B start-up timing of two git revisions: one fresh process per command.

Usage (from the repository root):

    python3 tools/startup_ab.py --parent HEAD~1 --change HEAD --runs 15

Both revisions are exported as ``tools/bench_ab.py`` exports them, so the
runs see committed files only.  For every command below, on the inputs in
``demos/``, the script times ``python3 -S -m tanglemc <argv>`` in a fresh
process, with ``PYTHONDONTWRITEBYTECODE=1`` as the benchmark runs it, so
every process compiles the modules it loads from source.  Each run times
one process per side, parent and change interleaved, and which side goes
first alternates from one run to the next.  The times are wall times of the
whole process, not calibrated.  The script prints one row per command: the
minimum and the median of each side and the change of the median.  It exits
1 if any run's stdout or exit code differs between the two sides.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_ab import _aligned, export  # noqa: E402

STORY = "demos/story_chain.story.json"
COMMANDS = {
    "--help": ["--help"],
    "parse": ["parse", "--formula", "<t>{O p} -> O <t>{p}"],
    "check": ["check", "--frame", "demos/wheel.frame.json", "--formula",
              "<t>{O p} -> O <t>{p}"],
    "validity": ["validity", "--frame", "demos/wheel.frame.json", "--formula",
                 "[d](p -> q) -> [d]p -> [d]q"],
    "search": ["search", "--logic", "K4DC", "--formula", "[d]p -> [d][d]p"],
    "axioms": ["axioms", "--logic", "K4DI", "--trials", "10"],
    "story-validate": ["story-validate", "--story", STORY],
    "story-class": ["story-class", "--story", STORY],
    "oplus --story": ["oplus", "--story", STORY],
    "oplus --frame": ["oplus", "--frame", "demos/f1.frame.json"],
    "pathspace-verify": ["pathspace-verify", "--frame", "demos/f1_oplus.frame.json",
                         "--resolution", "8"],
}


def run_once(tree: str, argv: list[str]) -> tuple[float, int, str]:
    """Wall seconds, exit code and stdout of one fresh CLI process in `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-S", "-m", "tanglemc", *argv], cwd=tree,
                          env=env, capture_output=True, text=True)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--runs", type=int, default=15, help="processes per command and side")
    parser.add_argument("--tmp", help="directory for the exported trees")
    args = parser.parse_args(argv)

    work = tempfile.mkdtemp(prefix="startup_ab-", dir=args.tmp)
    try:
        trees = {side: os.path.join(work, side) for side in ("parent", "change")}
        for side, tree in trees.items():
            export(getattr(args, side), tree)
        rows = [("command", "parent min", "parent median", "change min", "change median",
                 "median")]
        differ = []
        for name, command in COMMANDS.items():
            times = {side: [] for side in trees}
            for i in range(args.runs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                outputs = {}
                for side in order:
                    dt, code, out = run_once(trees[side], command)
                    times[side].append(dt)
                    outputs[side] = (code, out)
                if outputs["parent"] != outputs["change"] and name not in differ:
                    differ.append(name)
            pa, ch = median(times["parent"]), median(times["change"])
            rows.append((name, f"{min(times['parent']) * 1e3:.1f} ms", f"{pa * 1e3:.1f} ms",
                         f"{min(times['change']) * 1e3:.1f} ms", f"{ch * 1e3:.1f} ms",
                         f"{(ch - pa) / pa:+.1%}"))
            print(f"{name}: {pa * 1e3:.1f} -> {ch * 1e3:.1f} ms", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(_aligned(rows))
    if differ:
        print(f"stdout or exit code differ: {', '.join(differ)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
