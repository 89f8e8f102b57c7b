"""Runs one workload's ops in one process through ``tanglemc.cli.main``.

A closed loop with one client: each op starts when the previous op's
report has been written.  The op list runs in whole rounds, at least
`min_rounds` of them, and a further round only starts while it is expected
to end within `seconds`.  With `trace`, untraced and traced rounds
alternate, so the tracing overhead is measured in the same process.  A
short calibration loop runs before every op; its median per round lets
the caller scale the round's times to a reference machine speed.

Usage: python3 perfbench/worker.py JOB.json RESULT.json
"""

from __future__ import annotations

import gc
import io
import json
import resource
import sys
from contextlib import redirect_stdout
from statistics import median
from time import perf_counter


def calibrate():
    """Seconds for a fixed piece of pure-Python work that does not touch
    tanglemc.  It runs between ops, so it sees the machine as the ops do."""
    t0 = perf_counter()
    x, d = 0, {}
    for i in range(10_000):
        x ^= (i * 2654435761) & 0xFFFF
        d[i & 255] = x
    return perf_counter() - t0


def run_op(cli, argv):
    """(exit code, seconds, stdout, exception text) of one CLI call."""
    out = io.StringIO()
    raised = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as e:
        code, raised = e.code, f"SystemExit: {e.code}"
    except Exception as e:  # a crash is a failed op, not a failed benchmark
        code, raised = None, f"{type(e).__name__}: {e}"
    return code, perf_counter() - t0, out.getvalue(), raised


def main(job_path, result_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from tanglemc import cli
    import tracer

    ops = job["ops"]
    reports = [None] * len(ops)
    raised = {}
    mismatches = []
    rounds = []
    layers = []
    spans = []

    def run_round(traced):
        gc.collect()
        rec = None
        if traced:
            rec = tracer.Recorder()
            tracer.install(rec)
        times, cals = [], []
        t0 = perf_counter()
        try:
            for i, argv in enumerate(ops):
                cals.append(calibrate())
                if rec:
                    rec.start_op(i)
                code, dt, out, err = run_op(cli, argv)
                if rec:
                    rec.end_op(tracer.HOT)
                    rec.add("cli.report_bytes", len(out))
                times.append(dt)
                if err:
                    raised.setdefault(i, err)
                if reports[i] is None:
                    reports[i] = [code, out]
                elif reports[i] != [code, out]:
                    mismatches.append([len(rounds), i])
        finally:
            if rec:
                rec.uninstall()
        wall = perf_counter() - t0
        rounds.append({"traced": traced, "wall": wall, "times": times,
                       "calibration": median(cals)})
        if rec:
            layers.append(tracer.layer_metrics(rec))
            spans.append({"spans": rec.spans, "hot_per_op": rec.per_op})
        return wall

    start = perf_counter()
    pattern = (False, True) if job["trace"] else (False,)
    done = 0
    while True:
        step = sum(run_round(traced) for traced in pattern)
        done += 1
        elapsed = perf_counter() - start
        if done >= job["min_rounds"] and elapsed + step > job["seconds"]:
            break

    result = {
        "rounds": rounds,
        "reports": reports,
        "raised": raised,
        "mismatches": mismatches,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
        "spans": spans,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
