"""Judges every report against the answer the benchmark knows.

Runs after the timed loop, in the benchmark's own process, which never
imports ``tanglemc``.  Each op kind has one judge; a judge returns None for
a right answer and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import random

import ref

# Schemas per logic, as the paper's axiom lists give them: the soundness
# suite checks one instance of each on every trial frame.
SCHEMA_COUNT = {"K4C": 8, "K4DC": 9, "K4I": 8, "K4DI": 9}


class BenchmarkError(Exception):
    """The benchmark's own known answer is wrong; no report can be judged."""


def judge(op, code, stdout):
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if "error" in report:
        return f"exit {code}: {report['error']}"
    e = op["expect"]
    return JUDGES[e["kind"]](e, code, report)


def _want(**pairs):
    """Reason for the first (got, want) pair that differs."""
    for name, (got, want) in pairs.items():
        if got != want:
            return f"{name} is {got!r}, expected {want!r}"
    return None


def _validity(e, code, r):
    model = ref.Model.from_dict(e["frame"])
    f = e["formula"]
    names = ref.variables(f)
    if e["theorem"]:
        checked = e["samples"] or 1 << (len(model.worlds) * len(names))
        return _want(exit=(code, 0), valid=(r["valid"], True), checked=(r["checked"], checked))
    bad = _want(exit=(code, 1), valid=(r["valid"], False))
    if bad:
        return bad
    cm = r["countermodel"]
    if sorted(cm["valuation"]) != names:
        return f"countermodel values {sorted(cm['valuation'])}, expected {names}"
    if cm["world"] in ref.evaluate(model.with_valuation(cm["valuation"]), f):
        return f"formula holds at the reported world {cm['world']!r}"
    if e["samples"]:
        return None if 1 <= r["checked"] <= e["samples"] else f"checked {r['checked']}"
    code0, world = ref.first_failure(model, f, 1 << len(model.worlds))
    return _want(
        checked=(r["checked"], code0 + 1),
        world=(cm["world"], world),
        valuation=(cm["valuation"], ref.code_valuation(model.worlds, names, code0)),
    )


def _check(e, code, r):
    model = ref.Model.from_dict(e["frame"])
    truth = ref.evaluate(model, e["formula"])
    want = [w for w in model.worlds if w in truth]
    return _want(exit=(code, 0), truth_set=(r["truth_set"], want))


def _search(e, code, r):
    if e["theorem"]:
        bad = _want(exit=(code, 0), verdict=(r["verdict"], "none-within-bounds"))
        if bad is None and not r["frames_checked"] >= 1:
            bad = f"frames_checked is {r['frames_checked']}"
        return bad
    bad = _want(exit=(code, 1), verdict=(r["verdict"], "countermodel"))
    if bad:
        return bad
    cm = r["countermodel"]
    model = ref.Model.from_dict(cm["frame"])
    if len(model.worlds) > e["max_worlds"]:
        return f"countermodel has {len(model.worlds)} worlds"
    if not ref.in_class(model, e["logic"]):
        return f"countermodel frame is not in the class of {e['logic']}"
    if cm["world"] in ref.evaluate(model, e["formula"]):
        return f"formula holds at the reported world {cm['world']!r}"
    return None


def _axioms(e, code, r):
    return _want(
        exit=(code, 0),
        violations=(r["violations"], []),
        frames_checked=(r["frames_checked"], e["trials"]),
        instances_checked=(r["instances_checked"], e["trials"] * SCHEMA_COUNT[e["logic"]]),
    )


def _story_validate(e, code, r):
    story = e["story"]
    if "condition" in e:
        return _want(exit=(code, 1), valid=(r["valid"], False),
                     condition=(r.get("condition"), e["condition"]))
    return _want(
        exit=(code, 0),
        valid=(r["valid"], True),
        duration=(r.get("duration"), len(story["levels"]) - 1),
        immersive=(r.get("immersive"), ref.story_immersive(story)),
    )


def _story_class(e, code, r):
    story = e["story"]
    return _want(exit=(code, 0), flags=(r["flags"], ref.story_flags(story)),
                 immersive=(r["immersive"], ref.story_immersive(story)))


def _oplus(e, code, r):
    bad = _want(exit=(code, 0))
    if bad:
        return bad
    problems = ref.oplus_problems(e["story"], r["result"], r["projections"])
    return problems[0] if problems else None


def _pathspace(e, code, r):
    story = e["story"]
    paths = sum(ref.count_paths(lv["worlds"], lv["rel"], e["resolution"])
                for lv in story["levels"])
    return _want(
        exit=(code, 0),
        violations=(r["violations"], []),
        paths_checked=(r["paths_checked"], paths),
        levels=(r["levels"], len(story["levels"])),
        resolution=(r["resolution"], e["resolution"]),
    )


JUDGES = {
    "validity": _validity,
    "check": _check,
    "search": _search,
    "axioms": _axioms,
    "story-validate": _story_validate,
    "story-class": _story_class,
    "oplus": _oplus,
    "pathspace-verify": _pathspace,
}


def confirm_known_answers(ops, seed):
    """Check the benchmark's own claims before trusting them: theorems hold
    under a few random valuations, each mutated story breaks exactly its
    condition and every other story none, and path-space stories have fat
    reflexive clusters.  Raises BenchmarkError otherwise."""
    rng = random.Random(seed)
    for i, op in enumerate(ops):
        e = op["expect"]
        if e.get("theorem") and "frame" in e:
            model = ref.Model.from_dict(e["frame"])
            tries = 1 if len(model.worlds) > 100 else 8
            for _ in range(tries):
                val = {p: [w for w in model.worlds if rng.random() < 0.5]
                       for p in ref.variables(e["formula"])}
                if ref.evaluate(model.with_valuation(val), e["formula"]) != model.all:
                    raise BenchmarkError(f"op {i}: theorem fails under {val}")
        if "story" in e:
            want = {e["condition"]} if "condition" in e else set()
            if ref.story_violations(e["story"]) != want:
                raise BenchmarkError(f"op {i}: story does not break exactly {want}")
            if e["kind"] == "pathspace-verify" and not ref.fat_clusters(e["story"]):
                raise BenchmarkError(f"op {i}: story has a reflexive singleton cluster")
