"""Tests of the benchmark's reference checker against hand-computed answers
on the demo files.  They import nothing from ``tanglemc``.

Run from the repository root:  python3 perfbench/selftest.py
(or ``python -m pytest perfbench/selftest.py``).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from ref import Box, Dia, Imp, Next, Not, Tan, Var  # noqa: E402

DEMOS = os.path.join(os.path.dirname(HERE), "demos")
p = Var("p")


def demo(name):
    with open(os.path.join(DEMOS, name), encoding="utf-8") as fh:
        return json.load(fh)


def model(name):
    return ref.Model.from_dict(demo(name))


def test_render_is_the_surface_syntax():
    assert ref.render(Imp(Box(p), Box(Box(p)))) == "[d]p -> [d][d]p"
    assert ref.render(Imp(Tan([Next(p)]), Next(Tan([p])))) == "<t>{O p} -> O <t>{p}"
    assert ref.render(Dia(ref.And(p, Imp(p, p)))) == "<d>(p & (p -> p))"


def test_truth_sets_on_demo_frames():
    # f1: a -> b, b -> b, p at b
    assert ref.evaluate(model("f1.frame.json"), Dia(p)) == {"a", "b"}
    # f3: the cluster {q1, q2} satisfies the tangle of O p, but every world
    # maps to the dead end o, where no tangle holds
    f3 = model("f3.frame.json")
    assert ref.evaluate(f3, Tan([Next(p)])) == {"q1", "q2"}
    assert ref.evaluate(f3, Imp(Tan([Next(p)]), Next(Tan([p])))) == {"o"}
    # wheel: p on the four reflexive sectors, which every world sees
    wheel = model("wheel.frame.json")
    sectors = {f"sector{i}" for i in range(4)}
    assert ref.evaluate(wheel, Tan([p])) == wheel.all
    assert ref.evaluate(wheel, Tan([Not(p)])) == frozenset()
    assert ref.evaluate(wheel, Next(p)) == sectors
    assert ref.evaluate(wheel, Dia(Not(p))) == {"hub"}


def test_first_failure_follows_the_sweep_order():
    # codes 0-3 put p inside {q1, q2}, which O p cannot see; code 4 is p = {o}
    f3 = model("f3.frame.json")
    assert ref.first_failure(f3, Imp(Tan([Next(p)]), Next(Tan([p]))), 8) == (4, "q1")
    assert ref.code_valuation(f3.worlds, ["p"], 4) == {"p": ["o"]}
    assert ref.first_failure(model("f1.frame.json"), Imp(Box(p), Box(Box(p))), 4) is None


def test_frame_classes():
    assert all(ref.in_class(model("wheel.frame.json"), lg) for lg in check.SCHEMA_COUNT)
    assert all(ref.in_class(model("f1.frame.json"), lg) for lg in check.SCHEMA_COUNT)
    f2 = model("f2.frame.json")  # one irreflexive world: not serial
    assert ref.in_class(f2, "K4I") and not ref.in_class(f2, "K4DC")
    f3 = model("f3.frame.json")  # q1 R q2 but o is irreflexive: not strict
    assert ref.in_class(f3, "K4C") and not ref.in_class(f3, "K4I")


def test_story_checks_on_story_chain():
    story = demo("story_chain.story.json")
    assert ref.story_violations(story) == set()
    assert ref.story_immersive(story)
    assert ref.story_flags(story) == ["K4C", "K4DC", "K4DI", "K4I"]
    assert not ref.fat_clusters(story)  # y is a reflexive singleton
    bad = json.loads(json.dumps(story))
    bad["maps"].append({"x2": "y2", "y2": "y2"})
    assert ref.story_violations(bad) == {"stabilising"}
    bad = json.loads(json.dumps(story))
    bad["maps"][0]["x0"] = "y1"
    # x0 and y0 now both land on the reflexive y1
    assert ref.story_violations(bad) == {"root-preserving", "almost-injective"}


def test_path_counts():
    story = demo("story_chain.story.json")
    # x -> y -> y ...: the prefix is x^k (k <= r) before the tail y, plus
    # the two constant paths
    assert ref.count_paths(story["levels"][0]["worlds"], story["levels"][0]["rel"], 10) == 12
    # lifted level: 3 constant paths, then 2^(k+1) paths with prefix length k
    lifted = gen.LIFTED_CHAIN["levels"][0]
    assert ref.count_paths(lifted["worlds"], lifted["rel"], 10) == 4095
    assert gen.story_paths(gen.LIFTED_CHAIN, 10) == 12285


def test_lifted_chain_is_the_oplus_of_story_chain():
    projections = [{f"x{i}": f"x{i}", f"y{i}": f"y{i}", f"y{i}'": f"y{i}"} for i in range(3)]
    story = demo("story_chain.story.json")
    assert ref.oplus_problems(story, gen.LIFTED_CHAIN, projections) == []
    assert ref.oplus_problems(story, story, [{w: w for w in lv["worlds"]}
                                             for lv in story["levels"]])


def test_judges_accept_right_and_reject_wrong_reports():
    f3 = demo("f3.frame.json")
    op = {"expect": {"kind": "validity", "frame": f3, "samples": None, "theorem": False,
                     "formula": Imp(Tan([Next(p)]), Next(Tan([p])))}}
    right = {"valid": False, "checked": 5,
             "countermodel": {"valuation": {"p": ["o"]}, "world": "q1"}}
    assert check.judge(op, 1, json.dumps(right)) is None
    assert check.judge(op, 1, json.dumps(dict(right, checked=6))) is not None
    assert check.judge(op, 0, json.dumps(right)) is not None
    op = {"expect": {"kind": "check", "frame": demo("f1.frame.json"), "formula": Dia(p)}}
    assert check.judge(op, 0, json.dumps({"truth_set": ["a", "b"]})) is None
    assert check.judge(op, 0, json.dumps({"truth_set": ["b"]})) is not None
    op = {"expect": {"kind": "pathspace-verify", "story": gen.LIFTED_CHAIN, "resolution": 10}}
    ok = {"violations": [], "paths_checked": 12285, "levels": 3, "resolution": 10}
    assert check.judge(op, 0, json.dumps(ok)) is None
    assert check.judge(op, 0, json.dumps(dict(ok, paths_checked=12284))) is not None


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in bench["end_to_end"])
    layers = list(tracer.layer_metrics(tracer.Recorder())) + ["trace.overhead_s"]
    assert [m["name"] for m in bench["per_layer"]] == layers
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(gen.WORKLOADS)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
