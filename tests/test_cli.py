import argparse
import enum
import gc
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from collections import OrderedDict
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tanglemc import cli
from tanglemc.cli import main
from tanglemc.frame import Frame, frame_from_dict
from tanglemc.logic import LOGICS, MAX_DRAWN_WORLDS
from tanglemc.pathspace import build_limit_assignment, enumerate_paths, verify_lim_pmorphism
from tanglemc.semantics import Model, truth_set
from tanglemc.story import Story, validate_moment
from tanglemc.formula import parse

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_command(capsys):
    code, report = run(capsys, "parse", "--formula", "<d.>p -> T")
    assert code == 0
    assert report["schema_version"] == 1
    assert report["canonical"] == "p | <d>p -> T"
    assert report["variables"] == ["p"]


def test_parse_error_exits_2(capsys):
    code, report = run(capsys, "parse", "--formula", "<t>{}")
    assert code == 2
    assert "empty tangle" in report["error"]


def test_check_command_truth_set(capsys):
    code, report = run(
        capsys, "check", "--frame", str(DEMOS / "f1.frame.json"),
        "--formula", "<d>p",
    )
    assert code == 0
    assert report["truth_set"] == ["a", "b"]


def test_check_world_flag_controls_exit(capsys):
    code, report = run(
        capsys, "check", "--frame", str(DEMOS / "f3.frame.json"),
        "--formula", "<t>{O p} -> O <t>{p}", "--world", "q1",
    )
    assert code == 1 and report["holds"] is False
    code, report = run(
        capsys, "check", "--frame", str(DEMOS / "f3.frame.json"),
        "--formula", "<t>{O p} -> O <t>{p}", "--world", "o",
    )
    assert code == 0 and report["holds"] is True


def test_missing_file_exits_2(capsys):
    code, report = run(capsys, "check", "--frame", "no-such-file.json",
                       "--formula", "p")
    assert code == 2


def test_worlds_that_are_not_a_list_exit_2(capsys, tmp_path):
    f = tmp_path / "bad.frame.json"
    f.write_text(json.dumps({"worlds": 5, "rel": [], "func": {}}))
    code, report = run(capsys, "check", "--frame", str(f), "--formula", "p")
    assert code == 2 and "worlds must be a list" in report["error"]


def test_valuation_that_is_a_string_exits_2(capsys, tmp_path):
    f = tmp_path / "bad.frame.json"
    f.write_text(json.dumps({"worlds": ["a", "b"], "rel": [], "func": {"a": "a", "b": "b"},
                             "valuation": {"p": "ab"}}))
    code, report = run(capsys, "check", "--frame", str(f), "--formula", "p")
    assert code == 2 and "valuation of 'p'" in report["error"]


@pytest.mark.parametrize("data", [
    {"worlds": ["a"], "rel": [], "func": 5},
    {"worlds": ["a"], "rel": 5, "func": {"a": "a"}},
    {"worlds": ["a"], "rel": [5], "func": {"a": "a"}},
    {"worlds": ["a"], "rel": [], "func": {"a": "a"}, "valuation": 5},
    {"worlds": ["a"], "rel": [], "func": {"a": ["a"]}},
    None,
    5,
    "worlds, rel and func",
])
def test_other_malformed_frame_shapes_exit_2(capsys, tmp_path, data):
    f = tmp_path / "bad.frame.json"
    f.write_text(json.dumps(data))
    code, report = run(capsys, "check", "--frame", str(f), "--formula", "p")
    assert code == 2 and report["error"]


@pytest.mark.parametrize("formula", [
    "(" * 400 + "p" + ")" * 400,
    "~" * 400 + "p",
    " & ".join(["p"] * 401),
])
def test_deeply_nested_formula_exits_2(capsys, formula):
    code, report = run(capsys, "parse", "--formula", formula)
    assert code == 2 and "nested deeper" in report["error"]


@pytest.mark.parametrize("levels", [22, 50])
def test_nested_dotted_sugar_over_the_node_bound_exits_2(capsys, levels):
    t0 = time.perf_counter()
    code, report = run(capsys, "parse", "--formula", "<d.>" * levels + "p")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and "nodes" in report["error"]


def test_nested_dotted_sugar_under_the_node_bound_parses(capsys):
    code, report = run(capsys, "parse", "--formula", "<d.>" * 15 + "p")
    expected = "p"
    for level in range(15):
        expected = f"{expected} | <d>{expected if level == 0 else '(' + expected + ')'}"
    assert code == 0 and report["size"] == 98_302
    assert report["canonical"] == expected
    assert report["next_depth"] == 0 and report["variables"] == ["p"]


@pytest.mark.parametrize("error", [RuntimeError("boom"), RecursionError("deep")])
def test_internal_errors_exit_3(capsys, monkeypatch, error):
    def fail(text):
        raise error

    monkeypatch.setattr(cli, "parse", fail)
    code, report = run(capsys, "parse", "--formula", "p")
    assert code == 3
    assert report["command"] == "parse"
    assert report["error"] == f"internal error: {type(error).__name__}: {error}"


def _chain_with(level=None, **top):
    data = json.loads((DEMOS / "story_chain.story.json").read_text())
    if level is not None:
        data["levels"][0].update(level)
    data.update(top)
    return data


@pytest.mark.parametrize("data", [
    [1, 2],
    {"levels": 5},
    {"levels": [5]},
    {"levels": [{"worlds": "ab", "rel": [["a", "b"]], "root": "a"}]},
    {"levels": [{"worlds": ["a", 5], "rel": [["a", 5]], "root": "a"}]},
    {"levels": [{"worlds": ["a", "b"], "rel": [["a", "b"]], "root": "a",
                 "valuation": {"p": "ab"}}]},
    _chain_with({"rel": 5}),
    _chain_with({"rel": [5]}),
    _chain_with({"rel": [[["x0"], "y0"]]}),
    _chain_with({"root": ["x0"]}),
    _chain_with({"valuation": 5}),
    _chain_with({"valuation": {"p": [5]}}),
    _chain_with(maps=5),
    _chain_with(maps=[5, 5]),
    _chain_with(maps=[{"x0": "x1", "y0": 5}, {"x1": "x2", "y1": "y2"}]),
])
def test_malformed_story_shapes_are_structure_errors(capsys, tmp_path, data):
    f = tmp_path / "bad.story.json"
    f.write_text(json.dumps(data))
    code, report = run(capsys, "story-validate", "--story", str(f))
    assert code == 1 and not report["valid"] and report["condition"] == "structure"
    for command in ("story-class", "oplus", "pathspace-verify"):
        code, report = run(capsys, command, "--story", str(f))
        assert code == 2 and report["error"].startswith("structure: ")


@pytest.mark.parametrize("maps, where", [
    ([{"x0": "x1", "y0": "y1", "zz": "x1"}, {"x1": "x2", "y1": "y2"}], "map 0"),
    ([{"x0": "x1", "y0": "y1"}, {"x1": "x2", "x0": "y2", "y1": "y2"}], "map 1"),
    ([{"x0": "x1", "y0": "y1"}, {"x1": "x2", "y1": "y2"},
      {"x2": "x2", "y2": "y2", "zz": "y2"}], "last map"),
])
def test_story_map_keys_outside_their_level_are_structure_errors(capsys, tmp_path, maps,
                                                                  where):
    f = tmp_path / "stray.story.json"
    f.write_text(json.dumps(_chain_with(maps=maps)))
    stray = "x0" if where == "map 1" else "zz"
    code, report = run(capsys, "story-validate", "--story", str(f))
    assert code == 1 and not report["valid"] and report["condition"] == "structure"
    assert report["message"] == f"structure: unknown world {stray!r} in {where}"


def test_sample_counts_below_one_exit_2(capsys):
    code, report = run(capsys, "validity", "--frame", str(DEMOS / "f1.frame.json"),
                       "--formula", "p", "--mode", "sampled", "--samples", "-5")
    assert code == 2 and "samples" in report["error"]
    code, report = run(capsys, "axioms", "--logic", "K4C", "--samples", "0")
    assert code == 2 and "samples" in report["error"]


@pytest.mark.parametrize("argv", [
    ["validity", "--frame", str(DEMOS / "f1.frame.json"), "--formula", "p"],
    ["validity", "--frame", str(DEMOS / "f1.frame.json"), "--formula", "p", "--mode", "sampled"],
    ["axioms", "--logic", "K4C", "--mode", "exhaustive"],
    ["axioms", "--logic", "K4C", "--mode", "sampled"],
    ["search", "--logic", "K4C", "--formula", "p", "--max-worlds", "3"],
    ["search", "--logic", "K4C", "--formula", "p", "--max-worlds", "9"],
])
def test_negative_sample_count_exits_2_in_every_mode(capsys, argv):
    # exhaustive modes and searches within the world bound draw no sample,
    # yet a negative count is still bad input
    code, report = run(capsys, *argv, "--samples", "-1")
    assert code == 2 and report == {"schema_version": cli.SCHEMA_VERSION, "command": argv[0],
                                    "error": "samples must be >= 0"}


def test_axioms_world_bound_below_one_exits_2(capsys):
    code, report = run(capsys, "axioms", "--logic", "K4C", "--max-worlds", "0")
    assert code == 2 and report["error"] == "max_worlds must be >= 1"


@pytest.mark.parametrize("argv, error", [
    (["--max-worlds", "0"], "max_worlds must be >= 1"),
    (["--max-worlds", "-1"], "max_worlds must be >= 1"),
    (["--max-worlds", "9", "--samples", "0"], "samples must be >= 1"),
])
def test_search_that_could_check_no_frame_exits_2(capsys, argv, error):
    code, report = run(capsys, "search", "--logic", "K4C", "--formula", "p", *argv)
    assert code == 2 and report["error"] == error


def test_search_over_the_valuation_bit_bound_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, report = run(capsys, "search", "--logic", "K4C", "--max-worlds", "3",
                       "--formula", "p & q & r & s & t & u & v & w & x -> p")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert report["error"] == "exhaustive search needs |worlds|*|vars| <= 24, got 27"


@pytest.mark.parametrize("max_worlds", ["3", "8"])
def test_search_refutes_on_small_frames_below_the_valuation_bit_bound(capsys, max_worlds):
    # 27 bits (or 72) at the bound, but the 1-world frame of 9 bits refutes.
    code, report = run(capsys, "search", "--logic", "K4C", "--max-worlds", max_worlds,
                       "--formula", "a | b | c | d | e | f | g | h | i")
    assert code == 1 and report["verdict"] == "countermodel"
    assert report["frames_checked"] == 1 and report["valuations_checked"] == 1
    assert report["countermodel"]["world"] == "w0"


def test_search_past_the_world_bound_reports_class_frames_within_it(capsys):
    # 9 worlds is past EXHAUSTIVE_SEARCH_LIMIT, so every frame is sampled
    for seed in range(1, 9):
        code, report = run(capsys, "search", "--logic", "K4C", "--formula", "p -> O p",
                           "--max-worlds", "9", "--samples", "50", "--seed", str(seed))
        assert code == 1 and "max_duration" not in report
        frame, valuation = frame_from_dict(report["countermodel"]["frame"])
        assert frame.n <= 9 and LOGICS["K4C"].admits(frame.classify())
        assert report["countermodel"]["world"] not in truth_set(Model(frame, valuation),
                                                                parse("p -> O p"))


@pytest.mark.parametrize("argv, command, error", [
    (["search", "--logic", "K4C", "--formula", "p", "--max-duration", "1"], "search",
     "unrecognized arguments: --max-duration 1"),
    (["search", "--logic", "K4C", "--formula", "p", "--max-worlds", "x"], "search",
     "argument --max-worlds: invalid int value: 'x'"),
    ([], None, "the following arguments are required: command"),
])
def test_argparse_errors_print_the_error_report(capsys, argv, command, error):
    code, report = run(capsys, *argv)
    assert code == 2 and report == {
        "schema_version": cli.SCHEMA_VERSION, "command": command, "error": error}


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["search", "--help"])
    assert e.value.code == 0 and "--max-worlds" in capsys.readouterr().out


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    run(capsys, "parse", "--formula", "p")
    subparsers = len(built) - 1
    for _ in range(3):
        run(capsys, "parse", "--formula", "p")
    assert built.count("tanglemc") == 1 and len(built) == subparsers + 1


def test_reused_parser_is_unchanged_by_errors_and_help(capsys):
    argv = ["validity", "--frame", str(DEMOS / "f1.frame.json"), "--formula", "<d>p -> p"]
    assert main(argv) == 1
    before = capsys.readouterr().out
    # the bad value comes after options that set other defaults
    assert main([*argv, "--mode", "sampled", "--seed", "5", "--samples", "x"]) == 2
    with pytest.raises(SystemExit) as e:
        main([*argv, "--mode", "sampled", "--help"])
    assert e.value.code == 0
    capsys.readouterr()
    assert main(argv) == 1 and capsys.readouterr().out == before


def test_every_option_default_is_immutable():
    parsers, actions = [cli.build_parser()], []
    for parser in parsers:
        for action in parser._actions:
            actions.append(action)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert len(parsers) == 10  # the top parser and nine subcommands
    assert all(a.default is None or type(a.default) in (bool, int, str) for a in actions)


@pytest.mark.parametrize("enabled, target, code", [
    (True, "a", 0),
    (False, "a", 0),
    (True, "z", 2),  # an unknown world: the conversion raises
])
def test_frame_is_converted_with_the_collector_paused(capsys, monkeypatch, tmp_path,
                                                      enabled, target, code):
    frame = tmp_path / "f.frame.json"
    frame.write_text(json.dumps({"worlds": ["a"], "rel": [["a", target]], "func": {"a": "a"}}))
    seen = []

    def convert(*args, **kwargs):
        seen.append(gc.isenabled())
        return frame_from_dict(*args, **kwargs)

    monkeypatch.setattr(cli, "frame_from_dict", convert)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        got, report = run(capsys, "check", "--frame", str(frame), "--formula", "p")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert got == code and ("error" in report) == (code == 2)
    assert seen == [False]


def test_exhaustive_mode_ignores_sample_count(capsys):
    code, report = run(capsys, "validity", "--frame", str(DEMOS / "f1.frame.json"),
                       "--formula", "p -> p", "--mode", "exhaustive", "--samples", "0")
    assert code == 0 and report["valid"]
    code, report = run(capsys, "axioms", "--logic", "K4C", "--mode", "exhaustive",
                       "--samples", "0", "--trials", "2")
    assert code == 0 and report["violations"] == []


def test_validity_exhaustive(capsys):
    code, report = run(
        capsys, "validity", "--frame", str(DEMOS / "f1.frame.json"),
        "--formula", "[d]p -> [d][d]p",
    )
    assert code == 0 and report["valid"] is True
    code, report = run(
        capsys, "validity", "--frame", str(DEMOS / "f3.frame.json"),
        "--formula", "<t>{O p} -> O <t>{p}",
    )
    assert code == 1 and report["countermodel"]["world"] == "q1"


# sha256 of the axioms reports as the suite gave them with one evaluator per
# schema instance: sharing a trial's evaluators keeps every byte
AXIOMS_DIGESTS = {
    ("K4C", "sampled"): "7a21d930f227614e852f60f92b6e1d54cbe1bf0d8d57feb21120aa2a429b3946",
    ("K4DC", "sampled"): "d2658254c645bcfd37c5d705a7f0c73d69e4c14a3beeae3236a23aef2fee1f26",
    ("K4DI", "sampled"): "4efb30b2761184522aefc9f7e653538591e88c654b03288e1a88d10348c98106",
    ("K4I", "sampled"): "eaa8bc246ca43eb1f77d825fafd70d35d7ca6ebbee92da4ffb540ea03aa93bf6",
    ("K4DI", "exhaustive"): "33df1abfd740d7de0ad26cb985275f6ea986d3eaa9323421df5180fb46ef9435",
}


@pytest.mark.parametrize("logic, mode", sorted(AXIOMS_DIGESTS))
def test_axioms_reports_are_pinned(capsys, logic, mode):
    trials = "15" if mode == "sampled" else "10"
    code = main(["axioms", "--logic", logic, "--mode", mode, "--trials", trials,
                 "--seed", "14"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == AXIOMS_DIGESTS[logic, mode]


# sha256 of search reports past the world bound, where frames and valuations
# are drawn in turn from one random stream, as the stdlib calls drew them
SEARCH_DIGESTS = {
    ("K4C", "<t>{O p} -> O <t>{p}", "9"):
        "88fecf5ae94468bb99647ba0b3e434d6c85b01999922b43e6c87d7f0140e46d4",
    ("K4C", "<t>{O p} -> O <t>{p}", "12"):
        "99bc36278a6c8cf715e133e4ea4f32f1ad962304f614db68d4056b2ace76d97f",
    ("K4DI", "<d>p -> O <d>p", "9"):
        "8b468fa8837fe6566c0a6049c06ab6cb1be4839817affdfb2e0e21cbf7452a32",
    ("K4DI", "<d>p -> O <d>p", "12"):
        "452cb5b0271f6197a23f850cba06c75a3fc1566ed18f3c201de9a1fe24793490",
}


@pytest.mark.parametrize("logic, formula, max_worlds", sorted(SEARCH_DIGESTS))
def test_search_past_the_world_bound_reports_are_pinned(capsys, logic, formula, max_worlds):
    code = main(["search", "--logic", logic, "--formula", formula, "--max-worlds", max_worlds,
                 "--seed", "7", "--samples", "300", "--stats"])
    out = capsys.readouterr().out
    assert code == 1 and json.loads(out)["frames_checked"] > 1
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_DIGESTS[logic, formula, max_worlds]


# sha256 of refuting validity reports, countermodel included; the frame
# path is relative, so the bytes do not depend on the checkout
VALIDITY_DIGESTS = {
    ("f3", "<t>{O p} -> O <t>{p}", "exhaustive"):
        "593060cd09b526f891cc8ab3f2188083542de260c617478b90f16edec1cfab80",
    ("wheel", "<d>p & <d>q -> <d>(p & q)", "sampled"):
        "a40a362936bd0b81c2d1171fc3b437d5090410cec59ff919413360261c17fef4",
}


@pytest.mark.parametrize("frame, formula, mode", sorted(VALIDITY_DIGESTS))
def test_refuting_validity_reports_are_pinned(capsys, monkeypatch, frame, formula, mode):
    monkeypatch.chdir(DEMOS.parent)
    code = main(["validity", "--frame", f"demos/{frame}.frame.json", "--formula", formula,
                 "--mode", mode, "--seed", "5", "--samples", "50"])
    out = capsys.readouterr().out
    assert code == 1 and "countermodel" in json.loads(out)
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDITY_DIGESTS[frame, formula, mode]


def test_failing_pathspace_verify_report_is_pinned(capsys, monkeypatch, tmp_path):
    # the verifier's own assignment commutes on every valid story, so the
    # u0 and v0 ranks of a two-cluster story are swapped to make it fail
    from tanglemc import pathspace

    cluster = [["r", "u"], ["r", "v"], ["u", "u"], ["u", "v"], ["v", "u"], ["v", "v"]]
    levels = [{"worlds": [f"{w}{i}" for w in "ruv"], "root": f"r{i}", "valuation": {},
               "rel": [[a + str(i), b + str(i)] for a, b in cluster]} for i in (0, 1)]
    (tmp_path / "two.story.json").write_text(json.dumps(
        {"levels": levels, "maps": [{"r0": "r1", "u0": "u1", "v0": "v1"}]}))
    build = pathspace.build_limit_assignment

    def swapped(story):
        first, *rest = build(story).ranks
        first = dict(first, u0=first["v0"], v0=first["u0"])
        return pathspace.LimitAssignment((first, *rest))

    monkeypatch.setattr(pathspace, "build_limit_assignment", swapped)
    monkeypatch.chdir(tmp_path)
    code = main(["pathspace-verify", "--story", "two.story.json", "--resolution", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fe14b3a61d8011f8237e576a7cc0797cf225310f086da1760d45629242b40a24")


@pytest.mark.parametrize("argv", [
    ["search", "--logic", "K4C", "--formula", "p", "--samples", "1"],
    ["axioms", "--logic", "K4C", "--trials", "1"],
])
def test_drawn_world_count_is_capped_before_any_draw(capsys, monkeypatch, argv):
    from tanglemc import logic
    from tanglemc.frame import validate_frame

    drawn = []

    def spy(*args):
        drawn.append(args[1])
        return validate_frame(["a"], [["a", "a"]], {"a": "a"})

    monkeypatch.setattr(logic, "random_class_frame", spy)
    for max_worlds in (MAX_DRAWN_WORLDS + 1, 99999999999):
        code, report = run(capsys, *argv, "--max-worlds", str(max_worlds))
        assert code == 2 and capsys.readouterr().err == "" and drawn == []
        assert report["error"] == (f"drawn frames need max_worlds <= {MAX_DRAWN_WORLDS}, "
                                   f"got {max_worlds}")
    code, report = run(capsys, *argv, "--max-worlds", str(MAX_DRAWN_WORLDS))
    assert code in (0, 1) and drawn == [MAX_DRAWN_WORLDS]
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert f"at most {MAX_DRAWN_WORLDS}" in capsys.readouterr().out


def test_axioms_exhaustive_bit_bound_is_checked_before_any_trial(capsys, monkeypatch):
    from tanglemc import logic
    from tanglemc.frame import validate_frame

    drawn = []

    def small_frame(*args):
        drawn.append(args)
        return validate_frame(["a"], [], {"a": "a"})

    monkeypatch.setattr(logic, "random_class_frame", small_frame)
    # 13 worlds of two variables would pass the 24-bit bound
    code, report = run(capsys, "axioms", "--logic", "K4C", "--mode", "exhaustive",
                       "--max-worlds", "13", "--trials", "2")
    assert code == 2 and drawn == []
    assert report["error"] == "exhaustive suite needs max_worlds*|vars| <= 24, got 26"
    code, report = run(capsys, "axioms", "--logic", "K4C", "--mode", "exhaustive",
                       "--max-worlds", "12", "--trials", "2")
    assert code == 0 and len(drawn) == 2


def test_axioms_report_echoes_seed(capsys):
    code, report = run(capsys, "axioms", "--logic", "K4C", "--trials", "20",
                       "--seed", "9")
    assert code == 0
    assert report["seed"] == 9 and report["violations"] == []


def test_search_round_trips_through_check(capsys, tmp_path):
    code, report = run(
        capsys, "search", "--logic", "K4C",
        "--formula", "<t>{O p} -> O <t>{p}", "--max-worlds", "3",
    )
    assert code == 1
    cm = report["countermodel"]
    frame_file = tmp_path / "countermodel.json"
    frame_file.write_text(json.dumps(cm["frame"]))
    code2, report2 = run(
        capsys, "check", "--frame", str(frame_file),
        "--formula", "<t>{O p} -> O <t>{p}", "--world", cm["world"],
    )
    assert code2 == 1 and report2["holds"] is False


def test_search_none_within_bounds(capsys):
    code, report = run(
        capsys, "search", "--logic", "K4I",
        "--formula", "<t>{O p} -> O <t>{p}", "--max-worlds", "3",
    )
    assert code == 0 and report["verdict"] == "none-within-bounds"


def test_search_counts_one_relation_per_isomorphism_class(capsys):
    # a theorem is checked on every frame, so the counts do not depend on
    # the order: the serial classes on 1-4 worlds with all their monotone
    # maps (every labelled relation would give 60,931 and 968,258)
    code, report = run(capsys, "search", "--logic", "K4DC",
                       "--formula", "[d]p -> [d][d]p", "--max-worlds", "4")
    assert code == 0 and report["verdict"] == "none-within-bounds"
    assert report["frames_checked"] == 5151 and report["valuations_checked"] == 80418


def test_search_stats_come_only_with_the_flag(capsys):
    # the K4DC case above: "4" reads no O, so each of the 115 serial
    # classes on 1-4 worlds sweeps its first map, 2^n valuations, and each
    # world count takes one evaluator
    argv = ["search", "--logic", "K4DC", "--formula", "[d]p -> [d][d]p", "--max-worlds", "4"]
    main(argv)
    plain = capsys.readouterr().out
    code, report = run(capsys, *argv, "--stats")
    assert code == 0 and report.pop("stats") == {
        "relations": 115, "frames_swept": 115, "valuations_swept": 1642,
        "evaluators": 4, "worlds_covered": 4}
    assert json.dumps(report, indent=2) + "\n" == plain
    # a countermodel on 2 worlds: 1 world was searched in full
    code, report = run(capsys, "search", "--logic", "K4C", "--formula", "<d>O p -> O <d>p",
                       "--stats")
    assert code == 1 and report["stats"]["worlds_covered"] == 1
    assert report["stats"]["frames_swept"] == report["frames_checked"]
    assert report["stats"]["valuations_swept"] == report["valuations_checked"]
    with pytest.raises(SystemExit):
        main(["search", "--help"])
    assert "--stats" in capsys.readouterr().out


def test_reports_are_byte_identical_for_same_seed(capsys):
    argv = ["axioms", "--logic", "K4DC", "--trials", "10", "--seed", "4"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_seed_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("TANGLEMC_SEED", "33")
    code, report = run(capsys, "axioms", "--logic", "K4C", "--trials", "5")
    assert report["seed"] == 33


@pytest.mark.parametrize("argv", [
    ["axioms", "--logic", "K4C", "--trials", "30", "--max-worlds", "8"],
    ["validity", "--frame", str(DEMOS / "f3.frame.json"), "--formula", "p -> O p",
     "--mode", "sampled"],
])
def test_negative_seed_exits_2(capsys, monkeypatch, argv):
    # random.Random seeds from |n|, so -12 would repeat the run of 12
    code, report = run(capsys, *argv, "--seed", "-12")
    assert code == 2 and report["error"] == "seed must be >= 0"
    monkeypatch.setenv("TANGLEMC_SEED", "-3")
    code, report = run(capsys, *argv)
    assert code == 2 and report["error"] == "seed must be >= 0"


def test_story_validate_and_class(capsys):
    code, report = run(capsys, "story-validate", "--story",
                       str(DEMOS / "story_chain.story.json"))
    assert code == 0 and report["valid"] and report["duration"] == 2
    code, report = run(capsys, "story-class", "--story",
                       str(DEMOS / "story_chain.story.json"))
    assert code == 0 and report["flags"] == ["K4C", "K4DC", "K4DI", "K4I"]


def test_story_validate_rejects_with_condition(capsys, tmp_path):
    bad = {
        "levels": [
            {"worlds": ["x"], "rel": [["x", "x"]], "root": "x", "valuation": {}},
            {"worlds": ["y"], "rel": [["y", "y"]], "root": "y", "valuation": {}},
        ],
        "maps": [{"x": "y"}, {"y": "x"}],
    }
    f = tmp_path / "bad.story.json"
    f.write_text(json.dumps(bad))
    code, report = run(capsys, "story-validate", "--story", str(f))
    assert code == 1 and report["condition"] == "structure"


def test_oplus_frame_matches_demo_file(capsys):
    code, report = run(capsys, "oplus", "--frame", str(DEMOS / "f1.frame.json"))
    assert code == 0
    assert report["result"] == json.loads((DEMOS / "f1_oplus.frame.json").read_text())


def test_oplus_story(capsys):
    code, report = run(capsys, "oplus", "--story",
                       str(DEMOS / "story_chain.story.json"))
    assert code == 0
    assert len(report["result"]["levels"]) == 3


@pytest.mark.parametrize("command", ["oplus", "pathspace-verify"])
def test_close_transitively_with_a_story_exits_2(capsys, command):
    code, report = run(capsys, command, "--story", str(DEMOS / "story_chain.story.json"),
                       "--close-transitively")
    assert code == 2 and report["error"] == "--close-transitively applies to --frame only"


def test_pathspace_verify_frame_and_dump(capsys):
    code, report = run(
        capsys, "pathspace-verify", "--frame", str(DEMOS / "f1_oplus.frame.json"),
        "--resolution", "4", "--dump-paths",
    )
    assert code == 0 and report["violations"] == []
    assert ";a" in report["paths"]
    assert all(";" in line for line in report["paths"])


def test_pathspace_verify_frame_builds_the_frame_once(capsys, monkeypatch):
    builds = []
    init = Frame.__init__

    def counting_init(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(Frame, "__init__", counting_init)
    code, _ = run(capsys, "pathspace-verify", "--frame", str(DEMOS / "f1_oplus.frame.json"))
    assert code == 0 and len(builds) == 1


def test_pathspace_verify_story(capsys):
    code, report = run(
        capsys, "pathspace-verify", "--story", str(DEMOS / "story_chain.story.json"),
    )
    # the demo story has lone reflexive worlds, so the precondition trips
    assert code == 2 and "duplication" in report["error"]


def test_pathspace_verify_large_reflexive_cluster(capsys, tmp_path):
    # a root below 13 mutually related reflexive worlds
    cluster = [f"c{i:02d}" for i in range(13)]
    data = {"worlds": ["r", *cluster],
            "rel": [[a, b] for a in ["r", *cluster] for b in cluster],
            "func": {w: w for w in ["r", *cluster]}}
    path = tmp_path / "cluster.frame.json"
    path.write_text(json.dumps(data))
    code, report = run(capsys, "pathspace-verify", "--frame", str(path),
                       "--resolution", "2")
    assert code == 0 and report["violations"] == []
    frame, _ = frame_from_dict(data)
    assert report["paths_checked"] == len(enumerate_paths(frame, 2))


def test_pathspace_verify_on_a_400_world_chain(capsys, tmp_path):
    # the frame goes to the moment checks as masks, not as name pairs
    worlds = [f"c{i:03d}" for i in range(400)]
    rel = [[a, b] for i, a in enumerate(worlds) for b in worlds[i + 1:]]
    path = tmp_path / "chain.frame.json"
    path.write_text(json.dumps({"worlds": worlds, "rel": rel,
                                "func": {w: w for w in worlds}}))
    code, report = run(capsys, "pathspace-verify", "--frame", str(path),
                       "--resolution", "4")
    assert code == 0 and report["violations"] == []
    by_names = Story((validate_moment(worlds, rel, "c000"),), (), immersive=True)
    expected = verify_lim_pmorphism(by_names, build_limit_assignment(by_names), 4)
    assert report["paths_checked"] == expected.paths_checked == 87485400080


def test_pathspace_verify_negative_resolution_exits_2(capsys):
    code, report = run(
        capsys, "pathspace-verify", "--frame", str(DEMOS / "f1_oplus.frame.json"),
        "--resolution", "-1",
    )
    assert code == 2 and report["error"] == "resolution must be >= 0"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_pathspace_verify_counts_only_what_a_report_can_print(capsys):
    # at resolution 10,000 the path count has 3,011 digits; at 100,000 it
    # would pass the interpreter's 4,300-digit limit on int-to-text, so the
    # count stops there and the error names the option
    frame = str(DEMOS / "f1_oplus.frame.json")
    code, report = run(capsys, "pathspace-verify", "--frame", frame, "--resolution", "10000")
    assert code == 0 and len(str(report["paths_checked"])) == 3011
    code, report = run(capsys, "pathspace-verify", "--frame", frame, "--resolution", "100000")
    assert code == 2 and report["error"] == (
        "resolution 100000: the path count passes the 4300 digits a report can print; "
        "lower --resolution")


def test_demo_frames_all_load(capsys):
    for name in ("f1", "f2", "f3", "f1_oplus", "wheel"):
        code, _ = run(capsys, "check", "--frame", str(DEMOS / f"{name}.frame.json"),
                      "--formula", "T")
        assert code == 0


def test_wheel_demo_is_monotone_and_rotates():
    data = json.loads((DEMOS / "wheel.frame.json").read_text())
    frame, val = frame_from_dict(data)
    flags = frame.classify()
    assert flags.transitive and flags.monotonic
    m = Model(frame, val)
    # the sectors are dense everywhere, so their perfect core absorbs the
    # whole wheel, while the spokes are nowhere dense in themselves
    assert truth_set(m, parse("<t>{p}")) == set(frame.worlds)
    spokes = Model(frame, {"s": {f"spoke{i}" for i in range(4)}})
    assert truth_set(spokes, parse("<t>{s}")) == frozenset()


# -- fuzzing the input boundary ------------------------------------------------

_NAMES = st.sampled_from(["a", "b", "c", "a'"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3) | _NAMES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3) | _NAMES, inner, max_size=3),
    max_leaves=8,
)
_WORLDS = st.lists(_NAMES, max_size=3) | _JSON
_PAIRS = st.lists(st.lists(_NAMES, min_size=1, max_size=3) | _JSON, max_size=4)
_VALUATION = st.dictionaries(st.sampled_from(["p", "q"]), st.lists(_NAMES, max_size=3)) | _JSON
_FRAME = st.fixed_dictionaries(
    {"worlds": _WORLDS, "rel": _PAIRS, "func": st.dictionaries(_NAMES, _NAMES) | _JSON},
    optional={"valuation": _VALUATION},
)
_LEVEL = st.fixed_dictionaries(
    {"worlds": _WORLDS, "rel": _PAIRS, "root": _NAMES | _JSON, "valuation": _VALUATION},
)
_STORY = st.fixed_dictionaries(
    {"levels": st.lists(_LEVEL, max_size=3) | _JSON},
    optional={"maps": st.lists(st.dictionaries(_NAMES, _NAMES) | _JSON, max_size=2)},
)
_TOKENS = ["p", "q", "T", "F", "~", "&", "|", "->", "O", "<d>", "[d]", "<d.>",
           "[d.]", "<t>", "<t.>", "{", "}", ",", "(", ")"]
_FORMULA = (st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join)
            | st.text(max_size=10))
_SMALL = st.integers(-1, 3).map(str)

# the report field that carries the verdict of each command that can exit 1
_REFUTED = {
    "check": lambda r: r["holds"] is False,
    "validity": lambda r: r["valid"] is False,
    "axioms": lambda r: bool(r["violations"]),
    "search": lambda r: r["verdict"] == "countermodel",
    "story-validate": lambda r: r["valid"] is False,
    "pathspace-verify": lambda r: bool(r["violations"]),
}


@st.composite
def _command(draw, path):
    """A CLI command line over an input file that the caller writes."""
    command = draw(st.sampled_from([
        "parse", "check", "validity", "axioms", "search", "story-validate",
        "story-class", "oplus", "pathspace-verify",
    ]))
    story = command.startswith("story") or (
        command in ("oplus", "pathspace-verify") and draw(st.booleans()))
    data = draw(_STORY if story else _FRAME | _JSON)
    argv = [command, f"--story={path}" if story else f"--frame={path}"]
    logic = f"--logic={draw(st.sampled_from(['K4C', 'K4DC', 'K4I', 'K4DI']))}"
    formula = f"--formula={draw(_FORMULA)}"
    if command == "parse":
        argv = [command, formula]
    elif command == "axioms":
        argv = [command, logic, f"--trials={draw(_SMALL)}",
                f"--max-worlds={draw(_SMALL)}", f"--samples={draw(_SMALL)}",
                f"--mode={draw(st.sampled_from(['exhaustive', 'sampled']))}"]
    elif command == "search":
        worlds = draw(st.sampled_from(["-1", "0", "1", "2", "9"]))
        argv = [command, logic, formula, f"--max-worlds={worlds}",
                f"--samples={draw(_SMALL)}"]
    elif command == "check":
        argv += [formula] + draw(st.sampled_from([[], [f"--world={draw(_NAMES)}"]]))
    elif command == "validity":
        argv += [formula, f"--samples={draw(_SMALL)}",
                 f"--mode={draw(st.sampled_from(['exhaustive', 'sampled']))}"]
    elif command == "pathspace-verify":
        argv += [f"--resolution={draw(_SMALL)}"]
        argv += draw(st.sampled_from([[], ["--dump-paths"]]))
    if not story and command not in ("parse", "axioms", "search") and draw(st.booleans()):
        argv.append("--close-transitively")
    return data, argv


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_fuzzed_inputs_exit_0_1_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        content, argv = data.draw(_command(path))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(content, fh)
        out = StringIO()
        with redirect_stdout(out):
            code = main(argv)
    report = json.loads(out.getvalue())
    assert code in (0, 1, 2), (argv, content, report)
    assert ("error" in report) == (code == 2), (argv, content, report)
    if code == 1:
        assert _REFUTED[argv[0]](report), (argv, content, report)


# -- the report writer: the text of json.dumps(indent=2) ---------------------

class _List(list):
    pass


class _Level(enum.IntEnum):
    HIGH = 7


# lone surrogates (category Cs) too, and the characters JSON escapes
_TEXT = st.text(st.characters(exclude_categories=())
                | st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\ud800\udfff'),
                max_size=6)
_KEYS = _TEXT | st.integers() | st.floats() | st.booleans() | st.none()
_LEAVES = (_TEXT | st.none() | st.booleans() | st.integers() | st.integers(10 ** 30)
           | st.floats()
           | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, _Level.HIGH]))
_VALUES = st.recursive(_LEAVES, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=3).map(_List) | st.dictionaries(_KEYS, inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=3).map(OrderedDict)), max_leaves=12)


@given(_VALUES)
@example(OrderedDict([
    ("s", ['"\\/\n\x00\x1f\u00e9\ud800', "", (), {}, _List([(1, -2)])]),
    (1.5, [math.nan, math.inf, -math.inf, -0.0, 1e300, 10 ** 40, _Level.HIGH]),
    (math.nan, None), (-math.inf, True), (True, False), (False, 0), (None, {}),
    (-7, {"\udfff": [[]]}), (_Level.HIGH, "level"),
]))
@settings(max_examples=50, deadline=None)
def test_report_writer_is_json_dumps_indent_2(value):
    assert cli._indented_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {1, 2}, [1, {"a": {2}}], {(1,): 2}, {"a": 1, (1, 2): {3}}, {"a": {3}, (1, 2): 1}, object(),
])
def test_report_writer_raises_the_type_errors_of_json(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        cli._indented_json(value)
    assert str(got.value) == str(expected.value)


def test_every_report_is_the_text_of_json_dumps(capsys, tmp_path):
    bad = tmp_path / "bad.story.json"
    bad.write_text(json.dumps({
        "levels": [{"worlds": ["x"], "rel": [["x", "x"]], "root": "x"},
                   {"worlds": ["y"], "rel": [["y", "y"]], "root": "y"}],
        "maps": [{"x": "y"}, {"y": "x"}],
    }))
    f1, f3 = str(DEMOS / "f1.frame.json"), str(DEMOS / "f3.frame.json")
    chain = str(DEMOS / "story_chain.story.json")
    runs = [
        (0, ["parse", "--formula", "<t>{p, q} -> <d>p"]),
        (1, ["check", "--frame", f3, "--formula", "<t>{O p} -> O <t>{p}", "--world", "q1"]),
        (1, ["validity", "--frame", f3, "--formula", "<t>{O p} -> O <t>{p}"]),
        (0, ["axioms", "--logic", "K4DC", "--trials", "3"]),
        (1, ["search", "--logic", "K4C", "--formula", "<d>p -> p", "--stats"]),
        (0, ["story-validate", "--story", chain]),
        (1, ["story-validate", "--story", str(bad)]),
        (0, ["story-class", "--story", chain]),
        (0, ["oplus", "--story", chain]),
        (0, ["oplus", "--frame", f1]),
        (0, ["pathspace-verify", "--frame", str(DEMOS / "f1_oplus.frame.json"),
             "--resolution", "3", "--dump-paths"]),
        (2, ["check", "--frame", "no-such-file.json", "--formula", "p"]),
        (2, ["parse"]),
    ]
    for code, argv in runs:
        assert main(argv) == code, argv
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


@pytest.mark.parametrize("argv", [["check", "--formula", "p", "--frame"],
                                  ["story-validate", "--story"]])
def test_deeply_nested_input_exits_2(capsys, tmp_path, argv):
    # the decoder's RecursionError is an input error, not an internal one
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    code = main([*argv, str(deep)])
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err
    assert json.loads(captured.out)["error"] == f"{deep}: JSON nested too deeply to decode"


def test_dump_paths_over_the_limit_exits_2_before_enumerating(capsys, monkeypatch):
    from tanglemc import pathspace

    argv = ["pathspace-verify", "--frame", str(DEMOS / "f1_oplus.frame.json"),
            "--resolution", "6", "--dump-paths"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert len(json.loads(expected)["paths"]) == json.loads(expected)["paths_checked"] == 255
    calls = []
    enumerate_paths = pathspace.enumerate_paths
    monkeypatch.setattr(pathspace, "enumerate_paths",
                        lambda *args: calls.append(args) or enumerate_paths(*args))
    monkeypatch.setattr(pathspace, "DUMP_PATHS_LIMIT", 255)
    assert main(argv) == 0 and calls
    assert capsys.readouterr().out == expected
    calls.clear()
    monkeypatch.setattr(pathspace, "DUMP_PATHS_LIMIT", 254)
    code, report = run(capsys, *argv)
    assert code == 2 and calls == []
    assert report["error"] == ("resolution 6: --dump-paths would list 255 paths, "
                               "more than 254; lower --resolution")
