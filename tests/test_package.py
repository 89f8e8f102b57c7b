"""The package's start-up footprint, its lazy exports and its frozen records."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tanglemc
from tanglemc.formula import Box, Diamond, Var
from tanglemc.logic import SearchResult
from tanglemc.pathspace import Path as WorldPath
from tanglemc.semantics import Countermodel, Verdict

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
# the north star's oracles: exported for the tests, not called by a command
ORACLES = {"check_frame_pmorphism", "tangled_oracle_subsets", "tangled_oracle_clusters"}


def _python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-S", *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=False)


def test_parser_start_up_loads_no_heavy_or_story_modules():
    heavy = ("dataclasses", "typing", "inspect", "tanglemc.story", "tanglemc.pathspace",
             "tanglemc.formula", "tanglemc.frame", "tanglemc.semantics", "tanglemc.logic",
             "tanglemc.record")
    run = _python("-c", "import sys, tanglemc.cli; tanglemc.cli.build_parser(); "
                        f"print([m for m in {heavy!r} if m in sys.modules])")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


DEMOS = ROOT / "demos"
FORMULA = ("formula", "record")
FRAME = ("frame", "record")
SEMANTICS = (*FORMULA, "frame", "semantics")
STORY = (*FRAME, "story")


def _command(name, *argv, code=0, loaded=()):
    return pytest.param([*map(str, argv)], code, loaded, id=name)


@pytest.mark.parametrize("argv, code, loaded", [
    _command("help", "--help"),
    _command("parse", "parse", "--formula", "[d]p", loaded=FORMULA),
    _command("check", "check", "--frame", DEMOS / "f1.frame.json", "--formula", "p",
             loaded=SEMANTICS),
    _command("validity", "validity", "--frame", DEMOS / "f1.frame.json", "--formula", "p",
             code=1, loaded=SEMANTICS),
    _command("search", "search", "--logic", "K4C", "--formula", "p",
             code=1, loaded=(*SEMANTICS, "logic")),
    _command("axioms", "axioms", "--logic", "K4C", "--trials", "2",
             loaded=(*SEMANTICS, "logic")),
    _command("story-validate", "story-validate", "--story", DEMOS / "story_chain.story.json",
             loaded=STORY),
    _command("story-class", "story-class", "--story", DEMOS / "story_chain.story.json",
             loaded=STORY),
    _command("oplus-story", "oplus", "--story", DEMOS / "story_chain.story.json",
             loaded=STORY),
    _command("oplus-frame", "oplus", "--frame", DEMOS / "f1.frame.json", loaded=FRAME),
    _command("pathspace-verify", "pathspace-verify", "--frame", DEMOS / "f1_oplus.frame.json",
             loaded=(*STORY, "pathspace")),
])
def test_each_command_loads_only_its_own_modules(argv, code, loaded):
    # one fresh process per command, run as `python -m tanglemc` is
    run = _python("-c", "import runpy, sys\n"
                        "try:\n    runpy.run_module('tanglemc', run_name='__main__')\n"
                        "finally:\n    sys.stderr.write(repr(sorted(m for m in sys.modules "
                        "if m.startswith('tanglemc'))))", *argv)
    assert run.returncode == code, run.stderr
    expected = {"tanglemc", "tanglemc.cli"} | {f"tanglemc.{m}" for m in loaded}
    assert ast.literal_eval(run.stderr) == sorted(expected)


def test_parser_copies_the_logic_names_and_the_search_bound():
    from tanglemc import cli, logic

    assert cli._LOGIC_NAMES == tuple(sorted(logic.LOGICS))
    assert cli._EXHAUSTIVE_SEARCH_LIMIT == logic.EXHAUSTIVE_SEARCH_LIMIT
    assert cli._MAX_DRAWN_WORLDS == logic.MAX_DRAWN_WORLDS


def test_parser_copies_the_dump_paths_limit():
    from tanglemc import cli, pathspace

    assert cli._DUMP_PATHS_LIMIT == pathspace.DUMP_PATHS_LIMIT


def test_axioms_help_names_the_largest_screened_trial(capsys):
    # the suite screens a trial when its codes of p and q fit one pass;
    # --mode and --samples govern only the larger trials
    from tanglemc import cli, logic, semantics

    bits = len(logic.SUITE_VARIABLES)
    screened = max(n for n in range(1, 13) if semantics.pass_layout(n * bits)[1] == n * bits)
    with pytest.raises(SystemExit):
        cli.main(["axioms", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert screened == 6 and text.count(f"over {screened} worlds") == 2


def test_story_command_in_a_fresh_process():
    story = str(ROOT / "demos" / "story_chain.story.json")
    run = _python("-m", "tanglemc", "story-validate", "--story", story)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["valid"] is True and report["command"] == "story-validate"


def test_lazy_exports_resolve_to_their_home_objects():
    for name in tanglemc.__all__:
        module = importlib.import_module(f"tanglemc.{tanglemc._HOME[name]}")
        assert getattr(tanglemc, name) is getattr(module, name)
    assert set(tanglemc.__all__) <= set(dir(tanglemc))
    namespace = {}
    exec("from tanglemc import *", namespace)
    assert {n for n in namespace if n != "__builtins__"} == set(tanglemc.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        tanglemc.no_such_name


def test_every_export_but_the_oracles_is_used_inside_the_package():
    used = set()
    for module in (ROOT / "src" / "tanglemc").glob("*.py"):
        if module.name != "__init__.py":
            for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert sorted(set(tanglemc.__all__) - ORACLES - used) == []


def test_records_keep_the_frozen_dataclass_semantics():
    p = Var("p")
    assert Box(p) != Diamond(p) and Box(p) == Box(Var("p"))
    assert Var("p").__eq__(("p",)) is NotImplemented
    verdict = Verdict(False, "sampled", 7, Countermodel({"p": ("a",)}, "a"), seed=3)
    assert verdict.seed == 3 and verdict == Verdict(False, "sampled", 7, verdict.countermodel, 3)
    plain = Verdict(True, "exhaustive", 4)
    assert hash(plain) == hash((True, "exhaustive", 4, None, None))
    assert repr(p) == "Var(name='p')"
    assert repr(verdict) == ("Verdict(valid=False, mode='sampled', checked=7, countermodel="
                             "Countermodel(valuation={'p': ('a',)}, world='a'), seed=3)")
    assert repr(SearchResult("none-within-bounds")) == (
        "SearchResult(verdict='none-within-bounds', frame=None, valuation=None, "
        "world=None, frames_checked=0, valuations_checked=0, stats=None)")
    assert SearchResult(verdict="countermodel", world="a").frames_checked == 0
    for obj, field in ((p, "name"), (plain, "seed"), (WorldPath(("a",), "b"), "tail")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(TypeError):
        Verdict(True, "exhaustive")
    assert not hasattr(WorldPath(("a",), "b"), "__dict__")
    with pytest.raises(ValueError, match="canonical form"):
        WorldPath(("a", "b"), "b")  # Path's __post_init__ still runs
