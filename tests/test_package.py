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
    heavy = ("dataclasses", "typing", "inspect", "tanglemc.story", "tanglemc.pathspace")
    run = _python("-c", "import sys, tanglemc.cli; tanglemc.cli.build_parser(); "
                        f"print([m for m in {heavy!r} if m in sys.modules])")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


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
        "world=None, frames_checked=0, valuations_checked=0)")
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
