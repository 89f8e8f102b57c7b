"""The benchmark's traced run wraps named boundaries of the package; this
checks that every one of them still exists and is restored afterwards."""

import importlib.util
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from tanglemc import cli, formula, frame, logic, pathspace, semantics, story

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    owners = (cli, formula, frame, logic, pathspace, semantics, story,
              semantics.Evaluator, frame.Frame)
    return {owner: dict(vars(owner)) for owner in owners}


def test_tracer_installs_and_restores_every_boundary():
    tracer = _load_tracer()
    before = _namespaces()
    rec = tracer.Recorder()
    try:
        tracer.install(rec)
        assert semantics.tangle_fixpoint is not before[semantics]["tangle_fixpoint"]
        assert frame.Frame.__dict__["down_mask"] is not before[frame.Frame]["down_mask"]
    finally:
        rec.uninstall()
    assert _namespaces() == before


def test_traced_pathspace_verify_records_enumeration():
    tracer = _load_tracer()
    for extra, enumerations in (([], 0), (["--dump-paths", "--resolution", "10"], 1)):
        rec = tracer.Recorder()
        try:
            tracer.install(rec)
            with redirect_stdout(StringIO()):
                code = cli.main(["pathspace-verify", "--frame",
                                 str(ROOT / "demos" / "f1_oplus.frame.json"), *extra])
        finally:
            rec.uninstall()
        assert code == 0
        # the verifier counts paths without enumerating them; the dump
        # enumerates each level once, through the wrapped module global
        assert rec.totals["pathspace.verify"][0] == 1
        assert rec.totals.get("pathspace.enumerate", (0,))[0] == enumerations


def test_traced_story_commands_record_their_spans():
    # the handlers import the story module when called and must still call
    # the tracer's wrappers, which replace that module's attributes
    tracer = _load_tracer()
    story = str(ROOT / "demos" / "story_chain.story.json")
    for argv, span in ((["story-validate", "--story", story], "story.validate"),
                       (["story-class", "--story", story], "story.class"),
                       (["oplus", "--story", story], "story.oplus")):
        rec = tracer.Recorder()
        try:
            tracer.install(rec)
            with redirect_stdout(StringIO()):
                code = cli.main(argv)
        finally:
            rec.uninstall()
        assert code == 0
        assert rec.totals[span][0] == 1
