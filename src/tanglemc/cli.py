"""Batch front-end: every operation on files, reproducible seeds, JSON reports.

Exit codes: 0 success/valid/pass, 1 countermodel-found/check-fail, 2 input
error (an unknown option or a bad option value too), 3 internal error; both
errors print a report with an `error`.  Reports are printed to stdout with
a stable schema version; runs with identical inputs and seed produce
byte-identical reports.  The environment variable
``TANGLEMC_SEED`` supplies the default seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import pathspace, story as story_mod
from .formula import next_depth, parse, pretty, size, vars_of
from .frame import (
    Frame,
    duplicate_reflexive,
    frame_from_dict,
    pullback_valuation,
)
from .logic import EXHAUSTIVE_SEARCH_LIMIT, LOGICS, countermodel_search, soundness_suite
from .semantics import Model, truth_set, valid_on_frame
from .story import StoryError

SCHEMA_VERSION = 1


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=False) + "\n")


def _report(command: str, **fields) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, **fields}


def _load(path: str, convert):
    """Decode a JSON file and convert it with the cycle collector paused.

    ``json.load`` builds a list per relation pair, and a frame file can
    hold hundreds of thousands of them; each list counts towards the
    collector's thresholds, so one such file would set off hundreds of
    collections, full ones among them, which walk every object in the
    process.  The pause is safe: decoded JSON is acyclic, so a collection
    could free none of it, and reference counting frees it once it is
    dropped; a cycle the converter might leave behind waits for the next
    collection after the pause.  The collector is switched back on only if
    it was on before.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return convert(json.load(fh))
    finally:
        if enabled:
            gc.enable()


def _load_frame(args) -> tuple[Frame, dict]:
    return _load(args.frame, lambda data: frame_from_dict(
        data, close_transitively=args.close_transitively))


def _load_story(path: str) -> story_mod.Story:
    return _load(path, story_mod.validate_story)


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("TANGLEMC_SEED", "0"))


def _cmd_parse(args) -> int:
    phi = parse(args.formula)
    _emit(_report(
        "parse",
        formula=args.formula,
        canonical=pretty(phi),
        size=size(phi),
        next_depth=next_depth(phi),
        variables=sorted(vars_of(phi)),
    ))
    return 0


def _cmd_check(args) -> int:
    frame, valuation = _load_frame(args)
    phi = parse(args.formula)
    ts = truth_set(Model(frame, valuation), phi)
    holds = None
    if args.world is not None:
        frame.index(args.world)
        holds = args.world in ts
    _emit(_report(
        "check",
        formula=pretty(phi),
        frame=args.frame,
        truth_set=sorted(ts, key=frame.index),
        world=args.world,
        holds=holds,
    ))
    return 0 if holds is None or holds else 1


def _cmd_validity(args) -> int:
    frame, _ = _load_frame(args)
    phi = parse(args.formula)
    seed = _default_seed(args)
    verdict = valid_on_frame(frame, phi, mode=args.mode, samples=args.samples, seed=seed)
    report = _report(
        "validity",
        formula=pretty(phi),
        frame=args.frame,
        mode=verdict.mode,
        seed=seed if verdict.mode == "sampled" else None,
        checked=verdict.checked,
        valid=verdict.valid,
    )
    if verdict.countermodel is not None:
        report["countermodel"] = {
            "valuation": {p: list(ws) for p, ws in verdict.countermodel.valuation.items()},
            "world": verdict.countermodel.world,
        }
    _emit(report)
    return 0 if verdict.valid else 1


def _cmd_axioms(args) -> int:
    seed = _default_seed(args)
    report = soundness_suite(
        args.logic, args.trials, seed, max_worlds=args.max_worlds,
        mode=args.mode, samples=args.samples,
    )
    _emit(_report("axioms", **report.to_dict()))
    return 0 if report.ok else 1


def _cmd_search(args) -> int:
    phi = parse(args.formula)
    seed = _default_seed(args)
    result = countermodel_search(
        phi, args.logic, max_worlds=args.max_worlds, seed=seed, samples=args.samples,
    )
    report = _report(
        "search",
        formula=pretty(phi),
        logic=args.logic,
        max_worlds=args.max_worlds,
        seed=seed,
        verdict=result.verdict,
        frames_checked=result.frames_checked,
        valuations_checked=result.valuations_checked,
    )
    if result.found:
        report["countermodel"] = {
            "frame": result.frame.to_dict(result.valuation),
            "world": result.world,
        }
    _emit(report)
    return 1 if result.found else 0


def _cmd_story_validate(args) -> int:
    try:
        st = _load_story(args.story)
    except StoryError as e:
        _emit(_report(
            "story-validate", story=args.story, valid=False,
            condition=e.condition, message=str(e),
        ))
        return 1
    _emit(_report(
        "story-validate", story=args.story, valid=True,
        duration=st.duration, immersive=st.immersive,
    ))
    return 0


def _cmd_story_class(args) -> int:
    st = _load_story(args.story)
    _emit(_report(
        "story-class", story=args.story,
        flags=sorted(story_mod.story_class(st)),
        immersive=st.immersive,
    ))
    return 0


def _cmd_oplus(args) -> int:
    if args.story is not None:
        st = _load_story(args.story)
        lifted, projections = story_mod.story_oplus(st)
        _emit(_report(
            "oplus", story=args.story, result=lifted.to_dict(),
            projections=[dict(sorted(p.items())) for p in projections],
        ))
        return 0
    frame, valuation = _load_frame(args)
    lifted, projection = duplicate_reflexive(frame)
    _emit(_report(
        "oplus", frame=args.frame,
        result=lifted.to_dict(pullback_valuation(projection, valuation)),
        projection=dict(sorted(projection.items())),
    ))
    return 0


def _cmd_pathspace_verify(args) -> int:
    if args.story is not None:
        st = _load_story(args.story)
        source = args.story
    else:
        frame, valuation = _load_frame(args)
        moment = story_mod.moment_from_frame(frame, valuation)
        st = story_mod.Story((moment,), (), immersive=True)
        source = args.frame
    assignment = pathspace.build_limit_assignment(st)
    report = pathspace.verify_lim_pmorphism(st, assignment, args.resolution)
    out = _report("pathspace-verify", input=source, **report.to_dict())
    if args.dump_paths:
        out["paths"] = [pathspace.format_path(p) for m in st.levels
                        for p in pathspace.enumerate_paths(m.frame, args.resolution)]
    _emit(out)
    return 0 if report.ok else 1


class _UsageError(Exception):
    """An argparse error: its message and the subcommand, None if none."""


class _Parser(argparse.ArgumentParser):
    """Raises argparse's errors for `main` to report, instead of exiting.
    Subparsers are made of the same class; their prog ends in the name."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message, self.prog.partition(" ")[2] or None)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="tanglemc",
        description="Model checking and countermodel search for tangled "
                    "derivative logics on finite dynamic Kripke frames.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_frame_opts(p):
        p.add_argument("--frame", required=True, help="frame JSON file")
        p.add_argument("--close-transitively", action="store_true",
                       help="replace the relation by its transitive closure")

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    p.add_argument("--formula", required=True)
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("check", help="evaluate a formula's truth set on a model")
    add_frame_opts(p)
    p.add_argument("--formula", required=True)
    p.add_argument("--world", help="also report whether the formula holds there")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("validity", help="check validity over all or sampled valuations")
    add_frame_opts(p)
    p.add_argument("--formula", required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_validity)

    p = sub.add_parser("axioms", help="run the soundness suite for a logic")
    p.add_argument("--logic", choices=sorted(LOGICS), required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-worlds", type=int, default=4)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="sampled")
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("search", help="search a logic's frame class for a countermodel: "
                       f"all frames up to {EXHAUSTIVE_SEARCH_LIMIT} worlds, random "
                       "class frames past that")
    p.add_argument("--logic", choices=sorted(LOGICS), required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--samples", type=int, default=2000,
                   help="random frames drawn when --max-worlds is over "
                   f"{EXHAUSTIVE_SEARCH_LIMIT}")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("story-validate", help="check the five story conditions")
    p.add_argument("--story", required=True, help="story JSON file")
    p.set_defaults(fn=_cmd_story_validate)

    p = sub.add_parser("story-class", help="report which logics a story fits")
    p.add_argument("--story", required=True)
    p.set_defaults(fn=_cmd_story_class)

    p = sub.add_parser("oplus", help="duplicate reflexive worlds of a frame or story")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--frame")
    group.add_argument("--story")
    p.add_argument("--close-transitively", action="store_true")
    p.set_defaults(fn=_cmd_oplus)

    p = sub.add_parser(
        "pathspace-verify",
        help="verify the limit map conditions at a finite resolution",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--story")
    group.add_argument("--frame", help="frame treated as a single-level story "
                                       "(its map is ignored)")
    p.add_argument("--close-transitively", action="store_true")
    p.add_argument("--resolution", type=int, default=4)
    p.add_argument("--dump-paths", action="store_true", help="also list every "
                   "path; their number grows exponentially with --resolution")
    p.set_defaults(fn=_cmd_pathspace_verify)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # not parse_args: its top parser would reject the extras without
        # the subcommand's name
        args, extra = parser.parse_known_args(argv)
        if extra:
            raise _UsageError(f"unrecognized arguments: {' '.join(extra)}", args.command)
    except _UsageError as e:
        message, command = e.args
        _emit(_report(command, error=message))
        return 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:  # parse, frame, story and JSON errors too
        _emit(_report(args.command, error=str(e)))
        return 2
    except Exception as e:
        import traceback  # here, not at the top: it would slow every start-up
        traceback.print_exc()  # to stderr; stdout keeps the JSON report
        _emit(_report(args.command, error=f"internal error: {type(e).__name__}: {e}"))
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
