"""Batch front-end: every operation on files, reproducible seeds, JSON reports.

Exit codes: 0 success/valid/pass, 1 countermodel-found/check-fail, 2 input
error (an unknown option or a bad option value too), 3 internal error; both
errors print a report with an `error`.  Reports are printed to stdout with
a stable schema version; runs with identical inputs and seed produce
byte-identical reports.  The environment variable
``TANGLEMC_SEED`` supplies the default seed; a negative seed exits 2.

A report is the text ``json.dumps(report, indent=2)`` returns, and a
newline.  `_indented_json` writes it without ``json``'s pure-Python
indenting encoder: each container is one ``str.join``, strings go through
the C ``json.encoder.encode_basestring_ascii``, and the rules for tuples,
subclasses, bools, ints, floats and dict keys are ``json``'s (its
docstring lists them).  A value ``json`` cannot write raises its
``TypeError``, which `main` reports as an internal error, exit 3.

`main` reuses one argument parser per process: `build_parser` builds it
at its first call and returns the same parser afterwards, so a program
that calls `main` many times pays for building it once.  A fresh
``python -m tanglemc`` process builds it once, as before.

Every process pays for its imports before it does any work, so at
start-up this module loads no module of the package: each handler imports
what its command runs when it is called, and `record`, which the modules
share, comes with the first of them.

- ``parse`` loads `formula`.
- ``check`` and ``validity`` also load `frame` and `semantics`.
- ``search`` and ``axioms`` also load `logic`.
- ``oplus --frame`` loads `frame`.
- ``story-validate``, ``story-class`` and ``oplus --story`` load `frame`
  and `story`; ``pathspace-verify`` also loads `pathspace`.  None of them
  loads `formula`, `semantics` or `logic`.

A tracer wraps a boundary by replacing the name where the caller looks
it up.  The handlers look the
story and path-space functions up as module attributes
(``story_mod.validate_story``) at each call.  The six functions the
formula, frame and logic commands call (`parse`, `frame_from_dict`,
`truth_set`, `valid_on_frame`, `countermodel_search`, `soundness_suite`)
are functions of this module that import their home module and call
through, and the handlers look them up in this module's namespace.  They
are plain functions, not names a module ``__getattr__`` resolves at first
use, because a tracer reads the function it wraps from this module's
``__dict__`` and restores that namespace exactly afterwards.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

SCHEMA_VERSION = 1

# The parser's --logic choices and the world bounds its help quotes: copies
# of ``sorted(logic.LOGICS)``, ``logic.EXHAUSTIVE_SEARCH_LIMIT`` and
# ``logic.MAX_DRAWN_WORLDS``, so that building the parser loads no logic
# (tests/test_package.py pins them to the originals).
_LOGIC_NAMES = ("K4C", "K4DC", "K4DI", "K4I")
_EXHAUSTIVE_SEARCH_LIMIT = 8
_MAX_DRAWN_WORLDS = 1000
# and a copy of ``pathspace.DUMP_PATHS_LIMIT``, quoted by --dump-paths
_DUMP_PATHS_LIMIT = 1 << 18


# The six boundaries a tracer wraps in this module's namespace: each loads
# its home module at its first call and calls through.

def parse(text):
    from . import formula

    return formula.parse(text)


def frame_from_dict(data, close_transitively=False):
    from . import frame

    return frame.frame_from_dict(data, close_transitively=close_transitively)


def truth_set(model, phi):
    from . import semantics

    return semantics.truth_set(model, phi)


def valid_on_frame(frame, phi, **options):
    from . import semantics

    return semantics.valid_on_frame(frame, phi, **options)


def countermodel_search(phi, logic, **options):
    from . import logic as logic_mod

    return logic_mod.countermodel_search(phi, logic, **options)


def soundness_suite(logic, trials, seed, **options):
    from . import logic as logic_mod

    return logic_mod.soundness_suite(logic, trials, seed, **options)


_ascii = json.encoder.encode_basestring_ascii
_INFINITY = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key as ``json`` converts it: str, float, bool, None, int."""
    if isinstance(key, str):
        return _ascii(key)
    if isinstance(key, float):
        return _ascii(_float_text(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _ascii(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _indented_json(value, indent: str = "\n") -> str:
    """The text ``json.dumps(value, indent=2)`` returns, without its
    pure-Python encoder, which yields one token at a time.

    `indent` is a newline and the indent of the line `value` starts on.
    Each container is one ``str.join`` of its items, strings going
    straight through the C ``encode_basestring_ascii``: items are
    separated by ``",\\n"`` plus the indent, keys by ``": "``, and empty
    containers are ``[]`` and ``{}``.  Tuples are written as lists, and
    list and dict subclasses are matched by ``isinstance``, as ``json``
    matches them; the ``type(v) is str`` tests are only fast paths.
    ``bool`` and ``None`` are tested before ``int``; ints are written by
    ``int.__repr__`` (an ``IntEnum`` as a plain int) and floats by
    ``float.__repr__``, with ``NaN``, ``Infinity`` and ``-Infinity``.
    Dict keys are converted as `_key_text` does.  Any other key or value
    raises ``TypeError`` with ``json``'s message.  Reports are acyclic, so
    no markers are kept: a cycle would end in ``RecursionError`` rather
    than ``json``'s ``ValueError``.
    """
    if isinstance(value, str):
        return _ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            _ascii(v) if type(v) is str else _indented_json(v, inner) for v in value
        ]) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            (_ascii(k) if type(k) is str else _key_text(k)) + ": "
            + (_ascii(v) if type(v) is str else _indented_json(v, inner))
            for k, v in value.items()
        ]) + indent + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _emit(report: dict) -> None:
    sys.stdout.write(_indented_json(report) + "\n")


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

    A file nested deeper than the decoder's recursion limit is an input
    error: its ``RecursionError`` becomes a ``ValueError`` naming the file.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"{path}: JSON nested too deeply to decode") from None
        return convert(data)
    finally:
        if enabled:
            gc.enable()


def _load_frame(args):
    """Decode a frame file; returns the frame and its valuation."""
    return _load(args.frame, lambda data: frame_from_dict(
        data, close_transitively=args.close_transitively))


def _load_story(path: str):
    """Decode and validate a story file; returns the `story.Story`."""
    from . import story as story_mod

    return _load(path, story_mod.validate_story)


def _default_seed(args) -> int:
    seed = args.seed if args.seed is not None else int(os.environ.get("TANGLEMC_SEED", "0"))
    if seed < 0:  # random.Random seeds from |n|: -n would repeat the run of n
        raise ValueError("seed must be >= 0")
    return seed


def _cmd_parse(args) -> int:
    from .formula import next_depth, pretty, size, vars_of

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
    from .formula import pretty
    from .semantics import Model

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
    from .formula import pretty
    from .record import as_dict

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
        report["countermodel"] = as_dict(verdict.countermodel)
    _emit(report)
    return 0 if verdict.valid else 1


def _cmd_axioms(args) -> int:
    from .record import as_dict

    seed = _default_seed(args)
    report = soundness_suite(
        args.logic, args.trials, seed, max_worlds=args.max_worlds,
        mode=args.mode, samples=args.samples,
    )
    _emit(_report("axioms", **as_dict(report)))
    return 0 if report.ok else 1


def _cmd_search(args) -> int:
    from .formula import pretty

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
        **({"stats": result.stats} if args.stats else {}),
    )
    if result.found:
        report["countermodel"] = {
            "frame": result.frame.to_dict(result.valuation),
            "world": result.world,
        }
    _emit(report)
    return 1 if result.found else 0


def _cmd_story_validate(args) -> int:
    from .story import StoryError

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
    from . import story as story_mod

    st = _load_story(args.story)
    _emit(_report(
        "story-class", story=args.story,
        flags=sorted(story_mod.story_class(st)),
        immersive=st.immersive,
    ))
    return 0


def _cmd_oplus(args) -> int:
    if args.story is not None:
        from . import story as story_mod

        st = _load_story(args.story)
        lifted, projections = story_mod.story_oplus(st)
        _emit(_report(
            "oplus", story=args.story, result=lifted.to_dict(),
            projections=[dict(sorted(p.items())) for p in projections],
        ))
        return 0
    from .frame import duplicate_reflexive, pullback_valuation

    frame, valuation = _load_frame(args)
    lifted, projection = duplicate_reflexive(frame)
    _emit(_report(
        "oplus", frame=args.frame,
        result=lifted.to_dict(pullback_valuation(projection, valuation)),
        projection=dict(sorted(projection.items())),
    ))
    return 0


def _cmd_pathspace_verify(args) -> int:
    from . import pathspace, story as story_mod
    from .record import as_dict

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
    out = _report("pathspace-verify", input=source, **as_dict(report))
    if args.dump_paths:
        if report.paths_checked > pathspace.DUMP_PATHS_LIMIT:  # the dump's line count
            raise ValueError(f"resolution {args.resolution}: --dump-paths would list "
                             f"{report.paths_checked} paths, more than "
                             f"{pathspace.DUMP_PATHS_LIMIT}; lower --resolution")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first call and returned by
    every later one, so `main` builds it once per process.

    Reuse is safe because parsing does not change the parser, no option
    has a mutable default, and `_Parser` looks up ``sys.stdout`` and
    ``sys.stderr`` when it prints.  Callers must not change the returned
    parser.  Each subcommand's handler (``set_defaults(fn=_cmd_...)``) is
    bound at the first call.
    """
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
    p.add_argument("--logic", choices=_LOGIC_NAMES, required=True)
    p.add_argument("--trials", type=int, default=100,
                   help="random class frames, each checked on every schema")
    p.add_argument("--max-worlds", type=int, default=4,
                   help=f"most worlds a frame may have, at most {_MAX_DRAWN_WORLDS}")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="sampled",
                   help="check an instance on a frame of over 6 worlds under all valuations "
                   "or --samples of them; smaller frames are checked under all in both modes")
    p.add_argument("--samples", type=int, default=32,
                   help="valuations per instance on a frame of over 6 worlds, from its own seed")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("search", help="search a logic's frame class for a countermodel: "
                       f"all frames up to {_EXHAUSTIVE_SEARCH_LIMIT} worlds, random "
                       "class frames past that")
    p.add_argument("--logic", choices=_LOGIC_NAMES, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--max-worlds", type=int, default=3,
                   help="most worlds a frame may have; at most "
                   f"{_MAX_DRAWN_WORLDS} when over {_EXHAUSTIVE_SEARCH_LIMIT}")
    p.add_argument("--samples", type=int, default=2000,
                   help="random frames drawn when --max-worlds is over "
                   f"{_EXHAUSTIVE_SEARCH_LIMIT}")
    p.add_argument("--seed", type=int)
    p.add_argument("--stats", action="store_true",
                   help="report the relation classes enumerated, the frames and valuations "
                   "swept (one map a relation when the formula has no O), the evaluators "
                   "built and worlds_covered, the most worlds searched in full")
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
    p.add_argument("--close-transitively", action="store_true",
                   help="with --frame: replace the relation by its transitive closure")
    p.set_defaults(fn=_cmd_oplus)

    p = sub.add_parser(
        "pathspace-verify",
        help="verify the limit map conditions at a finite resolution",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--story")
    group.add_argument("--frame", help="frame treated as a single-level story "
                                       "(its map is ignored)")
    p.add_argument("--close-transitively", action="store_true",
                   help="with --frame: replace the relation by its transitive closure")
    p.add_argument("--resolution", type=int, default=4,
                   help="prefix length up to which paths_checked counts the paths "
                        "the argument covers; the verdict does not depend on it")
    p.add_argument("--dump-paths", action="store_true", help="also list every "
                   "path; their number grows exponentially with --resolution, and "
                   f"a dump of more than {_DUMP_PATHS_LIMIT} paths is refused")
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
        if getattr(args, "samples", 0) < 0:  # validity, axioms and search, in every mode
            raise ValueError("samples must be >= 0")
        if getattr(args, "story", None) is not None and getattr(args, "close_transitively", False):
            # oplus and pathspace-verify: a story's levels are never closed
            raise ValueError("--close-transitively applies to --frame only")
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
