"""Span recorder for the traced run.

Wrappers go where callers look functions up: the names ``cli`` imported
into its own namespace, module globals such as ``semantics.tangle_fixpoint``
and methods on classes such as ``Frame.down_mask``.  Each wrapper records
a span (name, start, end, parent).  Calls of hot boundaries, up to hundreds
of thousands per op, are only summed per op.  A boundary's self time is its
span time minus the time its child spans cover.
"""

from __future__ import annotations

from itertools import count as _count
from time import perf_counter


class Recorder:
    def __init__(self):
        self.stack = [[None, 0.0, 0]]  # [boundary, child time, span id]
        self.totals = {}  # boundary -> [calls, time, child time]
        self.counts = {}
        self.spans = []  # (id, parent id, name, start, end, op)
        self.per_op = []  # (op, boundary, calls, time, self time) of hot boundaries
        self.op = None
        self._seen = {}
        self._undo = []
        self._ids = _count(1)

    def add(self, counter, value):
        self.counts[counter] = self.counts.get(counter, 0) + value

    def start_op(self, op):
        self.op = op
        self._seen = {k: list(v) for k, v in self.totals.items()}

    def end_op(self, hot):
        for name in hot:
            now = self.totals.get(name, [0, 0.0, 0.0])
            was = self._seen.get(name, [0, 0.0, 0.0])
            calls = now[0] - was[0]
            if calls:
                self.per_op.append((self.op, name, calls, now[1] - was[1],
                                    (now[1] - now[2]) - (was[1] - was[2])))

    def self_time(self, name):
        calls, time, child = self.totals.get(name, (0, 0.0, 0.0))
        return time - child

    def time(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def patch(self, owner, attr, name, hot=False, count=None, on_error=None):
        fn = owner.__dict__[attr]
        acc = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids, rec = self.stack, self.spans, self._ids, self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == name:  # recursion inside one boundary
                return fn(*args, **kwargs)
            span = parent[2] if hot else next(ids)
            frame = [name, 0.0, span]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                if on_error is not None:
                    on_error(rec, e)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                acc[0] += 1
                acc[1] += dur
                acc[2] += frame[1]
                if not hot:
                    spans.append((span, parent[2], name, t0, t1, rec.op))
            if count is not None:
                count(rec, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


HOT = ("frame.build", "frame.down_mask", "semantics.evaluator", "semantics.compile",
       "semantics.tangle", "logic.class_frame")


def install(rec):
    """Wrap every public boundary the CLI reaches."""
    from tanglemc import cli, formula, frame, logic, pathspace, semantics, story

    def nodes(rec, args, phi):
        rec.add("formula.nodes", formula.size(phi))

    def pairs(rec, args, result):
        rec.add("frame.rel_pairs", len(args[0]["rel"]))

    def valuations(rec, args, verdict):
        rec.add("semantics.valuations", verdict.checked)

    def searched(rec, args, result):
        rec.add("logic.frames_checked", result.frames_checked)
        rec.add("logic.valuations_checked", result.valuations_checked)

    def suite(rec, args, report):
        rec.add("logic.instances_checked", report.instances_checked)

    def iterations(rec, args, result):
        rec.add("semantics.tangle_iterations", result[1])

    def rejected(rec, error):
        if isinstance(error, story.StoryError):
            rec.add("story.rejections", 1)

    def paths(rec, args, report):
        rec.add("pathspace.paths_checked", report.paths_checked)

    rec.patch(cli, "main", "cli.main")
    rec.patch(cli, "parse", "formula.parse", count=nodes)
    rec.patch(cli, "frame_from_dict", "frame.load", count=pairs)
    rec.patch(cli, "truth_set", "semantics.truth_set")
    rec.patch(cli, "valid_on_frame", "semantics.valid_on_frame", count=valuations)
    rec.patch(logic, "valid_on_frame", "semantics.valid_on_frame", count=valuations)
    rec.patch(cli, "countermodel_search", "logic.search", count=searched)
    rec.patch(cli, "soundness_suite", "logic.suite", count=suite)
    rec.patch(logic, "random_class_frame", "logic.class_frame", hot=True)
    rec.patch(semantics, "tangle_fixpoint", "semantics.tangle", hot=True, count=iterations)
    rec.patch(semantics.Evaluator, "__init__", "semantics.evaluator", hot=True)
    rec.patch(semantics.Evaluator, "compile", "semantics.compile", hot=True)
    rec.patch(frame.Frame, "__init__", "frame.build", hot=True)
    rec.patch(frame.Frame, "down_mask", "frame.down_mask", hot=True)
    rec.patch(story, "validate_story", "story.validate", on_error=rejected)
    rec.patch(story, "story_class", "story.class")
    rec.patch(story, "story_oplus", "story.oplus")
    rec.patch(pathspace, "build_limit_assignment", "pathspace.assignment")
    rec.patch(pathspace, "enumerate_paths", "pathspace.enumerate")
    rec.patch(pathspace, "verify_lim_pmorphism", "pathspace.verify", count=paths)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(rec):
    """Per-layer numbers of one traced round; `_s` metrics are self times."""
    s, c, n = rec.self_time, rec.counts.get, rec.totals.get
    calls = lambda name: n(name, (0,))[0]  # noqa: E731
    return {
        "formula.parse_s": s("formula.parse"),
        "formula.nodes": c("formula.nodes", 0),
        "frame.load_s": s("frame.load"),
        "frame.rel_pairs": c("frame.rel_pairs", 0),
        "frame.build_s": s("frame.build"),
        "frame.frames_built": calls("frame.build"),
        "frame.down_mask_s": s("frame.down_mask"),
        "frame.down_mask_calls": calls("frame.down_mask"),
        "semantics.evaluator_s": s("semantics.evaluator"),
        "semantics.evaluators": calls("semantics.evaluator"),
        "semantics.compile_s": s("semantics.compile"),
        "semantics.sweep_s": s("semantics.valid_on_frame"),
        "semantics.valuations": c("semantics.valuations", 0),
        "semantics.valuations_per_s": _rate(c("semantics.valuations", 0),
                                            rec.time("semantics.valid_on_frame")),
        "semantics.tangle_s": s("semantics.tangle"),
        "semantics.tangle_calls": calls("semantics.tangle"),
        "semantics.tangle_iterations": c("semantics.tangle_iterations", 0),
        "semantics.truth_set_s": s("semantics.truth_set"),
        "logic.search_s": s("logic.search"),
        "logic.frames_checked": c("logic.frames_checked", 0),
        "logic.valuations_checked": c("logic.valuations_checked", 0),
        "logic.suite_s": s("logic.suite"),
        "logic.instances_checked": c("logic.instances_checked", 0),
        "logic.class_frame_s": s("logic.class_frame"),
        "story.validate_s": s("story.validate"),
        "story.validations": calls("story.validate"),
        "story.rejections": c("story.rejections", 0),
        "story.class_s": s("story.class"),
        "story.oplus_s": s("story.oplus"),
        "pathspace.assignment_s": s("pathspace.assignment"),
        "pathspace.enumerate_s": s("pathspace.enumerate"),
        "pathspace.verify_s": s("pathspace.verify"),
        "pathspace.paths_checked": c("pathspace.paths_checked", 0),
        "pathspace.paths_per_s": _rate(c("pathspace.paths_checked", 0),
                                       rec.time("pathspace.verify")),
        "cli.self_s": s("cli.main"),
        "cli.report_bytes": c("cli.report_bytes", 0),
    }
