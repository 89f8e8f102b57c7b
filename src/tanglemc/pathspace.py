"""Eventually-constant path spaces over finite frames and their dyadic metric.

A path is an increasing infinite world sequence stored canonically as a
finite prefix plus a stable tail value; the prefix never ends with the
tail, which makes the representation unique per mathematical sequence.
The metric between distinct paths is 2^-n for the first index n where they
differ, computed exactly.

The limit of a canonical eventually-constant path is its tail, the only
world that recurs in it.  A limit assignment ranks the worlds of every
story level injectively; the rank of an image is the minimum rank over
its preimages, and worlds outside the image get fresh ranks on top.  A
path that is not eventually constant may cycle forever through any
nonempty subset D of a reflexive cluster, and its limit is the rank-least
world of D.  The verifier checks that the limit commutes with the level
maps on these recurrence sets, pair by pair.  Forth, back and commuting
on eventually-constant paths hold by construction on the transitive
fat-cluster levels it requires (its docstring gives the arguments), so
it counts the paths and builds none.

Paths are enumerated as `Path` objects for display (``pathspace-verify
--dump-paths``), by prefix length, each prefix extended in ascending world
order, which yields the documented order without a sort; `_steps` holds
the step rule that the enumeration and the count share.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from operator import mul

from .frame import Frame, _bits, _transitivity_witness
from .record import record
from .story import Story


@record
class Path:
    """Canonical eventually-constant path: prefix then tail forever."""

    __slots__ = ("prefix", "tail")
    prefix: tuple[str, ...]
    tail: str

    def __post_init__(self):
        if self.prefix and self.prefix[-1] == self.tail:
            raise ValueError("canonical form: prefix must not end with the tail")

    def value(self, i: int) -> str:
        return self.prefix[i] if i < len(self.prefix) else self.tail

    def __str__(self) -> str:
        return format_path(self)


def format_path(p: Path) -> str:
    return ",".join(p.prefix) + ";" + p.tail


def _steps(frame: Frame) -> tuple[list[int], list[int], int]:
    """The step rule of `enumerate_paths` and `_count_paths`: per world,
    its strict successors, the tails after a prefix ending there; per
    world w, the worlds that may follow it in a prefix, w itself and its
    strict successors, if live; and the mask of the live worlds, those
    with a strict successor, as no other prefix reaches a tail."""
    strict = [frame.succ_mask(i) & ~(1 << i) for i in range(frame.n)]
    live = sum(1 << i for i, m in enumerate(strict) if m)
    return strict, [(m | 1 << w) & live for w, m in enumerate(strict)], live


def enumerate_paths(frame: Frame, max_prefix: int) -> list[Path]:
    """All canonical eventually-constant paths with prefix length <= max_prefix.

    Deterministic order: by prefix length, then prefix world indices, then
    tail index.
    """
    if max_prefix < 0:
        raise ValueError("max_prefix must be >= 0")
    strict, follow, live = _steps(frame)
    out = [((), t) for t in range(frame.n)]
    level = [((), live)]  # the prefixes of one length, with their extensions
    for _ in range(max_prefix):
        longer = []
        for prefix, nxt in level:
            for w in _bits(nxt):
                grown = prefix + (w,)
                longer.append((grown, follow[w]))
                out.extend((grown, t) for t in _bits(strict[w]))
        level = longer
    worlds = frame.worlds
    return [Path(tuple(worlds[i] for i in prefix), worlds[t]) for prefix, t in out]


def _count_paths(frame: Frame, max_prefix: int, below: int | None = None,
                 start: int = 0) -> int:
    """`start` plus ``len(enumerate_paths(frame, max_prefix))``, without
    the paths: per prefix length, the number of prefixes ending in each
    world, each followed by its strict successors as tails; ``ValueError``
    as soon as the sum reaches `below`."""
    strict, follow, live = _steps(frame)
    tails = [m.bit_count() for m in strict]
    into = [[w for w in range(frame.n) if follow[w] >> v & 1] for v in range(frame.n)]
    ends = [live >> w & 1 for w in range(frame.n)]  # the prefixes of length 1
    total = start + frame.n
    for _ in range(max_prefix):
        total += sum(map(mul, ends, tails))
        if below is not None and total >= below:
            raise ValueError(f"resolution {max_prefix}: the path count passes the "
                             f"{sys.get_int_max_str_digits()} digits a report can print; "
                             "lower --resolution")
        ends = [sum(map(ends.__getitem__, ws)) for ws in into]
    return total


# ---------------------------------------------------------------------------
# limit assignments

@record
class LimitAssignment:
    """Per-level injective ranks; level i ranks exactly the level-i worlds."""

    ranks: tuple[dict[str, int], ...]


def build_limit_assignment(story: Story) -> LimitAssignment:
    """Ranks for a validated story: canonical order on the first level, the
    min-over-preimages rule along each map, fresh ranks above for worlds
    outside the image."""
    ranks: list[dict[str, int]] = [
        {w: i for i, w in enumerate(story.levels[0].worlds)}
    ]
    for i in range(story.duration):
        fmap = story.maps[i]
        prev = ranks[-1]
        nxt: dict[str, int] = {}
        for w in story.levels[i].worlds:
            img = fmap[w]
            r = prev[w]
            if img not in nxt or r < nxt[img]:
                nxt[img] = r
        base = max(nxt.values(), default=-1) + 1
        for w in story.levels[i + 1].worlds:
            if w not in nxt:
                nxt[w] = base
                base += 1
        ranks.append(nxt)
    return LimitAssignment(tuple(ranks))


# ---------------------------------------------------------------------------
# verification

@record
class PathViolation:
    kind: str  # "commuting"; forth and back cannot fail (verify_lim_pmorphism)
    level: int
    message: str


@record
class PathVerifyReport:
    resolution: int
    levels: int
    paths_checked: int
    violations: tuple[PathViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@lru_cache(maxsize=None)
def _least_of_more_digits(digits: int) -> int:
    """10^digits, the least count a report cannot print under a limit of
    `digits`; made once, as it takes ~60 us at 4,300 digits (2-vCPU host),
    about as long as a small story's check."""
    return 10 ** digits


def _thin_reflexive_cluster(frame: Frame) -> int | None:
    """First world of the first reflexive cluster with a single world."""
    for c in frame.cluster_masks():
        rep = next(_bits(c))
        if frame.is_reflexive(rep) and c == 1 << rep:
            return rep
    return None


def _require_transitive_fat_levels(story: Story):
    for i, m in enumerate(story.levels):
        witness = _transitivity_witness(m.frame._succ)
        if witness is not None:
            a, b = (m.worlds[w] for w in witness)
            raise ValueError(f"level {i}: relation is not transitive: missing ({a}, {b})")
        rep = _thin_reflexive_cluster(m.frame)
        if rep is not None:
            raise ValueError(
                f"level {i}: reflexive cluster of {m.worlds[rep]!r} has a single "
                "world; apply the reflexive duplication first"
            )


def verify_lim_pmorphism(
    story: Story, assignment: LimitAssignment, resolution: int
) -> PathVerifyReport:
    """Check the limit map against the level maps at a finite resolution.

    The one check that can fail is commuting on recurrence sets: for every
    recurrence set D inside a reflexive cluster, the image of the
    rank-least world m of D is the rank-least world of the image of D.
    Ranks are injective, so if D fails, some w in D has an image ranked
    below m's, and the pair {m, w} fails too.  A pair comes no later than
    any set holding it in the order of subset codes, so the first failing
    set in that order is the first failing pair, pairs ordered by their
    later member, then their earlier one; only pairs are checked.  That
    check does not read `resolution`, so the verdict is the same at every
    resolution.  ``paths_checked`` counts the paths that the argument
    below covers up to that prefix length: those with prefix length at
    most the resolution, summed over the levels, without building them; a
    count of more digits than ``sys.get_int_max_str_digits()`` raises
    ``ValueError``.

    Three more conditions hold by construction and are not checked; the
    first two rest on the levels being transitive with no reflexive
    cluster of a single world, which is required before anything else.

    - Forth (continuity): take a path x with limit t, first reached at
      index k, and a path y != x within 2^-(k+1) of x, so y agrees with x
      at the indices 0..k+1.  Then t R lim(y).  If y moves after index
      k, its steps from t to lim(y) compose to t R lim(y) by
      transitivity.  Else y stays at t from index k on, so x leaves t
      after index k and returns to it, and transitivity gives t R t.
    - Back (openness): take a path p with tail t, a successor v of t and
      a radius 2^-k.  Follow p up to index n0 = max(k, len(p.prefix)),
      then step to v if v != t, an edge; if v == t, t is reflexive and,
      its cluster being fat (``Frame.cluster_mask`` reads direct
      successors), has a mate m with t -> m -> t, so step to m and back.
      The new path has limit v and differs from p first at n0 + 1 > k.
      This holds on any ``Frame``, transitive or not.
    - Commuting on eventually-constant paths: the image of a path p
      under a level map f is the sequence of the images of its worlds,
      re-canonicalised.  It is eventually constant with tail f(p.tail),
      so its limit is f(lim p) by definition.

    The tests check forth and back by brute force over enumerated paths.
    """
    if resolution < 0:
        raise ValueError("resolution must be >= 0")
    _require_transitive_fat_levels(story)
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    bound = _least_of_more_digits(digits) if digits else None
    violations: list[PathViolation] = []
    checked = 0
    for lvl, moment in enumerate(story.levels):
        frame = moment.frame
        checked = _count_paths(frame, resolution, bound, checked)
        fmap = story.level_map(lvl)
        nxt_level = min(lvl + 1, story.duration)
        ranks, next_ranks = assignment.ranks[lvl], assignment.ranks[nxt_level]
        for c in frame.cluster_masks():
            rep = next(_bits(c))
            if not frame.is_reflexive(rep):
                continue
            members = [frame.worlds[i] for i in _bits(c)]
            for a, b in ((a, b) for j, b in enumerate(members) for a in members[:j]):
                least = min(a, b, key=ranks.__getitem__)
                image_least = min(fmap[a], fmap[b], key=next_ranks.__getitem__)
                if image_least != fmap[least]:
                    violations.append(PathViolation(
                        "commuting", lvl,
                        f"recurrence set {sorted((a, b))}: image of the rank-least "
                        f"world {least!r} is {fmap[least]!r} but the image's "
                        f"rank-least world is {image_least!r}",
                    ))
                    break
    return PathVerifyReport(resolution, len(story.levels), checked, tuple(violations))
