"""Eventually-constant path spaces over finite frames and their dyadic metric.

A path is an increasing infinite world sequence stored canonically as a
finite prefix plus a stable tail value; the prefix never ends with the
tail, which makes the representation unique per mathematical sequence.
The metric between distinct paths is 2^-n for the first index n where they
differ, computed exactly.

The limit of a canonical eventually-constant path is its tail, the only
world that recurs in it.  A limit assignment ranks the worlds of every
story level injectively; the rank of an image is the minimum rank over
its preimages, and worlds outside the image get fresh ranks on top.  Only
the recurrence-set check uses the ranks: a path that is not eventually
constant may cycle forever through any nonempty subset D of a reflexive
cluster, and its limit is the rank-least world of D.  The verifier checks,
for every such D, that the rank-least world of the image of D is the
image of the rank-least world of D, and the forth condition (continuity)
relating the metric to the frame order.  The back condition (openness)
holds by construction on fat-cluster frames, and the limit commutes with
the level maps on eventually-constant paths by definition; the
verifier's docstring gives the argument, and neither is re-checked.

Paths are enumerated by prefix length, each prefix extended in ascending
world order, which yields the documented order without a sort; a prefix
is extended only by a world with a successor other than itself, as no
other prefix reaches a tail.  Inside the verifier a path is the tuple of
its world indices up to index resolution + 1, whose last entry is the
tail; names appear only in `Path` objects and in messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .frame import Frame, _bits
from .story import Story


@dataclass(frozen=True, slots=True)
class Path:
    """Canonical eventually-constant path: prefix then tail forever."""

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


def parse_path(line: str) -> Path:
    head, sep, tail = line.strip().rpartition(";")
    if not sep or not tail:
        raise ValueError(f"not a path line: {line!r}")
    prefix = tuple(w for w in head.split(",") if w)
    return Path(prefix, tail)


def path_metric(u: Path, v: Path) -> Fraction:
    """Exact dyadic distance 2^-n at the first differing index n."""
    for n in range(max(len(u.prefix), len(v.prefix)) + 1):
        if u.value(n) != v.value(n):
            return Fraction(1, 2 ** n)
    return Fraction(0)


def next_path(p: Path, func: Mapping[str, str]) -> Path:
    """Componentwise image under a level map, re-canonicalised."""
    tail = func[p.tail]
    prefix = [func[w] for w in p.prefix]
    while prefix and prefix[-1] == tail:
        prefix.pop()
    return Path(tuple(prefix), tail)


def enumerate_paths(frame: Frame, max_prefix: int) -> list[Path]:
    """All canonical eventually-constant paths with prefix length <= max_prefix.

    Deterministic order: by prefix length, then prefix world indices, then
    tail index.
    """
    if max_prefix < 0:
        raise ValueError("max_prefix must be >= 0")
    strict = [frame.succ_mask(i) & ~(1 << i) for i in range(frame.n)]
    live = sum(1 << i for i, m in enumerate(strict) if m)
    out = [((), t) for t in range(frame.n)]
    level = [((), live)]  # the prefixes of one length, with their extensions
    for _ in range(max_prefix):
        longer = []
        for prefix, nxt in level:
            for w in _bits(nxt):
                grown = prefix + (w,)
                longer.append((grown, (strict[w] | 1 << w) & live))
                out.extend((grown, t) for t in _bits(strict[w]))
        level = longer
    worlds = frame.worlds
    return [Path(tuple(worlds[i] for i in prefix), worlds[t]) for prefix, t in out]


# ---------------------------------------------------------------------------
# limit assignments

@dataclass(frozen=True)
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


def limit(p: Path) -> str:
    """The world recurring in a canonical eventually-constant path: its tail."""
    return p.tail


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class PathViolation:
    kind: str  # "forth" | "commuting"; back cannot fail (verify_lim_pmorphism)
    level: int
    message: str


@dataclass(frozen=True)
class PathVerifyReport:
    resolution: int
    levels: int
    paths: tuple[Path, ...]  # every level's enumerated paths, level by level
    violations: tuple[PathViolation, ...]

    @property
    def paths_checked(self) -> int:
        return len(self.paths)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "levels": self.levels,
            "paths_checked": self.paths_checked,
            "violations": [
                {"kind": v.kind, "level": v.level, "message": v.message}
                for v in self.violations
            ],
        }


def _thin_reflexive_cluster(frame: Frame) -> int | None:
    """First world of the first reflexive cluster with a single world."""
    for c in frame.cluster_masks():
        rep = next(_bits(c))
        if frame.is_reflexive(rep) and c == 1 << rep:
            return rep
    return None


def _require_fat_clusters(story: Story):
    for i, m in enumerate(story.levels):
        rep = _thin_reflexive_cluster(m.frame)
        if rep is not None:
            raise ValueError(
                f"level {i}: reflexive cluster of {m.worlds[rep]!r} has a single "
                "world; apply the reflexive duplication first"
            )


def verify_lim_pmorphism(
    story: Story, assignment: LimitAssignment, resolution: int
) -> PathVerifyReport:
    """Check the limit map against the frame order at a finite resolution.

    forth: around each path, inside the ball of radius 2^-(k+1) at the
    first index k carrying the limit, every other enumerated path has a
    strictly larger limit.  commuting: on every recurrence set inside a
    reflexive cluster, the image of the rank-least world is the rank-least
    world of the image.  These are the checks that can fail.

    Two more conditions hold by construction, so they are not checked.
    The limit commutes with the level map on eventually-constant paths,
    because ``next_path(p, f).tail == f[p.tail]`` by definition.  Back
    (openness) holds on fat-cluster frames, which ``_require_fat_clusters``
    enforces before any check runs.  Take a path p with tail t,
    a successor v of t and a radius 2^-k; the path that follows p up to
    index n0 = max(k, len(p.prefix)) and then goes on as below has limit
    v and differs from p first at n0 + 1 >= k + 1, where p has t:

    - v != t: step to v, an edge because v is a successor of t;
    - v == t: t is reflexive, and a reflexive world alone in its cluster
      (``Frame.cluster_mask`` reads direct successors) was rejected, so a
      mate m != t has t -> m -> t; step to m and back to t.

    So back reduces to the fat-cluster check, on any ``Frame``, transitive
    or not.  The tests check it by brute force over enumerated paths.
    """
    if resolution < 0:
        raise ValueError("resolution must be >= 0")
    _require_fat_clusters(story)
    violations: list[PathViolation] = []
    checked: list[Path] = []
    for lvl, moment in enumerate(story.levels):
        frame = moment.frame
        succ, pos = frame._succ, {w: i for i, w in enumerate(frame.worlds)}
        paths = enumerate_paths(frame, resolution)
        checked += paths
        seqs = [tuple(pos[w] for w in p.prefix)
                + (pos[p.tail],) * (resolution + 2 - len(p.prefix)) for p in paths]

        # forth: a path y is within 2^-(k+1) of x iff the two sequences
        # agree on the first k+2 values, so x's ball is keyed by that
        # stretch of its sequence, and every path with the key K has its
        # limit at K[-2].  One pass over the paths and the key lengths
        # collects, per key, the members whose limit is not strictly above.
        keys = [xs[: xs.index(xs[-1]) + 2] for xs in seqs]
        offenders: dict[tuple[int, ...], list[int]] = {k: [] for k in keys}
        lengths = {len(k) for k in offenders}
        for jdx, ys in enumerate(seqs):
            for length in lengths:
                key = ys[:length]
                if key in offenders and not (succ[key[-2]] >> ys[-1]) & 1:
                    offenders[key].append(jdx)
        for idx, p in enumerate(paths):
            key = keys[idx]
            for jdx in offenders[key]:
                if jdx != idx:
                    violations.append(PathViolation(
                        "forth", lvl,
                        f"{format_path(p)} and {format_path(paths[jdx])} are "
                        f"2^-{len(key)}-close but {limit(p)!r} is not strictly "
                        f"below {limit(paths[jdx])!r}",
                    ))

        # commuting on every recurrence set inside a reflexive cluster: a
        # path may cycle forever through any nonempty subset D, whose limit
        # is the rank-least member, so images of minima must be minima.
        fmap = story.level_map(lvl)
        nxt_level = min(lvl + 1, story.duration)
        ranks, next_ranks = assignment.ranks[lvl], assignment.ranks[nxt_level]
        for c in frame.cluster_masks():
            rep = next(_bits(c))
            if not frame.is_reflexive(rep):
                continue
            members = [frame.worlds[i] for i in _bits(c)]
            if len(members) > 12:
                raise ValueError("cluster too large for recurrence-set check")
            for subset in range(1, 1 << len(members)):
                d = [members[i] for i in range(len(members)) if (subset >> i) & 1]
                least = min(d, key=ranks.__getitem__)
                image_least = min((fmap[w] for w in d), key=next_ranks.__getitem__)
                if image_least != fmap[least]:
                    violations.append(PathViolation(
                        "commuting", lvl,
                        f"recurrence set {sorted(d)}: image of the rank-least world "
                        f"{least!r} is {fmap[least]!r} but the image's rank-least "
                        f"world is {image_least!r}",
                    ))
                    break
    return PathVerifyReport(resolution, len(story.levels), tuple(checked), tuple(violations))


@dataclass(frozen=True)
class CantorPreconditions:
    nonempty: bool
    serial: bool
    fat_reflexive_clusters: bool
    perfect_at_resolution: bool

    @property
    def ok(self) -> bool:
        return (self.nonempty and self.serial and self.fat_reflexive_clusters
                and self.perfect_at_resolution)


def cantor_preconditions(frame: Frame, resolution: int) -> CantorPreconditions:
    """Finite checks behind the path-space topology claims: nonempty, serial,
    reflexive clusters of size >= 2, and perfectness at the given resolution:
    every path has a distinct path within 2^-k for every k <= resolution.
    Perfectness is per world and the same at every resolution: every world
    has a strict successor.  A world w without one is the tail of the path
    ``((), w)``, and every other path differs from it at index 0.  Else a
    path that follows p up to index k or its prefix length and then steps
    from the tail to a strict successor is the close path; a cluster mate
    is itself a strict successor."""
    if resolution < 0:
        raise ValueError("resolution must be >= 0")
    nonempty = frame.n > 0
    serial = all(frame.succ_mask(i) for i in range(frame.n))
    fat = _thin_reflexive_cluster(frame) is None
    perfect = all(frame.succ_mask(i) & ~(1 << i) for i in range(frame.n))
    return CantorPreconditions(nonempty, serial, fat, perfect)
