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
image of the rank-least world of D, alongside the forth/back conditions
relating the metric to the frame order.

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
from .story import Story, StoryError


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


def is_increasing(frame: Frame, p: Path) -> bool:
    seq = list(p.prefix) + [p.tail]
    for a, b in zip(seq, seq[1:]):
        if a != b and not (frame.succ_mask(frame.index(a)) >> frame.index(b)) & 1:
            return False
    return True


def first_difference(u: Path, v: Path) -> int | None:
    """Least index where the sequences differ, or None when equal."""
    bound = max(len(u.prefix), len(v.prefix)) + 1
    for i in range(bound):
        if u.value(i) != v.value(i):
            return i
    return None


def path_metric(u: Path, v: Path) -> Fraction:
    """Exact dyadic distance 2^-n at the first differing index n."""
    n = first_difference(u, v)
    if n is None:
        return Fraction(0)
    return Fraction(1, 2 ** n)


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
    kind: str  # "forth" | "back" | "commuting"
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
    strictly larger limit.  back: for each strict successor v of a limit
    and each radius 2^-k, the explicit witness path (stay until the limit,
    then step to v, or detour through a cluster mate when v is the limit
    itself) lands within the ball with limit v.  commuting: limits commute
    with the level maps on enumerated paths and on every recurrence set
    inside a reflexive cluster.
    """
    _require_fat_clusters(story)
    violations: list[PathViolation] = []
    checked: list[Path] = []
    for lvl, moment in enumerate(story.levels):
        frame = moment.frame
        worlds = frame.worlds
        succ, pos = frame._succ, {w: i for i, w in enumerate(worlds)}
        paths = enumerate_paths(frame, resolution)
        checked += paths
        lims = [limit(p) for p in paths]
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
                        f"2^-{len(key)}-close but {lims[idx]!r} is not strictly "
                        f"below {lims[jdx]!r}",
                    ))

        # back, via the explicit witness construction; for k below the
        # prefix length the witness is the same and the bound only weakens,
        # so those k are covered by the first one checked.  The stem is a
        # slice of the path's own sequence, so the distance to the witness
        # is exactly 2^-(n0+1) once the values at n0+1 differ; the checks
        # run on integer exponents, with one full object-level pass per
        # path as a cross-check.
        for p, xs in zip(paths, seqs):
            ti = xs[-1]
            plen = len(p.prefix)
            cross_checked = False
            for vi in _bits(succ[ti]):
                if vi != ti:
                    step_ok, wit_next = (succ[ti] >> vi) & 1, vi
                else:
                    wit_next = next(_bits(frame.cluster_mask(ti) & ~(1 << ti)))
                    step_ok = (succ[ti] >> wit_next) & 1 and (succ[wit_next] >> ti) & 1
                for k in range(min(plen, resolution), resolution + 1):
                    n0 = max(k, plen)
                    # distance 2^-(n0+1) lies in (0, 2^-k) iff n0 >= k
                    ok = bool(step_ok) and xs[n0 + 1] != wit_next and n0 >= k
                    if ok and not cross_checked:
                        witness = _witness(frame, p, worlds[vi], k)
                        ok = (is_increasing(frame, witness)
                              and 0 < path_metric(p, witness) < Fraction(1, 2 ** k)
                              and limit(witness) == worlds[vi])
                        cross_checked = True
                    if not ok:
                        violations.append(PathViolation(
                            "back", lvl,
                            f"{format_path(p)}, successor {worlds[vi]!r}, eps=2^-{k}: "
                            "witness construction failed",
                        ))

        # commuting with the level map, on paths ...
        fmap = story.level_map(lvl)
        nxt_level = min(lvl + 1, story.duration)
        for idx, p in enumerate(paths):
            q = next_path(p, fmap)
            if limit(q) != fmap[lims[idx]]:
                violations.append(PathViolation(
                    "commuting", lvl,
                    f"limit of the image of {format_path(p)} is "
                    f"{limit(q)!r}, expected {fmap[lims[idx]]!r}",
                ))
        # ... and on every recurrence set inside a reflexive cluster: a path
        # may cycle forever through any nonempty subset D, whose limit is
        # the rank-least member, so images of minima must be minima.
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
    reflexive clusters of size >= 2, and perfectness at the given resolution
    (every enumerated path has a distinct path within every 2^-k)."""
    nonempty = frame.n > 0
    serial = all(frame.succ_mask(i) for i in range(frame.n))
    fat = _thin_reflexive_cluster(frame) is None
    perfect = all(_close_neighbour(frame, p, k) is not None
                  for p in enumerate_paths(frame, resolution)
                  for k in range(resolution + 1))
    return CantorPreconditions(nonempty, serial, fat, perfect)


def _close_neighbour(frame: Frame, p: Path, k: int) -> Path | None:
    """A distinct path within 2^-k of p, constructed by extending the stem."""
    ti = frame.index(p.tail)
    succ = frame.succ_mask(ti)
    for vi in _bits(succ & ~(1 << ti)):
        return _witness(frame, p, frame.worlds[vi], k)
    if (succ >> ti) & 1:
        return _witness(frame, p, p.tail, k)
    return None


def _witness(frame: Frame, p: Path, v: str, k: int) -> Path | None:
    """The path that follows p up to index max(k, prefix length) and then
    has the limit v: it steps to v, or, when v is p's own tail, detours
    through the first cluster mate of the tail.  None without a mate."""
    stem = tuple(p.value(i) for i in range(max(k, len(p.prefix)) + 1))
    if v != p.tail:
        return Path(stem, v)
    ti = frame.index(p.tail)
    for mi in _bits(frame.cluster_mask(ti) & ~(1 << ti)):
        return Path(stem + (frame.worlds[mi],), p.tail)
    return None
