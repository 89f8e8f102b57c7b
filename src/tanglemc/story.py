"""Moments and stories: stratified frames with level maps.

A moment is a finite rooted tree-like transitive frame with a valuation;
it holds its `Frame`, its root and its valuation.  No story or path-space
code reads the map of a moment's frame; a story's own maps join its
levels.  (`story_oplus` lifts that map along with each level frame.)
A story of duration I stacks I+1 moments joined by maps f_0..f_{I-1};
the map on the last level is the identity.  The five story conditions are
checked in a fixed order, each with a concrete witness:

    monotonic          w below v   implies f(w) below f(v)
    root-preserving    f_i(root_i) = root_{i+1}
    almost-injective   collisions only at irreflexive images
    cluster-preserving C(f(x)) = f[C(x)]
    stabilising        an explicit last map must be the identity

A story file may list either I maps (identity on the last level implied)
or I+1 maps, in which case the last one is checked by the stabilising
condition.  Malformed files (wrong JSON shapes, unknown worlds) fail the
"structure" condition.

Glued into one flat dynamic frame, the disjoint union of its levels with
its maps joined into one function, a story is a frame of every logic that
`story_class` names.  Countermodel search samples those frame classes
directly with `logic.random_class_frame`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .frame import (
    Frame,
    FrameError,
    _bits,
    _image_ranges,
    _lift_map,
    _monotone_witness,
    _pairs,
    _relation,
    _transitivity_witness,
    duplicate_reflexive,
    pullback_valuation,
)
from .record import record


class StoryError(ValueError):
    """Validation failure; `condition` names the first violated condition."""

    def __init__(self, condition: str, message: str):
        super().__init__(f"{condition}: {message}")
        self.condition = condition


@record
class Moment:
    """A rooted tree-like frame plus a valuation.

    The frame's map is the identity, which no story or path-space code
    reads: `validate_moment` and `moment_from_frame` give it that map, and
    `story_oplus` lifts it to the identity of the lifted level.  Moments
    are equal when their frames, roots and valuations are.

    `worlds` are the frame's worlds in declared order; `rel` lists its
    relation pairs sorted by name.
    """

    frame: Frame
    root: str
    valuation: dict[str, frozenset[str]]

    @property
    def worlds(self) -> tuple[str, ...]:
        return self.frame.worlds

    @property
    def rel(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.frame.rel_pairs()))


def validate_moment(
    worlds: Sequence[str],
    rel: Iterable[Sequence[str]],
    root: str,
    valuation: Mapping[str, Iterable[str]] | None = None,
) -> Moment:
    try:
        ws, index, succ = _relation(worlds, rel)
    except FrameError as e:
        raise StoryError("structure", str(e)) from None
    witness = _transitivity_witness(succ)
    if witness is not None:
        raise StoryError(
            "structure", f"moment relation is not transitive at {ws[witness[0]]!r}"
        )
    return _rooted_tree_moment(Frame(ws, succ, range(len(ws))), root, valuation)


def _rooted_tree_moment(frame: Frame, root: str,
                        valuation: Mapping[str, Iterable[str]] | None) -> Moment:
    """The checks after transitivity, on the masks of a transitive frame
    with the identity map: the root reaches every world, the frame is
    tree-like, and the valuation names its worlds."""
    ws, index = frame.worlds, frame._index
    if not isinstance(root, str) or root not in index:
        raise StoryError("structure", f"unknown root {root!r}")
    r = index[root]
    succ, pred = frame._succ, frame._pred
    reach = succ[r] | (1 << r)
    if reach != frame.full_mask:
        missing = ws[next(_bits(frame.full_mask & ~reach))]
        raise StoryError("structure", f"root does not reach {missing!r}")
    # tree-like: common upper bounds force comparability
    for c in range(frame.n):
        below = pred[c] | 1 << c
        for a in _bits(below):
            bad = below & ~succ[a] & ~pred[a] & ~(1 << a)
            if bad:
                raise StoryError("structure", f"not tree-like: {ws[a]!r} and "
                                 f"{ws[next(_bits(bad))]!r} both below {ws[c]!r}")
    if valuation is None:
        valuation = {}
    if not isinstance(valuation, Mapping):
        raise StoryError("structure", "valuation must map variables to lists of world names")
    val: dict[str, frozenset[str]] = {}
    for p, names in valuation.items():
        if not isinstance(names, (list, tuple, set, frozenset)):
            raise StoryError("structure", f"valuation of {p!r} must be a list of world names")
        for w in names:
            if not isinstance(w, str) or w not in index:
                raise StoryError("structure", f"valuation of {p!r} mentions {w!r}")
        val[p] = frozenset(names)
    return Moment(frame, root, val)


def moment_from_frame(frame: Frame,
                      valuation: Mapping[str, Iterable[str]] | None = None) -> Moment:
    """View a frame as a moment rooted at its first world that reaches
    every world.

    The moment's frame is `frame` with the identity map
    (:meth:`~tanglemc.frame.Frame.with_identity_map`), the map
    :func:`validate_moment` gives a moment.  The relation must be
    transitive, as that of every frame
    :func:`~tanglemc.frame.validate_frame` builds is; it is not checked
    again.  The other checks and their messages are those of
    :func:`validate_moment`.
    """
    frame = frame.with_identity_map()
    full = frame.full_mask
    for i, w in enumerate(frame.worlds):
        if frame.succ_mask(i) | (1 << i) == full:
            return _rooted_tree_moment(frame, w, valuation)
    raise StoryError("structure", "frame has no root world")


@record
class Story:
    levels: tuple[Moment, ...]
    maps: tuple[dict[str, str], ...]  # length == duration; identity on last level implied
    immersive: bool

    @property
    def duration(self) -> int:
        return len(self.levels) - 1

    def level_map(self, i: int) -> dict[str, str]:
        """Map out of level i (identity on the last level)."""
        if i == self.duration:
            return {w: w for w in self.levels[i].worlds}
        return self.maps[i]

    def to_dict(self) -> dict:
        """The story file format; the only place story JSON is built."""
        return {
            "levels": [
                {
                    "worlds": list(m.worlds),
                    "rel": [[a, b] for a, b in m.rel],
                    "root": m.root,
                    "valuation": {p: sorted(ws) for p, ws in sorted(m.valuation.items())},
                }
                for m in self.levels
            ],
            "maps": [dict(sorted(f.items())) for f in self.maps],
        }


def _check_conditions(levels: Sequence[Moment], maps: Sequence[Mapping[str, str]],
                      explicit_last: Mapping[str, str] | None) -> bool:
    """Run the five conditions in order; returns the immersive flag."""
    frames = [m.frame for m in levels]
    # maps[i] as world indices of frames[i] into frames[i + 1]
    funcs = [[frames[i + 1].index(fmap[w]) for w in frames[i].worlds]
             for i, fmap in enumerate(maps)]
    pairs = [_pairs(frames[i]._succ) for i in range(len(funcs))]  # read twice

    # monotonic
    for i, func in enumerate(funcs):
        witness = _monotone_witness(pairs[i], _image_ranges(frames[i + 1]._succ, False), func)
        if witness is not None:
            a, b = (frames[i].worlds[j] for j in witness)
            raise StoryError(
                "monotonic",
                f"level {i}: {a!r} below {b!r} but {maps[i][a]!r} not below {maps[i][b]!r}",
            )

    # root preserving
    for i, fmap in enumerate(maps):
        if fmap[levels[i].root] != levels[i + 1].root:
            raise StoryError(
                "root-preserving",
                f"level {i}: f({levels[i].root!r}) = {fmap[levels[i].root]!r} "
                f"is not the next root {levels[i + 1].root!r}",
            )

    # almost injective
    for i, func in enumerate(funcs):
        src, tgt = frames[i], frames[i + 1]
        seen: dict[int, int] = {}
        for w, img in enumerate(func):
            if img in seen and tgt.is_reflexive(img):
                raise StoryError(
                    "almost-injective",
                    f"level {i}: {src.worlds[seen[img]]!r} and {src.worlds[w]!r} "
                    f"collapse onto reflexive {tgt.worlds[img]!r}",
                )
            seen.setdefault(img, w)

    # cluster preserving
    for i, func in enumerate(funcs):
        src, tgt = frames[i], frames[i + 1]
        for w in range(src.n):
            image_cluster = tgt.cluster_mask(func[w])
            mapped = 0
            for v in _bits(src.cluster_mask(w)):
                mapped |= 1 << func[v]
            if mapped != image_cluster:
                raise StoryError(
                    "cluster-preserving",
                    f"level {i}: cluster of {tgt.worlds[func[w]]!r} is "
                    f"{sorted(tgt.names(image_cluster))} but the image of the cluster "
                    f"of {src.worlds[w]!r} is {sorted(tgt.names(mapped))}",
                )

    # stabilising
    if explicit_last is not None:
        for w in levels[-1].worlds:
            if explicit_last[w] != w:
                raise StoryError(
                    "stabilising",
                    f"last-level map sends {w!r} to {explicit_last[w]!r}, not itself",
                )

    return all(
        len(set(func)) == len(func)
        and _monotone_witness(pairs[i], _image_ranges(frames[i + 1]._succ, True), func) is None
        for i, func in enumerate(funcs)
    )


def _no_stray_key(fmap: Mapping, worlds: Sequence[str], where: str) -> None:
    """Reject a key of a map, total on `worlds`, outside `worlds`."""
    if len(fmap) > len(worlds):  # distinct keys: more than the worlds only if one is stray
        known = set(worlds)
        stray = next(w for w in fmap if w not in known)
        raise StoryError("structure", f"unknown world {stray!r} in {where}")


def validate_story(data: Mapping) -> Story:
    """Check the story file format and all story conditions."""
    if not isinstance(data, Mapping):
        raise StoryError("structure", "a story must be a JSON object")
    if not data.get("levels"):
        raise StoryError("structure", "story needs at least one level")
    if not isinstance(data["levels"], list):
        raise StoryError("structure", "levels must be a list of level objects")
    levels = []
    for k, raw in enumerate(data["levels"]):
        if not isinstance(raw, Mapping):
            raise StoryError("structure", f"level {k} is not an object")
        try:
            levels.append(
                validate_moment(
                    raw["worlds"], raw.get("rel", []), raw["root"], raw.get("valuation")
                )
            )
        except KeyError as e:
            raise StoryError("structure", f"level {k} is missing {e.args[0]!r}") from None
    duration = len(levels) - 1
    raw_maps = data.get("maps", [])
    if not isinstance(raw_maps, list) or not all(
        isinstance(f, Mapping) and all(isinstance(v, str) for v in f.values())
        for f in raw_maps
    ):
        raise StoryError("structure", "maps must be a list of objects from world "
                                      "names to world names")
    raw_maps = list(raw_maps)
    if len(raw_maps) not in (duration, duration + 1):
        raise StoryError(
            "structure",
            f"story of duration {duration} needs {duration} or {duration + 1} maps, "
            f"got {len(raw_maps)}",
        )
    explicit_last = None
    if len(raw_maps) == duration + 1:
        explicit_last = raw_maps.pop()
        target = levels[-1].frame._index  # a dict: one lookup per world
        for w in levels[-1].worlds:
            if w not in explicit_last:
                raise StoryError("structure", f"last map is not total: missing {w!r}")
            if explicit_last[w] not in target:
                raise StoryError("structure",
                                 f"last map leaves the level at {explicit_last[w]!r}")
        _no_stray_key(explicit_last, levels[-1].worlds, "last map")
    maps = []
    for i, raw in enumerate(raw_maps):
        fmap = {}
        target = levels[i + 1].frame._index
        for w in levels[i].worlds:
            if w not in raw:
                raise StoryError("structure", f"map {i} is not total: missing {w!r}")
            if raw[w] not in target:
                raise StoryError(
                    "structure", f"map {i} sends {w!r} outside level {i + 1}"
                )
            fmap[w] = raw[w]
        _no_stray_key(raw, levels[i].worlds, f"map {i}")
        maps.append(fmap)
    immersive = _check_conditions(levels, maps, explicit_last)
    return Story(tuple(levels), tuple(maps), immersive)


def _moment_serial(m: Moment) -> bool:
    return all(m.frame._succ)


def story_class(story: Story) -> frozenset[str]:
    """Logic names whose story conditions this story satisfies."""
    serial = all(_moment_serial(m) for m in story.levels)
    flags = {"K4C"}
    if serial:
        flags.add("K4DC")
    if story.immersive:
        flags.add("K4I")
        if serial:
            flags.add("K4DI")
    return frozenset(flags)


def story_oplus(story: Story) -> tuple[Story, list[dict[str, str]]]:
    """Level-wise reflexive duplication of a story.

    Each level is lifted by `duplicate_reflexive`, and each map by the
    rule that lifts a frame's own map there: a second copy goes to the
    second copy of its image when the image has one, and every other world
    to the image itself.  The lifted levels keep the moments' checks, so
    only the five story conditions are checked again.  Returns the lifted
    story and per-level projections.  Raises StoryError when the lift is
    not a story, which happens exactly when an irreflexive world maps onto
    a reflexive one.
    """
    lifted = [duplicate_reflexive(m.frame) for m in story.levels]
    projections = [proj for _, proj in lifted]
    levels = tuple(
        Moment(f, m.root, pullback_valuation(proj, m.valuation))
        for m, (f, proj) in zip(story.levels, lifted)
    )
    maps = tuple(_lift_map(fmap, projections[i], projections[i + 1])
                 for i, fmap in enumerate(story.maps))
    return Story(levels, maps, _check_conditions(levels, maps, None)), projections
