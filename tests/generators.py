"""Random formulas, random stories and random layered frames for the tests.

The library samples countermodels with ``logic.random_class_frame`` alone;
these generators only feed the tests: formulas of a chosen depth, valid
stories of a chosen shape for the story, oplus and path-space suites, and
wide transitive frames for the frame and sweep suites.  Each draws from its ``random.Random`` in a fixed
order, so a seed names one story or frame.  Moments are built bottom-up by
`compose_moment`, which lives here because no command builds moments that
way.  `reference_class_frame` and `reference_slots` are the suite's draws
written with the stdlib's ``randint``, ``choice``, ``randrange`` and
``choices``: the oracle that the library's draws must equal number for
number.
"""

import random
from typing import Iterable, Mapping, Sequence

from tanglemc import logic
from tanglemc.formula import And, Box, Diamond, Formula, Implies, Neg, Next, Or, Tangle, Var
from tanglemc.frame import Frame, FrameError, _bits, _monotone_witness, transitive_closure
from tanglemc.story import (
    Moment,
    Story,
    _moment_serial,
    validate_moment,
    validate_story,
)


def random_formula(rng: random.Random, variables: Sequence[str], depth: int) -> Formula:
    """A random formula of at most `depth` nested operators over `variables`:
    a variable with chance 0.3, and always at depth 0, else one of eight
    operators, each equally likely, over random formulas of one depth less,
    a tangle taking one or two."""
    if depth <= 0 or rng.random() < 0.3:
        return Var(rng.choice(variables))
    kind = rng.choice((Neg, And, Or, Implies, Diamond, Box, Next, Tangle))
    count = rng.choice((1, 2)) if kind is Tangle else 2 if kind in (And, Or, Implies) else 1
    kids = [random_formula(rng, variables, depth - 1) for _ in range(count)]
    return Tangle(tuple(kids)) if kind is Tangle else kind(*kids)


def reference_class_frame(rng: random.Random, max_worlds: int, lg: logic.Logic) -> Frame:
    """``logic.random_class_frame`` through the stdlib's calls: random
    edges, transitive closure, seriality repair, then map resampling with
    identity fallback."""
    n = rng.randint(1, max_worlds)
    p = rng.choice((0.15, 0.3, 0.5, 0.7))
    succ = [0] * n
    for i in range(n):
        for j in range(n):
            if rng.random() < p:
                succ[i] |= 1 << j
    succ = transitive_closure(succ)
    if lg.serial:
        while True:
            holes = [w for w in range(n) if not succ[w]]
            if not holes:
                break
            for w in holes:
                succ[w] |= 1 << rng.randrange(n)
            succ = transitive_closure(succ)
    func = None
    for _ in range(logic.FUNC_TRIES):
        cand = [rng.randrange(n) for _ in range(n)]
        if _monotone_witness(succ, succ, cand, lg.strict) is None:
            func = cand
            break
    if func is None:
        func = list(range(n))  # identity is monotone and strictly monotone
    return Frame([f"w{i}" for i in range(n)], succ, func)


def reference_slots(rng: random.Random, schema: logic.Schema) -> list[int]:
    """``logic._random_slots`` through the stdlib's ``choices`` and
    ``choice``: the formula slots, the set (its size drawn first), theta."""
    def draw(k: int) -> list[int]:
        return rng.choices(range(len(logic.SLOT_FORMULAS)),
                           cum_weights=logic._SLOT_CUM_WEIGHTS, k=k)

    slots = draw(schema.formula_slots)
    if schema.set_slot:
        slots += draw(rng.choice((1, 2)))
    return slots + draw(1) if schema.theta_slot else slots


def compose_moment(
    x: str,
    cluster: Sequence[str],
    q: str,
    submoments: Sequence[Moment],
    valuation: Mapping[str, Iterable[str]] | None = None,
) -> Moment:
    """Build a moment from a root cluster over a list of submoments.

    ``q`` is "reflexive" or "irreflexive"; an irreflexive root cluster must
    be a singleton.  The cluster sees every submoment world; submoment
    relations are kept; internal cluster edges (including loops) exist only
    for a reflexive cluster.  World names must be globally unique.
    """
    cluster = list(cluster)
    if q not in ("reflexive", "irreflexive"):
        raise ValueError("q must be 'reflexive' or 'irreflexive'")
    if x not in cluster:
        raise ValueError("root must belong to the cluster")
    if q == "irreflexive" and len(cluster) != 1:
        raise ValueError("an irreflexive root cluster must be a singleton")
    worlds = list(cluster)
    rel: list[tuple[str, str]] = []
    if q == "reflexive":
        rel.extend((a, b) for a in cluster for b in cluster)
    for m in submoments:
        worlds.extend(m.worlds)
        rel.extend(m.rel)
        rel.extend((c, w) for c in cluster for w in m.worlds)
    if len(set(worlds)) != len(worlds):
        raise ValueError("world names collide across cluster and submoments")
    val: dict[str, set[str]] = {}
    for p, names in (valuation or {}).items():
        val[p] = set(names) & set(cluster)
    for m in submoments:
        for p, names in m.valuation.items():
            val.setdefault(p, set()).update(names)
    return validate_moment(worlds, rel, x, {p: frozenset(s) for p, s in val.items()})


def random_moment(
    rng: random.Random,
    depth: int = 2,
    variables: Sequence[str] = ("p", "q"),
    prefix: str = "m",
    allow_clusters: bool = True,
) -> Moment:
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def build(d: int) -> Moment:
        k = rng.choice((1, 1, 2)) if (allow_clusters and rng.random() < 0.4) else 1
        cluster = [fresh() for _ in range(k)]
        q = "reflexive" if (k > 1 or rng.random() < 0.5) else "irreflexive"
        subs = []
        if d > 0:
            for _ in range(rng.randint(0, 2)):
                subs.append(build(d - 1))
        val = {v: [w for w in cluster if rng.random() < 0.5] for v in variables}
        return compose_moment(cluster[0], cluster, q, subs, val)

    return build(depth)


def _transform_moment(rng: random.Random, m: Moment, fresh_prefix: str,
                      allow_clusters: bool = True) -> tuple[Moment, dict[str, str]]:
    """Build a successor moment and a map satisfying all story conditions.

    Clusters are copied bijectively or collapsed onto an irreflexive point;
    irreflexive points never gain reflexivity, and fresh subtrees may be
    grafted outside the image.
    """
    f = m.frame
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"{fresh_prefix}{counter[0]}"

    def go(root: str) -> tuple[Moment, dict[str, str]]:
        ri = f.index(root)
        cluster_mask = f.cluster_mask(ri)
        cluster = [root] + [
            w for w in m.worlds if w != root and (cluster_mask >> f.index(w)) & 1
        ]
        reflexive = f.is_reflexive(ri)
        child_roots = []
        seen = 0
        strict = f.succ_mask(ri) & ~cluster_mask
        for j in _bits(strict):
            if (seen >> j) & 1:
                continue
            cj = f.cluster_mask(j)
            # immediate successors: nothing strictly between root cluster and them
            preds_of_j = f.pred_mask(j) & ~cluster_mask & ~cj & strict
            if preds_of_j:
                continue
            seen |= cj
            child_roots.append(next(iter(sorted(_bits(cj)))))
        subs = []
        mapping: dict[str, str] = {}
        for j in child_roots:
            sm, smap = go(m.worlds[j])
            subs.append(sm)
            mapping.update(smap)
        collapse = reflexive and rng.random() < 0.3
        if collapse:
            target = [fresh()]
            q = "irreflexive"
            for w in cluster:
                mapping[w] = target[0]
        else:
            target = [fresh() for _ in cluster]
            q = "reflexive" if reflexive else "irreflexive"
            for w, t in zip(cluster, target):
                mapping[w] = t
        if rng.random() < 0.25:
            subs.append(random_moment(rng, 0, prefix=fresh() + "x",
                                      allow_clusters=allow_clusters))
        val = {}
        out = compose_moment(target[0], target, q, subs, val)
        return out, mapping

    return go(m.root)


LEVEL_TRIES = 10_000  # random levels drawn for one story level before giving up


def random_story(
    rng: random.Random,
    duration: int,
    serial: bool = False,
    immersive: bool = False,
    variables: Sequence[str] = ("p", "q"),
    max_level_worlds: int = 7,
    allow_clusters: bool = False,
) -> Story:
    """Random valid story; with `immersive` the maps are bijective copies.

    Defaults keep levels small with singleton clusters, so that path
    enumeration over the reflexive duplication stays desk-scale; pass
    `allow_clusters` for proper multi-world clusters.  Each level is drawn
    until it has at most `max_level_worlds` worlds (and is serial when
    asked); ValueError when ``LEVEL_TRIES`` draws of one level all fail.
    """

    def fits(m: Moment) -> bool:
        return len(m.worlds) <= max_level_worlds and (not serial or _moment_serial(m))

    failed = (f"no {'serial ' if serial else ''}story level of at most "
              f"{max_level_worlds} worlds in {LEVEL_TRIES} draws")
    for _ in range(LEVEL_TRIES):
        first = random_moment(rng, depth=2, variables=variables, prefix="a",
                              allow_clusters=allow_clusters)
        if fits(first):
            break
    else:
        raise ValueError(failed)
    levels = [first]
    maps = []
    for i in range(duration):
        if immersive:
            nxt, fmap = _copy_moment(levels[-1], f"l{i + 1}_")
        else:
            for _ in range(LEVEL_TRIES):
                nxt, fmap = _transform_moment(rng, levels[-1], f"l{i + 1}_",
                                              allow_clusters=allow_clusters)
                if fits(nxt):
                    break
            else:
                raise ValueError(failed)
        levels.append(nxt)
        maps.append(fmap)
    return validate_story(Story(tuple(levels), tuple(maps), immersive=False).to_dict())


def _copy_moment(m: Moment, prefix: str) -> tuple[Moment, dict[str, str]]:
    mapping = {w: prefix + w for w in m.worlds}
    copied = validate_moment(
        [mapping[w] for w in m.worlds],
        [[mapping[a], mapping[b]] for a, b in m.rel],
        mapping[m.root],
        {p: [mapping[w] for w in ws] for p, ws in m.valuation.items()},
    )
    return copied, mapping


def random_transitive_frame(
    n: int, seed: int, levels: int | None = None, cluster_prob: float = 0.5
) -> Frame:
    """Random layered frame, transitive by construction; scales to 10^4 worlds.

    Worlds are assigned random layers; every world sees all worlds in
    strictly higher layers, and a layer is either a reflexive cluster or an
    antichain of irreflexive points.  The map is sampled layer-monotone.
    """
    rng = random.Random(seed)
    if n < 1:
        raise FrameError("need at least one world")
    if levels is None:
        levels = max(2, min(20, n // 4 + 2))
    layer = [rng.randrange(levels) for _ in range(n)]
    layer_mask = [0] * levels
    for w, l in enumerate(layer):
        layer_mask[l] |= 1 << w
    is_cluster = [rng.random() < cluster_prob for _ in range(levels)]
    above = [0] * levels  # union of strictly higher layers
    acc = 0
    for l in range(levels - 1, -1, -1):
        above[l] = acc
        acc |= layer_mask[l]
    succ = []
    for w in range(n):
        l = layer[w]
        own = layer_mask[l] if is_cluster[l] else 0
        succ.append(above[l] | own)
    worlds = [f"w{i}" for i in range(n)]
    # layer-respecting map keeps the frame's structure plausible; any total
    # map would do for evaluation purposes
    candidates_by_layer = [sorted(_bits(layer_mask[l])) for l in range(levels)]
    func = []
    for w in range(n):
        pool = candidates_by_layer[layer[w]]
        func.append(pool[rng.randrange(len(pool))])
    return Frame(worlds, succ, func)
