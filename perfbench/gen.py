"""Seeded inputs for every workload, written with the standard library only.

No ``tanglemc`` generator is used, so a change to the program's own random
frames, stories or formulas cannot change a workload.  Each workload builds
a fixed list of operations ("ops").  What sets an op's cost (formula trees,
small relations and maps, cluster layers, story shapes) comes from a
generator with a fixed seed; the workload seed picks variable names, world
orders, valuations, maps of large frames, sampling seeds, non-theorems and
broken stories.  So a seed changes the inputs but not the amount of work.

An op is a dict: ``argv`` for ``tanglemc.cli.main`` and ``expect``, the
facts ``check.py`` needs to judge the report.
"""

from __future__ import annotations

import json
import os
import random

import ref
from ref import (TOP, And, Box, Dia, Iff, Imp, Next, Not, Or, Tan, Var, big_and,
                 dot_box, dot_dia, dot_tan)

# The K4C axioms, each a function of its slots: formulas, then a formula
# set, then theta.  Every instance is valid on every transitive frame with
# a monotone map, which is what the sweep and large-frame frames are.
K4C_SCHEMAS = {
    "K": (2, False, False, lambda a, b: Imp(Box(Imp(a, b)), Imp(Box(a), Box(b)))),
    "4": (1, False, False, lambda a: Imp(Box(a), Box(Box(a)))),
    "Next-neg": (1, False, False, lambda a: Iff(Not(Next(a)), Next(Not(a)))),
    "Next-and": (2, False, False, lambda a, b: Iff(Next(And(a, b)), And(Next(a), Next(b)))),
    "C-dot": (1, False, False, lambda a: Imp(dot_dia(Next(a)), Next(dot_dia(a)))),
    "Fix-tan": (0, True, False,
                lambda fs: Imp(Tan(fs), big_and(Dia(And(f, Tan(fs))) for f in fs))),
    "Ind-tan": (0, True, True,
                lambda fs, t: Imp(dot_box(Imp(t, big_and(Dia(And(f, t)) for f in fs))),
                                  Imp(t, Tan(fs)))),
    "CTan-dot": (0, True, False,
                 lambda fs: Imp(dot_tan([Next(f) for f in fs]), Next(dot_tan(fs)))),
}

# Formulas refuted on most frames with a non-identity map or an irreflexive
# world; the generator keeps an instance only once the reference finds its
# first failure early in the sweep order.
NON_THEOREMS = [
    lambda a, b: Imp(Next(Dia(a)), Dia(Next(a))),
    lambda a, b: Imp(Dia(Next(a)), Next(Dia(a))),
    lambda a, b: Imp(Tan([a, b]), a),
    lambda a, b: Imp(Next(Tan([a])), Tan([Next(a)])),
    lambda a, b: Imp(Tan([Next(a), b]), Next(Tan([a, b]))),
    lambda a, b: Imp(Box(a), And(a, Next(b))),
    lambda a, b: Imp(And(a, Next(b)), Box(Or(a, b))),
]


def random_formula(rng, names, depth):
    if depth <= 0 or rng.random() < 0.25:
        return Var(rng.choice(names))
    kind = rng.choice(("not", "and", "or", "imp", "dia", "box", "next", "next", "tan", "tan"))
    sub = lambda: random_formula(rng, names, depth - 1)  # noqa: E731
    if kind == "tan":
        return Tan([sub() for _ in range(rng.choice((1, 2)))])
    if kind in ("and", "or", "imp"):
        return (kind, sub(), sub())
    return (kind, sub())


def rename(f, names):
    """f with every variable v replaced by names[v]."""
    kind = f[0]
    if kind == "var":
        return Var(names[f[1]])
    if kind == "tan":
        return Tan([rename(a, names) for a in f[1]])
    if kind in ("top", "bot"):
        return f
    return (kind,) + tuple(rename(g, names) for g in f[1:])


def permuted(rng, names):
    """A random renaming of `names` onto themselves."""
    return dict(zip(names, rng.sample(names, len(names))))


def schema_shape(shape_rng, name, sizes):
    """Argument shapes for one instance of schema `name` whose tree size
    lies in `sizes` and which has room for two variables."""
    slots, has_set, has_theta, build = K4C_SCHEMAS[name]
    while True:
        depth = shape_rng.randint(1, 4)
        args = [random_formula(shape_rng, ["p", "q"], depth) for _ in range(slots)]
        if has_set:
            args.append([random_formula(shape_rng, ["p", "q"], depth)
                         for _ in range(shape_rng.choice((1, 2)))])
        if has_theta:
            args.append(random_formula(shape_rng, ["p", "q"], depth))
        f = build(*args)
        if sizes[0] <= ref.tree_size(f) <= sizes[1] and len(ref.variables(f)) == 2:
            return args


def schema_instance(rng, name, shape, names):
    """Instance of schema `name` on the argument `shape`, its variables
    permuted by `rng`: every seed gets a formula of the same cost."""
    build, names = K4C_SCHEMAS[name][3], permuted(rng, names)
    return build(*[[rename(a, names) for a in arg] if isinstance(arg, list)
                   else rename(arg, names) for arg in shape])


# -- frames -----------------------------------------------------------------

def class_frame(shape_rng, rng, n):
    """A transitive frame with a monotone map: clusters of 1-3 worlds over a
    random order of clusters.  Relation and map come from `shape_rng`, the
    declared order of the worlds from `rng`."""
    clusters, i = [], 0
    while i < n:
        k = min(n - i, shape_rng.choice((1, 1, 2, 3)))
        clusters.append(list(range(i, i + k)))
        i += k
    m = len(clusters)
    refl = [len(c) > 1 or shape_rng.random() < 0.4 for c in clusters]
    density = shape_rng.choice((0.3, 0.5, 0.7))
    reach = [set() for _ in range(m)]
    for a in range(m - 1, -1, -1):
        for b in range(a + 1, m):
            if shape_rng.random() < density:
                reach[a] |= {b} | reach[b]
    of = {w: c for c, ws in enumerate(clusters) for w in ws}
    succ = [
        {v for v in range(n) if of[v] in reach[of[w]] or (of[v] == of[w] and refl[of[w]])}
        for w in range(n)
    ]
    func = monotone_map(shape_rng, succ)
    pos = list(range(n))
    rng.shuffle(pos)
    name = [f"w{pos[w]}" for w in range(n)]
    return {
        "worlds": [f"w{i}" for i in range(n)],
        "rel": [[name[w], name[v]] for w in range(n) for v in sorted(succ[w])],
        "func": {name[w]: name[func[w]] for w in range(n)},
    }


def monotone_map(rng, succ):
    """Random map with w R v => f(w) = f(v) or f(w) R f(v), by backtracking
    over shuffled candidates; the identity after 4000 tries."""
    n = len(succ)
    f = [None] * n
    steps = [0]

    def fits(w, x):
        for u in range(w):
            if u in succ[w] and not (f[u] == x or f[u] in succ[x]):
                return False
            if w in succ[u] and not (f[u] == x or x in succ[f[u]]):
                return False
        return True

    def place(w):
        if w == n:
            return True
        cands = list(range(n))
        rng.shuffle(cands)
        for x in cands:
            steps[0] += 1
            if steps[0] > 4000:
                return False
            if fits(w, x):
                f[w] = x
                if place(w + 1):
                    return True
        return False

    return f if place(0) else list(range(n))


def layered_frame(shape_rng, rng, n, layers):
    """A large transitive frame: each layer is a reflexive cluster or an
    antichain of irreflexive worlds, and every world sees every higher
    layer.  The map sends layer l into layer sigma(l), sigma non-decreasing;
    worlds landing in an antichain layer share one image, which keeps the
    map monotone.  Which layers are clusters comes from `shape_rng`, the
    map and the valuation from `rng`."""
    layer_of = [w * layers // n for w in range(n)]
    members = [[w for w in range(n) if layer_of[w] == l] for l in range(layers)]
    cluster = [shape_rng.random() < 0.5 for _ in range(layers)]
    sigma = sorted(rng.randrange(layers) for _ in range(layers))
    point = [rng.choice(members[l]) for l in range(layers)]
    func = [
        rng.choice(members[sigma[layer_of[w]]]) if cluster[sigma[layer_of[w]]]
        else point[sigma[layer_of[w]]]
        for w in range(n)
    ]
    worlds = [f"w{i}" for i in range(n)]
    seen = [
        [worlds[v] for v in range(n) if layer_of[v] > l or (layer_of[v] == l and cluster[l])]
        for l in range(layers)
    ]
    rel = [[worlds[w], v] for w in range(n) for v in seen[layer_of[w]]]
    valuation = {p: [w for w in worlds if rng.random() < 0.5] for p in ("p", "q", "r")}
    return {"worlds": worlds, "rel": rel,
            "func": {worlds[w]: worlds[func[w]] for w in range(n)},
            "valuation": valuation}


def shared_formula(shape_rng, rng, names, min_size, max_size):
    """A formula whose tree has hundreds of nodes but only a few dozen
    distinct subformulas: each step combines earlier steps, tangles nest.
    The formula comes from `shape_rng`, a permutation of its variables from
    `rng`."""
    while True:
        pool = [(Var(p), 1) for p in names]
        while pool[-1][1] < min_size:
            (a, size_a), (b, size_b) = shape_rng.choice(pool), shape_rng.choice(pool[-4:])
            kind = shape_rng.choice(("and", "or", "imp", "dia", "box", "next", "not",
                                     "tan", "tan"))
            if kind == "tan":
                pool.append((Tan([a, b]), 1 + size_a + size_b))
            elif kind in ("and", "or", "imp"):
                pool.append(((kind, a, b), 1 + size_a + size_b))
            else:
                pool.append(((kind, b), 1 + size_b))
        f, size = pool[-1]
        if (size <= max_size and ref.variables(f) == sorted(names)
                and sum(1 for g in _distinct(f) if g[0] == "tan") >= 2):
            break
    return rename(f, permuted(rng, names))


def _distinct(f):
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if g in seen or g[0] in ("var", "top", "bot"):
            continue
        seen.add(g)
        stack.extend(g[1] if g[0] == "tan" else g[1:])
    return seen


# -- stories ----------------------------------------------------------------

class _Namer:
    def __init__(self, prefix):
        self.prefix, self.k = prefix, 0

    def __call__(self):
        self.k += 1
        return f"{self.prefix}{self.k}"


def _tree(rng, fresh, budget):
    """A moment as a tree of clusters: (worlds, reflexive, children).  A
    reflexive cluster has two or three worlds, an irreflexive one has one."""
    reflexive = rng.random() < 0.45
    worlds = [fresh() for _ in range(rng.choice((2, 2, 3)) if reflexive else 1)]
    budget[0] -= len(worlds)
    children = []
    while budget[0] > 0 and rng.random() < 0.6 and len(children) < 2:
        children.append(_tree(rng, fresh, budget))
    return (worlds, reflexive, children)


def _level(rng, tree):
    worlds, rel = [], []

    def walk(node, above):
        ws, refl, kids = node
        worlds.extend(ws)
        rel.extend([a, b] for a in above for b in ws)
        if refl:
            rel.extend([a, b] for a in ws for b in ws)
        for k in kids:
            walk(k, above + ws)

    walk(tree, [])
    val = {p: sorted(w for w in worlds if rng.random() < 0.5) for p in ("p", "q")}
    return {"worlds": worlds, "rel": sorted(rel), "root": tree[0][0], "valuation": val}


def _next_tree(rng, node, fresh, fmap):
    """Image of a cluster tree: each cluster is copied one-to-one or, when
    reflexive, may collapse onto one irreflexive world; fresh leaves may be
    grafted on.  Irreflexive worlds never land on reflexive ones."""
    ws, refl, kids = node
    if refl and rng.random() < 0.25:
        img = [fresh()]
        for w in ws:
            fmap[w] = img[0]
        out_refl = False
    else:
        img = [fresh() for _ in ws]
        fmap.update(zip(ws, img))
        out_refl = refl
    out_kids = [_next_tree(rng, k, fresh, fmap) for k in kids]
    if rng.random() < 0.2:
        out_kids.append(([fresh()], False, []))
    return (img, out_refl, out_kids)


def random_story(rng):
    """A valid story of four levels with 2-7 worlds each."""
    while True:
        trees = [_tree(rng, _Namer("a"), [rng.randint(2, 7)])]
        maps = []
        for i in range(1, 4):
            fmap = {}
            trees.append(_next_tree(rng, trees[-1], _Namer(chr(ord("a") + i)), fmap))
            maps.append(fmap)
        data = {"levels": [_level(rng, t) for t in trees], "maps": maps}
        sizes = [len(lv["worlds"]) for lv in data["levels"]]
        if min(sizes) >= 2 and max(sizes) <= 7:
            return data


def dress(rng, story):
    """The same story with fresh world names, declared order and valuation."""
    new_name, levels = {}, []
    letters = rng.sample("abcdefghjkmnpqrstuvwxyz", len(story["levels"]))
    for i, lv in enumerate(story["levels"]):
        order = list(lv["worlds"])
        rng.shuffle(order)
        new_name[i] = {w: f"{letters[i]}{k}" for k, w in enumerate(order)}
        worlds = [new_name[i][w] for w in order]
        levels.append({
            "worlds": worlds,
            "rel": sorted([new_name[i][a], new_name[i][b]] for a, b in lv["rel"]),
            "root": new_name[i][lv["root"]],
            "valuation": {p: sorted(w for w in worlds if rng.random() < 0.5) for p in ("p", "q")},
        })
    maps = [{new_name[i][a]: new_name[i + 1][b] for a, b in f.items()}
            for i, f in enumerate(story["maps"])]
    return {"levels": levels, "maps": maps}


def story_paths(data, resolution):
    return sum(ref.count_paths(lv["worlds"], lv["rel"], resolution) for lv in data["levels"])


def _add_world(level, new, parents=(), like=None):
    """Add world `new` below `parents`; with `like`, as a copy of that
    world, so that it joins its cluster."""
    rel = {tuple(p) for p in level["rel"]} | {(a, new) for a in parents}
    if like is not None:
        rel |= {(new, b) for a, b in rel if a == like} | {(a, new) for a, b in rel if b == like}
        rel.add((new, new))
    level["worlds"].append(new)
    level["rel"] = sorted(list(p) for p in rel)
    return new


def mutate(rng, data, condition):
    """A copy of a valid story that breaks `condition`, always through the
    last map so that no later map has to change; None if this story offers
    no place for that mutation."""
    s = json.loads(json.dumps(data))
    last, prev, fmap = s["levels"][-1], s["levels"][-2], s["maps"][-1]
    lv, pv = ref.Level(last), ref.Level(prev)
    if condition == "stabilising":
        others = [w for w in last["worlds"] if w != last["root"]]
        if not others:
            return None
        s["maps"].append({w: w for w in last["worlds"]})
        s["maps"][-1][rng.choice(others)] = last["root"]
    elif condition == "root-preserving":
        new_root = "z0"
        last["rel"] = sorted(last["rel"] + [[new_root, w] for w in last["worlds"]])
        last["worlds"].insert(0, new_root)
        last["root"] = new_root
    elif condition == "monotonic":
        top = pv.cluster(pv.root)
        pairs = [(a, b) for a, b in pv.rel if a not in top and not pv.reflexive(b)]
        if not pairs:
            return None
        _, b = rng.choice(pairs)
        fmap[b] = _add_world(last, "z1", sorted(lv.cluster(last["root"])))
    elif condition in ("almost-injective", "cluster-preserving"):
        copied = [w for w in prev["worlds"] if pv.reflexive(w) and w == min(pv.cluster(w))
                  and lv.reflexive(fmap[w])]
        if not copied:
            return None
        src = sorted(pv.cluster(rng.choice(copied)))
        target = [fmap[w] for w in src]
        if condition == "almost-injective":
            gone = next(t for t in reversed(target) if t != last["root"])
            fmap[src[target.index(gone)]] = next(t for t in target if t != gone)
            last["worlds"].remove(gone)
            last["rel"] = [p for p in last["rel"] if gone not in p]
            for p in last["valuation"]:
                last["valuation"][p] = [w for w in last["valuation"][p] if w != gone]
        else:
            _add_world(last, "z2", like=target[0])
    if ref.story_violations(s) != {condition}:
        return None
    return s


# -- workloads --------------------------------------------------------------

class Inputs:
    """Writes input files under one directory and names them in argv."""

    def __init__(self, root, workdir):
        self.root, self.workdir, self.count = root, workdir, 0

    def write(self, kind, data):
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:03d}.{kind}.json")
        with open(os.path.join(self.root, path), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data))
        return path


# Schemas per op group; each group's size band is reachable by its schemas.
# The groups keep the median and the tail percentile of op times inside a
# group of ops of like cost, where op-to-op noise moves them least.
SWEEP_GROUPS = (
    # (worlds, ops, schemas, tree sizes, samples)
    (8, 9, ("Fix-tan", "K", "4", "Ind-tan", "C-dot"), (12, 22), None),
    (8, 5, ("Next-neg", "Next-and", "CTan-dot", "Fix-tan"), (34, 44), None),
    (10, 3, ("Fix-tan", "CTan-dot", "Ind-tan"), (40, 60), 1500),
)


def sweep(rng, inputs):
    """Exhaustive and sampled validity on 8-10 world class frames, two
    variables: the valuation loop and the tangle fixed point."""
    ops = []
    shapes = random.Random("sweep-shapes")
    frames = {n: [class_frame(shapes, rng, n) for _ in range(k)]
              for n, k in ((8, 6), (9, 2), (10, 3))}
    paths = {n: [inputs.write("frame", f) for f in fs] for n, fs in frames.items()}

    def validity(n, k, formula, theorem, samples=None):
        argv = ["validity", "--frame", paths[n][k], "--formula", ref.render(formula)]
        if samples:
            argv += ["--mode", "sampled", "--samples", str(samples),
                     "--seed", str(rng.randrange(1 << 30))]
        ops.append({"argv": argv, "expect": {
            "kind": "validity", "frame": frames[n][k], "formula": formula,
            "theorem": theorem, "samples": samples}})

    for n, count, schemas, sizes, samples in SWEEP_GROUPS:
        for i in range(count):
            name = schemas[i % len(schemas)]
            shape = schema_shape(shapes, name, sizes)
            validity(n, i % len(frames[n]), schema_instance(rng, name, shape, ["p", "q"]),
                     True, samples)
    for i in range(3):
        n, k = (10, i) if i < 2 else (9, 1)
        model = ref.Model.from_dict(frames[n][k])
        while True:
            template = rng.choice(NON_THEOREMS)
            f = template(random_formula(rng, ["p"], 1), random_formula(rng, ["q"], 1))
            if ref.variables(f) == ["p", "q"] and ref.first_failure(model, f, 1 << n):
                break
        validity(n, k, f, False, samples=2000 if i == 2 else None)
    return ops


SEARCH_THEOREMS = {
    "K4C": ["4", "Next-neg", "C-dot", "Fix-tan"],
    "K4DC": ["4", "Next-neg", "C-dot", "CTan-dot"],
    "K4I": ["4", "Next-neg", "Fix-tan", "C-dia"],
    "K4DI": ["4", "Next-and", "Ind-tan", "CTan-dia"],
}
SEARCH_ARGS = [Var("p"), Next(Var("p")), Dia(Var("p")), Not(Var("p")), Tan([Var("p")])]


def _search_theorem(shape_rng, rng, schema):
    """A one-variable theorem of a logic: the schema's argument comes from
    `shape_rng`, the name of its variable from `rng`."""
    v = Var(rng.choice("pqr"))
    a = rename(shape_rng.choice(SEARCH_ARGS), {"p": v[1]})
    if schema == "C-dia":
        return Imp(Dia(Next(a)), Next(Dia(a)))
    if schema == "CTan-dia":
        return Imp(Tan([Next(a)]), Next(Tan([a])))
    if schema == "Next-and":
        return Iff(Next(And(a, v)), And(Next(a), Next(v)))
    if schema == "Ind-tan":
        return K4C_SCHEMAS[schema][3]([a], v)
    slots, has_set, _, build = K4C_SCHEMAS[schema]
    return build([a]) if has_set else build(*[a] * slots)


# Refuted within two worlds in K4C: a monotone map need not be strictly
# monotone (C-dia, CTan-dia), and frames need not be serial (D) or reflexive.
SEARCH_NON_THEOREMS = [
    ("K4C", lambda p: Imp(Dia(Next(p)), Next(Dia(p)))),
    ("K4C", lambda p: Imp(Tan([Next(p)]), Next(Tan([p])))),
    ("K4C", lambda p: Dia(TOP)),
    ("K4C", lambda p: Imp(Box(p), p)),
    ("K4DC", lambda p: Imp(Dia(Next(p)), Next(Dia(p)))),
    ("K4DC", lambda p: Imp(p, Box(p))),
]


def search(rng, inputs):
    """Exhaustive countermodel search at 3-4 worlds in all four logics, and
    the soundness suite of each logic."""
    ops = []
    shapes = random.Random("search-shapes")

    def op(logic, formula, worlds, theorem):
        ops.append({"argv": ["search", "--logic", logic, "--formula", ref.render(formula),
                             "--max-worlds", str(worlds)],
                    "expect": {"kind": "search", "logic": logic, "formula": formula,
                               "theorem": theorem, "max_worlds": worlds}})

    for logic, schemas in SEARCH_THEOREMS.items():
        for schema in schemas:
            op(logic, _search_theorem(shapes, rng, schema), 3, True)
    p = Var("p")
    op("K4DC", Imp(Box(p), Box(Box(p))), 4, True)
    for logic, build in SEARCH_NON_THEOREMS:
        op(logic, build(Var(rng.choice("pqr"))), rng.choice((3, 4)), False)
    for logic in SEARCH_THEOREMS:
        trials = 100
        ops.append({"argv": ["axioms", "--logic", logic, "--trials", str(trials),
                             "--seed", str(rng.randrange(1 << 30))],
                    "expect": {"kind": "axioms", "logic": logic, "trials": trials}})
    return ops


# (worlds, layers, check ops, validity ops) per frame
LARGE_FRAMES = ((1000, 12, 1, 0), (500, 10, 3, 1), (550, 10, 3, 1), (600, 11, 3, 1))


def large_frame(rng, inputs):
    """`check` and sampled `validity` on layered frames of 500-1000 worlds,
    three variables, formulas with many shared subformulas."""
    ops = []
    shapes = random.Random("large-frame-shapes")
    names = ["p", "q", "r"]
    for j, (n, layers, n_check, n_valid) in enumerate(LARGE_FRAMES):
        frame = layered_frame(shapes, rng, n, layers)
        path = inputs.write("frame", frame)
        for _ in range(n_check):
            f = shared_formula(shapes, rng, names, 250, 320)
            ops.append({"argv": ["check", "--frame", path, "--formula", ref.render(f)],
                        "expect": {"kind": "check", "frame": frame, "formula": f}})
        for _ in range(n_valid):
            a, b = (shared_formula(shapes, rng, names, 30, 60) for _ in range(2))
            f = K4C_SCHEMAS[("Fix-tan", "CTan-dot")[j % 2]][3]([a, b])
            samples = 4
            ops.append({"argv": ["validity", "--frame", path, "--formula", ref.render(f),
                                 "--mode", "sampled", "--samples", str(samples),
                                 "--seed", str(rng.randrange(1 << 30))],
                        "expect": {"kind": "validity", "frame": frame, "formula": f,
                                   "theorem": True, "samples": samples}})
    return ops


# The lifted demos/story_chain.story.json: each level x -> {y, y'}, a
# two-world reflexive cluster; 4,095 canonical paths per level at
# resolution 10.
LIFTED_CHAIN = {
    "levels": [
        {"worlds": [f"x{i}", f"y{i}", f"y{i}'"],
         "rel": [[f"x{i}", f"y{i}"], [f"x{i}", f"y{i}'"], [f"y{i}", f"y{i}"],
                 [f"y{i}", f"y{i}'"], [f"y{i}'", f"y{i}"], [f"y{i}'", f"y{i}'"]],
         "root": f"x{i}",
         "valuation": {"p": [] if i == 2 else [f"y{i}", f"y{i}'"]}}
        for i in range(3)
    ],
    "maps": [{f"x{i}": f"x{i + 1}", f"y{i}": f"y{i + 1}", f"y{i}'": f"y{i + 1}'"}
             for i in range(2)],
}

PATH_BUDGET = (6000, 8000)


def paths(rng, inputs):
    """Story validation, classification, reflexive duplication and the
    path-space check at resolution 8-10 on four-level stories with fat
    reflexive clusters, plus one story per broken condition."""
    ops = []
    shapes = random.Random("paths-shapes")
    for _ in range(6):
        while True:
            story = random_story(shapes)
            resolution = shapes.choice((8, 9, 10))
            count = story_paths(story, resolution)
            if PATH_BUDGET[0] <= count <= PATH_BUDGET[1] and ref.fat_clusters(story):
                break
        story = dress(rng, story)
        path = inputs.write("story", story)
        e = {"story": story}
        ops.append({"argv": ["story-validate", "--story", path],
                    "expect": dict(e, kind="story-validate")})
        ops.append({"argv": ["story-class", "--story", path],
                    "expect": dict(e, kind="story-class")})
        ops.append({"argv": ["oplus", "--story", path], "expect": dict(e, kind="oplus")})
        ops.append({"argv": ["pathspace-verify", "--story", path,
                             "--resolution", str(resolution)],
                    "expect": dict(e, kind="pathspace-verify", resolution=resolution)})
    path = inputs.write("story", LIFTED_CHAIN)
    ops.append({"argv": ["pathspace-verify", "--story", path, "--resolution", "10"],
                "expect": {"kind": "pathspace-verify", "story": LIFTED_CHAIN,
                           "resolution": 10}})
    for condition in ref.CONDITIONS:
        while True:
            bad = mutate(rng, random_story(rng), condition)
            if bad is not None:
                break
        ops.append({"argv": ["story-validate", "--story", inputs.write("story", bad)],
                    "expect": {"kind": "story-validate", "story": bad,
                               "condition": condition}})
    return ops


WORKLOADS = {"sweep": sweep, "search": search, "large-frame": large_frame, "paths": paths}


def build(workload, seed, root, workdir):
    """Write the inputs of one workload and return its ops."""
    os.makedirs(os.path.join(root, workdir), exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, Inputs(root, workdir))
