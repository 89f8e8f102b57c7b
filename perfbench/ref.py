"""Reference semantics the benchmark checks reports against.

Nothing here imports ``tanglemc``: formulas are the benchmark's own tuple
AST, frames and stories are read straight from their JSON form, and every
world set is a Python ``frozenset``.  The code is written for clarity, not
speed, and runs outside the timed region.

Formula AST (nested tuples, hashable)::

    ("var", name) ("top",) ("bot",) ("not", f) ("and", f, g) ("or", f, g)
    ("imp", f, g) ("dia", f) ("box", f) ("next", f) ("tan", (f1, ..., fk))
"""

from __future__ import annotations

CONDITIONS = (
    "monotonic",
    "root-preserving",
    "almost-injective",
    "cluster-preserving",
    "stabilising",
)


# -- formulas ---------------------------------------------------------------

def Var(name):
    return ("var", name)


def Not(f):
    return ("not", f)


def And(f, g):
    return ("and", f, g)


def Or(f, g):
    return ("or", f, g)


def Imp(f, g):
    return ("imp", f, g)


def Dia(f):
    return ("dia", f)


def Box(f):
    return ("box", f)


def Next(f):
    return ("next", f)


def Tan(args):
    return ("tan", tuple(args))


TOP = ("top",)


def Iff(f, g):
    return And(Imp(f, g), Imp(g, f))


def big_and(fs):
    fs = list(fs)
    out = fs[0]
    for f in fs[1:]:
        out = And(out, f)
    return out


def dot_dia(f):
    return Or(f, Dia(f))


def dot_box(f):
    return And(f, Box(f))


def dot_tan(args):
    return Or(dot_dia(big_and(args)), Tan(args))


_BINARY = {"and": " & ", "or": " | ", "imp": " -> "}
_UNARY = {"not": "~", "dia": "<d>", "box": "[d]", "next": "O "}


def render(f) -> str:
    """Surface syntax with every compound operand parenthesised."""
    kind = f[0]
    if kind == "var":
        return f[1]
    if kind == "top":
        return "T"
    if kind == "bot":
        return "F"
    if kind == "tan":
        return "<t>{" + ", ".join(render(a) for a in f[1]) + "}"
    if kind in _UNARY:
        return _UNARY[kind] + _operand(f[1])
    return _operand(f[1]) + _BINARY[kind] + _operand(f[2])


def _operand(f) -> str:
    s = render(f)
    return "(" + s + ")" if f[0] in _BINARY else s


def variables(f) -> list[str]:
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g[0] == "var":
            out.add(g[1])
        elif g[0] == "tan":
            stack.extend(g[1])
        else:
            stack.extend(g[1:])
    return sorted(out)


def tree_size(f) -> int:
    if f[0] in ("var", "top", "bot"):
        return 1
    if f[0] == "tan":
        return 1 + sum(tree_size(a) for a in f[1])
    return 1 + sum(tree_size(a) for a in f[1:])


# -- models -----------------------------------------------------------------

class Model:
    """A frame file read as sets: successor, predecessor and map."""

    def __init__(self, worlds, rel, func, valuation=None):
        self.worlds = list(worlds)
        self.all = frozenset(self.worlds)
        succ = {w: set() for w in self.worlds}
        pred = {w: set() for w in self.worlds}
        for a, b in rel:
            succ[a].add(b)
            pred[b].add(a)
        self.succ = {w: frozenset(s) for w, s in succ.items()}
        self.pred = {w: frozenset(s) for w, s in pred.items()}
        self.func = dict(func)
        self.valuation = {p: frozenset(ws) for p, ws in (valuation or {}).items()}

    @classmethod
    def from_dict(cls, data):
        return cls(data["worlds"], data["rel"], data["func"], data.get("valuation"))

    def with_valuation(self, valuation):
        m = object.__new__(Model)
        m.__dict__.update(self.__dict__)
        m.valuation = {p: frozenset(ws) for p, ws in valuation.items()}
        return m

    def down(self, s):
        """Worlds with at least one successor in s."""
        return frozenset().union(*(self.pred[v] for v in s))

    def preimage(self, s):
        return frozenset(w for w in self.worlds if self.func[w] in s)


def evaluate(model: Model, f, memo=None) -> frozenset:
    """Truth set of f; the tangle is the greatest fixed point of
    A -> A & AND_i down(S_i & A), iterated down from the whole frame."""
    if memo is None:
        memo = {}
    if f in memo:
        return memo[f]
    kind = f[0]
    W = model.all
    if kind == "var":
        out = model.valuation.get(f[1], frozenset())
    elif kind == "top":
        out = W
    elif kind == "bot":
        out = frozenset()
    elif kind == "not":
        out = W - evaluate(model, f[1], memo)
    elif kind == "and":
        out = evaluate(model, f[1], memo) & evaluate(model, f[2], memo)
    elif kind == "or":
        out = evaluate(model, f[1], memo) | evaluate(model, f[2], memo)
    elif kind == "imp":
        out = (W - evaluate(model, f[1], memo)) | evaluate(model, f[2], memo)
    elif kind == "dia":
        out = model.down(evaluate(model, f[1], memo))
    elif kind == "box":
        out = W - model.down(W - evaluate(model, f[1], memo))
    elif kind == "next":
        out = model.preimage(evaluate(model, f[1], memo))
    elif kind == "tan":
        sets = [evaluate(model, a, memo) for a in f[1]]
        a = W
        while True:
            new = a
            for s in sets:
                new = new & model.down(s & a)
            if new == a:
                break
            a = new
        out = a
    else:
        raise ValueError(f"not a formula: {f!r}")
    memo[f] = out
    return out


def code_valuation(worlds, names, code):
    """Valuation of the exhaustive sweep's canonical code: variable i (in
    sorted order) owns bits i*n .. i*n+n-1, world j sits at bit j."""
    n = len(worlds)
    return {
        p: [worlds[j] for j in range(n) if code >> (i * n + j) & 1]
        for i, p in enumerate(names)
    }


def first_failure(model: Model, f, limit: int):
    """First (code, world) in canonical sweep order at which f fails, among
    the first `limit` codes; None when f holds on all of them."""
    names = variables(f)
    for code in range(min(limit, 1 << (len(model.worlds) * len(names)))):
        m = model.with_valuation(code_valuation(model.worlds, names, code))
        holds = evaluate(m, f)
        for w in model.worlds:
            if w not in holds:
                return code, w
    return None


# -- frame classes ----------------------------------------------------------

def class_flags(model: Model) -> dict:
    succ, func = model.succ, model.func
    transitive = all(succ[v] <= succ[w] for w in model.worlds for v in succ[w])
    serial = all(succ[w] for w in model.worlds)
    monotone = all(
        func[w] == func[v] or func[v] in succ[func[w]]
        for w in model.worlds for v in succ[w]
    )
    strict = all(func[v] in succ[func[w]] for w in model.worlds for v in succ[w])
    return {"transitive": transitive, "serial": serial,
            "monotone": monotone, "strict": strict}


def in_class(model: Model, logic: str) -> bool:
    flags = class_flags(model)
    if not (flags["transitive"] and flags["monotone"]):
        return False
    if logic in ("K4I", "K4DI") and not flags["strict"]:
        return False
    if logic in ("K4DC", "K4DI") and not flags["serial"]:
        return False
    return True


# -- paths ------------------------------------------------------------------

def count_paths(worlds, rel, resolution: int) -> int:
    """Canonical eventually-constant paths with prefix length <= resolution.

    A prefix w_0..w_{k-1} moves along the reflexive closure of the relation;
    the tail is a strict successor of the last prefix world (any world when
    the prefix is empty).  walks[w] counts the prefixes of the current
    length that end in w.
    """
    succ = {w: set() for w in worlds}
    for a, b in rel:
        succ[a].add(b)
    strict = {w: len(succ[w] - {w}) for w in worlds}
    total = len(worlds)
    walks = {w: 1 for w in worlds}
    for _ in range(resolution):
        total += sum(walks[w] * strict[w] for w in worlds)
        nxt = {w: 0 for w in worlds}
        for u in worlds:
            for v in succ[u] | {u}:
                nxt[v] += walks[u]
        walks = nxt
    return total


# -- stories ----------------------------------------------------------------

class Level:
    def __init__(self, raw):
        self.worlds = list(raw["worlds"])
        self.root = raw["root"]
        self.rel = [tuple(p) for p in raw.get("rel", [])]
        self.succ = {w: set() for w in self.worlds}
        for a, b in self.rel:
            self.succ[a].add(b)
        self.valuation = {p: set(ws) for p, ws in raw.get("valuation", {}).items()}

    def related(self, a, b) -> bool:
        return b in self.succ[a]

    def reflexive(self, w) -> bool:
        return w in self.succ[w]

    def cluster(self, w) -> frozenset:
        return frozenset({w} | {v for v in self.succ[w] if w in self.succ[v]})


def story_violations(data) -> set[str]:
    """Names of the story conditions the story file violates."""
    levels = [Level(raw) for raw in data["levels"]]
    duration = len(levels) - 1
    maps = list(data.get("maps", []))
    explicit_last = maps.pop() if len(maps) == duration + 1 else None
    out = set()
    for i, f in enumerate(maps):
        src, tgt = levels[i], levels[i + 1]
        if any(f[a] != f[b] and not tgt.related(f[a], f[b]) for a, b in src.rel):
            out.add("monotonic")
        if f[src.root] != tgt.root:
            out.add("root-preserving")
        for a in src.worlds:
            for b in src.worlds:
                if a != b and f[a] == f[b] and tgt.reflexive(f[a]):
                    out.add("almost-injective")
        for w in src.worlds:
            if tgt.cluster(f[w]) != frozenset(f[v] for v in src.cluster(w)):
                out.add("cluster-preserving")
    if explicit_last is not None and any(explicit_last[w] != w for w in levels[-1].worlds):
        out.add("stabilising")
    return out


def story_immersive(data) -> bool:
    levels = [Level(raw) for raw in data["levels"]]
    for i, f in enumerate(data.get("maps", [])[: len(levels) - 1]):
        src, tgt = levels[i], levels[i + 1]
        if len(set(f[w] for w in src.worlds)) != len(src.worlds):
            return False
        if any(not tgt.related(f[a], f[b]) for a, b in src.rel):
            return False
    return True


def story_flags(data) -> list[str]:
    """Logics whose story class holds the story."""
    levels = [Level(raw) for raw in data["levels"]]
    serial = all(lv.succ[w] for lv in levels for w in lv.worlds)
    flags = {"K4C"}
    if serial:
        flags.add("K4DC")
    if story_immersive(data):
        flags.add("K4I")
        if serial:
            flags.add("K4DI")
    return sorted(flags)


def fat_clusters(data) -> bool:
    """Every reflexive cluster of every level has at least two worlds."""
    for raw in data["levels"]:
        lv = Level(raw)
        if any(lv.reflexive(w) and len(lv.cluster(w)) < 2 for w in lv.worlds):
            return False
    return True


def oplus_problems(story, lifted, projections) -> list[str]:
    """Ways the reported reflexive duplication of `story` is wrong."""
    src = [Level(raw) for raw in story["levels"]]
    out = [Level(raw) for raw in lifted["levels"]]
    if len(src) != len(out) or len(projections) != len(src):
        return ["level count differs"]
    problems = []
    for i, (lv, lf, proj) in enumerate(zip(src, out, projections)):
        if sorted(proj) != sorted(lf.worlds):
            problems.append(f"level {i}: projection is not total")
            continue
        for w in lv.worlds:
            copies = sum(1 for v in lf.worlds if proj[v] == w)
            if copies != (2 if lv.reflexive(w) else 1):
                problems.append(f"level {i}: {w!r} has {copies} copies")
        for a in lf.worlds:
            for b in lf.worlds:
                if lf.related(a, b) != lv.related(proj[a], proj[b]):
                    problems.append(f"level {i}: relation of ({a}, {b}) is not pulled back")
        if proj.get(lf.root) != lv.root:
            problems.append(f"level {i}: root does not project to the root")
        for p in set(lv.valuation) | set(lf.valuation):
            want = {w for w in lf.worlds if proj[w] in lv.valuation.get(p, ())}
            if lf.valuation.get(p, set()) != want:
                problems.append(f"level {i}: valuation of {p!r} is not pulled back")
    if problems:
        return problems
    src_maps = story.get("maps", [])[: len(src) - 1]
    for i, (f, g) in enumerate(zip(src_maps, lifted.get("maps", []))):
        for w in out[i].worlds:
            if projections[i + 1][g[w]] != f[projections[i][w]]:
                problems.append(f"map {i} does not commute with the projections at {w!r}")
    violated = story_violations(lifted)
    if violated:
        problems.append(f"lift violates {sorted(violated)}")
    if not fat_clusters(lifted):
        problems.append("lift has a reflexive singleton cluster")
    return problems
