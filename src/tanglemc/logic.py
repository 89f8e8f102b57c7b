"""Axiom schemas, logics over frame classes, soundness suites, and search.

Schemas (ASCII ids in brackets):

    K         [d](p -> q) -> ([d]p -> [d]q)
    4         [d]p -> [d][d]p
    D         <d>T
    Next-neg  ~O p <-> O ~p
    Next-and  O (p & q) <-> O p & O q
    C-dot     <d.>O p -> O <d.>p
    C-dia     <d>O p -> O <d>p
    Fix-tan   <t>{F} -> AND_{f in F} <d>(f & <t>{F})
    Ind-tan   [d.](t -> AND_{f in F} <d>(f & t)) -> (t -> <t>{F})
    CTan-dot  dotted tangle of O F -> O dotted tangle of F
    CTan-dia  <t>{O F} -> O <t>{F}

The four logics pair an axiom list with a frame class: K4C / K4DC ask for
monotone maps, K4I / K4DI for strictly monotone maps, and the D variants
additionally for seriality.  All classes are transitive.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache

from .formula import (
    And,
    Box,
    Diamond,
    Formula,
    Implies,
    Neg,
    Next,
    Or,
    Tangle,
    Var,
    big_and,
    dot_box,
    dot_diamond,
    dot_tangle,
    pretty,
    top,
)
from .frame import (
    ClassFlags,
    Frame,
    _bits,
    _image_ranges,
    _monotone_witness,
    transitive_closure,
)
from .semantics import (
    _BLOCK_BITS, EXHAUSTIVE_BITS_LIMIT, PACKED_BITS_LIMIT, Evaluator, Program, _exhaustive_blocks,
    exhaustive_passes, sampled_passes, sweep, valid_on_frame,
)
from .record import record


def _iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


@record
class Schema:
    """An axiom schema; slots are formulas, an optional formula set, and an
    optional extra formula (used by the induction schema)."""

    name: str
    formula_slots: int
    set_slot: bool
    theta_slot: bool
    _build: Callable[..., Formula]

    def instantiate(
        self,
        formulas: Sequence[Formula] = (),
        formula_set: Iterable[Formula] | None = None,
        theta: Formula | None = None,
    ) -> Formula:
        if len(formulas) != self.formula_slots:
            raise ValueError(
                f"{self.name} takes {self.formula_slots} formula(s), got {len(formulas)}"
            )
        for slot, given, what in ((self.set_slot, formula_set, "formula set"),
                                  (self.theta_slot, theta, "theta formula")):
            if slot != (given is not None):
                raise ValueError(f"{self.name} {'needs a' if slot else 'takes no'} {what}")
        tangle = [Tangle(tuple(formula_set))] if self.set_slot else []
        return self._build(*formulas, *tangle, *([theta] if self.theta_slot else []))


def _fix_tan(t: Tangle) -> Formula:
    return Implies(t, big_and([Diamond(And(f, t)) for f in t.args]))


def _ind_tan(t: Tangle, theta: Formula) -> Formula:
    body = big_and([Diamond(And(f, theta)) for f in t.args])
    return Implies(dot_box(Implies(theta, body)), Implies(theta, t))


def _ctan_dot(t: Tangle) -> Formula:
    return Implies(dot_tangle([Next(f) for f in t.args]), Next(dot_tangle(t.args)))


def _ctan_dia(t: Tangle) -> Formula:
    return Implies(Tangle(tuple(Next(f) for f in t.args)), Next(t))


SCHEMAS: dict[str, Schema] = {
    s.name: s
    for s in [
        Schema("K", 2, False, False,
               lambda p, q: Implies(Box(Implies(p, q)), Implies(Box(p), Box(q)))),
        Schema("4", 1, False, False, lambda p: Implies(Box(p), Box(Box(p)))),
        Schema("D", 0, False, False, lambda: Diamond(top())),
        Schema("Next-neg", 1, False, False,
               lambda p: _iff(Neg(Next(p)), Next(Neg(p)))),
        Schema("Next-and", 2, False, False,
               lambda p, q: _iff(Next(And(p, q)), And(Next(p), Next(q)))),
        Schema("C-dot", 1, False, False,
               lambda p: Implies(dot_diamond(Next(p)), Next(dot_diamond(p)))),
        Schema("C-dia", 1, False, False,
               lambda p: Implies(Diamond(Next(p)), Next(Diamond(p)))),
        Schema("Fix-tan", 0, True, False, _fix_tan),
        Schema("Ind-tan", 0, True, True, _ind_tan),
        Schema("CTan-dot", 0, True, False, _ctan_dot),
        Schema("CTan-dia", 0, True, False, _ctan_dia),
    ]
}


_BASE = ("K", "4", "Next-neg", "Next-and", "Fix-tan", "Ind-tan")


@record
class Logic:
    name: str
    schemas: tuple[str, ...]
    serial: bool
    strict: bool

    def admits(self, flags: ClassFlags) -> bool:
        if not flags.transitive or not flags.monotonic:
            return False
        if self.strict and not flags.strictly_monotonic:
            return False
        if self.serial and not flags.serial:
            return False
        return True


LOGICS: dict[str, Logic] = {
    "K4C": Logic("K4C", _BASE + ("C-dot", "CTan-dot"), serial=False, strict=False),
    "K4DC": Logic("K4DC", _BASE + ("C-dot", "CTan-dot", "D"), serial=True, strict=False),
    "K4I": Logic("K4I", _BASE + ("C-dia", "CTan-dia"), serial=False, strict=True),
    "K4DI": Logic("K4DI", _BASE + ("C-dia", "CTan-dia", "D"), serial=True, strict=True),
}


# ---------------------------------------------------------------------------
# random generation

def random_formula(
    rng: random.Random, variables: Sequence[str], depth: int, nodes: dict | None = None
) -> Formula:
    """A random formula of at most `depth` nested operators over `variables`.

    Its nodes are hash-consed in `nodes` (a fresh table when None), as
    :func:`~tanglemc.formula.parse` does: a variable by its name, any other
    node by its type and the identities of its children, which are shared
    already.  So equal formulas drawn into one table are one object, while
    the table, which holds them, lives."""
    if nodes is None:
        nodes = {}
    if depth <= 0 or rng.random() < 0.3:
        key = (Var, rng.choice(variables))
        return nodes.get(key) or nodes.setdefault(key, Var(key[1]))
    kind = rng.choice((Neg, And, Or, Implies, Diamond, Box, Next, Tangle))
    count = rng.choice((1, 2)) if kind is Tangle else 2 if kind in (And, Or, Implies) else 1
    kids = [random_formula(rng, variables, depth - 1, nodes) for _ in range(count)]
    key = (Tangle, frozenset(map(id, kids))) if kind is Tangle else (kind, *map(id, kids))
    return nodes.get(key) or nodes.setdefault(
        key, Tangle(tuple(kids)) if kind is Tangle else kind(*kids))


FUNC_TRIES = 64  # random maps tried for a monotone one before the identity


def random_class_frame(rng: random.Random, max_worlds: int, logic: Logic) -> Frame:
    """Rejection-sample a frame of the logic's class: random edges, transitive
    closure, seriality repair, then map resampling with identity fallback."""
    n = rng.randint(1, max_worlds)
    p = rng.choice((0.15, 0.3, 0.5, 0.7))
    succ = [0] * n
    for i in range(n):
        for j in range(n):
            if rng.random() < p:
                succ[i] |= 1 << j
    succ = transitive_closure(succ)
    if logic.serial:
        while True:
            holes = [w for w in range(n) if not succ[w]]
            if not holes:
                break
            for w in holes:
                succ[w] |= 1 << rng.randrange(n)
            succ = transitive_closure(succ)
    func = None
    for _ in range(FUNC_TRIES):
        cand = [rng.randrange(n) for _ in range(n)]
        if _monotone_witness(succ, succ, cand, logic.strict) is None:
            func = cand
            break
    if func is None:
        func = list(range(n))  # identity is monotone and strictly monotone
    return Frame([f"w{i}" for i in range(n)], succ, func)


SUITE_VARIABLES = ("p", "q")  # the variables of the suite's schema instances
SUITE_DEPTH = 1  # the depth of the random formulas filling their slots


def _random_slots(
    rng: random.Random, schema: Schema, nodes: dict | None = None
) -> tuple[list[Formula], list[Formula] | None, Formula | None]:
    """The arguments of a random instance for :meth:`Schema.instantiate`,
    drawn in order: the formula slots, the set (its size first), theta,
    each hash-consed in `nodes` by :func:`random_formula`."""
    def draw():
        return random_formula(rng, SUITE_VARIABLES, SUITE_DEPTH, nodes)

    formulas = [draw() for _ in range(schema.formula_slots)]
    formula_set = [draw() for _ in range(rng.choice((1, 2)))] if schema.set_slot else None
    theta = draw() if schema.theta_slot else None
    return formulas, formula_set, theta


@lru_cache(maxsize=None)
def _schema_program(name: str, size: int) -> Program:
    """The program of a schema with a set of `size`, over unparseable
    metavariables ``_0``, ``_1``, ... in :func:`_random_slots` order."""
    schema = SCHEMAS[name]
    k = schema.formula_slots
    metas = [Var(f"_{i}") for i in range(k + size + schema.theta_slot)]
    tangle = [Tangle(tuple(metas[k:k + size]))] if schema.set_slot else []
    return Program(schema._build(*metas[:k], *tangle, *metas[k + size:]))


@record
class SchemaViolation:
    schema: str
    formula: str
    frame: dict
    valuation: dict[str, tuple[str, ...]]
    world: str


@record
class SuiteReport:
    logic: str
    seed: int
    trials: int
    mode: str
    frames_checked: int
    instances_checked: int
    violations: tuple[SchemaViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "logic": self.logic,
            "seed": self.seed,
            "trials": self.trials,
            "mode": self.mode,
            "frames_checked": self.frames_checked,
            "instances_checked": self.instances_checked,
            "violations": [
                {
                    "schema": v.schema,
                    "formula": v.formula,
                    "frame": v.frame,
                    "valuation": {p: list(ws) for p, ws in v.valuation.items()},
                    "world": v.world,
                }
                for v in self.violations
            ],
        }


def _union_failures(drawn, trials, programs: dict[int, Program]) -> set[tuple[int, int]]:
    """The (trial, schema) positions of the instances of `trials`, indices
    into `drawn`, a list of (frame, draws), that miss a world under some
    valuation.  The trial frames have one world count n, and one evaluator
    of 4^n lanes checks their disjoint union, where p and q hold all 4^n
    valuation codes in every trial's worlds: an instance's value does not
    depend on a variable it does not read, so each instance meets every
    valuation of its variables.  Truth on a disjoint union is truth on
    each part, and [[phi[psi/A]]] is [[phi]] with A read as [[psi]]: so
    each distinct slot formula, from `programs` (node identity -> program),
    which gains the slot formulas it lacks, runs once on the union, and
    each schema position (one instance a trial, even where a logic lists a
    schema twice) and set size runs its schema's program once, each
    metavariable read in an instance's worlds as its slot formula."""
    chunk = [drawn[t] for t in trials]
    n = chunk[0][0].n
    lanes = 1 << n * len(SUITE_VARIABLES)
    span = n * lanes  # the bits of one trial's worlds
    union = Frame([f"w{w}" for w in range(n * len(chunk))],
                  [f.succ_mask(w) << t * n for t, (f, _) in enumerate(chunk) for w in range(n)],
                  [f.func_index(w) + t * n for t, (f, _) in enumerate(chunk) for w in range(n)])
    ev = Evaluator(union, lanes)
    regions = [((1 << span) - 1) << t * span for t in range(len(chunk))]
    every = sum(1 << t * span for t in range(len(chunk)))  # copies a trial's mask to all
    codes = next(_exhaustive_blocks(n, len(SUITE_VARIABLES), n * len(SUITE_VARIABLES), 1))
    env = {v: m * every for v, m in zip(SUITE_VARIABLES, codes)}
    groups: dict[tuple[int, str, int], list] = {}  # (position, schema, set size) -> instances
    for t, (_, draws) in enumerate(chunk):
        for i, (name, (formulas, formula_set, theta), _) in enumerate(draws):
            slots = [programs.get(id(f)) or programs.setdefault(id(f), Program(f))
                     for f in (*formulas, *(formula_set or ()), *([theta] if theta else []))]
            groups.setdefault((i, name, len(formula_set or ())), []).append((t, slots))
    values = {p: ev.compile(p)(env)
              for p in dict.fromkeys(p for m in groups.values() for _, s in m for p in s)}
    failing = set()
    for (i, name, size), members in groups.items():
        metas = {f"_{k}": sum(values[s[k]] & regions[t] for t, s in members)
                 for k in range(len(members[0][1]))}  # the regions are disjoint: + is |
        missing = ev.full ^ ev.compile(_schema_program(name, size))(metas)
        failing.update((trials[t], i) for t, _ in members if missing & regions[t])
    return failing


def soundness_suite(
    logic: Logic | str,
    trials: int,
    seed: int,
    max_worlds: int = 4,
    mode: str = "sampled",
    samples: int = 32,
) -> SuiteReport:
    """Check every schema of the logic on random frames of its class.

    Each trial draws a frame with :func:`random_class_frame`, then for each
    schema the slot formulas of an instance, over `SUITE_VARIABLES` of
    depth `SUITE_DEPTH` and hash-consed for this call, and a sampling seed.
    One rule, in both modes: trials of up to 6 worlds, whose 4^n valuation
    codes fit one pass of at most 4096 lanes, are screened under all of
    them by :func:`_union_failures`, in chunks of one world count whose
    distance masks (``2(2n - 1)`` per world and lane at most) stay within
    ``PACKED_BITS_LIMIT`` bits.  A chunk takes one evaluator of 4^n lanes
    on the union of its frames, one run per distinct slot formula and one
    per schema position and set size; every instance of a larger trial
    skips the screen.  Each flagged or unscreened instance is built and checked alone
    by :func:`valid_on_frame`, once, in `mode` and with its own seed, so
    its countermodel is that of a sweep per instance; its samples are some
    of its codes, so the screen misses none that its sweep refutes.
    Violations come in (trial, schema) order.  A sound logic reports zero
    violations; a `Logic` whose schemas or class do not match gives a
    misconfigured suite.  An unknown `mode` raises ``ValueError`` before
    the first trial, as does exhaustive mode when a frame of `max_worlds`
    worlds could pass ``EXHAUSTIVE_BITS_LIMIT`` (worlds times the number
    of `SUITE_VARIABLES`).
    """
    if isinstance(logic, str):
        logic = LOGICS[logic]
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and samples < 1:
        raise ValueError("samples must be >= 1")
    bits = max_worlds * len(SUITE_VARIABLES)
    if mode == "exhaustive" and bits > EXHAUSTIVE_BITS_LIMIT:
        raise ValueError(
            f"exhaustive suite needs max_worlds*|vars| <= {EXHAUSTIVE_BITS_LIMIT}, got {bits}"
        )
    rng = random.Random(seed)
    # the slot formulas' nodes and their programs by node identity, for
    # this call only: the nodes, and so the identities, die with it
    nodes: dict = {}
    programs: dict[int, Program] = {}
    drawn = [(random_class_frame(rng, max_worlds, logic),
              [(name, _random_slots(rng, SCHEMAS[name], nodes), rng.getrandbits(32))
               for name in logic.schemas]) for _ in range(trials)]
    suspects = set()
    for n in sorted({frame.n for frame, _ in drawn}):
        same = [t for t, (frame, _) in enumerate(drawn) if frame.n == n]
        bits = n * len(SUITE_VARIABLES)
        if bits > _BLOCK_BITS:  # its codes take more than one pass: no screen
            suspects.update((t, i) for t in same for i in range(len(logic.schemas)))
            continue
        step = max(1, PACKED_BITS_LIMIT // (2 * (2 * n - 1) * n << bits))
        for k in range(0, len(same), step):
            suspects |= _union_failures(drawn, same[k:k + step], programs)
    violations = []
    for t, i in sorted(suspects):
        frame, draws = drawn[t]
        name, slots, instance_seed = draws[i]
        inst = SCHEMAS[name].instantiate(*slots)
        cm = valid_on_frame(frame, inst, mode, samples, instance_seed).countermodel
        if cm is not None:
            violations.append(SchemaViolation(name, pretty(inst), frame.to_dict(cm.valuation),
                                              dict(cm.valuation), cm.world))
    return SuiteReport(logic.name, seed, trials, mode, trials,
                       trials * len(logic.schemas), tuple(violations))


# ---------------------------------------------------------------------------
# countermodel search

@record
class SearchResult:
    verdict: str  # "countermodel" | "none-within-bounds"
    frame: Frame | None = None
    valuation: dict[str, tuple[str, ...]] | None = None
    world: str | None = None
    frames_checked: int = 0
    valuations_checked: int = 0
    stats: dict | None = None  # the counts of _STATS

    @property
    def found(self) -> bool:
        return self.verdict == "countermodel"


EXHAUSTIVE_SEARCH_LIMIT = 8


def _closed_sets(rows: Sequence[int]) -> list[int]:
    """The sets S of worlds with ``rows[a]`` inside S for every a in S,
    ascending by mask."""
    out = []
    for s in range(1 << len(rows)):
        rest = s
        while rest:  # _bits inlined: this runs per relation class
            lsb = rest & -rest
            if rows[lsb.bit_length() - 1] & ~s:
                break
            rest ^= lsb
        else:
            out.append(s)
    return out


def _canonical_code(succ: Sequence[int], keys: Sequence[int]) -> int:
    """The least relation code (rows in order, first row highest) over the
    renamings that sort the worlds by their isomorphism-invariant
    ``keys``: two relations with such keys get the same code exactly when
    they are isomorphic.  Only worlds with equal keys trade places."""
    n = len(succ)
    order = sorted(range(n), key=keys.__getitem__)
    cells = [list(g) for _, g in itertools.groupby(order, key=keys.__getitem__)]
    if len(cells) == n:
        renamings: Iterable[Sequence[int]] = (order,)
    else:
        renamings = ([w for cell in choice for w in cell] for choice in
                     itertools.product(*[itertools.permutations(c) for c in cells]))
    best = -1
    pos = [0] * n
    for perm in renamings:  # perm[i]: the world renamed to i
        for i, w in enumerate(perm):
            pos[w] = i
        code = 0
        for w in perm:
            row = succ[w]
            r = 0
            while row:  # _bits inlined: this runs per candidate relation
                lsb = row & -row
                r |= 1 << pos[lsb.bit_length() - 1]
                row ^= lsb
            code = code << n | r
        if best < 0 or code < best:
            best = code
    return best


def _transitive_classes():
    """One transitive relation per isomorphism class, on 0, 1, 2, ...
    worlds in turn; each relation is a tuple of successor masks.

    The classes on n + 1 worlds come from those on n worlds, kept from
    the level before: deleting a world of a transitive relation leaves a
    transitive relation, so every class on n + 1 worlds is a class on n
    worlds plus a last world x.  x's row S is closed under successors,
    its column C under predecessors, every world of C sees all of S, and
    x is reflexive when S and C meet; these four conditions are exactly
    what keeps the extension transitive, so every candidate is.  A
    candidate stands when x has the greatest (loop, out-degree,
    in-degree) key of its worlds, since every class has such an
    extension (delete a world of greatest key), and when its
    :func:`_canonical_code` is new.  Parents go in their own order, then
    S, then C ascending, then the loop off before on.  The counts on
    0-6 worlds are 1, 2, 8, 39, 242, 1895 and 19051; on a 2-vCPU host
    the classes on up to 5 worlds take about 0.07 s, on 6 worlds 0.7 s.
    """
    level = [()]
    yield ()
    while True:
        n = len(level[0])
        new = 1 << n
        shift = (n + 1).bit_length()  # a key packs (loop, out, in) into one int
        seen = set()
        grown = []
        for succ in level:
            pred = [0] * n
            for w, row in enumerate(succ):
                for v in _bits(row):
                    pred[v] |= 1 << w
            down_sets = _closed_sets(pred)
            for s in _closed_sets(succ):
                sees_s = sum(1 << a for a in range(n) if not s & ~succ[a])
                for c in down_sets:
                    if c & ~sees_s:
                        continue
                    rows = [row | new if c >> w & 1 else row for w, row in enumerate(succ)]
                    keys = [((row >> w & 1) << shift | row.bit_count()) << shift
                            | (pred[w] | (new if s >> w & 1 else 0)).bit_count()
                            for w, row in enumerate(rows)]
                    most = max(keys, default=0)
                    for loop in ((1,) if s & c else (0, 1)):
                        key = ((loop << shift | s.bit_count() + loop) << shift
                               | c.bit_count() + loop)
                        if key < most:
                            continue
                        cand = (*rows, s | new * loop)
                        code = _canonical_code(cand, keys + [key])
                        if code not in seen:
                            seen.add(code)
                            grown.append(cand)
                            yield cand
        level = grown


def _monotone_maps(succ: Sequence[int], strict: bool) -> list[tuple[int, ...]]:
    """All (strictly) monotone maps of the relation into itself, in
    ``itertools.product`` order.  Images are chosen world by world, each
    ascending, among those that keep every pair with a world mapped before
    (and the world's own loop) inside the :func:`_image_ranges` entry of
    the pair's source image, so a bad pair prunes at its later world."""
    n = len(succ)
    ranges = _image_ranges(succ, strict)
    covers = [0] * n  # covers[b]: the images a whose range holds b
    for a, r in enumerate(ranges):
        for b in _bits(r):
            covers[b] |= 1 << a
    own = sum(1 << a for a in range(n) if ranges[a] >> a & 1)
    level = [()]  # the admissible image prefixes of one length, in order
    for k in range(n):
        # the images world k may take before the pairs with earlier worlds
        start = own if succ[k] >> k & 1 else (1 << n) - 1
        earlier_pred = [w for w in range(k) if succ[w] >> k & 1]
        earlier_succ = [v for v in range(k) if succ[k] >> v & 1]
        longer = []
        for prefix in level:
            allowed = start
            for w in earlier_pred:
                allowed &= ranges[prefix[w]]
            for v in earlier_succ:
                allowed &= covers[prefix[v]]
            longer.extend([prefix + (a,) for a in _bits(allowed)])
        level = longer
    return level


def countermodel_search(
    phi: Formula,
    logic: Logic | str,
    max_worlds: int = 3,
    seed: int = 0,
    samples: int = 2000,
) -> SearchResult:
    """Search the logic's frame class for a model refuting phi.

    Up to ``EXHAUSTIVE_SEARCH_LIMIT`` worlds the search walks the frames
    in the order (world count, relation class in the order of
    :func:`_transitive_classes`, map in ``itertools.product`` order,
    valuation code) and returns the first refutation.  Validity does not
    change when worlds are renamed, and a renaming that carries one
    relation onto another carries its (strictly) monotone maps onto the
    other's, so the search takes one relation per isomorphism class with
    all of its maps (a relation with automorphisms still has isomorphic
    maps among its own).  ``frames_checked`` counts the frames covered,
    not those swept: a formula without O reads no map, so a relation's
    first map stands for all of them, and where it fails the walk fails
    first.  phi's :class:`~tanglemc.semantics.Program` is made once and
    swept over chunks of frames of one world count, across relations, one
    evaluator a chunk and a slot of lanes a frame, as many as fit in 2^12
    lanes (one past 12 bits); the counts and the countermodel are those of
    one frame and valuation at a time.  ``stats`` counts the relation
    classes enumerated, the frames and valuations swept, the evaluators
    built and ``worlds_covered``, the most worlds searched in full.  The
    bound is not what finishes: on a 2-vCPU host ``[d]p -> [d][d]p``
    takes about 0.011 s CPU in K4DC at 4 worlds (5,151 frames), 0.4-0.7 s
    in K4C at 5 worlds (409,952 frames) and 20 s at 6 (16,293,935
    frames); ``<d>O p -> O <d>p``, which reads O, 0.7-1.2 s in K4I at 5
    worlds (206,821 frames).
    Like exhaustive validity it raises ``ValueError`` before the first
    world count whose frames would need more than
    2^``EXHAUSTIVE_BITS_LIMIT`` valuations each (world count times the
    number of variables); a countermodel on fewer worlds is still found.
    Beyond the world bound it samples ``samples`` random class frames of
    at most ``max_worlds`` worlds (:func:`random_class_frame`), 8 random
    valuations each in one 8-lane pass, drawn as 8 draws one at a time
    would be; each frame counts as a relation, a frame swept and an
    evaluator.  "none-within-bounds" is not a validity claim, and a
    search that could check no frame raises ``ValueError`` instead:
    ``max_worlds < 1``, or ``samples < 1`` past the world bound.
    """
    if isinstance(logic, str):
        logic = LOGICS[logic]
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    if max_worlds <= EXHAUSTIVE_SEARCH_LIMIT:
        return _search_exhaustive(Program(phi), logic, max_worlds)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return _search_random(Program(phi), logic, max_worlds, seed, samples)


def _reads_map(program: Program) -> bool:
    """Whether the program has an O; a program without one reads no map."""
    return any(op is Next for op, _, _ in program.code)


# what a search's stats report of its tally, which also counts what it covers
_STATS = ("relations", "frames_swept", "valuations_swept", "evaluators", "worlds_covered")


def _result(tally: Counter, frame: Frame | None = None, cm=None) -> SearchResult:
    """The search's result from its tally; refuted on `frame` when `cm` is given."""
    return SearchResult(
        "none-within-bounds" if cm is None else "countermodel", frame,
        None if cm is None else cm.valuation, None if cm is None else cm.world,
        tally["frames"], tally["valuations"], {k: tally[k] for k in _STATS})


def _search_chunks(logic: Logic, max_worlds: int, count: int, every_map: bool, tally: Counter):
    """The class frames of the exhaustive search in its order as (world
    count, slots, weights) chunks of at most 2^(12 - bits) slots of one
    world count: a slot is a (relation, map) pair, and its weight is 1,
    or the relation's map count when not `every_map`, where the first map
    stands for all.  The tally counts the relations and, once a world
    count's chunks are all taken, ``worlds_covered``."""
    classes = _transitive_classes()
    next(classes)  # the relation on no worlds
    slots, weights = [], []
    n = 0
    for succ in classes:
        if len(succ) > n:  # the first class on one more world
            if slots:
                yield n, slots, weights
                slots, weights = [], []
            tally["worlds_covered"] = n
            n = len(succ)
            if n > max_worlds:
                return
            if n * count > EXHAUSTIVE_BITS_LIMIT:
                raise ValueError(f"exhaustive search needs |worlds|*|vars| <= "
                                 f"{EXHAUSTIVE_BITS_LIMIT}, got {n * count}")
            per = 1 << max(0, _BLOCK_BITS - n * count)
        if logic.serial and not all(succ):
            continue
        tally["relations"] += 1
        maps = _monotone_maps(succ, logic.strict)
        if every_map:
            slots += [(succ, f) for f in maps]
            weights += [1] * len(maps)
        else:
            slots.append((succ, maps[0]))
            weights.append(len(maps))
        while len(slots) >= per:
            yield n, slots[:per], weights[:per]
            del slots[:per], weights[:per]


def _search_exhaustive(program: Program, logic: Logic, max_worlds: int) -> SearchResult:
    count = len(program.variables)
    tally = Counter()
    for n, slots, weights in _search_chunks(logic, max_worlds, count, _reads_map(program), tally):
        worlds = [f"w{i}" for i in range(n)]
        bits = n * count
        checked, cm = sweep(program, exhaustive_passes(Frame(worlds, *slots[0]), count, slots))
        held = len(slots) if cm is None else (checked - 1) >> bits  # the slots that hold
        covered, found = sum(weights[:held]), cm is not None
        tally.update(evaluators=1, frames_swept=held + found, valuations_swept=checked,
                     frames=covered + found, valuations=((covered - held) << bits) + checked)
        if found:
            return _result(tally, Frame(worlds, *slots[held]), cm)
    return _result(tally)


def _search_random(
    program: Program, logic: Logic, max_worlds: int, seed: int, samples: int
) -> SearchResult:
    rng = random.Random(seed)
    tally = Counter()
    for _ in range(samples):
        frame = random_class_frame(rng, max_worlds, logic)
        checked, cm = sweep(program, sampled_passes(frame, len(program.variables), rng, 8))
        tally.update(frames=1, relations=1, frames_swept=1, evaluators=1,
                     valuations=checked, valuations_swept=checked)
        if cm is not None:
            return _result(tally, frame, cm)
    return _result(tally)
