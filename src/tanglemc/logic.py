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
from bisect import bisect
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
    _pairs,
    transitive_closure,
)
from .semantics import (
    EXHAUSTIVE_BITS_LIMIT, Countermodel, Program, exhaustive_passes, pass_layout,
    sampled_passes, sweep, sweep_position, valid_on_frame,
)
from .record import record


def _iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


@record
class Schema:
    """An axiom schema; slots are formulas, an optional formula set, and an
    optional extra formula (used by the induction schema), in that order."""

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
        return self._fill([*formulas, *(formula_set or ()), *([theta] if self.theta_slot else [])])

    def _fill(self, args: Sequence[Formula]) -> Formula:
        """The instance whose slots, formulas, set members, theta, hold `args`."""
        k, end = self.formula_slots, len(args) - self.theta_slot
        tangle = [Tangle(tuple(args[k:end]))] if self.set_slot else []
        return self._build(*args[:k], *tangle, *args[end:])


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

FUNC_TRIES = 64  # random maps tried for a monotone one before the identity
# the largest max_worlds of a suite or of a search past its world bound: a
# drawn frame takes n^2 edge draws and a transitive closure of n rows of n
# bits, and on a 2-vCPU host a draw took 0.10-0.13 s CPU at 433-490
# worlds, 0.36-0.62 s at 865-979 and 1.6-2.2 s at 1,730-1,958
MAX_DRAWN_WORLDS = 1000
# the trials a suite draws, screens and sweeps at a time, about 2.4 KB each
# at 4 worlds, so its memory does not grow with the trial count
SUITE_BLOCK = 256


def _check_drawn_worlds(max_worlds: int) -> None:
    if max_worlds > MAX_DRAWN_WORLDS:
        raise ValueError(f"drawn frames need max_worlds <= {MAX_DRAWN_WORLDS}, got {max_worlds}")


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A number in range(n) as ``rng.randrange(n)`` takes it from the
    stream: ``getrandbits(n.bit_length())``, drawn again while >= n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_class_frame(rng: random.Random, max_worlds: int, logic: Logic) -> Frame:
    """Rejection-sample a frame of the logic's class: random edges, transitive
    closure, seriality repair, then map resampling with identity fallback.

    The draw takes from `rng` exactly the numbers that these stdlib calls
    would, in this order: ``rng.randint(1, max_worlds)`` for the world
    count n; ``rng.choice((0.15, 0.3, 0.5, 0.7))`` for the edge chance p;
    ``rng.random() < p`` for each pair (i, j), rows then columns; with
    seriality, ``rng.randrange(n)`` for the one successor of each world
    without one, ascending, then the closure again, until none is left;
    then up to `FUNC_TRIES` maps of n ``rng.randrange(n)`` each, up to the
    first (strictly) monotone one, else the identity.  ``randint``,
    ``choice`` and ``randrange`` are the ``getrandbits`` rejection loop
    of :func:`_below`; each map try is checked by :func:`_monotone_witness`
    with the relation's pairs and image ranges made once per frame."""
    if max_worlds < 1:  # as randint's empty range: _below would never return
        raise ValueError("max_worlds must be >= 1")
    getrandbits, random_ = rng.getrandbits, rng.random
    n = 1 + _below(getrandbits, max_worlds)
    p = (0.15, 0.3, 0.5, 0.7)[_below(getrandbits, 4)]
    worlds = range(n)
    bits = [1 << j for j in worlds]
    succ = transitive_closure([sum([b for b in bits if random_() < p]) for _ in worlds])
    if logic.serial:
        holes = [w for w in worlds if not succ[w]]
        while holes:
            for w in holes:
                succ[w] |= bits[_below(getrandbits, n)]
            succ = transitive_closure(succ)
            holes = [w for w in worlds if not succ[w]]
    pairs, ranges = _pairs(succ), _image_ranges(succ, logic.strict)
    for _ in range(FUNC_TRIES):
        func = [_below(getrandbits, n) for _ in worlds]
        if _monotone_witness(pairs, ranges, func) is None:
            break
    else:
        func = list(worlds)  # identity is monotone and strictly monotone
    return Frame([f"w{i}" for i in worlds], succ, func)


SUITE_VARIABLES = ("p", "q")  # the variables of the suite's schema instances
_p, _q = map(Var, SUITE_VARIABLES)
# the formulas that fill the slots of the suite's instances: those of depth
# at most 1 over its variables, the variables, 8 unary, 12 binary and 3
# tangles.  A slot takes formula i with chance SLOT_WEIGHTS[i] / 640, the
# chance of a draw that takes a variable with chance 0.3 and otherwise one
# of Neg, Diamond, Box, Next, And, Or, Implies and a tangle of one or two
# arguments, each operator with chance 0.7 / 8 and each argument a uniform
# variable: a one-variable tangle comes from one argument or two equal ones
SLOT_FORMULAS = (
    _p, _q,
    *[op(v) for op in (Neg, Diamond, Box, Next) for v in (_p, _q)],
    *[op(a, b) for op in (And, Or, Implies) for a in (_p, _q) for b in (_p, _q)],
    Tangle((_p,)), Tangle((_q,)), Tangle((_p, _q)),
)
SLOT_WEIGHTS = (96, 96, *[28] * 8, *[14] * 12, 21, 21, 14)
_SLOT_CUM_WEIGHTS = tuple(itertools.accumulate(SLOT_WEIGHTS))
_SLOT_TOTAL = _SLOT_CUM_WEIGHTS[-1] + 0.0  # a float, as ``choices`` makes it
_SLOT_LAST = len(SLOT_WEIGHTS) - 1  # the hi that ``choices`` gives ``bisect``
_SLOT_PROGRAMS = tuple(map(Program, SLOT_FORMULAS))  # made once per process


def _random_slots(rng: random.Random, schema: Schema) -> list[int]:
    """The `SLOT_FORMULAS` indices that fill a random instance's slots, in
    the order of :func:`_schema_program`'s metavariables: the formula
    slots, the set (its size drawn first), theta.

    The draw takes from `rng` exactly the numbers that these stdlib calls
    would, in this order: ``rng.choices(range(25), cum_weights=_SLOT_CUM_WEIGHTS,
    k=schema.formula_slots)``; with a set, ``rng.choice((1, 2))`` for its
    size s (the ``getrandbits`` rejection loop of :func:`_below`), then
    ``rng.choices(..., k=s)``; with theta, ``rng.choices(..., k=1)``.
    A slot is one ``rng.random()``, placed by ``bisect`` in the cumulative
    weights as ``choices`` places it."""
    random_, k = rng.random, schema.formula_slots
    slots = [bisect(_SLOT_CUM_WEIGHTS, random_() * _SLOT_TOTAL, 0, _SLOT_LAST)
             for _ in range(k)] if k else []
    rest = schema.theta_slot
    if schema.set_slot:
        rest += 1 + _below(rng.getrandbits, 2)
    if rest:
        slots += [bisect(_SLOT_CUM_WEIGHTS, random_() * _SLOT_TOTAL, 0, _SLOT_LAST)
                  for _ in range(rest)]
    return slots


def _instance(name: str, slots: Sequence[int]) -> Formula:
    """The instance of the named schema whose slots, in
    :func:`_random_slots` order, hold these `SLOT_FORMULAS`."""
    return SCHEMAS[name]._fill([SLOT_FORMULAS[i] for i in slots])


@lru_cache(maxsize=None)
def _schema_program(name: str, size: int) -> Program:
    """The program of a schema with a set of `size`, over unparseable
    metavariables ``_0``, ``_1``, ... in the order of the slots that
    :func:`_random_slots` draws."""
    schema = SCHEMAS[name]
    count = schema.formula_slots + size + schema.theta_slot
    return Program(schema._fill([Var(f"_{i}") for i in range(count)]))


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


def _screen(drawn, trials) -> dict[tuple[int, int], Countermodel]:
    """The countermodels of the failing instances of `trials`, indices into
    `drawn`, a list of (frame, draws), by (trial, schema).  The frames have
    one world count n, at most 6, and each trial is a slot of
    :func:`exhaustive_passes` whose 4^n lanes hold every code of p and q.
    An instance's value does not depend on a variable it does not read,
    so its first failing lane, read on its own variables, is the
    countermodel of an exhaustive sweep of it alone.  As [[phi[psi/A]]]
    is [[phi]] with A read as [[psi]], a chunk runs each of the 25
    `SLOT_FORMULAS` once, and each schema position (one instance a trial,
    even where a logic lists a schema twice) and set size its schema's
    program once, each metavariable read in a trial's slot as that
    trial's slot formula."""
    passes = exhaustive_passes(drawn[trials[0]][0], len(SUITE_VARIABLES),
                               [(drawn[t][0]._succ, drawn[t][0]._func) for t in trials])
    found = {}
    for ev, masks in passes:  # one pass a chunk: its lanes hold every code
        regions = ev.slot_masks()
        chunk, trials = trials[:len(regions)], trials[len(regions):]
        env = dict(zip(SUITE_VARIABLES, masks))
        values = [ev.compile(p)(env) for p in _SLOT_PROGRAMS]
        groups: dict[tuple[int, str, int], list] = {}  # (position, schema, slots) -> members
        for j, t in enumerate(chunk):
            for i, (name, slots, _) in enumerate(drawn[t][1]):
                groups.setdefault((i, name, len(slots)), []).append((j, slots))
        for (i, name, count), members in groups.items():
            schema = SCHEMAS[name]
            program = _schema_program(name, count - schema.formula_slots - schema.theta_slot)
            metas = {}
            for k in range(count):
                where: dict[int, int] = {}  # slot formula -> the slots of the trials it fills
                for j, s in members:
                    where[s[k]] = where.get(s[k], 0) | regions[j]
                metas[f"_{k}"] = sum(values[f] & r for f, r in where.items())  # disjoint: + is |
            value = ev.compile(program)(metas)
            if value == ev.full:
                continue
            for j, slots in members:
                variables = sorted({v for f in slots for v in _SLOT_PROGRAMS[f].variables})
                hit = ev.refutation(value | ev.full ^ regions[j], env, variables)
                if hit is not None:
                    found[chunk[j], i] = hit[1]
    return found


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
    schema the slots of an instance, one index into the fixed catalogue
    `SLOT_FORMULAS` a slot (:func:`_random_slots`), and a sampling seed.
    The trials are drawn from one ``random.Random(seed)``, and take from it
    exactly the numbers that the stdlib calls named in those two
    docstrings would, then ``rng.getrandbits(32)`` for each seed: trial by
    trial, a trial's frame first, then schema by schema in the logic's
    order, the slots before the seed.  They are drawn and checked in
    blocks of ``SUITE_BLOCK`` trials, which change neither the draws nor
    the report.  Trials of up to 6 worlds, whose 4^n valuation codes fit
    one pass (:func:`pass_layout`), are checked under all of them by
    :func:`_screen`, which gives each instance the countermodel of an
    exhaustive sweep of it alone: `mode` and `samples` change no verdict
    of such a trial.  Each instance of a larger trial is checked alone by
    :func:`valid_on_frame` in `mode`, with its own seed.  Violations come
    in (trial, schema) order.  A sound logic reports zero violations; a
    `Logic` whose schemas or class do not match gives a misconfigured
    suite.  An unknown `mode` raises ``ValueError`` before the first
    trial, as does a `max_worlds` over ``MAX_DRAWN_WORLDS``, or exhaustive
    mode when `max_worlds` times the number of `SUITE_VARIABLES` passes
    ``EXHAUSTIVE_BITS_LIMIT``.
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
    _check_drawn_worlds(max_worlds)
    bits = max_worlds * len(SUITE_VARIABLES)
    if mode == "exhaustive" and bits > EXHAUSTIVE_BITS_LIMIT:
        raise ValueError(f"exhaustive suite needs max_worlds*|vars| <= "
                         f"{EXHAUSTIVE_BITS_LIMIT}, got {bits}")
    rng = random.Random(seed)
    violations = []
    for first in range(0, trials, SUITE_BLOCK):
        drawn = [(random_class_frame(rng, max_worlds, logic),
                  [(name, _random_slots(rng, SCHEMAS[name]), rng.getrandbits(32))
                   for name in logic.schemas]) for _ in range(min(SUITE_BLOCK, trials - first))]
        violations += _block_violations(drawn, mode, samples)
    return SuiteReport(logic.name, seed, trials, mode, trials,
                       trials * len(logic.schemas), tuple(violations))


def _block_violations(drawn, mode: str, samples: int) -> list[SchemaViolation]:
    """The violations of a block of `drawn` (frame, draws) trials, in (trial,
    schema) order: the screen's, and lone sweeps' in `mode` past one pass."""
    found = {}  # (trial, schema) -> countermodel or None
    for n in sorted({frame.n for frame, _ in drawn}):
        same = [t for t, (frame, _) in enumerate(drawn) if frame.n == n]
        bits = n * len(SUITE_VARIABLES)
        if pass_layout(bits)[1] == bits:
            found.update(_screen(drawn, same))
            continue
        for t in same:
            for i, (name, slots, seed) in enumerate(drawn[t][1]):  # the instance's own seed
                verdict = valid_on_frame(drawn[t][0], _instance(name, slots), mode, samples, seed)
                found[t, i] = verdict.countermodel
    violations = []
    for (t, i), cm in sorted(found.items()):
        if cm is not None:
            name, slots, _ = drawn[t][1][i]
            violations.append(SchemaViolation(name, pretty(_instance(name, slots)),
                                              drawn[t][0].to_dict(cm.valuation),
                                              dict(cm.valuation), cm.world))
    return violations


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


@lru_cache(maxsize=None)
def _transitive_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """One transitive relation per isomorphism class on n worlds; each
    relation is a tuple of successor masks.

    The classes on n worlds come from those on n - 1 worlds: deleting a
    world of a transitive relation leaves a transitive relation, so every
    class on n worlds is a class on n - 1 worlds plus a last world x.
    x's row S is closed under successors, its column C under
    predecessors, every world of C sees all of S, and x is reflexive when
    S and C meet; these four conditions are exactly what keeps the
    extension transitive, so every candidate is.  A candidate stands when
    x has the greatest (loop, out-degree, in-degree) key of its worlds,
    since every class has such an extension (delete a world of greatest
    key), and when its :func:`_canonical_code` is new.  Parents go in
    their own order, then S, then C ascending, then the loop off before
    on.  The counts on 0-6 worlds are 1, 2, 8, 39, 242, 1895 and 19051.

    A level is memoised for the process, as :func:`_schema_program` is,
    and built whole before a search sweeps its first frame: on a 2-vCPU
    host the levels up to 5 worlds take about 0.07 s and the 6-world
    level 0.7 s, which a search that stops early inside that level pays
    in full.  The levels through 6 worlds keep about 2.2 MB; the 7-world
    level (246,895 classes, about 9 s) adds about 35 MB of resident
    memory.  A level whose build raises is not kept.
    """
    if n == 0:
        return ((),)
    m = n - 1  # the parents' worlds
    new = 1 << m
    shift = n.bit_length()  # a key packs (loop, out, in) into one int
    seen = set()
    grown = []
    for succ in _transitive_classes(m):
        pred = [0] * m
        for w, row in enumerate(succ):
            for v in _bits(row):
                pred[v] |= 1 << w
        down_sets = _closed_sets(pred)
        for s in _closed_sets(succ):
            sees_s = sum(1 << a for a in range(m) if not s & ~succ[a])
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
    return tuple(grown)


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


@lru_cache(maxsize=None)
def _first_map(succ: tuple[int, ...], strict: bool) -> tuple[tuple[int, ...], int]:
    """The relation's first (strictly) monotone map and its map count, all
    that a search of a formula without O reads of its maps; memoised for
    the process, so :func:`_monotone_maps` lists them once per class and
    strictness, and only for the classes a search reaches.  After O-free
    searches of K4C and K4I at 5 worlds, the classes and this memo keep
    about 1.5 MB."""
    maps = _monotone_maps(succ, strict)
    return maps[0], len(maps)


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
    swept over the chunks of :func:`_search_chunks`; the counts and the
    countermodel are those of one frame and valuation at a time.  ``stats``
    counts the relation classes enumerated, the frames and valuations
    swept, the evaluators built and ``worlds_covered``, the most worlds
    searched in full.  The bound is not what finishes: on a 2-vCPU host, as
    the first search in a process, ``[d]p -> [d][d]p`` takes about 0.011 s
    CPU in K4DC at 4 worlds (5,151 frames), 0.4-0.7 s in K4C at 5 worlds
    (409,952 frames) and 20 s at 6 (16,293,935 frames);
    ``<d>O p -> O <d>p``, which reads O, 0.7-1.2 s in K4I at 5 worlds
    (206,821 frames).  The relation classes, and the first map and map
    count of each class that a formula without O reaches, are kept for
    the process, so a repeated O-free search skips the enumeration: the
    K4C one at 5 worlds then takes about 0.02 s.
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
    ``max_worlds < 1``, or ``samples < 1`` past the world bound.  So does
    a `max_worlds` past the world bound and over ``MAX_DRAWN_WORLDS``,
    before the first draw.
    """
    if isinstance(logic, str):
        logic = LOGICS[logic]
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    if max_worlds <= EXHAUSTIVE_SEARCH_LIMIT:
        return _search_exhaustive(Program(phi), logic, max_worlds)
    _check_drawn_worlds(max_worlds)
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
    count, slots, weights) chunks of :func:`pass_layout` slots of one
    world count: a slot is a (relation, map) pair, and its weight is 1,
    or the relation's map count when not `every_map`, where the first map
    stands for all.  The world counts go up one memoised level of
    :func:`_transitive_classes` at a time, so a level ends where its
    classes do, and a formula without O reads each class's first map and
    map count from :func:`_first_map`.  The tally counts the relations
    and, once a world count's chunks are all taken, ``worlds_covered``."""
    for n in range(1, max_worlds + 1):
        if n * count > EXHAUSTIVE_BITS_LIMIT:
            raise ValueError(f"exhaustive search needs |worlds|*|vars| <= "
                             f"{EXHAUSTIVE_BITS_LIMIT}, got {n * count}")
        per = pass_layout(n * count)[0]
        slots, weights = [], []
        for succ in _transitive_classes(n):
            if logic.serial and not all(succ):
                continue
            tally["relations"] += 1
            if every_map:
                maps = _monotone_maps(succ, logic.strict)
                slots += [(succ, f) for f in maps]
                weights += [1] * len(maps)
            else:
                first, total = _first_map(succ, logic.strict)
                slots.append((succ, first))
                weights.append(total)
            while len(slots) >= per:
                yield n, slots[:per], weights[:per]
                del slots[:per], weights[:per]
        if slots:
            yield n, slots, weights
        tally["worlds_covered"] = n


def _search_exhaustive(program: Program, logic: Logic, max_worlds: int) -> SearchResult:
    count = len(program.variables)
    tally = Counter()
    for n, slots, weights in _search_chunks(logic, max_worlds, count, _reads_map(program), tally):
        worlds = [f"w{i}" for i in range(n)]
        bits = n * count
        checked, cm = sweep(program, exhaustive_passes(Frame(worlds, *slots[0]), count, slots))
        held, code = (len(slots), -1) if cm is None else sweep_position(bits, checked)
        covered, found = sum(weights[:held]), cm is not None
        tally.update(evaluators=1, frames_swept=held + found, valuations_swept=checked,
                     frames=covered + found, valuations=(covered << bits) + code + 1)
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
