"""Truth-set evaluation on models, with the tangle in closed form.

Every frame the package builds has a transitive relation
(:func:`~tanglemc.frame.validate_frame` and the generators), and on a
finite transitive frame the tangle of S_1..S_k holds exactly at the
worlds that see a reflexive cluster meeting every S_i (Fernandez-Duque,
"Tangled modal logic for spatial reasoning", 2011; Goldblatt and
Hodkinson, "Spatial logic of tangled closure operators and modal
mu-calculus", 2017).  So the engine computes it without iterating:
tangle(S_1..S_k) = down(clu(S_1) & ... & clu(S_k)), where clu is <d> of
the cluster relation R & R^-1, which on a transitive relation holds at w
exactly when w is reflexive and its cluster meets the set
(:func:`tangle_closed`).  The definition itself, the largest A with
A <= down(S_i & A) for every i, stays as :func:`tangle_fixpoint`, the
decreasing iteration A_0 = W, A_{j+1} = A_j & AND_i down(S_i & A_j); the
two agree only on transitive relations.  Two more oracles are kept
alongside: a literal union over all subsets (exponential, guarded), and
a characterisation through reflexive clusters meeting every S_i.

A formula is compiled once, without a frame, into a :class:`Program`:
one instruction per distinct node object, in post-order, so a subformula
shared by object (as :func:`~tanglemc.formula.parse` shares equal ones)
is evaluated once per run, tangles included.  An evaluator binds a
program to its frame without walking it, and a run evaluates a block of
``lanes`` models at once.  Truth on a disjoint union of frames is truth on
each part, so one run on a union checks all of its parts.

A truth set is one int of ``n * lanes`` bits grouped by world: world w
owns bits ``[w*lanes, (w+1)*lanes)``, one bit per lane, so one lane is
the plain world mask.  The lanes fall into slots of equal width, fixed
when the evaluator is made, each a frame of its own on the evaluator's
worlds: a relation and a map (by default one slot holds the frame's
own).  So one run checks many frames of one world count, which is truth
on their disjoint union.  O is a distance step at every lane count:
world w reads the group of world w + d through one mask, shift and OR
per distance d = f(w) - w of a slot's map.  <d> is the frame's
``down_mask`` when one lane holds the frame's own relation, and the same
steps over the distances of each slot's relation pairs otherwise; clu is
the frame's clusters in the first case and the steps of the cluster
pairs, read off the <d> steps, in the second.

Validity is one loop, :func:`sweep`, over passes of lanes from one of two
generators, and keeps the canonical order of a one-valuation-at-a-time
loop: :func:`exhaustive_passes` counts valuation codes upwards on each
of several frames in turn, one slot each, and :func:`sampled_passes`
draws from the seed in the same order.  The first failing lane of the
first failing pass is the reported countermodel, and the count of lanes
up to it names the slot and the valuation that come first in (slot,
valuation code) order.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import lru_cache, partial

from .formula import (
    And,
    Box,
    Diamond,
    Formula,
    Implies,
    Neg,
    Next,
    Or,
    RESERVED_VAR,
    Tangle,
    Var,
)
from .frame import Frame, _bits
from .record import record

EXHAUSTIVE_BITS_LIMIT = 24

_BLOCK_BITS = 12  # an exhaustive block holds 2^12 valuation codes
_FIRST_SAMPLES = 64  # a 64-lane pass costs about as much as one valuation
_MAX_LANES = 1 << _BLOCK_BITS
# the bits a packed block's <d> and O distance masks may take (64 KiB), past
# which a sampled block runs one lane per pass: 2,000 samples on 10
# class-frame worlds take at most 371k bits, 500 layered worlds 549k at two
# lanes, and a 1000-world star 64M bits at 64 lanes, 152 MB and 10x one
# lane's time.  A program with a tangle also binds one clu mask per
# distance of a cluster pair, which is a distance of the relation too, so
# its clu masks take at most the bits of its <d> masks and its block at
# most twice the limit (128 KiB); the star has no cluster pair, so its
# 152 MB stands.  The limit sets pass widths only, never the draws, so
# reports do not depend on it
PACKED_BITS_LIMIT = 1 << 19


class Model:
    """A frame plus a valuation; variables absent from the mapping denote the empty set."""

    __slots__ = ("frame", "valuation", "_masks")

    def __init__(self, frame: Frame, valuation: Mapping[str, Iterable[str]] | None = None):
        self.frame = frame
        self.valuation = {p: frozenset(names) for p, names in (valuation or {}).items()}
        self._masks = {p: frame.mask(names) for p, names in self.valuation.items()}


def tangle_fixpoint(
    down: Callable[[int], int], full: int, masks: Sequence[int]
) -> tuple[int, int]:
    """Greatest fixed point of A -> A & AND_i down(S_i & A), with step count."""
    a = full
    steps = 0
    while True:
        new = a
        for m in masks:
            new &= down(m & a)
            if not new:
                break
        if new == a:
            return a, steps
        a = new
        steps += 1


def tangle_closed(down: Callable[[int], int], cluster: Callable[[int], int],
                  masks: Sequence[int]) -> int:
    """The tangle of the sets `masks` in closed form: ``down`` of the meet
    of their ``cluster`` images, stopping at an empty meet.  With `cluster`
    <d> of R & R^-1, on a transitive relation R the meet is the union of
    the reflexive clusters that meet every set, and its ``down`` is the
    greatest fixed point that :func:`tangle_fixpoint` iterates to; on
    other relations the two may differ."""
    meet = -1
    for m in masks:
        meet &= cluster(m)
        if not meet:
            return 0
    return down(meet)


def _move(mask: int, steps: Sequence[tuple[int, int]]) -> int:
    """A packed operator as distance steps: for each (d * lanes, m), the
    lanes that m selects in the group of each world v move to world v - d."""
    out = 0
    for k, m in steps:
        out |= (mask & m) >> k if k >= 0 else (mask & m) << -k
    return out


def _cluster_steps(steps: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The distance steps of clu from those of <d>: <d>'s step (d * lanes,
    m) selects at world v the lanes where v - d sees v, and its step -d,
    shifted up by d worlds, those where v sees v - d; their meet is the
    step of the cluster pairs at distance d."""
    by_shift = dict(steps)
    out = []
    for k, m in steps:
        back = by_shift.get(-k)
        if back is not None:
            m &= back << k if k >= 0 else back >> -k
            if m:
                out.append((k, m))
    return tuple(out)


def _reflexive_clusters(frame: Frame) -> tuple[int, ...]:
    """The masks of the reflexive clusters of a frame whose relation is
    transitive, one step per row class: worlds that see each other have
    one successor row, and the reflexive worlds of one row see each other,
    so each cluster is the members of a row class that lie in its row."""
    return tuple(c for row, members in frame._classes if (c := members & row))


def _union_meeting(mask: int, masks: Sequence[int]) -> int:
    """The union of the `masks` that meet `mask`."""
    out = 0
    for c in masks:
        if c & mask:
            out |= c
    return out


@record
class Countermodel:
    valuation: dict[str, tuple[str, ...]]
    world: str


@record
class Verdict:
    valid: bool
    mode: str
    checked: int
    countermodel: Countermodel | None = None
    seed: int | None = None


class Evaluator:
    """Compiles formulas against one frame; a call evaluates `lanes` models.

    A lane is a valuation on a frame of the frame's worlds: the lanes fall
    into ``len(slots)`` equal runs, the slots, and slot j holds
    ``slots[j]``, a pair (successor rows, map) on those worlds (by default
    one slot holds the frame's own relation and map).  The slots are
    placed here and never change, so one evaluator can check many frames
    of one world count at once, each against its own valuations.  O takes
    one distance step per distinct f(w) - w, at most ``2n - 1``; <d> is
    the frame's ``down_mask`` when one lane holds the frame's own
    relation, and otherwise a step per distance of a relation pair, each
    run of slots that share one relation taking that relation's pairs
    once.  A step's mask takes ``n * lanes`` bits.

    A tangle is :func:`tangle_closed`, which needs clu, <d> of the cluster
    relation R & R^-1: with one lane on the frame's own relation the union
    of the frame's reflexive clusters that meet the set, read from its row
    classes, and otherwise a step per distance of a cluster pair, read off
    the <d> steps.  Neither makes a pass over the relation's pairs.  clu
    is built on the first bind of a program with a tangle and kept, so a
    program without one pays nothing for it.  The closed form is the
    tangle only when every slot's relation is transitive, as that of every
    frame the package builds is.
    """

    def __init__(self, frame: Frame, lanes: int = 1,
                 slots: Sequence[tuple[Sequence[int], Sequence[int]]] | None = None):
        self.frame = frame
        self.lanes = lanes
        n = frame.n
        self.full = (1 << (n * lanes)) - 1
        if slots is None:
            slots = [(frame._succ, frame._func)]
        width = lanes // len(slots)
        self._down_steps = None
        if lanes > 1 or slots[0][0] != frame._succ:
            read = {}  # distance d -> the lanes of the worlds v that v - d sees
            start = 0
            for j, (rows, _) in enumerate(slots):
                if j + 1 < len(slots) and slots[j + 1][0] == rows:
                    continue  # the run of slots with one relation goes on
                run = ((1 << (j + 1 - start) * width) - 1) << (start * width)
                start = j + 1
                for w, row in enumerate(rows):
                    for v in _bits(row):
                        read[v - w] = read.get(v - w, 0) | run << (v * lanes)
            self._down_steps = tuple((d * lanes, m) for d, m in read.items())
        slot = (1 << width) - 1
        images = {}  # w * n + v -> the lanes of the slots whose map sends w to v
        for j, (_, func) in enumerate(slots):
            run = slot << (j * width)
            for w, v in enumerate(func):
                images[w * n + v] = images.get(w * n + v, 0) | run
        read = {}
        for k, run in images.items():
            w, v = divmod(k, n)
            read[v - w] = read.get(v - w, 0) | run << (v * lanes)
        self._pre_steps = tuple((d * lanes, m) for d, m in read.items())
        self._clusters = None  # clu's steps or reflexive clusters, made on first use

    # chosen per call, not stored: a bound method of itself kept on the
    # evaluator would make it a reference cycle, alive until a collection
    @property
    def down(self) -> Callable[[int], int]:
        """`<d>` on truth sets."""
        steps = self._down_steps
        return self.frame.down_mask if steps is None else partial(_move, steps=steps)

    @property
    def cluster(self) -> Callable[[int], int]:
        """clu on truth sets: the worlds w with a world v of the set such
        that w R v and v R w, which on a transitive relation are the
        reflexive worlds whose cluster meets the set (with one lane on the
        frame's own relation it reads the frame's clusters, and so needs
        the relation transitive)."""
        steps = self._down_steps
        if self._clusters is None:
            self._clusters = (_reflexive_clusters(self.frame) if steps is None
                              else _cluster_steps(steps))
        if steps is None:
            return partial(_union_meeting, masks=self._clusters)
        return partial(_move, steps=self._clusters)

    @property
    def preimage(self) -> Callable[[int], int]:
        """O on truth sets: the worlds whose image is in the set."""
        return partial(_move, steps=self._pre_steps)

    def _lane(self, mask: int, lane: int) -> int:
        """The world mask that one lane of a truth set holds."""
        lanes = self.lanes  # the binary digits run from world n - 1, lane lanes - 1
        return int(format(mask, f"0{self.frame.n * lanes}b")[lanes - 1 - lane::lanes], 2)

    def refutation(
        self, value: int, env: Mapping[str, int], variables: Sequence[str]
    ) -> tuple[int, Countermodel] | None:
        """The first lane where `value` misses a world, with that lane's
        valuation and its first missing world; None when `value` is full."""
        if value == self.full:
            return None
        missing = failing = self.full ^ value
        for w in range(1, self.frame.n):  # fold the world groups onto world 0's
            failing |= missing >> (w * self.lanes)
        lane = (failing & -failing).bit_length() - 1
        worlds = self._lane(missing, lane)
        frame = self.frame
        valuation = {
            v: tuple(frame.sorted_names(self._lane(env[v], lane))) for v in variables
        }
        world = frame.worlds[(worlds & -worlds).bit_length() - 1]
        return lane, Countermodel(valuation, world)

    def compile(self, phi: Formula | Program) -> Callable[[Mapping[str, int]], int]:
        """A function from an environment (variable -> truth set) to phi's
        truth set: phi's :class:`Program` (made here from a formula) bound
        to this evaluator's ``down``, ``preimage`` and ``full``, and to its
        ``cluster`` when the program holds a tangle.  The bind walks
        nothing, so a program made once can be bound to many frames."""
        program = phi if isinstance(phi, Program) else Program(phi)
        run = program.run
        down, pre, full = self.down, self.preimage, self.full
        clu = self.cluster if program.tangled else None
        return lambda env: run(env, down, pre, full, clu)


def _emit(phi: Formula, code: list, at: dict[int, int], names: set[str]) -> int:
    """Append the instructions of phi's distinct node objects missing from
    `at` (id -> index), children first, and give phi's index.  An
    instruction is (node type, a, b): a variable's name, the child indices
    of a unary or binary node, or a tangle's tuple of argument indices."""
    k = at.get(id(phi))
    if k is None:
        kind = type(phi)
        if kind is Var:
            names.add(phi.name)
            ins = (Var, phi.name, None)
        elif kind in (Neg, Diamond, Box, Next):
            ins = (kind, _emit(phi.child, code, at, names), None)
        elif kind in (And, Or, Implies):
            ins = (kind, _emit(phi.left, code, at, names), _emit(phi.right, code, at, names))
        elif kind is Tangle:
            ins = (Tangle, tuple([_emit(a, code, at, names) for a in phi.args]), None)
        else:
            raise TypeError(f"not a formula: {phi!r}")
        k = at[id(phi)] = len(code)
        code.append(ins)
    return k


class Program:
    """A formula compiled without a frame: one instruction per distinct node
    object, in post-order, the sorted variables it reads but the reserved
    one, and whether it holds a tangle.  A run fills one value per
    instruction, so a subformula shared by object is evaluated once; a
    tangle is :func:`tangle_closed` of `down` and `clu`, which a program
    without one never calls."""

    __slots__ = ("code", "variables", "tangled")

    def __init__(self, phi: Formula):
        code, names = [], set()
        _emit(phi, code, {}, names)
        self.code = tuple(code)
        self.variables = tuple(sorted(names - {RESERVED_VAR}))
        self.tangled = any(op is Tangle for op, _, _ in self.code)

    def run(self, env: Mapping[str, int], down: Callable[[int], int],
            pre: Callable[[int], int], full: int,
            clu: Callable[[int], int] | None) -> int:
        vals: list[int] = []
        push = vals.append
        for op, a, b in self.code:
            if op is Var:
                push(env.get(a, 0))
            elif op is And:
                push(vals[a] & vals[b])
            elif op is Or:
                push(vals[a] | vals[b])
            elif op is Implies:
                push((full ^ vals[a]) | vals[b])
            elif op is Neg:
                push(full ^ vals[a])
            elif op is Diamond:
                push(down(vals[a]))
            elif op is Box:
                push(full ^ down(full ^ vals[a]))
            elif op is Next:
                push(pre(vals[a]))
            else:
                push(tangle_closed(down, clu, [vals[k] for k in a]))
        return vals[-1]


def truth_set(model: Model, phi: Formula) -> frozenset[str]:
    """Worlds where phi holds in the model: one lane of an
    :class:`Evaluator`, so a tangle takes the closed form, which needs the
    frame's relation transitive, as that of every frame the package
    builds is."""
    return model.frame.names(Evaluator(model.frame).compile(phi)(model._masks))


def _set_masks(frame: Frame, sets: Sequence[Iterable[str]]) -> list[int]:
    if not sets:
        raise ValueError("tangle requires a nonempty list of sets")
    return [frame.mask(s) for s in sets]


def tangled_oracle_subsets(frame: Frame, sets: Sequence[Iterable[str]]) -> frozenset[str]:
    """Literal definition: union of all subsets A in which every set is dense."""
    if frame.n > 20:
        raise ValueError("subset oracle limited to 20 worlds")
    masks = _set_masks(frame, sets)
    down = frame.down_mask
    union = 0
    for a in range(1 << frame.n):
        if all(not (a & ~down(m & a)) for m in masks):
            union |= a
    return frame.names(union)


def tangled_oracle_clusters(frame: Frame, sets: Sequence[Iterable[str]]) -> frozenset[str]:
    """Characterisation on finite frames: worlds below a reflexive cluster
    that meets every set (reflexive closure on the reaching world)."""
    masks = _set_masks(frame, sets)
    out = 0
    for c in frame.cluster_masks():
        rep = next(_bits(c))
        if not frame.is_reflexive(rep):
            continue
        if any(not (c & m) for m in masks):
            continue
        reach = c
        for v in _bits(c):
            reach |= frame.pred_mask(v)
        out |= reach
    return frame.names(out)


@lru_cache(maxsize=64)
def _block_layout(n: int, count: int, lane_bits: int, slots: int):
    """What :func:`_exhaustive_blocks` needs: the lane patterns of the low
    code bits per variable, and (variable, world group) of each high bit."""
    lanes = slots << lane_bits
    group = (1 << lanes) - 1
    base = [0] * count
    high = []
    for b in range(n * count):
        i, w = divmod(b, n)
        if b < lane_bits:
            # bit b of the lane number, which is bit b of the code in every
            # slot: runs of 2^b clear lanes, then 2^b set
            run = 1 << b
            pattern = group // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
            base[i] |= pattern << (w * lanes)
        else:
            high.append((i, group << (w * lanes)))
    return tuple(base), tuple(high)


def _exhaustive_blocks(n: int, count: int, lane_bits: int, slots: int):
    """Lane-packed masks of `count` variables, one list per block of
    2^lane_bits valuation codes in ascending order, repeated in each of
    `slots` slots.  Bit i*n + w of a code puts world w in variable i:
    below `lane_bits` it is a fixed pattern across the lanes, above it
    all-ones or zero for the whole block."""
    base, high = _block_layout(n, count, lane_bits, slots)
    for block in range(1 << len(high)):
        masks = list(base)
        for j, (i, m) in enumerate(high):
            if block >> j & 1:
                masks[i] |= m
        yield masks


# _BIT_CHARS[i] maps a byte to b"1" when its bit i is set, else to b"0"
_BIT_CHARS = [(b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8)]


def _sample_block(rng: random.Random, n: int, count: int, lanes: int) -> list[int]:
    """Lane-packed masks of `count` variables for `lanes` valuations, drawn
    as `lanes` rounds of one ``rng.getrandbits(n)`` per variable would be."""
    if lanes == 1:
        return [rng.getrandbits(n) for _ in range(count)]
    # getrandbits fills 32-bit words from the low end and keeps the top bits
    # of a draw's last word, so one wide draw holds all the narrow ones
    words = (n + 31) // 32
    stride = 4 * words * count
    raw = rng.getrandbits(8 * stride * lanes).to_bytes(stride * lanes, "little")
    last = 32 * (words - 1)
    masks = []
    for i in range(count):
        digits = []
        for w in reversed(range(n)):
            pos = w + 32 * words - n if w >= last else w
            column = raw[4 * words * i + pos // 8::stride]
            digits.append(column.translate(_BIT_CHARS[pos % 8])[::-1])
        masks.append(int(b"".join(digits), 2))
    return masks


def _mask_bits(frame: Frame) -> int:
    """The bits a lane of a packed evaluator's distance masks takes on the
    frame: n per distance v - w of a pair (w, v) and per f(w) - w."""
    n = frame.n
    rel = fun = 0  # bit d + n - 1 stands for distance d
    for w in range(n):
        rel |= frame.succ_mask(w) << (n - 1 - w)
        fun |= 1 << (frame.func_index(w) - w + n - 1)
    return (rel.bit_count() + fun.bit_count()) * n


def _sample_widths(samples: int, bits: int):
    """The lanes of each block of a sampled sweep of `samples` valuations,
    with distance masks of `bits` bits a lane: as many as checked so far,
    64 to 4096, or one where they would pass ``PACKED_BITS_LIMIT``."""
    checked = 0
    while checked < samples:
        lanes = min(max(checked, _FIRST_SAMPLES), _MAX_LANES, samples - checked)
        if lanes * bits > PACKED_BITS_LIMIT:
            lanes = 1
        yield lanes
        checked += lanes


def pass_layout(bits: int) -> tuple[int, int]:
    """(slots a chunk, lane bits a slot) of :func:`exhaustive_passes` for
    `bits`-bit valuation codes: 2^(12 - bits) slots of 2^bits lanes, or
    past 12 bits one slot whose codes take 2^(bits - 12) passes."""
    lane_bits = min(bits, _BLOCK_BITS)
    return 1 << (_BLOCK_BITS - lane_bits), lane_bits


def exhaustive_passes(frame: Frame, count: int,
                      slots: Sequence[tuple[Sequence[int], Sequence[int]]]):
    """The passes of every valuation of `count` variables on each frame of
    `slots`, (relation, map) pairs on the frame's worlds, slots outermost
    and valuation codes ascending: (evaluator, masks) pairs for
    :func:`sweep`.

    The slots go in chunks of :func:`pass_layout`, one evaluator a chunk;
    the last chunk holds only the slots left.  A pass covers
    2^min(bits, 12) codes in each slot, and the lanes run in (slot,
    valuation code) order, so valuation k of slot i is lane
    ``(i << bits) + k`` of the sweep."""
    n = frame.n
    per, lane_bits = pass_layout(n * count)
    for first in range(0, len(slots), per):
        chunk = slots[first:first + per]
        ev = Evaluator(frame, len(chunk) << lane_bits, chunk)
        for masks in _exhaustive_blocks(n, count, lane_bits, len(chunk)):
            yield ev, masks


def sampled_passes(frame: Frame, count: int, rng: random.Random, samples: int):
    """The passes of `samples` valuations of `count` variables drawn from
    `rng`, each one ``rng.getrandbits(n)`` per variable in order: as many
    lanes a pass as have been checked so far, at least 64 and at most 4096,
    or one lane when its distance masks would take more than
    ``PACKED_BITS_LIMIT`` bits.  A pass is drawn only when it is asked for,
    so a sweep that stops early leaves the rest of `rng` untouched, and
    the draws do not depend on the passes."""
    ev = None
    for lanes in _sample_widths(samples, _mask_bits(frame)):
        if ev is None or ev.lanes != lanes:
            ev = Evaluator(frame, lanes)
        yield ev, _sample_block(rng, frame.n, count, lanes)


def sweep(program: Program, passes) -> tuple[int, Countermodel | None]:
    """Run a program on each pass of `passes`, (evaluator, masks of the
    program's variables) pairs, binding it once per evaluator, up to the
    first pass with a failing lane.  Returns the number of lanes checked up
    to and including the first failing one, and its refutation; all lanes
    and None when the program holds on every lane."""
    variables = program.variables
    checked = 0
    bound = None
    for ev, masks in passes:
        if ev is not bound:
            bound, fn = ev, ev.compile(program)
        env = dict(zip(variables, masks))
        hit = ev.refutation(fn(env), env, variables)
        if hit is not None:
            return checked + hit[0] + 1, hit[1]
        checked += ev.lanes
    return checked, None


def valid_on_frame(
    frame: Frame,
    phi: Formula | Program,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
) -> Verdict:
    """Check validity of phi over valuations of the frame: one
    :func:`sweep` of the passes of the mode.

    Exhaustive mode covers all valuations of the variables of phi (guarded
    by ``|worlds| * |vars| <= 24``) in ascending valuation-code order
    (:func:`exhaustive_passes` with the frame's own map); sampled mode
    draws `samples` pseudo-random valuations from the seed
    (:func:`sampled_passes`).  Passes do not change the order: the first
    failing (valuation, world) in it is reported, with the count of
    valuations up to it, exactly as a sweep of one valuation at a time
    would report it.  phi may be given as its :class:`Program`, which is
    then not made again.
    """
    program = phi if isinstance(phi, Program) else Program(phi)
    count = len(program.variables)
    if mode == "exhaustive":
        if frame.n * count > EXHAUSTIVE_BITS_LIMIT:
            raise ValueError(f"exhaustive validity needs |worlds|*|vars| <= "
                             f"{EXHAUSTIVE_BITS_LIMIT}, got {frame.n * count}")
        checked, cm = sweep(program, exhaustive_passes(frame, count, [(frame._succ, frame._func)]))
        return Verdict(cm is None, mode, checked, cm)
    if mode == "sampled":
        if samples < 1:
            raise ValueError("samples must be >= 1")
        checked, cm = sweep(program, sampled_passes(frame, count, random.Random(seed), samples))
        return Verdict(cm is None, mode, checked, cm, seed=seed)
    raise ValueError(f"unknown mode {mode!r}")
