"""Truth-set evaluation on models, with the tangle as a greatest fixed point.

The tangle of a list of sets S_1..S_k is the largest A with
A <= down(S_i & A) for every i, computed by the decreasing iteration
A_0 = W, A_{j+1} = A_j & AND_i down(S_i & A_j), which reaches the fixed
point after at most |W| shrinking steps.  Two independent oracles are kept
alongside: a literal union over all subsets (exponential, guarded), and a
characterisation through reflexive clusters meeting every S_i.

A formula is compiled once, without a frame, into a :class:`Program`:
one instruction per distinct node object, in post-order, each reading its
children's values, so a subformula shared by object (as
:func:`~tanglemc.formula.parse` shares equal ones) is evaluated once per
run, tangles included.  An evaluator binds a program to its frame without
walking it, and a run evaluates a block of ``lanes`` models at once.  A
program may read variables as other programs' values, which evaluates a
substitution instance without building it.

A truth set is one int of ``n * lanes`` bits grouped by world: world w
owns bits ``[w*lanes, (w+1)*lanes)``, one bit per lane.  With one lane
this is the plain world mask, and <d> is the frame's ``down_mask``: an OR
of predecessor masks or of row-class member masks, whichever loop is
shorter.  With more lanes, <d> ORs the lane
groups of each row class's successors once and gives the result to every
world of the class, and O takes each world's bits from the group of its
image.  The lanes fall into map slots of equal width, each with its own
map on the frame's relation; by default one slot holds the frame's own
map.  The Boolean connectives stay single int operations, and the tangle
is the same fixed-point loop run on the packed ints, where every lane
converges on its own.

Validity sweeps run in blocks of lanes and keep the canonical order of a
one-valuation-at-a-time loop: exhaustive mode counts valuation codes
upwards, sampled mode draws from the seed in the same order, and the first
failing lane of the first failing block is the reported countermodel.  The
exhaustive sweep also takes several maps of one relation, relation-major:
each slot runs the same valuation codes under its map, so a pass covers as
many maps as fit in 2^12 lanes, and the lowest failing lane names the map
and the valuation that come first in (map, valuation code) order.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Mapping, Sequence
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

    Truth sets are ints of ``n * lanes`` bits grouped by world: world w owns
    bits ``[w*lanes, (w+1)*lanes)``, one bit per lane.  A lane is a
    valuation under a map: :meth:`place_maps` splits the lanes into map
    slots, and O reads each slot's own map.  Until then one slot holds the
    frame's map; with one lane O always reads it, on sparse masks.
    """

    def __init__(self, frame: Frame, lanes: int = 1):
        self.frame = frame
        self.lanes = lanes
        n = frame.n
        self.full = (1 << (n * lanes)) - 1
        self._group = (1 << lanes) - 1
        self._func = [frame.func_index(w) for w in range(n)]
        if lanes == 1:
            inv = [0] * n
            for w, fw in enumerate(self._func):
                inv[fw] |= 1 << w
            self._inv = inv
        else:
            classes = frame.row_classes()
            self._rows = [tuple(_bits(row)) for row, _ in classes]
            number = {row: c for c, (row, _) in enumerate(classes)}
            # last world first, as the fold in _down_lanes runs
            self._class_of = [number[frame.succ_mask(w)] for w in reversed(range(n))]
            self.place_maps([self._func])

    # chosen per call, not stored: a bound method of itself kept on the
    # evaluator would make it a reference cycle, alive until a collection
    @property
    def down(self) -> Callable[[int], int]:
        """`<d>` on truth sets."""
        return self.frame.down_mask if self.lanes == 1 else self._down_lanes

    @property
    def preimage(self) -> Callable[[int], int]:
        """O on truth sets: the worlds whose image is in the set."""
        return self._preimage_sparse if self.lanes == 1 else self._preimage_lanes

    def place_maps(self, maps: Sequence[Sequence[int]]) -> None:
        """Split the lanes into ``len(maps)`` equal runs, the map slots, and
        let O read ``maps[j]`` in slot j (more than one lane only)."""
        n = self.frame.n
        width = self.lanes // len(maps)
        slot = (1 << width) - 1
        images = [[0] * n for _ in range(n)]
        for j, func in enumerate(maps):
            lanes = slot << (j * width)
            for w, v in enumerate(func):
                images[w][v] |= lanes
        self._images = [[(v, m) for v, m in enumerate(row) if m] for row in images]

    def _preimage_sparse(self, mask: int) -> int:
        out = 0
        inv = self._inv
        for v in _bits(mask):
            out |= inv[v]
        return out

    def _groups(self, mask: int) -> list[int]:
        lanes, group = self.lanes, self._group
        return [(mask >> (w * lanes)) & group for w in range(self.frame.n)]

    def _down_lanes(self, mask: int) -> int:
        """Each world gets the OR of its successors' lane groups, computed
        once per row class."""
        groups = self._groups(mask)
        lanes = self.lanes
        accs = []
        for row in self._rows:
            acc = 0
            for v in row:
                acc |= groups[v]
            accs.append(acc)
        out = 0
        for c in self._class_of:
            out = (out << lanes) | accs[c]
        return out

    def _preimage_lanes(self, mask: int) -> int:
        """Each world gets, in every map slot, the lanes of its image's group
        under that slot's map: n^2 steps at most, whatever the map count."""
        groups = self._groups(mask)
        lanes = self.lanes
        out = 0
        for images in reversed(self._images):
            acc = 0
            for v, slots in images:
                acc |= groups[v] & slots
            out = (out << lanes) | acc
        return out

    def _lane(self, mask: int, lane: int) -> int:
        """The world mask that one lane of a truth set holds."""
        out = 0
        for w, g in enumerate(self._groups(mask)):
            out |= (g >> lane & 1) << w
        return out

    def refutation(
        self, value: int, env: Mapping[str, int], variables: Sequence[str]
    ) -> tuple[int, Countermodel] | None:
        """The first lane where `value` misses a world, with that lane's
        valuation and its first missing world; None when `value` is full."""
        if value == self.full:
            return None
        missing = self.full ^ value
        failing = 0
        for g in self._groups(missing):
            failing |= g
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
        to this evaluator's ``down``, ``preimage`` and ``full``.  The bind
        walks nothing, so a program made once can be bound to many frames."""
        run = (phi if isinstance(phi, Program) else Program(phi)).run
        down, pre, full = self.down, self.preimage, self.full
        return lambda env: run(env, down, pre, full)


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
    object, in post-order, and the sorted variables it reads but the
    reserved one.  A run fills one value per instruction, so a subformula
    shared by object is evaluated once.  :meth:`substitute` reads variables
    as other programs' values: by the substitution lemma, [[phi[psi/A]]] is
    [[phi]] with A read as [[psi]], for every connective here."""

    __slots__ = ("code", "variables", "slots")

    def __init__(self, phi: Formula):
        code, names = [], set()
        _emit(phi, code, {}, names)
        self.code, self.slots = tuple(code), ()
        self.variables = tuple(sorted(names - {RESERVED_VAR}))

    def substitute(self, slots: Mapping[str, Program]) -> Program:
        """This program with each variable named in `slots` read as the
        value of its program, on the same environment."""
        out = object.__new__(Program)
        names = set(self.variables).difference(slots).union(*[p.variables for p in slots.values()])
        out.code, out.variables, out.slots = self.code, tuple(sorted(names)), tuple(slots.items())
        return out

    def run(self, env: Mapping[str, int], down: Callable[[int], int],
            pre: Callable[[int], int], full: int) -> int:
        if self.slots:
            env = {**env, **{a: p.run(env, down, pre, full) for a, p in self.slots}}
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
                push(tangle_fixpoint(down, full, [vals[k] for k in a])[0])
        return vals[-1]


def truth_set(model: Model, phi: Formula) -> frozenset[str]:
    """Worlds where phi holds in the model."""
    return model.frame.names(Evaluator(model.frame).compile(phi)(model._masks))


def _set_masks(frame: Frame, sets: Sequence[Iterable[str]]) -> list[int]:
    if not sets:
        raise ValueError("tangle requires a nonempty list of sets")
    return [frame.mask(s) for s in sets]


def tangled_derivative(frame: Frame, sets: Sequence[Iterable[str]]) -> frozenset[str]:
    """Largest A such that every given set is dense in A (fixed-point iteration)."""
    masks = _set_masks(frame, sets)
    out, _ = tangle_fixpoint(frame.down_mask, frame.full_mask, masks)
    return frame.names(out)


def tangle_iterations(frame: Frame, sets: Sequence[Iterable[str]]) -> int:
    masks = _set_masks(frame, sets)
    return tangle_fixpoint(frame.down_mask, frame.full_mask, masks)[1]


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
    `slots` map slots.  Bit i*n + w of a code puts world w in variable i:
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


def _evaluator(frame: Frame, lanes: int, evaluators: dict[int, Evaluator] | None) -> Evaluator:
    """An evaluator of `lanes` lanes on the frame, with the frame's own map:
    the one `evaluators` keeps for that lane count, made on first use, or a
    new one when `evaluators` is None."""
    if evaluators is None:
        return Evaluator(frame, lanes)
    ev = evaluators.get(lanes)
    if ev is None:
        ev = evaluators[lanes] = Evaluator(frame, lanes)
    return ev


def exhaustive_sweep(
    frame: Frame, program: Program,
    maps: Sequence[Sequence[int]] | None = None,
    evaluators: dict[int, Evaluator] | None = None,
) -> tuple[int, int | None, Countermodel | None]:
    """Evaluate a program under every valuation of its variables and every
    map of `maps` on the frame's relation, maps outermost and valuation
    codes ascending.  `maps` defaults to the
    frame's own map, which must be ``maps[0]`` when they are given.

    A pass is one evaluator call on 2^min(bits, 12) codes in each of as
    many map slots as fit in 2^12 lanes; past 12 bits a pass holds one map
    and its codes take 2^(bits - 12) passes.  The first failing lane of the
    first failing pass is the first refutation in that order.  Returns the
    number of valuations checked up to and including it, the index of its
    map and the refutation (None twice when it holds under every map).
    `evaluators` is as in :func:`sampled_sweep`; it is not used when `maps`
    are given, since they are placed in the evaluator's slots.
    """
    variables = program.variables
    n, count = frame.n, len(variables)
    bits = n * count
    lane_bits = min(bits, _BLOCK_BITS)
    total = 1 if maps is None else len(maps)
    slots = min(total, 1 << (_BLOCK_BITS - lane_bits))
    ev = _evaluator(frame, slots << lane_bits, evaluators if maps is None else None)
    fn = ev.compile(program)
    for first in range(0, total, slots):
        if total > 1:
            chunk = maps[first:first + slots]
            # a short last chunk repeats its last map: a repeat fails only
            # after the lanes of its original, so it never reports first
            ev.place_maps(chunk + chunk[-1:] * (slots - len(chunk)))
        for block, masks in enumerate(_exhaustive_blocks(n, count, lane_bits, slots)):
            env = dict(zip(variables, masks))
            hit = ev.refutation(fn(env), env, variables)
            if hit is not None:
                slot, code = divmod(hit[0], 1 << lane_bits)
                index = first + slot
                return (index << bits) + (block << lane_bits) + code + 1, index, hit[1]
    return total << bits, None, None


def sampled_sweep(
    frame: Frame, program: Program, rng: random.Random,
    samples: int, evaluators: dict[int, Evaluator] | None = None,
) -> tuple[int, Countermodel | None]:
    """Evaluate a program under `samples` valuations drawn from `rng`, each
    one ``rng.getrandbits(n)`` per variable of the program in order.  A block
    holds as many lanes as have been checked so far, at least 64 and at
    most 4096.  A block whose lanes times twice the worlds fall short of
    the relation pairs is evaluated one lane per pass.  The rule was set
    when a packed <d> took a step per relation pair and a one-lane <d> one
    per world of its argument; on frames with shared rows, row classes make
    both cheaper, and the rule has not been measured again since.
    An evaluator depends only on the frame and its lane count, so sweeps
    of several programs on one frame can share them: `evaluators` maps a
    lane count to the evaluator to use, and an evaluator this sweep makes
    is added to it.  Without it every sweep makes its own.
    Returns what :func:`exhaustive_sweep` returns, without the map index."""
    variables, n = program.variables, frame.n
    pairs = sum(row.bit_count() * members.bit_count() for row, members in frame.row_classes())
    checked = 0
    ev = None
    while checked < samples:
        lanes = min(max(checked, _FIRST_SAMPLES), _MAX_LANES, samples - checked)
        if 2 * lanes * n < pairs:
            lanes = 1
        if ev is None or ev.lanes != lanes:
            ev = _evaluator(frame, lanes, evaluators)
            fn = ev.compile(program)
        env = dict(zip(variables, _sample_block(rng, n, len(variables), lanes)))
        hit = ev.refutation(fn(env), env, variables)
        if hit is not None:
            return checked + hit[0] + 1, hit[1]
        checked += lanes
    return checked, None


def valid_on_frame(
    frame: Frame,
    phi: Formula | Program,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
    evaluators: dict[int, Evaluator] | None = None,
) -> Verdict:
    """Check validity of phi over valuations of the frame.

    Exhaustive mode covers all valuations of the variables of phi (guarded
    by ``|worlds| * |vars| <= 24``) in ascending valuation-code order, in
    blocks of 2^min(bits, 12) lanes; sampled mode draws `samples`
    pseudo-random valuations from the seed, in blocks of 64 lanes growing
    to 4096 (one lane per pass where the relation is too dense for packed
    <d> to pay off).  Blocks do not change the order: the first failing
    (valuation, world) in it is reported, with the count of valuations up
    to it, exactly as a sweep of one valuation at a time would report it.
    `evaluators` goes to the sweep: callers that check several formulas on
    one frame pass the same dict to share one evaluator per lane count
    (see :func:`sampled_sweep`); it must hold evaluators of this frame only.
    phi may be given as its :class:`Program`, which is then not made again.
    """
    program = phi if isinstance(phi, Program) else Program(phi)
    if mode == "exhaustive":
        bits = frame.n * len(program.variables)
        if bits > EXHAUSTIVE_BITS_LIMIT:
            raise ValueError(
                f"exhaustive validity needs |worlds|*|vars| <= {EXHAUSTIVE_BITS_LIMIT}, got {bits}"
            )
        checked, _, cm = exhaustive_sweep(frame, program, evaluators=evaluators)
        return Verdict(cm is None, mode, checked, cm)
    if mode == "sampled":
        if samples < 1:
            raise ValueError("samples must be >= 1")
        rng = random.Random(seed)
        checked, cm = sampled_sweep(frame, program, rng, samples, evaluators)
        return Verdict(cm is None, mode, checked, cm, seed=seed)
    raise ValueError(f"unknown mode {mode!r}")
