"""Finite dynamic Kripke frames: a transitive relation plus a total map.

Worlds are opaque strings; the declared order is the canonical order used
for deterministic tie-breaking everywhere downstream.  World sets are
represented as bit masks over that order, which keeps the fixed-point and
valuation-enumeration loops cheap.  Reflexive loops are stored explicitly
in the relation; the reflexive closure is always computed, never stored.
Frames are immutable after construction.

On a finite frame the derivative <d>A is the set of worlds with a
successor in A, so <d>, the predecessor masks and the transitivity check
depend on a world's successor row alone.  A frame groups its worlds into
row classes, one per distinct successor row, and computes these once per
class instead of once per world: layered frames of a thousand worlds have
a handful of rows (the quotient by equal rows is the first step of Paige
and Tarjan's partition refinement).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .record import record


class FrameError(ValueError):
    pass


@record
class ClassFlags:
    transitive: bool
    serial: bool
    monotonic: bool
    strictly_monotonic: bool


def _bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


class Frame:
    """Immutable frame; build via :func:`validate_frame` or the generators.

    The relation must be transitive.  The constructor does not check it,
    but every builder of the package gives a transitive relation, and the
    tangle of :mod:`~tanglemc.semantics`, computed in closed form from the
    reflexive clusters, is the tangle only on a transitive relation.

    Besides the successor and predecessor masks a frame keeps its row
    classes: ``(row, members)`` pairs, one per distinct successor row in
    order of first occurrence, where ``members`` is the mask of the worlds
    with that row.  :meth:`down_mask` ORs the member masks of the classes
    whose row meets its argument, or the predecessor masks of the
    argument's worlds when it has fewer worlds than the frame has classes,
    so it takes min(|mask|, classes) steps.
    """

    __slots__ = ("worlds", "_index", "_succ", "_pred", "_classes", "_func", "full_mask")

    def __init__(self, worlds: Sequence[str], succ: Sequence[int], func: Sequence[int]):
        ws = tuple(worlds)
        succ = tuple(succ)
        members: dict[int, int] = {}
        bit = 1
        for row in succ:
            members[row] = members.get(row, 0) | bit
            bit <<= 1
        classes = tuple(members.items())
        pred = [0] * len(ws)
        for row, m in classes:
            while row:  # _bits inlined: frames are built per relation in a search
                lsb = row & -row
                pred[lsb.bit_length() - 1] |= m
                row ^= lsb
        object.__setattr__(self, "worlds", ws)
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(ws)})
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_pred", tuple(pred))
        object.__setattr__(self, "_classes", classes)
        object.__setattr__(self, "_func", tuple(func))
        object.__setattr__(self, "full_mask", (1 << len(ws)) - 1)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("frames are immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Frame)
            and self.worlds == other.worlds
            and self._succ == other._succ
            and self._func == other._func
        )

    def __hash__(self):
        return hash((self.worlds, self._succ, self._func))

    def __repr__(self):
        return f"Frame(worlds={list(self.worlds)!r})"

    # -- basic views -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.worlds)

    def index(self, world: str) -> int:
        try:
            return self._index[world]
        except KeyError:
            raise FrameError(f"unknown world {world!r}") from None

    def mask(self, names: Iterable[str]) -> int:
        m = 0
        for w in names:
            m |= 1 << self.index(w)
        return m

    def names(self, mask: int) -> frozenset[str]:
        return frozenset(self.worlds[i] for i in _bits(mask))

    def sorted_names(self, mask: int) -> list[str]:
        return [self.worlds[i] for i in _bits(mask)]

    def succ_mask(self, i: int) -> int:
        return self._succ[i]

    def pred_mask(self, i: int) -> int:
        return self._pred[i]

    def func_index(self, i: int) -> int:
        return self._func[i]

    def func_map(self) -> dict[str, str]:
        return {w: self.worlds[self._func[i]] for i, w in enumerate(self.worlds)}

    def with_identity_map(self) -> Frame:
        """This frame if its map is the identity, else the frame of the same
        worlds and relation with the identity map; that one shares this
        frame's masks instead of building them again."""
        identity = tuple(range(len(self.worlds)))
        if self._func == identity:
            return self
        twin = object.__new__(Frame)
        for name in Frame.__slots__:
            object.__setattr__(twin, name, getattr(self, name))
        object.__setattr__(twin, "_func", identity)
        return twin

    def rel_pairs(self) -> list[tuple[str, str]]:
        ws = self.worlds
        return [(ws[i], ws[j]) for i, j in _pairs(self._succ)]

    def is_reflexive(self, i: int) -> bool:
        return bool(self._succ[i] >> i & 1)

    # -- operators ---------------------------------------------------------

    def down_mask(self, mask: int) -> int:
        """Worlds with at least one successor inside `mask`: the predecessors
        of its worlds, or the members of the classes whose row meets it,
        whichever loop is shorter."""
        out = 0
        classes = self._classes
        if mask.bit_count() >= len(classes):
            for row, members in classes:
                if row & mask:
                    out |= members
            return out
        pred = self._pred
        while mask:  # _bits inlined: this is the one-lane evaluator's <d>
            lsb = mask & -mask
            out |= pred[lsb.bit_length() - 1]
            mask ^= lsb
        return out

    def cluster_mask(self, i: int) -> int:
        """Worlds mutually reachable from world i under the reflexive closure."""
        return (1 << i) | (self._succ[i] & self._pred[i])

    def cluster_masks(self) -> list[int]:
        seen = 0
        out = []
        for i in range(self.n):
            if seen >> i & 1:
                continue
            c = self.cluster_mask(i)
            seen |= c
            out.append(c)
        return out

    def classify(self) -> ClassFlags:
        succ, func = self._succ, self._func
        pairs = _pairs(succ)
        strict = _monotone_witness(pairs, _image_ranges(succ, True), func) is None
        return ClassFlags(
            transitive=_transitivity_witness(succ) is None,
            serial=all(m != 0 for m in succ),
            monotonic=strict or _monotone_witness(pairs, _image_ranges(succ, False), func) is None,
            strictly_monotonic=strict,
        )

    def to_dict(self, valuation: Mapping[str, Iterable[str]] | None = None) -> dict:
        d = {
            "worlds": list(self.worlds),
            "rel": [[a, b] for a, b in self.rel_pairs()],
            "func": self.func_map(),
        }
        if valuation is not None:
            d["valuation"] = {p: sorted(ws) for p, ws in sorted(valuation.items())}
        return d


def transitive_closure(succ: Sequence[int]) -> list[int]:
    out = list(succ)
    n = len(out)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if out[i] & bit:
                out[i] |= out[k]
    return out


def _transitivity_witness(succ: Sequence[int]) -> tuple[int, int] | None:
    """First (w, u) with w R v R u but not w R u, in world then successor
    order; None when the relation is transitive.  Whether w has a witness,
    and which, depends on w's row alone, so a world whose row an earlier
    world had is skipped: one scan per row class."""
    seen = set()
    for w, row in enumerate(succ):
        if row in seen:
            continue
        seen.add(row)
        rest = row
        while rest:  # _bits inlined: the search runs this on every candidate row
            lsb = rest & -rest
            missing = succ[lsb.bit_length() - 1] & ~row
            if missing:
                return w, (missing & -missing).bit_length() - 1
            rest ^= lsb
    return None


def _image_ranges(tgt_succ: Sequence[int], strict: bool) -> list[int]:
    """Per target world a, the images a (strictly) monotone map may give a
    successor of a world it sends to a: the successors of a, and a itself
    when not strict."""
    if strict:
        return list(tgt_succ)
    return [m | 1 << a for a, m in enumerate(tgt_succ)]


# _bits of each row below 2^8: _pairs reads small frames' rows from here
_BYTE_BITS = [tuple(_bits(row)) for row in range(256)]


def _pairs(succ: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs (w, v) with w R v, in world then successor order."""
    return [(w, v) for w, row in enumerate(succ)
            for v in (_BYTE_BITS[row] if row < 256 else _bits(row))]


def _monotone_witness(
    pairs: Iterable[tuple[int, int]], ranges: Sequence[int], func: Sequence[int]
) -> tuple[int, int] | None:
    """First of the source's :func:`_pairs` w R v whose images the target's
    :func:`_image_ranges` do not allow; None when the map is (strictly)
    monotone.  A check repeated on one frame makes both once."""
    for w, v in pairs:
        if not ranges[func[w]] >> func[v] & 1:
            return w, v
    return None


def _relation(
    worlds: Sequence[str], rel: Iterable[Sequence[str]]
) -> tuple[list[str], dict[str, int], list[int]]:
    """Check world names and relation pairs; returns the worlds, their
    indices and the successor masks."""
    if not isinstance(worlds, (list, tuple)) or not all(isinstance(w, str) for w in worlds):
        raise FrameError("worlds must be a list of world names")
    ws = list(worlds)
    if not ws:
        raise FrameError("frame needs at least one world")
    if len(set(ws)) != len(ws):
        raise FrameError("duplicate world names")
    if not isinstance(rel, (list, tuple)):
        raise FrameError("rel must be a list of pairs")
    index = {w: i for i, w in enumerate(ws)}
    bit = {w: 1 << i for i, w in enumerate(ws)}
    succ = [0] * len(ws)
    # `row` holds the mask of the pairs' current source, so a run of pairs
    # with one source looks its name up once.  The exception that stops the
    # loop names the fault; a new source is looked up before the target, so
    # it is the one reported when both miss
    source = object()  # equal to no name
    i = row = 0
    try:
        for pair in rel:
            a, b = pair
            if a != source:
                succ[i] = row
                i = index[a]
                source, row = a, succ[i]
            row |= bit[b]
        succ[i] = row
    except ValueError:  # an entry of another length
        raise FrameError(f"relation entry {pair!r} is not a pair") from None
    except KeyError as e:
        raise FrameError(f"unknown world {e.args[0]!r} in relation") from None
    except TypeError:  # an entry that is not iterable, or an unhashable name
        raise FrameError("relation entries must be pairs of world names") from None
    return ws, index, succ


def validate_frame(
    worlds: Sequence[str],
    rel: Iterable[Sequence[str]],
    func: Mapping[str, str],
    close_transitively: bool = False,
) -> Frame:
    """Check a raw frame description and build a Frame.

    With ``close_transitively`` the relation is replaced by its transitive
    closure; otherwise non-transitive input is rejected.
    """
    ws, index, succ = _relation(worlds, rel)
    if close_transitively:
        succ = transitive_closure(succ)
    else:
        witness = _transitivity_witness(succ)
        if witness is not None:
            a, b = witness
            raise FrameError(f"relation is not transitive: missing ({ws[a]}, {ws[b]})")
    if not isinstance(func, Mapping) or not all(isinstance(b, str) for b in func.values()):
        raise FrameError("function must map world names to world names")
    f = [0] * len(ws)
    for w in ws:
        if w not in func:
            raise FrameError(f"function is not total: missing {w!r}")
    for a, b in func.items():
        if a not in index:
            raise FrameError(f"unknown world {a!r} in function")
        if b not in index:
            raise FrameError(f"unknown world {b!r} in function image")
        f[index[a]] = index[b]
    return Frame(ws, succ, f)


def frame_from_dict(data: Mapping, close_transitively: bool = False) -> tuple[Frame, dict[str, frozenset[str]]]:
    """Read the frame file format; returns the frame and its valuation."""
    if not isinstance(data, Mapping):
        raise FrameError("frame file must hold a JSON object")
    for key in ("worlds", "rel", "func"):
        if key not in data:
            raise FrameError(f"frame file is missing {key!r}")
    frame = validate_frame(data["worlds"], data["rel"], data["func"], close_transitively)
    given = data.get("valuation", {})
    if not isinstance(given, Mapping):
        raise FrameError("valuation must map variables to lists of world names")
    valuation: dict[str, frozenset[str]] = {}
    for p, names in given.items():
        if not isinstance(names, list) or not all(isinstance(w, str) for w in names):
            raise FrameError(f"valuation of {p!r} must be a list of world names")
        for w in names:
            frame.index(w)
        valuation[p] = frozenset(names)
    return frame, valuation


@record
class PMorphismResult:
    ok: bool
    violations: tuple[str, ...]


def check_frame_pmorphism(
    source: Frame, target: Frame, mapping: Mapping[str, str]
) -> PMorphismResult:
    """Check forth, back and commutation conditions for a frame map."""
    violations = []
    for w in source.worlds:
        if w not in mapping:
            return PMorphismResult(False, (f"map undefined at {w!r}",))
        target.index(mapping[w])
    pi = [target.index(mapping[w]) for w in source.worlds]
    for w in range(source.n):
        for v in _bits(source.succ_mask(w)):
            if not (target.succ_mask(pi[w]) >> pi[v]) & 1:
                violations.append(
                    f"forth fails: {source.worlds[w]} R {source.worlds[v]} but "
                    f"{target.worlds[pi[w]]} not R {target.worlds[pi[v]]}"
                )
    for w in range(source.n):
        image_succ = 0
        for v in _bits(source.succ_mask(w)):
            image_succ |= 1 << pi[v]
        for u in _bits(target.succ_mask(pi[w]) & ~image_succ):
            violations.append(
                f"back fails at {source.worlds[w]}: no successor maps to {target.worlds[u]}"
            )
    for w in range(source.n):
        if pi[source.func_index(w)] != target.func_index(pi[w]):
            violations.append(f"function does not commute at {source.worlds[w]}")
    return PMorphismResult(not violations, tuple(violations))


def duplicate_reflexive(frame: Frame) -> tuple[Frame, dict[str, str]]:
    """Double every reflexive world so reflexive clusters have >= 2 points.

    The copy of w keeps w's name; the second copy gets a tick suffix chosen
    to avoid collisions.  Edges relate copies exactly as their originals;
    the map is lifted by :func:`_lift_map`.  Returns the new frame and
    the projection onto original names, which is a frame p-morphism.
    """
    refl = [w for i, w in enumerate(frame.worlds) if frame.is_reflexive(i)]
    if not refl:
        return frame, {w: w for w in frame.worlds}
    ticks = 1
    taken = set(frame.worlds)
    while any(w + "'" * ticks in taken for w in refl):
        ticks += 1
    tick = "'" * ticks

    origin: dict[str, str] = {}  # new world -> original, in the new order
    copies = []  # original index -> the mask of its copies
    for i, w in enumerate(frame.worlds):
        names = (w, w + tick) if frame.is_reflexive(i) else (w,)
        copies.append(((1 << len(names)) - 1) << len(origin))
        origin.update((d, w) for d in names)
    succ2 = []
    for i, m in enumerate(copies):
        row = 0
        for j in _bits(frame.succ_mask(i)):
            row |= copies[j]
        succ2 += [row] * m.bit_count()
    worlds = list(origin)
    index2 = {w: k for k, w in enumerate(worlds)}
    func2 = _lift_map(frame.func_map(), origin, origin)
    return Frame(worlds, succ2, [index2[func2[w]] for w in worlds]), origin


def _lift_map(fmap: Mapping[str, str], projection: Mapping[str, str],
              image_projection: Mapping[str, str]) -> dict[str, str]:
    """A map lifted to reflexive duplications of its source and target, given
    their projections: a second copy goes to the second copy of its image
    if the image has one, and every other world to the image."""
    second = {o: w for w, o in image_projection.items() if w != o}
    return {w: fmap[o] if w == o else second.get(fmap[o], fmap[o])
            for w, o in projection.items()}


def pullback_valuation(
    projection: Mapping[str, str], valuation: Mapping[str, Iterable[str]]
) -> dict[str, frozenset[str]]:
    """Pull a valuation on the projection's target back to its source."""
    out = {}
    for p, names in valuation.items():
        names = set(names)
        out[p] = frozenset(w for w, o in projection.items() if o in names)
    return out
