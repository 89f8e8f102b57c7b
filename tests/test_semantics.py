import gc
import importlib.util
import json
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tanglemc import semantics
from tanglemc.formula import Box, Diamond, Neg, Tangle, Var, dot_diamond, parse
from tanglemc.frame import (
    Frame, FrameError, duplicate_reflexive, transitive_closure, validate_frame,
)
from tanglemc.logic import LOGICS, _transitive_classes, random_class_frame
from tanglemc.semantics import (
    Evaluator,
    Model,
    tangled_oracle_clusters,
    tangled_oracle_subsets,
    truth_set,
    valid_on_frame,
)
from tanglemc.story import validate_story

from test_frame import frame_f1, frame_f2, frame_f3, _random_frame

ROOT = Path(__file__).resolve().parent.parent
REF = ROOT / "perfbench" / "ref.py"


def compiled_tangle(frame, sets):
    """The tangle of `sets` as `check` and `validity` compute it: the
    compiled tangle of one variable per set, valued by that set."""
    names = [f"s{i}" for i in range(len(sets))]
    model = Model(frame, dict(zip(names, sets)))
    return truth_set(model, Tangle(tuple(Var(name) for name in names)))


def test_truth_set_examples_on_f1():
    m = Model(frame_f1(), {"p": {"b"}})
    assert truth_set(m, parse("<d>p")) == {"a", "b"}
    assert truth_set(m, parse("O p")) == {"a", "b"}
    assert truth_set(m, parse("p | ~p")) == {"a", "b"}


def test_missing_variable_denotes_empty_set():
    m = Model(frame_f1())
    assert truth_set(m, parse("q")) == frozenset()
    assert truth_set(m, parse("~q")) == {"a", "b"}


def test_perfect_core_example_on_f3():
    # the reflexive cluster satisfies the tangle of "O p" while the image
    # point is isolated, so the two sides of the continuity axiom differ
    m = Model(frame_f3(), {"p": {"o"}})
    assert truth_set(m, parse("<t>{O p}")) == {"q1", "q2"}
    assert truth_set(m, parse("O <t>{p}")) == frozenset()


def test_box_matches_its_negation_encoding():
    rng = random.Random(5)
    for _ in range(50):
        f = _random_frame(rng)
        val = {"p": {w for w in f.worlds if rng.random() < 0.5}}
        m = Model(f, val)
        phi = parse("p")
        assert truth_set(m, Box(phi)) == truth_set(m, Neg(Diamond(Neg(phi))))


def test_box_duality_against_down():
    rng = random.Random(6)
    for _ in range(50):
        f = _random_frame(rng)
        val = {"p": {w for w in f.worlds if rng.random() < 0.5}}
        m = Model(f, val)
        lhs = truth_set(m, parse("[d]p"))
        p = f.mask(truth_set(m, parse("p")))
        rhs = f.names(f.full_mask ^ f.down_mask(f.full_mask ^ p))
        assert lhs == rhs


def test_tangle_examples():
    assert compiled_tangle(frame_f2(), [{"o"}]) == frozenset()
    assert compiled_tangle(frame_f1(), [{"b"}]) == {"a", "b"}


def test_tangle_incomparable_tops_is_empty():
    # two reflexive end points above a common root: no single reflexive
    # cluster meets both sets
    f = validate_frame(
        ["x", "y", "z"],
        [["x", "y"], ["y", "y"], ["x", "z"], ["z", "z"]],
        {"x": "x", "y": "y", "z": "z"},
    )
    for fn in (compiled_tangle, tangled_oracle_subsets, tangled_oracle_clusters):
        assert fn(f, [{"y"}, {"z"}]) == frozenset()


def test_tangle_empty_list_rejected():
    for fn in (tangled_oracle_subsets, tangled_oracle_clusters):
        with pytest.raises(ValueError):
            fn(frame_f1(), [])


def test_subset_oracle_guard():
    f = Frame([f"w{i}" for i in range(21)], [0] * 21, list(range(21)))
    with pytest.raises(ValueError):
        tangled_oracle_subsets(f, [set()])


@given(st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_tangle_oracles_agree(seed):
    rng = random.Random(seed)
    f = _random_frame(rng, max_worlds=6)
    k = rng.randint(1, 3)
    sets = [
        {w for w in f.worlds if rng.random() < 0.5} for _ in range(k)
    ]
    a = compiled_tangle(f, sets)
    assert a == tangled_oracle_subsets(f, sets)
    assert a == tangled_oracle_clusters(f, sets)


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_tangle_fixpoint_and_induction(seed):
    rng = random.Random(seed)
    f = _random_frame(rng, max_worlds=5)
    k = rng.randint(1, 2)
    sets = [{w for w in f.worlds if rng.random() < 0.5} for _ in range(k)]
    masks = [f.mask(s) for s in sets]
    t = f.mask(compiled_tangle(f, sets))
    # fixed point: T is contained in every down(S_i & T)
    for m in masks:
        assert not (t & ~f.down_mask(m & t))
    # induction: any post-fixed point is below T
    for a in range(f.full_mask + 1):
        if all(not (a & ~f.down_mask(m & a)) for m in masks):
            assert not (a & ~t)


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_tangle_antitone_in_argument_sets(seed):
    rng = random.Random(seed)
    f = _random_frame(rng, max_worlds=6)
    small = [{w for w in f.worlds if rng.random() < 0.5}]
    big = small + [{w for w in f.worlds if rng.random() < 0.5}]
    assert compiled_tangle(f, big) <= compiled_tangle(f, small)


def test_iteration_count_bounded_by_worlds():
    # the irreflexive chain drains one world per step
    n = 30
    succ = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            succ[i] |= 1 << j
    f = Frame([f"w{i}" for i in range(n)], succ, list(range(n)))
    assert semantics.tangle_fixpoint(f.down_mask, f.full_mask, [f.full_mask])[1] == n
    rng = random.Random(0)
    for _ in range(200):
        g = _random_frame(rng, max_worlds=6)
        masks = [g.mask({w for w in g.worlds if rng.random() < 0.5})]
        assert semantics.tangle_fixpoint(g.down_mask, g.full_mask, masks)[1] <= g.n


def _load_ref():
    """The benchmark's reference semantics, which imports nothing from the
    package: its tangle is the fixed point iterated on frozensets."""
    spec = importlib.util.spec_from_file_location("perfbench_ref", REF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cluster_kinds(succ):
    """The kinds of worlds and clusters that a relation has: irreflexive
    worlds, one-world reflexive clusters, fat clusters."""
    f = Frame([f"w{i}" for i in range(len(succ))], succ, range(len(succ)))
    kinds = set()
    for c in f.cluster_masks():
        if c.bit_count() > 1:
            kinds.add("fat")
        else:
            kinds.add("reflexive" if f.is_reflexive(c.bit_length() - 1) else "irreflexive")
    return kinds


def test_packed_tangle_matches_three_oracles_lane_by_lane():
    # The engine's tangle, read lane by lane (Evaluator._lane) from one run
    # of 64 lanes whose slots hold different transitive relations, and from
    # one-lane runs on each slot's own frame and in a slot of another, is
    # the fixed point that tangle_fixpoint iterates to on the slot's frame,
    # the subset oracle's union (up to its 20 worlds) and the fixed point
    # of the benchmark's set-based reference.  The relations: on 6 worlds,
    # random closures with irreflexive worlds, one-world reflexive clusters
    # and fat clusters, the empty relation and one fat cluster; on 30
    # worlds, the irreflexive chain that tangle_fixpoint drains one world a
    # step, the chain with a reflexive top, the chain with a fat cluster of
    # five worlds in the middle, and a random closure.
    ref = _load_ref()
    rng = random.Random(3131)
    six = [transitive_closure([rng.getrandbits(6) & rng.getrandbits(6) for _ in range(6)])
           for _ in range(6)] + [[0] * 6, [63] * 6]
    chain = [((1 << 30) - 1) ^ ((1 << (i + 1)) - 1) for i in range(30)]
    topped = chain[:-1] + [1 << 29]
    fat = [row | (0b11111 << 10 if 10 <= i < 15 else 0) for i, row in enumerate(chain)]
    sparse = transitive_closure([rng.getrandbits(30) & rng.getrandbits(30) & rng.getrandbits(30)
                                 for _ in range(30)])
    assert set().union(*map(_cluster_kinds, six)) == {"irreflexive", "reflexive", "fat"}
    assert _cluster_kinds(fat) == {"irreflexive", "fat"}
    for relations, sizes in ((six, (1, 2, 3)), ([chain, topped, fat, sparse], (1, 2))):
        n = len(relations[0])
        worlds, identity = [f"w{i}" for i in range(n)], list(range(n))
        frames = [Frame(worlds, rows, identity) for rows in relations]
        models = [ref.Model(worlds, f.rel_pairs(), dict(zip(worlds, worlds))) for f in frames]
        lanes, width = 64, 64 // len(relations)
        packed = Evaluator(frames[0], lanes, [(f._succ, identity) for f in frames])
        for k in sizes:
            names = [f"s{i}" for i in range(k)]
            phi = Tangle(tuple(map(Var, names)))
            env = {v: rng.getrandbits(n * lanes) for v in names}
            value = packed.compile(phi)(env)
            for lane in range(lanes):
                j = lane // width
                f = frames[j]
                masks = [packed._lane(env[v], lane) for v in names]
                got = packed._lane(value, lane)
                assert got == semantics.tangle_fixpoint(f.down_mask, f.full_mask, masks)[0]
                sets = [f.names(m) for m in masks]
                if n <= 20:
                    assert f.names(got) == tangled_oracle_subsets(f, sets)
                model = models[j].with_valuation(dict(zip(names, sets)))
                assert ref.evaluate(model, ref.Tan([ref.Var(v) for v in names])) == f.names(got)
                one = dict(zip(names, masks))
                assert Evaluator(f).compile(phi)(one) == got
                other = Evaluator(frames[j - 1], 1, [(f._succ, identity)])
                assert other.compile(phi)(one) == got


def test_every_frame_builder_gives_a_transitive_relation():
    # the closed-form tangle is the tangle only on a transitive relation,
    # so every way the package builds a frame must give one: validate_frame
    # with and without the closure (which rejects the rest), the class
    # frames of each logic, the relation classes up to 4 worlds, reflexive
    # duplicates, disjoint unions and the moments of the demo story
    rng = random.Random(17)
    built, rejected = [], 0
    for _ in range(60):
        worlds = [f"w{i}" for i in range(rng.randint(1, 5))]
        rel = [[a, b] for a in worlds for b in worlds if rng.random() < 0.3]
        identity = {w: w for w in worlds}
        built.append(validate_frame(worlds, rel, identity, close_transitively=True))
        try:
            built.append(validate_frame(worlds, rel, identity))
        except FrameError:
            rejected += 1
    assert 0 < rejected < 60
    for logic in LOGICS.values():
        built += [random_class_frame(rng, 6, logic) for _ in range(20)]
    for n in range(1, 5):
        built += [Frame([f"w{i}" for i in range(n)], succ, range(n))
                  for succ in _transitive_classes(n)]
    built += [duplicate_reflexive(f)[0] for f in built[::3]]
    built += [disjoint_union(rng.sample(built, 3)) for _ in range(20)]
    with open(ROOT / "demos" / "story_chain.story.json", encoding="utf-8") as fh:
        built += [m.frame for m in validate_story(json.load(fh)).levels]
    assert all(f.classify().transitive for f in built)


def test_valid_on_frame_exhaustive_examples():
    v = valid_on_frame(frame_f1(), parse("p"))
    assert not v.valid
    assert v.countermodel.valuation == {"p": ()}
    assert v.countermodel.world == "a"
    assert valid_on_frame(frame_f1(), parse("[d]p -> [d][d]p")).valid


def test_valid_on_frame_finds_continuity_failure_on_f3():
    v = valid_on_frame(frame_f3(), parse("<t>{O p} -> O <t>{p}"))
    assert not v.valid
    assert v.countermodel.valuation == {"p": ("o",)}
    assert v.countermodel.world == "q1"


def test_valid_on_frame_sampled_is_seeded():
    f = frame_f3()
    phi = parse("<t>{O p} -> O <t>{p}")
    a = valid_on_frame(f, phi, mode="sampled", samples=200, seed=11)
    b = valid_on_frame(f, phi, mode="sampled", samples=200, seed=11)
    assert a == b and not a.valid


def test_exhaustive_guard():
    f = Frame([f"w{i}" for i in range(13)], [0] * 13, list(range(13)))
    with pytest.raises(ValueError):
        valid_on_frame(f, parse("p & q"))


def test_next_axioms_semantics():
    rng = random.Random(9)
    for _ in range(40):
        f = _random_frame(rng)
        val = {v: {w for w in f.worlds if rng.random() < 0.5} for v in "pq"}
        m = Model(f, val)
        assert truth_set(m, parse("~O p")) == truth_set(m, parse("O ~p"))
        assert truth_set(m, parse("O (p & q)")) == truth_set(m, parse("O p & O q"))


@pytest.mark.parametrize("lanes", [1, 8])
def test_evaluator_is_freed_without_the_cycle_collector(lanes):
    # an evaluator that kept a bound method of itself would be a reference
    # cycle and outlive `del` until the collector ran
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ev = Evaluator(frame_f2(), lanes)
        ev.compile(parse("<d>p & O q | <t>{p, [d]q}"))({"p": 1, "q": ev.full})
        ref = weakref.ref(ev)
        del ev
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("lanes", [1, 8])
def test_a_pass_runs_each_distinct_tangle_once(monkeypatch, lanes):
    # the parse makes the two tangles one object, and a pass evaluates
    # each distinct object once
    calls = []
    tangle = semantics.tangle_closed

    def counting(down, cluster, masks):
        calls.append(len(masks))
        return tangle(down, cluster, masks)

    monkeypatch.setattr(semantics, "tangle_closed", counting)
    ev = Evaluator(frame_f2(), lanes)
    run = ev.compile(parse("(<t>{p, q} -> q) & (<t>{q, p} -> p)"))
    for env in ({"p": ev.full, "q": 0}, {"p": ev.full, "q": ev.full}):
        run(env)
    assert calls == [2, 2]


def test_api_built_shared_formula_compiles_once_per_distinct_node():
    # 40 nested <d.> built through the API share each argument twice: a
    # tree of 3 * 2**40 - 2 nodes over 81 distinct ones.  On a transitive
    # frame the chain denotes <d.>p.
    p = Var("p")
    phi = p
    for _ in range(40):
        phi = dot_diamond(phi)
    f = frame_f3()
    ev = Evaluator(f)
    run, expected = ev.compile(phi), ev.compile(dot_diamond(p))
    for w in range(f.n):
        assert run({"p": 1 << w}) == expected({"p": 1 << w})


def test_compile_rejects_what_is_not_a_formula():
    with pytest.raises(TypeError, match="not a formula"):
        Evaluator(frame_f1()).compile(object())


def disjoint_union(frames):
    """The frames side by side: each frame's worlds follow those of the
    frames before it."""
    succ, func = [], []
    for f in frames:
        off = len(succ)
        succ += [f.succ_mask(w) << off for w in range(f.n)]
        func += [f.func_index(w) + off for w in range(f.n)]
    return Frame([f"u{i}" for i in range(len(succ))], succ, func)


def lane_mask(value, n, lanes, lane):
    """The world mask that one lane of a packed truth set holds."""
    return sum((value >> (w * lanes + lane) & 1) << w for w in range(n))


def test_packed_operators_match_down_mask_and_the_image_map():
    # <d> and O as distance steps give, lane by lane, the one-lane
    # down_mask of each slot's relation and the preimage under its map: on
    # random frames, whose maps need not be monotone, on disjoint unions of
    # them and on the identity map and the map onto w0 (the fewest and the
    # most distances), with the frame's own relation and map or random
    # ones in slots, drawn from two each so that slots next to each other
    # or apart share a relation or a map, and one lane on another relation
    rng = random.Random(31)
    for trial in range(60):
        parts = [_random_frame(rng, 6) for _ in range(rng.choice((1, 1, 2, 4)))]
        frame = parts[0] if len(parts) == 1 else disjoint_union(parts)
        n = frame.n
        if trial < 2:
            func = list(range(n)) if trial == 0 else [0] * n
            frame = Frame(frame.worlds, [frame.succ_mask(w) for w in range(n)], func)
        lanes = rng.choice((1, 2, 8, 12))
        own = (tuple(frame.succ_mask(w) for w in range(n)), [frame.func_index(w) for w in range(n)])
        slots = [own]
        if trial >= 2 and rng.random() < 0.5:
            count = rng.choice([k for k in (1, 2, 4) if lanes % k == 0])
            relations = [own[0], tuple(rng.getrandbits(n) for _ in range(n))]
            maps = [[rng.randrange(n) for _ in range(n)] for _ in range(2)]
            slots = [(rng.choice(relations), rng.choice(maps)) for _ in range(count)]
            ev = Evaluator(frame, lanes, slots)
        else:
            ev = Evaluator(frame, lanes)
        width = lanes // len(slots)
        for _ in range(3):
            x = rng.getrandbits(n * lanes)
            down, pre = ev.down(x), ev.preimage(x)
            for lane in range(lanes):
                m, (rows, func) = lane_mask(x, n, lanes, lane), slots[lane // width]
                assert lane_mask(down, n, lanes, lane) == Frame(frame.worlds, rows, func).down_mask(m)
                assert lane_mask(pre, n, lanes, lane) == sum(
                    1 << w for w in range(n) if m >> func[w] & 1)


def test_shared_evaluators_give_the_verdicts_of_fresh_ones():
    # truth on a disjoint union is truth on each part: one evaluator of the
    # union, run once, gives in each part's worlds the truth set that a
    # fresh evaluator of that part gives, with one lane and packed
    rng = random.Random(14)
    formulas = [parse(t) for t in ("[d]p -> [d][d]p", "<t>{O p} -> O <t>{p}",
                                   "<d>O p -> O <d>p", "p | ~q", "<d>T",
                                   "<t>{p, <d>q} & [d.]O q")]
    for _ in range(15):
        parts = [_random_frame(rng) for _ in range(rng.randint(2, 5))]
        union = disjoint_union(parts)
        for lanes in (1, 70):
            shared = Evaluator(union, lanes)
            envs = [{v: rng.getrandbits(f.n * lanes) for v in "pq"} for f in parts]
            env, off = {"p": 0, "q": 0}, 0
            for f, e in zip(parts, envs):
                for v in env:
                    env[v] |= e[v] << (off * lanes)
                off += f.n
            for phi in formulas:
                value, off = shared.compile(phi)(env), 0
                for f, e in zip(parts, envs):
                    part = value >> (off * lanes) & ((1 << (f.n * lanes)) - 1)
                    assert part == Evaluator(f, lanes).compile(phi)(e)
                    off += f.n
