"""Differential tests of the lane-packed sweeps against a per-valuation oracle.

The oracle evaluates one valuation at a time on plain world masks and walks
the valuations in the canonical order: ascending valuation codes in
exhaustive mode, one ``getrandbits(n)`` per sorted variable and sample in
sampled mode, and for the search the frames in the search's order: over
every labelled transitive relation for the verdict, and over the
generator's class representatives, checked against brute-force canonical
forms, for the counts.
"""

import functools
import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tanglemc.formula import (
    And, Box, Diamond, Implies, Neg, Next, Or, Tangle, Var, dot_diamond, parse, vars_of,
)
from tanglemc.frame import Frame, _transitivity_witness
from tanglemc import logic
from tanglemc.logic import (
    LOGICS, SCHEMAS, _monotone_maps, _schema_program, _transitive_classes,
    countermodel_search, random_class_frame,
)
from tanglemc import semantics
from tanglemc.semantics import (
    PACKED_BITS_LIMIT, Countermodel, Evaluator, Verdict, _mask_bits, _sample_widths,
    valid_on_frame,
)

from generators import monotone_witness_by_definition, random_formula, random_transitive_frame
from test_semantics import disjoint_union


def oracle_mask(frame, phi, env):
    """phi's world mask under env, node by node down the tree: <d> through
    the frame's down_mask, O through its map, the tangle by its decreasing
    iteration."""
    full, down = frame.full_mask, frame.down_mask
    func = [frame.func_index(w) for w in range(frame.n)]

    def ev(phi):
        kind = type(phi)
        if kind is Var:
            return env.get(phi.name, 0)
        if kind is And:
            return ev(phi.left) & ev(phi.right)
        if kind is Or:
            return ev(phi.left) | ev(phi.right)
        if kind is Implies:
            return (full ^ ev(phi.left)) | ev(phi.right)
        if kind is Neg:
            return full ^ ev(phi.child)
        if kind is Diamond:
            return down(ev(phi.child))
        if kind is Box:
            return full ^ down(full ^ ev(phi.child))
        if kind is Next:
            c = ev(phi.child)
            return sum(1 << w for w, v in enumerate(func) if c >> v & 1)
        assert kind is Tangle
        a = full
        while True:
            new = a
            for f in phi.args:
                new &= down(ev(f) & a)
            if new == a:
                return a
            a = new

    return ev(phi)


def oracle_sweep(frame, phi, envs):
    """(checked, countermodel) of the first valuation of `envs` refuting phi."""
    checked = 0
    for env in envs:
        checked += 1
        missing = frame.full_mask & ~oracle_mask(frame, phi, env)
        if missing:
            valuation = {v: tuple(frame.sorted_names(m)) for v, m in sorted(env.items())}
            world = frame.worlds[(missing & -missing).bit_length() - 1]
            return checked, Countermodel(valuation, world)
    return checked, None


def exhaustive_envs(frame, phi):
    variables, n = sorted(vars_of(phi)), frame.n
    for code in range(1 << (n * len(variables))):
        yield {v: (code >> (i * n)) & frame.full_mask for i, v in enumerate(variables)}


def sampled_envs(frame, phi, rng, samples):
    variables = sorted(vars_of(phi))
    for _ in range(samples):
        yield {v: rng.getrandbits(frame.n) for v in variables}


def oracle_verdict(frame, phi, mode, samples=1000, seed=0):
    if mode == "exhaustive":
        checked, cm = oracle_sweep(frame, phi, exhaustive_envs(frame, phi))
        return Verdict(cm is None, mode, checked, cm)
    checked, cm = oracle_sweep(frame, phi, sampled_envs(frame, phi, random.Random(seed), samples))
    return Verdict(cm is None, mode, checked, cm, seed=seed)


@given(st.integers(0, 10**6), st.sampled_from(sorted(LOGICS)), st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_sweeps_match_oracle_on_class_frames(seed, logic, depth):
    rng = random.Random(seed)
    frame = random_class_frame(rng, 6, LOGICS[logic])
    phi = random_formula(rng, ["p", "q"], depth)
    assert valid_on_frame(frame, phi) == oracle_verdict(frame, phi, "exhaustive")
    samples = rng.choice((1, 7, 64, 65, 300))
    assert (valid_on_frame(frame, phi, "sampled", samples, seed)
            == oracle_verdict(frame, phi, "sampled", samples, seed))


def test_exhaustive_failure_in_a_later_block():
    # 6 worlds and 3 variables make 18 bits; r enters at bit 12, so the
    # first refutation lies in the second block of 2^12 codes
    rng = random.Random(2)
    frame = random_class_frame(rng, 6, LOGICS["K4C"])
    while frame.n != 6:
        frame = random_class_frame(rng, 6, LOGICS["K4C"])
    for text in ("~(r & p & (q | ~q))", "~(r & O p) | q & ~q", "r -> p | [d]q | q"):
        phi = parse(text)
        verdict = valid_on_frame(frame, phi)
        assert verdict.checked > 4096 and not verdict.valid
        assert verdict == oracle_verdict(frame, phi, "exhaustive")


def test_sampled_failure_past_the_first_block():
    # one world where all seven variables hold has odds 1/128 per sample
    frame = Frame(["w0"], [1], [0])
    phi = parse("~(p & q & r & s & t & u & v)")
    late = 0
    for seed in range(12):
        verdict = valid_on_frame(frame, phi, "sampled", 2000, seed)
        assert verdict == oracle_verdict(frame, phi, "sampled", 2000, seed)
        late += verdict.checked > 64
    assert late >= 3


def test_sampled_draws_on_wide_frames():
    # 40 and 80 worlds take two and three 32-bit words per draw
    phi = parse("~(p & q & <d>p & O q & r)")
    for n in (40, 80):
        frame = random_transitive_frame(n, seed=n)
        for seed in range(3):
            assert (valid_on_frame(frame, phi, "sampled", 200, seed)
                    == oracle_verdict(frame, phi, "sampled", 200, seed))


def recorded_widths(monkeypatch):
    """The lane counts of the evaluators made from now on, in order."""
    widths = []

    class Recording(semantics.Evaluator):
        def __init__(self, frame, lanes=1, *args):
            widths.append(lanes)
            super().__init__(frame, lanes, *args)

    monkeypatch.setattr(semantics, "Evaluator", Recording)
    return widths


def test_sampled_dense_frame_turns_from_one_lane_to_packed(monkeypatch):
    # 150 worlds in one cluster, all mapped to w0, have 299 relation and
    # 150 map distances, so a lane's distance masks take 67,350 bits: a
    # block of more than 7 lanes passes PACKED_BITS_LIMIT.  The first 93
    # samples take one lane per pass and the last 7 one packed block.
    # Each sample refutes phi with odds 1/128.
    n = 150
    frame = Frame([f"w{i}" for i in range(n)], [(1 << n) - 1] * n, [0] * n)
    assert _mask_bits(frame) == 67_350 and 7 * 67_350 <= PACKED_BITS_LIMIT < 8 * 67_350
    phi = parse("~(O p & O q & O r & O s & O t & O u & <d>O v)")
    widths = recorded_widths(monkeypatch)
    checked = []
    for seed in range(8):
        verdict = valid_on_frame(frame, phi, "sampled", 100, seed)
        assert verdict == oracle_verdict(frame, phi, "sampled", 100, seed)
        checked.append(verdict.checked)
    assert min(checked) <= 93 < max(checked)
    assert set(widths) == {1, 7}


def test_sampled_star_frame_turns_from_packed_to_one_lane(monkeypatch):
    # w0 sees the other 79 worlds and the map is the identity: 79 relation
    # distances and one map distance take 6,400 bits a lane, so the two
    # blocks of 64 lanes are packed and the next, of 128, runs one lane
    # per pass.  phi fails only at w0, with odds 1/128 per sample.
    n = 80
    star = Frame([f"w{i}" for i in range(n)], [(1 << n) - 2] + [0] * (n - 1), range(n))
    assert _mask_bits(star) == 6_400
    phi = parse("~(p & q & r & s & t & u & v & <d>T)")
    widths = recorded_widths(monkeypatch)
    checked = []
    for seed in range(16):
        verdict = valid_on_frame(star, phi, "sampled", 1000, seed)
        assert verdict == oracle_verdict(star, phi, "sampled", 1000, seed)
        checked.append(verdict.checked)
    assert min(checked) <= 128 < max(checked)
    assert set(widths) == {64, 1}
    # a star of 1000 worlds packs no block of 3000 samples: its masks would
    # take a million bits a lane
    big = Frame([f"w{i}" for i in range(1000)], [(1 << 1000) - 2] + [0] * 999, range(1000))
    assert set(_sample_widths(3000, _mask_bits(big))) == {1}


@functools.cache
def brute_transitive_succs(n):
    """Every transitive relation on n worlds, from a scan of all 2^(n*n)
    relation codes in ascending order."""
    full = (1 << n) - 1
    out = []
    for code in range(1 << (n * n)):
        succ = tuple((code >> (i * n)) & full for i in range(n))
        if all(not succ[v] & ~succ[w]
               for w in range(n) for v in range(n) if succ[w] >> v & 1):
            out.append(succ)
    return tuple(out)


def brute_canonical_form(succ):
    """The least renamed relation over all n! renamings of the worlds."""
    n = len(succ)
    return min(
        tuple(sum(1 << perm[v] for v in range(n) if succ[w] >> v & 1)
              for w in sorted(range(n), key=perm.__getitem__))
        for perm in itertools.permutations(range(n))
    )


@functools.cache
def brute_monotone_maps(succ, strict):
    n = len(succ)
    return [func for func in itertools.product(range(n), repeat=n)
            if monotone_witness_by_definition(succ, succ, func, strict) is None]


def classes_by_size(max_worlds):
    """The generator's relations on at most max_worlds worlds, by size."""
    return [list(_transitive_classes(n)) for n in range(max_worlds + 1)]


@functools.cache
def brute_class_forms(n):
    """The canonical forms of every labelled transitive relation on n worlds."""
    return frozenset(brute_canonical_form(succ) for succ in brute_transitive_succs(n))


def check_levels(levels):
    """One relation per isomorphism class on 0, 1, ... worlds: transitive,
    pairwise non-isomorphic, every labelled transitive relation isomorphic
    to one of them, and in the generator's order: by parent (the relation
    on the first n - 1 worlds, a class of the level before), then the last
    world's row, then its column, then its loop."""
    for n, relations in enumerate(levels):
        assert len(relations) == (1, 2, 8, 39, 242)[n]
        assert all(_transitivity_witness(succ) is None for succ in relations)
        forms = [brute_canonical_form(succ) for succ in relations]
        assert len(set(forms)) == len(forms)
        assert set(forms) == brute_class_forms(n)
        if n:
            last = 1 << n - 1
            order = [(levels[n - 1].index(tuple(row & ~last for row in succ[:-1])),
                      succ[-1] & ~last,
                      sum(1 << w for w, row in enumerate(succ[:-1]) if row & last),
                      succ[-1] & last) for succ in relations]
            assert order == sorted(order)


def test_transitive_relations_match_brute_force():
    check_levels(classes_by_size(4))


def test_levels_and_first_maps_are_kept_across_searches(monkeypatch):
    # The relation classes of each world count, and the first map and map
    # count of each class, are kept for the process.  Each logic's searches
    # with and without O give the same results cold and warm; once warm, a
    # search without O enumerates nothing; and the levels rebuilt after the
    # memo is cleared equal the kept ones, in order.
    o_free = [parse("[d]p -> [d][d]p"), parse("<d>[d]p -> [d]<d>p")]
    cases = [(phi, name, worlds) for phi in (*o_free, parse("<d>O p -> O <d>p"))
             for name in LOGICS for worlds in (3, 4)]
    kept = classes_by_size(4)
    logic._transitive_classes.cache_clear()
    logic._first_map.cache_clear()
    cold = [countermodel_search(*case) for case in cases]
    assert [countermodel_search(*case) for case in cases] == cold

    def enumerate_again(*args):
        raise AssertionError("a warm search without O enumerated classes or maps")

    with monkeypatch.context() as patched:
        patched.setattr(logic, "_monotone_maps", enumerate_again)
        patched.setattr(logic, "_canonical_code", enumerate_again)
        for case, result in zip(cases, cold):
            if case[0] in o_free:
                assert countermodel_search(*case) == result
    assert classes_by_size(4) == kept
    check_levels(kept)


def test_a_level_whose_build_raises_is_not_kept(monkeypatch):
    # a level is kept only once it is built whole: an error in the middle
    # of level 4 leaves none of it behind, and the next call builds it anew
    logic._transitive_classes.cache_clear()
    logic._transitive_classes(3)
    canonical_code, calls = logic._canonical_code, []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 100:
            raise RuntimeError("interrupted")
        return canonical_code(*args)

    with monkeypatch.context() as patched:
        patched.setattr(logic, "_canonical_code", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            logic._transitive_classes(4)
    assert all(len(succ) == 4 for succ, _ in calls)
    check_levels(classes_by_size(4))


def test_monotone_maps_match_brute_force():
    for n in range(1, 5):
        relations = brute_transitive_succs(n)
        for succ in relations if n < 4 else relations[::7]:
            for strict in (False, True):
                assert _monotone_maps(succ, strict) == brute_monotone_maps(succ, strict)


def test_monotone_maps_leave_no_reference_cycles():
    succ = [0, 0b1011, 0b1101, 0b0001]  # transitive, 40 monotone maps
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert _monotone_maps(succ, False)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def oracle_search(phi, logic, max_worlds, relations_by_size=None):
    """The first refutation, one frame and valuation at a time, over every
    labelled transitive relation (or over the given relations per size)."""
    frames = vals = 0
    for n in range(1, max_worlds + 1):
        worlds = [f"w{i}" for i in range(n)]
        envs = None  # every valuation in code order: they depend on n only
        if relations_by_size is None:
            relations = brute_transitive_succs(n)
        else:
            relations = relations_by_size[n]
        for succ in relations:
            if logic.serial and not all(succ):
                continue
            for func in brute_monotone_maps(succ, logic.strict):
                frame = Frame(worlds, succ, func)
                frames += 1
                envs = envs or list(exhaustive_envs(frame, phi))
                checked, cm = oracle_sweep(frame, phi, envs)
                vals += checked
                if cm is not None:
                    return frames, vals, frame, cm.valuation, cm.world
    return frames, vals, None, None, None


def test_shared_subformulas_match_the_tree_oracle():
    # formulas that share subformulas by object: built through the API, as
    # schema instances are, and parsed, which makes equal ones one object;
    # every valuation on each K4C relation class of three worlds, under its
    # first monotone map with the most distinct images, one valuation per
    # pass and all of them packed in one pass
    p, q = Var("p"), Var("q")
    chain = p
    for _ in range(6):
        chain = dot_diamond(chain)
    a = Tangle((p, Box(Next(p))))
    formulas = [
        chain,
        SCHEMAS["Next-neg"].instantiate([a]),
        SCHEMAS["Next-and"].instantiate([a, Diamond(a)]),
        parse("(<t>{p, q} -> q) & (<t>{q, p} -> p) | O <t>{p, q}"),
    ]
    for succ in classes_by_size(3)[3]:
        func = max(_monotone_maps(succ, False), key=lambda f: len(set(f)))
        frame = Frame(["w0", "w1", "w2"], succ, func)
        for phi in formulas:
            envs = list(exhaustive_envs(frame, phi))
            lanes = len(envs)
            packed = {v: sum((env[v] >> w & 1) << (w * lanes + lane)
                             for lane, env in enumerate(envs) for w in range(3))
                      for v in envs[0]}
            run = Evaluator(frame).compile(phi)
            value = Evaluator(frame, lanes).compile(phi)(packed)
            for lane, env in enumerate(envs):
                expected = oracle_mask(frame, phi, env)
                assert run(env) == expected
                assert sum((value >> (w * lanes + lane) & 1) << w
                           for w in range(3)) == expected


def test_substituted_schema_programs_match_their_instances():
    # [[phi[psi/A]]] is [[phi]] with A read as [[psi]] on every frame, and
    # truth on a disjoint union is truth on each part: a schema's program,
    # run once on the union of several frames, with each metavariable bound
    # in each frame's worlds to the truth set of that frame's slot formula,
    # gives there the truth set of the built instance, under every
    # valuation, all of them packed.  Two equal set arguments, which the
    # instance's tangle merges, and D, whose instance has no variables, are
    # included.  The frames are each relation class of three worlds and two
    # relations that are not transitive, under maps that need not be
    # monotone, so that the schemas other than K, Fix-tan, Next-neg and
    # Next-and fail somewhere and their truth sets are not all full.
    p, q = Var("p"), Var("q")
    distinct = [Next(q), Tangle((p, Box(q))), Neg(p)]
    cases = {}  # (schema, set size) -> the slots of its instances
    for name, schema in SCHEMAS.items():
        formulas = distinct[:schema.formula_slots]
        theta = p if schema.theta_slot else None
        for formula_set in ([distinct[1]], distinct[:2], [Diamond(q), Diamond(q)], None):
            if (formula_set is not None) == schema.set_slot:
                cases.setdefault((name, len(formula_set or ())), []).append(
                    (formulas, formula_set, theta))
    frames = [(succ, (1, 2, 0)) for succ in classes_by_size(3)[3]]
    frames += [(succ, func) for succ in ((2, 4, 1), (2, 4, 0)) for func in ((1, 2, 0), (0, 0, 1))]
    frames = [Frame(["w0", "w1", "w2"], succ, func) for succ, func in frames]
    lanes = 64  # lane c holds valuation code c: bit 3i + w puts world w in variable i
    part = {v: sum((c >> (3 * i + w) & 1) << (w * lanes + c) for c in range(lanes) for w in range(3))
            for i, v in enumerate("pq")}
    for (name, size), instances in cases.items():
        parts = [(frame, slots) for frame in frames for slots in instances]
        ev = Evaluator(disjoint_union([frame for frame, _ in parts]), lanes)
        down, pre, full, clu = ev.down, ev.preimage, ev.full, ev.cluster
        region = (1 << (3 * lanes)) - 1
        env = {v: sum(m << (3 * k * lanes) for k in range(len(parts))) for v, m in part.items()}
        metas = [[*f, *(s or ()), *([] if t is None else [t])] for _, (f, s, t) in parts]
        for i in range(len(metas[0])):
            env[f"_{i}"] = sum(
                ev.compile(slots[i])(env) & region << (3 * k * lanes) for k, slots in enumerate(metas))
        value = _schema_program(name, size).run(env, down, pre, full, clu)
        for k, (frame, slots) in enumerate(parts):
            inst = SCHEMAS[name].instantiate(*slots)
            assert value >> (3 * k * lanes) & region == Evaluator(frame, lanes).compile(inst)(part)


def test_exhaustive_search_matches_oracle_at_three_worlds():
    # A relation's maps share passes of 2^12 lanes, 2^(worlds * variables)
    # lanes each.  "O p -> O O O p" holds under every map of at most two
    # worlds and first fails under the second map, (0, 0, 1), of the empty
    # relation on three worlds, the first class on three worlds; with 2, 3
    # and 4 variables that map sits in a pass of 27, 8 and 1 maps.  The
    # last case searches two worlds only: at 14 bits a map takes four
    # passes, and it first fails under the swap, the third map of the empty
    # relation, in its second pass.
    classes = classes_by_size(3)
    for logic, text, worlds in (
        ("K4C", "[d]p -> [d][d]p", 3), ("K4DC", "<t>{O p} -> O <t>{p}", 3),
        ("K4C", "<d>O p -> O <d>p", 3), ("K4I", "<t>{O p} -> O <t>{p}", 3),
        ("K4DI", "[d](p | q) -> [d]p | [d]q", 3),
        ("K4C", "O p -> O O O p", 3),
        ("K4I", "O (p | q) -> O O O p | O O O q", 3),
        ("K4C", "O p & q -> O O O p | r", 3),
        ("K4C", "O (p & q) & r -> O O O (p & q) | s", 3),
        ("K4C", "O p & q & r & s & t & u & v -> O O p", 2),
    ):
        phi = parse(text)
        result = countermodel_search(phi, logic, max_worlds=worlds)
        # the verdict of the search over every labelled frame
        assert result.found == (oracle_search(phi, LOGICS[logic], worlds)[2] is not None)
        # the counts and the countermodel of a frame-by-frame pass over the classes
        assert (result.frames_checked, result.valuations_checked, result.frame,
                result.valuation, result.world) == oracle_search(
                    phi, LOGICS[logic], worlds, classes)
        if result.found:
            frame = result.frame
            assert LOGICS[logic].admits(frame.classify())
            env = {v: frame.mask(ws) for v, ws in result.valuation.items()}
            assert oracle_sweep(frame, phi, [env]) == (
                1, Countermodel(result.valuation, result.world))


def search_report(result):
    return (result.verdict, result.frames_checked, result.valuations_checked, result.frame,
            result.valuation, result.world)


def test_chunks_of_frames_across_relations_match_the_oracle():
    # Each world count's frames share chunks of 2^(12 - bits) slots.  A
    # formula without O takes one slot per relation, its first map, which
    # stands for all of its maps: "[d][d]p -> [d]p" and "<d>[d]p -> [d]<d>p"
    # first fail at the eighth and the third serial class on 3 worlds, "<d>p
    # -> [d]p" at the fifth class on 2 worlds, past slot 0 of a chunk of
    # 17 and 8 slots.  "<d><d>p & O p -> O <d><d>p | p" first fails on a K4I
    # frame of 4 worlds with 992 before it on 4 worlds, past three chunks of
    # 256 slots.  Without variables a slot is one lane: "<d>T", "[d]F", "T"
    # and "O <d>T -> <d>T", and the one serial class on one world is a
    # chunk of one lane.  Two variables at 3 worlds make chunks of 64 slots.
    classes = classes_by_size(4)
    for text, logics, worlds in (
        ("[d][d]p -> [d]p", ("K4DC", "K4DI"), 3),
        ("<d>[d]p -> [d]<d>p", ("K4DC",), 3),
        ("<d>p -> [d]p", ("K4C",), 3),
        ("<d><d>p & O p -> O <d><d>p | p", ("K4I",), 4),
        ("<d>T", LOGICS, 3), ("[d]F", LOGICS, 3), ("T", LOGICS, 3),
        ("O <d>T -> <d>T", LOGICS, 3),
        ("O (p & q) -> O p & O <d.>q", ("K4DI",), 3),
    ):
        phi = parse(text)
        for name in logics:
            result = countermodel_search(phi, name, max_worlds=worlds)
            assert search_report(result)[1:] == oracle_search(phi, LOGICS[name], worlds, classes)

    def slot(text, name, worlds):
        """The refuting relation's place among the logic's classes on its worlds."""
        frame = countermodel_search(parse(text), name, max_worlds=worlds).frame
        level = [s for s in classes[frame.n] if all(s) or not LOGICS[name].serial]
        return frame.n, level.index(tuple(frame.succ_mask(w) for w in range(frame.n)))

    assert slot("[d][d]p -> [d]p", "K4DI", 3) == slot("[d][d]p -> [d]p", "K4DC", 3) == (3, 7)
    assert slot("<d>[d]p -> [d]<d>p", "K4DC", 3) == (3, 2)
    assert slot("<d>p -> [d]p", "K4C", 3) == (2, 4)
    with_o = countermodel_search(parse("<d><d>p & O p -> O <d><d>p | p"), "K4I", max_worlds=4)
    assert with_o.frame.n == 4 and with_o.frames_checked == 2 + 22 + 351 + 993


def test_slot_masks_and_sweep_position_read_the_lane_layout():
    # a chunk of exhaustive_passes puts each slot's frame in lanes of its
    # own: slot j's lanes alone refute phi as a sweep of frame j alone
    # does, and the last lane a sweep counts is (the first refuted slot,
    # the code of its countermodel)
    rng = random.Random(34)
    frames = [f for f in (random_class_frame(rng, 3, LOGICS["K4C"]) for _ in range(60))
              if f.n == 3]
    phi = parse("<d>p & O q -> [d]q")
    program = semantics.Program(phi)
    slots = [(f._succ, f._func) for f in frames]
    (ev, masks), = semantics.exhaustive_passes(frames[0], 2, slots)
    regions = ev.slot_masks()
    assert len(regions) == len(frames) and sum(regions) == ev.full
    assert all(a & b == 0 for a, b in itertools.combinations(regions, 2))
    env = dict(zip(("p", "q"), masks))
    value = ev.compile(program)(env)
    verdicts = [valid_on_frame(f, phi) for f in frames]
    assert 0 < sum(v.valid for v in verdicts) < len(frames)
    for region, verdict in zip(regions, verdicts):
        hit = ev.refutation(value | ev.full ^ region, env, ("p", "q"))
        assert (hit and hit[1]) == verdict.countermodel
    for first in range(len(frames)):
        checked, cm = semantics.sweep(program, semantics.exhaustive_passes(
            frames[0], 2, slots[first:]))
        refuted = [i for i, v in enumerate(verdicts[first:]) if not v.valid]
        if refuted:
            i = refuted[0]
            assert cm == verdicts[first + i].countermodel
            assert semantics.sweep_position(6, checked) == (i, verdicts[first + i].checked - 1)
        else:
            assert cm is None and checked == len(slots[first:]) << 6


def test_one_slot_per_relation_gives_the_reports_of_every_map(monkeypatch):
    # with the rule patched off, a formula without O sweeps every map: the
    # theorems and non-theorems without O, and those with O as a control
    formulas = [parse(t) for t in (
        "[d]p -> [d][d]p", "<t>{p, <d>p} -> <d>p", "[d][d]p -> [d]p", "<d>[d]p -> [d]<d>p",
        "[d](p | q) -> [d]p | [d]q", "<d>T", "<d>O p -> O <d>p",
        "<d><d>p & O p -> O <d><d>p | p")]
    for name in LOGICS:
        for worlds in (3, 4):
            fast = [search_report(countermodel_search(phi, name, max_worlds=worlds))
                    for phi in formulas]
            with monkeypatch.context() as patched:
                patched.setattr(logic, "_reads_map", lambda program: True)
                full = [search_report(countermodel_search(phi, name, max_worlds=worlds))
                        for phi in formulas]
            assert fast == full


def test_search_evaluates_only_counted_valuations(monkeypatch):
    # C-dia holds on every K4DI frame and reads O, so the search sweeps
    # every map of every relation up to 4 worlds: each lane of each
    # evaluator is one valuation on one frame, counted once
    widths = recorded_widths(monkeypatch)
    result = countermodel_search(parse("<d>O p -> O <d>p"), "K4DI", max_worlds=4)
    assert not result.found
    assert result.frames_checked == result.stats["frames_swept"]
    assert sum(widths) == result.valuations_checked == result.stats["valuations_swept"]
    # K reads no map: each relation's first map stands for all of them, so
    # fewer frames and valuations are swept than the search covers
    widths.clear()
    result = countermodel_search(parse("[d](p -> q) -> [d]p -> [d]q"), "K4DI", max_worlds=4)
    assert not result.found and result.valuations_checked == 986_516
    assert result.stats["frames_swept"] < result.frames_checked
    assert sum(widths) == result.stats["valuations_swept"] < result.valuations_checked
