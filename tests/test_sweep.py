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

from hypothesis import given, settings, strategies as st

from tanglemc.formula import (
    And, Box, Diamond, Implies, Neg, Next, Or, Tangle, Var, dot_diamond, parse, vars_of,
)
from tanglemc.frame import Frame, _monotone_witness, _transitivity_witness
from tanglemc.logic import (
    LOGICS, SCHEMAS, _monotone_maps, _schema_program, _transitive_classes,
    countermodel_search, random_class_frame, random_formula,
)
from tanglemc import semantics
from tanglemc.semantics import (
    PACKED_BITS_LIMIT, Countermodel, Evaluator, Verdict, _mask_bits, _sample_widths,
    valid_on_frame,
)

from generators import random_transitive_frame
from test_semantics import disjoint_union


def oracle_mask(frame, phi, env):
    full, ev = frame.full_mask, lambda f: oracle_mask(frame, f, env)
    if isinstance(phi, Var):
        return env.get(phi.name, 0)
    if isinstance(phi, (And, Or, Implies)):
        a, b = ev(phi.left), ev(phi.right)
        return a & b if isinstance(phi, And) else a | b if isinstance(phi, Or) else (full ^ a) | b
    if isinstance(phi, Neg):
        return full ^ ev(phi.child)
    if isinstance(phi, (Diamond, Box)):
        c = ev(phi.child)
        return frame.down_mask(c) if isinstance(phi, Diamond) else full ^ frame.down_mask(full ^ c)
    if isinstance(phi, Next):
        c = ev(phi.child)
        return sum(1 << w for w in range(frame.n) if c >> frame.func_index(w) & 1)
    a = full
    while True:
        new = a
        for f in phi.args:
            new &= frame.down_mask(ev(f) & a)
        if new == a:
            return a
        a = new


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


def brute_monotone_maps(succ, strict):
    n = len(succ)
    return [func for func in itertools.product(range(n), repeat=n)
            if _monotone_witness(succ, succ, func, strict) is None]


def classes_by_size(max_worlds):
    """The generator's relations on at most max_worlds worlds, by size."""
    by_size = [[] for _ in range(max_worlds + 1)]
    for succ in _transitive_classes():
        if len(succ) > max_worlds:
            return by_size
        by_size[len(succ)].append(succ)


def test_transitive_relations_match_brute_force():
    # one relation per isomorphism class: transitive, pairwise non-isomorphic,
    # and every labelled transitive relation is isomorphic to one of them
    for n, relations in enumerate(classes_by_size(4)):
        assert len(relations) == (1, 2, 8, 39, 242)[n]
        assert all(_transitivity_witness(succ) is None for succ in relations)
        forms = [brute_canonical_form(succ) for succ in relations]
        assert len(set(forms)) == len(forms)
        assert set(forms) == {brute_canonical_form(succ) for succ in brute_transitive_succs(n)}


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
                checked, cm = oracle_sweep(frame, phi, exhaustive_envs(frame, phi))
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
        down, pre, full = ev.down, ev.preimage, ev.full
        region = (1 << (3 * lanes)) - 1
        env = {v: sum(m << (3 * k * lanes) for k in range(len(parts))) for v, m in part.items()}
        metas = [[*f, *(s or ()), *([] if t is None else [t])] for _, (f, s, t) in parts]
        for i in range(len(metas[0])):
            env[f"_{i}"] = sum(
                ev.compile(slots[i])(env) & region << (3 * k * lanes) for k, slots in enumerate(metas))
        value = _schema_program(name, size).run(env, down, pre, full)
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


def test_search_evaluates_only_counted_valuations(monkeypatch):
    # K holds on every frame, so the search sweeps every map of every
    # relation up to 4 worlds: each lane of each evaluator is one
    # valuation under one map, and none of them repeats a map of its chunk
    widths = recorded_widths(monkeypatch)
    result = countermodel_search(parse("[d](p -> q) -> [d]p -> [d]q"), "K4DI", max_worlds=4)
    assert not result.found
    assert len(widths) == 303
    assert sum(widths) == result.valuations_checked == 986_516
