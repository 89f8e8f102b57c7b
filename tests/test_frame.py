import random

import pytest
from hypothesis import given, settings, strategies as st

from tanglemc.frame import (
    Frame,
    FrameError,
    _image_ranges,
    _monotone_witness,
    _pairs,
    _transitivity_witness,
    check_frame_pmorphism,
    duplicate_reflexive,
    frame_from_dict,
    pullback_valuation,
    transitive_closure,
    validate_frame,
)

from generators import monotone_witness_by_definition, random_transitive_frame


def frame_f1():
    return validate_frame(["a", "b"], [["a", "b"], ["b", "b"]], {"a": "b", "b": "b"})


def frame_f2():
    return validate_frame(["o"], [], {"o": "o"})


def frame_f3():
    rel = [["q1", "q1"], ["q1", "q2"], ["q2", "q1"], ["q2", "q2"]]
    return validate_frame(["q1", "q2", "o"], rel, {"q1": "o", "q2": "o", "o": "o"})


def test_validate_accepts_f1():
    f = frame_f1()
    assert f.worlds == ("a", "b")
    assert set(f.rel_pairs()) == {("a", "b"), ("b", "b")}


def test_validate_rejects_missing_transitivity():
    with pytest.raises(FrameError, match=r"missing \(a, c\)"):
        validate_frame(
            ["a", "b", "c"], [["a", "b"], ["b", "c"]],
            {"a": "a", "b": "b", "c": "c"},
        )


def test_validate_closes_transitively():
    f = validate_frame(
        ["a", "b", "c"], [["a", "b"], ["b", "c"]],
        {"a": "a", "b": "b", "c": "c"}, close_transitively=True,
    )
    assert set(f.rel_pairs()) == {("a", "b"), ("b", "c"), ("a", "c")}


def test_validate_rejects_bad_references_and_partial_func():
    with pytest.raises(FrameError):
        validate_frame(["a"], [["a", "z"]], {"a": "a"})
    with pytest.raises(FrameError):
        validate_frame(["a", "b"], [], {"a": "a"})
    with pytest.raises(FrameError):
        validate_frame(["a", "a"], [], {"a": "a"})


def test_down_examples():
    f = frame_f1()  # a -> b -> b
    assert f.down_mask(0) == 0
    assert f.down_mask(0b10) == 0b11
    assert f.down_mask(0b01) == 0


def test_cluster_examples():
    assert frame_f1().cluster_masks() == [0b01, 0b10]
    assert frame_f3().cluster_masks() == [0b011, 0b100]  # {q1, q2}, {o}
    assert frame_f2().cluster_masks() == [0b1]


def test_classify_examples():
    c1 = frame_f1().classify()
    assert (c1.transitive, c1.serial, c1.monotonic, c1.strictly_monotonic) == (
        True, True, True, True)
    c3 = frame_f3().classify()
    assert c3.monotonic and not c3.strictly_monotonic
    assert not frame_f2().classify().serial


def test_duplicate_reflexive_f2_is_identity():
    f = frame_f2()
    g, proj = duplicate_reflexive(f)
    assert g == f
    assert proj == {"o": "o"}


def test_duplicate_reflexive_f1():
    g, proj = duplicate_reflexive(frame_f1())
    assert g.worlds == ("a", "b", "b'")
    pairs = set(g.rel_pairs())
    assert ("a", "b") in pairs and ("a", "b'") in pairs
    assert {("b", "b"), ("b", "b'"), ("b'", "b"), ("b'", "b'")} <= pairs
    assert ("a", "a") not in pairs
    assert g.func_map() == {"a": "b", "b": "b", "b'": "b'"}
    assert check_frame_pmorphism(g, frame_f1(), proj).ok


def test_duplicate_reflexive_tick_collision():
    f = validate_frame(["a", "a'"], [["a", "a"]], {"a": "a", "a'": "a'"})
    g, proj = duplicate_reflexive(f)
    assert len(set(g.worlds)) == 3
    assert proj[g.worlds[1]] == "a"


def test_pmorphism_violations_detected():
    f1 = frame_f1()
    # identity worlds but different transition functions: commuting fails
    chain = validate_frame(["a", "b"], [["a", "b"], ["b", "b"]], {"a": "a", "b": "b"})
    res = check_frame_pmorphism(chain, f1, {"a": "a", "b": "b"})
    assert not res.ok and any("commute" in v for v in res.violations)
    # collapsing F1 onto the irreflexive single point breaks forth
    res2 = check_frame_pmorphism(f1, frame_f2(), {"a": "o", "b": "o"})
    assert not res2.ok and any("forth" in v for v in res2.violations)
    # mapping the bottom of the chain up breaks back
    res3 = check_frame_pmorphism(frame_f2(), f1, {"o": "a"})
    assert not res3.ok and any("back" in v for v in res3.violations)


def test_frame_from_dict_valuation():
    f, val = frame_from_dict(
        {"worlds": ["a", "b"], "rel": [["a", "b"], ["b", "b"]],
         "func": {"a": "b", "b": "b"}, "valuation": {"p": ["b"]}}
    )
    assert val == {"p": frozenset({"b"})}
    with pytest.raises(FrameError):
        frame_from_dict({"worlds": ["a"], "rel": []})


def test_pullback_valuation():
    g, proj = duplicate_reflexive(frame_f1())
    pulled = pullback_valuation(proj, {"p": {"b"}})
    assert pulled == {"p": frozenset({"b", "b'"})}


def _random_frame(rng, max_worlds=5):
    n = rng.randint(1, max_worlds)
    succ = [0] * n
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.4:
                succ[i] |= 1 << j
    succ = transitive_closure(succ)
    func = [rng.randrange(n) for _ in range(n)]
    return Frame([f"w{i}" for i in range(n)], succ, func)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_down_is_a_derivative_operator(seed):
    rng = random.Random(seed)
    f = _random_frame(rng)
    full = f.full_mask
    a = rng.getrandbits(f.n) & full
    b = rng.getrandbits(f.n) & full
    assert f.down_mask(0) == 0
    assert f.down_mask(a | b) == f.down_mask(a) | f.down_mask(b)
    assert f.down_mask(f.down_mask(a)) & ~f.down_mask(a) == 0


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_classify_is_renaming_invariant(seed):
    rng = random.Random(seed)
    f = _random_frame(rng)
    perm = list(range(f.n))
    rng.shuffle(perm)
    inv = {perm[i]: i for i in range(f.n)}
    worlds = [f.worlds[perm[i]] for i in range(f.n)]
    succ = [0] * f.n
    for i in range(f.n):
        for j in range(f.n):
            if (f.succ_mask(perm[i]) >> perm[j]) & 1:
                succ[i] |= 1 << j
    func = [inv[f.func_index(perm[i])] for i in range(f.n)]
    assert Frame(worlds, succ, func).classify() == f.classify()


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_strict_monotone_implies_monotone(seed):
    rng = random.Random(seed)
    flags = _random_frame(rng).classify()
    if flags.strictly_monotonic:
        assert flags.monotonic


def test_monotone_witness_is_the_definition():
    # source and target relations of 1-5 worlds each, as a story level map
    # goes from one level to the next, transitive or not, reflexive loops
    # included; a map into the target under both strictnesses.  The
    # witness is the definition's first failing pair in world then
    # successor order, and a map without one keeps every pair
    rng = random.Random(30)
    seen = {(strict, found): 0 for strict in (False, True) for found in (False, True)}
    for _ in range(3000):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        src = [rng.getrandbits(n) for _ in range(n)]
        tgt = [rng.getrandbits(m) for _ in range(m)]
        if rng.random() < 0.5:
            src, tgt = transitive_closure(src), transitive_closure(tgt)
        func = [rng.randrange(m) for _ in range(n)]
        pairs = _pairs(src)
        assert pairs == [(w, v) for w in range(n) for v in range(n) if src[w] >> v & 1]
        for strict in (False, True):
            witness = _monotone_witness(pairs, _image_ranges(tgt, strict), func)
            assert witness == monotone_witness_by_definition(src, tgt, func, strict)
            seen[strict, witness is not None] += 1
    assert min(seen.values()) > 300


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_duplicate_reflexive_invariants(seed):
    rng = random.Random(seed)
    f = _random_frame(rng)
    g, proj = duplicate_reflexive(f)
    for c in g.cluster_masks():
        i = next(iter([b for b in range(g.n) if (c >> b) & 1]))
        if g.is_reflexive(i):
            assert bin(c).count("1") >= 2
    assert check_frame_pmorphism(g, f, proj).ok


def test_random_transitive_frame_is_transitive_and_big():
    f = random_transitive_frame(500, seed=1)
    assert f.n == 500
    assert f.classify().transitive


def _brute_down(f, mask):
    return sum(1 << w for w in range(f.n) if f.succ_mask(w) & mask)


def _brute_witness(succ):
    """First (w, u) over every pair w R v in world then successor order."""
    for w in range(len(succ)):
        for v in range(len(succ)):
            if succ[w] >> v & 1:
                missing = succ[v] & ~succ[w]
                if missing:
                    return w, (missing & -missing).bit_length() - 1
    return None


def _chain(n, broken=False):
    """Strict chain: world i sees every later world; all rows distinct.
    Broken: 5 R 6 R 30 but not 5 R 30 (4 R 5 keeps 4 R 30)."""
    full = (1 << n) - 1
    succ = [full & ~((2 << i) - 1) for i in range(n)]
    if broken:
        succ[5] &= ~(1 << 30)
    return Frame([f"w{i}" for i in range(n)], succ, range(n))


def _row_class_frames():
    rng = random.Random(6)
    for n, seed in ((40, 1), (120, 2), (300, 3)):
        yield random_transitive_frame(n, seed)
    for n in (40, 80, 300):
        yield _chain(n)
    for n in (40, 300):
        yield _chain(n, broken=True)
    for _ in range(150):
        n = rng.randint(1, 8)
        pool = [rng.getrandbits(n) for _ in range(rng.randint(1, n))]
        succ = [rng.choice(pool) for _ in range(n)]
        yield Frame([f"w{i}" for i in range(n)], succ, [rng.randrange(n) for _ in range(n)])


def test_row_classes_match_brute_force():
    rng = random.Random(7)
    loops = set()
    witnesses = 0
    for f in _row_class_frames():
        succ = [f.succ_mask(w) for w in range(f.n)]
        classes = f._classes
        assert [row for row, _ in classes] == list(dict.fromkeys(succ))
        covered = 0
        for row, members in classes:
            assert covered & members == 0
            covered |= members
            assert all(succ[w] == row for w in range(f.n) if members >> w & 1)
        assert covered == f.full_mask
        for v in range(f.n):
            assert f.pred_mask(v) == sum(1 << w for w in range(f.n) if succ[w] >> v & 1)
        for density in (0.0, 0.02, 0.1, 0.5, 1.0):
            for _ in range(3):
                mask = sum(1 << w for w in range(f.n) if rng.random() < density)
                loops.add(mask.bit_count() < len(classes))
                assert f.down_mask(mask) == _brute_down(f, mask)
        witness = _transitivity_witness(succ)
        assert witness == _brute_witness(succ)
        witnesses += witness is not None
    assert loops == {True, False}
    assert witnesses > 50
    broken = _chain(300, broken=True)
    assert _transitivity_witness([broken.succ_mask(w) for w in range(300)]) == (5, 30)


@pytest.mark.parametrize("entry, message", [
    (["a", "b", "c"], "relation entry ['a', 'b', 'c'] is not a pair"),
    ([], "relation entry [] is not a pair"),
    (5, "relation entries must be pairs of world names"),
    (None, "relation entries must be pairs of world names"),
    ([["x"], "b"], "relation entries must be pairs of world names"),
    (["z", "a"], "unknown world 'z' in relation"),
    (["a", "z"], "unknown world 'z' in relation"),
    (["z", ["x"]], "unknown world 'z' in relation"),
])
def test_relation_entry_errors(entry, message):
    with pytest.raises(FrameError) as info:
        validate_frame(["a", "b"], [["a", "a"], entry], {"a": "a", "b": "b"})
    assert str(info.value) == message


def test_two_letter_string_is_read_as_a_pair():
    f = validate_frame(["a", "b"], ["ab", ["b", "b"]], {"a": "a", "b": "b"})
    assert f.rel_pairs() == [("a", "b"), ("b", "b")]


def test_relation_in_any_order_gives_the_same_frame():
    rng = random.Random(14)
    for seed in range(20):
        f = random_transitive_frame(rng.randint(1, 9), seed)
        func = f.func_map()
        pairs = [list(pair) for pair in f.rel_pairs()]
        # runs that come back to an earlier source, and repeated pairs
        shuffled = pairs + pairs[: len(pairs) // 2]
        rng.shuffle(shuffled)
        assert validate_frame(list(f.worlds), shuffled, func) == f
        assert validate_frame(list(f.worlds), pairs[::-1], func) == f


@pytest.mark.parametrize("last, name", [(["z", "b"], "z"), (["z", "y"], "z"),
                                        (["b", "z"], "z"), (["a", "y"], "y")])
def test_unknown_world_after_a_run_of_known_sources(last, name):
    rel = [["a", "a"], ["a", "b"], ["b", "b"], last]
    with pytest.raises(FrameError) as info:
        validate_frame(["a", "b"], rel, {"a": "a", "b": "b"})
    assert str(info.value) == f"unknown world {name!r} in relation"
