import random

import pytest

from tanglemc.frame import Frame, check_frame_pmorphism, duplicate_reflexive, transitive_closure
from tanglemc import story as story_module
from tanglemc.story import (
    Story,
    StoryError,
    moment_from_frame,
    story_class,
    story_oplus,
    validate_moment,
    validate_story,
)

import generators
from generators import compose_moment, random_moment, random_story
from test_frame import frame_f1


def assembled(story):
    """The flat frame of a story: the disjoint union of its levels, with
    its maps glued into one function.  Level i's world w is named "i:w"."""
    worlds, succ = [], []
    for i, m in enumerate(story.levels):
        offset = len(worlds)
        worlds.extend(f"{i}:{w}" for w in m.worlds)
        succ.extend(m.frame.succ_mask(k) << offset for k in range(m.frame.n))
    index = {w: k for k, w in enumerate(worlds)}
    func = [0] * len(worlds)
    for i, m in enumerate(story.levels):
        tgt, fmap = min(i + 1, story.duration), story.level_map(i)
        for w in m.worlds:
            func[index[f"{i}:{w}"]] = index[f"{tgt}:{fmap[w]}"]
    return Frame(worlds, succ, func)


def f1_moment_level():
    return {
        "worlds": ["a", "b"],
        "rel": [["a", "b"], ["b", "b"]],
        "root": "a",
        "valuation": {},
    }


def single_world_level(name, reflexive):
    return {
        "worlds": [name],
        "rel": [[name, name]] if reflexive else [],
        "root": name,
        "valuation": {},
    }


def test_single_level_identity_story_is_valid():
    story = validate_story({"levels": [f1_moment_level()], "maps": []})
    assert story.duration == 0
    assert story.immersive
    # explicit identity map on the last level is also accepted
    story2 = validate_story(
        {"levels": [f1_moment_level()], "maps": [{"a": "a", "b": "b"}]}
    )
    assert story2.duration == 0


def test_two_level_collapse_onto_reflexive_rejected():
    data = {
        "levels": [f1_moment_level(), single_world_level("c", reflexive=True)],
        "maps": [{"a": "c", "b": "c"}],
    }
    with pytest.raises(StoryError) as e:
        validate_story(data)
    assert e.value.condition == "almost-injective"


def test_two_level_collapse_onto_irreflexive_is_valid_not_immersive():
    data = {
        "levels": [f1_moment_level(), single_world_level("c2", reflexive=False)],
        "maps": [{"a": "c2", "b": "c2"}],
    }
    story = validate_story(data)
    assert not story.immersive
    assert story_class(story) == frozenset({"K4C"})


def test_story_condition_mutations_each_get_their_diagnostic():
    # base story: two copies of a root->reflexive-top chain, mapped by copy
    def chain_level(suffix):
        return {
            "worlds": [f"r{suffix}", f"t{suffix}"],
            "rel": [[f"r{suffix}", f"t{suffix}"], [f"t{suffix}", f"t{suffix}"]],
            "root": f"r{suffix}",
            "valuation": {},
        }

    base = {
        "levels": [chain_level(0), chain_level(1)],
        "maps": [{"r0": "r1", "t0": "t1"}],
    }
    assert validate_story(base).immersive

    broken = {
        "levels": [chain_level(0), chain_level(1)],
        "maps": [{"r0": "t1", "t0": "r1"}],  # order reversed
    }
    with pytest.raises(StoryError) as e:
        validate_story(broken)
    assert e.value.condition == "monotonic"

    # send the root to the top but keep monotonicity: collapse both onto t1
    # is almost-injective-breaking, so use a three-world target instead
    rooty = {
        "levels": [single_world_level("x", True), chain_level(1)],
        "maps": [{"x": "t1"}],
    }
    with pytest.raises(StoryError) as e:
        validate_story(rooty)
    assert e.value.condition == "root-preserving"

    collapse = {
        "levels": [chain_level(0), chain_level(1)],
        "maps": [{"r0": "t1", "t0": "t1"}],
    }
    with pytest.raises(StoryError) as e:
        validate_story(collapse)
    assert e.value.condition in ("root-preserving", "almost-injective")

    almost = {
        "levels": [
            {
                "worlds": ["r0", "u0", "v0"],
                "rel": [["r0", "u0"], ["r0", "v0"], ["u0", "u0"], ["u0", "v0"],
                        ["v0", "v0"], ["v0", "u0"]],
                "root": "r0",
                "valuation": {},
            },
            chain_level(1),
        ],
        "maps": [{"r0": "r1", "u0": "t1", "v0": "t1"}],
    }
    with pytest.raises(StoryError) as e:
        validate_story(almost)
    assert e.value.condition == "almost-injective"

    # reflexive singleton mapped into a two-world cluster: only
    # cluster-preservation fails
    cluster = {
        "levels": [
            single_world_level("x", True),
            {
                "worlds": ["u1", "v1"],
                "rel": [["u1", "u1"], ["u1", "v1"], ["v1", "u1"], ["v1", "v1"]],
                "root": "u1",
                "valuation": {},
            },
        ],
        "maps": [{"x": "u1"}],
    }
    with pytest.raises(StoryError) as e:
        validate_story(cluster)
    assert e.value.condition == "cluster-preserving"

    stab = {
        "levels": [chain_level(0), chain_level(1)],
        "maps": [{"r0": "r1", "t0": "t1"}, {"r1": "t1", "t1": "t1"}],
    }
    with pytest.raises(StoryError) as e:
        validate_story(stab)
    assert e.value.condition == "stabilising"


def test_structure_errors():
    with pytest.raises(StoryError, match="structure"):
        validate_story({"levels": [], "maps": []})
    with pytest.raises(StoryError, match="structure"):
        validate_story({"levels": [f1_moment_level()], "maps": [{}, {}]})
    with pytest.raises(StoryError, match="structure"):
        validate_story({
            "levels": [f1_moment_level(), single_world_level("c", False)],
            "maps": [{"a": "c"}],  # not total
        })
    # non tree-like moment
    with pytest.raises(StoryError, match="structure"):
        validate_moment(["r", "x", "y", "z"],
                        [["r", "x"], ["r", "y"], ["r", "z"], ["x", "z"], ["y", "z"]],
                        "r")


def test_tree_like_witness_matches_the_triple_loop():
    # the first (c, a, b) in index order with a and b both below c (or c
    # itself) and incomparable, found by the plain triple loop
    def first_bad(ws, succ):
        n = len(ws)
        for c in range(n):
            below = [a for a in range(n) if a == c or succ[a] >> c & 1]
            for a in below:
                for b in below:
                    if a != b and not (succ[a] >> b & 1 or succ[b] >> a & 1):
                        return (f"structure: not tree-like: {ws[a]!r} and "
                                f"{ws[b]!r} both below {ws[c]!r}")
        return None

    rng = random.Random(31)
    bad = 0
    for _ in range(600):
        n = rng.randint(3, 6)
        succ = [sum(1 << j for j in range(1, n) if rng.random() < 0.25) for _ in range(n)]
        succ[0] |= ((1 << n) - 1) & ~1  # world 0 is the root
        succ = transitive_closure(succ)
        ws = rng.sample("abcdefgh", n)
        rel = [[ws[i], ws[j]] for i in range(n) for j in range(n) if succ[i] >> j & 1]
        want = first_bad(ws, succ)
        try:
            validate_moment(ws, rel, ws[0])
            got = None
        except StoryError as e:
            got = str(e)
        assert got == want
        bad += want is not None
    assert bad > 50


def test_compose_moment_examples():
    solo = compose_moment("x", ["x"], "irreflexive", [], {})
    assert solo.worlds == ("x",) and solo.rel == ()

    leaf = compose_moment("l", ["l"], "irreflexive", [], {})
    chain = compose_moment("x", ["x"], "reflexive", [leaf], {})
    assert set(chain.rel) == {("x", "x"), ("x", "l")}

    s1 = compose_moment("l1", ["l1"], "irreflexive", [], {})
    s2 = compose_moment("l2", ["l2"], "irreflexive", [], {})
    four = compose_moment("x", ["x", "y"], "reflexive", [s1, s2], {"p": ["x"]})
    assert len(four.worlds) == 4
    assert ("x", "y") in four.rel and ("y", "x") in four.rel
    assert ("y", "l1") in four.rel and ("x", "l2") in four.rel
    assert four.valuation == {"p": frozenset({"x"})}


def test_compose_moment_preconditions():
    with pytest.raises(ValueError):
        compose_moment("x", ["x", "y"], "irreflexive", [], {})
    with pytest.raises(ValueError):
        compose_moment("x", ["y"], "reflexive", [], {})
    dup = compose_moment("x", ["x"], "reflexive", [], {})
    with pytest.raises(ValueError):
        compose_moment("x", ["x"], "reflexive", [dup], {})


def test_compose_moment_height():
    # each composition puts one more cluster below the last: three in a chain
    leaf = compose_moment("l", ["l"], "reflexive", [], {})
    assert leaf.rel == (("l", "l"),)
    mid = compose_moment("m", ["m"], "irreflexive", [leaf], {})
    assert mid.worlds == ("m", "l") and mid.rel == (("l", "l"), ("m", "l"))
    top = compose_moment("t", ["t", "u"], "reflexive", [mid], {})
    assert top.root == "t" and top.worlds == ("t", "u", "m", "l")
    assert top.rel == tuple(sorted(
        [(a, b) for a in "tu" for b in "tuml"] + [("m", "l"), ("l", "l")]))
    assert sorted(top.frame.cluster_masks()) == [0b0011, 0b0100, 0b1000]


def test_story_class_examples():
    single = validate_story(
        {"levels": [single_world_level("w", True)], "maps": []}
    )
    assert story_class(single) == frozenset({"K4C", "K4DC", "K4I", "K4DI"})
    collapse = validate_story({
        "levels": [f1_moment_level(), single_world_level("c2", False)],
        "maps": [{"a": "c2", "b": "c2"}],
    })
    assert story_class(collapse) == frozenset({"K4C"})


def test_assembled_frame_is_monotone_and_immersive_when_story_is():
    rng = random.Random(31)
    for _ in range(30):
        story = random_story(rng, rng.randint(0, 2), allow_clusters=True,
                             max_level_worlds=12)
        flags = assembled(story).classify()
        assert flags.transitive and flags.monotonic
        if story.immersive:
            assert flags.strictly_monotonic
    imm = random_story(random.Random(5), 2, immersive=True)
    assert imm.immersive
    assert assembled(imm).classify().strictly_monotonic


def test_random_story_gives_up_after_level_tries(monkeypatch):
    monkeypatch.setattr(generators, "LEVEL_TRIES", 20)
    # no level has zero worlds: the first level's draws run out
    with pytest.raises(ValueError, match="at most 0 worlds in 20 draws"):
        random_story(random.Random(0), 1, max_level_worlds=0)
    # with two draws per level, some one-world story runs out at a later level
    monkeypatch.setattr(generators, "LEVEL_TRIES", 2)
    prefixes = []
    transform = generators._transform_moment

    def counted(rng, m, prefix, **kwargs):
        prefixes.append(prefix)
        return transform(rng, m, prefix, **kwargs)

    monkeypatch.setattr(generators, "_transform_moment", counted)
    for seed in range(100):
        prefixes.clear()
        try:
            random_story(random.Random(seed), 3, max_level_worlds=1)
        except ValueError:
            if prefixes:
                break
    else:
        pytest.fail("no seed ran out of draws at a later level")
    assert prefixes.count(prefixes[-1]) == 2


def test_story_oplus_yields_story_with_fat_clusters():
    rng = random.Random(41)
    for _ in range(40):
        story = random_story(rng, rng.randint(0, 2), allow_clusters=True,
                             max_level_worlds=12)
        lifted, projections = story_oplus(story)
        # the lift checks only the story conditions; rebuilt from its story
        # file, which checks every level again, it is the same story
        assert lifted == validate_story(lifted.to_dict())
        for m in lifted.levels:
            f = m.frame
            for c in f.cluster_masks():
                i = (c & -c).bit_length() - 1
                if f.is_reflexive(i):
                    assert bin(c).count("1") >= 2
        # level projections glue into a frame p-morphism of the assembled frames
        big, orig = assembled(lifted), assembled(story)
        glued = {}
        for i, proj in enumerate(projections):
            for w, o in proj.items():
                glued[f"{i}:{w}"] = f"{i}:{o}"
        assert check_frame_pmorphism(big, orig, glued).ok


def test_story_oplus_commutes_with_assembly():
    # with no tick in any name, every level takes the same single tick
    rng = random.Random(43)
    for k in range(60):
        story = random_story(rng, rng.randint(0, 3), serial=k % 3 == 0,
                             immersive=k % 4 == 0, allow_clusters=k % 2 == 0,
                             max_level_worlds=9)
        assert not any("'" in w for m in story.levels for w in m.worlds)
        lifted, _ = story_oplus(story)
        assert assembled(lifted) == duplicate_reflexive(assembled(story))[0]


def test_story_oplus_avoids_taken_names():
    def level(x):
        return {"worlds": [x, x + "'"], "rel": [[x, x], [x, x + "'"]], "root": x}

    story = validate_story({"levels": [level("a"), level("b")],
                            "maps": [{"a": "b", "a'": "b'"}]})
    lifted, projections = story_oplus(story)
    assert [m.worlds for m in lifted.levels] == [("a", "a''", "a'"), ("b", "b''", "b'")]
    assert lifted.maps == ({"a": "b", "a''": "b''", "a'": "b'"},)
    assert projections[0] == {"a": "a", "a''": "a", "a'": "a'"}


def test_moment_keeps_its_frame():
    m = validate_moment(["r", "x"], [["x", "x"], ["r", "x"]], "r", {"p": ["x"]})
    assert m.frame.worlds == m.worlds == ("r", "x")
    assert m.frame.func_map() == {"r": "r", "x": "x"}
    assert m.rel == (("r", "x"), ("x", "x"))
    assert m.frame.is_reflexive(1) and not m.frame.is_reflexive(0)


def test_story_oplus_preserves_immersive():
    story = random_story(random.Random(8), 2, immersive=True)
    lifted, _ = story_oplus(story)
    assert lifted.immersive


def reflexive_image_story(rng):
    """A random two-level story whose map copies its first level onto a
    second in which one irreflexive world has become reflexive."""
    while True:
        m = random_moment(rng, prefix="a")
        irreflexive = [w for i, w in enumerate(m.worlds) if not m.frame.is_reflexive(i)]
        if irreflexive:
            break
    level = Story((m,), (), False).to_dict()["levels"][0]
    x = rng.choice(irreflexive)
    upper = dict(level, rel=level["rel"] + [[x, x]])
    return validate_story({"levels": [level, upper],
                           "maps": [{w: w for w in level["worlds"]}]})


def test_story_oplus_rejects_irreflexive_to_reflexive(monkeypatch):
    # legal stories whose lifts are not stories: a singleton cluster on
    # both sides, and random copies that make one irreflexive world
    # reflexive; each is rejected as its lift's story file is
    stories = [validate_story({
        "levels": [single_world_level("x", False), single_world_level("y", True)],
        "maps": [{"x": "y"}],
    })]
    rng = random.Random(47)
    stories += [reflexive_image_story(rng) for _ in range(5)]
    for story in stories:
        with monkeypatch.context() as patched:  # the lift, unchecked
            patched.setattr(story_module, "_check_conditions", lambda *args: False)
            unchecked, _ = story_oplus(story)
        with pytest.raises(StoryError) as expected:
            validate_story(unchecked.to_dict())
        with pytest.raises(StoryError) as raised:
            story_oplus(story)
        assert raised.value.condition == expected.value.condition
        assert str(raised.value) == str(expected.value)


def test_moment_from_frame_infers_root():
    m = moment_from_frame(frame_f1())
    assert m.root == "a"


def chain_frame(n):
    full = (1 << n) - 1
    return Frame([f"c{i}" for i in range(n)], [full ^ ((2 << i) - 1) for i in range(n)],
                 range(n))


def test_moment_from_frame_checks_as_validate_moment():
    # a frame goes to the mask-level checks directly; its relation's name
    # pairs through validate_moment must give the same moment or message
    chain = chain_frame(6)
    vee = Frame(["r", "a", "b", "c"], [0b1110, 0b1000, 0b1000, 0], [0, 0, 0, 0])
    for frame, root, valuation in (
        (chain_frame(400), "c0", {"p": ["c3", "c399"]}),
        (chain, "c0", None),
        (chain, "c0", {"p": ["zz"]}),
        (chain, "c0", {"p": "c3"}),
        (vee, "r", None),
    ):
        outcomes = []
        for build in (lambda: moment_from_frame(frame, valuation),
                      lambda: validate_moment(frame.worlds, frame.rel_pairs(), root, valuation)):
            try:
                outcomes.append(build())
            except StoryError as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1]
    assert moment_from_frame(chain).root == "c0"
    assert outcomes[0] == "structure: not tree-like: 'a' and 'b' both below 'c'"
    for root, message in (("c5", "root does not reach 'c0'"), ("zz", "unknown root 'zz'")):
        with pytest.raises(StoryError, match=f"^structure: {message}$"):
            validate_moment(chain.worlds, chain.rel_pairs(), root)


def test_moment_from_frame_keeps_the_frame():
    # a frame with the identity map is kept; any other map is replaced by
    # the identity, the map validate_moment gives a moment
    frame = Frame(["r", "x"], [0b10, 0b10], [0, 1])
    assert moment_from_frame(frame).frame is frame
    m = moment_from_frame(Frame(["r", "x"], [0b10, 0b10], [1, 1]))
    assert m.frame == frame and m.root == "r"


def test_moment_from_frame_round_trips_through_its_story_file():
    # frame_f1 maps both worlds to b; the story file has no frame maps.
    # A one-level story is immersive, as pathspace-verify --frame builds it
    story = Story((moment_from_frame(frame_f1()),), (), True)
    assert story == validate_story(story.to_dict())
    lifted, _ = story_oplus(story)
    assert lifted == validate_story(lifted.to_dict())


def test_random_moment_is_valid():
    rng = random.Random(2)
    for _ in range(20):
        m = random_moment(rng)
        validate_moment(m.worlds, m.rel, m.root, m.valuation)


def _two_star_story(n):
    """Two levels, each a root below n - 1 leaves, mapped leaf to leaf,
    with the explicit identity as the last map."""
    levels = [{"worlds": [f"r{i}", *(f"l{i}_{k}" for k in range(n - 1))], "root": f"r{i}",
               "rel": [[f"r{i}", f"l{i}_{k}"] for k in range(n - 1)]} for i in (0, 1)]
    first = {"r0": "r1", **{f"l0_{k}": f"l1_{k}" for k in range(n - 1)}}
    return {"levels": levels, "maps": [first, {w: w for w in levels[1]["worlds"]}]}


def test_map_checks_read_the_level_worlds_a_fixed_number_of_times(monkeypatch):
    # a map's images are looked up in the next level's index, not scanned
    # in its world tuple, so the reads of Moment.worlds do not grow with n
    reads = []
    worlds = story_module.Moment.worlds

    def counting(m):
        reads.append(m)
        return worlds.fget(m)

    monkeypatch.setattr(story_module.Moment, "worlds", property(counting))
    counts = []
    for n in (10, 1000):
        reads.clear()
        st = validate_story(_two_star_story(n))
        assert len(st.levels[1].frame.worlds) == n and st.immersive
        counts.append(len(reads))
    assert counts[0] == counts[1]
