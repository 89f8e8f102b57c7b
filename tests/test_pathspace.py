import itertools
import random
from fractions import Fraction

import pytest

from tanglemc.frame import Frame, duplicate_reflexive, transitive_closure
from tanglemc.pathspace import (
    LimitAssignment,
    Path,
    _count_paths,
    _thin_reflexive_cluster,
    build_limit_assignment,
    enumerate_paths,
    format_path,
    verify_lim_pmorphism,
)
from tanglemc.semantics import Model, truth_set
from tanglemc.story import (
    Moment,
    Story,
    moment_from_frame,
    story_oplus,
    validate_story,
)

from generators import random_formula, random_story
from test_frame import frame_f1, frame_f2, frame_f3


def f1_oplus():
    frame, _ = duplicate_reflexive(frame_f1())
    return frame


def single_level(frame):
    return Story((moment_from_frame(frame),), (), immersive=True)


def path_metric(u, v):
    """Exact dyadic distance 2^-n at the first differing index n."""
    for n in range(max(len(u.prefix), len(v.prefix)) + 1):
        if u.value(n) != v.value(n):
            return Fraction(1, 2 ** n)
    return Fraction(0)


def next_path(p, func):
    """Componentwise image under a level map, re-canonicalised."""
    tail = func[p.tail]
    prefix = [func[w] for w in p.prefix]
    while prefix and prefix[-1] == tail:
        prefix.pop()
    return Path(tuple(prefix), tail)


def test_path_canonical_form_enforced():
    with pytest.raises(ValueError):
        Path(("a", "b"), "b")
    p = Path(("a",), "b")
    assert p.value(0) == "a" and p.value(5) == "b"


def test_format_parse_roundtrip():
    p = Path(("a", "b"), "c")
    assert format_path(p) == str(p) == "a,b;c"
    assert format_path(Path((), "c")) == ";c"
    # a --dump-paths line splits back into its path at its last ";"
    for p in enumerate_paths(f1_oplus(), 3):
        head, _, tail = format_path(p).rpartition(";")
        assert Path(tuple(head.split(",")) if head else (), tail) == p


def test_metric_examples():
    a = Path((), "a")
    ab = Path(("a",), "b")
    assert path_metric(a, a) == 0
    assert path_metric(a, ab) == Fraction(1, 2)
    assert path_metric(ab, a) == Fraction(1, 2)
    # first difference at index 3 after expanding both tails
    u = Path(("a", "b"), "b'")
    v = Path(("a", "b", "b'"), "b")
    assert path_metric(u, v) == Fraction(1, 8)


def test_next_path_examples():
    g = frame_f1().func_map()
    assert next_path(Path((), "a"), g) == Path((), "b")
    assert next_path(Path((), "b"), g) == Path((), "b")
    assert next_path(Path(("a",), "b"), g) == Path((), "b")


def test_enumerate_paths_examples():
    assert enumerate_paths(frame_f2(), 2) == [Path((), "o")]
    assert enumerate_paths(frame_f1(), 0) == [Path((), "a"), Path((), "b")]
    assert enumerate_paths(frame_f1(), 1) == [
        Path((), "a"), Path((), "b"), Path(("a",), "b"),
    ]


def test_enumerated_paths_are_canonical_increasing_and_unique():
    for frame in (frame_f1(), frame_f3(), f1_oplus()):
        paths = enumerate_paths(frame, 4)
        assert len(set(paths)) == len(paths)
        for p in paths:
            seq = list(p.prefix) + [p.tail]
            for a, b in zip(seq, seq[1:]):
                assert a == b or (frame.succ_mask(frame.index(a))
                                  >> frame.index(b)) & 1


def brute_force_paths(frame, bound):
    """Every canonical increasing sequence, sorted by prefix length, prefix
    indices and tail index."""
    def related(a, b):
        return a == b or (frame.succ_mask(a) >> b) & 1

    out = []
    for length in range(bound + 1):
        for prefix in itertools.product(range(frame.n), repeat=length):
            for t in range(frame.n):
                seq = prefix + (t,)
                if (not prefix or prefix[-1] != t) and all(
                        related(a, b) for a, b in zip(seq, seq[1:])):
                    out.append((length, prefix, t))
    out.sort()
    return [Path(tuple(frame.worlds[i] for i in prefix), frame.worlds[t])
            for _, prefix, t in out]


def test_enumerate_paths_matches_brute_force():
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(1, 4)
        succ = [sum(1 << j for j in range(n) if rng.random() < 0.4) for _ in range(n)]
        frame = Frame([f"w{i}" for i in range(n)], succ, list(range(n)))
        closed, _ = duplicate_reflexive(
            Frame(frame.worlds, transitive_closure(succ), range(n)))
        story = Story((Moment(closed, "w0", {}),), (), immersive=True)
        for bound in range(4):
            assert enumerate_paths(frame, bound) == brute_force_paths(frame, bound)
            report = verify_lim_pmorphism(story, build_limit_assignment(story), bound)
            assert report.paths_checked == len(enumerate_paths(closed, bound))


def test_path_count_on_a_wide_star():
    # a root that strictly sees n - 1 leaves: n constant paths, then the n
    # - 1 leaf tails after each prefix (root,) * k, k = 1..r; and the count
    # is the enumeration's on small frames whose relations need not be
    # transitive
    n = 5000
    star = Frame([f"w{i}" for i in range(n)], [((1 << n) - 1) ^ 1] + [0] * (n - 1), [0] * n)
    for r in (0, 1, 3):
        assert _count_paths(star, r) == n + r * (n - 1)
    rng = random.Random(35)
    for _ in range(100):
        k = rng.randint(1, 5)
        frame = Frame([f"w{i}" for i in range(k)], [rng.getrandbits(k) for _ in range(k)],
                      range(k))
        for bound in range(4):
            assert _count_paths(frame, bound) == len(enumerate_paths(frame, bound))


def test_enumerate_paths_on_a_long_chain():
    chain = Frame(["a", "b"], [0b10, 0], [0, 1])
    paths = enumerate_paths(chain, 3000)
    assert len(paths) == 3002
    assert paths[-1] == Path(("a",) * 3000, "b")


def non_transitive_chain():
    # r -> u -> v without r -> v, built directly: validation would refuse it
    return Frame(["r", "u", "v"], [0b010, 0b100, 0], [0, 1, 2])


def test_verify_requires_a_transitive_relation():
    story = Story((Moment(non_transitive_chain(), "r", {}),), (), immersive=True)
    with pytest.raises(ValueError, match=r"^level 0: relation is not transitive: "
                                         r"missing \(r, v\)$"):
        verify_lim_pmorphism(story, build_limit_assignment(story), 3)


def _metric_axioms(frame, bound):
    paths = enumerate_paths(frame, bound)
    for u, v in itertools.combinations(paths, 2):
        assert path_metric(u, v) > 0
        assert path_metric(u, v) == path_metric(v, u)
    for u, v, w in itertools.combinations(paths, 3):
        duv, dvw, duw = path_metric(u, v), path_metric(v, w), path_metric(u, w)
        assert duw <= max(duv, dvw)


def test_metric_is_an_ultrametric_small():
    _metric_axioms(frame_f1(), 3)
    _metric_axioms(frame_f2(), 3)
    _metric_axioms(f1_oplus(), 2)


def test_next_path_is_one_lipschitz():
    for frame in (frame_f1(), frame_f3(), f1_oplus()):
        g = frame.func_map()
        paths = enumerate_paths(frame, 3)
        for u, v in itertools.combinations(paths, 2):
            assert path_metric(next_path(u, g), next_path(v, g)) <= path_metric(u, v)


def test_limit_assignment_first_level_ranks_are_canonical():
    la = build_limit_assignment(single_level(f1_oplus()))
    assert la.ranks[0] == {"a": 0, "b": 1, "b'": 2}


def test_limit_assignment_min_rule_on_collapse():
    # level 0 canonical order r0, v2, x, v1 gives the collapsed pair the
    # ranks 1 and 3, so its image must get rank 1
    data = {
        "levels": [
            {
                "worlds": ["r0", "v2", "x", "v1"],
                "rel": [["r0", "v2"], ["r0", "x"], ["r0", "v1"],
                        ["v1", "v1"], ["v1", "v2"], ["v2", "v1"], ["v2", "v2"]],
                "root": "r0",
                "valuation": {},
            },
            {
                "worlds": ["r1", "w", "y"],
                "rel": [["r1", "w"], ["r1", "y"]],
                "root": "r1",
                "valuation": {},
            },
        ],
        "maps": [{"r0": "r1", "v1": "w", "v2": "w", "x": "y"}],
    }
    story = validate_story(data)
    la = build_limit_assignment(story)
    assert la.ranks[0] == {"r0": 0, "v2": 1, "x": 2, "v1": 3}
    assert la.ranks[1]["w"] == 1
    assert la.ranks[1]["r1"] == 0 and la.ranks[1]["y"] == 2


def test_limit_assignment_identity_keeps_ranks():
    story = random_story(random.Random(3), 2, immersive=True)
    la = build_limit_assignment(story)
    for i, fmap in enumerate(story.maps):
        for w, img in fmap.items():
            assert la.ranks[i + 1][img] == la.ranks[i][w]


def test_limit_assignment_fresh_ranks_on_top():
    rng = random.Random(12)
    for _ in range(20):
        story = random_story(rng, rng.randint(1, 2))
        la = build_limit_assignment(story)
        for i in range(story.duration):
            image = {story.maps[i][w] for w in story.levels[i].worlds}
            ranks = la.ranks[i + 1]
            assert len(set(ranks.values())) == len(ranks)
            if image != set(story.levels[i + 1].worlds):
                top_image = max(ranks[w] for w in image)
                for w in story.levels[i + 1].worlds:
                    if w not in image:
                        assert ranks[w] > top_image


def test_verify_f1_oplus_single_level():
    story = single_level(f1_oplus())
    la = build_limit_assignment(story)
    report = verify_lim_pmorphism(story, la, 6)
    assert report.ok
    assert report.paths_checked > 0


def test_paths_checked_closed_form_without_enumeration():
    # F1-oplus has 2^(r+2) - 1 paths with prefix length <= r
    story = single_level(f1_oplus())
    report = verify_lim_pmorphism(story, build_limit_assignment(story), 60)
    assert report.ok and report.paths_checked == 2 ** 62 - 1


def test_verify_f2_vacuous():
    story = single_level(frame_f2())
    la = build_limit_assignment(story)
    report = verify_lim_pmorphism(story, la, 4)
    assert report.ok


def test_verify_requires_fat_clusters():
    story = single_level(frame_f1())  # b is a lone reflexive world
    la = build_limit_assignment(story)
    with pytest.raises(ValueError, match="duplication"):
        verify_lim_pmorphism(story, la, 3)


def two_cluster_story():
    data = {
        "levels": [
            {
                "worlds": ["r0", "u0", "v0"],
                "rel": [["r0", "u0"], ["r0", "v0"], ["u0", "u0"], ["u0", "v0"],
                        ["v0", "u0"], ["v0", "v0"]],
                "root": "r0",
                "valuation": {},
            },
            {
                "worlds": ["r1", "u1", "v1"],
                "rel": [["r1", "u1"], ["r1", "v1"], ["u1", "u1"], ["u1", "v1"],
                        ["v1", "u1"], ["v1", "v1"]],
                "root": "r1",
                "valuation": {},
            },
        ],
        "maps": [{"r0": "r1", "u0": "u1", "v0": "v1"}],
    }
    return validate_story(data)


def test_verify_two_level_cluster_story_passes():
    story = two_cluster_story()
    la = build_limit_assignment(story)
    assert verify_lim_pmorphism(story, la, 4).ok


def test_corrupted_assignment_fails_commuting():
    story = two_cluster_story()
    la = build_limit_assignment(story)
    ranks0 = dict(la.ranks[0])
    ranks0["u0"], ranks0["v0"] = ranks0["v0"], ranks0["u0"]
    corrupted = LimitAssignment((ranks0, dict(la.ranks[1])))
    report = verify_lim_pmorphism(story, corrupted, 4)
    assert not report.ok
    assert all(v.kind == "commuting" for v in report.violations)


def test_verify_random_lifted_stories():
    rng = random.Random(77)
    for _ in range(10):
        story = random_story(rng, rng.randint(0, 2))
        lifted, _ = story_oplus(story)
        la = build_limit_assignment(lifted)
        report = verify_lim_pmorphism(lifted, la, 4)
        assert report.ok, report.violations[:2]


def test_verify_lifted_stories_with_proper_clusters():
    rng = random.Random(78)
    for _ in range(6):
        story = random_story(rng, rng.randint(0, 1), allow_clusters=True,
                             max_level_worlds=5)
        lifted, _ = story_oplus(story)
        la = build_limit_assignment(lifted)
        report = verify_lim_pmorphism(lifted, la, 4)
        assert report.ok, report.violations[:2]


def test_limit_commutes_on_enumerated_paths():
    rng = random.Random(13)
    for _ in range(10):
        story = random_story(rng, rng.randint(0, 2))
        lifted, _ = story_oplus(story)
        la = build_limit_assignment(lifted)
        assert la.ranks[0] == {w: i for i, w in enumerate(lifted.levels[0].worlds)}
        for i, moment in enumerate(lifted.levels):
            fmap = lifted.level_map(i)
            for p in enumerate_paths(moment.frame, 3):
                assert next_path(p, fmap).tail == fmap[p.tail]


def test_next_path_locally_injective_for_immersive_stories():
    rng = random.Random(14)
    story = random_story(rng, 2, immersive=True)
    lifted, _ = story_oplus(story)
    for i, moment in enumerate(lifted.levels[:-1]):
        fmap = lifted.maps[i]
        paths = enumerate_paths(moment.frame, 3)
        by_first = {}
        for p in paths:
            by_first.setdefault(p.value(0), []).append(p)
        for group in by_first.values():
            images = [next_path(p, fmap) for p in group]
            assert len(set(images)) == len(images)


def test_truth_pullback_through_limit():
    rng = random.Random(15)
    frame = f1_oplus()
    paths = enumerate_paths(frame, 4)
    for _ in range(20):
        phi = random_formula(rng, ["p", "q"], 2)
        val = {v: {w for w in frame.worlds if rng.random() < 0.5} for v in "pq"}
        ts = truth_set(Model(frame, val), phi)
        preimage = [p for p in paths if p.tail in ts]
        assert {p.tail for p in preimage} == ts


def brute_back_misses(frame, res):
    """The (path, successor, k) triples that fail back at resolution res:
    p enumerated, v a successor of p's limit, k <= res, and no path q
    enumerated at res + 2 with limit v and 0 < d(p, q) < 2^-k.  A q within
    2^-k agrees with p on the indices 0..k, so the candidates are looked
    up by limit and that stretch of the sequence."""
    near = {}
    for q in enumerate_paths(frame, res + 2):
        for k in range(res + 1):
            key = (q.tail, tuple(q.value(i) for i in range(k + 1)))
            near.setdefault(key, []).append(q)
    misses = []
    for p in enumerate_paths(frame, res):
        for v in frame.names(frame.succ_mask(frame.index(p.tail))):
            for k in range(res + 1):
                stem = tuple(p.value(i) for i in range(k + 1))
                if not any(0 < path_metric(p, q) < Fraction(1, 2 ** k)
                           for q in near.get((v, stem), ())):
                    misses.append((format_path(p), v, k))
    return misses


def fat_non_transitive_frame():
    # r -> a, a and b reflexive and mutually related, b -> c, c <-> d
    # irreflexive; r does not see b, a does not see c: validation would
    # refuse it
    worlds = ["r", "a", "b", "c", "d"]
    rel = {"r": "a", "a": "ab", "b": "abc", "c": "d", "d": "c"}
    succ = [sum(1 << worlds.index(v) for v in rel[w]) for w in worlds]
    return Frame(worlds, succ, list(range(5)))


def test_back_holds_by_brute_force_on_fat_cluster_frames():
    frames = [fat_non_transitive_frame(), f1_oplus()]
    rng = random.Random(79)
    for clusters in (False, True):
        for _ in range(4):
            story = random_story(rng, rng.randint(0, 1), allow_clusters=clusters,
                                 max_level_worlds=4)
            lifted, _ = story_oplus(story)
            frames += [m.frame for m in lifted.levels]
    assert not fat_non_transitive_frame().classify().transitive
    for frame in frames:
        assert _thin_reflexive_cluster(frame) is None  # what verify requires
        for res in range(4):
            assert brute_back_misses(frame, res) == []


def test_brute_back_check_catches_a_thin_cluster():
    # b is reflexive and alone in its cluster: no other path has limit b
    # and starts with b
    assert (";b", "b", 0) in brute_back_misses(frame_f1(), 1)


def brute_forth_misses(frame, res):
    """The path pairs (x, y) that fail forth at resolution res: both
    enumerated, x's limit t first reached at index k, y != x within
    2^-(k+1) of x, and not t R lim(y).  A y within 2^-(k+1) agrees with x
    on the indices 0..k+1, so the candidates are looked up by that stretch
    of the sequence."""
    paths = enumerate_paths(frame, res)
    near = {}
    for y in paths:
        for m in range(1, res + 3):
            near.setdefault(tuple(y.value(i) for i in range(m)), []).append(y)
    misses = []
    for x in paths:
        t = x.tail
        k = (x.prefix + (t,)).index(t)
        above = frame.succ_mask(frame.index(t))
        for y in near[tuple(x.value(i) for i in range(k + 2))]:
            if y != x and not above >> frame.index(y.tail) & 1:
                misses.append((format_path(x), format_path(y)))
    return misses


def test_forth_holds_by_brute_force_on_transitive_frames():
    rng = random.Random(80)
    frames = []
    for _ in range(40):
        n = rng.randint(1, 4)
        succ = [sum(1 << j for j in range(n) if rng.random() < 0.4) for _ in range(n)]
        frames.append(Frame([f"w{i}" for i in range(n)], transitive_closure(succ), range(n)))
    for clusters in (False, True):
        for _ in range(4):
            story = random_story(rng, rng.randint(0, 1), allow_clusters=clusters,
                                 max_level_worlds=4)
            lifted, _ = story_oplus(story)
            frames += [m.frame for m in lifted.levels]
    for frame in frames:
        assert frame.classify().transitive  # what verify requires
        for res in range(4):
            assert brute_forth_misses(frame, res) == []


def test_brute_forth_check_catches_a_missing_pair():
    # ;r and r,r,u;v agree on the indices 0 and 1, but r does not see v
    assert (";r", "r,r,u;v") in brute_forth_misses(non_transitive_chain(), 3)


def subset_commuting_messages(story, assignment):
    """Per level and reflexive cluster, the first recurrence set, in order
    of subset codes, whose rank-least world's image is not the rank-least
    world of its image."""
    out = []
    for lvl, moment in enumerate(story.levels):
        frame, fmap = moment.frame, story.level_map(lvl)
        ranks = assignment.ranks[lvl]
        next_ranks = assignment.ranks[min(lvl + 1, story.duration)]
        for c in frame.cluster_masks():
            members = frame.sorted_names(c)
            if not frame.is_reflexive(frame.index(members[0])):
                continue
            for code in range(1, 1 << len(members)):
                d = [w for i, w in enumerate(members) if code >> i & 1]
                least = min(d, key=ranks.__getitem__)
                image_least = min((fmap[w] for w in d), key=next_ranks.__getitem__)
                if image_least != fmap[least]:
                    out.append(
                        f"recurrence set {sorted(d)}: image of the rank-least world "
                        f"{least!r} is {fmap[least]!r} but the image's rank-least "
                        f"world is {image_least!r}")
                    break
    return out


def cluster_chain(names, sizes):
    """Reflexive clusters of the given sizes, each seeing all later ones;
    the worlds take the names in order."""
    succ, start = [], 0
    for size in sizes:
        start += size
        succ += [((1 << len(names)) - 1) & ~((1 << (start - size)) - 1)] * size
    return Frame(names, succ, range(len(names)))


def test_pair_check_reports_the_first_failing_recurrence_set():
    rng = random.Random(81)
    failing = 0
    for _ in range(300):
        sizes = [rng.randint(2, 6) for _ in range(rng.randint(1, 2))]
        names = rng.sample("abcdefghijklmnopqrstuvwxyz", sum(sizes))
        level0 = cluster_chain(names, sizes)
        level1 = cluster_chain(["x", "y", "z"], [3])
        fmap = {w: rng.choice("xyz") for w in names}
        story = Story((Moment(level0, names[0], {}), Moment(level1, "x", {})),
                      (fmap,), immersive=False)
        ranks = [dict(zip(names, rng.sample(range(len(names)), len(names)))),
                 dict(zip("xyz", rng.sample(range(3), 3)))]
        assignment = LimitAssignment(tuple(ranks))
        report = verify_lim_pmorphism(story, assignment, 1)
        want = subset_commuting_messages(story, assignment)
        assert [v.message for v in report.violations] == want
        assert all((v.kind, v.level) == ("commuting", 0) for v in report.violations)
        failing += bool(want)
    assert failing > 100


def test_negative_resolution_is_named():
    story = single_level(f1_oplus())
    with pytest.raises(ValueError, match="^resolution must be >= 0$"):
        verify_lim_pmorphism(story, build_limit_assignment(story), -1)
