import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from tanglemc import logic, semantics
from tanglemc.formula import (
    And, Box, Diamond, Implies, Neg, Next, Or, Tangle, Var, children, parse, pretty, vars_of,
)
from tanglemc.frame import Frame
from tanglemc.logic import (
    LOGICS,
    SCHEMAS,
    SLOT_FORMULAS,
    SLOT_WEIGHTS,
    SUITE_VARIABLES,
    Logic,
    SchemaViolation,
    SuiteReport,
    _instance,
    _random_slots,
    _union_failures,
    countermodel_search,
    random_class_frame,
    soundness_suite,
)
from tanglemc.record import as_dict
from tanglemc.semantics import PACKED_BITS_LIMIT, Model, truth_set, valid_on_frame

from generators import random_formula, reference_class_frame, reference_slots
from test_frame import frame_f3

p, q = Var("p"), Var("q")


def test_instantiate_fix_example():
    inst = SCHEMAS["Fix-tan"].instantiate(formula_set=[p])
    assert inst == parse("<t>{p} -> <d>(p & <t>{p})")


def test_instantiate_four_example():
    assert SCHEMAS["4"].instantiate([p]) == parse("[d]p -> [d][d]p")


def test_instantiate_ctan_example():
    assert SCHEMAS["CTan-dia"].instantiate(formula_set=[p]) == parse("<t>{O p} -> O <t>{p}")


def test_instantiate_ind_example():
    inst = SCHEMAS["Ind-tan"].instantiate(formula_set=[p], theta=q)
    assert inst == parse("[d.](q -> <d>(p & q)) -> (q -> <t>{p})")


def test_instantiate_arity_errors():
    with pytest.raises(ValueError):
        SCHEMAS["K"].instantiate([p])
    with pytest.raises(ValueError):
        SCHEMAS["Fix-tan"].instantiate(formula_set=None)
    with pytest.raises(ValueError):
        SCHEMAS["Ind-tan"].instantiate(formula_set=[p])
    with pytest.raises(ValueError):
        SCHEMAS["4"].instantiate([p], theta=q)


def test_logic_frame_classes():
    assert not LOGICS["K4C"].serial and not LOGICS["K4C"].strict
    assert LOGICS["K4DC"].serial and not LOGICS["K4DC"].strict
    assert LOGICS["K4I"].strict and LOGICS["K4DI"].serial


def test_every_schema_valid_on_small_class_frames():
    # quantified soundness on random class frames with exhaustive valuations
    rng = random.Random(21)
    for name, logic in LOGICS.items():
        for _ in range(40):
            frame = random_class_frame(rng, 4, logic)
            assert logic.admits(frame.classify())
            for schema_name in logic.schemas:
                schema = SCHEMAS[schema_name]
                formulas = [rng.choice((p, q)) for _ in range(schema.formula_slots)]
                fset = [p, q][: rng.choice((1, 2))] if schema.set_slot else None
                theta = q if schema.theta_slot else None
                inst = schema.instantiate(formulas, fset, theta)
                verdict = valid_on_frame(frame, inst)
                assert verdict.valid, (name, schema_name, pretty(inst))


def test_dotted_axioms_also_valid_on_strict_frames():
    # the strict-class logics derive the dotted variants
    rng = random.Random(22)
    for _ in range(60):
        frame = random_class_frame(rng, 4, LOGICS["K4I"])
        for schema_name in ("C-dot", "CTan-dot"):
            inst = SCHEMAS[schema_name].instantiate(
                [p] if schema_name == "C-dot" else (),
                formula_set=None if schema_name == "C-dot" else [p])
            assert valid_on_frame(frame, inst).valid


def test_ctan_dia_separates_monotone_from_strict():
    inst = SCHEMAS["CTan-dia"].instantiate(formula_set=[p])
    assert not valid_on_frame(frame_f3(), inst).valid


def test_d_valid_exactly_on_serial_frames():
    rng = random.Random(23)
    d = SCHEMAS["D"].instantiate()
    for _ in range(80):
        frame = random_class_frame(rng, 4, LOGICS["K4C"])
        assert valid_on_frame(frame, d).valid == frame.classify().serial


def test_soundness_suite_clean():
    for name in LOGICS:
        report = soundness_suite(name, trials=60, seed=7, mode="sampled", samples=16)
        assert report.ok, report.violations[:1]
        assert report.logic == name and report.seed == 7


def test_soundness_suite_reports_misconfigured_schema():
    # CTan-dia is not sound for the merely monotone class
    k4c = LOGICS["K4C"]
    misconfigured = Logic("K4C", k4c.schemas + ("CTan-dia",), k4c.serial, k4c.strict)
    report = soundness_suite(misconfigured, trials=200, seed=3, mode="exhaustive")
    assert len(report.violations) == 17
    assert not report.ok
    assert {v.schema for v in report.violations} == {"CTan-dia"}
    v = report.violations[0]
    # the reported witness really refutes the instance
    from tanglemc.frame import frame_from_dict
    frame, valuation = frame_from_dict(v.frame)
    assert v.world not in truth_set(Model(frame, valuation), parse(v.formula))


# sha256 of the reports of per_instance_suite, one sweep per schema
# instance, and their violation counts: the screen keeps every byte
MISCONFIGURED_DIGESTS = {
    "exhaustive": "d85760bb9ca8c206b5ef3b4e1f09acc140c632d312652933a2867626cb84ccbb",
    "sampled": "3d6a4491438872b5f02837c2d624f37e41dd557c31d9ca31bea3535326596990",
}
# the same at up to 8 worlds, where the trials of 7 and 8 worlds skip the
# screen: their lone sweeps must give the same bytes
MISCONFIGURED_DIGESTS_8_WORLDS = {
    "exhaustive": "641293e0ccadce7cfca394fe6fe926680061a7fe2a21a90912cba86d2e293416",
    "sampled": "22d4abc541f077ba50f96f55d937bc5a4f50f1646f0b8961725928d73a24af03",
}


@pytest.mark.parametrize("mode, max_worlds, digest, count", [
    *[pytest.param(mode, 4, digest, 5, id=mode) for mode, digest in MISCONFIGURED_DIGESTS.items()],
    *[pytest.param(mode, 8, digest, 3, id=f"{mode}-8")
      for mode, digest in MISCONFIGURED_DIGESTS_8_WORLDS.items()],
])
def test_misconfigured_suite_reports_are_pinned(mode, max_worlds, digest, count):
    k4c = LOGICS["K4C"]
    misconfigured = Logic("K4C", k4c.schemas + ("CTan-dia",), k4c.serial, k4c.strict)
    report = soundness_suite(misconfigured, trials=40, seed=3, max_worlds=max_worlds, mode=mode)
    assert report == per_instance_suite(misconfigured, 40, 3, max_worlds, mode, 32)[0]
    assert len(report.violations) == count
    text = json.dumps(as_dict(report), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_suite_builds_one_evaluator_per_union_chunk(monkeypatch):
    _, _, chunk = per_instance_suite(LOGICS["K4DC"], 100, 14, 4, "sampled", 32)
    built = []
    init = semantics.Evaluator.__init__

    def counted(self, frame, lanes=1, *args):
        init(self, frame, lanes, *args)
        steps = len(self._down_steps) + len(self._pre_steps)
        built.append((frame.n, lanes, steps * frame.n * lanes))  # the bits of its step masks

    monkeypatch.setattr(semantics.Evaluator, "__init__", counted)
    report = soundness_suite("K4DC", trials=100, seed=14)
    # nine schemas a trial; each trial is a slot of 4^n lanes, all the
    # valuations of p and q on its n worlds, for D's instances, which read
    # no variable, too.  The trials of one world count fill evaluators of
    # at most 2^12 lanes: 16 trials of 4 worlds
    assert report.instances_checked == 900
    assert Counter(frame.n for frame, _ in chunk) == {1: 23, 2: 28, 3: 28, 4: 21}
    assert [lanes for _, lanes, _ in built] == [23 * 4, 28 * 16, 28 * 64, 16 * 256, 5 * 256]
    assert all(bits <= PACKED_BITS_LIMIT for _, _, bits in built)
    # a lane takes at most 2(2n - 1) distance steps of n bits: up to 5
    # worlds a chunk of 2^12 lanes keeps its masks within the bound, and
    # at 6 worlds a chunk is one trial
    built.clear()
    assert soundness_suite("K4DC", trials=30, seed=14, max_worlds=6, mode="exhaustive").ok
    assert max(n for n, _, _ in built) == 6
    assert all(lanes == 4096 for n, lanes, _ in built if n == 6)
    assert all(bits <= PACKED_BITS_LIMIT for n, _, bits in built if n < 6)


def test_union_screen_flags_instances_that_read_fewer_variables():
    # p and q hold all 4^n codes in every trial's worlds, so an instance
    # that reads p only, q only or no variable (D) meets all of its
    # valuations too.  C-dia, CTan-dia and D are not sound on some of
    # these monotone frames, so some instances are invalid; C-dia and
    # CTan-dia come more than once a trial, as where a logic lists a
    # schema twice
    draws = [(name, [SLOT_FORMULAS.index(f) for f in slots], 0) for name, slots in [
        ("4", [p]),
        ("C-dia", [Diamond(p)]),
        ("C-dia", [q]),
        ("Next-neg", [Next(q)]),
        ("D", []),
        ("CTan-dia", [p]),
        ("CTan-dia", [q, Neg(q)]),
        ("CTan-dia", [Diamond(q)]),
        ("K", [p, q]),
        ("Ind-tan", [q, p]),  # the set {q}, then theta p
    ]]
    frames = [Frame([f"w{w}" for w in range(len(succ))], succ, func) for succ, func in [
        ([0, 0], [0, 1]), ([0, 1, 0], [1, 1, 0]), ([0, 1, 15, 3], [1, 1, 3, 1]),
        ([1, 0], [1, 1]), ([7, 7, 7], [1, 1, 1]), ([15, 15, 15, 15], [2, 3, 1, 2]),
        ([3, 3], [0, 1]), ([4, 0, 0], [2, 2, 2]), ([0, 0, 6, 0], [3, 3, 3, 0]),
    ]]
    drawn = [(frame, draws) for frame in frames]
    refuted = {(t, i) for t, frame in enumerate(frames)
               for i, (name, slots, _) in enumerate(draws)
               if not valid_on_frame(frame, _instance(name, slots), "exhaustive").valid}
    flagged = set()
    for n in (2, 3, 4):  # a screen takes the trials of one world count
        flagged |= _union_failures(drawn, [t for t, f in enumerate(frames) if f.n == n])
    assert flagged == refuted
    # refuted instances read p only (1, 5), q only (2, 7) and nothing (4)
    assert {i for _, i in refuted} == {1, 2, 4, 5, 7}
    assert {t for t, _ in refuted} == {0, 1, 2, 3, 7, 8}


def test_suite_compiles_each_slot_formula_once_per_chunk(monkeypatch):
    # a chunk runs each of the 25 slot formulas once, then each (schema,
    # slot count) group's schema program once; the trials of n worlds go
    # in chunks of 2^12 lanes, 4^n lanes a trial
    chunks, compiled = [], []
    screen, compile_ = logic._union_failures, semantics.Evaluator.compile

    def recorded(drawn, trials):
        per = 1 << 12 - 2 * drawn[trials[0]][0].n
        chunks.extend([drawn[t][1] for t in trials[k:k + per]]
                      for k in range(0, len(trials), per))
        return screen(drawn, trials)

    monkeypatch.setattr(logic, "_union_failures", recorded)
    monkeypatch.setattr(semantics.Evaluator, "compile",
                        lambda self, phi: compiled.append(phi) or compile_(self, phi))
    assert soundness_suite("K4DC", trials=100, seed=14).ok  # no instance is swept alone
    expected = 0
    for chunk in chunks:  # a schema comes once a trial
        expected += len(SLOT_FORMULAS) + len({(name, len(slots))
                                              for draws in chunk for name, slots, _ in draws})
    assert len(chunks) == 5 and len(compiled) == expected


def per_instance_suite(logic, trials, seed, max_worlds, mode, samples):
    """The suite as one sweep per built schema instance: its report, the
    (trial, schema) positions of the invalid instances, and the trials as
    the union pass takes them."""
    rng = random.Random(seed)
    violations, invalid, chunk = [], set(), []
    for t in range(trials):
        frame = random_class_frame(rng, max_worlds, logic)
        draws = []
        for i, name in enumerate(logic.schemas):
            slots = _random_slots(rng, SCHEMAS[name])
            draws.append((name, slots, rng.getrandbits(32)))
            inst = _instance(name, slots)
            verdict = valid_on_frame(frame, inst, mode=mode, samples=samples, seed=draws[-1][2])
            if not verdict.valid:
                cm = verdict.countermodel
                invalid.add((t, i))
                violations.append(SchemaViolation(name, pretty(inst), frame.to_dict(cm.valuation),
                                                  dict(cm.valuation), cm.world))
        chunk.append((frame, draws))
    report = SuiteReport(logic.name, seed, trials, mode, trials,
                         trials * len(logic.schemas), tuple(violations))
    return report, invalid, chunk


@pytest.mark.parametrize("mode, samples, max_worlds, trials", [
    *[(mode, samples, max_worlds, trials)
      for mode, samples in (("sampled", 16), ("sampled", 32), ("sampled", 100), ("exhaustive", 32))
      for max_worlds, trials in ((1, 6), (6, 10))],
    ("sampled", 1, 6, 30),
    ("sampled", 32, 8, 80),
    ("sampled", 32, 12, 10),
    ("exhaustive", 32, 7, 4),
])
def test_union_suite_matches_one_sweep_per_instance(monkeypatch, mode, samples, max_worlds,
                                                    trials):
    # the report is that of one sweep per instance, violations and
    # countermodels included.  Trials of up to 6 worlds are screened in a
    # union pass under all their valuations, which flags every invalid
    # instance, and exactly those in exhaustive mode; one sample misses
    # some that it flags.  No trial of more than 6 worlds reaches the
    # screen: each of its instances is swept alone exactly once
    swept, screened_worlds = [], []
    monkeypatch.setattr(logic, "valid_on_frame", lambda *args: swept.append(args) or
                        valid_on_frame(*args))

    def recorded(drawn, part):
        screened_worlds.extend(drawn[t][0].n for t in part)
        return _union_failures(drawn, part)

    monkeypatch.setattr(logic, "_union_failures", recorded)
    k4c = LOGICS["K4C"]
    misconfigured = Logic("K4C", k4c.schemas + ("CTan-dia",), k4c.serial, k4c.strict)
    flagged = missed = beyond = 0
    for lg in [*LOGICS.values(), misconfigured]:
        seed = 33
        report, invalid, chunk = per_instance_suite(lg, trials, seed, max_worlds, mode, samples)
        swept.clear()
        screened_worlds.clear()
        assert soundness_suite(lg, trials, seed, max_worlds, mode, samples) == report
        small = [t for t, (frame, _) in enumerate(chunk) if frame.n <= 6]
        large = [t for t, (frame, _) in enumerate(chunk) if frame.n > 6]
        assert sorted(screened_worlds) == sorted(chunk[t][0].n for t in small)
        screened = set()  # a screen takes the trials of one world count
        for n in {chunk[t][0].n for t in small}:
            screened |= _union_failures(chunk, [t for t in small if chunk[t][0].n == n])
        small_invalid = {(t, i) for t, i in invalid if chunk[t][0].n <= 6}
        assert small_invalid <= screened
        if mode == "exhaustive":
            assert screened == small_invalid
        alone = sorted(args[4] for args in swept if args[0].n > 6)  # instance seeds
        assert alone == sorted(s for t in large for _, _, s in chunk[t][1])
        assert len(swept) == len(screened) + len(alone)
        flagged += len(invalid)
        missed += len(screened - small_invalid)
        beyond += len(invalid) - len(small_invalid)
    if max_worlds == 1:
        assert flagged == missed == 0
    else:
        assert flagged > 0 if samples > 1 else missed > 0
    if max_worlds == 8:  # 80 trials at seed 33 refute an instance past 6 worlds
        assert beyond > 0


@pytest.mark.parametrize("mode, max_worlds", [("exhaustive", 4), ("sampled", 8)])
def test_suite_blocks_give_the_report_of_one_block(monkeypatch, mode, max_worlds):
    # the suite draws, screens and sweeps SUITE_BLOCK trials at a time: the
    # blocks take the same numbers from the stream, each sweep draws from
    # its own seed, and the violations keep their (trial, schema) order
    k4c = LOGICS["K4C"]
    misconfigured = Logic("K4C", k4c.schemas + ("CTan-dia",), k4c.serial, k4c.strict)
    expected, invalid, _ = per_instance_suite(misconfigured, 60, 3, max_worlds, mode, 32)
    assert len({t // 7 for t, _ in invalid}) > 1  # violations in several blocks of 7
    assert logic.SUITE_BLOCK >= 60
    assert soundness_suite(misconfigured, 60, 3, max_worlds, mode) == expected
    sizes = []
    block = logic._block_violations
    monkeypatch.setattr(logic, "_block_violations",
                        lambda drawn, *args: sizes.append(len(drawn)) or block(drawn, *args))
    for size in (1, 7, 60):
        sizes.clear()
        monkeypatch.setattr(logic, "SUITE_BLOCK", size)
        assert soundness_suite(misconfigured, 60, 3, max_worlds, mode) == expected
        assert sizes == [size] * (60 // size) + ([60 % size] if 60 % size else [])


def test_suite_screens_a_schema_listed_twice_per_position():
    # two instances of one schema in a trial must not share a screen run:
    # their truth sets would add up in one region and hide a violation
    k4c = LOGICS["K4C"]
    doubled = Logic("K4C", k4c.schemas + ("CTan-dia", "CTan-dia"), k4c.serial, k4c.strict)
    report, _, _ = per_instance_suite(doubled, 60, 0, 4, "exhaustive", 32)
    assert soundness_suite(doubled, 60, 0, 4, "exhaustive") == report
    assert len(report.violations) == 10


def test_sound_suite_never_builds_an_instance(monkeypatch):
    # an instance is checked by substitution into its schema's program;
    # only a violation's report prints the instance
    def fail(*args, **kwargs):
        raise AssertionError("instance built")

    logic._schema_program.cache_clear()
    monkeypatch.setattr(logic, "_instance", fail)
    for name in LOGICS:
        for mode in ("sampled", "exhaustive"):
            assert soundness_suite(name, trials=10, seed=16, mode=mode).ok


def test_search_makes_one_program_and_one_evaluator_per_chunk(monkeypatch):
    programs, evaluators = [], []
    program_init, evaluator_init = semantics.Program.__init__, semantics.Evaluator.__init__

    def counted_program(self, phi):
        programs.append(phi)
        program_init(self, phi)

    def counted_evaluator(self, frame, *args):
        evaluators.append(frame)
        evaluator_init(self, frame, *args)

    monkeypatch.setattr(semantics.Program, "__init__", counted_program)
    monkeypatch.setattr(semantics.Evaluator, "__init__", counted_evaluator)
    # a formula without O takes one slot per relation class: the 2, 8 and
    # 39 classes on 1, 2 and 3 worlds fit one chunk of 2^(12 - n) slots each
    phi = parse("[d]p -> [d][d]p")
    result = countermodel_search(phi, "K4C", max_worlds=3)
    assert not result.found
    assert programs == [phi] and len(evaluators) == result.stats["evaluators"] == 3
    assert result.stats["relations"] == result.stats["frames_swept"] == 2 + 8 + 39
    # a formula with O takes one slot per frame: every strictly monotone
    # map of every class, in chunks of 2^(12 - n) slots of one world count
    programs.clear()
    evaluators.clear()
    phi = parse("<d>O p -> O <d>p")
    result = countermodel_search(phi, "K4I", max_worlds=4)
    assert not result.found
    frames = [0] * 5
    for n in range(1, 5):
        for succ in logic._transitive_classes(n):
            frames[n] += len(logic._monotone_maps(succ, True))
    chunks = sum(-(-frames[n] // (1 << 12 - n)) for n in range(1, 5))
    assert frames[4] > 1 << 8 and result.frames_checked == sum(frames[1:])
    assert programs == [phi] and len(evaluators) == result.stats["evaluators"] == chunks
    programs.clear()
    evaluators.clear()
    result = countermodel_search(phi, "K4I", max_worlds=10, seed=5, samples=30)
    assert programs == [phi] and len(evaluators) == result.frames_checked == 30


def depth_one_chances():
    """Each formula of a depth-1 draw over the suite's variables with its
    chance, branch by branch: a variable with chance 3/10, else one of
    eight operators, each as likely, over uniform variables, a tangle
    taking one or two with chance 1/2 each."""
    variables = [Var(v) for v in SUITE_VARIABLES]
    chances = Counter()
    for v in variables:
        chances[v] += Fraction(3, 10) / len(variables)
    kinds = (Neg, And, Or, Implies, Diamond, Box, Next, Tangle)
    for kind in kinds:
        counts = (1, 2) if kind is Tangle else (2,) if kind in (And, Or, Implies) else (1,)
        for count in counts:
            branches = list(itertools.product(variables, repeat=count))
            for args in branches:
                phi = Tangle(args) if kind is Tangle else kind(*args)
                chances[phi] += Fraction(7, 10) / len(kinds) / len(counts) / len(branches)
    return chances


def test_slot_catalogue_is_the_depth_one_draw():
    chances = depth_one_chances()
    assert len(SLOT_FORMULAS) == len(set(SLOT_FORMULAS)) == len(chances) == 25
    for phi, weight in zip(SLOT_FORMULAS, SLOT_WEIGHTS, strict=True):
        assert Fraction(weight, 640) == chances[phi], pretty(phi)
        assert all(isinstance(c, Var) for c in children(phi))
        assert vars_of(phi) <= set(SUITE_VARIABLES)


def test_a_slot_takes_one_random_number_and_its_cumulative_weight():
    rng = random.Random(5)
    draw, calls = rng.random, []
    rng.random = lambda: calls.append(1) or draw()
    for schema in SCHEMAS.values():
        calls.clear()
        assert len(_random_slots(rng, schema)) == len(calls)
    drawn = Counter()
    for x in range(640):  # one number in each 640th of [0, 1)
        rng.random = lambda: (x + 0.5) / 640
        drawn.update(_random_slots(rng, SCHEMAS["4"]))
    assert drawn == dict(enumerate(SLOT_WEIGHTS))


@pytest.mark.parametrize("tries", [None, 0, 1])
def test_draws_take_the_numbers_of_the_stdlib_calls(monkeypatch, tries):
    # frames and slots equal those of randint, choice, randrange and
    # choices, and leave the stream where those calls leave it; with no map
    # try every map is the identity, with one try many are
    if tries is not None:
        monkeypatch.setattr(logic, "FUNC_TRIES", tries)
    closures = []
    closure = logic.transitive_closure
    monkeypatch.setattr(logic, "transitive_closure",
                        lambda succ: closures.append(1) or closure(succ))
    frames = identities = 0
    for seed in range(8):
        for lg in LOGICS.values():
            for max_worlds in range(1, 10):
                rng, ref = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    frame = random_class_frame(rng, max_worlds, lg)
                    expected = reference_class_frame(ref, max_worlds, lg)
                    assert frame.to_dict() == expected.to_dict()
                    frames += 1
                    identities += frame._func == tuple(range(frame.n))
                    for name in lg.schemas:
                        schema = SCHEMAS[name]
                        assert _random_slots(rng, schema) == reference_slots(ref, schema)
                assert rng.getstate() == ref.getstate()
    assert len(closures) > frames  # some serial frames were repaired
    assert identities == frames if tries == 0 else 0 < identities < frames
    for draw in (random_class_frame, reference_class_frame):  # an empty range of counts
        with pytest.raises(ValueError):
            draw(random.Random(0), 0, LOGICS["K4C"])


def test_an_instance_reads_its_slots_in_metavariable_order():
    # the formula slots, then the set, then theta
    index = SLOT_FORMULAS.index
    assert _instance("K", [index(Next(q)), index(p)]) == SCHEMAS["K"].instantiate([Next(q), p])
    assert (_instance("Ind-tan", [index(q), index(Neg(p)), index(p)])
            == SCHEMAS["Ind-tan"].instantiate(formula_set=[q, Neg(p)], theta=p))
    assert _instance("D", []) == SCHEMAS["D"].instantiate()


def test_a_second_suite_call_makes_no_slot_program(monkeypatch):
    # the programs of the slot formulas and of the schemas are made once
    # per process: a later call makes a program only for an instance that
    # it sweeps alone, so none for a sound logic
    k4c = LOGICS["K4C"]
    misconfigured = Logic("K4C", k4c.schemas + ("CTan-dia",), k4c.serial, k4c.strict)
    for lg in (k4c, misconfigured):
        soundness_suite(lg, trials=40, seed=3, mode="exhaustive")
    made = []
    init = semantics.Program.__init__
    monkeypatch.setattr(semantics.Program, "__init__",
                        lambda self, phi: made.append(phi) or init(self, phi))
    assert soundness_suite(k4c, trials=40, seed=3, mode="exhaustive").ok
    assert made == []
    report = soundness_suite(misconfigured, trials=40, seed=3, mode="exhaustive")
    assert report.violations  # exhaustive: the screen flags exactly the invalid instances
    assert [pretty(phi) for phi in made] == [v.formula for v in report.violations]


def test_soundness_suite_negative_control_non_serial(monkeypatch):
    from tanglemc import logic
    from tanglemc.frame import validate_frame

    def non_serial_frame(*_):
        return validate_frame(["a", "b"], [["a", "b"]], {"a": "b", "b": "b"})

    monkeypatch.setattr(logic, "random_class_frame", non_serial_frame)
    report = soundness_suite("K4DI", trials=5, seed=1, mode="exhaustive")
    assert any(v.schema == "D" and v.world == "b" for v in report.violations)
    assert len(report.violations) == 9


def test_suite_rejects_an_unknown_mode_before_the_first_trial(monkeypatch):
    def fail(*args):
        raise AssertionError("trial drawn")

    monkeypatch.setattr(logic, "random_class_frame", fail)
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        soundness_suite("K4C", 10, 0, mode="bogus")


def test_suite_requires_trials():
    with pytest.raises(ValueError):
        soundness_suite("K4C", trials=0, seed=0)


def test_search_finds_small_continuity_countermodel():
    phi = parse("<t>{O p} -> O <t>{p}")
    result = countermodel_search(phi, "K4C", max_worlds=3)
    assert result.found and result.frame.n <= 3
    flags = result.frame.classify()
    assert flags.transitive and flags.monotonic
    model = Model(result.frame, {k: set(v) for k, v in result.valuation.items()})
    assert result.world not in truth_set(model, phi)


def test_search_none_on_strict_frames():
    phi = parse("<t>{O p} -> O <t>{p}")
    result = countermodel_search(phi, "K4I", max_worlds=3)
    assert not result.found and result.verdict == "none-within-bounds"


def test_search_tautology_none_within_bounds():
    result = countermodel_search(parse("p -> p"), "K4C", max_worlds=3)
    assert result.verdict == "none-within-bounds"


def test_search_canonical_order_is_deterministic():
    phi = parse("p")
    a = countermodel_search(phi, "K4C", max_worlds=2)
    b = countermodel_search(phi, "K4C", max_worlds=2)
    assert a == b
    assert a.frame.n == 1 and a.valuation == {"p": ()}


def test_randomized_search_refutes_on_class_frames():
    # past EXHAUSTIVE_SEARCH_LIMIT worlds the search samples class frames
    phi = parse("<t>{O p} -> O <t>{p}")
    result = countermodel_search(phi, "K4C", max_worlds=10, seed=4, samples=4000)
    assert result.found and result.frames_checked == 24
    assert result.frame.n <= 10 and LOGICS["K4C"].admits(result.frame.classify())
    model = Model(result.frame, {k: set(v) for k, v in result.valuation.items()})
    assert result.world not in truth_set(model, phi)


def test_random_formula_depth_zero_is_var():
    # the tests' formula generator, which the sweep and path-space tests use
    rng = random.Random(0)
    assert isinstance(random_formula(rng, ["p"], 0), Var)
