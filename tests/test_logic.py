import hashlib
import itertools
import json
import random

import pytest

from tanglemc import logic, semantics
from tanglemc.formula import Diamond, Neg, Next, Var, parse, pretty
from tanglemc.frame import Frame
from tanglemc.logic import (
    LOGICS,
    SCHEMAS,
    Logic,
    Schema,
    SchemaViolation,
    SuiteReport,
    _random_slots,
    _union_failures,
    countermodel_search,
    random_class_frame,
    random_formula,
    soundness_suite,
)
from tanglemc.semantics import PACKED_BITS_LIMIT, Model, truth_set, valid_on_frame

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
    assert len(report.violations) == 13
    assert not report.ok
    assert {v.schema for v in report.violations} == {"CTan-dia"}
    v = report.violations[0]
    # the reported witness really refutes the instance
    from tanglemc.frame import frame_from_dict
    frame, valuation = frame_from_dict(v.frame)
    assert v.world not in truth_set(Model(frame, valuation), parse(v.formula))


# sha256 of the reports as the suite gave them with one evaluator per
# schema instance: sharing a trial's evaluators keeps every byte
MISCONFIGURED_DIGESTS = {
    "exhaustive": "8c3e84a6187dd18c5817c3f24056e5bfeb0946150c27db10c05ba8631da72e26",
    "sampled": "f60e9bc0cd8a8e5aa0c354faac9b40ec8e7efbc5e53c0f04eea2e97791150ddc",
}
# the same at up to 8 worlds, pinned from union passes over the frames of
# 7 and 8 worlds: their lone sweeps must give the same bytes
MISCONFIGURED_DIGESTS_8_WORLDS = {
    "exhaustive": "f0a519c9f3557bfc5948a60f110bfd7652de21e39c0cbf5d95ea731bfb4e4e97",
    "sampled": "f7696301118906808ff91a2d31d5846f5d212074d889440daa6020c39f8e38c8",
}


@pytest.mark.parametrize("mode, max_worlds, digest", [
    *[pytest.param(mode, 4, digest, id=mode) for mode, digest in MISCONFIGURED_DIGESTS.items()],
    *[pytest.param(mode, 8, digest, id=f"{mode}-8")
      for mode, digest in MISCONFIGURED_DIGESTS_8_WORLDS.items()],
])
def test_misconfigured_suite_reports_are_pinned(mode, max_worlds, digest):
    k4c = LOGICS["K4C"]
    misconfigured = Logic("K4C", k4c.schemas + ("CTan-dia",), k4c.serial, k4c.strict)
    report = soundness_suite(misconfigured, trials=40, seed=3, max_worlds=max_worlds, mode=mode)
    assert len(report.violations) == 3
    text = json.dumps(report.to_dict(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_suite_builds_one_evaluator_per_union_chunk(monkeypatch):
    built = []
    init = semantics.Evaluator.__init__

    def counted(self, frame, lanes=1, *args):
        built.append((frame.n, lanes, semantics._mask_bits(frame) * lanes))
        init(self, frame, lanes, *args)

    monkeypatch.setattr(semantics.Evaluator, "__init__", counted)
    report = soundness_suite("K4DC", trials=100, seed=14)
    # nine schemas a trial; the frames of each world count, 1 to 4, make
    # one union, screened by one evaluator under all 4^n valuations of p
    # and q on n worlds, D's instances, which read no variable, included
    assert report.instances_checked == 900
    assert [lanes for _, lanes, _ in built] == [4, 16, 64, 256]
    assert 100 < sum(n for n, _, _ in built) < 400
    assert all(bits <= PACKED_BITS_LIMIT for _, _, bits in built)
    # exhaustive codes of two variables on n worlds take 4^n lanes and at
    # most 2(2n - 1) distances a world: up to 6 worlds, a union of several
    # frames keeps its masks within the bound, and one of 6 worlds is alone
    built.clear()
    assert soundness_suite("K4DC", trials=30, seed=14, max_worlds=6, mode="exhaustive").ok
    assert max(lanes for _, lanes, _ in built) == 4096
    assert all(bits <= PACKED_BITS_LIMIT or n <= 6 for n, _, bits in built)
    assert max(n for n, _, _ in built) > 6


def test_union_screen_flags_instances_that_read_fewer_variables():
    # p and q hold all 4^n codes in every trial's worlds, so an instance
    # that reads p only, q only or no variable (D) meets all of its
    # valuations too.  C-dia, CTan-dia and D are not sound on some of
    # these monotone frames, so some instances are invalid; C-dia and
    # CTan-dia come more than once a trial, as where a logic lists a
    # schema twice
    draws = [(name, slots, 0) for name, slots in [
        ("4", ([p], None, None)),
        ("C-dia", ([Diamond(p)], None, None)),
        ("C-dia", ([q], None, None)),
        ("Next-neg", ([Next(q)], None, None)),
        ("D", ([], None, None)),
        ("CTan-dia", ([], [p], None)),
        ("CTan-dia", ([], [q, Neg(q)], None)),
        ("CTan-dia", ([], [Diamond(q)], None)),
        ("K", ([p, q], None, None)),
        ("Ind-tan", ([], [q], p)),
    ]]
    frames = [Frame([f"w{w}" for w in range(len(succ))], succ, func) for succ, func in [
        ([0, 0], [0, 1]), ([0, 1, 0], [1, 1, 0]), ([0, 1, 15, 3], [1, 1, 3, 1]),
        ([1, 0], [1, 1]), ([7, 7, 7], [1, 1, 1]), ([15, 15, 15, 15], [2, 3, 1, 2]),
        ([3, 3], [0, 1]), ([4, 0, 0], [2, 2, 2]), ([0, 0, 6, 0], [3, 3, 3, 0]),
    ]]
    drawn = [(frame, draws) for frame in frames]
    refuted = {(t, i) for t, frame in enumerate(frames)
               for i, (name, slots, _) in enumerate(draws)
               if not valid_on_frame(frame, SCHEMAS[name].instantiate(*slots), "exhaustive").valid}
    flagged = set()
    for n in (2, 3, 4):  # a screen takes the trials of one world count
        flagged |= _union_failures(drawn, [t for t, f in enumerate(frames) if f.n == n], {})
    assert flagged == refuted
    # refuted instances read p only (1, 5), q only (2, 7) and nothing (4)
    assert {i for _, i in refuted} == {1, 2, 4, 5, 7}
    assert {t for t, _ in refuted} == {0, 1, 2, 3, 7, 8}


def test_suite_compiles_each_slot_formula_once_per_chunk(monkeypatch):
    # a chunk runs each distinct slot formula once on its union, then
    # each (schema, set size) group's schema program once
    chunks, compiled = [], []
    screen, compile_ = logic._union_failures, semantics.Evaluator.compile

    def recorded(drawn, trials, programs):
        chunks.append([drawn[t][1] for t in trials])
        return screen(drawn, trials, programs)

    monkeypatch.setattr(logic, "_union_failures", recorded)
    monkeypatch.setattr(semantics.Evaluator, "compile",
                        lambda self, phi: compiled.append(phi) or compile_(self, phi))
    assert soundness_suite("K4DC", trials=100, seed=14).ok  # no instance is swept alone
    expected = 0
    for chunk in chunks:
        slots, groups = set(), set()
        for draws in chunk:
            for name, (formulas, formula_set, theta), _ in draws:
                slots.update(map(id, (*formulas, *(formula_set or ()),
                                      *([theta] if theta else []))))
                groups.add((name, len(formula_set or ())))  # a schema comes once a trial
        expected += len(slots) + len(groups)
    assert len(chunks) == 4 and len(compiled) == expected


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
            inst = SCHEMAS[name].instantiate(*slots)
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
    ("sampled", 1, 6, 10),
    ("sampled", 32, 8, 10),
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

    def recorded(drawn, part, programs):
        screened_worlds.extend(drawn[t][0].n for t in part)
        return _union_failures(drawn, part, programs)

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
            screened |= _union_failures(chunk, [t for t in small if chunk[t][0].n == n], {})
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
    elif max_worlds < 12:  # at 12 worlds seed 33 refutes nothing: only the routing is checked
        assert flagged > 0 if samples > 1 else missed > 0
    if max_worlds == 8:  # seed 33 refutes an instance past 6 worlds
        assert beyond > 0


def test_suite_screens_a_schema_listed_twice_per_position():
    # two instances of one schema in a trial must not share a screen run:
    # their truth sets would add up in one region and hide a violation
    k4c = LOGICS["K4C"]
    doubled = Logic("K4C", k4c.schemas + ("CTan-dia", "CTan-dia"), k4c.serial, k4c.strict)
    report, _, _ = per_instance_suite(doubled, 60, 0, 4, "exhaustive", 32)
    assert soundness_suite(doubled, 60, 0, 4, "exhaustive") == report
    assert len(report.violations) == 5


def test_sound_suite_never_builds_an_instance(monkeypatch):
    # an instance is checked by substitution into its schema's program;
    # only a violation's report prints the instance
    def fail(*args, **kwargs):
        raise AssertionError("instance built")

    logic._schema_program.cache_clear()
    monkeypatch.setattr(Schema, "instantiate", fail)
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
    for succ in itertools.takewhile(lambda succ: len(succ) <= 4, logic._transitive_classes()):
        frames[len(succ)] += len(logic._monotone_maps(succ, True))
    chunks = sum(-(-frames[n] // (1 << 12 - n)) for n in range(1, 5))
    assert frames[4] > 1 << 8 and result.frames_checked == sum(frames[1:])
    assert programs == [phi] and len(evaluators) == result.stats["evaluators"] == chunks
    programs.clear()
    evaluators.clear()
    result = countermodel_search(phi, "K4I", max_worlds=10, seed=5, samples=30)
    assert programs == [phi] and len(evaluators) == result.frames_checked == 30


def test_suite_compiles_each_distinct_slot_formula_once_per_call(monkeypatch):
    # a suite call hash-conses its slot formulas, so equal draws are one
    # object with one program; the next call draws and compiles them anew
    soundness_suite("K4C", trials=100, seed=21)  # the schema programs stay cached
    drawn, compiled = [], []
    draw, program_init = logic._random_slots, semantics.Program.__init__

    def recorded_draw(*args):
        formulas, formula_set, theta = slots = draw(*args)
        drawn[-1].extend([*formulas, *(formula_set or ()), *([theta] if theta else [])])
        return slots

    def counted_program(self, phi):
        compiled[-1].append(phi)
        program_init(self, phi)

    monkeypatch.setattr(logic, "_random_slots", recorded_draw)
    monkeypatch.setattr(semantics.Program, "__init__", counted_program)
    for _ in range(2):
        drawn.append([])
        compiled.append([])
        assert soundness_suite("K4C", trials=100, seed=21).ok
    for slots, programs in zip(drawn, compiled):
        assert len(slots) > 800 and len({id(f) for f in slots}) == len(set(slots)) < 100
        assert sorted(map(id, programs)) == sorted({id(f) for f in slots})
    # the first call's formulas are still alive, so no identity is reused
    assert not {id(f) for f in drawn[0]} & {id(f) for f in drawn[1]}


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
    rng = random.Random(0)
    assert isinstance(random_formula(rng, ["p"], 0), Var)
