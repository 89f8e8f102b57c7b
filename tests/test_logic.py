import random

import pytest

from tanglemc.formula import Var, parse, pretty
from tanglemc.logic import (
    LOGICS,
    SCHEMAS,
    Logic,
    countermodel_search,
    random_class_frame,
    random_formula,
    soundness_suite,
)
from tanglemc.semantics import Model, truth_set, valid_on_frame

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


def test_soundness_suite_negative_control_non_serial(monkeypatch):
    from tanglemc import logic
    from tanglemc.frame import validate_frame

    def non_serial_frame(*_):
        return validate_frame(["a", "b"], [["a", "b"]], {"a": "b", "b": "b"})

    monkeypatch.setattr(logic, "random_class_frame", non_serial_frame)
    report = soundness_suite("K4DI", trials=5, seed=1, mode="exhaustive")
    assert any(v.schema == "D" and v.world == "b" for v in report.violations)
    assert len(report.violations) == 9


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
