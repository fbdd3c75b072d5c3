import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as hst
from scipy.spatial.distance import pdist

from physedit import engine
from physedit.engine import (ObjectInit, SimConfig, build_state, simulate,
                             stable_dt, step)
from physedit.errors import (ClampViolation, DomainError, NumericalError,
                             ParseError, ParticleEscape, UnknownTarget)
from physedit.materials import MaterialClass
from physedit.schedule import (DEFAULT_MAX_LOG_RATE, InstructionSchedule,
                               ScheduleRuntime, compile_schedule, ramp_value)
from physedit.fill import FillConfig, fill_field
from physedit.scenes import cube_shell_positions, uniform_field
from oracles import ramp_oracle


def scene_map():
    """The object and part columns of a two-object scene: object 0 has
    parts 0 and 2, object 1 part 0."""
    return SimpleNamespace(object_id=np.array([0, 0, 1]), part=np.array([0, 2, 0]))


def make_state(n=4, e=1e4, gravity=(0, -9.8, 0)):
    pts = np.stack([np.linspace(0, 0.15, n), np.zeros(n), np.zeros(n)], axis=1)
    f = uniform_field(pts, MaterialClass.ELASTIC, e, 0.2, 1000.0)
    cfg = SimConfig(h_grid=0.01, frames=1, domain_lo=(-0.6, -2.4, -0.6),
                    domain_hi=(0.8, 0.4, 0.8), ground_height=-2.3)
    return build_state([ObjectInit(field=f, h_fill=0.05)], cfg, gravity=gravity), cfg


class TestRampValue:
    def test_endpoints(self):
        assert ramp_value(1.0, 5.0, 0.0, 2.0) == 1.0
        assert ramp_value(1.0, 5.0, 2.0, 2.0) == 5.0
        assert ramp_value(1.0, 5.0, 99.0, 2.0) == 5.0
        assert ramp_value(1.0, 5.0, 0.0, 0.0) == 5.0  # duration 0 -> target

    def test_log_midpoint_geometric(self):
        mid = ramp_value(1e6, 1e2, 0.5, 1.0, scale="log")
        assert mid == pytest.approx(1e4, rel=1e-9)

    def test_linear_third(self):
        v = ramp_value(0.3, 0.45, 1.0 / 3.0, 1.0, scale="linear")
        assert v == pytest.approx(0.35, rel=1e-12)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ramp_value(0.0, 10.0, 0.5, 1.0, scale="log")
        with pytest.raises(DomainError):
            ramp_value(1.0, -1.0, 0.5, 1.0, scale="log")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(v_from=hst.floats(1e-3, 1e6), v_to=hst.floats(1e-3, 1e6),
           t=hst.floats(-1.0, 3.0), duration=hst.sampled_from([0.0, 0.5, 2.0]),
           scale=hst.sampled_from(["linear", "log"]))
    def test_matches_closed_form(self, v_from, v_to, t, duration, scale):
        assert np.array_equal(ramp_value(v_from, v_to, t, duration, scale),
                              ramp_oracle(v_from, v_to, t, duration, scale))

    def test_array_from_values(self):
        out = ramp_value(np.array([1.0, 100.0]), 10.0, 0.5, 1.0, scale="log")
        assert out == pytest.approx([math.sqrt(10.0), math.sqrt(1000.0)],
                                    rel=1e-12)


class TestCompile:
    def test_empty_schedule_defaults(self):
        sched = compile_schedule("", scene_map())
        assert sched.interventions == ()
        assert sched.max_log_rate == DEFAULT_MAX_LOG_RATE

    def test_reference_line(self):
        sched = compile_schedule(
            "at t=1.0 set object 0 young_modulus 1e3 ramp 0.5", scene_map())
        (iv,) = sched.interventions
        assert iv.trigger.kind == "at_time"
        assert iv.trigger.value == 1.0
        assert iv.target.object_id == 0
        assert iv.property == "young_modulus"
        assert iv.value == 1e3
        assert iv.ramp_duration == 0.5

    def test_clamp_violation_names_property(self):
        with pytest.raises(ClampViolation) as err:
            compile_schedule("at t=0 set object 0 young_modulus 1e15",
                             scene_map())
        assert "young_modulus" in str(err.value)
        assert "1e+12" in str(err.value)

    def test_parse_error_has_line_and_column(self):
        with pytest.raises(ParseError) as err:
            compile_schedule("at t=0.5 set object 0 bogus_property 3",
                             scene_map())
        assert err.value.line == 1
        assert err.value.column == 23

    @pytest.mark.parametrize("line, column", [
        ("on ground_contact set scene gravity (0,1,0)", 23),
        ("on height_below 0.1 set scene wind (1,0,0) ramp 0.5", 25),
        ("on speed_above 2 set scene gravity (0,0,0) once", 22),
    ], ids=["ground_contact", "height_below", "speed_above"])
    def test_scene_event_needs_probe_object(self, line, column):
        # without a probe the trigger could never fire: a scene has no
        # object whose events it would watch
        with pytest.raises(ParseError, match="explicit 'object N' probe") \
                as err:
            compile_schedule("at t=0 set scene wind (0,0,0)\n" + line,
                             scene_map())
        assert (err.value.line, err.value.column) == (2, column)
        assert line[column - 1:].startswith("scene ")
        probed = line.replace(" set", " object 0 set", 1)
        (_, iv) = compile_schedule("at t=0 set scene wind (0,0,0)\n" + probed,
                                   scene_map()).interventions
        assert iv.trigger.probe_object == 0

    def test_unknown_object_and_part(self):
        with pytest.raises(UnknownTarget):
            compile_schedule("at t=0 set object 7 density 100", scene_map())
        with pytest.raises(UnknownTarget):
            compile_schedule("at t=0 set object 0 part 9 density 100",
                             scene_map())

    def test_material_model_cannot_ramp(self):
        with pytest.raises(ParseError):
            compile_schedule("at t=0 set object 0 material_model sand ramp 1.0",
                             scene_map())

    def test_time_sorting_and_event_retention(self):
        text = """
        at t=2.0 set object 0 density 500
        on ground_contact set object 0 material_model liquid once
        at t=0.5 set object 0 young_modulus 1e5 ramp 0.1
        """
        sched = compile_schedule(text, scene_map())
        kinds = [iv.trigger.kind for iv in sched.interventions]
        assert kinds == ["at_time", "at_time", "on_ground_contact"]
        assert sched.interventions[0].trigger.value == 0.5

    def test_interior_density_elimination_floors(self):
        sched = compile_schedule("at t=0 set object 0 interior density 0 ramp 1",
                                 scene_map())
        assert sched.interventions[0].value == 1.0  # clamp minimum, not zero

    def test_comments_and_blank_lines(self):
        sched = compile_schedule("# nothing\n\n  # more\n", scene_map())
        assert sched.interventions == ()

    def test_clamp_lines(self):
        clamp = "clamp young_modulus 1e3 1e9\n"
        with pytest.raises(ClampViolation):
            compile_schedule(clamp + "at t=0 set object 0 young_modulus 1e10",
                             scene_map())
        sched = compile_schedule(
            clamp + "at t=0 set object 0 young_modulus 1e9", scene_map())
        assert sched.interventions[0].value == 1e9
        with pytest.raises(ClampViolation):
            compile_schedule("clamp young_modulus 1 1e20", scene_map())

    def test_vector_and_event_grammar(self):
        text = ("on speed_above 2.5 object 0 set scene gravity (0,1.5,0) "
                "ramp 0.2 once")
        sched = compile_schedule(text, scene_map())
        (iv,) = sched.interventions
        assert iv.trigger.kind == "on_speed_above"
        assert iv.trigger.value == 2.5
        assert iv.trigger.probe_object == 0
        assert iv.value == (0.0, 1.5, 0.0)
        assert sched == compile_schedule(text.removesuffix(" once"),
                                         scene_map())

    def test_impulse_sugar(self):
        sched = compile_schedule("at t=1.0 impulse object 0 (0,2,0)",
                                 scene_map())
        (iv,) = sched.interventions
        assert iv.property == "velocity_impulse"
        assert sched == compile_schedule(
            "at t=1.0 impulse object 0 (0,2,0) once", scene_map())

    @pytest.mark.parametrize("line", [
        "at t=0 set object 0 young_modulus 1e5 ramp nan",
        "at t=nan set object 0 density 500",
        "at t=inf set object 0 density 500",
        "max_log_rate nan",
        "max_log_rate inf",
        "at t=0 set scene gravity (nan,0,0)",
        "at t=0 impulse object 0 (inf,0,0)",
        "on height_below nan set object 0 density 500",
        "at t=0 set object 0 gravity_scale 1e999",
    ])
    def test_non_finite_numbers_rejected(self, line):
        bad = next(tok for tok in ("nan", "inf", "1e999") if tok in line)
        with pytest.raises(ParseError, match="must be finite") as err:
            compile_schedule("# first line\n" + line, scene_map())
        assert err.value.line == 2
        assert line[err.value.column - 1:].startswith(
            ("t=" + bad, bad, "(" + bad))

    @pytest.mark.parametrize("word", ["\u00b2", "6", "elastic_", "-1"])
    def test_unknown_material_class_is_a_parse_error(self, word):
        with pytest.raises(ParseError, match="unknown material class") as err:
            compile_schedule(f"at t=0 set object 0 material_model {word}",
                             scene_map())
        assert err.value.column == 36

    def test_event_probe_defaults_to_target_object(self):
        text = "on ground_contact set object 1 density 500"
        (iv,) = compile_schedule(text, scene_map()).interventions
        assert iv.trigger.probe_object == 1
        assert compile_schedule(text, scene_map()) == compile_schedule(
            text.replace(" set", " object 1 set"), scene_map())

    @pytest.mark.parametrize("line, bad, match", [
        ("at t=0 set object 0 young_modulus soft", "soft", "a number"),
        ("at t=0 set object 0.5 density 500", "0.5", "an integer"),
        ("at t=0 set scene gravity 0,0,-9.8", "0,0,-9.8", r"as \(x,y,z\)"),
        ("at t=0 set world gravity (0,0,0)", "world", "'scene' or 'object'"),
        ("at t=0 push object 0 (0,1,0)", "push", "'set' or 'impulse'"),
    ], ids=["number", "object_id", "vector", "target", "verb"])
    def test_malformed_word_located(self, line, bad, match):
        with pytest.raises(ParseError, match=match) as err:
            compile_schedule("# first line\n" + line, scene_map())
        assert (err.value.line, err.value.column) == (2, line.index(bad) + 1)


@pytest.mark.parametrize("kwargs, match", [
    (dict(ramp_duration=-1.0), "ramp_duration must be >= 0"),
    (dict(ramp_duration=1.0, scale="cubic"), "unknown ramp scale"),
], ids=["negative_duration", "unknown_scale"])
def test_ramp_value_rejects(kwargs, match):
    with pytest.raises(DomainError, match=match):
        ramp_value(1.0, 2.0, 0.5, **kwargs)


# words of the schedule grammar, valid and not, for the parser property test
_TRIGGERS = ("at t=0", "at 1.5", "at t=-1", "at t=nan", "on ground_contact",
             "on height_below 0.5 object 1", "on speed_above inf", "on sliding")
_ACTIONS = ("set object 0 young_modulus 1e3", "set object 9 density 500",
            "set object 1 part 0 poisson_ratio 0.7",
            "set object 0 interior part 2 density 0",
            "set object 0 material_model liquid", "set object 0 material_model 7",
            "set object 0 material_model \u00b2", "impulse object 0 (0,1,0)",
            "impulse scene (0,1,0)", "set scene gravity (1,2)",
            "set scene wind (a,0,0)", "set object 0 wind (0,0,0)",
            "set object 1 gravity_scale 1e999", "set scene bogus 1")
_TAILS = ("", "ramp 0.5", "ramp -1", "ramp inf", "once", "ramp 1 once", "junk",
          "# note")
_DECLS = ("clamp young_modulus 1e3 1e9", "clamp density 1 1e9", "clamp wind 0 1",
          "clamp poisson_ratio 0.4 0.1", "max_log_rate 0", "max_log_rate nan")
_WORDS = sorted({word for line in _TRIGGERS + _ACTIONS + _TAILS + _DECLS
                 for word in line.split()})
_SCHEDULE_LINES = hst.one_of(
    hst.tuples(*map(hst.sampled_from, (_TRIGGERS, _ACTIONS, _TAILS)))
    .map(" ".join),
    hst.sampled_from(_DECLS),
    hst.lists(hst.sampled_from(_WORDS), max_size=10).map(" ".join),
    hst.text(max_size=60),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=hst.lists(_SCHEDULE_LINES, max_size=4).map("\n".join))
def test_compile_raises_only_schedule_errors(text):
    """Any text either compiles or fails with one of the schedule's errors."""
    try:
        compile_schedule(text, scene_map())
    except (ParseError, ClampViolation, UnknownTarget):
        pass


class TestApply:
    def test_inactive_schedule_touches_nothing(self):
        state, _ = make_state()
        sched = compile_schedule("at t=5.0 set object 0 density 500", state)
        rt = ScheduleRuntime(sched)
        rho0 = state.density.copy()
        records = rt.apply(state, 0.0, 1e-3)
        assert records == []
        assert np.array_equal(state.density, rho0)

    def test_gravity_zeroing_constant_velocity(self):
        state, cfg = make_state()
        sched = compile_schedule("at t=0.05 set scene gravity (0,0,0)", state)
        rt = ScheduleRuntime(sched)
        t = 0.0
        dt = 2e-4
        while t < 0.0502:
            rt.apply(state, t, dt)
            step(state, dt)
            t += dt
        v_ref = state.v.copy()
        for _ in range(10):
            rt.apply(state, t, dt)
            step(state, dt)
            t += dt
            assert np.allclose(state.v, v_ref, rtol=1e-9, atol=1e-12)

    def test_interior_only_density_edit(self):
        state, _ = make_state()
        state.interior[:2] = True
        sched = compile_schedule(
            "at t=0 set object 0 interior density 0 ramp 0", state)
        rt = ScheduleRuntime(sched)
        m0 = state.mass.copy()
        # big dt so the rate cap lets the value converge quickly
        for k in range(200):
            rt.apply(state, k * 0.01, 0.01)
        assert np.all(state.density[:2] == 1.0)
        assert np.all(state.density[2:] == 1000.0)
        assert np.all(state.mass[2:] == m0[2:])
        assert np.allclose(state.mass[:2], 1.0 * state.vol0[:2])

    def test_log_rate_cap_never_exceeded(self):
        state, _ = make_state()
        sched = compile_schedule("at t=0 set object 0 young_modulus 1e9 ramp 0",
                                 state)
        rt = ScheduleRuntime(sched)
        dt = 1e-3
        rate = sched.max_log_rate
        t = 0.0
        for k in range(50):
            before = state.young_modulus.copy()
            recs = rt.apply(state, t, dt)
            dlog = np.abs(np.log10(state.young_modulus / before))
            assert np.all(dlog <= rate * dt + 1e-12)
            for rec in recs:
                assert rec["max_dlog10"] <= rate * rec["dt"] + 1e-12
            t += dt

    def test_ramp_continuity_bound(self):
        # 2 decades over 1.2 s stays under the 2 decades/s cap
        state, _ = make_state(e=1e4)
        sched = compile_schedule(
            "at t=0 set object 0 young_modulus 1e6 ramp 1.2", state)
        rt = ScheduleRuntime(sched)
        dt = 1e-3
        t = 0.0
        for _ in range(1300):
            before = state.young_modulus.copy()
            recs = rt.apply(state, t, dt)
            dlog = np.abs(np.log10(state.young_modulus / before))
            assert np.all(dlog <= sched.max_log_rate * dt + 1e-12)
            assert all(not rec["capped"] for rec in recs)
            t += dt
        assert np.allclose(state.young_modulus, 1e6, rtol=1e-9)

    @pytest.mark.parametrize("duration", [0.0, 0.05])
    @pytest.mark.parametrize("target, prop, value, scale", [
        ("object 0", "young_modulus", 3e4, "log"),
        ("object 0", "poisson_ratio", 0.35, "linear"),
        ("scene", "gravity", (1.0, -5.0, 0.5), "linear")])
    def test_ramp_writes_ramp_value(self, target, prop, value, scale,
                                    duration):
        """At every substep of a line, before, on and after its ramp, apply
        writes the closed-form ramp value from the line's start values, bit
        for bit."""
        state, _ = make_state(n=5)
        column = getattr(state, prop)
        column *= np.linspace(0.8, 1.2, column.size)
        start = column.copy()
        text = str(value).replace(" ", "")
        rt = ScheduleRuntime(compile_schedule(
            f"at t=0.01 set {target} {prop} {text} ramp {duration}\n"
            "max_log_rate 1000", state))
        dt = 0.0037
        for k in range(25):
            rt.apply(state, k * dt, dt)
            expected = start if k * dt < 0.01 else ramp_oracle(
                start, value, k * dt - 0.01, duration, scale)
            assert np.array_equal(column, expected), k
        assert rt.done == [True]

    def test_idempotent_at_same_time(self):
        state, _ = make_state()
        sched = compile_schedule(
            "at t=0 set object 0 young_modulus 1e6 ramp 0.2", state)
        rt = ScheduleRuntime(sched)
        rt.apply(state, 0.0, 1e-3)
        e_once = state.young_modulus.copy()
        rt.apply(state, 0.0, 1e-3)
        assert np.array_equal(state.young_modulus, e_once)

    def test_impulse_applied_once(self):
        state, _ = make_state(gravity=(0, 0, 0))
        sched = compile_schedule("at t=0 impulse object 0 (0,2,0)", state)
        rt = ScheduleRuntime(sched)
        rt.apply(state, 0.0, 1e-3)
        assert np.allclose(state.v[:, 1], 2.0)
        rt.apply(state, 0.0, 1e-3)
        rt.apply(state, 0.01, 1e-3)
        assert np.allclose(state.v[:, 1], 2.0)

    def test_material_switch_sets_class(self):
        state, _ = make_state()
        state.f[:] = np.diag([1.2, 0.9, 0.95])  # deformed before the switch
        f_before = state.f.copy()
        sched = compile_schedule(
            "at t=0 set object 0 material_model liquid once", state)
        rt = ScheduleRuntime(sched)
        rt.apply(state, 0.0, 1e-3)
        assert np.all(state.class_id == int(MaterialClass.LIQUID))
        # only a switch to rigid resets F
        assert np.array_equal(state.f, f_before)

    def test_event_fires_once_when_one_shot(self):
        state, cfg = make_state(gravity=(0, 0, 0))
        state.x[:, 1] = 0.05 - 2.3  # just above the ground at -2.3
        sched = compile_schedule(
            "on ground_contact set object 0 density 2000 ramp 0", state)
        rt = ScheduleRuntime(sched)
        # not in contact yet (contact band is 1.5 h = 0.015)
        rt.apply(state, 0.0, 1e-3)
        assert rt.fire_time == [None]
        state.x[:, 1] = 0.01 - 2.3
        rt.apply(state, 0.01, 1e-3)
        assert rt.fire_time == [0.01]

    def test_event_true_on_repeated_time_waits_for_next_time(self):
        """A second apply at one t changes nothing, even for a new event."""
        state, _ = make_state(gravity=(0, 0, 0))
        state.x[:, 1] = 0.05 - 2.3
        sched = compile_schedule(
            "on ground_contact set object 0 density 2000 ramp 0", state)
        rt = ScheduleRuntime(sched)
        rho0 = state.density.copy()
        assert rt.apply(state, 0.01, 1e-3) == []
        state.x[:, 1] = 0.01 - 2.3  # in contact from here on
        assert rt.apply(state, 0.01, 1e-3) == []
        assert rt.fire_time == [None]
        assert np.array_equal(state.density, rho0)
        (rec,) = rt.apply(state, 0.02, 1e-3)
        assert rt.fire_time == [0.02]
        assert rec["t"] == 0.02

    def test_live_params_stay_valid_after_edits(self):
        state, _ = make_state()
        text = """
        at t=0 set object 0 young_modulus 1e9 ramp 0
        at t=0 set object 0 poisson_ratio 0.45 ramp 0.1
        at t=0 set object 0 density 2e4 ramp 0.1
        """
        sched = compile_schedule(text, state)
        rt = ScheduleRuntime(sched)
        for k in range(300):
            rt.apply(state, k * 1e-3, 1e-3)
            assert np.all(state.young_modulus >= 1e2)
            assert np.all(state.young_modulus <= 1e12)
            assert np.all(state.poisson_ratio < 0.5)
            assert np.all(state.density <= 2e4)

    def test_part_ramp_edits_only_that_part(self):
        state, _ = make_state()
        state.part[2:] = 1
        sched = compile_schedule(
            "at t=0 set object 0 part 1 poisson_ratio 0.4 ramp 0", state)
        rt = ScheduleRuntime(sched)
        (rec,) = rt.apply(state, 0.0, 1e-3)
        assert rec["target"] == "object 0 part 1"
        assert np.all(state.poisson_ratio[2:] == 0.4)
        assert np.all(state.poisson_ratio[:2] == 0.2)

    def test_speed_above_trigger_fires(self):
        state, _ = make_state(gravity=(0, 0, 0))
        sched = compile_schedule(
            "on speed_above 1.5 set object 0 gravity_scale 0 ramp 0", state)
        rt = ScheduleRuntime(sched)
        assert rt.apply(state, 0.0, 1e-3) == []
        assert rt.fire_time == [None]
        state.v[1] = (0.0, 2.0, 0.0)
        (rec,) = rt.apply(state, 0.01, 1e-3)
        assert rt.fire_time == [0.01]
        assert rec["property"] == "gravity_scale"
        assert np.all(state.gravity_scale == 0.0)

    def test_empty_selection_ramp_finishes_without_record(self):
        state, _ = make_state()
        assert not state.interior.any()
        sched = compile_schedule(
            "at t=0 set object 0 interior density 500 ramp 0.1", state)
        rt = ScheduleRuntime(sched)
        rho0 = state.density.copy()
        assert rt.apply(state, 0.0, 1e-3) == []
        assert rt.done == [True]
        assert rt.apply(state, 0.05, 1e-3) == []
        assert np.array_equal(state.density, rho0)

    def test_runtime_with_empty_schedule(self):
        state, _ = make_state()
        rt = ScheduleRuntime(InstructionSchedule())
        assert rt.apply(state, 0.0, 1e-3) == []


GOLDEN_EDITS = Path(__file__).parent / "data" / "schedule_golden_edits.json"
GOLDEN_SCHEDULE = """
max_log_rate 100
at t=0 set object 0 young_modulus 3e4 ramp 0.002
at t=0.001 set object 0 density 400
at t=0 set object 0 poisson_ratio 0.35 ramp 0.002
at t=0.001 set object 0 gravity_scale 0.5 ramp 0.001
on height_below 1.0 set object 0 wind_scale 2 ramp 0.002
at t=0 set scene wind (1,0,-0.5) ramp 0.002
at t=0.001 set scene gravity (0,-4.9,0)
at t=0.002 impulse object 0 (0,1,0) once
at t=0.003 set object 0 material_model sand
"""


def golden_edit_records():
    """Edit records of a run that fires one intervention of every kind."""
    state, _ = make_state()
    rt = ScheduleRuntime(compile_schedule(GOLDEN_SCHEDULE, state))
    records = []
    for k in range(6):
        records += rt.apply(state, k * 1e-3, 1e-3)
    return records


def test_edit_records_match_golden_log():
    """Every record kind, field for field, against a checked-in log."""
    records = golden_edit_records()
    assert {rec["property"] for rec in records} == {
        "young_modulus", "density", "poisson_ratio", "gravity_scale",
        "wind_scale", "wind", "gravity", "velocity_impulse", "material_model"}
    assert records == json.loads(GOLDEN_EDITS.read_text())


def test_rigid_switch_mid_run():
    """A drop_cube-like cube turned rigid on landing keeps its shape from then on."""
    surface = uniform_field(cube_shell_positions(0.12, 5), MaterialClass.ELASTIC,
                            2e4, 0.3, 400.0)
    cube = fill_field(surface, FillConfig(particle_spacing=0.03))
    cfg = SimConfig(h_grid=0.03, frames=1, domain_lo=(-0.4, -0.09, -0.4),
                    domain_hi=(0.5, 0.8, 0.5), ground_height=0.0,
                    ground_bc="sticky")
    state = build_state([ObjectInit(field=cube, h_fill=0.03,
                                    translate=(0.0, 0.2, 0.0))], cfg)
    rt = ScheduleRuntime(compile_schedule(
        "on ground_contact set object 0 material_model rigid once", state))
    eye = np.broadcast_to(np.eye(3), state.f.shape)
    switched = None
    while state.t < 0.5:
        dt = stable_dt(state, cfg)
        if rt.apply(state, state.t, dt):
            assert np.all(state.class_id == int(MaterialClass.RIGID))
            assert np.array_equal(state.f, eye)
            switched = pdist(state.x)
            dt = min(dt, stable_dt(state, cfg))
        step(state, dt)
    assert switched is not None
    assert np.array_equal(state.f, eye)
    assert np.abs(pdist(state.x) - switched).max() < 1e-12
    assert state.x[:, 1].min() > 0.0


# edits for the cached-limiter property: every kind the engine caches
# against (E, nu and rho ramps under a log-rate cap, class switches, the
# scene's gravity and wind, the per-object scales) and one it does not
# (velocity impulses), on two objects whose first has two parts
_TIMES = hst.floats(0.0, 0.08)
_RAMPS = hst.sampled_from((0.0, 0.0, 0.01, 0.04))
_OBJECTS = hst.sampled_from(("object 0", "object 1", "object 0 part 1"))


def _vectors(bound):
    return hst.tuples(*[hst.floats(-bound, bound)] * 3).map(
        lambda v: "({!r},{!r},{!r})".format(*v))


_LIMITER_EDITS = hst.one_of(
    hst.tuples(_OBJECTS, hst.floats(3.0, 5.0).map(lambda x: 10.0 ** x))
    .map(lambda a: f"set {a[0]} young_modulus {a[1]!r}"),
    hst.tuples(_OBJECTS, hst.floats(0.0, 0.45))
    .map(lambda a: f"set {a[0]} poisson_ratio {a[1]!r}"),
    hst.tuples(_OBJECTS, hst.floats(2.0, 3.3).map(lambda x: 10.0 ** x))
    .map(lambda a: f"set {a[0]} density {a[1]!r}"),
    hst.tuples(_OBJECTS, hst.sampled_from(("rigid", "liquid")))
    .map(lambda a: f"set {a[0]} material_model {a[1]}"),
    _vectors(30.0).map(lambda v: f"set scene gravity {v}"),
    _vectors(30.0).map(lambda v: f"set scene wind {v}"),
    hst.tuples(_OBJECTS, hst.sampled_from(("gravity_scale", "wind_scale")),
               hst.floats(-20.0, 20.0))
    .map(lambda a: f"set {a[0]} {a[1]} {a[2]!r}"),
    hst.tuples(_OBJECTS, _vectors(2.0))
    .map(lambda a: f"impulse {a[0]} {a[1]}"),
)
_INSTANT = ("material_model", "impulse")  # these take no ramp
_LIMITER_LINES = hst.tuples(
    hst.one_of(_TIMES.map(lambda t: f"at t={t!r}"),
               hst.just("on ground_contact object 0")),
    _LIMITER_EDITS, _RAMPS,
).map(lambda a: f"{a[0]} {a[1]}" + (
    f" ramp {a[2]!r}" if a[2] and not any(w in a[1] for w in _INSTANT) else ""))


def _limiter_scene(classes):
    """Two 27-particle cubes of the given classes over sticky ground, 3
    frames at 24 fps; the lower one has two parts.  The solids are soft
    (c_p about 1 m/s), so a body force over about 150 m/s^2 sets dt
    instead, and with both cubes RIGID and at rest only the body force
    can."""
    lattice = 0.03 * np.stack(np.meshgrid(*[np.arange(3.0)] * 3,
                                          indexing="ij"), axis=-1).reshape(-1, 3)
    lower = uniform_field(lattice, classes[0], 1e3, 0.3, 1000.0)
    lower = lower.with_(part_label=(lattice[:, 2] > 0.04).astype(np.int32))
    upper = uniform_field(lattice, classes[1], 2e3, 0.25, 800.0)
    cfg = SimConfig(h_grid=0.03, frames=3, fps=24.0,
                    domain_lo=(-0.6, -0.18, -0.6), domain_hi=(0.7, 0.6, 0.6),
                    ground_height=0.0)
    state = build_state([ObjectInit(field=lower, h_fill=0.03,
                                    translate=(0.0, 0.03, 0.0)),
                         ObjectInit(field=upper, h_fill=0.03,
                                    translate=(0.1, 0.15, 0.0))], cfg)
    return state, cfg


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
# switches between stressed classes: a RIGID switch cannot show stale class
# rows, since it sets F = I, where every class's stress is 0
@example(lines=["at t=0.03 set object 0 material_model liquid"], rate=None,
         classes=(MaterialClass.ELASTIC, MaterialClass.ELASTIC))
@example(lines=["at t=0.01 set object 0 part 1 material_model liquid",
                "on ground_contact object 0 set object 1 material_model elastic"],
         rate=None, classes=(MaterialClass.ELASTIC, MaterialClass.LIQUID))
@given(lines=hst.lists(_LIMITER_LINES, min_size=2, max_size=5),
       rate=hst.sampled_from((None, 0.5, 5.0)),
       classes=hst.tuples(*[hst.sampled_from((MaterialClass.ELASTIC,
                                              MaterialClass.RIGID,
                                              MaterialClass.LIQUID))] * 2))
def test_cached_limiter_matches_per_substep_derivation(lines, rate, classes):
    """simulate derives the CFL bounds, class rows and rigid groups once per
    schedule edit; a hand loop of the uncached stable_dt(state, cfg) and
    step(state, dt) must take the same dt at every substep, log the same
    edits and end with bit-identical x, v and F, or fail alike at the
    same substep where a particle escapes or F degenerates."""
    text = "\n".join(lines + ([] if rate is None else [f"max_log_rate {rate}"]))
    state, cfg = _limiter_scene(classes)
    schedule = compile_schedule(text, state)
    dts, error, edit_log = [], None, None
    inner = engine.step

    def counted(st, dt, *args, **kwargs):
        dts.append(dt)
        inner(st, dt, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "step", counted)
        try:
            edit_log = simulate(state, schedule, cfg).edit_log
        except (ParticleEscape, NumericalError) as exc:
            error = (type(exc), exc.particle)

    hand, _ = _limiter_scene(classes)
    rt = ScheduleRuntime(schedule)
    hand_dts, hand_edits, hand_error = [], [], None
    try:
        for frame in range(1, cfg.frames):
            target_t = frame / cfg.fps
            while hand.t < target_t - 1e-12:
                dt = min(stable_dt(hand, cfg), target_t - hand.t)
                edits = rt.apply(hand, hand.t, dt)
                if edits:
                    hand_edits.extend(edits)
                    dt = min(dt, stable_dt(hand, cfg))
                hand_dts.append(dt)
                step(hand, dt)
            hand.t = target_t
    except (ParticleEscape, NumericalError) as exc:
        hand_error = (type(exc), exc.particle)

    assert dts == hand_dts
    assert error == hand_error
    if error is None:
        assert edit_log == hand_edits
    for name in ("x", "v", "f"):
        assert np.array_equal(getattr(state, name), getattr(hand, name)), name


def _drop_and_edit(schedule_text, monkeypatch):
    """A 0.12 m elastic cube dropped from 7.5 cm onto sticky ground under
    one schedule line: (frame positions, edit log, the line's firing time)."""
    runtimes = []

    class Recording(engine.ScheduleRuntime):
        def __init__(self, schedule):
            super().__init__(schedule)
            runtimes.append(self)

    monkeypatch.setattr(engine, "ScheduleRuntime", Recording)
    surface = uniform_field(cube_shell_positions(0.12, 5), MaterialClass.ELASTIC,
                            2e4, 0.3, 400.0)
    cube = fill_field(surface, FillConfig(particle_spacing=0.03))
    cfg = SimConfig(h_grid=0.03, frames=4, fps=24.0,
                    domain_lo=(-0.4, -0.09, -0.4), domain_hi=(0.5, 0.8, 0.5),
                    ground_height=0.0)
    state = build_state([ObjectInit(field=cube, h_fill=0.03,
                                    translate=(0.0, 0.075, 0.0))], cfg)
    traj = simulate(state, compile_schedule(schedule_text, state), cfg)
    (fire_time,) = runtimes[0].fire_time
    return traj.positions, traj.edit_log, fire_time


@pytest.mark.parametrize("event, action", [
    ("ground_contact", "set object 0 young_modulus 2e5 ramp 0.05"),
    ("height_below 0.06", "set object 0 poisson_ratio 0.4 ramp 0.05"),
    ("speed_above 0.3 object 0", "set scene gravity (0,2,0) ramp 0.05"),
    ("speed_above 0.5", "impulse object 0 (0.5,1,0)"),
    ("ground_contact", "set object 0 material_model liquid"),
], ids=["log_ramp", "linear_ramp", "scene_vector", "impulse", "material_model"])
def test_event_replays_as_timed_trigger(event, action, monkeypatch):
    """An event trigger replayed as 'at t=<its firing time>' reruns the
    simulation bit for bit."""
    positions, edits, fire_time = _drop_and_edit(f"on {event} {action}",
                                                 monkeypatch)
    assert fire_time is not None and edits
    replayed, replay_edits, replay_time = _drop_and_edit(
        f"at t={fire_time!r} {action}", monkeypatch)
    assert replay_time == fire_time
    assert np.array_equal(replayed, positions)
    assert replay_edits == edits


def count_derivations(mp):
    """Patch the engine's class-row, rigid-group, wave-speed and Lame
    derivations to count their calls."""
    counts = dict.fromkeys(("_class_rows", "_rigid_groups", "wave_speeds",
                            "lame_parameters"), 0)
    for name in counts:
        def counted(*args, _inner=getattr(engine, name), _name=name):
            counts[_name] += 1
            return _inner(*args)

        mp.setattr(engine, name, counted)
    return counts


def test_every_edit_derives_everything_again(monkeypatch):
    """Each derivation runs once at the start and once more after each
    substep with an edit, whichever property the edit set."""
    state, cfg = _limiter_scene((MaterialClass.ELASTIC, MaterialClass.RIGID))
    schedule = compile_schedule(
        "at t=0 set object 0 young_modulus 3e3 ramp 0.03\n"
        "at t=0.05 set scene gravity (0,-5,0) ramp 0.02\n"
        "at t=0.06 impulse object 0 (0,0.5,0)\n"
        "at t=0.07 set object 1 material_model liquid\n"
        "max_log_rate 50", state)
    counts = count_derivations(monkeypatch)
    edit_log = simulate(state, schedule, cfg).edit_log
    assert {rec["property"] for rec in edit_log} == {
        "young_modulus", "gravity", "velocity_impulse", "material_model"}
    edited = {rec["t"] for rec in edit_log}
    assert len(edited) > 5
    assert counts == dict.fromkeys(counts, 1 + len(edited))


def test_material_switch_derives_class_rows_once(monkeypatch):
    state, cfg = _limiter_scene((MaterialClass.ELASTIC, MaterialClass.RIGID))
    schedule = compile_schedule("at t=0.02 set object 1 material_model liquid",
                                state)
    counts = count_derivations(monkeypatch)
    (record,) = simulate(state, schedule, cfg).edit_log
    assert record["value"] == "LIQUID"
    assert counts == dict.fromkeys(counts, 2)


def test_impulse_shortens_its_substep():
    """The substep an impulse lands in takes the shorter dt that its max
    |v| gives, as the uncached loop does."""
    text = "at t=0.02 impulse object 1 (1.5,0,0)"
    dts = []
    with pytest.MonkeyPatch.context() as mp:
        state, cfg = _limiter_scene((MaterialClass.ELASTIC,) * 2)
        schedule = compile_schedule(text, state)
        counts = count_derivations(mp)
        inner = engine.step

        def counted(st, dt, *args, **kwargs):
            dts.append(dt)
            inner(st, dt, *args, **kwargs)

        mp.setattr(engine, "step", counted)
        simulate(state, schedule, cfg)
    assert counts == dict.fromkeys(counts, 2)

    hand, _ = _limiter_scene((MaterialClass.ELASTIC,) * 2)
    rt = ScheduleRuntime(schedule)
    hand_dts, shortened = [], []
    for frame in range(1, cfg.frames):
        target_t = frame / cfg.fps
        while hand.t < target_t - 1e-12:
            dt = min(stable_dt(hand, cfg), target_t - hand.t)
            if rt.apply(hand, hand.t, dt):
                shortened.append((dt, stable_dt(hand, cfg)))
                dt = min(dt, stable_dt(hand, cfg))
            hand_dts.append(dt)
            step(hand, dt)
        hand.t = target_t
    ((before, after),) = shortened
    assert after < 0.75 * before
    assert dts == hand_dts
    assert np.array_equal(state.x, hand.x)


def test_probe_reads_only_pending_event_objects(monkeypatch):
    """The probe aggregates only the objects that lines still waiting for
    their event name, from rows found once, with the values the
    every-object probe gives; after the last event fires it stops."""
    state, cfg = _limiter_scene((MaterialClass.ELASTIC,) * 2)
    schedule = compile_schedule(
        "on speed_above 0.3 object 1 set object 0 wind_scale 2\n"
        "at t=0.01 set object 1 density 900", state)
    inner, calls = engine.object_events, []

    def probe(st, objects):
        events = inner(st, objects)
        calls.append((st.t, sorted(events)))
        every = {oid: st.object_id == oid for oid in np.unique(st.object_id)}
        assert events == {oid: inner(st, every)[oid] for oid in events}
        return events

    monkeypatch.setattr(engine, "object_events", probe)
    edit_log = simulate(state, schedule, cfg).edit_log
    (fired,) = [rec["t"] for rec in edit_log if rec["property"] == "wind_scale"]
    assert len(calls) > 3
    assert {tuple(keys) for _, keys in calls} == {(1,)}
    assert max(t for t, _ in calls) == fired


_ERROR_LINES = [  # (a bad schedule line, the error it raises)
    ("at", ParseError),
    ("at t=abc set object 0 density 1000", ParseError),
    ("at t=nan set object 0 density 1000", ParseError),
    ("at t=0 set object x density 1000", ParseError),
    ("at t=0 set scene gravity 1", ParseError),
    ("at t=0 set scene gravity (0,1)", ParseError),
    ("at t=0 set object 0 density 1000 extra", ParseError),
    ("at t=-1 set object 0 density 1000", ParseError),
    ("on explode set object 0 density 1000", ParseError),
    ("when t=0 set object 0 density 1000", ParseError),
    ("at t=0 set thing 0 density 1000", ParseError),
    ("at t=0 set object 0 material_model goo", ParseError),
    ("at t=0 put object 0 density 1000", ParseError),
    ("at t=0 set object 0 color 1", ParseError),
    ("at t=0 set object 0 density 1000 ramp -1", ParseError),
    ("at t=0 set object 0 material_model liquid ramp 1", ParseError),
    ("at t=0 set object 0 gravity (0,0,0)", ParseError),
    ("at t=0 set scene density 1000", ParseError),
    ("on ground_contact set scene gravity (0,1,0)", ParseError),
    ("clamp gravity 0 1", ParseError),
    ("clamp young_modulus 1e6 1e5", ParseError),
    ("max_log_rate -1", ParseError),
    ("clamp young_modulus 1 1e9", ClampViolation),
    ("at t=0 set object 0 young_modulus 1e13", ClampViolation),
    ("at t=0 set object 7 density 1000", UnknownTarget),
    ("at t=0 set object 0 part 5 density 1000", UnknownTarget),
    ("on ground_contact object 9 set scene gravity (0,1,0)", UnknownTarget),
]


@pytest.mark.parametrize("line, error", _ERROR_LINES)
def test_every_schedule_error_names_its_line(line, error):
    """Each kind of schedule error names the line it comes from, and a
    ParseError also carries the column of a token on that line."""
    with pytest.raises(error) as err:
        compile_schedule(f"# a comment\n\n{line}", scene_map())
    assert "line 3" in str(err.value)
    if error is ParseError:
        assert err.value.line == 3
        assert 1 <= err.value.column <= len(line) + 1
