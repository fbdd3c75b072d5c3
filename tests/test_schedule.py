import math

import numpy as np
import pytest

from physedit.engine import ObjectInit, SimConfig, build_state, step
from physedit.errors import (ClampViolation, DomainError, ParseError,
                             UnknownTarget)
from physedit.materials import MaterialClass
from physedit.schedule import (DEFAULT_MAX_LOG_RATE, InstructionSchedule,
                               ScheduleRuntime, compile_schedule, ramp_value)
from physedit.scenes import uniform_field


def scene_map():
    return {0: {0, 2}, 1: {0}}


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

    def test_array_from_values(self):
        out = ramp_value(np.array([1.0, 100.0]), 10.0, 0.5, 1.0, scale="log")
        assert out == pytest.approx([math.sqrt(10.0), math.sqrt(1000.0)],
                                    rel=1e-12)


class TestCompile:
    def test_empty_schedule_defaults(self):
        sched = compile_schedule("", scene_map())
        assert sched.interventions == ()
        assert sched.max_log_rate == DEFAULT_MAX_LOG_RATE
        assert sched.clamps["young_modulus"] == (1e2, 1e12)

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
        sched = compile_schedule("clamp young_modulus 1e3 1e9", scene_map())
        assert sched.clamps["young_modulus"] == (1e3, 1e9)
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
        assert iv.one_shot

    def test_impulse_sugar(self):
        sched = compile_schedule("at t=1.0 impulse object 0 (0,2,0)",
                                 scene_map())
        (iv,) = sched.interventions
        assert iv.property == "velocity_impulse"
        assert iv.one_shot


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

    def test_material_switch_resets_plastic(self):
        state, _ = make_state()
        sched = compile_schedule(
            "at t=0 set object 0 material_model liquid once", state)
        rt = ScheduleRuntime(sched)
        rt.apply(state, 0.0, 1e-3)
        assert np.all(state.class_id == int(MaterialClass.LIQUID))

    def test_event_fires_once_when_one_shot(self):
        state, cfg = make_state(gravity=(0, 0, 0))
        state.x[:, 1] = 0.05 - 2.3  # just above the ground at -2.3
        sched = compile_schedule(
            "on ground_contact set object 0 density 2000 ramp 0", state)
        rt = ScheduleRuntime(sched)
        # not in contact yet (contact band is 1.5 h = 0.015)
        rt.apply(state, 0.0, 1e-3)
        assert rt.fired == [False]
        state.x[:, 1] = 0.01 - 2.3
        rt.apply(state, 0.01, 1e-3)
        assert rt.fired == [True]
        assert rt.fire_time == [0.01]

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

    def test_runtime_with_empty_schedule(self):
        state, _ = make_state()
        rt = ScheduleRuntime(InstructionSchedule())
        assert rt.apply(state, 0.0, 1e-3) == []
