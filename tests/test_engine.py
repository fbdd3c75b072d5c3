import json
import math
import signal
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy.spatial.distance import pdist

import physedit.engine as engine
from physedit import cli, constitutive
from oracles import (boundary_layers_oracle, contact_rows_oracle,
                     g2p_oracle, grid_update_oracle, p2g_oracle,
                     rigid_fit_oracle, unfused_p2g_oracle)
from physedit.constitutive import batch_constitutive
from physedit.engine import (_BC_MODES, GRID_MARGIN, ObjectInit, SimConfig,
                             _boundaries, _boundary_layers, _derive,
                             _contact_rows, _couple_rigid, _g2p, _grid_update,
                             _p2g, _rigid_groups, _Stencil, build_state,
                             object_events, simulate, stable_dt, step)
from physedit.errors import (DomainError, EmptyScene, GridOverflow,
                             NumericalError, ParticleEscape)
from physedit.fieldio import write_field
from physedit.fill import FillConfig, fill_field
from physedit.materials import MaterialClass
from physedit.scenes import cube_shell_positions, load_scene, uniform_field
from physedit.schedule import ScheduleRuntime, compile_schedule


def free_cfg(**kw):
    base = dict(h_grid=0.01, frames=1, domain_lo=(-0.6, -2.4, -0.6),
                domain_hi=(0.6, 0.4, 0.6), ground_height=-2.3)
    base.update(kw)
    return SimConfig(**base)


def particle_field(points, material=MaterialClass.ELASTIC, e=1e4, nu=0.2,
                   rho=1000.0):
    return uniform_field(np.asarray(points, dtype=float), material, e, nu, rho)


def small_cube(size=0.12, n=5, e=2e4, nu=0.3, rho=400.0,
               material=MaterialClass.ELASTIC):
    shell = cube_shell_positions(size, n)
    surface = uniform_field(shell, material, e, nu, rho)
    return fill_field(surface, FillConfig(particle_spacing=size / (n - 1)))


class TestBuildState:
    def test_mass_is_rho_h3(self):
        f = particle_field([[0, 0, 0]], rho=1000.0)
        st = build_state([ObjectInit(field=f, h_fill=0.1)], free_cfg())
        assert st.mass[0] == pytest.approx(1.0, rel=1e-15)
        assert st.vol0[0] == pytest.approx(1e-3, rel=1e-15)
        assert np.array_equal(st.f[0], np.eye(3))
        assert np.all(st.c_apic == 0)

    def test_object_partition(self):
        f1 = particle_field([[0, 0, 0], [0.05, 0, 0]])
        f2 = particle_field([[0, 0.1, 0], [0.05, 0.1, 0], [0.1, 0.1, 0]])
        st = build_state([ObjectInit(field=f1, h_fill=0.05),
                          ObjectInit(field=f2, h_fill=0.05)], free_cfg())
        assert np.sum(st.object_id == 0) == 2
        assert np.sum(st.object_id == 1) == 3

    def test_initial_velocity_and_transform(self):
        f = particle_field([[0, 0, 0]])
        st = build_state([ObjectInit(field=f, h_fill=0.05,
                                     velocity=(1, 2, 3),
                                     translate=(0.1, -0.2, 0.0))], free_cfg())
        assert np.array_equal(st.v[0], [1, 2, 3])
        assert np.allclose(st.x[0], [0.1, -0.2, 0.0])

    def test_grid_overflow(self):
        f = particle_field([[5.0, 0, 0]])
        with pytest.raises(GridOverflow):
            build_state([ObjectInit(field=f, h_fill=0.05)], free_cfg())

    def test_empty_scene(self):
        with pytest.raises(EmptyScene):
            build_state([], free_cfg())

    def test_invalid_field_rejected(self):
        f = particle_field([[0, 0, 0]])
        bad = f.with_(poisson_ratio=np.array([0.7]))
        with pytest.raises(DomainError):
            build_state([ObjectInit(field=bad, h_fill=0.05)], free_cfg())

    @pytest.mark.parametrize("h_fill, cfg_kw, message", [
        (0.0, {}, "h_fill must be finite and positive"),
        (-1.0, {}, "h_fill must be finite and positive"),
        (math.inf, {}, "h_fill must be finite and positive"),
        (math.nan, {}, "h_fill must be finite and positive"),
        (0.05, {"domain_hi": (0.6, -2.4, 0.6)}, "domain_hi must exceed domain_lo"),
        (0.05, {"domain_hi": None}, "must be given together"),
        (0.05, {"domain_lo": None}, "must be given together"),
    ], ids=["h_fill-zero", "h_fill-negative", "h_fill-inf", "h_fill-nan",
            "domain-flat", "domain_lo-alone", "domain_hi-alone"])
    def test_rejects(self, h_fill, cfg_kw, message):
        f = particle_field([[0, 0, 0]])
        with pytest.raises(DomainError, match=message):
            build_state([ObjectInit(field=f, h_fill=h_fill)], free_cfg(**cfg_kw))


class TestConfig:
    @pytest.mark.parametrize("key, value, message", [
        ("h_grid", 0.0, "h_grid must be positive"),
        ("h_grid", math.nan, "h_grid must be finite"),
        ("h_grid", math.inf, "h_grid must be finite"),
        ("cfl_number", 0.0, r"cfl_number must lie in \(0, 1\)"),
        ("cfl_number", 1.0, r"cfl_number must lie in \(0, 1\)"),
        ("cfl_number", math.nan, r"cfl_number must lie in \(0, 1\)"),
        ("fps", 0.0, "fps must be positive"),
        ("fps", math.inf, "fps must be finite"),
        ("fps", math.nan, "fps must be finite"),
        ("frames", 0, "frames must be >= 1"),
        ("ground_bc", "bouncy", "boundary modes must be one of"),
        ("ground_height", math.nan, "ground_height must be finite"),
        ("ground_height", -math.inf, "ground_height must be finite"),
        ("damping", -1.0, "damping must be non-negative"),
        ("damping", math.nan, "damping must be finite"),
        ("damping", math.inf, "damping must be finite"),
        ("domain_lo", (math.nan, -2.4, -0.6), "domain_lo must be finite"),
        ("domain_hi", (0.6, math.inf, 0.6), "domain_hi must be finite"),
    ], ids=["h_grid-zero", "h_grid-nan", "h_grid-inf", "cfl-zero", "cfl-one",
            "cfl-nan", "fps-zero", "fps-inf", "fps-nan", "frames-zero",
            "ground_bc", "ground_height-nan", "ground_height-inf",
            "damping-negative", "damping-nan", "damping-inf", "domain_lo-nan",
            "domain_hi-inf"])
    def test_validate_rejects(self, key, value, message):
        # wall_bc has its own test below
        with pytest.raises(DomainError, match=message):
            free_cfg(**{key: value}).validate()

    @pytest.mark.parametrize("wall_bc", ["bouncy", {"floor": "slip"},
                                         {"y_min": "slip"}, {"x_min": "sticky"}])
    def test_invalid_wall_bc_rejected(self, wall_bc):
        # one mode holds for every wall: a per-wall mapping is no mode
        with pytest.raises(DomainError, match="boundary modes must be one of"):
            free_cfg(wall_bc=wall_bc).validate()


class TestCheckInside:
    """The grid-margin test at its exact edge.  h = 1/8 on [0, 1]^3 gives
    9 nodes per axis, so gx = 8 x is exact and particles may sit at
    gx in [GRID_MARGIN, 8 - GRID_MARGIN] = [3, 5]."""

    CFG = dict(h_grid=0.125, domain_lo=(0.0, 0.0, 0.0),
               domain_hi=(1.0, 1.0, 1.0), ground_height=0.0)

    @staticmethod
    def points():
        # five distinct interior points, all at dyadic coordinates
        return 0.5 + 0.0625 * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                                        [0, 0, 1], [-1, -1, -1]], dtype=float)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("face, gx", [("lo", GRID_MARGIN),
                                          ("hi", 8 - GRID_MARGIN)])
    def test_exact_margin_passes_and_one_ulp_out_fails(self, axis, face, gx):
        edge = gx * 0.125
        outward = -np.inf if face == "lo" else np.inf
        pts = self.points()
        pts[1, axis] = edge
        cfg = SimConfig(**self.CFG)
        st = build_state([ObjectInit(field=particle_field(pts.copy()),
                                     h_fill=0.125)], cfg)
        assert st.dims.tolist() == [9, 9, 9]
        assert (st.x[1, axis] - st.origin[axis]) / st.h == gx
        engine._check_inside(st)

        st.x[[4, 2], axis] = np.nextafter(edge, outward)
        with pytest.raises(ParticleEscape, match="^particle 2 at") as info:
            engine._check_inside(st)
        assert info.value.particle == 2

        pts[3, axis] = np.nextafter(edge, outward)
        with pytest.raises(GridOverflow, match="^particle 3 at"):
            build_state([ObjectInit(field=particle_field(pts), h_fill=0.125)],
                        cfg)


class TestStableDt:
    def test_formula(self):
        f = particle_field([[0, 0, 0]], e=2.0, nu=0.0, rho=1.0)
        cfg = free_cfg(h_grid=0.01, cfl_number=0.3)
        st = build_state([ObjectInit(field=f, h_fill=0.1)], cfg)
        assert stable_dt(st, cfg) == pytest.approx(0.003 / np.sqrt(2.0),
                                                   rel=1e-12)

    def test_rigid_left_out_of_wave_speed(self):
        cfg = free_cfg(h_grid=0.01, cfl_number=0.3)
        soft = particle_field([[0, 0, 0]], e=2.0, nu=0.0, rho=1.0)
        stiff = particle_field([[0.2, 0, 0]], material=MaterialClass.RIGID,
                               e=1e12, nu=0.3, rho=1.0)
        st = build_state([ObjectInit(field=soft, h_fill=0.1),
                          ObjectInit(field=stiff, h_fill=0.1)], cfg)
        assert stable_dt(st, cfg) == pytest.approx(0.003 / np.sqrt(2.0),
                                                   rel=1e-12)

    def test_all_rigid_gravity_bound(self):
        cfg = free_cfg(h_grid=0.01, cfl_number=0.3)
        f = particle_field([[0, 0, 0], [0.05, 0, 0]],
                           material=MaterialClass.RIGID, e=1e12, nu=0.3)
        st = build_state([ObjectInit(field=f, h_fill=0.05)], cfg,
                         gravity=(0, -9.8, 0), wind=(0, 0, 0))
        assert stable_dt(st, cfg) == pytest.approx(np.sqrt(0.003 / 9.8),
                                                   rel=1e-12)
        # nothing deformable, nothing moving and no body force: no bound,
        # so simulate takes one substep per frame and nothing moves
        st.gravity = np.zeros(3)
        assert stable_dt(st, cfg) == np.inf
        x0 = st.x.copy()
        simulate(st, None, free_cfg(frames=4, fps=10.0))
        assert st.t == pytest.approx(0.3, abs=1e-12)
        assert np.array_equal(st.x, x0) and np.all(st.v == 0)

    def test_doubling_speed_halves_dt(self):
        cfg = free_cfg()
        f1 = particle_field([[0, 0, 0]], e=1e4, nu=0.0, rho=1.0)
        f4 = particle_field([[0, 0, 0]], e=4e4, nu=0.0, rho=1.0)
        st1 = build_state([ObjectInit(field=f1, h_fill=0.1)], cfg)
        st4 = build_state([ObjectInit(field=f4, h_fill=0.1)], cfg)
        assert stable_dt(st4, cfg) == pytest.approx(stable_dt(st1, cfg) / 2,
                                                    rel=1e-12)

    def test_velocity_enters_bound(self):
        cfg = free_cfg()
        f = particle_field([[0, 0, 0]], e=2.0, nu=0.0, rho=1.0)
        st = build_state([ObjectInit(field=f, h_fill=0.1,
                                     velocity=(3.0, 0, 0))], cfg)
        assert stable_dt(st, cfg) == pytest.approx(
            0.3 * 0.01 / (np.sqrt(2.0) + 3.0), rel=1e-12)


class TestStep:
    def test_equilibrium_is_fixed_point(self):
        f = particle_field([[0, 0, 0], [0.04, 0, 0], [0, 0.04, 0]])
        st = build_state([ObjectInit(field=f, h_fill=0.04)], free_cfg(),
                         gravity=(0, 0, 0))
        x0, v0, f0 = st.x.copy(), st.v.copy(), st.f.copy()
        for _ in range(20):
            step(st, 1e-4)
        assert np.allclose(st.x, x0, atol=1e-12)
        assert np.allclose(st.v, v0, atol=1e-12)
        assert np.allclose(st.f, f0, atol=1e-12)

    def test_free_fall_matches_discrete_oracle(self):
        f = particle_field([[0, 0, 0]], e=2.0, nu=0.0, rho=1.0)
        st = build_state([ObjectInit(field=f, h_fill=0.1)], free_cfg(),
                         gravity=(0, -9.8, 0))
        dt = 1e-3
        n = 100
        for _ in range(n):
            step(st, dt)
        v_oracle, y_oracle = 0.0, 0.0
        for _ in range(n):
            v_oracle += dt * -9.8
            y_oracle += dt * v_oracle
        assert st.v[0, 1] == pytest.approx(v_oracle, rel=1e-9)
        assert st.x[0, 1] == pytest.approx(y_oracle, rel=1e-9)

    def test_two_body_momentum_conservation(self):
        f = particle_field([[0, -1.0, 0], [0.04, -1.0, 0]], e=1e4)
        st = build_state([ObjectInit(field=f, h_fill=0.04,
                                     velocity=(1.0, 0, 0))], free_cfg(),
                         gravity=(0, 0, 0))
        st.v[1] = [-0.5, 0.3, 0.0]
        p_ref = np.linalg.norm((st.mass[:, None] * st.v).sum(axis=0))
        for _ in range(60):
            before = (st.mass[:, None] * st.v).sum(axis=0)
            step(st, 2e-4)
            after = (st.mass[:, None] * st.v).sum(axis=0)
            assert np.linalg.norm(after - before) / p_ref < 1e-9

    def test_mass_conserved_exactly(self):
        cube = small_cube()
        cfg = SimConfig(h_grid=0.03, frames=1, domain_lo=(-0.3, -0.05, -0.3),
                        domain_hi=(0.4, 0.6, 0.4))
        st = build_state([ObjectInit(field=cube, h_fill=0.03,
                                     translate=(0.0, 0.2, 0.0))], cfg)
        m0 = st.mass.sum()
        for _ in range(50):
            step(st, stable_dt(st, cfg))
        assert st.mass.sum() == m0

    def test_wind_accelerates(self):
        f = particle_field([[0, 0, 0]], e=2.0, nu=0.0, rho=1.0)
        st = build_state([ObjectInit(field=f, h_fill=0.1)], free_cfg(),
                         gravity=(0, 0, 0), wind=(2.0, 0, 0))
        for _ in range(10):
            step(st, 1e-3)
        assert st.v[0, 0] == pytest.approx(2.0 * 10 * 1e-3, rel=1e-9)

    def test_gravity_scale_selects_particles(self):
        f = particle_field([[0, 0, 0], [0.2, 0, 0]], e=2.0, nu=0.0, rho=1.0)
        st = build_state([ObjectInit(field=f, h_fill=0.05)], free_cfg(),
                         gravity=(0, -9.8, 0))
        st.gravity_scale[1] = 0.0
        for _ in range(5):
            step(st, 1e-3)
        assert st.v[0, 1] < -0.04
        assert st.v[1, 1] == 0.0


def grid_box(h, origin, dims, lo, sub, ground_height, ground_bc, wall_bc,
             damping=0.0):
    """The state fields and the stencil box that _grid_update reads."""
    state = SimpleNamespace(h=h, origin=np.asarray(origin, dtype=float),
                            dims=np.asarray(dims), ground_height=ground_height,
                            ground_bc=ground_bc, wall_bc=wall_bc, damping=damping)
    return state, _Stencil(None, None, None, np.asarray(lo), np.asarray(sub))


@hst.composite
def grid_cases(draw):
    h = draw(hst.sampled_from([0.01, 0.025, 0.03, 0.1 / 3, 0.1]))
    origin = [draw(hst.floats(-1.0, 1.0)) for _ in range(3)]
    dims = [draw(hst.integers(7, 14)) for _ in range(3)]
    sub = [draw(hst.integers(1, d)) for d in dims]
    lo = [draw(hst.integers(0, d - s)) for d, s in zip(dims, sub)]
    # ground on a node layer, just off it, at the 1e-12 tolerance, or between
    ground = origin[1] + h * draw(hst.integers(-2, dims[1] + 1)) + draw(
        hst.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 0.5 * h]))
    damping = draw(hst.sampled_from([0.0, 3.0, 400.0]))
    state, stencil = grid_box(h, origin, dims, lo, sub, ground,
                              draw(hst.sampled_from(_BC_MODES)),
                              draw(hst.sampled_from(_BC_MODES)), damping)
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    n_sub = int(np.prod(sub))
    mass = np.where(rng.random(n_sub) < 0.3, 0.0, rng.random(n_sub))
    mom = rng.normal(size=(3, n_sub)) * (mass > 0)
    return state, stencil, draw(hst.sampled_from([1e-4, 4e-3])), mass, mom


class TestGridUpdate:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=grid_cases())
    def test_matches_node_mask_oracle_bitwise(self, case):
        state, stencil, dt, mass, mom = case
        grid_v = _grid_update(state, dt, stencil, mass, mom,
                              _boundary_layers(state))
        ref = grid_update_oracle(state, dt, stencil.lo, stencil.sub, mass, mom,
                                 GRID_MARGIN)
        assert grid_v.shape == mom.shape and grid_v.flags.c_contiguous
        assert grid_v.tobytes() == np.ascontiguousarray(ref.T).tobytes()

    @pytest.mark.parametrize("mode", _BC_MODES)
    @pytest.mark.parametrize("boundary, node, axis, sign", [
        ("ground", (5, 5, 5), 1, +1),
        ("x_min", (1, 5, 5), 0, +1), ("x_max", (10, 5, 5), 0, -1),
        ("y_max", (5, 10, 5), 1, -1),
        ("z_min", (5, 5, 1), 2, +1), ("z_max", (5, 5, 10), 2, -1),
    ])
    def test_boundary_modes(self, boundary, node, axis, sign, mode):
        # 12^3 nodes, h = 0.1: margin bands hold layers 0-3 and 8-11, so
        # layers 4-7 are free; the ground, when tested, holds layers 0-5
        state, stencil = grid_box(0.1, (0, 0, 0), (12, 12, 12), (0, 0, 0),
                                  (12, 12, 12),
                                  0.5 if boundary == "ground" else -1.0,
                                  mode if boundary == "ground" else "sticky",
                                  mode)
        away = list(node)
        away[(axis + 1) % 3] += 1  # a tangential neighbour in the same slab
        away, free = tuple(away), (6, 6, 6)
        mass = np.zeros((12, 12, 12))
        mom = np.zeros((3, 12, 12, 12))
        v_in, v_away, v_free = (np.full(3, 0.5) for _ in range(3))
        v_in[axis], v_away[axis], v_free[axis] = -sign, sign, -sign
        for n, v in ((node, v_in), (away, v_away), (free, v_free)):
            mass[n] = 1.0
            mom[(slice(None),) + n] = v
        grid_v = _grid_update(state, 1e-3, stencil, mass.ravel(),
                              mom.reshape(3, -1),
                              _boundary_layers(state)).reshape(3, 12, 12, 12)

        def normal_zeroed(v):
            out = v.copy()
            out[axis] = 0.0
            return out

        expect_in, expect_away = {
            "sticky": (np.zeros(3), np.zeros(3)),
            "slip": (normal_zeroed(v_in), normal_zeroed(v_away)),
            "separate": (normal_zeroed(v_in), v_away),
        }[mode]
        assert np.array_equal(grid_v[(slice(None),) + node], expect_in)
        assert np.array_equal(grid_v[(slice(None),) + away], expect_away)
        assert np.array_equal(grid_v[(slice(None),) + free], v_free)


@hst.composite
def boundary_cases(draw):
    """A grid, its ground, its boundary modes and an active box of at least
    3 layers per axis, with h, the origin and the ground drawn to land
    node layers on and around every threshold."""
    h = draw(hst.one_of(hst.sampled_from([0.01, 0.025, 0.03, 0.1 / 3, 0.1]),
                        hst.floats(1e-3, 1.0)))
    origin = [draw(hst.floats(-10.0, 10.0)) for _ in range(3)]
    dims = [draw(hst.integers(7, 40)) for _ in range(3)]
    sub = [draw(hst.integers(3, d)) for d in dims]
    lo = [draw(hst.integers(0, d - s)) for d, s in zip(dims, sub)]
    ground = origin[1] + h * draw(hst.integers(-2, dims[1] + 1)) + draw(
        hst.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 0.5 * h]))
    return grid_box(h, origin, dims, lo, sub, ground,
                    draw(hst.sampled_from(_BC_MODES)),
                    draw(hst.sampled_from(_BC_MODES)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=boundary_cases(), seed=hst.integers(0, 2 ** 32 - 1))
def test_boundary_ranges_match_float_comparisons(case, seed):
    """The per-run layer ranges, cut to the active box, select exactly the
    node layers that comparing each layer's coordinate with the ground
    and wall thresholds selects, and give the rigid fit the same contact
    rows as the boolean-layer rule."""
    state, stencil = case
    bounds = _boundary_layers(state)
    whole = boundary_layers_oracle(state, (0, 0, 0), state.dims, GRID_MARGIN)
    assert len(bounds) == len(whole)
    for (axis, sign, first, stop, mode), want in zip(bounds, whole):
        assert (axis, sign, mode) == (want[0], want[1], want[3])
        assert np.array_equal(np.flatnonzero(want[2]), np.arange(first, stop))

    in_box = boundary_layers_oracle(state, stencil.lo, stencil.sub, GRID_MARGIN)
    got = list(_boundaries(stencil, bounds))
    want = [b for b in in_box if b[2].any()]
    assert [(a, s, m) for a, s, _, m in got] == [(a, s, m) for a, s, _, m in want]
    for (axis, _, layers, _), (_, _, mask, _) in zip(got, want):
        assert np.array_equal(np.arange(stencil.sub[axis])[layers],
                              np.flatnonzero(mask))

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    rel = np.stack([rng.integers(0, s - 2, n) for s in stencil.sub])
    r = rng.standard_normal((n, 3))
    for g, w in zip(_contact_rows(r, rel, got), contact_rows_oracle(r, rel, in_box)):
        assert g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("h, origin, dims, ground_layer, offset", [
    (1e-3, (-5e3, -0.5, 2.0), (10 ** 7 + 1,) * 3, 5 * 10 ** 6, 0.0),
    (0.01, (123.456, -1e5, -7.89), (2 * 10 ** 7, 10 ** 7, 3 * 10 ** 7),
     4 * 10 ** 6 + 17, 1e-12),
    (0.1 / 3, (-2e5, 3e5, 1e5), (10 ** 7,) * 3, 10 ** 7 - 3, -1e-13),
    (0.025, (0.1, -2.0, 0.3), (10 ** 7,) * 3, -2, 0.5 * 0.025),
])
def test_boundary_ranges_bounded_on_huge_domains(h, origin, dims, ground_layer,
                                                 offset):
    """A domain of 1e7 or more node layers per axis derives its ranges
    without per-layer arrays, and at each range end the layer inside
    passes its boundary's comparison and the layer outside fails it."""
    state, _ = grid_box(h, origin, dims, (0, 0, 0), (1, 1, 1),
                        origin[1] + h * ground_layer + offset, "slip",
                        "sticky")
    tracemalloc.start()
    try:
        bounds = _boundary_layers(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for b, (axis, sign, first, stop, _) in enumerate(bounds):
        n = int(state.dims[axis])
        assert (first == 0) if sign > 0 else (stop == n)
        end = stop if sign > 0 else first  # the first layer outside, or inside
        lo, sub = [0, 0, 0], [1, 1, 1]
        lo[axis] = max(end - 1, 0)
        sub[axis] = min(end + 1, n) - lo[axis]
        mask = boundary_layers_oracle(state, lo, sub, GRID_MARGIN)[b][2]
        inside = np.arange(lo[axis], lo[axis] + sub[axis]) < end
        assert np.array_equal(mask, inside if sign > 0 else ~inside)


TRANSFER_BLOCK = 8  # _BLOCK in the transfer tests, so every case is small


@hst.composite
def transfer_states(draw, n):
    """n particles of mixed classes in a cluster a few cells wide, with
    random velocities, APIC matrices, body-force scales and deformations."""
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    spread = draw(hst.sampled_from([0.005, 0.02, 0.06]))
    st = build_state([ObjectInit(
        field=particle_field(spread * rng.standard_normal((n, 3))),
        h_fill=0.01)], free_cfg(), wind=tuple(rng.standard_normal(3)))
    st.class_id = rng.integers(0, len(MaterialClass), n).astype(np.int32)
    st.young_modulus = 10 ** rng.uniform(3, 6, n)
    st.poisson_ratio = rng.uniform(0.0, 0.45, n)
    st.mass = st.mass * rng.uniform(0.5, 2.0, n)
    st.v = rng.standard_normal((n, 3))
    st.c_apic = 10 * rng.standard_normal((n, 3, 3))
    st.f = np.eye(3) + 0.1 * rng.standard_normal((n, 3, 3))
    st.gravity_scale = rng.uniform(-1, 2, n)
    st.wind_scale = rng.uniform(0, 1, n)
    return st


def assert_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestTransfers:
    @pytest.mark.parametrize("n", [1, TRANSFER_BLOCK - 1, TRANSFER_BLOCK,
                                   TRANSFER_BLOCK + 1, 5 * TRANSFER_BLOCK // 2])
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(data=hst.data())
    def test_blocks_match_per_offset_oracles(self, n, data):
        st = data.draw(transfer_states(n))
        dt = data.draw(hst.sampled_from([1e-5, 1e-3]))
        kirchhoff, _ = batch_constitutive(st.f, st.class_id, st.young_modulus,
                                          st.poisson_ratio)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_BLOCK", TRANSFER_BLOCK)
            stencil, grid_mass, grid_mom = _p2g(st, dt, kirchhoff,
                                                _derive(st).g_eff)
            lo, sub, want_mass, want_mom = p2g_oracle(st, dt, kirchhoff)
            assert np.array_equal(stencil.lo, lo)
            assert np.array_equal(stencil.sub, sub)
            assert_close(grid_mass, want_mass)
            assert_close(grid_mom, want_mom)
            assert grid_mass.sum() == pytest.approx(st.mass.sum(), rel=1e-14)

            grid_v = np.random.default_rng(n).standard_normal(grid_mom.shape)
            want_v, want_c = g2p_oracle(st, grid_v)
            f_old = st.f.copy()
            _g2p(st, dt, stencil, grid_v, [])
        assert_close(st.v, want_v)
        assert_close(st.c_apic, want_c)
        # F = (I + dt C) F_old, one particle at a time from the oracle's C
        assert_close(st.f, np.stack([(np.eye(3) + dt * c) @ f
                                     for c, f in zip(want_c, f_old)]))

    @pytest.mark.parametrize("n", [1, engine._BLOCK - 1, engine._BLOCK + 1,
                                   3 * engine._BLOCK + 7])
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(data=hst.data())
    def test_p2g_conserves_mass_and_momentum(self, n, data):
        """The grid holds the particles' mass and momentum: sum of grid
        mass = sum m, and sum of grid momentum = sum m (v + dt g_eff).

        The quadratic B-spline weights of each axis sum to 1 and have first
        moment sum_o w_o o = fx, so each particle's affine and stress term
        h A (o - fx) sums to 0 over its stencil and carries no net
        momentum.  The residual is rounding, bounded relative to
        sum m |v + dt g_eff| + sum |h A|."""
        st = data.draw(transfer_states(n))
        dt = data.draw(hst.sampled_from([1e-5, 1e-3]))
        kirchhoff, _ = batch_constitutive(st.f, st.class_id, st.young_modulus,
                                          st.poisson_ratio)
        g_eff = _derive(st).g_eff
        _, grid_mass, grid_mom = _p2g(st, dt, kirchhoff, g_eff)
        mom_p = st.mass * (st.v.T + dt * g_eff)
        h_a = st.h * ((-dt * st.vol0 * 4.0 / st.h ** 2)[:, None, None] * kirchhoff
                      + st.mass[:, None, None] * st.c_apic)
        scale = np.abs(mom_p).sum() + np.abs(h_a).sum()
        # 240 random states of these sizes gave at most 2.3 eps (mass) and
        # 0.73 eps (momentum) of these scales
        eps = np.finfo(float).eps
        assert abs(grid_mass.sum() - st.mass.sum()) <= 8 * eps * st.mass.sum()
        assert np.abs(grid_mom.sum(axis=1) - mom_p.sum(axis=1)).max() \
            <= 4 * eps * scale

    @pytest.mark.parametrize("n", [1, engine._BLOCK - 1, engine._BLOCK + 1,
                                   3 * engine._BLOCK + 7])
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(data=hst.data())
    def test_p2g_fold_changes_no_bit(self, n, data):
        """Carrying q_base in the offset matmul, [o, 1] (h A, q_base), and
        forming w m in one product gives the grid the same bits as adding
        q_base after [o] h A and then scaling all four channels by w, in
        blocks of one particle too."""
        st = data.draw(transfer_states(n))
        dt = data.draw(hst.sampled_from([1e-5, 1e-3]))
        kirchhoff, _ = batch_constitutive(st.f, st.class_id, st.young_modulus,
                                          st.poisson_ratio)
        g_eff = _derive(st).g_eff
        stencil, grid_mass, grid_mom = _p2g(st, dt, kirchhoff, g_eff)
        lo, sub, grid = unfused_p2g_oracle(st, dt, kirchhoff, g_eff,
                                           engine._BLOCK)
        assert np.array_equal(stencil.lo, lo)
        assert np.array_equal(stencil.sub, sub)
        assert np.array_equal(grid_mass, grid[0])
        assert np.array_equal(grid_mom, grid[1:])

    @pytest.mark.parametrize("n", [1, engine._BLOCK + 1])
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(data=hst.data(), seed=hst.integers(0, 2 ** 32 - 1))
    def test_g2p_reproduces_an_affine_grid_velocity(self, n, data, seed):
        """A grid velocity a + B x_node gathers to v_p = a + B x_p and
        C_p = B.  Quadratic B-splines reproduce linear fields, sum_o w
        x_node = x_p, and APIC's D_p = sum_o w (x_node - x_p)(x_node -
        x_p)^T = h^2/4 I (Jiang et al. 2015, "The affine particle-in-cell
        method"), so C_p = (4 / h^2) B D_p = B.  C forms sum w v o - v fx
        and scales it by 4 / h, so its rounding is relative to (4 / h)
        max |v_node|: 240 states gave at most 5.1 eps of that (7.4e-13 of
        max |B|) and 5.6e-15 of max |v_p| for v before the bounds were
        set."""
        st = data.draw(transfer_states(n))
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(3), rng.standard_normal((3, 3))
        kirchhoff, _ = batch_constitutive(st.f, st.class_id, st.young_modulus,
                                          st.poisson_ratio)
        stencil, _, _ = _p2g(st, 1e-5, kirchhoff, _derive(st).g_eff)
        nodes = np.indices(stencil.sub).reshape(3, -1) + stencil.lo[:, None]
        grid_v = a[:, None] + b @ (st.origin[:, None] + st.h * nodes)
        x_p = st.x.copy()
        _g2p(st, 1e-5, stencil, grid_v, [])
        assert_close(st.v, a + x_p @ b.T)
        eps = np.finfo(float).eps
        assert np.abs(st.c_apic - b).max() \
            <= 16 * eps * 4.0 / st.h * np.abs(grid_v).max()


def layout_case(seed, n, shuffled, component_major):
    """Two objects a few cells wide, with random v, C and F: object 0 holds
    every class but RIGID (each class one contiguous run, or shuffled),
    object 1 is ELASTIC and becomes the one RIGID group when its
    ``material_model`` switch applies.  F and C are component-major, as
    build_state allocates them, or C-ordered (N, 3, 3) copies."""
    rng = np.random.default_rng(seed)
    objects = [ObjectInit(field=particle_field(0.02 * rng.standard_normal((n, 3))),
                          h_fill=0.01, translate=(0.03 * k, 0.0, 0.0))
               for k in range(2)]
    st = build_state(objects, free_cfg(), wind=tuple(rng.standard_normal(3)))
    classes = np.sort(np.arange(n) % MaterialClass.RIGID)
    if shuffled:
        rng.shuffle(classes)
    st.class_id[:n] = classes
    st.young_modulus[:] = 10 ** rng.uniform(3, 6, 2 * n)
    st.poisson_ratio[:] = rng.uniform(0.0, 0.45, 2 * n)
    st.v[:] = rng.standard_normal((2 * n, 3))
    st.c_apic[:] = 10 * rng.standard_normal((2 * n, 3, 3))
    st.f[:] = np.eye(3) + 0.1 * rng.standard_normal((2 * n, 3, 3))
    if not component_major:
        st.f = np.ascontiguousarray(st.f)
        st.c_apic = np.ascontiguousarray(st.c_apic)
    return st


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), n=hst.integers(5, 40),
       shuffled=hst.booleans())
def test_layout_of_f_and_c_changes_no_bit(seed, n, shuffled):
    """batch_constitutive and one step give the same bits whether F and C
    come in as C-ordered (N, 3, 3) arrays or as component-major views, and
    both leave F, C and tau component-major."""
    out = []
    for component_major in (False, True):
        st = layout_case(seed, n, shuffled, component_major)
        assert st.f.flags.c_contiguous != component_major
        runtime = ScheduleRuntime(compile_schedule(
            "at t=0 set object 1 material_model rigid once", st))
        dt = stable_dt(st, free_cfg())
        assert runtime.apply(st, 0.0, dt)  # writes F = I through st.f
        assert len(_rigid_groups(st)) == 1
        tau, f_new = batch_constitutive(st.f, st.class_id, st.young_modulus,
                                        st.poisson_ratio)
        step(st, dt)
        arrays = (tau, f_new, st.x, st.v, st.c_apic, st.f)
        for a in (tau, f_new, st.c_apic, st.f):
            assert a.transpose(1, 2, 0).flags.c_contiguous
        out.append(arrays)
    for got, want in zip(*out):
        assert np.array_equal(got, want)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), n=hst.integers(5, 40),
       shuffled=hst.booleans())
def test_layout_of_x_and_v_changes_no_bit(seed, n, shuffled):
    """A few steps, with an impulse and a RIGID group, give the same x, v,
    C and F bits whether x and v start as C-ordered (N, 3) arrays or as
    component-major views, and every step leaves x and v component-major."""
    out = []
    for component_major in (False, True):
        st = layout_case(seed, n, shuffled, True)
        if not component_major:
            st.x = np.ascontiguousarray(st.x)
            st.v = np.ascontiguousarray(st.v)
        assert st.x.T.flags.c_contiguous == st.v.T.flags.c_contiguous \
            == component_major
        runtime = ScheduleRuntime(compile_schedule(
            "at t=0 set object 1 material_model rigid once\n"
            "at t=0 impulse object 0 (0.5,1,-0.25) once", st))
        cfg = free_cfg()
        applied = []
        for _ in range(3):
            dt = stable_dt(st, cfg)
            edits = runtime.apply(st, st.t, dt)
            if edits:
                applied += [e["property"] for e in edits]
                dt = min(dt, stable_dt(st, cfg))
            step(st, dt)
            assert st.x.T.flags.c_contiguous and st.v.T.flags.c_contiguous
        assert sorted(applied) == ["material_model", "velocity_impulse"]
        assert len(_rigid_groups(st)) == 1
        out.append((st.x, st.v, st.c_apic, st.f))
    for got, want in zip(*out):
        assert np.array_equal(got, want)


class TestSimulate:
    def test_single_frame_static(self):
        f = particle_field([[0, 0, 0]])
        cfg = free_cfg(frames=1)
        st = build_state([ObjectInit(field=f, h_fill=0.05)], cfg)
        traj = simulate(st, None, cfg)
        assert traj.n_frames == 1
        assert np.array_equal(traj.positions[0],
                              np.array([[0, 0, 0]], dtype=np.float32))

    def test_frame_times_advance(self):
        f = particle_field([[0, 0, 0]], e=2.0, nu=0.0, rho=1.0)
        cfg = free_cfg(frames=5, fps=50.0)
        st = build_state([ObjectInit(field=f, h_fill=0.1)], cfg)
        traj = simulate(st, None, cfg)
        assert st.t == pytest.approx(4 / 50.0, abs=1e-12)
        # free fall: y(t) ~ -g t^2 / 2 (first-order discrete)
        y = traj.positions[:, 0, 1].astype(float)
        assert y[0] == 0
        assert np.all(np.diff(y) < 0)

    def test_dropped_cube_never_exceeds_release_height(self):
        cube = small_cube()
        cfg = SimConfig(h_grid=0.03, frames=14, fps=30.0,
                        domain_lo=(-0.4, -0.09, -0.4),
                        domain_hi=(0.5, 0.8, 0.5),
                        ground_height=0.0, ground_bc="sticky")
        st = build_state([ObjectInit(field=cube, h_fill=0.03,
                                     translate=(0.0, 0.18, 0.0))], cfg)
        traj = simulate(st, None, cfg)
        tops = traj.positions[:, :, 1].max(axis=1).astype(float)
        assert np.all(tops <= tops[0] + 1e-6)  # energy-audit oracle
        assert tops.min() < tops[0] - 0.05     # it actually fell

    def test_resting_block_stays_put(self):
        # short check; the full 2-second criterion runs in the acceptance suite
        shell = cube_shell_positions(0.1, 5)
        surface = uniform_field(shell, MaterialClass.ELASTIC, 1e6, 0.2, 300.0)
        cube = fill_field(surface, FillConfig(particle_spacing=0.025))
        cfg = SimConfig(h_grid=0.025, frames=3, fps=4.0,
                        domain_lo=(-0.3, -0.075, -0.3),
                        domain_hi=(0.4, 0.4, 0.4),
                        ground_height=0.0, ground_bc="sticky")
        st = build_state([ObjectInit(field=cube, h_fill=0.025,
                                     translate=(0.0, 0.0125, 0.0))], cfg)
        com0 = st.x.mean(axis=0)
        simulate(st, None, cfg)
        drift = np.linalg.norm(st.x.mean(axis=0) - com0)
        assert drift < 1e-4

    def test_determinism_bitwise(self):
        cube = small_cube()
        cfg = SimConfig(h_grid=0.03, frames=6, fps=24.0,
                        domain_lo=(-0.4, -0.09, -0.4),
                        domain_hi=(0.5, 0.8, 0.5))

        def run():
            st = build_state([ObjectInit(field=cube, h_fill=0.03,
                                         translate=(0.0, 0.2, 0.0))], cfg)
            return simulate(st, None, cfg)

        a, b = run(), run()
        assert np.array_equal(a.positions, b.positions)

    def test_no_nans_across_speeds(self):
        cube = small_cube(e=5e4)
        cfg = SimConfig(h_grid=0.03, frames=8, fps=24.0,
                        domain_lo=(-0.4, -0.09, -0.4),
                        domain_hi=(0.5, 0.8, 0.5))
        st = build_state([ObjectInit(field=cube, h_fill=0.03,
                                     translate=(0.0, 0.3, 0.0),
                                     velocity=(0.5, -1.0, 0.2))], cfg)
        traj = simulate(st, None, cfg)
        assert np.isfinite(traj.positions).all()
        assert np.isfinite(st.v).all() and np.isfinite(st.f).all()


def two_cube_state():
    cube = small_cube()
    cfg = SimConfig(h_grid=0.03, frames=2, fps=24.0,
                    domain_lo=(-0.6, -0.09, -0.4), domain_hi=(0.6, 0.8, 0.5))
    st = build_state([ObjectInit(field=cube, h_fill=0.03,
                                 translate=(dx, 0.2, 0.0))
                      for dx in (-0.25, 0.25)], cfg)
    return st, cfg, int(np.flatnonzero(st.object_id == 1)[3])


class TestErrorContext:
    """Substep errors name frame, substep, particle and object."""

    def test_lost_determinant(self):
        st, cfg, i = two_cube_state()
        st.f[i] = np.diag([-1.0, 1.0, 1.0])
        with pytest.raises(NumericalError) as info:
            simulate(st, None, cfg)
        assert str(info.value).startswith(
            f"frame 1, substep 0, t=0, object 1: particle {i}: "
            "deformation gradient lost positive determinant")
        assert info.value.particle == i

    def test_escape(self):
        st, cfg, i = two_cube_state()
        st.x[i] = st.origin - 1.0
        with pytest.raises(ParticleEscape) as info:
            simulate(st, None, cfg)
        assert str(info.value).startswith(
            f"frame 1, substep 0, t=0, object 1: particle {i} at ")
        assert info.value.particle == i

    def test_non_finite_state_names_the_array(self):
        st, cfg, i = two_cube_state()
        st.c_apic[i] = np.inf
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as info:
            simulate(st, None, cfg)
        k = info.value.particle
        assert str(info.value).startswith(
            f"frame 1, substep 0, t=0, object {st.object_id[k]}: "
            f"particle {k}: non-finite v after substep")
        assert not np.isfinite(st.v[k]).all()
        assert np.isfinite(st.v[:k]).all()


@contextmanager
def deadline(seconds):
    """Fail, instead of hanging, if the block runs longer than seconds."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def speeding_cube(tmp_path, velocity=(0.0, 0.0, 0.0), schedule=None):
    """scene.json of a 27-particle ELASTIC cube (3^3 at 3 cm) at velocity."""
    lattice = 0.03 * np.stack(np.meshgrid(*[np.arange(3.0)] * 3,
                                          indexing="ij"), axis=-1).reshape(-1, 3)
    write_field(particle_field(lattice), tmp_path / "cube.mfield")
    scene = {"format": "scene", "objects": [{
        "field": "cube.mfield", "h_fill": 0.03, "velocity": list(velocity),
        "translate": [0.0, 0.1, 0.0]}],
        "sim": {"h_grid": 0.03, "frames": 3, "fps": 24.0,
                "domain_lo": [-0.6, -0.18, -0.6], "domain_hi": [0.7, 0.6, 0.6]}}
    if schedule is not None:
        (tmp_path / "schedule.txt").write_text(schedule)
        scene["schedule"] = "schedule.txt"
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    return tmp_path / "scene.json"


class TestNoAdvance:
    """A speed whose square overflows makes stable_dt 0; simulate refuses
    that substep instead of looping at a fixed t."""

    def test_overflowing_velocity(self, tmp_path):
        objects, cfg, _ = load_scene(speeding_cube(tmp_path, (1e200, 0.0, 0.0)))
        state = build_state(objects, cfg)
        assert stable_dt(state, cfg) == 0.0
        with deadline(5), pytest.raises(NumericalError) as info:
            simulate(state, None, cfg)
        assert str(info.value) == (
            "frame 1, substep 0, t=0, object 0: dt=0 does not advance t; "
            "the fastest, particle 0, moves at 1e+200 m/s")
        assert info.value.particle == 0 and state.t == 0.0

    def test_overflowing_impulse_through_cli(self, tmp_path, capsys):
        scene = speeding_cube(
            tmp_path, schedule="at t=0.02 impulse object 0 (1e200,0,0)")
        with deadline(5):
            code = cli.main(["simulate", str(scene), str(tmp_path / "out"),
                             "--no-images"])
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert code == NumericalError.code == 32
        assert record["error"] == "NumericalError"
        assert record["message"].startswith("frame 1, substep ")
        assert record["message"].endswith(
            ", object 0: dt=0 does not advance t; "
            "the fastest, particle 0, moves at 1e+200 m/s")

    def test_overflowing_speed_probed_by_an_event(self, tmp_path, capsys):
        """The event probe squares the speed too; the overflow must not
        print a warning ahead of the one JSON error record."""
        scene = speeding_cube(tmp_path, (1e200, 0.0, 0.0),
                              "on speed_above 1 set object 0 density 500")
        with deadline(5):
            code = cli.main(["simulate", str(scene), str(tmp_path / "out"),
                             "--no-images"])
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert code == NumericalError.code == 32
        assert json.loads(line)["error"] == "NumericalError"

    def test_dt_below_the_resolution_of_t(self):
        """t + dt == t with dt > 0 is refused alike."""
        st, cfg, _ = two_cube_state()
        st.t = 1e20  # its spacing is 16384 s; frame 1 comes at 2e20 s
        with deadline(5), pytest.raises(NumericalError) as info:
            simulate(st, None, replace(cfg, fps=5e-21))
        assert "does not advance t" in str(info.value) and st.t == 1e20


class TestEvents:
    def test_object_events_aggregates(self):
        f1 = particle_field([[0, 0.5, 0], [0, 0.6, 0]])
        f2 = particle_field([[0.2, 0.005, 0.0]])
        cfg = SimConfig(h_grid=0.01, frames=1, domain_lo=(-0.5, -0.1, -0.5),
                        domain_hi=(0.5, 0.8, 0.5), ground_height=0.0)
        st = build_state([ObjectInit(field=f1, h_fill=0.05, velocity=(0, -2, 0)),
                          ObjectInit(field=f2, h_fill=0.05)], cfg)
        ev = object_events(st, {0: st.object_id == 0, 1: st.object_id == 1})
        assert ev[0]["min_height"] == pytest.approx(0.5)
        assert ev[0]["max_speed"] == pytest.approx(2.0)
        assert not ev[0]["ground_contact"]
        assert ev[1]["ground_contact"]

    def test_margin_constant(self):
        assert GRID_MARGIN == 3


def count_substeps(monkeypatch):
    """Patch engine.step to count the substeps simulate takes."""
    calls = []
    inner = engine.step

    def counted(state, dt, *args, **kwargs):
        calls.append(dt)
        inner(state, dt, *args, **kwargs)

    monkeypatch.setattr(engine, "step", counted)
    return calls


def support_oracle(state, particles, lo, sub):
    """Flat box indices of the nodes in the particles' stencils, by loops."""
    nodes = set()
    for p in particles:
        base = [math.floor((state.x[p][a] - state.origin[a]) / state.h - 0.5)
                for a in range(3)]
        for off in product(range(3), repeat=3):
            n = [base[a] + off[a] - lo[a] for a in range(3)]
            nodes.add((n[0] * sub[1] + n[1]) * sub[2] + n[2])
    return sorted(nodes)


@hst.composite
def rigid_group_cases(draw):
    """Up to three rigid groups apart in free space, plus elastic particles."""
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    sizes = draw(hst.lists(hst.integers(1, 12), min_size=1, max_size=3))
    n_soft = draw(hst.integers(0, 6))
    x, oid, part, cls = [], [], [], []
    for g, n in enumerate(sizes):
        # objects 0, 0, 1 with parts 0, 1, 0, each group 0.3 m from the next
        x.append([-0.3 + 0.3 * g, -1.0, 0.0] + 0.02 * rng.standard_normal((n, 3)))
        oid += [g // 2] * n
        part += [g % 2] * n
        cls += [MaterialClass.RIGID] * n
    # elastic particles of object 0 inside the first group's support
    x.append([-0.3, -1.0, 0.0] + 0.02 * rng.standard_normal((n_soft, 3)))
    oid += [0] * n_soft
    part += [0] * n_soft
    cls += [MaterialClass.ELASTIC] * n_soft
    st = build_state([ObjectInit(field=particle_field(np.concatenate(x)),
                                 h_fill=0.01)], free_cfg(), gravity=(0, 0, 0))
    st.object_id = np.array(oid, dtype=np.int32)
    st.part = np.array(part, dtype=np.int32)
    st.class_id = np.array(cls, dtype=np.int32)
    st.v = rng.standard_normal(st.x.shape)
    st.c_apic = 0.5 * rng.standard_normal(st.f.shape)
    return st


class TestRigid:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st=rigid_group_cases())
    def test_fit_matches_oracle_and_conserves_momentum(self, st):
        derived = _derive(st)
        stencil, grid_mass, grid_mom = _p2g(st, 0.0, np.zeros_like(st.f),
                                            derived.g_eff)
        grid_v = np.divide(grid_mom, grid_mass, out=np.zeros_like(grid_mom),
                           where=grid_mass > 0)
        before = grid_v.copy()
        groups = _rigid_groups(st)
        motions = _couple_rigid(st, stencil, grid_mass, grid_v, groups,
                                derived.bounds)

        by_key = {}
        for p in range(st.n_particles):
            if st.class_id[p] == MaterialClass.RIGID:
                by_key.setdefault((st.object_id[p], st.part[p]), []).append(p)
        assert [list(g) for g in groups] == [by_key[k] for k in sorted(by_key)]
        touched = np.zeros(grid_mass.shape, dtype=bool)
        for key, (centroid, u) in zip(sorted(by_key), motions):
            nodes = support_oracle(st, by_key[key], stencil.lo, stencil.sub)
            touched[nodes] = True
            layer = np.array(np.unravel_index(nodes, stencil.sub)).T
            x = st.origin + st.h * (stencil.lo + layer)
            m = grid_mass[nodes]
            c, vel, omega = rigid_fit_oracle(x, m, before[:, nodes].T)
            want = vel + np.cross(omega, x - c)
            got = grid_v[:, nodes].T
            scale = np.abs(want).max()
            assert np.allclose(got, want, rtol=0, atol=1e-12 * scale)
            assert np.allclose(centroid, c, rtol=0, atol=1e-12)
            assert np.allclose(u[:3], vel, rtol=0, atol=1e-12 * scale)
            assert np.allclose(np.cross(u[3:] - omega, x - c), 0.0, rtol=0,
                               atol=1e-12 * scale)
            # the fit keeps the nodes' momentum and angular momentum about c
            mom = m @ before[:, nodes].T
            assert np.allclose(m @ got, mom, rtol=0,
                               atol=1e-12 * (m @ np.abs(before[:, nodes].T)).max())
            r = x - c
            ang = m @ np.cross(r, before[:, nodes].T)
            ang_scale = m @ (np.linalg.norm(r, axis=1)
                             * np.linalg.norm(before[:, nodes], axis=0))
            assert np.allclose(m @ np.cross(r, got), ang, rtol=0,
                               atol=1e-12 * ang_scale)
        assert np.array_equal(grid_v[:, ~touched], before[:, ~touched])

    @pytest.mark.parametrize("mode", _BC_MODES)
    def test_dropped_cube_rests_on_ground(self, mode, monkeypatch):
        cube = small_cube(rho=500.0, material=MaterialClass.RIGID)
        cfg = SimConfig(h_grid=0.03, frames=11, fps=10.0,
                        domain_lo=(-0.4, -0.09, -0.4),
                        domain_hi=(0.5, 0.8, 0.5),
                        ground_height=0.0, ground_bc=mode)
        st = build_state([ObjectInit(field=cube, h_fill=0.03,
                                     translate=(0.0, 0.1, 0.0))], cfg)
        d0 = pdist(st.x)
        calls = count_substeps(monkeypatch)
        traj = simulate(st, None, cfg)  # raises ParticleEscape if it falls through
        assert len(calls) < 200
        bottoms = traj.positions[:, :, 1].min(axis=1)
        assert bottoms[-1] < bottoms[0] - 0.05  # it fell
        assert bottoms.min() > 0.0
        assert np.abs(st.v).max() < 1e-12
        assert np.abs(pdist(st.x) - d0).max() < 1e-12
        assert np.array_equal(st.f, np.broadcast_to(np.eye(3), st.f.shape))

    @pytest.mark.parametrize("mode", _BC_MODES)
    @pytest.mark.parametrize("v_y", [-0.5, 0.5])
    def test_ground_modes_constrain_the_fit(self, mode, v_y):
        # a cube resting on the ground, sliding in x and moving in y
        cube = small_cube(material=MaterialClass.RIGID)
        cfg = SimConfig(h_grid=0.03, frames=1, domain_lo=(-0.4, -0.09, -0.4),
                        domain_hi=(0.5, 0.8, 0.5), ground_bc=mode)
        st = build_state([ObjectInit(field=cube, h_fill=0.03,
                                     translate=(0.0, 0.04, 0.0),
                                     velocity=(0.5, v_y, 0.0))], cfg,
                         gravity=(0, 0, 0))
        step(st, 1e-3)
        want = {"sticky": (0.0, 0.0),
                "slip": (0.5, 0.0),
                "separate": (0.5, max(v_y, 0.0))}[mode]
        assert np.allclose(st.v, [want[0], want[1], 0.0], rtol=0, atol=1e-12)

    def test_block_on_elastic_pad_stays_above_it(self):
        pad = small_cube(0.15, 6, e=5e4, rho=800.0)
        block = small_cube(0.09, 4, e=1e6, rho=1500.0,
                           material=MaterialClass.RIGID)
        cfg = SimConfig(h_grid=0.03, frames=11, fps=10.0, damping=5.0,
                        domain_lo=(-0.3, -0.09, -0.3),
                        domain_hi=(0.45, 0.6, 0.45),
                        ground_height=0.0, ground_bc="sticky")
        # the block starts one cell above the pad
        st = build_state([ObjectInit(field=pad, h_fill=0.03,
                                     translate=(0.0, 0.015, 0.0)),
                          ObjectInit(field=block, h_fill=0.03,
                                     translate=(0.03, 0.195, 0.03))], cfg)
        traj = simulate(st, None, cfg)
        on_pad = traj.object_id == 0
        pad_top = traj.positions[:, on_pad, 1].max(axis=1)
        block_bottom = traj.positions[:, ~on_pad, 1].min(axis=1)
        assert np.all(block_bottom - pad_top > 0.5 * cfg.h_grid)
        # settled: the block's last 0.2 s move it by under a millimetre
        y = traj.positions[:, ~on_pad, 1].mean(axis=1)
        assert abs(float(y[-1] - y[-3])) < 1e-3


@pytest.mark.parametrize("material", list(MaterialClass))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), log_e=hst.floats(3.0, 6.0))
def test_free_space_conservation(material, seed, log_e):
    """Away from walls and without body forces, mass is exact and momentum
    kept; angular momentum too, for every class that carries stress.

    APIC transfers conserve angular momentum, counted with the affine term
    sum m (h^2/4) eps : C^T, and MLS-MPM keeps it when the Kirchhoff stress
    is symmetric (Jiang et al. 2015, "The Affine Particle-In-Cell
    Method").  RIGID groups are left out: their fitted motion loses spin
    at first order in dt.
    """
    rng = np.random.default_rng(seed)
    cube = small_cube(0.08, 5, e=10.0 ** log_e, material=material)
    cfg = free_cfg(h_grid=0.02)
    st = build_state([ObjectInit(field=cube, h_fill=0.02,
                                 translate=(-0.04, -1.0, -0.04))], cfg,
                     gravity=(0, 0, 0))
    st.v = rng.normal(0.0, 0.3, st.x.shape)
    m0, d0 = st.mass.sum(), pdist(st.x)
    p0 = (st.mass[:, None] * st.v).sum(axis=0)
    scale = float((st.mass * np.abs(st.v).sum(axis=1)).sum())
    centroid = st.mass @ st.x / m0
    l0 = angular_momentum(st, centroid)
    l_scale = float(st.mass @ (np.linalg.norm(st.x - centroid, axis=1)
                               * np.linalg.norm(st.v, axis=1)))
    for _ in range(4):
        step(st, stable_dt(st, cfg))
    assert st.mass.sum() == m0
    assert np.allclose((st.mass[:, None] * st.v).sum(axis=0), p0, rtol=0,
                       atol=1e-13 * scale)
    if material == MaterialClass.RIGID:  # it spins, and keeps its shape
        assert np.abs(pdist(st.x) - d0).max() < 1e-12
    else:
        assert np.allclose(angular_momentum(st, centroid), l0, rtol=0,
                           atol=1e-13 * l_scale)


def angular_momentum(st, about):
    """sum m (x - about) x v plus the APIC affine term sum m (h^2/4) eps : C^T."""
    c = st.c_apic
    spin = np.stack([c[:, 2, 1] - c[:, 1, 2], c[:, 0, 2] - c[:, 2, 0],
                     c[:, 1, 0] - c[:, 0, 1]], axis=1)
    return st.mass @ (np.cross(st.x - about, st.v) + 0.25 * st.h ** 2 * spin)


def shifted_cube(cells, velocity, ground_bc):
    """A 125-particle cube one cell above the ground, with its
    domain, ground and particles moved by ``cells`` grid cells of 1/32 m;
    returns the state, its config and the shift in metres."""
    h = 1 / 32
    shift = np.asarray(cells, dtype=float) * h
    cube = small_cube(0.25, 5)  # filled at 1/16 m
    cfg = SimConfig(h_grid=h, domain_lo=tuple(shift + (-0.5, -0.25, -0.5)),
                    domain_hi=tuple(shift + (0.75, 0.75, 0.75)),
                    ground_height=float(shift[1]), ground_bc=ground_bc)
    st = build_state([ObjectInit(field=cube, h_fill=1 / 16, velocity=velocity,
                                 translate=tuple(shift + (0.0, h, 0.0)))],
                     cfg)
    return st, cfg, shift


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(cells=hst.tuples(*[hst.integers(-8, 8)] * 3),
       velocity=hst.tuples(*[hst.integers(-16, 16).map(lambda i: i / 16)] * 3),
       ground_bc=hst.sampled_from(_BC_MODES))
def test_whole_cell_shift(cells, velocity, ground_bc):
    """Moving a scene, its grid and its ground by whole cells moves its
    particles the same way.

    Every input is dyadic, so the shifted positions, grid origin and ground
    are exact and each particle sees the same nodes and weights: the first
    substep gives bit-identical v, C and F, and x - shift within one
    rounding of x (|x| < 1 m).  Later substeps differ at rounding level,
    which stable_dt feeds back into dt; after 20 substeps the positions
    agree to 1e-15 m (the largest of 30 random cases measured 3.9e-16 m).
    """
    base, base_cfg, _ = shifted_cube((0, 0, 0), velocity, ground_bc)
    moved, moved_cfg, shift = shifted_cube(cells, velocity, ground_bc)
    assert np.array_equal(moved.x - shift, base.x)
    dt = stable_dt(base, base_cfg)
    step(base, dt)
    step(moved, dt)
    for name in ("v", "c_apic", "f"):
        assert np.array_equal(getattr(moved, name), getattr(base, name)), name
    assert np.abs(moved.x - shift - base.x).max() <= 2.0 ** -53
    for _ in range(19):
        step(base, stable_dt(base, base_cfg))
        step(moved, stable_dt(moved, moved_cfg))
    assert np.abs(moved.x - shift - base.x).max() <= 1e-15


def test_elastic_column_oscillates_at_its_closed_form():
    """A column released from rest under gravity on sticky ground.

    An elastic bar of height L fixed at its base, with nu = 0 so that no
    lateral coupling enters, carries longitudinal waves at c = sqrt(E /
    rho).  Loaded suddenly by its own weight, its free top oscillates at
    the fundamental period 4 L / c about the static deflection rho g L^2 /
    (2 E), so its peak-to-peak travel is twice that, rho g L^2 / E (the
    closed forms of a fixed-free bar; the discretization is that of Jiang
    et al. 2016, "The Material Point Method for Simulating Continuum
    Materials", SIGGRAPH course).  With E = 1e4 Pa, rho = 1000 and L =
    0.2 m: 0.2530 s and 39.2 mm.  At 1 cm particle spacing and h = 2 cm
    the solver gives 0.2597 s (+2.6%) and 40.5 mm (+3.4%); the error
    falls at first order in h, so both are gated at 5%.
    """
    spacing, length, e, rho, g = 0.01, 0.2, 1e4, 1000.0, 9.8
    across = (np.arange(6) + 0.5) * spacing
    up = (np.arange(20) + 0.5) * spacing
    points = np.stack(np.meshgrid(across, up, across, indexing="ij"),
                      axis=-1).reshape(-1, 3)
    cfg = SimConfig(h_grid=2 * spacing, frames=1,
                    domain_lo=(-0.2, -0.06, -0.2), domain_hi=(0.26, 0.4, 0.26))
    st = build_state([ObjectInit(field=particle_field(points, e=e, nu=0.0,
                                                      rho=rho),
                                 h_fill=spacing)], cfg)
    top = points[:, 1] == points[:, 1].max()
    times, travel = [0.0], [0.0]
    y0 = st.x[top, 1].mean()
    while st.t < 0.7:
        step(st, stable_dt(st, cfg))
        times.append(st.t)
        travel.append(y0 - st.x[top, 1].mean())
    times, travel = np.array(times), np.array(travel)

    period = 4.0 * length / math.sqrt(e / rho)
    peak_to_peak = rho * g * length ** 2 / e
    assert travel.max() - travel.min() == pytest.approx(peak_to_peak, rel=0.05)
    # times the top passes the middle of its travel, linearly interpolated;
    # every second passage is one period on
    mid = 0.5 * (travel.max() + travel.min())
    i = np.flatnonzero(np.diff(np.sign(travel - mid)) != 0)
    passes = times[i] + (mid - travel[i]) * (times[i + 1] - times[i]) \
        / (travel[i + 1] - travel[i])
    assert len(passes) >= 4
    assert np.mean(passes[2:] - passes[:-2]) == pytest.approx(period, rel=0.05)


def column_errors(spacing, across=3, length=0.2, e=1e4, rho=1000.0, g=9.8):
    """Relative errors of the released column's period and top travel
    against 4 L / c and rho g L^2 / E, at particle spacing ``spacing``,
    ``across`` particles across and h = 2 * spacing."""
    side = (np.arange(across) + 0.5) * spacing
    up = (np.arange(round(length / spacing)) + 0.5) * spacing
    points = np.stack(np.meshgrid(side, up, side, indexing="ij"),
                      axis=-1).reshape(-1, 3)
    cfg = SimConfig(h_grid=2 * spacing, frames=1,
                    domain_lo=(-0.2, -0.06, -0.2), domain_hi=(0.26, 0.4, 0.26))
    st = build_state([ObjectInit(field=particle_field(points, e=e, nu=0.0,
                                                      rho=rho),
                                 h_fill=spacing)], cfg)
    top = points[:, 1] == points[:, 1].max()
    times, travel = [0.0], [0.0]
    y0 = st.x[top, 1].mean()
    while st.t < 0.7:
        step(st, stable_dt(st, cfg))
        times.append(st.t)
        travel.append(y0 - st.x[top, 1].mean())
    times, travel = np.array(times), np.array(travel)
    mid = 0.5 * (travel.max() + travel.min())
    i = np.flatnonzero(np.diff(np.sign(travel - mid)) != 0)
    passes = times[i] + (mid - travel[i]) * (times[i + 1] - times[i]) \
        / (travel[i + 1] - travel[i])
    assert len(passes) >= 4
    period = np.mean(passes[2:] - passes[:-2])
    return (period / (4.0 * length / math.sqrt(e / rho)) - 1.0,
            (travel.max() - travel.min()) / (rho * g * length ** 2 / e) - 1.0)


def test_elastic_column_converges_at_first_order():
    """Halving the spacing (and h with it) halves the column's errors.

    The closed forms are those of a fixed-free bar loaded suddenly by its
    own weight: period 4 L / c with c = sqrt(E / rho), and top travel
    rho g L^2 / E peak to peak, with nu = 0 so that the cross-section does
    not enter.  The discretization is that of Jiang et al. 2016, "The
    Material Point Method for Simulating Continuum Materials", SIGGRAPH
    course; its error here falls at first order in h.  At 1 cm and 5 mm
    spacing, 3 particles across, the period errors are +2.68% and +1.32%
    (a factor of 2.03) and the travel errors +3.36% and +1.81% (1.85).
    Each must fall by more than 1.6, which a regression to a slower order
    would break even while both stay inside the 5% gates of the test
    above.
    """
    coarse = column_errors(0.01)
    fine = column_errors(0.005)
    for was, now in zip(coarse, fine):
        assert abs(was) > 1.6 * abs(now)


def bar_set(material, v0=1.0, spacing=0.01, e=1e6, nu=0.3, rho=1000.0):
    """Shortening of a 40 x 4 x 4 particle bar, in zero gravity, whose two
    halves start toward each other at v0, averaged over its last 0.075 s
    of 0.15 s (three periods 2 L / c of its free vibration); and the
    rigid-plastic closed form of that set for PLASTICINE."""
    def block(i0, i1):
        axes = [(np.arange(a, b) + 0.5) * spacing
                for a, b in ((i0, i1), (0, 4), (0, 4))]
        return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)

    length = 40 * spacing
    cfg = SimConfig(h_grid=2 * spacing, frames=60, fps=400.0,
                    domain_lo=(-0.2, -0.2, -0.2),
                    domain_hi=(length + 0.2, 0.25, 0.25), ground_height=-0.2)
    halves = [ObjectInit(field=particle_field(block(*ends), material, e=e,
                                              nu=nu, rho=rho),
                         h_fill=spacing, velocity=(sign * v0, 0.0, 0.0))
              for ends, sign in (((0, 20), 1.0), ((20, 40), -1.0))]
    traj = simulate(build_state(halves, cfg, gravity=(0.0, 0.0, 0.0)), None,
                    cfg)
    x = traj.positions[30:, :, 0]
    measured = length - (x.max(axis=1) - x.min(axis=1) + spacing).mean()
    flow_stress = math.sqrt(1.5) * constitutive.YIELD_STRESS
    return measured, rho * length * v0 ** 2 / (2.0 * flow_stress)


def test_plasticine_bar_keeps_a_permanent_set():
    """A PLASTICINE bar yields inside ``simulate`` and stays shorter.

    Its two halves meet at 1 m/s, an impact stress rho c v0 = 3.2e4 Pa
    (c = sqrt(E / rho)) past the uniaxial flow stress sqrt(3/2) Y = 1.2e4
    Pa at which von Mises flow on the log strains |dev eps| = Y / (2 mu)
    begins under uniaxial stress (the return mapping of Jiang et al. 2016,
    "The Material Point Method for Simulating Continuum Materials",
    SIGGRAPH course).  The rigid-plastic closed form of the permanent set
    spends the whole kinetic energy 1/2 M v0^2 as plastic work
    sqrt(3/2) Y A dL, so dL = rho L v0^2 / (2 sqrt(3/2) Y) = 16.3 mm for
    L = 0.4 m; that bounds the set from above, since the elastic
    vibration and the inelastic meeting of the halves on the grid keep
    part of the energy.  Measured at 1 cm spacing: 12.96 mm (0.79 of the
    closed form), so the bar must keep at least 0.6 of it.  The same bar
    in ELASTIC vibrates about its rest length (0.11 mm measured), so it
    must come within 1 mm.  This is the one test in which PLASTICINE rows
    leave the yield cylinder during a simulation, the only route by which
    they reach ``svd3``.
    """
    measured, closed = bar_set(MaterialClass.PLASTICINE)
    assert 0.6 * closed <= measured <= closed
    measured, _ = bar_set(MaterialClass.ELASTIC)
    assert abs(measured) < 1e-3
