from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from oracles import grid_update_oracle
from physedit.engine import (_BC_MODES, _WALL_NAMES, GRID_MARGIN, ObjectInit,
                             SimConfig, _grid_update, _Stencil, build_state,
                             object_events, simulate, stable_dt, step)
from physedit.errors import DomainError, EmptyScene, GridOverflow
from physedit.fill import FillConfig, fill_field
from physedit.materials import MaterialClass, MaterialModel, wave_speeds
from physedit.scenes import cube_shell_positions, uniform_field


def free_cfg(**kw):
    base = dict(h_grid=0.01, frames=1, domain_lo=(-0.6, -2.4, -0.6),
                domain_hi=(0.6, 0.4, 0.6), ground_height=-2.3)
    base.update(kw)
    return SimConfig(**base)


def particle_field(points, material=MaterialClass.ELASTIC, e=1e4, nu=0.2,
                   rho=1000.0):
    return uniform_field(np.asarray(points, dtype=float), material, e, nu, rho)


def small_cube(size=0.12, n=5, e=2e4, nu=0.3, rho=400.0):
    shell = cube_shell_positions(size, n)
    surface = uniform_field(shell, MaterialClass.ELASTIC, e, nu, rho)
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


class TestConfig:
    @pytest.mark.parametrize("wall_bc", ["bouncy", {"floor": "slip"},
                                         {"y_min": "slip"}, {"x_min": "bouncy"}])
    def test_invalid_wall_bc_rejected(self, wall_bc):
        # y_min is the ground side, set by ground_bc, not a wall
        with pytest.raises(DomainError):
            free_cfg(wall_bc=wall_bc).validate()

    def test_partial_wall_mapping_defaults_to_separate(self):
        st = build_state([ObjectInit(field=particle_field([[0, 0, 0]]),
                                     h_fill=0.05)],
                         free_cfg(wall_bc={"x_min": "sticky"}))
        assert st.wall_bc == {"x_min": "sticky", "x_max": "separate",
                              "y_max": "separate", "z_min": "separate",
                              "z_max": "separate"}


class TestStableDt:
    def test_formula(self):
        f = particle_field([[0, 0, 0]], e=2.0, nu=0.0, rho=1.0)
        cfg = free_cfg(h_grid=0.01, cfl_number=0.3)
        st = build_state([ObjectInit(field=f, h_fill=0.1)], cfg)
        assert stable_dt(st, cfg) == pytest.approx(0.003 / np.sqrt(2.0),
                                                   rel=1e-12)

    def test_rigid_uses_clamped_speed(self):
        table = MaterialModel(rigid_young_modulus=1e9)
        f = particle_field([[0, 0, 0]], material=MaterialClass.RIGID,
                           e=50.0, nu=0.3, rho=1000.0)
        cfg = free_cfg()
        st = build_state([ObjectInit(field=f, h_fill=0.1)], cfg, table=table)
        c_p, _ = wave_speeds(1e9, 0.3, 1000.0)
        assert stable_dt(st, cfg) == pytest.approx(0.3 * 0.01 / c_p, rel=1e-12)

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
        p_ref = np.linalg.norm(st.total_momentum())
        for _ in range(60):
            before = st.total_momentum()
            step(st, 2e-4)
            after = st.total_momentum()
            assert np.linalg.norm(after - before) / p_ref < 1e-9

    def test_mass_conserved_exactly(self):
        cube = small_cube()
        cfg = SimConfig(h_grid=0.03, frames=1, domain_lo=(-0.3, -0.05, -0.3),
                        domain_hi=(0.4, 0.6, 0.4))
        st = build_state([ObjectInit(field=cube, h_fill=0.03,
                                     translate=(0.0, 0.2, 0.0))], cfg)
        m0 = st.total_mass()
        for _ in range(50):
            step(st, stable_dt(st, cfg))
        assert st.total_mass() == m0

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
    walls = {name: draw(hst.sampled_from(_BC_MODES)) for name in _WALL_NAMES}
    state, stencil = grid_box(h, origin, dims, lo, sub, ground,
                              draw(hst.sampled_from(_BC_MODES)), walls, damping)
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
        grid_v = _grid_update(state, dt, stencil, mass, mom)
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
        walls = {name: mode if name == boundary else "separate"
                 for name in _WALL_NAMES}
        state, stencil = grid_box(0.1, (0, 0, 0), (12, 12, 12), (0, 0, 0),
                                  (12, 12, 12),
                                  0.5 if boundary == "ground" else -1.0,
                                  mode if boundary == "ground" else "sticky",
                                  walls)
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
                              mom.reshape(3, -1)).reshape(3, 12, 12, 12)

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


class TestEvents:
    def test_object_events_aggregates(self):
        f1 = particle_field([[0, 0.5, 0], [0, 0.6, 0]])
        f2 = particle_field([[0.2, 0.005, 0.0]])
        cfg = SimConfig(h_grid=0.01, frames=1, domain_lo=(-0.5, -0.1, -0.5),
                        domain_hi=(0.5, 0.8, 0.5), ground_height=0.0)
        st = build_state([ObjectInit(field=f1, h_fill=0.05, velocity=(0, -2, 0)),
                          ObjectInit(field=f2, h_fill=0.05)], cfg)
        ev = object_events(st)
        assert ev[0]["min_height"] == pytest.approx(0.5)
        assert ev[0]["max_speed"] == pytest.approx(2.0)
        assert not ev[0]["ground_contact"]
        assert ev[1]["ground_contact"]

    def test_margin_constant(self):
        assert GRID_MARGIN == 3
