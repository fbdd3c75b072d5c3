"""Acceptance suite: one test per criterion, each printing a PASS line.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Tolerances and runtime bounds are asserted, not just reported.
"""

import json
import time

import numpy as np
import pytest

from oracles import (assignment_oracle, brute_force_nearest,
                     contrastive_oracle, pixel_oracle, smoothness_oracle,
                     softmax_oracle, task_oracle, wave_oracle)
from physedit.cli import main as cli_main
from physedit.conditioning import FeatureBundle, soft_assign
from physedit.engine import ObjectInit, SimConfig, build_state, simulate, step
from physedit.fill import FillConfig, fill_interior, inherit_properties
from physedit.losses import (LossWeights, SupervisionTargets, assignment_loss,
                             contrastive_hinge_values, contrastive_loss,
                             finite_diff_check, sample_triplets,
                             smoothness_loss, task_loss, total_loss)
from physedit.materials import MaterialClass, MaterialField, wave_speeds
from physedit.raster import CameraSpec, rasterize_frame
from physedit.scenes import (BUNDLED_SCENES, cube_shell_positions,
                             sphere_shell_positions, uniform_field)
from physedit.schedule import ScheduleRuntime, compile_schedule, ramp_value
from physedit.trajectory import export_trajectory, read_trajectory


def report(n, label, detail):
    print(f"\nACCEPTANCE {n} ({label}): PASS — {detail}")


def random_labeled_field(rng, n):
    part = rng.integers(0, 2, n).astype(np.int32)
    part[:2] = (0, 1)  # both parts always present so triplets exist
    return MaterialField(
        positions=rng.uniform(0, 1, size=(n, 3)),
        class_id=rng.integers(0, 6, n).astype(np.int32),
        young_modulus=10 ** rng.uniform(4, 8, n),
        poisson_ratio=rng.uniform(-0.2, 0.45, n),
        density=10 ** rng.uniform(1.5, 3.5, n),
        part_label=part,
    )


def test_criterion_1_closed_form_wave_speeds():
    t0 = time.time()
    rng = np.random.default_rng(101)
    e = 10 ** rng.uniform(2, 11, 1000)
    nu = rng.uniform(-0.9, 0.49, 1000)
    rho = 10 ** rng.uniform(0, 4, 1000)
    c_p, c_s = wave_speeds(e, nu, rho)
    worst = 0.0
    for i in range(1000):
        op, os_ = wave_oracle(e[i], nu[i], rho[i])
        worst = max(worst, abs(c_p[i] - op) / op, abs(c_s[i] - os_) / os_)
    assert worst < 1e-12
    exact = wave_speeds(2.0, 0.0, 1.0)
    assert exact[0] == np.sqrt(2.0) and exact[1] == 1.0
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "closed-form reproduction",
           f"max rel err {worst:.2e} on 1000 triples; "
           f"(2,0,1)->(sqrt2,1) exact; {elapsed:.2f}s")


def test_criterion_2_loss_suite_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    w = LossWeights()  # the stated weights (1, 0.3, 0.02, 5e-4, 0.1)
    worst = 0.0
    worst_total = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 12))
        f = random_labeled_field(rng, n)
        targets = SupervisionTargets(
            class_labels=rng.integers(0, 6, n),
            param_targets=rng.normal(size=(n, 3)),
            part_labels=f.part_label,
            prompt_of_part={0: 0, 1: 1})
        probs = rng.dirichlet(np.ones(6), size=n)
        params = rng.normal(size=(n, 3))
        logits = rng.normal(size=(n, 2))
        trips = sample_triplets(f.part_label, 8,
                                seed=int(rng.integers(2 ** 31)))

        pairs = [
            (task_loss(probs, params, targets, w),
             task_oracle(probs.tolist(), params.tolist(), targets, w)),
            (smoothness_loss(f, w), smoothness_oracle(f, w)),
            (contrastive_loss(f, trips, w), contrastive_oracle(f, trips, w)),
            (assignment_loss(logits, targets, 0.07),
             assignment_oracle(logits, [targets.prompt_of_part[p]
                                        for p in f.part_label], 0.07)),
        ]
        for got, want in pairs:
            scale = max(abs(want), 1.0)
            worst = max(worst, abs(got - want) / scale)
        total, parts = total_loss(probs, params, f, trips, logits, targets, w,
                                  tau=0.07)
        recomposed = (parts["task"] + 0.02 * parts["smoothness"]
                      + 5e-4 * parts["contrastive"] + 0.1 * parts["assignment"])
        worst_total = max(worst_total,
                          abs(total - recomposed) / max(abs(total), 1.0))
    assert worst < 1e-10
    assert worst_total < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, "loss-suite oracle equivalence",
           f"max oracle err {worst:.2e}, recomposition err {worst_total:.2e} "
           f"on 100 fixtures; {elapsed:.1f}s")


def test_criterion_3_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(303)
    w = LossWeights(margin=0.5)
    worst = {"task": 0.0, "smoothness": 0.0, "contrastive": 0.0,
             "assignment": 0.0}
    done = {k: 0 for k in worst}
    while min(done.values()) < 20:
        n = int(rng.integers(6, 10))
        f = random_labeled_field(rng, n)
        targets = SupervisionTargets(
            class_labels=rng.integers(0, 6, n),
            param_targets=rng.normal(size=(n, 3)),
            part_labels=f.part_label,
            prompt_of_part={0: 0, 1: 1})
        if done["task"] < 20:
            params = targets.param_targets + rng.uniform(-0.5, 0.5, (n, 3))
            probs = rng.dirichlet(np.ones(6), size=n)
            err = finite_diff_check("task", {
                "pred_probs": probs, "pred_params": params,
                "targets": targets, "weights": w})
            worst["task"] = max(worst["task"], err)
            done["task"] += 1
        if done["smoothness"] < 20:
            err = finite_diff_check("smoothness", {"field": f, "weights": w})
            worst["smoothness"] = max(worst["smoothness"], err)
            done["smoothness"] += 1
        if done["contrastive"] < 20:
            trips = sample_triplets(f.part_label, 10,
                                    seed=int(rng.integers(2 ** 31)))
            if np.all(np.abs(contrastive_hinge_values(f, trips, w)) > 1e-3):
                err = finite_diff_check("contrastive", {
                    "field": f, "triplets": trips, "weights": w})
                worst["contrastive"] = max(worst["contrastive"], err)
                done["contrastive"] += 1
        if done["assignment"] < 20:
            logits = rng.normal(size=(n, 2))
            err = finite_diff_check("assignment", {
                "logits": logits, "targets": targets, "tau": 0.07})
            worst["assignment"] = max(worst["assignment"], err)
            done["assignment"] += 1
    assert max(worst.values()) < 1e-4
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(3, "gradient checks",
           "max rel errs " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
           + f" at 20 probes each; {elapsed:.1f}s")


def test_criterion_4_soft_assignment():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        n, k = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        b = FeatureBundle(
            point_features=rng.standard_normal((n, 5)),
            global_token=rng.standard_normal((1, 4)),
            part_tokens=rng.standard_normal((k, 4)),
            phi=rng.standard_normal((5, 3)),
            psi=rng.standard_normal((4, 3)),
            w_val=rng.standard_normal((4, 5)),
            tau=float(10 ** rng.uniform(-2, 0.5)))
        a = soft_assign(b).weights
        assert np.all(np.abs(a.sum(axis=1) - 1.0) <= 1e-6)

    b1 = FeatureBundle(rng.standard_normal((4, 5)), rng.standard_normal((1, 4)),
                       rng.standard_normal((1, 4)), rng.standard_normal((5, 3)),
                       rng.standard_normal((4, 3)), rng.standard_normal((4, 5)),
                       0.07)
    assert np.array_equal(soft_assign(b1).weights, np.ones((4, 1)))

    b0 = FeatureBundle(b1.point_features, b1.global_token, b1.part_tokens,
                       b1.phi, b1.psi, np.zeros((4, 5)), 0.07)
    assert np.array_equal(soft_assign(b0).refined, b0.point_features)

    h = np.array([[1.0, 2.0], [0.5, -1.0]])
    t = np.array([[1.0], [-0.5]])
    phi = np.array([[0.3], [-0.2]])
    psi = np.array([[0.8]])
    b2 = FeatureBundle(h, np.zeros((1, 1)), t, phi, psi,
                       np.array([[0.1, -0.4]]), 0.07)
    got = soft_assign(b2).weights
    hp, tp = h @ phi, t @ psi
    worst = 0.0
    for i in range(2):
        row = softmax_oracle([float(hp[i] @ tp[j]) / 0.07 for j in range(2)])
        worst = max(worst, float(np.max(np.abs(got[i] - row))))
    assert worst < 1e-9
    report(4, "soft assignment",
           f"1000 bundles row-stochastic; K=1 and W=0 identities exact; "
           f"2x2 oracle err {worst:.1e}")


def test_criterion_5_volumetric_fill():
    t0 = time.time()
    cube = uniform_field(cube_shell_positions(1.0, 21), MaterialClass.ELASTIC,
                         1e5, 0.3, 1000.0)
    n_cube = fill_interior(cube, FillConfig(particle_spacing=0.1)).shape[0]
    assert abs(n_cube - 729) <= 0.1 * 729

    sphere = uniform_field(sphere_shell_positions(1.0, 4500),
                           MaterialClass.ELASTIC, 1e5, 0.3, 1000.0)
    n_sphere = fill_interior(sphere, FillConfig(particle_spacing=0.05)).shape[0]
    expected = (4 * np.pi / 3) / 0.05 ** 3
    assert abs(n_sphere - expected) <= 0.05 * expected

    rng = np.random.default_rng(505)
    surface = uniform_field(rng.uniform(0, 1, size=(300, 3)),
                            MaterialClass.ELASTIC, 1e5, 0.3, 1000.0)
    surface = surface.with_(young_modulus=10 ** rng.uniform(3, 9, 300))
    queries = rng.uniform(0, 1, size=(1000, 3))
    out = inherit_properties(queries, surface, FillConfig(particle_spacing=0.05))
    nearest = brute_force_nearest(surface.positions, queries)
    assert np.array_equal(out.young_modulus[300:],
                          surface.young_modulus[nearest])
    elapsed = time.time() - t0
    assert elapsed < 20.0
    report(5, "volumetric fill",
           f"cube {n_cube} (729±10%), sphere {n_sphere} "
           f"({expected:.0f}±5%), kNN==brute force on 1000 pts; {elapsed:.1f}s")


def _free_cfg(**kw):
    base = dict(h_grid=0.01, frames=1, domain_lo=(-0.6, -2.4, -0.6),
                domain_hi=(0.6, 0.4, 0.6), ground_height=-2.3)
    base.update(kw)
    return SimConfig(**base)


def test_criterion_6_simulation_physics():
    t0 = time.time()
    details = []

    # (a) free-fall center of mass vs discrete oracle, 100 substeps
    f = uniform_field(np.array([[0.0, 0.0, 0.0]]), MaterialClass.ELASTIC,
                      2.0, 0.0, 1.0)
    st = build_state([ObjectInit(field=f, h_fill=0.1)], _free_cfg())
    dt = 1e-3
    for _ in range(100):
        step(st, dt)
    v_o, y_o = 0.0, 0.0
    for _ in range(100):
        v_o += dt * -9.8
        y_o += dt * v_o
    err_a = max(abs(st.v[0, 1] - v_o) / abs(v_o),
                abs(st.x[0, 1] - y_o) / abs(y_o))
    assert err_a < 1e-9
    details.append(f"(a) free-fall {err_a:.1e}")

    # (b) zero-force two-body momentum drift per substep
    f2 = uniform_field(np.array([[0.0, -1.0, 0.0], [0.04, -1.0, 0.0]]),
                       MaterialClass.ELASTIC, 1e4, 0.2, 1000.0)
    st2 = build_state([ObjectInit(field=f2, h_fill=0.04, velocity=(1, 0, 0))],
                      _free_cfg(), gravity=(0, 0, 0))
    st2.v[1] = [-0.5, 0.3, 0.0]
    p_ref = np.linalg.norm((st2.mass[:, None] * st2.v).sum(axis=0))
    worst_b = 0.0
    for _ in range(100):
        before = (st2.mass[:, None] * st2.v).sum(axis=0)
        step(st2, 2e-4)
        after = (st2.mass[:, None] * st2.v).sum(axis=0)
        worst_b = max(worst_b, np.linalg.norm(after - before) / p_ref)
    assert worst_b < 1e-9
    details.append(f"(b) momentum {worst_b:.1e}")

    # (c) mass conserved exactly under non-density edits
    from physedit.fill import fill_field
    shell = cube_shell_positions(0.12, 5)
    cube = fill_field(uniform_field(shell, MaterialClass.ELASTIC,
                                    2e4, 0.3, 400.0),
                      FillConfig(particle_spacing=0.03))
    cfg_c = SimConfig(h_grid=0.03, frames=6, fps=24.0,
                      domain_lo=(-0.4, -0.09, -0.4), domain_hi=(0.5, 0.8, 0.5))
    st3 = build_state([ObjectInit(field=cube, h_fill=0.03,
                                  translate=(0.0, 0.2, 0.0))], cfg_c)
    sched = compile_schedule("at t=0.05 set object 0 young_modulus 1e5 ramp 0.1",
                             st3)
    m0 = st3.mass.sum()
    simulate(st3, sched, cfg_c)
    assert st3.mass.sum() == m0
    assert st3.young_modulus.max() > 2e4  # the edit really ran
    details.append("(c) mass exact")

    # (d) dropped elastic cube never bounces above its release height
    cfg_d = SimConfig(h_grid=0.03, frames=20, fps=24.0,
                      domain_lo=(-0.4, -0.09, -0.4), domain_hi=(0.5, 0.8, 0.5),
                      ground_height=0.0, ground_bc="sticky")
    st4 = build_state([ObjectInit(field=cube, h_fill=0.03,
                                  translate=(0.0, 0.25, 0.0))], cfg_d)
    traj = simulate(st4, None, cfg_d)
    tops = traj.positions[:, :, 1].max(axis=1).astype(float)
    assert np.all(tops <= tops[0] + 1e-6)
    details.append("(d) no energy gain")

    # (e) resting block center of mass drift over 2 simulated seconds
    from physedit.fill import fill_field as _ff
    block = _ff(uniform_field(cube_shell_positions(0.1, 5),
                              MaterialClass.ELASTIC, 5e5, 0.2, 300.0),
                FillConfig(particle_spacing=0.025))
    cfg_e = SimConfig(h_grid=0.025, frames=9, fps=4.0,
                      domain_lo=(-0.3, -0.075, -0.3), domain_hi=(0.4, 0.4, 0.4),
                      ground_height=0.0, ground_bc="sticky")
    st5 = build_state([ObjectInit(field=block, h_fill=0.025,
                                  translate=(0.0, 0.0125, 0.0))], cfg_e)
    com0 = st5.x.mean(axis=0)
    simulate(st5, None, cfg_e)
    drift = float(np.linalg.norm(st5.x.mean(axis=0) - com0))
    assert drift < 1e-4
    details.append(f"(e) rest drift {drift:.1e} m")

    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(6, "simulation physics", "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_7_intervention_semantics(tmp_path):
    mid = ramp_value(1e6, 1e2, 0.5, 1.0, scale="log")
    assert abs(mid - 1e4) / 1e4 < 1e-9

    # audit the bundled scene edit logs for the per-substep log-rate cap
    audited = 0
    rc = cli_main(["simulate", "--bundled", "hollow_deflate",
                   str(tmp_path / "hd"), "--no-images"])
    assert rc == 0
    edits = json.loads((tmp_path / "hd" / "edits.json").read_text())
    sched_text = (tmp_path / "hd" / "scene_src" / "schedule.txt").read_text()
    rate = 2.0  # bundled scenes use the default max_log_rate
    for rec in edits:
        if "max_dlog10" in rec:
            assert rec["max_dlog10"] <= rate * rec["dt"] + 1e-12
            audited += 1
    assert audited > 100

    # gravity zeroing: constant velocity afterwards
    f = uniform_field(np.array([[0.0, 0.0, 0.0]]), MaterialClass.ELASTIC,
                      2.0, 0.0, 1.0)
    cfg = _free_cfg()
    st = build_state([ObjectInit(field=f, h_fill=0.1)], cfg)
    sched = compile_schedule("at t=0.05 set scene gravity (0,0,0)", st)
    rt = ScheduleRuntime(sched)
    t, dt = 0.0, 1e-3
    while t < 0.0505:
        rt.apply(st, t, dt)
        step(st, dt)
        t += dt
    v_ref = st.v.copy()
    worst = 0.0
    for _ in range(10):
        rt.apply(st, t, dt)
        step(st, dt)
        t += dt
        worst = max(worst, float(np.max(np.abs(st.v - v_ref)))
                    / float(np.max(np.abs(v_ref))))
    assert worst < 1e-9
    report(7, "intervention semantics",
           f"log midpoint exact; {audited} capped edits audited; "
           f"post-zeroing velocity drift {worst:.1e}")


@pytest.mark.parametrize("name", BUNDLED_SCENES)
def test_criterion_8_determinism(name, tmp_path):
    rc1 = cli_main(["simulate", "--bundled", name, str(tmp_path / "r1"),
                    "--threads", "1", "--no-images"])
    rc2 = cli_main(["simulate", "--bundled", name, str(tmp_path / "r2"),
                    "--threads", "4", "--no-images"])
    assert rc1 == 0 and rc2 == 0
    m1 = (tmp_path / "r1" / "manifest.json").read_bytes()
    m2 = (tmp_path / "r2" / "manifest.json").read_bytes()
    assert m1 == m2
    report(8, f"determinism [{name}]",
           "manifests bit-identical across runs and thread counts {1,4}")


def test_criterion_9_export_and_raster(tmp_path):
    rng = np.random.default_rng(909)
    frames = rng.uniform(-1, 1, size=(5, 64, 3)).astype(np.float32)
    from physedit.trajectory import Trajectory
    traj = Trajectory.from_frames(frames, 24.0, np.zeros(64, dtype=np.int32))
    export_trajectory(traj, tmp_path / "t")
    back = read_trajectory(tmp_path / "t")
    assert np.array_equal(back.positions, traj.positions)

    cam = CameraSpec(fx=90.0, fy=90.0, cx=24.0, cy=20.0, width=48, height=40,
                     splat_radius=1.5)
    pts = rng.uniform(-0.3, 0.3, size=(100, 3)) + [0, 0, 1.5]
    frame = rasterize_frame(pts, cam)
    depth, index = pixel_oracle(pts, cam)
    assert np.array_equal(frame.index >= 0, index >= 0)
    assert np.array_equal(frame.index, index)
    report(9, "export/raster",
           "round-trip bit-exact; occupancy equals the per-pixel oracle "
           "on 100 points")
