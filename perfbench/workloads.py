"""The five benchmark workloads.

Each workload has these parts:

  setup(seed, dir)                 generate the inputs (timed as setup_s)
  units(inputs)                    the pieces the timed operation is made
                                   of, each timed on its own ([None]: one)
  run(inputs, out, unit=None)      the timed operation, or one unit of it,
                                   writing into ``out``
  frames(inputs, out, unit=None)   output frames of that run
  check(inputs, out, result, gate, reference)
                                   correctness gate, outside the timed region

The seed only permutes particle (or point) order in the generated
inputs, and for ``scenes`` it is passed to ``physedit simulate --seed``.
The physics is order-independent, so every seed does the same work and
produces the same trajectory up to floating-point summation order; the
per-frame centroids and AABBs are therefore compared with one committed
reference at a tolerance, and the raster digests and loss breakdown are
checked against references independent of the seed.

Program functions are called through their module attributes
(``fill.fill_field``, ``cli.main``, ...) so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from physedit import cli, fieldio, fill, raster, scenes, trajectory
from physedit.conditioning import FeatureBundle, synthetic_segmentation_prior
from physedit.losses import sample_triplets
from physedit.materials import MaterialClass, MaterialField

# Largest per-frame centroid or AABB deviation from the reference that
# still counts as the same motion [m].  A grid cell is 2-3 cm here, and
# summation-order noise across seeds stays below 1e-9 m.
DRIFT_TOLERANCE_M = 1e-4
GRADCHECK_THRESHOLD = 1e-4
BREAKDOWN_TOLERANCE = 1e-10


def permuted(fld: MaterialField, perm) -> MaterialField:
    """The same field with its points reordered by ``perm``."""
    return fld.with_(
        positions=fld.positions[perm], class_id=fld.class_id[perm],
        young_modulus=fld.young_modulus[perm],
        poisson_ratio=fld.poisson_ratio[perm], density=fld.density[perm],
        part_label=None if fld.part_label is None else fld.part_label[perm],
        interior_flag=fld.interior_flag[perm])


def filled_cube(size, n_per_edge, spacing, material, e, nu, rho):
    shell = scenes.uniform_field(scenes.cube_shell_positions(size, n_per_edge),
                                 material, e=e, nu=nu, rho=rho)
    return fill.fill_field(shell, fill.FillConfig(particle_spacing=spacing))


def write_scene(out: Path, objects, sim, fields):
    """Field files and a scene.json (no schedule, no camera) in ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    for name, fld in fields.items():
        fieldio.write_field(fld, out / name)
    doc = {"format": "scene", "version": 1, "objects": objects,
           "gravity": [0.0, -9.8, 0.0], "sim": sim}
    (out / "scene.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    return out


class StateCapture:
    """Keeps the states ``physedit simulate`` builds, for the mass check.

    It wraps ``cli.build_state`` inside the timed operation of traced and
    untraced runs alike, so both time the same code.
    """

    def __init__(self):
        self.states = []
        self._orig = None

    def __enter__(self):
        self._orig = orig = cli.build_state

        def build_state(*args, **kwargs):
            state = orig(*args, **kwargs)
            self.states.append((state, float(state.mass.sum())))
            return state

        cli.build_state = build_state
        return self

    def __exit__(self, *exc):
        cli.build_state = self._orig


def run_cli(argv):
    """``physedit ARGV`` in-process, its report text discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def compare_motion(gate, label, traj, ref):
    """Per-frame centroid and AABB deviation against the reference."""
    got_c, got_b = traj.centroids, traj.aabbs
    want_c, want_b = np.asarray(ref["centroids"]), np.asarray(ref["aabbs"])
    if got_c.shape != want_c.shape or got_b.shape != want_b.shape:
        gate.check(f"{label}: frames/objects match reference", False)
        return
    drift = max(float(np.abs(got_c - want_c).max()),
                float(np.abs(got_b - want_b).max()))
    gate.drift(drift)
    gate.check(f"{label}: drift {drift:.3g} m <= {DRIFT_TOLERANCE_M:g} m",
               drift <= DRIFT_TOLERANCE_M)


def motion_reference(traj):
    return {"centroids": traj.centroids.tolist(), "aabbs": traj.aabbs.tolist()}


class SimulateWorkload:
    """Scene directories run through ``physedit simulate`` one by one.

    Subclasses provide ``scenes(seed, dir)`` -> {label: (scene_dir, argv)}.
    """

    def setup(self, seed, root):
        return {"seed": seed, "scenes": self.scenes(seed, root)}

    def units(self, inputs):
        return list(inputs["scenes"])

    def run(self, inputs, out, unit=None):
        """{label: (exit code, (final state, initial total mass) or None)}."""
        results = {}
        with StateCapture() as capture:
            for label in [unit] if unit else inputs["scenes"]:
                scene_dir, extra = inputs["scenes"][label]
                capture.states.clear()
                code = run_cli(["simulate", scene_dir, out / label,
                                "--seed", inputs["seed"], *extra])
                results[label] = (code, capture.states[0]
                                  if capture.states else None)
        return results

    def frames(self, inputs, out, unit=None):
        return sum(json.loads((out / label / "manifest.json").read_text())
                   ["frames"] for label in ([unit] if unit else inputs["scenes"]))

    def check(self, inputs, out, result, gate, ref):
        for label, (code, captured) in result.items():
            gate.check(f"{label}: simulate exit code 0", code == 0)
            if code != 0 or captured is None:
                continue
            state, mass0 = captured
            report = trajectory.verify_trajectory(out / label)
            gate.check(f"{label}: verify_trajectory ok", report["ok"])
            # every particle's mass is its density times its volume, and the
            # total stays fixed unless the schedule edited density
            consistent = np.array_equal(state.mass, state.density * state.vol0)
            traj = trajectory.read_trajectory(out / label)
            if not any(e["property"] == "density" for e in traj.edit_log):
                consistent = consistent and float(state.mass.sum()) == mass0
            gate.check(f"{label}: mass unchanged", consistent)
            if ref is not None:
                compare_motion(gate, label, traj, ref[label])

    def reference(self, inputs, out, result):
        return {label: motion_reference(trajectory.read_trajectory(out / label))
                for label in inputs["scenes"]}


class Scenes(SimulateWorkload):
    """The four bundled scenes, each cut after its schedule event fires."""

    # frames per scene: drop_cube has no schedule; hollow_deflate's ramps
    # start at t=0.15 s, liquefy_on_contact switches class at t=0.208 s and
    # zero_g_bounce ramps gravity from t=0.199 s (frame k ends at k/24 s)
    FRAMES = {"drop_cube": 3, "hollow_deflate": 5,
              "liquefy_on_contact": 7, "zero_g_bounce": 6}

    def scenes(self, seed, root):
        return {name: (scenes.build_scene(name, root / name).parent,
                       ["--frames", frames])
                for name, frames in self.FRAMES.items()}


class Zoo(SimulateWorkload):
    """One filled cube per non-rigid class landing on sticky ground."""

    CLASSES = (MaterialClass.ELASTIC, MaterialClass.PLASTICINE,
               MaterialClass.SAND, MaterialClass.SNOW, MaterialClass.LIQUID)
    SPACING = 0.02
    CUBE = (0.22, 12)  # edge [m], shell points per edge: 1728 particles
    FRAMES = 3

    def scenes(self, seed, root):
        rng = np.random.default_rng(seed)
        fields, objects = {}, []
        for k, material in enumerate(self.CLASSES):
            cube = filled_cube(*self.CUBE, self.SPACING, material,
                               e=3e4, nu=0.3, rho=600.0)
            name = f"{material.name.lower()}.mfield"
            fields[name] = permuted(cube, rng.permutation(cube.n_points))
            objects.append({"id": k, "field": name, "h_fill": self.SPACING,
                            "translate": [-0.71 + 0.3 * k, self.SPACING, -0.11],
                            "velocity": [0.0, -1.0, 0.0]})
        sim = {"h_grid": self.SPACING, "frames": self.FRAMES, "fps": 150.0,
               "domain_lo": [-0.9, -0.06, -0.3], "domain_hi": [0.9, 0.4, 0.3],
               "ground_height": 0.0, "ground_bc": "sticky",
               "wall_bc": "separate", "seed": 0}
        return {"zoo": (write_scene(root / "zoo", objects, sim, fields),
                        ["--no-images"])}


class RigidPad(SimulateWorkload):
    """A RIGID block resting on an elastic pad; rigid stiffness sets dt.

    The one frame interval (1/600 s) spans about 2.6 of the pad's own CFL
    steps, so the rigid block's dt, not the frame boundary, sets the
    substep count (264 substeps of 6.3e-6 s).
    """

    SPACING = 0.02
    PAD = (0.12, 7)    # edge [m], shell points per edge: 343 particles
    BLOCK = (0.08, 5)  # 125 particles
    FPS, FRAMES = 600.0, 2  # frame 0 is the initial state

    def scenes(self, seed, root):
        rng = np.random.default_rng(seed)
        pad = filled_cube(*self.PAD, self.SPACING, MaterialClass.ELASTIC,
                          e=5e4, nu=0.3, rho=800.0)
        block = filled_cube(*self.BLOCK, self.SPACING, MaterialClass.RIGID,
                            e=1e6, nu=0.3, rho=1500.0)
        fields = {"pad.mfield": permuted(pad, rng.permutation(pad.n_points)),
                  "block.mfield": permuted(block,
                                           rng.permutation(block.n_points))}
        (p, _), (b, _) = self.PAD, self.BLOCK
        objects = [
            {"id": 0, "field": "pad.mfield", "h_fill": self.SPACING,
             "translate": [-p / 2, self.SPACING, -p / 2]},
            {"id": 1, "field": "block.mfield", "h_fill": self.SPACING,
             "translate": [-b / 2, p + 2 * self.SPACING, -b / 2]},
        ]
        sim = {"h_grid": self.SPACING, "frames": self.FRAMES, "fps": self.FPS,
               "domain_lo": [-0.3, -0.06, -0.3], "domain_hi": [0.3, 0.5, 0.3],
               "ground_height": 0.0, "ground_bc": "sticky",
               "wall_bc": "separate", "seed": 0}
        return {"rigid_pad": (write_scene(root / "rigid_pad", objects, sim,
                                          fields), ["--no-images"])}


def rigid_motion(points, n_frames):
    """Frames of ``points`` under a fixed spin and drift, pointwise exact.

    Every coordinate is computed from its own point only (no BLAS), so the
    frames of a reordered point set are the reordered frames bit for bit.
    """
    axis = np.array([0.3, 1.0, 0.2]) / np.linalg.norm([0.3, 1.0, 0.2])
    frames = np.empty((n_frames,) + points.shape, dtype=np.float32)
    for k in range(n_frames):
        theta = 0.05 * k
        x, y, z = axis
        c, s, t = np.cos(theta), np.sin(theta), 1.0 - np.cos(theta)
        rot = np.array([[t * x * x + c, t * x * y - s * z, t * x * z + s * y],
                        [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
                        [t * x * z - s * y, t * y * z + s * x, t * z * z + c]])
        shift = np.array([0.004 * k, 0.002 * k, -0.003 * k])
        for row in range(3):
            frames[k, :, row] = (points[:, 0] * rot[row, 0]
                                 + points[:, 1] * rot[row, 1]
                                 + points[:, 2] * rot[row, 2] + shift[row])
    return frames


class Render:
    """Export, verify, read and rasterize a generated rigid-motion trajectory."""

    N_FRAMES = 24
    CAMERA = dict(eye=(0.6, 0.45, 0.9), target=(0.05, 0.05, -0.03),
                  fx=260.0, fy=260.0, cx=96.0, cy=96.0, width=192, height=192,
                  splat_radius=1.5, color_mode="depth")

    def setup(self, seed, root):
        root.mkdir(parents=True, exist_ok=True)
        shell = scenes.uniform_field(scenes.sphere_shell_positions(0.15, 600),
                                     MaterialClass.ELASTIC, e=3e4, nu=0.3,
                                     rho=600.0)
        solid = fill.fill_field(shell, fill.FillConfig(particle_spacing=0.02))
        solid = permuted(solid, np.random.default_rng(seed)
                         .permutation(solid.n_points))
        fieldio.write_field(solid, root / "sphere.mfield")
        points = fieldio.read_field(root / "sphere.mfield").positions
        traj = trajectory.Trajectory.from_frames(
            rigid_motion(points, self.N_FRAMES), 24.0,
            np.zeros(points.shape[0], dtype=np.int32))
        return {"traj": traj, "camera": raster.CameraSpec.look_at(**self.CAMERA)}

    def units(self, inputs):
        return [None]

    def run(self, inputs, out, unit=None):
        traj = inputs["traj"]
        trajectory.export_trajectory(traj, out)
        report = trajectory.verify_trajectory(out)
        back = trajectory.read_trajectory(out)
        for k in range(back.n_frames):
            frame = raster.rasterize_frame(back.positions[k].astype(np.float64),
                                           inputs["camera"])
            raster.write_pgm(frame.image, out / f"frame_{k:04d}.pgm")
        return {"verify_ok": report["ok"], "back": back}

    def digests(self, out):
        return [hashlib.sha256((out / f"frame_{k:04d}.pgm").read_bytes())
                .hexdigest() for k in range(self.N_FRAMES)]

    def frames(self, inputs, out, unit=None):
        return self.N_FRAMES

    def check(self, inputs, out, result, gate, ref):
        gate.check("render: verify_trajectory ok", result["verify_ok"])
        gate.check("render: read_trajectory round-trips bit-exactly",
                   np.array_equal(result["back"].positions,
                                  inputs["traj"].positions))
        if ref is not None:
            for k, digest in enumerate(self.digests(out)):
                gate.check(f"render: frame {k} PGM digest",
                           digest == ref["pgm_sha256"][k])

    def reference(self, inputs, out, result):
        return {"pgm_sha256": self.digests(out)}


def analyze_fixture(n_half):
    """Two-part labeled field and supervision targets, in canonical order.

    Part 0 is soft and nearly incompressible, part 1 stiff, far apart in
    log-moduli space so every triplet is strictly active and parameter
    residuals stay away from the Huber kink.
    """
    rng = np.random.default_rng(7)
    n = 2 * n_half
    positions = np.concatenate([rng.uniform(-0.1, 0.1, size=(n_half, 3)),
                                rng.uniform(-0.1, 0.1, size=(n_half, 3))
                                + (0.4, 0.0, 0.0)])
    part = np.repeat([0, 1], n_half).astype(np.int32)
    e = np.where(part == 0, 1e5, 1e9) * rng.uniform(0.98, 1.02, size=n)
    nu = np.where(part == 0, 0.45, 0.05) + rng.uniform(-0.005, 0.005, size=n)
    rho = np.where(part == 0, 900.0, 2600.0) * rng.uniform(0.99, 1.01, size=n)
    cls = np.where(part == 0, int(MaterialClass.ELASTIC),
                   int(MaterialClass.RIGID)).astype(np.int32)
    fld = MaterialField(positions=positions, class_id=cls, young_modulus=e,
                        poisson_ratio=nu, density=rho, part_label=part)
    params = fld.normalization.normalize(e, nu, rho)
    param_targets = params + rng.uniform(-0.1, 0.1, size=(n, 3))
    probs = np.full((n, 6), 0.02)
    probs[np.arange(n), cls] = 0.9
    d_s = d_p = 8
    d, d_t, d_a, k = d_s + d_p, 8, 4, 2
    features = np.concatenate([synthetic_segmentation_prior(part, d_s=d_s,
                                                            seed=3),
                               0.5 * rng.standard_normal((n, d_p))], axis=1)
    bundle = FeatureBundle(
        point_features=features,
        global_token=0.5 * rng.standard_normal((1, d_t)),
        part_tokens=0.5 * rng.standard_normal((k, d_t)),
        phi=0.4 * rng.standard_normal((d, d_a)),
        psi=0.4 * rng.standard_normal((d_t, d_a)),
        w_val=0.2 * rng.standard_normal((d_t, d)), tau=0.07).validate()
    triplets = sample_triplets(part, 64, seed=0)
    return fld, param_targets, probs, bundle, triplets


class Analyze:
    """``physedit analyze FIELD TARGETS --json`` on a labeled field."""

    N_HALF = 100  # points per part

    def setup(self, seed, root):
        root.mkdir(parents=True, exist_ok=True)
        fld, param_targets, probs, bundle, triplets = analyze_fixture(
            self.N_HALF)
        perm = np.random.default_rng(seed).permutation(fld.n_points)
        new_index = np.argsort(perm)  # canonical point -> permuted position
        fld = permuted(fld, perm)
        fieldio.write_field(fld, root / "field.mfield")
        bundle_doc = {
            "format": "feature-bundle", "version": 1, "tau": bundle.tau,
            "point_features": bundle.point_features[perm].tolist(),
            "global_token": bundle.global_token.tolist(),
            "part_tokens": bundle.part_tokens.tolist(),
            "phi": bundle.phi.tolist(), "psi": bundle.psi.tolist(),
            "w_val": bundle.w_val.tolist()}
        targets = {
            "format": "supervision-targets", "version": 1,
            "class_labels": fld.class_id.tolist(),
            "param_targets": param_targets[perm].tolist(),
            "part_labels": fld.part_label.tolist(),
            "prompt_of_part": {"0": 0, "1": 1}, "tau": 0.07,
            "pred_probs": probs[perm].tolist(), "bundle": bundle_doc,
            "triplets": new_index[triplets].tolist()}
        (root / "targets.json").write_text(json.dumps(targets))
        return {"field": root / "field.mfield",
                "targets": root / "targets.json"}

    def units(self, inputs):
        return [None]

    def run(self, inputs, out, unit=None):
        out.mkdir(parents=True, exist_ok=True)
        return run_cli(["analyze", inputs["field"], inputs["targets"],
                        "--json", out / "report.json"])

    def frames(self, inputs, out, unit=None):
        return 1  # one analysis report per run of the command

    def check(self, inputs, out, result, gate, ref):
        gate.check("analyze: exit code 0", result == 0)
        if result != 0:
            return
        report = json.loads((out / "report.json").read_text())
        for name, err in sorted(report["gradient_checks"].items()):
            gate.check(f"analyze: {name} gradient check {err:.2e} < "
                       f"{GRADCHECK_THRESHOLD:g}", err < GRADCHECK_THRESHOLD)
        if ref is not None:
            for key, want in sorted(ref["breakdown"].items()):
                got = report["breakdown"][key]
                gate.check(f"analyze: {key} loss matches reference",
                           abs(got - want) <= BREAKDOWN_TOLERANCE)

    def reference(self, inputs, out, result):
        report = json.loads((out / "report.json").read_text())
        return {"breakdown": report["breakdown"]}


WORKLOADS = {"scenes": Scenes, "zoo": Zoo, "rigid_pad": RigidPad,
             "render": Render, "analyze": Analyze}
