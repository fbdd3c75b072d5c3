"""Bundled example scenes and fixtures.

Four small scenes double as integration fixtures:

  drop_cube          elastic cube falling onto sticky ground
  liquefy_on_contact plasticine ball that turns liquid when it lands
  hollow_deflate     resting ball whose interior density is eliminated
  zero_g_bounce      bouncing ball; gravity flips upward on first contact

``build_scene(name, out_dir)`` materializes field files, a schedule, and
scene.json into a directory; everything is deterministic so repeated
builds are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .conditioning import (FeatureBundle, bundle_to_dict,
                           synthetic_segmentation_prior)
from .engine import ObjectInit, SimConfig
from .errors import DomainError, IoError
from .fieldio import read_field, read_json, write_field
from .fill import FillConfig, fill_field
from .materials import MaterialClass, MaterialField
from .raster import CameraSpec


def cube_shell_positions(size: float, n_per_edge: int) -> np.ndarray:
    """Lattice points on the boundary shell of [0, size]^3."""
    axis = np.linspace(0.0, size, n_per_edge)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    idx = np.stack(np.meshgrid(*[np.arange(n_per_edge)] * 3, indexing="ij"),
                   axis=-1).reshape(-1, 3)
    on_shell = np.any((idx == 0) | (idx == n_per_edge - 1), axis=1)
    return pts[on_shell]


def sphere_shell_positions(radius: float, n: int,
                           center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Deterministic Fibonacci-spiral sampling of a sphere."""
    i = np.arange(n, dtype=np.float64)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    z = 1.0 - 2.0 * (i + 0.5) / n
    r_xy = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * np.pi * i / golden
    pts = np.stack([r_xy * np.cos(phi), z, r_xy * np.sin(phi)], axis=1)
    return radius * pts + np.asarray(center, dtype=np.float64)


def uniform_field(positions, material: MaterialClass, e, nu, rho,
                  part=0) -> MaterialField:
    n = positions.shape[0]
    return MaterialField(
        positions=positions,
        class_id=np.full(n, int(material), dtype=np.int32),
        young_modulus=np.full(n, float(e)),
        poisson_ratio=np.full(n, float(nu)),
        density=np.full(n, float(rho)),
        part_label=np.full(n, int(part), dtype=np.int32),
    )


def _scene_drop_cube():
    shell = cube_shell_positions(0.24, 9)
    surface = uniform_field(shell, MaterialClass.ELASTIC, 2e4, 0.3, 400.0)
    filled = fill_field(surface, FillConfig(particle_spacing=0.03))
    return {
        "fields": {"cube.mfield": filled},
        "schedule": "# no interventions: a plain drop\n",
        "scene": {
            "objects": [{"id": 0, "field": "cube.mfield", "h_fill": 0.03,
                         "translate": [-0.12, 0.3, -0.12],
                         "velocity": [0.0, 0.0, 0.0]}],
            "gravity": [0.0, -9.8, 0.0],
            "sim": {"h_grid": 0.03, "frames": 16, "fps": 24.0,
                    "domain_lo": [-0.48, -0.09, -0.48],
                    "domain_hi": [0.48, 0.87, 0.48],
                    "ground_height": 0.0, "ground_bc": "sticky",
                    "wall_bc": "separate", "seed": 42},
            "camera": {"eye": [0.55, 0.45, 1.0], "target": [0.0, 0.2, 0.0],
                       "fx": 110.0, "fy": 110.0, "cx": 48.0, "cy": 48.0,
                       "width": 96, "height": 96, "splat_radius": 1.0,
                       "color_mode": "depth"},
        },
    }


def _scene_liquefy_on_contact():
    shell = sphere_shell_positions(0.09, 480)
    surface = uniform_field(shell, MaterialClass.PLASTICINE, 3e4, 0.35, 600.0)
    filled = fill_field(surface, FillConfig(particle_spacing=0.025))
    return {
        "fields": {"ball.mfield": filled},
        "schedule": "on ground_contact set object 0 material_model liquid once\n",
        "scene": {
            "objects": [{"id": 0, "field": "ball.mfield", "h_fill": 0.025,
                         "translate": [0.0, 0.34, 0.0],
                         "velocity": [0.0, 0.0, 0.0]}],
            "gravity": [0.0, -9.8, 0.0],
            "sim": {"h_grid": 0.025, "frames": 16, "fps": 24.0,
                    "domain_lo": [-0.45, -0.075, -0.45],
                    "domain_hi": [0.45, 0.75, 0.45],
                    "ground_height": 0.0, "ground_bc": "sticky",
                    "wall_bc": "separate", "seed": 42},
            "camera": {"eye": [0.5, 0.4, 0.95], "target": [0.0, 0.15, 0.0],
                       "fx": 110.0, "fy": 110.0, "cx": 48.0, "cy": 48.0,
                       "width": 96, "height": 96, "splat_radius": 1.0,
                       "color_mode": "depth"},
        },
    }


def _scene_hollow_deflate():
    shell = sphere_shell_positions(0.1, 560)
    surface = uniform_field(shell, MaterialClass.ELASTIC, 1.5e4, 0.3, 800.0)
    filled = fill_field(surface, FillConfig(particle_spacing=0.025))
    return {
        "fields": {"ball.mfield": filled},
        "schedule": (
            "at t=0.15 set object 0 interior density 0 ramp 0.3\n"
            "at t=0.15 set object 0 interior young_modulus 300 ramp 0.3\n"
        ),
        "scene": {
            "objects": [{"id": 0, "field": "ball.mfield", "h_fill": 0.025,
                         "translate": [0.0, 0.112, 0.0],
                         "velocity": [0.0, 0.0, 0.0]}],
            "gravity": [0.0, -9.8, 0.0],
            "sim": {"h_grid": 0.025, "frames": 20, "fps": 24.0,
                    "domain_lo": [-0.4, -0.075, -0.4],
                    "domain_hi": [0.4, 0.55, 0.4],
                    "ground_height": 0.0, "ground_bc": "sticky",
                    "wall_bc": "separate", "seed": 42},
            "camera": {"eye": [0.45, 0.35, 0.85], "target": [0.0, 0.1, 0.0],
                       "fx": 110.0, "fy": 110.0, "cx": 48.0, "cy": 48.0,
                       "width": 96, "height": 96, "splat_radius": 1.0,
                       "color_mode": "depth"},
        },
    }


def _scene_zero_g_bounce():
    shell = sphere_shell_positions(0.07, 400)
    surface = uniform_field(shell, MaterialClass.ELASTIC, 4e4, 0.3, 300.0)
    filled = fill_field(surface, FillConfig(particle_spacing=0.022))
    return {
        "fields": {"ball.mfield": filled},
        "schedule": ("on ground_contact object 0 "
                     "set scene gravity (0,2.5,0) ramp 0.2 once\n"),
        "scene": {
            "objects": [{"id": 0, "field": "ball.mfield", "h_fill": 0.022,
                         "translate": [0.0, 0.3, 0.0],
                         "velocity": [0.0, 0.0, 0.0]}],
            "gravity": [0.0, -9.8, 0.0],
            "sim": {"h_grid": 0.025, "frames": 18, "fps": 24.0,
                    "domain_lo": [-0.4, -0.075, -0.4],
                    "domain_hi": [0.4, 0.85, 0.4],
                    "ground_height": 0.0, "ground_bc": "separate",
                    "wall_bc": "separate", "seed": 42},
            "camera": {"eye": [0.5, 0.4, 0.9], "target": [0.0, 0.25, 0.0],
                       "fx": 110.0, "fy": 110.0, "cx": 48.0, "cy": 48.0,
                       "width": 96, "height": 96, "splat_radius": 1.0,
                       "color_mode": "depth"},
        },
    }


SCENE_BUILDERS = {
    "drop_cube": _scene_drop_cube,
    "liquefy_on_contact": _scene_liquefy_on_contact,
    "hollow_deflate": _scene_hollow_deflate,
    "zero_g_bounce": _scene_zero_g_bounce,
}

BUNDLED_SCENES = tuple(sorted(SCENE_BUILDERS))


def build_scene(name: str, out_dir) -> Path:
    """Write the named bundled scene into out_dir; returns scene.json path."""
    if name not in SCENE_BUILDERS:
        raise DomainError(f"unknown bundled scene {name!r}; "
                          f"have {list(BUNDLED_SCENES)}")
    spec = SCENE_BUILDERS[name]()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for fname, fld in spec["fields"].items():
        write_field(fld, out / fname)
    (out / "schedule.txt").write_text(spec["schedule"])
    doc = dict(spec["scene"])
    doc["format"] = "scene"
    doc["version"] = 1
    doc["schedule"] = "schedule.txt"
    path = out / "scene.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def load_scene(scene_path):
    """Load a scene.json; returns (objects, cfg, extras dict)."""
    scene_path = Path(scene_path)
    doc = read_json(scene_path, "scene")
    if doc.get("format") != "scene":
        raise IoError(f"{scene_path}: not a scene document")
    root = scene_path.parent

    objects = []
    for obj in doc["objects"]:
        fld = read_field(root / obj["field"])
        rotate = obj.get("rotate")
        objects.append(ObjectInit(
            field=fld, h_fill=float(obj["h_fill"]),
            velocity=tuple(obj.get("velocity", (0.0, 0.0, 0.0))),
            translate=tuple(obj.get("translate", (0.0, 0.0, 0.0))),
            rotate=None if rotate is None else np.asarray(rotate)))

    sim = dict(doc.get("sim", {}))
    lo = sim.pop("domain_lo", None)
    hi = sim.pop("domain_hi", None)
    cfg = SimConfig(
        h_grid=float(sim["h_grid"]),
        cfl_number=float(sim.get("cfl_number", 0.3)),
        frames=int(sim.get("frames", 24)),
        fps=float(sim.get("fps", 24.0)),
        domain_lo=None if lo is None else tuple(lo),
        domain_hi=None if hi is None else tuple(hi),
        ground_height=float(sim.get("ground_height", 0.0)),
        ground_bc=sim.get("ground_bc", "sticky"),
        wall_bc=sim.get("wall_bc", "separate"),
        damping=float(sim.get("damping", 0.0)),
        seed=int(sim.get("seed", 0)),
    ).validate()

    schedule_text = ""
    if doc.get("schedule"):
        sched_path = root / doc["schedule"]
        try:
            schedule_text = sched_path.read_text()
        except OSError as exc:
            raise IoError(f"cannot read schedule {sched_path}: {exc}") from exc

    camera = None
    cam = doc.get("camera")
    if cam:
        kwargs = {k: cam[k] for k in
                  ("fx", "fy", "cx", "cy", "width", "height")}
        kwargs["splat_radius"] = cam.get("splat_radius", 1.0)
        kwargs["color_mode"] = cam.get("color_mode", "depth")
        if cam.get("depth_range"):
            kwargs["depth_range"] = tuple(cam["depth_range"])
        if "eye" in cam:
            camera = CameraSpec.look_at(cam["eye"], cam["target"], **kwargs)
        else:
            camera = CameraSpec(rotation=np.asarray(cam["rotation"]),
                                translation=np.asarray(cam["translation"]),
                                **kwargs)
        camera.validate()

    extras = {
        "doc": doc,
        "gravity": tuple(doc.get("gravity", (0.0, -9.8, 0.0))),
        "wind": tuple(doc.get("wind", (0.0, 0.0, 0.0))),
        "schedule_text": schedule_text,
        "camera": camera,
    }
    return objects, cfg, extras


# ---------------------------------------------------------------------------
# labeled fixture for the analyze subcommand

def build_analyze_fixture(out_dir):
    """Two-part labeled field plus a targets file; returns (field, targets) paths.

    Part 0 is soft and nearly incompressible, part 1 is stiff; the two are
    far apart in log-moduli space so every sampled triplet is strictly
    active yet away from the hinge boundary.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(7)
    n_half = 24
    pos0 = rng.uniform(-0.05, 0.05, size=(n_half, 3)) + (0.0, 0.0, 0.0)
    pos1 = rng.uniform(-0.05, 0.05, size=(n_half, 3)) + (0.3, 0.0, 0.0)
    positions = np.concatenate([pos0, pos1])
    n = 2 * n_half
    part = np.repeat([0, 1], n_half).astype(np.int32)
    e = np.where(part == 0, 1e5, 1e9) * rng.uniform(0.98, 1.02, size=n)
    nu = np.where(part == 0, 0.45, 0.05) + rng.uniform(-0.005, 0.005, size=n)
    rho = np.where(part == 0, 900.0, 2600.0) * rng.uniform(0.99, 1.01, size=n)
    cls = np.where(part == 0, int(MaterialClass.ELASTIC),
                   int(MaterialClass.RIGID)).astype(np.int32)
    fld = MaterialField(positions=positions, class_id=cls, young_modulus=e,
                        poisson_ratio=nu, density=rho, part_label=part)
    field_path = out / "labeled_field.mfield"
    write_field(fld, field_path)

    # ground truth: true classes, slightly offset normalized parameters
    pred_params = fld.normalization.normalize(e, nu, rho)
    param_targets = pred_params + rng.uniform(-0.1, 0.1, size=(n, 3))
    probs = np.full((n, 6), 0.02)
    probs[np.arange(n), cls] = 0.9

    # point features: segmentation-prior stand-in concatenated with
    # positional features, as the conditioning stack expects
    d_s = d_p = 8
    d, d_t, d_a, k = d_s + d_p, 8, 4, 2
    f_s = synthetic_segmentation_prior(part, d_s=d_s, seed=3)
    f_p = 0.5 * rng.standard_normal((n, d_p))
    bundle = FeatureBundle(
        point_features=np.concatenate([f_s, f_p], axis=1),
        global_token=0.5 * rng.standard_normal((1, d_t)),
        part_tokens=0.5 * rng.standard_normal((k, d_t)),
        phi=0.4 * rng.standard_normal((d, d_a)),
        psi=0.4 * rng.standard_normal((d_t, d_a)),
        w_val=0.2 * rng.standard_normal((d_t, d)),
        tau=0.07,
    ).validate()

    targets = {
        "format": "supervision-targets",
        "version": 1,
        "class_labels": cls.tolist(),
        "param_targets": param_targets.tolist(),
        "part_labels": part.tolist(),
        "prompt_of_part": {"0": 0, "1": 1},
        "tau": 0.07,
        "pred_probs": probs.tolist(),
        "bundle": bundle_to_dict(bundle),
        "n_triplets": 64,
        "triplet_seed": 0,
    }
    targets_path = out / "targets.json"
    targets_path.write_text(json.dumps(targets, indent=1) + "\n")
    return field_path, targets_path
