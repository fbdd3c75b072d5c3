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
from .fieldio import (array_of, convert_key, convert_keys, instance_of,
                      make_dir, read_field, read_file, read_json, whole,
                      write_field, write_file)
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


_CAMERA = {"fx": 110.0, "fy": 110.0, "cx": 48.0, "cy": 48.0,
           "width": 96, "height": 96, "splat_radius": 1.0,
           "color_mode": "depth"}


def _one_object_scene(name, surface, spacing, schedule, translate, h_grid,
                      frames, domain, eye, target, ground_bc="sticky"):
    """One filled object at rest under gravity, seen by the ``_CAMERA`` rig.

    ``domain`` is ``(domain_lo, domain_hi)``; the frame rate, ground,
    walls and seed are the same for every bundled scene.
    """
    return {
        "fields": {name: fill_field(surface,
                                    FillConfig(particle_spacing=spacing))},
        "schedule": schedule,
        "scene": {
            "objects": [{"id": 0, "field": name, "h_fill": spacing,
                         "translate": translate,
                         "velocity": [0.0, 0.0, 0.0]}],
            "gravity": [0.0, -9.8, 0.0],
            "sim": {"h_grid": h_grid, "frames": frames, "fps": 24.0,
                    "domain_lo": domain[0], "domain_hi": domain[1],
                    "ground_height": 0.0, "ground_bc": ground_bc,
                    "wall_bc": "separate", "seed": 42},
            "camera": {"eye": eye, "target": target, **_CAMERA},
        },
    }


SCENE_BUILDERS = {
    "drop_cube": lambda: _one_object_scene(
        "cube.mfield",
        uniform_field(cube_shell_positions(0.24, 9), MaterialClass.ELASTIC,
                      2e4, 0.3, 400.0),
        0.03, "# no interventions: a plain drop\n",
        translate=[-0.12, 0.3, -0.12], h_grid=0.03, frames=16,
        domain=([-0.48, -0.09, -0.48], [0.48, 0.87, 0.48]),
        eye=[0.55, 0.45, 1.0], target=[0.0, 0.2, 0.0]),
    "liquefy_on_contact": lambda: _one_object_scene(
        "ball.mfield",
        uniform_field(sphere_shell_positions(0.09, 480),
                      MaterialClass.PLASTICINE, 3e4, 0.35, 600.0),
        0.025, "on ground_contact set object 0 material_model liquid once\n",
        translate=[0.0, 0.34, 0.0], h_grid=0.025, frames=16,
        domain=([-0.45, -0.075, -0.45], [0.45, 0.75, 0.45]),
        eye=[0.5, 0.4, 0.95], target=[0.0, 0.15, 0.0]),
    "hollow_deflate": lambda: _one_object_scene(
        "ball.mfield",
        uniform_field(sphere_shell_positions(0.1, 560), MaterialClass.ELASTIC,
                      1.5e4, 0.3, 800.0),
        0.025, ("at t=0.15 set object 0 interior density 0 ramp 0.3\n"
                "at t=0.15 set object 0 interior young_modulus 300 ramp 0.3\n"),
        translate=[0.0, 0.112, 0.0], h_grid=0.025, frames=20,
        domain=([-0.4, -0.075, -0.4], [0.4, 0.55, 0.4]),
        eye=[0.45, 0.35, 0.85], target=[0.0, 0.1, 0.0]),
    "zero_g_bounce": lambda: _one_object_scene(
        "ball.mfield",
        uniform_field(sphere_shell_positions(0.07, 400), MaterialClass.ELASTIC,
                      4e4, 0.3, 300.0),
        0.022, ("on ground_contact object 0 "
                "set scene gravity (0,2.5,0) ramp 0.2 once\n"),
        translate=[0.0, 0.3, 0.0], h_grid=0.025, frames=18,
        domain=([-0.4, -0.075, -0.4], [0.4, 0.85, 0.4]),
        eye=[0.5, 0.4, 0.9], target=[0.0, 0.25, 0.0],
        ground_bc="separate"),
}

BUNDLED_SCENES = tuple(sorted(SCENE_BUILDERS))


def build_scene(name: str, out_dir) -> Path:
    """Write the named bundled scene into out_dir; returns scene.json path."""
    if name not in SCENE_BUILDERS:
        raise DomainError(f"unknown bundled scene {name!r}; "
                          f"have {list(BUNDLED_SCENES)}")
    spec = SCENE_BUILDERS[name]()
    out = Path(out_dir)
    make_dir(out)
    for fname, fld in spec["fields"].items():
        write_field(fld, out / fname)
    write_file(out / "schedule.txt", spec["schedule"], "schedule")
    doc = {**spec["scene"], "format": "scene", "version": 1,
           "schedule": "schedule.txt"}
    path = out / "scene.json"
    write_file(path, json.dumps(doc, indent=1, sort_keys=True) + "\n", "scene")
    return path


_VECTOR = array_of(np.float64, (3,))


def _raw_vector(value):
    """3 numbers, as written (config_hash hashes them), as a tuple."""
    _VECTOR(value)
    return tuple(value)


# object key -> conversion; all but field and h_fill are optional
_OBJECT_VALUES = {"field": instance_of(str), "h_fill": float,
                  "velocity": _VECTOR, "translate": _VECTOR,
                  "rotate": array_of(np.float64, (3, 3))}
# sim key -> conversion, one per SimConfig field; all but h_grid are
# optional, and SimConfig.validate checks the boundary mode names
_SIM_VALUES = {"h_grid": float, "cfl_number": float, "frames": whole,
               "fps": float, "domain_lo": _raw_vector,
               "domain_hi": _raw_vector, "ground_height": float,
               "ground_bc": instance_of(str),
               "wall_bc": instance_of(str), "damping": float,
               "seed": whole}
# camera key -> conversion, then the keys of either pose
_CAMERA_VALUES = {"fx": float, "fy": float, "cx": float, "cy": float,
                  "width": whole, "height": whole, "splat_radius": float,
                  "color_mode": instance_of(str),
                  "depth_range": array_of(np.float64, (2,))}
_LOOK_AT = {"eye": _VECTOR, "target": _VECTOR}
_POSE = {"rotation": array_of(np.float64, (3, 3)), "translation": _VECTOR}
# optional scene-level vectors; extras holds their defaults
_SCENE_VECTORS = {"gravity": _raw_vector, "wind": _raw_vector}


def load_scene(scene_path):
    """Load a scene.json; returns (objects, cfg, extras dict)."""
    scene_path = Path(scene_path)
    doc = read_json(scene_path, "scene")
    if doc.get("format") != "scene":
        raise IoError(f"{scene_path}: not a scene document")
    root = scene_path.parent

    objects = []
    for k, obj in enumerate(convert_key(doc, "objects", instance_of(list),
                                        scene_path)):
        init = convert_keys(obj, _OBJECT_VALUES, f"{scene_path} objects[{k}]",
                            ("velocity", "translate", "rotate"))
        init["field"] = read_field(root / init["field"])
        objects.append(ObjectInit(**init))

    what = f"{scene_path} sim"
    sim = convert_keys(doc.get("sim", {}), _SIM_VALUES, what,
                       _SIM_VALUES.keys() - {"h_grid"})
    for key in doc["sim"]:
        if key not in _SIM_VALUES:
            raise IoError(f"{what}: unknown key {key!r}")
    cfg = SimConfig(**sim).validate()

    schedule_text = ""
    if doc.get("schedule"):
        schedule = convert_key(doc, "schedule", instance_of(str), scene_path)
        # bytes that are not UTF-8 become U+FFFD, an error outside a comment
        schedule_text = read_file(root / schedule, "schedule").decode(
            errors="replace")

    camera = None
    if doc.get("camera"):
        cam = convert_key(doc, "camera", instance_of(dict), scene_path)
        kwargs = convert_keys(
            cam, {**_CAMERA_VALUES, **(_LOOK_AT if "eye" in cam else _POSE)},
            f"{scene_path} camera", ("splat_radius", "color_mode",
                                     "depth_range"))
        camera = (CameraSpec.look_at(kwargs.pop("eye"), kwargs.pop("target"),
                                     **kwargs)
                  if "eye" in kwargs else CameraSpec(**kwargs)).validate()

    extras = {
        "doc": doc,
        "gravity": (0.0, -9.8, 0.0),
        "wind": (0.0, 0.0, 0.0),
        **convert_keys(doc, _SCENE_VECTORS, scene_path, _SCENE_VECTORS),
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
    make_dir(out)
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
    write_file(targets_path, json.dumps(targets, indent=1) + "\n", "targets")
    return field_path, targets_path
