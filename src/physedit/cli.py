"""Command-line entry point.

Subcommands:

  fill      surface field file -> solid field file
  simulate  scene file (or bundled scene) -> trajectory dir + images
  analyze   labeled field + targets -> loss breakdown and gradient checks
  verify    trajectory dir -> integrity report

Configuration layering is file < environment < flags; recognized
environment variables are PHYSEDIT_SEED and PHYSEDIT_THREADS.  Every
failure prints one machine-readable JSON error record on stderr and
exits with the error's stable code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .conditioning import DEFAULT_TAU, bundle_from_dict, soft_assign
from .engine import build_state, simulate
from .errors import DomainError, IoError, PhysEditError
from .fieldio import read_field, read_json, write_field
from .fill import FillConfig, fill_field
from .losses import (LossWeights, SupervisionTargets, finite_diff_check,
                     sample_triplets, total_loss)
from .raster import rasterize_frame, write_pgm
from .scenes import BUNDLED_SCENES, build_scene, build_analyze_fixture, load_scene
from .schedule import compile_schedule
from .trajectory import canonical_json, export_trajectory, verify_trajectory

GRADCHECK_THRESHOLD = 1e-4
REPORTED_WEIGHTS = ("lambda_reg", "lambda_cls", "lambda_smooth", "lambda_con",
                    "lambda_assign", "margin", "huber_delta", "smooth_k")


def _env_int(name):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"environment variable {name} must be an integer, "
                          f"got {raw!r}") from None


def _resolve_seed(file_seed, flag_seed):
    env_seed = _env_int("PHYSEDIT_SEED")
    for value in (flag_seed, env_seed, file_seed):
        if value is not None:
            return int(value)
    return 0


def _resolve_threads(flag_threads):
    value = flag_threads if flag_threads is not None else _env_int("PHYSEDIT_THREADS")
    if value is None:
        return 1
    if value < 1:
        raise DomainError("--threads must be >= 1")
    return value


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cmd_fill(args) -> int:
    cfg = FillConfig(particle_spacing=args.spacing,
                     inside_test=args.inside_test,
                     voxel_resolution=args.resolution,
                     knn_k=args.knn).validate()
    surface = read_field(args.input)
    filled = fill_field(surface, cfg)
    write_field(filled, args.output)
    n_interior = int(filled.interior_flag.sum()) - int(surface.interior_flag.sum())
    print(f"filled {args.input}: {surface.n_points} surface + "
          f"{n_interior} interior -> {args.output}")
    return 0


def _scene_hashes(scene_json_path, extras, cfg, seed):
    root = Path(scene_json_path).parent
    doc = extras["doc"]
    field_hashes = {obj["field"]: _sha256_bytes((root / obj["field"]).read_bytes())
                    for obj in doc["objects"]}
    scene_hash = _sha256_bytes(canonical_json(
        {"doc": doc, "fields": field_hashes}).encode())
    config_hash = _sha256_bytes(canonical_json({
        "sim": {"h_grid": cfg.h_grid, "cfl_number": cfg.cfl_number,
                "frames": cfg.frames, "fps": cfg.fps,
                "domain_lo": cfg.domain_lo, "domain_hi": cfg.domain_hi,
                "ground_height": cfg.ground_height,
                "ground_bc": cfg.ground_bc, "wall_bc": cfg.wall_bc,
                "damping": cfg.damping},
        "gravity": extras["gravity"], "wind": extras["wind"],
        "schedule": extras["schedule_text"], "seed": seed,
    }).encode())
    return scene_hash, config_hash


def cmd_simulate(args) -> int:
    _resolve_threads(args.threads)  # validated only; kernels are single-threaded
    out_dir = Path(args.out)
    if args.bundled:
        scene_path = build_scene(args.bundled, out_dir / "scene_src")
    else:
        scene_path = Path(args.scene)
        if scene_path.is_dir():
            scene_path = scene_path / "scene.json"
    objects, cfg, extras = load_scene(scene_path)
    cfg.seed = _resolve_seed(cfg.seed, args.seed)
    if args.frames is not None:
        cfg.frames = args.frames
    if args.fps is not None:
        cfg.fps = args.fps
    cfg.validate()
    np.random.seed(cfg.seed % (2 ** 32))

    state = build_state(objects, cfg, gravity=extras["gravity"],
                        wind=extras["wind"])
    schedule = compile_schedule(extras["schedule_text"], state)
    traj = simulate(state, schedule, cfg)
    traj.scene_hash, traj.config_hash = _scene_hashes(scene_path, extras,
                                                      cfg, cfg.seed)
    manifest = export_trajectory(traj, out_dir)

    camera = extras["camera"]
    if camera is not None and not args.no_images:
        img_dir = out_dir / "images"
        img_dir.mkdir(parents=True, exist_ok=True)
        for k in range(traj.n_frames):
            frame = rasterize_frame(traj.positions[k].astype(np.float64),
                                    camera, object_id=traj.object_id)
            write_pgm(frame.image, img_dir / f"frame_{k:04d}.pgm")
    print(f"simulated {traj.n_frames} frames x {traj.n_particles} particles "
          f"-> {out_dir} (config {manifest['config_hash'][:12]})")
    return 0


def _load_targets(path):
    doc = read_json(path, "targets")
    if doc.get("format") != "supervision-targets":
        raise IoError(f"{path}: not a supervision-targets document")
    for key in ("class_labels", "param_targets", "part_labels",
                "prompt_of_part"):
        if key not in doc:
            raise IoError(f"{path}: missing required key {key!r}")
    return doc


def cmd_analyze(args) -> int:
    if args.fixture:
        field_path, targets_path = build_analyze_fixture(args.fixture)
    else:
        field_path, targets_path = args.field, args.targets
        if field_path is None or targets_path is None:
            raise DomainError("analyze needs FIELD and TARGETS "
                              "(or --fixture DIR to build the bundled fixture)")
    fld = read_field(field_path)
    doc = _load_targets(targets_path)

    targets = SupervisionTargets(
        class_labels=doc["class_labels"],
        param_targets=doc["param_targets"],
        part_labels=doc["part_labels"],
        prompt_of_part={int(k): int(v)
                        for k, v in doc["prompt_of_part"].items()})
    tau = float(doc.get("tau", DEFAULT_TAU))
    weights = LossWeights(
        lambda_reg=args.lambda_reg, lambda_cls=args.lambda_cls,
        lambda_smooth=args.lambda_smooth, lambda_con=args.lambda_con,
        lambda_assign=args.lambda_assign, margin=args.margin,
        smooth_k=args.smooth_k).validate()

    pred_params = fld.normalization.normalize(
        fld.young_modulus, fld.poisson_ratio, fld.density)
    if "pred_probs" in doc:
        pred_probs = np.asarray(doc["pred_probs"], dtype=np.float64)
    else:
        pred_probs = np.zeros((fld.n_points, 6))
        pred_probs[np.arange(fld.n_points), fld.class_id] = 1.0

    assign_tau = tau
    if doc.get("logits") is not None:
        # raw similarities from the file: the stated tau scales them
        logits = np.asarray(doc["logits"], dtype=np.float64)
    elif doc.get("bundle") is not None:
        # soft-assign logits already carry the 1/tau scaling, and the
        # assignment loss must see exactly the distribution A was built
        # from, so no further scaling is applied here
        bundle_doc = doc["bundle"]
        if isinstance(bundle_doc, str):
            bundle_doc = read_json(Path(targets_path).parent / bundle_doc,
                                   "bundle")
        logits = soft_assign(bundle_from_dict(bundle_doc)).logits
        assign_tau = 1.0
    else:
        raise DomainError("targets must supply either logits or a bundle")

    if doc.get("triplets") is not None:
        triplets = np.asarray(doc["triplets"], dtype=np.int64)
    else:
        triplets = sample_triplets(targets.part_labels,
                                   int(doc.get("n_triplets", 64)),
                                   seed=int(doc.get("triplet_seed", 0)))

    total, breakdown = total_loss(pred_probs, pred_params, fld, triplets,
                                  logits, targets, weights, tau=assign_tau)

    lines = ["loss breakdown"]
    for key in ("task", "smoothness", "contrastive", "assignment", "total"):
        lines.append(f"  {key:<12} {breakdown[key]:.12g}")
    lines.append("weights")
    for key in REPORTED_WEIGHTS:
        lines.append(f"  {key:<13} {getattr(weights, key):g}")

    grad_report = {}
    if not args.no_gradcheck:
        probes = {
            "task": {"pred_probs": pred_probs, "pred_params": pred_params,
                     "targets": targets, "weights": weights},
            "smoothness": {"field": fld, "weights": weights},
            "contrastive": {"field": fld, "triplets": triplets,
                            "weights": weights},
            "assignment": {"logits": logits, "targets": targets,
                           "tau": assign_tau},
        }
        lines.append(f"gradient checks (threshold {GRADCHECK_THRESHOLD:g})")
        for name, inputs in probes.items():
            err = finite_diff_check(name, inputs)
            grad_report[name] = err
            verdict = "pass" if err < GRADCHECK_THRESHOLD else "FAIL"
            lines.append(f"  {name:<12} {err:.3e} {verdict}")

    report_text = "\n".join(lines)
    print(report_text)
    if args.json:
        payload = {"breakdown": breakdown,
                   "weights": {k: getattr(weights, k) for k in REPORTED_WEIGHTS},
                   "tau": tau,
                   "assignment_tau": assign_tau,
                   "gradient_checks": grad_report}
        Path(args.json).write_text(canonical_json(payload))
    if grad_report and max(grad_report.values()) >= GRADCHECK_THRESHOLD:
        return 1
    return 0


def cmd_verify(args) -> int:
    report = verify_trajectory(args.dir)
    status = "ok" if report["ok"] else "CORRUPT"
    print(f"{args.dir}: {status} "
          f"({len(report['files'])} frame files checked)")
    for err in report["errors"]:
        print(f"  {err}")
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="physedit",
        description="Physics-editable material-point simulation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fill", help="fill a surface field with interior particles")
    p.add_argument("input", help="surface material field file")
    p.add_argument("output", help="output (filled) material field file")
    p.add_argument("--spacing", type=float, required=True,
                   help="interior particle spacing in meters")
    p.add_argument("--inside-test", choices=("voxel_flood", "winding_number"),
                   default="voxel_flood")
    p.add_argument("--resolution", type=int, default=None,
                   help="voxel resolution per axis for the inside test "
                        "(default: derived from the shell sampling density)")
    p.add_argument("--knn", type=int, default=1,
                   help="neighbors for property inheritance")
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("simulate", help="run a scene and export a trajectory")
    p.add_argument("scene", nargs="?", help="scene.json (or directory holding it)")
    p.add_argument("out", help="output trajectory directory")
    p.add_argument("--bundled", choices=BUNDLED_SCENES,
                   help="materialize and run a bundled example scene")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides scene seed (env: PHYSEDIT_SEED)")
    p.add_argument("--threads", type=int, default=None,
                   help="validated (must be >= 1) but has no effect: the "
                        "kernels are single-threaded (env: PHYSEDIT_THREADS)")
    p.add_argument("--no-images", action="store_true",
                   help="skip conditioning-frame rasterization")
    p.add_argument("--frames", type=int, default=None,
                   help="override the scene's frame count")
    p.add_argument("--fps", type=float, default=None,
                   help="override the scene's frame rate")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze",
                       help="loss breakdown + gradient checks for a labeled field")
    p.add_argument("field", nargs="?", help="material field file")
    p.add_argument("targets", nargs="?", help="supervision-targets JSON")
    p.add_argument("--fixture", metavar="DIR",
                   help="build the bundled labeled fixture into DIR and analyze it")
    p.add_argument("--json", help="also write the report as JSON")
    p.add_argument("--no-gradcheck", action="store_true")
    p.add_argument("--lambda-reg", type=float, default=1.0)
    p.add_argument("--lambda-cls", type=float, default=0.3)
    p.add_argument("--lambda-smooth", type=float, default=0.02)
    p.add_argument("--lambda-con", type=float, default=5e-4)
    p.add_argument("--lambda-assign", type=float, default=0.1)
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--smooth-k", type=int, default=8)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="re-hash a trajectory directory")
    p.add_argument("dir")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate" and not args.bundled and args.scene is None:
            raise DomainError("simulate needs a scene path or --bundled NAME")
        return args.func(args)
    except PhysEditError as exc:
        record = {"error": type(exc).__name__, "code": exc.code,
                  "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
