"""Command-line entry point: ``build_parser`` defines the subcommands
fill, simulate, analyze, verify and compare.

Flags override the scene file; no environment variable is read.  Every
failure prints one machine-readable JSON error record on stderr and
exits with the error's stable code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .conditioning import DEFAULT_TAU, bundle_from_dict, soft_assign
from .engine import build_state, simulate
from .errors import DomainError, IoError, PhysEditError
from .fieldio import (array_of, convert_keys, instance_of, make_dir,
                      read_field, read_file, read_json, whole, write_field,
                      write_file)
from .fill import FillConfig, fill_field
from .losses import (LossWeights, SupervisionTargets, _knn_graph,
                     finite_diff_check, sample_triplets, total_loss)
from .materials import validate_field
from .raster import rasterize_frame, write_pgm
from .scenes import BUNDLED_SCENES, build_scene, build_analyze_fixture, load_scene
from .schedule import compile_schedule
from .trajectory import (canonical_json, compare_trajectories,
                         export_trajectory, read_trajectory, sha256_hex,
                         verify_trajectory)

GRADCHECK_THRESHOLD = 1e-4
# LossWeights fields settable from analyze flags (--lambda-reg, ...)
WEIGHT_FLAGS = ("lambda_reg", "lambda_cls", "lambda_smooth", "lambda_con",
                "lambda_assign", "margin", "smooth_k")
REPORTED_WEIGHTS = ("lambda_reg", "lambda_cls", "lambda_smooth", "lambda_con",
                    "lambda_assign", "margin", "huber_delta", "smooth_k")


def cmd_fill(args) -> int:
    cfg = FillConfig(particle_spacing=args.spacing).validate()
    surface = read_field(args.input)
    filled = fill_field(surface, cfg)
    write_field(filled, args.output)
    n_interior = int(filled.interior_flag.sum()) - int(surface.interior_flag.sum())
    print(f"filled {args.input}: {surface.n_points} surface + "
          f"{n_interior} interior -> {args.output}")
    return 0


def _scene_hashes(scene_json_path, extras, cfg):
    root = Path(scene_json_path).parent
    doc = extras["doc"]
    field_hashes = {obj["field"]: sha256_hex(read_file(root / obj["field"],
                                                       "field"))
                    for obj in doc["objects"]}
    scene_hash = sha256_hex(canonical_json(
        {"doc": doc, "fields": field_hashes}).encode())
    sim = dataclasses.asdict(cfg)
    seed = sim.pop("seed")  # hashed at the top level
    config_hash = sha256_hex(canonical_json({
        "sim": sim, "gravity": extras["gravity"], "wind": extras["wind"],
        "schedule": extras["schedule_text"], "seed": seed,
    }).encode())
    return scene_hash, config_hash


def cmd_simulate(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise DomainError("--threads must be >= 1")
    out_dir = Path(args.out)
    if args.bundled:
        scene_path = build_scene(args.bundled, out_dir / "scene_src")
    else:
        scene_path = Path(args.scene)
        if scene_path.is_dir():
            scene_path = scene_path / "scene.json"
    objects, cfg, extras = load_scene(scene_path)
    for key in ("seed", "frames", "fps"):  # the flags override the scene
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    cfg.validate()

    state = build_state(objects, cfg, gravity=extras["gravity"],
                        wind=extras["wind"])
    schedule = compile_schedule(extras["schedule_text"], state)
    traj = simulate(state, schedule, cfg)
    traj.scene_hash, traj.config_hash = _scene_hashes(scene_path, extras, cfg)
    manifest = export_trajectory(traj, out_dir)

    camera = extras["camera"]
    if camera is not None and not args.no_images:
        img_dir = out_dir / "images"
        make_dir(img_dir)
        for k in range(traj.n_frames):
            frame = rasterize_frame(traj.positions[k].astype(np.float64),
                                    camera, object_id=traj.object_id)
            write_pgm(frame.image, img_dir / f"frame_{k:04d}.pgm")
    print(f"simulated {traj.n_frames} frames x {traj.n_particles} particles "
          f"-> {out_dir} (config {manifest['config_hash'][:12]})")
    return 0


def _prompt_map(value):
    return {int(k): whole(v) for k, v in instance_of(dict)(value).items()}


def _natural(value) -> int:
    """A whole number >= 0."""
    number = whole(value)
    if number < 0:
        raise ValueError(f"expected a whole number >= 0, got {number}")
    return number


# optional targets keys -> value when absent or null
_TARGET_DEFAULTS = {"tau": DEFAULT_TAU, "n_triplets": 64, "triplet_seed": 0}
_TARGET_OPTIONAL = ("tau", "pred_probs", "logits", "triplets", "n_triplets",
                    "triplet_seed", "bundle")
# targets key -> conversion, the four SupervisionTargets fields first
_TARGET_VALUES = {
    "class_labels": array_of(np.int64), "param_targets": array_of(np.float64),
    "part_labels": array_of(np.int64), "prompt_of_part": _prompt_map,
    "tau": float, "pred_probs": array_of(np.float64),
    "logits": array_of(np.float64), "triplets": array_of(np.int64),
    "n_triplets": _natural, "triplet_seed": _natural,
    "bundle": instance_of(dict),
}


def _load_targets(path):
    """The ``_TARGET_VALUES`` the targets document sets, converted, over
    ``_TARGET_DEFAULTS``; IoError naming the file and the key if a value
    cannot be converted."""
    doc = read_json(path, "targets")
    if doc.get("format") != "supervision-targets":
        raise IoError(f"{path}: not a supervision-targets document")
    return {**_TARGET_DEFAULTS,
            **convert_keys(doc, _TARGET_VALUES, path, _TARGET_OPTIONAL)}


def cmd_analyze(args) -> int:
    if args.fixture:
        field_path, targets_path = build_analyze_fixture(args.fixture)
    else:
        field_path, targets_path = args.field, args.targets
        if field_path is None or targets_path is None:
            raise DomainError("analyze needs FIELD and TARGETS "
                              "(or --fixture DIR to build the bundled fixture)")
    fld = read_field(field_path)
    report = validate_field(fld)
    if not report.ok:
        raise DomainError(f"field {field_path} invalid:\n{report}")
    doc = _load_targets(targets_path)

    targets = SupervisionTargets(**{key: doc[key] for key in _TARGET_VALUES
                                    if key not in _TARGET_OPTIONAL})
    weights = LossWeights(
        **{name: getattr(args, name) for name in WEIGHT_FLAGS}).validate()

    pred_params = fld.normalization.normalize(
        fld.young_modulus, fld.poisson_ratio, fld.density)
    pred_probs = doc.get("pred_probs")
    if pred_probs is None:  # the field's own classes, one-hot
        pred_probs = np.eye(6)[fld.class_id]

    assign_tau = doc["tau"]
    if doc.get("logits") is not None:
        # raw similarities from the file: the stated tau scales them
        logits = doc["logits"]
    elif doc.get("bundle") is not None:
        # soft-assign logits already carry the 1/tau scaling, and the
        # assignment loss must see exactly the distribution A was built
        # from, so no further scaling is applied here
        logits = soft_assign(bundle_from_dict(doc["bundle"])).logits
        assign_tau = 1.0
    else:
        raise DomainError("targets must supply either logits or a bundle")

    triplets = doc.get("triplets")
    if triplets is None:
        triplets = sample_triplets(targets.part_labels,
                                   doc["n_triplets"],
                                   seed=doc["triplet_seed"])

    # one kNN graph for the smoothness loss and its gradient check
    graph = _knn_graph(fld, weights.smooth_k)
    total, breakdown = total_loss(pred_probs, pred_params, fld, triplets,
                                  logits, targets, weights, tau=assign_tau,
                                  graph=graph)

    lines = ["loss breakdown"]
    for key in ("task", "smoothness", "contrastive", "assignment", "total"):
        lines.append(f"  {key:<12} {breakdown[key]:.12g}")
    lines.append("weights")
    for key in REPORTED_WEIGHTS:
        lines.append(f"  {key:<13} {getattr(weights, key):g}")

    grad_report = {}
    if not args.no_gradcheck:
        # one record for every check; each probe reads only its own keys
        inputs = {"pred_probs": pred_probs, "pred_params": pred_params,
                  "targets": targets, "weights": weights, "field": fld,
                  "triplets": triplets, "logits": logits, "tau": assign_tau,
                  "graph": graph}
        lines.append(f"gradient checks (threshold {GRADCHECK_THRESHOLD:g})")
        for name in ("task", "smoothness", "contrastive", "assignment"):
            err = finite_diff_check(name, inputs)
            grad_report[name] = err
            verdict = "pass" if err < GRADCHECK_THRESHOLD else "FAIL"
            lines.append(f"  {name:<12} {err:.3e} {verdict}")

    report_text = "\n".join(lines)
    print(report_text)
    if args.json:
        payload = {"breakdown": breakdown,
                   "weights": {k: getattr(weights, k) for k in REPORTED_WEIGHTS},
                   "tau": doc["tau"],
                   "assignment_tau": assign_tau,
                   "gradient_checks": grad_report}
        write_file(args.json, canonical_json(payload), "report")
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


def cmd_compare(args) -> int:
    report = compare_trajectories(read_trajectory(args.run_a),
                                  read_trajectory(args.run_b))
    print(json.dumps(report, sort_keys=True))
    return 0


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
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("simulate", help="run a scene and export a trajectory")
    p.add_argument("scene", nargs="?", help="scene.json (or directory holding it)")
    p.add_argument("out", help="output trajectory directory")
    p.add_argument("--bundled", choices=BUNDLED_SCENES,
                   help="materialize and run a bundled example scene")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scene's seed")
    p.add_argument("--threads", type=int, default=None,
                   help="validated (must be >= 1) but has no effect: the "
                        "kernels are single-threaded")
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
    for name in WEIGHT_FLAGS:
        default = getattr(LossWeights, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       default=default)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="re-hash a trajectory directory")
    p.add_argument("dir")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare",
                       help="largest per-frame centroid, AABB and particle "
                            "position deviation between two trajectory dirs")
    p.add_argument("run_a", metavar="RUN_A")
    p.add_argument("run_b", metavar="RUN_B")
    p.set_defaults(func=cmd_compare)
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
