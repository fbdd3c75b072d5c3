"""Trajectory container, on-disk layout, and integrity verification.

A trajectory directory holds:

  frames/frame_NNNN.trjf   one binary file per frame
  edits.json               the intervention edit log
  manifest.json            frame list, hashes, shapes, provenance hashes

Frame file layout (little-endian):

  magic    4 bytes  b"TRJF"
  version  uint32   currently 1
  frame    uint32   frame index
  n        uint64   point count
  data     float32  n * 3 positions

Positions are stored as float32; re-reading a directory reproduces them
bit-exactly.  The manifest is canonical JSON (sorted keys), so identical
runs produce byte-identical manifests.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IoError, ShapeError
from .fieldio import read_json

FRAME_MAGIC = b"TRJF"
FRAME_VERSION = 1
MANIFEST_NAME = "manifest.json"
EDITS_NAME = "edits.json"


@dataclass
class Trajectory:
    """Per-frame particle positions plus per-object aggregates."""

    positions: np.ndarray  # (T, N, 3) float32
    fps: float
    object_id: np.ndarray  # (N,) int32
    centroids: np.ndarray  # (T, n_obj, 3) float64
    aabbs: np.ndarray      # (T, n_obj, 2, 3) float64
    object_table: np.ndarray  # (n_obj,) object ids, sorted
    edit_log: list = field(default_factory=list)
    scene_hash: str = ""
    config_hash: str = ""

    @property
    def n_frames(self) -> int:
        return self.positions.shape[0]

    @property
    def n_particles(self) -> int:
        return self.positions.shape[1]

    @classmethod
    def from_frames(cls, frames, fps, object_id, edit_log=None,
                    scene_hash="", config_hash=""):
        frames = np.asarray(frames, dtype=np.float32)
        if frames.ndim != 3 or frames.shape[2] != 3:
            raise ShapeError(f"frames must be (T, N, 3), got {frames.shape}")
        object_id = np.asarray(object_id, dtype=np.int32)
        if object_id.shape != (frames.shape[1],):
            raise ShapeError("object_id length must match particle count")
        table = np.unique(object_id)
        t, n_obj = frames.shape[0], table.shape[0]
        centroids = np.empty((t, n_obj, 3))
        aabbs = np.empty((t, n_obj, 2, 3))
        for k, oid in enumerate(table):
            pts = frames[:, object_id == oid, :].astype(np.float64)
            centroids[:, k] = pts.mean(axis=1)
            aabbs[:, k, 0] = pts.min(axis=1)
            aabbs[:, k, 1] = pts.max(axis=1)
        return cls(positions=frames, fps=float(fps), object_id=object_id,
                   centroids=centroids, aabbs=aabbs, object_table=table,
                   edit_log=list(edit_log or []),
                   scene_hash=scene_hash, config_hash=config_hash)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def frame_bytes(positions, frame_index) -> bytes:
    pos = np.ascontiguousarray(positions, dtype="<f4")
    header = FRAME_MAGIC + struct.pack("<IIQ", FRAME_VERSION, frame_index,
                                       pos.shape[0])
    return header + pos.tobytes()


def parse_frame_bytes(raw: bytes):
    if raw[:4] != FRAME_MAGIC:
        raise IoError("bad frame magic")
    version, frame_index, n = struct.unpack_from("<IIQ", raw, 4)
    if version != FRAME_VERSION:
        raise IoError(f"unsupported frame version {version}")
    off = 4 + struct.calcsize("<IIQ")
    pos = np.frombuffer(raw, dtype="<f4", count=n * 3, offset=off).reshape(n, 3)
    return frame_index, pos


def export_trajectory(traj: Trajectory, out_dir) -> dict:
    """Write frames, edit log, and manifest; returns the manifest dict."""
    out = Path(out_dir)
    frames_dir = out / "frames"
    try:
        frames_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {frames_dir}: {exc}") from exc

    files, hashes = [], []
    for k in range(traj.n_frames):
        name = f"frames/frame_{k:04d}.trjf"
        raw = frame_bytes(traj.positions[k], k)
        try:
            (out / name).write_bytes(raw)
        except OSError as exc:
            raise IoError(f"cannot write {out / name}: {exc}") from exc
        files.append(name)
        hashes.append(_sha256(raw))

    edits_text = canonical_json(traj.edit_log)
    try:
        (out / EDITS_NAME).write_text(edits_text)
    except OSError as exc:
        raise IoError(f"cannot write {out / EDITS_NAME}: {exc}") from exc

    manifest = {
        "format": "trajectory-manifest",
        "version": 1,
        "frames": traj.n_frames,
        "fps": traj.fps,
        "n_particles": traj.n_particles,
        "files": files,
        "frame_sha256": hashes,
        "edit_log_file": EDITS_NAME,
        "edit_log_sha256": _sha256(edits_text.encode()),
        "scene_hash": traj.scene_hash,
        "config_hash": traj.config_hash,
        "objects": [{"id": int(oid),
                     "count": int(np.sum(traj.object_id == oid))}
                    for oid in traj.object_table],
        "centroids_first_frame": traj.centroids[0].tolist(),
        "centroids_last_frame": traj.centroids[-1].tolist(),
    }
    text = canonical_json(manifest)
    try:
        (out / MANIFEST_NAME).write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write manifest: {exc}") from exc
    return manifest


def read_trajectory(in_dir) -> Trajectory:
    """Round-trip loader; positions come back bit-exactly."""
    root = Path(in_dir)
    manifest = read_json(root / MANIFEST_NAME, "manifest")
    frames = []
    for name in manifest["files"]:
        try:
            raw = (root / name).read_bytes()
        except OSError as exc:
            raise IoError(f"cannot read {root / name}: {exc}") from exc
        _, pos = parse_frame_bytes(raw)
        frames.append(pos)
    positions = np.stack(frames)
    try:
        edit_log = json.loads((root / manifest["edit_log_file"]).read_text())
    except OSError:
        edit_log = []
    n = positions.shape[1]
    object_id = np.zeros(n, dtype=np.int32)
    offset = 0
    for entry in manifest["objects"]:
        object_id[offset:offset + entry["count"]] = entry["id"]
        offset += entry["count"]
    return Trajectory.from_frames(positions, manifest["fps"], object_id,
                                  edit_log=edit_log,
                                  scene_hash=manifest.get("scene_hash", ""),
                                  config_hash=manifest.get("config_hash", ""))


def verify_trajectory(in_dir) -> dict:
    """Re-hash every file against the manifest; returns a report dict."""
    root = Path(in_dir)
    report = {"ok": True, "files": [], "errors": []}
    try:
        manifest = json.loads((root / MANIFEST_NAME).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return {"ok": False, "files": [], "errors": [f"manifest unreadable: {exc}"]}

    for name, want in zip(manifest.get("files", []),
                          manifest.get("frame_sha256", [])):
        entry = {"file": name, "ok": False}
        try:
            got = _sha256((root / name).read_bytes())
            entry["ok"] = got == want
            if not entry["ok"]:
                report["errors"].append(f"{name}: hash mismatch")
        except OSError as exc:
            report["errors"].append(f"{name}: {exc}")
        report["files"].append(entry)

    edits_file = manifest.get("edit_log_file")
    if edits_file:
        try:
            got = _sha256((root / edits_file).read_bytes())
            if got != manifest.get("edit_log_sha256"):
                report["errors"].append(f"{edits_file}: hash mismatch")
        except OSError as exc:
            report["errors"].append(f"{edits_file}: {exc}")

    if len(manifest.get("files", [])) != manifest.get("frames"):
        report["errors"].append("manifest frame count does not match file list")
    report["ok"] = not report["errors"]
    return report
