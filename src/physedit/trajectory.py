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
from .fieldio import (convert_key, convert_keys, instance_of, make_dir,
                      read_file, read_json, whole, write_file)

FRAME_MAGIC = b"TRJF"
FRAME_VERSION = 1
_FRAME_HEADER = struct.Struct("<4sIIQ")  # magic, version, frame index, n
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


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def frame_bytes(positions, frame_index) -> bytes:
    pos = np.ascontiguousarray(positions, dtype="<f4")
    return _FRAME_HEADER.pack(FRAME_MAGIC, FRAME_VERSION, frame_index,
                              pos.shape[0]) + pos.tobytes()


def parse_frame_bytes(raw: bytes, source="frame", expect=None):
    """``(frame index, positions)``; IoError naming ``source`` if ``raw`` is
    not a frame file, its length differs from the size its header implies,
    or its header differs from ``expect``, a (frame index, point count)."""
    if raw[:4] != FRAME_MAGIC:
        raise IoError(f"{source}: bad frame magic")
    if len(raw) < _FRAME_HEADER.size:
        raise IoError(f"{source}: {len(raw)} bytes, shorter than the header")
    _, version, frame_index, n = _FRAME_HEADER.unpack_from(raw)
    if version != FRAME_VERSION:
        raise IoError(f"{source}: unsupported frame version {version}")
    size = _FRAME_HEADER.size + 12 * n
    if len(raw) != size:
        raise IoError(f"{source}: {len(raw)} bytes, the header implies {size}")
    if expect is not None and (frame_index, n) != expect:
        raise IoError(f"{source}: header has frame {frame_index} of {n} "
                      f"points, the manifest lists frame {expect[0]} of "
                      f"{expect[1]}")
    pos = np.frombuffer(raw, dtype="<f4", offset=_FRAME_HEADER.size)
    return frame_index, pos.reshape(n, 3)


def export_trajectory(traj: Trajectory, out_dir) -> dict:
    """Write frames, edit log, and manifest; returns the manifest dict."""
    out = Path(out_dir)
    make_dir(out / "frames")

    files, hashes = [], []
    for k in range(traj.n_frames):
        name = f"frames/frame_{k:04d}.trjf"
        raw = frame_bytes(traj.positions[k], k)
        write_file(out / name, raw, "frame")
        files.append(name)
        hashes.append(sha256_hex(raw))

    edits_text = canonical_json(traj.edit_log)
    write_file(out / EDITS_NAME, edits_text, "edit log")

    manifest = {
        "format": "trajectory-manifest",
        "version": 1,
        "frames": traj.n_frames,
        "fps": traj.fps,
        "n_particles": traj.n_particles,
        "files": files,
        "frame_sha256": hashes,
        "edit_log_file": EDITS_NAME,
        "edit_log_sha256": sha256_hex(edits_text.encode()),
        "scene_hash": traj.scene_hash,
        "config_hash": traj.config_hash,
        "objects": [{"id": int(oid),
                     "count": int(np.sum(traj.object_id == oid))}
                    for oid in traj.object_table],
        "centroids_first_frame": traj.centroids[0].tolist(),
        "centroids_last_frame": traj.centroids[-1].tolist(),
    }
    write_file(out / MANIFEST_NAME, canonical_json(manifest), "manifest")
    return manifest


def _names(value):
    """A non-empty list of strings, as written."""
    if not (isinstance(value, list) and value
            and all(isinstance(name, str) for name in value)):
        raise ValueError("expected a non-empty list of strings")
    return value


def _member(name):
    """A path inside the trajectory directory: plain names joined by "/"
    (no absolute path, no "." or "..", no backslash)."""
    if not (isinstance(name, str) and all(
            part not in ("", ".", "..") and "\\" not in part
            for part in name.split("/"))):
        raise ValueError(f"{name!r} is not a file name inside the directory")
    return name


def _members(value):
    """A non-empty list of paths inside the trajectory directory."""
    return [_member(name) for name in _names(value)]


def _count(value) -> int:
    """A whole number in [0, 2**31), the range of an int32 object id."""
    number = whole(value)
    if not 0 <= number < 2 ** 31:
        raise ValueError(f"{number} lies outside [0, 2**31)")
    return number


def _equal_to(expected):
    """Converter that passes only ``expected``, of its type; ValueError
    for any other value."""
    def convert(value):
        if not (type(value) is type(expected) and value == expected):
            raise ValueError(f"expected {expected!r}, got {value!r}")
        return value
    return convert


def _read_manifest(root: Path) -> dict:
    """The manifest in ``root`` with every key the readers use converted,
    plus ``ids`` and ``counts`` from its object table; IoError naming the
    manifest and the key at the first problem."""
    what = f"manifest {root / MANIFEST_NAME}"
    doc = read_json(root / MANIFEST_NAME, "manifest")
    text = instance_of(str)
    m = convert_keys(doc, {
        "format": _equal_to("trajectory-manifest"), "version": _equal_to(1),
        "files": _members, "frame_sha256": _names, "frames": whole,
        "fps": float, "n_particles": _count, "edit_log_file": _member,
        "scene_hash": text, "edit_log_sha256": text, "config_hash": text},
        what)
    table = convert_key(doc, "objects", instance_of(list), what)
    for key in ("id", "count"):
        m[key + "s"] = np.array([convert_key(entry, key, _count,
                                             f"{what} objects[{k}]")
                                 for k, entry in enumerate(table)], np.int64)
    n_files, n_hashes = len(m["files"]), len(m["frame_sha256"])
    for broken, rule in (
            (n_hashes != n_files,
             f"lists {n_files} frame files and {n_hashes} frame hashes"),
            (m["frames"] != n_files,
             f"frames is {m['frames']}, files lists {n_files}"),
            (not (np.isfinite(m["fps"]) and m["fps"] > 0),
             f"fps is {m['fps']}, not finite and positive"),
            (m["counts"].sum() != m["n_particles"],
             f"object counts add up to {m['counts'].sum()}, "
             f"n_particles is {m['n_particles']}")):
        if broken:
            raise IoError(f"{what}: {rule}")
    return m


def read_trajectory(in_dir) -> Trajectory:
    """Round-trip loader; positions come back bit-exactly."""
    root = Path(in_dir)
    m = _read_manifest(root)
    positions = np.stack([parse_frame_bytes(
        read_file(root / name, "frame"), root / name,
        (k, m["n_particles"]))[1] for k, name in enumerate(m["files"])])
    edit_log = read_json(root / m["edit_log_file"], "edit log", list)
    return Trajectory.from_frames(positions, m["fps"],
                                  np.repeat(m["ids"], m["counts"]),
                                  edit_log=edit_log,
                                  scene_hash=m["scene_hash"],
                                  config_hash=m["config_hash"])


def verify_trajectory(in_dir) -> dict:
    """Re-hash every file against the manifest and check each frame header;
    returns a report dict.  A bad manifest is the report's one error."""
    root = Path(in_dir)
    try:
        m = _read_manifest(root)
    except IoError as exc:
        return {"ok": False, "files": [], "errors": [str(exc)]}

    def problem(name, want, what, index=None):
        """What is wrong with file ``name``, or None."""
        try:
            raw = read_file(root / name, what)
            if sha256_hex(raw) != want:
                return f"{name}: hash mismatch"
            if index is not None:
                parse_frame_bytes(raw, root / name, (index, m["n_particles"]))
        except IoError as exc:
            return str(exc)

    found = [problem(name, want, "frame", k) for k, (name, want)
             in enumerate(zip(m["files"], m["frame_sha256"]))]
    errors = [err for err in found + [problem(
        m["edit_log_file"], m["edit_log_sha256"], "edit log")] if err]
    return {"ok": not errors, "errors": errors,
            "files": [{"file": name, "ok": err is None}
                      for name, err in zip(m["files"], found)]}


def compare_trajectories(a: Trajectory, b: Trajectory) -> dict:
    """Largest per-frame centroid and AABB deviation of b from a.

    Deviations are the largest absolute coordinate difference, in metres,
    over every frame and object.  IoError if the two runs differ in frame
    count or object table.
    """
    if a.n_frames != b.n_frames:
        raise IoError(f"frame counts differ: {a.n_frames} against {b.n_frames}")
    if not np.array_equal(a.object_table, b.object_table):
        raise IoError(f"object tables differ: {a.object_table.tolist()} "
                      f"against {b.object_table.tolist()}")
    return {"frames": a.n_frames,
            "max_centroid_dev_m": float(np.abs(a.centroids - b.centroids).max()),
            "max_aabb_dev_m": float(np.abs(a.aabbs - b.aabbs).max())}
