"""Material field serialization.

Two equivalent on-disk forms:

* ``.mfield`` -- column-oriented binary container.  Layout (little-endian):

    magic    4 bytes  b"MFLD"
    version  uint32   currently 1
    n        uint64   point count
    flags    uint32   bit 0 = part_label column present
    norm     6 float64  normalization mean[3] then std[3]
    columns  positions float32 n*3, class_id int32 n,
             young_modulus float64 n, poisson_ratio float64 n,
             density float64 n, [part_label int32 n], interior_flag uint8 n

* ``.json`` -- the same content as human-readable structured text.

``read_field``/``write_field`` dispatch on the file extension.
``read_json`` is the one reader of every JSON document the package loads.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import IoError
from .materials import MaterialField, ParamNormalization

MAGIC = b"MFLD"
VERSION = 1
_FLAG_PART_LABEL = 1


def read_json(path, what, kind=dict):
    """Parse the JSON document in ``path``; IoError naming ``what`` and the
    path if the file cannot be read, is not JSON or is not a ``kind``
    (dict for an object, list for an array)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: JSON or Unicode decode
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, kind):
        name = "object" if kind is dict else "array"
        raise IoError(f"{path}: {what} is not a JSON {name}")
    return doc


def require_key(doc, key, what):
    """``doc[key]``; IoError naming ``what`` and the key if it is absent."""
    if not isinstance(doc, dict) or key not in doc:
        raise IoError(f"{what}: missing required key {key!r}")
    return doc[key]


def write_field_binary(f: MaterialField, path):
    path = Path(path)
    n = f.n_points
    flags = _FLAG_PART_LABEL if f.part_label is not None else 0
    mean, std = f.normalization.as_arrays()
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<IQI", VERSION, n, flags))
            fh.write(mean.astype("<f8").tobytes())
            fh.write(std.astype("<f8").tobytes())
            fh.write(f.positions.astype("<f4").tobytes())
            fh.write(f.class_id.astype("<i4").tobytes())
            fh.write(f.young_modulus.astype("<f8").tobytes())
            fh.write(f.poisson_ratio.astype("<f8").tobytes())
            fh.write(f.density.astype("<f8").tobytes())
            if f.part_label is not None:
                fh.write(f.part_label.astype("<i4").tobytes())
            fh.write(f.interior_flag.astype("u1").tobytes())
    except OSError as exc:
        raise IoError(f"cannot write field to {path}: {exc}") from exc


def read_field_binary(path) -> MaterialField:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read field from {path}: {exc}") from exc
    if raw[:4] != MAGIC:
        raise IoError(f"{path}: bad magic, not a material field container")
    version, n, flags = struct.unpack_from("<IQI", raw, 4)
    if version != VERSION:
        raise IoError(f"{path}: unsupported container version {version}")
    off = 4 + struct.calcsize("<IQI")

    def take(dtype, count):
        nonlocal off
        arr = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
        off += arr.nbytes
        return arr

    mean = take("<f8", 3)
    std = take("<f8", 3)
    positions = take("<f4", n * 3).astype(np.float64).reshape(n, 3)
    class_id = take("<i4", n)
    e = take("<f8", n)
    nu = take("<f8", n)
    rho = take("<f8", n)
    part = take("<i4", n) if flags & _FLAG_PART_LABEL else None
    interior = take("u1", n).astype(bool)
    return MaterialField(positions=positions, class_id=class_id,
                         young_modulus=e, poisson_ratio=nu, density=rho,
                         part_label=part, interior_flag=interior,
                         normalization=ParamNormalization(tuple(mean), tuple(std)))


def field_to_dict(f: MaterialField) -> dict:
    mean, std = f.normalization.as_arrays()
    d = {
        "format": "material-field",
        "version": VERSION,
        "norm_mean": mean.tolist(),
        "norm_std": std.tolist(),
        # Coordinates round through float32 so both forms carry equal precision.
        "positions": f.positions.astype(np.float32).astype(np.float64).tolist(),
        "class_id": f.class_id.tolist(),
        "young_modulus": f.young_modulus.tolist(),
        "poisson_ratio": f.poisson_ratio.tolist(),
        "density": f.density.tolist(),
        "part_label": None if f.part_label is None else f.part_label.tolist(),
        "interior_flag": f.interior_flag.astype(int).tolist(),
    }
    return d


def field_from_dict(d: dict) -> MaterialField:
    if d.get("format") != "material-field":
        raise IoError("not a material-field document")
    if d.get("version") != VERSION:
        raise IoError(f"unsupported material-field version {d.get('version')}")

    def col(key, dtype):
        return np.asarray(require_key(d, key, "material-field"), dtype=dtype)

    part = d.get("part_label")
    return MaterialField(
        positions=col("positions", np.float64),
        class_id=col("class_id", np.int32),
        young_modulus=col("young_modulus", np.float64),
        poisson_ratio=col("poisson_ratio", np.float64),
        density=col("density", np.float64),
        part_label=None if part is None else np.asarray(part, dtype=np.int32),
        interior_flag=col("interior_flag", bool),
        normalization=ParamNormalization(
            tuple(require_key(d, "norm_mean", "material-field")),
            tuple(require_key(d, "norm_std", "material-field"))),
    )


def write_field_json(f: MaterialField, path):
    path = Path(path)
    try:
        path.write_text(json.dumps(field_to_dict(f), indent=1) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write field to {path}: {exc}") from exc


def read_field_json(path) -> MaterialField:
    return field_from_dict(read_json(path, "field"))


def write_field(f: MaterialField, path):
    """Write ``f`` to ``path``; `.json` selects the text form."""
    if str(path).endswith(".json"):
        write_field_json(f, path)
    else:
        write_field_binary(f, path)


def read_field(path) -> MaterialField:
    if str(path).endswith(".json"):
        return read_field_json(path)
    return read_field_binary(path)
