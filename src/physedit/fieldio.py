"""Material field serialization, and the package's file layer.

Two equivalent on-disk forms:

* ``.mfield`` -- little-endian binary container: the ``_HEADER`` record,
  then each of ``_COLUMNS`` in order (docs/file_formats.md has the table).
  Readers reject a file whose length differs from the size its header
  implies.
* ``.json`` -- the same columns, holding the stored values, as
  human-readable structured text.

``read_field``/``write_field`` dispatch on the file extension.  Every
file access in the package goes through ``read_file``, ``write_file`` and
``make_dir``, which turn an OSError into an IoError naming the path, and
every JSON document it loads through ``read_json`` and ``convert_key(s)``.
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
# magic, version, point count, flags, normalization mean[3] then std[3]
_HEADER = struct.Struct("<4sIQI6d")
# (name, stored dtype, values per point) in file order; a field without
# part labels stores no part_label column.  The JSON form holds the stored
# values too, so both forms carry equal precision.
_COLUMNS = (("positions", "<f4", 3), ("class_id", "<i4", 1),
            ("young_modulus", "<f8", 1), ("poisson_ratio", "<f8", 1),
            ("density", "<f8", 1), ("part_label", "<i4", 1),
            ("interior_flag", "u1", 1))
_OPTIONAL = "part_label"


def read_file(path, what) -> bytes:
    """The bytes in ``path``; IoError naming ``what`` and the path."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc


def write_file(path, data, what):
    """Write bytes, or a str as UTF-8, to ``path``; IoError as read_file."""
    raw = data.encode() if isinstance(data, str) else data
    try:
        Path(path).write_bytes(raw)
    except OSError as exc:
        raise IoError(f"cannot write {what} {path}: {exc}") from exc


def make_dir(path):
    """Create directory ``path`` and its parents; IoError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create directory {path}: {exc}") from exc


def read_json(path, what, kind=dict):
    """The JSON ``kind`` (dict or list) in ``path``; IoError naming ``what``
    and the path if it cannot be read or parsed or is of another kind."""
    try:
        doc = json.loads(read_file(path, what))
    except ValueError as exc:  # JSON or Unicode decode
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


def convert_key(doc, key, convert, what):
    """``convert(doc[key])``; IoError naming ``what`` and the key if the key
    is absent or its value cannot be converted."""
    value = require_key(doc, key, what)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise IoError(f"{what}: bad value for key {key!r}: {exc}") from None


def convert_keys(doc, converters, what, optional=()):
    """``convert_key`` over ``converters``, leaving out each ``optional`` key
    that is absent or null; required keys come first in ``converters``."""
    return {key: convert_key(doc, key, convert, what)
            for key, convert in converters.items()
            if key not in optional or doc.get(key) is not None}


def array_of(dtype, shape=None):
    """Converter of a JSON value to an array of ``dtype``; ValueError unless
    every value is a number, a whole one for an integer ``dtype``, and, with
    ``shape``, unless the array has it (None matches any length)."""
    def convert(value):
        raw = np.asarray(value)
        if raw.dtype.kind not in "biuf":
            raise ValueError("expected numbers")
        with np.errstate(invalid="ignore", over="ignore"):
            arr = raw.astype(dtype, copy=False)
        if arr.dtype.kind in "iu" and not np.array_equal(arr, raw):
            raise ValueError(f"expected whole numbers in {arr.dtype} range")
        if shape is not None and (arr.ndim != len(shape) or any(
                want not in (None, got) for got, want in zip(arr.shape, shape))):
            raise ValueError(f"expected shape {shape}, got {arr.shape}")
        return arr
    return convert


def whole(value) -> int:
    """``value`` as an int; ValueError unless it is a whole number."""
    return int(array_of(np.int64, ())(value))


def instance_of(*kinds):
    """Converter that passes a value of one of ``kinds`` through as written;
    TypeError for any other value."""
    def convert(value):
        if not isinstance(value, kinds):
            names = " or ".join(kind.__name__ for kind in kinds)
            raise TypeError(f"expected {names}, got {type(value).__name__}")
        return value
    return convert


def _stored(has_part: bool):
    """The ``_COLUMNS`` entries a field holds, in file order."""
    return [col for col in _COLUMNS if has_part or col[0] != _OPTIONAL]


def write_field_binary(f: MaterialField, path):
    mean, std = f.normalization.as_arrays()
    has_part = f.part_label is not None
    header = _HEADER.pack(MAGIC, VERSION, f.n_points,
                          _FLAG_PART_LABEL if has_part else 0, *mean, *std)
    write_file(path, b"".join([header] + [
        getattr(f, name).astype(dtype).tobytes()
        for name, dtype, _ in _stored(has_part)]), "field")


def read_field_binary(path) -> MaterialField:
    raw = read_file(path, "field")
    if raw[:4] != MAGIC:
        raise IoError(f"{path}: bad magic, not a material field container")
    if len(raw) < _HEADER.size:
        raise IoError(f"{path}: {len(raw)} bytes, shorter than the header")
    _, version, n, flags, *norm = _HEADER.unpack_from(raw)
    if version != VERSION:
        raise IoError(f"{path}: unsupported container version {version}")
    stored = _stored(bool(flags & _FLAG_PART_LABEL))
    size = _HEADER.size + n * sum(np.dtype(dtype).itemsize * per
                                  for _, dtype, per in stored)
    if len(raw) != size:
        raise IoError(f"{path}: {len(raw)} bytes, the header implies {size}")
    cols, off = {}, _HEADER.size
    for name, dtype, per in stored:
        arr = np.frombuffer(raw, dtype=dtype, count=n * per, offset=off)
        cols[name] = arr.reshape(n, per) if per > 1 else arr
        off += arr.nbytes
    return MaterialField(**cols, normalization=ParamNormalization(
        tuple(norm[:3]), tuple(norm[3:])))


def field_to_dict(f: MaterialField) -> dict:
    mean, std = f.normalization.as_arrays()
    d = {"format": "material-field", "version": VERSION,
         "norm_mean": mean.tolist(), "norm_std": std.tolist()}
    for name, dtype, _ in _COLUMNS:
        values = getattr(f, name)
        d[name] = None if values is None else values.astype(dtype).tolist()
    return d


def field_from_dict(d: dict, what="material-field") -> MaterialField:
    """The field a ``field_to_dict`` document holds; IoError naming ``what``
    and the key if a column or constant is absent or cannot be converted."""
    if d.get("format") != "material-field":
        raise IoError(f"{what}: not a material-field document")
    if d.get("version") != VERSION:
        raise IoError(f"{what}: unsupported material-field version "
                      f"{d.get('version')}")
    converters = {name: array_of(dtype, (None,) if per == 1 else (None, per))
                  for name, dtype, per in _COLUMNS}
    cols = convert_keys(d, converters, what, (_OPTIONAL,))
    norm = (tuple(convert_key(d, key, array_of("<f8", (3,)), what).tolist())
            for key in ("norm_mean", "norm_std"))
    return MaterialField(**cols, normalization=ParamNormalization(*norm))


def write_field_json(f: MaterialField, path):
    write_file(path, json.dumps(field_to_dict(f), indent=1) + "\n", "field")


def read_field_json(path) -> MaterialField:
    return field_from_dict(read_json(path, "field"), str(path))


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
