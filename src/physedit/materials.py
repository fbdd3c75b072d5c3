"""Per-point material fields, their validation, and elastic wave speeds.

A material field assigns each point of a cloud a constitutive class plus
continuous parameters: Young's modulus E [Pa], Poisson's ratio nu, and
density rho [kg/m^3].  ``validate_field`` checks a field's invariants and
reports each broken rule once, with how many points break it and the
first of them.  ``wave_speeds`` gives the longitudinal and shear wave
speeds that bound the solver's time step; the Lame parameters the stress
laws use come from ``constitutive.lame_parameters``.

Functions accept scalars or numpy arrays and broadcast; derived values
keep the input shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeError

# Validity ranges: the default clamps of scheduled parameter edits.
E_MIN, E_MAX = 1e2, 1e12
NU_MIN, NU_MAX = -0.45, 0.499
RHO_MIN, RHO_MAX = 1.0, 2e4


class MaterialClass(IntEnum):
    """The six constitutive classes understood by the simulator."""

    ELASTIC = 0
    PLASTICINE = 1
    SAND = 2
    SNOW = 3
    LIQUID = 4
    RIGID = 5


MATERIAL_CLASS_COUNT = len(MaterialClass)


@dataclass(frozen=True)
class ParamNormalization:
    """z-score constants for the (log10 E, nu, log10 rho) channels."""

    mean: tuple = (6.0, 0.25, 3.0)
    std: tuple = (2.0, 0.15, 0.5)

    def as_arrays(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != (3,) or std.shape != (3,):
            raise ShapeError("normalization constants must have 3 channels")
        if np.any(std <= 0):
            raise DomainError("normalization std must be positive")
        return mean, std

    def normalize(self, e, nu, rho):
        """Map physical (E, nu, rho) to the normalized 3-channel space."""
        mean, std = self.as_arrays()
        raw = np.stack([np.log10(e), np.asarray(nu, dtype=np.float64),
                        np.log10(rho)], axis=-1)
        return (raw - mean) / std


@dataclass(frozen=True)
class Violation:
    """One rule broken in a field, found by :func:`validate_field`.

    For a per-point rule, ``count`` points break it and ``index`` is the
    first of them; a rule about the whole field has no index.
    """

    field_name: str
    message: str
    index: Optional[int] = None
    count: int = 1


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "field valid"
        lines = []
        for v in self.violations:
            where = f"[{v.index}]" if v.index is not None else ""
            more = f" ({v.count} points, first shown)" if v.count > 1 else ""
            lines.append(f"{v.field_name}{where}: {v.message}{more}")
        return "\n".join(lines)


# MaterialField per-point column -> dtype; part_label may be None
FIELD_COLUMNS = {"positions": np.float64, "class_id": np.int32,
                 "young_modulus": np.float64, "poisson_ratio": np.float64,
                 "density": np.float64, "part_label": np.int32,
                 "interior_flag": bool}


@dataclass(frozen=True)
class MaterialField:
    """Immutable per-point physical property set over a point cloud.

    positions       (N, 3) float64, meters
    class_id        (N,) int32 constitutive class in [0, 6)
    young_modulus   (N,) float64 Pa
    poisson_ratio   (N,) float64
    density         (N,) float64 kg/m^3
    part_label      (N,) int32 or None
    interior_flag   (N,) bool, True for volumetrically filled points
    normalization   constants used to normalize continuous parameters
    """

    positions: np.ndarray
    class_id: np.ndarray
    young_modulus: np.ndarray
    poisson_ratio: np.ndarray
    density: np.ndarray
    part_label: Optional[np.ndarray] = None
    interior_flag: Optional[np.ndarray] = None
    normalization: ParamNormalization = field(default_factory=ParamNormalization)

    def __post_init__(self):
        if self.interior_flag is None:
            object.__setattr__(self, "interior_flag",
                               np.zeros(np.shape(self.positions)[0], dtype=bool))
        columns = {name: np.ascontiguousarray(getattr(self, name), dtype=dtype)
                   for name, dtype in FIELD_COLUMNS.items()
                   if name != "part_label" or self.part_label is not None}
        for name, arr in columns.items():  # read-only once all are coerced
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    def with_(self, **changes) -> "MaterialField":
        return replace(self, **changes)


def wave_speeds(e, nu, rho):
    """Longitudinal and shear wave speeds (c_p, c_s) in m/s.

    c_p = sqrt(E (1 - nu) / (rho (1 + nu)(1 - 2 nu)))
    c_s = sqrt(E / (2 rho (1 + nu)))
    """
    e, nu, rho = (np.asarray(a, dtype=np.float64) for a in (e, nu, rho))
    if np.any(~np.isfinite(e)) or np.any(e <= 0):
        raise DomainError("Young's modulus must be finite and > 0")
    if np.any(~np.isfinite(nu)) or np.any(nu <= -1.0) or np.any(nu >= 0.5):
        raise DomainError("Poisson's ratio must lie strictly in (-1, 0.5)")
    if np.any(~np.isfinite(rho)) or np.any(rho <= 0):
        raise DomainError("density must be finite and > 0")
    c_p = np.sqrt(e * (1.0 - nu) / (rho * (1.0 + nu) * (1.0 - 2.0 * nu)))
    c_s = np.sqrt(e / (2.0 * rho * (1.0 + nu)))
    if np.ndim(c_p) == 0:
        return float(c_p), float(c_s)
    return c_p, c_s


def validate_field(f: MaterialField) -> ValidationReport:
    """One violation per rule that ``f`` breaks; empty report iff valid.

    The report's size does not grow with the number of bad points.
    """
    violations = []
    n = f.positions.shape[0]
    if f.positions.ndim != 2 or f.positions.shape[1] != 3:
        violations.append(Violation("positions", f"expected (N, 3), got {f.positions.shape}"))
    if n < 1:
        violations.append(Violation("positions", "field must contain at least one point"))

    for name in FIELD_COLUMNS:
        arr = getattr(f, name)
        if name != "positions" and arr is not None and arr.shape != (n,):
            violations.append(Violation(name, f"length {arr.shape} does not match N={n}"))

    def per_point(name, arr, bad_mask, message):
        if arr.shape != (n,):
            return
        bad = np.flatnonzero(bad_mask)
        if bad.size:
            violations.append(Violation(name, message, index=int(bad[0]),
                                        count=int(bad.size)))

    if f.positions.shape == (n, 3):
        per_point("positions", f.positions[:, 0],
                  ~np.isfinite(f.positions).all(axis=1), "non-finite coordinate")
    per_point("young_modulus", f.young_modulus,
              ~np.isfinite(f.young_modulus) | (f.young_modulus <= 0),
              "E must be finite and > 0")
    per_point("poisson_ratio", f.poisson_ratio,
              ~np.isfinite(f.poisson_ratio) | (f.poisson_ratio <= -1.0)
              | (f.poisson_ratio >= 0.5),
              "nu must lie strictly in (-1, 0.5)")
    per_point("density", f.density,
              ~np.isfinite(f.density) | (f.density <= 0),
              "rho must be finite and > 0")
    per_point("class_id", f.class_id,
              (f.class_id < 0) | (f.class_id >= MATERIAL_CLASS_COUNT),
              f"class index outside [0, {MATERIAL_CLASS_COUNT})")
    return ValidationReport(violations=tuple(violations))
