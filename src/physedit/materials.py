"""Per-point material fields and closed-form elastic quantities.

A material field assigns each point of a cloud a constitutive class plus
continuous parameters: Young's modulus E [Pa], Poisson's ratio nu, and
density rho [kg/m^3].  All derived elastic quantities (shear/bulk moduli,
Lame lambda, longitudinal/shear wave speeds) are computed here.

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
class MaterialModel:
    """Per-class plasticity constants shared by the constitutive laws.

    yield_stress         von Mises yield [Pa], plasticine
    friction_angle_deg   Drucker-Prager friction angle [deg], sand
    snow_theta_c         critical compression, snow singular-value clamp
    snow_theta_s         critical stretch, snow singular-value clamp
    """

    yield_stress: float = 1e4
    friction_angle_deg: float = 30.0
    snow_theta_c: float = 2.5e-2
    snow_theta_s: float = 7.5e-3

    def validate(self):
        for name in ("yield_stress", "friction_angle_deg", "snow_theta_c",
                     "snow_theta_s"):
            if getattr(self, name) <= 0:
                raise DomainError(f"MaterialModel.{name} must be positive")


DEFAULT_MATERIAL_MODEL = MaterialModel()


@dataclass(frozen=True)
class ElasticDerived:
    """Closed-form elastic quantities derived from (E, nu[, rho]).

    Wave speeds are None when density was not supplied.
    """

    mu: np.ndarray | float
    kappa: np.ndarray | float
    lame_lambda: np.ndarray | float
    c_p: Optional[np.ndarray | float] = None
    c_s: Optional[np.ndarray | float] = None


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
    """One invariant violation found by :func:`validate_field`."""

    field_name: str
    message: str
    index: Optional[int] = None


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
            lines.append(f"{v.field_name}{where}: {v.message}")
        return "\n".join(lines)


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
        object.__setattr__(self, "positions",
                           np.ascontiguousarray(self.positions, dtype=np.float64))
        object.__setattr__(self, "class_id",
                           np.ascontiguousarray(self.class_id, dtype=np.int32))
        for name in ("young_modulus", "poisson_ratio", "density"):
            object.__setattr__(self, name,
                               np.ascontiguousarray(getattr(self, name), dtype=np.float64))
        if self.part_label is not None:
            object.__setattr__(self, "part_label",
                               np.ascontiguousarray(self.part_label, dtype=np.int32))
        flag = self.interior_flag
        if flag is None:
            flag = np.zeros(self.positions.shape[0], dtype=bool)
        object.__setattr__(self, "interior_flag",
                           np.ascontiguousarray(flag, dtype=bool))
        for name in ("positions", "class_id", "young_modulus", "poisson_ratio",
                     "density", "part_label", "interior_flag"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    def with_(self, **changes) -> "MaterialField":
        return replace(self, **changes)


def _check_ranges(e, nu, rho=None):
    e = np.asarray(e, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if np.any(~np.isfinite(e)) or np.any(e <= 0):
        raise DomainError("Young's modulus must be finite and > 0")
    if np.any(~np.isfinite(nu)) or np.any(nu <= -1.0) or np.any(nu >= 0.5):
        raise DomainError("Poisson's ratio must lie strictly in (-1, 0.5)")
    if rho is not None:
        rho = np.asarray(rho, dtype=np.float64)
        if np.any(~np.isfinite(rho)) or np.any(rho <= 0):
            raise DomainError("density must be finite and > 0")
        return e, nu, rho
    return e, nu


def derive_moduli(e, nu) -> ElasticDerived:
    """Shear modulus, bulk modulus and first Lame parameter from (E, nu).

    mu = E / (2 (1 + nu))
    K  = E / (3 (1 - 2 nu))
    lambda = E nu / ((1 + nu)(1 - 2 nu))

    Raises DomainError unless E > 0 and -1 < nu < 0.5.
    """
    e, nu = _check_ranges(e, nu)
    mu = e / (2.0 * (1.0 + nu))
    kappa = e / (3.0 * (1.0 - 2.0 * nu))
    lam = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    if np.ndim(mu) == 0:
        return ElasticDerived(mu=float(mu), kappa=float(kappa), lame_lambda=float(lam))
    return ElasticDerived(mu=mu, kappa=kappa, lame_lambda=lam)


def wave_speeds(e, nu, rho):
    """Longitudinal and shear wave speeds (c_p, c_s) in m/s.

    c_p = sqrt(E (1 - nu) / (rho (1 + nu)(1 - 2 nu)))
    c_s = sqrt(E / (2 rho (1 + nu)))
    """
    e, nu, rho = _check_ranges(e, nu, rho)
    c_p = np.sqrt(e * (1.0 - nu) / (rho * (1.0 + nu) * (1.0 - 2.0 * nu)))
    c_s = np.sqrt(e / (2.0 * rho * (1.0 + nu)))
    if np.ndim(c_p) == 0:
        return float(c_p), float(c_s)
    return c_p, c_s


def validate_field(f: MaterialField) -> ValidationReport:
    """List every invariant violation in ``f``; empty report iff valid."""
    violations = []
    n = f.positions.shape[0]
    if f.positions.ndim != 2 or f.positions.shape[1] != 3:
        violations.append(Violation("positions", f"expected (N, 3), got {f.positions.shape}"))
    if n < 1:
        violations.append(Violation("positions", "field must contain at least one point"))

    columns = {
        "class_id": f.class_id,
        "young_modulus": f.young_modulus,
        "poisson_ratio": f.poisson_ratio,
        "density": f.density,
        "interior_flag": f.interior_flag,
    }
    if f.part_label is not None:
        columns["part_label"] = f.part_label
    for name, arr in columns.items():
        if arr.shape != (n,):
            violations.append(Violation(name, f"length {arr.shape} does not match N={n}"))

    def per_point(name, arr, bad_mask, message):
        if arr.shape != (n,):
            return
        for idx in np.nonzero(bad_mask)[0]:
            violations.append(Violation(name, message, index=int(idx)))

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
