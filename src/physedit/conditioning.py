"""Prompt-conditioned point features.

Deterministic forward math over caller-supplied feature and weight
matrices: a temperature-scaled soft assignment of points to part prompts
(a single-head cross-attention whose weights stay interpretable).

No weights are learned here; fixtures supply them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IoError, ShapeError
from .fieldio import array_of, convert_keys

DEFAULT_TAU = 0.07
# the FeatureBundle matrices, in document order
_ARRAYS = ("point_features", "global_token", "part_tokens", "phi", "psi",
           "w_val")
_float_array = array_of(np.float64)
# bundle document key -> conversion; tau is optional
_BUNDLE_VALUES = {**dict.fromkeys(_ARRAYS, _float_array), "tau": float}


def softmax_rows(x):
    """Numerically stable row softmax."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class FeatureBundle:
    """Inputs of the soft-assignment block.

    point_features   H, (N, d); d = d_S + d_P (segmentation prior + positional)
    global_token     t0, (1, d_t); validated and stored, unused by soft_assign
    part_tokens      T, (K, d_t)
    phi              point projection, (d, d_a)
    psi              prompt projection, (d_t, d_a)
    w_val            prompt value map, (d_t, d)
    tau              softmax temperature, > 0
    """

    point_features: np.ndarray
    global_token: np.ndarray
    part_tokens: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    w_val: np.ndarray
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        for name in _ARRAYS:
            object.__setattr__(self, name, _float_array(getattr(self, name)))

    def validate(self):
        h, t0, t = self.point_features, self.global_token, self.part_tokens
        if h.ndim != 2:
            raise ShapeError(f"point_features must be (N, d), got {h.shape}")
        n, d = h.shape
        if t.ndim != 2 or t.shape[0] < 1:
            raise ShapeError(f"part_tokens must be (K>=1, d_t), got {t.shape}")
        k, d_t = t.shape
        if t0.shape != (1, d_t):
            raise ShapeError(f"global_token must be (1, {d_t}), got {t0.shape}")
        if self.phi.ndim != 2 or self.phi.shape[0] != d:
            raise ShapeError(f"phi must be ({d}, d_a), got {self.phi.shape}")
        d_a = self.phi.shape[1]
        if self.psi.shape != (d_t, d_a):
            raise ShapeError(f"psi must be ({d_t}, {d_a}), got {self.psi.shape}")
        if self.w_val.shape != (d_t, d):
            raise ShapeError(f"w_val must be ({d_t}, {d}), got {self.w_val.shape}")
        if not (self.tau > 0):
            raise DomainError("tau must be positive")
        return self


@dataclass(frozen=True)
class AssignmentResult:
    """Soft assignment output.

    logits    S = (H phi)(T psi)^T / tau, (N, K)
    weights   A = row-softmax(S), rows sum to 1
    refined   H + A (T w_val), (N, d)
    """

    logits: np.ndarray
    weights: np.ndarray
    refined: np.ndarray


def soft_assign(bundle: FeatureBundle) -> AssignmentResult:
    """Distribute each point over the K part prompts and refine its features."""
    bundle.validate()
    h = bundle.point_features
    s = (h @ bundle.phi) @ (bundle.part_tokens @ bundle.psi).T / bundle.tau
    a = softmax_rows(s)
    refined = h + a @ (bundle.part_tokens @ bundle.w_val)
    return AssignmentResult(logits=s, weights=a, refined=refined)


def bundle_to_dict(bundle: FeatureBundle) -> dict:
    return {"format": "feature-bundle", "version": 1, "tau": bundle.tau,
            **{name: getattr(bundle, name).tolist() for name in _ARRAYS}}


def bundle_from_dict(d: dict) -> FeatureBundle:
    if d.get("format") != "feature-bundle":
        raise IoError("not a feature-bundle document")
    return FeatureBundle(**convert_keys(d, _BUNDLE_VALUES, "feature-bundle",
                                        ("tau",))).validate()


def synthetic_segmentation_prior(part_label, d_s=96, seed=0):
    """Lift per-point part indicators to a d_s-dim feature by a fixed projection.

    Stand-in for a pretrained segmentation encoder: one-hot part vectors
    multiplied by a seeded Gaussian matrix, so equal parts share features.
    """
    part_label = np.asarray(part_label, dtype=np.int64)
    n_parts = int(part_label.max()) + 1 if part_label.size else 1
    rng = np.random.default_rng(seed)
    proj = rng.standard_normal((n_parts, d_s)) / np.sqrt(d_s)
    return proj[part_label]
