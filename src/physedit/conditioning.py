"""Prompt-conditioned point feature kernels.

Deterministic forward math over caller-supplied feature and weight
matrices: a temperature-scaled soft assignment of points to part prompts
(a single-head cross-attention whose weights stay interpretable), and a
two-stage multi-head cross-attention that conditions the point stream
first on one global token, then on the part tokens.

No weights are learned here; fixtures supply them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, IoError, ShapeError
from .fieldio import read_json, require_key

DEFAULT_TAU = 0.07


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
    global_token     t0, (1, d_t)
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
        for name in ("point_features", "global_token", "part_tokens",
                     "phi", "psi", "w_val"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))

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


@dataclass(frozen=True)
class AttentionWeights:
    """One multi-head cross-attention layer.

    Full-width projections; heads are contiguous column blocks of width
    ``width // heads``.

    w_q  (d_q, width)     queries from the point stream
    w_k  (d_ctx, width)   keys from the context tokens
    w_v  (d_ctx, width)   values from the context tokens
    w_o  (width, d_q)     output projection back to the query width
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    heads: int = 8

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v", "w_o"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))

    def validate(self, d_q=None, d_ctx=None):
        width = self.w_q.shape[1]
        if self.heads < 1 or width % self.heads != 0:
            raise ShapeError(f"width {width} not divisible by heads {self.heads}")
        if self.w_k.shape[1] != width or self.w_v.shape[1] != width:
            raise ShapeError("w_k/w_v width must match w_q")
        if self.w_k.shape[0] != self.w_v.shape[0]:
            raise ShapeError("w_k and w_v must share the context dimension")
        if self.w_o.shape[0] != width:
            raise ShapeError(f"w_o must be ({width}, d_q), got {self.w_o.shape}")
        if d_q is not None and (self.w_q.shape[0] != d_q or self.w_o.shape[1] != d_q):
            raise ShapeError(f"weights expect query dim {self.w_q.shape[0]}, got {d_q}")
        if d_ctx is not None and self.w_k.shape[0] != d_ctx:
            raise ShapeError(f"weights expect context dim {self.w_k.shape[0]}, got {d_ctx}")
        return self

    @classmethod
    def random(cls, d_q, d_ctx, width=None, heads=8, scale=0.2, rng=None):
        """Gaussian fixture weights (deterministic under a seeded rng)."""
        rng = rng or np.random.default_rng(0)
        width = width or d_q
        return cls(w_q=scale * rng.standard_normal((d_q, width)),
                   w_k=scale * rng.standard_normal((d_ctx, width)),
                   w_v=scale * rng.standard_normal((d_ctx, width)),
                   w_o=scale * rng.standard_normal((width, d_q)),
                   heads=heads)

    def with_zero_values(self):
        return AttentionWeights(self.w_q, self.w_k, np.zeros_like(self.w_v),
                                self.w_o, heads=self.heads)


def cross_attention(queries, context, weights: AttentionWeights):
    """Scaled-dot-product multi-head attention plus residual.

    queries (N, d_q), context (M, d_ctx) -> (N, d_q).
    Keys/values come from the context; scores are scaled by
    1/sqrt(head_dim) before the softmax.
    """
    q_in = np.asarray(queries, dtype=np.float64)
    ctx = np.asarray(context, dtype=np.float64)
    if q_in.ndim != 2 or ctx.ndim != 2:
        raise ShapeError("queries and context must be 2-D")
    weights.validate(d_q=q_in.shape[1], d_ctx=ctx.shape[1])

    width = weights.w_q.shape[1]
    head_dim = width // weights.heads
    q = q_in @ weights.w_q
    k = ctx @ weights.w_k
    v = ctx @ weights.w_v
    out = np.empty_like(q)
    for h in range(weights.heads):
        sl = slice(h * head_dim, (h + 1) * head_dim)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(head_dim)
        out[:, sl] = softmax_rows(scores) @ v[:, sl]
    return out @ weights.w_o + q_in


def hierarchical_condition(result: AssignmentResult, global_token, part_tokens,
                           stage1: AttentionWeights, stage2: AttentionWeights):
    """Condition refined point features on the global token, then on part tokens."""
    t0 = np.asarray(global_token, dtype=np.float64)
    if t0.ndim == 1:
        t0 = t0[None, :]
    h_g = cross_attention(result.refined, t0, stage1)
    return cross_attention(h_g, np.asarray(part_tokens, dtype=np.float64), stage2)


def bundle_to_dict(bundle: FeatureBundle) -> dict:
    return {
        "format": "feature-bundle",
        "version": 1,
        "tau": bundle.tau,
        "point_features": bundle.point_features.tolist(),
        "global_token": bundle.global_token.tolist(),
        "part_tokens": bundle.part_tokens.tolist(),
        "phi": bundle.phi.tolist(),
        "psi": bundle.psi.tolist(),
        "w_val": bundle.w_val.tolist(),
    }


def bundle_from_dict(d: dict) -> FeatureBundle:
    if d.get("format") != "feature-bundle":
        raise IoError("not a feature-bundle document")
    arrays = {key: require_key(d, key, "feature-bundle") for key in
              ("point_features", "global_token", "part_tokens", "phi", "psi",
               "w_val")}
    return FeatureBundle(tau=float(d.get("tau", DEFAULT_TAU)),
                         **arrays).validate()


def write_bundle(bundle: FeatureBundle, path):
    try:
        Path(path).write_text(json.dumps(bundle_to_dict(bundle), indent=1) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write bundle to {path}: {exc}") from exc


def read_bundle(path) -> FeatureBundle:
    return bundle_from_dict(read_json(path, "bundle"))


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
