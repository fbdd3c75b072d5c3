"""Supervision losses over material fields and assignment logits.

Four scalar terms and their weighted total:

* task        -- Huber regression on normalized parameters plus class
                 cross-entropy, averaged over points
* smoothness  -- discrete Dirichlet energy of the wave-speed fields
                 (c_p, c_s) on a kNN graph, neighbors restricted to the
                 same semantic part by default; neighbors rank by
                 (squared distance, index), so ties go to the lower index
* contrastive -- triplet hinge on L2-normalized log-(mu, K) embeddings
* assignment  -- cross-entropy between the temperature-scaled softmax of
                 point-to-prompt logits and the prompt of each point's part

Analytic gradients exist for every term solely so central finite
differences can verify the implementations; nothing here is trained.
The kNN graph depends only on positions and part labels, so it is built
once per field and shared by the smoothness value, its gradient and
every central-difference probe of that gradient.
Cross-entropy uses the natural logarithm throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .conditioning import DEFAULT_TAU, softmax_rows
from .errors import (DegenerateInput, DomainError, MissingMapping,
                     NonSmoothPoint, ShapeError)
from .materials import MaterialField, wave_speeds


@dataclass(frozen=True)
class LossWeights:
    """Loss weights and discretization constants.

    Defaults follow the training recipe this module mirrors:
    reg 1, cls 0.3, assign 0.1, smooth 0.02, con 5e-4.
    """

    lambda_reg: float = 1.0
    lambda_cls: float = 0.3
    lambda_smooth: float = 0.02
    lambda_con: float = 5e-4
    lambda_assign: float = 0.1
    margin: float = 0.2
    huber_delta: float = 1.0
    smooth_k: int = 8
    smooth_eps: float = 1e-8

    def validate(self):
        for name in ("lambda_reg", "lambda_cls", "lambda_smooth",
                     "lambda_con", "lambda_assign"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be non-negative")
        if self.margin <= 0:
            raise DomainError("margin must be positive")
        if self.huber_delta <= 0:
            raise DomainError("huber_delta must be positive")
        if self.smooth_k < 1:
            raise ShapeError("smooth_k must be >= 1")
        if self.smooth_eps <= 0:
            raise DomainError("smooth_eps must be positive")
        return self


@dataclass(frozen=True)
class SupervisionTargets:
    """Ground truth for one labeled field.

    class_labels    (N,) true constitutive class per point
    param_targets   (N, 3) true normalized (log10 E, nu, log10 rho)
    part_labels     (N,) semantic part index per point
    prompt_of_part  part label -> prompt column index
    """

    class_labels: np.ndarray
    param_targets: np.ndarray
    part_labels: np.ndarray
    prompt_of_part: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "class_labels",
                           np.asarray(self.class_labels, dtype=np.int64))
        object.__setattr__(self, "param_targets",
                           np.asarray(self.param_targets, dtype=np.float64))
        object.__setattr__(self, "part_labels",
                           np.asarray(self.part_labels, dtype=np.int64))

    def prompt_index(self, n_prompts: int) -> np.ndarray:
        """Map every point's part label through prompt_of_part."""
        out = np.empty(self.part_labels.shape[0], dtype=np.int64)
        for i, part in enumerate(self.part_labels):
            part = int(part)
            if part not in self.prompt_of_part:
                raise MissingMapping(f"part label {part} has no prompt index")
            k = int(self.prompt_of_part[part])
            if not (0 <= k < n_prompts):
                raise MissingMapping(
                    f"part {part} maps to prompt {k}, outside [0, {n_prompts})")
            out[i] = k
        return out


# ---------------------------------------------------------------------------
# task loss

def _huber(r, delta):
    a = np.abs(r)
    return np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))


def _huber_grad(r, delta):
    return np.where(np.abs(r) <= delta, r, delta * np.sign(r))


def _check_simplex(probs):
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ShapeError(f"probabilities must be 2-D, got {probs.shape}")
    if np.any(probs < -1e-12) or np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        raise DomainError("probability rows must sum to 1 with entries >= 0")
    return probs


def task_loss(pred_probs, pred_params, targets: SupervisionTargets,
              w: LossWeights) -> float:
    """Mean over points of reg-weighted Huber plus cls-weighted cross-entropy.

    The Huber term is summed over the three parameter channels per point.
    """
    probs = _check_simplex(pred_probs)
    params = np.asarray(pred_params, dtype=np.float64)
    n, c = probs.shape
    if params.shape != (n, 3):
        raise ShapeError(f"pred_params must be ({n}, 3), got {params.shape}")
    if targets.class_labels.shape != (n,) or targets.param_targets.shape != (n, 3):
        raise ShapeError("targets do not match prediction shapes")
    if np.any(targets.class_labels < 0) or np.any(targets.class_labels >= c):
        raise DomainError(f"class labels must lie in [0, {c})")

    huber = _huber(params - targets.param_targets, w.huber_delta).sum(axis=1)
    with np.errstate(divide="ignore"):
        ce = -np.log(probs[np.arange(n), targets.class_labels])
    return float(np.mean(w.lambda_reg * huber + w.lambda_cls * ce))


def task_loss_grad_params(pred_params, targets: SupervisionTargets,
                          w: LossWeights) -> np.ndarray:
    """d task / d pred_params, (N, 3)."""
    params = np.asarray(pred_params, dtype=np.float64)
    n = params.shape[0]
    return w.lambda_reg * _huber_grad(params - targets.param_targets,
                                      w.huber_delta) / n


# ---------------------------------------------------------------------------
# smoothness loss

def _knn_graph(f: MaterialField, k, within_part=True):
    """Directed kNN edges (src, dst), per-point neighbor counts and the
    squared edge lengths d2 = ||x_dst - x_src||^2.

    Neighbors of a point come from its own part when labels are present
    and within_part is set.  Candidates rank by (||x_j - x_i||^2, j), so
    ties go to the lower index: the k + 1 nearest fix a radius, and every
    point within it (plus 1e-9 relative slack) is re-ranked exactly.
    Points with no candidate neighbor get a count of 0.
    """
    pos = f.positions
    n = pos.shape[0]
    if n < 2:
        raise DegenerateInput("smoothness needs at least two points")
    labels = (f.part_label if within_part and f.part_label is not None
              else np.zeros(n, dtype=np.int32))
    src, dst, d2 = [], [], []
    for lab in np.unique(labels):
        idx = np.nonzero(labels == lab)[0]
        if idx.size < 2:
            continue
        kk = min(k, idx.size - 1)
        tree = cKDTree(pos[idx])
        radius = tree.query(pos[idx], k=kk + 1)[0][:, -1] * (1.0 + 1e-9)
        for i, ball in zip(idx, tree.query_ball_point(pos[idx], radius)):
            j = idx[ball]
            j = j[j != i]
            dd = np.sum((pos[j] - pos[i]) ** 2, axis=1)
            near = np.lexsort((j, dd))[:kk]
            src.extend([i] * kk)
            dst.extend(j[near])
            d2.extend(dd[near])
    src = np.asarray(src, dtype=np.int64)
    return (src, np.asarray(dst, dtype=np.int64), np.bincount(src, minlength=n),
            np.asarray(d2, dtype=np.float64))


@dataclass(frozen=True)
class SmoothnessBreakdown:
    value: float
    per_point: np.ndarray
    isolated: np.ndarray  # points with no same-part neighbor; contribute 0


def _smoothness_per_point(f: MaterialField, graph, eps):
    src, dst, counts, d2 = graph
    c_p, c_s = wave_speeds(f.young_modulus, f.poisson_ratio, f.density)
    per_point = np.zeros(f.n_points, dtype=np.float64)
    num = (c_p[dst] - c_p[src]) ** 2 + (c_s[dst] - c_s[src]) ** 2
    np.add.at(per_point, src, num / (d2 + eps))
    nz = counts > 0
    per_point[nz] /= counts[nz]
    return per_point


def smoothness_breakdown(f: MaterialField, w: LossWeights,
                         within_part: bool = True) -> SmoothnessBreakdown:
    """Per-point wave-speed Dirichlet energy on the kNN graph.

    Per point i with neighbors N(i):
        (1/|N(i)|) sum_j [(c_p(j)-c_p(i))^2 + (c_s(j)-c_s(i))^2]
                         / (||x_j - x_i||^2 + eps)
    The loss is the mean over all N points; isolated points contribute 0
    and are flagged (DegenerateInput is data here, not an error).
    """
    graph = _knn_graph(f, w.smooth_k, within_part)
    per_point = _smoothness_per_point(f, graph, w.smooth_eps)
    return SmoothnessBreakdown(value=float(per_point.mean()),
                               per_point=per_point,
                               isolated=np.nonzero(graph[2] == 0)[0])


def smoothness_loss(f: MaterialField, w: LossWeights,
                    within_part: bool = True) -> float:
    return smoothness_breakdown(f, w, within_part).value


def _wave_speed_param_jacobians(e, nu, rho):
    """d(c_p, c_s)/d(ln E, nu, ln rho); each entry shaped like the inputs."""
    c_p, c_s = wave_speeds(e, nu, rho)
    dcp = np.stack([
        0.5 * c_p,
        0.5 * c_p * (-1.0 / (1.0 - nu) - 1.0 / (1.0 + nu) + 2.0 / (1.0 - 2.0 * nu)),
        -0.5 * c_p,
    ], axis=-1)
    dcs = np.stack([
        0.5 * c_s,
        0.5 * c_s * (-1.0 / (1.0 + nu)),
        -0.5 * c_s,
    ], axis=-1)
    return c_p, c_s, dcp, dcs


def _smoothness_grad(f: MaterialField, graph, eps) -> np.ndarray:
    """d smoothness / d (ln E, nu, ln rho) on a fixed graph, (N, 3)."""
    n = f.n_points
    src, dst, counts, d2 = graph
    c_p, c_s, dcp, dcs = _wave_speed_param_jacobians(
        f.young_modulus, f.poisson_ratio, f.density)
    coef = 2.0 / (n * counts[src] * (d2 + eps))
    edge = coef[:, None] * np.stack([c_p[dst] - c_p[src],
                                     c_s[dst] - c_s[src]], axis=1)
    g = np.zeros((n, 2))  # d smoothness / d (c_p, c_s)
    np.add.at(g, src, -edge)
    np.add.at(g, dst, edge)
    return g[:, :1] * dcp + g[:, 1:] * dcs


# ---------------------------------------------------------------------------
# contrastive loss

def _log_moduli(e, nu):
    """[ln mu, ln K] rows and their norms; raises if a modulus is non-positive."""
    e = np.asarray(e, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    mu = e / (2.0 * (1.0 + nu))
    kappa = e / (3.0 * (1.0 - 2.0 * nu))
    if np.any(mu <= 0) or np.any(kappa <= 0) or np.any(~np.isfinite(mu + kappa)):
        raise DomainError("shear and bulk moduli must be positive and finite")
    u = np.stack([np.log(mu), np.log(kappa)], axis=-1)
    norms = np.linalg.norm(u, axis=-1)
    if np.any(norms == 0):
        raise DomainError("zero-magnitude log-moduli embedding (mu = K = 1)")
    return u, norms


def log_moduli_embeddings(e, nu):
    """L2-normalized [ln mu, ln K] rows; raises if a modulus is non-positive."""
    u, norms = _log_moduli(e, nu)
    return u / norms[..., None]


def _check_triplets(triplets, n):
    t = np.asarray(triplets, dtype=np.int64)
    if t.ndim != 2 or t.shape[1] != 3 or t.shape[0] < 1:
        raise ShapeError("triplets must be a non-empty (T, 3) index array")
    if np.any(t < 0) or np.any(t >= n):
        raise ShapeError("triplet index out of range")
    return t


def _hinges(emb, t, margin):
    d_pos = np.sum((emb[t[:, 0]] - emb[t[:, 1]]) ** 2, axis=1)
    d_neg = np.sum((emb[t[:, 0]] - emb[t[:, 2]]) ** 2, axis=1)
    return d_pos - d_neg + margin


def contrastive_hinge_values(f: MaterialField, triplets, w: LossWeights):
    """Raw hinge arguments per triplet (before max with 0)."""
    t = _check_triplets(triplets, f.n_points)
    emb = log_moduli_embeddings(f.young_modulus, f.poisson_ratio)
    return _hinges(emb, t, w.margin)


def contrastive_loss(f: MaterialField, triplets, w: LossWeights) -> float:
    """Mean triplet hinge over (anchor, positive, negative) index rows."""
    hinge = contrastive_hinge_values(f, triplets, w)
    return float(np.mean(np.maximum(0.0, hinge)))


def contrastive_loss_grad(f: MaterialField, triplets, w: LossWeights) -> np.ndarray:
    """d contrastive / d (ln E, nu, ln rho), (N, 3)."""
    t = _check_triplets(triplets, f.n_points)
    nu = f.poisson_ratio
    u, r = _log_moduli(f.young_modulus, nu)
    emb = u / r[:, None]

    ta = t[_hinges(emb, t, w.margin) > 0]
    ei, ep, en = emb[ta[:, 0]], emb[ta[:, 1]], emb[ta[:, 2]]
    coef = 1.0 / t.shape[0]
    g_emb = np.zeros_like(emb)
    np.add.at(g_emb, ta[:, 0], coef * 2.0 * (en - ep))
    np.add.at(g_emb, ta[:, 1], coef * (-2.0) * (ei - ep))
    np.add.at(g_emb, ta[:, 2], coef * 2.0 * (ei - en))

    # back through e = u / |u|:  J = (I - e e^T) / |u|
    g_u = (g_emb - emb * np.sum(g_emb * emb, axis=-1, keepdims=True)) / r[:, None]
    grad = np.zeros((f.n_points, 3))
    grad[:, 0] = g_u[:, 0] + g_u[:, 1]
    grad[:, 1] = g_u[:, 0] * (-1.0 / (1.0 + nu)) + g_u[:, 1] * (2.0 / (1.0 - 2.0 * nu))
    return grad


def sample_triplets(part_labels, n_triplets, seed=0):
    """Seeded (anchor, positive, negative) sampling.

    Anchors are uniform over points whose part has another member and at
    least one point belongs to a different part; positives are uniform
    within the anchor's part, negatives uniform outside it.
    """
    labels = np.asarray(part_labels, dtype=np.int64)
    n = labels.shape[0]
    rng = np.random.default_rng(seed)
    part_members = {lab: np.nonzero(labels == lab)[0] for lab in np.unique(labels)}
    eligible = [i for i in range(n)
                if part_members[labels[i]].size >= 2
                and part_members[labels[i]].size < n]
    if not eligible:
        raise DegenerateInput("no part has both a positive and a negative candidate")
    eligible = np.asarray(eligible)
    out = np.empty((n_triplets, 3), dtype=np.int64)
    for row in range(n_triplets):
        a = int(eligible[rng.integers(eligible.size)])
        same = part_members[labels[a]]
        same = same[same != a]
        p = int(same[rng.integers(same.size)])
        other = np.nonzero(labels != labels[a])[0]
        q = int(other[rng.integers(other.size)])
        out[row] = (a, p, q)
    return out


# ---------------------------------------------------------------------------
# assignment loss

def assignment_loss(logits, targets: SupervisionTargets,
                    tau: float = DEFAULT_TAU) -> float:
    """Cross-entropy of softmax_k(s_ik / tau) against each part's prompt."""
    s = np.asarray(logits, dtype=np.float64)
    if s.ndim != 2:
        raise ShapeError(f"logits must be (N, K), got {s.shape}")
    n, k = s.shape
    if targets.part_labels.shape != (n,):
        raise ShapeError("part labels do not match logits row count")
    if not (tau > 0):
        raise DomainError("tau must be positive")
    y = targets.prompt_index(k)
    scaled = s / tau
    # log-softmax, numerically stable
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_z - shifted[np.arange(n), y]))


def assignment_loss_grad(logits, targets: SupervisionTargets,
                         tau: float = DEFAULT_TAU) -> np.ndarray:
    """d assignment / d logits, (N, K)."""
    s = np.asarray(logits, dtype=np.float64)
    n, k = s.shape
    y = targets.prompt_index(k)
    a = softmax_rows(s / tau)
    a[np.arange(n), y] -= 1.0
    return a / (n * tau)


# ---------------------------------------------------------------------------
# total

def total_loss(pred_probs, pred_params, f: MaterialField, triplets, logits,
               targets: SupervisionTargets, w: LossWeights,
               tau: float = DEFAULT_TAU, within_part: bool = True):
    """Weighted sum of the four terms.

    Returns (total, breakdown) where breakdown holds each unweighted term.
    """
    w.validate()
    task = task_loss(pred_probs, pred_params, targets, w)
    smooth = smoothness_loss(f, w, within_part)
    con = contrastive_loss(f, triplets, w)
    assign = assignment_loss(logits, targets, tau)
    total = (task + w.lambda_smooth * smooth + w.lambda_con * con
             + w.lambda_assign * assign)
    breakdown = {"task": task, "smoothness": smooth,
                 "contrastive": con, "assignment": assign, "total": total}
    return total, breakdown


# ---------------------------------------------------------------------------
# finite-difference verification

def _field_with_params(f: MaterialField, p):
    """Rebuild a field from packed (ln E, nu, ln rho) rows."""
    return f.with_(young_modulus=np.exp(p[:, 0]), poisson_ratio=p[:, 1].copy(),
                   density=np.exp(p[:, 2]))


def _field_params(f: MaterialField):
    return np.stack([np.log(f.young_modulus), f.poisson_ratio,
                     np.log(f.density)], axis=1)


def _central_diff(fn, x, epsilon):
    x = x.astype(np.float64).copy()
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + epsilon
        hi = fn(x)
        flat[i] = keep - epsilon
        lo = fn(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2.0 * epsilon)
    return g


def _max_rel_err(analytic, fd):
    a = np.abs(analytic.reshape(-1))
    f = np.abs(fd.reshape(-1))
    diff = np.abs(analytic.reshape(-1) - fd.reshape(-1))
    gmax = max(a.max(initial=0.0), f.max(initial=0.0))
    if gmax == 0.0:
        return 0.0
    denom = np.maximum(np.maximum(a, f), 1e-3 * gmax)
    return float(np.max(diff / denom))


def finite_diff_check(loss_name: str, inputs: dict, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_name selects the probe:
      "task"        inputs: pred_probs, pred_params, targets, weights
                    (gradient w.r.t. pred_params)
      "smoothness"  inputs: field, weights[, within_part]
      "contrastive" inputs: field, triplets, weights
      "assignment"  inputs: logits, targets[, tau]

    Raises NonSmoothPoint when the probe sits on a Huber kink or an
    inactive/active hinge boundary (within 10 * epsilon).
    """
    w = inputs.get("weights", LossWeights())
    boundary = 10.0 * epsilon

    if loss_name == "task":
        targets = inputs["targets"]
        x = np.asarray(inputs["pred_params"], dtype=np.float64)
        resid = np.abs(x - targets.param_targets)
        if np.any(np.abs(resid - w.huber_delta) < boundary):
            raise NonSmoothPoint("residual sits on the Huber kink")
        probs = inputs["pred_probs"]
        analytic = task_loss_grad_params(x, targets, w)
        fn = lambda p: task_loss(probs, p, targets, w)
    elif loss_name == "smoothness":
        f = inputs["field"]
        x = _field_params(f)
        # no probe moves a position or a label, so one graph serves them all
        graph = _knn_graph(f, w.smooth_k, inputs.get("within_part", True))
        analytic = _smoothness_grad(f, graph, w.smooth_eps)
        fn = lambda p: _smoothness_per_point(
            _field_with_params(f, p), graph, w.smooth_eps).mean()
    elif loss_name == "contrastive":
        f = inputs["field"]
        x = _field_params(f)
        triplets = inputs["triplets"]
        if np.any(np.abs(contrastive_hinge_values(f, triplets, w)) < boundary):
            raise NonSmoothPoint("a triplet sits on the hinge boundary")
        analytic = contrastive_loss_grad(f, triplets, w)
        fn = lambda p: contrastive_loss(
            _field_with_params(f, p), triplets, w)
    elif loss_name == "assignment":
        targets = inputs["targets"]
        tau = inputs.get("tau", DEFAULT_TAU)
        x = np.asarray(inputs["logits"], dtype=np.float64)
        analytic = assignment_loss_grad(x, targets, tau)
        fn = lambda s: assignment_loss(s, targets, tau)
    else:
        raise DomainError(f"unknown loss name {loss_name!r}")
    return _max_rel_err(analytic, _central_diff(fn, x, epsilon))
