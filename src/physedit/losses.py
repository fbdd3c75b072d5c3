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

Each term has one arithmetic core that accepts leading batch axes; the
public functions validate their inputs and call it without one.  A
gradient check evaluates the core on blocks of probes: a block is a
stack of 2B copies of the probed input, each with one coordinate moved
to x_i + epsilon or x_i - epsilon, and B is set so that a block holds at
most _BLOCK_VALUES values.  Inputs no probe moves (simplex rows, shapes,
triplet indices, the prompt of each part) are validated once before the
probes; the range checks on perturbed values (the Poisson ratio range of
wave_speeds, the positive moduli of the contrastive embedding) run on
every block.  Every batched reduction runs over a C-ordered last axis,
so each probe's loss, and hence the gradient, equals the one-probe-at-a-
time value bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .conditioning import DEFAULT_TAU, softmax_rows
from .errors import (DegenerateInput, DomainError, MissingMapping,
                     NonSmoothPoint, ShapeError)
from .materials import MaterialField, wave_speeds

# A block of central-difference probes holds at most this many perturbed
# values (and never less than one probe's pair), so the extra memory of a
# gradient check does not grow with the size of what it probes.
_BLOCK_VALUES = 1 << 13


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
        """Map every point's part label through prompt_of_part.

        MissingMapping names the part of the first point whose part has
        no prompt or maps outside [0, n_prompts).
        """
        parts, first, inverse = np.unique(self.part_labels, return_index=True,
                                          return_inverse=True)
        prompt = np.full(parts.shape, -1, dtype=np.int64)
        for j in np.argsort(first):  # parts in order of first appearance
            part = int(parts[j])
            if part not in self.prompt_of_part:
                raise MissingMapping(f"part label {part} has no prompt index")
            k = int(self.prompt_of_part[part])
            if not (0 <= k < n_prompts):
                raise MissingMapping(
                    f"part {part} maps to prompt {k}, outside [0, {n_prompts})")
            prompt[j] = k
        return prompt[inverse]


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


def _task_cross_entropy(pred_probs, params, targets: SupervisionTargets):
    """Validate the task inputs; the per-point cross-entropy, (N,)."""
    probs = _check_simplex(pred_probs)
    n, c = probs.shape
    if params.shape != (n, 3):
        raise ShapeError(f"pred_params must be ({n}, 3), got {params.shape}")
    if targets.class_labels.shape != (n,) or targets.param_targets.shape != (n, 3):
        raise ShapeError("targets do not match prediction shapes")
    if np.any(targets.class_labels < 0) or np.any(targets.class_labels >= c):
        raise DomainError(f"class labels must lie in [0, {c})")
    with np.errstate(divide="ignore"):
        return -np.log(probs[np.arange(n), targets.class_labels])


def _task_core(params, param_targets, ce, w: LossWeights):
    """Task loss over the last two axes of params, (..., N, 3) -> (...)."""
    huber = _huber(params - param_targets, w.huber_delta).sum(axis=-1)
    return np.mean(w.lambda_reg * huber + w.lambda_cls * ce, axis=-1)


def task_loss(pred_probs, pred_params, targets: SupervisionTargets,
              w: LossWeights) -> float:
    """Mean over points of reg-weighted Huber plus cls-weighted cross-entropy.

    The Huber term is summed over the three parameter channels per point.
    """
    params = np.asarray(pred_params, dtype=np.float64)
    ce = _task_cross_entropy(pred_probs, params, targets)
    return float(_task_core(params, targets.param_targets, ce, w))


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


def _smoothness_per_point(e, nu, rho, graph, eps):
    """Per-point energy over the last axis of (E, nu, rho), (..., N).

    Edge terms are summed into (probe, point) bins by one bincount, in
    edge order, so each row equals the unbatched sum bit for bit.
    """
    src, dst, counts, d2 = graph
    c_p, c_s = wave_speeds(e, nu, rho)
    n = counts.shape[0]
    lead = c_p.shape[:-1]
    rows = int(np.prod(lead))
    dp = np.take(c_p, dst, axis=-1) - np.take(c_p, src, axis=-1)
    ds = np.take(c_s, dst, axis=-1) - np.take(c_s, src, axis=-1)
    edge = (dp * dp + ds * ds) / (d2 + eps)
    bins = (np.arange(rows)[:, None] * n + src).reshape(-1)
    per_point = np.bincount(bins, weights=edge.reshape(-1),
                            minlength=rows * n).reshape(*lead, n)
    nz = counts > 0
    per_point[..., nz] /= counts[nz]
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
    per_point = _smoothness_per_point(f.young_modulus, f.poisson_ratio,
                                      f.density, graph, w.smooth_eps)
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
    """Hinge arguments per triplet over embeddings (..., N, 2) -> (..., T).

    np.take keeps the result C-ordered, so a row mean over T adds in the
    same order as the mean of one unbatched row.
    """
    anchor = np.take(emb, t[:, 0], axis=-2)
    d_pos = np.sum((anchor - np.take(emb, t[:, 1], axis=-2)) ** 2, axis=-1)
    d_neg = np.sum((anchor - np.take(emb, t[:, 2], axis=-2)) ** 2, axis=-1)
    return d_pos - d_neg + margin


def _contrastive_core(e, nu, t, margin):
    """Mean triplet hinge over the last axis of (E, nu), (..., N) -> (...)."""
    hinge = _hinges(log_moduli_embeddings(e, nu), t, margin)
    return np.mean(np.maximum(0.0, hinge), axis=-1)


def contrastive_hinge_values(f: MaterialField, triplets, w: LossWeights):
    """Raw hinge arguments per triplet (before max with 0)."""
    t = _check_triplets(triplets, f.n_points)
    emb = log_moduli_embeddings(f.young_modulus, f.poisson_ratio)
    return _hinges(emb, t, w.margin)


def contrastive_loss(f: MaterialField, triplets, w: LossWeights) -> float:
    """Mean triplet hinge over (anchor, positive, negative) index rows."""
    t = _check_triplets(triplets, f.n_points)
    return float(_contrastive_core(f.young_modulus, f.poisson_ratio, t,
                                   w.margin))


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

def _assignment_prompts(s, targets: SupervisionTargets, tau):
    """Validate the assignment inputs; each point's prompt column, (N,)."""
    if s.ndim != 2:
        raise ShapeError(f"logits must be (N, K), got {s.shape}")
    n, k = s.shape
    if targets.part_labels.shape != (n,):
        raise ShapeError("part labels do not match logits row count")
    if not (tau > 0):
        raise DomainError("tau must be positive")
    return targets.prompt_index(k)


def _assignment_core(s, y, tau):
    """Mean cross-entropy over the last two axes of s, (..., N, K) -> (...)."""
    scaled = s / tau
    # log-softmax, numerically stable
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    return np.mean(log_z - shifted[..., np.arange(y.shape[0]), y], axis=-1)


def assignment_loss(logits, targets: SupervisionTargets,
                    tau: float = DEFAULT_TAU) -> float:
    """Cross-entropy of softmax_k(s_ik / tau) against each part's prompt."""
    s = np.asarray(logits, dtype=np.float64)
    y = _assignment_prompts(s, targets, tau)
    return float(_assignment_core(s, y, tau))


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

def _field_params(f: MaterialField):
    """Packed (ln E, nu, ln rho) rows, the coordinates the field probes move."""
    return np.stack([np.log(f.young_modulus), f.poisson_ratio,
                     np.log(f.density)], axis=1)


def _probes_per_block(size):
    """Probes per block for an input of `size` coordinates (at least one)."""
    return max(1, _BLOCK_VALUES // (2 * max(size, 1)))


def _central_diff(fn, x, epsilon):
    """Central-difference gradient of fn at x, one block of probes per call.

    fn maps a stack of inputs shaped (M, *x.shape) to M loss values.  A
    block of B probes is the stack of x with coordinate i set to
    x_i + epsilon (rows 0..B-1) and to x_i - epsilon (rows B..2B-1).
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    g = np.empty(flat.size)
    per_block = _probes_per_block(flat.size)
    for start in range(0, flat.size, per_block):
        idx = np.arange(start, min(start + per_block, flat.size))
        b = idx.size
        block = np.tile(flat, (2 * b, 1))
        rows = np.arange(b)
        block[rows, idx] = flat[idx] + epsilon
        block[rows + b, idx] = flat[idx] - epsilon
        values = fn(block.reshape(2 * b, *x.shape))
        g[idx] = (values[:b] - values[b:]) / (2.0 * epsilon)
    return g.reshape(x.shape)


def _max_rel_err(analytic, fd):
    a = np.abs(analytic.reshape(-1))
    f = np.abs(fd.reshape(-1))
    diff = np.abs(analytic.reshape(-1) - fd.reshape(-1))
    gmax = max(a.max(initial=0.0), f.max(initial=0.0))
    if gmax == 0.0:
        return 0.0
    denom = np.maximum(np.maximum(a, f), 1e-3 * gmax)
    return float(np.max(diff / denom))


def _gradient_probe(loss_name: str, inputs: dict, epsilon: float):
    """(x, analytic gradient at x, block loss) for one finite_diff_check probe.

    The block loss maps a stack of perturbed copies of x to their loss
    values.  Inputs no probe moves are validated here, once; the checks
    on perturbed values run inside the block loss, on every block.
    """
    w = inputs.get("weights", LossWeights())
    boundary = 10.0 * epsilon

    if loss_name == "task":
        targets = inputs["targets"]
        x = np.asarray(inputs["pred_params"], dtype=np.float64)
        ce = _task_cross_entropy(inputs["pred_probs"], x, targets)
        resid = np.abs(x - targets.param_targets)
        if np.any(np.abs(resid - w.huber_delta) < boundary):
            raise NonSmoothPoint("residual sits on the Huber kink")
        analytic = task_loss_grad_params(x, targets, w)
        fn = lambda p: _task_core(p, targets.param_targets, ce, w)
    elif loss_name == "smoothness":
        f = inputs["field"]
        x = _field_params(f)
        # no probe moves a position or a label, so one graph serves them all
        graph = _knn_graph(f, w.smooth_k, inputs.get("within_part", True))
        analytic = _smoothness_grad(f, graph, w.smooth_eps)
        fn = lambda p: _smoothness_per_point(
            np.exp(p[..., 0]), p[..., 1], np.exp(p[..., 2]), graph,
            w.smooth_eps).mean(axis=-1)
    elif loss_name == "contrastive":
        f = inputs["field"]
        x = _field_params(f)
        t = _check_triplets(inputs["triplets"], f.n_points)
        if np.any(np.abs(contrastive_hinge_values(f, t, w)) < boundary):
            raise NonSmoothPoint("a triplet sits on the hinge boundary")
        analytic = contrastive_loss_grad(f, t, w)
        fn = lambda p: _contrastive_core(np.exp(p[..., 0]), p[..., 1], t,
                                         w.margin)
    elif loss_name == "assignment":
        targets = inputs["targets"]
        tau = inputs.get("tau", DEFAULT_TAU)
        x = np.asarray(inputs["logits"], dtype=np.float64)
        y = _assignment_prompts(x, targets, tau)
        analytic = assignment_loss_grad(x, targets, tau)
        fn = lambda s: _assignment_core(s, y, tau)
    else:
        raise DomainError(f"unknown loss name {loss_name!r}")
    return x, analytic, fn


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
    x, analytic, fn = _gradient_probe(loss_name, inputs, epsilon)
    return _max_rel_err(analytic, _central_diff(fn, x, epsilon))
