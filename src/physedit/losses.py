"""Supervision losses over material fields and assignment logits.

Four scalar terms and their weighted total:

* task        -- Huber regression on normalized parameters plus class
                 cross-entropy, averaged over points
* smoothness  -- discrete Dirichlet energy of the wave-speed fields
                 (c_p, c_s) on a kNN graph within each semantic part
                 (``_knn_graph``)
* contrastive -- triplet hinge on L2-normalized log-(mu, K) embeddings
* assignment  -- cross-entropy between the temperature-scaled softmax of
                 point-to-prompt logits and the prompt of each point's part

Cross-entropy uses the natural logarithm throughout.  Nothing here is
trained: ``finite_diff_check`` verifies each term's analytic gradient
against central differences (``_Probe``, ``_central_diff``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .conditioning import DEFAULT_TAU, softmax_rows
from .errors import (DegenerateInput, DomainError, MissingMapping,
                     NonSmoothPoint, ShapeError, check_size)
from .fill import nearest_ranked
from .materials import MaterialField, wave_speeds

# The term matrix of a block of central-difference probes holds at most
# this many values (and never less than one probe's pair), so the extra
# memory of a gradient check does not grow with the size of what it probes.
_BLOCK_VALUES = 1 << 13
# sample_triplets refuses larger counts before allocating.  Its loop costs
# about 20 us per triplet at 200 points and 47 us at 10k points (2-vCPU
# host), so the largest accepted sample takes 1.3 to 3 s.
MAX_TRIPLETS = 1 << 16


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


def _task_terms(params, param_targets, ce, w: LossWeights):
    """Per-point task terms of (M, 3) params, (M,)."""
    huber = _huber(params - param_targets, w.huber_delta).sum(axis=-1)
    return w.lambda_reg * huber + w.lambda_cls * ce


def task_loss(pred_probs, pred_params, targets: SupervisionTargets,
              w: LossWeights) -> float:
    """Mean over points of reg-weighted Huber plus cls-weighted cross-entropy.

    The Huber term is summed over the three parameter channels per point.
    """
    w.validate()
    params = np.asarray(pred_params, dtype=np.float64)
    ce = _task_cross_entropy(pred_probs, params, targets)
    return float(np.mean(_task_terms(params, targets.param_targets, ce, w)))


# ---------------------------------------------------------------------------
# smoothness loss

def _knn_graph(f: MaterialField, k):
    """Directed kNN edges (src, dst), per-point neighbor counts and the
    squared edge lengths d2 = ||x_dst - x_src||^2.

    Neighbors of a point come from its own part when the field has part
    labels (a field without them is one part), ranked by
    fill.nearest_ranked.  Edges run part by part (in label order),
    point by point within a part, and by rank within a point.  Points
    with no candidate neighbor get a count of 0.  ShapeError if k < 1.
    """
    from scipy.spatial import cKDTree  # imported on use, as in fill

    if k < 1:
        raise ShapeError("smooth_k must be >= 1")
    pos = f.positions
    n = pos.shape[0]
    if n < 2:
        raise DegenerateInput("smoothness needs at least two points")
    labels = (f.part_label if f.part_label is not None
              else np.zeros(n, dtype=np.int32))
    src, dst, d2 = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for lab in np.unique(labels):
        idx = np.nonzero(labels == lab)[0]
        if idx.size < 2:
            continue
        kk = min(k, idx.size - 1)
        dd, near = nearest_ranked(cKDTree(pos[idx]), pos[idx], kk,
                                  exclude=np.arange(idx.size))
        src.append(np.repeat(idx, kk))
        dst.append(idx[near].ravel())
        d2.append(dd.ravel())
    src = np.concatenate(src)
    return (src, np.concatenate(dst), np.bincount(src, minlength=n),
            np.concatenate(d2))


def _edge_energy(cp_src, cp_dst, cs_src, cs_dst, d2, eps):
    """Wave-speed Dirichlet energy of each edge."""
    dp = cp_dst - cp_src
    ds = cs_dst - cs_src
    return (dp * dp + ds * ds) / (d2 + eps)


def _smoothness_terms(c_p, c_s, graph, eps):
    """Per-point energy, (N,): each point's edge energies summed in edge
    order by one bincount, over its neighbor count."""
    src, dst, counts, d2 = graph
    edge = _edge_energy(c_p[src], c_p[dst], c_s[src], c_s[dst], d2, eps)
    # a bincount of no edges is an integer array, even with weights
    per_point = np.bincount(src, weights=edge,
                            minlength=counts.shape[0]).astype(np.float64)
    nz = counts > 0
    per_point[nz] /= counts[nz]
    return per_point


def smoothness_loss(f: MaterialField, w: LossWeights, graph=None) -> float:
    """Mean over points of the wave-speed Dirichlet energy on the kNN graph.

    Per point i with neighbors N(i):
        (1/|N(i)|) sum_j [(c_p(j)-c_p(i))^2 + (c_s(j)-c_s(i))^2]
                         / (||x_j - x_i||^2 + eps)
    A point with no neighbor contributes 0.  smooth_eps may be 0 here,
    for the exact energy of distinct positions.  graph is
    ``_knn_graph(f, w.smooth_k)``, built here if not given.
    """
    if graph is None:
        graph = _knn_graph(f, w.smooth_k)
    c_p, c_s = wave_speeds(f.young_modulus, f.poisson_ratio, f.density)
    return float(np.mean(_smoothness_terms(c_p, c_s, graph, w.smooth_eps)))


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


def _hinge(anchor, positive, negative, margin):
    """Hinge argument of (anchor, positive, negative) embedding rows."""
    d_pos = np.sum((anchor - positive) ** 2, axis=-1)
    d_neg = np.sum((anchor - negative) ** 2, axis=-1)
    return d_pos - d_neg + margin


def _hinges(emb, t, margin):
    """Hinge argument per triplet over embeddings (N, 2), (T,)."""
    return _hinge(emb[t[:, 0]], emb[t[:, 1]], emb[t[:, 2]], margin)


def contrastive_hinge_values(f: MaterialField, triplets, w: LossWeights):
    """Raw hinge arguments per triplet (before max with 0)."""
    t = _check_triplets(triplets, f.n_points)
    emb = log_moduli_embeddings(f.young_modulus, f.poisson_ratio)
    return _hinges(emb, t, w.margin)


def contrastive_loss(f: MaterialField, triplets, w: LossWeights) -> float:
    """Mean triplet hinge over (anchor, positive, negative) index rows."""
    w.validate()
    hinge = contrastive_hinge_values(f, triplets, w)
    return float(np.mean(np.maximum(0.0, hinge)))


def sample_triplets(part_labels, n_triplets, seed=0):
    """Seeded (anchor, positive, negative) sampling.

    Anchors are uniform over points whose part has another member and at
    least one point belongs to a different part; positives are uniform
    within the anchor's part, negatives uniform outside it.  WorkBudget
    if n_triplets exceeds MAX_TRIPLETS.
    """
    check_size("analyze", n_triplets, MAX_TRIPLETS, "sampled triplets")
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


def _assignment_terms(s, y, tau):
    """Per-row cross-entropy of (M, K) logits against prompts y, (M,)."""
    scaled = s / tau
    # log-softmax, numerically stable
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    return log_z - shifted[np.arange(y.shape[0]), y]


def assignment_loss(logits, targets: SupervisionTargets,
                    tau: float = DEFAULT_TAU) -> float:
    """Cross-entropy of softmax_k(s_ik / tau) against each part's prompt."""
    s = np.asarray(logits, dtype=np.float64)
    y = _assignment_prompts(s, targets, tau)
    return float(np.mean(_assignment_terms(s, y, tau)))


# ---------------------------------------------------------------------------
# total

def total_loss(pred_probs, pred_params, f: MaterialField, triplets, logits,
               targets: SupervisionTargets, w: LossWeights,
               tau: float = DEFAULT_TAU, graph=None):
    """Weighted sum of the four terms; graph as in smoothness_loss.

    Returns (total, breakdown) where breakdown holds each unweighted term.
    """
    task = task_loss(pred_probs, pred_params, targets, w)
    smooth = smoothness_loss(f, w, graph)
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


def _probes_per_block(n_terms):
    """Probes per block for a loss of `n_terms` terms (at least one)."""
    return max(1, _BLOCK_VALUES // (2 * max(n_terms, 1)))


def _csr(rows, cols, n_rows):
    """The distinct (row, col) pairs as (ptr, cols): row r's columns are
    cols[ptr[r]:ptr[r + 1]], ascending."""
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    return (np.r_[0, np.cumsum(np.bincount(rows[first], minlength=n_rows))],
            cols[first])


def _segments(ptr, rows):
    """(owner, position) of every entry of the CSR segments of `rows`, in
    order: entry q lies at ptr[rows[owner[q]]] + its offset in that row."""
    start = ptr[rows]
    size = ptr[rows + 1] - start
    owner = np.repeat(np.arange(rows.size), size)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
    return owner, np.repeat(start, size) + offset


@dataclass(frozen=True)
class _Probe:
    """One loss, ready for central differences.

    x         the probed input, (R, C)
    terms     the loss terms at x, (T,); the loss is their mean
    reach     (ptr, term) CSR: term[ptr[r]:ptr[r + 1]] are the terms a
              coordinate of row r can change
    terms_at  (values, rows, owner, term) -> entry q is term[q] of the
              loss at x with row rows[owner[q]] replaced by values[owner[q]]
    analytic  the analytic gradient at x, (R, C)
    """

    x: np.ndarray
    terms: np.ndarray
    reach: tuple
    terms_at: Callable
    analytic: np.ndarray


def _central_diff(probe: _Probe, epsilon):
    """Central-difference gradient of the probed loss, one block per pass.

    A block of B probes moves coordinate i of x to x_i + epsilon (probes
    0..B-1) and to x_i - epsilon (probes B..2B-1).  Each probe's row of
    the (2B, T) term matrix starts as the terms at x, the terms its row
    reaches are re-evaluated, and its loss is the row mean.  A
    re-evaluated term adds the same values in the same order as the full
    loss, and each row mean runs over a C-ordered last axis, so the
    gradient equals the one-probe-at-a-time value bit for bit.
    """
    x = probe.x
    flat = x.reshape(-1)
    ptr, reached = probe.reach
    g = np.empty(flat.size)
    per_block = _probes_per_block(probe.terms.size)
    for start in range(0, flat.size, per_block):
        idx = np.arange(start, min(start + per_block, flat.size))
        b = idx.size
        rows = np.concatenate([idx // x.shape[1]] * 2)
        cols = idx % x.shape[1]
        values = x[rows]
        values[np.arange(b), cols] += epsilon
        values[np.arange(b, 2 * b), cols] -= epsilon
        owner, at = _segments(ptr, rows)
        term = reached[at]
        terms = np.repeat(probe.terms[None], 2 * b, axis=0)
        terms[owner, term] = probe.terms_at(values, rows, owner, term)
        loss = np.mean(terms, axis=-1)
        g[idx] = (loss[:b] - loss[b:]) / (2.0 * epsilon)
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


def _own_row(n):
    """The reach of a loss with one term per row, its own."""
    return np.arange(n + 1), np.arange(n)


# Each builder takes (inputs, validated weights, boundary), validates the
# inputs no probe moves once and computes the analytic gradient; the range
# checks on perturbed values run inside its terms_at, on every block.

def _task_probe(inputs, w, boundary) -> _Probe:
    targets = inputs["targets"]
    x = np.asarray(inputs["pred_params"], dtype=np.float64)
    ce = _task_cross_entropy(inputs["pred_probs"], x, targets)
    want = targets.param_targets
    resid = x - want
    if np.any(np.abs(np.abs(resid) - w.huber_delta) < boundary):
        raise NonSmoothPoint("residual sits on the Huber kink")
    huber_grad = np.where(np.abs(resid) <= w.huber_delta, resid,
                          w.huber_delta * np.sign(resid))
    return _Probe(
        x, _task_terms(x, want, ce, w), _own_row(x.shape[0]),
        lambda v, rows, owner, term: _task_terms(v[owner], want[term],
                                                 ce[term], w),
        w.lambda_reg * huber_grad / x.shape[0])


def _smoothness_probe(inputs, w, boundary) -> _Probe:
    f = inputs["field"]
    n, eps = f.n_points, w.smooth_eps
    x = _field_params(f)
    # no probe moves a position or a label, so one graph serves them all
    graph = inputs.get("graph")
    if graph is None:
        graph = _knn_graph(f, w.smooth_k)
    src, dst, counts, d2 = graph

    # the gradient goes through the speeds of the field's own E, nu and rho
    own_p, own_s, dcp, dcs = _wave_speed_param_jacobians(
        f.young_modulus, f.poisson_ratio, f.density)
    coef = 2.0 / (n * counts[src] * (d2 + eps))
    edge = coef[:, None] * np.stack([own_p[dst] - own_p[src],
                                     own_s[dst] - own_s[src]], axis=1)
    g = np.zeros((n, 2))  # d smoothness / d (c_p, c_s)
    np.add.at(g, src, -edge)
    np.add.at(g, dst, edge)

    # the terms go through the speeds of x
    c_p, c_s = wave_speeds(np.exp(x[:, 0]), x[:, 1], np.exp(x[:, 2]))
    by_src = np.argsort(src, kind="stable")  # each point's edges, in order
    ptr = np.r_[0, np.cumsum(counts)]

    def terms_at(values, rows, owner, term):
        # each reached point's energy, recomputed over all of its edges
        moved_p, moved_s = wave_speeds(np.exp(values[:, 0]), values[:, 1],
                                       np.exp(values[:, 2]))
        pair, at = _segments(ptr, term)
        edges = by_src[at]
        probe = owner[pair]
        row = rows[probe]

        def speed(c, moved, ends):
            return np.where(ends == row, moved[probe], c[ends])

        energy = _edge_energy(
            speed(c_p, moved_p, src[edges]), speed(c_p, moved_p, dst[edges]),
            speed(c_s, moved_s, src[edges]), speed(c_s, moved_s, dst[edges]),
            d2[edges], eps)
        return (np.bincount(pair, weights=energy, minlength=term.size)
                / counts[term])

    # row i reaches its own energy and that of every point it neighbors
    own = np.flatnonzero(counts)
    return _Probe(x, _smoothness_terms(c_p, c_s, graph, eps),
                  _csr(np.r_[dst, own], np.r_[src, own], n), terms_at,
                  g[:, :1] * dcp + g[:, 1:] * dcs)


def _contrastive_probe(inputs, w, boundary) -> _Probe:
    f = inputs["field"]
    x = _field_params(f)
    t = _check_triplets(inputs["triplets"], f.n_points)
    nu = f.poisson_ratio
    u, r = _log_moduli(f.young_modulus, nu)
    own = u / r[:, None]  # the embeddings of the field's own E and nu
    hinge = _hinges(own, t, w.margin)
    if np.any(np.abs(hinge) < boundary):
        raise NonSmoothPoint("a triplet sits on the hinge boundary")

    ta = t[hinge > 0]
    ei, ep, en = own[ta[:, 0]], own[ta[:, 1]], own[ta[:, 2]]
    coef = 1.0 / t.shape[0]
    g_emb = np.zeros_like(own)
    np.add.at(g_emb, ta[:, 0], coef * 2.0 * (en - ep))
    np.add.at(g_emb, ta[:, 1], coef * (-2.0) * (ei - ep))
    np.add.at(g_emb, ta[:, 2], coef * 2.0 * (ei - en))
    # back through e = u / |u|:  J = (I - e e^T) / |u|
    g_u = (g_emb - own * np.sum(g_emb * own, axis=-1, keepdims=True)) / r[:, None]
    grad = np.zeros_like(x)
    grad[:, 0] = g_u[:, 0] + g_u[:, 1]
    grad[:, 1] = g_u[:, 0] * (-1.0 / (1.0 + nu)) + g_u[:, 1] * (2.0 / (1.0 - 2.0 * nu))

    emb = log_moduli_embeddings(np.exp(x[:, 0]), x[:, 1])

    def terms_at(values, rows, owner, term):
        # each reached triplet's hinge, the moved row's embedding in its slots
        moved = log_moduli_embeddings(np.exp(values[:, 0]), values[:, 1])
        ends = t[term]
        slots = np.where((ends == rows[owner][:, None])[..., None],
                         moved[owner][:, None, :], emb[ends])
        return np.maximum(0.0, _hinge(slots[:, 0], slots[:, 1], slots[:, 2],
                                      w.margin))

    return _Probe(x, np.maximum(0.0, _hinges(emb, t, w.margin)),
                  _csr(t.T.reshape(-1), np.tile(np.arange(t.shape[0]), 3),
                       f.n_points),
                  terms_at, grad)


def _assignment_probe(inputs, w, boundary) -> _Probe:
    targets = inputs["targets"]
    tau = inputs.get("tau", DEFAULT_TAU)
    x = np.asarray(inputs["logits"], dtype=np.float64)
    y = _assignment_prompts(x, targets, tau)
    n = x.shape[0]
    grad = softmax_rows(x / tau)
    grad[np.arange(n), y] -= 1.0
    return _Probe(
        x, _assignment_terms(x, y, tau), _own_row(n),
        lambda v, rows, owner, term: _assignment_terms(v[owner], y[term],
                                                       tau),
        grad / (n * tau))


_PROBES = {"task": _task_probe, "smoothness": _smoothness_probe,
           "contrastive": _contrastive_probe, "assignment": _assignment_probe}


def _gradient_probe(loss_name: str, inputs: dict, epsilon: float) -> _Probe:
    """The _Probe of one finite_diff_check loss, from its _PROBES builder."""
    if loss_name not in _PROBES:
        raise DomainError(f"unknown loss name {loss_name!r}")
    w = inputs.get("weights", LossWeights()).validate()
    return _PROBES[loss_name](inputs, w, 10.0 * epsilon)


def finite_diff_check(loss_name: str, inputs: dict, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_name selects the probe:
      "task"        inputs: pred_probs, pred_params, targets[, weights]
                    (gradient w.r.t. pred_params)
      "smoothness"  inputs: field[, weights][, graph]; the field's part
                    labels, if any, restrict the neighbors; graph as in
                    smoothness_loss
      "contrastive" inputs: field, triplets[, weights]
      "assignment"  inputs: logits, targets[, tau]
    weights default to LossWeights(); DomainError or ShapeError if they
    break a LossWeights.validate rule.

    Raises NonSmoothPoint when the probe sits on a Huber kink or an
    inactive/active hinge boundary (within 10 * epsilon).
    """
    probe = _gradient_probe(loss_name, inputs, epsilon)
    return _max_rel_err(probe.analytic, _central_diff(probe, epsilon))
