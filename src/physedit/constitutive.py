"""Stress laws and plastic return mappings for the six material classes.

Every evaluation decomposes each particle's deformation gradient once,
F = U diag(sigma) V^T with proper rotations U, V (``svd3``), and derives
everything else from that single decomposition: J = sigma_1 sigma_2
sigma_3, R = U V^T, J F^-T = U diag(J / sigma) V^T, and the projected
gradient U diag(sigma') V^T of the return mappings.  Each law is then
P = U diag(p) V^T for a vector p of principal stresses:

  Elastic     fixed corotated  P = 2 mu (F - R) + lambda (J - 1) J F^-T,
              p = 2 mu (sigma - 1) + lambda (J - 1) J / sigma
  Rigid       fixed corotated with the particle's own E; the solver
              keeps a rigid particle's F = I (each rigid group moves as
              one rigid body), where the stress is exactly 0
  Liquid      mu = 0; F reset to the isotropic J^(1/3) I so only volume
              change carries stress, P = lambda (J - 1) J^(2/3) I
  Plasticine  corotated elasticity, von Mises return mapping on the
              principal log strains, yield stress YIELD_STRESS = 1e4 Pa
  Sand        Hencky elasticity with Drucker-Prager projection of the
              log strains (non-associative, cohesionless, friction angle
              FRICTION_ANGLE_DEG = 30 deg),
              p = (2 mu eps + lambda tr eps) / sigma
  Snow        corotated with singular values clamped to [1 - SNOW_THETA_C,
              1 + SNOW_THETA_S], SNOW_THETA_C = 2.5e-2, SNOW_THETA_S = 7.5e-3

These four plasticity constants are module constants, the same for every
particle of a class.  The solver forms the Kirchhoff product P F^T itself.

``svd3`` runs its Jacobi sweeps on F^T F / tr(F^T F), whose entries lie
in [-1, 1] at any scale of F, so each rotation is a plain sqrt of squares
rather than the much slower overflow-safe np.hypot.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .materials import MaterialClass

YIELD_STRESS = 1e4
FRICTION_ANGLE_DEG = 30.0
SNOW_THETA_C = 2.5e-2
SNOW_THETA_S = 7.5e-3

_SIGMA_FLOOR = 1e-6  # keeps log strains finite under extreme compression
_PAIRS = ((0, 1), (0, 2), (1, 2))
# Cyclic Jacobi on a 3x3 symmetric matrix converges quadratically; four
# sweeps reach working precision (TestSvd3 checks reconstruction to 1e-13).
_JACOBI_SWEEPS = 4


def lame_parameters(e, nu):
    mu = e / (2.0 * (1.0 + nu))
    lam = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return mu, lam


def svd3(f):
    """Batched decomposition F = U diag(sigma) V^T of (N,3,3) matrices.

    U and V are proper rotations (det +1); sigma is in decreasing order,
    and its last entry carries the sign of det F.  V comes from cyclic
    Jacobi rotations on F^T F (McAdams et al. 2011), U and sigma from a
    Gram-Schmidt QR of F V, which keeps every sigma accurate relative to
    itself even when F is badly conditioned.  Returns (u, sigma, vt) in
    the layout of np.linalg.svd, all C-contiguous.

    The sweeps run on F^T F / tr(F^T F): V and the order of the
    eigenvalues do not depend on that scale, and sigma comes from F
    itself.  Every entry of the scaled matrix lies in [-1, 1] (|a_pq| <=
    sqrt(a_pp a_qq) <= tr), so the rotation's sqrt(d^2 + 4 a_pq^2) and
    cos = 1 / sqrt(1 + t^2), with |t| <= 1, cannot overflow at any scale
    of F; squares underflow only for entries below about 1e-154 of the
    trace, far under round-off.  So no np.hypot (several times the cost
    of a sqrt) is needed.
    """
    f = np.asarray(f, dtype=np.float64)
    n = f.shape[0]
    # cols[k] is column k of every F, (3, N)
    cols = np.ascontiguousarray(f.transpose(2, 1, 0))
    zero = np.zeros(n)

    # a[i][j] = (F^T F)_ij / tr(F^T F); a[i][j] and a[j][i] are the same array
    a = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            a[i][j] = a[j][i] = (cols[i] * cols[j]).sum(axis=0)
    trace = a[0][0] + a[1][1] + a[2][2]
    scale = np.divide(1.0, trace, out=np.ones(n), where=trace > 0)
    for i in range(3):
        for j in range(i, 3):
            a[i][j] = a[j][i] = a[i][j] * scale
    # v[c] is column c of every V, (3, N)
    v = [np.repeat(np.eye(3)[:, c, None], n, axis=1) for c in range(3)]
    for _ in range(_JACOBI_SWEEPS):
        for p, q in _PAIRS:
            r = 3 - p - q
            apq = a[p][q]
            d = a[q][q] - a[p][p]
            # t = tan of the rotation that zeroes a_pq, the smaller root of
            # t^2 + t d / a_pq - 1 = 0, in a form that never divides by a_pq;
            # the denominator is 0 only when a_pq = 0, and then t = 0
            two_apq = 2.0 * apq
            denom = d + np.copysign(np.sqrt(d * d + two_apq * two_apq), d)
            t = np.divide(two_apq, denom, out=np.zeros(n), where=denom != 0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            ta = t * apq
            a[p][p] = a[p][p] - ta
            a[q][q] = a[q][q] + ta
            a[p][q] = a[q][p] = zero
            arp, arq = a[r][p], a[r][q]
            a[r][p] = a[p][r] = c * arp - s * arq
            a[r][q] = a[q][r] = s * arp + c * arq
            vp, vq = v[p], v[q]
            v[p] = c * vp - s * vq
            v[q] = s * vp + c * vq

    # sort by decreasing eigenvalue; negating the moved column keeps det V = +1
    lam = [a[0][0], a[1][1], a[2][2]]
    for p, q in _PAIRS:
        swap = lam[p] < lam[q]
        lam[p], lam[q] = np.where(swap, lam[q], lam[p]), np.where(swap, lam[p], lam[q])
        vp, vq = v[p], v[q]
        v[p] = np.where(swap, vq, vp)
        v[q] = np.where(swap, -vp, vq)

    # QR of B = F V: B = U diag(sigma) up to round-off in its off-diagonal
    b = [cols[0] * v[c][0] + cols[1] * v[c][1] + cols[2] * v[c][2]
         for c in range(3)]
    n1 = np.sqrt((b[0] * b[0]).sum(axis=0))
    u1 = b[0] / np.where(n1 > 0, n1, 1.0)
    w2 = b[1] - (u1 * b[1]).sum(axis=0) * u1
    n2 = np.sqrt((w2 * w2).sum(axis=0))
    u2 = w2 / np.where(n2 > 0, n2, 1.0)
    u3 = np.stack([u1[1] * u2[2] - u1[2] * u2[1],
                   u1[2] * u2[0] - u1[0] * u2[2],
                   u1[0] * u2[1] - u1[1] * u2[0]])
    s3 = (u3 * b[2]).sum(axis=0)

    u = np.empty((n, 3, 3))
    vt = np.empty((n, 3, 3))
    np.stack([u1, u2, u3], out=u.transpose(2, 1, 0))
    np.stack(v, out=vt.transpose(1, 2, 0))
    sig = np.stack([n1, n2, s3], axis=1)
    return u, sig, vt


def _von_mises_project(eps, mu, yield_stress):
    """Return-map principal log strains onto the von Mises cylinder."""
    mean = eps.mean(axis=1, keepdims=True)
    dev = eps - mean
    dev_norm = np.linalg.norm(dev, axis=1)
    delta_gamma = dev_norm - yield_stress / (2.0 * mu)
    out = eps.copy()
    plastic = (delta_gamma > 0) & (dev_norm > 0)
    if np.any(plastic):
        scale = (delta_gamma[plastic] / dev_norm[plastic])[:, None]
        out[plastic] = eps[plastic] - scale * dev[plastic]
    return out


def _drucker_prager_project(eps, mu, lam, friction_angle_deg):
    """Project principal log strains onto the Drucker-Prager cone."""
    sin_phi = np.sin(np.deg2rad(friction_angle_deg))
    alpha = np.sqrt(2.0 / 3.0) * 2.0 * sin_phi / (3.0 - sin_phi)
    tr = eps.sum(axis=1)
    dev = eps - tr[:, None] / 3.0
    dev_norm = np.linalg.norm(dev, axis=1)
    out = eps.copy()

    expanding = tr > 0
    out[expanding] = 0.0

    packed = ~expanding
    delta_gamma = dev_norm + ((3.0 * lam + 2.0 * mu) / (2.0 * mu)) * tr * alpha
    yielding = packed & (delta_gamma > 0) & (dev_norm > 0)
    if np.any(yielding):
        scale = (delta_gamma[yielding] / dev_norm[yielding])[:, None]
        out[yielding] = eps[yielding] - scale * dev[yielding]
    return out


def _recompose(u, diag, vt):
    return (u * diag[:, None, :]) @ vt


def batch_constitutive(f, class_id, e, nu):
    """Vectorized stress evaluation over a particle batch.

    f (N,3,3), class_id (N,), e (N,), nu (N,).
    Returns (piola (N,3,3), f_new (N,3,3)).
    """
    f = np.asarray(f, dtype=np.float64)
    if not np.isfinite(f).all():
        i = int(np.flatnonzero(~np.isfinite(f).all(axis=(1, 2)))[0])
        raise NumericalError(f"particle {i}: non-finite deformation gradient",
                             particle=i)
    class_id = np.asarray(class_id)
    mu, lam = lame_parameters(e, nu)
    mu = np.where(class_id == MaterialClass.LIQUID, 0.0, mu)

    u, sig, vt = svd3(f)
    j = sig.prod(axis=1)
    if not np.all(j > 0):  # also catches NaN
        i = int(np.flatnonzero(~(j > 0))[0])
        raise NumericalError(
            f"particle {i}: deformation gradient lost positive determinant",
            particle=i)

    return_mapped = np.isin(class_id, (MaterialClass.PLASTICINE,
                                       MaterialClass.SAND,
                                       MaterialClass.SNOW))
    hencky = class_id == MaterialClass.SAND
    f_new = f.copy()

    if np.any(return_mapped):
        sig_proj = np.maximum(sig, _SIGMA_FLOOR)

        m = class_id == MaterialClass.PLASTICINE
        if np.any(m):
            eps = _von_mises_project(np.log(sig_proj[m]), mu[m], YIELD_STRESS)
            sig_proj[m] = np.exp(eps)
        if np.any(hencky):
            eps = _drucker_prager_project(np.log(sig_proj[hencky]), mu[hencky],
                                          lam[hencky], FRICTION_ANGLE_DEG)
            sig_proj[hencky] = np.exp(eps)
        m = class_id == MaterialClass.SNOW
        if np.any(m):
            sig_proj[m] = np.clip(sig_proj[m], 1.0 - SNOW_THETA_C,
                                  1.0 + SNOW_THETA_S)

        m = return_mapped
        f_new[m] = _recompose(u[m], sig_proj[m], vt[m])
        sig = np.where(m[:, None], sig_proj, sig)
        j = np.where(m, sig.prod(axis=1), j)

    # principal first Piola stresses; P = U diag(p) V^T
    p = (2.0 * mu[:, None] * (sig - 1.0)
         + (lam * (j - 1.0) * j)[:, None] / sig)
    if np.any(hencky):
        # Hencky-strain stress pairs with the log-strain projection:
        # tau = 2 mu eps + lam tr(eps);  p = tau / sigma
        eps = np.log(np.maximum(sig[hencky], _SIGMA_FLOOR))
        tau = (2.0 * mu[hencky, None] * eps
               + (lam[hencky] * eps.sum(axis=1))[:, None])
        p[hencky] = tau / sig[hencky]
    piola = _recompose(u, p, vt)

    m_liquid = class_id == MaterialClass.LIQUID
    if np.any(m_liquid):
        # fluids carry no rotation: F = J^(1/3) I, so J F^-T = J^(2/3) I
        cbrt_j = np.cbrt(j[m_liquid])
        f_new[m_liquid] = cbrt_j[:, None, None] * np.eye(3)
        piola[m_liquid] = (lam[m_liquid] * (j[m_liquid] - 1.0)
                           * cbrt_j * cbrt_j)[:, None, None] * np.eye(3)

    return piola, f_new
