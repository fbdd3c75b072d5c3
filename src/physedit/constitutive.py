"""Stress laws and plastic return mappings for the six material classes.

The solver needs only the Kirchhoff stress tau = P F^T (MLS-MPM, Hu et
al. 2018), so that is what ``batch_constitutive`` returns, together with
the updated F.  Each class does only its own work, on its own index list.
The ELASTIC, PLASTICINE, SAND and SNOW particles decompose F once,
F = U diag(sigma) V^T with proper rotations U, V (``svd3``), and derive
everything else from that single decomposition: J = sigma_1 sigma_2
sigma_3, the projected gradient U diag(sigma') V^T of the return
mappings, and tau = U diag(d) U^T for a vector d = p sigma of principal
Kirchhoff stresses, where P = U diag(p) V^T.  tau is formed exactly
symmetric, which keeps angular momentum (Jiang et al. 2015).

  Elastic     fixed corotated  P = 2 mu (F - R) + lambda (J - 1) J F^-T,
              d = 2 mu (sigma - 1) sigma + lambda (J - 1) J
  Rigid       skipped: tau = 0 and F unchanged.  The solver keeps a
              rigid particle's F = I (each rigid group moves as one
              rigid body), where the fixed-corotated stress is exactly 0
  Liquid      mu = 0, and only J, from the cofactor determinant of F; F
              is reset to the isotropic J^(1/3) I so only volume change
              carries stress, tau = lambda (J - 1) J I
  Plasticine  corotated elasticity, von Mises return mapping on the
              principal log strains, yield stress YIELD_STRESS = 1e4 Pa
  Sand        Hencky elasticity with Drucker-Prager projection of the
              log strains (non-associative, cohesionless, friction angle
              FRICTION_ANGLE_DEG = 30 deg), d = 2 mu eps + lambda tr eps
  Snow        corotated with singular values clamped to [1 - SNOW_THETA_C,
              1 + SNOW_THETA_S], SNOW_THETA_C = 2.5e-2, SNOW_THETA_S = 7.5e-3

These four plasticity constants are module constants, the same for every
particle of a class.

``svd3`` runs its Jacobi sweeps on F^T F / tr(F^T F), whose entries lie
in [-1, 1] at any scale of F, so each rotation is a plain sqrt of squares
rather than the much slower overflow-safe np.hypot.  A particle stops
rotating once every off-diagonal of that matrix satisfies
|a_pq| <= 4 eps sqrt(a_pp a_qq), the relative test of Demmel & Veselic
1992, "Jacobi's method is more accurate than QR", which keeps small
singular values accurate relative to themselves; _JACOBI_SWEEPS is only
a cap.  The test reads a particle's own entries alone, so each row of a
batch comes out bit for bit as it does in a one-row call.
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
_UPPER = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# Cyclic Jacobi on a 3x3 symmetric matrix converges quadratically; four
# sweeps reach working precision (TestSvd3 checks reconstruction to 1e-13).
# A cap: each particle stops rotating once its off-diagonals meet _OFF_TOL2.
_JACOBI_SWEEPS = 4
# An off-diagonal a_pq of the trace-normalized Gram matrix counts as zero when
# |a_pq| <= 4 eps sqrt(a_pp a_qq) (Demmel & Veselic 1992): 4 eps bounds the
# rounding error of forming the entry from F, so a smaller one cannot be told
# apart from 0.  Squared, so the test needs no sqrt.
_OFF_TOL2 = (4.0 * np.finfo(np.float64).eps) ** 2


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
    itself even when F is badly conditioned.  Returns (u, sigma, v): u[k]
    and v[k] are the (3, N) columns k of every U and V, sigma is (N, 3).

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
    v = np.zeros((3, 3, n))
    v[0, 0] = v[1, 1] = v[2, 2] = 1.0
    v = list(v)
    for _ in range(_JACOBI_SWEEPS):
        done = np.ones(n, dtype=bool)
        for p, q in _PAIRS:
            done &= a[p][q] * a[p][q] <= _OFF_TOL2 * (a[p][p] * a[q][q])
        if done.all():
            break
        # a done particle gets t = 0, so c = 1 and s = 0 exactly: its
        # diagonal, its V and its other off-diagonals pass through bit for
        # bit, and its zeroed pivots keep it done
        active = 1.0 - done
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
            t *= active
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

    return [u1, u2, u3], np.stack([n1, n2, s3], axis=1), v


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


def _recompose(u, d, v):
    """U diag(d) V^T, (N,3,3), from the (3, N) columns u[k], v[k] and d (N,3)."""
    ud = [u[k] * d[:, k] for k in range(3)]
    out = np.empty((d.shape[0], 3, 3))
    entries = out.transpose(1, 2, 0)  # entry (a, b) of every matrix
    for a in range(3):
        for b in range(3):
            entries[a, b] = (ud[0][a] * v[0][b] + ud[1][a] * v[1][b]
                             + ud[2][a] * v[2][b])
    return out


def _symmetric_recompose(u, d):
    """U diag(d) U^T, (N,3,3), exactly symmetric.

    Entry (a, b) sums (d u_a) u_b over the columns, which in floating point
    differs from the sum of (d u_b) u_a, so each of the six unique entries
    is formed once and mirrored.
    """
    ud = [u[k] * d[:, k] for k in range(3)]
    out = np.empty((d.shape[0], 3, 3))
    entries = out.transpose(1, 2, 0)
    for a, b in _UPPER:
        entries[a, b] = entries[b, a] = (ud[0][a] * u[0][b] + ud[1][a] * u[1][b]
                                         + ud[2][a] * u[2][b])
    return out


def _det3(f):
    """Cofactor determinant of (N,3,3) matrices."""
    return (f[:, 0, 0] * (f[:, 1, 1] * f[:, 2, 2] - f[:, 1, 2] * f[:, 2, 1])
            - f[:, 0, 1] * (f[:, 1, 0] * f[:, 2, 2] - f[:, 1, 2] * f[:, 2, 0])
            + f[:, 0, 2] * (f[:, 1, 0] * f[:, 2, 1] - f[:, 1, 1] * f[:, 2, 0]))


def _class_rows(class_id):
    """Particle indices grouped by class, and where each class begins.

    Class c's particles are order[start[c]:start[c + 1]], in index order.
    The stable sort runs on int8 keys, for which numpy uses a radix sort.
    """
    order = np.argsort(class_id.astype(np.int8), kind="stable")
    start = np.zeros(len(MaterialClass) + 1, dtype=np.int64)
    np.cumsum(np.bincount(class_id, minlength=len(MaterialClass)),
              out=start[1:])
    return order, start


def batch_constitutive(f, class_id, e, nu, rows=None):
    """Vectorized stress evaluation over a particle batch.

    f (N,3,3), class_id (N,), e (N,), nu (N,).  Returns (kirchhoff (N,3,3),
    f_new (N,3,3)); the Kirchhoff stress is exactly symmetric.  Each class
    does only its own work: ``svd3`` runs on the ELASTIC, PLASTICINE, SAND
    and SNOW particles, LIQUID needs only det F, and RIGID is skipped.
    rows is ``_class_rows(class_id)``, which the engine keeps between
    schedule edits; without it the rows are grouped here.
    """
    f = np.asarray(f, dtype=np.float64)
    if not np.isfinite(f).all():
        i = int(np.flatnonzero(~np.isfinite(f).all(axis=(1, 2)))[0])
        raise NumericalError(f"particle {i}: non-finite deformation gradient",
                             particle=i)
    n = f.shape[0]
    order, start = _class_rows(np.asarray(class_id)) if rows is None else rows
    # solid holds the ELASTIC, PLASTICINE, SAND and SNOW rows in that order,
    # so each return map below runs on one contiguous slice of them
    solid = order[:start[MaterialClass.LIQUID]]
    liquid = order[start[MaterialClass.LIQUID]:start[MaterialClass.RIGID]]

    u, sig, v = svd3(f[solid])
    j = sig.prod(axis=1)
    j_liquid = _det3(f[liquid])
    if not (np.all(j > 0) and np.all(j_liquid > 0)):  # also catches NaN
        i = int(min(solid[~(j > 0)].min(initial=n),
                    liquid[~(j_liquid > 0)].min(initial=n)))
        raise NumericalError(
            f"particle {i}: deformation gradient lost positive determinant",
            particle=i)

    kirchhoff = np.zeros((n, 3, 3))
    f_new = f.copy()  # ELASTIC and RIGID keep their F
    mu, lam = lame_parameters(e[solid], nu[solid])
    plasticine = slice(start[MaterialClass.PLASTICINE], start[MaterialClass.SAND])
    sand = slice(start[MaterialClass.SAND], start[MaterialClass.SNOW])
    snow = slice(start[MaterialClass.SNOW], start[MaterialClass.LIQUID])
    mapped = slice(plasticine.start, snow.stop)

    if plasticine.stop > plasticine.start:
        eps = np.log(np.maximum(sig[plasticine], _SIGMA_FLOOR))
        sig[plasticine] = np.exp(
            _von_mises_project(eps, mu[plasticine], YIELD_STRESS))
    if sand.stop > sand.start:
        eps_sand = _drucker_prager_project(
            np.log(np.maximum(sig[sand], _SIGMA_FLOOR)), mu[sand], lam[sand],
            FRICTION_ANGLE_DEG)
        sig[sand] = np.exp(eps_sand)
    if snow.stop > snow.start:
        sig[snow] = np.clip(sig[snow], 1.0 - SNOW_THETA_C, 1.0 + SNOW_THETA_S)
    if mapped.stop > mapped.start:
        f_new[solid[mapped]] = _recompose([c[:, mapped] for c in u],
                                          sig[mapped],
                                          [c[:, mapped] for c in v])
        j[mapped] = sig[mapped].prod(axis=1)

    # principal Kirchhoff stresses; tau = U diag(d) U^T
    d = 2.0 * mu[:, None] * (sig - 1.0) * sig + (lam * (j - 1.0) * j)[:, None]
    if sand.stop > sand.start:
        # Hencky-strain stress pairs with the log-strain projection
        d[sand] = (2.0 * mu[sand, None] * eps_sand
                   + (lam[sand] * eps_sand.sum(axis=1))[:, None])
    kirchhoff[solid] = _symmetric_recompose(u, d)

    if liquid.size:
        # fluids carry no rotation: F = J^(1/3) I, and tau = lam (J - 1) J I
        _, lam_liquid = lame_parameters(e[liquid], nu[liquid])
        f_new[liquid] = np.cbrt(j_liquid)[:, None, None] * np.eye(3)
        kirchhoff[liquid] = ((lam_liquid * (j_liquid - 1.0) * j_liquid)
                             [:, None, None] * np.eye(3))

    return kirchhoff, f_new
