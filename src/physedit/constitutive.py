"""Stress laws and plastic return mappings for the six material classes.

The solver needs only the Kirchhoff stress tau = P F^T (MLS-MPM, Hu et
al. 2018), so that is what ``batch_constitutive`` returns, together with
the updated F.  Each class does only its own work, on its own particles:
a slice when they are one contiguous run, and an index array otherwise.
The PLASTICINE, SAND and SNOW particles decompose F once,
F = U diag(sigma) V^T with proper rotations U, V (``svd3``), and derive
everything else from that single decomposition: J = sigma_1 sigma_2
sigma_3, the projected gradient U diag(sigma') V^T of the return
mappings, and tau = U diag(d) U^T for a vector d = p sigma of principal
Kirchhoff stresses, where P = U diag(p) V^T.  ELASTIC needs no
decomposition (below).  tau is formed exactly symmetric, which keeps
angular momentum (Jiang et al. 2015).

  Elastic     fixed corotated  P = 2 mu (F - R) + lambda (J - 1) J F^-T.
              R F^T = sqrt(b) with b = F F^T, so tau = 2 mu (b - sqrt(b))
              + lambda (J - 1) J I, with sqrt(b) in closed form from b,
              b^2 and the invariants of F (``_elastic_kirchhoff``)
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
# _FULL[a][b] is the position of entry (a, b) in a _UPPER-ordered list
_FULL = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
# F given as a flat (9, N) array, a[3 i + k] = F_ik: cofactor (i, k) is
# F_(i+1)(k+1) F_(i+2)(k+2) - F_(i+1)(k+2) F_(i+2)(k+1), indices mod 3, and
# (F F^T)_ab sums F_ak F_bk over k, for each (a, b) in _UPPER
_COF = np.array([[3 * ((i + di) % 3) + (k + dk) % 3
                  for i in range(3) for k in range(3)]
                 for di, dk in ((1, 1), (2, 2), (1, 2), (2, 1))])
_GRAM = np.array([[[3 * row[m] + k for k in range(3)] for row in _UPPER]
                  for m in range(2)])
# the same sums over a symmetric matrix given as its _UPPER-ordered entries
_GRAM_SYM = _FULL[_GRAM // 3, _GRAM % 3]
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


def _selection(idx):
    """Particle indices as a slice when they are one ascending run of
    consecutive indices, which numpy reads as a view and writes in place,
    with no gather or scatter copy; any other selection, the empty one
    included, stays an index array."""
    if idx.size and (np.diff(idx) == 1).all():
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _size(rows):
    """Particle count of a ``_selection``."""
    return rows.stop - rows.start if isinstance(rows, slice) else rows.size


def _class_rows(class_id):
    """The ELASTIC, return-mapped and LIQUID particles, and where each
    return-mapped class begins among them.

    Returns (elastic, mapped, liquid, at).  mapped holds the PLASTICINE,
    SAND and SNOW particles in that order, so class c is
    mapped[at[c - PLASTICINE]:at[c - PLASTICINE + 1]]; every class keeps
    index order.  Each of the three is a ``_selection``: a slice when its
    particles form one contiguous ascending run, as in every scene whose
    objects each hold one class, and an index array otherwise.  The
    stable sort runs on int8 keys, for which numpy uses a radix sort.
    """
    order = np.argsort(class_id.astype(np.int8), kind="stable")
    start = np.zeros(len(MaterialClass) + 1, dtype=np.int64)
    np.cumsum(np.bincount(class_id, minlength=len(MaterialClass)),
              out=start[1:])
    at = start[MaterialClass.PLASTICINE:MaterialClass.LIQUID + 1]
    return (_selection(order[:at[0]]), _selection(order[at[0]:at[-1]]),
            _selection(order[at[-1]:start[MaterialClass.RIGID]]), at - at[0])


def _cofactor(a):
    """Cofactor matrices and determinants of F given as a[3 i + k] = F_ik.

    a is (9, N); returns (cof (9, N) in the same layout, det F (N,)), with
    det F = F_00 cof_00 + F_01 cof_01 + F_02 cof_02 in that order.
    """
    g = a[_COF]
    cof = g[0] * g[1] - g[2] * g[3]
    return cof, (a[:3] * cof[:3]).sum(axis=0)


def _elastic_kirchhoff(a, cof, j, mu, lam):
    """Fixed-corotated Kirchhoff stress (N,3,3) of F given as a[3 i + k] =
    F_ik, with its cofactors and determinants J > 0 from ``_cofactor``.

    With b = F F^T, R F^T = sqrt(b), so tau = 2 mu (b - sqrt(b)) + lambda
    (J - 1) J I needs no rotation.  sqrt(b) is the closed form of Franca
    1989 ("An algorithm to compute the square root of a 3x3 positive
    definite matrix"): from the largest eigenvalue lambda_1 of b and the
    invariants I2(b) = |cof F|^2 and J come the invariants i1, i2, i3 = J
    of sqrt(b), and then by Cayley-Hamilton
    sqrt(b) = (-b^2 + (i1^2 - i2) b + i1 i3 I) / (i1 i2 - i3).
    lambda_1 comes from the trigonometric formula on the deviator of b,
    formed entry by entry, which does not cancel near b = I as the
    invariants would.  Taking the largest eigenvalue keeps
    I2 - (J / s1)^2 = lambda_1 (lambda_2 + lambda_3) free of cancellation,
    and at a double largest eigenvalue, where the formula's lambda_1 is
    least accurate, i1 and i2 are stationary in it.  b and b^2 are
    symmetric, so tau is exactly symmetric.
    """
    i2_b = (cof * cof).sum(axis=0)
    g = a[_GRAM]
    b = (g[0] * g[1]).sum(axis=1)  # b's upper triangle, (6, N) in _UPPER order
    g = b[_GRAM_SYM]
    b_sq = (g[0] * g[1]).sum(axis=1)  # (b^2)_ab sums b_ak b_bk over k

    # largest eigenvalue of b, trigonometric formula on dev b = b - q I
    q = (b[0] + b[1] + b[2]) / 3.0
    d0, d1, d2 = b[0] - q, b[1] - q, b[2] - q
    b01, b02, b12 = b[3], b[4], b[5]
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
    det_dev = (d0 * (d1 * d2 - b12 * b12) - b01 * (b01 * d2 - b12 * b02)
               + b02 * (b01 * b12 - d1 * b02))
    r = np.divide(det_dev, 2.0 * p * p * p, out=np.zeros_like(p), where=p > 0)
    lam1 = q + 2.0 * p * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3.0)

    # invariants of sqrt(b) from s1 = sqrt(lambda_1), s2 s3 and s2 + s3
    s1 = np.sqrt(lam1)
    s23 = j / s1
    s2_plus_s3 = np.sqrt((i2_b - s23 * s23) / lam1 + 2.0 * s23)
    i1 = s1 + s2_plus_s3
    i2 = s1 * s2_plus_s3 + s23
    inv = 1.0 / (i1 * i2 - j)
    # i1^2 - i2 = lambda_1 + rest, rest a sum of positive terms: lambda_1 b
    # - b^2 then vanishes on b's largest eigenvector, which halves the
    # rounding that i1 i2 - i3 amplifies when s2 and s3 are small
    rest = s1 * s2_plus_s3 + s2_plus_s3 * s2_plus_s3 - s23
    sqrt_b = (lam1 * b - b_sq + rest * b) * inv
    sqrt_b[:3] += i1 * j * inv
    tau = 2.0 * mu * (b - sqrt_b)
    tau[:3] += lam * (j - 1.0) * j
    return tau[_FULL].transpose(2, 0, 1)


def batch_constitutive(f, class_id, e, nu, rows=None, lame=None):
    """Vectorized stress evaluation over a particle batch.

    f (N,3,3), class_id (N,), e (N,), nu (N,).  Returns (kirchhoff (N,3,3),
    f_new (N,3,3)); the Kirchhoff stress is exactly symmetric.  Each class
    does only its own work, and a class with no particles does none:
    ELASTIC takes tau in closed form from b = F F^T
    (``_elastic_kirchhoff``), ``svd3`` runs on the PLASTICINE, SAND and
    SNOW particles only, LIQUID needs only det F, and RIGID is skipped.
    rows is ``_class_rows(class_id)`` and lame the per-particle
    ``lame_parameters(e, nu)``, which the engine keeps between the
    schedule edits that change them; without them they are derived here.
    """
    f = np.asarray(f, dtype=np.float64)
    if not np.isfinite(f).all():
        i = int(np.flatnonzero(~np.isfinite(f).all(axis=(1, 2)))[0])
        raise NumericalError(f"particle {i}: non-finite deformation gradient",
                             particle=i)
    n = f.shape[0]
    elastic, mapped, liquid, at = (_class_rows(np.asarray(class_id))
                                   if rows is None else rows)
    mu_all, lam_all = lame_parameters(e, nu) if lame is None else lame

    # every class's J, and the determinant check, before any stress
    flat = f.reshape(n, 9).T  # flat[3 i + k] is F_ik of every particle
    dets = []  # (rows, J) of each class that has particles
    if _size(elastic):
        a = flat[:, elastic]
        cof, j_elastic = _cofactor(a)
        dets.append((elastic, j_elastic))
    if _size(mapped):
        u, sig, v = svd3(f[mapped])
        dets.append((mapped, sig.prod(axis=1)))
    if _size(liquid):
        _, j_liquid = _cofactor(flat[:, liquid])
        dets.append((liquid, j_liquid))
    if not all((j > 0).all() for _, j in dets):  # also catches NaN
        i = min(int(np.arange(n)[sel][~(j > 0)].min(initial=n))
                for sel, j in dets)
        raise NumericalError(
            f"particle {i}: deformation gradient lost positive determinant",
            particle=i)

    kirchhoff = np.zeros((n, 3, 3))
    f_new = f.copy()  # ELASTIC and RIGID keep their F
    if _size(elastic):
        kirchhoff[elastic] = _elastic_kirchhoff(
            a, cof, j_elastic, mu_all[elastic], lam_all[elastic])

    if _size(mapped):
        plasticine, sand, snow = (slice(at[k], at[k + 1]) for k in range(3))
        mu, lam = mu_all[mapped], lam_all[mapped]
        if plasticine.stop > plasticine.start:
            eps = np.log(np.maximum(sig[plasticine], _SIGMA_FLOOR))
            sig[plasticine] = np.exp(
                _von_mises_project(eps, mu[plasticine], YIELD_STRESS))
        if sand.stop > sand.start:
            eps_sand = _drucker_prager_project(
                np.log(np.maximum(sig[sand], _SIGMA_FLOOR)), mu[sand],
                lam[sand], FRICTION_ANGLE_DEG)
            sig[sand] = np.exp(eps_sand)
        if snow.stop > snow.start:
            sig[snow] = np.clip(sig[snow], 1.0 - SNOW_THETA_C,
                                1.0 + SNOW_THETA_S)
        f_new[mapped] = _recompose(u, sig, v)
        j = sig.prod(axis=1)

        # principal Kirchhoff stresses; tau = U diag(d) U^T
        d = 2.0 * mu[:, None] * (sig - 1.0) * sig + (lam * (j - 1.0) * j)[:, None]
        if sand.stop > sand.start:
            # Hencky-strain stress pairs with the log-strain projection
            d[sand] = (2.0 * mu[sand, None] * eps_sand
                       + (lam[sand] * eps_sand.sum(axis=1))[:, None])
        kirchhoff[mapped] = _symmetric_recompose(u, d)

    if _size(liquid):
        # fluids carry no rotation: F = J^(1/3) I, and tau = lam (J - 1) J I
        lam_liquid = lam_all[liquid]
        f_new[liquid] = np.cbrt(j_liquid)[:, None, None] * np.eye(3)
        kirchhoff[liquid] = ((lam_liquid * (j_liquid - 1.0) * j_liquid)
                             [:, None, None] * np.eye(3))

    return kirchhoff, f_new
