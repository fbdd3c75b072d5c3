"""Stress laws and plastic return mappings for the six material classes.

The solver needs only the Kirchhoff stress tau = P F^T (MLS-MPM, Hu et
al. 2018), so that is what ``batch_constitutive`` returns, together with
the updated F.  ``_class_rows`` gives each class one selection of its
particles, and each class does only its own work on it:

  Elastic     fixed corotated  P = 2 mu (F - R) + lambda (J - 1) J F^-T,
              tau in closed form from b = F F^T (``_elastic_kirchhoff``)
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
              (Stomakhin et al. 2013)

These four plasticity constants are module constants, the same for every
particle of a class.  ``batch_constitutive`` says which particles take
the ELASTIC closed form and which the one decomposition ``svd3``.
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
# the relative yield margin and least sigma_min / sigma_max of _inside_yield
_MARGIN = 1e-6
_MIN_RATIO = 1e-2
_PAIRS = ((0, 1), (0, 2), (1, 2))
_UPPER = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# _FULL[a][b] is the position of entry (a, b) in a _UPPER-ordered list
_FULL = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
# flat F is a (9, N) array a, a[3 i + k] = F_ik: cofactor (i, k) is
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
    of a sqrt) is needed.  A particle stops rotating once its
    off-diagonals meet _OFF_TOL2, a test of its own entries alone, so each
    row of a batch comes out bit for bit as in a one-row call;
    _JACOBI_SWEEPS is only a cap.
    """
    f = np.asarray(f, dtype=np.float64)
    n = f.shape[0]
    # g[i, k] is entry F_ik of every F as one contiguous row, with no copy
    # when f is a component-major view; cols[k] is column k of every F, (3, N)
    g = np.ascontiguousarray(f.transpose(1, 2, 0))
    cols = [g[:, k] for k in range(3)]
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
    """U diag(d) V^T as (9, N) rows, out[3 a + b] its entry (a, b), from
    the (3, N) columns u[k], v[k] and d (N,3)."""
    ud = [u[k] * d[:, k] for k in range(3)]
    out = np.empty((9, d.shape[0]))
    for a in range(3):
        for b in range(3):
            out[3 * a + b] = (ud[0][a] * v[0][b] + ud[1][a] * v[1][b]
                              + ud[2][a] * v[2][b])
    return out


def _symmetric_recompose(u, d):
    """U diag(d) U^T as (9, N) rows, as in ``_recompose``, exactly symmetric,
    which keeps angular momentum (Jiang et al. 2015).

    Entry (a, b) sums (d u_a) u_b over the columns, which in floating point
    differs from the sum of (d u_b) u_a, so each of the six unique entries
    is formed once and mirrored.
    """
    ud = [u[k] * d[:, k] for k in range(3)]
    out = np.empty((9, d.shape[0]))
    for a, b in _UPPER:
        out[3 * a + b] = out[3 * b + a] = (ud[0][a] * u[0][b] + ud[1][a] * u[1][b]
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
    """The particles of each MaterialClass, as a tuple indexed by class.

    Entry c is a ``_selection`` of the particles whose class is c, in
    ascending index order.  The stable sort runs on int8 keys, for which
    numpy uses a radix sort.
    """
    order = np.argsort(class_id.astype(np.int8), kind="stable")
    start = np.zeros(len(MaterialClass) + 1, dtype=np.int64)
    np.cumsum(np.bincount(class_id, minlength=len(MaterialClass)),
              out=start[1:])
    return tuple(_selection(order[start[c]:start[c + 1]])
                 for c in MaterialClass)


def _det(a):
    """det F of flat F a, with the bits of ``_cofactor``'s determinant."""
    g = a[_COF[:, :3]]
    return (a[:3] * (g[0] * g[1] - g[2] * g[3])).sum(axis=0)


def _cofactor(a):
    """Cofactor matrices and determinants of flat F a: (cof (9, N) in the
    same layout, det F (N,)), det F = F_00 cof_00 + F_01 cof_01 + F_02 cof_02
    in that order."""
    g = a[_COF]
    cof = g[0] * g[1] - g[2] * g[3]
    return cof, (a[:3] * cof[:3]).sum(axis=0)


def _gram(a):
    """Upper triangle of b = F F^T, (6, N) in _UPPER order, of flat F a."""
    g = a[_GRAM]
    return (g[0] * g[1]).sum(axis=1)


def _spectrum(b):
    """q, 2 p and phi of the trigonometric formula for the eigenvalues of
    symmetric b given as its (6, N) _UPPER-ordered entries: eigenvalue k,
    largest first, is q + 2 p cos(phi + 2 pi k / 3).

    The formula runs on the deviator b - q I with q = tr b / 3, formed
    entry by entry, which does not cancel near b = I as the invariants
    would.
    """
    q = (b[0] + b[1] + b[2]) / 3.0
    d0, d1, d2 = b[0] - q, b[1] - q, b[2] - q
    b01, b02, b12 = b[3], b[4], b[5]
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0)
    det_dev = (d0 * (d1 * d2 - b12 * b12) - b01 * (b01 * d2 - b12 * b02)
               + b02 * (b01 * b12 - d1 * b02))
    r = np.divide(det_dev, 2.0 * p * p * p, out=np.zeros_like(p), where=p > 0)
    return q, 2.0 * p, np.arccos(np.clip(r, -1.0, 1.0)) / 3.0


def _elastic_kirchhoff(b, lam1, cof, j, mu, lam):
    """Fixed-corotated Kirchhoff stress, (9, N) rows, from b = F F^T
    (``_gram``), its largest eigenvalue lambda_1 (``_spectrum``), and the
    cofactors and determinants J > 0 of F from ``_cofactor``.

    With b = F F^T, R F^T = sqrt(b), so tau = 2 mu (b - sqrt(b)) + lambda
    (J - 1) J I needs no rotation.  sqrt(b) is the closed form of Franca
    1989 ("An algorithm to compute the square root of a 3x3 positive
    definite matrix"): from lambda_1 and the invariants I2(b) = |cof F|^2
    and J come the invariants i1, i2, i3 = J of sqrt(b), and then by
    Cayley-Hamilton
    sqrt(b) = (-b^2 + (i1^2 - i2) b + i1 i3 I) / (i1 i2 - i3).
    Taking the largest eigenvalue keeps
    I2 - (J / s1)^2 = lambda_1 (lambda_2 + lambda_3) free of cancellation,
    and at a double largest eigenvalue, where the formula's lambda_1 is
    least accurate, i1 and i2 are stationary in it.  b and b^2 are
    symmetric, so tau is exactly symmetric.
    """
    i2_b = (cof * cof).sum(axis=0)
    g = b[_GRAM_SYM]
    b_sq = (g[0] * g[1]).sum(axis=1)  # (b^2)_ab sums b_ak b_bk over k

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
    # tau in place, in the order and so with the rounding of the formula,
    # with sqrt(b) = (lambda_1 b - b^2 + rest b + i1 i3 I) / (i1 i2 - i3)
    tau = lam1 * b
    tau -= b_sq
    tau += rest * b
    tau *= inv
    tau[:3] += i1 * j * inv
    np.subtract(b, tau, out=tau)
    tau *= 2.0 * mu
    tau[:3] += lam * (j - 1.0) * j
    return tau[_FULL.ravel()]


def _inside_yield(material, b, lam1, lam3, mu):
    """Whether each PLASTICINE or SNOW row (material says which; mu its
    shear moduli) lies strictly inside its yield surface, from b = F F^T
    and the largest and smallest eigenvalues lambda_1 >= lambda_3 of b,
    the squared singular values of F (``_spectrum``).

    A PLASTICINE row is inside when the principal log strains
    eps = log(max(lambda, _SIGMA_FLOOR^2)) / 2, with lambda_2 = tr b -
    lambda_1 - lambda_3, have |dev eps| < YIELD_STRESS / (2 mu)
    (1 - _MARGIN), and a SNOW row when lambda_3 >= (1 - SNOW_THETA_C)^2
    (1 + _MARGIN) and lambda_1 <= (1 + SNOW_THETA_S)^2 (1 - _MARGIN):
    then its return mapping leaves F as it is.  Either also needs
    sigma_min / sigma_max >= _MIN_RATIO, where the ELASTIC closed form is
    accurate (``TestElastic``).  The trigonometric eigenvalues are
    accurate to about eps |b| except near a double eigenvalue, where
    arccos loses half the digits: lambda_2 and lambda_3 can then be off by
    about 1e-8 p, with p = |dev b| / sqrt(6), which stays far inside the
    1e-6 relative margin.
    """
    if material == MaterialClass.PLASTICINE:
        lam2 = b[0] + b[1] + b[2] - lam1 - lam3
        # |dev eps|^2 = ((e1 - e2)^2 + (e2 - e3)^2 + (e1 - e3)^2) / 12 for
        # e = 2 eps, each e_i = log(max(lambda_i, _SIGMA_FLOOR^2))
        e = np.log(np.maximum(np.stack([lam1, lam2, lam3]), _SIGMA_FLOOR ** 2))
        d12, d23 = e[0] - e[1], e[1] - e[2]
        radius = YIELD_STRESS / (2.0 * mu) * (1.0 - _MARGIN)
        inside = (d12 * d12 + d23 * d23 + (d12 + d23) * (d12 + d23)
                  < 12.0 * radius * radius)
    else:
        inside = ((lam3 >= (1.0 - SNOW_THETA_C) ** 2 * (1.0 + _MARGIN))
                  & (lam1 <= (1.0 + SNOW_THETA_S) ** 2 * (1.0 - _MARGIN)))
    return inside & (lam3 >= _MIN_RATIO ** 2 * lam1)


def batch_constitutive(f, class_id, e, nu, rows=None, lame=None):
    """Vectorized stress evaluation over a particle batch.

    f (N,3,3), class_id (N,), e (N,), nu (N,).  Returns (kirchhoff (N,3,3),
    f_new (N,3,3)); the Kirchhoff stress is exactly symmetric.  rows is
    ``_class_rows(class_id)`` and lame the per-particle
    ``lame_parameters(e, nu)``; each is derived here when not given.

    ELASTIC, PLASTICINE and SNOW take one closed-form path, a class at a
    time: b = F F^T and its largest eigenvalue for every row, the yield
    test for PLASTICINE and SNOW rows only, and ``_elastic_kirchhoff`` on
    the rows kept, which keep F.  ``svd3`` runs once, on the PLASTICINE
    rows that fail the test, every SAND row and the SNOW rows that fail
    it, in that order, and each class return-maps its own run of that
    batch: J = prod sigma, F = U diag(sigma') V^T and tau = U diag(d) U^T
    for the principal Kirchhoff stresses d = p sigma, P = U diag(p) V^T.
    LIQUID needs only det F, and RIGID is skipped.  A class with no
    particles does no work.  Every row's J is checked before any stress is
    formed: a non-finite F or a J <= 0 raises ``NumericalError`` naming
    the lowest such particle.

    Every class works on F as (9, N) rows, flat[3 i + k] = F_ik: a free
    view of a component-major f and a copy of any other.  kirchhoff and
    f_new are component-major, and their values depend neither on f's
    layout nor on whether a class is selected by a slice or an index array.
    """
    f = np.asarray(f, dtype=np.float64)
    n = f.shape[0]
    flat = f.transpose(1, 2, 0).reshape(9, n)  # flat[3 i + k] is F_ik
    if not np.isfinite(flat).all():
        i = int(np.flatnonzero(~np.isfinite(flat).all(axis=0))[0])
        raise NumericalError(f"particle {i}: non-finite deformation gradient",
                             particle=i)
    rows = _class_rows(np.asarray(class_id)) if rows is None else rows
    mu_all, lam_all = lame_parameters(e, nu) if lame is None else lame
    index = np.arange(n)

    # every class's J, and the determinant check, before any stress
    dets = []  # (rows, J) of each group of particles
    closed = []  # (rows, b, lambda_1, cof, J) of each closed-form group
    decompose = {}  # class: its particles that svd3 decomposes, in class order
    for c in (MaterialClass.ELASTIC, MaterialClass.PLASTICINE,
              MaterialClass.SAND, MaterialClass.SNOW):
        sel = rows[c]
        if not _size(sel):
            continue
        if c == MaterialClass.SAND:
            decompose[c] = index[sel]
            continue
        a = flat[:, sel]
        b = _gram(a)
        q, two_p, phi = _spectrum(b)
        lam1 = q + two_p * np.cos(phi)
        if c != MaterialClass.ELASTIC:
            lam3 = q + two_p * np.cos(phi + 2.0 * np.pi / 3.0)
            inside = _inside_yield(c, b, lam1, lam3, mu_all[sel])
            if not inside.all():
                decompose[c] = index[sel][~inside]
                if not inside.any():
                    continue
                sel = index[sel][inside]
                a, b, lam1 = a[:, inside], b[:, inside], lam1[inside]
        cof, j = _cofactor(a)
        dets.append((sel, j))
        closed.append((sel, b, lam1, cof, j))
    if decompose:
        decomposed = np.concatenate(list(decompose.values()))
        u, sig, v = svd3(flat[:, decomposed].reshape(3, 3, -1)
                         .transpose(2, 0, 1))
        dets.append((decomposed, sig.prod(axis=1)))
    liquid = rows[MaterialClass.LIQUID]
    if _size(liquid):
        j_liquid = _det(flat[:, liquid])
        dets.append((liquid, j_liquid))
    if not all((j > 0).all() for _, j in dets):  # also catches NaN
        i = min(int(index[sel][~(j > 0)].min(initial=n)) for sel, j in dets)
        raise NumericalError(
            f"particle {i}: deformation gradient lost positive determinant",
            particle=i)

    tau = np.zeros((9, n))
    f_new = flat.copy()  # ELASTIC, RIGID and closed-form rows keep their F
    for sel, b, lam1, cof, j in closed:
        tau[:, sel] = _elastic_kirchhoff(b, lam1, cof, j, mu_all[sel],
                                         lam_all[sel])

    if decompose:
        d = np.empty_like(sig)  # principal Kirchhoff stresses
        start = 0
        for c, particles in decompose.items():
            run = slice(start, start + particles.size)  # c's rows of sig
            start = run.stop
            mu, lam = mu_all[particles], lam_all[particles]
            if c == MaterialClass.SAND:
                eps = _drucker_prager_project(
                    np.log(np.maximum(sig[run], _SIGMA_FLOOR)), mu, lam,
                    FRICTION_ANGLE_DEG)
                sig[run] = np.exp(eps)
                # Hencky-strain stress pairs with the log-strain projection
                d[run] = (2.0 * mu[:, None] * eps
                          + (lam * eps.sum(axis=1))[:, None])
                continue
            if c == MaterialClass.PLASTICINE:
                eps = np.log(np.maximum(sig[run], _SIGMA_FLOOR))
                sig[run] = np.exp(_von_mises_project(eps, mu, YIELD_STRESS))
            else:
                sig[run] = np.clip(sig[run], 1.0 - SNOW_THETA_C,
                                   1.0 + SNOW_THETA_S)
            s = sig[run]
            j = s.prod(axis=1)
            d[run] = (2.0 * mu[:, None] * (s - 1.0) * s
                      + (lam * (j - 1.0) * j)[:, None])
        f_new[:, decomposed] = _recompose(u, sig, v)
        tau[:, decomposed] = _symmetric_recompose(u, d)  # U diag(d) U^T

    if _size(liquid):
        # fluids carry no rotation: F = J^(1/3) I, and tau = lam (J - 1) J I;
        # rows 0, 4 and 8 are the diagonal
        f_new[:, liquid] = 0.0
        f_new[::4, liquid] = np.cbrt(j_liquid)
        tau[::4, liquid] = lam_all[liquid] * (j_liquid - 1.0) * j_liquid

    return (tau.reshape(3, 3, n).transpose(2, 0, 1),
            f_new.reshape(3, 3, n).transpose(2, 0, 1))
