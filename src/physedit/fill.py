"""Surface-to-interior volumetric filling.

Converts a closed surface point cloud into a solid particle set: interior
positions are lattice points at the fill spacing that lie inside the
watertight region implied by the surface, and every interior point
inherits the physical properties of its nearest surface point.

The default inside test voxelizes the surface (each sample stamped with a
1-voxel radius to close pinholes), flood-fills from the bounding-box
exterior, and treats unreached voxels as solid.  Candidates closer than
half the fill spacing to a surface sample are rejected, so the lattice
never collides with the shell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import DegenerateGeometry, DomainError, LeakDetected, ShapeError
from .materials import MaterialField

LEAK_FRACTION = 0.95


@dataclass(frozen=True)
class FillConfig:
    """Fill parameters.

    particle_spacing   lattice spacing of interior particles [m]
    inside_test        "voxel_flood" or "winding_number"
    voxel_resolution   voxels per axis for the inside test (int or 3 ints);
                       None derives it from the shell sampling density so
                       the 1-voxel stamps stay watertight
    knn_k              neighbors used for property inheritance
    """

    particle_spacing: float
    inside_test: str = "voxel_flood"
    voxel_resolution: int | tuple | None = None
    knn_k: int = 1

    def validate(self):
        if not (self.particle_spacing > 0):
            raise DomainError("particle_spacing must be positive")
        if self.inside_test not in ("voxel_flood", "winding_number"):
            raise DomainError(f"unknown inside_test {self.inside_test!r}")
        if self.voxel_resolution is not None:
            res = self.resolution3(None)
            if np.any(res < 8):
                raise DomainError("voxel_resolution must be >= 8 per axis")
        if self.knn_k < 1:
            raise DomainError("knn_k must be >= 1")
        return self

    def resolution3(self, points):
        if self.voxel_resolution is None:
            if points is None:
                raise DomainError("auto voxel resolution needs surface points")
            extent = points.max(axis=0) - points.min(axis=0)
            nn = cKDTree(points).query(points, k=2)[0][:, 1]
            spacing = float(np.median(nn))
            voxel = max(0.5 * self.particle_spacing, 1.5 * spacing)
            return np.clip(np.ceil(extent / voxel).astype(np.int64), 8, 192)
        res = np.asarray(self.voxel_resolution, dtype=np.int64)
        if res.ndim == 0:
            res = np.repeat(res, 3)
        if res.shape != (3,):
            raise ShapeError("voxel_resolution must be one int or three")
        return res


def _require_volume(points):
    """Reject clouds that cannot bound a 3-D interior."""
    if points.shape[0] < 4:
        raise DegenerateGeometry("need at least 4 surface points")
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[2] <= 1e-9 * max(sv[0], 1e-300):
        raise DegenerateGeometry("surface points are coplanar; no interior exists")


def _voxel_solid_mask(points, cfg: FillConfig):
    """Classify voxels: returns (surface, interior, reached, origin, voxel_size, dims).

    reached  = voxels connected to the bounding-box exterior
    interior = unreached and not part of the stamped surface shell
    """
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    res = cfg.resolution3(points)
    vs = (hi - lo) / res
    if np.any(vs <= 0):
        raise DegenerateGeometry("surface bounding box has zero extent")
    pad = 2
    dims = res + 2 * pad
    origin = lo - pad * vs

    ijk = np.floor((points - origin) / vs).astype(np.int64)
    ijk = np.clip(ijk, 0, dims - 1)
    surface = np.zeros(tuple(dims), dtype=bool)
    # conservative 1-voxel-radius stamp closes pinholes in sampled shells
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            for dk in (-1, 0, 1):
                s = np.clip(ijk + (di, dj, dk), 0, dims - 1)
                surface[s[:, 0], s[:, 1], s[:, 2]] = True

    # 6-connected components of the free space; those touching the padded
    # boundary were reached from outside
    free = ~surface
    labels, _ = ndimage.label(free, structure=ndimage.generate_binary_structure(3, 1))
    boundary_labels = np.unique(np.concatenate([
        labels[0].ravel(), labels[-1].ravel(),
        labels[:, 0].ravel(), labels[:, -1].ravel(),
        labels[:, :, 0].ravel(), labels[:, :, -1].ravel(),
    ]))
    boundary_labels = boundary_labels[boundary_labels != 0]
    reached = np.isin(labels, boundary_labels)

    if reached.sum() > LEAK_FRACTION * reached.size:
        raise LeakDetected(
            f"exterior flood fill reached {reached.sum() / reached.size:.1%} "
            "of voxels; the surface is open")
    interior = ~reached & ~surface
    if not interior.any():
        raise DegenerateGeometry("no interior voxel; surface encloses no volume")
    return surface, interior, reached, origin, vs, dims


def _candidate_lattice(points, spacing):
    """Axis-aligned lattice anchored at the surface AABB minimum."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    axes = [lo[a] + spacing * np.arange(int(np.floor((hi[a] - lo[a]) / spacing)) + 1)
            for a in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def _estimate_normals(points, k=12):
    """PCA normals oriented away from the cloud's AABB center."""
    tree = cKDTree(points)
    k = min(k, points.shape[0] - 1)
    _, nb = tree.query(points, k=k + 1)
    local = points[nb]  # (N, k+1, 3)
    local = local - local.mean(axis=1, keepdims=True)
    cov = np.einsum("nka,nkb->nab", local, local)
    _, vecs = np.linalg.eigh(cov)  # ascending; normal = smallest eigenvector
    normals = vecs[:, :, 0]
    center = 0.5 * (points.min(axis=0) + points.max(axis=0))
    flip = np.sum(normals * (points - center), axis=1) < 0
    normals[flip] *= -1.0
    return normals


def _winding_inside(candidates, points, normals):
    """Approximate solid-angle winding test, calibrated at the AABB center."""
    center = 0.5 * (points.min(axis=0) + points.max(axis=0))

    def raw(q):
        d = points - q
        r3 = np.maximum(np.sum(d * d, axis=1), 1e-30) ** 1.5
        return np.sum(np.sum(d * normals, axis=1) / r3)

    w_center = raw(center)
    if w_center <= 0:
        raise DegenerateGeometry("winding calibration failed; shell is not closed")
    out = np.empty(candidates.shape[0], dtype=bool)
    for i, q in enumerate(candidates):
        out[i] = raw(q) / w_center >= 0.5
    return out


def fill_interior(surface: MaterialField, cfg: FillConfig) -> np.ndarray:
    """Interior lattice positions for a closed surface cloud, (M, 3).

    voxel_flood candidates fall in three bands: strictly interior voxels
    pass, exterior-reachable voxels fail, and candidates inside the
    stamped shell are resolved against the local tangent plane of their
    nearest surface sample (normals from PCA, oriented outward).
    """
    cfg.validate()
    points = surface.positions
    _require_volume(points)
    h = cfg.particle_spacing

    candidates = _candidate_lattice(points, h)
    tree = cKDTree(points)
    if cfg.inside_test == "voxel_flood":
        surf_vox, interior_vox, reached, origin, vs, dims = \
            _voxel_solid_mask(points, cfg)
        cidx = np.floor((candidates - origin) / vs).astype(np.int64)
        ok = np.all((cidx >= 0) & (cidx < dims), axis=1)
        inside = np.zeros(candidates.shape[0], dtype=bool)
        in_shell = np.zeros(candidates.shape[0], dtype=bool)
        inside[ok] = interior_vox[cidx[ok, 0], cidx[ok, 1], cidx[ok, 2]]
        in_shell[ok] = (~reached & surf_vox)[cidx[ok, 0], cidx[ok, 1], cidx[ok, 2]]
        if in_shell.any():
            normals = _estimate_normals(points)
            _, nearest = tree.query(candidates[in_shell], k=1)
            offset = candidates[in_shell] - points[nearest]
            inward = np.sum(offset * normals[nearest], axis=1) <= 0.0
            inside[in_shell] = inward
    else:
        normals = _estimate_normals(points)
        inside = _winding_inside(candidates, points, normals)
    candidates = candidates[inside]

    if candidates.shape[0]:
        dist, _ = tree.query(candidates, k=1)
        candidates = candidates[dist >= 0.5 * h]
    if candidates.shape[0] == 0:
        raise DegenerateGeometry(
            "no interior lattice point survives; spacing exceeds the wall gap")
    return candidates


def _query_2d(tree, queries, k):
    dist, idx = tree.query(queries, k=k)
    if k == 1:
        dist, idx = dist[:, None], idx[:, None]
    return dist, idx


def _nearest_lowest_index(surface_pos, queries, window=8):
    """Index of the nearest surface point, exact ties to the lowest index.

    A row whose whole window ties may have more ties beyond it, so those
    rows are queried again with twice the window until one does not.
    """
    tree = cKDTree(surface_pos)
    n = surface_pos.shape[0]
    k = min(window, n)
    dist, idx = _query_2d(tree, queries, k)
    d_min = dist[:, 0]
    best = np.empty(queries.shape[0], dtype=np.int64)
    rows = np.arange(queries.shape[0])
    while True:
        tied = dist == d_min[rows, None]
        best[rows] = np.where(tied, idx, n).min(axis=1)
        rows = rows[tied[:, -1]] if k < n else rows[:0]
        if rows.size == 0:
            return d_min, best
        k = min(2 * k, n)
        dist, idx = _query_2d(tree, queries[rows], k)


def inherit_properties(interior, surface: MaterialField,
                       cfg: FillConfig) -> MaterialField:
    """Copy surface properties onto interior points; output = surface + interior.

    knn_k == 1 copies the single nearest surface point (ties broken by the
    lowest surface index).  knn_k > 1 inverse-distance averages the
    continuous parameters and majority-votes class and part labels.
    """
    cfg.validate()
    interior = np.asarray(interior, dtype=np.float64)
    if interior.ndim != 2 or interior.shape[1] != 3:
        raise ShapeError(f"interior positions must be (M, 3), got {interior.shape}")
    if interior.shape[0] == 0:
        raise ShapeError("interior point set must be non-empty")
    m = interior.shape[0]
    k = min(cfg.knn_k, surface.n_points)

    if k == 1:
        _, nearest = _nearest_lowest_index(surface.positions, interior)
        e = surface.young_modulus[nearest]
        nu = surface.poisson_ratio[nearest]
        rho = surface.density[nearest]
        cls = surface.class_id[nearest]
        part = None if surface.part_label is None else surface.part_label[nearest]
    else:
        dist, idx = _query_2d(cKDTree(surface.positions), interior, k)
        wts = np.zeros_like(dist)
        exact = dist <= 0.0
        has_exact = exact.any(axis=1)
        wts[has_exact] = exact[has_exact].astype(np.float64)
        wts[~has_exact] = 1.0 / dist[~has_exact]
        wts /= wts.sum(axis=1, keepdims=True)
        e = np.sum(wts * surface.young_modulus[idx], axis=1)
        nu = np.sum(wts * surface.poisson_ratio[idx], axis=1)
        rho = np.sum(wts * surface.density[idx], axis=1)
        cls = np.empty(m, dtype=np.int32)
        part_src = surface.part_label
        part = None if part_src is None else np.empty(m, dtype=np.int32)
        for row in range(m):
            votes = np.bincount(surface.class_id[idx[row]])
            cls[row] = int(np.argmax(votes))
            if part is not None:
                pv = np.bincount(part_src[idx[row]])
                part[row] = int(np.argmax(pv))

    if surface.part_label is not None:
        part_all = np.concatenate([surface.part_label, part])
    else:
        part_all = None
    return MaterialField(
        positions=np.concatenate([surface.positions, interior]),
        class_id=np.concatenate([surface.class_id, cls]),
        young_modulus=np.concatenate([surface.young_modulus, e]),
        poisson_ratio=np.concatenate([surface.poisson_ratio, nu]),
        density=np.concatenate([surface.density, rho]),
        part_label=part_all,
        interior_flag=np.concatenate([surface.interior_flag,
                                      np.ones(m, dtype=bool)]),
        normalization=surface.normalization,
    )


def fill_field(surface: MaterialField, cfg: FillConfig) -> MaterialField:
    """fill_interior then inherit_properties in one call."""
    return inherit_properties(fill_interior(surface, cfg), surface, cfg)
