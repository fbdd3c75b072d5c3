"""Surface-to-interior volumetric filling.

Converts a closed surface point cloud into a solid particle set: interior
positions are lattice points at the fill spacing that lie inside the
watertight region implied by the surface, and every interior point
inherits the physical properties of its nearest surface point.

The inside test voxelizes the surface (each sample stamped with a
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
from .materials import FIELD_COLUMNS, MaterialField, validate_field

LEAK_FRACTION = 0.95


@dataclass(frozen=True)
class FillConfig:
    """Fill parameters.

    particle_spacing   lattice spacing of interior particles [m]
    voxel_resolution   voxels per axis for the inside test; None derives it
                       from the shell sampling density so the 1-voxel
                       stamps stay watertight
    """

    particle_spacing: float
    voxel_resolution: int | None = None

    def validate(self):
        if not (self.particle_spacing > 0):
            raise DomainError("particle_spacing must be positive")
        if self.voxel_resolution is not None and self.voxel_resolution < 8:
            raise DomainError("voxel_resolution must be >= 8 per axis")
        return self

    def resolution3(self, points):
        if self.voxel_resolution is not None:
            return np.full(3, self.voxel_resolution, dtype=np.int64)
        extent = points.max(axis=0) - points.min(axis=0)
        nn = cKDTree(points).query(points, k=2)[0][:, 1]
        spacing = float(np.median(nn))
        voxel = max(0.5 * self.particle_spacing, 1.5 * spacing)
        return np.clip(np.ceil(extent / voxel).astype(np.int64), 8, 192)


def _require_volume(points):
    """Reject clouds that cannot bound a 3-D interior."""
    if points.shape[0] < 4:
        raise DegenerateGeometry("need at least 4 surface points")
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[2] <= 1e-9 * max(sv[0], 1e-300):
        raise DegenerateGeometry("surface points are coplanar; no interior exists")


def _voxel_solid_mask(points, cfg: FillConfig):
    """Classify voxels: returns (surface, interior, origin, voxel_size).

    surface  = voxels of the stamped shell
    interior = free voxels the flood from the bounding-box exterior
               does not reach
    """
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    res = cfg.resolution3(points)
    vs = (hi - lo) / res
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
    return surface, interior, origin, vs


def _candidate_lattice(points, spacing):
    """Axis-aligned lattice anchored at the surface AABB minimum."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    axes = [lo[a] + spacing * np.arange(int(np.floor((hi[a] - lo[a]) / spacing)) + 1)
            for a in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def _estimate_normals(points, interior_centers, k=12):
    """PCA normals, each oriented away from its nearest interior voxel."""
    tree = cKDTree(points)
    k = min(k, points.shape[0] - 1)
    _, nb = tree.query(points, k=k + 1)
    local = points[nb]  # (N, k+1, 3)
    local = local - local.mean(axis=1, keepdims=True)
    cov = np.einsum("nka,nkb->nab", local, local)
    _, vecs = np.linalg.eigh(cov)  # ascending; normal = smallest eigenvector
    normals = vecs[:, :, 0]
    _, inner = cKDTree(interior_centers).query(points)
    flip = np.sum(normals * (points - interior_centers[inner]), axis=1) < 0
    normals[flip] *= -1.0
    return normals


def fill_interior(surface: MaterialField, cfg: FillConfig) -> np.ndarray:
    """Interior lattice positions for a closed surface cloud, (M, 3).

    Candidates fall in three bands: strictly interior voxels pass,
    exterior-reachable voxels fail, and candidates inside the stamped
    shell are resolved against the local tangent plane of their nearest
    surface sample (normals from PCA, oriented outward by the flood).
    """
    cfg.validate()
    points = surface.positions
    _require_volume(points)
    h = cfg.particle_spacing

    candidates = _candidate_lattice(points, h)
    tree = cKDTree(points)
    surf_vox, interior_vox, origin, vs = _voxel_solid_mask(points, cfg)
    # candidates lie in the surface AABB, inside the padded voxel grid
    i, j, k = np.floor((candidates - origin) / vs).astype(np.int64).T
    inside = interior_vox[i, j, k]
    in_shell = surf_vox[i, j, k]
    if in_shell.any():
        centers = origin + (np.argwhere(interior_vox) + 0.5) * vs
        normals = _estimate_normals(points, centers)
        _, nearest = tree.query(candidates[in_shell], k=1)
        offset = candidates[in_shell] - points[nearest]
        inside[in_shell] = np.sum(offset * normals[nearest], axis=1) <= 0.0
    candidates = candidates[inside]

    if candidates.shape[0]:
        # the bound prunes the search: a deep candidate is about equally far
        # from every shell point, so an unbounded query visits them all
        dist, _ = tree.query(candidates, k=1, distance_upper_bound=0.5 * h)
        candidates = candidates[dist >= 0.5 * h]
    if candidates.shape[0] == 0:
        raise DegenerateGeometry(
            "no interior lattice point survives; spacing exceeds the wall gap")
    return candidates


def _nearest_lowest_index(surface_pos, queries, window=8):
    """Index of the nearest surface point, exact ties to the lowest index.

    A row whose whole window ties may have more ties beyond it, so those
    rows are queried again with twice the window until one does not.
    """
    tree = cKDTree(surface_pos)
    n = surface_pos.shape[0]
    k = min(window, n)
    dist, idx = tree.query(queries, k=np.arange(1, k + 1))
    d_min = dist[:, 0]
    best = np.empty(queries.shape[0], dtype=np.int64)
    rows = np.arange(queries.shape[0])
    while True:
        tied = dist == d_min[rows, None]
        best[rows] = np.where(tied, idx, n).min(axis=1)
        rows = rows[tied[:, -1]] if k < n else rows[:0]
        if rows.size == 0:
            return best
        k = min(2 * k, n)
        dist, idx = tree.query(queries[rows], k=np.arange(1, k + 1))


def inherit_properties(interior, surface: MaterialField,
                       cfg: FillConfig) -> MaterialField:
    """Copy surface properties onto interior points; output = surface + interior.

    Each interior point copies every column of its nearest surface point,
    exact ties going to the lowest surface index, so each keeps the class,
    parameters and part of one surface point.
    """
    cfg.validate()
    interior = np.asarray(interior, dtype=np.float64)
    if interior.ndim != 2 or interior.shape[1] != 3:
        raise ShapeError(f"interior positions must be (M, 3), got {interior.shape}")
    if interior.shape[0] == 0:
        raise ShapeError("interior point set must be non-empty")
    nearest = _nearest_lowest_index(surface.positions, interior)
    columns = {name: np.concatenate([col, col[nearest]])
               for name in FIELD_COLUMNS.keys() - {"positions", "interior_flag"}
               if (col := getattr(surface, name)) is not None}
    return MaterialField(
        positions=np.concatenate([surface.positions, interior]),
        interior_flag=np.concatenate([surface.interior_flag,
                                      np.ones(interior.shape[0], dtype=bool)]),
        normalization=surface.normalization, **columns)


def fill_field(surface: MaterialField, cfg: FillConfig) -> MaterialField:
    """fill_interior then inherit_properties in one call; DomainError with
    the validation report if the surface field is invalid."""
    report = validate_field(surface)
    if not report.ok:
        raise DomainError(f"surface field invalid:\n{report}")
    return inherit_properties(fill_interior(surface, cfg), surface, cfg)
