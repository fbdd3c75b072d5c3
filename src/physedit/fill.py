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

scipy.spatial and scipy.ndimage are imported inside the functions that
use them: together they take about half a second to import, which
``physedit verify``, ``compare`` and ``simulate`` of a scene directory
never need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateGeometry, DomainError, LeakDetected, ShapeError,
                     check_size)
from .materials import FIELD_COLUMNS, MaterialField, validate_field

LEAK_FRACTION = 0.95
# fill refuses more candidate lattice points before allocating: at peak a
# point costs about 250 B (meshgrid, voxel lookup, nearest-surface search,
# output field; tracemalloc gave 231 B on a solid cube), so the largest
# accepted lattice peaks near 1.1 GB.  The voxel grid is at most 196^3
# cells (``FillConfig.resolution3``), about 0.75 GB at 100 B per cell.
MAX_LATTICE_POINTS = 1 << 22
VOXEL_PAD = 2  # free voxels around the surface's bounding box, per side


@dataclass(frozen=True)
class FillConfig:
    """Fill parameters: the lattice spacing of interior particles [m]."""

    particle_spacing: float

    def validate(self):
        if not (self.particle_spacing > 0):
            raise DomainError("particle_spacing must be positive")
        return self

    def resolution3(self, points):
        """Voxels per axis for the inside test, from the shell's sampling
        density so the 1-voxel stamps stay watertight; 8 to 192."""
        from scipy.spatial import cKDTree

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
    from scipy import ndimage

    lo = points.min(axis=0)
    hi = points.max(axis=0)
    res = cfg.resolution3(points)
    vs = (hi - lo) / res
    dims = res + 2 * VOXEL_PAD
    origin = lo - VOXEL_PAD * vs

    ijk = np.floor((points - origin) / vs).astype(np.int64)
    ijk = np.clip(ijk, 0, dims - 1)
    surface = np.zeros(tuple(dims), dtype=bool)
    # conservative 1-voxel-radius stamp closes pinholes in sampled shells
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            for dk in (-1, 0, 1):
                s = np.clip(ijk + (di, dj, dk), 0, dims - 1)
                surface[s[:, 0], s[:, 1], s[:, 2]] = True

    # 6-connected components of the free space, padded with one free layer
    # that joins every component touching the boundary: the component of
    # the padding's corner is what the exterior reaches
    free = np.pad(~surface, 1, constant_values=True)
    labels, _ = ndimage.label(free, structure=ndimage.generate_binary_structure(3, 1))
    reached = (labels == labels[0, 0, 0])[1:-1, 1:-1, 1:-1]

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
    counts = np.floor((hi - lo) / spacing) + 1
    check_size("fill", np.prod(counts), MAX_LATTICE_POINTS, "lattice points")
    axes = [lo[a] + spacing * np.arange(int(counts[a])) for a in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def _estimate_normals(points, interior_centers, k=12):
    """PCA normals, each oriented away from its nearest interior voxel."""
    from scipy.spatial import cKDTree

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
    surface sample (normals from PCA, oriented outward by the flood),
    found by ``cKDTree.query(k=1)``, with scipy's choice among ties.
    """
    from scipy.spatial import cKDTree

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


def nearest_ranked(tree, queries, k, exclude=None):
    """The k nearest tree points of each query: (d2, index), each (M, k).

    Points rank by (squared distance, index), d2 being numpy's sum of the
    squared coordinate differences, so exact ties go to the lower index.
    Row i never lists point exclude[i].  A window of the kd-tree's nearest
    points is ranked exactly; a row whose k-th d2 comes within 1e-9
    (relative) of the window's last distance may have a tied point beyond
    it, so those rows are queried again with twice the window.
    """
    window = 2 * k + (2 if exclude is not None else 0)
    d2 = np.empty((queries.shape[0], k))
    nearest = np.empty((queries.shape[0], k), dtype=np.int64)
    rows = np.arange(queries.shape[0])
    while rows.size:
        window = min(window, tree.n)
        dist, idx = tree.query(queries[rows], k=np.arange(1, window + 1))
        dd = np.sum((tree.data[idx] - queries[rows, None]) ** 2, axis=-1)
        if exclude is not None:
            dd[idx == exclude[rows, None]] = np.inf
        order = np.lexsort((idx, dd))[:, :k]
        d2[rows] = np.take_along_axis(dd, order, axis=1)
        nearest[rows] = np.take_along_axis(idx, order, axis=1)
        if window == tree.n:
            break
        rows = rows[d2[rows, -1] * (1.0 + 1e-9) >= dist[:, -1] ** 2]
        window *= 2
    return d2, nearest


def inherit_properties(interior, surface: MaterialField,
                       cfg: FillConfig) -> MaterialField:
    """Copy surface properties onto interior points; output = surface + interior.

    Each interior point copies every column of its nearest surface point,
    ranked by nearest_ranked (exact ties to the lowest surface index), so
    each keeps the class, parameters and part of one surface point.
    """
    from scipy.spatial import cKDTree

    cfg.validate()
    interior = np.asarray(interior, dtype=np.float64)
    if interior.ndim != 2 or interior.shape[1] != 3:
        raise ShapeError(f"interior positions must be (M, 3), got {interior.shape}")
    if interior.shape[0] == 0:
        raise ShapeError("interior point set must be non-empty")
    nearest = nearest_ranked(cKDTree(surface.positions), interior, 1)[1][:, 0]
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
