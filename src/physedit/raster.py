"""Pinhole point-splat rasterization of trajectory frames.

Frames are z-buffered splats of the particle positions, written as binary
portable graymaps (P5).  Each pixel shows the nearest point whose disc of
radius splat_radius covers it, with depth ties to the lower point index.

``rasterize_frame`` is array code with no loop over points.  Points off
the image, behind the near plane or not finite are culled in floating
point.  The rest are ranked once by (depth, index).  Each point is
expanded into its (ceil(2r)+1)^2 pixel stencil (no wider than the image),
which holds every pixel centre within r of it, and masked by the disc.
The stencil is laid out offset-major with the points last, so every
broadcast runs along a chunk's points rather than along its few offsets.
A chunk's hits so come in offset order, not rank order; that is harmless,
since a pixel keeps the lowest rank that hits it (``np.minimum.at``)
whatever order the hits arrive in.  The points are expanded in rank
order, in chunks of at most max(_CHUNK_CELLS, one stencil) cells, so
extra memory is bounded by that for any point count; the stencil is
clipped to the image, so a huge radius costs at most the image size.
The frame is finished from the won pixels alone: their points give the
per-frame depth range, and image, index and depth are written at their
flat indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeError, check_size
from .fieldio import write_file

_Z_NEAR = 1e-9
_CHUNK_CELLS = 1 << 18  # stencil cells expanded at once
# CameraSpec.validate refuses a larger width x height.  A pixel costs about
# 22 B while a frame is rasterized and written (tracemalloc gave 22.1 B on a
# 2048x2048 image), so the largest accepted frame peaks near 0.74 GB.
MAX_IMAGE_PIXELS = 1 << 25


@dataclass(frozen=True)
class CameraSpec:
    """Pinhole camera: x_cam = rotation @ x_world + translation.

    fx, fy, cx, cy    intrinsics in pixels
    width, height     image size, >= 16, at most MAX_IMAGE_PIXELS pixels
    splat_radius      point footprint in pixels
    color_mode        "depth" or "object_id"
    depth_range       optional fixed (z_lo, z_hi); default per-frame
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray = None
    translation: np.ndarray = None
    splat_radius: float = 1.0
    color_mode: str = "depth"
    depth_range: Optional[tuple] = None

    def __post_init__(self):
        rot = np.eye(3) if self.rotation is None else \
            np.asarray(self.rotation, dtype=np.float64)
        tr = np.zeros(3) if self.translation is None else \
            np.asarray(self.translation, dtype=np.float64)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)

    def validate(self):
        if self.fx <= 0 or self.fy <= 0:
            raise DomainError("focal lengths must be positive")
        if self.width < 16 or self.height < 16:
            raise DomainError("image size must be at least 16x16")
        check_size("rasterize", int(self.width) * int(self.height),
                   MAX_IMAGE_PIXELS, "image pixels")
        if self.rotation.shape != (3, 3) or self.translation.shape != (3,):
            raise ShapeError("rotation must be 3x3 and translation length 3")
        for name in ("fx", "fy", "cx", "cy", "rotation", "translation",
                     "depth_range"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise DomainError(f"{name} must be finite")
        if self.color_mode not in ("depth", "object_id"):
            raise DomainError(f"unknown color mode {self.color_mode!r}")
        if not self.splat_radius > 0:  # NaN fails too
            raise DomainError("splat_radius must be positive")
        return self

    @classmethod
    def look_at(cls, eye, target, **kwargs):
        """Camera at ``eye`` looking toward ``target``, world +y up."""
        eye = np.asarray(eye, dtype=np.float64)
        fwd = np.asarray(target, dtype=np.float64) - eye
        fwd = fwd / np.linalg.norm(fwd)
        right = np.cross(fwd, (0.0, 1.0, 0.0))
        right = right / np.linalg.norm(right)
        down = np.cross(fwd, right)
        rot = np.stack([right, down, fwd])
        return cls(rotation=rot, translation=-rot @ eye, **kwargs)


@dataclass
class RasterFrame:
    image: np.ndarray   # (H, W) uint8, 0 = empty
    depth: np.ndarray   # (H, W) float64, +inf where empty
    index: np.ndarray   # (H, W) int32, -1 where empty
    empty: bool


def rasterize_frame(positions, cam: CameraSpec, object_id=None) -> RasterFrame:
    """Splat points through the camera; see RasterFrame for buffers.

    Depth images map z affinely to [1, 255] with near points brighter;
    0 is reserved for background.  object_id mode needs per-point ids.
    """
    cam.validate()
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ShapeError(f"positions must be (N, 3), got {pos.shape}")
    if cam.color_mode == "object_id" and object_id is None:
        raise DomainError("object_id color mode needs per-point object ids")

    h, wd = cam.height, cam.width
    r = cam.splat_radius
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_cam = pos @ cam.rotation.T + cam.translation
        z = x_cam[:, 2]
        u = cam.fx * x_cam[:, 0] / z + cam.cx
        v = cam.fy * x_cam[:, 1] / z + cam.cy
    # cull in floating point: NaN, inf and far off-image points fail here,
    # before any integer cast
    ids = np.flatnonzero((z > _Z_NEAR) & (u > -r - 1) & (u < wd + r)
                         & (v > -r - 1) & (v < h + r))
    # rank = position in (z, index) order, so the lowest rank wins a pixel
    order = ids[np.argsort(z[ids], kind="stable")]
    u, v = u[order], v[order]
    x0 = np.maximum(np.ceil(u - r), 0).astype(np.intp)
    y0 = np.maximum(np.ceil(v - r), 0).astype(np.intp)
    # a disc of radius r spans an interval of length 2r per axis, which
    # holds at most ceil(2r) + 1 pixel centres
    span = np.ceil(2 * r) + 1
    ox, oy = np.arange(int(min(span, wd))), np.arange(int(min(span, h)))
    cells = ox.size * oy.size
    best = np.full(h * wd, order.size)
    step = max(1, _CHUNK_CELLS // cells)
    for lo in range(0, order.size, step):
        sl = slice(lo, min(lo + step, order.size))
        m = sl.stop - lo
        px = x0[sl] + ox[:, None]
        py = y0[sl] + oy[:, None]
        du2 = (px - u[sl]) ** 2
        dv2 = (py - v[sl]) ** 2
        hit = np.flatnonzero((dv2[:, None] + du2 <= r * r)
                             & (py < h)[:, None] & (px < wd))
        cell = py[:, None] * wd + px
        np.minimum.at(best, cell.ravel()[hit], lo + hit % m)
    won = np.flatnonzero(best < order.size)
    pts = order[best[won]]
    zw = z[pts]
    depth = np.full((h, wd), np.inf)
    index = np.full((h, wd), -1, dtype=np.int32)
    image = np.zeros((h, wd), dtype=np.uint8)
    depth.flat[won] = zw
    index.flat[won] = pts
    if won.size:
        if cam.color_mode == "depth":
            if cam.depth_range is not None:
                z_lo, z_hi = cam.depth_range
            else:
                z_lo, z_hi = float(zw.min()), float(zw.max())
            if z_hi > z_lo:
                t = np.clip((z_hi - zw) / (z_hi - z_lo), 0.0, 1.0)
                image.flat[won] = (1 + np.round(254.0 * t)).astype(np.uint8)
            else:
                image.flat[won] = 255
        else:
            oid = np.asarray(object_id)
            image.flat[won] = (1 + (oid[pts] % 255)).astype(np.uint8)
    return RasterFrame(image=image, depth=depth, index=index,
                       empty=not won.size)


def write_pgm(image: np.ndarray, path):
    """Binary portable graymap (P5), byte-stable."""
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim != 2:
        raise ShapeError("image must be 2-D grayscale")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    write_file(path, header + img.tobytes(), "image")

