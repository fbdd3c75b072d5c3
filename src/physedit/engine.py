"""MLS-MPM solver over the six constitutive classes.

``step`` advances one substep: it takes the Kirchhoff stress tau = P F^T
and the updated F from ``batch_constitutive`` and then runs four phases,
with quadratic B-spline kernels and APIC affine velocities:

  _p2g          scatter mass and momentum, body forces and the MLS stress
                term to the grid, building each block's ``_Stencil``
  _grid_update  momentum -> velocity, damping, and the ground and walls
                on whole node layers (``_boundary_layers``)
  _couple_rigid give each rigid group's support nodes one fitted rigid
                motion (``_rigid_groups``)
  _g2p          gather velocity and the APIC matrix, update F and the
                positions; rigid groups move rigidly (``_move_rigid``)

``SimulationState`` fixes the particle layout, ``_Derived`` what each
substep reads that changes only with a schedule edit, and ``simulate``
steps from frame to frame at ``stable_dt``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional

import numpy as np

from .constitutive import _class_rows, batch_constitutive, lame_parameters
from .errors import (DomainError, EmptyScene, GridOverflow, NumericalError,
                     ParticleEscape, check_size)
from .materials import (MaterialClass, MaterialField, validate_field,
                        wave_speeds)
from .schedule import InstructionSchedule, ScheduleRuntime
from .trajectory import Trajectory

_BC_MODES = ("sticky", "slip", "separate")
GRID_MARGIN = 3  # cells kept clear between particles and the grid faces
# singular values of a rigid group's contact rows below this fraction of the
# largest count as 0, so repeated or dependent contacts leave no spurious dof
_RANK_RTOL = 1e-12
_OFFSETS = np.array(list(np.ndindex(3, 3, 3)))  # (27, 3) (i, j, k), k fastest
# rows o_x, o_y, o_z and 1 of the 27 offsets, (4, 27); P2G takes the
# transpose [o, 1], whose unit stride along the offsets keeps a one-particle
# block's matrix-vector product summing in the order of a larger block's
_OFFSETS_1 = np.ascontiguousarray(np.vstack([_OFFSETS.T, np.ones(27)]))
_BLOCK = 512  # particles per transfer block, the fastest of 256-1024 measured
# simulate refuses a larger (frames, N, 3) frame array before allocating it.
# A frame value costs 4 B there and 12 B more while Trajectory.from_frames
# gathers each object's frames and copies them to float64 (tracemalloc gave
# 13.8 B per added value on drop_cube), so the largest run peaks near 1.1 GB.
MAX_FRAME_VALUES = 1 << 26
# _p2g refuses an active box of more grid nodes before allocating its grid.
# A node costs 57 B in a substep (the 4-channel grid, grid_v and its mass
# mask; tracemalloc gave 57.0 B on boxes of 0.25M-2.9M nodes), so the
# largest accepted box peaks near 0.96 GB.
MAX_GRID_NODES = 1 << 24


@dataclass
class SimConfig:
    """Solver configuration.

    Domain bounds are optional but paired; without them the domain is
    derived from the particle bounds, the ground plane and a headroom factor.
    """

    h_grid: float
    cfl_number: float = 0.3
    frames: int = 24
    fps: float = 24.0
    domain_lo: Optional[tuple] = None
    domain_hi: Optional[tuple] = None
    ground_height: float = 0.0
    ground_bc: str = "sticky"
    wall_bc: str = "separate"  # the mode of every domain wall
    damping: float = 0.0
    seed: int = 0

    def validate(self):
        for name in ("h_grid", "fps", "ground_height", "damping",
                     "domain_lo", "domain_hi"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value).all():
                raise DomainError(f"{name} must be finite")
        if not (self.h_grid > 0):
            raise DomainError("h_grid must be positive")
        if not (0.0 < self.cfl_number < 1.0):
            raise DomainError("cfl_number must lie in (0, 1)")
        if not (self.fps > 0):
            raise DomainError("fps must be positive")
        if self.frames < 1:
            raise DomainError("frames must be >= 1")
        if self.ground_bc not in _BC_MODES or self.wall_bc not in _BC_MODES:
            raise DomainError(f"boundary modes must be one of {_BC_MODES}")
        if self.damping < 0:
            raise DomainError("damping must be non-negative")
        return self


@dataclass(frozen=True)
class ObjectInit:
    """One object entering the scene: a filled field plus its placement."""

    field: MaterialField
    h_fill: float
    velocity: tuple = (0.0, 0.0, 0.0)
    translate: tuple = (0.0, 0.0, 0.0)
    rotate: Optional[np.ndarray] = None  # 3x3, applied before translation


@dataclass
class SimulationState:
    # per particle; x and v are (N, 3) views of contiguous (3, N) buffers,
    # c_apic and f (N, 3, 3) views of (3, 3, N) ones, so each component is
    # one contiguous row; step takes any layout, with the same bits, and
    # stores them component-major again
    x: np.ndarray
    v: np.ndarray
    c_apic: np.ndarray
    f: np.ndarray
    mass: np.ndarray
    vol0: np.ndarray
    object_id: np.ndarray
    part: np.ndarray
    interior: np.ndarray
    class_id: np.ndarray
    young_modulus: np.ndarray
    poisson_ratio: np.ndarray
    density: np.ndarray
    gravity_scale: np.ndarray
    wind_scale: np.ndarray
    # grid
    origin: np.ndarray
    dims: np.ndarray  # node counts per axis
    h: float
    # globals
    gravity: np.ndarray = dc_field(default_factory=lambda: np.array([0.0, -9.8, 0.0]))
    wind: np.ndarray = dc_field(default_factory=lambda: np.zeros(3))
    ground_height: float = 0.0
    ground_bc: str = "sticky"
    wall_bc: str = "separate"
    damping: float = 0.0
    t: float = 0.0

    @property
    def n_particles(self) -> int:
        return self.x.shape[0]


def build_state(objects, cfg: SimConfig, gravity=(0.0, -9.8, 0.0),
                wind=(0.0, 0.0, 0.0)) -> SimulationState:
    """Assemble particles from filled fields and size the background grid.

    Particle volume is h_fill^3; mass is density * volume; deformation
    starts at identity with zero affine velocity.
    """
    cfg.validate()
    if not objects:
        raise EmptyScene("no objects in scene")

    columns = []  # per object, keyed by SimulationState field
    for oid, obj in enumerate(objects):
        fld = obj.field
        report = validate_field(fld)
        if not report.ok:
            raise DomainError(f"object {oid} field invalid:\n{report}")
        if not (np.isfinite(obj.h_fill) and obj.h_fill > 0):
            raise DomainError(f"object {oid}: h_fill must be finite and positive")
        pos = fld.positions
        if obj.rotate is not None:
            pos = pos @ np.asarray(obj.rotate, dtype=np.float64).T
        n = pos.shape[0]
        columns.append({
            "x": pos + np.asarray(obj.translate, dtype=np.float64),
            "v": np.tile(np.asarray(obj.velocity, dtype=np.float64), (n, 1)),
            "vol0": np.full(n, obj.h_fill ** 3),
            "object_id": np.full(n, oid, dtype=np.int32),
            "part": (fld.part_label if fld.part_label is not None
                     else np.zeros(n, dtype=np.int32)),
            "interior": fld.interior_flag, "class_id": fld.class_id,
            "young_modulus": fld.young_modulus,
            "poisson_ratio": fld.poisson_ratio, "density": fld.density})
    # fresh writable copies: schedule edits write the material columns
    cols = {key: np.concatenate([c[key] for c in columns]) for key in columns[0]}
    n_total = cols["x"].shape[0]

    h = cfg.h_grid
    margin = GRID_MARGIN * h
    if (cfg.domain_lo is None) != (cfg.domain_hi is None):
        raise DomainError("domain_lo and domain_hi must be given together")
    if cfg.domain_lo is None:
        lo = cols["x"].min(axis=0)
        hi = cols["x"].max(axis=0)
        extent = np.maximum(hi - lo, h)
        lo = lo - 0.5 * extent - margin
        hi = hi + 0.5 * extent + margin
        lo[1] = min(lo[1], cfg.ground_height - margin)
    else:
        lo = np.asarray(cfg.domain_lo, dtype=np.float64)
        hi = np.asarray(cfg.domain_hi, dtype=np.float64)
        if np.any(hi - lo <= 0):
            raise DomainError("domain_hi must exceed domain_lo")
    # node counts as Python ints, from Python floats: a tiny h gives counts
    # past int64, or an inf, which a numpy cast would wrap with a warning
    spans = [(b - a) / h for a, b in zip(lo.tolist(), hi.tolist())]
    nodes = [math.ceil(s) + 1 if s < math.inf else s for s in spans]
    check_size("simulate", max(nodes), np.iinfo(np.int64).max,
               "grid nodes on one axis")
    dims = np.array(nodes, dtype=np.int64)

    for key in ("x", "v"):
        cols[key] = np.ascontiguousarray(cols[key].T).T
    f = np.zeros((3, 3, n_total))
    f[0, 0] = f[1, 1] = f[2, 2] = 1.0
    state = SimulationState(
        **cols, c_apic=np.zeros((3, 3, n_total)).transpose(2, 0, 1),
        f=f.transpose(2, 0, 1),
        mass=cols["density"] * cols["vol0"],
        gravity_scale=np.ones(n_total),
        wind_scale=np.ones(n_total),
        origin=lo, dims=dims, h=h,
        # copies: schedule edits write the scene vectors in place
        gravity=np.array(gravity, dtype=np.float64),
        wind=np.array(wind, dtype=np.float64),
        ground_height=cfg.ground_height,
        ground_bc=cfg.ground_bc, wall_bc=cfg.wall_bc,
        damping=cfg.damping,
    )
    _check_inside(state, build=True)
    return state


def _check_inside(state: SimulationState, build=False):
    """GridOverflow (build) or ParticleEscape unless every particle keeps
    GRID_MARGIN cells from the grid faces.

    (x - origin) / h rounds monotonically in x, so testing the per-axis
    extremes of x gives the per-particle test's answer bit for bit; the
    per-particle pass runs only on failure, to name the lowest bad index.
    """
    xt = state.x.T
    lo = (xt.min(axis=1) - state.origin) / state.h
    hi = (xt.max(axis=1) - state.origin) / state.h
    if (lo >= GRID_MARGIN).all() and (hi <= (state.dims - 1) - GRID_MARGIN).all():
        return
    gx = (state.x - state.origin) / state.h
    bad = ~((gx >= GRID_MARGIN) & (gx <= (state.dims - 1) - GRID_MARGIN)).all(axis=1)
    i = int(np.nonzero(bad)[0][0])
    msg = (f"particle {i} at {state.x[i]} outside grid margin "
           f"(origin {state.origin}, dims {state.dims}, h {state.h})")
    if build:
        raise GridOverflow(msg)
    raise ParticleEscape(msg, particle=i)


@dataclass(frozen=True)
class _Derived:
    """What a substep reads that changes at most once per schedule edit.

    bounds depends only on the grid, the ground and the wall mode, which
    no edit changes, so it is derived once per run.  The other fields come
    from the columns only ``ScheduleRuntime.apply`` writes (E, nu, rho,
    the class, the gravity and wind scales, the scene's gravity and wind),
    so ``simulate`` derives them at the start and all of them again after
    any substep with an edit.  ``stable_dt``, ``step`` and
    ``batch_constitutive`` derive what they are not given; the phases
    below them never do.
    """

    bounds: tuple  # _boundary_layers(state)
    c_max: float   # largest non-RIGID P-wave speed
    g_max: float   # |gravity| max |gravity_scale| + |wind| max |wind_scale|
    lame: tuple    # per-particle (mu, lambda)
    g_eff: np.ndarray  # (3, N) per-particle body-force acceleration
    rows: tuple    # one selection per MaterialClass: _class_rows(class_id)
    groups: list   # _rigid_groups(state)


def _derive(state: SimulationState, bounds=None) -> _Derived:
    """Every field of ``_Derived``; bounds, when given, is kept."""
    c_p, _ = wave_speeds(state.young_modulus, state.poisson_ratio,
                         state.density)
    return _Derived(
        bounds=_boundary_layers(state) if bounds is None else bounds,
        c_max=float(c_p[state.class_id != MaterialClass.RIGID]
                    .max(initial=0.0)),
        g_max=(np.linalg.norm(state.gravity) * np.abs(state.gravity_scale).max()
               + np.linalg.norm(state.wind) * np.abs(state.wind_scale).max()),
        lame=lame_parameters(state.young_modulus, state.poisson_ratio),
        g_eff=(state.gravity[:, None] * state.gravity_scale
               + state.wind[:, None] * state.wind_scale),
        rows=_class_rows(state.class_id),
        groups=_rigid_groups(state))


def stable_dt(state: SimulationState, cfg: SimConfig,
              derived: Optional[_Derived] = None) -> float:
    """CFL bound from live parameters.

    dt = cfl h / (max c_p + max |v|), with c_p over the non-RIGID
    particles only (rigid ones carry no stress), and at most
    sqrt(cfl h / g_max), the time a particle starting at rest takes to
    fall cfl h / 2 under g_max (``_Derived``), which bounds every
    particle's body force; so a scene where nothing deformable moves
    still gets a finite step.  Returns
    inf when neither bound applies (no deformable particle, nothing
    moving and no body force); simulate then steps to the next frame.
    """
    if derived is None:
        derived = _derive(state)
    with np.errstate(over="ignore"):
        v_max = float(np.sqrt((state.v.T ** 2).sum(axis=0).max(initial=0.0)))
    reach = cfg.cfl_number * state.h
    speed = derived.c_max + v_max
    dt = reach / speed if speed > 0 else np.inf
    if derived.g_max > 0:
        dt = min(dt, float(np.sqrt(reach / derived.g_max)))
    return dt


def _bspline_weights(fx):
    # quadratic B-spline, fx (3 axes, N) in [0.5, 1.5)
    w0 = 0.5 * (1.5 - fx) ** 2
    w1 = 0.75 - (fx - 1.0) ** 2
    w2 = 0.5 * (fx - 0.5) ** 2
    return np.stack([w0, w1, w2], axis=1)  # (3 axes, 3 offsets, N)


def _apply_bc_slab(vel, axis, sign, layers, mode):
    """Wall with inward normal sign*e_axis; mode per _BC_MODES.

    vel is the (3, *sub) grid velocity and layers the slice of node layers
    along axis that the wall constrains.
    """
    slab = (slice(None),) * axis + (layers,)
    if mode == "sticky":
        vel[(slice(None),) + slab] = 0.0
    elif mode == "slip":
        vel[axis][slab] = 0.0
    else:  # separate: remove only the into-the-wall component
        comp = vel[axis][slab]
        vel[axis][slab] = np.maximum(comp, 0.0) if sign > 0 else np.minimum(comp, 0.0)


@dataclass(frozen=True)
class _Stencil:
    """Quadratic B-spline stencil of every particle on the active grid box.

    blocks holds (rows, idx, w) of each transfer block, ``block(rows)``
    for rows = the next _BLOCK particles: ``_p2g`` builds them and
    ``_g2p`` reads the same ones back, so each substep builds each block
    once.
    """

    fx: np.ndarray   # (3, N) position in cells relative to the base node
    w: np.ndarray    # (3 axes, 3 offsets, N) per-axis weights
    rel: np.ndarray  # (3, N) base node within the box
    lo: np.ndarray   # (3,) first node of the box
    sub: np.ndarray  # (3,) node counts of the box
    blocks: list = dc_field(default_factory=list)

    @cached_property
    def flat(self):
        """(N,) flat index of each particle's base node in the box."""
        return np.ravel_multi_index(self.rel, self.sub)

    @cached_property
    def steps(self):
        """(27,) flat index step of each offset of _OFFSETS."""
        return np.ravel_multi_index(_OFFSETS.T, self.sub)

    def block(self, rows):
        """Flat node indices (27 b,) and weights (27, b) of particles
        ``rows``, offset _OFFSETS[o] o-th: one base node per particle plus
        the 27 fixed steps."""
        wx, wy, wz = self.w[:, :, rows]
        w = wx[:, None, None] * wy[None, :, None] * wz[None, None, :]
        idx = self.steps[:, None] + self.flat[rows]
        return idx.ravel(), w.reshape(27, -1)


def _p2g(state: SimulationState, dt: float, kirchhoff, g_eff):
    """Scatter mass and momentum, with the fused MLS stress term
    -dt V0 (4 / h^2) tau, to the grid.

    A node at offset o in {0,1,2}^3 sits at h (o - fx) from the particle,
    so the affine term is h A o - h A fx.  Each block's momentum terms
    w (q_base + h A o), with q_base = m (v + dt g_eff) - h A fx, come from
    one matmul of [o, 1] (27 x 4) by (h A, q_base) and a scaling by w,
    with the bits of adding q_base after [o] h A; its mass terms are w m.
    Both go into one (4, n_sub) grid on the active box, one ``np.add.at``
    per channel and block, so each node sums its terms in one chain, in
    block and offset order, whatever the thread count.  Returns (stencil,
    grid_mass (n_sub,), grid_mom (3, n_sub)), views of that grid.
    """
    h = state.h
    gx = (state.x.T - state.origin[:, None]) / h  # (3, N)
    base = np.floor(gx - 0.5).astype(np.int64)
    fx = gx - base

    # compact active box
    lo, hi = base.min(axis=1), base.max(axis=1)
    sub = hi + 3 - lo
    stencil = _Stencil(fx, _bspline_weights(fx), base - lo[:, None], lo, sub)

    # aff[i] = (h A_i0, h A_i1, h A_i2, q_base_i), (3, 4, N)
    aff = np.empty((3, 4, state.n_particles))
    h_a, q_base = aff[:, :3], aff[:, 3]
    h_a[...] = h * ((-dt * state.vol0 * 4.0 / (h * h)) * kirchhoff.transpose(1, 2, 0)
                    + state.mass * state.c_apic.transpose(1, 2, 0))
    np.subtract(state.mass * (state.v.T + dt * g_eff),
                h_a[:, 0] * fx[0] + h_a[:, 1] * fx[1] + h_a[:, 2] * fx[2], out=q_base)

    n_nodes = math.prod(sub.tolist())  # a Python int: no int64 wrap
    check_size("simulate", n_nodes, MAX_GRID_NODES, "grid nodes")
    grid = np.zeros((4, n_nodes))
    buf = np.empty(4 * 27 * _BLOCK)  # one block's products, reused
    for start in range(0, state.n_particles, _BLOCK):
        rows = slice(start, start + _BLOCK)
        idx, w = stencil.block(rows)
        stencil.blocks.append((rows, idx, w))
        q = buf[:4 * w.size].reshape(4, *w.shape)
        np.multiply(w, state.mass[rows], out=q[0])
        np.matmul(_OFFSETS_1.T, aff[:, :, rows], out=q[1:])
        q[1:] *= w
        for channel, terms in zip(grid, q):
            np.add.at(channel, idx, terms.ravel())
    return stencil, grid[0], grid[1:]


def _boundary_layers(state: SimulationState):
    """(axis, inward sign, first, stop, mode) of the ground, then the walls
    x_min, x_max, y_max, z_min and z_max: each constrains the node layers
    first <= k < stop along axis.

    Layer k sits at origin + h k, which rounds monotonically in k, so the
    layers at or below the ground (to 1e-12) or within the margin band of
    a lower face are a prefix of 0..dims-1, and those within the band of
    an upper face a suffix.  Bisecting on the same comparison of one
    layer's coordinate at a time gives each range's end exactly, in
    O(log dims) work and no per-layer array.
    """
    h = state.h
    ks = [range(n) for n in state.dims.tolist()]  # layer indices per axis
    coord = [lambda k, o=o: o + h * k for o in state.origin]  # of layer k

    def below(axis, threshold, mode):
        stop = bisect_right(ks[axis], threshold, key=coord[axis])
        return axis, +1, 0, stop, mode

    def above(axis, threshold, mode):
        first = bisect_left(ks[axis], threshold, key=coord[axis])
        return axis, -1, first, len(ks[axis]), mode

    # ground plane (inward normal +y); the y_min wall is the ground side
    layers = [below(1, state.ground_height + 1e-12, state.ground_bc)]
    # domain walls within the margin band
    top = state.origin + (state.dims - 1) * h
    band = GRID_MARGIN * h + 1e-12
    for axis in (0, 1, 2):
        if axis != 1:
            layers.append(below(axis, state.origin[axis] + band, state.wall_bc))
        layers.append(above(axis, top[axis] - band, state.wall_bc))
    return tuple(layers)


def _boundaries(stencil: _Stencil, bounds):
    """Yield (axis, inward sign, layers, mode) for each boundary that
    constrains a node layer of the active box, in ``_boundary_layers``
    order; layers is the slice of the box's node layers along axis that
    it constrains, and bounds is ``_Derived.bounds``.
    """
    lo, sub = stencil.lo.tolist(), stencil.sub.tolist()
    for axis, sign, first, stop, mode in bounds:
        start = max(first - lo[axis], 0)
        end = min(stop - lo[axis], sub[axis])
        if start < end:
            yield axis, sign, slice(start, end), mode


def _grid_update(state: SimulationState, dt: float, stencil: _Stencil,
                 grid_mass, grid_mom, bounds):
    """Momentum -> velocity, then damping, the ground and the domain walls.

    Every boundary constrains whole node layers along one axis
    (``_boundaries``, which takes bounds).  Returns grid_v in the
    (3, n_sub) layout of grid_mom.
    """
    grid_v = np.divide(grid_mom, grid_mass, out=np.zeros_like(grid_mom),
                       where=grid_mass > 0)
    if state.damping > 0:
        grid_v *= max(0.0, 1.0 - state.damping * dt)
    vel = grid_v.reshape(3, *stencil.sub)
    for axis, sign, layers, mode in _boundaries(stencil, bounds):
        _apply_bc_slab(vel, axis, sign, layers, mode)
    return grid_v


def _rigid_groups(state: SimulationState):
    """Particle indices of each rigid group, the RIGID particles of one
    (object id, part), in that order."""
    rigid = np.flatnonzero(state.class_id == MaterialClass.RIGID)
    if rigid.size == 0:
        return []
    keys = np.stack([state.object_id[rigid], state.part[rigid]], axis=1)
    _, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    order = np.argsort(inverse, kind="stable")
    return np.split(rigid[order], np.cumsum(np.bincount(inverse))[:-1])


def _rigid_fit(mass, r, v, rows):
    """Mass-weighted least-squares rigid velocity u = (V, omega) of points.

    Minimizes sum m |V + omega x r - v|^2 over offsets r from the points'
    centroid, subject to rows @ u = 0 for constraint rows (k, 6).  About
    the centroid the normal matrix is diag(M I, inertia), so without
    constraints V = sum m v / M and omega = inertia^-1 sum m r x v.  The
    points here are a support, which always holds a 2x2x2 block of nodes
    with mass, so the inertia is invertible.  Constraints restrict u to
    the null space of rows.
    """
    inertia = ((mass * (r * r).sum(axis=1)).sum() * np.eye(3)
               - (mass[:, None] * r).T @ r)
    normal = np.zeros((6, 6))
    normal[:3, :3] = mass.sum() * np.eye(3)
    normal[3:, 3:] = inertia
    rhs = np.concatenate([mass @ v, mass @ np.cross(r, v)])
    basis = np.eye(6)
    if len(rows):
        _, s, vt = np.linalg.svd(rows)
        basis = vt[np.count_nonzero(s > _RANK_RTOL * s[0]):].T
    return basis @ np.linalg.solve(basis.T @ normal @ basis, basis.T @ rhs)


def _contact_rows(r, rel, boundaries):
    """Constraint rows of the particles whose stencil meets a constrained layer.

    A row (e_a, r x e_a) . (V, omega) is the velocity component a of the
    rigid motion at offset r.  Sticky fixes all three components, slip the
    normal one; separate gives one-sided rows, with the boundary's inward
    sign, that bind only where the motion goes into the wall.  rel holds
    the particles' (3, n) base nodes in the box, and boundaries is
    ``_boundaries``' output.  Returns (rows, one-sided rows, their signs).
    """
    rows, one_sided, signs = [np.zeros((0, 6))], [np.zeros((0, 6))], [[]]
    for axis, sign, layers, mode in boundaries:
        # the stencil's layers base..base + 2 meet layers.start..stop - 1
        base = rel[axis]
        touch = (base <= layers.stop - 1) & (base + 2 >= layers.start)
        if not touch.any():
            continue
        for a in (0, 1, 2) if mode == "sticky" else (axis,):
            e = np.eye(3)[a]
            block = np.hstack([np.broadcast_to(e, (touch.sum(), 3)),
                               np.cross(r[touch], e)])
            if mode == "separate":
                one_sided.append(block)
                signs.append(np.full(len(block), float(sign)))
            else:
                rows.append(block)
    return np.vstack(rows), np.vstack(one_sided), np.concatenate(signs)


def _skew(w):
    """[w]x, the matrix of the cross product w x ."""
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def _couple_rigid(state: SimulationState, stencil: _Stencil, grid_mass,
                  grid_v, groups, bounds):
    """Give the support nodes of each rigid group one rigid motion.

    The support is every node in the stencil of one of the group's
    particles.  The fit weighs each node by its whole mass, so the group
    exchanges momentum with any object that shares those nodes, and that
    object moves with the group there instead of through it (a simplified
    form of the two-way rigid coupling of Hu et al. 2018).  A member
    whose stencil meets a node layer that the ground or a wall constrains
    turns that boundary's mode into a constraint on the fit at the
    member (``_contact_rows``); one-sided rows join while any of them
    moves into its wall (an active set that only grows, so it ends
    within one pass per row).  Groups are fitted in turn, so a node two
    supports share ends with the later group's motion.  Returns
    (centroid, (V, omega)) for each group; bounds as in ``_boundaries``.
    """
    if not groups:
        return []
    boundaries = list(_boundaries(stencil, bounds))
    motions = []
    for group in groups:
        nodes = np.unique(stencil.steps[:, None] + stencil.flat[group])
        layer = np.array(np.unravel_index(nodes, stencil.sub))
        x = (state.origin[:, None]
             + state.h * (stencil.lo[:, None] + layer)).T
        mass = grid_mass[nodes]
        centroid = mass @ x / mass.sum()
        r = x - centroid
        v = grid_v[:, nodes].T
        rows, one_sided, signs = _contact_rows(state.x[group] - centroid,
                                               stencil.rel[:, group],
                                               boundaries)
        u = _rigid_fit(mass, r, v, rows)
        active = np.zeros(len(signs), dtype=bool)
        while True:
            into = ~active & (signs * (one_sided @ u) < 0)
            if not into.any():
                break
            active |= into
            u = _rigid_fit(mass, r, v, np.vstack([rows, one_sided[active]]))
        grid_v[:, nodes] = (u[:3] + r @ _skew(u[3:]).T).T
        motions.append((centroid, u))
    return motions


def _move_rigid(state: SimulationState, dt: float, group, centroid, u):
    """Set a rigid group to the motion u = (V, omega) about centroid.

    Its velocities become V + omega x (x - centroid), its APIC matrix
    [omega]x and its F the identity (what the gather of a rigid grid
    motion gives, up to round-off), and its positions move by dt V plus
    the rotation exp(dt [omega]x) about the centroid (Rodrigues), so its
    pairwise distances hold to round-off.  Returns the new positions.
    """
    r = state.x[group] - centroid
    w = _skew(u[3:])
    state.v[group] = u[:3] + r @ w.T
    state.c_apic[group] = w
    state.f[group] = np.eye(3)
    theta = dt * float(np.linalg.norm(u[3:]))
    # exp(dt W) = I + sin(t)/t dt W + (1 - cos t)/t^2 dt^2 W^2, t = dt |omega|
    rot = (np.eye(3) + dt * np.sinc(theta / np.pi) * w
           + 0.5 * (dt * np.sinc(theta / (2.0 * np.pi))) ** 2 * (w @ w))
    return centroid + dt * u[:3] + r @ rot.T


def _g2p(state: SimulationState, dt: float, stencil: _Stencil, grid_v, rigid):
    """Gather velocity and the APIC matrix, then update F and positions.

    B = sum_o w v (x) dpos = h (sum_o w v (x) o - v (x) fx), and the
    affine velocity is C = 4 B / h^2.  One matmul of [o; 1] (4 x 27) by
    the weighted node velocities of each of ``_p2g``'s blocks gives
    sum_o w v (x) o and v = sum_o w v together.  rigid pairs each rigid
    group with its motion from ``_couple_rigid``.
    """
    n = state.n_particles
    sums = np.empty((3, 4, n))  # sums[i] = (sum_o w v_i o, sum_o w v_i)
    for rows, idx, w in stencil.blocks:
        wv = np.take(grid_v, idx, axis=1).reshape(3, *w.shape)
        wv *= w
        np.matmul(_OFFSETS_1, wv, out=sums[:, :, rows])
    v = sums[:, 3].copy()
    # c[i, m] = v_i fx_m, then C_im, C-ordered whatever the layout of fx
    c = np.multiply(v[:, None, :], stencil.fx, order="C")
    np.subtract(sums[:, :3], c, out=c)
    c *= 4.0 / state.h
    del sums  # before F's update, where a substep's memory peaks

    state.v = v.T
    state.c_apic = c.transpose(2, 0, 1)
    step_c = dt * c  # I + dt C; rows 0, 4 and 8 of (9, N) are the diagonal
    step_c.reshape(9, n)[::4] += 1.0
    state.f = np.einsum("ijn,jkn->ikn", step_c,
                        state.f.transpose(1, 2, 0)).transpose(2, 0, 1)
    x = (state.x.T + dt * v).T
    for group, (centroid, u) in rigid:
        x[group] = _move_rigid(state, dt, group, centroid, u)
    state.x = x
    state.t += dt


def step(state: SimulationState, dt: float,
         derived: Optional[_Derived] = None):
    """Advance the state by one substep of size dt (<= stable_dt)."""
    if derived is None:
        derived = _derive(state)
    # the Kirchhoff stress tau = P F^T is the stress the MLS term of _p2g takes
    kirchhoff, state.f = batch_constitutive(
        state.f, state.class_id, state.young_modulus, state.poisson_ratio,
        rows=derived.rows, lame=derived.lame)
    stencil, grid_mass, grid_mom = _p2g(state, dt, kirchhoff, derived.g_eff)
    grid_v = _grid_update(state, dt, stencil, grid_mass, grid_mom,
                          derived.bounds)
    groups = derived.groups
    motions = _couple_rigid(state, stencil, grid_mass, grid_v, groups,
                            derived.bounds)
    _g2p(state, dt, stencil, grid_v, zip(groups, motions))

    for name, arr in (("v", state.v), ("x", state.x), ("F", state.f)):
        if not np.isfinite(arr).all():
            bad = ~np.isfinite(arr.reshape(state.n_particles, -1)).all(axis=1)
            i = int(np.flatnonzero(bad)[0])
            raise NumericalError(f"particle {i}: non-finite {name} after substep",
                                 particle=i)
    _check_inside(state)


def object_events(state: SimulationState, objects):
    """Per-object aggregates used by event triggers.

    objects maps each object id to probe to its particles (a slice, a
    mask or an index array).  Ground contact means a particle's B-spline
    support overlaps the constrained ground nodes (within 1.5 h); resting
    bodies equilibrate about one cell above the node layer, so tighter
    bands never fire.
    """
    events = {}
    contact_band = 1.5 * state.h
    for oid, rows in objects.items():
        y = state.x[rows, 1]
        with np.errstate(over="ignore"):  # inf, as in stable_dt
            speed = np.sqrt((state.v[rows] ** 2).sum(axis=1))
        events[int(oid)] = {
            "min_height": float(y.min()),
            "max_speed": float(speed.max()),
            "ground_contact": bool((y - state.ground_height <= contact_band).any()),
        }
    return events


def simulate(state: SimulationState, schedule, cfg: SimConfig):
    """Advance to every frame time k/fps, applying scheduled edits.

    Returns a Trajectory; deterministic for fixed inputs; schedule None
    is the empty schedule.  WorkBudget if the frame array would hold more
    than MAX_FRAME_VALUES values or a substep's active box more than
    MAX_GRID_NODES nodes, NumericalError before a substep whose dt
    would not advance t (as when a speed's square overflows).  A substep
    whose start applies edits takes dt again from the new ``stable_dt``,
    since an edit can raise max c_p, g_max or (by an impulse) max |v|.
    """
    cfg.validate()
    runtime = ScheduleRuntime(schedule or InstructionSchedule())

    n = state.n_particles
    check_size("simulate", cfg.frames * n * 3, MAX_FRAME_VALUES, "frame values")
    frames = np.empty((cfg.frames, n, 3), dtype=np.float32)
    frames[0] = state.x
    edit_log = []
    derived = _derive(state)

    for frame in range(1, cfg.frames):
        target_t = frame / cfg.fps
        substep = 0
        while state.t < target_t - 1e-12:
            dt = min(stable_dt(state, cfg, derived), target_t - state.t)
            edits = runtime.apply(state, state.t, dt)
            if edits:
                edit_log.extend(edits)
                derived = _derive(state, derived.bounds)
                dt = min(dt, stable_dt(state, cfg, derived))
            t_before = state.t
            try:
                if not t_before + dt > t_before:
                    speed = np.hypot.reduce(state.v, axis=1)
                    i = int(speed.argmax())
                    raise NumericalError(
                        f"dt={dt:g} does not advance t; the fastest, particle "
                        f"{i}, moves at {speed[i]:.3g} m/s", particle=i)
                step(state, dt, derived)
            except (ParticleEscape, NumericalError) as exc:
                where = f"frame {frame}, substep {substep}, t={t_before:.6g}"
                if exc.particle is not None:
                    where += f", object {int(state.object_id[exc.particle])}"
                raise type(exc)(f"{where}: {exc}",
                                particle=exc.particle) from exc
            substep += 1
        state.t = target_t
        frames[frame] = state.x

    return Trajectory.from_frames(frames, cfg.fps, state.object_id.copy(),
                                  edit_log=edit_log)
