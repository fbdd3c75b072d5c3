"""Independent brute-force reference implementations used by the tests.

Everything here is written as plain scalar loops (or per-pixel loops, or
per-node masks over a whole grid box, or per-offset loops over the 27
nodes of a particle's stencil) so the library's vectorized kernels
are checked against code that shares no implementation path with them.
The exceptions are the three earlier forms of optimized kernels, kept so
their replacements can be held to the same bits: ``return_map_oracle``
(every return-mapped particle through ``svd3``),
``wide_stencil_raster_oracle`` (the (2 ceil(r) + 1)^2 pixel stencil) and
``unfused_p2g_oracle`` (P2G adding q_base after its offset matmul).
"""

import math
from itertools import product

import numpy as np

from physedit import constitutive
from physedit.materials import MaterialClass
from physedit.raster import RasterFrame


def lame_oracle(e, nu):
    mu = e / (2 * (1 + nu))
    lam = e * nu / ((1 + nu) * (1 - 2 * nu))
    return mu, lam


def wave_oracle(e, nu, rho):
    mu, lam = lame_oracle(e, nu)
    return math.sqrt((lam + 2 * mu) / rho), math.sqrt(mu / rho)


def huber_oracle(r, delta):
    a = abs(r)
    return 0.5 * r * r if a <= delta else delta * (a - 0.5 * delta)


def task_oracle(probs, params, targets, w):
    n = len(probs)
    total = 0.0
    for i in range(n):
        reg = sum(huber_oracle(params[i][c] - targets.param_targets[i][c],
                               w.huber_delta) for c in range(3))
        ce = -math.log(probs[i][targets.class_labels[i]])
        total += w.lambda_reg * reg + w.lambda_cls * ce
    return total / n


def knn_same_part(positions, part, i, k):
    cands = [j for j in range(len(positions))
             if j != i and part[j] == part[i]]
    cands.sort(key=lambda j: (float(np.sum((positions[j] - positions[i]) ** 2)), j))
    return cands[:k]


def smoothness_oracle(field, w):
    n = field.n_points
    pos = field.positions
    part = field.part_label if field.part_label is not None \
        else np.zeros(n, dtype=int)
    speeds = [wave_oracle(field.young_modulus[i], field.poisson_ratio[i],
                          field.density[i]) for i in range(n)]
    total = 0.0
    for i in range(n):
        neigh = knn_same_part(pos, part, i, w.smooth_k)
        if not neigh:
            continue
        acc = 0.0
        for j in neigh:
            d2 = float(np.sum((pos[j] - pos[i]) ** 2))
            acc += ((speeds[j][0] - speeds[i][0]) ** 2
                    + (speeds[j][1] - speeds[i][1]) ** 2) / (d2 + w.smooth_eps)
        total += acc / len(neigh)
    return total / n


def embedding_oracle(e, nu):
    mu = e / (2 * (1 + nu))
    kappa = e / (3 * (1 - 2 * nu))
    u = [math.log(mu), math.log(kappa)]
    r = math.sqrt(u[0] ** 2 + u[1] ** 2)
    return [u[0] / r, u[1] / r]


def contrastive_oracle(field, triplets, w):
    total = 0.0
    for (a, p, q) in triplets:
        ea = embedding_oracle(field.young_modulus[a], field.poisson_ratio[a])
        ep = embedding_oracle(field.young_modulus[p], field.poisson_ratio[p])
        en = embedding_oracle(field.young_modulus[q], field.poisson_ratio[q])
        d_pos = sum((ea[c] - ep[c]) ** 2 for c in range(2))
        d_neg = sum((ea[c] - en[c]) ** 2 for c in range(2))
        total += max(0.0, d_pos - d_neg + w.margin)
    return total / len(triplets)


def assignment_oracle(logits, prompt_idx, tau):
    n, k = np.asarray(logits).shape
    total = 0.0
    for i in range(n):
        scaled = [logits[i][j] / tau for j in range(k)]
        mx = max(scaled)
        z = sum(math.exp(s - mx) for s in scaled)
        total += -(scaled[prompt_idx[i]] - mx - math.log(z))
    return total / n


def central_diff_oracle(fn, x, epsilon):
    """Central differences one probe at a time: fn sees a single input."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + epsilon
        hi = fn(x)
        flat[i] = keep - epsilon
        lo = fn(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2.0 * epsilon)
    return g


def softmax_oracle(row):
    exps = [math.exp(v) for v in row]
    s = sum(exps)
    return [v / s for v in exps]


def brute_force_nearest(surface_pos, queries):
    """O(N*M) nearest-neighbor; exact ties resolved to the lowest index."""
    out = np.empty(queries.shape[0], dtype=np.int64)
    for row, q in enumerate(queries):
        d2 = np.sum((surface_pos - q) ** 2, axis=1)
        out[row] = int(np.argmin(d2))
    return out


def pixel_oracle(positions, cam):
    """O(N*W*H) rasterization: per pixel, nearest covering point."""
    x_cam = positions @ cam.rotation.T + cam.translation
    depth = np.full((cam.height, cam.width), np.inf)
    index = np.full((cam.height, cam.width), -1, dtype=np.int64)
    r2 = cam.splat_radius ** 2
    for py in range(cam.height):
        for px in range(cam.width):
            for i in range(positions.shape[0]):
                z = x_cam[i, 2]
                if z <= 1e-9:
                    continue
                u = cam.fx * x_cam[i, 0] / z + cam.cx
                v = cam.fy * x_cam[i, 1] / z + cam.cy
                if (px - u) ** 2 + (py - v) ** 2 > r2:
                    continue
                if z < depth[py, px] or (z == depth[py, px]
                                         and i < index[py, px]):
                    depth[py, px] = z
                    index[py, px] = i
    return depth, index


def grid_update_oracle(state, dt, lo, sub, grid_mass, grid_mom, margin):
    """Grid velocity with damping, ground and walls by full-box node masks.

    Every node of the active box (first node lo, node counts sub) gets its
    world coordinate, and each boundary selects its nodes by comparing
    those coordinates with its threshold, in the order ground, x_min,
    x_max, y_max, z_min, z_max; walls reach margin cells in from the grid
    faces.  Returns grid_v as (n_sub, 3).
    """
    h = state.h
    n_sub = grid_mass.shape[0]
    grid_v = np.zeros((n_sub, 3))
    active = grid_mass > 0
    grid_v[active] = grid_mom[:, active].T / grid_mass[active, None]
    if state.damping > 0:
        grid_v *= max(0.0, 1.0 - state.damping * dt)

    node_coord = np.stack(np.meshgrid(
        *[state.origin[a] + h * np.arange(lo[a], lo[a] + sub[a]) for a in range(3)],
        indexing="ij"), axis=-1).reshape(n_sub, 3)

    def constrain(mask, axis, sign, mode):
        if mode == "sticky":
            grid_v[mask] = 0.0
        elif mode == "slip":
            grid_v[mask, axis] = 0.0
        else:
            comp = grid_v[mask, axis]
            grid_v[mask, axis] = (np.maximum(comp, 0.0) if sign > 0
                                  else np.minimum(comp, 0.0))

    constrain(node_coord[:, 1] <= state.ground_height + 1e-12, 1, +1,
              state.ground_bc)
    top = state.origin + (state.dims - 1) * h
    band = margin * h + 1e-12
    for axis, lo_name, hi_name in ((0, "x_min", "x_max"), (1, None, "y_max"),
                                   (2, "z_min", "z_max")):
        if lo_name is not None:
            constrain(node_coord[:, axis] <= state.origin[axis] + band, axis, +1,
                      state.wall_bc[lo_name])
        constrain(node_coord[:, axis] >= top[axis] - band, axis, -1,
                  state.wall_bc[hi_name])
    return grid_v


def boundary_layers_oracle(state, lo, sub, margin):
    """(axis, inward sign, layers, mode) of the ground, then the walls
    x_min, x_max, y_max, z_min and z_max, where layers is the boolean
    selection of the box's node layers along axis (first node lo, node
    counts sub) that the boundary constrains, found by comparing each
    layer's coordinate origin + h k with the boundary's threshold."""
    h = state.h
    coord = [state.origin[a] + h * np.arange(lo[a], lo[a] + sub[a])
             for a in range(3)]
    top = state.origin + (state.dims - 1) * h
    band = margin * h + 1e-12
    out = [(1, +1, coord[1] <= state.ground_height + 1e-12, state.ground_bc)]
    for axis, lo_name, hi_name in ((0, "x_min", "x_max"), (1, None, "y_max"),
                                   (2, "z_min", "z_max")):
        if lo_name is not None:
            out.append((axis, +1, coord[axis] <= state.origin[axis] + band,
                        state.wall_bc[lo_name]))
        out.append((axis, -1, coord[axis] >= top[axis] - band,
                    state.wall_bc[hi_name]))
    return out


def contact_rows_oracle(r, rel, boundaries):
    """Rigid-fit constraint rows of the particles whose stencil layers
    rel .. rel + 2 (per axis, in the box) meet a boundary's boolean
    layers, one particle at a time: (rows, one-sided rows, their signs),
    in boundary order, then component order, then particle order."""
    rows, one_sided, signs = [], [], []
    for axis, sign, layers, mode in boundaries:
        touching = [p for p in range(r.shape[0])
                    if any(layers[rel[axis, p] + o] for o in range(3))]
        for a in (0, 1, 2) if mode == "sticky" else (axis,):
            e = np.eye(3)[a]
            for p in touching:
                row = np.concatenate([e, np.cross(r[p], e)])
                if mode == "separate":
                    one_sided.append(row)
                    signs.append(float(sign))
                else:
                    rows.append(row)
    return (np.array(rows).reshape(-1, 6), np.array(one_sided).reshape(-1, 6),
            np.array(signs))


def rigid_fit_oracle(points, masses, velocities):
    """Mass-weighted least-squares rigid motion of weighted points.

    Loops over the points for M, the centroid c, V = sum m v / M, the
    angular momentum L = sum m r x v and the inertia I about c, then
    solves omega = I^-1 L (I must be invertible).  Returns (c, V, omega).
    """
    m_tot = 0.0
    c = [0.0, 0.0, 0.0]
    mom = [0.0, 0.0, 0.0]
    for x, m, v in zip(points, masses, velocities):
        m_tot += m
        for a in range(3):
            c[a] += m * x[a]
            mom[a] += m * v[a]
    c = [ca / m_tot for ca in c]
    vel = [pa / m_tot for pa in mom]
    ang = [0.0, 0.0, 0.0]
    inertia = [[0.0] * 3 for _ in range(3)]
    for x, m, v in zip(points, masses, velocities):
        r = [x[a] - c[a] for a in range(3)]
        ang[0] += m * (r[1] * v[2] - r[2] * v[1])
        ang[1] += m * (r[2] * v[0] - r[0] * v[2])
        ang[2] += m * (r[0] * v[1] - r[1] * v[0])
        rr = r[0] * r[0] + r[1] * r[1] + r[2] * r[2]
        for a in range(3):
            for b in range(3):
                inertia[a][b] += m * ((rr if a == b else 0.0) - r[a] * r[b])
    omega = np.linalg.solve(np.array(inertia), np.array(ang))
    return np.array(c), np.array(vel), omega


def _stencil_oracle(state):
    """Base nodes (N, 3), fx (N, 3), per-axis weights (3 offsets, N, 3) and
    the active box (first node lo, node counts sub) of every particle."""
    gx = (state.x - state.origin) / state.h
    base = np.floor(gx - 0.5).astype(np.int64)
    fx = gx - base
    wts = np.stack([0.5 * (1.5 - fx) ** 2, 0.75 - (fx - 1.0) ** 2,
                    0.5 * (fx - 0.5) ** 2])
    lo = base.min(axis=0)
    sub = base.max(axis=0) + 3 - lo
    return base, fx, wts, lo, sub


def _offsets_oracle(state):
    """Yield (node offset dpos (N, 3), flat box index (N,), weight (N,))
    for the 27 offsets in turn."""
    base, fx, wts, lo, sub = _stencil_oracle(state)
    for o in product(range(3), repeat=3):
        node = base + o - lo
        idx = (node[:, 0] * sub[1] + node[:, 1]) * sub[2] + node[:, 2]
        w = wts[o[0], :, 0] * wts[o[1], :, 1] * wts[o[2], :, 2]
        yield state.h * (np.array(o) - fx), idx, w


def p2g_oracle(state, dt, kirchhoff):
    """Grid mass and momentum by a loop over the 27 stencil offsets.

    Each offset adds w m and w (m (v + dt g) + A dpos), with the affine
    matrix A = -dt V0 (4 / h^2) tau + m C applied to the whole node offset
    dpos.  Returns (lo, sub, grid_mass (n_sub,), grid_mom (3, n_sub)).
    """
    *_, lo, sub = _stencil_oracle(state)
    g_eff = (state.gravity[None, :] * state.gravity_scale[:, None]
             + state.wind[None, :] * state.wind_scale[:, None])
    mom_p = state.mass[:, None] * (state.v + dt * g_eff)
    affine = ((-dt * state.vol0 * 4.0 / state.h ** 2)[:, None, None] * kirchhoff
              + state.mass[:, None, None] * state.c_apic)
    grid_mass = np.zeros(int(np.prod(sub)))
    grid_mom = np.zeros((3, grid_mass.size))
    for dpos, idx, w in _offsets_oracle(state):
        q = w[:, None] * (mom_p + np.einsum("nij,nj->ni", affine, dpos))
        np.add.at(grid_mass, idx, w * state.mass)
        for a in range(3):
            np.add.at(grid_mom[a], idx, q[:, a])
    return lo, sub, grid_mass, grid_mom


def ramp_oracle(v_from, v_to, t_since_trigger, ramp_duration, scale):
    """A ramp's value in closed form: the target for duration 0, else with
    a = clamp(t / duration, 0, 1), v_from + a (v_to - v_from) on a linear
    scale and exp((1 - a) ln v_from + a ln v_to) on a log one."""
    v_from = np.asarray(v_from, dtype=np.float64)
    v_to = np.asarray(v_to, dtype=np.float64)
    if ramp_duration == 0:
        return np.broadcast_to(v_to, np.broadcast_shapes(v_from.shape,
                                                         v_to.shape))
    a = min(max(t_since_trigger / ramp_duration, 0.0), 1.0)
    if scale == "linear":
        return v_from + a * (v_to - v_from)
    return np.exp((1.0 - a) * np.log(v_from) + a * np.log(v_to))


def unfused_p2g_oracle(state, dt, kirchhoff, g_eff, block):
    """Grid (4, n_sub) of mass and momentum summed as ``_p2g`` summed them
    before its offset matmul carried each particle's constant term: per
    block of ``block`` particles, q[0] = m and q[1:] = [o] h A + q_base,
    then q *= w, added with one ``np.add.at`` per channel in block and
    offset order.  Returns (lo, sub, grid)."""
    h = state.h
    gx = (state.x.T - state.origin[:, None]) / h  # (3, N)
    base = np.floor(gx - 0.5).astype(np.int64)
    fx = gx - base
    lo = base.min(axis=1)
    sub = base.max(axis=1) + 3 - lo
    wts = np.stack([0.5 * (1.5 - fx) ** 2, 0.75 - (fx - 1.0) ** 2,
                    0.5 * (fx - 0.5) ** 2], axis=1)  # (3 axes, 3 offsets, N)
    offsets = np.array(list(product(range(3), repeat=3)))
    flat = np.ravel_multi_index(base - lo[:, None], sub)
    steps = np.ravel_multi_index(offsets.T, sub)
    h_a = h * ((-dt * state.vol0 * 4.0 / (h * h)) * kirchhoff.transpose(1, 2, 0)
               + state.mass * state.c_apic.transpose(1, 2, 0))
    q_base = (state.mass * (state.v.T + dt * g_eff)
              - (h_a * fx[None, :, :]).sum(axis=1))
    grid = np.zeros((4, int(sub.prod())))
    for start in range(0, flat.size, block):
        rows = slice(start, start + block)
        wx, wy, wz = wts[:, :, rows]
        w = (wx[:, None, None] * wy[None, :, None] * wz[None, None, :]).reshape(27, -1)
        q = np.empty((4,) + w.shape)
        q[0] = state.mass[rows]
        np.matmul(offsets.astype(np.float64), h_a[:, :, rows], out=q[1:])
        q[1:] += q_base[:, None, rows]
        q *= w
        idx = (steps[:, None] + flat[rows]).ravel()
        for channel, terms in zip(grid, q):
            np.add.at(channel, idx, terms.ravel())
    return lo, sub, grid


def g2p_oracle(state, grid_v):
    """Particle velocity and APIC matrix by a loop over the 27 offsets.

    v = sum w v_node and C = (4 / h^2) sum w v_node (x) dpos, with grid_v
    (3, n_sub) on the particles' active box.  Returns (v (N, 3),
    c_apic (N, 3, 3)).
    """
    v = np.zeros_like(state.x)
    b_mat = np.zeros((state.x.shape[0], 3, 3))
    for dpos, idx, w in _offsets_oracle(state):
        v_node = grid_v[:, idx].T
        v += w[:, None] * v_node
        b_mat += w[:, None, None] * v_node[:, :, None] * dpos[:, None, :]
    return v, 4.0 / state.h ** 2 * b_mat


def return_map_oracle(f, class_id, e, nu):
    """tau and F (N, 3, 3) of PLASTICINE, SAND and SNOW rows, each row
    decomposed by ``svd3`` and return-mapped, as ``batch_constitutive``
    computed every such row before it gave the rows inside their yield
    surfaces the ELASTIC closed form.  Rows are independent, so each row
    has the bits it would have in any batch."""
    c = constitutive
    mu, lam = c.lame_parameters(np.asarray(e), np.asarray(nu))
    u, sig, v = c.svd3(np.asarray(f, dtype=np.float64))
    d = np.empty_like(sig)
    for k, cls in enumerate(class_id):
        s, mu_k, lam_k = sig[k:k + 1], mu[k:k + 1], lam[k:k + 1]
        eps = np.log(np.maximum(s, c._SIGMA_FLOOR))
        if cls == MaterialClass.SAND:
            eps = c._drucker_prager_project(eps, mu_k, lam_k,
                                            c.FRICTION_ANGLE_DEG)
            sig[k] = np.exp(eps)[0]
            d[k] = 2.0 * mu_k * eps[0] + lam_k * eps.sum()
            continue
        if cls == MaterialClass.PLASTICINE:
            s = np.exp(c._von_mises_project(eps, mu_k, c.YIELD_STRESS))
        else:
            s = np.clip(s, 1.0 - c.SNOW_THETA_C, 1.0 + c.SNOW_THETA_S)
        j = s.prod(axis=1)
        sig[k] = s[0]
        d[k] = (2.0 * mu_k[:, None] * (s - 1.0) * s
                + (lam_k * (j - 1.0) * j)[:, None])[0]
    return tuple(m.reshape(3, 3, -1).transpose(2, 0, 1)
                 for m in (c._symmetric_recompose(u, d),
                           c._recompose(u, sig, v)))


def wide_stencil_raster_oracle(positions, cam):
    """``raster.rasterize_frame`` as it expanded each point into a
    (2 ceil(r) + 1)^2 pixel stencil and took the hits with two boolean
    gathers, in one chunk; returns its RasterFrame."""
    h, wd, r = cam.height, cam.width, cam.splat_radius
    pos = np.asarray(positions, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_cam = pos @ cam.rotation.T + cam.translation
        z = x_cam[:, 2]
        u = cam.fx * x_cam[:, 0] / z + cam.cx
        v = cam.fy * x_cam[:, 1] / z + cam.cy
    ids = np.flatnonzero((z > 1e-9) & (u > -r - 1) & (u < wd + r)
                         & (v > -r - 1) & (v < h + r))
    order = ids[np.argsort(z[ids], kind="stable")]
    u, v = u[order], v[order]
    x0 = np.maximum(np.ceil(u - r), 0).astype(np.intp)
    y0 = np.maximum(np.ceil(v - r), 0).astype(np.intp)
    span = 2 * np.ceil(r) + 1
    ox, oy = np.arange(int(min(span, wd))), np.arange(int(min(span, h)))
    best = np.full(h * wd, order.size)
    sl = np.arange(order.size)
    px = x0[sl, None] + ox
    py = y0[sl, None] + oy
    du2 = (px - u[sl, None]) ** 2
    dv2 = (py - v[sl, None]) ** 2
    hit = ((dv2[:, :, None] + du2[:, None, :] <= r * r)
           & (py < h)[:, :, None] & (px < wd)[:, None, :])
    cell = py[:, :, None] * wd + px[:, None, :]
    rank = np.broadcast_to(sl[:, None, None], hit.shape)
    np.minimum.at(best, cell[hit], rank[hit])
    won = np.flatnonzero(best < order.size)
    depth = np.full((h, wd), np.inf)
    index = np.full((h, wd), -1, dtype=np.int32)
    index.flat[won] = order[best[won]]
    depth.flat[won] = z[index.flat[won]]

    occupied = index >= 0
    image = np.zeros((h, wd), dtype=np.uint8)
    if occupied.any():
        z_lo = float(depth[occupied].min())
        z_hi = float(depth[occupied].max())
        if z_hi > z_lo:
            t = np.clip((z_hi - depth[occupied]) / (z_hi - z_lo), 0.0, 1.0)
            image[occupied] = (1 + np.round(254.0 * t)).astype(np.uint8)
        else:
            image[occupied] = 255
    return RasterFrame(image=image, depth=depth, index=index,
                       empty=not bool(occupied.any()))
