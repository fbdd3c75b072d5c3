"""Independent brute-force reference implementations used by the tests.

Everything here is written as plain scalar loops (or per-pixel loops, or
per-node masks over a whole grid box) so the library's vectorized kernels
are checked against code that shares no implementation path with them.
"""

import math

import numpy as np


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
