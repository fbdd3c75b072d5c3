import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from physedit import constitutive
from physedit.constitutive import (_class_rows, batch_constitutive,
                                   lame_parameters, svd3)
from physedit.errors import NumericalError
from physedit.materials import MaterialClass

from oracles import return_map_oracle


def constitutive_stress(f, model, e, nu):
    """One particle through batch_constitutive: (piola 3x3, f_new 3x3).

    batch_constitutive returns the Kirchhoff stress tau = P F_new^T; the
    first Piola stress is recovered as P = tau F_new^-T.
    """
    tau, f_new = batch_constitutive(np.asarray(f, dtype=np.float64)[None],
                                    np.array([int(model)]),
                                    np.array([float(e)]), np.array([float(nu)]))
    return tau[0] @ np.linalg.inv(f_new[0]).T, f_new[0]


def corotated_oracle(f, e, nu):
    """Scalar fixed-corotated first Piola via explicit polar decomposition."""
    mu, lam = lame_parameters(e, nu)
    u, s, vt = np.linalg.svd(f)
    r = u @ vt
    j = np.linalg.det(f)
    return 2 * mu * (f - r) + lam * (j - 1) * j * np.linalg.inv(f).T


class TestElastic:
    def test_rest_state_zero_stress(self):
        """F = I gives tau exactly 0 at any E and nu, and keeps F."""
        eye = np.tile(np.eye(3), (4, 1, 1))
        tau, f_new = batch_constitutive(eye, np.full(4, MaterialClass.ELASTIC),
                                        np.array([1e2, 1e5, 1e8, 1e12]),
                                        np.array([0.0, 0.3, 0.45, 0.499]))
        assert np.array_equal(tau, np.zeros((4, 3, 3)))
        assert np.array_equal(f_new, eye)

    def test_uniaxial_closed_form(self):
        # F = diag(1.01, 1, 1), nu = 0: P = diag(2 mu 0.01, 0, 0) = diag(1000,0,0)
        f = np.diag([1.01, 1.0, 1.0])
        p, _ = constitutive_stress(f, MaterialClass.ELASTIC, 1e5, 0.0)
        assert p[0, 0] == pytest.approx(1000.0, rel=1e-10)
        assert abs(p[1, 1]) < 1e-9 and abs(p[2, 2]) < 1e-9

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = np.eye(3) + 0.05 * rng.standard_normal((3, 3))
            if np.linalg.det(f) <= 0:
                continue
            e, nu = 10 ** rng.uniform(4, 7), rng.uniform(0, 0.45)
            p, _ = constitutive_stress(f, MaterialClass.ELASTIC, e, nu)
            assert np.allclose(p, corotated_oracle(f, e, nu), rtol=1e-9,
                               atol=1e-9 * e)

    def test_negative_determinant_rejected(self):
        with pytest.raises(NumericalError):
            constitutive_stress(np.diag([-1.0, 1.0, 1.0]),
                                MaterialClass.ELASTIC, 1e5, 0.3)

    @pytest.mark.parametrize("small", [1, 2], ids=["one_small", "two_small"])
    @pytest.mark.parametrize("ratio", [0.5, 0.1, 1e-2, 1e-3])
    def test_accuracy_envelope(self, ratio, small):
        """The closed-form tau agrees with the explicit polar decomposition
        under random rotations, down to sigma_min / sigma_max = 1e-3.

        With two singular values at ratio, i1 i2 - i3 ~ 2 ratio, which
        amplifies the rounding of lambda_1 b - b^2, while tau ~ 2 mu ratio:
        the relative error grows like eps / ratio^2, to about 1.3e-10 at
        1e-3 (2.6e-13 mu absolute), hence the wider bound there.

        No simulation the project runs comes near that corner.  The
        smallest sigma_min / sigma_max that any full-length bundled scene
        or benchmark workload hands ``batch_constitutive`` is 0.128, on
        the ELASTIC rows of hollow_deflate (drop_cube 0.36, zero_g_bounce
        0.51, zoo 0.74 and rigid_pad 0.9997; every other class stays
        above 0.74), where the relative error over 10 seeds of this
        test's batches is at most 3.5e-14.
        """
        rng = np.random.default_rng(int(-np.log10(ratio)) * 2 + small)
        sigma = np.array([1.0] * (3 - small) + [ratio] * small)
        f = np.array([random_rotation(rng) @ np.diag(sigma)
                      @ random_rotation(rng).T for _ in range(20)])
        e, nu = 1e5, 0.3
        tau, f_new = batch_constitutive(f, np.zeros(20, dtype=int),
                                        np.full(20, e), np.full(20, nu))
        expected = np.array([corotated_oracle(fi, e, nu) @ fi.T for fi in f])
        bound = 3e-10 if (ratio, small) == (1e-3, 2) else 1e-10
        assert np.abs(tau - expected).max() <= bound * np.abs(expected).max()
        assert np.array_equal(f_new, f)


class TestLiquid:
    def test_unit_volume_no_pressure(self):
        p, f_new = constitutive_stress(np.eye(3),
                                       MaterialClass.LIQUID, 1e5, 0.3)
        assert np.allclose(p, 0.0, atol=1e-9)
        assert np.allclose(f_new, np.eye(3), atol=1e-12)

    def test_shear_carries_no_stress(self):
        f = np.eye(3)
        f[0, 1] = 0.3  # volume-preserving shear
        p, f_new = constitutive_stress(f, MaterialClass.LIQUID, 1e5, 0.3)
        assert np.allclose(p, 0.0, atol=1e-8)
        # deformation resets to the isotropic volume ratio
        assert np.allclose(f_new, np.eye(3), atol=1e-12)

    def test_compression_gives_isotropic_kirchhoff(self):
        f = 0.95 * np.eye(3)
        e, nu = 2e5, 0.3
        p, f_new = constitutive_stress(f, MaterialClass.LIQUID, e, nu)
        tau = p @ f_new.T
        j = np.linalg.det(f)
        _, lam = lame_parameters(e, nu)
        expected = lam * (j - 1.0) * j
        assert np.allclose(tau, expected * np.eye(3), rtol=1e-9)


class TestPlasticine:
    def test_below_yield_untouched(self, monkeypatch):
        monkeypatch.setattr(constitutive, "YIELD_STRESS", 1e9)
        f = np.diag([1.02, 1.0, 0.99])
        _, f_new = constitutive_stress(f, MaterialClass.PLASTICINE, 1e5, 0.3)
        assert np.allclose(f_new, f, atol=1e-12)

    def test_beyond_yield_projects_to_cylinder(self, monkeypatch):
        monkeypatch.setattr(constitutive, "YIELD_STRESS", 1e3)
        e, nu = 1e6, 0.3
        mu, _ = lame_parameters(e, nu)
        f = np.diag([1.3, 1.0, 0.8])
        _, f_new = constitutive_stress(f, MaterialClass.PLASTICINE, e, nu)
        eps = np.log(np.linalg.svd(f_new, compute_uv=False))
        dev = eps - eps.mean()
        assert 2 * mu * np.linalg.norm(dev) == pytest.approx(1e3, rel=1e-6)


class TestSand:
    def test_expansion_projects_to_tip(self):
        f = np.diag([1.1, 1.1, 1.1])  # pure expansion, tr(eps) > 0
        _, f_new = constitutive_stress(f, MaterialClass.SAND, 1e6, 0.3)
        sig = np.linalg.svd(f_new, compute_uv=False)
        assert np.allclose(sig, 1.0, atol=1e-12)

    def test_hydrostatic_compression_elastic(self):
        f = np.diag([0.97, 0.97, 0.97])
        _, f_new = constitutive_stress(f, MaterialClass.SAND, 1e6, 0.3)
        assert np.allclose(f_new, f, atol=1e-12)

    def test_shear_under_compression_stays_in_cone(self):
        e, nu = 1e6, 0.3
        mu, lam = lame_parameters(e, nu)
        f = np.diag([1.08, 0.85, 0.95])
        _, f_new = constitutive_stress(f, MaterialClass.SAND, e, nu)
        eps = np.log(np.linalg.svd(f_new, compute_uv=False))
        sin_phi = np.sin(np.deg2rad(30.0))
        alpha = np.sqrt(2 / 3) * 2 * sin_phi / (3 - sin_phi)
        dev = eps - eps.mean()
        residual = np.linalg.norm(dev) + \
            (3 * lam + 2 * mu) / (2 * mu) * eps.sum() * alpha
        assert residual <= 1e-9


class TestSnow:
    def test_singular_values_clamped(self):
        f = np.diag([1.2, 0.8, 1.0])
        _, f_new = constitutive_stress(f, MaterialClass.SNOW, 1e5, 0.2)
        sig = np.sort(np.linalg.svd(f_new, compute_uv=False))
        assert sig[0] == pytest.approx(1 - 2.5e-2, rel=1e-12)
        assert sig[-1] == pytest.approx(1 + 7.5e-3, rel=1e-12)

    def test_within_limits_untouched(self):
        f = np.diag([1.002, 0.99, 1.0])
        _, f_new = constitutive_stress(f, MaterialClass.SNOW, 1e5, 0.2)
        assert np.allclose(np.linalg.svd(f_new, compute_uv=False),
                           np.sort(np.diag(f))[::-1], atol=1e-12)


class TestRigid:
    def test_zero_stress_at_identity(self):
        eye = np.tile(np.eye(3), (3, 1, 1))
        p, f_new = batch_constitutive(eye, np.full(3, MaterialClass.RIGID),
                                      np.array([1e2, 1e6, 1e12]),
                                      np.array([-0.45, 0.3, 0.499]))
        assert np.array_equal(p, np.zeros((3, 3, 3)))
        assert np.array_equal(f_new, eye)


def test_batch_matches_singles():
    rng = np.random.default_rng(1)
    n = 40
    f = np.tile(np.eye(3), (n, 1, 1)) + 0.04 * rng.standard_normal((n, 3, 3))
    dets = np.linalg.det(f)
    f[dets <= 0.1] = np.eye(3)
    class_id = rng.integers(0, 6, n)
    e = 10 ** rng.uniform(4, 6, n)
    nu = rng.uniform(0.0, 0.4, n)
    tau_batch, f_batch = batch_constitutive(f, class_id, e, nu)
    for i in range(n):
        tau_i, f_i = batch_constitutive(f[i:i + 1], class_id[i:i + 1],
                                        e[i:i + 1], nu[i:i + 1])
        assert np.allclose(tau_batch[i], tau_i[0], rtol=1e-12, atol=1e-12)
        assert np.allclose(f_batch[i], f_i[0], rtol=1e-12, atol=1e-12)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def near_degenerate_f(rng, d):
    """R diag(1, 1 + d, 1 - d) Q^T: two singular values within d of the
    third."""
    return (random_rotation(rng) @ np.diag([1.0, 1.0 + d, 1.0 - d])
            @ random_rotation(rng).T)


def random_proper_f(rng):
    while True:
        f = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        if np.linalg.det(f) > 0.05:
            return f


# one-particle F generators for the mixed svd3 batches
ROW_KINDS = {
    "roundoff": lambda rng: np.eye(3) + 1e-16 * rng.standard_normal((3, 3)),
    "strain": lambda rng: np.eye(3) + 1e-3 * rng.standard_normal((3, 3)),
    "near_degenerate": lambda rng: near_degenerate_f(
        rng, 10.0 ** rng.uniform(-15, -6)),
    "random": random_proper_f,
}


def decomposition_cases():
    rng = np.random.default_rng(7)

    def rot():
        return random_rotation(rng)

    random_f = np.eye(3) + 0.3 * rng.standard_normal((200, 3, 3))
    small = np.diag([1.0, 0.5, 1e-4])
    return {
        "identity": np.eye(3)[None],
        "repeated_sigma": np.array([rot() @ np.diag([2.0, 2.0, 0.5]) @ rot().T
                                    for _ in range(20)]),
        "diag": np.diag([1.2, 0.7, 3.0])[None],
        "rotation_by_pi": np.diag([-1.0, -1.0, 1.0])[None],
        # one-sided rotations: np.linalg.svd is itself accurate only to about
        # cond(F) * eps relative when both sides rotate a 1e-4 stretch
        "sigma_1e-4": np.array([rot() @ small for _ in range(10)]
                               + [small @ rot().T for _ in range(10)]),
        "stretch_3x": np.array([rot() @ np.diag([3.0, 1.0, 1.0]) @ rot().T
                                for _ in range(20)]),
        "random": random_f[np.linalg.det(random_f) > 0.05],
        "near_degenerate": np.array([
            near_degenerate_f(np.random.default_rng(8 + i), d)
            for i, d in enumerate(np.logspace(-15, -6, 20))]),
    }


DECOMPOSITION_CASES = decomposition_cases()


def svd3_packed(f):
    """svd3's columns packed into np.linalg.svd's (u, sigma, vt) layout."""
    u, sig, v = svd3(f)
    return np.stack(u, axis=-1).transpose(1, 0, 2), sig, \
        np.stack(v, axis=-1).transpose(1, 2, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSvd3:
    @pytest.mark.parametrize("name", sorted(DECOMPOSITION_CASES))
    def test_decomposition(self, name):
        f = DECOMPOSITION_CASES[name]
        u, sig, vt = svd3_packed(f)
        eye = np.eye(3)
        assert np.abs((u * sig[:, None, :]) @ vt - f).max() <= 1e-13
        assert np.abs(u.transpose(0, 2, 1) @ u - eye).max() <= 1e-13
        assert np.abs(vt @ vt.transpose(0, 2, 1) - eye).max() <= 1e-13
        assert np.allclose(np.linalg.det(u), 1.0, rtol=0, atol=1e-13)
        assert np.allclose(np.linalg.det(vt), 1.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(sig, np.linalg.svd(f, compute_uv=False),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(sig.prod(axis=1), np.linalg.det(f),
                                   rtol=1e-12, atol=0)

    def test_reflection_keeps_rotations_proper(self):
        u, sig, vt = svd3_packed(np.diag([-2.0, 1.0, 0.5])[None])
        assert np.allclose(sig, [[2.0, 1.0, -0.5]], rtol=1e-15)
        assert np.linalg.det(u[0]) == pytest.approx(1.0)
        assert np.linalg.det(vt[0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        f = np.eye(3)
        f[1, 2] = bad
        with pytest.raises(NumericalError):
            constitutive_stress(f, MaterialClass.ELASTIC, 1e5, 0.3)

    @pytest.mark.parametrize("s", [1e100, 1e-100, 1e150])
    def test_scale_invariant(self, s):
        """Jacobi runs on the trace-normalized F^T F, so neither overflow
        nor underflow touches F at extreme scales."""
        rng = np.random.default_rng(11)
        f = s * np.array([random_rotation(rng) @ np.diag([3.0, 2.0, 1.0])
                          @ random_rotation(rng).T for _ in range(20)])
        u, sig, vt = svd3_packed(f)
        assert np.abs((u * sig[:, None, :]) @ vt - f).max() <= 1e-13 * s
        assert np.abs(sig / s - [3.0, 2.0, 1.0]).max() <= 1e-13

    def test_outputs_c_contiguous(self):
        u, sig, v = svd3(DECOMPOSITION_CASES["random"])
        assert all(c.flags.c_contiguous for c in u + v)

    def test_roundoff_shear_takes_no_rotation(self):
        """F^T F of I plus round-off is diagonal to within rounding, so the
        sweeps leave V the identity, up to the sort's signed permutation."""
        rng = np.random.default_rng(12)
        f = np.eye(3) + 2e-16 * rng.standard_normal((200, 3, 3))
        _, _, vt = svd3_packed(f)
        assert set(np.abs(vt).ravel()) <= {0.0, 1.0}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kinds=st.lists(st.sampled_from(list(ROW_KINDS)), min_size=2,
                          max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_match_one_row_calls(self, kinds, seed):
        """Each particle stops rotating on its own test, so a row of a mixed
        batch comes out bit for bit as it does alone."""
        rng = np.random.default_rng(seed)
        f = np.array([ROW_KINDS[kind](rng) for kind in kinds])
        u, sig, v = svd3(f)
        for i in range(len(f)):
            u_i, sig_i, v_i = svd3(f[i:i + 1])
            assert np.array_equal(sig[i], sig_i[0])
            for k in range(3):
                assert np.array_equal(u[k][:, i], u_i[k][:, 0])
                assert np.array_equal(v[k][:, i], v_i[k][:, 0])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(
           st.sampled_from(list(MaterialClass)),
           st.lists(st.floats(-0.3, 0.3), min_size=9, max_size=9),
           st.floats(4.0, 7.0), st.floats(0.0, 0.45)),
       min_size=1, max_size=16))
def test_kirchhoff_exactly_symmetric(rows):
    """tau = tau^T bit for bit in every class of a mixed batch, which the
    angular-momentum conservation of the transfers relies on."""
    f = np.array([np.eye(3) + np.reshape(p, (3, 3)) for _, p, _, _ in rows])
    assume(np.all(np.linalg.det(f) > 0.2))
    tau, _ = batch_constitutive(
        f, np.array([int(c) for c, _, _, _ in rows]),
        np.array([10.0 ** log_e for _, _, log_e, _ in rows]),
        np.array([nu for _, _, _, nu in rows]))
    assert np.array_equal(tau, tau.transpose(0, 2, 1))


@pytest.mark.parametrize("material", [MaterialClass.ELASTIC,
                                      MaterialClass.LIQUID,
                                      MaterialClass.RIGID])
def test_only_return_mapped_classes_decompose(monkeypatch, material):
    """svd3 runs on PLASTICINE, SAND and SNOW rows only, and not at all in a
    batch without them."""
    def no_svd3(f):
        raise AssertionError("svd3 called")

    monkeypatch.setattr(constitutive, "svd3", no_svd3)
    rng = np.random.default_rng(4)
    f = np.array([random_proper_f(rng) for _ in range(8)])
    args = (np.full(8, 1e5), np.full(8, 0.3))
    batch_constitutive(f, np.full(8, material), *args)
    with pytest.raises(AssertionError, match="svd3 called"):
        batch_constitutive(f, np.array([material] * 7 + [MaterialClass.SAND]),
                           *args)


# deviatoric unit vectors of the principal log strains
DEV_BASIS = np.array([[2.0, -1.0, -1.0], [0.0, 1.0, -1.0]]) / \
    np.array([[np.sqrt(6.0)], [np.sqrt(2.0)]])
SNOW_BOX = (1.0 - constitutive.SNOW_THETA_C, 1.0 + constitutive.SNOW_THETA_S)


def yield_surface_sigma(material, mu, side, rel, angle, mean, spread):
    """Singular values at relative distance rel inside (side -1) or outside
    (side +1) the yield surface: PLASTICINE's log strains at deviatoric
    radius YIELD_STRESS / (2 mu) (1 + side rel) in the direction angle,
    around the mean log strain mean; SNOW's largest or smallest (by the
    sign of mean) at its bound times (1 + side min(rel, 0.02)) away from
    the box, which keeps it on its side of the other bound, and the others
    spread through the box."""
    if material == MaterialClass.PLASTICINE:
        radius = constitutive.YIELD_STRESS / (2.0 * mu) * (1.0 + side * rel)
        return np.exp(mean + radius * (np.cos(angle) * DEV_BASIS[0]
                                       + np.sin(angle) * DEV_BASIS[1]))
    lo, hi = SNOW_BOX
    rel = min(rel, 0.02)
    sigma = lo + (hi - lo) * np.array([0.5, spread, 1.0 - spread])
    sigma[0] = lo * (1.0 - side * rel) if mean < 0 else hi * (1.0 + side * rel)
    return sigma


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(
           st.sampled_from([MaterialClass.PLASTICINE, MaterialClass.SNOW]),
           st.sampled_from([-1, 1]),
           st.one_of(st.just(1e-5), st.floats(1e-5, 0.02),
                     st.floats(1e-5, 0.9)),
           st.floats(0.0, 2.0 * np.pi), st.floats(-0.02, 0.02),
           st.floats(0.01, 0.99), st.floats(3.0, 7.0), st.floats(0.0, 0.45)),
       min_size=1, max_size=10),
       n_sand=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_rows_inside_yield_keep_f_and_match_svd3_path(rows, n_sand, seed):
    """PLASTICINE and SNOW rows drawn on both sides of the von Mises
    cylinder and of the snow box, some within 1e-5 (relative) of them,
    under random rotations and mixed with SAND rows in a shuffled batch;
    E down to 1e3 Pa puts PLASTICINE rows with sigma_min / sigma_max
    below 1e-2 inside the cylinder.
    A row inside its surface (by more than the 1e-6 margin) with
    sigma_min / sigma_max >= 1e-2 keeps F bit for bit, and its tau, the
    ELASTIC closed form, matches the svd3 path of ``return_map_oracle`` to
    1e-14 (lambda + 2 mu) where sigma_min / sigma_max >= 0.5 and within
    ``TestElastic.test_accuracy_envelope``'s 1e-10 of |tau| below that.
    Every other row has the svd3 path's tau and F bit for bit.

    The pressure term lambda (J - 1) J carries the rounding of J, which
    differs by a few ulp between the cofactor determinant and sigma_1
    sigma_2 sigma_3, hence lambda + 2 mu rather than mu: over 8000 random
    rows of these draws the largest difference was 1.4e-15 (lambda + 2 mu),
    which is 1.5e-14 mu at nu = 0.45."""
    rng = np.random.default_rng(seed)
    material = [m for m, *_ in rows] + [MaterialClass.SAND] * n_sand
    e = np.array([10.0 ** r[6] for r in rows]
                 + list(10.0 ** rng.uniform(4, 7, n_sand)))
    nu = np.array([r[7] for r in rows]
                  + list(rng.uniform(0.0, 0.45, n_sand)))
    mu, lam = lame_parameters(e, nu)
    sigma = [yield_surface_sigma(m, mu_k, side, rel, angle, mean, spread)
             for (m, side, rel, angle, mean, spread, _, _), mu_k
             in zip(rows, mu)]
    sigma += [np.exp(rng.uniform(-0.1, 0.1, 3)) for _ in range(n_sand)]
    f = np.array([random_rotation(rng) @ np.diag(s) @ random_rotation(rng).T
                  for s in sigma])
    ratio = np.array([s.min() / s.max() for s in sigma])
    gated = np.array([side < 0 for _, side, *_ in rows] + [False] * n_sand)
    gated &= ratio >= 1e-2

    perm = rng.permutation(len(f))
    class_id = np.array(material)[perm]
    tau, f_new = batch_constitutive(f[perm], class_id, e[perm], nu[perm])
    tau_svd, f_svd = return_map_oracle(f[perm], class_id, e[perm], nu[perm])
    for k, i in enumerate(perm):
        if gated[i]:
            assert f_new[k].tobytes() == f[i].tobytes()
            err = np.abs(tau[k] - tau_svd[k]).max()
            if ratio[i] >= 0.5:
                assert err <= 1e-14 * (lam[i] + 2.0 * mu[i])
            else:
                assert err <= 1e-10 * np.abs(tau_svd[k]).max()
        else:
            assert tau[k].tobytes() == tau_svd[k].tobytes()
            assert f_new[k].tobytes() == f_svd[k].tobytes()


def test_only_yielding_rows_decompose(monkeypatch):
    """svd3 never sees a PLASTICINE or SNOW row strictly inside its yield
    surface.  With one row of each class pushed past its surface, it
    receives exactly those two rows and every SAND row, in one call."""
    received = []

    def counting_svd3(f):
        received.append(np.array(f))
        return svd3(f)

    monkeypatch.setattr(constitutive, "svd3", counting_svd3)
    rng = np.random.default_rng(5)
    e, nu = 1e5, 0.3
    mu, _ = lame_parameters(e, nu)

    def rotated(material, side):
        sigma = yield_surface_sigma(
            material, mu, side, 0.5 if side < 0 else 0.1,
            rng.uniform(0, 2 * np.pi), rng.uniform(-0.02, 0.02),
            rng.uniform(0, 1))
        return random_rotation(rng) @ np.diag(sigma) @ random_rotation(rng).T

    inside = [(m, rotated(m, -1)) for m in [MaterialClass.PLASTICINE] * 4
              + [MaterialClass.SNOW] * 4]
    pushed = [(MaterialClass.PLASTICINE, rotated(MaterialClass.PLASTICINE, 1)),
              (MaterialClass.SNOW, rotated(MaterialClass.SNOW, 1))]
    sand = [(MaterialClass.SAND, random_proper_f(rng)) for _ in range(3)]

    def run(batch):
        received.clear()
        batch_constitutive(np.array([f for _, f in batch]),
                           np.array([m for m, _ in batch]),
                           np.full(len(batch), e), np.full(len(batch), nu))

    run(inside)
    assert received == []
    run(inside[:2] + [pushed[1]] + sand[:2] + inside[2:] + [pushed[0]]
        + sand[2:])
    # the mapped rows run PLASTICINE, SAND, SNOW, each in index order
    expected = [pushed[0][1]] + [f for _, f in sand] + [pushed[1][1]]
    assert len(received) == 1
    assert received[0].tobytes() == np.array(expected).tobytes()


def test_errors_name_the_particle():
    f = np.tile(np.eye(3), (6, 1, 1))
    args = (np.zeros(6, dtype=int), np.full(6, 1e5), np.full(6, 0.3))
    f[3, 0, 1] = np.nan
    with pytest.raises(NumericalError, match="particle 3: non-finite") as info:
        batch_constitutive(f, *args)
    assert info.value.particle == 3
    f[3] = np.eye(3)
    f[4] = np.diag([-1.0, 1.0, 1.0])
    with pytest.raises(NumericalError,
                       match="particle 4: deformation gradient lost") as info:
        batch_constitutive(f, *args)
    assert info.value.particle == 4


@pytest.mark.parametrize("first, second", [
    (MaterialClass.LIQUID, MaterialClass.ELASTIC),
    (MaterialClass.ELASTIC, MaterialClass.LIQUID)],
    ids=["liquid_first", "elastic_first"])
def test_determinant_error_names_the_lowest_particle(first, second):
    """Classes are evaluated in groups, but the error still names the
    lowest bad particle, whichever group it is in."""
    f = np.tile(np.eye(3), (4, 1, 1))
    f[1] = f[2] = np.diag([-1.0, 1.0, 1.0])
    class_id = np.array([MaterialClass.SAND, first, second,
                         MaterialClass.PLASTICINE])
    with pytest.raises(NumericalError,
                       match="particle 1: deformation gradient lost") as info:
        batch_constitutive(f, class_id, np.full(4, 1e5), np.full(4, 0.3))
    assert info.value.particle == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("material", [MaterialClass.PLASTICINE,
                                      MaterialClass.SAND, MaterialClass.SNOW])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(perturbation=st.lists(st.floats(-0.3, 0.3), min_size=9, max_size=9),
       log_e=st.floats(4.0, 7.0), nu=st.floats(0.0, 0.45))
def test_return_map_idempotent(material, perturbation, log_e, nu):
    """A return-mapped F is already admissible: mapping it again moves it
    by round-off only."""
    f = np.eye(3) + np.reshape(perturbation, (3, 3))
    assume(np.linalg.det(f) > 0.2)
    _, f_new = constitutive_stress(f, material, 10.0 ** log_e, nu)
    _, f_again = constitutive_stress(f_new, material, 10.0 ** log_e, nu)
    assert np.abs(f_again - f_new).max() <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("material", list(MaterialClass))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(perturbation=st.lists(st.floats(-0.3, 0.3), min_size=9, max_size=9),
       rotation_seed=st.integers(0, 2**32 - 1),
       log_e=st.floats(4.0, 7.0), nu=st.floats(0.0, 0.45))
def test_objectivity(material, perturbation, rotation_seed, log_e, nu):
    """Rotating F after the deformation rotates the stress with it."""
    f = np.eye(3) + np.reshape(perturbation, (3, 3))
    assume(np.linalg.det(f) > 0.2)
    r = random_rotation(np.random.default_rng(rotation_seed))
    e = 10.0 ** log_e
    p, f_new = constitutive_stress(f, material, e, nu)
    p_rot, f_new_rot = constitutive_stress(r @ f, material, e, nu)
    scale = 1e-10 * e
    tau, tau_rot = p @ f_new.T, p_rot @ f_new_rot.T
    assert np.allclose(tau_rot, r @ tau @ r.T, rtol=0, atol=scale)
    if material != MaterialClass.LIQUID:
        assert np.allclose(p_rot, r @ p, rtol=0, atol=scale)


def as_index_arrays(rows, n):
    """_class_rows output with every class selection as an index array."""
    return tuple(np.arange(n)[sel] for sel in rows)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(counts=st.lists(st.integers(0, 5), min_size=len(MaterialClass),
                       max_size=len(MaterialClass)).filter(any),
       seed=st.integers(0, 2 ** 32 - 1))
def test_class_slices_match_index_arrays(counts, seed):
    """Classes in contiguous blocks are selected by slices; the same rows
    shuffled, with every class selected by an index array, give tau and F
    bit for bit after the permutation.  With a non-positive det F planted
    in ELASTIC, one return-mapped class and LIQUID, the slices and the
    index arrays of one layout both name its lowest bad particle."""
    rng = np.random.default_rng(seed)
    class_id = np.repeat(np.arange(len(MaterialClass)), counts)
    n = class_id.size
    f = np.array([random_proper_f(rng) for _ in range(n)])
    e, nu = 10.0 ** rng.uniform(4, 6, n), rng.uniform(0.0, 0.45, n)
    rows = _class_rows(class_id)
    assert [isinstance(sel, slice) for sel in rows] == [k > 0 for k in counts]
    tau, f_new = batch_constitutive(f, class_id, e, nu)

    perm = rng.permutation(n)
    shuffled = as_index_arrays(_class_rows(class_id[perm]), n)
    tau_s, f_s = batch_constitutive(f[perm], class_id[perm], e[perm], nu[perm],
                                    rows=shuffled)
    assert tau_s.tobytes() == tau[perm].tobytes()
    assert f_s.tobytes() == f_new[perm].tobytes()

    mapped = rng.choice([MaterialClass.PLASTICINE, MaterialClass.SAND,
                         MaterialClass.SNOW])
    planted = [int(rng.choice(np.flatnonzero(class_id == c)))
               for c in (MaterialClass.ELASTIC, mapped, MaterialClass.LIQUID)
               if counts[c]]
    assume(planted)
    f[planted] = np.diag([-1.0, 1.0, 1.0])
    for layout in (rows, as_index_arrays(rows, n)):
        with pytest.raises(NumericalError) as info:
            batch_constitutive(f, class_id, e, nu, rows=layout)
        assert info.value.particle == min(planted)


# (class, count) runs with each class in at most one run, in any class
# order, so that every class is contiguous or empty; and runs in any order
# with repeats, so that a class may be split around others
CONTIGUOUS_RUNS = st.permutations(list(MaterialClass)).flatmap(
    lambda order: st.tuples(*(st.tuples(st.just(c), st.integers(0, 4))
                              for c in order)))
INTERLEAVED_RUNS = st.lists(st.tuples(st.sampled_from(list(MaterialClass)),
                                      st.integers(0, 4)), max_size=10)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(runs=st.one_of(CONTIGUOUS_RUNS, INTERLEAVED_RUNS))
def test_class_rows_select_each_class(runs):
    """_class_rows gives one selection per class: entry c selects exactly
    class c's particles in index order, and is a slice exactly when they
    form one non-empty contiguous run."""
    class_id = np.repeat(np.array([c for c, _ in runs], dtype=np.int64),
                         np.array([k for _, k in runs], dtype=np.int64))
    rows = _class_rows(class_id)
    assert len(rows) == len(MaterialClass)
    for c in MaterialClass:
        want = np.flatnonzero(class_id == c)
        assert np.array_equal(np.arange(class_id.size)[rows[c]], want)
        one_run = want.size > 0 and want[-1] - want[0] == want.size - 1
        assert isinstance(rows[c], slice) == one_run


def test_absent_classes_cost_nothing(monkeypatch):
    """An ELASTIC-only batch runs no yield test, no decomposition and no
    LIQUID determinant; a batch of the five non-rigid classes, interleaved,
    tests each of PLASTICINE and SNOW once and calls svd3 once."""
    calls = dict.fromkeys(("_inside_yield", "svd3", "_det"), 0)
    for name in calls:
        def counted(*args, _inner=getattr(constitutive, name), _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(constitutive, name, counted)
    rng = np.random.default_rng(6)
    f = np.array([random_proper_f(rng) for _ in range(15)])
    args = (np.full(15, 1e5), np.full(15, 0.3))
    batch_constitutive(f, np.full(15, MaterialClass.ELASTIC), *args)
    assert calls == dict.fromkeys(calls, 0)
    batch_constitutive(f, np.arange(15) % MaterialClass.RIGID, *args)
    assert calls == {"_inside_yield": 2, "svd3": 1, "_det": 1}
