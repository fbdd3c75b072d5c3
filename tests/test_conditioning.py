import json

import numpy as np
import pytest

from physedit.conditioning import (FeatureBundle, bundle_from_dict,
                                   bundle_to_dict, soft_assign)
from physedit.errors import DomainError, IoError, ShapeError


def random_bundle(rng, n=5, d=8, d_t=6, d_a=4, k=3, tau=0.07):
    return FeatureBundle(
        point_features=rng.standard_normal((n, d)),
        global_token=rng.standard_normal((1, d_t)),
        part_tokens=rng.standard_normal((k, d_t)),
        phi=rng.standard_normal((d, d_a)),
        psi=rng.standard_normal((d_t, d_a)),
        w_val=rng.standard_normal((d_t, d)),
        tau=tau,
    )


def softmax_oracle(row):
    # brute-force, independent of the library implementation
    exps = [np.exp(v) for v in row]
    s = sum(exps)
    return [v / s for v in exps]


class TestSoftAssign:
    def test_single_prompt_gives_ones(self):
        rng = np.random.default_rng(0)
        b = random_bundle(rng, k=1)
        res = soft_assign(b)
        assert np.array_equal(res.weights, np.ones((5, 1)))
        expected = b.point_features + b.part_tokens @ b.w_val
        assert np.allclose(res.refined, expected, atol=1e-15)

    def test_zero_value_projection_is_identity(self):
        rng = np.random.default_rng(1)
        b = random_bundle(rng)
        b = FeatureBundle(b.point_features, b.global_token, b.part_tokens,
                          b.phi, b.psi, np.zeros_like(b.w_val), b.tau)
        res = soft_assign(b)
        assert np.array_equal(res.refined, b.point_features)

    def test_small_fixture_matches_softmax_oracle(self):
        # N=2, K=2, d_a=1, hand-set projections
        h = np.array([[1.0, 2.0], [0.5, -1.0]])
        t = np.array([[1.0], [-0.5]])
        phi = np.array([[0.3], [-0.2]])
        psi = np.array([[0.8]])
        w_val = np.array([[0.1, -0.4]])
        tau = 0.07
        b = FeatureBundle(h, np.zeros((1, 1)), t, phi, psi, w_val, tau)
        res = soft_assign(b)
        hp = h @ phi
        tp = t @ psi
        for i in range(2):
            logits = [float(hp[i] @ tp[j]) / tau for j in range(2)]
            a = softmax_oracle(logits)
            assert res.weights[i] == pytest.approx(a, abs=1e-9)

    def test_row_stochastic_many_bundles(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            b = random_bundle(rng, n=4, k=int(rng.integers(1, 6)))
            res = soft_assign(b)
            assert np.all(np.abs(res.weights.sum(axis=1) - 1.0) <= 1e-6)

    def test_temperature_sharpens(self):
        rng = np.random.default_rng(7)
        b = random_bundle(rng, tau=1.0)
        hot = soft_assign(b).weights
        cold = soft_assign(FeatureBundle(b.point_features, b.global_token,
                                         b.part_tokens, b.phi, b.psi, b.w_val,
                                         tau=0.1)).weights
        for i in range(hot.shape[0]):
            row = hot[i]
            if np.sum(row == row.max()) == 1:
                assert cold[i].max() > row.max()

    def test_point_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        b = random_bundle(rng, n=6)
        perm = rng.permutation(6)
        res = soft_assign(b)
        res_p = soft_assign(FeatureBundle(b.point_features[perm], b.global_token,
                                          b.part_tokens, b.phi, b.psi, b.w_val,
                                          b.tau))
        assert np.array_equal(res.logits[perm], res_p.logits)
        assert np.array_equal(res.weights[perm], res_p.weights)
        assert np.array_equal(res.refined[perm], res_p.refined)

    def test_prompt_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        b = random_bundle(rng, k=4)
        perm = rng.permutation(4)
        res = soft_assign(b)
        res_p = soft_assign(FeatureBundle(b.point_features, b.global_token,
                                          b.part_tokens[perm], b.phi, b.psi,
                                          b.w_val, b.tau))
        assert np.allclose(res.weights[:, perm], res_p.weights, atol=1e-12)
        assert np.allclose(res.refined, res_p.refined, atol=1e-12)

    def test_shape_and_domain_errors(self):
        rng = np.random.default_rng(3)
        b = random_bundle(rng)
        bad = FeatureBundle(b.point_features, b.global_token, b.part_tokens,
                            rng.standard_normal((3, 4)), b.psi, b.w_val, b.tau)
        with pytest.raises(ShapeError):
            soft_assign(bad)
        with pytest.raises(DomainError):
            soft_assign(FeatureBundle(b.point_features, b.global_token,
                                      b.part_tokens, b.phi, b.psi, b.w_val,
                                      tau=0.0))


def test_bundle_file_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    b = random_bundle(rng)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle_to_dict(b)))
    back = bundle_from_dict(json.loads(path.read_text()))
    assert np.array_equal(back.point_features, b.point_features)
    assert back.tau == b.tau
    res_a = soft_assign(b)
    res_b = soft_assign(back)
    assert np.allclose(res_a.weights, res_b.weights)


@pytest.mark.parametrize("key", ["point_features", "global_token",
                                 "part_tokens", "phi", "psi", "w_val"])
def test_bundle_missing_key_io_error(key):
    doc = bundle_to_dict(random_bundle(np.random.default_rng(11)))
    del doc[key]
    with pytest.raises(IoError, match=f"missing required key '{key}'"):
        bundle_from_dict(doc)
