import numpy as np
import pytest

from physedit.conditioning import (AttentionWeights, FeatureBundle,
                                   bundle_from_dict, bundle_to_dict,
                                   cross_attention, hierarchical_condition,
                                   read_bundle, soft_assign, write_bundle)
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


def attention_oracle(queries, context, w: AttentionWeights):
    """Naive triple-loop multi-head attention plus residual."""
    n, d_q = queries.shape
    m = context.shape[0]
    width = w.w_q.shape[1]
    hd = width // w.heads
    q = queries @ w.w_q
    k = context @ w.w_k
    v = context @ w.w_v
    concat = np.zeros((n, width))
    for head in range(w.heads):
        sl = slice(head * hd, (head + 1) * hd)
        for i in range(n):
            scores = [float(q[i, sl] @ k[j, sl]) / np.sqrt(hd) for j in range(m)]
            weights = softmax_oracle(scores)
            for j in range(m):
                concat[i, sl] += weights[j] * v[j, sl]
    return concat @ w.w_o + queries


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


class TestCrossAttention:
    def test_zero_values_pure_residual(self):
        rng = np.random.default_rng(0)
        w = AttentionWeights.random(d_q=6, d_ctx=4, width=8, heads=2, rng=rng)
        w = w.with_zero_values()
        q = rng.standard_normal((5, 6))
        ctx = rng.standard_normal((3, 4))
        assert np.array_equal(cross_attention(q, ctx, w), q)

    def test_single_context_token(self):
        rng = np.random.default_rng(1)
        w = AttentionWeights.random(d_q=4, d_ctx=3, width=4, heads=2, rng=rng)
        q = rng.standard_normal((6, 4))
        ctx = rng.standard_normal((1, 3))
        out = cross_attention(q, ctx, w)
        # softmax over one key is 1 regardless of scores
        hd = 2
        v = ctx @ w.w_v
        per_head = np.tile(v, (6, 1))
        expected = per_head @ w.w_o + q
        assert np.allclose(out, expected, atol=1e-12)

    def test_matches_dense_loop_oracle(self):
        rng = np.random.default_rng(2)
        w = AttentionWeights.random(d_q=4, d_ctx=5, width=4, heads=2, rng=rng)
        q = rng.standard_normal((3, 4))
        ctx = rng.standard_normal((2, 5))
        assert np.allclose(cross_attention(q, ctx, w),
                           attention_oracle(q, ctx, w), atol=1e-9)

    def test_width_head_divisibility(self):
        rng = np.random.default_rng(4)
        w = AttentionWeights.random(d_q=4, d_ctx=4, width=6, heads=4, rng=rng)
        with pytest.raises(ShapeError):
            cross_attention(rng.standard_normal((2, 4)),
                            rng.standard_normal((2, 4)), w)


class TestHierarchical:
    def test_double_residual_identity(self):
        rng = np.random.default_rng(5)
        b = random_bundle(rng)
        res = soft_assign(b)
        s1 = AttentionWeights.random(d_q=8, d_ctx=6, heads=2, rng=rng).with_zero_values()
        s2 = AttentionWeights.random(d_q=8, d_ctx=6, heads=2, rng=rng).with_zero_values()
        out = hierarchical_condition(res, b.global_token, b.part_tokens, s1, s2)
        assert np.array_equal(out, res.refined)

    def test_stage2_zero_returns_stage1(self):
        rng = np.random.default_rng(6)
        b = random_bundle(rng)
        res = soft_assign(b)
        s1 = AttentionWeights.random(d_q=8, d_ctx=6, heads=2, rng=rng)
        s2 = AttentionWeights.random(d_q=8, d_ctx=6, heads=2, rng=rng).with_zero_values()
        out = hierarchical_condition(res, b.global_token, b.part_tokens, s1, s2)
        h_g = cross_attention(res.refined, b.global_token, s1)
        assert np.array_equal(out, h_g)

    def test_composition_matches_oracle(self):
        rng = np.random.default_rng(7)
        b = random_bundle(rng)
        res = soft_assign(b)
        s1 = AttentionWeights.random(d_q=8, d_ctx=6, heads=2, rng=rng)
        s2 = AttentionWeights.random(d_q=8, d_ctx=6, heads=2, rng=rng)
        out = hierarchical_condition(res, b.global_token, b.part_tokens, s1, s2)
        oracle = attention_oracle(attention_oracle(res.refined, b.global_token, s1),
                                  b.part_tokens, s2)
        assert np.allclose(out, oracle, atol=1e-9)

    def test_point_permutation_through_both_stages(self):
        rng = np.random.default_rng(8)
        b = random_bundle(rng, n=7)
        s1 = AttentionWeights.random(d_q=8, d_ctx=6, heads=2, rng=rng)
        s2 = AttentionWeights.random(d_q=8, d_ctx=6, heads=2, rng=rng)
        perm = rng.permutation(7)
        out = hierarchical_condition(soft_assign(b), b.global_token,
                                     b.part_tokens, s1, s2)
        b_p = FeatureBundle(b.point_features[perm], b.global_token,
                            b.part_tokens, b.phi, b.psi, b.w_val, b.tau)
        out_p = hierarchical_condition(soft_assign(b_p), b.global_token,
                                       b.part_tokens, s1, s2)
        assert np.allclose(out[perm], out_p, atol=1e-12)


def test_bundle_file_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    b = random_bundle(rng)
    path = tmp_path / "bundle.json"
    write_bundle(b, path)
    back = read_bundle(path)
    assert np.allclose(back.point_features, b.point_features)
    assert back.tau == b.tau
    res_a = soft_assign(bundle_from_dict(bundle_to_dict(b)))
    res_b = soft_assign(back)
    assert np.allclose(res_a.weights, res_b.weights)


@pytest.mark.parametrize("key", ["point_features", "global_token",
                                 "part_tokens", "phi", "psi", "w_val"])
def test_bundle_missing_key_io_error(key):
    doc = bundle_to_dict(random_bundle(np.random.default_rng(11)))
    del doc[key]
    with pytest.raises(IoError, match=f"missing required key '{key}'"):
        bundle_from_dict(doc)
