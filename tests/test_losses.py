import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from physedit import losses
from physedit.errors import (DegenerateInput, DomainError, MissingMapping,
                             ShapeError)
from physedit.losses import (LossWeights, SupervisionTargets, assignment_loss,
                             contrastive_loss, sample_triplets,
                             smoothness_loss, task_loss, total_loss)
from physedit.materials import MaterialField
from oracles import (assignment_oracle, contrastive_oracle, huber_oracle,
                     knn_same_part, smoothness_oracle, task_oracle)

PAPER_WEIGHTS = LossWeights()  # reg 1, cls 0.3, smooth 0.02, con 5e-4, assign 0.1


def make_field(rng, n=12, parts=2, spread=1.0):
    part = rng.integers(0, parts, n).astype(np.int32)
    part[:parts] = np.arange(parts)  # every part represented
    return MaterialField(
        positions=spread * rng.uniform(0, 1, size=(n, 3)),
        class_id=rng.integers(0, 6, n).astype(np.int32),
        young_modulus=10 ** rng.uniform(4, 8, n),
        poisson_ratio=rng.uniform(-0.2, 0.45, n),
        density=10 ** rng.uniform(1.5, 3.5, n),
        part_label=part,
    )


def shuffled_lattice(rng, side=4, spacing=0.05):
    """A side^3 lattice in shuffled order, as fill produces: many
    neighbor distances tie exactly, so the kNN tie rule decides."""
    axis = spacing * np.arange(side)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
    n = side ** 3
    return MaterialField(
        positions=grid.reshape(-1, 3)[rng.permutation(n)],
        class_id=np.zeros(n, dtype=np.int32),
        young_modulus=10 ** rng.uniform(3, 6, n),
        poisson_ratio=np.full(n, 0.3),
        density=np.full(n, 1000.0),
    )


def make_targets(rng, field, k_prompts=2):
    n = field.n_points
    return SupervisionTargets(
        class_labels=rng.integers(0, 6, n),
        param_targets=rng.normal(size=(n, 3)),
        part_labels=field.part_label,
        prompt_of_part={p: p % k_prompts
                        for p in np.unique(field.part_label)},
    )


# ---------------------------------------------------------------------------

class TestTaskLoss:
    def test_perfect_prediction_zero(self):
        rng = np.random.default_rng(0)
        f = make_field(rng, n=6)
        targets = make_targets(rng, f)
        probs = np.zeros((6, 6))
        probs[np.arange(6), targets.class_labels] = 1.0
        assert task_loss(probs, targets.param_targets, targets,
                         PAPER_WEIGHTS) == 0.0

    def test_uniform_probs_ln6(self):
        rng = np.random.default_rng(1)
        f = make_field(rng, n=5)
        targets = make_targets(rng, f)
        probs = np.full((5, 6), 1.0 / 6.0)
        val = task_loss(probs, targets.param_targets, targets, PAPER_WEIGHTS)
        assert val == pytest.approx(0.3 * math.log(6.0), rel=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        f = make_field(rng, n=4)
        targets = make_targets(rng, f)
        probs = rng.dirichlet(np.ones(6), size=4)
        params = rng.normal(size=(4, 3))
        got = task_loss(probs, params, targets, PAPER_WEIGHTS)
        want = task_oracle(probs.tolist(), params.tolist(), targets,
                           PAPER_WEIGHTS)
        assert got == pytest.approx(want, abs=1e-10)

    def test_simplex_check(self):
        rng = np.random.default_rng(3)
        f = make_field(rng, n=3)
        targets = make_targets(rng, f)
        probs = np.full((3, 6), 0.5)
        with pytest.raises(DomainError):
            task_loss(probs, targets.param_targets, targets, PAPER_WEIGHTS)

    def test_shape_error(self):
        rng = np.random.default_rng(4)
        f = make_field(rng, n=3)
        targets = make_targets(rng, f)
        with pytest.raises(ShapeError):
            task_loss(np.full((3, 6), 1 / 6), np.zeros((2, 3)), targets,
                      PAPER_WEIGHTS)


class TestSmoothness:
    def test_constant_field_zero(self):
        rng = np.random.default_rng(5)
        f = make_field(rng, n=10)
        f = f.with_(young_modulus=np.full(10, 1e6),
                    poisson_ratio=np.full(10, 0.25),
                    density=np.full(10, 1200.0))
        assert smoothness_loss(f, PAPER_WEIGHTS) == 0.0

    def test_two_point_hand_value(self):
        # c_s equal, c_p differing by exactly 1, unit distance, k=1
        w = LossWeights(smooth_k=1)
        nu_a = 0.0
        rho = 1.0
        e_a = 2 * rho * (1 + nu_a)          # c_s = 1, c_p = sqrt(2)
        r = math.sqrt(2.0) + 1.0            # target c_p ratio
        nu_b = (r * r - 2) / (2 * (r * r - 1))
        e_b = 2 * rho * (1 + nu_b)          # c_s = 1, c_p = sqrt(2) + 1
        f = MaterialField(
            positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            class_id=np.zeros(2, dtype=np.int32),
            young_modulus=np.array([e_a, e_b]),
            poisson_ratio=np.array([nu_a, nu_b]),
            density=np.array([rho, rho]),
        )
        val = smoothness_loss(f, w)
        assert val == pytest.approx(1.0 / (1.0 + w.smooth_eps), rel=1e-9)

    def test_coordinate_scaling_quarters_loss(self):
        rng = np.random.default_rng(6)
        f = make_field(rng, n=14)
        base = smoothness_loss(f, PAPER_WEIGHTS)
        scaled = smoothness_loss(f.with_(positions=2.0 * f.positions),
                                 LossWeights(smooth_eps=0.0))
        reference = smoothness_loss(f, LossWeights(smooth_eps=0.0))
        assert scaled == pytest.approx(reference / 4.0, rel=1e-12)
        assert base > 0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        fields = [make_field(rng, n=11) for _ in range(5)]
        fields.append(shuffled_lattice(np.random.default_rng(19)))
        for f in fields:
            got = smoothness_loss(f, PAPER_WEIGHTS)
            want = smoothness_oracle(f, PAPER_WEIGHTS)
            assert got == pytest.approx(want, rel=1e-10)

    def test_within_part_restriction(self):
        rng = np.random.default_rng(8)
        f = make_field(rng, n=16, parts=2)
        # the same field without part labels is one part
        whole = f.with_(part_label=None)
        within = smoothness_loss(f, PAPER_WEIGHTS)
        across = smoothness_loss(whole, PAPER_WEIGHTS)
        assert within != across
        assert within == pytest.approx(smoothness_oracle(f, PAPER_WEIGHTS),
                                       rel=1e-10)
        assert across == pytest.approx(smoothness_oracle(whole, PAPER_WEIGHTS),
                                       rel=1e-10)

    def test_isolated_point_flagged(self):
        rng = np.random.default_rng(9)
        f = make_field(rng, n=7, parts=1)
        part = np.zeros(7, dtype=np.int32)
        part[3] = 5  # a one-point part has no same-part neighbor
        f = f.with_(part_label=part)
        counts = losses._knn_graph(f, PAPER_WEIGHTS.smooth_k)[2]
        assert np.flatnonzero(counts == 0).tolist() == [3]
        # the oracle skips a point with no neighbor: it contributes 0
        assert smoothness_loss(f, PAPER_WEIGHTS) == pytest.approx(
            smoothness_oracle(f, PAPER_WEIGHTS), rel=1e-10)

    def test_no_point_has_a_neighbor(self):
        # every part has one point: no edge at all, and the loss is 0
        f = make_field(np.random.default_rng(11), n=3, parts=3)
        assert smoothness_loss(f, PAPER_WEIGHTS) == 0.0
        assert losses._knn_graph(f, PAPER_WEIGHTS.smooth_k)[2].tolist() == \
            [0, 0, 0]
        assert losses.finite_diff_check(
            "smoothness", {"field": f, "weights": PAPER_WEIGHTS}) == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(seed=hst.integers(0, 2 ** 32 - 1), n=hst.integers(2, 40),
           k=hst.integers(1, 10), parts=hst.integers(1, 3),
           within_part=hst.booleans(), lone=hst.booleans())
    def test_knn_graph_matches_brute_force(self, seed, n, k, parts,
                                           within_part, lone):
        # a coarse lattice makes exact distance ties common, and every
        # fourth point repeats an earlier one; ties go to the lower index
        rng = np.random.default_rng(seed)
        pos = rng.integers(0, 3, size=(n, 3)) * 0.25
        pos[3::4] = pos[rng.integers(0, max(n // 4, 1), size=pos[3::4].shape[0])]
        part = rng.integers(0, parts, n).astype(np.int32)
        if lone:
            part[n // 2] = parts  # a part with a single point
        f = MaterialField(positions=pos, class_id=np.zeros(n, dtype=np.int32),
                          young_modulus=np.full(n, 1e6),
                          poisson_ratio=np.full(n, 0.3),
                          density=np.full(n, 1e3), part_label=part)
        # without part labels the field is one part
        src, dst, counts, d2 = losses._knn_graph(
            f if within_part else f.with_(part_label=None), k)
        labels = part if within_part else np.zeros(n, dtype=np.int32)
        want = [(i, j) for lab in np.unique(labels)
                for i in np.flatnonzero(labels == lab)
                for j in knn_same_part(pos, labels, i, k)]
        assert list(zip(src.tolist(), dst.tolist())) == want
        assert counts.tolist() == np.bincount(src, minlength=n).tolist()
        np.testing.assert_array_equal(
            d2, [np.sum((pos[j] - pos[i]) ** 2) for i, j in want])

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(10)
        f = make_field(rng, n=12)
        base = smoothness_loss(f, PAPER_WEIGHTS)
        shifted = smoothness_loss(f.with_(positions=f.positions + [3.0, -2.0, 0.5]),
                                  PAPER_WEIGHTS)
        perm = rng.permutation(12)
        permuted = smoothness_loss(
            f.with_(positions=f.positions[perm],
                    class_id=f.class_id[perm],
                    young_modulus=f.young_modulus[perm],
                    poisson_ratio=f.poisson_ratio[perm],
                    density=f.density[perm],
                    part_label=f.part_label[perm],
                    interior_flag=f.interior_flag[perm]),
            PAPER_WEIGHTS)
        assert shifted == pytest.approx(base, rel=1e-9)
        assert permuted == pytest.approx(base, rel=1e-12)


class TestContrastive:
    def test_identical_anchor_positive_far_negative(self):
        # e_i == e_p and the negative is far: hinge inactive
        f = MaterialField(
            positions=np.zeros((3, 3)),
            class_id=np.zeros(3, dtype=np.int32),
            young_modulus=np.array([1e5, 1e5, 1e9]),
            poisson_ratio=np.array([0.45, 0.45, 0.05]),
            density=np.full(3, 1000.0),
            part_label=np.array([0, 0, 1], dtype=np.int32),
        )
        w = LossWeights(margin=1e-4)
        assert contrastive_loss(f, [[0, 1, 2]], w) == 0.0

    def test_all_equal_gives_margin(self):
        f = MaterialField(
            positions=np.zeros((3, 3)),
            class_id=np.zeros(3, dtype=np.int32),
            young_modulus=np.full(3, 2e6),
            poisson_ratio=np.full(3, 0.3),
            density=np.full(3, 1000.0),
            part_label=np.array([0, 0, 1], dtype=np.int32),
        )
        w = LossWeights(margin=0.2)
        assert contrastive_loss(f, [[0, 1, 2]], w) == pytest.approx(0.2, rel=1e-15)

    def test_reference_triplet_matches_oracle(self):
        f = MaterialField(
            positions=np.zeros((3, 3)),
            class_id=np.zeros(3, dtype=np.int32),
            young_modulus=np.array([1e5, 1.2e5, 1e9]),
            poisson_ratio=np.array([0.2, 0.2, 0.4]),
            density=np.full(3, 1000.0),
        )
        w = LossWeights(margin=0.2)
        got = contrastive_loss(f, [[0, 1, 2]], w)
        want = contrastive_oracle(f, [[0, 1, 2]], w)
        assert got == pytest.approx(want, abs=1e-12)
        assert got > 0

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(11)
        f = make_field(rng, n=10)
        trips = sample_triplets(f.part_label, 25, seed=3)
        got = contrastive_loss(f, trips, PAPER_WEIGHTS)
        want = contrastive_oracle(f, trips, PAPER_WEIGHTS)
        assert got == pytest.approx(want, rel=1e-10)

    def test_uniform_e_scaling_shifts_unnormalized_embeddings_only(self):
        # Uniform nu: scaling every E by alpha shifts each [ln mu, ln K]
        # by ln(alpha) * (1, 1), so *unnormalized* pairwise embedding
        # distances are exactly unchanged.  After the L2 normalization
        # in the loss the cancellation is only approximate, so the loss
        # itself is checked against its own oracle instead.
        rng = np.random.default_rng(12)
        n = 8
        e = 10 ** rng.uniform(4, 8, n)
        nu = np.full(n, 0.3)
        alpha = 37.0

        def log_embed(e_arr):
            mu = e_arr / (2 * (1 + nu))
            kappa = e_arr / (3 * (1 - 2 * nu))
            return np.stack([np.log(mu), np.log(kappa)], axis=1)

        u1, u2 = log_embed(e), log_embed(alpha * e)
        d1 = np.linalg.norm(u1[:, None] - u1[None, :], axis=-1)
        d2 = np.linalg.norm(u2[:, None] - u2[None, :], axis=-1)
        assert np.allclose(d1, d2, rtol=0, atol=1e-10)
        # and the shift direction is exactly (1, 1) ln(alpha)
        assert np.allclose(u2 - u1, math.log(alpha), atol=1e-12)

    def test_domain_error_on_nonpositive_modulus(self):
        f = MaterialField(
            positions=np.zeros((2, 3)),
            class_id=np.zeros(2, dtype=np.int32),
            young_modulus=np.array([1e5, 1e5]),
            poisson_ratio=np.array([0.2, 0.2]),
            density=np.full(2, 1000.0),
        )
        bad = f.with_(poisson_ratio=np.array([0.2, 0.51]))
        with pytest.raises(DomainError):
            contrastive_loss(bad, [[0, 1, 0]], PAPER_WEIGHTS)

    def test_sampler_respects_parts(self):
        rng = np.random.default_rng(13)
        part = rng.integers(0, 3, 30)
        trips = sample_triplets(part, 200, seed=1)
        assert np.all(part[trips[:, 0]] == part[trips[:, 1]])
        assert np.all(part[trips[:, 0]] != part[trips[:, 2]])
        assert np.all(trips[:, 0] != trips[:, 1])
        again = sample_triplets(part, 200, seed=1)
        assert np.array_equal(trips, again)


class TestAssignment:
    def _targets(self, parts, mapping):
        return SupervisionTargets(class_labels=np.zeros(len(parts), dtype=int),
                                  param_targets=np.zeros((len(parts), 3)),
                                  part_labels=parts,
                                  prompt_of_part=mapping)

    def test_saturated_logits_near_zero(self):
        parts = np.array([0, 1, 0])
        targets = self._targets(parts, {0: 0, 1: 1})
        logits = np.array([[20.0, 0.0], [0.0, 20.0], [20.0, 0.0]])
        assert assignment_loss(logits, targets, tau=1.0) < 1e-8

    def test_zero_logits_ln_k(self):
        parts = np.array([0, 1, 2, 0])
        targets = self._targets(parts, {0: 0, 1: 1, 2: 2})
        logits = np.zeros((4, 3))
        assert assignment_loss(logits, targets, tau=0.07) == \
            pytest.approx(math.log(3.0), rel=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(14)
        parts = np.array([0, 1, 1])
        targets = self._targets(parts, {0: 0, 1: 1})
        logits = rng.normal(size=(3, 2))
        got = assignment_loss(logits, targets, tau=0.07)
        want = assignment_oracle(logits, [0, 1, 1], 0.07)
        assert got == pytest.approx(want, abs=1e-10)

    def test_monotone_in_true_logit(self):
        rng = np.random.default_rng(15)
        parts = np.array([0, 1, 0, 1])
        targets = self._targets(parts, {0: 0, 1: 1})
        logits = rng.normal(size=(4, 2))
        prev = assignment_loss(logits, targets, tau=0.07)
        for bump in (0.01, 0.05, 0.2):
            boosted = logits.copy()
            boosted[2, 0] += bump
            cur = assignment_loss(boosted, targets, tau=0.07)
            assert cur < prev
            prev = cur

    def test_missing_mapping(self):
        parts = np.array([0, 3])
        targets = self._targets(parts, {0: 0})
        with pytest.raises(MissingMapping):
            assignment_loss(np.zeros((2, 2)), targets, tau=0.07)

    def test_prompt_index_maps_every_point(self):
        targets = self._targets(np.array([2, 0, 1, 1, 2, 0]),
                                {0: 1, 1: 0, 2: 2, 7: 0})
        assert targets.prompt_index(3).tolist() == [2, 1, 0, 0, 2, 1]
        assert self._targets(np.zeros(0, dtype=int), {}).prompt_index(2) \
            .tolist() == []

    @pytest.mark.parametrize("parts, mapping, message", [
        ([4, 1, 0], {0: 0}, "part label 4 has no prompt index"),
        ([0, 5, 1], {0: 0, 1: 3, 5: 1},
         "part 1 maps to prompt 3, outside [0, 2)"),
        ([0, 3, 1], {0: 0, 1: -1}, "part label 3 has no prompt index"),
        ([0, 1, 3], {0: 0, 1: -1}, "part 1 maps to prompt -1, outside [0, 2)"),
    ], ids=["missing-before-lower-part", "out-of-range", "missing-first",
            "negative-first"])
    def test_prompt_index_names_first_bad_point(self, parts, mapping,
                                                message):
        targets = self._targets(np.array(parts), mapping)
        with pytest.raises(MissingMapping) as err:
            targets.prompt_index(2)
        assert str(err.value) == message


class TestTotal:
    def _everything(self, rng, n=10):
        f = make_field(rng, n=n)
        targets = make_targets(rng, f)
        probs = rng.dirichlet(np.ones(6), size=n)
        params = rng.normal(size=(n, 3))
        logits = rng.normal(size=(n, 2))
        trips = sample_triplets(f.part_label, 16, seed=0)
        return f, targets, probs, params, logits, trips

    def test_paper_weight_arithmetic(self):
        # components (0.5, 1.0, 0.2, 0.7) with stated weights
        total = 0.5 + 0.02 * 1.0 + 5e-4 * 0.2 + 0.1 * 0.7
        assert total == pytest.approx(0.5901, abs=1e-12)

    def test_recomposes_from_parts(self):
        rng = np.random.default_rng(16)
        f, targets, probs, params, logits, trips = self._everything(rng)
        total, parts = total_loss(probs, params, f, trips, logits, targets,
                                  PAPER_WEIGHTS, tau=0.07)
        recomposed = (parts["task"] + 0.02 * parts["smoothness"]
                      + 5e-4 * parts["contrastive"] + 0.1 * parts["assignment"])
        assert total == pytest.approx(recomposed, rel=1e-12)

    def test_all_terms_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            f, targets, probs, params, logits, trips = self._everything(rng)
            _, parts = total_loss(probs, params, f, trips, logits, targets,
                                  PAPER_WEIGHTS, tau=0.07)
            for key, value in parts.items():
                assert value >= 0.0, key

    def test_reg_only_reduces_to_huber(self):
        rng = np.random.default_rng(18)
        f, targets, probs, params, logits, trips = self._everything(rng)
        w = LossWeights(lambda_reg=1.0, lambda_cls=0.0, lambda_smooth=0.0,
                        lambda_con=0.0, lambda_assign=0.0)
        total, _ = total_loss(probs, params, f, trips, logits, targets, w,
                              tau=0.07)
        n = f.n_points
        huber = sum(huber_oracle(params[i, c] - targets.param_targets[i, c], 1.0)
                    for i in range(n) for c in range(3)) / n
        assert total == pytest.approx(huber, rel=1e-12)


# ---------------------------------------------------------------------------
# validation


def points(n=3, **changes):
    """n points on the axes, two parts (the last point alone)."""
    return MaterialField(
        positions=np.eye(3)[:n], class_id=np.zeros(n, dtype=np.int32),
        young_modulus=np.full(n, 1e6), poisson_ratio=np.full(n, 0.3),
        density=np.full(n, 1e3),
        part_label=np.r_[np.zeros(n - 1), 1].astype(np.int32)).with_(**changes)


THREE = SupervisionTargets(class_labels=[0, 1, 5],
                           param_targets=np.zeros((3, 3)),
                           part_labels=[0, 0, 1], prompt_of_part={0: 0, 1: 1})


@pytest.mark.parametrize("loss, weights, error, message", [
    (lambda w: task_loss(np.full((3, 6), 1 / 6), np.zeros((3, 3)), THREE, w),
     LossWeights(huber_delta=-1.0), DomainError, "huber_delta must be positive"),
    (lambda w: contrastive_loss(points(), [[0, 1, 2]], w),
     LossWeights(margin=-5.0), DomainError, "margin must be positive"),
    (lambda w: smoothness_loss(points(), w),
     LossWeights(smooth_k=0), ShapeError, "smooth_k must be >= 1"),
], ids=["task-huber-delta", "contrastive-margin", "smoothness-k"])
def test_losses_check_the_weights_they_read(loss, weights, error, message):
    with pytest.raises(error, match=message):
        loss(weights)


@pytest.mark.parametrize("call, error, message", [
    (lambda: LossWeights(lambda_con=-1.0).validate(), DomainError,
     "lambda_con must be non-negative"),
    (lambda: LossWeights(margin=0.0).validate(), DomainError,
     "margin must be positive"),
    (lambda: LossWeights(huber_delta=0.0).validate(), DomainError,
     "huber_delta must be positive"),
    (lambda: LossWeights(smooth_k=0).validate(), ShapeError,
     "smooth_k must be >= 1"),
    (lambda: LossWeights(smooth_eps=0.0).validate(), DomainError,
     "smooth_eps must be positive"),
    (lambda: task_loss(np.full(3, 1 / 3), np.zeros((3, 3)), THREE,
                       PAPER_WEIGHTS), ShapeError,
     "probabilities must be 2-D, got (3,)"),
    (lambda: task_loss(np.full((4, 6), 1 / 6), np.zeros((4, 3)), THREE,
                       PAPER_WEIGHTS), ShapeError,
     "targets do not match prediction shapes"),
    (lambda: task_loss(np.full((3, 2), 0.5), np.zeros((3, 3)), THREE,
                       PAPER_WEIGHTS), DomainError,
     "class labels must lie in [0, 2)"),
    (lambda: smoothness_loss(points(1), PAPER_WEIGHTS), DegenerateInput,
     "smoothness needs at least two points"),
    # mu = K = 1 at nu = 1/8, E = 9/4: both log-moduli are 0
    (lambda: contrastive_loss(points(young_modulus=np.full(3, 2.25),
                                     poisson_ratio=np.full(3, 0.125)),
                              [[0, 1, 2]], PAPER_WEIGHTS), DomainError,
     "zero-magnitude log-moduli embedding"),
    (lambda: contrastive_loss(points(), [[0, 1]], PAPER_WEIGHTS), ShapeError,
     "triplets must be a non-empty (T, 3) index array"),
    (lambda: contrastive_loss(points(), [[0, 1, 3]], PAPER_WEIGHTS),
     ShapeError, "triplet index out of range"),
    (lambda: sample_triplets([0, 1, 2], 4), DegenerateInput,
     "no part has both a positive and a negative candidate"),
    (lambda: assignment_loss(np.zeros(3), THREE), ShapeError,
     "logits must be (N, K), got (3,)"),
    (lambda: assignment_loss(np.zeros((2, 2)), THREE), ShapeError,
     "part labels do not match logits row count"),
    (lambda: assignment_loss(np.zeros((3, 2)), THREE, tau=0.0), DomainError,
     "tau must be positive"),
], ids=["lambda-negative", "margin", "huber-delta", "smooth-k", "smooth-eps",
        "probs-not-2d", "targets-shape", "class-label-range", "one-point",
        "zero-embedding", "triplets-shape", "triplet-range", "no-anchor",
        "logits-not-2d", "logit-rows", "tau"])
def test_validator_raises(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
