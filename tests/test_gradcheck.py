import numpy as np
import pytest

from physedit import losses
from physedit.errors import DomainError, NonSmoothPoint
from physedit.losses import (LossWeights, SupervisionTargets,
                             contrastive_hinge_values, finite_diff_check,
                             sample_triplets, smoothness_breakdown)
from physedit.materials import MaterialField

TOL = 1e-4


def random_field(rng, n=10):
    return MaterialField(
        positions=rng.uniform(0, 1, size=(n, 3)),
        class_id=rng.integers(0, 6, n).astype(np.int32),
        young_modulus=10 ** rng.uniform(4, 7, n),
        poisson_ratio=rng.uniform(-0.1, 0.4, n),
        density=10 ** rng.uniform(2, 3.2, n),
        part_label=np.r_[0, 1, rng.integers(0, 2, n - 2)].astype(np.int32),
    )


def random_targets(rng, field):
    n = field.n_points
    return SupervisionTargets(
        class_labels=rng.integers(0, 6, n),
        param_targets=rng.normal(size=(n, 3)),
        part_labels=field.part_label,
        prompt_of_part={0: 0, 1: 1},
    )


def test_task_gradient():
    rng = np.random.default_rng(0)
    f = random_field(rng, n=8)
    targets = random_targets(rng, f)
    probs = rng.dirichlet(np.ones(6), size=8)
    # residuals ~N(0,1) vs delta=1: resample anything near the kink
    params = targets.param_targets + rng.uniform(-0.6, 0.6, size=(8, 3))
    err = finite_diff_check("task", {"pred_probs": probs, "pred_params": params,
                                     "targets": targets,
                                     "weights": LossWeights()})
    assert err < TOL


def test_task_kink_detected():
    rng = np.random.default_rng(1)
    f = random_field(rng, n=4)
    targets = random_targets(rng, f)
    probs = np.full((4, 6), 1 / 6)
    params = targets.param_targets.copy()
    params[0, 0] += 1.0  # residual exactly at the Huber kink
    with pytest.raises(NonSmoothPoint):
        finite_diff_check("task", {"pred_probs": probs, "pred_params": params,
                                   "targets": targets,
                                   "weights": LossWeights()})


def test_smoothness_gradient_20_points():
    rng = np.random.default_rng(2)
    f = random_field(rng, n=20)
    err = finite_diff_check("smoothness", {"field": f,
                                           "weights": LossWeights()},
                            epsilon=1e-5)
    assert err < TOL


def test_smoothness_gradient_without_part_restriction():
    rng = np.random.default_rng(3)
    f = random_field(rng, n=12)
    err = finite_diff_check("smoothness", {"field": f, "weights": LossWeights(),
                                           "within_part": False})
    assert err < TOL


def test_smoothness_check_builds_one_tree_per_part(monkeypatch):
    # the graph depends only on positions and labels, which no probe moves
    built = []
    real_tree = losses.cKDTree

    def counting_tree(*args, **kwargs):
        built.append(args)
        return real_tree(*args, **kwargs)

    monkeypatch.setattr(losses, "cKDTree", counting_tree)
    rng = np.random.default_rng(2)
    f = random_field(rng, n=20)
    assert np.bincount(f.part_label).min() >= 2
    err = finite_diff_check("smoothness", {"field": f,
                                           "weights": LossWeights()})
    assert err < TOL
    assert len(built) == 2


def test_smoothness_gradient_with_isolated_point():
    rng = np.random.default_rng(7)
    f = random_field(rng, n=12)
    part = f.part_label.copy()
    part[5] = 2  # a one-member part: point 5 has no neighbor
    f = f.with_(part_label=part)
    assert smoothness_breakdown(f, LossWeights()).isolated.tolist() == [5]
    err = finite_diff_check("smoothness", {"field": f,
                                           "weights": LossWeights()})
    assert err < TOL


def test_contrastive_gradient_active_hinge():
    rng = np.random.default_rng(4)
    w = LossWeights(margin=0.5)  # big margin keeps hinges strictly active
    for _ in range(5):
        f = random_field(rng, n=10)
        trips = sample_triplets(f.part_label, 12, seed=int(rng.integers(1e6)))
        hinges = contrastive_hinge_values(f, trips, w)
        if np.any(np.abs(hinges) < 1e-3):
            continue
        err = finite_diff_check("contrastive",
                                {"field": f, "triplets": trips, "weights": w})
        assert err < TOL


def test_contrastive_boundary_detected():
    # anchor == positive == negative puts h = margin; shrink the margin
    # until the hinge argument sits at zero
    f = MaterialField(
        positions=np.zeros((3, 3)),
        class_id=np.zeros(3, dtype=np.int32),
        young_modulus=np.full(3, 1e6),
        poisson_ratio=np.full(3, 0.3),
        density=np.full(3, 1000.0),
    )
    base = contrastive_hinge_values(f, [[0, 1, 2]], LossWeights(margin=1.0))[0]
    w = LossWeights(margin=1.0 - base + 1e-7)  # drives hinge to ~1e-7
    with pytest.raises(NonSmoothPoint):
        finite_diff_check("contrastive",
                          {"field": f, "triplets": [[0, 1, 2]], "weights": w})


def test_assignment_gradient():
    rng = np.random.default_rng(5)
    f = random_field(rng, n=9)
    targets = random_targets(rng, f)
    logits = rng.normal(size=(9, 2))
    err = finite_diff_check("assignment", {"logits": logits, "targets": targets,
                                           "tau": 0.07})
    assert err < TOL


def test_assignment_gradient_default_tau():
    rng = np.random.default_rng(6)
    f = random_field(rng, n=5)
    targets = random_targets(rng, f)
    logits = 0.05 * rng.normal(size=(5, 2))
    err = finite_diff_check("assignment", {"logits": logits, "targets": targets})
    assert err < TOL


def test_unknown_loss_name():
    with pytest.raises(DomainError):
        finite_diff_check("bogus", {})
