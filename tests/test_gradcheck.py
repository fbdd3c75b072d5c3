import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.spatial
from hypothesis import assume, given, settings, strategies as hst

from physedit import losses
from physedit.errors import DomainError, NonSmoothPoint
from physedit.losses import (LossWeights, SupervisionTargets, assignment_loss,
                             contrastive_hinge_values, contrastive_loss,
                             finite_diff_check, sample_triplets,
                             smoothness_loss, task_loss)
from physedit.materials import MaterialField
from oracles import central_diff_oracle

TOL = 1e-4
EPS = 1e-5
PROBE_NAMES = ("task", "smoothness", "contrastive", "assignment")


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
    # a field without part labels is one part: neighbors cross parts
    err = finite_diff_check("smoothness",
                            {"field": f.with_(part_label=None),
                             "weights": LossWeights()})
    assert err < TOL


def test_smoothness_check_builds_one_tree_per_part(monkeypatch):
    # the graph depends only on positions and labels, which no probe moves;
    # losses imports cKDTree from scipy.spatial where it builds the graph
    built = []
    real_tree = scipy.spatial.cKDTree

    def counting_tree(*args, **kwargs):
        built.append(args)
        return real_tree(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", counting_tree)
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
    counts = losses._knn_graph(f, LossWeights().smooth_k)[2]
    assert np.flatnonzero(counts == 0).tolist() == [5]
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


# ---------------------------------------------------------------------------
# blocked central differences against the per-probe loop


def field_with_params(f, p):
    """f with its parameters replaced by packed (ln E, nu, ln rho) rows."""
    return f.with_(young_modulus=np.exp(p[:, 0]), poisson_ratio=p[:, 1],
                   density=np.exp(p[:, 2]))


def gradient_probe_inputs(nu_of_point_3=None):
    """Inputs of the four probes, and each probe's public scalar loss.

    45 points give 135 coordinates per probe (45 x 3 parameters, 45 x 3
    logits), which neither a 7-probe block nor the default block divides.
    """
    rng = np.random.default_rng(11)
    n = 45
    f = random_field(rng, n=n)
    if nu_of_point_3 is not None:
        nu = f.poisson_ratio.copy()
        nu[3] = nu_of_point_3
        f = f.with_(poisson_ratio=nu)
    targets = SupervisionTargets(class_labels=rng.integers(0, 6, n),
                                 param_targets=rng.normal(size=(n, 3)),
                                 part_labels=f.part_label,
                                 prompt_of_part={0: 2, 1: 0})
    probs = rng.dirichlet(np.ones(6), size=n)
    params = targets.param_targets + rng.uniform(-0.6, 0.6, size=(n, 3))
    w = LossWeights(margin=0.5)
    trips = sample_triplets(f.part_label, 16, seed=3)
    logits = rng.normal(size=(n, 3))
    return {
        "task": ({"pred_probs": probs, "pred_params": params,
                  "targets": targets, "weights": w},
                 lambda p: task_loss(probs, p, targets, w)),
        "smoothness": ({"field": f, "weights": w},
                       lambda p: smoothness_loss(field_with_params(f, p), w)),
        "contrastive": ({"field": f, "triplets": trips, "weights": w},
                        lambda p: contrastive_loss(field_with_params(f, p),
                                                   trips, w)),
        "assignment": ({"logits": logits, "targets": targets, "tau": 0.07},
                       lambda s: assignment_loss(s, targets, 0.07)),
    }


@functools.lru_cache(maxsize=None)
def per_probe_gradient(name):
    inputs, scalar_loss = gradient_probe_inputs()[name]
    x = losses._gradient_probe(name, inputs, EPS).x
    return central_diff_oracle(scalar_loss, x, EPS)


@pytest.mark.parametrize("probes", [1, 7, None],
                         ids=["1-probe", "7-probes", "default"])
@pytest.mark.parametrize("name", PROBE_NAMES)
def test_blocked_central_differences_match_per_probe_loop(monkeypatch, name,
                                                          probes):
    inputs, _ = gradient_probe_inputs()[name]
    probe = losses._gradient_probe(name, inputs, EPS)
    x, n_terms = probe.x, probe.terms.size
    assert x.size == 135
    if probes is not None:
        monkeypatch.setattr(losses, "_BLOCK_VALUES", 2 * n_terms * probes + 1)
    per_block = losses._probes_per_block(n_terms)
    assert per_block == (probes or losses._BLOCK_VALUES // (2 * n_terms))
    assert probes is None or per_block == 1 or x.size % per_block

    blocks = []

    def counted(values, rows, owner, term):
        blocks.append(values.shape)
        return probe.terms_at(values, rows, owner, term)

    got = losses._central_diff(dataclasses.replace(probe, terms_at=counted),
                               EPS)
    assert len(blocks) == math.ceil(x.size / per_block)
    assert blocks[0] == (2 * min(per_block, x.size), x.shape[1])
    assert blocks[-1][0] == 2 * (x.size - per_block * (len(blocks) - 1))
    # bit-equal for all four losses: a reached term adds the same values in
    # the same order as the full loss, and the row mean runs over a
    # C-ordered last axis, so it adds in the order of the unbatched loss
    want = per_probe_gradient(name)
    np.testing.assert_array_equal(got, want)
    assert finite_diff_check(name, inputs, EPS) == \
        losses._max_rel_err(probe.analytic, want)
    assert finite_diff_check(name, inputs, EPS) < TOL


@pytest.mark.parametrize("probes", [1, 7, None],
                         ids=["1-probe", "7-probes", "default"])
@pytest.mark.parametrize("name, message", [
    ("smoothness", "Poisson's ratio must lie strictly"),
    ("contrastive", "shear and bulk moduli must be positive"),
], ids=["smoothness", "contrastive"])
def test_perturbed_values_still_range_checked(monkeypatch, name, message,
                                              probes):
    # nu is valid at the field itself; only the nu + epsilon probe of
    # point 3 crosses 0.5, and the per-probe loop raises on that probe
    inputs, scalar_loss = gradient_probe_inputs(
        nu_of_point_3=0.5 - 5e-6)[name]
    probe = losses._gradient_probe(name, inputs, EPS)
    x = probe.x
    assert np.isfinite(scalar_loss(x))
    with pytest.raises(DomainError, match=message):
        central_diff_oracle(scalar_loss, x, EPS)
    if probes is not None:
        monkeypatch.setattr(losses, "_BLOCK_VALUES",
                            2 * probe.terms.size * probes)
    with pytest.raises(DomainError, match=message):
        finite_diff_check(name, inputs, EPS)


@pytest.mark.parametrize("name, bad, message", [
    ("task", {"huber_delta": -1.0}, "huber_delta must be positive"),
    ("smoothness", {"smooth_eps": -1e-3}, "smooth_eps must be positive"),
    ("contrastive", {"margin": -5.0}, "margin must be positive"),
], ids=["task", "smoothness", "contrastive"])
def test_gradient_check_refuses_invalid_weights(name, bad, message):
    inputs, _ = gradient_probe_inputs()[name]
    assert finite_diff_check(name, inputs) < TOL
    inputs["weights"] = dataclasses.replace(inputs["weights"], **bad)
    with pytest.raises(DomainError, match=message):
        finite_diff_check(name, inputs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), n=hst.integers(5, 12),
       k=hst.integers(1, 5), within_part=hst.booleans(),
       isolated=hst.booleans(), duplicated=hst.booleans())
def test_sparse_probes_match_per_probe_loop(seed, n, k, within_part, isolated,
                                            duplicated):
    # each probe re-evaluates only the terms its row reaches; the rest of
    # its row keeps the terms at x, so every probe's loss is bit-equal
    rng = np.random.default_rng(seed)
    part = np.r_[0, 0, 1, 1, rng.integers(0, 2, n - 4)]
    if isolated:
        part[-1] = 2  # a one-member part: no neighbor, never an anchor
    pos = rng.uniform(0, 1, size=(n, 3))
    if duplicated:
        pos[2] = pos[0]  # exact distance ties, and a zero-length edge
    f = MaterialField(positions=pos, class_id=np.zeros(n, dtype=np.int32),
                      young_modulus=10 ** rng.uniform(4, 7, n),
                      poisson_ratio=rng.uniform(-0.1, 0.45, n),
                      density=10 ** rng.uniform(2, 3.2, n),
                      part_label=part.astype(np.int32))
    targets = SupervisionTargets(class_labels=rng.integers(0, 6, n),
                                 param_targets=rng.normal(size=(n, 3)),
                                 part_labels=part,
                                 prompt_of_part={0: 1, 1: 0, 2: 2})
    probs = rng.dirichlet(np.ones(6), size=n)
    resid = rng.uniform(-2.5, 2.5, size=(n, 3))
    resid[np.abs(np.abs(resid) - 1.0) < 0.01] = 0.5  # off the Huber kink
    params = targets.param_targets + resid
    w = LossWeights(smooth_k=k, margin=0.3)
    trips = sample_triplets(part, 6, seed=seed % 1000)
    logits = rng.normal(size=(n, 3))
    # without part labels the smoothness neighbors cross parts
    fs = f if within_part else f.with_(part_label=None)
    cases = {
        "task": ({"pred_probs": probs, "pred_params": params,
                  "targets": targets, "weights": w},
                 lambda p: task_loss(probs, p, targets, w)),
        "smoothness": ({"field": fs, "weights": w},
                       lambda p: smoothness_loss(field_with_params(fs, p), w)),
        "contrastive": ({"field": f, "triplets": trips, "weights": w},
                        lambda p: contrastive_loss(field_with_params(f, p),
                                                   trips, w)),
        "assignment": ({"logits": logits, "targets": targets, "tau": 0.2},
                       lambda s: assignment_loss(s, targets, 0.2)),
    }
    for name, (inputs, scalar_loss) in cases.items():
        try:
            probe = losses._gradient_probe(name, inputs, EPS)
        except NonSmoothPoint:
            assume(False)
        np.testing.assert_array_equal(
            losses._central_diff(probe, EPS),
            central_diff_oracle(scalar_loss, probe.x, EPS))
