"""K-means, region cluster maps, priors, and reweighting."""

import numpy as np
import pytest

from floratile import clustering
from floratile.clustering import (
    ClusterPriors,
    dominant_cluster,
    estimate_priors,
    kmeans,
    reweight,
)
from floratile.errors import InputError, InvariantViolation


def test_kmeans_k1_is_the_mean():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 2)) * 4.0 + 7.0
    model = kmeans(pts, 1, seed=0)
    assert np.allclose(model.centroids[0], pts.mean(axis=0), atol=1e-12)
    expected = float(((pts - pts.mean(axis=0)) ** 2).sum())
    assert model.inertia == pytest.approx(expected, rel=1e-12)
    assert np.all(model.assignments == 0)


def test_kmeans_separates_two_far_blobs():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(40, 2))
    b = rng.normal(size=(40, 2)) + 100.0
    pts = np.vstack([a, b])
    model = kmeans(pts, 2, seed=5)
    first = set(model.assignments[:40].tolist())
    second = set(model.assignments[40:].tolist())
    assert len(first) == 1 and len(second) == 1
    assert first != second


def test_kmeans_k_equals_n_reaches_zero_inertia():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(9, 2)) * 10.0
    model = kmeans(pts, 9, seed=1)
    assert model.inertia == pytest.approx(0.0, abs=1e-18)
    assert sorted(model.assignments.tolist()) == list(range(9))


def test_kmeans_inertia_history_never_increases():
    rng = np.random.default_rng(41)
    for trial in range(100):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(1, min(n, 6) + 1))
        pts = rng.normal(size=(n, 2)) * float(rng.uniform(0.5, 20.0))
        model = kmeans(pts, k, seed=trial)
        h = model.inertia_history
        assert len(h) >= 2
        for prev, cur in zip(h, h[1:]):
            assert cur <= prev * (1 + 1e-12) + 1e-12
        assert model.inertia == h[-1]


def test_kmeans_stopped_at_the_iteration_cap_still_ends_on_an_assignment_pass(monkeypatch):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(300, 2))
    assert len(kmeans(pts, 5, seed=3).inertia_history) > 3  # these points need more than two Lloyd updates
    monkeypatch.setattr(clustering, "_MAX_LLOYD_ITERS", 2)
    model = kmeans(pts, 5, seed=3)
    assert len(model.inertia_history) == 3  # two updates, each after an assignment, then the final assignment
    assert model.inertia == model.inertia_history[-1]
    nearest = ((pts[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
    assert np.array_equal(model.assignments, nearest)
    assert model.inertia == pytest.approx(float(((pts - model.centroids[nearest]) ** 2).sum()), rel=1e-12)


def test_kmeans_handles_duplicate_points():
    pts = np.zeros((8, 2))
    model = kmeans(pts, 3, seed=2)
    assert model.inertia == 0.0


def test_kmeans_argument_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(InputError):
        kmeans(pts, 4, seed=0)  # more clusters than points
    with pytest.raises(InputError):
        kmeans(pts, 0, seed=0)
    with pytest.raises(InputError):
        kmeans(np.zeros(5), 1, seed=0)  # not 2-D


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(30, 2))
    a = kmeans(pts, 3, seed=9)
    b = kmeans(pts, 3, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)


def test_dominant_cluster_majority():
    regions = ["A", "A", "A", "B", "B"]
    assignments = [0, 0, 1, 2, 2]
    assert dominant_cluster(assignments, regions) == {"A": 0, "B": 2}


def test_dominant_cluster_tie_prefers_lower_id():
    regions = ["A", "A", "A", "A"]
    assignments = [2, 1, 2, 1]
    assert dominant_cluster(assignments, regions) == {"A": 1}


def test_dominant_cluster_length_mismatch():
    with pytest.raises(InputError):
        dominant_cluster([0, 1], ["A"])


def test_estimate_priors_singleton_epsilon_zero():
    v = np.array([[0.2, 0.3, 0.5]])
    priors = estimate_priors(v, [0], k=1, epsilon=0.0)
    assert np.allclose(priors.priors[0], v[0], atol=1e-15)


def test_estimate_priors_two_image_mean():
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    priors = estimate_priors(v, [0, 0], k=1, epsilon=0.0)
    assert np.allclose(priors.priors[0], [0.5, 0.5], atol=1e-15)


def test_estimate_priors_empty_cluster_uniform():
    v = np.array([[0.7, 0.3]])
    priors = estimate_priors(v, [0], k=3, epsilon=1e-6)
    assert np.allclose(priors.priors[1], [0.5, 0.5], atol=1e-15)
    assert np.allclose(priors.priors[2], [0.5, 0.5], atol=1e-15)


def test_estimate_priors_matches_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        s = int(rng.integers(2, 12))
        k = int(rng.integers(1, 5))
        raw = rng.random((n, s)) + 1e-3
        vectors = raw / raw.sum(axis=1, keepdims=True)
        assignments = rng.integers(0, k, size=n)
        eps = float(rng.choice([0.0, 1e-6, 1e-3]))
        priors = estimate_priors(vectors, assignments, k=k, epsilon=eps)
        for c in range(k):
            members = vectors[assignments == c]
            if members.shape[0] == 0:
                expected = np.full(s, 1.0 / s)
            else:
                row = members.mean(axis=0) + eps
                expected = row / row.sum()
            assert np.array_equal(priors.priors[c], expected)
        assert np.allclose(priors.priors.sum(axis=1), 1.0, atol=1e-9)


def test_estimate_priors_validation():
    good = np.array([[0.5, 0.5]])
    with pytest.raises(InvariantViolation):
        estimate_priors(np.array([[0.5, 0.6]]), [0], k=1)  # row sum != 1
    with pytest.raises(InputError):
        estimate_priors(good, [0, 1], k=2)  # length mismatch
    with pytest.raises(InputError):
        estimate_priors(good, [0], k=1, epsilon=-1e-9)
    with pytest.raises(InputError):
        estimate_priors(good, [0], k=1, n_species=5)
    with pytest.raises(InputError):
        estimate_priors(np.array([0.5, 0.5]), [0], k=1)  # not 2-D


@pytest.mark.parametrize("assignments,shown", [([0, 2, 1], 2), ([0, -4, 1], -4)])
def test_estimate_priors_rejects_an_assignment_outside_the_clusters(assignments, shown):
    vectors = np.full((3, 2), 0.5)
    with pytest.raises(InputError, match=rf"^assignment {shown} outside clusters 0\.\.1$"):
        estimate_priors(vectors, assignments, k=2)


@pytest.mark.parametrize("shown", [10**20, -10**20])
def test_estimate_priors_reports_an_assignment_past_int64_after_its_other_checks(shown):
    vectors = np.full((2, 3), 1 / 3)
    with pytest.raises(InputError, match=rf"^assignment {shown} outside clusters 0\.\.1$"):
        estimate_priors(vectors, [0, shown], 2)
    with pytest.raises(InputError, match=r"^1 assignments for 2 vectors$"):
        estimate_priors(vectors, [shown], 2)
    with pytest.raises(InputError, match=r"^epsilon must be finite and >= 0"):
        estimate_priors(vectors, [0, shown], 2, epsilon=-1.0)
    with pytest.raises(InputError, match=r"^image probability vectors must be n x S"):
        estimate_priors(vectors[0], [0, shown], 2)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_estimate_priors_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(InputError, match=rf"^epsilon must be finite and >= 0, got {epsilon}$"):
        estimate_priors(np.array([[0.5, 0.5]]), [0], k=1, epsilon=epsilon)


def test_estimate_priors_rejects_an_epsilon_whose_smoothed_mass_overflows():
    vectors = np.full((2, 200), 1 / 200)
    # 200 x 1e307 overflows the row sum, which once zeroed the prior: an InvariantViolation
    with pytest.raises(InputError, match=r"^priors epsilon 1e\+307 is too large for 200 species: "
                                         r"epsilon x 200 must stay below 8\.988e\+307$"):
        estimate_priors(vectors, [0, 0], k=1, epsilon=1e307)
    # just below the bound the prior is uniform to rounding
    priors = estimate_priors(vectors, [0, 0], k=1, epsilon=4e305)
    assert np.allclose(priors.priors, 1 / 200)


def test_cluster_priors_validation():
    with pytest.raises(InvariantViolation):
        ClusterPriors(np.array([[0.5, 0.6]]))
    with pytest.raises(InvariantViolation):
        ClusterPriors(np.array([[1.5, -0.5]]))
    ok = ClusterPriors(np.array([[0.25, 0.75], [0.5, 0.5]]))
    assert ok.k == 2 and ok.n_species == 2
    with pytest.raises(InputError, match=r"^priors must be k x S, got shape \(2,\)$"):
        ClusterPriors(np.array([0.25, 0.75]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_prior_is_rejected_by_priors_and_reweight(bad):
    with pytest.raises(InvariantViolation, match="^priors must be finite$"):
        ClusterPriors(np.array([[bad, 1.0]]))
    with pytest.raises(InvariantViolation, match="^priors must be finite$"):
        reweight([(0, 0.5), (1, 0.5)], np.array([bad, 1.0]))


def test_prior_row_sum_error_gives_the_sum():
    with pytest.raises(InvariantViolation, match=r"^prior sums to 1\.1; expected 1 \+/- 1e-09$"):
        ClusterPriors(np.array([[0.5, 0.5], [0.5, 0.6]]))
    with pytest.raises(InvariantViolation, match=r"^prior sums to 1\.1; expected 1 \+/- 1e-09$"):
        reweight([(0, 1.0)], np.array([0.5, 0.6]))


def test_reweight_rejects_negative_prior():
    with pytest.raises(InvariantViolation, match="^priors must be non-negative$"):
        reweight([(0, 1.0)], np.array([1.5, -0.5]))


def test_reweight_hand_example():
    out = reweight([(0, 0.5), (1, 0.5)], np.array([0.2, 0.4, 0.4]))
    assert [i for i, _ in out] == [0, 1]
    assert out[0][1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert out[1][1] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_reweight_uniform_prior_renormalizes_only():
    probs = [(2, 0.6), (0, 0.25), (4, 0.15)]
    out = reweight(probs, np.full(5, 0.2))
    assert [i for i, _ in out] == [2, 0, 4]
    for (_, before), (_, after) in zip(probs, out):
        assert after == pytest.approx(before, abs=1e-15)


def test_reweight_preserves_order_and_positivity():
    rng = np.random.default_rng(19)
    for _ in range(100):
        s = int(rng.integers(3, 20))
        support = int(rng.integers(1, s + 1))
        idxs = rng.choice(s, size=support, replace=False)
        raw = rng.random(support) + 1e-6
        raw = raw / raw.sum()
        probs = [(int(i), float(p)) for i, p in zip(idxs, raw)]
        prior = rng.random(s) + 1e-6
        prior = prior / prior.sum()
        out = reweight(probs, prior)
        assert [i for i, _ in out] == [i for i, _ in probs]
        assert all(p > 0 for _, p in out)
        assert sum(p for _, p in out) == pytest.approx(1.0, abs=1e-9)


def test_reweight_empty_input():
    assert reweight([], np.array([1.0])) == []


def test_reweight_rejects_bad_prior():
    with pytest.raises(InvariantViolation):
        reweight([(0, 1.0)], np.array([0.5, 0.6]))
    with pytest.raises(InputError):
        reweight([(5, 1.0)], np.array([0.5, 0.5]))
    # an unsmoothed prior can zero out the whole support
    with pytest.raises(InvariantViolation):
        reweight([(0, 1.0)], np.array([0.0, 1.0]))
