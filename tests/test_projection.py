"""2-D projection: preprocessing, pair construction, gradient against a loss oracle, optimizer."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floratile import projection
from floratile.errors import InputError
from floratile.projection import (
    MAX_SQ_NORM,
    EmbeddingMatrix,
    PairSets,
    Projection,
    ProjectorConfig,
    build_pairs,
    fit,
    phase_weights,
    preprocess,
)


def _matrix(data, prefix="img"):
    data = np.asarray(data, dtype=np.float64)
    return EmbeddingMatrix([f"{prefix}{i}" for i in range(data.shape[0])], data)


def test_embedding_matrix_validation():
    with pytest.raises(InputError):
        EmbeddingMatrix(["a"], np.zeros((1, 3)))  # too few rows
    with pytest.raises(InputError):
        EmbeddingMatrix(["a", "a"], np.zeros((2, 3)))  # duplicate ids
    with pytest.raises(InputError):
        EmbeddingMatrix(["a", "b", "c"], np.zeros((2, 3)))  # id/row mismatch
    with pytest.raises(InputError):
        EmbeddingMatrix(["a", "b"], np.array([[0.0, np.nan], [1.0, 2.0]]))
    with pytest.raises(InputError):
        EmbeddingMatrix(["a", "b"], np.zeros(2))  # not 2-D


def test_embedding_matrix_bounds_each_vector_s_squared_norm():
    data = np.zeros((4, 2))
    data[1, 0] = 1e153
    EmbeddingMatrix(list("abcd"), data)
    for value, shown in ((1e154, "1e\\+308"), (1e200, "inf"), (np.inf, "inf"), (np.nan, "nan")):
        data[1, 0] = value
        with pytest.raises(InputError, match=rf"^embedding vector of 'b' has squared norm {shown}; "
                                             r"it must be finite and at most 1\.124e\+307$"):
            EmbeddingMatrix(list("abcd"), data)


def test_squared_distances_stay_finite_at_the_embedding_bound():
    # one row at +m and seven at -m, m just inside the bound: centring takes the first to 1.75 m,
    # and the squared distances and each term of |a|^2 + |b|^2 - 2 a.b stay finite (an overflow
    # warning is an error here); preprocess does not refuse its centred rows
    m = np.sqrt(MAX_SQ_NORM) * (1 - 1e-12)
    data = np.zeros((8, 2))
    data[0, 0], data[1:, 0], data[:, 1] = m, -m, np.arange(8)
    prepped = preprocess(_matrix(data)).data
    assert (prepped[0] ** 2).sum() > 3 * MAX_SQ_NORM
    d2 = projection._block_sq_dists(prepped, (prepped * prepped).sum(axis=1), 0, 8)
    assert np.isfinite(d2[0, 1]) and d2[0, 1] > 3.9 * MAX_SQ_NORM


def test_embedding_matrix_rejects_zero_width():
    with pytest.raises(InputError, match="embedding vectors must not be empty"):
        EmbeddingMatrix([f"i{k}" for k in range(20)], np.zeros((20, 0)))


def test_projector_config_needs_three_phases():
    with pytest.raises(InputError, match=r"^phase_iters must be three non-negative integers$"):
        ProjectorConfig(phase_iters=(100, 100))
    with pytest.raises(InputError, match=r"^n_neighbors must be >= 1$"):
        ProjectorConfig(n_neighbors=0)


def test_projection_validation():
    with pytest.raises(InputError):
        Projection(["a", "b"], np.zeros((2, 3)))
    with pytest.raises(InputError):
        Projection(["a"], np.array([[np.inf, 0.0]]))


def test_preprocess_centers_columns():
    X = _matrix([[1.0, 10.0], [3.0, 30.0], [5.0, 20.0]])
    out = preprocess(X)
    assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-12)
    assert out.data.shape == (3, 2)
    assert out.image_ids == X.image_ids


def test_preprocess_is_idempotent_at_low_dim():
    rng = np.random.default_rng(5)
    X = _matrix(rng.normal(size=(20, 8)))
    once = preprocess(X)
    twice = preprocess(once)
    assert np.allclose(once.data, twice.data, atol=1e-12)


def test_preprocess_reduces_to_100_dims_matching_eigh_oracle():
    rng = np.random.default_rng(17)
    raw = rng.normal(size=(120, 512)) @ np.diag(rng.uniform(0.1, 3.0, 512))
    out = preprocess(_matrix(raw))
    assert out.data.shape == (120, 100)

    centered = raw - raw.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered)
    top = evecs[:, np.argsort(evals)[::-1][:100]]
    oracle = centered @ top
    # the retained subspace is basis-independent: compare Gram matrices
    assert np.allclose(out.data @ out.data.T, oracle @ oracle.T, atol=1e-6)
    # total retained variance equals the top-100 eigenvalue mass
    assert np.sum(out.data**2) == pytest.approx(
        float(np.sort(evals)[::-1][:100].sum()), rel=1e-10
    )


def test_preprocess_keeps_dimension_at_100_or_below():
    rng = np.random.default_rng(2)
    out = preprocess(_matrix(rng.normal(size=(12, 100))))
    assert out.data.shape == (12, 100)


def _brute_force_scaled(data):
    """Dense (sigma, scaled distance matrix) from explicit differences."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    d2 = np.array(
        [[np.sum((data[i] - data[j]) ** 2) for j in range(n)] for i in range(n)]
    )
    dist = np.sqrt(d2)
    masked = dist.copy()
    np.fill_diagonal(masked, np.inf)
    ordered = np.sort(masked, axis=1)[:, : n - 1]
    band = ordered[:, 3 : min(6, n - 1)] if n - 1 >= 4 else ordered
    sig = np.maximum(band.mean(axis=1), 1e-10)
    scaled = d2 / np.outer(sig, sig)
    np.fill_diagonal(scaled, np.inf)
    return sig, scaled


def _brute_force_near_sets(data, n_neighbors):
    _, scaled = _brute_force_scaled(data)
    return [set(np.argsort(row, kind="stable")[:n_neighbors]) for row in scaled]


def test_build_pairs_near_matches_scaled_distance_oracle():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = int(rng.integers(12, 30))
        d = int(rng.integers(2, 6))
        data = rng.normal(size=(n, d))
        cfg = ProjectorConfig(n_neighbors=int(rng.integers(2, 8)))
        pairs = build_pairs(data, cfg, np.random.default_rng(0))
        expected = _brute_force_near_sets(data, cfg.n_neighbors)
        assert pairs.near.shape == (n * cfg.n_neighbors, 2)
        for i in range(n):
            got = set(pairs.near[pairs.near[:, 0] == i, 1].tolist())
            assert got == expected[i]


def test_build_pairs_counts_and_validity():
    rng = np.random.default_rng(7)
    n = 40
    data = rng.normal(size=(n, 4))
    cfg = ProjectorConfig(n_neighbors=10)
    pairs = build_pairs(data, cfg, np.random.default_rng(3))
    assert pairs.near.shape == (n * 10, 2)
    assert pairs.mid_near.shape == (n * 5, 2)  # round(10 * 0.5) per anchor
    assert pairs.further.shape == (n * 20, 2)  # round(10 * 2.0) per anchor
    for arr in (pairs.near, pairs.mid_near, pairs.further):
        assert np.all(arr[:, 0] != arr[:, 1])
        assert np.all((0 <= arr) & (arr < n))
    # further pairs never duplicate the anchor's near set
    near_sets = {i: set(pairs.near[pairs.near[:, 0] == i, 1]) for i in range(n)}
    for i, j in pairs.further:
        assert j not in near_sets[i]


def test_build_pairs_further_caps_at_eligible_pool():
    rng = np.random.default_rng(19)
    data = rng.normal(size=(30, 4))
    cfg = ProjectorConfig(n_neighbors=10)
    pairs = build_pairs(data, cfg, np.random.default_rng(3))
    # only 30 - 1 - 10 = 19 candidates exist outside each anchor's near set
    assert pairs.further.shape == (30 * 19, 2)
    for i in range(30):
        mine = pairs.further[pairs.further[:, 0] == i, 1]
        assert len(set(mine.tolist())) == 19  # sampled without replacement


def test_build_pairs_deterministic_for_fixed_rng():
    rng = np.random.default_rng(13)
    data = rng.normal(size=(25, 5))
    cfg = ProjectorConfig(n_neighbors=5)
    a = build_pairs(data, cfg, np.random.default_rng(77))
    b = build_pairs(data, cfg, np.random.default_rng(77))
    assert np.array_equal(a.near, b.near)
    assert np.array_equal(a.mid_near, b.mid_near)
    assert np.array_equal(a.further, b.further)


def test_build_pairs_rejects_too_few_points():
    data = np.zeros((5, 2))
    with pytest.raises(InputError):
        build_pairs(data, ProjectorConfig(n_neighbors=5), np.random.default_rng(0))


def _pairsets(near=(), mid=(), far=()):
    return PairSets(
        near=np.asarray(list(near), dtype=np.int64).reshape(-1, 2),
        mid_near=np.asarray(list(mid), dtype=np.int64).reshape(-1, 2),
        further=np.asarray(list(far), dtype=np.int64).reshape(-1, 2),
    )


def test_loss_coincident_near_pair():
    Y, pairs, w = np.zeros((2, 2)), _pairsets(near=[(0, 1)]), (1.0, 0.0, 0.0)
    loss, _ = _reference_loss_and_grad(Y, pairs, w)
    assert loss == pytest.approx(1.0 / 11.0, abs=1e-15)
    assert np.allclose(projection._objective(Y, pairs, w), 0.0)


def test_loss_far_pair_hand_value():
    Y = np.array([[0.0, 0.0], [1.0, 0.0]])
    loss, _ = _reference_loss_and_grad(Y, _pairsets(far=[(0, 1)]), (0.0, 0.0, 1.0))
    # squared distance 1 -> d~ = 2 -> 1 / (1 + 2)
    assert loss == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_loss_empty_pairs_is_zero():
    Y, pairs, w = np.random.default_rng(0).normal(size=(4, 2)), _pairsets(), (2.0, 3.0, 1.0)
    loss, _ = _reference_loss_and_grad(Y, pairs, w)
    assert loss == 0.0
    assert np.allclose(projection._objective(Y, pairs, w), 0.0)


def test_gradient_matches_finite_differences_small():
    rng = np.random.default_rng(55)
    Y = rng.normal(size=(8, 2))
    pairs = _pairsets(
        near=[(0, 1), (2, 3), (4, 5)],
        mid=[(0, 4), (1, 6)],
        far=[(0, 7), (2, 6), (3, 5)],
    )
    w = (2.0, 500.0, 1.0)
    grad = projection._objective(Y, pairs, w)
    h = 1e-6
    for i in range(8):
        for c in range(2):
            Yp, Ym = Y.copy(), Y.copy()
            Yp[i, c] += h
            Ym[i, c] -= h
            lp, _ = _reference_loss_and_grad(Yp, pairs, w)
            lm, _ = _reference_loss_and_grad(Ym, pairs, w)
            fd = (lp - lm) / (2 * h)
            assert grad[i, c] == pytest.approx(fd, abs=1e-5)


def test_phase_weights_schedule():
    cfg = ProjectorConfig(phase_iters=(100, 100, 250))
    assert phase_weights(0, cfg) == (2.0, 1000.0, 1.0)
    w = phase_weights(50, cfg)
    assert w[0] == 2.0 and w[2] == 1.0
    assert w[1] == pytest.approx(0.5 * 1000.0 + 0.5 * 3.0)
    assert phase_weights(100, cfg) == (2.0, 3.0, 1.0)
    assert phase_weights(199, cfg) == (2.0, 3.0, 1.0)
    assert phase_weights(200, cfg) == (1.0, 0.0, 1.0)
    assert phase_weights(449, cfg) == (1.0, 0.0, 1.0)


def test_fit_zero_iterations_returns_pca_init():
    rng = np.random.default_rng(21)
    X = _matrix(rng.normal(size=(20, 6)))
    cfg = ProjectorConfig(n_neighbors=4, phase_iters=(0, 0, 0), seed=3)
    proj = fit(X, cfg)
    centered = X.data - X.data.mean(axis=0)
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    assert np.allclose(proj.points, u[:, :2] * s[:2] * 0.01, atol=1e-12)


def test_fit_is_deterministic():
    rng = np.random.default_rng(33)
    X = _matrix(rng.normal(size=(24, 5)))
    cfg = ProjectorConfig(n_neighbors=5, phase_iters=(20, 20, 40), seed=9)
    a = fit(X, cfg)
    b = fit(X, cfg)
    assert np.array_equal(a.points, b.points)
    assert a.image_ids == b.image_ids


def test_fit_reduces_final_phase_loss():
    rng = np.random.default_rng(40)
    centers = np.array([[0.0] * 6, [25.0] * 6])
    data = np.vstack([centers[i % 2] + rng.normal(size=6) for i in range(30)])
    X = _matrix(data)
    cfg = ProjectorConfig(n_neighbors=5, phase_iters=(30, 30, 60), seed=12)
    proj = fit(X, cfg)

    prepped = preprocess(X)
    pair_rng = np.random.default_rng(cfg.seed)
    pairs = build_pairs(prepped.data, cfg, pair_rng)
    centered = prepped.data
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    y0 = u[:, :2] * s[:2] * 0.01
    w = (1.0, 0.0, 1.0)
    loss0, _ = _reference_loss_and_grad(y0, pairs, w)
    loss1, _ = _reference_loss_and_grad(proj.points, pairs, w)
    assert loss1 < loss0


def test_fit_separates_two_far_blobs():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(15, 8)) * 0.5
    b = rng.normal(size=(15, 8)) * 0.5 + 50.0
    X = _matrix(np.vstack([a, b]))
    cfg = ProjectorConfig(n_neighbors=5, phase_iters=(50, 50, 100), seed=1)
    pts = fit(X, cfg).points
    da = pts[:15].mean(axis=0)
    db = pts[15:].mean(axis=0)
    between = np.linalg.norm(da - db)
    spread_a = np.linalg.norm(pts[:15] - da, axis=1).max()
    spread_b = np.linalg.norm(pts[15:] - db, axis=1).max()
    assert between > 2.0 * max(spread_a, spread_b)


def _neighbor_preservation(data, pts, k=5):
    n = data.shape[0]
    keep = 0
    for i in range(n):
        d_hi = np.sum((data - data[i]) ** 2, axis=1)
        d_lo = np.sum((pts - pts[i]) ** 2, axis=1)
        d_hi[i] = d_lo[i] = np.inf
        hi = set(np.argsort(d_hi)[:k].tolist())
        lo = set(np.argsort(d_lo)[:k].tolist())
        keep += len(hi & lo) / k
    return keep / n


def test_fit_preserves_ring_neighborhoods_across_seeds():
    angles = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)
    data = np.stack([np.cos(angles), np.sin(angles)], axis=1) * 10.0
    X = _matrix(data)
    for seed in (1, 2):
        cfg = ProjectorConfig(n_neighbors=5, phase_iters=(40, 40, 80), seed=seed)
        pts = fit(X, cfg).points
        assert _neighbor_preservation(data, pts) >= 0.6


# --- blocked kNN, pair sampling and memory --------------------------------


def _ragged_block_cases():
    lattice = np.array([(x, y) for x in range(6) for y in range(6)], dtype=np.float64)
    small = np.array([(x, y) for x in range(6) for y in range(5)], dtype=np.float64)
    # repeated points tie at distance 0; seven copies of one point put its
    # 4th-6th neighbors at distance 0, so its sigma is the floor
    duplicates = np.vstack([small, small[[0, 0, 7, 7, 13]], np.repeat(small[[20]], 6, axis=0)])
    random = np.random.default_rng(71).normal(size=(53, 4))
    return {"lattice": lattice, "duplicates": duplicates, "random": random}


@pytest.mark.parametrize("case", ["lattice", "duplicates", "random"])
def test_blocked_knn_matches_brute_force_with_ragged_blocks(monkeypatch, case):
    monkeypatch.setattr(projection, "_KNN_BLOCK", 7)
    data = _ragged_block_cases()[case]
    n = data.shape[0]
    assert 30 <= n <= 60 and n % 7 != 0
    sig, scaled = _brute_force_scaled(data)
    got_sig = projection._local_scales(data, (data * data).sum(axis=1))
    for k in (1, 4, 10):
        pairs = build_pairs(data, ProjectorConfig(n_neighbors=k), np.random.default_rng(0))
        near = pairs.near[:, 1].reshape(n, k)
        assert np.array_equal(pairs.near[:, 0], np.repeat(np.arange(n), k))
        if case == "random":
            assert np.allclose(got_sig, sig, rtol=1e-12, atol=0.0)
            expected = _brute_force_near_sets(data, k)
            assert [set(row.tolist()) for row in near] == expected
        else:
            # integer coordinates make every distance exact, so ties are
            # real and the (scaled distance, index) order is pinned
            assert np.array_equal(got_sig, sig)
            expected = np.argsort(scaled, axis=1, kind="stable")[:, :k]
            assert np.array_equal(near, expected)


def test_build_pairs_memory_stays_below_one_dense_matrix():
    n = 3000
    data = np.random.default_rng(4).normal(size=(n, 8))
    tracemalloc.start()
    try:
        build_pairs(data, ProjectorConfig(), np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8  # one dense n x n float64 matrix: 72 MB


@pytest.mark.parametrize("case", ["lattice", "duplicates", "random"])
def test_every_pair_set_is_the_same_across_ragged_blocks(monkeypatch, case):
    data = _ragged_block_cases()[case]
    n = data.shape[0]
    for k in (1, 4, 10):
        cfg = ProjectorConfig(n_neighbors=k)
        got = {}
        for block in (7, n):
            monkeypatch.setattr(projection, "_KNN_BLOCK", block)
            got[block] = build_pairs(data, cfg, np.random.default_rng(k))
        for name in ("near", "mid_near", "further"):
            assert np.array_equal(getattr(got[7], name), getattr(got[n], name)), (k, name)


def test_build_pairs_memory_is_set_by_one_row_block():
    n, dim = 2000, 64
    data = np.random.default_rng(4).normal(size=(n, dim))
    tracemalloc.start()
    try:
        pairs = build_pairs(data, ProjectorConfig(), np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = n * projection._KNN_BLOCK * 8  # one row block of float64 distances
    out = sum(p.nbytes for p in (pairs.near, pairs.mid_near, pairs.further))
    # 5.3 MB here: the blocked passes peak at 3.7 MB, while whole-set
    # mid-near arrays or 256-row kNN blocks reach 17.8 MB
    assert peak < 3 * block + 2 * out


@pytest.mark.parametrize("k", range(1, 7))
def test_build_pairs_smallest_inputs(k):
    rng = np.random.default_rng(100 + k)
    n_mn = int(np.floor(k * 0.5 + 0.5))
    n_fp = int(np.floor(k * 2.0 + 0.5))
    for n in range(k + 1, 8):
        data = rng.normal(size=(n, 3))
        cfg = ProjectorConfig(n_neighbors=k)
        pairs = build_pairs(data, cfg, np.random.default_rng(n))
        assert pairs.near.shape == (n * k, 2)
        assert pairs.mid_near.shape == (n * n_mn, 2)
        assert pairs.further.shape == (n * min(n_fp, n - 1 - k), 2)
        assert np.array_equal(pairs.mid_near[:, 0], np.repeat(np.arange(n), n_mn))
        # with n <= 7 all n - 1 other points are drawn; only if they are
        # distinct is the pick always the 2nd closest of them
        for i, j in pairs.mid_near:
            others = [o for o in range(n) if o != i]
            d2 = [np.sum((data[o] - data[i]) ** 2) for o in others]
            ranked = [others[r] for r in np.argsort(d2, kind="stable")]
            assert j != i
            assert j == ranked[1 if n - 1 >= 2 else 0]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), n_avoid=st.integers(1, 12), size=st.integers(0, 11),
       seed=st.integers(0, 2**32 - 1))
def test_distinct_draws_avoid_listed_points_and_repeats(n, n_avoid, size, seed):
    n_avoid = min(n_avoid, n)
    size = min(size, n - n_avoid)
    rng = np.random.default_rng(seed)
    avoid = np.array([rng.permutation(n)[:n_avoid] for _ in range(5)], dtype=np.int64)
    drawn = projection._distinct_draws(rng, n, avoid, size)
    assert drawn.shape == (5, size)
    for row, banned in zip(drawn, avoid):
        assert len(set(row.tolist())) == size
        assert not set(row.tolist()) & set(banned.tolist())
        assert np.all((0 <= row) & (row < n))


# --- gradient against the reference scatter -------------------------------
# The projector never sums the loss; ``_reference_loss_and_grad`` is the one
# loss the tests and acceptance criterion 5 take, pinned to hand values above.


def _reference_pair_term(Y, pairs, denom, attract, weight, grad):
    """Accumulate one loss term and its exact gradient. Returns the loss."""
    if pairs.shape[0] == 0 or weight == 0.0:
        return 0.0
    I, J = pairs[:, 0], pairs[:, 1]
    diff = Y[I] - Y[J]
    dt = (diff * diff).sum(axis=1) + 1.0
    if attract:
        loss = weight * (dt / (denom + dt)).sum()
        coef = weight * 2.0 * denom / (denom + dt) ** 2
    else:
        loss = weight * (1.0 / (1.0 + dt)).sum()
        coef = -weight * 2.0 / (1.0 + dt) ** 2
    contrib = coef[:, None] * diff
    np.add.at(grad, I, contrib)
    np.add.at(grad, J, -contrib)
    return float(loss)


def _reference_loss_and_grad(Y, pairs, w):
    """The per-term np.add.at scatter the bincount gradient replaced."""
    Y = np.asarray(Y, dtype=np.float64)
    w_nb, w_mn, w_fp = w
    grad = np.zeros_like(Y)
    loss = 0.0
    loss += _reference_pair_term(Y, pairs.near, 10.0, True, w_nb, grad)
    loss += _reference_pair_term(Y, pairs.mid_near, 10000.0, True, w_mn, grad)
    loss += _reference_pair_term(Y, pairs.further, 1.0, False, w_fp, grad)
    return loss, grad


def _assert_matches_reference(Y, pairs, w):
    grad = projection._objective(Y, pairs, w)
    _, ref_grad = _reference_loss_and_grad(Y, pairs, w)
    scale = np.abs(ref_grad).max() if ref_grad.size else 0.0
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12 * scale)


_PHASE_WEIGHTS = [phase_weights(t, ProjectorConfig()) for t in (0, 50, 150, 300)]


def test_gradient_matches_reference_scatter():
    rng = np.random.default_rng(61)
    n = 12
    Y = rng.normal(size=(n, 2))

    def random_pairs(m):
        i = rng.integers(n, size=m)
        return np.stack([i, (i + rng.integers(1, n, size=m)) % n], axis=1)

    repeated = [(0, 1)] * 5 + [(1, 0)] * 3 + [(2, 3)] * 2
    hub = [(0, j) for j in range(1, n)] + [(j, 0) for j in range(1, n)]
    cases = [
        _pairsets(near=repeated, mid=hub, far=random_pairs(40)),
        _pairsets(near=hub, far=repeated),
        _pairsets(mid=random_pairs(30)),
        _pairsets(),
        _pairsets(near=random_pairs(50), mid=random_pairs(25), far=random_pairs(100)),
    ]
    assert (2.0, 1000.0, 1.0) in _PHASE_WEIGHTS and (1.0, 0.0, 1.0) in _PHASE_WEIGHTS
    for pairs in cases:
        for w in _PHASE_WEIGHTS:
            _assert_matches_reference(Y, pairs, w)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gradient_matches_reference_property(data):
    n = data.draw(st.integers(1, 8), label="n")
    pair_lists = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30)
    near, mid, far = (data.draw(pair_lists, label=name) for name in ("near", "mid", "far"))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    w = data.draw(st.one_of(st.sampled_from(_PHASE_WEIGHTS), st.tuples(weight, weight, weight)),
                  label="w")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    Y = np.random.default_rng(seed).normal(size=(n, 2)) * 3.0
    _assert_matches_reference(Y, _pairsets(near=near, mid=mid, far=far), w)


def test_cached_pair_index_matches_reference_across_layouts_and_phases():
    """One PairSets serves every call, as in ``fit``: the index cached on it
    and its workspace must not carry one call's state into the next, and a
    point with no pair in a term must get no segment sum from it."""
    rng = np.random.default_rng(62)
    n = 10
    # point 4 and the highest index are in no pair; point 7 only ever as J,
    # point 2 only ever as I, so each endpoint has empty runs in mid-order and at the end
    near = [(0, 1), (1, 0), (2, 3), (3, 7), (5, 6), (0, 7)]
    mid = [(2, 8), (8, 1), (6, 5)]
    far = [(2, 0), (5, 7), (8, 3), (1, 6), (3, 5)]
    cases = [_pairsets(near=near, mid=mid, far=far), _pairsets(near=near, far=far), _pairsets(mid=mid)]
    # phase 3 drops the mid-near term, so the active terms shrink and grow again
    schedule = [phase_weights(t, ProjectorConfig()) for t in (300, 0, 50, 150, 320, 99)]
    assert [w[1] == 0.0 for w in schedule] == [True, False, False, False, True, False]
    for pairs in cases:
        for w in schedule + [(0.0, 2.0, 0.0), (3.0, 0.0, 0.0), (2.0, 3.0, 1.0)]:
            for _ in range(2):
                _assert_matches_reference(rng.normal(size=(n, 2)) * 3.0, pairs, w)


def test_pair_index_rejects_pairs_outside_the_layout():
    with pytest.raises(InputError, match=r"pair indices must lie in \[0, 3\)"):
        projection._objective(np.zeros((3, 2)), _pairsets(near=[(0, 3)]), (1.0, 0.0, 0.0))
    with pytest.raises(InputError):
        projection._objective(np.zeros((3, 2)), _pairsets(far=[(-1, 2)]), (0.0, 0.0, 1.0))
    # the cached index assumes the pairs never change
    pairs = _pairsets(near=[(0, 1)])
    with pytest.raises(ValueError):
        pairs.near[0, 1] = 2
    with pytest.raises(AttributeError):
        pairs.near = np.array([[0, 2]])


def test_fit_matches_adam_loop_on_objective():
    """fit's layout must equal, bit for bit, the Adam steps of the projector's
    constants driven by ``_objective``'s gradient."""
    X = _matrix(np.random.default_rng(5).normal(size=(80, 12)))
    cfg = ProjectorConfig(phase_iters=(20, 20, 30), seed=3)
    prepped = preprocess(X)
    rng = np.random.default_rng(cfg.seed)
    pairs = build_pairs(prepped.data, cfg, rng)
    Y = projection._initial_layout(prepped.data, rng)
    b1, b2 = projection._ADAM_BETA1, projection._ADAM_BETA2
    m, v = np.zeros_like(Y), np.zeros_like(Y)
    for t in range(sum(cfg.phase_iters)):
        grad = projection._objective(Y, pairs, phase_weights(t, cfg))
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1 ** (t + 1))
        v_hat = v / (1.0 - b2 ** (t + 1))
        Y = Y - projection._LEARNING_RATE * m_hat / (np.sqrt(v_hat) + projection._ADAM_EPS)
    assert np.array_equal(fit(X, cfg).points, Y)


# --- microbenchmarks at the priors workload's size ------------------------


@pytest.fixture(scope="module")
def priors_sized():
    """600 points in 64 dimensions and their 21k pairs (10 + 5 + 20 per point)."""
    data = np.random.default_rng(600).normal(size=(600, 64))
    cfg = ProjectorConfig()
    pairs = build_pairs(data, cfg, np.random.default_rng(cfg.seed))
    assert sum(len(p) for p in (pairs.near, pairs.mid_near, pairs.further)) == 21000
    return data, cfg, pairs


def test_bench_objective(benchmark, priors_sized):
    """One optimizer step's gradient, the call ``fit`` repeats 450 times."""
    _, _, pairs = priors_sized
    Y = np.random.default_rng(1).normal(size=(600, 2))
    grad = benchmark.pedantic(projection._objective, args=(Y, pairs, (2.0, 3.0, 1.0)),
                              rounds=20, iterations=5)
    assert grad.shape == (600, 2) and np.all(np.isfinite(grad))


def test_objective_allocates_nothing_pair_sized_after_the_first_call(priors_sized):
    """The first call builds the pair index and its workspace; later steps
    reuse them, so no step allocates an array as long as the pair list."""
    _, _, pairs = priors_sized
    Y = np.random.default_rng(2).normal(size=(600, 2))
    projection._objective(Y, pairs, (2.0, 3.0, 1.0))
    tracemalloc.start()
    try:
        for t in range(12):
            grad = projection._objective(Y + t, pairs, (2.0, 3.0 + t, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(grad))
    assert peak < 8 * 21000  # one float64 value per pair


def test_bench_fit(benchmark, priors_sized):
    """The whole projection at the priors workload's size: preprocessing,
    pair building and the 450 optimizer steps."""
    data, cfg, _ = priors_sized
    X = _matrix(data)
    proj = benchmark.pedantic(fit, args=(X, cfg), rounds=3, iterations=1)
    assert proj.points.shape == (600, 2) and np.all(np.isfinite(proj.points))


def test_bench_build_pairs(benchmark, priors_sized):
    data, cfg, _ = priors_sized
    pairs = benchmark.pedantic(
        build_pairs, setup=lambda: ((data, cfg, np.random.default_rng(cfg.seed)), {}), rounds=5
    )
    assert pairs.near.shape == (6000, 2)
