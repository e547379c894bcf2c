"""Pairwise-controlled 2-D projection of image embeddings, from scratch.

The projector builds three pair sets over the input points:

* near pairs: per anchor, the nearest neighbors under a locally scaled
  squared distance d2/(sigma_i * sigma_j), where sigma is the mean distance
  to the anchor's 4th-6th nearest neighbors;
* mid-near pairs: per anchor, sample six distinct other points and keep the
  second closest (captures global structure);
* further pairs: per anchor, uniform samples outside the near set
  (repulsion).

The 2-D layout minimizes, with dt = ||y_i - y_j||^2 + 1,

    w_nb * dt/(10 + dt)  +  w_mn * dt/(10000 + dt)  +  w_fp * 1/(1 + dt)

summed over the respective pair sets, using adaptive-moment gradient
descent under a three-phase weight schedule: the mid-near weight anneals
1000 -> 3 in phase one, holds at 3 in phase two, and drops to 0 in phase
three while the near weight relaxes from 2 to 1.

Each optimizer step runs on a pair index cached on the ``PairSets``, built
once per set of active terms: phases one and two use all three pair sets,
phase three drops the mid-near pairs. The index holds the concatenated
pair endpoints, each term's segment of them, each endpoint's stable sort
order with the start of every point's run in it, and a preallocated
workspace, so a step allocates nothing pair-sized. A point's gradient is
the segment sum of its runs (``np.add.reduceat``), which adds its pairs'
contributions in another order than the earlier bincount scatter did: the
layout can differ from that scatter's in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .batch import encodable
from .errors import InputError

_SIGMA_FLOOR = 1e-10
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-7
_PCA_INIT_SCALE = 0.01
_RANDOM_INIT_SCALE = 1e-4
_PCA_TARGET_DIM = 100
_KNN_BLOCK = 64  # rows per distance block in the kNN and mid-near passes
# PaCMAP's defaults: mid-near and further pairs per near pair, and the step size
_MN_RATIO = 0.5
_FP_RATIO = 2.0
_LEARNING_RATE = 1.0


@dataclass
class EmbeddingMatrix:
    """Per-image embedding rows with aligned image identifiers."""

    image_ids: List[str]
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise InputError(f"embedding data must be 2-D, got shape {self.data.shape}")
        if self.data.shape[1] == 0:
            raise InputError("embedding vectors must not be empty")
        n = self.data.shape[0]
        if n < 2:
            raise InputError("need at least two embeddings")
        if len(self.image_ids) != n:
            raise InputError(f"{len(self.image_ids)} image ids for {n} embedding rows")
        if not all(isinstance(i, str) and i for i in self.image_ids):
            raise InputError("image ids must be non-empty strings")
        bad = next((i for i in self.image_ids if not encodable(i)), None)
        if bad is not None:
            raise InputError(f"image id {bad!r} is not encodable as UTF-8")
        if len(set(self.image_ids)) != n:
            raise InputError("image ids must be unique")
        if not np.all(np.isfinite(self.data)):
            raise InputError("embedding data contains non-finite values")


@dataclass(frozen=True)
class PairSets:
    """Index pairs (i, j) for the three loss terms, shape (m, 2) each.

    Frozen, with read-only arrays: ``_objective`` caches the pair index it
    builds from them in ``_index``.
    """

    near: np.ndarray
    mid_near: np.ndarray
    further: np.ndarray
    _index: Optional[_PairIndex] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("near", "mid_near", "further"):
            arr = np.asarray(getattr(self, name), dtype=np.int64).reshape(-1, 2)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ProjectorConfig:
    n_neighbors: int = 10
    phase_iters: Tuple[int, int, int] = (100, 100, 250)
    seed: int = 42

    def __post_init__(self):
        if self.n_neighbors < 1:
            raise InputError("n_neighbors must be >= 1")
        if len(self.phase_iters) != 3 or any(it < 0 for it in self.phase_iters):
            raise InputError("phase_iters must be three non-negative integers")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Projection:
    image_ids: List[str]
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.shape != (len(self.image_ids), 2):
            raise InputError(f"projection points must be n x 2, got {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise InputError("projection contains non-finite values")


def preprocess(X: EmbeddingMatrix) -> EmbeddingMatrix:
    """Mean-center columns; above 100 dimensions, keep the top-100 PCs."""
    data = X.data - X.data.mean(axis=0)
    if data.shape[1] > _PCA_TARGET_DIM:
        # economy SVD of the centered matrix == eigendecomposition of the covariance
        _, _, vt = np.linalg.svd(data, full_matrices=False)
        data = data @ vt[:_PCA_TARGET_DIM].T
    return EmbeddingMatrix(list(X.image_ids), data)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _block_sq_dists(data: np.ndarray, norms: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Squared distances from rows lo:hi to every row; a row's distance to
    itself is inf, so it is never its own neighbor."""
    d2 = norms[lo:hi, None] + norms[None, :] - 2.0 * (data[lo:hi] @ data.T)
    np.maximum(d2, 0.0, out=d2)
    d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
    return d2


def _row_blocks(n: int):
    for lo in range(0, n, _KNN_BLOCK):
        yield lo, min(lo + _KNN_BLOCK, n)


def _local_scales(data: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """sigma_i = mean distance to the 4th-6th nearest neighbors, floored.

    With fewer than four other points the mean over all available
    neighbors is used instead.
    """
    n = data.shape[0]
    band = range(3 if n - 1 >= 4 else 0, min(6, n - 1))
    sig = np.empty(n)
    for lo, hi in _row_blocks(n):
        nearest = np.partition(_block_sq_dists(data, norms, lo, hi), list(band), axis=1)
        sig[lo:hi] = np.sqrt(nearest[:, band.start : band.stop]).mean(axis=1)
    return np.maximum(sig, _SIGMA_FLOOR)


def _near_neighbors(data: np.ndarray, k: int) -> np.ndarray:
    """(n, k) nearest neighbors under d2 / (sigma_i * sigma_j), per row
    ordered by (scaled distance, index)."""
    n = data.shape[0]
    norms = (data * data).sum(axis=1)
    sig = _local_scales(data, norms)
    near = np.empty((n, k), dtype=np.int64)
    for lo, hi in _row_blocks(n):
        scaled = _block_sq_dists(data, norms, lo, hi) / (sig[lo:hi, None] * sig[None, :])
        kth = np.partition(scaled, k - 1, axis=1)[:, k - 1 : k].copy()  # frees the partitioned block
        below = scaled < kth
        tied = scaled == kth
        # of the entries tied with the k-th value, keep the lowest indices
        room = k - below.sum(axis=1, keepdims=True)
        cols = np.nonzero(below | (tied & (np.cumsum(tied, axis=1) <= room)))[1].reshape(-1, k)
        order = np.argsort(np.take_along_axis(scaled, cols, axis=1), axis=1, kind="stable")
        near[lo:hi] = np.take_along_axis(cols, order, axis=1)
    return near


def _distinct_draws(rng: np.random.Generator, n: int, avoid: np.ndarray, size: int) -> np.ndarray:
    """Per row of ``avoid``, ``size`` distinct points of range(n) outside that
    row; entries that clash are redrawn.

    The caller guarantees each row leaves at least ``size`` points eligible.
    """
    first = avoid.shape[1]
    seen = np.empty((avoid.shape[0], first + size), dtype=np.int64)
    seen[:, :first] = avoid
    for c in range(first, first + size):
        todo = np.arange(seen.shape[0])
        while todo.size:
            draw = rng.integers(n, size=todo.size)
            seen[todo, c] = draw
            todo = todo[(seen[todo, :c] == draw[:, None]).any(axis=1)]
    return seen[:, first:]


def build_pairs(data: np.ndarray, cfg: ProjectorConfig, rng: np.random.Generator) -> PairSets:
    """Construct near, mid-near, and further pairs for the loss.

    The kNN and mid-near distances are computed in blocks of _KNN_BLOCK
    rows, so memory is O(n * block) plus the pairs, never a dense n x n
    matrix (``test_build_pairs_memory_is_set_by_one_row_block``); time is
    still O(n^2).
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if n <= cfg.n_neighbors:
        raise InputError(f"need more than n_neighbors={cfg.n_neighbors} points, got {n}")

    k = cfg.n_neighbors
    # mid-near: per pair, the 2nd closest of min(6, n - 1) sampled points
    n_mn, sample = _round_half_up(k * _MN_RATIO), min(6, n - 1)
    near_idx = _near_neighbors(data, k)
    anchors = np.arange(n)

    drawn = _distinct_draws(rng, n, np.repeat(anchors, n_mn)[:, None], sample)
    drawn = drawn.reshape(n, n_mn, sample)
    d2 = np.empty(drawn.shape)
    for lo, hi in _row_blocks(n):
        for c in range(sample):
            diff = data[drawn[lo:hi, :, c]] - data[lo:hi, None, :]
            diff *= diff
            d2[lo:hi, :, c] = diff.sum(axis=2)
    rank = np.argsort(d2, axis=2, kind="stable")[:, :, 1 if sample >= 2 else 0]
    mid = np.take_along_axis(drawn, rank[:, :, None], axis=2).reshape(n, n_mn)
    del drawn, d2, rank  # freed before the further draws

    # further: distinct points outside the anchor's near set, capped at the pool
    n_fp = min(_round_half_up(k * _FP_RATIO), n - 1 - k)
    far = _distinct_draws(rng, n, np.column_stack([anchors, near_idx]), n_fp)

    def pairs(cols: np.ndarray) -> np.ndarray:
        return np.stack([np.repeat(anchors, cols.shape[1]), cols.reshape(-1)], axis=1)

    return PairSets(near=pairs(near_idx), mid_near=pairs(mid), further=pairs(far))


# (pair-set field, denominator) per loss term, in weight order; denominator
# None marks the repulsive term
_TERMS = (("near", 10.0), ("mid_near", 10000.0), ("further", None))


class _Endpoint:
    """One endpoint's segment sums: the pairs in stable order of that endpoint,
    and where each point's run of pairs starts in that order.

    Only the points with at least one pair get a start (``points``), so the
    starts strictly increase and each ``np.add.reduceat`` segment is one
    point's whole run: an empty segment would return its first element, not
    0, and a start at the end of the array would be out of range.
    """

    def __init__(self, ends: np.ndarray, n: int):
        self.order = np.argsort(ends, kind="stable")
        counts = np.bincount(ends, minlength=n)
        self.points = np.flatnonzero(counts)
        self.starts = (np.cumsum(counts) - counts)[self.points]


class _PairIndex:
    """The pairs of one set of active terms, laid out for the optimizer step.

    ``I`` and ``J`` concatenate the active terms' endpoints, and ``segments``
    holds each term's (lo, hi, term position) within them. The workspace
    arrays are pair-sized and reused by every step.
    """

    def __init__(self, pairs: PairSets, n: int, active: Tuple[bool, bool, bool]):
        sets = [getattr(pairs, name) for (name, _), on in zip(_TERMS, active) if on]
        self.key = (n, active)
        self.I = np.concatenate([p[:, 0] for p in sets])
        self.J = np.concatenate([p[:, 1] for p in sets])
        m = self.I.size
        if min(self.I.min(), self.J.min()) < 0 or max(self.I.max(), self.J.max()) >= n:
            raise InputError(f"pair indices must lie in [0, {n})")
        bounds = np.cumsum([0] + [p.shape[0] for p in sets])
        positions = [t for t, on in enumerate(active) if on]
        self.segments = list(zip(bounds[:-1], bounds[1:], positions))
        self.ends = (_Endpoint(self.I, n), _Endpoint(self.J, n))
        self.diff = np.empty(m, dtype=np.complex128)
        self.gathered = np.empty(m, dtype=np.complex128)
        self.scale = np.zeros(m, dtype=np.complex128)  # coefficients; imaginary part stays 0
        self.dt = np.empty(m)
        self.sums = np.empty(n, dtype=np.complex128)


def _objective(Y: np.ndarray, pairs: PairSets, w: Tuple[float, float, float]) -> np.ndarray:
    """Gradient of the three-term pairwise objective.

    A term is active when it has pairs and a nonzero weight. The first call
    for each set of active terms builds the ``_PairIndex`` cached on
    ``pairs``; later calls allocate nothing pair-sized. Each 2-D point is
    one complex128 value, so every gather and arithmetic pass covers both
    axes. Each endpoint's sum is one ``np.take`` into the workspace plus one
    ``np.add.reduceat`` over that endpoint's runs, which adds a point's
    contributions in another order than the bincount scatter it replaced:
    the gradient can differ from that scatter's in the last bits. The
    optimizer steps on the gradient alone, so the loss itself is never
    summed.
    """
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    n = Y.shape[0]
    grad = np.zeros_like(Y)
    active = tuple(
        getattr(pairs, name).shape[0] > 0 and weight != 0.0 for (name, _), weight in zip(_TERMS, w)
    )
    if not any(active):
        return grad
    if pairs._index is None or pairs._index.key != (n, active):
        object.__setattr__(pairs, "_index", None)  # frees the old workspace before the new one is made
        object.__setattr__(pairs, "_index", _PairIndex(pairs, n, active))
    index = pairs._index
    z, g = Y.view(np.complex128)[:, 0], grad.view(np.complex128)[:, 0]
    diff, gathered, dt = index.diff, index.gathered, index.dt
    # mode="clip" skips the buffered bounds check; _PairIndex checked the indices
    np.take(z, index.I, out=diff, mode="clip")
    np.take(z, index.J, out=gathered, mode="clip")
    diff -= gathered
    squares = gathered.view(np.float64)
    np.square(diff.view(np.float64), out=squares)
    np.add(squares[0::2], squares[1::2], out=dt)
    dt += 1.0

    # squares is spent; its front is the contiguous scratch for the coefficients
    for lo, hi, term in index.segments:
        weight, denom = w[term], _TERMS[term][1]
        tmp = squares[lo:hi]
        if denom is None:
            np.add(dt[lo:hi], 1.0, out=tmp)
            numerator = -weight * 2.0
        else:
            np.add(dt[lo:hi], denom, out=tmp)
            numerator = weight * 2.0 * denom
        np.square(tmp, out=tmp)
        np.divide(numerator, tmp, out=index.scale.real[lo:hi])
    diff *= index.scale

    for end, add in zip(index.ends, (np.add, np.subtract)):
        np.take(diff, end.order, out=gathered, mode="clip")
        sums = np.add.reduceat(gathered, end.starts, out=index.sums[: end.starts.size])
        g[end.points] = add(g[end.points], sums)
    return grad


def phase_weights(t: int, cfg: ProjectorConfig) -> Tuple[float, float, float]:
    """(near, mid-near, further) weights at iteration t of the schedule."""
    p1, p2, _ = cfg.phase_iters
    if t < p1:
        frac = t / p1
        return 2.0, 1000.0 * (1.0 - frac) + 3.0 * frac, 1.0
    if t < p1 + p2:
        return 2.0, 3.0, 1.0
    return 1.0, 0.0, 1.0


def _initial_layout(data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """First two principal components scaled down; Gaussian fallback when
    the data has fewer than two directions of variance."""
    n = data.shape[0]
    centered = data - data.mean(axis=0)
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    tol = max(s[0] if s.size else 0.0, 1.0) * 1e-12
    if s.size >= 2 and s[1] > tol:
        return u[:, :2] * s[:2] * _PCA_INIT_SCALE
    return rng.normal(size=(n, 2)) * _RANDOM_INIT_SCALE


def fit(X: EmbeddingMatrix, cfg: ProjectorConfig = ProjectorConfig()) -> Projection:
    """Project embeddings to 2-D.

    Deterministic for a fixed seed in single-threaded execution. Runs
    preprocessing, pair construction, and sum(phase_iters) optimizer steps.
    """
    prepped = preprocess(X)
    rng = np.random.default_rng(cfg.seed)
    pairs = build_pairs(prepped.data, cfg, rng)
    Y = _initial_layout(prepped.data, rng)

    m = np.zeros_like(Y)
    v = np.zeros_like(Y)
    total = sum(cfg.phase_iters)
    for t in range(total):
        w = phase_weights(t, cfg)
        grad = _objective(Y, pairs, w)
        m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * grad
        v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - _ADAM_BETA1 ** (t + 1))
        v_hat = v / (1.0 - _ADAM_BETA2 ** (t + 1))
        Y = Y - _LEARNING_RATE * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)

    return Projection(list(X.image_ids), Y)
