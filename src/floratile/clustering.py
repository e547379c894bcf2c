"""K-Means over projected points, region cluster maps, and Bayesian priors.

Clusters come from k-means++ seeding plus Lloyd iterations. Each region maps
to the cluster holding the majority of its images. Per-cluster priors are
the smoothed mean of the per-image class-probability vectors in a cluster,
and reweighting multiplies a tile's sparse probabilities by that prior
before renormalizing over the tile's support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from .batch import entry_arrays, first, raise_first
from .errors import InputError, InvariantViolation

_CONVERGENCE_TOL = 1e-6
_MAX_LLOYD_ITERS = 300
_PRIOR_SUM_TOL = 1e-9
_VECTOR_SUM_TOL = 1e-6


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    inertia_history: List[float] = field(default_factory=list)

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        self.assignments = np.asarray(self.assignments, dtype=np.int64)
        if self.centroids.shape[0] != self.k:
            raise InvariantViolation(f"{self.centroids.shape[0]} centroids for k={self.k}")
        if not np.all(np.isfinite(self.centroids)):
            raise InvariantViolation("centroids contain non-finite values")
        if self.assignments.size and (self.assignments.min() < 0 or self.assignments.max() >= self.k):
            raise InvariantViolation("assignment outside 0..k-1")


@dataclass
class ClusterPriors:
    """Row c is the probability vector P(y | cluster c) over all species:
    finite, non-negative entries summing to 1 +/- 1e-9."""

    priors: np.ndarray

    def __post_init__(self):
        self.priors = np.asarray(self.priors, dtype=np.float64)
        if self.priors.ndim != 2:
            raise InputError(f"priors must be k x S, got shape {self.priors.shape}")
        if not np.all(np.isfinite(self.priors)):
            raise InvariantViolation("priors must be finite")
        if np.any(self.priors < 0):
            raise InvariantViolation("priors must be non-negative")
        sums = self.priors.sum(axis=1)
        bad = first(np.abs(sums - 1.0) > _PRIOR_SUM_TOL)
        if bad is not None:
            raise InvariantViolation(f"prior sums to {float(sums[bad])!r}; expected 1 +/- {_PRIOR_SUM_TOL}")

    @property
    def k(self) -> int:
        return self.priors.shape[0]

    @property
    def n_species(self) -> int:
        return self.priors.shape[1]


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _inertia(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    return float(((points - centroids[assign]) ** 2).sum())


def _plusplus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[c] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[c]) ** 2).sum(axis=1))
    return centroids


def check_kmeans_settings(k: int, seed: int):
    """The k-means flags that need no points: ``k`` and ``seed``."""
    if k < 1:
        raise InputError("k must be >= 1")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")


def kmeans(points: np.ndarray, k: int, seed: int) -> ClusterModel:
    """Lloyd's algorithm with k-means++ seeding.

    Iterates until the largest centroid displacement drops below 1e-6 or
    300 iterations pass. An emptied cluster is re-seeded to the point
    farthest from its stale centroid. Inertia is checked to be
    non-increasing every iteration.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise InputError(f"points must be n x m, got shape {points.shape}")
    check_kmeans_settings(k, seed)
    n = points.shape[0]
    if n < k:
        raise InputError(f"cannot form {k} clusters from {n} points")

    rng = np.random.default_rng(seed)
    centroids = _plusplus_init(points, k, rng)
    history: List[float] = []
    displacement = np.inf
    # the pass after the last centroid update, at convergence or at the cap, is the final assignment
    for n_pass in range(_MAX_LLOYD_ITERS + 1):
        assign = _assign(points, centroids)
        inertia = _inertia(points, centroids, assign)
        if history and inertia > history[-1] * (1 + 1e-12) + 1e-12:
            raise InvariantViolation("k-means inertia increased between Lloyd iterations")
        history.append(inertia)
        if displacement < _CONVERGENCE_TOL or n_pass == _MAX_LLOYD_ITERS:
            break

        new_centroids = centroids.copy()
        for c in range(k):
            members = points[assign == c]
            if members.shape[0] > 0:
                new_centroids[c] = members.mean(axis=0)
            else:
                far = ((points - centroids[c]) ** 2).sum(axis=1).argmax()
                new_centroids[c] = points[far]
        displacement = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
    return ClusterModel(k=k, centroids=centroids, assignments=assign, inertia=inertia, inertia_history=history)


def dominant_cluster(assignments: Sequence[int], regions: Sequence[str]) -> Dict[str, int]:
    """Map each region to the cluster holding most of its images (ties: lower id)."""
    if len(assignments) != len(regions):
        raise InputError(f"{len(assignments)} assignments for {len(regions)} region labels")
    counts: Dict[str, Dict[int, int]] = {}
    for cluster, region in zip(assignments, regions):
        per = counts.setdefault(region, {})
        per[int(cluster)] = per.get(int(cluster), 0) + 1
    return {
        region: min(per, key=lambda c: (-per[c], c))
        for region, per in counts.items()
    }


def estimate_priors(
    image_probs: np.ndarray,
    assignments: Sequence[int],
    k: int,
    epsilon: float = 1e-6,
    n_species: int | None = None,
) -> ClusterPriors:
    """Smoothed per-cluster mean of image-level probability vectors.

    Every input row must already sum to one; rows are the per-image mean of
    that image's (renormalized) tile vectors, and every assignment must name
    one of the ``k`` clusters. A cluster with no images gets a uniform prior.
    """
    vectors = np.asarray(image_probs, dtype=np.float64)
    if vectors.ndim != 2:
        raise InputError(f"image probability vectors must be n x S, got {vectors.shape}")
    if n_species is not None and vectors.shape[1] != n_species:
        raise InputError(f"vectors have {vectors.shape[1]} species, catalog has {n_species}")
    if not 0 <= epsilon < np.inf:
        raise InputError(f"epsilon must be finite and >= 0, got {epsilon}")
    if len(assignments) != vectors.shape[0]:
        raise InputError(f"{len(assignments)} assignments for {vectors.shape[0]} vectors")
    for failure in vector_failures(vectors, assignments, k):
        if failure:
            raise failure
    assignments = np.asarray(assignments, dtype=np.int64)
    sums = np.zeros((k, vectors.shape[1]))
    np.add.at(sums, assignments, vectors)  # row by row in order, as mean(axis=0) adds them
    return smoothed_priors(sums, np.bincount(assignments, minlength=k), epsilon)


def vector_failures(vectors: np.ndarray, assignments: Sequence[int], k: int, first_row: int = 0):
    """The errors of ``estimate_priors``' checks, in its order, each None when
    it passes: the first assignment outside ``0..k-1``, then the first image
    vector whose sum is not one (its row counted from ``first_row``). The
    assignments are checked as Python ints, so one past int64 is reported too."""
    outside = next((a for a in map(int, assignments) if not 0 <= a < k), None)
    sums = vectors.sum(axis=1)
    bad = first(np.abs(sums - 1.0) > _VECTOR_SUM_TOL)
    return [
        None if outside is None else InputError(f"assignment {outside} outside clusters 0..{k - 1}"),
        None if bad is None else InvariantViolation(
            f"image vector {first_row + bad} sums to {sums[bad]!r}; expected 1 +/- {_VECTOR_SUM_TOL}"),
    ]


def smoothed_priors(sums: np.ndarray, counts: np.ndarray, epsilon: float) -> ClusterPriors:
    """Per cluster, the mean of its ``counts[c]`` image vectors, whose sum is
    ``sums[c]``, plus ``epsilon``, normalised; uniform for a cluster with no images."""
    priors = np.full(sums.shape, 1.0 / sums.shape[1])
    for c in np.flatnonzero(counts):
        row = sums[c] / counts[c] + epsilon
        priors[c] = row / row.sum()
    return ClusterPriors(priors=priors)


def reweight_entries(idx, prob, tile, n_tiles: int, priors: np.ndarray, cluster_of_tile: np.ndarray,
                     tile_name=lambda t: "tile"):
    """Prior reweighting over flat entries grouped by ``tile``.

    Each probability is multiplied by ``priors[cluster_of_tile[tile], idx]``
    and renormalised over its tile. Returns ``(prob, failures)``: the
    ``raise_first`` failures of an index outside the prior, of a product of
    two positive factors that underflows to zero (an input error, named by
    ``tile_name(tile)``) and of a tile whose reweighted mass is zero, in the
    order the checks run per tile.
    """
    size = priors.shape[1]
    outside = (idx < 0) | (idx >= size)
    factor = priors[cluster_of_tile[tile], np.where(outside, 0, idx)]
    weighted = prob * factor
    total = np.bincount(tile, weights=weighted, minlength=n_tiles)
    j = first(outside)
    range_failure = (None, None)
    if j is not None:
        range_failure = (int(tile[j]), InputError(f"dense index {int(idx[j])} outside prior of size {size}"))
    j = first((weighted == 0.0) & (prob > 0.0) & (factor > 0.0))
    underflow_failure = (None, None)
    if j is not None:
        underflow_failure = (int(tile[j]), InputError(
            f"{tile_name(int(tile[j]))}: probability {float(prob[j])!r} of dense index {int(idx[j])} "
            f"times its prior {float(factor[j])!r} underflows to 0"
        ))
    zero_failure = (
        first(total <= 0.0), InvariantViolation("reweighted mass is zero; prior must be epsilon-smoothed")
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return weighted / total[tile], (range_failure, underflow_failure, zero_failure)


def reweight(tile_probs, prior: np.ndarray):
    """Multiply sparse tile probabilities by the prior and renormalize.

    The output keeps the input entry order and support; smoothing in the
    prior guarantees a non-empty result.
    """
    priors = ClusterPriors([prior]).priors
    if not tile_probs:
        return []
    idx, prob = entry_arrays(tile_probs)
    tile = np.zeros(idx.shape[0], dtype=np.int64)
    out, failures = reweight_entries(idx, prob, tile, 1, priors, np.zeros(1, dtype=np.int64))
    raise_first(*failures)
    return list(zip(idx.tolist(), out.tolist()))
