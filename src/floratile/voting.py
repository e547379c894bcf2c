"""Image-level label selection from per-tile probability vectors.

Each tile contributes its top-K species as votes; species are ranked by
(vote count, summed probability, dense index) and filtered by a minimum
vote count. The kernels work on a whole ``TileBatch`` at once; the
per-image helpers wrap them. The naive frequency baseline lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from .batch import TileBatch, TilePrediction
from .errors import InputError, InvariantViolation


@dataclass
class VoteTally:
    """Per-species vote counts and probability mass over one image's tiles."""

    votes: Dict[int, int] = field(default_factory=dict)
    mass: Dict[int, float] = field(default_factory=dict)


def check_vote_settings(k: Optional[int], min_votes: Optional[int] = None, max_labels: Optional[int] = None):
    """Reject a vote setting below 1; a setting left None is not checked."""
    if k is not None and k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if any(v is not None and v < 1 for v in (min_votes, max_labels)):
        raise InputError("min_votes and max_labels must be >= 1")


def _voting_entries(batch: TileBatch, k: int):
    """``(image, idx, prob)`` of every tile's top-k entries, in batch order."""
    # a tile's entries are sorted, so its first k vote; a k past int64 votes them all
    top = np.minimum(np.diff(batch.offsets), min(k, np.iinfo(np.int64).max))
    image, idx, prob = np.repeat(batch.image, top), batch.idx, batch.prob
    if image.shape[0] < idx.shape[0]:  # some tile has more than k entries: gather the voting ones
        skipped = batch.offsets[:-1] - (np.cumsum(top) - top)  # per tile, entries left out before it
        voted = np.arange(image.shape[0]) + np.repeat(skipped, top)
        idx, prob = idx[voted], prob[voted]
    return image, idx, prob


def tally_batch(batch: TileBatch, k: int):
    """Votes and mass per (image, species) over every tile's top-k entries.

    Returns ``(image, idx, votes, mass)``, one row per key sorted by
    (image, idx). The sort is stable, so each key's entries keep their batch
    order and its mass is summed in batch order, tile by tile.
    """
    image, idx, prob = _voting_entries(batch, k)
    order = np.lexsort((idx, image))
    image = image[order]  # one column at a time, each unsorted copy freed as its sorted one is made
    idx = idx[order]
    new = np.ones(order.shape[0], dtype=bool)
    new[1:] = (image[1:] != image[:-1]) | (idx[1:] != idx[:-1])
    image, idx = image[new], idx[new]
    prob = prob[order]
    del order
    key = np.cumsum(new)  # each sorted entry's key
    key -= 1
    return image, idx, np.bincount(key), np.bincount(key, weights=prob)


def rank_labels(image, idx, votes, mass, min_votes: int, max_labels: int):
    """Pick each image's labels from tallied keys sorted by (image, index).

    Keys rank by (votes desc, mass desc, index asc); an image keeps its keys
    with at least ``min_votes`` votes, at most ``max_labels`` of them, or
    else its single best key. Returns the chosen key rows, grouped by image
    in rank order. The keys must arrive sorted by (image, index), each once,
    as ``tally_batch`` returns them: the sort is stable, so the index
    tie-break is the input order.
    """
    if np.any((image[1:] < image[:-1]) | ((image[1:] == image[:-1]) & (idx[1:] <= idx[:-1]))):
        raise InvariantViolation("rank_labels needs keys sorted by (image, index), each once")
    order = np.lexsort((-mass, -votes, image))
    kept = votes[order] >= min_votes
    starts = np.flatnonzero(np.r_[True, image[1:] != image[:-1]])  # image[order] is image
    within = np.cumsum(kept)
    within -= kept  # kept keys ranked ahead, over all images
    first_kept = within[starts]
    within -= np.repeat(first_kept, np.diff(np.append(starts, order.shape[0])))  # then within the image
    chosen = kept & (within < max_labels)
    del within
    none_kept = np.diff(np.append(first_kept, np.count_nonzero(kept))) == 0
    chosen[starts[none_kept]] = True
    return order[chosen]


def tally_votes(preds: Sequence[TilePrediction], k: int) -> VoteTally:
    """Count, per species, the tiles whose top-K contains it; sum its mass there."""
    if not preds:
        raise InvariantViolation("tally_votes needs at least one tile")
    image_ids = {p.image_id for p in preds}
    if len(image_ids) != 1:
        raise InvariantViolation(f"tally_votes got tiles from multiple images: {sorted(image_ids)}")
    check_vote_settings(k)
    batch = TileBatch.from_tiles(preds)
    _, idx, votes, mass = tally_batch(batch, k)
    # tally_batch sorts the keys by index; order them by first vote instead
    first_seen = np.argsort(np.unique(_voting_entries(batch, k)[1], return_index=True)[1])
    idx, votes, mass = idx[first_seen].tolist(), votes[first_seen].tolist(), mass[first_seen].tolist()
    return VoteTally(votes=dict(zip(idx, votes)), mass=dict(zip(idx, mass)))


def select_labels(tally: VoteTally, min_votes: int = 2, max_labels: int = 10) -> List[int]:
    """Rank tallied species and keep those with enough votes.

    Ordering is (votes desc, mass desc, index asc). If the vote filter
    removes everything, the single best-ranked species is returned so the
    prediction is never empty.
    """
    check_vote_settings(None, min_votes, max_labels)
    if not tally.votes:
        raise InvariantViolation("select_labels needs a non-empty tally")
    idx = np.array(sorted(tally.votes), dtype=np.int64)
    votes = np.array([tally.votes[i] for i in idx.tolist()], dtype=np.int64)
    mass = np.array([tally.mass[i] for i in idx.tolist()], dtype=np.float64)
    chosen = rank_labels(np.zeros_like(idx), idx, votes, mass, min_votes, max_labels)
    return idx[chosen].tolist()


def naive_baseline(training_freq: Mapping[int, int], k: int) -> List[int]:
    """The k globally most frequent species; the same answer for every image."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if not training_freq:
        raise InputError("naive baseline needs at least one species count")
    ranked = sorted(training_freq, key=lambda idx: (-training_freq[idx], idx))
    return ranked[:k]
