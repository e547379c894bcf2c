import numpy as np
import pytest

from floratile.batch import TileBatch
from floratile.errors import InputError, InvariantViolation
from floratile.voting import (
    TilePrediction,
    VoteTally,
    naive_baseline,
    rank_labels,
    select_labels,
    tally_votes,
)


def tile(probs, image_id="img", row=0, col=0, complete=False):
    return TilePrediction(image_id=image_id, row=row, col=col, probs=probs, complete=complete)


# A one-tile tally lists the tile's top-k entries in rank order.

def test_top_k_orders_by_probability():
    pred = tile([(3, 0.5), (1, 0.3), (2, 0.2)])
    assert list(tally_votes([pred], 2).mass.items()) == [(3, 0.5), (1, 0.3)]


def test_top_k_tie_breaks_to_lower_index():
    pred = tile([(3, 0.4), (1, 0.4)])
    assert list(tally_votes([pred], 1).mass.items()) == [(1, 0.4)]


def test_top_k_truncates_to_available_support():
    pred = tile([(i, 0.1) for i in range(5)])
    assert len(tally_votes([pred], 9).votes) == 5


@pytest.mark.parametrize("k", [2**63, 2**70], ids=["2**63", "2**70"])
def test_a_k_past_64_bits_votes_every_entry(k):
    preds = [tile([(3, 0.5), (1, 0.3), (2, 0.2)]), tile([(1, 0.6), (4, 0.4)], col=1)]
    assert tally_votes(preds, k) == tally_votes(preds, 9)


def test_tally_unanimous_vote():
    preds = [tile([(7, 0.9), (1, 0.1)], row=r, col=c) for r in range(4) for c in range(4)]
    tally = tally_votes(preds, 1)
    assert tally.votes[7] == 16
    assert tally.mass[7] == pytest.approx(16 * 0.9)


def test_tally_single_tile_equals_top_k():
    pred = tile([(3, 0.5), (1, 0.3), (2, 0.2)])
    tally = tally_votes([pred], 2)
    assert tally.votes == {3: 1, 1: 1}


def test_tally_two_tiles_example():
    a = tile([(5, 0.6), (9, 0.4)], row=0, col=0)
    b = tile([(9, 0.7), (4, 0.3)], row=0, col=1)
    tally = tally_votes([a, b], 2)
    assert tally.votes == {9: 2, 5: 1, 4: 1}


def test_tally_rejects_mixed_images():
    a = tile([(5, 0.6)], image_id="x")
    b = tile([(5, 0.6)], image_id="y")
    with pytest.raises(InvariantViolation):
        tally_votes([a, b], 1)


def test_tally_rejects_empty():
    with pytest.raises(InvariantViolation):
        tally_votes([], 1)


def test_select_labels_spec_example():
    a = tile([(5, 0.6), (9, 0.4)], row=0, col=0)
    b = tile([(9, 0.7), (4, 0.3)], row=0, col=1)
    tally = tally_votes([a, b], 2)
    assert select_labels(tally, min_votes=2, max_labels=10) == [9]


def test_select_labels_no_filtering():
    a = tile([(5, 0.6), (9, 0.4)], row=0, col=0)
    b = tile([(9, 0.7), (4, 0.3)], row=0, col=1)
    tally = tally_votes([a, b], 2)
    assert select_labels(tally, min_votes=1, max_labels=10 ** 9) == [9, 5, 4]


def test_select_labels_fallback_single_best():
    a = tile([(5, 0.6), (9, 0.4)], row=0, col=0)
    b = tile([(4, 0.7), (2, 0.3)], row=0, col=1)
    tally = tally_votes([a, b], 2)
    # all votes are 1: fall back to the single best by (mass, index)
    assert select_labels(tally, min_votes=2, max_labels=10) == [4]


def test_select_labels_ties_favour_lower_index_in_any_key_order():
    # keys arrive in dict order, highest index first; only the index separates them
    tally = VoteTally(votes={9: 2, 4: 2, 7: 2, 1: 1}, mass={9: 0.5, 4: 0.5, 7: 0.5, 1: 0.9})
    assert select_labels(tally, min_votes=2, max_labels=2) == [4, 7]
    assert select_labels(tally, min_votes=3, max_labels=2) == [4]


@pytest.mark.parametrize("image,idx", [
    ([0, 0, 0], [1, 3, 2]),  # index order broken within an image
    ([0, 1, 0], [1, 2, 3]),  # images not grouped
    ([0, 0, 1], [2, 2, 0]),  # a key twice
])
def test_rank_labels_rejects_unsorted_keys(image, idx):
    ones = np.ones(3)
    with pytest.raises(InvariantViolation, match="sorted by"):
        rank_labels(np.array(image), np.array(idx), ones.astype(np.int64), ones, 1, 5)


def test_vote_monotonicity_in_k():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n_tiles = int(rng.integers(1, 8))
        preds = []
        for t in range(n_tiles):
            support = int(rng.integers(1, 10))
            idxs = rng.choice(30, size=support, replace=False)
            ps = rng.random(support)
            ps = ps / ps.sum() * float(rng.random() * 0.9 + 0.05)
            preds.append(tile([(int(i), float(p)) for i, p in zip(idxs, ps)], row=0, col=t))
        for k in range(1, 10):
            lo = tally_votes(preds, k).votes
            hi = tally_votes(preds, k + 1).votes
            for idx, votes in lo.items():
                assert hi[idx] >= votes


def brute_force_tally(preds, k):
    votes, mass = {}, {}
    for p in preds:
        ranked = sorted(p.probs, key=lambda e: (-e[1], e[0]))[:k]
        for idx, prob in ranked:
            votes[idx] = votes.get(idx, 0) + 1
            mass[idx] = mass.get(idx, 0.0) + prob
    return votes, mass


def brute_force_select(votes, mass, min_votes, max_labels):
    keep = [i for i in votes if votes[i] >= min_votes]
    if not keep:
        keep = [min(votes, key=lambda i: (-votes[i], -mass[i], i))]
        return keep
    keep.sort(key=lambda i: (-votes[i], -mass[i], i))
    return keep[:max_labels]


def test_aggregation_matches_brute_force_random():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n_tiles = int(rng.integers(1, 10))
        preds = []
        for t in range(n_tiles):
            support = int(rng.integers(1, 8))
            idxs = rng.choice(12, size=support, replace=False)
            # coarse probabilities force frequent ties through every path
            ps = rng.integers(1, 5, size=support) / 40.0
            preds.append(tile([(int(i), float(p)) for i, p in zip(idxs, ps)], row=0, col=t))
        k = int(rng.integers(1, 6))
        tally = tally_votes(preds, k)
        votes, mass = brute_force_tally(preds, k)
        assert tally.votes == votes
        for idx in mass:
            assert tally.mass[idx] == pytest.approx(mass[idx], abs=1e-12)
        min_votes = int(rng.integers(1, 4))
        max_labels = int(rng.integers(1, 6))
        assert select_labels(tally, min_votes, max_labels) == brute_force_select(
            votes, mass, min_votes, max_labels
        )


def test_naive_baseline_examples():
    assert naive_baseline({1: 100, 2: 50, 3: 10}, 2) == [1, 2]
    assert naive_baseline({1: 5, 2: 5}, 1) == [1]


def test_naive_baseline_rejects_empty():
    with pytest.raises(InputError):
        naive_baseline({}, 1)


def test_select_labels_rejects_an_empty_tally():
    with pytest.raises(InvariantViolation, match=r"^select_labels needs a non-empty tally$"):
        select_labels(VoteTally())


def test_vote_settings_below_one_are_input_errors():
    with pytest.raises(InputError, match=r"^k must be >= 1, got 0$"):
        tally_votes([tile([(1, 0.5)])], 0)
    with pytest.raises(InputError, match=r"^min_votes and max_labels must be >= 1$"):
        select_labels(VoteTally(votes={1: 1}, mass={1: 0.5}), 0, 10)
    with pytest.raises(InputError, match=r"^min_votes and max_labels must be >= 1$"):
        select_labels(VoteTally(votes={1: 1}, mass={1: 0.5}), 1, 0)
    with pytest.raises(InputError, match=r"^k must be >= 1, got 0$"):
        naive_baseline({1: 2}, 0)


def batched(*tiles):
    """The tiles' batch; a tile's values are checked when it is batched."""
    return TileBatch.from_tiles(tiles)


def test_tile_prediction_validation():
    with pytest.raises(InputError):
        batched(tile([(1, 0.0)]))
    with pytest.raises(InputError):
        batched(tile([(1, 1.2)]))
    with pytest.raises(InputError):
        batched(tile([(1, 0.5), (1, 0.4)]))
    with pytest.raises(InputError):
        batched(tile([(-1, 0.5)]))
    with pytest.raises(InputError):
        batched(tile([], complete=False))


@pytest.mark.parametrize("image_id", ["", 7, 1.5, True, None, ("a",)])
def test_tile_prediction_requires_a_non_empty_string_image_id(image_id):
    with pytest.raises(InputError, match="^tile prediction must carry a non-empty string image_id$"):
        batched(tile([(1, 0.5)], image_id=image_id))


def test_tile_prediction_complete_mass_check():
    batched(tile([(1, 0.6), (2, 0.4)], complete=True))
    with pytest.raises(InputError):
        batched(tile([(1, 0.6), (2, 0.3)], complete=True))
    with pytest.raises(InputError):
        batched(tile([(1, 0.7), (2, 0.7)], complete=False))


def test_tile_prediction_keeps_its_entries_and_the_batch_sorts_them():
    pred = tile([(2, 0.2), (3, 0.5), (1, 0.3)])
    assert pred.probs == [(2, 0.2), (3, 0.5), (1, 0.3)]
    assert next(batched(pred).tiles(0, 1)).probs == [(3, 0.5), (1, 0.3), (2, 0.2)]
