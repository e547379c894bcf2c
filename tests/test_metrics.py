"""Two-level macro F1 scoring."""

import numpy as np
import pytest

from floratile.errors import InputError
from floratile.metrics import GroundTruth, final_score, image_f1


def test_image_f1_exact_hand_values():
    assert image_f1({1, 2}, {1, 2}) == 1.0
    assert image_f1({1}, {2}) == 0.0
    # tp=1, fp=1, fn=0 -> 2/(2+1+0)
    assert image_f1({1, 2}, {1}) == pytest.approx(2.0 / 3.0, abs=1e-15)
    # tp=1, fp=0, fn=1
    assert image_f1({1}, {1, 2}) == pytest.approx(2.0 / 3.0, abs=1e-15)
    # tp=2, fp=1, fn=2 -> 4/(4+1+2)
    assert image_f1({1, 2, 3}, {1, 2, 4, 5}) == pytest.approx(4.0 / 7.0, abs=1e-15)


def test_image_f1_empty_cases():
    assert image_f1(set(), set()) == 1.0
    assert image_f1(set(), {1}) == 0.0
    assert image_f1({1}, set()) == 0.0


def test_image_f1_brute_force_precision_recall():
    rng = np.random.default_rng(17)
    universe = list(range(12))
    for _ in range(300):
        pred = {s for s in universe if rng.random() < 0.4}
        truth = {s for s in universe if rng.random() < 0.4}
        got = image_f1(pred, truth)
        if not pred and not truth:
            assert got == 1.0
            continue
        tp = len(pred & truth)
        p = tp / len(pred) if pred else 0.0
        r = tp / len(truth) if truth else 0.0
        expected = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        assert got == pytest.approx(expected, abs=1e-12)


def _truth(mapping, transects):
    return GroundTruth(
        truth={q: frozenset(s) for q, s in mapping.items()}, transects=dict(transects)
    )


def test_final_score_single_transect_mean():
    truth = _truth({"q1": {1}, "q2": {2}}, {"q1": "T1", "q2": "T1"})
    report = final_score({"q1": {1}, "q2": {3}}, truth)
    assert report.per_image == {"q1": 1.0, "q2": 0.0}
    assert report.per_transect == {"T1": 0.5}
    assert report.final == 0.5
    assert report.n_transects == 1


def test_final_score_weights_transects_equally():
    # transect A holds 3 perfect quadrats, transect B one total miss;
    # the macro average is (1 + 0) / 2 regardless of sizes
    truth = _truth(
        {"a1": {1}, "a2": {1}, "a3": {1}, "b1": {9}},
        {"a1": "A", "a2": "A", "a3": "A", "b1": "B"},
    )
    preds = {"a1": {1}, "a2": {1}, "a3": {1}, "b1": {5}}
    report = final_score(preds, truth)
    assert report.per_transect == {"A": 1.0, "B": 0.0}
    assert report.final == 0.5
    assert report.transect_sizes == {"A": 3, "B": 1}


def test_final_score_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 25))
        truth_map, transects, preds = {}, {}, {}
        for i in range(n):
            q = f"q{i}"
            truth_map[q] = {int(s) for s in rng.choice(10, size=rng.integers(1, 4), replace=False)}
            transects[q] = f"T{int(rng.integers(0, 4))}"
            if rng.random() < 0.9:
                preds[q] = {int(s) for s in rng.choice(10, size=rng.integers(1, 4), replace=False)}
        report = final_score(preds, _truth(truth_map, transects))

        by_transect = {}
        for q in truth_map:
            by_transect.setdefault(transects[q], []).append(
                image_f1(preds.get(q, set()), truth_map[q])
            )
        expected = sum(sum(v) / len(v) for v in by_transect.values()) / len(by_transect)
        assert report.final == pytest.approx(expected, abs=1e-12)


def test_final_score_prediction_order_invariance():
    truth = _truth({"q1": {1, 2}, "q2": {3}}, {"q1": "T1", "q2": "T2"})
    a = final_score({"q1": {2, 1}, "q2": {3}}, truth)
    b = final_score({"q2": {3}, "q1": {1, 2}}, truth)
    assert a.final == b.final
    assert a.per_transect == b.per_transect


def test_final_score_missing_prediction_scores_empty():
    truth = _truth({"q1": {1}, "q2": {2}}, {"q1": "T1", "q2": "T2"})
    report = final_score({"q1": {1}}, truth)
    assert report.missing_predictions == ["q2"]
    assert report.per_image["q2"] == 0.0
    assert report.final == 0.5


def test_final_score_unknown_prediction_warned_and_excluded():
    truth = _truth({"q1": {1}}, {"q1": "T1"})
    with pytest.warns(UserWarning):
        report = final_score({"q1": {1}, "ghost": {5}}, truth)
    assert report.unknown_predictions == ["ghost"]
    assert report.final == 1.0


def test_ground_truth_coverage_mismatch():
    with pytest.raises(InputError):
        GroundTruth(truth={"q1": frozenset({1})}, transects={"q2": "T1"})
