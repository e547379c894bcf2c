"""Two-level macro-averaged F1 per sample.

Per-image F1 is the harmonic mean of precision and recall over predicted
vs. true species sets. Image scores are averaged within each transect, and
those transect means are averaged again for the final score, so transects
carry equal weight regardless of size. ``score_rows`` is the one scorer:
``final_score`` feeds it a ``GroundTruth``, and ``pipeline.score_submission``
a truth file's rows one at a time, through ``io.ground_truth_rows``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .errors import InputError


@dataclass
class GroundTruth:
    """Truth species set and transect id per quadrat."""

    truth: Dict[str, FrozenSet[int]]
    transects: Dict[str, str]

    def __post_init__(self):
        if set(self.truth) != set(self.transects):
            raise InputError("ground truth and transect maps must cover the same quadrats")
        self.truth = {q: frozenset(s) for q, s in self.truth.items()}

    def __len__(self) -> int:
        return len(self.truth)


@dataclass
class ScoreReport:
    final: float
    per_transect: Dict[str, float]
    transect_sizes: Dict[str, int]
    per_image: Dict[str, float]
    n_transects: int
    missing_predictions: List[str] = field(default_factory=list)
    unknown_predictions: List[str] = field(default_factory=list)


def image_f1(pred: Iterable[int], truth: Iterable[int]) -> float:
    """Harmonic mean of precision and recall for one image.

    Two empty sets score 1 (a correctly predicted absence); when
    precision + recall is zero the score is 0.
    """
    pred, truth = frozenset(pred), frozenset(truth)  # no copy of a frozenset
    if not pred and not truth:
        return 1.0
    tp = len(pred & truth)
    return 2.0 * tp / (len(pred) + len(truth))  # the denominator is 2 tp + fp + fn


def final_score(predictions: Mapping[str, Iterable[int]], truth: GroundTruth) -> ScoreReport:
    """``score_rows`` over the quadrats of ``truth``."""
    return score_rows(predictions, ((q, truth.transects[q], s) for q, s in truth.truth.items()))


def score_rows(
    predictions: Mapping[str, Iterable[int]], rows: Iterable[Tuple[str, str, Iterable[int]]]
) -> ScoreReport:
    """Average image F1 within transects, then average the transect means.

    ``rows`` gives each quadrat once as ``(quadrat, transect, truth set)``; a
    row's truth set is dropped once it is scored, so the rows may stream from
    a file. Each transect mean sums its images in quadrat-id order. Quadrats
    without a prediction score as empty sets and are flagged; predictions
    for unknown quadrats are excluded with a warning.
    """
    scored: Dict[str, float] = {}
    grouped: Dict[str, List[str]] = {}
    for quadrat_id, transect_id, truth in rows:
        scored[quadrat_id] = image_f1(predictions.get(quadrat_id, ()), truth)
        grouped.setdefault(transect_id, []).append(quadrat_id)

    unknown = sorted(q for q in predictions if q not in scored)
    if unknown:
        # stacklevel 3 names the caller of final_score, score_submission or pipeline.run
        warnings.warn(f"ignoring predictions for {len(unknown)} unknown quadrat(s)", stacklevel=3)
    per_image = {q: scored[q] for q in sorted(scored)}
    missing = [q for q in per_image if q not in predictions]

    per_transect = {
        tid: sum(per_image[q] for q in sorted(quadrats)) / len(quadrats)
        for tid, quadrats in sorted(grouped.items())
    }
    transect_sizes = {tid: len(quadrats) for tid, quadrats in sorted(grouped.items())}
    final = sum(per_transect.values()) / len(per_transect) if per_transect else 0.0
    return ScoreReport(
        final=final,
        per_transect=per_transect,
        transect_sizes=transect_sizes,
        per_image=per_image,
        n_transects=len(per_transect),
        missing_predictions=missing,
        unknown_predictions=unknown,
    )
