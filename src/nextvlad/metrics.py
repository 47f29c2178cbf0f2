"""Global average precision at 20.

Every video contributes its top-20 predictions to one global pool; the pool
is sorted by confidence and swept once, accumulating precision times the
recall increment at each hit.  The recall denominator is the total number of
true labels across all videos, crediting at most 20 per video.  Only the
ordering of confidences matters, never their scale.

``gap_reference`` recomputes the same quantity by brute-force enumeration
(recounting hits from scratch at every rank) and exists purely to check
``gap_at_20``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

MAX_PREDICTIONS = 20


@dataclass
class _VideoEntry:
    video_id: str
    labels: frozenset
    predictions: list  # [(class_id, confidence)]


@dataclass
class PredictionSet:
    """Per-video top-k predictions plus ground truth, in insertion order.

    At most 20 predictions per video; duplicate (video, class) pairs and
    non-finite confidences are rejected at construction.
    """

    videos: list = field(default_factory=list)
    _ids: set = field(default_factory=set)

    def add_video(self, video_id: str, true_labels, predictions) -> None:
        if video_id in self._ids:
            raise ValueError(f"duplicate video id {video_id!r}")
        if len(predictions) > MAX_PREDICTIONS:
            raise ValueError(
                f"{video_id!r}: {len(predictions)} predictions exceeds {MAX_PREDICTIONS}")
        seen = set()
        for class_id, conf in predictions:
            if class_id in seen:
                raise ValueError(f"{video_id!r}: duplicate prediction for class {class_id}")
            seen.add(class_id)
            if not math.isfinite(conf):
                raise ValueError(f"{video_id!r}: non-finite confidence for class {class_id}")
        self._ids.add(video_id)
        self.videos.append(_VideoEntry(
            video_id=video_id,
            labels=frozenset(int(c) for c in true_labels),
            predictions=[(int(c), float(s)) for c, s in predictions],
        ))

    def total_true_labels(self) -> int:
        return sum(min(len(v.labels), MAX_PREDICTIONS) for v in self.videos)

    def pooled(self) -> list:
        """All predictions as (confidence, video_index, class_id, is_hit),
        sorted by confidence descending with (video, class) tie-break."""
        entries = []
        for vi, video in enumerate(self.videos):
            for class_id, conf in video.predictions:
                entries.append((conf, vi, class_id, class_id in video.labels))
        entries.sort(key=lambda e: (-e[0], e[1], e[2]))
        return entries


def gap_at_20(preds: PredictionSet) -> float:
    """Pooled average precision over all videos' top-20 predictions."""
    if not preds.videos:
        raise ValueError("empty prediction set")
    total_true = preds.total_true_labels()
    if total_true == 0:
        raise ValueError("no true labels anywhere; GAP undefined")
    pooled = preds.pooled()
    recall_step = 1.0 / total_true
    gap = 0.0
    hits = 0
    for i, entry in enumerate(pooled, start=1):
        if entry[3]:
            hits += 1
            gap += (hits / i) * recall_step
    return min(gap, 1.0)  # the true value never exceeds 1; rounding can


def gap_reference(preds: PredictionSet) -> float:
    """Brute-force oracle: recounts precision and recall from scratch at
    every rank of the pooled list.  Quadratic; test-scale inputs only."""
    if not preds.videos:
        raise ValueError("empty prediction set")
    total_true = preds.total_true_labels()
    if total_true == 0:
        raise ValueError("no true labels anywhere; GAP undefined")
    pooled = preds.pooled()
    gap = 0.0
    for i in range(1, len(pooled) + 1):
        hits_at_i = sum(1 for e in pooled[:i] if e[3])
        hits_before = sum(1 for e in pooled[: i - 1] if e[3])
        precision = hits_at_i / i
        delta_recall = (hits_at_i - hits_before) / total_true
        gap += precision * delta_recall
    return min(gap, 1.0)


def topk_predictions(scores: np.ndarray, k: int = MAX_PREDICTIONS):
    """Per-row top-k class ids and scores; ties broken by ascending class id.

    Returns (classes, confidences), each of shape (rows, k).
    """
    scores = np.asarray(scores)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > scores.shape[-1]:
        raise ValueError(f"k={k} exceeds class count {scores.shape[-1]}")
    order = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
    return order, np.take_along_axis(scores, order, axis=-1)


def prediction_set_from_scores(video_ids, label_sets, scores, k: int = MAX_PREDICTIONS) -> PredictionSet:
    classes, confs = topk_predictions(scores, k)
    preds = PredictionSet()
    for i, vid in enumerate(video_ids):
        preds.add_video(vid, label_sets[i], list(zip(classes[i], confs[i])))
    return preds


def write_predictions_csv(preds: PredictionSet, path) -> None:
    """Dump as ``video_id,class_id,confidence`` rows, sorted by video id,
    then confidence descending, then class id."""
    rows = []
    for video in preds.videos:
        for class_id, conf in video.predictions:
            rows.append((video.video_id, class_id, float(conf)))
    rows.sort(key=lambda r: (r[0], -r[2], r[1]))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["video_id", "class_id", "confidence"])
        for vid, class_id, conf in rows:
            writer.writerow([vid, class_id, repr(conf)])


def read_predictions_csv(path, num_classes: Optional[int] = None) -> dict:
    """Read a prediction dump back as {video_id: [(class_id, confidence)]}.

    A class id must be an integer >= 0, and below ``num_classes`` when that is
    given; a bad row raises ValueError naming the file and line.
    """
    out: dict[str, list] = {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["video_id", "class_id", "confidence"]:
            raise ValueError(f"{path}: unexpected prediction CSV header: {header}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != 3:
                raise ValueError(f"{where}: malformed prediction row: {row}")
            try:
                class_id, conf = int(row[1]), float(row[2])
            except ValueError:
                raise ValueError(f"{where}: class id {row[1]!r} or confidence {row[2]!r} "
                                 f"is not a number") from None
            if class_id < 0 or (num_classes is not None and class_id >= num_classes):
                bound = "" if num_classes is None else f" and < {num_classes}"
                raise ValueError(f"{where}: class id {class_id} must be >= 0{bound}")
            out.setdefault(row[0], []).append((class_id, conf))
    return out
