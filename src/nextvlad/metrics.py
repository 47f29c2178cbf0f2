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
import io
import math
from typing import NamedTuple, Optional

import numpy as np

from .data import atomic_write

MAX_PREDICTIONS = 20
TABLE_PAIRS = 1 << 20  # (video, class) pairs in one table: `append`'s chunks, `predict`'s pieces


class Columns(NamedTuple):
    """Flat prediction rows (video index, class id, confidence, hit flag) and
    true-label rows (video index, class id), each grouped by video in
    insertion order."""

    video: np.ndarray
    cls: np.ndarray
    conf: np.ndarray
    hit: np.ndarray
    label_video: np.ndarray
    label_cls: np.ndarray


_EMPTY = Columns(*(np.zeros(0, dtype) for dtype in (np.int64, np.int64, np.float64, bool,
                                                    np.int64, np.int64)))


class PredictionSet:
    """Per-video top-k predictions plus ground truth, in insertion order.

    Stored as flat arrays (see ``Columns``), appended one block of videos at
    a time.  At most 20 predictions per video; duplicate video ids, duplicate
    (video, class) pairs, negative class ids or true labels, ones from
    ``TABLE_PAIRS`` up, and non-finite confidences are rejected, naming the
    video, and a rejected block leaves the set unchanged.
    """

    def __init__(self):
        self.video_ids: list = []
        self._ids: set = set()
        self._blocks = [_EMPTY]  # Columns, concatenated into one on read

    def append(self, video_ids, label_sets, counts, classes, confs) -> None:
        """Add a block of videos.  ``label_sets`` holds each video's true
        class ids.  Video i has ``counts[i]`` predictions (one int: the same
        count for all); ``classes`` and ``confs`` hold them all, grouped by
        video in block order."""
        ids = list(video_ids)
        block_ids = set()
        for vid in ids:
            if vid in self._ids or vid in block_ids:
                raise ValueError(f"duplicate video id {vid!r}")
            block_ids.add(vid)
        label_rows = np.repeat(np.arange(len(ids)), [len(labels) for labels in label_sets])
        label_cls = np.concatenate([_EMPTY.label_cls, *label_sets]).astype(np.int64, copy=False)
        counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), (len(ids),))
        pred_rows = np.repeat(np.arange(len(ids)), counts)
        classes = np.asarray(classes, dtype=np.int64)
        confs = np.asarray(confs, dtype=np.float64)
        if classes.shape != pred_rows.shape or confs.shape != pred_rows.shape:
            raise ValueError(f"{pred_rows.size} predictions counted, but {classes.shape} class ids "
                             f"and {confs.shape} confidences given")
        over = np.flatnonzero(counts > MAX_PREDICTIONS)
        if over.size:
            raise ValueError(f"{ids[over[0]]!r}: {counts[over[0]]} predictions exceeds {MAX_PREDICTIONS}")
        for rows, values, what in ((label_rows, label_cls, "negative true label"),
                                   (pred_rows, classes, "negative class id")):
            if values.size and values.min() < 0:
                i = np.argmin(values)
                raise ValueError(f"{ids[rows[i]]!r}: {what} {values[i]}")
        for rows, values, what in ((label_rows, label_cls, "true label"), (pred_rows, classes, "class id")):
            if values.size and values.max() >= TABLE_PAIRS:  # its video's row fits no table
                i = np.argmax(values)
                raise ValueError(f"{ids[rows[i]]!r}: {what} {values[i]} exceeds {TABLE_PAIRS - 1}, "
                                 f"the largest one table holds")
        # (video, class) pairs as one integer each, checked and flagged in tables over
        # chunks of videos, each the size of the chunk's multi-hot label matrix and at
        # most TABLE_PAIRS entries; every chunk is checked before any is stored
        width = 1 + max(label_cls.max(initial=0), classes.max(initial=0))
        step = max(1, TABLE_PAIRS // width)
        first, parts = len(self.video_ids), []
        for lo in range(0, len(ids), step):
            hi = min(lo + step, len(ids))
            p, q = (slice(*np.searchsorted(r, (lo, hi))) for r in (pred_rows, label_rows))
            pred_keys = (pred_rows[p] - lo) * width + classes[p]
            repeated = np.flatnonzero(np.bincount(pred_keys, minlength=(hi - lo) * width) > 1)
            if repeated.size:
                row, cls = divmod(int(repeated[0]), width)
                raise ValueError(f"{ids[lo + row]!r}: duplicate prediction for class {cls}")
            is_label = np.zeros((hi - lo) * width, dtype=bool)
            is_label[(label_rows[q] - lo) * width + label_cls[q]] = True  # a repeated label counts once
            label_keys = np.flatnonzero(is_label)
            parts.append(Columns(
                video=pred_rows[p] + first,
                cls=classes[p],
                conf=confs[p],
                hit=is_label[pred_keys],
                label_video=label_keys // width + (first + lo),
                label_cls=label_keys % width,
            ))
        bad = np.flatnonzero(~np.isfinite(confs))
        if bad.size:
            raise ValueError(f"{ids[pred_rows[bad[0]]]!r}: non-finite confidence for class "
                             f"{classes[bad[0]]}")
        self._blocks.extend(parts)
        self.video_ids.extend(ids)
        self._ids |= block_ids

    def add_video(self, video_id: str, true_labels, predictions) -> None:
        """Add one video: true class ids and [(class_id, confidence)]."""
        self.append([video_id], [list(true_labels)], len(predictions),
                    [c for c, _ in predictions], [s for _, s in predictions])

    def columns(self) -> Columns:
        if len(self._blocks) > 1:
            self._blocks = [Columns(*map(np.concatenate, zip(*self._blocks)))]
        return self._blocks[0]

    def total_true_labels(self) -> int:
        per_video = np.bincount(self.columns().label_video, minlength=len(self.video_ids))
        return int(np.minimum(per_video, MAX_PREDICTIONS).sum())


def _check_scorable(preds: PredictionSet) -> int:
    """The recall denominator; raises when GAP is undefined."""
    if not preds.video_ids:
        raise ValueError("empty prediction set")
    total_true = preds.total_true_labels()
    if total_true == 0:
        raise ValueError("no true labels anywhere; GAP undefined")
    return total_true


def gap_at_20(preds: PredictionSet) -> float:
    """Pooled average precision over all videos' top-20 predictions.

    One sort of unique integer keys (rank among the distinct confidences
    descending, then video, then class) ranks the pool; the precision at each
    hit, times the recall step, is summed by ``np.cumsum`` in rank order.
    """
    recall_step = 1.0 / _check_scorable(preds)
    col = preds.columns()
    distinct, conf_rank = np.unique(-col.conf, return_inverse=True)
    videos, width = len(preds.video_ids), 1 + int(col.cls.max(initial=0))
    if distinct.size * videos * width >= 2 ** 63:
        raise ValueError(f"{col.conf.size} predictions over {videos} videos overflow the rank keys")
    key = (conf_rank * videos + col.video) * width + col.cls
    ranks = np.flatnonzero(col.hit[np.argsort(key)]) + 1
    if not ranks.size:
        return 0.0
    gap = float(np.cumsum(np.arange(1, ranks.size + 1) / ranks * recall_step)[-1])
    return min(gap, 1.0)  # the true value never exceeds 1; rounding can


def gap_reference(preds: PredictionSet) -> float:
    """Brute-force oracle: sorts the pool by (-confidence, video, class) in
    plain Python, tests each prediction against the true (video, class) pairs
    (never against ``Columns.hit``), and recounts precision and recall from
    scratch at every rank.  Quadratic; test-scale inputs only."""
    total_true = _check_scorable(preds)
    col = preds.columns()
    labels = set(zip(col.label_video.tolist(), col.label_cls.tolist()))
    pooled = sorted(zip([-c for c in col.conf.tolist()], col.video.tolist(), col.cls.tolist()))
    hits = [(video, cls) in labels for _, video, cls in pooled]
    gap = 0.0
    for i in range(1, len(pooled) + 1):
        hits_at_i = sum(hits[:i])
        hits_before = sum(hits[: i - 1])
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
    """Top-k of each score row; ``label_sets`` holds each video's class ids."""
    classes, confs = topk_predictions(scores, k)
    preds = PredictionSet()
    preds.append(video_ids, label_sets, classes.shape[-1], classes.reshape(-1), confs.reshape(-1))
    return preds


def write_predictions_csv(preds: PredictionSet, path) -> None:
    """Dump as ``video_id,class_id,confidence`` rows, sorted by video id,
    then confidence descending, then class id."""
    col = preds.columns()
    ids = [preds.video_ids[v] for v in col.video.tolist()]
    rows = sorted(zip(ids, col.cls.tolist(), col.conf.tolist()), key=lambda r: (r[0], -r[2], r[1]))
    with atomic_write(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["video_id", "class_id", "confidence"])
        for vid, class_id, conf in rows:
            writer.writerow([vid, class_id, repr(conf)])


def read_predictions_csv(path, num_classes: Optional[int] = None) -> dict:
    """Read a prediction dump back as {video_id: [(class_id, confidence)]}.

    The file must be UTF-8.  A class id must be an integer >= 0, and below
    ``num_classes`` when that is given, and a confidence a finite number; a bad
    row raises ValueError naming the file and line.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line_no}: not valid UTF-8 ({exc.reason})") from None
    out: dict[str, list] = {}
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
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
            if not math.isfinite(conf):
                raise ValueError(f"{where}: confidence {row[2]!r} is not finite")
            if class_id < 0 or (num_classes is not None and class_id >= num_classes):
                bound = "" if num_classes is None else f" and < {num_classes}"
                raise ValueError(f"{where}: class id {class_id} must be >= 0{bound}")
            out.setdefault(row[0], []).append((class_id, conf))
    except csv.Error as exc:  # e.g. an unclosed quote swallowing the rest of the file
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return out
