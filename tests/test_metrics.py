"""GAP@20 against brute force, top-k selection, prediction CSV round trip."""

import tracemalloc

import numpy as np
import pytest

from nextvlad import metrics
from nextvlad.metrics import (
    MAX_PREDICTIONS,
    PredictionSet,
    gap_at_20,
    gap_reference,
    prediction_set_from_scores,
    read_predictions_csv,
    topk_predictions,
    write_predictions_csv,
)
from nextvlad.rng import Rng
from nextvlad.verify import random_prediction_set


def test_perfect_single_prediction_is_one():
    preds = PredictionSet()
    preds.add_video("v0", [2], [(2, 0.123)])
    assert gap_at_20(preds) == 1.0


def test_total_miss_is_zero():
    preds = PredictionSet()
    preds.add_video("v0", [2], [(0, 0.9), (1, 0.8), (3, 0.7)])
    assert gap_at_20(preds) == 0.0


def test_three_video_pool_hand_computed():
    # pooled order by confidence: (a,1) hit, (b,0) miss, (a,2) hit, (c,3) miss
    preds = PredictionSet()
    preds.add_video("a", [1, 2], [(1, 0.9), (2, 0.7)])
    preds.add_video("b", [5], [(0, 0.8)])
    preds.add_video("c", [7], [(3, 0.6)])
    total_true = 4  # 2 + 1 + 1
    expected = (1 / 1) * (1 / total_true) + (2 / 3) * (1 / total_true)
    assert abs(gap_at_20(preds) - expected) < 1e-15
    assert gap_at_20(preds) == gap_reference(preds)


def test_matches_brute_force_oracle_exactly_100_cases():
    rng = Rng(60)
    for _ in range(100):
        preds = random_prediction_set(rng)
        assert gap_at_20(preds) == gap_reference(preds)


def tie_heavy_scores(rng, videos, classes):
    """Scores from a 3-value grid: most confidences tie within and across videos."""
    return np.array([0.2, 0.5, 0.8])[rng.integers(videos * classes, 3)].reshape(videos, classes)


def test_matches_brute_force_oracle_exactly_on_tie_heavy_sets():
    rng = Rng(64)
    for _ in range(60):
        videos, classes = 1 + int(rng.integers(1, 12)[0]), 2 + int(rng.integers(1, 25)[0])
        k = 1 + int(rng.integers(1, min(classes, 20))[0])
        labels = [rng.choice_without_replacement(classes, int(rng.integers(1, 4)[0])).tolist()
                  for _ in range(videos)]
        labels[0] = labels[0] or [0]
        preds = prediction_set_from_scores([f"v{i}" for i in range(videos)], labels,
                                           tie_heavy_scores(rng, videos, classes), k=k)
        assert gap_at_20(preds) == gap_reference(preds)


def test_rows_added_one_by_one_equal_one_block():
    rng = Rng(65)
    scores = tie_heavy_scores(rng, 30, 12)
    labels = [rng.choice_without_replacement(12, 1 + int(rng.integers(1, 3)[0])).tolist()
              for _ in range(30)]
    ids = [f"v{i}" for i in range(30)]
    block = prediction_set_from_scores(ids, labels, scores, k=7)
    classes, confs = topk_predictions(scores, 7)
    rows = PredictionSet()
    for i, vid in enumerate(ids):
        rows.add_video(vid, labels[i], list(zip(classes[i].tolist(), confs[i].tolist())))
    assert gap_at_20(rows) == gap_at_20(block) == gap_reference(block)
    assert rows.total_true_labels() == block.total_true_labels()
    for a, b in zip(rows.columns(), block.columns()):
        assert a.dtype == b.dtype and np.array_equal(a, b)


BAD_BLOCKS = [
    (["a", "b", "a"], 2, [0, 1] * 3, [0.5, 0.4] * 3, "duplicate video id 'a'"),
    (["x", "b", "c"], 2, [0, 1] * 3, [0.5, 0.4] * 3, "duplicate video id 'x'"),
    (["a", "b", "c"], [1, 2, 1], [0, 2, 2, 1], [0.5] * 4, "'b': duplicate prediction for class 2"),
    (["a", "b", "c"], 2, [0, 1] * 3, [0.5, 0.4, 0.3, 0.2, 0.1, np.nan],
     "'c': non-finite confidence for class 1"),
    (["a", "b", "c"], [0, 2, 1], [3, -1, 0], [0.5] * 3, "'b': negative class id -1"),
    (["a", "b", "c"], [1, 21, 0], list(range(22)), [0.5] * 22, "'b': 21 predictions exceeds 20"),
    (["a", "b", "c"], 2, [0, 1, 2, 2, 0, 1], [np.nan] + [0.5] * 5, "'b': duplicate prediction for class 2"),
]


@pytest.mark.parametrize("ids, counts, classes, confs, match", BAD_BLOCKS)
def test_block_append_rejects_bad_rows_naming_the_video(ids, counts, classes, confs, match):
    preds = PredictionSet()
    preds.add_video("x", [0], [(0, 0.9)])
    with pytest.raises(ValueError, match=match):
        preds.append(ids, [[0], [1], [2]], counts, np.array(classes), np.array(confs))
    # a rejected block leaves the set as it was
    assert preds.video_ids == ["x"] and gap_at_20(preds) == 1.0
    preds.append(["a", "b", "c"], [[0], [1], [2, 2]], [2, 0, 1], [0, 1, 2], [0.5, 0.4, 0.3])
    assert preds.video_ids == ["x", "a", "b", "c"]
    col = preds.columns()
    assert (col.video.tolist(), col.cls.tolist(), col.conf.tolist()) == (
        [0, 1, 1, 3], [0, 0, 1, 2], [0.9, 0.5, 0.4, 0.3])
    assert (col.label_video.tolist(), col.label_cls.tolist()) == ([0, 1, 2, 3], [0, 0, 1, 2])
    assert preds.total_true_labels() == 4


@pytest.mark.parametrize("ids, counts, classes, confs, match", BAD_BLOCKS)
def test_a_block_checked_in_chunks_is_rejected_as_one_table(monkeypatch, ids, counts, classes, confs,
                                                            match):
    # class ids 0-2: one video a chunk, so 'b' is the second chunk and 'c' the last
    monkeypatch.setattr(metrics, "TABLE_PAIRS", 3)
    test_block_append_rejects_bad_rows_naming_the_video(ids, counts, classes, confs, match)


@pytest.mark.parametrize("table_pairs", [12, 53, 360])  # chunks of 1, 4 and all 30 videos
def test_a_block_split_over_chunks_gives_the_columns_of_one_table(monkeypatch, table_pairs):
    rng = Rng(66)
    scores = tie_heavy_scores(rng, 30, 12)
    labels = [rng.choice_without_replacement(12, 1 + int(rng.integers(1, 4)[0])).tolist() for _ in range(30)]
    ids = [f"v{i}" for i in range(30)]
    whole = prediction_set_from_scores(ids, labels, scores, k=7).columns()
    tables, bincount = [], np.bincount

    def recording(keys, minlength=0):
        tables.append(minlength)
        return bincount(keys, minlength=minlength)
    monkeypatch.setattr(metrics, "TABLE_PAIRS", table_pairs)
    monkeypatch.setattr(np, "bincount", recording)
    chunked = prediction_set_from_scores(ids, labels, scores, k=7).columns()
    monkeypatch.undo()
    for a, b in zip(chunked, whole, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # every table holds as many whole videos' rows (12 classes each) as fit the bound
    assert tables == [min(table_pairs // 12, 30 - lo) * 12 for lo in range(0, 30, table_pairs // 12)]


def test_appending_a_large_block_keeps_its_tables_bounded():
    # 5000 videos of 3862 classes: one table over the block peaked at 168 MiB
    videos, classes = 5000, 3862
    rng = np.random.default_rng(67)
    ids = [f"v{i}" for i in range(videos)]
    # distinct classes per video: a random start plus fixed strides, wrapped
    labels = list((rng.integers(0, classes, (videos, 1)) + np.arange(3) * 1000) % classes)
    top = ((rng.integers(0, classes, (videos, 1)) + np.arange(MAX_PREDICTIONS) * 193) % classes).reshape(-1)
    confs = rng.random(top.size)
    tracemalloc.start()
    try:
        PredictionSet().append(ids, labels, MAX_PREDICTIONS, top, confs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("labels, predictions, match", [
    ([0], [(10 ** 9, 0.5), (1, 0.4)], "'v': class id 1000000000 exceeds 1048575"),
    ([0], [(1, 0.4), (2 ** 62, 0.5)], f"'v': class id {2 ** 62} exceeds 1048575"),
    ([2 ** 40], [(1, 0.4)], f"'v': true label {2 ** 40} exceeds 1048575"),
])
def test_a_class_id_too_large_for_one_table_names_the_video(labels, predictions, match):
    # numpy failed to allocate 7.45 GiB for the first, and the second named no video
    preds = PredictionSet()
    preds.add_video("u", [0], [(0, 0.5)])
    with pytest.raises(ValueError, match=match):
        preds.add_video("v", labels, predictions)
    assert preds.video_ids == ["u"] and gap_at_20(preds) == 1.0


def test_invariant_under_monotone_confidence_transforms():
    rng = Rng(61)
    preds = random_prediction_set(rng)
    base, col, videos = gap_at_20(preds), preds.columns(), len(preds.video_ids)
    labels = [col.label_cls[col.label_video == v] for v in range(videos)]
    for transform in (lambda c: c * 7.5, lambda c: np.exp(c), lambda c: c - 100):
        mapped = PredictionSet()
        mapped.append(preds.video_ids, labels, np.bincount(col.video, minlength=videos), col.cls,
                      transform(col.conf))
        assert gap_at_20(mapped) == base


def test_gap_is_one_iff_all_hits_precede_misses():
    preds = PredictionSet()
    preds.add_video("a", [0, 1], [(0, 0.9), (1, 0.8), (2, 0.1), (3, 0.05)])
    preds.add_video("b", [4], [(4, 0.7), (5, 0.01)])
    assert gap_at_20(preds) == 1.0
    # swap one: a miss outranks a hit
    worse = PredictionSet()
    worse.add_video("a", [0, 1], [(0, 0.9), (1, 0.8), (2, 0.75), (3, 0.05)])
    worse.add_video("b", [4], [(4, 0.7), (5, 0.01)])
    assert gap_at_20(worse) < 1.0


def test_recall_denominator_credits_at_most_20_per_video():
    many = list(range(30))
    preds = PredictionSet()
    preds.add_video("a", many, [(c, 1.0 - c * 0.01) for c in range(20)])
    assert preds.total_true_labels() == 20
    assert gap_at_20(preds) == 1.0  # 20 hits at ranks 1..20 out of 20 credited


def test_tie_break_is_video_then_class():
    # equal confidence: the miss (class 0 within a video, video a across two) ranks
    # first, so the hit pays a precision cost; the reverse order would score 1.0 and 0.5
    within = PredictionSet()
    within.add_video("a", [1], [(1, 0.5), (0, 0.5)])
    across = PredictionSet()
    across.add_video("a", [5], [(0, 0.5)])
    across.add_video("b", [0], [(0, 0.5)])
    for preds, expected in ((within, 0.5), (across, 0.25)):
        assert gap_at_20(preds) == gap_reference(preds)
        assert abs(gap_at_20(preds) - expected) < 1e-15


def test_rank_keys_past_int64_are_rejected_not_wrapped():
    preds = PredictionSet()
    preds.add_video("a", [0], [(0, 0.5), (1, 0.25)])
    # a class id this large cannot pass append's tables, so plant it in the columns
    preds._blocks = [preds.columns()._replace(cls=np.array([0, 2 ** 62]))]
    with pytest.raises(ValueError, match="overflow the rank keys"):
        gap_at_20(preds)


def test_duplicate_video_and_class_rejected():
    preds = PredictionSet()
    preds.add_video("a", [0], [(0, 0.5)])
    with pytest.raises(ValueError, match="duplicate video"):
        preds.add_video("a", [1], [(1, 0.5)])
    with pytest.raises(ValueError, match="duplicate prediction"):
        preds.add_video("b", [0], [(2, 0.5), (2, 0.4)])


def test_prediction_validation():
    preds = PredictionSet()
    with pytest.raises(ValueError, match="exceeds"):
        preds.add_video("a", [0], [(c, 0.1) for c in range(21)])
    with pytest.raises(ValueError, match="finite"):
        preds.add_video("a", [0], [(0, float("nan"))])
    with pytest.raises(ValueError, match="'a': negative true label -1"):
        preds.add_video("a", [-1], [(0, 0.5)])
    with pytest.raises(ValueError, match="empty"):
        gap_at_20(PredictionSet())
    empty_labels = PredictionSet()
    empty_labels.add_video("a", [], [(0, 0.5)])
    with pytest.raises(ValueError, match="no true labels"):
        gap_at_20(empty_labels)


# ---------------------------------------------------------------------------
# top-k
# ---------------------------------------------------------------------------


def test_topk_strictly_decreasing_scores():
    scores = np.array([[0.9, 0.8, 0.7, 0.6]])
    classes, confs = topk_predictions(scores, 3)
    assert classes.tolist() == [[0, 1, 2]]
    assert np.allclose(confs, [[0.9, 0.8, 0.7]])


def test_topk_all_equal_scores_tie_break_ascending():
    scores = np.full((2, 5), 0.5)
    classes, _ = topk_predictions(scores, 4)
    assert classes.tolist() == [[0, 1, 2, 3]] * 2


def test_topk_matches_full_sort():
    rng = Rng(62)
    scores = rng.uniform((8, 30))
    classes, confs = topk_predictions(scores, 10)
    for row in range(8):
        full = sorted(range(30), key=lambda c: (-scores[row, c], c))
        assert classes[row].tolist() == full[:10]


def test_topk_breaks_ties_by_ascending_class_id():
    # rows of 30 scores from 3 values: numpy's default sort orders the ties otherwise
    scores = tie_heavy_scores(Rng(62), 50, 30)
    classes, confs = topk_predictions(scores, 10)
    for row in range(50):
        full = sorted(range(30), key=lambda c: (-scores[row, c], c))
        assert classes[row].tolist() == full[:10]
        assert confs[row].tolist() == scores[row, full[:10]].tolist()


def test_topk_validation():
    scores = np.zeros((1, 4))
    with pytest.raises(ValueError, match="exceeds"):
        topk_predictions(scores, 5)
    with pytest.raises(ValueError):
        topk_predictions(scores, 0)


# ---------------------------------------------------------------------------
# csv round trip
# ---------------------------------------------------------------------------


def test_predictions_csv_roundtrip_preserves_gap(tmp_path):
    rng = Rng(63)
    scores = rng.uniform((6, 9))
    labels = [[int(rng.integers(1, 9)[0])] for _ in range(6)]
    ids = [f"v{i}" for i in range(6)]
    preds = prediction_set_from_scores(ids, labels, scores, k=5)
    path = tmp_path / "preds.csv"
    write_predictions_csv(preds, path)

    by_video = read_predictions_csv(path)
    rebuilt = PredictionSet()
    for i, vid in enumerate(ids):
        rebuilt.add_video(vid, labels[i], by_video[vid])
    assert gap_at_20(rebuilt) == gap_at_20(preds)


def test_a_predictions_write_failing_partway_leaves_the_previous_file(tmp_path, failing_write):
    path = tmp_path / "preds.csv"
    path.write_text("previous rows\n")
    failing_write(metrics, "preds.csv")
    scores = Rng(3).uniform((4, 6))
    preds = prediction_set_from_scores([f"v{i}" for i in range(4)], [[0]] * 4, scores, k=5)
    with pytest.raises(OSError, match="No space left"):
        write_predictions_csv(preds, path)
    assert path.read_text() == "previous rows\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["preds.csv"]


def test_predictions_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope,nope\n")
    with pytest.raises(ValueError, match="header"):
        read_predictions_csv(path)


@pytest.mark.parametrize("class_id, match", [("-1", "must be >= 0 and < 9"),
                                              ("9", "must be >= 0 and < 9"),
                                              ("2.5", "not a number")])
def test_predictions_csv_rejects_bad_class_id(tmp_path, class_id, match):
    path = tmp_path / "bad.csv"
    path.write_text(f"video_id,class_id,confidence\nv0,3,0.9\nv0,{class_id},0.5\n")
    with pytest.raises(ValueError, match=match) as err:
        read_predictions_csv(path, num_classes=9)
    assert f"{path}:3:" in str(err.value)


def test_predictions_csv_not_utf8_names_file_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"video_id,class_id,confidence\nv0,3,0.9\nv\xff,2,0.5\n")
    with pytest.raises(ValueError) as err:
        read_predictions_csv(path)
    assert str(err.value) == f"{path}:3: not valid UTF-8 (invalid start byte)"


def test_predictions_csv_unclosed_quote_names_file(tmp_path):
    path = tmp_path / "bad.csv"
    rows = "".join(f"v{i},1,0.5\n" for i in range(20000))  # past csv's 128 KiB field limit
    path.write_text(f'video_id,class_id,confidence\n"v,3,0.9\n{rows}')
    with pytest.raises(ValueError, match="field limit") as err:
        read_predictions_csv(path)
    assert str(err.value).startswith(f"{path}:")


@pytest.mark.parametrize("confidence", ["nan", "inf", "-inf"])
def test_predictions_csv_rejects_non_finite_confidence(tmp_path, confidence):
    path = tmp_path / "bad.csv"
    path.write_text(f"video_id,class_id,confidence\nv0,3,0.9\nv0,2,{confidence}\n")
    with pytest.raises(ValueError, match="not finite") as err:
        read_predictions_csv(path, num_classes=9)
    assert f"{path}:3:" in str(err.value)
