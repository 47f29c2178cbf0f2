"""FAV1/EIGV formats, synthetic generator signal, batching."""

import hashlib
import struct

import numpy as np
import pytest

from nextvlad import data as datamod
from nextvlad.data import (
    Dataset,
    SyntheticSpec,
    VideoRecord,
    atomic_write,
    gen_synthetic,
    load_eigenvalues,
    make_batch,
    read_dataset,
    write_dataset,
    write_eigenvalues,
    _label_means,
)
from nextvlad.metrics import gap_at_20, prediction_set_from_scores
from nextvlad.model import Eigenvalues
from nextvlad.rng import CHUNK_WORDS, Rng


def small_dataset(seed=1, videos=5):
    return gen_synthetic(SyntheticSpec(
        num_videos=videos, num_classes=4, visual_dim=3, audio_dim=2,
        frames_min=1, frames_max=4, labels_min=1, labels_max=2,
        noise_sigma=0.2, seed=seed))


# ---------------------------------------------------------------------------
# FAV1
# ---------------------------------------------------------------------------


def test_empty_dataset_is_24_byte_header(tmp_path):
    path = tmp_path / "empty.fav"
    write_dataset(Dataset(records=[], num_classes=4, visual_dim=3, audio_dim=2), path)
    raw = path.read_bytes()
    assert len(raw) == 24
    assert raw[:4] == b"FAV1"
    back = read_dataset(path)
    assert len(back) == 0 and back.num_classes == 4
    assert back.visual_dim == 3 and back.audio_dim == 2


def test_dataset_label_bound_names_the_first_video_past_it():
    records = small_dataset(videos=4).records
    records[1].labels = np.array([0, 5], np.uint32)
    records[3].labels = np.array([7], np.uint32)
    with pytest.raises(ValueError, match=f"'{records[1].video_id}': label 5 >= num_classes 4"):
        Dataset(records, num_classes=4, visual_dim=3, audio_dim=2)
    records[1].labels = records[3].labels = np.zeros(0, np.uint32)  # empty label lists are in bounds
    Dataset(records, num_classes=4, visual_dim=3, audio_dim=2)


def test_single_record_byte_length_arithmetic(tmp_path):
    record = VideoRecord(video_id="abc", labels=[1, 3],
                         visual=np.zeros((1, 3), dtype=np.float32),
                         audio=np.zeros((1, 2), dtype=np.float32))
    path = tmp_path / "one.fav"
    write_dataset(Dataset(records=[record], num_classes=4, visual_dim=3, audio_dim=2), path)
    expected = 24 + (2 + 3) + (4 + 4 * 2) + 4 + 4 * (3 + 2)
    assert path.stat().st_size == expected


def test_roundtrip_is_bitwise(tmp_path):
    ds = small_dataset()
    p1, p2 = tmp_path / "a.fav", tmp_path / "b.fav"
    write_dataset(ds, p1)
    back = read_dataset(p1)
    write_dataset(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for orig, copy in zip(ds.records, back.records):
        assert orig.video_id == copy.video_id
        assert np.array_equal(orig.labels, copy.labels)
        assert np.array_equal(orig.visual, copy.visual)
        assert np.array_equal(orig.audio, copy.audio)


def test_dataset_bytes_do_not_depend_on_where_writes_are_joined(tmp_path, monkeypatch):
    """Each record is serialized alone, as the format reads; records are only joined
    into larger writes.  So a join after every record, or after none, gives the same
    bytes as the default, and a record given frames not packed in a store is still
    written row-major."""
    ds = small_dataset(seed=4, videos=9)
    longest = max(ds.records, key=lambda r: r.num_frames)
    longest.visual = np.asfortranarray(longest.visual)
    assert not longest.visual.flags.c_contiguous
    expected = (b"FAV1" + struct.pack("<IIIII", 1, 9, 3, 2, 4) + b"".join(
        struct.pack("<H", 7) + r.video_id.encode() + struct.pack("<I", r.labels.size)
        + r.labels.astype("<u4").tobytes() + struct.pack("<I", r.num_frames)
        + r.visual.astype("<f4").tobytes() + r.audio.astype("<f4").tobytes() for r in ds.records))
    for join_bytes in (1, 100, datamod.WRITE_BYTES):
        monkeypatch.setattr(datamod, "WRITE_BYTES", join_bytes)
        write_dataset(ds, tmp_path / "joined.fav")
        assert (tmp_path / "joined.fav").read_bytes() == expected


def test_atomic_write_keeps_the_old_file_when_its_body_raises(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as f:
            f.write(b"new, half")
            raise RuntimeError("serializer failed")
    assert path.read_bytes() == b"old" and sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "absent.bin") as f:
            raise RuntimeError("serializer failed")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
    with atomic_write(path, "w", encoding="utf-8") as f:
        f.write("new")
    assert path.read_text() == "new" and sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


@pytest.mark.parametrize("writer, make", [
    (write_dataset, lambda: small_dataset(seed=2)),
    (write_eigenvalues, lambda: Eigenvalues(np.linspace(0.5, 2.0, 6))),
], ids=["dataset", "eigenvalues"])
def test_a_write_failing_partway_leaves_the_previous_file(tmp_path, failing_write, writer, make):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous bytes")
    failing_write(datamod, "out.bin")
    with pytest.raises(OSError, match="No space left"):
        writer(make(), path)
    assert path.read_bytes() == b"previous bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.fav"
    path.write_bytes(b"NOPE" + b"\0" * 20)
    with pytest.raises(ValueError, match="magic"):
        read_dataset(path)


def test_truncated_file_rejected(tmp_path):
    ds = small_dataset()
    path = tmp_path / "trunc.fav"
    write_dataset(ds, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 5])
    with pytest.raises(ValueError, match="truncated"):
        read_dataset(path)


def test_invalid_utf8_video_id_names_file_and_record(tmp_path):
    path = tmp_path / "bad_id.fav"
    record = struct.pack("<H", 2) + b"v\xff" + struct.pack("<II", 0, 1) + b"\0" * 12
    path.write_bytes(b"FAV1" + struct.pack("<IIIII", 1, 1, 2, 1, 3) + record)
    with pytest.raises(ValueError, match="video id of record 0 is not valid UTF-8") as err:
        read_dataset(path)
    assert str(path) in str(err.value)


HUGE = 0xFFFFFFFF


@pytest.mark.parametrize("field", ["num_labels", "num_frames"])
def test_dataset_length_past_end_of_file_rejected(tmp_path, field):
    # a corrupt u32 length must fail as a truncated file, not as a ~16 GB read
    path = tmp_path / f"huge_{field}.fav"
    record = struct.pack("<H", 1) + b"v"
    record += struct.pack("<II", HUGE, 0) if field == "num_labels" else struct.pack("<II", 0, HUGE)
    path.write_bytes(b"FAV1" + struct.pack("<IIIII", 1, 1, 2, 1, 3) + record)
    with pytest.raises(ValueError, match="truncated") as err:
        read_dataset(path)
    assert str(path) in str(err.value)


def test_eigenvalue_dim_past_end_of_file_rejected(tmp_path):
    path = tmp_path / "huge.eigv"
    path.write_bytes(b"EIGV" + struct.pack("<II", 1, HUGE) + struct.pack("<d", 1.0))
    with pytest.raises(ValueError, match="truncated") as err:
        load_eigenvalues(path)
    assert str(path) in str(err.value)


def test_label_out_of_range_rejected(tmp_path):
    ds = small_dataset()
    path = tmp_path / "bad_label.fav"
    ds.records[0].labels = np.array([3], dtype=np.uint32)
    write_dataset(ds, path)
    raw = bytearray(path.read_bytes())
    # num_classes lives in header bytes 20..24; shrink it below the used label
    raw[20:24] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="label"):
        read_dataset(path)


def test_record_needs_a_frame():
    with pytest.raises(ValueError, match="frame"):
        VideoRecord(video_id="x", labels=[0],
                    visual=np.zeros((0, 3), dtype=np.float32),
                    audio=np.zeros((0, 2), dtype=np.float32))


@pytest.mark.parametrize("dims,frames", [((2, 1), 0), ((HUGE, HUGE), 0), ((0, 0), HUGE)])
def test_file_record_without_frame_values_names_the_file(tmp_path, dims, frames):
    # rejected before the store is sized: no frame count or dim of a corrupt header allocates
    path = tmp_path / "no_frames.fav"
    record = struct.pack("<H", 1) + b"v" + struct.pack("<II", 0, frames)
    path.write_bytes(b"FAV1" + struct.pack("<IIIII", 1, 1, *dims, 3) + record)
    with pytest.raises(ValueError, match=f"'v': {frames} frames of {sum(dims)} values") as err:
        read_dataset(path)
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_noiseless_single_label_frames_equal_concepts():
    spec = SyntheticSpec(num_videos=6, num_classes=3, visual_dim=4, audio_dim=2,
                         frames_min=2, frames_max=3, labels_min=1, labels_max=1,
                         noise_sigma=0.0, seed=9)
    ds = gen_synthetic(spec)
    by_label = {}
    for r in ds.records:
        label = int(r.labels[0])
        frame = r.visual[0]
        assert np.array_equal(r.visual, np.tile(frame, (r.num_frames, 1)))
        if label in by_label:
            assert np.array_equal(by_label[label], frame)
        else:
            by_label[label] = frame
        assert abs(np.linalg.norm(frame.astype(np.float64)) - 1.0) < 1e-6


def test_same_seed_same_bytes(tmp_path):
    spec = SyntheticSpec(num_videos=10, num_classes=5, visual_dim=4, audio_dim=3, seed=33)
    p1, p2 = tmp_path / "a.fav", tmp_path / "b.fav"
    write_dataset(gen_synthetic(spec), p1)
    write_dataset(gen_synthetic(spec), p2)
    assert p1.read_bytes() == p2.read_bytes()
    different = gen_synthetic(SyntheticSpec(
        num_videos=10, num_classes=5, visual_dim=4, audio_dim=3, seed=34))
    p3 = tmp_path / "c.fav"
    write_dataset(different, p3)
    assert p1.read_bytes() != p3.read_bytes()


@pytest.mark.parametrize("spec, digest", [
    # odd visual/audio dims: a video's visual normals end mid-pair
    (SyntheticSpec(num_videos=40, num_classes=7, visual_dim=5, audio_dim=3, frames_min=1,
                   frames_max=6, labels_min=1, labels_max=4, noise_sigma=0.3, seed=2024),
     "eb4ce793398910f2b9f10a41cb2f07f5f49aa90f4c76bc5b4e87986446c08eea"),
    # fixed label and frame counts: their draws still consume a word each
    (SyntheticSpec(num_videos=25, num_classes=6, visual_dim=8, audio_dim=4, frames_min=3,
                   frames_max=3, labels_min=2, labels_max=2, seed=77),
     "17647c2b67522061a6389fa74d9f616e70826c6a97fcd9c1f0465bc4a8328127"),
])
def test_generator_bytes_are_pinned(tmp_path, spec, digest):
    """The FAV1 bytes of a spec never change: the digests pin the documented
    draw order, so a faster generator must reproduce it word for word."""
    path = tmp_path / "pinned.fav"
    write_dataset(gen_synthetic(spec), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def gen_synthetic_reference(spec):
    """The generator as one draw per quantity, in the documented order."""
    rng = Rng(spec.seed)
    concepts = []
    for dim in (spec.visual_dim, spec.audio_dim):
        m = rng.normal((spec.num_classes, dim))
        concepts.append(m / np.maximum(np.sqrt((m * m).sum(axis=1, keepdims=True)), 1e-12))
    records = []
    for v in range(spec.num_videos):
        n_labels = spec.labels_min + int(rng.integers(1, spec.labels_max - spec.labels_min + 1)[0])
        labels = np.sort(rng.choice_without_replacement(spec.num_classes, n_labels))
        m = spec.frames_min + int(rng.integers(1, spec.frames_max - spec.frames_min + 1)[0])
        frames = [c[labels].mean(axis=0)[None, :] + spec.noise_sigma * rng.normal((m, c.shape[1]))
                  for c in concepts]
        records.append(VideoRecord(f"v{v:06d}", labels, *frames))
    return Dataset(records, spec.num_classes, spec.visual_dim, spec.audio_dim)


@pytest.mark.parametrize("spec", [
    SyntheticSpec(num_videos=30, num_classes=9, visual_dim=7, audio_dim=5, frames_min=1,
                  frames_max=5, labels_min=1, labels_max=9, seed=5),
    SyntheticSpec(num_videos=20, num_classes=1, visual_dim=1, audio_dim=2, frames_min=2,
                  frames_max=3, labels_min=1, labels_max=1, seed=6),
])
def test_generator_matches_one_draw_per_quantity(tmp_path, spec):
    fast, slow = tmp_path / "fast.fav", tmp_path / "slow.fav"
    write_dataset(gen_synthetic(spec), fast)
    write_dataset(gen_synthetic_reference(spec), slow)
    assert fast.read_bytes() == slow.read_bytes()


@pytest.mark.parametrize("spec", [
    # noise over several chunks, odd dims
    SyntheticSpec(num_videos=120, num_classes=5, visual_dim=33, audio_dim=7, frames_min=20,
                  frames_max=40, labels_min=1, labels_max=3, noise_sigma=0.5, seed=8),
    # each video holds more words than a chunk
    SyntheticSpec(num_videos=2, num_classes=3, visual_dim=8192, audio_dim=3, frames_min=30,
                  frames_max=30, labels_min=1, labels_max=2, seed=12),
    # head words over several chunks
    SyntheticSpec(num_videos=250, num_classes=300, visual_dim=2, audio_dim=1, frames_min=1,
                  frames_max=3, labels_min=2, labels_max=5, seed=13),
    # every class can be a label; frames are exactly the concept means
    SyntheticSpec(num_videos=50, num_classes=6, visual_dim=4, audio_dim=3, frames_min=1,
                  frames_max=4, labels_min=1, labels_max=6, noise_sigma=0.0, seed=14),
], ids=["noise-chunks", "video-past-a-chunk", "head-chunks", "all-labels-no-noise"])
def test_chunked_generator_matches_one_draw_per_quantity(tmp_path, spec):
    # each spec crosses the chunk bounds it is named for
    assert min(120 * 20 * 40, 250 * 300) > 2 * CHUNK_WORDS and 30 * 8192 > CHUNK_WORDS
    fast, slow = tmp_path / "fast.fav", tmp_path / "slow.fav"
    write_dataset(gen_synthetic(spec), fast)
    write_dataset(gen_synthetic_reference(spec), slow)
    assert fast.read_bytes() == slow.read_bytes()


def test_label_means_are_each_videos_ndarray_mean():
    """float64 bytes, before the rounding to float32 that would hide a sum taken
    in another order or divided per label."""
    rng = np.random.default_rng(3)
    for dim in (1, 2, 5, 64):
        concepts = rng.standard_normal((12, dim))
        labels = [np.sort(rng.permutation(12)[:k]) for k in rng.integers(1, 13, size=40)]
        offsets = np.cumsum([0] + [len(x) for x in labels])
        (means,) = _label_means(np.concatenate(labels), offsets, (concepts,))
        assert np.array_equal(means, np.stack([concepts[x].mean(axis=0) for x in labels]))


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.5])
def test_noise_sigma_must_be_finite_and_non_negative(sigma):
    with pytest.raises(ValueError, match=f"noise_sigma must be a finite number >= 0, got {sigma}"):
        SyntheticSpec(num_videos=1, num_classes=4, visual_dim=2, audio_dim=2, noise_sigma=sigma)


def test_label_range_validation():
    with pytest.raises(ValueError, match="labels_max"):
        SyntheticSpec(num_videos=1, num_classes=4, visual_dim=2, audio_dim=2,
                      labels_min=1, labels_max=5)


def test_linear_probe_recovers_labels_with_high_gap():
    """Logistic regression on frame means must exceed GAP 0.9: the planted
    signal is linearly recoverable at the spec's desk-scale noise."""
    spec = SyntheticSpec(num_videos=2000, num_classes=20, visual_dim=64, audio_dim=16,
                         frames_min=8, frames_max=20, labels_min=1, labels_max=3,
                         noise_sigma=0.1, seed=77)
    ds = gen_synthetic(spec)
    feats = np.stack([
        np.concatenate([r.visual.mean(axis=0), r.audio.mean(axis=0)]) for r in ds.records
    ]).astype(np.float64)
    labels = np.zeros((len(ds.records), 20))
    for i, r in enumerate(ds.records):
        labels[i, r.labels] = 1.0

    # plain full-batch logistic regression, one sigmoid per class
    w = np.zeros((feats.shape[1], 20))
    b = np.zeros(20)
    lr = 0.5
    for _ in range(300):
        p = 1.0 / (1.0 + np.exp(-(feats @ w + b)))
        grad = p - labels
        w -= lr * feats.T @ grad / len(feats)
        b -= lr * grad.mean(axis=0)
    scores = 1.0 / (1.0 + np.exp(-(feats @ w + b)))
    preds = prediction_set_from_scores(
        [r.video_id for r in ds.records],
        [r.labels.tolist() for r in ds.records],
        scores, k=20)
    assert gap_at_20(preds) >= 0.9


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def test_full_length_records_have_all_ones_mask():
    ds = small_dataset()
    full = [r for r in ds.records]
    m_max = max(r.num_frames for r in full)
    batch = make_batch(full, m_max, ds.num_classes)
    expected = [r.num_frames for r in full]
    assert batch.video.lengths.tolist() == expected and batch.audio.lengths.tolist() == expected
    assert batch.video.frames.shape[0] == batch.audio.frames.shape[0] == sum(expected)


def test_mask_pattern_for_short_record():
    record = VideoRecord(video_id="x", labels=[0],
                         visual=np.ones((3, 2), dtype=np.float32),
                         audio=np.ones((3, 1), dtype=np.float32))
    batch = make_batch([record], 5, 2)
    assert batch.video.max_frames == 5 and batch.video.lengths.tolist() == [3]
    assert np.array_equal(batch.video.frames.data, record.visual)


def test_valid_frame_count_equals_clipped_lengths():
    ds = small_dataset(seed=8, videos=12)
    m_max = 2
    batch = make_batch(ds.records, m_max, ds.num_classes)
    expected = sum(min(r.num_frames, m_max) for r in ds.records)
    assert batch.video.frames.shape[0] == expected and batch.audio.frames.shape[0] == expected


def test_unmasked_extraction_recovers_frames():
    ds = small_dataset(seed=3)
    m_max = 6
    batch = make_batch(ds.records, m_max, ds.num_classes)
    first = 0
    for r in ds.records:
        m = min(r.num_frames, m_max)
        assert np.array_equal(batch.video.frames.data[first:first + m], r.visual[:m])
        assert np.array_equal(batch.audio.frames.data[first:first + m], r.audio[:m])
        first += m


def test_truncation_beyond_max_frames():
    record = VideoRecord(video_id="long", labels=[0],
                         visual=np.arange(12, dtype=np.float32).reshape(6, 2),
                         audio=np.zeros((6, 1), dtype=np.float32))
    batch = make_batch([record], 4, 1)
    assert batch.video.frames.shape == (4, 2)
    assert np.array_equal(batch.video.frames.data, record.visual[:4])
    assert batch.video.lengths[0] == 4


def test_labels_multi_hot():
    ds = small_dataset(seed=4)
    batch = make_batch(ds.records, 4, ds.num_classes)
    for i, r in enumerate(ds.records):
        row = batch.labels.data[i]
        assert set(np.nonzero(row)[0].tolist()) == set(r.labels.tolist())


@pytest.mark.parametrize("stream,value,word", [("visual", np.nan, "NaN"),
                                               ("audio", np.inf, "infinite")])
def test_non_finite_frames_rejected_naming_video(stream, value, word):
    records = small_dataset().records
    frames = getattr(records[2], stream)
    frames[0, 1] = value
    with pytest.raises(ValueError, match=f"{records[2].video_id}.*{word}.*{stream}"):
        make_batch(records, 8, 4)
    # frames cut off by max_frames never reach the model, so they pass
    frames[0, 1] = 0.0
    frames[-1, 1] = value
    make_batch(records, len(frames) - 1, 4)


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="empty"):
        make_batch([], 4, 2)
    with pytest.raises(ValueError, match="empty"):
        make_batch(small_dataset().rows([]), 4, 2)


def batch_by_record(records, max_frames, num_classes, dtype):
    """Each record's first frames appended one record at a time, the reference."""
    b = len(records)
    lengths = np.array([min(r.num_frames, max_frames) for r in records], np.int64)
    visual = np.concatenate([r.visual[:m] for r, m in zip(records, lengths)]).astype(dtype)
    audio = np.concatenate([r.audio[:m] for r, m in zip(records, lengths)]).astype(dtype)
    labels = np.zeros((b, num_classes), dtype)
    for i, r in enumerate(records):
        labels[i, r.labels] = 1.0
    return visual, audio, lengths, labels


def assert_batch_is(batch, records, max_frames, num_classes, dtype):
    visual, audio, lengths, labels = batch_by_record(records, max_frames, num_classes, dtype)
    for got, want in ((batch.video.frames.data, visual), (batch.audio.frames.data, audio),
                      (batch.video.lengths, lengths), (batch.audio.lengths, lengths),
                      (batch.labels.data, labels)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert batch.video_ids == [r.video_id for r in records]
    assert batch.video.max_frames == batch.audio.max_frames == max_frames


@pytest.fixture
def stored(tmp_path):
    """A FAV1 round trip of 23 videos of 1-6 frames; video 4 has no labels."""
    ds = gen_synthetic(SyntheticSpec(num_videos=23, num_classes=6, visual_dim=5, audio_dim=3,
                                     frames_min=1, frames_max=6, labels_min=1, labels_max=3,
                                     seed=12))
    ds.records[4].labels = np.zeros(0, np.uint32)
    path = tmp_path / "stored.fav"
    write_dataset(ds, path)
    return read_dataset(path)


@pytest.mark.parametrize("source", ["read", "records", "slice"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gathered_batches_match_per_record_padding(stored, source, dtype):
    if source == "read":
        ds = stored
    else:  # built from records: packs a copy when the dataset is built
        records = stored.records if source == "records" else stored.records[7:19]
        ds = Dataset(records, stored.num_classes, stored.visual_dim, stored.audio_dim)
    rng = Rng(31)
    selections = [np.arange(len(ds)), np.array([4]), np.array([len(ds) - 1, 0])]
    selections += [rng.permutation(len(ds))[:int(rng.integers(1, len(ds))[0]) + 1] for _ in range(6)]
    for idx in selections:
        for max_frames in (1, 3, 6, 9):  # 1 and 3 truncate, 9 pads every video
            batch = make_batch(ds.rows(idx), max_frames, ds.num_classes, dtype)
            assert_batch_is(batch, [ds.records[i] for i in idx], max_frames, ds.num_classes, dtype)
    listed = [ds.records[i] for i in selections[-1]]
    assert_batch_is(make_batch(listed, 4, ds.num_classes, dtype), listed, 4, ds.num_classes, dtype)


def test_read_records_are_views_of_the_store(stored):
    store = stored.store
    assert all(np.shares_memory(r.visual, store.frames[0]) and np.shares_memory(r.audio, store.frames[1])
               for r in stored.records)
    assert [len(a) for a in store.frames] == [store.offsets[-1]] * 2  # every row a record's
    # frames written in place reach the next batch
    stored.records[2].visual[1, 0] = 7.5
    video = make_batch(stored.rows([5, 2]), 4, stored.num_classes).video
    assert video.frames.data[video.lengths[0] + 1, 0] == 7.5


def test_records_built_dataset_holds_its_frames_once_and_sees_writes_after_a_batch(stored):
    ds = Dataset(stored.records[3:9], stored.num_classes, stored.visual_dim, stored.audio_dim)
    assert all(np.shares_memory(r.visual, ds.store.frames[0]) and np.shares_memory(r.audio, ds.store.frames[1])
               for r in ds.records)
    first = make_batch(ds.rows([1, 0]), 4, ds.num_classes)
    ds.records[0].audio[0, 2] = -3.25  # after the first batch
    audio = make_batch(ds.rows([1, 0]), 4, ds.num_classes).audio
    assert audio.frames.data[audio.lengths[0], 2] == -3.25
    assert first.audio.frames.data[first.audio.lengths[0], 2] != -3.25


@pytest.mark.parametrize("stream", ["visual", "audio"])
def test_nan_written_into_a_read_record_after_a_batch_is_named(stored, stream):
    make_batch(stored.rows([6, 1]), 4, stored.num_classes)
    getattr(stored.records[1], stream)[0, 1] = np.nan
    with pytest.raises(ValueError, match=f"{stored.records[1].video_id}.*NaN.*{stream}"):
        make_batch(stored.rows([6, 1]), 4, stored.num_classes)


@pytest.mark.parametrize("stream,value,word", [("visual", np.nan, "NaN"),
                                               ("audio", -np.inf, "infinite")])
def test_non_finite_frame_is_found_once_and_counted_within_max_frames(tmp_path, stream, value, word):
    ds = small_dataset(seed=5, videos=9)
    long = max(range(1, len(ds)), key=lambda i: ds.records[i].num_frames)  # not the store's first
    m = ds.records[long].num_frames
    getattr(ds.records[long], stream)[m - 1, 1] = value
    path = tmp_path / "bad.fav"
    write_dataset(ds, path)
    for source in (read_dataset(path), ds):
        others = [i for i in range(len(ds)) if i != long][:3]
        make_batch(source.rows(others + [long]), m - 1, ds.num_classes)  # cut off: never seen
        with pytest.raises(ValueError, match=f"{ds.records[long].video_id}.*{word}.*{stream}"):
            make_batch(source.rows(others + [long]), m, ds.num_classes)


# ---------------------------------------------------------------------------
# EIGV
# ---------------------------------------------------------------------------


def test_eigenvalues_roundtrip_exact(tmp_path):
    values = 0.25 + Rng(70).uniform((17,)) * 10
    path = tmp_path / "eig.eigv"
    write_eigenvalues(Eigenvalues(values), path)
    back = load_eigenvalues(path)
    assert np.array_equal(back.values, values)


def test_eigenvalues_unit_file_identity(tmp_path):
    path = tmp_path / "ones.eigv"
    write_eigenvalues(Eigenvalues([1.0, 1.0]), path)
    eig = load_eigenvalues(path, expected_dim=2)
    from nextvlad.model import reverse_whitening
    from nextvlad.autodiff import Tensor

    x = Rng(71).normal((3, 2), dtype=np.float32)
    assert np.array_equal(reverse_whitening(Tensor(x), np.sqrt(eig.values)).data, x)


def test_eigenvalues_zero_rejected_with_index(tmp_path):
    path = tmp_path / "zero.eigv"
    write_eigenvalues(Eigenvalues([1.0, 2.0]), path)
    raw = bytearray(path.read_bytes())
    raw[12:20] = np.float64(0.0).tobytes()  # first value after the 12-byte header
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="index 0"):
        load_eigenvalues(path)


@pytest.mark.parametrize("value, shown", [(-1.0, "-1.0"), (np.nan, "nan"), (np.inf, "inf"),
                                          (1e68, "1e+68")])
def test_eigenvalue_errors_name_the_file_and_a_plain_value(tmp_path, value, shown):
    path = tmp_path / "bad.eigv"
    write_eigenvalues(Eigenvalues([1.0, 2.0]), path)
    raw = bytearray(path.read_bytes())
    raw[20:28] = np.float64(value).tobytes()  # the second value
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as info:
        load_eigenvalues(path)
    assert str(info.value) == f"{path}: eigenvalue at index 1 is {shown}, must be in (0, 3.403e+38]"


def test_eigenvalues_bad_magic_and_dim(tmp_path):
    path = tmp_path / "bad.eigv"
    path.write_bytes(b"XXXX" + b"\0" * 8)
    with pytest.raises(ValueError, match="magic"):
        load_eigenvalues(path)
    good = tmp_path / "good.eigv"
    write_eigenvalues(Eigenvalues([1.0, 2.0, 3.0]), good)
    with pytest.raises(ValueError, match="expected 5"):
        load_eigenvalues(good, expected_dim=5)
