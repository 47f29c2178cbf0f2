"""Dataset container, bit-exact binary formats, synthetic generator, batching.

File formats (all integers little-endian):

FAV1 dataset
    magic "FAV1", version u32 = 1,
    num_videos u32, visual_dim u32, audio_dim u32, num_classes u32;
    per record: id_len u16, id UTF-8, num_labels u32, label ids u32 each,
    M u32, visual f32 row-major (M x visual_dim), audio f32 row-major
    (M x audio_dim).

EIGV eigenvalues
    magic "EIGV", version u32 = 1, dim u32, dim f64 values.

The synthetic generator plants one unit "concept" vector per class and
stream; every frame of a video is the mean of its labels' concepts plus
gaussian noise, so the labels are linearly recoverable from frame averages
and a desk-scale run has real signal to find.  Generation is a pure
function of the spec (same seed, same bytes).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .autodiff import Tensor
from .model import Eigenvalues
from .rng import Rng, words_to_integers, words_to_normals, words_to_permutation
from .vlad import FrameBatchView

DATASET_MAGIC = b"FAV1"
EIGENVALUES_MAGIC = b"EIGV"
FORMAT_VERSION = 1


@dataclass
class VideoRecord:
    video_id: str
    labels: np.ndarray  # sorted unique class ids, uint32
    visual: np.ndarray  # (M, visual_dim) float32
    audio: np.ndarray  # (M, audio_dim) float32

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint32)
        self.visual = np.asarray(self.visual, dtype=np.float32)
        self.audio = np.asarray(self.audio, dtype=np.float32)
        if self.visual.ndim != 2 or self.audio.ndim != 2:
            raise ValueError(f"{self.video_id!r}: frame arrays must be 2-d")
        if self.visual.shape[0] < 1:
            raise ValueError(f"{self.video_id!r}: need at least one frame")
        if self.visual.shape[0] != self.audio.shape[0]:
            raise ValueError(f"{self.video_id!r}: visual/audio frame counts differ")

    @property
    def num_frames(self) -> int:
        return self.visual.shape[0]


@dataclass
class Dataset:
    """Records and the ``FrameStore`` batches are gathered from.  The store is
    packed when the dataset is built (``read_dataset`` reads frames straight into
    it), and each record's frames are rebound to views of it: a record belongs to
    the last dataset built from it, and frames written in place reach its batches."""

    records: list
    num_classes: int
    visual_dim: int
    audio_dim: int
    store: Optional["FrameStore"] = field(default=None, repr=False, compare=False)  # given packed

    def __post_init__(self):
        for r in self.records:
            if r.visual.shape[1] != self.visual_dim or r.audio.shape[1] != self.audio_dim:
                raise ValueError(f"{r.video_id!r}: frame dims disagree with dataset dims")
        labels = np.concatenate([r.labels for r in self.records] + [np.zeros(0, np.uint32)])
        if labels.size and int(labels.max()) >= self.num_classes:  # then find the first such video
            r = next(r for r in self.records if r.labels.size and int(r.labels.max()) >= self.num_classes)
            raise ValueError(f"{r.video_id!r}: label {int(r.labels.max())} >= num_classes {self.num_classes}")
        if self.store is None:
            self.store = FrameStore.of(self.records, (self.visual_dim, self.audio_dim))
            offsets = self.store.offsets.tolist()
            for r, lo, hi in zip(self.records, offsets, offsets[1:]):
                r.visual, r.audio = (a[lo:hi] for a in self.store.frames)

    def __len__(self) -> int:
        return len(self.records)

    def rows(self, index) -> "Rows":
        return Rows(self.store, np.asarray(index))


class FrameStore(NamedTuple):
    """Records packed in order (``of`` copies them, unless given them packed): record i
    is rows ``offsets[i]:offsets[i + 1]`` of each (F, N) float32 array of ``frames``
    (visual, audio) and ``label_offsets[i]:label_offsets[i + 1]`` of ``label_ids``."""

    records: list
    frames: tuple
    offsets: np.ndarray
    label_offsets: np.ndarray
    label_ids: np.ndarray

    @staticmethod
    def of(records: list, dims: tuple, frames: Optional[tuple] = None) -> "FrameStore":
        frames = frames or tuple(np.concatenate([getattr(r, s) for r in records] + [np.zeros((0, n), "<f4")])
                                 for s, n in zip(("visual", "audio"), dims))
        return FrameStore(records, frames, np.cumsum([0] + [r.num_frames for r in records]),
                          np.cumsum([0] + [r.labels.size for r in records]),
                          np.concatenate([r.labels for r in records] + [np.zeros(0, np.uint32)]))


class Rows(NamedTuple):  # records ``index`` of a store, in that order: a batch for make_batch
    store: FrameStore
    index: np.ndarray


def first_non_finite_row(frames: tuple) -> Optional[int]:
    """The first row holding a NaN or an inf in any of ``frames``, arrays (R, N_i),
    or None.  Max and min are finite only where every value is, and unlike isfinite
    need no (R, N) temporary, so only a failing check makes one."""
    if all(np.isfinite(a.max(initial=0)) and np.isfinite(a.min(initial=0)) for a in frames):
        return None
    return int(np.argmin(np.all([np.isfinite(a).all(axis=1) for a in frames], axis=0)))


# ---------------------------------------------------------------------------
# FAV1 io
# ---------------------------------------------------------------------------


def write_dataset(dataset: Dataset, path) -> None:
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<IIIII", FORMAT_VERSION, len(dataset.records),
                            dataset.visual_dim, dataset.audio_dim, dataset.num_classes))
        for r in dataset.records:
            ident = r.video_id.encode("utf-8")
            f.write(struct.pack("<H", len(ident)))
            f.write(ident)
            f.write(struct.pack("<I", len(r.labels)))
            f.write(r.labels.astype("<u4").tobytes())
            f.write(struct.pack("<I", r.num_frames))
            f.write(r.visual.astype("<f4").tobytes())
            f.write(r.audio.astype("<f4").tobytes())


class _Reader:
    def __init__(self, f, path):
        self.f = f
        self.path = path
        self.left = os.fstat(f.fileno()).st_size - f.tell()

    def take(self, n: int) -> bytes:
        # compared before reading, so a corrupt length never allocates its bytes
        buf = self.f.read(n) if n <= self.left else b""
        if len(buf) != n:
            raise ValueError(f"{self.path}: truncated file (wanted {n} bytes, {self.left} left)")
        self.left -= n
        return buf

    def skip(self, n: int) -> None:
        if n > self.left:
            raise ValueError(f"{self.path}: truncated file (wanted {n} bytes, {self.left} left)")
        self.f.seek(n, os.SEEK_CUR)
        self.left -= n

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int, field: str) -> str:
        """``n`` bytes decoded as UTF-8; ``field`` names them in the error."""
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{self.path}: {field} is not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def read_dataset(path) -> Dataset:
    """Frames go straight into the store, in a second pass after every length is checked."""
    with open(path, "rb") as f:
        r = _Reader(f, path)
        if r.take(4) != DATASET_MAGIC:
            raise ValueError(f"{path}: bad magic, not a FAV1 dataset")
        version, num_videos, visual_dim, audio_dim, num_classes = r.unpack("<IIIII")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        heads = []  # (video id, labels, frame count, file position of its frames)
        for i in range(num_videos):
            (id_len,) = r.unpack("<H")
            video_id = r.text(id_len, f"video id of record {i}")
            (num_labels,) = r.unpack("<I")
            labels = np.frombuffer(r.take(4 * num_labels), dtype="<u4").copy()
            (m,) = r.unpack("<I")
            if m < 1 or visual_dim + audio_dim < 1:  # else the frames would not bound the store
                raise ValueError(f"{path}: record {video_id!r}: {m} frames of {visual_dim + audio_dim} values")
            heads.append((video_id, labels, m, f.tell()))
            r.skip(4 * m * (visual_dim + audio_dim))
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after last record")
        offsets = np.cumsum([0] + [m for _, _, m, _ in heads])
        frames = tuple(np.zeros((offsets[-1], n), "<f4") for n in (visual_dim, audio_dim))
        records = []
        for (video_id, labels, m, pos), at in zip(heads, offsets):
            f.seek(pos)
            visual, audio = (a[at:at + m] for a in frames)
            if f.readinto(visual) + f.readinto(audio) != visual.nbytes + audio.nbytes:
                raise ValueError(f"{path}: truncated file (record {video_id!r} changed under the read)")
            records.append(VideoRecord(video_id=video_id, labels=labels, visual=visual, audio=audio))
    try:  # the label bound is the dataset's check
        return Dataset(records=records, num_classes=num_classes, visual_dim=visual_dim, audio_dim=audio_dim,
                       store=FrameStore.of(records, (visual_dim, audio_dim), frames))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    num_videos: int
    num_classes: int
    visual_dim: int
    audio_dim: int
    frames_min: int = 8
    frames_max: int = 20
    labels_min: int = 1
    labels_max: int = 3
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if min(self.num_videos, self.num_classes, self.visual_dim, self.audio_dim) < 1:
            raise ValueError("num_videos, num_classes and dims must be >= 1")
        if self.frames_min < 1 or self.frames_min > self.frames_max:
            raise ValueError(f"bad frame range [{self.frames_min}, {self.frames_max}]")
        if self.labels_min < 1 or self.labels_min > self.labels_max:
            raise ValueError(f"bad label range [{self.labels_min}, {self.labels_max}]")
        if self.labels_max > self.num_classes:
            raise ValueError(
                f"labels_max {self.labels_max} exceeds num_classes {self.num_classes}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def _unit_rows(rng: Rng, rows: int, cols: int) -> np.ndarray:
    m = rng.normal((rows, cols))
    norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
    return m / np.maximum(norms, 1e-12)


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministically generate a planted-concept multi-label dataset.

    Per video the stream holds, in order: a label-count word, the C-1 words
    of a label permutation (the first n_labels entries are the labels), a
    frame-count word, then the visual and the audio noise normals, each
    rounded up to whole Box-Muller pairs.  They are taken in two draws, the
    C+1 count and permutation words and then all the normals; the visual
    block has an even word count, so the audio pairs stay aligned.
    """
    rng = Rng(spec.seed)
    visual_concepts = _unit_rows(rng, spec.num_classes, spec.visual_dim)
    audio_concepts = _unit_rows(rng, spec.num_classes, spec.audio_dim)
    c = spec.num_classes
    spans = np.array([spec.labels_max - spec.labels_min + 1, spec.frames_max - spec.frames_min + 1])
    lows = np.array([spec.labels_min, spec.frames_min])

    # frames go straight into the store, sized for frames_max per video: the rows
    # past the last video's are never written, so their pages are never touched
    dims = (spec.visual_dim, spec.audio_dim)
    frames = tuple(np.empty((spec.num_videos * spec.frames_max, n), "<f4") for n in dims)
    records, at = [], 0
    for v in range(spec.num_videos):
        head = rng.next_u64(c + 1)
        n_labels, m = (lows + words_to_integers(head[[0, c]], spans)).tolist()
        labels = np.sort(words_to_permutation(head[1:c], c)[:n_labels])
        n_visual, n_audio = m * spec.visual_dim, m * spec.audio_dim
        visual_words = n_visual + n_visual % 2
        noise = spec.noise_sigma * words_to_normals(rng.next_u64(visual_words + n_audio + n_audio % 2))

        visual, audio = (a[at:at + m] for a in frames)
        visual[:] = visual_concepts[labels].mean(axis=0) + noise[:n_visual].reshape(m, spec.visual_dim)
        audio[:] = (audio_concepts[labels].mean(axis=0)
                    + noise[visual_words:visual_words + n_audio].reshape(m, spec.audio_dim))
        records.append(VideoRecord(video_id=f"v{v:06d}", labels=labels.astype(np.uint32),
                                   visual=visual, audio=audio))
        at += m
    frames = tuple(a[:at] for a in frames)
    return Dataset(records=records, num_classes=spec.num_classes, visual_dim=spec.visual_dim,
                   audio_dim=spec.audio_dim, store=FrameStore.of(records, dims, frames))


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    video: FrameBatchView
    audio: FrameBatchView
    labels: Tensor  # (B, C) multi-hot
    video_ids: list


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The places starts[i] : starts[i] + counts[i], concatenated: each start, less
    its range's first place in the result, plus that place."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def make_batch(selection, max_frames: int, num_classes: int, dtype=np.float32) -> Batch:
    """Each video's first ``max_frames`` frames, packed, and its labels.  ``selection``
    is ``dataset.rows(index)``, one ``take`` per stream from the dataset's store, or a
    list of records, packed on the spot.  A NaN or inf among the gathered frames
    names the first video in batch order that holds one."""
    if not isinstance(selection, Rows):
        dims = (selection[0].visual.shape[1], selection[0].audio.shape[1]) if selection else (0, 0)
        selection = Rows(FrameStore.of(selection, dims), np.arange(len(selection)))
    store, idx = selection
    if not idx.size:
        raise ValueError("empty batch")
    starts = store.offsets[idx]
    lengths = np.minimum(store.offsets[idx + 1] - starts, max_frames)
    at = _ranges(starts, lengths)
    visual, audio = (a.take(at, axis=0).astype(dtype, copy=False) for a in store.frames)
    bad = first_non_finite_row((visual, audio))
    if bad is not None:
        i = int(np.searchsorted(np.cumsum(lengths), bad, side="right"))  # the video holding row bad
        own = slice(lengths[:i].sum(), lengths[:i + 1].sum())  # video i's packed rows
        stream, frames = (("visual", visual[own]) if not np.isfinite(visual[own]).all()
                          else ("audio", audio[own]))
        kind = "NaN" if np.isnan(frames).any() else "infinite"
        raise ValueError(f"video {store.records[idx[i]].video_id!r}: {kind} value in {stream} frames")
    label_starts = store.label_offsets[idx]
    counts = store.label_offsets[idx + 1] - label_starts
    labels = np.zeros((idx.size, num_classes), dtype=dtype)
    labels[np.repeat(np.arange(idx.size), counts), store.label_ids[_ranges(label_starts, counts)]] = 1.0
    return Batch(
        video=FrameBatchView(Tensor(visual), lengths, max_frames),
        audio=FrameBatchView(Tensor(audio), lengths, max_frames),
        labels=Tensor(labels),
        video_ids=[store.records[i].video_id for i in idx],
    )


# ---------------------------------------------------------------------------
# EIGV io
# ---------------------------------------------------------------------------


def write_eigenvalues(eig: Eigenvalues, path) -> None:
    with open(path, "wb") as f:
        f.write(EIGENVALUES_MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(eig)))
        f.write(eig.values.astype("<f8").tobytes())


def load_eigenvalues(path, expected_dim: Optional[int] = None) -> Eigenvalues:
    with open(path, "rb") as f:
        r = _Reader(f, path)
        if r.take(4) != EIGENVALUES_MAGIC:
            raise ValueError(f"{path}: bad magic, not an EIGV file")
        version, dim = r.unpack("<II")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        values = np.frombuffer(r.take(8 * dim), dtype="<f8").copy()
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes")
    if expected_dim is not None and dim != expected_dim:
        raise ValueError(f"{path}: {dim} eigenvalues, expected {expected_dim}")
    try:
        return Eigenvalues(values)  # the value range (with index) is checked by the type
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
