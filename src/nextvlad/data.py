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

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .autodiff import Tensor
from .model import Eigenvalues
from .rng import CHUNK_WORDS, GAMMA, Rng, mix64, words_at, words_to_integers, words_to_normals
from .vlad import FrameBatchView

DATASET_MAGIC = b"FAV1"
EIGENVALUES_MAGIC = b"EIGV"
FORMAT_VERSION = 1
WRITE_BYTES = 1 << 20  # write_dataset joins records into writes of about this many bytes


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


@contextmanager
def atomic_write(path, mode: str = "wb", **open_args):
    """A file for the body to write, ``path.tmp``, moved onto ``path`` when the body
    returns: ``path`` holds the whole new file or, if the body raises, its old bytes."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_args) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_dataset(dataset: Dataset, path) -> None:
    with atomic_write(path) as f:
        parts = [DATASET_MAGIC, struct.pack("<IIIII", FORMAT_VERSION, len(dataset.records),
                                            dataset.visual_dim, dataset.audio_dim, dataset.num_classes)]
        size = 0
        for r in dataset.records:
            ident = r.video_id.encode("utf-8")
            parts += (struct.pack("<H", len(ident)), ident, struct.pack("<I", len(r.labels)),
                      r.labels.astype("<u4").tobytes(), struct.pack("<I", r.num_frames),
                      np.ascontiguousarray(r.visual, "<f4"), np.ascontiguousarray(r.audio, "<f4"))
            size += r.visual.nbytes + r.audio.nbytes
            if size >= WRITE_BYTES:
                f.write(b"".join(parts))
                parts, size = [], 0
        f.write(b"".join(parts))


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
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be a finite number >= 0, got {self.noise_sigma}")


def _unit_rows(rng: Rng, rows: int, cols: int) -> np.ndarray:
    m = rng.normal((rows, cols))
    norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
    return m / np.maximum(norms, 1e-12)


def _label_means(label_ids: np.ndarray, label_offsets: np.ndarray, concepts: tuple) -> tuple:
    """Per array of ``concepts`` (C, N), the (V, N) float64 means of its rows at each
    video's labels, ``label_ids[label_offsets[v]:label_offsets[v + 1]]``: ``ndarray.mean``
    over the videos of one label count at a time, so each sums its labels in order."""
    counts = np.diff(label_offsets)
    means = tuple(np.empty((counts.size, a.shape[1])) for a in concepts)
    for k in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == k)
        chosen = label_ids[_ranges(label_offsets[rows], np.full(rows.size, k))].reshape(-1, k)
        for mean, a in zip(means, concepts):
            mean[rows] = a[chosen].mean(axis=1)
    return means


def gen_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministically generate a planted-concept multi-label dataset.

    After the visual and the audio concepts (C x N normals each), the stream
    holds per video, in order: a label-count word, the C-1 words of a label
    permutation (the first n_labels entries, sorted, are the labels), a
    frame-count word, then the visual and the audio noise normals, each
    rounded up to whole Box-Muller pairs.  So video v + 1 starts where video
    v's frame count says: a walk over the frame-count words alone, in Python
    integers, gives every video's counter position and frame count, and the
    store's exact size, before any frame is drawn.  Every other word is then
    drawn by its position (``words_at``), in two chunked passes of about
    ``CHUNK_WORDS`` words each: the head words of a chunk of videos, with
    one Fisher-Yates over all of them (a column swap per position, C-1 down
    to 1); then the noise words of a chunk of videos through one
    ``words_to_normals`` (each noise block has an even number of words, so
    the pairs stay aligned).  A frame is its labels' concept mean plus its
    noise, added in float64 and rounded once to float32.
    """
    rng = Rng(spec.seed)
    concepts = tuple(_unit_rows(rng, spec.num_classes, n) for n in (spec.visual_dim, spec.audio_dim))
    n, c, seed, dims = spec.num_videos, spec.num_classes, spec.seed, (spec.visual_dim, spec.audio_dim)
    span = spec.frames_max - spec.frames_min + 1
    starts, counts, at = [], [], rng.counter
    for _ in range(n):  # the walk; the frame count is words_to_integers of the word at offset c
        word = mix64(seed + (at + c + 1) * GAMMA)
        m = spec.frames_min + min(int((word >> 11) * 2.0 ** -53 * span), span - 1)
        starts.append(at)
        counts.append(m)
        at += c + 1 + m * dims[0] + m * dims[0] % 2 + m * dims[1] + m * dims[1] % 2
    starts, counts = np.array(starts, np.int64), np.array(counts, np.int64)

    label_ids, label_counts, step = [], [], max(CHUNK_WORDS // c, 1)
    for lo in range(0, n, step):  # the head words of `step` videos
        head = words_at(seed, starts[lo:lo + step, None] + np.arange(c))
        n_labels = spec.labels_min + words_to_integers(head[:, 0], spec.labels_max - spec.labels_min + 1)
        perm, rows = np.tile(np.arange(c), (len(head), 1)), np.arange(len(head))
        for i, j in zip(range(c - 1, 0, -1), words_to_integers(head[:, 1:], np.arange(c, 1, -1)).T):
            swapped = perm[:, i].copy()
            perm[:, i] = perm[rows, j]
            perm[rows, j] = swapped
        chosen = np.where(np.arange(spec.labels_max) < n_labels[:, None], perm[:, :spec.labels_max], c)
        chosen.sort(axis=1)
        label_ids.append(chosen[chosen < c].astype(np.uint32))  # row by row, c (not taken) last
        label_counts.append(n_labels)
    label_ids = np.concatenate(label_ids)
    label_offsets = np.concatenate(([0], np.cumsum(np.concatenate(label_counts))))

    values = tuple(counts * d for d in dims)  # noise values per video and stream
    words = tuple(v + v % 2 for v in values)
    ends = starts + c + 1 + words[0] + words[1]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    frames = tuple(np.empty((offsets[-1], d), "<f4") for d in dims)
    lo = 0
    while lo < n:  # the noise words of videos lo:hi
        hi = max(int(np.searchsorted(ends, starts[lo] + CHUNK_WORDS, "right")), lo + 1)
        block = words[0][lo:hi] + words[1][lo:hi]
        noise = spec.noise_sigma * words_to_normals(words_at(seed, _ranges(starts[lo:hi] + c + 1, block)))
        block_ends = np.cumsum(block)
        means = _label_means(label_ids, label_offsets[lo:hi + 1], concepts)
        for a, mean, first, v in zip(frames, means, (block_ends - block, block_ends - words[1][lo:hi]), values):
            a[offsets[lo]:offsets[hi]] = (noise[_ranges(first, v[lo:hi])].reshape(-1, a.shape[1])
                                          + np.repeat(mean, counts[lo:hi], axis=0))
        lo = hi
    rec, lab = offsets.tolist(), label_offsets.tolist()
    records = [VideoRecord(f"v{v:06d}", label_ids[lab[v]:lab[v + 1]], *(a[rec[v]:rec[v + 1]] for a in frames))
               for v in range(n)]
    return Dataset(records=records, num_classes=c, visual_dim=dims[0], audio_dim=dims[1],
                   store=FrameStore(records, frames, offsets, label_offsets, label_ids))


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
    with atomic_write(path) as f:
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
