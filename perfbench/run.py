"""Benchmark of the nextvlad package: training and scoring throughput,
set-up time, memory and final GAP@20 on fixed synthetic workloads, plus a
traced mode that reports per-layer self times.  See perfbench/README.md.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

One process runs one workload as a closed loop with a single caller.  The
package is imported from this checkout's ``src/`` and driven only through
its public functions.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads BLAS: on a shared host of two
# cores a second BLAS thread measures the scheduler more than the program,
# and Speed below times the one core the run uses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import dataclasses
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

TAG_DATA = 0xDA7A
TAG_TRAIN = 0x7A1E
SETUPS = 5  # per run; setup_s is their median
REPEATS = 3  # timed checkpoint round trips per traced run
WARMUP_STEPS = 3
MIN_TRAIN_REPEATS = 2  # the determinism check compares two repeats
MIN_EVAL_PASSES = 3
TRAIN_SHARE = 0.6  # of --seconds; scoring passes fill the rest
CAPTURED_STEPS = 5  # training steps whose layer inputs the traced run replays
REFERENCE_S = 0.5e-3  # Speed's loop time on an idle core; timings are scaled to it
SPEED_LOOPS = 10  # speed loops timed before and after each set-up and scoring pass


@dataclass(frozen=True)
class Workload:
    videos: int
    classes: int
    visual_dim: int
    audio_dim: int
    frames: tuple  # (min, max) frames per video; batches pad to max
    kind: str  # "nextvlad" or "netvlad"
    clusters: tuple  # (video K, audio K)
    groups: int
    hidden: int
    experts: int  # 1, or 3 for the distilled mixture
    base_lr: float
    epochs: int  # fixed training budget of one repeat; final_gap is taken after it
    batch: int = 64

    def __post_init__(self):
        if self.visual_dim == self.audio_dim:
            raise ValueError("the trace tells the two streams apart by feature dim")


DESK = Workload(videos=2000, classes=20, visual_dim=64, audio_dim=16, frames=(8, 20),
                kind="nextvlad", clusters=(8, 8), groups=4, hidden=128, experts=1,
                base_lr=1e-3, epochs=2)
WORKLOADS = {
    "desk": DESK,
    # 640 videos keep five set-ups per run affordable; lr 5e-4 gives a
    # GAP after 4 epochs that varies little across seeds.
    "wide": Workload(videos=640, classes=100, visual_dim=256, audio_dim=32, frames=(10, 30),
                     kind="nextvlad", clusters=(32, 32), groups=8, hidden=512, experts=1,
                     base_lr=5e-4, epochs=4),
    "mixture": dataclasses.replace(DESK, experts=3),
    "desk-netvlad": dataclasses.replace(DESK, kind="netvlad", clusters=(6, 3)),
}

END_TO_END_UNITS = {
    "train_videos_per_s": "videos/s",
    "eval_videos_per_s": "videos/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_gap": "ratio",
}
PER_LAYER_UNITS = {
    "rng.shuffle_ms": "ms",
    "data.make_batch_ms": "ms",
    "train.data_wait_ms": "ms",
    "data.gen_synthetic_s": "s",
    "data.write_dataset_s": "s",
    "data.read_dataset_s": "s",
    "model.init_s": "s",
    "vlad.video_fw_ms": "ms",
    "vlad.audio_fw_ms": "ms",
    "vlad.video_bw_ms": "ms",
    "vlad.audio_bw_ms": "ms",
    "model.reduce_fw_ms": "ms",
    "model.reduce_bw_ms": "ms",
    "model.se_gating_fw_ms": "ms",
    "model.se_gating_bw_ms": "ms",
    "model.head_self_ms": "ms",
    "losses.fw_ms": "ms",
    "losses.bw_ms": "ms",
    "autodiff.backward_ms": "ms",
    "autodiff.nodes_per_step": "count",
    "train.adam_ms": "ms",
    "train.step_ms_p50": "ms",
    "train.step_ms_p95": "ms",
    "train.step_samples": "count",
    "train.checkpoint_save_ms": "ms",
    "train.checkpoint_load_ms": "ms",
    "metrics.topk_ms": "ms",
    "metrics.gap_ms": "ms",
    "trace.overhead_pct": "%",
}
SETUP_SPANS = {"data.gen_synthetic": "data.gen_synthetic_s", "data.write_dataset": "data.write_dataset_s",
               "data.read_dataset": "data.read_dataset_s", "model.init": "model.init_s"}
REPLAYED = {"vlad.video": "vlad.video_bw_ms", "vlad.audio": "vlad.audio_bw_ms",
            "model.reduce": "model.reduce_bw_ms", "model.se_gating": "model.se_gating_bw_ms",
            "losses": "losses.bw_ms"}


def load_package():
    """Import nextvlad from this checkout's src/, never from elsewhere."""
    package = SRC / "nextvlad"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {package}")
    sys.path.insert(0, str(SRC))
    import nextvlad

    if Path(nextvlad.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported nextvlad from {nextvlad.__file__}, not {package}")
    return nextvlad


class Ops:
    """Operations attempted and failed.  A failing operation is recorded
    and the run goes on with whatever does not depend on it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, name, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the run must report, not crash
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{name}: check failed")

    def verify(self, name, fn, *args) -> None:
        """Run a check that may itself raise."""
        ok = self.run(name, fn, *args)
        if ok is not None and not ok:
            self.failed += 1
            self.errors.append(f"{name}: check failed")


class Speed:
    """Speed of the core the run is on, timed with a fixed loop of small
    numpy operations (matmul, tanh, mean, norm in float32) that does not
    touch the package.

    On a shared host the core runs up to half slower for spells of seconds
    to minutes, so one run can fall wholly in a slow spell and no median
    within it removes that.  Each timed interval is therefore scaled by
    REFERENCE_S over this loop's time measured next to it: a reported rate
    is the rate on a core where the loop takes REFERENCE_S.  The loop does
    not depend on the package, so a change to the package moves the scaled
    rate as much as the raw one.
    """

    def __init__(self):
        gen = np.random.default_rng(0)
        self._weights = gen.standard_normal((64, 64)).astype(np.float32)
        self._frames = gen.standard_normal((8, 20, 64)).astype(np.float32)
        self.loops: list[float] = []  # every loop time, for the run record

    def loop(self) -> float:
        t0 = time.perf_counter()
        x = self._frames
        for _ in range(8):
            y = x @ self._weights
            y = np.tanh(y) * 0.5 + y.mean(axis=1, keepdims=True)
            x = (y / (np.linalg.norm(y, axis=-1, keepdims=True) + 1.0)).astype(np.float32)
        float(x.sum())
        elapsed = time.perf_counter() - t0
        self.loops.append(elapsed)
        return elapsed

    def timed(self, fn, *args, between=None):
        """Run ``fn(*args)`` between loops.  ``between`` is an optional
        (owner, attribute) naming a function ``fn`` calls many times; a loop
        then also runs before each of those calls, and its time is left out.
        Returns the result, the seconds it took and those seconds scaled to
        the reference speed."""
        loops = [self.loop() for _ in range(SPEED_LOOPS)]
        inner: list[float] = []
        if between is not None:
            owner, attr = between
            original = getattr(owner, attr)

            def with_loop(*a, **kw):
                inner.append(self.loop())
                return original(*a, **kw)

            setattr(owner, attr, with_loop)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            if between is not None:
                setattr(owner, attr, original)
        elapsed = time.perf_counter() - t0 - sum(inner)
        loops += inner + [self.loop() for _ in range(SPEED_LOOPS)]
        return result, elapsed, elapsed * REFERENCE_S / statistics.median(loops)


class StepClock:
    """Timestamps the end of every Adam update, the last work of a training
    step, so step and epoch times exclude the evaluation ``train_loop`` runs
    after its final step.  With a ``Speed``, one speed loop runs after each
    step, outside the step's time.  This is the only hook of the untraced
    run."""

    def __init__(self, train_module, speed: Speed | None):
        self.ends: list[float] = []
        self.resumes: list[float] = []  # when the step after each one starts
        self.loops: list[float] = []  # speed loop time after each step
        self._module = train_module
        self._original = train_module.adam_step

        def adam_step(*args, **kwargs):
            self._original(*args, **kwargs)
            self.ends.append(time.perf_counter())
            if speed is not None:
                self.loops.append(speed.loop())
            self.resumes.append(time.perf_counter())

        train_module.adam_step = adam_step

    def clear(self) -> None:
        self.ends.clear()
        self.resumes.clear()
        self.loops.clear()

    def uninstall(self) -> None:
        self._module.adam_step = self._original


def _same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Bench:
    """One workload at one seed: inputs, fresh training states and checks."""

    def __init__(self, nv, w: Workload, seed: int, workdir: Path):
        self.nv = nv
        self.w = w
        self.workdir = workdir
        derive = nv.rng.derive_seed
        self.spec = nv.data.SyntheticSpec(
            num_videos=w.videos, num_classes=w.classes, visual_dim=w.visual_dim,
            audio_dim=w.audio_dim, frames_min=w.frames[0], frames_max=w.frames[1],
            seed=derive(seed, TAG_DATA))
        mixture = w.experts == 3
        train_seed = derive(seed, TAG_TRAIN)
        self.init_seed = derive(train_seed, nv.train.TAG_INIT)
        self.cfg = nv.train.TrainConfig(
            loss=nv.losses.LossConfig(num_classes=w.classes, temperature=3.0 if mixture else 0.0,
                                      kd_enabled=mixture),
            base_lr=w.base_lr, batch_size=w.batch, epochs=w.epochs, eval_every=10 ** 9,
            seed=train_seed)
        self.max_frames = w.frames[1]
        self.steps_per_epoch = -(-w.videos // w.batch)
        self.dataset = self.probe = None

    def model_config(self):
        vlad, w = self.nv.vlad, self.w
        if w.kind == "nextvlad":
            def stream(dim, k):
                return vlad.NeXtVladConfig(input_dim=dim, clusters=k, hidden_dim=w.hidden, groups=w.groups)
        else:
            def stream(dim, k):
                return vlad.NetVladConfig(input_dim=dim, clusters=k, hidden_dim=w.hidden)
        return self.nv.model.ModelConfig(
            video_dim=w.visual_dim, audio_dim=w.audio_dim,
            video_vlad=stream(w.visual_dim, w.clusters[0]),
            audio_vlad=stream(w.audio_dim, w.clusters[1]),
            hidden_dim=w.hidden, se_ratio=8, num_classes=w.classes, dropout_rate=0.5)

    def fresh_state(self):
        model = self.nv.model
        kind = model.MixtureParams if self.w.experts == 3 else model.ModelParams
        params = kind.create(self.model_config(), self.nv.rng.Rng(self.init_seed))
        return self.nv.train.TrainState.create(params)

    def setup(self, span):
        """Seed to first step: generate, write FAV1, read it back, build
        parameters and Adam state.  Returns the generated dataset."""
        data = self.nv.data
        path = self.workdir / "data.fav"
        with span("data.gen_synthetic"):
            generated = data.gen_synthetic(self.spec)
        with span("data.write_dataset"):
            data.write_dataset(generated, path)
        with span("data.read_dataset"):
            self.dataset = data.read_dataset(path)
        # train_loop scores its final step; on one batch that costs little
        # and the full-data GAP comes from the scoring passes instead.
        self.probe = data.Dataset(records=self.dataset.records[:self.w.batch],
                                  num_classes=self.w.classes, visual_dim=self.w.visual_dim,
                                  audio_dim=self.w.audio_dim)
        with span("model.init"):
            self.fresh_state()
        return generated

    def same_records(self, generated) -> bool:
        pairs = zip(generated.records, self.dataset.records)
        return len(generated.records) == len(self.dataset.records) and all(
            a.video_id == b.video_id and _same_bytes(a.labels, b.labels)
            and _same_bytes(a.visual, b.visual) and _same_bytes(a.audio, b.audio)
            for a, b in pairs)

    def warm_up(self) -> None:
        """A few steps and the evaluation pass train_loop ends with, so
        lazy set-up (first BLAS calls, allocator growth) precedes timing."""
        cfg = dataclasses.replace(self.cfg, max_steps=WARMUP_STEPS)
        self.nv.train.train_loop(self.fresh_state(), self.dataset, cfg, self.max_frames)

    def train_repeat(self, clock: StepClock):
        """One full training budget from the seed.  Returns the final state,
        the log rows, the step durations in seconds and the speed loop time
        after each step."""
        state = self.fresh_state()
        clock.clear()
        t0 = time.perf_counter()
        rows = self.nv.train.train_loop(state, self.dataset, self.cfg, self.max_frames,
                                        eval_dataset=self.probe)
        starts = [t0] + clock.resumes[:-1]
        return state, rows, [b - a for a, b in zip(starts, clock.ends)], list(clock.loops)

    def epoch_rate(self, step_seconds, step_loops) -> float:
        """Videos per second of a typical epoch at the reference speed: each
        epoch's steps scaled by the median speed loop time of that epoch,
        then for each step position the median over all epochs run, summed.
        An epoch holds one shuffle, one short final batch if any, and every
        video once."""
        spe = self.steps_per_epoch
        epochs = []
        for e in range(0, len(step_seconds), spe):
            scale = REFERENCE_S / statistics.median(step_loops[e:e + spe])
            epochs.append([s * scale for s in step_seconds[e:e + spe]])
        return self.w.videos / sum(statistics.median(position) for position in zip(*epochs))

    def csv_gap(self, params) -> float:
        """GAP@20 recomputed from a predictions CSV written and read back."""
        nv, records = self.nv, self.dataset.records
        scores = []
        for start in range(0, len(records), self.w.batch):
            batch = nv.data.make_batch(records[start:start + self.w.batch], self.max_frames,
                                       self.w.classes)
            scores.append(nv.autodiff.sigmoid(nv.train.predict_logits(params, batch)).data)
        preds = nv.metrics.prediction_set_from_scores(
            [r.video_id for r in records], [r.labels.tolist() for r in records],
            np.concatenate(scores), k=min(20, self.w.classes))
        path = self.workdir / "predictions.csv"
        nv.metrics.write_predictions_csv(preds, path)
        back = nv.metrics.read_predictions_csv(path)
        rebuilt = nv.metrics.PredictionSet()
        for r in records:
            rebuilt.add_video(r.video_id, r.labels.tolist(), back[r.video_id])
        return nv.metrics.gap_at_20(rebuilt)

    def checkpoint_round_trip(self, state, span=lambda name: nullcontext()) -> bool:
        """save -> load -> apply into a fresh state is bit-exact."""
        train = self.nv.train
        path = self.workdir / "state.ckpt"
        with span("train.save_checkpoint"):
            train.save_checkpoint(state, path, config_echo=f"perfbench {self.w}")
        with span("train.load_checkpoint"):
            ckpt = train.load_checkpoint(path)
        restored = self.fresh_state()
        train.apply_checkpoint(restored, ckpt)
        params = restored.params.named_parameters()
        buffers = restored.params.named_buffers()
        pairs = [(t.data, params[k].data) for k, t in state.params.named_parameters().items()]
        pairs += [(a, buffers[k]) for k, a in state.params.named_buffers().items()]
        pairs += [(a, restored.adam.m[k]) for k, a in state.adam.m.items()]
        pairs += [(a, restored.adam.v[k]) for k, a in state.adam.v.items()]
        return (restored.global_step == state.global_step and restored.adam.step == state.adam.step
                and all(_same_bytes(a, b) for a, b in pairs))


def run_workload(nv, name: str, w: Workload, seed: int, seconds: float, trace: int):
    """Run one workload.  Returns (result, record): the result line and the
    fuller record written next to it (context, errors, spans)."""
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    speed = Speed()
    # The traced run times layers, not the machine: no loop between steps.
    clock = StepClock(nv.train, None if trace else speed)
    tracer = tracing.Tracer(clock) if trace else None
    try:
        ops = Ops()
        bench = Bench(nv, w, seed, workdir)
        samples: dict = {}
        metrics = measure(bench, ops, speed, clock, tracer, seconds, samples)
    finally:
        if tracer is not None:
            tracer.uninstall()
        clock.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
    }
    record = {"context": context(name, seed, trace), "workload": dataclasses.asdict(w),
              "result": result, "errors": ops.errors, "samples": samples,
              "spans": tracer.dump() if tracer is not None else []}
    return result, record


class Phases:
    """Training repeats and scoring passes of one run, with their checks."""

    def __init__(self, bench: Bench, ops: Ops, speed: Speed, clock: StepClock, traced: bool):
        self.bench = bench
        self.ops = ops
        self.speed = speed
        self.clock = clock
        # Untraced scoring passes run a speed loop before each batch; traced
        # ones do not, so the loops stay out of the spans.
        self.between = None if traced else (bench.nv.train, "make_batch")
        self.reference = None  # (state, rows) of the first repeat
        self.gap = None  # GAP@20 of the reference state on the workload's data
        self.step_seconds: list[float] = []  # every training step, all repeats
        self.step_loops: list[float] = []  # speed loop time after each of them
        self.eval_rates: list[float] = []  # videos/s of each scoring pass, scaled
        self.busy = {"train": 0.0, "eval": 0.0}

    def train(self, span=lambda name: nullcontext()) -> bool:
        ops = self.ops
        t0 = time.perf_counter()
        with span("train.train_loop"):
            done = ops.run("train repeat", self.bench.train_repeat, self.clock)
        self.busy["train"] += time.perf_counter() - t0
        if done is None:
            return False
        state, rows, steps, loops = done
        bad = [r.step for r in rows if not math.isfinite(r.loss)]
        ops.attempted += len(rows)
        ops.failed += len(bad)
        if bad:
            ops.errors.append(f"non-finite loss at steps {bad}")
        if self.reference is None:
            self.reference = (state, rows)
        else:
            ops.check("same-seed repeats give identical logs",
                      [r.csv() for r in rows] == [r.csv() for r in self.reference[1]])
        self.step_seconds += steps
        self.step_loops += loops
        return True

    def evaluate(self) -> bool:
        bench = self.bench
        state = self.reference[0]
        done = self.ops.run("evaluate_gap pass", lambda: self.speed.timed(
            bench.nv.train.evaluate_gap, state.params, bench.dataset, bench.max_frames,
            between=self.between))
        if done is None:
            return False
        gap, elapsed, scaled = done
        self.busy["eval"] += elapsed
        self.eval_rates.append(len(bench.dataset.records) / scaled)
        if self.gap is None:
            self.gap = gap
        self.ops.check("every scoring pass gives the same GAP", gap == self.gap)
        return True

    def train_is_behind(self) -> bool:
        return self.busy["train"] < TRAIN_SHARE * sum(self.busy.values())


def measure(bench: Bench, ops: Ops, speed: Speed, clock: StepClock, tracer, seconds: float,
            samples: dict) -> dict:
    """Metrics of one run; ``samples`` receives the values behind the medians."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    out: dict = {}
    samples["speed_loop_seconds"] = speed.loops

    setups = samples["setup_s"] = []
    samples["setup_unscaled_s"] = []
    for _ in range(SETUPS):
        done = ops.run("setup", speed.timed, bench.setup, span)
        if done is None:
            return out
        generated, elapsed, scaled = done
        samples["setup_unscaled_s"].append(elapsed)
        setups.append(scaled)
    out["setup_s"] = statistics.median(setups)
    ops.verify("FAV1 write/read round trip", bench.same_records, generated)
    del generated
    ops.run("warm-up", bench.warm_up)

    start = time.perf_counter()
    phases = Phases(bench, ops, speed, clock, traced=tracer is not None)
    samples["train_step_seconds"] = phases.step_seconds
    samples["eval_pass_videos_per_s"] = phases.eval_rates
    if tracer is not None:
        return traced_run(bench, ops, phases, tracer, start, seconds) if phases.train() else out

    # A fixed core of work first, so peak memory does not depend on how
    # many repeats fit; then training and scoring interleave, so a slow
    # spell of the machine does not land on one metric only.
    ok = all(phases.train() for _ in range(MIN_TRAIN_REPEATS))
    ok = ok and all(phases.evaluate() for _ in range(MIN_EVAL_PASSES))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while ok and time.perf_counter() < start + seconds:
        ok = phases.train() if phases.train_is_behind() else phases.evaluate()

    if phases.step_seconds:
        out["train_videos_per_s"] = bench.epoch_rate(phases.step_seconds, phases.step_loops)
    if phases.eval_rates:
        out["eval_videos_per_s"] = statistics.median(phases.eval_rates)
    if phases.reference is not None:
        state = phases.reference[0]
        ops.verify("checkpoint round trip is bit-exact", bench.checkpoint_round_trip, state)
        if phases.gap is not None:
            out["final_gap"] = phases.gap
            ops.verify("evaluate_gap equals GAP from a predictions CSV round trip",
                       lambda: bench.csv_gap(state.params) == phases.gap)
    return out


def traced_run(bench: Bench, ops: Ops, phases: Phases, tracer, start: float, seconds: float) -> dict:
    """After one untraced repeat (the baseline for the overhead), traced
    repeats and scoring passes; per-layer metrics come from their spans."""
    untraced = list(phases.step_seconds)
    tracing.install(tracer, bench.nv, bench.w.visual_dim)
    tracer.capture_steps = set(range(1, len(untraced), max(1, len(untraced) // CAPTURED_STEPS)))
    ok = phases.train(tracer.span)
    tracer.capture_steps = set()
    while ok and time.perf_counter() < start + TRAIN_SHARE * seconds:
        ok = phases.train(tracer.span)
    passes = 0
    while ok and (passes < MIN_EVAL_PASSES or time.perf_counter() < start + seconds):
        ok = phases.evaluate()
        passes += 1
    tracer.uninstall()

    state = phases.reference[0]
    for _ in range(REPEATS):
        ops.verify("checkpoint round trip is bit-exact", bench.checkpoint_round_trip, state, tracer.span)
    traced = phases.step_seconds[len(untraced):]
    return layer_metrics(tracer, untraced, traced)


def layer_metrics(tracer, untraced: list, traced: list) -> dict:
    spans = tracer.spans
    durations: dict = {}
    for name, start, end, _, _ in spans:
        durations.setdefault(name, []).append(end - start)
    metrics = {metric: statistics.median(durations[name]) for name, metric in SETUP_SPANS.items()}
    metrics["train.checkpoint_save_ms"] = statistics.median(durations["train.save_checkpoint"]) * 1e3
    metrics["train.checkpoint_load_ms"] = statistics.median(durations["train.load_checkpoint"]) * 1e3
    if not traced:
        return metrics
    metrics.update(tracing.layer_table(spans, len(traced)))
    for kind, ms in tracing.replay_backward(tracer.captures).items():
        metrics[REPLAYED[kind]] = ms
    if tracer.loss_graph is not None:
        metrics["autodiff.nodes_per_step"] = tracing.graph_nodes(tracer.loss_graph)
    step_ms = [s * 1e3 for s in traced]
    metrics["train.step_ms_p50"] = statistics.median(step_ms)
    metrics["train.step_ms_p95"] = tracing.percentile(step_ms, 0.95)
    metrics["train.step_samples"] = len(step_ms)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
    return metrics


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


def blas_threads():
    """Thread count the bundled OpenBLAS will use, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def context(name: str, seed: int, trace: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "load": "closed loop, one process, one caller",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "speed_reference_s": REFERENCE_S,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def print_result(result: dict, prefix: str = "") -> None:
    for metric, entry in result["metrics"].items():
        print(f"{prefix}{metric:<26} {entry['value']!r} {entry['unit']}")


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited with code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        print_result(result, prefix=f"{name:<13} ")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nv = load_package()
    if args.workload == "all":
        return run_all(args)
    result, record = run_workload(nv, args.workload, WORKLOADS[args.workload],
                                  args.seed, args.seconds, args.trace)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record))
    print("context " + json.dumps(record["context"]))
    for error in record["errors"]:
        print(f"error {error}")
    print_result(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
