#!/usr/bin/env python3
"""Mutation check: the test suite must kill every one-line mutant listed here.

Each mutant is (name, file, old text, new text, tests).  The script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory and first
runs every named test on the unchanged copy, which must pass.  Then, one
mutant at a time, it replaces the old text (which must occur exactly once)
with the new and runs the mutant's tests with pytest; the mutant is killed
when a test fails.  A mutant that stops the tests from being collected, or
whose old text is not found once, counts as a survivor.  Exits 1 if any
mutant survives.

    python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
AUTODIFF = "src/nextvlad/autodiff.py"
VLAD = "src/nextvlad/vlad.py"

KERNEL_TESTS = (
    "tests/test_autodiff.py::test_residual_aggregate_matches_loops",
    "tests/test_autodiff.py::test_residual_aggregate_is_shift_invariant_without_overflow",
    "tests/test_autodiff.py::test_residual_aggregate_nan_logits_rejected",
    "tests/test_autodiff.py::test_residual_aggregate_grad_checks",
    "tests/test_autodiff.py::test_residual_aggregate_grad_checks_with_constant_inputs",
    "tests/test_autodiff.py::test_nextvlad_kernel_bytes_match_the_affine_logits_form",
    "tests/test_vlad.py::test_assignment_normalizes_over_clusters_not_groups",
)

STACKED_TESTS = ("tests/test_model.py::test_stacked_experts_match_each_expert_run_alone",)

TRAIN = "src/nextvlad/train.py"
ADAM_TESTS = (
    "tests/test_train.py::test_adam_bytes_match_allocating_form",
    "tests/test_train.py::test_adam_nan_past_the_first_block_names_tensor",
)
SCORING_TESTS = (
    "tests/test_train.py::test_a_pass_forms_each_streams_assignment_pair_once",
    "tests/test_train.py::test_a_training_step_between_passes_leaves_no_stale_fold",
    "tests/test_train.py::test_a_pass_that_raises_leaves_no_scope_active",
)

DATA = "src/nextvlad/data.py"
MODEL = "src/nextvlad/model.py"
CLI = "src/nextvlad/cli.py"
CONFIG = "src/nextvlad/config.py"
FRAME_TESTS = (
    "tests/test_cli.py::test_training_batches_span_the_longest_video",
    "tests/test_cli.py::test_a_checkpoint_scores_a_longer_set_at_its_own_length",
    "tests/test_cli.py::test_one_frame_count_covers_training_and_a_longer_eval_set",
)
CENSUS_TESTS = (
    "tests/test_model.py::test_model_census_equals_sum_of_closed_forms",
    "tests/test_model.py::test_mixture_census_is_three_experts_plus_gate",
)
BATCHLESS_TESTS = (
    "tests/test_train.py::test_a_videos_scores_do_not_depend_on_its_batch",
    "tests/test_train.py::test_shards_scored_apart_join_to_the_whole_pass",
)
PIECE_TESTS = ("tests/test_train.py::test_a_pass_in_pieces_of_whole_blocks_matches_a_per_block_loop",)
METRICS = "src/nextvlad/metrics.py"
CHUNK_TESTS = (
    "tests/test_metrics.py::test_a_block_split_over_chunks_gives_the_columns_of_one_table",
    "tests/test_metrics.py::test_a_block_checked_in_chunks_is_rejected_as_one_table",
)
BATCH_TESTS = (
    "tests/test_data.py::test_gathered_batches_match_per_record_padding",
    "tests/test_data.py::test_non_finite_frame_is_found_once_and_counted_within_max_frames",
)

GEN_TESTS = (
    "tests/test_data.py::test_generator_bytes_are_pinned",
    "tests/test_data.py::test_generator_matches_one_draw_per_quantity",
    "tests/test_data.py::test_chunked_generator_matches_one_draw_per_quantity",
    "tests/test_data.py::test_label_means_are_each_videos_ndarray_mean",
    "tests/test_cli.py::test_gen_data_default_file_is_pinned",
)

RNG = "src/nextvlad/rng.py"
DRAW_TESTS = (
    "tests/test_rng.py::test_stream_matches_pure_python_oracle",
    "tests/test_rng.py::test_chunked_normals_equal_one_draw_of_whole_pairs",
    "tests/test_rng.py::test_scaled_float32_normals_round_once_from_float64",
    "tests/test_model.py::test_initial_parameter_bytes_are_pinned",
)
WRITER_TESTS = (
    "tests/test_data.py::test_dataset_bytes_do_not_depend_on_where_writes_are_joined",
    "tests/test_cli.py::test_gen_data_default_file_is_pinned",
)


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


MUTANTS = [
    # the assignment kernel, forward
    Mutant("softmax sums over groups, not clusters", AUTODIFF,
           "a /= a.sum(axis=-2, keepdims=True)", "a /= a.sum(axis=-3, keepdims=True)", KERNEL_TESTS),
    Mutant("softmax shifted by the max over groups", AUTODIFF,
           "a.max(axis=-2, keepdims=True)", "a.max(axis=-3, keepdims=True)", KERNEL_TESTS),
    Mutant("softmax reduced over the frames, not the clusters", AUTODIFF,
           "a /= a.sum(axis=-2, keepdims=True)", "a /= a.sum(axis=-1, keepdims=True)", KERNEL_TESTS),
    Mutant("the NaN check on the softmax's max dropped", AUTODIFF,
           "if np.isnan(top).any():", "if False:", KERNEL_TESTS),
    Mutant("the bias added per frame, not per logit row", AUTODIFF,
           "a += b[..., None]", "a += b[..., None, :]", KERNEL_TESTS),
    Mutant("the gate broadcast along the wrong axis: (T, G) reshaped, not transposed, to (G, T)",
           AUTODIFF, "gate.swapaxes(-1, -2)[..., None, :]",
           "gate.reshape(gate.shape[:-2] + gate.shape[:-3:-1])[..., None, :]", KERNEL_TESTS),
    Mutant("anchor term added in the forward", AUTODIFF,
           "agg -= wsum[..., None]", "agg += wsum[..., None]", KERNEL_TESTS),
    Mutant("packed features scattered to the first rows", AUTODIFF,
           "padded = _padded(feats, rows, shape)", "padded = _padded(feats, np.arange(len(rows)), shape)",
           KERNEL_TESTS),
    Mutant("the VJP reads features scattered to the first rows, not the saved ones", AUTODIFF,
           '"padded": padded,', '"padded": _padded(feats, np.arange(len(rows)), shape),', KERNEL_TESTS),
    Mutant("packed rows laid out from the grid's start, not at each video's", AUTODIFF,
           "rows = np.flatnonzero(np.arange(max_frames) < lengths[:, None])",
           "rows = np.arange(lengths.sum())", KERNEL_TESTS),
    Mutant("residual_aggregate takes lengths that do not sum to the rows", AUTODIFF,
           "lengths.max() > max_frames) or lengths.sum() != fs[0]:", "lengths.max() > max_frames):",
           ("tests/test_autodiff.py::"
            "test_residual_aggregate_rejects_lengths_that_do_not_fit_the_rows_or_the_grid",)),
    # the assignment kernel, VJP
    Mutant("anchor gradient with the wrong sign", AUTODIFF,
           "d_anchors = -(wsum", "d_anchors = (wsum", KERNEL_TESTS),
    Mutant("gate kept in d_gate", AUTODIFF,
           "((a * dw).reshape(-1, k)", "((gated * dw).reshape(-1, k)", KERNEL_TESTS),
    Mutant("- d_gate dropped from d_logits", AUTODIFF,
           "np.multiply(np.subtract(dw, d_gate[..., None], out=dw), gated, out=dw)",
           "np.multiply(dw, gated, out=dw)", KERNEL_TESTS),
    Mutant("packed dw taken from the first rows", AUTODIFF,
           "dw = _to_rows(dw.reshape(lead + (bb * m, g, k)), rows, r)",
           "dw = _to_rows(dw.reshape(lead + (bb * m, g, k)), np.arange(len(rows)), r)",
           KERNEL_TESTS),
    Mutant("full rows come back reversed", AUTODIFF,
           "        x = out\n", "        x = out\n    else:\n        x = x[..., ::-1, :, :]\n", KERNEL_TESTS),
    Mutant("softmax shifted by the max over the first axis", AUTODIFF,
           "e = np.exp(a - a.max(axis=axis, keepdims=True))",
           "e = np.exp(a - a.max(axis=0, keepdims=True))",
           ("tests/test_autodiff.py::test_softmax_bytes_match_reduce_max_form",)),
    # the assignment logits read from the frames through the folded weights
    Mutant("weight_product's forward accumulated in the weights' dtype", AUTODIFF,
           "(a.astype(np.float64) @ b.astype(np.float64)).astype(a.dtype)", "a @ b",
           ("tests/test_acceptance.py::test_criterion_3_oracle_equivalence",)),
    Mutant("weight_product's first cotangent taken with b untransposed", AUTODIFF,
           "g @ b.swapaxes(-1, -2) if needs[0]", "g @ b if needs[0]",
           ("tests/test_autodiff.py::test_every_primitive_grad_checks_on_random_shapes",)),
    Mutant("assign_b left out of the folded bias", VLAD,
           "ad.affine(expand_b, core.assign_w, core.assign_b)",
           "ad.affine(expand_b, core.assign_w, core.assign_b * 0.0)",
           ("tests/test_vlad.py::"
            "test_folded_assignment_logits_equal_the_expanded_frames_through_the_assignment",)),
    # each stream's assignment weights and bias formed once per scoring pass
    Mutant("the pair kept after the pass", VLAD,
           "        _pairs = None\n", "        pass\n", SCORING_TESTS),
    Mutant("the pair reused where a gradient flows", VLAD,
           "fixed = _pairs is not None and not any(t.requires_grad for t in reads)",
           "fixed = _pairs is not None",
           ("tests/test_train.py::test_differentiating_inside_a_pass_reaches_the_folded_weights",)),
    Mutant("a pass reuses the weights but forms the bias again per batch", VLAD,
           "        return _pairs[reads]\n",
           "        w, b = _pairs[reads]\n"
           "        if not net:\n"
           "            expand_b = core.expand_b.reshape(core.expand_b.shape[:-1] + (1, -1))\n"
           "            b = ad.affine(expand_b, core.assign_w, core.assign_b).reshape(b.shape)\n"
           "        return w, b\n", SCORING_TESTS),
    # a - b and dropout composed from add and mul
    Mutant("__sub__ adds without the negation", AUTODIFF,
           "return self + _coerce(other, self.dtype) * -1", "return self + _coerce(other, self.dtype)",
           ("tests/test_autodiff.py::test_composed_sub_matches_the_removed_primitive_bit_for_bit",)),
    Mutant("dropout composed without its scale", AUTODIFF,
           "return x * Tensor(keep * x.dtype.type(1.0 / (1.0 - rate)))", "return x * Tensor(keep)",
           ("tests/test_autodiff.py::test_composed_dropout_matches_the_removed_primitive_bit_for_bit",)),
    # l2_normalize
    Mutant("l2_normalize VJP projects on the input, not the output", AUTODIFF,
           "da = (g - out * _row_dot(g, out, axis)) / denom",
           "da = (g - out * _row_dot(g, a, axis)) / denom",
           ("tests/test_autodiff.py::test_every_primitive_grad_checks_on_random_shapes",)),
    Mutant("l2_normalize hides an overflowed norm", AUTODIFF,
           "if np.isfinite(dots).all() else", "if True else",
           ("tests/test_autodiff.py::test_l2_normalize_squared_norm_overflow_is_signalled",)),
    # batch norm's VJP and log_softmax's VJP
    Mutant("batch norm VJP without - mean(dn)", AUTODIFF,
           "(g - (g_sum[..., None, :] + normed * gn_sum[..., None, :])",
           "(g - (normed * gn_sum[..., None, :])",
           ("tests/test_autodiff.py::test_grad_check_batch_norm_training_mode",)),
    Mutant("batch norm VJP without the normed projection", AUTODIFF,
           "(g - (g_sum[..., None, :] + normed * gn_sum[..., None, :])", "(g - (g_sum[..., None, :])",
           ("tests/test_autodiff.py::test_grad_check_batch_norm_training_mode",)),
    Mutant("log_softmax VJP without - softmax * sum(g)", AUTODIFF,
           "(g - np.exp(out) * g.sum(axis=axis, keepdims=True),)", "(g,)",
           ("tests/test_autodiff.py::test_every_primitive_grad_checks_on_random_shapes",)),
    # affine's VJP and bce's VJP
    Mutant("affine's bias gradient not summed over rows", AUTODIFF,
           "g.sum(axis=-2) if needs[2]", "g[..., 0, :] if needs[2]",
           ("tests/test_autodiff.py::test_grad_check_affine_passes",)),
    Mutant("affine's weight gradient taken as g.T @ x", AUTODIFF,
           "x.swapaxes(-1, -2) @ g if needs[1]", "g.swapaxes(-1, -2) @ x if needs[1]",
           ("tests/test_autodiff.py::test_grad_check_affine_passes",)),
    Mutant("bce VJP without - y", AUTODIFF,
           "(gz * _fw_sigmoid(z) + (-gz) * labels,)", "(gz * _fw_sigmoid(z),)",
           ("tests/test_autodiff.py::test_every_primitive_grad_checks_on_random_shapes",)),
    Mutant("bce VJP without 1/B", AUTODIFF,
           "gz = (g * z.dtype.type(1.0 / z.shape[-2]))[..., None, None]", "gz = g[..., None, None]",
           ("tests/test_autodiff.py::test_every_primitive_grad_checks_on_random_shapes",)),
    # experts stacked on a leading axis: each must see its own slice, in expert order
    Mutant("stacked bias gradient summed over experts, not rows", AUTODIFF,
           "g.sum(axis=-2) if needs[2]", "g.sum(axis=0) if needs[2]",
           ("tests/test_autodiff.py::test_every_primitive_grad_checks_on_random_shapes",)),
    Mutant("stacked batch-norm mean taken over experts, not the batch", AUTODIFF,
           "mu = x.sum(axis=-2, keepdims=True) * scale", "mu = x.sum(axis=0, keepdims=True) * scale",
           STACKED_TESTS),
    Mutant("an expert's weights paired with another expert's anchors", AUTODIFF,
           "[..., None] * anchors[..., None, :, :]", "[..., None] * anchors[..., None, :, :][::-1]",
           STACKED_TESTS + ("tests/test_autodiff.py::test_residual_aggregate_matches_loops",)),
    Mutant("dropout mask drawn expert-minor", AUTODIFF,
           "keep = (rng.uniform(x.shape) >= rate)",
           "keep = (np.moveaxis(rng.uniform(x.shape[1:] + x.shape[:1]), -1, 0) >= rate)",
           STACKED_TESTS),
    Mutant("gated_mixture reads the (B, E) gates as (E, B)", MODEL,
           "ad.transpose(gates, (1, 0)).reshape((e, b, 1))", "gates.reshape((e, b, 1))",
           ("tests/test_model.py::test_stacked_combine_is_bit_exact_to_the_per_expert_sum",)),
    # the blocked Adam pass over the parameter arena
    Mutant("Adam skips the last partial block", TRAIN,
           "for lo in range(0, n, ADAM_BLOCK):", "for lo in range(0, n - n % ADAM_BLOCK, ADAM_BLOCK):",
           ADAM_TESTS),
    Mutant("Adam's bias correction with t - 1", TRAIN,
           "bias1 = 1.0 - ADAM_BETA1 ** t", "bias1 = 1.0 - ADAM_BETA1 ** (t - 1)", ADAM_TESTS),
    Mutant("Adam copies a gradient past a block border one element early", TRAIN,
           "max(s, lo) - s, min(e, hi) - s)", "max(s, lo) - s - (s < lo), min(e, hi) - s - (s < lo))",
           ADAM_TESTS),
    Mutant("a missing gradient left unzeroed in the scratch block", TRAIN,
           "piece.fill(0)", "pass", ADAM_TESTS),
    # batches gathered from the packed frame store, and the check of the frames gathered
    Mutant("packed rows read one frame late, past each video's end", DATA,
           "at = _ranges(starts, lengths)", "at = _ranges(starts + 1, lengths)", BATCH_TESTS),
    Mutant("lengths not clamped to max_frames", DATA,
           "lengths = np.minimum(store.offsets[idx + 1] - starts, max_frames)",
           "lengths = store.offsets[idx + 1] - starts", BATCH_TESTS),
    Mutant("ranges not rebased to each range's first place", DATA,
           "np.repeat(starts - np.cumsum(counts) + counts, counts)",
           "np.repeat(starts, counts)", BATCH_TESTS),
    Mutant("the gathered frames checked in the visual stream only", DATA,
           "bad = first_non_finite_row((visual, audio))", "bad = first_non_finite_row((visual,))",
           BATCH_TESTS),
    Mutant("an empty video's gate mean takes the next video's first frame", MODEL,
           "frames[lo:hi].sum(axis=0)", "frames[lo:max(hi, lo + 1)].sum(axis=0)",
           ("tests/test_model.py::test_gate_mean_of_a_video_without_frames_is_zero",)),
    # the synthetic generator: the walk, the Fisher-Yates order, the chunk bounds, the means
    Mutant("the walk reads the frame-count word at offset C-1", DATA,
           "word = mix64(seed + (at + c + 1) * GAMMA)", "word = mix64(seed + (at + c) * GAMMA)", GEN_TESTS),
    Mutant("the swaps run from position 1 upward", DATA,
           "for i, j in zip(range(c - 1, 0, -1), words_to_integers(head[:, 1:], np.arange(c, 1, -1)).T):",
           "for i, j in reversed(list(zip(range(c - 1, 0, -1),"
           " words_to_integers(head[:, 1:], np.arange(c, 1, -1)).T))):", GEN_TESTS),
    Mutant("a head chunk ends one video early, so a video's labels are skipped", DATA,
           "starts[lo:lo + step, None]", "starts[lo:lo + step - 1, None]", GEN_TESTS),
    Mutant("a noise chunk ends one video before the next starts, so a video is skipped", DATA,
           "        lo = hi\n", "        lo = hi + 1\n", GEN_TESTS),
    Mutant("the concept sum divided per label before summing", DATA,
           "mean[rows] = a[chosen].mean(axis=1)", "mean[rows] = (a[chosen] / k).sum(axis=1)", GEN_TESTS),
    # seeded draws in place and in pair-aligned chunks, and the joined FAV1 writes
    Mutant("an odd chunk size splits a Box-Muller pair", RNG,
           "CHUNK_WORDS = 1 << 15", "CHUNK_WORDS = (1 << 15) + 1", DRAW_TESTS),
    Mutant("normals scaled after the rounding to the target dtype", RNG,
           'np.multiply(pairs[:n - lo], scale, out=out[lo:lo + pairs.size], casting="same_kind")',
           "out[lo:lo + pairs.size] = pairs[:n - lo]\n            out[lo:lo + pairs.size] *= scale", DRAW_TESTS),
    Mutant("the in-place finalizer shifts by 28, not 27", RNG,
           "z ^= np.right_shift(z, np.uint64(27), out=t)", "z ^= np.right_shift(z, np.uint64(28), out=t)",
           DRAW_TESTS),
    Mutant("a join of FAV1 records drops its last record", DATA,
           '                f.write(b"".join(parts))\n', '                f.write(b"".join(parts[:-7]))\n',
           WRITER_TESTS),
    Mutant("a checkpoint's unexpected tensor passes", TRAIN,
           "    if extra is not None:", "    if False:",
           ("tests/test_train.py::test_checkpoint_with_a_tensor_the_state_does_not_hold_is_rejected",)),
    # one whitening scale, held by the mixture, for the experts and not the gate
    Mutant("the mixture gate fed the whitened batch", MODEL,
           "    expert_logits = model_forward(_whitened(batch, mix.whiten_scale), mix.experts, training, rng)\n",
           "    batch = _whitened(batch, mix.whiten_scale)\n"
           "    expert_logits = model_forward(batch, mix.experts, training, rng)\n",
           ("tests/test_model.py::test_gate_reads_the_unwhitened_frames",)),
    Mutant("restore builds no whitening placeholder", CLI,
           "if init else Eigenvalues(np.ones(model_cfg.video_dim))", "if init else None",
           ("tests/test_cli.py::test_whitened_mixture_checkpoint_scores_without_its_eigenvalues_file",)),
    # the weight census of a tree whose stacked biases are 2-d
    Mutant("weight_census leaves out the nested bundles", VLAD,
           "\n            + sum(weight_census(v) for v in own if isinstance(v, ParamTree)))", ")",
           CENSUS_TESTS),
    Mutant("weight_census takes one min-ndim over the whole tree", VLAD,
           "    own = [getattr(bundle, f.name) for f in dataclasses.fields(bundle)]\n",
           "    own = list(bundle.named_parameters().values())\n", CENSUS_TESTS),
    # scoring blocks of one row count
    Mutant("predict keeps the pad rows", TRAIN,
           "ad.sigmoid(predict_logits(params, batch)).data[:n]", "ad.sigmoid(predict_logits(params, batch)).data",
           BATCHLESS_TESTS),
    Mutant("predict scores its last batch unpadded", TRAIN,
           "rows = np.minimum(np.arange(start, start + batch_size), start + n - 1)",
           "rows = np.arange(start, start + n)", BATCHLESS_TESTS),
    # a pass scored in pieces of whole blocks, each appended once
    Mutant("predict drops its last partial piece", TRAIN,
           "for lo in range(0, len(records), per_piece):",
           "for lo in range(0, len(records) - len(records) % per_piece, per_piece):", PIECE_TESTS),
    Mutant("a piece is as many videos as fit the table, not whole blocks", TRAIN,
           "per_piece = batch_size * max(1, TABLE_PAIRS // (batch_size * dataset.num_classes))",
           "per_piece = max(1, TABLE_PAIRS // dataset.num_classes)", PIECE_TESTS),
    # append's tables over chunks of videos, every chunk checked before any is stored
    Mutant("append's chunks one row over the table bound", METRICS,
           "step = max(1, TABLE_PAIRS // width)", "step = max(1, TABLE_PAIRS // width) + 1", CHUNK_TESTS),
    Mutant("append's chunk ends one row early", METRICS,
           "hi = min(lo + step, len(ids))", "hi = min(lo + step - 1, len(ids))", CHUNK_TESTS),
    Mutant("append stores each chunk before the next is checked", METRICS,
           "            ))\n        bad = np.flatnonzero(~np.isfinite(confs))",
           "            ))\n            self._blocks.append(parts.pop())\n"
           "        bad = np.flatnonzero(~np.isfinite(confs))", CHUNK_TESTS),
    Mutant("top-k ties broken by an unstable sort", METRICS,
           'np.argsort(-scores, axis=-1, kind="stable")', "np.argsort(-scores, axis=-1)",
           ("tests/test_metrics.py::test_topk_breaks_ties_by_ascending_class_id",)),
    # a checkpoint shape numpy cannot form, and a closed stdout
    Mutant("an unformable checkpoint shape left to numpy's message", TRAIN,
           "            except ValueError:\n", "            except ZeroDivisionError:\n",
           ("tests/test_cli.py::test_checkpoint_shape_numpy_cannot_form_names_file_and_tensor",)),
    Mutant("BrokenPipeError falls through to the generic OSError branch", CLI,
           "    except BrokenPipeError:\n", "    except ():\n",
           ("tests/test_cli.py::test_closed_stdout_exits_quietly_with_the_sigpipe_status",)),
    Mutant("the interpreter's last flush left on the closed stdout", CLI,
           "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())", "pass",
           ("tests/test_cli.py::test_closed_stdout_of_a_process_prints_no_error",)),
    # the config keys each command takes, and the frames its batches span
    Mutant("RunConfig admits every registry key", CONFIG,
           " for k, spec in REGISTRY.items() if k.startswith(groups)}", " for k, spec in REGISTRY.items()}",
           ("tests/test_cli.py::test_a_key_of_another_command_fails_naming_it",)),
    Mutant("the frame cap read from data.frames_max", CONFIG,
           'max(int(np.diff(d.store.offsets).max()) for d in datasets)', 'cfg["data.frames_max"]', FRAME_TESTS),
    Mutant("the frame cap read as the constant 20", CONFIG,
           'max(int(np.diff(d.store.offsets).max()) for d in datasets)', "20", FRAME_TESTS),
    Mutant("train's frame count taken from the training set alone", CLI,
           "batch_max_frames(cfg, dataset, gap_source)", "batch_max_frames(cfg, dataset)", FRAME_TESTS),
    Mutant("a dataset without videos passes the read", CLI,
           "    if not len(dataset):\n", "    if False:\n",
           ("tests/test_cli.py::test_dataset_without_videos_fails_naming_the_file",)),
    Mutant("the staircase LR schedule left unfloored", TRAIN,
           "exponent = math.floor(exponent)", "exponent = exponent",
           ("tests/test_train.py::test_lr_schedule_staircase",)),
    # the two mutants that survived the suite before their tests came
    Mutant("mixture gate mean divides by all frames", MODEL,
           "(1.0 / np.maximum(view.lengths, 1).astype(frames.dtype))[:, None]",
           "frames.dtype.type(1.0 / view.max_frames)",
           ("tests/test_model.py::test_mixture_ignores_appended_padding",)),
    Mutant("running variance with swapped momentum", AUTODIFF,
           "self.running_var = m * self.running_var + (1.0 - m) * batch_var",
           "self.running_var = (1.0 - m) * self.running_var + m * batch_var",
           ("tests/test_autodiff.py::test_batch_norm_running_moments_follow_the_momentum_recurrence",)),
]


def run_tests(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        every_test = sorted({t for m in MUTANTS for t in m.tests})
        if run_tests(tree, every_test) != 0:
            print("the tests fail on the unchanged copy; no mutant was run")
            return 1
        survivors = []
        for m in MUTANTS:
            path = tree / m.file
            text = path.read_text()
            found = text.count(m.old)
            if found != 1:
                outcome = f"not applied: old text found {found} times"
            else:
                path.write_text(text.replace(m.old, m.new))
                code = run_tests(tree, m.tests)
                path.write_text(text)
                # pytest exits 1 when a test fails; 2-5 mean it never ran them
                outcome = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            if outcome != "killed":
                survivors.append(m.name)
            print(f"{outcome:40s} {m.name}")
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
