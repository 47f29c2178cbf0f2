"""Config parsing and the command-line surface, end to end on tiny runs."""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nextvlad
from nextvlad.cli import main
from nextvlad.config import REGISTRY, RunConfig, model_config_from, resolve_dims
from nextvlad.data import read_dataset, write_dataset
from nextvlad.train import load_checkpoint


# ---------------------------------------------------------------------------
# run config
# ---------------------------------------------------------------------------


def test_unknown_keys_rejected_everywhere(tmp_path):
    cfg = RunConfig()
    with pytest.raises(KeyError, match="unknown"):
        cfg.set("train.nope", "1")
    with pytest.raises(KeyError, match="unknown"):
        cfg.apply_overrides(["bogus.key=3"])
    bad = tmp_path / "bad.cfg"
    bad.write_text("train.base_lr = 0.1\nwat = 7\n")
    with pytest.raises(KeyError, match="unknown"):
        cfg.load_file(bad)


def test_config_file_parsing_with_comments(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text(
        "# a comment\n"
        "train.base_lr = 0.001   # trailing comment\n"
        "\n"
        "model.kind = netvlad\n"
        "train.lr_staircase = true\n")
    cfg = RunConfig()
    cfg.load_file(f)
    assert cfg["train.base_lr"] == 0.001
    assert cfg["model.kind"] == "netvlad"
    assert cfg["train.lr_staircase"] is True


def test_config_file_errors_name_file_and_line(tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_text("# a comment\nmodel.hidden = many\n")
    assert main(["param-count", "--config", str(f)]) == 1
    assert capsys.readouterr().err == f"error: {f}:2: model.hidden: expected int, got 'many'\n"
    f.write_text("train.sead = 3\n")
    assert main(["param-count", "--config", str(f)]) == 1
    assert capsys.readouterr().err == f"error: {f}:1: unknown config key 'train.sead'\n"


def test_type_validation():
    cfg = RunConfig()
    with pytest.raises(ValueError, match="int"):
        cfg.set("train.steps", "many")
    with pytest.raises(ValueError, match="boolean"):
        cfg.set("train.lr_staircase", "maybe")


@pytest.mark.parametrize("key, value", [
    ("train.steps", "-5"), ("train.steps", -5), ("train.max_frames", "-3"),
    ("train.l2_classifier", "-1"), ("train.base_lr", "nan"), ("train.base_lr", float("nan")),
    ("kd.temperature", "inf"), ("model.dropout", "-inf"),
])
def test_negative_or_non_finite_numbers_rejected(key, value):
    cfg = RunConfig()
    with pytest.raises(ValueError, match=f"^{key}: expected a finite number >= 0"):
        cfg.set(key, value)
    assert cfg[key] == RunConfig()[key]


def test_config_file_not_utf8_names_file_and_line(tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_bytes(b"model.hidden = 3\nmodel.kind = \xff\n")
    assert main(["param-count", "--config", str(f)]) == 1
    assert capsys.readouterr().err == (
        f"error: {f}:2: not valid UTF-8 (invalid start byte)\n")


def test_echo_roundtrip():
    cfg = RunConfig()
    cfg.set("train.base_lr", "0.00125")
    cfg.set("model.experts", "3")
    cfg.set("model.eigenvalues", "eig.eigv")
    back = RunConfig.from_echo(cfg.echo(), "run.ckpt")
    assert back.echo() == cfg.echo()
    assert back["train.base_lr"] == 0.00125
    assert back["model.experts"] == 3
    assert back["model.eigenvalues"] == "eig.eigv"


def test_resolve_dims_from_dataset(tmp_path):
    path = tmp_path / "d.fav"
    assert main(["gen-data", "--out", str(path), "--videos", "6", "--classes", "3",
                 "--set", "data.visual_dim=8", "--set", "data.audio_dim=4"]) == 0
    ds = read_dataset(path)
    cfg = RunConfig()
    cfg.set("model.hidden", "16")
    cfg.set("model.se_ratio", "4")
    cfg.set("vlad.clusters", "2")
    cfg.set("vlad.groups", "2")
    resolve_dims(cfg, ds, path)
    mc = model_config_from(cfg)
    assert mc.video_dim == 8 and mc.audio_dim == 4 and mc.num_classes == 3


def test_each_command_takes_only_the_key_groups_it_reads():
    counts = {command: len(RunConfig(command).echo().splitlines())
              for command in ("gen-data", "train", "param-count")}
    assert counts == {"gen-data": 10, "train": 26, "param-count": 14}
    assert counts["gen-data"] + counts["train"] == len(REGISTRY)  # train's keys hold param-count's
    with pytest.raises(KeyError, match="^\"gen-data takes no config key 'train.base_lr'\"$"):
        RunConfig("gen-data").set("train.base_lr", "1")


@pytest.mark.parametrize("command, key", [
    (["gen-data", "--out", "{tmp}/x.fav"], "train.base_lr"),
    (["train", "--dataset", "{data}", "--out", "{tmp}/run"], "data.noise_sigma"),
    (["param-count"], "train.base_lr"),
])
@pytest.mark.parametrize("source", ["--set", "--config"])
def test_a_key_of_another_command_fails_naming_it(tmp_path, tiny_dataset, capsys, command, key, source):
    argv = [a.format(tmp=tmp_path, data=tiny_dataset) for a in command]
    if source == "--set":
        argv += ["--set", f"{key}=1"]
    else:
        where = tmp_path / "run.cfg"
        where.write_text(f"{key} = 1\n")
        argv += ["--config", str(where)]
    capsys.readouterr()
    assert main(argv) == 1
    where = "--set" if source == "--set" else f"{tmp_path / 'run.cfg'}:1"
    assert capsys.readouterr().err == f"error: {where}: {command[0]} takes no config key {key!r}\n"
    assert not (tmp_path / "x.fav").exists() and not (tmp_path / "run" / "config.txt").exists()


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a.fav", tmp_path / "b.fav"
    args = ["gen-data", "--videos", "10", "--classes", "4", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_default_spec_pipeline_smoke(tmp_path):
    # gen-data with no overrides must produce a file cmd_train can consume
    path = tmp_path / "default.fav"
    assert main(["gen-data", "--out", str(path)]) == 0
    ds = read_dataset(path)
    assert (len(ds), ds.num_classes, ds.visual_dim, ds.audio_dim) == (2000, 20, 64, 16)
    out = tmp_path / "run"
    rc = main(["train", "--dataset", str(path), "--out", str(out),
               "--steps", "1", "--batch-size", "16", "--seed", "1"] + TINY)
    assert rc == 0
    assert (out / "checkpoint.ckpt").exists()


def test_gen_data_default_file_is_pinned(tmp_path):
    """The defaults (2000 videos, seed 7) span many of the generator's chunks."""
    path = tmp_path / "default.fav"
    assert main(["gen-data", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "407ea96c74ce1396131c4a820a281987d2641c928b976a98c0d31491d45ef428")


def test_gen_data_too_many_labels_fails(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "x.fav"),
               "--videos", "4", "--classes", "4", "--labels-per-video", "5"])
    assert rc == 1
    assert "labels_max" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / eval / predict
# ---------------------------------------------------------------------------


TINY = ["--set", "model.hidden=16", "--set", "vlad.clusters=2", "--set", "vlad.groups=2",
        "--set", "model.se_ratio=4", "--set", "model.dropout=0.2"]


@pytest.fixture()
def tiny_dataset(tmp_path):
    path = tmp_path / "tiny.fav"
    assert main(["gen-data", "--out", str(path), "--videos", "24", "--classes", "4",
                 "--set", "data.visual_dim=8", "--set", "data.audio_dim=4",
                 "--set", "data.frames_min=2", "--set", "data.frames_max=4",
                 "--seed", "11"]) == 0
    return path


def test_train_lr_zero_checkpoint_equals_init(tmp_path, tiny_dataset):
    out = tmp_path / "frozen"
    rc = main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
               "--steps", "1", "--lr", "0", "--batch-size", "8", "--seed", "3"] + TINY)
    assert rc == 0
    ckpt = load_checkpoint(out / "checkpoint.ckpt")

    from nextvlad.cli import _build_params
    cfg = RunConfig.from_echo(ckpt.config_echo, str(out / "checkpoint.ckpt"))
    fresh = _build_params(cfg)
    for name, t in fresh.named_parameters().items():
        assert np.array_equal(ckpt.tensors[name], t.data), name


def test_train_eval_cross_command_consistency(tmp_path, tiny_dataset, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
               "--steps", "12", "--lr", "0.002", "--batch-size", "8", "--seed", "3"] + TINY)
    assert rc == 0
    train_line = [l for l in capsys.readouterr().out.splitlines() if "GAP" in l][-1]
    trained_gap = float(train_line.rsplit(" ", 1)[-1])

    rc = main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
               "--dataset", str(tiny_dataset)])
    assert rc == 0
    eval_line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("GAP@20")][0]
    eval_gap = float(eval_line.split()[1])
    assert abs(trained_gap - eval_gap) < 5e-5  # train prints 4 decimals

    # log file exists with header and one row per step
    log = (out / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,lr,loss,bce,kl,gap"
    assert len(log) == 13
    config = (out / "config.txt").read_text().splitlines()
    assert len(config) == 26 and not any(line.startswith("data.") for line in config)


def test_predict_then_eval_from_csv_matches(tmp_path, tiny_dataset, capsys):
    for mixture in ("1", "3"):
        out = tmp_path / f"run{mixture}"
        main(["train", "--dataset", str(tiny_dataset), "--out", str(out), "--mixture", mixture,
              "--steps", "8", "--batch-size", "8", "--seed", "5"] + TINY)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"),
                     "--dataset", str(tiny_dataset)]) == 0
        direct = capsys.readouterr().out

        csv_path = out / "preds.csv"
        assert main(["predict", "--checkpoint", str(out / "checkpoint.ckpt"),
                     "--dataset", str(tiny_dataset), "--out", str(csv_path)]) == 0
        capsys.readouterr()
        assert main(["eval", "--predictions", str(csv_path),
                     "--dataset", str(tiny_dataset)]) == 0
        from_csv = capsys.readouterr().out
        assert "in_top20" in direct
        assert from_csv == direct.replace(" videos\n", f" videos (from {csv_path})\n", 1)

    # a class id the dataset does not have is rejected, naming the file
    csv_path.write_text(csv_path.read_text().replace(",3,", ",4,", 1))
    assert main(["eval", "--predictions", str(csv_path), "--dataset", str(tiny_dataset)]) == 1
    assert f"{csv_path}:" in capsys.readouterr().err


def test_per_class_report_counts_match_a_per_video_loop(capsys):
    from nextvlad.cli import _per_class_report
    from nextvlad.rng import Rng
    from nextvlad.verify import random_prediction_set

    preds = random_prediction_set(Rng(70), max_videos=40)
    col = preds.columns()
    labels = set(zip(col.label_video.tolist(), col.label_cls.tolist()))
    true_count, pred_count, hit_count = (np.zeros(12, dtype=np.int64) for _ in range(3))
    for _, cls in labels:
        true_count[cls] += 1
    for video, cls in zip(col.video.tolist(), col.cls.tolist()):
        pred_count[cls] += 1
        hit_count[cls] += (video, cls) in labels
    _per_class_report(preds, 12, limit=10)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["class", "true", "in_top20", "hits"]
    assert [list(map(int, line.split())) for line in lines[1:11]] == [
        [c, true_count[c], pred_count[c], hit_count[c]] for c in range(10)]
    assert lines[11:] == ["... (2 more classes)"]


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_eval_runs_the_model_once_per_batch(tmp_path, monkeypatch, capsys):
    import nextvlad.train as trainmod

    data = tmp_path / "d130.fav"
    assert main(["gen-data", "--out", str(data), "--videos", "130", "--classes", "4",
                 "--set", "data.visual_dim=8", "--set", "data.audio_dim=4",
                 "--set", "data.frames_min=2", "--set", "data.frames_max=4"]) == 0
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(data), "--out", str(out),
                 "--steps", "1", "--batch-size", "8"] + TINY) == 0
    calls = _count_calls(monkeypatch, trainmod, "predict_logits")
    assert main(["eval", "--checkpoint", str(out / "checkpoint.ckpt"), "--dataset", str(data)]) == 0
    assert len(calls) == 3  # ceil(130 / 64)


def test_train_scores_each_evaluation_once(tmp_path, tiny_dataset, monkeypatch, capsys):
    import nextvlad.train as trainmod

    calls = _count_calls(monkeypatch, trainmod, "predict")
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                 "--steps", "5", "--eval-every", "2", "--batch-size", "8"] + TINY) == 0
    rows = (out / "train_log.csv").read_text().splitlines()[1:]
    scored = [r for r in rows if r.split(",")[5]]
    assert len(scored) == 3  # steps 2, 4 and the final step 5
    assert len(calls) == len(scored)
    assert capsys.readouterr().out.endswith(f"GAP {float(scored[-1].split(',')[5]):.4f}\n")

    # a resumed run already past its budget still reports a GAP, scoring once
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                 "--resume", str(out / "checkpoint.ckpt"), "--steps", "5"]) == 0
    assert len(calls) == len(scored) + 1
    assert "GAP" in capsys.readouterr().out


def test_mixture_with_zero_temperature_logs_zero_kl(tmp_path, tiny_dataset):
    out = tmp_path / "mix0"
    rc = main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
               "--steps", "4", "--batch-size", "8", "--seed", "3",
               "--mixture", "3", "--kd-temperature", "0"] + TINY)
    assert rc == 0
    rows = (out / "train_log.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[4] == "0.0" for row in rows)


def test_mixture_with_temperature_logs_nonzero_kl(tmp_path, tiny_dataset):
    out = tmp_path / "mix3"
    rc = main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
               "--steps", "3", "--batch-size", "8", "--seed", "3",
               "--mixture", "3", "--kd-temperature", "3"] + TINY)
    assert rc == 0
    rows = (out / "train_log.csv").read_text().splitlines()[1:]
    assert any(float(row.split(",")[4]) > 0 for row in rows)


def test_resume_continues_log(tmp_path, tiny_dataset):
    out = tmp_path / "resume"
    main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
          "--steps", "4", "--batch-size", "8", "--seed", "3"] + TINY)
    main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
          "--resume", str(out / "checkpoint.ckpt"), "--steps", "8"])
    rows = (out / "train_log.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == [str(i) for i in range(1, 9)]


@pytest.mark.parametrize("extra", [["--set", "model.hidden=32"], ["--set", "vlad.clusters=3"],
                                   ["--set", "model.video_dim=6"], ["--model", "netvlad"]])
def test_resume_rejects_model_overrides(tmp_path, tiny_dataset, capsys, extra):
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                 "--steps", "2", "--batch-size", "8", "--seed", "3"] + TINY) == 0
    ckpt = out / "checkpoint.ckpt"
    before = ckpt.read_bytes()
    rc = main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
               "--resume", str(ckpt), "--steps", "4"] + extra)
    assert rc == 1
    key = extra[1].split("=")[0] if extra[0] == "--set" else "model.kind"
    assert repr(key) in capsys.readouterr().err
    assert ckpt.read_bytes() == before
    assert main(["eval", "--dataset", str(tiny_dataset), "--checkpoint", str(ckpt)]) == 0


@pytest.mark.parametrize("extra", [
    ["--eval-every", "-4"], ["--set", "train.max_frames=-3"], ["--set", "train.l2_classifier=-1"],
    ["--steps", "-5", "--epochs", "-2"], ["--set", "train.base_lr=nan"],
])
def test_train_rejects_negative_or_non_finite_numbers(tmp_path, tiny_dataset, capsys, extra):
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                 "--batch-size", "8"] + TINY + extra) == 1
    key = {"--eval-every": "train.eval_every", "--steps": "train.steps"}.get(extra[0])
    key = key or extra[1].split("=")[0]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key}: expected a finite number >= 0" in err
    assert not (out / "config.txt").exists()


def test_resume_rejects_a_key_train_does_not_take(tmp_path, tiny_dataset, capsys):
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                 "--steps", "2", "--batch-size", "8"] + TINY) == 0
    capsys.readouterr()
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                 "--resume", str(out / "checkpoint.ckpt"), "--set", "data.visual_dim=9"]) == 1
    assert capsys.readouterr().err == "error: --set: train takes no config key 'data.visual_dim'\n"


def test_resume_honours_config_file(tmp_path, tiny_dataset, capsys):
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                 "--steps", "2", "--batch-size", "8", "--seed", "3"] + TINY) == 0
    ckpt = out / "checkpoint.ckpt"
    before = ckpt.read_bytes()
    cfg_file = tmp_path / "more.cfg"
    resume = ["train", "--dataset", str(tiny_dataset), "--out", str(out), "--resume", str(ckpt),
              "--config", str(cfg_file)]

    cfg_file.write_text("train.steps = 4\nmodel.hidden = 32\n")
    capsys.readouterr()
    assert main(resume) == 1
    assert "--resume cannot override 'model.hidden'" in capsys.readouterr().err
    assert ckpt.read_bytes() == before

    # repeating the checkpoint's own model keys is no change
    model_keys = [l for l in (out / "config.txt").read_text().splitlines()
                  if l.startswith(("model.", "vlad."))]
    cfg_file.write_text("\n".join(["train.steps = 5"] + model_keys) + "\n")
    assert main(resume) == 0
    assert "train.steps = 5\n" in (out / "config.txt").read_text()
    rows = (out / "train_log.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["1", "2", "3", "4", "5"]
    assert capsys.readouterr().out.startswith("trained 5 steps")


@pytest.fixture()
def eig(tmp_path):
    from nextvlad.data import write_eigenvalues
    from nextvlad.model import Eigenvalues

    path = tmp_path / "e.eigv"
    write_eigenvalues(Eigenvalues(np.ones(8)), path)
    return path


def test_whitened_mixture_checkpoint_scores_without_its_eigenvalues_file(tmp_path, tiny_dataset, capsys):
    # the checkpoint holds the one whitening scale; its EIGV file only switched whitening on
    from nextvlad.data import write_eigenvalues
    from nextvlad.model import Eigenvalues

    eig, out = tmp_path / "spread.eigv", tmp_path / "run"
    write_eigenvalues(Eigenvalues(np.linspace(0.25, 6.0, 8)), eig)
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out), "--steps", "3",
                 "--batch-size", "8", "--mixture", "3", "--eigenvalues", str(eig)] + TINY) == 0
    final_gap = float((out / "train_log.csv").read_text().splitlines()[-1].split(",")[-1])
    eig.unlink()
    capsys.readouterr()
    assert main(["eval", "--dataset", str(tiny_dataset), "--checkpoint", str(out / "checkpoint.ckpt")]) == 0
    assert capsys.readouterr().out.startswith(f"GAP@20 {final_gap:.6f} over 24 videos\n")


def test_checkpoint_holding_a_tensor_the_model_does_not_expect_names_it(tmp_path, tiny_dataset, capsys):
    # the echo no longer names the eigenvalues, so the model it builds holds no whitening scale
    from nextvlad.data import write_eigenvalues
    from nextvlad.model import Eigenvalues

    eig, out = tmp_path / "spread.eigv", tmp_path / "run"
    write_eigenvalues(Eigenvalues(np.linspace(0.25, 6.0, 8)), eig)
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out), "--steps", "2",
                 "--batch-size", "8", "--eigenvalues", str(eig)] + TINY) == 0
    ckpt = out / "checkpoint.ckpt"
    _replace_echo_line(ckpt, f"model.eigenvalues = {eig}", "model.eigenvalues = ")
    capsys.readouterr()
    assert main(["eval", "--dataset", str(tiny_dataset), "--checkpoint", str(ckpt)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}: checkpoint holds tensor 'model.whiten_scale', which the model does not expect\n")


@pytest.mark.parametrize("name", ["config.txt", "train_log.csv"])
def test_train_output_failing_partway_leaves_the_previous_files(tmp_path, tiny_dataset, failing_write,
                                                                capsys, name):
    import nextvlad.cli as cli

    out = tmp_path / "run"
    args = ["train", "--dataset", str(tiny_dataset), "--out", str(out), "--batch-size", "8"] + TINY
    assert main(args + ["--steps", "1"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    failing_write(cli, name)
    capsys.readouterr()
    assert main(args + ["--steps", "2", "--seed", "5"]) == 1
    assert "No space left on device" in capsys.readouterr().err
    after = {p.name: p.read_bytes() for p in out.iterdir()}  # config.txt is written before the log
    assert after.keys() == before.keys()
    assert after[name] == before[name] and after["checkpoint.ckpt"] == before["checkpoint.ckpt"]


def test_wrong_explicit_dim_fails_before_building(tmp_path, tiny_dataset, monkeypatch, capsys):
    import nextvlad.cli as cli

    calls = _count_calls(monkeypatch, cli, "_build_params")
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "run"),
                 "--steps", "1", "--set", "model.video_dim=6"] + TINY) == 1
    assert capsys.readouterr().err == (
        f"error: {tiny_dataset}: visual_dim is 8 but the model has model.video_dim = 6\n")
    assert calls == []


def test_scoring_overflow_names_dataset_and_checkpoint(tmp_path, tiny_dataset, capsys):
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                 "--steps", "1", "--batch-size", "8"] + TINY) == 0
    ckpt = str(out / "checkpoint.ckpt")
    dataset = read_dataset(tiny_dataset)
    dataset.records[0].visual[0, 0] = 3e30
    huge = tmp_path / "huge.fav"
    write_dataset(dataset, huge)
    capsys.readouterr()
    for argv in (["eval", "--checkpoint", ckpt, "--dataset", str(huge)],
                 ["predict", "--checkpoint", ckpt, "--dataset", str(huge),
                  "--out", str(tmp_path / "p.csv")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {huge} scored by {ckpt}: ") and err.count("\n") == 1


@pytest.fixture()
def long_dataset(tmp_path):
    """30-40-frame videos with the dims and classes of ``tiny_dataset``."""
    path = tmp_path / "long.fav"
    assert main(["gen-data", "--out", str(path), "--videos", "12", "--classes", "4",
                 "--set", "data.visual_dim=8", "--set", "data.audio_dim=4",
                 "--set", "data.frames_min=30", "--set", "data.frames_max=40", "--seed", "4"]) == 0
    return path


def _batch_frames(monkeypatch):
    """The set of ``max_frames`` that every batch is built with, as commands run."""
    import nextvlad.train as trainmod

    seen, make_batch = set(), trainmod.make_batch

    def recorded(rows, max_frames, *rest):
        seen.add(max_frames)
        return make_batch(rows, max_frames, *rest)

    monkeypatch.setattr(trainmod, "make_batch", recorded)
    return seen


TRAIN_TWO_STEPS = ["train", "--steps", "2", "--batch-size", "8"] + TINY


def test_training_batches_span_the_longest_video(tmp_path, long_dataset, monkeypatch):
    assert max(r.num_frames for r in read_dataset(long_dataset).records) == 40
    seen = _batch_frames(monkeypatch)
    run = TRAIN_TWO_STEPS + ["--dataset", str(long_dataset), "--out", str(tmp_path / "run")]
    assert main(run) == 0
    assert seen == {40}
    # a set frame count truncates every video past it
    seen.clear()
    assert main(run + ["--set", "train.max_frames=25"]) == 0
    assert seen == {25}
    assert "train.max_frames = 25\n" in (tmp_path / "run" / "config.txt").read_text()


def test_a_checkpoint_scores_a_longer_set_at_its_own_length(tmp_path, tiny_dataset, long_dataset,
                                                             monkeypatch):
    short = max(r.num_frames for r in read_dataset(tiny_dataset).records)
    seen = _batch_frames(monkeypatch)
    assert main(TRAIN_TWO_STEPS + ["--dataset", str(tiny_dataset), "--out", str(tmp_path / "run")]) == 0
    assert seen == {short} and short <= 4
    for argv in (["eval"], ["predict", "--out", str(tmp_path / "p.csv")]):
        seen.clear()
        assert main(argv + ["--checkpoint", str(tmp_path / "run" / "checkpoint.ckpt"),
                            "--dataset", str(long_dataset)]) == 0
        assert seen == {40}


def test_one_frame_count_covers_training_and_a_longer_eval_set(tmp_path, tiny_dataset, long_dataset,
                                                                monkeypatch):
    seen = _batch_frames(monkeypatch)
    assert main(TRAIN_TWO_STEPS + ["--dataset", str(tiny_dataset), "--eval-dataset", str(long_dataset),
                                   "--out", str(tmp_path / "run")]) == 0
    assert seen == {40}


def test_dataset_without_videos_fails_naming_the_file(tmp_path, tiny_dataset, capsys):
    empty = tmp_path / "empty.fav"
    empty.write_bytes(b"FAV1" + struct.pack("<5I", 1, 0, 8, 4, 4))
    assert len(read_dataset(empty)) == 0
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                 "--steps", "1", "--batch-size", "8"] + TINY) == 0
    ckpt = str(out / "checkpoint.ckpt")
    capsys.readouterr()
    for argv in (["train", "--dataset", str(empty), "--out", str(tmp_path / "fresh")] + TINY,
                 ["train", "--dataset", str(tiny_dataset), "--eval-dataset", str(empty),
                  "--out", str(tmp_path / "fresh")] + TINY,
                 ["eval", "--checkpoint", ckpt, "--dataset", str(empty)],
                 ["predict", "--checkpoint", ckpt, "--dataset", str(empty), "--out", str(tmp_path / "p.csv")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {empty}: holds no videos\n"
    assert not (tmp_path / "p.csv").exists() and not (tmp_path / "fresh" / "config.txt").exists()


def test_a_rejected_run_leaves_no_out_directory(tmp_path, tiny_dataset, capsys):
    empty = tmp_path / "empty.fav"
    empty.write_bytes(b"FAV1" + struct.pack("<5I", 1, 0, 8, 4, 4))
    out = tmp_path / "run"
    for dataset, extra, error in ((empty, [], "holds no videos"),
                                  (tiny_dataset, ["--set", "data.noise_sigma=1"], "takes no config key"),
                                  (tiny_dataset, ["--set", "train.base_lr=-1"], "train.base_lr")):
        assert main(["train", "--dataset", str(dataset), "--out", str(out)] + extra + TINY) == 1
        assert error in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("stream,value", [("visual", np.nan), ("audio", np.inf)])
def test_non_finite_frame_fails_at_read_naming_file_and_video(tmp_path, tiny_dataset, capsys, stream, value):
    dataset = read_dataset(tiny_dataset)
    getattr(dataset.records[5], stream)[-1, 0] = value  # the last frame: past any max_frames cut
    bad = tmp_path / "bad.fav"
    write_dataset(dataset, bad)
    capsys.readouterr()
    assert main(["train", "--dataset", str(bad), "--out", str(tmp_path / "run")] + TINY) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: video {dataset.records[5].video_id!r} has a non-finite frame value\n")


def test_training_overflow_names_dataset_and_step(tmp_path, tiny_dataset, capsys):
    dataset = read_dataset(tiny_dataset)
    dataset.records[0].visual[0, 0] = 3e30
    huge = tmp_path / "huge.fav"
    write_dataset(dataset, huge)
    out = tmp_path / "run"
    cases = ((huge, [], f"{huge}", 1),
             (huge, ["--eval-dataset", str(tiny_dataset)], f"{huge} and {tiny_dataset}", 1),
             (tiny_dataset, ["--eval-dataset", str(huge)], f"{tiny_dataset} and {huge}", 2))
    for train_set, extra, names, step in cases:  # the last fails scoring after step 2
        assert main(["train", "--dataset", str(train_set), "--out", str(out), "--steps", "3",
                     "--eval-every", "2", "--batch-size", "24"] + extra + TINY) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {names}: training step {step}: ") and err.count("\n") == 1
        assert not any(out.iterdir())


def test_os_errors_name_the_path(tmp_path, tiny_dataset, capsys):
    a_file = tmp_path / "taken"
    a_file.write_text("")
    for argv, path in ((["--dataset", str(tmp_path), "--out", str(tmp_path / "run")], tmp_path),
                       (["--dataset", str(tiny_dataset), "--out", str(a_file)], a_file)):
        assert main(["train", "--steps", "1"] + argv + TINY) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1


def test_checkpoint_shape_numpy_cannot_form_names_file_and_tensor(tmp_path, tiny_dataset, capsys):
    # a zero dim leaves no bytes to read, yet the other dims make an array too large to form
    path = tmp_path / "zero.ckpt"
    tensor = struct.pack("<H", 1) + b"w" + struct.pack("<BB4I", 0, 4, 0, *[4_000_000_000] * 3)
    path.write_bytes(b"CKPT" + struct.pack("<IQQII", 1, 0, 0, 0, 1) + tensor)
    message = f"{path}: tensor 'w' has shape (0, 4000000000, 4000000000, 4000000000), too large to form"
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == message
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--dataset", str(tiny_dataset)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


class ClosedPipe:
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_exits_quietly_with_the_sigpipe_status(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["param-count", "--set", "model.hidden=16", "--set", "vlad.clusters=2",
                 "--set", "model.video_dim=8", "--set", "model.audio_dim=4",
                 "--set", "model.num_classes=4"]) == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_of_a_process_prints_no_error(tmp_path, unbuffered):
    # block-buffered output reaches the closed pipe only at the last flush
    env = dict(os.environ, PYTHONPATH=str(Path(nextvlad.__file__).parent.parent),
               PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen(
            [sys.executable, "-m", "nextvlad.cli", "param-count", "--set", "model.hidden=16",
             "--set", "vlad.clusters=2", "--set", "model.video_dim=8", "--set", "model.audio_dim=4",
             "--set", "model.num_classes=4"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()  # long before the child has imported numpy
        err = proc.stderr.read()
    assert (err, proc.returncode) == (b"", 141)


def _replace_echo_line(ckpt, old: str, new: str) -> int:
    """Rewrite one line of a checkpoint's config echo in place; returns its
    1-based line number.  The echo length sits after the 24-byte header."""
    raw = ckpt.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 24)
    lines = raw[28:28 + n].decode("utf-8").split("\n")
    line_no = lines.index(old) + 1
    lines[line_no - 1] = new
    echo = "\n".join(lines).encode("utf-8")
    ckpt.write_bytes(raw[:24] + struct.pack("<I", len(echo)) + echo + raw[28 + n:])
    return line_no


@pytest.mark.parametrize("line, message", [
    ("train.seed 3", "expected 'key = value', got 'train.seed 3'"),
    ("train.sead = 3", "unknown config key 'train.sead'"),
    ("train.seed = x", "train.seed: expected int, got 'x'"),
    # the key is gone, so a checkpoint from before that holds it is rejected
    ("model.reverse_whitening = false", "unknown config key 'model.reverse_whitening'"),
    # the echo holds train's keys only; gen-data's were never read
    ("data.num_videos = 2000", "train takes no config key 'data.num_videos'"),
])
def test_corrupt_config_echo_names_checkpoint_and_line(tmp_path, tiny_dataset, capsys, line, message):
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                 "--steps", "1", "--batch-size", "8", "--seed", "3"] + TINY) == 0
    ckpt = out / "checkpoint.ckpt"
    line_no = _replace_echo_line(ckpt, "train.seed = 3", line)
    capsys.readouterr()
    assert main(["eval", "--dataset", str(tiny_dataset), "--checkpoint", str(ckpt)]) == 1
    assert capsys.readouterr().err == f"error: {ckpt}: config echo line {line_no}: {message}\n"


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_train_bytes_do_not_depend_on_the_blas_thread_setting(tmp_path):
    """A desk-shaped train in a fresh process writes the same log and checkpoint
    with the BLAS thread variables unset as with one thread: the package sets one
    before numpy loads.  With more threads the BLAS may split a product's sums
    differently.  On a host with one core both runs have one thread anyway, so
    there the test passes whatever the package does."""
    data = tmp_path / "desk.fav"
    assert main(["gen-data", "--out", str(data), "--videos", "300", "--classes", "20",
                 "--set", "data.visual_dim=64", "--set", "data.audio_dim=16", "--seed", "7"]) == 0
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(nextvlad.__file__).parent.parent)
    runs = {"unset": env, "one": {**env, "OPENBLAS_NUM_THREADS": "1"}}
    for name, run_env in runs.items():
        subprocess.run([sys.executable, "-m", "nextvlad.cli", "train", "--dataset", str(data),
                        "--out", str(tmp_path / name), "--set", "model.hidden=128",
                        "--set", "vlad.clusters=8", "--set", "vlad.groups=4", "--batch-size", "64",
                        "--steps", "30", "--seed", "3"],
                       env=run_env, check=True, stdout=subprocess.DEVNULL)
    for file in ("train_log.csv", "checkpoint.ckpt"):
        assert (tmp_path / "unset" / file).read_bytes() == (tmp_path / "one" / file).read_bytes(), file


# ---------------------------------------------------------------------------
# param-count / verify
# ---------------------------------------------------------------------------


def test_param_count_paper_scale_configs(capsys):
    assert main(["param-count"]) == 0
    out = capsys.readouterr().out
    assert "71,352,320" in out  # video stream at defaults
    assert "1,048,576" in out  # SE gate at H=2048, r=8

    assert main(["param-count", "--set", "model.kind=netvlad"]) == 0
    out = capsys.readouterr().out
    assert "268,697,600" in out


def test_param_count_mismatch_nonzero_exit(monkeypatch, capsys):
    import nextvlad.cli as cli

    monkeypatch.setattr(cli, "param_count_nextvlad", lambda cfg: 1)
    assert main(["param-count"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_param_count_mixture_row(monkeypatch, capsys):
    import nextvlad.cli as cli

    assert main(["param-count", "--set", "model.experts=3"]) == 0
    out = capsys.readouterr().out
    # 3 x 88,999,936 model weights + a (1024 + 128) x 3 gate
    assert "3-expert mixture weights" in out and out.count("267,003,264") == 2
    assert "88,999,936" in out and "MISMATCH" not in out

    monkeypatch.setattr(cli, "NUM_EXPERTS", 2)  # formula for 2 experts, census of 3
    assert main(["param-count", "--set", "model.experts=3"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_command_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out and "ok   grad weight_product" in out


def test_dataset_dims_must_match_the_model(tmp_path, tiny_dataset, capsys):
    other = tmp_path / "five.fav"
    assert main(["gen-data", "--out", str(other), "--videos", "8", "--classes", "5",
                 "--set", "data.visual_dim=8", "--set", "data.audio_dim=4",
                 "--set", "data.frames_min=2", "--set", "data.frames_max=4"]) == 0
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                 "--steps", "1", "--batch-size", "8"] + TINY) == 0
    ckpt = str(out / "checkpoint.ckpt")
    capsys.readouterr()
    for argv in (["eval", "--checkpoint", ckpt, "--dataset", str(other)],
                 ["predict", "--checkpoint", ckpt, "--dataset", str(other),
                  "--out", str(tmp_path / "p.csv")],
                 ["train", "--dataset", str(other), "--out", str(out), "--resume", ckpt],
                 ["train", "--dataset", str(tiny_dataset), "--eval-dataset", str(other),
                  "--out", str(tmp_path / "fresh"), "--steps", "1"] + TINY):
        assert main(argv) == 1
        assert f"{other}: num_classes is 5" in capsys.readouterr().err
    assert not (tmp_path / "fresh" / "checkpoint.ckpt").exists()


def test_eval_requires_source(capsys, tmp_path, tiny_dataset):
    assert main(["eval", "--dataset", str(tiny_dataset)]) == 2
    csv_path = tmp_path / "p.csv"
    csv_path.write_text("video_id,class_id,confidence\n")
    assert main(["eval", "--dataset", str(tiny_dataset), "--checkpoint", str(tmp_path / "c.ckpt"),
                 "--predictions", str(csv_path)]) == 2
    assert capsys.readouterr().err.endswith(
        "eval needs exactly one of --checkpoint or --predictions\n")
