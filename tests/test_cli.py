"""Config parsing and the command-line surface, end to end on tiny runs."""

import struct

import numpy as np
import pytest

from nextvlad.cli import main
from nextvlad.config import RunConfig, batch_max_frames, model_config_from, resolve_dims
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
    f.write_text("# a comment\ntrain.steps = many\n")
    assert main(["param-count", "--config", str(f)]) == 1
    assert capsys.readouterr().err == f"error: {f}:2: train.steps: expected int, got 'many'\n"
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
    ("train.steps", "-5"), ("train.steps", -5), ("data.max_frames", "-3"),
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
    f.write_bytes(b"train.steps = 3\ntrain.seed = \xff\n")
    assert main(["param-count", "--config", str(f)]) == 1
    assert capsys.readouterr().err == (
        f"error: {f}:2: not valid UTF-8 (invalid start byte)\n")


def test_echo_roundtrip():
    cfg = RunConfig()
    cfg.set("train.base_lr", "0.00125")
    cfg.set("model.experts", "3")
    cfg.set("model.reverse_whitening", "true")
    back = RunConfig.from_echo(cfg.echo(), "run.ckpt")
    assert back.echo() == cfg.echo()
    assert back["train.base_lr"] == 0.00125
    assert back["model.experts"] == 3


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
    assert batch_max_frames(cfg) == cfg["data.frames_max"]


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
    assert (out / "config.txt").exists()


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
    true_count, pred_count, hit_count = (np.zeros(12, dtype=np.int64) for _ in range(3))
    for video in preds.videos:
        for cls in video.labels:
            true_count[cls] += 1
        for cls, _ in video.predictions:
            pred_count[cls] += 1
            hit_count[cls] += cls in video.labels
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
    ["--eval-every", "-4"], ["--set", "data.max_frames=-3"], ["--set", "train.l2_classifier=-1"],
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


def test_eigenvalues_need_reverse_whitening(tmp_path, tiny_dataset, eig, capsys):
    out = tmp_path / "run"
    base = ["train", "--dataset", str(tiny_dataset), "--out", str(out), "--steps", "1",
            "--batch-size", "8", "--eigenvalues", str(eig)] + TINY
    capsys.readouterr()
    assert main(base) == 1
    assert capsys.readouterr().err == (
        "error: model.eigenvalues is set but model.reverse_whitening is false\n")
    assert not (out / "checkpoint.ckpt").exists()


def test_checkpoint_with_eigenvalues_but_no_whitening_still_loads(tmp_path, tiny_dataset, eig):
    out = tmp_path / "run"
    assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out), "--steps", "1",
                 "--batch-size", "8", "--eigenvalues", str(eig),
                 "--set", "model.reverse_whitening=true"] + TINY) == 0
    ckpt = out / "checkpoint.ckpt"
    _replace_echo_line(ckpt, "model.reverse_whitening = true", "model.reverse_whitening = false")
    assert main(["eval", "--dataset", str(tiny_dataset), "--checkpoint", str(ckpt)]) == 0


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


def test_os_errors_name_the_path(tmp_path, tiny_dataset, capsys):
    a_file = tmp_path / "taken"
    a_file.write_text("")
    for argv, path in ((["--dataset", str(tmp_path), "--out", str(tmp_path / "run")], tmp_path),
                       (["--dataset", str(tiny_dataset), "--out", str(a_file)], a_file)):
        assert main(["train", "--steps", "1"] + argv + TINY) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1


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
    assert "checks passed" in out


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
