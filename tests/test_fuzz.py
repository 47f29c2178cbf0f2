"""Corrupted input files through the command line: truncations and byte flips
of FAV1, EIGV, CKPT and predictions CSV files.  Every run either succeeds or
exits 1 with one error line that names the corrupt file; none may raise."""

import numpy as np
import pytest

from nextvlad.cli import main
from nextvlad.data import write_eigenvalues
from nextvlad.model import Eigenvalues
from nextvlad.rng import Rng, derive_seed

TRIALS = 120  # per format; about a second each
TINY = ["--set", "model.hidden=16", "--set", "vlad.clusters=2", "--set", "vlad.groups=2",
        "--set", "model.se_ratio=4", "--steps", "1", "--batch-size", "4"]
WHITEN = ["--eigenvalues"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    paths = {"fav1": work / "tiny.fav", "eigv": work / "eig.eigv",
             "ckpt": work / "run" / "checkpoint.ckpt", "csv": work / "pred.csv"}
    assert main(["gen-data", "--out", str(paths["fav1"]), "--videos", "8", "--classes", "4",
                 "--set", "data.visual_dim=8", "--set", "data.audio_dim=4",
                 "--set", "data.frames_min=2", "--set", "data.frames_max=4", "--seed", "3"]) == 0
    write_eigenvalues(Eigenvalues(np.linspace(0.5, 2.0, 8)), paths["eigv"])
    assert main(["train", "--dataset", str(paths["fav1"]), "--out", str(work / "run")]
                + TINY + WHITEN + [str(paths["eigv"])]) == 0
    assert main(["predict", "--checkpoint", str(paths["ckpt"]), "--dataset", str(paths["fav1"]),
                 "--out", str(paths["csv"])]) == 0
    return work, paths


def command(fmt: str, work, paths, corrupt: str) -> list:
    """The command that reads a corrupt file of format ``fmt``; the other
    inputs are intact."""
    dataset, ckpt = str(paths["fav1"]), str(paths["ckpt"])
    if fmt == "fav1":
        return ["eval", "--checkpoint", ckpt, "--dataset", corrupt]
    if fmt == "eigv":
        return ["train", "--dataset", dataset, "--out", str(work / "t")] + TINY + WHITEN + [corrupt]
    if fmt == "ckpt":
        return ["eval", "--checkpoint", corrupt, "--dataset", dataset]
    return ["eval", "--predictions", corrupt, "--dataset", dataset]


def corrupt_bytes(data: bytes, rng: Rng) -> bytes:
    """One trial in four a truncation, otherwise 1-3 byte flips, each in the
    first 400 bytes (headers, lengths, ids, the config echo) with even odds."""
    if rng.integers(1, 4)[0] == 0:
        return data[:int(rng.integers(1, len(data))[0])]
    out = bytearray(data)
    for _ in range(1 + int(rng.integers(1, 3)[0])):
        span = min(400, len(out)) if rng.integers(1, 2)[0] else len(out)
        out[int(rng.integers(1, span)[0])] ^= 1 + int(rng.integers(1, 255)[0])
    return bytes(out)


@pytest.mark.parametrize("fmt", ["fav1", "eigv", "ckpt", "csv"])
def test_corrupt_files_fail_naming_the_file(files, fmt, capsys):
    work, paths = files
    source = paths[fmt]
    data = source.read_bytes()
    target = work / f"corrupt{source.suffix}"
    outcomes = {0: 0, 1: 0}
    for trial in range(TRIALS):
        target.write_bytes(corrupt_bytes(data, Rng(derive_seed(29, trial))))
        rc = main(command(fmt, work, paths, str(target)))
        err = capsys.readouterr().err
        assert rc in outcomes, f"trial {trial}: exit {rc}"
        outcomes[rc] += 1
        if rc:
            assert err.startswith("error: ") and err.count("\n") == 1, f"trial {trial}: {err}"
            assert str(target) in err, f"trial {trial}: {err}"
    assert outcomes[1] > 0, "no corruption was detected"
