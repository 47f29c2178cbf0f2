"""Smoke test of the benchmark at tiny sizes, in well under a minute:

    python3 perfbench/smoke.py

It runs every code path of the benchmark (single model, mixture, NetVLAD;
untraced and traced) on a tiny workload and checks that each metric
BENCHMARK.json names is emitted with its unit and a finite value, with no
failed operation.  Then it generates a dataset with one NaN frame and
checks that the run still reports, with every failure counted.  Exit code
0 means every check passed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run  # first: it sets the BLAS thread count before numpy loads

import numpy as np

TINY = run.Workload(videos=48, classes=6, visual_dim=8, audio_dim=4, frames=(2, 5),
                    kind="nextvlad", clusters=(2, 2), groups=2, hidden=16, experts=1,
                    base_lr=1e-3, epochs=2, batch=16)
SECONDS = 0.5


def check_metrics(result: dict, declared: list, label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
    names = {m["name"] for m in declared}
    if set(result["metrics"]) != names:
        problems.append(f"{label}: metrics {sorted(result['metrics'])} != {sorted(names)}")
    for m in declared:
        entry = result["metrics"].get(m["name"], {})
        value = entry.get("value")
        if entry.get("unit") != m["unit"]:
            problems.append(f"{label}: {m['name']} unit {entry.get('unit')!r} != {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {m['name']} value {value!r}")
    return problems


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    nv = run.load_package()
    problems = []
    variants = {"tiny": TINY, "tiny-mixture": dataclasses.replace(TINY, experts=3),
                "tiny-netvlad": dataclasses.replace(TINY, kind="netvlad")}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for label, w in variants.items():
            result, _ = run.run_workload(nv, label, w, seed=1, seconds=SECONDS, trace=trace)
            problems += check_metrics(result, declared[key], f"{label} trace={trace}")

    gen_synthetic = nv.data.gen_synthetic

    def with_nan_frame(spec):
        dataset = gen_synthetic(spec)
        dataset.records[0].visual[0, 0] = np.nan
        return dataset

    nv.data.gen_synthetic = with_nan_frame
    try:
        result, record = run.run_workload(nv, "tiny-nan", TINY, seed=1, seconds=SECONDS, trace=0)
    finally:
        nv.data.gen_synthetic = gen_synthetic
    counted = 1 <= len(record["errors"]) <= result["failed"] < result["attempted"]
    if result["correct"] or not counted:
        problems.append(f"NaN frame: expected counted failures, got {result}, errors {record['errors']}")
    if not any("NaN" in e for e in record["errors"]):
        problems.append(f"NaN frame: no error names the NaN, errors {record['errors']}")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
