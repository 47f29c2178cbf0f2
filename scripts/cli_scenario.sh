#!/usr/bin/env bash
# Run a fixed desk-scale CLI scenario with the nextvlad package of CHECKOUT and
# write its 30 output files under OUTDIR, which must be absent or empty.
#
#   scripts/cli_scenario.sh CHECKOUT OUTDIR
#
# Every command runs inside OUTDIR on relative paths, so the files do not
# depend on where the scenario runs: two checkouts whose CLI behaves the same
# give trees that `diff -r` finds identical.  PYTHON selects the interpreter
# (default python3).
#
# The scenario: gen-data (300 videos, 30 classes, visual 8 / audio 4); three
# trainings sharing hidden 16, 4 clusters, 2 groups, batch 16 and lr 0.003:
# NeXtVLAD reverse-whitened by an 8-value EIGV file (--eigenvalues) and
# --lr-staircase for 10 steps, then --resume to 20; --model netvlad for 20
# steps; --mixture 3 for 20 steps.  Each of the three then runs predict, eval
# from its checkpoint and eval from the predictions CSV.  Last come the three
# param-counts at the same sizes.  A run's stdout.txt holds what its train and
# predict commands print; each eval prints to a file of its own.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 CHECKOUT OUTDIR" >&2
    exit 2
fi
checkout=$(cd "$1" && pwd)
if [ ! -d "$checkout/src/nextvlad" ]; then
    echo "$0: $1 holds no src/nextvlad" >&2
    exit 2
fi
mkdir -p "$2"
if [ -n "$(ls -A "$2")" ]; then
    echo "$0: $2 is not empty" >&2
    exit 2
fi
cd "$2"

python=${PYTHON:-python3}
nv() { PYTHONPATH="$checkout/src" "$python" -m nextvlad.cli "$@"; }
sizes=(--set model.hidden=16 --set vlad.clusters=4 --set vlad.groups=2)
shared=("${sizes[@]}" --batch-size 16 --lr 0.003)

nv gen-data --out data.fav --videos 300 --classes 30 \
    --set data.visual_dim=8 --set data.audio_dim=4 > gen-data.txt
PYTHONPATH="$checkout/src" "$python" -c '
import numpy as np
from nextvlad.data import write_eigenvalues
from nextvlad.model import Eigenvalues
write_eigenvalues(Eigenvalues(np.linspace(0.5, 4.0, 8)), "eig.eigv")'

mkdir nextvlad netvlad mixture
nv train --dataset data.fav --out nextvlad-10 "${shared[@]}" --steps 10 --lr-staircase \
    --eigenvalues eig.eigv > nextvlad/stdout.txt
nv train --dataset data.fav --out nextvlad --resume nextvlad-10/checkpoint.ckpt \
    --steps 20 >> nextvlad/stdout.txt
nv train --dataset data.fav --out netvlad "${shared[@]}" --steps 20 --model netvlad \
    > netvlad/stdout.txt
nv train --dataset data.fav --out mixture "${shared[@]}" --steps 20 --mixture 3 \
    > mixture/stdout.txt

for run in nextvlad netvlad mixture; do
    nv predict --checkpoint "$run/checkpoint.ckpt" --dataset data.fav \
        --out "$run/predictions.csv" >> "$run/stdout.txt"
    nv eval --checkpoint "$run/checkpoint.ckpt" --dataset data.fav > "$run/eval-checkpoint.txt"
    nv eval --predictions "$run/predictions.csv" --dataset data.fav \
        > "$run/eval-predictions.txt"
done

dims=(--set model.video_dim=8 --set model.audio_dim=4 --set model.num_classes=30)
nv param-count "${sizes[@]}" "${dims[@]}" > param-count-nextvlad.txt
nv param-count "${sizes[@]}" "${dims[@]}" --set model.kind=netvlad > param-count-netvlad.txt
nv param-count "${sizes[@]}" "${dims[@]}" --set model.experts=3 > param-count-mixture.txt
