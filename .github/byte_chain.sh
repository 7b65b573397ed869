#!/usr/bin/env bash
# Run the toy chain, the rendered chain and the sample-rig chain into
# directory $1, with the mdgesture package that `python` imports (set
# PYTHONPATH to choose it).
#
# toy: synth-data, train, and a 30-frame generate (3 segments, so the head
# pass runs) with its candidate-score CSV. rendered: the same with k=2, n=3
# and a 12-frame generate rendered on a 96x80 source, above the 64 px flow
# lattice, so the flow is upsampled. sample: the benchmark's sample
# workload shape (c=200, m=80, T=50, p=5, gap=2) after 2 training steps,
# and a 400-frame generate with its scores: 5 segments, 4 spline-filled
# junctions. warps: two transforms solved from pair CSVs of 4 and 6 pairs;
# src.ppm warped through the first with an identity layer, its mask and
# its upsampled flow; src.ppm warped through both (two TPS groups, one per
# anchor count) with its flow; and a 48x40 source, below the flow lattice,
# warped through both with no identity layer, its mask and its flow at
# image resolution.
#
# Artifacts, relative to $1: model.mdnn gen.mdsq scores.csv data/
# rmodel.mdnn rgen.mdsq rdata/ frames/ smodel.mdnn sgen.mdsq sgen.csv sdata/
# t.mdtp warped.ppm mask.pgm flow.mdfl t6.mdtp warped2.ppm flow2.mdfl
# warped_small.ppm mask_small.pgm flow_small.mdfl (and the inputs toy.cfg
# render.cfg sample.cfg src.ppm src_small.ppm pairs.csv pairs6.csv).
set -euo pipefail
d=$1
mkdir -p "$d"
printf '%s\n' k=2 n=2 m=12 stride=6 T=5 gamma=2 p=3 gap=2 steps=20 \
  batch=4 hidden=16 embed=4 sequences=4 c_audio=2 seed=0 > "$d/toy.cfg"
printf '%s\n' k=2 n=3 m=12 stride=6 T=5 gamma=2 p=3 gap=2 steps=20 \
  batch=4 hidden=16 embed=4 sequences=4 c_audio=2 seed=0 > "$d/render.cfg"
printf '%s\n' k=20 n=5 m=80 T=50 gamma=2 p=5 gap=2 steps=2 batch=2 sequences=4 \
  seed=0 > "$d/sample.cfg"
python -c "import sys; sys.stdout.buffer.write(b'P6\n96 80\n255\n' + bytes(
  (7 * x + 13 * y + 50 * c) % 256 for y in range(80) for x in range(96) for c in range(3)))" \
  > "$d/src.ppm"
python -c "import sys; sys.stdout.buffer.write(b'P6\n48 40\n255\n' + bytes(
  (11 * x + 5 * y + 70 * c) % 256 for y in range(40) for x in range(48) for c in range(3)))" \
  > "$d/src_small.ppm"
printf '%s\n' src_x,src_y,dst_x,dst_y 0.1,0.0,0.0,0.0 0.5,0.1,0.5,0.0 \
  0.0,0.4,0.0,0.5 -0.4,-0.5,-0.5,-0.5 > "$d/pairs.csv"
printf '%s\n' src_x,src_y,dst_x,dst_y 0.3,0.2,0.2,0.2 0.7,0.1,0.8,0.1 0.6,0.9,0.6,0.8 \
  0.1,0.7,0.2,0.7 0.45,0.5,0.5,0.45 0.4,0.2,0.4,0.3 > "$d/pairs6.csv"
python -m mdgesture.cli synth-data --config "$d/toy.cfg" --out-dir "$d/data"
python -m mdgesture.cli train --config "$d/toy.cfg" --data "$d/data" --out "$d/model.mdnn"
python -m mdgesture.cli generate --config "$d/toy.cfg" --params "$d/model.mdnn" \
  --features "$d/data/seq_0001.mdaf" --seed-motion "$d/data/seq_0001.mdsq" \
  --frames 30 --out "$d/gen.mdsq" --scores "$d/scores.csv"
python -m mdgesture.cli synth-data --config "$d/render.cfg" --out-dir "$d/rdata"
python -m mdgesture.cli train --config "$d/render.cfg" --data "$d/rdata" --out "$d/rmodel.mdnn"
python -m mdgesture.cli generate --config "$d/render.cfg" --params "$d/rmodel.mdnn" \
  --features "$d/rdata/seq_0001.mdaf" --seed-motion "$d/rdata/seq_0001.mdsq" \
  --frames 12 --out "$d/rgen.mdsq" --render-src "$d/src.ppm" --render-dir "$d/frames"
python -m mdgesture.cli synth-data --config "$d/sample.cfg" --out-dir "$d/sdata"
python -m mdgesture.cli train --config "$d/sample.cfg" --data "$d/sdata" --out "$d/smodel.mdnn"
python -m mdgesture.cli generate --config "$d/sample.cfg" --params "$d/smodel.mdnn" \
  --features "$d/sdata/seq_0001.mdaf" --seed-motion "$d/sdata/seq_0001.mdsq" \
  --frames 400 --out "$d/sgen.mdsq" --scores "$d/sgen.csv"
python -m mdgesture.cli tps-solve --pairs "$d/pairs.csv" --out "$d/t.mdtp"
python -m mdgesture.cli warp --image "$d/src.ppm" --transform "$d/t.mdtp" \
  --out "$d/warped.ppm" --mask "$d/mask.pgm" --flow-out "$d/flow.mdfl" --background
python -m mdgesture.cli tps-solve --pairs "$d/pairs6.csv" --out "$d/t6.mdtp"
python -m mdgesture.cli warp --image "$d/src.ppm" --transform "$d/t.mdtp" \
  --transform "$d/t6.mdtp" --out "$d/warped2.ppm" --flow-out "$d/flow2.mdfl" --background
python -m mdgesture.cli warp --image "$d/src_small.ppm" --transform "$d/t.mdtp" \
  --transform "$d/t6.mdtp" --out "$d/warped_small.ppm" --mask "$d/mask_small.pgm" \
  --flow-out "$d/flow_small.mdfl"
