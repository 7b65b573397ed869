"""Deterministic gesture-motion toolkit, reproducible from explicit seeds.

Each stage has one home; import names from the module that defines them:
`tps` and `flow` solve and apply the thin-plate-spline warps, `diffusion`
holds the denoiser and its sampler, `longgen` stitches long sequences from
selected candidates, `metrics` scores motion, `audio` turns WAV clips into
beat features, `formats` reads and writes every artifact, `config` parses
the run settings, and `cli` is the `mdgesture` command.
"""
