"""The benchmark tracer finds every layer it wraps, and a run reaches it.

perfbench/tracing.py wraps functions by name where their callers look
them up; a refactor that moves or renames one makes `install` raise, and
the benchmark would then stop with a missing layer. A caller that stops
calling through the wrapped name (say, one that keeps an unused import)
installs fine but records nothing, so a traced toy CLI chain must record
every span.
"""

from pathlib import Path

import numpy as np
import pytest

import mdgesture.longgen
from mdgesture import cli
from mdgesture.audio import AudioClip, write_wav
from mdgesture.ppm import from_bytes_array, write_pnm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# renderable (n >= 3) and long enough to re-fill a gap-2 junction
CHAIN_CFG = """\
k = 1
n = 3
m = 12
stride = 6
T = 3
gamma = 2
p = 2
gap = 2
steps = 4
batch = 2
hidden = 8
embed = 4
sequences = 2
c_audio = 2
"""


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_installs_and_uninstalls(tracing):
    original = mdgesture.longgen.sample
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mdgesture.longgen.sample is not original
    finally:
        tracer.uninstall()
    assert mdgesture.longgen.sample is original


def _chain(root: Path) -> list:
    """Every subcommand the benchmark times, on toy inputs."""
    (root / "run.cfg").write_text(CHAIN_CFG)
    (root / "pairs.csv").write_text(
        "src_x,src_y,dst_x,dst_y\n"
        "0.0,0.0,0.1,0.0\n0.5,0.0,0.5,0.1\n0.0,0.5,0.0,0.4\n-0.5,-0.5,-0.4,-0.5\n"
    )
    ramp = np.linspace(0, 255, 70 * 66 * 3).reshape(70, 66, 3)  # > 64 px: upsampled
    (root / "src.ppm").write_bytes(write_pnm(from_bytes_array(np.round(ramp))))
    samples = np.zeros(8000)
    samples[[2000, 6000]] = 0.9
    (root / "clicks.wav").write_bytes(write_wav(AudioClip(samples, 8000)))
    cfg = ["--config", "run.cfg"]
    gen = [*cfg, "--params", "model.mdnn", "--features", "clicks.mdaf",
           "--seed-motion", "data/seq_0000.mdsq"]
    return [
        ["tps-solve", "--pairs", "pairs.csv", "--out", "t.mdtf"],
        ["warp", "--image", "src.ppm", "--transform", "t.mdtf",
         "--out", "warped.ppm", "--flow-out", "flow.mdfl"],
        ["synth-data", *cfg, "--out-dir", "data"],
        ["train", *cfg, "--data", "data", "--out", "model.mdnn"],
        ["beats", "--wav", "clicks.wav", "--out", "beats.csv",
         "--features", "clicks.mdaf", "--channels", "2"],
        ["generate", *gen, "--out", "gen/a.mdsq", "--frames", "24",
         "--render-src", "src.ppm", "--render-dir", "frames"],
        ["generate", *gen, "--out", "gen/b.mdsq", "--frames", "12"],
        ["metrics", *cfg, "--generated", "gen", "--reference", "data",
         "--features", "clicks.mdaf", "--out-dir", "report"],
    ]


def test_toy_chain_reaches_every_span(tracing, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gen").mkdir()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_id = "chain"
        codes = [cli.main(argv) for argv in _chain(tmp_path)]
    finally:
        tracer.run_id = None
        tracer.uninstall()
    assert codes == [0] * len(codes)
    recorded = {span[0] for span in tracer.spans}
    expected = {name for _, _, name in tracing.TARGETS}
    assert sorted(expected - recorded) == []
