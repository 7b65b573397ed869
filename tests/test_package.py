"""Package-level checks: every module imports on its own, and README's
library snippets run as written."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import mdgesture
from mdgesture import formats
from mdgesture.audio import AudioCondition
from mdgesture.config import PipelineConfig
from mdgesture.diffusion import MlpDenoiser
from mdgesture.motion import MotionSequence
from mdgesture.rng import generator

PACKAGE = Path(mdgesture.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

# drops every mdgesture module before each import, so no module can lean
# on another having been imported first
IMPORT_EACH = """\
import importlib, sys
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    for key in [k for k in sys.modules if k.split(".")[0] == "mdgesture"]:
        del sys.modules[key]
    importlib.import_module(name)
"""


def test_each_module_imports_on_its_own():
    names = ["mdgesture"] + sorted(
        f"mdgesture.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert "mdgesture.cli" in names and len(names) > 10
    done = subprocess.run([sys.executable, "-c", IMPORT_EACH, str(PACKAGE.parent), *names],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def library_snippets():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n")[1]
    return re.findall(r"```python\n(.*?)```", section.split("\n## ")[0], re.S)


def test_readme_library_snippets_run(tmp_path, monkeypatch):
    tps_snippet, generate_snippet, train_snippet = library_snippets()
    exec(tps_snippet, {})
    # the files the second snippet reads, on the default config's shapes
    cfg, g = PipelineConfig(), generator(0)
    formats.write_denoiser(tmp_path / "model.mdnn",
                           MlpDenoiser(cfg.c, cfg.c_audio, cfg.hidden, cfg.embed))
    formats.write_audio_features(tmp_path / "clip.mdaf",
                                 AudioCondition(g.normal(size=(400, cfg.c_audio)), cfg.fps))
    (tmp_path / "data").mkdir()
    formats.write_sequence(tmp_path / "data" / "seq_0000.mdsq",
                           MotionSequence(g.normal(size=(2, cfg.c)), cfg.fps))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(generate_snippet, scope)
    assert scope["motion"].frames.shape == (400, cfg.c)
    assert np.all(np.isfinite(scope["motion"].frames))
    scope = {}
    exec(train_snippet, scope)
    assert scope["frames"].shape == (4, 12, 8) and scope["audio"].shape == (4, 12, 2)
    assert scope["history"][0][0] == 0 and scope["history"][-1][0] == 20
