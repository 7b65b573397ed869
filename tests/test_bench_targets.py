"""The benchmark tracer finds every layer it wraps.

perfbench/tracing.py wraps functions by name where their callers look
them up; a refactor that moves or renames one makes `install` raise, and
the benchmark would then stop with a missing layer.
"""

from pathlib import Path

import mdgesture.longgen

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = mdgesture.longgen.sample
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mdgesture.longgen.sample is not original
    finally:
        tracer.uninstall()
    assert mdgesture.longgen.sample is original
