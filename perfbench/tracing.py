"""Layer spans recorded from outside the program.

Each wrap target is a function looked up where its caller looks it up:
`cli` binds names at import, so `combine_flow` is wrapped on
`mdgesture.cli`, while `sample` is wrapped on `mdgesture.longgen` and the
denoiser's methods on the class. A target that no longer exists is an
error, so a refactor that moves a layer shows up as a missing layer, not
as a layer that silently reads zero.

Spans are kept in memory as (name, start, end, parent, run id) and are
written out as Chrome trace-event JSON when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

# (owner, attribute, span name). An owner is a module or module.Class path.
TARGETS = [
    ("mdgesture.cli", "main", "cli.main"),
    ("mdgesture.cli", "solve_tps", "tps.solve_tps"),
    ("mdgesture.flow", "eval_tps_grid", "tps.eval_tps_grid"),
    ("mdgesture.cli", "deform_grids", "flow.deform_grids"),
    ("mdgesture.cli", "combine_flow", "flow.combine_flow"),
    ("mdgesture.cli", "upsample_flow", "flow.upsample_flow"),
    ("mdgesture.cli", "warp_image", "flow.warp_image"),
    ("mdgesture.cli", "write_pnm_file", "ppm.write_pnm_file"),
    ("mdgesture.cli", "generate_long", "longgen.generate_long"),
    ("mdgesture.longgen", "sample", "diffusion.sample"),
    ("mdgesture.longgen", "select_best", "longgen.select_best"),
    ("mdgesture.longgen", "spline_fill", "longgen.spline_fill"),
    ("mdgesture.diffusion", "guided_x0", "diffusion.guided_x0"),
    ("mdgesture.diffusion", "p_step", "diffusion.p_step"),
    ("mdgesture.diffusion.MlpDenoiser", "predict", "diffusion.predict"),
    ("mdgesture.cli", "train_denoiser", "diffusion.train_denoiser"),
    ("mdgesture.diffusion.MlpDenoiser", "loss_gradients", "diffusion.loss_gradients"),
    ("mdgesture.diffusion", "q_sample", "diffusion.q_sample"),
    ("mdgesture.cli", "frechet_distance", "metrics.frechet_distance"),
    ("mdgesture.cli", "diversity", "metrics.diversity"),
    ("mdgesture.cli", "gesture_beats", "metrics.gesture_beats"),
    ("mdgesture.cli", "onset_envelope", "audio.onset_envelope"),
    ("mdgesture.cli", "detect_beats", "audio.detect_beats"),
    ("mdgesture.cli", "make_dataset", "synth.make_dataset"),
] + [
    ("mdgesture.formats", f"{verb}_{kind}", f"formats.{verb}")
    for verb in ("read", "write")
    for kind in ("transform", "flow", "sequence", "audio_features", "denoiser")
]

# Per-layer metrics: (name, unit, better). `.calls` counts spans, `.s` and
# `.self_s` are self time in seconds: span time not covered by child spans.
LAYER_METRICS = [
    ("tps.solve_tps.calls", "count", "lower"),
    ("tps.solve_tps.s", "s", "lower"),
    ("tps.eval_tps_grid.calls", "count", "lower"),
    ("tps.eval_tps_grid.s", "s", "lower"),
    ("flow.deform_grids.s", "s", "lower"),
    ("flow.combine_flow.s", "s", "lower"),
    ("flow.upsample_flow.s", "s", "lower"),
    ("flow.warp_image.s", "s", "lower"),
    ("flow.occluded_frac", "frac", "lower"),
    ("ppm.write_pnm_file.s", "s", "lower"),
    ("ppm.bytes_written", "B", "lower"),
    ("diffusion.sample.calls", "count", "lower"),
    ("diffusion.sample.self_s", "s", "lower"),
    ("diffusion.guided_x0.s", "s", "lower"),
    ("diffusion.predict.calls", "count", "lower"),
    ("diffusion.predict.s", "s", "lower"),
    ("diffusion.p_step.s", "s", "lower"),
    ("diffusion.train_denoiser.s", "s", "lower"),
    ("diffusion.loss_gradients.calls", "count", "lower"),
    ("diffusion.loss_gradients.s", "s", "lower"),
    ("diffusion.q_sample.s", "s", "lower"),
    ("longgen.generate_long.s", "s", "lower"),
    ("longgen.select_best.s", "s", "lower"),
    ("longgen.spline_fill.s", "s", "lower"),
    ("longgen.kept_ratio", "frac", "higher"),
    ("metrics.frechet_distance.s", "s", "lower"),
    ("metrics.diversity.s", "s", "lower"),
    ("metrics.gesture_beats.s", "s", "lower"),
    ("audio.onset_envelope.s", "s", "lower"),
    ("audio.detect_beats.s", "s", "lower"),
    ("synth.make_dataset.s", "s", "lower"),
    ("formats.read.s", "s", "lower"),
    ("formats.write.s", "s", "lower"),
    ("formats.bytes_written", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.rep_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


class MissingLayerError(RuntimeError):
    """A wrap target is gone: the layer moved or was renamed."""


def _resolve(owner: str):
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                raise MissingLayerError(f"{owner}: no attribute {attr!r}")
            obj = getattr(obj, attr)
        return obj
    raise MissingLayerError(f"{owner}: no such module")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _after_warp(tracer, args, result):
    mask = args[1].valid_mask
    tracer.count("flow.occluded_px", mask.size - int(mask.sum()))
    tracer.count("flow.px", mask.size)


def _after_pnm_write(tracer, args, result):
    tracer.count("ppm.bytes_written", _file_size(args[0]))


def _after_format_write(tracer, args, result):
    tracer.count("formats.bytes_written", _file_size(args[0]))


def _after_generate_long(tracer, args, result):
    report = result[1]
    tracer.count("longgen.segments_kept", 1 + sum(1 for row in report if row[3]))
    tracer.count("longgen.segments_drawn", 1 + len(report))


_AFTER = {
    "flow.warp_image": _after_warp,
    "ppm.write_pnm_file": _after_pnm_write,
    "formats.write": _after_format_write,
    "longgen.generate_long": _after_generate_long,
}


class Tracer:
    """Wraps the targets and records spans while `run_id` is set."""

    def __init__(self):
        self.spans: list = []    # [name, start, end, parent index, run id]
        self.counters: dict = defaultdict(dict)  # run id -> name -> value
        self.run_id = None
        self._stack: list = []
        self._originals: list = []

    def install(self) -> None:
        """Wrap every target; raise MissingLayerError if one is gone."""
        resolved = [(_resolve(owner), attr, name) for owner, attr, name in TARGETS]
        for obj, attr, name in resolved:
            if not callable(getattr(obj, attr, None)):
                raise MissingLayerError(f"{obj.__name__}.{attr} is missing or not a function")
        for obj, attr, name in resolved:
            original = getattr(obj, attr)
            self._originals.append((obj, attr, original))
            setattr(obj, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._originals):
            setattr(obj, attr, original)
        self._originals.clear()

    def count(self, name: str, value) -> None:
        run = self.counters[self.run_id]
        run[name] = run.get(name, 0) + value

    def _wrap(self, fn, name):
        after = _AFTER.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.run_id is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self, run_id) -> dict:
        """Per-layer calls, self time and ratios of one traced repetition."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, run in self.spans:
            if run != run_id:
                continue
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        self_s = {name: total[name] - child[name] for name in total}
        ctr = self.counters.get(run_id, {})
        out = {}
        for metric, _, _ in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(layer, 0)
            elif kind in ("s", "self_s"):
                out[metric] = self_s.get(layer, 0.0)
        px = ctr.get("flow.px", 0)
        out["flow.occluded_frac"] = ctr.get("flow.occluded_px", 0) / px if px else 0.0
        drawn = ctr.get("longgen.segments_drawn", 0)
        out["longgen.kept_ratio"] = ctr.get("longgen.segments_kept", 0) / drawn if drawn else 0.0
        out["ppm.bytes_written"] = ctr.get("ppm.bytes_written", 0)
        out["formats.bytes_written"] = ctr.get("formats.bytes_written", 0)
        out["cli.self_s"] = self_s.get("cli.main", 0.0)
        return out

    def write_chrome(self, path) -> None:
        """Write every span as a Chrome trace-event JSON file (one thread per run)."""
        runs = {}
        events = []
        t0 = min((s[1] for s in self.spans), default=0.0)
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            tid = runs.setdefault(run, len(runs) + 1)
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": round((start - t0) * 1e6, 3), "dur": round((end - start) * 1e6, 3),
                "pid": 1, "tid": tid,
                "args": {"span": i, "parent": parent, "run": run},
            })
        for run, tid in runs.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                           "args": {"name": run}})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh, separators=(",", ":"))
