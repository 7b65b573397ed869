"""mdgesture benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload render --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` there and nowhere else. The set-up (seeded inputs and, for render
and sample, a trained model) runs several times and its median time is
`setup_s`. Repetitions of the workload then run until `--seconds` is
used up, each followed by its output checks. Timings are reported at the
speed of a fixed reference kernel (reference.py), which steadies them
against the drift in speed of a shared host. With `--trace 0` the last
line printed holds the end-to-end metrics; with `--trace 1` repetitions
alternate between untraced and traced, and it holds the per-layer
metrics of the traced ones plus the tracing overhead. The line before it
records the machine. A Chrome trace and the full result are written
under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: on 2 cores a threaded BLAS
# widened the spread of a 1200-frame `generate` from 4.8-5.2 s to 4.9-7.4 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("render", "sample", "roundtrip")
MIN_REPS = 2     # the determinism check needs a second repetition
MAX_REPS = 200
MIN_SETUPS = 3   # set-up runs at least this often and for at least
SETUP_SECONDS = 2.0  # this long; setup_s is the median
QUALITY_SEED = 0

# (name, unit, better); every workload reports every one of them.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("loop_s", "s", "lower"),
    ("frames_per_s", "frames/s", "higher"),
    ("train_steps_per_s", "steps/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_frac", "frac", "higher"),
    ("gen_bas", "score", "higher"),
    ("gen_frechet", "score", "lower"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny shrinks every input; used by the self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads():
    """Threads of the BLAS numpy loaded, asked of the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "blas" in ln and ".so" in ln}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def median(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else math.nan


def measure(wl, args, work: Path, tracer):
    """Set up, then run timed repetitions until the time is used up.

    The reference kernel runs three times before the set-ups, three times
    after them and once after each repetition. The set-ups get the scale
    of the median of the six kernel times around them, each repetition
    that of the two around it.
    """
    import reference
    import workloads

    ref = reference.Reference()
    ref.time()  # warm-up
    ref_s = [ref.time() for _ in range(3)]
    ops = []
    setups = []
    while len(setups) < MIN_SETUPS or sum(r.wall_s for r in setups) < SETUP_SECONDS:
        d = work / f"setup{len(setups)}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        rep = wl.setup(d)
        rep.wall_s = time.perf_counter() - t0
        setups.append(rep)
        ops += rep.ops
        if len(setups) > 1:
            workloads.clear(d)
    ref_s += [ref.time() for _ in range(3)]
    for rep in setups:
        rep.scale = reference.NOMINAL_S / statistics.median(ref_s)
    digests = {rep.digest for rep in setups}
    workloads.check(ops, "set-up is deterministic", len(digests) == 1 and "" not in digests)
    setup_dir = work / "setup0"

    reps = []   # (Rep, trace run id or None)
    cycle = []  # wall time of each repetition including its checks
    deadline = time.perf_counter() + args.seconds
    while len(reps) < MAX_REPS:
        i = len(reps)
        run_id = None
        if tracer is not None and i % 2 == 1:
            run_id = f"{args.workload}-seed{args.seed}-rep{i}"
        d = work / f"rep{i}"
        d.mkdir()
        start = time.perf_counter()
        if tracer is not None:
            tracer.run_id = run_id
        try:
            rep = wl.run(setup_dir, d)
        finally:
            if tracer is not None:
                tracer.run_id = None
        wl.check(setup_dir, d, rep)
        if reps:
            workloads.check(rep.ops, "outputs match the first repetition",
                            rep.digest == reps[0][0].digest)
        ops += rep.ops
        workloads.clear(d)
        ref_s.append(ref.time())
        rep.scale = reference.NOMINAL_S / statistics.mean(ref_s[-2:])
        reps.append((rep, run_id))
        now = time.perf_counter()
        cycle.append(now - start)
        if len(reps) >= MIN_REPS and now + statistics.median(cycle) > deadline:
            break
    return setups, reps, ops, ref_s


def score_quality(size, work: Path):
    """One untimed roundtrip on QUALITY_SEED, for gen_bas and gen_frechet.

    The scores are deterministic per seed but spread about 20% across
    seeds (each seed trains its own model), as wide as any bound allows.
    Scoring one fixed seed keeps them a guard against quality loss between
    commits. render and sample train their model for only a few steps, so
    every workload takes its scores from the toy rig's whole loop.
    """
    import workloads

    wl = workloads.Roundtrip(QUALITY_SEED, size)
    d = work / "quality"
    (d / "setup").mkdir(parents=True)
    (d / "run").mkdir()
    rep = wl.setup(d / "setup")
    run = wl.run(d / "setup", d / "run")
    wl.check(d / "setup", d / "run", run)
    run.ops[:0] = rep.ops
    return run


def end_to_end(setups, reps, quality) -> dict:
    """Timings are scaled to the reference kernel's nominal speed (reference.py)."""
    timed = [rep for rep, _ in reps]
    return {
        "setup_s": median(r.wall_s * r.scale for r in setups),
        "loop_s": median(r.wall_s * r.scale for r in timed),
        "frames_per_s": median(r.values["frames"] / (r.stage_s["generate"] * r.scale)
                               for r in timed),
        "train_steps_per_s": median(r.values["train_steps"] / (r.stage_s["train"] * r.scale)
                                    for r in timed),
        "gen_bas": quality.values["bas"],
        "gen_frechet": quality.values["frechet"],
    }


def per_layer(reps, tracer) -> dict:
    traced = [rep for rep, run_id in reps if run_id]
    plain = [rep for rep, run_id in reps if not run_id]
    runs = [tracer.layer_metrics(run_id) for _, run_id in reps if run_id]
    values = {name: median(run[name] for run in runs) for name in runs[0]}
    traced_s = median(r.wall_s for r in traced)
    values["trace.rep_s"] = traced_s
    values["trace.overhead_frac"] = traced_s / median(r.wall_s for r in plain) - 1.0
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mdgesture" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mdgesture

    if Path(mdgesture.__file__).resolve().parent != SRC / "mdgesture":
        print(f"perfbench: imported {mdgesture.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    size = workloads.TINY if args.size == "tiny" else workloads.FULL
    wl = workloads.make(args.workload, args.seed, size)
    out_dir = ROOT / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    work = out_dir / f"work-{os.getpid()}"
    tracer = None
    try:
        if args.trace:
            tracer = tracing.Tracer()
            try:
                tracer.install()
            except tracing.MissingLayerError as e:
                print(f"perfbench: cannot trace: {e}", file=sys.stderr)
                return 3
        setups, reps, ops, ref_s = measure(wl, args, work, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            values = per_layer(reps, tracer)
            names = tracing.LAYER_METRICS
            tracer.write_chrome(out_dir / f"{tag}.trace.json")
        else:
            quality = score_quality(size, work)
            ops += quality.ops
            values = end_to_end(setups, reps, quality)
            values["peak_rss_mb"] = peak_rss_mb
            names = END_TO_END
    finally:
        if tracer is not None:
            tracer.uninstall()
        workloads.clear(work)

    attempted = len(ops)
    failed = sum(1 for _, ok in ops if not ok)
    values["ops_ok_frac"] = (attempted - failed) / attempted
    metrics = {}
    for name, unit, _ in names:
        v = float(values[name])
        metrics[name] = {"value": v if math.isfinite(v) else 0.0, "unit": unit}
    machine = machine_facts()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "machine": machine,
              "setup_s": [r.wall_s for r in setups],
              "rep_s": [r.wall_s for r, _ in reps],
              "rep_stage_s": [r.stage_s for r, _ in reps],
              "reference_s": ref_s,
              "failed_ops": [name for name, ok in ops if not ok], **result}
    (out_dir / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print("# machine " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
