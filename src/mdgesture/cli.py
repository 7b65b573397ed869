"""Command-line surface: the end-to-end pipeline as composable subcommands.

Exit codes: 0 success, 2 usage error (out of memory included), 3 artifact
or config parse error, 4 numeric/solver error. Seeded commands echo their
seed as a `# seed=N` first line in every text file they write.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import formats
from .audio import (
    DEFAULT_HOP,
    DEFAULT_WIN,
    beat_features,
    detect_beats,
    onset_envelope,
    read_wav,
)
from .config import PipelineConfig, read_config_file
from .diffusion import train_denoiser, training_windows
from .errors import (
    ConfigError,
    FormatError,
    InvalidArgumentError,
    NumericsError,
    SingularSystemError,
)
from .fileio import MAX_U32, read_text, write_atomic
from .flow import (
    FLOW_RESOLUTION,
    combine_flow,
    deform_grids,
    upsample_flow,
    warp_image,
)
from .longgen import generate_long
from .metrics import (
    beat_align_score,
    diversity,
    frechet_distance,
    gesture_beats,
    motion_features,
    summarize,
    velocity_curve,
)
from .motion import unflatten
from .ppm import mask_to_pgm, read_pnm_file, write_pnm_file
from .synth import make_dataset
from .tps import bending_energy, eval_tps, solve_tps, solve_tps_batch
from .workers import fork_call, join, usable_cores


def _load_config(args) -> PipelineConfig:
    cfg = read_config_file(args.config) if args.config else PipelineConfig()
    seed = getattr(args, "seed", None)
    if seed is not None:
        if seed < 0:
            raise InvalidArgumentError("--seed must be >= 0")
        cfg = replace(cfg, seed=seed)
    return cfg


def _write_text(path, lines, seed=None) -> None:
    head = [f"# seed={int(seed)}"] if seed is not None else []
    write_atomic(path, ("\n".join(head + list(lines)) + "\n").encode("utf-8"))


def _fmt(value) -> str:
    return repr(float(value))


def _check_out_dirs(*paths) -> None:
    """Refuse, before any work, an output whose directory is missing, so
    that a failed run leaves no earlier output behind."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise InvalidArgumentError(
                f"output directory {Path(path).parent} of {path} does not exist"
            )


# -- tps-solve ----------------------------------------------------------

def cmd_tps_solve(args) -> int:
    _check_out_dirs(args.out)
    src, dst = formats.pairs_from_text(read_text(args.pairs))
    t = solve_tps(src, dst, regularization=args.regularization)
    formats.write_transform(args.out, t)
    mapped = np.array([eval_tps(t, p) for p in dst])
    residual = float(np.linalg.norm(mapped - src, axis=1).max())
    print(f"energy = {_fmt(bending_energy(t))}")
    print(f"max_residual = {_fmt(residual)}")
    print(f"wrote {args.out}")
    return 0


# -- warp ---------------------------------------------------------------

def _render_frame(transforms, src_img, softness, background):
    """Warp `src_img` through the flow blended from `transforms`; returns
    the frame and the flow.

    Composition happens at FLOW_RESOLUTION when the image is larger,
    then the field is bilinearly upsampled to the image lattice.
    """
    height, width = src_img.height, src_img.width
    if max(height, width) > FLOW_RESOLUTION:
        h = w = FLOW_RESOLUTION
    else:
        h, w = height, width
    grids, nearest_sq = deform_grids(transforms, h, w)
    field = combine_flow(grids, nearest_sq, softness, background)
    if (h, w) != (height, width):
        field = upsample_flow(field, height, width)
    return warp_image(src_img, field), field


def cmd_warp(args) -> int:
    _check_out_dirs(args.out, args.mask, args.flow_out)
    img = read_pnm_file(args.image)
    transforms = [formats.read_transform(p) for p in args.transform]
    frame, field = _render_frame(transforms, img, args.softness, args.background)
    write_pnm_file(args.out, frame)
    if args.mask:
        write_atomic(args.mask, mask_to_pgm(~field.valid_mask))
    if args.flow_out:
        formats.write_flow(args.flow_out, field)
    print(f"wrote {args.out}")
    return 0


# -- synth-data ---------------------------------------------------------

def cmd_synth_data(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["sequence,motion,features,frames,channels,beats"]
    for i, (seq, cond) in enumerate(make_dataset(cfg)):
        motion_name = f"seq_{i:04d}.mdsq"
        feature_name = f"seq_{i:04d}.mdaf"
        formats.write_sequence(out_dir / motion_name, seq)
        formats.write_audio_features(out_dir / feature_name, cond)
        rows.append(
            f"{i},{motion_name},{feature_name},"
            f"{seq.n_frames},{seq.n_channels},{cond.beats.size}"
        )
    _write_text(out_dir / "index.csv", rows, seed=cfg.seed)
    print(f"wrote {cfg.sequences} sequences to {out_dir}")
    return 0


# -- train --------------------------------------------------------------

def _load_dataset_dir(path) -> list:
    data_dir = Path(path)
    seq_paths = sorted(data_dir.glob("*.mdsq"))
    if not seq_paths:
        raise InvalidArgumentError(f"no .mdsq files in {data_dir}")
    pairs = []
    for sp in seq_paths:
        fp = sp.with_suffix(".mdaf")
        if not fp.exists():
            raise InvalidArgumentError(f"no matching .mdaf for {sp.name}")
        pairs.append((formats.read_sequence(sp), formats.read_audio_features(fp)))
    return pairs


def cmd_train(args) -> int:
    _check_out_dirs(args.out, args.loss_csv)
    cfg = _load_config(args)
    dataset = training_windows(_load_dataset_dir(args.data), cfg)
    model, history = train_denoiser(dataset, cfg)
    formats.write_denoiser(args.out, model)
    if args.loss_csv:
        rows = ["step,probe_loss"]
        rows += [f"{step},{_fmt(loss)}" for step, loss in history]
        _write_text(args.loss_csv, rows, seed=cfg.seed)
    first, last = history[0][1], history[-1][1]
    print(f"trained on {len(dataset)} windows")
    print(f"probe_loss_first = {_fmt(first)}")
    print(f"probe_loss_last = {_fmt(last)}")
    print(f"wrote {args.out}")
    return 0


# -- generate -----------------------------------------------------------

def _render_source(path, cfg: PipelineConfig, n_channels: int):
    """Read the image frames are warped from, and check everything
    rendering needs before a single frame is sampled."""
    if cfg.n < 3:
        raise InvalidArgumentError(
            f"rendering needs n >= 3: TPS needs at least 3 control pairs, "
            f"config has n = {cfg.n}"
        )
    if cfg.c != n_channels:
        raise InvalidArgumentError(
            f"config k*n*2 = {cfg.c} does not match "
            f"model channels {n_channels}"
        )
    img = read_pnm_file(path)
    if img.height < 2 or img.width < 2:
        raise InvalidArgumentError("render source must be at least 2x2")
    return img


def _frame_transforms(motion, seed_vec, cfg) -> list:
    """Every frame's k transforms, solved in one batch over all frames
    before any artifact is written."""
    k, n = cfg.k, cfg.n
    seed_pts = unflatten(seed_vec[None, :], k, n)[0]
    pts = unflatten(motion, k, n).reshape(-1, n, 2)
    try:
        solved = solve_tps_batch(np.tile(seed_pts, (len(pts) // k, 1, 1)), pts)
    except SingularSystemError as e:
        raise SingularSystemError(
            f"frame {e.index // k}, transform {e.index % k}: {e}") from e
    return [solved[i:i + k] for i in range(0, len(solved), k)]


def _frame_name(i: int) -> str:
    return f"frame_{i:05d}.ppm"


# A worker renders at least this many frames: a fork costs about as much
# as a few frames, so a short render stays in one process.
FRAMES_PER_WORKER = 4


def _worker_count(frames: int) -> int:
    """Processes a render of `frames` frames uses: one per usable core,
    each with at least FRAMES_PER_WORKER frames, and 1 where the
    platform cannot fork."""
    return max(1, min(usable_cores(), frames // FRAMES_PER_WORKER))


def _render_chunk(frame_transforms, start, stop, cfg, src_img, out_dir):
    """Render and write frames start..stop-1. The previous frame stays
    bound while the next renders: freeing it too lets glibc trim the heap
    after each frame, which then page-faults 4.5 MiB back in (15% slower)."""
    for i in range(start, stop):
        frame, _ = _render_frame(frame_transforms[i], src_img, cfg.softness, True)
        write_pnm_file(out_dir / _frame_name(i), frame)


def _render_frames(frame_transforms, cfg, src_img, out_dir, workers=None):
    """Write one frame per entry of `frame_transforms`, then `frames.csv`.

    The frames are split into `workers` contiguous chunks (by default
    `_worker_count`). The calling process renders the first; each other
    chunk renders in a forked child, and every child is waited for
    before this returns or raises. A child's error is raised here, the
    lowest chunk's first, as a one-process render would raise it. A
    process holds one frame's buffers and the frame before it, and the
    bytes written do not depend on the number of workers.

    A directory that holds an earlier render loses its `frames.csv`
    before the first frame is written and, once the last one is, the
    frames numbered past this render's, so `frames.csv` only ever
    indexes the frames beside it.
    """
    out_dir = Path(out_dir)
    (out_dir / "frames.csv").unlink(missing_ok=True)
    count = len(frame_transforms)
    workers = _worker_count(count) if workers is None else workers
    workers = max(1, min(workers, count))
    bounds = [count * j // workers for j in range(workers + 1)]
    forked = []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            forked.append(fork_call(_render_chunk, frame_transforms, start, stop, cfg,
                                    src_img, out_dir))
        _render_chunk(frame_transforms, 0, bounds[1], cfg, src_img, out_dir)
    finally:
        errors = [e for e in (join(*f, "render worker") for f in forked) if e is not None]
    if errors:
        raise errors[0]
    for path in out_dir.glob("frame_*.ppm"):
        number = path.name[len("frame_"):-len(".ppm")]
        stale = (number.isdigit() and int(number) >= count
                 and path.name == _frame_name(int(number)))
        if stale and not path.is_dir():
            path.unlink()
    rows = ["frame,file"] + [f"{i},{_frame_name(i)}" for i in range(count)]
    _write_text(out_dir / "frames.csv", rows, seed=cfg.seed)


def cmd_generate(args) -> int:
    _check_out_dirs(args.out, args.scores)
    cfg = _load_config(args)
    if bool(args.render_src) != bool(args.render_dir):
        raise InvalidArgumentError(
            "--render-src and --render-dir must be given together"
        )
    model = formats.read_denoiser(args.params)
    cond = formats.read_audio_features(args.features)
    seed_vec = formats.read_sequence(args.seed_motion).frames[0]
    src_img = (_render_source(args.render_src, cfg, model.n_channels)
               if args.render_src else None)
    if args.frames is not None:
        m_total = args.frames
    elif args.seconds is not None:
        if not math.isfinite(args.seconds):
            raise InvalidArgumentError(f"--seconds must be finite, got {args.seconds}")
        m_total = round(args.seconds * cond.fps)
    else:
        m_total = cond.n_frames
    if m_total > MAX_U32:
        raise InvalidArgumentError(
            f"{m_total} frames do not fit a motion file's u32 frame count")
    motion, report = generate_long(model, cond, seed_vec, m_total, cfg)
    frame_transforms = None
    if args.render_src:
        frame_transforms = _frame_transforms(motion, seed_vec, cfg)
        Path(args.render_dir).mkdir(parents=True, exist_ok=True)
    formats.write_sequence(args.out, motion)
    if args.scores:
        rows = ["segment,candidate,position,angle,total,selected"]
        for seg, cand, score, selected in report:
            rows.append(
                f"{seg},{cand},{_fmt(score.position)},{_fmt(score.angle)},"
                f"{_fmt(score.total)},{int(selected)}"
            )
        _write_text(args.scores, rows, seed=cfg.seed)
    if args.render_src:
        _render_frames(frame_transforms, cfg, src_img, args.render_dir)
    print(f"wrote {motion.n_frames} frames to {args.out}")
    return 0


# -- metrics ------------------------------------------------------------

def _sequences_in(path, what: str) -> list:
    paths = sorted(Path(path).glob("*.mdsq"))
    if not paths:
        raise InvalidArgumentError(f"no .mdsq files in {what} directory {path}")
    return [(p, formats.read_sequence(p)) for p in paths]


def _features_for(path, count: int) -> list:
    """Beat sources for `count` generated sequences.

    A single .mdaf file is read once and shared by all sequences; a
    directory must hold either one file or exactly one per sequence
    (paired by sorted order).
    """
    path = Path(path)
    if path.is_dir():
        paths = sorted(path.glob("*.mdaf"))
        if not paths:
            raise InvalidArgumentError(f"no .mdaf files in {path}")
    else:
        paths = [path]
    if len(paths) not in (1, count):
        raise InvalidArgumentError(
            f"{len(paths)} feature files for {count} generated sequences"
        )
    conds = [formats.read_audio_features(p) for p in paths]
    return conds if len(conds) == count else conds * count


def cmd_metrics(args) -> int:
    cfg = _load_config(args)
    generated = _sequences_in(args.generated, "generated")
    reference = _sequences_in(args.reference, "reference")
    channels = sorted({seq.n_channels for _, seq in generated + reference})
    if len(channels) > 1:
        raise InvalidArgumentError(
            f"generated and reference sequences must share one channel count, "
            f"got {', '.join(map(str, channels))}")
    conds = _features_for(args.features, len(generated))

    per_rows = ["sequence,file,bas,gesture_beats,audio_beats"]
    curve_rows = ["sequence,frame,speed,smoothed,is_beat"]
    scores = []
    for i, ((path, seq), cond) in enumerate(zip(generated, conds)):
        times = gesture_beats(seq, cfg.sigma_smooth)
        bas = beat_align_score(cond.beats, times, cfg.sigma_b)
        scores.append(bas)
        per_rows.append(
            f"{i},{path.name},{_fmt(bas)},{times.size},{cond.beats.size}"
        )
        frames, raw, smooth, is_beat = velocity_curve(seq, cfg.sigma_smooth)
        for f, r, s, b in zip(frames, raw, smooth, is_beat):
            curve_rows.append(f"{i},{f},{_fmt(r)},{_fmt(s)},{int(b)}")

    def pooled(seqs):
        return np.stack([motion_features(s) for _, s in seqs])

    gen_feats, ref_feats = pooled(generated), pooled(reference)
    div_gen = diversity(gen_feats) if len(generated) >= 2 else math.nan
    div_ref = diversity(ref_feats) if len(reference) >= 2 else math.nan
    if len(generated) >= 2 and len(reference) >= 2:
        frechet = frechet_distance(summarize(gen_feats), summarize(ref_feats))
    else:
        frechet = math.nan

    summary = [
        f"generated = {len(generated)}",
        f"reference = {len(reference)}",
        f"bas = {_fmt(np.mean(scores))}",
        f"diversity_generated = {_fmt(div_gen)}",
        f"diversity_reference = {_fmt(div_ref)}",
        f"frechet = {_fmt(frechet)}",
    ]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "summary.txt", summary)
    _write_text(out_dir / "per_sequence.csv", per_rows)
    _write_text(out_dir / "velocity_curves.csv", curve_rows)
    for line in summary:
        print(line)
    return 0


# -- beats --------------------------------------------------------------

def cmd_beats(args) -> int:
    if args.fps < 1 or args.channels < 1:
        raise InvalidArgumentError("--fps and --channels must be >= 1")
    if not (math.isfinite(args.ratio) and args.ratio > 0):
        raise InvalidArgumentError(f"--ratio must be finite and > 0, got {args.ratio}")
    _check_out_dirs(args.out, args.features)
    clip = read_wav(Path(args.wav).read_bytes())
    envelope = onset_envelope(clip, args.win, args.hop)
    beats = detect_beats(envelope, args.hop, clip.sample_rate, args.ratio)
    cond = (beat_features(clip, envelope, args.hop, beats, args.fps, args.channels)
            if args.features else None)
    rows = ["beat,time_s"] + [f"{i},{_fmt(t)}" for i, t in enumerate(beats)]
    _write_text(args.out, rows)
    if cond is not None:
        formats.write_audio_features(args.features, cond)
    print(f"{len(beats)} beats in {float(clip.duration):.3f} s")
    return 0


# -- verify -------------------------------------------------------------

def cmd_verify(args) -> int:
    failures = 0
    for path in args.paths:
        try:
            kind, info = formats.verify_file(path)
        except (FormatError, InvalidArgumentError, OSError) as e:
            print(f"{path}: FAILED: {e}")
            failures += 1
        else:
            print(f"{path}: ok: {kind} {info}")
    return 3 if failures else 0


# -- parser -------------------------------------------------------------

def _add_config_and_seed(p, seed_help="override the config seed"):
    p.add_argument("--config", help="pipeline config file (key = value lines)")
    p.add_argument("--seed", type=int, help=seed_help)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: building it costs about
    twenty times a parse. Parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mdgesture",
        description="Audio-conditioned keypoint motion pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tps-solve", help="solve a warp from keypoint pairs")
    p.add_argument("--pairs", required=True, help="pair CSV (src_x,src_y,dst_x,dst_y)")
    p.add_argument("--out", required=True, help="output transform file")
    p.add_argument("--regularization", type=float, default=0.0)
    p.set_defaults(func=cmd_tps_solve)

    p = sub.add_parser("warp", help="warp an image through transforms")
    p.add_argument("--image", required=True, help="source PPM/PGM")
    p.add_argument(
        "--transform", action="append", required=True,
        help="transform file; repeat for multiple",
    )
    p.add_argument("--out", required=True, help="output image")
    p.add_argument("--mask", help="write the occlusion mask PGM here")
    p.add_argument("--flow-out", help="write the composed flow field here")
    p.add_argument("--softness", type=float, default=0.1)
    p.add_argument(
        "--background", action="store_true",
        help="blend in an identity layer so distant pixels stay put",
    )
    p.set_defaults(func=cmd_warp)

    p = sub.add_parser("synth-data", help="write a synthetic beat-driven dataset")
    _add_config_and_seed(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train", help="train the denoiser on a dataset directory")
    _add_config_and_seed(p)
    p.add_argument("--data", required=True, help="directory of .mdsq/.mdaf pairs")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--loss-csv", help="write the probe-loss curve here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample a long motion sequence")
    _add_config_and_seed(p)
    p.add_argument("--params", required=True, help="trained model file")
    p.add_argument("--features", required=True, help="audio feature file")
    p.add_argument(
        "--seed-motion", required=True,
        help="motion file whose first frame seeds generation",
    )
    p.add_argument("--out", required=True, help="output motion file")
    p.add_argument("--scores", help="write the candidate-score CSV here")
    length = p.add_mutually_exclusive_group()
    length.add_argument("--frames", type=int, help="total frames (default: feature rows)")
    length.add_argument("--seconds", type=float,
                        help="total duration in seconds, at the feature file's fps")
    p.add_argument("--render-src", help="source image to warp per frame")
    p.add_argument("--render-dir", help="directory for rendered frames")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("metrics", help="score generated motion against a reference")
    p.add_argument("--config", help="pipeline config file (key = value lines)")
    p.add_argument("--generated", required=True, help="directory of .mdsq files")
    p.add_argument("--reference", required=True, help="directory of .mdsq files")
    p.add_argument(
        "--features", required=True,
        help=".mdaf file or directory (beat source per sequence)",
    )
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("beats", help="detect beats in a WAV file")
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True, help="beat-time CSV")
    p.add_argument("--win", type=int, default=DEFAULT_WIN)
    p.add_argument("--hop", type=int, default=DEFAULT_HOP)
    p.add_argument("--ratio", type=float, default=1.5,
                   help="peak threshold over the local mean envelope (> 0)")
    p.add_argument("--features", help="also write an audio feature file")
    p.add_argument("--fps", type=int, default=25, help="feature frame rate")
    p.add_argument("--channels", type=int, default=4, help="feature channels")
    p.set_defaults(func=cmd_beats)

    p = sub.add_parser("verify", help="check artifact files")
    p.add_argument("paths", nargs="+", help="artifact files to check")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except InvalidArgumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FormatError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
