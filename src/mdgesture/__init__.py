"""Deterministic gesture-motion toolkit.

Thin-plate-spline warping, a latent motion diffusion engine, arbitrary
length sampling with candidate selection, audio conditioning, and motion
metrics, all reproducible from explicit seeds.
"""

from .audio import (
    AudioClip,
    AudioCondition,
    align_features,
    detect_beats,
    onset_envelope,
    read_wav,
    synth_condition,
    write_wav,
)
from .config import PipelineConfig, parse_config, read_config_file
from .diffusion import (
    Condition,
    Denoiser,
    DiffusionSchedule,
    MlpDenoiser,
    guided_x0,
    make_schedule,
    p_step,
    q_sample,
    sample,
    total_loss,
    train_denoiser,
    training_windows,
)
from .errors import (
    ConfigError,
    FormatError,
    InvalidArgumentError,
    SingularSystemError,
    ToolkitError,
)
from .flow import (
    FLOW_RESOLUTION,
    FlowField,
    combine_flow,
    deform_grids,
    identity_flow,
    upsample_flow,
    warp_image,
)
from .formats import (
    read_audio_features,
    read_denoiser,
    read_flow,
    read_sequence,
    read_transform,
    verify_file,
    write_audio_features,
    write_denoiser,
    write_flow,
    write_sequence,
    write_transform,
)
from .longgen import CandidateScore, generate_long, select_best
from .metrics import (
    GaussianSummary,
    beat_align_score,
    diversity,
    frechet_distance,
    gesture_beats,
    motion_features,
    summarize,
    velocity_curve,
)
from .motion import MotionSequence, flatten, spline_fill, unflatten
from .ppm import RasterImage, parse_pnm, read_pnm_file, write_pnm, write_pnm_file
from .rng import generator
from .synth import make_dataset
from .tps import (
    TpsTransform,
    bending_energy,
    eval_tps,
    eval_tps_grid,
    identity_transform,
    solve_tps,
)

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "AudioCondition",
    "CandidateScore",
    "Condition",
    "ConfigError",
    "Denoiser",
    "DiffusionSchedule",
    "FLOW_RESOLUTION",
    "FlowField",
    "FormatError",
    "GaussianSummary",
    "InvalidArgumentError",
    "MlpDenoiser",
    "MotionSequence",
    "PipelineConfig",
    "RasterImage",
    "SingularSystemError",
    "ToolkitError",
    "TpsTransform",
    "align_features",
    "beat_align_score",
    "bending_energy",
    "combine_flow",
    "deform_grids",
    "detect_beats",
    "diversity",
    "eval_tps",
    "eval_tps_grid",
    "flatten",
    "frechet_distance",
    "generate_long",
    "generator",
    "gesture_beats",
    "guided_x0",
    "identity_flow",
    "identity_transform",
    "make_dataset",
    "make_schedule",
    "motion_features",
    "onset_envelope",
    "p_step",
    "parse_config",
    "parse_pnm",
    "q_sample",
    "read_audio_features",
    "read_config_file",
    "read_denoiser",
    "read_flow",
    "read_pnm_file",
    "read_sequence",
    "read_transform",
    "read_wav",
    "sample",
    "select_best",
    "solve_tps",
    "spline_fill",
    "summarize",
    "synth_condition",
    "total_loss",
    "train_denoiser",
    "training_windows",
    "unflatten",
    "upsample_flow",
    "velocity_curve",
    "verify_file",
    "warp_image",
    "write_audio_features",
    "write_denoiser",
    "write_flow",
    "write_pnm",
    "write_pnm_file",
    "write_sequence",
    "write_transform",
    "write_wav",
]
