"""Latent motion denoising diffusion.

The forward process corrupts a clean sequence x0 with Gaussian noise at
T discrete levels; the closed form x_t = sqrt(abar_t) x0 +
sqrt(1 - abar_t) eps matches iterating the one-step kernel. The model
predicts x0 itself (not the noise), so the reverse step is the posterior
mean over (x_t, predicted x0) with fixed variance beta_tilde, and
guidance is linear extrapolation between the conditional and
audio-masked predictions.

The reference denoiser is a two-layer tanh MLP over per-frame inputs
(noisy frame, audio frame, seed motion, sinusoidal step embedding) with
hand-written gradients, small enough that training and finite-difference
verification run in seconds. Its first layer is applied block by block
(one product per column block of w1; the seed and embedding blocks give
one row shared by every frame), so no per-frame input is ever built.
The null condition's audio is zero, so the two guidance branches share
all but the audio term; and the output layer is affine, so guidance
blends the two hidden activations and applies the output layer once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .config import PipelineConfig
from .errors import InvalidArgumentError, NumericsError
from .fileio import F32_MAX
from .motion import DEFAULT_FPS, MotionSequence
from .rng import BATCH_TAG, INIT_TAG, PROBE_TAG, StepNoise, generator

PROBE_EVERY = 10  # training steps between probe-loss rows


@dataclass(frozen=True)
class DiffusionSchedule:
    """Noise schedule given by its per-step beta; alpha = 1 - beta and
    alpha_bar, the cumulative product of alpha, are derived from it."""

    beta: np.ndarray
    alpha: np.ndarray = field(init=False)
    alpha_bar: np.ndarray = field(init=False)

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=np.float64)
        if b.ndim != 1 or b.size < 1:
            raise InvalidArgumentError("beta must be a nonempty 1-D array")
        a = 1.0 - b
        ab = np.cumprod(a)
        if not (np.all(a > 0) and np.all(a < 1)):
            raise InvalidArgumentError("alpha must lie in (0, 1)")
        if ab.size > 1 and not np.all(np.diff(ab) < 0):
            raise InvalidArgumentError("alpha_bar must be strictly decreasing")
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "alpha_bar", ab)

    @property
    def n_steps(self) -> int:
        return self.beta.shape[0]


def make_schedule(t_steps: int, kind: str = "cosine") -> DiffusionSchedule:
    """Build a schedule with T steps.

    linear: beta evenly spaced over [1e-4, 0.02] scaled by 1000/T.
    cosine: abar_t = f(t)/f(0) with f(t) = cos^2((t/T + 0.008)/1.008 *
    pi/2), converted to betas. Both clamp beta at 0.999; the schedule
    derives alpha and alpha_bar from the clamped beta.
    """
    t_steps = int(t_steps)
    if t_steps < 1:
        raise InvalidArgumentError("schedule needs T >= 1")
    if kind == "linear":
        scale = 1000.0 / t_steps
        beta = np.linspace(1e-4 * scale, 0.02 * scale, t_steps)
    elif kind == "cosine":
        s = 0.008
        grid = np.arange(t_steps + 1, dtype=np.float64)
        f = np.cos((grid / t_steps + s) / (1.0 + s) * (math.pi / 2.0)) ** 2
        abar = f / f[0]
        beta = 1.0 - abar[1:] / abar[:-1]
    else:
        raise InvalidArgumentError(f"unknown schedule kind {kind!r}")
    return DiffusionSchedule(np.clip(beta, None, 0.999))


def _check_step(t: int, sched: DiffusionSchedule) -> int:
    t = int(t)
    if not 1 <= t <= sched.n_steps:
        raise InvalidArgumentError(f"step {t} outside 1..{sched.n_steps}")
    return t


def q_sample(x0, t: int, noise, sched: DiffusionSchedule) -> np.ndarray:
    """Forward-noise x0 to level t: sqrt(abar) x0 + sqrt(1-abar) noise."""
    t = _check_step(t, sched)
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if x0.shape != noise.shape:
        raise InvalidArgumentError("x0 and noise must share a shape")
    ab = sched.alpha_bar[t - 1]
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * noise


def p_step(x_t, t: int, x0_hat, sched: DiffusionSchedule, noise=None) -> np.ndarray:
    """One reverse step: posterior mean of (x_t, predicted x0) plus
    fixed-variance noise; the noise term is omitted at t = 1."""
    t = _check_step(t, sched)
    x_t = np.asarray(x_t, dtype=np.float64)
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    if x_t.shape != x0_hat.shape:
        raise InvalidArgumentError("x_t and x0_hat must share a shape")
    ab_t = sched.alpha_bar[t - 1]
    ab_prev = sched.alpha_bar[t - 2] if t > 1 else 1.0
    beta_t = sched.beta[t - 1]
    coef0 = math.sqrt(ab_prev) * beta_t / (1.0 - ab_t)
    coefx = math.sqrt(sched.alpha[t - 1]) * (1.0 - ab_prev) / (1.0 - ab_t)
    mean = coef0 * x0_hat + coefx * x_t
    if t == 1:
        return mean
    if noise is None:
        raise InvalidArgumentError("steps with t > 1 require noise")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != x_t.shape:
        raise InvalidArgumentError("noise must match x_t's shape")
    var = (1.0 - ab_prev) / (1.0 - ab_t) * beta_t
    return mean + math.sqrt(var) * noise


@dataclass(frozen=True)
class Condition:
    """Conditioning: per-frame audio features and the seed motion frame."""

    audio: np.ndarray        # (M, C_a)
    seed_motion: np.ndarray  # (C,)

    def __post_init__(self):
        a = np.asarray(self.audio, dtype=np.float64)
        s = np.asarray(self.seed_motion, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise InvalidArgumentError("audio must be (M, C_a)")
        if s.ndim != 1 or s.shape[0] < 1:
            raise InvalidArgumentError("seed_motion must be a C-vector")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(s))):
            raise InvalidArgumentError("condition values must be finite")
        object.__setattr__(self, "audio", a)
        object.__setattr__(self, "seed_motion", s)

    @cached_property
    def masked(self) -> "Condition":
        """The null condition, audio replaced by zeros; built once."""
        return Condition(np.zeros_like(self.audio), self.seed_motion)


class Denoiser:
    """Interface: predict the clean sequence from a noisy one."""

    frame_local = False
    """True when output row j depends only on x_t row j, audio row j, the
    seed motion and t. The first rows of a draw are then fixed by the
    first rows of its noise, and sample_heads draws them alone. A
    denoiser that looks across frames (a convolution over time, attention
    over the sequence) must leave it False."""

    def predict(self, x_t: np.ndarray, t: int, cond: Condition) -> np.ndarray:
        raise NotImplementedError

    def guided(self, x_t, t: int, cond: Condition, gamma: float) -> np.ndarray:
        """Classifier-free guidance:
        gamma * predict(cond) + (1 - gamma) * predict(null cond).

        gamma = 1 short-circuits to the conditional branch (identical by
        algebra, half the work). A subclass may compute the same
        extrapolation more cheaply."""
        if gamma == 1.0:
            return self.predict(x_t, t, cond)
        return gamma * self.predict(x_t, t, cond) + (1.0 - gamma) * self.predict(
            x_t, t, cond.masked
        )


def guided_x0(d: Denoiser, x_t, t: int, cond: Condition,
              gamma: float = 1.0) -> np.ndarray:
    """The guided x0 prediction of one reverse step: d.guided."""
    return d.guided(x_t, t, cond, gamma)


def sample(d: Denoiser, cond: Condition, sched: DiffusionSchedule,
           seed, gamma: float = 1.0, fps=DEFAULT_FPS) -> MotionSequence:
    """Draw x_T ~ N(0, I) and denoise down to x0. Deterministic per seed.

    The noise comes from StepNoise(seed), one keyed step per level. The
    motion has one frame per audio row of cond and one channel per entry
    of its seed motion."""
    x = _reverse_chain(d, cond, sched, [StepNoise(seed)], gamma)
    return MotionSequence(x, fps)


def sample_heads(d: Denoiser, cond: Condition, sched: DiffusionSchedule,
                 seeds, rows: int, gamma: float = 1.0) -> np.ndarray:
    """The first `rows` frames of sample(d, cond, sched, seed, gamma) for
    each seed, as one (len(seeds), rows, C) block. d must be frame-local.

    One reverse chain denoises the heads stacked into a
    (len(seeds) * rows, C) array. Each step draws only the (rows, C)
    normals of each seed: a keyed step's first rows are the rows a full
    draw takes, so the noise matches a full draw's exactly.

    The denoised heads match the full draws' first rows to rounding, not
    bit for bit: a matrix product over fewer rows may sum in another
    order, depending on the BLAS kernel and the shapes (about 1e-15 on
    values of order 1).
    """
    if not d.frame_local:
        raise InvalidArgumentError("head rows need a frame-local denoiser")
    noise = [StepNoise(s) for s in seeds]
    heads = Condition(np.tile(cond.audio[:rows], (len(noise), 1)), cond.seed_motion)
    return _reverse_chain(d, heads, sched, noise, gamma).reshape(len(noise), rows, -1)


def _reverse_chain(d: Denoiser, cond: Condition, sched: DiffusionSchedule,
                   noise, gamma: float) -> np.ndarray:
    """Denoise len(noise) blocks stacked along cond's rows down to x0.

    Block i takes its normals from noise[i]: x_T at step T, and the
    noise that reverse step t adds to form x_{t-1} at step t - 1."""
    shape = (cond.audio.shape[0] // len(noise), cond.seed_motion.size)

    def normals(step):
        parts = [n.normals(step, shape) for n in noise]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    x = normals(sched.n_steps)
    for t in range(sched.n_steps, 0, -1):
        x0h = guided_x0(d, x, t, cond, gamma)
        x = p_step(x, t, x0h, sched, normals(t - 1) if t > 1 else None)
    return x


def _pair(x0, x0_hat):
    x0 = np.asarray(x0, dtype=np.float64)
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    if x0.shape != x0_hat.shape or x0.ndim != 2:
        raise InvalidArgumentError("x0 and x0_hat must be matching (M, C)")
    return x0, x0_hat


def loss_simple(x0, x0_hat) -> float:
    """Mean squared error over all M*C entries."""
    x0, x0_hat = _pair(x0, x0_hat)
    return float(np.mean((x0_hat - x0) ** 2))


def loss_vel(x0, x0_hat) -> float:
    """Squared velocity mismatch, summed over channels, averaged over the
    M-1 difference rows."""
    x0, x0_hat = _pair(x0, x0_hat)
    if x0.shape[0] < 2:
        raise InvalidArgumentError("velocity loss needs M >= 2")
    dv = np.diff(x0_hat, axis=0) - np.diff(x0, axis=0)
    return float(np.sum(dv * dv) / (x0.shape[0] - 1))


def loss_acc(x0, x0_hat) -> float:
    """Squared acceleration mismatch, summed over channels, averaged over
    the M-2 second-difference rows."""
    x0, x0_hat = _pair(x0, x0_hat)
    if x0.shape[0] < 3:
        raise InvalidArgumentError("acceleration loss needs M >= 3")
    da = np.diff(x0_hat, n=2, axis=0) - np.diff(x0, n=2, axis=0)
    return float(np.sum(da * da) / (x0.shape[0] - 2))


def total_loss(x0, x0_hat, lambda_vel: float = 1.0,
               lambda_acc: float = 1.0) -> float:
    out = loss_simple(x0, x0_hat)
    if lambda_vel:
        out += lambda_vel * loss_vel(x0, x0_hat)
    if lambda_acc:
        out += lambda_acc * loss_acc(x0, x0_hat)
    return out


@lru_cache(maxsize=1024)
def time_embedding(t: int, dim: int) -> np.ndarray:
    """Sinusoidal embedding of an integer step, dim even.

    Built once per (t, dim) (every reverse step and training window asks
    again) and returned read-only, since every caller shares the array."""
    dim = int(dim)
    if dim < 2 or dim % 2:
        raise InvalidArgumentError("embedding dim must be even and >= 2")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = float(t) * freqs
    out = np.concatenate([np.sin(ang), np.cos(ang)])
    out.flags.writeable = False
    return out


class MlpDenoiser(Denoiser):
    """Two affine layers around a tanh, acting per frame.

    Input per frame: [x_t frame | audio frame | seed motion | t embedding].
    tanh keeps the map smooth, so analytic gradients can be checked
    against central finite differences tightly.
    """

    PARAM_NAMES = ("w1", "b1", "w2", "b2")
    frame_local = True

    def __init__(self, n_channels: int, n_audio: int, hidden: int = 64,
                 embed: int = 8, seed: int = 0):
        if n_channels < 1 or n_audio < 1 or hidden < 1:
            raise InvalidArgumentError("all denoiser dims must be >= 1")
        if embed < 2 or embed % 2:
            raise InvalidArgumentError("embed must be even and >= 2")
        self.n_channels = int(n_channels)
        self.n_audio = int(n_audio)
        self.hidden = int(hidden)
        self.embed = int(embed)
        self._shapes = self.param_shapes(
            self.n_channels, self.n_audio, self.hidden, self.embed)
        self._flat = np.zeros(sum(math.prod(s) for s in self._shapes.values()))
        vars(self).update(_views(self._flat, self._shapes))  # w1, b1, w2, b2
        g = generator(seed, INIT_TAG)
        c, c_a = self.n_channels, self.n_audio
        self._blocks = (slice(0, c), slice(c, c + c_a),  # w1's column blocks
                        slice(c + c_a, 2 * c + c_a), slice(2 * c + c_a, None))
        lim1 = math.sqrt(6.0 / (self.w1.shape[1] + hidden))
        lim2 = math.sqrt(6.0 / (hidden + n_channels))
        self.w1[...] = g.uniform(-lim1, lim1, size=self.w1.shape)
        self.w2[...] = g.uniform(-lim2, lim2, size=self.w2.shape)

    @classmethod
    def param_shapes(cls, c: int, c_a: int, hidden: int, embed: int) -> dict:
        """Each parameter's shape, in PARAM_NAMES (= flat vector) order."""
        w1 = (hidden, 2 * c + c_a + embed)  # x_t, audio, seed motion, t embedding
        return dict(zip(cls.PARAM_NAMES, [w1, (hidden,), (c, hidden), (c,)]))

    def _preactivation(self, x_t, t: int, cond: Condition):
        """Check shapes once; return the first layer's pre-activation in
        two parts and the step embedding.

        w1's column blocks are [x_t | audio | seed | embedding]. The first
        part, x_t w1x^T + (w1s seed + w1e emb + b1), is the whole
        pre-activation under the null condition, whose audio is zero; the
        second, audio w1a^T, is the audio term the condition adds."""
        x_t = np.asarray(x_t, dtype=np.float64)
        if x_t.ndim != 2 or x_t.shape[1] != self.n_channels:
            raise InvalidArgumentError("x_t must be (M, C)")
        if cond.audio.shape != (x_t.shape[0], self.n_audio):
            raise InvalidArgumentError("audio must be (M, C_a)")
        if cond.seed_motion.shape != (self.n_channels,):
            raise InvalidArgumentError("seed motion must be a C-vector")
        emb = time_embedding(t, self.embed)
        xs, au, sd, em = self._blocks
        w1 = self.w1
        pre = x_t @ w1[:, xs].T
        pre += w1[:, sd] @ cond.seed_motion + w1[:, em] @ emb + self.b1
        return pre, cond.audio @ w1[:, au].T, emb

    def predict(self, x_t, t: int, cond: Condition) -> np.ndarray:
        pre, audio_pre, _ = self._preactivation(x_t, t, cond)
        return np.tanh(pre + audio_pre) @ self.w2.T + self.b2

    def guided(self, x_t, t: int, cond: Condition, gamma: float) -> np.ndarray:
        """Denoiser.guided at the cost of one forward pass and one extra
        tanh: the output layer is affine, so the branches' hidden
        activations are blended and w2 is applied once."""
        if gamma == 1.0:
            return super().guided(x_t, t, cond, gamma)
        pre, audio_pre, _ = self._preactivation(x_t, t, cond)
        h = gamma * np.tanh(pre + audio_pre) + (1.0 - gamma) * np.tanh(pre)
        return h @ self.w2.T + self.b2

    def loss_gradients(self, x0, x_t, t: int, cond: Condition,
                       lambda_vel: float = 1.0, lambda_acc: float = 1.0):
        """Analytic gradients of total_loss(x0, predict(x_t, t, cond)), keyed
        by PARAM_NAMES. Returns the grads alone: the loss is not computed."""
        x0 = np.asarray(x0, dtype=np.float64)
        pre, audio_pre, emb = self._preactivation(x_t, t, cond)
        h = np.tanh(pre + audio_pre)
        y = h @ self.w2.T + self.b2
        m = x0.shape[0]
        if x0.shape != y.shape:
            raise InvalidArgumentError("x0 must match x_t's (M, C)")
        if (lambda_vel and m < 2) or (lambda_acc and m < 3):
            raise InvalidArgumentError("vel loss needs M >= 2, acc loss M >= 3")
        g = (2.0 / y.size) * (y - x0)
        if lambda_vel:
            ev = np.diff(y, axis=0) - np.diff(x0, axis=0)
            gv = np.zeros_like(y)
            gv[:-1] -= ev
            gv[1:] += ev
            g += (lambda_vel * 2.0 / (m - 1)) * gv
        if lambda_acc:
            ea = np.diff(y, n=2, axis=0) - np.diff(x0, n=2, axis=0)
            ga = np.zeros_like(y)
            ga[:-2] += ea
            ga[1:-1] -= 2.0 * ea
            ga[2:] += ea
            g += (lambda_acc * 2.0 / (m - 2)) * ga
        dh = g @ self.w2
        dpre = dh * (1.0 - h * h)
        db1 = dpre.sum(axis=0)
        xs, au, sd, em = self._blocks
        dw1 = np.empty_like(self.w1)
        dw1[:, xs] = dpre.T @ x_t
        dw1[:, au] = dpre.T @ cond.audio
        dw1[:, sd] = np.outer(db1, cond.seed_motion)
        dw1[:, em] = np.outer(db1, emb)
        return {"w2": g.T @ h, "b2": g.sum(axis=0), "w1": dw1, "b1": db1}

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAM_NAMES}

    def get_flat(self) -> np.ndarray:
        return self._flat.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != self._flat.shape:
            raise InvalidArgumentError("flat vector length mismatch")
        self._flat[...] = vec


def _views(flat: np.ndarray, shapes: dict) -> dict[str, np.ndarray]:
    """Named views into consecutive slices of flat, one per shape."""
    ends = np.cumsum([math.prod(s) for s in shapes.values()])
    parts = np.split(flat, ends[:-1])
    return {name: p.reshape(s) for (name, s), p in zip(shapes.items(), parts)}


def training_windows(pairs, cfg: PipelineConfig) -> list:
    """Cut (motion, audio features) pairs into training items.

    Windows of cfg.m frames start at offsets 0, cfg.stride, 2*cfg.stride,
    ... of each pair; each is (MotionSequence view, Condition of the same
    audio rows seeded by the window's first frame). A pair whose feature
    rows or frame rate differ from its motion's is an error, and so is
    a dataset with no window at all.
    """
    m, items = cfg.m, []
    for seq, feats in pairs:
        if feats.n_frames != seq.n_frames or feats.fps != seq.fps:
            raise InvalidArgumentError(
                f"features ({feats.n_frames} rows at {feats.fps} fps) do not "
                f"match motion ({seq.n_frames} frames at {seq.fps} fps)"
            )
        frames, audio = seq.frames, feats.features
        for off in range(0, seq.n_frames - m + 1, cfg.stride):
            items.append((MotionSequence(frames[off : off + m], seq.fps),
                          Condition(audio[off : off + m], frames[off])))
    if not items:
        raise InvalidArgumentError(
            f"no training windows: sequences shorter than m={m}"
        )
    return items


def train_denoiser(dataset, cfg: PipelineConfig):
    """Minibatch SGD with momentum on the total loss.

    dataset: list of (MotionSequence, Condition) pairs. Each draw picks a
    sequence, a uniform step t, fresh noise, and masks the audio with
    probability cfg.mask_prob. Returns (model, history) where history is
    [(step, probe loss)] on a fixed probe batch, row 0 before training,
    then every PROBE_EVERY steps and after the last. A diverging run
    raises NumericsError at the first step whose arithmetic overflows or
    turns non-finite, or that leaves a parameter outside the float32
    range of the model file, instead of training on.
    """
    dataset = list(dataset)
    if not dataset:
        raise InvalidArgumentError("training dataset is empty")
    seqs = [np.asarray(s.frames, dtype=np.float64) for s, _ in dataset]
    conds = [c for _, c in dataset]
    c = seqs[0].shape[1]
    c_a = conds[0].audio.shape[1]
    for s_arr, cond in zip(seqs, conds):
        if s_arr.shape[1] != c or cond.audio.shape[1] != c_a:
            raise InvalidArgumentError("dataset shapes are inconsistent")
        if cond.audio.shape[0] != s_arr.shape[0]:
            raise InvalidArgumentError("audio rows must align with frames")

    sched = make_schedule(cfg.t_steps, cfg.schedule)
    model = MlpDenoiser(c, c_a, cfg.hidden, cfg.embed, seed=cfg.seed)
    g = generator(cfg.seed, BATCH_TAG)
    probe_rng = generator(cfg.seed, PROBE_TAG)

    probe = []
    for i in range(min(8, len(dataset))):
        t = int(probe_rng.integers(1, sched.n_steps + 1))
        probe.append((i, t, probe_rng.standard_normal(seqs[i].shape)))

    def probe_loss() -> float:
        tot = 0.0
        for i, t, noise in probe:
            x_t = q_sample(seqs[i], t, noise, sched)
            y = model.predict(x_t, t, conds[i])
            tot += total_loss(seqs[i], y, cfg.lambda_vel, cfg.lambda_acc)
        return tot / len(probe)

    history = [(0, probe_loss())]
    vel = np.zeros_like(model._flat)
    acc = np.zeros_like(vel)
    acc_views = _views(acc, model._shapes)
    momentum = 0.9
    try:
        with np.errstate(over="raise", invalid="raise"):
            for step in range(1, cfg.steps + 1):
                idx = g.integers(0, len(dataset), size=cfg.batch)
                acc.fill(0.0)
                for i in idx:
                    t = int(g.integers(1, sched.n_steps + 1))
                    noise = g.standard_normal(seqs[i].shape)
                    x_t = q_sample(seqs[i], t, noise, sched)
                    cond = conds[i]
                    if g.random() < cfg.mask_prob:
                        cond = cond.masked
                    grads = model.loss_gradients(
                        seqs[i], x_t, t, cond, cfg.lambda_vel, cfg.lambda_acc
                    )
                    for name, view in acc_views.items():
                        view += grads[name]
                vel = momentum * vel - (cfg.lr / cfg.batch) * acc
                model._flat += vel
                if not np.all(np.abs(model._flat) <= F32_MAX):
                    raise FloatingPointError("a parameter left float32 range")
                if step % PROBE_EVERY == 0 or step == cfg.steps:
                    history.append((step, probe_loss()))
    except FloatingPointError as e:
        raise NumericsError(
            f"training diverged at step {step} ({e}); try a lower lr "
            f"than {cfg.lr:g}"
        ) from e
    return model, history
