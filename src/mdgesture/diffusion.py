"""Latent motion denoising diffusion.

The forward process corrupts a clean sequence x0 with Gaussian noise at
T discrete levels; the closed form x_t = sqrt(abar_t) x0 +
sqrt(1 - abar_t) eps matches iterating the one-step kernel. The model
predicts x0 itself (not the noise), so the reverse step is DDIM's with
eta = 0 (Song et al., arXiv 2010.02502): the noise implied by (x_t,
predicted x0) is carried to the next level of a sub-sequence of at most
SAMPLE_STEPS steps, with no fresh noise. Guidance is linear
extrapolation between the conditional and audio-masked predictions.

The reference denoiser is a two-layer tanh MLP over per-frame inputs
(noisy frame, audio frame, seed motion, sinusoidal step embedding) with
hand-written gradients, small enough that training and finite-difference
verification run in seconds. Its first layer is applied block by block
(one product per column block of w1; the seed and embedding blocks give
one row shared by every frame), so no per-frame input is ever built.
The null condition's audio is zero, so the two guidance branches share
all but the audio term; and the output layer is affine, so guidance
blends the two hidden activations and applies the output layer once.

Work constant along a reverse chain is done once: q_sample and p_step
read the schedule's table of step coefficients, and a chain calls
Denoiser.bind once, whose MLP view checks the condition and holds its
audio and seed terms. The view's hidden layer is the MLP's one forward
pass: sampling applies the output layer to it, and training takes its
activations from it too. Each value comes from the same float
operations in the same order as per-step code that rebuilds it, so
draws and trained models equal that code's bit for bit. A step's
arithmetic runs in place, in arrays the step made: the guidance blend
in the pre-activation and one more buffer, the output bias on the
output product, the DDIM update in two output-sized buffers. No input
array is written. A model loaded from a file is built with seed=None,
so loading draws no initial weights only to overwrite them.

Training works on two arrays, the windows' frames (N, M, C) and audio
(N, M, C_a), stacked and checked once by training_windows. A step draws
each window's step, noise and mask flag in turn, and hands a stack of B
windows to one q_sample and one loss_gradients call: a window's seed
motion is its first frame, a masked window's audio is zeroed in the
stack's copy, and no per-window object is built. Every product in the
stacked gradient is one np.matmul per window, the BLAS call a lone
window makes, and the windows' gradients are added onto the step's sum
in window order, so the model is the one-call-per-window loop's bit for
bit. guided_x0 and p_step are called once per reverse step, q_sample
and loss_gradients once per stack: they are the layers the benchmark's
tracer times.

A reverse chain draws one block of normals, x_T: each seed's
rng.step_normals at step T; every step after it is deterministic.
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
from .rng import BATCH_TAG, INIT_TAG, PROBE_TAG, generator, step_normals

PROBE_EVERY = 10  # training steps between probe-loss rows

# Floats of per-window gradients (one per model parameter) a training
# stack may hold. Against one call per window, one BLAS thread: the toy
# rig (c=8, 2,376 parameters) stacks its whole batch of 16 and trains
# 1.35x faster; default-rig windows (c=200, 39,432 parameters) go one to
# a stack, as three to a stack made a fresh process's first training 27%
# slower and later ones no faster.
STACK_FLOATS = 1 << 16

# Reverse steps of a chain, at most; each costs one guided denoiser pass.
SAMPLE_STEPS = 10


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

    @cached_property
    def coefficients(self) -> np.ndarray:
        """(T, 2), read-only: row t - 1 holds step t's (sqrt(abar_t),
        sqrt(1 - abar_t)). Built on first use."""
        out = np.sqrt(np.stack([self.alpha_bar, 1.0 - self.alpha_bar], axis=1))
        out.flags.writeable = False
        return out


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


def q_sample(x0, t, noise, sched: DiffusionSchedule) -> np.ndarray:
    """Forward-noise x0 to level t: sqrt(abar) x0 + sqrt(1-abar) noise.

    x0 is one (M, C) window at step t, or a (B, M, C) stack of windows
    with one step per window in t."""
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    t = np.asarray(t)
    if x0.shape != noise.shape or t.shape != x0.shape[:-2]:
        raise InvalidArgumentError(
            "x0 and noise must share a shape: (M, C) at one step or (B, M, C) at B steps")
    if t.min() < 1 or t.max() > sched.n_steps:
        raise InvalidArgumentError(f"steps must lie in 1..{sched.n_steps}")
    fwd_x0, fwd_noise = sched.coefficients.T[:, t - 1, None, None]
    return fwd_x0 * x0 + fwd_noise * noise


def reverse_steps(n_steps: int) -> list:
    """The levels a reverse chain visits, from n_steps down:
    tau_i = ceil(i * T / S) for i = S, ..., 1, with S = min(T, SAMPLE_STEPS)."""
    s = min(n_steps, SAMPLE_STEPS)
    return [-(-i * n_steps // s) for i in range(s, 0, -1)]


def p_step(x_t, t: int, t_prev: int, x0_hat, sched: DiffusionSchedule) -> np.ndarray:
    """One deterministic reverse step (DDIM, eta = 0) from level t to
    t_prev < t: the noise implied by (x_t, predicted x0),
    eps = (x_t - sqrt(abar_t) x0_hat) / sqrt(1 - abar_t), is carried to
    sqrt(abar_prev) x0_hat + sqrt(1 - abar_prev) eps. At t_prev = 0 the
    step returns x0_hat."""
    t, t_prev = int(t), int(t_prev)
    if not 1 <= t <= sched.n_steps:
        raise InvalidArgumentError(f"step {t} outside 1..{sched.n_steps}")
    if not 0 <= t_prev < t:
        raise InvalidArgumentError(f"previous step {t_prev} outside 0..{t - 1}")
    x_t = np.asarray(x_t, dtype=np.float64)
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    if x_t.shape != x0_hat.shape:
        raise InvalidArgumentError("x_t and x0_hat must share a shape")
    if t_prev == 0:
        return x0_hat
    fwd_x0, fwd_noise = sched.coefficients[t - 1].tolist()
    prev_x0, prev_noise = sched.coefficients[t_prev - 1].tolist()
    # in two fresh buffers, the formula's operations in its order (k * a
    # and a *= k round alike)
    eps = fwd_x0 * x0_hat
    np.subtract(x_t, eps, out=eps)
    eps /= fwd_noise
    eps *= prev_noise
    x = prev_x0 * x0_hat
    x += eps
    return x


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

    def bind(self, cond: Condition) -> "Denoiser":
        """A denoiser for one reverse chain on cond, which may check cond
        once and hold what every step shares. The base binds nothing."""
        return self

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
    """Draw x_T ~ N(0, I) and denoise it to x0 over reverse_steps(T).
    Deterministic per seed.

    x_T is step_normals(seed, T, ...), the draw's only noise. The
    motion has one frame per audio row of cond and one channel per entry
    of its seed motion."""
    x = _reverse_chain(d, cond, sched, [seed], gamma)
    return MotionSequence(x, fps)


def sample_heads(d: Denoiser, cond: Condition, sched: DiffusionSchedule,
                 seeds, rows: int, gamma: float = 1.0) -> np.ndarray:
    """The first `rows` frames of sample(d, cond, sched, seed, gamma) for
    each seed, as one (len(seeds), rows, C) block. d must be frame-local.

    One reverse chain denoises the heads stacked into a
    (len(seeds) * rows, C) array. Its x_T holds only the (rows, C)
    normals of each seed, as sample draws them: a keyed step's first rows
    are the rows a full draw takes, so x_T matches a full draw's first
    rows exactly, and every later step acts row by row.

    The denoised heads match the full draws' first rows to rounding, not
    bit for bit: a matrix product over fewer rows may sum in another
    order, depending on the BLAS kernel and the shapes (about 1e-15 on
    values of order 1).
    """
    if not d.frame_local:
        raise InvalidArgumentError("head rows need a frame-local denoiser")
    heads = Condition(np.tile(cond.audio[:rows], (len(seeds), 1)), cond.seed_motion)
    return _reverse_chain(d, heads, sched, seeds, gamma).reshape(len(seeds), rows, -1)


def _reverse_chain(d: Denoiser, cond: Condition, sched: DiffusionSchedule,
                   seeds, gamma: float) -> np.ndarray:
    """Denoise len(seeds) blocks stacked along cond's rows down to x0.

    x_T stacks each seed's step_normals at step T; each level of
    reverse_steps(T) then takes one guided_x0 and one p_step to the next
    level, the last to 0. A chain that overflows float64 raises
    NumericsError, with no RuntimeWarning."""
    d = d.bind(cond)
    steps = reverse_steps(sched.n_steps)
    x = np.empty((cond.audio.shape[0], cond.seed_motion.size))
    rows = x.shape[0] // len(seeds)
    for i, seed in enumerate(seeds):
        step_normals(seed, steps[0], (rows, x.shape[1]), x[i * rows:(i + 1) * rows])
    with np.errstate(over="ignore", invalid="ignore"):
        for t, t_prev in zip(steps, steps[1:] + [0]):
            x = p_step(x, t, t_prev, guided_x0(d, x, t, cond, gamma), sched)
    if not np.all(np.isfinite(x)):
        raise NumericsError("the reverse chain left float64 range")
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

    w1 and w2 start Glorot-uniform from generator(seed, INIT_TAG), the
    biases at zero. MlpDenoiser(..., seed=None) draws nothing and leaves
    every parameter zero: formats.denoiser_from_bytes builds a model so
    and sets its parameters from the file's layers.
    """

    PARAM_NAMES = ("w1", "b1", "w2", "b2")
    frame_local = True

    def __init__(self, n_channels: int, n_audio: int, hidden: int = 64,
                 embed: int = 8, seed: int | None = 0):
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
        c, c_a = self.n_channels, self.n_audio
        self._blocks = (slice(0, c), slice(c, c + c_a),  # w1's column blocks
                        slice(c + c_a, 2 * c + c_a), slice(2 * c + c_a, None))
        if seed is None:  # the caller sets every parameter
            return
        g = generator(seed, INIT_TAG)
        lim1 = math.sqrt(6.0 / (self.w1.shape[1] + hidden))
        lim2 = math.sqrt(6.0 / (hidden + n_channels))
        self.w1[...] = g.uniform(-lim1, lim1, size=self.w1.shape)
        self.w2[...] = g.uniform(-lim2, lim2, size=self.w2.shape)

    @classmethod
    def param_shapes(cls, c: int, c_a: int, hidden: int, embed: int) -> dict:
        """Each parameter's shape, in PARAM_NAMES (= flat vector) order."""
        w1 = (hidden, 2 * c + c_a + embed)  # x_t, audio, seed motion, t embedding
        return dict(zip(cls.PARAM_NAMES, [w1, (hidden,), (c, hidden), (c,)]))

    def bind(self, cond: Condition) -> "_BoundMlp":
        """Check cond's audio width and seed size once; return a view that
        serves one reverse chain or training window on cond (see
        _BoundMlp)."""
        if cond.audio.shape[1] != self.n_audio:
            raise InvalidArgumentError(
                f"audio has {cond.audio.shape[1]} channels, model expects {self.n_audio}")
        if cond.seed_motion.size != self.n_channels:
            raise InvalidArgumentError(
                f"seed motion has {cond.seed_motion.size} channels, "
                f"model expects {self.n_channels}")
        return _BoundMlp(self, cond.audio, cond.seed_motion, cond)

    def predict(self, x_t, t: int, cond: Condition) -> np.ndarray:
        return self.guided(x_t, t, cond, 1.0)

    def guided(self, x_t, t: int, cond: Condition, gamma: float) -> np.ndarray:
        """Denoiser.guided at the cost of one forward pass and one extra
        tanh: the output layer is affine, so the branches' hidden
        activations are blended and w2 is applied once."""
        x_t = np.asarray(x_t, dtype=np.float64)
        if x_t.ndim != 2 or x_t.shape[1] != self.n_channels:
            raise InvalidArgumentError("x_t must be (M, C)")
        if cond.audio.shape[0] != x_t.shape[0]:
            raise InvalidArgumentError("audio must be (M, C_a)")
        return self.bind(cond).guided(x_t, t, cond, gamma)

    def loss_gradients(self, x0, x_t, t, audio, seed, lambda_vel: float = 1.0,
                       lambda_acc: float = 1.0, acc=None) -> dict:
        """Analytic gradients of total_loss(x0, predict(x_t, t, cond)) over
        a stack of B windows, keyed by PARAM_NAMES; the loss itself is not
        computed.

        x0 and x_t are (B, M, C) float64 frames, t holds B steps, audio is
        (B, M, C_a) and seed (B, C): window b is conditioned on audio[b]
        and seed[b]. Nothing is checked; train_denoiser shapes the stack.
        The windows' gradients are added in window order onto acc, arrays
        keyed by PARAM_NAMES (zeros when None), which are returned:
        acc + g_1 + ... + g_B, summed as a loop of one call per window
        sums them. Each product is one np.matmul per window, the BLAS
        call a single window makes, so the sums are that loop's bit for
        bit. The forward pass is the bound view's hidden layer, as in
        sampling."""
        n, m, c = x_t.shape
        seed = seed[:, None]
        emb = np.array([time_embedding(s, self.embed) for s in t])[:, None]
        h = _BoundMlp(self, audio, seed).hidden(x_t, emb, 1.0)
        # in-place scaling: k * a and a * k are the same float
        y = h @ self.w2.T
        y += self.b2
        g = y - x0
        g *= 2.0 / (m * c)
        dy, dx = y[:, 1:] - y[:, :-1], x0[:, 1:] - x0[:, :-1]  # np.diff, without its checks
        if lambda_vel:
            ev = dy - dx
            gv = np.zeros(y.shape)
            gv[:, :-1] -= ev
            gv[:, 1:] += ev
            gv *= lambda_vel * 2.0 / (m - 1)
            g += gv
        if lambda_acc:
            ea = dy[:, 1:] - dy[:, :-1]
            ea -= dx[:, 1:] - dx[:, :-1]
            ga = np.zeros(y.shape)
            ga[:, :-2] += ea
            ga[:, 1:-1] -= 2.0 * ea
            ga[:, 2:] += ea
            ga *= lambda_acc * 2.0 / (m - 2)
            g += ga
        grads = {name: np.empty((n,) + s) for name, s in self._shapes.items()}
        np.matmul(g.transpose(0, 2, 1), h, out=grads["w2"])
        np.add.reduce(g, axis=1, out=grads["b2"])
        dpre = g @ self.w2
        h *= h
        np.subtract(1.0, h, out=h)
        dpre *= h
        db1 = np.add.reduce(dpre, axis=1, out=grads["b1"])
        xs, au, sd, em = self._blocks
        dw1, dpre_t = grads["w1"], dpre.transpose(0, 2, 1)
        np.matmul(dpre_t, x_t, out=dw1[:, :, xs])
        np.matmul(dpre_t, audio, out=dw1[:, :, au])
        np.multiply(db1[:, :, None], seed, out=dw1[:, :, sd])
        np.multiply(db1[:, :, None], emb, out=dw1[:, :, em])
        sums = acc if acc is not None else {
            name: np.zeros(s) for name, s in self._shapes.items()}
        for name, per_window in grads.items():
            for g_b in per_window:
                sums[name] += g_b
        return sums

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAM_NAMES}

    def get_flat(self) -> np.ndarray:
        return self._flat.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != self._flat.shape:
            raise InvalidArgumentError("flat vector length mismatch")
        self._flat[...] = vec


class _BoundMlp(Denoiser):
    """An MlpDenoiser bound to one condition, or to a stack of B windows'
    audio (B, M, C_a) and seed motions (B, 1, C): it holds audio w1a^T and
    w1s seed, and step t adds the row (w1s seed + w1e emb_t) + b1, in the
    unbound model's order. x_t is not checked: the caller shapes it."""

    def __init__(self, model: MlpDenoiser, audio, seed_motion, cond=None):
        xs, au, sd, em = model._blocks
        w1 = model.w1
        self.cond = cond
        self._model = model
        self._wx = w1[:, xs].T
        self._w1e = w1[:, em].T
        self._audio = audio @ w1[:, au].T
        self._seed = seed_motion @ w1[:, sd].T

    def hidden(self, x_t, emb, gamma: float) -> np.ndarray:
        """The tanh layer, the MLP's one forward pass, for one window (x_t
        (M, C), emb its step's embedding) or a stack (x_t (B, M, C), emb
        (B, 1, E)): the conditional branch's activations, blended with the
        audio-masked branch's by gamma * cond + (1 - gamma) * null when
        gamma != 1. A stack's products are one matmul per window, the
        BLAS call of a single window (vector @ matrix is the gemv of
        matrix @ vector)."""
        row = self._seed + emb @ self._w1e
        row += self._model.b1
        pre = x_t @ self._wx
        pre += row
        if gamma == 1.0:
            pre += self._audio
            return np.tanh(pre, out=pre)
        # gamma * tanh(pre + audio) + (1 - gamma) * tanh(pre), in place
        h = pre + self._audio
        np.tanh(h, out=h)
        h *= gamma
        np.tanh(pre, out=pre)
        pre *= 1.0 - gamma
        pre += h
        return pre

    def guided(self, x_t, t: int, cond: Condition, gamma: float) -> np.ndarray:
        if cond is not self.cond:
            raise InvalidArgumentError("the denoiser is bound to another condition")
        emb = time_embedding(t, self._model.embed)
        y = self.hidden(x_t, emb, gamma) @ self._model.w2.T
        y += self._model.b2
        return y


def _views(flat: np.ndarray, shapes: dict) -> dict[str, np.ndarray]:
    """Named views into consecutive slices of flat, one per shape."""
    ends = np.cumsum([math.prod(s) for s in shapes.values()])
    parts = np.split(flat, ends[:-1])
    return {name: p.reshape(s) for (name, s), p in zip(shapes.items(), parts)}


def windows_per_stack(model: MlpDenoiser) -> int:
    """Windows that train_denoiser stacks into one loss_gradients call:
    as many per-window gradients as STACK_FLOATS holds, at least one."""
    return max(1, STACK_FLOATS // model._flat.size)


def training_windows(pairs, cfg: PipelineConfig) -> tuple:
    """Cut (motion, audio features) pairs into training windows.

    Windows of cfg.m frames start at offsets 0, cfg.stride, 2*cfg.stride,
    ... of each pair. Returns the (N, m, C) stack of their frames and the
    (N, m, C_a) stack of their audio rows. A pair whose feature rows or
    frame rate differ from its motion's is an error, and so are windows
    of more than one motion width or audio width and a dataset with no
    window at all.
    """
    m, frames, audio = cfg.m, [], []
    for seq, feats in pairs:
        if feats.n_frames != seq.n_frames or feats.fps != seq.fps:
            raise InvalidArgumentError(
                f"features ({feats.n_frames} rows at {feats.fps} fps) do not "
                f"match motion ({seq.n_frames} frames at {seq.fps} fps)"
            )
        for off in range(0, seq.n_frames - m + 1, cfg.stride):
            frames.append(seq.frames[off : off + m])
            audio.append(feats.features[off : off + m])
    if not frames:
        raise InvalidArgumentError(
            f"no training windows: sequences shorter than m={m}"
        )
    for what, stack in (("motion", frames), ("audio", audio)):
        widths = sorted({w.shape[1] for w in stack})
        if len(widths) > 1:
            raise InvalidArgumentError(
                f"dataset shapes are inconsistent: {what} widths {widths}")
    return np.stack(frames), np.stack(audio)


def train_denoiser(frames, audio, cfg: PipelineConfig):
    """Minibatch SGD with momentum on the total loss.

    frames (N, M, C) and audio (N, M, C_a) are training_windows' stacks;
    window i is conditioned on audio[i] and seeded by frames[i, 0]. Each
    draw picks a window, a uniform step t, fresh noise, and zeroes the
    audio with probability cfg.mask_prob. Returns (model, history) where
    history is [(step, probe loss)] on a fixed probe batch, row 0 before
    training, then every PROBE_EVERY steps and after the last. A
    diverging run raises NumericsError at the first step whose arithmetic
    overflows or turns non-finite, or that leaves a parameter outside the
    float32 range of the model file, instead of training on.
    """
    frames = np.asarray(frames, dtype=np.float64)
    audio = np.asarray(audio, dtype=np.float64)
    if (frames.ndim != 3 or audio.ndim != 3 or frames.shape[:2] != audio.shape[:2]
            or 0 in frames.shape or 0 in audio.shape):
        raise InvalidArgumentError(
            "training needs frames (N, M, C) and audio (N, M, C_a), N, M, C, C_a >= 1")
    n, m, c = frames.shape
    if (cfg.lambda_vel and m < 2) or (cfg.lambda_acc and m < 3):
        raise InvalidArgumentError("vel loss needs M >= 2, acc loss M >= 3")

    sched = make_schedule(cfg.t_steps, cfg.schedule)
    model = MlpDenoiser(c, audio.shape[2], cfg.hidden, cfg.embed, seed=cfg.seed)
    g = generator(cfg.seed, BATCH_TAG)
    probe_rng = generator(cfg.seed, PROBE_TAG)

    probe = []
    for i in range(min(8, n)):
        t = int(probe_rng.integers(1, sched.n_steps + 1))
        x_t = q_sample(frames[i], t, probe_rng.standard_normal((m, c)), sched)
        probe.append((frames[i], x_t, t, Condition(audio[i], frames[i, 0])))

    def probe_loss() -> float:
        return sum(total_loss(x0, model.predict(x_t, t, cond), cfg.lambda_vel, cfg.lambda_acc)
                   for x0, x_t, t, cond in probe) / len(probe)

    history = [(0, probe_loss())]
    vel = np.zeros_like(model._flat)
    acc = np.zeros_like(vel)
    acc_views = _views(acc, model._shapes)
    momentum = 0.9
    stack = windows_per_stack(model)
    noise = np.empty((min(stack, cfg.batch), m, c))
    try:
        with np.errstate(over="raise", invalid="raise"):
            for step in range(1, cfg.steps + 1):
                idx = g.integers(0, n, size=cfg.batch).tolist()
                acc.fill(0.0)
                for lo in range(0, cfg.batch, stack):
                    win = idx[lo:lo + stack]
                    ts, au = [], audio[win]
                    for b in range(len(win)):
                        ts.append(int(g.integers(1, sched.n_steps + 1)))
                        g.standard_normal(out=noise[b])
                        if g.random() < cfg.mask_prob:
                            au[b] = 0.0
                    x0 = frames[win]
                    x_t = q_sample(x0, ts, noise[:len(win)], sched)
                    model.loss_gradients(x0, x_t, ts, au, x0[:, 0], cfg.lambda_vel,
                                         cfg.lambda_acc, acc=acc_views)
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
