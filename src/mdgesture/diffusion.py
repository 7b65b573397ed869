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
verification run in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import InvalidArgumentError
from .motion import DEFAULT_FPS, MotionSequence
from .rng import generator

PROBE_EVERY = 10  # training steps between probe-loss rows


@dataclass(frozen=True)
class DiffusionSchedule:
    """Noise schedule: per-step alpha, its cumulative product, and beta."""

    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=np.float64)
        a = np.asarray(self.alpha, dtype=np.float64)
        ab = np.asarray(self.alpha_bar, dtype=np.float64)
        if b.ndim != 1 or b.shape != a.shape or a.shape != ab.shape or b.size < 1:
            raise InvalidArgumentError("schedule arrays must be equal-length 1-D")
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
    pi/2), converted to betas. Both clamp beta at 0.999 and recompute
    alpha_bar as the cumulative product, so the invariants hold exactly.
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
    beta = np.clip(beta, None, 0.999)
    alpha = 1.0 - beta
    return DiffusionSchedule(beta, alpha, np.cumprod(alpha))


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

    def masked(self) -> "Condition":
        """The null condition: audio replaced by zeros."""
        return Condition(np.zeros_like(self.audio), self.seed_motion)


class Denoiser:
    """Interface: predict the clean sequence from a noisy one."""

    def predict(self, x_t: np.ndarray, t: int, cond: Condition) -> np.ndarray:
        raise NotImplementedError


def guided_x0(d: Denoiser, x_t, t: int, cond: Condition,
              gamma: float = 1.0) -> np.ndarray:
    """Classifier-free guidance:
    gamma * predict(cond) + (1 - gamma) * predict(null cond).

    gamma = 1 short-circuits to the conditional branch (identical by
    algebra, half the work)."""
    if gamma == 1.0:
        return d.predict(x_t, t, cond)
    cond_null = cond.masked()
    return gamma * d.predict(x_t, t, cond) + (1.0 - gamma) * d.predict(
        x_t, t, cond_null
    )


def sample(d: Denoiser, cond: Condition, sched: DiffusionSchedule,
           m: int, c: int, seed, gamma: float = 1.0,
           fps=DEFAULT_FPS) -> MotionSequence:
    """Draw x_T ~ N(0, I) and denoise down to x0. Deterministic per seed."""
    m, c = int(m), int(c)
    if m < 1 or c < 1:
        raise InvalidArgumentError("m and c must be >= 1")
    if cond.audio.shape[0] != m:
        raise InvalidArgumentError("audio rows must align with frames")
    g = generator(seed)
    x = g.standard_normal((m, c))
    for t in range(sched.n_steps, 0, -1):
        x0h = guided_x0(d, x, t, cond, gamma)
        noise = g.standard_normal((m, c)) if t > 1 else None
        x = p_step(x, t, x0h, sched, noise)
    return MotionSequence(x, fps)


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


def time_embedding(t: int, dim: int) -> np.ndarray:
    """Sinusoidal embedding of an integer step, dim even."""
    dim = int(dim)
    if dim < 2 or dim % 2:
        raise InvalidArgumentError("embedding dim must be even and >= 2")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = float(t) * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)])


class MlpDenoiser(Denoiser):
    """Two affine layers around a tanh, acting per frame.

    Input per frame: [x_t frame | audio frame | seed motion | t embedding].
    tanh keeps the map smooth, so analytic gradients can be checked
    against central finite differences tightly.
    """

    PARAM_NAMES = ("w1", "b1", "w2", "b2")

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
        g = generator(seed, 0xD1FF)
        lim1 = math.sqrt(6.0 / (self.w1.shape[1] + hidden))
        lim2 = math.sqrt(6.0 / (hidden + n_channels))
        self.w1[...] = g.uniform(-lim1, lim1, size=self.w1.shape)
        self.w2[...] = g.uniform(-lim2, lim2, size=self.w2.shape)

    @staticmethod
    def input_width(n_channels: int, n_audio: int, embed: int) -> int:
        """Per-frame input size: x_t, audio, seed motion, t embedding."""
        return 2 * n_channels + n_audio + embed

    @classmethod
    def param_shapes(cls, c: int, c_a: int, hidden: int, embed: int) -> dict:
        """Each parameter's shape, in PARAM_NAMES (= flat vector) order."""
        w1 = (hidden, cls.input_width(c, c_a, embed))
        return dict(zip(cls.PARAM_NAMES, [w1, (hidden,), (c, hidden), (c,)]))

    def _inputs(self, x_t: np.ndarray, t: int, cond: Condition) -> np.ndarray:
        x_t = np.asarray(x_t, dtype=np.float64)
        m = x_t.shape[0]
        if x_t.ndim != 2 or x_t.shape[1] != self.n_channels:
            raise InvalidArgumentError("x_t must be (M, C)")
        if cond.audio.shape != (m, self.n_audio):
            raise InvalidArgumentError("audio must be (M, C_a)")
        if cond.seed_motion.shape != (self.n_channels,):
            raise InvalidArgumentError("seed motion must be a C-vector")
        emb = time_embedding(t, self.embed)
        return np.concatenate(
            [x_t, cond.audio, np.tile(cond.seed_motion, (m, 1)),
             np.tile(emb, (m, 1))],
            axis=1,
        )

    def _forward(self, z: np.ndarray):
        h = np.tanh(z @ self.w1.T + self.b1)
        return h @ self.w2.T + self.b2, h

    def predict(self, x_t, t: int, cond: Condition) -> np.ndarray:
        y, _ = self._forward(self._inputs(x_t, t, cond))
        return y

    def loss_gradients(self, x0, x_t, t: int, cond: Condition,
                       lambda_vel: float = 1.0, lambda_acc: float = 1.0):
        """Total loss and its analytic parameter gradients."""
        x0 = np.asarray(x0, dtype=np.float64)
        z = self._inputs(x_t, t, cond)
        y, h = self._forward(z)
        m = x0.shape[0]
        loss = total_loss(x0, y, lambda_vel, lambda_acc)
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
        grads = {
            "w2": g.T @ h,
            "b2": g.sum(axis=0),
            "w1": dpre.T @ z,
            "b1": dpre.sum(axis=0),
        }
        return loss, grads

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


def train_denoiser(dataset, cfg: PipelineConfig):
    """Minibatch SGD with momentum on the total loss.

    dataset: list of (MotionSequence, Condition) pairs. Each draw picks a
    sequence, a uniform step t, fresh noise, and masks the audio with
    probability cfg.mask_prob. Returns (model, history) where history is
    [(step, probe loss)] on a fixed probe batch, row 0 before training,
    then every PROBE_EVERY steps and after the last.
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
    g = generator(cfg.seed, 1)
    probe_rng = generator(cfg.seed, 2)

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
    for step in range(1, cfg.steps + 1):
        idx = g.integers(0, len(dataset), size=cfg.batch)
        acc.fill(0.0)
        for i in idx:
            t = int(g.integers(1, sched.n_steps + 1))
            noise = g.standard_normal(seqs[i].shape)
            x_t = q_sample(seqs[i], t, noise, sched)
            cond = conds[i]
            if g.random() < cfg.mask_prob:
                cond = cond.masked()
            _, grads = model.loss_gradients(
                seqs[i], x_t, t, cond, cfg.lambda_vel, cfg.lambda_acc
            )
            for name, view in acc_views.items():
                view += grads[name]
        vel = momentum * vel - (cfg.lr / cfg.batch) * acc
        model._flat += vel
        if step % PROBE_EVERY == 0 or step == cfg.steps:
            history.append((step, probe_loss()))
    return model, history
