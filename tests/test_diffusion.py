import math

import numpy as np
import pytest

from mdgesture.config import PipelineConfig
from mdgesture.diffusion import (
    Condition,
    Denoiser,
    MlpDenoiser,
    MotionSequence,
    guided_x0,
    loss_acc,
    loss_simple,
    loss_vel,
    make_schedule,
    p_step,
    q_sample,
    sample,
    time_embedding,
    total_loss,
    train_denoiser,
)
from mdgesture.errors import InvalidArgumentError
from mdgesture.rng import generator


class ConstantDenoiser(Denoiser):
    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)

    def predict(self, x_t, t, cond):
        return np.broadcast_to(self.target, x_t.shape).copy()


class FlagDenoiser(Denoiser):
    """Returns ones when the condition carries audio, zeros on the null
    condition (all-zero audio)."""

    def predict(self, x_t, t, cond):
        return np.ones_like(x_t) if cond.audio.any() else np.zeros_like(x_t)


def tiny_condition(m, c, c_a=3, seed=5):
    g = generator(seed)
    return Condition(g.normal(size=(m, c_a)), g.normal(size=c))


class TestSchedule:
    def test_linear_t1(self):
        sched = make_schedule(1, "linear")
        assert sched.alpha[0] == pytest.approx(0.9, abs=1e-15)
        assert sched.alpha_bar[0] == pytest.approx(0.9, abs=1e-15)

    def test_invariants_all_sizes(self):
        for kind in ("linear", "cosine"):
            for t_steps in (1, 10, 50):
                s = make_schedule(t_steps, kind)
                assert np.all(s.alpha > 0) and np.all(s.alpha < 1)
                assert np.all(s.beta > 0) and np.all(s.beta <= 0.999)
                if t_steps > 1:
                    assert np.all(np.diff(s.alpha_bar) < 0)

    def test_alpha_bar_is_running_product(self):
        s = make_schedule(50, "cosine")
        run = 1.0
        for t in range(50):
            run = run * s.alpha[t]
            assert s.alpha_bar[t] == run

    def test_cosine_tail_small(self):
        assert make_schedule(50, "cosine").alpha_bar[-1] < 0.01

    def test_default_tails_small(self):
        for kind in ("linear", "cosine"):
            assert make_schedule(50, kind).alpha_bar[-1] < 0.05

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidArgumentError):
            make_schedule(0)
        with pytest.raises(InvalidArgumentError):
            make_schedule(10, "quadratic")


class TestQSample:
    def test_zero_noise(self, rng):
        sched = make_schedule(50, "cosine")
        x0 = rng.normal(size=(4, 3))
        got = q_sample(x0, 7, np.zeros_like(x0), sched)
        assert np.allclose(got, math.sqrt(sched.alpha_bar[6]) * x0, atol=0)

    def test_zero_signal(self, rng):
        sched = make_schedule(50, "cosine")
        eps = rng.normal(size=(4, 3))
        got = q_sample(np.zeros((4, 3)), 50, eps, sched)
        assert np.allclose(got, math.sqrt(1 - sched.alpha_bar[49]) * eps, atol=0)

    def test_closed_form_matches_chain_monte_carlo(self):
        # iterate the one-step kernel to t=10 and compare moments
        sched = make_schedule(50, "cosine")
        g = generator(99)
        n = 100_000
        x0 = 0.7
        x = np.full(n, x0)
        for t in range(1, 11):
            eps = g.standard_normal(n)
            x = math.sqrt(sched.alpha[t - 1]) * x + math.sqrt(
                sched.beta[t - 1]
            ) * eps
        mean_expect = math.sqrt(sched.alpha_bar[9]) * x0
        var_expect = 1.0 - sched.alpha_bar[9]
        se_mean = math.sqrt(var_expect / n)
        se_var = var_expect * math.sqrt(2.0 / (n - 1))
        assert abs(x.mean() - mean_expect) < 3 * se_mean
        assert abs(x.var() - var_expect) < 3 * se_var

    def test_step_range_checked(self):
        sched = make_schedule(10, "linear")
        with pytest.raises(InvalidArgumentError):
            q_sample(np.zeros((2, 2)), 0, np.zeros((2, 2)), sched)
        with pytest.raises(InvalidArgumentError):
            q_sample(np.zeros((2, 2)), 11, np.zeros((2, 2)), sched)


class TestPStep:
    def test_final_step_deterministic(self, rng):
        sched = make_schedule(50, "cosine")
        x1 = rng.normal(size=(3, 2))
        x0h = rng.normal(size=(3, 2))
        a = p_step(x1, 1, x0h, sched)
        b = p_step(x1, 1, x0h, sched)
        assert np.array_equal(a, b)

    def test_noise_required_above_t1(self, rng):
        sched = make_schedule(50, "cosine")
        with pytest.raises(InvalidArgumentError):
            p_step(np.zeros((2, 2)), 5, np.zeros((2, 2)), sched)

    def test_posterior_variance_below_beta(self):
        for kind in ("linear", "cosine"):
            s = make_schedule(50, kind)
            for t in range(1, 51):
                ab_prev = s.alpha_bar[t - 2] if t > 1 else 1.0
                beta_tilde = (1 - ab_prev) / (1 - s.alpha_bar[t - 1]) * s.beta[t - 1]
                assert beta_tilde <= s.beta[t - 1] + 1e-15

    def test_oracle_chain_recovers_x0(self, rng):
        sched = make_schedule(50, "cosine")
        x0 = rng.normal(size=(4, 6))
        g = generator(7)
        x = q_sample(x0, 50, g.standard_normal(x0.shape), sched)
        for t in range(50, 0, -1):
            noise = g.standard_normal(x0.shape) if t > 1 else None
            x = p_step(x, t, x0, sched, noise)
        assert np.max(np.abs(x - x0)) < 1e-8


class TestGuidance:
    def test_gamma_one_is_conditional(self, rng):
        d = FlagDenoiser()
        cond = tiny_condition(4, 5)
        x = rng.normal(size=(4, 5))
        assert np.array_equal(guided_x0(d, x, 3, cond, 1.0), np.ones((4, 5)))

    def test_gamma_zero_is_unconditional(self, rng):
        d = FlagDenoiser()
        cond = tiny_condition(4, 5)
        x = rng.normal(size=(4, 5))
        assert np.array_equal(guided_x0(d, x, 3, cond, 0.0), np.zeros((4, 5)))

    def test_gamma_two_extrapolates(self, rng):
        d = FlagDenoiser()
        cond = tiny_condition(2, 3)
        x = rng.normal(size=(2, 3))
        assert np.array_equal(guided_x0(d, x, 1, cond, 2.0), np.full((2, 3), 2.0))


class TestSample:
    def test_converges_to_fixed_target(self, rng):
        sched = make_schedule(50, "cosine")
        target = rng.normal(size=(6, 4))
        d = ConstantDenoiser(target)
        out = sample(d, tiny_condition(6, 4), sched, 6, 4, seed=11)
        assert np.max(np.abs(out.frames - target)) < 1e-2

    def test_seed_determinism(self):
        # an untrained network depends on x_t, so seeds must diverge
        sched = make_schedule(20, "cosine")
        d = MlpDenoiser(3, 3, hidden=8, embed=4, seed=0)
        cond = tiny_condition(5, 3)
        a = sample(d, cond, sched, 5, 3, seed=42)
        b = sample(d, cond, sched, 5, 3, seed=42)
        c = sample(d, cond, sched, 5, 3, seed=43)
        assert np.array_equal(a.frames, b.frames)
        assert not np.array_equal(a.frames, c.frames)

    def test_returns_motion_sequence(self):
        sched = make_schedule(5, "cosine")
        out = sample(ConstantDenoiser(np.zeros((4, 2))), tiny_condition(4, 2),
                     sched, 4, 2, seed=1)
        assert isinstance(out, MotionSequence)


class TestLosses:
    def test_simple_trivial(self):
        x = np.zeros((4, 3))
        assert loss_simple(x, x) == 0.0
        assert loss_simple(x, np.ones_like(x)) == 1.0

    def test_simple_matches_two_loops(self, rng):
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(5, 4))
        acc = 0.0
        for i in range(5):
            for j in range(4):
                acc += (b[i, j] - a[i, j]) ** 2
        assert abs(loss_simple(a, b) - acc / 20) < 1e-12

    def test_constant_offset_ignored_by_differentials(self, rng):
        x0 = rng.normal(size=(6, 3))
        shifted = x0 + 0.7
        assert loss_vel(x0, shifted) < 1e-24
        assert loss_acc(x0, shifted) < 1e-24

    def test_linear_vs_constant(self):
        v = np.array([0.5, -1.0, 2.0])
        x0 = np.arange(6)[:, None] * v[None, :]
        x0_hat = np.zeros_like(x0)
        assert loss_acc(x0, x0_hat) == 0.0
        assert loss_vel(x0, x0_hat) == pytest.approx(float(np.sum(v * v)), rel=1e-12)

    def test_vel_acc_match_brute_force(self, rng):
        x0 = rng.normal(size=(7, 3))
        y = rng.normal(size=(7, 3))
        lv = sum(
            float(np.sum(((y[m + 1] - y[m]) - (x0[m + 1] - x0[m])) ** 2))
            for m in range(6)
        ) / 6
        la = sum(
            float(
                np.sum(
                    (
                        (y[m + 2] - 2 * y[m + 1] + y[m])
                        - (x0[m + 2] - 2 * x0[m + 1] + x0[m])
                    )
                    ** 2
                )
            )
            for m in range(5)
        ) / 5
        assert abs(loss_vel(x0, y) - lv) < 1e-12
        assert abs(loss_acc(x0, y) - la) < 1e-12

    def test_total_composition(self, rng):
        x0 = rng.normal(size=(5, 2))
        y = rng.normal(size=(5, 2))
        t = total_loss(x0, y, 0.5, 2.0)
        expect = loss_simple(x0, y) + 0.5 * loss_vel(x0, y) + 2.0 * loss_acc(x0, y)
        assert t == pytest.approx(expect, rel=1e-15)


class TestMlpDenoiser:
    def test_embedding_shape_and_range(self):
        e = time_embedding(7, 8)
        assert e.shape == (8,)
        assert np.all(np.abs(e) <= 1.0)

    def test_gradient_check(self, rng):
        model = MlpDenoiser(4, 3, hidden=12, embed=4, seed=3)
        x0 = rng.normal(size=(6, 4))
        x_t = rng.normal(size=(6, 4))
        cond = tiny_condition(6, 4)
        loss, grads = model.loss_gradients(x0, x_t, 5, cond)
        flat_g = np.concatenate([grads[n].ravel() for n in model.PARAM_NAMES])
        theta = model.get_flat()
        worst = 0.0
        h = 1e-6
        for _ in range(20):
            i = int(rng.integers(0, theta.size))
            probe = theta.copy()
            probe[i] = theta[i] + h
            model.set_flat(probe)
            f_hi = total_loss(x0, model.predict(x_t, 5, cond))
            probe[i] = theta[i] - h
            model.set_flat(probe)
            f_lo = total_loss(x0, model.predict(x_t, 5, cond))
            fd = (f_hi - f_lo) / (2 * h)
            rel = abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-8)
            worst = max(worst, rel)
        model.set_flat(theta)
        assert worst < 1e-4

    def test_mask_routes_gradients(self, rng):
        model = MlpDenoiser(4, 3, hidden=10, embed=4, seed=2)
        x0 = rng.normal(size=(5, 4))
        x_t = rng.normal(size=(5, 4))
        cond = tiny_condition(5, 4)
        audio_cols = slice(4, 7)  # [x_t | audio | seed | embedding]
        _, g_masked = model.loss_gradients(x0, x_t, 2, cond.masked())
        _, g_plain = model.loss_gradients(x0, x_t, 2, cond)
        assert np.all(g_masked["w1"][:, audio_cols] == 0.0)
        assert np.linalg.norm(g_plain["w1"][:, audio_cols]) > 0.0

    def test_predict_shape_validation(self):
        model = MlpDenoiser(4, 3, hidden=8, embed=4)
        with pytest.raises(InvalidArgumentError):
            model.predict(np.zeros((5, 3)), 1, tiny_condition(5, 4))


class TestTraining:
    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidArgumentError):
            train_denoiser([], PipelineConfig())

    def test_memorizes_constant_sequence(self):
        m, c = 16, 4
        frames = np.full((m, c), 0.3)
        cond = Condition(np.zeros((m, 2)), frames[0])
        cfg = PipelineConfig(
            k=1, n=2, m=m, t_steps=10, steps=300, batch=4, lr=0.05,
            hidden=32, embed=4, sequences=1, gamma=1.0, seed=9,
        )
        model, history = train_denoiser([(MotionSequence(frames), cond)], cfg)
        assert history[-1][1] < 0.5 * history[0][1]
        from mdgesture.diffusion import make_schedule as _ms

        sched = _ms(cfg.t_steps, cfg.schedule)
        out = sample(model, cond, sched, m, c, seed=123, gamma=1.0)
        assert np.max(np.abs(out.frames - 0.3)) < 0.1
