import math

import numpy as np
import pytest

from mdgesture import diffusion
from mdgesture.config import PipelineConfig
from mdgesture.diffusion import (
    Condition,
    Denoiser,
    DiffusionSchedule,
    MlpDenoiser,
    MotionSequence,
    guided_x0,
    loss_acc,
    loss_simple,
    loss_vel,
    make_schedule,
    p_step,
    q_sample,
    reverse_steps,
    sample,
    sample_heads,
    time_embedding,
    total_loss,
    train_denoiser,
)
from mdgesture.errors import InvalidArgumentError
from mdgesture.rng import BATCH_TAG, INIT_TAG, generator, step_normals


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

    @pytest.mark.parametrize("kind", ["linear", "cosine"])
    def test_alpha_derived_from_beta(self, kind):
        beta = make_schedule(50, kind).beta
        s = DiffusionSchedule(beta)
        assert np.array_equal(s.alpha, 1 - beta)
        assert np.array_equal(s.alpha_bar, np.cumprod(1 - beta))

    def test_alpha_cannot_be_passed(self):
        # a second copy of alpha could contradict beta; it is not a parameter
        s = make_schedule(10, "cosine")
        with pytest.raises(TypeError):
            DiffusionSchedule(s.beta, 0.5 * s.alpha, s.alpha_bar)

    @pytest.mark.parametrize("beta", [[0.1, 0.0], [0.1, 1.0], [-0.1, 0.2], [0.5, 1.5]])
    def test_rejects_beta_outside_unit_interval(self, beta):
        with pytest.raises(InvalidArgumentError):
            DiffusionSchedule(np.array(beta))


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
        a = p_step(x1, 1, 0, x0h, sched)
        b = p_step(x1, 1, 0, x0h, sched)
        assert np.array_equal(a, b)

    def test_oracle_chain_recovers_x0(self, rng):
        sched = make_schedule(50, "cosine")
        x0 = rng.normal(size=(4, 6))
        x = q_sample(x0, 50, generator(7).standard_normal(x0.shape), sched)
        steps = reverse_steps(50)
        for t, t_prev in zip(steps, steps[1:] + [0]):
            x = p_step(x, t, t_prev, x0, sched)
        assert np.array_equal(x, x0)

    @pytest.mark.parametrize("t_prev", [3, 0])
    def test_step_writes_no_input(self, rng, t_prev):
        sched = make_schedule(50, "cosine")
        x_t, x0h = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        before = x_t.tobytes(), x0h.tobytes()
        x = p_step(x_t, 7, t_prev, x0h, sched)
        assert (x_t.tobytes(), x0h.tobytes()) == before
        if t_prev == 0:
            assert x is x0h  # the documented last step
        else:
            assert np.array_equal(x, reference_p_step(x_t, 7, t_prev, x0h, sched))
            assert not np.shares_memory(x, x_t) and not np.shares_memory(x, x0h)

    @pytest.mark.parametrize("t_steps", [1, 2, 7, 10, 11, 50])
    def test_reverse_steps_are_a_decreasing_subsequence(self, t_steps):
        steps = reverse_steps(t_steps)
        assert steps[0] == t_steps
        assert all(a > b for a, b in zip(steps, steps[1:]))
        assert steps[-1] >= 1
        assert len(steps) == min(t_steps, 10)

    @pytest.mark.parametrize("t, t_prev", [(5, 5), (5, 6), (5, -1), (0, 0), (51, 3)])
    def test_step_pair_checked(self, t, t_prev):
        sched = make_schedule(50, "cosine")
        with pytest.raises(InvalidArgumentError):
            p_step(np.zeros((2, 2)), t, t_prev, np.zeros((2, 2)), sched)


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

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0, 3.5])
    def test_mlp_blend_matches_two_predictions(self, rng, gamma):
        # MlpDenoiser blends the branches in hidden space; the result
        # must be the output-space extrapolation up to round-off, and
        # exactly the conditional prediction at gamma = 1
        d = MlpDenoiser(5, 3, hidden=12, embed=4, seed=4)
        cond = tiny_condition(7, 5)
        x = rng.normal(size=(7, 5))
        want = gamma * d.predict(x, 6, cond) + (1 - gamma) * d.predict(
            x, 6, cond.masked)
        tol = 0.0 if gamma == 1.0 else 1e-12
        assert np.max(np.abs(guided_x0(d, x, 6, cond, gamma) - want)) <= tol

    def test_bound_guidance_writes_no_input(self, rng):
        model = MlpDenoiser(5, 3, hidden=12, embed=4, seed=4)
        model.set_flat(generator(9).normal(size=model.get_flat().shape))  # b1, b2 nonzero
        cond = tiny_condition(7, 5)
        bound = model.bind(cond)
        x = rng.normal(size=(7, 5))
        held = [x, cond.audio, cond.seed_motion, cond.masked.audio,
                cond.masked.seed_motion, model._flat]
        before = [a.tobytes() for a in held]
        y = guided_x0(bound, x, 6, cond, 2.0)
        assert [a.tobytes() for a in held] == before
        assert not any(np.shares_memory(y, a) for a in held)
        # the view's own terms are unchanged too: a second step reads the same
        assert np.array_equal(guided_x0(bound, x, 6, cond, 2.0), y)

    def test_null_condition_built_once(self):
        cond = tiny_condition(3, 2)
        assert cond.masked is cond.masked
        assert not cond.masked.audio.any()
        assert np.array_equal(cond.masked.seed_motion, cond.seed_motion)


class TestSample:
    def test_converges_to_fixed_target(self, rng):
        sched = make_schedule(50, "cosine")
        target = rng.normal(size=(6, 4))
        d = ConstantDenoiser(target)
        out = sample(d, tiny_condition(6, 4), sched, seed=11)
        assert np.max(np.abs(out.frames - target)) < 1e-2

    def test_seed_determinism(self):
        # an untrained network depends on x_t, so seeds must diverge
        sched = make_schedule(20, "cosine")
        d = MlpDenoiser(3, 3, hidden=8, embed=4, seed=0)
        cond = tiny_condition(5, 3)
        a = sample(d, cond, sched, seed=42)
        b = sample(d, cond, sched, seed=42)
        c = sample(d, cond, sched, seed=43)
        assert np.array_equal(a.frames, b.frames)
        assert not np.array_equal(a.frames, c.frames)

    def test_returns_motion_sequence(self):
        sched = make_schedule(5, "cosine")
        out = sample(ConstantDenoiser(np.zeros((4, 2))), tiny_condition(4, 2),
                     sched, seed=1)
        assert isinstance(out, MotionSequence)

    def test_shape_from_condition(self):
        sched = make_schedule(5, "cosine")
        d = ConstantDenoiser(np.zeros((6, 4)))
        cond = Condition(np.zeros((6, 2)), np.zeros(4))
        assert sample(d, cond, sched, seed=1).frames.shape == (6, 4)
        with pytest.raises(TypeError):  # no shape that could contradict cond
            sample(d, cond, sched, 6, 9, seed=1)


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

    def test_embedding_built_once_and_read_only(self):
        """Every reverse step and training window at one step shares one
        embedding, which no caller can change under the others."""
        e = time_embedding(9, 6)
        assert time_embedding(9, 6) is e
        assert time_embedding(np.int64(9), 6) is e
        freqs = np.exp(-math.log(10000.0) * np.arange(3) / 2)
        assert e.tobytes() == np.concatenate([np.sin(9.0 * freqs),
                                              np.cos(9.0 * freqs)]).tobytes()
        with pytest.raises(ValueError):
            e[0] = 0.0

    def test_initial_weights_are_the_init_stream(self):
        c, c_a, hidden, embed = 4, 3, 6, 4
        model = MlpDenoiser(c, c_a, hidden=hidden, embed=embed, seed=7)
        g = generator(7, INIT_TAG)
        n_in = 2 * c + c_a + embed
        lim1 = math.sqrt(6.0 / (n_in + hidden))
        lim2 = math.sqrt(6.0 / (hidden + c))
        assert np.array_equal(model.w1, g.uniform(-lim1, lim1, size=(hidden, n_in)))
        assert np.array_equal(model.w2, g.uniform(-lim2, lim2, size=(c, hidden)))
        assert not model.b1.any() and not model.b2.any()
        assert not MlpDenoiser(c, c_a, hidden, embed, seed=None).get_flat().any()

    def test_gradient_check(self, rng):
        model = MlpDenoiser(4, 3, hidden=12, embed=4, seed=3)
        x0 = rng.normal(size=(6, 4))
        x_t = rng.normal(size=(6, 4))
        cond = tiny_condition(6, 4)
        grads = model.loss_gradients(x0, x_t, 5, cond)
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

    def test_gradient_check_every_block(self, rng):
        # first and last coordinate of each w1 column block
        # [x_t | audio | seed | embedding], of b1, w2 and b2
        c, c_a, hidden, embed = 4, 3, 6, 4
        model = MlpDenoiser(c, c_a, hidden=hidden, embed=embed, seed=5)
        x0 = rng.normal(size=(6, c))
        x_t = rng.normal(size=(6, c))
        cond = tiny_condition(6, c, c_a)
        grads = model.loss_gradients(x0, x_t, 5, cond)
        edges = np.cumsum([0, c, c_a, c, embed])
        coords = [("w1", (r, col)) for lo, hi in zip(edges[:-1], edges[1:])
                  for r, col in ((0, lo), (hidden - 1, hi - 1))]
        coords += [("b1", (0,)), ("b1", (hidden - 1,)), ("w2", (0, 0)),
                   ("w2", (c - 1, hidden - 1)), ("b2", (0,)), ("b2", (c - 1,))]
        h = 1e-6
        for name, idx in coords:
            param = model.parameters()[name]
            keep = param[idx]
            param[idx] = keep + h
            f_hi = total_loss(x0, model.predict(x_t, 5, cond))
            param[idx] = keep - h
            f_lo = total_loss(x0, model.predict(x_t, 5, cond))
            param[idx] = keep
            fd = (f_hi - f_lo) / (2 * h)
            g = grads[name][idx]
            rel = abs(fd - g) / max(abs(fd), abs(g), 1e-8)
            assert rel < 1e-4, (name, idx, g, fd)

    def test_mask_routes_gradients(self, rng):
        model = MlpDenoiser(4, 3, hidden=10, embed=4, seed=2)
        x0 = rng.normal(size=(5, 4))
        x_t = rng.normal(size=(5, 4))
        cond = tiny_condition(5, 4)
        audio_cols = slice(4, 7)  # [x_t | audio | seed | embedding]
        g_masked = model.loss_gradients(x0, x_t, 2, cond.masked)
        g_plain = model.loss_gradients(x0, x_t, 2, cond)
        assert np.all(g_masked["w1"][:, audio_cols] == 0.0)
        assert np.linalg.norm(g_plain["w1"][:, audio_cols]) > 0.0

    @pytest.mark.parametrize(
        "m,lambda_vel,lambda_acc", [(2, 0.0, 1.0), (1, 1.0, 0.0)],
        ids=["acc_needs_3_frames", "vel_needs_2_frames"],
    )
    def test_short_window_refused(self, m, lambda_vel, lambda_acc):
        model = MlpDenoiser(4, 3, hidden=6, embed=4)
        x = np.zeros((m, 4))
        with pytest.raises(InvalidArgumentError):
            model.loss_gradients(x, x, 1, tiny_condition(m, 4), lambda_vel, lambda_acc)

    def test_predict_shape_validation(self):
        model = MlpDenoiser(4, 3, hidden=8, embed=4)
        bad = [
            (np.zeros((5, 3)), tiny_condition(5, 4)),  # x_t width
            (np.zeros((5, 4)), tiny_condition(6, 4)),  # audio rows
            (np.zeros((5, 4)), tiny_condition(5, 5)),  # seed size
        ]
        for x_t, cond in bad:
            with pytest.raises(InvalidArgumentError):
                model.predict(x_t, 1, cond)
            for gamma in (1.0, 2.0):
                with pytest.raises(InvalidArgumentError):
                    guided_x0(model, x_t, 1, cond, gamma)


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
        out = sample(model, cond, sched, seed=123, gamma=1.0)
        assert np.max(np.abs(out.frames - 0.3)) < 0.1


# -- references written out: the per-step code of the sampler and trainer
# before the coefficient table, bind and the trimmed gradient. The fast
# path must equal them bit for bit (np.array_equal), not to a tolerance.

def reference_p_step(x_t, t, t_prev, x0_hat, sched):
    """DDIM with eta = 0 from level t to t_prev, sqrt taken at the step."""
    if t_prev == 0:
        return x0_hat
    ab_t, ab_prev = sched.alpha_bar[t - 1], sched.alpha_bar[t_prev - 1]
    eps = (x_t - math.sqrt(ab_t) * x0_hat) / math.sqrt(1.0 - ab_t)
    return math.sqrt(ab_prev) * x0_hat + math.sqrt(1.0 - ab_prev) * eps


def reference_preactivation(model, x_t, t, cond):
    emb = time_embedding(t, model.embed)
    xs, au, sd, em = model._blocks
    w1 = model.w1
    pre = x_t @ w1[:, xs].T
    pre += w1[:, sd] @ cond.seed_motion + w1[:, em] @ emb + model.b1
    return pre, cond.audio @ w1[:, au].T, emb


def reference_guided(model, x_t, t, cond, gamma):
    pre, audio_pre, _ = reference_preactivation(model, x_t, t, cond)
    if gamma == 1.0:
        return np.tanh(pre + audio_pre) @ model.w2.T + model.b2
    h = gamma * np.tanh(pre + audio_pre) + (1.0 - gamma) * np.tanh(pre)
    return h @ model.w2.T + model.b2


def reference_chain(model, cond, sched, seeds, rows, gamma):
    big_t = sched.n_steps
    x = np.concatenate([step_normals(s, big_t, (rows, model.n_channels))
                        for s in seeds])
    n = min(big_t, 10)
    steps = [math.ceil(i * big_t / n) for i in range(n, 0, -1)] + [0]
    for t, t_prev in zip(steps, steps[1:]):
        x0h = reference_guided(model, x, t, cond, gamma)
        x = reference_p_step(x, t, t_prev, x0h, sched)
    return x


def reference_loss_gradients(model, x0, x_t, t, cond, lambda_vel, lambda_acc):
    pre, audio_pre, emb = reference_preactivation(model, x_t, t, cond)
    h = np.tanh(pre + audio_pre)
    y = h @ model.w2.T + model.b2
    m = x0.shape[0]
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
    dh = g @ model.w2
    dpre = dh * (1.0 - h * h)
    db1 = dpre.sum(axis=0)
    xs, au, sd, em = model._blocks
    dw1 = np.empty_like(model.w1)
    dw1[:, xs] = dpre.T @ x_t
    dw1[:, au] = dpre.T @ cond.audio
    dw1[:, sd] = np.outer(db1, cond.seed_motion)
    dw1[:, em] = np.outer(db1, emb)
    return {"w2": g.T @ h, "b2": g.sum(axis=0), "w1": dw1, "b1": db1}


def reference_train(dataset, cfg):
    """train_denoiser's parameter updates, without the probe rows."""
    seqs = [s.frames for s, _ in dataset]
    conds = [c for _, c in dataset]
    sched = make_schedule(cfg.t_steps, cfg.schedule)
    model = MlpDenoiser(seqs[0].shape[1], conds[0].audio.shape[1], cfg.hidden,
                        cfg.embed, seed=cfg.seed)
    g = generator(cfg.seed, BATCH_TAG)
    vel = np.zeros_like(model.get_flat())
    for _ in range(cfg.steps):
        idx = g.integers(0, len(dataset), size=cfg.batch)
        acc = {name: np.zeros_like(p) for name, p in model.parameters().items()}
        for i in idx:
            t = int(g.integers(1, sched.n_steps + 1))
            noise = g.standard_normal(seqs[i].shape)
            ab = sched.alpha_bar[t - 1]
            x_t = math.sqrt(ab) * seqs[i] + math.sqrt(1.0 - ab) * noise
            cond = conds[i].masked if g.random() < cfg.mask_prob else conds[i]
            grads = reference_loss_gradients(model, seqs[i], x_t, t, cond,
                                             cfg.lambda_vel, cfg.lambda_acc)
            for name in acc:
                acc[name] += grads[name]
        flat_acc = np.concatenate([acc[name].ravel() for name in model.PARAM_NAMES])
        vel = 0.9 * vel - (cfg.lr / cfg.batch) * flat_acc
        model.set_flat(model.get_flat() + vel)
    return model


class TestSameBitsAsPerStepCode:
    @pytest.mark.parametrize("kind", ["linear", "cosine"])
    @pytest.mark.parametrize("t_steps", [1, 2, 50])
    def test_coefficient_table_is_the_scalar_formulas(self, kind, t_steps):
        s = make_schedule(t_steps, kind)
        assert len(s.coefficients) == t_steps
        for t, (fwd_x0, fwd_noise) in enumerate(s.coefficients, start=1):
            ab_t = s.alpha_bar[t - 1]
            assert fwd_x0 == math.sqrt(ab_t)
            assert fwd_noise == math.sqrt(1.0 - ab_t)
        assert s.coefficients is s.coefficients

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_bound_chain_draws_equal_the_unbound_steps(self, gamma):
        m, c = 12, 8
        model = MlpDenoiser(c, 3, hidden=16, embed=4, seed=3)
        model.set_flat(generator(9).normal(size=model.get_flat().shape))  # b1, b2 nonzero
        cond = tiny_condition(m, c)
        seeds = [(4, 1, p) for p in range(3)]
        tiled = Condition(np.tile(cond.audio[:5], (3, 1)), cond.seed_motion)
        for t_steps in (6, 23):  # every step, and 10 of 23
            sched = make_schedule(t_steps, "cosine")
            got = sample(model, cond, sched, seed=(4, 1), gamma=gamma).frames
            assert np.array_equal(got, reference_chain(model, cond, sched, [(4, 1)], m, gamma))
            heads = sample_heads(model, cond, sched, seeds, 5, gamma)
            want = reference_chain(model, tiled, sched, seeds, 5, gamma)
            assert np.array_equal(heads, want.reshape(3, 5, c))

    def test_bound_view_follows_parameter_writes(self):
        model = MlpDenoiser(4, 3, hidden=8, embed=4, seed=1)
        cond, sched = tiny_condition(6, 4), make_schedule(4, "linear")
        sample(model, cond, sched, seed=2, gamma=2.0)  # a chain before the write
        model.w1[...] *= 0.5
        got = sample(model, cond, sched, seed=2, gamma=2.0).frames
        assert np.array_equal(got, reference_chain(model, cond, sched, [2], 6, 2.0))

    @pytest.mark.parametrize("shape, stack, overrides", [
        ((10, 4), None, {}),
        ((10, 4), 2, {"batch": 5}),
        ((10, 4), None, {"batch": 1}),
        ((10, 4), 2, {"mask_prob": 0.0}),
        ((10, 4), 2, {"mask_prob": 1.0}),
        ((10, 4), 2, {"lambda_vel": 0.0}),
        ((10, 4), 2, {"lambda_acc": 0.0}),
        ((3, 4), 2, {"m": 3}),
        ((6, 400), None, {"hidden": 64, "steps": 3}),
    ], ids=["base", "batch_not_a_multiple", "batch_1", "mask_0", "mask_1", "no_vel",
            "no_acc", "m_3", "one_window_per_stack"])
    def test_training_equals_the_unbound_gradient_loop(self, monkeypatch, shape, stack,
                                                       overrides):
        """Stacked training steps equal one reference gradient per window,
        summed in window order, whatever the stack size."""
        m, c = shape
        g = generator(8)
        dataset = [(MotionSequence(g.normal(size=(m, c))),
                    Condition(g.normal(size=(m, 2)), g.normal(size=c)))
                   for _ in range(3)]
        cfg = PipelineConfig(**{"k": 1, "n": 2, "m": 10, "t_steps": 7, "steps": 12,
                                "batch": 3, "hidden": 8, "embed": 4, "mask_prob": 0.5,
                                "seed": 5, **overrides})
        probe = MlpDenoiser(c, 2, cfg.hidden, cfg.embed)
        if stack is not None:
            monkeypatch.setattr(diffusion, "STACK_FLOATS", stack * probe.get_flat().size)
            assert diffusion.windows_per_stack(probe) == stack
        elif c == 400:
            assert diffusion.windows_per_stack(probe) == 1
        model, _ = train_denoiser(dataset, cfg)
        want = reference_train(dataset, cfg)
        for name in MlpDenoiser.PARAM_NAMES:
            assert np.array_equal(getattr(model, name), getattr(want, name)), name

    @pytest.mark.parametrize("batch, stack", [(5, 2), (4, 4), (3, 1), (16, 6)])
    def test_a_step_makes_one_gradient_call_per_stack(self, monkeypatch, batch, stack):
        m, c = 10, 4
        g = generator(8)
        dataset = [(MotionSequence(g.normal(size=(m, c))),
                    Condition(g.normal(size=(m, 2)), g.normal(size=c)))
                   for _ in range(3)]
        cfg = PipelineConfig(k=1, n=2, m=m, t_steps=7, steps=1, batch=batch, hidden=8,
                             embed=4, seed=5)
        per_window = MlpDenoiser(c, 2, 8, 4).get_flat().size
        monkeypatch.setattr(diffusion, "STACK_FLOATS", stack * per_window)
        sizes = []
        real = MlpDenoiser.loss_gradients

        def counted(self, x0, x_t, *args, **kwargs):
            sizes.append(len(x_t))
            return real(self, x0, x_t, *args, **kwargs)

        monkeypatch.setattr(MlpDenoiser, "loss_gradients", counted)
        train_denoiser(dataset, cfg)
        assert len(sizes) == math.ceil(batch / stack)
        assert sum(sizes) == batch and max(sizes) == min(stack, batch)

    @pytest.mark.parametrize("n", [1, 4])
    def test_stacked_gradient_is_the_in_order_sum_of_the_reference(self, n):
        m, c = 7, 4
        g = generator(11)
        model = MlpDenoiser(c, 3, hidden=6, embed=4, seed=2)
        model.set_flat(g.normal(size=model.get_flat().shape))  # b1, b2 nonzero
        x0, x_t = g.normal(size=(2, n, m, c))
        steps = [int(s) for s in g.integers(1, 9, size=n)]
        conds = [tiny_condition(m, c, seed=s) for s in range(n)]
        conds[-1] = conds[-1].masked
        start = {k: g.normal(size=p.shape) for k, p in model.parameters().items()}
        for acc in (None, {k: p.copy() for k, p in start.items()}):
            want = {k: np.zeros_like(p) if acc is None else p.copy()
                    for k, p in start.items()}
            for b in range(n):
                ref = reference_loss_gradients(model, x0[b], x_t[b], steps[b], conds[b],
                                               1.0, 1.0)
                for k in want:
                    want[k] += ref[k]
            got = model.loss_gradients(x0, x_t, steps, conds, acc=acc)
            assert acc is None or got is acc  # summed in place
            for k in model.PARAM_NAMES:
                assert np.array_equal(got[k], want[k]), k

    def test_stacked_q_sample_is_each_window_at_its_step(self):
        sched = make_schedule(9, "cosine")
        g = generator(3)
        x0, noise = g.normal(size=(2, 3, 5, 2))
        steps = [9, 1, 4]
        got = q_sample(x0, steps, noise, sched)
        for b, t in enumerate(steps):
            assert np.array_equal(got[b], q_sample(x0[b], t, noise[b], sched))
        with pytest.raises(InvalidArgumentError):
            q_sample(x0, [9, 1, 10], noise, sched)
        with pytest.raises(InvalidArgumentError):
            q_sample(x0, [9, 1], noise, sched)

    @pytest.mark.parametrize("c_a, c, names", [
        (2, 4, "audio has 2 channels, model expects 3"),
        (3, 5, "seed motion has 5 channels, model expects 4"),
    ], ids=["audio_width", "seed_size"])
    def test_bind_refuses_a_mismatched_condition_before_any_noise(self, monkeypatch,
                                                                  c_a, c, names):
        model = MlpDenoiser(4, 3, hidden=8, embed=4)
        bad = Condition(np.zeros((6, c_a)), np.zeros(c))
        drawn = []
        monkeypatch.setattr(diffusion, "step_normals", lambda *a: drawn.append(a))
        with pytest.raises(InvalidArgumentError, match=names):
            model.bind(bad)
        with pytest.raises(InvalidArgumentError, match=names):
            sample(model, bad, make_schedule(3, "cosine"), seed=0)
        assert drawn == []

    def test_bound_view_refuses_another_condition(self):
        model = MlpDenoiser(4, 3, hidden=8, embed=4)
        view = model.bind(tiny_condition(6, 4))
        with pytest.raises(InvalidArgumentError):
            guided_x0(view, np.zeros((6, 4)), 1, tiny_condition(6, 4, seed=6), 2.0)
