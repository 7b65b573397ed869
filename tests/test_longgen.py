import math
import os
import threading

import numpy as np
import pytest

from mdgesture import audio, diffusion, rng, synth
from mdgesture.audio import AudioCondition, synth_condition
from mdgesture.config import PipelineConfig
from mdgesture.diffusion import (
    Condition,
    Denoiser,
    MlpDenoiser,
    make_schedule,
    sample,
    sample_heads,
)
from mdgesture.errors import InvalidArgumentError, NumericsError
from mdgesture.longgen import (
    FILL_KNOTS,
    WINDOW,
    CandidateScore,
    candidate_seed,
    generate_long,
    select_best,
)
from mdgesture.motion import spline_fill
from mdgesture.rng import generator


class EchoDenoiser(Denoiser):
    """Oracle: predicts the audio features as the clean motion."""

    def predict(self, x_t, t, cond):
        return cond.audio.copy()


def drift_window(direction, start=0.0, n=5):
    """n frames of one keypoint moving uniformly along `direction`."""
    d = np.asarray(direction, dtype=np.float64)
    return start + np.arange(n)[:, None] * d[None, :]


def score(tail, head):
    """The one CandidateScore of `head` scored alone against `tail`."""
    (only,) = select_best(tail, np.asarray(head)[None])[1]
    return only


class TestPositionScore:
    def test_identical_zero(self, rng):
        w = rng.normal(size=(5, 6))
        assert score(w, w).position == 0.0

    def test_constant_offset(self, rng):
        w = rng.normal(size=(5, 4))
        delta = np.array([0.3, -0.2, 0.5, 0.0])
        got = score(w, w + delta).position
        assert got == pytest.approx(float(np.sum(np.abs(delta))), rel=1e-12)

    def test_matches_brute_force(self, rng):
        a = rng.normal(size=(5, 8))
        b = rng.normal(size=(5, 8))
        expect = 0.0
        for c in range(8):
            expect += abs(sum(a[:, c]) / 5 - sum(b[:, c]) / 5)
        assert abs(score(a, b).position - expect) < 1e-12

    def test_window_mismatch(self, rng):
        with pytest.raises(InvalidArgumentError):  # previous segment too short
            select_best(rng.normal(size=(4, 2)), rng.normal(size=(1, 5, 2)))
        with pytest.raises(InvalidArgumentError):  # candidates too short
            select_best(rng.normal(size=(5, 2)), rng.normal(size=(1, 4, 2)))
        with pytest.raises(InvalidArgumentError):  # channel counts differ
            select_best(rng.normal(size=(5, 2)), rng.normal(size=(1, 5, 4)))
        with pytest.raises(InvalidArgumentError):  # one candidate, not a block
            select_best(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))


class TestVelocityAngleScore:
    def test_same_direction_zero(self):
        a = drift_window([0.1, 0.0])
        b = drift_window([0.3, 0.0], start=2.0)
        assert score(a, b).angle == 0.0

    def test_antiparallel_pi(self):
        a = drift_window([0.1, 0.0])
        b = drift_window([-0.2, 0.0])
        assert score(a, b).angle == pytest.approx(math.pi)

    def test_orthogonal_half_pi(self):
        a = drift_window([0.1, 0.0])
        b = drift_window([0.0, 0.1])
        assert score(a, b).angle == pytest.approx(math.pi / 2)

    def test_static_keypoint_contributes_zero(self):
        # keypoint 0 orthogonal turn, keypoint 1 frozen: mean over both
        a = np.hstack([drift_window([0.1, 0.0]), drift_window([0.0, 0.0])])
        b = np.hstack([drift_window([0.0, 0.1]), drift_window([0.0, 0.0])])
        assert score(a, b).angle == pytest.approx(math.pi / 4)

    def test_odd_channels_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            select_best(rng.normal(size=(5, 3)), rng.normal(size=(1, 5, 3)))


class TestCandidateScore:
    def test_total_is_exact_sum(self):
        s = CandidateScore(0.1, 0.2)
        assert s.total == 0.1 + 0.2

    def test_scores_finite_and_nonnegative(self, rng):
        # frozen keypoints in both windows, and a zero-mean offset, included
        prev = rng.normal(size=(7, 6))
        prev[:, 4:] = 0.5
        block = rng.normal(size=(6, 9, 6))
        block[:, :, 4:] = -1.0
        block[0] = prev[-WINDOW:].mean(axis=0)
        _, scores = select_best(prev, block)
        for s in scores:
            assert math.isfinite(s.total)
            assert s.position >= 0.0
            assert 0.0 <= s.angle <= math.pi


class TestSelectBest:
    def test_single_candidate(self, rng):
        prev = rng.normal(size=(8, 4))
        best, scores = select_best(prev, rng.normal(size=(1, 8, 4)))
        assert best == 0
        assert len(scores) == 1

    def test_continuation_wins(self, rng):
        # one candidate continues prev exactly: both its scores vanish
        v = np.array([0.02, -0.01, 0.03, 0.015])
        track = np.arange(20)[:, None] * v[None, :]
        prev = track[:10]
        perfect = track[5:15]  # same 5-frame mean and velocity
        others = rng.normal(size=(3, 10, 4))
        best, scores = select_best(prev, np.stack([others[0], perfect, others[1], others[2]]))
        assert best == 1
        # arccos near cos=1 turns one ulp into ~1e-8 of angle
        assert scores[1].total < 1e-6
        assert all(s.total > 1e-3 for i, s in enumerate(scores) if i != 1)

    def test_all_identical_ties_to_zero(self, rng):
        prev = rng.normal(size=(6, 4))
        cand = rng.normal(size=(6, 4))
        best, _ = select_best(prev, np.stack([cand, cand, cand]))
        assert best == 0

    def test_scale_invariant_argmin(self, rng):
        prev = rng.normal(size=(9, 4))
        cands = rng.normal(size=(4, 9, 4))
        base, _ = select_best(prev, cands)
        scaled, _ = select_best(3.0 * prev, 3.0 * cands)
        assert base == scaled

    def test_block_scores_each_candidate_as_alone(self, rng):
        prev = rng.normal(size=(11, 8))
        block = rng.normal(size=(5, 7, 8))
        _, scores = select_best(prev, block)
        assert scores == [score(prev, head) for head in block]

    def test_empty_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            select_best(rng.normal(size=(6, 2)), np.empty((0, 6, 2)))


SCHED = make_schedule(8, "cosine")


def toy_cfg(m=12, **kw):
    """Long-generation settings on SCHED; gamma = 1 so a draw is a plain
    conditional sample()."""
    return PipelineConfig(k=1, n=2, m=m, t_steps=8, schedule="cosine",
                          gamma=1.0, **kw)


def toy_setup(m=12, c=4, m_total=None, seed=3):
    model = MlpDenoiser(c, 3, hidden=10, embed=4, seed=1)
    total = m_total if m_total is not None else m
    cond = synth_condition([0.2], max(total, m), 25, 3, seed=seed)
    seed_motion = generator(seed, 77).normal(size=c)
    return model, cond, seed_motion


# the sample workload's rig (c = 200, p = 5), shortened to 3 segments
RIG = PipelineConfig(k=20, n=5, m=80, t_steps=50, gamma=2.0, p=5, gap=2, seed=5)
# the same rig with one 240-frame segment
SINGLE = PipelineConfig(k=20, n=5, m=3 * RIG.m, t_steps=50, gamma=2.0, p=5, seed=5)


@pytest.fixture(scope="module")
def default_rig():
    """An untrained default-rig model, 240 frames of audio and a seed pose."""
    model = MlpDenoiser(RIG.c, 4, 64, 8, seed=2)
    cond = synth_condition([0.2, 0.7, 1.1, 3.0], 3 * RIG.m, 25, 4, seed=9)
    return model, cond, generator(9, 77).normal(size=RIG.c)


@pytest.fixture
def no_threads(monkeypatch):
    """Fails the test if anything it runs starts a thread."""
    def refused(self):
        raise AssertionError(f"a thread was started: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", refused)


class TestGenerateLong:
    def test_single_segment_matches_plain_sample(self):
        m, c = 12, 4
        model, cond, seed_motion = toy_setup(m, c)
        out, report = generate_long(
            model, cond, seed_motion, m, toy_cfg(m, seed=5)
        )
        direct = sample(
            model,
            Condition(cond.features[:m], seed_motion),
            SCHED,
            seed=5,
            fps=cond.fps,
        )
        assert np.array_equal(out.frames, direct.frames)
        assert report == []

    def test_single_segment_matches_plain_sample_on_default_rig(self, default_rig,
                                                                no_threads):
        model, cond, seed_motion = default_rig
        out, report = generate_long(model, cond, seed_motion, SINGLE.m, SINGLE)
        assert report == []
        direct = sample(model, Condition(cond.features, seed_motion), make_schedule(50),
                        seed=SINGLE.seed, gamma=SINGLE.gamma)
        assert np.array_equal(out.frames, direct.frames)

    def test_short_request_trims_one_segment(self):
        m, c = 12, 4
        model, cond, seed_motion = toy_setup(m, c)
        out, report = generate_long(
            model, cond, seed_motion, 6, toy_cfg(m, seed=5)
        )
        direct = sample(
            model,
            Condition(cond.features[:m], seed_motion),
            SCHED,
            seed=5,
            fps=cond.fps,
        )
        assert np.array_equal(out.frames, direct.frames[:6])
        assert report == []

    def test_deterministic(self):
        m, c = 12, 4
        model, cond, seed_motion = toy_setup(m, c, m_total=30)
        a, _ = generate_long(
            model, cond, seed_motion, 30, toy_cfg(m, p=2, seed=5)
        )
        b, _ = generate_long(
            model, cond, seed_motion, 30, toy_cfg(m, p=2, seed=5)
        )
        d, _ = generate_long(
            model, cond, seed_motion, 30, toy_cfg(m, p=2, seed=6)
        )
        assert np.array_equal(a.frames, b.frames)
        assert not np.array_equal(a.frames, d.frames)

    def test_output_trimmed_to_total(self):
        m, c = 12, 4
        model, cond, seed_motion = toy_setup(m, c, m_total=29)
        out, report = generate_long(
            model, cond, seed_motion, 29, toy_cfg(m, p=2, seed=0)
        )
        assert out.n_frames == 29
        assert len(report) == 2 * 2  # two junction segments, two candidates each

    def test_report_marks_argmin(self):
        m = 12
        model, cond, seed_motion = toy_setup(m, 4, m_total=24)
        _, report = generate_long(
            model, cond, seed_motion, 24, toy_cfg(m, p=3, seed=9)
        )
        rows = [r for r in report if r[0] == 1]
        assert len(rows) == 3
        selected = [r for r in rows if r[3]]
        assert len(selected) == 1
        best_total = min(r[2].total for r in rows)
        assert selected[0][2].total == best_total

    def test_oracle_target_reproduced_across_junctions(self):
        # the denoiser echoes its audio slice, which traces one smooth path
        m, m_total = 14, 40
        fps = 25
        t = np.arange(m_total + 2) / fps
        target = np.stack(
            [0.4 * np.cos(1.7 * t), 0.4 * np.sin(1.7 * t)], axis=1
        )
        cond = AudioCondition(target, fps)
        out, _ = generate_long(
            EchoDenoiser(),
            cond,
            target[0],
            m_total,
            PipelineConfig(k=1, n=1, m=m, t_steps=10, schedule="cosine",
                           gamma=1.0, p=3, gap=2, seed=4),
        )
        assert np.max(np.abs(out.frames - target[:m_total])) < 1e-2

    def test_gap_zero_is_naive_concat(self):
        m = 12
        model, cond, seed_motion = toy_setup(m, 4, m_total=24)
        out, report = generate_long(
            model,
            cond,
            seed_motion,
            24,
            toy_cfg(m, p=1, gap=0, seed=2),
        )
        # with one candidate and no fill the two halves are plain samples
        first = sample(
            model,
            Condition(cond.features[:m], seed_motion),
            SCHED,
            seed=2,
            fps=cond.fps,
        )
        assert np.array_equal(out.frames[:m], first.frames)
        second = sample(
            model,
            Condition(cond.features[m : 2 * m], first.frames[-1]),
            SCHED,
            seed=candidate_seed(2, 1, 0),
            fps=cond.fps,
        )
        assert np.array_equal(out.frames[m:], second.frames)

    def test_gap_fill_changes_only_junction_rows(self):
        m = 14
        model, cond, seed_motion = toy_setup(m, 4, m_total=28)
        raw, _ = generate_long(
            model, cond, seed_motion, 28, toy_cfg(m, p=2, gap=0, seed=1)
        )
        filled, _ = generate_long(
            model, cond, seed_motion, 28, toy_cfg(m, p=2, gap=2, seed=1)
        )
        changed = np.any(raw.frames != filled.frames, axis=1)
        assert set(np.nonzero(changed)[0]) <= {m - 1, m}

    def test_audio_too_short(self):
        model, cond, seed_motion = toy_setup(12, 4)
        short = AudioCondition(cond.features[:6], cond.fps)
        with pytest.raises(InvalidArgumentError):
            generate_long(model, short, seed_motion, 12, toy_cfg(12))

    def test_bad_arguments(self):
        model, cond, seed_motion = toy_setup(12, 4)
        with pytest.raises(InvalidArgumentError):
            generate_long(model, cond, seed_motion, 0, toy_cfg(12))


def all_candidates_long(denoiser, cond_full, seed_motion, m_total, cfg):
    """generate_long as it was before the head pass: every candidate of
    every segment drawn in full, then scored on its first WINDOW frames."""
    m, gap = cfg.m, cfg.gap
    n_seg = -(-m_total // m)
    feats = cond_full.features
    if feats.shape[0] < n_seg * m:
        pad = np.repeat(feats[-1:], n_seg * m - feats.shape[0], axis=0)
        feats = np.vstack([feats, pad])
    sched = make_schedule(cfg.t_steps, cfg.schedule)
    segments, report = [], []
    start, seeds = np.asarray(seed_motion, dtype=np.float64), [cfg.seed]
    for i in range(n_seg):
        cond_i = Condition(feats[i * m : (i + 1) * m], start)
        draws = np.stack([sample(denoiser, cond_i, sched, seed=s, gamma=cfg.gamma).frames
                          for s in seeds])
        best, scores = select_best(segments[-1], draws) if segments else (0, [])
        report.extend((i, p, sc, p == best) for p, sc in enumerate(scores))
        segments.append(draws[best])
        start = draws[best][-1]
        seeds = [candidate_seed(cfg.seed, i + 1, p) for p in range(cfg.p)]
    full = np.vstack(segments)
    if gap > 0:
        tail_half = (gap + 1) // 2
        for i in range(1, n_seg):
            lo = i * m - tail_half
            full[lo : lo + gap] = spline_fill(full[lo - FILL_KNOTS : lo],
                                              full[lo + gap : lo + gap + FILL_KNOTS], gap)
    return full[:m_total], report


def report_bits(report):
    """Report rows with each score as its exact float64 bits."""
    return [(seg, cand, float(sc.position).hex(), float(sc.angle).hex(), sel)
            for seg, cand, sc, sel in report]


def assert_head_report_matches(report, ref_report):
    """Head-pass scores against full-draw scores: the rows, candidates and
    winners exactly, the score values to rounding (head rows may differ
    from full-draw rows at round-off, depending on the BLAS kernel), and
    each winner the first lowest total of its segment."""
    assert [(seg, cand, sel) for seg, cand, _, sel in report] == \
        [(seg, cand, sel) for seg, cand, _, sel in ref_report]
    got = np.array([(sc.position, sc.angle) for _, _, sc, _ in report])
    want = np.array([(sc.position, sc.angle) for _, _, sc, _ in ref_report])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    for seg in {row[0] for row in report}:
        totals = [sc.total for s, _, sc, _ in report if s == seg]
        selected = [sel for s, *_, sel in report if s == seg]
        assert selected == [c == int(np.argmin(totals)) for c in range(len(totals))]


class FrameMixingDenoiser(Denoiser):
    """Not frame-local: every output row sees the mean of all of x_t."""

    def __init__(self, inner):
        self.inner = inner

    def predict(self, x_t, t, cond):
        return self.inner.predict(x_t, t, cond) + x_t.mean(axis=0)


class TestCandidateHeads:
    @pytest.mark.parametrize("c, hidden, embed", [(8, 64, 8), (200, 64, 8)],
                             ids=["toy_rig", "default_rig"])
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_heads_are_full_draws_first_window(self, c, hidden, embed, gamma):
        # the benchmark rigs' shapes: toy (k=2, n=2) and default (k=20, n=5),
        # 4 audio channels and 80-frame segments
        m, sched = 80, make_schedule(10, "cosine")
        model = MlpDenoiser(c, 4, hidden, embed, seed=2)
        g = generator(11)
        cond = Condition(g.normal(size=(m, 4)), g.normal(size=c))
        seeds = [(7, 1, p) for p in range(5)]
        heads = sample_heads(model, cond, sched, seeds, WINDOW, gamma)
        assert heads.shape == (len(seeds), WINDOW, c)
        for seed, head in zip(seeds, heads):
            full = sample(model, cond, sched, seed=seed, gamma=gamma).frames
            # equal to rounding: the noise rows are equal by construction,
            # a wrong noise row, audio row or seed shows at O(0.1)
            np.testing.assert_allclose(head, full[:WINDOW], rtol=0.0, atol=1e-12)

    def test_rejects_denoiser_that_mixes_frames(self):
        model, cond, seed_motion = toy_setup(12, 4)
        with pytest.raises(InvalidArgumentError):
            sample_heads(FrameMixingDenoiser(model),
                         Condition(cond.features[:12], seed_motion), SCHED,
                         [(0, 1, 0), (0, 1, 1)], WINDOW)

    @pytest.mark.parametrize("p", [5, 1])
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_generate_long_matches_all_candidates(self, p, gamma):
        # five segments, the last one trimmed, spline-filled junctions
        m, m_total = 12, 53
        model, cond, seed_motion = toy_setup(m, 4, m_total=m_total)
        cfg = PipelineConfig(k=1, n=2, m=m, t_steps=8, schedule="cosine",
                             gamma=gamma, p=p, gap=2, seed=4)
        out, report = generate_long(model, cond, seed_motion, m_total, cfg)
        ref, ref_report = all_candidates_long(model, cond, seed_motion, m_total, cfg)
        assert np.array_equal(out.frames, ref)
        assert len(report) == 4 * p
        assert_head_report_matches(report, ref_report)

    def test_generate_long_matches_all_candidates_toy_rig(self):
        m, m_total = 80, 250
        model = MlpDenoiser(8, 4, 64, 8, seed=3)
        cond = synth_condition([0.4], m_total, 25, 4, seed=6)
        seed_motion = generator(6, 77).normal(size=8)
        cfg = PipelineConfig(k=2, n=2, m=m, t_steps=6, gamma=2.0, p=5, gap=2, seed=1)
        out, report = generate_long(model, cond, seed_motion, m_total, cfg)
        ref, ref_report = all_candidates_long(model, cond, seed_motion, m_total, cfg)
        assert np.array_equal(out.frames, ref)
        assert_head_report_matches(report, ref_report)

    def test_frame_mixing_denoiser_draws_every_candidate(self):
        m, m_total = 12, 40
        model, cond, seed_motion = toy_setup(m, 4, m_total=m_total)
        cfg = toy_cfg(m, p=5, gap=2, seed=8)
        mixing = FrameMixingDenoiser(model)
        ref, ref_report = all_candidates_long(mixing, cond, seed_motion, m_total, cfg)
        out, report = generate_long(mixing, cond, seed_motion, m_total, cfg)
        assert np.array_equal(out.frames, ref)
        assert report_bits(report) == report_bits(ref_report)
        # scored on stacked heads, the same denoiser would rank other numbers
        claims_local = type("ClaimsLocal", (FrameMixingDenoiser,), {"frame_local": True})
        _, wrong = generate_long(claims_local(model), cond, seed_motion, m_total, cfg)
        assert report_bits(wrong) != report_bits(ref_report)


@pytest.fixture(scope="class")
def default_rig_short_segments():
    """Three 12-frame segments on the default rig's c = 200, p = 5 and no
    gap: a shape where heads may differ from full draws in the last bits."""
    cfg = PipelineConfig(k=20, n=5, m=12, t_steps=8, gamma=2.0, p=5, gap=0, seed=5)
    model = MlpDenoiser(cfg.c, 4, 64, 8, seed=2)
    cond = synth_condition([0.2, 0.7, 1.1], 3 * cfg.m, 25, 4, seed=9)
    seed_motion = generator(9, 77).normal(size=cfg.c)
    out, report = generate_long(model, cond, seed_motion, 3 * cfg.m, cfg)
    return cfg, model, cond, seed_motion, out, report


class TestHeadPassOffRigShapes:
    def test_kept_segments_are_full_draws_on_winner_seed(self, default_rig_short_segments):
        cfg, model, cond, seed_motion, out, report = default_rig_short_segments
        m, sched = cfg.m, make_schedule(cfg.t_steps, cfg.schedule)
        start, seed = seed_motion, cfg.seed
        for i in range(3):
            if i:
                (best,) = [cand for seg, cand, _, sel in report if seg == i and sel]
                seed = candidate_seed(cfg.seed, i, best)
            cond_i = Condition(cond.features[i * m : (i + 1) * m], start)
            kept = sample(model, cond_i, sched, seed=seed, gamma=cfg.gamma,
                          fps=cond.fps).frames
            assert np.array_equal(out.frames[i * m : (i + 1) * m], kept)
            start = kept[-1]

    def test_winner_is_lowest_total_ties_to_lower_index(self, default_rig_short_segments):
        cfg, *_, report = default_rig_short_segments
        for i in (1, 2):
            rows = [(cand, sc.total, sel) for seg, cand, sc, sel in report if seg == i]
            assert [cand for cand, _, _ in rows] == list(range(cfg.p))
            low = min(total for _, total, _ in rows)
            first_low = next(cand for cand, total, _ in rows if total == low)
            assert [sel for *_, sel in rows] == [c == first_low for c in range(cfg.p)]


def flat_parts(parts):
    """Seed parts flattened as `rng.generator` flattens them."""
    return tuple(int(q) for p in parts for q in (p if isinstance(p, tuple) else (p,)))


def test_sampling_streams_do_not_reuse_dataset_streams(monkeypatch):
    def record(module, seen):
        real = module.generator
        monkeypatch.setattr(module, "generator",
                            lambda *parts: seen.add(flat_parts(parts)) or real(*parts))

    cfg = PipelineConfig(k=1, n=2, m=12, t_steps=4, gamma=2.0, p=3, gap=0,
                         sequences=4, c_audio=3, seed=0)
    model = MlpDenoiser(cfg.c, cfg.c_audio, hidden=10, embed=4, seed=1)
    cond = synth_condition([0.2], 3 * cfg.m, 25, cfg.c_audio, seed=3)
    data_keys, sample_keys = set(), set()
    record(synth, data_keys)
    record(audio, data_keys)
    record(rng, sample_keys)  # rng.step_normals builds every sampling key
    synth.make_dataset(cfg)
    generate_long(model, cond, generator(3, 77).normal(size=cfg.c), 3 * cfg.m, cfg)
    assert len(sample_keys) == 1 + 2 * cfg.p
    assert not data_keys & sample_keys

    # SeedSequence pads a key with zero words: (0,) and (0, 0, 0) are one key
    def philox_keys(keys):
        return {tuple(generator(*k).bit_generator.state["state"]["key"]) for k in keys}

    assert not philox_keys(data_keys) & philox_keys(sample_keys)


@pytest.mark.parametrize("cfg", [RIG, SINGLE], ids=["three_segments", "one_segment"])
@pytest.mark.parametrize("refusal", ["one_core", "no_fork"])
def test_bytes_do_not_depend_on_cores_or_fork(default_rig, no_threads, monkeypatch,
                                              refusal, cfg):
    """The motion and scores on two cores equal those on one core, or
    where os.fork is missing."""
    model, cond, seed_motion = default_rig
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out, report = generate_long(model, cond, seed_motion, 3 * RIG.m, cfg)
    if refusal == "one_core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, "fork")
    ref, ref_report = generate_long(model, cond, seed_motion, 3 * RIG.m, cfg)
    assert np.array_equal(out.frames, ref.frames)
    assert report_bits(report) == report_bits(ref_report)


def test_denoiser_failing_at_a_later_segment_reaches_the_caller(default_rig,
                                                                monkeypatch):
    model, cond, seed_motion = default_rig
    calls = []
    guided_x0 = diffusion.guided_x0

    def fails_later(*args):
        calls.append(1)
        if len(calls) == 25:  # in segment 1's kept chain, after its head pass
            raise NumericsError("injected failure")
        return guided_x0(*args)

    monkeypatch.setattr(diffusion, "guided_x0", fails_later)
    with pytest.raises(NumericsError, match="injected"):
        generate_long(model, cond, seed_motion, 3 * RIG.m, RIG)
    assert len(calls) == 25


@pytest.mark.parametrize("k, n, m, frames", [(20, 5, 80, 240), (20, 5, 40, 40), (2, 2, 80, 400)],
                         ids=["sample", "render", "roundtrip"])
def test_workload_rigs_draw_only_x_T_in_process(monkeypatch, k, n, m, frames):
    """On the benchmark workloads' shapes (the sample rig shortened to 3
    segments), generate_long forks no process, starts no thread, and
    draws noise once per seed per chain: its x_T, at step T. Segment 0
    is one chain on one seed; each later segment runs a head pass on p
    seeds and a full chain on the winner's."""
    drawn = []
    normals = diffusion.step_normals

    def counted(seed, step, shape, out=None):
        drawn.append((seed, step))
        return normals(seed, step, shape, out)

    def refused(*args):
        raise AssertionError("sampling forked or started a thread")

    monkeypatch.setattr(diffusion, "step_normals", counted)
    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(threading.Thread, "start", refused)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = PipelineConfig(k=k, n=n, m=m, t_steps=50, gamma=2.0, p=5, gap=2, seed=5)
    model = MlpDenoiser(cfg.c, 4, 64, 8, seed=2)
    cond = synth_condition([0.2, 0.7, 1.1], frames, 25, 4, seed=9)
    out, report = generate_long(model, cond, generator(9, 77).normal(size=cfg.c),
                                frames, cfg)
    assert out.frames.shape == (frames, cfg.c)
    assert len(report) == (frames // m - 1) * cfg.p
    want = [cfg.seed]
    for seg in range(1, frames // m):
        best = next(cand for s, cand, _, sel in report if s == seg and sel)
        want += [candidate_seed(cfg.seed, seg, p) for p in range(cfg.p)]
        want.append(candidate_seed(cfg.seed, seg, best))
    assert drawn == [(seed, cfg.t_steps) for seed in want]
