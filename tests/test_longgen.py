import math

import numpy as np
import pytest

from mdgesture.audio import AudioCondition, synth_condition
from mdgesture.diffusion import Condition, Denoiser, MlpDenoiser, make_schedule, sample
from mdgesture.errors import InvalidArgumentError
from mdgesture.longgen import (
    CandidateScore,
    generate_long,
    position_score,
    select_best,
    velocity_angle_score,
)
from mdgesture.motion import MotionSequence
from mdgesture.rng import generator


class EchoDenoiser(Denoiser):
    """Oracle: predicts the audio features as the clean motion."""

    def predict(self, x_t, t, cond):
        return cond.audio.copy()


def drift_window(direction, start=0.0, n=5):
    """n frames of one keypoint moving uniformly along `direction`."""
    d = np.asarray(direction, dtype=np.float64)
    return start + np.arange(n)[:, None] * d[None, :]


class TestPositionScore:
    def test_identical_zero(self, rng):
        w = rng.normal(size=(5, 6))
        assert position_score(w, w) == 0.0

    def test_constant_offset(self, rng):
        w = rng.normal(size=(5, 4))
        delta = np.array([0.3, -0.2, 0.5, 0.0])
        got = position_score(w, w + delta)
        assert got == pytest.approx(float(np.sum(np.abs(delta))), rel=1e-12)

    def test_matches_brute_force(self, rng):
        a = rng.normal(size=(5, 8))
        b = rng.normal(size=(5, 8))
        expect = 0.0
        for c in range(8):
            expect += abs(sum(a[:, c]) / 5 - sum(b[:, c]) / 5)
        assert abs(position_score(a, b) - expect) < 1e-12

    def test_window_mismatch(self, rng):
        with pytest.raises(InvalidArgumentError):
            position_score(rng.normal(size=(4, 2)), rng.normal(size=(5, 2)))
        with pytest.raises(InvalidArgumentError):
            position_score(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))


class TestVelocityAngleScore:
    def test_same_direction_zero(self):
        a = drift_window([0.1, 0.0])
        b = drift_window([0.3, 0.0], start=2.0)
        assert velocity_angle_score(a, b) == 0.0

    def test_antiparallel_pi(self):
        a = drift_window([0.1, 0.0])
        b = drift_window([-0.2, 0.0])
        assert velocity_angle_score(a, b) == pytest.approx(math.pi)

    def test_orthogonal_half_pi(self):
        a = drift_window([0.1, 0.0])
        b = drift_window([0.0, 0.1])
        assert velocity_angle_score(a, b) == pytest.approx(math.pi / 2)

    def test_static_keypoint_contributes_zero(self):
        # keypoint 0 orthogonal turn, keypoint 1 frozen: mean over both
        a = np.hstack([drift_window([0.1, 0.0]), drift_window([0.0, 0.0])])
        b = np.hstack([drift_window([0.0, 0.1]), drift_window([0.0, 0.0])])
        assert velocity_angle_score(a, b) == pytest.approx(math.pi / 4)

    def test_odd_channels_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            velocity_angle_score(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))


class TestCandidateScore:
    def test_total_is_exact_sum(self):
        s = CandidateScore(0.1, 0.2)
        assert s.total == 0.1 + 0.2

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            CandidateScore(-0.1, 0.0)
        with pytest.raises(InvalidArgumentError):
            CandidateScore(0.0, math.nan)


class TestSelectBest:
    def test_single_candidate(self, rng):
        prev = MotionSequence(rng.normal(size=(8, 4)))
        cand = MotionSequence(rng.normal(size=(8, 4)))
        best, scores = select_best(prev, [cand])
        assert best == 0
        assert len(scores) == 1

    def test_continuation_wins(self, rng):
        # one candidate continues prev exactly: both its scores vanish
        v = np.array([0.02, -0.01, 0.03, 0.015])
        track = np.arange(20)[:, None] * v[None, :]
        prev = MotionSequence(track[:10])
        perfect = MotionSequence(track[5:15])  # same 5-frame mean and velocity
        others = [MotionSequence(rng.normal(size=(10, 4))) for _ in range(3)]
        best, scores = select_best(prev, [others[0], perfect, others[1], others[2]])
        assert best == 1
        # arccos near cos=1 turns one ulp into ~1e-8 of angle
        assert scores[1].total < 1e-6
        assert all(s.total > 1e-3 for i, s in enumerate(scores) if i != 1)

    def test_all_identical_ties_to_zero(self, rng):
        prev = MotionSequence(rng.normal(size=(6, 4)))
        cand = MotionSequence(rng.normal(size=(6, 4)))
        best, _ = select_best(prev, [cand, cand, cand])
        assert best == 0

    def test_scale_invariant_argmin(self, rng):
        prev = rng.normal(size=(9, 4))
        cands = [rng.normal(size=(9, 4)) for _ in range(4)]
        base, _ = select_best(MotionSequence(prev), [MotionSequence(c) for c in cands])
        scaled, _ = select_best(
            MotionSequence(3.0 * prev), [MotionSequence(3.0 * c) for c in cands]
        )
        assert base == scaled

    def test_empty_rejected(self, rng):
        with pytest.raises(InvalidArgumentError):
            select_best(MotionSequence(rng.normal(size=(6, 2))), [])


def toy_setup(m=12, c=4, m_total=None, seed=3):
    sched = make_schedule(8, "cosine")
    model = MlpDenoiser(c, 3, hidden=10, embed=4, seed=1)
    total = m_total if m_total is not None else m
    cond = synth_condition([0.2], max(total, m), 25, 3, seed=seed)
    seed_motion = generator(seed, 77).normal(size=c)
    return model, cond, seed_motion, sched


class TestGenerateLong:
    def test_single_segment_matches_plain_sample(self):
        m, c = 12, 4
        model, cond, seed_motion, sched = toy_setup(m, c)
        out, report = generate_long(
            model, cond, seed_motion, m, sched, segment_len=m, seed=5
        )
        direct = sample(
            model,
            Condition(cond.features[:m], seed_motion),
            sched,
            m,
            c,
            seed=5,
            fps=cond.fps,
        )
        assert np.array_equal(out.frames, direct.frames)
        assert report == []

    def test_short_request_trims_one_segment(self):
        m, c = 12, 4
        model, cond, seed_motion, sched = toy_setup(m, c)
        out, report = generate_long(
            model, cond, seed_motion, 6, sched, segment_len=m, seed=5
        )
        direct = sample(
            model,
            Condition(cond.features[:m], seed_motion),
            sched,
            m,
            c,
            seed=5,
            fps=cond.fps,
        )
        assert np.array_equal(out.frames, direct.frames[:6])
        assert report == []

    def test_deterministic(self):
        m, c = 12, 4
        model, cond, seed_motion, sched = toy_setup(m, c, m_total=30)
        a, _ = generate_long(
            model, cond, seed_motion, 30, sched, segment_len=m, candidates=2, seed=5
        )
        b, _ = generate_long(
            model, cond, seed_motion, 30, sched, segment_len=m, candidates=2, seed=5
        )
        d, _ = generate_long(
            model, cond, seed_motion, 30, sched, segment_len=m, candidates=2, seed=6
        )
        assert np.array_equal(a.frames, b.frames)
        assert not np.array_equal(a.frames, d.frames)

    def test_output_trimmed_to_total(self):
        m, c = 12, 4
        model, cond, seed_motion, sched = toy_setup(m, c, m_total=29)
        out, report = generate_long(
            model, cond, seed_motion, 29, sched, segment_len=m, candidates=2, seed=0
        )
        assert out.n_frames == 29
        assert len(report) == 2 * 2  # two junction segments, two candidates each

    def test_report_marks_argmin(self):
        m = 12
        model, cond, seed_motion, sched = toy_setup(m, 4, m_total=24)
        _, report = generate_long(
            model, cond, seed_motion, 24, sched, segment_len=m, candidates=3, seed=9
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
        sched = make_schedule(10, "cosine")
        out, _ = generate_long(
            EchoDenoiser(),
            cond,
            target[0],
            m_total,
            sched,
            segment_len=m,
            candidates=3,
            gap=2,
            seed=4,
        )
        assert np.max(np.abs(out.frames - target[:m_total])) < 1e-2

    def test_gap_zero_is_naive_concat(self):
        m = 12
        model, cond, seed_motion, sched = toy_setup(m, 4, m_total=24)
        out, report = generate_long(
            model,
            cond,
            seed_motion,
            24,
            sched,
            segment_len=m,
            candidates=1,
            gap=0,
            seed=2,
        )
        # with one candidate and no fill the two halves are plain samples
        first = sample(
            model,
            Condition(cond.features[:m], seed_motion),
            sched,
            m,
            4,
            seed=2,
            fps=cond.fps,
        )
        assert np.array_equal(out.frames[:m], first.frames)
        second = sample(
            model,
            Condition(cond.features[m : 2 * m], first.frames[-1]),
            sched,
            m,
            4,
            seed=(2, 1, 0),
            fps=cond.fps,
        )
        assert np.array_equal(out.frames[m:], second.frames)

    def test_gap_fill_changes_only_junction_rows(self):
        m = 14
        model, cond, seed_motion, sched = toy_setup(m, 4, m_total=28)
        raw, _ = generate_long(
            model, cond, seed_motion, 28, sched, segment_len=m, candidates=2,
            gap=0, seed=1,
        )
        filled, _ = generate_long(
            model, cond, seed_motion, 28, sched, segment_len=m, candidates=2,
            gap=2, seed=1,
        )
        changed = np.any(raw.frames != filled.frames, axis=1)
        assert set(np.nonzero(changed)[0]) <= {m - 1, m}

    def test_audio_too_short(self):
        model, cond, seed_motion, sched = toy_setup(12, 4)
        short = AudioCondition(cond.features[:6], cond.fps)
        with pytest.raises(InvalidArgumentError):
            generate_long(model, short, seed_motion, 12, sched, segment_len=12)

    def test_bad_arguments(self):
        model, cond, seed_motion, sched = toy_setup(12, 4)
        with pytest.raises(InvalidArgumentError):
            generate_long(model, cond, seed_motion, 0, sched, segment_len=12)
        with pytest.raises(InvalidArgumentError):
            generate_long(
                model, cond, seed_motion, 12, sched, segment_len=12, candidates=0
            )
        with pytest.raises(InvalidArgumentError):
            generate_long(
                model, cond, seed_motion, 12, sched, segment_len=12, gap=-1
            )
