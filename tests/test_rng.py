import numpy as np
import pytest

from mdgesture import audio, diffusion, rng, synth
from mdgesture.audio import synth_condition
from mdgesture.config import PipelineConfig
from mdgesture.longgen import generate_long
from mdgesture.rng import NOISE_TAG, generator, step_normals

TOY = PipelineConfig(k=1, n=2, m=12, stride=6, t_steps=4, steps=3, batch=2,
                     hidden=8, embed=4, sequences=3, c_audio=3, gamma=2.0,
                     p=3, gap=0, seed=0)


class TestStepNoise:
    @pytest.mark.parametrize("c", [8, 200])
    def test_head_rows_are_full_draws_first_rows(self, c):
        full = step_normals((7, 1, 2), 4, (80, c))
        for rows in (1, 5, 80):
            assert np.array_equal(step_normals((7, 1, 2), 4, (rows, c)), full[:rows])

    def test_step_does_not_depend_on_earlier_draws(self):
        fresh = step_normals(3, 2, (5, 8))
        step_normals(3, 9, (80, 200))
        step_normals(3, 1, (3, 7))
        generator(3, NOISE_TAG).standard_normal(50)
        assert np.array_equal(step_normals(3, 2, (5, 8)), fresh)
        out = np.empty((5, 8))
        assert step_normals(3, 2, (5, 8), out) is out
        assert np.array_equal(out, fresh)

    def test_steps_and_keys_give_different_blocks(self):
        blocks = [step_normals(seed, step, (5, 8))
                  for seed in (0, (0, 1, 0), (0, 1, 1)) for step in (1, 2, 50)]
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                assert not np.any(a == b)

    def test_apart_from_the_sequential_stream_of_its_key(self):
        sequential = generator(5, NOISE_TAG).standard_normal((2, 8))
        assert not np.any(step_normals(5, 1, (2, 8)) == sequential)

    def test_pinned_values(self):
        # any change to the key or counter layout changes every sampled file
        got = step_normals((7, 1, 2), 3, (1, 4))[0]
        assert [float(v).hex() for v in got] == [
            "0x1.2d3c6de8e4fb3p-4",
            "-0x1.d7c66b68376d3p-1",
            "-0x1.4456307f42523p-1",
            "0x1.59deec85df6f5p-1",
        ]


def test_no_two_package_streams_share_a_key(monkeypatch):
    seen = set()
    for module in (synth, audio, diffusion, rng):
        real = module.generator

        def record(*parts, real=real):
            g = real(*parts)
            flat = tuple(np.hstack(parts).tolist())  # as generator flattens them
            seen.add((flat, tuple(g.bit_generator.state["state"]["key"])))
            return g

        monkeypatch.setattr(module, "generator", record)

    data = synth.make_dataset(TOY)
    model, _ = diffusion.train_denoiser(*diffusion.training_windows(data, TOY), TOY)
    cond = synth_condition([0.2], 3 * TOY.m, 25, TOY.c_audio, seed=3)
    generate_long(model, cond, data[0][0].frames[0], 3 * TOY.m, TOY)

    # dataset motion and audio, the condition, init, minibatch, probe, and
    # 1 + 2p sampling keys (segment 0, then p candidates in each of 2 more)
    assert len({parts for parts, _ in seen}) == 2 * TOY.sequences + 4 + 1 + 2 * TOY.p
    # SeedSequence pads a short key with zero words: (0, 1) is (0, 1, 0)
    assert len({key for _, key in seen}) == len({parts for parts, _ in seen})


def test_pinned_dataset_values():
    # any change to a dataset key changes every dataset file and model
    seq, _ = synth.synth_sequence(TOY, 0)
    # frames pass through np.cos, whose last bit may vary with the CPU
    assert seq.frames[0] == pytest.approx([float.fromhex(h) for h in (
        "-0x1.213f95f642804p-2",
        "-0x1.ff8f29627ef31p-3",
        "-0x1.519b175ed7999p-2",
        "0x1.1bee843850d2cp-4",
    )], rel=1e-12)
    cond = synth_condition([0.2], TOY.m, 25, TOY.c_audio, seed=(0, 0, 1))
    assert [float(v).hex() for v in cond.features[0, 1:]] == [
        "-0x1.263cae3a3a579p-2",
        "-0x1.9c1bffc0ab431p-4",
    ]
