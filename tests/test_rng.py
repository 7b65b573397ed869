import numpy as np
import pytest

from mdgesture.rng import NOISE_TAG, StepNoise, generator


class TestStepNoise:
    @pytest.mark.parametrize("c", [8, 200])
    def test_head_rows_are_full_draws_first_rows(self, c):
        noise = StepNoise((7, 1, 2))
        full = noise.normals(4, (80, c))
        for rows in (1, 5, 80):
            assert np.array_equal(noise.normals(4, (rows, c)), full[:rows])

    def test_step_does_not_depend_on_earlier_draws(self):
        fresh = StepNoise(3).normals(2, (5, 8))
        used = StepNoise(3)
        used.normals(9, (80, 200))
        used.normals(1, (3, 7))
        assert np.array_equal(used.normals(2, (5, 8)), fresh)

    def test_steps_and_keys_give_different_blocks(self):
        blocks = [StepNoise(seed).normals(step, (5, 8))
                  for seed in (0, (0, 1, 0), (0, 1, 1)) for step in (1, 2, 50)]
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                assert not np.any(a == b)

    def test_apart_from_the_sequential_stream_of_its_key(self):
        sequential = generator(5, NOISE_TAG).standard_normal((2, 8))
        assert not np.any(StepNoise(5).normals(1, (2, 8)) == sequential)

    def test_pinned_values(self):
        # any change to the key or counter layout changes every sampled file
        got = StepNoise((7, 1, 2)).normals(3, (1, 4))[0]
        assert [float(v).hex() for v in got] == [
            "0x1.2d3c6de8e4fb3p-4",
            "-0x1.d7c66b68376d3p-1",
            "-0x1.4456307f42523p-1",
            "0x1.59deec85df6f5p-1",
        ]
