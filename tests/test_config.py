import pytest

from mdgesture.config import PipelineConfig, parse_config, read_config_file
from mdgesture.errors import ConfigError


class TestDefaults:
    def test_pinned_values(self):
        cfg = PipelineConfig()
        assert cfg.k == 20
        assert cfg.n == 5
        assert cfg.c == 200
        assert cfg.m == 80
        assert cfg.t_steps == 50
        assert cfg.schedule == "cosine"
        assert cfg.gamma == 2.0
        assert cfg.p == 5
        assert cfg.gap == 2
        assert cfg.fps == 25
        assert cfg.seed == 0

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == PipelineConfig()

    def test_channels_follow_k_and_n(self):
        assert PipelineConfig(k=2, n=2).c == 8


class TestParsing:
    def test_key_value_lines(self):
        cfg = parse_config("k = 3\nn = 4\nlr = 0.125\nschedule = linear\n")
        assert cfg.k == 3
        assert cfg.n == 4
        assert cfg.lr == 0.125
        assert cfg.schedule == "linear"

    def test_t_alias(self):
        assert parse_config("T = 7\n").t_steps == 7

    def test_comments_and_blanks(self):
        text = "# full line comment\n\n  \nk = 3  # trailing comment\n"
        assert parse_config(text).k == 3

    def test_loose_whitespace(self):
        assert parse_config("   m   =   12   \n").m == 12

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 1: unknown key 'kk'"):
            parse_config("kk = 3\n")

    def test_knots_is_unknown(self):
        # spline knots are fixed by longgen.FILL_KNOTS, not configurable
        with pytest.raises(ConfigError, match="line 1: unknown key 'knots'"):
            parse_config("knots = 5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 2: duplicate"):
            parse_config("k = 3\nk = 4\n")

    def test_duplicate_via_alias(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("T = 7\nt_steps = 8\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="line 1: bad value '3.5'"):
            parse_config("k = 3.5\n")

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="line 2: bad value"):
            parse_config("k = 3\nlr = fast\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1: expected key = value"):
            parse_config("just words\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config("k =\n")


class TestValidation:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("k = 0", "k and n"),
            ("m = 0", "m must"),
            ("T = 0", "T must"),
            ("schedule = quadratic", "schedule"),
            ("mask_prob = 1.5", "mask_prob"),
            ("p = 0", "p must"),
            ("gap = -1", "gap"),
            ("softness = 0", "softness"),
            ("softness = 1e-7", "softness must be >= 1e-06"),
            ("softness = 1e-310", "softness must be >= 1e-06"),
            ("sigma_b = 0", "sigma_b"),
            ("lr = 0", "lr"),
            ("embed = 3", "embed"),
            ("seed = -1", "seed"),
        ],
    )
    def test_out_of_range(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)

    def test_segment_too_short_for_velocity_loss(self):
        # refused here, not later by train after synth-data wrote a dataset
        with pytest.raises(ConfigError, match="m must be >= 2 when lambda_vel > 0"):
            parse_config("m = 1\nlambda_acc = 0\n")

    def test_segment_too_short_for_acceleration_loss(self):
        with pytest.raises(ConfigError, match="m must be >= 3 when lambda_acc > 0"):
            parse_config("m = 2\n")

    @pytest.mark.parametrize("m,losses", [(1, "lambda_vel = 0\nlambda_acc = 0"),
                                          (2, "lambda_acc = 0")])
    def test_short_segment_without_its_loss_accepted(self, m, losses):
        assert parse_config(f"m = {m}\n{losses}\n").m == m


def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("k = 2\nn = 2\nm = 16\nT = 10\n")
    cfg = read_config_file(path)
    assert (cfg.k, cfg.n, cfg.m, cfg.t_steps) == (2, 2, 16, 10)
