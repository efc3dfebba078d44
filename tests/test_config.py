import pytest

from pggsim.config import RunConfig, load_config
from pggsim.dynamics import DynamicsKind
from pggsim.errors import ConfigError


class TestDefaults:
    def test_table_values(self, tmp_path):
        empty = tmp_path / "empty.cfg"
        empty.write_text("# nothing but a comment\n\n")
        cfg = load_config(empty)
        assert (cfg.M, cfg.N, cfg.t) == (100, 5, 10000)
        assert (cfg.g, cfg.c, cfg.r, cfg.u) == (0.5, 1.0, 3.0, 1e-10)
        assert (cfg.n, cfg.beta) == (100, 1.0)
        assert cfg == RunConfig()

    def test_no_file_at_all(self):
        assert load_config() == RunConfig()


class TestFileParsing:
    def test_single_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("r = 1.8\n")
        cfg = load_config(path)
        assert cfg.r == 1.8
        assert cfg.g == 0.5

    def test_trailing_comment_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("\ng = 2.0  # costly participation\n\n# done\n")
        assert load_config(path).g == 2.0

    def test_invariant_violation_names_field(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("u = 2\n")
        with pytest.raises(ConfigError, match="u must be in \\[0, 1\\]"):
            load_config(path)

    def test_unknown_keys_listed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("frobnicate = 3\nr = 2.0\nwibble = x\n")
        with pytest.raises(ConfigError, match="frobnicate.*wibble"):
            load_config(path)

    def test_retired_keys_are_unknown(self, tmp_path):
        # tt (rounds per event, always 1) and the unused normal-increment
        # parameters mu/sigma are no longer config keys
        path = tmp_path / "run.cfg"
        path.write_text("tt = 1\nmu = 0.0\nsigma = 0.0\n")
        with pytest.raises(ConfigError, match="tt.*mu.*sigma"):
            load_config(path)

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("r = 2.0\nnot a pair\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("r = 2.0\nr = 2.5\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_bad_value_reports_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps = soon\n")
        with pytest.raises(ConfigError, match="steps"):
            load_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("r = 2.0\ng = abc\n")
        with pytest.raises(ConfigError, match="line 2: invalid value for g"):
            load_config(path)

    def test_values_take_the_type_of_their_default(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps = 5000\ng = 1.25\nplot = on\nmode = network\nw = 0.5\n")
        assert load_config(path) == RunConfig(
            steps=5000, g=1.25, plot=True, mode="network", beta=0.5
        )

    def test_selection_intensity_aliases(self, tmp_path):
        for alias in ("s", "w", "beta"):
            path = tmp_path / f"{alias}.cfg"
            path.write_text(f"{alias} = 0.25\n")
            assert load_config(path).beta == 0.25

    def test_alias_conflict_is_duplicate(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("s = 0.25\nw = 0.5\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_integral_float_accepted_for_int_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps = 1e5\n")
        assert load_config(path).steps == 100_000

    def test_integer_literal_is_exact(self):
        assert load_config(None, ["seed=9007199254740993"]).seed == 2**53 + 1
        assert load_config(None, ["seed=+12"]).seed == 12

    def test_negative_seed_names_the_key(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
            load_config(None, ["seed=-1"])


class TestOverrides:
    def test_flags_win_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("r = 1.8\nseed = 3\n")
        cfg = load_config(path, ["r=2.5", "plot=true"])
        assert cfg.r == 2.5
        assert cfg.seed == 3
        assert cfg.plot is True

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(None, ["nope=1"])


class TestDerivedObjects:
    def test_mode_mapping(self):
        assert load_config(None, ["mode=replicator"]).dynamics_mode().kind \
            is DynamicsKind.REPLICATOR
        assert RunConfig().dynamics_mode().kind is DynamicsKind.REPLICATOR_MUTATOR
        with pytest.raises(ConfigError, match="mode"):
            load_config(None, ["mode=sideways"])

    def test_rounds_per_generation_pinned(self):
        # every update event plays exactly one round; there is no key to change that
        with pytest.raises(ConfigError, match="unknown config key: tt"):
            load_config(None, ["tt=2"])

    def test_initial_population_matches_fractions(self):
        pop = RunConfig().initial_population()
        assert pop.counts() == (90, 5, 5)

    def test_initial_state_validated(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            load_config(None, ["x0=0.5", "y0=0.5", "z0=0.5"])
