"""Configuration parsing, validation, and round-trip tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowctl.config import (ConfigError, RunConfig, build_grid,
                              build_hum_config, build_initial_data,
                              build_pair, build_tgrid, load_config,
                              parse_config, serialize_config, validate_config)


class TestParse:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_defaults_are_valid(self):
        validate_config(RunConfig())

    def test_basic_overrides(self):
        cfg = parse_config(
            "grid.n_cells = 40\n"
            "time.horizon = 0.25\n"
            "problem.sigma = 8\n"
            "problem.mode = semilinear\n")
        assert cfg.grid_n_cells == 40
        assert cfg.time_horizon == 0.25
        assert cfg.problem_sigma == 8.0
        assert cfg.problem_mode == "semilinear"

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# leading comment\n"
            "\n"
            "grid.n_cells = 16   # trailing comment\n"
            "   \n")
        assert cfg.grid_n_cells == 16

    def test_sigma_list_parsing(self):
        cfg = parse_config("problem.sigma_list = 1, 10, 100\n")
        assert cfg.problem_sigma_list == (1.0, 10.0, 100.0)

    def test_output_formats_parsing(self):
        cfg = parse_config("output.formats = json, binary\n")
        assert cfg.output_formats == ("json", "binary")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'grid.cells'"):
            parse_config("grid.n_cells = 8\ngrid.cells = 9\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate key"):
            parse_config("grid.n_cells = 8\n# note\ngrid.n_cells = 9\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 1: expected 'key = value'"):
            parse_config("just some words\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config("grid.n_cells =\n")

    def test_malformed_int(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config("grid.n_cells = twelve\n")

    def test_malformed_float(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config("time.horizon = fast\n")

    def test_nonfinite_float_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            parse_config("time.horizon = inf\n")

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestValidation:
    @pytest.mark.parametrize("line,match", [
        ("grid.n_cells = 2", "grid.n_cells"),
        ("grid.omega_a = 0.8", "grid.omega_a"),
        ("grid.omega_a = 0.5\ngrid.omega_b = 0.5000000000000001",
         "grid.omega_a"),
        ("time.horizon = -1", "time.horizon"),
        ("time.n_steps = 0", "time.n_steps"),
        ("problem.mode = cubic", "problem.mode"),
        ("problem.sigma = 0.5", "problem.sigma"),
        ("problem.sigma_list = 10, 1", "problem.sigma_list"),
        ("problem.f_k = 0", "problem.f_k"),
        ("hum.epsilon = 0", "hum.epsilon"),
        ("hum.cg_tol = 0.5", "hum.cg_tol"),
        ("hum.preconditioner = ilu", "hum.preconditioner"),
        ("fixed_point.damping = 2", "fixed_point.damping"),
        ("fixed_point.quadrature_nodes = 2", "fixed_point.quadrature_nodes"),
        ("experiment.t0_fraction = 0", "experiment.t0_fraction"),
        ("experiment.epsilons = 1e-4, 1e-2", "experiment.epsilons"),
        ("data.profile_y = sawtooth", "data.profile_y"),
        ("output.formats = yaml", "output.formats"),
    ])
    def test_bad_values_name_the_dotted_key(self, line, match):
        with pytest.raises(ConfigError, match=match.replace(".", r"\.")):
            parse_config(line + "\n")


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        cfg = parse_config(
            "grid.n_cells = 75\n"
            "time.horizon = 0.625\n"
            "problem.sigma_list = 1, 5, 25\n"
            "hum.epsilon = 3.5e-7\n"
            "data.amplitude_y = 0.123456789012345678\n"
            "output.formats = csv, binary\n")
        text = serialize_config(cfg)
        assert parse_config(text) == cfg

    def test_serialized_text_lists_every_key(self):
        text = serialize_config(RunConfig())
        from shadowctl.config import _KEY_TO_FIELD
        for key in _KEY_TO_FIELD:
            assert f"{key} = " in text

    def test_load_config_reads_files(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("grid.n_cells = 24\n")
        assert load_config(p).grid_n_cells == 24


class TestBuilders:
    def test_grid_and_tgrid(self):
        cfg = parse_config("grid.n_cells = 12\ngrid.omega_a = 0.25\n"
                           "grid.omega_b = 0.75\ntime.n_steps = 33\n")
        grid = build_grid(cfg)
        tgrid = build_tgrid(cfg)
        assert grid.n_cells == 12
        assert grid.omega_a == 0.25
        assert tgrid.n_steps == 33

    def test_default_pair_families(self):
        pair = build_pair(RunConfig())
        # defaults: saturating f with unit-slope origin, arctan g with slope k
        assert float(pair.f.d_dy(0.0, 0.0)) == pytest.approx(1.0)
        assert float(pair.g.d_dy(0.0, 0.0)) == pytest.approx(1.0)

    def test_linear_pair_uses_coefficients(self):
        cfg = parse_config("problem.f_family = linear\nproblem.g_family = linear\n"
                           "problem.coeff_a = 0.5\nproblem.coeff_c = 2.0\n")
        pair = build_pair(cfg)
        assert float(pair.f.value(1.0, 0.0)) == 0.5
        assert float(pair.g.value(1.0, 0.0)) == 2.0

    def test_initial_data_profiles(self):
        cfg = parse_config("data.profile_y = cosine\ndata.amplitude_y = 0.2\n"
                           "data.profile_z = constant\ndata.amplitude_z = 0.3\n")
        grid = build_grid(cfg)
        y0, z0 = build_initial_data(cfg, grid)
        assert y0 == pytest.approx(0.2 * np.cos(np.pi * grid.cell_centers))
        assert np.all(z0 == 0.3)

    def test_bump_profile_peaks_at_center(self):
        cfg = parse_config("data.profile_y = bump\ndata.amplitude_y = 1.0\n"
                           "grid.n_cells = 101\n")
        grid = build_grid(cfg)
        y0, _ = build_initial_data(cfg, grid)
        assert np.argmax(y0) == 50
        assert y0[0] < 1e-4

    def test_hum_config_fields(self):
        cfg = parse_config("hum.epsilon = 1e-4\nhum.cg_tol = 1e-8\n"
                           "hum.cg_max_iters = 77\n")
        hc = build_hum_config(cfg)
        assert hc.epsilon == 1e-4
        assert hc.cg_tol == 1e-8
        assert hc.cg_max_iters == 77


# config-shaped lines: known keys with arbitrary values reach the value
# parsers and the validator, arbitrary text reaches the line parser
_KEYS = [line.partition("=")[0].strip()
         for line in serialize_config(RunConfig()).splitlines()]
_config_line = st.one_of(
    st.text(),
    st.builds("{} = {}".format, st.sampled_from(_KEYS),
              st.text(st.characters(exclude_characters="\n\r"))),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_config_line, max_size=6).map("\n".join))
def test_arbitrary_text_raises_only_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary())
def test_arbitrary_bytes_raise_only_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "arbitrary.cfg"
    path.write_bytes(data)
    try:
        load_config(path)
    except ConfigError:
        pass
