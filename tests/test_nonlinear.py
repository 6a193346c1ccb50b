import warnings

import numpy as np
import pytest

from shadowctl.nonlinear import (arctan_family, check_hypotheses, linear_form,
                                 make_pair, sigmoid_family)


class TestSigmoidFamily:
    def test_origin(self):
        f = sigmoid_family(2.0)
        assert f.value(0.0, 0.0) == 0.0

    def test_unit_slope_at_origin(self):
        f = sigmoid_family(2.0)
        assert f.d_dy(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert f.d_dz(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_k1_half(self):
        # (y+z)/(1+|y+z|) at (1,0) -> 1/2
        f = sigmoid_family(1.0)
        assert f.value(1.0, 0.0) == pytest.approx(0.5, rel=1e-15)

    def test_saturates(self):
        f = sigmoid_family(2.0)
        u = np.linspace(-50.0, 50.0, 1001)
        vals = f.value(u, np.zeros_like(u))
        assert np.max(np.abs(vals)) <= 1.0

    def test_partials_in_unit_interval(self):
        f = sigmoid_family(3.0)
        rng = np.random.default_rng(0)
        y, z = rng.uniform(-10, 10, (2, 500))
        dy = f.d_dy(y, z)
        assert np.all(dy > 0.0)
        assert np.all(dy <= 1.0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            sigmoid_family(0.0)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 4.0])
    def test_partials_match_finite_differences(self, k):
        f = sigmoid_family(k)
        rng = np.random.default_rng(42)
        pts = rng.uniform(-10, 10, (200, 2))
        step = 1e-5
        fd = (f.value(pts[:, 0] + step, pts[:, 1])
              - f.value(pts[:, 0] - step, pts[:, 1])) / (2 * step)
        assert np.max(np.abs(fd - f.d_dy(pts[:, 0], pts[:, 1]))) < 1e-6

    def test_secant_is_value_over_sum(self):
        f = sigmoid_family(3.0)
        assert f.secant_dy is f.secant_dz
        assert f.secant_dy(0.0, 0.0) == 1.0
        y, z = np.random.default_rng(1).uniform(-10, 10, (2, 500))
        u = y + z
        assert np.max(np.abs(f.secant_dy(y, z) - f.value(y, z) / u)) <= 1e-15


class TestArctanFamily:
    def test_origin_and_slope(self):
        g = arctan_family(2.5)
        assert g.value(0.0, 0.0) == 0.0
        assert g.d_dy(0.0, 0.0) == pytest.approx(2.5, rel=1e-15)

    def test_quarter_pi(self):
        g = arctan_family(1.0)
        assert g.value(1.0, 0.0) == pytest.approx(np.pi / 4, rel=1e-14)

    def test_derivative_strictly_positive(self):
        g = arctan_family(1.0)
        u = np.linspace(-100, 100, 2001)
        assert np.all(g.d_dy(u, np.zeros_like(u)) > 0.0)

    def test_lipschitz_is_k(self):
        assert arctan_family(3.0).lipschitz == pytest.approx(3.0)

    def test_secant_is_k_at_zero_sum_without_warning(self):
        g = arctan_family(2.5)
        assert g.secant_dy is g.secant_dz
        y = np.array([0.0, 1.0, -3.0, 2.0])
        z = np.array([0.0, -1.0, 3.0, 1.0])
        with np.errstate(all="raise"):
            s = g.secant_dy(y, z)
            at_origin = g.secant_dy(0.0, 0.0)
        assert at_origin == 2.5
        assert np.array_equal(s[:3], np.full(3, 2.5))
        assert s[3] == np.arctan(7.5) / 3.0


class TestLinearForms:
    def test_projection(self):
        g = linear_form(1.0, 0.0)
        assert g.value(2.0, 3.0) == 2.0

    def test_sum(self):
        f = linear_form(1.0, 1.0)
        assert f.value(1.0, 1.0) == 2.0

    def test_constant_partials(self):
        g = linear_form(4.0, -1.5)
        y = np.linspace(-5, 5, 11)
        assert np.all(g.d_dy(y, y) == 4.0)
        assert np.all(g.d_dz(y, y) == -1.5)

    def test_secants_are_the_constants(self):
        g = linear_form(4.0, -1.5)
        y = np.linspace(-5, 5, 11)
        assert np.all(g.secant_dy(y, -y) == 4.0)
        assert np.all(g.secant_dz(y, -y) == -1.5)

    def test_linear_pair_floor(self):
        pair = make_pair(linear_form(1.0, 0.5), linear_form(-2.0, 0.25))
        assert pair.a21_floor == pytest.approx(2.0)
        assert pair.a21_sign == -1.0

    def test_linear_pair_zero_coupling_flagged(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pair = make_pair(linear_form(1.0, 0.5), linear_form(0.0, 0.25))
        assert pair.a21_floor == 0.0
        assert any("coupling" in str(w.message).lower() for w in caught)
        report = check_hypotheses(pair, n_samples=1000)
        assert not report.h3_ok
        assert ("H3: dg/dy(0,0) = 0, so the y-coupling has no positive floor"
                in report.violations)


class TestCheckHypotheses:
    def test_default_pair_passes(self):
        pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
        report = check_hypotheses(pair, box_halfwidth=10.0, n_samples=10_000)
        assert report.ok
        assert report.h1_ok and report.h2_ok and report.h3_ok
        assert report.max_partial_f <= 1.0 + 1e-8
        assert report.min_signed_coupling > 0.0
        assert report.violations == ()

    def test_derivative_cross_check_recorded(self):
        pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
        report = check_hypotheses(pair, n_samples=2000)
        assert report.derivatives_ok
        assert report.max_fd_error_f < 1e-6
        assert report.max_fd_error_g < 1e-6

    def test_deterministic_per_seed(self):
        pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
        a = check_hypotheses(pair, n_samples=1500, seed=11)
        b = check_hypotheses(pair, n_samples=1500, seed=11)
        assert a.to_dict() == b.to_dict()

    def test_rejects_tiny_sample(self):
        pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
        with pytest.raises(ValueError):
            check_hypotheses(pair, n_samples=100)

    @pytest.mark.parametrize("halfwidth", [0.0, np.inf, np.nan])
    def test_rejects_bad_box(self, halfwidth):
        # an infinite box cannot be sampled uniformly
        pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
        with pytest.raises(ValueError, match="box_halfwidth"):
            check_hypotheses(pair, box_halfwidth=halfwidth)

    def test_h2_violation_detected(self):
        # shifted reaction: nonzero at the origin
        bad = make_pair(linear_form(1.0, 0.0), arctan_family(1.0))
        object.__setattr__(bad.f, "value", lambda y, z: np.asarray(y) + 0.5)
        report = check_hypotheses(bad, n_samples=1000)
        assert not report.h2_ok
        assert any("H2" in v for v in report.violations)

    def test_h1_violation_detected(self):
        # declared Lipschitz constant smaller than the true slope
        f = linear_form(2.0, 0.0)
        object.__setattr__(f, "lipschitz", 1.0)
        bad = make_pair(f, arctan_family(1.0))
        report = check_hypotheses(bad, n_samples=1000)
        assert not report.h1_ok
        assert any("H1" in v for v in report.violations)

    @pytest.mark.parametrize("pair", [
        make_pair(sigmoid_family(2.0), arctan_family(1.0)),
        make_pair(sigmoid_family(0.5), arctan_family(5.0)),
        make_pair(sigmoid_family(3.0), linear_form(1.3, 0.2)),
        make_pair(linear_form(0.7, -0.4), linear_form(1.3, 0.2)),
    ], ids=["readme", "sigmoid0.5-arctan5", "sigmoid3-linear", "linear"])
    def test_builtin_secants_reproduce_the_values(self, pair):
        report = check_hypotheses(pair, n_samples=2000)
        assert report.secants_ok and report.ok
        assert report.max_secant_error <= 1e-12

    def test_scaled_secant_detected(self):
        pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
        secant = pair.g.secant_dy

        def scaled(y, z):
            return 1.01 * secant(y, z)

        object.__setattr__(pair.g, "secant_dz", scaled)
        report = check_hypotheses(pair, n_samples=1000)
        assert not report.secants_ok and not report.ok
        assert report.max_secant_error > report.secant_tol
        assert any(v.startswith("secant:") for v in report.violations)

    def test_report_dict_round_trip(self):
        pair = make_pair(sigmoid_family(2.0), arctan_family(1.0))
        d = check_hypotheses(pair, n_samples=1000).to_dict()
        assert isinstance(d["violations"], list)
        assert d["ok"] is True
        assert d["n_samples"] == 1000
