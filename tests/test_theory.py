"""Weight construction and scalar-constant tests.

The constants have closed forms, so the oracles here are hand evaluations;
the weight inequalities are checked both for the certified default build and
for a deliberately broken parameter choice.
"""

import numpy as np
import pytest

from shadowctl.theory import (build_weights, eta0_1d, observability_constant,
                              weight_inequality_checks)


class TestEta0:
    def test_vanishes_at_endpoints(self):
        eta = eta0_1d()
        assert eta.value(0.0) == 0.0
        assert eta.value(1.0) == 0.0

    def test_default_peak(self):
        # x^2 (1-x)^2 peaks at 1/2 with value 1/16
        eta = eta0_1d()
        assert eta.value(0.5) == pytest.approx(1.0 / 16.0, rel=1e-15)
        assert eta.derivative(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_positive_inside(self):
        eta = eta0_1d()
        xs = np.linspace(1e-3, 1.0 - 1e-3, 999)
        assert np.min(eta.value(xs)) > 0.0

    def test_derivative_nonzero_outside_interior(self):
        eta = eta0_1d(interior=(0.4, 0.6))
        xs = np.concatenate([np.linspace(0.01, 0.39, 50),
                             np.linspace(0.61, 0.99, 50)])
        assert np.min(np.abs(eta.derivative(xs))) > 0.0

    def test_rejects_interior_missing_the_critical_point(self):
        with pytest.raises(ValueError, match="critical point"):
            eta0_1d(interior=(0.7, 0.8))

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValueError, match="positive"):
            eta0_1d(q_coeffs=(-1.0,))

    def test_rejects_bad_interior(self):
        with pytest.raises(ValueError, match="interior"):
            eta0_1d(interior=(0.6, 0.4))

    def test_tilted_profile_accepted(self):
        # q(x) = 1 + x/2 moves the peak but keeps it near the middle
        eta = eta0_1d(interior=(0.4, 0.7), q_coeffs=(1.0, 0.5))
        xs = np.linspace(0.001, 0.999, 500)
        assert np.min(eta.value(xs)) > 0.0


class TestBuildWeights:
    def test_default_parameters_at_unit_horizon(self):
        w = build_weights(1.0)
        assert w.lam == 16.0            # smallest power of two over the threshold
        assert w.s == pytest.approx(2.0)  # s0 (T + T^2) with s0 = 1, T = 1
        assert w.eta_max == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert w.m0 == 1.0
        assert w.big_m0 == pytest.approx(np.exp(1.0), rel=1e-12)
        assert w.m0_tilde == pytest.approx(np.exp(2.0) - np.exp(1.0), rel=1e-12)
        assert w.big_m0_tilde == pytest.approx(np.exp(2.0) - 1.0, rel=1e-12)
        assert len(build_weights(0.5).x_lattice) == 4001

    def test_scaled_parameter_with_coefficients(self):
        # s = T + T^2 + T^2 max^(2/3) = 2 + 4 + 4 at T = 2, unit norms
        w = build_weights(2.0, sup_norms=(1.0, 1.0, 1.0, 1.0))
        assert w.s == pytest.approx(10.0)

    def test_explicit_lambda_is_kept(self):
        w = build_weights(1.0, lam=32.0)
        assert w.lam == 32.0

    def test_weights_blow_up_at_the_time_endpoints(self):
        w = build_weights(1.0)
        small = float(w.xi_w(0.5, 0.0))
        assert float(w.xi_w(1e-6, 0.0)) > 1e4 * small
        with pytest.raises(ValueError, match="0 < t < horizon"):
            w.alpha(0.0, 0.5)
        with pytest.raises(ValueError, match="0 < t < horizon"):
            w.xi_w(1.0, 0.5)

    def test_envelopes_bound_pointwise_values(self):
        w = build_weights(1.0)
        ts = np.linspace(0.1, 0.9, 17)
        xs = w.x_lattice
        alpha = w.alpha(ts[:, None], xs[None, :])
        xiw = w.xi_w(ts[:, None], xs[None, :])
        assert np.all(alpha <= w.alpha_hat(ts)[:, None] * (1 + 1e-12))
        assert np.all(alpha >= w.alpha_star(ts)[:, None] * (1 - 1e-12))
        assert np.all(xiw <= w.xi_star(ts)[:, None] * (1 + 1e-12))
        assert np.all(xiw >= w.xi_hat(ts)[:, None] * (1 - 1e-12))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="horizon"):
            build_weights(0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            build_weights(1.0, sup_norms=(-1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="lam"):
            build_weights(1.0, lam=-4.0)


class TestObservabilityConstants:
    def test_zero_coefficients_unit_horizon(self):
        c = observability_constant(1.0, (0.0, 0.0, 0.0, 0.0))
        assert c.K == 2.0
        assert c.K_energy == 2.0

    def test_unit_coefficients(self):
        c = observability_constant(2.0, (1.0, 1.0, 1.0, 1.0))
        assert c.K == pytest.approx(10.5)
        assert c.K_energy == pytest.approx(15.0)

    def test_increasing_in_coefficient_norms(self):
        base = observability_constant(1.0, (0.5, 0.5, 0.5, 0.5))
        for i in range(4):
            norms = [0.5] * 4
            norms[i] = 0.6
            bumped = observability_constant(1.0, tuple(norms))
            assert bumped.K > base.K
            assert bumped.K_energy > base.K_energy

    def test_blows_up_for_short_and_long_horizons(self):
        mid = observability_constant(1.0, (1.0, 0.0, 0.0, 0.0))
        assert observability_constant(0.01, (1.0, 0.0, 0.0, 0.0)).K > mid.K
        assert observability_constant(100.0, (1.0, 0.0, 0.0, 0.0)).K > mid.K

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="horizon"):
            observability_constant(-1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            observability_constant(1.0, (0.0, -0.1, 0.0, 0.0))
        with pytest.raises(ValueError):
            observability_constant(1.0, (0.0, 0.0, 0.0))


class TestWeightInequalities:
    def test_default_build_passes_all_checks(self):
        rep = weight_inequality_checks(build_weights(1.0))
        assert rep.all_ok
        assert rep.envelope_ok and rep.eighth_power_ok
        assert rep.lower_bound_ok and rep.sandwich_ok
        assert rep.preconditions_ok
        # every signed defect negative: held with margin everywhere
        assert rep.envelope_violation < 0.0
        assert rep.eighth_power_violation < 0.0
        assert rep.lower_bound_violation < 0.0

    def test_lambda_threshold_value(self):
        rep = weight_inequality_checks(build_weights(1.0))
        assert rep.lambda_threshold == pytest.approx(np.log(2.0) * 16.0, rel=1e-6)
        assert rep.lam >= rep.lambda_threshold

    def test_small_lambda_is_flagged(self):
        rep = weight_inequality_checks(build_weights(1.0, lam=0.01))
        assert not rep.all_ok
        assert not rep.envelope_ok
        assert rep.envelope_violation > 0.0

    def test_longer_horizon_still_passes(self):
        rep = weight_inequality_checks(build_weights(2.0,
                                                     sup_norms=(1.0, 1.0, 1.0, 1.0)))
        assert rep.all_ok
