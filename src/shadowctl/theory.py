"""Observability weights, constants, and their sampled inequality checks.

The weight profile eta0(x) = x^2 (1-x)^2 q(x) (q a fixed positive polynomial)
is positive inside (0, 1), vanishes at the endpoints, and has its only
critical point inside a designated interior subinterval, so |eta0'| stays
positive on sampled points outside that subinterval.  From it the space-time
weights

    alpha(t, x) = (e^{2 lam max eta0} - e^{lam eta0(x)}) / (t (T - t)),
    xi_w(t, x)  = e^{lam eta0(x)} / (t (T - t)),

their envelopes, and the scalar constants of the observability and energy
estimates are assembled; the inequality checks sample the exact lattices the
extrema were computed on, so the envelope sandwich is tight to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Eta0", "CarlemanWeights", "ObservabilityConstants", "WeightCheckReport",
    "eta0_1d", "build_weights", "observability_constant",
    "weight_inequality_checks",
]

_EPS40 = 0.5  # slack used in the envelope-comparison inequality

# The dense x lattice, endpoints included, on which the profile is verified
# and the weights' extrema are taken.
_X_LATTICE = np.linspace(0.0, 1.0, 4001)
_X_LATTICE.flags.writeable = False


@dataclass(frozen=True)
class Eta0:
    """Polynomial weight profile x^2 (1-x)^2 q(x) with verified structure."""

    q_coeffs: tuple[float, ...]
    interior: tuple[float, float]

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        q = np.polynomial.polynomial.polyval(x, self.q_coeffs)
        return x**2 * (1.0 - x) ** 2 * q

    def derivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        q = np.polynomial.polynomial.polyval(x, self.q_coeffs)
        dq = np.polynomial.polynomial.polyval(
            x, np.polynomial.polynomial.polyder(self.q_coeffs))
        return 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x) * q + x**2 * (1.0 - x) ** 2 * dq


def eta0_1d(interior: tuple[float, float] = (0.4, 0.6),
            q_coeffs: tuple[float, ...] = (1.0,)) -> Eta0:
    """Construct and verify the weight profile.

    Verifies on the dense x lattice: positivity of q and of eta0 inside
    (0, 1), vanishing at the endpoints, and |eta0'| > 0 at every sampled
    point outside ``interior`` (endpoints excluded, where the double zeros of
    the prefactor force eta0' = 0).
    """
    a, b = interior
    if not (0.0 < a < b < 1.0):
        raise ValueError(f"interior must satisfy 0 < a < b < 1, got {interior}")
    eta = Eta0(q_coeffs=tuple(float(c) for c in q_coeffs), interior=(float(a), float(b)))
    xs = _X_LATTICE[1:-1]
    q = np.polynomial.polynomial.polyval(xs, eta.q_coeffs)
    if np.min(q) <= 0.0:
        raise ValueError("q must be strictly positive on (0, 1)")
    vals = eta.value(xs)
    if np.min(vals) <= 0.0:
        raise ValueError("eta0 must be strictly positive inside (0, 1)")
    if abs(float(eta.value(0.0))) > 1e-15 or abs(float(eta.value(1.0))) > 1e-15:
        raise ValueError("eta0 must vanish at the endpoints")
    outside = (xs <= a) | (xs >= b)
    if np.min(np.abs(eta.derivative(xs[outside]))) <= 0.0:
        raise ValueError(
            "eta0' vanishes at a sampled point outside the designated interior; "
            "choose q so the critical point moves inside it")
    return eta


@dataclass(frozen=True)
class CarlemanWeights:
    """Assembled weights with their extrema and the scaled parameter s.

    Extrema are taken over ``x_lattice`` (dense, endpoints included), so the
    envelope bounds hold exactly on that lattice.
    """

    eta: Eta0
    lam: float
    s: float
    horizon: float
    eta_max: float
    x_lattice: np.ndarray

    @cached_property
    def m0(self) -> float:
        """min over x of e^{lam eta0} (attained at the boundary zeros)."""
        return 1.0

    @cached_property
    def big_m0(self) -> float:
        """max over x of e^{lam eta0}."""
        return float(np.exp(self.lam * self.eta_max))

    @cached_property
    def m0_tilde(self) -> float:
        """min over x of e^{2 lam max eta0} - e^{lam eta0}."""
        return float(np.exp(2.0 * self.lam * self.eta_max) - self.big_m0)

    @cached_property
    def big_m0_tilde(self) -> float:
        """max over x of e^{2 lam max eta0} - e^{lam eta0}."""
        return float(np.exp(2.0 * self.lam * self.eta_max) - self.m0)

    def _time_factor(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0) or np.any(t >= self.horizon):
            raise ValueError("weights are defined only for 0 < t < horizon")
        return 1.0 / (t * (self.horizon - t))

    def alpha(self, t, x) -> np.ndarray:
        theta = self._time_factor(t)
        num = np.exp(2.0 * self.lam * self.eta_max) - np.exp(self.lam * self.eta.value(x))
        return num * theta

    def xi_w(self, t, x) -> np.ndarray:
        return np.exp(self.lam * self.eta.value(x)) * self._time_factor(t)

    def alpha_hat(self, t) -> np.ndarray:
        """Upper envelope max_x alpha(t, .)."""
        return self.big_m0_tilde * self._time_factor(t)

    def alpha_star(self, t) -> np.ndarray:
        """Lower envelope min_x alpha(t, .)."""
        return self.m0_tilde * self._time_factor(t)

    def xi_star(self, t) -> np.ndarray:
        """Upper envelope max_x xi_w(t, .)."""
        return self.big_m0 * self._time_factor(t)

    def xi_hat(self, t) -> np.ndarray:
        """Lower envelope min_x xi_w(t, .)."""
        return self.m0 * self._time_factor(t)


def _auto_lambda(eta_max: float) -> float:
    # smallest power of two making the envelope comparison hold with slack 1/2
    for j in range(0, 31):
        lam = float(2**j)
        u = np.exp(lam * eta_max)
        if u * u - 1.0 <= (1.0 + _EPS40) * (u * u - u):
            return lam
    raise ValueError("no power-of-two lambda up to 2^30 satisfies the envelope comparison")


def build_weights(horizon: float,
                  sup_norms: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
                  lam: float | None = None) -> CarlemanWeights:
    """Assemble weights of the default profile :func:`eta0_1d` for a horizon
    and coefficient sup-norms.

    ``lam=None`` picks the smallest power of two for which the sampled
    envelope comparison with slack 1/2 holds; the scaled parameter is
    s = T + T^2 + T^2 max_norm^(2/3).
    """
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if any(v < 0.0 for v in sup_norms):
        raise ValueError("sup_norms must be nonnegative")
    eta = eta0_1d()
    eta_max = float(np.max(eta.value(_X_LATTICE)))
    if lam is None:
        lam = _auto_lambda(eta_max)
    if not lam > 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    T = float(horizon)
    s = T + T**2 + T**2 * max(sup_norms) ** (2.0 / 3.0)
    return CarlemanWeights(eta=eta, lam=float(lam), s=float(s), horizon=T,
                           eta_max=eta_max, x_lattice=_X_LATTICE)


@dataclass(frozen=True)
class ObservabilityConstants:
    """Scalar constants entering the dual observability and energy bounds."""

    horizon: float
    sup_norms: tuple[float, float, float, float]
    K: float
    K_energy: float


def observability_constant(horizon: float,
                           sup_norms: tuple[float, float, float, float]
                           = (0.0, 0.0, 0.0, 0.0)) -> ObservabilityConstants:
    """K = 1 + 1/T + T sum ||a_ij|| + max ||a_ij||^(2/3), and the energy
    analogue K_energy = (sum ||a_ij||^2 + 1)(T + 1)."""
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    norms = tuple(float(v) for v in sup_norms)
    if len(norms) != 4 or any(v < 0.0 for v in norms):
        raise ValueError("sup_norms must be four nonnegative values")
    T = float(horizon)
    K = 1.0 + 1.0 / T + T * sum(norms) + max(norms) ** (2.0 / 3.0)
    K_energy = (sum(v * v for v in norms) + 1.0) * (T + 1.0)
    return ObservabilityConstants(horizon=T, sup_norms=norms, K=float(K),
                                  K_energy=float(K_energy))


@dataclass(frozen=True)
class WeightCheckReport:
    """Sampled verdicts for the weight inequalities.

    Every ``*_violation`` is a signed relative defect with positive values
    meaning the inequality failed somewhere on the lattice; the magnitude of
    a negative value is the worst-case margin by which it held.
    """

    lam: float
    s: float
    envelope_ok: bool
    envelope_violation: float
    lambda_threshold: float
    eighth_power_ok: bool
    eighth_power_violation: float
    lower_bound_ok: bool
    lower_bound_violation: float
    preconditions_ok: bool
    sandwich_ok: bool
    sandwich_violation: float

    @property
    def all_ok(self) -> bool:
        return (self.envelope_ok and self.eighth_power_ok
                and self.lower_bound_ok and self.sandwich_ok)


def weight_inequality_checks(w: CarlemanWeights) -> WeightCheckReport:
    """Sample the weight inequalities on an interior space-time lattice: 201
    times spanning [T/100, 99T/100] by the x lattice of ``w``.

    Checks, with relative slack 1e-12:

    * envelope comparison  alpha_hat <= (1 + 1/2) alpha_star  (equivalent to
      a lower threshold on lambda, reported as ``lambda_threshold``);
    * the eighth-power bound
      (s xi_star)^8 e^{-4 s alpha_star + 2 s alpha_hat} <= (8 M0 / (m0~ e))^8;
    * the interior lower bound, on the middle half of the time interval,
      (s xi_w)^3 e^{-2 s alpha} >= (1/27) e^{-(32/3) M0~ s / T^2};
    * the envelope sandwich alpha_star <= alpha <= alpha_hat and
      xi_hat <= xi_w <= xi_star on the extrema lattice.
    """
    T = w.horizon
    ts = np.linspace(0.01 * T, 0.99 * T, 201)
    xs = w.x_lattice
    s = w.s
    tol = 1e-12

    # envelope comparison (time factor cancels; keep the sampled form anyway)
    lhs40 = w.alpha_hat(ts)
    rhs40 = (1.0 + _EPS40) * w.alpha_star(ts)
    v40 = float(np.max((lhs40 - rhs40) / np.abs(lhs40)))
    ok40 = v40 <= tol
    lambda_threshold = float(np.log(2.0) / w.eta_max)

    # eighth-power bound along the time lattice
    lhs41 = (s * w.xi_star(ts)) ** 8 * np.exp(
        -4.0 * s * w.alpha_star(ts) + 2.0 * s * w.alpha_hat(ts))
    rhs41 = (8.0 * w.big_m0 / (w.m0_tilde * np.e)) ** 8
    v41 = float(np.max((lhs41 - rhs41) / rhs41))
    ok41 = v41 <= tol

    # interior lower bound on the middle half of (0, T)
    mask = (ts > T / 4.0) & (ts < 3.0 * T / 4.0)
    tmid = ts[mask]
    lhs43 = (s * w.xi_w(tmid[:, None], xs[None, :])) ** 3 * np.exp(
        -2.0 * s * w.alpha(tmid[:, None], xs[None, :]))
    rhs43 = np.exp(-(32.0 / 3.0) * w.big_m0_tilde * s / T**2) / 27.0
    # signed defect, positive = violated, like the other three checks
    v43 = float(np.max(rhs43 - lhs43) / rhs43)
    ok43 = v43 <= tol
    pre_ok = (s >= T**2 / (16.0 * w.m0) - 1e-15
              and s >= 3.0 * T**2 / (8.0 * w.big_m0_tilde) - 1e-15)

    # envelope sandwich on the exact extrema lattice
    alpha = w.alpha(tmid[:, None], xs[None, :])
    xiw = w.xi_w(tmid[:, None], xs[None, :])
    sand = max(
        float(np.max(alpha - w.alpha_hat(tmid)[:, None])),
        float(np.max(w.alpha_star(tmid)[:, None] - alpha)),
        float(np.max(xiw - w.xi_star(tmid)[:, None])),
        float(np.max(w.xi_hat(tmid)[:, None] - xiw)),
    ) / float(np.max(alpha))
    sandwich_ok = sand <= tol

    return WeightCheckReport(
        lam=w.lam, s=s,
        envelope_ok=ok40, envelope_violation=v40,
        lambda_threshold=lambda_threshold,
        eighth_power_ok=ok41, eighth_power_violation=v41,
        lower_bound_ok=(ok43 and pre_ok), lower_bound_violation=v43,
        preconditions_ok=pre_ok,
        sandwich_ok=sandwich_ok, sandwich_violation=float(sand),
    )
