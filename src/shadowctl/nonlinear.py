"""Reaction nonlinearities f, g and structural hypothesis checks.

Both components of the reaction term are scalar functions of (y, z) with
globally bounded partial derivatives.  The control scheme additionally needs
f(0,0) = g(0,0) = 0 and a sign-definite y-coupling in g: dg/dy(0,0) bounded
away from zero, with no sign change of dg/dy along the rays delta*(y,z) for
delta in [0, 1].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

Scalar2 = Callable[[np.ndarray, np.ndarray], np.ndarray]

# Absolute tolerance of the finite-difference cross-check of the partials.
_DERIV_TOL = 1e-6


@dataclass(frozen=True)
class Nonlinearity:
    """One reaction component: value, exact partials, and a derivative bound.

    ``lipschitz`` bounds each partial derivative separately:
    sup |d value/dy| <= lipschitz and sup |d value/dz| <= lipschitz.
    """

    value: Scalar2
    d_dy: Scalar2
    d_dz: Scalar2
    lipschitz: float


@dataclass(frozen=True)
class NonlinearityPair:
    """The coupled reaction (f, g).  Its coupling constants are read off
    dg/dy(0, 0): the floor is its magnitude, the sign its sign (+1 at 0)."""

    f: Nonlinearity
    g: Nonlinearity

    def _coupling_at_origin(self) -> float:
        return float(np.asarray(self.g.d_dy(np.float64(0.0), np.float64(0.0))))

    @property
    def a21_floor(self) -> float:
        return abs(self._coupling_at_origin())

    @property
    def a21_sign(self) -> float:
        return -1.0 if self._coupling_at_origin() < 0.0 else 1.0


def sigmoid_family(k: float) -> Nonlinearity:
    """Saturating component f(y, z) = u / (1 + |u|^k)^(1/k) with u = y + z.

    Both partials equal (1 + |u|^k)^(-1/k - 1), so they lie in (0, 1] and the
    per-partial bound is exactly 1, attained only at u = 0.
    """
    if not k > 0:
        raise ValueError(f"family exponent k must be positive, got {k}")

    def value(y, z):
        u = np.asarray(y) + np.asarray(z)
        return u / (1.0 + np.abs(u) ** k) ** (1.0 / k)

    def slope(y, z):
        u = np.asarray(y) + np.asarray(z)
        return (1.0 + np.abs(u) ** k) ** (-1.0 / k - 1.0)

    return Nonlinearity(value=value, d_dy=slope, d_dz=slope, lipschitz=1.0)


def arctan_family(k: float) -> Nonlinearity:
    """Coupling component g(y, z) = arctan(k (y + z)).

    Both partials equal k / (1 + k^2 (y+z)^2); they are strictly positive with
    maximum k at the origin, so the sign condition holds with floor k on any
    bounded set shrunk by the corresponding factor.
    """
    if not k > 0:
        raise ValueError(f"family exponent k must be positive, got {k}")

    def value(y, z):
        u = np.asarray(y) + np.asarray(z)
        return np.arctan(k * u)

    def slope(y, z):
        u = np.asarray(y) + np.asarray(z)
        return k / (1.0 + (k * u) ** 2)

    return Nonlinearity(value=value, d_dy=slope, d_dz=slope, lipschitz=k)


def linear_form(a: float, b: float) -> Nonlinearity:
    """Affine-free component a*y + b*z with constant partials."""

    def value(y, z):
        return a * np.asarray(y) + b * np.asarray(z)

    def d_dy(y, z):
        return np.full(np.broadcast(np.asarray(y), np.asarray(z)).shape, float(a))

    def d_dz(y, z):
        return np.full(np.broadcast(np.asarray(y), np.asarray(z)).shape, float(b))

    return Nonlinearity(value=value, d_dy=d_dy, d_dz=d_dz, lipschitz=abs(a) + abs(b))


def make_pair(f: Nonlinearity, g: Nonlinearity) -> NonlinearityPair:
    """Assemble a pair, warning when its coupling floor |dg/dy(0, 0)| is 0."""
    pair = NonlinearityPair(f=f, g=g)
    if pair.a21_floor == 0.0:
        warnings.warn("zero y-coupling in g violates the sign-floor condition",
                      stacklevel=2)
    return pair


@dataclass(frozen=True)
class HypothesisReport:
    """Structured outcome of the sampled structural checks."""

    ok: bool
    h1_ok: bool
    h2_ok: bool
    h3_ok: bool
    derivatives_ok: bool
    max_partial_f: float
    max_partial_g: float
    lipschitz_f: float
    lipschitz_g: float
    f_origin: float
    g_origin: float
    coupling_at_origin: float
    a21_floor: float
    a21_sign: float
    min_signed_coupling: float
    max_fd_error_f: float
    max_fd_error_g: float
    deriv_tol: float
    n_samples: int
    box_halfwidth: float
    violations: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["violations"] = list(self.violations)
        return out


def _fd_partials(fn: Scalar2, y: np.ndarray, z: np.ndarray, step: float):
    # central differences in each argument
    dy = (np.asarray(fn(y + step, z)) - np.asarray(fn(y - step, z))) / (2.0 * step)
    dz = (np.asarray(fn(y, z + step)) - np.asarray(fn(y, z - step))) / (2.0 * step)
    return dy, dz


def check_hypotheses(pair: NonlinearityPair,
                     box_halfwidth: float = 10.0,
                     n_samples: int = 2000,
                     seed: int = 0) -> HypothesisReport:
    """Sample the box [-r, r]^2 and test the structural hypotheses.

    Checks, in order: per-partial derivative bounds against the declared
    constants (H1); exact vanishing at the origin (H2); the coupling floor and
    ray-wise sign constancy of dg/dy (H3).  Every analytic partial is also
    cross-validated against central finite differences on a subsample, to
    an absolute tolerance of 1e-6.

    Parameters
    ----------
    pair : NonlinearityPair
    box_halfwidth : float
        Half-width r of the sampling box.
    n_samples : int
        Number of sampled points; at least 1000.
    seed : int
        Seed for the sampling generator; results are deterministic per seed.
    """
    if n_samples < 1000:
        raise ValueError(f"n_samples must be at least 1000, got {n_samples}")
    if not 0.0 < box_halfwidth < np.inf:
        raise ValueError(
            f"box_halfwidth must be positive and finite, got {box_halfwidth}")

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box_halfwidth, box_halfwidth, size=(n_samples, 2))
    ys, zs = pts[:, 0], pts[:, 1]
    violations: list[str] = []

    # H1: sampled per-partial maxima against the declared constants.
    max_partial_f = float(max(np.max(np.abs(pair.f.d_dy(ys, zs))),
                              np.max(np.abs(pair.f.d_dz(ys, zs)))))
    max_partial_g = float(max(np.max(np.abs(pair.g.d_dy(ys, zs))),
                              np.max(np.abs(pair.g.d_dz(ys, zs)))))
    lipschitz_f, lipschitz_g = pair.f.lipschitz, pair.g.lipschitz
    h1_ok = (max_partial_f <= lipschitz_f + 1e-8 * max(1.0, lipschitz_f)
             and max_partial_g <= lipschitz_g + 1e-8 * max(1.0, lipschitz_g))
    if not h1_ok:
        violations.append(
            f"H1: sampled partial maxima ({max_partial_f:.6g}, {max_partial_g:.6g}) "
            f"exceed declared bounds ({lipschitz_f:.6g}, {lipschitz_g:.6g})")

    # H2: both components vanish at the origin.
    zero = np.float64(0.0)
    f_origin = float(np.asarray(pair.f.value(zero, zero)))
    g_origin = float(np.asarray(pair.g.value(zero, zero)))
    h2_ok = abs(f_origin) <= 1e-14 and abs(g_origin) <= 1e-14
    if not h2_ok:
        violations.append(f"H2: f(0,0) = {f_origin:.3e}, g(0,0) = {g_origin:.3e}")

    # H3: coupling floor at the origin and sign constancy along rays.
    coupling_at_origin = pair._coupling_at_origin()
    deltas = np.linspace(0.0, 1.0, 33)
    ray_vals = pair.a21_sign * np.asarray(
        pair.g.d_dy(deltas[:, None] * ys[None, :], deltas[:, None] * zs[None, :]))
    min_signed = float(np.min(ray_vals))
    floor_ok = pair.a21_floor > 0.0
    rays_ok = min_signed >= -1e-12
    h3_ok = floor_ok and rays_ok
    if not floor_ok:
        violations.append(
            f"H3: dg/dy(0,0) = {pair.a21_floor:.6g}, so the y-coupling has no positive floor")
    if not rays_ok:
        violations.append(
            f"H3: dg/dy changes sign along sampled rays (min signed value {min_signed:.3e})")

    # Finite-difference cross-validation of all analytic partials.
    n_sub = min(n_samples, 500)
    ysub, zsub = ys[:n_sub], zs[:n_sub]
    step = 1e-5
    fd_fy, fd_fz = _fd_partials(pair.f.value, ysub, zsub, step)
    fd_gy, fd_gz = _fd_partials(pair.g.value, ysub, zsub, step)
    max_fd_error_f = float(max(np.max(np.abs(fd_fy - pair.f.d_dy(ysub, zsub))),
                               np.max(np.abs(fd_fz - pair.f.d_dz(ysub, zsub)))))
    max_fd_error_g = float(max(np.max(np.abs(fd_gy - pair.g.d_dy(ysub, zsub))),
                               np.max(np.abs(fd_gz - pair.g.d_dz(ysub, zsub)))))
    derivatives_ok = max_fd_error_f <= _DERIV_TOL and max_fd_error_g <= _DERIV_TOL
    if not derivatives_ok:
        violations.append(
            f"derivative: finite-difference mismatch ({max_fd_error_f:.3e}, "
            f"{max_fd_error_g:.3e}) above {_DERIV_TOL:.3e}")

    return HypothesisReport(
        ok=h1_ok and h2_ok and h3_ok and derivatives_ok,
        h1_ok=h1_ok, h2_ok=h2_ok, h3_ok=h3_ok, derivatives_ok=derivatives_ok,
        max_partial_f=max_partial_f, max_partial_g=max_partial_g,
        lipschitz_f=lipschitz_f, lipschitz_g=lipschitz_g,
        f_origin=f_origin, g_origin=g_origin,
        coupling_at_origin=coupling_at_origin,
        a21_floor=pair.a21_floor, a21_sign=pair.a21_sign,
        min_signed_coupling=min_signed,
        max_fd_error_f=max_fd_error_f, max_fd_error_g=max_fd_error_g,
        deriv_tol=_DERIV_TOL, n_samples=n_samples, box_halfwidth=box_halfwidth,
        violations=tuple(violations),
    )
