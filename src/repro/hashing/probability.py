"""Collision probabilities and quality exponents for Euclidean LSH.

This module is the analytical heart of the reproduction.  It implements:

* Eq. 4 — the collision probability of the *dynamic* family
  ``h(o) = a . o`` (collision iff ``|h(o1) - h(o2)| <= w/2``):
  ``p(tau; w) = P(|N(0, tau^2)| <= w/2) = erf(w / (2 sqrt(2) tau))``.

* Eq. 2 — the collision probability of the *static* p-stable family
  ``h(o) = floor((a . o + b)/w)``, with the well-known closed form from
  Datar et al. (2004):
  ``p(tau; w) = 2 Phi(w/tau) - 1 - 2 tau / (sqrt(2 pi) w) (1 - exp(-w^2 / (2 tau^2)))``.

* the exponents ``rho = ln(1/p1) / ln(1/p2)`` for both families and the
  paper's bound ``rho* <= 1 / c^alpha`` (Lemma 3) with
  ``alpha = xi(gamma) = gamma f(gamma) / int_gamma^inf f(x) dx``
  for bucket width ``w0 = 2 gamma c^2``.

All functions are vectorised over numpy arrays and cross-checked against
direct numeric integration in the test suite.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.utils.validation import check_positive

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
#: ``math.erf`` over arrays.  Parameter derivation needs only Eq. 4, and
#: importing ``scipy.special`` for it would cost every ``import repro``
#: about a second; the static and numeric functions import scipy
#: themselves.
_ERF = np.frompyfunc(math.erf, 1, 1)


def _normal_pdf(x: np.ndarray) -> np.ndarray:
    """Standard normal pdf ``f(x)`` from the paper's Table II."""
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def collision_probability_dynamic(tau, w) -> np.ndarray:
    """Eq. 4: collision probability of the dynamic family at distance ``tau``.

    ``p(tau; w) = int_{-w/(2 tau)}^{w/(2 tau)} f(t) dt = erf(w / (2 sqrt(2) tau))``.

    Accepts scalars or arrays (broadcast).  ``tau = 0`` yields probability 1.
    """
    tau = np.asarray(tau, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if np.any(tau < 0):
        raise ValueError("tau must be non-negative")
    if np.any(w <= 0):
        raise ValueError("w must be positive")
    with np.errstate(divide="ignore"):
        ratio = np.where(tau > 0, w / (2.0 * _SQRT2 * np.where(tau > 0, tau, 1.0)), np.inf)
    return np.asarray(_ERF(ratio), dtype=np.float64)[()]


def collision_probability_static(tau, w) -> np.ndarray:
    """Eq. 2: collision probability of the static p-stable family.

    Closed form of ``2 int_0^w (1/tau) f(t/tau) (1 - t/w) dt`` for the
    2-stable (Gaussian) case, from Datar et al. (2004).
    """
    from scipy import stats

    tau = np.asarray(tau, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if np.any(tau < 0):
        raise ValueError("tau must be non-negative")
    if np.any(w <= 0):
        raise ValueError("w must be positive")
    safe_tau = np.where(tau > 0, tau, 1.0)
    ratio = np.where(tau > 0, w / safe_tau, np.inf)
    term1 = 2.0 * stats.norm.cdf(ratio) - 1.0
    with np.errstate(over="ignore", under="ignore"):
        term2 = 2.0 / (_SQRT_2PI * ratio) * (1.0 - np.exp(-0.5 * np.square(ratio)))
    return np.where(tau > 0, term1 - term2, 1.0)


def collision_probability_static_numeric(tau: float, w: float) -> float:
    """Eq. 2 evaluated by direct numeric quadrature (for cross-validation)."""
    from scipy import integrate

    tau = check_positive("tau", tau)
    w = check_positive("w", w)

    def integrand(t: float) -> float:
        return (1.0 / tau) * float(_normal_pdf(np.asarray(t / tau))) * (1.0 - t / w)

    value, _ = integrate.quad(integrand, 0.0, w)
    return 2.0 * value


def collision_probability_dynamic_numeric(tau: float, w: float) -> float:
    """Eq. 4 evaluated by direct numeric quadrature (for cross-validation)."""
    from scipy import integrate

    tau = check_positive("tau", tau)
    w = check_positive("w", w)
    half = w / (2.0 * tau)
    value, _ = integrate.quad(lambda t: float(_normal_pdf(np.asarray(t))), -half, half)
    return value


def rho_dynamic(c: float, w0: float, r: float = 1.0) -> float:
    """``rho* = ln(1/p1) / ln(1/p2)`` for the dynamic family.

    By Observation 1 the family is ``(r, cr, p(1; w0), p(c; w0))``-sensitive
    when the bucket width scales with the radius, so ``rho*`` only depends
    on ``c`` and the *base* width ``w0`` (``r`` kept for API symmetry).
    """
    c = check_positive("c", c)
    if c <= 1.0:
        raise ValueError(f"approximation ratio c must be > 1, got {c}")
    w0 = check_positive("w0", w0)
    r = check_positive("r", r)
    p1 = float(collision_probability_dynamic(1.0, w0))
    p2 = float(collision_probability_dynamic(c, w0))
    return math.log(1.0 / p1) / math.log(1.0 / p2)


def rho_static(c: float, w: float, r: float = 1.0) -> float:
    """``rho = ln(1/p1) / ln(1/p2)`` for the static p-stable family."""
    c = check_positive("c", c)
    if c <= 1.0:
        raise ValueError(f"approximation ratio c must be > 1, got {c}")
    w = check_positive("w", w)
    r = check_positive("r", r)
    p1 = float(collision_probability_static(r, w))
    p2 = float(collision_probability_static(c * r, w))
    return math.log(1.0 / p1) / math.log(1.0 / p2)


def alpha_for_gamma(gamma: float) -> float:
    """Lemma 3's exponent ``alpha = xi(gamma) = gamma f(gamma) / int_gamma^inf f``.

    With ``w0 = 2 gamma c^2`` the paper proves ``rho* <= 1 / c^alpha``.
    ``xi`` is the Gaussian hazard (inverse Mills) ratio scaled by ``gamma``;
    e.g. ``alpha_for_gamma(2.0) ~= 4.746`` as quoted in the abstract.
    """
    from scipy import stats

    gamma = check_positive("gamma", gamma)
    tail = stats.norm.sf(gamma)  # int_gamma^inf f(x) dx
    return float(gamma * _normal_pdf(np.asarray(gamma)) / tail)


def gamma_for_w0(w0: float, c: float) -> float:
    """Invert ``w0 = 2 gamma c^2`` to recover ``gamma``."""
    w0 = check_positive("w0", w0)
    c = check_positive("c", c)
    return w0 / (2.0 * c * c)


def rho_star_bound(c: float, w0: float) -> float:
    """The paper's closed-form bound ``1 / c^alpha`` with ``alpha = xi(w0 / 2c^2)``."""
    if c <= 1.0:
        raise ValueError(f"approximation ratio c must be > 1, got {c}")
    alpha = alpha_for_gamma(gamma_for_w0(w0, c))
    return c ** (-alpha)


def rho_ratio_bound(c: float, w0: float) -> float:
    """The intermediate bound ``(1-p1)/(1-p2)`` from Eq. 9 (Lemma 1 of [8]).

    ``rho* <= (1 - p1) / (1 - p2)`` where ``p1 = p(1; w0)``, ``p2 = p(c; w0)``;
    with ``w0 = 2 gamma c^2`` this equals the ratio of Gaussian tails at
    ``gamma c^2`` and ``gamma c``.
    """
    if c <= 1.0:
        raise ValueError(f"approximation ratio c must be > 1, got {c}")
    w0 = check_positive("w0", w0)
    p1 = float(collision_probability_dynamic(1.0, w0))
    p2 = float(collision_probability_dynamic(c, w0))
    return (1.0 - p1) / (1.0 - p2)


def optimal_rho_curves(
    c_values: np.ndarray, w_factor: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate the three series of the paper's Fig. 4.

    For each approximation ratio ``c`` with bucket width ``w = w_factor * c^2``:

    * ``rho*`` of DB-LSH's dynamic family (Eq. 4 based),
    * ``rho`` of the static p-stable family at the same width (Eq. 2 based),
    * the classical bound ``1/c``.

    Returns ``(rho_star, rho, one_over_c)`` arrays aligned with ``c_values``.
    """
    c_values = np.asarray(c_values, dtype=np.float64)
    if np.any(c_values <= 1.0):
        raise ValueError("all approximation ratios must be > 1")
    check_positive("w_factor", w_factor)
    rho_star = np.array([rho_dynamic(c, w_factor * c * c) for c in c_values])
    rho = np.array([rho_static(c, w_factor * c * c) for c in c_values])
    return rho_star, rho, 1.0 / c_values


def xi(v: float) -> float:
    """The monotone function ``xi(v) = v f(v) / int_v^inf f(x) dx`` from Lemma 3."""
    from scipy import stats

    v = check_positive("v", v)
    return float(v * _normal_pdf(np.asarray(v)) / stats.norm.sf(v))
