"""Scalar fractional-calculus primitives.

Two-parameter Mittag-Leffler evaluation on the real axis (series,
asymptotic, spectral-integral and Talbot branches) and the mode-wise
symbol of the initial-data propagator.  The solver builds its kernel
tables from these.
"""

import cmath
import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import gammaln, hyp1f1, rgamma

__all__ = [
    "MLEvaluationError",
    "check_order",
    "ml",
    "h_symbol",
]

# Taylor series is accurate and cheap up to here; beyond it cancellation
# forces the asymptotic/integral branches.
_SERIES_CUTOFF = 5.0
_SERIES_MAX_TERMS = 400
_ASYMPTOTIC_MAX_TERMS = 60
_REL_TOL = 1e-11


class MLEvaluationError(ArithmeticError):
    """Mittag-Leffler evaluation failed to converge for (alpha, beta, z)."""

    def __init__(self, alpha, beta, z, reason):
        self.alpha = alpha
        self.beta = beta
        self.z = z
        super().__init__(
            f"E_({alpha},{beta})({z}) did not converge: {reason}"
        )


def check_order(alpha):
    """Validate a Caputo order, returning it as a float in (0, 1]."""
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise ValueError(f"fractional order must lie in (0, 1], got {alpha}")
    return a


def _ml_series(alpha, beta, z):
    total = rgamma(beta)
    term_arg = beta
    zk = 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        zk *= z
        term_arg = beta + alpha * k
        term = zk * rgamma(term_arg)
        total += term
        if abs(term) <= 1e-16 * max(abs(total), 1.0) and term_arg > 1.5:
            return total
    raise MLEvaluationError(alpha, beta, z, "Taylor series did not converge")


def _ml_asymptotic(alpha, beta, z):
    """Algebraic expansion for z -> -inf; returns (value, error_estimate)."""
    ks = np.arange(1, _ASYMPTOTIC_MAX_TERMS)
    terms = -(1.0 / z) ** ks * rgamma(beta - alpha * ks)
    mags = np.abs(terms)
    # Individual terms can vanish at gamma poles without the remainder being
    # small, so the truncation point minimizes a window of neighbor terms.
    window = mags[:-2] + mags[1:-1] + mags[2:]
    cut = int(np.argmin(window)) + 1
    total = float(np.sum(terms[: cut - 1]))
    best_err = float(window[cut - 1])
    if alpha >= 2.0 / 3.0:
        # For alpha >= 2/3 the negative axis also carries an exponentially
        # small oscillatory saddle contribution from the conjugate branch
        # pair z^(1/alpha) e^(+-i pi/alpha).  Its leading term is added
        # explicitly; the next saddle correction scales like (1-alpha)*w
        # relative to the envelope and enters the error estimate.
        w = abs(z) ** (1.0 / alpha)
        phi = math.pi / alpha
        envelope = (1.0 / alpha) * w ** (1.0 - beta) * math.exp(
            w * math.cos(phi)
        )
        total += envelope * math.cos(w * math.sin(phi) + phi * (1.0 - beta))
        best_err += envelope * (min(1.0, 2.0 * (1.0 - alpha) * w) + 1e-12)
    return total, best_err


def _ml_integral(alpha, beta, z):
    """Spectral-function integral for 0 < alpha < 1, z < 0.

    After the substitution chi = u**alpha the representation reads

        E_(a,b)(z) = int_0^inf u^(a-b) e^(-u)
                     * [u^a sin(pi(1-b)) - z sin(pi(1-b+a))]
                     / (pi * (u^(2a) - 2 u^a z cos(pi a) + z^2)) du,

    whose denominator is strictly positive for z < 0.  The representation
    requires beta < 1 + alpha; larger beta is reduced first through
    E_(a,b)(z) = (E_(a,b-a)(z) - 1/Gamma(b-a)) / z.
    """
    if beta >= 1.0 + alpha - 1e-12:
        return (_ml_cached(alpha, beta - alpha, z) - rgamma(beta - alpha)) / z

    s1 = math.sin(math.pi * (1.0 - beta))
    s2 = math.sin(math.pi * (1.0 - beta + alpha))
    c = math.cos(math.pi * alpha)

    def integrand(u):
        if u == 0.0:
            return 0.0
        ua = u**alpha
        num = ua * s1 - z * s2
        den = math.pi * (ua * ua - 2.0 * ua * z * c + z * z)
        return u ** (alpha - beta) * math.exp(-u) * num / den

    # As alpha -> 1 the denominator develops a sharp minimum at
    # chi = |z| (u = |z|^(1/alpha)); bracket that peak explicitly.
    u_peak = abs(z) ** (1.0 / alpha)
    cuts = sorted({1.0, 0.5 * u_peak, u_peak, 2.0 * u_peak})
    val = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        lo = 0.0
        for hi in cuts:
            v, e = quad(integrand, lo, hi, epsabs=1e-16, epsrel=1e-13,
                        limit=400)
            val += v
            err += e
            lo = hi
        v, e = quad(integrand, lo, np.inf, epsabs=1e-16, epsrel=1e-13,
                    limit=400)
        val += v
        err += e
    if not np.isfinite(val) or err > 1e-10 * max(abs(val), 1e-14):
        return _ml_talbot(alpha, beta, z)
    return val


def _ml_talbot(alpha, beta, z, nodes=32):
    """Talbot inversion of L[t^(b-1) E_(a,b)(-x t^a)] = s^(a-b)/(s^a+x).

    Evaluated at t = 1 on the roundoff-optimized contour of Weideman,
    s(theta) = N (-0.6122 + 0.5017 theta cot(0.6407 theta) + 0.2645 i theta);
    robust where the spectral integrand degenerates (alpha close to 1 with
    moderate |z|).
    """
    x = -z

    def transform(s):
        return s ** (alpha - beta) / (s**alpha + x)

    def invert(m):
        sig, mu, nu, b = -0.6122, 0.5017, 0.2645, 0.6407
        h = 2.0 * math.pi / m
        total = 0.0
        for k in range(m):
            th = -math.pi + (k + 0.5) * h
            bt = b * th
            cot = math.cos(bt) / math.sin(bt)
            s = m * complex(sig + mu * th * cot, nu * th)
            ds = m * complex(mu * cot - mu * b * th / math.sin(bt) ** 2, nu)
            total += (cmath.exp(s) * transform(s) * (ds / 1j)).real
        return total * h / (2.0 * math.pi)

    v1 = invert(nodes)
    v2 = invert(nodes - 8)
    # Double-precision Talbot bottoms out near 1e-13 absolute error, so
    # very small function values are accepted on an absolute basis.
    if abs(v1 - v2) > max(1e-9 * abs(v1), 1e-13):
        raise MLEvaluationError(alpha, beta, z, "Talbot inversion unstable")
    return v1


def _series_safe(alpha, beta, z):
    """Is the Taylor sum both short and cancellation-safe in doubles?

    The largest term sits near k* = (|z|^(1/alpha) - beta)/alpha; its log
    magnitude bounds the precision lost to alternating-sign cancellation.
    """
    x = abs(z)
    if x > _SERIES_CUTOFF:
        return False
    if x <= 1.0:
        return True
    peak = x ** (1.0 / alpha)
    kstar = (peak - beta) / alpha
    if kstar <= 0.0:
        return True
    if kstar > 300.0:
        return False
    log_max_term = kstar * math.log(x) - gammaln(peak)
    return log_max_term <= 9.2


def _ml_alpha_one(beta, z):
    if beta == 1.0:
        return math.exp(z)
    if beta == 2.0:
        return math.expm1(z) / z
    if z >= -50.0:
        # Kummer transformation keeps the 1F1 argument positive, avoiding
        # the catastrophic cancellation of the direct series.
        return math.exp(z) * hyp1f1(beta - 1.0, beta, -z) * rgamma(beta)
    value, err = _ml_asymptotic(1.0, beta, z)
    err += math.exp(z)
    if err <= _REL_TOL * max(abs(value), 1e-300):
        return value
    raise MLEvaluationError(1.0, beta, z, "no convergent branch at alpha=1")


@lru_cache(maxsize=1 << 18)
def _ml_cached(alpha, beta, z):
    if z == 0.0:
        return rgamma(beta)
    if alpha == 1.0:
        return _ml_alpha_one(beta, z)
    if _series_safe(alpha, beta, z):
        return _ml_series(alpha, beta, z)
    if z > 0.0:
        raise MLEvaluationError(alpha, beta, z,
                                "positive arguments supported only near 0")
    value, err = _ml_asymptotic(alpha, beta, z)
    if err <= _REL_TOL * max(abs(value), 1e-300):
        return value
    if 0.0 < alpha < 1.0:
        return _ml_integral(alpha, beta, z)
    raise MLEvaluationError(alpha, beta, z, "no convergent branch")


def ml(alpha, beta, z):
    """Two-parameter Mittag-Leffler function E_(alpha,beta)(z).

    Supported contract is the closed negative real axis (z <= 0) for
    alpha in (0, 1] and beta > 0; small positive z is best effort.

    Raises
    ------
    MLEvaluationError
        If no evaluation branch reaches the requested tolerance.
    """
    alpha = float(alpha)
    beta = float(beta)
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("ml requires alpha > 0 and beta > 0")
    return _ml_cached(alpha, beta, float(z))


def h_symbol(lam, t, alpha):
    """Eigen-symbol of the initial-data propagator: E_(a,1)(-lam * t^a)."""
    alpha = check_order(alpha)
    if lam < 0.0 or t < 0.0:
        raise ValueError("h_symbol requires lam >= 0 and t >= 0")
    if t == 0.0:
        return 1.0
    return ml(alpha, 1.0, -lam * t**alpha)
