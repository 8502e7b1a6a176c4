"""Scalar Mittag-Leffler reference evaluation for the test suite.

`_ml_scalar` is the oracle that `fracctrl.mittag.ml` is compared
against.  It adds the Taylor terms one at a time, takes the middle range
through the spectral-function integral (`scipy.integrate.quad`) instead
of the contour, and evaluates alpha = 1 through Kummer's transformation
of the confluent hypergeometric function.  It shares the series mask
(|z| up to the reach of `fracctrl.mittag._Coefficients`), the tolerances
and the reciprocal Gamma function with the runtime evaluator, so where
both take the same branch they agree bit for bit, and falls back on the
runtime's contour only where the integral fails.
mpmath stays the independent referee (`test_mittag.py`).

`_series_matrix` and `_asymptotic_masked` keep the array Taylor sum and
expansion as they were before the sums were taken in place and per run
of equal cuts, as the reference those are held bit-identical to.
"""

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import hyp1f1

from fracctrl.mittag import (
    _ASYMPTOTIC_MAX_TERMS,
    _REL_TOL,
    _SERIES_MAX_TERMS,
    _SERIES_ROUNDING,
    MLEvaluationError,
    _Coefficients,
    _talbot_vec,
)
from fracctrl.mittag import _rgamma as rgamma


@lru_cache(maxsize=None)
def _series_reach(alpha, beta):
    return _Coefficients(alpha, beta).series_reach


def _ml_series(alpha, beta, z):
    """Taylor sum; returns (value, rounding_error_estimate)."""
    total = rgamma(beta)
    mags = abs(total)
    term_arg = beta
    zk = 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        zk *= z
        term_arg = beta + alpha * k
        term = zk * rgamma(term_arg)
        total += term
        mags += abs(term)
        if abs(term) <= 1e-16 * max(abs(total), 1.0) and term_arg > 1.5:
            return total, _SERIES_ROUNDING * mags
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


def _asymptotic_59(alpha, beta, z):
    """The array expansion `ml` used before its per-element truncation,
    kept as the reference the new one is bounded against: every element
    forms all 59 terms (the first 8 powers from the negative base 1/z)
    and is cut at the window of least sum.  Returns (values,
    error_estimates) for a 1-D array of z < 0."""
    ks = np.arange(1, _ASYMPTOTIC_MAX_TERMS)
    powers = np.where(ks % 2 == 1, -1.0, 1.0) * (-1.0 / z[:, None]) ** ks
    powers[:, :8] = (1.0 / z[:, None]) ** ks[:8]
    terms = -powers * rgamma(beta - alpha * ks)
    mags = np.abs(terms)
    window = mags[:, :-2] + mags[:, 1:-1] + mags[:, 2:]
    cut = np.argmin(window, axis=1) + 1
    total = np.empty(z.size)
    for c in np.unique(cut):
        rows = cut == c
        total[rows] = terms[rows, : c - 1].sum(axis=1)
    err = window[np.arange(z.size), cut - 1]
    if alpha >= 2.0 / 3.0:
        w = np.abs(z) ** (1.0 / alpha)
        phi = math.pi / alpha
        envelope = (1.0 / alpha) * w ** (1.0 - beta) * np.exp(
            w * math.cos(phi)
        )
        total += envelope * np.cos(w * math.sin(phi) + phi * (1.0 - beta))
        err += envelope * (np.minimum(1.0, 2.0 * (1.0 - alpha) * w) + 1e-12)
    return total, err


def _series_matrix(alpha, beta, z, coef):
    """Taylor sum for a 1-D z within `coef.series_reach`; returns (values,
    rounding_error_estimates).  One (elements x terms) array per step."""
    n = coef.series_length(np.abs(z).max())
    zk = np.cumprod(np.broadcast_to(z[:, None], (z.size, n)), axis=1)
    terms = zk * coef.series[:n]
    head = np.full((z.size, 1), rgamma(beta))
    terms = np.hstack([head, terms])
    totals = np.cumsum(terms, axis=1)[:, 1:]
    mags = np.cumsum(np.abs(terms), axis=1)[:, 1:]
    done = ((np.abs(terms[:, 1:]) <= 1e-16 * np.maximum(np.abs(totals), 1.0))
            & coef.stoppable[:n])
    stopped = done.any(axis=1)
    if not stopped.all():
        raise MLEvaluationError(alpha, beta, float(z[np.argmin(stopped)]),
                                "Taylor series did not converge")
    at = (np.arange(z.size), np.argmax(done, axis=1))
    return totals[at], _SERIES_ROUNDING * mags[at]


def _asymptotic_masked(alpha, beta, z, coef):
    """Algebraic expansion for a 1-D array of z < 0, cut per element;
    returns (values, error_estimates).  The rows of each distinct cut are
    gathered by a mask and summed together."""
    c, bounds = coef.expansion
    # cut = number of windows whose bound exceeds |z|
    cut = np.searchsorted(-bounds, z)
    ks = np.arange(1, min(int(cut.max()) + 3, c.size) + 1)
    terms = (-1.0 / z[:, None]) ** ks * c[: ks.size]
    mags = np.abs(terms)
    window = mags[:, :-2] + mags[:, 1:-1] + mags[:, 2:]
    # Individual terms can vanish at gamma poles without the remainder
    # being small, so an element with no bounded window is cut at the
    # minimizing window over all terms.
    unbounded = cut == bounds.size
    cut[unbounded] = np.argmin(window[unbounded], axis=1)
    total = np.empty(z.size)
    for j in np.unique(cut):
        # one row-wise sum per truncation length keeps each row's
        # summation order that of a 1-D np.sum over its kept terms
        rows = cut == j
        total[rows] = terms[rows, :j].sum(axis=1)
    err = window[np.arange(z.size), cut]
    if alpha >= 2.0 / 3.0:
        # For alpha >= 2/3 the negative axis also carries an exponentially
        # small oscillatory saddle contribution from the conjugate branch
        # pair z^(1/alpha) e^(+-i pi/alpha).  Its leading term is added
        # explicitly; the next saddle correction scales like
        # (1-alpha)*w relative to the envelope and enters the error
        # estimate.
        w = np.abs(z) ** (1.0 / alpha)
        phi = math.pi / alpha
        envelope = (1.0 / alpha) * w ** (1.0 - beta) * np.exp(
            w * math.cos(phi)
        )
        total += envelope * np.cos(w * math.sin(phi) + phi * (1.0 - beta))
        err += envelope * (np.minimum(1.0, 2.0 * (1.0 - alpha) * w) + 1e-12)
    return total, err


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
        return (_ml_scalar(alpha, beta - alpha, z) - rgamma(beta - alpha)) / z

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
        return float(_talbot_vec(alpha, beta, np.array([z]))[0])
    return val


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


def _ml_scalar(alpha, beta, z):
    """Scalar reference evaluation; the test oracle for `ml`."""
    if z == 0.0:
        return rgamma(beta)
    if alpha == 1.0:
        return _ml_alpha_one(beta, z)
    if abs(z) <= _series_reach(alpha, beta):
        value, err = _ml_series(alpha, beta, z)
        if err <= _REL_TOL * max(abs(value), 1e-300):
            return value
    if z > 0.0:
        raise MLEvaluationError(alpha, beta, z,
                                "positive arguments supported only near 0")
    value, err = _ml_asymptotic(alpha, beta, z)
    if err <= _REL_TOL * max(abs(value), 1e-300):
        return value
    if 0.0 < alpha < 1.0:
        return _ml_integral(alpha, beta, z)
    raise MLEvaluationError(alpha, beta, z, "no convergent branch")
