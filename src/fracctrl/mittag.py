"""Fractional-calculus primitives.

Two-parameter Mittag-Leffler evaluation on the real axis and the
mode-wise symbol of the initial-data propagator.  `ml` and `h_symbol`
take scalars or arrays: each element is routed by a mask to the Taylor
series (small |z|, kept where its rounding estimate passes), the
algebraic asymptotic expansion (large |z|) or a Talbot contour inversion
(the rest), and every branch runs as whole-array numpy code.  The solver
builds its kernel tables from these one time row at a time.

The scalar path (`_ml_scalar` and the `_ml_*` helpers it calls) is kept
only as the test oracle.  It adds the terms one at a time and takes the
middle range through the spectral-function integral instead of the
contour; it shares the series-safety mask with the array path and falls
back on the contour only where the integral fails.
"""

import math
import warnings

import numpy as np
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
# leading asymptotic terms whose powers keep the negative base
_ASYMPTOTIC_EXACT_POWERS = 8
_REL_TOL = 1e-11
# Rounding error of a Taylor sum per unit of its summed term magnitudes
# (against mpmath on a grid of alpha, beta and z the true error stayed
# below this).  The a-priori `_series_safe` test bounds the loss relative
# to 1, not to the value, and passes sums that lose ~1e-9 relative where
# E is small.
_SERIES_ROUNDING = 2.0 * np.finfo(float).eps
# Elements per vectorised pass; bounds the series' (elements x terms)
# work array to a few MB whatever the caller passes.
_CHUNK = 2048


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


def _series_vec(alpha, beta, z):
    """`_ml_series` for a 1-D z, adding the terms in the same order.

    The sums run over k < n, where n is the first index at which even the
    largest |z| of the array meets the stopping test; each element then
    takes its own partial sum at its own stopping index.
    """
    ks = np.arange(1, _SERIES_MAX_TERMS)
    args = beta + alpha * ks
    # log|term_k| at the largest |z|, with a factor-e margin on 1e-16
    log_term = ks * math.log(np.abs(z).max()) - gammaln(args)
    stop = (log_term <= math.log(1e-16) - 1.0) & (args > 1.5)
    n = int(np.argmax(stop)) + 1 if stop.any() else ks.size
    zk = np.cumprod(np.broadcast_to(z[:, None], (z.size, n)), axis=1)
    terms = zk * rgamma(args[:n])
    head = np.full((z.size, 1), rgamma(beta))
    terms = np.hstack([head, terms])
    totals = np.cumsum(terms, axis=1)[:, 1:]
    mags = np.cumsum(np.abs(terms), axis=1)[:, 1:]
    done = ((np.abs(terms[:, 1:]) <= 1e-16 * np.maximum(np.abs(totals), 1.0))
            & (args[:n] > 1.5))
    stopped = done.any(axis=1)
    if not stopped.all():
        raise MLEvaluationError(alpha, beta, float(z[np.argmin(stopped)]),
                                "Taylor series did not converge")
    at = (np.arange(z.size), np.argmax(done, axis=1))
    return totals[at], _SERIES_ROUNDING * mags[at]


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


def _asymptotic_vec(alpha, beta, z):
    """`_ml_asymptotic` for a 1-D array of z < 0.

    Where numpy vectorises `power` (AVX-512 builds), a negative base
    still takes a scalar path about 40x slower.  Only the leading powers,
    which seed the pairwise sum, are formed that way, as the scalar
    expansion forms them; the rest are |1/z|^k with the parity sign.
    The two agree to within an ulp per term, and with the leading terms
    kept the sums on the bundled examples' kernel tables are
    bit-identical (checked by the test suite).
    """
    ks = np.arange(1, _ASYMPTOTIC_MAX_TERMS)
    powers = np.where(ks % 2 == 1, -1.0, 1.0) * (-1.0 / z[:, None]) ** ks
    lead = _ASYMPTOTIC_EXACT_POWERS
    powers[:, :lead] = (1.0 / z[:, None]) ** ks[:lead]
    terms = -powers * rgamma(beta - alpha * ks)
    mags = np.abs(terms)
    window = mags[:, :-2] + mags[:, 1:-1] + mags[:, 2:]
    cut = np.argmin(window, axis=1) + 1
    total = np.empty(z.size)
    for c in np.unique(cut):
        # one row-wise sum per truncation length keeps each row's
        # summation order that of a 1-D np.sum over its kept terms
        rows = cut == c
        total[rows] = terms[rows, : c - 1].sum(axis=1)
    err = window[np.arange(z.size), cut - 1]
    if alpha >= 2.0 / 3.0:
        # the saddle contribution, as in `_ml_asymptotic`
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
    # imported here: only this oracle needs scipy.integrate, which would
    # otherwise add to every import of the package
    from scipy.integrate import IntegrationWarning, quad

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


def _talbot_vec(alpha, beta, z, nodes=32):
    """Talbot inversion of L[t^(b-1) E_(a,b)(-x t^a)] = s^(a-b)/(s^a+x).

    Evaluated at t = 1 on the roundoff-optimized contour of Weideman,
    s(theta) = N (-0.6122 + 0.5017 theta cot(0.6407 theta) + 0.2645 i theta);
    robust where the spectral integrand degenerates (alpha close to 1 with
    moderate |z|).  The contour does not depend on z, so one (elements x
    nodes) product evaluates a whole array.  The rule is repeated with 8
    fewer nodes; any element on which the two disagree raises.
    """
    x = -z[:, None]

    def invert(m):
        sig, mu, nu, b = -0.6122, 0.5017, 0.2645, 0.6407
        h = 2.0 * math.pi / m
        th = -math.pi + (np.arange(m) + 0.5) * h
        bt = b * th
        cot = np.cos(bt) / np.sin(bt)
        s = m * (sig + mu * th * cot + 1j * nu * th)
        ds = m * (mu * cot - mu * b * th / np.sin(bt) ** 2 + 1j * nu)
        weight = np.exp(s) * s ** (alpha - beta) * (ds / 1j)
        total = (weight / (s**alpha + x)).real.sum(axis=1)
        return total * h / (2.0 * math.pi)

    v1 = invert(nodes)
    v2 = invert(nodes - 8)
    # Double-precision Talbot bottoms out near 1e-13 absolute error, so
    # very small function values are accepted on an absolute basis.
    bad = np.abs(v1 - v2) > np.maximum(1e-9 * np.abs(v1), 1e-13)
    if bad.any():
        raise MLEvaluationError(alpha, beta, float(z[np.argmax(bad)]),
                                "Talbot inversion unstable")
    return v1


def _series_safe(alpha, beta, z):
    """Mask of a 1-D z: is the Taylor sum short and cancellation-safe?

    The largest term sits near k* = (|z|^(1/alpha) - beta)/alpha; its log
    magnitude bounds the precision lost to alternating-sign cancellation
    relative to 1 (the a-posteriori rounding test then judges the sum
    relative to its value).
    """
    x = np.abs(z)
    mid = (x > 1.0) & (x <= _SERIES_CUTOFF)
    peak = x[mid] ** (1.0 / alpha)
    kstar = (peak - beta) / alpha
    log_max_term = kstar * np.log(x[mid]) - gammaln(peak)
    safe = x <= 1.0
    safe[mid] = (kstar <= 0.0) | ((kstar <= 300.0) & (log_max_term <= 9.2))
    return safe


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


def _alpha_one_vec(beta, z):
    """Closed forms at alpha = 1 for a 1-D array of nonzero z."""
    if beta == 1.0:
        return np.exp(z)
    if beta == 2.0:
        return np.expm1(z) / z
    out = np.empty(z.size)
    near = z >= -50.0
    out[near] = (np.exp(z[near]) * hyp1f1(beta - 1.0, beta, -z[near])
                 * rgamma(beta))
    far = ~near
    if far.any():
        value, err = _asymptotic_vec(1.0, beta, z[far])
        err += np.exp(z[far])
        bad = ~_accepted(value, err)
        if bad.any():
            raise MLEvaluationError(1.0, beta, float(z[far][np.argmax(bad)]),
                                    "no convergent branch at alpha=1")
        out[far] = value
    return out


def _ml_scalar(alpha, beta, z):
    """Scalar reference evaluation; the test oracle for `ml`."""
    if z == 0.0:
        return rgamma(beta)
    if alpha == 1.0:
        return _ml_alpha_one(beta, z)
    if _series_safe(alpha, beta, np.array([z]))[0]:
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


def _accepted(value, err):
    return err <= _REL_TOL * np.maximum(np.abs(value), 1e-300)


def _ml_vec(alpha, beta, z):
    """Evaluate a 1-D array: z = 0, then alpha = 1, series, asymptotic,
    contour, each on the elements no earlier branch accepted."""
    out = np.empty(z.size)
    zero = z == 0.0
    out[zero] = rgamma(beta)
    idx = np.flatnonzero(~zero)
    if alpha == 1.0:
        out[idx] = _alpha_one_vec(beta, z[idx])
        return out
    series = np.flatnonzero(_series_safe(alpha, beta, z[idx]))
    if series.size:
        value, err = _series_vec(alpha, beta, z[idx[series]])
        ok = _accepted(value, err)
        out[idx[series[ok]]] = value[ok]
        idx = np.delete(idx, series[ok])
    positive = z[idx] > 0.0
    if positive.any():
        raise MLEvaluationError(alpha, beta, float(z[idx[positive][0]]),
                                "positive arguments supported only near 0")
    if idx.size == 0:
        return out
    value, err = _asymptotic_vec(alpha, beta, z[idx])
    ok = _accepted(value, err)
    out[idx[ok]] = value[ok]
    idx = idx[~ok]
    if idx.size:
        if not alpha < 1.0:
            raise MLEvaluationError(alpha, beta, float(z[idx[0]]),
                                    "no convergent branch")
        out[idx] = _talbot_vec(alpha, beta, z[idx])
    return out


def ml(alpha, beta, z):
    """Two-parameter Mittag-Leffler function E_(alpha,beta)(z).

    z may be a scalar, which returns a float, or an array of any shape,
    which returns an array of that shape.  Supported contract is the
    closed negative real axis (z <= 0) for alpha in (0, 1] and beta > 0;
    small positive z is best effort.

    Raises
    ------
    MLEvaluationError
        If no evaluation branch reaches the requested tolerance for some
        element; the error names the first such z.
    """
    alpha = float(alpha)
    beta = float(beta)
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("ml requires alpha > 0 and beta > 0")
    z = np.asarray(z, dtype=float)
    # repeated arguments (e.g. the mirrored modes of a square basis) are
    # evaluated once
    flat, inverse = np.unique(z.ravel(), return_inverse=True)
    out = np.empty(flat.size)
    for lo in range(0, flat.size, _CHUNK):
        out[lo : lo + _CHUNK] = _ml_vec(alpha, beta, flat[lo : lo + _CHUNK])
    if z.ndim == 0:
        return float(out[0])
    return out[inverse].reshape(z.shape)


def h_symbol(lam, t, alpha):
    """Eigen-symbol of the initial-data propagator: E_(a,1)(-lam * t^a).

    lam and t may be scalars or arrays that broadcast together.
    """
    alpha = check_order(alpha)
    if np.any(np.asarray(lam) < 0.0) or np.any(np.asarray(t) < 0.0):
        raise ValueError("h_symbol requires lam >= 0 and t >= 0")
    if np.ndim(t) == 0:
        # a scalar t is raised with the C library's pow, as the kernel
        # tables always have been; numpy's vectorised power can round
        # differently in the last bit
        t = float(t)
    # t = 0 gives z = 0 and E_(a,1)(0) = 1 exactly
    return ml(alpha, 1.0, -np.asarray(lam, dtype=float) * t**alpha)
