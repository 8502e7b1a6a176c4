"""Fractional-calculus primitives.

Two-parameter Mittag-Leffler evaluation on the real axis and the
mode-wise symbol of the initial-data propagator.  `ml` and `h_symbol`
take scalars or arrays: each element is routed by a mask to the Taylor
series (small |z|, kept where its rounding estimate passes), the
algebraic asymptotic expansion (large |z|) or a Talbot contour inversion
(the rest), and every branch runs as whole-array numpy code.  The route
is the same for every order alpha in (0, 1], alpha = 1 included.  The
solver builds each of its kernel tables with one `ml` call over the whole
(time node x distinct eigenvalue) array.

The scalar reference evaluation the tests compare against lives in the
test suite (`tests/ml_oracle.py`).
"""

import math

import numpy as np

__all__ = [
    "MLEvaluationError",
    "check_order",
    "ml",
    "h_symbol",
]

# Taylor series is accurate and cheap up to here; beyond it cancellation
# forces the asymptotic/contour branches.
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
# Elements per vectorised pass.  It bounds the series' (elements x terms)
# work arrays, several of which are alive at once, to 512 x 400 floats
# (1.6 MB) each whatever the caller passes; the kernel tables pass a whole
# table.  Each element's value does not depend on the chunk it falls in.
_CHUNK = 512


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


def _rgamma(x):
    """1/Gamma(x) for a float (returning a float) or an array of floats.

    Zero at the poles of Gamma (the non-positive integers), and
    exp(-lgamma(x)) above 171, where math.gamma overflows.  It loops in
    Python, so callers pass the Gamma arguments of one `ml` call (the
    series' beta + alpha k, k < 400, and the expansion's beta - alpha k,
    k < 60), never the z array.
    """
    values = [
        0.0 if v <= 0.0 and v == math.floor(v)
        else math.exp(-math.lgamma(v)) if v > 171.0
        else 1.0 / math.gamma(v)
        for v in np.ravel(x).tolist()
    ]
    if np.ndim(x) == 0:
        return values[0]
    return np.array(values).reshape(np.shape(x))


def _log_gamma(x):
    """log Gamma(x) for an array of x >= 1, elementwise in numpy.

    Stirling's series at x + 8, taken back to x by the recurrence
    Gamma(x + 8) = x (x + 1) ... (x + 7) Gamma(x); the truncation error
    is below 1e-13.  It serves `_series_safe`, whose arguments come from
    z, so `_rgamma`'s Python loop is not used there.
    """
    y = x + 8.0
    r = 1.0 / (y * y)
    tail = (1/12 + r * (-1/360 + r * (1/1260 + r * (-1/1680 + r / 1188))))
    shift = np.log(x[..., None] + np.arange(8.0)).sum(axis=-1)
    return ((y - 0.5) * np.log(y) - y + 0.5 * math.log(2.0 * math.pi)
            + tail / y - shift)


def _series_vec(alpha, beta, z):
    """Taylor sum for a 1-D z; returns (values, rounding_error_estimates).

    The sums run over k < n, where n is the first index at which even the
    largest |z| of the array meets the stopping test; each element then
    takes its own partial sum at its own stopping index, where its term
    falls below 1e-16 of the sum (or of 1).  The rounding estimate is
    `_SERIES_ROUNDING` times the summed term magnitudes.
    """
    ks = np.arange(1, _SERIES_MAX_TERMS)
    args = beta + alpha * ks
    # log|term_k| at the largest |z|, with a factor-e margin on 1e-16
    log_zmax = math.log(np.abs(z).max())
    n = next((k for k, a in zip(ks.tolist(), args.tolist())
              if a > 1.5
              and k * log_zmax - math.lgamma(a) <= math.log(1e-16) - 1.0),
             ks.size)
    zk = np.cumprod(np.broadcast_to(z[:, None], (z.size, n)), axis=1)
    terms = zk * _rgamma(args[:n])
    head = np.full((z.size, 1), _rgamma(beta))
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


def _asymptotic_vec(alpha, beta, z):
    """Algebraic expansion for a 1-D array of z < 0, z -> -inf; returns
    (values, error_estimates).

    Where numpy vectorises `power` (AVX-512 builds), a negative base
    still takes a scalar path about 40x slower.  Only the leading powers,
    which seed the pairwise sum, are formed that way; the rest are
    |1/z|^k with the parity sign.  The two agree to within an ulp per
    term, and with the leading terms kept the sums on the bundled
    examples' kernel tables are bit-identical to the term-by-term scalar
    reference (checked by the test suite).
    """
    ks = np.arange(1, _ASYMPTOTIC_MAX_TERMS)
    powers = np.where(ks % 2 == 1, -1.0, 1.0) * (-1.0 / z[:, None]) ** ks
    lead = _ASYMPTOTIC_EXACT_POWERS
    powers[:, :lead] = (1.0 / z[:, None]) ** ks[:lead]
    terms = -powers * _rgamma(beta - alpha * ks)
    mags = np.abs(terms)
    # Individual terms can vanish at gamma poles without the remainder
    # being small, so the truncation point minimizes a window of
    # neighbor terms.
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


def _talbot_vec(alpha, beta, z, nodes=32):
    """Talbot inversion of L[t^(b-1) E_(a,b)(-x t^a)] = s^(a-b)/(s^a+x).

    Evaluated at t = 1 on the roundoff-optimized contour of Weideman,
    s(theta) = N (-0.6122 + 0.5017 theta cot(0.6407 theta) + 0.2645 i theta);
    it covers alpha = 1 as well as alpha < 1 (Weideman & Trefethen, Math.
    Comp. 76, 2007).  The contour does not depend on z, so one (elements x
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
    log_max_term = kstar * np.log(x[mid]) - _log_gamma(peak)
    safe = x <= 1.0
    safe[mid] = (kstar <= 0.0) | ((kstar <= 300.0) & (log_max_term <= 9.2))
    return safe


def _accepted(value, err):
    return err <= _REL_TOL * np.maximum(np.abs(value), 1e-300)


def _ml_vec(alpha, beta, z):
    """Evaluate a 1-D array: z = 0, then series, asymptotic, contour,
    each on the elements no earlier branch accepted."""
    out = np.empty(z.size)
    zero = z == 0.0
    out[zero] = _rgamma(beta)
    idx = np.flatnonzero(~zero)
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
        # a scalar t is raised with the C library's pow, as the solver's
        # kernel tables are; numpy's vectorised power can round
        # differently in the last bit
        t = float(t)
    # t = 0 gives z = 0 and E_(a,1)(0) = 1 exactly
    return ml(alpha, 1.0, -np.asarray(lam, dtype=float) * t**alpha)
