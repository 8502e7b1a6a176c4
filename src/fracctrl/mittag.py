"""Fractional-calculus primitives.

Two-parameter Mittag-Leffler evaluation for z <= 0; a positive z
raises.  `ml` takes scalars or arrays: each element is routed by a mask
to the Taylor series (|z| up to a reach read from the series' own Gamma
table, kept where its rounding estimate passes), the algebraic
asymptotic expansion (large |z|) or a Talbot contour inversion (the
rest), and every branch runs as whole-array numpy code.  The route is
the same for every order alpha in (0, 1], alpha = 1 included.  Repeated
arguments are evaluated once: `ml` sorts its array and takes the
distinct values.  The solver builds its one kernel table, the step
weights, by `ml` calls over row slabs of at most sixteen chunks.

Both sums stop where each element's own terms allow.  The series stops
at the first term below 1e-16 of the sum; the expansion stops at the
first window of terms bounded below rounding of its leading term, a
point read from |z| alone, so at large |z| it sums a handful of terms.
The Taylor sum holds three (elements x terms) work arrays: the head
and terms, whose magnitudes and then running magnitude sums overwrite
them in place, the running totals, and the stopping bounds.  The
expansion's input arrives sorted, so its cuts come in runs of rows, and
each run is summed as one slice.
The Gamma coefficients of both are formed once per (alpha, beta) in a
process and shared by every `ml` call of that order pair, and the
series' reach and each chunk's sum length are read from the same table
as its terms (a-priori truncation as in Gorenflo, Loutchko & Luchko,
Fract. Calc. Appl. Anal. 5(4), 2002).  An element's value therefore
depends only on (alpha, beta, z), never on the array or chunk it is
evaluated in.

The scalar reference evaluation the tests compare against lives in the
test suite (`tests/ml_oracle.py`).
"""

import math
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "MLEvaluationError",
    "check_order",
    "ml",
]

# The Taylor series serves |z| up to a reach read from the Gamma table of
# its terms (`_Coefficients.series_reach`): no term above e^9.2, so
# cancellation costs at most that factor relative to 1, and the stopping
# test met within the 399 terms.  The reach never exceeds this cutoff.
_SERIES_CUTOFF = 5.0
_SERIES_MAX_TERMS = 400
# log of the a-priori stopping bound on a series term: 1e-16 with a
# factor-e margin
_SERIES_STOP = math.log(1e-16) - 1.0
_ASYMPTOTIC_MAX_TERMS = 60
# The expansion is cut before its first window of three terms that is
# bounded below this fraction of the leading term, where the rest no
# longer moves the sum beyond rounding (measured against the sum of all
# 59 terms: at most 6.7e-16 relative).
_EXPANSION_TAIL = np.finfo(float).eps / 8
_REL_TOL = 1e-11
# Rounding error of a Taylor sum per unit of its summed term magnitudes
# (against mpmath on a grid of alpha, beta and z the true error stayed
# below this).  The series reach bounds the loss relative to 1, not to
# the value, and admits sums that lose ~1e-9 relative where E is small.
_SERIES_ROUNDING = 2.0 * np.finfo(float).eps
# Elements per vectorised pass.  It bounds the (elements x terms) work
# arrays of the sums, up to three of which are alive at once, to 512 x
# 400 floats (1.6 MB) each whatever the caller passes; the kernel tables
# pass row slabs of at most 16 chunks.  A chunk forms as many terms as
# its most demanding element needs, but each element's value does not
# depend on the chunk it falls in.
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


class _Coefficients:
    """Gamma coefficients of one order pair (alpha, beta).

    `_rgamma` and `math.lgamma` loop in Python, so a process forms them
    once per order pair (`_coefficients`) and every `ml` call of that
    pair shares them: the head 1/Gamma(beta), the series'
    1/Gamma(beta + alpha k) and log Gamma(beta + alpha k) for k = 1, ...,
    399, with the series reach and sum lengths read from them, and the
    expansion's coefficients with the bounds of its truncation rule.
    """

    def __init__(self, alpha, beta):
        self.alpha = alpha
        self.beta = beta
        self.head = _rgamma(beta)
        self.ks = np.arange(1, _SERIES_MAX_TERMS)
        args = beta + alpha * self.ks
        self.series = _rgamma(args)
        self.log_gamma = np.array([math.lgamma(a) for a in args.tolist()])
        # a sum may stop at term k only once beta + alpha k > 1.5
        self.stoppable = args > 1.5
        # log|term k| = k log|z| - log_gamma[k]: the largest |z| at which
        # no term exceeds e^9.2, and at which some stoppable term is below
        # the stopping bound
        peak = np.min((9.2 + self.log_gamma) / self.ks)
        stop = np.max(((_SERIES_STOP + self.log_gamma) / self.ks)
                      [self.stoppable], initial=-np.inf)
        self.series_reach = min(math.exp(min(peak, stop)), _SERIES_CUTOFF)

    def series_length(self, zmax):
        """Terms a sum over |z| <= zmax forms: the first k at which
        zmax^k / Gamma(beta + alpha k) is stoppable and below the stopping
        bound, else all 399."""
        hit = self.stoppable & (
            self.ks * math.log(zmax) - self.log_gamma <= _SERIES_STOP)
        return int(np.argmax(hit)) + 1 if hit.any() else hit.size

    @cached_property
    def expansion(self):
        """(c, bounds) of the expansion for z -> -inf.

        Term i (i = 0, ..., 58) is -(1/z)^k / Gamma(beta - alpha k) =
        c[i] |1/z|^k with k = i + 1.  Past the leading (first non-zero)
        term i0, term i is below `_EXPANSION_TAIL` / 3 of the leading one
        once |z|^(i - i0) >= 3 |c[i]| / (_EXPANSION_TAIL |c[i0]|), and
        window j (terms j, j + 1, j + 2; j > i0) once |z| reaches the
        largest of its three such values.  bounds[j] is the least of
        those over windows 0..j, so the first bounded window of an
        element is the number of bounds above its |z|, a number that
        never grows with |z|.
        """
        ks = np.arange(1, _ASYMPTOTIC_MAX_TERMS)
        g = _rgamma(self.beta - self.alpha * ks)
        # -(1/z)^k = (-1)^(k+1) |1/z|^k for z < 0
        c = np.where(ks % 2 == 1, g, -g)
        mags = np.abs(g)
        reach = np.full(ks.size, np.inf)
        lead = np.flatnonzero(mags)
        if lead.size:
            i0 = lead[0]
            ratio = 3.0 * mags[i0 + 1 :] / (_EXPANSION_TAIL * mags[i0])
            reach[i0 + 1 :] = ratio ** (1.0 / np.arange(1, ks.size - i0))
        window = np.maximum(np.maximum(reach[:-2], reach[1:-1]), reach[2:])
        return c, np.minimum.accumulate(window)


@lru_cache(maxsize=256)
def _coefficients(alpha, beta):
    """The `_Coefficients` of (alpha, beta), formed on its first use."""
    return _Coefficients(alpha, beta)


def _series_vec(alpha, beta, z, coef):
    """Taylor sum for a 1-D z within `coef.series_reach`; returns (values,
    rounding_error_estimates).

    The sums run over k <= n, where n (`_Coefficients.series_length`, read
    from the Gamma table of the terms, as the reach is) is the first index
    at which even the largest |z| of the array meets the a-priori stopping
    test; the reach keeps n within 399.  Each element then takes its own
    partial sum at its own stopping index, where its term falls below
    1e-16 of the sum (or of 1).  The rounding estimate is
    `_SERIES_ROUNDING` times the summed term magnitudes.
    """
    n = coef.series_length(np.abs(z).max())
    # column 0 holds the head 1/Gamma(beta), column k the term of z^k
    terms = np.empty((z.size, n + 1))
    terms[:, 0] = coef.head
    np.cumprod(np.broadcast_to(z[:, None], (z.size, n)), axis=1,
               out=terms[:, 1:])
    terms[:, 1:] *= coef.series[:n]
    totals = np.cumsum(terms, axis=1)
    bound = np.abs(totals[:, 1:])
    np.maximum(bound, 1.0, out=bound)
    bound *= 1e-16
    np.abs(terms, out=terms)
    done = terms[:, 1:] <= bound
    done &= coef.stoppable[:n]
    stopped = done.any(axis=1)
    if not stopped.all():
        raise MLEvaluationError(alpha, beta, float(z[np.argmin(stopped)]),
                                "Taylor series did not converge")
    # the summed magnitudes overwrite the magnitudes
    mags = np.cumsum(terms, axis=1, out=terms)
    at = (np.arange(z.size), np.argmax(done, axis=1) + 1)
    return totals[at], _SERIES_ROUNDING * mags[at]


def _asymptotic_vec(alpha, beta, z, coef):
    """Algebraic expansion for a 1-D array of z < 0, z -> -inf; returns
    (values, error_estimates).

    The terms are c_k |1/z|^k, k < 60 (`_Coefficients.expansion`).  Each
    element is cut where its own |z| says: before the first window of
    three neighbour terms that is bounded below `_EXPANSION_TAIL` of the
    leading term, or, if no window is, before the window of least sum.
    Its value sums the terms before the cut and its error estimate is the
    window at the cut.  The bounds fall as |z| grows, so the smallest |z|
    of the array needs the most terms and the array forms only those; no
    element's value depends on the others in its array.
    """
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
    # one row-wise sum per run of equal cuts (a sorted z keeps them in
    # runs) keeps each row's summation order that of a 1-D np.sum over
    # its kept terms
    starts = np.flatnonzero(np.diff(cut, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [z.size]):
        total[lo:hi] = terms[lo:hi, : cut[lo]].sum(axis=1)
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


def _accepted(value, err):
    return err <= _REL_TOL * np.maximum(np.abs(value), 1e-300)


def _ml_vec(alpha, beta, z, coef):
    """Evaluate a 1-D array: z = 0, then series, asymptotic, contour,
    each on the elements no earlier branch accepted."""
    out = np.empty(z.size)
    zero = z == 0.0
    out[zero] = coef.head
    idx = np.flatnonzero(~zero)
    series = np.flatnonzero(np.abs(z[idx]) <= coef.series_reach)
    if series.size:
        value, err = _series_vec(alpha, beta, z[idx[series]], coef)
        ok = _accepted(value, err)
        out[idx[series[ok]]] = value[ok]
        idx = np.delete(idx, series[ok])
    if idx.size == 0:
        return out
    value, err = _asymptotic_vec(alpha, beta, z[idx], coef)
    ok = _accepted(value, err)
    out[idx[ok]] = value[ok]
    idx = idx[~ok]
    if idx.size:
        out[idx] = _talbot_vec(alpha, beta, z[idx])
    return out


def ml(alpha, beta, z):
    """Two-parameter Mittag-Leffler function E_(alpha,beta)(z).

    z may be a scalar, which returns a float, or an array of any shape,
    which returns an array of that shape.  Defined on the closed
    negative real axis (z <= 0) for alpha in (0, 1] and beta > 0.

    Raises
    ------
    MLEvaluationError
        If some element is positive, or no evaluation branch reaches the
        requested tolerance for some element; the error names the first
        such z.
    """
    alpha = float(alpha)
    beta = float(beta)
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("ml requires alpha > 0 and beta > 0")
    z = np.asarray(z, dtype=float)
    # repeated arguments (e.g. the mirrored modes of a square basis) are
    # evaluated once, in increasing order
    flat, inverse = np.unique(z.ravel(), return_inverse=True)
    positive = flat > 0.0
    if positive.any():
        raise MLEvaluationError(alpha, beta, float(flat[positive][0]),
                                "positive argument (supported: z <= 0)")
    out = np.empty(flat.size)
    coef = _coefficients(alpha, beta)
    for lo in range(0, flat.size, _CHUNK):
        out[lo : lo + _CHUNK] = _ml_vec(alpha, beta, flat[lo : lo + _CHUNK],
                                        coef)
    if z.ndim == 0:
        return float(out[0])
    return out[inverse].reshape(z.shape)

