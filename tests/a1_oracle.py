"""Dense reference evaluation of the kernel constant A1 for the test suite.

`estimate_A1` here integrates the upper envelope of the mode curves
exactly: it evaluates every distinct eigenvalue at every node of a
log-spaced start grid, bisects each switch of the winning mode to the
crossing of its two modes, splits a crossing at which a third mode is
higher, and integrates each piece through the closed-form primitive

    int_0^t s^(alpha-1) E_(alpha,alpha)(-lam s^alpha) ds
        = t^alpha E_(alpha,alpha+1)(-lam t^alpha)

(Gorenflo, Kilbas, Mainardi & Rogosin, Mittag-Leffler Functions, 2014).
It is the reference that the upper Riemann sum of
`fracctrl.diagnostics.estimate_A1` is checked against: the bound must
lie at or above it, within a stated factor.
"""

import math

import numpy as np

from fracctrl.mittag import check_order, ml

# log-spaced nodes per decade of u = t^alpha on which the winning mode is
# first sampled
_ENVELOPE_PER_DECADE = 60
# refinement rounds (bisect every crossing, then check it against all
# modes) after which an unresolved envelope raises
_ENVELOPE_ROUNDS = 8
# relative margin by which a third mode must beat a crossing pair to
# count: the accuracy of `ml`, below which modes cannot be ordered.  As
# q -> 0 every mode ties near u = 0 and, without it, each round would
# split ever smaller crossings there that carry no area
_ENVELOPE_TIE = 1e-11


class EnvelopeError(ArithmeticError):
    """The upper envelope of the kernel modes did not settle."""


def estimate_A1(basis, grid, alpha, q, rtol=1e-8):
    """Integral over [0, T] of the kernel operator norm into the fractional
    power space of order q.

    The norm at time t is the supremum over basis modes of
    (lam + 1)^q * t^(alpha-1) * E_(alpha,alpha)(-lam t^alpha); the spectrum
    is shifted by one because the constant Neumann mode has eigenvalue
    zero.  In u = t^alpha the supremum is the upper envelope of the mode
    curves f_j(u) = (lam_j + 1)^q E_(alpha,alpha)(-lam_j u), and each
    piece of it integrates in closed form (module docstring).  rtol is
    the relative accuracy in u to which the crossings between winning
    modes are located.

    Raises
    ------
    EnvelopeError
        If the envelope still has unresolved crossings after
        `_ENVELOPE_ROUNDS` refinement rounds.
    """
    alpha = check_order(alpha)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"fractional power q must be in [0, 1], got {q}")
    lam = np.unique(np.asarray(basis.eigenvalues, dtype=float))
    shift = (lam + 1.0) ** q
    # a bracket cannot be narrower than one float spacing
    tol = max(rtol, np.finfo(float).eps)

    # u = 0, then log-spaced nodes from inside the boundary layer of
    # width 1/lam_max up to T^alpha
    Ta = grid.T**alpha
    u0 = min(1e-3 / (lam.max() + 1.0), Ta)
    n = math.ceil(_ENVELOPE_PER_DECADE * math.log10(Ta / u0)) + 1
    u = np.concatenate([[0.0], np.geomspace(u0, Ta, n)])
    win = np.argmax(shift * ml(alpha, alpha, -np.outer(u, lam)), axis=1)
    # open switches: mode j wins at lo, mode k at hi
    at = np.flatnonzero(win[:-1] != win[1:])
    lo, hi, j, k = u[at], u[at + 1], win[at], win[at + 1]
    cross, after = [], []
    for _ in range(_ENVELOPE_ROUNDS):
        # bisect f_j - f_k, which is >= 0 at lo and <= 0 at hi, until
        # every bracket [a, b] is narrower than tol * b
        a, b = lo.copy(), hi.copy()
        act = np.flatnonzero(b - a > tol * b)
        while act.size:
            mid = 0.5 * (a[act] + b[act])
            modes = np.concatenate([j[act], k[act]])
            fj, fk = np.split(
                shift[modes] * ml(alpha, alpha, -lam[modes] * np.tile(mid, 2)),
                2,
            )
            right = fj >= fk
            a[act[right]] = mid[right]
            b[act[~right]] = mid[~right]
            act = act[b[act] - a[act] > tol * b[act]]
        c = 0.5 * (a + b)
        every = shift * ml(alpha, alpha, -np.outer(c, lam))
        rows = np.arange(c.size)
        best = np.argmax(every, axis=1)
        # a third mode above both at the crossing wins a piece between
        # them: split the switch into j -> best -> k and resolve both
        pair = np.maximum(every[rows, j], every[rows, k])
        third = every[rows, best] > pair * (1.0 + _ENVELOPE_TIE)
        cross.append(c[~third])
        after.append(k[~third])
        if not third.any():
            break
        m = best[third]
        lo = np.concatenate([lo[third], c[third]])
        hi = np.concatenate([c[third], hi[third]])
        j, k = np.concatenate([j[third], m]), np.concatenate([m, k[third]])
    else:
        raise EnvelopeError(
            f"mode envelope of the A1 integrand not resolved after "
            f"{_ENVELOPE_ROUNDS} rounds (alpha={alpha}, q={q})"
        )
    cross, after = np.concatenate(cross), np.concatenate(after)
    order = np.argsort(cross)
    # piece i runs from ends[i] to ends[i + 1] under mode pieces[i]
    ends = np.concatenate([[0.0], cross[order], [Ta]])
    pieces = np.concatenate([win[:1], after[order]])
    span = np.stack([ends[:-1], ends[1:]])
    # u E_(a,a+1)(-lam u) is the t-integral from 0 to t = u^(1/a), so no
    # 1/alpha from du = alpha t^(alpha-1) dt is left
    prim = span * ml(alpha, alpha + 1.0, -lam[pieces] * span)
    return float(np.sum(shift[pieces] * (prim[1] - prim[0])))
