"""Numerical verification of the standing hypotheses of the control loop.

Estimates the constants that enter the small-data contraction argument:
the L1-in-time kernel norm A1, the pseudo-inverse gain mu, the L2 norm of
the scalar kernel g_alpha, a closed-form bracket of the Lipschitz modulus
of the nonlinearity, the target radius kappa* that maximises the margin
rho_kappa, with m_kappa, rho_kappa and the contraction factor A_s there,
and a Gram-spectrum proxy for approximate controllability of the
linearized system.

A1 is computed in closed form.  In u = t^alpha the integrand is the
upper envelope of the mode curves f_j(u) = (lam_j + 1)^q
E_(alpha,alpha)(-lam_j u), and between two switches of the winning mode
the piece integrates exactly through

    int_0^t s^(alpha-1) E_(alpha,alpha)(-lam s^alpha) ds
        = t^alpha E_(alpha,alpha+1)(-lam t^alpha)

(Gorenflo, Kilbas, Mainardi & Rogosin, Mittag-Leffler Functions, Related
Topics and Applications, Springer 2014), the primitive the solver's step
weights use as well.  The winning mode is sampled on a log-spaced grid in
u, each switch is bisected to the crossing of its two modes, and a
crossing at which a third mode is higher splits into two switches for the
next round.  An envelope that has not settled after `_ENVELOPE_ROUNDS`
rounds raises `EnvelopeError` rather than returning a partial sum.

Only the modes that can win are evaluated.  E_(alpha,beta)(-x) is
completely monotone in x >= 0 for 0 < alpha <= 1 and beta >= alpha
(Schneider, Expo. Math. 14, 1996), so every f_j, and with them the
envelope, is non-increasing in u.  All modes are evaluated on every
`_ENVELOPE_STRIDE`-th grid node and the last.  A mode that wins at some
u in [U_a, U_b] between two such nodes has
f_j(U_a) >= f_j(u) = env(u) >= env(U_b), so only the modes with
f_j(U_a) >= env(U_b) (1 - `_ENVELOPE_SLACK`) are evaluated at the nodes
in between, and the others are -inf.  At a crossing c the same argument
leaves the modes evaluated at the grid node below c whose value there is
at least the crossing pair's value at c.  Every argmax runs over the
modes in index order, so the winners, and A1, are those of an
evaluation of every mode everywhere.

For F = c y^p, F_N(r, 0) = sup |F(z)|_2 / |z|_2 over fields z of the
span with |z|_2 <= r is |c| r^(p-1) sup |v^p|_2 over unit fields v.
The trapezoid rule makes the modes e_k orthonormal on the nodes
(`build_basis` keeps m < n - 1), so a unit field has unit coefficients
and, by Cauchy-Schwarz, |v|_inf <= C_inf with C_inf^2 = max over the
nodes of sum_k e_k^2.  Then |v^p|_2 <= |v|_inf^(p-1) |v|_2 gives the
upper end |c| C_inf^(p-1).  The normalised reproducing kernel
v*(x) = sum_k e_k(x0) e_k(x) / C_inf at the maximising node x0 attains
|v*(x0)| = C_inf (Nevai, J. Approx. Theory 48, 1986, on Christoffel
functions), and |c| |v*^p|_2 is the lower end.  On 20 x 20 modes of the
unit square C_inf = 39, and for F = y^2 the bracket is [26.0, 39].
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .mittag import check_order, ml

# log-spaced nodes per decade of u = t^alpha on which the winning mode is
# first sampled
_ENVELOPE_PER_DECADE = 60
# every mode is evaluated on every _ENVELOPE_STRIDE-th start node and the
# last; the nodes between two of them evaluate only the candidate modes
_ENVELOPE_STRIDE = 8
# relative slack of the candidate bound, far above the ~1e-9 relative
# error of an `ml` Taylor sum, so rounding cannot drop a winning mode
_ENVELOPE_SLACK = 1e-6
# refinement rounds (bisect every crossing, then check it against all
# modes) after which an unresolved envelope raises
_ENVELOPE_ROUNDS = 8
# relative margin by which a third mode must beat a crossing pair to
# count: the accuracy of `ml`, below which modes cannot be ordered.  As
# q -> 0 every mode ties near u = 0 and, without it, each round would
# split ever smaller crossings there that carry no area
_ENVELOPE_TIE = 1e-11

__all__ = [
    "EnvelopeError",
    "HypothesisReport",
    "estimate_A1",
    "lipschitz_bracket",
    "pinv_gain",
    "g_alpha_norm",
    "hypothesis_report",
]


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
    lam, _ = basis.distinct_eigenvalues
    shift = (lam + 1.0) ** q
    # a bracket cannot be narrower than one float spacing
    tol = max(rtol, np.finfo(float).eps)

    def fill(f, u, cand):
        """f[r, m] = f_m(u[r]) wherever cand[r, m], in one `ml` call."""
        r, m = np.nonzero(cand)
        f[r, m] = shift[m] * ml(alpha, alpha, -lam[m] * u[r])

    # u = 0, then log-spaced nodes from inside the boundary layer of
    # width 1/lam_max up to T^alpha
    Ta = grid.T**alpha
    u0 = min(1e-3 / (lam.max() + 1.0), Ta)
    n = math.ceil(_ENVELOPE_PER_DECADE * math.log10(Ta / u0)) + 1
    u = np.concatenate([[0.0], np.geomspace(u0, Ta, n)])
    # every mode on the coarse nodes; on the nodes of a coarse interval
    # only the modes that can win there (module docstring), the rest -inf
    coarse = np.append(np.arange(0, u.size - 1, _ENVELOPE_STRIDE), u.size - 1)
    f = np.full((u.size, lam.size), -np.inf)
    f[coarse] = shift * ml(alpha, alpha, -np.outer(u[coarse], lam))
    # node i lies in the interval [coarse[g[i]], coarse[g[i] + 1]]
    g = np.minimum(np.arange(u.size) // _ENVELOPE_STRIDE, coarse.size - 2)
    bound = f[coarse].max(axis=1)[g + 1] * (1.0 - _ENVELOPE_SLACK)
    cand = f[coarse[g]] >= bound[:, None]
    cand[coarse] = False
    fill(f, u, cand)
    win = np.argmax(f, axis=1)
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
        rows = np.arange(c.size)
        every = np.full((c.size, lam.size), -np.inf)
        pick = np.zeros(every.shape, dtype=bool)
        pick[rows, j] = pick[rows, k] = True
        fill(every, c, pick)
        pair = np.maximum(every[rows, j], every[rows, k])
        # a mode that can beat the pair at c was a candidate at the start
        # node below c, and was above the pair there
        pick = (f[np.searchsorted(u, c, side="right") - 1]
                >= (pair * (1.0 - _ENVELOPE_SLACK))[:, None])
        pick[rows, j] = pick[rows, k] = False
        fill(every, c, pick)
        best = np.argmax(every, axis=1)
        # a third mode above both at the crossing wins a piece between
        # them: split the switch into j -> best -> k and resolve both
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


def pinv_gain(H):
    """Operator norm of the regularized pseudo-inverse (the constant mu):
    the largest filter factor sigma / (sigma^2 + lambda_reg) that
    `pinv_apply` applies.  At lambda_reg = 0 that is 1 / (smallest positive
    sigma), and inf when every sigma is 0."""
    mu = float(np.max(H.filter_factors()))
    return mu if mu > 0.0 or H.lambda_reg > 0.0 else math.inf


def g_alpha_norm(grid, alpha):
    """Discrete L2 norm of the scalar kernel g_alpha(t) = t^(alpha-1) /
    Gamma(alpha) on the run's time grid (midpoint rule).

    For alpha <= 1/2 the continuum L2 norm diverges at t = 0, so the value
    depends on the time resolution; it is reported as the grid-level
    constant actually seen by the discrete loop.
    """
    alpha = check_order(alpha)
    dt = grid.dt
    mids = (np.arange(grid.K) + 0.5) * dt
    g = mids ** (alpha - 1.0) / math.gamma(alpha)
    return float(np.sum(dt * g**2) ** 0.5)


def lipschitz_bracket(F, basis):
    """Bracket (lower, upper) of F_N(r, 0) / r^(p-1) for F = c y^p on the
    span of the basis, in the discrete L2 norm; (0, 0) for c = 0.

    F_N(r, 0) = |c| r^(p-1) sup |v^p|_2 over unit fields v of the span.
    The upper end is |c| C_inf^(p-1), C_inf^2 = max over the nodes of
    sum_k e_k^2; the lower end is |c| |v*^p|_2 for the normalised
    reproducing kernel v* at the node of that maximum (module docstring).
    """
    # the basis is separable, so sum_k e_k^2 is a product of axis sums
    ex, ey = basis._factors
    sx, sy = np.sum(ex**2, axis=0), np.sum(ey**2, axis=0)
    i, j = int(np.argmax(sx)), int(np.argmax(sy))
    c_inf = math.sqrt(sx[i] * sy[j])
    # the coefficients of the kernel at node (i, j) are e_k there
    v = basis.from_spectral(np.outer(ex[:, i], ey[:, j])) / c_inf
    wx, wy = basis.domain.quad_weights()
    vp = math.sqrt(float(np.sum(np.outer(wx, wy) * v ** (2 * F.power))))
    c = abs(F.coeff)
    return c * vp, c * c_inf ** (F.power - 1)


@dataclass
class HypothesisReport:
    """Everything the verify command prints, in one structure."""

    a1: float
    mu: float
    g_norm: float
    fn_lower: float
    fn_upper: float
    kappa: float
    m_kappa: float
    rho_kappa: float
    a_s: float
    gram_sigma_min: float
    gram_sigma_max: float
    effective_rank: int
    verdicts: dict = field(default_factory=dict)

    @property
    def violated(self):
        return any(v == "violated" for v in self.verdicts.values())

    def to_text(self):
        lines = [
            "hypothesis report",
            f"  A1 (kernel L1 norm)        : {self.a1:.6e}",
            f"  mu (pseudo-inverse gain)   : {self.mu:.6e}",
            f"  |g_alpha| (L2, grid level) : {self.g_norm:.6e}",
            f"  F_N(r,0) / r^(p-1) bracket : [{self.fn_lower:.6e}, "
            f"{self.fn_upper:.6e}]",
            f"  kappa* (largest rho_kappa) : {self.kappa:.6e}",
            f"  m_kappa                    : {self.m_kappa:.6e}",
            f"  rho_kappa                  : {self.rho_kappa:.6e}",
            f"  A_s (contraction factor)   : {self.a_s:.6e}",
            f"  Gram sigma_min / sigma_max : {self.gram_sigma_min:.6e}"
            f" / {self.gram_sigma_max:.6e}",
            f"  effective rank             : {self.effective_rank}",
        ]
        for name, verdict in sorted(self.verdicts.items()):
            lines.append(f"  {name:<27}: {verdict}")
        return "\n".join(lines)


def hypothesis_report(problem):
    """Full hypothesis check for a control problem.

    'controllability' is satisfied when the smallest singular value of
    the weighted reachability matrix is positive.  A1 is taken into the
    fractional power space of order 1/2.  With A2 = mu |g| and the upper
    end of the Lipschitz bracket, F_N(r, 0) = upper r^(p-1), the margin
    rho_r = (r/mu) (1 - (A1 + A2) F_N(r, 0)) is largest at
    kappa = (1 / (p c))^(1/(p-1)), c = (A1 + A2) upper, where
    F_N(kappa, 0) = 1 / (p (A1 + A2)); there
    m_kappa = (kappa/mu) (1 - A1 F_N(kappa, 0)), rho_kappa = rho_r and
    A_s = A2 F_N(kappa, 0) / (1 - A1 F_N(kappa, 0))
        = A2 / ((p - 1) A1 + p A2) < 1/p,
    so A_s is reported as a number, with no verdict.  For F = none kappa
    and the margins are inf and A_s is 0; with mu 0 or inf (a dead
    actuator) kappa and the margins are 0 and A_s is inf.
    """
    H = problem.operator()
    mu = pinv_gain(H)
    sig = H.svd()[1]
    a1 = estimate_A1(problem.basis, problem.grid, problem.alpha, 0.5)
    g_norm = g_alpha_norm(problem.grid, problem.alpha)
    lower, upper = lipschitz_bracket(problem.F, problem.basis)
    a2 = mu * g_norm
    kappa = m_kappa = rho_kappa = 0.0
    a_s = math.inf
    if 0.0 < mu < math.inf:
        # F_N(kappa, 0); F = none has F_N = 0 at every radius
        p = problem.F.power
        f = 1.0 / (p * (a1 + a2)) if upper > 0.0 else 0.0
        kappa = (f / upper) ** (1.0 / (p - 1)) if upper > 0.0 else math.inf
        m_kappa = (kappa / mu) * (1.0 - a1 * f)
        rho_kappa = (kappa / mu) * (1.0 - (a1 + a2) * f)
        a_s = a2 * f / (1.0 - a1 * f)
    return HypothesisReport(
        a1=a1, mu=mu, g_norm=g_norm, fn_lower=lower, fn_upper=upper,
        kappa=kappa, m_kappa=m_kappa, rho_kappa=rho_kappa, a_s=a_s,
        gram_sigma_min=float(sig[-1]), gram_sigma_max=float(sig[0]),
        effective_rank=int(np.count_nonzero(sig > 1e-8 * sig[0])),
        verdicts={"controllability": (
            "satisfied" if sig[-1] > 0.0 else "violated")},
    )
