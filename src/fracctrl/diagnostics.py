"""Numerical verification of the standing hypotheses of the control loop.

Estimates the constants that enter the small-data contraction argument:
the L1-in-time kernel norm A1, the pseudo-inverse gain mu, the L2 norm of
the scalar kernel g_alpha, a closed-form bracket of the Lipschitz modulus
of the nonlinearity, the target radius kappa* that maximises the margin
rho_kappa, with m_kappa, rho_kappa and the contraction factor A_s there,
and a Gram-spectrum proxy for approximate controllability of the
linearized system.

A1 is an upper Riemann sum.  In u = t^alpha it is (1/alpha) times the
integral over [0, T^alpha] of the supremum over the basis modes of
f(lam, u) = (lam + 1)^q E_(alpha,alpha)(-lam u).  (lam + 1)^q rises in
lam, and E_(alpha,alpha)(-x) is completely monotone, so falls, in
x >= 0 for 0 < alpha <= 1 (Schneider, Expo. Math. 14, 1996).  On a cell
[lam_j, lam_(j+1)] x [u_i, u_(i+1)] f is therefore at most
(lam_(j+1) + 1)^q E_(alpha,alpha)(-lam_j u_i), and

    A1 <= (1/alpha) sum_i (u_(i+1) - u_i)
              max_j (lam_(j+1) + 1)^q E_(alpha,alpha)(-lam_j u_i)

for every basis whose eigenvalues lie in [0, lam_max], evaluated in one
`ml` call.  The lam lattice stops at the basis's largest eigenvalue
lam_max: over all lam >= 0 the integrand grows like u^(-q) near u = 0,
and the sum would be infinite at q = 1.  With the cap u = 0 is an
ordinary cell and the bound is finite for every q in [0, 1].  At q = 0
the lam = 0 column wins every cell and the sum is
T^alpha / Gamma(alpha + 1), the closed form.  At q = 1/2 the bound lies
3-9% above the supremum's integral on the tested bases, far above the
relative error of `ml` (about 1e-11), so rounding cannot undo it.

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

# log-lattice nodes per decade of the cells of the A1 bound, in u and in
# lam: at 16 A1 lies 3.4% above the supremum's integral on example 1,
# at 32 2.4% for twice the time
_CELLS_PER_DECADE = 16

__all__ = [
    "HypothesisReport",
    "estimate_A1",
    "lipschitz_bracket",
    "pinv_gain",
    "g_alpha_norm",
    "hypothesis_report",
]


def _lattice(lo, hi):
    """0, the nodes 10^(k/N) from lo up to below hi, then hi.  The nodes
    are fixed, so a larger hi only adds cells and a multiple of N only
    splits them."""
    n = _CELLS_PER_DECADE
    k = np.arange(math.ceil(n * math.log10(lo)), n * math.log10(max(lo, hi)))
    nodes = 10.0 ** (k / n)
    return np.concatenate([[0.0], nodes[nodes < hi], [hi]])


def estimate_A1(basis, grid, alpha, q):
    """Upper bound on the integral over [0, T] of the kernel operator norm
    into the fractional power space of order q.

    The norm at time t is the supremum over basis modes of
    (lam + 1)^q * t^(alpha-1) * E_(alpha,alpha)(-lam t^alpha); the spectrum
    is shifted by one because the constant Neumann mode has eigenvalue
    zero.  The bound is an upper Riemann sum over cells in
    (lam, u = t^alpha) with lam up to the largest eigenvalue (module
    docstring); the u lattice starts inside the boundary layer of width
    1/lam_max.
    """
    alpha = check_order(alpha)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"fractional power q must be in [0, 1], got {q}")
    lam_max = float(basis.eigenvalues.max())
    u = _lattice(1e-3 / (lam_max + 1.0), grid.T**alpha)
    lam = _lattice(1e-3, lam_max)
    cell = (lam[1:] + 1.0) ** q * ml(alpha, alpha, -np.outer(u[:-1], lam[:-1]))
    return float(np.diff(u) @ cell.max(axis=1)) / alpha


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
            f"  A1 (kernel L1 bound)       : {self.a1:.6e}",
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
