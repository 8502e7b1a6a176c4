"""Numerical verification of the standing hypotheses of the control loop.

Estimates the constants that enter the small-data contraction argument:
the L1-in-time kernel norm A1, the pseudo-inverse gain mu, the L2 norm of
the scalar kernel g_alpha, an empirical Lipschitz modulus of the
nonlinearity, the admissible target radius kappa with its margins m_kappa
and rho_kappa, the contraction factor A_s, and a Gram-spectrum proxy for
approximate controllability of the linearized system.

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

The Lipschitz table F_N of F = c y^p is sampled on seed-fixed pairs
z = a v1, y = b v2 of unit fields v1, v2 and scalars a, b.  Every norm
it needs is a polynomial in (a, b) whose coefficients are per-sample
moments of the two fields, computed once, so each radius pair costs a
few operations on vectors of length n_samples.
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
# sample pairs behind the F_N table: one default, so `run`'s manifest and
# `verify` report the same constants for the same config and seed
FN_SAMPLES = 100

__all__ = [
    "EnvelopeError",
    "HypothesisReport",
    "FNTable",
    "Constants",
    "GramSpectrum",
    "estimate_A1",
    "estimate_FN",
    "compute_constants",
    "gram_spectrum",
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
    lam = np.unique(np.asarray(basis.eigenvalues, dtype=float))
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


@dataclass(frozen=True)
class FNTable:
    """Empirical Lipschitz modulus of the nonlinearity on nested balls.

    values[i, j] is a randomized lower bound on
    sup { |F(z) - F(y)| / |z - y| : |z| <= radii[i], |y| <= radii[j] }
    in the discrete L2 norm.
    """

    radii: np.ndarray
    values: np.ndarray
    kind: str

    def fn_zero(self, i):
        """F_N(radii[i], radii[0]), the modulus against the table's
        smallest ball, which stands in for the zero state: it is F_N(r, 0)
        only when radii[0] = 0."""
        return float(self.values[i, 0])


def estimate_FN(F, radii, basis, n_samples=FN_SAMPLES, seed=0):
    """Randomized estimate of the Lipschitz modulus table of F.

    Samples smooth random fields (spectral coefficients damped by
    (1 + lam)^-1) on nested balls and records the largest Lipschitz ratio
    seen; the result is a seed-fixed lower bound on the true supremum, not
    a certificate.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0 or np.any(radii < 0.0):
        raise ValueError("radii must be a non-empty 1-D array of radii >= 0")
    if not np.all(np.diff(radii) > 0.0):
        raise ValueError("radii must be strictly increasing")
    n = radii.size
    if F.is_zero:
        return FNTable(radii=radii, values=np.zeros((n, n)), kind="none")

    domain = basis.domain
    wx, wy = domain.quad_weights()
    w = np.outer(wx, wy)
    lam = np.asarray(basis.eigenvalues, dtype=float)
    damp = (1.0 + lam).reshape(basis.mx, basis.my) ** -1.0
    rng = np.random.default_rng(seed)

    def sample_unit():
        coeffs = rng.standard_normal((basis.mx, basis.my)) * damp
        v = basis.from_spectral(coeffs)
        nrm = math.sqrt(float(np.sum(w * v**2)))
        return v / nrm

    # sample pair s is z = a v1[s], y = b v2[s] with the scalars a = r1
    # s1[s], b = r2 s2[s] of a radius pair (r1, r2)
    v1 = np.empty((n_samples, domain.nx, domain.ny))
    v2 = np.empty_like(v1)
    s1, s2 = np.empty(n_samples), np.empty(n_samples)
    for s in range(n_samples):
        v1[s], v2[s] = sample_unit(), sample_unit()
        s1[s], s2[s] = rng.uniform(), rng.uniform()
    # The damping leaves the constant mode dominant, so v2 is often
    # close to +-v1 and z - y, F(z) - F(y) are small differences of large
    # fields.  Each norm is therefore written in v1 and the difference
    # field e = v2 - sig v1, sig = sign(v1 . v2), where that cancellation
    # is gone: z - y = (a - sig b) v1 - b e, and F(z) - F(y) is a form of
    # degree p in (v1, e).  The squared L2 norm of a form
    # sum_k c_k v1^(d-k) e^k is sum_(k,l) c_k c_l M(2d-k-l, k+l), with the
    # per-sample moments M(k, l) = sum w v1^k e^l.  Every moment needed
    # has k + l even, so it is one einsum over products of the three
    # buffers v1^2, e^2 and v1 e; no stack of powers is held.
    sig = np.where(np.einsum("ij,sij,sij->s", w, v1, v2) < 0.0, -1.0, 1.0)
    e = v2  # overwritten in place: v2 is not needed again
    e -= sig[:, None, None] * v1
    sq1, sqe, cross = v1 * v1, e * e, v1 * e
    p = F.power
    moments = {}
    for q in {2, 2 * p}:
        for k in range(q + 1):
            j = min(k, q - k)
            ops = ([cross] * j + [sq1] * ((k - j) // 2)
                   + [sqe] * ((q - k - j) // 2))
            spec = ",".join(["ij"] + ["sij"] * len(ops)) + "->s"
            moments[k, q - k] = np.einsum(spec, w, *ops)

    def sqnorm(c):
        """Per-sample sum of w (sum_k c[k] v1^(d-k) e^k)^2, d = len(c)-1."""
        d = len(c) - 1
        return sum(
            c[k] * c[l] * moments[2 * d - k - l, k + l]
            for k in range(d + 1) for l in range(d + 1)
        )

    values = np.zeros((n, n))
    for i, r1 in enumerate(radii):
        for j, r2 in enumerate(radii):
            a, b = r1 * s1, r2 * s2
            lin = a - sig * b  # z - y = lin v1 - b e
            dnorm = np.sqrt(sqnorm([lin, -b]))
            keep = dnorm != 0.0
            if not keep.any():
                continue
            a, b, sg, lin, dnorm = (
                x[keep] for x in (a, b, sig, lin, dnorm)
            )
            # F(z) - F(y) = c (a^p v1^p - b^p (sg v1 + e)^p); the v1^p
            # coefficient a^p - (sg b)^p is factored through lin
            form = [lin * sum(a ** (p - 1 - m) * (sg * b) ** m
                              for m in range(p))]
            form += [-(b**p) * math.comb(p, k) * sg ** (p - k)
                     for k in range(1, p + 1)]
            df = abs(F.coeff) * np.sqrt(sqnorm(form))
            values[i, j] = float(np.max(df / dnorm))
    return FNTable(radii=radii, values=values, kind=F.kind)


@dataclass(frozen=True)
class Constants:
    """Small-data constants: the admissible target radius and its margins."""

    kappa: float
    m_kappa: float
    rho_kappa: float
    a_s: float
    admissible: bool
    sup_fn: float


def compute_constants(a1, mu, g_norm, fn_table):
    """Largest admissible target radius kappa and the derived constants.

    kappa is the largest radius on the table grid with
    sup_(theta <= kappa) F_N(theta, r_0) < 1 / (A1 + A2), A2 = mu * |g|,
    where r_0, the table's smallest radius (`FNTable.fn_zero`), stands in
    for the zero state of the theory's F_N(theta, 0); then
    m_kappa = (kappa/mu) (1 - A1 sup F_N),
    rho_kappa = (kappa/mu) (1 - (A1 + A2) sup F_N) and
    A_s = mu |g| sup F_N / (1 - A1 sup F_N).  When no radius qualifies the
    result carries admissible=False (hypothesis violated, not an error).
    """
    if a1 < 0.0 or mu <= 0.0 or g_norm < 0.0:
        raise ValueError("a1, g_norm must be >= 0 and mu > 0")
    a2 = mu * g_norm
    limit = 1.0 / (a1 + a2)
    best = None
    running_sup = 0.0
    for i, r in enumerate(fn_table.radii):
        running_sup = max(running_sup, fn_table.fn_zero(i))
        if running_sup < limit:
            best = (r, running_sup)
    if best is None:
        return Constants(
            kappa=0.0, m_kappa=0.0, rho_kappa=0.0, a_s=math.inf,
            admissible=False, sup_fn=float(fn_table.fn_zero(0)),
        )
    kappa, sup_fn = best
    m_kappa = (kappa / mu) * (1.0 - a1 * sup_fn)
    rho_kappa = (kappa / mu) * (1.0 - (a1 + a2) * sup_fn)
    a_s = a2 * sup_fn / (1.0 - a1 * sup_fn)
    return Constants(
        kappa=kappa, m_kappa=m_kappa, rho_kappa=rho_kappa, a_s=a_s,
        admissible=True, sup_fn=sup_fn,
    )


@dataclass(frozen=True)
class GramSpectrum:
    """Extreme singular values of the reachability matrix."""

    sigma_min: float
    sigma_max: float
    effective_rank: int
    n_dofs: int
    tol: float

    @property
    def verdict(self):
        if self.sigma_max <= 0.0 or self.sigma_min <= 0.0:
            return "violated"
        return "satisfied"


def gram_spectrum(H, tol=1e-8):
    """Singular-value summary of the weighted reachability matrix: the
    discrete proxy for approximate controllability of the linear system."""
    sig = H.svd()[1]
    smax = float(sig[0]) if sig.size else 0.0
    smin = float(sig[-1]) if sig.size else 0.0
    rank = int(np.count_nonzero(sig > tol * smax)) if smax > 0.0 else 0
    return GramSpectrum(
        sigma_min=smin, sigma_max=smax, effective_rank=rank,
        n_dofs=H.Mw.shape[0], tol=tol,
    )


@dataclass
class HypothesisReport:
    """Everything the verify command prints, in one structure."""

    a1: float
    mu: float
    g_norm: float
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
            f"  kappa (admissible radius)  : {self.kappa:.6e}",
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


def hypothesis_report(problem, q=0.5, radii=None, n_samples=FN_SAMPLES,
                      seed=0):
    """Full hypothesis check for a control problem.

    Verdicts: 'controllability' from the Gram spectrum (violated when the
    reachability matrix is identically zero), 'small-data-contraction'
    from the existence of an admissible radius with A_s < 1.
    """
    if radii is None:
        radii = np.geomspace(1e-4, 1.0, 9)
    H = problem.operator()
    spectrum = gram_spectrum(H)
    a1 = estimate_A1(problem.basis, problem.grid, problem.alpha, q)
    mu = pinv_gain(H)
    g_norm = g_alpha_norm(problem.grid, problem.alpha)
    fn = estimate_FN(
        problem.F, radii, problem.basis, n_samples=n_samples, seed=seed
    )
    if mu > 0.0 and math.isfinite(mu):
        consts = compute_constants(a1, mu, g_norm, fn)
    else:
        # dead actuator: no control authority, so no admissible radius
        consts = Constants(
            kappa=0.0, m_kappa=0.0, rho_kappa=0.0, a_s=math.inf,
            admissible=False, sup_fn=float(fn.fn_zero(0)),
        )
    verdicts = {
        "controllability": spectrum.verdict,
        "small-data-contraction": (
            "satisfied" if consts.admissible and consts.a_s < 1.0
            else "violated"
        ),
    }
    return HypothesisReport(
        a1=a1, mu=mu, g_norm=g_norm, kappa=consts.kappa,
        m_kappa=consts.m_kappa, rho_kappa=consts.rho_kappa, a_s=consts.a_s,
        gram_sigma_min=spectrum.sigma_min,
        gram_sigma_max=spectrum.sigma_max,
        effective_rank=spectrum.effective_rank, verdicts=verdicts,
    )
