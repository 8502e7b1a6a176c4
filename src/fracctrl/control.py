"""Control synthesis for the sub-diffusion system.

Discretizes the reachability map from piecewise-constant controls to the
state on a target region at time T, applies its Tikhonov-regularized
pseudo-inverse, and runs the outer loop that handles the nonlinearity.
The residual-update loop and the fixed-point control sequence are that
one loop, u_n = pinv(r_n) with one report row per simulated control,
and differ only in how they update r_n and when they stop.

The pseudo-inverse is the Tikhonov filter form u = V diag(sigma / (sigma^2
+ lambda)) U^T rw in one thin SVD Mw = U diag(sigma) V^T of the weighted
reachability matrix (Hansen, Rank-Deficient and Discrete Ill-Posed
Problems, SIAM 1998, sec. 4.2); the diagnostics' gain mu reads the same
filter.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    Field,
    _trapezoid_weights,
    actuator_coefficients,
    region_nodes,
    restrict,
    trace,
)
from .mittag import check_order
from .solver import NonlinearTerm, _step_weights, solve_semilinear

__all__ = [
    "ControlSignal",
    "ControllabilityOperator",
    "IterationReport",
    "ControlProblem",
    "GramConditionError",
    "assemble_H",
    "pinv_apply",
    "picard_sequence",
    "algorithm1",
    "boundary_error",
]

N_MAX = 50
DIVERGENCE_STREAK = 5


class GramConditionError(RuntimeError):
    """The regularized Gram matrix Mw Mw^T + lambda I is singular to
    working precision; carries its smallest eigenvalue and the rounding
    floor that eigenvalue did not clear."""

    def __init__(self, sigma_min, floor):
        self.sigma_min = sigma_min
        self.floor = floor
        super().__init__(
            f"regularized Gram matrix is numerically singular (smallest "
            f"eigenvalue {sigma_min:.3e}, rounding floor {floor:.3e})"
        )


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control: values[k] acts on [t_k, t_(k+1))."""

    values: np.ndarray
    grid: object

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.K,):
            raise ValueError(
                f"expected {self.grid.K} step values, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "values", values)

    def cost(self):
        """Squared L2(0,T) norm."""
        return float(np.sum(self.values**2) * self.grid.dt)


@dataclass
class ControllabilityOperator:
    """Discrete reachability map u -> state on the target region at T.

    M maps per-step control values to target node values; the
    pseudo-inverse acts in the weighted (discrete L2) inner product of the
    target subgrid, through the thin SVD of Mw = sqrt(weights) M.
    """

    M: np.ndarray  # (dofs, K)
    weights: np.ndarray  # (dofs,) quadrature weights of the target nodes
    grid: object
    lambda_reg: float = -1.0  # negative: use the trace-scaled default
    _svd: object = field(default=None, repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.M)):
            raise ValueError("reachability matrix has non-finite entries")
        sw = np.sqrt(self.weights)
        self.Mw = sw[:, None] * self.M
        if self.lambda_reg < 0.0:
            self.lambda_reg = 1e-8 * np.sum(self.Mw**2) / self.Mw.shape[0]

    def svd(self):
        """Thin SVD (U, sigma, Vt) of Mw, sigma descending, computed once."""
        if self._svd is None:
            self._svd = np.linalg.svd(self.Mw, full_matrices=False)
        return self._svd

    def filter_factors(self):
        """Tikhonov filter sigma / (sigma^2 + lambda_reg) of each singular
        value; 0 where sigma is 0, the pseudo-inverse's limit at
        lambda_reg = 0."""
        sig = self.svd()[1]
        return np.divide(sig, sig**2 + self.lambda_reg,
                         out=np.zeros_like(sig), where=sig > 0.0)

    def apply(self, u_values):
        """Forward map: target node values reached from the control."""
        return self.M @ np.asarray(u_values, dtype=float)

    def target_norm(self, r):
        return math.sqrt(float(np.sum(self.weights * np.asarray(r) ** 2)))


def assemble_H(basis, act, grid, target, alpha, lambda_reg=-1.0):
    """Reachability operator of the linear system at time T.

    Column k holds the target-node values of the response to a unit
    control on step k, computed exactly per mode through the primitive of
    the weakly singular kernel and synthesised at the nodes by the
    separable cosine rows, one small product per step.
    """
    alpha = check_order(alpha)
    b = actuator_coefficients(act, basis)
    Wd = _step_weights(basis, grid, alpha)
    d = basis.domain
    ix, iy = region_nodes(d, target)
    ex, ey = basis._factors
    # mode responses at time T to a unit control on step k use Wd[K-1-k]
    C = (b * Wd[::-1]).reshape(grid.K, basis.mx, basis.my)
    M = (ex[:, ix].T @ C @ ey[:, iy]).reshape(grid.K, -1).T
    # a one-node axis weighs 1, so a boundary segment gets its tangential
    # trapezoid weights
    w = np.outer(_trapezoid_weights(d.x[ix]), _trapezoid_weights(d.y[iy]))
    return ControllabilityOperator(
        M=M, weights=w.ravel(), grid=grid, lambda_reg=lambda_reg
    )


def pinv_apply(H, r):
    """Tikhonov-regularized pseudo-inverse control for a target residual.

    Returns the minimizer of |M u - r|^2 (weighted target norm) +
    lambda_reg |u|^2, u = V diag(filter) U^T rw.  It is unique when the
    Gram matrix Mw Mw^T + lambda_reg I is positive definite; its smallest
    eigenvalue is lambda_reg + sigma_min^2, or lambda_reg alone when the
    target has more nodes than the control has steps.  Singular values
    below max(dofs, K) eps sigma_max are rounding noise, so that
    eigenvalue must exceed the square of this floor.
    """
    r = np.asarray(r, dtype=float).ravel()
    dofs, K = H.M.shape
    if r.size != dofs:
        raise ValueError(f"residual has {r.size} values, target holds {dofs}")
    U, sig, Vt = H.svd()
    low = H.lambda_reg + (sig[-1] ** 2 if dofs <= K else 0.0)
    floor = (max(dofs, K) * np.finfo(float).eps * sig[0]) ** 2
    if low <= floor:
        raise GramConditionError(float(low), float(floor))
    rw = np.sqrt(H.weights) * r
    return ControlSignal(
        values=Vt.T @ (H.filter_factors() * (U.T @ rw)), grid=H.grid
    )


def boundary_error(traj, zd, gamma):
    """Discrete L2(Gamma) distance between the reached trace and zd."""
    prof = trace(traj.final_field(), gamma)
    zd = np.asarray(zd, dtype=float)
    diff = prof.values - zd
    w = _trapezoid_weights(prof.s)
    return math.sqrt(float(np.sum(w * diff**2)))


@dataclass
class IterationReport:
    """Outer-loop record: row n describes the control simulated at step n;
    `returned` is the index of the row whose control the loop returned."""

    residuals: list = field(default_factory=list)
    boundary_errors: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    control_diffs: list = field(default_factory=list)
    status: str = "running"
    returned: int = None

    @property
    def iterations(self):
        return len(self.residuals)

    @property
    def converged(self):
        return self.status == "converged"

    def contraction_ratios(self):
        d = self.control_diffs
        return [d[i] / d[i - 1] for i in range(1, len(d)) if d[i - 1] > 0.0]

    def summary(self):
        """The run's summary, in order: status, iteration count, and the
        boundary error, residual and cost of the returned row, which a
        loop that does not converge takes from its best row, not its
        last."""
        row = self.returned
        return {
            "status": self.status,
            "iterations": self.iterations,
            "boundary_error": self.boundary_errors[row],
            "residual": self.residuals[row],
            "cost": self.costs[row],
        }


@dataclass
class ControlProblem:
    """Everything an outer loop needs, in one place."""

    basis: object
    act: object
    grid: object
    alpha: float
    F: object
    omega_c: object
    gamma: object
    d_s: object  # GridPatch on omega_c
    zd: np.ndarray  # boundary target samples on gamma
    y0: object = None  # Field; default zero
    eps: float = 1e-3
    lambda_reg: float = -1.0
    n_max: int = N_MAX
    _operator: object = field(default=None, init=False, repr=False,
                              compare=False)  # see operator()

    def __post_init__(self):
        if self.y0 is None:
            self.y0 = Field.zero(self.basis.domain)

    def operator(self):
        """The reachability operator, assembled on the first call and
        shared by every later one, so the diagnostics and the outer loop
        also share its cached SVD.  The field holding it is not an init
        argument, so a problem made by `dataclasses.replace` assembles its
        own."""
        if self._operator is None:
            self._operator = assemble_H(
                self.basis, self.act, self.grid, self.omega_c,
                self.alpha, self.lambda_reg,
            )
        return self._operator


def _reached_values(problem, u_values, F):
    """Simulate the system from y0 and evaluate the final state on
    omega_c; returns (flattened target values, trajectory)."""
    traj = solve_semilinear(
        problem.y0, u_values, F, problem.act, problem.basis,
        problem.grid, problem.alpha,
    )
    return restrict(traj.final_field(), problem.omega_c).values.ravel(), traj


def _outer_loop(problem, update, stop, u0=None):
    """The outer iteration of both methods.

    r_1 = d_s, minus the free evolution of y0 when y0 is nonzero.  Step n
    simulates u_n = pinv(r_n) and records row n for that control (its
    diff |u_n - u_(n-1)| is nan when u0 is None), then stops once
    stop(report) <= eps or sets r_(n+1) = update(r_n, u_n, reached,
    d_s - reached).  A non-finite residual, or one that grows at
    DIVERGENCE_STREAK consecutive steps, is divergence.  A loop that does
    not converge returns its best row's control and trajectory.
    """
    if problem.n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {problem.n_max}")
    H = problem.operator()
    ds_vec = problem.d_s.values.ravel()
    r = ds_vec
    if np.any(problem.y0.values != 0.0):
        r = r - _reached_values(problem, None, NonlinearTerm.none())[0]

    report = IterationReport()
    u_prev = u0
    best_u = best_traj = None
    prev_res = math.inf
    growth_streak = 0
    for _ in range(problem.n_max):
        u = pinv_apply(H, r)
        reached, traj = _reached_values(problem, u.values, problem.F)
        # a state or control beyond floating point overflows the norms
        # of this row; a non-finite residual is recorded as inf
        with np.errstate(over="ignore", invalid="ignore"):
            resid_vec = ds_vec - reached
            res = H.target_norm(resid_vec)
            report.residuals.append(res if math.isfinite(res) else math.inf)
            report.boundary_errors.append(
                boundary_error(traj, problem.zd, problem.gamma)
            )
            report.costs.append(u.cost())
            report.control_diffs.append(
                math.nan if u_prev is None else
                math.sqrt(float(np.sum((u.values - u_prev.values) ** 2))
                          * problem.grid.dt)
            )
        u_prev = u

        if best_u is None or res < report.residuals[report.returned]:
            best_u, best_traj = u, traj
            report.returned = report.iterations - 1
        growth_streak = growth_streak + 1 if res > prev_res else 0
        prev_res = res
        if not math.isfinite(res) or growth_streak >= DIVERGENCE_STREAK:
            report.status = "diverged"
            return best_u, best_traj, report
        if stop(report) <= problem.eps:
            report.status = "converged"
            report.returned = report.iterations - 1
            return u, traj, report
        r = update(r, u, reached, resid_vec)
    report.status = "max-iterations"
    return best_u, best_traj, report


def algorithm1(problem):
    """Residual-update loop: repeatedly re-aim the pseudo-inverse at an
    accumulated residual until the reached state stalls within eps.

    r_1 = d_s (minus the free evolution of y0 when present); then
    u_n = pinv(r_n), r_(n+1) = r_n + (d_s - reached(u_n)); the stopping
    metric |r_(n+1) - r_n| is exactly the reached-state error on omega_c.
    """
    return _outer_loop(
        problem, lambda r, u, reached, resid_vec: r + resid_vec,
        lambda report: report.residuals[-1],
    )


def picard_sequence(problem):
    """Fixed-point control sequence for the semilinear system with y0 = 0:
    u_(n+1) = pinv(d_s - nonlinear correction reached under u_n), from
    u_0 = 0, whose correction is 0, so u_1 = pinv(d_s).

    The correction (the convolution of the kernel with F(y) restricted to
    the target) is recovered from the simulation as reached(u_n) - M u_n,
    which is exact for the discrete mild solution.  The sequence stops
    once |u_n - u_(n-1)| <= eps.
    """
    if np.any(problem.y0.values != 0.0):
        raise ValueError("the fixed-point sequence requires y0 = 0")
    ds_vec = problem.d_s.values.ravel()
    return _outer_loop(
        problem,
        lambda r, u, reached, resid_vec: (
            ds_vec - (reached - problem.operator().apply(u.values))
        ),
        lambda report: report.control_diffs[-1],
        u0=ControlSignal(np.zeros(problem.grid.K), problem.grid),
    )
