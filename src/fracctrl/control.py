"""Control synthesis for the sub-diffusion system.

Discretizes the reachability map from piecewise-constant controls to the
state on a target region at time T, applies its Tikhonov-regularized
pseudo-inverse, and runs the two outer iterations that handle the
nonlinearity: the fixed-point control sequence and the residual-update
loop.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    Field,
    _trapezoid_weights,
    actuator_coefficients,
    region_nodes,
    trace,
)
from .mittag import check_order
from .solver import _kernel_tables, solve_linear, solve_semilinear

__all__ = [
    "ControlSignal",
    "ControllabilityOperator",
    "IterationReport",
    "ControlProblem",
    "GramConditionError",
    "assemble_H",
    "pinv_apply",
    "linear_control",
    "picard_sequence",
    "algorithm1",
    "boundary_error",
]

N_MAX = 50
STOP_METRICS = ("l2", "im")
TARGET_MODES = ("omega", "gamma")
DIVERGENCE_STREAK = 5
CONTROL_NORM_BOUND = 1e8


class GramConditionError(RuntimeError):
    """Gram factorization failed; carries the smallest eigenvalue seen."""

    def __init__(self, sigma_min):
        self.sigma_min = sigma_min
        super().__init__(
            f"regularized Gram matrix is not positive definite "
            f"(smallest eigenvalue {sigma_min:.3e})"
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

    def norm(self):
        return math.sqrt(self.cost())


def _target_dofs(basis, target):
    """Evaluation matrix of all modes at the target's grid nodes and the
    nodes' quadrature weights (a one-node axis weighs 1, so a boundary
    segment gets its tangential trapezoid weights)."""
    d = basis.domain
    ix, iy = region_nodes(d, target)
    ex, ey = basis._factors
    E = np.einsum("ip,jq->pqij", ex[:, ix], ey[:, iy]).reshape(
        ix.size * iy.size, basis.mx * basis.my
    )
    w = np.outer(_trapezoid_weights(d.x[ix]), _trapezoid_weights(d.y[iy]))
    return E, w.ravel()


@dataclass
class ControllabilityOperator:
    """Discrete reachability map u -> state on the target region at T.

    M maps per-step control values to target node values; the Gram matrix
    and pseudo-inverse act in the weighted (discrete L2) inner product of
    the target subgrid.
    """

    M: np.ndarray  # (dofs, K)
    weights: np.ndarray  # (dofs,) quadrature weights of the target nodes
    grid: object
    target: object
    lambda_reg: float = -1.0  # negative: use the trace-scaled default
    _chol: object = field(default=None, repr=False)
    _sigma: object = field(default=None, repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.M)):
            raise ValueError("reachability matrix has non-finite entries")
        sw = np.sqrt(self.weights)
        self.Mw = sw[:, None] * self.M
        self.G = self.Mw @ self.Mw.T
        if self.lambda_reg < 0.0:
            self.lambda_reg = 1e-8 * np.trace(self.G) / self.G.shape[0]

    def _factorization(self):
        """Lower Cholesky factor of G + lambda_reg I, computed once."""
        if self._chol is None:
            A = self.G + self.lambda_reg * np.eye(self.G.shape[0])
            try:
                self._chol = np.linalg.cholesky(A)
            except np.linalg.LinAlgError as exc:
                sigma = float(np.linalg.eigvalsh(A)[0])
                raise GramConditionError(sigma) from exc
        return self._chol

    def _singular_values(self):
        """Singular values of Mw (descending), computed once."""
        if self._sigma is None:
            self._sigma = np.linalg.svd(self.Mw, compute_uv=False)
        return self._sigma

    def apply(self, u_values):
        """Forward map: target node values reached from the control."""
        return self.M @ np.asarray(u_values, dtype=float)

    def target_norm(self, r):
        return math.sqrt(float(np.sum(self.weights * np.asarray(r) ** 2)))


def assemble_H(basis, act, grid, target, alpha, lambda_reg=-1.0):
    """Reachability operator of the linear system at time T.

    Column k holds the target-node values of the response to a unit
    control on step k, computed exactly per mode through the primitive of
    the weakly singular kernel.
    """
    alpha = check_order(alpha)
    b = actuator_coefficients(act, basis)
    _, Wd = _kernel_tables(basis, grid, alpha)
    # response of mode m at time T to a unit control on step k
    C = (b[None, :] * Wd[::-1]).T  # (modes, K); column k uses Wd[K-1-k]
    E, w = _target_dofs(basis, target)
    return ControllabilityOperator(
        M=E @ C, weights=w, grid=grid, target=target, lambda_reg=lambda_reg
    )


def pinv_apply(H, r):
    """Tikhonov-regularized pseudo-inverse control for a target residual.

    Returns the minimizer of |M u - r|^2 (weighted target norm) +
    lambda_reg |u|^2 in its dual form u = Mw^T (G + lambda I)^(-1) rw.
    """
    r = np.asarray(r, dtype=float).ravel()
    if r.size != H.M.shape[0]:
        raise ValueError(
            f"residual has {r.size} values, target holds {H.M.shape[0]}"
        )
    rw = np.sqrt(H.weights) * r
    L = H._factorization()
    # numpy has no triangular solver; the Gram matrix has at most a few
    # hundred rows, so two general solves cost little
    dual = np.linalg.solve(L.T, np.linalg.solve(L, rw))
    return ControlSignal(values=H.Mw.T @ dual, grid=H.grid)


def linear_control(H, d_s):
    """Control steering the linear system (F = 0, y0 = 0) to d_s at T."""
    target = d_s.values if hasattr(d_s, "values") else d_s
    return pinv_apply(H, np.asarray(target).ravel())


def boundary_error(traj, zd, gamma):
    """Discrete L2(Gamma) distance between the reached trace and zd."""
    prof = trace(traj.final_field(), gamma)
    zd = np.asarray(zd, dtype=float)
    diff = prof.values - zd
    w = _trapezoid_weights(prof.s)
    return math.sqrt(float(np.sum(w * diff**2)))


@dataclass
class IterationReport:
    """Per-iteration record of an outer control loop."""

    residuals: list = field(default_factory=list)
    boundary_errors: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    control_diffs: list = field(default_factory=list)
    status: str = "running"

    @property
    def iterations(self):
        return len(self.residuals)

    @property
    def converged(self):
        return self.status == "converged"

    def contraction_ratios(self):
        d = self.control_diffs
        return [d[i] / d[i - 1] for i in range(1, len(d)) if d[i - 1] > 0.0]


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
    stop_metric: str = "l2"  # "l2": reached-state error on omega_c;
    # "im": pre-image norm |pinv(r_(n+1) - r_n)|_U, which ignores target
    # components outside the reachable set
    target_mode: str = "omega"  # "omega": steer the extension d_s on
    # omega_c (the default workflow); "gamma": aim the reachability
    # operator directly at the boundary trace target zd
    _operator: object = field(default=None, init=False, repr=False,
                              compare=False)  # see operator()

    def _check_metric(self):
        if self.stop_metric not in STOP_METRICS:
            raise ValueError(
                f"stop_metric must be one of {STOP_METRICS}, "
                f"got {self.stop_metric!r}"
            )
        if self.target_mode not in TARGET_MODES:
            raise ValueError(
                f"target_mode must be one of {TARGET_MODES}, "
                f"got {self.target_mode!r}"
            )

    def __post_init__(self):
        if self.y0 is None:
            self.y0 = Field.zero(self.basis.domain)

    def target_region(self):
        return self.gamma if self.target_mode == "gamma" else self.omega_c

    def target_values(self):
        """Flat target vector in the space H acts on."""
        if self.target_mode == "gamma":
            return np.asarray(self.zd, dtype=float).ravel()
        return self.d_s.values.ravel()

    def operator(self):
        """The reachability operator, assembled on the first call and
        shared by every later one, so the diagnostics and the outer loop
        also share its cached SVD and Cholesky factor.  The field holding
        it is not an init argument, so a problem made by
        `dataclasses.replace` assembles its own."""
        if self._operator is None:
            self._operator = assemble_H(
                self.basis, self.act, self.grid, self.target_region(),
                self.alpha, self.lambda_reg,
            )
        return self._operator


def _on_target(problem, traj):
    """Final state of a trajectory at the target region's nodes, flattened
    in the order H's rows use."""
    ix, iy = region_nodes(problem.basis.domain, problem.target_region())
    return traj.final_field().values[np.ix_(ix, iy)].ravel()


def _reached_values(problem, u):
    """Simulate the semilinear system and evaluate the final state on the
    target region; returns (flattened target values, trajectory)."""
    traj = solve_semilinear(
        problem.y0, u.values, problem.F, problem.act, problem.basis,
        problem.grid, problem.alpha,
    )
    return _on_target(problem, traj), traj


def algorithm1(problem):
    """Residual-update loop: repeatedly re-aim the pseudo-inverse at an
    accumulated residual until the reached state stalls within eps.

    r_1 = d_s (minus the free evolution of y0 when present); then
    u_n = pinv(r_n), r_(n+1) = r_n + (d_s - reached(u_n)); the stopping
    metric |r_(n+1) - r_n| is exactly the reached-state error on omega_c.
    """
    problem._check_metric()
    H = problem.operator()
    ds_vec = problem.target_values()
    r = ds_vec.copy()
    if np.any(problem.y0.values != 0.0):
        free = solve_linear(
            problem.y0, None, problem.act, problem.basis, problem.grid,
            problem.alpha,
        )
        r = r - _on_target(problem, free)

    report = IterationReport()
    u_prev = None
    best_u, best_traj, best_res = None, None, math.inf
    prev_res = math.inf
    growth_streak = 0
    for _ in range(problem.n_max):
        u = pinv_apply(H, r)
        reached, traj = _reached_values(problem, u)
        if not np.all(np.isfinite(reached)):
            report.residuals.append(math.inf)
            report.status = "diverged"
            return best_u, best_traj, report
        resid_vec = ds_vec - reached
        res = H.target_norm(resid_vec)

        report.residuals.append(res)
        report.boundary_errors.append(
            boundary_error(traj, problem.zd, problem.gamma)
        )
        report.costs.append(u.cost())
        if u_prev is not None:
            report.control_diffs.append(
                math.sqrt(float(np.sum((u.values - u_prev.values) ** 2))
                          * problem.grid.dt)
            )
        u_prev = u

        if res < best_res:
            best_u, best_traj, best_res = u, traj, res
        # divergence = the residual growing at each of DIVERGENCE_STREAK
        # consecutive iterations (transient bounces are tolerated)
        if res > prev_res:
            growth_streak += 1
            if growth_streak >= DIVERGENCE_STREAK:
                report.status = "diverged"
                return best_u, best_traj, report
        else:
            growth_streak = 0
        prev_res = res
        if problem.stop_metric == "im":
            # |r_(n+1) - r_n| measured through the pseudo-inverse, i.e. as
            # the control adjustment the residual update still demands
            stop_val = pinv_apply(H, resid_vec).norm()
        else:
            stop_val = res
        if stop_val <= problem.eps:
            report.status = "converged"
            return u, traj, report
        r = r + resid_vec
    report.status = "max-iterations"
    return best_u, best_traj, report


def picard_sequence(problem):
    """Fixed-point control sequence for the semilinear system with y0 = 0:
    u_(n+1) = pinv(d_s - nonlinear correction reached under u_n).

    The correction (the convolution of the kernel with F(y) restricted to
    the target) is recovered from the simulation as reached(u_n) - M u_n,
    which is exact for the discrete mild solution.
    """
    problem._check_metric()
    if np.any(problem.y0.values != 0.0):
        raise ValueError("the fixed-point sequence requires y0 = 0")
    H = problem.operator()
    ds_vec = problem.target_values()

    report = IterationReport()
    u = ControlSignal(np.zeros(problem.grid.K), problem.grid)
    for _ in range(problem.n_max):
        reached, traj = _reached_values(problem, u)
        if not np.all(np.isfinite(reached)):
            report.status = "diverged"
            return u, traj, report
        nonlinear = reached - H.apply(u.values)
        u_next = pinv_apply(H, ds_vec - nonlinear)
        if u_next.norm() > CONTROL_NORM_BOUND:
            # return the control that produced traj, not the runaway one
            report.status = "diverged"
            return u, traj, report

        diff = math.sqrt(
            float(np.sum((u_next.values - u.values) ** 2)) * problem.grid.dt
        )
        resid = H.target_norm(ds_vec - reached)
        report.residuals.append(resid)
        report.boundary_errors.append(
            boundary_error(traj, problem.zd, problem.gamma)
        )
        report.costs.append(u_next.cost())
        report.control_diffs.append(diff)
        u = u_next
        if diff <= problem.eps:
            report.status = "converged"
            break
    else:
        report.status = "max-iterations"
    # one confirming simulation with the accepted control, so the returned
    # control, trajectory and last report row all describe the same run
    reached, traj = _reached_values(problem, u)
    report.residuals[-1] = H.target_norm(ds_vec - reached)
    report.boundary_errors[-1] = boundary_error(
        traj, problem.zd, problem.gamma
    )
    return u, traj, report
