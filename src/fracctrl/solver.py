"""Forward simulation of Caputo sub-diffusion in mild (Volterra) form.

The linear part propagates each eigenmode exactly through Mittag-Leffler
symbols, so piecewise-constant controls incur no time-stepping error.  The
per-mode kernel tables depend only on (basis, grid, alpha); they are built
once per problem, each with one Mittag-Leffler call over the whole (time
node x distinct eigenvalue) array.  The control drive of every node is one
Toeplitz product of the step values with the step weights, taken before
any step; the semilinear solve starts from that linear response, and its
steps integrate F only, by product integration with inner Picard sweeps
per step, one nodal/spectral round trip each.  A step whose sweeps do not
settle keeps its predictor, the explicit step with the nonlinearity frozen
at the step start.  An independent
finite-difference L1 solver is provided for cross-validation; it is the
one part of the package that needs scipy (sparse LU), which it imports
when called.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .domain import Field, actuator_coefficients
from .mittag import check_order, ml

__all__ = [
    "TimeGrid",
    "NonlinearTerm",
    "Trajectory",
    "GridTrajectory",
    "SemilinearDivergenceError",
    "solve_linear",
    "solve_semilinear",
    "l1_oracle_solve",
    "TOL_PICARD",
    "MAX_SWEEPS",
]

TOL_PICARD = 1e-10
MAX_SWEEPS = 50


class SemilinearDivergenceError(RuntimeError):
    """Inner Picard sweeps failed to contract within the sweep budget."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = k T / K on [0, T]."""

    T: float
    K: int

    def __post_init__(self):
        if not self.T > 0.0:
            raise ValueError("horizon must be positive")
        if self.K < 2:
            raise ValueError("need at least 2 time steps")

    @property
    def dt(self):
        return self.T / self.K

    @property
    def nodes(self):
        return np.linspace(0.0, self.T, self.K + 1)


@dataclass(frozen=True)
class NonlinearTerm:
    """Pointwise source nonlinearity F(y) with F(0) = 0."""

    kind: str
    coeff: float = 1.0
    power: int = 2

    @classmethod
    def none(cls):
        return cls(kind="none")

    @classmethod
    def square(cls):
        return cls(kind="power", coeff=1.0, power=2)

    @classmethod
    def scaled_power(cls, coeff, power):
        if power not in (2, 3):
            raise ValueError("supported powers are 2 and 3")
        return cls(kind="power", coeff=float(coeff), power=power)

    @property
    def is_zero(self):
        return self.kind == "none"

    def __call__(self, y):
        if self.is_zero:
            return np.zeros_like(y)
        return self.coeff * y**self.power


def _control_values(u, steps):
    """Per-step control values from None, an array, or a ControlSignal."""
    if u is None:
        return np.zeros(steps)
    values = np.asarray(getattr(u, "values", u), dtype=float)
    if values.shape != (steps,):
        raise ValueError(
            f"control has {values.shape} values but the grid has "
            f"{steps} steps"
        )
    return values


@dataclass
class Trajectory:
    """Spectral-coefficient snapshots of the state at every grid node."""

    basis: object
    grid: TimeGrid
    coeffs: np.ndarray  # shape (K+1, mx*my)
    control: np.ndarray  # per-step values that generated the trajectory

    def snapshot(self, n):
        c = self.coeffs[n].reshape(self.basis.mx, self.basis.my)
        return Field(self.basis.domain, self.basis.from_spectral(c))

    def final_field(self):
        return self.snapshot(self.grid.K)


@lru_cache(maxsize=8)
def _kernel_tables(basis, grid, alpha):
    """Read-only mode/time tables (E1, Wd) of the propagator symbols.

    E1[n, m] = E_(a,1)(-lam_m t_n^a).  With W[n, m] = t_n^a E_(a,a+1)(-lam_m
    t_n^a), the primitive of the weakly singular kernel, Wd[k] = W[k+1] -
    W[k] is the exact weight of step [t_(n-k-1), t_(n-k)] at observation
    time t_n.  The tables depend only on the frozen (basis, grid, alpha),
    so every simulation and operator of one problem shares one build.
    """
    # t^alpha from Python floats keeps the C library's pow (numpy's
    # vectorised power can differ in the last bit); t = 0 gives z = 0,
    # so E1[0] = 1 and W[0] = 0 exactly.  The tables are evaluated over
    # the distinct eigenvalues (a square basis repeats most of them),
    # which halves the evaluator's whole-array work space, and spread to
    # the modes by `take`, which keeps them C-ordered: the history sums
    # reduce over rows, and their rounding depends on the layout.
    ta = np.array([t**alpha for t in grid.nodes.tolist()])
    lam, mode = np.unique(basis.eigenvalues, return_inverse=True)
    z = -np.outer(ta, lam)
    E1 = np.take(ml(alpha, 1.0, z), mode, axis=1)
    W = ml(alpha, alpha + 1.0, z)
    W *= ta[:, None]
    Wd = np.take(np.diff(W, axis=0), mode, axis=1)
    E1.flags.writeable = False
    Wd.flags.writeable = False
    return E1, Wd


def solve_linear(y0, u, act, basis, grid, alpha):
    """Exact-in-time mild solution with F = 0 and piecewise-constant u."""
    alpha = check_order(alpha)
    b = actuator_coefficients(act, basis)
    c0 = y0.coefficients(basis).ravel()
    E1, Wd = _kernel_tables(basis, grid, alpha)
    uvals = _control_values(u, grid.K)

    # step k of the control sees kernel weight Wd[n-1-k] at t_n, so the
    # drive is L @ Wd with the lower-triangular Toeplitz matrix
    # L[i, j] = u[i-j]: a reversed sliding window over the zero-padded
    # values, a strided view that allocates nothing of size K x K
    padded = np.concatenate([np.zeros(grid.K - 1), uvals])
    drive = sliding_window_view(padded, grid.K)[:, ::-1] @ Wd
    drive *= b
    coeffs = E1 * c0
    coeffs[1:] += drive
    return Trajectory(basis=basis, grid=grid, coeffs=coeffs, control=uvals)


def solve_semilinear(y0, u, F, act, basis, grid, alpha):
    """Mild solution with a pointwise nonlinearity by product integration.

    The linear response (free evolution plus control drive) comes from
    `solve_linear`; the steps integrate F only.  F(y) is treated as
    constant on each step: the predictor uses the value at the step
    start, then inner Picard sweeps replace it with the average of the
    step endpoints until the state update stalls below TOL_PICARD.
    """
    lin = solve_linear(y0, u, act, basis, grid, alpha)
    if F.is_zero:
        return lin
    Wd = _kernel_tables(basis, grid, check_order(alpha))[1]

    def project(nodal):
        return basis.to_spectral(nodal).ravel()

    def nodal(cvec):
        return basis.from_spectral(cvec.reshape(basis.mx, basis.my))

    # each step overwrites its row of the linear response, which no later
    # step reads
    coeffs = lin.coeffs
    f = np.empty((grid.K, coeffs.shape[1]))  # per-step source f_k
    # F overflows where the state runs away; the finiteness checks below
    # act on that, so the floating-point warnings are silenced once here
    with np.errstate(over="ignore", invalid="ignore"):
        f_prev = project(F(nodal(coeffs[0])))
        for n in range(1, grid.K + 1):
            k = n - 1
            base = coeffs[n]
            if k > 0:
                # step j's source sees kernel weight Wd[n-1-j]
                base += np.einsum("km,km->m", f[:k], Wd[n - 1 : 0 : -1])
            # predictor: F at the step start
            predictor = base + f_prev * Wd[0]
            state = predictor
            prev_delta = math.inf
            settled = False
            growth = 0
            for _ in range(MAX_SWEEPS):
                fk = 0.5 * (f_prev + project(F(nodal(state))))
                new_state = base + fk * Wd[0]
                step = new_state - state
                # sqrt(x @ x) is what np.linalg.norm computes for a real
                # vector, without its dispatch; a non-finite state gives
                # a non-finite delta
                delta = math.sqrt(step @ step)
                state = new_state
                if not math.isfinite(delta):
                    break
                scale = max(1.0, math.sqrt(state @ state))
                if delta <= TOL_PICARD * scale:
                    settled = True
                    break
                if (delta >= 0.5 * prev_delta
                        and delta <= 1e4 * TOL_PICARD * scale):
                    # contraction has hit the rounding floor of the
                    # nodal/spectral round trip; further sweeps cannot
                    # improve
                    settled = True
                    break
                # two consecutive growing updates: the sweep map is
                # expanding at this amplitude; stop without burning the
                # sweep budget
                growth = growth + 1 if delta > prev_delta else 0
                if growth >= 2:
                    break
                prev_delta = delta
            if not settled:
                # the averaged step equation has no reachable fixed point
                # at this amplitude; keep the explicit product-integration
                # step (nonlinearity frozen at the step start), guarding
                # against runaway growth
                state = predictor
                norm = math.sqrt(state @ state)
                if not math.isfinite(norm) or norm > 1e8:
                    raise SemilinearDivergenceError(
                        f"state blew up at step {n} "
                        "(left the contraction regime)"
                    )
                fk = f_prev
            f[k] = fk
            coeffs[n] = state
            f_prev = project(F(nodal(state)))
    return lin


@dataclass
class GridTrajectory:
    """Nodal-grid snapshots from the finite-difference oracle solver."""

    domain: object
    grid: TimeGrid
    values: np.ndarray  # shape (K+1, nx, ny)

    def snapshot(self, n):
        return Field(self.domain, self.values[n])

    def final_field(self):
        return self.snapshot(self.grid.K)


def _neumann_laplacian_1d(n, h):
    """Second-difference matrix with mirror-ghost Neumann closure."""
    from scipy.sparse import diags

    main = np.full(n, -2.0)
    off = np.ones(n - 1)
    mat = diags([off, main, off], [-1, 0, 1], format="lil")
    mat[0, 1] = 2.0
    mat[n - 1, n - 2] = 2.0
    return (mat / h**2).tocsr()


def _cell_fractions(coords, h, length, a, b):
    """Per-node overlap fraction of [a, b] with each control volume.

    Control volumes are clipped to the domain, so boundary nodes own half
    cells — this matches the even reflection implied by the mirror-ghost
    Neumann closure and keeps the source representation second order.
    """
    lo = np.maximum(coords - 0.5 * h, 0.0)
    hi = np.minimum(coords + 0.5 * h, length)
    overlap = np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)
    return overlap / (hi - lo)


def _actuator_grid_shape(act, domain):
    """Nodal representation of the actuator: control-volume fractions of
    the support rectangle, or a discrete Dirac mass at the nearest node."""
    shape = np.zeros((domain.nx, domain.ny))
    if act.kind == "zonal":
        x0, x1, y0, y1 = act.support
        fx = _cell_fractions(domain.x, domain.dx, domain.lx, x0, x1)
        fy = _cell_fractions(domain.y, domain.dy, domain.ly, y0, y1)
        shape = np.outer(fx, fy)
    else:
        bx, by = act.support
        ix = int(round(bx / domain.dx))
        iy = int(round(by / domain.dy))
        wx, wy = domain.quad_weights()
        shape[ix, iy] = 1.0 / (wx[ix] * wy[iy])
    return act.gain * shape


def l1_oracle_solve(y0, u, F, act, domain, grid, alpha):
    """Independent cross-check solver: implicit L1 Caputo stepping with a
    5-point Neumann Laplacian; the nonlinearity is lagged one step.

    Needs scipy (sparse LU), which the rest of the package does not.
    """
    from scipy.sparse import eye as sparse_eye
    from scipy.sparse import identity, kron
    from scipy.sparse.linalg import splu

    alpha = check_order(alpha)
    nx, ny = domain.nx, domain.ny
    lap = kron(
        _neumann_laplacian_1d(nx, domain.dx), identity(ny, format="csr")
    ) + kron(
        identity(nx, format="csr"), _neumann_laplacian_1d(ny, domain.dy)
    )
    dt = grid.dt
    c0 = dt ** (-alpha) / math.gamma(2.0 - alpha)
    try:
        lu = splu((c0 * sparse_eye(nx * ny, format="csc") - lap.tocsc()))
    except RuntimeError as exc:  # pragma: no cover - singular only if c0=0
        raise RuntimeError(f"oracle linear solve failed: {exc}") from exc

    k = np.arange(grid.K + 1, dtype=float)
    bweights = (k + 1.0) ** (1.0 - alpha) - k ** (1.0 - alpha)
    uvals = _control_values(u, grid.K)
    bshape = _actuator_grid_shape(act, domain).ravel()

    values = np.empty((grid.K + 1, nx, ny))
    values[0] = y0.values
    flat = np.empty((grid.K + 1, nx * ny))
    flat[0] = y0.values.ravel()
    diffs = np.empty((grid.K, nx * ny))  # diffs[k] = y_(k+1) - y_k
    for n in range(1, grid.K + 1):
        # history: c0 * sum_{j=1}^{n-1} b_j (y_{n-j} - y_{n-j-1})
        rhs = c0 * flat[n - 1]
        if n > 1:
            rhs -= c0 * (bweights[n - 1 : 0 : -1] @ diffs[: n - 1])
        rhs += uvals[n - 1] * bshape + F(flat[n - 1])
        if n == 1:
            # initial-step correction restoring O(dt^(2-alpha)) accuracy at
            # fixed time despite the t^alpha start singularity
            rhs += 0.5 * (lap @ flat[0] + uvals[0] * bshape + F(flat[0]))
        sol = lu.solve(rhs)
        diffs[n - 1] = sol - flat[n - 1]
        flat[n] = sol
        values[n] = sol.reshape(nx, ny)
    return GridTrajectory(domain=domain, grid=grid, values=values)
