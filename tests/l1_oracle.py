"""Finite-difference cross-check solver for the test suite.

`l1_oracle_solve` steps the semilinear system on the nodal grid with the
implicit L1 Caputo scheme and a 5-point Neumann Laplacian, lagging the
nonlinearity one step.  It shares no discretisation with
`fracctrl.solver.solve_semilinear` (no eigenmodes, no Mittag-Leffler
kernels), so agreement between the two checks both.  It needs scipy
(sparse LU), which the package itself does not.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import splu

from fracctrl.domain import Field
from fracctrl.mittag import check_order
from fracctrl.solver import TimeGrid, _control_values
from fields import spacing


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
    dx, dy = spacing(domain)
    if act.kind == "zonal":
        x0, x1, y0, y1 = act.support
        fx = _cell_fractions(domain.x, dx, domain.lx, x0, x1)
        fy = _cell_fractions(domain.y, dy, domain.ly, y0, y1)
        shape = np.outer(fx, fy)
    else:
        bx, by = act.support
        ix = int(round(bx / dx))
        iy = int(round(by / dy))
        wx, wy = domain.quad_weights()
        shape[ix, iy] = 1.0 / (wx[ix] * wy[iy])
    return act.gain * shape


def l1_oracle_solve(y0, u, F, act, domain, grid, alpha):
    """Implicit L1 Caputo stepping with a 5-point Neumann Laplacian; the
    nonlinearity is lagged one step."""
    alpha = check_order(alpha)
    nx, ny = domain.nx, domain.ny
    dx, dy = spacing(domain)
    lap = kron(
        _neumann_laplacian_1d(nx, dx), identity(ny, format="csr")
    ) + kron(
        identity(nx, format="csr"), _neumann_laplacian_1d(ny, dy)
    )
    dt = grid.dt
    c0 = dt ** (-alpha) / math.gamma(2.0 - alpha)
    # c0 > 0 and the Neumann Laplacian's eigenvalues are real and <= 0, so
    # the step matrix is nonsingular
    lu = splu(c0 * identity(nx * ny, format="csc") - lap.tocsc())

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
