"""Reference semilinear stepper for the solver tests.

This is `fracctrl.solver.solve_semilinear` as it was written before its
sweep loop was trimmed and before the control drive left the step loop:
every step's source is u_k b + f_k, the history sum is a materialised
product summed over the step axis, every norm is `np.linalg.norm`, and the
floating-point warnings of F are silenced around each call of F.  The
solver takes the drive from one Toeplitz product instead, which
re-associates (u_k b + f_k) Wd as b (u_k Wd) + f_k Wd; its trajectories
must agree with this loop's to rounding, and its divergence messages
exactly.  The loop also reports the steps that kept the explicit step, so
a test can show that it exercised that branch.
"""

import numpy as np

from fracctrl.domain import actuator_coefficients
from fracctrl.mittag import check_order
from fracctrl.solver import (
    MAX_SWEEPS,
    TOL_PICARD,
    SemilinearDivergenceError,
    Trajectory,
    _control_values,
    _kernel_tables,
)


def solve_semilinear_reference(y0, u, F, act, basis, grid, alpha):
    """(Trajectory, steps n that kept the explicit step) for F != 0."""
    alpha = check_order(alpha)
    b = actuator_coefficients(act, basis)
    c0 = y0.coefficients(basis).ravel()
    E1, Wd = _kernel_tables(basis, grid, alpha)
    uvals = _control_values(u, grid.K)

    def F_quiet(y):
        with np.errstate(over="ignore", invalid="ignore"):
            return F(y)

    def project(nodal):
        return basis.to_spectral(nodal).ravel()

    def nodal(cvec):
        return basis.from_spectral(cvec.reshape(basis.mx, basis.my))

    unsettled = []
    coeffs = np.empty((grid.K + 1, c0.size))
    coeffs[0] = c0
    g = np.empty((grid.K, c0.size))
    f_prev = project(F_quiet(nodal(c0)))
    for n in range(1, grid.K + 1):
        k = n - 1
        fk = f_prev
        g[k] = uvals[k] * b + fk
        base = E1[n] * c0
        if k > 0:
            base += np.sum(g[:k] * Wd[n - 1 : 0 : -1], axis=0)
        state = base + g[k] * Wd[0]
        prev_delta = np.inf
        settled = False
        growth = 0
        for _ in range(MAX_SWEEPS):
            if not np.all(np.isfinite(state)):
                break
            fk = 0.5 * (f_prev + project(F_quiet(nodal(state))))
            g[k] = uvals[k] * b + fk
            new_state = base + g[k] * Wd[0]
            delta = np.linalg.norm(new_state - state)
            state = new_state
            if not np.isfinite(delta):
                break
            scale = max(1.0, np.linalg.norm(state))
            if delta <= TOL_PICARD * scale:
                settled = True
                break
            if delta >= 0.5 * prev_delta and delta <= 1e4 * TOL_PICARD * scale:
                settled = True
                break
            growth = growth + 1 if delta > prev_delta else 0
            if growth >= 2:
                break
            prev_delta = delta
        if not settled:
            unsettled.append(n)
            state = base + (uvals[k] * b + f_prev) * Wd[0]
            norm = np.linalg.norm(state)
            if not np.isfinite(norm) or norm > 1e8:
                raise SemilinearDivergenceError(
                    f"state blew up at step {n} "
                    "(left the contraction regime)"
                )
            fk = f_prev
            g[k] = uvals[k] * b + fk
        coeffs[n] = state
        f_prev = project(F_quiet(nodal(state)))
    traj = Trajectory(basis=basis, grid=grid, coeffs=coeffs, control=uvals)
    return traj, unsettled
