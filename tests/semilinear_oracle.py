"""Reference semilinear steppers for the solver tests.

`solve_semilinear_reference` is `fracctrl.solver.solve_semilinear` as it
was written before its sweep loop was trimmed, before its sweeps were
mixed, before its floor test was deleted, before F moved to its
alias-free grid and before y0 moved into its history sum: every node's
base is the free decay E1[n] c0 of y0, read from `decay_table` (the
solver sums it as the constant source -lam c0 instead), every step's
source is u_k b + f_k, F is projected on the domain grid, the history
sum is a materialised product summed over the step axis, every norm is
`np.linalg.norm`, the floating-point warnings of F are silenced around
each call of F, and each step runs plain Picard sweeps from the
predictor, with the floor and growth tests, then evaluates F once more
at the settled state.  The solver must give its
divergence messages exactly and keep the explicit step at the same steps
(an explicit step differs from a settled one by O(dt)).  The loop reports
those steps, so a test can show that it exercised that branch.

Neither loop solves a step's equation to rounding: the reference loop's
floor test, which settles slowly contracting steps early, and TOL_PICARD
leave settled steps up to about 3e-11 of max|coeffs| away from its
solution on the bundled examples.  The solver has no floor test; it
settles by TOL_PICARD alone.  `solve_step_equation` is that solution: it
repeats the reference loop with every settled step's sweeps run to
1e-15, with no floor or growth test, and keeps the predictor at the
steps the reference loop reports.  The solver's trajectories are bounded
against it, not against either loop's path.

`direct_node_states` is the solver's own step loop with its history summed
directly: every earlier source at its kernel weight, by one einsum per
step.  The solver's block FFTs move the states by rounding only.
"""

from dataclasses import dataclass
from unittest import mock

import numpy as np

from fracctrl import solver
from fracctrl.domain import Field, actuator_coefficients
from fracctrl.mittag import check_order, ml
from fracctrl.solver import (
    MAX_SWEEPS,
    TOL_PICARD,
    SemilinearDivergenceError,
    _control_values,
    _step_weights,
)


def decay_table(basis, grid, alpha):
    """E1[n, m] = E_(a,1)(-lam_m t_n^a), the free decay of y0, by one
    whole-array `ml` call.  The solver builds no such table: it sums the
    decay as the history of the constant source -lam c0."""
    ta = np.array([t**alpha for t in grid.nodes.tolist()])
    return ml(alpha, 1.0, -np.outer(ta, basis.eigenvalues))


@dataclass
class NodeStates:
    """A reference loop's state at every node, as the solver's step loop
    (`_node_states`) yields them; `final_field` reads node K, so it also
    stands in for the solver's `Trajectory` in the outer loop."""

    basis: object
    grid: object
    coeffs: np.ndarray  # shape (K+1, mx*my)
    control: np.ndarray

    def final_field(self):
        c = self.coeffs[-1].reshape(self.basis.mx, self.basis.my)
        return Field(self.basis.domain, self.basis.from_spectral(c))


# sweeps allowed to reach 1e-15; the bundled examples' first controls
# need at most 24
EXACT_SWEEPS = 200


def _step_loop(y0, u, F, act, basis, grid, alpha, sweeps):
    """The reference step loop around `sweeps(n, predictor, sweep)`, which
    returns (settled, state, f_k); `sweep(state)` is one Picard sweep of
    step n's equation and returns (f_k, its image of the state)."""
    alpha = check_order(alpha)
    b = actuator_coefficients(act, basis)
    c0 = y0.coefficients(basis).ravel()
    E1 = decay_table(basis, grid, alpha)
    Wd = _step_weights(basis, grid, alpha)
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
        base = E1[n] * c0
        if k > 0:
            base += np.sum(g[:k] * Wd[n - 1 : 0 : -1], axis=0)

        def sweep(state):
            fk = 0.5 * (f_prev + project(F_quiet(nodal(state))))
            return fk, base + (uvals[k] * b + fk) * Wd[0]

        predictor = base + (uvals[k] * b + f_prev) * Wd[0]
        settled, state, fk = sweeps(n, predictor, sweep)
        if not settled:
            unsettled.append(n)
            state = predictor
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
    traj = NodeStates(basis=basis, grid=grid, coeffs=coeffs, control=uvals)
    return traj, unsettled


def _reference_sweeps(n, predictor, sweep):
    state, fk = predictor, None
    prev_delta = np.inf
    growth = 0
    for _ in range(MAX_SWEEPS):
        if not np.all(np.isfinite(state)):
            break
        fk, new_state = sweep(state)
        delta = np.linalg.norm(new_state - state)
        state = new_state
        if not np.isfinite(delta):
            break
        scale = max(1.0, np.linalg.norm(state))
        if delta <= TOL_PICARD * scale:
            return True, state, fk
        if delta >= 0.5 * prev_delta and delta <= 1e4 * TOL_PICARD * scale:
            return True, state, fk
        growth = growth + 1 if delta > prev_delta else 0
        if growth >= 2:
            break
        prev_delta = delta
    return False, state, fk


def solve_semilinear_reference(y0, u, F, act, basis, grid, alpha):
    """(NodeStates, steps n that kept the explicit step) for F != 0."""
    return _step_loop(y0, u, F, act, basis, grid, alpha, _reference_sweeps)


def solve_step_equation(y0, u, F, act, basis, grid, alpha, kept_explicit):
    """NodeStates with every step outside `kept_explicit` solved to 1e-15
    of max(1, |state|); the steps in it keep the predictor."""

    def exact_sweeps(n, predictor, sweep):
        if n in kept_explicit:
            return False, predictor, None
        state = predictor
        for _ in range(EXACT_SWEEPS):
            fk, new_state = sweep(state)
            delta = np.linalg.norm(new_state - state)
            state = new_state
            if delta <= 1e-15 * max(1.0, np.linalg.norm(state)):
                return True, state, fk
        raise AssertionError(
            f"step {n} did not reach 1e-15 in {EXACT_SWEEPS} sweeps"
        )

    return _step_loop(y0, u, F, act, basis, grid, alpha, exact_sweeps)[0]


def direct_node_states(y0, u, F, act, basis, grid, alpha):
    """`solver._node_states` as an array, its history summed directly: in
    a leaf longer than the grid, each step's einsum takes every earlier
    source and no block FFT runs."""
    with mock.patch.object(solver, "_LEAF", 1 << grid.K.bit_length()):
        return np.array(list(solver._node_states(
            y0, u, F, act, basis, grid, alpha
        )))
