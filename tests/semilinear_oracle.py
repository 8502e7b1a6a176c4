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

`reference_node_states` is the solver's step loop as it was written
before its vector work was done in place, with its block history sum,
its F projection and the F of `NonlinearTerm` as they were then: the
extrapolated start a generator sum from 0, every vector operation a new
array, every product an `@`, the source of a zero y0 added at every
step.  The solver must yield its node states bit for bit: it keeps
every floating-point operation, its operands and its order.

Both reference loops keep the growth test, which stops a step's sweeps
after two growing updates in a row.  The solver no longer has it: it
takes no sweep at a step that the mean-mode test proves has no
solution, and it raises at any other step whose sweeps do not settle,
where both reference loops keep the predictor.  On every case the tests
run, the steps that keep the predictor are the same in all three.
"""

import math
from dataclasses import dataclass
from unittest import mock

import numpy as np

from fracctrl import solver
from fracctrl.domain import Field, actuator_coefficients
from fracctrl.mittag import check_order, ml
from fracctrl.solver import (
    _SLAB,
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


# The reference step loop's constants, block history sum and projection:
# the solver's as they were, so that a change of theirs shows too
_START = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))
_LEAF = 64


def _F(F, y):
    """`NonlinearTerm.__call__` as it was: a new array."""
    if F.is_zero:
        return np.zeros_like(y)
    return F.coeff * y**F.power


def _add_far_history(s, Wd, m, h):
    """Add the sources s[m-h:m] at their kernel weights to the rows of the
    steps to come, s[m:m+h], by FFT convolutions with Wd over chunks of
    modes of about _SLAB values; their circular wrap lands only in the
    first h outputs, which are dropped."""
    lo, hi = m - h, min(m + h, len(s))
    n = hi - lo
    cols = max(1, _SLAB // n)
    for c in range(0, s.shape[1], cols):
        j = slice(c, c + cols)
        spec = np.fft.rfft(s[lo:m, j], n, axis=0)
        spec *= np.fft.rfft(Wd[:n, j], axis=0)
        s[m:hi, j] += np.fft.irfft(spec, n, axis=0)[h:]


def _f_projection(F, basis):
    """c -> the coefficients of F's Galerkin projection at the state with
    coefficient vector c, taken on F's alias-free grid: exact for the
    polynomial F, with fewer nodes than the domain grid where possible."""
    ex, ey, ax, ay_t = basis.alias_free(F.power)
    ex_t = ex.T
    shape = (basis.mx, basis.my)

    def project(c):
        return (ax @ _F(F, ex_t @ c.reshape(shape) @ ey) @ ay_t).ravel()

    return project


def reference_node_states(y0, u, F, act, basis, grid, alpha):
    """`solver._node_states` as it was written before its vector work was
    done in place; the solver must yield the same node states, bit for
    bit."""
    alpha = check_order(alpha)
    b = actuator_coefficients(act, basis)
    c0 = y0.coefficients(basis).ravel()
    Wd = _step_weights(basis, grid, alpha)
    y0_source = -basis.eigenvalues * c0
    uvals = _control_values(u, grid.K)
    project = _f_projection(F, basis)
    w0 = Wd[0]
    half_w0 = 0.5 * w0
    tol2 = TOL_PICARD * TOL_PICARD

    s = np.zeros((grid.K, c0.size))  # per-step sources, far history ahead
    # F overflows where the state runs away; the finiteness checks below
    # act on that, so the floating-point warnings are silenced, one step
    # at a time: the caller's settings hold wherever the loop yields
    with np.errstate(over="ignore", invalid="ignore"):
        # projected F at the previous node
        f_prev = project(c0)
    yield c0
    f_last = [f_prev]  # F at the last nodes, newest first
    for n in range(1, grid.K + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            k = n - 1
            lo = k - k % _LEAF
            # the history: y0 plus the sources of the steps before, step
            # j's at kernel weight Wd[n-1-j]; those of this step's leaf
            # are summed here, the earlier leaves' are in s[k] already
            history = np.einsum("km,km->m", s[lo:k], Wd[k - lo : 0 : -1])
            if lo:
                history += s[k]
            base = c0 + history
            drive = uvals[k] * b + y0_source
            # G(x) = anchor + half_w0 F(x): the step end's half of the
            # averaged source is all a sweep adds
            anchor = base + (drive + 0.5 * f_prev) * w0
            # F at the step end extrapolated from the last nodes
            start = sum(c * f for c, f in zip(_START[len(f_last) - 1], f_last))
            state = anchor + half_w0 * start
            prev_d2 = math.inf
            growth = 0
            f_end = None  # F at a settled state, from its last sweep
            g_old = r_old = None
            for _ in range(MAX_SWEEPS):
                f_state = project(state)
                g = anchor + half_w0 * f_state
                # the residual of the step equation, the update a plain
                # Picard sweep makes; squared norms throughout (a
                # non-finite state gives a non-finite d2)
                r = g - state
                d2 = r @ r
                state = g
                if not math.isfinite(d2):
                    break
                if d2 <= tol2 * max(1.0, state @ state):
                    # the F this sweep evaluated, at a state within the
                    # tolerance of g, goes to the next step without
                    # another round trip
                    f_end = f_state
                    break
                # two consecutive growing updates: the sweep map is
                # expanding at this amplitude; stop without burning the
                # sweep budget
                growth = growth + 1 if d2 > prev_d2 else 0
                if growth >= 2:
                    break
                prev_d2 = d2
                # depth-one Anderson mixing (Walker & Ni, 2011): of the
                # last two sweep images, the combination whose linearised
                # residual is least; plain Picard when the residuals do
                # not differ
                if g_old is not None:
                    dr = r - r_old
                    drdr = dr @ dr
                    if drdr > 0.0:
                        state = g - (r @ dr / drdr) * (g - g_old)
                g_old, r_old = g, r
            if f_end is None:
                # the averaged step equation has no reachable fixed point
                # at this amplitude; keep the explicit product-integration
                # step (the predictor, nonlinearity frozen at the step
                # start), guarding against runaway growth
                fk = f_prev
                state = base + (drive + fk) * w0
                norm = math.sqrt(state @ state)
                if not math.isfinite(norm) or norm > 1e8:
                    raise SemilinearDivergenceError(
                        f"state blew up at step {n} "
                        "(left the contraction regime)"
                    )
                f_end = project(state)
            else:
                fk = 0.5 * (f_prev + f_end)
            s[k] = drive + fk
            if n % _LEAF == 0 and n < grid.K:
                _add_far_history(s, Wd, n, n & -n)
            f_prev, f_last = f_end, [f_end] + f_last[:3]
        yield state
