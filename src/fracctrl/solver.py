"""Forward simulation of Caputo sub-diffusion in mild (Volterra) form.

The linear part propagates each eigenmode exactly through Mittag-Leffler
symbols, so piecewise-constant controls incur no time-stepping error.
One per-mode kernel table, the step weights, serves every solve and
operator: it depends only on (basis, grid, alpha) and is built once per
problem, on its first read, by Mittag-Leffler calls over row slabs of
the (time node x mode) arguments.  `solve_semilinear` is
the one forward solver, for F = 0 as well: from the base c0 it
integrates the source u_k b - lam c0 + f_k step by step, by product
integration with F averaged over the step ends.  By
E_(a,1)(-x) = 1 - x E_(a,a+1)(-x) the constant -lam c0 gives the free
decay of the initial state, so the control drive and y0 ride in the
history sum the steps take anyway.  Each step solves its equation by
sweeps, one round trip to F's alias-free nodal grid each, mixed at
depth one (Anderson); they start from F extrapolated cubically in time.
A step settles by one test, its residual within TOL_PICARD, and hands
the F of its last sweep to the next step.  A step whose sweeps do not
settle, or that the mean-mode test proves has no solution (it takes no
sweep), keeps its predictor, the explicit step with F frozen at the
step start.  A solve returns its final state, the state at T that the
paper's algorithm reads alone.  Its step loop, `_node_states`, yields
every node's state as it computes it and holds one (K x modes) array,
the per-step sources its history sum reads.  That sum is exact and
costs O(K log^2 K), not O(K^2), per mode: block FFTs (Hairer, Lubich &
Schlichte, 1985) bring all but a step's own leaf of _LEAF steps, so a
grid of one leaf runs no FFT.  The independent finite-difference
cross-check lives in the test suite (`tests/l1_oracle.py`).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domain import Field, actuator_coefficients
from .mittag import _CHUNK, check_order, ml

__all__ = [
    "TimeGrid",
    "NonlinearTerm",
    "Trajectory",
    "SemilinearDivergenceError",
    "solve_semilinear",
    "TOL_PICARD",
    "MAX_SWEEPS",
]

TOL_PICARD = 1e-10
MAX_SWEEPS = 50

# The sweeps' start: weights of F at the last one to four nodes, newest
# first, in its polynomial extrapolation to the step end
_START = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))


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
    """Pointwise source nonlinearity F(y) = coeff * y^power, F(0) = 0."""

    coeff: float = 1.0
    power: int = 2

    def __post_init__(self):
        if self.power not in (2, 3):
            raise ValueError("supported powers are 2 and 3")
        object.__setattr__(self, "coeff", float(self.coeff))

    @classmethod
    def none(cls):
        """F = 0, the zero coefficient."""
        return cls(coeff=0.0)

    @property
    def is_zero(self):
        return self.coeff == 0.0

    def __call__(self, y):
        if self.is_zero:  # 0 * y**p is nan where y**p overflows
            return np.zeros_like(y)
        y = y**self.power
        return y if self.coeff == 1.0 else self.coeff * y


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
    """A solve's state at T, all the paper's algorithm reads of it."""

    basis: object
    final: np.ndarray  # the state at node K, shape (mx*my,)

    def final_field(self):
        c = self.final.reshape(self.basis.mx, self.basis.my)
        return Field(self.basis.domain, self.basis.from_spectral(c))


# Arguments per `ml` call of the step-weight build: sixteen of the
# evaluator's chunks.  The build evaluates the table by row slabs of at
# most this size, so it holds neither the whole (time node x mode)
# argument array nor its sort.
_SLAB = 16 * _CHUNK


@lru_cache(maxsize=8)
def _step_weights(basis, grid, alpha):
    """Read-only step weights Wd[k] = W[k+1] - W[k], K rows.

    W[n, m] = t_n^a E_(a,a+1)(-lam_m t_n^a) is the primitive of the
    weakly singular kernel, so Wd[k, m] is the exact weight of step
    [t_(n-k-1), t_(n-k)] at observation time t_n (W[0] = 0 exactly).
    It is the package's one kernel table: the free decay of y0 is
    E_(a,1)(-lam t_n^a) = 1 - lam W[n], the sum of Wd over n steps of the
    constant source -lam.  The weights depend only on the frozen (basis,
    grid, alpha), so every simulation and operator of one problem shares
    one build.  Its slabs of arguments z[n, m] = -lam_m t_n^a share one
    row, the one each difference across them needs.  `ml` evaluates each
    distinct argument of a slab once (the mirrored modes of a square
    basis share theirs), and its values depend only on (alpha, beta, z),
    so the slabs give every entry of a whole-array build; the table is
    C-ordered (time node x mode), as the history sums reduce over rows
    and their rounding depends on the layout.
    """
    lam = basis.eigenvalues
    # t^alpha from Python floats keeps the C library's pow (numpy's
    # vectorised power can differ in the last bit); t = 0 gives W = 0
    ta = np.array([t**alpha for t in grid.nodes.tolist()])
    rows = max(2, _SLAB // lam.size)
    Wd = np.empty((grid.K, lam.size))
    for lo in range(0, grid.K, rows - 1):
        t = ta[lo : lo + rows]
        W = ml(alpha, alpha + 1.0, -np.outer(t, lam))
        W *= t[:, None]
        np.subtract(W[1:], W[:-1], out=Wd[lo : lo + t.size - 1])
    Wd.flags.writeable = False
    return Wd


# Steps per leaf of the history sum, a power of two: a step sums its own
# leaf's sources directly, and the earlier leaves' by block FFTs
_LEAF = 64


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

    # ndarray.dot makes the BLAS calls of @ at half its dispatch cost
    def project(c):
        return ax.dot(F(ex_t.dot(c.reshape(shape)).dot(ey))).dot(ay_t).ravel()

    return project


def solve_semilinear(y0, u, F, act, basis, grid, alpha):
    """Mild solution with a pointwise nonlinearity by product integration.

    The package's one forward solver: F = 0 (`NonlinearTerm.none()`) runs
    the same steps, each settling at its first sweep.  Returns the
    `Trajectory` of the state at T; the step loop, `_node_states`, yields
    the state at every node as it computes it.
    """
    control = _control_values(u, grid.K)
    for final in _node_states(y0, control, F, act, basis, grid, alpha):
        pass
    return Trajectory(basis, final)


def _node_states(y0, u, F, act, basis, grid, alpha):
    """The step loop: yields c0, then each node's state as it is computed.

    Each node's state is c0 plus the history sum of the step sources
    u_k b - lam c0 + f_k.  The constant -lam c0 carries the free decay of
    y0: by E_(a,1)(-lam t^a) = 1 - lam W, with W the primitive of the
    kernel, the step weights sum it to the decay.  The sum cancels in
    1 - lam W where lam t^a is large, which moves the states by rounding
    only (1.25e-13 of max|state| at K = 240 with 30 x 30 modes); for
    y0 = 0 the source is -0.0, which changes no bit.  F(y) is treated as
    constant on the step, at the average of its values at the step ends,
    projected on F's alias-free grid (`SpectralBasis.alias_free`).  Each
    step solves that equation for its end state by sweeps x -> G(x), one
    nodal/spectral round trip each, with depth-one Anderson mixing
    (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011).  The sweeps start
    from F extrapolated cubically in time through the last four nodes
    (the first three steps: the predictor, F frozen at the step start,
    then the linear and quadratic forms); against the linear form that
    cuts `scaled-synth`'s round trips from 7,408 to 3,990.  A step
    settles when |G(x) - x| <= TOL_PICARD max(1, |G(x)|); it keeps G(x)
    and hands the F of its last sweep to the next step.  Sweeps that
    turn non-finite or run out of MAX_SWEEPS leave the step unsettled:
    it keeps the predictor, and F is evaluated there once more; a step
    proven to have no solution keeps it without a sweep.  For F = c y^2
    of either sign the alias-free trapezoid weights are positive, so by
    Cauchy-Schwarz (P F(x))_i0 lies on c's side of c e0 x_i0^2 (i0 the
    constant mode, e0 = 1/sqrt(lx ly)), and mode i0 of x = a + h P F(x)
    (a = anchor, h = half_w0 > 0) has no real root once
    4 a_i0 h_i0 c e0 > 1.  The loop holds the step weights and one (K x modes)
    array, the per-step sources its history sum reads.  A row not yet
    reached holds its step's far history: when step m, a multiple of
    _LEAF, is known, the h = m & -m sources before it are added to the h
    rows after it, the dyadic plan of Hairer, Lubich & Schlichte.  The
    first leaf adds its rows' zeros, so one leaf gives the direct sum's
    bits; at K = 240 (30 x 30 modes) the states move by 7e-16 of max|state|.
    Each step's arithmetic order is fixed and pinned bit for bit by
    `tests/semilinear_oracle.py`, as the outer loop amplifies rounding.
    """
    alpha = check_order(alpha)
    b = actuator_coefficients(act, basis)
    c0 = y0.coefficients(basis).ravel()
    Wd = _step_weights(basis, grid, alpha)
    y0_source = -basis.eigenvalues * c0
    project = _f_projection(F, basis)
    w0 = Wd[0]
    half_w0 = 0.5 * w0
    tol2 = TOL_PICARD * TOL_PICARD
    i0 = basis.eigenvalues.argmin()  # the constant mode, for the ratio
    e0 = 1.0 / math.sqrt(basis.domain.lx * basis.domain.ly)
    ratio = 4.0 * half_w0[i0] * F.coeff * e0 if F.power == 2 else 0.0

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
            base = np.einsum("km,km->m", s[lo:k], Wd[k - lo : 0 : -1])
            base += s[k]
            base += c0
            drive = u[k] * b + y0_source
            # G(x) = anchor + half_w0 F(x): the step end's half of the
            # averaged source is all a sweep adds
            anchor = 0.5 * f_prev
            anchor += drive
            anchor *= w0
            anchor += base
            # F at the step end extrapolated from the last nodes
            weights = _START[len(f_last) - 1]
            start = weights[0] * f_last[0]
            for c, f in zip(weights[1:], f_last[1:]):
                start += c * f
            state = anchor + half_w0 * start
            f_end = None  # F at a settled state, from its last sweep
            g_old = r_old = None
            for _ in range(0 if anchor[i0] * ratio > 1.0 else MAX_SWEEPS):
                f_state = project(state)
                g = half_w0 * f_state
                g += anchor
                # the residual of the step equation, the update a plain
                # Picard sweep makes; squared norms throughout (a
                # non-finite state gives a non-finite d2)
                r = g - state
                d2 = r.dot(r)
                state = g
                if not math.isfinite(d2):
                    break
                if d2 <= tol2 * max(1.0, state.dot(state)):
                    # the F this sweep evaluated, at a state within the
                    # tolerance of g, goes to the next step without
                    # another round trip
                    f_end = f_state
                    break
                # depth-one Anderson mixing (Walker & Ni, 2011): of the
                # last two sweep images, the combination whose linearised
                # residual is least; plain Picard when the residuals do
                # not differ
                if g_old is not None:
                    dr = r - r_old
                    drdr = dr.dot(dr)
                    if drdr > 0.0:
                        state = g - (r.dot(dr) / drdr) * (g - g_old)
                g_old, r_old = g, r
            if f_end is None:
                # the averaged step equation has no reachable fixed point
                # at this amplitude; keep the explicit product-integration
                # step (the predictor, nonlinearity frozen at the step
                # start), guarding against a runaway state
                fk = f_prev
                state = base + (drive + fk) * w0
                norm = math.sqrt(state.dot(state))
                if not math.isfinite(norm) or norm > 1e8:
                    raise SemilinearDivergenceError(
                        f"state blew up at step {n} "
                        "(left the contraction regime)"
                    )
                f_end = project(state)
            else:
                fk = f_prev + f_end
                fk *= 0.5
            np.add(drive, fk, out=s[k])
            if n % _LEAF == 0 and n < grid.K:
                _add_far_history(s, Wd, n, n & -n)
            f_prev, f_last = f_end, [f_end] + f_last[:3]
        yield state
