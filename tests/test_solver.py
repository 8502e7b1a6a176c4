import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fracctrl import solver
from fracctrl.config import bundled_config_path, load_config, read_ini
from fracctrl.control import algorithm1, pinv_apply
from fracctrl.domain import (
    Actuator,
    Field,
    RectDomain,
    actuator_coefficients,
    build_basis,
)
from fracctrl.mittag import ml
from fracctrl.solver import (
    NonlinearTerm,
    SemilinearDivergenceError,
    TimeGrid,
    _node_states,
    _step_weights,
    solve_semilinear,
)
from fields import evaluate_mode, from_function, norm_l2
from l1_oracle import GridTrajectory, l1_oracle_solve
from ml_oracle import _ml_scalar
from semilinear_oracle import (
    decay_table,
    direct_node_states,
    reference_node_states,
    solve_semilinear_reference,
    solve_step_equation,
)
from support import (
    FAR,
    count_projections,
    l1_temporal_rate,
    record_calls,
    traced_peak,
    write_cfg,
)


@pytest.fixture(scope="module")
def setup():
    dom = RectDomain(1.0, 1.0, 51, 51)
    basis = build_basis(dom, 20, 20)
    act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
    grid = TimeGrid(3.0, 60)
    return dom, basis, act, grid


class TestTimeGrid:
    def test_nodes(self):
        g = TimeGrid(2.0, 4)
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.dt == 0.5

    @pytest.mark.parametrize("T,K", [(-1.0, 10), (0.0, 10), (1.0, 1)])
    def test_validation(self, T, K):
        with pytest.raises(ValueError):
            TimeGrid(T, K)


class TestNonlinearTerm:
    def test_zero_at_zero(self):
        for F in (NonlinearTerm.none(), NonlinearTerm(),
                  NonlinearTerm(-2.0, 3)):
            assert np.all(F(np.zeros(5)) == 0.0)

    def test_square(self):
        F = NonlinearTerm()
        assert np.allclose(F(np.array([1.0, -3.0])), [1.0, 9.0])

    def test_bad_power(self):
        with pytest.raises(ValueError):
            NonlinearTerm(1.0, 4)

    def test_coeff_is_a_float(self):
        F = NonlinearTerm(-2, 3)
        assert type(F.coeff) is float and F.coeff == -2.0


class TestSolveLinear:
    """The linear system (F = 0) through the one solver's step loop."""

    def test_eigenmode_decay_law(self, setup):
        dom, basis, act, grid = setup
        alpha = 0.3
        y0 = from_function(
            dom, lambda x, y: evaluate_mode(basis, 1, 0, x, y)
        )
        traj = solve_semilinear(
            y0, None, NonlinearTerm.none(), act, basis, grid, alpha
        )
        c = traj.final.reshape(basis.mx, basis.my)
        assert c[1, 0] == pytest.approx(
            ml(alpha, 1.0, -math.pi**2 * 3.0**alpha), abs=1e-12
        )
        mask = np.ones_like(c, dtype=bool)
        mask[1, 0] = False
        assert np.max(np.abs(c[mask])) < 1e-12

    def test_zero_data_zero_trajectory(self, setup):
        dom, basis, act, grid = setup
        states = np.array(list(_node_states(
            Field.zero(dom), np.zeros(grid.K), NonlinearTerm.none(), act,
            basis, grid, 0.5,
        )))
        assert np.max(np.abs(states)) == 0.0

    def test_node_zero_is_initial_state(self, setup):
        dom, basis, act, grid = setup
        y0 = from_function(dom, lambda x, y: np.cos(np.pi * x))
        c0 = next(_node_states(
            y0, np.zeros(grid.K), NonlinearTerm.none(), act, basis, grid, 0.5
        ))
        nodal = basis.from_spectral(c0.reshape(basis.mx, basis.my))
        assert np.allclose(nodal, y0.values, atol=1e-12)

    def test_classical_integrator_mode(self, setup):
        # alpha=1 with D=Omega drives only the constant mode, which then
        # integrates the control: c_00(T) = T for u = 1
        dom, basis, _, grid = setup
        act = Actuator.zonal(0.0, 1.0, 0.0, 1.0)
        traj = solve_semilinear(
            Field.zero(dom), np.ones(grid.K), NonlinearTerm.none(), act,
            basis, grid, 1.0,
        )
        assert traj.final[0] == pytest.approx(3.0, rel=1e-12)

    def test_joint_linearity(self, setup):
        dom, basis, act, grid = setup
        alpha = 0.6
        y0a = from_function(dom, lambda x, y: np.cos(np.pi * y))
        y0b = from_function(dom, lambda x, y: np.cos(2 * np.pi * x))
        rng = np.random.default_rng(7)
        ua = rng.normal(size=grid.K)
        ub = rng.normal(size=grid.K)
        F = NonlinearTerm.none()
        combo = np.array(list(_node_states(
            Field(dom, 2.0 * y0a.values - 0.5 * y0b.values),
            2.0 * ua - 0.5 * ub, F, act, basis, grid, alpha,
        )))
        a = np.array(list(_node_states(y0a, ua, F, act, basis, grid, alpha)))
        b = np.array(list(_node_states(y0b, ub, F, act, basis, grid, alpha)))
        parts = 2.0 * a - 0.5 * b
        assert np.max(np.abs(combo - parts)) < 1e-10

    def test_modes_decay_monotonically(self, setup):
        dom, basis, act, grid = setup
        y0 = from_function(
            dom, lambda x, y: np.exp(np.cos(np.pi * x) + np.cos(np.pi * y))
        )
        states = np.array(list(_node_states(
            y0, np.zeros(grid.K), NonlinearTerm.none(), act, basis, grid, 0.4
        )))
        mags = np.abs(states)
        assert np.all(np.diff(mags, axis=0) <= 1e-14)

    def test_mass_conservation(self, setup):
        dom, basis, act, grid = setup
        y0 = from_function(dom, lambda x, y: 1.0 + np.cos(np.pi * x))
        states = np.array(list(_node_states(
            y0, np.zeros(grid.K), NonlinearTerm.none(), act, basis, grid, 0.3
        )))
        assert np.max(np.abs(states[:, 0] - states[0, 0])) < 1e-12

    def test_control_length_mismatch(self, setup):
        dom, basis, act, grid = setup
        with pytest.raises(ValueError):
            solve_semilinear(
                Field.zero(dom), np.ones(10), NonlinearTerm.none(), act,
                basis, grid, 0.5,
            )


class TestSolveSemilinear:
    def test_zero_data_stays_zero(self, setup):
        dom, basis, act, grid = setup
        states = np.array(list(_node_states(
            Field.zero(dom), np.zeros(grid.K), NonlinearTerm(), act,
            basis, grid, 0.3,
        )))
        assert np.max(np.abs(states)) == 0.0

    def test_agrees_with_l1_oracle(self, setup):
        dom, basis, act, grid = setup
        u = 0.5 * np.ones(grid.K)
        F = NonlinearTerm()
        spec = solve_semilinear(
            Field.zero(dom), u, F, act, basis, grid, 0.3
        ).final_field().values
        fd = l1_oracle_solve(
            Field.zero(dom), u, F, act, dom, grid, 0.3
        ).final_field().values
        rel = np.linalg.norm(spec - fd) / np.linalg.norm(fd)
        assert rel < 1e-2

    def test_blowup_raises_divergence(self, setup):
        dom, basis, act, grid = setup
        # y' ~ y^2 with large initial data blows up before T
        y0 = from_function(dom, lambda x, y: 50.0 + 0.0 * x)
        with pytest.raises(SemilinearDivergenceError):
            solve_semilinear(
                y0, None, NonlinearTerm(), act, basis, grid, 0.9
            )


class TestStepEquation:
    """The solver against the step equation it solves.

    Each step's equation (F averaged over the step ends) is solved to
    1e-15 by `semilinear_oracle.solve_step_equation`, keeping the
    predictor at the steps where the reference loop keeps the explicit
    step.  The reference loop itself is 2.2e-11 (example 1) and 2.9e-11
    (example 2) of max|coeffs| away from that solution, from its floor
    test and TOL_PICARD; the solver, which mixes its sweeps, starts them
    elsewhere and settles by TOL_PICARD alone, must be as close, within
    3e-11.  A step that took the other branch (explicit vs averaged)
    would differ by O(dt) and break the bound, so the bound also pins the
    steps that keep the explicit step.  Through the outer loop, the
    solver's last boundary error is bounded at 1e-7 of the step
    equation's.  The solver projects F on its alias-free grid and the
    oracle on the domain grid; both projections are exact for the
    polynomial F, so they differ by rounding only (`TestFProjection`).
    """

    @pytest.mark.parametrize("name, unsettled", [
        ("example1", [60]),  # the final step keeps the explicit step
        ("example2", []),
    ])
    def test_example_trajectory(self, name, unsettled):
        problem = load_config(bundled_config_path(f"{name}.cfg")).problem()
        # the first residual-update control: non-zero on every step
        u = pinv_apply(problem.operator(), problem.d_s.values.ravel()).values
        args = (problem.y0, u, problem.F, problem.act, problem.basis,
                problem.grid, problem.alpha)
        ref, kept_explicit = solve_semilinear_reference(*args)
        assert kept_explicit == unsettled
        exact = solve_step_equation(*args, kept_explicit).coeffs
        bound = 3e-11 * np.max(np.abs(exact))
        assert np.max(np.abs(ref.coeffs - exact)) <= bound
        got = np.array(list(_node_states(*args)))
        assert np.max(np.abs(got - exact)) <= bound

    @pytest.mark.parametrize("name, round_trips, iterations", [
        # plain Picard sweeps took 17,269 and 10,136 round trips; sweeps
        # started from F extrapolated linearly took 8,367 and 5,451, and
        # from the cubic extrapolation 7,712 and 4,919; skipping the
        # sweeps of example 1's final step, which the mean-mode test
        # proves has no solution, leaves 7,516
        ("example1", 7_600, 35),
        ("example2", 5_200, 36),
    ], ids=["example1", "example2"])
    def test_round_trips(self, monkeypatch, name, round_trips, iterations):
        problem = load_config(bundled_config_path(f"{name}.cfg")).problem()

        def step_equation(*args):
            _, kept_explicit = solve_semilinear_reference(*args)
            return solve_step_equation(*args, kept_explicit)

        def run(solve):
            with monkeypatch.context() as m:
                m.setattr("fracctrl.control.solve_semilinear", solve)
                report = algorithm1(problem)[2]
            assert (report.status, report.iterations) == ("converged",
                                                          iterations)
            return report.boundary_errors[-1]

        exact = run(step_equation)
        picard = run(lambda *args: solve_semilinear_reference(*args)[0])
        calls = count_projections(monkeypatch)
        got = run(solve_semilinear)
        assert len(calls) <= round_trips
        # the outer loop amplifies per-step differences of 1e-11 to about
        # 1e-5 in the last boundary error where they come from the floor
        # test: the plain Picard loop's is 1.6e-5 (example 1) and 8.4e-8
        # (example 2) away from the step equation's.  The solver settles
        # by TOL_PICARD alone and is 1.2e-8 and 2.7e-8 away (3.3e-8 and
        # 6.3e-8 with sweeps started from the linear extrapolation).
        assert picard == pytest.approx(exact, rel=2e-5)
        assert got == pytest.approx(exact, rel=1e-7)

    def test_scaled_synth_round_trips(self, scaled_problem, monkeypatch):
        # the `scaled-synth` benchmark's 12 iterations: 7,408 round trips
        # from the linear extrapolation, 3,990 from the cubic one
        calls = count_projections(monkeypatch)
        report = algorithm1(scaled_problem)[2]
        assert (report.status, report.iterations) == ("max-iterations", 12)
        assert len(calls) <= 4_200


class TestSweepLoopBitIdentical:
    """The solver against references where both do the same arithmetic:
    the F = 0 closed form, a certified step, which keeps its predictor,
    and the divergence message.

    Trajectories that differ from a reference by the order of a sum move
    by rounding only; they are bounded at 1e-14 of max|coeffs|.
    """

    @staticmethod
    def assert_rounding_close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_linear_drive(self):
        problem = load_config(bundled_config_path("example1.cfg")).problem()
        u = pinv_apply(problem.operator(), problem.d_s.values.ravel()).values
        basis, grid, alpha = problem.basis, problem.grid, problem.alpha
        y0 = from_function(
            basis.domain, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
        )
        states = np.array(list(_node_states(
            y0, u, NonlinearTerm.none(), problem.act, basis, grid, alpha
        )))
        # the free decay from a table and the drive as a materialised
        # product summed over the step axis
        E1 = decay_table(basis, grid, alpha)
        Wd = _step_weights(basis, grid, alpha)
        b = actuator_coefficients(problem.act, basis)
        c0 = y0.coefficients(basis).ravel()
        ref = np.array([c0] + [
            E1[n] * c0 + b * np.sum(u[:n, None] * Wd[n - 1 :: -1], axis=0)
            for n in range(1, grid.K + 1)
        ])
        self.assert_rounding_close(states, ref)

    def test_certified_step_keeps_predictor(self, setup):
        # large data on a two-step grid: the mean-mode test proves that
        # neither step has a solution, so each is certified and keeps its
        # predictor, F frozen at the step start
        dom, basis, act, _ = setup
        grid = TimeGrid(0.1, 2)
        y0 = from_function(dom, lambda x, y: 10.0 + 0.0 * x)
        F = NonlinearTerm()
        args = (y0, np.zeros(grid.K), F, act, basis, grid, 0.9)
        _, kept_explicit = solve_semilinear_reference(*args)
        assert kept_explicit == [1, 2]
        got = np.array(list(_node_states(*args)))
        Wd = _step_weights(basis, grid, 0.9)
        c0 = y0.coefficients(basis).ravel()
        decay = -basis.eigenvalues * c0
        f = solver._f_projection(F, basis)

        assert np.array_equal(got[1], c0 + (decay + f(got[0])) * Wd[0])
        assert np.array_equal(
            got[2],
            c0 + (decay + f(got[0])) * Wd[1] + (decay + f(got[1])) * Wd[0],
        )

    def test_divergence(self, setup):
        dom, basis, act, grid = setup
        y0 = from_function(dom, lambda x, y: 50.0 + 0.0 * x)
        args = (y0, None, NonlinearTerm(), act, basis, grid, 0.9)
        with pytest.raises(SemilinearDivergenceError) as ref:
            solve_semilinear_reference(*args)
        with pytest.raises(SemilinearDivergenceError) as got:
            solve_semilinear(*args)
        assert str(got.value) == str(ref.value)


    def test_overflow_raises_without_warnings(self, setup):
        # F overflows on the first sweep; the overflow and the inf - inf
        # that follows stay inside the solver, which reports the
        # divergence as its own error, not as a floating-point warning
        dom, basis, act, grid = setup
        y0 = from_function(dom, lambda x, y: 1e200 + 0.0 * x)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SemilinearDivergenceError):
                solve_semilinear(
                    y0, None, NonlinearTerm(), act, basis, grid, 0.9
                )


class TestSweepsSettleOrRaise:
    """A step that the mean-mode test does not certify settles or raises
    `SemilinearDivergenceError` naming the step and the cause; it never
    keeps its predictor."""

    def test_out_of_sweeps_raises(self, monkeypatch):
        # example 2's first control: no step settles at its first sweep,
        # and none is certified, so step 1 runs out of one sweep
        problem = load_config(bundled_config_path("example2.cfg")).problem()
        u = pinv_apply(problem.operator(), problem.d_s.values.ravel()).values
        monkeypatch.setattr(solver, "MAX_SWEEPS", 1)
        with pytest.raises(SemilinearDivergenceError, match=(
            r"^sweeps did not settle at step 1 within MAX_SWEEPS = 1 "
            r"\(residual "
        )):
            solve_semilinear(problem.y0, u, problem.F, problem.act,
                             problem.basis, problem.grid, problem.alpha)

    def test_non_finite_sweeps_raise(self, tmp_path):
        # the data of the CLI's picard run that diverges at step 1
        # (`test_picard_without_an_iteration_exits_3`), its first control
        # scaled by 1e50: step 1 is not certified (the constant mode's
        # anchor is negative), F overflows at the first sweeps and the
        # residual goes non-finite
        problem = load_config(write_cfg(tmp_path, FAR, "far.cfg")).problem()
        u = pinv_apply(problem.operator(), problem.d_s.values.ravel()).values
        with pytest.raises(SemilinearDivergenceError,
                           match="^sweeps went non-finite at step 1$"):
            solve_semilinear(problem.y0, 1e50 * u, problem.F, problem.act,
                             problem.basis, problem.grid, problem.alpha)


class TestMeanModeTest:
    """For F = c y^2, a step whose mean-mode ratio 4 a0 h0 c e0 exceeds 1
    has no solution, and it keeps its predictor without a sweep
    (`solver._node_states`).  At step 1 from y0 = 0 on example 1's basis,
    a0 = w0[i0] u0 b[i0] (i0 the constant mode), so the control value u0
    sets the ratio; its sign follows c's."""

    @staticmethod
    def _step_one(monkeypatch, coeff, ratio):
        """(F projections of step 1, its state, the predictor)."""
        problem = load_config(bundled_config_path("example1.cfg")).problem()
        basis, grid, alpha = problem.basis, problem.grid, problem.alpha
        F = NonlinearTerm(coeff, 2)
        b = actuator_coefficients(problem.act, basis)
        w0 = _step_weights(basis, grid, alpha)[0]
        i0 = basis.eigenvalues.argmin()
        e0 = 1.0 / math.sqrt(basis.domain.lx * basis.domain.ly)
        u = np.zeros(grid.K)
        u[0] = ratio / (2.0 * w0[i0] ** 2 * b[i0] * coeff * e0)
        y0 = Field.zero(basis.domain)
        c0 = y0.coefficients(basis).ravel()
        # step 1's base is c0, its history being empty
        drive = u[0] * b - basis.eigenvalues * c0
        predictor = c0 + (drive + solver._f_projection(F, basis)(c0)) * w0
        calls = count_projections(monkeypatch)
        states = _node_states(y0, u, F, problem.act, basis, grid, alpha)
        next(states)
        before = len(calls)
        state = next(states)
        return len(calls) - before, state, predictor

    @pytest.mark.parametrize("coeff", [1.0, -1.0])
    def test_above_one_takes_no_sweep(self, monkeypatch, coeff):
        # the one projection is F at the predictor, for the next step
        calls, state, predictor = self._step_one(monkeypatch, coeff, 1.05)
        assert calls == 1
        assert np.array_equal(state, predictor)
        assert np.array_equal(np.signbit(state), np.signbit(predictor))

    @pytest.mark.parametrize("coeff", [1.0, -1.0])
    def test_below_one_sweeps(self, monkeypatch, coeff):
        calls, _, _ = self._step_one(monkeypatch, coeff, 0.95)
        assert calls >= 2

    def test_example1_final_step_takes_no_sweep(self, monkeypatch):
        # the first residual-update control: the ratio is 1.70 at step 60
        # and at most 0.44 before, so the final step's one projection is
        # F at its predictor
        problem = load_config(bundled_config_path("example1.cfg")).problem()
        u = pinv_apply(problem.operator(), problem.d_s.values.ravel()).values
        calls = count_projections(monkeypatch)
        counts = [len(calls) for _ in _node_states(
            problem.y0, u, problem.F, problem.act, problem.basis,
            problem.grid, problem.alpha,
        )]
        assert len(counts) == problem.grid.K + 1 == 61
        assert counts[-1] - counts[-2] == 1


class TestFProjection:
    """The solver projects F on its alias-free grid
    (`SpectralBasis.alias_free`), where the trapezoid rule is exact for
    the Galerkin projection of y**p, so it agrees with the projection on
    the domain grid up to rounding."""

    @staticmethod
    def _domain_projection(F, basis, c):
        nodal = basis.from_spectral(c.reshape(basis.mx, basis.my))
        return basis.to_spectral(F(nodal)).ravel()

    @staticmethod
    def _state(basis):
        rng = np.random.default_rng(3)
        return rng.normal(size=basis.mx * basis.my)

    @pytest.mark.parametrize("power", [2, 3])
    @pytest.mark.parametrize("dom, mx, my, nodes", [
        # (power=2 nodes, power=3 nodes) per axis
        (RectDomain(1.0, 1.0, 51, 51), 20, 20, ((30, 30), (40, 40))),
        (RectDomain(1.0, 1.0, 21, 21), 6, 6, ((9, 9), (12, 12))),
        (RectDomain(2.0, 0.5, 41, 31), 12, 8, ((18, 12), (24, 16))),
    ])
    def test_coarser_grid_within_rounding(self, dom, mx, my, nodes, power):
        basis = build_basis(dom, mx, my)
        ex, ey, _, _ = basis.alias_free(power)
        assert (ex.shape[1], ey.shape[1]) == nodes[power - 2]
        F = NonlinearTerm(0.7, power)
        c = self._state(basis)
        got = solver._f_projection(F, basis)(c)
        ref = self._domain_projection(F, basis, c)
        assert not np.array_equal(got, ref)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_domain_grid_bit_identical(self):
        # 30 modes at power 3 need 60 nodes; the domain grid has 51
        basis = build_basis(RectDomain(1.0, 1.0, 51, 51), 30, 30)
        F = NonlinearTerm(-2.0, 3)
        c = self._state(basis)
        got = solver._f_projection(F, basis)(c)
        assert np.array_equal(got, self._domain_projection(F, basis, c))


class TestL1Oracle:
    def test_constant_preserved(self, setup):
        dom, _, act, grid = setup
        y0 = from_function(dom, lambda x, y: 3.7 + 0.0 * x)
        traj = l1_oracle_solve(
            y0, None, NonlinearTerm.none(), act, dom, grid, 0.5
        )
        assert isinstance(traj, GridTrajectory)
        assert np.max(np.abs(traj.values - 3.7)) < 1e-11

    def test_mode_decay_reference(self, setup):
        dom, basis, act, grid = setup
        alpha = 0.3
        y0 = from_function(
            dom, lambda x, y: evaluate_mode(basis, 1, 0, x, y)
        )
        traj = l1_oracle_solve(
            y0, None, NonlinearTerm.none(), act, dom, grid, alpha
        )
        c = traj.final_field().coefficients(basis)
        expect = ml(alpha, 1.0, -math.pi**2 * 3.0**alpha)
        assert c[1, 0] == pytest.approx(expect, rel=5e-3)

    def test_temporal_convergence_rate(self):
        # against a fine-step run on the same grid, so the spatial error
        # cancels and the time-stepping order is isolated
        alpha = 0.3
        assert l1_temporal_rate() >= min(2.0 - alpha, 2.0) - 0.3

    def test_pointwise_actuator_injects_mass(self, setup):
        dom, _, _, grid = setup
        act = Actuator.pointwise(0.48, 0.70)
        traj = l1_oracle_solve(
            Field.zero(dom), np.ones(grid.K), NonlinearTerm.none(), act,
            dom, grid, 0.6,
        )
        assert norm_l2(traj.final_field()) > 0.0


def _scalar_step_weights(basis, grid, alpha):
    """(Wd, W) built one scalar oracle evaluation at a time."""
    lam = basis.eigenvalues
    W = np.empty((grid.K + 1, lam.size))
    for n, t in enumerate(grid.nodes):
        ta = t**alpha
        for m, lm in enumerate(lam):
            W[n, m] = (ta * _ml_scalar(alpha, alpha + 1.0, -lm * ta)
                       if t > 0 else 0.0)
    return np.diff(W, axis=0), W


class TestKernelTableStability:
    """The array-built step weights against the scalar build.  Example 1
    never reaches the middle range, so it differs only where the array
    expansion sums fewer terms, or in another order, than the scalar
    one's 59 (measured: 7.9e-16 of the W scale in Wd); example 2 takes a
    few modes through the contour instead of the spectral integral.
    Wd = W[k+1] - W[k] cancels where a step adds little, so its deviation
    is bounded relative to the W entries it comes from."""

    @staticmethod
    def _tables(name):
        problem = load_config(bundled_config_path(f"{name}.cfg")).problem()
        args = (problem.basis, problem.grid, problem.alpha)
        return _step_weights(*args), _scalar_step_weights(*args)

    def test_example1_within_rel_1e15(self):
        Wd, (Wds, W) = self._tables("example1")
        scale = np.maximum(np.abs(W[:-1]), np.abs(W[1:]))
        assert np.all(np.abs(Wd - Wds) <= 1e-15 * scale)

    @pytest.mark.parametrize("name, scale", [
        ("example1", None), ("example2", None),
        # the `scaled-synth` benchmark: example 2 at K = 240, 30 x 30 modes
        ("example2", (240, 1.0, 30, 30)),
        # a non-square basis, whose eigenvalues seldom repeat
        ("example1", (240, 0.6, 12, 7)),
        # the same in one slab, whose sort sees every repeated eigenvalue
        ("example1", (60, 0.6, 12, 7)),
    ], ids=["example1", "example2", "scaled-synth", "non-square",
            "non-square-one-slab"])
    def test_slabs_match_whole_array_build(self, name, scale, monkeypatch):
        # the build that passed the whole 2-D argument array to `ml` once
        # gives the same bits; no sort inside the build sees more than one
        # slab of arguments
        problem = load_config(bundled_config_path(f"{name}.cfg")).problem()
        basis, grid, alpha = problem.basis, problem.grid, problem.alpha
        if scale:
            K, ly, mx, my = scale
            grid = TimeGrid(grid.T, K)
            basis = build_basis(replace(basis.domain, ly=ly), mx, my)
        ta = np.array([t**alpha for t in grid.nodes.tolist()])
        lam, mode = np.unique(basis.eigenvalues, return_inverse=True)
        z = -np.outer(ta, lam)
        W = ml(alpha, alpha + 1.0, z) * ta[:, None]
        Wd = np.take(np.diff(W, axis=0), mode, axis=1)
        sorts = record_calls(monkeypatch, np, "unique")
        Wdnew = _step_weights.__wrapped__(basis, grid, alpha)
        assert np.array_equal(Wdnew, Wd)
        assert Wdnew.flags.c_contiguous
        assert sorts and max(np.size(a) for a, *_ in sorts) <= min(
            solver._SLAB, ta.size * basis.eigenvalues.size
        )

    def test_example2_within_rel_1e12(self):
        Wd, (Wds, W) = self._tables("example2")
        assert not np.array_equal(Wd, Wds)
        scale = np.maximum(np.abs(W[:-1]), np.abs(W[1:]))
        assert np.all(np.abs(Wd - Wds) <= 1e-12 * scale)


def test_step_weights_peak_memory():
    # example 2 at K = 240 and 30 x 30 modes (the `scaled-synth`
    # benchmark): the build by row slabs traces 2.9 MB, the 1.7 MB table
    # included, against 7.3 MB for the parent build of both tables from
    # one sort of the whole argument array
    problem = load_config(bundled_config_path("example2.cfg")).problem()
    basis = build_basis(problem.basis.domain, 30, 30)
    grid = TimeGrid(problem.grid.T, 240)
    assert traced_peak(_step_weights.__wrapped__, basis, grid,
                       problem.alpha) < 3.5e6


@pytest.fixture(scope="module")
def scaled_problem(tmp_path_factory):
    """The `scaled-synth` benchmark's configuration: example 2 at K = 240,
    30 x 30 modes and n_max = 12."""
    cp = read_ini(bundled_config_path("example2.cfg"))
    for section, key, value in (("domain", "K", "240"),
                                ("domain", "mx", "30"),
                                ("domain", "my", "30"),
                                ("loop", "n_max", "12")):
        cp.set(section, key, value)
    path = tmp_path_factory.mktemp("scaled") / "scaled.cfg"
    with open(path, "w") as fh:
        cp.write(fh)
    return load_config(str(path)).problem()


class TestInitialStateSource:
    """The free decay of y0, summed by the step weights as the constant
    source -lam c0, against the decay table E1 of the oracle.  On the
    `scaled-synth` configuration the decay of its high modes cancels in
    1 - lam W (measured: 1.25e-13 of max|state| with F = 0, 1.10e-13
    with F = y^2)."""

    @staticmethod
    def _args(problem, F):
        y0 = from_function(
            problem.basis.domain, lambda x, y: 0.01 + 0.05 * x**2 * y**2
        )
        u = pinv_apply(problem.operator(), problem.d_s.values.ravel()).values
        return (y0, u, F, problem.act, problem.basis, problem.grid,
                problem.alpha)

    @staticmethod
    def assert_close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_linear_closed_form(self, scaled_problem):
        args = self._args(scaled_problem, NonlinearTerm.none())
        y0, u, _, act, basis, grid, alpha = args
        states = np.array(list(_node_states(*args)))
        E1 = decay_table(basis, grid, alpha)
        Wd = _step_weights(basis, grid, alpha)
        b = actuator_coefficients(act, basis)
        c0 = y0.coefficients(basis).ravel()
        ref = np.array([c0] + [
            E1[n] * c0 + b * np.sum(u[:n, None] * Wd[n - 1 :: -1], axis=0)
            for n in range(1, grid.K + 1)
        ])
        self.assert_close(states, ref)

    def test_square_step_equation(self, scaled_problem, monkeypatch):
        # both formulations solve each step's equation to 1e-15: the
        # solver's settling tolerance alone moves it by 3.8e-11 here
        args = self._args(scaled_problem, NonlinearTerm())
        _, kept_explicit = solve_semilinear_reference(*args)
        assert kept_explicit == []
        exact = solve_step_equation(*args, kept_explicit).coeffs
        monkeypatch.setattr(solver, "TOL_PICARD", 1e-15)
        self.assert_close(np.array(list(_node_states(*args))), exact)


class TestTrajectory:
    """A solve returns the state at T; the step loop, `_node_states`,
    yields every node's state as it computes it."""

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_last_node_state_is_final(self, name):
        problem = load_config(bundled_config_path(f"{name}.cfg")).problem()
        # the first residual-update control: non-zero on every step; the
        # final step keeps its predictor on example 1, and settles on
        # example 2
        u = pinv_apply(problem.operator(), problem.d_s.values.ravel()).values
        args = (problem.y0, u, problem.F, problem.act, problem.basis,
                problem.grid, problem.alpha)
        states = list(_node_states(*args))
        assert len(states) == problem.grid.K + 1
        traj = solve_semilinear(*args)
        assert np.array_equal(states[-1], traj.final)

    def test_warning_settings_hold_between_steps(self, setup):
        # the solver silences F's overflow warnings inside each step only:
        # wherever the loop yields, the caller's settings are in force
        dom, basis, act, grid = setup
        y0 = from_function(dom, lambda x, y: np.cos(np.pi * x))
        states = _node_states(y0, np.zeros(grid.K), NonlinearTerm(),
                              act, basis, grid, 0.5)
        with np.errstate(over="raise", invalid="raise"):
            before = np.geterr()
            next(states)
            next(states)
            assert np.geterr() == before
        states.close()

    def test_solve_peak_memory(self, scaled_problem):
        # tables built before tracing: a solve holds one (K x modes)
        # array, the sources, and traces 1.9 MB, against 3.6 MB when it
        # also stored every node state
        problem = scaled_problem
        u = pinv_apply(problem.operator(), problem.d_s.values.ravel()).values
        args = (problem.y0, u, problem.F, problem.act, problem.basis,
                problem.grid, problem.alpha)
        solve_semilinear(*args)
        assert traced_peak(solve_semilinear, *args) < 2.5e6

    def test_algorithm1_peak_memory(self, scaled_problem):
        # tables and operator built before tracing: a finished solve
        # leaves only its final state, so the loop's earlier trajectories
        # hold no (K x modes) sources while the next solve runs (2.5 MB,
        # against 4.3 MB when each kept its sources)
        problem = scaled_problem
        problem.operator()
        assert traced_peak(algorithm1, problem) < 3.0e6


class TestBlockHistory:
    """The history sum by blocks: each step sums its own leaf directly,
    and each block adds its left half's sources to its right half's rows
    by FFT convolutions with the same step weights."""

    @pytest.mark.parametrize("K", [240, 301])
    def test_within_rounding_of_direct_sum(self, scaled_problem, K):
        # the `scaled-synth` configuration (K = 240) and an odd K whose
        # last blocks are cut short at K; measured 7.2e-16 and 5.8e-16
        # of max|state|
        problem = scaled_problem
        u = pinv_apply(problem.operator(), problem.d_s.values.ravel()).values
        grid = TimeGrid(problem.grid.T, K)
        u = np.interp(np.arange(K) / K, np.arange(240) / 240, u)
        args = (problem.y0, u, problem.F, problem.act, problem.basis, grid,
                problem.alpha)
        got = np.array(list(_node_states(*args)))
        ref = direct_node_states(*args)
        assert not np.array_equal(got, ref)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_single_leaf_runs_no_fft(self, setup, monkeypatch):
        dom, basis, act, _ = setup

        def no_fft(*args, **kwargs):
            raise AssertionError("np.fft called")

        monkeypatch.setattr(np.fft, "rfft", no_fft)
        monkeypatch.setattr(np.fft, "irfft", no_fft)
        y0 = from_function(dom, lambda x, y: 0.1 * np.cos(np.pi * x))
        F = NonlinearTerm()
        solve_semilinear(y0, None, F, act, basis, TimeGrid(3.0, 64), 0.5)
        with pytest.raises(AssertionError, match="np.fft called"):
            solve_semilinear(y0, None, F, act, basis, TimeGrid(3.0, 65), 0.5)

    def test_fine_grid_peak_memory(self):
        # example 2's first control repeated 64 times (K = 2560, 20 x 20
        # modes), table built before tracing: the sources take 8.2 MB,
        # and FFT chunks of at most _SLAB values per array add little to
        # them (fixed 64-mode chunks traced 11.0 MB)
        problem = load_config(bundled_config_path("example2.cfg")).problem()
        u = pinv_apply(problem.operator(), problem.d_s.values.ravel()).values
        grid = TimeGrid(problem.grid.T, 64 * problem.grid.K)
        args = (problem.y0, np.repeat(u, 64), problem.F, problem.act,
                problem.basis, grid, problem.alpha)
        _step_weights(problem.basis, grid, problem.alpha)
        sources = grid.K * problem.basis.eigenvalues.size * 8
        assert traced_peak(solve_semilinear, *args) < sources + 0.5e6


class TestReferenceBitIdentical:
    """The step loop against `semilinear_oracle.reference_node_states`,
    the loop as it was written before its vector work was done in place:
    every yielded node state is equal, bit for bit, signs of zeros
    included.  The cases cover both bundled examples' first
    residual-update controls (example 1's last step keeps its
    predictor), the `scaled-synth` configuration from a non-zero y0 on
    one full block plan (K = 240) and on one whose last blocks are cut
    short (K = 301), F = 0, F = 0.5 y^3 and two certified steps (the
    case `unsettled`, named before sweeps that do not settle raised)."""

    @staticmethod
    def _bundled(name, F=None, y0=None):
        problem = load_config(bundled_config_path(f"{name}.cfg")).problem()
        u = pinv_apply(problem.operator(), problem.d_s.values.ravel()).values
        return (problem.y0 if y0 is None else y0(problem.basis.domain), u,
                problem.F if F is None else F, problem.act, problem.basis,
                problem.grid, problem.alpha)

    @staticmethod
    def _scaled(problem, K):
        u = pinv_apply(problem.operator(), problem.d_s.values.ravel()).values
        y0 = from_function(
            problem.basis.domain, lambda x, y: 0.01 + 0.05 * x**2 * y**2
        )
        return (y0, np.interp(np.arange(K) / K, np.arange(240) / 240, u),
                problem.F, problem.act, problem.basis,
                TimeGrid(problem.grid.T, K), problem.alpha)

    @staticmethod
    def _certified(setup):
        dom, basis, act, _ = setup
        y0 = from_function(dom, lambda x, y: 10.0 + 0.0 * x)
        return (y0, np.zeros(2), NonlinearTerm(), act, basis,
                TimeGrid(0.1, 2), 0.9)

    @pytest.mark.parametrize("case", [
        "example1", "example2", "scaled-synth-240", "scaled-synth-301",
        "linear", "cubic", "unsettled",
    ])
    def test_every_node_state(self, case, request):
        if case.startswith("scaled-synth"):
            args = self._scaled(request.getfixturevalue("scaled_problem"),
                                int(case[-3:]))
        elif case == "linear":
            args = self._bundled("example1", NonlinearTerm.none(),
                                 lambda dom: from_function(
                                     dom, lambda x, y: np.cos(np.pi * x)
                                     * np.cos(np.pi * y)))
        elif case == "cubic":
            args = self._bundled("example2",
                                 NonlinearTerm(0.5, 3))
        elif case == "unsettled":
            args = self._certified(request.getfixturevalue("setup"))
        else:
            args = self._bundled(case)
        got = list(_node_states(*args))
        ref = list(reference_node_states(*args))
        assert len(got) == len(ref) == args[5].K + 1
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)
            assert np.array_equal(np.signbit(g), np.signbit(r))
