import math
import warnings

import numpy as np
import pytest

from fracctrl.config import bundled_config_path, load_config
from fracctrl.control import pinv_apply
from fracctrl.domain import (
    Actuator,
    Field,
    RectDomain,
    actuator_coefficients,
    build_basis,
)
from fracctrl.mittag import h_symbol
from fracctrl.solver import (
    GridTrajectory,
    NonlinearTerm,
    SemilinearDivergenceError,
    TimeGrid,
    _kernel_tables,
    l1_oracle_solve,
    solve_linear,
    solve_semilinear,
)
from ml_oracle import _ml_scalar
from semilinear_oracle import solve_semilinear_reference


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
        for F in (NonlinearTerm.none(), NonlinearTerm.square(),
                  NonlinearTerm.scaled_power(-2.0, 3)):
            assert np.all(F(np.zeros(5)) == 0.0)

    def test_square(self):
        F = NonlinearTerm.square()
        assert np.allclose(F(np.array([1.0, -3.0])), [1.0, 9.0])

    def test_bad_power(self):
        with pytest.raises(ValueError):
            NonlinearTerm.scaled_power(1.0, 4)


class TestSolveLinear:
    def test_eigenmode_decay_law(self, setup):
        dom, basis, act, grid = setup
        alpha = 0.3
        y0 = Field.from_function(
            dom, lambda x, y: basis.evaluate_mode(1, 0, x, y)
        )
        traj = solve_linear(y0, None, act, basis, grid, alpha)
        c = traj.coeffs[-1].reshape(basis.mx, basis.my)
        assert c[1, 0] == pytest.approx(
            h_symbol(math.pi**2, 3.0, alpha), abs=1e-12
        )
        mask = np.ones_like(c, dtype=bool)
        mask[1, 0] = False
        assert np.max(np.abs(c[mask])) < 1e-12

    def test_zero_data_zero_trajectory(self, setup):
        dom, basis, act, grid = setup
        traj = solve_linear(Field.zero(dom), None, act, basis, grid, 0.5)
        assert np.max(np.abs(traj.coeffs)) == 0.0

    def test_snapshot_zero_is_initial_state(self, setup):
        dom, basis, act, grid = setup
        y0 = Field.from_function(dom, lambda x, y: np.cos(np.pi * x))
        traj = solve_linear(y0, None, act, basis, grid, 0.5)
        assert np.allclose(traj.snapshot(0).values, y0.values, atol=1e-12)

    def test_classical_integrator_mode(self, setup):
        # alpha=1 with D=Omega drives only the constant mode, which then
        # integrates the control: c_00(T) = T for u = 1
        dom, basis, _, grid = setup
        act = Actuator.zonal(0.0, 1.0, 0.0, 1.0)
        traj = solve_linear(
            Field.zero(dom), np.ones(grid.K), act, basis, grid, 1.0
        )
        assert traj.coeffs[-1][0] == pytest.approx(3.0, rel=1e-12)

    def test_joint_linearity(self, setup):
        dom, basis, act, grid = setup
        alpha = 0.6
        y0a = Field.from_function(dom, lambda x, y: np.cos(np.pi * y))
        y0b = Field.from_function(dom, lambda x, y: np.cos(2 * np.pi * x))
        rng = np.random.default_rng(7)
        ua = rng.normal(size=grid.K)
        ub = rng.normal(size=grid.K)
        combo = solve_linear(
            Field(dom, 2.0 * y0a.values - 0.5 * y0b.values),
            2.0 * ua - 0.5 * ub, act, basis, grid, alpha,
        )
        parts = (
            2.0 * solve_linear(y0a, ua, act, basis, grid, alpha).coeffs
            - 0.5 * solve_linear(y0b, ub, act, basis, grid, alpha).coeffs
        )
        assert np.max(np.abs(combo.coeffs - parts)) < 1e-10

    def test_modes_decay_monotonically(self, setup):
        dom, basis, act, grid = setup
        y0 = Field.from_function(
            dom, lambda x, y: np.exp(np.cos(np.pi * x) + np.cos(np.pi * y))
        )
        traj = solve_linear(y0, None, act, basis, grid, 0.4)
        mags = np.abs(traj.coeffs)
        assert np.all(np.diff(mags, axis=0) <= 1e-14)

    def test_mass_conservation(self, setup):
        dom, basis, act, grid = setup
        y0 = Field.from_function(dom, lambda x, y: 1.0 + np.cos(np.pi * x))
        traj = solve_linear(y0, None, act, basis, grid, 0.3)
        assert np.max(np.abs(traj.coeffs[:, 0] - traj.coeffs[0, 0])) < 1e-12

    def test_control_length_mismatch(self, setup):
        dom, basis, act, grid = setup
        with pytest.raises(ValueError):
            solve_linear(Field.zero(dom), np.ones(10), act, basis, grid, 0.5)


class TestSolveSemilinear:
    def test_no_nonlinearity_matches_linear(self, setup):
        dom, basis, act, grid = setup
        y0 = Field.from_function(dom, lambda x, y: 0.1 * np.cos(np.pi * x))
        u = 0.3 * np.ones(grid.K)
        a = solve_linear(y0, u, act, basis, grid, 0.3)
        b = solve_semilinear(
            y0, u, NonlinearTerm.none(), act, basis, grid, 0.3
        )
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12

    def test_zero_data_stays_zero(self, setup):
        dom, basis, act, grid = setup
        traj = solve_semilinear(
            Field.zero(dom), None, NonlinearTerm.square(), act, basis,
            grid, 0.3,
        )
        assert np.max(np.abs(traj.coeffs)) == 0.0

    def test_agrees_with_l1_oracle(self, setup):
        dom, basis, act, grid = setup
        u = 0.5 * np.ones(grid.K)
        F = NonlinearTerm.square()
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
        y0 = Field.from_function(dom, lambda x, y: 50.0 + 0.0 * x)
        with pytest.raises(SemilinearDivergenceError):
            solve_semilinear(
                y0, None, NonlinearTerm.square(), act, basis, grid, 0.9
            )


class TestSweepLoopBitIdentical:
    """The solver against the reference loop in `semilinear_oracle`.

    The solver takes the control drive from `solve_linear`'s Toeplitz
    product, (u b + f) Wd re-associated as b (u Wd) + f Wd, which moves
    trajectories by rounding only (5.6e-16 of max|coeffs| measured on
    the examples); they are bounded at 1e-14.  A step that took the other
    branch of the sweep loop (explicit vs averaged) would differ by O(dt)
    and break the bound, so the bound also pins the steps that keep the
    explicit step.
    """

    @staticmethod
    def assert_rounding_close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name, unsettled", [
        ("example1", [60]),  # the final step keeps the explicit step
        ("example2", []),
    ])
    def test_example_trajectory(self, name, unsettled):
        problem = load_config(bundled_config_path(f"{name}.cfg")).problem()
        # the first residual-update control: non-zero on every step
        u = pinv_apply(problem.operator(), problem.target_values()).values
        args = (problem.y0, u, problem.F, problem.act, problem.basis,
                problem.grid, problem.alpha)
        ref, kept_explicit = solve_semilinear_reference(*args)
        assert kept_explicit == unsettled
        self.assert_rounding_close(solve_semilinear(*args).coeffs,
                                   ref.coeffs)

    def test_linear_drive(self):
        problem = load_config(bundled_config_path("example1.cfg")).problem()
        u = pinv_apply(problem.operator(), problem.target_values()).values
        basis, grid, alpha = problem.basis, problem.grid, problem.alpha
        y0 = Field.from_function(
            basis.domain, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
        )
        traj = solve_linear(y0, u, problem.act, basis, grid, alpha)
        # the drive as a materialised product summed over the step axis
        E1, Wd = _kernel_tables(basis, grid, alpha)
        b = actuator_coefficients(problem.act, basis)
        c0 = y0.coefficients(basis).ravel()
        ref = np.array([c0] + [
            E1[n] * c0 + b * np.sum(u[:n, None] * Wd[n - 1 :: -1], axis=0)
            for n in range(1, grid.K + 1)
        ])
        self.assert_rounding_close(traj.coeffs, ref)

    def test_unsettled_step_keeps_predictor(self, setup):
        # large data on a two-step grid: the sweeps expand at both steps,
        # so each keeps its predictor, F frozen at the step start
        dom, basis, act, _ = setup
        grid = TimeGrid(0.1, 2)
        y0 = Field.from_function(dom, lambda x, y: 10.0 + 0.0 * x)
        F = NonlinearTerm.square()
        args = (y0, None, F, act, basis, grid, 0.9)
        _, kept_explicit = solve_semilinear_reference(*args)
        assert kept_explicit == [1, 2]
        got = solve_semilinear(*args).coeffs
        lin = solve_linear(y0, None, act, basis, grid, 0.9).coeffs
        Wd = _kernel_tables(basis, grid, 0.9)[1]

        def f(c):
            nodal = basis.from_spectral(c.reshape(basis.mx, basis.my))
            return basis.to_spectral(F(nodal)).ravel()

        assert np.array_equal(got[1], lin[1] + f(got[0]) * Wd[0])
        assert np.array_equal(
            got[2], lin[2] + f(got[0]) * Wd[1] + f(got[1]) * Wd[0]
        )

    def test_divergence(self, setup):
        dom, basis, act, grid = setup
        y0 = Field.from_function(dom, lambda x, y: 50.0 + 0.0 * x)
        args = (y0, None, NonlinearTerm.square(), act, basis, grid, 0.9)
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
        y0 = Field.from_function(dom, lambda x, y: 1e200 + 0.0 * x)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SemilinearDivergenceError):
                solve_semilinear(
                    y0, None, NonlinearTerm.square(), act, basis, grid, 0.9
                )


class TestL1Oracle:
    def test_constant_preserved(self, setup):
        dom, _, act, grid = setup
        y0 = Field.from_function(dom, lambda x, y: 3.7 + 0.0 * x)
        traj = l1_oracle_solve(
            y0, None, NonlinearTerm.none(), act, dom, grid, 0.5
        )
        assert isinstance(traj, GridTrajectory)
        assert np.max(np.abs(traj.values - 3.7)) < 1e-11

    def test_mode_decay_reference(self, setup):
        dom, basis, act, grid = setup
        alpha = 0.3
        y0 = Field.from_function(
            dom, lambda x, y: basis.evaluate_mode(1, 0, x, y)
        )
        traj = l1_oracle_solve(
            y0, None, NonlinearTerm.none(), act, dom, grid, alpha
        )
        c = traj.final_field().coefficients(basis)
        expect = h_symbol(math.pi**2, 3.0, alpha)
        assert c[1, 0] == pytest.approx(expect, rel=5e-3)

    def test_temporal_convergence_rate(self):
        # against a fine-step run on the same grid, so the spatial error
        # cancels and the time-stepping order is isolated
        dom = RectDomain(1.0, 1.0, 26, 26)
        basis = build_basis(dom, 10, 10)
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
        alpha = 0.3
        y0 = Field.from_function(
            dom,
            lambda x, y: basis.evaluate_mode(1, 0, x, y)
            + basis.evaluate_mode(0, 1, x, y),
        )
        F = NonlinearTerm.none()

        def final(K):
            return l1_oracle_solve(
                y0, None, F, act, dom, TimeGrid(3.0, K), alpha
            ).values[-1]

        ref = final(640)
        errs = [np.linalg.norm(final(K) - ref) for K in (40, 80)]
        rate = math.log2(errs[0] / errs[1])
        assert rate >= min(2.0 - alpha, 2.0) - 0.3

    def test_pointwise_actuator_injects_mass(self, setup):
        dom, _, _, grid = setup
        act = Actuator.pointwise(0.48, 0.70)
        traj = l1_oracle_solve(
            Field.zero(dom), np.ones(grid.K), NonlinearTerm.none(), act,
            dom, grid, 0.6,
        )
        assert traj.final_field().norm_l2() > 0.0


def _scalar_kernel_tables(basis, grid, alpha):
    """(E1, Wd, W) built one scalar oracle evaluation at a time."""
    lam = basis.eigenvalues
    E1 = np.empty((grid.K + 1, lam.size))
    W = np.empty((grid.K + 1, lam.size))
    for n, t in enumerate(grid.nodes):
        ta = t**alpha
        for m, lm in enumerate(lam):
            E1[n, m] = _ml_scalar(alpha, 1.0, -lm * t**alpha) if t > 0 else 1.0
            W[n, m] = (ta * _ml_scalar(alpha, alpha + 1.0, -lm * ta)
                       if t > 0 else 0.0)
    return E1, np.diff(W, axis=0), W


class TestKernelTableStability:
    """The array-built tables against the scalar build.  Example 1 never
    reaches the middle range, so it must match bit for bit; example 2
    takes a few modes through the contour instead of the spectral
    integral.  Wd = W[k+1] - W[k] cancels where a step adds little, so
    its deviation is bounded relative to the W entries it comes from."""

    @staticmethod
    def _tables(name):
        problem = load_config(bundled_config_path(f"{name}.cfg")).problem()
        args = (problem.basis, problem.grid, problem.alpha)
        return _kernel_tables(*args), _scalar_kernel_tables(*args)

    def test_example1_bit_identical(self):
        (E1, Wd), (E1s, Wds, _) = self._tables("example1")
        assert np.array_equal(E1, E1s)
        assert np.array_equal(Wd, Wds)

    def test_example2_within_rel_1e12(self):
        (E1, Wd), (E1s, Wds, W) = self._tables("example2")
        assert not np.array_equal(E1, E1s)
        np.testing.assert_allclose(E1, E1s, rtol=1e-12, atol=0.0)
        scale = np.maximum(np.abs(W[:-1]), np.abs(W[1:]))
        assert np.all(np.abs(Wd - Wds) <= 1e-12 * scale)
