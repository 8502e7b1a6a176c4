import dataclasses
import math

import numpy as np
import pytest

import fracctrl.control as control
from fracctrl import solver
from fracctrl.config import bundled_config_path, load_config
from fracctrl.control import (
    ControlProblem,
    ControlSignal,
    GramConditionError,
    algorithm1,
    assemble_H,
    boundary_error,
    picard_sequence,
    pinv_apply,
)
from fracctrl.diagnostics import hypothesis_report
from fracctrl.domain import (
    Actuator,
    Field,
    GridPatch,
    RectDomain,
    Region,
    _cos_rows,
    _trapezoid_weights,
    actuator_coefficients,
    build_basis,
    extend_target,
    restrict,
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
from fields import from_function
from semilinear_oracle import solve_semilinear_reference, solve_step_equation


@pytest.fixture(scope="module")
def setup():
    dom = RectDomain(1.0, 1.0, 51, 51)
    basis = build_basis(dom, 12, 12)
    grid = TimeGrid(3.0, 30)
    act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
    omega = Region.interior(0.0, 0.3, 0.0, 0.1)
    gamma = Region.boundary("left", 0.0, 0.1)
    return dom, basis, grid, act, omega, gamma


def _example_problem(setup, F, eps=1e-3, lambda_reg=-1.0, **kw):
    dom, basis, grid, act, omega, gamma = setup
    ys = dom.y[dom.y <= 0.1 + 1e-9]
    zd = 7 * ys**3 - 13 * ys**2 + 3.0
    d_s = extend_target(zd, omega, gamma, dom)
    return ControlProblem(
        basis=basis, act=act, grid=grid, alpha=0.3, F=F, omega_c=omega,
        gamma=gamma, d_s=d_s, zd=zd, eps=eps, lambda_reg=lambda_reg, **kw
    )


class TestPinvApply:
    def test_scalar_tikhonov_formula(self, setup):
        # one target dof: u = m r / (m m^T + lambda), checked entrywise
        _, basis, grid, act, _, gamma = setup
        H = assemble_H(basis, act, grid, gamma, 0.3, lambda_reg=1e-4)
        row = H.Mw[:1, :]
        H.Mw = row
        H.M = H.M[:1, :]
        H.weights = H.weights[:1] * 0 + 1.0
        H._svd = None
        r = np.array([2.5])
        u = pinv_apply(H, r)
        expect = row[0] * 2.5 / ((row @ row.T).item() + 1e-4)
        assert np.allclose(u.values, expect, rtol=1e-12)

    def test_image_round_trip(self, setup):
        # r in Im(M) with negligible regularization: M pinv(r) = r
        _, basis, grid, act, omega, _ = setup
        H = assemble_H(basis, act, grid, omega, 0.3, lambda_reg=1e-16)
        u_true = np.sin(np.linspace(0.0, 2.0, grid.K))
        r = H.apply(u_true)
        u = pinv_apply(H, r)
        assert np.allclose(H.apply(u.values), r, atol=1e-8 * np.abs(r).max())

    def test_linearity(self, setup):
        _, basis, grid, act, omega, _ = setup
        H = assemble_H(basis, act, grid, omega, 0.3, lambda_reg=1e-8)
        rng = np.random.default_rng(1)
        r1 = rng.standard_normal(H.M.shape[0])
        r2 = rng.standard_normal(H.M.shape[0])
        u1 = pinv_apply(H, r1).values
        u2 = pinv_apply(H, r2).values
        u12 = pinv_apply(H, 2.0 * r1 - 3.0 * r2).values
        assert np.allclose(u12, 2.0 * u1 - 3.0 * u2, atol=1e-10)

    def test_minimizes_regularized_objective(self, setup):
        # the returned control beats 100 random perturbations of itself
        _, basis, grid, act, omega, _ = setup
        lam = 1e-6
        H = assemble_H(basis, act, grid, omega, 0.3, lambda_reg=lam)
        rng = np.random.default_rng(7)
        r = rng.standard_normal(H.M.shape[0])
        rw = np.sqrt(H.weights) * r
        u = pinv_apply(H, r).values

        def objective(v):
            return float(np.sum((H.Mw @ v - rw) ** 2) + lam * np.sum(v**2))

        base = objective(u)
        for _ in range(100):
            d = rng.standard_normal(u.size)
            d *= rng.uniform(1e-4, 1.0) / np.linalg.norm(d)
            assert objective(u + d) >= base

    def test_rejects_wrong_size(self, setup):
        _, basis, grid, act, omega, _ = setup
        H = assemble_H(basis, act, grid, omega, 0.3)
        with pytest.raises(ValueError):
            pinv_apply(H, np.ones(3))

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_matches_dual_cholesky_form(self, name):
        # the SVD filter form against the dual form
        # u = Mw^T (Mw Mw^T + lambda I)^(-1) rw through a Cholesky factor,
        # on the bundled examples' operators, for d_s and random residuals
        problem = load_config(bundled_config_path(f"{name}.cfg")).problem()
        H = problem.operator()
        G = H.Mw @ H.Mw.T
        L = np.linalg.cholesky(G + H.lambda_reg * np.eye(G.shape[0]))
        rng = np.random.default_rng(3)
        residuals = [problem.d_s.values.ravel()] + [
            rng.standard_normal(G.shape[0]) for _ in range(20)
        ]
        for r in residuals:
            rw = np.sqrt(H.weights) * r
            ref = H.Mw.T @ np.linalg.solve(L.T, np.linalg.solve(L, rw))
            u = pinv_apply(H, r).values
            assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_singular_gram_raises(self, setup):
        # without regularization the Gram matrix of a target with more
        # nodes than steps is singular; with fewer nodes it is positive
        # definite in exact arithmetic, but its smallest singular values
        # lie below the rounding floor max(dofs, K) eps sigma_max and the
        # control they would give (|u| ~ 1e16) is meaningless
        _, basis, grid, act, omega, gamma = setup
        H = assemble_H(basis, act, grid, omega, 0.3, lambda_reg=0.0)
        assert H.M.shape[0] > grid.K
        with pytest.raises(GramConditionError) as exc:
            pinv_apply(H, np.ones(H.M.shape[0]))
        assert exc.value.sigma_min == 0.0
        H = assemble_H(basis, act, grid, gamma, 0.3, lambda_reg=0.0)
        assert H.M.shape[0] < grid.K
        with pytest.raises(GramConditionError) as exc:
            pinv_apply(H, np.ones(H.M.shape[0]))
        assert 0.0 < exc.value.sigma_min <= exc.value.floor


class TestAssembleH:
    def test_constant_mode_closed_form(self, setup):
        # single constant mode (eigenvalue 0): the response to a unit
        # control on step k is b0 ((T-t_k)^a - (T-t_(k+1))^a) / Gamma(a+1)
        dom, _, grid, act, omega, _ = setup
        basis1 = build_basis(dom, 1, 1)
        alpha = 0.3
        H = assemble_H(basis1, act, grid, omega, alpha)
        from fracctrl.domain import actuator_coefficients

        b0 = actuator_coefficients(act, basis1)[0]
        t = grid.nodes
        T = grid.T
        expect = b0 * ((T - t[:-1]) ** alpha - (T - t[1:]) ** alpha)
        expect /= math.gamma(alpha + 1.0)
        # every target node sees the same constant-mode response
        assert np.allclose(H.M, expect[None, :], rtol=1e-12)

    def test_classical_alpha_one_weights(self, setup):
        # alpha = 1: mode response is (exp(-lam(T-t_(k+1)))
        # - exp(-lam(T-t_k))) / lam, the classical heat-kernel quadrature
        dom, _, grid, act, omega, _ = setup
        basis = build_basis(dom, 3, 1)
        H = assemble_H(basis, act, grid, omega, 1.0)
        from fracctrl.domain import actuator_coefficients, _cos_rows

        b = actuator_coefficients(act, basis)
        lam = basis.eigenvalues
        t = grid.nodes
        T = grid.T
        C = np.empty((lam.size, grid.K))
        for m, lm in enumerate(lam):
            if lm == 0.0:
                C[m] = b[m] * (t[1:] - t[:-1])
            else:
                C[m] = b[m] * (
                    np.exp(-lm * (T - t[1:])) - np.exp(-lm * (T - t[:-1]))
                ) / lm
        patch_x = dom.x[dom.x <= 0.3 + 1e-9]
        ex = _cos_rows(3, 1.0, patch_x)
        # reconstruct the target-node values from the mode responses
        ny = dom.y[dom.y <= 0.1 + 1e-9].size
        expect = np.repeat(ex.T @ C, ny, axis=0)
        assert np.allclose(H.M, expect, rtol=1e-10)

    @pytest.mark.parametrize("target", [
        Region.interior(0.2, 0.5, 0.6, 0.8),
        Region.boundary("left", 0.0, 0.1),
        Region.boundary("right", 0.2, 0.5),
        Region.boundary("bottom", 0.3, 0.6),
        Region.boundary("top", 0.1, 0.4),
    ])
    def test_target_dofs_match_per_side_construction(self, setup, target):
        # reference: the dense evaluation matrix of all modes at the
        # target nodes, built from the node coordinates with each boundary
        # side placed on its edge by hand, times the mode responses at T.
        # H synthesises the nodes per step from the separable cosine rows
        # instead, so M agrees up to rounding and the weights exactly
        dom, basis, grid, act, _, _ = setup

        def nodes(coords, lo, hi):
            return coords[(coords >= lo - 1e-9) & (coords <= hi + 1e-9)]

        if target.kind == "interior":
            x0, x1, y0, y1 = target.bounds
            xs, ys = nodes(dom.x, x0, x1), nodes(dom.y, y0, y1)
            ex = _cos_rows(basis.mx, dom.lx, xs)
            ey = _cos_rows(basis.my, dom.ly, ys)
            n = xs.size * ys.size
            w = np.outer(_trapezoid_weights(xs), _trapezoid_weights(ys))
        else:
            if target.side in ("left", "right"):
                s = nodes(dom.y, *target.bounds)
                xv = 0.0 if target.side == "left" else dom.lx
                ex = _cos_rows(basis.mx, dom.lx, np.array([xv]))
                ey = _cos_rows(basis.my, dom.ly, s)
            else:
                s = nodes(dom.x, *target.bounds)
                yv = 0.0 if target.side == "bottom" else dom.ly
                ex = _cos_rows(basis.mx, dom.lx, s)
                ey = _cos_rows(basis.my, dom.ly, np.array([yv]))
            n = s.size
            w = _trapezoid_weights(s)
        E_ref = np.einsum("ip,jq->pqij", ex, ey).reshape(
            n, basis.mx * basis.my
        )
        Wd = _step_weights(basis, grid, 0.3)
        C = (actuator_coefficients(act, basis)[None, :] * Wd[::-1]).T
        M_ref = E_ref @ C
        H = assemble_H(basis, act, grid, target, 0.3)
        assert H.M.shape == M_ref.shape
        assert np.max(np.abs(H.M - M_ref)) <= 1e-13 * np.max(np.abs(M_ref))
        assert np.array_equal(H.weights, w.ravel())

    @pytest.mark.parametrize("gamma", [
        Region.boundary("left", 0.0, 0.1),
        Region.boundary("right", 0.2, 0.5),
        Region.boundary("bottom", 0.3, 0.6),
        Region.boundary("top", 0.1, 0.4),
    ], ids=lambda g: g.side)
    def test_half_node_strip_is_the_segment(self, setup, gamma):
        # an omega_c narrower than one node spacing on Gamma's edge holds
        # exactly Gamma's nodes, and the default extension is z_d there:
        # steering d_s on it aims H at z_d on Gamma itself
        dom, basis, grid, act, _, _ = setup
        hx, hy = dom.x[1] / 2, dom.y[1] / 2
        s0, s1 = gamma.bounds
        strip = Region.interior(*{
            "left": (0.0, hx, s0, s1),
            "right": (dom.lx - hx, dom.lx, s0, s1),
            "bottom": (s0, s1, 0.0, hy),
            "top": (s0, s1, dom.ly - hy, dom.ly),
        }[gamma.side])
        H = assemble_H(basis, act, grid, gamma, 0.3)
        H_strip = assemble_H(basis, act, grid, strip, 0.3)
        assert np.array_equal(H_strip.M, H.M)
        assert np.array_equal(H_strip.weights, H.weights)
        zd = np.cos(np.arange(H.weights.size) + 0.5)
        d_s = extend_target(zd, strip, gamma, dom)
        assert np.array_equal(d_s.values.ravel(), zd)

    def test_rejects_empty_target(self, setup):
        dom, basis, grid, act, _, _ = setup
        bad = Region.interior(0.013, 0.017, 0.013, 0.017)  # between nodes
        with pytest.raises(ValueError):
            assemble_H(basis, act, grid, bad, 0.3)


class TestLinearControl:
    def test_zero_target_zero_control(self, setup):
        _, basis, grid, act, omega, _ = setup
        H = assemble_H(basis, act, grid, omega, 0.3)
        u = pinv_apply(H, np.zeros(H.M.shape[0]))
        assert np.all(u.values == 0.0)

    def test_scaling_covariance(self, setup):
        # doubling the target doubles the control (fixed regularization)
        _, basis, grid, act, omega, _ = setup
        H = assemble_H(basis, act, grid, omega, 0.3, lambda_reg=1e-8)
        rng = np.random.default_rng(3)
        d = rng.standard_normal(H.M.shape[0])
        u1 = pinv_apply(H, d).values
        u2 = pinv_apply(H, 2.0 * d).values
        assert np.allclose(u2, 2.0 * u1, atol=1e-10 * np.abs(u1).max())

    def test_reaches_manufactured_target(self, setup):
        # target manufactured as the image of u = 1: the synthesized
        # control reproduces the target values (the per-step control
        # itself is not identifiable — the map has fast-decaying
        # singular values — but its image is)
        _, basis, grid, act, omega, _ = setup
        H = assemble_H(basis, act, grid, omega, 0.3, lambda_reg=1e-14)
        d = H.apply(np.ones(grid.K))
        u = pinv_apply(H, d)
        reached = H.apply(u.values)
        assert np.linalg.norm(reached - d) <= 1e-4 * np.linalg.norm(d)


class TestBoundaryError:
    def test_reached_trace_is_zero_error(self, setup):
        dom, basis, grid, act, omega, gamma = setup
        y0 = from_function(
            dom, lambda x, y: np.cos(np.pi * x) + 0.5
        )
        traj = solve_semilinear(
            y0, None, NonlinearTerm.none(), act, basis, grid, 0.5
        )
        from fracctrl.domain import trace

        prof = trace(traj.final_field(), gamma)
        assert boundary_error(traj, prof.values, gamma) == 0.0

    def test_constant_offset_norm(self, setup):
        # error c over a segment of length L has norm c sqrt(L)
        dom, basis, grid, act, omega, gamma = setup
        traj = solve_semilinear(
            Field.zero(dom), None, NonlinearTerm.none(), act, basis, grid,
            0.5,
        )
        c = 2.0
        zd = np.full(dom.y[dom.y <= 0.1 + 1e-9].size, c)
        assert boundary_error(traj, zd, gamma) == pytest.approx(
            c * math.sqrt(0.1), rel=1e-12
        )


class TestAlgorithm1:
    def test_linear_exactness_one_iteration(self, setup):
        # F = none and d_s in Im(H): terminates at iteration 1 with
        # residual at the regularization-bias level
        problem = _example_problem(
            setup, NonlinearTerm.none(), eps=1e-6, lambda_reg=1e-10
        )
        H = problem.operator()
        manufactured = H.apply(np.cos(np.linspace(0.0, 1.0, H.M.shape[1])))
        problem.d_s = GridPatch(
            x=problem.d_s.x, y=problem.d_s.y,
            values=manufactured.reshape(problem.d_s.values.shape),
        )
        # the best achievable residual is the regularization bias
        # lambda (G + lambda I)^{-1} d_w, computable in closed form
        dw = np.sqrt(H.weights) * manufactured.ravel()
        G = H.Mw @ H.Mw.T
        A = G + problem.lambda_reg * np.eye(G.shape[0])
        bias = problem.lambda_reg * np.linalg.norm(
            np.linalg.solve(A, dw)
        )
        problem.eps = 1e-6 + bias
        u, traj, report = algorithm1(problem)
        assert report.converged
        assert report.iterations == 1
        assert report.residuals[0] <= 1e-6 + bias * (1.0 + 1e-9)

    def test_zero_target_trivial(self, setup):
        problem = _example_problem(setup, NonlinearTerm.none())
        problem.d_s = GridPatch(
            x=problem.d_s.x, y=problem.d_s.y,
            values=np.zeros_like(problem.d_s.values),
        )
        problem.zd = np.zeros_like(problem.zd)
        u, traj, report = algorithm1(problem)
        assert report.converged
        assert report.returned == report.iterations - 1
        assert np.all(u.values == 0.0)
        assert report.costs[-1] == 0.0

    def test_linear_residual_constant_after_first(self, setup):
        # with F = none the reached state is linear in r, so from
        # iteration 1 onward the residual only shrinks by the iterated
        # Tikhonov factor, which is tiny at small regularization
        problem = _example_problem(
            setup, NonlinearTerm.none(), eps=1e-14, lambda_reg=1e-10,
            n_max=6,
        )
        u, traj, report = algorithm1(problem)
        assert report.iterations >= 3
        later = report.residuals[1:]
        assert np.allclose(later, later[0], rtol=1e-2)

    def test_gamma_mode_residual_is_boundary_error(self, setup):
        # an omega_c half a node wide on Gamma's edge holds only Gamma's
        # nodes, where the default extension is z_d
        narrow = Region.interior(0.0, 0.01, 0.0, 0.1)
        problem = _example_problem(
            (*setup[:4], narrow, setup[5]), NonlinearTerm.none(), eps=1e-3,
            lambda_reg=1e-8, n_max=3,
        )
        u, traj, report = algorithm1(problem)
        assert report.residuals == pytest.approx(report.boundary_errors)

    def test_y0_offset_linear(self, setup):
        # with y0 nonzero and F = none the loop still reaches the target:
        # the residual is initialized net of the free evolution
        dom, basis, grid, act, omega, gamma = setup
        problem = _example_problem(
            setup, NonlinearTerm.none(), eps=1e-8, lambda_reg=1e-12
        )
        problem.y0 = from_function(
            dom, lambda x, y: 0.1 * np.cos(np.pi * y)
        )
        H = problem.operator()
        manufactured = H.apply(np.sin(np.linspace(0.0, 2.0, H.M.shape[1])))
        free = solve_semilinear(
            problem.y0, None, NonlinearTerm.none(), act, basis, grid, 0.3
        )
        offset = restrict(free.final_field(), omega).values
        problem.d_s = GridPatch(
            x=problem.d_s.x, y=problem.d_s.y,
            values=manufactured.reshape(problem.d_s.values.shape) + offset,
        )
        u, traj, report = algorithm1(problem)
        assert report.converged
        assert report.residuals[-1] <= 1e-6


class TestPicardSequence:
    def test_linear_collapses_to_linear_control(self, setup):
        # F = none: converges in one step to the one-shot control
        problem = _example_problem(
            setup, NonlinearTerm.none(), eps=1e-10, lambda_reg=1e-8
        )
        u, traj, report = picard_sequence(problem)
        assert report.converged
        H = problem.operator()
        expect = pinv_apply(H, problem.d_s.values.ravel())
        assert np.allclose(u.values, expect.values, atol=1e-12)

    def test_zero_target_stays_zero(self, setup):
        problem = _example_problem(setup, NonlinearTerm())
        problem.d_s = GridPatch(
            x=problem.d_s.x, y=problem.d_s.y,
            values=np.zeros_like(problem.d_s.values),
        )
        problem.zd = np.zeros_like(problem.zd)
        u, traj, report = picard_sequence(problem)
        assert report.converged
        assert np.all(u.values == 0.0)

    def test_requires_zero_initial_state(self, setup):
        dom = setup[0]
        problem = _example_problem(setup, NonlinearTerm.none())
        problem.y0 = from_function(dom, lambda x, y: x * 0 + 1.0)
        with pytest.raises(ValueError):
            picard_sequence(problem)

    def test_small_target_contracts(self, setup):
        # scaled-down target: successive control increments shrink
        problem = _example_problem(
            setup, NonlinearTerm(), eps=1e-9, lambda_reg=1e-8,
            n_max=25,
        )
        problem.d_s = GridPatch(
            x=problem.d_s.x, y=problem.d_s.y,
            values=problem.d_s.values * 1e-2,
        )
        problem.zd = problem.zd * 1e-2
        u, traj, report = picard_sequence(problem)
        assert report.converged
        ratios = report.contraction_ratios()
        assert len(ratios) >= 1
        assert all(r < 1.0 for r in ratios[1:])

    def test_runaway_control_raises_divergence(self, setup):
        # u_1 = pinv(d_s) drives the square nonlinearity out of the
        # solver's contraction regime: the solve raises, as it does under
        # algorithm1
        problem = _example_problem(setup, NonlinearTerm())
        for loop in (picard_sequence, algorithm1):
            with pytest.raises(SemilinearDivergenceError):
                loop(problem)

    def test_one_solve_per_row(self, setup, monkeypatch):
        # row n describes the control simulated at step n: u_0 = 0 reaches
        # the zero state, so it is not simulated and u_1 = pinv(d_s)
        problem = _example_problem(
            setup, NonlinearTerm(), eps=1e-6, lambda_reg=1e-8,
        )
        problem.d_s = GridPatch(
            x=problem.d_s.x, y=problem.d_s.y,
            values=problem.d_s.values * 1e-2,
        )
        problem.zd = problem.zd * 1e-2
        controls = []

        def spy(y0, u, *args, **kwargs):
            controls.append(u)
            return solve_semilinear(y0, u, *args, **kwargs)

        monkeypatch.setattr(control, "solve_semilinear", spy)
        u, traj, report = picard_sequence(problem)
        assert report.converged
        assert len(controls) == report.iterations >= 2
        H = problem.operator()
        ds_vec = problem.d_s.values.ravel()
        assert np.array_equal(controls[0], pinv_apply(H, ds_vec).values)
        for n, values in enumerate(controls):
            fresh = solve_semilinear(
                problem.y0, values, problem.F, problem.act, problem.basis,
                problem.grid, problem.alpha,
            )
            reached = restrict(fresh.final_field(), problem.omega_c).values
            assert report.residuals[n] == H.target_norm(
                ds_vec - reached.ravel())
            assert report.boundary_errors[n] == boundary_error(
                fresh, problem.zd, problem.gamma)

    def test_max_iterations_returns_simulated_control(self, setup):
        # the loop runs out with an accepted update: it is simulated before
        # returning, and the last report row describes it
        problem = _example_problem(
            setup, NonlinearTerm(), eps=1e-12, lambda_reg=1e-8,
            n_max=2,
        )
        problem.d_s = GridPatch(
            x=problem.d_s.x, y=problem.d_s.y,
            values=problem.d_s.values * 1e-2,
        )
        problem.zd = problem.zd * 1e-2
        u, traj, report = picard_sequence(problem)
        assert report.status == "max-iterations"
        assert report.returned == int(np.argmin(report.residuals))
        again = solve_semilinear(
            problem.y0, u, problem.F, problem.act, problem.basis,
            problem.grid, problem.alpha,
        )
        assert np.array_equal(again.final, traj.final)
        assert report.costs[-1] == u.cost()
        assert report.boundary_errors[-1] == boundary_error(
            traj, problem.zd, problem.gamma
        )
        reached = restrict(traj.final_field(), problem.omega_c).values
        assert report.residuals[-1] == problem.operator().target_norm(
            problem.d_s.values.ravel() - reached.ravel()
        )


@pytest.mark.parametrize("loop", [algorithm1, picard_sequence])
def test_loops_reject_n_max_below_one(setup, loop):
    problem = dataclasses.replace(
        _example_problem(setup, NonlinearTerm.none()), n_max=0
    )
    with pytest.raises(ValueError, match="n_max"):
        loop(problem)


class TestOperatorPerProblem:
    def test_diagnostics_and_loop_share_one_operator(
        self, setup, monkeypatch
    ):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return assemble_H(*args, **kwargs)

        monkeypatch.setattr(control, "assemble_H", counted)
        problem = _example_problem(setup, NonlinearTerm.none(), n_max=1)
        hypothesis_report(problem)
        algorithm1(problem)
        assert len(calls) == 1
        assert problem.operator() is problem.operator()
        # a problem made by dataclasses.replace builds its own operator
        other = dataclasses.replace(problem, lambda_reg=1e-6)
        assert other.operator() is not problem.operator()
        assert other.operator().lambda_reg == 1e-6
        assert len(calls) == 2


class TestKernelTables:
    """The step weights are the one kernel table: built once per problem
    and read by every operator and solve, from a zero initial state or
    not.  The free decay of y0 rides in the solver's history sum."""

    @staticmethod
    def _run(setup, **kw):
        problem = _example_problem(
            setup, NonlinearTerm(), eps=1e-14, lambda_reg=1e-8,
            n_max=3, **kw,
        )
        problem.d_s = GridPatch(
            x=problem.d_s.x, y=problem.d_s.y,
            values=problem.d_s.values * 1e-2,
        )
        _step_weights.cache_clear()
        u, traj, report = algorithm1(problem)
        assert report.iterations == 3
        return problem, u, traj, report

    @staticmethod
    def _y0(dom):
        return from_function(
            dom, lambda x, y: 1e-2 * np.cos(np.pi * x) + 0.0 * y
        )

    def test_step_weights_built_once(self, setup):
        _, _, _, report = self._run(setup)
        info = _step_weights.cache_info()
        assert info.misses == 1
        assert info.hits >= report.iterations

    def test_initial_state_reads_step_weights_alone(self, setup,
                                                     monkeypatch):
        # a grid no other test builds tables for: every Mittag-Leffler
        # call of the run is made here, and each is the step weights'
        # beta = alpha + 1; no free-decay table (beta = 1) is built
        dom, basis, _, act, omega, gamma = setup
        calls = []

        def recording(alpha, beta, z):
            calls.append((alpha, beta))
            return ml(alpha, beta, z)

        monkeypatch.setattr(solver, "ml", recording)
        self._run((dom, basis, TimeGrid(3.0, 26), act, omega, gamma),
                  y0=self._y0(dom))
        assert calls and set(calls) == {(0.3, 0.3 + 1.0)}

    def test_initial_state_within_step_equation_bound(self, setup):
        y0 = self._y0(setup[0])
        problem, u, traj, _ = self._run(setup, y0=y0)
        assert _step_weights.cache_info().misses == 1
        # within the solver's bound against the step equation
        # (test_solver.TestStepEquation), whose reference reads the free
        # decay from a table
        args = (y0, u.values, problem.F, problem.act, problem.basis,
                problem.grid, problem.alpha)
        _, kept_explicit = solve_semilinear_reference(*args)
        exact = solve_step_equation(*args, kept_explicit).coeffs
        assert np.max(np.abs(exact[0])) > 0.0
        states = np.array(list(_node_states(*args)))
        assert np.array_equal(states[-1], traj.final)
        assert (np.max(np.abs(states - exact))
                <= 3e-11 * np.max(np.abs(exact)))

    def test_tables_are_read_only(self, setup):
        _, basis, grid, _, _, _ = setup
        assert not _step_weights(basis, grid, 0.3).flags.writeable


class TestControlSignal:
    def test_cost_is_squared_l2(self, setup):
        _, _, grid, _, _, _ = setup
        u = ControlSignal(np.full(grid.K, 2.0), grid)
        assert u.cost() == pytest.approx(4.0 * grid.T)
        assert u.norm() == pytest.approx(2.0 * math.sqrt(grid.T))

    def test_rejects_nonfinite(self, setup):
        _, _, grid, _, _, _ = setup
        vals = np.zeros(grid.K)
        vals[3] = np.inf
        with pytest.raises(ValueError):
            ControlSignal(vals, grid)

    def test_rejects_wrong_length(self, setup):
        _, _, grid, _, _, _ = setup
        with pytest.raises(ValueError):
            ControlSignal(np.zeros(grid.K + 1), grid)
