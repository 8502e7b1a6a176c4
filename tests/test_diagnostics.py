import math

import numpy as np
import pytest

from fracctrl import diagnostics
from fracctrl.config import bundled_config_path, load_config
from fracctrl.control import ControlProblem, assemble_H
from fracctrl.diagnostics import (
    EnvelopeError,
    FNTable,
    compute_constants,
    estimate_A1,
    estimate_FN,
    g_alpha_norm,
    gram_spectrum,
    hypothesis_report,
    pinv_gain,
)
from fracctrl.domain import (
    Actuator,
    GridPatch,
    RectDomain,
    Region,
    build_basis,
    extend_target,
)
from fracctrl.mittag import ml
from fracctrl.solver import NonlinearTerm, TimeGrid


@pytest.fixture(scope="module")
def setup():
    dom = RectDomain(1.0, 1.0, 51, 51)
    basis = build_basis(dom, 20, 20)
    grid = TimeGrid(3.0, 60)
    return dom, basis, grid


class TestEstimateA1:
    def test_q_zero_closed_form(self, setup):
        # at q = 0 the mode supremum sits at the zero eigenvalue, where the
        # kernel is t^(a-1)/Gamma(a) and the integral is T^a/Gamma(a+1)
        _, basis, grid = setup
        alpha = 0.3
        val = estimate_A1(basis, grid, alpha, q=0.0)
        exact = grid.T**alpha / math.gamma(alpha + 1.0)
        assert val == pytest.approx(exact, rel=1e-8)

    def test_classical_limit(self, setup):
        # alpha = 1, q = 0: the kernel is exp(-lam t), sup at lam = 0 is 1
        _, basis, grid = setup
        assert estimate_A1(basis, grid, 1.0, q=0.0) == pytest.approx(
            grid.T, rel=1e-8
        )

    def test_monotone_in_T(self, setup):
        _, basis, _ = setup
        vals = [
            estimate_A1(basis, TimeGrid(T, 10), 0.5, q=0.4)
            for T in (1.0, 2.0, 4.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_monotone_in_q(self, setup):
        _, basis, grid = setup
        vals = [
            estimate_A1(basis, grid, 0.5, q=q) for q in (0.0, 0.3, 0.7, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_q(self, setup):
        _, basis, grid = setup
        with pytest.raises(ValueError):
            estimate_A1(basis, grid, 0.5, q=1.5)

    def test_quadrature_converged(self, setup):
        # tightening the tolerance should not move the value materially
        _, basis, grid = setup
        a = estimate_A1(basis, grid, 0.3, q=0.5, rtol=1e-6)
        b = estimate_A1(basis, grid, 0.3, q=0.5, rtol=1e-10)
        assert a == pytest.approx(b, rel=1e-5)


def _brute_force_a1(basis, T, alpha, q, panels):
    """A1 by two-point Gauss-Legendre panels graded geometrically in
    u = t^alpha, taking the supremum over all modes at every node."""
    lam = np.unique(basis.eigenvalues)
    shift = (lam + 1.0) ** q
    edges = np.concatenate(
        [[0.0], np.geomspace(1e-4 / (lam.max() + 1.0), T**alpha, panels)]
    )
    x, w = np.polynomial.legendre.leggauss(2)
    a, b = edges[:-1, None], edges[1:, None]
    u = (0.5 * (b - a) * x + 0.5 * (a + b)).ravel()
    weights = (0.5 * (b - a) * w).ravel()
    sup = np.max(shift * ml(alpha, alpha, -np.outer(u, lam)), axis=1)
    return float(weights @ sup) / alpha


@pytest.fixture(scope="module")
def basis8():
    return build_basis(RectDomain(1.0, 1.0, 21, 21), 8, 8)


class TestA1Envelope:
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_matches_brute_force(self, basis8, alpha, q):
        # The check's kinks (one per mode switch) limit it to O(h^2):
        # doubling its 12800 panels moves it by at most 3.6e-9 relative
        # over these six cases, so 1e-8 covers its own error.  The
        # adaptive quad that computed A1 before missed the check by
        # 1.2e-7 at (alpha, q) = (0.3, 1), 6.1e-8 at (0.6, 1), 5.2e-8 at
        # (1, 0.5), 1.9e-8 at (1, 1) and 1.2e-8 at (0.3, 0.5).
        ref = _brute_force_a1(basis8, 1.0, alpha, q, 12800)
        val = estimate_A1(basis8, TimeGrid(1.0, 8), alpha, q)
        assert val == pytest.approx(ref, rel=1e-8, abs=0.0)

    def test_envelope_complete(self, monkeypatch):
        # a denser start grid would expose a mode the envelope missed, a
        # tighter rtol a crossing it placed loosely
        cfg = load_config(bundled_config_path("example1.cfg"))
        a = estimate_A1(cfg.basis, cfg.grid, cfg.alpha, q=0.5)
        monkeypatch.setattr(diagnostics, "_ENVELOPE_PER_DECADE",
                            2 * diagnostics._ENVELOPE_PER_DECADE)
        b = estimate_A1(cfg.basis, cfg.grid, cfg.alpha, q=0.5, rtol=1e-10)
        assert b == pytest.approx(a, rel=1e-12, abs=0.0)

    def test_unsettled_envelope_raises(self, basis8, monkeypatch):
        # at alpha = 0.3 a crossing on the 8x8 basis splits once, so one
        # round leaves it unresolved
        monkeypatch.setattr(diagnostics, "_ENVELOPE_ROUNDS", 1)
        with pytest.raises(EnvelopeError, match="not resolved"):
            estimate_A1(basis8, TimeGrid(1.0, 8), 0.3, q=0.5)
        monkeypatch.setattr(diagnostics, "_ENVELOPE_ROUNDS", 2)
        assert estimate_A1(basis8, TimeGrid(1.0, 8), 0.3, q=0.5) > 0.0


class TestGAlphaNorm:
    def test_integrable_case_matches_quadrature(self):
        # alpha > 1/2: the continuum L2 norm exists; midpoint quadrature on
        # a fine grid should approach it
        alpha = 0.8
        T = 2.0
        exact = math.sqrt(
            T ** (2 * alpha - 1.0)
            / ((2 * alpha - 1.0) * math.gamma(alpha) ** 2)
        )
        val = g_alpha_norm(TimeGrid(T, 20000), alpha)
        assert val == pytest.approx(exact, rel=1e-3)

    def test_grid_level_growth_below_half(self):
        # alpha <= 1/2: the value grows under refinement (documented
        # grid-level constant, not a continuum norm)
        a = g_alpha_norm(TimeGrid(3.0, 60), 0.3)
        b = g_alpha_norm(TimeGrid(3.0, 600), 0.3)
        assert b > a


def _reference_fn(F, radii, basis, n_samples, seed):
    """estimate_FN's table and constants, one sample pair at a time."""
    wx, wy = basis.domain.quad_weights()
    w = np.outer(wx, wy)
    damp = (1.0 + basis.eigenvalues).reshape(basis.mx, basis.my) ** -1.0
    rng = np.random.default_rng(seed)

    def sample_unit():
        v = basis.from_spectral(
            rng.standard_normal((basis.mx, basis.my)) * damp
        )
        return v / math.sqrt(float(np.sum(w * v**2)))

    pairs = [
        (sample_unit(), sample_unit(), rng.uniform(), rng.uniform())
        for _ in range(n_samples)
    ]
    c_emb = max(float(np.sum(w * v**4)) ** 0.25 for v, *_ in pairs)
    c_diff = 0.0
    values = np.zeros((radii.size, radii.size))
    for i, r1 in enumerate(radii):
        for j, r2 in enumerate(radii):
            for v1, v2, s1, s2 in pairs:
                z, y = r1 * s1 * v1, r2 * s2 * v2
                dnorm = math.sqrt(float(np.sum(w * (z - y) ** 2)))
                if dnorm == 0.0:
                    continue
                c_diff = max(
                    c_diff, float(np.sum(w * (z - y) ** 4)) ** 0.25 / dnorm
                )
                ratio = math.sqrt(float(np.sum(w * (F(z) - F(y)) ** 2)))
                values[i, j] = max(values[i, j], ratio / dnorm)
    return values, c_emb, c_diff


def _vectorised_fn(F, radii, basis, n_samples, seed):
    """estimate_FN's table and constants with the sample pairs stacked,
    reduced over the field axes one radius pair at a time."""
    wx, wy = basis.domain.quad_weights()
    w = np.outer(wx, wy)
    damp = (1.0 + basis.eigenvalues).reshape(basis.mx, basis.my) ** -1.0
    rng = np.random.default_rng(seed)

    def sample_unit():
        v = basis.from_spectral(
            rng.standard_normal((basis.mx, basis.my)) * damp
        )
        return v / math.sqrt(float(np.sum(w * v**2)))

    pairs = [
        (sample_unit(), sample_unit(), rng.uniform(), rng.uniform())
        for _ in range(n_samples)
    ]
    v1, v2, s1, s2 = (np.array(col) for col in zip(*pairs))
    fields = (1, 2)
    c_emb = float(np.max(np.sum(w * v1**4, axis=fields) ** 0.25))
    values = np.zeros((radii.size, radii.size))
    c_diff = 0.0
    for i, r1 in enumerate(radii):
        z = (r1 * s1)[:, None, None] * v1
        for j, r2 in enumerate(radii):
            y = (r2 * s2)[:, None, None] * v2
            dz2 = (z - y) ** 2
            dnorm = np.sqrt(np.sum(w * dz2, axis=fields))
            keep = dnorm != 0.0
            if not keep.any():
                continue
            dz2, dnorm = dz2[keep], dnorm[keep]
            c_diff = max(c_diff, float(np.max(
                np.sum(w * dz2**2, axis=fields) ** 0.25 / dnorm
            )))
            df = F(z[keep]) - F(y[keep])
            ratio = np.sqrt(np.sum(w * df**2, axis=fields)) / dnorm
            values[i, j] = float(ratio.max())
    return values, c_emb, c_diff


class TestEstimateFN:
    # seed 0 is the one `fracctrl run` uses; seed 11 draws a pair with
    # v1 . v2 = 0.997 and a / b = 1.01 on the diagonal, where moments of
    # v1 and v2 themselves would lose 1.5e-13 to cancellation
    @pytest.mark.parametrize("seed", [0, 11])
    def test_matches_vectorised_loop_at_example_scale(self, seed):
        problem = load_config(bundled_config_path("example1.cfg")).problem()
        radii = np.geomspace(1e-4, 1.0, 9)
        table = estimate_FN(problem.F, radii, problem.basis, 100, seed)
        values, c_emb, c_diff = _vectorised_fn(
            problem.F, radii, problem.basis, 100, seed
        )
        np.testing.assert_allclose(table.values, values, rtol=1e-13, atol=0)
        assert table.c_emb == pytest.approx(c_emb, rel=1e-13, abs=0)
        assert table.c_diff == pytest.approx(c_diff, rel=1e-13, abs=0)

    @pytest.mark.parametrize("power", [2, 3])
    def test_matches_reference_loop(self, power):
        basis = build_basis(RectDomain(1.0, 1.0, 13, 11), 5, 4)
        F = NonlinearTerm.scaled_power(1.5, power)
        radii = np.array([0.0, 0.1, 0.5, 2.0])
        table = estimate_FN(F, radii, basis, n_samples=30, seed=7)
        values, c_emb, c_diff = _reference_fn(F, radii, basis, 30, 7)
        np.testing.assert_allclose(table.values, values, rtol=1e-12)
        assert table.c_emb == pytest.approx(c_emb, rel=1e-12)
        assert table.c_diff == pytest.approx(c_diff, rel=1e-12)

    def test_none_is_zero(self, setup):
        _, basis, _ = setup
        table = estimate_FN(
            NonlinearTerm.none(), np.array([0.1, 1.0]), basis
        )
        assert np.all(table.values == 0.0)

    def test_vanishes_at_zero_radius(self, setup):
        _, basis, _ = setup
        table = estimate_FN(
            NonlinearTerm.square(), np.array([1e-12, 0.5]), basis,
            n_samples=50,
        )
        assert table.values[0, 0] < 1e-10

    def test_grows_with_radius(self, setup):
        _, basis, _ = setup
        table = estimate_FN(
            NonlinearTerm.square(), np.array([0.1, 0.5, 2.0]), basis,
            n_samples=100,
        )
        d = np.diag(table.values)
        assert d[0] < d[1] < d[2]

    def test_seed_reproducible(self, setup):
        _, basis, _ = setup
        radii = np.array([0.2, 1.0])
        a = estimate_FN(NonlinearTerm.square(), radii, basis, 60, seed=3)
        b = estimate_FN(NonlinearTerm.square(), radii, basis, 60, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_closed_form_bound_dominates(self, setup):
        # for F = y^2 the quadratic-growth bound with the empirical
        # embedding constant must sit above every sampled ratio
        _, basis, _ = setup
        table = estimate_FN(
            NonlinearTerm.square(), np.array([0.3, 1.0]), basis,
            n_samples=100,
        )
        assert table.bound is not None
        assert np.all(table.bound >= table.values - 1e-12)

    def test_rejects_bad_radii(self, setup):
        _, basis, _ = setup
        with pytest.raises(ValueError):
            estimate_FN(NonlinearTerm.square(), np.array([0.5, 0.1]), basis)


class TestComputeConstants:
    def _table(self, radii, fn_zero):
        n = len(radii)
        values = np.zeros((n, n))
        values[:, 0] = fn_zero
        return FNTable(
            radii=np.asarray(radii, dtype=float), values=values, kind="power"
        )

    def test_zero_nonlinearity(self):
        table = self._table([0.5, 2.0], [0.0, 0.0])
        c = compute_constants(a1=1.5, mu=10.0, g_norm=2.0, fn_table=table)
        assert c.admissible
        assert c.kappa == 2.0
        assert c.m_kappa == pytest.approx(2.0 / 10.0)
        assert c.rho_kappa == pytest.approx(2.0 / 10.0)
        assert c.a_s == 0.0

    def test_linear_modulus_model(self):
        # F_N(theta, 0) = c theta with c (A1 + A2) kappa = 0.5 at the
        # admissible radius: substitute into the closed formulas
        a1, mu, g = 1.0, 2.0, 1.5
        a2 = mu * g
        kappa = 1.0
        c = 0.5 / ((a1 + a2) * kappa)
        radii = [0.5, 1.0]
        table = self._table(radii, [c * r for r in radii])
        out = compute_constants(a1, mu, g, table)
        assert out.kappa == kappa
        sup_fn = c * kappa
        assert out.m_kappa == pytest.approx((kappa / mu) * (1 - a1 * sup_fn))
        assert out.rho_kappa == pytest.approx(
            (kappa / mu) * (1 - (a1 + a2) * sup_fn)
        )
        assert out.a_s == pytest.approx(
            a2 * sup_fn / (1 - a1 * sup_fn)
        )
        assert out.m_kappa > 0.0
        assert out.rho_kappa <= out.m_kappa

    def test_no_admissible_radius(self):
        table = self._table([1.0], [100.0])
        out = compute_constants(a1=1.0, mu=1.0, g_norm=1.0, fn_table=table)
        assert not out.admissible
        assert out.kappa == 0.0

    def test_admissible_implies_contraction(self):
        # A_s < 1 is algebraically equivalent to the admissibility
        # inequality sup F_N < 1/(A1 + A2)
        table = self._table([0.1, 0.4], [0.01, 0.05])
        out = compute_constants(a1=2.0, mu=3.0, g_norm=1.0, fn_table=table)
        assert out.admissible
        assert out.a_s < 1.0


class TestGramSpectrum:
    def test_zero_actuator_violated(self, setup):
        _, basis, grid = setup
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4, gain=0.0)
        H = assemble_H(
            basis, act, grid, Region.interior(0.0, 0.3, 0.0, 0.1), 0.3
        )
        spec = gram_spectrum(H)
        assert spec.sigma_max == 0.0
        assert spec.verdict == "violated"

    def test_example_geometry_satisfied(self, setup):
        _, basis, grid = setup
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
        H = assemble_H(
            basis, act, grid, Region.interior(0.0, 0.3, 0.0, 0.1), 0.3
        )
        spec = gram_spectrum(H)
        assert spec.sigma_min > 0.0
        assert spec.verdict == "satisfied"
        assert 1 <= spec.effective_rank <= spec.n_dofs

    def test_column_permutation_invariant(self, setup):
        _, basis, grid = setup
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
        H = assemble_H(
            basis, act, grid, Region.interior(0.0, 0.3, 0.0, 0.1), 0.3
        )
        sig = np.linalg.svd(H.Mw, compute_uv=False)
        rng = np.random.default_rng(0)
        perm = rng.permutation(H.Mw.shape[1])
        sig_p = np.linalg.svd(H.Mw[:, perm], compute_uv=False)
        assert np.allclose(sig, sig_p, rtol=1e-10)


class TestHypothesisReport:
    def _problem(self, gain):
        dom = RectDomain(1.0, 1.0, 26, 26)
        basis = build_basis(dom, 10, 10)
        grid = TimeGrid(3.0, 20)
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4, gain=gain)
        omega = Region.interior(0.0, 0.3, 0.0, 0.1)
        gamma = Region.boundary("left", 0.0, 0.1)
        ys = dom.y[dom.y <= 0.1 + 1e-9]
        zd = 7 * ys**3 - 13 * ys**2 + 3.0
        d_s = extend_target(zd, omega, gamma, dom)
        return ControlProblem(
            basis=basis, act=act, grid=grid, alpha=0.3,
            F=NonlinearTerm.square(), omega_c=omega, gamma=gamma,
            d_s=d_s, zd=zd, lambda_reg=1e-6,
        )

    def test_zero_gain_violated(self):
        report = hypothesis_report(self._problem(0.0), n_samples=40)
        assert report.verdicts["controllability"] == "violated"
        assert report.violated

    def test_live_actuator_controllable(self):
        report = hypothesis_report(self._problem(1.0), n_samples=40)
        assert report.verdicts["controllability"] == "satisfied"
        assert report.gram_sigma_min > 0.0
        assert report.a1 > 0.0 and report.mu > 0.0

    def test_contraction_certificate_small_radius(self):
        # the admissibility radius search must find some kappa with
        # A_s < 1 on a grid reaching small radii
        report = hypothesis_report(
            self._problem(1.0), radii=np.geomspace(1e-6, 1.0, 11),
            n_samples=40,
        )
        assert report.verdicts["small-data-contraction"] == "satisfied"
        assert report.a_s < 1.0
        assert report.kappa > 0.0
        assert report.to_text().startswith("hypothesis report")


class TestPinvGain:
    def test_matches_svd_formula(self, setup):
        _, basis, grid = setup
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
        H = assemble_H(
            basis, act, grid, Region.interior(0.0, 0.3, 0.0, 0.1), 0.3,
            lambda_reg=1e-6,
        )
        sig = np.linalg.svd(H.Mw, compute_uv=False)
        expect = np.max(sig / (sig**2 + 1e-6))
        assert pinv_gain(H) == pytest.approx(expect, rel=1e-12)

    def test_one_svd_per_operator(self, setup, monkeypatch):
        # gram_spectrum and pinv_gain share the operator's singular values
        _, basis, grid = setup
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
        H = assemble_H(
            basis, act, grid, Region.interior(0.0, 0.3, 0.0, 0.1), 0.3,
            lambda_reg=1e-6,
        )
        sig = np.linalg.svd(H.Mw, compute_uv=False)
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        spec = gram_spectrum(H)
        gain = pinv_gain(H)
        assert gram_spectrum(H) == spec
        assert len(calls) == 1
        assert (spec.sigma_max, spec.sigma_min) == (sig[0], sig[-1])
        assert gain == np.max(sig / (sig**2 + 1e-6))
