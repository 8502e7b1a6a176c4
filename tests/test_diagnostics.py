import math
import tracemalloc

import numpy as np
import pytest

from fracctrl import diagnostics
from fracctrl.config import bundled_config_path, load_config
from fracctrl.control import ControlProblem, assemble_H, pinv_apply
from fracctrl.diagnostics import (
    estimate_A1,
    g_alpha_norm,
    hypothesis_report,
    lipschitz_bracket,
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
from a1_oracle import estimate_A1 as dense_a1
from fields import evaluate_mode


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

    def test_quadrature_converged(self, setup, monkeypatch):
        # doubling the lattice density splits every cell, and the bound on
        # a part is at most the bound on the whole, so the sum cannot rise
        # and stays an upper bound on the dense envelope integral
        _, basis, grid = setup
        a = estimate_A1(basis, grid, 0.3, q=0.5)
        monkeypatch.setattr(diagnostics, "_CELLS_PER_DECADE",
                            2 * diagnostics._CELLS_PER_DECADE)
        b = estimate_A1(basis, grid, 0.3, q=0.5)
        assert dense_a1(basis, grid, 0.3, 0.5) <= b <= a

    def test_example1_peak_memory(self):
        # the one `ml` call over 12,543 elements, where A1 peaks: traced
        # 1.66 MB
        cfg = load_config(bundled_config_path("example1.cfg"))
        tracemalloc.start()
        try:
            estimate_A1(cfg.basis, cfg.grid, cfg.alpha, q=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6


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


def _assert_bounds(val, ref, q):
    """val is an upper bound on ref (to rounding), and at the lattice
    density of 16 nodes per decade no wider than the measured width: at
    most 8.7% above the dense envelope integral for q <= 1/2 and 25% at
    q = 1, over the cases below."""
    assert ref * (1.0 - 1e-12) <= val <= (1.10 if q <= 0.5 else 1.30) * ref


class TestA1Envelope:
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize("q", [0.5, 1.0])
    def test_matches_brute_force(self, basis8, alpha, q):
        # doubling the check's 12800 panels moves it by at most 3.6e-9
        # relative over these six cases, far inside the bound's width
        ref = _brute_force_a1(basis8, 1.0, alpha, q, 12800)
        _assert_bounds(estimate_A1(basis8, TimeGrid(1.0, 8), alpha, q),
                       ref, q)


class TestA1Candidates:
    """The cell sum against the dense envelope integral
    (`tests/a1_oracle.py`).  `test_bit_identical_to_dense` keeps the name
    of the equality check against an exact envelope integral that it
    replaced, so its ids stay comparable across versions."""

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6, 0.9, 1.0])
    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 1.0])
    def test_bit_identical_to_dense(self, setup, basis8, alpha, q):
        _, basis20, grid = setup
        for basis, grid in ((basis8, TimeGrid(1.0, 8)), (basis20, grid)):
            _assert_bounds(estimate_A1(basis, grid, alpha, q),
                           dense_a1(basis, grid, alpha, q), q)

    def test_evaluates_few_elements(self, monkeypatch):
        # one `ml` call per bundled example, over 12,543 elements
        elements = []

        def counting(alpha, beta, z):
            elements.append(np.size(z))
            return ml(alpha, beta, z)

        monkeypatch.setattr(diagnostics, "ml", counting)
        for name in ("example1.cfg", "example2.cfg"):
            cfg = load_config(bundled_config_path(name))
            elements.clear()
            estimate_A1(cfg.basis, cfg.grid, cfg.alpha, q=0.5)
            assert len(elements) == 1 and elements[0] <= 15_000


class TestA1Bound:
    """The cell sum is an upper bound within a factor of the dense
    envelope integral (`tests/a1_oracle.py`)."""

    @pytest.mark.parametrize("name", ["example1.cfg", "example2.cfg"])
    def test_bounds_bundled_configs(self, name):
        cfg = load_config(bundled_config_path(name))
        args = (cfg.basis, cfg.grid, cfg.alpha, 0.5)
        _assert_bounds(estimate_A1(*args), dense_a1(*args), 0.5)


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


class TestLipschitzBracket:
    def test_c_inf_on_example1_basis(self):
        # 20 cosines per unit axis: sum_k e_k^2 = 1 + 19 * 2 at a corner
        basis = load_config(bundled_config_path("example1.cfg")).basis
        lower, upper = lipschitz_bracket(NonlinearTerm(), basis)
        assert upper == pytest.approx(39.0, rel=1e-14)
        assert lower == pytest.approx(26.0085, abs=1e-4)

    @pytest.mark.parametrize("r", [1e-3, 0.7])
    def test_lower_end_attained_by_the_kernel(self, setup, r):
        # the normalised reproducing kernel at the corner node
        dom, basis, _ = setup
        coeffs = np.array([[evaluate_mode(basis, i, j, 0.0, 0.0)
                            for j in range(basis.my)]
                           for i in range(basis.mx)])
        v = basis.from_spectral(coeffs) / np.linalg.norm(coeffs)
        w = np.outer(*dom.quad_weights())
        F = NonlinearTerm()
        lower, _ = lipschitz_bracket(F, basis)
        ratio = math.sqrt(float(np.sum(w * F(r * v) ** 2))) / r**2
        assert ratio == pytest.approx(lower, rel=1e-12)

    @pytest.mark.parametrize("power", [2, 3])
    def test_upper_end_bounds_span_fields(self, power):
        basis = build_basis(RectDomain(1.0, 1.0, 13, 11), 5, 4)
        w = np.outer(*basis.domain.quad_weights())
        F = NonlinearTerm(1.5, power)
        lower, upper = lipschitz_bracket(F, basis)
        assert 0.0 < lower <= upper
        rng = np.random.default_rng(7)
        for _ in range(200):
            coeffs = rng.standard_normal((basis.mx, basis.my))
            z = rng.uniform(1e-3, 2.0) * basis.from_spectral(coeffs)
            norm = math.sqrt(float(np.sum(w * z**2)))
            ratio = math.sqrt(float(np.sum(w * F(z) ** 2))) / norm
            assert ratio <= upper * norm ** (power - 1) * (1.0 + 1e-12)

    def test_none_is_zero(self):
        assert lipschitz_bracket(
            NonlinearTerm.none(), build_basis(RectDomain(), 4, 4)
        ) == (0.0, 0.0)


def _problem(basis, grid, gain, F=NonlinearTerm()):
    """The bundled examples' geometry (alpha = 0.3, lambda_reg = 1e-6) on
    a given basis and time grid."""
    dom = basis.domain
    omega = Region.interior(0.0, 0.3, 0.0, 0.1)
    gamma = Region.boundary("left", 0.0, 0.1)
    ys = dom.y[dom.y <= 0.1 + 1e-9]
    zd = 7 * ys**3 - 13 * ys**2 + 3.0
    return ControlProblem(
        basis=basis, act=Actuator.zonal(0.0, 0.2, 0.2, 0.4, gain=gain),
        grid=grid, alpha=0.3, F=F, omega_c=omega, gamma=gamma,
        d_s=extend_target(zd, omega, gamma, dom), zd=zd, lambda_reg=1e-6,
    )


class TestComputeConstants:
    """The small-data constants of `hypothesis_report` for given A1, mu,
    |g| and upper end of the Lipschitz bracket; F = y^p, so
    F_N(r, 0) = upper * r^(p-1)."""

    @staticmethod
    def _report(monkeypatch, a1, mu, g_norm, upper, power=2):
        for name, value in (("estimate_A1", a1), ("pinv_gain", mu),
                            ("g_alpha_norm", g_norm),
                            ("lipschitz_bracket", (0.0, upper))):
            monkeypatch.setattr(diagnostics, name,
                                lambda *args, _value=value: _value)
        problem = _problem(build_basis(RectDomain(1.0, 1.0, 26, 26), 10, 10),
                           TimeGrid(3.0, 20), gain=1.0,
                           F=NonlinearTerm(1.0, power))
        return hypothesis_report(problem)

    def test_zero_nonlinearity(self, monkeypatch):
        # F_N is 0 at every radius: every radius is admissible
        c = self._report(monkeypatch, a1=1.5, mu=10.0, g_norm=2.0,
                         upper=0.0)
        assert (c.kappa, c.m_kappa, c.rho_kappa) == (math.inf,) * 3
        assert c.a_s == 0.0

    def test_linear_modulus_model(self, monkeypatch):
        # F_N(theta, 0) = c theta: kappa* = 1/(2 c (A1 + A2)), and the
        # margins and A_s there follow from the closed formulas
        a1, mu, g, c = 1.0, 2.0, 1.5, 0.125
        a2 = mu * g
        out = self._report(monkeypatch, a1, mu, g, upper=c)
        kappa = 1.0 / (2.0 * c * (a1 + a2))
        assert out.kappa == pytest.approx(kappa, rel=1e-15)
        sup_fn = c * kappa
        assert out.m_kappa == pytest.approx((kappa / mu) * (1 - a1 * sup_fn))
        assert out.rho_kappa == pytest.approx(
            (kappa / mu) * (1 - (a1 + a2) * sup_fn)
        )
        assert out.a_s == pytest.approx(
            a2 * sup_fn / (1 - a1 * sup_fn)
        )
        assert 0.0 < out.rho_kappa <= out.m_kappa

    def test_no_admissible_radius(self, monkeypatch):
        # a dead actuator: no gain, or an unbounded one
        for mu in (0.0, math.inf):
            out = self._report(monkeypatch, a1=1.0, mu=mu, g_norm=1.0,
                               upper=100.0)
            assert (out.kappa, out.m_kappa, out.rho_kappa) == (0.0,) * 3
            assert out.a_s == math.inf

    def test_admissible_implies_contraction(self, monkeypatch):
        # at kappa* A_s = A2 / ((p - 1) A1 + p A2), below 1/p whatever
        # the constants, so it is no verdict
        for power in (2, 3):
            for a1, mu, g in ((2.0, 3.0, 1.0), (1e-3, 50.0, 2.0),
                              (40.0, 0.01, 0.5)):
                out = self._report(monkeypatch, a1, mu, g, upper=0.125,
                                   power=power)
                a2 = mu * g
                assert out.a_s == pytest.approx(
                    a2 / ((power - 1) * a1 + power * a2), rel=1e-12)
                assert 0.0 < out.a_s < 1.0 / power

    @pytest.mark.parametrize("power", [2, 3])
    def test_kappa_maximises_rho(self, monkeypatch, power):
        a1, mu, g, upper = 1.7, 7.0, 1.3, 39.0
        out = self._report(monkeypatch, a1, mu, g, upper, power)

        def rho(r):
            return (r / mu) * (1.0 - (a1 + mu * g) * upper * r ** (power - 1))

        assert out.rho_kappa == pytest.approx(rho(out.kappa), rel=1e-12)
        # a scan two decades wide, 1e-4 apart in log r
        r = out.kappa * np.geomspace(0.1, 10.0, 46052)
        best = np.argmax(rho(r))
        assert out.rho_kappa >= rho(r[best]) * (1.0 - 1e-12)
        assert abs(math.log(r[best] / out.kappa)) <= 1e-4


class TestGramSpectrum:
    def test_zero_actuator_violated(self, setup):
        _, basis, grid = setup
        report = hypothesis_report(_problem(basis, grid, gain=0.0))
        assert report.gram_sigma_max == 0.0
        assert report.effective_rank == 0
        assert report.verdicts["controllability"] == "violated"

    def test_example_geometry_satisfied(self, setup):
        _, basis, grid = setup
        problem = _problem(basis, grid, gain=1.0)
        report = hypothesis_report(problem)
        assert report.gram_sigma_min > 0.0
        assert report.verdicts["controllability"] == "satisfied"
        assert 1 <= report.effective_rank <= problem.operator().M.shape[0]

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
    def _problem(self, gain, F=NonlinearTerm()):
        dom = RectDomain(1.0, 1.0, 26, 26)
        return _problem(build_basis(dom, 10, 10), TimeGrid(3.0, 20), gain, F)

    def test_zero_gain_violated(self):
        report = hypothesis_report(self._problem(0.0))
        # controllability is the report's only verdict
        assert report.verdicts == {"controllability": "violated"}
        assert report.violated
        # mu = 0: no control authority, so no admissible radius
        assert (report.mu, report.kappa, report.a_s) == (0.0, 0.0, math.inf)

    def test_live_actuator_controllable(self):
        report = hypothesis_report(self._problem(1.0))
        assert report.verdicts["controllability"] == "satisfied"
        assert report.gram_sigma_min > 0.0
        assert report.a1 > 0.0 and report.mu > 0.0

    def test_contraction_certificate_small_radius(self):
        # kappa* is a positive radius with the positive margins
        # 0 < rho_kappa < m_kappa, and A_s < 1/2 there (F = y^2)
        report = hypothesis_report(self._problem(1.0))
        assert 0.0 < report.kappa < math.inf
        assert 0.0 < report.rho_kappa < report.m_kappa
        assert 0.0 < report.a_s < 0.5
        assert not report.violated
        text = report.to_text()
        assert text.startswith("hypothesis report")
        assert "small-data" not in text

    def test_linear_system_admits_every_radius(self):
        report = hypothesis_report(self._problem(1.0, NonlinearTerm.none()))
        assert (report.fn_lower, report.fn_upper) == (0.0, 0.0)
        assert report.kappa == math.inf
        assert (report.m_kappa, report.rho_kappa) == (math.inf, math.inf)
        assert report.a_s == 0.0

    @pytest.mark.parametrize("name, kappa, rho, a_s", [
        ("example1.cfg", 1.18273e-3, 8.4635e-5, 0.457025),
        ("example2.cfg", 3.10952e-3, 9.3023e-4, 0.350704),
    ], ids=["example1.cfg", "example2.cfg"])
    def test_bundled_constants_closed_form(self, name, kappa, rho, a_s):
        # kappa* = (1 / (p c))^(1/(p-1)), c = (A1 + A2) upper; the margins
        # and A_s there follow from the report's own constants
        problem = load_config(bundled_config_path(name)).problem()
        r = hypothesis_report(problem)
        assert (r.kappa, r.rho_kappa, r.a_s) == pytest.approx(
            (kappa, rho, a_s), rel=1e-5)
        p = problem.F.power
        a2 = r.mu * r.g_norm
        assert r.kappa == pytest.approx(
            (1.0 / (p * (r.a1 + a2) * r.fn_upper)) ** (1.0 / (p - 1)),
            rel=1e-12)
        f = r.fn_upper * r.kappa ** (p - 1)
        assert r.m_kappa == pytest.approx(
            (r.kappa / r.mu) * (1.0 - r.a1 * f), rel=1e-12
        )
        assert r.rho_kappa == pytest.approx(
            (r.kappa / r.mu) * (1.0 - (r.a1 + a2) * f), rel=1e-12
        )
        assert r.a_s == pytest.approx(
            a2 / ((p - 1) * r.a1 + p * a2), rel=1e-12
        )


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
        # the report's Gram spectrum and gain, and pinv_apply, share the
        # operator's thin SVD
        _, basis, grid = setup
        problem = _problem(basis, grid, gain=1.0)
        H = problem.operator()
        sig = np.linalg.svd(H.Mw, full_matrices=False)[1]
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        report = hypothesis_report(problem)
        pinv_apply(H, np.ones(H.M.shape[0]))
        assert hypothesis_report(problem) == report
        assert len(calls) == 1
        assert (report.gram_sigma_max, report.gram_sigma_min) == (
            sig[0], sig[-1]
        )
        assert report.mu == np.max(sig / (sig**2 + 1e-6))
