import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from fracctrl.domain import RectDomain, build_basis
from fracctrl.mittag import MLEvaluationError, check_order, h_symbol, ml
from fracctrl.solver import TimeGrid, _kernel_tables

# High-precision reference values, frozen from a 40+ digit pre-build run
# (direct extended-precision series, cross-checked against Talbot inversion
# of the kernel Laplace transforms).
ML_03_03_M1 = 0.077316799030089675954
H_2PI2_T3_A03 = 0.027476742613259585972
K_5PI2_T15_A06 = 6.908840381293222395e-05
EW_PI2_05_10_A03 = 0.0015976918891836730304


class TestML:
    def test_exponential_special_case(self):
        assert ml(1.0, 1.0, -2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_value_at_zero(self):
        assert ml(0.5, 1.0, 0.0) == 1.0

    def test_frozen_series_oracle(self):
        assert ml(0.3, 0.3, -1.0) == pytest.approx(ML_03_03_M1, rel=1e-10)

    def test_at_zero_gamma_sweep(self):
        for alpha in np.linspace(0.1, 1.0, 10):
            for beta in np.linspace(0.2, 2.0, 10):
                assert ml(alpha, beta, 0.0) * gamma(beta) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_large_negative_argument(self):
        # leading asymptotic term: -1/(z Gamma(beta - alpha))
        z = -1e4
        expect = -1.0 / (z * gamma(1.0 - 0.3))
        assert ml(0.3, 1.0, z) == pytest.approx(expect, rel=1e-3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ml(0.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            ml(0.5, -1.0, -1.0)

    def test_large_positive_argument_rejected(self):
        with pytest.raises(MLEvaluationError) as err:
            ml(0.5, 1.0, 80.0)
        assert err.value.z == 80.0


class TestCheckOrder:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.2, 2.0])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_order(bad)

    def test_accepts(self):
        assert check_order(1) == 1.0


class TestSymbols:
    def test_h_at_lambda_zero(self):
        for t in [0.0, 0.5, 7.0]:
            assert h_symbol(0.0, t, 0.4) == pytest.approx(1.0, abs=1e-13)

    def test_h_classical_limit(self):
        lam, t = 3.7, 1.2
        assert h_symbol(lam, t, 1.0) == pytest.approx(
            math.exp(-lam * t), rel=1e-12
        )

    def test_h_frozen_oracle(self):
        assert h_symbol(2 * math.pi**2, 3.0, 0.3) == pytest.approx(
            H_2PI2_T3_A03, rel=1e-10
        )

    @staticmethod
    def k_symbol(lam, t, alpha):
        # forcing-propagator symbol, evaluated as estimate_A1 does
        return ml(alpha, alpha, -lam * t**alpha)

    def test_k_classical_limit(self):
        assert self.k_symbol(0.0, 0.8, 1.0) == pytest.approx(1.0, abs=1e-13)
        lam, t = 2.5, 0.7
        assert self.k_symbol(lam, t, 1.0) == pytest.approx(
            math.exp(-lam * t), rel=1e-12
        )

    def test_k_frozen_oracle(self):
        assert self.k_symbol(5 * math.pi**2, 1.5, 0.6) == pytest.approx(
            K_5PI2_T15_A06, rel=1e-10
        )

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(0.0, 500.0),
        t=st.floats(0.01, 5.0),
        alpha=st.floats(0.2, 1.0),
    )
    def test_h_bounded_and_monotone(self, lam, t, alpha):
        v = h_symbol(lam, t, alpha)
        # positivity can underflow to 0.0 for lam * t^alpha >> 1
        assert 0.0 <= v <= 1.0 + 1e-12
        assert h_symbol(lam * 1.5 + 0.1, t, alpha) <= v + 1e-9
        assert h_symbol(lam, t * 1.5 + 0.01, alpha) <= v + 1e-9


def _unit_basis():
    return build_basis(RectDomain(1.0, 1.0, 9, 9), 3, 3)


class TestStepWeight:
    """Step weights Wd[k] = W[k+1] - W[k] of the solver's kernel tables:
    the integral of s^(a-1) E_(a,a)(-lam s^a) over [t_k, t_(k+1)]."""

    def test_lambda_zero(self):
        alpha, grid = 0.45, TimeGrid(2.0, 4)
        _, Wd = _kernel_tables(_unit_basis(), grid, alpha)
        t = grid.nodes
        expect = (t[1:] ** alpha - t[:-1] ** alpha) / gamma(alpha + 1.0)
        assert Wd[:, 0] == pytest.approx(expect, rel=1e-12)

    def test_classical_case(self):
        basis, grid = _unit_basis(), TimeGrid(1.3, 2)
        _, Wd = _kernel_tables(basis, grid, 1.0)
        lam = basis.eigenvalues[1:]
        t = grid.nodes
        expect = (np.exp(-lam * t[0]) - np.exp(-lam * t[1])) / lam
        assert Wd[0, 1:] == pytest.approx(expect, rel=1e-12)
        expect = (np.exp(-lam * t[1]) - np.exp(-lam * t[2])) / lam
        assert Wd[1, 1:] == pytest.approx(expect, rel=1e-12)

    def test_frozen_quadrature_oracle(self):
        basis = _unit_basis()
        col = basis.modes.index((1, 0))
        assert basis.eigenvalues[col] == pytest.approx(math.pi**2)
        _, Wd = _kernel_tables(basis, TimeGrid(1.0, 2), 0.3)
        assert Wd[1, col] == pytest.approx(EW_PI2_05_10_A03, rel=1e-10)
