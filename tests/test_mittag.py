import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, gammaln, rgamma

from fracctrl import mittag
from fracctrl.config import bundled_config_path, load_config
from fracctrl.domain import RectDomain, build_basis
from fracctrl.mittag import (
    MLEvaluationError,
    _rgamma,
    check_order,
    ml,
)
from fracctrl.solver import TimeGrid, _step_weights
from ml_oracle import (
    _asymptotic_59,
    _asymptotic_masked,
    _ml_scalar,
    _series_matrix,
)

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

    @pytest.mark.parametrize("z", [1e-3, 0.5])
    def test_small_positive_argument_rejected(self, z):
        # inside the Taylor series' reach, but off the supported z <= 0
        with pytest.raises(MLEvaluationError) as err:
            ml(0.5, 1.0, z)
        assert err.value.z == z
        assert f"({z})" in str(err.value)


class TestCheckOrder:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.2, 2.0])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            check_order(bad)

    def test_accepts(self):
        assert check_order(1) == 1.0


class TestSymbols:
    @staticmethod
    def h_symbol(lam, t, alpha):
        # initial-data propagator symbol; the solver builds no table of
        # it, but reaches it as 1 - lam t^a E_(a,a+1)(-lam t^a) through
        # its step weights
        return ml(alpha, 1.0, -lam * t**alpha)

    def test_h_at_lambda_zero(self):
        for t in [0.0, 0.5, 7.0]:
            assert self.h_symbol(0.0, t, 0.4) == pytest.approx(
                1.0, abs=1e-13
            )

    def test_h_classical_limit(self):
        lam, t = 3.7, 1.2
        assert self.h_symbol(lam, t, 1.0) == pytest.approx(
            math.exp(-lam * t), rel=1e-12
        )

    def test_h_frozen_oracle(self):
        assert self.h_symbol(2 * math.pi**2, 3.0, 0.3) == pytest.approx(
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
        v = self.h_symbol(lam, t, alpha)
        # positivity can underflow to 0.0 for lam * t^alpha >> 1
        assert 0.0 <= v <= 1.0 + 1e-12
        assert self.h_symbol(lam * 1.5 + 0.1, t, alpha) <= v + 1e-9
        assert self.h_symbol(lam, t * 1.5 + 0.01, alpha) <= v + 1e-9


def _unit_basis():
    return build_basis(RectDomain(1.0, 1.0, 9, 9), 3, 3)


class TestStepWeight:
    """Step weights Wd[k] = W[k+1] - W[k] of the solver's kernel tables:
    the integral of s^(a-1) E_(a,a)(-lam s^a) over [t_k, t_(k+1)]."""

    def test_lambda_zero(self):
        alpha, grid = 0.45, TimeGrid(2.0, 4)
        Wd = _step_weights(_unit_basis(), grid, alpha)
        t = grid.nodes
        expect = (t[1:] ** alpha - t[:-1] ** alpha) / gamma(alpha + 1.0)
        assert Wd[:, 0] == pytest.approx(expect, rel=1e-12)

    def test_classical_case(self):
        basis, grid = _unit_basis(), TimeGrid(1.3, 2)
        Wd = _step_weights(basis, grid, 1.0)
        lam = basis.eigenvalues[1:]
        t = grid.nodes
        expect = (np.exp(-lam * t[0]) - np.exp(-lam * t[1])) / lam
        assert Wd[0, 1:] == pytest.approx(expect, rel=1e-12)
        expect = (np.exp(-lam * t[1]) - np.exp(-lam * t[2])) / lam
        assert Wd[1, 1:] == pytest.approx(expect, rel=1e-12)

    def test_frozen_quadrature_oracle(self):
        basis = _unit_basis()
        col = np.ravel_multi_index((1, 0), (basis.mx, basis.my))
        assert basis.eigenvalues[col] == pytest.approx(math.pi**2)
        Wd = _step_weights(basis, TimeGrid(1.0, 2), 0.3)
        assert Wd[1, col] == pytest.approx(EW_PI2_05_10_A03, rel=1e-10)


def _mp_ml(a, b, x):
    """E_(a,b)(x) in multiprecision for mpf arguments with x <= 0.

    alpha = 1 uses the closed form 1F1(1; b; x) / Gamma(b).  Otherwise
    |x| <= 5 sums the Taylor series with enough digits to absorb its
    cancellation, and |x| > 5 integrates the spectral-function
    representation (valid for b < 1 + a; larger b is first reduced with
    E_(a,b)(x) = (E_(a,b-a)(x) - 1/Gamma(b-a)) / x).
    """
    if x == 0:
        return mpmath.rgamma(b)
    if a == 1:
        return mpmath.hyp1f1(1, b, x) * mpmath.rgamma(b)
    if abs(x) <= 5:
        with mpmath.workdps(130):
            total, k = mpmath.mpf(0), 0
            # past k with a k + b > |x|^(1/a) the terms decrease
            turn = abs(x) ** (1 / a) + 2
            while True:
                term = x**k * mpmath.rgamma(a * k + b)
                total += term
                k += 1
                if a * k + b > turn and abs(term) < mpmath.mpf(10) ** -40:
                    return total
    if b >= 1 + a - mpmath.mpf(10) ** -12:
        return (_mp_ml(a, b - a, x) - mpmath.rgamma(b - a)) / x
    s1 = mpmath.sinpi(1 - b)
    s2 = mpmath.sinpi(1 - b + a)
    c = mpmath.cospi(a)

    def integrand(u):
        ua = u**a
        return (u ** (a - b) * mpmath.exp(-u) * (ua * s1 - x * s2)
                / (mpmath.pi * (ua * ua - 2 * ua * x * c + x * x)))

    peak = abs(x) ** (1 / a)
    cuts = sorted({mpmath.mpf(0), mpmath.mpf(1), peak / 2, peak, 2 * peak})
    return mpmath.quad(integrand, cuts + [mpmath.inf])


# 0, [-1, 0), (-5, -1] and [-1e4, -5]
Z_GRID = np.array([
    0.0, -1e-3, -0.3, -0.9,
    -1.0, -2.0, -3.5, -4.9,
    -5.0, -8.0, -15.0, -40.0, -100.0, -1e3, -1e4,
])
ORDERS = [(a, b) for a in (0.3, 0.6, 0.9, 1.0) for b in (a, 1.0, a + 1.0)]
# alpha = 1 with beta outside {1, 2}, where E_(1,beta) has no elementary
# closed form; the evaluator takes them through the general branches
ORDERS += [(1.0, b) for b in (0.5, 1.3, 2.7)]
# Orders whose series reach the 399-term budget sets, not cancellation,
# each on z around its reach (1.19-1.20 at alpha = 0.1, 1.00-1.01 at
# 0.05).  They stay out of ORDERS: `_mp_ml`'s series runs past
# |z|^(1/alpha) terms, which at alpha = 0.05 on Z_GRID does not finish
# in minutes.
SMALL_ORDERS = [
    (a, b, zs)
    for a, zs in ((0.1, (-0.9, -1.1, -1.2, -1.24, -1.27, -1.5)),
                  (0.05, (-0.9, -1.0, -1.1, -1.2)))
    for b in (a, 1.0, a + 1.0)
]


@pytest.fixture
def branch_log(monkeypatch):
    """Record, per branch, the arguments whose value it supplied."""
    log = {"series": [], "asymptotic": [], "contour": []}

    def accepted_by(name, fn):
        def wrapper(alpha, beta, z, *args, **kwargs):
            value, err = fn(alpha, beta, z, *args, **kwargs)
            log[name].extend(z[mittag._accepted(value, err)])
            return value, err
        return wrapper

    def all_of(name, fn):
        def wrapper(*args, **kwargs):
            log[name].extend(args[-1])
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mittag, "_series_vec",
                        accepted_by("series", mittag._series_vec))
    monkeypatch.setattr(mittag, "_asymptotic_vec",
                        accepted_by("asymptotic", mittag._asymptotic_vec))
    monkeypatch.setattr(mittag, "_talbot_vec",
                        all_of("contour", mittag._talbot_vec))
    return log


def _assert_matches_mpmath(alpha, beta, z):
    values = ml(alpha, beta, z)
    with mpmath.workdps(30):
        a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
        ref = np.array([float(_mp_ml(a, b, mpmath.mpf(v))) for v in z])
    tol = np.where(np.abs(ref) < 1e-3, 1e-13, 1e-10 * np.abs(ref))
    assert np.all(np.abs(values - ref) <= tol), (values - ref) / ref
    return values


class TestArrayEvaluator:
    @pytest.mark.parametrize("alpha,beta", ORDERS)
    def test_against_mpmath(self, alpha, beta):
        values = _assert_matches_mpmath(alpha, beta, Z_GRID)
        assert values[0] == _rgamma(beta)

    @pytest.mark.parametrize("alpha,beta,zs", SMALL_ORDERS)
    def test_small_orders_against_mpmath(self, alpha, beta, zs):
        _assert_matches_mpmath(alpha, beta, np.array(zs))

    @pytest.mark.parametrize("alpha", [0.01, 0.02])
    def test_tiny_orders_evaluate(self, alpha):
        # the series reach falls below 1 here (0.92 and 0.93); past it
        # the expansion and the contour take over.  E_(alpha,1)(-x) is
        # completely monotone in x, so it falls from 1 and stays positive.
        values = ml(alpha, 1.0, -np.linspace(0.0, 5.0, 501))
        assert values[0] == 1.0
        assert np.all(values > 0.0) and np.all(np.diff(values) < 0.0)

    @pytest.mark.parametrize("alpha,beta", ORDERS)
    def test_against_scalar_oracle(self, alpha, beta):
        # the oracle takes the middle range through the spectral integral;
        # the contour's own double-precision floor is 1e-13 absolute
        values = ml(alpha, beta, Z_GRID)
        ref = np.array([_ml_scalar(alpha, beta, z) for z in Z_GRID])
        tol = np.maximum(1e-11 * np.abs(ref), 1e-13)
        assert np.all(np.abs(values - ref) <= tol), (values - ref) / ref

    def test_every_branch_is_reached(self, branch_log):
        reached = {}
        for alpha, beta in ORDERS:
            ml(alpha, beta, Z_GRID)
            for name, zs in branch_log.items():
                if zs:
                    reached.setdefault(name, set()).add(alpha)
                zs.clear()
        # alpha = 1 has no branch of its own
        for name in ("series", "asymptotic", "contour"):
            assert reached.get(name, set()) >= {0.3, 0.6, 0.9, 1.0}, name

    def test_float_and_zero_d_return_float(self):
        for z in (-2.0, np.float64(-2.0), np.array(-2.0), -2):
            value = ml(0.6, 1.0, z)
            assert type(value) is float
            assert value == _ml_scalar(0.6, 1.0, -2.0)

    def test_shape_is_kept(self):
        assert ml(0.6, 1.0, np.array([])).shape == (0,)
        z = -np.linspace(0.0, 60.0, 12).reshape(3, 4)
        values = ml(0.6, 1.0, z)
        assert values.shape == (3, 4)
        expect = [_ml_scalar(0.6, 1.0, v) for v in z.ravel()]
        np.testing.assert_allclose(values.ravel(), expect, rtol=1e-11,
                                   atol=1e-13)

    def test_longer_than_one_chunk(self):
        z = -np.geomspace(1e-3, 1e4, 2 * mittag._CHUNK + 7)
        values = ml(0.3, 1.0, z)
        picks = [0, mittag._CHUNK - 1, mittag._CHUNK, z.size - 1]
        for i in picks:
            assert values[i] == ml(0.3, 1.0, z[i])

    def test_every_element_independent_of_its_chunk(self, branch_log):
        # arrays one short of a chunk, one over and several chunks long,
        # in shuffled order, each element against its own scalar call
        C = mittag._CHUNK
        z = -np.geomspace(1e-3, 1e4, 3 * C + 7)
        rng = np.random.default_rng(11)
        picks = [rng.choice(z.size, n, replace=False)
                 for n in (C - 1, C + 1, z.size)]
        reached = {}
        for alpha, beta in ORDERS:
            scalar = np.array([ml(alpha, beta, v) for v in z])
            for name, zs in branch_log.items():
                if zs:
                    reached.setdefault(name, set()).add(alpha)
                zs.clear()
            for idx in picks:
                assert np.array_equal(ml(alpha, beta, z[idx]), scalar[idx])
        for name in ("series", "asymptotic", "contour"):
            assert reached.get(name, set()) >= {0.3, 0.6, 0.9, 1.0}, name

    def test_unaccepted_element_raises_with_its_z(self):
        with pytest.raises(MLEvaluationError) as err:
            ml(0.5, 1.0, np.array([-1.0, 80.0, -2.0]))
        assert err.value.z == 80.0

    def test_unstable_contour_raises(self, monkeypatch):
        # a contour too coarse for its 8-node-poorer twin must raise, not
        # hand back its value
        coarse = functools.partial(mittag._talbot_vec, nodes=12)
        monkeypatch.setattr(mittag, "_talbot_vec", coarse)
        with pytest.raises(MLEvaluationError) as err:
            ml(0.6, 1.0, np.array([-0.5, -5.0, -1e3]))
        assert err.value.z == -5.0

    def test_h_symbol_array_matches_scalar(self):
        lam = _unit_basis().eigenvalues
        assert lam[0] == 0.0
        for t in (0.0, 0.7, 3.0):
            ta = t**0.4
            expect = [ml(0.4, 1.0, -lm * ta) for lm in lam]
            np.testing.assert_array_equal(ml(0.4, 1.0, -lam * ta), expect)
        assert np.all(ml(0.4, 1.0, -lam * 0.0) == 1.0)


def _kernel_table_arguments():
    """(alpha, z) of the kernel tables of examples 1 and 2 and of example
    2 scaled to K = 240 and 30 x 30 modes (the `scaled-synth` benchmark)."""
    out = []
    for name, scale in (("example1", None), ("example2", None),
                        ("example2", (240, 30))):
        problem = load_config(bundled_config_path(f"{name}.cfg")).problem()
        basis, grid = problem.basis, problem.grid
        if scale:
            grid = TimeGrid(grid.T, scale[0])
            basis = build_basis(basis.domain, scale[1], scale[1])
        ta = np.array([t**problem.alpha for t in grid.nodes.tolist()])
        z = -np.outer(ta, np.unique(basis.eigenvalues))
        out.append((problem.alpha, np.unique(z)))
    return out


class TestExpansionTruncation:
    """The asymptotic branch, cut per element, against the 59-term
    expansion it replaced (`ml_oracle._asymptotic_59`), on |z| >= 1:
    `ml` takes the branch only where the series did not settle."""

    @staticmethod
    def _compare(alpha, beta, z):
        z = z[z <= -1.0]
        coef = mittag._Coefficients(alpha, beta)
        for part in np.array_split(z, -(-z.size // mittag._CHUNK)):
            value, err = mittag._asymptotic_vec(alpha, beta, part, coef)
            ref, ref_err = _asymptotic_59(alpha, beta, part)
            kept = mittag._accepted(ref, ref_err)
            assert np.all(mittag._accepted(value, err)[kept])
            # measured: at most 6.7e-16
            assert np.all(np.abs(value - ref)[kept]
                          <= 1e-15 * np.abs(ref[kept]))

    @pytest.mark.parametrize("alpha,beta", ORDERS)
    def test_z_grid(self, alpha, beta):
        self._compare(alpha, beta, Z_GRID)

    def test_kernel_tables(self):
        for alpha, z in _kernel_table_arguments():
            for beta in (1.0, alpha + 1.0):
                self._compare(alpha, beta, z)


class TestSumsBitIdentical:
    """The Taylor sum taken in place and the expansion summed per run of
    equal cuts give every value and error estimate of the array sums they
    replaced (`ml_oracle._series_matrix`, `_asymptotic_masked`) bit for
    bit, on the elements and chunks `ml` routes to each."""

    @staticmethod
    def _compare(alpha, beta, z):
        coef = mittag._Coefficients(alpha, beta)
        flat = np.unique(z)
        for lo in range(0, flat.size, mittag._CHUNK):
            part = flat[lo : lo + mittag._CHUNK]
            rest = part != 0.0
            series = rest & (np.abs(part) <= coef.series_reach)
            if series.any():
                got = mittag._series_vec(alpha, beta, part[series], coef)
                ref = _series_matrix(alpha, beta, part[series], coef)
                assert np.array_equal(got, ref)
                rest[series] = ~mittag._accepted(*ref)
            rest &= part < 0.0
            if rest.any():
                got = mittag._asymptotic_vec(alpha, beta, part[rest], coef)
                ref = _asymptotic_masked(alpha, beta, part[rest], coef)
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("alpha,beta", ORDERS)
    def test_z_grid(self, alpha, beta):
        self._compare(alpha, beta, Z_GRID)

    @pytest.mark.parametrize("alpha,beta", ORDERS)
    def test_kernel_tables(self, alpha, beta):
        for _, z in _kernel_table_arguments():
            self._compare(alpha, beta, z)


class TestSeriesReach:
    """`_Coefficients.series_reach` is the largest |z| <= 5 at which no
    series term exceeds e^9.2 and some term k < 400 with beta + alpha k >
    1.5 is below 1e-16 / e.  The cancellation bound decides it at alpha =
    0.3, the 399-term budget at 0.1 and below, the cutoff at 0.9."""

    @pytest.mark.parametrize("alpha,beta", ORDERS + [
        (a, b) for a, b, _ in SMALL_ORDERS] + [(0.01, 1.0), (0.02, 1.0)])
    def test_largest_admissible_z(self, alpha, beta):
        k = np.arange(1, 400)
        log_gamma = gammaln(beta + alpha * k)

        def admissible(x):
            log_terms = k * math.log(x) - log_gamma
            stops = log_terms[beta + alpha * k > 1.5] <= math.log(1e-16) - 1
            return x <= 5.0 and log_terms.max() <= 9.2 and stops.any()

        reach = mittag._Coefficients(alpha, beta).series_reach
        assert admissible(reach * (1.0 - 1e-12))
        assert reach == 5.0 or not admissible(reach * (1.0 + 1e-12))


def _gamma_arguments():
    """Every Gamma argument `ml` forms for the orders of the test grid and
    the bundled examples: beta + alpha k (series, k < 400) and
    beta - alpha k (expansion, k < 60).  They include poles of Gamma and
    arguments above 171, where Gamma overflows."""
    orders = ORDERS + [(a, b) for a in (0.3, 0.6) for b in (a, 1.0, a + 1.0)]
    return np.unique(np.concatenate([
        np.concatenate([b + a * np.arange(400), b - a * np.arange(60)])
        for a, b in orders
    ]))


class TestGammaHelpers:
    """The runtime's own Gamma functions against scipy's."""

    def test_rgamma_within_16_ulps_up_to_171(self):
        args = _gamma_arguments()
        args = args[args <= 171.0]
        poles = (args <= 0.0) & (args == np.floor(args))
        assert poles.sum() >= 10
        ours, ref = _rgamma(args), rgamma(args)
        assert np.all(ours[poles] == 0.0)
        # measured: at most 10 ulps apart, each within 7 of mpmath
        assert np.all(np.abs(ours - ref) <= 16 * np.spacing(np.abs(ref)))

    def test_rgamma_finite_above_171(self):
        # scipy's rgamma flushes to 0 above about 171.6; compare with
        # exp(-gammaln), which underflows only where 1/Gamma does
        args = _gamma_arguments()
        args = args[args > 171.0]
        assert args.max() > 300.0
        ours = _rgamma(args)
        assert np.all(np.isfinite(ours)) and np.all(ours >= 0.0)
        np.testing.assert_allclose(ours, np.exp(-gammaln(args)),
                                   rtol=1e-12, atol=1e-319)

    def test_rgamma_scalar_is_float(self):
        assert type(_rgamma(2.5)) is float
        assert _rgamma(2.5) == _rgamma(np.array([2.5]))[0]
        assert _rgamma(-3.0) == 0.0
