import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracctrl.domain import (
    _SNAP,
    Actuator,
    Field,
    RectDomain,
    Region,
    actuator_coefficients,
    build_basis,
    extend_target,
    region_nodes,
    restrict,
    trace,
    _validate_adjacency,
)
from fracctrl.solver import TimeGrid
from fields import evaluate_mode, from_function, spacing


@pytest.fixture(scope="module")
def unit():
    return RectDomain(1.0, 1.0, 51, 51)


@pytest.fixture(scope="module")
def basis(unit):
    return build_basis(unit, 20, 20)


class TestRectDomain:
    def test_grid_endpoints(self, unit):
        assert unit.x[0] == 0.0 and unit.x[-1] == 1.0
        assert spacing(unit)[0] == pytest.approx(0.02)

    def test_axes_are_one_read_only_array_each(self):
        dom = RectDomain(2.0, 0.5, 21, 9)
        for axis, length, n in ((dom.x, 2.0, 21), (dom.y, 0.5, 9)):
            assert np.array_equal(axis, np.linspace(0.0, length, n))
            assert not axis.flags.writeable
        assert dom.x is dom.x and dom.y is dom.y

    def test_quad_weights_sum_to_area(self, unit):
        wx, wy = unit.quad_weights()
        assert wx.sum() * wy.sum() == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("bad", [
        dict(lx=-1.0), dict(nx=4), dict(ny=7), dict(ly=0.0),
    ])
    def test_rejects_bad_parameters(self, bad):
        with pytest.raises(ValueError):
            RectDomain(**bad)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("make", [
    lambda v: RectDomain(v, 1.0, 9, 9),
    lambda v: RectDomain(1.0, v, 9, 9),
    lambda v: TimeGrid(v, 4),
], ids=["lx", "ly", "T"])
def test_rejects_non_finite_length(make, value):
    # an infinite length would build NaN grid nodes
    with pytest.raises(ValueError, match="finite"):
        make(value)


class TestBasis:
    def test_constant_mode_eigenvalue(self, basis):
        # modes in (i, j) lexicographic order: mode 0 is (0, 0)
        assert basis.eigenvalues[0] == 0.0

    def test_textbook_eigenvalues(self, basis):
        lam = dict(zip(np.ndindex(basis.mx, basis.my), basis.eigenvalues))
        assert lam[(1, 0)] == pytest.approx(math.pi**2, rel=1e-13)
        assert lam[(2, 3)] == pytest.approx(13 * math.pi**2, rel=1e-13)

    def test_eigenvalues_sorted_along_axes(self, basis):
        lam = np.asarray(basis.eigenvalues).reshape(basis.mx, basis.my)
        assert np.all(np.diff(lam, axis=0) > 0)
        assert np.all(np.diff(lam, axis=1) > 0)

    def test_discrete_orthonormality(self, unit, basis):
        ex, ey = basis._factors
        wx, wy = unit.quad_weights()
        gx = (ex * wx) @ ex.T
        gy = (ey * wy) @ ey.T
        assert np.max(np.abs(gx - np.eye(basis.mx))) < 1e-12
        assert np.max(np.abs(gy - np.eye(basis.my))) < 1e-12

    def test_round_trip_smooth_field(self, unit, basis):
        # smooth and Neumann-compatible (zero normal derivative), so the
        # cosine coefficients decay super-algebraically
        f = from_function(
            unit, lambda x, y: np.exp(np.cos(np.pi * x) + np.cos(2 * np.pi * y))
        )
        back = basis.from_spectral(basis.to_spectral(f.values))
        rel = np.linalg.norm(back - f.values) / np.linalg.norm(f.values)
        assert rel < 1e-8

    def test_truncation_bounds_enforced(self, unit):
        with pytest.raises(ValueError):
            build_basis(unit, 51, 20)
        with pytest.raises(ValueError):
            build_basis(unit, 0, 5)

    def test_neumann_condition(self, basis):
        # tangential derivative of every mode vanishes on the boundary:
        # sample near x=0 and check the one-sided slope is O(h^2)
        h = 1e-5
        for (i, j) in [(1, 0), (3, 2), (0, 5)]:
            v0 = evaluate_mode(basis, i, j, 0.0, 0.3)
            vh = evaluate_mode(basis, i, j, h, 0.3)
            assert abs(vh - v0) / h < 1e-3


class TestRestrictTrace:
    def test_restrict_constant(self, unit):
        one = from_function(unit, lambda x, y: np.ones_like(x))
        patch = restrict(one, Region.interior(0.0, 0.3, 0.0, 0.1))
        assert np.all(patch.values == 1.0)
        assert patch.x[-1] == pytest.approx(0.3)

    def test_restrict_whole_domain_is_identity(self, unit):
        f = from_function(unit, lambda x, y: x * y)
        patch = restrict(f, Region.interior(0.0, 1.0, 0.0, 1.0))
        assert np.array_equal(patch.values, f.values)

    def test_restrict_coordinate_field(self, unit):
        f = from_function(unit, lambda x, y: x)
        patch = restrict(f, Region.interior(0.0, 0.3, 0.0, 0.1))
        assert np.allclose(patch.values, patch.x[:, None])

    def test_trace_coordinate_field(self, unit):
        f = from_function(unit, lambda x, y: y)
        prof = trace(f, Region.boundary("left", 0.0, 0.1))
        assert np.allclose(prof.values, prof.s)

    def test_trace_eigenmode_closed_form(self, unit, basis):
        f = from_function(
            unit, lambda x, y: evaluate_mode(basis, 0, 1, x, y)
        )
        prof = trace(f, Region.boundary("left", 0.0, 0.3))
        assert np.allclose(
            prof.values, math.sqrt(2.0) * np.cos(math.pi * prof.s),
            atol=1e-12,
        )

    def test_trace_all_sides(self, unit):
        f = from_function(unit, lambda x, y: x + 10 * y)
        assert trace(f, Region.boundary("right", 0.0, 1.0)).values[0] == 1.0
        assert trace(f, Region.boundary("top", 0.0, 1.0)).values[0] == 10.0
        assert trace(f, Region.boundary("bottom", 0.5, 1.0)).values[0] == 0.5

    def test_kind_mismatch_rejected(self, unit):
        f = Field.zero(unit)
        with pytest.raises(ValueError):
            restrict(f, Region.boundary("left", 0.0, 0.1))
        with pytest.raises(ValueError):
            trace(f, Region.interior(0.0, 0.3, 0.0, 0.1))

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
    def test_linearity(self, a, b):
        dom = RectDomain(1.0, 1.0, 21, 21)
        f = from_function(dom, lambda x, y: np.sin(3 * x) + y)
        g = from_function(dom, lambda x, y: x**2 - np.cos(y))
        combo = Field(dom, a * f.values + b * g.values)
        reg = Region.interior(0.0, 0.5, 0.0, 0.25)
        gam = Region.boundary("left", 0.0, 0.25)
        lhs = restrict(combo, reg).values
        rhs = a * restrict(f, reg).values + b * restrict(g, reg).values
        assert np.allclose(lhs, rhs, atol=1e-12)
        lhs_t = trace(combo, gam).values
        rhs_t = a * trace(f, gam).values + b * trace(g, gam).values
        assert np.allclose(lhs_t, rhs_t, atol=1e-12)


class TestRegionNodes:
    def test_interior(self, unit):
        ix, iy = region_nodes(unit, Region.interior(0.1, 0.3, 0.0, 0.1))
        assert np.array_equal(ix, np.arange(5, 16))
        assert np.array_equal(iy, np.arange(0, 6))

    @pytest.mark.parametrize("side,ix,iy", [
        ("left", [0], range(10, 16)), ("right", [50], range(10, 16)),
        ("bottom", range(10, 16), [0]), ("top", range(10, 16), [50]),
    ])
    def test_boundary_is_one_node_strip_on_its_edge(self, unit, side, ix, iy):
        got = region_nodes(unit, Region.boundary(side, 0.2, 0.3))
        assert np.array_equal(got[0], list(ix))
        assert np.array_equal(got[1], list(iy))

    def test_one_node_bottom_segment(self, unit):
        seg = Region.boundary("bottom", 0.49, 0.51)
        ix, iy = region_nodes(unit, seg)
        assert np.array_equal(ix, [25]) and np.array_equal(iy, [0])
        # the profile is parametrized by x along the bottom edge, even
        # though both index arrays hold a single node
        prof = trace(from_function(unit, lambda x, y: x + 10 * y), seg)
        assert np.array_equal(prof.s, [0.5])
        assert np.array_equal(prof.values, [0.5])

    @pytest.mark.parametrize("region", [
        Region.interior(0.013, 0.017, 0.0, 0.1),  # between grid lines
        Region.boundary("left", 0.013, 0.017),
        Region.interior(0.0, 1.5, 0.0, 0.1),  # leaves the domain
        Region.boundary("top", 0.5, 1.2),
    ])
    def test_rejects_empty_or_outside(self, unit, region):
        with pytest.raises(ValueError):
            region_nodes(unit, region)


class TestExtendTarget:
    def _setup(self, unit):
        omega = Region.interior(0.0, 0.3, 0.0, 0.1)
        gamma = Region.boundary("left", 0.0, 0.1)
        ys = unit.y[(unit.y >= -1e-9) & (unit.y <= 0.1 + 1e-9)]
        return omega, gamma, ys

    def test_zero_target(self, unit):
        omega, gamma, ys = self._setup(unit)
        ds = extend_target(np.zeros(ys.size), omega, gamma, unit)
        assert np.all(ds.values == 0.0)

    def test_round_trip_is_grid_exact(self, unit):
        omega, gamma, ys = self._setup(unit)
        zd = 7 * ys**3 - 13 * ys**2 + 3
        ds = extend_target(zd, omega, gamma, unit)
        # trace of the patch on Gamma: x = 0 is the first row
        assert np.array_equal(ds.values[0, :], zd)

    def test_decays_to_zero_at_far_face(self, unit):
        omega, gamma, ys = self._setup(unit)
        ds = extend_target(np.ones(ys.size), omega, gamma, unit)
        assert np.allclose(ds.values[-1, :], 0.0, atol=1e-15)

    def test_detached_segment_rejected(self, unit):
        omega = Region.interior(0.1, 0.3, 0.0, 0.1)  # not touching x=0
        gamma = Region.boundary("left", 0.0, 0.1)
        with pytest.raises(ValueError):
            extend_target(np.zeros(6), omega, gamma, unit)

    def test_oversized_segment_rejected(self, unit):
        omega = Region.interior(0.0, 0.3, 0.0, 0.1)
        gamma = Region.boundary("left", 0.0, 0.5)
        with pytest.raises(ValueError):
            extend_target(np.zeros(26), omega, gamma, unit)

    def test_top_side_round_trip(self, unit):
        omega = Region.interior(0.2, 0.6, 0.7, 1.0)
        gamma = Region.boundary("top", 0.2, 0.6)
        xs = unit.x[(unit.x >= 0.2 - 1e-9) & (unit.x <= 0.6 + 1e-9)]
        zd = np.sin(5 * xs)
        ds = extend_target(zd, omega, gamma, unit)
        assert np.array_equal(ds.values[:, -1], zd)

    @pytest.mark.parametrize("side,rect", [
        ("left", (0.0, 0.3, 0.2, 0.7)), ("right", (0.6, 1.0, 0.2, 0.7)),
        ("bottom", (0.2, 0.7, 0.0, 0.4)), ("top", (0.2, 0.7, 0.6, 1.0)),
    ])
    def test_matches_per_side_formula(self, unit, side, rect):
        # Gamma is shorter than omega_c's edge, so the constant
        # continuation beyond both of its ends shows
        omega = Region.interior(*rect)
        gamma = Region.boundary(side, 0.3, 0.5)
        across = side in ("left", "right")
        tang = unit.y[10:36] if across else unit.x[10:36]  # omega_c's
        on_gamma = (tang >= 0.3 - 1e-9) & (tang <= 0.5 + 1e-9)
        zd = np.sin(5 * tang[on_gamma]) + 2.0
        ds = extend_target(zd, omega, gamma, unit)
        assert np.array_equal(ds.values, _per_side_extension(
            zd, omega, gamma, unit))
        # the patch's row or column on Gamma's edge, at Gamma's nodes
        on_edge = {"left": ds.values[0, :], "right": ds.values[-1, :],
                   "bottom": ds.values[:, 0], "top": ds.values[:, -1]}[side]
        assert np.array_equal(ds.y if across else ds.x, tang)
        assert np.array_equal(on_edge[on_gamma], zd)


def _per_side_extension(zd, omega, gamma, dom):
    """The smoothstep extension with its depth, constant continuation and
    outer product written out for each side of Gamma."""
    x0, x1, y0, y1 = omega.bounds
    ix, iy = region_nodes(dom, omega)
    xs, ys = dom.x[ix], dom.y[iy]
    if gamma.side in ("left", "right"):
        tang, normal = ys, xs
        depth = (normal - x0) / (x1 - x0)
        if gamma.side == "right":
            depth = (x1 - normal) / (x1 - x0)
    else:
        tang, normal = xs, ys
        depth = (normal - y0) / (y1 - y0)
        if gamma.side == "top":
            depth = (y1 - normal) / (y1 - y0)
    s0, s1 = gamma.bounds
    gnodes = np.nonzero((tang >= s0 - 1e-9) & (tang <= s1 + 1e-9))[0]
    line = np.empty(tang.size)
    line[gnodes] = zd
    line[: gnodes[0]] = zd[0]
    line[gnodes[-1] + 1:] = zd[-1]
    t = np.clip(depth, 0.0, 1.0)
    decay = 1.0 - t * t * (3.0 - 2.0 * t)
    if gamma.side in ("left", "right"):
        return decay[:, None] * line[None, :]
    return line[:, None] * decay[None, :]


class TestAdjacency:
    """Gamma lies on omega_c's edge that touches the boundary, to within
    _SNAP; omega_c lies in the domain, as both callers check first."""

    DOM = RectDomain(2.0, 0.5, 41, 21)

    @staticmethod
    def _omega(side, off):
        """omega_c with its face on `side` moved `off` into the domain."""
        return Region.interior(*{
            "left": (off, 0.6, 0.1, 0.3),
            "right": (1.4, 2.0 - off, 0.1, 0.3),
            "bottom": (0.5, 1.0, off, 0.2),
            "top": (0.5, 1.0, 0.3, 0.5 - off),
        }[side])

    @staticmethod
    def _gamma(side, longer=0.0):
        s0, s1 = (0.1, 0.3) if side in ("left", "right") else (0.5, 1.0)
        return Region.boundary(side, s0, s1 + longer)

    @pytest.mark.parametrize("side", ["left", "right", "bottom", "top"])
    @pytest.mark.parametrize("off", [0.0, _SNAP / 2, -_SNAP / 2])
    def test_face_on_the_edge_passes(self, side, off):
        omega = self._omega(side, off)
        region_nodes(self.DOM, omega)
        _validate_adjacency(self.DOM, self._gamma(side), omega)

    @pytest.mark.parametrize("side", ["left", "right", "bottom", "top"])
    def test_face_off_the_edge_raises(self, side):
        with pytest.raises(ValueError):
            _validate_adjacency(
                self.DOM, self._gamma(side), self._omega(side, 2 * _SNAP))

    @pytest.mark.parametrize("side", ["left", "right", "bottom", "top"])
    def test_gamma_longer_than_the_edge_raises(self, side):
        with pytest.raises(ValueError):
            _validate_adjacency(
                self.DOM, self._gamma(side, longer=0.05),
                self._omega(side, 0.0))


class TestActuator:
    def test_zonal_whole_domain(self, basis):
        act = Actuator.zonal(0.0, 1.0, 0.0, 1.0)
        b = actuator_coefficients(act, basis)
        assert b[0] == pytest.approx(1.0, rel=1e-13)
        assert np.allclose(b[1:], 0.0, atol=1e-13)

    def test_pointwise_closed_form(self, basis):
        act = Actuator.pointwise(0.48, 0.70)
        b = actuator_coefficients(act, basis).reshape(basis.mx, basis.my)
        expect = 2.0 * math.cos(0.48 * math.pi) * math.cos(0.70 * math.pi)
        assert b[1, 1] == pytest.approx(expect, rel=1e-13)

    def test_zonal_matches_quadrature(self, unit, basis):
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
        b = actuator_coefficients(act, basis)
        ind = from_function(
            unit,
            lambda x, y: ((x <= 0.2 + 1e-12) & (y >= 0.2 - 1e-12)
                          & (y <= 0.4 + 1e-12)).astype(float),
        )
        quad = ind.coefficients(basis).ravel()
        # trapezoid quadrature of the sharp indicator is only O(h) accurate
        assert np.allclose(b, quad, atol=0.03)

    def test_zonal_parseval_bound(self, basis):
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
        b = actuator_coefficients(act, basis)
        area = 0.2 * 0.2
        assert np.sum(b**2) <= area + 1e-12

    def test_parseval_trend(self, unit):
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
        area = 0.2 * 0.2
        sums = []
        for m in (5, 10, 20):
            b = actuator_coefficients(act, build_basis(unit, m, m))
            sums.append(np.sum(b**2))
        assert sums[0] < sums[1] < sums[2] <= area + 1e-12

    def test_gain_scales_linearly(self, basis):
        b1 = actuator_coefficients(Actuator.pointwise(0.3, 0.3), basis)
        b2 = actuator_coefficients(
            Actuator.pointwise(0.3, 0.3, gain=2.5), basis
        )
        assert np.allclose(b2, 2.5 * b1, atol=1e-14)

    @pytest.mark.parametrize("side", ["left", "right", "bottom", "top"])
    @pytest.mark.parametrize("out,ok", [
        (_SNAP / 2, True), (-_SNAP / 2, True), (2 * _SNAP, False),
    ])
    def test_zonal_support_at_an_edge(self, basis, side, out, ok):
        # the support's face on `side` lies `out` beyond that edge
        act = Actuator.zonal(*{
            "left": (-out, 0.2, 0.2, 0.4),
            "right": (0.8, 1.0 + out, 0.2, 0.4),
            "bottom": (0.2, 0.4, -out, 0.2),
            "top": (0.2, 0.4, 0.8, 1.0 + out),
        }[side])
        if ok:
            assert np.all(np.isfinite(actuator_coefficients(act, basis)))
        else:
            with pytest.raises(ValueError, match="exceeds the domain"):
                actuator_coefficients(act, basis)

    def test_invalid_geometry(self, basis):
        with pytest.raises(ValueError):
            actuator_coefficients(Actuator.pointwise(1.5, 0.5), basis)
        with pytest.raises(ValueError):
            Actuator.zonal(0.5, 0.2, 0.0, 1.0)
