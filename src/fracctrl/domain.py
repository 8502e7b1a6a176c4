"""Geometry and function-space layer.

Rectangle domain with a uniform node grid, the Neumann Laplacian cosine
eigenbasis, grid/spectral transforms, the grid nodes a region covers (and
on them interior restriction and boundary trace), target extension from a
boundary segment into an adjacent interior rectangle, and actuator spatial
profiles.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "RectDomain",
    "SpectralBasis",
    "Field",
    "GridPatch",
    "BoundaryProfile",
    "Region",
    "Actuator",
    "build_basis",
    "region_nodes",
    "restrict",
    "trace",
    "extend_target",
    "actuator_coefficients",
]

_SIDES = ("left", "right", "bottom", "top")
_SNAP = 1e-9


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned rectangle ]0,lx[ x ]0,ly[ with a uniform node grid."""

    lx: float = 1.0
    ly: float = 1.0
    nx: int = 51
    ny: int = 51

    def __post_init__(self):
        if not (self.lx > 0.0 and self.ly > 0.0):
            raise ValueError("domain side lengths must be positive")
        if self.nx < 8 or self.ny < 8:
            raise ValueError("grid needs at least 8 nodes per axis")

    @cached_property
    def x(self):
        return _node_row(self.lx, self.nx)

    @cached_property
    def y(self):
        return _node_row(self.ly, self.ny)

    def quad_weights(self):
        """Trapezoid weights (wx, wy) for the discrete L2 inner product."""
        return _trapezoid_weights(self.x), _trapezoid_weights(self.y)


def _node_row(length, n):
    """The n uniform nodes of [0, length], one read-only array."""
    row = np.linspace(0.0, length, n)
    row.flags.writeable = False
    return row


def _trapezoid_weights(coords):
    """Trapezoid weights of a uniform node row (a single node weighs 1)."""
    coords = np.asarray(coords)
    if coords.size == 1:
        return np.ones(1)
    h = coords[1] - coords[0]
    w = np.full(coords.size, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _cos_rows(m, length, coords):
    """Rows k < m of the normalized Neumann cosine family on [0, length]."""
    rows = np.empty((m, coords.size))
    rows[0] = 1.0 / math.sqrt(length)
    k = np.arange(1, m)[:, None]
    rows[1:] = math.sqrt(2.0 / length) * np.cos(
        k * np.pi * coords[None, :] / length
    )
    return rows


def _synthesis_analysis(m, length, nodes):
    """Read-only cosine rows k < m at `nodes` uniform nodes on [0,
    length], and the same rows times their trapezoid weights."""
    coords = np.linspace(0.0, length, nodes)
    rows = _cos_rows(m, length, coords)
    weighted = rows * _trapezoid_weights(coords)
    rows.flags.writeable = False
    weighted.flags.writeable = False
    return rows, weighted


@dataclass(frozen=True)
class SpectralBasis:
    """Truncated Neumann eigenbasis e_ij(x,y) = c_i cos(i pi x / lx) *
    c_j cos(j pi y / ly), listed in (i, j) lexicographic order."""

    domain: RectDomain
    mx: int
    my: int

    @property
    def eigenvalues(self):
        i = np.arange(self.mx)
        j = np.arange(self.my)
        lam = (i[:, None] * np.pi / self.domain.lx) ** 2 + (
            j[None, :] * np.pi / self.domain.ly
        ) ** 2
        return lam.ravel()

    @cached_property
    def _factors(self):
        """Read-only cosine rows (ex, ey) at the grid nodes."""
        return self._on_grid(self.domain.nx, self.domain.ny)[:2]

    @cached_property
    def _analysis(self):
        """Trapezoid-weighted analysis pair (ex * wx, (ey * wy).T)."""
        return self._on_grid(self.domain.nx, self.domain.ny)[2:]

    @lru_cache(maxsize=8)
    def _on_grid(self, nx, ny):
        """Read-only (ex, ey, ax, ay_t) on the uniform nx x ny node grid
        of the domain rectangle."""
        d = self.domain
        ex, ax = _synthesis_analysis(self.mx, d.lx, nx)
        ey, ay = _synthesis_analysis(self.my, d.ly, ny)
        return ex, ey, ax, ay.T

    def alias_free(self, power):
        """Read-only (ex, ey, ax, ay_t): the synthesis rows and analysis
        pair of `_factors` and `_analysis` on the coarsest uniform
        trapezoid grid that projects y**power exactly, for y in the span.

        Per axis, the products of a test mode with y**power hold cosines
        of index up to (power+1)(m-1), which N trapezoid intervals
        integrate exactly below index 2N (Orszag's alias-free rule), so N
        = (power+1)(m-1)//2 + 1, but never more than the domain grid has;
        on the domain grid itself these are `_factors` and `_analysis`.
        """
        d = self.domain
        return self._on_grid(
            min(d.nx, (power + 1) * (self.mx - 1) // 2 + 2),
            min(d.ny, (power + 1) * (self.my - 1) // 2 + 2),
        )

    def to_spectral(self, values):
        """Coefficients c_ij = <f, e_ij> by trapezoid quadrature (exact for
        modes below the grid Nyquist index)."""
        values = np.asarray(values, dtype=float)
        d = self.domain
        if values.shape != (d.nx, d.ny):
            raise ValueError(
                f"expected nodal array of shape {(d.nx, d.ny)}, "
                f"got {values.shape}"
            )
        ax, ay_t = self._analysis
        return ax @ values @ ay_t

    def from_spectral(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.mx, self.my):
            raise ValueError(
                f"expected coefficient array of shape {(self.mx, self.my)}, "
                f"got {coeffs.shape}"
            )
        ex, ey = self._factors
        return ex.T @ coeffs @ ey


def build_basis(domain, mx, my):
    """Construct the truncated Neumann cosine eigenbasis on the domain."""
    if mx < 1 or my < 1:
        raise ValueError("spectral truncation must keep at least one mode")
    if mx >= domain.nx - 1 or my >= domain.ny - 1:
        raise ValueError(
            "spectral truncation exceeds grid resolution; "
            "need mx < nx-1 and my < ny-1 for exact discrete orthogonality"
        )
    return SpectralBasis(domain=domain, mx=mx, my=my)


@dataclass
class Field:
    """Nodal values on the full domain grid, indexed [ix, iy]."""

    domain: RectDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.domain.nx, self.domain.ny):
            raise ValueError(
                f"nodal array shape {self.values.shape} does not match grid "
                f"{(self.domain.nx, self.domain.ny)}"
            )

    @classmethod
    def zero(cls, domain):
        return cls(domain, np.zeros((domain.nx, domain.ny)))

    def coefficients(self, basis):
        return basis.to_spectral(self.values)


@dataclass(frozen=True)
class GridPatch:
    """Nodal values on a rectangular subset of the domain grid."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class BoundaryProfile:
    """Samples of a field along a boundary segment, parametrized by the
    tangential coordinate s."""

    s: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class Region:
    """Axis-aligned subregion: an interior rectangle or a boundary segment.

    Interior: bounds = (x0, x1, y0, y1).  Boundary: side in {left, right,
    bottom, top} and bounds = (s0, s1) along the tangential coordinate.
    """

    kind: str
    bounds: tuple
    side: str = ""

    @classmethod
    def interior(cls, x0, x1, y0, y1):
        if not (x0 < x1 and y0 < y1):
            raise ValueError("interior region must have positive area")
        return cls(kind="interior", bounds=(x0, x1, y0, y1))

    @classmethod
    def boundary(cls, side, s0, s1):
        if side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
        if not s0 < s1:
            raise ValueError("boundary segment must have positive length")
        return cls(kind="boundary", bounds=(s0, s1), side=side)

    def _check_inside(self, domain):
        if self.kind == "interior":
            x0, x1, y0, y1 = self.bounds
            if x0 < -_SNAP or x1 > domain.lx + _SNAP or y0 < -_SNAP or \
                    y1 > domain.ly + _SNAP:
                raise ValueError("interior region exceeds the domain")
        else:
            s0, s1 = self.bounds
            length = domain.ly if self.side in ("left", "right") else domain.lx
            if s0 < -_SNAP or s1 > length + _SNAP:
                raise ValueError("boundary segment exceeds the domain edge")


def _index_range(coords, lo, hi):
    idx = np.nonzero((coords >= lo - _SNAP) & (coords <= hi + _SNAP))[0]
    if idx.size == 0:
        raise ValueError(
            f"region [{lo}, {hi}] contains no grid nodes; refine the grid"
        )
    return idx


def region_nodes(domain, region):
    """Grid index arrays (ix, iy) of the nodes a region covers.

    An interior rectangle covers the nodes inside its bounds; a boundary
    segment is the one-node-wide strip on its edge (ix = [0] or [nx-1] on
    the left/right sides, iy = [0] or [ny-1] on the bottom/top).  Raises
    ValueError when the region leaves the domain or holds no node.
    """
    region._check_inside(domain)
    if region.kind == "interior":
        x0, x1, y0, y1 = region.bounds
        return _index_range(domain.x, x0, x1), _index_range(domain.y, y0, y1)
    s0, s1 = region.bounds
    if region.side in ("left", "right"):
        col = 0 if region.side == "left" else domain.nx - 1
        return np.array([col]), _index_range(domain.y, s0, s1)
    row = 0 if region.side == "bottom" else domain.ny - 1
    return _index_range(domain.x, s0, s1), np.array([row])


def restrict(fld, region):
    """Nodal restriction of a field to an interior rectangle (chi_omega)."""
    if region.kind != "interior":
        raise ValueError("restrict expects an interior region")
    d = fld.domain
    ix, iy = region_nodes(d, region)
    return GridPatch(x=d.x[ix], y=d.y[iy], values=fld.values[np.ix_(ix, iy)])


def trace(fld, gamma):
    """Boundary-node samples of a field along a boundary segment
    (chi_Gamma composed with the boundary trace)."""
    if gamma.kind != "boundary":
        raise ValueError("trace expects a boundary region")
    d = fld.domain
    ix, iy = region_nodes(d, gamma)
    s = d.y[iy] if gamma.side in ("left", "right") else d.x[ix]
    return BoundaryProfile(s=s, values=fld.values[np.ix_(ix, iy)].ravel())


def _validate_adjacency(domain, gamma, omega_c):
    """Check Gamma lies on the edge of omega_c that touches the boundary."""
    x0, x1, y0, y1 = omega_c.bounds
    s0, s1 = gamma.bounds
    edge = {
        "left": (x0, 0.0),
        "right": (x1, domain.lx),
        "bottom": (y0, 0.0),
        "top": (y1, domain.ly),
    }[gamma.side]
    tang = (y0, y1) if gamma.side in ("left", "right") else (x0, x1)
    if abs(edge[0] - edge[1]) > _SNAP:
        raise ValueError(
            f"the {gamma.side} edge of the interior region does not touch "
            "the domain boundary, so the boundary segment cannot lie on it"
        )
    if s0 < tang[0] - _SNAP or s1 > tang[1] + _SNAP:
        raise ValueError(
            "boundary segment is not contained in the interior region's edge"
        )


def _smooth_decay(t):
    """C1 cubic profile with value 1, slope 0 at t=0 and value 0 at t=1."""
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - t * t * (3.0 - 2.0 * t)


def extend_target(zd, omega_c, gamma, domain):
    """Extend a boundary target from Gamma into omega_c (the operator R).

    The extension is separable: the tangential trace (continued as a
    constant beyond the ends of Gamma) multiplied by the smoothstep decay
    in the normal coordinate, which equals 1 on Gamma — so the trace of the
    result reproduces zd at the grid nodes exactly — and falls smoothly to
    0 at the far face of omega_c.
    """
    if omega_c.kind != "interior" or gamma.kind != "boundary":
        raise ValueError("extend_target needs an interior region and a "
                         "boundary segment")
    ix, iy = region_nodes(domain, omega_c)
    gamma._check_inside(domain)
    _validate_adjacency(domain, gamma, omega_c)

    x0, x1, y0, y1 = omega_c.bounds
    xs, ys = domain.x[ix], domain.y[iy]
    zd = np.asarray(zd, dtype=float)

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

    gnodes = _index_range(tang, *gamma.bounds)
    if zd.shape != (gnodes.size,):
        raise ValueError(
            f"boundary target has {zd.size} samples but the segment holds "
            f"{gnodes.size} grid nodes"
        )
    # constant continuation beyond the ends of Gamma
    line = np.empty(tang.size)
    line[gnodes] = zd
    line[: gnodes[0]] = zd[0]
    line[gnodes[-1] + 1:] = zd[-1]

    decay = _smooth_decay(depth)
    if gamma.side in ("left", "right"):
        values = decay[:, None] * line[None, :]
    else:
        values = line[:, None] * decay[None, :]
    return GridPatch(x=xs, y=ys, values=values)


@dataclass(frozen=True)
class Actuator:
    """Control input shape: distributed over a rectangle (zonal) or
    concentrated at a point (pointwise Dirac mass)."""

    kind: str
    support: tuple
    gain: float = 1.0

    @classmethod
    def zonal(cls, x0, x1, y0, y1, gain=1.0):
        if not (x0 < x1 and y0 < y1):
            raise ValueError("zonal support must have positive area")
        return cls(kind="zonal", support=(x0, x1, y0, y1), gain=gain)

    @classmethod
    def pointwise(cls, bx, by, gain=1.0):
        return cls(kind="pointwise", support=(bx, by), gain=gain)


def _cos_segment_integral(i, length, a, b):
    """Integral of the normalized cosine mode c_i cos(i pi s / length)
    over [a, b]."""
    if i == 0:
        return (b - a) / math.sqrt(length)
    k = i * math.pi / length
    return math.sqrt(2.0 / length) * (math.sin(k * b) - math.sin(k * a)) / k


def actuator_coefficients(act, basis):
    """Spectral coefficients b_ij = <B 1, e_ij> of the actuator shape.

    Zonal shapes use the exact closed-form cosine integrals over the
    support rectangle; a pointwise actuator contributes the eigenfunction
    values at its location (the truncation regularizes the Dirac mass).
    """
    d = basis.domain
    if act.kind == "zonal":
        x0, x1, y0, y1 = act.support
        if x0 < -_SNAP or x1 > d.lx + _SNAP or y0 < -_SNAP or \
                y1 > d.ly + _SNAP:
            raise ValueError("zonal support exceeds the domain")
        bx = np.array(
            [_cos_segment_integral(i, d.lx, x0, x1) for i in range(basis.mx)]
        )
        by = np.array(
            [_cos_segment_integral(j, d.ly, y0, y1) for j in range(basis.my)]
        )
    elif act.kind == "pointwise":
        px, py = act.support
        if not (0.0 <= px <= d.lx and 0.0 <= py <= d.ly):
            raise ValueError("pointwise actuator location outside the domain")
        bx = _cos_rows(basis.mx, d.lx, np.array([px]))[:, 0]
        by = _cos_rows(basis.my, d.ly, np.array([py]))[:, 0]
    else:
        raise ValueError(f"unknown actuator kind {act.kind!r}")
    return act.gain * np.outer(bx, by).ravel()
