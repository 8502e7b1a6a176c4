"""Geometry and function-space layer.

Rectangle domain with a uniform node grid, the Neumann Laplacian cosine
eigenbasis, grid/spectral transforms, the grid nodes a region covers (and
on them interior restriction and boundary trace), target extension from a
boundary segment into an adjacent interior rectangle, and actuator spatial
profiles.

Every region is a box (x0, x1, y0, y1); a boundary segment is the
zero-width box on its edge.  One test places a box in another to within
_SNAP: a region or zonal support in the domain, and Gamma in omega_c.
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
        if not (0.0 < self.lx < math.inf and 0.0 < self.ly < math.inf):
            raise ValueError("domain side lengths must be positive and finite")
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

    def box(self, domain):
        """(x0, x1, y0, y1): an interior rectangle's bounds, or the
        zero-width box of a boundary segment on its edge of the domain."""
        if self.kind == "interior":
            return self.bounds
        s0, s1 = self.bounds
        return {
            "left": (0.0, 0.0, s0, s1),
            "right": (domain.lx, domain.lx, s0, s1),
            "bottom": (s0, s1, 0.0, 0.0),
            "top": (s0, s1, domain.ly, domain.ly),
        }[self.side]


def _contains(outer, box):
    """Whether box (x0, x1, y0, y1) lies in outer, to within _SNAP."""
    (a0, a1, b0, b1), (x0, x1, y0, y1) = outer, box
    return (x0 >= a0 - _SNAP and x1 <= a1 + _SNAP
            and y0 >= b0 - _SNAP and y1 <= b1 + _SNAP)


def _index_range(coords, lo, hi):
    idx = np.nonzero((coords >= lo - _SNAP) & (coords <= hi + _SNAP))[0]
    if idx.size == 0:
        raise ValueError(
            f"region [{lo}, {hi}] contains no grid nodes; refine the grid"
        )
    return idx


def region_nodes(domain, region):
    """Grid index arrays (ix, iy) of the nodes inside a region's box.

    A boundary segment's zero-width box holds the one-node-wide strip on
    its edge (ix = [0] or [nx-1] on the left/right sides, iy = [0] or
    [ny-1] on the bottom/top).  Raises ValueError when the box leaves the
    domain or holds no node.
    """
    x0, x1, y0, y1 = box = region.box(domain)
    if not _contains((0.0, domain.lx, 0.0, domain.ly), box):
        raise ValueError(f"{region.kind} region exceeds the domain")
    return _index_range(domain.x, x0, x1), _index_range(domain.y, y0, y1)


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
    """Check Gamma lies on the edge of omega_c that touches the boundary:
    Gamma's zero-width box lies in omega_c's box.  The caller has checked
    that omega_c lies in the domain."""
    if not _contains(omega_c.bounds, gamma.box(domain)):
        raise ValueError("the boundary segment does not lie on the "
                         f"{gamma.side} edge of the interior region")


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
    region_nodes(domain, gamma)  # Gamma lies in the domain
    _validate_adjacency(domain, gamma, omega_c)
    zd = np.asarray(zd, dtype=float)
    xs, ys = domain.x[ix], domain.y[iy]
    box = gamma.box(domain)

    profiles = []
    for coords, (lo, hi), (g0, g1) in ((xs, omega_c.bounds[:2], box[:2]),
                                       (ys, omega_c.bounds[2:], box[2:])):
        if g0 == g1:
            # the normal axis, across which Gamma's box has zero width (at
            # 0 on the left and bottom edges): the decay runs from
            # omega_c's face on Gamma to the far face
            near, far = (lo, hi) if g0 == 0.0 else (hi, lo)
            profiles.append(_smooth_decay((coords - near) / (far - near)))
            continue
        gnodes = _index_range(coords, g0, g1)
        if zd.shape != (gnodes.size,):
            raise ValueError(f"boundary target has {zd.size} samples but "
                             f"the segment holds {gnodes.size} grid nodes")
        # zd, continued as a constant beyond the ends of Gamma
        profiles.append(zd.take(np.arange(coords.size) - gnodes[0],
                                mode="clip"))
    return GridPatch(x=xs, y=ys, values=np.outer(*profiles))


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
        if not _contains((0.0, d.lx, 0.0, d.ly), act.support):
            raise ValueError("zonal support exceeds the domain")
        x0, x1, y0, y1 = act.support
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
    # a gain that overflows a coefficient overflows the reachability
    # matrix, which raises GramOverflowError where it is assembled
    with np.errstate(over="ignore"):
        return act.gain * np.outer(bx, by).ravel()
