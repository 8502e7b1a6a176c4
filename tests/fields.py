"""Field helpers of the test suite: node spacing, point values of an
eigenmode, a field sampled from a function, and its discrete L2 norm.
No run needs them, so they live here, not in `fracctrl.domain`."""

import math

import numpy as np

from fracctrl.domain import Field


def spacing(domain):
    """Node spacings (dx, dy) of the domain's uniform grid."""
    return domain.lx / (domain.nx - 1), domain.ly / (domain.ny - 1)


def evaluate_mode(basis, i, j, x, y):
    """Point values e_ij(x, y) of a basis mode (arrays broadcast)."""
    d = basis.domain
    cx = 1.0 / math.sqrt(d.lx) if i == 0 else math.sqrt(2.0 / d.lx)
    cy = 1.0 / math.sqrt(d.ly) if j == 0 else math.sqrt(2.0 / d.ly)
    return (
        cx
        * np.cos(i * np.pi * np.asarray(x) / d.lx)
        * cy
        * np.cos(j * np.pi * np.asarray(y) / d.ly)
    )


def from_function(domain, fn):
    """The field of fn(x, y) at the domain's nodes."""
    xx, yy = np.meshgrid(domain.x, domain.y, indexing="ij")
    return Field(domain, fn(xx, yy))


def norm_l2(fld):
    """Discrete L2 norm of a field by the domain's trapezoid weights."""
    wx, wy = fld.domain.quad_weights()
    return math.sqrt(float(wx @ fld.values**2 @ wy))
