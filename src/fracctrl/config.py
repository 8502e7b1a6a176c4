"""Experiment configuration: INI files describing a full control run.

A config file resolves to a ControlProblem plus run metadata.  Targets and
extensions are polynomials given as monomial coefficient lists — a
space-separated sequence of (i, j, c) triples meaning c * x^i * y^j — so
both bundled examples are expressed exactly without an expression parser.
Every key has one row in `_KEYS`: its parser, default and check; every
number a key holds must be finite.  Every key is read on every run, and
a file key without a row is an error, so a misspelt key cannot fall back
to a default silently.
"""

import ast
import configparser
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .control import ControlProblem
from .domain import (
    Actuator,
    Field,
    GridPatch,
    RectDomain,
    Region,
    actuator_coefficients,
    build_basis,
    extend_target,
    region_nodes,
)
from .solver import NonlinearTerm, TimeGrid

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "read_ini",
    "parse_poly",
    "eval_poly",
    "bundled_config_path",
]

METHODS = ("algorithm1", "picard")


class ConfigError(ValueError):
    """Invalid or missing configuration value, anchored to its location."""

    def __init__(self, path, section, key, message):
        self.path = path
        self.section = section
        self.key = key
        super().__init__(f"{path}: [{section}] {key}: {message}")


def parse_poly(text):
    """Parse a monomial coefficient list: '(i, j, c) (i, j, c) ...'.

    Returns a list of (int, int, float) triples.  Commas between triples
    and surrounding brackets are tolerated.
    """
    # whitespace after a closing parenthesis, or none before the next
    # triple, separates triples; whitespace inside a triple is dropped
    body = re.sub(r"\)(\s+|(?=\())", "),",
                  text.strip().lstrip("[").rstrip("]"))
    try:
        terms = ast.literal_eval("[" + "".join(body.split()) + "]")
    except (ValueError, SyntaxError) as exc:
        raise ValueError(f"bad monomial list {text!r}") from exc
    if not terms:
        raise ValueError("empty polynomial")
    for t in terms:
        if not (isinstance(t, tuple) and len(t) == 3
                and all(isinstance(k, int) and k >= 0 for k in t[:2])):
            raise ValueError(f"not an (i, j, c) term, i, j ints >= 0: {t!r}")
    try:
        terms = [(i, j, float(c)) for i, j, c in terms]
    except TypeError as exc:
        raise ValueError(f"non-numeric coefficient in {text!r}") from exc
    if not all(math.isfinite(c) for _, _, c in terms):
        raise ValueError(f"non-finite coefficient in {text!r}")
    return terms


def eval_poly(terms, x, y):
    """Evaluate a monomial list on the outer grid x (rows) by y (cols)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.zeros((x.size, y.size))
    for i, j, c in terms:
        out += c * np.outer(x**i, y**j)
    return out


def _finite(text):
    """A float that is neither nan nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _floats(n):
    """Parser of a list of n finite numbers."""
    def parse(text):
        vals = [_finite(v) for v in text.replace(",", " ").split()]
        if len(vals) != n:
            raise ValueError(f"needs {n} numbers, got {len(vals)}")
        return vals
    return parse


def _segment(text):
    """'side s0 s1' of a boundary segment."""
    spec = text.replace(",", " ").split()
    if len(spec) != 3:
        raise ValueError("needs: side s0 s1")
    return [spec[0], _finite(spec[1]), _finite(spec[2])]


def _initial(text):
    """'zero', the zero field, or a monomial list."""
    return "zero" if text.strip() == "zero" else parse_poly(text)


def _one_of(options):
    return (lambda v: v in options), f"must be one of {', '.join(options)}"


_REQUIRED = object()
_POSITIVE = (lambda v: v > 0.0), "must be > 0"
_LOOP = {f.name: f.default for f in fields(ControlProblem)}

# (section, key) -> (parse, default, check).  A default of _REQUIRED makes
# the key required; an absent key with default None is left out of the
# resolved view.  A check (predicate, message) skips the defaults.
_KEYS = {
    ("problem", "alpha"): (
        _finite, _REQUIRED, ((lambda a: 0.0 < a <= 1.0), "must be in (0, 1]")),
    ("problem", "T"): (_finite, _REQUIRED, _POSITIVE),
    # F(y) = f_coeff * y^f_power; f_coeff = 0 is the linear system
    ("problem", "f_coeff"): (_finite, 1.0, None),
    ("problem", "f_power"): (int, 2, None),
    ("domain", "lx"): (_finite, 1.0, None),
    ("domain", "ly"): (_finite, 1.0, None),
    **{("domain", k): (int, _REQUIRED, None)
       for k in ("nx", "ny", "mx", "my", "K")},
    ("actuator", "gain"): (_finite, 1.0, None),
    # exactly one of box (a zonal actuator) and point (a pointwise one)
    ("actuator", "box"): (_floats(4), None, None),
    ("actuator", "point"): (_floats(2), None, None),
    ("regions", "gamma"): (_segment, _REQUIRED, None),
    ("regions", "omega_c"): (_floats(4), _REQUIRED, None),
    ("target", "z_d"): (parse_poly, _REQUIRED, None),
    ("target", "d_s"): (parse_poly, None, None),
    ("initial", "y0"): (_initial, "zero", None),
    ("loop", "eps"): (_finite, _LOOP["eps"], _POSITIVE),
    # the default (negative) selects the trace-scaled lambda
    ("loop", "lambda_reg"): (
        _finite, _LOOP["lambda_reg"], ((lambda v: v >= 0.0), "must be >= 0")),
    ("loop", "n_max"): (
        int, _LOOP["n_max"], ((lambda n: n >= 1), "must be >= 1")),
    ("loop", "method"): (str.strip, "algorithm1", _one_of(METHODS)),
    ("run", "seed"): (int, 0, None),
}


@dataclass(kw_only=True)
class ExperimentConfig(ControlProblem):
    """A fully resolved run description: the control problem plus the run
    metadata and the flat key/value view (every default materialized)
    used by the run manifest.
    """

    path: str
    method: str
    seed: int
    resolved: dict = field(default_factory=dict)

    @property
    def domain(self):
        return self.basis.domain

    def operator(self):
        """The problem's reachability operator; its lambda, the one the
        run uses, enters the resolved view."""
        H = super().operator()
        self.resolved["loop.lambda_reg"] = H.lambda_reg
        return H

    def problem(self):
        """The control problem this config describes: the config itself."""
        return self


def bundled_config_path(name):
    """Filesystem path of a packaged example config (e.g. 'example1.cfg')."""
    # imported on use: no run calls this, and the import costs about 5 ms
    from importlib import resources

    ref = resources.files("fracctrl") / "configs" / name
    return str(ref)


def read_ini(path, overrides=None):
    """Parse a config file, values as written (no `%` interpolation), and
    set into it each not-None "section.key": value of `overrides`, in order
    (a missing section is added); a bad file raises a one-line ConfigError."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(path, "-", "-", " ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(path, "-", "-", "file not found or unreadable")
    for name, value in (overrides or {}).items():
        if value is not None:
            section, _, key = name.partition(".")
            cp.read_dict({section: {key: value}})
    return cp


@contextmanager
def _anchored(path, section, key):
    """Report a ValueError raised in the block as a ConfigError at
    [section] key; a check spanning several keys of a section uses '-'."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(path, section, key, str(exc)) from exc


def load_config(path, overrides=None):
    """Read and resolve an experiment config file into the configuration
    a run uses; `read_ini` sets the overrides into the INI, so each is
    parsed, checked and recorded as a file value is.  The fixed-point
    sequence (picard) is defined for y0 = 0 only.  An omitted lambda_reg
    is None until the operator sets the trace-scaled lambda."""
    cp = read_ini(path, overrides)
    known = {(section, cp.optionxform(key)) for section, key in _KEYS}
    for section in cp.sections():
        for key in cp.options(section):
            if (section, key) not in known:
                raise ConfigError(path, section, key, "unknown key")
    resolved = {}

    def read(section, key):
        """The key's checked value or default; recorded unless None."""
        parse, default, check = _KEYS[section, key]
        if cp.has_option(section, key):
            with _anchored(path, section, key):
                value = parse(cp.get(section, key))
                if check is not None and not check[0](value):
                    raise ValueError(check[1])
        elif default is _REQUIRED:
            raise ConfigError(path, section, key, "missing required key")
        else:
            value = default
        if value is not None:
            resolved[f"{section}.{key}"] = value
        return value

    alpha = read("problem", "alpha")
    T = read("problem", "T")
    coeff, power = read("problem", "f_coeff"), read("problem", "f_power")
    with _anchored(path, "problem", "f_power"):
        F = NonlinearTerm(coeff, power)
    lx, ly, nx, ny, mx, my, K = [
        read("domain", k) for k in ("lx", "ly", "nx", "ny", "mx", "my", "K")
    ]
    with _anchored(path, "domain", "-"):
        domain = RectDomain(lx, ly, nx, ny)
        basis = build_basis(domain, mx, my)
        grid = TimeGrid(T, K)

    gain = read("actuator", "gain")
    box, point = read("actuator", "box"), read("actuator", "point")
    if (box is None) == (point is None):
        raise ConfigError(path, "actuator", "-",
                          "needs exactly one of box and point")
    with _anchored(path, "actuator", "box" if point is None else "point"):
        act = (Actuator.zonal(*box, gain=gain) if point is None
               else Actuator.pointwise(*point, gain=gain))
        actuator_coefficients(act, basis)  # the support lies in the domain

    segment = read("regions", "gamma")
    with _anchored(path, "regions", "gamma"):
        gamma = Region.boundary(*segment)
        gx, gy = region_nodes(domain, gamma)
    rect = read("regions", "omega_c")
    with _anchored(path, "regions", "omega_c"):
        omega_c = Region.interior(*rect)
        ix, iy = region_nodes(domain, omega_c)

    def on_gamma(terms):
        """A polynomial's samples at the grid nodes of Gamma."""
        return eval_poly(terms, domain.x[gx], domain.y[gy]).ravel()

    # boundary target: full 2-D polynomial evaluated on the segment nodes
    zd = on_gamma(read("target", "z_d"))

    # target extension into omega_c: explicit polynomial, or z_d times
    # the smoothstep decay
    ds_terms = read("target", "d_s")
    if ds_terms is not None:
        xs, ys = domain.x[ix], domain.y[iy]
        d_s = GridPatch(x=xs, y=ys, values=eval_poly(ds_terms, xs, ys))
        if not np.allclose(on_gamma(ds_terms), zd, atol=1e-9):
            raise ConfigError(
                path, "target", "d_s",
                "trace on the boundary segment does not match z_d",
            )
    else:
        # the extension needs Gamma on the edge of omega_c that touches
        # the domain boundary
        with _anchored(path, "regions", "-"):
            d_s = extend_target(zd, omega_c, gamma, domain)

    y0_terms = read("initial", "y0")
    y0 = Field.zero(domain) if y0_terms == "zero" else Field(
        domain, eval_poly(y0_terms, domain.x, domain.y))

    # the [loop] keys are named as the fields they set
    loop = {k: read("loop", k)
            for k in ("eps", "lambda_reg", "n_max", "method")}
    seed = read("run", "seed")
    if loop["method"] == "picard" and np.any(y0.values != 0.0):
        raise ConfigError(path, "loop", "method",
                          "picard requires [initial] y0 = zero")
    if loop["lambda_reg"] < 0.0:
        resolved["loop.lambda_reg"] = None

    return ExperimentConfig(
        basis=basis, act=act, grid=grid, alpha=alpha, F=F, omega_c=omega_c,
        gamma=gamma, d_s=d_s, zd=zd, y0=y0, path=str(path), seed=seed,
        resolved=resolved, **loop,
    )
