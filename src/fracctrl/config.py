"""Experiment configuration: INI files describing a full control run.

A config file resolves to a ControlProblem plus run metadata.  Targets and
extensions are polynomials given as monomial coefficient lists — a
space-separated sequence of (i, j, c) triples meaning c * x^i * y^j — so
both bundled examples are expressed exactly without an expression parser.
A file key that `load_config` does not read is an error, so a misspelt
key cannot fall back to a default silently.
"""

import ast
import configparser
import os
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from .control import STOP_METRICS, TARGET_MODES, ControlProblem
from .domain import (
    Actuator,
    Field,
    GridPatch,
    RectDomain,
    Region,
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

OUTPUT_ROOT_ENV = "FRACCTRL_OUT"

_DEFAULTS = {
    ("problem", "f"): "square",
    ("domain", "lx"): "1.0",
    ("domain", "ly"): "1.0",
    ("actuator", "gain"): "1.0",
    ("loop", "method"): "algorithm1",
    ("run", "seed"): "0",
    # the outer loop's settings default to ControlProblem's own values
    **{("loop", f.name): f.default for f in fields(ControlProblem)
       if f.name in ("eps", "lambda_reg", "n_max", "stop_metric",
                     "target_mode")},
}

_METHODS = ("algorithm1", "picard", "linear")


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
    cleaned = text.strip().lstrip("[").rstrip("]").replace("),", ") ")
    parts = cleaned.replace(")", ") ").split()
    # re-join fragments so each element is one parenthesized triple
    terms, buf = [], ""
    for p in parts:
        buf += p
        if buf.count("(") == buf.count(")") and buf:
            terms.append(buf)
            buf = ""
    if buf:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    out = []
    for t in terms:
        try:
            tup = ast.literal_eval(t)
        except (ValueError, SyntaxError) as exc:
            raise ValueError(f"bad monomial term {t!r}") from exc
        if not (isinstance(tup, tuple) and len(tup) == 3):
            raise ValueError(f"monomial term must be (i, j, c), got {t!r}")
        i, j, c = tup
        if not (isinstance(i, int) and isinstance(j, int)
                and i >= 0 and j >= 0):
            raise ValueError(f"monomial powers must be ints >= 0 in {t!r}")
        out.append((i, j, float(c)))
    if not out:
        raise ValueError("empty polynomial")
    return out


def eval_poly(terms, x, y):
    """Evaluate a monomial list on the outer grid x (rows) by y (cols)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.zeros((x.size, y.size))
    for i, j, c in terms:
        out += c * np.outer(x**i, y**j)
    return out


def _parse_floats(text, n, what):
    vals = [float(v) for v in text.replace(",", " ").split()]
    if len(vals) != n:
        raise ValueError(f"{what} needs {n} numbers, got {len(vals)}")
    return vals


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

    def problem(self):
        """The control problem this config describes: the config itself."""
        return self


def _get(cp, path, section, key, required=True):
    if cp.has_option(section, key):
        return cp.get(section, key)
    default = _DEFAULTS.get((section, key))
    if default is not None:
        return default
    if required:
        raise ConfigError(path, section, key, "missing required key")
    return None


def bundled_config_path(name):
    """Filesystem path of a packaged example config (e.g. 'example1.cfg')."""
    ref = resources.files("fracctrl") / "configs" / name
    return str(ref)


def read_ini(path):
    """Parse a config file; a file that is missing or that configparser
    rejects raises a one-line ConfigError."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(path, "-", "-", " ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(path, "-", "-", "file not found or unreadable")
    return cp


def load_config(path):
    """Read and resolve an experiment config file."""
    cp = read_ini(path)
    asked = set()  # every (section, key) read, present in the file or not

    def get(section, key, required=True):
        asked.add((section, cp.optionxform(key)))
        return _get(cp, path, section, key, required)

    def get_typed(section, key, cast, required=True):
        raw = get(section, key, required)
        if raw is None:
            return None
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(path, section, key, str(exc)) from exc

    resolved = {}

    def record(section, key, value):
        resolved[f"{section}.{key}"] = value
        return value

    alpha = record("problem", "alpha", get_typed("problem", "alpha", float))
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(path, "problem", "alpha", "must be in (0, 1]")
    T = record("problem", "T", get_typed("problem", "T", float))
    if T <= 0.0:
        raise ConfigError(path, "problem", "T", "must be positive")

    lx = record("domain", "lx", get_typed("domain", "lx", float))
    ly = record("domain", "ly", get_typed("domain", "ly", float))
    nx = record("domain", "nx", get_typed("domain", "nx", int))
    ny = record("domain", "ny", get_typed("domain", "ny", int))
    mx = record("domain", "mx", get_typed("domain", "mx", int))
    my = record("domain", "my", get_typed("domain", "my", int))
    K = record("domain", "K", get_typed("domain", "K", int))
    try:
        domain = RectDomain(lx, ly, nx, ny)
        basis = build_basis(domain, mx, my)
        grid = TimeGrid(T, K)
    except ValueError as exc:
        raise ConfigError(path, "domain", "-", str(exc)) from exc

    kind = record("actuator", "type", get("actuator", "type")).strip()
    gain = record(
        "actuator", "gain", get_typed("actuator", "gain", float)
    )
    try:
        if kind == "zonal":
            box = _parse_floats(get("actuator", "box"), 4, "box")
            record("actuator", "box", box)
            act = Actuator.zonal(*box, gain=gain)
        elif kind == "pointwise":
            pt = _parse_floats(get("actuator", "point"), 2, "point")
            record("actuator", "point", pt)
            act = Actuator.pointwise(*pt, gain=gain)
        else:
            raise ValueError(f"type must be zonal or pointwise, got {kind!r}")
    except ValueError as exc:
        raise ConfigError(path, "actuator", kind, str(exc)) from exc

    gspec = get("regions", "gamma").replace(",", " ").split()
    try:
        if len(gspec) != 3:
            raise ValueError("gamma needs: side s0 s1")
        gamma = Region.boundary(gspec[0], float(gspec[1]), float(gspec[2]))
        record("regions", "gamma", [gspec[0], float(gspec[1]),
                                    float(gspec[2])])
        ob = _parse_floats(get("regions", "omega_c"), 4, "omega_c")
        record("regions", "omega_c", ob)
        omega_c = Region.interior(*ob)
        gx, gy = region_nodes(domain, gamma)
        ix, iy = region_nodes(domain, omega_c)
    except ValueError as exc:
        raise ConfigError(path, "regions", "-", str(exc)) from exc

    fkind = record("problem", "F", get("problem", "f")).strip()
    try:
        if fkind == "none":
            F = NonlinearTerm.none()
        elif fkind == "square":
            F = NonlinearTerm.square()
        elif fkind == "power":
            coeff = get_typed("problem", "f_coeff", float)
            power = get_typed("problem", "f_power", int)
            record("problem", "f_coeff", coeff)
            record("problem", "f_power", power)
            F = NonlinearTerm.scaled_power(coeff, power)
        else:
            raise ValueError(
                f"F must be none, square or power, got {fkind!r}"
            )
    except ValueError as exc:
        raise ConfigError(path, "problem", "F", str(exc)) from exc

    def on_gamma(terms):
        """A polynomial's samples at the grid nodes of Gamma."""
        return eval_poly(terms, domain.x[gx], domain.y[gy]).ravel()

    # boundary target: full 2-D polynomial evaluated on the segment nodes
    try:
        zd_terms = parse_poly(get("target", "z_d"))
    except ValueError as exc:
        raise ConfigError(path, "target", "z_d", str(exc)) from exc
    record("target", "z_d", zd_terms)
    zd = on_gamma(zd_terms)

    def extend(profile=None):
        """The extension of z_d into omega_c; it needs Gamma on the edge
        of omega_c that touches the domain boundary."""
        try:
            return extend_target(zd, omega_c, gamma, domain, profile=profile)
        except ValueError as exc:
            raise ConfigError(path, "regions", "-", str(exc)) from exc

    # target extension into omega_c: explicit polynomial, a polynomial
    # decay profile in the inward coordinate, or the default smooth decay
    ds_raw = get("target", "d_s", required=False)
    prof_raw = get("target", "extension_profile", required=False)
    if ds_raw is not None:
        try:
            ds_terms = parse_poly(ds_raw)
        except ValueError as exc:
            raise ConfigError(path, "target", "d_s", str(exc)) from exc
        record("target", "d_s", ds_terms)
        xs, ys = domain.x[ix], domain.y[iy]
        d_s = GridPatch(x=xs, y=ys, values=eval_poly(ds_terms, xs, ys))
        if not np.allclose(on_gamma(ds_terms), zd, atol=1e-9):
            raise ConfigError(
                path, "target", "d_s",
                "trace on the boundary segment does not match z_d",
            )
    elif prof_raw is not None:
        try:
            coefs = [float(v) for v in prof_raw.replace(",", " ").split()]
        except ValueError as exc:
            raise ConfigError(
                path, "target", "extension_profile", str(exc)
            ) from exc
        if not coefs or abs(coefs[0] - 1.0) > 1e-12:
            raise ConfigError(
                path, "target", "extension_profile",
                "leading coefficient must be 1 so the trace matches z_d",
            )
        record("target", "extension_profile", coefs)
        x0, x1, y0b, y1b = omega_c.bounds
        width = (x1 - x0) if gamma.side in ("left", "right") else (y1b - y0b)

        def decay(depth, _c=np.asarray(coefs), _w=width):
            return np.polynomial.polynomial.polyval(depth * _w, _c)

        d_s = extend(decay)
    else:
        record("target", "extension_profile", "smoothstep")
        d_s = extend()

    y0_raw = get("initial", "y0", required=False) if cp.has_section(
        "initial") else None
    if y0_raw is not None:
        try:
            y0_terms = parse_poly(y0_raw)
        except ValueError as exc:
            raise ConfigError(path, "initial", "y0", str(exc)) from exc
        record("initial", "y0", y0_terms)
        y0 = Field(domain, eval_poly(y0_terms, domain.x, domain.y))
    else:
        record("initial", "y0", "zero")
        y0 = Field.zero(domain)

    eps = record("loop", "eps", get_typed("loop", "eps", float))
    lambda_reg = record(
        "loop", "lambda_reg", get_typed("loop", "lambda_reg", float)
    )
    # a negative value marks the trace-scaled default, which only an
    # omitted key selects
    if cp.has_option("loop", "lambda_reg") and not lambda_reg >= 0.0:
        raise ConfigError(path, "loop", "lambda_reg", "must be >= 0")
    n_max = record("loop", "n_max", get_typed("loop", "n_max", int))
    stop_metric = record(
        "loop", "stop_metric", get("loop", "stop_metric")
    ).strip()
    if stop_metric not in STOP_METRICS:
        raise ConfigError(
            path, "loop", "stop_metric", f"must be one of {STOP_METRICS}"
        )
    target_mode = record(
        "loop", "target_mode", get("loop", "target_mode")
    ).strip()
    if target_mode not in TARGET_MODES:
        raise ConfigError(
            path, "loop", "target_mode", f"must be one of {TARGET_MODES}"
        )
    method = record("loop", "method", get("loop", "method")).strip()
    if method not in _METHODS:
        raise ConfigError(
            path, "loop", "method", f"must be one of {_METHODS}"
        )
    if eps <= 0.0 or n_max < 1:
        raise ConfigError(
            path, "loop", "eps/n_max", "eps must be > 0 and n_max >= 1"
        )
    seed = record("run", "seed", get_typed("run", "seed", int))
    for section in cp.sections():
        for key in cp.options(section):
            if (section, key) not in asked:
                raise ConfigError(path, section, key, "unknown key")

    return ExperimentConfig(
        basis=basis, act=act, grid=grid, alpha=alpha, F=F, omega_c=omega_c,
        gamma=gamma, d_s=d_s, zd=zd, y0=y0, eps=eps, lambda_reg=lambda_reg,
        n_max=n_max, stop_metric=stop_metric, target_mode=target_mode,
        path=str(path), method=method, seed=seed, resolved=resolved,
    )
