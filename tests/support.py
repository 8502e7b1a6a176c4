"""Test configs and helpers that more than one test module uses.

Test modules import what they share from here and never from each other,
so an import error in one test module fails the collection of that
module alone.
"""

import ast
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np

import fracctrl
from fracctrl import solver
from fracctrl.cli import main
from fracctrl.control import ControlProblem, algorithm1
from fracctrl.domain import (
    Actuator,
    GridPatch,
    RectDomain,
    Region,
    build_basis,
    extend_target,
)
from fracctrl.solver import NonlinearTerm, TimeGrid
from fields import evaluate_mode, from_function

TINY = """
[problem]
alpha = 0.5
T = 1.0
f_coeff = 0

[domain]
nx = 21
ny = 21
mx = 6
my = 6
K = 8

[actuator]
box = 0.0 0.2 0.2 0.4
gain = 1.0

[regions]
gamma = left 0.0 0.1
omega_c = 0.0 0.3 0.0 0.1

[target]
z_d = (0, 0, 1e-3)

[loop]
eps = 1e-2
lambda_reg = 1e-8
"""

# TINY's node spacing is 0.05: this omega_c holds only Gamma's nodes
NARROW = TINY.replace("omega_c = 0.0 0.3", "omega_c = 0.0 0.01")
# F = y^2 and a target far out of reach: under `picard` the first control,
# pinv(d_s), drives step 1 out of the solver's contraction regime
FAR = (TINY.replace("f_coeff = 0", "f_coeff = 1")
       .replace("z_d = (0, 0, 1e-3)", "z_d = (0, 0, 1e9)"))


def write_cfg(tmp_path, text=TINY, name="tiny.cfg"):
    """Write a config file into tmp_path; returns its path as a string."""
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def one_error_line(capsys, argv, code):
    """Run the CLI on argv, which must exit with code and write exactly
    one line to stderr; returns that line."""
    assert main(argv) == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return err[0]


def package_env():
    """Environment for a child interpreter that imports this fracctrl."""
    src = str(Path(fracctrl.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def imported_modules(path):
    """The module names a Python file imports, at the top or inside a
    function."""
    names = []
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    return names


def record_calls(monkeypatch, owner, name):
    """Replace owner.name, for the test, by a wrapper that records each
    call's positional arguments, then calls the original; returns the
    list of recorded argument tuples."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def count_projections(monkeypatch):
    """A list that gains one entry per call of the solver's F projection:
    every sweep and every fresh F at a settled state is one nodal/spectral
    round trip."""
    calls = []
    projection = solver._f_projection

    def counted(F, basis):
        project = projection(F, basis)

        def count(c):
            calls.append(None)
            return project(c)

        return count

    monkeypatch.setattr(solver, "_f_projection", counted)
    return calls


def traced_peak(fn, *args):
    """Peak memory traced by tracemalloc while fn(*args) runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def example_problem(basis, grid, F, gain=1.0,
                    omega_c=Region.interior(0.0, 0.3, 0.0, 0.1), **fields):
    """The bundled examples' geometry on a given basis and time grid:
    alpha = 0.3, the zonal actuator on [0, 0.2] x [0.2, 0.4] with the
    given gain, Gamma = {0} x [0, 0.1] and z_d = 7 y^3 - 13 y^2 + 3 on
    Gamma, extended into omega_c.  fields sets any other ControlProblem
    field."""
    dom = basis.domain
    gamma = Region.boundary("left", 0.0, 0.1)
    ys = dom.y[dom.y <= 0.1 + 1e-9]
    zd = 7 * ys**3 - 13 * ys**2 + 3.0
    return ControlProblem(
        basis=basis, act=Actuator.zonal(0.0, 0.2, 0.2, 0.4, gain=gain),
        grid=grid, alpha=0.3, F=F, omega_c=omega_c, gamma=gamma,
        d_s=extend_target(zd, omega_c, gamma, dom), zd=zd, **fields,
    )


def manufactured_target_run(problem):
    """Run algorithm1 on F = none with the target H u, u = cos on [0, 1]
    (in the image of H), and eps 1e-6 above the best achievable residual,
    the Tikhonov bias lambda |(G + lambda I)^-1 d_w| in the weighted
    target norm; returns (report, bias)."""
    H = problem.operator()
    manufactured = H.apply(np.cos(np.linspace(0.0, 1.0, problem.grid.K)))
    set_target(problem, manufactured)
    dw = np.sqrt(H.weights) * manufactured
    G = H.Mw @ H.Mw.T
    A = G + problem.lambda_reg * np.eye(G.shape[0])
    bias = problem.lambda_reg * np.linalg.norm(np.linalg.solve(A, dw))
    problem.eps = 1e-6 + bias
    return algorithm1(problem)[2], bias


def set_target(problem, values):
    """Give problem the target values on omega_c's nodes."""
    d_s = problem.d_s
    problem.d_s = GridPatch(x=d_s.x, y=d_s.y,
                            values=np.reshape(values, d_s.values.shape))


def l1_temporal_rate():
    """Time order of the L1 oracle at alpha = 0.3: the final state of the
    modes (1, 0) + (0, 1) decaying on a 26 x 26 grid, at K = 40 and 80
    against K = 640, so the spatial error cancels."""
    # the oracle imports scipy, which only the tests calling this need
    from l1_oracle import l1_oracle_solve

    dom = RectDomain(1.0, 1.0, 26, 26)
    basis = build_basis(dom, 10, 10)
    act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
    y0 = from_function(
        dom,
        lambda x, y: evaluate_mode(basis, 1, 0, x, y)
        + evaluate_mode(basis, 0, 1, x, y),
    )

    def final(K):
        return l1_oracle_solve(
            y0, None, NonlinearTerm.none(), act, dom, TimeGrid(3.0, K), 0.3
        ).values[-1]

    ref = final(640)
    errs = [np.linalg.norm(final(K) - ref) for K in (40, 80)]
    return math.log2(errs[0] / errs[1])
