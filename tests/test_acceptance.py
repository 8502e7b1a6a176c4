"""End-to-end acceptance checks for the toolkit.

Each test exercises one advertised guarantee: special-function accuracy,
solver cross-validation, exactness of the linear synthesis, the two
bundled experiments, the small-data contraction, extension round trips,
run determinism, and the hypothesis diagnostics.

The bundled experiments report the squared discrete L2(Gamma) distance
between the reached trace and the target (the same squared-norm
convention as the control cost), so thresholds on "error" below are
applied to boundary_error ** 2.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fracctrl.cli import EXIT_HYPOTHESIS, EXIT_OK, main
from fracctrl.config import (
    bundled_config_path,
    load_config,
    parse_poly,
    read_ini,
)
from fracctrl.control import ControlProblem, algorithm1, picard_sequence
from fracctrl.diagnostics import estimate_A1, hypothesis_report
from fracctrl.domain import (
    Actuator,
    GridPatch,
    RectDomain,
    Region,
    build_basis,
    extend_target,
)
from fracctrl.mittag import ml
from fracctrl.solver import NonlinearTerm, TimeGrid, solve_semilinear
from fields import evaluate_mode, from_function
from l1_oracle import l1_oracle_solve
from test_cli import _package_env
from test_solver import _count_projections

TEN_MINUTES = 600.0


def _run_example(tmp_path_factory, name):
    out = tmp_path_factory.mktemp(name)
    t0 = time.perf_counter()
    code = main([
        "run", "--config", bundled_config_path(f"{name}.cfg"),
        "--out", str(out),
    ])
    elapsed = time.perf_counter() - t0
    rundir = out / name
    manifest = json.loads((rundir / "manifest.json").read_text())
    return code, rundir, manifest, elapsed


@pytest.fixture(scope="module")
def ex1_run(tmp_path_factory):
    return _run_example(tmp_path_factory, "example1")


@pytest.fixture(scope="module")
def ex2_run(tmp_path_factory):
    return _run_example(tmp_path_factory, "example2")


class TestCriterion1MittagLeffler:
    def test_exponential_and_normalization(self):
        t0 = time.perf_counter()
        z = np.linspace(-50.0, 0.0, 100)
        vals = np.array([ml(1.0, 1.0, zz) for zz in z])
        assert np.max(np.abs(vals - np.exp(z))) <= 1e-10
        for alpha in np.linspace(0.1, 1.0, 10):
            for beta in np.linspace(0.2, 2.0, 10):
                assert abs(
                    ml(alpha, beta, 0.0) * math.gamma(beta) - 1.0
                ) <= 1e-12
        assert time.perf_counter() - t0 < 1.0


class TestCriterion2SolverCrossValidation:
    def test_spectral_vs_l1_linear(self):
        t0 = time.perf_counter()
        dom = RectDomain(1.0, 1.0, 51, 51)
        basis = build_basis(dom, 20, 20)
        grid = TimeGrid(3.0, 60)
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
        y0 = from_function(
            dom,
            lambda x, y: evaluate_mode(basis, 1, 0, x, y)
            + evaluate_mode(basis, 0, 1, x, y),
        )
        spec = solve_semilinear(
            y0, None, NonlinearTerm.none(), act, basis, grid, 0.3
        ).final_field().values
        fd = l1_oracle_solve(
            y0, None, NonlinearTerm.none(), act, dom, grid, 0.3
        ).final_field().values
        rel = np.linalg.norm(spec - fd) / np.linalg.norm(fd)
        assert rel <= 1e-2
        assert time.perf_counter() - t0 < 30.0

    def test_l1_temporal_rate(self):
        # fine-step reference on the same spatial grid isolates the
        # time-stepping order, expected 2 - alpha
        t0 = time.perf_counter()
        dom = RectDomain(1.0, 1.0, 26, 26)
        basis = build_basis(dom, 10, 10)
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
        alpha = 0.3
        y0 = from_function(
            dom,
            lambda x, y: evaluate_mode(basis, 1, 0, x, y)
            + evaluate_mode(basis, 0, 1, x, y),
        )

        def final(K):
            return l1_oracle_solve(
                y0, None, NonlinearTerm.none(), act, dom,
                TimeGrid(3.0, K), alpha,
            ).values[-1]

        ref = final(640)
        errs = [np.linalg.norm(final(K) - ref) for K in (40, 80)]
        rate = math.log2(errs[0] / errs[1])
        assert rate >= 1.4
        assert time.perf_counter() - t0 < 30.0


class TestCriterion3LinearExactness:
    def test_manufactured_target_one_iteration(self):
        t0 = time.perf_counter()
        dom = RectDomain(1.0, 1.0, 51, 51)
        basis = build_basis(dom, 12, 12)
        grid = TimeGrid(3.0, 30)
        act = Actuator.zonal(0.0, 0.2, 0.2, 0.4)
        omega = Region.interior(0.0, 0.3, 0.0, 0.1)
        gamma = Region.boundary("left", 0.0, 0.1)
        ys = dom.y[dom.y <= 0.1 + 1e-9]
        zd = 7 * ys**3 - 13 * ys**2 + 3.0
        d_s = extend_target(zd, omega, gamma, dom)
        problem = ControlProblem(
            basis=basis, act=act, grid=grid, alpha=0.3,
            F=NonlinearTerm.none(), omega_c=omega, gamma=gamma,
            d_s=d_s, zd=zd, lambda_reg=1e-10,
        )
        H = problem.operator()
        manufactured = H.apply(
            np.cos(np.linspace(0.0, 1.0, grid.K))
        )
        problem.d_s = GridPatch(
            x=d_s.x, y=d_s.y,
            values=manufactured.reshape(d_s.values.shape),
        )
        # best achievable residual: the Tikhonov bias
        # lambda (G + lambda I)^{-1} d_w in the weighted target norm
        dw = np.sqrt(H.weights) * manufactured.ravel()
        G = H.Mw @ H.Mw.T
        A = G + 1e-10 * np.eye(G.shape[0])
        bias = 1e-10 * np.linalg.norm(np.linalg.solve(A, dw))
        problem.eps = 1e-6 + bias
        u, traj, report = algorithm1(problem)
        assert report.converged
        assert report.iterations == 1
        assert report.residuals[0] <= 1e-6 + bias * (1.0 + 1e-9)
        assert time.perf_counter() - t0 < 60.0


class TestCriterion4Example1:
    def test_example1_reproduced(self, ex1_run):
        code, rundir, manifest, elapsed = ex1_run
        assert code == EXIT_OK
        summary = manifest["summary"]
        assert summary["status"] == "converged"
        assert summary["boundary_error"] ** 2 <= 1e-2
        assert 0.071 <= summary["cost"] <= 7.1
        assert elapsed < TEN_MINUTES


class TestMirroredExample1:
    def test_mirror_negates_the_control(self, ex1_run, tmp_path,
                                        monkeypatch):
        # y -> -y maps example 1 (F = y^2) to F = -y^2 with every target
        # coefficient negated, and u to -u: the mirrored run writes the
        # same iterations and summary and the negated control, and the
        # mean-mode test skips the same final step, so it makes the same
        # 7,516 F projections
        _, rundir, _, _ = ex1_run
        cp = read_ini(bundled_config_path("example1.cfg"),
                      {"problem.f_coeff": "-1"})
        for key in ("z_d", "d_s"):
            cp.set("target", key, " ".join(
                f"({i}, {j}, {-c!r})"
                for i, j, c in parse_poly(cp.get("target", key))
            ))
        path = tmp_path / "example1-mirror.cfg"
        with open(path, "w") as fh:
            cp.write(fh)
        calls = _count_projections(monkeypatch)
        code = main(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert len(calls) == 7_516
        mirror = tmp_path / "example1-mirror"
        for name in ("iterations.dat", "summary.txt"):
            assert (mirror / name).read_bytes() == (
                rundir / name).read_bytes(), name
        plain = np.loadtxt(rundir / "control.dat")
        mirrored = np.loadtxt(mirror / "control.dat")
        assert np.array_equal(mirrored[:, 0], plain[:, 0])
        assert np.array_equal(mirrored[:, 1], -plain[:, 1])


class TestCriterion5Example2:
    def test_example2_reproduced(self, ex2_run):
        code, rundir, manifest, elapsed = ex2_run
        assert code == EXIT_OK
        summary = manifest["summary"]
        assert summary["status"] == "converged"
        assert summary["boundary_error"] ** 2 <= 1e-2
        assert summary["cost"] <= 0.1
        assert elapsed < TEN_MINUTES


class TestCriterion6SmallDataContraction:
    def test_picard_contracts_on_scaled_target(self):
        cfg = load_config(bundled_config_path("example1.cfg"))
        problem = cfg.problem()
        problem.d_s = GridPatch(
            x=problem.d_s.x, y=problem.d_s.y,
            values=problem.d_s.values * 1e-2,
        )
        problem.zd = problem.zd * 1e-2
        problem.eps = 1e-10
        problem.n_max = 20
        u, traj, report = picard_sequence(problem)
        assert report.converged
        assert report.iterations <= 20
        ratios = report.contraction_ratios()
        assert len(ratios) >= 2
        assert all(r < 1.0 for r in ratios)
        hyp = hypothesis_report(problem)
        assert hyp.a_s < 1.0
        assert not hyp.violated


class TestCriterion7ExtensionRoundTrip:
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_trace_of_extension_is_target(self, name):
        cfg = load_config(bundled_config_path(f"{name}.cfg"))
        patch = extend_target(cfg.zd, cfg.omega_c, cfg.gamma, cfg.domain)
        # gamma is the left edge: the first x-row of the extension is
        # its trace and must reproduce z_d without any roundoff
        assert patch.values.shape[1] == cfg.zd.size
        assert np.array_equal(patch.values[0, :], cfg.zd)
        # the bundled explicit extensions restrict the same way
        assert np.allclose(cfg.d_s.values[0, :], cfg.zd, atol=1e-12)


class TestCriterion8Determinism:
    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_sweep_rows_write_the_plain_run_bytes(
        self, request, tmp_path_factory, name
    ):
        # each sweep row is byte for byte a plain run: an iteration
        # budget above the converged count changes neither the artifacts
        # nor the hypothesis report
        _, rundir, manifest, _ = request.getfixturevalue(f"ex{name[-1]}_run")
        assert manifest["summary"]["iterations"] < 40
        out = tmp_path_factory.mktemp(f"{name}-sweep")
        code = main([
            "sweep", "--config", bundled_config_path(f"{name}.cfg"),
            "--out", str(out), "--param", "loop.n_max", "--values", "40,50",
        ])
        assert code == EXIT_OK
        inventory = manifest["artifacts"]
        assert len(inventory) == 6
        for n_max in (40, 50):
            rowdir = out / f"{name}-sweep" / f"loop.n_max={n_max}"
            for artifact in inventory:
                assert (rowdir / artifact).read_bytes() == (
                    rundir / artifact
                ).read_bytes(), (n_max, artifact)
            row = json.loads((rowdir / "manifest.json").read_text())
            # the row directory holds its config besides the run's
            # artifacts
            assert row["artifacts"].pop("config.cfg")
            assert row["artifacts"] == inventory
            assert row["hypothesis_report"] == manifest["hypothesis_report"]

    def test_blas_threads_do_not_change_artifacts(self, tmp_path):
        # the BLAS thread count splits large matrix products differently,
        # so no product whose rounding depends on it may reach an
        # artifact: example 2 under 1 and 2 BLAS threads writes the same
        # bytes
        hashes = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(_package_env(), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-m", "fracctrl.cli", "run", "--config",
                 bundled_config_path("example2.cfg"), "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode == EXIT_OK, done.stderr
            manifest = json.loads(
                (out / "example2" / "manifest.json").read_text()
            )
            hashes.append(manifest["artifacts"])
        assert len(hashes[0]) == 6
        assert hashes[0] == hashes[1]


class TestCriterion9Diagnostics:
    def test_zero_gain_hypothesis_violated(self, tmp_path):
        src = bundled_config_path("example1.cfg")
        with open(src) as fh:
            text = fh.read().replace("gain = 25.0", "gain = 0.0")
        # smaller basis keeps the diagnostic pass quick
        text = text.replace("mx = 20", "mx = 8").replace("my = 20",
                                                         "my = 8")
        path = tmp_path / "dead.cfg"
        path.write_text(text)
        assert main(["verify", "--config", str(path)]) == EXIT_HYPOTHESIS

    def test_example1_gram_and_a1(self):
        cfg = load_config(bundled_config_path("example1.cfg"))
        hyp = hypothesis_report(cfg.problem())
        assert hyp.gram_sigma_min > 0.0
        # as q -> 0 the kernel-norm integral reduces to the closed form
        # T^alpha / Gamma(alpha + 1)
        a1 = estimate_A1(cfg.basis, cfg.grid, cfg.alpha, q=1e-12)
        closed = cfg.grid.T**cfg.alpha / math.gamma(cfg.alpha + 1.0)
        assert abs(a1 - closed) <= 1e-2 * closed
