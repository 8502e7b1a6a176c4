"""Command-line runner: exit codes, artifacts, manifest, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracctrl
from fracctrl.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    main,
)
from fracctrl.config import bundled_config_path
from fracctrl.diagnostics import HypothesisReport
from fracctrl.mittag import MLEvaluationError

TINY = """
[problem]
alpha = 0.5
T = 1.0
f = none

[domain]
nx = 21
ny = 21
mx = 6
my = 6
K = 8

[actuator]
type = zonal
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

ARTIFACTS = (
    "control.dat", "gamma_profile.dat", "reached_omega.dat",
    "reached_full.dat", "iterations.dat", "summary.txt", "manifest.json",
)


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRun:
    def test_run_writes_artifacts(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", tiny_cfg, "--out", str(out)])
        assert code == EXIT_OK
        rundir = out / "tiny"
        for name in ARTIFACTS:
            assert (rundir / name).is_file(), name
        stdout = capsys.readouterr().out
        assert "status: converged" in stdout

    def test_manifest_checksums_match(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", tiny_cfg,
                     "--out", str(out)]) == EXIT_OK
        rundir = out / "tiny"
        manifest = json.loads((rundir / "manifest.json").read_text())
        assert manifest["summary"]["status"] == "converged"
        inventory = manifest["artifacts"]
        assert set(inventory) == set(ARTIFACTS) - {"manifest.json"}
        for name, digest in inventory.items():
            assert sha256(rundir / name) == digest, name

    def test_control_file_layout(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", tiny_cfg, "--out", str(out)])
        data = np.loadtxt(out / "tiny" / "control.dat")
        assert data.shape == (8, 2)  # K rows: t u
        assert np.allclose(data[:, 0], np.arange(8) * (1.0 / 8))

    def test_gamma_profile_reaches_target(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", tiny_cfg, "--out", str(out)])
        s, zd, reached = np.loadtxt(
            out / "tiny" / "gamma_profile.dat", unpack=True
        )
        assert np.all(zd == 1e-3)
        assert np.max(np.abs(reached - zd)) < 1e-2

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY.replace("alpha = 0.5", "alpha = 7.0"))
        code = main(["run", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @staticmethod
    def _config_error(tmp_path, capsys, verb, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        code = main([verb, "--config", str(path),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith("config error:")

    @pytest.mark.parametrize("verb", ["run", "verify"])
    def test_segment_without_nodes_exits_2(self, tmp_path, capsys, verb):
        self._config_error(tmp_path, capsys, verb, TINY.replace(
            "gamma = left 0.0 0.1", "gamma = left 0.013 0.017"))

    @pytest.mark.parametrize("verb", ["run", "verify"])
    def test_extension_off_the_edge_exits_2(self, tmp_path, capsys, verb):
        # omega_c does not touch Gamma's edge, so the default smoothstep
        # extension cannot start from Gamma
        self._config_error(tmp_path, capsys, verb, TINY.replace(
            "omega_c = 0.0 0.3 0.0 0.1", "omega_c = 0.3 0.6 0.0 0.1"))

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_env_var_output_root(self, tiny_cfg, tmp_path, monkeypatch):
        root = tmp_path / "envout"
        monkeypatch.setenv("FRACCTRL_OUT", str(root))
        assert main(["run", "--config", tiny_cfg]) == EXIT_OK
        assert (root / "tiny" / "summary.txt").is_file()

    def test_zero_target_trivial(self, tmp_path):
        path = tmp_path / "zero.cfg"
        path.write_text(TINY.replace("z_d = (0, 0, 1e-3)",
                                     "z_d = (0, 0, 0.0)"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path),
                     "--out", str(out)]) == EXIT_OK
        u = np.loadtxt(out / "zero" / "control.dat")[:, 1]
        assert np.all(u == 0.0)

    @pytest.mark.parametrize("method", ["picard", "linear"])
    def test_method_override(self, tiny_cfg, tmp_path, method):
        out = tmp_path / f"out-{method}"
        code = main(["run", "--config", tiny_cfg, "--out", str(out),
                     "--method", method])
        assert code == EXIT_OK
        manifest = json.loads(
            (out / "tiny" / "manifest.json").read_text()
        )
        assert manifest["method"] == method

    def test_threads_do_not_change_results(self, tiny_cfg, tmp_path):
        out1, out8 = tmp_path / "t1", tmp_path / "t8"
        assert main(["run", "--config", tiny_cfg, "--out", str(out1),
                     "--threads", "1"]) == EXIT_OK
        assert main(["run", "--config", tiny_cfg, "--out", str(out8),
                     "--threads", "8"]) == EXIT_OK
        inv = json.loads((out1 / "tiny" / "manifest.json").read_text())
        for name in inv["artifacts"]:
            assert (out1 / "tiny" / name).read_bytes() == (
                out8 / "tiny" / name
            ).read_bytes(), name


class TestLinearMethod:
    """--method linear is one residual-update iteration of algorithm1."""

    def _run(self, tmp_path, name, text):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out),
                     "--method", "linear"])
        return code, out / name

    def test_one_operator_per_run(self, tiny_cfg, tmp_path, monkeypatch):
        # the diagnostics and the loop share the run's operator, with its
        # SVD and Cholesky factor
        from fracctrl import control

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return assemble_H(*args, **kwargs)

        assemble_H = control.assemble_H
        monkeypatch.setattr(control, "assemble_H", counted)
        code, _ = self._run(tmp_path, "tiny", TINY)
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_gamma_target_mode(self, tmp_path):
        code, rundir = self._run(
            tmp_path, "gamma",
            TINY.replace("eps = 1e-2", "eps = 1e-2\ntarget_mode = gamma"),
        )
        assert code == EXIT_OK
        _, zd, reached = np.loadtxt(
            rundir / "gamma_profile.dat", unpack=True
        )
        assert np.max(np.abs(reached - zd)) < 1e-4

    def test_residual_above_eps_exits_3(self, tmp_path):
        code, rundir = self._run(
            tmp_path, "strict", TINY.replace("eps = 1e-2", "eps = 1e-12")
        )
        assert code == EXIT_DIVERGED
        summary = (rundir / "summary.txt").read_text()
        assert "status: max-iterations" in summary

    def test_initial_state_is_used(self, tmp_path):
        # y0 already equals the constant boundary target and Neumann
        # diffusion keeps it there, so the control has nothing left to do
        text = TINY.replace("eps = 1e-2", "eps = 1e-2\ntarget_mode = gamma")
        code0, dir0 = self._run(tmp_path, "zero", text)
        code1, dir1 = self._run(
            tmp_path, "held", text + "\n[initial]\ny0 = (0, 0, 1e-3)\n"
        )
        assert code0 == code1 == EXIT_OK
        u0 = np.loadtxt(dir0 / "control.dat")[:, 1]
        u1 = np.loadtxt(dir1 / "control.dat")[:, 1]
        assert np.max(np.abs(u1)) < 1e-3 * np.max(np.abs(u0))


class TestNumericalFailure:
    def test_singular_gram_exits_3(self, tmp_path, capsys):
        # a dead actuator with the trace-scaled default regularization
        # leaves the Gram matrix identically zero
        path = tmp_path / "dead.cfg"
        path.write_text(
            TINY.replace("gain = 1.0", "gain = 0.0")
            .replace("lambda_reg = 1e-8\n", "")
        )
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "Gram" in err[0]
        assert "status: failed" in (out / "dead" / "summary.txt").read_text()
        manifest = json.loads((out / "dead" / "manifest.json").read_text())
        assert manifest["summary"]["status"] == "failed"

    def test_verify_ml_failure_exits_3(self, tiny_cfg, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise MLEvaluationError(0.5, 1.0, -1.0, "no convergent branch")

        monkeypatch.setattr("fracctrl.cli.hypothesis_report", fail)
        assert main(["verify", "--config", tiny_cfg]) == EXIT_DIVERGED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "did not converge" in err[0]


    @pytest.mark.parametrize("verb", ["run", "verify"])
    def test_unsettled_a1_envelope_exits_3(self, tmp_path, monkeypatch,
                                           capsys, verb):
        # with 8x8 modes at alpha = 0.3 the A1 envelope needs two rounds
        path = tmp_path / "wide.cfg"
        path.write_text(
            TINY.replace("alpha = 0.5", "alpha = 0.3")
            .replace("mx = 6", "mx = 8").replace("my = 6", "my = 8")
        )
        monkeypatch.setattr("fracctrl.diagnostics._ENVELOPE_ROUNDS", 1)
        code = main([verb, "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "envelope" in err[0]


def _package_env():
    """Environment for a child interpreter that imports this fracctrl."""
    src = str(Path(fracctrl.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: scipy serves the tests and the
    # L1 cross-check solver, and would add to every start-up
    probe = ("import sys, fracctrl.cli, fracctrl.config; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=_package_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_run_without_scipy(tmp_path):
    # an installation without scipy still runs a bundled example, to the
    # same result
    cfg = bundled_config_path("example2.cfg")
    assert main(["run", "--config", cfg, "--out",
                 str(tmp_path / "in")]) == EXIT_OK
    probe = ("import sys; sys.modules['scipy'] = None; "
             "from fracctrl.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-c", probe, "run", "--config", cfg,
         "--out", str(tmp_path / "out")],
        env=_package_env(), capture_output=True, text=True,
    )
    assert done.returncode == EXIT_OK, done.stderr

    def status_and_iterations(root):
        lines = (root / "example2" / "summary.txt").read_text().splitlines()
        return [ln for ln in lines if ln.split(":")[0] in
                ("status", "iterations")]

    expect = status_and_iterations(tmp_path / "in")
    assert len(expect) == 2
    assert status_and_iterations(tmp_path / "out") == expect


class TestVerify:
    def test_verify_ok(self, tiny_cfg, capsys):
        code = main(["verify", "--config", tiny_cfg])
        assert code == EXIT_OK
        assert "controllability" in capsys.readouterr().out

    def test_zero_gain_violated(self, tmp_path):
        path = tmp_path / "dead.cfg"
        path.write_text(TINY.replace("gain = 1.0", "gain = 0.0"))
        assert main(["verify", "--config", str(path)]) == EXIT_HYPOTHESIS

    def test_constants_match_run_manifest(self, tmp_path, capsys):
        # F != 0, so the constants depend on the F_N sample count
        path = tmp_path / "square.cfg"
        path.write_text(TINY.replace("f = none", "f = square"))
        out = tmp_path / "out"
        main(["run", "--config", str(path), "--out", str(out),
              "--method", "linear"])
        manifest = json.loads(
            (out / "square" / "manifest.json").read_text()
        )
        capsys.readouterr()
        main(["verify", "--config", str(path)])
        printed = capsys.readouterr().out.strip()
        hyp = HypothesisReport(**manifest["hypothesis_report"])
        assert printed == hyp.to_text()


class TestSweep:
    def test_sweep_rows_and_table(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", tiny_cfg, "--out", str(out),
            "--param", "domain.K", "--values", "8,10", "--threads", "2",
        ])
        assert code == EXIT_OK
        table = (out / "tiny-sweep" / "sweep.dat").read_text().splitlines()
        assert table[0].startswith("# domain.K")
        assert len(table) == 3
        assert table[1].split()[0] == "8"
        assert table[2].split()[0] == "10"
        for v in ("8", "10"):
            assert (out / "tiny-sweep" / f"domain.K={v}"
                    / "summary.txt").is_file()

    def test_overrides_reach_manifest(self, tiny_cfg, tmp_path):
        out = tmp_path / "out"
        main(["sweep", "--config", tiny_cfg, "--out", str(out),
              "--param", "domain.K", "--values", "8",
              "--method", "picard", "--seed", "7"])
        manifest = json.loads(
            (out / "tiny-sweep" / "domain.K=8" / "manifest.json").read_text()
        )
        assert manifest["method"] == "picard"
        assert manifest["seed"] == 7
        assert manifest["resolved_config"]["loop.method"] == "picard"
        assert manifest["resolved_config"]["run.seed"] == 7

    def test_sweep_requires_param(self, tiny_cfg, tmp_path):
        code = main(["sweep", "--config", tiny_cfg,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
