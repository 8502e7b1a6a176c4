"""Command-line runner: exit codes, artifacts, manifest, determinism."""

import ast
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
from fracctrl.config import bundled_config_path, load_config
from fracctrl.control import ControlSignal, boundary_error
from fracctrl.diagnostics import HypothesisReport
from fracctrl.domain import restrict
from fracctrl.mittag import MLEvaluationError
from fracctrl.solver import solve_semilinear

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


def _out_flag(verb, out):
    """The --out option for the verbs that write files; verify takes none."""
    return [] if verb == "verify" else ["--out", str(out)]


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

    def test_failed_rerun_lists_no_earlier_artifacts(self, tiny_cfg,
                                                     tmp_path):
        # a run that stops without a result, in the directory of an
        # earlier converged run, leaves none of that run's artifacts on
        # disk or in its manifest; a file no run writes stays listed
        out = tmp_path / "out"
        rundir = out / "tiny"
        assert main(["run", "--config", tiny_cfg,
                     "--out", str(out)]) == EXIT_OK
        (rundir / "notes.txt").write_text("kept\n")
        Path(tiny_cfg).write_text(
            TINY.replace("f_coeff = 0", "f_coeff = 1")
            .replace("z_d = (0, 0, 1e-3)", "z_d = (0, 0, 1e9)")
        )
        assert main(["run", "--config", tiny_cfg, "--out", str(out),
                     "--method", "picard"]) == EXIT_DIVERGED
        manifest = json.loads((rundir / "manifest.json").read_text())
        assert manifest["summary"]["status"] == "diverged"
        assert set(manifest["artifacts"]) == {"notes.txt", "summary.txt"}
        assert sorted(p.name for p in rundir.iterdir()) == [
            "manifest.json", "notes.txt", "summary.txt"]

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
                     *_out_flag(verb, tmp_path / "o")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith("config error:")
        return err[0]

    @pytest.mark.parametrize("old, new, key", [
        ("gain = 1.0", "gain = nan", "[actuator] gain"),
        ("f_coeff = 0", "f_coeff = inf", "[problem] f_coeff"),
        ("T = 1.0", "T = inf", "[problem] T"),
        ("lambda_reg = 1e-8", "lambda_reg = -inf", "[loop] lambda_reg"),
        ("box = 0.0 0.2 0.2 0.4", "box = 0.0 0.2 0.2 inf",
         "[actuator] box"),
        ("gamma = left 0.0 0.1", "gamma = left 0.0 nan", "[regions] gamma"),
        ("z_d = (0, 0, 1e-3)", "z_d = (0, 0, 1e999)", "[target] z_d"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, old, new,
                                       key):
        assert old in TINY
        line = self._config_error(tmp_path, capsys, "run",
                                  TINY.replace(old, new))
        assert key in line and "finite" in line

    def test_d_s_with_extension_profile_exits_2(self, tmp_path, capsys):
        # the extension decays by smoothstep; no key selects a profile,
        # with d_s given or not
        line = self._config_error(tmp_path, capsys, "run", TINY.replace(
            "z_d = (0, 0, 1e-3)",
            "z_d = (0, 0, 1e-3)\nd_s = (0, 0, 1e-3)\n"
            "extension_profile = 1.0 -2.0 1.0"))
        assert "[target] extension_profile" in line
        assert line.endswith("unknown key")

    @pytest.mark.parametrize("verb", ["run", "verify"])
    def test_segment_without_nodes_exits_2(self, tmp_path, capsys, verb):
        self._config_error(tmp_path, capsys, verb, TINY.replace(
            "gamma = left 0.0 0.1", "gamma = left 0.013 0.017"))

    @pytest.mark.parametrize("verb", ["run", "verify"])
    def test_extension_off_the_edge_exits_2(self, tmp_path, capsys, verb):
        # omega_c does not touch Gamma's edge, so the default smoothstep
        # extension cannot start from Gamma
        line = self._config_error(tmp_path, capsys, verb, TINY.replace(
            "omega_c = 0.0 0.3 0.0 0.1", "omega_c = 0.3 0.6 0.0 0.1"))
        assert "[regions] -" in line

    @pytest.mark.parametrize("verb", ["run", "verify"])
    @pytest.mark.parametrize("name", ["tiny-right", "tiny-longer",
                                      "example1-right"])
    def test_gamma_off_the_edge_exits_2(self, tmp_path, capsys, verb, name):
        # Gamma lies on omega_c's boundary edge also when d_s is given: a
        # d_s whose trace matches z_d does not make a region that misses
        # Gamma a boundary-control problem on Gamma
        if name.startswith("tiny"):
            side = {"tiny-right": "right 0.0 0.1",
                    "tiny-longer": "left 0.0 0.5"}[name]
            text = TINY.replace("gamma = left 0.0 0.1", f"gamma = {side}")
            text = text.replace("z_d = (0, 0, 1e-3)",
                                "z_d = (0, 0, 1e-3)\nd_s = (0, 0, 1e-3)")
        else:
            text = Path(bundled_config_path("example1.cfg")).read_text()
            head, _, tail = text.partition("d_s = ")
            text = (head.replace("gamma = left", "gamma = right")
                    + "d_s = (0, 3, 7.0) (0, 2, -13.0) (0, 0, 3.0)\n\n"
                    + tail[tail.index("[loop]"):])
        line = self._config_error(tmp_path, capsys, verb, text)
        assert "[regions] -" in line
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_output_root_without_out_is_runs(self, tiny_cfg, tmp_path,
                                             monkeypatch):
        # --out alone names the output root; no environment variable does
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("FRACCTRL_OUT", str(tmp_path / "envout"))
        assert main(["run", "--config", tiny_cfg]) == EXIT_OK
        assert (tmp_path / "runs" / "tiny" / "summary.txt").is_file()
        assert not (tmp_path / "envout").exists()

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_output_root_is_a_file(self, tiny_cfg, tmp_path, capsys, verb):
        out = tmp_path / "file"
        out.write_text("")
        argv = [verb, "--config", tiny_cfg, "--out", str(out)]
        if verb == "sweep":
            argv += ["--param", "run.seed", "--values", "0"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("output error:")

    def test_zero_target_trivial(self, tmp_path):
        path = tmp_path / "zero.cfg"
        path.write_text(TINY.replace("z_d = (0, 0, 1e-3)",
                                     "z_d = (0, 0, 0.0)"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path),
                     "--out", str(out)]) == EXIT_OK
        u = np.loadtxt(out / "zero" / "control.dat")[:, 1]
        assert np.all(u == 0.0)

    @pytest.mark.parametrize("method", ["picard"])
    def test_method_override(self, tiny_cfg, tmp_path, method):
        out = tmp_path / f"out-{method}"
        code = main(["run", "--config", tiny_cfg, "--out", str(out),
                     "--method", method])
        assert code == EXIT_OK
        manifest = json.loads(
            (out / "tiny" / "manifest.json").read_text()
        )
        assert manifest["resolved_config"]["loop.method"] == method

    @pytest.mark.parametrize("method", ["algorithm1", "picard"])
    def test_manifest_records_each_setting_once(self, tiny_cfg, tmp_path,
                                                method):
        # the resolved view alone records the method and the seed, and no
        # computation reads the seed: --seed 7 writes the plain run's
        # bytes
        plain, seeded = tmp_path / "plain", tmp_path / "seeded"
        for out, seed in ((plain, 0), (seeded, 7)):
            assert main(["run", "--config", tiny_cfg, "--out", str(out),
                         "--method", method,
                         *(["--seed", str(seed)] if seed else [])]
                        ) == EXIT_OK
            manifest = json.loads(
                (out / "tiny" / "manifest.json").read_text())
            assert not {"method", "seed"} & set(manifest)
            view = manifest["resolved_config"]
            assert (view["loop.method"], view["run.seed"]) == (method, seed)
        assert len(manifest["artifacts"]) == 6
        for name in manifest["artifacts"]:
            assert (seeded / "tiny" / name).read_bytes() == (
                plain / "tiny" / name).read_bytes(), name

    def test_linear_is_no_method_option(self, tiny_cfg, tmp_path, capsys):
        # one residual-update iteration of algorithm1 is n_max = 1
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", tiny_cfg, "--out", str(tmp_path / "o"),
                  "--method", "linear"])
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "argument --method: invalid choice: 'linear'" in err
        assert not (tmp_path / "o").exists()

    def test_zero_initial_state_runs_picard(self, tmp_path):
        # y0 = zero, the key's default written out, is the state the
        # fixed-point sequence requires
        path = tmp_path / "zero.cfg"
        path.write_text(TINY + "\n[initial]\ny0 = zero\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out),
                     "--method", "picard"]) == EXIT_OK
        manifest = json.loads((out / "zero" / "manifest.json").read_text())
        assert manifest["resolved_config"]["loop.method"] == "picard"
        assert manifest["resolved_config"]["initial.y0"] == "zero"

    @pytest.mark.parametrize("verb", ["run", "verify", "sweep"])
    def test_threads_is_no_option(self, tiny_cfg, tmp_path, capsys, verb):
        # sweep rows run one after another: no verb takes a thread count
        sweep = ["--param", "run.seed", "--values", "0,1"]
        with pytest.raises(SystemExit) as exc:
            main([verb, "--config", tiny_cfg, *_out_flag(verb, tmp_path),
                  *(sweep if verb == "sweep" else []), "--threads", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--out", "o"],
                                      ["--method", "picard"],
                                      ["--seed", "0"]],
                             ids=["out", "method", "seed"])
    def test_verify_takes_no_run_flags(self, tiny_cfg, tmp_path,
                                       monkeypatch, flag):
        # verify writes no file, runs no loop and draws nothing
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", tiny_cfg, *flag])
        assert exc.value.code == EXIT_CONFIG
        assert list(cwd.iterdir()) == []


def test_run_factors_the_operator_once(tiny_cfg, tmp_path, monkeypatch):
    # the diagnostics and every pseudo-inverse read one thin SVD of the
    # reachability matrix; no other factorization or linear solve runs
    calls = []
    for name in ("svd", "cholesky", "solve", "eigvalsh", "eigh", "lstsq",
                 "inv", "qr"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    code = main(["run", "--config", tiny_cfg, "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert calls == ["svd"]


def test_picard_last_diff_is_the_stopping_one(tiny_cfg, tmp_path,
                                              monkeypatch):
    # iterations.dat row n prints control_diffs[n]: for the fixed-point
    # sequence, the diff that stopped the loop is on the last row
    from fracctrl import cli

    reports = []

    def recorded(problem):
        u, traj, report = picard(problem)
        reports.append(report)
        return u, traj, report

    picard = cli.picard_sequence
    monkeypatch.setattr(cli, "picard_sequence", recorded)
    code = main(["run", "--config", tiny_cfg, "--out", str(tmp_path),
                 "--method", "picard"])
    assert code == EXIT_OK
    (report,) = reports
    rows = np.loadtxt(tmp_path / "tiny" / "iterations.dat", ndmin=2)
    assert rows.shape[0] == report.iterations >= 2
    assert list(rows[:, 4]) == report.control_diffs
    assert rows[-1, 4] <= 1e-2  # eps of TINY


class TestConfigErrors:
    """A config file that cannot be used exits 2 with one stderr line."""

    def _one_line(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        return err[0]

    def test_unparsable_file(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY.replace("alpha = 0.5", "alpha 0.5"))
        line = self._one_line(
            ["run", "--config", str(path), "--out", str(tmp_path)], capsys
        )
        assert "alpha 0.5" in line

    def test_misspelt_key(self, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text(TINY.replace("lambda_reg", "lamda_reg"))
        line = self._one_line(
            ["run", "--config", str(path), "--out", str(tmp_path)], capsys
        )
        assert "[loop] lamda_reg: unknown key" in line

    def test_sweep_param_without_section(self, tiny_cfg, tmp_path, capsys):
        self._one_line(
            ["sweep", "--config", tiny_cfg, "--out", str(tmp_path),
             "--param", "K", "--values", "8,16"], capsys,
        )

    def test_sweep_unknown_key(self, tiny_cfg, tmp_path, capsys):
        line = self._one_line(
            ["sweep", "--config", tiny_cfg, "--out", str(tmp_path),
             "--param", "domain.k_steps", "--values", "8,16"], capsys,
        )
        assert "[domain] k_steps: unknown key" in line

    @pytest.mark.parametrize("where", ["option", "file", "sweep"])
    def test_picard_with_initial_state(self, tmp_path, capsys, where):
        # the fixed-point sequence is defined for y0 = 0 only
        text = TINY + "\n[initial]\ny0 = (0, 0, 0.01)\n"
        if where == "file":
            text = text.replace("eps = 1e-2", "eps = 1e-2\nmethod = picard")
        path = tmp_path / "y0.cfg"
        path.write_text(text)
        argv = {
            "option": ["run", "--method", "picard"],
            "file": ["run"],
            "sweep": ["sweep", "--param", "loop.method",
                      "--values", "picard"],
        }[where] + ["--config", str(path), "--out", str(tmp_path / "o")]
        line = self._one_line(argv, capsys)
        assert "[loop] method" in line and "y0" in line

    def test_sweep_value_with_percent(self, tiny_cfg, tmp_path, capsys):
        # a sweep value is written and read back as it was given
        line = self._one_line(
            ["sweep", "--config", tiny_cfg, "--out", str(tmp_path),
             "--param", "run.seed", "--values", "5%"], capsys,
        )
        assert "[run] seed" in line

    def test_sweep_checks_every_row_before_running(self, tmp_path, capsys):
        # the picard row's config is invalid: the algorithm1 row before it
        # does not run either
        path = tmp_path / "y0.cfg"
        path.write_text(TINY + "\n[initial]\ny0 = (0, 0, 0.01)\n")
        out = tmp_path / "o"
        line = self._one_line(
            ["sweep", "--param", "loop.method",
             "--values", "algorithm1,picard", "--config", str(path),
             "--out", str(out)], capsys,
        )
        assert "[loop] method" in line and "y0" in line
        assert not out.exists()

    def test_sweep_row_value_error_names_the_given_config(self, tiny_cfg,
                                                          tmp_path, capsys):
        # the second row's T does not parse: the line names the file the
        # user gave, and not even the first row's directory is made
        out = tmp_path / "o"
        line = self._one_line(
            ["sweep", "--config", tiny_cfg, "--out", str(out),
             "--param", "problem.T", "--values", "3.0,1/2"], capsys,
        )
        assert line.startswith(f"config error: {tiny_cfg}: [problem] T:")
        assert not out.exists()


class TestLinearMethod:
    """n_max = 1 is one residual-update iteration of algorithm1."""

    def _run(self, tmp_path, name, text):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text.replace("[loop]\n", "[loop]\nn_max = 1\n"))
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out)])
        return code, out / name

    def test_one_operator_per_run(self, tiny_cfg, tmp_path, monkeypatch):
        # the diagnostics and the loop share the run's operator, with its
        # SVD
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
        # omega_c half a node wide on Gamma's edge: H aims at z_d on Gamma
        code, rundir = self._run(tmp_path, "gamma", NARROW)
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
        code0, dir0 = self._run(tmp_path, "zero", NARROW)
        code1, dir1 = self._run(
            tmp_path, "held", NARROW + "\n[initial]\ny0 = (0, 0, 1e-3)\n"
        )
        assert code0 == code1 == EXIT_OK
        u0 = np.loadtxt(dir0 / "control.dat")[:, 1]
        u1 = np.loadtxt(dir1 / "control.dat")[:, 1]
        assert np.max(np.abs(u1)) < 1e-3 * np.max(np.abs(u0))


class TestManifestLambda:
    """An omitted lambda_reg is recorded as the trace-scaled lambda the
    run used, not as the negative default that selects it."""

    @staticmethod
    def _run(tmp_path):
        path = tmp_path / "auto.cfg"
        path.write_text(TINY.replace("lambda_reg = 1e-8\n", ""))
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out)])
        manifest = json.loads((out / "auto" / "manifest.json").read_text())
        return path, code, manifest["resolved_config"]["loop.lambda_reg"]

    def test_records_the_operators_lambda(self, tmp_path):
        path, code, recorded = self._run(tmp_path)
        assert code == EXIT_OK
        want = load_config(str(path)).operator().lambda_reg
        assert want > 0.0
        assert recorded == want

    def test_null_when_no_operator_was_assembled(self, tmp_path,
                                                 monkeypatch):
        def fail(*args, **kwargs):
            raise MLEvaluationError(0.5, 1.0, -1.0, "no convergent branch")

        monkeypatch.setattr("fracctrl.cli.hypothesis_report", fail)
        _, code, recorded = self._run(tmp_path)
        assert code == EXIT_DIVERGED
        assert recorded is None


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
        summary = (out / "dead" / "summary.txt").read_text().splitlines()
        assert "status: failed" in summary
        manifest = json.loads((out / "dead" / "manifest.json").read_text())
        assert manifest["summary"]["status"] == "failed"
        # summary.txt names the field as stdout and the manifest do
        assert f"error: {manifest['summary']['error']}" in summary

    def test_picard_without_an_iteration_exits_3(self, tmp_path, capsys):
        # the first fixed-point control, pinv(d_s), drives the state out of
        # the solver's contraction regime, so no report row is completed
        path = tmp_path / "far.cfg"
        path.write_text(
            TINY.replace("f_coeff = 0", "f_coeff = 1")
            .replace("z_d = (0, 0, 1e-3)", "z_d = (0, 0, 1e9)")
        )
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out),
                     "--method", "picard"])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("diverged: state blew up")
        manifest = json.loads((out / "far" / "manifest.json").read_text())
        assert manifest["summary"]["status"] == "diverged"

    def test_verify_ml_failure_exits_3(self, tiny_cfg, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise MLEvaluationError(0.5, 1.0, -1.0, "no convergent branch")

        monkeypatch.setattr("fracctrl.cli.hypothesis_report", fail)
        assert main(["verify", "--config", tiny_cfg]) == EXIT_DIVERGED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "did not converge" in err[0]


    @pytest.mark.parametrize("verb", ["run", "verify"])
    def test_a1_ml_failure_exits_3(self, tiny_cfg, tmp_path, monkeypatch,
                                   capsys, verb):
        # a failure inside the hypothesis report, the first step of run
        def fail(*args, **kwargs):
            raise MLEvaluationError(0.5, 0.5, -1.0, "no convergent branch")

        monkeypatch.setattr("fracctrl.diagnostics.ml", fail)
        out = tmp_path / "o"
        code = main([verb, "--config", tiny_cfg, *_out_flag(verb, out)])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "did not converge" in err[0]
        if verb == "run":
            summary = (out / "tiny" / "summary.txt").read_text()
            assert "status: failed" in summary.splitlines()
            manifest = json.loads((out / "tiny" / "manifest.json").read_text())
            assert manifest["summary"]["status"] == "failed"

    def test_overflowing_residual_exits_3(self, tmp_path, capsys):
        # with y0 = 1e200 every residual's norm overflows to inf, so no
        # iteration improves on the last; the first one counts as
        # divergence and its control is the one returned and written
        text = Path(bundled_config_path("example2.cfg")).read_text()
        path = tmp_path / "huge.cfg"
        path.write_text(
            text.replace("[problem]\n", "[problem]\nf_coeff = 0\n")
            .replace("n_max = 50", "n_max = 3")
            + "\n[initial]\ny0 = (0, 0, 1e200)\n"
        )
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == EXIT_DIVERGED
        assert "status: diverged" in capsys.readouterr().out
        summary = (out / "huge" / "summary.txt").read_text().splitlines()
        assert summary[:3] == ["status: diverged", "iterations: 1",
                               "boundary_error: inf"]
        rows = np.loadtxt(out / "huge" / "iterations.dat", ndmin=2)
        assert rows.shape == (1, 5) and rows[0, 1] == np.inf
        control = np.loadtxt(out / "huge" / "control.dat")
        assert np.all(np.isfinite(control))


def test_summary_describes_the_written_control(tmp_path, capsys):
    # the residual grows at every row, so the loop stops at n_max and
    # returns its first row's control: the summary must describe that
    # control, not the last row
    path = tmp_path / "grow.cfg"
    path.write_text(
        TINY.replace("f_coeff = 0", "f_coeff = 1")
        .replace("z_d = (0, 0, 1e-3)", "z_d = (0, 0, 1.0)") + "n_max = 3\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == (
        EXIT_DIVERGED)
    rundir = out / "grow"
    rows = np.loadtxt(rundir / "iterations.dat", ndmin=2)
    assert rows.shape[0] == 3 and np.argmin(rows[:, 1]) != 2
    problem = load_config(str(path)).problem()
    u = ControlSignal(np.loadtxt(rundir / "control.dat")[:, 1],
                      problem.grid)
    traj = solve_semilinear(problem.y0, u.values, problem.F, problem.act,
                            problem.basis, problem.grid, problem.alpha)
    reached = restrict(traj.final_field(), problem.omega_c).values.ravel()
    want = {
        "boundary_error": boundary_error(traj, problem.zd, problem.gamma),
        "residual": problem.operator().target_norm(
            problem.d_s.values.ravel() - reached),
        "cost": u.cost(),
    }
    lines = (rundir / "summary.txt").read_text().splitlines()
    manifest = json.loads((rundir / "manifest.json").read_text())
    for key, value in want.items():
        written = float(next(line for line in lines
                             if line.startswith(f"{key}: ")).split()[1])
        assert written == pytest.approx(value, rel=1e-12)
        assert manifest["summary"][key] == written


@pytest.mark.parametrize("status,text,flags", [
    ("converged", TINY, []),
    ("max-iterations",
     TINY.replace("eps = 1e-2", "eps = 1e-12") + "n_max = 1\n", []),
    # every residual's norm overflows, so the first row counts as
    # divergence
    ("diverged", TINY + "n_max = 3\n\n[initial]\ny0 = (0, 0, 1e200)\n", []),
    # the first fixed-point control blows the state up: no row completes
    ("diverged", TINY.replace("f_coeff = 0", "f_coeff = 1")
     .replace("z_d = (0, 0, 1e-3)", "z_d = (0, 0, 1e9)"),
     ["--method", "picard"]),
    # a dead actuator leaves the Gram matrix identically zero
    ("failed", TINY.replace("gain = 1.0", "gain = 0.0")
     .replace("lambda_reg = 1e-8\n", ""), []),
], ids=["converged", "max-iterations", "diverged", "diverged-no-row",
        "failed"])
def test_summary_is_the_same_in_every_place(tmp_path, capsys, status, text,
                                            flags):
    # stdout's lines before its artifacts line are summary.txt, and the
    # manifest's summary holds the same keys (sorted, as the manifest
    # sorts every key) with the same values
    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out), *flags])
    assert code == (EXIT_OK if status == "converged" else EXIT_DIVERGED)
    lines = (out / "run" / "summary.txt").read_text().splitlines()
    assert lines[0] == f"status: {status}"
    printed = capsys.readouterr().out.splitlines()
    assert printed == lines + [f"artifacts: {out / 'run'}"]
    summary = json.loads((out / "run" / "manifest.json").read_text())[
        "summary"]
    keys = [line.split(": ", 1)[0] for line in lines]
    assert list(summary) == sorted(keys)
    assert [f"{k}: {summary[k]}" for k in keys] == lines


def _package_env():
    """Environment for a child interpreter that imports this fracctrl."""
    src = str(Path(fracctrl.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: scipy serves the tests (the
    # Mittag-Leffler and L1 oracles), and would add to every start-up.
    # No module of the package imports it, at the top or inside a function
    for path in Path(fracctrl.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(n.split(".")[0] != "scipy" for n in names), path
    probe = ("import sys, fracctrl.cli, fracctrl.config; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=_package_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_openssl():
    # hashlib's OpenSSL backend (3.6 MB resident) serves only the
    # manifest's digests, and is imported when the manifest is written
    probe = "import sys, fracctrl.cli; print('_hashlib' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe],
                          env=_package_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_import_loads_no_importlib_resources():
    # importlib.resources serves only `bundled_config_path`, which no run
    # calls.  `site` can preload it through a .pth file, so the child runs
    # without `site` (-S), with numpy's install directory on its path
    env = _package_env()
    env["PYTHONPATH"] = os.pathsep.join(
        (env["PYTHONPATH"], str(Path(np.__file__).resolve().parents[1])))
    probe = ("import sys, fracctrl.cli; "
             "print('importlib.resources' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_keeps_the_callers_openblas_threads():
    # the caller's OpenBLAS thread count reaches the CLI's process as set
    env = dict(_package_env(), OPENBLAS_NUM_THREADS="2")
    probe = ("import os, fracctrl.config; "
             "before = os.environ.get('OPENBLAS_NUM_THREADS'); "
             "import fracctrl.cli; "
             "print(before, os.environ.get('OPENBLAS_NUM_THREADS'))")
    done = subprocess.run([sys.executable, "-c", probe],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "2 2"


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


def test_run_loads_no_masked_arrays_or_thread_pool(tmp_path):
    # `np.unique` without `return_inverse` imports numpy.ma, and
    # concurrent.futures imports logging: a run needs neither
    probe = ("import sys; from fracctrl.cli import main; "
             "code = main(sys.argv[1:]); "
             "print(sorted(m for m in ('numpy.ma', 'concurrent.futures') "
             "if m in sys.modules)); sys.exit(code)")
    done = subprocess.run(
        [sys.executable, "-c", probe, "run", "--config",
         bundled_config_path("example2.cfg"), "--out", str(tmp_path)],
        env=_package_env(), capture_output=True, text=True,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv, gain, code, written", [
    (["run"], "1.0", EXIT_OK, "tiny/manifest.json"),
    (["verify"], "0.0", EXIT_HYPOTHESIS, None),
    (["sweep", "--param", "run.seed", "--values", "0,1"], "1.0", EXIT_OK,
     "tiny-sweep/sweep.dat"),
], ids=["run", "verify", "sweep"])
def test_closed_stdout_keeps_exit_code(tmp_path, argv, gain, code, written):
    # a reader that stops early (`fracctrl verify ... | head`): the pipe's
    # read end is closed before the child starts, so its first write to
    # stdout fails; the verb still finishes and exits with its own code
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY.replace("gain = 1.0", f"gain = {gain}"))
    out = tmp_path / "out"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "fracctrl.cli", *argv,
             "--config", str(cfg), *_out_flag(argv[0], out)],
            env=_package_env(), stdout=write_end, stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert done.stderr == ""
    if written:
        assert (out / written).is_file()


class TestVerify:
    def test_verify_ok(self, tiny_cfg, capsys):
        code = main(["verify", "--config", tiny_cfg])
        assert code == EXIT_OK
        assert "controllability" in capsys.readouterr().out

    def test_verify_ok_at_alpha_0_1(self, tmp_path):
        # here the series' 399-term budget, not its cancellation, sets
        # how far it serves the kernel tables
        path = tmp_path / "slow.cfg"
        path.write_text(TINY.replace("alpha = 0.5", "alpha = 0.1"))
        assert main(["verify", "--config", str(path)]) == EXIT_OK

    def test_zero_gain_violated(self, tmp_path):
        path = tmp_path / "dead.cfg"
        path.write_text(TINY.replace("gain = 1.0", "gain = 0.0"))
        assert main(["verify", "--config", str(path)]) == EXIT_HYPOTHESIS

    def test_constants_match_run_manifest(self, tmp_path, capsys):
        # F != 0, so the constants depend on the Lipschitz bracket
        path = tmp_path / "square.cfg"
        path.write_text(TINY.replace("f_coeff = 0", "f_coeff = 1")
                        + "n_max = 1\n")
        out = tmp_path / "out"
        main(["run", "--config", str(path), "--out", str(out)])
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
            "--param", "domain.K", "--values", "8,10",
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

    def test_overrides_reach_manifest(self, tmp_path):
        # a row is the file with its --param value set: the resolved
        # view records the file's method and the row's seed
        path = tmp_path / "tiny.cfg"
        path.write_text(TINY + "method = picard\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--param", "run.seed", "--values", "7"]) == EXIT_OK
        manifest = json.loads(
            (out / "tiny-sweep" / "run.seed=7" / "manifest.json").read_text()
        )
        # the row records the file given; its value is in the resolved view
        assert manifest["config_path"] == str(path)
        assert manifest["resolved_config"]["domain.K"] == 8
        assert manifest["resolved_config"]["loop.method"] == "picard"
        assert manifest["resolved_config"]["run.seed"] == 7

    @pytest.mark.parametrize("flag", [["--seed", "1"],
                                      ["--method", "picard"]],
                             ids=["seed", "method"])
    def test_sweep_takes_no_seed_or_method(self, tiny_cfg, tmp_path,
                                           capsys, flag):
        # a row sets only its --param; any other setting is in the file
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", tiny_cfg, "--out", str(out),
                  "--param", "domain.K", "--values", "8", *flag])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_row_config_is_the_run(self, tmp_path):
        # a row's config.cfg records the file and the row's value: a run
        # of it writes the row's artifacts byte for byte
        path = tmp_path / "tiny.cfg"
        path.write_text(TINY + "method = picard\n")
        out, rerun = tmp_path / "out", tmp_path / "rerun"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--param", "domain.K", "--values", "10"]) == EXIT_OK
        rowdir = out / "tiny-sweep" / "domain.K=10"
        assert main(["run", "--config", str(rowdir / "config.cfg"),
                     "--out", str(rerun)]) == EXIT_OK
        row = json.loads((rowdir / "manifest.json").read_text())
        run = json.loads((rerun / "config" / "manifest.json").read_text())
        assert len(run["artifacts"]) == 6
        assert row["artifacts"] == {
            **run["artifacts"], "config.cfg": sha256(rowdir / "config.cfg")}
        assert run["resolved_config"] == row["resolved_config"]
        assert run["resolved_config"]["loop.method"] == "picard"
        assert run["resolved_config"]["domain.K"] == 10

    def test_rows_write_the_plain_run_bytes(self, tiny_cfg, tmp_path):
        # TINY converges in one iteration, so an iteration budget above
        # that changes nothing: each row is byte for byte a plain run
        plain, out = tmp_path / "plain", tmp_path / "out"
        assert main(["run", "--config", tiny_cfg,
                     "--out", str(plain)]) == EXIT_OK
        assert main(["sweep", "--config", tiny_cfg, "--out", str(out),
                     "--param", "loop.n_max", "--values", "40,50"]
                    ) == EXIT_OK
        inv = json.loads((plain / "tiny" / "manifest.json").read_text())
        assert len(inv["artifacts"]) == 6
        summary = (plain / "tiny" / "summary.txt").read_text()
        assert "iterations: 1\n" in summary
        for n_max in (40, 50):
            rowdir = out / "tiny-sweep" / f"loop.n_max={n_max}"
            for name in inv["artifacts"]:
                assert (rowdir / name).read_bytes() == (
                    plain / "tiny" / name
                ).read_bytes(), (n_max, name)

    def test_sweep_requires_param(self, tiny_cfg, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", tiny_cfg,
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_CONFIG

    def test_repeated_value_exits_2(self, tiny_cfg, tmp_path, capsys):
        # two rows with one value would share one row directory
        out = tmp_path / "out"
        code = main(["sweep", "--config", tiny_cfg, "--out", str(out),
                     "--param", "run.seed", "--values", "0,0"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "repeats" in err[0]
        assert not out.exists()

    def test_values_are_stripped(self, tiny_cfg, tmp_path, capsys):
        # as configparser strips a file value: "40, 40" repeats a value,
        # and "0, 1" names its rows by the stripped values
        out = tmp_path / "out"
        assert main(["sweep", "--config", tiny_cfg, "--out", str(out),
                     "--param", "loop.n_max", "--values", "40, 40"]
                    ) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "repeats" in err[0]
        assert not out.exists()
        assert main(["sweep", "--config", tiny_cfg, "--out", str(out),
                     "--param", "run.seed", "--values", "0, 1"]) == EXIT_OK
        rows = sorted(p.name for p in (out / "tiny-sweep").iterdir()
                      if p.is_dir())
        assert rows == ["run.seed=0", "run.seed=1"]

    @pytest.mark.parametrize("param,values", [
        ("run.seed", ","), ("run.seed", ""), ("runseed", "0,1"),
    ])
    def test_malformed_sweep_exits_2(self, tiny_cfg, tmp_path, capsys,
                                     param, values):
        # no row starts: nothing is written
        out = tmp_path / "out"
        code = main(["sweep", "--config", tiny_cfg, "--out", str(out),
                     "--param", param, "--values", values])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not out.exists()
