"""Config parsing: polynomial lists, section resolution, error anchoring."""

import dataclasses

import numpy as np
import pytest

from fracctrl.cli import EXIT_CONFIG, main
from fracctrl.config import (
    ConfigError,
    ExperimentConfig,
    bundled_config_path,
    eval_poly,
    load_config,
    parse_poly,
)
from fracctrl.control import ControlProblem

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


def write_cfg(tmp_path, text=TINY, name="tiny.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsePoly:
    def test_basic_triples(self):
        assert parse_poly("(1, 2, 3.5) (0,0,-1)") == [
            (1, 2, 3.5), (0, 0, -1.0)
        ]

    def test_brackets_and_commas_tolerated(self):
        assert parse_poly("[(2,0,1.0), (0,3,2)]") == [
            (2, 0, 1.0), (0, 3, 2.0)
        ]

    def test_multiline(self):
        assert parse_poly("(0, 3, 7.0)\n    (0, 2, -13.0)") == [
            (0, 3, 7.0), (0, 2, -13.0)
        ]

    @pytest.mark.parametrize("text,want", [
        ("(0,0,1)(1,0,2)", [(0, 0, 1.0), (1, 0, 2.0)]),  # no separator
        ("(0,0,1),", [(0, 0, 1.0)]),  # trailing comma
        ("((0,0,1))", [(0, 0, 1.0)]),  # redundant parentheses
    ])
    def test_separator_variants(self, text, want):
        assert parse_poly(text) == want

    @pytest.mark.parametrize("bad", [
        "", "(1, 2)", "(1.5, 0, 1.0)", "(-1, 0, 1.0)", "(1, 0, 1.0",
        "1 2 3",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_poly(bad)


class TestEvalPoly:
    def test_matches_direct_evaluation(self):
        terms = [(2, 1, 3.0), (0, 0, -0.5)]
        x = np.linspace(0.0, 1.0, 5)
        y = np.linspace(0.0, 2.0, 7)
        got = eval_poly(terms, x, y)
        want = 3.0 * np.outer(x**2, y) - 0.5
        assert np.allclose(got, want, rtol=1e-15)

    def test_scalar_inputs(self):
        assert eval_poly([(1, 1, 2.0)], 3.0, 4.0)[0, 0] == 24.0


class TestLoadConfig:
    def test_tiny_resolves(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.alpha == 0.5
        assert cfg.grid.K == 8
        assert cfg.F.is_zero
        assert cfg.method == "algorithm1"  # default
        assert cfg.zd.shape[0] == cfg.d_s.values.shape[1]
        # defaults are materialized into the resolved view
        assert cfg.resolved["loop.n_max"] == 50
        assert cfg.resolved["run.seed"] == 0
        # an absent key without a default is left out
        assert "target.d_s" not in cfg.resolved

    def test_problem_roundtrip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        problem = cfg.problem()
        assert problem.alpha == cfg.alpha
        assert problem.eps == cfg.eps

    def test_config_is_its_problem(self, tmp_path):
        # ExperimentConfig adds run metadata to ControlProblem and
        # redeclares none of its fields
        cfg = load_config(write_cfg(tmp_path))
        assert isinstance(cfg, ControlProblem)
        assert cfg.problem() is cfg
        assert cfg.domain is cfg.basis.domain
        own = set(vars(ExperimentConfig)["__annotations__"])
        assert own == {"path", "method", "resolved"}
        assert not own & {f.name for f in dataclasses.fields(ControlProblem)}

    def test_unparsable_file(self, tmp_path):
        text = TINY.replace("alpha = 0.5", "alpha 0.5")
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, text))
        assert len(str(exc.value).splitlines()) == 1

    def test_unknown_key(self, tmp_path):
        text = TINY.replace("lambda_reg", "lamda_reg")
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, text))
        assert (exc.value.section, exc.value.key) == ("loop", "lamda_reg")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.cfg"))

    def test_missing_required_key(self, tmp_path):
        text = TINY.replace("alpha = 0.5\n", "")
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, text))
        assert "[problem] alpha" in str(exc.value)

    @pytest.mark.parametrize("old,new", [
        ("alpha = 0.5", "alpha = 1.5"),
        ("T = 1.0", "T = -2.0"),
        ("gamma = left 0.0 0.1", "gamma = left 0.0"),
        ("eps = 1e-2", "eps = -1.0"),
        ("lambda_reg = 1e-8", "lambda_reg = -0.5"),
        ("z_d = (0, 0, 1e-3)", "z_d = (0, 0"),
        ("nx = 21", "nx = 4"),
        ("K = 8", "K = 1"),
        ("lambda_reg = 1e-8", "lambda_reg = 1e-8\nn_max = 0"),
        ("lambda_reg = 1e-8", "lambda_reg = 1e-8\n[run]\nseed = 1.5"),
        ("gain = 1.0", "gain = abc"),
        ("box = 0.0 0.2 0.2 0.4", "point = 1.5 0.5"),
    ])
    def test_rejects_bad_values(self, tmp_path, old, new):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, TINY.replace(old, new)))

    @pytest.mark.parametrize("old,new,where", [
        # the support given is the actuator: no key selects its kind
        ("box = 0.0 0.2 0.2 0.4", "type = zonal\nbox = 0.0 0.2 0.2 0.4",
         ("actuator", "type")),
        ("box = 0.0 0.2 0.2 0.4", "box = 0.0 1.2 0.2 0.4",
         ("actuator", "box")),
        ("gamma = left 0.0 0.1", "gamma = left 0.0", ("regions", "gamma")),
        ("omega_c = 0.0 0.3 0.0 0.1\n", "", ("regions", "omega_c")),
        ("eps = 1e-2", "eps = -1.0", ("loop", "eps")),
        ("eps = 1e-2", "eps = 1e-2\nn_max = 0", ("loop", "n_max")),
        ("f_coeff = 0", "f_coeff = 1.0\nf_power = 4",
         ("problem", "f_power")),
        ("lambda_reg = 1e-8", "lambda_reg = 1e-8\n[run]\nseed = 1.5",
         ("run", "seed")),
        # values are read as written: `%` interpolates nothing
        ("T = 1.0", "T = 2.0%", ("problem", "T")),
        ("lambda_reg = 1e-8", "lambda_reg = 1e-8\n[run]\nseed = %(x)s",
         ("run", "seed")),
    ])
    def test_error_names_its_key(self, tmp_path, old, new, where):
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, TINY.replace(old, new)))
        assert (exc.value.section, exc.value.key) == where
        assert len(str(exc.value).splitlines()) == 1

    @pytest.mark.parametrize("key,val", [
        ("stop_metric", "sup"),
        ("method", "newton"),
    ])
    def test_rejects_bad_loop_options(self, tmp_path, key, val):
        text = TINY + f"{key} = {val}\n"
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, text))

    def test_overrides_give_the_run_configuration(self, tmp_path):
        # overrides replace the file's values (None sets nothing), and
        # the resolved view records them; an omitted lambda_reg is None
        # until the operator sets it
        path = write_cfg(tmp_path, TINY.replace("lambda_reg = 1e-8\n", ""))
        cfg = load_config(path, {"loop.method": "picard", "loop.n_max": 1,
                                 "run.seed": 5, "loop.eps": None})
        assert (cfg.method, cfg.n_max) == ("picard", 1)
        view = cfg.resolved
        assert (view["loop.method"], view["loop.n_max"], view["run.seed"],
                view["loop.lambda_reg"]) == ("picard", 1, 5, None)
        assert view["loop.eps"] == 1e-2
        H = cfg.operator()
        assert H.lambda_reg > 0.0 and view["loop.lambda_reg"] == H.lambda_reg
        with pytest.raises(ConfigError) as exc:
            load_config(path, {"loop.method": "newton"})
        assert (exc.value.section, exc.value.key) == ("loop", "method")

    def test_override_is_checked_as_a_file_value(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path), {"loop.eps": "-1"})
        assert (exc.value.section, exc.value.key) == ("loop", "eps")
        assert str(exc.value).endswith("must be > 0")

    def test_override_with_percent_is_read_as_written(self, tmp_path):
        # no interpolation: the key's parser rejects the text at its key
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path), {"run.seed": "5%"})
        assert (exc.value.section, exc.value.key) == ("run", "seed")
        assert len(str(exc.value).splitlines()) == 1

    def test_override_adds_a_missing_section(self, tmp_path):
        assert "[initial]" not in TINY
        path = write_cfg(tmp_path)
        assert np.all(load_config(path).y0.values == 0.0)
        cfg = load_config(path, {"initial.y0": "(0, 0, 0.01)"})
        assert np.all(cfg.y0.values == 0.01)
        assert cfg.resolved["initial.y0"] == [(0, 0, 0.01)]

    def test_target_mode_is_an_unknown_key(self, tmp_path, capsys):
        # a target on Gamma itself is an omega_c narrower than one node
        # spacing on Gamma's edge; no key selects it.  The loop stops on
        # the reached-state error, so no key selects a stop metric either
        for text, key in (
            (TINY + "target_mode = gamma\n", "[loop] target_mode"),
            (TINY + "stop_metric = l2\n", "[loop] stop_metric"),
        ):
            path = write_cfg(tmp_path, text)
            assert main(["verify", "--config", path]) == EXIT_CONFIG
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert key in err[0] and err[0].endswith("unknown key")

    def test_explicit_ds_trace_must_match(self, tmp_path):
        # extension trace is 2e-3 but z_d is 1e-3
        text = TINY.replace(
            "z_d = (0, 0, 1e-3)", "z_d = (0, 0, 1e-3)\nd_s = (0, 0, 2e-3)"
        )
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, text))
        assert "d_s" in str(exc.value)

    def test_explicit_ds_matching_trace_accepted(self, tmp_path):
        text = TINY.replace(
            "z_d = (0, 0, 1e-3)",
            "z_d = (0, 0, 1e-3)\nd_s = (0, 0, 1e-3) (1, 0, 5e-4)",
        )
        cfg = load_config(write_cfg(tmp_path, text))
        assert np.allclose(cfg.d_s.values[0, :], cfg.zd)

    def test_extension_profile_leading_coeff(self, tmp_path):
        # the extension decays by smoothstep, whose leading coefficient is
        # 1 by construction; a profile key is refused as unknown
        text = TINY.replace(
            "z_d = (0, 0, 1e-3)",
            "z_d = (0, 0, 1e-3)\nextension_profile = 0.5 -1.0",
        )
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, text))
        assert (exc.value.section, exc.value.key) == (
            "target", "extension_profile")
        assert str(exc.value).endswith("unknown key")

    def test_extension_profile_trace_exact(self, tmp_path):
        # with no d_s the smoothstep profile, which is 1 on Gamma, extends
        # z_d: the extension's first row is z_d itself
        cfg = load_config(write_cfg(tmp_path))
        assert np.array_equal(cfg.d_s.values[0, :], cfg.zd)

    def test_initial_condition_polynomial(self, tmp_path):
        text = TINY + "\n[initial]\ny0 = (0, 0, 0.25)\n"
        cfg = load_config(write_cfg(tmp_path, text))
        assert np.all(cfg.y0.values == 0.25)

    def test_initial_condition_zero(self, tmp_path):
        # the key's default, written out, is the zero state
        text = TINY + "\n[initial]\ny0 = zero\n"
        cfg = load_config(write_cfg(tmp_path, text))
        assert np.all(cfg.y0.values == 0.0)
        assert cfg.resolved["initial.y0"] == "zero"

    def test_nonlinearity_keys(self, tmp_path):
        # F(y) = f_coeff y^f_power is read on every run: y^2 by default,
        # and f_coeff = 0 is the linear system
        assert load_config(write_cfg(tmp_path)).F.is_zero
        cfg = load_config(write_cfg(tmp_path, TINY.replace(
            "f_coeff = 0\n", "")))
        assert (cfg.F.coeff, cfg.F.power) == (1.0, 2)
        assert (cfg.resolved["problem.f_coeff"],
                cfg.resolved["problem.f_power"]) == (1.0, 2)
        cfg = load_config(write_cfg(tmp_path, TINY.replace(
            "f_coeff = 0", "f_coeff = -2\nf_power = 3")))
        assert (cfg.F.coeff, cfg.F.power) == (-2.0, 3)

    def test_actuator_is_the_support_given(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.act.kind == "zonal"
        assert "actuator.point" not in cfg.resolved
        cfg = load_config(write_cfg(tmp_path, TINY.replace(
            "box = 0.0 0.2 0.2 0.4", "point = 0.1 0.3")))
        assert cfg.act.kind == "pointwise"
        assert cfg.resolved["actuator.point"] == [0.1, 0.3]
        assert "actuator.box" not in cfg.resolved

    @pytest.mark.parametrize("old,new", [
        ("box = 0.0 0.2 0.2 0.4", "box = 0.0 0.2 0.2 0.4\npoint = 0.1 0.3"),
        ("box = 0.0 0.2 0.2 0.4\n", ""),
    ], ids=["both", "neither"])
    def test_actuator_needs_one_support(self, tmp_path, capsys, old, new):
        path = write_cfg(tmp_path, TINY.replace(old, new))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert (exc.value.section, exc.value.key) == ("actuator", "-")
        assert main(["verify", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "[actuator] -" in err[0]

    @pytest.mark.parametrize("line,key", [
        ("f = square", "[problem] f"),
        ("f = none", "[problem] f"),
        ("type = zonal", "[actuator] type"),
    ])
    def test_selector_keys_are_unknown(self, tmp_path, capsys, line, key):
        # F is f_coeff y^f_power and the actuator is the support given:
        # no key selects either
        section = key[1:key.index("]")]
        path = write_cfg(tmp_path, TINY.replace(
            f"[{section}]\n", f"[{section}]\n{line}\n"))
        assert main(["verify", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert key in err[0] and err[0].endswith("unknown key")

    def test_linear_is_no_method(self, tmp_path):
        # one residual-update iteration is n_max = 1
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, TINY + "method = linear\n"))
        assert (exc.value.section, exc.value.key) == ("loop", "method")
        assert len(str(exc.value).splitlines()) == 1


class TestBundledConfigs:
    @pytest.mark.parametrize("name", ["example1.cfg", "example2.cfg"])
    def test_bundled_load(self, name):
        cfg = load_config(bundled_config_path(name))
        assert cfg.method == "algorithm1"
        # the explicit extension restricts to the boundary target exactly
        assert np.allclose(cfg.d_s.values[0, :], cfg.zd, atol=1e-12)

    def test_example1_resolved(self):
        # every key, defaults included, as the run manifest records it
        cfg = load_config(bundled_config_path("example1.cfg"))
        assert cfg.resolved == {
            "actuator.box": [0.0, 0.2, 0.2, 0.4],
            "actuator.gain": 25.0,
            "domain.K": 60,
            "domain.lx": 1.0,
            "domain.ly": 1.0,
            "domain.mx": 20,
            "domain.my": 20,
            "domain.nx": 51,
            "domain.ny": 51,
            "initial.y0": "zero",
            "loop.eps": 0.02,
            "loop.lambda_reg": 0.001875,
            "loop.method": "algorithm1",
            "loop.n_max": 50,
            "problem.T": 3.0,
            "problem.alpha": 0.3,
            "problem.f_coeff": 1.0,
            "problem.f_power": 2,
            "regions.gamma": ["left", 0.0, 0.1],
            "regions.omega_c": [0.0, 0.3, 0.0, 0.1],
            "run.seed": 0,
            "target.d_s": [
                (0, 3, 7.0), (0, 2, -13.0), (0, 0, 3.0),
                (3, 3, 1.5217391304347827), (3, 2, -2.8260869565217392),
                (3, 0, 0.6521739130434783), (2, 3, -1.1290322580645162),
                (2, 2, 2.096774193548387), (2, 0, -0.4838709677419355),
            ],
            "target.z_d": [(0, 3, 7.0), (0, 2, -13.0), (0, 0, 3.0)],
        }

    def test_example1_parameters(self):
        cfg = load_config(bundled_config_path("example1.cfg"))
        assert cfg.alpha == 0.3
        assert cfg.grid.T == 3.0
        assert cfg.grid.K == 60
        assert cfg.act.gain == 25.0
        assert cfg.F.coeff == 1.0 and cfg.F.power == 2

    def test_example2_parameters(self):
        cfg = load_config(bundled_config_path("example2.cfg"))
        assert cfg.alpha == 0.6
        assert cfg.grid.T == 2.0
        assert cfg.grid.K == 40
        assert cfg.act.gain == 10.0
