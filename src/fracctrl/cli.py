"""Command-line experiment runner.

Verbs: `run` (full control synthesis with artifacts), `verify`
(hypothesis diagnostics only), `sweep` (repeat a run over a parameter
range, one isolated subdirectory per value).

Exit codes: 0 success/converged, 2 invalid config, 3 non-converged run
(diverged, max-iterations or a numerical failure), 4 hypothesis violated
(verify).
"""

import argparse
import configparser
import dataclasses
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import OUTPUT_ROOT_ENV, ConfigError, load_config
from .control import GramConditionError, algorithm1, picard_sequence
from .diagnostics import EnvelopeError, hypothesis_report
from .domain import restrict, trace
from .mittag import MLEvaluationError
from .solver import SemilinearDivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_HYPOTHESIS = 4

# failures of the numerics themselves: reported as a non-converged run
NUMERICAL_ERRORS = (
    MLEvaluationError, GramConditionError, SemilinearDivergenceError,
    EnvelopeError,
)


def _out_root(args):
    if args.out:
        return Path(args.out)
    env = os.environ.get(OUTPUT_ROOT_ENV)
    if env:
        return Path(env)
    return Path.cwd() / "runs"


def _write_columns(path, header, columns):
    """Plain-text column file: '# header' then %.17e columns per row."""
    arr = np.column_stack(columns)
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for row in arr:
            fh.write(" ".join(f"{v:.17e}" for v in row) + "\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _iteration_lines(report):
    lines = ["# n residual boundary_error cost control_diff"]
    for n in range(report.iterations):
        diff = (report.control_diffs[n - 1]
                if 0 < n <= len(report.control_diffs) else float("nan"))
        lines.append(
            f"{n + 1} {report.residuals[n]:.17e} "
            f"{report.boundary_errors[n]:.17e} {report.costs[n]:.17e} "
            f"{diff:.17e}"
        )
    return lines


def _execute(cfg, problem):
    """Run the configured synthesis method; returns (u, traj, report).

    The linear method is one residual-update iteration: a single
    pseudo-inverse solve plus one confirming simulation.
    """
    if cfg.method == "picard":
        return picard_sequence(problem)
    if cfg.method == "linear":
        # on the run's own problem, which holds the operator the
        # diagnostics already assembled
        problem.n_max = 1
    return algorithm1(problem)


def _run_one(cfg, outdir, seed):
    """Execute a config and write all artifacts; returns (exit, summary)."""
    outdir.mkdir(parents=True, exist_ok=True)
    t_start = time.time()
    problem = cfg.problem()
    hyp = None
    try:
        hyp = hypothesis_report(problem, seed=seed)
        u, traj, report = _execute(cfg, problem)
    except NUMERICAL_ERRORS as exc:
        status = ("diverged" if isinstance(exc, SemilinearDivergenceError)
                  else "failed")
        print(f"{status}: {exc}", file=sys.stderr)
        summary = {"status": status, "error": str(exc)}
        (outdir / "summary.txt").write_text(
            f"status: {status}\nreason: {exc}\n"
        )
        _write_manifest(cfg, outdir, hyp, summary, t_start, seed)
        return EXIT_DIVERGED, summary
    status = report.status

    grid = cfg.grid
    t_left = np.arange(grid.K) * grid.dt
    _write_columns(outdir / "control.dat", "t u", [t_left, u.values])

    prof = trace(traj.final_field(), cfg.gamma)
    _write_columns(
        outdir / "gamma_profile.dat", "s z_d reached",
        [prof.s, cfg.zd, prof.values],
    )

    patch = restrict(traj.final_field(), cfg.omega_c)
    px, py = np.meshgrid(patch.x, patch.y, indexing="ij")
    _write_columns(
        outdir / "reached_omega.dat", "x y value",
        [px.ravel(), py.ravel(), patch.values.ravel()],
    )
    fx, fy = np.meshgrid(cfg.domain.x, cfg.domain.y, indexing="ij")
    fin = traj.final_field().values
    _write_columns(
        outdir / "reached_full.dat", "x y value",
        [fx.ravel(), fy.ravel(), fin.ravel()],
    )
    (outdir / "iterations.dat").write_text(
        "\n".join(_iteration_lines(report)) + "\n"
    )

    summary = {
        "status": status,
        "iterations": report.iterations,
        "boundary_error": report.boundary_errors[-1],
        "residual": report.residuals[-1],
        "cost": report.costs[-1],
    }
    (outdir / "summary.txt").write_text(
        "\n".join(f"{k}: {v}" for k, v in summary.items()) + "\n"
    )
    _write_manifest(cfg, outdir, hyp, summary, t_start, seed)
    return (EXIT_OK if status == "converged" else EXIT_DIVERGED), summary


def _write_manifest(cfg, outdir, hyp, summary, t_start, seed):
    artifacts = sorted(
        p.name for p in outdir.iterdir()
        if p.is_file() and p.name != "manifest.json"
    )
    manifest = {
        "tool_version": __version__,
        "config_path": cfg.path,
        "resolved_config": {
            k: v for k, v in sorted(cfg.resolved.items())
        },
        "method": cfg.method,
        "seed": seed,
        "started_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(t_start)
        ),
        "ended_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "hypothesis_report": (
            None if hyp is None else dataclasses.asdict(hyp)
        ),
        "summary": summary,
        "artifacts": {name: _sha256(outdir / name) for name in artifacts},
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _load(args, path=None):
    """Load a config (args.config unless path is given) and apply the
    --method/--seed overrides to it and to its resolved manifest view."""
    cfg = load_config(path or args.config)
    if args.method:
        cfg.method = args.method
        cfg.resolved["loop.method"] = args.method
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.resolved["run.seed"] = args.seed
    return cfg


def cmd_run(args):
    try:
        cfg = _load(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = _out_root(args) / Path(args.config).stem
    code, summary = _run_one(cfg, outdir, cfg.seed)
    for k, v in summary.items():
        print(f"{k}: {v}")
    print(f"artifacts: {outdir}")
    return code


def cmd_verify(args):
    try:
        cfg = _load(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = hypothesis_report(cfg.problem(), seed=cfg.seed)
    except NUMERICAL_ERRORS as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    print(report.to_text())
    return EXIT_HYPOTHESIS if report.violated else EXIT_OK


def _sweep_row(args, param, value, outroot):
    """One sweep row: rewrite the config with the override, run isolated."""
    section, _, key = param.partition(".")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(args.config)
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, value)
    rowdir = outroot / f"{param}={value}"
    rowdir.mkdir(parents=True, exist_ok=True)
    rowcfg_path = rowdir / "config.cfg"
    with open(rowcfg_path, "w") as fh:
        cp.write(fh)
    cfg = _load(args, str(rowcfg_path))
    code, summary = _run_one(cfg, rowdir, cfg.seed)
    return value, code, summary


def cmd_sweep(args):
    if not args.param or not args.values:
        print("sweep needs --param section.key and --values v1,v2,...",
              file=sys.stderr)
        return EXIT_CONFIG
    values = [v for v in args.values.split(",") if v]
    outroot = _out_root(args) / f"{Path(args.config).stem}-sweep"
    try:
        rows = []
        with ThreadPoolExecutor(max_workers=max(1, args.threads)) as pool:
            futs = [
                pool.submit(_sweep_row, args, args.param, v, outroot)
                for v in values
            ]
            rows = [f.result() for f in futs]  # input order preserved
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    header = f"# {args.param} status iterations boundary_error cost"
    lines = [header]
    worst = EXIT_OK
    for value, code, summary in rows:
        worst = max(worst, code)
        lines.append(
            f"{value} {summary.get('status')} "
            f"{summary.get('iterations', '-')} "
            f"{summary.get('boundary_error', float('nan'))} "
            f"{summary.get('cost', float('nan'))}"
        )
    table = "\n".join(lines)
    print(table)
    (outroot / "sweep.dat").write_text(table + "\n")
    return worst


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracctrl",
        description="Boundary-regional control synthesis for semilinear "
        "time-fractional diffusion",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, fn in (("run", cmd_run), ("verify", cmd_verify),
                     ("sweep", cmd_sweep)):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None,
                       help=f"output root (default ${OUTPUT_ROOT_ENV} "
                       "or ./runs)")
        p.add_argument("--threads", type=int, default=1,
                       help="concurrent sweep rows; never affects "
                       "numeric results")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--method", default=None,
                       choices=("algorithm1", "picard", "linear"))
        if verb == "sweep":
            p.add_argument("--param", help="override key, e.g. domain.K")
            p.add_argument("--values", help="comma-separated values")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
