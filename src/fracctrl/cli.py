"""Command-line experiment runner.

Verbs: `run` (full control synthesis with artifacts), `verify`
(hypothesis diagnostics only), `sweep` (repeat a run over a parameter
range, one row after another, one subdirectory per value).

Exit codes: 0 success/converged, 2 invalid config or options or an
unwritable output, 3 non-converged run (diverged, max-iterations or a
numerical failure), 4 hypothesis violated (verify).
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import METHODS, ConfigError, load_config, read_ini
from .control import GramConditionError, algorithm1, picard_sequence
from .diagnostics import hypothesis_report
from .domain import restrict, trace
from .mittag import MLEvaluationError
from .solver import SemilinearDivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_HYPOTHESIS = 4

# each table a run writes: name, header and row format; plain-text column
# files, '# header', then one row per line
TABLES = (
    ("control.dat", "t u", "%.17e"),
    ("gamma_profile.dat", "s z_d reached", "%.17e"),
    ("reached_omega.dat", "x y value", "%.17e"),
    ("reached_full.dat", "x y value", "%.17e"),
    ("iterations.dat", "n residual boundary_error cost control_diff",
     "%d" + 4 * " %.17e"),
)

# failures of the numerics themselves: reported as a non-converged run
NUMERICAL_ERRORS = (
    MLEvaluationError, GramConditionError, SemilinearDivergenceError,
)


def _emit(text):
    """Print text to stdout.  A reader that has closed the pipe (`| head`)
    loses the rest of the output, not the verb's exit code: stdout is
    pointed at the null device, so later prints and the flush at exit do
    not raise again."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _out_root(args):
    return Path(args.out) if args.out else Path.cwd() / "runs"


def _run_one(cfg, outdir):
    """Execute a config and write all artifacts; returns (exit, summary)."""
    outdir.mkdir(parents=True, exist_ok=True)
    # an earlier run's files would stay listed in this run's manifest
    for name in [t[0] for t in TABLES] + ["summary.txt", "manifest.json"]:
        (outdir / name).unlink(missing_ok=True)
    t_start = time.time()
    hyp = None
    try:
        hyp = hypothesis_report(cfg)
        execute = algorithm1 if cfg.method != "picard" else picard_sequence
        u, traj, report = execute(cfg)
    except NUMERICAL_ERRORS as exc:
        status = ("diverged" if isinstance(exc, SemilinearDivergenceError)
                  else "failed")
        return _stopped(cfg, outdir, hyp, status, exc, t_start)
    grid = cfg.grid
    final = traj.final_field()
    prof = trace(final, cfg.gamma)
    patch = restrict(final, cfg.omega_c)
    px, py = np.meshgrid(patch.x, patch.y, indexing="ij")
    fx, fy = np.meshgrid(cfg.domain.x, cfg.domain.y, indexing="ij")
    for (name, header, fmt), columns in zip(TABLES, (
        [np.arange(grid.K) * grid.dt, u.values],
        [prof.s, cfg.zd, prof.values],
        [px.ravel(), py.ravel(), patch.values.ravel()],
        [fx.ravel(), fy.ravel(), final.values.ravel()],
        [np.arange(1, report.iterations + 1), report.residuals,
         report.boundary_errors, report.costs, report.control_diffs],
    ), strict=True):
        np.savetxt(outdir / name, np.column_stack(columns), fmt=fmt,
                   header=header, comments="# ")
    summary = report.summary()
    _write_manifest(cfg, outdir, hyp, summary, t_start)
    return (EXIT_OK if report.converged else EXIT_DIVERGED), summary


def _stopped(cfg, outdir, hyp, status, reason, t_start):
    """Report a run that produced no result: one stderr line, a summary
    and the manifest; returns (exit, summary)."""
    print(f"{status}: {reason}", file=sys.stderr)
    summary = {"status": status, "error": str(reason)}
    _write_manifest(cfg, outdir, hyp, summary, t_start)
    return EXIT_DIVERGED, summary


def _summary_text(summary):
    """One `key: value` line per summary entry: summary.txt, and the
    lines `run` prints before its artifacts line."""
    return "".join(f"{k}: {v}\n" for k, v in summary.items())


def _write_manifest(cfg, outdir, hyp, summary, t_start):
    """Write summary.txt, then manifest.json, which records the same
    summary and the SHA-256 of every other file in outdir."""
    # imported here: it loads OpenSSL, which would stay resident through
    # the whole run for these few digests
    import hashlib

    (outdir / "summary.txt").write_text(_summary_text(summary))
    artifacts = sorted(
        p.name for p in outdir.iterdir()
        if p.is_file() and p.name != "manifest.json"
    )
    manifest = {
        "tool_version": __version__,
        "config_path": cfg.path,
        "resolved_config": cfg.resolved,
        "started_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(t_start)
        ),
        "ended_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "hypothesis_report": (
            None if hyp is None else dataclasses.asdict(hyp)
        ),
        "summary": summary,
        "artifacts": {
            name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in artifacts
        },
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def cmd_run(args):
    # an option left unset is None and sets no key
    cfg = load_config(args.config,
                      {"loop.method": args.method, "run.seed": args.seed})
    outdir = _out_root(args) / Path(args.config).stem
    code, summary = _run_one(cfg, outdir)
    _emit(_summary_text(summary) + f"artifacts: {outdir}")
    return code


def cmd_verify(args):
    cfg = load_config(args.config)
    try:
        report = hypothesis_report(cfg.problem())
    except NUMERICAL_ERRORS as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    _emit(report.to_text())
    return EXIT_HYPOTHESIS if report.violated else EXIT_OK


def cmd_sweep(args):
    section, _, key = args.param.partition(".")
    values = [v for v in map(str.strip, args.values.split(",")) if v]
    for bad, message in (
        (not (section and key), f"--param is not section.key: {args.param}"),
        (not values, f"--values holds no value: {args.values!r}"),
        # two rows with one value would share one row directory
        (len(set(values)) < len(values),
         f"--values repeats a value: {args.values}"),
    ):
        if bad:
            print(f"config error: {message}", file=sys.stderr)
            return EXIT_CONFIG
    # a row is the file with its one value set; every row's config is
    # checked before any row directory is made
    overrides = [{args.param: v} for v in values]
    configs = [load_config(args.config, o) for o in overrides]
    outroot = _out_root(args) / f"{Path(args.config).stem}-sweep"
    lines = [f"# {args.param} status iterations boundary_error cost"]
    worst = EXIT_OK
    for value, row, cfg in zip(values, overrides, configs):
        rowdir = outroot / f"{args.param}={value}"
        rowdir.mkdir(parents=True, exist_ok=True)
        with open(rowdir / "config.cfg", "w") as fh:
            read_ini(args.config, row).write(fh)
        code, summary = _run_one(cfg, rowdir)
        worst = max(worst, code)
        lines.append(
            f"{value} {summary.get('status')} "
            f"{summary.get('iterations', '-')} "
            f"{summary.get('boundary_error', float('nan'))} "
            f"{summary.get('cost', float('nan'))}"
        )
    table = "\n".join(lines)
    _emit(table)
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
        # verify writes no file, runs no loop and draws nothing; a sweep
        # row sets only its --param
        if verb != "verify":
            p.add_argument("--out", default=None,
                           help="output root (default ./runs)")
        if verb == "run":
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--method", default=None, choices=METHODS)
        if verb == "sweep":
            p.add_argument("--param", required=True,
                           help="override key, e.g. domain.K")
            p.add_argument("--values", required=True,
                           help="comma-separated values, each stripped")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # the output root or an artifact in it cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
