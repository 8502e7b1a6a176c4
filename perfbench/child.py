"""One benchmark process: the harness in run.py starts it fresh for each
run, so the Mittag-Leffler cache starts cold as in every real invocation.

    child.py setup CONFIG
        import fracctrl, build load_config(CONFIG).problem(), then print
        the monotonic clock (the harness subtracts its spawn time).
    child.py synth CONFIG OUTDIR [TRACE_FILE]
        Python-API synthesis: problem, algorithm1, control written out.
    child.py cli TRACE_FILE ARG...
        the `fracctrl` CLI with ARG..., traced.

Given a TRACE_FILE, the run is traced and the record is written there
once at the end.
"""

import sys
import time


def setup(config):
    from fracctrl.config import load_config

    load_config(config).problem()
    print(repr(time.monotonic()))


def synth(config, outdir, trace_file=None):
    import json

    import numpy as np

    from fracctrl.config import load_config
    from fracctrl.control import algorithm1
    from fracctrl.domain import trace

    tracer = None
    if trace_file:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        load_config = tracer.span("load_config", load_config)
        algorithm1 = tracer.span("algorithm1", algorithm1,
                                 result_attrs=tracing.loop_attrs)

    cfg = load_config(config)
    u, traj, report = algorithm1(cfg.problem())
    # the control returned is the best one seen, the last when converged
    best = int(np.argmin(report.residuals))
    np.savetxt(f"{outdir}/control.dat", u.values, fmt="%.17e", header="u")
    with open(f"{outdir}/result.json", "w") as fh:
        json.dump({
            "status": report.status,
            "iterations": report.iterations,
            "residual": report.residuals[best],
            "boundary_error": report.boundary_errors[best],
            "gamma_reached": trace(traj.final_field(),
                                   cfg.gamma).values.tolist(),
        }, fh)
    if tracer:
        tracer.dump(trace_file, {"ml_cache": tracing.ml_cache_info()})


def cli(trace_file, argv):
    import tracer as tracing

    from fracctrl import cli as fcli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = tracer.span("cli.run", fcli.main)(argv)
    tracer.dump(trace_file, {"ml_cache": tracing.ml_cache_info()})
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(*rest)
    elif mode == "synth":
        synth(*rest)
    elif mode == "cli":
        sys.exit(cli(rest[0], rest[1:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
