"""In-memory span tracer for the fracctrl benchmark, and the per-layer
metrics derived from its record.

Tracing works entirely from outside the package: `install` replaces each
public name at every module that imported it with a timing wrapper, so
nothing under `src/` changes.  Two kinds of wrapper exist:

- a *span* records one entry per call (name, parent span, start, end and
  optional attributes).  It is used for the coarse calls, which run at
  most a few thousand times per workload.
- a *leaf* is used for the hot scalar calls (`ml`, `h_symbol` and the
  two basis transforms, about 2.3M calls on example 1).  Storing a span
  per call would cost hundreds of MB, so each leaf call adds its count
  and time to an aggregate keyed by (name, innermost open span, nested),
  where `nested` marks a leaf called from inside another leaf (`ml` inside
  `h_symbol`), whose time the outer leaf already covers.

The record is kept in memory and written once, by `Tracer.dump`.
"""

import functools
import importlib
import json
import statistics
import time

ROOT = -1


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, start, end, attrs]
        self.stack = [ROOT]
        self.leaves = {}  # (name, span, nested) -> [calls, seconds]
        self.leaf_depth = [0]
        self.patched = []
        self.missing = []

    def span(self, name, fn, attrs=None, result_attrs=None):
        """Wrap fn so each call records a span; `attrs(*args, **kwargs)`
        and `result_attrs(result)` add fields to it."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1], clock(), None,
                   attrs(*args, **kwargs) if attrs else {}]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if result_attrs:
                rec[4].update(result_attrs(result))
            return result

        return wrapper

    def leaf(self, name, fn):
        """Wrap a hot function: aggregate its calls and time per parent."""
        leaves, stack, depth = self.leaves, self.stack, self.leaf_depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = depth[0] > 0
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                key = (name, stack[-1], nested)
                rec = leaves.get(key)
                if rec is None:
                    leaves[key] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt

        return wrapper

    def patch(self, module, attr, kind, name, **kw):
        """Replace module.attr (module may also be a class) by a wrapper.

        A name the code no longer has is recorded as missing rather than
        raising, so a refactor that drops an import still runs; the
        counters that must fire catch a layer lost that way.
        """
        owner = importlib.import_module(module) if isinstance(
            module, str) else module
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(label)
            return
        wrap = self.span if kind == "span" else self.leaf
        setattr(owner, attr, wrap(name, fn, **kw))
        self.patched.append(label)

    def dump(self, path, extra):
        doc = {
            "spans": self.spans,
            "leaves": [[*k, *v] for k, v in self.leaves.items()],
            "patched": self.patched,
            "missing": self.missing,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install(tracer):
    """Patch every layer boundary the benchmark measures."""
    from fracctrl.domain import SpectralBasis

    for mod in ("fracctrl.mittag", "fracctrl.solver",
                "fracctrl.diagnostics"):
        tracer.patch(mod, "ml", "leaf", "ml")
    tracer.patch("fracctrl.solver", "h_symbol", "leaf", "h_symbol")
    tracer.patch(SpectralBasis, "to_spectral", "leaf", "to_spectral")
    tracer.patch(SpectralBasis, "from_spectral", "leaf", "from_spectral")
    tracer.patch("fracctrl.solver", "gmres", "span", "gmres")
    for mod in ("fracctrl.control", "fracctrl.cli"):
        tracer.patch(mod, "solve_semilinear", "span", "solve_semilinear",
                     attrs=lambda *a, **kw: {"K": _grid_steps(a, kw)})
    tracer.patch("fracctrl.control", "assemble_H", "span", "assemble_H")
    tracer.patch("fracctrl.control", "pinv_apply", "span", "pinv_apply")
    tracer.patch("fracctrl.cli", "algorithm1", "span", "algorithm1",
                 result_attrs=loop_attrs)
    tracer.patch("fracctrl.cli", "hypothesis_report", "span",
                 "hypothesis_report")
    tracer.patch("fracctrl.cli", "load_config", "span", "load_config")
    for fn in ("estimate_A1", "estimate_FN", "gram_spectrum", "pinv_gain"):
        tracer.patch("fracctrl.diagnostics", fn, "span", fn)


def loop_attrs(result):
    """Outer-loop outcome of an (u, traj, report) result."""
    report = result[2]
    return {"iterations": report.iterations, "status": report.status}


def _grid_steps(args, kwargs):
    # solve_semilinear(y0, u, F, act, basis, grid, alpha, ...)
    grid = kwargs["grid"] if "grid" in kwargs else args[5]
    return grid.K


def ml_cache_info():
    """(hits, misses) of the scalar Mittag-Leffler cache, or None once
    that cache no longer exists."""
    from fracctrl import mittag

    cached = getattr(mittag, "_ml_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return None
    info = cached.cache_info()
    return [info.hits, info.misses]


# Counters that fire on every workload at the seed.  Reading zero means a
# patch missed an import site and a layer silently dropped out.
MUST_FIRE = ("mittag.ml_calls", "domain.transforms", "solver.solves",
             "control.assemble_H_calls", "control.outer_iters",
             "config.load_s")
# ... and on the CLI workloads only.
MUST_FIRE_CLI = ("diagnostics.report_s", "diagnostics.A1_ml_calls",
                 "cli.self_s")


def layer_metrics(doc):
    """Per-layer numbers from a dumped trace record."""
    spans = doc["spans"]
    children = {}
    for sid, (_, parent, *_rest) in enumerate(spans):
        children.setdefault(parent, []).append(sid)

    def named(name):
        return [sid for sid, s in enumerate(spans) if s[0] == name]

    def dur(ids):
        return sum(spans[i][3] - spans[i][2] for i in ids)

    def subtree(ids):
        out, todo = set(), list(ids)
        while todo:
            sid = todo.pop()
            out.add(sid)
            todo.extend(children.get(sid, ()))
        return out

    def leaf_sum(names, within=None, outer_only=False, col=3):
        """Sum calls (col 3) or seconds (col 4) of the named leaves."""
        return sum(
            rec[col] for rec in doc["leaves"]
            if rec[0] in names
            and (within is None or rec[1] in within)
            and not (outer_only and rec[2])
        )

    transforms = ("to_spectral", "from_spectral")
    ml_calls = leaf_sum(("ml",))
    ml_s = leaf_sum(("ml",), col=4)
    cache = doc.get("ml_cache")
    if cache is None:
        evals, hit_ratio = ml_calls, 0.0
    else:
        hits, misses = cache
        evals = misses
        hit_ratio = hits / (hits + misses) if hits + misses else 0.0

    solves = named("solve_semilinear")
    in_solves = subtree(solves)
    steps = sum(spans[i][4]["K"] for i in solves)
    solve_durs = [spans[i][3] - spans[i][2] for i in solves]
    solve_leaf_s = leaf_sum(("ml", "h_symbol") + transforms, in_solves,
                            outer_only=True, col=4)

    loops = named("algorithm1")
    iters = sum(spans[i][4].get("iterations", 0) for i in loops)
    loop_s = dur(loops)
    a1 = named("estimate_A1")

    cli = named("cli.run")
    in_cli = subtree(cli)
    cli_parts = [i for i in in_cli
                 if spans[i][0] in ("load_config", "hypothesis_report",
                                    "algorithm1")]
    cli_self = dur(cli) - dur(cli_parts) if cli else 0.0

    return {
        "mittag.ml_calls": ml_calls,
        "mittag.ml_s": ml_s,
        "mittag.ml_us_per_call": 1e6 * ml_s / ml_calls if ml_calls else 0.0,
        "mittag.evals": evals,
        "mittag.cache_hit_ratio": hit_ratio,
        "domain.transforms": leaf_sum(transforms),
        "domain.transform_s": leaf_sum(transforms, col=4),
        "domain.transforms_per_step": (
            leaf_sum(transforms, in_solves) / steps if steps else 0.0),
        "solver.solves": len(solves),
        "solver.solve_s": statistics.median(solve_durs) if solves else 0.0,
        "solver.self_s": sum(solve_durs) - solve_leaf_s,
        "solver.gmres_calls": len(named("gmres")),
        "solver.gmres_s": dur(named("gmres")),
        "control.assemble_H_calls": len(named("assemble_H")),
        "control.assemble_H_s": dur(named("assemble_H")),
        "control.outer_iters": iters,
        "control.loop_s": loop_s,
        "control.iter_s": loop_s / iters if iters else 0.0,
        "control.pinv_s": dur(named("pinv_apply")),
        "diagnostics.report_s": dur(named("hypothesis_report")),
        "diagnostics.A1_s": dur(a1),
        "diagnostics.A1_ml_calls": leaf_sum(("ml",), subtree(a1)),
        "diagnostics.FN_s": dur(named("estimate_FN")),
        "diagnostics.svd_s": dur(named("gram_spectrum") + named("pinv_gain")),
        "config.load_s": dur(named("load_config")),
        "cli.self_s": cli_self,
    }
