"""Run one cubicber CLI command in-process with every layer traced.

Usage: python3 perfbench/traced.py TRACE_JSON -- CLI_ARGS...

The import of `cubicber.cli` is timed first (the interpreter is fresh), then
the public functions of each package module are wrapped from the outside
by `tracer.Tracer`, `cubicber.cli.main(CLI_ARGS)` runs, and the merged
statistics, exact counters and spans are written to TRACE_JSON. The exit
code is the CLI's own. Nothing under src/ is modified.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

from tracer import Tracer

# package module -> layer name used in metric names
LAYERS = {
    "_config": "config",
    "params": "params",
    "moments": "moments",
    "lp3": "lp3",
    "_rng": "rng",
    "_mc_numpy": "synth",
    "montecarlo": "montecarlo",
    "detection": "detection",
    "gof": "gof",
    "cli": "cli",
}

# private functions traced as well: one sweep point, for point ids
EXTRA = {"cli": ("_eval_point",)}

# called per scalar inside quadratures and threshold searches: timed and
# counted, but too many to keep a span record each
HOT = frozenset({"lp3.cdf", "lp3.pdf", "lp3.quantile", "lp3.moment",
                 "lp3.reg_gamma_p", "lp3.reg_gamma_q"})


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_normals(args, kwargs, result):
    zp, _ = result
    return {"rng.normals": 2 * int(zp.size)}


def _count_philox(args, kwargs, result):
    return {"rng.philox_blocks": int(result[0].size)}


def _synth_counter(chunk: int):
    """Exact work of `_mc_numpy.decision_sums`, from argument shapes.

    Every trial range is computed in whole blocks of `chunk` trials aligned
    to absolute trial index. Per block: two (chunk x ncoef) @ (ncoef x
    ngrid) products for the two quadratures and three (chunk x ngrid) @
    (ngrid) reductions. Flops count a multiply-add as two; bytes are the
    float64 operands read and results written by those products, once each.
    These are computed figures, not hardware counters.
    """
    def count(args, kwargs, result):
        start = int(_arg(args, kwargs, 1, "start_trial"))
        n = int(_arg(args, kwargs, 2, "ntrials"))
        S = _arg(args, kwargs, 4, "S")
        sigma0 = float(_arg(args, kwargs, 7, "sigma0"))
        ngrid, ncoef = S.shape
        first = (start // chunk) * chunk
        chunks = -(-(start + n - first) // chunk)
        flops = 6 * chunk * ngrid
        nbytes = 3 * (chunk * ngrid + ngrid + chunk)
        if sigma0 != 0.0:
            flops += 4 * chunk * ncoef * ngrid
            nbytes += 2 * (chunk * ncoef + ncoef * ngrid + chunk * ngrid)
        return {"synth.chunks": chunks,
                "synth.trials_requested": n,
                "synth.trials_computed": chunks * chunk,
                "synth.gemm_flops": chunks * flops,
                "synth.bytes_computed": chunks * nbytes * 8}
    return count


def _count_generate(args, kwargs, result):
    return {"montecarlo.trials": int(_arg(args, kwargs, 3, "n_trials"))}


def _points_counter(name: str):
    """Counts the points a scalar-or-array function evaluated."""
    def count(args, kwargs, result):
        return {name: int(getattr(result, "size", 1))}
    return count


def _count_point(args, kwargs, result):
    return {"cli.points": 1,
            "cli.points_failed": int(any(r["error"] for r in result))}


def install_all(tracer: Tracer) -> None:
    """Wrap the public functions (and EXTRA) of every traced module."""
    mods = {name: importlib.import_module(f"cubicber.{name}")
            for name in LAYERS}
    namespaces = [importlib.import_module("cubicber"), *mods.values()]
    counters = {
        "rng.coefficient_normals": _count_normals,
        "rng.philox4": _count_philox,
        "synth.decision_sums": _synth_counter(
            int(getattr(mods["_mc_numpy"], "_CHUNK", 2048))),
        "montecarlo.generate_samples": _count_generate,
        "lp3.cdf": _points_counter("lp3.cdf.points"),
        "lp3.reg_gamma_p": _points_counter("lp3.reg_gamma_p.points"),
        "cli._eval_point": _count_point,
    }
    for modname, layer in LAYERS.items():
        mod = mods[modname]
        names = [n for n, obj in vars(mod).items()
                 if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                 and not n.startswith("_")]
        names += EXTRA.get(modname, ())
        for name in sorted(names):
            key = f"{layer}.{name}"
            tracer.install(mod, name, namespaces, key, layer,
                           hot=key in HOT, count=counters.get(key),
                           new_point=key == "cli._eval_point")


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    cli = importlib.import_module("cubicber.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install_all(tracer)
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.restore()
    snap = tracer.snapshot()
    snap["import_s"] = import_s
    snap["exit_code"] = rc
    with open(out_path, "w") as fh:
        json.dump(snap, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
