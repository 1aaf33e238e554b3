"""The names the benchmark under perfbench/ reads from the package.

The traced benchmark wraps functions by name and reports 0 for a metric
whose function is missing, so a rename or a deletion would silently zero a
per-layer metric. These tests read the names from perfbench/traced.py and
perfbench/run.py as text (nothing there is imported) and check that each
exists in the package.
"""

import ast
import importlib
import inspect
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from cubicber import _rng, cli
from cubicber.params import SystemParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACED = (PERFBENCH / "traced.py").read_text(encoding="utf-8")
RUN = (PERFBENCH / "run.py").read_text(encoding="utf-8")


def _literal(source: str, name: str):
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in the source")


LAYERS = _literal(TRACED, "LAYERS")   # module -> layer name
EXTRA = _literal(TRACED, "EXTRA")     # module -> private functions traced
MODULE_OF = {layer: mod for mod, layer in LAYERS.items()}


def _traced_names() -> set:
    # "layer.function" keys: the counters in traced.py, and the keys and
    # span names run.py reads
    found = set(re.findall(r'"(\w+\.\w+)": _', TRACED))
    found |= set(re.findall(r'key\("(\w+\.\w+)"', RUN))
    found |= set(re.findall(r'== "(\w+\.\w+)"', RUN))
    found |= {f"{LAYERS[m]}.{f}" for m, fs in EXTRA.items() for f in fs}
    return found


@pytest.mark.parametrize("modname", sorted(LAYERS))
def test_traced_module_imports(modname):
    importlib.import_module(f"cubicber.{modname}")


def test_names_read_by_the_benchmark_exist():
    names = _traced_names()
    # the functions the per-layer metrics and the point ids come from
    assert {"cli.run_ber_sweep", "cli._eval_point", "lp3.cdf",
            "lp3.quantile", "lp3.reg_gamma_p", "lp3.fit_from_moments",
            "detection.cdf_shot_thermal", "detection.optimize_threshold",
            "synth.decision_sums"} <= names
    missing = []
    for name in sorted(names):
        layer, func = name.split(".")
        mod = importlib.import_module(f"cubicber.{MODULE_OF[layer]}")
        if not callable(getattr(mod, func, None)):
            missing.append(name)
    assert not missing
    kernel = importlib.import_module("cubicber._mc_numpy")
    assert isinstance(kernel._CHUNK, int)
    # traced.py reads the normal, Philox and GEMM counts from the argument
    # S (the noise basis) by position and name
    assert str(inspect.signature(kernel.decision_sums)) == \
        "(seed, start_trial, ntrials, bit, S, w, sig, sigma0)"


def test_cli_names_used_by_the_benchmark_self_tests():
    # a `from` import the tracer must rewrap, and a sweep built from the
    # SweepConfig field defaults
    assert callable(cli.mean_decision)
    base = SystemParams(tau_c=100e-15, prd=10.0, wavelength=1.55e-6,
                        g_amp=1e5)
    cfg = cli.SweepConfig(base, "p_r_dbm", (33.0,))
    assert cfg.orders and cfg.variants and cfg.r_l_values
    assert callable(cli.build_parser) and callable(cli.main)


def test_law_methods_reach_the_traced_module_functions(monkeypatch):
    # the tracer rebinds module globals only, so the per-layer counts see a
    # threshold search only while the law methods call lp3's and
    # detection's functions through those globals
    from cubicber import detection, lp3
    from cubicber.moments import decision_moments
    from cubicber.params import dbm_to_watts, derive

    calls = {}

    def count(mod, name):
        real = getattr(mod, name)
        key = f"{mod.__name__.rsplit('.', 1)[1]}.{name}"

        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, name, wrapper)

    for name in ("cdf", "sf", "logpdf", "moment", "quantile"):
        count(lp3, name)
    count(detection, "cdf_shot_thermal")
    sp = SystemParams(tau_c=100e-15, prd=10.0, wavelength=1.55e-6,
                      g_amp=1e5, p_r=dbm_to_watts(37.0))
    dp = derive(sp)
    laws = [lp3.fit_from_moments(decision_moments(sp, dp, b))
            for b in (0, 1)]
    detection.optimize_threshold(*laws)
    assert set(calls) == {"lp3.cdf", "lp3.sf", "lp3.logpdf", "lp3.moment"}
    assert calls["lp3.cdf"] == calls["lp3.sf"] == 1
    assert calls["lp3.moment"] == 2
    calls.clear()
    detection.optimize_threshold(*(detection.ShotThermalLaw(law, dp)
                                   for law in laws))
    # bit 0's sf adds the clean law's mass above its panels by lp3.sf, and
    # bit 1's cdf the mass below them by lp3.cdf, once per threshold block
    assert set(calls) == {"lp3.cdf", "lp3.sf", "lp3.logpdf", "lp3.moment",
                          "lp3.quantile", "detection.cdf_shot_thermal"}
    assert calls["lp3.moment"] == calls["lp3.quantile"] == 2
    assert calls["lp3.cdf"] == calls["lp3.sf"] == 1
    assert calls["detection.cdf_shot_thermal"] == 1


def test_every_sweep_search_runs_inside_a_traced_call(monkeypatch):
    # the tracer wraps optimize_threshold through detection's global, so
    # detection.optimize.* see a search only inside such a call: a sweep
    # task makes one list call, and each shot/thermal pair, searched alone,
    # one nested call of its own
    from cubicber import detection

    real_optimize = detection.optimize_threshold
    real_search = detection._search
    local = threading.local()
    calls, searches = [], []

    def optimize_threshold(law0, law1):
        depth = getattr(local, "depth", 0)
        calls.append((depth, type(law0).__name__))
        local.depth = depth + 1
        try:
            return real_optimize(law0, law1)
        finally:
            local.depth = depth

    def search(law0, law1, n):
        searches.append(getattr(local, "depth", 0))
        return real_search(law0, law1, n)

    monkeypatch.setattr(detection, "optimize_threshold", optimize_threshold)
    monkeypatch.setattr(detection, "_search", search)
    base = SystemParams(tau_c=100e-15, prd=10.0, wavelength=1.55e-6,
                        g_amp=1e5)
    cfg = cli.SweepConfig(base, "p_r_dbm", (35.0, 37.0),
                          variants=("lp3", "gauss_approx",
                                    "lp3_shot_thermal"),
                          analytic_only=True)
    rows = cli.run_ber_sweep(cfg)
    assert len(rows) == 6 and not any(r["error"] for r in rows)
    # the draw-less points are one task: its list call, then the searches
    # of the LP3 stack, the Gaussian stack and the two shot/thermal pairs
    assert calls == [(0, "list"), (1, "ShotThermalLaw"),
                     (1, "ShotThermalLaw")]
    assert len(searches) == 4 and all(d >= 1 for d in searches)


def test_stream_reaches_the_traced_rng_functions(monkeypatch):
    # rng.philox_blocks, rng.philox_busy_s and rng.invnorm_busy_s see a
    # draw only while coefficient_normals calls philox4 and
    # inverse_normal_cdf through _rng's globals, once and twice a tile
    real_philox, real_ndtri = _rng.philox4, _rng.inverse_normal_cdf
    counters, uniforms = [], []

    def philox4(*args):
        words = real_philox(*args)
        counters.append(words[0].size)
        return words

    def inverse_normal_cdf(p):
        uniforms.append(p.size)
        return real_ndtri(p)

    monkeypatch.setattr(_rng, "philox4", philox4)
    monkeypatch.setattr(_rng, "inverse_normal_cdf", inverse_normal_cdf)
    nblocks, ntrials = 165, 2048
    _rng.coefficient_normals(1, np.arange(ntrials), 1, np.arange(nblocks))
    rows = _rng._TILE // nblocks
    tiles = [min(rows, ntrials - i) * nblocks
             for i in range(0, ntrials, rows)]
    assert counters == tiles
    assert uniforms == [n for n in tiles for _ in range(2)]
