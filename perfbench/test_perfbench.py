"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import threading

import pytest

import check
import run
import traced
from tracer import Tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))


def _namespaces():
    mods = [importlib.import_module("cubicber")]
    mods += [importlib.import_module(f"cubicber.{m}") for m in traced.LAYERS]
    return {m.__name__: dict(vars(m)) for m in mods}


def test_wrappers_restore_the_original_functions():
    before = _namespaces()
    lp3 = importlib.import_module("cubicber.lp3")
    cli = importlib.import_module("cubicber.cli")
    original_cdf, original_mean = lp3.cdf, cli.mean_decision
    tracer = Tracer()
    traced.install_all(tracer)
    try:
        assert lp3.cdf is not original_cdf
        assert cli.mean_decision is not original_mean  # `from` import alias
        assert lp3.cdf.__wrapped__ is original_cdf
    finally:
        tracer.restore()
    after = _namespaces()
    for name, ns in before.items():
        changed = [k for k in ns if after[name].get(k) is not ns[k]]
        assert not changed, f"{name}: {changed} not restored"


@pytest.fixture(scope="module")
def snapshot():
    """Trace of a two-point analytic sweep plus MC sampling on two threads."""
    cli = importlib.import_module("cubicber.cli")
    mc = importlib.import_module("cubicber.montecarlo")
    params = importlib.import_module("cubicber.params")
    sp = params.SystemParams(tau_c=100e-15, prd=10.0, wavelength=1.55e-6,
                             g_amp=1e5)
    tracer = Tracer()
    traced.install_all(tracer)
    try:
        cfg = cli.SweepConfig(base=sp,
                              x_kind="p_r_dbm", x_values=(33.0, 37.0),
                              variants=("lp3", "gauss_approx"),
                              analytic_only=True)
        rows = cli.run_ber_sweep(cfg)

        def sample():
            mc.generate_samples(sp, params.derive(sp), 1, 3000,
                                orders=(3,), seed=5, start_trial=100)

        worker = threading.Thread(target=sample)
        worker.start()
        sample()
        worker.join(timeout=60)
        assert not worker.is_alive()
    finally:
        tracer.restore()
    assert all(not r["error"] for r in rows)
    return tracer.snapshot()


def test_spans_nest_per_thread_and_self_times_are_nonnegative(snapshot):
    spans = {s["id"]: s for s in snapshot["spans"]}
    assert len({s["thread"] for s in spans.values()}) >= 2
    for s in spans.values():
        assert s["start"] <= s["end"]
        if s["parent"]:
            p = spans[s["parent"]]
            assert p["thread"] == s["thread"]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
            assert p["point"] == s["point"]
    for key, st in snapshot["keys"].items():
        assert st["self_s"] >= -1e-9, key
        assert st["busy_s"] >= st["self_s"] - 1e-9, key


def test_spans_of_one_sweep_point_share_its_id(snapshot):
    spans = {s["id"]: s for s in snapshot["spans"]}
    points = [s for s in spans.values() if s["name"] == "cli._eval_point"]
    assert len(points) == 2 and len({p["point"] for p in points}) == 2
    for s in spans.values():
        root = s
        while root["parent"]:
            root = spans[root["parent"]]
        if root["name"] == "cli._eval_point":
            assert s["point"] == root["point"]


def test_kernel_counts_are_exact(snapshot):
    c = snapshot["counts"]
    # trials 100..3099 span 2 aligned 2048-blocks; PRD 10 basis is 161 x 75
    assert c["synth.chunks"] == 2 * 2
    assert c["synth.trials_requested"] == 2 * 3000
    assert c["synth.trials_computed"] == 2 * 2 * 2048
    assert c["rng.philox_blocks"] == 2 * 2 * 2048 * 75
    assert c["rng.normals"] == 2 * c["rng.philox_blocks"]
    assert c["synth.gemm_flops"] == 4 * (4 * 2048 * 75 * 161
                                         + 6 * 2048 * 161)
    assert snapshot["keys"]["rng.coefficient_normals"]["calls"] == 4
    assert c["cli.points"] == 2 and c["cli.points_failed"] == 0


def _perturb(text: str, variant: str, order: str, factor: float) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines[2:], start=2):
        parts = line.split(",")
        if parts[4] == variant and parts[7] == order:
            parts[6] = repr(float(parts[6]) * factor)
            lines[i] = ",".join(parts)
            break
    return "\n".join(lines) + "\n"


def test_check_rejects_a_perturbed_analytic_row():
    w = WORKLOADS["sweep-shot-thermal"]
    ref = w.reference()
    assert w.check("", ref).failed == 0
    assert w.check("", _perturb(ref, "lp3", "3", 1 + 1e-5)).failed == 1
    assert w.check("", _perturb(ref, "lp3", "3", 1 + 1e-8)).failed == 0
    missing = "\n".join(ref.splitlines()[:-1]) + "\n"
    assert w.check("", missing).failed == 1


def test_check_rejects_an_mc_row_outside_the_binomial_bound():
    w = WORKLOADS["sweep-mc"]
    ref = w.reference()
    assert w.check("", ref).failed == 0
    assert w.check("", _perturb(ref, "mc", "3", 1.5)).failed == 1
    assert w.check("", _perturb(ref, "mc", "3", 1.01)).failed == 0
    assert check.binomial_ok(0.0, 1e-4, 20000, 20000)
    assert not check.binomial_ok(0.0, 1e-2, 20000, 20000)


def test_check_rejects_a_failed_validation_line():
    w = WORKLOADS["validate-long"]
    ref = w.reference()
    assert w.check(ref, "").failed == 0
    bad = ref.replace("tol=0.03 PASS", "tol=0.03 FAIL", 1)
    assert w.check(bad, "").failed == 1


def test_session_counts_a_nonzero_exit_code(tmp_path):
    w = dataclasses.replace(WORKLOADS["sweep-shot-thermal"],
                            system="prd = -1")
    s = run.Session(w, 0, tmp_path)
    res = s.run_cli(traced=False)
    assert res["exit_code"] == 2
    assert s.verdict.failed >= 1
    assert any("exit code 2" in m for m in s.verdict.misses)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_size_runs_end_to_end(name, tmp_path):
    s = run.Session(WORKLOADS[name], 7, tmp_path, smoke=True)
    plain = s.run_cli(traced=False)
    traced_res = s.run_cli(traced=True)
    assert s.verdict.failed == 0, s.verdict.misses
    assert s.verdict.attempted > 2
    assert plain["peak_rss_mb"] > 0 and plain["cpu_s"] > 0
    m = run.layer_metrics(traced_res["trace"], plain, traced_res, 0.0)
    assert set(m) == set(run.PER_LAYER)
    if name == "sweep-shot-thermal":
        assert m["rng.calls"] == 0 and m["detection.st_cdf.calls"] > 0
    else:
        assert m["rng.calls"] > 0 and m["montecarlo.generate.trials"] > 0
