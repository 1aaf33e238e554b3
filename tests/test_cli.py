"""CLI contract: exit codes, CSV schema, determinism, command behavior.

Everything runs in-process through main(argv) so coverage and speed stay
reasonable; stdout/stderr are captured with capsys.
"""

import math
import os
import resource
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cubicber import cli, lp3, montecarlo
from cubicber._config import ConfigError, parse_config
from cubicber.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_TOLERANCE, main
from cubicber.lp3 import Lp3Params
from cubicber.params import SystemParams, dbm_to_watts, derive

HEADER = "x_value,x_kind,prd,rl_ohm,variant,th_opt,ber,order,error"


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def sweep_lines(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "# schema=1"
    assert out[1] == HEADER
    return out[2:]


def col(line, name):
    return line.split(",")[HEADER.split(",").index(name)]


# --------------------------------------------------------------------------
# ber-sweep
# --------------------------------------------------------------------------

def test_sweep_row_count_and_order(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
sweep_p_r_dbm = 30:34:2
r_l = 100ohm, 1kohm
orders = 3
""")
    assert main(["ber-sweep", "--config", cfg, "--analytic-only"]) == EXIT_OK
    rows = sweep_lines(capsys)
    # 3 x-points x 2 loads x 1 order x 3 analytic variants
    assert len(rows) == 18
    keys = [(float(col(r, "x_value")), float(col(r, "rl_ohm")),
             int(col(r, "order")), col(r, "variant")) for r in rows]
    assert keys == sorted(keys)
    assert {col(r, "x_kind") for r in rows} == {"p_r_dbm"}


def test_sweep_vanishing_power_is_half(tmp_path, capsys):
    # at -270 dBm the conditional laws coincide at float precision, so
    # every analytic variant lands on BER 1/2, at the bracket's low end.
    # The shot/thermal panels reach down to y = 0 there, below the clean
    # law's lower cut (quantile 1e-14), so they hold all of its mass
    cfg = write_cfg(tmp_path, "sweep_p_r_dbm = -270:-270:1\norders = 3\n")
    assert main(["ber-sweep", "--config", cfg, "--analytic-only"]) == EXIT_OK
    rows = sweep_lines(capsys)
    assert {col(r, "variant"): float(col(r, "ber")) for r in rows} == {
        "gauss_approx": 0.5, "lp3": 0.5, "lp3_shot_thermal": 0.5}
    for r in rows:
        assert col(r, "error") == ""


def test_sweep_sigma0_axis_monotone(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
p_r = 33dBm
sweep_sigma0_sq_dbm = 16:22:2
orders = 3
variants = lp3
""")
    assert main(["ber-sweep", "--config", cfg, "--analytic-only"]) == EXIT_OK
    rows = sweep_lines(capsys)
    assert len(rows) == 4
    assert {col(r, "x_kind") for r in rows} == {"sigma0_sq_dbm"}
    bers = [float(col(r, "ber")) for r in rows]
    ths = [float(col(r, "th_opt")) for r in rows]
    assert all(0 < b < 0.5 for b in bers)
    assert bers == sorted(bers)       # more ASE, worse BER
    assert ths == sorted(ths)


def test_sweep_prd_axis_and_point_errors(tmp_path, capsys):
    # prd=0 is invalid: that point must fail row-locally, not kill the run
    cfg = write_cfg(tmp_path, """
sweep_prd = 0, 10
p_r = 33dBm
orders = 3
variants = lp3
""")
    assert main(["ber-sweep", "--config", cfg, "--analytic-only"]) == EXIT_OK
    rows = sweep_lines(capsys)
    assert len(rows) == 2
    bad, good = rows
    assert col(bad, "error") != ""
    assert math.isnan(float(col(bad, "ber")))
    assert col(good, "error") == ""
    assert 0.0 < float(col(good, "ber")) < 0.5
    assert "," not in col(bad, "error")  # commas are scrubbed for CSV


def test_failed_prd_point_prints_its_own_prd(tmp_path, capsys):
    # on the prd axis the prd column is the point's x, also in error rows
    cfg = write_cfg(tmp_path, """
sweep_prd = 0.5, 10
p_r = 33dBm
orders = 3
variants = lp3
""")
    assert main(["ber-sweep", "--config", cfg, "--analytic-only"]) == EXIT_OK
    bad, good = sweep_lines(capsys)
    assert bad.startswith("0.5,prd,0.5,1000,lp3,nan,nan,3,")
    assert col(bad, "error") == "prd must be >= 1"
    assert col(good, "prd") == "10" and col(good, "error") == ""


def test_sweep_mc_deterministic_reruns(tmp_path):
    cfg = write_cfg(tmp_path, """
sweep_p_r_dbm = 33:33:1
orders = 3
variants = lp3, mc
trials = 2000
seed = 11
""")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["ber-sweep", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["ber-sweep", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().splitlines()
    assert lines[0] == "# schema=1" and lines[1] == HEADER
    assert len(lines) == 4
    mc_row = [l for l in lines[2:] if col(l, "variant") == "mc"][0]
    assert 0.0 <= float(col(mc_row, "ber")) <= 0.5


def test_sweep_seed_changes_mc_only(tmp_path):
    cfg = write_cfg(tmp_path, """
sweep_p_r_dbm = 33:33:1
orders = 3
variants = lp3, mc
trials = 2000
""")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    main(["ber-sweep", "--config", cfg, "--seed", "1", "--out", str(out1)])
    main(["ber-sweep", "--config", cfg, "--seed", "2", "--out", str(out2)])
    rows1 = out1.read_text().strip().splitlines()[2:]
    rows2 = out2.read_text().strip().splitlines()[2:]
    get = lambda rows, v: [l for l in rows if col(l, "variant") == v][0]
    assert get(rows1, "lp3") == get(rows2, "lp3")
    assert col(get(rows1, "mc"), "ber") != col(get(rows2, "mc"), "ber")


@pytest.mark.parametrize("body", [
    "orders = 3\n",                                      # no axis
    "sweep_p_r_dbm = 1:2:1\nsweep_prd = 10, 25\n",       # two axes
    "sweep_p_r_dbm = 1:2:1\nvariants = lp3, bogus\n",    # unknown variant
    "sweep_p_r_dbm = 1:2:1\nvariants = mc\nanalytic_only = true\n",
    "sweep_p_r_dbm = 1:2:1\nvariants = mc\ntrials = 500\n",
    "sweep_p_r_dbm = 1:2:1\nvariants = mc\nseed = 18446744073709551616\n",
    "sweep_p_r_dbm = 1:2:1\nvariants = mc\nwindow = 8\n",
    "sweep_p_r_dbm = 1:2:1\norders = 1, 3\noversample = 4\n",
    "sweep_p_r_dbm = 33:33:1\norders = 3, 3\n",         # repeated settings
    "sweep_p_r_dbm = 33:33:1\nvariants = lp3, lp3\n",
    "sweep_p_r_dbm = 33:33:1\nr_l = 100ohm, 0.1kohm\n",
])
def test_sweep_config_errors(tmp_path, capsys, body):
    cfg = write_cfg(tmp_path, body)
    assert main(["ber-sweep", "--config", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key,kw", [
    ("orders", dict(orders=(3, 1, 3))),
    ("variants", dict(variants=("lp3", "gauss_approx", "lp3"))),
    ("r_l", dict(r_l_values=(100.0, 100.0)))])
def test_sweep_config_names_a_repeated_setting(key, kw):
    # a repeat would print its rows twice and rerun their searches; a
    # repeated sweep-axis value is a point of its own and stays allowed
    base = SystemParams(tau_c=100e-15, prd=10.0, wavelength=1.55e-6,
                        g_amp=1e5)
    with pytest.raises(cli.ConfigError, match=f"^{key} repeats a value"):
        cli.SweepConfig(base, "p_r_dbm", (33.0,), analytic_only=True, **kw)
    cli.SweepConfig(base, "p_r_dbm", (33.0, 33.0), analytic_only=True)


def test_sweep_config_applies_the_analytic_only_rules():
    # built directly, as by the CLI: analytic_only drops mc from the
    # default variants, and rejects it when asked for
    base = SystemParams(tau_c=100e-15, prd=10.0, wavelength=1.55e-6,
                        g_amp=1e5)
    cfg = cli.SweepConfig(base, "p_r_dbm", (33.0,), analytic_only=True)
    assert cfg.variants == ("lp3", "lp3_shot_thermal", "gauss_approx")
    assert all(r["error"] == "" for r in cli.run_ber_sweep(cfg))
    with pytest.raises(cli.ConfigError, match="excludes the mc variant"):
        cli.SweepConfig(base, "p_r_dbm", (33.0,), variants=("lp3", "mc"),
                        analytic_only=True)


def test_sweep_dbm_axes_agree(tmp_path, capsys):
    # p_r = 33dBm in the config and 33 on the dBm axis are the same power
    rows = []
    for axis in ("p_r = 33dBm\nsweep_prd = 10\n",
                 "prd = 10\nsweep_p_r_dbm = 33:37:4\n"):
        cfg = write_cfg(tmp_path, axis + "orders = 3\nvariants = lp3\n")
        assert main(["ber-sweep", "--config", cfg]) == EXIT_OK
        rows.append(sweep_lines(capsys)[0])
    pick = lambda r: [col(r, c) for c in ("prd", "th_opt", "ber", "order")]
    assert pick(rows[0]) == pick(rows[1])


def test_flag_overrides_config_key(tmp_path):
    cfg = write_cfg(tmp_path, """
sweep_p_r_dbm = 33:33:1
orders = 3
variants = mc
trials = 2000
seed = 2
""")
    outs = [tmp_path / f"{n}.csv" for n in "abc"]
    main(["ber-sweep", "--config", cfg, "--out", str(outs[0])])
    main(["ber-sweep", "--config", cfg, "--seed", "2", "--out", str(outs[1])])
    main(["ber-sweep", "--config", cfg, "--seed", "1", "--out", str(outs[2])])
    a, b, c = (o.read_bytes() for o in outs)
    assert a == b != c


def test_config_seed_parses_exactly(tmp_path):
    # 2^53 + 1 as a config key draws the rows of the same flag, not those of
    # 2^53 that a float rounds it to; 2^64 - 1, which a float rounds to
    # 2^64, is a valid seed
    cfg = write_cfg(tmp_path, """
sweep_p_r_dbm = 33:33:1
orders = 3
variants = mc
trials = 1000
""")

    def rows(seed, flag):
        out = tmp_path / "out.csv"
        path = cfg if flag else write_cfg(
            tmp_path, Path(cfg).read_text() + f"seed = {seed}\n", "seed.cfg")
        argv = ["ber-sweep", "--config", path, "--out", str(out)]
        assert main(argv + (["--seed", str(seed)] if flag else [])) == EXIT_OK
        return out.read_bytes()

    key = rows(2**53 + 1, flag=False)
    assert key == rows(2**53 + 1, flag=True) != rows(2**53, flag=True)
    assert rows(2**64 - 1, flag=False) == rows(2**64 - 1, flag=True)


def test_trials_flag_in_exponent_form_matches_the_key(tmp_path, capsys):
    # --trials 1e4 and trials = 10000 are one setting: same report, same file
    system = "prd = 100\np_r = 33dBm\nseed = 1\n"
    runs = []
    for text, flag in ((system + "trials = 10000\n", []),
                       (system, ["--trials", "1e4"])):
        out = tmp_path / f"mc{len(runs)}.txt"
        cfg = write_cfg(tmp_path, text, f"run{len(runs)}.cfg")
        assert main(["mc-validate", "--config", cfg, "--out", str(out),
                     *flag]) == EXIT_OK
        runs.append((capsys.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]
    assert " trials=10000 " in runs[1][0]


@pytest.mark.parametrize("argv,key,value", [
    (["ber-sweep", "--seed", "1e0"], "seed", 1),
    (["mc-validate", "--seed", "1e0"], "seed", 1),
    (["ber-sweep", "--trials", "2e3"], "trials", 2000),
    (["fit", "--order", "3e0"], "order", 3),
    (["gof", "--bit", "1e0"], "bit", 1),
])
def test_integer_flags_take_the_config_number_grammar(argv, key, value):
    assert getattr(cli.build_parser().parse_args(argv), key) == value


# the reason a usage error gives: the ConfigError of the key's parser
FLAG_REASONS = {"1e400": "'1e400' is out of range",
                "1.5": "expected an integer, got '1.5'"}


@pytest.mark.parametrize("raw", ["1e400", "1.5"])
def test_integer_flags_reject_what_their_keys_reject(raw, capsys):
    # a value that is not finite is a usage error too, not the OverflowError
    # of int(inf), which argparse would let through as a traceback
    with pytest.raises(ConfigError, match=FLAG_REASONS[raw]):
        parse_config(f"trials = {raw}")
    with pytest.raises(SystemExit) as exc:
        main(["ber-sweep", "--trials", raw])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument --trials: {FLAG_REASONS[raw]}\n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["ber-sweep", "--emit-plot-script"],
    ["fit", "--moments", "2", "5", "14", "--seed", "1"],
    ["gof", "--seed", "1"],
])
def test_removed_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_unknown_config_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "swep_p_r_dbm = 1:2:1\n")
    assert main(["ber-sweep", "--config", cfg]) == EXIT_CONFIG
    assert "unknown key" in capsys.readouterr().err


def test_pre_amplifier_loss_key_is_rejected(tmp_path, capsys):
    # l1 entered no formula once p_r is given, so it is not a setting
    cfg = write_cfg(tmp_path, "l1 = 0.5\nsweep_p_r_dbm = 33:33:1\n"
                              "orders = 3\nvariants = lp3\n")
    assert main(["ber-sweep", "--config", cfg, "--analytic-only"]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and "unknown key 'l1'" in err


def _mc_sweep(x_kind, xs, r_l_values=(1000.0,)):
    base = SystemParams(tau_c=100e-15, prd=10.0, wavelength=1.55e-6,
                        g_amp=1e5)
    return cli.SweepConfig(base, x_kind, xs, orders=(1, 3),
                           variants=("lp3", "mc"), r_l_values=r_l_values,
                           trials=2000, seed=6)


def test_order_2_shot_thermal_rows_are_errors():
    # order 2's detector scale is a placeholder, so sigma^2(y) = 2 q y / T_p
    # has no physical scale there; orders 1 and 3 fold the noise in
    base = SystemParams(tau_c=100e-15, prd=10.0, wavelength=1.55e-6,
                        g_amp=1e5)
    cfg = cli.SweepConfig(base, "p_r_dbm", (35.0,), orders=(1, 2, 3),
                          variants=("lp3", "lp3_shot_thermal"),
                          trials=2000, seed=6)
    rows = {(r["order"], r["variant"]): r for r in cli.run_ber_sweep(cfg)}
    assert len(rows) == 6
    bad = rows[2, "lp3_shot_thermal"]
    assert math.isnan(bad["th_opt"]) and math.isnan(bad["ber"])
    assert "order 2" in bad["error"]
    for key, r in rows.items():
        if key != (2, "lp3_shot_thermal"):
            assert r["error"] == "" and 0.0 < r["ber"] < 0.5


def _draws(monkeypatch, events=None):
    # (bit, system) of every sample draw; ("start" | "end", bit) of each
    # into the list events, if given
    draws = []
    real = montecarlo.generate_samples

    def counted(sp, dp, bit, *args, **kw):
        draws.append((bit, sp))
        if events is not None:
            events.append(("start", bit))
        try:
            return real(sp, dp, bit, *args, **kw)
        finally:
            if events is not None:
                events.append(("end", bit))

    monkeypatch.setattr(montecarlo, "generate_samples", counted)
    return draws


def _serial_rows(cfg):
    # each point swept on its own, so it shares no draw
    rows = [r for x in cfg.x_values for rl in cfg.r_l_values
            for r in cli.run_ber_sweep(replace(cfg, x_values=(x,),
                                               r_l_values=(rl,)))]
    rows.sort(key=lambda r: (r["x_value"], r["rl_ohm"], r["order"],
                             r["variant"]))
    return [cli._format_row(r) for r in rows]


def test_power_sweep_shares_bit0_samples_bitwise(monkeypatch):
    # bit 0 carries no signal and bit 1 differs between powers only in its
    # signal term: one draw of each serves every power and load, and the
    # rows are byte for byte those of points evaluated one by one
    cfg = _mc_sweep("p_r_dbm", (31.0, 33.0, 35.0), (1000.0, 10000.0))
    serial = _serial_rows(cfg)
    draws = _draws(monkeypatch)
    swept = cli.run_ber_sweep(cfg)
    assert [cli._format_row(r) for r in swept] == serial
    assert not any(r["error"] for r in swept)
    assert sum(bit == 0 for bit, _ in draws) == 1
    assert sum(bit == 1 for bit, _ in draws) == 1


@pytest.mark.parametrize("analytic_only", [False, True])
def test_a_failing_search_fails_only_its_own_rows(monkeypatch,
                                                  analytic_only):
    # all pairs of a task, of all three kinds, are searched in one call. At
    # 35 dBm bit 1's order-3 LP3 density raises, a kernel error, and at 60
    # dBm the order-3 LP3 densities do not cross: each fails only the rows
    # whose laws hold it, the shot/thermal rows over the same clean laws
    # among them, and every row is byte for byte that of the point swept
    # alone
    cfg = replace(_mc_sweep("p_r_dbm", (33.0, 35.0, 60.0)),
                  variants=("lp3", "lp3_shot_thermal", "gauss_approx", "mc"))
    if analytic_only:
        cfg = replace(cfg, variants=cfg.variants[:-1], analytic_only=True)
    sp = replace(cfg.base, p_r=dbm_to_watts(35.0))
    bad = lp3.fit_from_moments(cli.decision_moments(sp, derive(sp), 1))
    real = lp3.logpdf

    def failing(law, y):
        if np.any(np.asarray(law.alpha) == bad.alpha):
            raise lp3.Lp3Error("density failed")
        return real(law, y)

    monkeypatch.setattr(lp3, "logpdf", failing)
    serial = _serial_rows(cfg)
    swept = [cli._format_row(r) for r in cli.run_ber_sweep(cfg)]
    assert swept == serial
    # (x_value, variant, order, error) of each row with an error
    failed = {(c[0], c[4], c[7], c[8]) for c in (r.split(",") for r in swept)
              if c[8]}
    apart = "the bit densities do not cross in the bracket"
    want = {("35", "lp3", "3", "density failed"),
            ("35", "lp3_shot_thermal", "3", "density failed"),
            ("60", "lp3", "3", apart), ("60", "lp3_shot_thermal", "3", apart)}
    if analytic_only:
        want |= {(x, v, "1", "Monte-Carlo sampling disabled by analytic_only")
                 for x in ("33", "35", "60") for v in cfg.variants}
    else:  # order 1's shot/thermal densities at 60 dBm do not cross either
        want.add(("60", "lp3_shot_thermal", "1", apart))
    assert failed == want


def test_power_sweep_batches_bit1_within_the_byte_budget(monkeypatch):
    # a budget of two powers' decision sums splits five powers into
    # batches of 2, 2 and 1; the rows do not move
    cfg = _mc_sweep("p_r_dbm", (29.0, 31.0, 33.0, 35.0, 37.0),
                    (1000.0, 10000.0))
    serial = _serial_rows(cfg)
    monkeypatch.setattr(cli, "_BATCH_BYTES", 2 * 24 * cfg.trials + 1)
    draws = _draws(monkeypatch)
    swept = cli.run_ber_sweep(cfg)
    assert [cli._format_row(r) for r in swept] == serial
    assert sum(bit == 0 for bit, _ in draws) == 1
    assert sum(bit == 1 for bit, _ in draws) == 3


@pytest.mark.parametrize("npowers,per,sizes", [
    (5, 4, [2, 3]), (7, 3, [2, 2, 3]), (5, 2, [1, 2, 2])])
def test_bit1_batches_are_even_within_the_byte_budget(monkeypatch, npowers,
                                                      per, sizes):
    # the fewest batches that the budget of per powers' decision sums
    # allows, their sizes at most one power apart: five powers at a budget
    # of four go as 3 and 2, not 4 and 1; the rows do not move
    cfg = _mc_sweep("p_r_dbm", tuple(29.0 + i for i in range(npowers)))
    serial = _serial_rows(cfg)
    monkeypatch.setattr(cli, "_BATCH_BYTES", per * 24 * cfg.trials)
    drawn = []
    real = montecarlo.generate_samples

    def counted(sp, dp, bit, *args, powers=None, **kw):
        if bit == 1:
            drawn.append(len(powers))
        return real(sp, dp, bit, *args, powers=powers, **kw)

    monkeypatch.setattr(montecarlo, "generate_samples", counted)
    assert [cli._format_row(r) for r in cli.run_ber_sweep(cfg)] == serial
    assert sorted(drawn) == sizes


def test_sweep_under_thread_contention(monkeypatch):
    # more threads than cores and a short switch interval: each draw is
    # made once, bit 1 only after bit 0, and the rows do not move
    cfg = _mc_sweep("p_r_dbm", (29.0, 31.0, 33.0, 35.0), (1000.0, 10000.0))
    serial = _serial_rows(cfg)
    monkeypatch.setattr(cli, "_BATCH_BYTES", 2 * 24 * cfg.trials)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    events = []
    draws = _draws(monkeypatch, events)
    swept = []
    sweep = threading.Thread(target=lambda: swept.extend(
        cli.run_ber_sweep(cfg)), daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sweep.start()
        sweep.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not sweep.is_alive()
    assert [cli._format_row(r) for r in swept] == serial
    assert sorted(bit for bit, _ in draws) == [0, 1, 1]
    assert events[:2] == [("start", 0), ("end", 0)]


def test_prd_sweep_draws_each_key_once(monkeypatch):
    # a PRD repeated in the sweep is one noise key: two keys, each drawn
    # once per bit, and the repeated points get equal rows
    cfg = _mc_sweep("prd", (10.0, 25.0, 10.0), (1000.0, 10000.0))
    serial = _serial_rows(cfg)
    draws = _draws(monkeypatch)
    swept = cli.run_ber_sweep(cfg)
    assert [cli._format_row(r) for r in swept] == serial
    assert not any(r["error"] for r in swept)
    assert sorted((bit, sp.prd) for bit, sp in draws) == [
        (0, 10.0), (0, 25.0), (1, 10.0), (1, 25.0)]


def test_overflowing_power_fails_only_its_own_rows():
    # 2030 dBm overflows the shared bit-1 draw and the closed-form
    # moments; the 30 dBm rows are those of 30 dBm swept alone, and the
    # overflow raises no RuntimeWarning
    base = SystemParams(tau_c=100e-15, prd=10.0, wavelength=1.55e-6,
                        g_amp=1e5)
    cfg = cli.SweepConfig(base, "p_r_dbm", (30.0, 2030.0), orders=(3,),
                          variants=("lp3", "gauss_approx", "mc"),
                          trials=1000)
    rows = [cli._format_row(r) for r in cli.run_ber_sweep(cfg)]
    alone = [cli._format_row(r) for r in
             cli.run_ber_sweep(replace(cfg, x_values=(30.0,)))]
    assert rows[:3] == alone
    assert all(r.endswith(",") for r in alone)  # no error
    for row in rows[3:5]:  # gauss_approx and lp3
        assert row.endswith(
            ",closed-form moment mu1 of bit 1 overflows a float")
    assert rows[5].endswith("decision samples must be finite and >= 0")


def test_system_whose_constants_fail_fails_only_its_rows():
    # at a wavelength of 1e300 m the photon energy h c / lambda underflows
    # to 0, so derive divides by zero: a point error, not a crash
    base = SystemParams(tau_c=100e-15, prd=10.0, wavelength=1e300, g_amp=1e5)
    cfg = cli.SweepConfig(base, "p_r_dbm", (30.0,), orders=(3,),
                          analytic_only=True)
    rows = cli.run_ber_sweep(cfg)
    assert [r["error"] for r in rows] == ["float division by zero"] * 3


GAMMA_NL_OVERFLOWS = "gamma_nl**2 overflows a float (gamma_nl = 1e+200)"


def test_gamma_nl_whose_square_overflows_names_it_in_every_row():
    # float ** raises OverflowError where * gives inf; derive says which
    # parameter it was, in the closed-form and the Monte-Carlo rows alike
    base = SystemParams(tau_c=100e-15, prd=10.0, gamma_nl=1e200)
    cfg = cli.SweepConfig(base, "p_r_dbm", (33.0,), orders=(3,),
                          trials=1000)
    rows = cli.run_ber_sweep(cfg)
    assert [r["variant"] for r in rows] == sorted(cli.VARIANTS)
    assert [r["error"] for r in rows] == [GAMMA_NL_OVERFLOWS] * 4
    assert all(math.isnan(r["ber"]) for r in rows)


def test_infinite_thermal_variance_is_a_shot_thermal_row_error(tmp_path,
                                                               capsys):
    # 4 k_B T_r / (R_L T_p) overflows to inf; the row says so, and no
    # quadrature runs on it
    cfg = write_cfg(tmp_path, "t_r = 1e308\nr_l = 1e-300ohm\n"
                    "sweep_p_r_dbm = 33:33:1\norders = 3\n"
                    "analytic_only = true\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ber-sweep", "--config", cfg]) == EXIT_OK
    rows = {r.split(",")[4]: r for r in sweep_lines(capsys)}
    assert rows["lp3_shot_thermal"] == (
        "33,p_r_dbm,10,1e-300,lp3_shot_thermal,nan,nan,3,shot and thermal "
        "noise terms must be > 0 and finite")
    assert rows["lp3"].endswith(",3,") and rows["gauss_approx"].endswith(",3,")


@pytest.mark.parametrize("x", [100.0, 110.0])
def test_gauss_approx_row_needs_only_its_own_moments(x):
    # the Gaussian takes mu1 and mu2 only: an LP3 fit that fails on the
    # same moments fails the LP3 rows alone
    cfg = cli.SweepConfig(SystemParams(prd=10.0), "p_r_dbm", (x,),
                          orders=(3,), analytic_only=True)
    rows = {r["variant"]: r for r in cli.run_ber_sweep(cfg)}
    for v in ("lp3", "lp3_shot_thermal"):
        assert rows[v]["error"].startswith("moment ratio rho=")
    gauss = rows["gauss_approx"]
    assert gauss["error"] == ""
    assert gauss["th_opt"] == pytest.approx(
        {100.0: 4.15e-3, 110.0: 1.31e-2}[x], rel=1e-2)


SRC = Path(__file__).resolve().parents[1] / "src"


def _cli_in_2gib(tmp_path, config, *argv):
    """The CLI run in a child process whose address space is capped at
    2 GiB, so an array that numpy cannot allocate fails whatever the
    host's overcommit setting."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(path))
    cmd = [sys.executable, "-m", "cubicber.cli", argv[0], "--config",
           write_cfg(tmp_path, config), *argv[1:]]
    return subprocess.run(cmd, env=env, preexec_fn=cap, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("config,trials,lp3_row", [
    ("sweep_p_r_dbm = 33:33:1\n", "1000000000000",
     "33,p_r_dbm,10,1000,lp3,7.231807362619238e-06,0.028907664060914957,3,"),
    ("sweep_prd = 100000\n", "1000",
     "100000,prd,100000,1000,lp3,1.6811510108314994e-08,0.5,3,"),
], ids=["trials", "basis"])
def test_draw_numpy_cannot_allocate_fails_only_mc_rows(tmp_path, config,
                                                       trials, lp3_row):
    # 10^12 trials need 21.8 TiB of decision sums, PRD 10^5 a 1.16 TiB
    # sinc basis: the mc row says so, and the lp3 row keeps its numbers
    p = _cli_in_2gib(tmp_path, config + "orders = 3\nvariants = lp3, mc\n",
                     "ber-sweep", "--trials", trials)
    assert (p.returncode, p.stderr) == (EXIT_OK, "")
    rows = p.stdout.splitlines()[2:]
    assert rows[0] == lp3_row
    mc = rows[1].split(",")
    assert mc[4:7] == ["mc", "nan", "nan"]
    assert mc[8].startswith("Unable to allocate ")


def test_sigma0_sweep_draws_bit0_at_every_point(monkeypatch):
    # the ASE level changes the noise field, so nothing can be shared
    draws = _draws(monkeypatch)
    rows = cli.run_ber_sweep(_mc_sweep("sigma0_sq_dbm", (16.0, 18.0, 20.0)))
    assert not any(r["error"] for r in rows)
    for b in (0, 1):
        gains = [sp.g_amp for bit, sp in draws if bit == b]
        assert len(gains) == 3 and len(set(gains)) == 3


def test_sweep_missing_config_file(tmp_path, capsys):
    rc = main(["ber-sweep", "--config", str(tmp_path / "nope.cfg")])
    assert rc == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


# --------------------------------------------------------------------------
# shared sample CSV fixture
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    from tests.conftest import make_system
    sp = make_system(prd=10.0, p_r_dbm=33.0)
    dp = derive(sp)
    sets = []
    for bit in (0, 1):
        got = montecarlo.generate_samples(sp, dp, bit=bit, n_trials=12_000,
                                          orders=(3,), seed=5)
        sets.append(got[3])
    path = tmp_path_factory.mktemp("cli") / "samples.csv"
    montecarlo.save_csv(path, sets)
    return str(path)


# --------------------------------------------------------------------------
# fit
# --------------------------------------------------------------------------

def test_fit_from_moments_recovers_law(capsys):
    law = Lp3Params(alpha=2.5, beta=0.2, gamma=0.3)
    ms = [lp3.moment(law, n) for n in (1, 2, 3)]
    rc = main(["fit", "--moments", *[f"{m:.17g}" for m in ms]])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    machine = [l for l in out.splitlines() if l.startswith("fit_result ")]
    assert len(machine) == 1
    fields = dict(kv.split("=") for kv in machine[0].split()[1:])
    assert float(fields["alpha"]) == pytest.approx(2.5, rel=1e-9)
    assert float(fields["beta"]) == pytest.approx(0.2, rel=1e-9)
    assert float(fields["gamma"]) == pytest.approx(0.3, abs=1e-9)
    for n in (1, 2, 3):
        assert f"mu{n}: input" in out


def test_fit_writes_out_csv(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    rc = main(["fit", "--moments", "2.0", "5.0", "14.0", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "alpha,beta,gamma"
    a, b, g = (float(v) for v in lines[2].split(","))
    law = Lp3Params(alpha=a, beta=b, gamma=g)
    assert lp3.moment(law, 1) == pytest.approx(2.0, rel=1e-9)
    assert lp3.moment(law, 2) == pytest.approx(5.0, rel=1e-9)
    assert lp3.moment(law, 3) == pytest.approx(14.0, rel=1e-9)
    # the file is the schema line and the fit_result values, nothing else
    fit = capsys.readouterr().out.splitlines()[-1].split()
    assert fit[0] == "fit_result"
    values = ",".join(kv.split("=")[1] for kv in fit[1:])
    assert out.read_text() == f"# schema=1\nalpha,beta,gamma\n{values}\n"


def test_fit_from_samples_reports_ks(sample_csv, capsys):
    rc = main(["fit", "--samples", sample_csv, "--order", "3", "--bit", "1"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    ks_lines = [l for l in out.splitlines() if l.startswith("ks = ")]
    assert len(ks_lines) == 1
    ks = float(ks_lines[0].split("=")[1])
    assert 0.0 < ks < 0.05  # moment fit should track its own sample closely


def test_fit_matches_direct_sample_moments(sample_csv, capsys):
    rc = main(["fit", "--samples", sample_csv, "--order", "3", "--bit", "1"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    machine = [l for l in out.splitlines() if l.startswith("fit_result ")][0]
    fields = dict(kv.split("=") for kv in machine.split()[1:])

    s = [g for g in montecarlo.load_csv(sample_csv)
         if g.order == 3 and g.bit == 1][0]
    x = s.values
    law = lp3.fit_from_moments((x.mean(), (x * x).mean(), (x ** 3).mean()))
    assert float(fields["alpha"]) == pytest.approx(law.alpha, rel=1e-12)
    assert float(fields["beta"]) == pytest.approx(law.beta, rel=1e-12)
    assert float(fields["gamma"]) == pytest.approx(law.gamma, rel=1e-12)


def test_fit_infeasible_moments_is_numeric_failure(tmp_path, capsys):
    # mu2 < mu1^2 cannot come from any distribution, nor can a negative mu1
    for ms in (["1.0", "0.9", "3.0"], ["-1", "2", "3"]):
        assert main(["fit", "--moments", *ms]) == EXIT_NUMERIC
        assert "fit failed" in capsys.readouterr().err
    # all-zero samples load fine and fail in the fit, not as config errors
    zeros = tmp_path / "zeros.csv"
    montecarlo.save_csv(zeros, [montecarlo.SampleSet(order=3, bit=0,
                                                     values=np.zeros(4))])
    rc = main(["fit", "--samples", str(zeros), "--bit", "0"])
    assert rc == EXIT_NUMERIC
    assert "fit failed" in capsys.readouterr().err


def _lognormal_csv(tmp_path, scale):
    # 10 000 order-3, bit-1 samples of a lognormal law times scale
    values = np.random.default_rng(1).lognormal(0.0, 0.3, 10_000) * scale
    path = tmp_path / "samples.csv"
    montecarlo.save_csv(path, [montecarlo.SampleSet(order=3, bit=1,
                                                    values=values)])
    return str(path)


# numpy raises these warnings from its own frames, which the package's
# warning filter does not reach, so the tests turn every one into an error
@pytest.mark.parametrize("scale", [1e60, 1e160])
def test_fit_of_huge_samples_warns_nothing(tmp_path, capsys, scale):
    # y^6 (the standard error of mu3) overflows at 1e60, mu2 at 1e160
    path = _lognormal_csv(tmp_path, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["fit", "--samples", path])
    got = capsys.readouterr()
    if scale == 1e160:
        assert rc == EXIT_NUMERIC and got.out == ""
        assert got.err == "fit failed: moments must be finite\n"
    else:
        assert rc == EXIT_OK and got.err == ""
        assert "\nks = " in got.out


@pytest.mark.parametrize("scale", [1e60, 1e160])
def test_gof_of_huge_samples_warns_nothing(tmp_path, capsys, scale):
    # at 1e160 the sample variance overflows, and no candidate can fit
    path = _lognormal_csv(tmp_path, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["gof", "--samples", path])
    got = capsys.readouterr()
    assert rc == EXIT_OK and got.err == ""
    rows = got.out.splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        assert row.partition("  [")[2] == (
            "unfit: sample variance overflows a float]" if scale == 1e160
            else "")


def test_fit_needs_exactly_one_source(sample_csv, capsys):
    assert main(["fit"]) == EXIT_CONFIG
    assert main(["fit", "--moments", "1", "2", "3",
                 "--samples", sample_csv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_fit_missing_group_in_samples(sample_csv, capsys):
    rc = main(["fit", "--samples", sample_csv, "--order", "2", "--bit", "1"])
    assert rc == EXIT_CONFIG
    assert "no samples for order=2" in capsys.readouterr().err


# the reason of each moments flag's usage error: the first value that the
# item rule of the moments key rejects
MOMENT_REASONS = {"1e400": "'1e400' is out of range",
                  "inf": "cannot parse quantity 'inf'",
                  "nan": "cannot parse quantity 'nan'",
                  "2_0": "cannot parse quantity '2_0'",
                  "2W": "expected a bare number, got '2W'"}


@pytest.mark.parametrize("ms", [["1e400", "5", "14"], ["inf", "5", "14"],
                                ["2", "5", "nan"], ["2_0", "5", "14"],
                                ["2W", "5", "14"]])
def test_fit_non_finite_moments_are_config_errors(capsys, ms):
    # each value parses with the item rule of the key moments, which
    # rejects all of these: a usage error that gives the rule's reason
    with pytest.raises(ConfigError):
        parse_config(f"moments = {', '.join(ms)}")
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--moments", *ms])
    assert exc.value.code == EXIT_CONFIG
    reason, = (MOMENT_REASONS[m] for m in ms if m in MOMENT_REASONS)
    assert f"argument --moments: {reason}\n" in capsys.readouterr().err


def test_fit_config_file_moments(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "moments = 2.0, 5.0, 14.0\n")
    assert main(["fit", "--config", cfg]) == EXIT_OK
    assert "fit_result" in capsys.readouterr().out


def test_fit_config_wrong_moment_count(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "moments = 2.0, 5.0\n")
    assert main(["fit", "--config", cfg]) == EXIT_CONFIG
    assert "three values" in capsys.readouterr().err


# --------------------------------------------------------------------------
# gof
# --------------------------------------------------------------------------

def test_gof_ranks_sample_csv(sample_csv, tmp_path, capsys):
    out = tmp_path / "gof.csv"
    rc = main(["gof", "--samples", sample_csv, "--order", "3", "--bit", "1",
               "--out", str(out)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "n = 12000" in text
    for name in ("log_pearson3", "normal", "lognormal", "gamma",
                 "inverse_gaussian"):
        assert name in text
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "distribution,ks,ks_rank,ad,ad_rank,chi2,chi2_rank"
    assert len(lines) == 7


@pytest.mark.parametrize("bins", ["0", "-3", "5000"])
def test_gof_unusable_bins_are_config_errors(sample_csv, tmp_path, capsys,
                                             bins):
    # chi^2 always takes N // 50 bins, so gof has no --bins flag:
    # any value given is a config error and no --out file is written
    out = tmp_path / "gof.csv"
    with pytest.raises(SystemExit) as exc:
        main(["gof", "--samples", sample_csv, "--bins", bins,
              "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert (f"unrecognized arguments: --bins {bins}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_gof_config_has_no_bins_key(sample_csv, tmp_path, capsys):
    cfg = write_cfg(tmp_path, f"samples = {sample_csv}\nbins = 50\n")
    assert main(["gof", "--config", cfg]) == EXIT_CONFIG
    assert ("config error: line 2: unknown key 'bins'"
            in capsys.readouterr().err)


def test_gof_requires_samples(capsys):
    assert main(["gof"]) == EXIT_CONFIG
    assert "needs --samples" in capsys.readouterr().err


@pytest.mark.parametrize("command,body", [
    ("gof", "trial,order,value\n0,3,1.0\n"),              # bad header
    ("gof", "trial,order,bit,value\n0,3,1,-1.0\n"),       # negative value
    ("gof", "trial,order,bit,value\n0,3,1,abc\n"),        # not a number
    ("fit", "trial,order,bit,value\n0,3,1,abc\n"),
    ("fit", "trial,order,bit,value\n0,3,1\n"),            # short row
])
def test_malformed_sample_csv_is_config_error(tmp_path, capsys, command,
                                               body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    assert main([command, "--samples", str(path)]) == EXIT_CONFIG
    assert "config error: malformed samples" in capsys.readouterr().err


def test_gof_small_sample_is_numeric_failure(tmp_path, capsys):
    s = montecarlo.SampleSet(order=3, bit=1,
                             values=np.linspace(1.0, 2.0, 1500))
    path = tmp_path / "small.csv"
    montecarlo.save_csv(path, [s])
    rc = main(["gof", "--samples", str(path)])
    assert rc == EXIT_NUMERIC
    assert "gof failed" in capsys.readouterr().err


# --------------------------------------------------------------------------
# mc-validate
# --------------------------------------------------------------------------

def test_mc_validate_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "prd = 10\np_r = 33dBm\n")
    out = tmp_path / "mc.txt"
    rc = main(["mc-validate", "--config", cfg, "--trials", "5000",
               "--seed", "3", "--out", str(out)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    for bit in (0, 1):
        for n in (1, 2, 3):
            assert f"bit{bit} mu{n}:" in text
    assert "FAIL" not in text
    assert text.endswith("\ngof skipped (needs >= 10000 trials)\n")
    # the file is the schema line and the report above the gof line
    report = text[:text.index("gof skipped")]
    assert report.startswith("mc-validate ")
    assert out.read_text() == "# schema=1\n" + report


def test_gof_and_mc_validate_print_the_same_rows(tmp_path, capsys):
    # one renderer: mc-validate's GOF block over its bit-1 draw is the gof
    # table of the same draw, and a fitted row names its failed statistic
    cfg = write_cfg(tmp_path, "prd = 10\np_r = 35dBm\n")
    assert main(["mc-validate", "--config", cfg, "--trials", "10000",
                 "--seed", "5"]) == EXIT_OK
    validate = capsys.readouterr().out.splitlines()
    sp = SystemParams(prd=10.0, p_r=dbm_to_watts(35.0))
    sets = montecarlo.generate_samples(sp, derive(sp), bit=1,
                                       n_trials=10_000, orders=(3,), seed=5)
    path = tmp_path / "samples.csv"
    montecarlo.save_csv(path, [sets[3]])
    assert main(["gof", "--samples", str(path)]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "n = 10000  bins = 200"
    head = validate.index("gof (order 3, bit 1): n=10000 bins=200")
    assert validate[head + 1:] == rows[1:] and len(rows) == 6
    normal, = (r for r in rows if r.startswith("  normal "))
    assert normal.endswith("  [ad: cdf reached 0 or 1 at a sample point]")


def test_mc_validate_tolerance_exit(tmp_path, capsys, monkeypatch):
    # doctor one closed form to verify the FAIL path and exit code
    real = cli.decision_moments
    monkeypatch.setattr("cubicber.cli.decision_moments",
                        lambda sp, dp, bit: (999.0, *real(sp, dp, bit)[1:]))
    cfg = write_cfg(tmp_path, "prd = 10\np_r = 33dBm\n")
    rc = main(["mc-validate", "--config", cfg, "--trials", "2000",
               "--seed", "3"])
    assert rc == EXIT_TOLERANCE
    assert "FAIL" in capsys.readouterr().out


def test_mc_validate_overflowing_closed_form_is_numeric_failure(tmp_path,
                                                                capsys):
    cfg = write_cfg(tmp_path, "prd = 10\np_r = 400dBm\n")
    rc = main(["mc-validate", "--config", cfg, "--trials", "2000"])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err == ("closed form failed: closed-form "
                                       "moment mu3 of bit 1 overflows a "
                                       "float\n")


def test_mc_validate_failing_constants_are_numeric_failure(tmp_path,
                                                         capsys):
    cfg = write_cfg(tmp_path, "prd = 10\np_r = 33dBm\nwavelength = 1e300\n")
    rc = main(["mc-validate", "--config", cfg, "--trials", "2000"])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err == \
        "closed form failed: float division by zero\n"


def test_mc_validate_gamma_nl_overflow_is_numeric_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "prd = 10\np_r = 33dBm\ngamma_nl = 1e200\n")
    rc = main(["mc-validate", "--config", cfg, "--trials", "2000"])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err == \
        f"closed form failed: {GAMMA_NL_OVERFLOWS}\n"


def test_mc_validate_draw_numpy_cannot_allocate_is_numeric_failure(
        tmp_path):
    p = _cli_in_2gib(tmp_path, "prd = 10\np_r = 33dBm\n", "mc-validate",
                     "--trials", "1000000000000")
    assert p.returncode == EXIT_NUMERIC and p.stdout == ""
    assert p.stderr.startswith("sampling failed: Unable to allocate ")


def test_mc_validate_takes_the_closed_forms_before_any_draw(tmp_path,
                                                           capsys,
                                                           monkeypatch):
    # a closed form that overflows fails before the draws, which take far
    # longer at large trial counts
    def refuse(*_, **__):
        raise AssertionError("generate_samples called")

    monkeypatch.setattr(montecarlo, "generate_samples", refuse)
    cfg = write_cfg(tmp_path, "prd = 10\np_r = 400dBm\n")
    rc = main(["mc-validate", "--config", cfg, "--trials", "200000"])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("closed form failed: ")


def test_mc_validate_rejects_small_trials(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "prd = 10\np_r = 33dBm\n")
    rc = main(["mc-validate", "--config", cfg, "--trials", "500"])
    assert rc == EXIT_CONFIG
    assert "1000" in capsys.readouterr().err


def test_mc_validate_rejects_seed_past_2_64(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "prd = 10\np_r = 33dBm\n")
    rc = main(["mc-validate", "--config", cfg, "--trials", "2000",
               "--seed", str(2**64 + 5)])
    assert rc == EXIT_CONFIG
    assert "seed must be in [0, 2^64)" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["window", "oversample"])
def test_mc_validate_rejects_grid_keys(tmp_path, capsys, key):
    # the sampler's grid is fixed: its former settings are unknown keys
    cfg = write_cfg(tmp_path, f"prd = 10\np_r = 33dBm\n{key} = 16\n")
    rc = main(["mc-validate", "--config", cfg, "--trials", "2000"])
    assert rc == EXIT_CONFIG
    assert (f"config error: line 3: unknown key {key!r}"
            in capsys.readouterr().err)


def test_mc_validate_rejects_rl_list(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "prd = 10\np_r = 33dBm\nr_l = 1kohm, 10kohm\n")
    rc = main(["mc-validate", "--config", cfg, "--trials", "2000"])
    assert rc == EXIT_CONFIG
    assert "single r_l" in capsys.readouterr().err


# --------------------------------------------------------------------------
# output files
# --------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["ber-sweep", "fit", "gof",
                                     "mc-validate"])
def test_unwritable_out_is_config_error(tmp_path, capsys, sample_csv,
                                        command):
    # every command reports a failed --out write alike: one line, exit 2
    args = {
        "ber-sweep": ["--analytic-only", "--config", write_cfg(
            tmp_path, "sweep_p_r_dbm = 33:33:1\nvariants = lp3\n",
            "sweep.cfg")],
        "fit": ["--moments", "2", "5", "14"],
        "gof": ["--samples", sample_csv],
        "mc-validate": ["--trials", "1000", "--config",
                        write_cfg(tmp_path, "p_r = 33dBm\n")],
    }[command]
    out = tmp_path / "no_such_dir" / "out.csv"
    assert main([command, *args, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and err.count("\n") == 1
