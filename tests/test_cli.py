"""CLI contract: exit codes, CSV schema, determinism, command behavior.

Everything runs in-process through main(argv) so coverage and speed stay
reasonable; stdout/stderr are captured with capsys.
"""

import math

import numpy as np
import pytest

from cubicber import cli, lp3, montecarlo
from cubicber.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_TOLERANCE, main
from cubicber.lp3 import Lp3Params
from cubicber.params import SystemParams, derive

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
    # every analytic variant must land on BER exactly 1/2
    cfg = write_cfg(tmp_path, "sweep_p_r_dbm = -270:-270:1\norders = 3\n")
    assert main(["ber-sweep", "--config", cfg, "--analytic-only"]) == EXIT_OK
    rows = sweep_lines(capsys)
    assert len(rows) == 3
    for r in rows:
        assert float(col(r, "ber")) == 0.5
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
])
def test_sweep_config_errors(tmp_path, capsys, body):
    cfg = write_cfg(tmp_path, body)
    assert main(["ber-sweep", "--config", cfg]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


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


def _bit0_draws(monkeypatch):
    draws = []
    real = montecarlo.generate_samples

    def counted(sp, dp, bit, *args, **kw):
        draws.append((bit, sp.p_r, sp.g_amp))
        return real(sp, dp, bit, *args, **kw)

    monkeypatch.setattr(montecarlo, "generate_samples", counted)
    return draws


def test_power_sweep_shares_bit0_samples_bitwise(monkeypatch):
    # bit 0 carries no signal: one draw serves every power and load, and
    # the rows are byte for byte those of points evaluated one by one
    cfg = _mc_sweep("p_r_dbm", (31.0, 33.0, 35.0), (1000.0, 10000.0))
    alone = cli._Bit0Samples(cfg, [])  # shares nothing
    serial = [r for x in cfg.x_values for rl in cfg.r_l_values
              for r in cli._eval_point(cfg, x, rl, alone)]
    serial.sort(key=lambda r: (r["x_value"], r["rl_ohm"], r["order"],
                               r["variant"]))
    draws = _bit0_draws(monkeypatch)
    swept = cli.run_ber_sweep(cfg)
    assert [cli._format_row(r) for r in swept] == \
        [cli._format_row(r) for r in serial]
    assert not any(r["error"] for r in swept)
    assert sum(bit == 0 for bit, _, _ in draws) == 1
    assert sum(bit == 1 for bit, _, _ in draws) == 6


def test_sigma0_sweep_draws_bit0_at_every_point(monkeypatch):
    # the ASE level changes the bit-0 law, so nothing can be shared
    draws = _bit0_draws(monkeypatch)
    rows = cli.run_ber_sweep(_mc_sweep("sigma0_sq_dbm", (16.0, 18.0, 20.0)))
    assert not any(r["error"] for r in rows)
    gains = [g for bit, _, g in draws if bit == 0]
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
    capsys.readouterr()


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
    assert "gof skipped" in text
    assert out.read_text().startswith("# schema=1\nmc-validate ")


def test_mc_validate_tolerance_exit(tmp_path, capsys, monkeypatch):
    # doctor one closed form to verify the FAIL path and exit code
    monkeypatch.setattr("cubicber.cli.mean_decision",
                        lambda sp, dp, bit: 999.0)
    cfg = write_cfg(tmp_path, "prd = 10\np_r = 33dBm\n")
    rc = main(["mc-validate", "--config", cfg, "--trials", "2000",
               "--seed", "3"])
    assert rc == EXIT_TOLERANCE
    assert "FAIL" in capsys.readouterr().out


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


@pytest.mark.parametrize("body,msg", [
    ("window = 8\n", "window must be an integer >= 16"),
    ("oversample = 4\n", "oversample must be an integer >= 8"),
])
def test_mc_validate_rejects_bad_grid(tmp_path, capsys, body, msg):
    cfg = write_cfg(tmp_path, "prd = 10\np_r = 33dBm\n" + body)
    rc = main(["mc-validate", "--config", cfg, "--trials", "2000"])
    assert rc == EXIT_CONFIG
    assert f"config error: {msg}" in capsys.readouterr().err


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
