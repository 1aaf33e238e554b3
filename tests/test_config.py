"""Config parsing: unit suffixes, sweep grammar, strict key handling."""

import math

import pytest

from cubicber._config import (KNOWN_KEYS, SWEEP_MAX_POINTS, ConfigError,
                              load_config, parse_config)
from cubicber.cli import EXIT_CONFIG, main


def one(key, raw):
    return parse_config(f"{key} = {raw}")[key]


# --------------------------------------------------------------------------
# unit suffixes
# --------------------------------------------------------------------------

@pytest.mark.parametrize("raw,expect", [
    ("100fs", 100e-15), ("1ps", 1e-12), ("2.5ns", 2.5e-9),
    ("3us", 3e-6), ("4ms", 4e-3), ("0.1s", 0.1), ("1e-13", 1e-13),
])
def test_time_suffixes(raw, expect):
    assert one("tau_c", raw) == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize("raw,expect", [
    ("1550nm", 1550e-9), ("1.55um", 1.55e-6), ("0.3mm", 0.3e-3),
    ("2m", 2.0), ("1.55e-6", 1.55e-6),
])
def test_length_suffixes(raw, expect):
    assert one("wavelength", raw) == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize("raw,expect", [
    ("5nW", 5e-9), ("2uW", 2e-6), ("1mW", 1e-3), ("0.25W", 0.25),
    ("0dBm", 1e-3), ("30dBm", 1.0), ("33dBm", 1e-3 * 10 ** 3.3),
    ("-10dBm", 1e-4), ("0.002", 0.002),
])
def test_power_suffixes(raw, expect):
    assert one("p_r", raw) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("raw,expect", [
    ("50ohm", 50.0), ("1kohm", 1e3), ("10Mohm", 1e7), ("100", 100.0),
])
def test_resistance_suffixes(raw, expect):
    assert one("r_l", raw) == (pytest.approx(expect),)


def test_temperature():
    assert one("t_r", "300K") == 300.0
    assert one("t_r", "77") == 77.0
    with pytest.raises(ConfigError, match="temperature"):
        one("t_r", "300C")


def test_gain_db_and_linear():
    assert one("g_amp", "1e5") == 1e5
    assert one("g_amp", "50dB") == pytest.approx(1e5, rel=1e-12)
    assert one("l2", "-3dB") == pytest.approx(10 ** -0.3, rel=1e-12)
    assert one("l2", "0dB") == 1.0
    with pytest.raises(ConfigError, match="gain"):
        one("g_amp", "50dBm")


@pytest.mark.parametrize("key,raw", [
    ("tau_c", "100nm"),      # length unit on a time
    ("wavelength", "1ps"),   # time unit on a length
    ("p_r", "3kohm"),
    ("r_l", "5W"),
    ("prd", "10ps"),         # bare-number key rejects any suffix
])
def test_wrong_dimension_rejected(key, raw):
    with pytest.raises(ConfigError):
        one(key, raw)


def test_malformed_quantity():
    with pytest.raises(ConfigError, match="parse"):
        one("prd", "ten")
    with pytest.raises(ConfigError):
        one("prd", "1.2.3")


# --------------------------------------------------------------------------
# scalar types
# --------------------------------------------------------------------------

def test_integer_keys():
    assert one("trials", "1000000") == 1000000
    assert isinstance(one("seed", "42"), int)
    assert one("trials", "1e6") == 1000000
    assert one("seed", "9007199254740993") == 2**53 + 1
    assert one("seed", "18446744073709551615") == 2**64 - 1
    assert one("seed", "+7") == 7
    with pytest.raises(ConfigError, match="integer"):
        one("trials", "2.5")


@pytest.mark.parametrize("raw,expect", [
    ("true", True), ("True", True), ("yes", True), ("1", True), ("on", True),
    ("false", False), ("no", False), ("0", False), ("off", False),
])
def test_booleans(raw, expect):
    assert one("analytic_only", raw) is expect


def test_boolean_rejects_other():
    with pytest.raises(ConfigError, match="boolean"):
        one("analytic_only", "maybe")


def test_string_key():
    assert one("out", "results/run1.csv") == "results/run1.csv"


# --------------------------------------------------------------------------
# lists and sweep ranges
# --------------------------------------------------------------------------

def test_comma_lists():
    assert one("orders", "1, 2, 3") == (1, 2, 3)
    assert one("variants", "full, gauss") == ("full", "gauss")
    assert one("r_l", "100ohm, 1kohm, 10kohm") == (100.0, 1e3, 1e4)
    assert one("moments", "1.5, 2.25, 4.0") == (1.5, 2.25, 4.0)
    assert one("sweep_prd", "10, 25, 50, 100") == (10.0, 25.0, 50.0, 100.0)


def test_list_empty_item():
    with pytest.raises(ConfigError, match="empty item"):
        one("orders", "1, , 3")


def test_sweep_range_inclusive():
    got = one("sweep_p_r_dbm", "20:36:2")
    assert got == tuple(float(v) for v in range(20, 37, 2))
    # stop off the grid: last point <= stop
    got = one("sweep_p_r_dbm", "0:1:0.3")
    assert got == pytest.approx((0.0, 0.3, 0.6, 0.9))
    # fractional step landing exactly on stop stays inclusive
    got = one("sweep_sigma0_sq_dbm", "-20:-10:2.5")
    assert got == pytest.approx((-20.0, -17.5, -15.0, -12.5, -10.0))


def test_sweep_range_single_point():
    assert one("sweep_p_r_dbm", "33:33:1") == (33.0,)


@pytest.mark.parametrize("raw,frag", [
    ("10:20", "start:stop:step"),
    ("10:20:5:1", "start:stop:step"),
    ("10:20:0", "step"),
    ("10:20:-1", "step"),
    ("20:10:1", "stop"),
])
def test_sweep_range_errors(raw, frag):
    with pytest.raises(ConfigError, match=frag):
        one("sweep_p_r_dbm", raw)


def test_sweep_range_at_the_point_cap_parses():
    got = one("sweep_p_r_dbm", f"0:{SWEEP_MAX_POINTS - 1}:1")
    assert len(got) == SWEEP_MAX_POINTS
    assert got[-1] == SWEEP_MAX_POINTS - 1


def test_sweep_range_past_the_point_cap_exits_2(tmp_path, capsys):
    # counted before any point is built: 1e300 points would exhaust memory
    for raw in (f"0:{SWEEP_MAX_POINTS}:1", "33:1e300:1"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"variants = lp3\nsweep_p_r_dbm = {raw}\n",
                       encoding="utf-8")
        assert main(["ber-sweep", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: line 2: sweep_p_r_dbm: ")
        assert f"more than {SWEEP_MAX_POINTS}" in err
        assert "Traceback" not in err


# --------------------------------------------------------------------------
# file-level grammar
# --------------------------------------------------------------------------

def test_comments_and_blanks():
    text = """
# leading comment
tau_c = 100fs   # trailing comment

prd = 10
"""
    got = parse_config(text)
    assert got == {"tau_c": pytest.approx(1e-13), "prd": 10.0}


def test_unknown_key_has_line_number():
    with pytest.raises(ConfigError, match=r"line 3.*unknown key 'tau'"):
        parse_config("\n\ntau = 100fs\n")


def test_duplicate_key():
    with pytest.raises(ConfigError, match=r"line 2.*duplicate"):
        parse_config("prd = 10\nprd = 25\n")


def test_missing_equals():
    with pytest.raises(ConfigError, match=r"line 1.*key = value"):
        parse_config("just some words\n")


def test_empty_value():
    with pytest.raises(ConfigError, match=r"line 1.*empty value"):
        parse_config("prd =\n")


def test_value_error_carries_line_and_key():
    with pytest.raises(ConfigError, match=r"line 2: tau_c:"):
        parse_config("prd = 10\ntau_c = 100lightyears\n")


@pytest.mark.parametrize("key,raw", [
    ("trials", "1e400"), ("seed", "1e400"),
    ("sweep_p_r_dbm", "33:1e400:1"), ("sweep_prd", "10, 1e400"),
    ("g_amp", "4000dB"), ("p_r", "4000dBm"), ("prd", "1e400"),
    ("r_l", "1e303Mohm"), ("tau_c", "1e400fs"), ("moments", "1, 2, 1e400"),
])
def test_values_that_are_not_finite_rejected(key, raw):
    with pytest.raises(ConfigError,
                       match=rf"^line 2: {key}: .* is out of range$"):
        parse_config(f"# not finite\n{key} = {raw}\n")


@pytest.mark.parametrize("body", [
    "trials = 1e400\n", "seed = 1e400\n", "sweep_p_r_dbm = 33:1e400:1\n",
    "g_amp = 4000dB\n", "p_r = 4000dBm\n", "prd = 1e400\n",
    "r_l = 1e303Mohm\n",
])
def test_values_that_are_not_finite_exit_2(tmp_path, capsys, body):
    cfg = tmp_path / "run.cfg"
    axis = "" if body.startswith("sweep") else "sweep_p_r_dbm = 33:33:1\n"
    cfg.write_text("variants = lp3\n" + body + axis, encoding="utf-8")
    assert main(["ber-sweep", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: line 2: ")


def test_empty_text_is_empty_dict():
    assert parse_config("") == {}
    assert parse_config("# only a comment\n") == {}


def test_known_keys_cover_schema():
    for key in ("tau_c", "prd", "p_r", "sweep_p_r_dbm", "trials", "seed",
                "orders", "samples", "r_l"):
        assert key in KNOWN_KEYS


# --------------------------------------------------------------------------
# load_config
# --------------------------------------------------------------------------

def test_load_config_round_trip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("tau_c = 100fs\nprd = 25\np_r = 33dBm\n", encoding="utf-8")
    got = load_config(p)
    assert got["prd"] == 25.0
    assert math.isclose(got["p_r"], 1e-3 * 10 ** 3.3, rel_tol=1e-12)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")
