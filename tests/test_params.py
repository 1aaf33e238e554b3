"""Physical constants, derived link quantities, and unit conversions."""

import math

import pytest

from cubicber import SystemParams, derive, dbm_to_watts
from cubicber.params import (C_LIGHT, H_PLANCK, K_BOLTZMANN, ParamError,
                             Q_ELECTRON, db_to_linear)
from conftest import make_system


def test_constants_codata_2018_exact():
    assert H_PLANCK == 6.62607015e-34
    assert Q_ELECTRON == 1.602176634e-19
    assert C_LIGHT == 2.99792458e8
    assert K_BOLTZMANN == 1.380649e-23


def test_derive_matches_hand_formulas():
    sp = make_system(prd=25.0, p_r_dbm=33.0)
    dp = derive(sp)
    nu = 2.99792458e8 / 1.55e-6
    delta = 1.1 * (1e5 - 1.0) * 6.62607015e-34 * nu
    assert dp.sigma0_sq == pytest.approx(delta * 1.0 / (2 * 100e-15), rel=1e-15)
    assert dp.responsivity == pytest.approx(
        0.8 * 1.602176634e-19 / (6.62607015e-34 * nu), rel=1e-15)
    assert dp.t_p == pytest.approx(25.0 * 100e-15, rel=1e-15)


def test_reference_link_values():
    # frozen 6-digit values for the standard 1.55 um / G=1e5 configuration
    dp = derive(make_system())
    assert dp.sigma0_sq == pytest.approx(0.0704861, rel=1e-5)
    assert dp.responsivity == pytest.approx(1.00013, rel=1e-5)
    assert dp.t_p == pytest.approx(1e-12, rel=1e-12)


def test_l2_scales_noise_only():
    a = derive(make_system())
    b = derive(make_system(l2=0.5))
    assert b.sigma0_sq == pytest.approx(0.5 * a.sigma0_sq, rel=1e-15)
    assert b.responsivity == a.responsivity
    assert b.t_p == a.t_p


@pytest.mark.parametrize("field,value", [
    ("tau_c", 0.0), ("tau_c", -1e-15),
    ("prd", 0.5),
    ("wavelength", 0.0),
    ("g_amp", 0.99),
    ("l2", -0.1), ("l2", 2.0),
    ("n_sp", 0.0),
    ("eta", 0.0), ("eta", 1.01),
    ("k", 0.0),
    ("gamma_nl", 0.0),
    ("p_r", -1e-3),
    ("t_r", 0.0),
    ("r_l", 0.0),
    ("tau_c", math.inf), ("prd", math.inf), ("wavelength", math.inf),
    ("g_amp", math.inf), ("p_r", math.inf), ("r_l", math.inf),
    ("t_r", math.inf), ("n_sp", math.inf), ("k", math.inf),
    ("gamma_nl", math.inf), ("prd", math.nan),
])
def test_domain_violations_raise(field, value):
    kw = dict(tau_c=100e-15, prd=10.0, wavelength=1.55e-6, g_amp=1e5)
    kw[field] = value
    with pytest.raises(ParamError):
        SystemParams(**kw)


def test_boundary_values_accepted():
    SystemParams(tau_c=1e-15, prd=1.0, wavelength=1e-9, g_amp=1.0,
                 l2=1.0, eta=1.0, p_r=0.0)


def test_dbm_round_trip():
    for dbm in (-30.0, 0.0, 33.0, 36.0):
        back = 10.0 * math.log10(dbm_to_watts(dbm)) + 30.0
        assert back == pytest.approx(dbm, abs=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watts(33.0) == pytest.approx(1.9952623149688795, rel=1e-15)


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(50.0) == pytest.approx(1e5, rel=1e-15)
    assert db_to_linear(-3.0) == pytest.approx(10 ** -0.3, rel=1e-15)


def test_frozen_dataclasses():
    sp = make_system()
    with pytest.raises(Exception):
        sp.p_r = 1.0  # type: ignore[misc]
    dp = derive(sp)
    with pytest.raises(Exception):
        dp.sigma0_sq = 0.0  # type: ignore[misc]


def test_derive_is_pure():
    sp = make_system(prd=50.0, p_r_dbm=35.0)
    assert derive(sp) == derive(sp)
