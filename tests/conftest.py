"""Shared fixtures: reference link configuration, cached MC draws, and
the LP3 density as a test oracle."""

import math

import pytest

from cubicber import SystemParams, derive, dbm_to_watts, generate_samples


def make_system(prd=10.0, p_r_dbm=None, r_l=1000.0, **kw):
    """Reference fiber link; only prd, power, and load vary in most tests."""
    kw.setdefault("tau_c", 100e-15)
    kw.setdefault("wavelength", 1.55e-6)
    kw.setdefault("g_amp", 1e5)
    kw.setdefault("p_r", 0.0 if p_r_dbm is None else dbm_to_watts(p_r_dbm))
    return SystemParams(prd=prd, r_l=r_l, **kw)


def lp3_pdf(p, y):
    """LP3 density at y > 0; 0 outside the support z = (ln y - gamma)/beta
    >= 0. At the edge z = 0 it is 0, 1/(y |beta|) or inf for alpha above,
    at or below 1."""
    z = (math.log(y) - p.gamma) / p.beta
    if z < 0.0:
        return 0.0
    if z == 0.0:
        if p.alpha == 1.0:
            return 1.0 / (y * abs(p.beta))
        return 0.0 if p.alpha > 1.0 else math.inf
    return math.exp((p.alpha - 1.0) * math.log(z) - z - math.lgamma(p.alpha)
                    - math.log(y * abs(p.beta)))


@pytest.fixture(scope="session")
def ref_system():
    sp = make_system(prd=10.0, p_r_dbm=33.0)
    return sp, derive(sp)


@pytest.fixture(scope="session")
def mc_small(ref_system):
    """20k trials of all three orders for both bits; reused across files."""
    sp, dp = ref_system
    sets = {bit: generate_samples(sp, dp, bit, 20_000, orders=(1, 2, 3),
                                  seed=77)
            for bit in (0, 1)}
    return sp, dp, sets
