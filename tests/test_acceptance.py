"""End-to-end acceptance gates for the cubic-receiver BER package.

One test per acceptance criterion, each asserting its stated tolerance,
so the verbose pytest line for each test is the pass/fail record. The
heavy Monte-Carlo products are shared through module-scoped fixtures to
keep the whole file inside the per-criterion runtime budgets on one
core. Nothing here is tuned to the sampler: closed forms, fit inverses,
and independent draw-based oracles sit on the other side of every
comparison.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cubicber import detection, gof, lp3, montecarlo
from cubicber.lp3 import Lp3Params
from cubicber.moments import (
    decision_moments,
    mean_decision,
    second_moment,
    third_moment,
)
from cubicber.params import (K_BOLTZMANN, Q_ELECTRON, SystemParams, derive,
                             dbm_to_watts)
from conftest import lp3_pdf


def _system(prd, p_r_dbm, g_amp=1e5, r_l=1000.0):
    return SystemParams(tau_c=100e-15, prd=prd, wavelength=1.55e-6,
                        g_amp=g_amp, p_r=dbm_to_watts(p_r_dbm), r_l=r_l)


def _pure_lp3_ber(sp, dp):
    laws = {b: lp3.fit_from_moments(decision_moments(sp, dp, b))
            for b in (0, 1)}
    return detection.optimize_threshold(laws[0], laws[1])[1]


def _ratio(a, b):
    return max(a / b, b / a)


# --------------------------------------------------------------------------
# fixtures holding the expensive Monte-Carlo products
# --------------------------------------------------------------------------

MOMENT_GRID_PRDS = (10.0, 25.0)
MOMENT_GRID_DBM = (0.0, 33.0, 36.0)
TRIALS = 1_000_000

SWEEP_DBM = (29.0, 31.0, 33.0, 35.0, 37.0)


@pytest.fixture(scope="module")
def moment_grid():
    """Sampled vs closed moments over the (prd, bit, power) grid.

    Bit-0 samples and closed forms are both independent of the received
    power (the signal amplitude enters multiplied by the bit), so each
    PRD needs one bit-0 run reused across the three powers. The bit-1
    noise field does not depend on the power either, so one batch call
    draws it once for the three powers, bitwise as if drawn at each.
    """
    t0 = time.time()
    rows = []
    for prd in MOMENT_GRID_PRDS:
        systems = [_system(prd, dbm) for dbm in MOMENT_GRID_DBM]
        sp = systems[0]
        dp = derive(sp)
        s0 = montecarlo.generate_samples(sp, dp, bit=0, n_trials=TRIALS,
                                         orders=(3,), seed=101)[3]
        sampled = {0: montecarlo.sample_moments(s0.values)[0]}
        del s0
        batch = montecarlo.generate_samples(
            sp, dp, bit=1, n_trials=TRIALS, orders=(3,), seed=101,
            powers=[s.p_r for s in systems])
        sampled[1] = [montecarlo.sample_moments(b[3].values)[0]
                      for b in batch]
        del batch
        for i, (dbm, sp) in enumerate(zip(MOMENT_GRID_DBM, systems)):
            dp = derive(sp)
            for bit in (0, 1):
                closed = (mean_decision(sp, dp, bit),
                          second_moment(sp, dp, bit),
                          third_moment(sp, dp, bit))
                rows.append((prd, bit, dbm, closed,
                             sampled[0] if bit == 0 else sampled[1][i]))
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def power_sweep():
    """BER estimates along the received-power sweep at PRD = 10.

    Per power: empirical BER for all three receiver orders from one
    million trials per bit, the closed-moment LP3 BER, the closed-moment
    Gaussian BER (cubic), and the sample-moment Gaussian BER (linear).
    Bit-0 samples do not depend on the received power, so one run serves
    every power; bit-1 samples differ between powers only in the signal
    term, so one batch call draws their noise field once. Both are
    bitwise as if drawn at each power.
    """
    t0 = time.time()
    points = []
    systems = [_system(10.0, dbm) for dbm in SWEEP_DBM]
    sp = systems[0]
    dp = derive(sp)
    bit0 = montecarlo.generate_samples(
        sp, dp, bit=0, n_trials=TRIALS, orders=(1, 2, 3), seed=42)
    bit1 = montecarlo.generate_samples(
        sp, dp, bit=1, n_trials=TRIALS, orders=(1, 2, 3), seed=42,
        powers=[s.p_r for s in systems])
    for dbm, sp in zip(SWEEP_DBM, systems):
        dp = derive(sp)
        s = {0: bit0, 1: bit1.pop(0)}
        mc = {o: montecarlo.empirical_ber(s[0][o], s[1][o])[1]
              for o in (1, 2, 3)}
        m1 = {b: montecarlo.sample_moments(s[b][1].values)[0]
              for b in (0, 1)}
        mt = {b: decision_moments(sp, dp, b) for b in (0, 1)}
        gauss1, gauss3 = (detection.optimize_threshold(*(
            detection.NormalLaw(m[b][0], m[b][1] - m[b][0] ** 2)
            for b in (0, 1)))[1] for m in (m1, mt))
        points.append(dict(dbm=dbm, mc=mc, lp3=_pure_lp3_ber(sp, dp),
                           gauss1=gauss1, gauss3=gauss3))
    return points, time.time() - t0


@pytest.fixture(scope="module")
def ranking_sample():
    """A quarter-million cubic decision samples at PRD = 50, 35 dBm."""
    t0 = time.time()
    sp = _system(50.0, 35.0)
    dp = derive(sp)
    s = montecarlo.generate_samples(sp, dp, bit=1, n_trials=250_000,
                                    orders=(3,), seed=4)[3]
    return s, time.time() - t0


# --------------------------------------------------------------------------
# sampled moments match the closed forms
# --------------------------------------------------------------------------

def test_mc_moments_match_closed_forms(moment_grid):
    rows, elapsed = moment_grid
    tol = {1: 0.03, 2: 0.05, 3: 0.10}
    assert len(rows) == 12
    worst = 0.0
    for prd, bit, dbm, closed, got in rows:
        for n in (1, 2, 3):
            rel = abs(got[n - 1] - closed[n - 1]) / abs(closed[n - 1])
            worst = max(worst, rel / tol[n])
            assert rel <= tol[n], (
                f"prd={prd} bit={bit} p_r={dbm}dBm mu{n}: "
                f"closed={closed[n - 1]:.6e} mc={got[n - 1]:.6e} rel={rel:.4f}")
    print(f"moment grid: worst rel/tol = {worst:.3f}, {elapsed:.0f}s")
    assert elapsed <= 300.0


# --------------------------------------------------------------------------
# three-moment fit inverts the analytic moments
# --------------------------------------------------------------------------

def test_fit_round_trip_over_parameter_grid():
    t0 = time.time()
    for alpha in (0.5, 2.0, 10.0, 50.0):
        for beta in (0.01, -0.01, 0.1, -0.1, 0.3, -0.3):
            for gamma in (-5.0, 0.0, 5.0):
                law = Lp3Params(alpha=alpha, beta=beta, gamma=gamma)
                got = lp3.fit_from_moments(
                    [lp3.moment(law, n) for n in (1, 2, 3)])
                assert got.beta == pytest.approx(beta, abs=1e-9)
                assert got.alpha == pytest.approx(alpha, rel=1e-7)
                assert got.gamma == pytest.approx(gamma, rel=1e-7, abs=1e-7)
    assert time.time() - t0 < 1.0


# --------------------------------------------------------------------------
# density is the derivative of the distribution function
# --------------------------------------------------------------------------

def test_pdf_is_cdf_derivative():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for _ in range(10):
        law = Lp3Params(
            alpha=float(np.exp(rng.uniform(np.log(0.5), np.log(50.0)))),
            beta=float(rng.choice([-1, 1]) * rng.uniform(0.01, 0.3)),
            gamma=float(rng.uniform(-5.0, 5.0)))
        edge = math.exp(law.gamma)
        for p in np.linspace(0.04, 0.96, 20):
            y = float(lp3.quantile(law, p))
            # near the support edge the density's curvature scale is the
            # distance to the edge, not y itself; the step must resolve it
            h = 1e-6 * min(abs(y), abs(y - edge))
            diff = (lp3.cdf(law, y + h) - lp3.cdf(law, y - h)) / (2 * h)
            assert diff == pytest.approx(lp3_pdf(law, y), rel=1e-6)
    assert time.time() - t0 < 1.0


# --------------------------------------------------------------------------
# candidate ranking puts the skew-log law first
# --------------------------------------------------------------------------

def test_sample_ranking_prefers_lp3(ranking_sample):
    s, gen_elapsed = ranking_sample
    t0 = time.time()
    report = gof.rank_distributions(s)
    elapsed = gen_elapsed + (time.time() - t0)
    rows = {r.distribution: r for r in report.rows}
    best, norm = rows["log_pearson3"], rows["normal"]
    assert best.ks < 0.01, f"lp3 ks={best.ks:.5f}"
    assert norm.ks > 5.0 * best.ks, (
        f"normal ks={norm.ks:.5f} vs lp3 ks={best.ks:.5f}")
    assert best.ks_rank == 1 and best.ad_rank == 1 and best.chi2_rank == 1
    print(f"ranking: lp3 ks={best.ks:.5f} normal ks={norm.ks:.5f}, "
          f"{elapsed:.0f}s")
    assert elapsed <= 120.0


# --------------------------------------------------------------------------
# analytic BER tracks Monte-Carlo over the sweep
# --------------------------------------------------------------------------

def test_lp3_ber_tracks_mc_over_sweep(power_sweep):
    points, elapsed = power_sweep
    checked = [p for p in points if 1e-4 <= p["mc"][3] <= 0.4]
    assert len(checked) >= 4, "sweep window collapsed"
    for p in checked:
        dex = abs(math.log10(p["lp3"]) - math.log10(p["mc"][3]))
        assert dex <= 0.3, (
            f"{p['dbm']}dBm: lp3={p['lp3']:.4e} mc={p['mc'][3]:.4e} "
            f"dex={dex:.3f}")
    print(f"sweep: {len(checked)} points in window, {elapsed:.0f}s")
    assert elapsed <= 600.0


# --------------------------------------------------------------------------
# Gaussian approximation breaks where the fitted law holds
# --------------------------------------------------------------------------

def test_gaussian_fails_at_low_ber_where_lp3_holds(power_sweep):
    points, _ = power_sweep
    low = [p for p in points if p["mc"][3] <= 1e-3]
    assert low, "no sweep point with MC BER <= 1e-3"
    p = max(low, key=lambda q: q["dbm"])
    g = _ratio(p["gauss3"], p["mc"][3])
    l = _ratio(p["lp3"], p["mc"][3])
    print(f"at {p['dbm']}dBm: gauss off by {g:.1f}x, lp3 off by {l:.2f}x")
    assert g > 2.0, f"gaussian only {g:.2f}x off at {p['dbm']}dBm"
    assert l <= 2.0, f"lp3 {l:.2f}x off at {p['dbm']}dBm"


# --------------------------------------------------------------------------
# Gaussian approximation is fine for the linear receiver
# --------------------------------------------------------------------------

def test_gaussian_is_accurate_for_linear_receiver(power_sweep):
    points, _ = power_sweep
    checked = [p for p in points if p["mc"][1] >= 1e-3]
    assert checked
    for p in checked:
        r = _ratio(p["gauss1"], p["mc"][1])
        assert r <= 1.5, (
            f"{p['dbm']}dBm order 1: gauss={p['gauss1']:.4e} "
            f"mc={p['mc'][1]:.4e} ratio={r:.2f}")


# --------------------------------------------------------------------------
# higher receiver order wins at high power
# --------------------------------------------------------------------------

def test_receiver_order_ber_ranking_at_top_power(power_sweep):
    points, _ = power_sweep
    top = max(points, key=lambda q: q["dbm"])
    mc = top["mc"]
    print(f"at {top['dbm']}dBm: cubic={mc[3]:.3e} quadratic={mc[2]:.3e} "
          f"linear={mc[1]:.3e}")
    assert mc[3] < mc[2] < mc[1]


# --------------------------------------------------------------------------
# receiver-noise convolution limits and oracle
# --------------------------------------------------------------------------

def test_receiver_noise_cdf_degenerate_limit():
    sp = _system(10.0, 33.0)
    dp = derive(sp)
    law = lp3.fit_from_moments(decision_moments(sp, dp, 1))
    tiny = derive(replace(sp, tau_c=sp.tau_c * 1e12))
    for p in np.linspace(0.05, 0.95, 10):
        q = float(lp3.quantile(law, p))
        got = detection.cdf_shot_thermal(
            detection.ShotThermalLaw(law, tiny), q)
        assert got == pytest.approx(float(lp3.cdf(law, q)),
                                    rel=1e-6, abs=1e-6)


def test_receiver_noise_cdf_matches_draw_oracle():
    sp = _system(10.0, 33.0)
    dp = derive(sp)
    law = lp3.fit_from_moments(decision_moments(sp, dp, 1))
    # independent oracle: exact draws from the additive-noise model
    rng = np.random.default_rng(2026)
    n = 10_000_000
    y = np.exp(law.gamma + law.beta * rng.gamma(law.alpha, size=n))
    var = (2.0 * Q_ELECTRON * y
           + 4.0 * K_BOLTZMANN * sp.t_r / sp.r_l) / dp.t_p
    x = np.sort(y + np.sqrt(var) * rng.standard_normal(n))
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        q = float(lp3.quantile(law, p))
        phat = np.searchsorted(x, q, side="right") / n
        se = math.sqrt(phat * (1.0 - phat) / n)
        got = detection.cdf_shot_thermal(
            detection.ShotThermalLaw(law, dp), q)
        assert abs(got - phat) <= 3.0 * se, (
            f"p={p}: model={got:.6f} oracle={phat:.6f} se={se:.2e}")


# --------------------------------------------------------------------------
# zero optical noise collapses MC to the analytic values
# --------------------------------------------------------------------------

def test_noiseless_mc_matches_analytic():
    sp = _system(100.0, 33.0, g_amp=1.0)  # G = 1 turns ASE off entirely
    dp = derive(sp)
    assert dp.sigma0_sq == 0.0
    r = dp.responsivity
    expect = {1: r * sp.p_r / sp.prd,
              2: r * sp.p_r ** 2 * (2.0 / 3.0) / sp.prd,
              3: r * sp.k * sp.gamma_nl ** 2 * sp.p_r ** 3 * 0.55 / sp.prd}
    for bit in (0, 1):
        got = montecarlo.generate_samples(sp, dp, bit=bit, n_trials=1000,
                                          orders=(1, 2, 3), seed=9)
        for o in (1, 2, 3):
            v = got[o].values
            assert np.ptp(v) == 0.0
            if bit == 0:
                assert v[0] == 0.0
            else:
                assert v[0] == pytest.approx(expect[o], rel=5e-3)
