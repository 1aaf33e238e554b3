"""Frozen bits of the receiver's analytic laws and of the sampler.

SHA-256 digests, over a grid of PRD 10/25/100 x loads 100 ohm/1 kohm/10
kohm x 33/37/41 dBm, of the closed-form moments, the shot/thermal law's
cdf, sf and logpdf on a threshold grid, the threshold search of each law
kind, and the decision samples of orders 1-3. A change to how the
receiver's constants are computed must leave every one of them alone; a
one-ulp change of any constant moves a digest.
"""

import hashlib

import numpy as np
import pytest

from cubicber import (NormalLaw, ShotThermalLaw, derive, fit_from_moments,
                      generate_samples, optimize_threshold)
from cubicber.detection import BracketError, QuadratureError
from cubicber.moments import decision_moments
from cubicber.params import ParamError
from conftest import make_system

PRDS = (10.0, 25.0, 100.0)
LOADS = (100.0, 1000.0, 10_000.0)
DBMS = (33.0, 37.0, 41.0)


def _systems(prd):
    # (system, derived) of each load and power at prd, in grid order
    for r_l in LOADS:
        for dbm in DBMS:
            sp = make_system(prd=prd, p_r_dbm=dbm, r_l=r_l)
            yield sp, derive(sp)


def _clean_laws(sp, dp):
    return [fit_from_moments(decision_moments(sp, dp, b)) for b in (0, 1)]


def _shot_thermal(law, sp, dp):
    return ShotThermalLaw(law, dp)


def _doubles(*values):
    return np.asarray(values, "<f8").tobytes()


# one digest per PRD: cdf, sf and logpdf of both bits' shot/thermal laws on
# 24 thresholds from mean0/100 to mean1*10, per load and power
ST_DIGESTS = {
    10.0: "8ea5c27cb0b27a4637d99ee26b82f4c7087453c355df38962efb9054aa8549d9",
    25.0: "b8d5b85a4f4a59f51e1b30ee90aae983cf9ccc2287da808cb92c56b35fb19260",
    100.0: "96c02db749278fb499809a7dd363255101a9f9d8ab345d48440f0222cf08ba04",
}


@pytest.mark.parametrize("prd", PRDS)
def test_shot_thermal_law_keeps_its_bits(prd):
    h = hashlib.sha256()
    for sp, dp in _systems(prd):
        laws = _clean_laws(sp, dp)
        xs = np.geomspace(laws[0].mean() / 100.0, laws[1].mean() * 10.0, 24)
        for law in laws:
            st = _shot_thermal(law, sp, dp)
            with np.errstate(divide="ignore"):  # a density that underflows
                for vals in (st.cdf(xs), st.sf(xs), st.logpdf(xs)):
                    h.update(_doubles(*vals))
    assert h.hexdigest() == ST_DIGESTS[prd]


MOMENT_DIGEST = ("0ecd14429377d58d27c37f58c66e4950"
                 "bfa13bdd27aaef1f338099b079907e81")


def test_decision_moments_keep_their_bits():
    h = hashlib.sha256()
    for prd in PRDS:
        for sp, dp in _systems(prd):
            for bit in (0, 1):
                h.update(_doubles(*decision_moments(sp, dp, bit)))
    assert h.hexdigest() == MOMENT_DIGEST


# one digest per PRD: orders 1-3 of both bits, 2048 trials from trial 100,
# the three powers drawn at once
SAMPLE_DIGESTS = {
    10.0: "b60e57ff31855933fdb80cc6db96c5ca2739a03a5f8f1fd368d083c51839288a",
    25.0: "1eda5118c647fd8637ff80b1551a64c2d40775967585d20df3d85ffe7267991f",
    100.0: "75e504c64fe76947c52cfb39c9e9b18c730fba73a4fe545f7b9445f3e25e033b",
}


@pytest.mark.parametrize("prd", PRDS)
def test_samples_keep_their_bits(prd):
    sp = make_system(prd=prd)
    powers = [s.p_r for s in (make_system(prd=prd, p_r_dbm=dbm)
                              for dbm in DBMS)]
    h = hashlib.sha256()
    for bit in (0, 1):
        per_power = generate_samples(sp, derive(sp), bit, 2048,
                                     orders=(1, 2, 3), seed=11,
                                     start_trial=100, powers=powers)
        for sets in per_power:
            for order in (1, 2, 3):
                h.update(sets[order].values.astype("<f8").tobytes())
    assert h.hexdigest() == SAMPLE_DIGESTS[prd]


# (th_opt, pe) of the search, or the error's type and message, for the LP3,
# Gaussian and shot/thermal law pairs at every grid point
SEARCH_DIGEST = ("07e681497d7394e771d9f8953015c757"
                 "8bedf74228c94beef299bb3407fc889f")


def test_threshold_searches_keep_their_bits():
    h = hashlib.sha256()
    for prd in PRDS:
        for sp, dp in _systems(prd):
            laws = _clean_laws(sp, dp)
            mus = [decision_moments(sp, dp, b) for b in (0, 1)]
            pairs = (laws,
                     [NormalLaw(m[0], m[1] - m[0] ** 2) for m in mus],
                     [_shot_thermal(law, sp, dp) for law in laws])
            for pair in pairs:
                try:
                    h.update(_doubles(*optimize_threshold(*pair)))
                except (BracketError, QuadratureError, ParamError) as exc:
                    h.update(f"{type(exc).__name__}: {exc}\n".encode())
    assert h.hexdigest() == SEARCH_DIGEST
