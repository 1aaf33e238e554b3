"""Physical and system parameters of the cubic-preprocessor receiver.

Everything downstream (moments, Monte-Carlo, detection) consumes the two
frozen dataclasses defined here: the system, and the receiver constants
that derive computes from it once, so each is written in one place. Units
are SI throughout: seconds, watts, meters, kelvin, ohms, amperes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

# CODATA-2018 exact values. Hard-coded on purpose: results must not depend
# on the environment.
H_PLANCK = 6.62607015e-34      # J*s
Q_ELECTRON = 1.602176634e-19   # C
C_LIGHT = 2.99792458e8         # m/s
K_BOLTZMANN = 1.380649e-23     # J/K


class ParamError(ValueError):
    """A parameter violates its stated domain."""


@dataclass(frozen=True)
class SystemParams:
    """System configuration.

    p_r is the received peak power (watts) and is swept directly; g_amp and
    l2 only matter through the ASE noise level.
    """

    tau_c: float = 100e-15  # pulse duration, s
    prd: float = 10.0     # processing ratio T_p / tau_c
    wavelength: float = 1.55e-6  # optical wavelength, m
    g_amp: float = 1e5    # amplifier power gain, linear
    l2: float = 1.0       # loss after amplifier, linear, <= 1
    n_sp: float = 1.1     # spontaneous-emission coefficient
    eta: float = 0.8      # quantum efficiency, (0, 1]
    k: float = 0.01       # preprocessor power transmittance
    gamma_nl: float = 0.1  # nonlinear phase coefficient, 1/W
    p_r: float = 0.0      # received peak power, W
    t_r: float = 300.0    # receiver temperature, K
    r_l: float = 1000.0   # load resistance, ohm

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ParamError(f"{f.name} must be finite")
        checks = [
            (self.tau_c > 0, "tau_c must be > 0"),
            (self.prd >= 1, "prd must be >= 1"),
            (self.wavelength > 0, "wavelength must be > 0"),
            (self.g_amp >= 1, "g_amp must be >= 1"),
            (0 < self.l2 <= 1, "l2 must be in (0, 1]"),
            (self.n_sp > 0, "n_sp must be > 0"),
            (0 < self.eta <= 1, "eta must be in (0, 1]"),
            (self.k > 0, "k must be > 0"),
            (self.gamma_nl > 0, "gamma_nl must be > 0"),
            (self.p_r >= 0, "p_r must be >= 0"),
            (self.t_r > 0, "t_r must be > 0"),
            (self.r_l > 0, "r_l must be > 0"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ParamError(msg)


@dataclass(frozen=True)
class DerivedParams:
    sigma0_sq: float      # per-quadrature ASE noise variance, W
    responsivity: float   # photodetector responsivity, A/W
    t_p: float            # detector response time, s
    cubic_scale: float    # cubic detector scale R k Gamma^2, A/W^3
    qe_tp: float          # shot term q_e / T_p, A
    thermal_var: float    # thermal variance 4 K_B T_r / (R_L T_p), A^2


def derive(sp: SystemParams) -> DerivedParams:
    """The receiver's derived constants. Pure and deterministic.

    nu = c/lambda; delta = n_sp (G-1) h nu; sigma0^2 = delta L2 / (2 tau_c);
    R = eta q_e / (h nu); T_p = PRD tau_c; the cubic receiver's decision
    variable Y = (R k Gamma^2 / T_p) * integral of |r|^6 has shot/thermal
    noise of variance sigma^2(y) = 2 (q_e/T_p) y + 4 K_B T_r / (R_L T_p).
    """
    nu = C_LIGHT / sp.wavelength
    delta = sp.n_sp * (sp.g_amp - 1.0) * H_PLANCK * nu
    sigma0_sq = delta * sp.l2 / (2.0 * sp.tau_c)
    responsivity = sp.eta * Q_ELECTRON / (H_PLANCK * nu)
    t_p = sp.prd * sp.tau_c
    try:
        cubic_scale = responsivity * sp.k * sp.gamma_nl**2
    except OverflowError:  # float ** raises where float * gives inf
        raise ParamError(f"gamma_nl**2 overflows a float (gamma_nl = "
                         f"{sp.gamma_nl:g})") from None
    return DerivedParams(
        sigma0_sq=sigma0_sq, responsivity=responsivity, t_p=t_p,
        cubic_scale=cubic_scale, qe_tp=Q_ELECTRON / t_p,
        thermal_var=4.0 * K_BOLTZMANN * sp.t_r / (sp.r_l * t_p))


def _g_amp_for_sigma0_sq(sp: SystemParams, sigma0_sq: float) -> float:
    # derive's sigma0^2 = n_sp (G-1) h nu L2 / (2 tau_c) solved for G at
    # sp's other parameters
    nu = C_LIGHT / sp.wavelength
    return 1.0 + 2.0 * sp.tau_c * sigma0_sq / (
        sp.l2 * sp.n_sp * H_PLANCK * nu)


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)
