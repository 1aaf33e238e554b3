"""Command-line front end: sweeps, fitting, GOF ranking, MC validation.

Commands
  ber-sweep    BER vs a swept axis (received power, ASE level, or PRD),
               one CSV row per (x, load resistance, order, variant).
  fit          Three-moment LP3 fit from literal moments or a sample CSV.
  gof          Distribution ranking for a sample CSV.
  mc-validate  Closed-form moments vs Monte-Carlo, with a GOF report.

Every setting is the command-line flag if given, else the config key, else
the default. Exit codes: 0 success, 2 configuration error, 3 numerical
failure, 4 tolerance failure. All CSV outputs start with a `# schema=1`
line and are deterministic given config + seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import detection, gof, lp3, montecarlo
from ._config import ConfigError, load_config
from .moments import (decision_moments, mean_decision, second_moment,
                      third_moment)
from .params import (
    C_LIGHT,
    H_PLANCK,
    ParamError,
    SystemParams,
    dbm_to_watts,
    derive,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TOLERANCE = 4

VARIANTS = ("lp3", "lp3_shot_thermal", "gauss_approx", "mc")

# failures confined to one sweep point; recorded in the row, never fatal
_POINT_ERRORS = (lp3.Lp3Error, ParamError, detection.BracketError,
                 detection.QuadratureError, montecarlo.SampleSizeError,
                 ZeroDivisionError, OverflowError, FloatingPointError)


# Default of every setting that a command-line flag or a config key sets.
_DEFAULTS = {"trials": 100_000, "seed": 1, "oversample": 16, "window": 32,
             "orders": (3,), "r_l": (1000.0,), "order": 3, "bit": 1}


class _Settings:
    """One command's settings: s[key] is the command-line flag if given,
    else the config key, else the default (None for keys without one)."""

    def __init__(self, args):
        self._args = args
        self.cfg = load_config(args.config) if args.config else {}

    def __getitem__(self, key: str):
        flag = getattr(self._args, key, None)
        if flag is not None:
            return flag
        return self.cfg.get(key, _DEFAULTS.get(key))


def _check_mc(trials: int, seed: int, oversample: int, window: int) -> None:
    """The Monte-Carlo settings, checked before any sampling starts."""
    if trials < 1000:
        raise ConfigError(f"Monte-Carlo needs trials >= 1000, got {trials}")
    if not 0 <= seed < montecarlo.SEED_LIMIT:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")
    try:
        montecarlo._check_synthesis_config(oversample, window)
    except ParamError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class SweepConfig:
    base: SystemParams
    x_kind: str                # p_r_dbm | sigma0_sq_dbm | prd
    x_values: tuple
    orders: tuple = _DEFAULTS["orders"]
    variants: tuple = VARIANTS
    r_l_values: tuple = _DEFAULTS["r_l"]
    trials: int = _DEFAULTS["trials"]
    seed: int = _DEFAULTS["seed"]
    oversample: int = _DEFAULTS["oversample"]
    window: int = _DEFAULTS["window"]
    analytic_only: bool = False
    out: str | None = None

    def __post_init__(self) -> None:
        if self.x_kind not in ("p_r_dbm", "sigma0_sq_dbm", "prd"):
            raise ConfigError(f"unknown sweep axis {self.x_kind!r}")
        if not self.x_values:
            raise ConfigError("sweep axis has no points")
        if not self.orders or any(o not in (1, 2, 3) for o in self.orders):
            raise ConfigError("orders must be a nonempty subset of 1,2,3")
        bad = [v for v in self.variants if v not in VARIANTS]
        if bad or not self.variants:
            raise ConfigError(f"variants must be a nonempty subset of "
                              f"{'/'.join(VARIANTS)}, got {bad}")
        if not self.r_l_values or any(r <= 0 for r in self.r_l_values):
            raise ConfigError("r_l values must be positive")
        if self._needs_mc():
            _check_mc(self.trials, self.seed, self.oversample, self.window)

    def _needs_mc(self) -> bool:
        if self.analytic_only:
            return False
        return "mc" in self.variants or any(o != 3 for o in self.orders)


def _base_system(cfg: dict) -> SystemParams:
    kw = dict(tau_c=cfg.get("tau_c", 100e-15),
              prd=cfg.get("prd", 10.0),
              wavelength=cfg.get("wavelength", 1.55e-6),
              g_amp=cfg.get("g_amp", 1e5))
    for key in ("l1", "l2", "n_sp", "eta", "k", "gamma_nl", "p_r", "t_r"):
        if key in cfg:
            kw[key] = cfg[key]
    if "r_l" in cfg:
        kw["r_l"] = cfg["r_l"][0]
    try:
        return SystemParams(**kw)
    except ParamError as exc:
        raise ConfigError(str(exc)) from None


def _sweep_config(s: _Settings) -> SweepConfig:
    axes = [k for k in ("sweep_p_r_dbm", "sweep_sigma0_sq_dbm", "sweep_prd")
            if k in s.cfg]
    if len(axes) != 1:
        raise ConfigError("config must set exactly one sweep_* axis")
    axis = axes[0]
    analytic_only = bool(s["analytic_only"])
    variants = s["variants"]
    if variants is None:
        variants = tuple(v for v in VARIANTS
                         if not (analytic_only and v == "mc"))
    elif analytic_only and "mc" in variants:
        raise ConfigError("analytic_only excludes the mc variant")
    return SweepConfig(
        base=_base_system(s.cfg),
        x_kind=axis.removeprefix("sweep_"),
        x_values=tuple(s.cfg[axis]),
        orders=tuple(s["orders"]),
        variants=tuple(variants),
        r_l_values=tuple(s["r_l"]),
        trials=s["trials"],
        seed=s["seed"],
        oversample=s["oversample"],
        window=s["window"],
        analytic_only=analytic_only,
        out=s["out"],
    )


def _g_amp_for_sigma0_sq(base: SystemParams, sigma0_sq: float) -> float:
    # invert sigma0^2 = n_sp (G-1) h nu L2 / (2 tau_c) for G at fixed tau_c
    nu = C_LIGHT / base.wavelength
    return 1.0 + 2.0 * base.tau_c * sigma0_sq / (
        base.l2 * base.n_sp * H_PLANCK * nu)


def _point_system(cfg: SweepConfig, x: float, r_l: float) -> SystemParams:
    if cfg.x_kind == "p_r_dbm":
        return replace(cfg.base, p_r=dbm_to_watts(x), r_l=r_l)
    if cfg.x_kind == "prd":
        return replace(cfg.base, prd=float(x), r_l=r_l)
    sigma0_sq = dbm_to_watts(x)
    return replace(cfg.base, r_l=r_l,
                   g_amp=_g_amp_for_sigma0_sq(cfg.base, sigma0_sq))


class _PointCache:
    """Per-sweep-point store so laws and moments are computed once."""

    def __init__(self, cfg, sp, dp):
        self.cfg = cfg
        self.sp = sp
        self.dp = dp
        self.phys = detection.noise_physics(sp, dp)
        self._samples = None
        self._laws = {}

    def samples(self, bit):
        if self.cfg.analytic_only:
            raise ParamError("Monte-Carlo sampling disabled by analytic_only")
        if self._samples is None:
            need = tuple(sorted(set(self.cfg.orders)))
            self._samples = {
                b: montecarlo.generate_samples(
                    self.sp, self.dp, bit=b, n_trials=self.cfg.trials,
                    orders=need, oversample=self.cfg.oversample,
                    window=self.cfg.window, seed=self.cfg.seed)
                for b in (0, 1)
            }
        return self._samples[bit]

    def law(self, bit, order):
        """(Lp3Params, (mu1, mu2, mu3)): closed form for order 3, else MC."""
        key = (bit, order)
        if key not in self._laws:
            if order == 3:
                mt = decision_moments(self.sp, self.dp, bit)
                mus = (mt.mu1, mt.mu2, mt.mu3)
            else:
                mus = montecarlo.sample_moments(
                    self.samples(bit)[order].values)[0]
            self._laws[key] = lp3.fit_from_moments(mus), mus
        return self._laws[key]


def _variant_point(cache: _PointCache, order: int, variant: str):
    """(th_opt, ber) for one variant at one sweep point."""
    if variant == "mc":
        s = {b: cache.samples(b)[order] for b in (0, 1)}
        return montecarlo.empirical_ber(s[0], s[1])
    if variant == "gauss_approx":
        (m0, s0, _), (m1, s1, _) = (cache.law(b, order)[1] for b in (0, 1))
        return detection.gaussian_approx_ber(m0, s0 - m0 ** 2, m1, s1 - m1 ** 2)
    phys = cache.phys if variant == "lp3_shot_thermal" else None
    f0 = detection.BitConditionedLaw(0, cache.law(0, order)[0], phys)
    f1 = detection.BitConditionedLaw(1, cache.law(1, order)[0], phys)
    return detection.optimize_threshold(f0, f1)


def _eval_point(cfg: SweepConfig, x: float, r_l: float) -> list[dict]:
    rows = []
    try:
        sp = _point_system(cfg, x, r_l)
        dp = derive(sp)
        cache = _PointCache(cfg, sp, dp)
        point_err = None
    except (_POINT_ERRORS + (ConfigError,)) as exc:
        cache, point_err = None, str(exc)
    for order in cfg.orders:
        for variant in cfg.variants:
            th, ber, err = math.nan, math.nan, point_err
            if err is None:
                try:
                    th, ber = _variant_point(cache, order, variant)
                except _POINT_ERRORS as exc:
                    th, ber, err = math.nan, math.nan, str(exc)
            rows.append(dict(x_value=x, x_kind=cfg.x_kind,
                             prd=sp.prd if cache else cfg.base.prd,
                             rl_ohm=r_l, variant=variant, th_opt=th,
                             ber=ber, order=order,
                             error=(err or "").replace(",", ";")))
    return rows


def run_ber_sweep(cfg: SweepConfig) -> list[dict]:
    """All sweep rows, deterministically sorted by x, load, order, variant."""
    points = [(x, rl) for x in cfg.x_values for rl in cfg.r_l_values]
    workers = min(len(points), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda p: _eval_point(cfg, *p), points))
    else:
        chunks = [_eval_point(cfg, *p) for p in points]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["x_value"], r["rl_ohm"], r["order"],
                             r["variant"]))
    return rows


_SWEEP_COLUMNS = ("x_value", "x_kind", "prd", "rl_ohm", "variant",
                  "th_opt", "ber", "order", "error")


def _format_row(row: dict) -> str:
    return (f"{row['x_value']:.10g},{row['x_kind']},{row['prd']:.10g},"
            f"{row['rl_ohm']:.10g},{row['variant']},{row['th_opt']:.17g},"
            f"{row['ber']:.17g},{row['order']},{row['error']}")


def _write_sweep(rows: list[dict], out: str | None) -> None:
    lines = ["# schema=1", ",".join(_SWEEP_COLUMNS)]
    lines += [_format_row(r) for r in rows]
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_ber_sweep(s: _Settings) -> int:
    cfg = _sweep_config(s)
    rows = run_ber_sweep(cfg)
    try:
        _write_sweep(rows, cfg.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _load_sample_group(path, order, bit):
    try:
        sets = montecarlo.load_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read samples {path}: {exc}") from None
    except ValueError as exc:  # ParamError or an unparsable field
        raise ConfigError(f"malformed samples {path}: {exc}") from None
    for s in sets:
        if s.order == order and s.bit == bit:
            return s
    raise ConfigError(f"no samples for order={order} bit={bit} in {path}")


def _cmd_fit(s: _Settings) -> int:
    moments, samples_path = s["moments"], s["samples"]
    if (moments is None) == (samples_path is None):
        raise ConfigError("provide exactly one of --moments / --samples")
    sample_set = None
    if moments is not None:
        if len(moments) != 3:
            raise ConfigError("--moments takes exactly three values")
        mus = tuple(moments)
    else:
        sample_set = _load_sample_group(samples_path, s["order"], s["bit"])
        mus = montecarlo.sample_moments(sample_set.values)[0]

    try:
        law = lp3.fit_from_moments(mus)
    except lp3.Lp3Error as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    print(f"alpha = {law.alpha:.17g}")
    print(f"beta  = {law.beta:.17g}")
    print(f"gamma = {law.gamma:.17g}")
    for n, mu in enumerate(mus, start=1):
        print(f"mu{n}: input {mu:.17g}"
              f"  readback {lp3.moment(law, n):.17g}")
    if sample_set is not None:
        xs = np.sort(sample_set.values)
        ks = gof.ks_statistic(xs, lambda y: lp3.cdf(law, y))
        print(f"ks = {ks:.17g}")
    print(f"fit_result alpha={law.alpha:.17g} beta={law.beta:.17g} "
          f"gamma={law.gamma:.17g}")
    if s["out"]:
        with open(s["out"], "w") as fh:
            fh.write("# schema=1\nalpha,beta,gamma\n")
            fh.write(f"{law.alpha:.17g},{law.beta:.17g},{law.gamma:.17g}\n")
    return EXIT_OK


def _cmd_gof(s: _Settings) -> int:
    if not s["samples"]:
        raise ConfigError("gof needs --samples")
    sample_set = _load_sample_group(s["samples"], s["order"], s["bit"])
    try:
        report = gof.rank_distributions(sample_set, bins=s["bins"])
    except gof.GofError as exc:
        print(f"gof failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"n = {report.n}  bins = {report.bins}")
    print(f"{'distribution':18s} {'ks':>12s} r  {'ad':>12s} r  "
          f"{'chi2':>12s} r")
    for r in report.rows:
        note = "" if r.fitted else f"  [unfit: {r.error}]"
        print(f"{r.distribution:18s} {r.ks:12.6g} {r.ks_rank}  "
              f"{r.ad:12.6g} {r.ad_rank}  {r.chi2:12.6g} {r.chi2_rank}"
              f"{note}")
    if s["out"]:
        report.to_csv(s["out"])
    return EXIT_OK


_MOMENT_TOL = {1: 0.03, 2: 0.05, 3: 0.10}


def _cmd_mc_validate(s: _Settings) -> int:
    base = _base_system(s.cfg)
    if len(s["r_l"]) > 1:
        raise ConfigError("mc-validate takes a single r_l")
    trials, seed = s["trials"], s["seed"]
    oversample, window = s["oversample"], s["window"]
    _check_mc(trials, seed, oversample, window)

    dp = derive(base)
    lines = [f"mc-validate prd={base.prd:.10g} p_r={base.p_r:.10g} "
             f"sigma0_sq={dp.sigma0_sq:.10g} trials={trials} seed={seed}"]
    all_pass = True
    gof_source = None
    for bit in (0, 1):
        try:
            sets = montecarlo.generate_samples(
                base, dp, bit=bit, n_trials=trials, orders=(3,),
                oversample=oversample, window=window, seed=seed)
        except (ParamError, montecarlo.SampleSizeError) as exc:
            print(f"sampling failed: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        if bit == 1:
            gof_source = sets[3]
        closed = {1: mean_decision(base, dp, bit),
                  2: second_moment(base, dp, bit),
                  3: third_moment(base, dp, bit)}
        mus, ses = montecarlo.sample_moments(sets[3].values)
        for n, mc, se in zip((1, 2, 3), mus, ses):
            tol = _MOMENT_TOL[n]
            if closed[n] == 0.0:
                rel = math.inf if mc != 0.0 else 0.0
                ok = mc == 0.0
            else:
                rel = abs(mc - closed[n]) / abs(closed[n])
                ok = abs(mc - closed[n]) <= tol * abs(closed[n]) + 3.0 * se
            all_pass &= ok
            lines.append(
                f"bit{bit} mu{n}: closed={closed[n]:.17g} mc={mc:.17g} "
                f"se={se:.17g} rel={rel:.6g} tol={tol:g} "
                f"{'PASS' if ok else 'FAIL'}")

    print("\n".join(lines))
    if trials >= 10_000 and gof_source is not None:
        report = gof.rank_distributions(gof_source)
        print(f"gof (order 3, bit 1): n={report.n} bins={report.bins}")
        for r in report.rows:
            note = "" if r.fitted else f"  [unfit: {r.error}]"
            print(f"  {r.distribution:18s} ks={r.ks:.6g} r{r.ks_rank} "
                  f"ad={r.ad:.6g} r{r.ad_rank} "
                  f"chi2={r.chi2:.6g} r{r.chi2_rank}{note}")
    else:
        print("gof skipped (needs >= 10000 trials)")

    if s["out"]:
        with open(s["out"], "w") as fh:
            fh.write("# schema=1\n")
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK if all_pass else EXIT_TOLERANCE


def _add_common(sub, seed: bool = False) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", help="output path")
    if seed:
        sub.add_argument("--seed", type=int, help="RNG seed (u64)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicber",
        description="BER analysis of the power-cubic optical receiver")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ber-sweep", help="BER over a swept axis")
    _add_common(p, seed=True)
    p.add_argument("--trials", type=int, help="MC trials per bit per point")
    p.add_argument("--analytic-only", action="store_true", default=None,
                   help="skip Monte-Carlo variants")
    p.set_defaults(run=_cmd_ber_sweep)

    p = subs.add_parser("fit", help="three-moment LP3 fit")
    _add_common(p)
    p.add_argument("--moments", type=float, nargs=3,
                   metavar=("MU1", "MU2", "MU3"))
    p.add_argument("--samples", help="sample CSV (trial,order,bit,value)")
    p.add_argument("--order", type=int)
    p.add_argument("--bit", type=int)
    p.set_defaults(run=_cmd_fit)

    p = subs.add_parser("gof", help="distribution ranking for samples")
    _add_common(p)
    p.add_argument("--samples", help="sample CSV (trial,order,bit,value)")
    p.add_argument("--order", type=int)
    p.add_argument("--bit", type=int)
    p.add_argument("--bins", type=int)
    p.set_defaults(run=_cmd_gof)

    p = subs.add_parser("mc-validate",
                        help="closed-form moments vs Monte-Carlo")
    _add_common(p, seed=True)
    p.add_argument("--trials", type=int)
    p.set_defaults(run=_cmd_mc_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(_Settings(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
