"""Command-line front end: sweeps, fitting, GOF ranking, MC validation.

Commands
  ber-sweep    BER vs a swept axis (received power, ASE level, or PRD),
               one CSV row per (x, load resistance, order, variant).
  fit          Three-moment LP3 fit from literal moments or a sample CSV.
  gof          Distribution ranking for a sample CSV.
  mc-validate  Closed-form moments vs Monte-Carlo, with a GOF report.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 tolerance failure. All CSV outputs start with a `# schema=1` line and
are deterministic given config + seed.
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


def _check_seed(seed: int) -> None:
    if not 0 <= seed < montecarlo.SEED_LIMIT:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")


@dataclass(frozen=True)
class SweepConfig:
    base: SystemParams
    x_kind: str                # p_r_dbm | sigma0_sq_dbm | prd
    x_values: tuple
    orders: tuple = (3,)
    variants: tuple = VARIANTS
    r_l_values: tuple = (1000.0,)
    trials: int = 100_000
    seed: int = 1
    oversample: int = 16
    window: int = 32
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
            if self.trials < 1000:
                raise ConfigError("trials must be >= 1000 when MC is enabled")
            _check_seed(self.seed)

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
    return SystemParams(**kw)


def _sweep_config(cfg: dict, args) -> SweepConfig:
    axes = [k for k in ("sweep_p_r_dbm", "sweep_sigma0_sq_dbm", "sweep_prd")
            if k in cfg]
    if len(axes) != 1:
        raise ConfigError("config must set exactly one sweep_* axis")
    axis = axes[0]
    analytic_only = bool(cfg.get("analytic_only", False)) or args.analytic_only
    variants = cfg.get("variants", None)
    if variants is None:
        variants = tuple(v for v in VARIANTS
                         if not (analytic_only and v == "mc"))
    elif analytic_only and "mc" in variants:
        raise ConfigError("analytic_only excludes the mc variant")
    return SweepConfig(
        base=_base_system(cfg),
        x_kind=axis.removeprefix("sweep_"),
        x_values=tuple(cfg[axis]),
        orders=tuple(cfg.get("orders", (3,))),
        variants=tuple(variants),
        r_l_values=tuple(cfg.get("r_l", (1000.0,))),
        trials=args.trials if args.trials is not None
               else cfg.get("trials", 100_000),
        seed=args.seed if args.seed is not None else cfg.get("seed", 1),
        oversample=cfg.get("oversample", 16),
        window=cfg.get("window", 32),
        analytic_only=analytic_only,
        out=args.out or cfg.get("out"),
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
    sigma0_sq = 1e-3 * 10.0 ** (x / 10.0)
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


_PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Generated plotting companion for {csv_name}. Requires matplotlib."""
import csv
import math
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
with open({csv_name!r}) as fh:
    rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
x_kind = rows[1][1] if len(rows) > 1 else "x"
for r in rows[1:]:
    x, ber = float(r[0]), float(r[6])
    if math.isnan(ber) or ber <= 0:
        continue
    label = f"order{{r[7]}} {{r[4]}} R_L={{float(r[3]):g}}ohm"
    series[label].append((x, ber))

fig, ax = plt.subplots(figsize=(7, 5))
for label in sorted(series):
    pts = sorted(series[label])
    ax.semilogy([p[0] for p in pts], [p[1] for p in pts],
                marker="o", label=label)
ax.set_xlabel(x_kind)
ax.set_ylabel("BER")
ax.grid(True, which="both", alpha=0.3)
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig({png_name!r}, dpi=150)
print("wrote", {png_name!r})
'''


def _emit_plot_script(out_csv: str) -> str:
    path = out_csv + ".plot.py"
    with open(path, "w") as fh:
        fh.write(_PLOT_TEMPLATE.format(csv_name=os.path.basename(out_csv),
                                       png_name=os.path.basename(out_csv)
                                       + ".png"))
    return path


def _cmd_ber_sweep(args) -> int:
    cfg_dict = load_config(args.config) if args.config else {}
    try:
        cfg = _sweep_config(cfg_dict, args)
    except (ConfigError, ParamError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = run_ber_sweep(cfg)
    try:
        _write_sweep(rows, cfg.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.emit_plot_script:
        if not cfg.out:
            print("--emit-plot-script requires --out", file=sys.stderr)
            return EXIT_CONFIG
        _emit_plot_script(cfg.out)
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


def _cmd_fit(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    moments = args.moments if args.moments else cfg.get("moments")
    samples_path = args.samples or cfg.get("samples")
    if (moments is None) == (samples_path is None):
        print("config error: provide exactly one of --moments / --samples",
              file=sys.stderr)
        return EXIT_CONFIG
    order = args.order if args.order is not None else cfg.get("order", 3)
    bit = args.bit if args.bit is not None else cfg.get("bit", 1)

    sample_set = None
    try:
        if moments is not None:
            if len(moments) != 3:
                raise ConfigError("--moments takes exactly three values")
            mus = tuple(moments)
        else:
            sample_set = _load_sample_group(samples_path, order, bit)
            mus = montecarlo.sample_moments(sample_set.values)[0]
    except (ConfigError, ParamError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

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
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("# schema=1\nalpha,beta,gamma\n")
            fh.write(f"{law.alpha:.17g},{law.beta:.17g},{law.gamma:.17g}\n")
    return EXIT_OK


def _cmd_gof(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    samples_path = args.samples or cfg.get("samples")
    if not samples_path:
        print("config error: gof needs --samples", file=sys.stderr)
        return EXIT_CONFIG
    order = args.order if args.order is not None else cfg.get("order", 3)
    bit = args.bit if args.bit is not None else cfg.get("bit", 1)
    bins = args.bins if args.bins is not None else cfg.get("bins")
    try:
        s = _load_sample_group(samples_path, order, bit)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = gof.rank_distributions(s, bins=bins)
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
    if args.out:
        report.to_csv(args.out)
    return EXIT_OK


_MOMENT_TOL = {1: 0.03, 2: 0.05, 3: 0.10}


def _cmd_mc_validate(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    try:
        base = _base_system(cfg)
        if len(cfg.get("r_l", (0,))) > 1:
            raise ConfigError("mc-validate takes a single r_l")
        trials = args.trials if args.trials is not None \
            else cfg.get("trials", 100_000)
        seed = args.seed if args.seed is not None else cfg.get("seed", 1)
        oversample = cfg.get("oversample", 16)
        window = cfg.get("window", 32)
        if trials < 1000:
            raise ConfigError("trials must be >= 1000")
        _check_seed(seed)
    except (ConfigError, ParamError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

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

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("# schema=1\n")
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK if all_pass else EXIT_TOLERANCE


def _add_common(sub) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", help="output path")
    sub.add_argument("--seed", type=int, help="RNG seed (u64)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicber",
        description="BER analysis of the power-cubic optical receiver")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ber-sweep", help="BER over a swept axis")
    _add_common(p)
    p.add_argument("--trials", type=int, help="MC trials per bit per point")
    p.add_argument("--analytic-only", action="store_true",
                   help="skip Monte-Carlo variants")
    p.add_argument("--emit-plot-script", action="store_true",
                   help="write a matplotlib script next to the CSV")
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
    _add_common(p)
    p.add_argument("--trials", type=int)
    p.set_defaults(run=_cmd_mc_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
