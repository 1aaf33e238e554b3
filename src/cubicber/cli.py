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
import ctypes
import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from . import detection, gof, lp3, montecarlo
from ._config import ConfigError, _bare, _integer, load_config
# mean_decision is not called here; perfbench/test_perfbench.py checks that
# the benchmark's tracer rewraps this `from` import of it
from .moments import decision_moments, mean_decision
from .params import (
    ParamError,
    SystemParams,
    _g_amp_for_sigma0_sq,
    dbm_to_watts,
    derive,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TOLERANCE = 4

VARIANTS = ("lp3", "lp3_shot_thermal", "gauss_approx", "mc")

# failures confined to one sweep point; recorded in the row, never fatal
# (MemoryError: a draw whose arrays numpy cannot allocate)
_POINT_ERRORS = (lp3.Lp3Error, ParamError, detection.BracketError,
                 detection.QuadratureError, ZeroDivisionError, OverflowError,
                 MemoryError)


# Default of every setting that a command-line flag or a config key sets.
_DEFAULTS = {"trials": 100_000, "seed": 1, "orders": (3,), "r_l": (1000.0,),
             "order": 3, "bit": 1}


def _settings(args) -> dict:
    """One command's settings: the command-line flag if given, else the
    config key, else the default. A key without any is missing."""
    cfg = load_config(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if v is not None}
    return {**_DEFAULTS, **cfg, **flags}


def _check_mc(trials: int, seed: int) -> None:
    """The Monte-Carlo settings, checked before any sampling starts."""
    if trials < 1000:
        raise ConfigError(f"Monte-Carlo needs trials >= 1000, got {trials}")
    if not 0 <= seed < montecarlo.SEED_LIMIT:
        raise ConfigError(f"seed must be in [0, 2^64), got {seed}")


@dataclass(frozen=True)
class SweepConfig:
    base: SystemParams
    x_kind: str                # p_r_dbm | sigma0_sq_dbm | prd
    x_values: tuple
    orders: tuple = _DEFAULTS["orders"]
    variants: tuple | None = None  # VARIANTS, without mc if analytic_only
    r_l_values: tuple = _DEFAULTS["r_l"]
    trials: int = _DEFAULTS["trials"]
    seed: int = _DEFAULTS["seed"]
    analytic_only: bool = False

    def __post_init__(self) -> None:
        if self.variants is None:
            object.__setattr__(self, "variants", tuple(
                v for v in VARIANTS if not (self.analytic_only and v == "mc")))
        elif self.analytic_only and "mc" in self.variants:
            raise ConfigError("analytic_only excludes the mc variant")
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
        for key, vals in (("orders", self.orders), ("variants", self.variants),
                          ("r_l", self.r_l_values)):
            if len(set(vals)) < len(vals):
                raise ConfigError(f"{key} repeats a value: {vals}")
        if self._needs_mc():
            _check_mc(self.trials, self.seed)

    def _needs_mc(self) -> bool:
        if self.analytic_only:
            return False
        return "mc" in self.variants or any(o != 3 for o in self.orders)


def _base_system(s: dict) -> SystemParams:
    """The system of the settings s; its first load resistance."""
    kw = {f.name: s[f.name] for f in fields(SystemParams) if f.name in s}
    kw["r_l"] = s["r_l"][0]
    try:
        return SystemParams(**kw)
    except ParamError as exc:
        raise ConfigError(str(exc)) from None


def _sweep_config(s: dict) -> SweepConfig:
    axes = [k for k in ("sweep_p_r_dbm", "sweep_sigma0_sq_dbm", "sweep_prd")
            if k in s]
    if len(axes) != 1:
        raise ConfigError("config must set exactly one sweep_* axis")
    return SweepConfig(
        base=_base_system(s),
        x_kind=axes[0].removeprefix("sweep_"),
        x_values=tuple(s[axes[0]]),
        orders=tuple(s["orders"]),
        variants=s.get("variants"),
        r_l_values=tuple(s["r_l"]),
        trials=s["trials"],
        seed=s["seed"],
        analytic_only=bool(s.get("analytic_only")),
    )


def _point_system(cfg: SweepConfig, x: float, r_l: float) -> SystemParams:
    if cfg.x_kind == "p_r_dbm":
        return replace(cfg.base, p_r=dbm_to_watts(x), r_l=r_l)
    if cfg.x_kind == "prd":
        return replace(cfg.base, prd=float(x), r_l=r_l)
    sigma0_sq = dbm_to_watts(x)
    return replace(cfg.base, r_l=r_l,
                   g_amp=_g_amp_for_sigma0_sq(cfg.base, sigma0_sq))


def _noise_key(sp: SystemParams) -> SystemParams:
    """What the noise field of a point depends on, beside the sampling
    settings that every point of a sweep shares. p_r scales only the
    signal, and r_l enters no sample, so neither is in it."""
    return replace(sp, p_r=0.0, r_l=1.0)


# Decision sums that one bit-1 draw holds at most (its sample sets take no
# more), so memory does not grow with the sweep's length.
_BATCH_BYTES = 64 * 2**20


def _draw(cfg: SweepConfig, sp: SystemParams, bit: int, powers=None):
    """The sweep's sample sets of one bit at sp (see generate_samples), or
    the message of the point error that drawing them raised."""
    try:
        return montecarlo.generate_samples(
            sp, derive(sp), bit=bit, n_trials=cfg.trials,
            orders=tuple(sorted(set(cfg.orders))), seed=cfg.seed,
            powers=powers)
    except _POINT_ERRORS as exc:
        return str(exc)


def _samples(sets, bit):
    """The sample sets {order: SampleSet} of a bit (see _eval_point)."""
    if sets is None:
        raise ParamError("Monte-Carlo sampling disabled by analytic_only")
    if isinstance(sets[bit], str):  # its draw failed
        raise ParamError(sets[bit])
    return sets[bit]


def _point_laws(cfg: SweepConfig, sp, sets) -> dict:
    """{(order, variant): the law pair, or the point error building it
    raised} of the analytic variants of one point (see _eval_point)."""
    @functools.cache
    def moments(bit, order):
        """(mu1, mu2, mu3): closed form for order 3, else MC."""
        if order == 3:
            return decision_moments(sp, derive(sp), bit)
        return montecarlo.sample_moments(_samples(sets, bit)[order].values)[0]

    @functools.cache
    def lp3_law(bit, order):
        return lp3.fit_from_moments(moments(bit, order))

    laws = {}
    for order in cfg.orders:
        for variant in cfg.variants:
            if variant == "mc":
                continue
            try:
                if variant == "lp3_shot_thermal" and order == 2:
                    # order 2's detector scale is a placeholder, so
                    # sigma^2(y) is too
                    raise ParamError("order 2 has no physical detector "
                                     "scale for shot/thermal noise")
                # each variant builds only its own laws, so it fails only
                # where they do
                if variant == "gauss_approx":
                    pair = [detection.NormalLaw(m[0], m[1] - m[0] ** 2)
                            for m in (moments(b, order) for b in (0, 1))]
                else:
                    pair = [lp3_law(b, order) for b in (0, 1)]
                if variant == "lp3_shot_thermal":
                    pair = [detection.ShotThermalLaw(lw, derive(sp))
                            for lw in pair]
                laws[order, variant] = pair
            except _POINT_ERRORS as exc:
                laws[order, variant] = exc
    return laws


def _eval_point(cfg: SweepConfig, x, r_l, sp, sets, found) -> list[dict]:
    """The rows of one sweep point at the system sp, or at the message of
    the error that building its system raised. sets: {bit: {order:
    SampleSet}, or the message of the error its draw raised}, or None for a
    point that draws nothing. found: {(order, variant): (th_opt, ber), or
    the error its laws or search raised} of the analytic variants."""
    rows = []
    prd = float(x) if cfg.x_kind == "prd" else cfg.base.prd
    for order in cfg.orders:
        for variant in cfg.variants:
            th, ber, err = math.nan, math.nan, ""
            try:
                if isinstance(sp, str):  # building its system failed
                    raise ParamError(sp)
                if variant == "mc":
                    th, ber = montecarlo.empirical_ber(
                        _samples(sets, 0)[order], _samples(sets, 1)[order])
                elif isinstance(found[order, variant], Exception):
                    raise found[order, variant]
                else:
                    th, ber = found[order, variant]
            except _POINT_ERRORS as exc:
                err = str(exc)
            rows.append(dict(x_value=x, x_kind=cfg.x_kind, prd=prd,
                             rl_ohm=r_l, variant=variant, th_opt=th,
                             ber=ber, order=order,
                             error=err.replace(",", ";")))
    return rows


def _rows(cfg: SweepConfig, points) -> list[dict]:
    """The rows of points [(x, r_l, system, sets)] (see _eval_point).

    Every point's laws are built first; then one threshold search takes
    the pairs of all points, orders and variants at once, each with the
    outcome of a search of its pair alone."""
    found = [{} if isinstance(sp, str) else _point_laws(cfg, sp, sets)
             for _, _, sp, sets in points]
    todo = [(f, key) for f in found for key in f
            if not isinstance(f[key], Exception)]
    outcomes = detection.optimize_threshold(
        *([f[key][b] for f, key in todo] for b in (0, 1)))
    for (f, key), out in zip(todo, outcomes):
        f[key] = out
    return [row for (x, rl, sp, sets), f in zip(points, found)
            for row in _eval_point(cfg, x, rl, sp, sets, f)]


def _batch_rows(cfg: SweepConfig, sp, bit0, points) -> list[dict]:
    """The rows of points {p_r: [(x, r_l, system)]} of one noise key, from
    one bit-1 draw of their powers at sp (any point of the key) and the
    key's bit-0 sets, which the future bit0 holds."""
    sets0 = bit0.result()
    sets1 = _draw(cfg, sp, 1, list(points))
    if isinstance(sets1, str):
        # a power that overflows fails the shared draw; drawn alone, it
        # fails only its own rows
        sets1 = [_draw(cfg, replace(sp, p_r=p), 1) for p in points]
    return _rows(cfg, [(x, rl, psp, {0: sets0, 1: s1})
                       for s1, xs in zip(sets1, points.values())
                       for x, rl, psp in xs])


def _key_tasks(pool, cfg: SweepConfig, sp, powers) -> list:
    """The pool tasks of the noise key of sp, whose points are powers
    {p_r: [(x, r_l, system)]}: its bit-0 draw, then one _batch_rows per
    batch of bit-1 powers, the fewest batches of at most _BATCH_BYTES of
    decision sums, their sizes at most one power apart."""
    bit0 = pool.submit(_draw, cfg, sp, 0)
    per = max(1, _BATCH_BYTES // (24 * cfg.trials))  # 3 sums a trial
    ps = list(powers)
    n = -(-len(ps) // per)
    cuts = [-(-i * len(ps) // n) for i in range(n + 1)]
    return [pool.submit(_batch_rows, cfg, sp, bit0,
                        {p: powers[p] for p in ps[a:b]})
            for a, b in zip(cuts, cuts[1:])]


def run_ber_sweep(cfg: SweepConfig) -> list[dict]:
    """All sweep rows, deterministically sorted by x, load, order, variant.

    The points of a noise key share its draws: bit 0 carries no signal, so
    one set serves them all, and bit 1 draws the key's distinct powers in
    sweep order, one noise field per batch. A shared set is bitwise the one
    each point would draw alone, since streams are counter-based. A batch
    task waits for its key's bit-0 draw, so a key never draws both bits at
    once, but its batches and other keys draw in parallel: memory is bounded
    by workers x _BATCH_BYTES plus the bit-0 sets of the keys in flight,
    each dropped with its key's last batch. The points that draw nothing
    run in one task, as they hold the GIL: more threads only trade it.
    """
    keys = {}  # noise key -> (its first sp, {p_r: [(x, r_l, sp)]})
    alone = []  # the points that draw nothing: (x, r_l, sp)
    for x in cfg.x_values:
        for rl in cfg.r_l_values:
            try:
                sp = _point_system(cfg, x, rl)
            except _POINT_ERRORS as exc:
                sp = str(exc)  # the point reports it in its rows
            if isinstance(sp, str) or not cfg._needs_mc():
                alone.append((x, rl, sp))
            else:
                powers = keys.setdefault(_noise_key(sp), (sp, {}))[1]
                powers.setdefault(sp.p_r, []).append((x, rl, sp))
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        tasks = [pool.submit(_rows, cfg, [(*p, None) for p in alone])]
        for key in keys.values():
            tasks += _key_tasks(pool, cfg, *key)
        rows = [row for task in tasks for row in task.result()]
    rows.sort(key=lambda r: (r["x_value"], r["rl_ohm"], r["order"],
                             r["variant"]))
    return rows


_SWEEP_COLUMNS = ("x_value", "x_kind", "prd", "rl_ohm", "variant",
                  "th_opt", "ber", "order", "error")


def _format_row(row: dict) -> str:
    return (f"{row['x_value']:.10g},{row['x_kind']},{row['prd']:.10g},"
            f"{row['rl_ohm']:.10g},{row['variant']},{row['th_opt']:.17g},"
            f"{row['ber']:.17g},{row['order']},{row['error']}")


def _write(out: str | None, lines) -> None:
    """A `# schema=1` line, then lines, to the file out, or to stdout when
    out is None or empty."""
    text = "\n".join(["# schema=1", *lines]) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_ber_sweep(s: dict) -> int:
    rows = run_ber_sweep(_sweep_config(s))
    _write(s.get("out"), [",".join(_SWEEP_COLUMNS), *map(_format_row, rows)])
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


def _cmd_fit(s: dict) -> int:
    moments, samples_path = s.get("moments"), s.get("samples")
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
        ks = gof.ks_statistic(lp3.cdf(law, xs))
        print(f"ks = {ks:.17g}")
    print(f"fit_result alpha={law.alpha:.17g} beta={law.beta:.17g} "
          f"gamma={law.gamma:.17g}")
    if s.get("out"):
        row = f"{law.alpha:.17g},{law.beta:.17g},{law.gamma:.17g}"
        _write(s["out"], ["alpha,beta,gamma", row])
    return EXIT_OK


def _cmd_gof(s: dict) -> int:
    if not s.get("samples"):
        raise ConfigError("gof needs --samples")
    sample_set = _load_sample_group(s["samples"], s["order"], s["bit"])
    try:
        report = gof.rank_distributions(sample_set)
    except gof.GofError as exc:
        print(f"gof failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"n = {report.n}  bins = {report.bins}")
    print("\n".join(report.lines()))
    if s.get("out"):
        _write(s["out"], report.csv_lines())
    return EXIT_OK


_MOMENT_TOL = {1: 0.03, 2: 0.05, 3: 0.10}


def _cmd_mc_validate(s: dict) -> int:
    base = _base_system(s)
    if len(s["r_l"]) > 1:
        raise ConfigError("mc-validate takes a single r_l")
    trials, seed = s["trials"], s["seed"]
    _check_mc(trials, seed)

    try:  # before any draw, which takes far longer
        dp = derive(base)
        closed_forms = [decision_moments(base, dp, bit) for bit in (0, 1)]
    except (ParamError, ArithmeticError) as exc:
        print(f"closed form failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    lines = [f"mc-validate prd={base.prd:.10g} p_r={base.p_r:.10g} "
             f"sigma0_sq={dp.sigma0_sq:.10g} trials={trials} seed={seed}"]
    all_pass = True
    for bit, closed in enumerate(closed_forms):
        try:
            sets = montecarlo.generate_samples(
                base, dp, bit=bit, n_trials=trials, orders=(3,), seed=seed)
        except (ParamError, MemoryError) as exc:
            print(f"sampling failed: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        if bit == 1:
            gof_source = sets[3]
        mus, ses = montecarlo.sample_moments(sets[3].values)
        for n, cf, mc, se in zip((1, 2, 3), closed, mus, ses):
            tol = _MOMENT_TOL[n]
            if cf == 0.0:
                rel = math.inf if mc != 0.0 else 0.0
                ok = mc == 0.0
            else:
                rel = abs(mc - cf) / abs(cf)
                ok = abs(mc - cf) <= tol * abs(cf) + 3.0 * se
            all_pass &= ok
            lines.append(
                f"bit{bit} mu{n}: closed={cf:.17g} mc={mc:.17g} "
                f"se={se:.17g} rel={rel:.6g} tol={tol:g} "
                f"{'PASS' if ok else 'FAIL'}")

    print("\n".join(lines))
    if trials >= gof.MIN_SAMPLES:
        report = gof.rank_distributions(gof_source)
        print(f"gof (order 3, bit 1): n={report.n} bins={report.bins}")
        print("\n".join(report.lines()))
    else:
        print(f"gof skipped (needs >= {gof.MIN_SAMPLES} trials)")

    if s.get("out"):
        _write(s["out"], lines)
    return EXIT_OK if all_pass else EXIT_TOLERANCE


def _flag(parse):
    """The argparse type of a flag whose config key parses with parse: a
    value the key rejects, or that is not finite, is a usage error that
    gives the key's reason."""
    def typed(raw: str):
        try:
            value = parse(raw)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{raw!r} is out of range")
        return value
    return typed


def _add_common(sub, seed: bool = False) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", help="output path")
    if seed:
        sub.add_argument("--seed", type=_flag(_integer), help="RNG seed (u64)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicber",
        description="BER analysis of the power-cubic optical receiver")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ber-sweep", help="BER over a swept axis")
    _add_common(p, seed=True)
    p.add_argument("--trials", type=_flag(_integer),
                   help="MC trials per bit per point")
    p.add_argument("--analytic-only", action="store_true", default=None,
                   help="skip Monte-Carlo variants")
    p.set_defaults(run=_cmd_ber_sweep)

    p = subs.add_parser("fit", help="three-moment LP3 fit")
    _add_common(p)
    p.add_argument("--moments", type=_flag(_bare), nargs=3,
                   metavar=("MU1", "MU2", "MU3"))
    p.add_argument("--samples", help="sample CSV (trial,order,bit,value)")
    p.add_argument("--order", type=_flag(_integer))
    p.add_argument("--bit", type=_flag(_integer))
    p.set_defaults(run=_cmd_fit)

    p = subs.add_parser("gof", help="distribution ranking for samples")
    _add_common(p)
    p.add_argument("--samples", help="sample CSV (trial,order,bit,value)")
    p.add_argument("--order", type=_flag(_integer))
    p.add_argument("--bit", type=_flag(_integer))
    p.set_defaults(run=_cmd_gof)

    p = subs.add_parser("mc-validate",
                        help="closed-form moments vs Monte-Carlo")
    _add_common(p, seed=True)
    p.add_argument("--trials", type=_flag(_integer))
    p.set_defaults(run=_cmd_mc_validate)
    return parser


def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS numpy has loaded, or
    None where it cannot be found (another BLAS, or no /proc/self/maps)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.split()[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread while a command runs.

    The commands' parallelism is ber-sweep's task pool and, inside each
    Monte-Carlo draw, the helper thread that prefetches the next block's
    normals while the caller runs its products (_mc_numpy.decision_sums).
    BLAS threads on top of them oversubscribe the cores, and between two
    products they spin on the core the caller's next numpy pass needs, so
    a run's time follows whatever else holds that core. On 2 vCPUs a busy
    process beside mc-validate at PRD 100 slowed it by 16% on one BLAS
    thread and by 39% on two; unloaded, two threads were at most ~0.1 s of
    1.5 s faster.
    The products split their output, not their sums, over threads: the
    outputs are the same bytes on one thread or two (test_mc_numpy.py
    checks the sampling kernel).
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _one_blas_thread():
            return args.run(_settings(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # reads turn OSError into ConfigError, so this is an output write
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
