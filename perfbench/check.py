"""Output checks of the benchmark workloads against stored references.

References are the outputs of the workloads at REF_SEED, stored under
perfbench/reference/ by make_reference.py. Two kinds of sweep row:

* seed-independent rows (analytic variants at order 3, whose laws come from
  the closed-form moments) must match the reference within ANALYTIC_RTOL
  relative, in both th_opt and ber;
* seed-dependent rows (the `mc` variant, and analytic variants at orders 1
  and 2, whose laws are fitted to Monte-Carlo samples) must lie within
  MC_Z standard deviations of the reference ber, where the deviation is
  the binomial one of the difference of two independent error-rate
  estimates, each from 2 N decisions:
  sd = sqrt(p (1 - p) (1 / (2 N) + 1 / (2 N_ref))), with p the reference
  ber floored at one error in 2 N_ref.

Each row counts as one operation; a row that is missing, unexpected, carries
a non-empty error column or misses its bound is one failed operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

ANALYTIC_RTOL = 1e-6
MC_Z = 6.0
REF_SEED = 1

SWEEP_HEADER = "x_value,x_kind,prd,rl_ohm,variant,th_opt,ber,order,error"
ANALYTIC = ("lp3", "lp3_shot_thermal", "gauss_approx")
VALIDATE_LINES = tuple(f"bit{b} mu{n}" for b in (0, 1) for n in (1, 2, 3))


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    misses: list = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(what)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.misses.extend(other.misses[:20 - len(self.misses)])


def parse_sweep(text: str) -> dict:
    """{(x, rl, order, variant): row dict} of a ber-sweep CSV."""
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != "# schema=1" or lines[1] != SWEEP_HEADER:
        raise ValueError("not a schema-1 ber-sweep CSV")
    names = SWEEP_HEADER.split(",")
    rows = {}
    for line in lines[2:]:
        parts = line.split(",")
        if len(parts) != len(names):
            raise ValueError(f"malformed row {line!r}")
        r = dict(zip(names, parts))
        key = (float(r["x_value"]), float(r["rl_ohm"]), int(r["order"]),
               r["variant"])
        if key in rows:
            raise ValueError(f"duplicate row {key}")
        rows[key] = r
    return rows


def _rel_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ANALYTIC_RTOL * abs(b)


def binomial_ok(ber: float, ref: float, n: int, n_ref: int) -> bool:
    """ber within MC_Z sd of ref; see the module docstring."""
    if not (0.0 <= ber <= 1.0):
        return False
    p = min(max(ref, 1.0 / (2 * n_ref)), 0.5)
    sd = math.sqrt(p * (1.0 - p) * (1.0 / (2 * n) + 1.0 / (2 * n_ref)))
    return abs(ber - ref) <= MC_Z * sd


def check_sweep(text: str, ref_text: str, xs, trials: int,
                ref_trials: int) -> Verdict:
    """Check a ber-sweep CSV against the reference rows at x values xs."""
    v = Verdict()
    try:
        got = parse_sweep(text)
    except ValueError as exc:
        v.op(False, f"unreadable output: {exc}")
        return v
    ref = {k: r for k, r in parse_sweep(ref_text).items()
           if k[0] in {float(x) for x in xs}}
    for key in sorted(set(got) - set(ref)):
        v.op(False, f"unexpected row {key}")
    for key in sorted(ref):
        r, want = got.get(key), ref[key]
        if r is None:
            v.op(False, f"missing row {key}")
            continue
        if r["error"]:
            v.op(False, f"row {key} error: {r['error']}")
            continue
        if (r["x_kind"], r["prd"]) != (want["x_kind"], want["prd"]):
            v.op(False, f"row {key} axis/prd differ")
            continue
        ber, ref_ber = float(r["ber"]), float(want["ber"])
        if key[3] in ANALYTIC and key[2] == 3:
            ok = (_rel_close(float(r["th_opt"]), float(want["th_opt"]))
                  and _rel_close(ber, ref_ber))
            v.op(ok, f"row {key}: th={r['th_opt']} ber={r['ber']}, "
                     f"reference th={want['th_opt']} ber={want['ber']}")
        else:
            v.op(binomial_ok(ber, ref_ber, trials, ref_trials),
                 f"row {key}: ber={ber:.6g} outside {MC_Z:g} sd of "
                 f"reference {ref_ber:.6g}")
    return v


def _validate_fields(text: str) -> dict:
    """{'bit0 mu1': {'closed': ..., 'verdict': 'PASS'}, ...} + gof info."""
    out = {}
    for line in text.splitlines():
        head, sep, rest = line.partition(": ")
        if sep and head in VALIDATE_LINES:
            words = rest.split()
            kv = dict(w.split("=", 1) for w in words if "=" in w)
            out[head] = {"closed": kv.get("closed"), "verdict": words[-1]}
        elif line.startswith("gof (order 3, bit 1): "):
            kv = dict(w.split("=", 1) for w in line.split()[-2:])
            out["gof"] = {"n": kv.get("n"), "rows": []}
        elif line.startswith("  ") and "gof" in out:
            out["gof"]["rows"].append(line.split()[0])
    return out


def check_validate(text: str, ref_text: str, trials: int) -> Verdict:
    """mc-validate stdout: every moment line PASS, closed forms as the
    reference within ANALYTIC_RTOL, and a GOF report over all trials
    ranking the same candidates as the reference."""
    v = Verdict()
    got, ref = _validate_fields(text), _validate_fields(ref_text)
    for name in VALIDATE_LINES:
        g = got.get(name)
        if g is None:
            v.op(False, f"missing line {name}")
            continue
        try:
            close = _rel_close(float(g["closed"]),
                               float(ref[name]["closed"]))
        except (TypeError, ValueError):
            close = False
        v.op(g["verdict"] == "PASS" and close,
             f"{name}: {g['verdict']} closed={g['closed']} "
             f"reference closed={ref[name]['closed']}")
    g = got.get("gof")
    v.op(g is not None and g["n"] == str(trials)
         and g["rows"] == ref["gof"]["rows"],
         f"gof report {g} differs from reference candidates")
    return v
