"""Flat key = value configuration files with unit suffixes.

Grammar: UTF-8 lines, `key = value`, `#` starts a comment, blank lines
ignored. Values carry optional unit suffixes (`tau_c = 100fs`,
`p_r = 35dBm`, `r_l = 1kohm`); bare numbers mean SI base units. Unknown
keys, duplicate keys and values that are not finite are hard errors.
"""

from __future__ import annotations

import math
import re

from .params import db_to_linear, dbm_to_watts


class ConfigError(ValueError):
    """Malformed configuration text or value."""


_TIME = {"fs": 1e-15, "ps": 1e-12, "ns": 1e-9, "us": 1e-6, "ms": 1e-3,
         "s": 1.0}
_LENGTH = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0}
_POWER = {"nW": 1e-9, "uW": 1e-6, "mW": 1e-3, "W": 1.0,
          "dBm": dbm_to_watts}
_RESISTANCE = {"ohm": 1.0, "kohm": 1e3, "Mohm": 1e6}
_TEMPERATURE = {"K": 1.0}
# linear by default; dB converts, also for losses <= 0 dB
_GAIN = {"dB": db_to_linear}
# the most points one sweep range may hold
SWEEP_MAX_POINTS = 100_000

_QTY_RE = re.compile(r"^([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-z]*)$")


def _split_quantity(raw: str):
    m = _QTY_RE.match(raw.strip())
    if not m:
        raise ConfigError(f"cannot parse quantity {raw!r}")
    try:
        mag = float(m.group(1))
    except ValueError:
        raise ConfigError(f"bad number in {raw!r}") from None
    return mag, m.group(2)


def _quantity(raw: str, table, what: str) -> float:
    mag, suffix = _split_quantity(raw)
    if suffix == "":
        return mag
    if suffix in table:
        unit = table[suffix]
        return unit(mag) if callable(unit) else mag * unit
    raise ConfigError(f"{what} does not take unit {suffix!r} (in {raw!r})")


def _bare(raw: str) -> float:
    mag, suffix = _split_quantity(raw)
    if suffix:
        raise ConfigError(f"expected a bare number, got {raw!r}")
    return mag


def _integer(raw: str) -> int:
    # digits alone parse exactly, also past 2^53, within the float range of
    # every other value; an exponent form such as 1e5 must be integral
    text = raw.strip()
    if re.fullmatch(r"[-+]?[0-9]+", text) and math.isfinite(float(text)):
        return int(text)
    v = _bare(raw)
    if not math.isfinite(v):  # int() would raise OverflowError
        raise ConfigError(f"{raw!r} is out of range")
    if v != int(v):
        raise ConfigError(f"expected an integer, got {raw!r}")
    return int(v)


def _boolean(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _comma_list(raw, item):
    parts = [p.strip() for p in raw.split(",")]
    if any(p == "" for p in parts):
        raise ConfigError(f"empty item in list {raw!r}")
    return tuple(item(p) for p in parts)


def _sweep_range(raw: str):
    """start:stop:step, inclusive of stop when it falls on the grid."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep range must be start:stop:step, got {raw!r}")
    start, stop, step = (_bare(p) for p in parts)
    if not step > 0:
        raise ConfigError("sweep step must be > 0")
    if stop < start:
        raise ConfigError("sweep stop must be >= start")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    if n > SWEEP_MAX_POINTS:
        raise ConfigError(f"sweep range has {n:.3g} points, more than "
                          f"{SWEEP_MAX_POINTS}")
    return tuple(start + i * step for i in range(n))


_SCHEMA = {
    # physical system
    "tau_c": lambda raw: _quantity(raw, _TIME, "a time"),
    "prd": _bare,
    "wavelength": lambda raw: _quantity(raw, _LENGTH, "a length"),
    "g_amp": lambda raw: _quantity(raw, _GAIN, "a gain"),
    "l2": lambda raw: _quantity(raw, _GAIN, "a gain"),
    "n_sp": _bare,
    "eta": _bare,
    "k": _bare,
    "gamma_nl": _bare,
    "p_r": lambda raw: _quantity(raw, _POWER, "a power"),
    "t_r": lambda raw: _quantity(raw, _TEMPERATURE, "a temperature"),
    "r_l": lambda raw: _comma_list(
        raw, lambda p: _quantity(p, _RESISTANCE, "a resistance")),
    # sweep axis (exactly one per sweep config)
    "sweep_p_r_dbm": _sweep_range,
    "sweep_sigma0_sq_dbm": _sweep_range,
    "sweep_prd": lambda raw: _comma_list(raw, _bare),
    # run settings
    "orders": lambda raw: _comma_list(raw, _integer),
    "variants": lambda raw: _comma_list(raw, str),
    "analytic_only": _boolean,
    "trials": _integer,
    "seed": _integer,
    "out": str,
    # fit / gof inputs
    "samples": str,
    "moments": lambda raw: _comma_list(raw, _bare),
    "order": _integer,
    "bit": _integer,
}

KNOWN_KEYS = frozenset(_SCHEMA)


def parse_config(text: str) -> dict:
    """Parse config text into {key: typed value}. Strict about keys."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if raw == "":
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        try:
            value = _SCHEMA[key](raw)
            items = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in items
                       if isinstance(v, float)):
                raise OverflowError
        except OverflowError:  # e.g. 1e400, 4000dB or 1e303Mohm
            raise ConfigError(f"line {lineno}: {key}: {raw!r} is out of "
                              "range") from None
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
        out[key] = value
    return out


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
