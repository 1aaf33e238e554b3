#!/usr/bin/env python3
"""cubicber benchmark: end-to-end CLI runs, or one traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it); the package is taken
from ./src, nothing needs installing. Workloads are in workloads.py.

--trace 0 (end to end, tracing off). Set-up probes first: a fresh
interpreter that imports cubicber.cli and parses the workload's argv and
config, then exits. Then the real CLI runs in a fresh child process, again
and again, while the next run still fits in S seconds (at least
MIN_RUNS). Wall time, CPU time and peak RSS are taken per child from
os.wait4, so one child's memory never leaks into another's figure. Every
output is checked (check.py) and must be byte-identical between the runs.
Metrics (medians over the runs, except peak_rss_mb):
  wall_s       spawn to exit of the CLI child
  setup_s      spawn to exit of a set-up probe
  work_per_s   work units per second of wall_s (see Workload.units)
  peak_rss_mb  highest peak resident memory of any CLI child; the maximum,
               because a child's peak can be bimodal (299 or 313 MiB from
               one run to the next on validate-long at 20k trials per bit)

--trace 1 (per layer). Pairs of one untraced CLI child and one traced child
(traced.py, which wraps the package functions from the outside) while the
next pair fits in S seconds; the per-layer metrics below are medians over
the pairs. Counts derived from array shapes are exact and repeat run to
run.

The last stdout line is the result object; the line before it holds the
environment. Both, with every per-run sample, are also written to
.perfbench_runs/<workload>-seed<N>-trace<T>/result.json.

Self-tests: python3 -m pytest perfbench -q. Stored reference outputs:
perfbench/make_reference.py.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

MIN_RUNS = 2          # CLI runs per end-to-end measurement, at least
SETUP_PROBES = 3      # set-up probes per end-to-end measurement
DEADLINE_S = 170.0    # whole benchmark process, including set-up probes

END_TO_END = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s",
              "peak_rss_mb": "MiB"}

PER_LAYER = {
    "cli.import_s": "s", "config.load_s": "s",
    "cli.sweep_s": "s", "cli.points": "count", "cli.points_failed": "count",
    "failed_frac": "ratio",
    "proc.cpu_s": "s", "proc.cpu_util": "ratio",
    "rng.calls": "count", "rng.normals": "count",
    "rng.philox_blocks": "count", "rng.busy_s": "s",
    "rng.philox_busy_s": "s", "rng.invnorm_busy_s": "s",
    "rng.normals_per_s": "1/s",
    "synth.chunks": "count", "synth.useful_frac": "ratio",
    "synth.self_s": "s", "synth.gemm_flops": "count",
    "synth.bytes_computed": "B", "synth.gflop_per_s": "GFLOP/s",
    "montecarlo.generate.busy_s": "s", "montecarlo.generate.trials": "count",
    "montecarlo.empirical_ber.busy_s": "s",
    "moments.calls": "count", "moments.busy_s": "s",
    "lp3.fit.calls": "count", "lp3.fit.busy_s": "s",
    "lp3.cdf.calls": "count", "lp3.cdf.points": "count",
    "lp3.cdf.busy_s": "s", "lp3.quantile.calls": "count",
    "lp3.quantile.busy_s": "s", "lp3.reg_gamma_p.points": "count",
    "detection.optimize.calls": "count", "detection.optimize.self_s": "s",
    "detection.st_cdf.calls": "count", "detection.st_cdf.busy_s": "s",
    "detection.st_cdf.per_optimize": "count",
    "gof.rank.calls": "count", "gof.rank.busy_s": "s",
    "gof.rank.self_s": "s",
    "trace.overhead_frac": "ratio",
}


T_PROCESS = time.perf_counter()


class Budget:
    """Start another child only while it is expected to end in time."""

    def __init__(self, seconds: float) -> None:
        self.t0 = time.perf_counter()
        self.seconds = seconds

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def fits(self, done: int, minimum: int, last: float) -> bool:
        """Whether to start one more child expected to take `last` s."""
        if time.perf_counter() - T_PROCESS + last > DEADLINE_S:
            return False
        return done < minimum or self.elapsed() + last <= self.seconds


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list, cwd: Path, stdout_path: Path) -> dict:
    """Run argv to completion; wall, CPU and peak RSS of that child alone."""
    remaining = DEADLINE_S - (time.perf_counter() - T_PROCESS)
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        killer = threading.Timer(max(remaining, 1.0), proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0, "exit_code": proc.returncode}


class Session:
    """Files and checks of one benchmark invocation for one workload."""

    def __init__(self, workload, seed: int, rundir: Path,
                 smoke: bool = False) -> None:
        self.w = workload
        self.smoke = smoke
        self.dir = rundir
        self.config = rundir / "run.cfg"
        self.config.write_text(workload.config_text(seed, smoke))
        self.verdict = check.Verdict()
        self.first_output = None
        self.n = 0

    def run_cli(self, traced: bool) -> dict:
        """One CLI child (plain or traced), checked; returns its resources."""
        self.n += 1
        tag = f"{'traced' if traced else 'cli'}{self.n}"
        out_path = self.dir / f"{tag}.csv"
        stdout_path = self.dir / f"{tag}.stdout"
        if traced:
            trace_path = self.dir / f"{tag}.trace.json"
            argv = [sys.executable, str(HERE / "traced.py"), str(trace_path),
                    "--", *self.w.argv(self.config, out_path)]
        else:
            argv = [sys.executable, "-m", "cubicber.cli",
                    *self.w.argv(self.config, out_path)]
        res = spawn(argv, self.dir, stdout_path)
        stdout = stdout_path.read_text()
        out_text = out_path.read_text() if out_path.exists() else ""
        v = self.w.check(stdout, out_text, self.smoke)
        # the run itself: exit code, and bytes equal to the first run's
        output = (stdout, out_text)
        if self.first_output is None:
            self.first_output = output
        v.op(res["exit_code"] == 0, f"{tag}: exit code {res['exit_code']}")
        v.op(output == self.first_output, f"{tag}: output differs from run 1")
        self.verdict.add(v)
        if traced:
            res["trace"] = (json.loads(trace_path.read_text())
                            if trace_path.exists() else None)
        return res

    def run_setup_probe(self) -> float:
        argv = [sys.executable, str(HERE / "setup_probe.py"),
                *self.w.argv(self.config, self.dir / "probe.csv")]
        res = spawn(argv, self.dir, self.dir / "probe.stdout")
        self.verdict.op(res["exit_code"] == 0,
                        f"set-up probe: exit code {res['exit_code']}")
        return res["wall_s"]


def measure_end_to_end(s: Session, budget: Budget) -> tuple:
    setups = [s.run_setup_probe() for _ in range(SETUP_PROBES)]
    runs, last = [], 0.0
    while budget.fits(len(runs), MIN_RUNS, last):
        runs.append(s.run_cli(traced=False))
        last = runs[-1]["wall_s"]
    units = s.w.units()
    med = statistics.median
    metrics = {
        "wall_s": med(r["wall_s"] for r in runs),
        "setup_s": med(setups),
        "work_per_s": med(units / r["wall_s"] for r in runs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    return metrics, {"setup_s": setups, "runs": runs}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(trace: dict, plain: dict, traced: dict, failed_frac: float):
    """Per-layer metrics of one traced run and the untraced run beside it."""
    keys, layers, counts = trace["keys"], trace["layers"], trace["counts"]

    def key(name, field):
        return keys.get(name, {}).get(field, 0)

    def layer(name, field):
        return layers.get(name, {}).get(field, 0)

    def count(name):
        return counts.get(name, 0)

    optimize_ids = {sp["id"] for sp in trace["spans"]
                    if sp["name"] == "detection.optimize_threshold"}
    st_parents = {sp["parent"] for sp in trace["spans"]
                  if sp["name"] == "detection.cdf_shot_thermal"}
    by_id = {sp["id"]: sp for sp in trace["spans"]}
    searches_with_st = set()
    for pid in st_parents:
        while pid and pid not in optimize_ids:
            pid = by_id[pid]["parent"] if pid in by_id else 0
        if pid:
            searches_with_st.add(pid)

    return {
        "cli.import_s": trace["import_s"],
        "config.load_s": key("config.load_config", "busy_s"),
        "cli.sweep_s": key("cli.run_ber_sweep", "busy_s"),
        "cli.points": count("cli.points"),
        "cli.points_failed": count("cli.points_failed"),
        "failed_frac": failed_frac,
        "proc.cpu_s": plain["cpu_s"],
        "proc.cpu_util": _ratio(plain["cpu_s"], plain["wall_s"]),
        "rng.calls": layer("rng", "calls"),
        "rng.normals": count("rng.normals"),
        "rng.philox_blocks": count("rng.philox_blocks"),
        "rng.busy_s": layer("rng", "busy_s"),
        "rng.philox_busy_s": key("rng.philox4", "busy_s"),
        "rng.invnorm_busy_s": key("rng.inverse_normal_cdf", "busy_s"),
        "rng.normals_per_s": _ratio(count("rng.normals"),
                                    layer("rng", "busy_s")),
        "synth.chunks": count("synth.chunks"),
        "synth.useful_frac": _ratio(count("synth.trials_requested"),
                                    count("synth.trials_computed")),
        "synth.self_s": key("synth.decision_sums", "self_s"),
        "synth.gemm_flops": count("synth.gemm_flops"),
        "synth.bytes_computed": count("synth.bytes_computed"),
        "synth.gflop_per_s": _ratio(count("synth.gemm_flops") / 1e9,
                                    key("synth.decision_sums", "self_s")),
        "montecarlo.generate.busy_s":
            key("montecarlo.generate_samples", "busy_s"),
        "montecarlo.generate.trials": count("montecarlo.trials"),
        "montecarlo.empirical_ber.busy_s":
            key("montecarlo.empirical_ber", "busy_s"),
        "moments.calls": layer("moments", "calls"),
        "moments.busy_s": layer("moments", "busy_s"),
        "lp3.fit.calls": key("lp3.fit_from_moments", "calls"),
        "lp3.fit.busy_s": key("lp3.fit_from_moments", "busy_s"),
        "lp3.cdf.calls": key("lp3.cdf", "calls"),
        "lp3.cdf.points": count("lp3.cdf.points"),
        "lp3.cdf.busy_s": key("lp3.cdf", "busy_s"),
        "lp3.quantile.calls": key("lp3.quantile", "calls"),
        "lp3.quantile.busy_s": key("lp3.quantile", "busy_s"),
        "lp3.reg_gamma_p.points": count("lp3.reg_gamma_p.points"),
        "detection.optimize.calls":
            key("detection.optimize_threshold", "calls"),
        "detection.optimize.self_s":
            key("detection.optimize_threshold", "self_s"),
        "detection.st_cdf.calls": key("detection.cdf_shot_thermal", "calls"),
        "detection.st_cdf.busy_s":
            key("detection.cdf_shot_thermal", "busy_s"),
        "detection.st_cdf.per_optimize":
            _ratio(key("detection.cdf_shot_thermal", "calls"),
                   len(searches_with_st)),
        "gof.rank.calls": key("gof.rank_distributions", "calls"),
        "gof.rank.busy_s": key("gof.rank_distributions", "busy_s"),
        "gof.rank.self_s": key("gof.rank_distributions", "self_s"),
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
    }


def measure_traced(s: Session, budget: Budget) -> tuple:
    pairs, last = [], 0.0
    while budget.fits(len(pairs), 1, last):
        t0 = budget.elapsed()
        plain = s.run_cli(traced=False)
        traced = s.run_cli(traced=True)
        pairs.append((plain, traced))
        last = budget.elapsed() - t0
    for _, traced in pairs:
        s.verdict.op(traced["trace"] is not None, "traced run wrote no trace")
    failed_frac = _ratio(s.verdict.failed, s.verdict.attempted)
    per_pair = [layer_metrics(traced["trace"], plain, traced, failed_frac)
                for plain, traced in pairs if traced["trace"] is not None]
    metrics = {name: statistics.median(m[name] for m in per_pair)
               if per_pair else 0.0 for name in PER_LAYER}
    for plain, traced in pairs:
        trace = traced.pop("trace", None)
        if trace is not None:
            traced["spans"] = len(trace["spans"])
    return metrics, {"pairs": pairs, "per_pair": per_pair}


def src_line_count() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def blas_info() -> dict:
    """BLAS numpy links against, and its thread count (OpenBLAS only)."""
    import ctypes

    import numpy as np

    np.dot(np.ones((2, 2)), np.ones((2, 2)))  # make sure the library is mapped
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "src_lines": src_line_count(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cubicber" / "cli.py").is_file():
        print(f"error: no cubicber package under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    rundir = RUNS_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    rundir.mkdir(parents=True, exist_ok=True)
    for old in rundir.iterdir():
        old.unlink()
    session = Session(w, args.seed, rundir)
    budget = Budget(args.seconds)
    if args.trace:
        values, samples = measure_traced(session, budget)
        units = PER_LAYER
    else:
        values, samples = measure_end_to_end(session, budget)
        units = END_TO_END
    v = session.verdict
    result = {
        "correct": v.failed == 0,
        "attempted": v.attempted,
        "failed": v.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }
    env = environment(args.seed)
    (rundir / "result.json").write_text(json.dumps(
        {"workload": w.name, "env": env, "misses": v.misses,
         "samples": samples, "result": result}, indent=1))
    for miss in v.misses:
        print(f"check failed: {miss}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
