"""The three benchmark workloads: cubicber CLI runs and their checks.

Each workload is one CLI command on a config written by the benchmark,
sized to a few seconds so that a run takes the median of several. The
workload seed only becomes the config's `seed`, i.e. the Monte-Carlo
stream; sizes and sweep points are fixed, so every seed asks for the same
amount of work and the run-to-run spread measures the machine, not the
input. Why each workload exists:

* sweep-mc: ber-sweep at PRD 10 over five powers, orders 1-3, with the MC
  variant, 10k trials per bit and point. The sinc basis is small
  (161 x 75), so the Philox stream and the inverse normal dominate sample
  generation; the analytic variants cost under 1%. Five points run on the
  sweep's thread pool, where numpy releases the interpreter lock.
* sweep-shot-thermal: analytic-only ber-sweep at PRD 10, order 3, with the
  shot/thermal variant at one power. No Monte-Carlo at all: each threshold
  search makes ~600 shot/thermal cdf quadratures of scalar LP3 cdf calls,
  so the run is bound by the interpreter lock. It bypasses every MC change.
  One point, so the sweep runs serially: with two points the two pool
  threads only take turns on the lock (CPU time = wall time), and on a
  shared 2-vCPU VM that handoff amplified host steal time (wall-time CV
  0.30 against 0.18 for one point, in interleaved runs).
* validate-long: mc-validate at PRD 100, 10k trials per bit, with its GOF
  report (the smallest size that still runs it). The basis is 1601 x 165,
  so the synthesis products and |r|^2n reductions weigh as much as the
  random stream; it is the only workload reaching the GOF ranking, and the
  memory-heavy one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import check

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str             # ber-sweep | mc-validate
    system: str              # config lines of the physical system
    xs: tuple = ()           # received powers in dBm (sweeps)
    settings: str = ""       # further config lines
    trials: int = 0          # MC trials per bit (per point), 0: analytic
    smoke_xs: tuple = ()
    smoke_trials: int = 0

    def sizes(self, smoke: bool) -> tuple:
        if smoke:
            return self.smoke_xs or self.xs, self.smoke_trials or self.trials
        return self.xs, self.trials

    def config_text(self, seed: int, smoke: bool = False) -> str:
        xs, trials = self.sizes(smoke)
        lines = [self.system]
        if xs:
            step = xs[1] - xs[0] if len(xs) > 1 else 1
            lines.append(f"sweep_p_r_dbm = {xs[0]}:{xs[-1]}:{step}")
        lines.append(self.settings)
        if trials:
            lines.append(f"trials = {trials}")
        lines.append(f"seed = {seed % 2**32}")
        return "\n".join(line for line in lines if line) + "\n"

    def argv(self, config_path, out_path) -> list:
        return [self.command, "--config", str(config_path),
                "--out", str(out_path)]

    def units(self) -> int:
        """Work units of one run: MC trials of both bits over all points,
        or threshold searches for an analytic-only sweep."""
        if self.trials:
            return 2 * self.trials * max(len(self.xs), 1)
        return len(self.xs) * 2  # lp3 and lp3_shot_thermal searches, order 3

    def reference(self) -> str:
        return (REFERENCE_DIR / f"{self.name}.out").read_text()

    def check(self, stdout: str, out_text: str,
              smoke: bool = False) -> check.Verdict:
        xs, trials = self.sizes(smoke)
        if self.command == "mc-validate":
            return check.check_validate(stdout, self.reference(), trials)
        return check.check_sweep(out_text, self.reference(), xs, trials,
                                 self.trials)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-mc", command="ber-sweep", system="prd = 10",
        xs=(29, 31, 33, 35, 37),
        settings="orders = 1, 2, 3\nvariants = lp3, gauss_approx, mc",
        trials=10000, smoke_xs=(33, 37), smoke_trials=4096),
    Workload(
        name="sweep-shot-thermal", command="ber-sweep", system="prd = 10",
        xs=(37,),
        settings=("orders = 3\n"
                  "variants = lp3, lp3_shot_thermal, gauss_approx\n"
                  "analytic_only = true")),
    Workload(
        name="validate-long", command="mc-validate",
        system="prd = 100\np_r = 33dBm", trials=10000),
)}
