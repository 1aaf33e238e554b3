"""The package runs on numpy alone: no command and no import reaches scipy.

Each command runs in a fresh interpreter whose import system refuses every
scipy module, so a scipy import anywhere on its path fails the run. scipy
stays installed for the tests, which use it as an oracle.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

NO_SCIPY = """\
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from cubicber.cli import main

sys.exit(main(sys.argv[1:]))
"""


def _python(args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120, **kw)


SWEEP = ("prd = 10\nsweep_p_r_dbm = 35:35:1\norders = 3\n"
         "variants = lp3, lp3_shot_thermal, gauss_approx\n"
         "analytic_only = true\n")
# the benchmark's validate-long run, which it requires to pass
VALIDATE = "prd = 100\np_r = 33dBm\ntrials = 10000\nseed = 1\n"


@pytest.mark.parametrize("command,config,expect", [
    ("ber-sweep", SWEEP, "35,p_r_dbm,10,1000,lp3_shot_thermal,"),
    ("mc-validate", VALIDATE, "gof (order 3, bit 1): n=10000"),
    ("fit", None, "fit_result alpha="),
], ids=["ber-sweep", "mc-validate", "fit"])
def test_commands_run_without_scipy(tmp_path, command, config, expect):
    if config is None:
        argv = ["--moments", "2.0", "5.0", "14.0"]
    else:
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        argv = ["--config", str(tmp_path / "run.cfg")]
    got = _python(["-c", NO_SCIPY, command, *argv])
    assert (got.returncode, got.stderr) == (0, "")
    assert expect in got.stdout
    if command == "ber-sweep":  # three rows, none with an error
        rows = got.stdout.splitlines()[2:]
        assert len(rows) == 3 and all(r.endswith(",3,") for r in rows)


def test_cli_import_loads_no_scipy():
    got = _python(["-c", "import sys, cubicber.cli; print(sorted(m for m in "
                   "sys.modules if m.startswith('scipy')))"])
    assert (got.returncode, got.stdout) == (0, "[]\n")
