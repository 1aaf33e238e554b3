"""Write the stored reference outputs the workload checks compare against.

Usage: python3 perfbench/make_reference.py [WORKLOAD...]

Runs each workload once at check.REF_SEED and full size with the CLI from
./src and stores its checked output as perfbench/reference/<name>.out.
Regenerate only on purpose: a reference taken from changed code would let
that change pass its own check.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import check
from run import child_env
from workloads import REFERENCE_DIR, WORKLOADS


def main(names) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
            cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out.csv"
            cfg.write_text(w.config_text(check.REF_SEED))
            res = subprocess.run([sys.executable, "-m", "cubicber.cli",
                                  *w.argv(cfg, out)], env=child_env(),
                                 capture_output=True, text=True)
            if res.returncode != 0:
                print(f"{name}: exit code {res.returncode}\n{res.stderr}",
                      file=sys.stderr)
                return 1
            text = (res.stdout if w.command == "mc-validate"
                    else out.read_text())
        (REFERENCE_DIR / f"{name}.out").write_text(text)
        print(f"wrote {REFERENCE_DIR / (name + '.out')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
