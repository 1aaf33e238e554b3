"""Set-up probe: import cubicber.cli, parse CLI_ARGS and their config, exit.

Usage: python3 perfbench/setup_probe.py CLI_ARGS...

Spawn to exit of this process is the benchmark's setup_s: interpreter
start, package import and configuration parsing, stopping before the first
computation.
"""

import sys

import cubicber.cli as cli

args = cli.build_parser().parse_args(sys.argv[1:])
cli.load_config(args.config)
