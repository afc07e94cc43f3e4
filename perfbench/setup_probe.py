"""Fresh-process set-up probe: import cqunits, parse a config read from
stdin and build its group algebra, which is what every `cqunits` call pays.

Run from the repository root; `run.py` times it from outside.
"""

import sys

sys.path.insert(0, "src")

from cqunits import cli  # noqa: E402

cli.parse_config(sys.stdin.read()).algebra
