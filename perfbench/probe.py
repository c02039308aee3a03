"""Set-up probe: a fresh process imports cskit and warms one workload, then exits.

    python3 perfbench/probe.py WORKLOAD SEED [--smoke]

``run.py`` times this process from spawn to exit; that is what a CLI user
pays before the first row on every invocation.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cskit  # noqa: E402,F401
import cskit.cli  # noqa: E402,F401

import workloads  # noqa: E402


def main(argv):
    workload = workloads.build(argv[0], int(argv[1]), smoke="--smoke" in argv)
    workloads.warm_up(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
