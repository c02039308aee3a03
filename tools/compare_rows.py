"""Run cskit commands on two source trees and compare their CSV rows.

    python tools/compare_rows.py OLD_TREE NEW_TREE [--command "ARGV" ...] [--file FILE]
        [--bench] [--tol TOL]

Each command is a ``cskit`` argv, for example ``"loss --eta 0:1:0.1"``, run
as ``python -m cskit.cli`` with ``src`` of each tree on ``PYTHONPATH``.
``--file`` reads one command per line (blank lines and ``#`` lines are
skipped). ``--bench`` adds the argv of every CLI sweep of the benchmark's
workloads at seed 0, read from NEW_TREE's ``perfbench/workloads.py`` (its
library sweeps have no argv and stay out). With no command, the default of
every gridded subcommand and the four ``loss`` variants run. Per command it
reports:

- the exit code on each tree;
- the number of data rows on each tree;
- the largest |delta| over the numeric cells of the rows;
- the number of ``nan`` cells on the old tree, and whether the sets of
  ``nan`` cells are equal;
- whether the header lines and the non-numeric cells are equal.

It exits 1 when any command differs in exit code, rows, ``nan`` cells,
header or text cells, or moves a number by more than ``--tol`` (default
1e-12), and 0 otherwise. Standard library only; it is not part of the test
suite.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import shlex
import subprocess
import sys

DEFAULT_COMMANDS = (
    "success-prob",
    "teleport",
    "teleport --per-outcome",
    "entswap",
    "loss",
    "loss --diagonal",
    "loss --protocol entswap",
    "loss --protocol entswap --diagonal",
)


def bench_commands(tree: str) -> list:
    """The argv of every CLI sweep of ``tree``'s benchmark workloads at seed 0, as commands."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", os.path.join(tree, "perfbench", "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    return [
        shlex.join(sweep.argv)
        for name in workloads.NAMES
        for sweep in workloads.build(name, workloads.DEFAULT_SEED).sweeps
        if sweep.argv is not None
    ]


def run(tree: str, argv: list) -> tuple:
    """(exit code, stdout) of ``cskit argv`` with ``tree``'s sources first on the path."""
    env = dict(os.environ)
    src = os.path.join(os.path.abspath(tree), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "cskit.cli", *argv], env=env, capture_output=True, text=True,
        check=False,
    )
    return done.returncode, done.stdout


def split(output: str) -> tuple:
    """(header lines, data rows as lists of cells), the column line counted as a header line."""
    lines = output.splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    return header + body[:1], [line.split(",") for line in body[1:]]


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare(old: str, new: str) -> dict:
    """The largest |delta|, the old nan cells, and whether nan cells, headers and text agree."""
    old_header, old_rows = split(old)
    new_header, new_rows = split(new)
    largest, nans, nan_equal, text_equal = 0.0, 0, True, True
    for old_row, new_row in zip(old_rows, new_rows):
        if len(old_row) != len(new_row):
            text_equal = False
            continue
        for a, b in zip(old_row, new_row):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                text_equal &= a == b
            elif math.isnan(x) or math.isnan(y):
                nans += math.isnan(x)
                nan_equal &= math.isnan(x) and math.isnan(y)
            else:
                largest = max(largest, abs(x - y))
    return {
        "rows": (len(old_rows), len(new_rows)),
        "max_delta": largest,
        "nans": nans,
        "nan_equal": nan_equal,
        "header_equal": old_header == new_header,
        "text_equal": text_equal,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--command", action="append", default=[], help="one cskit argv")
    parser.add_argument("--file", help="one cskit argv per line")
    parser.add_argument(
        "--bench", action="store_true", help="add the CLI sweeps of the benchmark at seed 0"
    )
    parser.add_argument("--tol", type=float, default=1e-12)
    args = parser.parse_args(argv)
    commands = list(args.command)
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            commands += [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    if args.bench:
        commands += bench_commands(args.new_tree)
    commands = commands or list(DEFAULT_COMMANDS)
    differs = False
    print(
        "exit_old,exit_new,rows_old,rows_new,max_delta,nans,nan_equal,header_equal,text_equal,"
        "command"
    )
    for command in commands:
        argv_ = shlex.split(command)
        code_old, out_old = run(args.old_tree, argv_)
        code_new, out_new = run(args.new_tree, argv_)
        result = compare(out_old, out_new)
        rows_old, rows_new = result["rows"]
        differs |= (
            code_old != code_new or rows_old != rows_new or result["max_delta"] > args.tol
            or not (result["nan_equal"] and result["header_equal"] and result["text_equal"])
        )
        print(
            f"{code_old},{code_new},{rows_old},{rows_new},{result['max_delta']:.3g},"
            f"{result['nans']},{result['nan_equal']},{result['header_equal']},"
            f"{result['text_equal']},{command}"
        )
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
