"""Command-line sweep harness emitting reproducible CSV.

One subcommand per figure-class result: approximation fidelities, success
probabilities, teleportation and entanglement-swapping fidelity sweeps, loss
contours, and Wigner grids. Every output starts with a '#'-prefixed header
echoing the resolved configuration; identical headers produce byte-identical
data rows. Rows are computed fully before anything is written, so a
failing sweep writes nothing. The engine alone cuts a grid into batches
(``protocols._batch``); ``--jobs N`` only cuts it into contiguous pieces,
one per worker process.
"""

from __future__ import annotations

import argparse
import itertools
import math
import operator
import os
import sys
from decimal import Decimal
from functools import lru_cache, partial

from . import __version__
from .catstates import approximation_fidelity_sweep
from .loss import LOSS_CUTOFFS, _averages
from .protocols import (
    RESOURCE_KINDS,
    STATE_KINDS,
    InputSpec,
    ResourceSpec,
    _beta_runs,
    _joined,
    state_kinds,
    success_probability_sweep,
)
from .wigner import PhaseGrid, wigner_grid

# Larger grids are refused rather than left to exhaust memory.
MAX_GRID_POINTS = 10**6


class UsageError(Exception):
    pass


def _parse_grid(text: str) -> list:
    """Parse 'start:stop:step' into the inclusive grid start + i * step.

    The points are computed in decimal from the text, so that 0:1:0.05 holds
    0.15 and 0.05:1.2:0.05 ends exactly on 1.2. Every grid of the CLI is an
    amplitude or a transmitivity, so none may go below 0.
    """
    try:
        start, stop, step = (Decimal(tok) for tok in text.split(":"))
        finite = all(value.is_finite() for value in (start, stop, step))
        count = int((stop - start) / step) + 1 if finite and step > 0 and stop >= start else 0
    except (ValueError, ArithmeticError):
        count = 0
    if count < 1:
        raise UsageError(
            f"bad grid {text!r}, expected start:stop:step of finite numbers"
            " with step > 0 and stop >= start"
        )
    if count > MAX_GRID_POINTS:
        raise UsageError(f"grid {text!r} has {count} points, more than {MAX_GRID_POINTS}")
    if start < 0:
        raise UsageError(f"grid {text!r} starts below 0")
    return [float(start + i * step) for i in range(count)]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _steps(text: str) -> int:
    """A Wigner grid's points per axis: at least 2, and at most MAX_GRID_POINTS in all."""
    value = _positive_int(text)
    if not 2 <= value <= math.isqrt(MAX_GRID_POINTS):
        raise argparse.ArgumentTypeError(
            f"expected steps in [2, {math.isqrt(MAX_GRID_POINTS)}], got {text!r}"
        )
    return value


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_lines(rows) -> list:
    return [",".join(_fmt(v) for v in row) for row in rows]


def _emit(args, extra, columns, data_lines):
    """Write the header, the subcommand and the pairs ``extra``, then the columns and the rows."""
    lines = [f"# tool: cskit {__version__}", f"# subcommand: {args.command}"]
    lines.extend(f"# {key}: {value}" for key, value in extra)
    lines.append(",".join(columns))
    lines.extend(data_lines)
    text = "\n".join(lines) + "\n"
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _jobs(args) -> int:
    if args.jobs is not None:
        return args.jobs
    env = os.environ.get("CSKIT_JOBS")
    if not env:
        return 1
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"CSKIT_JOBS: {exc}")


def _pmap(fn, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # only a pool pays for the import

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def _grid_lines(lines_of, grid, args) -> list:
    """The CSV lines ``lines_of`` gives over the grid, joined in grid order.

    N jobs cut the grid into min(N, points, CPUs) contiguous pieces, mapped over as
    many worker processes; a point's rows depend on neither its piece nor its batch.
    """
    jobs = _jobs(args)
    count = min(jobs, len(grid), len(os.sched_getaffinity(0)))
    pieces = [grid[k * len(grid) // count : (k + 1) * len(grid) // count] for k in range(count)]
    return [line for lines in _pmap(lines_of, pieces, jobs) for line in lines]


def _success_lines(resource_kinds, cutoff, betas) -> list:
    return _csv_lines(success_probability_sweep(betas, None, resource_kinds, cutoff))


def _outcome_fidelities(m_max, batch) -> list:
    """The fidelity of each outcome (0, m), m = 1 .. m_max, of each circuit of a batch."""
    return [summary.outcome(0, m).fidelity for [summary] in batch for m in range(1, m_max + 1)]


def _beta_lines(protocol, input_kind, resource_kind, cutoff, m_max, betas) -> list:
    """CSV lines of (beta, avg_fidelity, p_success), read from the engine's arrays, or with
    ``m_max`` the (beta, m, fidelity) of each outcome (0, m), read from the summaries of
    one batch at a time."""
    batches = _beta_runs(protocol, betas, input_kind, resource_kind, cutoff, m_max is not None)
    if m_max is None:
        success, average = (array[:, 0].tolist() for array in _joined(batches))
        return _csv_lines(zip(betas, average, success))
    # map drops each batch once its fidelities are read, before the next batch runs
    fidelities = itertools.chain.from_iterable(map(partial(_outcome_fidelities, m_max), batches))
    cells = itertools.product(betas, range(1, m_max + 1))
    return _csv_lines((beta, m, fidelity) for (beta, m), fidelity in zip(cells, fidelities))


def _loss_lines(protocol, input_spec, resource_spec, cutoff, eta2s, eta1s) -> list:
    """CSV lines of (eta1, eta2, fidelity) over eta1s x eta2s, or the eta1 = eta2 slice when
    eta2s is None, read from the loss sweeps' array (``loss._averages``). Each eta is
    formatted once, and a degenerate cell's NaN prints as nan: the same bytes as
    ``_csv_lines`` of the library's rows."""
    rows = tuple((eta,) for eta in eta1s) if eta2s is None else (tuple(eta2s),)
    average = _averages(protocol, input_spec, resource_spec, cutoff, eta1s, rows)
    fidelities = map(repr, average.ravel().tolist())
    if eta2s is None:
        return [2 * (repr(eta) + ",") + fidelity for eta, fidelity in zip(eta1s, fidelities)]
    cells = itertools.product(*([repr(eta) + "," for eta in etas] for etas in (eta1s, eta2s)))
    return [eta1 + eta2 + fidelity for (eta1, eta2), fidelity in zip(cells, fidelities)]


def _cmd_approx(args):
    grid = _parse_grid(args.beta)
    rows = [
        (row.beta, row.r, row.fidelity)
        for row in approximation_fidelity_sweep(args.kind, grid, args.cutoff)
    ]
    extra = [("kind", args.kind), ("beta-grid", args.beta), ("cutoff", args.cutoff)]
    _emit(args, extra, ["beta", "r_opt", "fidelity"], _csv_lines(rows))


def _cmd_success_prob(args):
    grid = _parse_grid(args.beta)
    kinds = tuple(args.resource)
    lines = _grid_lines(partial(_success_lines, kinds, args.cutoff), grid, args)
    extra = [
        ("resource", " ".join(kinds)),
        ("beta-grid", args.beta),
        ("cutoff", args.cutoff),
    ]
    _emit(args, extra, ["beta", "input_family", "resource_kind", "p_success"], lines)


def _cmd_teleport(args):
    m_max = args.m_max
    if not args.per_outcome:
        if m_max is not None:
            raise UsageError("--m-max is read only with --per-outcome")
    else:
        m_max = min(5, args.cutoff) if m_max is None else m_max
        if not 1 <= m_max <= args.cutoff:
            raise UsageError(f"--m-max {m_max} outside [1, cutoff={args.cutoff}]")
    grid = _parse_grid(args.beta)
    extra = [
        ("input", args.input),
        ("resource", args.resource),
        ("beta-grid", args.beta),
        ("cutoff", args.cutoff),
    ]
    lines_of = partial(_beta_lines, "teleport", args.input, args.resource, args.cutoff, m_max)
    lines = _grid_lines(lines_of, grid, args)
    if args.per_outcome:
        extra.append(("m-max", m_max))
        columns = ["beta", "m", "fidelity"]
    else:
        columns = ["beta", "avg_fidelity", "p_success"]
    _emit(args, extra, columns, lines)


def _cmd_entswap(args):
    grid = _parse_grid(args.beta)
    lines_of = partial(_beta_lines, "entswap", args.phi, args.resource, args.cutoff, None)
    lines = _grid_lines(lines_of, grid, args)
    extra = [
        ("phi", args.phi),
        ("resource", args.resource),
        ("beta-grid", args.beta),
        ("cutoff", args.cutoff),
    ]
    _emit(args, extra, ["beta", "avg_fidelity", "p_success"], lines)


def _cmd_loss(args):
    grid = _parse_grid(args.eta)
    if grid[-1] > 1.0:
        raise UsageError(f"eta grid {args.eta!r} leaves [0, 1]")
    count = len(grid) * (1 if args.diagonal else len(grid))
    if count > MAX_GRID_POINTS:
        raise UsageError(f"eta grid {args.eta!r} has {count} cells, more than {MAX_GRID_POINTS}")
    cutoff = LOSS_CUTOFFS[args.protocol] if args.cutoff is None else args.cutoff
    amplitude = args.amplitude
    resource_beta = math.sqrt(2.0) * amplitude if args.protocol == "teleport" else amplitude
    specs = (InputSpec(args.input, amplitude), ResourceSpec(args.resource, resource_beta))
    eta2s = None if args.diagonal else grid
    lines_of = partial(_loss_lines, args.protocol, *specs, cutoff, eta2s)
    lines = _grid_lines(lines_of, grid, args)
    extra = [
        ("protocol", args.protocol),
        ("input", args.input),
        ("resource", args.resource),
        ("amplitude", args.amplitude),
        ("eta-grid", args.eta),
        ("diagonal", args.diagonal),
        ("cutoff", cutoff),
    ]
    _emit(args, extra, ["eta1", "eta2", "fidelity"], lines)


def _cmd_wigner(args):
    lo, hi = args.range
    if not (lo < hi and math.isfinite(hi - lo)):
        raise UsageError("wigner range must satisfy lo < hi with a finite width hi - lo")
    if args.beta < 0.0 and args.state != "coherent":
        raise UsageError(f"--beta {args.beta} below 0 is defined only for the coherent state")
    if args.r is not None and args.state not in ("sq1", "sq0"):
        raise UsageError(f"--r is read only by sq1 and sq0, not by {args.state}")
    grid = PhaseGrid((lo, hi), (lo, hi), args.steps)
    state = STATE_KINDS[args.state].build(args.beta, args.cutoff, args.r)
    surface = wigner_grid(state, grid)
    # Each axis value is formatted once, and the lines of one x are one join;
    # the rows are the same bytes as _csv_lines over (x, p, W) float tuples.
    x_cells = [repr(x) + "," for x in grid.xs.tolist()]
    p_cells = [repr(p) + "," for p in grid.ps.tolist()]
    lines = [
        x_cell + ("\n" + x_cell).join(map(operator.add, p_cells, map(repr, row)))
        for x_cell, row in zip(x_cells, surface.tolist())
    ]
    extra = [
        ("state", args.state),
        ("beta", args.beta),
        ("r", args.r),
        ("range", f"{lo}:{hi}"),
        ("steps", args.steps),
        ("cutoff", args.cutoff),
    ]
    _emit(args, extra, ["x", "p", "W"], lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cskit",
        description="Coherent-state teleportation sweeps in a truncated Fock space.",
    )
    parser.add_argument("--version", action="version", version=f"cskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    input_kinds = state_kinds("input")

    def common(p, cutoff_default, gridded):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        p.add_argument("--cutoff", type=_positive_int, default=cutoff_default)
        if gridded:
            p.add_argument(
                "--jobs", type=_positive_int, default=None, help="worker processes (env CSKIT_JOBS)"
            )

    p = sub.add_parser("approx", help="cat-approximation fidelity vs beta")
    p.add_argument("--kind", choices=("even", "odd"), required=True)
    p.add_argument("--beta", default="0:1.5:0.01", help="grid start:stop:step")
    common(p, 15, False)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("success-prob", help="teleportation success probability vs beta")
    p.add_argument("--beta", default="0.05:1.5:0.05")
    p.add_argument(
        "--resource", nargs="+", choices=RESOURCE_KINDS,
        default=("ideal-odd-cat", "squeezed-single-photon"),
    )
    common(p, 15, True)
    p.set_defaults(func=_cmd_success_prob)

    p = sub.add_parser("teleport", help="average teleportation fidelity vs beta")
    p.add_argument("--input", choices=input_kinds, default="squeezed-single-photon")
    p.add_argument("--resource", choices=RESOURCE_KINDS, default="squeezed-single-photon")
    p.add_argument("--beta", default="0.05:1.2:0.05")
    p.add_argument("--per-outcome", action="store_true", help="emit per-(n=0,m) fidelities")
    p.add_argument(
        "--m-max", type=int, default=None,
        help="largest m with --per-outcome (default 5, or the cutoff when smaller)",
    )
    common(p, 15, True)
    p.set_defaults(func=_cmd_teleport)

    p = sub.add_parser("entswap", help="entanglement-swapping fidelity vs beta")
    p.add_argument("--phi", choices=input_kinds, default="squeezed-single-photon")
    p.add_argument("--resource", choices=RESOURCE_KINDS, default="squeezed-single-photon")
    p.add_argument("--beta", default="0.05:1.2:0.05")
    common(p, 15, True)
    p.set_defaults(func=_cmd_entswap)

    p = sub.add_parser("loss", help="fidelity over an (eta1, eta2) loss grid")
    p.add_argument("--protocol", choices=tuple(LOSS_CUTOFFS), default="teleport")
    p.add_argument("--input", choices=input_kinds, default="squeezed-single-photon")
    p.add_argument("--resource", choices=RESOURCE_KINDS, default="squeezed-single-photon")
    p.add_argument(
        "--amplitude", type=_nonnegative_float, default=0.5,
        help="alpha (teleport) or beta (entswap)",
    )
    p.add_argument("--eta", default="0:1:0.05", help="grid start:stop:step for both etas")
    p.add_argument("--diagonal", action="store_true", help="only the eta1=eta2 slice")
    common(p, None, True)
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("wigner", help="Wigner function on a phase-space grid")
    p.add_argument("--state", choices=state_kinds("wigner"), required=True)
    p.add_argument("--beta", type=_finite_float, default=1.0)
    p.add_argument(
        "--r", type=_nonnegative_float, default=None, help="override squeezing for sq1/sq0"
    )
    p.add_argument(
        "--range", type=_finite_float, nargs=2, default=(-5.0, 5.0), metavar=("LO", "HI")
    )
    p.add_argument("--steps", type=_steps, default=101)
    common(p, 15, False)
    p.set_defaults(func=_cmd_wigner)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built once per process; it holds no state between parses."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
