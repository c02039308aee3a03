"""Command-line sweep harness emitting reproducible CSV.

One subcommand per figure-class result: approximation fidelities, success
probabilities, teleportation and entanglement-swapping fidelity sweeps, loss
contours, and Wigner grids. Every output starts with a '#'-prefixed header
echoing the resolved configuration; identical headers produce byte-identical
data rows. Rows are computed fully before anything is written, so a failing
sweep writes nothing.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal
from functools import partial

from . import __version__
from .catstates import approximation_fidelity_sweep
from .loss import LOSS_CUTOFFS, LossConfig, loss_cell_fidelity
from .protocols import (
    RESOURCE_KINDS,
    STATE_KINDS,
    InputSpec,
    ResourceSpec,
    run_entanglement_swap,
    run_teleportation,
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
    0.15 and 0.05:1.2:0.05 ends exactly on 1.2.
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


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(path, header_pairs, columns, rows):
    lines = [f"# tool: cskit {__version__}"]
    for key, value in header_pairs:
        lines.append(f"# {key}: {value}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
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
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _header(args, extra):
    pairs = [("subcommand", args.command)]
    pairs.extend(extra)
    pairs.append(("seed", args.seed))
    return pairs


# Row workers are module-level so a process pool can pickle them.

def _teleport_rows(beta, input_kind, resource_kind, cutoff, m_max):
    """The (beta, avg_fidelity, p_success) row, or with ``m_max`` the (beta, m, fidelity) rows."""
    alpha = beta / math.sqrt(2.0)
    summary = run_teleportation(
        InputSpec(input_kind, alpha), ResourceSpec(resource_kind, beta), cutoff
    )
    if m_max is None:
        return [(float(beta), summary.average_fidelity, summary.success_probability)]
    return [
        (float(beta), m, summary.outcome(0, m).fidelity) for m in range(1, m_max + 1)
    ]


def _entswap_row(beta, phi_kind, resource_kind, cutoff):
    summary = run_entanglement_swap(
        InputSpec(phi_kind, beta), ResourceSpec(resource_kind, beta), cutoff
    )
    return (float(beta), summary.average_fidelity, summary.success_probability)


def _cmd_approx(args):
    grid = _parse_grid(args.beta)
    rows = [
        (row.beta, row.r, row.fidelity)
        for row in approximation_fidelity_sweep(args.kind, grid, args.cutoff)
    ]
    extra = [("kind", args.kind), ("beta-grid", args.beta), ("cutoff", args.cutoff)]
    _emit(args.output, _header(args, extra), ["beta", "r_opt", "fidelity"], rows)


def _cmd_success_prob(args):
    grid = _parse_grid(args.beta)
    kinds = tuple(args.resource)
    sweep = partial(success_probability_sweep, resource_kinds=kinds, cutoff=args.cutoff)
    chunks = _pmap(sweep, [[beta] for beta in grid], _jobs(args))
    rows = [row for chunk in chunks for row in chunk]
    extra = [
        ("resource", " ".join(kinds)),
        ("beta-grid", args.beta),
        ("cutoff", args.cutoff),
    ]
    _emit(
        args.output,
        _header(args, extra),
        ["beta", "input_family", "resource_kind", "p_success"],
        rows,
    )


def _cmd_teleport(args):
    if args.per_outcome and not 1 <= args.m_max <= args.cutoff:
        raise UsageError(f"--m-max {args.m_max} outside [1, cutoff={args.cutoff}]")
    grid = _parse_grid(args.beta)
    extra = [
        ("input", args.input),
        ("resource", args.resource),
        ("beta-grid", args.beta),
        ("cutoff", args.cutoff),
    ]
    m_max = args.m_max if args.per_outcome else None
    rows_of = partial(
        _teleport_rows,
        input_kind=args.input,
        resource_kind=args.resource,
        cutoff=args.cutoff,
        m_max=m_max,
    )
    rows = [row for chunk in _pmap(rows_of, grid, _jobs(args)) for row in chunk]
    if args.per_outcome:
        extra.append(("m-max", args.m_max))
        columns = ["beta", "m", "fidelity"]
    else:
        columns = ["beta", "avg_fidelity", "p_success"]
    _emit(args.output, _header(args, extra), columns, rows)


def _cmd_entswap(args):
    grid = _parse_grid(args.beta)
    rows = _pmap(
        partial(_entswap_row, phi_kind=args.phi, resource_kind=args.resource, cutoff=args.cutoff),
        grid,
        _jobs(args),
    )
    extra = [
        ("phi", args.phi),
        ("resource", args.resource),
        ("beta-grid", args.beta),
        ("cutoff", args.cutoff),
    ]
    _emit(args.output, _header(args, extra), ["beta", "avg_fidelity", "p_success"], rows)


def _cmd_loss(args):
    grid = _parse_grid(args.eta)
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise UsageError(f"eta grid {args.eta!r} leaves [0, 1]")
    cutoff = args.cutoff if args.cutoff is not None else LOSS_CUTOFFS[args.protocol]
    if args.diagonal:
        cells = [(e, e) for e in grid]
    else:
        cells = [(e1, e2) for e1 in grid for e2 in grid]
    amplitude = args.amplitude
    resource_beta = math.sqrt(2.0) * amplitude if args.protocol == "teleport" else amplitude
    fidelity_of = partial(
        loss_cell_fidelity,
        args.protocol,
        InputSpec(args.input, amplitude),
        ResourceSpec(args.resource, resource_beta),
        amplitude,
        cutoff=cutoff,
    )
    fids = _pmap(fidelity_of, [LossConfig(*cell) for cell in cells], _jobs(args))
    rows = [(e1, e2, fid) for (e1, e2), fid in zip(cells, fids)]
    extra = [
        ("protocol", args.protocol),
        ("input", args.input),
        ("resource", args.resource),
        ("amplitude", args.amplitude),
        ("eta-grid", args.eta),
        ("diagonal", args.diagonal),
        ("cutoff", cutoff),
    ]
    _emit(args.output, _header(args, extra), ["eta1", "eta2", "fidelity"], rows)


def _cmd_wigner(args):
    lo, hi = args.range
    if not lo < hi:
        raise UsageError("wigner range must satisfy lo < hi")
    grid = PhaseGrid((lo, hi), (lo, hi), args.steps)
    state = STATE_KINDS[args.state].build(args.beta, args.cutoff, args.r)
    surface = wigner_grid(state, grid)
    rows = [
        (float(x), float(p), float(surface[i, j]))
        for i, x in enumerate(grid.xs)
        for j, p in enumerate(grid.ps)
    ]
    extra = [
        ("state", args.state),
        ("beta", args.beta),
        ("r", args.r),
        ("range", f"{lo}:{hi}"),
        ("steps", args.steps),
        ("cutoff", args.cutoff),
    ]
    _emit(args.output, _header(args, extra), ["x", "p", "W"], rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cskit",
        description="Coherent-state teleportation sweeps in a truncated Fock space.",
    )
    parser.add_argument("--version", action="version", version=f"cskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    input_kinds = state_kinds("input")

    def common(p, cutoff_default):
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
        p.add_argument(
            "--jobs", type=_positive_int, default=None, help="worker processes (env CSKIT_JOBS)"
        )
        p.add_argument(
            "--seed", type=int, default=0,
            help="label echoed into the header only; cskit draws no random numbers",
        )
        if cutoff_default is not None:
            p.add_argument("--cutoff", type=_positive_int, default=cutoff_default)

    p = sub.add_parser("approx", help="cat-approximation fidelity vs beta")
    p.add_argument("--kind", choices=("even", "odd"), required=True)
    p.add_argument("--beta", default="0:1.5:0.01", help="grid start:stop:step")
    common(p, 15)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("success-prob", help="teleportation success probability vs beta")
    p.add_argument("--beta", default="0.05:1.5:0.05")
    p.add_argument(
        "--resource", nargs="+", choices=RESOURCE_KINDS,
        default=["ideal-odd-cat", "squeezed-single-photon"],
    )
    common(p, 15)
    p.set_defaults(func=_cmd_success_prob)

    p = sub.add_parser("teleport", help="average teleportation fidelity vs beta")
    p.add_argument("--input", choices=input_kinds, default="squeezed-single-photon")
    p.add_argument("--resource", choices=RESOURCE_KINDS, default="squeezed-single-photon")
    p.add_argument("--beta", default="0.05:1.2:0.05")
    p.add_argument("--per-outcome", action="store_true", help="emit per-(n=0,m) fidelities")
    p.add_argument("--m-max", type=int, default=5)
    common(p, 15)
    p.set_defaults(func=_cmd_teleport)

    p = sub.add_parser("entswap", help="entanglement-swapping fidelity vs beta")
    p.add_argument("--phi", choices=input_kinds, default="squeezed-single-photon")
    p.add_argument("--resource", choices=RESOURCE_KINDS, default="squeezed-single-photon")
    p.add_argument("--beta", default="0.05:1.2:0.05")
    common(p, 15)
    p.set_defaults(func=_cmd_entswap)

    p = sub.add_parser("loss", help="fidelity over an (eta1, eta2) loss grid")
    p.add_argument("--protocol", choices=tuple(LOSS_CUTOFFS), default="teleport")
    p.add_argument("--input", choices=input_kinds, default="squeezed-single-photon")
    p.add_argument("--resource", choices=RESOURCE_KINDS, default="squeezed-single-photon")
    p.add_argument(
        "--amplitude", type=_finite_float, default=0.5, help="alpha (teleport) or beta (entswap)"
    )
    p.add_argument("--eta", default="0:1:0.05", help="grid start:stop:step for both etas")
    p.add_argument("--diagonal", action="store_true", help="only the eta1=eta2 slice")
    p.add_argument("--cutoff", type=_positive_int, default=None)
    common(p, None)
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("wigner", help="Wigner function on a phase-space grid")
    p.add_argument("--state", choices=state_kinds("wigner"), required=True)
    p.add_argument("--beta", type=_finite_float, default=1.0)
    p.add_argument("--r", type=_finite_float, default=None, help="override squeezing for sq1/sq0")
    p.add_argument(
        "--range", type=_finite_float, nargs=2, default=(-5.0, 5.0), metavar=("LO", "HI")
    )
    p.add_argument("--steps", type=int, default=101)
    common(p, 15)
    p.set_defaults(func=_cmd_wigner)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
