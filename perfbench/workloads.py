"""Benchmark workloads: seeded sweeps through cskit's public entry points.

A workload is a list of sweeps. A sweep is either one CLI invocation,
``cskit.cli.main(argv)`` with every option that changes rows pinned in the
argv and the CSV captured in memory, or one library call where the CLI has no
path. A *cell* is one CSV data row, or one grid point of a Wigner surface.

Every cskit name is looked up on its module at call time, so a tracer that
replaces module attributes sees each call.

The seed moves grid offsets and amplitudes inside ranges where the cost of a
cell does not depend on the value; seed 0 reproduces the figure grids.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
NAMES = ("lossless-figures", "loss-contour", "wigner-views", "loss-contour-jobs2")

# The CLI's default state kinds, pinned so that a changed default does not
# silently change a workload.
KIND = "squeezed-single-photon"
WIGNER_RANGE = (-5.0, 5.0)


class SweepFailed(Exception):
    """A sweep returned a nonzero exit code."""


@dataclass(frozen=True)
class Sweep:
    """One CLI invocation (``argv``) or one library call (``library``, ``params``).

    ``warm_argv``/``warm_params`` give the cheap variant run before timing: it
    takes the same code paths and fills the same caches. ``check`` names the
    invariants that apply to the output; ``params`` holds what they need.
    """

    name: str
    cells: int
    check: str
    argv: tuple = None
    warm_argv: tuple = None
    library: str = None
    params: dict = field(default_factory=dict)
    warm_params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple
    jobs: int = 1

    @property
    def cells(self) -> int:
        return sum(s.cells for s in self.sweeps)


def _beta_sweep(rng, command, kind_args, cutoff, n_points):
    """A lossless sweep over the figure grid 0.05, 0.10, ..., shifted by up to 0.049."""
    start = 0.05 + (0.0 if rng is None else rng.randrange(50) / 1000.0)
    stop = start + 0.05 * (n_points - 1)
    head = (command, *kind_args)
    tail = ("--cutoff", str(cutoff))
    rows_per_beta = 8 if command == "success-prob" else 1  # 4 input families x 2 resources
    return Sweep(
        f"{command}-c{cutoff}",
        rows_per_beta * n_points,
        "unit-interval",
        argv=head + ("--beta", f"{start:g}:{stop:g}:0.05") + tail,
        warm_argv=head + ("--beta", f"{start:g}:{start:g}:0.05") + tail,
    )


def _lossless_figures(rng, smoke):
    resources = ("--resource", "ideal-odd-cat", KIND)
    teleport = ("--input", KIND, "--resource", KIND)
    entswap = ("--phi", KIND, "--resource", KIND)
    return (
        _beta_sweep(rng, "success-prob", resources, 15, 2 if smoke else 30),
        _beta_sweep(rng, "teleport", teleport, 15, 2 if smoke else 24),
        _beta_sweep(rng, "entswap", entswap, 15, 2 if smoke else 24),
        _beta_sweep(rng, "teleport", teleport, 30, 2 if smoke else 24),
        _beta_sweep(rng, "entswap", entswap, 20, 2 if smoke else 24),
    )


def _around(rng, default: float) -> float:
    """``default``, moved by the seed to default + k/100 for some k in -10..10."""
    return default if rng is None else round(default + rng.randint(-10, 10) / 100.0, 2)


def _loss_sweep(protocol, amplitude, cutoff, diagonal, step):
    n_eta = round(1.0 / step) + 1
    head = (
        "loss", "--protocol", protocol, "--input", KIND, "--resource", KIND,
        "--amplitude", repr(amplitude), "--eta", f"0:1:{step}", "--cutoff", str(cutoff),
    )
    # The diagonal visits every eta of the grid, so it warms every
    # beamsplitter configuration that the full contour uses.
    return Sweep(
        f"loss-{protocol}-a{amplitude}-c{cutoff}-eta{step}",
        n_eta if diagonal else n_eta * n_eta,
        f"loss-{protocol}",
        argv=head + (("--diagonal",) if diagonal else ()),
        warm_argv=head + ("--diagonal",),
        params={"amplitude": amplitude, "cutoff": cutoff},
    )


def _wigner_views(rng, smoke):
    steps = 51 if smoke else 201
    # The +-5 window clips the tails of larger cats, which the integral check
    # tolerates only up to beta ~ 2.1.
    cat_head = (
        "wigner", "--state", "odd-cat", "--beta", repr(_around(rng, 2.0)),
        "--range", repr(WIGNER_RANGE[0]), repr(WIGNER_RANGE[1]), "--cutoff", "15",
    )
    cat = Sweep(
        "wigner-odd-cat-c15",
        steps * steps,
        "wigner-pure",
        argv=cat_head + ("--steps", str(steps)),
        warm_argv=cat_head + ("--steps", "2"),
    )
    sq1_params = {"amplitude": _around(rng, 1.2), "cutoff": 30, "steps": steps}
    sq1 = Sweep(
        "wigner-sq1-c30",
        steps * steps,
        "wigner-pure",
        library="squeezed_photon_grid",
        params=sq1_params,
        warm_params=dict(sq1_params, steps=2),
    )
    etas = [round(0.5 + 0.05 * i, 2) for i in range(10)]
    rho_params = {
        "amplitude": _around(rng, 0.5),
        "eta1": 0.8 if rng is None else rng.choice(etas),
        "eta2": 0.7 if rng is None else rng.choice(etas),
        # (n, m) = (1, 0) is an accepted, uncorrected outcome of the odd
        # resource, with nonzero probability at every eta above.
        "n": 1,
        "m": 0,
        "cutoff": 6,
        "steps": steps,
    }
    rho = Sweep(
        "wigner-lossy-output-c6",
        steps * steps,
        "wigner-rho",
        library="lossy_output_grid",
        params=rho_params,
        warm_params=dict(rho_params, steps=2),
    )
    return (cat, sq1, rho)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``smoke`` shrinks every grid to a few cells."""
    rng = None if seed == DEFAULT_SEED else random.Random(f"{name}:{seed}")
    if name == "lossless-figures":
        return Workload(name, _lossless_figures(rng, smoke))
    if name == "loss-contour":
        step = 0.5 if smoke else 0.05
        sweeps = (
            _loss_sweep("teleport", _around(rng, 0.5), 6, False, step),
            _loss_sweep("entswap", _around(rng, 0.5), 5, True, step),
        )
        return Workload(name, sweeps)
    if name == "wigner-views":
        return Workload(name, _wigner_views(rng, smoke))
    if name == "loss-contour-jobs2":
        # The time of one pool swings by up to 3x from one pool to the next,
        # so a pass runs three pools: the teleport contour on the 0.2 grid
        # (36 cells) at three amplitudes.
        amplitude = _around(rng, 0.5)
        sweeps = tuple(
            _loss_sweep("teleport", round(amplitude + da, 2), 6, False, 0.5 if smoke else 0.2)
            for da in (-0.1, 0.0, 0.1)
        )
        return Workload(name, sweeps, jobs=2)
    raise ValueError(f"unknown workload {name!r}")


def lossy_output_density(amplitude, eta1, eta2, n, m, cutoff):
    """(probability, reduced density matrix) of the lossy teleporter's output mode."""
    from cskit import loss, protocols

    return loss.conditional_output_density(
        protocols.InputSpec(KIND, amplitude),
        protocols.ResourceSpec(KIND, math.sqrt(2.0) * amplitude),
        loss.LossConfig(eta1, eta2),
        n,
        m,
        cutoff,
    )


def phase_grid(steps):
    from cskit import wigner

    return wigner.PhaseGrid(WIGNER_RANGE, WIGNER_RANGE, steps)


def _squeezed_photon_grid(amplitude, cutoff, steps):
    from cskit import catstates, wigner

    state = catstates.squeezed_single_photon(catstates.r_opt(amplitude), cutoff)
    return wigner.wigner_grid(state, phase_grid(steps))


def _lossy_output_grid(amplitude, eta1, eta2, n, m, cutoff, steps):
    from cskit import wigner

    _, rho = lossy_output_density(amplitude, eta1, eta2, n, m, cutoff)
    return wigner.wigner_grid(rho, phase_grid(steps))


LIBRARY = {
    "squeezed_photon_grid": _squeezed_photon_grid,
    "lossy_output_grid": _lossy_output_grid,
}


def run_cli(argv) -> str:
    """Run ``cskit.cli.main(argv)`` in-process and return its CSV."""
    import cskit.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cskit.cli.main(list(argv))
    if code != 0:
        raise SweepFailed(f"cskit {' '.join(argv)} exited {code}")
    return buf.getvalue()


def run_sweep(sweep: Sweep, warm: bool = False):
    """The sweep's output: CSV text for a CLI sweep, an ndarray for a library one."""
    if sweep.argv is not None:
        return run_cli(sweep.warm_argv if warm else sweep.argv)
    return LIBRARY[sweep.library](**(sweep.warm_params if warm else sweep.params))


@contextlib.contextmanager
def cskit_jobs(n: int):
    """Set CSKIT_JOBS, which the CLI reads on every sweep, and restore it after."""
    old = os.environ.get("CSKIT_JOBS")
    os.environ["CSKIT_JOBS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["CSKIT_JOBS"]
        else:
            os.environ["CSKIT_JOBS"] = old


def warm_up(workload: Workload):
    """Run each sweep's cheap variant: fills lazy imports and the beamsplitter cache.

    It runs serially, so that the cache fills in this process, where forked
    pool workers inherit it.
    """
    with cskit_jobs(1):
        for sweep in workload.sweeps:
            run_sweep(sweep, warm=True)
