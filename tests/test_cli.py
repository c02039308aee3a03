import ast
import concurrent.futures
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import cskit
from cskit import cli, fock, loss, protocols
from cskit.cli import main
from cskit.protocols import RESOURCE_KINDS, STATE_KINDS
from cskit.wigner import PhaseGrid, wigner_grid

# 1.7e308 in digits, as argparse reads "-1.7e308" as an option: -BIG and BIG
# are finite, and the width between them overflows
BIG = "17" + "0" * 307


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _parse(text):
    header = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return header, body[0].split(","), body[1:]


def _record_batches(monkeypatch):
    """Every list of slices the engine's byte rule returns, the one cut of every grid."""
    calls = []
    rule = protocols._batches

    def recorded(*args):
        calls.append(rule(*args))
        return calls[-1]

    monkeypatch.setattr(protocols, "_batches", recorded)
    return calls


class TestHeaders:
    def test_header_block(self, capsys):
        code, out = _run(capsys, ["approx", "--kind", "odd", "--beta", "0.1:0.2:0.1"])
        assert code == 0
        header, columns, rows = _parse(out)
        assert header[0].startswith("# tool: cskit ")
        assert "# subcommand: approx" in header
        assert "# kind: odd" in header
        assert "# cutoff: 15" in header
        assert not any(ln.startswith("# seed:") for ln in header)
        assert columns == ["beta", "r_opt", "fidelity"]
        assert len(rows) == 2

    def test_reproducible(self, capsys):
        argv = ["teleport", "--beta", "0.2:0.4:0.2", "--input", "odd-cat", "--resource", "ideal-odd-cat"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert first == second


class TestFileOutput:
    def test_writes_file(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code, out = _run(capsys, ["approx", "--kind", "even", "--beta", "0.5:0.5:0.1", "-o", str(path)])
        assert code == 0 and out == ""
        assert path.read_text().startswith("# tool: cskit ")

    def test_failure_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "never.csv"
        code, _ = _run(capsys, ["approx", "--kind", "odd", "--beta", "oops", "-o", str(path)])
        assert code == 2
        assert not path.exists()


class TestExitCodes:
    def test_bad_grid(self, capsys):
        assert main(["approx", "--kind", "odd", "--beta", "1:0:0.1"]) == 2
        assert "bad grid" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_resource(self):
        with pytest.raises(SystemExit) as exc:
            main(["teleport", "--resource", "magic"])
        assert exc.value.code == 2


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, env_jobs",
        [
            (["wigner", "--state", "odd-cat", "--beta", "nan"], None),
            (["wigner", "--state", "vacuum", "--range", "0", "inf"], None),
            (["loss", "--amplitude", "nan"], None),
            (["loss", "--eta", "0:1.5:0.5", "--diagonal"], None),
            (["teleport", "--cutoff", "0"], None),
            (["teleport", "--beta", "0:inf:0.1"], None),
            (["teleport", "--beta", "0:1e9:1e-3"], None),
            (["teleport", "--jobs", "-4"], None),
            (["teleport", "--seed", "3"], None),
            (["teleport", "--beta", "0.5:0.5:0.1"], "abc"),
            (["teleport", "--per-outcome", "--m-max", "20", "--beta", "1:1:1"], None),
            (["teleport", "--per-outcome", "--m-max", "0", "--beta", "1:1:1"], None),
            (["wigner", "--state", "vacuum", "--steps", "1"], None),
            (["wigner", "--state", "vacuum", "--steps", "1001"], None),
            (["wigner", "--state", "odd-cat", "--beta", "-1"], None),
            (["loss", "--amplitude", "-0.5"], None),
            (["teleport", "--beta=-0.5:0:0.5"], None),
            (["wigner", "--state", "sq1", "--r", "-1"], None),
            (["wigner", "--state", "sq0", "--r", "-0.5"], None),
            (["wigner", "--state", "odd-cat", "--r", "0.7"], None),
            (["teleport", "--m-max", "3"], None),
            # finite ends whose width overflows
            (["wigner", "--state", "vacuum", "--steps", "3", "--range", "-" + BIG, BIG], None),
            # only the gridded subcommands take --jobs
            (["approx", "--kind", "odd", "--jobs", "2"], None),
            (["wigner", "--state", "vacuum", "--jobs", "2"], None),
        ],
    )
    def test_usage_error(self, capsys, monkeypatch, argv, env_jobs):
        # one error line and exit 2; no traceback and no rows
        if env_jobs is not None:
            monkeypatch.setenv("CSKIT_JOBS", env_jobs)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len([ln for ln in captured.err.splitlines() if "error:" in ln]) == 1
        assert "Traceback" not in captured.err

    def test_contour_cells_are_capped(self, capsys, monkeypatch):
        """A contour of more cells than MAX_GRID_POINTS is refused before any row runs."""
        def no_run(*args):
            raise AssertionError("a row ran before the grid was checked")

        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 100)
        monkeypatch.setattr(cli, "_averages", no_run)
        code = main(["loss", "--eta", "0:1:0.1", "--cutoff", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert [ln for ln in captured.err.splitlines() if "error:" in ln] == [
            "error: eta grid '0:1:0.1' has 121 cells, more than 100"
        ]
        # the 11 points of its diagonal are under the cap
        monkeypatch.setattr(cli, "_averages", loss._averages)
        assert main(["loss", "--eta", "0:1:0.1", "--cutoff", "2", "--diagonal"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["teleport", "--beta", "1e200:1e200:1"],
            ["entswap", "--beta", "1e200:1e200:1"],
            ["success-prob", "--beta", "1e200:1e200:1"],
            ["approx", "--kind", "odd", "--beta", "1e200:1e200:1"],
            ["approx", "--kind", "even", "--beta", "1e200:1e200:1"],
            ["loss", "--amplitude", "1e200"],
            ["wigner", "--state", "coherent", "--beta", "1e200"],
            ["wigner", "--state", "sq1", "--beta", "1e200"],
            ["wigner", "--state", "odd-cat", "--beta", "1e200"],
            ["wigner", "--state", "sq1", "--r", "800"],
            ["wigner", "--state", "sq0", "--r", "800"],
            ["wigner", "--state", "sq1", "--r", "400"],
            # the squeezed vacuum at r_opt_v(1e200) keeps about 1e-199 of its weight
            [
                "teleport", "--input", "squeezed-vacuum", "--resource", "squeezed-vacuum",
                "--beta", "1e200:1e200:1",
            ],
            ["wigner", "--state", "sq0", "--beta", "1e200"],
        ],
    )
    def test_unrepresentable_state(self, capsys, argv):
        # a state no float can hold is a truncation error: exit 1, one error line, no rows
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len([ln for ln in captured.err.splitlines() if "error:" in ln]) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "--kind", "odd", "--cutoff", "171", "--beta", "0.5:0.5:1"],
            ["approx", "--kind", "even", "--cutoff", "172", "--beta", "0.5:0.5:1"],
            ["wigner", "--state", "sq0", "--cutoff", "180", "--steps", "2"],
            ["wigner", "--state", "odd-cat", "--cutoff", "180", "--steps", "2"],
            [
                "wigner", "--state", "coherent", "--beta", "9.9", "--cutoff", "600",
                "--steps", "2", "--range", "13", "15",
            ],
        ],
    )
    def test_large_cutoff_gives_finite_rows(self, capsys, argv):
        # legal states past n = 170, where sqrt(n!) leaves the float range, and where alpha**n does
        code, out = _run(capsys, argv)
        assert code == 0
        _, _, rows = _parse(out)
        assert rows
        assert all(np.isfinite(float(cell)) for row in rows for cell in row.split(","))

    @pytest.mark.parametrize(
        "grid, count, last",
        [("0:1:0.05", 21, "1.0"), ("0:1:0.2", 6, "1.0"), ("0.05:1.2:0.05", 24, "1.2")],
    )
    def test_grid_points_are_decimal(self, capsys, grid, count, last):
        code, out = _run(capsys, ["approx", "--kind", "odd", "--beta", grid])
        assert code == 0
        _, _, rows = _parse(out)
        betas = [r.split(",")[0] for r in rows]
        assert len(betas) == count and betas[-1] == last
        assert all(len(b) <= 4 for b in betas)


class TestSubcommands:
    def test_success_prob_columns(self, capsys):
        code, out = _run(
            capsys,
            ["success-prob", "--beta", "0.5:0.5:0.1", "--resource", "ideal-odd-cat"],
        )
        assert code == 0
        _, columns, rows = _parse(out)
        assert columns == ["beta", "input_family", "resource_kind", "p_success"]
        by_family = {r.split(",")[1]: float(r.split(",")[3]) for r in rows}
        assert by_family["odd-cat-superposition"] == pytest.approx(1.0, abs=1e-10)

    def test_teleport_values(self, capsys):
        code, out = _run(
            capsys,
            ["teleport", "--beta", "0.5:0.5:0.1", "--input", "odd-cat", "--resource", "ideal-odd-cat"],
        )
        assert code == 0
        _, _, rows = _parse(out)
        beta, fid, p = (float(tok) for tok in rows[0].split(","))
        assert fid == pytest.approx(1.0, abs=1e-10)
        assert p == pytest.approx(1.0, abs=1e-10)

    def test_per_outcome_ordering(self, capsys):
        code, out = _run(
            capsys,
            [
                "teleport", "--per-outcome", "--m-max", "5",
                "--beta", "1.0:1.0:1.0", "--input", "odd-cat",
            ],
        )
        assert code == 0
        _, columns, rows = _parse(out)
        assert columns == ["beta", "m", "fidelity"]
        fids = [float(r.split(",")[2]) for r in rows]
        odd_fids = fids[0::2]  # m = 1, 3, 5
        assert odd_fids[0] > odd_fids[1] > odd_fids[2]

    def test_per_outcome_m_max_defaults_to_the_cutoff_below_5(self, capsys):
        argv = ["teleport", "--per-outcome", "--cutoff", "3", "--beta", "0.5:0.5:1"]
        code, out = _run(capsys, argv)
        assert code == 0
        header, _, rows = _parse(out)
        assert "# m-max: 3" in header
        assert [row.split(",")[1] for row in rows] == ["1", "2", "3"]
        # an explicit --m-max above the cutoff is still refused
        assert main(argv + ["--m-max", "5"]) == 2
        assert "error: --m-max 5 outside [1, cutoff=3]" in capsys.readouterr().err

    def test_entswap(self, capsys):
        code, out = _run(
            capsys,
            ["entswap", "--beta", "0.5:0.5:0.1", "--phi", "odd-cat", "--resource", "ideal-odd-cat"],
        )
        assert code == 0
        _, _, rows = _parse(out)
        assert float(rows[0].split(",")[1]) == pytest.approx(1.0, abs=1e-8)

    def test_loss_diagonal(self, capsys):
        code, out = _run(
            capsys,
            [
                "loss", "--eta", "1:1:0.5", "--amplitude", "0.4",
                "--input", "odd-cat", "--resource", "ideal-odd-cat", "--cutoff", "5",
                "--diagonal",
            ],
        )
        assert code == 0
        _, columns, rows = _parse(out)
        assert columns == ["eta1", "eta2", "fidelity"]
        assert float(rows[0].split(",")[2]) == pytest.approx(1.0, abs=1e-6)

    def test_loss_even_cat_without_source(self, capsys):
        # at eta1 = 0 the matched even cat is the vacuum, whose Z flip is zero
        code, out = _run(capsys, ["loss", "--input", "even-cat", "--eta", "0:1:0.5"])
        assert code == 0
        _, _, rows = _parse(out)
        assert [r.split(",")[:2] for r in rows[:3]] == [["0.0", "0.0"], ["0.0", "0.5"], ["0.0", "1.0"]]
        assert len(rows) == 9

    def test_wigner_grid(self, capsys):
        code, out = _run(
            capsys,
            ["wigner", "--state", "vacuum", "--steps", "5", "--range", "-2", "2"],
        )
        assert code == 0
        _, columns, rows = _parse(out)
        assert columns == ["x", "p", "W"]
        assert len(rows) == 25
        assert all(float(r.split(",")[2]) > -1e-15 for r in rows)

    @pytest.mark.parametrize("far", [("1e154", "2e154"), ("1e307", "1.7e308")])
    def test_wigner_far_from_the_origin_is_zero(self, capsys, far):
        # 4|a|^2 overflows there; exp(-2|a|^2) is 0, and so is W, with no RuntimeWarning
        code, out = _run(capsys, ["wigner", "--state", "odd-cat", "--steps", "2", "--range", *far])
        assert code == 0
        _, _, rows = _parse(out)
        assert len(rows) == 4
        assert all(row.split(",")[2] == "0.0" for row in rows)

    @pytest.mark.parametrize(
        "steps, lo, hi",
        [
            (31, -3.0, 4.0),
            # one row of two lines per x: the first and the last line of each join
            (2, -5.0, 5.0),
            (3, -0.25, 7.5),
        ],
    )
    def test_wigner_rows_are_repr_of_the_library_surface(self, capsys, steps, lo, hi):
        code, out = _run(
            capsys,
            ["wigner", "--state", "odd-cat", "--steps", str(steps), "--range", repr(lo), repr(hi)],
        )
        assert code == 0
        _, _, rows = _parse(out)
        grid = PhaseGrid((lo, hi), (lo, hi), steps)
        surface = wigner_grid(STATE_KINDS["odd-cat"].build(1.0, 15, None), grid)
        want = [
            f"{float(x)!r},{float(p)!r},{float(surface[i, j])!r}"
            for i, x in enumerate(grid.xs)
            for j, p in enumerate(grid.ps)
        ]
        assert rows == want
        # no line is lost, doubled or left empty where one x's lines meet the next's
        assert out.split("\nx,p,W\n", 1)[1] == "\n".join(want) + "\n"


LOADED_PROBE = """
import contextlib, io, sys
MODULES = ("scipy", "scipy.linalg", "multiprocessing", "concurrent.futures.process")
import cskit.cli
loaded = [[name in sys.modules for name in MODULES]]
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cskit.cli.main(argv.split())
    loaded.append((argv, code, [name in sys.modules for name in MODULES]))
print(repr(loaded))
"""


def test_lossless_commands_leave_out_scipy():
    """Only the 50:50 beamsplitter runs behind lossless counters, so scipy is never imported,
    and the process pool's modules are imported only when a pool runs.

    ``cskit loss`` needs other transmitivities, so the same process then
    imports ``scipy.linalg`` for ``expm`` and still exits 0.
    """
    src = os.path.dirname(os.path.dirname(cskit.__file__))
    commands = ["success-prob", "teleport", "entswap", "loss"]
    done = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *commands],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert ast.literal_eval(done.stdout) == [[False] * 4] + [
        (command, 0, [command == "loss"] * 2 + [False] * 2) for command in commands
    ]


class TestParser:
    def test_main_reads_one_parser_and_build_parser_builds_anew(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_back_to_back_calls_match_calls_alone(self, capsys):
        """A parser reused across calls carries nothing from one call into the next."""
        calls = [
            ["success-prob", "--beta", "0.3:0.6:0.3", "--resource", "squeezed-vacuum", "--cutoff", "8"],
            ["success-prob", "--beta", "0.3:0.6:0.3", "--cutoff", "8"],
            ["teleport", "--beta", "0.3:0.6:0.3", "--cutoff", "8", "--per-outcome"],
            ["teleport", "--beta", "0.3:0.6:0.3", "--cutoff", "8"],
        ]
        alone = []
        for argv in calls:
            cli._parser.cache_clear()
            alone.append(_run(capsys, argv))
        assert len({out for _, out in alone}) == len(calls)
        back_to_back = [_run(capsys, argv) for argv in calls + calls[::-1]]
        assert back_to_back == alone + alone[::-1]


class TestJobs:
    def test_parallel_matches_serial(self, capsys):
        argv = ["teleport", "--beta", "0.2:0.6:0.2", "--input", "odd-cat", "--resource", "squeezed-single-photon"]
        _, serial = _run(capsys, argv)
        _, parallel = _run(capsys, argv + ["--jobs", "2"])
        assert serial == parallel

    @pytest.mark.parametrize(
        "argv",
        [
            ["teleport", "--input", "even-cat", "--resource", "ideal-odd-cat", "--cutoff", "6"],
            ["teleport", "--per-outcome", "--m-max", "4", "--cutoff", "6"],
            ["entswap", "--cutoff", "6"],
            ["success-prob", "--resource", *RESOURCE_KINDS, "--cutoff", "6"],
        ],
        ids=["teleport", "teleport-per-outcome", "entswap", "success-prob"],
    )
    def test_rows_do_not_depend_on_the_batch(self, capsys, monkeypatch, argv):
        """Each row is the same bytes from the grid in one batch, in batches of one circuit,
        from its beta alone and with --jobs 2."""
        grid = ["--beta", "0:1.2:0.008"]
        with monkeypatch.context() as patch:
            batches = _record_batches(patch)
            code, whole = _run(capsys, argv + grid)
        assert code == 0
        assert all(len(slices) == 1 for slices in batches)
        _, parallel = _run(capsys, argv + grid + ["--jobs", "2"])
        assert parallel == whole
        with monkeypatch.context() as patch:
            patch.setattr(protocols, "BATCH_BYTES", 1)
            assert _run(capsys, argv + grid) == (0, whole)
        rows = _parse(whole)[2]
        betas = dict.fromkeys(row.split(",")[0] for row in rows)
        alone = []
        for beta in betas:
            code, out = _run(capsys, argv + ["--beta", f"{beta}:{beta}:0.15"])
            assert code == 0
            alone.extend(_parse(out)[2])
        assert alone == rows
        assert len(betas) == 151

    def test_env_fallback(self, capsys, monkeypatch):
        jobs = []
        pmap = cli._pmap
        monkeypatch.setattr(
            cli, "_pmap", lambda fn, items, n: jobs.append(n) or pmap(fn, items, n)
        )
        monkeypatch.setenv("CSKIT_JOBS", "2")
        argv = ["loss", "--eta", "0:1:0.25", "--cutoff", "3"]
        code, out = _run(capsys, argv)
        assert code == 0
        monkeypatch.delenv("CSKIT_JOBS")
        _, again = _run(capsys, argv)
        assert out == again
        assert jobs == [2, 1]

    def test_pool_has_no_more_workers_than_chunks(self, capsys, monkeypatch):
        """--jobs N maps min(N, points, CPUs) contiguous pieces over as many workers."""
        workers, pieces = [], []

        class Pool:
            """Records its size and pieces and maps in this process: no worker is started."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                pieces.append([len(item) for item in items])
                return map(fn, items)

        argv = ["loss", "--eta", "0:1:0.5", "--cutoff", "2"]
        _, serial = _run(capsys, argv)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        for cpus, jobs in ((64, "64"), (2, "100000")):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            assert _run(capsys, argv + ["--jobs", jobs]) == (0, serial)
        assert workers == [3, 2]
        assert pieces == [[1, 1, 1], [1, 2]]

    @pytest.mark.parametrize(
        "argv",
        [
            ["loss", "--eta", "0:1:0.25", "--cutoff", "4"],
            ["loss", "--protocol", "entswap", "--eta", "0:1:0.25", "--cutoff", "3"],
            ["loss", "--eta", "0:1:0.1", "--cutoff", "4", "--diagonal"],
            # long grids
            ["loss", "--eta", "0:1:0.015", "--cutoff", "2"],
            ["loss", "--protocol", "entswap", "--eta", "0:1:0.0075", "--cutoff", "2", "--diagonal"],
        ],
        ids=[
            "teleport-contour", "entswap-contour", "teleport-diagonal",
            "teleport-contour-chunked", "entswap-diagonal-chunked",
        ],
    )
    def test_loss_rows_parallel_match_serial(self, capsys, monkeypatch, argv):
        """The rows are the same bytes with --jobs 2 and in batches of one circuit."""
        code, serial = _run(capsys, argv)
        assert code == 0
        _, parallel = _run(capsys, argv + ["--jobs", "2"])
        assert serial == parallel
        monkeypatch.setattr(protocols, "BATCH_BYTES", 1)
        assert _run(capsys, argv) == (0, serial)


@pytest.mark.parametrize(
    "argv",
    [
        ["success-prob"],
        ["success-prob", "--resource", *RESOURCE_KINDS],
        ["teleport"],
        ["teleport", "--per-outcome"],
        ["entswap"],
        ["loss"],
        ["loss", "--diagonal"],
        ["loss", "--protocol", "entswap"],
        ["loss", "--protocol", "entswap", "--diagonal"],
    ],
    ids=[
        "success-prob", "success-prob-every-resource", "teleport", "teleport-per-outcome",
        "entswap", "loss", "loss-diagonal", "loss-entswap", "loss-entswap-diagonal",
    ],
)
def test_default_grids_are_one_batch(capsys, monkeypatch, argv):
    """Every gridded subcommand runs its default grid as one batch: one sweep call, one batch."""
    batches = _record_batches(monkeypatch)
    assert main(argv) == 0
    assert batches and all(len(slices) == 1 for slices in batches)


def test_benchmark_grids_are_one_batch(capsys, monkeypatch):
    """The figure and contour grids of the benchmark are one batch each, and with --jobs 2
    on two CPUs the pool's contours are two pieces of three eta1, one batch each."""
    from test_golden_rows import workloads

    monkeypatch.delenv("CSKIT_JOBS", raising=False)
    for name in ("lossless-figures", "loss-contour", "loss-contour-jobs2"):
        for sweep in workloads.build(name, workloads.DEFAULT_SEED).sweeps:
            with monkeypatch.context() as patch:
                batches = _record_batches(patch)
                assert main(list(sweep.argv)) == 0
            assert batches and all(len(slices) == 1 for slices in batches), sweep.name
    pieces = []
    pmap = cli._pmap
    # the pool's pieces, mapped in this process
    monkeypatch.setattr(cli, "_pmap", lambda fn, items, _: pieces.append(items) or pmap(fn, items, 1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    batches = _record_batches(monkeypatch)
    sweep = workloads.build("loss-contour-jobs2", workloads.DEFAULT_SEED).sweeps[0]
    assert main([*sweep.argv, "--jobs", "2"]) == 0
    assert [len(piece) for piece in pieces[0]] == [3, 3]
    assert [len(slices) for slices in batches] == [1, 1]


def test_tiny_beta_success_rows_are_those_at_zero(capsys):
    """At beta = 1.4e-162, where alpha^2 underflows, every family reads its beta = 0 row.

    The odd-cat family reads exactly 1. The other three read 1/2 to 2 ulp: the
    50:50 block s = 1 has entries of one magnitude r, the correctly rounded
    1/sqrt 2, and no binary64 r has r^2 = 1/2, so their rows read
    0.5000000000000001.
    """
    rows = {}
    for beta in ("1.4e-162", "0"):
        argv = ["success-prob", "--beta", f"{beta}:{beta}:1", "--resource", "ideal-odd-cat"]
        code, out = _run(capsys, argv)
        assert code == 0
        rows[beta] = [row.split(",")[1:] for row in _parse(out)[2]]
    assert rows["1.4e-162"] == rows["0"]
    first, *halves = [float(row[-1]) for row in rows["0"]]
    assert first == 1.0 and len(halves) == 3
    assert all(abs(p - 0.5) <= 2 * math.ulp(0.5) for p in halves)


@pytest.mark.parametrize("command", ["success-prob", "teleport", "entswap", "loss"])
def test_sweeps_build_no_mode_by_mode_state(capsys, monkeypatch, command):
    """The default sweeps split their Bell pairs by plain gathers: no attenuate, no MultiModeState."""
    code, want = _run(capsys, [command])
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep built a mode-by-mode state")

    for module in (fock, loss):
        monkeypatch.setattr(module, "attenuate", refuse)
    for module in (fock, protocols):
        monkeypatch.setattr(module, "MultiModeState", refuse)
    assert _run(capsys, [command]) == (0, want)


def test_entswap_peak_does_not_grow_with_the_grid(capsys):
    """A long beta grid is swept batch by batch, so its allocation peak stays that of a batch.

    At cutoff 10 the byte rule puts 117 betas in a batch. Each batch builds
    its own Bell pairs and gives the engine's arrays, with no summary, so the
    1,000 betas peak near 4.9 MB.
    """
    argv = ["entswap", "--cutoff", "10"]
    assert main(argv + ["--beta", "0.5:0.5:1"]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(argv + ["--beta", "0.001:1:0.001"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 1000 + 7
    assert peak < 6e6


def test_per_outcome_holds_one_batch_of_summaries(capsys, monkeypatch):
    """--per-outcome reads each batch's summaries and drops them before the next batch runs.

    At cutoff 15 the byte rule puts 144 betas in a batch, whose summaries
    hold about 2.2 MB once read. One batch peaks near 4.4 MB and 1,000
    betas, seven batches, near 5.2 MB; keeping one batch more peaked at
    7.4 MB, and keeping every summary at 16 MB.
    """
    argv = ["teleport", "--per-outcome"]
    assert main(argv + ["--beta", "0.5:0.5:1"]) == 0
    batches = _record_batches(monkeypatch)
    peaks = []
    for grid in ("0.001:0.144:0.001", "0.001:1:0.001"):
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv + ["--beta", grid]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(capsys.readouterr().out.splitlines()) == 1000 * 5 + 8
    assert [len(slices) for slices in batches] == [1, 7]
    assert peaks[1] <= 1.3 * peaks[0]


def test_lossy_diagonal_peak_stays_within_the_budget(capsys):
    """The cutoff-15 swapper diagonal runs 4 circuits a batch, not the whole grid at once.

    67 circuits of about 0.73 MB each; 64 of them in one batch peaked at 51 MB.
    """
    argv = ["loss", "--protocol", "entswap", "--cutoff", "15", "--diagonal"]
    assert main(argv + ["--eta", "0.5:0.5:1"]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(argv + ["--eta", "0:1:0.015"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 67 + 10
    assert peak < 10e6


@pytest.mark.parametrize(
    "argv, swap, diagonal",
    [
        (["--eta", "0:1:0.05"], False, False),
        (["--eta", "0:1:0.015"], False, False),
        (["--eta", "0:1:0.015", "--cutoff", "60"], False, False),
        (["--protocol", "entswap", "--eta", "0:1:0.0075", "--cutoff", "15", "--diagonal"], True, True),
    ],
    ids=["one-batch", "several-batches", "circuit-by-circuit", "diagonal"],
)
def test_loss_batches_fit_the_budget(capsys, monkeypatch, argv, swap, diagonal):
    """Each batch of a loss grid fits the byte budget, or holds one circuit, and the batches
    cover the grid in order: a contour's share one row of counters, built once, and a
    diagonal's batch builds the counters of its own etas.

    The engine's Bell pairs, counters and heralding are stubbed, so the cut alone is
    checked, at any cutoff.
    """
    sizes, rows = [], []

    def responses(eta2s, cutoff, parity):
        rows.append([list(row) for row in eta2s])
        return None, np.zeros((1, len(eta2s[0])))

    def heralded(left, pair, target, z_target, counters, *args):
        sizes.append(len(left))
        return (np.ones((len(left), counters[1].shape[1])),) * 2

    monkeypatch.setattr(protocols, "_bells", lambda amps, eta1=1.0: amps)
    monkeypatch.setattr(protocols, "_responses", responses)
    monkeypatch.setattr(protocols, "_heralded", heralded)
    assert main(["loss", *argv]) == 0
    grid = cli._parse_grid(argv[argv.index("--eta") + 1])
    cells = 1 if diagonal else len(grid)
    cutoff = int(argv[argv.index("--cutoff") + 1]) if "--cutoff" in argv else 6
    circuit = protocols._circuit_bytes(cutoff, swap, True, cells)
    assert len(capsys.readouterr().out.splitlines()) == 10 + len(grid) * cells
    assert sum(sizes) == len(grid)
    if diagonal:
        assert [len(batch) for batch in rows] == sizes
        assert [eta for batch in rows for [eta] in batch] == grid
    else:
        assert rows == [[grid]]
    assert all(size * circuit <= protocols.BATCH_BYTES or size == 1 for size in sizes)
    # as many circuits per batch as the budget allows
    assert sizes[0] == min(len(grid), max(1, protocols.BATCH_BYTES // circuit))


def test_loss_contour_builds_each_response_once_per_command(capsys, monkeypatch):
    """The batches of one contour share one stack of eta2 responses.

    67 etas, one row per batch under a budget of one byte, cycle through the
    64-entry response cache, so a stack built per batch would miss on every
    cell.
    """
    monkeypatch.setattr(protocols, "BATCH_BYTES", 1)
    fock.detector_response.cache_clear()
    assert main(["loss", "--eta", "0:1:0.015", "--cutoff", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10 + 67 * 67
    assert fock.detector_response.cache_info().misses <= 67


@pytest.mark.parametrize(
    "protocol, one_batch, four_batches",
    [
        ("teleport", ["--eta", "0:0.95:0.05"], ["--eta", "0:0.78:0.02"]),
        ("entswap", ["--diagonal", "--eta", "0:0.008:0.001"], ["--diagonal", "--eta", "0:0.035:0.001"]),
    ],
    ids=["contour", "diagonal"],
)
def test_loss_peak_does_not_grow_with_the_grid(capsys, monkeypatch, protocol, one_batch, four_batches):
    """A lossy grid of four batches peaks within 10% of a grid of one full batch.

    At cutoff 12 the contours have 20 etas, one batch of 20 rows, and 40
    etas, four batches of 10 rows: 400 cells in every batch. The diagonals
    have 9 etas in one batch and 36 in four. A batch of the whole grid would
    peak near four times higher. Both grids run once first, so that every
    eta's cached blocks and responses are built before the peaks are taken:
    the two grids hold fewer etas than those caches.
    """
    argv = ["loss", "--protocol", protocol, "--cutoff", "12"]
    for grid in (one_batch, four_batches):
        assert main(argv + grid) == 0
    batches = _record_batches(monkeypatch)
    peaks = []
    for grid in (one_batch, four_batches):
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv + grid) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the engine's one cut of each grid
    assert [len(slices) for slices in batches] == [1, 4]
    assert peaks[1] <= 1.1 * peaks[0]
