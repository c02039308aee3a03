import os

import numpy as np
import pytest

from cskit.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _parse(text):
    header = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return header, body[0].split(","), body[1:]


class TestHeaders:
    def test_header_block(self, capsys):
        code, out = _run(capsys, ["approx", "--kind", "odd", "--beta", "0.1:0.2:0.1"])
        assert code == 0
        header, columns, rows = _parse(out)
        assert header[0].startswith("# tool: cskit ")
        assert "# subcommand: approx" in header
        assert "# kind: odd" in header
        assert "# cutoff: 15" in header
        assert any(ln.startswith("# seed:") for ln in header)
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
            (["teleport", "--beta", "0.5:0.5:0.1"], "abc"),
            (["teleport", "--per-outcome", "--m-max", "20", "--beta", "1:1:1"], None),
            (["teleport", "--per-outcome", "--m-max", "0", "--beta", "1:1:1"], None),
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


class TestJobs:
    def test_parallel_matches_serial(self, capsys):
        argv = ["teleport", "--beta", "0.2:0.6:0.2", "--input", "odd-cat", "--resource", "squeezed-single-photon"]
        _, serial = _run(capsys, argv)
        _, parallel = _run(capsys, argv + ["--jobs", "2"])
        assert serial == parallel

    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CSKIT_JOBS", "2")
        argv = ["approx", "--kind", "odd", "--beta", "0.1:0.3:0.1"]
        code, out = _run(capsys, argv)
        assert code == 0
        monkeypatch.delenv("CSKIT_JOBS")
        _, again = _run(capsys, argv)
        assert out == again
