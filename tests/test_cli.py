import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magspec
from magspec.cli import _parse_beta_range, main
from magspec.disk import disk_eigenvalues
from magspec.functionals import BoundVerdict, verdicts_to_csv
from magspec.solver import solve


@pytest.fixture
def disk_json(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps({"r0": 1.0, "harmonics": []}))
    return str(path)


@pytest.fixture
def ellipse_json(tmp_path):
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps(
        {"r0": 1.0, "harmonics": [{"n": 2, "a": 0.15, "b": 0.0}]}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def csv_body(text):
    """A written CSV without its '# ' comment header."""
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if not ln.startswith("#"))


def csv_rows(text, header):
    """Fields of each data row, after checking the column names."""
    lines = csv_body(text).splitlines()
    assert lines[0] == header
    return [ln.split(",") for ln in lines[1:]]


SPECTRUM_HEADER = "index,eigenvalue,lambda_times_A,bc,beta,provenance"
PAULI_HEADER = "index,eigenvalue,branch,source_index,shifted_normalized,beta,area,g"


class TestFactors:
    def test_disk_output(self, capsys, disk_json):
        code, out = run(capsys, ["factors", "--domain", disk_json])
        assert code == 0
        assert "g0=1 g1=1 g=1" in out
        assert "area=3.14159265359" in out

    def test_json_and_svg_written(self, capsys, disk_json, tmp_path):
        out_path = tmp_path / "factors.json"
        code, _ = run(capsys, ["factors", "--domain", disk_json,
                               "--out", str(out_path), "--plot", "svg"])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["factors"]["g"] == 1.0
        assert doc["meta"]["command"] == "factors"
        svg = (tmp_path / "factors.svg").read_text()
        assert svg.startswith("<?xml") and "<polyline" in svg

    def test_missing_file_is_computation_error(self, capsys):
        assert main(["factors", "--domain", "/nonexistent.json"]) == 1

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main(["factors"])  # --domain required
        assert info.value.code == 2

    def test_malformed_harmonics_is_computation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"r0": 1.0, "harmonics": [[3, 0.1, 0.0]]}))
        assert main(["factors", "--domain", str(path)]) == 1
        err = capsys.readouterr().err
        assert "magspec factors: error:" in err and '"n"' in err


@pytest.mark.parametrize("command, flag, payload", [
    ("factors", "--domain", [1, 2]),
    ("factors", "--domain", {"r0": None}),
    ("factors", "--domain", {"r0": 1.0, "harmonics": [{"n": 2, "a": None}]}),
    ("factors", "--domain", {"r0": 1.0, "harmonics": [{"n": 2.5, "a": 0.3}]}),
    ("perturb", "--profile", {"p": {"2": 0.5}}),
    ("perturb", "--profile", {"p": {"2.5": [0.5, 0.0]}}),
    ("perturb", "--profile", {"p": {"2": [0.5, 0.0], "02": [0.25, 0.0]}}),
    ("perturb", "--profile", [0.5]),
], ids=["domain-list", "r0-null", "a-null", "n-fraction", "p-scalar",
        "p-index-fraction", "p-index-duplicate", "profile-list"])
def test_malformed_json_is_computation_error(capsys, tmp_path, command, flag, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    argv = [command, flag, str(path)] + (["--beta", "5"] if command == "perturb" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"magspec {command}: error: ")
    assert "must be" in captured.err


class TestSpectrumCommands:
    def test_disk_csv_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "disk.csv"
        code, out = run(capsys, ["disk", "--beta", "5", "--n", "3",
                                 "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert text.splitlines()[0].startswith("# magspec")
        assert text == out
        assert csv_body(text) == disk_eigenvalues(5.0, 3).to_csv()
        rows = csv_rows(text, SPECTRUM_HEADER)
        assert len(rows) == 3
        assert {r[5] for r in rows} == {"analytic"}
        assert float(rows[0][1]) > 5 / math.pi

    def test_solve_matches_disk(self, capsys, disk_json, tmp_path):
        out_path = tmp_path / "s.csv"
        code, _ = run(capsys, ["solve", "--domain", disk_json, "--beta", "0",
                               "--n", "1", "--nr", "16", "--nt", "32",
                               "--out", str(out_path)])
        assert code == 0
        (row,) = csv_rows(out_path.read_text(), SPECTRUM_HEADER)
        assert float(row[1]) == pytest.approx(5.7832, rel=2e-2)
        assert row[5] == "discrete(16x32)"

    def test_pauli_csv(self, capsys, disk_json, tmp_path):
        out_path = tmp_path / "p.csv"
        code, out = run(capsys, ["pauli", "--domain", disk_json, "--beta", "2",
                                 "--n", "4", "--nr", "16", "--nt", "32",
                                 "--out", str(out_path)])
        assert code == 0
        rows = csv_rows(out_path.read_text(), PAULI_HEADER)
        assert len(rows) == 4
        assert {r[2] for r in rows} <= {"spin_up", "spin_down"}
        assert float(rows[0][1]) > 0

    def test_pauli_solves_exactly_n(self, capsys, monkeypatch, ellipse_json):
        # n magnetic eigenvalues always certify n Pauli values
        import magspec.cli
        counts = []

        def recorded(profile, cfg):
            counts.append(cfg.n_eigs)
            return solve(profile, cfg)

        monkeypatch.setattr(magspec.cli, "solve", recorded)
        code, out = run(capsys, ["pauli", "--domain", ellipse_json, "--beta", "5",
                                 "--n", "6", "--nr", "16", "--nt", "32"])
        assert code == 0
        assert counts == [6]
        assert len(csv_rows(out, PAULI_HEADER)) == 6


class TestVerify:
    def test_verdict_table(self, capsys, ellipse_json, tmp_path):
        out_path = tmp_path / "v.json"
        code, out = run(capsys, [
            "verify", "--domain", ellipse_json, "--beta", "5",
            "--bc", "dirichlet", "--n", "1,3", "--phi", "all",
            "--nr", "24", "--nt", "48", "--out", str(out_path)])
        assert code == 0
        assert "all bounds hold: true" in out
        doc = json.loads(out_path.read_text())
        assert len(doc["verdicts"]) == 10
        assert all(v["holds"] for v in doc["verdicts"])
        rebuilt = [BoundVerdict(**d) for d in doc["verdicts"]]
        assert csv_body((tmp_path / "v.csv").read_text()) == verdicts_to_csv(rebuilt)

    def test_angular_count_not_divisible_by_four(self, capsys, ellipse_json):
        code, out = run(capsys, [
            "verify", "--domain", ellipse_json, "--beta", "5", "--n", "1",
            "--nr", "12", "--nt", "34"])
        assert code == 0
        assert "all bounds hold: true" in out

    def test_phi_subset(self, capsys, ellipse_json):
        code, out = run(capsys, [
            "verify", "--domain", ellipse_json, "--beta", "5",
            "--n", "1", "--phi", "identity,negexp:1",
            "--nr", "24", "--nt", "48"])
        assert code == 0
        assert "negexp(1)" in out

    @pytest.mark.parametrize("nr, nt", [("8", "32"), ("16", "16")])
    def test_minimum_mesh_is_refused(self, capsys, ellipse_json, nr, nt):
        # the half-resolution partner clamps to the same count: no error bar
        code = main(["verify", "--domain", ellipse_json, "--beta", "5",
                     "--n", "1,3", "--phi", "identity,log", "--nr", nr, "--nt", nt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("magspec verify: error: ")
        assert "--nr >= 9, --nt >= 18" in captured.err

    def test_overflowing_functional_is_an_error(self, capsys, disk_json):
        # x ** -1000 of a normalized eigenvalue below 1 overflows a float
        code = main(["verify", "--domain", disk_json, "--bc", "neumann", "--beta", "1",
                     "--n", "1", "--phi", "negpower:-1000", "--nr", "16", "--nt", "32"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("magspec verify: error: ")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["verify", "--beta", "5", "--n", "abc"],
        ["verify", "--beta", "5", "--n", "0"],
        ["verify", "--beta", "5", "--n", "1,0"],
        ["verify", "--beta", "5", "--phi", "bogus"],
        ["verify", "--beta", "5", "--phi", "negexp:inf"],
        ["verify", "--beta", "5", "--phi", "negpower:-inf"],
        ["disk", "--beta", "5", "--n", "0"],
        ["solve", "--beta", "5", "--n", "0"],
        ["pauli", "--beta", "5", "--n", "0"],
        ["sweep", "--beta", "2:6:2", "--n", "0"],
        ["transplant", "--beta", "5", "--mode-index", "-1"],
        ["solve", "--beta", "5", "--nr", "0"],
        ["verify", "--beta", "5", "--nt", "0"],
        ["solve", "--beta", "5", "--nt", "17"],
        ["solve", "--beta", "5", "--tol", "1e-3"],
        ["perturb", "--beta", "5", "--eps", "abc"],
        ["perturb", "--beta", "5", "--eps", "0.04,-0.01"],
        ["disk", "--n", "3", "--beta", "nan"],
        ["disk", "--n", "3", "--beta", "inf"],
        ["solve", "--n", "3", "--beta", "nan"],
        ["verify", "--n", "3", "--beta", "nan"],
        ["pauli", "--n", "3", "--beta", "nan"],
        ["transplant", "--mode-index", "0", "--beta", "nan"],
        ["perturb", "--eps", "0.01", "--beta", "nan"],
        ["sweep", "--n", "1", "--beta", "0:1:nan"],
        ["sweep", "--n", "1", "--beta", "0:inf:1"],
        ["sweep", "--n", "1", "--beta", "0:1e9:1e-3"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[3:]))
    def test_bad_argument_is_usage_error(self, capsys, disk_json, argv):
        # The input file is never read: parsing stops at the bad argument.
        if argv[0] == "perturb":
            argv = argv + ["--profile", disk_json]
        elif argv[0] != "disk":
            argv = argv + ["--domain", disk_json]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    def test_empty_beta_range_is_usage_error(self, capsys, disk_json):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--domain", disk_json, "--beta", "2:1:0.5"])
        assert info.value.code == 2
        assert "has no points" in capsys.readouterr().err

    def test_beta_range_point_cap(self):
        # rejected before any point is built: 0:1e9:1e-3 would be 1e12 points
        assert _parse_beta_range("0.5:2:0.5") == [0.5, 1.0, 1.5, 2.0]
        assert len(_parse_beta_range("0:9999:1")) == 10_000
        for spec in ("0:10000:1", "0:1e9:1e-3", "0:1e-296:1e-300"):
            with pytest.raises(argparse.ArgumentTypeError,
                               match="more than 10000 points"):
                _parse_beta_range(spec)


class TestTransplantAndPerturb:
    def test_transplant_json(self, capsys, ellipse_json, tmp_path):
        out_path = tmp_path / "t.json"
        code, out = run(capsys, [
            "transplant", "--domain", ellipse_json, "--beta", "5",
            "--mode-index", "0", "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["transplant"]["identity_residual"] <= 1e-6
        assert abs(doc["transplant"]["q2_avg"]) <= 1e-8

    @pytest.mark.parametrize("n_eta", ["0", "-3"])
    def test_transplant_rejects_nonpositive_n_eta(self, capsys, ellipse_json, n_eta):
        # The flag is gone, so every value is an unrecognised-argument error.
        with pytest.raises(SystemExit) as info:
            main(["transplant", "--domain", ellipse_json, "--beta", "5",
                  "--n-eta", n_eta])
        assert info.value.code == 2
        assert "--n-eta" in capsys.readouterr().err

    def test_transplant_has_no_n_eta_flag(self, capsys, ellipse_json):
        with pytest.raises(SystemExit) as info:
            main(["transplant", "--domain", ellipse_json, "--beta", "5",
                  "--n-eta", "64"])
        assert info.value.code == 2
        assert "--n-eta" in capsys.readouterr().err

    def test_perturb_report(self, capsys, tmp_path):
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps({"p": {"2": [0.5, 0.0]}}))
        out_path = tmp_path / "report.json"
        code, out = run(capsys, [
            "perturb", "--profile", str(ppath), "--beta", "5",
            "--eps", "0.04,0.02", "--nr", "32", "--nt", "64",
            "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        rep = doc["perturbation"]
        assert rep["relative_mismatch"] < 0.2  # coarse mesh smoke check
        rows = [ln for ln in (tmp_path / "report.csv").read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[0] == "n,q_n"
        assert rows[1].startswith("1,")

    @pytest.mark.parametrize("nr, nt", [("8", "32"), ("16", "16")])
    def test_perturb_minimum_mesh_is_refused(self, capsys, tmp_path, nr, nt):
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps({"p": {"2": [0.5, 0.0]}}))
        code = main(["perturb", "--profile", str(ppath), "--beta", "5",
                     "--eps", "0.04,0.02", "--nr", nr, "--nt", nt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("magspec perturb: error: ")
        assert "--nr >= 9, --nt >= 18" in captured.err


class TestSweep:
    def test_neumann_sweep_csv(self, capsys, disk_json, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out = run(capsys, [
            "sweep", "--domain", disk_json, "--bc", "neumann",
            "--beta", "2:6:2", "--n", "1", "--track-mode",
            "--nr", "12", "--nt", "24", "--out", str(out_path)])
        assert code == 0
        lines = [ln for ln in out_path.read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "beta,eigenvalue_1,dominant_mode"
        assert len(lines) == 4  # betas 2, 4, 6
        betas = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert betas == [2.0, 4.0, 6.0]

    SMALL = ["--beta", "2:4:2", "--nr", "12", "--nt", "24"]

    @pytest.mark.parametrize("threads", ["", "0", "2"])
    def test_thread_count_from_environment(self, capsys, monkeypatch, disk_json, threads):
        # set but empty counts as unset; the pool size never changes the bytes
        argv = ["sweep", "--domain", disk_json] + self.SMALL
        monkeypatch.delenv("MAGSPEC_THREADS", raising=False)
        unset = run(capsys, argv)
        monkeypatch.setenv("MAGSPEC_THREADS", threads)
        assert unset[0] == 0 and run(capsys, argv) == unset

    @pytest.mark.parametrize("threads", ["abc", "-2", "1.5", " "])
    def test_bad_thread_count_is_usage_error(self, capsys, monkeypatch, disk_json, threads):
        monkeypatch.setenv("MAGSPEC_THREADS", threads)
        assert main(["sweep", "--domain", disk_json] + self.SMALL) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"MAGSPEC_THREADS must be a non-negative integer, got {threads!r}" \
            in captured.err


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys, ellipse_json, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out_path = tmp_path / f"run_{tag}.csv"
            argv = ["solve", "--domain", ellipse_json, "--beta", "3",
                    "--n", "3", "--nr", "16", "--nt", "32",
                    "--out", str(out_path), "--plot", "svg"]
            assert main(argv) == 0
            capsys.readouterr()
            paths.append(out_path)
        a, b = (p.read_bytes() for p in paths)
        # headers echo the out path; compare rows and plots instead
        rows = lambda blob: [ln for ln in blob.splitlines()
                             if not ln.startswith(b"#")]
        assert rows(a) == rows(b)
        assert (tmp_path / "run_a.svg").read_bytes() == \
               (tmp_path / "run_b.svg").read_bytes()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "magspec.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "magspec" in proc.stdout


def test_module_entry_point(capsys):
    src = str(Path(magspec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["disk", "--beta", "5", "--n", "3"]
    proc = subprocess.run([sys.executable, "-m", "magspec", *argv],
                          capture_output=True, env=env)
    assert proc.returncode == 0
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()
