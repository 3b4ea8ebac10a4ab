"""Command-line interface: subcommands, exit codes, and file outputs."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qdmr
from qdmr.cli import main

BASE_INI = """
[system]
omega = 6.283185307179586
lam = 0.7
mu_tilde = -5.0
n_cut = 12

[lead_L]
gamma_rate = 1.2566370614359172
delta = 10.0
gamma_center = -10.0
temperature = 13.0920339
chem_potential = 30.0

[lead_R]
gamma_rate = 1.2566370614359172
delta = 10.0
gamma_center = 10.0
temperature = 13.0920339
chem_potential = -30.0
"""


def _assert_numeric_cells(lines):
    data = [l for l in lines if l and not l.startswith("#")][1:]
    assert data
    for line in data:
        for cell in line.split(","):
            float(cell)


@pytest.fixture
def ini(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_INI)
    return str(path)


@pytest.fixture
def sweep_ini(tmp_path):
    path = tmp_path / "grid.ini"
    path.write_text(
        BASE_INI
        + "\n[sweep]\naxis1 = mu_tilde, -2.0, 2.0, 2\naxis2 = delta_mu, -10.0, 10.0, 2\n"
    )
    return str(path)


class TestPoint:
    def test_writes_report_to_stdout(self, ini, capsys):
        code = main(["point", "--config", ini])
        out = capsys.readouterr().out
        assert code == 0
        assert "status = ok" in out
        assert "current_R = " in out
        assert "torotropy = " in out

    def test_set_override_changes_the_point(self, ini, capsys):
        main(["point", "--config", ini])
        base = capsys.readouterr().out
        main(["point", "--config", ini, "--set", "system.mu_tilde=10.0"])
        changed = capsys.readouterr().out
        assert base != changed

    def test_out_file(self, ini, tmp_path, capsys):
        target = tmp_path / "point.txt"
        code = main(["point", "--config", ini, "--out", str(target)])
        assert code == 0
        assert "current_R = " in target.read_text()
        assert capsys.readouterr().out == ""

    def test_missing_config_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["point", "--config", str(tmp_path / "none.ini")])
        assert err.value.code == 1


class TestSweep:
    def test_sweep_writes_csv(self, sweep_ini, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(["sweep", "--config", sweep_ini, "--out", str(out)])
        assert code == 0
        assert "4 points, 0 failed" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# qdmr sweep")
        data = [l for l in lines if l and not l.startswith("#")]
        assert len(data) == 5  # header + 4 rows

    def test_sweep_without_section_exits_one(self, ini, tmp_path, capsys):
        code = main(["sweep", "--config", ini, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "no [sweep] section" in capsys.readouterr().err

    def test_sweep_with_invalid_points_exits_three(self, ini, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--config",
                ini,
                "--set",
                "sweep.axis1=lam, 0.7, -0.7, 3",
                "--out",
                str(tmp_path / "bad.csv"),
            ]
        )
        assert code == 3
        assert "1 failed" in capsys.readouterr().out

    def test_workers_flag_accepted(self, sweep_ini, tmp_path):
        out = tmp_path / "par.csv"
        code = main(
            ["sweep", "--config", sweep_ini, "--workers", "2", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()


class TestHusimi:
    def test_grid_export(self, ini, tmp_path, capsys):
        out = tmp_path / "q.csv"
        code = main(["husimi", "--config", ini, "--points", "21", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# qdmr husimi grid"
        assert "re_alpha,im_alpha,q" in lines
        data = [l for l in lines if l and not l.startswith("#")]
        assert len(data) == 1 + 21 * 21
        _assert_numeric_cells(lines)

    def test_extent_flag(self, ini, tmp_path):
        out = tmp_path / "q.csv"
        main(
            [
                "husimi",
                "--config",
                ini,
                "--points",
                "11",
                "--extent",
                "2.5",
                "--out",
                str(out),
            ]
        )
        assert "# extent = 2.5" in out.read_text()


class TestTorotropy:
    def test_summary_lines(self, ini, capsys):
        code = main(["torotropy", "--config", ini])
        out = capsys.readouterr().out
        assert code == 0
        assert "torotropy = " in out
        assert "anchor = " in out
        assert out.count("angle ") == 4

    def test_profile_csv(self, ini, tmp_path, capsys):
        out = tmp_path / "profiles.csv"
        code = main(["torotropy", "--config", ini, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# qdmr torotropy radial profiles"
        assert "phi,r,q_normalized" in lines
        _assert_numeric_cells(lines)


class TestMarkovCheck:
    def test_decay_reported_for_both_leads(self, ini, capsys):
        code = main(["markov-check", "--config", ini])
        out = capsys.readouterr().out
        assert code == 0
        assert "lead L: decays at" in out
        assert "lead R: decays at" in out

    def test_trace_csv(self, ini, tmp_path):
        out = tmp_path / "traces.csv"
        code = main(["markov-check", "--config", ini, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[0] == "s_ns"
        assert "L_re_c_out" in lines[1]
        _assert_numeric_cells(lines)


class TestValidate:
    def test_oracle_suite_passes(self, capsys):
        code = main(["validate", "oracle"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["passed"] is True

    def test_unknown_suite_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["validate", "everything"])
        assert err.value.code == 1

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


class TestInstalledEntryPoint:
    @pytest.mark.skipif(
        shutil.which("qdmr") is None,
        reason="the qdmr console script is not installed (pip install -e .)",
    )
    def test_console_script_runs_oracle_suite(self):
        proc = subprocess.run(
            ["qdmr", "validate", "oracle"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True

    def test_declared_script_target_runs_oracle_suite(self):
        # what the installed script would run, without installing it
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["qdmr"]
        assert target == "qdmr.cli:main"
        module, func = target.split(":")
        wrapper = (
            f"import sys; from {module} import {func}; sys.exit({func}())"
        )
        src = str(Path(qdmr.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "validate", "oracle"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True
