"""Command-line interface: subcommands, exit codes, and file outputs."""

import errno
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qdmr
from qdmr import phasespace, sweep, validation
from qdmr.cli import main
from qdmr.configfile import load_config

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

    @staticmethod
    def _tail_lines(argv, capsys, code: int = 0) -> tuple[float, list[str]]:
        assert main(argv) == code
        lines = capsys.readouterr().out.splitlines()
        tail = [float(l.split(" = ")[1]) for l in lines if l.startswith("fock_tail = ")]
        assert len(tail) == 1
        return tail[0], [l for l in lines if l.startswith("warning = Fock tail")]

    def test_prints_the_fock_tail_and_warns_when_it_is_not_small(self, ini, capsys):
        # the top tenth of the levels holds about 1.3e-3 at n_cut = 12, 4.9e-7 at 30
        tail, warned = self._tail_lines(["point", "--config", ini], capsys)
        assert tail >= sweep.ADAPTIVE_TAIL_TOL
        assert warned == [
            f"warning = Fock tail {tail:.2e} >= 1e-06 at n_cut = 12; outputs may not be converged in the cutoff"
        ]
        tail, warned = self._tail_lines(["point", "--config", ini, "--set", "system.n_cut=30"], capsys)
        assert 0.0 < tail < sweep.ADAPTIVE_TAIL_TOL
        assert warned == []

    def test_fock_tail_is_nan_without_a_lab_state(self, ini, capsys, monkeypatch):
        tail, warned = self._tail_lines(["point", "--config", ini, "--set", "system.lam=0.0"], capsys)
        assert math.isnan(tail)
        assert warned == []

        def fail(*args, **kwargs):
            raise RuntimeError("solver failed")

        monkeypatch.setattr(sweep, "evaluate_point", fail)  # an error row has no lab state either
        tail, warned = self._tail_lines(["point", "--config", ini], capsys, code=2)
        assert math.isnan(tail)
        assert warned == []

    def test_missing_config_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["point", "--config", str(tmp_path / "none.ini")])
        assert err.value.code == 1

    def test_calls_in_one_process_read_only_their_own_arguments(self, ini, capsys):
        # the parser is built once per process; no call may see another's --set
        assert main(["point", "--config", ini, "--set", "system.n_cut=8"]) == 0
        assert "n_cut = 8\n" in capsys.readouterr().out
        with pytest.raises(SystemExit) as err:
            main(["point", "--config", ini, "--set", "system.n_cut=9", "--points", "3"])
        assert err.value.code == 1
        assert "unrecognized arguments: --points 3" in capsys.readouterr().err
        assert main(["point", "--config", ini]) == 0
        assert "n_cut = 12\n" in capsys.readouterr().out


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

    def test_summary_counts_the_points_at_the_cutoff_cap(self, ini, tmp_path, capsys):
        # the self-oscillation point (delta_mu = -50) ends its ladder unsettled at
        # the cap, which is a row, not a failure; delta_mu = 60 settles
        overrides = ["system.mu_tilde=0.0", "sweep.axis1=delta_mu, -50.0, 60.0, 2",
                     "sweep.n_cut_policy=adaptive", "sweep.outputs=transport"]
        out = tmp_path / "capped.csv"
        code = main(["sweep", "--config", ini, *(f"--set={o}" for o in overrides), "--out", str(out)])
        assert code == 0
        assert f"wrote {out} (2 points, 0 failed, 1 at the cutoff cap)" in capsys.readouterr().out
        rows = [l.split(",") for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
        assert [row[1] for row in rows] == ["n_cut_cap", "ok"]
        assert rows[0][2] == str(sweep.ADAPTIVE_CAP)

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

    @pytest.mark.parametrize(
        "second_line, message",
        [
            (None, "does not match this sweep"),
            ('{"index": 0, "row": {"mu_tilde": -2.0, "sta', "line 2 is not JSON"),
            ('{"index": 0}', "line 2 is not a journal entry"),
        ],
        ids=["other_sweep", "cut_json", "no_row"],
    )
    def test_unusable_journal_is_a_usage_error(self, second_line, message, sweep_ini, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        journal = out.with_name(out.name + ".journal")
        if second_line is None:
            journal.write_text(json.dumps({"signature": "deadbeef"}) + "\n")
        else:
            signature = sweep._sweep_signature(*load_config(sweep_ini))
            journal.write_text(json.dumps({"signature": signature}) + "\n" + second_line + "\n")
        code = main(["sweep", "--config", sweep_ini, "--out", str(out), "--resume"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"qdmr: journal {journal}")
        assert message in lines[0]
        assert not out.exists()


class TestInvalidSizes:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("sweep", "--workers", "0"),
            ("husimi", "--points", "-1"),
            ("husimi", "--points", "0"),
            ("husimi", "--points", "1"),
            ("husimi", "--extent", "0"),
            ("husimi", "--extent", "-1"),
        ],
    )
    def test_rejected_with_usage_and_no_output(self, command, flag, value, sweep_ini, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            main([command, "--config", sweep_ini, "--out", str(out), flag, value])
        assert err.value.code == 1
        message = capsys.readouterr().err
        assert message.startswith(f"usage: qdmr {command}")
        assert f"argument {flag}" in message
        assert not out.exists()
        assert not out.with_name(out.name + ".journal").exists()


COMMANDS_WITH_OUT = ["point", "sweep", "husimi", "torotropy", "markov-check"]


class TestUnwritableOutput:
    """An unwritable ``--out`` fails before anything is computed: one
    ``qdmr: [Errno ...]`` line naming the path, exit 1, and no file made."""

    @pytest.fixture(autouse=True)
    def _computed(self, monkeypatch):
        # run_point turns an exception into an error row, so count the calls
        self.computed = []

        def refuse(*args, **kwargs):
            self.computed.append(args)
            raise AssertionError("computed before the output was checked")

        monkeypatch.setattr("qdmr.redfield.build_tensors", refuse)
        monkeypatch.setattr("qdmr.leads.bath_correlation", refuse)

    def _assert_refused(self, command, sweep_ini, out, errno_code, capsys):
        made_before = sorted(Path(sweep_ini).parent.rglob("*"))
        code = main([command, "--config", sweep_ini, "--out", str(out)])
        assert self.computed == []
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"qdmr: [Errno {errno_code}] ")
        assert str(out) in lines[0]
        assert "Traceback" not in lines[0]
        assert sorted(Path(sweep_ini).parent.rglob("*")) == made_before

    @pytest.mark.parametrize("command", COMMANDS_WITH_OUT)
    def test_reported_in_one_line_with_exit_one(self, command, sweep_ini, tmp_path, capsys):
        self._assert_refused(command, sweep_ini, tmp_path / "missing" / "x.csv", errno.ENOENT, capsys)

    @pytest.mark.parametrize("command", COMMANDS_WITH_OUT)
    def test_parent_is_a_file(self, command, sweep_ini, tmp_path, capsys):
        (tmp_path / "file.txt").write_text("")
        self._assert_refused(command, sweep_ini, tmp_path / "file.txt" / "x.csv", errno.ENOTDIR, capsys)

    @pytest.mark.parametrize("command", COMMANDS_WITH_OUT)
    def test_target_is_a_directory(self, command, sweep_ini, tmp_path, capsys):
        (tmp_path / "taken").mkdir()
        self._assert_refused(command, sweep_ini, tmp_path / "taken", errno.EISDIR, capsys)


MALFORMED_INI = {
    "line_before_first_section": "omega = 6.28\n" + BASE_INI,
    "repeated_key": BASE_INI.replace("lam = 0.7\n", "lam = 0.7\nlam = 0.9\n"),
    "line_not_key_value": BASE_INI.replace("lam = 0.7\n", "lam = 0.7\nthis is not a setting\n"),
    "bad_interpolation": BASE_INI.replace("lam = 0.7", "lam = %(coupling)s"),
}

NUMERIC_KEYS = [
    "system.omega", "system.lam", "system.mu_tilde",
    "lead_L.gamma_rate", "lead_L.delta", "lead_L.gamma_center",
    "lead_L.temperature", "lead_L.chem_potential", "bias.delta_mu",
]


class TestBadConfig:
    """A config that cannot be read or holds an invalid number is a usage
    error: one ``qdmr:`` line on stderr, exit 1, no traceback."""

    def _assert_usage_error(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would mean the value reached the solver
            with pytest.raises(SystemExit) as err:
                main(argv)
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("qdmr: bad config file ")
        return lines[0]

    @pytest.mark.parametrize("name", sorted(MALFORMED_INI))
    def test_malformed_file(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.ini"
        path.write_text(MALFORMED_INI[name])
        self._assert_usage_error(["point", "--config", str(path)], capsys)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_non_finite_value(self, key, value, ini, capsys):
        line = self._assert_usage_error(["point", "--config", ini, "--set", f"{key}={value}"], capsys)
        assert f"{key} must be finite" in line

    @pytest.mark.parametrize(
        "setting, named",
        [
            ("system.lamm=2", "[system] unknown key 'lamm'"),
            ("sytem.lam=5", "unknown section [sytem]"),
            ("sweep.workers=two", "sweep.workers"),
            ("sweep.axis1=lam, 0, x, 3", "sweep.axis1"),
            ("sweep.axis1=lam, 0, inf, 3", "sweep.axis1"),
            ("sweep.axis1=lam, -1e308, 1e308, 3", "sweep.axis1: axis span"),
            ("sweep.axis2=mu_tilde, 5, 6, 2", "sweep.axis1 and sweep.axis2"),
        ],
    )
    def test_setting_outside_the_schema(self, setting, named, sweep_ini, tmp_path, capsys):
        out = tmp_path / "never.csv"
        argv = ["sweep", "--config", sweep_ini, "--set", setting, "--out", str(out)]
        assert named in self._assert_usage_error(argv, capsys)
        assert not out.exists()
        assert not out.with_name(out.name + ".journal").exists()


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

    def test_memory_grows_with_the_grid_not_with_grid_times_cutoff(self, ini, tmp_path):
        points = 401
        tracemalloc.start()
        try:
            main(["husimi", "--config", ini, "--points", str(points), "--out", str(tmp_path / "q.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the q grid is 8 points^2 bytes and the N=12 solve is small (measured
        # 1.76 MiB in all); overlaps for the whole grid at once, 16 N points^2
        # bytes and a conjugate copy, peaked at 66.6 MiB
        assert peak <= 3 * 8 * points**2


class TestTorotropy:
    def test_summary_lines(self, ini, capsys):
        code = main(["torotropy", "--config", ini])
        out = capsys.readouterr().out
        assert code == 0
        assert "torotropy = " in out
        assert "anchor = " in out
        assert out.count("angle ") == 4

    def test_export_reuses_the_measure_profiles(self, ini, tmp_path, monkeypatch):
        # the export samples no Husimi point beyond those of the measure itself
        points = []
        husimi = phasespace.husimi

        def counted(rho, alpha):
            points.append(np.size(alpha))
            return husimi(rho, alpha)

        monkeypatch.setattr(phasespace, "husimi", counted)
        assert main(["torotropy", "--config", ini]) == 0
        measure = sum(points)
        points.clear()
        assert main(["torotropy", "--config", ini, "--out", str(tmp_path / "profiles.csv")]) == 0
        assert sum(points) == measure > 0

    def test_profile_csv(self, ini, tmp_path, capsys):
        out = tmp_path / "profiles.csv"
        code = main(["torotropy", "--config", ini, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# qdmr torotropy radial profiles"
        assert "phi,r,q_normalized" in lines
        _assert_numeric_cells(lines)


@pytest.fixture
def evaluated_cutoffs(monkeypatch):
    """The cutoff of every point that goes through ``sweep.evaluate_point``."""
    cutoffs = []
    evaluate = sweep.evaluate_point

    def counted(config, *args, **kwargs):
        cutoffs.append(config.system.n_cut)
        return evaluate(config, *args, **kwargs)

    monkeypatch.setattr(sweep, "evaluate_point", counted)
    return cutoffs


class TestOnePointPipeline:
    """The validation suites and the phonon exports evaluate their points as
    ``qdmr point`` and ``qdmr sweep`` do, through ``sweep.evaluate_point``."""

    def test_validation_suites(self, evaluated_cutoffs):
        assert validation.validate_oracle()["passed"]
        assert evaluated_cutoffs == [6] * 21
        evaluated_cutoffs.clear()
        assert validation.validate_truncation()["passed"]
        assert evaluated_cutoffs == [30, 40]

    @pytest.mark.parametrize("command", ["husimi", "torotropy"])
    def test_phonon_exports(self, command, evaluated_cutoffs, ini, tmp_path):
        assert main([command, "--config", ini, "--out", str(tmp_path / "out.csv")]) == 0
        assert evaluated_cutoffs == [12]


class TestZeroCoupling:
    @pytest.mark.parametrize("command", ["husimi", "torotropy"])
    def test_phonon_export_at_zero_coupling_says_decoupled(self, command, ini, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = main([command, "--config", ini, "--set", "system.lam=0", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "lam = 0 decouples the resonator" in err
        assert "no unique phonon state" in err
        assert "allow_degenerate" not in err
        assert not out.exists()


class TestMarkovCheck:
    def test_decay_reported_for_both_leads(self, ini, capsys):
        code = main(["markov-check", "--config", ini])
        out = capsys.readouterr().out
        assert code == 0
        assert "lead L: decays at" in out
        assert "lead R: decays at" in out

    def test_sum_rule_residual_printed_per_lead(self, ini, capsys):
        code = main(["markov-check", "--config", ini])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        for label in ("L", "R"):
            (line,) = [l for l in lines if l.startswith(f"lead {label}:")]
            residual = float(line.split("sum rule residual ")[1])
            assert residual <= 1e-10

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


class TestStartsWithoutScipy:
    """A fresh interpreter that imports qdmr, runs a point, evaluates a sweep
    task, runs ``qdmr markov-check`` or ``qdmr validate markov`` loads no
    SciPy module: SciPy is imported only by the dense LU (``steady_state``),
    which reports where GMRES fails its gates and confirms the adaptive
    ladder's accepted rung."""

    @staticmethod
    def _scipy_modules(code: str, *args: str) -> list[str]:
        src = str(Path(qdmr.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        report = "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
        proc = subprocess.run(
            [sys.executable, "-c", "import json, sys\n" + code + report, *args],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import(self):
        assert self._scipy_modules("import qdmr, qdmr.cli") == []

    def test_point(self, ini, tmp_path):
        code = "from qdmr.cli import main\nassert main(['point', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0"
        assert self._scipy_modules(code, ini, str(tmp_path / "point.txt")) == []

    def test_markov_check(self, ini, tmp_path):
        code = "from qdmr.cli import main\nassert main(['markov-check', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0"
        assert self._scipy_modules(code, ini, str(tmp_path / "traces.csv")) == []

    def test_validate_markov(self):
        code = "from qdmr.cli import main\nassert main(['validate', 'markov']) == 0"
        assert self._scipy_modules(code) == []

    def test_sweep_tasks_at_and_off_zero_coupling(self, ini):
        code = (
            "from qdmr import sweep\n"
            "from qdmr.configfile import SweepAxis, SweepSpec, load_config\n"
            "config = load_config(sys.argv[1])[0]\n"
            "spec = SweepSpec(axis1=SweepAxis('lam', 0.7, 0.0, 2))\n"
            "for index, assignment in spec.points():\n"
            "    row = sweep._evaluate_task((index, config, assignment, spec))[1]\n"
            "    assert (row['lam'], row['status']) == ((0.7, 'ok'), (0.0, 'degenerate'))[index], row\n"
        )
        assert self._scipy_modules(code, ini) == []
