import csv
import fnmatch
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from chemolab import cli, evolve, stability
from chemolab.cli import main
from chemolab.config import Config, eval_number
from chemolab.errors import OutOfRange, UnknownKey

BASE = """
model.chi = 0.4
model.a = 1
model.b = 1
model.theta = 2
model.kappa = 1
model.beta = 1
model.dim = 1
model.L = pi
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigFormat:
    def test_comments_and_blanks(self):
        cfg = Config.parse("# heading\n\nmodel.chi = 0.4  # inline\n")
        assert cfg.number("model.chi") == 0.4

    def test_unknown_key_is_error(self):
        with pytest.raises(UnknownKey):
            Config.parse("model.chii = 1\n")

    def test_pi_arithmetic(self):
        assert eval_number("pi") == pytest.approx(math.pi)
        assert eval_number("2*pi") == pytest.approx(2 * math.pi)
        assert eval_number("-0.5") == -0.5
        assert eval_number("1/3") == pytest.approx(1 / 3)

    def test_rejects_arbitrary_expressions(self):
        with pytest.raises(OutOfRange):
            eval_number("__import__('os')")

    def test_malformed_line(self):
        with pytest.raises(OutOfRange):
            Config.parse("model.chi\n")


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["classify", "--config", "x", "--bogus"]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["classify", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = _write(tmp_path, BASE + "model.zeta = 1\n")
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_missing_required_key(self, tmp_path):
        cfg = _write(tmp_path, BASE + "run.target = 1\n")  # no run.horizon
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("command, extra, reason", [
        ("simulate", "run.snapshots = 1/0", "cannot parse number '1/0'"),
        ("simulate", "model.chi = 2.0**10000", "cannot parse number '2.0**10000'"),
        ("simulate", "model.a = (-1)**0.5", "is not a real number"),
        ("simulate", "grid.nx = 1e400", "grid.nx: expected an integer (got inf)"),
        ("simulate", "grid.nx = 1e400 - 1e400", "grid.nx: expected an integer (got nan)"),
        ("simulate", "init.kind = cosine\ninit.mode = 1e400", "init.mode: expected an integer (got inf)"),
        ("simulate", "init.kind = cosine\ninit.mode = 1, 1.5", "init.mode: expected an integer (got 1.5)"),
        ("simulate", "init.kind = cosine\ninit.mode = 1, 2", "init.mode: more entries (2) than grid axes (1)"),
        ("simulate", "run.rows = 0", "rows: must be >= 1 (got 0)"),
        ("simulate", "run.rows = -3", "rows: must be >= 1 (got -3)"),
        ("simulate", "run.snapshots = -1", "run.snapshots: must be >= 0 (got -1)"),
        ("sweep", "sweep.count = -1", "sweep.count: grid is empty (got -1)"),
        ("sweep", "sweep.count = 2\nsweep.parameter2 = model.b\nsweep.start2 = 1\n"
         "sweep.stop2 = 2\nsweep.count2 = -1", "sweep.count2: grid is empty (got -1)"),
    ])
    def test_bad_value_exits_with_reason(self, tmp_path, capsys, command, extra, reason):
        # main runs in this process, so a traceback would fail the test here
        # as the exception itself
        text = BASE + "grid.nx = 16\nrun.horizon = 0.5\n"
        if command == "sweep":
            text += "sweep.command = simulate\nsweep.parameter = model.chi\n"
            text += "sweep.start = 0.1\nsweep.stop = 0.2\n"
        cfg = _write(tmp_path, text + extra + "\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(("config error: ", "error: ")) and err.count("\n") == 1, err
        assert reason in err


class TestClassifyCommand:
    def test_borderline_inequality_printout(self, tmp_path, capsys):
        cfg = _write(
            tmp_path,
            """
model.chi = 1
model.a = 1
model.b = 0.4
model.theta = 2
model.kappa = 1
model.beta = 1
model.dim = 1
model.L = pi
classify.dim = 3
""",
        )
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "StrictBorderlineInequality" in out
        assert (tmp_path / "o" / "regimes.csv").exists()
        assert (tmp_path / "o" / "manifest.txt").exists()


class TestSimulateCommand:
    def _config(self, tmp_path):
        return _write(
            tmp_path,
            BASE
            + """
kinetics.f_kind = generalized-logistic
grid.nx = 32
init.kind = cosine
init.base = 1
init.amplitude = 0.5
run.horizon = 5
run.target = equilibrium
run.snapshots = 2
""",
        )

    def test_writes_artifacts_and_exits_zero(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "series.csv").exists()
        assert (out / "final.csv").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "artifact: series.csv" in manifest

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "3"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "3"]) == 0
        for name in ("series.csv", "final.csv", "snapshot_000.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_blowup_exit_code(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE
            + """
grid.nx = 32
init.kind = constant
init.base = 2e6
run.horizon = 2
""",
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_series_csv_header_and_footer(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE
            + """
grid.nx = 32
init.kind = constant
init.base = 0.5
run.horizon = 0.2
""",
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "t,mass,linf_u,lp_u,linf_v,linf_gradv,dt"
        assert lines[-1].startswith("# status=ReachedHorizon final_time=0.2")

    @pytest.mark.parametrize("dim", [1, 2])
    def test_float_artifacts_round_trip(self, tmp_path, monkeypatch, dim):
        """series.csv and final.csv hold every float to 17 significant digits,
        so float() reads back the run's own values bit for bit."""
        reports = []
        run_batch = evolve.run_batch

        def keep_reports(specs):
            reports.extend(run_batch(specs))
            return reports[-len(specs):]

        monkeypatch.setattr(evolve, "run_batch", keep_reports)
        text = BASE.replace("model.dim = 1", f"model.dim = {dim}") + """
grid.nx = 12
init.kind = random
init.base = 1
init.amplitude = 0.5
run.horizon = 0.5
"""
        out = tmp_path / "o"
        assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        (report,) = reports

        def read(name):
            with open(out / name, newline="", encoding="utf-8") as fh:
                return [[float(x) for x in row] for row in list(csv.reader(fh))[1:]
                        if not row[0].startswith("#")]

        series = np.array(read("series.csv"))
        final = np.array(read("final.csv"))
        assert series.tobytes() == report.series.tobytes()
        assert final[:, dim].tobytes() == report.final_u.values.ravel().tobytes()
        assert final[:, dim + 1].tobytes() == report.final_v.values.ravel().tobytes()


class TestArtifactWriter:
    FLOATS = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
    )

    @seed(10)
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ncols=st.integers(1, 6), cells=st.lists(FLOATS, max_size=48))
    def test_float_block_equals_cell_path(self, tmp_path, ncols, cells):
        block = np.array(cells[: len(cells) - len(cells) % ncols], dtype=float).reshape(-1, ncols)
        manifest = cli._Manifest(tmp_path, "simulate", "<test>", 0, config_sha="none")
        header = [f"c{i}" for i in range(ncols)]
        footer = [["# footer"]]
        manifest.write_csv("block.csv", header, block, footer)
        manifest.write_csv("scalars.csv", header, [list(row) for row in block], footer)
        manifest.write_csv("floats.csv", header, block.tolist(), footer)
        data = (tmp_path / "block.csv").read_bytes()
        assert data == (tmp_path / "scalars.csv").read_bytes()
        assert data == (tmp_path / "floats.csv").read_bytes()

    def test_int_and_bool_arrays_keep_cell_format(self, tmp_path):
        manifest = cli._Manifest(tmp_path, "simulate", "<test>", 0, config_sha="none")
        manifest.write_csv("ints.csv", ["n"], np.array([[10**18], [-3]]))
        manifest.write_csv("bools.csv", ["b"], np.array([[True], [False]]))
        assert (tmp_path / "ints.csv").read_text() == "n\n1000000000000000000\n-3\n"
        assert (tmp_path / "bools.csv").read_text() == "b\ntrue\nfalse\n"


class TestStabilityCommand:
    def test_bifurcation_table_artifact(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE.replace("model.chi = 0.4", "model.chi = 5")
            + """
stability.count = 3
""",
        )
        out = tmp_path / "o"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "bifurcation.csv").read_text().splitlines()
        assert lines[0] == "k,sigma,multiplicity,chi_hat,proven"
        assert len(lines) == 4
        assert lines[1].startswith("1,2,1,4,true")

    SCAN_2D = BASE.replace("model.dim = 1", "model.dim = 2") + """
grid.nx = 8
stability.scan = true
stability.scan_lo = 3
stability.scan_hi = 5
stability.scan_points = 4
"""

    def test_2d_scan_writes_roots_with_multiplicity(self, tmp_path):
        cfg = _write(tmp_path, self.SCAN_2D)
        out = tmp_path / "o"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "scan.csv", newline="") as fh:
            curve = list(csv.reader(fh))
        assert curve[0] == ["chi", "smallest_singular_value"] and len(curve) == 5
        with open(out / "scan_roots.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["chi_singular"]
        roots = [float(r[0]) for r in rows]
        # modes (1, 0) and (0, 1) share one root, then (1, 1)
        assert len(roots) == 3
        assert roots[0] == pytest.approx(roots[1], rel=1e-12)
        assert 4.0 < roots[0] < 4.1 and 4.4 < roots[2] < 4.5

    def test_arpack_failure_exits_no_convergence(self, tmp_path, monkeypatch, capsys):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("No convergence (0/6 eigenvectors converged)", [], [])

        monkeypatch.setattr(stability.spla, "eigs", stalled)
        cfg = _write(tmp_path, self.SCAN_2D)
        code = main(["stability", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NOCONV
        assert "singularity scan" in capsys.readouterr().err

    def test_scan_rerun_is_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, self.SCAN_2D)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["stability", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["stability", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("scan.csv", "scan_roots.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestCompareOdeCommand:
    def test_trajectory_artifact(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE
            + """
compare.horizon = 20
compare.u0_min = 0.5
compare.u0_max = 1.5
""",
        )
        out = tmp_path / "o"
        assert main(["compare-ode", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,ubar,ulow,log_ratio"


class TestSteadyCommand:
    def test_single_point_with_validators(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE.replace("model.chi = 0.4", "model.chi = 4.2")
            + """
grid.nx = 32
steady.chi = 4.2
steady.mode = 1
""",
        )
        out = tmp_path / "o"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        branch = (out / "branch.csv").read_text().splitlines()
        assert len(branch) == 2
        assert (out / "validation.csv").exists()

    def test_branch_csv(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE.replace("model.chi = 0.4", "model.chi = 4.2")
            + """
grid.nx = 64
steady.chi_start = 4.2
steady.chi_stop = 4.6
steady.steps = 3
""",
        )
        out = tmp_path / "o"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "branch.csv").read_text().splitlines()
        assert lines[0] == "chi,amplitude,residual,seed_mode"
        assert len(lines) == 4


class TestThreeDimensions:
    CONFIG = BASE.replace("model.dim = 1", "model.dim = 3") + """
grid.nx = 8
init.kind = random
init.amplitude = 0.1
run.horizon = 1
run.snapshots = 2
steady.chi = 4.6
stability.scan = true
stability.scan_lo = 3.5
stability.scan_hi = 7
stability.scan_points = 3
"""

    @pytest.mark.parametrize("command, table", [
        ("simulate", "final.csv"), ("steady", "steady_state.csv"),
        ("stability", "scan_roots.csv"), ("classify", "regimes.csv"),
    ])
    def test_cube_runs_every_grid_command(self, tmp_path, command, table):
        out = tmp_path / "o"
        assert main([command, "--config", _write(tmp_path, self.CONFIG), "--out", str(out)]) == 0
        lines = (out / table).read_text().splitlines()
        if table.endswith("state.csv") or table == "final.csv":
            assert lines[0] == "x,y,z,u,v" and len(lines) == 1 + 8**3
        assert len(lines) > 1


class TestSweepCommand:
    def test_empty_grid_is_usage_error(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE
            + """
sweep.command = classify
sweep.parameter = model.chi
sweep.start = 0.3
sweep.stop = 0.6
sweep.count = 0
""",
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_zero_rows_is_a_point_failure(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE
            + """
sweep.command = simulate
sweep.parameter = run.rows
sweep.start = 0
sweep.stop = 2
sweep.count = 2
grid.nx = 16
run.horizon = 0.5
""",
        )
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "sweep_summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["error: rows: must be >= 1 (got 0)", "ok"]

    def test_programming_error_is_not_a_point_failure(self, tmp_path, monkeypatch):
        def broken(cfg, args, manifest):
            raise TypeError("bug in a handler")

        monkeypatch.setitem(cli._HANDLERS, "classify", broken)
        cfg = _write(
            tmp_path,
            BASE
            + """
sweep.command = classify
sweep.parameter = model.chi
sweep.start = 0.3
sweep.stop = 0.6
sweep.count = 2
""",
        )
        with pytest.raises(TypeError, match="bug in a handler"):
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])

    def test_mode_beyond_the_grid_axes_is_a_point_failure(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE
            + """
sweep.command = simulate
sweep.parameter = model.dim
sweep.start = 1
sweep.stop = 2
sweep.count = 2
grid.nx = 8
init.kind = cosine
init.mode = 1, 2
init.amplitude = 0.5
run.horizon = 0.1
""",
        )
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "sweep_summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == [
            "error: init.mode: more entries (2) than grid axes (1)", "ok"]
        assert [r["exit_code"] for r in rows] == ["1", "0"]

    def test_classify_sweep_summary(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE
            + """
sweep.command = classify
sweep.parameter = model.chi
sweep.start = 0.3
sweep.stop = 0.6
sweep.count = 3
""",
        )
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "index,model.chi,status,exit_code,scalar"
        assert len(lines) == 4
        assert (out / "point_0000" / "regimes.csv").exists()

    def test_failed_point_status_is_one_cell(self, tmp_path):
        # the parse error of a non-swept key quotes the value: '"1'"'
        cfg = _write(
            tmp_path,
            BASE.replace("model.a = 1", "model.a = 1'")
            + """
sweep.command = classify
sweep.parameter = model.chi
sweep.start = 0.3
sweep.stop = 0.6
sweep.count = 2
""",
        )
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        with open(out / "sweep_summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert None not in row  # no cell spilled past the header
            assert row["status"].startswith("error:")
            assert '"' in row["status"]
            assert row["exit_code"] == "1"
            assert row["scalar"] == "nan"

    def test_two_parameter_grid(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE
            + """
sweep.command = classify
sweep.parameter = model.chi
sweep.start = 0.3
sweep.stop = 0.6
sweep.count = 2
sweep.parameter2 = model.b
sweep.start2 = 1
sweep.stop2 = 2
sweep.count2 = 2
""",
        )
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "index,model.chi,model.b,status,exit_code,scalar"
        assert len(lines) == 5


class TestSimulateSweep:
    # chi = 0 fails at config time; nx in {16, 32} gives two grids, so the
    # other points run as two batches
    CONFIG = BASE + """
sweep.command = simulate
sweep.parameter = model.chi
sweep.start = 0
sweep.stop = 0.6
sweep.count = 3
sweep.parameter2 = grid.nx
sweep.start2 = 16
sweep.stop2 = 32
sweep.count2 = 2
kinetics.f_kind = generalized-logistic
init.kind = random
init.base = 1
init.amplitude = 0.5
run.horizon = 1.5
run.target = equilibrium
run.snapshots = 3
"""

    @staticmethod
    def _files(folder):
        """Every file under folder with the manifest's timestamp dropped; the
        manifest's config lines name the config file, which differs by design."""
        out = {}
        for path in sorted(folder.iterdir()):
            text = path.read_text(encoding="utf-8")
            if path.name == "manifest.txt":
                text = "\n".join(line for line in text.splitlines()
                                 if not line.startswith(("timestamp:", "config:", "config_sha256:")))
            out[path.name] = text
        return out

    def test_points_equal_standalone_runs(self, tmp_path, capsys):
        cfg = _write(tmp_path, self.CONFIG)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
        sweep_lines = capsys.readouterr().out.splitlines()
        with open(out / "sweep_summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"].split(":")[0] for r in rows] == ["error"] * 2 + ["ok"] * 4
        assert rows[0]["status"] == "error: chi: must be > 0 (got 0.0)"
        status_lines = []
        for i, row in enumerate(rows):
            text = self.CONFIG.replace("model.chi = 0.4", f"model.chi = {row['model.chi']}")
            text += f"grid.nx = {row['grid.nx']}\n"
            alone = tmp_path / f"alone_{i}"
            code = main(["simulate", "--config", _write(tmp_path, text, f"point_{i}.cfg"),
                         "--out", str(alone), "--seed", "5"])
            assert code == int(row["exit_code"])
            status_lines += capsys.readouterr().out.splitlines()
            point = self._files(out / f"point_{i:04d}")
            assert point == self._files(alone) if code == 0 else list(point) == ["manifest.txt"]
        assert sweep_lines == status_lines + ["sweep: 4/6 points succeeded"]

    def test_programming_error_in_the_batch_escapes(self, tmp_path, monkeypatch):
        def broken(*args):
            raise TypeError("bug in the kernel")

        monkeypatch.setattr(evolve, "growth", broken)
        cfg = _write(tmp_path, self.CONFIG)
        with pytest.raises(TypeError, match="bug in the kernel"):
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])


# one tiny run of each subcommand, with every optional artifact switched on
CONTRACT_RUNS = {
    "simulate": BASE.replace("model.dim = 1", "model.dim = 2")
    + """
grid.nx = 8
grid.ny = 10
init.kind = random
init.base = 1
init.amplitude = 0.5
run.horizon = 0.5
run.snapshots = 2
""",
    "steady": BASE.replace("model.chi = 0.4", "model.chi = 4.2")
    + """
grid.nx = 16
steady.chi = 4.2
""",
    "stability": BASE.replace("model.chi = 0.4", "model.chi = 5")
    + """
grid.nx = 16
stability.count = 3
stability.chi_lo = 0.5
stability.chi_hi = 8
stability.chi_samples = 5
stability.scan = true
stability.scan_lo = 3
stability.scan_hi = 5
stability.scan_points = 6
""",
    "compare-ode": BASE
    + """
compare.horizon = 40
compare.u0_min = 0.5
compare.u0_max = 1.5
compare.envelopes = true
""",
    "classify": BASE + "classify.dim = 3\n",
    "sweep": BASE
    + """
sweep.command = simulate
sweep.parameter = model.chi
sweep.start = 0.1
sweep.stop = 0.3
sweep.count = 2
grid.nx = 16
init.kind = cosine
init.base = 1
init.amplitude = 0.5
run.horizon = 0.5
run.snapshots = 1
""",
}

BOOL_COLUMNS = {"proven", "satisfied", "pass"}


def _readme_artifact_patterns() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Artifacts", 1)[1].split("\n## ", 1)[0]
    first_cells = re.findall(r"^\| (.+?) \|", table, flags=re.MULTILINE)
    return [name for cell in first_cells for name in re.findall(r"`([^`]+)`", cell)]


@pytest.mark.parametrize("command", sorted(CONTRACT_RUNS))
def test_artifact_contract(tmp_path, command):
    cfg = _write(tmp_path, CONTRACT_RUNS[command])
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    patterns = _readme_artifact_patterns()
    names = []
    for manifest in out.rglob("manifest.txt"):
        lines = manifest.read_text(encoding="utf-8").splitlines()
        names += [(manifest.parent, line[len("artifact: "):])
                  for line in lines if line.startswith("artifact: ")]
    assert names
    for folder, name in names:
        assert (folder / name).is_file(), name
        assert any(fnmatch.fnmatch(name, pat) for pat in patterns), name
        with open(folder / name, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        if name == "series.csv":
            footer = rows.pop()
            assert len(footer) == 1 and footer[0].startswith("# status=")
        assert rows, name
        for row in rows:
            assert len(row) == len(header), (name, row)
            assert "True" not in row and "False" not in row, (name, row)
        for col, key in enumerate(header):
            if key in BOOL_COLUMNS:
                assert {row[col] for row in rows} <= {"true", "false"}, (name, key)


def test_import_does_not_load_scipy_integrate():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, chemolab, chemolab.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
