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

from chemolab import cli, evolve
from chemolab.cli import EXIT_NOCONV, main
from chemolab.config import Config, eval_number
from chemolab.errors import OutOfRange, UnknownKey
from chemolab.grid import Grid
from chemolab.steady import NEWTON_TOL

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


@pytest.fixture(params=[1, 2], ids=["one-worker", "two-workers"])
def workers(request, monkeypatch):
    """Force a sweep's worker count, still at most one per point."""
    monkeypatch.setattr(cli, "_workers", lambda n_points: min(request.param, n_points))


def _assert_no_children():
    with pytest.raises(ChildProcessError):  # no sweep worker outlives main
        os.waitpid(-1, os.WNOHANG)


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

    def test_repeated_key_takes_its_last_line(self):
        cfg = Config.parse("model.chi = 0.4\nmodel.a = 1\nmodel.chi = 2*pi  # again\n")
        assert cfg.number("model.chi") == 2 * math.pi
        assert cfg.number("model.a") == 1.0


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

    def test_missing_domain_length(self, tmp_path, capsys):
        cfg = _write(tmp_path, BASE.replace("model.L = pi\n", ""))
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "config error: missing required key: model.L\n"

    @pytest.mark.parametrize("command, extra, reason", [
        ("simulate", "run.snapshots = 1/0", "cannot parse number '1/0'"),
        ("simulate", "model.chi = 2.0**10000", "cannot parse number '2.0**10000'"),
        ("simulate", "model.a = (-1)**0.5", "is not a real number"),
        ("simulate", "grid.nx = 1e400", "grid.nx: expected an integer (got inf)"),
        ("simulate", "grid.nx = 1e400 - 1e400", "grid.nx: expected an integer (got nan)"),
        ("simulate", "init.kind = cosine\ninit.mode = 1e400", "init.mode: expected an integer (got inf)"),
        ("simulate", "init.kind = cosine\ninit.mode = 1, 1.5", "init.mode: expected an integer (got 1.5)"),
        ("simulate", "init.kind = cosine\ninit.mode = 1, 2", "init.mode: more entries (2) than grid axes (1)"),
        ("simulate", "run.rows = 0", "run.rows: must be >= 1 (got 0)"),
        ("simulate", "init.kind = bogus", "init.kind: must be constant, cosine or random (got bogus)"),
        ("simulate", "run.rows = -3", "run.rows: must be >= 1 (got -3)"),
        ("simulate", "run.horizon = 0", "run.horizon: must be > 0 (got 0.0)"),
        ("simulate", "grid.nx = 4", "grid.nx: need >= 8 cells per axis (got 4)"),
        ("simulate", "model.dim = 2\ngrid.ny = 4", "grid.ny: need >= 8 cells per axis (got 4)"),
        ("simulate", "run.snapshots = -1", "run.snapshots: must be >= 0 (got -1)"),
        ("simulate", "run.horizon = 1e400", "run.horizon: must be finite (got inf)"),
        ("simulate", "model.chi = 1e400", "model.chi: must be finite (got inf)"),
        ("simulate", "model.L = 1e400", "model.L: must be finite (got inf)"),
        ("stability", "stability.chi_lo = 3\nstability.chi_hi = 5\nstability.chi_samples = 0",
         "stability.chi_samples: must be >= 1 (got 0)"),
        ("stability", "stability.chi_lo = 3\nstability.chi_hi = 5\nstability.chi_samples = -1",
         "stability.chi_samples: must be >= 1 (got -1)"),
        ("stability", "stability.count = 0", "stability.count: must be >= 1 (got 0)"),
        ("stability", "model.dim = 3\nstability.count = 3000",
         "stability.count: (count + 2)**3 index tuples exceed 1048576 (got 3000)"),
        ("stability", "stability.count = 1e7",
         "stability.count: (count + 2)**1 index tuples exceed 1048576 (got 10000000)"),
        ("stability", "stability.u0 = -1", "stability.u0: equilibrium must be > 0 (got -1.0)"),
        ("stability", "stability.u0 = 0", "stability.u0: equilibrium must be > 0 (got 0.0)"),
        ("stability", "stability.scan = true\nstability.scan_lo = 3\nstability.scan_hi = 5\n"
         "stability.scan_points = 1", "stability.scan_points: must be >= 2 (got 1)"),
        ("stability", "stability.scan = true\nstability.scan_lo = 5\nstability.scan_hi = 5",
         "stability.scan_hi: must be > the low end 5.0 (got 5.0)"),
        ("steady", "steady.chi_start = 4\nsteady.chi_stop = 5\nsteady.steps = 0",
         "steady.steps: must be >= 1 (got 0)"),
        ("steady", "steady.mode = -1", "steady.mode: must be >= 1, a nonconstant mode (got -1)"),
        ("steady", "steady.mode = 0", "steady.mode: must be >= 1, a nonconstant mode (got 0)"),
        ("steady", "steady.mode = 16", "steady.mode: the grid has modes 1 to 15 (got 16)"),
        ("steady", "steady.seed_fraction = 0", "unknown config key: steady.seed_fraction"),
        ("compare-ode", "compare.horizon = 0\ncompare.u0_min = 0.5\ncompare.u0_max = 1.5",
         "compare.horizon: must be > 0 (got 0.0)"),
        ("compare-ode", "compare.horizon = 1\ncompare.u0_min = 0\ncompare.u0_max = 1.5",
         "compare.u0_min: must be > 0 (got 0.0)"),
        ("compare-ode", "compare.horizon = 1\ncompare.u0_min = 0.5\ncompare.u0_max = 0.25",
         "compare.u0_max: must be >= u0_min (got 0.25 < 0.5)"),
        # the envelopes alone, without the sandwich pair that also checks it
        ("compare-ode", "kinetics.f_kind = power-envelope\ncompare.horizon = 1\n"
         "compare.u0_min = 0.5\ncompare.u0_max = 0.25\ncompare.envelopes = on",
         "compare.u0_max: must be >= u0_min (got 0.25 < 0.5)"),
        ("classify", "classify.dim = 0", "classify.dim: must be >= 1 (got 0)"),
        ("sweep", "sweep.count = -1", "sweep.count: grid is empty (got -1)"),
        ("sweep", "sweep.count = 2\nsweep.command = bogus",
         "sweep.command: must be one of ['classify', 'compare-ode', 'simulate', 'stability', "
         "'steady'] (got bogus)"),
        ("sweep", "sweep.count = 2\nsweep.parameter2 = model.b\nsweep.start2 = 1\n"
         "sweep.stop2 = 2\nsweep.count2 = -1", "sweep.count2: grid is empty (got -1)"),
        # a key read only with another one must not be silently ignored
        ("steady", "steady.chi_stop = 5\nsteady.steps = 3",
         "steady.chi_stop: is read only with steady.chi_start, which is missing"),
        ("steady", "steady.steps = 3", "steady.steps: is read only with steady.chi_start"),
        ("steady", "steady.chi = 4.2\nsteady.chi_start = 4\nsteady.chi_stop = 5\n"
         "steady.steps = 2",
         "steady.chi: conflicts with steady.chi_start"),
        ("stability", "stability.chi_hi = 5", "stability.chi_hi: is read only with stability.chi_lo"),
        ("stability", "stability.chi_samples = 5",
         "stability.chi_samples: is read only with stability.chi_lo"),
        ("stability", "stability.scan_lo = 3\nstability.scan_hi = 5",
         "stability.scan_lo: is read only with stability.scan, which is missing"),
        ("stability", "stability.scan_points = 6",
         "stability.scan_points: is read only with stability.scan"),
        ("sweep", "sweep.count = 2\nsweep.start2 = 1\nsweep.stop2 = 2\nsweep.count2 = 3",
         "sweep.start2: is read only with sweep.parameter2, which is missing"),
        ("sweep", "sweep.count = 2\nsweep.count2 = 3",
         "sweep.count2: is read only with sweep.parameter2"),
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

    @pytest.mark.parametrize("value", ["1" + "+0" * 100000, "-" * 50000 + "1"],
                             ids=["deep-sum", "deep-negation"])
    def test_overlong_number_exits_with_reason(self, tmp_path, capsys, value):
        # long enough, each exhausts ast.parse: RecursionError, MemoryError
        cfg = _write(tmp_path, BASE + f"grid.nx = 16\nrun.horizon = 0.5\nmodel.chi = {value}\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        reason = f"a number has at most 100 characters (got {len(value)})"
        assert capsys.readouterr().err == f"config error: value: {reason}\n"


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

    def test_theta_is_read_from_f(self, tmp_path, capsys):
        # f = u*(1 - u) has theta = kappa + 1 = 2, not model.theta = 3
        text = BASE.replace("model.theta = 2", "model.theta = 3")
        cfg = _write(tmp_path, text.replace("model.dim = 1", "model.dim = 2")
                     .replace("model.chi = 0.4", "model.chi = 1"))
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "Subcritical" not in out and "beta*chi: 1 > 0 (margin 1.000e+00) -> True" in out
        regimes = (tmp_path / "o" / "regimes.csv").read_text(encoding="utf-8")
        assert "Subcritical,false,theta - kappa > 1: 2 - 1 = 1 -> False" in regimes

    def test_steep_power_envelope_classifies(self, tmp_path, capsys):
        cfg = _write(tmp_path, BASE.replace("model.theta = 2", "model.theta = 17")
                     + "kinetics.f_kind = power-envelope\n")
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "theta - kappa > 1: 17 - 1 = 16 -> True" in capsys.readouterr().out


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


class TestEquilibriumTarget:
    """run.target = equilibrium is the largest zero of f in every family: the
    u0 that classify reports, which the run converges to."""

    # family keys over BASE; each run starts near that family's largest zero
    FAMILIES = {
        "generalized-logistic": ("", 1.0),
        # the borderline power-envelope kinetics: f = 1 - u**3/2 settles on
        # 2**(1/3), not on (a/b)**(1/kappa) = 2**(1/2)
        "power-envelope": ("model.b = 0.5\nmodel.theta = 3\nmodel.kappa = 2\n", 1.25),
        "allee": ("model.theta = 3\nkinetics.allee_c = 0.5\n", 1.0),
        "polynomial": ("model.theta = 3\nkinetics.poly_coeffs = 0, 2, -1\n", 2.0),
    }

    @pytest.mark.parametrize("f_kind", sorted(FAMILIES))
    def test_converges_to_the_classified_equilibrium(self, tmp_path, monkeypatch, f_kind):
        keys, base = self.FAMILIES[f_kind]
        specs = []
        run_batch = evolve.run_batch

        def keep_specs(batch):
            specs.extend(batch)
            return run_batch(batch)

        monkeypatch.setattr(evolve, "run_batch", keep_specs)
        text = BASE.replace("model.chi = 0.4", "model.chi = 0.1") + keys + f"""
kinetics.f_kind = {f_kind}
grid.nx = 16
init.kind = cosine
init.base = {base}
init.amplitude = 0.05
run.horizon = 60
run.target = equilibrium
"""
        cfg = _write(tmp_path, text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        footer = (out / "series.csv").read_text().splitlines()[-1]
        assert footer.startswith("# status=Converged"), footer
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
        with open(tmp_path / "c" / "regimes.csv", newline="", encoding="utf-8") as fh:
            pattern = next(row for row in csv.DictReader(fh) if row["tag"] == "PatternCapableAt")
        u0 = re.findall(r"u0 = (\S+):", pattern["condition"])[-1]
        (spec,) = specs
        assert f"{spec.target:.6g}" == u0


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

    def test_snapshot_rows_are_cell_centres_with_u_and_v(self, tmp_path):
        grid = Grid((2.0, 5.0), (8, 10))
        u = np.arange(80.0).reshape(grid.shape) / 7
        v = -u**2
        manifest = cli._Manifest(tmp_path, "simulate", "<test>", 0, config_sha="none")
        cli.write_snapshot_csv(manifest, "snap.csv", grid, u, v)
        with open(tmp_path / "snap.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "u", "v"]
        table = np.array(rows[1:], dtype=float)
        x, y = grid.coordinates
        np.testing.assert_array_equal(table, np.column_stack(
            [x.ravel(), y.ravel(), u.ravel(), v.ravel()]))
        assert table[1, :2].tolist() == [0.125, 0.75]  # x-major: y runs fastest
        assert manifest.artifacts == ["snap.csv"]


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

    def test_lambda_table_is_nan_below_the_floor(self, tmp_path):
        # f = u*(1 - u) about u0 = 1 has f'(u0) = -1, so chi_floor = 4
        cfg = _write(tmp_path, BASE + "stability.chi_lo = 3.5\nstability.chi_hi = 8\n"
                     "stability.chi_samples = 10\n")
        out = tmp_path / "o"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "lambda.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["chi", "lambda_minus", "lambda_plus"] and len(rows) == 10
        table = np.array(rows, dtype=float)
        assert table[0, 0] == 3.5 and np.isnan(table[0, 1:]).all()
        assert not np.isnan(table[1:, 1:]).any()
        assert table[-1, 1:] == pytest.approx([4 - 8**0.5, 4 + 8**0.5])  # at chi = 8

    @pytest.mark.parametrize("word, scanned", [("TRUE", True), ("on", True), ("No", False)])
    def test_scan_flag_words(self, tmp_path, word, scanned):
        cfg = _write(tmp_path, self.SCAN_2D.replace("stability.scan = true",
                                                    f"stability.scan = {word}"))
        out = tmp_path / "o"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "scan.csv").exists() == scanned

    def test_misspelt_flag_exits_with_reason(self, tmp_path, capsys):
        cfg = _write(tmp_path, self.SCAN_2D.replace("stability.scan = true",
                                                    "stability.scan = ture"))
        out = tmp_path / "o"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stability.scan: expected one of" in err, err
        assert "(got 'ture')" in err
        assert not (out / "scan.csv").exists()

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

    # the sandwich pair reads model.a, model.b and model.kappa as a logistic's,
    # so it describes neither power-envelope f = 1 - u**2 nor polynomial
    # f = 2*u - u**2
    POWER = BASE.replace("model.chi = 0.4", "model.chi = 0.2") + """
kinetics.f_kind = power-envelope
compare.horizon = 40
compare.u0_min = 0.5
compare.u0_max = 1.5
"""
    FAMILIES = pytest.mark.parametrize("family, text", [
        ("power-envelope", POWER),
        ("polynomial", POWER.replace("power-envelope", """polynomial
kinetics.poly_coeffs = 0, 2, -1""")),
    ], ids=["power-envelope", "polynomial"])

    @FAMILIES
    def test_other_families_have_no_sandwich_pair(self, tmp_path, capsys, family, text):
        out = tmp_path / "o"
        assert main(["compare-ode", "--config", _write(tmp_path, text), "--out", str(out)]) == 1
        assert (f"config error: kinetics.f_kind: {family} growth has no sandwich pair; "
                "compare-ode needs compare.envelopes") in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt"]

    @FAMILIES
    def test_other_families_write_only_envelopes(self, tmp_path, capsys, family, text):
        out = tmp_path / "o"
        cfg = _write(tmp_path, text + "compare.envelopes = on\n")
        assert main(["compare-ode", "--config", cfg, "--out", str(out)]) == 0
        assert "eps0" not in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["envelopes.csv", "manifest.txt"]


class TestFailedCommandManifest:
    """A command that fails after writing an artifact still lists it."""

    @pytest.mark.parametrize("command, text, artifact, reason", [
        ("compare-ode", BASE + """
compare.horizon = 1
compare.u0_min = 0.5
compare.u0_max = 1.5
compare.envelopes = on
""", "trajectory.csv", "config error: compare.horizon: z not settled at horizon "
         "(|z(T) - z*| = 6.545e-02 with z* = 1.66667); extend it"),
        ("stability", BASE.replace("model.chi = 0.4", "model.chi = 5") + """
stability.count = 3
stability.chi_lo = 0.5
stability.chi_hi = 8
stability.chi_samples = 0
""", "bifurcation.csv", "config error: stability.chi_samples: must be >= 1 (got 0)"),
    ], ids=["compare-ode", "stability"])
    def test_manifest_lists_the_written_artifact(self, tmp_path, capsys, command, text,
                                                 artifact, reason):
        out = tmp_path / "o"
        assert main([command, "--config", _write(tmp_path, text), "--out", str(out)]) == 1
        assert reason in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == sorted([artifact, "manifest.txt"])
        assert f"artifact: {artifact}" in (out / "manifest.txt").read_text().splitlines()


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
        assert lines[0] == "chi,amplitude,residual,seed_mode,newton_iterations,krylov_iterations"
        assert len(lines) == 4
        with open(out / "onset.csv", newline="") as fh:
            (onset,) = list(csv.DictReader(fh))
        assert list(onset) == ["chi_h", "inv_chi2", "approach_points",
                               "approach_newton_iterations", "approach_krylov_iterations"]
        assert float(onset["chi_h"]) == pytest.approx(4.0, rel=1e-6)
        assert float(onset["inv_chi2"]) == pytest.approx(0.5, rel=1e-3)
        # 4.2 is within the expansion's bound: no approach steps
        assert [onset[key] for key in list(onset)[2:]] == ["0", "0", "0"]
        assert "artifact: onset.csv" in (out / "manifest.txt").read_text()

    def test_far_branch_completes_without_newton_history(self, tmp_path, capsys):
        # chi from 4.2 to 60 in 60 points: steps of about 0.95 that a failed
        # or off-branch solve halves
        cfg = _write(
            tmp_path,
            BASE.replace("model.chi = 0.4", "model.chi = 4.2")
            + """
grid.nx = 64
steady.chi_start = 4.2
steady.chi_stop = 60
steady.steps = 60
""",
        )
        out = tmp_path / "o"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        assert "branch points: 60," in capsys.readouterr().out
        assert not (out / "newton_history.csv").exists()

    def test_stalled_branch_writes_newton_history(self, tmp_path, capsys):
        # the 2D 24^2 mode-2 branch folds near chi = 10.25, before the first
        # point at 12: no point is recorded, and the last failed Newton solve
        # is written out
        cfg = _write(
            tmp_path,
            BASE.replace("model.chi = 0.4", "model.chi = 4.2")
            .replace("model.dim = 1", "model.dim = 2")
            + """
grid.nx = 24
steady.mode = 2
steady.chi_start = 12
steady.chi_stop = 14
steady.steps = 3
""",
        )
        out = tmp_path / "o"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == EXIT_NOCONV
        assert "no convergence: continuation stalled at chi = 10.2" in capsys.readouterr().err
        assert (out / "branch.csv").read_text().splitlines()[1:] == []
        with open(out / "newton_history.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["iteration", "residual"]
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        residuals = [float(r[1]) for r in rows]
        assert len(residuals) >= 2 and residuals[-1] >= NEWTON_TOL
        assert all(b <= a for a, b in zip(residuals, residuals[1:]))
        assert "artifact: newton_history.csv" in (out / "manifest.txt").read_text()

    def test_branch_terminated_early_exits_zero(self, tmp_path, capsys):
        # the Allee branch, continued downwards in chi, folds near 3.3135
        # after four recorded points; validate_steady finds two of its rows
        # not applicable to this growth
        cfg = _write(
            tmp_path,
            BASE
            + """
kinetics.f_kind = allee
kinetics.allee_c = 0.3
grid.nx = 64
steady.chi_start = 3.39
steady.chi_stop = 3.27
steady.steps = 7
""",
        )
        out = tmp_path / "o"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "branch points: 4," in captured.out
        assert "branch terminated early: continuation stalled at chi = 3.313" in captured.err
        assert len((out / "branch.csv").read_text().splitlines()) == 5
        assert "artifact: newton_history.csv" in (out / "manifest.txt").read_text()
        with open(out / "validation.csv", newline="") as fh:
            notes = {row["name"]: row["note"] for row in csv.DictReader(fh)}
        assert notes["two_sided_exp_bound"].startswith("not applicable")
        assert notes["stationary_mass_identity"].startswith("not applicable")

    def test_complete_branch_writes_no_newton_history(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE.replace("model.chi = 0.4", "model.chi = 4.2") + "grid.nx = 32\nsteady.chi = 4.2\n",
        )
        out = tmp_path / "o"
        assert main(["steady", "--config", cfg, "--out", str(out)]) == 0
        assert not (out / "newton_history.csv").exists()


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
        assert [r["status"] for r in rows] == ["error: run.rows: must be >= 1 (got 0)", "ok"]

    def test_programming_error_is_not_a_point_failure(self, tmp_path, monkeypatch, workers):
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
        _assert_no_children()

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

    def test_programming_error_in_the_batch_escapes(self, tmp_path, monkeypatch, workers):
        def broken(*args):
            raise TypeError("bug in the kernel")

        monkeypatch.setattr(evolve, "growth", broken)
        cfg = _write(tmp_path, self.CONFIG)
        with pytest.raises(TypeError, match="bug in the kernel"):
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        _assert_no_children()


class TestSweepWorkers:
    """A sweep's points run in contiguous blocks, one per worker process; the
    artifacts and the output do not depend on the number of workers."""

    CLASSIFY = BASE + """
sweep.command = classify
sweep.parameter = model.chi
sweep.start = 0.3
sweep.stop = 0.6
sweep.count = 3
"""

    @staticmethod
    def _tree(folder):
        """Every file under folder, the manifests' timestamp lines dropped."""
        return {
            str(path.relative_to(folder)): [
                line for line in path.read_text(encoding="utf-8").splitlines(keepends=True)
                if not line.startswith("timestamp: ")
            ]
            for path in sorted(folder.rglob("*")) if path.is_file()
        }

    @pytest.mark.parametrize("text", [TestSimulateSweep.CONFIG, CLASSIFY],
                             ids=["simulate", "classify"])
    def test_outputs_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, capsys,
                                                       text):
        classify = cli._HANDLERS["classify"]

        def classify_and_tell_stderr(cfg, args, manifest):
            # classify itself writes nothing to stderr
            print(f"point at chi = {cfg.number('model.chi')!r}", file=sys.stderr)
            return classify(cfg, args, manifest)

        monkeypatch.setitem(cli._HANDLERS, "classify", classify_and_tell_stderr)
        cfg = _write(tmp_path, text)
        runs = []
        for count in (1, 2):
            monkeypatch.setattr(cli, "_workers", lambda n_points, count=count: min(count, n_points))
            out = tmp_path / f"workers_{count}"
            code = main(["sweep", "--config", cfg, "--out", str(out), "--seed", "5"])
            runs.append((code, capsys.readouterr(), self._tree(out)))
            _assert_no_children()
        assert runs[0] == runs[1]
        code, output, tree = runs[0]
        assert code == 0 and output.out.count("\n") > 3
        points = len(tree["sweep_summary.csv"]) - 1
        assert {name.split(os.sep)[0] for name in tree} == {
            "manifest.txt", "sweep_summary.csv", *(f"point_{i:04d}" for i in range(points))}
        if "simulate" in text:
            assert any(",error: " in row for row in tree["sweep_summary.csv"])
        else:
            assert output.err.count("point at chi = ") == points

    def test_worker_that_exits_without_results_is_an_error(self, tmp_path, monkeypatch):
        parent = os.getpid()
        classify = cli._HANDLERS["classify"]

        def exits_in_a_worker(cfg, args, manifest):
            if os.getpid() != parent and cfg.number("model.chi") > 0.5:
                os._exit(7)
            return classify(cfg, args, manifest)

        monkeypatch.setitem(cli._HANDLERS, "classify", exits_in_a_worker)
        monkeypatch.setattr(cli, "_workers", lambda n_points: min(2, n_points))
        cfg = _write(tmp_path, self.CLASSIFY)
        with pytest.raises(RuntimeError, match="exited with status 7"):
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        _assert_no_children()

    def test_piped_status_lines_appear_once_in_point_order(self, tmp_path, monkeypatch, capsys):
        # the CLI picks its own worker count here: one per CPU it may run on
        cfg = _write(tmp_path, TestSimulateSweep.CONFIG)
        monkeypatch.setattr(cli, "_workers", lambda n_points: 1)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "inline")]) == 0
        expected = capsys.readouterr().out
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        piped = subprocess.run(
            [sys.executable, "-m", "chemolab.cli", "sweep", "--config", cfg,
             "--out", str(tmp_path / "piped")],
            env=env, capture_output=True, text=True, check=True,
        )
        assert expected.count("status: ") == 4
        assert piped.stdout == expected


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


def test_cold_commands_load_no_scipy(tmp_path):
    # the transforms load scipy's compiled DCT kernel from its file, the ODEs
    # are integrated by chemolab's own Dormand-Prince pair and the assembled
    # reference matrices live with the tests, so no command imports any
    # scipy module
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    configs = {"simulate": CONTRACT_RUNS["simulate"], "steady": CONTRACT_RUNS["steady"],
               "stability": TestStabilityCommand.SCAN_2D, "classify": CONTRACT_RUNS["classify"],
               "sweep": CONTRACT_RUNS["sweep"],  # two points of simulate
               "compare-ode": CONTRACT_RUNS["compare-ode"]}  # with compare.envelopes = true
    runs = [
        [command, "--config", _write(tmp_path, text, f"{command}.cfg"),
         "--out", str(tmp_path / command)]
        for command, text in configs.items()
    ]
    code = (
        "import sys; from chemolab.cli import main; "
        f"codes = [main(argv) for argv in {runs!r}]; "
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"
