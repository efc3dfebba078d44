import hashlib
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import pggsim.cli
import pggsim.dynamics
from pggsim.cli import main
from pggsim.config import RunConfig
from pggsim.dynamics import Trajectory, integrate
from pggsim.errors import IntegrationError
from pggsim.network import GraphParams, generate_er
from pggsim.plotting import plot_simplex


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def svg_points_within_viewbox(path):
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    x0, y0, w, h = (float(v) for v in root.attrib["viewBox"].split())
    ns = "{http://www.w3.org/2000/svg}"
    points = []
    for poly in root.iter(f"{ns}polyline"):
        points += [tuple(map(float, p.split(","))) for p in poly.attrib["points"].split()]
    for poly in root.iter(f"{ns}polygon"):
        points += [tuple(map(float, p.split(","))) for p in poly.attrib["points"].split()]
    for circle in root.iter(f"{ns}circle"):
        points.append((float(circle.attrib["cx"]), float(circle.attrib["cy"])))
    for text in root.iter(f"{ns}text"):
        points.append((float(text.attrib["x"]), float(text.attrib["y"])))
    assert points
    return all(x0 <= x <= x0 + w and y0 <= y <= y0 + h for x, y in points)


class TestOdeCommand:
    def test_row_count_and_roundtrip(self, tmp_path):
        out = tmp_path / "ode.csv"
        assert main(["ode", "--out", str(out), "--set", "steps=200"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y,z"
        assert len(lines) == 202
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.abs(values[:, 1:].sum(axis=1) - 1.0).max() <= 1e-9
        # 12 significant digits round-trip to the stored state within 1 ulp-ish
        assert values[1, 0] == pytest.approx(0.01, rel=1e-11)

    def test_plot_flag_writes_svg(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["ode", "--out", str(out), "--set", "steps=500", "--plot"]) == 0
        svg = out.with_suffix(".svg")
        assert svg.exists()
        assert svg_points_within_viewbox(svg)


class TestAbmCommand:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["abm", "--seed", "3", "--set", "t=300", "--set", "M=50"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert sha256(a) == sha256(b)

    def test_seeds_past_2_53_differ(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for seed, out in ((2**53, a), (2**53 + 1, b)):
            assert main(["abm", "--seed", str(seed), "--set", "t=300", "--out", str(out)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_distinct_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["abm", "--seed", "3", "--set", "t=300", "--out", str(a)]) == 0
        assert main(["abm", "--seed", "4", "--set", "t=300", "--out", str(b)]) == 0
        assert sha256(a) != sha256(b)

    def test_half_fractions_fit_the_roster(self, tmp_path):
        out = tmp_path / "abm.csv"
        argv = ["abm", "--set", "M=7", "--set", "x0=0.5", "--set", "y0=0.5", "--set", "z0=0",
                "--set", "t=3", "--out", str(out)]
        assert main(argv) == 0
        # round() takes 3.5 up to 4 for both n_c and n_d; n_d gets what is left
        first = out.read_text().splitlines()[1].split(",")[1:4]
        assert [round(float(v) * 7) for v in first] == [4, 3, 0]

    def test_header_and_rows(self, tmp_path):
        out = tmp_path / "abm.csv"
        assert main(["abm", "--out", str(out), "--set", "t=50"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "gen,frac_c,frac_d,frac_l,mean_payoff"
        assert len(lines) == 52
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.9


class TestGraphCommand:
    def test_edge_list_format(self, tmp_path):
        out = tmp_path / "graph.txt"
        assert main(["graph", "--seed", "5", "--set", "n=20", "--set", "p=0.3",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        n, m = (int(v) for v in lines[0].split())
        assert n == 20
        assert len(lines) == m + 1
        pairs = [tuple(int(v) for v in line.split()) for line in lines[1:]]
        assert pairs == sorted(pairs)
        assert pairs == list(generate_er(GraphParams(n=20, p=0.3, seed=5)).edges)


class TestSweepCommand:
    def test_grid_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--out", str(out), "--set", "steps=200",
            "--grid", "r=2.0,3.0", "--grid", "g=0.5,3.0",
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        header = lines[0].split(",")
        assert header[:2] == ["M", "N"]
        assert "mean_x" in header and "fixated" in header

    def test_requires_grid(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path / "s.csv")]) == 2
        assert "grid" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--set", "steps=150", "--grid", "u=1e-10,1e-3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert sha256(a) == sha256(b)

    def test_grid_wins_over_set(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--out", str(out), "--set", "steps=50", "--set", "r=2",
                     "--grid", "r=2.5,3.5"]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert [float(row[header.index("r")]) for row in rows] == [2.5, 3.5]

    # every point is valid once its grid values apply, though the base config is not:
    # r=9 breaks 1 < r < N, and so does the default r=3 at N=3
    @pytest.mark.parametrize("sets, grid", [
        (["steps=50", "r=9"], "r=2.5,3.5"),
        (["N=3"], "r=2.0,2.5"),
    ], ids=["set-overridden", "default-overridden"])
    def test_only_grid_points_are_validated(self, tmp_path, sets, grid):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--out", str(out), "--grid", grid]
        assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2

    def test_lockstep_groups_keep_grid_order(self, tmp_path, monkeypatch):
        # 64 points in two (dt, steps) groups of 32; dt is the second key, so the
        # groups' members interleave in grid order
        argv = ["sweep", "--set", "steps=100", "--grid", "r=1.5,2,2.5,3,3.5,4,4.5,4.75",
                "--grid", "dt=0.01,0.02", "--grid", "g=0,0.5,1,3"]
        lockstep = []
        real = pggsim.dynamics._integrate_lockstep
        monkeypatch.setattr(pggsim.dynamics, "_integrate_lockstep",
                            lambda runs, *a: lockstep.append(len(runs)) or real(runs, *a))
        grouped, scalar = tmp_path / "grouped.csv", tmp_path / "scalar.csv"
        assert main(argv + ["--out", str(grouped)]) == 0
        assert lockstep == [32, 32]
        monkeypatch.setattr(pggsim.dynamics, "_LOCKSTEP_MIN_RUNS", 65)
        assert main(argv + ["--out", str(scalar)]) == 0
        assert lockstep == [32, 32]
        assert len(grouped.read_text().splitlines()) == 1 + 64
        assert grouped.read_bytes() == scalar.read_bytes()


class TestGoldenOutputs:
    """Output digests recorded before the ABM loop became table-driven.

    The two abm digests were recorded again when run_abm began to sample
    whole stretches of events from per-state laws, once more when it began
    to draw the stretches' kept outcomes in batches after the state path,
    and a third time when it began to read its uniforms from one endless
    stream, so that no chunk's end is thrown away; each changed its random
    stream on purpose, with the same law. The abm-large-group digest was
    recorded again when the per-game table of binomial coefficients grew to
    C(x, j) for j <= N: its bytes count against the law budget, which fell
    from 379 to 378 at N = 20, M = 100, so one state more runs event by
    event; with the old table size the file is the same. It was recorded once
    more when the law path's per-move and per-cell tables began to count
    against the budget too, which fell to 368 there, with the same reason
    and the same check. A rerun-equality check
    cannot see a change in the random stream or the number formatting; these
    can. A change that alters a stream on purpose updates the digest and
    says so.
    """

    @pytest.mark.parametrize("argv, digest", [
        (["abm", "--seed", "3", "--set", "t=300", "--set", "M=50"],
         "ab5888ec97b9ce055504d278c917184190f8574cdc582463a4c37395c7ed5d39"),
        (["abm", "--seed", "5", "--set", "M=20", "--set", "N=4", "--set", "r=2",
          "--set", "g=0", "--set", "beta=5", "--set", "pe=0.2", "--set", "pr=0.5",
          "--set", "t=2000"],
         "620f023ed28f66aff30a988cbd10b2581f06b610b5e65b8bccd4cf71de30471b"),
        (["ode", "--set", "steps=300"],
         "89d7a7995c7f1276bd6a8a8f67689bc3f746837ec6e9edf744a1ecad94ae84fc"),
        (["sweep", "--set", "steps=100", "--grid", "g=0.5,3.0"],
         "79f07dcb3118cf23488adb54aef727df9f4a23b947fb46280dd25a35a75e6d29"),
        (["graph", "--seed", "11", "--set", "n=40", "--set", "p=0.2"],
         "db4cb6f8e00899d4da26cbb40e1ce61e4d3c600a9e5d0d206ae58332f43329a5"),
        # 48 points in one (dt, steps) group, recorded when every point still
        # ran through the scalar integrate
        (["sweep", "--set", "steps=200", "--set", "r=1.5", "--set", "density=0.5",
          "--grid", "N=2,3,5,7", "--grid", "mode=replicator,mutator,network",
          "--grid", "g=0.5,3", "--grid", "u=1e-10,1e-3"],
         "e8207f21030f525da52c3191350f9b1134b7e9d0cc360bff2553eda61ebfca95"),
        # N = 20: a budget of 368 laws, all of which a run uses, so both
        # sampling paths run
        (["abm", "--seed", "2", "--set", "N=20", "--set", "r=10", "--set", "t=1000"],
         "8ee284d2d9161caa95247a09eab463231353335b2c17c3a7de3d5d73c721cec2"),
    ], ids=["abm", "abm-explore", "ode", "sweep", "graph", "sweep-lockstep", "abm-large-group"])
    def test_digest(self, tmp_path, argv, digest):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        assert sha256(out) == digest


class TestEquilibriumCommand:
    def test_worked_example_output(self, capsys):
        assert main(["equilibrium", "--a", "2", "--b", "1", "--c", "0"]) == 0
        output = capsys.readouterr().out
        assert "0.333333333333" in output
        assert "0.666666666667" in output
        assert output.count("0.666666666667") >= 3  # both payoffs + two weights

    def test_second_weights_are_exact(self, capsys):
        # the complement 1 - p of p = 1e13 / (1e13 + 1) is 1.00031094519e-13
        assert main(["equilibrium", "--a", "1", "--b", "1e13", "--c", "0"]) == 0
        assert capsys.readouterr().out.startswith(
            "mixed weights: row=(1, 1e-13) column=(1e-13, 1)\n")

    def test_invalid_family_is_config_error(self, capsys):
        assert main(["equilibrium", "--a", "1", "--b", "1", "--c", "1"]) == 2
        assert "b - c" in capsys.readouterr().err


class TestErrorPaths:
    def test_invalid_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("u = 7\n")
        assert main(["ode", "--config", str(cfg)]) == 2
        assert "u must" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key, raw", [
        (["ode", "--set", "g=nan", "--set", "steps=5"], "g", "nan"),
        (["ode", "--set", "c=inf", "--set", "steps=5"], "c", "inf"),
        (["ode", "--set", "dt=nan", "--set", "steps=5"], "dt", "nan"),
        (["abm", "--set", "beta=nan", "--set", "t=3"], "beta", "nan"),
        (["sweep", "--set", "steps=5", "--grid", "dt=0.01,inf"], "dt", "inf"),
    ], ids=["g-nan", "c-inf", "dt-nan", "beta-nan", "sweep-dt-inf"])
    def test_non_finite_value(self, tmp_path, capsys, argv, key, raw):
        out = tmp_path / "run.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert f"error: invalid value for {key}: '{raw}'" in capsys.readouterr().err
        assert not out.exists()

    # a member payoff that is NaN (inf * 0), a round payoff that is -inf, and a
    # generation's payoff sum past the largest float
    @pytest.mark.parametrize("sets, names", [
        (["c=1e308", "t=20"], "c=1e+308, r=3.0 and g=0.5"),
        (["beta=1e308", "g=1e308", "t=5"], "c=1.0, r=3.0 and g=1e+308"),
        (["c=1e306", "r=4", "g=0", "t=3"], "c=1e+306, r=4.0 and g=0.0"),
    ], ids=["member-nan", "round-inf", "generation-inf"])
    def test_overflowing_abm_payoffs(self, tmp_path, capsys, sets, names):
        out = tmp_path / "run.csv"
        argv = ["abm", "--out", str(out)] + [arg for s in sets for arg in ("--set", s)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {names} overflow: round payoffs summed over a generation "
            "of M=100 events must be finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag, value", [
        (["--a", "inf", "--b", "1", "--c", "0"], "--a", "inf"),
        (["--a", "nan"], "--a", "nan"),
        (["--b=-inf"], "--b", "-inf"),
        (["--c", "nan"], "--c", "nan"),
    ], ids=["a-inf", "a-nan", "b-neg-inf", "c-nan"])
    def test_non_finite_equilibrium_flag(self, capsys, argv, flag, value):
        assert main(["equilibrium"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid value for {flag}: {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, values", [
        (["--a", "1e308", "--b", "1e308", "--c", "0"], "--a 1e+308, --b 1e+308 and --c 0.0"),
        (["--a", "1e308", "--b", "1e300", "--c=-1e308"], "--a 1e+308, --b 1e+300 and --c -1e+308"),
    ], ids=["sum", "difference"])
    def test_overflowing_equilibrium_flags(self, capsys, argv, values):
        assert main(["equilibrium"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {values} overflow: "
                                "a + b - 2c, a - c and b - c must be finite\n")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["ode", "--set", "dt=5", "--set", "steps=50"],
        ["sweep", "--set", "steps=50", "--grid", "dt=0.01,5"],
    ], ids=["ode", "sweep"])
    def test_integration_error(self, tmp_path, capsys, argv):
        out = tmp_path / "run.csv"
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "error: state left the simplex at step 3" in err
        assert ("at sweep point dt=5" in err) == (argv[0] == "sweep")
        assert not out.exists()

    # at dt=1e6 a product in an RK4 stage overflows to inf and inf - inf gives
    # NaN, while at dt=100 libm pow overflows inside a stage
    @pytest.mark.parametrize("command, dt, message", [
        ("ode", "1e6", "(nan, nan, nan)"),
        ("ode", "100", "a stage overflowed"),
        ("sweep", "1e6", "(nan, nan, nan)"),
        ("sweep", "100", "a stage overflowed"),
    ], ids=["ode-nan", "ode-overflow", "sweep-nan", "sweep-overflow"])
    def test_nan_or_overflow_is_an_integration_error(self, tmp_path, capsys, command, dt,
                                                     message):
        out = tmp_path / "run.csv"
        argv = [command, "--set", "steps=50", "--set", "N=7", "--set", "r=1.5",
                "--set", "x0=0.3", "--set", "y0=0.3", "--set", "z0=0.4", "--out", str(out)]
        where = ""
        if command == "ode":
            argv += ["--set", f"dt={dt}"]
        else:
            argv += ["--grid", f"dt=0.01,{dt}"]
            where = f" at sweep point dt={dt}"
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"error: state left the simplex at step 1: {message}{where}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--grid", "r=2,2.5", "--grid", "r=3"], "duplicate key 'r'"),
        (["sweep", "--grid", "s=1", "--grid", "beta=2"], "duplicate key 'beta'"),
        (["sweep", "--grid", "r="], "invalid value for r: ''"),
        (["sweep", "--grid", "mode="], "mode must be one of"),
        (["ode", "--set", "r=2", "--set", "r=2.5"], "duplicate key 'r'"),
        (["abm", "--seed", "3", "--set", "seed=4"], "duplicate key 'seed'"),
    ], ids=["grid-repeat", "grid-alias-repeat", "grid-empty", "grid-empty-str",
            "set-repeat", "seed-and-set-seed"])
    def test_ambiguous_or_empty_keys(self, tmp_path, capsys, argv, message):
        out = tmp_path / "run.csv"
        assert main(argv + ["--set", "steps=20", "--set", "t=5", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    # no ODE run reads these keys, whether or not the header has a column for
    # them; the alias `s` is reported as the field it names
    @pytest.mark.parametrize("key", ["t", "n", "p", "out", "plot", "seed",
                                     "M", "beta", "s", "pr", "pe"])
    def test_grid_key_that_is_not_a_column(self, tmp_path, capsys, key):
        out = tmp_path / "sweep.csv"
        values = {"t": "10,20", "n": "10,20", "p": "0.1,0.2", "out": "a,b", "plot": "0,1",
                  "seed": "1,2", "M": "50,100", "beta": "1,2", "s": "1,2", "pr": "0.5,1",
                  "pe": "0.001,0.1"}
        argv = ["sweep", "--set", "steps=20", "--grid", f"{key}={values[key]}"]
        assert main(argv + ["--out", str(out)]) == 2
        field = "beta" if key == "s" else key
        assert (f"--grid key '{field}' is read by no sweep point; sweepable keys: "
                "N, c, r, g, u, mode, density, dt, steps, x0, y0, z0") in capsys.readouterr().err
        assert not out.exists()

    # the README test patches cmd_sweep out, so these checks must come before it
    @pytest.mark.parametrize("argv, message", [
        (["--grid", "t=2,3"], "--grid key 't' is read by no sweep point"),
        ([], "sweep requires at least one --grid key=v1,v2,..."),
    ], ids=["unsweepable-key", "no-grid"])
    def test_grid_is_checked_before_cmd_sweep(self, capsys, monkeypatch, argv, message):
        calls = []
        monkeypatch.setattr(pggsim.cli, "cmd_sweep", lambda *a: calls.append(a) or 0)
        assert main(["sweep", *argv]) == 2
        assert message in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("grid, message", [
        ("g=0.5,1,abc", "invalid value for g: 'abc'"),
        ("r=2,3,9", "r must satisfy 1 < r < N"),
        ("r=" + ",".join(f"{1.1 + 0.1 * i:.1f}" for i in range(32)) + ",9",
         "r must satisfy 1 < r < N"),
    ], ids=["bad-value", "broken-invariant", "broken-invariant-lockstep"])
    def test_sweep_validates_every_point_first(self, tmp_path, capsys, monkeypatch,
                                               grid, message):
        calls = []
        for name in ("integrate", "_integrate_lockstep"):
            real = getattr(pggsim.dynamics, name)
            monkeypatch.setattr(pggsim.dynamics, name,
                                lambda *a, real=real: calls.append(a) or real(*a))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--set", "steps=20", "--grid", grid, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("argv, where, fields, scalar_calls", [
        # 32 points at dt=2: r=1.5, g=3 leaves the simplex at step 2 with u=1e-10,
        # and at step 1 with u=1e-2, the next point in grid order
        (["--set", "dt=2", "--set", "steps=30", "--grid", "r=1.5,2.5,3.5,4.5",
          "--grid", "g=0,0.5,1,3", "--grid", "u=1e-10,1e-2"],
         "r=1.5, g=3, u=1e-10", dict(dt=2.0, steps=30, r=1.5, g=3.0, u=1e-10), 0),
        # 32 points at dt=20: the first leaves the simplex at step 1, while libm
        # pow overflows in a later one, which fails only that point
        (["--set", "dt=20", "--set", "steps=20", "--set", "x0=0.3", "--set", "y0=0.3",
          "--set", "z0=0.4", "--set", "r=2.5", "--grid", "N=3,7", "--grid", "g=0,0.5,1,3",
          "--grid", "u=1e-10,1e-2", "--grid", "c=1,2"],
         "N=3, g=0, u=1e-10, c=1",
         dict(dt=20.0, steps=20, x0=0.3, y0=0.3, z0=0.4, r=2.5, N=3, g=0.0, u=1e-10), 0),
        # 32 points at dt=0.01: r*c is inf at c=1e308, so the second point in
        # grid order is NaN at step 1 and no other point fails
        (["--set", "steps=20", "--grid", "g=0,0.5,1,3", "--grid", "u=1e-10,1e-6,1e-3,1e-2",
          "--grid", "c=1,1e308"],
         "g=0, u=1e-10, c=1e308", dict(steps=20, g=0.0, u=1e-10, c=1e308), 0),
    ], ids=["lockstep", "pow-overflow", "nan"])
    def test_lockstep_group_error_is_the_scalar_one(self, tmp_path, capsys, monkeypatch,
                                                    argv, where, fields, scalar_calls):
        calls = {"integrate": 0, "_integrate_lockstep": 0}
        for name in calls:
            def counted(*a, name=name, real=getattr(pggsim.dynamics, name)):
                calls[name] += 1
                return real(*a)
            monkeypatch.setattr(pggsim.dynamics, name, counted)
        point = RunConfig(**fields)
        with pytest.raises(IntegrationError) as scalar:
            integrate(point.initial_state(), point.pgg_params(), point.dynamics_mode(),
                      point.dt, point.steps)
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", *argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {scalar.value} at sweep point {where}\n"
        assert caught == []
        assert calls == {"integrate": scalar_calls, "_integrate_lockstep": 1}
        assert not out.exists()

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "file.csv"
        target.write_text("x")
        # using the existing file as a directory component fails with OSError
        assert main(["ode", "--set", "steps=10", "--out", str(target / "y.csv")]) == 1
        # so does opening an existing directory as the output file, in every command
        out = tmp_path / "run.csv"
        out.mkdir()
        for argv in (["ode", "--set", "steps=10"], ["abm", "--set", "t=5"],
                     ["sweep", "--set", "steps=10", "--grid", "r=2.5"], ["graph"]):
            assert main(argv + ["--out", str(out)]) == 1
            assert "Is a directory" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [target, out]
        assert list(out.iterdir()) == [] and target.read_text() == "x"

    # no 64-bit host can map these arrays, so numpy refuses them without allocating
    @pytest.mark.parametrize("argv", [
        ["ode", "--set", "steps=1e15"],
        ["abm", "--set", "t=1e15"],
    ], ids=["ode", "abm"])
    def test_impossible_allocation_is_reported(self, tmp_path, capsys, argv):
        out = tmp_path / "run.csv"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ode", "abm"])
    def test_unwritable_plot_leaves_no_csv(self, tmp_path, capsys, command):
        out = tmp_path / "run.csv"
        (tmp_path / "run.svg").mkdir()
        argv = [command, "--set", "steps=100", "--set", "t=5", "--plot", "--out", str(out)]
        assert main(argv) == 1
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.svg"]
        assert (tmp_path / "run.svg").is_dir()

    @pytest.mark.parametrize("command", ["ode", "abm"])
    def test_plot_beside_svg_out_is_a_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "run.svg"
        argv = [command, "--set", "steps=5", "--set", "t=5", "--plot", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: out {str(out)!r} is where plot writes the SVG; give out another suffix\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["ode", "abm"])
    def test_plot_beside_svg_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                      command):
        def never(*args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(pggsim.cli, "integrate", never)
        monkeypatch.setattr(pggsim.cli, "run_abm", never)
        assert main([command, "--plot", "--out", str(tmp_path / "run.svg")]) == 2
        assert "is where plot writes the SVG" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_ignores_plot(self, tmp_path):
        out = tmp_path / "run.svg"
        assert main(["sweep", "--set", "steps=5", "--grid", "r=2.5", "--plot",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("M,N,")
        assert list(tmp_path.iterdir()) == [out]

    def test_failing_row_stream_leaves_no_file(self, tmp_path):
        def rows():
            yield 0.0, 1.0
            yield 1.0, 2.0
            raise RuntimeError("row failed")

        traj = Trajectory(times=np.zeros(1), frequencies=np.array([[1.0, 0.0, 0.0]]))
        for plot in (None, traj):
            with pytest.raises(RuntimeError, match="row failed"):
                pggsim.cli._write_outputs(tmp_path / "run.csv",
                                          pggsim.cli._csv_lines(("a", "b"), rows()), plot)
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["abm", "--set", "t=-1"], "t (generations) must be nonnegative, got -1"),
        (["ode", "--set", "dt=0"], "dt must be positive, got 0.0"),
        (["ode", "--set", "steps=0"], "steps must be at least 1, got 0"),
        (["ode", "--set", "plot=maybe"], "invalid value for plot: 'maybe'"),
    ], ids=["t-negative", "dt-zero", "steps-zero", "plot-maybe"])
    def test_out_of_range_value(self, tmp_path, capsys, argv, message):
        out = tmp_path / "run.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["ode", "abm", "graph", "sweep"])
    def test_empty_out_is_a_config_error(self, tmp_path, capsys, monkeypatch, command):
        # the directory where a run would write its default file (ode.csv, abm.csv, ...)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("out =\n")
        argv = [command, "--set", "steps=5", "--set", "t=5"]
        argv += ["--grid", "r=2.5"] if command == "sweep" else []
        for spelling in (["--out", ""], ["--out", " "], ["--set", "out="], ["--config", "run.cfg"]):
            assert main(argv + spelling) == 2
            assert capsys.readouterr().err == "error: out must name a file, got ''\n"
        assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command", ["ode", "abm", "graph"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "run.csv"
        argv = [command, "--seed", "-1", "--set", "steps=10", "--set", "t=5", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
        assert not out.exists()


class TestPlotting:
    def test_single_point_marks_vertex(self, tmp_path):
        traj = Trajectory(times=np.zeros(1), frequencies=np.array([[1.0, 0.0, 0.0]]))
        svg = tmp_path / "point.svg"
        plot_simplex(traj, svg)
        root = ET.parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        markers = [c for c in root.iter(f"{ns}circle") if c.attrib["r"] == "3"]
        assert len(markers) == 1
        assert float(markers[0].attrib["cx"]) == pytest.approx(210.0, abs=0.01)
        assert float(markers[0].attrib["cy"]) == pytest.approx(45.551, abs=0.01)
        assert svg_points_within_viewbox(svg)

    def test_centroid_lands_midway(self, tmp_path):
        traj = Trajectory(
            times=np.zeros(1), frequencies=np.array([[1 / 3, 1 / 3, 1 / 3]])
        )
        svg = tmp_path / "centroid.svg"
        plot_simplex(traj, svg)
        root = ET.parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        small = [c for c in root.iter(f"{ns}circle") if c.attrib["r"] == "3"]
        assert len(small) == 1
        cx, cy = float(small[0].attrib["cx"]), float(small[0].attrib["cy"])
        assert cx == pytest.approx((210.0 + 40.0 + 380.0) / 3, abs=0.01)
        assert cy == pytest.approx((45.551 + 340.0 + 340.0) / 3, abs=0.01)

    def test_long_trajectory_is_decimated_but_valid(self, tmp_path, cycle_run):
        svg = tmp_path / "cycle.svg"
        plot_simplex(cycle_run, svg)
        assert svg_points_within_viewbox(svg)
        assert svg.stat().st_size < 400_000

    def test_empty_trajectory_rejected(self, tmp_path):
        empty = Trajectory(times=np.empty(0), frequencies=np.empty((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            plot_simplex(empty, tmp_path / "no.svg")


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        # the child imports the package under test, also when only pytest's
        # `pythonpath` setting put it on the parent's path
        src = str(Path(pggsim.cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-m", "pggsim", "equilibrium"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert "mixed weights" in result.stdout
