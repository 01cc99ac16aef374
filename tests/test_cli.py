"""End-to-end checks of the command-line interface.

Everything goes through cli.main so the exit statuses and the stdout/stderr
split are exercised exactly as a shell would see them.
"""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from branchwaves import acceptance, analysis, cli, errors, pde, spectral, wave
from branchwaves.model import reaction


@pytest.fixture
def no_solvers(monkeypatch):
    """Make every solver the CLI runs fail the test: a check must stop the run first."""
    def called(*args, **kwargs):
        raise AssertionError("a solver ran before the arguments were checked")

    for owner, name in [(cli.wave_mod, "shoot_wave"), (pde, "simulate"), (pde.Grid, "xs"),
                        (spectral, "winding_number"), (spectral, "evans_winding")]:
        monkeypatch.setattr(owner, name, called)


def test_start_loads_no_scipy():
    # scipy is the tests' oracle, never the program's: no CLI start pays for its import
    probe = ("import sys, branchwaves.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_error_class_has_an_exit_status():
    # whatever a subcommand raises from the library ends in a status, not a traceback
    table = tuple(cls for classes, _, _ in cli._EXIT_TABLE for cls in classes)
    for name in errors.__all__:
        assert issubclass(getattr(errors, name), table), name


def test_every_error_class_has_one_kind():
    # the exit table maps kinds, one row per status, so no class may have two
    kinds = (errors.RegimeError, errors.ResolutionError, errors.BlowUpError)
    for name in set(errors.__all__) - {"RegimeError", "ResolutionError"}:
        assert sum(issubclass(getattr(errors, name), kind) for kind in kinds) == 1, name
    codes = [code for _, code, _ in cli._EXIT_TABLE]
    assert len(set(codes)) == len(codes)


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestWave:
    def test_critical_wave_passes(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code, payload, _ = run_json(capsys, "wave", "--out", out)
        assert code == 0
        assert payload["passed"] is True
        assert payload["limits"]["i_minus_inf"] == 2.0
        assert abs(payload["limits"]["i_plus_inf"]) < 1e-3
        assert set(payload) == {"limits", "residuals", "rates", "profile", "checks", "passed",
                                "diagnostics"}
        assert set(payload["limits"]) == {"i_minus_inf", "i_plus_inf", "sum_residual"}
        assert set(payload["residuals"]) == {"mass1", "mass2", "mass3", "total_mass"}
        assert set(payload["rates"]) == {"mu_minus", "mu_minus_rel_err", "mu_plus",
                                         "mu_plus_rel_err", "tail_prefactor_exp"}
        assert set(payload["profile"]) == {"a_max", "i_at_max", "z_first_max", "samples", "csv"}
        assert set(payload["checks"]) == {"i_monotone", "single_max"}
        assert set(payload["diagnostics"]) == {"accepted_steps", "rejected_steps",
                                               "rhs_evaluations", "refined_events",
                                               "dense_samples"}

        lines = out.read_text().splitlines()
        assert lines[0] == "z,a,b,i"
        for line in lines[1:6]:
            for field in line.split(","):
                assert format(float(field), ".17g") == field

        # the reported maximum is located between samples, so the sampled
        # column tops out a hair below it
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert data["a"].max() == pytest.approx(payload["profile"]["a_max"], rel=1e-4)
        assert data["a"].max() <= payload["profile"]["a_max"]

    @pytest.mark.parametrize("argv", [("--c", 2, "--i-minus", 1.995), ("--c", 2.005)],
                             ids=["just-below-critical-level", "just-above-critical-speed"])
    def test_near_critical_wave_passes(self, tmp_path, capsys, argv):
        code, payload, _ = run_json(capsys, "wave", *argv, "--out", tmp_path / "w.csv")
        assert code == 0
        assert payload["passed"] is True
        assert payload["rates"]["tail_prefactor_exp"] == pytest.approx(1.0, abs=0.15)

    def test_reports_shooting_diagnostics(self, tmp_path, capsys):
        code, payload, _ = run_json(capsys, "wave", "--c", 3, "--r", 1, "--i-minus", 1.5,
                                    "--out", tmp_path / "w.csv")
        assert code == 0
        diag = payload["diagnostics"]
        assert set(diag) == {"accepted_steps", "rejected_steps", "rhs_evaluations",
                             "refined_events", "dense_samples"}
        # the stop event truncates the last accepted step inside it; the
        # samples inside longer steps come on top
        assert payload["profile"]["samples"] - 1 == (
            diag["accepted_steps"] + diag["dense_samples"])
        assert diag["rhs_evaluations"] == 2 + 6 * (
            diag["accepted_steps"] + diag["rejected_steps"])
        assert diag["refined_events"] >= 2  # the maximum and the stop

    def test_invalid_regime_exits_2(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code, _, err = run(capsys, "wave", "--c", 1, "--i-minus", 1.5, "--out", out)
        assert code == 2
        assert "invalid regime" in err
        assert "1.25" in err
        assert not out.exists()

    def test_just_past_existence_boundary_exits_2(self, tmp_path, capsys):
        # 1.26 > 2 - i_c = 1.25: the shot settles below i_c = 0.75
        # before a dips deep enough to trip the negativity event
        out = tmp_path / "w.csv"
        code, _, err = run(capsys, "wave", "--c", 1, "--i-minus", 1.26, "--out", out)
        assert code == 2
        assert "invalid regime" in err
        assert "i_plus = 0.74" in err
        assert "i_minus <= 2 - i_c = 1.25" in err
        assert not out.exists()

    def test_nonpositive_speed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code, _, err = run(capsys, "wave", "--c", 0, "--out", out)
        assert code == 2
        assert "invalid regime" in err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["wave", "evans"])
    def test_overflowing_speed_exits_2(self, tmp_path, capsys, deadline, cmd):
        # at c = 1e155, c^2/4 overflows and the seed's b is infinite: the shot is refused
        # at its start, where it used to reject steps forever
        code, out, err = run(capsys, cmd, "--c", "1e155", "--out", tmp_path / "x.csv")
        assert (code, out) == (2, "")
        assert "y0 must be finite" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value", [("--i-minus", "nan"), ("--c", "inf"), ("--r", "inf")])
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "w.csv"
        code, _, err = run(capsys, "wave", flag, value, "--out", out)
        assert code == 2
        assert "invalid regime" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, i_minus, seed", [
        ("wave", "1.000000001", "-98.99999"), ("evans", "1.000000001", "-98.99999"),
        ("wave", "1.00001", "0.9900099"),
    ])
    def test_seed_below_one_exits_4(self, tmp_path, capsys, monkeypatch, command, i_minus, seed):
        # the seed's i-component grows like 1/(i_minus - 1): a rear level this close to 1
        # seeds below i = 1, a resolution failure found before any integration
        def integrate(*args):
            raise AssertionError("integrated from a seed below i = 1")

        monkeypatch.setattr(cli.wave_mod, "integrate", integrate)
        out = tmp_path / "w.csv"
        code, _, err = run(capsys, command, "--i-minus", i_minus, "--out", out)
        assert code == 4
        assert f"resolution failure: seed at i = {seed} <= 1: the rear level {i_minus} " in err
        assert not out.exists()


class TestPde:
    def test_front_run(self, tmp_path, capsys):
        prefix = tmp_path / "sm"
        code, payload, _ = run_json(
            capsys, "pde", "--grid", "501:-20:60", "--t-end", 10, "--out", prefix
        )
        assert code == 0
        assert set(payload) == {"c_est", "window", "residual", "plateau", "front_position",
                                "snapshots", "diagnostics"}
        assert payload["window"] == [5.0, 10.0]
        assert 1.5 < payload["c_est"] < 2.1
        assert len(payload["snapshots"]) == 3
        for name in payload["snapshots"]:
            lines = open(name).read().splitlines()
            assert lines[0] == "x,A,I"
            assert len(lines) == 502

    def test_readme_names_exactly_the_diagnostics(self, tmp_path, capsys):
        # the README sentence that lists the `pde` JSON diagnostics names every key
        # in backticks and no other, so a key cannot come, go or change its meaning
        # without the README being opened
        code, payload, _ = run_json(
            capsys, "pde", "--grid", "201:-30:120", "--t-end", 1, "--out", tmp_path / "p"
        )
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme[readme.index("\n- `pde`"):]
        sentence = re.search(r"The JSON `diagnostics` object gives (.*?)\.\s", paragraph, re.S)[1]
        assert code == 0
        assert set(re.findall(r"`(\w+)`", sentence)) == set(payload["diagnostics"])

    def test_initial_data_round_trips(self, tmp_path, capsys):
        first = tmp_path / "a"
        code, payload, _ = run_json(
            capsys, "pde", "--grid", "501:-20:60", "--t-end", 4, "--out", first
        )
        assert code == 0
        handoff = payload["snapshots"][-1]

        second = tmp_path / "b"
        code, payload2, _ = run_json(
            capsys, "pde", "--initial", handoff, "--t-end", 4, "--out", second
        )
        assert code == 0
        # the t = 0 snapshot of the restart must reproduce the handoff file
        # bit for bit: 17 significant digits round-trip doubles exactly
        assert open(payload2["snapshots"][0]).read() == open(handoff).read()

    def test_initial_data_past_a_byte_order_mark(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        grid = pde.Grid(-20.0, 60.0, 501)
        np.savetxt(plain, np.column_stack([grid.xs(), *pde.bump(grid)]), delimiter=",",
                   header="x,A,I", comments="", fmt="%.17g")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        reports = []
        for path in (plain, marked):
            code, payload, _ = run_json(capsys, "pde", "--initial", path, "--t-end", 4,
                                        "--out", tmp_path / path.stem)
            assert code == 0
            reports.append(payload)
        first, second = ([Path(name).read_bytes() for name in report.pop("snapshots")]
                         for report in reports)
        assert reports[0] == reports[1]
        assert first == second

    def test_undecodable_initial_data_exits_64(self, tmp_path, capsys):
        path = tmp_path / "initial.csv"
        path.write_bytes(b"x,A,I\n0,1,0\n\xff\n")
        code, out, err = run(capsys, "pde", "--initial", path, "--out", tmp_path / "x")
        assert (code, out) == (64, "")
        assert err.startswith(f"error: cannot read initial data {path}: ")
        assert "Traceback" not in err

    @pytest.fixture
    def overflowing_reaction(self, monkeypatch):
        """A reaction part of the split whose A-rate is infinite, which makes the fields
        non-finite in the first snapshot interval whatever the data."""
        def overflowing(A, I, r, out=None):
            dA, dI = reaction(A, I, r, out)
            dA[:] = np.inf
            return dA, dI

        monkeypatch.setattr(pde, "reaction", overflowing)

    def test_blow_up_exits_3(self, tmp_path, capsys, overflowing_reaction):
        xs = np.linspace(-10.0, 10.0, 201)
        bad = tmp_path / "bad.csv"
        np.savetxt(
            bad,
            np.column_stack([xs, 1e3 * np.exp(-(xs**2)), np.zeros_like(xs)]),
            delimiter=",",
            header="x,A,I",
            comments="",
            fmt="%.17g",
        )
        code, _, err = run(
            capsys, "pde", "--initial", bad, "--t-end", 8, "--out", tmp_path / "x"
        )
        assert code == 3
        assert "blow-up" in err

    def test_blow_up_names_last_finite_snapshot(self, tmp_path, capsys, overflowing_reaction):
        xs = np.linspace(-10.0, 10.0, 201)
        bad = tmp_path / "bad.csv"
        np.savetxt(
            bad,
            np.column_stack([xs, 1e3 * np.exp(-(xs**2)), np.zeros_like(xs)]),
            delimiter=",",
            header="x,A,I",
            comments="",
            fmt="%.17g",
        )
        code, _, err = run(
            capsys, "pde", "--initial", bad, "--t-end", 8, "--out", tmp_path / "x"
        )
        assert code == 3
        assert "last finite snapshot at t =" in err

    def test_unresolved_spike_exits_4(self, tmp_path, capsys):
        # a one-point spike on the reference grid drives A negative through the RKC taps
        xs = pde.GRID.xs()
        spike = tmp_path / "spike.csv"
        np.savetxt(spike, np.column_stack([xs, np.abs(xs) < 1e-9, np.zeros_like(xs)]),
                   delimiter=",", header="x,A,I", comments="", fmt="%.17g")
        code, out, err = run(capsys, "pde", "--initial", spike, "--out", tmp_path / "x")
        assert code == 4
        assert out == ""
        assert "resolution failure: A = -0.0622 < -1e-12 max A at t = 0.5\n" in err
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("amplitude", ["1e-315", "1e-320"])
    def test_subnormal_bump_is_no_front_not_a_blow_up(self, tmp_path, capsys, amplitude):
        # the balance is weighed against n normal floats at least, not the bump's subnormal
        # mass, whose own rounding read 1.69e-09 and 1.69e-03 as a mass balance residual
        code, out, err = run(capsys, "pde", "--amplitude", amplitude, "--t-end", 1,
                             "--grid", "401:-10:30", "--out", tmp_path / "x")
        assert (code, out) == (4, "")
        assert "no front: A never reaches the threshold 0.1 at t = 0.5" in err
        assert "blow-up" not in err

    def test_negative_rate_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "pde", "--r", -1, "--grid", "321:-10:20", "--t-end", 1,
            "--out", tmp_path / "x",
        )
        assert code == 2
        assert "invalid regime" in err

    def test_infinite_rate_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "pde", "--r", "inf", "--grid", "321:-10:20", "--t-end", 1,
            "--out", tmp_path / "x",
        )
        assert code == 2
        assert "production rate r must be >= 0 and finite" in err
        assert not list(tmp_path.iterdir())

    def test_rate_past_the_reaction_substep_cap_exits_2(self, tmp_path, capsys, deadline):
        # about 1e298 midpoint substeps per step: refused where they are counted
        code, out, err = run(capsys, "pde", "--r", "1e300", "--grid", "201:-10:10", "--t-end", 1,
                             "--out", tmp_path / "x")
        assert (code, out) == (2, "")
        assert "error: invalid regime: production rate r = 1e+300 needs over 1000 reaction" in err
        assert not list(tmp_path.iterdir())

    def test_threshold_above_max_a_exits_4(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "pde", "--threshold", 2, "--grid", "321:-10:20", "--t-end", 2,
            "--out", tmp_path / "x",
        )
        assert code == 4
        assert "A never reaches the threshold 2 at t = 1" in err
        assert "--threshold" in err
        assert "boundary" not in err

    def test_nan_threshold_exits_64(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "pde", "--threshold", "nan", "--grid", "321:-10:20", "--t-end", 1,
            "--out", tmp_path / "x",
        )
        assert code == 64
        assert "threshold must be positive and finite" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, value", [("--amplitude", "nan"), ("--amplitude", "inf"), ("--width", 0)]
    )
    def test_non_finite_bump_exits_64(self, tmp_path, capsys, flag, value):
        code, _, err = run(capsys, "pde", flag, value, "--out", tmp_path / "x")
        assert code == 64
        assert "the bump of amplitude" in err
        assert "non-finite" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("column", [1, 2], ids=["A", "I"])
    def test_negative_initial_data_exits_64(self, tmp_path, capsys, column):
        # one negative value of 201, outside the model's domain, is refused before any step
        xs = np.linspace(-30.0, 120.0, 201)
        data = np.column_stack([xs, np.exp(-xs * xs), np.zeros_like(xs)])
        data[100, column] = -0.5
        path = tmp_path / "negative.csv"
        np.savetxt(path, data, delimiter=",", header="x,A,I", comments="", fmt="%.17g")
        code, out, err = run(capsys, "pde", "--initial", path, "--t-end", 2,
                             "--out", tmp_path / "x")
        assert code == 64
        assert out == ""
        assert f"initial data {path} holds a negative A or I" in err
        assert not list(tmp_path.glob("x*"))

    def test_width_shapes_the_bump(self, tmp_path, capsys):
        code, payload, _ = run_json(capsys, "pde", "--width", 2, "--grid", "201:-30:120",
                                    "--t-end", 2, "--out", tmp_path / "w")
        assert code == 0
        x, A, I = np.loadtxt(payload["snapshots"][0], delimiter=",", skiprows=1, unpack=True)
        grid = pde.Grid(-30.0, 120.0, 201)
        # 17 significant digits round-trip, so the written bump is the width-2 one exactly
        assert A.tobytes() == pde.bump(grid, pde.BUMP_AMPLITUDE, 2.0)[0].tobytes()
        assert A.tobytes() != pde.bump(grid)[0].tobytes()

    @pytest.mark.parametrize("case, message", [
        ("missing", "cannot read initial data"),
        ("header", "must be a CSV with header x,A,I"),
        ("short", "initial data needs at least 16 rows"),
    ])
    def test_unreadable_initial_data_exits_64(self, tmp_path, capsys, case, message):
        path = tmp_path / "initial.csv"
        rows = 15 if case == "short" else 201
        xs = np.linspace(-30.0, 120.0, rows)
        if case != "missing":
            np.savetxt(path, np.column_stack([xs, np.exp(-xs * xs), np.zeros_like(xs)]),
                       delimiter=",", header="x,B,I" if case == "header" else "x,A,I",
                       comments="", fmt="%.17g")
        code, out, err = run(capsys, "pde", "--initial", path, "--out", tmp_path / "x")
        assert code == 64
        assert out == ""
        assert message in err
        assert not list(tmp_path.glob("x*"))

    def test_negative_amplitude_exits_64(self, tmp_path, capsys):
        code, out, err = run(capsys, "pde", "--amplitude", "-0.5", "--out", tmp_path / "x")
        assert code == 64
        assert out == ""
        assert "the bump of amplitude -0.5 and width 1 holds a negative A or I" in err
        assert not list(tmp_path.iterdir())

    def test_zero_width_off_origin_exits_64(self, tmp_path, capsys):
        # without x = 0 on the grid a zero width gives an all-zero bump
        code, _, err = run(
            capsys, "pde", "--width", 0, "--grid", "321:-10:20", "--out", tmp_path / "x"
        )
        assert code == 64
        assert "argument --width: need 0 < width < inf" in err
        assert not list(tmp_path.iterdir())

    def test_too_many_snapshots_exits_2(self, tmp_path, capsys):
        # 2e300 snapshot intervals would not even fit np.arange
        code, _, err = run(
            capsys, "pde", "--grid", "16:0:10", "--t-end", "1e300",
            "--out", tmp_path / "x",
        )
        assert code == 2
        assert "t_end = 1e+300 at snapshot_dt = 0.5" in err
        assert not list(tmp_path.iterdir())

    def test_end_time_below_the_time_tolerance_exits_64(self, tmp_path, capsys):
        # the run holds t = 0 and t_end, so the default window (t_end / 2, t_end) has one snapshot
        code, _, err = run(
            capsys, "pde", "--grid", "321:-10:20", "--t-end", "1e-9", "--out", tmp_path / "x",
        )
        assert code == 64
        assert err == "error: usage: window covers fewer than two snapshots\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("t_end", ["1e-20", "1e-200"])
    def test_tiny_end_time_exits_64(self, tmp_path, capsys, t_end):
        # the window's time tolerance scales with the window, so t = 0 stays out of it:
        # an absolute 1e-12 reported c_est = -13293.6 at 1e-20 and failed the fit at 1e-200
        code, out, err = run(
            capsys, "pde", "--grid", "321:-10:20", "--t-end", t_end, "--out", tmp_path / "x",
        )
        assert (code, out) == (64, "")
        assert err == "error: usage: window covers fewer than two snapshots\n"
        assert not list(tmp_path.iterdir())

    def test_window_outside_run_exits_64(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "pde", "--grid", "321:-10:20", "--t-end", 2, "--window", "5:6",
            "--out", tmp_path / "x",
        )
        assert code == 64
        assert "window" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("t_end", ["nan", "inf"])
    def test_non_finite_end_time_exits_2(self, tmp_path, capsys, t_end):
        code, _, err = run(
            capsys, "pde", "--t-end", t_end, "--grid", "321:-10:20",
            "--out", tmp_path / "x",
        )
        assert code == 2
        assert "t_end must be positive and finite" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("grid", ["10:0:1", "100:5:5"])
    def test_bad_grid_exits_64(self, tmp_path, capsys, grid):
        code, _, err = run(capsys, "pde", "--grid", grid, "--out", tmp_path / "x")
        assert code == 64
        assert "argument --grid" in err
        assert not list(tmp_path.iterdir())

    def test_grid_over_the_storage_cap_exits_64(self, tmp_path, capsys, no_solvers):
        # a run stores both fields at t = 0 and at t_end, so no larger grid fits
        n = pde.MAX_STORED_VALUES // 4 + 1
        code, _, err = run(capsys, "pde", "--grid", f"{n}:-30:120", "--out", tmp_path / "x")
        assert code == 64
        assert "argument --grid" in err
        assert f"at most {n - 1} grid points" in err

    def test_underflowing_grid_spacing_exits_64(self, tmp_path, capsys):
        # the square of the spacing is 0.0, so 1/dx^2 would divide by zero
        code, _, err = run(
            capsys, "pde", "--grid", "32:0:1e-320", "--t-end", 1, "--out", tmp_path / "x"
        )
        assert code == 64
        assert "argument --grid" in err
        assert "positive, finite square" in err
        assert not list(tmp_path.iterdir())

    def test_underflowing_initial_spacing_exits_64(self, tmp_path, capsys):
        # 16 rows at spacing 1e-200: the square of the spacing is 0.0
        xs = np.arange(16) * 1e-200
        bad = tmp_path / "tiny.csv"
        np.savetxt(bad, np.column_stack([xs, np.ones(16), np.zeros(16)]),
                   delimiter=",", header="x,A,I", comments="", fmt="%.17g")
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run(capsys, "pde", "--initial", bad, "--t-end", 1, "--out", out / "x")
        assert code == 64
        assert "initial data" in err
        assert "positive, finite square" in err
        assert not list(out.iterdir())

    def test_too_many_rkc_stages_exits_2(self, tmp_path, capsys):
        # about 1e5 stages per step; rejected before the stage search
        code, _, err = run(
            capsys, "pde", "--grid", "16:0:1e-4", "--t-end", 1, "--out", tmp_path / "x"
        )
        assert code == 2
        assert "needs over 1000 RKC stages per step" in err
        assert not list(tmp_path.iterdir())

    def test_save_all_writes_every_snapshot(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys, "pde", "--grid", "321:-10:20", "--t-end", 2, "--save-all",
            "--out", tmp_path / "all",
        )
        assert code == 0
        assert len(payload["snapshots"]) == 5

    @pytest.mark.parametrize("t_end, times", [("2.25", ["0", "2.25"]), ("3", ["0", "1.5", "3"])])
    def test_snapshots_at_start_middle_end(self, tmp_path, capsys, t_end, times):
        # the middle is kept only where it is a recorded time: 1.125 is not, 1.5 is
        code, payload, _ = run_json(
            capsys, "pde", "--grid", "321:-10:20", "--t-end", t_end, "--out", tmp_path / "p",
        )
        assert code == 0
        names = [f"p_t{t}.csv" for t in times]
        assert payload["snapshots"] == [str(tmp_path / name) for name in names]
        assert sorted(os.listdir(tmp_path)) == sorted(names)

    def test_defaults_are_the_battery_run(self, tmp_path, monkeypatch):
        # both callers hand simulate the same arguments; neither run is made
        class Recorded(Exception):
            pass

        calls, signature = [], inspect.signature(pde.simulate)

        def simulate(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            raise Recorded

        monkeypatch.setattr(pde, "simulate", simulate)
        with pytest.raises(Recorded):
            cli.main(["pde", "--r", "0", "--out", str(tmp_path / "x")])
        with pytest.raises(Recorded):
            acceptance.AcceptanceContext().pde_run(0.0)
        ours, battery = calls
        for name in ("A0", "I0"):
            assert np.asarray(ours[name]).dtype == np.asarray(battery[name]).dtype
            assert np.asarray(ours[name]).tobytes() == np.asarray(battery[name]).tobytes()
        for name in ("r", "grid", "t_end"):
            assert ours[name] == battery[name]

    def test_nonuniform_initial_rejected(self, tmp_path, capsys):
        xs = np.concatenate([np.linspace(0, 1, 10), np.linspace(1.3, 2, 10)])
        bad = tmp_path / "bad.csv"
        np.savetxt(
            bad,
            np.column_stack([xs, xs * 0, xs * 0]),
            delimiter=",", header="x,A,I", comments="",
        )
        code, _, err = run(capsys, "pde", "--initial", bad, "--out", tmp_path / "x")
        assert code == 64
        assert "uniform" in err

    @pytest.mark.parametrize("column", [0, 1, 2], ids=["x", "A", "I"])
    def test_non_numeric_initial_cell_exits_64(self, tmp_path, capsys, column):
        # a NaN abscissa would also slip through the spacing check
        bad = tmp_path / "bad.csv"
        rows = [[f"{0.1 * k:g}", "0.1", "0"] for k in range(40)]
        rows[5][column] = "abc"
        bad.write_text("x,A,I\n" + "".join(",".join(row) + "\n" for row in rows))
        code, _, err = run(capsys, "pde", "--initial", bad, "--out", tmp_path / "x")
        assert code == 64
        assert str(bad) in err
        assert "non-numeric" in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]


class TestEvans:
    def test_self_test_winds_once(self, tmp_path, capsys):
        out = tmp_path / "st.csv"
        code, payload, _ = run_json(capsys, "evans", "--self-test", "--out", out)
        assert code == 0
        assert payload["winding"] == 1
        lines = out.read_text().splitlines()
        assert lines[0] == "re_gamma,im_gamma,re_E,im_E"
        assert len(lines) == payload["evaluations"] + 1

    def test_small_contour_winds_zero(self, tmp_path, capsys):
        out = tmp_path / "ev.csv"
        code, payload, _ = run_json(
            capsys, "evans", "--contour", "0.1:10:32", "--out", out
        )
        assert code == 0
        assert payload["winding"] == 0
        assert payload["max_arg_step"] <= np.pi / 3
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert data.shape[0] == payload["evaluations"]
        # samples live on the contour: moduli within the requested annulus
        moduli = np.hypot(data["re_gamma"], data["im_gamma"])
        assert moduli.min() >= 0.1 - 1e-12
        assert moduli.max() <= 10.0 + 1e-12

    def test_reports_shooting_diagnostics(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code, payload, _ = run_json(capsys, "evans", "--c", 3, "--r", 1, "--i-minus", 1.5,
                                    "--contour", "0.1:10:32", "--out", out)
        assert code == 0
        diag = payload["diagnostics"]
        assert set(diag) == {"evaluations", "halving_probes", "propagators", "steps", "leg_starts",
                             "bisections", "min_abs_E", "halving_rel_diff"}
        assert set(diag["propagators"]) == {"stacked", "matrices", "gammas", "largest_stack"}
        assert set(diag["steps"]) == {"rear", "front"}
        assert {side: set(start) for side, start in diag["leg_starts"].items()} == {
            "rear": {"z", "max_ab"}, "front": {"z", "max_ab"}}
        # the CSV carries every value to 17 digits, so its smallest |E| is the reported one
        data = np.genfromtxt(out, delimiter=",", names=True)
        assert diag["min_abs_E"] == np.abs(data["re_E"] + 1j * data["im_E"]).min()

    def test_default_sweep_propagator_count(self, tmp_path, capsys):
        # the counts repeat exactly, so more steps, more gammas or more
        # stacked exponentials per sweep (each pays expm's per-call cost) fail here
        code, payload, _ = run_json(capsys, "evans", "--c", 2, "--r", 0, "--i-minus", 2,
                                    "--out", tmp_path / "e.csv")
        assert code == 0
        assert payload["winding"] == 0
        assert payload["diagnostics"]["propagators"] == {
            "stacked": 17, "matrices": 28_996, "gammas": 230, "largest_stack": 2034}
        # the rear leg starts at the shooting seed, the front one where the shot stopped
        starts = payload["diagnostics"]["leg_starts"]
        assert starts["rear"]["z"] < 0.0 < starts["front"]["z"]
        assert starts["rear"]["max_ab"] == pytest.approx(wave.SEED_EPS, rel=1e-9)
        assert starts["front"]["max_ab"] == pytest.approx(wave.STOP_TOL, rel=1e-9)

    def test_default_contour_is_the_battery_one(self, tmp_path, monkeypatch):
        # the flag's default string parses back to the contour `evans-winding` sweeps
        class Recorded(Exception):
            pass

        def evans_winding(setup, contour, *args, **kwargs):
            swept.append(contour)
            raise Recorded

        swept = []
        monkeypatch.setattr(spectral, "evans_winding", evans_winding)
        with pytest.raises(Recorded):
            cli.main(["evans", "--out", str(tmp_path / "e.csv")])
        assert swept[0].tobytes() == spectral.contour_of_S().tobytes()

    def test_non_finite_evans_value_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(spectral, "evans", lambda gammas, setup, *args, **kwargs:
                            np.full_like(gammas, np.nan))
        code, out, err = run(capsys, "evans", "--contour", "0.1:10:32", "--out", tmp_path / "e.csv")
        assert code == 4
        assert out == ""
        assert "resolution failure: non-finite Evans sample at gamma = " in err

    def test_invalid_regime_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "evans", "--c", 1, "--i-minus", 1.5, "--out", tmp_path / "e.csv"
        )
        assert code == 2
        assert "invalid regime" in err
        assert "i_minus <= 2 - i_c = 1.25" in err

    def test_reversed_contour_exits_64(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code, _, _ = run(capsys, "evans", "--contour", "10:1:32", "--out", out)
        assert code == 64
        assert not out.exists()

    def test_contour_over_the_cap_exits_64(self, tmp_path, capsys, no_solvers):
        n = spectral.MAX_CONTOUR_N + 1
        code, _, err = run(capsys, "evans", "--contour", f"0.001:1000:{n}",
                           "--out", tmp_path / "e.csv")
        assert code == 64
        assert "argument --contour" in err
        assert f"capped at {n - 1}" in err

    def test_infinite_contour_radius_exits_64(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code, _, err = run(capsys, "evans", "--contour", "0.001:inf:200", "--out", out)
        assert code == 64
        assert "argument --contour" in err
        assert not out.exists()

    def test_diagnostics(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys, "evans", "--contour", "0.1:10:32", "--out", tmp_path / "e.csv"
        )
        assert code == 0
        diag = payload["diagnostics"]
        assert diag["evaluations"] == payload["evaluations"]
        assert diag["bisections"] == payload["evaluations"] - 72
        assert 1 <= diag["halving_probes"] <= 4
        assert diag["propagators"]["stacked"] > 0
        assert diag["propagators"]["matrices"] > diag["propagators"]["stacked"]
        assert diag["min_abs_E"] > 0
        assert 0 <= diag["halving_rel_diff"] < 0.1
        code, payload, _ = run_json(capsys, "evans", "--self-test", "--out", tmp_path / "s.csv")
        assert payload["diagnostics"] is None

    def test_failed_halving_check_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.spectral, "_HALVING_TOL", 1e-12)
        out = tmp_path / "e.csv"
        code, _, err = run(capsys, "evans", "--contour", "0.1:10:32", "--out", out)
        assert code == 4
        assert "resolution failure: halving the march step" in err
        assert not out.exists()

    @pytest.mark.parametrize("w_exp", ["1.5", "0.01"])
    def test_weight_outside_the_band_exits_2(self, tmp_path, capsys, w_exp):
        # a weight that leaves the far-field splitting on the contour is an invalid regime,
        # like a non-positive one
        out = tmp_path / "e.csv"
        code, _, err = run(capsys, "evans", "--w-exp", w_exp, "--contour", "0.1:10:32",
                           "--out", out)
        assert code == 2
        assert "invalid regime: front splitting is not two unstable / one stable" in err
        assert not out.exists()

    def test_nan_weight_exits_2(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code, _, err = run(capsys, "evans", "--w-exp", "nan", "--out", out)
        assert code == 2
        assert "exponential weight must be positive and finite" in err
        assert not out.exists()


class TestFormulas:
    def test_minimal_speed_note(self, capsys):
        code, out, _ = run(capsys, "formulas", "--c", 2, "--r", 0)
        assert code == 0
        assert "i_c (minimal inactive level ahead) = 0" in out
        assert "minimal front speed" in out
        assert "2 -> 0" in out

    def test_subcritical_threshold(self, capsys):
        code, out, _ = run(capsys, "formulas", "--c", 1, "--r", 0)
        assert code == 0
        assert "= 0.75" in out

    def test_general_units_block(self, capsys):
        code, out, _ = run(
            capsys, "formulas", "--general", "rS=2,rA=4,rI=2,D=1", "--c", 2
        )
        assert code == 0
        assert "limit sum = 4" in out
        assert "normalized speed = 1" in out

    def test_json_payload(self, capsys):
        code, payload, _ = run_json(capsys, "formulas", "--c", 1, "--r", 0, "--json")
        assert code == 0
        assert payload["i_c"] == 0.75
        assert payload["limit_pairs"] == [[1.2, 0.8]]
        assert payload["general"] is None
        rate = payload["decay_rates"]["1.2"]
        assert rate == pytest.approx(analysis.decay_rate(1.2, 1.0))

    def test_missing_general_key_exits_64(self, capsys):
        code, _, err = run(capsys, "formulas", "--general", "rS=2,rA=4")
        assert code == 64

    def test_repeated_general_key_exits_64(self, capsys):
        # a second rS would silently replace the first
        code, out, err = run(capsys, "formulas", "--general", "rS=2,rS=3,rA=4,rI=2,D=1")
        assert code == 64
        assert out == ""
        assert "argument --general: repeated general parameter: rS" in err

    @pytest.mark.parametrize("general, reason", [
        # an infinite D would report a normalized speed of 0
        ("rS=2,rA=4,rI=2,D=inf", "r_S, r_A, D must be positive and finite, got 2.0, 4.0, inf"),
        ("rS=2,rA=4,rI=-2,D=1", "r_I must be >= 0 and finite, got -2.0"),
    ], ids=["infinite-D", "negative-rI"])
    def test_general_out_of_range_exits_64_with_its_reason(self, capsys, general, reason):
        code, out, err = run(capsys, "formulas", "--general", general, "--json")
        assert code == 64
        assert out == ""
        assert f"argument --general: {reason}\n" in err

    def test_supercritical_speed_note(self, capsys):
        code, out, _ = run(capsys, "formulas", "--c", 3)
        assert code == 0
        assert "note: c exceeds the minimal front speed 2; i_c = 0\n" in out

    def test_nonpositive_speed_exits_64(self, capsys):
        code, _, err = run(capsys, "formulas", "--c", 0)
        assert code == 64

    def test_infinite_speed_exits_64(self, capsys):
        # an infinite speed would reach the JSON as NaN, which is not JSON
        code, out, err = run(capsys, "formulas", "--c", "inf", "--json")
        assert code == 64
        assert out == ""
        assert "wave speed c must be positive and finite" in err


    @pytest.mark.parametrize("c", [0.001, 0.003])
    def test_narrow_band_levels_stay_in_it(self, capsys, c):
        # 1 - i_c = c^2/4 is narrower than six decimals resolve: a level that would round to 1
        # or below i_c is reported unrounded, and the text form prints it in full
        code, payload, _ = run_json(capsys, "formulas", "--c", c, "--json")
        assert code == 0
        levels = [i0 for i0, _ in payload["a_star"]]
        assert len(levels) == 5 and all(payload["i_c"] <= i0 < 1.0 for i0 in levels)
        assert payload["a_star"] == [[i0, analysis.a_star(i0, c, 0.0)] for i0 in levels]
        code, out, _ = run(capsys, "formulas", "--c", c)
        assert code == 0
        assert all(f"  i0 = {i0}: " in out for i0 in levels)

    def test_rate_past_the_attractor_formula_exits_2(self, capsys):
        # (i + r)^2 overflows past r ~ 1.3e154
        code, out, err = run(capsys, "formulas", "--r", "1e160")
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid regime: production rate r = 1e+160 is past the "
                              "range of the attractor formula")
        assert "Traceback" not in err

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_overflowing_speed_exits_2(self, capsys, form):
        # c^2 overflows past c ~ 1.3e154: every decay rate is inf and every a_star NaN
        code, out, err = run(capsys, "formulas", "--c", "1e160", *form)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid regime: non-finite closed forms at "
                              "c = 1e+160, r = 0: mu(1.2) = inf, ")
        assert "a_star(0.9) = nan" in err

    @pytest.mark.parametrize("general, c_normalized", [
        ("rS=1,rA=1e-200,rI=0,D=1e-200", 2e200), ("rS=1,rA=1e200,rI=0,D=1e200", 2e-200),
    ], ids=["underflow", "overflow"])
    def test_extreme_general_rates_keep_the_normalized_speed(self, capsys, general, c_normalized):
        # r_A D under- or overflows: c / sqrt(r_A D) divided by zero or read 0.0
        code, payload, _ = run_json(capsys, "formulas", "--c", 2, "--general", general, "--json")
        assert code == 0
        assert payload["general"]["c_normalized"] == pytest.approx(c_normalized, rel=1e-15, abs=0.0)

    def test_overflowing_general_prediction_exits_2(self, capsys):
        code, out, err = run(capsys, "formulas", "--c", 2, "--general",
                             "rS=1e-300,rA=1e300,rI=0,D=1e-300", "--json")
        assert (code, out) == (2, "")
        assert err.endswith(": general i_c = inf, general limit_sum = inf\n")


class TestVerify:
    def test_single_criterion_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--only", "rescaling")
        assert code == 0
        assert out.startswith("[PASS] rescaling")
        assert err == ""

    def test_unmatched_filter_exits_64(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "nonsense")
        assert code == 64
        assert "matches no criterion" in err

    def test_failing_criterion_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "_CRITERIA", [
            ("passing", lambda ctx: (True, "fine", {})),
            ("failing", lambda ctx: (False, "off by a mile", {})),
        ])
        code, out, err = run(capsys, "verify")
        assert code == 1
        assert "[PASS] passing: fine" in out
        assert "[FAIL] failing: off by a mile" in out
        assert err == "FAILED: failing\n"

    def test_seed_accepted(self, capsys):
        code, out, err = run(capsys, "verify", "--only", "rescaling", "--seed", 7)
        assert code == 0
        assert out.startswith("[PASS] rescaling")
        assert err == ""

    def test_negative_seed_exits_64(self, capsys):
        code, out, err = run(capsys, "verify", "--seed", -10)
        assert code == 64
        assert out == ""
        assert "argument --seed: expected an integer >= 0" in err

    def test_json_reports_each_criterion(self, capsys):
        code, payload, err = run_json(capsys, "verify", "--only", "mass-identities", "--json")
        assert code == 0
        assert err == ""
        [entry] = payload
        assert list(entry) == ["name", "passed", "detail", "seconds", "diagnostics"]
        assert entry["name"] == "mass-identities"
        assert entry["passed"] is True
        # the grid's shooting counters, summed over its waves
        diag = entry["diagnostics"]
        assert diag["waves"] == 16
        assert diag["rhs_evaluations"] == 2 * diag["waves"] + 6 * (
            diag["accepted_steps"] + diag["rejected_steps"])
        _, out, _ = run(capsys, "verify", "--only", "mass-identities")
        assert out.startswith(f"[PASS] mass-identities: {entry['detail']} (")

    def test_json_verdict_from_a_numpy_comparison(self, capsys):
        # this criterion compares a numpy float, so its verdict comes back as np.bool_
        code, payload, _ = run_json(capsys, "verify", "--only", "oscillatory", "--json")
        assert code == 0
        assert payload[0]["passed"] is True

    def test_tol_flag_exits_64(self, capsys):
        # the criteria's tolerances are fixed; no flag loosens them
        code, _, err = run(capsys, "verify", "--tol", "rescaling=1")
        assert code == 64
        assert "unrecognized arguments: --tol" in err


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("c = 1\nr = 0\n# comment\n\n")
        code, payload, _ = run_json(capsys, "formulas", "--config", cfg, "--json")
        assert code == 0
        assert payload["c"] == 1.0
        assert payload["i_c"] == 0.75

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("c = 1\n")
        code, payload, _ = run_json(
            capsys, "formulas", "--config", cfg, "--c", 2, "--json"
        )
        assert code == 0
        assert payload["c"] == 2.0
        assert payload["i_c"] == 0.0

    def test_line_without_equals_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("c = 1\njust words\n")
        code, out, err = run(capsys, "formulas", "--config", cfg)
        assert code == 64
        assert out == ""
        assert f"{cfg}:2: expected key = value, got 'just words'" in err

    @pytest.mark.parametrize("text, where", [("c = 1\nc = 3\n", "2: repeated config key c"),
                                             ("t-end = 2\n# pde\nt_end = 3\n",
                                              "3: repeated config key t_end")])
    def test_repeated_config_key_exits_64(self, tmp_path, capsys, text, where):
        # a repeat is an error, not the last value winning; t-end and t_end are one key
        cfg = tmp_path / "f.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "formulas", "--config", cfg, "--json")
        assert code == 64
        assert out == ""
        assert f"{cfg}:{where}" in err

    def test_unknown_config_key_exits_64(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "formulas", "--config", cfg)
        assert code == 64
        assert "bogus" in err

    def test_missing_config_file_exits_64(self, tmp_path, capsys):
        code, _, err = run(capsys, "formulas", "--config", tmp_path / "absent.cfg")
        assert code == 64

    def test_config_past_a_byte_order_mark(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfc = 1\n")
        code, payload, _ = run_json(capsys, "formulas", "--config", cfg, "--json")
        assert code == 0
        assert payload["c"] == 1.0

    def test_undecodable_config_exits_64(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_bytes(b"c = 1\xff\n")
        code, out, err = run(capsys, "formulas", "--config", cfg)
        assert (code, out) == (64, "")
        assert err.startswith(f"error: cannot read config {cfg}: ")
        assert "Traceback" not in err

    def test_config_boolean_off_gives_text(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("json = no\n")
        code, out, _ = run(capsys, "formulas", "--config", cfg)
        assert code == 0
        assert out.startswith("c = 2, r = 0\n")

    def test_config_boolean_on_saves_all(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("save_all = yes\n")
        code, payload, _ = run_json(
            capsys, "pde", "--config", cfg, "--grid", "321:-10:20", "--t-end", 2,
            "--out", tmp_path / "all",
        )
        assert code == 0
        assert len(payload["snapshots"]) == 5

    def test_bad_config_value_exits_64(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("c = x\n")
        code, _, _ = run(capsys, "formulas", "--config", cfg)
        assert code == 64

    def test_bad_config_value_names_file_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("c = x\n")
        code, _, err = run(capsys, "formulas", "--config", cfg)
        assert code == 64
        assert f"{cfg}: config key c:" in err

    def test_bad_config_general_names_file_key_and_reason(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("general = rS=2,rA=4,rI=-2,D=1\n")
        code, out, err = run(capsys, "formulas", "--config", cfg)
        assert code == 64
        assert out == ""
        assert f"{cfg}: config key general: r_I must be >= 0 and finite, got -2.0" in err

    def test_config_leaves_no_default_behind(self, tmp_path, capsys):
        # each call builds its own parser, so a config file's defaults end with its run
        cfg = tmp_path / "f.cfg"
        cfg.write_text("c = 1\nr = 0.5\n")
        code, payload, _ = run_json(capsys, "formulas", "--config", cfg, "--json")
        assert code == 0
        assert (payload["c"], payload["r"]) == (1.0, 0.5)
        code, payload, _ = run_json(capsys, "formulas", "--json")
        assert code == 0
        assert (payload["c"], payload["r"]) == (2.0, 0.0)

    def test_negative_config_seed_names_file_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("seed = -3\n")
        code, out, err = run(capsys, "verify", "--config", cfg)
        assert code == 64
        assert out == ""
        assert f"{cfg}: config key seed: expected an integer >= 0" in err

    def test_tolerances_are_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("tol = rescaling=1\n")
        code, _, err = run(capsys, "verify", "--config", cfg)
        assert code == 64
        assert "valid: only, seed" in err

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("wave", "c, i_minus, out, r"),
            (
                "pde",
                "amplitude, grid, initial, out, r, save_all, t_end, threshold, "
                "width, window",
            ),
            ("evans", "c, contour, i_minus, out, r, self_test, w_exp"),
            ("formulas", "c, general, json, r"),
            ("verify", "only, seed"),
        ],
    )
    def test_config_keys_are_the_flags(self, tmp_path, capsys, command, keys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, command, "--config", cfg)
        assert code == 64
        assert f"unknown config keys: bogus (valid: {keys})" in err


class TestUsage:
    def test_unknown_flag_exits_64(self, capsys):
        code, _, _ = run(capsys, "wave", "--bogus")
        assert code == 64

    def test_missing_subcommand_exits_64(self, capsys):
        code, _, _ = run(capsys)
        assert code == 64

    def test_leading_double_dash_is_skipped(self, capsys):
        # a wrapper that passes "--" before the arguments gets the plain run; a
        # "--" after the subcommand keeps argparse's meaning
        assert run(capsys, "--", "formulas", "--c", 1, "--json") == run(
            capsys, "formulas", "--c", 1, "--json")
        code, _, err = run(capsys, "formulas", "--", "--c", 1)
        assert code == 64 and "unrecognized arguments:" in err and "--c 1" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "wave" in out and "verify" in out

    def test_readme_names_exactly_the_flags(self):
        # every flag of every subcommand is documented, and the README names
        # no flag the parser lacks; pip's and pytest's own flags are not ours
        _, commands = cli._build_parser()
        flags = {option for sp in commands.values() for action in sp._actions
                 for option in action.option_strings if option.startswith("--")}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        named = set(re.findall(r"--[A-Za-z][A-Za-z0-9-]*", readme))
        assert flags - named == set()
        assert named - flags == {"--no-build-isolation", "--durations"}


class TestParser:
    COMMANDS = ["wave", "pde", "evans", "formulas", "verify"]

    @staticmethod
    def described(sp):
        """What a subcommand parser offers: flags, defaults, help text and config keys."""
        return ([action.option_strings for action in sp._actions],
                {action.dest: action.default for action in sp._actions},
                sp.format_help(),
                sorted(action.dest for action in sp._actions if action.dest not in sp.per_run))

    @pytest.mark.parametrize("name", COMMANDS)
    def test_named_build_matches_the_full_one(self, name):
        _, full = cli._build_parser()
        top, named = cli._build_parser(name)
        assert list(named) == self.COMMANDS
        assert self.described(named[name]) == self.described(full[name])
        # the other subcommands get no arguments beyond -h
        for other in set(self.COMMANDS) - {name}:
            assert [action.dest for action in named[other]._actions] == ["help"]
        assert top.format_help() == cli._build_parser()[0].format_help()

    @pytest.mark.parametrize("argv", [["bogus", "wave"], ["-5", "wave"], ["-", "pde"]],
                             ids=["word", "negative-number", "dash"])
    def test_a_first_argument_that_names_no_subcommand_exits_64(self, capsys, argv):
        # argparse takes that argument for the subcommand, whatever follows it
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert f"invalid choice: '{argv[0]}' (choose from 'wave', 'pde', 'evans', " in err

    def test_import_builds_no_parser(self):
        # parsers are built by main, per call, so a start pays for none at import
        probe = ("import argparse; built = []; init = argparse.ArgumentParser.__init__; "
                 "argparse.ArgumentParser.__init__ = "
                 "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
                 "import branchwaves.cli; print(len(built))")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert proc.stdout.strip() == "0"


class TestCsv:
    def test_bytes_match_per_value_rendering(self, tmp_path):
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300,
                            3.0, -2.0, 1e17, 0.1, 1.0 / 3.0])
        z = np.empty(special.size, dtype=complex)
        z.real, z.imag = special, special[::-1]
        turns = np.exp(1j * np.arange(special.size))
        columns = [special, z.real, z.imag, turns.real, turns.imag,
                   np.arange(special.size, dtype=float)]
        path = tmp_path / "pin.csv"
        cli._write_csv(str(path), ["s", "re", "im", "cos", "sin", "k"], columns)
        # the per-value rendering the writer must reproduce byte for byte
        expected = "s,re,im,cos,sin,k\n" + "".join(
            ",".join(format(float(v), ".17g") for v in row) + "\n" for row in zip(*columns)
        )
        assert path.read_bytes() == expected.encode()

    def test_blocks_match_per_value_rendering(self, tmp_path):
        # special values at and next to every edge of the blocks the writer renders at once
        block = cli._CSV_BLOCK
        n = 2500
        rng = np.random.default_rng(5)
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e300]
        columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(3)]
        edges = [k * block + d for k in range(1, n // block + 1) for d in (-1, 0, 1)] + [0, n - 1]
        for j, column in enumerate(columns):
            for m, row in enumerate(edges):
                column[row] = special[(m + j) % len(special)]
        text = [f"row {k}" for k in range(n)]
        path = tmp_path / "blocks.csv"
        cli._write_csv(str(path), ["a", "label", "b", "c"], [columns[0], text, *columns[1:]])
        expected = "a,label,b,c\n" + "".join(
            f"{format(float(a), '.17g')},{label},{format(float(b), '.17g')},"
            f"{format(float(c), '.17g')}\n" for a, label, b, c in zip(columns[0], text, *columns[1:])
        )
        assert path.read_bytes() == expected.encode()

    def test_pde_files_match_per_value_rendering(self, tmp_path, capsys):
        # every snapshot shares one rendering of the grid column
        code, payload, _ = run_json(capsys, "pde", "--grid", "201:-30:120", "--t-end", 5,
                                    "--save-all", "--out", tmp_path / "s")
        assert code == 0
        grid = pde.Grid(-30.0, 120.0, 201)
        series = pde.simulate(*pde.bump(grid, pde.BUMP_AMPLITUDE, pde.BUMP_WIDTH), 0.0, grid,
                              t_end=5.0)
        assert payload["snapshots"] == [f"{tmp_path / 's'}_t{t:g}.csv" for t in series.times]
        for name, (A, I) in zip(payload["snapshots"], series.snapshots):
            expected = "x,A,I\n" + "".join(
                ",".join(format(float(v), ".17g") for v in row) + "\n"
                for row in zip(grid.xs(), A, I)
            )
            assert Path(name).read_bytes() == expected.encode()

    def test_empty_columns_write_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli._write_csv(str(path), ["x", "A", "I"], [np.empty(0)] * 3)
        assert path.read_bytes() == b"x,A,I\n"

    @pytest.mark.parametrize("argv", [
        ["wave", "--out", "missing/w.csv"],
        ["pde", "--grid", "201:-30:120", "--t-end", "2", "--out", "missing/p"],
        ["evans", "--self-test", "--out", "missing/e.csv"],
    ], ids=["wave", "pde", "evans"])
    def test_unwritable_out_exits_64(self, tmp_path, capsys, no_solvers, argv):
        # checked before the computation, which would fail this test
        code, out, err = run(capsys, *argv[:-1], tmp_path / argv[-1])
        assert code == 64
        assert out == ""
        assert err.startswith(f"error: cannot write {tmp_path / 'missing'}")
        assert "No such file or directory" in err
        assert "Traceback" not in err

    def test_out_is_a_directory_exits_64(self, tmp_path, capsys):
        # its parent is writable, so only the open itself fails, after the shot
        code, out, err = run(capsys, "wave", "--out", tmp_path)
        assert code == 64
        assert out == ""
        assert err.startswith(f"error: cannot write {tmp_path}: ")
        assert "Traceback" not in err

    def test_out_in_the_working_directory(self, tmp_path, capsys, monkeypatch):
        # a bare file name has no directory part; it is written where the run is
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "evans", "--self-test", "--out", "e.csv")
        assert code == 0
        assert (tmp_path / "e.csv").exists()
