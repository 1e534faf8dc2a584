"""CLI contract: parsing, dispatch, formats, exit codes, determinism."""

import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import numbers
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import golden_values
from gamow import cli, dynamics, reps, scattering, spectral
from gamow.cli import parse_args, run

BASE = [sys.executable, "-m", "gamow"]
GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())


def invoke(*args):
    return subprocess.run(BASE + list(args), capture_output=True, timeout=300)


class TestParsing:
    def test_reps_example(self):
        config = parse_args(["reps", "--row", "1", "--twice-j", "1"])
        assert config.subcommand == "reps"
        assert config.row == 1
        assert config.twice_j == 1
        assert config.format == "text"

    def test_evolve_example(self):
        config = parse_args(
            ["evolve", "--law", "d0", "--er", "10", "--gamma", "0.1",
             "--t0", "0", "--t1", "50", "--n", "500", "--format", "csv"]
        )
        assert config.subcommand == "evolve"
        assert config.law == "d0"
        assert config.format == "csv"

    def test_empty_argv_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["reps", "--row", "1", "--twice-j", "0", "--bogus"])
        assert exc.value.code == 2

    def test_non_finite_number_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["evolve", "--law", "d0", "--er", "nan", "--gamma", "0.1",
                        "--t0", "0", "--t1", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--t0", "--t1"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_time_is_usage_error(self, capsys, flag, value):
        # so the span check in evolve only ever sees finite ends
        argv = {"--t0": "0", "--t1": "1", flag: value}
        with pytest.raises(SystemExit) as exc:
            parse_args(["evolve", "--law=d0", "--er=10", "--gamma=0.1"]
                       + [f"{k}={v}" for k, v in argv.items()])
        assert exc.value.code == 2
        assert f"argument {flag}: number must be finite, got '{value}'" in capsys.readouterr().err

    def test_domain_violation_parses_fine(self):
        # half-domain enforcement happens at execution time, not parse time
        config = parse_args(["evolve", "--law", "d0", "--er", "10", "--gamma", "0.1",
                             "--t0", "-1", "--t1", "1"])
        assert run(config) == 1


class TestErrorMessages:
    """Each input check lives in the library (the budget of the grids the CLI builds from
    its arguments in the CLI); the CLI prints its message and exits 1."""

    SPECTRAL = ["spectral", "--g", "-5", "--a", "1", "--kmax", "5", "--nk", "64",
                "--rmax", "10", "--nr", "401"]
    WIDTH_RANGE = ("(center 3) is out of range: 2 width^2 must be finite and nonzero, "
                   "and (r - center)^2 / (2 width^2) finite on the grid")

    @pytest.mark.parametrize("argv, message", [
        (["phase", "--g", "5", "--a", "1", "--emin=-1", "--emax", "2"],
         "phase shift requires finite E > 0, got E = -1.0"),
        (["hardy", "--pole", "10,-0.1", "--n", "32768"], "gamma must be positive, got -0.1"),
        (SPECTRAL + ["--packet", "gaussian:3,-0.5"], "packet width must be positive"),
        (["hardy", "--pole", "10,0.1", "--n", "32769"], "need an even number of samples, got 32769"),
        (SPECTRAL + ["--packet", "gaussian:3,1e-200"], "packet width 1e-200 " + WIDTH_RANGE),
        (SPECTRAL + ["--packet", "gaussian:3,1e-155"], "packet width 1e-155 " + WIDTH_RANGE),
        (SPECTRAL + ["--packet", "gaussian:3,1e200"], "packet width 1e+200 " + WIDTH_RANGE),
        (SPECTRAL + ["--packet", "gaussian:3,1e-100"],
         "packet width 1e-100 is below the r grid spacing 0.025; "
         "the packet is not resolved on the grid"),
    ], ids=["phase", "hardy-gamma", "spectral", "hardy-odd-n",
            "width-underflow", "width-subnormal", "width-overflow", "width-unresolved"])
    def test_library_message_on_stderr(self, capsys, argv, message):
        assert run(parse_args(argv)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("n, message", [
        ("-2", "need matching 1-d grids of at least 16 samples"),
        ("0", "need matching 1-d grids of at least 16 samples"),
        ("17", "need an even number of samples, got 17"),
    ])
    def test_hardy_sample_count_rejected_before_the_grid(self, capsys, monkeypatch, n, message):
        # unchecked, -2 printed numpy's own error, and 0 and 17 allocated the energy grid
        def unreachable(*args, **kwargs):
            raise AssertionError("energy grid allocated with a bad --n")

        monkeypatch.setattr(spectral.np, "linspace", unreachable)
        assert run(parse_args(["hardy", "--pole", "10,0.1", "--n", n])) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, window", [
        (["--pole", "1e200,1e190"], "[9.99999e+199, 1e+200]"),
        (["--pole", "10,0.1", "--emin=-1e308", "--emax=1e308"], "[-1e+308, 1e+308]"),
        (["--pole", "0,1e-200", "--emin=-1e-170", "--emax=1e-170"], "[-1e-170, 1e-170]"),
    ], ids=["wide-pole", "overflowing-window", "vanishing-window"])
    def test_hardy_window_too_wide_for_float64(self, capsys, argv, window):
        # unchecked, the first exited with OverflowError's "(34, 'Numerical result out of
        # range')" after numpy's overflow warning, the second printed three warnings; the
        # third's (e_max - e_min)^2 underflows to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(parse_args(["hardy", *argv])) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: energy window {window} is out of range: "
                                "(e_max - e_min)^2 and 2 width^2 must be finite and nonzero\n")
        assert captured.out == ""

    @pytest.mark.parametrize("g", ["-720", "-1500"])
    def test_too_deep_bound_state_rejected(self, capsys, g):
        # unchecked, -720 printed a RuntimeWarning and exited 0 with an all-zero bound
        # eigenfunction, and -1500 failed after four warnings with "packet values must be finite"
        energy = scattering.bound_states(scattering.DeltaShellModel(g=float(g), a=1.0))[0]
        argv = ["spectral", f"--g={g}", "--a", "1", "--packet", "gaussian:2,0.4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(parse_args(argv)) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: bound state at E = {energy:.12g} is too deep to "
                                "normalize: its eigenfunction's norm overflows float64 on the "
                                "r grid\n")
        assert captured.out == ""

    @pytest.mark.parametrize("grid, fft, lattice, work", [
        (["--kmax", "1e308"], 8192, "inf", "inf"),
        (["--nk", "8", "--nr", "4194307"], 16777216, "220", "2.014e+08"),
    ], ids=["lattice", "fft"])
    def test_continuum_over_budget_rejected_before_any_allocation(self, capsys, monkeypatch,
                                                                  grid, fft, lattice, work):
        # --kmax 1e308 printed numpy's overflow and invalid-value warnings, then "packet values
        # must be finite"; --nr 4194307 fits n_k n_r but not the FFT of 2^24 points it takes
        def unreachable(*args):
            raise AssertionError("allocation reached with an over-budget continuum")

        for name in ("gaussian_packet", "_adaptive_k_grid", "_continuum_factors"):
            monkeypatch.setattr(spectral, name, unreachable)
        argv = ["spectral", "--g", "5", "--a", "1", *grid, "--packet", "gaussian:2,0.4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(parse_args(argv)) == 1
        captured = capsys.readouterr()
        k_max = "1e+308" if grid[0] == "--kmax" else "30"
        assert captured.err == (f"error: the continuum on k_max = {k_max}, r_max = 10 needs an "
                                f"FFT of {fft} points and a lattice of {lattice}, about {work} "
                                "float64 work elements, over the budget of 134217728 float64 "
                                "elements (1 GiB)\n")
        assert captured.out == ""

    @pytest.mark.parametrize("g", ["1e306", "1e307", "1.7e308"])
    def test_huge_coupling_exits_zero_without_warnings(self, capsys, g):
        # g = 1e307 ended in a RuntimeError traceback from the Lambert-W branches
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(parse_args(["spectral", "--g", g, "--a", "1",
                                   "--packet", "gaussian:2,0.4"])) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "nan" not in captured.out

    def test_very_strong_shell_reconstructs(self, capsys):
        # its narrow windows cannot hold n_k floats each, so the grid stays uniform; when the
        # windows were forced in, the relative error printed was 17685833.0823
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(parse_args(["spectral", "--g", "1e8", "--a", "1",
                                   "--packet", "gaussian:2,0.4"])) == 0
        captured = capsys.readouterr()
        error = float(captured.out.split("relative L2 reconstruction error = ")[1].split()[0])
        assert captured.err == "" and error < 1.0

    @pytest.mark.parametrize("argv", [
        ["--er=1e308", "--gamma=1e-300", "--t1=1e308"],
        ["--er=10", "--gamma=0.1", "--t1=1.7e308"],
    ], ids=["huge-energy", "huge-time"])
    def test_overflowing_phase_under_a_vanishing_modulus_is_zero(self, capsys, argv):
        # E_R t overflowed to inf where e^{-Gamma t / 2} is 0: NaN rows and an invalid-value
        # RuntimeWarning, with exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(parse_args(["evolve", "--law=d0", "--t0=0", "--n=3"] + argv)) == 0
        captured = capsys.readouterr()
        t = argv[2].split("=")[1]
        assert captured.err == ""
        assert captured.out.splitlines()[1:] == [
            "0,1,-0,1", f"{float(t) / 2:g},0,0,0", f"{float(t):g},0,0,0"]

    @pytest.mark.parametrize("argv, message", [
        (["--er=1e308", "--gamma=5e-324", "--t0=0", "--t1=1e308"],
         "E_R t overflows at t = 5e+307 with E_R = 1e+308, so the amplitude's phase is undefined"),
        (["--er=0", "--gamma=5e-324", "--t0=1.7e308", "--t1=-1.7e308"],
         "time span t1 - t0 = -1.7e+308 - 1.7e+308 overflows"),
    ], ids=["phase-overflow", "span-overflow"])
    def test_evolve_overflow_exits_one_with_one_line(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(parse_args(["evolve", "--law=d0", "--n=3"] + argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_single_sample_ignores_the_span(self, capsys):
        # with --n 1 only t0 is sampled, so a t1 - t0 that overflows is no error
        assert run(parse_args(["evolve", "--law=d0", "--er=10", "--gamma=0.1", "--t0=1.7e308",
                               "--t1=-1.7e308", "--n=1"])) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.splitlines()[1:] == ["1.7e+308,0,0,0"]

    _EXTREMES = st.sampled_from(
        [sign * value for value in (0.0, 5e-324, 1e-300, 1e300, 1.7e308) for sign in (1.0, -1.0)])

    @settings(max_examples=400, derandomize=True)
    @given(er=_EXTREMES, gamma=_EXTREMES, t0=_EXTREMES, t1=_EXTREMES, n=st.integers(0, 3),
           law=st.sampled_from(["g0", "d0", "g1", "d1"]))
    def test_evolve_numeric_flags_exit_cleanly(self, er, gamma, t0, t1, n, law):
        # --flag=value, since argparse reads "--er -1e308" as an option and exits 2
        argv = ["evolve", f"--er={er!r}", f"--gamma={gamma!r}", f"--law={law}",
                f"--t0={t0!r}", f"--t1={t1!r}", f"--n={n}"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = run(parse_args(argv))
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == [] and "nan" not in out.getvalue()
        else:
            assert code == 1 and len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("argv, sha256", [
        (["phase", "--g", "100", "--a", "1", "--emin", "1e-320", "--emax", "1e308", "--n", "4"],
         "e935871a7d67f187f21bcc045af6b6afb24d606740a5788eb1963b2ffd9a36c7"),
        (["evolve", "--er", "1e308", "--gamma", "1e308", "--law", "d0", "--t0", "0",
          "--t1", "1e308", "--n", "3"],
         "9e58ffb9268aecbca6ff51221e5c911eda07a1f19a0c982830c1cf778fea66cd"),
    ], ids=["phase-small-ka-series", "evolve-overflowing-rate"])
    def test_extreme_grids_print_no_warning(self, capsys, argv, sha256):
        # both printed an overflow RuntimeWarning and exited 0: the small-ka series of the
        # shell's g sin(ka)/k was evaluated on every element, and the decay rate times t
        # overflowed to -inf (an amplitude of 0); stdout is the same bytes as then
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(parse_args(argv)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == sha256

    def test_bad_width_rejected_before_build(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("build_decomposition reached with a bad packet width")

        monkeypatch.setattr(spectral, "build_decomposition", unreachable)
        assert run(parse_args(self.SPECTRAL + ["--packet", "gaussian:3,0"])) == 1
        assert capsys.readouterr().err == "error: packet width must be positive\n"

    def test_grid_over_budget_rejected_before_any_allocation(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("allocation reached with an over-budget grid")

        for name in ("gaussian_packet", "_adaptive_k_grid", "_continuum_factors"):
            monkeypatch.setattr(spectral, name, unreachable)
        n_k = spectral.MAX_GRID_ELEMENTS // 4001 + 1
        argv = ["spectral", "--g", "100", "--a", "1", "--nk", str(n_k), "--packet", "gaussian:2,0.4"]
        assert run(parse_args(argv)) == 1
        assert capsys.readouterr().err == (
            f"error: grid of {n_k} x 4001 points exceeds the budget of 134217728 float64 "
            "elements (1 GiB)\n")

    def test_hardy_n_over_budget_rejected_before_any_allocation(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("energy grid allocated with an over-budget --n")

        n = spectral.MAX_GRID_ELEMENTS + 2
        monkeypatch.setattr(spectral.np, "linspace", unreachable)
        assert run(parse_args(["hardy", "--pole", "10,0.1", "--n", str(n)])) == 1
        assert capsys.readouterr().err == (
            f"error: grid of {n} points exceeds the budget of 134217728 float64 elements (1 GiB)\n")

    @pytest.mark.parametrize("grid, message", [
        (["--nk", "1", "--nr", "1000001"], "grid parameters must be positive (n_k >= 8, n_r >= 3)"),
        (["--rmax", "2"], "r_max must exceed the shell radius comfortably (r_max > 2a)"),
    ], ids=["n_k-below-8", "r_max-inside-2a"])
    def test_spectral_grid_rejected_before_packet(self, capsys, monkeypatch, grid, message):
        def unreachable(*args):
            raise AssertionError("packet built before the grid was checked")

        monkeypatch.setattr(spectral, "gaussian_packet", unreachable)
        argv = ["spectral", "--g", "100", "--a", "1", *grid, "--packet", "gaussian:2,0.4"]
        assert run(parse_args(argv)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_hardy_footprint_over_budget_rejected_before_any_allocation(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("energy grid allocated with an over-budget --n")

        # the smallest even --n whose samples and checks would hold more than 1 GiB
        n = 2 * (spectral.MAX_GRID_ELEMENTS // (2 * spectral._HARDY_WORK_ARRAYS) + 1)
        monkeypatch.setattr(spectral.np, "linspace", unreachable)
        assert run(parse_args(["hardy", "--pole", "10,0.1", "--n", str(n)])) == 1
        assert capsys.readouterr().err == (
            f"error: {n} energy samples need about {spectral._HARDY_WORK_ARRAYS} work arrays of "
            "that size, over the budget "
            "of 134217728 float64 elements (1 GiB)\n")

    def test_spectral_runs_without_the_matrix(self, capsys):
        argv = ["spectral", "--g", "100", "--a", "1", "--packet", "gaussian:2,0.4"]
        tracemalloc.start()
        try:
            assert run(parse_args(argv)) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "relative L2 reconstruction error" in capsys.readouterr().out
        # the default grid's matrix would be 2000 x 4001 float64 elements (64 MB)
        assert peak <= 0.1 * 2000 * 4001 * 8

    # phase and evolve allocate their grid with np.linspace in the CLI, poles its seeds in
    # find_poles; the first size fails the grid budget itself, the second only its charge
    GRID_PATHS = {
        "phase": (["phase", "--g", "100", "--a", "1", "--emin", "1", "--emax", "100", "--n"],
                  cli._PHASE_WORK_ARRAYS, "energy points", (np, "linspace")),
        "evolve": (["evolve", "--er", "9.675", "--gamma", "0.0119", "--law", "d0", "--t0", "0",
                    "--t1", "500", "--n"], cli._EVOLVE_WORK_ARRAYS, "time samples",
                   (np, "linspace")),
        "poles": (["poles", "--g", "100", "--a", "1", "--re", "0,20", "--im=-3,0", "--seeds"],
                  cli._POLES_WORK_ARRAYS, "seeds", (scattering, "find_poles")),
    }

    @pytest.mark.parametrize("over", ["grid", "work"])
    @pytest.mark.parametrize("path", list(GRID_PATHS))
    def test_grid_input_over_budget_rejected_before_any_allocation(self, capsys, monkeypatch,
                                                                   path, over):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{path} allocated its grid with an over-budget size")

        argv, arrays, what, allocator = self.GRID_PATHS[path]
        monkeypatch.setattr(*allocator, unreachable)
        if over == "grid":
            sizes = ["1048576", "1048576"] if path == "poles" else ["1099511627776"]
            expected = (f"grid of {' x '.join(sizes)} points exceeds the budget of 134217728 "
                        "float64 elements (1 GiB)")
        else:
            n = spectral.MAX_GRID_ELEMENTS // (2 * arrays if path == "poles" else arrays) + 1
            sizes = ["2", str(n)] if path == "poles" else [str(n)]
            expected = (f"{' x '.join(sizes)} {what} need about {arrays} work arrays of that "
                        "size, over the budget of 134217728 float64 elements (1 GiB)")
        assert run(parse_args(argv + sizes)) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("row, factor", [(1, 1), (2, 2)])
    def test_reps_over_budget_rejected_before_any_operator(self, capsys, monkeypatch, row, factor):
        def unreachable(*args):
            raise AssertionError("operators built for an over-budget --twice-j")

        monkeypatch.setattr(reps, "verify_group_relations", unreachable)
        # the smallest spin whose largest operator's work arrays exceed the budget
        size = math.isqrt(spectral.MAX_GRID_ELEMENTS // cli._REPS_WORK_ARRAYS) + 1
        size += (-size) % factor
        argv = ["reps", "--row", str(row), "--twice-j", str(size // factor - 1)]
        assert run(parse_args(argv)) == 1
        assert capsys.readouterr().err == (
            f"error: {size} x {size} operator entries need about {cli._REPS_WORK_ARRAYS} work "
            "arrays of that size, over the budget of 134217728 float64 elements (1 GiB)\n")

    def test_hardy_sample_near_overflow_is_finite(self, capsys):
        # a sample of 2 / gamma = 2e300 once overflowed |F|^2 and printed leakage = nan
        assert run(parse_args(["hardy", "--pole", "10,1e-300", "--emin", "9", "--emax", "11",
                               "--n", "32"])) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["upper half-plane: leakage = 0.5, member = False",
                             "lower half-plane: leakage = 0.5, member = False"]

    def test_hardy_overflowing_samples_exit_one_with_one_line(self):
        # E = 10 is on the grid, where |f| = 2 / gamma overflows; numpy's overflow and
        # invalid-value warnings once came before the error line
        result = invoke("hardy", "--pole", "10,1e-310", "--emin", "9", "--emax", "11",
                        "--n", "32")
        assert result.returncode == 1
        assert result.stderr == b"error: samples must be finite\n"
        assert result.stdout == b""

    def test_reps_csv_builds_no_dense_matrix(self, capsys, monkeypatch):
        # csv prints only the relations, so row two at 2j = 818 (d = 1638) stays O(d)
        def unreachable(self):
            raise AssertionError("a dense matrix was built for csv output")

        monkeypatch.setattr(reps.SymmetryOperator, "matrix", property(unreachable))
        assert run(parse_args(["reps", "--row", "2", "--twice-j", "818", "--format", "csv"])) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "relation,value"
        assert lines[-2:] == ["sigma_r_equals_r_sigma,False", "commutation_sign,-1"]

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize("row, factor", [(1, 1), (2, 2)])
    def test_reps_peak_within_its_work_arrays(self, row, factor, fmt):
        size = 128
        args = parse_args(["reps", "--row", str(row), "--twice-j", str(size // factor - 1),
                           "--format", fmt])
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert run(args) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= cli._REPS_WORK_ARRAYS * size * size * 8

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize("path", list(GRID_PATHS))
    def test_grid_input_peak_within_its_work_arrays(self, path, fmt):
        # a real stdout encodes the output as the null device does
        argv, arrays, _, _ = self.GRID_PATHS[path]
        n = 2**14
        sizes = ["128", "128"] if path == "poles" else [str(n)]
        args = parse_args(argv + sizes + ["--format", fmt])
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert run(args) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= arrays * n * 8


class TestBenchContract:
    """The benchmark's tracer wraps these attributes; pruning one breaks --trace 1."""

    @staticmethod
    def _tracing():
        path = pathlib.Path(__file__).parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_wrapped_attributes_exist(self):
        for module, attr, *_ in self._tracing().WRAPPED:
            target = getattr(importlib.import_module(f"gamow.{module}"), attr, None)
            assert callable(target), f"gamow.{module}.{attr}"

    def test_counters_read_real_results(self):
        # every counter lambda runs on a real call, so a dropped attribute it reads fails here
        model = scattering.DeltaShellModel(g=100.0, a=1.0)
        find_poles_call = (model, scattering.SearchRegion(0.0, 20.0, -3.0, 0.0))
        samples = {
            ("scattering", "find_poles"): find_poles_call,
            ("spectral", "find_poles"): find_poles_call,
            ("scattering", "denominator"): (model, np.array([1.0 - 0.1j, 9.4 - 0.05j])),
            ("scattering", "s_matrix"): (model, np.array([1.0, 9.4])),
            ("dynamics", "evolution_series"): (
                dynamics.GamowState(scattering.ResonancePole.from_energy(10.0, 0.1),
                                    dynamics.Kind.DECAYING, 0), np.linspace(0.0, 5.0, 6)),
            ("spectral", "build_decomposition"): (model, 5.0, 64, 10.0, 401),
        }
        for module, attr, _, counters in self._tracing().WRAPPED:
            if not counters:
                continue
            args = samples[(module, attr)]
            result = getattr(importlib.import_module(f"gamow.{module}"), attr)(*args)
            for name, measure in counters.items():
                value = measure(args, result)
                assert isinstance(value, numbers.Real) and value >= 0, name

    def test_import_layer_reports_every_module(self, monkeypatch, tmp_path):
        # the traced run exits 1 when `import gamow` stops reporting a module it times
        path = pathlib.Path(__file__).parents[1] / "bench" / "run.py"
        monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends bench/
        spec = importlib.util.spec_from_file_location("bench_run", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "OUT", tmp_path)
        metrics = module.import_layer(time.monotonic() + 60)
        assert sorted(metrics) == ["import.numpy_ms", "import.scipy_optimize_ms",
                                   "import.total_ms"]
        for name, metric in metrics.items():
            assert metric["unit"] == "ms" and metric["value"] > 0, name

    def test_main_calls_module_globals(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "parse_args", lambda argv: seen.append(argv) or "parsed")
        monkeypatch.setattr(cli, "run", lambda args: seen.append(args) or 7)
        monkeypatch.setattr(sys, "argv", ["gamow", "reps", "--row", "1"])
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main()
        finally:
            gc.unfreeze()  # main() freezes the collector's objects; the test process goes on
        assert exc.value.code == 7
        assert seen == [["reps", "--row", "1"], "parsed"]

    def test_main_freezes_module_state(self, monkeypatch):
        # what is alive when main() starts lives until exit, so the collections the
        # interpreter runs at exit should skip it
        frozen = []
        monkeypatch.setattr(cli, "parse_args", lambda argv: frozen.append(gc.get_freeze_count()))
        monkeypatch.setattr(cli, "run", lambda args: 0)
        before = gc.get_freeze_count()
        try:
            with pytest.raises(SystemExit):
                cli.main()
        finally:
            gc.unfreeze()
        assert frozen[0] > before
        assert gc.get_freeze_count() == 0


class TestPolesOutput:
    @pytest.mark.parametrize("g", ["-1", "-0.9"])
    def test_virtual_state_is_not_a_resonance(self, capsys, g):
        # for -1 <= g a < 0, Newton also lands on the virtual state on the negative
        # imaginary axis (or k = 0 at g a = -1); its Re k of 1e-42 is rounding
        argv = ["poles", f"--g={g}", "--a", "1", "--re", "0,5", "--im=-3,0", "--format", "json"]
        assert run(parse_args(argv)) == 0
        poles = json.loads(capsys.readouterr().out)["poles"]
        assert [round(p["re_k"], 4) for p in poles] == [3.7307 if g == "-1" else 3.7304]
        assert poles[0]["im_k"] == pytest.approx(-1.0444 if g == "-1" else -1.0972, abs=1e-4)


class TestJsonOutput:
    def test_reps_row2_json(self):
        result = invoke("reps", "--row", "2", "--twice-j", "1", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["eps_r"] == 1
        assert payload["eps_t"] == -1
        assert payload["sigma_squared_is_identity"] is True
        assert payload["r_squared_matches_eps_r"] is True
        assert payload["t_squared_matches_eps_t"] is True
        assert payload["t_equals_sigma_r"] is True
        assert payload["commutation_sign"] == -1
        assert payload["r"] == [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]

    def test_poles_json_matches_library(self):
        result = invoke("poles", "--g", "100", "--a", "1", "--re", "2,4",
                        "--im=-0.5,-1e-9", "--seeds", "16", "8", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert len(payload["poles"]) == 1
        pole = payload["poles"][0]
        assert pole["re_k"] == pytest.approx(3.11052682721, rel=1e-9)
        assert pole["gamma"] == pytest.approx(0.011896466, rel=1e-6)

    def test_hardy_json_reports_both_planes(self):
        result = invoke("hardy", "--pole", "10,0.1", "--n", "32768", "--format", "json")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert set(payload["reports"]) == {"upper", "lower"}


class TestCsvOutput:
    def test_evolve_csv_shape(self):
        result = invoke("evolve", "--law", "d0", "--er", "10", "--gamma", "0.1",
                        "--t0", "0", "--t1", "50", "--n", "6")
        assert result.returncode == 0
        lines = result.stdout.decode().strip().splitlines()
        assert lines[0] == "t,re_amp,im_amp,survival"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == 1.0

    def test_phase_csv_header(self):
        result = invoke("phase", "--g", "5", "--a", "1", "--emin", "1",
                        "--emax", "4", "--n", "5")
        assert result.returncode == 0
        lines = result.stdout.decode().strip().splitlines()
        assert lines[0] == "E,delta,sin2delta"
        assert len(lines) == 6

    def test_out_file(self, tmp_path):
        target = tmp_path / "series.csv"
        result = invoke("evolve", "--law", "g1", "--er", "5", "--gamma", "0.2",
                        "--t0", "-10", "--t1", "0", "--n", "4", "--out", str(target))
        assert result.returncode == 0
        assert result.stdout == b""
        assert target.read_text().startswith("t,re_amp,im_amp,survival")

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_is_an_error(self, capsys, tmp_path, target):
        out = tmp_path / "missing" / "x" if target == "missing-directory" else tmp_path
        assert run(parse_args(["reps", "--row", "1", "--twice-j", "1", "--out", str(out)])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert repr(str(out)) in captured.err


class TestOnlyTheRequestedFormat:
    ARGV = {
        "phase": ["phase", "--g", "100", "--a", "1", "--emin", "9.5", "--emax", "9.9", "--n", "40"],
        "evolve": ["evolve", "--law", "d0", "--er", "9.675", "--gamma", "0.0119", "--t0", "0",
                   "--t1", "500", "--n", "40"],
        "poles": ["poles", "--g", "100", "--a", "1", "--re", "0,10", "--im=-2,0"],
    }

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize("path", list(ARGV))
    def test_other_formats_are_never_built(self, monkeypatch, path, fmt):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{path} --format {fmt} built another format")

        if fmt != "text":
            monkeypatch.setattr(cli, "_table", unreachable)
        if fmt != "json":
            monkeypatch.setattr(cli.json, "dumps", unreachable)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(parse_args(self.ARGV[path] + ["--format", fmt])) == 0
        assert out.getvalue()


class TestExitCodes:
    CASES = {
        "reps": {
            "ok": ["reps", "--row", "2", "--twice-j", "1"],
            "domain": ["reps", "--row", "2", "--twice-j", "-1"],
            "usage": ["reps", "--row", "9", "--twice-j", "1"],
        },
        "poles": {
            "ok": ["poles", "--g", "100", "--a", "1", "--re", "2,4",
                   "--im=-0.5,-1e-9", "--seeds", "12", "6"],
            "domain": ["poles", "--g", "100", "--a", "1", "--re", "2,4", "--im", "0.5,1"],
            "usage": ["poles", "--g", "100", "--re", "2,4", "--im=-1,-0.1"],
        },
        "phase": {
            "ok": ["phase", "--g", "5", "--a", "1", "--emin", "1", "--emax", "2", "--n", "4"],
            "domain": ["phase", "--g", "5", "--a", "1", "--emin", "-1", "--emax", "2"],
            "usage": ["phase", "--g", "5", "--a", "1", "--emin", "1", "--emax", "x"],
        },
        "evolve": {
            "ok": ["evolve", "--law", "d0", "--er", "10", "--gamma", "0.1",
                   "--t0", "0", "--t1", "10", "--n", "4"],
            "domain": ["evolve", "--law", "d0", "--er", "10", "--gamma", "0.1",
                       "--t0", "-1", "--t1", "1", "--n", "3"],
            "usage": ["evolve", "--law", "x0", "--er", "10", "--gamma", "0.1",
                      "--t0", "0", "--t1", "1"],
        },
        "spectral": {
            "ok": ["spectral", "--g", "-5", "--a", "1", "--kmax", "5", "--nk", "64",
                   "--rmax", "10", "--nr", "401", "--packet", "gaussian:3,0.5"],
            "domain": ["spectral", "--g", "-5", "--a", "1", "--kmax", "5", "--nk", "64",
                       "--rmax", "10", "--nr", "401", "--packet", "gaussian:9,0.5"],
            "usage": ["spectral", "--g", "-5", "--a", "1", "--packet", "lorentz:3,0.5"],
        },
        "hardy": {
            "ok": ["hardy", "--pole", "10,0.1", "--n", "32768"],
            "domain": ["hardy", "--pole", "10,-0.1", "--n", "32768"],
            "usage": ["hardy", "--pole", "10"],
        },
    }

    @pytest.mark.parametrize("sub", sorted(CASES))
    def test_success_exits_zero(self, sub):
        result = invoke(*self.CASES[sub]["ok"])
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("sub", sorted(CASES))
    def test_domain_error_exits_one(self, sub):
        result = invoke(*self.CASES[sub]["domain"])
        assert result.returncode == 1
        assert result.stderr.decode().startswith("error:")

    @pytest.mark.parametrize("sub", sorted(CASES))
    def test_usage_error_exits_two(self, sub):
        result = invoke(*self.CASES[sub]["usage"])
        assert result.returncode == 2

    def test_narrow_window_far_from_zero_exits_zero(self):
        # np.linspace steps near E = 10 round to 1 ulp (1.8e-15), above 1e-9 de (1.5e-15)
        result = invoke("hardy", "--pole", "10,0.1", "--emin", "9.9", "--emax", "10.1")
        assert result.returncode == 0, result.stderr

    def test_empty_argv_prints_usage(self):
        result = invoke()
        assert result.returncode == 2
        assert b"usage" in result.stderr.lower()


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_repeat_invocations_byte_identical(self, fmt):
        args = ["poles", "--g", "100", "--a", "1", "--re", "2,7", "--im=-0.5,-1e-9",
                "--seeds", "16", "8", "--format", fmt]
        first = invoke(*args)
        second = invoke(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_pipeline_poles_feed_evolve(self):
        poles = json.loads(invoke("poles", "--g", "100", "--a", "1", "--re", "2,4",
                                  "--im=-0.5,-1e-9", "--seeds", "12", "6",
                                  "--format", "json").stdout)
        pole = poles["poles"][0]
        series = invoke("evolve", "--law", "d0", "--er", str(pole["e_r"]),
                        "--gamma", str(pole["gamma"]), "--t0", "0",
                        "--t1", str(2.0 / pole["gamma"]), "--n", "9")
        assert series.returncode == 0
        rows = series.stdout.decode().strip().splitlines()[1:]
        survivals = [float(r.split(",")[3]) for r in rows]
        assert survivals[0] == 1.0
        assert all(x >= y for x, y in zip(survivals, survivals[1:]))


def _stdout_sha256(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(parse_args(argv))
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _format_case_id(case):
    argv = case["argv"]
    law = [argv[argv.index("--law") + 1]] if "--law" in argv else []
    return "-".join([argv[0], *law, argv[-1]])


def _sweep_case_id(case):
    argv = case["argv"]
    g = next(arg.split("=")[1] if "=" in arg else argv[i + 1]
             for i, arg in enumerate(argv) if arg.startswith("--g"))
    return f"g{g}-{argv[-1]}"


class TestGoldenOutput:
    """CLI invocations print byte-for-byte what they printed at the fixture's commit."""

    @pytest.mark.parametrize("case", GOLDEN["invocations"], ids=lambda case: case["argv"][0])
    def test_readme_invocation_matches_golden_hash(self, case):
        assert _stdout_sha256(case["argv"]) == case["sha256"]

    @pytest.mark.parametrize("case", GOLDEN["formats"]["invocations"], ids=_format_case_id)
    def test_every_format_matches_golden_hash(self, case):
        assert _stdout_sha256(case["argv"]) == case["sha256"]

    @pytest.mark.parametrize("case", GOLDEN["sweeps"]["invocations"], ids=_sweep_case_id)
    def test_wide_phase_sweep_matches_golden_hash(self, case):
        assert _stdout_sha256(case["argv"]) == case["sha256"]

    @pytest.mark.parametrize("case", GOLDEN["reps_sweep"]["invocations"],
                             ids=lambda case: "row{}-2j{}-{}".format(*case["argv"][2::2]))
    def test_reps_sweep_matches_golden_hash(self, case):
        assert _stdout_sha256(case["argv"]) == case["sha256"]

    def test_every_subcommand_pins_every_format(self):
        pinned = {(args.subcommand, args.format)
                  for args in map(parse_args, (case["argv"] for case in golden_values.CASES))}
        wanted = {(name, fmt) for name in cli._HANDLERS for fmt in ("text", "json", "csv")}
        assert wanted - pinned == set()

    def test_blas_threads_change_no_bit(self):
        # the continuum's lattice products run through BLAS, none of them summing more than
        # 128 k rows or a window of lattice points, and the rebuild adds them in order
        argv = ["spectral", "--g", "-5", "--a", "1", "--packet", "gaussian:2,0.4", "--format", "csv"]
        unset = {name: value for name, value in os.environ.items()
                 if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        hashes = set()
        for threads in ("1", "2", None):
            env = unset if threads is None else {**unset, "OPENBLAS_NUM_THREADS": threads}
            result = subprocess.run(BASE + argv, capture_output=True, timeout=300, env=env)
            assert result.returncode == 0
            hashes.add(hashlib.sha256(result.stdout).hexdigest())
        assert len(hashes) == 1


class TestGoldenValues:
    """Every golden invocation prints the fixture's values, parsed in its own format:
    labels, integers and row counts exactly, other numbers to 1e-12 of their column or
    one unit in their 12th printed digit, whichever is larger."""

    @pytest.mark.parametrize("argv", [
        pytest.param(case["argv"], id=f"{i:02d}-{case['argv'][0]}-{parse_args(case['argv']).format}")
        for i, case in enumerate(golden_values.CASES)])
    def test_values_match_fixture(self, argv):
        assert golden_values.check(argv, golden_values.cli_stdout(argv)) == []

    POLES_CSV = ["poles", "--g", "100", "--a", "1", "--re", "0,10", "--im=-2,0", "--format", "csv"]

    def test_a_1e_9_move_fails(self):
        lines = golden_values.cli_stdout(self.POLES_CSV).splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[2] = f"{float(cells[2]) * (1 + 1e-9):.12g}"
        lines[1] = ",".join(cells)
        problems = golden_values.check(self.POLES_CSV, "".join(lines))
        assert len(problems) == 1 and problems[0].startswith("e_r: 9.67537623828 vs 9.6753762286")

    def test_a_dropped_row_fails(self):
        text = golden_values.cli_stdout(self.POLES_CSV)
        assert golden_values.check(self.POLES_CSV, text[:text.rindex("\n", 0, -1) + 1]) == [
            "3 lines or leaves, fixture has 4"]

    SPECTRAL_CSV = ["spectral", "--g", "-5", "--a", "1", "--packet", "gaussian:2,0.4",
                    "--format", "csv"]

    @pytest.mark.parametrize("cell, problems", [
        ("1.0000921268", []),
        ("1.00009212681", ["reconstructed: 1.00009212681 vs 1.00009212679 (row 800), "
                           "|diff| 2e-11 > 1e-11"]),
    ], ids=["one-quantum", "two-quanta"])
    def test_bound_is_one_print_quantum(self, cell, problems):
        # a 1.2e-15 move of the value once flipped row 800's print between 1.0000921268
        # and 1.00009212679: one unit in the 12th digit, ten times the column's 1e-12 bound;
        # the fixture holds 1.00009212679, and the lattice transform prints 1.0000921268
        lines = golden_values.cli_stdout(self.SPECTRAL_CSV).splitlines(keepends=True)
        r, packet, rebuilt = lines[801].split(",")
        assert rebuilt == "1.0000921268\n"
        lines[801] = f"{r},{packet},{cell}\n"
        assert golden_values.check(self.SPECTRAL_CSV, "".join(lines)) == problems
