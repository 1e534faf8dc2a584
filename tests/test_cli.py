"""CLI contract: parsing, dispatch, formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

from gamow.cli import parse_args, run

BASE = [sys.executable, "-m", "gamow"]
GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_cli.json").read_text())


def invoke(*args):
    return subprocess.run(BASE + list(args), capture_output=True, timeout=300)


class TestParsing:
    def test_reps_example(self):
        config = parse_args(["reps", "--row", "1", "--twice-j", "1"])
        assert config.subcommand == "reps"
        assert config.params["row"] == 1
        assert config.params["twice_j"] == 1
        assert config.fmt == "text"

    def test_evolve_example(self):
        config = parse_args(
            ["evolve", "--law", "d0", "--er", "10", "--gamma", "0.1",
             "--t0", "0", "--t1", "50", "--n", "500", "--format", "csv"]
        )
        assert config.subcommand == "evolve"
        assert config.params["law"] == "d0"
        assert config.fmt == "csv"

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

    def test_domain_violation_parses_fine(self):
        # half-domain enforcement happens at execution time, not parse time
        config = parse_args(["evolve", "--law", "d0", "--er", "10", "--gamma", "0.1",
                             "--t0", "-1", "--t1", "1"])
        assert run(config) == 1


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
