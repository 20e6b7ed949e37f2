import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import diskextrema
from diskextrema import PowerSeries, write_series
from diskextrema import cli
from diskextrema.cli import build_parser, main
from diskextrema.lemma import format_doc


DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
DEMOS = sorted(name for name in os.listdir(DEMO_DIR) if name.endswith(".py"))


def child_pythonpath() -> str:
    """``PYTHONPATH`` that makes a child process import the same package as this test.

    pytest may have put the package on ``sys.path`` without exporting it.
    """
    src = os.path.dirname(os.path.dirname(diskextrema.__file__))
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def text_fields(out: str) -> dict:
    """The ``key = value`` lines of a text report, as a dict."""
    return dict(line.split(" = ", 1) for line in out.splitlines())


@pytest.fixture
def family_truncation_file(tmp_path):
    """0.8 + z^2 + z^4, the degree-4 truncation of the reference family."""
    path = tmp_path / "trunc4.txt"
    write_series(PowerSeries(0.8, 2, [1.0, 0.0, 1.0]), path)
    return str(path)


class TestExampleCommand:
    def test_real_parameters_pass(self):
        code, out, _ = run_cli(["example", "--a0", "0.8", "--n", "2", "--r", "0.5"])
        assert code == 0
        assert out.splitlines()[-1] == "passed = true"
        fields = text_fields(out)
        # the closed-form minimum 0.6, and the located one
        assert fields["closed.min_modulus"].startswith("0.6000000000000")
        assert fields["numeric.min_modulus"].startswith("0.6000000000000")

    def test_small_a0_rejected(self):
        code, _, err = run_cli(["example", "--a0", "0.4", "--n", "2", "--r", "0.5"])
        assert code == 2
        assert "|a0| > 1/2" in err

    def test_polar_parameters_pass(self):
        code, out, _ = run_cli(
            ["example", "--a0-mod", "0.9", "--a0-arg", "1.0471975512", "--n", "3", "--r", "0.7"]
        )
        assert code == 0
        assert out.splitlines()[-1] == "passed = true"
        fields = text_fields(out)
        assert fields["closed.min_modulus"].startswith("0.64460163812")
        assert fields["numeric.min_modulus"].startswith("0.64460163812")
        # minimizers on a rounding-flat bottom of |f|: the located angle must
        # stay within tolerance of the closed form
        for mod, arg, n, r in (
            ("1.2", "2.0", "1", "0.5"),
            ("1.5", "3.0", "3", "0.5"),
            ("0.5409475328906539", "5.987111868764644", "12", "0.08286736484609238"),
        ):
            code, out, _ = run_cli(
                ["example", "--a0-mod", mod, "--a0-arg", arg, "--n", n, "--r", r]
            )
            assert code == 0, (mod, arg, n, r)
            assert out.splitlines()[-1] == "passed = true"

    def test_json_output(self):
        code, out, _ = run_cli(
            ["example", "--a0", "0.8", "--n", "2", "--r", "0.5", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["closed"]["min_modulus"] == pytest.approx(0.6, abs=1e-15)
        assert doc["abs_diff"]["m"] <= 1e-9
        assert doc["report"]["checks"]["m_vs_bound_sq"]["passed"] is True

    def test_bad_radius_rejected(self):
        code, _, err = run_cli(["example", "--a0", "0.8", "--n", "2", "--r", "1.5"])
        assert code == 2 and "--r" in err

    def test_unparsable_a0_rejected(self):
        code, _, err = run_cli(["example", "--a0", "1+x", "--n", "2", "--r", "0.5"])
        assert code == 2
        assert err == "error: cannot parse complex number from '1+x'\n"

    def test_nonpositive_n_rejected(self):
        code, _, err = run_cli(["example", "--a0", "0.8", "--n", "0", "--r", "0.5"])
        assert code == 2
        assert err == "error: --n must be a positive integer, got 0\n"

    def test_complex_a0_forms(self):
        for form in ("0.6+0.4j", "0.6,0.4"):
            code, out, _ = run_cli(["example", "--a0", form, "--n", "1", "--r", "0.3"])
            assert code == 0, form
            assert out.splitlines()[-1] == "passed = true"

    def test_output_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["example", "--a0", "0.8", "--n", "2", "--r", "0.5",
             "--format", "json", "--output", str(target)]
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["passed"] is True


class TestVerifyCommand:
    def test_truncated_family_min_mode(self, family_truncation_file):
        code, out, _ = run_cli(["verify", "--input", family_truncation_file, "--r", "0.5"])
        assert code == 0
        fields = text_fields(out)
        assert fields["report.passed"] == "true"
        # the truncated polynomial's own minimum: f(0.5i) = 0.6125, m = 0.25/0.6125
        assert float(fields["report.m"]) == pytest.approx(0.25 / 0.6125, abs=1e-9)

    def test_higher_truncation_approaches_family_ratio(self, tmp_path):
        # at degree 16 the tail perturbation is ~1e-4, inside the 2e-3 budget
        path = tmp_path / "trunc16.txt"
        coeffs = [1.0 if k % 2 == 0 else 0.0 for k in range(2, 17)]
        write_series(PowerSeries(0.8, 2, coeffs), path)
        code, out, _ = run_cli(["verify", "--input", str(path), "--r", "0.5"])
        assert code == 0
        assert float(text_fields(out)["report.m"]) == pytest.approx(8.0 / 15.0, abs=2e-3)

    def test_constant_series_rejected(self, tmp_path):
        path = tmp_path / "const.txt"
        path.write_text("2.0 0.0\n1 1\n1 0.0 0.0\n")
        code, _, err = run_cli(["verify", "--input", str(path), "--r", "0.5"])
        assert code == 2
        assert "constant" in err.lower()

    def test_identity_map_max_mode(self, tmp_path):
        path = tmp_path / "identity.txt"
        write_series(PowerSeries(0.0, 1, [1.0]), path)
        code, out, _ = run_cli(
            ["verify", "--input", str(path), "--r", "0.5", "--mode", "max", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["m"] == pytest.approx(1.0, abs=1e-12)
        assert doc["report"]["bound_sq"] == 1.0
        assert doc["report"]["passed"] is True

    def test_identity_map_min_mode_rejected(self, tmp_path):
        path = tmp_path / "identity.txt"
        write_series(PowerSeries(0.0, 1, [1.0]), path)
        code, _, err = run_cli(["verify", "--input", str(path), "--r", "0.5"])
        assert code == 2
        assert "a0" in err

    def test_vanishing_function_distinct_message(self, tmp_path):
        path = tmp_path / "vanishing.txt"
        write_series(PowerSeries(-0.35, 1, [1.0]), path)  # zero at z = 0.35
        code, _, err = run_cli(["verify", "--input", str(path), "--r", "0.7"])
        assert code == 2
        assert "vanishes" in err

    def test_missing_file(self):
        code, _, err = run_cli(["verify", "--input", "/nonexistent/series.txt", "--r", "0.5"])
        assert code == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not numbers\n")
        code, _, err = run_cli(["verify", "--input", str(path), "--r", "0.5"])
        assert code == 2

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_non_finite_coefficient_rejected(self, mode, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("0.8 0.0\n1 2\n1 nan 0.0\n")
        code, out, err = run_cli(["verify", "--input", str(path), "--r", "0.5", "--mode", mode])
        assert code == 2 and out == ""
        assert err == "error: bad coefficient line '1 nan 0.0': numbers must be finite\n"

    def test_other_package_errors_are_exit_2_with_their_type(self, tmp_path):
        # f = 1e-14 z: the maximum |f(z0)| = 5e-15 leaves z0 f'/f undefined
        path = tmp_path / "tiny.txt"
        path.write_text("0 0\n1 1\n1 1e-14 0\n")
        code, out, err = run_cli(["verify", "--input", str(path), "--r", "0.5", "--mode", "max"])
        assert code == 2 and out == ""
        assert err.startswith("error: ZeroDenominator: |f(z0)| = 5.000e-15")

    def test_check_failure_is_exit_1(self, family_truncation_file):
        code, out, _ = run_cli(
            ["verify", "--input", family_truncation_file, "--r", "0.5", "--tol", "1e-18"]
        )
        assert code == 1
        assert text_fields(out)["report.passed"] == "false"

    @pytest.mark.parametrize(
        "flags",
        [["--grid", "4"], ["--tol", "0"], ["--tol", "-1"], ["--tol", "inf"], ["--tol", "nan"]],
    )
    def test_config_invariants(self, flags, family_truncation_file):
        code, _, err = run_cli(
            ["verify", "--input", family_truncation_file, "--r", "0.5", *flags]
        )
        assert code == 2


class TestSweepCommand:
    def test_small_sweep_passes(self):
        code, out, _ = run_cli(["sweep", "--trials", "3", "--seed", "42"])
        assert code == 0
        assert text_fields(out)["failures"] == "0"
        assert out.splitlines()[-1] == "passed = true"

    def test_byte_identical_reruns(self):
        first = run_cli(["sweep", "--trials", "5", "--seed", "7"])
        second = run_cli(["sweep", "--trials", "5", "--seed", "7"])
        assert first == second

    def test_json_output(self):
        code, out, _ = run_cli(["sweep", "--trials", "2", "--seed", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 2
        assert doc["failures"] == 0
        assert doc["max_duality_gap"] <= 1e-10

    def test_rejects_bad_trials(self):
        code, _, err = run_cli(["sweep", "--trials", "0", "--seed", "1"])
        assert code == 2 and "--trials" in err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_rejects_seeds_outside_64_bits(self, seed):
        code, _, err = run_cli(["sweep", "--trials", "1", "--seed", seed])
        assert code == 2
        assert err == f"error: --seed must be a 64-bit unsigned integer, got {seed}\n"

    def test_failing_trial_is_reported_reproducibly(self):
        # an impossible tolerance forces the im_residual link to fail, which
        # exercises the exit-1 path and the appended per-trial report
        code, out, _ = run_cli(["sweep", "--trials", "2", "--seed", "1", "--tol", "1e-18"])
        assert code == 1
        assert out.splitlines()[-1] == "passed = false"
        fields = text_fields(out)
        assert fields["failed.0.index"] == "0"
        assert "failed.0.exponent_coefficients.0.0" in fields
        assert fields["failed.0.min_report.case"] == "min"
        assert fields["failed.0.max_report.case"] == "max"


@pytest.mark.parametrize(
    "argv",
    [
        ["example", "--a0", "0.8", "--n", "2", "--r", "0.5"],
        ["verify", "--input", "{input}", "--r", "0.5", "--mode", "min"],
        ["verify", "--input", "{input}", "--r", "0.5", "--mode", "max"],
        ["sweep", "--trials", "3", "--seed", "42"],
        ["sweep", "--trials", "2", "--seed", "1", "--tol", "1e-18"],
    ],
)
def test_text_report_renders_the_json_document(argv, family_truncation_file):
    argv = [arg.format(input=family_truncation_file) for arg in argv]
    text_code, text, _ = run_cli(argv)
    json_code, doc, _ = run_cli(argv + ["--format", "json"])
    assert text_code == json_code
    assert text == format_doc(json.loads(doc))


class TestLandscapeCommand:
    def test_family_profile_rows(self):
        code, out, err = run_cli(
            ["landscape", "--a0", "0.8", "--n", "2", "--r", "0.5", "--grid", "8"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,modulus"
        assert len(lines) == 9
        theta, modulus = map(float, lines[3].split(","))  # third point is pi/2
        assert theta == pytest.approx(np.pi / 2)
        assert modulus == pytest.approx(0.6, abs=1e-12)
        assert "grid min" in err

    def test_constant_series_profile(self, tmp_path):
        path = tmp_path / "const.txt"
        path.write_text("1.5 0.0\n1 1\n1 0.0 0.0\n")
        code, out, _ = run_cli(
            ["landscape", "--input", str(path), "--r", "0.5", "--grid", "8"]
        )
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values == [1.5] * 8

    def test_reciprocal_rows_multiply_to_one(self):
        args = ["landscape", "--a0", "0.8", "--n", "2", "--r", "0.5", "--grid", "16"]
        _, direct, _ = run_cli(args)
        _, recip, _ = run_cli(args + ["--reciprocal"])
        for d_row, r_row in zip(direct.strip().splitlines()[1:], recip.strip().splitlines()[1:]):
            assert float(d_row.split(",")[1]) * float(r_row.split(",")[1]) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_output_file_and_summary(self, tmp_path):
        target = tmp_path / "profile.csv"
        code, out, _ = run_cli(
            ["landscape", "--a0", "0.8", "--n", "2", "--r", "0.5", "--grid", "8",
             "--output", str(target)]
        )
        assert code == 0
        assert target.read_text().startswith("theta,modulus\n")
        assert "grid min" in out and "grid max" in out

    def test_needs_exactly_one_source(self, tmp_path):
        code, _, err = run_cli(["landscape", "--r", "0.5"])
        assert code == 2
        path = tmp_path / "s.txt"
        write_series(PowerSeries(1.0, 1, [0.5]), path)
        code, _, err = run_cli(
            ["landscape", "--input", str(path), "--a0", "0.8", "--n", "2", "--r", "0.5"]
        )
        assert code == 2

    def test_family_flags_need_n(self):
        code, _, err = run_cli(["landscape", "--a0", "0.8", "--r", "0.5"])
        assert code == 2
        assert err == "error: landscape family flags need --n\n"

    @pytest.mark.parametrize(
        "flags",
        [["--a0", "nan"], ["--a0", "inf"], ["--a0-mod", "inf"], ["--a0-mod", "1", "--a0-arg", "inf"]],
    )
    def test_non_finite_a0_writes_no_profile(self, flags, tmp_path):
        target = tmp_path / "p.csv"
        code, out, err = run_cli(["landscape", *flags, "--n", "2", "--r", "0.5", "--output", str(target)])
        assert code == 2 and out == ""
        assert "finite" in err
        assert not target.exists()

    def test_reciprocal_pole_on_the_circle_writes_no_profile(self, tmp_path):
        path, target = tmp_path / "f.txt", tmp_path / "p.csv"
        path.write_text("-0.5 0\n1 1\n1 1 0\n")  # f = z - 0.5
        code, out, err = run_cli(
            ["landscape", "--input", str(path), "--r", "0.5", "--reciprocal", "--output", str(target)]
        )
        assert code == 2 and out == ""
        assert err == "error: the function vanishes on the search region: 1/f has a pole at theta = 0.0 on |z| = 0.5\n"
        assert not target.exists()


#: Minimal argv of each subcommand, the flags it requires (each followed by
#: one value in that argv), and the destinations and defaults of its namespace.
SURFACE = {
    "example": (
        ["example", "--a0", "0.8", "--n", "2", "--r", "0.5"],
        ["--a0", "--n", "--r"],
        {"command": "example", "a0": "0.8", "a0_mod": None, "a0_arg": 0.0, "n": 2, "r": 0.5,
         "tol": 1e-8, "grid": 256, "format": "text", "output": None},
    ),
    "verify": (
        ["verify", "--input", "s.txt", "--r", "0.5"],
        ["--input", "--r"],
        {"command": "verify", "input": "s.txt", "r": 0.5, "mode": "min", "tol": 1e-8,
         "grid": 256, "format": "text", "output": None},
    ),
    "sweep": (
        ["sweep", "--trials", "3", "--seed", "1"],
        ["--trials", "--seed"],
        {"command": "sweep", "trials": 3, "seed": 1, "tol": 1e-8, "grid": 256,
         "format": "text", "output": None},
    ),
    "landscape": (
        ["landscape", "--r", "0.5"],
        ["--r"],
        {"command": "landscape", "a0": None, "a0_mod": None, "a0_arg": 0.0, "n": None,
         "input": None, "r": 0.5, "grid": 256, "reciprocal": False, "output": None},
    ),
}


class TestSurface:
    """Pins every subcommand's flags, destinations and defaults."""

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_namespace_of_minimal_argv(self, command):
        argv, _, expected = SURFACE[command]
        fields = vars(build_parser().parse_args(argv))
        assert {k: v for k, v in fields.items() if not callable(v)} == expected

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_each_required_flag_is_required(self, command):
        argv, required, _ = SURFACE[command]
        for flag in required:
            i = argv.index(flag)
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv[:i] + argv[i + 2:])
            assert exc.value.code == 2, flag

    def test_landscape_has_no_format(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(SURFACE["landscape"][0] + ["--format", "json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["example", "--a0", "0.8", "--a0-arg", "1.0", "--n", "2", "--r", "0.5"],
            ["landscape", "--input", "{input}", "--n", "7", "--r", "0.5"],
            ["landscape", "--input", "{input}", "--a0-arg", "2", "--r", "0.5"],
        ],
    )
    def test_flags_that_do_not_apply_are_rejected(self, argv, family_truncation_file):
        argv = [arg.format(input=family_truncation_file) for arg in argv]
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestEntryPoints:
    def test_parser_is_built_once(self, monkeypatch):
        builds = []

        def counting_build():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run_cli(["sweep", "--trials", "1", "--seed", "1"])[0] == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_flags_do_not_leak_into_the_next_call(self):
        code, out, _ = run_cli(["sweep", "--trials", "1", "--seed", "1", "--format", "json"])
        assert code == 0 and json.loads(out)["command"] == "sweep"
        code, out, _ = run_cli(["sweep", "--trials", "1", "--seed", "1"])
        assert code == 0 and out.startswith("command = sweep\n")

    def test_argparse_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["example", "--n", "2", "--r", "0.5"])  # missing a0
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["example", "landscape"])
    def test_out_of_memory_is_exit_2(self, command, monkeypatch):
        # a --grid too large to allocate; the command raises in its stead,
        # so no test allocates a huge grid
        def allocate(args):
            raise MemoryError("Unable to allocate 16.0 TiB for an array with shape (1099511627776,)")

        monkeypatch.setattr(cli, f"cmd_{command}", allocate)
        code, out, err = run_cli([command, "--a0", "0.8", "--n", "2", "--r", "0.5", "--grid", "1099511627776"])
        assert code == 2 and out == ""
        assert err == "error: out of memory: Unable to allocate 16.0 TiB for an array with shape (1099511627776,)\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diskextrema", "example", "--a0", "0.8", "--n", "2",
             "--r", "0.5"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": child_pythonpath()},
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "passed = true"

    @pytest.mark.parametrize("demo", DEMOS)
    def test_demo_runs_from_checkout(self, demo):
        proc = subprocess.run(
            [sys.executable, os.path.join(DEMO_DIR, demo)],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": child_pythonpath()},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout
