import hashlib
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

import rejmc.cli as cli
import rejmc.model as model
import rejmc.samplers as samplers
from rejmc import BudgetExhausted, ScalarField
from conftest import GAUSS_DENSITY, GAUSS_MAX, SINE_CDF, SINE_DENSITY, subprocess_env

SINE_BOX = "0.7853981633974483:2.356194490192345"
BOUND_ARGS = ["bound", "--density", "x*y", "--vars", "x,y", "--box", "0:1,0:1"]
THREAD_COUNTS = ["abc", "2.5", "0", "-3"]


def run(args, tmp_path, monkeypatch, env=None):
    monkeypatch.chdir(tmp_path)
    for key, value in (env or {}).items():
        monkeypatch.setenv(key, value)
    return cli.main(args)


def refuse_sampling(monkeypatch):
    def sampler_called(*args, **kwargs):
        raise AssertionError("a usage error must be found before sampling")

    monkeypatch.setattr(cli, "srmc_sample", sampler_called)
    monkeypatch.setattr(cli, "grmc_sample", sampler_called)
    monkeypatch.setattr(cli, "integrate_screened", sampler_called)
    monkeypatch.setattr(cli, "integrate_direct", sampler_called)


def sample_args(n=2000, seed="1", extra=()):
    return [
        "sample",
        "--density",
        SINE_DENSITY,
        "--vars",
        "x",
        "--box",
        SINE_BOX,
        "--n",
        str(n),
        *(["--seed", seed] if seed is not None else []),
        *extra,
    ]


class TestSample:
    def test_nan_in_density_comparison_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # sin(inf) is NaN for x > 0.71; the density used to read it as 0 there
        args = [
            "sample", "--density", "(sin(exp(1000*x)) >= -2)", "--vars", "x", "--box", "0:1",
            "--n", "1000", "--seed", "1",
        ]
        assert run(args, tmp_path, monkeypatch) == 1
        assert "rejmc: evaluation produced NaN" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_writes_csv_and_metadata(self, tmp_path, monkeypatch):
        assert run(sample_args(), tmp_path, monkeypatch) == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "x"
        assert len(lines) == 2001
        values = [float(v) for v in lines[1:]]
        assert all(math.pi / 4 <= v < 3 * math.pi / 4 for v in values)

        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["command"] == "sample"
        assert meta["accepted"] == 2000
        # auto-estimated envelope 1.2/sqrt(2) gives acceptance ~0.7503
        assert meta["acceptance_rate"] == pytest.approx(0.7503, abs=0.03)
        assert meta["config"]["seed"] == "1"
        assert "wall_time_ms" not in meta

    def test_csv_floats_round_trip(self, tmp_path, monkeypatch):
        run(sample_args(n=100), tmp_path, monkeypatch)
        lines = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        for text in lines:
            assert repr(float(text)) == text

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        # identical flags, run twice from sibling directories
        for sub in ("d1", "d2"):
            (tmp_path / sub).mkdir()
            run(sample_args(), tmp_path / sub, monkeypatch)
        assert (tmp_path / "d1/samples.csv").read_bytes() == (
            tmp_path / "d2/samples.csv"
        ).read_bytes()
        assert (tmp_path / "d1/run.json").read_bytes() == (tmp_path / "d2/run.json").read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        for sub, threads in (("t1", "1"), ("t8", "8")):
            (tmp_path / sub).mkdir()
            run(sample_args(n=20_000), tmp_path / sub, monkeypatch, env={"RMC_THREADS": threads})
        assert (tmp_path / "t1/samples.csv").read_bytes() == (
            tmp_path / "t8/samples.csv"
        ).read_bytes()
        assert (tmp_path / "t1/run.json").read_bytes() == (tmp_path / "t8/run.json").read_bytes()

    def test_hex_seed_recorded_verbatim(self, tmp_path, monkeypatch):
        run(sample_args(seed="0x2A"), tmp_path, monkeypatch)
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["config"]["seed"] == "0x2A"
        assert meta["seed"] == 42

    def test_auto_seed_recorded_and_reexecutable(self, tmp_path, monkeypatch):
        (tmp_path / "auto").mkdir()
        run(sample_args(n=200, seed=None, extra=["--auto-seed"]), tmp_path / "auto", monkeypatch)
        meta = json.loads((tmp_path / "auto/run.json").read_text())
        recorded = meta["config"]["seed"]
        assert recorded.startswith("0x")
        assert int(recorded, 0) == meta["seed"]
        (tmp_path / "replay").mkdir()
        run(sample_args(n=200, seed=recorded), tmp_path / "replay", monkeypatch)
        assert (tmp_path / "auto/samples.csv").read_bytes() == (
            tmp_path / "replay/samples.csv"
        ).read_bytes()

    def test_piecewise_bins_path(self, tmp_path, monkeypatch):
        code = run(sample_args(extra=["--bins", "64"]), tmp_path, monkeypatch)
        assert code == 0
        meta = json.loads((tmp_path / "run.json").read_text())
        # effective envelope is tighter than the single-cell 1.2/sqrt(2)
        assert meta["bound_c"] < 1.2 / math.sqrt(2)
        assert meta["acceptance_rate"] > 0.74

    def test_gaussian_2d_with_svg(self, tmp_path, monkeypatch):
        args = [
            "sample",
            "--density", GAUSS_DENSITY,
            "--vars", "x,y",
            "--box", "-5:5,-5:5",
            "--n", "500",
            "--seed", "42",
            "--plot", "scatter.svg",
        ]
        assert run(args, tmp_path, monkeypatch) == 0
        svg = (tmp_path / "scatter.svg").read_text()
        assert svg.startswith("<svg")
        assert 'width="800" height="800"' in svg
        assert svg.count("<circle") == 500
        assert "-5.00" in svg and "5.00" in svg
        assert re.search(r"<text[^>]*>x</text>", svg)
        assert re.search(r"<text[^>]*>y</text>", svg)

    def test_svg_deterministic(self, tmp_path, monkeypatch):
        args = [
            "sample", "--density", GAUSS_DENSITY, "--vars", "x,y", "--box", "-5:5,-5:5",
            "--n", "200", "--seed", "7", "--plot", "scatter.svg",
        ]
        for sub in ("d1", "d2"):
            (tmp_path / sub).mkdir()
            run(args, tmp_path / sub, monkeypatch)
        assert (tmp_path / "d1/scatter.svg").read_bytes() == (
            tmp_path / "d2/scatter.svg"
        ).read_bytes()

    def test_partition_over_the_cell_limit_refused_before_evaluation(
        self, tmp_path, monkeypatch, capsys
    ):
        # 4194305 cells of 9 grid points each pass the 2^28-point grid limit
        def never(*args, **kwargs):
            raise AssertionError("grid evaluated")

        # the envelope estimate that validate_target makes needs no grid here
        monkeypatch.setattr(model, "estimate_bound_argmax", lambda *a, **k: (1.2, None))
        monkeypatch.setattr(model, "grid_reduce", never)
        refuse_sampling(monkeypatch)
        args = [
            "sample", "--density", "1", "--vars", "x", "--box", "0:1",
            "--n", "10", "--seed", "1", "--bins", "4194305",
        ]
        assert run(args, tmp_path, monkeypatch) == 1
        assert "partition has 4194305 cells; limit is 4194304" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bound_c_with_bins_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        # the histogram proposal builds its own envelope and reads no --bound-c
        def never(*args, **kwargs):
            raise AssertionError("grid evaluated")

        monkeypatch.setattr(model, "grid_reduce", never)
        refuse_sampling(monkeypatch)
        args = [
            "sample", "--density", "exp(-(x^2))", "--vars", "x", "--box", "-3:3",
            "--n", "10", "--bins", "4", "--bound-c", "0.5",
        ]
        assert run(args, tmp_path, monkeypatch) == 1
        assert "rejmc: --bound-c applies only without --bins" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_plot_requires_2d(self, tmp_path, monkeypatch):
        refuse_sampling(monkeypatch)
        assert run(sample_args(extra=["--plot", "p.svg"]), tmp_path, monkeypatch) == 1
        assert list(tmp_path.iterdir()) == []


RECORDED_RUNS = {
    "sample": [
        "sample", "--density", GAUSS_DENSITY, "--vars", "x,y", "--box", "-5:5,-5:5",
        "--n", "300", "--csv", "a.csv", "--meta", "a.json", "--plot", "a.svg",
    ],
    "integrate": [
        "integrate", "--integrand", "x*y", "--region", "y^2 <= x", "--vars", "x,y",
        "--box", "0:4,0:2", "--n", "2000", "--reps", "2", "--method", "direct",
    ],
    "validate": [
        "validate", "--density", SINE_DENSITY, "--vars", "x", "--box", SINE_BOX,
        "--n", "500", "--cdf", SINE_CDF, "--alpha", "0.05",
    ],
}


@pytest.mark.parametrize("seed", ["-1", "0x10000000000000001", "42"])
@pytest.mark.parametrize("command", sorted(RECORDED_RUNS))
def test_metadata_suffices_to_reexecute(command, seed, tmp_path, monkeypatch):
    first, again = tmp_path / "first", tmp_path / "again"
    first.mkdir()
    again.mkdir()
    assert run([*RECORDED_RUNS[command], "--seed", seed], first, monkeypatch) == 0
    record = json.loads(next(first.glob("*.json")).read_text())
    # every config key is a flag of the command, so config alone re-runs it
    rerun = [command]
    for key, value in record["config"].items():
        if value is not None:
            rerun += [f"--{key.replace('_', '-')}", str(value)]
    assert run(rerun, again, monkeypatch) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes()
    # the recorded run seed is the seed text reduced to 64 bits, by every command
    assert record["seed"] == int(record["config"]["seed"], 0) & (2**64 - 1)


# run.json SHA-256 of commands the bench pins do not cover; polynomial
# densities and integrands, so that no libm function is evaluated
PINNED_RUNS = {
    "validate_1d": (
        "validate --density 2*x --vars x --box 0:1 --n 400 --seed 3 --cdf x*x",
        "345d4d9ee6c5275cd13710f222c99319618a4a191b43e8336ad9359b99dd3e75",
    ),
    "validate_2d_default_bins_alpha": (
        "validate --density x*y --vars x,y --box 0:1,0:2 --n 1000 --seed 3",
        "7601fbb55a04f2270df08557f6d2ceabab698c892fe44c85dfee113608fdfa60",
    ),
    "integrate_direct": (
        "integrate --integrand x*y --region y*y<=x --vars x,y --box 0:4,0:2 "
        "--n 500 --reps 3 --method direct --seed 5",
        "a8996afa3ed8fce4c262f23cb11099bfde3d9878fa9abd48ac4b629bb387a5a9",
    ),
}


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_json_bytes_pinned(name, threads, tmp_path, monkeypatch):
    argv, digest = PINNED_RUNS[name]
    assert run(argv.split(), tmp_path, monkeypatch, env={"RMC_THREADS": threads}) == 0
    assert hashlib.sha256((tmp_path / "run.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("seed", ["5", "0"])
@pytest.mark.parametrize("command", sorted(RECORDED_RUNS))
def test_seed_with_auto_seed_is_usage_error(command, seed, tmp_path, monkeypatch, capsys):
    refuse_sampling(monkeypatch)
    args = [*RECORDED_RUNS[command], "--seed", seed, "--auto-seed"]
    assert run(args, tmp_path, monkeypatch) == 1
    assert "--seed and --auto-seed exclude each other" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestExitCodes:
    def test_missing_box_is_usage_error(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["sample", "--density", SINE_DENSITY, "--vars", "x", "--n", "10"],
            tmp_path,
            monkeypatch,
        )
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_malformed_expression_exits_2(self, tmp_path, monkeypatch, capsys):
        code = run(
            ["integrate", "--integrand", "x*y", "--region", "y^2 <=", "--vars", "x,y",
             "--box", "0:4,0:2", "--n", "100", "--seed", "7"],
            tmp_path,
            monkeypatch,
        )
        assert code == 2
        assert "offset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["sample", "--density", "1", "--vars", "x", "--box", "-1e308:1e308", "--n", "10"],
            ["integrate", "--integrand", "1", "--region", "x >= 0", "--vars", "x,y",
             "--box", "0:1e200,0:1e200", "--n", "10", "--seed", "1"],
        ],
        ids=["sample-width", "integrate-volume"],
    )
    def test_box_overflowing_to_infinity_is_usage_error(self, args, tmp_path, monkeypatch, capsys):
        refuse_sampling(monkeypatch)
        assert run(args, tmp_path, monkeypatch) == 1
        assert "overflows to infinity" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["sample", "--density", "1", "--vars", "x,y", "--box", "0:1e-200,0:1e-200",
             "--n", "10", "--bins", "2"],
            ["integrate", "--integrand", "1", "--region", "x >= 0", "--vars", "x,y",
             "--box", "0:1e-200,0:1e-200", "--n", "10", "--seed", "1"],
        ],
        ids=["sample", "integrate"],
    )
    def test_box_volume_underflowing_to_zero_is_usage_error(
        self, args, tmp_path, monkeypatch, capsys
    ):
        refuse_sampling(monkeypatch)
        assert run(args, tmp_path, monkeypatch) == 1
        assert "box volume underflows to zero" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("names", ["x,,y", "x,", ""], ids=["inner", "trailing", "only"])
    def test_empty_variable_name_is_usage_error(self, names, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("grid evaluated")

        monkeypatch.setattr(model, "grid_reduce", never)
        refuse_sampling(monkeypatch)
        args = [
            "sample", "--density", "x+y", "--vars", names, "--box", "0:1,0:1",
            "--n", "5", "--seed", "1",
        ]
        assert run(args, tmp_path, monkeypatch) == 1
        assert "rejmc: invalid identifier: ''" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_density_parse_error_exits_2(self, tmp_path, monkeypatch):
        code = run(
            ["sample", "--density", "sin(q)", "--vars", "x", "--box", "0:1", "--n", "10"],
            tmp_path,
            monkeypatch,
        )
        assert code == 2

    def test_budget_exhaustion_exits_3(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise BudgetExhausted(50_000, 0, 10)

        monkeypatch.setattr(cli, "srmc_sample", explode)
        assert run(sample_args(n=10), tmp_path, monkeypatch) == 3

    def test_zero_acceptance_exits_3_unmocked(self, tmp_path, monkeypatch, capsys):
        args = [
            "sample", "--density", "(x >= 0.9999999999)", "--vars", "x", "--box", "0:1",
            "--n", "10",
        ]
        start = time.monotonic()
        assert run(args, tmp_path, monkeypatch) == 3
        assert time.monotonic() - start < 20
        # the single chunk gives up at 2^24 proposals with nothing accepted
        assert "after 16777216 proposals with 0/10 accepted" in capsys.readouterr().err

    def test_zero_acceptance_on_two_threads_starts_no_third_chunk(
        self, tmp_path, monkeypatch, capsys
    ):
        args = [
            "sample", "--density", "(x >= 0.9999999999)", "--vars", "x", "--box", "0:1",
            "--n", "100000",
        ]
        assert run(args, tmp_path, monkeypatch, env={"RMC_THREADS": "2"}) == 3
        # chunks 0 and 1 each give up at 2^24 proposals; none of the other 23 starts
        assert "after 33554432 proposals with 0/100000 accepted" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, value",
        [("sample", v) for v in THREAD_COUNTS] + [("bound", v) for v in THREAD_COUNTS],
        ids=THREAD_COUNTS + [f"bound-{v}" for v in THREAD_COUNTS],
    )
    def test_malformed_thread_count_is_usage_error(
        self, command, value, tmp_path, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("RMC_THREADS must be checked before any work")

        monkeypatch.setattr(samplers, "_run_chunk", never)
        monkeypatch.setattr(model, "grid_reduce", never)
        args = {"sample": sample_args(), "bound": BOUND_ARGS}[command]
        assert run(args, tmp_path, monkeypatch, env={"RMC_THREADS": value}) == 1
        err = capsys.readouterr().err
        assert f"rejmc: RMC_THREADS must be a positive integer, got '{value}'" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, message",
        [
            (["bound", "--density", "1/x", "--vars", "x", "--box", "-1:1"], "'1.0 / x'"),
            (
                ["sample", "--density", "1/x^2", "--vars", "x", "--box", "-1:1", "--n", "10"],
                "'1.0 / x^2.0'",
            ),
        ],
        ids=["bound", "sample"],
    )
    def test_density_that_faults_is_usage_error(
        self, args, message, tmp_path, monkeypatch, capsys
    ):
        assert run(args, tmp_path, monkeypatch) == 1
        assert f"rejmc: division by zero in {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_expression_nesting_too_deeply_exits_2(self, tmp_path, monkeypatch, capsys):
        # a sum of 3001 terms is a left-nested tree 3000 levels deep
        density = "+".join(["x"] * 3001)
        args = ["bound", "--density", density, "--vars", "x", "--box", "0:1"]
        assert run(args, tmp_path, monkeypatch) == 2
        assert "rejmc: expression error: expression nests too deeply" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_validation_failure_exits_4(self, tmp_path, monkeypatch):
        # samples from the sine density tested against a uniform CDF
        args = [
            "validate", "--density", SINE_DENSITY, "--vars", "x", "--box", SINE_BOX,
            "--n", "5000", "--seed", "3",
            "--cdf", "(x - 0.7853981633974483)/1.5707963267948966",
        ]
        assert run(args, tmp_path, monkeypatch) == 4

    def test_envelope_violation_is_usage_error(self, tmp_path, monkeypatch):
        code = run(
            sample_args(extra=["--bound-c", "0.5"]), tmp_path, monkeypatch
        )
        assert code == 1

    def test_dim_mismatch_is_usage_error(self, tmp_path, monkeypatch):
        code = run(
            ["sample", "--density", "x", "--vars", "x,y", "--box", "0:1", "--n", "5"],
            tmp_path,
            monkeypatch,
        )
        assert code == 1


class TestValidate:
    def test_sine_ks_pass(self, tmp_path, monkeypatch, capsys):
        args = [
            "validate", "--density", SINE_DENSITY, "--vars", "x", "--box", SINE_BOX,
            "--n", "10000", "--seed", "11", "--cdf", SINE_CDF,
        ]
        assert run(args, tmp_path, monkeypatch) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS ks")
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["gof"]["kind"] == "ks"
        assert meta["gof"]["pass"] is True
        assert meta["gof"]["statistic"] < meta["gof"]["threshold"]

    def test_missing_cdf_for_1d(self, tmp_path, monkeypatch):
        refuse_sampling(monkeypatch)
        args = [
            "validate", "--density", SINE_DENSITY, "--vars", "x", "--box", SINE_BOX,
            "--n", "100", "--seed", "11",
        ]
        assert run(args, tmp_path, monkeypatch) == 1
        assert list(tmp_path.iterdir()) == []

    def test_2d_chi_square_pass(self, tmp_path, monkeypatch):
        args = [
            "validate", "--density", GAUSS_DENSITY, "--vars", "x,y", "--box", "-5:5,-5:5",
            "--n", "20000", "--seed", "5", "--bins", "6",
        ]
        assert run(args, tmp_path, monkeypatch) == 0
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["gof"]["kind"] == "chi_square"
        assert meta["gof"]["dof"] is not None

    def test_3d_dispatches_to_chi_square(self, tmp_path, monkeypatch):
        args = [
            "validate", "--density", "1 + 0*x*y*z", "--vars", "x,y,z",
            "--box", "0:1,0:1,0:1", "--n", "5000", "--seed", "2", "--bins", "3",
        ]
        assert run(args, tmp_path, monkeypatch) == 0
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["gof"]["kind"] == "chi_square"
        assert meta["gof"]["dof"] == 26

    def test_one_chi_square_cell_refused_before_sampling(self, tmp_path, monkeypatch, capsys):
        refuse_sampling(monkeypatch)
        args = [
            "validate", "--density", "exp(-(x^2+y^2))", "--vars", "x,y", "--box", "-2:2,-2:2",
            "--n", "20000", "--seed", "1", "--bins", "1",
        ]
        assert run(args, tmp_path, monkeypatch) == 1
        assert "the chi-square test needs at least 2 cells; use more bins" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    def test_merge_to_one_group_refused_before_sampling(self, tmp_path, monkeypatch, capsys):
        # 2000 draws over 128^2 cells: every cell expects fewer than 5, and
        # the merge leaves one group
        refuse_sampling(monkeypatch)
        args = [
            "validate", "--density", "exp(-(x^2+y^2))", "--vars", "x,y", "--box", "-3:3,-3:3",
            "--n", "2000", "--seed", "1", "--bins", "128",
        ]
        assert run(args, tmp_path, monkeypatch) == 1
        assert "rejmc: fewer than two cells remain after merging; use fewer bins" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    def test_zero_draws_in_2d_refused_before_sampling(self, tmp_path, monkeypatch, capsys):
        refuse_sampling(monkeypatch)
        args = [
            "validate", "--density", "exp(-(x^2+y^2))", "--vars", "x,y", "--box", "-2:2,-2:2",
            "--n", "0", "--seed", "1",
        ]
        assert run(args, tmp_path, monkeypatch) == 1
        assert "rejmc: requested sample count must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "model, flags, message",
        [
            (
                ["--vars", "x", "--box", SINE_BOX, "--density", SINE_DENSITY, "--cdf", SINE_CDF],
                ["--bins", "0"],
                "--bins applies only to the chi-square test of 2-D or more",
            ),
            (
                ["--vars", "x,y", "--box", "-2:2,-2:2", "--density", "exp(-(x^2+y^2))"],
                ["--bins", "4", "--alpha", "0.05", "--cdf", "x"],
                "--cdf applies only to the KS test of 1-D",
            ),
            (
                ["--vars", "x,y", "--box", "-2:2,-2:2", "--density", "exp(-(x^2+y^2))"],
                ["--bins", "4", "--alpha", "0.05"],
                "--alpha applies only to the KS test of 1-D; "
                "the chi-square threshold is the 0.999 quantile",
            ),
        ],
        ids=["bins_in_1d", "cdf_in_2d", "alpha_in_2d"],
    )
    def test_flag_the_test_does_not_read_is_refused_before_sampling(
        self, model, flags, message, tmp_path, monkeypatch, capsys
    ):
        refuse_sampling(monkeypatch)
        args = ["validate", *model, "--n", "2000", "--seed", "1", *flags]
        assert run(args, tmp_path, monkeypatch) == 1
        assert f"rejmc: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_4d_default_bins_refused_before_allocating(self, tmp_path, monkeypatch, capsys):
        # 8 bins of 32 quadrature points per dimension: 256^4 grid points
        args = [
            "validate", "--density", "exp(-(x^2+y^2+z^2+w^2))", "--vars", "x,y,z,w",
            "--box", "-2:2,-2:2,-2:2,-2:2", "--n", "200", "--seed", "1",
        ]
        refuse_sampling(monkeypatch)
        tracemalloc.start()
        try:
            code = run(args, tmp_path, monkeypatch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert peak < 256 * 2**20
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        assert f"grid of {256**4} points exceeds the limit of {1 << 28} points" in err


class TestIntegrate:
    def test_parabola_region(self, tmp_path, monkeypatch, capsys):
        args = [
            "integrate", "--integrand", "x*y",
            "--region", "y^2 <= x and y >= 0 and y >= x - 2",
            "--vars", "x,y", "--box", "0:4,0:2",
            "--n", "20000", "--reps", "5", "--seed", "7",
        ]
        assert run(args, tmp_path, monkeypatch) == 0
        out = capsys.readouterr().out
        assert "value = " in out
        meta = json.loads((tmp_path / "run.json").read_text())
        assert abs(meta["value"] - 6.0) < 0.2
        assert len(meta["per_replication_values"]) == 5
        assert meta["config"]["method"] == "screened"

    def test_whole_box_region(self, tmp_path, monkeypatch):
        args = [
            "integrate", "--integrand", "x*y", "--region", "x <= 4",
            "--vars", "x,y", "--box", "0:4,0:2",
            "--n", "20000", "--reps", "4", "--seed", "9",
        ]
        assert run(args, tmp_path, monkeypatch) == 0
        meta = json.loads((tmp_path / "run.json").read_text())
        assert abs(meta["value"] - 16.0) < 0.3
        assert meta["n_in_region"] == meta["n_screened"]

    def test_direct_method(self, tmp_path, monkeypatch):
        args = [
            "integrate", "--integrand", "x*y",
            "--region", "y^2 <= x and y >= 0 and y >= x - 2",
            "--vars", "x,y", "--box", "0:4,0:2",
            "--n", "50000", "--reps", "5", "--seed", "7", "--method", "direct",
        ]
        assert run(args, tmp_path, monkeypatch) == 0
        meta = json.loads((tmp_path / "run.json").read_text())
        assert abs(meta["value"] - 6.0) < 0.2
        assert meta["bound_c"] is None

    @pytest.mark.parametrize("method", ["screened", "direct"])
    def test_region_that_is_not_0_or_1_is_usage_error(
        self, method, tmp_path, monkeypatch, capsys
    ):
        args = [
            "integrate", "--integrand", "1", "--region", "0.5", "--vars", "x", "--box", "0:1",
            "--n", "20000", "--reps", "4", "--seed", "1", "--method", method,
        ]
        assert run(args, tmp_path, monkeypatch) == 1
        assert "rejmc: region must evaluate to 0 or 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", ["screened", "direct"])
    def test_nan_in_region_comparison_is_usage_error(
        self, method, tmp_path, monkeypatch, capsys
    ):
        # inf - inf is NaN for x > 0.71; a comparison used to read it as 0
        args = [
            "integrate", "--integrand", "1", "--region", "exp(1000*x) - exp(1000*x) < 1",
            "--vars", "x", "--box", "0:1", "--n", "20000", "--reps", "4", "--seed", "1",
            "--method", method,
        ]
        assert run(args, tmp_path, monkeypatch) == 1
        assert "rejmc: evaluation produced NaN" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", ["screened", "direct"])
    def test_union_region_runs(self, method, tmp_path, monkeypatch):
        # the region is a union of comparisons, 0 or 1 by value, not by syntax
        args = [
            "integrate", "--integrand", "1", "--region", "max(x <= 1, x >= 3)",
            "--vars", "x", "--box", "0:4", "--n", "20000", "--reps", "4", "--seed", "1",
            "--method", method,
        ]
        assert run(args, tmp_path, monkeypatch) == 0
        meta = json.loads((tmp_path / "run.json").read_text())
        assert abs(meta["value"] - 2.0) < 0.1

    def test_byte_identical_runs(self, tmp_path, monkeypatch):
        base = [
            "integrate", "--integrand", "x*y", "--region", "y >= 0",
            "--vars", "x,y", "--box", "0:4,0:2", "--n", "5000", "--reps", "3", "--seed", "4",
        ]
        for sub, threads in (("d1", "1"), ("d2", "8")):
            (tmp_path / sub).mkdir()
            run(base, tmp_path / sub, monkeypatch, env={"RMC_THREADS": threads})
        assert (tmp_path / "d1/run.json").read_bytes() == (tmp_path / "d2/run.json").read_bytes()


class TestBound:
    def test_sine_bound(self, tmp_path, monkeypatch, capsys):
        args = ["bound", "--density", SINE_DENSITY, "--vars", "x", "--box", SINE_BOX]
        assert run(args, tmp_path, monkeypatch) == 0
        out = capsys.readouterr().out
        assert "bound = " in out
        value = float(out.split("bound = ")[1].split(" ")[0])
        assert value == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_gaussian_bound_with_safety(self, tmp_path, monkeypatch, capsys):
        args = [
            "bound", "--density", GAUSS_DENSITY, "--vars", "x,y", "--box", "-5:5,-5:5",
            "--safety", "1.2",
        ]
        assert run(args, tmp_path, monkeypatch) == 0
        value = float(capsys.readouterr().out.split("bound = ")[1].split(" ")[0])
        assert value == pytest.approx(1.2 * 0.16243683359034922, abs=1e-3)

    def test_constant_field(self, tmp_path, monkeypatch, capsys):
        args = ["bound", "--density", "3", "--vars", "x", "--box", "0:1", "--grid", "11"]
        assert run(args, tmp_path, monkeypatch) == 0
        value = float(capsys.readouterr().out.split("bound = ")[1].split(" ")[0])
        assert value == 3.0

    def test_default_grid_is_the_one_sample_uses(self, tmp_path, monkeypatch, capsys):
        # 5 points per dimension in 7-D, as validate_target picks for sample
        args = [
            "bound", "--density", "1", "--vars", "a,b,c,d,f,g,h",
            "--box", ",".join(["0:1"] * 7),
        ]
        assert run(args, tmp_path, monkeypatch) == 0
        assert "grid=5," in capsys.readouterr().out

    def test_grid_of_one_is_usage_error_naming_no_parameter(self, tmp_path, monkeypatch, capsys):
        args = ["bound", "--density", "1", "--vars", "x", "--box", "0:1", "--grid", "1"]
        assert run(args, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert "bound grid needs at least 2 points per dimension, got 1" in err
        assert "grid_per_dim" not in err

    @pytest.mark.parametrize("safety", ["0.5", "nan", "inf"])
    def test_safety_not_finite_or_below_one_is_usage_error(
        self, safety, tmp_path, monkeypatch, capsys
    ):
        args = ["bound", "--density", "1", "--vars", "x", "--box", "0:1", "--safety", safety]
        assert run(args, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert f"safety factor must be finite and at least 1, got {float(safety)}" in err

    def test_takes_no_seed(self, tmp_path, monkeypatch):
        args = ["bound", "--density", "1", "--vars", "x", "--box", "0:1", "--seed", "1"]
        assert run(args, tmp_path, monkeypatch) == 1

    def test_grid_of_nine_million_points_runs_in_slabs(self, tmp_path, monkeypatch, capsys):
        calls = []
        evaluate = ScalarField.__call__

        def counted(self, points):
            calls.append(len(points))
            return evaluate(self, points)

        monkeypatch.setattr(ScalarField, "__call__", counted)
        args = [
            "bound", "--density", GAUSS_DENSITY, "--vars", "x,y", "--box", "-5:5,-5:5",
            "--grid", "3000",
        ]
        assert run(args, tmp_path, monkeypatch) == 0
        assert sum(calls) == 3000**2
        assert len(calls) > 1 and max(calls) <= 1 << 20
        value = float(capsys.readouterr().out.split("bound = ")[1].split(" ")[0])
        assert value == pytest.approx(GAUSS_MAX, rel=1e-5)

    def test_grid_over_the_limit_refused_before_evaluation(self, tmp_path, monkeypatch, capsys):
        def never(self, points):
            raise AssertionError("grid evaluated")

        monkeypatch.setattr(ScalarField, "__call__", never)
        args = [
            "bound", "--density", GAUSS_DENSITY, "--vars", "x,y", "--box", "-5:5,-5:5",
            "--grid", "16385",
        ]
        assert run(args, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert f"grid of {16385**2} points exceeds the limit of {1 << 28} points" in err


SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def run_fresh(code, cwd):
    # the suite itself imports scipy, so these checks run in a fresh interpreter
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_import_loads_no_scipy(tmp_path):
    # importing scipy.special costs most of the start-up time of every command
    out = run_fresh(f"import sys, rejmc, rejmc.cli; print({SCIPY_LOADED})", tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_chi_square_validate_of_at_most_512_cells_loads_no_scipy(tmp_path):
    argv = [
        "validate", "--density", GAUSS_DENSITY, "--vars", "x,y", "--box", "-5:5,-5:5",
        "--bins", "8", "--n", "2000", "--seed", "1",
    ]
    code = (
        f"import sys, rejmc.cli; status = rejmc.cli.main({argv!r}); "
        f"print(status, {SCIPY_LOADED})"
    )
    out = run_fresh(code, tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"
    assert json.loads((tmp_path / "run.json").read_text())["gof"]["kind"] == "chi_square"
