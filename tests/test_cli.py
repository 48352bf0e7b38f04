import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskbounds
from riskbounds import BoundMethod, CVaR, Distance, SupportBounds, bound_from_samples, instance_from_dict
from riskbounds import cli
from riskbounds.cli import _parse_arm, build_parser, main

B05 = SupportBounds(0.0, 5.0)


_FAMILIES = ["cvar:0.5", "srm-power:2", "drm-power:0.5", "erm:1", "ce-power:2", "rdeu-power:2,2"]


def _all_supported(risk: str, distance: str) -> str:
    """Every method, or glc alone for RDEU over W1, its only method."""
    return "glc" if risk.startswith("rdeu") and distance == "w1" else "all"


@pytest.fixture()
def samples_csv(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("1\n2\n3\n4\n")
    return str(path)


@pytest.fixture()
def two_arm_instance(tmp_path):
    payload = {
        "bounds": {"a": 0.0, "b": 1.0},
        "risk": "cvar:0.25",
        "horizon": 60,
        "seed": 5,
        "arms": [
            {"family": "dirac", "params": {"x": 0.2}},
            {"family": "dirac", "params": {"x": 0.8}},
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestCi:
    def test_fixture_run(self, samples_csv, tmp_path, capsys):
        out = tmp_path / "ci.json"
        code = main([
            "ci", "--input", samples_csv, "--bounds", "0,5", "--risk", "cvar:0.5",
            "--distance", "sup", "--method", "dist", "--delta", "0.05",
            "--out", str(out),
        ])
        assert code == 0
        blob = json.loads(out.read_text())
        expected = bound_from_samples(
            [1, 2, 3, 4], B05, CVaR(0.5), Distance.SUPREMUM, BoundMethod.DIST, 0.05
        )
        assert blob["radius"] == pytest.approx(math.sqrt(math.log(40.0) / 8.0), abs=1e-15)
        assert blob["lcb"] == pytest.approx(expected.lcb, abs=1e-15)
        assert blob["ucb"] == pytest.approx(expected.ucb, abs=1e-15)
        # partially saturated transforms at this radius: frozen values
        assert blob["ucb"] == pytest.approx(5.0, abs=1e-12)
        assert blob["lcb"] == pytest.approx(0.7837969685187609, abs=1e-12)

    def test_method_all_chain_ordered(self, samples_csv, capsys):
        code = main([
            "ci", "--input", samples_csv, "--bounds", "0,5", "--risk", "cvar:0.5",
            "--method", "all", "--delta", "0.05",
        ])
        assert code == 0
        blobs = json.loads(capsys.readouterr().out)
        assert [b["method"] for b in blobs] == ["dist", "llc", "glc"]
        assert blobs[0]["ucb"] <= blobs[1]["ucb"] <= blobs[2]["ucb"] + 1e-12

    def test_erm_infinite_local_constant_clamps(self, samples_csv, capsys):
        for distance in ("sup", "w1"):
            code = main([
                "ci", "--input", samples_csv, "--bounds", "0,5", "--risk", "erm:1e4",
                "--distance", distance, "--method", "all",
            ])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert "Traceback" not in captured.err
            llc_blob = json.loads(captured.out)[1]
            assert (llc_blob["method"], llc_blob["lcb"], llc_blob["ucb"]) == ("llc", 0.0, 5.0)

    @pytest.mark.parametrize("beta", ["1e-20", "1e-200"])
    def test_erm_llc_at_tiny_beta_width(self, beta, tmp_path, capsys):
        # beta * (b - a) below the float resolution of 1: log(1 - e^-x) must
        # not become log(0). The llc interval still nests inside glc.
        path = tmp_path / "s.csv"
        path.write_text("0.1\n0.5\n0.9\n")
        blobs = {}
        for method in ("llc", "glc"):
            code = main(["ci", "--input", str(path), "--bounds", "0,1", "--risk", f"erm:{beta}", "--method", method])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            blobs[method] = json.loads(captured.out)
        assert blobs["glc"]["lcb"] <= blobs["llc"]["lcb"] and blobs["llc"]["ucb"] <= blobs["glc"]["ucb"]

    @pytest.fixture(scope="class")
    def beta_csv(self, tmp_path_factory):
        samples = np.random.default_rng(0).beta(2.0, 5.0, 2 * 10**4)
        path = tmp_path_factory.mktemp("erm") / "s.csv"
        path.write_text("".join(f"{x!r}\n" for x in samples.tolist()))
        return str(path), math.fsum(samples.tolist()) / samples.size

    @pytest.mark.parametrize("beta", ["1e-200", "1e-320", "-1e-320"])
    def test_erm_at_vanishing_beta_is_the_mean(self, beta_csv, beta, capsys):
        # The log-sum-exp before the centred sum read about the largest
        # sample at 1e-200 and 1e-320, and about the smallest at -1e-320.
        path, mean = beta_csv
        for distance in ("sup", "w1"):
            code = main(["ci", "--input", path, "--bounds", "0,1", "--risk", f"erm:{beta}",
                         "--distance", distance, "--method", "dist"])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            assert json.loads(captured.out)["point"] == pytest.approx(mean, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("beta", ["1e-320", "-1e-320", "1e308", "-1e308"])
    @pytest.mark.parametrize("distance", ["sup", "w1"])
    def test_erm_at_extreme_beta_exits_cleanly(self, beta_csv, beta, distance, capsys):
        # Every method runs for beta > 0; the Lipschitz constants refuse
        # beta < 0 with the unsupported-combination exit.
        code = main(["ci", "--input", beta_csv[0], "--bounds", "0,1", "--risk", f"erm:{beta}",
                     "--distance", distance, "--method", "all"])
        captured = capsys.readouterr()
        assert code == (3 if beta.startswith("-") else 0), captured.err
        assert "Traceback" not in captured.err and "nan" not in captured.out
        for blob in json.loads(captured.out) if code == 0 else []:
            assert 0.0 <= blob["lcb"] <= blob["point"] <= blob["ucb"] <= 1.0

    def test_cvar_level_below_float_resolution_usage(self, samples_csv, capsys):
        code = main(["ci", "--input", samples_csv, "--bounds", "0,5", "--risk", "cvar:1e-17", "--method", "all"])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: CVaR level 1e-17 is too small")

    @pytest.mark.parametrize("risk", ["cvar:0.05", "ce-power:2", "rdeu-power:2,2"])
    def test_offset_support_consistency_slack_scales(self, risk, tmp_path, capsys):
        # At |x| ~ 1e9 the evaluators' rounding exceeds a fixed 1e-9; the
        # slack between lcb, point and ucb is relative to the point.
        path = tmp_path / "off.csv"
        path.write_text("".join(f"{x!r}\n" for x in (1e9 + np.random.default_rng(0).random(20)).tolist()))
        code = main(["ci", "--input", str(path), "--bounds", "1e9,1000000001", "--risk", risk,
                     "--method", "all", "--delta", "1.9999999999999998"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        for blob in json.loads(captured.out):
            slack = 1e-9 * max(1.0, abs(blob["point"]))
            assert blob["lcb"] <= blob["point"] + slack and blob["point"] - slack <= blob["ucb"]

    def test_w1_collapse_just_below_saturation(self, tmp_path, capsys):
        # The radius rounds just short of mean - a: the collapsed level is
        # clamped at a instead of landing a few ulps below it.
        path = tmp_path / "s.csv"
        path.write_text("0.028\n0.754\n0.538\n0.33\n")
        code = main(["ci", "--input", str(path), "--bounds", "0,1", "--risk", "cvar:0.5", "--distance", "w1",
                     "--method", "all", "--delta", "0.5126803028301473"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert [blob["lcb"] for blob in json.loads(captured.out)] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("distance", ["sup", "w1"])
    @pytest.mark.parametrize("risk", _FAMILIES)
    def test_degenerate_delta(self, risk, distance, samples_csv, capsys):
        # delta = 2 makes the dkw and scaled-dkw radii 0: every interval
        # collapses onto its point.
        code = main([
            "ci", "--input", samples_csv, "--bounds", "0,5", "--risk", risk, "--distance", distance,
            "--method", _all_supported(risk, distance), "--delta", "2",
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        blobs = json.loads(captured.out)
        for blob in blobs if isinstance(blobs, list) else [blobs]:
            assert blob["radius"] == 0.0
            assert blob["lcb"] == blob["ucb"] == blob["point"]

    @pytest.mark.parametrize("distance", ["sup", "w1"])
    @pytest.mark.parametrize("risk", _FAMILIES)
    def test_wide_support(self, risk, distance, samples_csv, capsys):
        # On [0, 1e308] u(x) = x^2 and v(x) = x^2 overflow, which the
        # support check reports; the other families' bounds and constants
        # may overflow to inf, which is clamped, with no numpy warning
        # (pytest turns warnings into errors) and no Infinity in the JSON.
        code = main([
            "ci", "--input", samples_csv, "--bounds=0,1e308", "--risk", risk, "--distance", distance,
            "--method", _all_supported(risk, distance),
        ])
        captured = capsys.readouterr()
        if risk.startswith("ce"):
            assert (code, captured.err) == (2, "usage error: CE utility must be finite on [0.0, 1e+308]\n")
        elif risk.startswith("rdeu"):
            assert (code, captured.err) == (2, "usage error: RDEU value function must be finite on [0.0, 1e+308]\n")
        else:
            assert code == 0, captured.err
            json.loads(captured.out, parse_constant=pytest.fail)

    def test_missing_file_is_data_error(self, capsys):
        code = main(["ci", "--input", "/nonexistent.csv", "--bounds", "0,5", "--risk", "cvar:0.5"])
        assert code == 4

    def test_sample_outside_bounds_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1\n9\n")
        code = main(["ci", "--input", str(path), "--bounds", "0,5", "--risk", "cvar:0.5"])
        assert code == 4

    def test_first_bad_sample_in_file_order_is_named(self, tmp_path, capsys):
        # The check runs before the sort, which would put -2 first.
        path = tmp_path / "bad.csv"
        path.write_text("1\n9\n-2\n")
        code = main(["ci", "--input", str(path), "--bounds", "0,5", "--risk", "cvar:0.5"])
        assert code == 4
        assert capsys.readouterr().err.startswith("data error: sample 9.0 outside declared support [0.0, 5.0]")

    @pytest.mark.parametrize("method", ["dist", "llc", "glc", "all"])
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--bounds", "0,5", "--delta", "1e-320"], "the dkw radius for n=4 and delta=1e-320 on [0.0, 5.0] is not finite"),
            (["--bounds=-1e308,1e308", "--distance", "w1"],
             "support bounds need a finite width b - a, got [-1e+308, 1e+308]"),
            (["--bounds", "0,1e308", "--distance", "w1", "--delta", "1e-300"],
             "the scaled-dkw radius for n=4 and delta=1e-300 on [0.0, 1e+308] is not finite"),
        ],
        ids=["delta", "bounds", "width-times-radius"],
    )
    def test_overflowing_radius_is_usage_error(self, args, message, method, tmp_path, capsys):
        # Once written as "radius": Infinity, which is not JSON.
        path = tmp_path / "wide.csv"
        path.write_text("1\n2\n3\n4\n")
        code = main(["ci", "--input", str(path), "--risk", "cvar:0.5", "--method", method] + args)
        assert code == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_bad_risk_string_is_usage_error(self, samples_csv):
        code = main(["ci", "--input", samples_csv, "--bounds", "0,5", "--risk", "quantiles:0.5"])
        assert code == 2

    def test_unsupported_combination_exit_code(self, samples_csv):
        code = main([
            "ci", "--input", samples_csv, "--bounds", "0,5", "--risk", "rdeu-power:2,2",
            "--distance", "w1", "--method", "dist",
        ])
        assert code == 3

    def test_negative_lower_bound(self, tmp_path, capsys):
        path = tmp_path / "signed.csv"
        path.write_text("-0.5\n0.25\n0.75\n")
        argv = ["ci", "--input", str(path), "--risk", "cvar:0.5"]
        assert main(argv + ["--bounds=-1,1"]) == 0
        expected = bound_from_samples(
            [-0.5, 0.25, 0.75], SupportBounds(-1.0, 1.0), CVaR(0.5), Distance.SUPREMUM, BoundMethod.DIST, 0.05
        )
        assert json.loads(capsys.readouterr().out) == expected.to_json()
        # argparse reads a separate "-1,1" as an option
        assert main(argv + ["--bounds", "-1,1"]) == 2
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", ["0,1", "-1,1"])
    def test_rdeu_w1_llc_unsupported(self, bounds, tmp_path, capsys):
        # On [-1, 1] v(x) = x^2 is not increasing, which evaluating the
        # point would reject (exit 2); the combination is reported first.
        path = tmp_path / "unit.csv"
        path.write_text("0.25\n0.75\n")
        code = main(["ci", "--input", str(path), f"--bounds={bounds}", "--risk", "rdeu-power:2,2",
                     "--distance", "w1", "--method", "llc"])
        assert code == 3
        assert capsys.readouterr().err == (
            "unsupported combination: rank-dependent expected utility has no local "
            "Lipschitz constant over W1 balls; use the glc method\n"
        )

    def test_radius_distance_mismatch_usage(self, capsys):
        # One shared rule check for all three commands; ci exits before it
        # reads its (here missing) input.
        commands = [
            ["ci", "--input", "/nonexistent.csv", "--bounds", "0,5"],
            ["sweep", "--dist", "beta:2,5", "--bounds", "0,1", "--n", "10", "--seeds", "1"],
            ["coverage", "--dist", "beta:2,5", "--bounds", "0,1", "--n", "10", "--trials", "1"],
        ]
        for argv in commands:
            for distance, radius in [("sup", "scaled-dkw"), ("sup", "fact22"), ("w1", "dkw")]:
                code = main(argv + ["--risk", "cvar:0.5", "--distance", distance, "--radius", radius])
                assert code == 2, (argv[0], distance, radius)
                err = capsys.readouterr().err
                assert err.startswith("usage error: ")
                assert "W1" in err and "sup" in err


# Runs ``ci --method all`` (glc alone for RDEU over W1) for each family and
# distance on the file argv[1], printing every output in turn.
_EVERY_CI = """
import contextlib, io, sys
from riskbounds.cli import main

out = io.StringIO()
for risk in sys.argv[2:]:
    for distance in ("sup", "w1"):
        method = "glc" if risk.startswith("rdeu") and distance == "w1" else "all"
        argv = ["ci", "--input", sys.argv[1], "--bounds", "0,1", "--risk", risk, "--distance", distance, "--method", method]
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
sys.stdout.write(out.getvalue())
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product of this length across its threads, so a
    # sum handed to it would change its last bits with their number.
    x = np.random.default_rng(26).beta(2.0, 5.0, 200_000)
    path = tmp_path / "s.csv"
    path.write_text("".join(f"{v!r}\n" for v in x.tolist()))
    src = str(Path(riskbounds.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _EVERY_CI, str(path), *_FAMILIES], env=env, capture_output=True, check=False,
        )
        assert run.returncode == 0, run.stderr.decode()
        outputs.append(run.stdout)
    assert outputs[0].count(b'"method"') == 34  # 6 families x 2 distances x 3 methods, less 2 for RDEU over W1
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("confstr", [mock.Mock(side_effect=ValueError("unrecognized configuration name")),
                                     mock.Mock(return_value=None), mock.Mock(side_effect=AttributeError)])
def test_allocator_left_alone_off_glibc(confstr):
    # Without glibc's version string there is no mallopt to call.
    with mock.patch.object(cli.os, "confstr", confstr, create=True), \
            mock.patch.object(cli.ctypes, "CDLL", side_effect=AssertionError("mallopt looked up")):
        cli._keep_freed_pages.__wrapped__()
    confstr.assert_called_once_with("CS_GNU_LIBC_VERSION")


class TestSweep:
    def test_schema_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "sweep", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", "cvar:0.25",
            "--distance", "sup", "--method", "all", "--delta", "0.05",
            "--n", "50,100", "--seeds", "2",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "n,seed,method,lcb,ucb,point,true_risk,covered"
        assert len(lines) == 1 + 2 * 2 * 3
        for line in lines[1:]:
            n, seed, method, lcb, ucb, point, truth, covered = line.split(",")
            assert float(lcb) <= float(point) <= float(ucb)
            assert covered in {"0", "1"}

    def test_dirac_sweep_degenerate_widths(self, tmp_path):
        out = tmp_path / "dirac.csv"
        code = main([
            "sweep", "--dist", "dirac:0.5", "--bounds", "0,1", "--risk", "cvar:0.25",
            "--method", "glc", "--n", "2000", "--seeds", "1", "--delta", "0.05",
            "--out", str(out),
        ])
        assert code == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        lcb, ucb, point = map(float, row[3:6])
        # Dirac EDF: point exact, width 2 L c (unclamped at this n)
        c = math.sqrt(math.log(40.0) / 4000.0)
        assert point == 0.5
        assert ucb - lcb == pytest.approx(2 * 4.0 * c, abs=1e-12)

    def test_bad_n_usage(self):
        for n in ["100,50", "3,3"]:
            assert main(["sweep", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", "cvar:0.5", "--n", n]) == 2, n


class TestCoverage:
    def test_dirac_full_coverage(self, capsys):
        code = main([
            "coverage", "--dist", "dirac:0.4", "--bounds", "0,1", "--risk", "cvar:0.25",
            "--method", "dist", "--n", "20", "--trials", "40", "--delta", "0.05",
        ])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["coverage"] == 1.0

    def test_delta_one_reports_without_assert(self, capsys):
        code = main([
            "coverage", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", "cvar:0.25",
            "--method", "dist", "--n", "40", "--trials", "30", "--delta", "1.0",
        ])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert 0.0 <= blob["coverage"] <= 1.0

    @pytest.mark.parametrize("risk", ["erm:1", "ce-power:2"])
    def test_beta_shape_below_one(self, risk, capsys):
        # beta(0.5, 2) has an infinite density at 0; its true risk comes from the quantile.
        if risk == "erm:1":
            closed = float(mpmath.log(mpmath.hyp1f1(0.5, 2.5, 1.0)))
        else:
            closed = math.sqrt(0.5 * 1.5 / (2.5 * 3.5))  # E[Z^2] = A(A+1) / ((A+B)(A+B+1))
        code = main(["coverage", "--dist", "beta:0.5,2", "--bounds", "0,1", "--risk", risk, "--n", "50", "--trials", "3"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["true_risk"] == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("risk", ["drm-power:0.5", "rdeu-power:2,2"])
    def test_far_tail_truncnormal_cdf(self, risk, capsys):
        # Both normal probabilities at the bounds round to 1; the cdf-based
        # true risks must still resolve.
        code = main(["coverage", "--dist", "truncnormal:-9,1", "--bounds", "0,1", "--risk", risk, "--n", "5",
                     "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert 0.0 < json.loads(captured.out)["true_risk"] < 1.0

    def test_small_beta_run(self, capsys):
        code = main([
            "coverage", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", "cvar:0.1",
            "--method", "dist", "--n", "200", "--trials", "50", "--delta", "0.05",
        ])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["coverage"] >= 0.9


class TestBandit:
    def test_single_arm_zero_regret(self, tmp_path, capsys):
        payload = {
            "bounds": {"a": 0.0, "b": 1.0},
            "risk": "cvar:0.25",
            "horizon": 30,
            "seed": 0,
            "arms": [{"family": "beta", "params": {"shape_a": 2, "shape_b": 5}}],
        }
        inst = tmp_path / "one.json"
        inst.write_text(json.dumps(payload))
        outdir = tmp_path / "runs"
        code = main(["bandit", "--instance", str(inst), "--variant", "dist", "--seeds", "2", "--out", str(outdir)])
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["variants"]["dist"]["mean_final_regret"] == 0.0
        trace = (outdir / "trace_dist_0.csv").read_text().strip().splitlines()
        assert trace[0] == "round,arm,loss,cum_regret"
        assert len(trace) == 31

    def test_initialization_only_run(self, two_arm_instance, tmp_path):
        payload = json.loads(Path(two_arm_instance).read_text())
        payload["horizon"] = 2
        inst = tmp_path / "init.json"
        inst.write_text(json.dumps(payload))
        outdir = tmp_path / "runs2"
        code = main(["bandit", "--instance", str(inst), "--variant", "dist", "--seeds", "1", "--out", str(outdir)])
        assert code == 0
        rows = (outdir / "trace_dist_0.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["0", "1"]

    def test_all_variants_aggregate(self, two_arm_instance, tmp_path):
        outdir = tmp_path / "runs3"
        code = main(["bandit", "--instance", two_arm_instance, "--variant", "all", "--seeds", "2", "--out", str(outdir)])
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert set(summary["variants"]) == {"dist", "llc", "glc"}
        assert "regret_budget" in summary
        curves = (outdir / "aggregate_curves.csv").read_text().strip().splitlines()
        assert curves[0] == "round,variant,mean_cum_regret,std_cum_regret"
        assert len(curves) == 1 + 3 * 60

    def test_erm_infinite_local_constant(self, two_arm_instance, tmp_path):
        # b - x = 0.8 and beta = 1e4: the local constant is beyond the float range
        payload = {**json.loads(Path(two_arm_instance).read_text()), "risk": "erm:1e4"}
        inst = tmp_path / "erm.json"
        inst.write_text(json.dumps(payload))
        assert main(["bandit", "--instance", str(inst), "--variant", "llc", "--out", str(tmp_path / "erm")]) == 0

    def test_overflowing_width_is_data_error(self, two_arm_instance, tmp_path, capsys):
        payload = {**json.loads(Path(two_arm_instance).read_text()), "bounds": {"a": -1e308, "b": 1e308}}
        inst = tmp_path / "wide.json"
        inst.write_text(json.dumps(payload))
        assert main(["bandit", "--instance", str(inst), "--out", str(tmp_path / "x")]) == 4
        err = capsys.readouterr().err
        assert err == f"data error: bad instance file {inst}: support bounds need a finite width b - a, got [-1e+308, 1e+308]\n"

    def test_bad_instance_is_data_error(self, two_arm_instance, tmp_path, capsys):
        good = json.loads(Path(two_arm_instance).read_text())
        bad_payloads = [
            "{not json",
            {**good, "arms": [1]},
            {**good, "bounds": [0, 1]},
            {**good, "arms": [{"family": "dirac", "params": [0.5]}]},
            [good],
            {**good, "risk": 0.25},
            {**good, "seed": -1},
            {**good, "horizon": 99.9},
            {**good, "seed": 2.7},
            {**good, "arms": [{"family": "beta", "params": {"shape_a": math.nan, "shape_b": 2}}]},
            {**good, "risk": "cvar:1e-17"},
            {**good, "arms": [{"family": "truncnormal", "params": {"mu": -50, "sigma": 0.1}}]},
        ]
        bad = tmp_path / "bad.json"
        for payload in bad_payloads:
            bad.write_text(payload if isinstance(payload, str) else json.dumps(payload))
            assert main(["bandit", "--instance", str(bad), "--out", str(tmp_path / "x")]) == 4, payload
            err = capsys.readouterr().err
            assert err.startswith("data error: ")
            assert "Traceback" not in err


class TestUnwritableOut:
    """An --out path that cannot be written is a data error with a one-line
    message, for every command."""

    @pytest.mark.parametrize(
        "command, target",
        [("ci", "missing"), ("ci", "directory"), ("sweep", "missing"), ("coverage", "missing"),
         ("bandit", "file")],
    )
    def test_data_error(self, command, target, samples_csv, two_arm_instance, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        (tmp_path / "directory").mkdir()
        out = str(tmp_path / {"missing": "no/such/dir/x.out", "directory": "directory", "file": "file"}[target])
        ball = ["--bounds", "0,5", "--risk", "cvar:0.5", "--out", out]
        argv = {
            "ci": ["ci", "--input", samples_csv, *ball],
            "sweep": ["sweep", "--dist", "uniform:1,4", "--n", "5", "--seeds", "1", *ball],
            "coverage": ["coverage", "--dist", "uniform:1,4", "--n", "5", "--trials", "1", *ball],
            "bandit": ["bandit", "--instance", two_arm_instance, "--out", out],
        }[command]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err


class TestParser:
    def test_default_methods(self):
        ball = ["--bounds", "0,1", "--risk", "cvar:0.5"]
        cases = [
            (["ci", "--input", "s.csv", *ball], "method", "dist"),
            (["sweep", "--dist", "beta:2,5", *ball, "--n", "10"], "method", "all"),
            (["coverage", "--dist", "beta:2,5", *ball, "--n", "10", "--trials", "1"], "method", "dist"),
            (["bandit", "--instance", "i.json", "--out", "runs"], "variant", "all"),
        ]
        for argv, dest, default in cases:
            assert getattr(build_parser().parse_args(argv), dest) == default, argv[0]

    def test_arm_strings_match_instance_files(self):
        pairs = [
            ("dirac:0.3", {"family": "dirac", "params": {"x": 0.3}}),
            ("uniform:0.1,0.9", {"family": "uniform", "params": {"lo": 0.1, "hi": 0.9}}),
            ("beta:2,5", {"family": "beta", "params": {"shape_a": 2, "shape_b": 5}}),
            ("truncnormal:0.4,0.1", {"family": "truncnormal", "params": {"mu": 0.4, "sigma": 0.1}}),
        ]
        for text, arm_obj in pairs:
            inst = instance_from_dict(
                {"bounds": {"a": 0, "b": 1}, "risk": "cvar:0.5", "horizon": 5, "arms": [arm_obj]}
            )
            assert _parse_arm(text) == inst.arms[0], text


class TestDomainErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            # n below log(1/delta) for the direct W1 radius
            ["coverage", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", "cvar:0.1", "--distance", "w1",
             "--radius", "fact22", "--n", "2", "--trials", "3", "--delta", "0.01"],
            # delta outside (0, 2]
            ["sweep", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", "cvar:0.1", "--n", "10", "--seeds", "2",
             "--delta", "3"],
            # sampling distribution outside the bounds
            ["sweep", "--dist", "uniform:0.5,2", "--bounds", "0,1", "--risk", "cvar:0.1", "--n", "10",
             "--seeds", "2"],
            # delta outside (0, 2] is an argument fault, not a data fault
            ["ci", "--input", "SAMPLES", "--bounds", "0,5", "--risk", "cvar:0.5", "--delta", "3"],
            # a truncated normal with no probability mass inside the bounds
            ["coverage", "--dist", "truncnormal:-50,0.1", "--bounds", "0,1", "--risk", "cvar:0.25", "--n", "5",
             "--trials", "1"],
            ["coverage", "--dist", "truncnormal:-50,0.1", "--bounds", "0,1", "--risk", "drm-power:0.5", "--n", "5",
             "--trials", "1"],
        ],
    )
    def test_usage_exit_without_traceback(self, argv, samples_csv, capsys):
        assert main([samples_csv if a == "SAMPLES" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert "Traceback" not in err


_SWEEP = ["sweep", "--bounds", "0,1", "--risk", "cvar:0.25", "--seeds", "2"]
_COVERAGE = ["coverage", "--bounds", "0,1", "--risk", "cvar:0.25", "--trials", "2"]


class TestArgumentMessages:
    """Argument faults that the grammar test reaches only on some draws, or
    never: each exits 2 with its own message."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (_SWEEP + ["--dist", "beta:2,5", "--n", "x"], "--n expects integers like '100,1000', got 'x'"),
            (_COVERAGE + ["--dist", "beta:2,5", "--n", "5", "--method", "all"],
             "coverage runs one method at a time"),
            (_SWEEP + ["--dist", "beta:2,5", "--n", "5", "--seeds", "0"], "--seeds must be >= 1"),
            (["bandit", "--instance", "INSTANCE", "--out", "OUT", "--seeds", "0"], "--seeds must be >= 1"),
            (_COVERAGE + ["--dist", "beta:2,5", "--n", "0"], "--n and --trials must be positive"),
            (_COVERAGE + ["--dist", "beta:2,5", "--n", "5", "--trials", "0"], "--n and --trials must be positive"),
            (_SWEEP + ["--dist", "beta", "--n", "5"], "distribution spec 'beta' must look like 'family:params'"),
            (_COVERAGE + ["--dist", "beta:x,1", "--n", "5"], "bad numeric parameters in 'beta:x,1'"),
            (_SWEEP + ["--dist", "poisson:3", "--n", "5"], "unknown distribution spec 'poisson:3'"),
            (_SWEEP + ["--dist", "beta:0,1", "--n", "5"], "beta shapes must be positive"),
            (_COVERAGE + ["--dist", "truncnormal:0.5,0", "--n", "5"], "truncated normal needs sigma > 0"),
            (_SWEEP + ["--dist", "beta:2,5", "--n", "5", "--bounds", "0"],
             "--bounds expects 'a,b' with a < b, got '0'"),
        ],
        ids=["sweep-n", "coverage-all", "sweep-seeds", "bandit-seeds", "coverage-n", "coverage-trials",
             "dist-no-colon", "dist-not-numeric", "dist-unknown", "beta-shape", "truncnormal-sigma",
             "bounds-split"],
    )
    def test_usage_error(self, argv, message, two_arm_instance, tmp_path, capsys):
        places = {"INSTANCE": two_arm_instance, "OUT": str(tmp_path / "out")}
        assert main([places.get(a, a) for a in argv]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"


class TestQuadratureFailure:
    """A true risk the quadrature cannot resolve is a fault of the arguments
    (sweep, coverage) or of the instance file (bandit), never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["coverage", "--dist", "beta:2,5", "--bounds", "0,1000", "--risk", "rdeu-power:3,3", "--n", "5",
              "--trials", "1"], "quadrature failed to resolve [0.0, 1000.0] to 1e-09 in 4194304 panels\n"),
            (["sweep", "--dist", "uniform:0.1,0.9", "--bounds", "0,1e8", "--risk", "rdeu-power:3,3", "--n", "5",
              "--seeds", "1"], "quadrature failed to resolve [0.0, 100000000.0] to 1e-09; leftover "),
        ],
        ids=["coverage", "sweep"],
    )
    def test_usage_error(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {message}") and err.count("\n") == 1, err

    def test_overflowing_integrand_reported_once(self, capsys):
        # u(x) = x^3 overflows on [0, 1e200]: the usage error is the only
        # report, with no numpy floating-point warning before it.
        argv = ["coverage", "--dist", "beta:2,5", "--bounds", "0,1e200", "--risk", "ce-power:3", "--n", "5",
                "--trials", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err == "usage error: integrand not finite at 0.03125\n", err

    def test_instance_file_data_error(self, two_arm_instance, tmp_path, capsys):
        payload = {
            **json.loads(Path(two_arm_instance).read_text()),
            "bounds": {"a": 0.0, "b": 1e8},
            "risk": "rdeu-power:3,3",
            "arms": [{"family": "uniform", "params": {"lo": 0.1, "hi": 0.9}}],
        }
        inst = tmp_path / "wide.json"
        inst.write_text(json.dumps(payload))
        assert main(["bandit", "--instance", str(inst), "--out", str(tmp_path / "x")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("data error: quadrature failed to resolve [0.0, 100000000.0] to 1e-09; leftover ")
        assert err.count("\n") == 1, err


@pytest.fixture(scope="module")
def grammar_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("grammar")
    files = {
        "good": "0.1\n0.5\n0.5\n0.9\n",
        "edge": "0\n1\n",
        "outside": "0.2\n7\n",
        "text": "0.2\nabc\n",
        "nan": "0.2\nnan\n",
        "empty": "",
    }
    paths = []
    for name, text in files.items():
        path = root / f"{name}.csv"
        path.write_text(text)
        paths.append(str(path))
    return paths + [str(root / "missing.csv")]


# flag -> (valid values, faulty values); combinations of valid values still
# include mismatches such as a W1 radius rule for the supremum distance.
_COMMON = {
    "--bounds": (["0,1", "0,5", "-1,1"], ["1,0", "0,0", "0", "a,b", "0,inf", "nan,1"]),
    "--risk": (
        ["cvar:0.25", "cvar:1", "erm:1", "erm:-2", "srm-power:2", "drm-power:0.5", "ce-power:2",
         "rdeu-power:2,2"],
        ["cvar:0", "cvar:1.5", "cvar:x", "erm:0", "quantiles:0.5"],
    ),
    "--distance": (["sup", "w1"], ["l2"]),
    "--method": (["dist", "llc", "glc", "all"], ["best"]),
    "--radius": (["dkw", "scaled-dkw", "fact22"], ["dk"]),
    "--delta": (["0.05", "0.5", "1", "2"], ["3", "0", "-0.1", "nan", "x"]),
}
_DISTS = (
    ["beta:2,5", "beta:0.5,2", "uniform:0.2,0.8", "dirac:0.5", "truncnormal:0.5,0.2"],
    ["uniform:0.5,2", "beta:-1,2", "beta:nan,2", "truncnormal:0.5,inf", "truncnormal:-50,0.1", "poisson:3",
     "beta"],
)
_SEED = (["0", "7"], ["-1", "x"])
_BY_COMMAND = {
    "sweep": {
        "--dist": _DISTS,
        "--n": (["5,20", "1", "50"], ["20,5", "3,3", "0", "-3", "a"]),
        "--seeds": (["1", "2"], ["0", "-1", "x"]),
        "--seed": _SEED,
    },
    "coverage": {
        "--dist": _DISTS,
        "--n": (["1", "2", "20", "50"], ["0", "-1", "x"]),
        "--trials": (["1", "5"], ["0", "x"]),
        "--seed": _SEED,
    },
}
_OPTIONAL = {"--distance", "--method", "--radius", "--delta", "--seeds", "--seed"}


@st.composite
def _cli_argv(draw, inputs):
    """A ci/sweep/coverage command line: valid values, at most one faulty."""
    command = draw(st.sampled_from(["ci", "sweep", "coverage"]))
    grammar = {**_COMMON, **_BY_COMMAND.get(command, {"--input": (inputs[:2], inputs[2:])})}
    faulty = draw(st.one_of(st.none(), st.sampled_from(sorted(grammar))))
    argv = [command]
    for flag, (valid, bad) in grammar.items():
        if flag in _OPTIONAL and flag != faulty and draw(st.booleans()):
            continue
        argv += [flag, draw(st.sampled_from(bad if flag == faulty else valid))]
    return argv


class TestGrammar:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_documented_exit_without_traceback(self, grammar_inputs, data):
        argv = data.draw(_cli_argv(grammar_inputs))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in {0, 2, 3, 4}, (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
