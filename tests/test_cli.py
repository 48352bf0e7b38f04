import contextlib
import io
import json
import math
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds import BoundMethod, CVaR, Distance, SupportBounds, bound_from_samples, instance_from_dict
from riskbounds.cli import _parse_arm, build_parser, main

B05 = SupportBounds(0.0, 5.0)


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

    def test_cvar_level_below_float_resolution_usage(self, samples_csv, capsys):
        code = main(["ci", "--input", samples_csv, "--bounds", "0,5", "--risk", "cvar:1e-17", "--method", "all"])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: CVaR level 1e-17 is too small")

    def test_degenerate_delta(self, samples_csv, capsys):
        code = main([
            "ci", "--input", samples_csv, "--bounds", "0,5", "--risk", "cvar:0.5",
            "--delta", "2",
        ])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["lcb"] == blob["ucb"] == blob["point"]

    def test_missing_file_is_data_error(self, capsys):
        code = main(["ci", "--input", "/nonexistent.csv", "--bounds", "0,5", "--risk", "cvar:0.5"])
        assert code == 4

    def test_sample_outside_bounds_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1\n9\n")
        code = main(["ci", "--input", str(path), "--bounds", "0,5", "--risk", "cvar:0.5"])
        assert code == 4

    def test_bad_risk_string_is_usage_error(self, samples_csv):
        code = main(["ci", "--input", samples_csv, "--bounds", "0,5", "--risk", "quantiles:0.5"])
        assert code == 2

    def test_unsupported_combination_exit_code(self, samples_csv):
        code = main([
            "ci", "--input", samples_csv, "--bounds", "0,5", "--risk", "rdeu-power:2,2",
            "--distance", "w1", "--method", "dist",
        ])
        assert code == 3

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
        ]
        bad = tmp_path / "bad.json"
        for payload in bad_payloads:
            bad.write_text(payload if isinstance(payload, str) else json.dumps(payload))
            assert main(["bandit", "--instance", str(bad), "--out", str(tmp_path / "x")]) == 4, payload
            err = capsys.readouterr().err
            assert err.startswith("data error: ")
            assert "Traceback" not in err


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
        ],
    )
    def test_usage_exit_without_traceback(self, argv, samples_csv, capsys):
        assert main([samples_csv if a == "SAMPLES" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert "Traceback" not in err


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
    ["uniform:0.5,2", "beta:-1,2", "beta:nan,2", "truncnormal:0.5,inf", "poisson:3", "beta"],
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
