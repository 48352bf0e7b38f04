"""A compact corpus of ``riskbounds`` command lines, with the files they read.

Between them the commands run every subcommand; every risk family under
both distances with every method, and ``coverage``'s block path under
each supremum-ball method, with shifted, negative and subnormal ERM
betas and a row that takes its own ``llc``; ``--radius fact22``; a zero
radius;
sample files with a header line, in ``%.18e,`` format and of decimals
with no digit on one side of the dot or with leading zeros; every arm
family, including a CVaR bandit instance whose suboptimal arms are a Dirac
and a discrete arm, so that the regret budget reads their quantiles; and
the argument and input-file faults that the CLI checks. Each command
carries the exit code it must end with, and ``run`` checks it.

Usage, from the repository root::

    python tests/cli_corpus.py

runs the corpus in a temporary directory under ``sys.setprofile`` (and
``threading.setprofile``, for the threads it starts) and prints the
functions of ``src/riskbounds`` that it called, one a line, as
``module.qualname`` (``co_qualname``: Python 3.11 or later).
``tests/test_hygiene.py`` runs it so, in a fresh interpreter, where no
cache warmed by another test can hide a call; ``python
tests/trace_statements.py --cli`` runs the corpus under its line tracer.

The file name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riskbounds"

FAMILIES = ("cvar:0.25", "srm-power:2", "drm-power:0.5", "erm:1", "ce-power:2", "rdeu-power:2,2")
# Samples on [0, 1], with one tie.
_SAMPLES = (0.12, 0.31, 0.05, 0.77, 0.4, 0.58, 0.31, 0.93, 0.26, 0.64, 0.19, 0.45, 0.82, 0.37, 0.51)


def _instance(path: Path, arms: list[dict], **fields) -> str:
    payload = {"bounds": {"a": 0.0, "b": 1.0}, "risk": "cvar:0.25", "horizon": 40, "seed": 1, "arms": arms, **fields}
    path.write_text(json.dumps(payload))
    return str(path)


def commands(root: Path) -> list[tuple[list[str], int]]:
    """Write the corpus's input files into ``root`` and return its commands,
    each as (argv, expected exit code)."""
    plain, header, sci, bare = root / "plain.csv", root / "header.csv", root / "sci.csv", root / "bare.csv"
    plain.write_text("".join(f"{x!r}\n" for x in _SAMPLES))
    header.write_text("loss\n" + "".join(f"{x!r}\n" for x in _SAMPLES))
    sci.write_text("".join(f"{x:.18e},\n" for x in _SAMPLES) + "\n")  # and a blank line
    bare.write_text("5.\n.5\n007.250\n0.0125\n00.\n")  # no digit on one side, or zero-padded
    cvar = _instance(root / "cvar.json", [
        {"family": "truncnormal", "params": {"mu": 0.2, "sigma": 0.1}},
        {"family": "dirac", "params": {"x": 0.8}},
        {"family": "discrete", "params": {"atoms": [{"x": 0.5, "p": 0.5}, {"x": 0.9, "p": 0.5}]}},
    ], horizon=120)  # long enough for the llc index to read a sample quantile
    srm = _instance(root / "srm.json", [
        {"family": "beta", "params": {"shape_a": 2, "shape_b": 5}},
        {"family": "uniform", "params": {"lo": 0.3, "hi": 0.9}},
    ], risk="srm-power:2", horizon=40.0)  # a whole number written as a float

    ci = ["ci", "--input", str(plain), "--bounds", "0,1"]
    out = []
    for risk in FAMILIES:
        for distance in ("sup", "w1"):
            argv = ci + ["--risk", risk, "--distance", distance]
            if risk.startswith("rdeu") and distance == "w1":
                out += [(argv + ["--method", "glc"], 0), (argv + ["--method", "dist"], 3), (argv + ["--method", "llc"], 3)]
            else:
                out.append((argv + ["--method", "all"], 0))
    out += [
        (ci + ["--risk", "cvar:0.25", "--distance", "w1", "--radius", "fact22", "--out", str(root / "ci.json")], 0),
        # delta = 2: radius 0, which the four operators return at once.
        (ci + ["--risk", "cvar:0.25", "--method", "all", "--delta", "2"], 0),
        (ci + ["--risk", "cvar:0.25", "--distance", "w1", "--method", "all", "--delta", "2"], 0),
        (["ci", "--input", str(header), "--header", "--bounds", "0,1", "--risk", "srm-power:2"], 0),
        (["ci", "--input", str(sci), "--bounds", "0,1", "--risk", "erm:1", "--method", "llc"], 0),
        (["ci", "--input", str(bare), "--bounds", "0,10", "--risk", "cvar:0.25"], 0),
        (["sweep", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", "cvar:0.25", "--n", "5,10", "--seeds", "3"], 0),
        (["sweep", "--dist", "uniform:0.1,0.9", "--bounds", "0,1", "--risk", "drm-power:0.5", "--distance", "w1",
          "--n", "8", "--seeds", "2", "--out", str(root / "sweep.csv")], 0),
        (["sweep", "--dist", "dirac:0.3", "--bounds", "0,1", "--risk", "srm-power:2", "--n", "4", "--seeds", "2"], 0),
        (["coverage", "--dist", "truncnormal:0.4,0.15", "--bounds", "0,1", "--risk", "rdeu-power:2,2",
          "--n", "10", "--trials", "3"], 0),
        (["coverage", "--dist", "truncnormal:0.4,0.15", "--bounds", "0,1", "--risk", "ce-power:2",
          "--method", "glc", "--n", "10", "--trials", "3"], 0),
        (["coverage", "--dist", "beta:2,2", "--bounds", "0,1", "--risk", "erm:1", "--distance", "w1",
          "--radius", "fact22", "--method", "llc", "--n", "10", "--trials", "3"], 0),
        (["coverage", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", "drm-power:0.5", "--n", "10", "--trials", "3"], 0),
        (["coverage", "--dist", "uniform:0.2,0.7", "--bounds", "0,1", "--risk", "srm-power:2", "--n", "10", "--trials", "3"], 0),
        # The block path's supremum-ball llc rows, and its ERM rows that are
        # shifted (beta = 500), negative or below |beta| = 2^-1000.
        *[(["coverage", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", risk, "--method", method, "--n", "10",
            "--trials", "3"], 0) for risk, method in (("erm:500", "dist"), ("erm:-2", "dist"), ("erm:1e-310", "dist"),
                                                      ("erm:1", "llc"), ("ce-power:2", "llc"), ("rdeu-power:2,2", "llc"))],
        # v(x) = x^2 rounds some of these samples' squares together, so a
        # row's steps of v differ from the first row's and it takes its own llc.
        (["coverage", "--dist", "uniform:0,1e-161", "--bounds", "0,1", "--risk", "rdeu-power:2,2", "--method", "llc",
          "--n", "10", "--trials", "3"], 0),
        (["bandit", "--instance", cvar, "--seeds", "2", "--out", str(root / "cvar")], 0),
        (["bandit", "--instance", srm, "--out", str(root / "srm")], 0),
    ]
    return out + _faults(root, ci)


def _faults(root: Path, ci: list[str]) -> list[tuple[list[str], int]]:
    """Commands that the CLI rejects: its argument and input-file checks."""
    usage = [ci + ["--risk", "cvar:0.25"] + args for args in (
        ["--delta", "1e-320"], ["--delta", "3"], ["--distance", "manhattan"],
        ["--distance", "w1", "--radius", "fact22", "--delta", "1.5"],
        ["--distance", "w1", "--radius", "fact22", "--delta", "1e-10"],
        ["--radius", "fact22"], ["--distance", "w1", "--radius", "dkw"],
        ["--bounds", "0"], ["--bounds", "1,0"], ["--bounds", "inf,1"], ["--bounds=-1e308,1e308"],
    )]
    usage += [ci + ["--risk", risk] for risk in (
        "cvar", "cvar:x", "var:0.1", "cvar:0.1,2", "cvar:1.5", "cvar:1e-20", "erm:0",
        "srm-power:0.5", "drm-power:2", "ce-power:0.5", "rdeu-power:0.5,1",
    )]
    usage += [ci + ["--risk", risk, bounds] for risk in ("ce-power:2", "rdeu-power:2,2")
              for bounds in ("--bounds=-1,1", "--bounds=0,1e308")]  # not monotone; not finite
    sweep = ["sweep", "--bounds", "0,1", "--risk", "cvar:0.25", "--seeds", "2"]
    usage += [sweep + ["--n", "5", "--dist", dist] for dist in (
        "beta", "beta:x,1", "poisson:3", "dirac:2", "uniform:0.5,0.2", "beta:0,1", "beta:inf,1",
        "truncnormal:0.5,0", "truncnormal:nan,1", "truncnormal:-50,0.1",
    )]
    usage += [sweep + ["--dist", "beta:2,5"] + args for args in (["--n", "x"], ["--n", "10,5"], ["--n", "5", "--seeds", "0"])]
    coverage = ["coverage", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", "cvar:0.25", "--trials", "2"]
    usage += [coverage + ["--n", "5", "--method", "all"], coverage + ["--n", "0"]]

    files = {"empty": "", "word": "1\nabc\n", "nan": "nan\n", "outside": "0.5\n7\n-2\n", "dot": ".\n"}
    for name, text in files.items():
        (root / f"{name}.csv").write_text(text)
    data = [["ci", "--input", str(root / f"{name}.csv"), "--bounds", "0,1", "--risk", "cvar:0.25"]
            for name in [*files, "missing"]]
    dirac = [{"family": "dirac", "params": {"x": 0.5}}]
    for i, (arms, fields) in enumerate([
        (dirac, {"bounds": {"a": -1e308, "b": 1e308}}), (dirac, {"risk": 0.25}), (dirac, {"horizon": 2.5}),
        (dirac, {"seed": -1}), ([], {}), (dirac * 2, {"horizon": 1}), ([{"family": "poisson"}], {}),
    ]):
        path = _instance(root / f"fault{i}.json", arms, **fields)
        data.append(["bandit", "--instance", path, "--out", str(root / f"fault{i}")])
    (root / "broken.json").write_text("{")
    data.append(["bandit", "--instance", str(root / "broken.json"), "--out", str(root / "broken")])
    ok = _instance(root / "ok.json", dirac)
    usage.append(["bandit", "--instance", ok, "--out", str(root / "ok"), "--seeds", "0"])
    return [(argv, 2) for argv in usage] + [(argv, 4) for argv in data]


def run(root: Path) -> None:
    """Run the corpus through ``riskbounds.cli.main`` in this process;
    AssertionError names the first command that ends with another exit
    code than its own."""
    from riskbounds import cli

    for argv, expected in commands(root):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code == expected, f"{argv}: exit {code}, not {expected}: {stderr.getvalue()}"


def called_functions() -> list[str]:
    """The functions of ``src/riskbounds`` that the corpus calls, as
    ``module.qualname``. Profiling starts before the package is imported,
    so a call made while importing counts."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # Threads started under it (the sample reader's workers) profile too.
    with tempfile.TemporaryDirectory() as tmp:
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            run(Path(tmp))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    prefix = str(PACKAGE) + os.sep
    return sorted({
        f"{Path(code.co_filename).stem}.{code.co_qualname}"
        for code in codes
        if os.path.realpath(code.co_filename).startswith(prefix)
    })


if __name__ == "__main__":
    sys.path.insert(0, str(PACKAGE.parent))
    print("\n".join(called_functions()))
