"""The benchmark's three workloads: their inputs, operations and output checks.

Every workload is a fixed mix of ``riskbounds`` CLI commands (one pass).
Inputs come only from the benchmark seed: operation ``j`` of pass ``p``
draws its data seeds from ``default_rng([seed, p, j])``, so a rerun with the
same seed replays the same commands on the same data.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Interval nesting and point consistency are checked to the package's own
# chain tolerance.
CHAIN_TOL = 1e-9

FAMILIES = ["cvar:0.05", "srm-power:2", "drm-power:0.5", "erm:1", "ce-power:2", "rdeu-power:2,2"]
BOUNDS = {"a": 0.0, "b": 1.0}
CI_SAMPLES = 10**6
CI_ALPHA = 0.05
# The package's CVaR weights come from a running sum of 10^6 masses of
# 1/n, which drifts by up to n * eps; through the 1/alpha tail weight on a
# support of width 1 that bounds the error of the point against an exact
# tail average. (With the current package the drift shows as ~1e-10.)
CVAR_TOL = CI_SAMPLES * float(np.finfo(np.float64).eps) / CI_ALPHA

# (sampling distribution as an instance arm, risk, distance, method). The mix
# covers all six families, both distances and all three methods, with W1
# extremes (w1 + dist, and w1 + llc, whose constants evaluate neg_w1).
COVERAGE_MIX = [
    ({"family": "beta", "params": {"shape_a": 2.0, "shape_b": 5.0}}, "cvar:0.05", "sup", "dist"),
    ({"family": "beta", "params": {"shape_a": 2.0, "shape_b": 5.0}}, "srm-power:2", "w1", "dist"),
    ({"family": "truncnormal", "params": {"mu": 0.4, "sigma": 0.15}}, "drm-power:0.5", "sup", "llc"),
    ({"family": "beta", "params": {"shape_a": 2.0, "shape_b": 5.0}}, "erm:1", "w1", "llc"),
    ({"family": "uniform", "params": {"lo": 0.1, "hi": 0.9}}, "ce-power:2", "w1", "dist"),
    ({"family": "beta", "params": {"shape_a": 2.0, "shape_b": 5.0}}, "rdeu-power:2,2", "w1", "glc"),
    ({"family": "truncnormal", "params": {"mu": 0.4, "sigma": 0.15}}, "cvar:0.1", "w1", "llc"),
    ({"family": "beta", "params": {"shape_a": 2.0, "shape_b": 5.0}}, "srm-power:2", "sup", "glc"),
    ({"family": "beta", "params": {"shape_a": 2.0, "shape_b": 5.0}}, "rdeu-power:2,2", "sup", "dist"),
    ({"family": "uniform", "params": {"lo": 0.1, "hi": 0.9}}, "erm:2", "sup", "dist"),
]
COVERAGE_N = 1000
COVERAGE_TRIALS = 200
SWEEP = ({"family": "beta", "params": {"shape_a": 2.0, "shape_b": 5.0}}, "drm-power:0.5", "sup")
SWEEP_NS = (100, 1000)
SWEEP_SEEDS = 40
DELTA = 0.05

# Same arms, risk and horizon as the acceptance fixture
# tests/fixtures/bandit_4arm.json; the SRM instance reuses the arms on the
# generic bound path at a shorter horizon.
BANDIT_ARMS = [{"family": "truncnormal", "params": {"mu": mu, "sigma": 0.12}} for mu in (0.25, 0.35, 0.45, 0.55)]
BANDIT_INSTANCES = [("cvar", "cvar:0.25", 10_000), ("srm", "srm-power:2", 2_000)]
VARIANTS = ("dist", "llc", "glc")


def _arm_cli(arm: dict) -> str:
    p = arm["params"]
    if arm["family"] == "beta":
        return f"beta:{p['shape_a']},{p['shape_b']}"
    if arm["family"] == "truncnormal":
        return f"truncnormal:{p['mu']},{p['sigma']}"
    return f"uniform:{p['lo']},{p['hi']}"


def _instance(arms, risk, horizon, seed=0) -> dict:
    return {"bounds": BOUNDS, "risk": risk, "horizon": horizon, "seed": seed, "arms": arms}


def _op_seed(seed: int, pass_idx: int, j: int) -> int:
    return int(np.random.default_rng([seed, pass_idx, j]).integers(2**31))


@dataclass
class Op:
    """One CLI command with what the benchmark needs to count and check it."""

    label: str
    argv: list
    units: int  # work units: samples, intervals or simulated rounds
    inputs: int  # distinct sample arrays the command bounds
    outputs: list  # files whose bytes must repeat on a rerun
    check: Callable[[], list]  # returns the failed checks
    expect: dict = field(default_factory=dict)  # exact traced call counts
    prepare: Callable[[], None] = field(default=lambda: None)  # writes inputs, untimed


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _interval_errors(rows, where) -> list:
    """lcb <= point <= ucb for each row, and for dist/llc/glc rows of one
    input: one shared point and nesting dist in llc in glc."""
    errors = []
    for r in rows:
        if not r["lcb"] <= r["point"] <= r["ucb"]:
            errors.append(f"{where}: {r['method']} interval {r['lcb']}..{r['ucb']} misses point {r['point']}")
    by = {r["method"]: r for r in rows}
    if len({r["point"] for r in rows}) > 1:
        errors.append(f"{where}: methods disagree on the point estimate")
    chain = [by[m] for m in VARIANTS if m in by]
    for inner, outer in zip(chain, chain[1:]):
        if outer["lcb"] > inner["lcb"] + CHAIN_TOL or inner["ucb"] > outer["ucb"] + CHAIN_TOL:
            errors.append(f"{where}: {inner['method']} interval not inside {outer['method']}")
    return errors


class Workload:
    name = ""
    why = ""
    alias = {}  # workload-specific (name, unit) of a generic end-to-end metric

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.observed = {}  # measured check margins, kept in the run record

    def setup(self) -> None:
        """Write the inputs that every pass shares (untimed)."""

    def fill_instances(self) -> list:
        """Instances whose true risks the workload's commands compute."""
        return []

    def ops(self, pass_idx: int) -> list:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError


class CiLarge(Workload):
    name = "ci-large"
    why = "one 10^6-sample CSV bounded for every family and distance: O(m) layers dominate, bandit and oracles bypassed"
    alias = {"op_p50_s": ("ci_p50_s", "s"), "work_per_s": ("ci_samples_per_s", "samples/s")}

    def setup(self):
        x = np.random.default_rng([self.seed, 0xC1]).beta(2.0, 5.0, CI_SAMPLES)
        self.csv_path = os.path.join(self.workdir, "samples.csv")
        with open(self.csv_path, "w", encoding="utf-8") as fh:
            for start in range(0, x.size, 100_000):
                fh.write("\n".join(map(repr, x[start : start + 100_000].tolist())) + "\n")
        # CVaR of the empirical distribution: the top ceil(alpha n) sorted
        # samples, the deepest one entering with the leftover mass.
        tail = np.sort(x)[::-1][: max(math.ceil(CI_ALPHA * x.size - 1e-12), 1)]
        weights = np.full(tail.size, 1.0 / x.size)
        weights[-1] = CI_ALPHA - (tail.size - 1) / x.size
        self.expected_cvar = float(weights @ tail) / CI_ALPHA

    def ops(self, pass_idx):
        out = []
        for risk in FAMILIES:
            for dist in ("sup", "w1"):
                # rank-dependent expected utility has only glc over W1 balls
                method = "glc" if risk.startswith("rdeu") and dist == "w1" else "all"
                path = os.path.join(self.workdir, f"ci_{len(out)}.json")
                argv = ["ci", "--input", self.csv_path, "--bounds", "0,1", "--risk", risk,
                        "--distance", dist, "--method", method, "--delta", str(DELTA), "--out", path]
                methods = 3 if method == "all" else 1
                out.append(Op(f"ci {risk} {dist} {method}", argv, CI_SAMPLES, 1, [path],
                              self._checker(path, risk, methods),
                              expect={"distributions.from_samples": methods}))
        return out

    def _checker(self, path, risk, methods):
        def check():
            payload = _load_json(path)
            rows = payload if isinstance(payload, list) else [payload]
            if len(rows) != methods:
                return [f"{path}: {len(rows)} intervals, expected {methods}"]
            errors = _interval_errors(rows, path)
            if risk.startswith("cvar"):
                error = abs(rows[0]["point"] - self.expected_cvar)
                self.observed["cvar_point_abs_error"] = max(self.observed.get("cvar_point_abs_error", 0.0), error)
                if error > CVAR_TOL:
                    errors.append(f"{path}: CVaR point {rows[0]['point']} != tail average {self.expected_cvar}")
            return errors

        return check

    def sizes(self):
        return {"samples_per_csv": CI_SAMPLES, "commands_per_pass": 2 * len(FAMILIES)}


class McSmall(Workload):
    name = "mc-small"
    why = "thousands of intervals on ~10^3-atom EDFs: fixed per-call cost dominates, same layers as ci-large"
    alias = {"work_per_s": ("mc_bounds_per_s", "intervals/s")}

    def fill_instances(self):
        pairs = [(arm, risk) for arm, risk, _, _ in COVERAGE_MIX] + [SWEEP[:2]]
        return [_instance([arm], risk, 1) for arm, risk in pairs]

    def ops(self, pass_idx):
        out = []
        for j, (arm, risk, dist, method) in enumerate(COVERAGE_MIX):
            path = os.path.join(self.workdir, f"coverage_{j}.json")
            argv = ["coverage", "--dist", _arm_cli(arm), "--bounds", "0,1", "--risk", risk,
                    "--distance", dist, "--method", method, "--n", str(COVERAGE_N),
                    "--trials", str(COVERAGE_TRIALS), "--delta", str(DELTA),
                    "--seed", str(_op_seed(self.seed, pass_idx, j)), "--out", path]
            out.append(Op(f"coverage {risk} {dist} {method}", argv, COVERAGE_TRIALS, COVERAGE_TRIALS,
                          [path], self._coverage_checker(path)))
        arm, risk, dist = SWEEP
        path = os.path.join(self.workdir, "sweep.csv")
        argv = ["sweep", "--dist", _arm_cli(arm), "--bounds", "0,1", "--risk", risk, "--distance", dist,
                "--method", "all", "--n", ",".join(map(str, SWEEP_NS)), "--seeds", str(SWEEP_SEEDS),
                "--delta", str(DELTA), "--seed", str(_op_seed(self.seed, pass_idx, len(out))), "--out", path]
        cells = len(SWEEP_NS) * SWEEP_SEEDS
        out.append(Op(f"sweep {risk} {dist} all", argv, 3 * cells, cells, [path], self._sweep_checker(path)))
        return out

    @staticmethod
    def _coverage_checker(path):
        def check():
            payload = _load_json(path)
            if payload["trials"] != COVERAGE_TRIALS:
                return [f"{path}: {payload['trials']} trials"]
            if payload["coverage"] < 1.0 - DELTA:
                return [f"{path}: coverage {payload['coverage']} below {1.0 - DELTA}"]
            return []

        return check

    @staticmethod
    def _sweep_checker(path):
        def check():
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != 3 * len(SWEEP_NS) * SWEEP_SEEDS:
                return [f"{path}: {len(rows)} rows"]
            cells = {}
            for r in rows:
                row = {"method": r["method"], **{k: float(r[k]) for k in ("lcb", "ucb", "point")}}
                cells.setdefault((r["n"], r["seed"]), []).append(row)
            errors = []
            for (n, s), group in cells.items():
                if len(group) != 3:
                    errors.append(f"{path}: n={n} seed={s} has {len(group)} rows")
                errors += _interval_errors(group, f"{path} n={n} seed={s}")
            return errors

        return check

    def sizes(self):
        return {"coverage_n": COVERAGE_N, "coverage_trials": COVERAGE_TRIALS,
                "coverage_commands_per_pass": len(COVERAGE_MIX), "sweep_n": list(SWEEP_NS),
                "sweep_seeds": SWEEP_SEEDS}


class Bandit(Workload):
    name = "bandit"
    why = "per-round loop dominates; the CVaR fixture takes the in-module fast path, the SRM instance the generic one"
    alias = {"work_per_s": ("bandit_rounds_per_s", "rounds/s")}

    def fill_instances(self):
        return [_instance(BANDIT_ARMS, risk, len(BANDIT_ARMS)) for _, risk, _ in BANDIT_INSTANCES]

    def ops(self, pass_idx):
        out = []
        for j, (kind, risk, horizon) in enumerate(BANDIT_INSTANCES):
            inst_path = os.path.join(self.workdir, f"instance_{kind}.json")
            out_dir = os.path.join(self.workdir, f"runs_{kind}")
            instance = _instance(BANDIT_ARMS, risk, horizon, _op_seed(self.seed, pass_idx, j))
            argv = ["bandit", "--instance", inst_path, "--variant", "all", "--seeds", "1", "--out", out_dir]
            outputs = [os.path.join(out_dir, f"trace_{v}_0.csv") for v in VARIANTS]
            outputs += [os.path.join(out_dir, "aggregate_curves.csv"), os.path.join(out_dir, "summary.json")]
            rounds = len(VARIANTS) * horizon
            # one arm draw per round; the CVaR fast path never builds a ball extreme
            expect = {"bandit.arm_sample": rounds}
            if kind == "cvar":
                expect["operators.neg_sup"] = 0
            out.append(Op(f"bandit {risk} horizon {horizon}", argv, rounds, 0, outputs,
                          self._checker(out_dir, horizon, kind == "cvar"), expect,
                          prepare=self._writer(inst_path, instance)))
        return out

    @staticmethod
    def _writer(path, instance):
        def write():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(instance, fh)

        return write

    @staticmethod
    def _checker(out_dir, horizon, cvar):
        def check():
            errors = []
            for v in VARIANTS:
                path = os.path.join(out_dir, f"trace_{v}_0.csv")
                with open(path, encoding="utf-8") as fh:
                    lines = sum(1 for _ in fh)
                if lines != horizon + 1:
                    errors.append(f"{path}: {lines} lines, expected {horizon + 1}")
            if cvar:
                summary = _load_json(os.path.join(out_dir, "summary.json"))
                budget = summary.get("regret_budget")
                if budget is None:
                    errors.append(f"{out_dir}/summary.json: no regret_budget")
                elif not summary["variants"]["dist"]["mean_final_regret"] <= budget:
                    errors.append(f"{out_dir}: dist regret {summary['variants']['dist']['mean_final_regret']} "
                                  f"over budget {budget}")
            return errors

        return check

    def sizes(self):
        return {"instances": [{"risk": r, "horizon": h, "arms": len(BANDIT_ARMS)} for _, r, h in BANDIT_INSTANCES],
                "variants": list(VARIANTS), "seeds_per_command": 1}


WORKLOADS = {w.name: w for w in (CiLarge, McSmall, Bandit)}
