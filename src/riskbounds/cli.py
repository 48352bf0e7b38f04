"""Command-line front end.

Four subcommands, all emitting plot-ready CSV or JSON:

- ``ci``       confidence bounds for one sample file
- ``sweep``    bound tightness across sample sizes and seeds
- ``bandit``   multi-seed bandit runs from an instance JSON file
- ``coverage`` empirical coverage of the bounds over Monte-Carlo trials

Exit codes: 0 success, 2 usage error, 3 unsupported method/measure
combination, 4 data error. Reruns with identical arguments and seeds are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .bandit import (
    BetaArm,
    DiracArm,
    TruncNormalArm,
    UniformArm,
    load_instance,
    regret_bound,
    run_lcb,
    true_risk,
)
from .bounds import BoundMethod, UnsupportedCombinationError, bound_from_samples
from .concentration import RadiusRule, resolve_radius_rule
from .distributions import Distance, SampleError, SupportBounds, read_samples_csv
from .measures import CVaR, parse_risk

__all__ = ["main"]


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_bounds(text: str) -> SupportBounds:
    try:
        a_str, b_str = text.split(",")
        return SupportBounds(float(a_str), float(b_str))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"--bounds expects 'a,b' with a < b, got {text!r}") from exc


def _parse_risk(text: str):
    try:
        return parse_risk(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_distance(text: str) -> Distance:
    try:
        return Distance(text)
    except ValueError as exc:
        raise UsageError(f"--distance must be 'sup' or 'w1', got {text!r}") from exc


def _parse_methods(text: str) -> list[BoundMethod]:
    if text == "all":
        return [BoundMethod.DIST, BoundMethod.LLC, BoundMethod.GLC]
    try:
        return [BoundMethod(text)]
    except ValueError as exc:
        raise UsageError(f"--method must be dist|llc|glc|all, got {text!r}") from exc


def _parse_radius_rule(text: str | None, dist_kind: Distance) -> RadiusRule:
    try:
        rule = None if text is None else RadiusRule(text)
    except ValueError as exc:
        raise UsageError(f"--radius must be dkw|fact22|scaled-dkw, got {text!r}") from exc
    try:
        return resolve_radius_rule(rule, dist_kind)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_arm(text: str):
    """Parametric sampling distributions: dirac:x | uniform:lo,hi |
    beta:A,B | truncnormal:mu,sigma."""
    name, sep, payload = text.partition(":")
    if not sep:
        raise UsageError(f"distribution spec {text!r} must look like 'family:params'")
    try:
        params = [float(v) for v in payload.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad numeric parameters in {text!r}") from exc
    name = name.strip().lower()
    try:
        if name == "dirac" and len(params) == 1:
            return DiracArm(params[0])
        if name == "uniform" and len(params) == 2:
            return UniformArm(params[0], params[1])
        if name == "beta" and len(params) == 2:
            return BetaArm(params[0], params[1])
        if name == "truncnormal" and len(params) == 2:
            return TruncNormalArm(params[0], params[1])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown distribution spec {text!r}")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_ci(args) -> int:
    bounds = _parse_bounds(args.bounds)
    spec = _parse_risk(args.risk)
    dist_kind = _parse_distance(args.distance)
    methods = _parse_methods(args.method)
    rule = _parse_radius_rule(args.radius, dist_kind)
    try:
        samples = read_samples_csv(args.input, header=args.header)
    except (OSError, ValueError) as exc:
        raise DataError(str(exc)) from exc

    results = []
    for method in methods:
        try:
            res = bound_from_samples(samples, bounds, spec, dist_kind, method, args.delta, rule)
        except SampleError as exc:
            raise DataError(str(exc)) from exc
        results.append(res.to_json())
    payload = results[0] if len(results) == 1 else results
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    arm = _parse_arm(args.dist)
    bounds = _parse_bounds(args.bounds)
    spec = _parse_risk(args.risk)
    dist_kind = _parse_distance(args.distance)
    methods = _parse_methods(args.method)
    rule = _parse_radius_rule(args.radius, dist_kind)
    try:
        n_values = [int(v) for v in args.n.split(",")]
    except ValueError as exc:
        raise UsageError(f"--n expects integers like '100,1000', got {args.n!r}") from exc
    if any(n <= 0 for n in n_values) or sorted(n_values) != n_values:
        raise UsageError("--n values must be positive and increasing")
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    arm.validate(bounds)
    truth = true_risk(arm, spec, bounds)

    rows = []
    for n in n_values:
        for seed_idx in range(args.seeds):
            rng = np.random.default_rng([args.seed, n, seed_idx])
            samples = arm.sample(rng, n, bounds)
            for method in methods:
                res = bound_from_samples(samples, bounds, spec, dist_kind, method, args.delta, rule)
                covered = res.lcb <= truth <= res.ucb
                rows.append((n, seed_idx, method.value, res.lcb, res.ucb, res.point, covered))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = ["n,seed,method,lcb,ucb,point,true_risk,covered"]
    for n, s, method, lcb, ucb, point, covered in rows:
        lines.append(
            f"{n},{s},{method},{_fmt(lcb)},{_fmt(ucb)},{_fmt(point)},{_fmt(truth)},{int(covered)}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_coverage(args) -> int:
    arm = _parse_arm(args.dist)
    bounds = _parse_bounds(args.bounds)
    spec = _parse_risk(args.risk)
    dist_kind = _parse_distance(args.distance)
    methods = _parse_methods(args.method)
    if len(methods) != 1:
        raise UsageError("coverage runs one method at a time")
    method = methods[0]
    rule = _parse_radius_rule(args.radius, dist_kind)
    if args.n <= 0 or args.trials <= 0:
        raise UsageError("--n and --trials must be positive")
    arm.validate(bounds)
    truth = true_risk(arm, spec, bounds)

    hits = 0
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial])
        samples = arm.sample(rng, args.n, bounds)
        res = bound_from_samples(samples, bounds, spec, dist_kind, method, args.delta, rule)
        hits += res.lcb <= truth <= res.ucb
    payload = {
        "distribution": args.dist,
        "risk": args.risk,
        "distance": dist_kind.value,
        "method": method.value,
        "radius_rule": rule.value,
        "n": args.n,
        "delta": args.delta,
        "trials": args.trials,
        "true_risk": truth,
        "coverage": hits / args.trials,
        "target_coverage": max(1.0 - args.delta, 0.0),
    }
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_bandit(args) -> int:
    try:
        instance = load_instance(args.instance)
    except OSError as exc:
        raise DataError(str(exc)) from exc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"bad instance file {args.instance}: {exc}") from exc
    if args.seeds < 1:
        raise UsageError("--seeds must be >= 1")
    variants = (
        [BoundMethod.DIST, BoundMethod.LLC, BoundMethod.GLC]
        if args.variant == "all"
        else _parse_methods(args.variant)
    )
    os.makedirs(args.out, exist_ok=True)

    runs = {
        variant: [
            run_lcb(dataclasses.replace(instance, seed=instance.seed + seed_idx), variant)
            for seed_idx in range(args.seeds)
        ]
        for variant in variants
    }

    summary = {"instance": os.path.abspath(args.instance), "seeds": args.seeds, "variants": {}}
    curve_lines = ["round,variant,mean_cum_regret,std_cum_regret"]
    for variant, traces in runs.items():
        for seed_idx, tr in enumerate(traces):
            path = os.path.join(args.out, f"trace_{variant.value}_{seed_idx}.csv")
            lines = ["round,arm,loss,cum_regret"]
            for t in range(tr.chosen.size):
                lines.append(
                    f"{t},{tr.chosen[t]},{_fmt(tr.losses[t])},{_fmt(tr.cum_regret[t])}"
                )
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        curves = np.stack([tr.cum_regret for tr in traces])
        mean_curve = curves.mean(axis=0)
        std_curve = curves.std(axis=0, ddof=1) if len(traces) > 1 else np.zeros_like(mean_curve)
        for t in range(mean_curve.size):
            curve_lines.append(
                f"{t},{variant.value},{_fmt(mean_curve[t])},{_fmt(std_curve[t])}"
            )
        finals = np.array([tr.final_regret for tr in traces])
        summary["variants"][variant.value] = {
            "mean_final_regret": float(finals.mean()),
            "std_final_regret": float(finals.std(ddof=1)) if finals.size > 1 else 0.0,
            "mean_pulls": [float(v) for v in np.stack([tr.pulls for tr in traces]).mean(axis=0)],
        }
    if isinstance(instance.risk, CVaR) and instance.risk.alpha <= 0.5:
        summary["regret_budget"] = regret_bound(instance)
    with open(os.path.join(args.out, "aggregate_curves.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(curve_lines) + "\n")
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True))
    print(os.path.join(args.out, "summary.json"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbounds",
        description="Finite-sample confidence bounds for risk measures and a risk-averse bandit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("ci", help="confidence bounds from a sample file")
    ci.add_argument("--input", required=True, help="CSV with one numeric value per line")
    ci.add_argument("--bounds", required=True, help="support bounds 'a,b'")
    ci.add_argument("--risk", required=True, help="risk spec, e.g. cvar:0.05 or erm:1")
    ci.add_argument("--distance", default="sup", help="sup or w1")
    ci.add_argument("--method", default="dist", help="dist|llc|glc|all")
    ci.add_argument("--delta", type=float, default=0.05, help="confidence failure budget")
    ci.add_argument("--radius", default=None, help="dkw|fact22|scaled-dkw")
    ci.add_argument("--header", action="store_true", help="skip the first line of the input")
    ci.add_argument("--out", default=None, help="write JSON here instead of stdout")
    ci.set_defaults(func=cmd_ci)

    sweep = sub.add_parser("sweep", help="bound tightness across sample sizes")
    sweep.add_argument("--dist", required=True, help="sampling distribution, e.g. beta:2,5")
    sweep.add_argument("--bounds", required=True)
    sweep.add_argument("--risk", required=True)
    sweep.add_argument("--distance", default="sup")
    sweep.add_argument("--method", default="all")
    sweep.add_argument("--delta", type=float, default=0.05)
    sweep.add_argument("--radius", default=None)
    sweep.add_argument("--n", required=True, help="comma-separated increasing sample sizes")
    sweep.add_argument("--seeds", type=int, default=20, help="seeds per sample size")
    sweep.add_argument("--seed", type=int, default=0, help="base seed")
    sweep.add_argument("--out", default=None, help="write CSV here instead of stdout")
    sweep.set_defaults(func=cmd_sweep)

    bandit = sub.add_parser("bandit", help="simulate bandit variants from an instance file")
    bandit.add_argument("--instance", required=True, help="instance JSON path")
    bandit.add_argument("--variant", default="all", help="dist|llc|glc|all")
    bandit.add_argument("--seeds", type=int, default=1, help="number of seeds (offsets from the instance seed)")
    bandit.add_argument("--out", required=True, help="output directory for traces and summaries")
    bandit.set_defaults(func=cmd_bandit)

    coverage = sub.add_parser("coverage", help="empirical coverage over Monte-Carlo trials")
    coverage.add_argument("--dist", required=True, help="sampling distribution, e.g. beta:2,5")
    coverage.add_argument("--bounds", required=True)
    coverage.add_argument("--risk", required=True)
    coverage.add_argument("--distance", default="sup")
    coverage.add_argument("--method", default="dist")
    coverage.add_argument("--delta", type=float, default=0.05)
    coverage.add_argument("--radius", default=None)
    coverage.add_argument("--n", type=int, required=True, help="samples per trial")
    coverage.add_argument("--trials", type=int, required=True)
    coverage.add_argument("--seed", type=int, default=0)
    coverage.add_argument("--out", default=None)
    coverage.set_defaults(func=cmd_coverage)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedCombinationError as exc:
        print(f"unsupported combination: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # Domain errors the argument parsers cannot see, raised where the
        # arguments meet each other: delta against the radius rule, n against
        # log(1/delta), a sampling distribution against the bounds.
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
