"""Command-line front end.

Four subcommands, all emitting plot-ready CSV or JSON:

- ``ci``       confidence bounds for one sample file
- ``sweep``    bound tightness across sample sizes and seeds
- ``bandit``   multi-seed bandit runs from an instance JSON file
- ``coverage`` empirical coverage of the bounds over Monte-Carlo trials

Exit codes: 0 success, 2 usage error, 3 unsupported method/measure
combination, 4 data error, which includes an input or output file that
cannot be read or written. Reruns with identical arguments and seeds are
byte-identical on the same machine.

``main`` sets glibc's allocator once per process (``_keep_freed_pages``);
importing the module does not.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import itertools
import json
import os
import sys

import numpy as np

from .bandit import ARM_FAMILIES, load_instance, regret_bound, run_lcb, true_risk
from .bounds import BoundMethod, UnsupportedCombinationError, bound_from_samples, bound_rows
from .concentration import RadiusRule, resolve_radius_rule
from .distributions import Distance, SupportBounds, _check_samples, read_samples_csv
from .measures import CVaR, parse_risk
from .oracles import QuadratureError

__all__ = ["main"]

_METHOD_CHOICES = [m.value for m in BoundMethod] + ["all"]
# Samples that sweep and coverage draw and bound at a time.
_BLOCK_SAMPLES = 1 << 16
# glibc's mallopt parameters, and the values main sets: blocks below 32 MiB
# come from the heap, and freed memory stays mapped until 1 GiB of it lies
# free at the heap's top.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30


class DataError(Exception):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_bounds(text: str) -> SupportBounds:
    try:
        a_str, b_str = text.split(",")
        a, b = float(a_str), float(b_str)
    except ValueError as exc:
        raise ValueError(f"--bounds expects 'a,b' with a < b, got {text!r}") from exc
    return SupportBounds(a, b)


def _methods(choice: str) -> list[BoundMethod]:
    return list(BoundMethod) if choice == "all" else [BoundMethod(choice)]


def _parse_ball(args):
    """The confidence-ball options as (bounds, spec, distance, methods, radius rule)."""
    bounds = _parse_bounds(args.bounds)
    spec = parse_risk(args.risk)
    dist_kind = Distance(args.distance)
    methods = _methods(args.method)
    rule = resolve_radius_rule(None if args.radius is None else RadiusRule(args.radius), dist_kind)
    return bounds, spec, dist_kind, methods, rule


def _parse_arm(text: str):
    """Parametric sampling distributions: dirac:x | uniform:lo,hi |
    beta:A,B | truncnormal:mu,sigma."""
    name, sep, payload = text.partition(":")
    if not sep:
        raise ValueError(f"distribution spec {text!r} must look like 'family:params'")
    try:
        params = [float(v) for v in payload.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad numeric parameters in {text!r}") from exc
    cls = ARM_FAMILIES.get(name.strip().lower())
    if cls is None or len(params) != len(dataclasses.fields(cls)):
        raise ValueError(f"unknown distribution spec {text!r}")
    return cls(*params)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_ci(args) -> int:
    bounds, spec, dist_kind, methods, rule = _parse_ball(args)
    try:
        samples = read_samples_csv(args.input, header=args.header)
        _check_samples(samples, bounds)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    # The EDF depends only on the multiset of samples. Sorted once here,
    # after the check names the first bad sample in file order, they are
    # strictly increasing for every method's EDF unless they tie. Frozen,
    # they are that EDF's atoms, with no copy.
    samples.sort()
    samples.setflags(write=False)

    results = [
        bound_from_samples(samples, bounds, spec, dist_kind, method, args.delta, rule).to_json()
        for method in methods
    ]
    payload = results[0] if len(results) == 1 else results
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _bound_trials(arm, n: int, entropies, bounds, spec, dist_kind, methods, delta, rule):
    """For each seed entropy in turn, the results of ``methods`` on the n
    samples ``arm`` draws from ``default_rng(entropy)``.

    Trials are drawn and bounded in blocks of about ``_BLOCK_SAMPLES``
    samples, so memory does not grow with their number.
    """
    per_block = max(_BLOCK_SAMPLES // n, 1)
    entropies = iter(entropies)
    while chunk := list(itertools.islice(entropies, per_block)):
        block = np.empty((len(chunk), n))
        for row, entropy in zip(block, chunk):
            row[:] = arm.sample(np.random.default_rng(entropy), n, bounds)
        yield from bound_rows(block, bounds, spec, dist_kind, methods, delta, rule)


def cmd_sweep(args) -> int:
    arm = _parse_arm(args.dist)
    bounds, spec, dist_kind, methods, rule = _parse_ball(args)
    try:
        n_values = [int(v) for v in args.n.split(",")]
    except ValueError as exc:
        raise ValueError(f"--n expects integers like '100,1000', got {args.n!r}") from exc
    if n_values[0] <= 0 or any(lo >= hi for lo, hi in zip(n_values, n_values[1:])):
        raise ValueError("--n values must be positive and increasing")
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    arm.validate(bounds)
    truth = true_risk(arm, spec, bounds)

    rows = []
    for n in n_values:
        entropies = ([args.seed, n, seed_idx] for seed_idx in range(args.seeds))
        trials = _bound_trials(arm, n, entropies, bounds, spec, dist_kind, methods, args.delta, rule)
        for seed_idx, results in enumerate(trials):
            for res in results:
                covered = res.lcb <= truth <= res.ucb
                rows.append((n, seed_idx, res.method.value, res.lcb, res.ucb, res.point, covered))
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
    bounds, spec, dist_kind, methods, rule = _parse_ball(args)
    if len(methods) != 1:
        raise ValueError("coverage runs one method at a time")
    method = methods[0]
    if args.n <= 0 or args.trials <= 0:
        raise ValueError("--n and --trials must be positive")
    arm.validate(bounds)
    truth = true_risk(arm, spec, bounds)

    hits = 0
    entropies = ([args.seed, trial] for trial in range(args.trials))
    for (res,) in _bound_trials(arm, args.n, entropies, bounds, spec, dist_kind, methods, args.delta, rule):
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
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"bad instance file {args.instance}: {exc}") from exc
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    variants = _methods(args.variant)
    os.makedirs(args.out, exist_ok=True)

    try:
        runs = {
            variant: [
                run_lcb(dataclasses.replace(instance, seed=instance.seed + seed_idx), variant)
                for seed_idx in range(args.seeds)
            ]
            for variant in variants
        }
    except QuadratureError as exc:  # the instance's arms and risk define the integral
        raise DataError(str(exc)) from exc

    summary = {"instance": os.path.abspath(args.instance), "seeds": args.seeds, "variants": {}}
    # Rows are formatted from lists of Python numbers, which are freed before
    # each join; the curves are kept as one joined chunk per variant. This
    # keeps peak memory below that of a list of all lines.
    curve_chunks = []
    for variant, traces in runs.items():
        for seed_idx, tr in enumerate(traces):
            path = os.path.join(args.out, f"trace_{variant.value}_{seed_idx}.csv")
            lines = [
                f"{t},{arm},{loss!r},{cum!r}\n"
                for t, (arm, loss, cum) in enumerate(zip(tr.chosen.tolist(), tr.losses.tolist(), tr.cum_regret.tolist()))
            ]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("round,arm,loss,cum_regret\n")
                fh.write("".join(lines))
        curves = np.stack([tr.cum_regret for tr in traces])
        mean_curve = curves.mean(axis=0)
        std_curve = curves.std(axis=0, ddof=1) if len(traces) > 1 else np.zeros_like(mean_curve)
        name = variant.value  # an Enum property: read once, not once per row
        curve_chunks.append("".join([
            f"{t},{name},{mean!r},{std!r}\n"
            for t, (mean, std) in enumerate(zip(mean_curve.tolist(), std_curve.tolist()))
        ]))
        finals = np.array([tr.final_regret for tr in traces])
        summary["variants"][variant.value] = {
            "mean_final_regret": float(finals.mean()),
            "std_final_regret": float(finals.std(ddof=1)) if finals.size > 1 else 0.0,
            "mean_pulls": [float(v) for v in np.stack([tr.pulls for tr in traces]).mean(axis=0)],
        }
    if isinstance(instance.risk, CVaR) and instance.risk.alpha <= 0.5:
        summary["regret_budget"] = regret_bound(instance)
    with open(os.path.join(args.out, "aggregate_curves.csv"), "w", encoding="utf-8") as fh:
        fh.write("round,variant,mean_cum_regret,std_cum_regret\n")
        fh.writelines(curve_chunks)
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True))
    print(os.path.join(args.out, "summary.json"))
    return 0


def _add_ball_options(parser: argparse.ArgumentParser, method_default: str) -> None:
    parser.add_argument("--bounds", required=True, help="support bounds 'a,b'")
    parser.add_argument("--risk", required=True, help="risk spec, e.g. cvar:0.05 or erm:1")
    parser.add_argument("--distance", default="sup", choices=[d.value for d in Distance])
    parser.add_argument("--method", default=method_default, choices=_METHOD_CHOICES)
    parser.add_argument("--delta", type=float, default=0.05, help="confidence failure budget")
    parser.add_argument(
        "--radius", choices=[r.value for r in RadiusRule],
        help="radius rule (default: dkw for sup, scaled-dkw for w1)",
    )
    parser.add_argument("--out", help="write the output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbounds",
        description="Finite-sample confidence bounds for risk measures and a risk-averse bandit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ci = sub.add_parser("ci", help="confidence bounds from a sample file")
    ci.add_argument("--input", required=True, help="CSV with one numeric value per line")
    _add_ball_options(ci, "dist")
    ci.add_argument("--header", action="store_true", help="skip the first line of the input")
    ci.set_defaults(func=cmd_ci)

    sweep = sub.add_parser("sweep", help="bound tightness across sample sizes")
    sweep.add_argument("--dist", required=True, help="sampling distribution, e.g. beta:2,5")
    _add_ball_options(sweep, "all")
    sweep.add_argument("--n", required=True, help="comma-separated increasing sample sizes")
    sweep.add_argument("--seeds", type=int, default=20, help="seeds per sample size")
    sweep.add_argument("--seed", type=int, default=0, help="base seed")
    sweep.set_defaults(func=cmd_sweep)

    bandit = sub.add_parser("bandit", help="simulate bandit variants from an instance file")
    bandit.add_argument("--instance", required=True, help="instance JSON path")
    bandit.add_argument("--variant", default="all", choices=_METHOD_CHOICES)
    bandit.add_argument("--seeds", type=int, default=1, help="number of seeds (offsets from the instance seed)")
    bandit.add_argument("--out", required=True, help="output directory for traces and summaries")
    bandit.set_defaults(func=cmd_bandit)

    coverage = sub.add_parser("coverage", help="empirical coverage over Monte-Carlo trials")
    coverage.add_argument("--dist", required=True, help="sampling distribution, e.g. beta:2,5")
    _add_ball_options(coverage, "dist")
    coverage.add_argument("--n", type=int, required=True, help="samples per trial")
    coverage.add_argument("--trials", type=int, required=True)
    coverage.add_argument("--seed", type=int, default=0)
    coverage.set_defaults(func=cmd_coverage)
    return parser


@functools.cache
def _keep_freed_pages() -> None:
    """Have glibc reuse freed memory instead of handing it back to the
    kernel. By default it maps each large array on its own and unmaps it
    when freed, or trims the heap when its free top passes a threshold that
    moves with earlier allocations, so the next array of that size faults
    its pages in again: ``ci`` at 10^6 samples spent most of its system time
    on those faults. Run once per process, from ``main`` only, so importing
    the package leaves the allocator as it is; it does nothing off glibc.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no such name: not glibc
        glibc = None
    if not glibc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _keep_freed_pages()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except UnsupportedCombinationError as exc:
        print(f"unsupported combination: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        # A file that cannot be read or written, input or output alike.
        print(f"data error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, QuadratureError) as exc:
        # Argparse checks flags and choices; values are checked where they
        # are used (a risk spec by parse_risk, delta against the radius rule,
        # a sampling distribution against the bounds). A true risk that the
        # quadrature cannot resolve is a fault of the sampling distribution,
        # risk and bounds given. Faults in input files arrive as DataError
        # instead.
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
