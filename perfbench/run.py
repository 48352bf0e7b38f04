"""Benchmark for riskbounds: end-to-end and per-layer metrics of its CLI.

    python3 perfbench/run.py --workload ci-large|mc-small|bandit|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the package is imported from
``src/`` next to this directory, and all inputs and outputs live under
``perfbench/_work/``. Load is one closed-loop client driving
``riskbounds.cli.main(argv)`` in-process, one command after the other,
with ``RISKBOUNDS_THREADS`` unset. The timed loop runs whole passes of the
workload's command mix for about ``--seconds``.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` runs whole
passes untraced and traced in turn, each starting with the set-up fill
from an empty cache, and reports per-layer metrics per pass plus the
tracing overhead. The last
stdout line is one JSON object ``{correct, attempted, failed, metrics}``;
the lines before it name every metric with its unit. ``--workload all``
runs the three workloads one process each and prints them side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import probe
from tracer import BOUNDARIES, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
SETUP_REPEATS = 11
# Every command of the mix runs at least this often, so its best time is
# taken over several runs even where one pass is long (ci-large).
MIN_PASSES = 3
MAX_REPORTED_ERRORS = 20


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if not os.path.isfile(ref_path):
        return None
    with open(ref_path, encoding="utf-8") as fh:
        return fh.read().strip()


def environment(args, inherited_threads) -> dict:
    import numpy
    import scipy

    pkg = os.path.join(SRC, "riskbounds")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode() + _sha256(os.path.join(pkg, name)).encode())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "RISKBOUNDS_THREADS": {"inherited": inherited_threads, "used": None},
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup(workload) -> list:
    """Set-up seconds of fresh interpreters that each import riskbounds and
    fill the workload's true-risk cache, as timed inside the interpreter;
    one untimed run first compiles bytecode."""
    argv = [sys.executable, os.path.join(HERE, "probe.py"), SRC, json.dumps(workload.fill_instances())]
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(argv, check=True, cwd=workload.workdir, capture_output=True, text=True).stdout
        if i:
            times.append(float(out.strip().splitlines()[-1]))
    return times


class Runner:
    """Closed loop with one client: each command starts when the last ends."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.op_id = 0
        self.passes_run = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, op, tracer=None, also_check=None) -> float:
        op.prepare()
        before = list(tracer.calls) if tracer else None
        if tracer:
            tracer.op = self.op_id
        self.op_id += 1
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                # looked up on every call so a traced run sees the wrapper
                rc = self.cli.main(op.argv)
        except Exception:
            elapsed = time.perf_counter() - start
            self.record(op.label, [f"raised\n{traceback.format_exc()}"])
            return elapsed
        elapsed = time.perf_counter() - start
        if rc != 0:
            self.record(op.label, [f"exit {rc}: {captured.getvalue().strip()}"])
            return elapsed
        try:
            errors = op.check() + (also_check() if also_check else [])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors = [f"output unreadable: {exc!r}"]
        if tracer:
            errors += _count_errors(tracer, before, op.expect)
        self.record(op.label, errors)
        return elapsed

    def fill(self, tracer=None) -> float:
        """The workload's set-up fill again, from an empty true-risk cache,
        so that a traced pass covers the quadrature layer set-up uses."""
        from riskbounds.bandit import _cached_quadrature

        _cached_quadrature.cache_clear()
        if tracer:
            tracer.op = self.op_id
        self.op_id += 1
        start = time.perf_counter()
        try:
            probe.fill_true_risks(self.workload.fill_instances())
        except Exception:
            self.record("fill", [f"raised\n{traceback.format_exc()}"])
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self.record("fill", [])
        return elapsed

    def record(self, label, errors) -> None:
        """Count one attempted operation, failed if any check failed."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{label}: {e}" for e in errors]

    def phase(self) -> dict:
        """An empty tally of passes; ``times[j]`` will list the wall times
        of command ``j`` of the mix."""
        mix = self.workload.ops(0)
        return {
            "passes": 0,
            "times": [[] for _ in mix],
            "busy_s": 0.0,
            "units_per_pass": [op.units for op in mix],
            "inputs_per_pass": sum(op.inputs for op in mix),
        }

    def one_pass(self, phase, tracer=None, fill=False) -> None:
        """The next pass of the mix, tallied in ``phase``. With ``fill`` it
        starts with the set-up fill, whose time counts as busy."""
        if fill and self.workload.fill_instances():
            phase["busy_s"] += self.fill(tracer)
        for j, op in enumerate(self.workload.ops(self.passes_run)):
            elapsed = self.run(op, tracer)
            phase["times"][j].append(elapsed)
            phase["busy_s"] += elapsed
        phase["passes"] += 1
        self.passes_run += 1

    def loop(self, seconds: float, min_passes: int) -> dict:
        """At least ``min_passes`` whole passes, and more while one more, at
        the mean pass time so far, would end within ``seconds``."""
        timed = self.phase()
        start = time.perf_counter()
        while timed["passes"] < min_passes or (time.perf_counter() - start) * (1 + 1 / timed["passes"]) <= seconds:
            self.one_pass(timed)
        return timed

    def traced_loop(self, seconds: float, tracer) -> tuple:
        """Untraced and traced passes in turn, each with the set-up fill, so
        that drift in the machine's speed falls on both alike; as many pairs
        as ``loop`` would run passes, at least one."""
        untraced, traced = self.phase(), self.phase()
        start = time.perf_counter()
        while traced["passes"] < 1 or (time.perf_counter() - start) * (1 + 1 / traced["passes"]) <= seconds:
            self.one_pass(untraced, fill=True)
            with tracer:
                self.one_pass(traced, tracer, fill=True)
        return untraced, traced


def _count_errors(tracer, before, expect) -> list:
    """Exact call counts since ``before`` that differ from ``expect``."""
    errors = []
    for name, expected in expect.items():
        got = tracer.calls[tracer.ids[name]] - before[tracer.ids[name]]
        if got != expected:
            errors.append(f"{name} called {got} times, expected {expected}")
    return errors


def end_to_end(setup_times, timed) -> dict:
    # Each command at its fastest run: on a shared machine the slower runs
    # mostly measure other tenants. In a closed loop with one client the
    # throughput is also the inverse of the mean command latency.
    best = [min(t) for t in timed["times"]]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (sum(timed["units_per_pass"]) / sum(best), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def latency(timed) -> dict:
    """Command wall times as the client saw them: the count, the median and
    the throughput over all timed commands."""
    flat = [t for ts in timed["times"] for t in ts]
    return {
        "commands": len(flat),
        "op_p50_s": statistics.median(flat),
        "mean_work_per_s": timed["passes"] * sum(timed["units_per_pass"]) / timed["busy_s"],
    }


def per_layer(tracer, untraced, traced) -> dict:
    passes = traced["passes"]
    calls = dict(zip(BOUNDARIES, tracer.calls))
    out = {}
    for i, name in enumerate(BOUNDARIES):
        out[f"{name}.calls"] = (tracer.calls[i] / passes, "count/pass")
        out[f"{name}.self_pct"] = (100.0 * tracer.self_s[i] / traced["busy_s"], "%")
    out["distributions.from_samples.samples"] = (tracer.samples_in / passes, "count/pass")
    out["operators.atoms_in"] = (tracer.atoms_in / passes, "count/pass")
    inputs = traced["inputs_per_pass"] * passes
    out["distributions.edf_builds_per_input"] = (
        calls["distributions.from_samples"] / inputs if inputs else 0.0, "ratio")
    true_risks = calls["bandit.true_risk"]
    out["bandit.quadrature_per_true_risk"] = (
        calls["oracles.quadrature_risk"] / true_risks if true_risks else 0.0, "ratio")
    out["trace.spans"] = (len(tracer.span_name) / passes, "count/pass")
    untraced_pass = untraced["busy_s"] / untraced["passes"]
    out["trace.overhead_pct"] = (100.0 * (traced["busy_s"] / passes / untraced_pass - 1.0), "%")
    return out


def _alias(workload, name) -> str:
    return "  (= {} in {})".format(*workload.alias[name]) if name in workload.alias else ""


def run_workload(args) -> int:
    inherited_threads = os.environ.pop("RISKBOUNDS_THREADS", None)
    sys.path.insert(0, SRC)
    import riskbounds.cli

    if not os.path.abspath(riskbounds.cli.__file__).startswith(SRC + os.sep):
        print(f"error: riskbounds imported from {riskbounds.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    setup_times = [] if args.trace else measure_setup(workload)
    probe.fill_true_risks(workload.fill_instances())

    runner = Runner(workload, riskbounds.cli)
    first = workload.ops(0)[0]
    runner.run(first)
    reference = [_sha256(p) for p in first.outputs if os.path.isfile(p)]

    tracer = None
    if args.trace:
        tracer = Tracer()
        untraced, timed = runner.traced_loop(args.seconds, tracer)
        metrics = per_layer(tracer, untraced, timed)
    else:
        timed = runner.loop(args.seconds, MIN_PASSES)
        metrics = end_to_end(setup_times, timed)

    def same_bytes():
        rerun = [_sha256(p) for p in first.outputs if os.path.isfile(p)]
        return [] if rerun == reference else ["rerun output differs from the first run"]

    runner.run(first, also_check=same_bytes)
    record = {
        "environment": environment(args, inherited_threads),
        "sizes": workload.sizes(),
        "observed": workload.observed,
        "setup_s": setup_times,
        "passes": timed["passes"],
        "op_seconds": timed["times"],
        "latency": latency(timed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "errors": runner.errors,
    }
    if tracer:
        record["self_s_per_pass"] = {name: s / timed["passes"] for name, s in zip(BOUNDARIES, tracer.self_s)}
        record["untraced"] = {k: untraced[k] for k in ("passes", "busy_s")}
        tracer.write(os.path.join(WORK, f"spans_{args.workload}_seed{args.seed}.npz"))
    record_path = os.path.join(WORK, f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for e in runner.errors[:MAX_REPORTED_ERRORS]:
        print(f"FAILED {e}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  passes {timed['passes']}  "
          f"timed commands {timed['passes'] * len(timed['times'])}  record {os.path.relpath(record_path, ROOT)}")
    print(f"  {'failed_frac':<44} {runner.failed / runner.attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}{_alias(workload, name)}")
    if not tracer:
        print("  over all timed commands: " + ", ".join(
            f"{k} {v:.6g}{_alias(workload, k)}" for k, v in record["latency"].items()))
    if tracer:
        print("  self seconds per pass: " + ", ".join(
            f"{k} {v:.4g}" for k, v in record["self_s_per_pass"].items() if v))
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's."""
    results = {}
    for name in ("ci-large", "mc-small", "bandit"):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    if not args.trace:
        print("\nend-to-end metrics by workload")
        for wl, res in results.items():
            with open(os.path.join(WORK, f"record_{wl}_seed{args.seed}_trace0.json"), encoding="utf-8") as fh:
                values = dict(json.load(fh)["latency"], **{k: m["value"] for k, m in res["metrics"].items()})
            rows = [("setup_s", values["setup_s"], "s")]
            rows += [(alias, values[name], unit) for name, (alias, unit) in WORKLOADS[wl].alias.items()]
            rows += [("peak_rss_mb", values["peak_rss_mb"], "MiB"),
                     ("failed_frac", res["failed"] / res["attempted"], "ratio")]
            for name, value, unit in rows:
                print(f"  {wl:<9} {name:<20} {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}.{k}": v for wl, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["ci-large", "mc-small", "bandit", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "riskbounds", "__init__.py")):
        print(f"error: no riskbounds package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
