"""Peak memory of the layers that ``ci`` runs, from ``tracemalloc``.

    PYTHONPATH=src python tests/memory_table.py [--m 1000000]

Every peak is in units of one m-element float64 array (8m bytes) and
includes what the layer returns. The layer rows run on m sorted, tie-free
beta(2, 5) samples on [0, 1], drawn with seed 0, and on their empirical
distribution; ``from_samples`` runs on a writable copy of them, which it
copies, and on a read-only one, which it keeps as the atoms. The
``bound_rows`` rows bound the read-only samples in one call with every
method each family and distance supports, as one ``ci --method all`` call
would, and count the sample array, as the command rows do. The command
rows run the twelve ``ci`` commands of the benchmark's ci-large workload on
the same samples, written to a file in draw order, and count from the end
of the read, so each includes the sample array itself. Beside each
command's peak stand its minor page faults and system CPU time
(``resource.getrusage`` deltas) in a run without ``tracemalloc``, which
cover the whole command, its read included, and the rise of its peak
resident set in a fresh process that has read the sample file once
before: that rise, against the peak in units, shows what the heap keeps
beyond the arrays alive at once.

Caches filled on first use (support checks, global constants, the RDEU
weight check) are filled on a small input first, so no row pays for them.
tier-1 does not collect this file; ``tests/test_memory.py`` checks its
rows against the per-layer budgets.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np

from riskbounds import (
    BoundMethod,
    Distance,
    SupportBounds,
    bound_rows,
    cli,
    evaluate,
    from_samples,
    llc,
    parse_risk,
)
from riskbounds.concentration import RadiusRule, confidence_radius
from riskbounds.operators import neg_sup, neg_w1, pos_sup, pos_w1

BOUNDS = SupportBounds(0.0, 1.0)
DELTA = 0.05
# The risk specs of the benchmark's ci-large commands.
FAMILIES = ["cvar:0.05", "srm-power:2", "drm-power:0.5", "erm:1", "ce-power:2", "rdeu-power:2,2"]


def beta_samples(m: int) -> np.ndarray:
    """m tie-free beta(2, 5) draws with seed 0, in draw order."""
    x = np.random.default_rng(0).beta(2.0, 5.0, m)
    if np.unique(x).size != m:
        raise ValueError(f"the draws tie among {m} samples")
    return x


def _peak(fn, *args) -> int:
    """Bytes that ``fn(*args)`` holds at its peak, its result included."""
    gc.collect()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    out = fn(*args)
    peak = tracemalloc.get_traced_memory()[1] - base
    del out
    return peak


def _layers(sorted_samples: np.ndarray):
    """(row name, zero-argument call) for each layer."""
    d = from_samples(sorted_samples, BOUNDS)
    frozen = sorted_samples.copy()
    frozen.setflags(write=False)
    m = sorted_samples.size
    c_sup = confidence_radius(RadiusRule.DKW, m, DELTA, BOUNDS)
    c_w1 = confidence_radius(RadiusRule.SCALED_DKW, m, DELTA, BOUNDS)
    rows = [
        ("from_samples", lambda: from_samples(sorted_samples, BOUNDS)),
        ("from_samples (read-only input)", lambda: from_samples(frozen, BOUNDS)),
        ("pos_sup", lambda: pos_sup(d, c_sup)),
        ("neg_sup", lambda: neg_sup(d, c_sup)),
        ("pos_w1", lambda: pos_w1(d, c_w1)),
        ("neg_w1", lambda: neg_w1(d, c_w1)),
    ]
    for text in FAMILIES:
        spec = parse_risk(text)
        rows.append((f"evaluate {text}", lambda spec=spec: evaluate(spec, d)))
    for text in FAMILIES:
        spec = parse_risk(text)
        rows.append((f"sup llc {text}", lambda spec=spec: llc(spec, Distance.SUPREMUM, d, c_sup)))
    return rows


def layer_peaks(samples: np.ndarray) -> dict[str, float]:
    """Peak of each layer, in units of one array of ``samples``' size."""
    sorted_samples = np.sort(samples)
    for _, call in _layers(sorted_samples[:: max(sorted_samples.size // 1000, 1)]):
        call()  # fill the caches
    unit = 8.0 * samples.size
    return {name: _peak(call) / unit for name, call in _layers(sorted_samples)}


def _bound_rows_calls(frozen: np.ndarray):
    """(row name, zero-argument call) of one ``bound_rows`` call per family
    and distance on the read-only sorted samples ``frozen``, with every
    supported method: all three but over W1 for RDEU, which has only glc."""
    row = frozen.reshape(1, -1)
    calls = []
    for text in FAMILIES:
        spec = parse_risk(text)
        for dist_kind in Distance:
            methods = list(BoundMethod)
            if text.startswith("rdeu") and dist_kind is not Distance.SUPREMUM:
                methods = [BoundMethod.GLC]
            calls.append((
                f"bound_rows all {text} {dist_kind.value}",
                lambda spec=spec, dist_kind=dist_kind, methods=methods: bound_rows(
                    row, BOUNDS, spec, dist_kind, methods, DELTA
                ),
            ))
    return calls


def bound_rows_peaks(samples: np.ndarray) -> dict[str, float]:
    """Peak of each one-call ``bound_rows`` row, in units of one array of
    ``samples``' size, the read-only sorted sample array included."""
    frozen = np.sort(samples)
    frozen.setflags(write=False)
    small = frozen[:: max(frozen.size // 1000, 1)].copy()
    small.setflags(write=False)
    for _, call in _bound_rows_calls(small):
        call()  # fill the caches
    unit = 8.0 * samples.size
    return {name: (_peak(call) + frozen.nbytes) / unit for name, call in _bound_rows_calls(frozen)}


def ci_commands(path: str, out: str) -> list[tuple[str, list[str]]]:
    """The ci-large commands on the sample file ``path``, as (row name, argv)."""
    commands = []
    for risk in FAMILIES:
        for dist in ("sup", "w1"):
            method = "glc" if risk.startswith("rdeu") and dist == "w1" else "all"
            argv = ["ci", "--input", path, "--bounds", "0,1", "--risk", risk, "--distance", dist,
                    "--method", method, "--delta", str(DELTA), "--out", out]
            commands.append((f"ci {risk} {dist} {method}", argv))
    return commands


def _write_samples(path: str, samples: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(map(repr, samples.tolist())) + "\n")


def _main(argv: list[str]) -> None:
    if cli.main(argv) != 0:
        raise RuntimeError(f"ci {' '.join(argv)} failed")


def _run_commands(samples: np.ndarray, measure) -> dict:
    """``measure(run)`` of each ci-large command by row name, where ``run()``
    runs the command on ``samples``, written to a file in their order."""
    return _each_command(samples, lambda argv, warm_argv: measure(lambda: _main(argv)))


def _each_command(samples: np.ndarray, measure) -> dict:
    """``measure(argv, warm_argv)`` of each ci-large command by row name:
    its argv on ``samples``, written to a file in their order, and on 1000
    of them. Every command runs once on the 1000 first, to fill the caches."""
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        small, large, out = (os.path.join(tmp, name) for name in ("small.csv", "large.csv", "out.json"))
        _write_samples(small, samples[:1000])
        _write_samples(large, samples)
        warm = ci_commands(small, out)
        for _, warm_argv in warm:
            _main(warm_argv)
        for (name, argv), (_, warm_argv) in zip(ci_commands(large, out), warm):
            rows[name] = measure(argv, warm_argv)
    return rows


def command_peaks(samples: np.ndarray) -> dict[str, float]:
    """Peak of each ci-large command after its read, in units of one array
    of ``samples``' size."""
    real_read = cli.read_samples_csv

    def read_then_reset(*args, **kwargs):
        values = real_read(*args, **kwargs)
        tracemalloc.reset_peak()
        return values

    def peak(run) -> float:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / (8.0 * samples.size)

    cli.read_samples_csv = read_then_reset
    try:
        return _run_commands(samples, peak)
    finally:
        cli.read_samples_csv = real_read


def command_churn(samples: np.ndarray) -> dict[str, tuple[int, float]]:
    """Minor page faults and system CPU seconds of each ci-large command,
    its read included, from ``resource.getrusage``.

    Run it before ``tracemalloc`` starts: under tracing the same commands
    take almost no faults (12 in all at m = 10^6, against about 100000
    untraced), so a traced run would hide the churn.
    """

    def churn(run) -> tuple[int, float]:
        before = resource.getrusage(resource.RUSAGE_SELF)
        run()
        after = resource.getrusage(resource.RUSAGE_SELF)
        return after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime

    return _run_commands(samples, churn)


# A fresh process: it runs the command on the small file to fill the
# caches, reads the large file once, then prints how far running the
# command raises the peak resident set of its address space, in KiB. That
# peak (Linux's VmHWM) starts afresh at exec, where ru_maxrss would carry
# over the parent's.
_RSS_CHILD = """
import json, sys
from riskbounds import cli, read_samples_csv

def peak_kib():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

argv, warm_argv = json.loads(sys.argv[1])
if cli.main(warm_argv) != 0:
    sys.exit(1)
read_samples_csv(argv[argv.index("--input") + 1])
before = peak_kib()
if cli.main(argv) != 0:
    sys.exit(1)
print(peak_kib() - before)
"""


def rss_rise(argv: list[str], warm_argv: list[str]) -> float:
    """MiB by which ``ci`` with ``argv`` raises the peak resident set of a
    fresh process that ran ``warm_argv`` and read the input once before."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, json.dumps([argv, warm_argv])],
        env=env, capture_output=True, text=True, check=True,
    )
    return int(done.stdout) / 1024.0


def command_rss(samples: np.ndarray) -> dict[str, float]:
    """``rss_rise`` of each ci-large command, in MiB."""
    return _each_command(samples, rss_rise)


@contextlib.contextmanager
def traced():
    """``tracemalloc`` running, unless it already was."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--m", type=int, default=10**6, help="samples (default 10^6)")
    args = parser.parse_args(argv)
    samples = beta_samples(args.m)
    churn = command_churn(samples)
    rss = command_rss(samples)
    with traced():
        layers = layer_peaks(samples)
        calls = bound_rows_peaks(samples)
        commands = command_peaks(samples)
    out = io.StringIO()
    out.write(f"m = {args.m}; units of one {8 * args.m}-byte float64 array\n\n")
    out.write("| layer | peak |\n|---|---|\n")
    out.writelines(f"| `{name}` | {value:.2f} |\n" for name, value in layers.items())
    out.write("\n| one call, sample array included | peak |\n|---|---|\n")
    out.writelines(f"| `{name}` | {value:.2f} |\n" for name, value in calls.items())
    out.write(
        "\n| command | peak after the read | RSS rise, MiB | RSS rise, units | minor faults | system s |\n"
        "|---|---|---|---|---|---|\n"
    )
    unit_mib = 8.0 * args.m / 2**20
    out.writelines(
        f"| `{name}` | {value:.2f} | {rss[name]:.1f} | {rss[name] / unit_mib:.2f} "
        f"| {churn[name][0]} | {churn[name][1]:.3f} |\n"
        for name, value in commands.items()
    )
    faults, system_s = (sum(column) for column in zip(*churn.values()))
    out.write(f"| all | | | | {faults} | {system_s:.3f} |\n")
    sys.stdout.write(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
