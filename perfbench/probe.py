"""Set-up work a fresh interpreter does before a workload's first command:
import ``riskbounds`` and fill the true-risk quadrature cache.

Run as ``python3 perfbench/probe.py <src dir> <instances JSON>``. It prints
the wall seconds of the import and the fill, timed inside the process so
that interpreter start-up, which no change to the package can move, is
left out.
"""

from __future__ import annotations

import json
import sys
import time


def fill_true_risks(instances: list) -> None:
    from riskbounds.bandit import instance_from_dict, true_risk

    for obj in instances:
        inst = instance_from_dict(obj)
        for arm in inst.arms:
            true_risk(arm, inst.risk, inst.bounds)


if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import riskbounds  # noqa: F401  (the import is part of the set-up being timed)

    fill_true_risks(json.loads(sys.argv[2]))
    print(repr(time.perf_counter() - start))
