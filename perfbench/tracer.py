"""Span tracer that wraps riskbounds' public functions from outside.

Each boundary is wrapped at every module attribute that binds the original
object (``from .operators import neg_sup`` in ``bounds`` and ``lipschitz``
binds its own name), so calls between modules are seen without editing the
package. Spans are kept in flat in-memory arrays and written out once, at
the end of the run. A boundary's self time is its span minus the time its
child spans cover; the run is single-threaded, so children nest and never
overlap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (metric name, module, attribute). Functions are wrapped wherever a
# riskbounds module binds them; class attributes are wrapped on the class.
FUNCTIONS = [
    ("cli.main", "riskbounds.cli", "main"),
    ("bounds.bound_from_samples", "riskbounds.bounds", "bound_from_samples"),
    ("bounds.bound_with_radius", "riskbounds.bounds", "bound_with_radius"),
    ("distributions.read_samples_csv", "riskbounds.distributions", "read_samples_csv"),
    ("distributions.from_samples", "riskbounds.distributions", "from_samples"),
    ("concentration.confidence_radius", "riskbounds.concentration", "confidence_radius"),
    ("operators.pos_sup", "riskbounds.operators", "pos_sup"),
    ("operators.neg_sup", "riskbounds.operators", "neg_sup"),
    ("operators.pos_w1", "riskbounds.operators", "pos_w1"),
    ("operators.neg_w1", "riskbounds.operators", "neg_w1"),
    ("measures.evaluate", "riskbounds.measures", "evaluate"),
    ("lipschitz.llc", "riskbounds.lipschitz", "llc"),
    ("lipschitz.glc", "riskbounds.lipschitz", "glc"),
    ("bandit.run_lcb", "riskbounds.bandit", "run_lcb"),
    ("bandit.true_risk", "riskbounds.bandit", "true_risk"),
    ("bandit.regret_bound", "riskbounds.bandit", "regret_bound"),
    ("oracles.quadrature_risk", "riskbounds.oracles", "quadrature_risk"),
]
# Both construction paths of a distribution: the validating constructor
# (``dirac`` goes through it too) and the operators' exact-CDF builder.
CLASS_ATTRS = [
    ("distributions.DiscreteDistribution", "riskbounds.distributions", "DiscreteDistribution", "__init__"),
    ("distributions.DiscreteDistribution", "riskbounds.distributions", "DiscreteDistribution", "_from_cdf"),
] + [
    ("bandit.arm_sample", "riskbounds.bandit", cls, "sample")
    for cls in ("DiracArm", "UniformArm", "BetaArm", "TruncNormalArm", "DiscreteArm")
]
BOUNDARIES = list(dict.fromkeys([f[0] for f in FUNCTIONS] + [c[0] for c in CLASS_ATTRS]))
OPERATORS = ("operators.pos_sup", "operators.neg_sup", "operators.pos_w1", "operators.neg_w1")


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


class Tracer:
    """Records one span per boundary call while installed."""

    def __init__(self):
        self.ids = {name: i for i, name in enumerate(BOUNDARIES)}
        self.calls = [0] * len(BOUNDARIES)
        self.self_s = [0.0] * len(BOUNDARIES)
        self.samples_in = 0  # samples passed to from_samples
        self.atoms_in = 0  # center atoms passed to the four operators
        self.op = -1  # operation id stamped on every span
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, time covered by children]
        self._undo = []

    def _wrap(self, name, fn):
        nid = self.ids[name]
        stack = self._stack
        counts_samples = name == "distributions.from_samples"
        counts_atoms = name in OPERATORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_samples:
                self.samples_in += len(_first_arg(args, kwargs, "samples"))
            elif counts_atoms:
                self.atoms_in += _first_arg(args, kwargs, "d").n_atoms
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_op.append(self.op)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            self.span_start[idx] = start
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.span_end[idx] = end
                stack.pop()
                duration = end - start
                self.calls[nid] += 1
                self.self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "riskbounds" or k.startswith("riskbounds.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        for name, module, cls_name, attr in CLASS_ATTRS:
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(name, raw))
            self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path: str) -> None:
        start = np.array(self.span_start, dtype=np.float64)
        origin = float(start[0]) if start.size else 0.0
        np.savez(
            path,
            names=np.array(BOUNDARIES),
            name=np.array(self.span_name, dtype=np.int32),
            op=np.array(self.span_op, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=start - origin,
            end=np.array(self.span_end, dtype=np.float64) - origin,
        )
