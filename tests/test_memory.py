"""The memory budget of ``ci``, and the in-place layers against their
copying references.

Each O(m) layer of ``ci`` builds its result in place. The budget test holds
every layer and every ci-large command to its peak of temporaries, measured
with ``tracemalloc`` by ``tests/memory_table.py``. The reference tests hold
each rewritten layer to the concatenating, masking body it replaced, bit
for bit, on centers with ties, atoms on a or b, supports on both sides of 0,
radii near saturation and masses that drop to zero. The contract tests hold
the catalog's in-place weights and values to writing only arrays their
callers own.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memory_table
from conftest import assert_bitwise_equal
from reference import (
    copying_eval_rdeu,
    copying_from_cdf,
    copying_from_samples,
    copying_centred_log_moment,
    copying_neg_sup,
    copying_neg_w1,
    copying_pos_sup,
    copying_pos_w1,
    copying_sup_llc,
)
from riskbounds import (
    CVaR,
    DiscreteDistribution,
    Distance,
    ERM,
    RDEU,
    SupportBounds,
    evaluate,
    from_samples,
    glc,
    llc,
    quadrature_risk,
)
from riskbounds import measures
from riskbounds.bandit import BetaArm
from riskbounds.measures import (
    _apply,
    _centred_log_moment,
    ce_power,
    drm_power,
    rdeu_power,
    srm_power,
)
from riskbounds.operators import neg_sup, neg_w1, pos_sup, pos_w1

# Peak temporaries, in units of one m-element float64 array, including the
# layer's result; a command's peak counts from the end of its read and
# includes the sample array. A row takes the first key it equals or
# starts with.
BUDGETS = {
    "from_samples (read-only input)": 1.2,
    "from_samples": 2.2,
    "pos_sup": 2.4,
    "neg_sup": 2.4,
    "pos_w1": 2.4,
    "neg_w1": 2.4,
    "evaluate": 2.2,
    "sup llc": 3.2,
    "ci": 5.25,
    "bound_rows all": 5.25,
}
BUDGET_SAMPLES = 10**5


def _budget(row: str) -> float:
    return next(limit for key, limit in BUDGETS.items() if row == key or row.startswith(key + " "))


@pytest.fixture(scope="module")
def peaks():
    samples = memory_table.beta_samples(BUDGET_SAMPLES)
    with memory_table.traced():
        return (
            memory_table.layer_peaks(samples),
            memory_table.bound_rows_peaks(samples),
            memory_table.command_peaks(samples),
        )


def test_layers_keep_their_budget(peaks):
    layers, _, _ = peaks
    assert len(layers) == 6 + 2 * len(memory_table.FAMILIES)
    assert {row: round(peak, 3) for row, peak in layers.items() if peak > _budget(row)} == {}


def test_one_bound_call_with_every_method_keeps_the_budget(peaks):
    # ci's budget for a single bound_rows call over all its methods, with
    # no extreme kept from one method for the next.
    _, calls, _ = peaks
    assert len(calls) == 2 * len(memory_table.FAMILIES)
    assert {row: round(peak, 3) for row, peak in calls.items() if peak > _budget(row)} == {}


def test_ci_commands_keep_their_budget(peaks):
    _, _, commands = peaks
    assert len(commands) == 2 * len(memory_table.FAMILIES)
    assert {row: round(peak, 3) for row, peak in commands.items() if peak > _budget(row)} == {}


def test_rss_rise_runs_the_command_in_a_fresh_process(tmp_path):
    path, out = str(tmp_path / "samples.csv"), tmp_path / "out.json"
    memory_table._write_samples(path, memory_table.beta_samples(2000))
    (_, argv), *_ = memory_table.ci_commands(path, str(out))
    assert memory_table.rss_rise(argv, argv) >= 0.0
    assert len(json.loads(out.read_text())) == 3  # cvar's three methods


def _same(x: float, y: float) -> bool:
    return x == y or (x != x and y != y)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type of what it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


@st.composite
def centers(draw):
    """A distribution on a support with a < 0, a = 0 or a > 0: an EDF
    (ties likely) or weighted atoms, with atoms on a and b often."""
    a = draw(st.sampled_from([-1.0, 0.0, 0.5]))
    bounds = SupportBounds(a, a + draw(st.sampled_from([1.0, 2.5])))
    fractions = draw(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=30)
    )
    xs = np.clip(bounds.a + bounds.width * np.array(fractions), bounds.a, bounds.b)
    if draw(st.booleans()):
        return from_samples(xs, bounds)
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=xs.size, max_size=xs.size)))
    return DiscreteDistribution(xs, weights / weights.sum(), bounds)


def _radii(d: DiscreteDistribution, u: float, i: int) -> list[float]:
    """A free radius, one below half an ulp of 1, one that empties a prefix
    or suffix of the masses exactly, and radii at and just below each
    operator's saturation."""
    a, b = d.bounds.a, d.bounds.b
    below_mean, above_mean = d.mean() - a, b - d.mean()
    return [
        u * d.bounds.width,
        1e-17,
        float(d.cum[i % d.n_atoms]),
        1.0 - float(d.cum[i % d.n_atoms]),
        float(np.nextafter(1.0, 0.0)),
        1.0,
        below_mean,
        float(np.nextafter(below_mean, 0.0)),
        below_mean * (1.0 - 1e-12),
        above_mean,
        float(np.nextafter(above_mean, 0.0)),
        above_mean * (1.0 - 1e-12),
    ]


PAIRS = [(pos_sup, copying_pos_sup), (neg_sup, copying_neg_sup), (pos_w1, copying_pos_w1), (neg_w1, copying_neg_w1)]
LEVELS = [CVaR(0.05), CVaR(0.3), CVaR(0.9)]
SPECTRA = [srm_power(1.0), srm_power(2.0), srm_power(2.5)]
DISTORTIONS = [drm_power(0.5), drm_power(0.8), drm_power(1.0)]
# v = x^2 decreases below 0, so those two are rejected on supports with
# a < 0; v = x^3 keeps RDEU covered there.
SQUARE_VALUES = [rdeu_power(1.5, 2.0), rdeu_power(2.0, 2.0)]
RDEUS = [rdeu_power(1.0, 1.0), rdeu_power(1.5, 3.0)] + SQUARE_VALUES


def _assert_evaluators_match(d: DiscreteDistribution) -> None:
    with np.errstate(invalid="ignore"):  # x^k on negative atoms
        for spec in LEVELS + SPECTRA + DISTORTIONS + RDEUS:
            v = spec.v if isinstance(spec, RDEU) else (lambda x: x)
            got = _outcome(evaluate, spec, d)
            if got is ValueError:
                assert spec in SQUARE_VALUES and d.bounds.a < 0.0
            else:
                assert _same(got, copying_eval_rdeu(spec.w, v, d))
    # 1e-320 takes the mean; +-5000 move the centre off the lowest atom of
    # beta x wherever the atoms span more than 354 / 5000.
    for beta in (-3.0, 1.0, 40.0, 1e-300, 1e-320, 5000.0, -5000.0):
        centre, log_moment = copying_centred_log_moment(beta, d)
        assert _centred_log_moment(beta, d) == (centre, log_moment)
        assert evaluate(ERM(beta), d) == centre + log_moment / beta


@settings(max_examples=120, deadline=None)
@given(centers(), st.floats(0.0, 1.2), st.integers(0, 1000))
def test_operators_and_evaluators_match_copying_bodies(d, u, i):
    _assert_evaluators_match(d)
    for c in _radii(d, u, i):
        for op, ref in PAIRS:
            got, want = _outcome(op, d, c), _outcome(ref, d, c)
            if isinstance(want, DiscreteDistribution):
                assert_bitwise_equal(got, want)
                _assert_evaluators_match(got)
            else:
                assert got is want


def test_blocked_passes_match_copying_bodies():
    # Enough atoms for every blocked pass to run several blocks.
    rng = np.random.default_rng(3)
    m = 3 * measures._BLOCK + 5
    weights = rng.random(m)
    d = DiscreteDistribution(np.sort(rng.random(m)), weights / weights.sum(), SupportBounds(0.0, 1.0))
    assert d.n_atoms == m
    _assert_evaluators_match(d)
    for spec in LEVELS + SPECTRA + DISTORTIONS + RDEUS:
        assert _same(llc(spec, Distance.SUPREMUM, d, 0.01), copying_sup_llc(spec, d, 0.01))


def test_pos_sup_below_half_an_ulp_drops_the_atom_at_b():
    # With no atom on b, max(1 - c, 0) rounds to 1.0: the atom at b gets
    # no mass, and the last kept atom ends the CDF at 1.0.
    d = from_samples([0.2, 0.5, 0.9], SupportBounds(0.0, 1.0))
    got = pos_sup(d, 1e-17)
    assert_bitwise_equal(got, copying_pos_sup(d, 1e-17))
    assert got.xs.tolist() == [0.2, 0.5, 0.9] and got.cum[-1] == 1.0


@settings(max_examples=60, deadline=None)
@given(centers(), st.floats(0.0, 1.2), st.integers(0, 1000))
def test_sup_llc_matches_copying_bodies(d, u, i):
    with np.errstate(invalid="ignore"):  # x^k on negative atoms
        for c in _radii(d, u, i):
            for spec in LEVELS + SPECTRA + DISTORTIONS + RDEUS:
                if spec in SQUARE_VALUES and d.bounds.a < 0.0:
                    with pytest.raises(ValueError, match="value function must be increasing"):
                        llc(spec, Distance.SUPREMUM, d, c)
                else:
                    assert _same(llc(spec, Distance.SUPREMUM, d, c), copying_sup_llc(spec, d, c))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=30),
    st.sampled_from(["as drawn", "sorted", "distinct sorted"]),
)
def test_from_samples_matches_copying_body(fractions, order):
    arr = -1.0 + 2.0 * np.array(fractions)
    if order == "sorted":
        arr = np.sort(arr)
    elif order == "distinct sorted":
        arr = np.unique(arr)
    bounds = SupportBounds(-1.0, 1.0)
    assert_bitwise_equal(from_samples(arr, bounds), copying_from_samples(arr, bounds))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.0, 0.3, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=20),
    st.integers(0, 3),
)
def test_from_cdf_matches_copying_body(levels, ones):
    # Nondecreasing values ending at 1.0, with zero masses at the start, in
    # the middle (repeats) and at the end (``ones`` trailing 1.0s).
    cdf = np.append(np.maximum.accumulate(levels), np.ones(ones + 1))
    xs = np.arange(cdf.size, dtype=np.float64)
    bounds = SupportBounds(0.0, float(cdf.size))
    got = _outcome(DiscreteDistribution._from_cdf, xs, cdf.copy(), bounds)
    want = _outcome(copying_from_cdf, xs, cdf.copy(), bounds)
    if isinstance(want, DiscreteDistribution):
        assert_bitwise_equal(got, want)
    else:
        assert got is want


@pytest.mark.parametrize(
    "scaled, reference",
    [
        (srm_power(2.5).phi, lambda y: 2.5 * np.power(y, 1.5)),
        (drm_power(0.5).g_prime, lambda y: 0.5 * np.power(y, -0.5)),
        (ce_power(3.0).u_prime, lambda y: 3.0 * np.power(y, 2.0)),
        (rdeu_power(1.5, 2.0).w_prime, lambda y: 1.5 * np.power(y, 0.5)),
        (rdeu_power(1.5, 2.0).v_prime, lambda y: 2.0 * np.power(y, 1.0)),
    ],
)
def test_catalog_derivatives_scale_in_place_bitwise(scaled, reference):
    y = np.random.default_rng(0).random(1000)
    y[:3] = [0.0, 1.0, 0.5]
    with np.errstate(divide="ignore"):
        assert scaled(y).tobytes() == reference(y).tobytes()


# The catalog callables that write a writable float64 array in place, with
# their exponents.
IN_PLACE = [
    (srm_power(2.5).phi_integral, 2.5),
    (drm_power(0.5).g, 0.5),
    (rdeu_power(1.5, 2.0).w, 1.5),
    (rdeu_power(1.5, 2.0).v, 2.0),
]


def _levels() -> np.ndarray:
    y = np.random.default_rng(1).random(1000)
    y[:3] = [0.0, 1.0, 0.5]
    return y


@pytest.mark.parametrize("fn, p", IN_PLACE)
def test_catalog_weights_and_values_write_in_place_bitwise(fn, p):
    y = _levels()
    buf = y.copy()
    got = fn(buf)
    assert got is buf
    assert got.tobytes() == np.power(y, p).tobytes()


@pytest.mark.parametrize("fn, p", IN_PLACE)
def test_catalog_weights_and_values_allocate_for_arrays_they_may_not_write(fn, p):
    y = _levels()
    want = np.power(y, p)
    frozen = y.copy()
    frozen.setflags(write=False)
    assert np.asarray(fn(y.tolist())).tobytes() == want.tobytes()
    assert fn(frozen).tobytes() == want.tobytes()
    assert fn(0.3) == np.power(0.3, p)
    assert frozen.tobytes() == y.tobytes()
    calls = []

    def counted(x):
        calls.append(x)
        return fn(x)

    # One call on the whole array, not _apply's per-element loop.
    assert _apply(counted, frozen).tobytes() == want.tobytes()
    assert len(calls) == 1


def test_every_family_leaves_the_shared_grid_unchanged():
    grid = measures._GRID.tobytes()
    bounds = SupportBounds(0.0, 1.0)
    d = from_samples(np.random.default_rng(2).beta(2.0, 5.0, 500), bounds)
    for spec in (CVaR(0.1), ERM(1.0), srm_power(2.5), drm_power(0.5), ce_power(2.0), rdeu_power(1.5, 2.0)):
        spec = dataclasses.replace(spec)  # a new spec runs its construction checks again
        evaluate(spec, d)
        llc(spec, Distance.SUPREMUM, d, 0.05)
        for dist_kind in Distance:
            glc.__wrapped__(spec, dist_kind, bounds)  # past the cache
        quadrature_risk(BetaArm(2.0, 5.0), spec, bounds)
    assert measures._GRID.tobytes() == grid
