"""``bound_rows``, the block kernel of ``sweep`` and ``coverage``, against the
per-trial reference loop: every row's lcb, ucb, point, coverage and extras
must be bitwise equal."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds import (
    BoundMethod,
    DiscreteArm,
    DiscreteDistribution,
    Distance,
    RadiusRule,
    SupportBounds,
    bound_from_samples,
    bound_rows,
    parse_risk,
    true_risk,
)
from riskbounds import cli, measures
from riskbounds.cli import _bound_trials, _parse_arm, main
from reference import bound_samples, trial_results
from conftest import catalog_specs

B01 = SupportBounds(0.0, 1.0)
SUP, W1 = Distance.SUPREMUM, Distance.WASSERSTEIN1
FAMILIES = ["cvar:0.1", "srm-power:2", "drm-power:0.5", "erm:1", "ce-power:2", "rdeu-power:2,2"]
METHODS = list(BoundMethod)
# Every supported (family, distance, method): RDEU over W1 is glc-only.
COMBOS = [
    (risk, dist_kind, method)
    for risk in FAMILIES
    for dist_kind in (SUP, W1)
    for method in METHODS
    if not (risk.startswith("rdeu") and dist_kind is W1 and method is not BoundMethod.GLC)
]


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_same_results(got, want, truth=None):
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert [r.method for r in got_row] == [r.method for r in want_row]
        for g, w in zip(got_row, want_row):
            assert g.distance is w.distance
            for name in ("lcb", "ucb", "point", "radius"):
                assert _bits(getattr(g, name)) == _bits(getattr(w, name)), name
            assert list(g.extras) == list(w.extras)
            for key, value in w.extras.items():
                if isinstance(value, float):
                    assert _bits(g.extras[key]) == _bits(value), key
                else:
                    assert g.extras[key] == value, key
            if truth is not None:
                assert (g.lcb <= truth <= g.ucb) == (w.lcb <= truth <= w.ucb)


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 60 samples, so a handful of trials spans several blocks."""
    monkeypatch.setattr(cli, "_BLOCK_SAMPLES", 60)


def _compare_trials(dist, risk, dist_kind, methods, n, trials, delta=0.05, entropy=lambda t: [7, t]):
    arm, spec = _parse_arm(dist), parse_risk(risk)
    rule = None if dist_kind is SUP else RadiusRule.SCALED_DKW
    entropies = [entropy(t) for t in range(trials)]
    got = list(_bound_trials(arm, n, iter(entropies), B01, spec, dist_kind, methods, delta, rule))
    want = trial_results(arm, n, entropies, B01, spec, dist_kind, methods, delta, rule)
    assert_same_results(got, want, true_risk(arm, spec, B01))
    return got


class TestAgainstPerTrialLoop:
    @pytest.mark.parametrize("risk,dist_kind,method", COMBOS, ids=lambda v: getattr(v, "value", v))
    def test_coverage_rows(self, small_blocks, risk, dist_kind, method):
        # n = 20 with 60-sample blocks: 7 trials are blocks of 3, 3 and 1.
        _compare_trials("beta:2,5", risk, dist_kind, [method], n=20, trials=7)

    @pytest.mark.parametrize("risk", FAMILIES)
    @pytest.mark.parametrize("dist_kind", [SUP, W1], ids=["sup", "w1"])
    def test_sweep_rows_share_the_point(self, small_blocks, risk, dist_kind):
        methods = [BoundMethod.GLC] if risk.startswith("rdeu") and dist_kind is W1 else METHODS
        _compare_trials("truncnormal:0.4,0.15", risk, dist_kind, methods, n=20, trials=4,
                        entropy=lambda t: [3, 20, t])

    @pytest.mark.parametrize("dist", ["dirac:0.3", "dirac:0", "dirac:1", "truncnormal:-9,1"])
    @pytest.mark.parametrize("risk", ["cvar:0.1", "drm-power:0.5", "rdeu-power:2,2"])
    @pytest.mark.parametrize("dist_kind", [SUP, W1], ids=["sup", "w1"])
    def test_rows_bounded_on_their_own(self, small_blocks, dist, risk, dist_kind):
        # ties (dirac:0.3), atoms on a or b (dirac:0, dirac:1, and the far
        # tail of truncnormal:-9,1 clipped onto 0) take the per-row path
        methods = [BoundMethod.GLC] if risk.startswith("rdeu") and dist_kind is W1 else METHODS
        _compare_trials(dist, risk, dist_kind, methods, n=5, trials=13)

    @pytest.mark.parametrize("risk", FAMILIES)
    def test_one_sample_saturated_radius(self, risk):
        # n = 1: the DKW radius is about 1.36, so both extremes saturate
        rows = _compare_trials("beta:2,5", risk, SUP, METHODS, n=1, trials=5)
        assert rows[0][0].radius >= 1.0

    def test_zero_radius(self, small_blocks):
        # delta = 2 gives radius 0: every extreme is the EDF itself
        rows = _compare_trials("beta:2,5", "srm-power:2", SUP, METHODS, n=10, trials=8, delta=2.0)
        assert all(r.lcb == r.point == r.ucb for row in rows for r in row[:1])

    @pytest.mark.parametrize("dist_kind", [SUP, W1], ids=["sup", "w1"])
    def test_blocks_mixing_shared_and_own_rows(self, small_blocks, dist_kind):
        # 12 atoms including a and b, 4 samples a row: some rows tie-free
        # and inside (a, b), others with ties or boundary atoms
        atoms = np.linspace(0.0, 1.0, 12)
        arm = DiscreteArm(DiscreteDistribution(atoms, np.full(12, 1.0 / 12), B01))
        entropies = [[5, t] for t in range(40)]
        for risk in FAMILIES:
            spec = parse_risk(risk)
            methods = [BoundMethod.GLC] if risk.startswith("rdeu") and dist_kind is W1 else METHODS
            got = list(_bound_trials(arm, 4, iter(entropies), B01, spec, dist_kind, methods, 0.05, None))
            want = trial_results(arm, 4, entropies, B01, spec, dist_kind, methods, 0.05, None)
            assert_same_results(got, want)
        rows = [np.sort(arm.sample(np.random.default_rng(e), 4, B01)) for e in entropies]
        shared = [bool(np.all(np.diff(np.concatenate(([0.0], r, [1.0]))) > 0)) for r in rows]
        assert any(shared) and not all(shared)


class TestBlockEdges:
    """Edges of the block that ``bound_rows`` bounds in one pass."""

    @pytest.mark.parametrize("dist_kind", [SUP, W1], ids=["sup", "w1"])
    def test_past_one_measures_block(self, dist_kind):
        # n = 8193: the blocked _forward_diff and _steps passes run, and the
        # pairwise sums of every row are deeper than one of numpy's blocks.
        assert 8193 > measures._BLOCK
        for risk in FAMILIES:
            methods = [m for r, d, m in COMBOS if r == risk and d is dist_kind]
            _compare_trials("beta:2,5", risk, dist_kind, methods, n=8193, trials=3)

    @pytest.mark.parametrize("risk", ["erm:500", "erm:-2", "erm:1e-310", "erm:1000", "erm:-1000"])
    @pytest.mark.parametrize("dist_kind", [SUP, W1], ids=["sup", "w1"])
    def test_erm_rows(self, small_blocks, risk, dist_kind):
        # beta = 500 shifts the rows whose atoms span more than 354 / 500
        # and not the others; below |beta| = 2^-1000 every row is centred at
        # its mean; at |beta| = 1000 a row's unshifted exponentials would
        # overflow; a negative beta has only the dist method.
        methods = [BoundMethod.DIST] if risk.startswith("erm:-") else METHODS
        _compare_trials("beta:2,5", risk, dist_kind, methods, n=20, trials=7)
        if risk == "erm:500":
            spans = [np.ptp(_parse_arm("beta:2,5").sample(np.random.default_rng([7, t]), 20, B01)) for t in range(7)]
            assert min(spans) < 354 / 500 < max(spans)

    @pytest.mark.parametrize("risk", ["ce-power:2", "rdeu-power:2,2"])
    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
    def test_ce_and_rdeu_under_every_sup_method(self, risk, method):
        _compare_trials("truncnormal:0.4,0.15", risk, SUP, [method], n=300, trials=5)

    @pytest.mark.parametrize("dist_kind", [SUP, W1], ids=["sup", "w1"])
    def test_one_shared_row_among_own_rows(self, dist_kind):
        # Only the middle row is tie-free and inside (a, b): the block is that
        # one row, whose columns are contiguous in memory.
        block = np.array([[0.0, 0.3, 0.5, 0.7], [0.2, 0.6, 0.4, 0.9], [0.3, 0.3, 0.9, 0.1]])
        for risk in FAMILIES:
            spec = parse_risk(risk)
            methods = [m for r, d, m in COMBOS if r == risk and d is dist_kind]
            want = [[bound_samples(row, B01, spec, dist_kind, m, 0.05) for m in methods] for row in block]
            assert_same_results(bound_rows(block, B01, spec, dist_kind, methods, 0.05), want)

    def test_llc_row_whose_value_steps_vanish(self):
        # v(x) = x^2 rounds the tiny samples to 0, so the second row's positive
        # steps of v are not the first row's: it is bounded on its own, and
        # its pairwise sum, taken without the empty steps, is not regrouped.
        rows = np.sort(np.random.default_rng(2).uniform(0.05, 0.95, (2, 40)), axis=1)
        rows[1, :3] = 1e-200, 2e-200, 3e-200
        spec, methods = parse_risk("rdeu-power:2,2"), [BoundMethod.LLC]
        want = [[bound_samples(row, B01, spec, SUP, BoundMethod.LLC, 0.9)] for row in rows]
        assert_same_results(bound_rows(rows, B01, spec, SUP, methods, 0.9), want)

    @pytest.mark.parametrize("risk", FAMILIES)
    def test_radius_of_one_or_more(self, small_blocks, risk):
        # n = 3 at delta = 1e-3: the DKW radius is about 1.12, so both
        # supremum-ball extremes are Dirac masses at a and b
        rows = _compare_trials("beta:2,5", risk, SUP, METHODS, n=3, trials=8, delta=1e-3)
        assert rows[0][0].radius >= 1.0


_VALUES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 4),
    n=st.integers(1, 6),
    data=st.data(),
    spec_idx=st.integers(0, len(catalog_specs()) - 1),
    dist_kind=st.sampled_from([SUP, W1]),
    methods=st.sampled_from([[m] for m in METHODS] + [METHODS]),
    delta=st.sampled_from([0.05, 0.5, 2.0]),
    wide=st.booleans(),
)
def test_bound_rows_matches_reference(rows, n, data, spec_idx, dist_kind, methods, delta, wide):
    """Any block, including unsupported combinations and supports that the
    spec rejects: the same results, or the same exception."""
    bounds = SupportBounds(-1.0, 1.0) if wide else B01
    block = np.array(data.draw(st.lists(st.lists(_VALUES, min_size=n, max_size=n), min_size=rows, max_size=rows)))
    spec = catalog_specs()[spec_idx][1]
    rule = None if dist_kind is SUP else RadiusRule.SCALED_DKW
    kept = block.copy()
    try:
        want = [[bound_samples(r, bounds, spec, dist_kind, m, delta, rule) for m in methods] for r in block]
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            bound_rows(block, bounds, spec, dist_kind, methods, delta, rule)
        assert str(info.value) == str(exc)
    else:
        assert_same_results(bound_rows(block, bounds, spec, dist_kind, methods, delta, rule), want)
    assert block.tobytes() == kept.tobytes()  # the caller's block is not sorted


class TestValidation:
    def test_block_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="2-D"):
            bound_rows(np.zeros(3), B01, parse_risk("cvar:0.1"), SUP, METHODS, 0.05)

    @pytest.mark.parametrize(
        "block,message",
        [
            (np.zeros((2, 0)), "sample count must be a positive integer, got 0"),  # the radius comes first
            ([[0.5, np.nan]], "finite"),
            ([[0.5, 0.2], [0.3, 1.5], [-1.0, 0.5]], "sample 1.5 outside"),
            # Row by row: the first row's fault, not the nan after it.
            ([[0.5, 1.5], [0.2, 0.3], [np.nan, 0.5]], "sample 1.5 outside"),
        ],
    )
    def test_same_messages_as_from_samples(self, block, message):
        with pytest.raises(ValueError, match=message):
            bound_rows(block, B01, parse_risk("cvar:0.1"), SUP, METHODS, 0.05)

    def test_no_methods_give_empty_rows(self):
        block = np.array([[0.2, 0.6], [0.3, 0.3], [0.4, 0.9]])  # shared, own, shared
        assert bound_rows(block, B01, parse_risk("cvar:0.1"), SUP, [], 0.05) == [[], [], []]

    def test_one_row_is_bound_from_samples(self):
        samples = np.random.default_rng(0).random(50)
        for method in METHODS:
            got = bound_from_samples(samples, B01, parse_risk("erm:1"), SUP, method, 0.05)
            want = bound_samples(samples, B01, parse_risk("erm:1"), SUP, method, 0.05)
            assert_same_results([[got]], [[want]])


@pytest.mark.parametrize("risk", FAMILIES)
@pytest.mark.parametrize("dist_kind", [SUP, W1])
@pytest.mark.parametrize("ties", [False, True])
def test_one_call_with_every_method_is_one_call_per_method(risk, dist_kind, ties):
    # ci's samples: sorted and read-only, tie-free or not.
    samples = np.random.default_rng(3).beta(2.0, 5.0, 2000)
    samples = np.sort(np.round(samples, 2) if ties else samples)
    samples.setflags(write=False)
    spec = parse_risk(risk)
    methods = [method for r, d, method in COMBOS if r == risk and d is dist_kind]
    got = bound_rows(samples.reshape(1, -1), B01, spec, dist_kind, methods, 0.05)
    want = [[bound_from_samples(samples, B01, spec, dist_kind, method, 0.05) for method in methods]]
    assert_same_results(got, want)


class TestUnsupportedCombinations:
    @pytest.mark.parametrize("command", ["coverage", "sweep"])
    @pytest.mark.parametrize(
        "risk,distance,method,message",
        [
            ("rdeu-power:2,2", "w1", "dist", "W1 ball extremes do not attain the rank-dependent expected "
             "utility optimum; use the supremum distance or the glc method"),
            ("rdeu-power:2,2", "w1", "llc", "rank-dependent expected utility has no local Lipschitz "
             "constant over W1 balls; use the glc method"),
            ("erm:-1", "sup", "llc", "entropic-risk Lipschitz constants are derived for beta > 0 "
             "(increasing exponential utility); evaluation itself accepts any nonzero beta"),
        ],
    )
    def test_exit_3_and_message(self, capsys, command, risk, distance, method, message):
        argv = [command, "--dist", "beta:2,5", "--bounds", "0,1", "--risk", risk, "--distance", distance,
                "--method", method, "--n", "10"]
        argv += ["--trials", "3"] if command == "coverage" else ["--seeds", "2"]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"unsupported combination: {message}\n"

    def test_sweep_all_reports_the_first_method(self, capsys):
        # dist comes first, so its message is the one printed
        argv = ["sweep", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", "rdeu-power:2,2",
                "--distance", "w1", "--n", "10", "--seeds", "2"]
        assert main(argv) == 3
        assert "W1 ball extremes do not attain" in capsys.readouterr().err


def test_coverage_memory_stays_flat(tmp_path):
    """2000 trials of 1000 samples (2e6 samples, 16 MB as one array) span
    31 blocks; the traced peak stays within a few blocks' bytes, and the
    payload is the per-trial loop's."""
    n, trials = 1000, 2000
    argv = ["coverage", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", "cvar:0.1", "--n", str(n),
            "--trials", str(trials), "--seed", "4"]
    arm, spec = _parse_arm("beta:2,5"), parse_risk("cvar:0.1")
    truth = true_risk(arm, spec, B01)  # fills the quadrature cache before tracing
    out = tmp_path / "coverage.json"
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = 8 * cli._BLOCK_SAMPLES
    assert n * trials * 8 > 30 * block_bytes
    assert peak < 6 * block_bytes, peak

    entropies = ([4, t] for t in range(trials))
    want = trial_results(arm, n, entropies, B01, spec, SUP, [BoundMethod.DIST], 0.05, None)
    hits = sum(row[0].lcb <= truth <= row[0].ucb for row in want)
    payload = json.loads(out.read_text())
    assert payload["true_risk"] == truth
    assert payload["coverage"] == hits / trials


def test_sweep_memory_stays_flat(tmp_path):
    """400 seeds at n = 100 and 1000 (4.4e5 samples, 6.7 blocks as one
    array) with every method: the traced peak stays within a few blocks'
    bytes, the output rows included, and the CSV is the per-trial loop's."""
    seeds = 400
    argv = ["sweep", "--dist", "beta:2,5", "--bounds", "0,1", "--risk", "drm-power:0.5", "--method", "all",
            "--n", "100,1000", "--seeds", str(seeds), "--seed", "4"]
    arm, spec = _parse_arm("beta:2,5"), parse_risk("drm-power:0.5")
    truth = true_risk(arm, spec, B01)  # fills the quadrature cache before tracing
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = 8 * cli._BLOCK_SAMPLES
    assert 1100 * seeds * 8 > 6 * block_bytes
    assert peak < 6 * block_bytes, peak

    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * seeds * len(METHODS)
    for n in (100, 1000):
        want = trial_results(arm, n, ([4, n, s] for s in range(0, seeds, 37)), B01, spec, SUP, METHODS, 0.05, None)
        for s, row in zip(range(0, seeds, 37), want):
            for res in row:
                covered = int(res.lcb <= truth <= res.ucb)
                line = f"{n},{s},{res.method.value},{res.lcb!r},{res.ucb!r},{res.point!r},{truth!r},{covered}"
                assert line in lines
