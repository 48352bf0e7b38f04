from contextlib import contextmanager

import numpy as np
import pytest

from riskbounds import (
    CVaR,
    DiscreteDistribution,
    DRM,
    SupportBounds,
    ce_power,
    drm_power,
    rdeu_power,
    srm_power,
)
from riskbounds.measures import ERM


def random_interior_dist(
    rng: np.random.Generator,
    bounds: SupportBounds,
    max_atoms: int = 6,
    margin: float = 0.05,
) -> DiscreteDistribution:
    """Random discrete distribution with atoms strictly inside the support.

    Interior atoms keep the tightness-chain comparisons strict: an atom
    sitting exactly on a support endpoint can make the ball-extreme bound
    and the local-constant bound coincide.
    """
    m = int(rng.integers(1, max_atoms + 1))
    lo = bounds.a + margin * bounds.width
    hi = bounds.b - margin * bounds.width
    xs = np.sort(rng.uniform(lo, hi, m))
    ps = rng.random(m) + 0.05
    return DiscreteDistribution(xs, ps / ps.sum(), bounds)


def assert_invariants(d: DiscreteDistribution) -> None:
    """The class invariants every instance must hold, however it was built."""
    assert d.xs.dtype == d.ps.dtype == d.cum.dtype == np.float64
    assert d.xs.size == d.ps.size == d.cum.size >= 1
    assert np.all(np.isfinite(d.xs))
    assert np.all(np.diff(d.xs) > 0.0)
    assert d.bounds.a <= d.xs[0] and d.xs[-1] <= d.bounds.b
    assert np.all(d.ps > 0.0)
    assert d.cum[-1] == 1.0
    assert not (d.xs.flags.writeable or d.ps.flags.writeable or d.cum.flags.writeable)


def assert_bitwise_equal(d1: DiscreteDistribution, d2: DiscreteDistribution) -> None:
    assert d1.bounds == d2.bounds
    for name in ("xs", "ps", "cum"):
        a1, a2 = getattr(d1, name), getattr(d2, name)
        assert a1.shape == a2.shape and a1.tobytes() == a2.tobytes(), name


@contextmanager
def validated_builds():
    """Send every trusted build through the public, validating constructor.

    Builds that bring their own exact CDF values (``_from_cdf``) are stored
    verbatim by design; for them the stand-in asserts the trusted contract
    instead. Comparing results inside and outside this context checks the
    trusted path against the validated one on the same arrays.
    """
    trusted = DiscreteDistribution.__dict__["_trusted"]

    def validating(cls, xs, ps, bounds, cum=None):
        if cum is None:
            return cls(np.array(xs), np.array(ps), bounds)
        out = trusted.__func__(cls, xs, ps, bounds, cum)
        assert_invariants(out)
        return out

    DiscreteDistribution._trusted = classmethod(validating)
    try:
        yield
    finally:
        DiscreteDistribution._trusted = trusted


def cvar_spectrum(alpha: float):
    """CVaR expressed as a spectrum: phi = (1/alpha) 1{y >= 1-alpha}."""

    def phi(y):
        return np.where(np.asarray(y) >= 1.0 - alpha, 1.0 / alpha, 0.0)

    def phi_integral(y):
        return np.maximum(np.asarray(y) - (1.0 - alpha), 0.0) / alpha

    return phi, phi_integral


def cvar_distortion(alpha: float):
    """CVaR expressed as a distortion: g = min(y/alpha, 1)."""

    def g(y):
        return np.minimum(np.asarray(y) / alpha, 1.0)

    def g_prime(y):
        return np.where(np.asarray(y) < alpha, 1.0 / alpha, 0.0)

    return g, g_prime


def quad_drm() -> DRM:
    """Concave distortion with bounded derivative, g(y) = 2y - y^2."""
    return DRM(lambda y: 2.0 * np.asarray(y) - np.asarray(y) ** 2, lambda y: 2.0 - 2.0 * np.asarray(y))


def catalog_specs() -> list:
    """The CLI-expressible catalog used by the randomized suites."""
    return [
        ("cvar:0.1", CVaR(0.1)),
        ("cvar:0.4", CVaR(0.4)),
        ("erm:2", ERM(2.0)),
        ("srm-power:2.5", srm_power(2.5)),
        ("drm-power:0.8", drm_power(0.8)),
        ("ce-power:2", ce_power(2.0)),
        ("rdeu-power:1.5,2", rdeu_power(1.5, 2.0)),
    ]


@pytest.fixture(scope="session")
def unit_bounds() -> SupportBounds:
    return SupportBounds(0.0, 1.0)
