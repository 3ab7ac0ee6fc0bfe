import math

import numpy as np
import pytest
from scipy.integrate import quad

from phi4vqe.lattice_model import (
    ModelParams,
    counterterm_continuum,
    counterterm_first_order,
    momentum_grid,
)


def params(L=2, m_sq=1.0, m0_sq=None, delta_m=None, lam=0.0, n_max=4):
    if m0_sq is not None:
        return ModelParams.from_bare(L=L, m_sq=m_sq, m0_sq=m0_sq, lam=lam, n_max=n_max)
    return ModelParams.from_counterterm(L=L, m_sq=m_sq, delta_m=delta_m or 0.0,
                                        lam=lam, n_max=n_max)


# ---------------------------------------------------------------- momentum grid

def test_momentum_grid_zero_momentum_is_the_reference_mass():
    for L in (1, 2, 5):
        grid = momentum_grid(params(L=L, m_sq=1.5, n_max=2))
        assert grid.frequencies[0] == pytest.approx(math.sqrt(1.5), abs=1e-15)


def test_momentum_grid_zone_boundary():
    # k = pi: omega^2 = m^2 + 4, so 2 in the massless limit and sqrt(5) at m^2 = 1
    for m_sq, want in [(1e-300, 2.0), (1.0, math.sqrt(5.0))]:
        grid = momentum_grid(params(L=4, m_sq=m_sq, n_max=2))
        assert grid.momenta[2] == pytest.approx(math.pi, abs=1e-15)
        assert grid.frequencies[2] == pytest.approx(want, abs=1e-15)


def test_momentum_grid_matches_the_dispersion_relation():
    rng = np.random.default_rng(11)
    for _ in range(50):
        L = int(rng.integers(1, 9))
        m_sq = rng.uniform(0.05, 5.0)
        grid = momentum_grid(params(L=L, m_sq=m_sq, n_max=2))
        assert np.allclose(grid.momenta, 2.0 * math.pi * np.arange(L) / L, atol=1e-15)
        for k, w in zip(grid.momenta, grid.frequencies):
            assert w >= 0.0
            assert abs(w * w - m_sq - 4.0 * math.sin(k / 2.0) ** 2) < 1e-12
        # omega(k) = omega(-k): mode j and mode L - j share a frequency
        assert np.allclose(grid.frequencies[1:], grid.frequencies[1:][::-1], atol=1e-14)


def test_momentum_grid_two_sites():
    grid = momentum_grid(params(L=2, m_sq=1.0))
    assert np.allclose(sorted(grid.momenta), [0.0, math.pi], atol=1e-15)
    assert np.allclose(sorted(grid.frequencies), [1.0, math.sqrt(5.0)], atol=1e-15)


def test_momentum_grid_single_site():
    grid = momentum_grid(params(L=1, m_sq=0.1, n_max=2))
    assert grid.momenta.shape == (1,)
    assert grid.momenta[0] == 0.0
    assert grid.frequencies[0] == pytest.approx(math.sqrt(0.1), abs=1e-15)


def test_momentum_grid_four_sites_quarter_zone():
    grid = momentum_grid(params(L=4, m_sq=1.5, n_max=2))
    # k = pi/2 entry: omega^2 = 1.5 + 4 sin^2(pi/4) = 3.5
    idx = np.argmin(np.abs(grid.momenta - math.pi / 2.0))
    assert grid.frequencies[idx] ** 2 == pytest.approx(3.5, abs=1e-12)


# ---------------------------------------------------------------- counterterm, finite L

def test_counterterm_first_order_two_sites():
    value = counterterm_first_order(params(L=2, m_sq=1.0, lam=1.0))
    assert value == pytest.approx(-(1.0 / 8.0) * (1.0 + 1.0 / math.sqrt(5.0)), abs=1e-14)


def test_counterterm_first_order_free():
    assert counterterm_first_order(params(lam=0.0)) == 0.0


def test_counterterm_first_order_light_mass():
    value = counterterm_first_order(params(L=2, m_sq=0.1, lam=4.0))
    expected = -(4.0 / 8.0) * (1.0 / math.sqrt(0.1) + 1.0 / math.sqrt(4.1))
    assert value == pytest.approx(expected, abs=1e-13)


def test_counterterm_first_order_linear_in_coupling():
    base = params(L=4, m_sq=0.5, lam=3.0)
    assert counterterm_first_order(base.with_lam(6.0)) == 2.0 * counterterm_first_order(base)


def test_counterterm_more_negative_with_coupling():
    values = [counterterm_first_order(params(L=4, m_sq=1.0, lam=lam))
              for lam in (1.0, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_counterterm_shrinks_with_mass():
    values = [counterterm_first_order(params(L=4, m_sq=m_sq, lam=1.0))
              for m_sq in (0.1, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def integral_limit(m_sq, lam):
    # L -> infinity limit of the mode sum: -(lam/4) * (1/2pi) * int dk / omega(k)
    val, _ = quad(lambda k: 1.0 / math.sqrt(m_sq + 4.0 * math.sin(k / 2.0) ** 2),
                  0.0, 2.0 * math.pi, limit=200)
    return -(lam / (8.0 * math.pi)) * val


def test_counterterm_converges_to_integral_light_mass():
    limit = integral_limit(0.1, 1.0)
    errs = [abs(counterterm_first_order(params(L=L, m_sq=0.1, lam=1.0)) - limit)
            for L in (8, 16, 32, 64)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_counterterm_converges_to_integral_heavy_mass():
    # converges to machine precision by L=32, so ties at the noise floor are allowed
    limit = integral_limit(1.5, 1.0)
    errs = [abs(counterterm_first_order(params(L=L, m_sq=1.5, lam=1.0)) - limit)
            for L in (8, 16, 32, 64)]
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-12


# ---------------------------------------------------------------- counterterm, continuum

def test_counterterm_continuum_unit_mass():
    assert counterterm_continuum(1.0, 1.0) == pytest.approx(
        -math.log(64.0) / (8.0 * math.pi), abs=1e-15)


def test_counterterm_continuum_free():
    assert counterterm_continuum(1.0, 0.0) == 0.0


def test_counterterm_continuum_vanishes_at_domain_edge():
    assert counterterm_continuum(64.0, 3.0) == 0.0


def test_counterterm_continuum_domain():
    with pytest.raises(ValueError):
        counterterm_continuum(0.0, 1.0)
    with pytest.raises(ValueError):
        counterterm_continuum(-1.0, 1.0)
    with pytest.raises(ValueError):
        counterterm_continuum(65.0, 1.0)


@pytest.mark.parametrize("m_sq,lam,match", [
    (1.0, math.nan, r"^lam must be finite and real, got nan$"),
    (1.0, math.inf, r"^lam must be finite and real, got inf$"),
    (1.0, "1", r"^lam must be finite and real, got '1'$"),
    ("1", 1.0, r"^continuum formula requires 0 < m_sq <= 64, got '1'$"),
    (True, 1.0, r"^continuum formula requires 0 < m_sq <= 64, got True$"),
], ids=["lam-nan", "lam-inf", "lam-str", "m_sq-str", "m_sq-bool"])
def test_counterterm_continuum_rejects_values_that_are_not_finite_numbers(m_sq, lam, match):
    # lam=nan returned nan, lam=inf returned -inf, and m_sq="1" ended in a TypeError
    with pytest.raises(ValueError, match=match):
        counterterm_continuum(m_sq, lam)


def test_counterterm_continuum_matches_light_mass_integral():
    # the closed form is the small-mass asymptote of the mode-sum limit
    m_sq = 1e-6
    closed = counterterm_continuum(m_sq, 1.0)
    assert closed == pytest.approx(integral_limit(m_sq, 1.0), rel=1e-3)


# ---------------------------------------------------------------- mass bookkeeping

def test_model_params_from_bare_consistency():
    p = ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=-1.5, lam=10.0, n_max=4)
    assert p.delta_m == -2.5
    assert p.m0_sq == pytest.approx(p.m_sq + p.delta_m, abs=1e-15)


def test_model_params_from_counterterm_consistency():
    p = ModelParams.from_counterterm(L=2, m_sq=1.0, delta_m=-2.5, lam=10.0, n_max=4)
    assert p.m0_sq == -1.5


def test_model_params_rejects_bad_reference_mass():
    with pytest.raises(ValueError):
        ModelParams.from_bare(L=2, m_sq=0.0, m0_sq=1.0, lam=1.0, n_max=4)
    with pytest.raises(ValueError):
        ModelParams.from_bare(L=2, m_sq=-1.0, m0_sq=1.0, lam=1.0, n_max=4)


# lam=None and delta_m="0" used to end in a TypeError, and lam=False was accepted
@pytest.mark.parametrize("field, value", [
    ("lam", math.nan),
    ("lam", math.inf),
    ("delta_m", math.nan),
    ("lam", None),
    ("lam", False),
    ("delta_m", "0"),
])
def test_model_params_rejects_non_finite(field, value):
    fields = dict(L=2, m_sq=1.0, delta_m=-2.5, lam=6.0, n_max=4)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ModelParams(**fields)


def test_model_params_from_bare_rejects_non_finite_bare_mass():
    with pytest.raises(ValueError, match="^m0_sq must be finite"):
        ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=math.nan, lam=6.0, n_max=4)


# m_sq="1" used to end in a TypeError, and m_sq=True was accepted
@pytest.mark.parametrize("m_sq", [math.inf, math.nan, "1", True])
def test_model_params_rejects_non_finite_reference_mass(m_sq):
    with pytest.raises(ValueError, match="^reference mass m_sq must be finite"):
        ModelParams.from_bare(L=2, m_sq=m_sq, m0_sq=1.0, lam=1.0, n_max=4)
    with pytest.raises(ValueError, match="^reference mass m_sq must be finite"):
        ModelParams.from_counterterm(L=2, m_sq=m_sq, delta_m=0.0, lam=1.0, n_max=4)


def test_model_params_rejects_bad_sizes():
    with pytest.raises(ValueError):
        ModelParams.from_bare(L=0, m_sq=1.0, m0_sq=1.0, lam=1.0, n_max=4)
    with pytest.raises(ValueError):
        ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=1.0, lam=1.0, n_max=1)


@pytest.mark.parametrize("field, value", [("L", 2.5), ("L", True), ("L", "2"), ("L", None),
                                          ("n_max", 4.5), ("n_max", False), ("n_max", 4.0)])
def test_model_params_rejects_non_integer_sizes(field, value):
    fields = dict(L=2, m_sq=1.0, delta_m=0.0, lam=6.0, n_max=4)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        ModelParams(**fields)


def test_model_params_accepts_numpy_integer_sizes():
    p = ModelParams(L=np.int64(2), m_sq=1.0, delta_m=0.0, lam=6.0, n_max=np.int64(4))
    assert (p.L, p.n_max) == (2, 4)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.longdouble])
def test_model_params_read_numpy_floats_of_any_width(dtype):
    # a float16 or float32 mass used to warn "overflow encountered in cast"
    p = ModelParams(L=2, m_sq=dtype(1.0), delta_m=dtype(-2.5), lam=dtype(6.0), n_max=4)
    assert (p.m_sq, p.delta_m, p.lam) == (1.0, -2.5, 6.0)
    # 1e400 is inf in the narrow types but finite in an x86-64 long double
    for lam in (dtype("inf"), dtype("1e400")):
        with pytest.raises(ValueError, match="^lam must be finite"):
            ModelParams(L=2, m_sq=1.0, delta_m=0.0, lam=lam, n_max=4)


def test_model_params_with_delta_updates_bare_mass():
    p = params(L=2, m_sq=1.0, delta_m=0.0, lam=6.0)
    q = p.with_delta(-2.5)
    assert q.m0_sq == -1.5
    assert q.m_sq == p.m_sq and q.lam == p.lam
