import math

import numpy as np
import pytest
from scipy.integrate import quad

from phi4vqe.lattice_model import (
    ModelParams,
    counterterm_continuum,
    counterterm_first_order,
    dispersion,
    momentum_grid,
)


def params(L=2, m_sq=1.0, m0_sq=None, delta_m=None, lam=0.0, n_max=4):
    if m0_sq is not None:
        return ModelParams.from_bare(L=L, m_sq=m_sq, m0_sq=m0_sq, lam=lam, n_max=n_max)
    return ModelParams.from_counterterm(L=L, m_sq=m_sq, delta_m=delta_m or 0.0,
                                        lam=lam, n_max=n_max)


# ---------------------------------------------------------------- dispersion

def test_dispersion_zero_momentum():
    assert dispersion(0.0, 1.5) == pytest.approx(math.sqrt(1.5), abs=1e-15)


def test_dispersion_zone_boundary_massless():
    assert dispersion(math.pi, 0.0) == pytest.approx(2.0, abs=1e-15)


def test_dispersion_zone_boundary_unit_mass():
    assert dispersion(math.pi, 1.0) == pytest.approx(math.sqrt(5.0), abs=1e-15)


def test_dispersion_rejects_negative_frequency_squared():
    with pytest.raises(ValueError):
        dispersion(0.0, -1.0)


def test_dispersion_relation_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = rng.uniform(0.0, 2.0 * math.pi)
        m_sq = rng.uniform(0.05, 5.0)
        w = dispersion(k, m_sq)
        assert abs(w * w - m_sq - 4.0 * math.sin(k / 2.0) ** 2) < 1e-12


# ---------------------------------------------------------------- momentum grid

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


def test_momentum_grid_matches_dispersion():
    grid = momentum_grid(params(L=6, m_sq=0.7, n_max=2))
    for k, w in zip(grid.momenta, grid.frequencies):
        assert w == pytest.approx(dispersion(k, 0.7), abs=1e-15)


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


@pytest.mark.parametrize("field, value", [
    ("lam", math.nan),
    ("lam", math.inf),
    ("delta_m", math.nan),
])
def test_model_params_rejects_non_finite(field, value):
    fields = dict(L=2, m_sq=1.0, delta_m=-2.5, lam=6.0, n_max=4)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ModelParams(**fields)


def test_model_params_from_bare_rejects_non_finite_bare_mass():
    with pytest.raises(ValueError, match="^m0_sq must be finite"):
        ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=math.nan, lam=6.0, n_max=4)


@pytest.mark.parametrize("m_sq", [math.inf, math.nan])
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


def test_model_params_with_delta_updates_bare_mass():
    p = params(L=2, m_sq=1.0, delta_m=0.0, lam=6.0)
    q = p.with_delta(-2.5)
    assert q.m0_sq == -1.5
    assert q.m_sq == p.m_sq and q.lam == p.lam
