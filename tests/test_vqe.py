import math

import numpy as np
import pytest

from phi4vqe.lattice_model import ModelParams
from phi4vqe.fock_space import build_H
from phi4vqe.qubit_encoding import parity_blocks, sector_by_parity
from phi4vqe.circuit_sim import NoiseModel
from phi4vqe.vqe import (
    BackendSpec,
    benchmark_sectors,
    energy_objective,
    mass_gap_vqe,
    mitigation_comparison,
    optimize,
    sector_minima,
)


def benchmark(lam, n_max=4):
    return ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=-1.5, lam=lam, n_max=n_max)


def sectors(params):
    blocks = parity_blocks(build_H(params), params)
    ground = sector_by_parity(blocks, ("+", "+"))
    excited = sector_by_parity(blocks, ("-", "+"))
    return ground, excited


# ---------------------------------------------------------------- backends

def test_backend_spec_validation():
    with pytest.raises(ValueError):
        BackendSpec(kind="exact", noise=NoiseModel.noiseless(2))
    with pytest.raises(ValueError):
        BackendSpec(kind="sampled", noise=NoiseModel.uniform(2, readout=0.1))
    with pytest.raises(ValueError):
        BackendSpec(kind="noisy_mitigated", noise=None)
    with pytest.raises(ValueError):
        BackendSpec(kind="qpu")


def test_backend_spec_constructors():
    assert BackendSpec.exact().kind == "exact"
    assert BackendSpec.sampled(shots=1024, seed=3).shots == 1024
    noisy = BackendSpec.noisy(NoiseModel.uniform(2, readout=0.03, p_dep=0.02))
    assert noisy.kind == "noisy_mitigated"
    assert noisy.readout_correction and noisy.purification


# ---------------------------------------------------------------- objective

def test_energy_objective_at_origin_reads_reference_state():
    ground, _ = sectors(benchmark(6.0))
    value = energy_objective((0.0, 0.0, 0.0), ground, BackendSpec.exact())
    assert value == pytest.approx(float(np.real(ground.block[0, 0])), abs=1e-12)


def test_energy_objective_free_vacuum():
    ground, _ = sectors(benchmark(0.0).with_delta(0.0))
    assert energy_objective((0.0, 0.0), ground, BackendSpec.exact()) == pytest.approx(0.0, abs=1e-12)


def test_energy_objective_sampled_tracks_exact():
    ground, _ = sectors(benchmark(10.0))
    theta = (0.3, -0.5, 0.8)
    exact = energy_objective(theta, ground, BackendSpec.exact())
    shots = 8192
    sampled = energy_objective(theta, ground, BackendSpec.sampled(shots=shots, seed=2))
    scale = sum(abs(c) for c, w in ground.pauli.terms if set(w) != {"I"})
    assert abs(sampled - exact) < 4.0 * scale / math.sqrt(shots)


def test_energy_objective_rejects_wrong_parameter_count():
    ground, _ = sectors(benchmark(6.0))
    with pytest.raises(ValueError):
        energy_objective((0.1, 0.2, 0.3, 0.4), ground, BackendSpec.exact())


# ---------------------------------------------------------------- exact optimization

def test_optimize_exact_entangled_reaches_block_minimum():
    ground, excited = sectors(benchmark(6.0))
    for sector in (ground, excited):
        result = optimize(sector, "entangled", BackendSpec.exact())
        eigmin = float(np.min(np.linalg.eigvalsh(sector.block)))
        assert result.converged
        assert result.energy == pytest.approx(eigmin, abs=1e-6)
        assert result.uncertainty == 0.0


def test_optimize_exact_variational_bound():
    ground, _ = sectors(benchmark(8.21))
    eigmin = float(np.min(np.linalg.eigvalsh(ground.block)))
    for ansatz in ("product", "entangled"):
        result = optimize(ground, ansatz, BackendSpec.exact())
        assert result.energy >= eigmin - 1e-9


def test_optimize_ansatz_nesting():
    ground, _ = sectors(benchmark(10.0))
    product = optimize(ground, "product", BackendSpec.exact())
    entangled = optimize(ground, "entangled", BackendSpec.exact())
    assert entangled.energy <= product.energy + 1e-9


def test_optimize_free_theory_vacuum():
    ground, _ = sectors(benchmark(0.0).with_delta(0.0))
    result = optimize(ground, "product", BackendSpec.exact())
    assert result.energy == pytest.approx(0.0, abs=1e-9)


def test_optimize_rejects_unknown_ansatz():
    ground, _ = sectors(benchmark(6.0))
    with pytest.raises(ValueError):
        optimize(ground, "hardware_efficient", BackendSpec.exact())


def test_optimize_history_and_calibration_fields():
    ground, _ = sectors(benchmark(6.0))
    result = optimize(ground, "entangled", BackendSpec.exact())
    assert len(result.history) > 0
    assert result.calibration is None


# ---------------------------------------------------------------- gap estimates

def test_mass_gap_vqe_exact_matches_oracle():
    params = benchmark(6.0)
    estimate = mass_gap_vqe(params, BackendSpec.exact())
    e0, e1, gap = sector_minima(params)
    assert estimate.ground.energy == pytest.approx(e0, abs=1e-6)
    assert estimate.excited.energy == pytest.approx(e1, abs=1e-6)
    assert estimate.gap == pytest.approx(gap, abs=1e-6)
    assert estimate.gap_err == 0.0


def test_mass_gap_vqe_free_theory():
    params = benchmark(0.0).with_delta(0.0)
    estimate = mass_gap_vqe(params, BackendSpec.exact())
    assert estimate.gap == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("L,n_max,excited", [(1, 8, ("-",)), (2, 4, ("-", "+"))])
def test_benchmark_sectors_are_all_even_and_odd_in_mode_zero(L, n_max, excited):
    params = ModelParams.from_bare(L=L, m_sq=1.0, m0_sq=-1.5, lam=6.0, n_max=n_max)
    ground, first = benchmark_sectors(params)
    assert ground.parities == ("+",) * L
    assert first.parities == excited
    blocks = parity_blocks(build_H(params), params)
    assert np.array_equal(first.block, sector_by_parity(blocks, excited).block)


def test_sector_minima_against_blocks():
    params = benchmark(8.21)
    ground, excited = sectors(params)
    e0, e1, gap = sector_minima(params)
    assert e0 == pytest.approx(float(np.min(np.linalg.eigvalsh(ground.block))), abs=1e-12)
    assert e1 == pytest.approx(float(np.min(np.linalg.eigvalsh(excited.block))), abs=1e-12)
    assert gap == pytest.approx(e1 - e0, abs=1e-12)


# ---------------------------------------------------------------- stochastic backends

def test_optimize_sampled_is_deterministic_per_seed():
    ground, _ = sectors(benchmark(6.0))
    backend = BackendSpec.sampled(shots=1024)
    a = optimize(ground, "product", backend, seed=[5])
    b = optimize(ground, "product", backend, seed=[5])
    assert a.energy == b.energy
    assert a.parameters == b.parameters
    assert a.history == b.history
    assert a.uncertainty == b.uncertainty


def test_optimize_sampled_lands_near_minimum():
    ground, _ = sectors(benchmark(6.0))
    result = optimize(ground, "entangled", BackendSpec.sampled(shots=4096), seed=[6])
    eigmin = float(np.min(np.linalg.eigvalsh(ground.block)))
    assert result.uncertainty > 0.0
    assert abs(result.energy - eigmin) < 5.0 * result.uncertainty + 0.02


def test_optimize_noisy_reports_mitigation_metadata():
    ground, _ = sectors(benchmark(10.0))
    noise = NoiseModel.uniform(2, readout=0.03, p_dep=0.02)
    backend = BackendSpec.noisy(noise, shots=4096, calibration_shots=50_000)
    result = optimize(ground, "entangled", backend, seed=[7])
    assert result.calibration is not None
    assert len(result.calibration) == 2
    assert len(result.purification_reports) > 0
    assert all(r.converged for r in result.purification_reports)


def test_mitigation_comparison_orders_errors():
    params = benchmark(10.0)
    ground, _ = sectors(params)
    exact = optimize(ground, "entangled", BackendSpec.exact())
    noise = NoiseModel.uniform(2, readout=0.03, p_dep=0.02)
    backend = BackendSpec.noisy(noise, shots=8192)
    comp = mitigation_comparison(ground, exact.parameters, backend, seed=[99])
    assert abs(comp.e_mitigated - comp.e_exact) < abs(comp.e_raw - comp.e_exact)
    assert comp.report.converged
