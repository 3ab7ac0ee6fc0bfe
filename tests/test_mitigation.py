import itertools
import math

import numpy as np
import pytest

from phi4vqe.circuit_sim import (
    NoiseModel,
    ansatz_entangled,
    apply_circuit,
    simulate_density,
    zero_state,
)
from phi4vqe.mitigation import (
    ReadoutCalibration,
    energy_from_state,
    mcweeny_purify,
    ro_correct,
    tomography_2q_detail,
)
from phi4vqe.qubit_encoding import PauliSum, pauli_word_matrix


def flip_channel(true_probs, rates):
    # exact readout channel on bitstring distributions; rates[i] = (p01, p10)
    n = len(rates)
    out = {}
    for x_bits in itertools.product("01", repeat=n):
        x = "".join(x_bits)
        total = 0.0
        for y, q in true_probs.items():
            w = q
            for i in range(n):
                p01, p10 = rates[i]
                if y[i] == "0":
                    w *= p10 if x[i] == "1" else 1.0 - p10
                else:
                    w *= p01 if x[i] == "0" else 1.0 - p01
            total += w
        out[x] = total
    return out


def parity_expectation(probs):
    return sum(q * (-1.0) ** bits.count("1") for bits, q in probs.items())


# ---------------------------------------------------------------- readout correction

def test_ro_correct_zero_rates_is_identity():
    cal = ReadoutCalibration(rates=((0.0, 0.0), (0.0, 0.0)))
    counts = {"00": 3, "01": 5, "10": 7, "11": 1}
    raw = sum(c * (-1.0) ** k.count("1") for k, c in counts.items()) / 16.0
    assert ro_correct(counts, (0, 1), cal) == pytest.approx(raw, abs=1e-15)


def test_ro_correct_symmetric_single_qubit():
    cal = ReadoutCalibration(rates=((0.1, 0.1),))
    assert ro_correct({"0": 0.9, "1": 0.1}, (0,), cal) == pytest.approx(1.0, abs=1e-12)


def test_ro_correct_asymmetric_single_qubit():
    # p(1|0) = 0.2 shrinks the raw value to 0.6; correction restores 1.0
    cal = ReadoutCalibration(rates=((0.0, 0.2),))
    counts = {"0": 0.8, "1": 0.2}
    raw = counts["0"] - counts["1"]
    assert raw == pytest.approx(0.6, abs=1e-15)
    assert ro_correct(counts, (0,), cal) == pytest.approx(1.0, abs=1e-12)


def test_ro_correct_inverts_analytic_channel():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p0, p1 = rng.uniform(0.0, 1.0, size=2)
        true = {}
        for b0 in "01":
            for b1 in "01":
                w0 = p0 if b0 == "1" else 1.0 - p0
                w1 = p1 if b1 == "1" else 1.0 - p1
                true[b0 + b1] = w0 * w1
        rates = tuple((rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2)) for _ in range(2))
        flipped = flip_channel(true, rates)
        cal = ReadoutCalibration(rates=rates)
        corrected = ro_correct(flipped, (0, 1), cal)
        assert corrected == pytest.approx(parity_expectation(true), abs=1e-10)


def test_ro_correct_subset_support():
    # single-qubit word on a two-qubit register uses that qubit's rates only
    cal = ReadoutCalibration(rates=((0.0, 0.0), (0.0, 0.2)))
    assert ro_correct({"0": 0.8, "1": 0.2}, (1,), cal) == pytest.approx(1.0, abs=1e-12)


def test_ro_correct_rejects_outcome_length_mismatch():
    cal = ReadoutCalibration(rates=((0.0, 0.0), (0.0, 0.2)))
    with pytest.raises(ValueError, match="does not match support size 1"):
        ro_correct({"0": 0.5, "01": 0.5}, (1,), cal)


@pytest.mark.parametrize("counts", [{"x": 1.0, "1": 1.0}, {"2": 1.0}, {"0 ": 1.0, "11": 1.0}],
                         ids=["letter", "digit", "space"])
def test_ro_correct_rejects_outcomes_other_than_bits(counts):
    k = len(next(iter(counts)))
    cal = ReadoutCalibration(rates=((0.01, 0.02),) * k)
    with pytest.raises(ValueError, match="0 and 1"):
        ro_correct(counts, tuple(range(k)), cal)


@pytest.mark.parametrize("weights", [(-1.0, 2.0), (math.nan, 1.0), (math.inf, 1.0)],
                         ids=["negative", "nan", "inf"])
def test_ro_correct_rejects_negative_or_non_finite_weights(weights):
    cal = ReadoutCalibration(rates=((0.01, 0.02),))
    with pytest.raises(ValueError, match="finite and >= 0"):
        ro_correct(dict(zip(("0", "1"), weights)), (0,), cal)


def test_readout_calibration_validation():
    with pytest.raises(ValueError):
        ReadoutCalibration(rates=((0.6, 0.5),))


def test_readout_calibration_signed_rates():
    cal = ReadoutCalibration(rates=((0.05, 0.1),))
    assert cal.p_minus(0) == pytest.approx(-0.05)
    assert cal.p_plus(0) == pytest.approx(0.15)


def test_readout_calibration_from_noise_model():
    noise = NoiseModel(p10=(0.1, 0.02), p01=(0.05, 0.03), seed=19)
    exact = ReadoutCalibration.exact_from_noise(noise)
    assert exact.rates == ((0.05, 0.1), (0.03, 0.02))
    measured = ReadoutCalibration.from_noise_model(noise, shots=200_000)
    for q in range(2):
        for k in range(2):
            truth = exact.rates[q][k]
            se = math.sqrt(max(truth * (1 - truth), 1e-9) / 200_000)
            assert abs(measured.rates[q][k] - truth) < 5.0 * se


# ---------------------------------------------------------------- tomography

def test_tomography_reconstructs_pure_state():
    circuit = ansatz_entangled(0.9, -0.3, 1.2)
    noise = NoiseModel.noiseless(2, seed=41)
    cal = ReadoutCalibration.exact_from_noise(noise)
    rho = tomography_2q_detail(circuit, noise, 40_000, cal).rho
    psi = apply_circuit(circuit, zero_state(2))
    assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.real(psi.conj() @ rho @ psi) > 0.99


def test_tomography_sees_depolarization():
    circuit = ansatz_entangled(0.9, -0.3, 1.2)
    noise = NoiseModel.uniform(2, p_dep=0.1, seed=42)
    cal = ReadoutCalibration.exact_from_noise(noise)
    rho_hat = tomography_2q_detail(circuit, noise, 60_000, cal).rho
    rho = simulate_density(circuit, noise)
    assert abs(np.real(np.trace(rho_hat @ rho_hat)) - np.real(np.trace(rho @ rho))) < 0.05


def test_tomography_detail_correction_beats_raw():
    circuit = ansatz_entangled(1.1, 0.4, 0.8)
    noise = NoiseModel.uniform(2, readout=0.05, p_dep=0.02, seed=43)
    cal = ReadoutCalibration.exact_from_noise(noise)
    detail = tomography_2q_detail(circuit, noise, 50_000, cal)
    rho = simulate_density(circuit, noise)
    truth = float(np.real(np.trace(rho @ pauli_word_matrix("ZZ"))))
    assert abs(detail.values["ZZ"] - truth) < abs(detail.values_raw["ZZ"] - truth)
    assert detail.values["II"] == 1.0


# ---------------------------------------------------------------- purification

def depolarized_pure(epsilon, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return (1.0 - epsilon) * np.outer(v, v.conj()) + epsilon * np.eye(4) / 4.0, v


def test_mcweeny_fixed_point_on_pure_state():
    rho, _ = depolarized_pure(0.0, seed=51)
    out, report = mcweeny_purify(rho)
    assert report.converged
    assert report.iterations == 0
    assert np.max(np.abs(out - rho)) < 1e-12


def test_mcweeny_removes_depolarization():
    for eps in (0.05, 0.2, 0.4):
        rho, v = depolarized_pure(eps, seed=52)
        out, report = mcweeny_purify(rho)
        assert report.converged
        assert report.iterations < 50
        assert report.non_idempotency < 1e-4
        assert np.real(v.conj() @ out @ v) > 0.999
        assert report.final_purity > report.initial_purity


def test_mcweeny_keeps_dominant_eigenvector():
    rho, _ = depolarized_pure(0.3, seed=53)
    out, _ = mcweeny_purify(rho)
    w_in, v_in = np.linalg.eigh(rho)
    w_out, v_out = np.linalg.eigh(out)
    overlap = abs(v_in[:, -1].conj() @ v_out[:, -1])
    assert overlap > 1.0 - 1e-8


def test_mcweeny_non_idempotency_decreases():
    rho, _ = depolarized_pure(0.3, seed=54)
    values = [abs(mcweeny_purify(rho, eps_n=1e-300, max_iter=k)[1].non_idempotency)
              for k in (1, 2, 3, 4, 5)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_mcweeny_flags_maximally_mixed():
    rho = np.eye(4) / 4.0
    out, report = mcweeny_purify(rho)
    assert not report.converged
    assert np.max(np.abs(out - rho)) < 1e-12


def test_mcweeny_input_validation():
    with pytest.raises(ValueError):
        mcweeny_purify(np.eye(4) * 0.5)  # trace 2
    bad = np.eye(4) / 4.0
    bad = bad.astype(complex)
    bad[0, 1] = 0.1
    with pytest.raises(ValueError):
        mcweeny_purify(bad)


def test_mcweeny_renormalizes_trace():
    rho, _ = depolarized_pure(0.2, seed=55)
    out, _ = mcweeny_purify(0.98 * rho)  # slightly off-trace input is renormalized
    assert np.real(np.trace(out)) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------- energies

def test_energy_from_state_vacuum():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    H = PauliSum(terms=((1.0, "ZI"),), qubit_count=2)
    assert energy_from_state(rho, H) == pytest.approx(1.0, abs=1e-14)


def test_energy_from_state_mixed_traceless():
    H = PauliSum(terms=((0.7, "XZ"), (0.2, "ZY")), qubit_count=2)
    assert energy_from_state(np.eye(4) / 4.0, H) == pytest.approx(0.0, abs=1e-14)


def test_energy_from_state_dimension_mismatch():
    H = PauliSum(terms=((1.0, "ZI"),), qubit_count=2)
    with pytest.raises(ValueError):
        energy_from_state(np.eye(2) / 2.0, H)
