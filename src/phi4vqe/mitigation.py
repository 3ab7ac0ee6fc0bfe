"""Two-stage error mitigation: readout correction, tomography, purification.

Stage one inverts the per-qubit readout bit-flip channel on sampled
expectations, restricted to each word's support. Stage two reconstructs the
two-qubit state from all 16 Pauli expectations and pushes it toward the
nearest pure state with the McWeeny iteration rho <- 3 rho^2 - 2 rho^3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Union

import numpy as np

from .circuit_sim import (
    Circuit,
    Counts,
    NoiseModel,
    calibrate_readout,
    counts_expectation,
    measure_pauli_density,
    simulate_density,
)
from .qubit_encoding import PauliSum, pauli_word_matrix

__all__ = [
    "ReadoutCalibration",
    "PurificationReport",
    "TomographyResult",
    "ro_correct",
    "tomography_2q_detail",
    "mcweeny_purify",
    "energy_from_state",
]

HERMITICITY_TOL = 1e-8


@dataclass(frozen=True)
class ReadoutCalibration:
    """Per-qubit readout flip-rate estimates, rates[q] = (p(0|1), p(1|0))."""

    rates: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for q, (p01, p10) in enumerate(self.rates):
            if not (0 <= p01 <= 1 and 0 <= p10 <= 1):
                raise ValueError(f"qubit {q} rates must lie in [0, 1]")
            if 1.0 - (p01 + p10) <= 0:
                raise ValueError(f"qubit {q}: 1 - p_plus = {1 - p01 - p10} <= 0, channel not invertible")

    def p_minus(self, qubit: int) -> float:
        p01, p10 = self.rates[qubit]
        return p01 - p10

    def p_plus(self, qubit: int) -> float:
        p01, p10 = self.rates[qubit]
        return p01 + p10

    @classmethod
    def exact_from_noise(cls, noise: NoiseModel) -> "ReadoutCalibration":
        """True channel rates, for analytic checks and infinite-shot limits."""
        return cls(rates=tuple(zip(noise.p01, noise.p10)))

    @classmethod
    def from_noise_model(cls, noise: NoiseModel, shots: int = 100_000) -> "ReadoutCalibration":
        """Sampled calibration: estimate both rates of every qubit empirically."""
        return cls(rates=tuple(calibrate_readout(noise, q, shots) for q in range(noise.n_qubits)))


@dataclass(frozen=True)
class PurificationReport:
    iterations: int
    non_idempotency: float
    converged: bool
    initial_purity: float
    final_purity: float


@dataclass(frozen=True)
class TomographyResult:
    """Corrected and uncorrected reconstructions built from the same counts."""

    rho: np.ndarray
    rho_raw: np.ndarray
    values: dict
    values_raw: dict


CountsLike = Union[Counts, Mapping[str, float]]


def ro_correct(counts: CountsLike, support: tuple[int, ...], cal: ReadoutCalibration) -> float:
    """Readout-corrected <Z...Z> over the support qubits.

    Each sampled bitstring x contributes, per support qubit i, the factor
    ((-1)^{x_i} - p_i^-)/(1 - p_i^+), which inverts the independent bit-flip
    channel exactly in the infinite-shot limit. A plain mapping of outcome
    weights is accepted in place of Counts for analytic-channel checks; its
    outcomes must be bitstrings and its weights finite and non-negative.
    """
    if isinstance(counts, Counts):
        items, total = counts.counts, float(counts.shots)
    else:
        items, total = counts, float(sum(counts.values()))
    if not items or total <= 0:
        raise ValueError("empty counts")
    k = len(support)
    for bits in items:
        if len(bits) != k:
            raise ValueError(f"outcome {bits!r} does not match support size {k}")
    denom = np.array([1.0 - cal.p_plus(q) for q in support])
    shift = np.array([cal.p_minus(q) for q in support])
    ones = np.frombuffer("".join(items).encode("ascii"), dtype=np.uint8).reshape(len(items), k)
    signs = np.where(ones == ord("1"), -1.0, 1.0)
    weights = np.fromiter(items.values(), dtype=float, count=len(items))
    if not isinstance(counts, Counts):
        if not np.isin(ones, (ord("0"), ord("1"))).all():
            raise ValueError("outcomes must be bitstrings of 0 and 1")
        if not (np.isfinite(weights).all() and (weights >= 0).all()):
            raise ValueError("outcome weights must be finite and >= 0")
    return float(weights @ np.prod((signs - shift) / denom, axis=1)) / total


_TOMO_WORDS = tuple("".join(p) for p in product("IXYZ", repeat=2))


def tomography_2q_detail(circuit: Circuit, noise: NoiseModel, shots: int,
                         cal: ReadoutCalibration) -> TomographyResult:
    """Full two-qubit state tomography with and without readout correction.

    All 15 non-identity words are sampled from the circuit's noisy density
    matrix; the corrected and raw estimates come from the same counts so the
    two reconstructions differ only by the correction stage.
    """
    if circuit.qubit_count != 2:
        raise ValueError("tomography is implemented for 2-qubit circuits")
    rho_sim = simulate_density(circuit, noise)
    values: dict = {"II": 1.0}
    values_raw: dict = {"II": 1.0}
    for word in _TOMO_WORDS:
        if word == "II":
            continue
        counts = measure_pauli_density(rho_sim, word, shots, noise)
        values[word] = ro_correct(counts, counts.support, cal)
        values_raw[word] = counts_expectation(counts)
    rho = _reconstruct(values)
    rho_raw = _reconstruct(values_raw)
    return TomographyResult(rho=rho, rho_raw=rho_raw, values=values, values_raw=values_raw)


def _reconstruct(values: Mapping[str, float]) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    for word in _TOMO_WORDS:
        rho += values[word] * pauli_word_matrix(word)
    rho /= 4.0
    return (rho + rho.conj().T) / 2.0


def mcweeny_purify(rho: np.ndarray, eps_n: float = 1e-4,
                   max_iter: int = 100) -> tuple[np.ndarray, PurificationReport]:
    """Drive a near-pure density matrix to the closest pure state.

    Iterates rho <- 3 rho^2 - 2 rho^3 with trace renormalization each step
    until the non-idempotency N = Tr(rho^2 - rho) satisfies |N| < eps_n.
    The polynomial maps eigenvalues above 1/2 toward 1 and the rest toward 0,
    so an input whose dominant eigenvalue is below 1/2 would decay to zero;
    that case is flagged non-convergent and returned unmodified.
    """
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix must be Hermitian")
    trace = rho.trace().real
    if not 0.5 <= trace <= 1.5:
        raise ValueError(f"trace {trace} outside the tolerated window [0.5, 1.5]")
    rho = rho / trace
    initial_purity = float((rho @ rho).trace().real)
    if np.linalg.eigvalsh(rho)[-1] < 0.5:
        report = PurificationReport(
            iterations=0,
            non_idempotency=initial_purity - 1.0,
            converged=False,
            initial_purity=initial_purity,
            final_purity=initial_purity,
        )
        return rho, report
    iterations = 0
    n_val = float((rho @ rho - rho).trace().real)
    while abs(n_val) >= eps_n and iterations < max_iter:
        rho_sq = rho @ rho
        rho = 3.0 * rho_sq - 2.0 * (rho_sq @ rho)
        rho = rho / rho.trace().real
        iterations += 1
        n_val = float((rho @ rho - rho).trace().real)
    final_purity = float((rho @ rho).trace().real)
    report = PurificationReport(
        iterations=iterations,
        non_idempotency=n_val,
        converged=abs(n_val) < eps_n,
        initial_purity=initial_purity,
        final_purity=final_purity,
    )
    return rho, report


def energy_from_state(rho: np.ndarray, H: PauliSum) -> float:
    """Re Tr(rho H)."""
    dim = 2**H.qubit_count
    if rho.shape != (dim, dim):
        raise ValueError(f"state dimension {rho.shape} does not match operator on {H.qubit_count} qubits")
    return float(np.trace(rho @ H.to_matrix()).real)
