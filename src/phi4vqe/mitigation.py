"""Two-stage error mitigation: readout correction, tomography, purification.

Stage one inverts the per-qubit readout bit-flip channel on sampled
expectations, over the measured qubits of each word. Stage two reconstructs
the two-qubit state from all 16 Pauli expectations and pushes it toward the
nearest pure state with the McWeeny iteration rho <- 3 rho^2 - 2 rho^3.

Every stage works on stacks: a batch of k circuits is one tomography pass
(one draw of k x 15 word rows), k reconstructions and one purification that
iterates each matrix's eigenvalues until its own stopping test holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .circuit_sim import (
    Circuit,
    NoiseModel,
    ReadoutCalibration,
    _word_values,
    measure_pauli_density,
    simulate_density,
)
from .lattice_model import _numeric
from .qubit_encoding import PauliSum, pauli_word_matrix

__all__ = [
    "PurificationReport",
    "ro_correct",
    "tomography_2q_detail",
    "mcweeny_purify",
    "energy_from_state",
]

HERMITICITY_TOL = 1e-8
# purification stops once |Tr(rho^2) - 1| < PURIFY_TOL, or after PURIFY_MAX_ITER steps
PURIFY_TOL = 1e-4
PURIFY_MAX_ITER = 100
# besides 1/2 itself, the two points that 3x^2 - 2x^3 maps onto 1/2: only
# eigenvalues between them land on their own side of 1/2 (McWeeny, Rev. Mod.
# Phys. 32, 335)
PURIFY_BASIN = ((1.0 - np.sqrt(3.0)) / 2.0, (1.0 + np.sqrt(3.0)) / 2.0)


@dataclass(frozen=True)
class PurificationReport:
    iterations: int
    non_idempotency: float
    converged: bool
    initial_purity: float
    final_purity: float


def ro_correct(weights, words: tuple[str, ...], cal: ReadoutCalibration) -> np.ndarray:
    """Readout-corrected <P> of every word from its register outcome weights.

    ``weights[..., i, x]`` weighs outcome x of words[i], laid out as a
    measurement's tally array (leading axes for batches): sampled tallies, or
    an outcome distribution for analytic-channel checks. The weights are
    averaged over outcome_table(words, cal.rates), whose factor per measured
    qubit inverts its bit-flip channel exactly in the infinite-shot limit.
    """
    return _word_values(weights, words, cal.rates)


_TOMO_WORDS = tuple("".join(p) for p in product("IXYZ", repeat=2))
# row i is the matrix of _TOMO_WORDS[i], flattened
_TOMO_TABLE = np.stack([pauli_word_matrix(w).ravel() for w in _TOMO_WORDS])


def tomography_2q_detail(circuit: Circuit, noise: NoiseModel, shots: int,
                         *cals: ReadoutCalibration) -> tuple[np.ndarray, ...]:
    """Full two-qubit state tomography, one reconstruction per readout calibration.

    The 15 non-identity words are sampled from the noisy density matrix of
    the circuit, or of every circuit of a batch, in one draw; every
    calibration corrects the same tallies, so the reconstructions differ only
    by the correction stage. Zero flip rates give the raw estimate. Each
    state is (4, 4) for one circuit or (k, 4, 4) for a batch.
    """
    if not cals:
        raise ValueError("tomography_2q_detail needs at least one readout calibration in cals")
    for i, cal in enumerate(cals):
        if not (isinstance(cal, ReadoutCalibration) and len(cal.rates) == 2):
            raise ValueError(f"cals[{i}] must be a ReadoutCalibration on 2 qubits, got {cal!r}")
    tallies = measure_pauli_density(simulate_density(circuit, noise), _TOMO_WORDS[1:], shots, noise)
    ones = np.ones(tallies.shape[:-2] + (1,))
    # <II> = 1 in front of the 15 corrected <P>
    return tuple(_reconstruct(np.concatenate((ones, ro_correct(tallies, _TOMO_WORDS[1:], cal)), axis=-1))
                 for cal in cals)


def _reconstruct(values: np.ndarray) -> np.ndarray:
    """(1/4) sum_P <P> P over the 16 two-qubit words, made exactly Hermitian: (..., 16) -> (..., 4, 4)."""
    # one vector-matrix product per row: a (k, 16) @ (16, 16) product can differ in the last bit
    rho = (values[..., None, :] @ _TOMO_TABLE).reshape(values.shape[:-1] + (4, 4)) / 4.0
    return (rho + np.swapaxes(rho.conj(), -1, -2)) / 2.0


def _trace(rho: np.ndarray) -> np.ndarray:
    return rho.trace(axis1=-2, axis2=-1)


def _purify(rho: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """mcweeny_purify on a (k, d, d) stack: one eigh, w <- w^2 (3 - 2w) / sum on each
    row of eigenvalues until its own test holds, and one rebuild V diag(w) V^dagger.

    Returns the purified stack and the per-row arrays (iterations,
    initial_purity, final_purity, converged); _reports turns them into
    PurificationReports for a caller that keeps them."""
    if rho.ndim != 3 or rho.shape[1] != rho.shape[2]:
        raise ValueError("density matrix must be square")
    _numeric(rho, "density matrix")
    if np.max(np.abs(rho - np.swapaxes(rho.conj(), 1, 2))) > HERMITICITY_TOL:
        raise ValueError("density matrix must be Hermitian")
    trace = _trace(rho).real
    for t in trace:
        if not 0.5 <= t <= 1.5:
            raise ValueError(f"trace {t} outside the tolerated window [0.5, 1.5]")
    rho = rho / trace[:, None, None]
    w, v = np.linalg.eigh(rho)
    largest = np.abs(w).max()
    if largest > np.sqrt(np.finfo(float).max / rho.shape[1]):
        raise ValueError(f"density matrix eigenvalue of size {largest:.3g} "
                         "overflows the purity Tr(rho^2)")
    initial_purity = (w * w).sum(axis=1)
    basin = (w[:, -1] >= 0.5) & (w[:, -1] < PURIFY_BASIN[1]) & (w[:, 0] > PURIFY_BASIN[0])
    iterations = np.zeros(len(w), dtype=int)
    # N = Tr(rho^2 - rho) = Tr(rho^2) - 1 at unit trace
    going = basin & (np.abs(initial_purity - 1.0) >= PURIFY_TOL)
    for count in range(1, PURIFY_MAX_ITER + 1):
        if not going.any():
            break
        part = w[going]
        part = part * part * (3.0 - 2.0 * part)
        part /= part.sum(axis=1, keepdims=True)
        w[going], iterations[going] = part, count
        going[going] = np.abs((part * part).sum(axis=1) - 1.0) >= PURIFY_TOL
    # flagged and 0-step matrices come back trace-normalized and otherwise unmodified
    stepped = iterations > 0
    rho[stepped] = (v[stepped] * w[stepped, None, :]) @ np.swapaxes(v[stepped].conj(), 1, 2)
    final_purity = (w * w).sum(axis=1)
    converged = basin & (np.abs(final_purity - 1.0) < PURIFY_TOL)
    return rho, (iterations, initial_purity, final_purity, converged)


def _reports(stats: tuple[np.ndarray, ...]) -> list[PurificationReport]:
    """One PurificationReport per row of _purify's per-row arrays."""
    return [PurificationReport(iterations=int(i), non_idempotency=float(p1 - 1.0),
                               converged=bool(ok), initial_purity=float(p0),
                               final_purity=float(p1))
            for i, p0, p1, ok in zip(*stats)]


def mcweeny_purify(rho: np.ndarray) -> tuple[np.ndarray, PurificationReport]:
    """Drive a near-pure density matrix to the closest pure state.

    Iterates rho <- 3 rho^2 - 2 rho^3 with trace renormalization each step
    until the non-idempotency N = Tr(rho^2 - rho) satisfies |N| < PURIFY_TOL, at
    most PURIFY_MAX_ITER steps, computed in rho's eigenbasis (the map acts on eigenvalues alone).
    The polynomial maps eigenvalues in (1/2, PURIFY_BASIN[1]) toward 1 and
    those in (PURIFY_BASIN[0], 1/2) toward 0; outside that interval it sends
    an eigenvalue to the wrong side of 1/2 (a tomographic estimate need not
    be positive). An input whose dominant eigenvalue is below 1/2, or with
    any eigenvalue outside the interval, is flagged non-convergent and
    returned unmodified (trace-normalized).
    """
    rho = np.asarray(rho)
    if rho.ndim != 2:
        raise ValueError(f"mcweeny_purify takes one (d, d) density matrix, got shape {rho.shape}")
    purified, stats = _purify(rho[None])
    return purified[0], _reports(stats)[0]


def energy_from_state(rho: np.ndarray, H: PauliSum) -> float | np.ndarray:
    """Re Tr(rho H); a (k, d, d) stack gives k values."""
    dim, rho = 2**H.qubit_count, _numeric(rho, "density matrix")
    if rho.shape[-2:] != (dim, dim) or rho.ndim > 3:
        raise ValueError(f"state dimension {rho.shape} does not match operator on {H.qubit_count} qubits")
    values = _trace(rho @ H.to_matrix()).real
    return float(values) if rho.ndim == 2 else values
