"""Minimal gate-model simulator for the two variational ansatz circuits.

Gates are RotY(theta) = exp(-i theta Y / 2) and CNOT, each applied as its
full-register matrix. Qubit 0 is the most significant bit of a basis index.
Statevectors may span any number of qubits; density matrices span the two
qubits of the ansatz circuits. Each measured Pauli word costs one
multinomial draw over the readout-convolved distribution (the Born marginal
pushed through the tensored per-qubit confusion matrices), which has the same
law as sampling shots one at a time and flipping each read bit independently.
All draws come from the one seeded stream owned by the experiment's
NoiseModel, so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .qubit_encoding import PauliSum

__all__ = [
    "Circuit",
    "NoiseModel",
    "Counts",
    "ry_matrix",
    "zero_state",
    "apply_circuit",
    "ansatz_product",
    "ansatz_entangled",
    "expectation_exact",
    "measure_pauli",
    "measure_pauli_density",
    "counts_expectation",
    "simulate_density",
    "calibrate_readout",
]

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
S_DAG = np.array([[1, 0], [0, -1j]], dtype=complex)
# Basis change sending the measured axis to Z: X -> H, Y -> H S_dag (S_dag first).
MEAS_ROTATION = {"X": HADAMARD, "Y": HADAMARD @ S_DAG}


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate program; gates are ("ry", qubit, angle) or ("cx", control, target)."""

    qubit_count: int
    gates: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for gate in self.gates:
            kind = gate[0]
            if kind == "ry":
                _, q, theta = gate
                if not 0 <= q < self.qubit_count:
                    raise ValueError(f"qubit {q} out of range")
                if not math.isfinite(theta):
                    raise ValueError(f"non-finite angle {theta}")
            elif kind == "cx":
                _, c, t = gate
                if not (0 <= c < self.qubit_count and 0 <= t < self.qubit_count and c != t):
                    raise ValueError(f"bad cx qubits ({c}, {t})")
            else:
                raise ValueError(f"unknown gate {kind!r}")


@dataclass(eq=False)
class NoiseModel:
    """Per-qubit readout flip rates, optional CNOT depolarization, and the RNG.

    p10[q] is p(1|0), the chance a true 0 is read as 1; p01[q] is p(0|1).
    Their sum must stay below 1 per qubit so the readout channel is invertible.
    p_dep is applied to the gate's qubit pair after every CNOT.
    """

    p10: tuple[float, ...]
    p01: tuple[float, ...]
    p_dep: float = 0.0
    seed: int = 0
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.p10) != len(self.p01):
            raise ValueError("p10 and p01 must cover the same qubits")
        for q, (a, b) in enumerate(zip(self.p10, self.p01)):
            if not (0 <= a < 1 and 0 <= b < 1):
                raise ValueError(f"qubit {q} flip rates must lie in [0, 1)")
            if a + b >= 1:
                raise ValueError(f"qubit {q} has p(1|0) + p(0|1) = {a + b} >= 1")
        if not 0 <= self.p_dep < 1:
            raise ValueError(f"p_dep must lie in [0, 1), got {self.p_dep}")
        self.rng = np.random.default_rng(self.seed)

    @property
    def n_qubits(self) -> int:
        return len(self.p10)

    @classmethod
    def noiseless(cls, n_qubits: int, seed: int = 0) -> "NoiseModel":
        return cls(p10=(0.0,) * n_qubits, p01=(0.0,) * n_qubits, seed=seed)

    @classmethod
    def uniform(cls, n_qubits: int, readout: float = 0.0, p_dep: float = 0.0,
                seed: int = 0) -> "NoiseModel":
        """Same symmetric readout rate on every qubit."""
        return cls(p10=(readout,) * n_qubits, p01=(readout,) * n_qubits,
                   p_dep=p_dep, seed=seed)


@dataclass(frozen=True)
class Counts:
    """Sampled measurement histogram over the word's support qubits.

    Keys are bitstrings ordered by ascending register index; ``support`` lists
    those register indices in key order.
    """

    counts: dict[str, int]
    shots: int
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to the declared shot total")


def zero_state(n_qubits: int) -> np.ndarray:
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def apply_circuit(circuit: Circuit, initial: np.ndarray) -> np.ndarray:
    n = circuit.qubit_count
    if initial.shape != (2**n,):
        raise ValueError(f"state dimension {initial.shape} does not match {n} qubits")
    state = initial.astype(complex)
    for gate in circuit.gates:
        state = _gate_matrix(gate, n) @ state
    return state


def ansatz_product(theta0: float, theta1: float) -> Circuit:
    """Two local rotations; spans all real product states of two qubits."""
    return Circuit(2, (("ry", 0, theta0), ("ry", 1, theta1)))


def ansatz_entangled(theta0: float, theta1: float, theta2: float) -> Circuit:
    """Product layer followed by a controlled-RotY(theta2) on qubit 1.

    The controlled rotation is compiled to the standard two-CNOT form
    CNOT . RotY(-theta2/2) . CNOT . RotY(+theta2/2) (time order).
    """
    return Circuit(
        2,
        (
            ("ry", 0, theta0),
            ("ry", 1, theta1),
            ("cx", 0, 1),
            ("ry", 1, -theta2 / 2.0),
            ("cx", 0, 1),
            ("ry", 1, theta2 / 2.0),
        ),
    )


def expectation_exact(state: np.ndarray, H: PauliSum) -> float:
    """<psi|H|psi> for a Pauli sum; real for Hermitian input."""
    n = H.qubit_count
    if state.shape != (2**n,):
        raise ValueError("state and operator qubit counts differ")
    return float(np.vdot(state, H.to_matrix() @ state).real)


def _support_probs(probs_full: np.ndarray, support: tuple[int, ...], n: int) -> np.ndarray:
    """Marginalize the Born distribution onto the support qubits."""
    p = probs_full.reshape([2] * n) if n else probs_full
    drop = tuple(q for q in range(n) if q not in support)
    if drop:
        p = p.sum(axis=drop)
    p = np.clip(p.reshape(-1).real, 0.0, None)
    return p / p.sum()


@lru_cache(maxsize=64)
def _confusion(p10: tuple[float, ...], p01: tuple[float, ...]) -> np.ndarray:
    """Readout channel on the support: C[read, true], qubits in ascending order."""
    C = np.ones((1, 1))
    for a, b in zip(p10, p01):
        C = np.kron(C, np.array([[1.0 - a, b], [a, 1.0 - b]]))
    C.setflags(write=False)
    return C


def _sample_counts(probs: np.ndarray, support: tuple[int, ...], shots: int,
                   noise: NoiseModel) -> Counts:
    k = len(support)
    if k == 0:
        # all-identity word: nothing is measured
        return Counts(counts={"": shots}, shots=shots, support=support)
    p10 = tuple(noise.p10[q] for q in support)
    p01 = tuple(noise.p01[q] for q in support)
    if any(p10) or any(p01):
        probs = np.clip(_confusion(p10, p01) @ probs, 0.0, None)
        probs = probs / probs.sum()
    tallies = noise.rng.multinomial(shots, probs)
    counts = {format(v, f"0{k}b"): int(c) for v, c in enumerate(tallies) if c}
    return Counts(counts=counts, shots=shots, support=support)


def _measured_support(word: str, shots: int, dim: int) -> tuple[int, ...]:
    """Check a measurement request on a 2^n-dimensional state; return the word's support."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = int(round(math.log2(dim)))
    if len(word) != n:
        raise ValueError(f"word length {len(word)} != {n} qubits")
    return tuple(q for q, label in enumerate(word) if label != "I")


def measure_pauli(state: np.ndarray, word: str, shots: int, noise: NoiseModel) -> Counts:
    """Sample a Pauli word on a pure state with readout flips applied.

    Identity labels are not measured: the distribution is marginalized onto the
    word's support, so readout noise only touches measured qubits.
    """
    support = _measured_support(word, shots, len(state))
    probs = _support_probs(np.abs(_basis_change(word) @ state) ** 2, support, len(word))
    return _sample_counts(probs, support, shots, noise)


def measure_pauli_density(rho: np.ndarray, word: str, shots: int, noise: NoiseModel) -> Counts:
    """Sampling path for mixed states; mirrors measure_pauli."""
    support = _measured_support(word, shots, rho.shape[0])
    U = _basis_change(word)
    rho = U @ rho @ U.conj().T
    probs = _support_probs(np.diag(rho).real, support, len(word))
    return _sample_counts(probs, support, shots, noise)


def counts_expectation(counts: Counts) -> float:
    """Raw empirical <Z...Z> over the support: mean of (-1)^(popcount)."""
    total = 0
    for bits, c in counts.counts.items():
        total += c * (-1) ** bits.count("1")
    return total / counts.shots


@lru_cache(maxsize=64)
def _basis_change(word: str) -> np.ndarray:
    """Full-register unitary sending every measured axis of the word to Z."""
    U = np.ones((1, 1), dtype=complex)
    for label in word:
        U = np.kron(U, MEAS_ROTATION.get(label, np.eye(2, dtype=complex)))
    U.setflags(write=False)
    return U


def _full_1q(U: np.ndarray, q: int, n: int) -> np.ndarray:
    """I_(2^q) x U x I_(2^(n-q-1)), built by one broadcast product, not n np.kron calls."""
    a, b = 2**q, 2 ** (n - q - 1)
    full = (np.eye(a)[:, None, None, :, None, None] * U[None, :, None, None, :, None]
            * np.eye(b)[None, None, :, None, None, :])
    return full.reshape(2**n, 2**n)


@lru_cache(maxsize=64)
def _full_cx(c: int, t: int, n: int) -> np.ndarray:
    """CNOT as a permutation of the identity: row i is e_j, j = i with bit t flipped if bit c is set."""
    index = np.arange(2**n)
    flip = ((index >> (n - 1 - c)) & 1) << (n - 1 - t)
    U = np.eye(2**n, dtype=complex)[index ^ flip]
    U.setflags(write=False)
    return U


def _gate_matrix(gate: tuple, n: int) -> np.ndarray:
    """The 2^n x 2^n matrix of one gate of an n-qubit circuit."""
    if gate[0] == "ry":
        return _full_1q(ry_matrix(gate[2]), gate[1], n)
    return _full_cx(gate[1], gate[2], n)


def simulate_density(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Two-qubit density-matrix evolution from |00> with depolarization after each CNOT.

    On two qubits the CNOT's pair is the whole register, so the pair channel
    is rho -> (1-p) rho + p Tr(rho) I/4.
    """
    if circuit.qubit_count != 2:
        raise ValueError("density simulation is implemented for 2-qubit circuits, "
                         f"got {circuit.qubit_count} qubits")
    p = noise.p_dep
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        U = _gate_matrix(gate, 2)
        rho = U @ rho @ U.conj().T
        if gate[0] == "cx":
            rho = (1.0 - p) * rho + (p * np.trace(rho) / 4.0) * np.eye(4)
    return rho


def calibrate_readout(noise: NoiseModel, qubit: int, shots: int) -> tuple[float, float]:
    """Empirical flip-rate estimates (p(0|1), p(1|0)) from the two basis preparations."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = noise.n_qubits
    word = "".join("Z" if q == qubit else "I" for q in range(n))
    counts0 = measure_pauli(zero_state(n), word, shots, noise)
    p10_hat = counts0.counts.get("1", 0) / shots
    excited = apply_circuit(Circuit(n, (("ry", qubit, math.pi),)), zero_state(n))
    counts1 = measure_pauli(excited, word, shots, noise)
    p01_hat = counts1.counts.get("0", 0) / shots
    return p01_hat, p10_hat
