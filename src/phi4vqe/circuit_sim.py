"""Minimal gate-model simulator for the two variational ansatz circuits.

Gates are RotY(theta) = exp(-i theta Y / 2) and CNOT, each applied as its
full-register matrix. Qubit 0 is the most significant bit of a basis index.
Statevectors may span any number of qubits; density matrices span the two
qubits of the ansatz circuits.

A measurement takes a batch of Pauli words and reads the whole register for
each of them: the record is an integer tally array, one row per word and one
column per register outcome x (qubit 0 the most significant bit of x). The
whole batch is one multinomial draw over the readout-convolved distributions
C @ p, p a word's Born distribution after rotating its measured axes to Z
and C the tensored per-qubit confusion matrix, which has the same law as
sampling shots one at a time and flipping each read bit independently.
Expectations are products of the tallies with a word x outcome table
(outcome_table). All draws come from the one seeded stream owned by the
experiment's NoiseModel, so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

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
    "outcome_table",
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
    """Tallies of a measured batch of Pauli words on an n-qubit register.

    ``tallies[i, x]`` is the number of shots of ``words[i]`` that read register
    outcome x; every row sums to ``shots``.
    """

    words: tuple[str, ...]
    tallies: np.ndarray
    shots: int

    def __post_init__(self) -> None:
        rows, dim = self.tallies.shape
        if rows != len(self.words) or any(2 ** len(w) != dim for w in self.words):
            raise ValueError(f"tallies of shape {self.tallies.shape} do not match words {self.words}")
        if (self.tallies.sum(axis=1) != self.shots).any():
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


@lru_cache(maxsize=64)
def _confusion(p10: tuple[float, ...], p01: tuple[float, ...]) -> np.ndarray:
    """Readout channel on the register: C[read, true]."""
    C = np.ones((1, 1))
    for a, b in zip(p10, p01):
        C = np.kron(C, np.array([[1.0 - a, b], [a, 1.0 - b]]))
    C.setflags(write=False)
    return C


def _outcome_bits(n: int) -> np.ndarray:
    """bits[q, x]: the value qubit q reads in register outcome x."""
    return (np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1


@lru_cache(maxsize=64)
def outcome_table(words: tuple[str, ...], p_minus: tuple[float, ...],
                  p_plus: tuple[float, ...]) -> np.ndarray:
    """Word x outcome table of prod_q ((-1)^{x_q} - p_minus[q]) / (1 - p_plus[q]).

    The product runs over each word's measured (non-identity) qubits. Zero
    rates give the eigenvalue signs prod_q (-1)^{x_q} of the raw estimator.
    """
    factors = ((1.0 - 2.0 * _outcome_bits(len(p_minus)) - np.array(p_minus)[:, None])
               / (1.0 - np.array(p_plus))[:, None])
    measured = np.array([[label != "I" for label in w] for w in words], dtype=bool)
    table = np.where(measured.reshape(len(words), -1, 1), factors, 1.0).prod(axis=1)
    table.setflags(write=False)
    return table


def _checked_words(words, shots: int, dim: int, noise: NoiseModel) -> tuple[str, ...]:
    """Check a measurement request on a 2^n-dimensional state; return the words."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = int(round(math.log2(dim)))
    if noise.n_qubits != n:
        raise ValueError(f"noise model covers {noise.n_qubits} qubits, the state {n}")
    words = tuple(words)
    for word in words:
        if len(word) != n or not set(word) <= set("IXYZ"):
            raise ValueError(f"word {word!r} is not a Pauli word on {n} qubits")
    return words


def _sample(probs: np.ndarray, words: tuple[str, ...], shots: int, noise: NoiseModel) -> Counts:
    """One multinomial draw over every row of C @ probs."""
    probs = np.clip(probs @ _confusion(noise.p10, noise.p01).T, 0.0, None)
    probs /= probs.sum(axis=1, keepdims=True)
    return Counts(words=words, tallies=noise.rng.multinomial(shots, probs), shots=shots)


def measure_pauli(state: np.ndarray, words, shots: int, noise: NoiseModel) -> Counts:
    """Sample every Pauli word of the batch on a pure state, readout flips applied."""
    words = _checked_words(words, shots, len(state), noise)
    return _sample(np.abs(_basis_changes(words, len(state)) @ state) ** 2, words, shots, noise)


def measure_pauli_density(rho: np.ndarray, words, shots: int, noise: NoiseModel) -> Counts:
    """Sampling path for mixed states; mirrors measure_pauli."""
    words = _checked_words(words, shots, rho.shape[0], noise)
    U = _basis_changes(words, rho.shape[0])
    # Born rows diag(U rho U^dagger), one per word
    return _sample(((U @ rho) * U.conj()).sum(axis=2).real, words, shots, noise)


def counts_expectation(counts: Counts) -> np.ndarray:
    """Raw empirical <P> of every word: its tallies weighted by the eigenvalue signs."""
    zeros = (0.0,) * int(math.log2(counts.tallies.shape[1]))
    return (outcome_table(counts.words, zeros, zeros) * counts.tallies).sum(axis=1) / counts.shots


@lru_cache(maxsize=64)
def _basis_changes(words: tuple[str, ...], dim: int) -> np.ndarray:
    """Stacked full-register unitaries, each sending every measured axis of its word to Z."""
    identity = np.eye(2, dtype=complex)
    U = np.reshape([reduce(np.kron, [MEAS_ROTATION.get(label, identity) for label in word])
                    for word in words], (len(words), dim, dim))
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
    n = noise.n_qubits
    excited = apply_circuit(Circuit(n, (("ry", qubit, math.pi),)), zero_state(n))
    bit = _outcome_bits(n)[qubit]
    read0 = measure_pauli(zero_state(n), ("Z" * n,), shots, noise).tallies[0]
    read1 = measure_pauli(excited, ("Z" * n,), shots, noise).tallies[0]
    return int(read1 @ (1 - bit)) / shots, int(read0 @ bit) / shots
