"""Minimal gate-model simulator for the two variational ansatz circuits.

Gates act on the amplitudes and build no matrix, so a gate on a (k, 2^n) state
costs O(k 2^n) time and memory. RotY(theta) = exp(-i theta Y / 2) is
cos(theta/2) psi + sin(theta/2) G psi, where G = -iY swaps and signs each
amplitude pair that differs in the gate's qubit; CNOT is a gather by a cached
index permutation. Qubit 0 is the most significant bit of a basis index.
Statevectors may span any number of qubits; density matrices span the two
qubits of the ansatz circuits. There the depolarizer after each CNOT acts on
the whole register, rho -> (1-p) rho + p I/4, a channel that commutes with
every unitary, so after c CNOTs rho = (1-p)^c |psi><psi| + (1 - (1-p)^c) I/4
with psi the noiseless final state. That closed form holds only because the
gate's pair is the whole register; on more qubits a pair channel is needed.

A measurement takes a batch of Pauli words and reads the whole register for
each of them: it returns an integer tally array, one row per word and one
column per register outcome x (qubit 0 the most significant bit of x), and
every row sums to the shot count. The whole batch is one multinomial draw
over the readout-convolved distributions C @ p, p a word's Born
distribution after rotating its measured axes to Z and C the tensored
per-qubit confusion matrix, which has the same law as sampling shots one at
a time and flipping each read bit independently. A word's value is the mean
of its row of a word x outcome table (outcome_table) under its tallies: at
zero flip rates the raw estimate (counts_expectation), at a calibration's
rates the readout-corrected one (mitigation.ro_correct). All draws come
from the one seeded stream owned by the experiment's NoiseModel, so runs
are bit-reproducible.

A circuit whose RotY angles are 1-D arrays of length k is a batch of k
circuits of one gate layout: every gate acts on all k states at once, states
evolve as (k, 2^n) and density matrices as (k, 4, 4). The measurement
functions take the same leading batch axis and make one draw over all k x W
rows, which consumes the stream exactly as k draws in batch order would.
A density matrix's Born rows are one product vec(rho) @ T with a cached
(d^2, W d) table T[(i, j), (w, a)] = U_w[a, i] conj(U_w[a, j]), U_w the basis
change of word w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .lattice_model import _int_in, _numeric, _real
from .qubit_encoding import PauliSum, _pauli_words

__all__ = [
    "Circuit",
    "NoiseModel",
    "ReadoutCalibration",
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
]

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
S_DAG = np.array([[1, 0], [0, -1j]], dtype=complex)
# Basis change sending the measured axis to Z: X -> H, Y -> H S_dag (S_dag first).
MEAS_ROTATION = {"X": HADAMARD, "Y": HADAMARD @ S_DAG}
_RY_SIGNS = np.array([[-1.0], [1.0]])  # G = -iY maps an amplitude pair (a0, a1) of its qubit to (-a1, a0)


def _is_seed(seed) -> bool:
    """Whether ``seed`` is an integer >= 0 or a sequence, nested or not, of them."""
    if isinstance(seed, (tuple, list)) or getattr(seed, "ndim", 0) > 0:
        return all(map(_is_seed, seed))
    return _int_in(seed, 0)


def _check_shots(name: str, shots) -> None:
    """Reject a shot count outside [1, 2**63 - 1], the counts a multinomial draw accepts."""
    if not _int_in(shots, 1, 2**63):
        raise ValueError(f"{name} must be an integer in [1, 2**63 - 1], got {shots!r}")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate program; gates are ("ry", qubit, angle) or ("cx", control, target).

    Angles are all numbers, or all 1-D arrays of one length k >= 1: then the
    circuit is a batch of k circuits and ``batch_size`` is k (None otherwise).
    ``angles`` holds the RotY angles in gate order as a read-only float array,
    (g,) or (g, k).
    """

    qubit_count: int
    gates: tuple[tuple, ...]
    batch_size: int | None = field(init=False, default=None)
    angles: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.qubit_count
        if not _int_in(n, 1):
            raise ValueError(f"qubit_count must be an integer >= 1, got {n!r}")
        angles = []
        for gate in self.gates:
            if not (isinstance(gate, (tuple, list)) and len(gate) == 3):
                raise ValueError(f"gate {gate!r} is not a triple (kind, qubit, angle or qubit)")
            kind, a, b = gate
            if kind not in ("ry", "cx"):
                raise ValueError(f"unknown gate {kind!r}")
            if not (_int_in(a, 0, n) and (kind == "ry" or (_int_in(b, 0, n) and a != b))):
                raise ValueError(f"gate {gate!r} needs distinct integer qubits in [0, {n})")
            if kind == "ry":
                angles.append(b)
        shapes = {np.shape(theta) for theta in angles}
        if len(shapes) > 1 or any(len(shape) > 1 for shape in shapes):
            raise ValueError("angles must be all numbers or all 1-D arrays of one length")
        array = _numeric(angles, "angle array")
        if array.dtype.kind == "c":
            raise ValueError(f"angles must be real numbers, got {angles}")
        array = array.astype(float, copy=False)
        array.setflags(write=False)
        object.__setattr__(self, "angles", array)
        if shapes and shapes != {()}:
            (k,) = shapes.pop()
            if k == 0:
                raise ValueError("a batch of circuits needs angle arrays of length >= 1, got 0")
            object.__setattr__(self, "batch_size", k)


@dataclass(frozen=True)
class ReadoutCalibration:
    """A readout channel, rates[q] = (p(0|1), p(1|0)) of qubit q: the chance a true 1 is
    read as 0 and that a true 0 is read as 1, in [0, 1] with a sum below 1 so the channel
    inverts. It is both the channel a NoiseModel applies and a calibration's estimate of
    it; any sequence of pairs is stored as a tuple of float pairs."""

    rates: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        sequence = isinstance(self.rates, (tuple, list)) or getattr(self.rates, "ndim", 0) > 0
        if not (sequence and len(self.rates)):
            raise ValueError(f"rates must be a non-empty sequence of per-qubit pairs, got {self.rates!r}")
        rates = []
        for q, pair in enumerate(self.rates):
            if not (isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2
                    and all(_real(p) and 0 <= p <= 1 for p in pair)):
                raise ValueError(f"qubit {q} rates {pair!r} are not a pair of numbers in [0, 1]")
            if pair[0] + pair[1] >= 1:
                raise ValueError(f"qubit {q} has p(0|1) + p(1|0) = {pair[0] + pair[1]} >= 1, "
                                 "channel not invertible")
            rates.append((float(pair[0]), float(pair[1])))
        object.__setattr__(self, "rates", tuple(rates))

    @classmethod
    def from_noise_model(cls, noise: NoiseModel, shots: int = 100_000) -> "ReadoutCalibration":
        """Sampled estimate of the noise model's channel: per qubit q, ``shots`` reads of
        |0...0> give p(1|0) and then ``shots`` reads with q flipped give p(0|1)."""
        n = noise.n_qubits
        rates = []
        for q, bit in enumerate(_outcome_bits(n)):
            excited = apply_circuit(Circuit(n, (("ry", q, math.pi),)), zero_state(n))
            read0 = measure_pauli(zero_state(n), ("Z" * n,), shots, noise)[0]
            read1 = measure_pauli(excited, ("Z" * n,), shots, noise)[0]
            rates.append((int(read1 @ (1 - bit)) / shots, int(read0 @ bit) / shots))
        return cls(rates)


@dataclass(eq=False)
class NoiseModel:
    """A readout channel, optional CNOT depolarization, and the RNG.

    p_dep is applied to the gate's qubit pair after every CNOT. ``seed`` is an
    integer >= 0 or a sequence of such seeds, such as [[master seed, point], sector].
    """

    readout: ReadoutCalibration
    p_dep: float = 0.0
    seed: int = 0
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.readout, ReadoutCalibration):
            raise ValueError(f"readout must be a ReadoutCalibration, got {self.readout!r}")
        if not (_real(self.p_dep) and 0 <= self.p_dep < 1):
            raise ValueError(f"p_dep must be a number in [0, 1), got {self.p_dep!r}")
        if not _is_seed(self.seed):
            raise ValueError(f"seed must be an integer >= 0 or a sequence of such seeds, "
                             f"got {self.seed!r}")
        self.rng = np.random.default_rng(self.seed)

    @property
    def n_qubits(self) -> int:
        return len(self.readout.rates)

    @classmethod
    def noiseless(cls, n_qubits: int, seed: int = 0) -> "NoiseModel":
        return cls.uniform(n_qubits, seed=seed)

    @classmethod
    def uniform(cls, n_qubits: int, readout: float = 0.0, p_dep: float = 0.0,
                seed: int = 0) -> "NoiseModel":
        """Same symmetric readout rate on every qubit."""
        if not _int_in(n_qubits, 1):
            raise ValueError(f"n_qubits must be an integer >= 1, got {n_qubits!r}")
        return cls(ReadoutCalibration(((readout, readout),) * n_qubits), p_dep=p_dep, seed=seed)


def zero_state(n_qubits: int) -> np.ndarray:
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def apply_circuit(circuit: Circuit, initial: np.ndarray) -> np.ndarray:
    """Evolve ``initial`` through the circuit: (2^n,), or (k, 2^n) for a batch of k."""
    n, initial = circuit.qubit_count, _numeric(initial, "state", finite=False)
    if initial.shape != (2**n,):
        raise ValueError(f"state dimension {initial.shape} does not match {n} qubits")
    if not 0 < np.abs(initial).max() < np.inf:  # NaN fails every comparison
        raise ValueError("initial state must be finite and not the zero vector")
    k = circuit.batch_size or 1
    state = np.tile(initial.astype(complex), (k, 1))
    half = circuit.angles.reshape(-1, k, 1, 1, 1) / 2
    rotations = zip(np.cos(half), np.sin(half) * _RY_SIGNS)
    for kind, a, b in circuit.gates:
        if kind == "ry":
            cos, signed_sin = next(rotations)
            pairs = state.reshape(k, 2**a, 2, -1)
            state = (cos * pairs + signed_sin * pairs[:, :, ::-1]).reshape(k, -1)
        else:
            state = state.take(_cx_permutation(a, b, n), axis=1)
    return state[0] if circuit.batch_size is None else state


def ansatz_product(theta0, theta1) -> Circuit:
    """Two local rotations; spans all real product states of two qubits."""
    return Circuit(2, (("ry", 0, theta0), ("ry", 1, theta1)))


def ansatz_entangled(theta0, theta1, theta2) -> Circuit:
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


def expectation_exact(state: np.ndarray, H: PauliSum) -> float | np.ndarray:
    """<psi|H|psi> for a Pauli sum; real for Hermitian input. A (k, 2^n) stack gives k values."""
    n, state = H.qubit_count, _numeric(state, "state")
    if state.shape[-1:] != (2**n,) or state.ndim > 2:
        raise ValueError("state and operator qubit counts differ")
    states = np.atleast_2d(state)
    images = (H.to_matrix() @ states[..., None])[..., 0]
    # a stack of (1, d) @ (d, 1) products: row for row bit-equal to np.vdot
    values = (states.conj()[:, None, :] @ images[:, :, None])[:, 0, 0].real
    return float(values[0]) if state.ndim == 1 else values


@lru_cache(maxsize=64)
def _confusion(rates: tuple[tuple[float, float], ...]) -> np.ndarray:
    """Readout channel on the register: C[read, true], rates as in ReadoutCalibration."""
    C = np.ones((1, 1))
    for p01, p10 in rates:
        C = np.kron(C, np.array([[1.0 - p10, p01], [p10, 1.0 - p01]]))
    C.setflags(write=False)
    return C


def _outcome_bits(n: int) -> np.ndarray:
    """bits[q, x]: the value qubit q reads in register outcome x."""
    return (np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1


@lru_cache(maxsize=64)
def outcome_table(words: tuple[str, ...], rates: tuple[tuple[float, float], ...]) -> np.ndarray:
    """Word x outcome table of prod_q ((-1)^{x_q} - (p01 - p10)) / (1 - (p01 + p10)).

    rates[q] = (p01, p10) as in ReadoutCalibration; the product runs over each
    word's measured (non-identity) qubits. Each factor inverts the qubit's bit-flip
    channel in the infinite-shot limit; zero rates give the raw eigenvalue signs.
    """
    p01, p10 = np.array(rates, dtype=float).reshape(-1, 2).T[:, :, None]
    factors = (1.0 - 2.0 * _outcome_bits(len(rates)) - (p01 - p10)) / (1.0 - (p01 + p10))
    measured = np.array([[label != "I" for label in w] for w in words], dtype=bool)
    table = np.where(measured.reshape(len(words), -1, 1), factors, 1.0).prod(axis=1)
    table.setflags(write=False)
    return table


# overflow or inf - inf in Born rows leaves non-finite rows, which _sample rejects before the draw
_QUIET = np.errstate(over="ignore", invalid="ignore")


def _checked_words(words, shots: int, dim: int, noise: NoiseModel) -> tuple[str, ...]:
    """Check a measurement request on a 2^n-dimensional state; return the words."""
    _check_shots("shots", shots)
    n = dim.bit_length() - 1
    if n < 1 or dim != 2**n:
        raise ValueError(f"state dimension {dim} is not a power of two >= 2")
    if noise.n_qubits != n:
        raise ValueError(f"noise model covers {noise.n_qubits} qubits, the state {n}")
    return _pauli_words(words, n)


def _sample(probs: np.ndarray, shots: int, noise: NoiseModel) -> np.ndarray:
    """One multinomial draw over every row of C @ probs, probs of shape (..., W, 2^n)."""
    probs = np.maximum(probs @ _confusion(noise.readout.rates).T, 0.0)
    totals = probs.sum(axis=-1, keepdims=True)
    if totals.size and not 0 < totals.min() <= totals.max() < np.inf:  # NaN fails every comparison
        bad = ~((totals > 0) & (totals < np.inf)).all(axis=(-2, -1))
        where = f"batch row {np.flatnonzero(bad)[0]}" if bad.ndim else "the state"
        raise ValueError(f"the Born rows of {where} are non-finite or lack a positive total")
    probs /= totals
    tallies = noise.rng.multinomial(shots, probs.reshape(-1, probs.shape[-1]))
    return tallies.reshape(probs.shape)


@_QUIET
def measure_pauli(state: np.ndarray, words, shots: int, noise: NoiseModel) -> np.ndarray:
    """Sample every Pauli word of the batch on a pure state (2^n,) or a stack of them (k, 2^n)."""
    state = _numeric(state, "state", finite=False)
    if state.ndim not in (1, 2):
        raise ValueError(f"state of shape {state.shape} is neither one state nor a stack")
    words = _checked_words(words, shots, state.shape[-1], noise)
    U = _basis_changes(words, state.shape[-1])
    return _sample(np.abs((U @ state[..., None, :, None])[..., 0]) ** 2, shots, noise)


@_QUIET
def measure_pauli_density(rho: np.ndarray, words, shots: int, noise: NoiseModel) -> np.ndarray:
    """Sampling path for mixed states, (2^n, 2^n) or (k, 2^n, 2^n); mirrors measure_pauli."""
    rho = _numeric(rho, "density matrix", finite=False)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"density matrix of shape {rho.shape} is not square")
    words = _checked_words(words, shots, rho.shape[-1], noise)
    return _sample(_born_rows(rho, words), shots, noise)


def _born_rows(rho: np.ndarray, words: tuple[str, ...]) -> np.ndarray:
    """diag(U_w rho U_w^dagger) of every word w: (..., d, d) -> (..., W, d)."""
    dim = rho.shape[-1]
    # one vector-matrix product per matrix, so a stack's rows equal its members' rows bit for bit
    rows = rho.reshape(rho.shape[:-2] + (1, dim * dim)) @ _born_table(words, dim)
    return rows.real.reshape(rho.shape[:-2] + (len(words), dim))


def _word_values(weights, words, rates: tuple[tuple[float, float], ...]) -> np.ndarray:
    """<P> of every word: the mean of its outcome_table(words, rates) row under its weights.

    ``weights[..., i, x]`` weighs register outcome x of words[i] on the
    len(rates) >= 1 qubits, laid out as a measurement's tallies.
    """
    n, words = len(rates), _pauli_words(words, len(rates))
    weights = _numeric(weights, "outcome weights", finite=False)
    if n < 1 or weights.shape[-2:] != (len(words), 2**n):
        raise ValueError(f"weights of shape {weights.shape} do not match "
                         f"{len(words)} words on {n} qubits")
    if weights.dtype.kind == "c" or not (np.isfinite(weights).all() and (weights >= 0).all()):
        raise ValueError("outcome weights must be real, finite and >= 0")
    total = weights.sum(axis=-1)
    if (total <= 0).any():
        raise ValueError("empty counts")
    return (outcome_table(words, rates) * weights).sum(axis=-1) / total


def counts_expectation(tallies, words) -> np.ndarray:
    """Raw empirical <P> of every word from its tallies (..., W, 2^n): the eigenvalue signs' mean."""
    words = tuple(words)
    return _word_values(tallies, words, ((0.0, 0.0),) * len(words[0] if words else ""))


@lru_cache(maxsize=64)
def _basis_changes(words: tuple[str, ...], dim: int) -> np.ndarray:
    """Stacked full-register unitaries sending each word's measured axes to Z: (W, d, d)."""
    identity = np.eye(2, dtype=complex)
    U = np.reshape([reduce(np.kron, [MEAS_ROTATION.get(label, identity) for label in word])
                    for word in words], (len(words), dim, dim))
    U.setflags(write=False)
    return U


@lru_cache(maxsize=64)
def _born_table(words: tuple[str, ...], dim: int) -> np.ndarray:
    """T[(i, j), (w, a)] = U_w[a, i] conj(U_w[a, j]), so vec(rho) @ T lists every word's Born row."""
    U = _basis_changes(words, dim)
    table = np.einsum("wai,waj->ijwa", U, U.conj()).reshape(dim * dim, len(words) * dim)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def _cx_permutation(c: int, t: int, n: int) -> np.ndarray:
    """CNOT as an amplitude gather: entry x is x with bit t flipped if bit c is set."""
    index = np.arange(2**n)
    perm = index ^ (((index >> (n - 1 - c)) & 1) << (n - 1 - t))
    perm.setflags(write=False)
    return perm


def simulate_density(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Two-qubit density matrix from |00> with depolarization after each CNOT.

    On two qubits the CNOT's pair is the whole register, so the channel
    rho -> (1-p) rho + p I/4 commutes with every gate and the noisy state is
    (1-p)^c |psi><psi| + (1 - (1-p)^c) I/4 after c CNOTs, psi the noiseless
    final state. This closed form holds only for a depolarizer that covers
    the whole register. Returns (4, 4), or (k, 4, 4) for a batch of k.
    """
    if circuit.qubit_count != 2:
        raise ValueError("density simulation is implemented for 2-qubit circuits, "
                         f"got {circuit.qubit_count} qubits")
    keep = (1.0 - noise.p_dep) ** sum(gate[0] == "cx" for gate in circuit.gates)
    psi = apply_circuit(circuit, zero_state(2))
    return keep * (psi[..., :, None] * psi[..., None, :].conj()) + ((1.0 - keep) / 4.0) * np.eye(4)

