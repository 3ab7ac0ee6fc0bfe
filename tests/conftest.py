import math

import numpy as np
import pytest

from phi4vqe.lattice_model import ModelParams, momentum_grid


def ladder_ops(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated annihilation and creation matrices (a, a_dag).

    a_dag[i+1, i] = sqrt(i+1); the truncated commutator [a, a_dag] equals the
    identity on occupancies up to n_max - 2.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    a_dag = np.diag(np.sqrt(np.arange(1.0, n_max)), k=-1)
    return a_dag.T.copy(), a_dag


def number_op(n_max: int) -> np.ndarray:
    return np.diag(np.arange(n_max, dtype=float))


def quadrature(n_max: int) -> np.ndarray:
    """q = (a + a_dag) / sqrt(2), the dimensionless mode coordinate."""
    a, a_dag = ladder_ops(n_max)
    return (a + a_dag) / math.sqrt(2.0)


def embed(mode_op: np.ndarray, mode_index: int, params: ModelParams) -> np.ndarray:
    """Tensor mode_op into the L-mode product space, identities elsewhere."""
    if not 0 <= mode_index < params.L:
        raise ValueError(f"mode_index {mode_index} out of range for L={params.L}")
    eye = np.eye(params.n_max)
    out = np.ones((1, 1))
    for j in range(params.L):
        out = np.kron(out, mode_op if j == mode_index else eye)
    return out


def _dense_parts(L, m_sq, n_max):
    """(H0, A, B) as n_max^L matrices from embed Kronecker products: the oracle of the sector build.

    Phi_k = (a_k + a_dag_{-k}) / sqrt(2 omega_k), C_q = sum_k Phi_k Phi_{q-k},
    A = C_0 / 2 and B = sum_q C_q C_{-q} / (24 L), products of the truncated
    full-space matrices, so H = H0 + delta_m A + lambda B.
    """
    p = ModelParams.from_counterterm(L=L, m_sq=m_sq, delta_m=0.0, lam=0.0, n_max=n_max)
    omega = momentum_grid(p).frequencies
    a, a_dag = ladder_ops(n_max)
    Phi = [(embed(a, k, p) + embed(a_dag, -k % L, p)) / math.sqrt(2.0 * omega[k])
           for k in range(L)]
    C = [sum(Phi[k] @ Phi[(q - k) % L] for k in range(L)) for q in range(L)]
    H0 = sum(w * embed(number_op(n_max), k, p) for k, w in enumerate(omega))
    return H0, C[0] / 2.0, sum(C[q] @ C[-q % L] for q in range(L)) / (24.0 * L)


PAULI_LETTERS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_word(word: str) -> np.ndarray:
    """Dense matrix of a Pauli word as the Kronecker product of its 2 x 2 letters, qubit 0
    leftmost: the oracle of the signed-permutation form in qubit_encoding."""
    out = np.ones((1, 1), dtype=complex)
    for label in word:
        out = np.kron(out, PAULI_LETTERS[label])
    return out


@pytest.fixture(scope="session")
def dense_parts():
    """_dense_parts, the dense Kronecker oracle of (H0, A, B)."""
    return _dense_parts


@pytest.fixture
def record_draws():
    """Route a NoiseModel's generator through a recorder; returns the names of the methods asked for."""

    def install(noise):
        calls, rng = [], noise.rng

        class Recorder:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(rng, name)

        noise.rng = Recorder()
        return calls

    return install
