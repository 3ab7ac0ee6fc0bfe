"""Pauli-sum encoding of truncated-Fock operators and parity-sector reduction.

Conventions fixed project-wide: qubit 0 is the leftmost label of a Pauli word
and the most significant bit of a basis index; mode 0 (the k = 0 momentum) is
the slowest tensor index, so its occupancy bits are the leading qubits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .lattice_model import ModelParams

__all__ = [
    "PAULI",
    "PauliSum",
    "SectorHamiltonian",
    "encode_matrix",
    "pauli_word_matrix",
    "parity_blocks",
    "sector_by_parity",
    "qubit_count",
]

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Coefficients below this are numerical dust and dropped from sums.
COEFF_TOL = 1e-12


@lru_cache(maxsize=None)
def _word_matrix(word: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for label in word:
        out = np.kron(out, PAULI[label])
    out.setflags(write=False)
    return out


def pauli_word_matrix(word: str) -> np.ndarray:
    """Dense matrix of a Pauli word such as "ZIX" (qubit 0 leftmost)."""
    if not word or any(c not in PAULI for c in word):
        raise ValueError(f"invalid Pauli word {word!r}")
    return _word_matrix(word)


@dataclass(frozen=True)
class PauliSum:
    """Weighted sum of multi-qubit Pauli words.

    Coefficients are complex in general; encoding a Hermitian matrix yields
    real coefficients (up to round-off, which is dropped at COEFF_TOL).
    """

    terms: tuple[tuple[complex, str], ...]
    qubit_count: int

    def __post_init__(self) -> None:
        seen = set()
        for coeff, word in self.terms:
            if len(word) != self.qubit_count:
                raise ValueError(f"word {word!r} does not act on {self.qubit_count} qubits")
            if any(c not in PAULI for c in word):
                raise ValueError(f"invalid Pauli word {word!r}")
            if word in seen:
                raise ValueError(f"duplicate Pauli word {word!r}")
            seen.add(word)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix of the sum, built on first use and then reused read-only."""
        return self._matrix

    @cached_property
    def _matrix(self) -> np.ndarray:
        dim = 2**self.qubit_count
        out = np.zeros((dim, dim), dtype=complex)
        for coeff, word in self.terms:
            out += coeff * _word_matrix(word)
        out.setflags(write=False)
        return out

    def coefficient(self, word: str) -> complex:
        for coeff, w in self.terms:
            if w == word:
                return coeff
        return 0.0


def encode_matrix(M: np.ndarray) -> PauliSum:
    """Expand a 2^n x 2^n matrix in the Pauli basis: M = sum_w c_w w.

    Coefficients are the normalized trace inner products
    c_w = Tr(w M) / 2^n, so the expansion is exact by construction.
    """
    dim = M.shape[0]
    if M.shape != (dim, dim):
        raise ValueError(f"matrix must be square, got {M.shape}")
    n = int(math.log2(dim))
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    terms = []
    for labels in itertools.product("IXYZ", repeat=n):
        word = "".join(labels)
        # Tr(W M) without the matmul: sum over element-wise product
        coeff = complex(np.sum(_word_matrix(word).T * M)) / dim
        if abs(coeff) < COEFF_TOL:
            continue
        if abs(coeff.imag) < COEFF_TOL:
            coeff = complex(coeff.real, 0.0)
        terms.append((coeff, word))
    return PauliSum(terms=tuple(terms), qubit_count=n)


def qubit_count(L: int, n_max: int, sector: bool = False) -> int:
    """Qubits for the binary encoding: L log2(n_max), or L log2(n_max/2) per sector."""
    if n_max < 2 or 2 ** int(math.log2(n_max)) != n_max:
        raise ValueError(f"n_max must be a power of two >= 2, got {n_max}")
    per_mode = n_max // 2 if sector else n_max
    return L * int(math.log2(per_mode)) if per_mode > 1 else 0


@dataclass(frozen=True)
class SectorHamiltonian:
    """One parity block: '+' keeps even occupancies, '-' odd, per mode.

    basis_map lists the retained occupancy tuples in block-row order.
    """

    parities: tuple[str, ...]
    block: np.ndarray
    basis_map: tuple[tuple[int, ...], ...]

    @cached_property
    def pauli(self) -> PauliSum:
        """Pauli form of the block, encoded on first use; needs a power-of-two block size."""
        return encode_matrix(self.block)


def parity_blocks(H: np.ndarray, params: ModelParams) -> list[SectorHamiltonian]:
    """Decompose H into the 2^L per-mode parity sectors.

    Validates that H commutes with every per-mode parity (-1)^{n(k)} before
    slicing; a violation signals a malformed Hamiltonian.
    """
    if params.n_max % 2 != 0:
        raise ValueError("parity blocking requires even n_max")
    L, n_max = params.L, params.n_max
    mode_parity = np.array([(-1.0) ** n for n in range(n_max)])
    for j in range(L):
        # diagonal parity: commutator reduces to element-wise phase comparison
        full = np.ones(1)
        for i in range(L):
            full = np.kron(full, mode_parity if i == j else np.ones(n_max))
        violation = np.max(np.abs(H * full[None, :] - full[:, None] * H))
        if violation > 1e-10:
            raise ValueError(
                f"Hamiltonian violates mode-{j} parity symmetry (|[H, P]| = {violation:.3e})"
            )

    sectors = []
    for parities in itertools.product("+-", repeat=L):
        per_mode = [
            [n for n in range(n_max) if n % 2 == (0 if p == "+" else 1)] for p in parities
        ]
        basis_map = tuple(itertools.product(*per_mode))
        indices = [sum(n * n_max**(L - 1 - j) for j, n in enumerate(occ)) for occ in basis_map]
        block = H[np.ix_(indices, indices)]
        sectors.append(SectorHamiltonian(parities=parities, block=block, basis_map=basis_map))
    return sectors


def sector_by_parity(sectors: list[SectorHamiltonian], parities: tuple[str, ...]) -> SectorHamiltonian:
    for sector in sectors:
        if sector.parities == tuple(parities):
            return sector
    raise KeyError(f"no sector with parities {parities}")
