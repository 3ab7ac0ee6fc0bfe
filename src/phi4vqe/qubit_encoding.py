"""Pauli-sum encoding of truncated-Fock operators and symmetry-sector reduction.

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

from .fock_space import sector_blocks
from .lattice_model import ModelParams, _int_in, _numeric

__all__ = [
    "PAULI",
    "PauliSum",
    "SectorHamiltonian",
    "encode_matrix",
    "pauli_word_matrix",
    "parity_blocks",
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


def _pauli_words(words, n: int | None) -> tuple[str, ...]:
    """``words`` as a tuple of Pauli words: non-empty strings over IXYZ, n letters each
    unless n is None. Every module checks its words here."""
    words = tuple(words)
    for word in words:
        # strip() leaves nothing of a word over IXYZ
        if not (isinstance(word, str) and word and not word.strip("IXYZ")
                and (n is None or len(word) == n)):
            raise ValueError(f"word {word!r} is not a Pauli word" + ("" if n is None else f" on {n} qubits"))
    return words


def pauli_word_matrix(word: str) -> np.ndarray:
    """Dense matrix of a Pauli word such as "ZIX" (qubit 0 leftmost)."""
    (word,) = _pauli_words((word,), None)
    return _word_matrix(word)


@dataclass(frozen=True)
class PauliSum:
    """Weighted sum of multi-qubit Pauli words.

    Coefficients are finite complex numbers in general; encoding a Hermitian
    matrix yields real coefficients (up to round-off, which is dropped at
    COEFF_TOL). Every word acts on all qubit_count >= 1 qubits.
    """

    terms: tuple[tuple[complex, str], ...]
    qubit_count: int

    def __post_init__(self) -> None:
        if not _int_in(self.qubit_count, 1):
            raise ValueError(f"qubit_count must be an integer >= 1, got {self.qubit_count!r}")
        _numeric([coeff for coeff, _ in self.terms], "coefficient array")
        words = _pauli_words((word for _, word in self.terms), self.qubit_count)
        if len(set(words)) < len(words):
            raise ValueError(f"duplicate Pauli word {next(w for w in words if words.count(w) > 1)!r}")

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
    """Expand a 2^n x 2^n matrix, n >= 1, in the Pauli basis: M = sum_w c_w w.

    Coefficients are the normalized trace inner products
    c_w = Tr(w M) / 2^n, so the expansion is exact by construction.
    """
    M = _numeric(M, "matrix")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got {M.shape}")
    dim = M.shape[0]
    if dim < 2:
        raise ValueError("matrix must be at least 2 x 2 (encoding needs at least one qubit), "
                         f"got shape {M.shape}")
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


@dataclass(frozen=True)
class SectorHamiltonian:
    """The block of H in one (Z2, P) sector, label (Z2, P), rows in sector_indices order."""

    label: tuple[int, int]
    block: np.ndarray

    @cached_property
    def pauli(self) -> PauliSum:
        """Pauli form of the block, encoded on first use; needs a power-of-two block size."""
        return encode_matrix(self.block)


def parity_blocks(H: np.ndarray, params: ModelParams) -> list[SectorHamiltonian]:
    """H split into its read-only (Z2, P) sector blocks, in sector_indices order.

    Z2 is the field parity and P the total momentum (see fock_space), a
    symmetry of H at every L and n_max. Raises ValueError when H has the wrong
    size, a NaN or inf entry, or an entry between two sectors.
    """
    blocks = sector_blocks(H, params.L, params.n_max)
    return [SectorHamiltonian(label, block) for label, block in blocks.items()]
