import functools
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import kron_word
from phi4vqe.lattice_model import ModelParams
from phi4vqe.fock_space import build_H, exact_spectrum, sector_indices
from phi4vqe.qubit_encoding import (
    COEFF_TOL,
    PauliSum,
    encode_matrix,
    parity_blocks,
    pauli_word_matrix,
)


def random_hermitian(dim, rng):
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (M + M.conj().T) / 2.0


# ---------------------------------------------------------------- Pauli words

def test_pauli_word_matrices():
    assert np.array_equal(pauli_word_matrix("I"), np.eye(2))
    assert np.array_equal(pauli_word_matrix("X"), [[0, 1], [1, 0]])
    assert np.array_equal(pauli_word_matrix("Y"), [[0, -1j], [1j, 0]])
    assert np.array_equal(pauli_word_matrix("Z"), [[1, 0], [0, -1]])


def test_pauli_word_leftmost_label_is_slow_index():
    # qubit 0 is the leftmost letter, i.e. the most significant bit
    ZI = pauli_word_matrix("ZI")
    assert np.allclose(np.diag(ZI), [1.0, 1.0, -1.0, -1.0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(word=st.text("IXYZ", min_size=1, max_size=4))
def test_pauli_word_matrix_is_the_kronecker_product(word):
    assert np.array_equal(pauli_word_matrix(word), kron_word(word))


def test_pauli_word_rejects_bad_labels():
    with pytest.raises(ValueError):
        pauli_word_matrix("ZQ")


# ---------------------------------------------------------------- encoding

def test_encode_projector_onto_zero():
    terms = dict((w, c) for c, w in encode_matrix(np.diag([1.0, 0.0])).terms)
    assert terms == {"I": pytest.approx(0.5), "Z": pytest.approx(0.5)}


def test_encode_lowering_matrix_element():
    # |1><0| = (X - iY)/2
    sum_ = encode_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))
    terms = dict((w, c) for c, w in sum_.terms)
    assert terms["X"] == pytest.approx(0.5)
    assert terms["Y"] == pytest.approx(-0.5j)


def test_encode_projector_onto_one():
    terms = dict((w, c) for c, w in encode_matrix(np.diag([0.0, 1.0])).terms)
    assert terms == {"I": pytest.approx(0.5), "Z": pytest.approx(-0.5)}


def test_encode_round_trip_random_hermitian():
    rng = np.random.default_rng(3)
    for n_qubits in (1, 2, 3, 4):
        M = random_hermitian(2 ** n_qubits, rng)
        assert np.max(np.abs(encode_matrix(M).to_matrix() - M)) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_qubits=st.integers(1, 3), data=st.data())
def test_encode_round_trips_any_complex_matrix(n_qubits, data):
    dim = 2**n_qubits
    parts = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * dim * dim,
                               max_size=2 * dim * dim))
    M = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(dim, dim)
    # coefficients below COEFF_TOL are dropped, at most 4^n of them
    assert np.max(np.abs(encode_matrix(M).to_matrix() - M)) < 1e-10


@functools.cache
def kron_words(n_qubits):
    """Every Pauli word on n qubits and its Kronecker matrix, built once per size (16 MB at 5)."""
    return {"".join(w): kron_word("".join(w)) for w in itertools.product("IXYZ", repeat=n_qubits)}


def kron_encoding(M, words):
    """(word, coefficient) pairs of M by the dense formula c_w = sum(w.T * M) / 2^n over
    the Kronecker word matrices ``words`` (in encode_matrix's word order), with its dust rule."""
    terms = []
    for word, W in words.items():
        coeff = complex(np.sum(W.T * M)) / len(M)
        if abs(coeff) >= COEFF_TOL:
            terms.append((word, complex(coeff.real, 0.0) if abs(coeff.imag) < COEFF_TOL else coeff))
    return terms


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_encode_matches_the_kronecker_oracle(n_qubits, data):
    dim = 2**n_qubits
    parts = [data.draw(arrays(np.float64, (dim, dim), elements=st.floats(-10.0, 10.0)))
             for _ in range(2)]
    M = parts[0] + 1j * parts[1]
    words = kron_words(n_qubits)
    encoded = encode_matrix(M)
    expected = kron_encoding(M, words)
    got = [(word, coeff) for coeff, word in encoded.terms]
    if n_qubits <= 3:
        # the one entry per column sums in the dense formula's pairwise order
        assert got == expected
    else:
        # np.sum runs over the 2^n entries instead of 4^n mostly-zero products
        assert [w for w, _ in got] == [w for w, _ in expected]
        error = np.abs([a - b for (_, a), (_, b) in zip(got, expected)])
        assert (error <= 1e-12 * np.max(np.abs(M))).all()
    summed = np.zeros((dim, dim), dtype=complex)
    for coeff, word in encoded.terms:
        summed += coeff * words[word]
    assert np.array_equal(encoded.to_matrix(), summed)


def test_encoding_six_qubits_holds_no_word_matrices():
    # a cache of all 4^6 dense word matrices used to hold about 290 MB
    rng = np.random.default_rng(6)
    M = rng.normal(size=(64, 64))
    M = (M + M.T) / 2.0
    tracemalloc.start()
    try:
        assert np.max(np.abs(encode_matrix(M).to_matrix() - M)) < 1e-12
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_encode_hermitian_gives_real_coefficients():
    rng = np.random.default_rng(4)
    M = random_hermitian(8, rng)
    coeffs = np.array([c for c, _ in encode_matrix(M).terms])
    assert np.max(np.abs(coeffs.imag)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_non_finite_entries(bad):
    M = np.eye(4)
    M[1, 2] = bad
    with pytest.raises(ValueError, match="^matrix has NaN or inf entries$"):
        encode_matrix(M)


@pytest.mark.parametrize("M", [np.float64(2.0), np.ones(4), np.ones((2, 2, 2)), [[1.0, 0.0]]],
                         ids=["0-d", "1-d", "3-d", "nested-list-2x1"])
def test_encode_rejects_input_that_is_not_a_square_matrix(M):
    # a 0-d array used to fail with IndexError and a nested list with AttributeError
    with pytest.raises(ValueError, match=rf"^matrix must be square, got {re.escape(str(np.shape(M)))}$"):
        encode_matrix(M)


def test_encode_reads_a_nested_list_as_its_array():
    M = [[1.0, 2.0], [2.0, -1.0]]
    assert encode_matrix(M) == encode_matrix(np.array(M))


@pytest.mark.parametrize("dim", [0, 1])
def test_encode_rejects_a_matrix_without_a_qubit(dim):
    message = (r"^matrix must be at least 2 x 2 \(encoding needs at least one qubit\), "
               rf"got shape \({dim}, {dim}\)$")
    with pytest.raises(ValueError, match=message):
        encode_matrix(np.full((dim, dim), 2.0))


def test_encode_drops_negligible_terms():
    sum_ = encode_matrix(np.diag([1.0, 1.0]))
    assert [w for _, w in sum_.terms] == ["I"]


def test_pauli_sum_matrix_is_built_once_and_read_only():
    H = PauliSum(terms=((0.5, "ZI"), (-0.25, "XY")), qubit_count=2)
    M = H.to_matrix()
    assert H.to_matrix() is M
    assert not M.flags.writeable
    assert np.array_equal(M, 0.5 * pauli_word_matrix("ZI") - 0.25 * pauli_word_matrix("XY"))


def test_pauli_sum_rejects_duplicate_words():
    with pytest.raises(ValueError):
        PauliSum(terms=((1.0, "Z"), (2.0, "Z")), qubit_count=1)


def test_pauli_sum_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        PauliSum(terms=((1.0, "ZI"), (2.0, "Z")), qubit_count=2)


@pytest.mark.parametrize("terms,qubit_count,match", [
    (((float("nan"), "Z"),), 1, r"^coefficient array has NaN or inf entries$"),
    (((1.0, "I"), (complex(0.0, np.inf), "Z")), 1, r"^coefficient array has NaN or inf entries$"),
    ((("1.0", "Z"),), 1, r"^coefficient array entries must be numbers, got dtype <U3$"),
    ((), 0, r"^qubit_count must be an integer >= 1, got 0$"),
    ((), 1.5, r"^qubit_count must be an integer >= 1, got 1\.5$"),
    ((), True, r"^qubit_count must be an integer >= 1, got True$"),
    (((1.0, "ZQ"),), 2, r"^word 'ZQ' is not a Pauli word on 2 qubits$"),
    (((1.0, 3),), 1, r"^word 3 is not a Pauli word on 1 qubits$"),
], ids=["nan", "complex-inf", "string", "zero-qubits", "float-qubits", "bool-qubits",
        "label", "not-a-string"])
def test_pauli_sum_rejects_bad_coefficients_counts_and_words(terms, qubit_count, match):
    # a NaN coefficient used to give NaN energies without an error, a string one a
    # UFuncTypeError, and qubit counts 0 and 1.5 were accepted
    with pytest.raises(ValueError, match=match):
        PauliSum(terms, qubit_count)


@pytest.mark.parametrize("word", ["", "ZQ", "zz", 3, None])
def test_pauli_word_matrix_rejects_what_is_not_a_pauli_word(word):
    with pytest.raises(ValueError, match=rf"^word {re.escape(repr(word))} is not a Pauli word$"):
        pauli_word_matrix(word)


def test_pauli_sum_coefficient_lookup():
    sum_ = encode_matrix(np.diag([0.0, 1.0]))
    assert sum_.coefficient("Z") == pytest.approx(-0.5)
    assert sum_.coefficient("X") == 0.0


# ---------------------------------------------------------------- sector blocking

def benchmark(lam):
    return ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=-1.5, lam=lam, n_max=4)


def by_label(sectors):
    return {sector.label: sector for sector in sectors}


def test_parity_blocks_shapes_and_order():
    p = benchmark(6.0)
    blocks = parity_blocks(build_H(p), p)
    assert [b.label for b in blocks] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(b.block.shape == (4, 4) for b in blocks)
    assert not any(b.block.flags.writeable for b in blocks)


SECTOR_BASES = ([(1, n) for n in range(2, 11)] + [(2, n) for n in range(2, 11)]
                + [(3, n) for n in range(2, 7)] + [(4, n) for n in range(2, 5)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(basis=st.sampled_from(SECTOR_BASES),
       delta_m=st.floats(-100.0, 100.0), lam=st.floats(-100.0, 100.0))
@example(basis=(2, 4), delta_m=-2.5, lam=8.21)
@example(basis=(3, 5), delta_m=-100.0, lam=100.0)
def test_parity_blocks_are_the_sector_builds_and_hold_the_spectrum(basis, delta_m, lam):
    L, n_max = basis
    p = ModelParams.from_counterterm(L=L, m_sq=1.0, delta_m=delta_m, lam=lam, n_max=n_max)
    H = build_H(p)
    blocks = parity_blocks(H, p)
    assert [b.label for b in blocks] == list(sector_indices(L, n_max))
    for block in blocks:
        assert np.array_equal(block.block, build_H(p, block.label))
    full = np.sort(np.linalg.eigvalsh(H))
    pieces = np.sort(np.concatenate([np.linalg.eigvalsh(b.block) for b in blocks]))
    assert np.max(np.abs(full - pieces)) < 1e-10


def test_parity_blocks_ground_and_excited_sectors():
    p = benchmark(6.0)
    H = build_H(p)
    minima = {b.label: np.min(np.linalg.eigvalsh(b.block)) for b in parity_blocks(H, p)}
    spec = exact_spectrum(H)
    assert minima[(0, 0)] == pytest.approx(spec.eigenvalues[0], abs=1e-10)
    second = min(v for k, v in minima.items() if k != (0, 0))
    assert minima[(1, 0)] == pytest.approx(second, abs=1e-12)


def test_parity_blocks_pauli_matches_block():
    p = benchmark(10.0)
    for block in parity_blocks(build_H(p), p):
        assert block.pauli is not None
        assert block.pauli.qubit_count == 2
        assert np.max(np.abs(block.pauli.to_matrix() - block.block)) < 1e-10


def test_parity_blocks_reject_symmetry_violation():
    p = benchmark(6.0)
    rng = np.random.default_rng(9)
    H = random_hermitian(16, rng).real
    H = (H + H.T) / 2.0
    with pytest.raises(ValueError, match=r"^H couples two \(Z2, P\) sectors"):
        parity_blocks(H, p)


def test_parity_blocks_reject_a_nan_hamiltonian():
    p = benchmark(6.0)
    with pytest.raises(ValueError, match="^H has NaN or inf entries$"):
        parity_blocks(np.full((16, 16), np.nan), p)


@pytest.mark.parametrize("L, n_max", [(1, 2), (1, 8), (2, 2), (2, 4), (2, 10)])
def test_parity_blocks_match_per_mode_slicing(L, n_max):
    # reference: at L <= 2 each per-mode parity tuple (even or odd occupations
    # per mode, in product = ascending basis order) is exactly one (Z2, P)
    # sector: Z2 = number of odd modes mod 2, P = parity of mode 1
    p = ModelParams.from_counterterm(L=L, m_sq=1.0, delta_m=-2.5, lam=6.0, n_max=n_max)
    H = build_H(p)
    blocks = by_label(parity_blocks(H, p))
    assert len(blocks) == 2**L
    for odd in itertools.product((0, 1), repeat=L):
        per_mode = [[n for n in range(n_max) if n % 2 == o] for o in odd]
        indices = [int(np.ravel_multi_index(occ, (n_max,) * L))
                   for occ in itertools.product(*per_mode)]
        label = (sum(odd) % 2, sum(j * o for j, o in enumerate(odd)) % L)
        assert np.array_equal(blocks[label].block, H[np.ix_(indices, indices)])


@pytest.mark.parametrize("L, n_max", [(3, 4), (4, 3), (2, 5)])
def test_parity_blocks_accept_any_site_count_and_truncation(L, n_max):
    # (Z2, P) is a symmetry of H at every L and n_max, where per-mode parity is not
    p = ModelParams.from_counterterm(L=L, m_sq=1.0, delta_m=-2.5, lam=6.0, n_max=n_max)
    blocks = parity_blocks(build_H(p), p)
    assert sum(b.block.shape[0] for b in blocks) == n_max**L
    assert {(0, 0), (1, 0)} <= set(by_label(blocks))


def test_parity_blocks_reject_a_matrix_of_the_wrong_size():
    p = benchmark(6.0)
    with pytest.raises(ValueError, match="expected a 16 x 16 matrix"):
        parity_blocks(np.eye(9), p)
