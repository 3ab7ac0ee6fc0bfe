import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phi4vqe.lattice_model import ModelParams
from phi4vqe.fock_space import build_H, exact_spectrum
from phi4vqe.qubit_encoding import (
    PauliSum,
    encode_matrix,
    parity_blocks,
    pauli_word_matrix,
    sector_by_parity,
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


def test_encode_hermitian_gives_real_coefficients():
    rng = np.random.default_rng(4)
    M = random_hermitian(8, rng)
    coeffs = np.array([c for c, _ in encode_matrix(M).terms])
    assert np.max(np.abs(coeffs.imag)) < 1e-12


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


def test_pauli_sum_coefficient_lookup():
    sum_ = encode_matrix(np.diag([0.0, 1.0]))
    assert sum_.coefficient("Z") == pytest.approx(-0.5)
    assert sum_.coefficient("X") == 0.0


# ---------------------------------------------------------------- parity blocking

def benchmark(lam):
    return ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=-1.5, lam=lam, n_max=4)


def test_parity_blocks_shapes_and_order():
    p = benchmark(6.0)
    blocks = parity_blocks(build_H(p), p)
    assert [b.parities for b in blocks] == [("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")]
    assert all(b.block.shape == (4, 4) for b in blocks)


def test_parity_blocks_basis_occupancies_match_labels():
    p = benchmark(6.0)
    for block in parity_blocks(build_H(p), p):
        for occ in block.basis_map:
            for n, parity in zip(occ, block.parities):
                assert n % 2 == (0 if parity == "+" else 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_max=st.sampled_from([2, 4, 6, 8, 10]),
       delta_m=st.floats(-100.0, 100.0), lam=st.floats(-100.0, 100.0))
@example(n_max=4, delta_m=-2.5, lam=8.21)
def test_parity_blocks_preserve_spectrum(n_max, delta_m, lam):
    p = ModelParams.from_counterterm(L=2, m_sq=1.0, delta_m=delta_m, lam=lam, n_max=n_max)
    H = build_H(p)
    full = np.sort(np.linalg.eigvalsh(H))
    pieces = np.sort(np.concatenate(
        [np.linalg.eigvalsh(b.block) for b in parity_blocks(H, p)]))
    assert np.max(np.abs(full - pieces)) < 1e-10


def test_parity_blocks_ground_and_excited_sectors():
    p = benchmark(6.0)
    H = build_H(p)
    blocks = parity_blocks(H, p)
    minima = {b.parities: np.min(np.linalg.eigvalsh(b.block)) for b in blocks}
    spec = exact_spectrum(H)
    assert minima[("+", "+")] == pytest.approx(spec.eigenvalues[0], abs=1e-10)
    second = min(v for k, v in minima.items() if k != ("+", "+"))
    assert minima[("-", "+")] == pytest.approx(second, abs=1e-12)


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
    with pytest.raises(ValueError):
        parity_blocks(H, p)


@pytest.mark.parametrize("L, n_max", [(1, 2), (1, 8), (2, 2), (2, 4), (2, 10)])
def test_parity_blocks_match_per_mode_slicing(L, n_max):
    # reference: each mode's even or odd occupations, in product (ascending basis) order
    p = ModelParams.from_counterterm(L=L, m_sq=1.0, delta_m=-2.5, lam=6.0, n_max=n_max)
    H = build_H(p)
    blocks = parity_blocks(H, p)
    assert [b.parities for b in blocks] == list(itertools.product("+-", repeat=L))
    for block in blocks:
        per_mode = [[n for n in range(n_max) if n % 2 == (s == "-")] for s in block.parities]
        basis_map = tuple(itertools.product(*per_mode))
        indices = [int(np.ravel_multi_index(occ, (n_max,) * L)) for occ in basis_map]
        assert block.basis_map == basis_map
        assert np.array_equal(block.block, H[np.ix_(indices, indices)])


def test_parity_blocks_reject_three_sites():
    # a correct L=3 Hamiltonian: per-mode parity is no symmetry there, so the
    # rejection names the site count, not the matrix
    p = ModelParams.from_counterterm(L=3, m_sq=1.0, delta_m=-2.5, lam=6.0, n_max=4)
    with pytest.raises(ValueError, match=r"requires L <= 2, got L=3"):
        parity_blocks(build_H(p), p)


def test_parity_blocks_reject_a_matrix_of_the_wrong_size():
    p = benchmark(6.0)
    with pytest.raises(ValueError, match="expected a 16 x 16 matrix"):
        parity_blocks(np.eye(9), p)


def test_parity_blocks_reject_odd_truncation():
    p = ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=1.0, lam=0.0, n_max=3)
    from phi4vqe.fock_space import build_H as bh
    with pytest.raises(ValueError):
        parity_blocks(bh(p), p)


def test_sector_by_parity_lookup():
    p = benchmark(2.0)
    blocks = parity_blocks(build_H(p), p)
    assert sector_by_parity(blocks, ("-", "+")).parities == ("-", "+")
    with pytest.raises(KeyError):
        sector_by_parity(blocks, ("-", "?"))
