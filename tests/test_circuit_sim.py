import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4vqe.circuit_sim import (
    Circuit,
    NoiseModel,
    ReadoutCalibration,
    ansatz_entangled,
    ansatz_product,
    apply_circuit,
    counts_expectation,
    expectation_exact,
    measure_pauli,
    measure_pauli_density,
    simulate_density,
    _basis_changes,
    _born_rows,
    zero_state,
)
from phi4vqe.qubit_encoding import PauliSum, encode_matrix, pauli_word_matrix


def random_state(n_qubits, rng):
    v = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return v / np.linalg.norm(v)


def ry_matrix(theta, q, n):
    """RotY(theta) on qubit q of n: the 2x2 rotation kron'd with identities (qubit 0 leftmost)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    factors = [np.array([[c, -s], [s, c]]) if i == q else np.eye(2) for i in range(n)]
    return functools.reduce(np.kron, factors)


def cx_matrix(c, t, n):
    """CNOT as an explicit basis permutation: |x> -> |x with bit t flipped if bit c is set>."""
    U = np.zeros((2**n, 2**n))
    for x in range(2**n):
        bits = [(x >> (n - 1 - i)) & 1 for i in range(n)]
        bits[t] ^= bits[c]
        U[int("".join(map(str, bits)), 2), x] = 1.0
    return U


def gate_matrices(circuit):
    """Every gate's full-register matrix, stacked over the batch: (k, 2^n, 2^n), k = 1 if unbatched."""
    n, k = circuit.qubit_count, circuit.batch_size or 1
    for gate in circuit.gates:
        if gate[0] == "ry":
            yield np.stack([ry_matrix(theta, gate[1], n) for theta in np.broadcast_to(gate[2], (k,))])
        else:
            yield cx_matrix(gate[1], gate[2], n)[None]


# ---------------------------------------------------------------- gates

def test_ry_matrix_convention():
    # the columns of RotY(0.3) are its images of |0> and |1>
    c, s = math.cos(0.15), math.sin(0.15)
    gate = Circuit(1, (("ry", 0, 0.3),))
    columns = [apply_circuit(gate, basis) for basis in np.eye(2, dtype=complex)]
    assert np.allclose(np.transpose(columns), [[c, -s], [s, c]], atol=1e-15)


def test_ry_pi_flips_zero():
    state = apply_circuit(Circuit(1, (("ry", 0, math.pi),)), zero_state(1))
    assert np.allclose(state, [0.0, 1.0], atol=1e-15)


def test_cnot_flips_target_when_control_set():
    initial = np.zeros(4)
    initial[2] = 1.0  # |10>, qubit 0 is the most significant bit
    state = apply_circuit(Circuit(2, (("cx", 0, 1),)), initial)
    assert np.allclose(state, [0.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_cnot_idle_when_control_clear():
    initial = np.zeros(4)
    initial[1] = 1.0  # |01>
    state = apply_circuit(Circuit(2, (("cx", 0, 1),)), initial)
    assert np.allclose(state, initial, atol=1e-15)


def test_cnot_reversed_orientation():
    initial = np.zeros(4)
    initial[1] = 1.0  # |01>: qubit 1 set, so cx 1->0 flips qubit 0
    state = apply_circuit(Circuit(2, (("cx", 1, 0),)), initial)
    expected = np.zeros(4)
    expected[3] = 1.0
    assert np.allclose(state, expected, atol=1e-15)


def test_controlled_rotation_compile_idles_on_clear_control():
    theta = 1.3
    prep = Circuit(2, (("ry", 1, 0.7),))
    start = apply_circuit(prep, zero_state(2))
    gates = (("cx", 0, 1), ("ry", 1, -theta / 2.0), ("cx", 0, 1), ("ry", 1, theta / 2.0))
    state = apply_circuit(Circuit(2, gates), start)
    assert np.allclose(state, start, atol=1e-12)


def test_circuit_preserves_norm_and_reality():
    rng = np.random.default_rng(21)
    for _ in range(10):
        gates = []
        for _ in range(8):
            if rng.random() < 0.6:
                gates.append(("ry", int(rng.integers(2)), float(rng.uniform(-3, 3))))
            else:
                c = int(rng.integers(2))
                gates.append(("cx", c, 1 - c))
        state = apply_circuit(Circuit(2, tuple(gates)), zero_state(2))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
        assert np.max(np.abs(state.imag)) < 1e-14


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, (("rz", 0, 1.0),))
    with pytest.raises(ValueError):
        Circuit(2, (("ry", 2, 1.0),))
    with pytest.raises(ValueError):
        Circuit(2, (("cx", 1, 1),))


@pytest.mark.parametrize("qubit_count,gates,match", [
    (2, (("ry", 0.5, 1.0),), r"gate \('ry', 0.5, 1.0\) needs distinct integer qubits"),
    (2, (("cx", 0.0, 1),), r"gate \('cx', 0.0, 1\) needs distinct integer qubits"),
    (2, (("ry", True, 1.0),), r"gate \('ry', True, 1.0\) needs distinct integer qubits"),
    (2, (("cx", 0, 1), ("cx", 1, np.int64(1))), r"gate \('cx', 1, np.int64\(1\)\) needs distinct"),
    (2.0, (("ry", 0, 1.0),), "qubit_count must be an integer >= 1, got 2.0"),
    (True, (("ry", 0, 1.0),), "qubit_count must be an integer >= 1, got True"),
    (0, (), "qubit_count must be an integer >= 1, got 0"),
], ids=["float-ry-qubit", "float-cx-control", "bool-qubit", "repeated-numpy-qubit",
        "float-count", "bool-count", "zero-count"])
def test_circuit_rejects_malformed_qubit_labels(qubit_count, gates, match):
    with pytest.raises(ValueError, match=match):
        Circuit(qubit_count, gates)


@pytest.mark.parametrize("qubit_count,gates,match", [
    (2, (("cx", 0),), r"^gate \('cx', 0\) is not a triple \(kind, qubit, angle or qubit\)$"),
    (1, (("ry", 0, 1.0, 2.0),), r"^gate \('ry', 0, 1\.0, 2\.0\) is not a triple"),
    (1, ("ry0",), r"^gate 'ry0' is not a triple"),
    (1, (("ry", 0, 1j),), r"^angles must be real numbers, got \[1j\]$"),
    (1, (("ry", 0, "0.5"),), r"^angle array entries must be numbers, got dtype <U3$"),
    (1, (("ry", 0, math.inf),), r"^angle array has NaN or inf entries$"),
    (1, (("ry", 0, np.array([0.1, math.nan])),), r"^angle array has NaN or inf entries$"),
], ids=["short", "long", "string-gate", "complex-angle", "string-angle", "inf-angle", "nan-in-batch"])
def test_circuit_rejects_malformed_gates_and_angles(qubit_count, gates, match):
    # a short gate used to end in an unpacking error, and a complex angle in a TypeError
    with pytest.raises(ValueError, match=match):
        Circuit(qubit_count, gates)


def test_circuit_accepts_numpy_integer_labels():
    gates = (("ry", 0, 0.4), ("cx", 0, 1), ("ry", 1, -1.1))
    numpy_gates = (("ry", np.int64(0), 0.4), ("cx", np.int32(0), np.int64(1)), ("ry", np.uint8(1), -1.1))
    assert np.array_equal(apply_circuit(Circuit(np.int64(2), numpy_gates), zero_state(2)),
                          apply_circuit(Circuit(2, gates), zero_state(2)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n_qubits=st.integers(1, 6),
       batch=st.sampled_from([None, 1, 3]),
       gate_count=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_apply_circuit_matches_the_product_of_gate_matrices(n_qubits, batch, gate_count, seed):
    # random RotY/CNOT layouts on up to 6 qubits (so gates also act on inner
    # qubits) from a random complex state, against the gates' kron/permutation
    # matrices built above
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(gate_count):
        if n_qubits == 1 or rng.random() < 0.6:
            theta = rng.uniform(-7.0, 7.0, size=batch) if batch else float(rng.uniform(-7.0, 7.0))
            gates.append(("ry", int(rng.integers(n_qubits)), theta))
        else:
            c, t = rng.choice(n_qubits, size=2, replace=False)
            gates.append(("cx", int(c), int(t)))
    circuit = Circuit(n_qubits, tuple(gates))
    initial = random_state(n_qubits, rng)
    expected = np.tile(initial, (circuit.batch_size or 1, 1))
    for U in gate_matrices(circuit):
        expected = np.einsum("kij,kj->ki", U, expected)
    got = apply_circuit(circuit, initial)
    dim = 2**n_qubits
    assert got.shape == ((circuit.batch_size, dim) if circuit.batch_size else (dim,))
    assert got.dtype == complex
    assert np.max(np.abs(got - expected.reshape(got.shape))) < 1e-12
    # every batch row is its own single-circuit run, bit for bit
    for row in range(circuit.batch_size or 0):
        single = tuple(g[:2] + (g[2][row],) if g[0] == "ry" else g for g in gates)
        assert np.array_equal(apply_circuit(Circuit(n_qubits, single), initial), got[row])


def test_apply_circuit_builds_no_register_sized_matrix():
    # a RotY layer and a CNOT chain on 10 qubits: one 2^10 x 2^10 complex matrix is 16.8 MB,
    # the state 16 kB
    n = 10
    layer = tuple(("ry", q, 0.1 * (q + 1)) for q in range(n))
    circuit = Circuit(n, layer + tuple(("cx", q, q + 1) for q in range(n - 1)))
    tracemalloc.start()
    try:
        state = apply_circuit(circuit, zero_state(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12


@pytest.mark.parametrize("initial", [np.array([np.nan, 0.0]), np.array([1.0, np.inf]), np.zeros(2)],
                         ids=["nan", "inf", "zero"])
def test_apply_circuit_rejects_bad_initial_states(initial):
    with pytest.raises(ValueError, match="initial state must be finite and not the zero vector"):
        apply_circuit(Circuit(1, (("ry", 0, 0.3),)), initial)


@pytest.mark.parametrize("state,dtype", [(["a", "b", "c", "d"], "<U1"),
                                         (np.array([1, None, 0, 0], dtype=object), "object")],
                         ids=["strings", "objects"])
@pytest.mark.parametrize("call,name", [
    (lambda state: apply_circuit(ansatz_product(0.1, 0.2), state), "state"),
    (lambda state: expectation_exact(state, PauliSum(((1.0, "ZI"),), 2)), "state"),
    (lambda state: measure_pauli(state, ("ZZ",), 16, NoiseModel.uniform(2)), "state"),
    (lambda state: measure_pauli_density(np.reshape(np.tile(state, 4), (4, 4)), ("ZZ",), 16,
                                         NoiseModel.uniform(2)), "density matrix"),
], ids=["apply_circuit", "expectation_exact", "measure_pauli", "measure_pauli_density"])
def test_state_boundaries_reject_entries_that_are_not_numbers(call, name, state, dtype):
    # these used to end in numpy's own TypeError from np.abs, np.isfinite or matmul
    with pytest.raises(ValueError, match=f"^{name} entries must be numbers, got dtype {dtype}$"):
        call(state)


def test_apply_circuit_accepts_unnormalized_initial_states():
    state = apply_circuit(Circuit(1, (("ry", 0, math.pi),)), np.array([2.0, 0.0]))
    assert np.allclose(state, [0.0, 2.0], atol=1e-15)


# ---------------------------------------------------------------- ansatz circuits

def test_ansatz_product_zero_angles_is_vacuum():
    state = apply_circuit(ansatz_product(0.0, 0.0), zero_state(2))
    assert np.allclose(state, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_ansatz_product_pi_excites_first_qubit():
    state = apply_circuit(ansatz_product(math.pi, 0.0), zero_state(2))
    assert np.allclose(state, [0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_ansatz_entangled_reduces_to_product():
    rng = np.random.default_rng(22)
    for _ in range(20):
        t0, t1 = rng.uniform(-math.pi, math.pi, size=2)
        a = apply_circuit(ansatz_product(t0, t1), zero_state(2))
        b = apply_circuit(ansatz_entangled(t0, t1, 0.0), zero_state(2))
        assert np.max(np.abs(a - b)) < 1e-12


def test_ansatz_entangled_cnot_budget():
    gates = ansatz_entangled(0.1, 0.2, 0.3).gates
    assert sum(1 for g in gates if g[0] == "cx") == 2


def test_ansatz_entangled_bell_point():
    state = apply_circuit(ansatz_entangled(math.pi / 2.0, 0.0, math.pi), zero_state(2))
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(state, [r, 0.0, 0.0, r], atol=1e-12)


def test_ansatz_entangled_full_excitation():
    state = apply_circuit(ansatz_entangled(math.pi, 0.0, math.pi), zero_state(2))
    assert np.allclose(np.abs(state), [0.0, 0.0, 0.0, 1.0], atol=1e-12)


# ---------------------------------------------------------------- exact expectations

def test_expectation_vacuum():
    H = PauliSum(terms=((1.0, "ZI"),), qubit_count=2)
    assert expectation_exact(zero_state(2), H) == pytest.approx(1.0, abs=1e-15)


def test_expectation_doubly_excited():
    state = np.zeros(4)
    state[3] = 1.0
    H = PauliSum(terms=((0.5, "ZI"), (0.5, "IZ")), qubit_count=2)
    assert expectation_exact(state, H) == pytest.approx(-1.0, abs=1e-15)


def test_expectation_bell_correlations():
    bell = apply_circuit(ansatz_entangled(math.pi / 2.0, 0.0, math.pi), zero_state(2))
    assert expectation_exact(bell, PauliSum(((1.0, "ZZ"),), 2)) == pytest.approx(1.0, abs=1e-12)
    assert expectation_exact(bell, PauliSum(((1.0, "XX"),), 2)) == pytest.approx(1.0, abs=1e-12)


def test_expectation_matches_dense_contraction():
    rng = np.random.default_rng(23)
    state = random_state(2, rng)
    M = rng.normal(size=(4, 4))
    M = (M + M.T) / 2.0
    H = encode_matrix(M)
    dense = float(np.real(state.conj() @ M @ state))
    assert expectation_exact(state, H) == pytest.approx(dense, abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n_qubits=st.integers(1, 3), k=st.integers(1, 12), seed=st.integers(0, 2**16))
def test_batched_expectation_equals_one_vdot_per_row_bit_for_bit(n_qubits, k, seed):
    rng = np.random.default_rng(seed)
    states = np.array([random_state(n_qubits, rng) for _ in range(k)])
    M = rng.normal(size=(2**n_qubits,) * 2)
    H = encode_matrix((M + M.T) / 2.0)
    images = (H.to_matrix() @ states[..., None])[..., 0]
    oracle = [float(np.vdot(state, image).real) for state, image in zip(states, images)]
    assert [e.hex() for e in expectation_exact(states, H).tolist()] == [e.hex() for e in oracle]
    assert expectation_exact(states[0], H).hex() == oracle[0].hex()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_expectation_exact_rejects_non_finite_states(bad, stacked):
    state = zero_state(2)
    state[3] = bad
    if stacked:
        state = np.stack([zero_state(2), state])
    with pytest.raises(ValueError, match="state has NaN or inf entries"):
        expectation_exact(state, PauliSum(((1.0, "ZI"),), 2))


# ---------------------------------------------------------------- sampling

def test_measure_pauli_vacuum_is_deterministic():
    tallies = measure_pauli(zero_state(1), ("Z",), 100, NoiseModel.uniform(1))
    assert tallies.tolist() == [[100, 0]]
    assert counts_expectation(tallies, ("Z",)).tolist() == [1.0]


def test_measure_pauli_plus_state_in_x_basis():
    plus = apply_circuit(Circuit(1, (("ry", 0, math.pi / 2.0),)), zero_state(1))
    assert measure_pauli(plus, ("X",), 500, NoiseModel.uniform(1)).tolist() == [[500, 0]]


def test_measure_pauli_identity_positions_are_marginalized():
    # qubit 1 in |+> is read in the Z basis and splits its shots, but the
    # word ZI weighs only qubit 0, so the raw value is exactly <ZI> = 1
    state = apply_circuit(Circuit(2, (("ry", 1, math.pi / 2.0),)), zero_state(2))
    tallies = measure_pauli(state, ("ZI",), 64, NoiseModel.uniform(2, seed=1))
    assert tallies[0, 2:].sum() == 0 and tallies[0, 1] > 0
    assert counts_expectation(tallies, ("ZI",)).tolist() == [1.0]


def test_measure_pauli_all_identity():
    tallies = measure_pauli(zero_state(2), ("II",), 32, NoiseModel.uniform(2))
    assert tallies.tolist() == [[32, 0, 0, 0]]
    assert counts_expectation(tallies, ("II",)).tolist() == [1.0]


def test_measure_pauli_batch_rows_follow_word_order():
    state = apply_circuit(Circuit(2, (("ry", 1, math.pi),)), zero_state(2))  # |01>
    words = ("ZI", "IZ", "ZZ", "II")
    tallies = measure_pauli(state, words, 50, NoiseModel.uniform(2))
    assert counts_expectation(tallies, words).tolist() == [1.0, -1.0, -1.0, 1.0]


def test_measure_pauli_readout_flip_bias():
    # p(1|0) = 0.1 drags <Z> of the vacuum from 1.0 to about 0.8
    noise = NoiseModel(ReadoutCalibration(((0.0, 0.1),)), seed=7)
    tallies = measure_pauli(zero_state(1), ("Z",), 100_000, noise)
    est = counts_expectation(tallies, ("Z",))[0]
    se = math.sqrt((1.0 - 0.8 ** 2) / 100_000)
    assert abs(est - 0.8) < 4.0 * se


def test_measure_pauli_statistics_match_exact():
    rng = np.random.default_rng(24)
    state = apply_circuit(ansatz_entangled(0.9, -0.4, 1.7), zero_state(2))
    for word in ("XY", "ZX", "YY"):
        exact = expectation_exact(state, PauliSum(((1.0, word),), 2))
        tallies = measure_pauli(state, (word,), 1_000_000, NoiseModel.uniform(2, seed=int(rng.integers(1 << 30))))
        se = math.sqrt(max(1.0 - exact ** 2, 1e-12) / 1_000_000)
        assert abs(counts_expectation(tallies, (word,))[0] - exact) < 4.0 * se


@pytest.mark.parametrize("measure", ["pure", "density"])
@pytest.mark.parametrize("word", ["ZZ", "ZI", "IZ", "XZ"])
def test_measure_pauli_per_qubit_confusion(word, measure):
    # distinct asymmetric rates per qubit: the tallies' marginal on the word's
    # support follows C @ p, with C built from the rates of the support qubits
    p10, p01 = (0.02, 0.09), (0.13, 0.05)
    shots = 200_000
    state = apply_circuit(ansatz_entangled(0.9, -0.4, 1.7), zero_state(2))
    rotation = {"X": np.array([[1, 1], [1, -1]]) / math.sqrt(2.0), "Z": np.eye(2), "I": np.eye(2)}
    rotated = np.kron(rotation[word[0]], rotation[word[1]]) @ state
    full = (np.abs(rotated) ** 2).reshape(2, 2)
    support = tuple(q for q, label in enumerate(word) if label != "I")

    def marginal(table, bits):
        index = [slice(None), slice(None)]
        for q, b in zip(support, bits):
            index[q] = int(b)
        return float(np.sum(table[tuple(index)]))

    born = {"".join(bits): marginal(full, bits)
            for bits in itertools.product("01", repeat=len(support))}
    expected = {}
    for read in born:
        total = 0.0
        for true, p in born.items():
            for q, x, y in zip(support, read, true):
                if y == "0":
                    p *= p10[q] if x == "1" else 1.0 - p10[q]
                else:
                    p *= p01[q] if x == "0" else 1.0 - p01[q]
            total += p
        expected[read] = total
    noise = NoiseModel(ReadoutCalibration(tuple(zip(p01, p10))), seed=29)
    if measure == "pure":
        tallies = measure_pauli(state, (word,), shots, noise)
    else:
        tallies = measure_pauli_density(np.outer(state, state.conj()), (word,), shots, noise)
    tallies = tallies[0].reshape(2, 2)
    for read, q in expected.items():
        sigma = math.sqrt(q * (1.0 - q) / shots)
        assert abs(marginal(tallies, read) / shots - q) < 4.0 * sigma


def test_measure_pauli_rejects_word_length_mismatch():
    with pytest.raises(ValueError):
        measure_pauli(zero_state(2), ("Z",), 10, NoiseModel.uniform(2))


@pytest.mark.parametrize("words,noise,match", [
    (("ZQ",), NoiseModel.uniform(2), "not a Pauli word"),
    (("ZZ",), NoiseModel.uniform(1), "noise model covers 1 qubits"),
], ids=["label", "noise-width"])
def test_measure_pauli_rejects_bad_requests(words, noise, match):
    with pytest.raises(ValueError, match=match):
        measure_pauli(zero_state(2), words, 10, noise)


@pytest.mark.parametrize("shots", [2.5, True, 2**70], ids=["float", "bool", "2**70"])
@pytest.mark.parametrize("measure", [
    lambda shots: measure_pauli(zero_state(2), ("ZZ",), shots, NoiseModel.uniform(2)),
    lambda shots: measure_pauli_density(np.eye(4) / 4.0, ("ZZ",), shots, NoiseModel.uniform(2)),
    lambda shots: ReadoutCalibration.from_noise_model(NoiseModel.uniform(2, readout=0.03), shots),
], ids=["measure_pauli", "measure_pauli_density", "calibrate_readout"])
def test_measurements_reject_shot_counts_that_are_not_integers_in_range(measure, shots):
    # 2.5 used to fail late on the tallies' total, True to draw one shot, 2**70 to overflow
    with pytest.raises(ValueError, match=r"^shots must be an integer in \[1, 2\*\*63 - 1\]"):
        measure(shots)


def test_measurements_take_numpy_integer_shot_counts():
    tallies = measure_pauli(zero_state(2), ("ZZ",), np.int64(16), NoiseModel.uniform(2))
    assert tallies.tolist() == [[16, 0, 0, 0]]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 3), batch=st.sampled_from([None, 1, 3]),
       measure=st.sampled_from(["pure", "density"]),
       shots=st.sampled_from([1, 7, 4096, 2**40]), seed=st.integers(0, 2**32 - 1))
def test_measurement_tallies_are_integer_rows_of_the_shot_count(data, n, batch, measure, shots, seed):
    # the tally array of a batch of W words: integer, (..., W, 2^n), every row summing to shots
    words = tuple(data.draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), max_size=5)))
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    states = rng.normal(size=lead + (2, 2**n)) + 1j * rng.normal(size=lead + (2, 2**n))
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    p10, p01 = rng.uniform(0.0, 0.3, n), rng.uniform(0.0, 0.3, n)
    noise = NoiseModel(ReadoutCalibration(tuple(zip(p01, p10))), seed=seed)
    if measure == "pure":
        tallies = measure_pauli(states[..., 0, :], words, shots, noise)
    else:  # an equal mixture of two states
        rho = (states[..., :, None] * states[..., None, :].conj()).mean(axis=-3)
        tallies = measure_pauli_density(rho, words, shots, noise)
    assert np.issubdtype(tallies.dtype, np.integer)
    assert tallies.shape == lead + (len(words), 2**n)
    assert (tallies >= 0).all() and (tallies.sum(axis=-1) == shots).all()


@pytest.mark.parametrize("tallies,words,match", [
    ([[3, 1], [0, 0]], ("Z", "Z"), "empty counts"),
    ([[3, 1]], ("ZZ",), "do not match"),
    ([[3, 1]], ("Z", "X"), "do not match"),
    ([[3, -1]], ("Z",), "finite and >= 0"),
    ([["3", "1"]], ("Z",), r"^outcome weights entries must be numbers, got dtype <U1$"),
    ([[3 + 0j, 1]], ("Z",), r"^outcome weights must be real, finite and >= 0$"),
], ids=["all-zero-row", "word-length", "rows", "negative", "string", "complex"])
def test_counts_expectation_rejects_tallies_that_do_not_fit(tallies, words, match):
    # an all-zero row used to give NaN with a RuntimeWarning, string tallies were parsed
    # and a complex array lost its imaginary part
    with pytest.raises(ValueError, match=match):
        counts_expectation(np.array(tallies), words)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(ReadoutCalibration(((0.0, 0.0),)), p_dep=1.0)
    uniform = NoiseModel.uniform(2, readout=0.03, p_dep=0.02)
    assert uniform.readout.rates == ((0.03, 0.03), (0.03, 0.03))


@pytest.mark.parametrize("rates,match", [
    ([(0.1,)], r"^qubit 0 rates \(0\.1,\) are not a pair of numbers in \[0, 1\]$"),
    ([(0.1, 0.2), (0.1, 0.2, 0.3)], r"^qubit 1 rates .* are not a pair"),
    ([0.1], r"^qubit 0 rates 0\.1 are not a pair"),
    (["ab"], r"^qubit 0 rates 'ab' are not a pair"),
    ([("0.1", 0.2)], r"^qubit 0 rates \('0\.1', 0\.2\) are not a pair of numbers"),
    ([(0.1, None)], r"^qubit 0 rates \(0\.1, None\) are not a pair of numbers"),
    ([(math.nan, 0.1)], r"^qubit 0 rates \(nan, 0\.1\) are not a pair of numbers"),
    ([(0.0, 0.0), (-0.1, 0.1)], r"^qubit 1 rates \(-0\.1, 0\.1\) are not a pair of numbers in \[0, 1\]$"),
    ([(0.1, 1.5)], r"^qubit 0 rates \(0\.1, 1\.5\) are not a pair of numbers in \[0, 1\]$"),
    ([(False, 0.1)], r"^qubit 0 rates \(False, 0\.1\) are not a pair of numbers in \[0, 1\]$"),
    ([(0.6, 0.5)], r"^qubit 0 has p\(0\|1\) \+ p\(1\|0\) = 1\.1 >= 1, channel not invertible$"),
    ([(0.5, 0.6)], r"^qubit 0 has p\(0\|1\) \+ p\(1\|0\) = 1\.1 >= 1"),
    ([(0.0, 0.0), (0.5, 0.5)], r"^qubit 1 has p\(0\|1\) \+ p\(1\|0\) = 1\.0 >= 1"),
    (0.03, r"^rates must be a non-empty sequence of per-qubit pairs, got 0\.03$"),
    (np.float64(0.03), r"^rates must be a non-empty sequence of per-qubit pairs, got np\.float64"),
    ((), r"^rates must be a non-empty sequence of per-qubit pairs, got \(\)$"),
    ("ab", r"^rates must be a non-empty sequence of per-qubit pairs, got 'ab'$"),
], ids=["short", "long", "number", "string", "string-rate", "none", "nan", "negative", "above-one",
        "bool-rate", "sum-1.1", "sum-1.1-swapped", "sum-1", "bare-number", "numpy-number", "empty", "bare-string"])
def test_readout_calibration_rejects_rates_that_are_not_an_invertible_channel(rates, match):
    with pytest.raises(ValueError, match=match):
        ReadoutCalibration(rates)


@pytest.mark.parametrize("n_qubits,readout,p_dep,match", [
    (2, 0.0, "0.1", r"^p_dep must be a number in \[0, 1\), got '0\.1'$"),
    (2, 0.0, None, r"^p_dep must be a number in \[0, 1\), got None$"),
    (2, 0.0, math.nan, r"^p_dep must be a number in \[0, 1\), got nan$"),
    (2, 0.0, -0.1, r"^p_dep must be a number in \[0, 1\)"),
    (2, 0.0, False, r"^p_dep must be a number in \[0, 1\), got False$"),
    (2, "0.03", 0.0, r"^qubit 0 rates \('0\.03', '0\.03'\) are not a pair of numbers"),
    (2.5, 0.0, 0.0, r"^n_qubits must be an integer >= 1, got 2\.5$"),
    (0, 0.0, 0.0, r"^n_qubits must be an integer >= 1, got 0$"),
    (-1, 0.0, 0.0, r"^n_qubits must be an integer >= 1, got -1$"),
    (True, 0.0, 0.0, r"^n_qubits must be an integer >= 1, got True$"),
], ids=["str", "none", "nan", "negative", "bool", "readout-str", "qubits-2.5", "qubits-0", "qubits--1",
        "qubits-bool"])
def test_noise_model_uniform_rejects_values_that_are_not_rates(n_qubits, readout, p_dep, match):
    # p_dep="0.1" and p_dep=None used to end in a TypeError from the range comparison;
    # n_qubits=2.5 in one from tuple repetition, and n_qubits <= 0 built a zero-qubit channel
    with pytest.raises(ValueError, match=match):
        NoiseModel.uniform(n_qubits, readout=readout, p_dep=p_dep)


@pytest.mark.parametrize("seed", ["x", 1.5, -1, True, None, [1, -1], [1, 2.0], [[3, "a"], 0],
                                  np.array(3)],
                         ids=["str", "float", "negative", "bool", "none", "negative-entry",
                              "float-entry", "nested-str", "0-d-array"])
def test_noise_model_rejects_seeds_that_are_not_non_negative_integers(seed):
    # "x" and 1.5 used to end in numpy's "SeedSequence expects int or sequence of ints"
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0 or a sequence of such "
                                         r"seeds, got "):
        NoiseModel.uniform(2, seed=seed)


@pytest.mark.parametrize("seed", [0, np.int64(7), 2**70, [3, 0], (3, 1, 2), np.array([3, 0]), [],
                                  [[3, 0], 1], [[3, [0, 2]], 1], np.array([[3, 0]])],
                         ids=["zero", "numpy", "2**70", "list", "tuple", "array", "empty",
                              "point-sector", "deep", "2-d-array"])
def test_noise_model_takes_integer_seeds_and_sequences_of_them(seed):
    # the CLI seeds a point's sectors with [[master, point], sector]
    draws = NoiseModel.uniform(2, seed=seed).rng.integers(0, 2**32, size=4)
    assert np.array_equal(draws, np.random.default_rng(seed).integers(0, 2**32, size=4))


def test_noise_model_readout_must_be_a_readout_calibration():
    with pytest.raises(ValueError, match=r"^readout must be a ReadoutCalibration, got \(\(0\.01, 0\.02\),\)$"):
        NoiseModel(((0.01, 0.02),))


def test_noise_model_draws_are_reproducible():
    state = apply_circuit(ansatz_entangled(0.5, 0.2, 0.9), zero_state(2))
    a = measure_pauli(state, ("ZZ",), 4096, NoiseModel.uniform(2, readout=0.05, seed=3))
    b = measure_pauli(state, ("ZZ",), 4096, NoiseModel.uniform(2, readout=0.05, seed=3))
    assert np.array_equal(a, b)


def test_sampler_makes_one_multinomial_draw_per_measurement_call(record_draws):
    noise = NoiseModel(ReadoutCalibration(((0.13, 0.02), (0.05, 0.09))), seed=3)
    calls = record_draws(noise)
    state = apply_circuit(ansatz_entangled(0.5, 0.2, 0.9), zero_state(2))
    rho = np.outer(state, state.conj())
    for words in ((), ("ZZ",), ("IZ", "II"), ("XY", "ZZ", "IX", "YI", "II")):
        measure_pauli(state, words, 1000, noise)
        measure_pauli_density(rho, words, 1000, noise)
        # a stack of states is still one draw
        measure_pauli(np.stack([state] * 3), words, 1000, noise)
        measure_pauli_density(np.stack([rho] * 3), words, 1000, noise)
    assert calls == ["multinomial"] * 16


@pytest.mark.parametrize("measure", ["pure", "density"])
def test_stacked_draw_equals_draws_in_batch_order(measure):
    # one draw over k x W rows consumes the stream exactly as k draws would
    angles = np.array([[0.5, 0.2, 0.9], [-1.3, 2.0, 0.1], [3.0, -0.7, -2.2]])
    batch = ansatz_entangled(*angles.T)
    if measure == "pure":
        states, run = apply_circuit(batch, zero_state(2)), measure_pauli
    else:
        states, run = simulate_density(batch, NoiseModel.uniform(2)), measure_pauli_density
    words = ("XY", "ZZ", "IX")
    stacked, single = (NoiseModel(ReadoutCalibration(((0.13, 0.02), (0.05, 0.09))), seed=8)
                       for _ in range(2))
    tallies = run(states, words, 500, stacked)
    assert tallies.shape == (3, 3, 4)
    for state, rows in zip(states, tallies):
        assert np.array_equal(run(state, words, 500, single), rows)
    assert stacked.rng.bit_generator.state == single.rng.bit_generator.state


def test_batched_circuit_matches_its_members():
    angles = np.array([[0.5, 0.2, 0.9], [-1.3, 2.0, 0.1]])
    batch = ansatz_entangled(*angles.T)
    assert batch.batch_size == 2 and ansatz_entangled(*angles[0]).batch_size is None
    noise = NoiseModel.uniform(2, p_dep=0.05)
    states, rhos = apply_circuit(batch, zero_state(2)), simulate_density(batch, noise)
    for row, state, rho in zip(angles, states, rhos):
        assert np.array_equal(apply_circuit(ansatz_entangled(*row), zero_state(2)), state)
        assert np.array_equal(simulate_density(ansatz_entangled(*row), noise), rho)


@pytest.mark.parametrize("angles", [
    (np.array([0.1, 0.2]), np.array([0.3])),
    (np.array([0.1, 0.2]), 0.3),
    (np.zeros((2, 2)), np.zeros((2, 2))),
], ids=["lengths", "mixed", "2-d"])
def test_circuit_rejects_inconsistent_batch_angles(angles):
    with pytest.raises(ValueError, match="one length"):
        ansatz_product(*angles)


@pytest.mark.parametrize("batch", [None, 1, 4])
def test_circuit_angles_are_the_gate_angles_read_only(batch):
    rng = np.random.default_rng(5)
    theta = rng.uniform(-3.0, 3.0, size=3 if batch is None else (3, batch))
    circuit = ansatz_entangled(*theta)
    gate_angles = np.array([gate[2] for gate in circuit.gates if gate[0] == "ry"], dtype=float)
    assert circuit.angles.dtype == float and circuit.angles.tobytes() == gate_angles.tobytes()
    assert not circuit.angles.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        circuit.angles[0] = 0.0
    assert Circuit(1, ()).angles.shape == (0,)


def test_circuit_rejects_an_empty_batch():
    with pytest.raises(ValueError, match="length >= 1, got 0"):
        ansatz_entangled(np.empty(0), np.empty(0), np.empty(0))


@pytest.mark.parametrize("length", [3, 5])
def test_measure_pauli_rejects_non_power_of_two_state(length):
    state = np.zeros(length, dtype=complex)
    state[0] = 1.0
    with pytest.raises(ValueError, match=f"state dimension {length} is not a power of two"):
        measure_pauli(state, ("ZZ",), 10, NoiseModel.uniform(2))


def test_measure_pauli_density_rejects_non_square_matrix():
    with pytest.raises(ValueError, match=r"shape \(4, 3\) is not square"):
        measure_pauli_density(np.eye(4, 3), ("ZZ",), 10, NoiseModel.uniform(2))


@pytest.mark.parametrize("readout", [0.0, 0.05], ids=["noiseless", "readout"])
@pytest.mark.parametrize("measure,state", [
    (measure_pauli_density, np.zeros((4, 4))),
    (measure_pauli_density, -np.eye(4) / 4.0),
    (measure_pauli_density, np.full((4, 4), 1e308)),
    (measure_pauli_density, np.full((4, 4), np.nan)),
    (measure_pauli, np.zeros(4, dtype=complex)),
    (measure_pauli, np.full(4, np.nan, dtype=complex)),
], ids=["zero-matrix", "trace-minus-one", "huge-matrix", "nan-matrix", "zero-vector", "nan-vector"])
def test_sampler_rejects_states_without_a_born_distribution(measure, state, readout):
    # raised before any RuntimeWarning (an error under this suite's filter) and before the draw
    noise = NoiseModel.uniform(2, readout=readout, seed=4)
    before = noise.rng.bit_generator.state
    with pytest.raises(ValueError, match="Born rows of the state are non-finite or lack a positive total"):
        measure(state, ("ZZ", "XY"), 100, noise)
    assert noise.rng.bit_generator.state == before


@pytest.mark.parametrize("measure", ["pure", "density"])
def test_sampler_names_the_bad_batch_row(measure):
    state = apply_circuit(ansatz_entangled(0.5, 0.2, 0.9), zero_state(2))
    states = np.stack([state, state, np.zeros(4)])
    if measure == "pure":
        run = measure_pauli
    else:
        states, run = states[:, :, None] * states[:, None, :].conj(), measure_pauli_density
    with pytest.raises(ValueError, match="Born rows of batch row 2 are non-finite"):
        run(states, ("ZZ",), 100, NoiseModel.uniform(2))


# ---------------------------------------------------------------- density matrices

def test_simulate_density_pure_when_noiseless():
    circuit = ansatz_entangled(0.8, 0.3, 1.1)
    rho = simulate_density(circuit, NoiseModel.uniform(2))
    state = apply_circuit(circuit, zero_state(2))
    assert np.max(np.abs(rho - np.outer(state, state.conj()))) < 1e-12


def test_simulate_density_product_circuit_stays_pure():
    # depolarizing attaches to entangling gates only
    rho = simulate_density(ansatz_product(0.8, 0.3), NoiseModel.uniform(2, p_dep=0.1))
    assert np.real(np.trace(rho @ rho)) == pytest.approx(1.0, abs=1e-12)


def test_simulate_density_entangling_noise_mixes():
    rho = simulate_density(ansatz_entangled(0.8, 0.3, 1.1), NoiseModel.uniform(2, p_dep=0.05))
    purity = float(np.real(np.trace(rho @ rho)))
    assert purity < 1.0 - 1e-4


def test_simulate_density_is_physical():
    rho = simulate_density(ansatz_entangled(1.2, -0.7, 2.0), NoiseModel.uniform(2, p_dep=0.3))
    assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12


def test_simulate_density_matches_pauli_twirl_reference():
    # independent reference: gates from Pauli word matrices, and after each
    # CNOT the two-qubit depolarizer in its Pauli form (1-p) rho + (p/16) sum_P P rho P
    p = 0.3
    theta0, theta1, theta2 = 1.2, -0.7, 2.0
    identity = pauli_word_matrix("II")

    def ry(theta, q):
        word = "".join("Y" if i == q else "I" for i in range(2))
        return math.cos(theta / 2.0) * identity - 1j * math.sin(theta / 2.0) * pauli_word_matrix(word)

    cnot = (identity + pauli_word_matrix("ZI") + pauli_word_matrix("IX")
            - pauli_word_matrix("ZX")) / 2.0
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=2)]

    def depolarize(rho):
        twirl = sum(pauli_word_matrix(w) @ rho @ pauli_word_matrix(w) for w in words)
        return (1.0 - p) * rho + (p / 16.0) * twirl

    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    for U, noisy in ((ry(theta0, 0), False), (ry(theta1, 1), False), (cnot, True),
                     (ry(-theta2 / 2.0, 1), False), (cnot, True), (ry(theta2 / 2.0, 1), False)):
        rho = U @ rho @ U.conj().T
        if noisy:
            rho = depolarize(rho)
    got = simulate_density(ansatz_entangled(theta0, theta1, theta2), NoiseModel.uniform(2, p_dep=p))
    assert np.max(np.abs(got - rho)) < 1e-12


def gate_by_gate_density(circuit, noise):
    """The density evolution before the closed form: each gate as U rho U^T, and
    rho -> (1-p) rho + p Tr(rho) I/4 after every CNOT. Returns (k, 4, 4)."""
    p = noise.p_dep
    rho = np.zeros((circuit.batch_size or 1, 4, 4), dtype=complex)
    rho[:, 0, 0] = 1.0
    for gate, U in zip(circuit.gates, gate_matrices(circuit)):
        rho = U @ rho @ U.transpose(0, 2, 1)
        if gate[0] == "cx":
            trace = rho.trace(axis1=1, axis2=2)[:, None, None]
            rho = (1.0 - p) * rho + (p * trace / 4.0) * np.eye(4)
    return rho


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ansatz=st.sampled_from([ansatz_product, ansatz_entangled]),
       batch=st.sampled_from([None, 1, 2, 5, 10]),
       p_dep=st.floats(0.0, 0.99),
       seed=st.integers(0, 2**32 - 1))
def test_closed_form_density_matches_the_gate_by_gate_evolution(ansatz, batch, p_dep, seed):
    n_angles = 2 if ansatz is ansatz_product else 3
    angles = np.random.default_rng(seed).uniform(-7.0, 7.0, size=(n_angles, batch or 1))
    circuit = ansatz(*(angles if batch else angles[:, 0]))
    noise = NoiseModel.uniform(2, p_dep=p_dep)
    got = simulate_density(circuit, noise)
    assert got.shape == ((batch, 4, 4) if batch else (4, 4))
    assert np.max(np.abs(got - gate_by_gate_density(circuit, noise))) < 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n_qubits=st.sampled_from([1, 2, 3]),
       batch=st.sampled_from([(), (1,), (3,)]),
       word_count=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_born_table_rows_match_the_rotated_diagonals(n_qubits, batch, word_count, seed):
    # random Hermitian inputs of unit Frobenius norm at d = 2, 4, 8 against the
    # per-word product diag(U rho U^dagger) = ((U @ rho) * conj(U)).sum(-1)
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    words = tuple("".join(rng.choice(list("IXYZ"), size=n_qubits)) for _ in range(word_count))
    a = rng.normal(size=batch + (dim, dim)) + 1j * rng.normal(size=batch + (dim, dim))
    rho = a + np.swapaxes(a.conj(), -1, -2)
    rho /= np.linalg.norm(rho, axis=(-2, -1), keepdims=True)
    U = _basis_changes(words, dim)
    expected = ((U @ rho[..., None, :, :]) * U.conj()).sum(axis=-1).real
    got = _born_rows(rho, words)
    assert got.shape == batch + (word_count, dim)
    assert np.max(np.abs(got - expected)) < 1e-15
    # a stack's rows are its members' rows bit for bit
    for member, rows in zip(rho.reshape((-1, dim, dim)), got.reshape((-1, word_count, dim))):
        assert np.array_equal(_born_rows(member, words), rows)


@pytest.mark.parametrize("n_qubits", [1, 3])
def test_simulate_density_rejects_other_qubit_counts(n_qubits):
    circuit = Circuit(n_qubits, (("ry", 0, 0.4),))
    with pytest.raises(ValueError, match=f"got {n_qubits} qubits"):
        simulate_density(circuit, NoiseModel.uniform(n_qubits))


def test_measure_pauli_density_matches_trace_formula():
    noise = NoiseModel.uniform(2, p_dep=0.1, seed=11)
    circuit = ansatz_entangled(0.9, 0.2, 1.4)
    rho = simulate_density(circuit, noise)
    word = "ZZ"
    exact = float(np.real(np.trace(rho @ pauli_word_matrix(word))))
    tallies = measure_pauli_density(rho, (word,), 400_000, NoiseModel.uniform(2, seed=5))
    se = math.sqrt(max(1.0 - exact ** 2, 1e-12) / 400_000)
    assert abs(counts_expectation(tallies, (word,))[0] - exact) < 4.0 * se


# ---------------------------------------------------------------- readout calibration

def test_calibrate_readout_noiseless():
    assert ReadoutCalibration.from_noise_model(NoiseModel.uniform(1), 1000).rates == ((0.0, 0.0),)


def test_calibrate_readout_recovers_rates():
    noise = NoiseModel(ReadoutCalibration(((0.05, 0.1),)), seed=13)
    ((p01_hat, p10_hat),) = ReadoutCalibration.from_noise_model(noise, 100_000).rates
    assert abs(p10_hat - 0.1) < 4.0 * math.sqrt(0.1 * 0.9 / 100_000)
    assert abs(p01_hat - 0.05) < 4.0 * math.sqrt(0.05 * 0.95 / 100_000)


def test_calibrate_readout_half_rate():
    noise = NoiseModel(ReadoutCalibration(((0.0, 0.5),)), seed=17)
    ((p01_hat, p10_hat),) = ReadoutCalibration.from_noise_model(noise, 100_000).rates
    assert p01_hat == 0.0
    assert abs(p10_hat - 0.5) < 4.0 * math.sqrt(0.25 / 100_000)
