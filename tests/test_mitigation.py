import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4vqe.circuit_sim import (
    Circuit,
    NoiseModel,
    ansatz_entangled,
    apply_circuit,
    counts_expectation,
    expectation_exact,
    measure_pauli,
    measure_pauli_density,
    outcome_table,
    simulate_density,
    zero_state,
)
from phi4vqe.mitigation import (
    PURIFY_BASIN,
    PurificationReport,
    ReadoutCalibration,
    _purify,
    _reports,
    energy_from_state,
    mcweeny_purify,
    ro_correct,
    tomography_2q_detail,
)
from phi4vqe.fock_space import exact_spectrum, sector_blocks
from phi4vqe.qubit_encoding import PauliSum, encode_matrix, pauli_word_matrix

# readout correction with zero flip rates is the raw estimate
ZERO_RATES = ReadoutCalibration(((0.0, 0.0),) * 2)


def flip_channel(true_probs, rates):
    # exact readout channel on bitstring distributions; rates[i] = (p01, p10)
    n = len(rates)
    out = {}
    for x_bits in itertools.product("01", repeat=n):
        x = "".join(x_bits)
        total = 0.0
        for y, q in true_probs.items():
            w = q
            for i in range(n):
                p01, p10 = rates[i]
                if y[i] == "0":
                    w *= p10 if x[i] == "1" else 1.0 - p10
                else:
                    w *= p01 if x[i] == "0" else 1.0 - p01
            total += w
        out[x] = total
    return out


def parity_expectation(probs):
    return sum(q * (-1.0) ** bits.count("1") for bits, q in probs.items())


# ---------------------------------------------------------------- readout correction

def test_ro_correct_zero_rates_is_identity():
    cal = ReadoutCalibration(rates=((0.0, 0.0), (0.0, 0.0)))
    counts = {"00": 3, "01": 5, "10": 7, "11": 1}
    raw = sum(c * (-1.0) ** k.count("1") for k, c in counts.items()) / 16.0
    assert ro_correct([list(counts.values())], ("ZZ",), cal)[0] == pytest.approx(raw, abs=1e-15)


def test_ro_correct_symmetric_single_qubit():
    cal = ReadoutCalibration(rates=((0.1, 0.1),))
    assert ro_correct([[0.9, 0.1]], ("Z",), cal)[0] == pytest.approx(1.0, abs=1e-12)


def test_ro_correct_asymmetric_single_qubit():
    # p(1|0) = 0.2 shrinks the raw value to 0.6; correction restores 1.0
    cal = ReadoutCalibration(rates=((0.0, 0.2),))
    counts = {"0": 0.8, "1": 0.2}
    raw = counts["0"] - counts["1"]
    assert raw == pytest.approx(0.6, abs=1e-15)
    assert ro_correct([list(counts.values())], ("Z",), cal)[0] == pytest.approx(1.0, abs=1e-12)


def test_ro_correct_inverts_analytic_channel():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p0, p1 = rng.uniform(0.0, 1.0, size=2)
        true = {}
        for b0 in "01":
            for b1 in "01":
                w0 = p0 if b0 == "1" else 1.0 - p0
                w1 = p1 if b1 == "1" else 1.0 - p1
                true[b0 + b1] = w0 * w1
        rates = tuple((rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.2)) for _ in range(2))
        flipped = flip_channel(true, rates)
        cal = ReadoutCalibration(rates=rates)
        corrected = ro_correct([list(flipped.values())], ("ZZ",), cal)[0]
        assert corrected == pytest.approx(parity_expectation(true), abs=1e-10)


def test_ro_correct_subset_support():
    # single-qubit word on a two-qubit register uses that qubit's rates only
    cal = ReadoutCalibration(rates=((0.0, 0.0), (0.0, 0.2)))
    assert ro_correct([[0.8, 0.2, 0.0, 0.0]], ("IZ",), cal)[0] == pytest.approx(1.0, abs=1e-12)


TWO_QUBIT_WORDS = tuple("".join(w) for w in itertools.product("IXYZ", repeat=2))[1:]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rates=st.tuples(*[st.tuples(st.floats(0.0, 0.45), st.floats(0.0, 0.45))] * 2),
       weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 1e-3))
def test_ro_correct_inverts_exact_channel_for_every_word(rates, weights):
    # rates[q] = (p01, p10), so p01 + p10 <= 0.9; every word reads the same flipped rows
    p = np.array(weights) / sum(weights)
    C = np.kron(*[np.array([[1.0 - p10, p01], [p10, 1.0 - p01]]) for p01, p10 in rates])
    flipped = np.tile(C @ p, (len(TWO_QUBIT_WORDS), 1))
    truth = [sum(p[x] * (-1.0) ** sum(int(b) for b, label in zip(format(x, "02b"), word)
                                       if label != "I")
                 for x in range(4))
             for word in TWO_QUBIT_WORDS]
    got = ro_correct(flipped, TWO_QUBIT_WORDS, ReadoutCalibration(rates=rates))
    assert np.max(np.abs(got - truth)) < 1e-10


@settings(max_examples=100, deadline=None, derandomize=True)
@given(batch=st.sampled_from([None, 1, 3, 12]), shots=st.sampled_from([1, 4, 64, 8192]),
       rates=st.tuples(*[st.tuples(st.floats(0.0, 0.45), st.floats(0.0, 0.45))] * 2),
       p_dep=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_ro_correct_at_zero_rates_is_the_raw_estimator_bit_for_bit(batch, shots, rates, p_dep, seed):
    # the raw tomography state is the corrected one at zero flip rates, so
    # there is one estimator; tallies drawn under random readout channels
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi, size=3 if batch is None else (3, batch))
    noise = NoiseModel(ReadoutCalibration(rates), p_dep=p_dep, seed=seed)
    tallies = measure_pauli_density(simulate_density(ansatz_entangled(*theta), noise),
                                    TWO_QUBIT_WORDS, shots, noise)
    assert np.array_equal(ro_correct(tallies, TWO_QUBIT_WORDS, ZERO_RATES),
                          counts_expectation(tallies, TWO_QUBIT_WORDS))


@pytest.mark.parametrize("weights,words,match", [
    ([[0.5, 0.5]], ("ZZ",), "do not match"),
    ([[0.5, 0.5, 0.0, 0.0]], ("ZZ", "XX"), "do not match"),
    ([[0.5, 0.5, 0.0, 0.0]], ("Z",), "^word 'Z' is not a Pauli word on 2 qubits$"),
], ids=["outcomes", "rows", "word-length"])
def test_ro_correct_rejects_weight_shape_mismatch(weights, words, match):
    cal = ReadoutCalibration(rates=((0.01, 0.02),) * 2)
    with pytest.raises(ValueError, match=match):
        ro_correct(weights, words, cal)


@pytest.mark.parametrize("weights", [(-1.0, 2.0), (math.nan, 1.0), (math.inf, 1.0)],
                         ids=["negative", "nan", "inf"])
def test_ro_correct_rejects_negative_or_non_finite_weights(weights):
    cal = ReadoutCalibration(rates=((0.01, 0.02),))
    with pytest.raises(ValueError, match="finite and >= 0"):
        ro_correct([weights], ("Z",), cal)


@pytest.mark.parametrize("words,bad", [(("QQ",), "QQ"), (("ZZ", "ZQ"), "ZQ"), (("zz",), "zz")],
                         ids=["QQ", "second-word", "lower-case"])
def test_ro_correct_rejects_labels_outside_ixyz(words, bad):
    # an unknown label used to be read as Z
    cal = ReadoutCalibration(rates=((0.02, 0.03), (0.01, 0.04)))
    with pytest.raises(ValueError, match=f"^word '{bad}' is not a Pauli word on 2 qubits$"):
        ro_correct([[10, 0, 0, 0]] * len(words), words, cal)


def test_ro_correct_rejects_empty_counts():
    cal = ReadoutCalibration(rates=((0.01, 0.02),))
    with pytest.raises(ValueError, match="empty counts"):
        ro_correct([[1.0, 0.0], [0.0, 0.0]], ("Z", "Z"), cal)


@pytest.mark.parametrize("convert", [list, lambda rates: [list(pair) for pair in rates], np.array],
                         ids=["list-of-tuples", "list-of-lists", "array"])
def test_rates_given_as_lists_or_arrays_measure_as_tuples(convert):
    # list or array rates used to fail in the lru_caches with "unhashable type"
    rates = ((0.13, 0.02), (0.05, 0.09))
    given, as_tuples = ReadoutCalibration(convert(rates)), ReadoutCalibration(rates)
    assert given == as_tuples and hash(given) == hash(as_tuples)
    state = apply_circuit(ansatz_entangled(0.5, 0.2, 0.9), zero_state(2))
    words = ("ZZ", "XI", "IY")
    for measure, target in ((measure_pauli, state), (measure_pauli_density, np.outer(state, state.conj()))):
        tallies = measure(target, words, 4096, NoiseModel(given, seed=5))
        assert np.array_equal(tallies, measure(target, words, 4096, NoiseModel(as_tuples, seed=5)))
        assert np.array_equal(ro_correct(tallies, words, given), ro_correct(tallies, words, as_tuples))


def test_outcome_table_at_asymmetric_rates():
    # rates[q] = (p01, p10): outcome x of Z weighs ((-1)^x - (p01 - p10)) / (1 - (p01 + p10)),
    # and the identity word weighs every outcome 1
    p01, p10 = 0.05, 0.1
    table = outcome_table(("Z", "I"), ReadoutCalibration(rates=((p01, p10),)).rates)
    expected = [((-1.0) ** x - (p01 - p10)) / (1.0 - (p01 + p10)) for x in (0, 1)]
    assert np.max(np.abs(table - [expected, [1.0, 1.0]])) < 1e-15


def test_readout_calibration_from_noise_model():
    noise = NoiseModel(ReadoutCalibration(((0.05, 0.1), (0.03, 0.02))), seed=19)
    exact = noise.readout
    assert exact.rates == ((0.05, 0.1), (0.03, 0.02))
    measured = ReadoutCalibration.from_noise_model(noise, shots=200_000)
    for q in range(2):
        for k in range(2):
            truth = exact.rates[q][k]
            se = math.sqrt(max(truth * (1 - truth), 1e-9) / 200_000)
            assert abs(measured.rates[q][k] - truth) < 5.0 * se


# ---------------------------------------------------------------- tomography

def test_tomography_reconstructs_pure_state():
    circuit = ansatz_entangled(0.9, -0.3, 1.2)
    noise = NoiseModel.noiseless(2, seed=41)
    cal = noise.readout
    (rho,) = tomography_2q_detail(circuit, noise, 40_000, cal)
    psi = apply_circuit(circuit, zero_state(2))
    assert np.real(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.real(psi.conj() @ rho @ psi) > 0.99


def test_tomography_sees_depolarization():
    circuit = ansatz_entangled(0.9, -0.3, 1.2)
    noise = NoiseModel.uniform(2, p_dep=0.1, seed=42)
    cal = noise.readout
    (rho_hat,) = tomography_2q_detail(circuit, noise, 60_000, cal)
    rho = simulate_density(circuit, noise)
    assert abs(np.real(np.trace(rho_hat @ rho_hat)) - np.real(np.trace(rho @ rho))) < 0.05


def test_tomography_detail_correction_beats_raw():
    circuit = ansatz_entangled(1.1, 0.4, 0.8)
    noise = NoiseModel.uniform(2, readout=0.05, p_dep=0.02, seed=43)
    cal = noise.readout
    rho_hat, rho_raw = tomography_2q_detail(circuit, noise, 50_000, cal, ZERO_RATES)
    rho = simulate_density(circuit, noise)
    truth = float(np.real(np.trace(rho @ pauli_word_matrix("ZZ"))))
    zz = PauliSum(terms=((1.0, "ZZ"),), qubit_count=2)
    corrected = energy_from_state(rho_hat, zz)
    raw = energy_from_state(rho_raw, zz)
    assert abs(corrected - truth) < abs(raw - truth)
    for estimate in (rho_hat, rho_raw):
        assert np.real(np.trace(estimate)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("batch", [None, 4], ids=["one", "batch"])
def test_tomography_makes_one_draw_for_every_calibration(record_draws, batch):
    # each state equals, bit for bit, the state of a one-calibration call on an
    # identically seeded stream: calibrations only read the shared tallies
    theta = (1.1, 0.4, 0.8) if batch is None else np.linspace(-2.0, 2.0, 3 * batch).reshape(3, batch)
    cal = ReadoutCalibration(rates=((0.04, 0.02), (0.03, 0.05)))

    def noise():
        return NoiseModel(ReadoutCalibration(((0.04, 0.02), (0.03, 0.05))), p_dep=0.02, seed=61)

    shared = noise()
    calls = record_draws(shared)
    both = tomography_2q_detail(ansatz_entangled(*theta), shared, 2048, cal, ZERO_RATES)
    assert calls == ["multinomial"]
    alone = [tomography_2q_detail(ansatz_entangled(*theta), noise(), 2048, c)
             for c in (cal, ZERO_RATES)]
    assert len(both) == 2
    for state, (single,) in zip(both, alone):
        assert state.shape == ((4, 4) if batch is None else (batch, 4, 4))
        assert np.array_equal(state, single)
    assert not np.array_equal(*both)


def test_tomography_rejects_an_empty_calibration_list(record_draws):
    noise = NoiseModel.noiseless(2)
    calls = record_draws(noise)
    with pytest.raises(ValueError, match="at least one readout calibration in cals"):
        tomography_2q_detail(ansatz_entangled(0.1, 0.2, 0.3), noise, 64)
    assert calls == []


@pytest.mark.parametrize("cals,match", [
    (((0, 0), (0, 0)), r"^cals\[0\] must be a ReadoutCalibration on 2 qubits, got \(0, 0\)$"),
    ((ZERO_RATES, ReadoutCalibration(((0.0, 0.0),) * 3)),
     r"^cals\[1\] must be a ReadoutCalibration on 2 qubits, got ReadoutCalibration\("),
], ids=["tuples", "three-qubit"])
def test_tomography_rejects_calibrations_that_are_not_two_qubit_readout_records(record_draws, cals, match):
    # a tuple used to end in an AttributeError on .rates, and a 3-qubit record in a
    # message about weight shapes
    noise = NoiseModel.uniform(2, readout=0.03)
    calls = record_draws(noise)
    with pytest.raises(ValueError, match=match):
        tomography_2q_detail(ansatz_entangled(0.1, 0.2, 0.3), noise, 10, *cals)
    assert calls == []


@pytest.mark.parametrize("shots", [2.5, True, 2**70], ids=["float", "bool", "2**70"])
def test_tomography_rejects_shot_counts_that_are_not_integers_in_range(shots):
    with pytest.raises(ValueError, match=r"^shots must be an integer in \[1, 2\*\*63 - 1\]"):
        tomography_2q_detail(ansatz_entangled(0.1, 0.2, 0.3), NoiseModel.noiseless(2), shots,
                             ZERO_RATES)


# ---------------------------------------------------------------- purification

def depolarized_pure(epsilon, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return (1.0 - epsilon) * np.outer(v, v.conj()) + epsilon * np.eye(4) / 4.0, v


def test_mcweeny_fixed_point_on_pure_state():
    rho, _ = depolarized_pure(0.0, seed=51)
    out, report = mcweeny_purify(rho)
    assert report.converged
    assert report.iterations == 0
    assert np.max(np.abs(out - rho)) < 1e-12


def test_mcweeny_removes_depolarization():
    for eps in (0.05, 0.2, 0.4):
        rho, v = depolarized_pure(eps, seed=52)
        out, report = mcweeny_purify(rho)
        assert report.converged
        assert report.iterations < 50
        assert report.non_idempotency < 1e-4
        assert np.real(v.conj() @ out @ v) > 0.999
        assert report.final_purity > report.initial_purity


def test_mcweeny_keeps_dominant_eigenvector():
    rho, _ = depolarized_pure(0.3, seed=53)
    out, _ = mcweeny_purify(rho)
    w_in, v_in = np.linalg.eigh(rho)
    w_out, v_out = np.linalg.eigh(out)
    overlap = abs(v_in[:, -1].conj() @ v_out[:, -1])
    assert overlap > 1.0 - 1e-8


def test_mcweeny_non_idempotency_decreases():
    rho, _ = depolarized_pure(0.3, seed=54)
    values = [abs(mcweeny_purify(rho, eps_n=1e-300, max_iter=k)[1].non_idempotency)
              for k in (1, 2, 3, 4, 5)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_mcweeny_flags_maximally_mixed():
    rho = np.eye(4) / 4.0
    out, report = mcweeny_purify(rho)
    assert not report.converged
    assert np.max(np.abs(out - rho)) < 1e-12


@pytest.mark.parametrize("spectrum", [(1.2, 0.3, -0.5, 0.0), (1.6, -0.6, 0.0, 0.0)])
def test_mcweeny_flags_eigenvalues_outside_its_basin(spectrum):
    # unit trace, dominant eigenvalue above 1/2, but one eigenvalue beyond
    # (1 -+ sqrt 3)/2, which the iteration would carry past 1/2 onto the wrong
    # eigenvector
    rng = np.random.default_rng(56)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rho = (q * np.array(spectrum)) @ q.conj().T
    rho = (rho + rho.conj().T) / 2.0
    out, report = mcweeny_purify(rho)
    assert not report.converged
    assert report.iterations == 0
    assert np.max(np.abs(out - rho)) < 1e-12


def rotated(spectrum, seed):
    dim = len(spectrum)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    rho = (q * np.array(spectrum)) @ q.conj().T
    return (rho + rho.conj().T) / 2.0


@pytest.mark.parametrize("max_iter", [100, 2])
def test_purify_core_gives_every_matrix_its_own_report(max_iter):
    # a pure state (0 iterations), near-pure states that need different
    # iteration counts, a dominant eigenvalue below 1/2 and an eigenvalue
    # outside the basin, purified as one stack
    batch = np.stack([
        depolarized_pure(0.0, seed=61)[0],
        *(depolarized_pure(eps, seed=62)[0] for eps in (0.01, 0.2, 0.45)),
        rotated((0.45, 0.3, 0.15, 0.1), seed=63),
        rotated((1.2, 0.3, -0.5, 0.0), seed=64),
    ])
    out, stats = _purify(batch, max_iter=max_iter)
    reports = _reports(stats)
    for rho, got, report in zip(batch, out, reports):
        want, want_report = mcweeny_purify(rho, max_iter=max_iter)
        assert report == want_report
        assert np.array_equal(got, want)
    for flagged in reports[4:]:
        assert flagged.final_purity == flagged.initial_purity
        assert flagged.non_idempotency == flagged.initial_purity - 1.0
    if max_iter == 100:
        assert [r.iterations for r in reports[:4]] == sorted({r.iterations for r in reports[:4]})
        assert [r.converged for r in reports] == [True] * 4 + [False] * 2
    else:
        assert [r.iterations for r in reports] == [0, 2, 2, 2, 0, 0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dim=st.sampled_from([2, 4]),
       parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(
           lambda v: sum(x * x for x in v) > 1e-2))
def test_mcweeny_returns_a_projector_unchanged(dim, parts):
    # P = |v><v| is idempotent, so it is the iteration's fixed point
    v = np.array(parts[:dim]) + 1j * np.array(parts[4:4 + dim])
    if np.linalg.norm(v) < 1e-3:
        v[0] += 1.0
    v /= np.linalg.norm(v)
    P = np.outer(v, v.conj())
    P = (P + P.conj().T) / 2.0
    out, report = mcweeny_purify(P)
    assert report.iterations == 0 and report.converged
    assert abs(report.non_idempotency) < 1e-12
    assert np.max(np.abs(out - P)) < 1e-12


def iterative_purify(rho, eps_n=1e-4, max_iter=100):
    # the matrix iteration rho <- 3 rho^2 - 2 rho^3 on a (k, d, d) stack, each
    # matrix stopping at its own count: the oracle for the eigenbasis _purify
    rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    eigenvalues = np.linalg.eigvalsh(rho)
    basin = ((eigenvalues[:, -1] >= 0.5) & (eigenvalues[:, -1] < PURIFY_BASIN[1])
             & (eigenvalues[:, 0] > PURIFY_BASIN[0]))
    initial_purity = np.trace(rho @ rho, axis1=1, axis2=2).real
    reports = []
    for k in range(len(rho)):
        n_val = np.trace(rho[k] @ rho[k] - rho[k]).real
        count = 0
        while basin[k] and abs(n_val) >= eps_n and count < max_iter:
            sq = rho[k] @ rho[k]
            step = 3.0 * sq - 2.0 * (sq @ rho[k])
            rho[k] = step / np.trace(step).real
            n_val = np.trace(rho[k] @ rho[k] - rho[k]).real
            count += 1
        if not basin[k]:
            n_val = initial_purity[k] - 1.0
        reports.append(PurificationReport(
            iterations=count, non_idempotency=float(n_val),
            converged=bool(basin[k] and abs(n_val) < eps_n),
            initial_purity=float(initial_purity[k]),
            final_purity=float(np.trace(rho[k] @ rho[k]).real)))
    return rho, reports


def assert_matches_oracle(stack, max_iter=100, tol=1e-12):
    got, stats = _purify(stack, max_iter=max_iter)
    reports = _reports(stats)
    want, want_reports = iterative_purify(stack, max_iter=max_iter)
    for report, want_report in zip(reports, want_reports, strict=True):
        assert report.iterations == want_report.iterations
        assert report.converged == want_report.converged
        for name in ("non_idempotency", "initial_purity", "final_purity"):
            assert abs(getattr(report, name) - getattr(want_report, name)) < tol
    assert np.max(np.abs(got - want)) < tol
    return reports


def spectrum_of(kind, dim, head, tail):
    # a unit-trace spectrum: the largest eigenvalue, then the rest sharing what is left
    if kind == "pure":
        return [1.0] + [0.0] * (dim - 1)
    if kind == "near_pure":
        small = [1e-3 * t for t in tail[:dim - 1]]
        return [1.0 - sum(small)] + small
    if kind == "negative" and dim > 2:
        # one eigenvalue below PURIFY_BASIN[0], the dominant one inside the basin
        low = -0.4 - 0.4 * abs(tail[0])
        weights = [abs(t) + 0.1 for t in tail[1:dim - 1]]
        return [head] + [low] + [(1.0 - head - low) * u / sum(weights) for u in weights]
    weights = [abs(t) + 0.5 for t in tail[:dim - 1]]
    return [head] + [(1.0 - head) * u / sum(weights) for u in weights]


# dominant-eigenvalue ranges, each clear of 1/2 and of the basin edges
HEAD_RANGE = {"pure": (1.0, 1.0), "near_pure": (1.0, 1.0), "mixed": (0.51, 1.3),
              "below_half": (0.42, 0.49), "outside": (1.4, 1.8), "negative": (0.6, 1.2)}


@st.composite
def spectrum_stacks(draw):
    dim = draw(st.sampled_from([2, 4]))
    matrices = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(sorted(HEAD_RANGE)))
        low, high = HEAD_RANGE[kind]
        head = low + (high - low) * draw(st.floats(0.0, 1.0))
        tail = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
        scale = draw(st.floats(0.6, 1.4))
        rho = rotated(spectrum_of(kind, dim, head, tail), draw(st.integers(0, 2**32 - 1)))
        matrices.append(scale * rho)
    return np.stack(matrices)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stack=spectrum_stacks(), max_iter=st.sampled_from([1, 2, 100]))
def test_purify_matches_the_matrix_iteration(stack, max_iter):
    # pure and near-pure states, mixed ones, a dominant eigenvalue below 1/2,
    # eigenvalues outside the basin, traces off 1: the same counts, flags and
    # states as iterating the full matrices
    assert_matches_oracle(stack, max_iter=max_iter)


@pytest.mark.parametrize("shots", [8192, 16])
def test_purify_matches_the_matrix_iteration_on_tomographies(shots):
    rng = np.random.default_rng(71)
    theta = rng.uniform(-np.pi, np.pi, size=(3, 200))
    noise = NoiseModel.uniform(2, readout=0.03, p_dep=0.02, seed=72)
    (rho,) = tomography_2q_detail(ansatz_entangled(*theta), noise, shots, noise.readout)
    reports = assert_matches_oracle(rho)
    flagged = sum(not r.converged for r in reports)
    assert flagged == 0 if shots == 8192 else flagged > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mcweeny_rejects_non_finite_entries(bad):
    rho = (np.eye(4) / 4.0).astype(complex)
    rho[0, 1] = rho[1, 0] = bad
    with pytest.raises(ValueError, match="NaN or inf"):
        mcweeny_purify(rho)
    stack = np.stack([depolarized_pure(0.1, seed=57)[0], rho, np.eye(4) / 4.0])
    with pytest.raises(ValueError, match="NaN or inf"):
        _purify(stack)


def test_mcweeny_rejects_eigenvalues_whose_squares_overflow():
    # finite, Hermitian and trace 1, but Tr(rho^2) exceeds the largest float
    rho = (np.eye(4) / 4.0).astype(complex)
    rho[0, 1] = rho[1, 0] = 1e200
    with pytest.raises(ValueError, match="overflows the purity"):
        mcweeny_purify(rho)
    with pytest.raises(ValueError, match="overflows the purity"):
        _purify(np.stack([depolarized_pure(0.1, seed=57)[0], rho]))
    # large but representable: flagged and returned as given, with a finite purity
    rho[0, 1] = rho[1, 0] = 1e150
    out, report = mcweeny_purify(rho)
    assert not report.converged and np.isfinite(report.initial_purity)
    assert np.array_equal(out, rho)


def test_mcweeny_input_validation():
    with pytest.raises(ValueError):
        mcweeny_purify(np.eye(4) * 0.5)  # trace 2
    bad = np.eye(4) / 4.0
    bad = bad.astype(complex)
    bad[0, 1] = 0.1
    with pytest.raises(ValueError):
        mcweeny_purify(bad)


@pytest.mark.parametrize("kwargs,match", [
    ({"eps_n": math.nan}, r"^eps_n must be a finite number > 0, got nan$"),
    ({"eps_n": math.inf}, r"^eps_n must be a finite number > 0, got inf$"),
    ({"eps_n": -1.0}, r"^eps_n must be a finite number > 0, got -1\.0$"),
    ({"eps_n": 0.0}, r"^eps_n must be a finite number > 0, got 0\.0$"),
    ({"eps_n": "1e-4"}, r"^eps_n must be a finite number > 0, got '1e-4'$"),
    ({"max_iter": -1}, r"^max_iter must be an integer >= 0, got -1$"),
    ({"max_iter": 2.5}, r"^max_iter must be an integer >= 0, got 2\.5$"),
    ({"max_iter": True}, r"^max_iter must be an integer >= 0, got True$"),
], ids=["nan-eps", "inf-eps", "negative-eps", "zero-eps", "string-eps", "negative-iter",
        "float-iter", "bool-iter"])
def test_purifiers_reject_stopping_arguments_out_of_range(kwargs, match):
    # NaN and negative eps_n used to run silently and report converged=False, a
    # negative max_iter took no step, and a float one raised a TypeError from range()
    rho = np.diag([0.9, 0.1])
    with pytest.raises(ValueError, match=match):
        mcweeny_purify(rho, **kwargs)
    with pytest.raises(ValueError, match=match):
        _purify(rho[None], **kwargs)


def test_purifiers_accept_zero_steps_and_tiny_tolerances():
    rho = np.diag([0.9, 0.1])
    out, report = mcweeny_purify(rho, max_iter=0)
    assert report.iterations == 0 and not report.converged and np.array_equal(out, rho)
    out, report = mcweeny_purify(rho, eps_n=1e-300, max_iter=np.int64(3))
    assert report.iterations == 3


def test_mcweeny_purify_takes_one_matrix_not_a_stack():
    with pytest.raises(ValueError, match=r"takes one \(d, d\) density matrix, got shape \(1, 4, 4\)"):
        mcweeny_purify(np.eye(4)[None] / 4.0)


def test_mcweeny_renormalizes_trace():
    rho, _ = depolarized_pure(0.2, seed=55)
    out, _ = mcweeny_purify(0.98 * rho)  # slightly off-trace input is renormalized
    assert np.real(np.trace(out)) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------- energies

def test_energy_from_state_vacuum():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    H = PauliSum(terms=((1.0, "ZI"),), qubit_count=2)
    assert energy_from_state(rho, H) == pytest.approx(1.0, abs=1e-14)


def test_energy_from_state_mixed_traceless():
    H = PauliSum(terms=((0.7, "XZ"), (0.2, "ZY")), qubit_count=2)
    assert energy_from_state(np.eye(4) / 4.0, H) == pytest.approx(0.0, abs=1e-14)


def test_energy_from_state_dimension_mismatch():
    H = PauliSum(terms=((1.0, "ZI"),), qubit_count=2)
    with pytest.raises(ValueError):
        energy_from_state(np.eye(2) / 2.0, H)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4)])
def test_energy_from_state_rejects_non_finite_entries(bad, shape):
    H = PauliSum(terms=((1.0, "ZI"),), qubit_count=2)
    rho = np.broadcast_to(np.eye(4) / 4.0, shape).astype(complex)
    rho[..., 1, 2] = bad
    with pytest.raises(ValueError, match="^density matrix has NaN or inf entries$"):
        energy_from_state(rho, H)


_Z = PauliSum(((1.0, "Z"),), 1)
# every array boundary: the call, the name its messages give the array, and a valid shape
ARRAY_BOUNDARIES = {
    "encode_matrix": (encode_matrix, "matrix", (2, 2)),
    "mcweeny_purify": (mcweeny_purify, "density matrix", (2, 2)),
    "energy_from_state": (lambda rho: energy_from_state(rho, _Z), "density matrix", (2, 2)),
    "exact_spectrum": (exact_spectrum, "H", (2, 2)),
    "sector_blocks": (lambda M: sector_blocks(M, 1, 2), "H", (2, 2)),
    "expectation_exact": (lambda state: expectation_exact(state, _Z), "state", (2,)),
    "PauliSum": (lambda coeffs: PauliSum(tuple(zip(coeffs, ("I", "Z"))), 1), "coefficient array", (2,)),
    "Circuit": (lambda angles: Circuit(1, tuple(("ry", 0, a) for a in angles)), "angle array", (2,)),
    "apply_circuit": (lambda state: apply_circuit(Circuit(1, ()), state), "state", (2,)),
    "measure_pauli": (lambda state: measure_pauli(state, ("Z",), 16, NoiseModel.noiseless(1)),
                      "state", (2,)),
    "measure_pauli_density": (lambda rho: measure_pauli_density(rho, ("Z",), 16, NoiseModel.noiseless(1)),
                              "density matrix", (2, 2)),
}
# these read a NaN array in a check of their own that combines rules
NAN_MESSAGES = {
    "apply_circuit": "^initial state must be finite and not the zero vector$",
    "measure_pauli": "^the Born rows of the state are non-finite or lack a positive total$",
    "measure_pauli_density": "^the Born rows of the state are non-finite or lack a positive total$",
}


@pytest.mark.parametrize("kind", ["strings", "objects", "nan"])
@pytest.mark.parametrize("boundary", list(ARRAY_BOUNDARIES))
def test_non_numeric_arrays_are_rejected_at_each_boundary(boundary, kind):
    # string and object arrays used to end in a TypeError from np.isfinite, and NaN
    # coefficients of a PauliSum in a NaN energy
    take, name, shape = ARRAY_BOUNDARIES[boundary]
    if kind == "nan":
        array, match = np.full(shape, np.nan), NAN_MESSAGES.get(boundary, f"^{name} has NaN or inf entries$")
    else:
        array = np.full(shape, "a") if kind == "strings" else np.full(shape, None, dtype=object)
        match = f"^{name} entries must be numbers, got dtype {array.dtype}$"
    with pytest.raises(ValueError, match=match):
        take(array)


_PSI = apply_circuit(ansatz_entangled(0.3, -0.5, 0.8), zero_state(2))
_RHO = 0.9 * np.outer(_PSI, _PSI.conj()) + 0.025 * np.eye(4)
_H = PauliSum(((0.5, "ZI"), (0.3, "XX"), (-0.2, "IY")), 2)


@pytest.mark.parametrize("take,array", [
    (lambda x, noise: apply_circuit(ansatz_entangled(0.3, -0.5, 0.8), x), zero_state(2)),
    (lambda x, noise: expectation_exact(x, _H), _PSI),
    (lambda x, noise: measure_pauli(x, ("ZZ", "XY"), 64, noise), _PSI),
    (lambda x, noise: measure_pauli_density(x, ("ZZ", "XY"), 64, noise), _RHO),
    (lambda x, noise: mcweeny_purify(x), _RHO),
    (lambda x, noise: energy_from_state(x, _H), _RHO),
], ids=["apply_circuit", "expectation_exact", "measure_pauli", "measure_pauli_density",
        "mcweeny_purify", "energy_from_state"])
def test_nested_lists_read_as_arrays_at_each_boundary(take, array):
    # a nested list used to end in an AttributeError on .shape or .ndim
    noises = [NoiseModel.uniform(2, readout=0.03, seed=7) for _ in range(2)]
    want, got = take(array, noises[0]), take(array.tolist(), noises[1])
    np.testing.assert_equal(got, want)
    assert noises[0].rng.bit_generator.state == noises[1].rng.bit_generator.state
