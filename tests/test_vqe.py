import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4vqe.lattice_model import ModelParams
from phi4vqe.fock_space import build_H
from phi4vqe.qubit_encoding import parity_blocks
from phi4vqe.circuit_sim import (
    Circuit,
    NoiseModel,
    ansatz_entangled,
    ansatz_product,
    apply_circuit,
    counts_expectation,
    measure_pauli,
    zero_state,
)
from phi4vqe import vqe
from phi4vqe.vqe import (
    BackendSpec,
    benchmark_sectors,
    energy_objective,
    mass_gap_vqe,
    mitigation_comparison,
    optimize,
    sector_minima,
)


def benchmark(lam, n_max=4):
    return ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=-1.5, lam=lam, n_max=n_max)


def sectors(params):
    blocks = {b.label: b for b in parity_blocks(build_H(params), params)}
    return blocks[(0, 0)], blocks[(1, 0)]


def ansatz_circuit(theta):
    """The circuit of one angle set, or the batch of a (k, d) stack: product at d = 2,
    entangled at d = 3."""
    theta = np.asarray(theta, dtype=float)
    return {2: ansatz_product, 3: ansatz_entangled}[theta.shape[-1]](*theta.T)


# ---------------------------------------------------------------- backends

def test_backend_spec_validation():
    with pytest.raises(ValueError):
        BackendSpec(kind="exact", noise=NoiseModel.noiseless(2))
    with pytest.raises(ValueError):
        BackendSpec(kind="sampled", noise=NoiseModel.uniform(2, readout=0.1))
    with pytest.raises(ValueError):
        BackendSpec(kind="noisy_mitigated", noise=None)
    with pytest.raises(ValueError):
        BackendSpec(kind="qpu")


@pytest.mark.parametrize("kind", ["sampled", "noisy_mitigated"])
@pytest.mark.parametrize("noise", ["x", 0.03, ((0.03, 0.03),) * 2], ids=["str", "number", "rates"])
def test_backend_spec_rejects_noise_that_is_not_a_noise_model(kind, noise):
    # noise="x" used to end in an AttributeError
    with pytest.raises(ValueError, match=f"^backend kind '{kind}' needs a noise model .*, got "):
        BackendSpec(kind=kind, noise=noise)


@pytest.mark.parametrize("field,value", [
    ("shots", 2.5), ("shots", True), ("shots", 2**70),
    ("calibration_shots", 1.5), ("calibration_shots", True), ("calibration_shots", 2**70),
], ids=lambda v: "2**70" if v == 2**70 else None)
def test_backend_spec_rejects_shot_counts_that_are_not_integers_in_range(field, value):
    noise = NoiseModel.uniform(2, readout=0.03)
    with pytest.raises(ValueError, match=f"^{field} must be an integer in \\[1, 2\\*\\*63 - 1\\]"):
        BackendSpec.noisy(noise, **{field: value})


@pytest.mark.parametrize("make", [
    lambda: BackendSpec.noisy(NoiseModel.uniform(3, readout=0.03, p_dep=0.02)),
    lambda: BackendSpec(kind="sampled", noise=NoiseModel.noiseless(3)),
    lambda: BackendSpec(kind="sampled", noise=NoiseModel.noiseless(1)),
], ids=["noisy-3", "sampled-3", "sampled-1"])
def test_backend_spec_rejects_a_noise_model_off_two_qubits(make):
    with pytest.raises(ValueError, match=r"^noise model covers \d qubits; the ansatz circuits act on 2$"):
        make()


@pytest.mark.parametrize("field", ["readout_correction", "purification"])
@pytest.mark.parametrize("value", ["no", 0, 1, None, np.True_])
def test_backend_spec_rejects_mitigation_switches_that_are_not_bools(field, value):
    # purification="no" used to turn purification on
    with pytest.raises(ValueError, match=f"^{field} must be true or false, got "):
        BackendSpec.noisy(NoiseModel.uniform(2, readout=0.03), **{field: value})


def test_backend_spec_takes_numpy_integer_shot_counts():
    backend = BackendSpec.noisy(NoiseModel.noiseless(2), shots=np.int64(64),
                                calibration_shots=np.uint32(2**31))
    assert (backend.shots, backend.calibration_shots) == (64, 2**31)


def test_backend_spec_constructors():
    assert BackendSpec.exact().kind == "exact"
    assert BackendSpec.sampled(shots=1024, seed=3).shots == 1024
    noisy = BackendSpec.noisy(NoiseModel.uniform(2, readout=0.03, p_dep=0.02))
    assert noisy.kind == "noisy_mitigated"
    assert noisy.readout_correction and noisy.purification


# ---------------------------------------------------------------- objective

def test_energy_objective_at_origin_reads_reference_state():
    ground, _ = sectors(benchmark(6.0))
    value = energy_objective(ansatz_entangled(0.0, 0.0, 0.0), ground, BackendSpec.exact())
    assert value == pytest.approx(float(np.real(ground.block[0, 0])), abs=1e-12)


def test_energy_objective_free_vacuum():
    ground, _ = sectors(benchmark(0.0).with_delta(0.0))
    assert energy_objective(ansatz_product(0.0, 0.0), ground,
                            BackendSpec.exact()) == pytest.approx(0.0, abs=1e-12)


def test_energy_objective_sampled_tracks_exact():
    ground, _ = sectors(benchmark(10.0))
    circuit = ansatz_entangled(0.3, -0.5, 0.8)
    exact = energy_objective(circuit, ground, BackendSpec.exact())
    shots = 8192
    sampled = energy_objective(circuit, ground, BackendSpec.sampled(shots=shots, seed=2))
    scale = sum(abs(c) for c, w in ground.pauli.terms if set(w) != {"I"})
    assert abs(sampled - exact) < 4.0 * scale / math.sqrt(shots)


@pytest.mark.parametrize("backend,theta", [
    (BackendSpec.sampled(seed=4), (0.3, -0.5, 0.8)),
    (BackendSpec.noisy(NoiseModel.uniform(2, readout=0.03, p_dep=0.02, seed=4)), (0.3, -0.5, 0.8)),
    (BackendSpec.noisy(NoiseModel.uniform(2, readout=0.03, p_dep=0.02, seed=4)), (0.3, -0.5)),
    (BackendSpec.noisy(NoiseModel.uniform(2, readout=0.03, p_dep=0.02, seed=4),
                       purification=False), (0.3, -0.5, 0.8)),
], ids=["sampled", "noisy-purified", "noisy-product", "noisy-unpurified"])
def test_energy_objective_makes_one_draw_per_evaluation(record_draws, backend, theta):
    ground, _ = sectors(benchmark(6.0))
    cal = backend.noise.readout
    calls = record_draws(backend.noise)
    for _ in range(3):
        energy_objective(ansatz_circuit(theta), ground, backend, cal=cal)
    # a batch of circuits is one draw too
    energy_objective(ansatz_circuit(np.tile(theta, (5, 1))), ground, backend, cal=cal)
    assert calls == ["multinomial"] * 4


def batch_backend(kind, shots, seed):
    noise = NoiseModel.uniform(2, readout=0.03, p_dep=0.02, seed=seed)
    return {
        "exact": BackendSpec.exact,
        "sampled": lambda: BackendSpec.sampled(shots=shots, seed=seed),
        "noisy": lambda: BackendSpec.noisy(noise, shots=shots),
        "noisy-unpurified": lambda: BackendSpec.noisy(noise, shots=shots, purification=False),
        "noisy-uncorrected": lambda: BackendSpec.noisy(noise, shots=shots,
                                                       readout_correction=False),
    }[kind]()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["exact", "sampled", "noisy", "noisy-unpurified", "noisy-uncorrected"]),
       n_params=st.sampled_from([2, 3]), shots=st.sampled_from([4, 64, 8192]),
       seed=st.integers(0, 2**16), data=st.data())
def test_batched_objective_equals_scalar_calls(kind, n_params, shots, seed, data):
    # one call on k angle sets: bit-equal energies, the same purification
    # reports and the same generator state as k calls in row order
    k = data.draw(st.integers(1, 10), label="k")
    theta = np.array(data.draw(st.lists(st.lists(st.floats(-7.0, 7.0), min_size=n_params,
                                                 max_size=n_params),
                                        min_size=k, max_size=k), label="theta"))
    ground, _ = sectors(benchmark(6.0))
    batched, scalar = batch_backend(kind, shots, seed), batch_backend(kind, shots, seed)
    cal = None if kind == "exact" else batched.noise.readout
    batch_log, scalar_log = [], []
    energies = energy_objective(ansatz_circuit(theta), ground, batched, cal=cal,
                                purification_log=batch_log)
    singles = [energy_objective(ansatz_circuit(row), ground, scalar, cal=cal,
                                purification_log=scalar_log) for row in theta]
    assert energies.shape == (k,) and all(type(e) is float for e in singles)
    assert [e.hex() for e in energies.tolist()] == [e.hex() for e in singles]
    assert batch_log == scalar_log
    if kind.startswith("noisy") and kind != "noisy-unpurified":
        assert len(batch_log) == (k if n_params == 3 else 0)  # only CNOT circuits are purified
    if kind != "exact":
        assert batched.noise.rng.bit_generator.state == scalar.noise.rng.bit_generator.state


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_params=st.sampled_from([2, 3]), k=st.integers(1, 10), shots=st.sampled_from([4, 8192]),
       seed=st.integers(0, 2**16))
def test_batched_energies_equal_one_vdot_and_one_dot_per_row_bit_for_bit(n_params, k, shots, seed):
    ground, _ = sectors(benchmark(6.0))
    circuit = ansatz_circuit(np.random.default_rng(seed).uniform(-7.0, 7.0, size=(k, n_params)))
    H, states = ground.pauli, apply_circuit(circuit, zero_state(2))
    images = (H.to_matrix() @ states[..., None])[..., 0]
    vdots = [float(np.vdot(state, image).real) for state, image in zip(states, images)]
    exact = energy_objective(circuit, ground, BackendSpec.exact())
    assert [e.hex() for e in exact.tolist()] == [e.hex() for e in vdots]

    words = tuple(w for _, w in H.terms if set(w) != {"I"})
    coeffs = np.array([c.real for c, w in H.terms if set(w) != {"I"}])
    tallies = measure_pauli(states, words, shots, NoiseModel.noiseless(2, seed=seed))
    dots = [H.coefficient("II").real + float(coeffs @ row)
            for row in counts_expectation(tallies, words)]
    sampled = energy_objective(circuit, ground, BackendSpec.sampled(shots=shots, seed=seed))
    assert [e.hex() for e in sampled.tolist()] == [e.hex() for e in dots]


def test_energy_objective_builds_purification_reports_only_for_a_log(monkeypatch):
    ground, _ = sectors(benchmark(6.0))
    circuit = ansatz_circuit(np.tile((0.3, -0.5, 0.8), (4, 1)))
    logged = []
    want = energy_objective(circuit, ground, batch_backend("noisy", 256, 5),
                            purification_log=logged)
    assert len(logged) == 4

    def no_reports(stats):
        raise AssertionError("reports built for a caller that drops them")

    monkeypatch.setattr(vqe, "_reports", no_reports)
    got = energy_objective(circuit, ground, batch_backend("noisy", 256, 5))
    assert [e.hex() for e in got.tolist()] == [e.hex() for e in want.tolist()]


# angles used to be the objective's input, with the circuit found by their count
@pytest.mark.parametrize("circuit", [(0.1, 0.2, 0.3), np.zeros((2, 3)), "entangled", None],
                         ids=["angles", "stack", "name", "none"])
def test_energy_objective_rejects_anything_but_a_circuit(circuit):
    ground, _ = sectors(benchmark(6.0))
    with pytest.raises(ValueError, match=r"^energy_objective takes a Circuit, got "):
        energy_objective(circuit, ground, BackendSpec.exact())


def test_energy_objective_rejects_a_circuit_off_two_qubits():
    ground, _ = sectors(benchmark(6.0))
    with pytest.raises(ValueError, match=r"^energy_objective takes a 2-qubit circuit, got one on 3 qubits$"):
        energy_objective(Circuit(3, (("ry", 0, 0.1),)), ground, BackendSpec.exact())


# ---------------------------------------------------------------- exact optimization

def test_optimize_exact_entangled_reaches_block_minimum():
    ground, excited = sectors(benchmark(6.0))
    for sector in (ground, excited):
        result = optimize(sector, "entangled", BackendSpec.exact())
        eigmin = float(np.min(np.linalg.eigvalsh(sector.block)))
        assert result.converged
        assert result.energy == pytest.approx(eigmin, abs=1e-6)
        assert result.uncertainty == 0.0


def slice_minimum(values):
    """Reference oracle: offset and value of the minimum of one slice through 3 or 5
    samples at vqe._OFFSETS, fitted and refined one corner at a time."""
    if len(values) == 3:
        a, c, s = vqe._FIT[3] @ values
        return math.atan2(-s, -c), float(a - math.hypot(c, s))
    coeffs = vqe._FIT[5] @ values
    coarse = coeffs[0] + coeffs[1:] @ vqe._COARSE_BASIS
    k = int(np.argmin(coarse))
    a, c1, s1, c2, s2 = coeffs.tolist()
    v = float(vqe._COARSE_V[k])
    for _ in range(8):
        cv, sv, c2v, s2v = math.cos(v), math.sin(v), math.cos(2.0 * v), math.sin(2.0 * v)
        curvature = -(c1 * cv + s1 * sv) - 4.0 * (c2 * c2v + s2 * s2v)
        if curvature <= 0.0:
            break
        v -= (s1 * cv - c1 * sv + 2.0 * (s2 * c2v - c2 * s2v)) / curvature
    value = (a + c1 * math.cos(v) + s1 * math.sin(v)
             + c2 * math.cos(2.0 * v) + s2 * math.sin(2.0 * v))
    if value > coarse[k]:
        v, value = float(vqe._COARSE_V[k]), float(coarse[k])
    return 2.0 * v, value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.sampled_from([3, 5]), data=st.data())
def test_slice_minima_rows_equal_the_scalar_oracle_bit_for_bit(n, data):
    # one stacked fit per slice: each row's offset and value are the oracle's
    r = data.draw(st.integers(1, 4), label="r")
    scale = data.draw(st.sampled_from([1e-6, 1.0, 1e3]), label="scale")
    values = scale * np.array(data.draw(
        st.lists(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
                 min_size=r, max_size=r), label="values"))
    steps, minima = vqe._slice_minima(values)
    oracle = np.array([slice_minimum(row) for row in values])
    assert steps.shape == minima.shape == (r,)
    assert steps.tobytes() == oracle[:, 0].tobytes()
    assert minima.tobytes() == oracle[:, 1].tobytes()


@pytest.mark.parametrize("lam", [2.0, 4.0, 6.0, 8.21, 10.0, 12.0, 14.0])
@pytest.mark.parametrize("ansatz", vqe.ANSATZE)
def test_slice_fit_reproduces_exact_energy(lam, ansatz):
    # 3 samples fix a theta0/theta1 slice and 5 a theta2 slice (frequencies
    # 1/2 and 1): the fitted series matches the objective at 20 other angles
    build, _, per_angle = vqe.ANSATZE[ansatz]
    rng = np.random.default_rng([10, int(100 * lam)])
    backend = BackendSpec.exact()
    for sector in sectors(benchmark(lam)):
        theta = rng.uniform(-math.pi, math.pi, size=len(per_angle))
        for i, n in enumerate(per_angle):
            offsets = vqe._OFFSETS[n]
            period = n * offsets[1]

            def energy(u):
                probe = theta.copy()
                probe[i] += u
                return energy_objective(build(*probe), sector, backend)

            samples = np.array([energy(u) for u in offsets])
            coeffs = vqe._FIT[n] @ samples
            (step,), (minimum,) = vqe._slice_minima(samples[None])
            assert (step, minimum) == slice_minimum(samples)
            for u in rng.uniform(0.0, period, size=20):
                v = 2.0 * math.pi * u / period
                harmonics = [(math.cos(j * v), math.sin(j * v)) for j in range(1, n // 2 + 1)]
                fitted = coeffs[0] + np.dot(coeffs[1:], np.ravel(harmonics))
                assert fitted == pytest.approx(energy(u), abs=1e-12)
                assert minimum <= energy(u) + 1e-12
            assert minimum == pytest.approx(energy(step), abs=1e-12)


@pytest.mark.parametrize("lam", [2.0, 6.0, 14.0])
def test_optimize_exact_entangled_gap_matches_oracle_to_1e10(lam):
    params = benchmark(lam)
    estimate = mass_gap_vqe(params, BackendSpec.exact())
    assert estimate.ground.converged and estimate.excited.converged
    assert abs(estimate.gap - sector_minima(params)[2]) < 1e-10


def serial_sweeps(fun, start, per_angle, max_sweeps, tol):
    """Reference oracle: the coordinate sweeps of one corner, slice after slice."""
    theta = np.array(start, dtype=float)
    unit = np.eye(len(theta))
    energy = math.inf
    for _ in range(max_sweeps):
        previous = energy
        for i in range(len(theta)):
            offsets = vqe._OFFSETS[per_angle[i]]
            step, energy = slice_minimum(fun(theta + offsets[:, None] * unit[i]))
            theta[i] += step
        if previous - energy < tol:
            return theta, energy, True
    return theta, energy, False


@pytest.mark.parametrize("lam", [0.0, 6.0, 14.0])
@pytest.mark.parametrize("ansatz", vqe.ANSATZE)
def test_lockstep_sweeps_match_the_serial_oracle_bit_for_bit(lam, ansatz):
    # the corners advance together, one batch per slice, yet each does exactly
    # the sweeps it does alone; a settled corner is no longer evaluated
    build, starts, per_angle = vqe.ANSATZE[ansatz]
    backend = BackendSpec.exact()
    for sector in sectors(benchmark(lam)):
        rows = []

        def fun(thetas):
            rows.append(len(np.atleast_2d(thetas)))
            return energy_objective(build(*thetas.T), sector, backend)

        oracle, corner_calls = [], []
        for start in starts:
            before = len(rows)
            oracle.append(serial_sweeps(fun, start, per_angle, vqe.EXACT_MAX_SWEEPS,
                                        vqe.EXACT_TOL))
            corner_calls.append(len(rows) - before)
        oracle_rows, oracle_calls = sum(rows), len(rows)
        thetas, energies, settled = vqe._coordinate_sweeps(
            fun, starts, per_angle, vqe.EXACT_MAX_SWEEPS, vqe.EXACT_TOL)
        assert sum(rows) == 2 * oracle_rows
        assert len(rows) - oracle_calls == max(corner_calls)  # one batch per slice
        assert thetas.tobytes() == np.array([run[0] for run in oracle]).tobytes()
        assert energies.tobytes() == np.array([run[1] for run in oracle]).tobytes()
        assert settled.tolist() == [run[2] for run in oracle]

        best_x, _, best_settled = min(oracle, key=lambda run: run[1])
        result = optimize(sector, ansatz, backend)
        assert np.array(result.parameters).tobytes() == best_x.tobytes()
        assert result.energy == energy_objective(build(*best_x), sector, backend)
        assert result.converged == best_settled
        assert len(result.history) == oracle_rows


def test_optimize_exact_variational_bound():
    ground, _ = sectors(benchmark(8.21))
    eigmin = float(np.min(np.linalg.eigvalsh(ground.block)))
    for ansatz in ("product", "entangled"):
        result = optimize(ground, ansatz, BackendSpec.exact())
        assert result.energy >= eigmin - 1e-9


def test_optimize_ansatz_nesting():
    ground, _ = sectors(benchmark(10.0))
    product = optimize(ground, "product", BackendSpec.exact())
    entangled = optimize(ground, "entangled", BackendSpec.exact())
    assert entangled.energy <= product.energy + 1e-9


def test_optimize_free_theory_vacuum():
    ground, _ = sectors(benchmark(0.0).with_delta(0.0))
    result = optimize(ground, "product", BackendSpec.exact())
    assert result.energy == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("ansatz", vqe.ANSATZE)
def test_ansatz_table_entries_agree_on_their_parameter_count(ansatz):
    # the builder takes one angle per corner coordinate, and every angle has a
    # slice sample count with fitting offsets
    build, corners, per_angle = vqe.ANSATZE[ansatz]
    d = len(corners[0])
    assert {len(corner) for corner in corners} == {d}
    assert len(inspect.signature(build).parameters) == d
    assert isinstance(build(*np.zeros(d)), Circuit)
    assert len(per_angle) == d
    assert set(per_angle) <= set(vqe._OFFSETS)


# ["product"] used to end in TypeError: unhashable type: 'list'
@pytest.mark.parametrize("name", ["hardware_efficient", ["product"], None, 2],
                         ids=["unknown", "list", "none", "int"])
def test_optimize_rejects_unknown_ansatz(name):
    ground, _ = sectors(benchmark(6.0))
    with pytest.raises(ValueError, match=rf"^unknown ansatz {re.escape(repr(name))}$"):
        optimize(ground, name, BackendSpec.exact())


def test_optimize_history_and_calibration_fields():
    ground, _ = sectors(benchmark(6.0))
    result = optimize(ground, "entangled", BackendSpec.exact())
    assert len(result.history) > 0
    assert result.calibration is None


# ---------------------------------------------------------------- gap estimates

def test_mass_gap_vqe_exact_matches_oracle():
    params = benchmark(6.0)
    estimate = mass_gap_vqe(params, BackendSpec.exact())
    e0, e1, gap = sector_minima(params)
    assert estimate.ground.energy == pytest.approx(e0, abs=1e-6)
    assert estimate.excited.energy == pytest.approx(e1, abs=1e-6)
    assert estimate.gap == pytest.approx(gap, abs=1e-6)
    assert estimate.gap_err == 0.0


def test_mass_gap_vqe_free_theory():
    params = benchmark(0.0).with_delta(0.0)
    estimate = mass_gap_vqe(params, BackendSpec.exact())
    assert estimate.gap == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("L,n_max", [(1, 8), (2, 4), (3, 4)])
def test_benchmark_sectors_are_the_even_and_odd_zero_momentum_blocks(L, n_max):
    params = ModelParams.from_bare(L=L, m_sq=1.0, m0_sq=-1.5, lam=6.0, n_max=n_max)
    ground, first = benchmark_sectors(params)
    assert (ground.label, first.label) == ((0, 0), (1, 0))
    assert np.array_equal(ground.block, build_H(params, (0, 0)))
    assert np.array_equal(first.block, build_H(params, (1, 0)))


def test_benchmark_sectors_are_built_once_and_read_only():
    params = benchmark(7.25)
    first = benchmark_sectors(params)
    assert benchmark_sectors(benchmark(7.25)) is first
    with pytest.raises(ValueError):
        first[0].block[0, 0] = 0.0


def test_sector_minima_against_blocks():
    params = benchmark(8.21)
    ground, excited = sectors(params)
    e0, e1, gap = sector_minima(params)
    assert e0 == pytest.approx(float(np.min(np.linalg.eigvalsh(ground.block))), abs=1e-12)
    assert e1 == pytest.approx(float(np.min(np.linalg.eigvalsh(excited.block))), abs=1e-12)
    assert gap == pytest.approx(e1 - e0, abs=1e-12)


# ---------------------------------------------------------------- stochastic backends

def test_optimize_sampled_is_deterministic_per_seed():
    ground, _ = sectors(benchmark(6.0))
    backend = BackendSpec.sampled(shots=1024)
    a = optimize(ground, "product", backend, seed=[5])
    b = optimize(ground, "product", backend, seed=[5])
    assert a.energy == b.energy
    assert a.parameters == b.parameters
    assert a.history == b.history
    assert a.uncertainty == b.uncertainty


@pytest.mark.parametrize("backend", [
    BackendSpec.sampled(shots=1024),
    BackendSpec.noisy(NoiseModel.uniform(2, readout=0.03, p_dep=0.02), shots=1024,
                      calibration_shots=10_000),
], ids=["sampled", "noisy"])
@pytest.mark.parametrize("ansatz", vqe.ANSATZE)
def test_optimize_stochastic_evaluation_count_is_fixed_by_config(backend, ansatz):
    _, starts, per_angle = vqe.ANSATZE[ansatz]
    ground, _ = sectors(benchmark(6.0))
    lengths = {len(optimize(ground, ansatz, backend, seed=[seed]).history) for seed in (1, 2)}
    assert lengths == {len(starts) * vqe.SWEEPS * sum(per_angle)}


def test_optimize_sampled_lands_near_minimum():
    ground, _ = sectors(benchmark(6.0))
    result = optimize(ground, "entangled", BackendSpec.sampled(shots=4096), seed=[6])
    eigmin = float(np.min(np.linalg.eigvalsh(ground.block)))
    assert result.uncertainty > 0.0
    assert abs(result.energy - eigmin) < 5.0 * result.uncertainty + 0.02


def test_optimize_noisy_reports_mitigation_metadata():
    ground, _ = sectors(benchmark(10.0))
    noise = NoiseModel.uniform(2, readout=0.03, p_dep=0.02)
    backend = BackendSpec.noisy(noise, shots=4096, calibration_shots=50_000)
    result = optimize(ground, "entangled", backend, seed=[7])
    assert result.calibration is not None
    assert len(result.calibration) == 2
    assert len(result.purification_reports) > 0
    assert all(r.converged for r in result.purification_reports)


def test_mitigation_comparison_orders_errors():
    params = benchmark(10.0)
    ground, _ = sectors(params)
    exact = optimize(ground, "entangled", BackendSpec.exact())
    noise = NoiseModel.uniform(2, readout=0.03, p_dep=0.02)
    backend = BackendSpec.noisy(noise, shots=8192)
    comp = mitigation_comparison(ground, ansatz_entangled(*exact.parameters), backend,
                                 seed=[99])
    assert abs(comp.e_mitigated - comp.e_exact) < abs(comp.e_raw - comp.e_exact)
    assert comp.report.converged


# a scalar theta used to fail with IndexError from the circuit builder
@pytest.mark.parametrize("circuit", [
    ansatz_circuit(np.zeros((1, 3))), ansatz_circuit(np.zeros((2, 3))), ansatz_circuit(np.zeros((2, 2))),
    0.5, np.float64(0.5), (0.0, 0.0, 0.0), np.zeros((1, 2, 3)),
], ids=["batch-1", "batch-2", "product-batch-2", "float", "np-float", "angles", "rank-3"])
def test_mitigation_comparison_rejects_a_parameter_batch_before_any_draw(record_draws, circuit):
    ground, _ = sectors(benchmark(6.0))
    backend = BackendSpec.noisy(NoiseModel.uniform(2, readout=0.03, p_dep=0.02))
    calls = record_draws(backend.noise)
    with pytest.raises(ValueError, match=r"^mitigation comparison takes one circuit, got "
                                         rf"{re.escape(repr(circuit))}$"):
        mitigation_comparison(ground, circuit, backend)
    assert calls == []


@pytest.mark.parametrize("switches", [
    {}, {"readout_correction": False}, {"purification": False},
    {"readout_correction": False, "purification": False},
], ids=["full", "uncorrected", "unpurified", "bare"])
def test_mitigation_comparison_always_corrects_with_a_sampled_calibration(record_draws, switches):
    # 4 calibration draws (two preparations per qubit), then the one tomography
    # draw; the comparison reads the same whatever the optimizer's switches
    ground, _ = sectors(benchmark(6.0))
    circuit = ansatz_entangled(0.4, -0.2, 0.7)
    noise = NoiseModel.uniform(2, readout=0.03, p_dep=0.02, seed=5)
    backend = BackendSpec.noisy(noise, shots=1024, calibration_shots=4096, **switches)
    calls = record_draws(backend.noise)
    mitigation_comparison(ground, circuit, backend)
    assert calls == ["multinomial"] * 5
    full = BackendSpec.noisy(noise, shots=1024, calibration_shots=4096)
    assert (mitigation_comparison(ground, circuit, backend, seed=[8])
            == mitigation_comparison(ground, circuit, full, seed=[8]))
