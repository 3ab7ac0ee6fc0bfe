"""End-to-end acceptance checks, one test per criterion.

Each test states its tolerance inline and prints the measured quantities it
judges. Criteria are exercised against the library's public API the same way
the CLI drives it.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import embed, quadrature
from phi4vqe.lattice_model import ModelParams, counterterm_first_order, momentum_grid
from phi4vqe.fock_space import (
    build_H,
    build_HI,
    exact_spectrum,
    mass_gap,
    critical_exponent_fit,
)
from phi4vqe.qubit_encoding import encode_matrix, parity_blocks
from phi4vqe.circuit_sim import (
    NoiseModel,
    ansatz_entangled,
    ansatz_product,
    apply_circuit,
    expectation_exact,
    measure_pauli,
    zero_state,
)
from phi4vqe.mitigation import ReadoutCalibration, mcweeny_purify, ro_correct
from phi4vqe.qubit_encoding import PauliSum
from phi4vqe.vqe import BackendSpec, mass_gap_vqe, mitigation_comparison, optimize, sector_minima
from phi4vqe.cli import main

DEFAULT_GRID = (2.0, 4.0, 6.0, 8.21, 10.0, 12.0, 14.0)


def benchmark(lam, n_max=4, m0_sq=-1.5):
    return ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=m0_sq, lam=lam, n_max=n_max)


def ground_and_excited_sectors(params):
    blocks = {b.label: b for b in parity_blocks(build_H(params), params)}
    return blocks[(0, 0)], blocks[(1, 0)]


# ------------------------------------------------------------------ criterion 1

def test_criterion_01_free_spectrum_oracle():
    # free theory at L=2, m^2=1: eigenvalues are n0*1 + n1*sqrt(5), gap 1;
    # tolerance 1e-10, wall time under 1 s
    start = time.perf_counter()
    params = ModelParams.from_counterterm(L=2, m_sq=1.0, delta_m=0.0, lam=0.0, n_max=4)
    spectrum = exact_spectrum(build_H(params))
    freqs = momentum_grid(params).frequencies
    expected = np.sort([n0 * freqs[0] + n1 * freqs[1]
                        for n0 in range(4) for n1 in range(4)])
    elapsed = time.perf_counter() - start
    worst = float(np.max(np.abs(spectrum.eigenvalues - expected)))
    print(f"criterion 1: max deviation {worst:.3e}, gap {spectrum.gap!r}, {elapsed:.3f}s")
    assert worst < 1e-10
    assert abs(spectrum.gap - 1.0) < 1e-10
    assert elapsed < 1.0


# ------------------------------------------------------------------ criterion 2

def quadrature_expansion(params):
    # independent interaction build: quartic + quadratic in mode quadratures
    freqs = momentum_grid(params).frequencies
    w0, w1 = freqs
    q0 = embed(quadrature(params.n_max), 0, params)
    q1 = embed(quadrature(params.n_max), 1, params)
    quartic = (np.linalg.matrix_power(q0, 4) / w0 ** 2
               + 6.0 * (q0 @ q0 @ q1 @ q1) / (w0 * w1)
               + np.linalg.matrix_power(q1, 4) / w1 ** 2)
    quadratic = (q0 @ q0) / w0 + (q1 @ q1) / w1
    return (params.lam / 48.0) * quartic + (params.delta_m / 2.0) * quadratic


def test_criterion_02_interaction_equals_quadrature_form():
    # 20 random couplings, field-built interaction vs quadrature expansion, 1e-12
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(20):
        params = ModelParams.from_counterterm(
            L=2,
            m_sq=float(rng.uniform(0.1, 4.0)),
            delta_m=float(rng.uniform(-3.0, 1.0)),
            lam=float(rng.uniform(0.0, 25.0)),
            n_max=4 if trial % 2 == 0 else 8,
        )
        diff = float(np.max(np.abs(build_HI(params) - quadrature_expansion(params))))
        worst = max(worst, diff)
    print(f"criterion 2: worst interaction mismatch {worst:.3e}")
    assert worst < 1e-12


# ------------------------------------------------------------------ criterion 3

def test_criterion_03_counterterm_cancels_linear_response():
    # d(gap)/d(lambda) at lambda=0 with the first-order counterterm inserted;
    # central difference, step 1e-3; |slope| < 1e-4
    h = 1e-3
    worst = 0.0
    for n_max in (4, 8, 12):
        for m_sq in (0.1, 1.5):
            gaps = []
            for lam in (h, -h):
                base = ModelParams.from_counterterm(L=2, m_sq=m_sq, delta_m=0.0,
                                                    lam=lam, n_max=n_max)
                gaps.append(mass_gap(base.with_delta(counterterm_first_order(base))))
            slope = (gaps[0] - gaps[1]) / (2.0 * h)
            worst = max(worst, abs(slope))
    print(f"criterion 3: max |d(gap)/d(lambda)| at 0 = {worst:.3e}")
    assert worst < 1e-4


# ------------------------------------------------------------------ criterion 4

def test_criterion_04_truncation_convergence():
    # for each default-convergence lambda: |g8-g12| <= 0.2|g4-g12| and <= 0.05*g12
    rows = []
    failures = []
    for lam in (0.0, 5.0, 10.0, 15.0, 20.0, 24.0):
        g4 = mass_gap(benchmark(lam, n_max=4))
        g8 = mass_gap(benchmark(lam, n_max=8))
        g12 = mass_gap(benchmark(lam, n_max=12))
        ratio_ok = abs(g8 - g12) <= 0.2 * abs(g4 - g12)
        size_ok = abs(g8 - g12) <= 0.05 * g12
        rows.append(f"  lambda={lam:<5} g4={g4:.6f} g8={g8:.6f} g12={g12:.6f} "
                    f"ratio_ok={ratio_ok} size_ok={size_ok}")
        if not (ratio_ok and size_ok):
            failures.append(lam)
    table = "\n".join(rows)
    print(f"criterion 4:\n{table}")
    assert not failures, f"convergence bound violated at lambda={failures}\n{table}"


# ------------------------------------------------------------------ criterion 5

def test_criterion_05_parity_blocking_completeness():
    # eigenvalue multiset preserved to 1e-10 on random couplings; ground state in
    # the (0, 0) sector and first excited in the (1, 0) sector across the benchmark grid
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        params = ModelParams.from_counterterm(
            L=2,
            m_sq=float(rng.uniform(0.1, 4.0)),
            delta_m=float(rng.uniform(-3.0, 1.0)),
            lam=float(rng.uniform(0.0, 25.0)),
            n_max=int(rng.choice([4, 8])),
        )
        H = build_H(params)
        full = np.sort(np.linalg.eigvalsh(H))
        pieces = np.sort(np.concatenate(
            [np.linalg.eigvalsh(b.block) for b in parity_blocks(H, params)]))
        worst = max(worst, float(np.max(np.abs(full - pieces))))
    assert worst < 1e-10

    for lam in DEFAULT_GRID:
        params = benchmark(lam)
        spectrum = exact_spectrum(build_H(params))
        ground, excited = ground_and_excited_sectors(params)
        e0 = float(np.min(np.linalg.eigvalsh(ground.block)))
        e1 = float(np.min(np.linalg.eigvalsh(excited.block)))
        assert abs(e0 - spectrum.eigenvalues[0]) < 1e-10
        assert abs(e1 - spectrum.eigenvalues[1]) < 1e-10
    print(f"criterion 5: worst multiset deviation {worst:.3e}; "
          f"sector assignment holds on all {len(DEFAULT_GRID)} grid points")


# ------------------------------------------------------------------ criterion 6

def test_criterion_06_pauli_encoding():
    # 50 random Hermitian matrices on 1-4 qubits round-trip to 1e-12, and the
    # single-qubit reference decompositions come out exactly
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        dim = 2 ** n
        M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        M = (M + M.conj().T) / 2.0
        worst = max(worst, float(np.max(np.abs(encode_matrix(M).to_matrix() - M))))
    print(f"criterion 6: worst round-trip deviation {worst:.3e}")
    assert worst < 1e-12

    projectored = dict((w, c) for c, w in encode_matrix(np.diag([1.0, 0.0])).terms)
    assert projectored == {"I": 0.5, "Z": 0.5}
    lowering = dict((w, c) for c, w in
                    encode_matrix(np.array([[0.0, 0.0], [1.0, 0.0]])).terms)
    assert lowering == {"X": 0.5, "Y": -0.5j}
    excited = dict((w, c) for c, w in encode_matrix(np.diag([0.0, 1.0])).terms)
    assert excited == {"I": 0.5, "Z": -0.5}


# ------------------------------------------------------------------ criterion 7

def test_criterion_07_exact_vqe_completeness():
    # entangled ansatz reaches both sector minima to 1e-6 on the whole grid;
    # the product ansatz ground-state penalty stays within [0.05%, 5%]
    backend = BackendSpec.exact()
    worst_miss = 0.0
    excesses = []
    for lam in DEFAULT_GRID:
        params = benchmark(lam)
        ground, excited = ground_and_excited_sectors(params)
        e0 = float(np.min(np.linalg.eigvalsh(ground.block)))
        e1 = float(np.min(np.linalg.eigvalsh(excited.block)))
        r0 = optimize(ground, "entangled", backend)
        r1 = optimize(excited, "entangled", backend)
        worst_miss = max(worst_miss, abs(r0.energy - e0), abs(r1.energy - e1))
        product = optimize(ground, "product", backend)
        excesses.append((product.energy - r0.energy) / abs(r0.energy))
    lo, hi = min(excesses), max(excesses)
    print(f"criterion 7: worst entangled miss {worst_miss:.3e}; "
          f"product excess range [{lo:.2%}, {hi:.2%}]")
    assert worst_miss < 1e-6
    assert all(0.0005 <= x <= 0.05 for x in excesses)


# ------------------------------------------------------------------ criterion 8

def corrected_with_plug_in_se(tallies, word, cal):
    # Eq-style estimator plus its plug-in standard error from per-shot products
    values = np.ones(len(tallies))
    for x in range(len(tallies)):
        bits = format(x, f"0{len(word)}b")  # qubit 0 is the most significant bit
        for qubit, label in enumerate(word):
            if label != "I":
                p01, p10 = cal.rates[qubit]
                values[x] *= (((-1.0) ** int(bits[qubit])) - (p01 - p10)) / (1.0 - (p01 + p10))
    n = int(tallies.sum())
    est = float(tallies @ values) / n
    second = float(tallies @ values ** 2) / n
    se = math.sqrt(max(second - est ** 2, 0.0) / n)
    return est, se


def test_criterion_08_readout_error_correction():
    # analytic half: exact channel inversion to 1e-10 for p01 + p10 <= 0.4;
    # sampled half: 1e4-shot corrected estimates within 4 standard errors in
    # at least 95 of 100 trials
    rate_values = (0.0, 0.05, 0.1, 0.2)
    rng = np.random.default_rng(8)
    worst = 0.0
    for p01, p10 in itertools.product(rate_values, repeat=2):
        state_probs = {}
        p0, p1 = rng.uniform(0.0, 1.0, size=2)
        for b0, b1 in itertools.product("01", repeat=2):
            w0 = p0 if b0 == "1" else 1.0 - p0
            w1 = p1 if b1 == "1" else 1.0 - p1
            state_probs[b0 + b1] = w0 * w1
        flipped = {}
        for x0, x1 in itertools.product("01", repeat=2):
            total = 0.0
            for (y, q) in state_probs.items():
                w = q
                for yi, xi in zip(y, (x0, x1)):
                    if yi == "0":
                        w *= p10 if xi == "1" else 1.0 - p10
                    else:
                        w *= p01 if xi == "0" else 1.0 - p01
                total += w
            flipped[x0 + x1] = total
        truth = sum(q * (-1.0) ** y.count("1") for y, q in state_probs.items())
        cal = ReadoutCalibration(rates=((p01, p10), (p01, p10)))
        worst = max(worst, abs(ro_correct([list(flipped.values())], ("ZZ",), cal)[0] - truth))
    print(f"criterion 8: worst analytic inversion error {worst:.3e}")
    assert worst < 1e-10

    hits = 0
    for trial in range(100):
        trial_rng = np.random.default_rng([8, trial])
        t0, t1 = trial_rng.uniform(0.0, 2.0 * math.pi, size=2)
        rates = trial_rng.uniform(0.0, 0.2, size=4)
        noise = NoiseModel(ReadoutCalibration(((rates[2], rates[0]), (rates[3], rates[1]))),
                           seed=int(trial_rng.integers(1 << 31)))
        state = apply_circuit(ansatz_product(t0, t1), zero_state(2))
        truth = expectation_exact(state, PauliSum(((1.0, "ZZ"),), 2))
        tallies = measure_pauli(state, ("ZZ",), 10_000, noise)
        cal = noise.readout
        est, se = corrected_with_plug_in_se(tallies[0], "ZZ", cal)
        assert abs(ro_correct(tallies, ("ZZ",), cal)[0] - est) < 1e-12
        if abs(est - truth) <= 4.0 * se:
            hits += 1
    print(f"criterion 8: {hits}/100 sampled trials within 4 standard errors")
    assert hits >= 95


# ------------------------------------------------------------------ criterion 9

def test_criterion_09_purification():
    # depolarized pure states at eps in {0.05, 0.2, 0.4}: convergence in under
    # 50 iterations with fidelity > 0.999; the maximally mixed state is flagged
    rng = np.random.default_rng(9)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    for eps in (0.05, 0.2, 0.4):
        rho = (1.0 - eps) * np.outer(v, v.conj()) + eps * np.eye(4) / 4.0
        out, report = mcweeny_purify(rho)
        fidelity = float(np.real(v.conj() @ out @ v))
        print(f"criterion 9: eps={eps} iters={report.iterations} fidelity={fidelity:.6f}")
        assert report.converged
        assert report.iterations < 50
        assert fidelity > 0.999

    _, flat_report = mcweeny_purify(np.eye(4) / 4.0)
    assert not flat_report.converged


# ------------------------------------------------------------------ criterion 10

def test_criterion_10_noisy_benchmark():
    # full mitigated pipeline on the default grid: depolarizing 0.02, readout
    # 0.03, 8192 shots, master seed 0; at least 5 of 7 gaps within one combined
    # standard deviation; mitigation beats raw at every sector point; < 5 min
    start = time.perf_counter()
    noise = NoiseModel.uniform(2, readout=0.03, p_dep=0.02)
    backend = BackendSpec.noisy(noise, shots=8192)
    within = 0
    mitigation_wins = []
    lines = []
    for index, lam in enumerate(DEFAULT_GRID):
        params = benchmark(lam)
        estimate = mass_gap_vqe(params, backend, ansatz="entangled", seed=[0, index])
        _, _, gap_exact = sector_minima(params)
        ok = abs(estimate.gap - gap_exact) <= estimate.gap_err
        within += ok
        ground, excited = ground_and_excited_sectors(params)
        for sector, result, child in ((ground, estimate.ground, 2),
                                      (excited, estimate.excited, 3)):
            comp = mitigation_comparison(sector, ansatz_entangled(*result.parameters), backend,
                                         seed=[0, index, child])
            mitigation_wins.append(
                abs(comp.e_mitigated - comp.e_exact) < abs(comp.e_raw - comp.e_exact))
        lines.append(f"  lambda={lam:<5} gap={estimate.gap:.4f}+-{estimate.gap_err:.4f} "
                     f"exact={gap_exact:.4f} within={bool(ok)}")
    elapsed = time.perf_counter() - start
    table = "\n".join(lines)
    print(f"criterion 10:\n{table}\n  within-1-sigma {within}/7, "
          f"mitigation wins {sum(mitigation_wins)}/{len(mitigation_wins)}, {elapsed:.0f}s")
    assert within >= 5, table
    assert all(mitigation_wins)
    assert elapsed < 300.0


# ------------------------------------------------------------------ criterion 11

def test_criterion_11_critical_exponent():
    # exponent fits on the frozen grids: nu in [0.7, 1.3] for both bare masses,
    # slope variation below 20% over the three grid points nearest lambda_c
    grids = {
        -1.5: [3.5, 4.0, 4.5, 5.0, 5.5, 6.0],
        -2.5: [9.0, 9.5, 10.0, 10.5, 11.0, 11.5],
    }
    for m0_sq, grid in grids.items():
        gaps = [mass_gap(benchmark(lam, n_max=8, m0_sq=m0_sq)) for lam in grid]
        fit = critical_exponent_fit(list(zip(grid, gaps)), window=6)
        slopes = np.diff(gaps) / np.diff(grid)
        near = slopes[:3]
        variation = float((near.max() - near.min()) / abs(near.mean()))
        print(f"criterion 11: m0_sq={m0_sq} nu={fit.nu:.3f} "
              f"lambda_c={fit.lambda_c:.3f} slope variation {variation:.1%}")
        assert 0.7 <= fit.nu <= 1.3
        assert variation < 0.2


# ------------------------------------------------------------------ criterion 12

def test_criterion_12_cli_determinism(tmp_path):
    # identical config and seed produce byte-identical benchmark.csv and
    # record.json on a stochastic backend
    cfg = {
        "model": {"L": 2, "m_sq": 1.0, "m0_sq": -1.5, "n_max": 4},
        "lambda_grid": [6.0],
        "ansatz": ["product", "entangled"],
        "backend": {"kind": "sampled", "shots": 2048},
        "seed": 7,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        code = main(["vqe", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outputs.append(((out / "benchmark.csv").read_bytes(),
                        (out / "record.json").read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    print("criterion 12: benchmark.csv and record.json byte-identical across reruns")
