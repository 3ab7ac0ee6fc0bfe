import math

import numpy as np
import pytest

from phi4vqe import fock_space
from phi4vqe.lattice_model import ModelParams, momentum_grid
from phi4vqe.fock_space import (
    build_H,
    build_H0,
    build_HI,
    critical_curve,
    critical_exponent_fit,
    embed,
    exact_spectrum,
    ladder_ops,
    mass_gap,
    number_op,
    quadrature,
    solve_counterterm,
)

SQ5 = math.sqrt(5.0)


def bench(lam=0.0, delta_m=0.0, n_max=4, m_sq=1.0, L=2):
    return ModelParams.from_counterterm(L=L, m_sq=m_sq, delta_m=delta_m,
                                        lam=lam, n_max=n_max)


# ---------------------------------------------------------------- ladder operators

def test_ladder_ops_two_levels():
    a, adag = ladder_ops(2)
    assert np.array_equal(a, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(adag, a.T)


def test_ladder_ops_sqrt_matrix_elements():
    a, _ = ladder_ops(3)
    assert a[1, 2] == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_number_operator_diagonal():
    a, adag = ladder_ops(4)
    assert np.allclose(adag @ a, np.diag([0.0, 1.0, 2.0, 3.0]), atol=1e-14)
    assert np.allclose(number_op(4), np.diag([0.0, 1.0, 2.0, 3.0]), atol=1e-14)


def test_ladder_commutator_below_truncation():
    # [a, a+] = 1 except on the highest retained level
    a, adag = ladder_ops(6)
    comm = a @ adag - adag @ a
    assert np.allclose(comm[:5, :5], np.eye(5), atol=1e-14)
    assert comm[5, 5] == pytest.approx(1.0 - 6.0, abs=1e-13)


def test_ladder_ops_rejects_trivial_truncation():
    with pytest.raises(ValueError):
        ladder_ops(1)


# ---------------------------------------------------------------- quadrature

def test_quadrature_two_levels():
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(quadrature(2), [[0.0, r], [r, 0.0]], atol=1e-15)


def test_quadrature_vacuum_variance():
    q = quadrature(4)
    assert (q @ q)[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_quadrature_squared_even_block():
    q2 = quadrature(4) @ quadrature(4)
    block = q2[np.ix_([0, 2], [0, 2])]
    r = math.sqrt(2.0) / 2.0
    assert np.allclose(block, [[0.5, r], [r, 2.5]], atol=1e-14)


def test_quadrature_hermitian():
    q = quadrature(8)
    assert np.allclose(q, q.T.conj(), atol=1e-15)


# ---------------------------------------------------------------- embedding

def test_embed_identity():
    p = bench(n_max=2)
    assert np.allclose(embed(np.eye(2), 0, p), np.eye(4), atol=1e-15)


def test_embed_mode_zero_is_slow_index():
    p = bench(n_max=2)
    n = number_op(2)
    assert np.allclose(np.diag(embed(n, 0, p)), [0.0, 0.0, 1.0, 1.0], atol=1e-15)
    assert np.allclose(np.diag(embed(n, 1, p)), [0.0, 1.0, 0.0, 1.0], atol=1e-15)


def test_embed_rejects_out_of_range_mode():
    p = bench(n_max=2)
    with pytest.raises(ValueError):
        embed(np.eye(2), 2, p)


# ---------------------------------------------------------------- free Hamiltonian

def test_build_H0_two_site_diagonal():
    H0 = build_H0(bench(n_max=2))
    assert np.allclose(np.diag(H0), [0.0, SQ5, 1.0, 1.0 + SQ5], atol=1e-14)
    assert np.allclose(H0, np.diag(np.diag(H0)), atol=1e-15)


def test_build_H0_vacuum_at_zero():
    H0 = build_H0(bench(n_max=8))
    assert np.min(np.diag(H0)) == 0.0


def test_build_H0_single_site_ladder():
    p = ModelParams.from_counterterm(L=1, m_sq=4.0, delta_m=0.0, lam=0.0, n_max=3)
    assert np.allclose(np.diag(build_H0(p)), [0.0, 2.0, 4.0], atol=1e-14)


def test_build_H0_eigenvalues_are_occupation_sums():
    p = bench(n_max=4)
    grid = momentum_grid(p)
    sums = sorted(n0 * grid.frequencies[0] + n1 * grid.frequencies[1]
                  for n0 in range(4) for n1 in range(4))
    assert np.allclose(np.sort(np.diag(build_H0(p))), sums, atol=1e-12)


# ---------------------------------------------------------------- interaction

def q_expansion_two_sites(p):
    # closed form of the L=2 interaction in mode quadratures
    grid = momentum_grid(p)
    w0, w1 = grid.frequencies
    q0 = embed(quadrature(p.n_max), 0, p)
    q1 = embed(quadrature(p.n_max), 1, p)
    quartic = (np.linalg.matrix_power(q0, 4) / w0 ** 2
               + 6.0 * (q0 @ q0 @ q1 @ q1) / (w0 * w1)
               + np.linalg.matrix_power(q1, 4) / w1 ** 2)
    quadratic = (q0 @ q0) / w0 + (q1 @ q1) / w1
    return (p.lam / 48.0) * quartic + (p.delta_m / 2.0) * quadratic


def test_build_HI_vanishes_for_free_theory():
    assert np.max(np.abs(build_HI(bench(lam=0.0, delta_m=0.0)))) == 0.0


def test_build_HI_matches_quadrature_expansion():
    p = bench(lam=24.0, delta_m=0.0, n_max=4)
    assert np.max(np.abs(build_HI(p) - q_expansion_two_sites(p))) < 1e-12


def test_build_HI_counterterm_only():
    p = bench(lam=0.0, delta_m=-1.0, n_max=4)
    assert np.max(np.abs(build_HI(p) - q_expansion_two_sites(p))) < 1e-13


def test_hamiltonian_commutes_with_mode_parity():
    p = bench(lam=10.0, delta_m=-2.5, n_max=4)
    H = build_H(p)
    signs = np.diag([(-1.0) ** n for n in range(p.n_max)])
    for mode in range(p.L):
        G = embed(signs, mode, p)
        assert np.max(np.abs(H @ G - G @ H)) < 1e-12


def test_build_H_is_sum_of_parts():
    p = bench(lam=6.0, delta_m=-1.0, n_max=4)
    assert np.allclose(build_H(p), build_H0(p) + build_HI(p), atol=1e-14)


# ---------------------------------------------------------------- linear form

def complex_field(x, p):
    # reference: the per-site field with complex phases,
    # phi(x) = L^{-1/2} sum_k (2 omega_k)^{-1/2} (a_dag(k) e^{-ikx} + a(k) e^{ikx})
    grid = momentum_grid(p)
    a, a_dag = ladder_ops(p.n_max)
    phi = 0
    for j, (k, w) in enumerate(zip(grid.momenta, grid.frequencies)):
        phase = np.exp(1j * k * x)
        phi = phi + ((embed(a_dag, j, p) * phase.conjugate() + embed(a, j, p) * phase)
                     / math.sqrt(2.0 * w))
    return phi / math.sqrt(p.L)


def per_call_complex_H(p):
    # reference: the complex per-call assembly H0 + sum_x [(dm/2) phi^2 + (lam/24) phi^4]
    grid = momentum_grid(p)
    H = sum(w * embed(number_op(p.n_max), j, p) for j, w in enumerate(grid.frequencies))
    for x in range(p.L):
        phi = complex_field(x, p)
        phi2 = phi @ phi
        H = H + (p.delta_m / 2.0) * phi2 + (p.lam / 24.0) * (phi2 @ phi2)
    return H


COUPLINGS = [(0.0, 0.0), (-1.0, 6.0), (-2.5, -3.0), (3.0, 24.0), (0.5, -0.75)]


@pytest.mark.parametrize("n_max", [4, 16])
def test_build_H_is_writeable_symmetric_float64(n_max):
    H = build_H(bench(lam=6.0, delta_m=-1.0, n_max=n_max))
    assert H.dtype == np.float64
    assert H.flags.writeable
    assert np.max(np.abs(H - H.T)) < 1e-12


@pytest.mark.parametrize("n_max", [4, 8, 16])
def test_build_H_is_linear_in_counterterm_and_coupling(n_max):
    H0 = build_H0(bench(n_max=n_max))
    A = build_HI(bench(delta_m=1.0, n_max=n_max))
    B = build_HI(bench(lam=1.0, n_max=n_max))
    for delta_m, lam in COUPLINGS:
        p = bench(lam=lam, delta_m=delta_m, n_max=n_max)
        H = build_H(p)
        assert np.max(np.abs(H - (H0 + delta_m * A + lam * B))) < 1e-12
        assert np.max(np.abs(H - per_call_complex_H(p))) < 1e-12


@pytest.mark.parametrize("n_max", [8, 16, 24])
def test_build_H_spectrum_matches_complex_reference(n_max):
    for delta_m, lam in [(-2.5, 12.0), (-1.0, -3.0)]:
        p = bench(lam=lam, delta_m=delta_m, n_max=n_max)
        want = np.linalg.eigvalsh(per_call_complex_H(p))
        got = exact_spectrum(build_H(p)).eigenvalues
        assert np.max(np.abs(got - want)) < 1e-10


def test_build_H_returns_fresh_arrays():
    p = bench(lam=6.0, delta_m=-1.0, n_max=8)
    want = build_H(p).copy()
    for build in (build_H, build_H0, build_HI):
        out = build(p)
        out += 1.0
    assert np.array_equal(build_H(p), want)


def test_build_H_assembles_each_basis_once():
    fock_space._linear_parts.cache_clear()
    p = bench(m_sq=1.37, n_max=6)
    for delta_m, lam in COUPLINGS:
        build_H(p.with_delta(delta_m).with_lam(lam))
    info = fock_space._linear_parts.cache_info()
    assert (info.misses, info.hits) == (1, len(COUPLINGS) - 1)


def translation(p):
    # T = diag(exp(2 pi i sum_j j n_j / L)), the lattice shift by one site
    phases = np.ones(1)
    for j in range(p.L):
        phases = np.kron(phases, np.exp(2j * np.pi * j * np.arange(p.n_max) / p.L))
    return phases


@pytest.mark.parametrize("L, n_max", [(3, 4), (3, 8), (4, 4)])
def test_build_H_conserves_total_momentum(L, n_max):
    t = translation(bench(L=L, n_max=n_max))
    for delta_m, lam in COUPLINGS:
        H = build_H(bench(lam=lam, delta_m=delta_m, n_max=n_max, L=L))
        assert np.max(np.abs(H * t[None, :] - t[:, None] * H)) < 1e-12


@pytest.mark.parametrize("L, n_max", [(1, 8), (3, 4), (4, 4)])
def test_build_H_matches_complex_reference_beyond_two_sites(L, n_max):
    for delta_m, lam in COUPLINGS:
        p = bench(lam=lam, delta_m=delta_m, n_max=n_max, L=L)
        ref = per_call_complex_H(p)
        assert np.max(np.abs(ref.imag)) < 1e-10
        assert np.max(np.abs(build_H(p) - ref)) < 1e-12


# ---------------------------------------------------------------- spectra

def test_exact_spectrum_free_two_level():
    spec = exact_spectrum(build_H0(bench(n_max=2)))
    assert np.allclose(spec.eigenvalues, [0.0, 1.0, SQ5, 1.0 + SQ5], atol=1e-13)
    assert spec.gap == pytest.approx(1.0, abs=1e-13)
    assert not spec.degenerate


def test_exact_spectrum_free_gap_is_reference_mass():
    p = bench(lam=0.0, delta_m=0.0, m_sq=2.5, n_max=6)
    assert exact_spectrum(build_H(p)).gap == pytest.approx(math.sqrt(2.5), abs=1e-10)


def test_exact_spectrum_rejects_non_hermitian():
    with pytest.raises(ValueError):
        exact_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("H", [np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2)), np.zeros((1, 1))])
def test_exact_spectrum_rejects_non_square(H):
    with pytest.raises(ValueError, match="square matrix of size >= 2"):
        exact_spectrum(H)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_exact_spectrum_rejects_non_finite(bad):
    H = build_H(bench(lam=6.0, n_max=4))
    H[0, 1] = H[1, 0] = bad
    with pytest.raises(ValueError, match="finite entries"):
        exact_spectrum(H)


def test_mass_gap_rejects_coupling_that_overflows_H():
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite entries"):
            # sum_x phi^4 / 24 has entries above 1 at n_max=8, so lambda B overflows
            mass_gap(bench(lam=1e308, n_max=8))


def test_exact_spectrum_rejects_overflowing_gap():
    with pytest.raises(ValueError, match="overflow"):
        exact_spectrum(np.diag([-1e308, 1e308]))


def test_exact_spectrum_flags_degenerate_gap():
    spec = exact_spectrum(np.zeros((4, 4)))
    assert spec.degenerate
    assert spec.gap == 0.0


def test_mass_gap_free_theory():
    assert mass_gap(bench(m_sq=0.25, n_max=8)) == pytest.approx(0.5, abs=1e-10)


def test_mass_gap_benchmark_regression():
    p = ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=-1.5, lam=10.0, n_max=8)
    assert mass_gap(p) == pytest.approx(0.647084000512, abs=1e-9)


def test_mass_gap_reference_independence():
    # observable gap moves by <2% under a change of reference mass at fixed bare mass
    for lam in (0.0, 5.0, 10.0):
        a = mass_gap(ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=0.5, lam=lam, n_max=12))
        b = mass_gap(ModelParams.from_bare(L=2, m_sq=1.5, m0_sq=0.5, lam=lam, n_max=12))
        assert abs(a - b) / b < 0.02


# ---------------------------------------------------------------- counterterm roots

def test_solve_counterterm_free_theory():
    # free theory: gap^2 = m_sq + delta, so the root is target - m_sq (up to truncation)
    p = bench(lam=0.0, n_max=12)
    root = solve_counterterm(p, target_m_sq=1.5)
    assert root == pytest.approx(0.5, abs=1e-6)


def test_solve_counterterm_hits_target():
    p = bench(lam=6.0, n_max=8)
    root = solve_counterterm(p, target_m_sq=1.0)
    assert mass_gap(p.with_delta(root)) ** 2 == pytest.approx(1.0, abs=1e-7)


def test_solve_counterterm_regression_values():
    root4 = solve_counterterm(bench(lam=6.0, n_max=4), target_m_sq=1.0)
    root12 = solve_counterterm(bench(lam=6.0, n_max=12), target_m_sq=1.0)
    assert root4 == pytest.approx(-1.05196962, abs=1e-6)
    assert root12 == pytest.approx(-0.97782695, abs=1e-6)
    # truncation refinement moves the root only slightly
    assert 0.0 < abs(root4 - root12) < 0.1


def test_gap_monotone_in_counterterm_near_root():
    for lam in (6.0, 10.0, 24.0):
        p = bench(lam=lam, n_max=8)
        root = solve_counterterm(p, target_m_sq=1.0)
        deltas = np.linspace(root - 2.5, root + 2.5, 11)
        gaps = [mass_gap(p.with_delta(d)) for d in deltas]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------- critical curve and fit

def test_critical_curve_free_intercept():
    base = bench(n_max=12)
    points = critical_curve([0.0], target_gap_sq=1.5, base=base)
    assert points[0][1] == pytest.approx(1.5, abs=1e-6)
    assert points[0][2] is None


def test_critical_curve_monotone_in_coupling():
    base = bench(n_max=8)
    points = critical_curve([0.0, 2.5, 5.0, 7.5, 10.0], target_gap_sq=0.25, base=base)
    m0_values = [m0 for _, m0, _ in points]
    assert all(b < a for a, b in zip(m0_values, m0_values[1:]))


def test_critical_curve_truncation_drift_grows_with_coupling():
    lo, hi = 1.0, 20.0
    c8 = {lam: m0 for lam, m0, _ in critical_curve([lo, hi], target_gap_sq=0.25,
                                                    base=bench(n_max=8))}
    c12 = {lam: m0 for lam, m0, _ in critical_curve([lo, hi], target_gap_sq=0.25,
                                                     base=bench(n_max=12))}
    assert abs(c8[lo] - c12[lo]) < abs(c8[hi] - c12[hi])


def test_critical_exponent_fit_recovers_linear_law():
    grid = [5.5 + 0.5 * i for i in range(8)]
    points = [(lam, 0.3 * (lam - 5.0)) for lam in grid]
    fit = critical_exponent_fit(points, window=6)
    assert fit.lambda_c == pytest.approx(5.0, abs=1e-6)
    assert fit.nu == pytest.approx(1.0, abs=1e-6)
    assert fit.amplitude == pytest.approx(0.3, abs=1e-6)
    assert fit.residual < 1e-10


def test_critical_exponent_fit_slopes_constant_on_linear_data():
    grid = [4.0 + 0.5 * i for i in range(8)]
    points = [(lam, 0.3 * (lam - 3.0)) for lam in grid]
    fit = critical_exponent_fit(points, window=6)
    assert np.allclose(fit.slopes, 0.3, atol=1e-9)


def test_critical_exponent_fit_rejects_flat_data():
    points = [(lam, 1.0) for lam in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
    with pytest.raises(ValueError):
        critical_exponent_fit(points, window=6)


def test_gap_linearity_in_coupling():
    # linear fit of gap(lambda) over [4, 14] at bare mass -1.5; the exact curve
    # keeps genuine curvature, so this documents how close to linear it gets
    lams = np.arange(4.0, 15.0, 1.0)
    gaps = np.array([mass_gap(ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=-1.5,
                                                    lam=lam, n_max=4))
                     for lam in lams])
    coeffs = np.polyfit(lams, gaps, 1)
    resid = gaps - np.polyval(coeffs, lams)
    r_sq = 1.0 - np.sum(resid ** 2) / np.sum((gaps - gaps.mean()) ** 2)
    assert r_sq > 0.99, f"R^2 = {r_sq:.4f}"
