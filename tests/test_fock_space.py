import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq, least_squares

from conftest import embed, ladder_ops, number_op, quadrature
from phi4vqe import fock_space
from phi4vqe.lattice_model import ModelParams, momentum_grid
from phi4vqe.fock_space import (
    build_H,
    build_HI,
    critical_curve,
    critical_exponent_fit,
    exact_spectrum,
    mass_gap,
    sector_blocks,
    sector_indices,
    sector_spectrum,
    solve_counterterm,
)

SQ5 = math.sqrt(5.0)


def bench(lam=0.0, delta_m=0.0, n_max=4, m_sq=1.0, L=2):
    return ModelParams.from_counterterm(L=L, m_sq=m_sq, delta_m=delta_m,
                                        lam=lam, n_max=n_max)


# ---------------------------------------------------------------- free Hamiltonian
# build_H at delta_m = lambda = 0 is H0 + 0 A + 0 B, bit-equal to H0

def test_free_H_two_site_diagonal():
    H0 = build_H(bench(n_max=2))
    assert np.allclose(np.diag(H0), [0.0, SQ5, 1.0, 1.0 + SQ5], atol=1e-14)
    assert np.allclose(H0, np.diag(np.diag(H0)), atol=1e-15)


def test_free_H_vacuum_at_zero():
    H0 = build_H(bench(n_max=8))
    assert np.min(np.diag(H0)) == 0.0


def test_free_H_single_site_ladder():
    p = ModelParams.from_counterterm(L=1, m_sq=4.0, delta_m=0.0, lam=0.0, n_max=3)
    assert np.allclose(np.diag(build_H(p)), [0.0, 2.0, 4.0], atol=1e-14)


def test_free_H_eigenvalues_are_occupation_sums():
    p = bench(n_max=4)
    grid = momentum_grid(p)
    sums = sorted(n0 * grid.frequencies[0] + n1 * grid.frequencies[1]
                  for n0 in range(4) for n1 in range(4))
    assert np.allclose(np.sort(np.diag(build_H(p))), sums, atol=1e-12)


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
    assert np.allclose(build_H(p), build_H(p.with_delta(0.0).with_lam(0.0)) + build_HI(p),
                       atol=1e-14)


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
    H0 = build_H(bench(n_max=n_max))
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
    for build in (build_H, build_HI):
        out = build(p)
        out += 1.0
    assert np.array_equal(build_H(p), want)


def test_build_H_assembles_each_basis_once():
    fock_space._sector_parts.cache_clear()
    p = bench(m_sq=1.37, n_max=6)
    for delta_m, lam in COUPLINGS:
        build_H(p.with_delta(delta_m).with_lam(lam))
    info = fock_space._sector_parts.cache_info()
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
    spec = exact_spectrum(build_H(bench(n_max=2)))
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
    with pytest.raises(ValueError, match="^H has NaN or inf entries$"):
        exact_spectrum(H)


def test_mass_gap_rejects_coupling_that_overflows_H():
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="^H has NaN or inf entries$"):
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


# ---------------------------------------------------------------- (Z2, P) sectors

def test_sector_indices_label_occupations():
    # L=3, n_max=2: basis index 4*n0 + 2*n1 + n2; P = n1 + 2 n2 mod 3
    assert {k: v.tolist() for k, v in sector_indices(3, 2).items()} == {
        (0, 0): [0, 3], (0, 1): [6], (0, 2): [5], (1, 0): [4, 7], (1, 1): [2], (1, 2): [1],
    }


@pytest.mark.parametrize("L, n_max", [(1, 2), (1, 7), (2, 3), (3, 4), (4, 3)])
def test_sector_indices_partition_the_basis(L, n_max):
    pieces = np.concatenate(list(sector_indices(L, n_max).values()))
    assert np.array_equal(np.sort(pieces), np.arange(n_max**L))
    assert all(np.all(np.diff(v) > 0) for v in sector_indices(L, n_max).values())


@pytest.mark.parametrize("L, n_max", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_sector_spectrum_matches_dense_with_one_state_sectors(L, n_max):
    assert min(len(v) for v in sector_indices(L, n_max).values()) == 1
    for delta_m, lam in COUPLINGS:
        p = bench(lam=lam, delta_m=delta_m, n_max=n_max, L=L)
        dense = np.linalg.eigvalsh(build_H(p))
        spec = sector_spectrum(p)
        assert np.max(np.abs(spec.eigenvalues - dense)) < 1e-10
        assert mass_gap(p) == spec.gap
        assert spec.gap == pytest.approx(dense[1] - dense[0], abs=1e-10)


@pytest.mark.parametrize("entry, match", [(math.nan, "^H has NaN or inf entries$"), (1j, "Hermitian")])
def test_sector_spectrum_checks_one_state_blocks(monkeypatch, entry, match):
    monkeypatch.setattr(fock_space, "build_H", lambda params, sector=None: np.array([[entry]]))
    with pytest.raises(ValueError, match=match):
        sector_spectrum(bench(n_max=2))


def test_build_H_rejects_unknown_sector():
    with pytest.raises(ValueError, match=r"no \(Z2, P\) sector \(0, 2\)"):
        build_H(bench(n_max=4), (0, 2))


def test_sector_blocks_reject_a_part_that_couples_sectors():
    B = np.zeros((4, 4))
    B[0, 1] = B[1, 0] = 1e-9  # (n0, n1) = (0, 0) and (0, 1) differ in Z2 and P
    with pytest.raises(ValueError, match="B couples two"):
        sector_blocks(B, 2, 2, "B")


def test_sector_blocks_name_the_matrix_that_couples_sectors():
    M = np.eye(4)
    M[0, 1] = M[1, 0] = fock_space.SECTOR_TOL  # at the tolerance: accepted
    assert len(sector_blocks(M, 2, 2, "M")) == 4
    M[0, 1] = M[1, 0] = 1e-9
    message = r"^M couples two \(Z2, P\) sectors \(max \|entry\| = 1.000e-09\)$"
    with pytest.raises(ValueError, match=message):
        sector_blocks(M, 2, 2, "M")


# a non-finite diagonal entry sits inside a sector block, where the leak check never looks
@pytest.mark.parametrize("M", [np.full((16, 16), np.nan), np.diag([np.nan] + [1.0] * 15),
                               np.diag([1.0] * 15 + [np.inf])],
                         ids=["nan_everywhere", "nan_on_diagonal", "inf_on_diagonal"])
def test_sector_blocks_reject_non_finite_entries(M):
    with pytest.raises(ValueError, match="^M has NaN or inf entries$"):
        sector_blocks(M, 2, 4, "M")


SECTOR_BASES = ([(1, n) for n in range(2, 11)] + [(2, n) for n in range(2, 11)]
                + [(3, n) for n in range(2, 7)] + [(4, n) for n in range(2, 5)])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(basis=st.sampled_from(SECTOR_BASES),
       delta_m=st.floats(-100.0, 100.0), lam=st.floats(-100.0, 100.0))
@example(basis=(2, 24), delta_m=-2.5, lam=12.0)
@example(basis=(3, 5), delta_m=-100.0, lam=100.0)
def test_sector_blocks_reproduce_the_full_spectrum(basis, delta_m, lam):
    L, n_max = basis
    p = bench(lam=lam, delta_m=delta_m, n_max=n_max, L=L)
    H = build_H(p)
    for sector, indices in sector_indices(L, n_max).items():
        assert np.array_equal(build_H(p, sector), H[np.ix_(indices, indices)])
    dense = np.linalg.eigvalsh(H)
    assert np.max(np.abs(sector_spectrum(p).eigenvalues - dense)) < 1e-10


def oracle_blocks(dense_parts, L, m_sq, n_max):
    """The dense oracle sliced per (Z2, P) sector, its H0 block read as the diagonal h0.

    sector_blocks checks that nothing couples two sectors, and every H0 block
    is checked to have no off-diagonal entry, so h0 holds all of it.
    """
    sliced = [sector_blocks(part, L, n_max, name)
              for name, part in zip(("H0", "A", "B"), dense_parts(L, m_sq, n_max))]
    out = {}
    for label in sliced[0]:
        H0, A, B = (blocks[label] for blocks in sliced)
        h0 = np.diag(H0)
        assert not np.any(H0 - np.diag(h0)), label
        out[label] = (h0, A, B)
    return out


# largest n_max per L with n_max^L <= 1296
MAX_LEVELS = {1: 1296, 2: 36, 3: 10, 4: 6}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(basis=st.integers(1, 4).flatmap(
           lambda L: st.tuples(st.just(L), st.integers(2, MAX_LEVELS[L]))),
       m_sq=st.floats(0.05, 20.0))
@example(basis=(4, 6), m_sq=1.0)
@example(basis=(2, 36), m_sq=0.05)
def test_sector_parts_match_the_dense_kronecker_build(dense_parts, basis, m_sq):
    L, n_max = basis
    want = oracle_blocks(dense_parts, L, m_sq, n_max)
    got = fock_space._sector_parts(L, m_sq, n_max)
    assert list(got) == list(want)
    for label in want:
        for name, ours, ref in zip(("h0", "A", "B"), got[label], want[label]):
            scale = np.max(np.abs(ref), initial=1.0)
            assert np.max(np.abs(ours - ref)) <= 1e-12 * scale, (label, name)


@pytest.mark.parametrize("m_sq", [1.0, 1.37])
@pytest.mark.parametrize("L, n_max", [(1, 8), (2, 4), (2, 8), (2, 16)])
def test_sector_parts_are_bit_equal_to_the_dense_build_at_the_vqe_shapes(dense_parts, L, n_max,
                                                                         m_sq):
    want = oracle_blocks(dense_parts, L, m_sq, n_max)
    got = fock_space._sector_parts(L, m_sq, n_max)
    assert all(np.array_equal(ours, ref)
               for label in want for ours, ref in zip(got[label], want[label]))


@pytest.mark.parametrize("L, n_max, bound", [
    (2, 24, 2_500_000),  # one dense 576 x 576 matrix is 2.65 MB; the parts keep 1.33 MB
    (4, 6, 6_000_000),  # the parts keep 3.37 MB; all L x 2L C_q blocks at once take 13.9 MB
])
def test_sector_parts_build_without_a_full_space_matrix(L, n_max, bound):
    fock_space._sector_parts.cache_clear()
    tracemalloc.start()
    try:
        parts = fock_space._sector_parts(L, 1.0, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert all(part.shape[0] < n_max**L for blocks in parts.values() for part in blocks)


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


def bisect_counterterm(params, target_m_sq):
    """Reference oracle: plain bisection on the bracket solve_counterterm uses."""
    lo = -abs(params.m0_sq) - params.m_sq - params.lam
    hi = params.m_sq + params.lam

    def excess(delta):
        return mass_gap(params.with_delta(delta)) ** 2 - target_m_sq

    f_lo = excess(lo)
    assert f_lo * excess(hi) <= 0
    while hi - lo >= 1e-8:
        mid = 0.5 * (lo + hi)
        f_mid = excess(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


# (lambda, n_max, target): the benchmark counterterm roots (n_max 16), the
# critical-curve points (n_max 8, target 0.25), and a coupling grid at n_max 4 and 8
ROOT_CASES = ([(lam, 16, 1.0) for lam in (6.0, 10.0)]
              + [(lam, 8, 0.25) for lam in (0.0, 2.5, 5.0, 7.5, 10.0)]
              + [(lam, n_max, 1.0) for n_max in (4, 8) for lam in (0.0, 6.0, 24.0)])


@pytest.mark.parametrize("lam, n_max, target", ROOT_CASES)
def test_solve_counterterm_matches_bisection(lam, n_max, target):
    p = bench(lam=lam, n_max=n_max)
    assert abs(solve_counterterm(p, target) - bisect_counterterm(p, target)) <= 1e-8


def traced_brentq(f, a, b, xtol):
    """scipy.optimize.brentq's root and every point it evaluates f at, in order."""
    points = []
    root = brentq(lambda x: points.append(x) or f(x), a, b, xtol=xtol)
    return root, points


# f = sign (c1 (x - r) + c3 (x - r)^3 + c5 atan(k (x - r))): monotone, one root r
BRENT_CASES = st.tuples(
    st.floats(-10.0, 10.0), st.floats(1e-3, 10.0), st.floats(0.0, 10.0),
    st.floats(0.0, 10.0), st.floats(0.1, 100.0), st.sampled_from([1.0, -1.0]),
    st.floats(1e-3, 20.0), st.floats(1e-3, 20.0), st.booleans(),
    st.floats(-14.0, -1.0),
)


@settings(max_examples=300, deadline=None)
@given(case=BRENT_CASES)
@example(case=(0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, False, -8.0))  # root at the midpoint
@example(case=(1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, False, -8.0))  # f(b) = 0 (b = r)
def test_brentq_port_matches_scipy_point_for_point(case):
    r, c1, c3, c5, k, sign, below, above, swap, log_xtol = case

    def f(x):
        u = x - r
        return sign * (c1 * u + c3 * u**3 + c5 * math.atan(k * u))

    a, b = r - below, r + above
    if swap:
        a, b = b, a
    points = []
    root = fock_space._brentq(lambda x: points.append(x) or f(x), a, b, f(a), f(b),
                              xtol=10.0**log_xtol)
    want_root, want_points = traced_brentq(f, a, b, 10.0**log_xtol)
    assert root == want_root
    assert [a, b] + points == want_points


def test_brentq_port_matches_scipy_on_a_tight_step_test():
    # here one interpolated step lands within delta of the bound 3 |sbis| - delta
    # (one case in about 19,000 random ones), so that bound must be ported exactly
    c, r = -2.254418855196028, -2.6048102204038726

    def f(x):
        return math.exp(c * x) - math.exp(c * r)

    a, b, xtol = -6.427461829578059, 2.818309662617497, 0.0010805230444066532
    points = []
    root = fock_space._brentq(lambda x: points.append(x) or f(x), a, b, f(a), f(b), xtol=xtol)
    assert (root, [a, b] + points) == traced_brentq(f, a, b, xtol)


@pytest.mark.parametrize("lam, n_max, target", ROOT_CASES)
def test_solve_counterterm_evaluates_scipy_brentqs_points(monkeypatch, lam, n_max, target):
    p = bench(lam=lam, n_max=n_max)
    lo = -abs(p.m0_sq) - p.m_sq - p.lam
    hi = p.m_sq + p.lam
    want_root, want_points = traced_brentq(
        lambda d: mass_gap(p.with_delta(d)) ** 2 - target, lo, hi, xtol=1e-8)
    deltas = []
    monkeypatch.setattr(fock_space, "mass_gap",
                        lambda params: deltas.append(params.delta_m) or mass_gap(params))
    assert solve_counterterm(p, target) == want_root
    assert deltas == want_points


def test_brentq_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match=r"^f\(a\) and f\(b\) must have different signs$"):
        fock_space._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0, xtol=1e-8)


def test_brentq_raises_when_it_runs_out_of_iterations():
    with pytest.raises(ValueError, match=r"^Brent's method did not converge in 2 iterations"):
        fock_space._brentq(lambda x: x**3 - 2.0, 0.0, 2.0, -2.0, 6.0, xtol=1e-12, maxiter=2)


def test_critical_curve_records_a_root_that_does_not_converge(monkeypatch):
    monkeypatch.setattr(fock_space, "_brentq", functools.partial(fock_space._brentq, maxiter=2))
    points = critical_curve([0.0, 2.5], target_gap_sq=0.25, base=bench(n_max=4))
    assert [lam for lam, _, _ in points] == [0.0, 2.5]
    assert all(math.isnan(m0) for _, m0, _ in points)
    assert all(failure.startswith("Brent's method did not converge in 2 iterations")
               for _, _, failure in points)


@pytest.mark.parametrize("lam", [6.0, 10.0, 24.0])
def test_solve_counterterm_needs_few_gap_evaluations(monkeypatch, lam):
    calls = []
    monkeypatch.setattr(fock_space, "mass_gap",
                        lambda params: calls.append(params) or mass_gap(params))
    solve_counterterm(bench(lam=lam, n_max=8), target_m_sq=1.0)
    assert len(calls) <= 20


@pytest.mark.parametrize("lam", [0.0, 6.0, 24.0])
def test_solve_counterterm_evaluates_each_bracket_end_once(monkeypatch, lam):
    params = bench(lam=lam, n_max=8)
    lo = -abs(params.m0_sq) - params.m_sq - params.lam
    hi = params.m_sq + params.lam
    deltas = []
    monkeypatch.setattr(fock_space, "mass_gap",
                        lambda p: deltas.append(p.delta_m) or mass_gap(p))
    solve_counterterm(params, target_m_sq=1.0)
    assert deltas[:2] == [lo, hi]
    assert lo not in deltas[2:] and hi not in deltas[2:]


def test_solve_counterterm_bracket_failure_names_both_ends():
    # the free gap^2 = m_sq + delta stays below 100 on [-2, 1]
    message = (r"^no sign change on delta_m bracket \[-2\.0, 1\.0\] "
               r"\(f\(lo\)=-\S+, f\(hi\)=-\S+\)$")
    with pytest.raises(ValueError, match=message):
        solve_counterterm(bench(lam=0.0, n_max=4), target_m_sq=100.0)


@pytest.mark.parametrize("target", [0.0, -1.0, math.inf, math.nan])
def test_solve_counterterm_rejects_a_target_that_is_not_finite_and_positive(target):
    with pytest.raises(ValueError, match=r"^target_m_sq must be a finite number > 0, got"):
        solve_counterterm(bench(lam=6.0, n_max=4), target_m_sq=target)


def test_solve_counterterm_passes_a_gap_error_through(monkeypatch):
    # the bracket is [-8, 7]: its ends evaluate normally, any interior point fails
    def failing_gap(params):
        if -8.0 < params.delta_m < 7.0:
            raise ValueError(f"gap failed at delta_m={params.delta_m}")
        return mass_gap(params)

    monkeypatch.setattr(fock_space, "mass_gap", failing_gap)
    with pytest.raises(ValueError, match=r"^gap failed at delta_m=-?\d"):
        solve_counterterm(bench(lam=6.0, n_max=4), target_m_sq=1.0)


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


# gap = 0.3 (lambda - 5) at lambda = 5.5 ... 9.0
LINEAR_POINTS = [(5.5 + 0.5 * i, 0.3 * (0.5 + 0.5 * i)) for i in range(8)]


@pytest.mark.parametrize("window", [0, -3, True, 2.5])
def test_critical_exponent_fit_rejects_bad_window(window):
    with pytest.raises(ValueError, match=r"window must be an integer >= 4"):
        critical_exponent_fit(LINEAR_POINTS, window=window)


@pytest.mark.parametrize("point, message", [
    ((7.0, math.inf), r"gap at coupling 7\.0 must be finite, got inf"),
    ((7.0, math.nan), r"gap at coupling 7\.0 must be finite, got nan"),
    ((math.nan, 0.6), r"coupling must be finite, got nan"),
    ((math.inf, 0.6), r"coupling must be finite, got inf"),
    ((6.5, 0.6), r"coupling 6\.5 repeats"),
], ids=["inf-gap", "nan-gap", "nan-coupling", "inf-coupling", "repeated-coupling"])
def test_critical_exponent_fit_rejects_bad_points(point, message):
    points = list(LINEAR_POINTS)
    points[3] = point  # in place of (7.0, 0.6)
    with pytest.raises(ValueError, match=message):
        critical_exponent_fit(points, window=6)


@pytest.mark.parametrize("point, message", [
    (("7.0", 0.6), r"^coupling must be finite, got '7\.0'$"),
    ((7.0, "0.6"), r"^gap at coupling 7\.0 must be finite, got '0\.6'$"),
    ((10**400, 0.6), r"^coupling must be finite, got 1000"),
], ids=["string-coupling", "string-gap", "int-beyond-float"])
def test_critical_exponent_fit_rejects_points_that_are_not_real_numbers(point, message):
    # these used to end in a TypeError or an OverflowError from math.isfinite
    points = list(LINEAR_POINTS)
    points[3] = point
    with pytest.raises(ValueError, match=message):
        critical_exponent_fit(points, window=6)


@pytest.mark.parametrize("target", ["1.0", 10**400, None], ids=["string", "int-beyond-float", "none"])
def test_solve_counterterm_rejects_a_target_that_is_not_a_real_number(target):
    # these used to end in a TypeError or an OverflowError from math.isfinite
    with pytest.raises(ValueError, match=r"^target_m_sq must be a finite number > 0, got"):
        solve_counterterm(bench(lam=6.0, n_max=4), target_m_sq=target)


def test_critical_exponent_fit_still_drops_non_positive_gaps():
    fit = critical_exponent_fit(LINEAR_POINTS + [(4.0, 0.0), (4.5, -0.2)], window=6)
    assert fit == critical_exponent_fit(LINEAR_POINTS, window=6)


def fit_window(n_max, m0_sq):
    grid = FIT_GRIDS[m0_sq]
    gaps = [mass_gap(ModelParams.from_bare(L=2, m_sq=1.0, m0_sq=m0_sq, lam=lam, n_max=n_max))
            for lam in grid]
    return list(zip(grid, gaps))


# criterion-11 windows at m0_sq -1.5 and -2.5, and one between them
FIT_GRIDS = {-1.5: [3.5, 4.0, 4.5, 5.0, 5.5, 6.0], -2.0: [6.0, 6.5, 7.0, 7.5, 8.0, 8.5],
             -2.5: [9.0, 9.5, 10.0, 10.5, 11.0, 11.5]}


def least_squares_fit(points, tight=False):
    """scipy's bounded 3-parameter fit of A (lambda - lambda_c)^nu from the same start.

    Default settings are the old critical_exponent_fit call; tight adds
    ftol = xtol = gtol = 1e-15 and the analytic Jacobian.
    """
    lams, gaps = np.array(points).T
    slope, intercept = np.polyfit(lams, gaps, 1)
    lc0 = min(-intercept / slope, lams[0] - 1e-3)

    def jac(p):
        amp, lc, nu = p
        b = (lams - lc) ** nu
        return np.column_stack([b, -amp * nu * b / (lams - lc), amp * b * np.log(lams - lc)])

    options = dict(ftol=1e-15, xtol=1e-15, gtol=1e-15, jac=jac) if tight else {}
    return least_squares(lambda p: p[0] * np.abs(lams - p[1]) ** p[2] - gaps,
                         x0=[max(slope, 1e-3), lc0, 1.0],
                         bounds=([1e-8, lams[0] - 20.0, 0.05], [np.inf, lams[0] - 1e-9, 5.0]),
                         **options)


@pytest.mark.parametrize("m0_sq", sorted(FIT_GRIDS))
@pytest.mark.parametrize("n_max", range(6, 13))
def test_critical_exponent_fit_matches_tight_least_squares(n_max, m0_sq):
    # with its default finite-difference Jacobian, least_squares stops up to
    # 1.8e-8 (relative) from the exact minimum of these windows, so the oracle
    # gets the analytic one
    points = fit_window(n_max, m0_sq)
    fit = critical_exponent_fit(points, window=6)
    amp, lc, nu = least_squares_fit(points, tight=True).x
    assert fit.converged
    assert fit.lambda_c == pytest.approx(lc, rel=1e-8)
    assert fit.nu == pytest.approx(nu, rel=1e-8)
    assert fit.amplitude == pytest.approx(amp, rel=1e-8)


@pytest.mark.parametrize("m0_sq", [-1.5, -2.5])
def test_critical_exponent_fit_converges_on_the_benchmark_windows(m0_sq):
    assert critical_exponent_fit(fit_window(8, m0_sq), window=6).converged


def test_critical_exponent_fit_finds_the_minimum_on_the_lambda_c_bound():
    # at n_max 4 the least-squares minimum sits on lambda_c = 3.5 - 20, where
    # least_squares with default settings stops short at its evaluation cap
    points = fit_window(4, -1.5)
    fit = critical_exponent_fit(points, window=6)
    reference = least_squares_fit(points)
    assert fit.converged
    assert fit.lambda_c == 3.5 - 20.0
    assert 6 * fit.residual**2 <= 2 * reference.cost


@pytest.mark.parametrize("m0_sq", sorted(FIT_GRIDS))
def test_critical_exponent_fit_says_the_lambda_c_bound_set_its_answer(m0_sq):
    fit = critical_exponent_fit(fit_window(4, m0_sq), window=6)
    assert fit.lambda_c == FIT_GRIDS[m0_sq][0] - 20.0
    assert fit.at_bound == "lambda_c"


@pytest.mark.parametrize("m0_sq", [-1.5, -2.5])
def test_critical_exponent_fit_on_the_benchmark_windows_is_off_its_bounds(m0_sq):
    assert critical_exponent_fit(fit_window(8, m0_sq), window=6).at_bound is None


def test_critical_exponent_fit_says_the_nu_bound_set_its_answer():
    # gap = (lambda + 1)^0.02 over lambda 0..5: the exponent wants 0.02, below the bound 0.05
    points = [(lam, (lam + 1.0) ** 0.02) for lam in range(6)]
    fit = critical_exponent_fit(points, window=6)
    assert fit.nu == 0.05
    assert -20.0 < fit.lambda_c < -1e-9
    assert fit.at_bound == "nu"


def test_critical_exponent_fit_names_lambda_c_when_both_bounds_set_the_answer():
    # gap = 0.01 (lambda + 1)^8: nu ends on 5 and lambda_c on its upper bound 0 - 1e-9
    fit = critical_exponent_fit([(lam, 0.01 * (lam + 1.0) ** 8) for lam in range(6)], window=6)
    assert (fit.lambda_c, fit.nu) == (-1e-9, 5.0)
    assert fit.at_bound == "lambda_c"


def test_critical_exponent_fit_reports_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(fock_space, "FIT_MAXITER", 1)
    fit = critical_exponent_fit(fit_window(8, -1.5), window=6)
    assert not fit.converged
    assert math.isfinite(fit.lambda_c) and math.isfinite(fit.nu)


def test_critical_exponent_fit_clips_a_start_below_the_lambda_c_bound():
    # the linear pre-fit puts lambda_c at -25, below the bound 0 - 20
    points = [(lam, 0.01 * (lam + 25.0)) for lam in (0.0, 1.0, 2.0, 3.0)]
    fit = critical_exponent_fit(points, window=4)
    assert fit.converged
    assert fit.lambda_c == -20.0


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
