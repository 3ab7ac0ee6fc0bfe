"""Truncated-Fock operator algebra and the exact-diagonalization oracle.

Each momentum mode keeps its lowest n_max oscillator levels. Ladder operators
are truncated first; every composite operator (phi^2, phi^4, ...) is then a
product of truncated matrices, so the full Hamiltonian acts on the
n_max^L-dimensional product space with mode 0 as the slowest tensor index.

The Hamiltonian is real and linear in the two couplings the scans move,

    H = H0 + delta_m A + lambda B,   A = sum_x phi(x)^2 / 2,   B = sum_x phi(x)^4 / 4!,

so H0, A and B are assembled once per Fock basis (L, m_sq, n_max) and kept as
read-only float64 matrices; every build is a weighted sum of the three, and
spectra come from the real symmetric eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import least_squares

from .lattice_model import ModelParams, momentum_grid

__all__ = [
    "Spectrum",
    "CriticalFit",
    "ladder_ops",
    "number_op",
    "quadrature",
    "embed",
    "build_H0",
    "build_field",
    "build_HI",
    "build_H",
    "exact_spectrum",
    "mass_gap",
    "solve_counterterm",
    "critical_curve",
    "critical_exponent_fit",
]

# Eigenvalue splittings below this are reported as a vanishing (degenerate) gap.
DEGENERACY_TOL = 1e-12
# Largest imaginary round-off dropped when the complex-built H0, A, B are made real.
IMAG_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues and the mass gap E1 - E0."""

    eigenvalues: np.ndarray
    gap: float
    degenerate: bool = False


@dataclass(frozen=True)
class CriticalFit:
    """Power-law fit gap = A |lambda - lambda_c|^nu over a near-critical window.

    ``slopes`` holds the finite-difference series d(gap)/d(lambda) between
    consecutive window points, ascending in lambda.
    """

    lambda_c: float
    nu: float
    amplitude: float
    residual: float
    window: tuple[float, float]
    slopes: tuple[float, ...]


def ladder_ops(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated annihilation and creation matrices (a, a_dag).

    a_dag[i+1, i] = sqrt(i+1); the truncated commutator [a, a_dag] equals the
    identity on occupancies up to n_max - 2.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    a_dag = np.zeros((n_max, n_max), dtype=complex)
    for i in range(n_max - 1):
        a_dag[i + 1, i] = math.sqrt(i + 1.0)
    return a_dag.conj().T, a_dag


def number_op(n_max: int) -> np.ndarray:
    return np.diag(np.arange(n_max, dtype=float)).astype(complex)


def quadrature(n_max: int) -> np.ndarray:
    """q = (a + a_dag) / sqrt(2), the dimensionless mode coordinate."""
    a, a_dag = ladder_ops(n_max)
    return (a + a_dag) / math.sqrt(2.0)


def embed(mode_op: np.ndarray, mode_index: int, params: ModelParams) -> np.ndarray:
    """Tensor mode_op into the L-mode product space, identities elsewhere."""
    if not 0 <= mode_index < params.L:
        raise ValueError(f"mode_index {mode_index} out of range for L={params.L}")
    eye = np.eye(params.n_max, dtype=complex)
    out = np.ones((1, 1), dtype=complex)
    for j in range(params.L):
        out = np.kron(out, mode_op if j == mode_index else eye)
    return out


def build_field(x: int, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Field and conjugate momentum at site x from the mode expansion.

    phi(x) = L^{-1/2} sum_k (2 omega_k)^{-1/2} (a_dag(k) e^{-ikx} + a(k) e^{ikx})
    pi(x)  = i L^{-1/2} sum_k (omega_k / 2)^{1/2} (a_dag(k) e^{-ikx} - a(k) e^{ikx})
    """
    if not 0 <= x < params.L:
        raise ValueError(f"site {x} out of range for L={params.L}")
    grid = momentum_grid(params)
    a, a_dag = ladder_ops(params.n_max)
    dim = params.n_max**params.L
    phi = np.zeros((dim, dim), dtype=complex)
    pi = np.zeros((dim, dim), dtype=complex)
    for j in range(params.L):
        w = grid.frequencies[j]
        phase = np.exp(1j * grid.momenta[j] * x)
        A = embed(a, j, params)
        A_dag = embed(a_dag, j, params)
        phi += (A_dag * phase.conjugate() + A * phase) / math.sqrt(2.0 * w)
        pi += 1j * math.sqrt(w / 2.0) * (A_dag * phase.conjugate() - A * phase)
    norm = 1.0 / math.sqrt(params.L)
    return phi * norm, pi * norm


@lru_cache(maxsize=8)
def _linear_parts(L: int, m_sq: float, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only float64 (H0, A, B) with H = H0 + delta_m A + lambda B, per Fock basis.

    Assembled from the complex mode operators; their imaginary parts are
    round-off, dropped only after checking that they stay below IMAG_TOL.
    """
    params = ModelParams.from_counterterm(L=L, m_sq=m_sq, delta_m=0.0, lam=0.0, n_max=n_max)

    def real(name: str, M: np.ndarray) -> np.ndarray:
        leak = float(np.max(np.abs(M.imag)))
        if leak > IMAG_TOL:
            raise ValueError(
                f"{name} at L={L}, m_sq={m_sq}, n_max={n_max} has an imaginary part of "
                f"{leak:.3e} > {IMAG_TOL:g}; the truncated Hamiltonian must be real"
            )
        out = M.real.copy()
        out.setflags(write=False)
        return out

    # Each complex part is released once its real copy exists, and H0 comes
    # last, so the peak (inside build_field) holds no more than two parts.
    dim = n_max**L
    A = np.zeros((dim, dim), dtype=complex)
    B = np.zeros((dim, dim), dtype=complex)
    for x in range(L):
        phi = build_field(x, params)[0]
        phi2 = phi @ phi
        A += phi2 / 2.0
        B += (phi2 @ phi2) / 24.0
    A = real("sum_x phi^2 / 2", A)
    B = real("sum_x phi^4 / 24", B)
    H0 = np.zeros((dim, dim), dtype=complex)
    for j, w in enumerate(momentum_grid(params).frequencies):
        H0 += w * embed(number_op(n_max), j, params)
    return real("H0", H0), A, B


def build_H0(params: ModelParams) -> np.ndarray:
    """Free Hamiltonian sum_k omega(k) n(k), diagonal, zero-point energy discarded."""
    return _linear_parts(params.L, params.m_sq, params.n_max)[0].copy()


def build_HI(params: ModelParams) -> np.ndarray:
    """Interaction sum_x [ (delta_m / 2) phi(x)^2 + (lambda / 4!) phi(x)^4 ]."""
    _, A, B = _linear_parts(params.L, params.m_sq, params.n_max)
    return params.delta_m * A + params.lam * B


def build_H(params: ModelParams) -> np.ndarray:
    """H0 + delta_m A + lambda B as a fresh writeable float64 matrix."""
    H0, A, B = _linear_parts(params.L, params.m_sq, params.n_max)
    return H0 + params.delta_m * A + params.lam * B


def exact_spectrum(H: np.ndarray) -> Spectrum:
    """All eigenvalues of a Hermitian operator, ascending, with the gap.

    Rejects non-square, smaller than 2 x 2, non-finite and non-Hermitian input,
    and raises when the eigenvalues overflow.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 2:
        raise ValueError(
            f"exact_spectrum requires a square matrix of size >= 2, got shape {H.shape}"
        )
    if not np.isfinite(H).all():
        raise ValueError("exact_spectrum requires finite entries, got NaN or inf")
    if np.max(np.abs(H - H.conj().T)) > 1e-10:
        raise ValueError("exact_spectrum requires a Hermitian matrix")
    eigenvalues = np.linalg.eigvalsh(H)
    gap = float(eigenvalues[1]) - float(eigenvalues[0])
    if not (np.isfinite(eigenvalues).all() and math.isfinite(gap)):
        raise ValueError("exact_spectrum: eigenvalues overflow; the matrix entries are too large")
    if gap < DEGENERACY_TOL:
        return Spectrum(eigenvalues=eigenvalues, gap=0.0, degenerate=True)
    return Spectrum(eigenvalues=eigenvalues, gap=gap)


def mass_gap(params: ModelParams) -> float:
    return exact_spectrum(build_H(params)).gap


def solve_counterterm(
    params: ModelParams,
    target_m_sq: float,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> float:
    """Counter term delta_m at which the squared mass gap equals target_m_sq.

    Bisection on delta_m over [-|m0_sq| - m_sq - lambda, m_sq + lambda]; the gap
    is continuous and monotone increasing in delta_m on the physical branch.
    Raises ValueError when the bracket shows no sign change.
    """
    if not target_m_sq > 0:
        raise ValueError(f"target_m_sq must be > 0, got {target_m_sq}")
    lo = -abs(params.m0_sq) - params.m_sq - params.lam
    hi = params.m_sq + params.lam

    def excess(delta: float) -> float:
        return mass_gap(params.with_delta(delta)) ** 2 - target_m_sq

    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo * f_hi > 0:
        raise ValueError(
            f"no sign change on delta_m bracket [{lo}, {hi}] "
            f"(f(lo)={f_lo:.6g}, f(hi)={f_hi:.6g})"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            break
        f_mid = excess(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def critical_curve(
    lambda_grid: list[float],
    target_gap_sq: float,
    base: ModelParams,
) -> list[tuple[float, float, str | None]]:
    """Bare mass m0^2 at which the squared gap equals target_gap_sq, per lambda.

    Each point is (lambda, m0_sq, failure). A bracket failure is not raised: its
    point carries m0_sq = NaN and the bracket message as failure (None otherwise).
    """
    points = []
    for lam in lambda_grid:
        try:
            delta = solve_counterterm(base.with_lam(lam), target_gap_sq)
        except ValueError as err:
            points.append((lam, math.nan, str(err)))
        else:
            points.append((lam, base.m_sq + delta, None))
    return points


def critical_exponent_fit(
    points: list[tuple[float, float]],
    window: int = 6,
) -> CriticalFit:
    """Least-squares power-law fit over the `window` smallest-gap points.

    The window points are the ones nearest the critical coupling when the gap
    data approaches lambda_c from above. Seeds (A, lambda_c, nu) from a linear
    pre-fit with nu = 1; lambda_c is constrained below the window.
    """
    usable = [(lam, gap) for lam, gap in points if gap > 0]
    if len(usable) < 4:
        raise ValueError(f"need at least 4 points with gap > 0, got {len(usable)}")
    usable.sort(key=lambda p: p[1])
    selected = sorted(usable[: max(window, 4)])
    lams = np.array([p[0] for p in selected])
    gaps = np.array([p[1] for p in selected])
    if np.ptp(gaps) < 1e-14:
        raise ValueError("degenerate fit input: all gaps equal")

    slope, intercept = np.polyfit(lams, gaps, 1)
    if slope > 0:
        lc0 = min(-intercept / slope, lams[0] - 1e-3)
    else:
        lc0 = lams[0] - 1.0

    def residuals(p: np.ndarray) -> np.ndarray:
        amp, lc, nu = p
        return amp * np.abs(lams - lc) ** nu - gaps

    fit = least_squares(
        residuals,
        x0=[max(slope, 1e-3), lc0, 1.0],
        bounds=([1e-8, lams[0] - 20.0, 0.05], [np.inf, lams[0] - 1e-9, 5.0]),
    )
    amp, lc, nu = fit.x
    slopes = tuple(np.diff(gaps) / np.diff(lams))
    residual = float(np.sqrt(np.mean(fit.fun**2)))
    return CriticalFit(
        lambda_c=float(lc),
        nu=float(nu),
        amplitude=float(amp),
        residual=residual,
        window=(float(lams[0]), float(lams[-1])),
        slopes=slopes,
    )
