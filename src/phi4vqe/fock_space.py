"""Truncated-Fock operator algebra and the exact-diagonalization oracle.

Each momentum mode keeps its lowest n_max oscillator levels; a basis state is
an occupation label (n_0, ..., n_{L-1}), indexed with mode 0 as the slowest
tensor index. The ladder operators are truncated first: a lowers n > 0 to
n - 1 with weight sqrt(n), a_dag raises n < n_max - 1 to n + 1 with weight
sqrt(n + 1) and annihilates the top level, and every composite operator is a
product of those truncated real operators.

The Hamiltonian is real and linear in the two couplings the scans move,

    H = H0 + delta_m A + lambda B,   A = sum_x phi(x)^2 / 2,   B = sum_x phi(x)^4 / 4!.

With the momentum-pair fields Phi_k = (a_k + a_dag_{-k}) / sqrt(2 omega_k)
(mode indices mod L), phi(x) = L^{-1/2} sum_k e^{ikx} Phi_k, and the site sums
turn the phases into momentum conservation:

    sum_x phi^2 = C_0,   sum_x phi^4 = (1/L) sum_q C_q C_{-q},   C_q = sum_k Phi_k Phi_{q-k}.

H conserves the field parity Z2 = sum_j n_j mod 2 and the total momentum
P = sum_j j n_j mod L (in units of 2 pi / L) of a basis state, labelled by
sector_indices. Phi_k maps sector (Z2, P) onto (1 - Z2, P - k) alone, so the
identities above hold block by block: each Phi_k block is filled from the
occupation labels, and A and B are products of those blocks, built in real
arithmetic once per Fock basis (L, m_sq, n_max), one C_q block at a time, and
kept as read-only float64 blocks per (Z2, P) sector beside the diagonal of H0.
No n_max^L matrix is formed: build_H(params, sector) is a weighted sum of one
sector's parts, and spectra and gaps diagonalize every block with the real
symmetric eigensolver and merge their levels. build_H and build_HI without a sector scatter the
blocks into the n_max^L matrix, for small bases; sector_blocks slices such a
matrix back (qubit_encoding.parity_blocks wraps it) and rejects one that
couples two sectors."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice_model import ModelParams, _int_in, _numeric, _real, momentum_grid

__all__ = [
    "Spectrum",
    "CriticalFit",
    "build_HI",
    "build_H",
    "sector_indices",
    "sector_blocks",
    "exact_spectrum",
    "sector_spectrum",
    "mass_gap",
    "solve_counterterm",
    "critical_curve",
    "critical_exponent_fit",
]

# Eigenvalue splittings below this are reported as a vanishing (degenerate) gap.
DEGENERACY_TOL = 1e-12
# Largest matrix entry allowed between two (Z2, P) sectors.
SECTOR_TOL = 1e-10
# Absolute delta_m tolerance of the Brent root search in solve_counterterm.
COUNTERTERM_TOL = 1e-8
# critical_exponent_fit: smallest amplitude, and the iteration cap and relative
# step tolerance of its Levenberg-Marquardt loop.
FIT_MIN_AMPLITUDE = 1e-8
FIT_MAXITER = 200
FIT_TOL = 1e-15
_EPS = 2.0**-52  # float64 machine epsilon


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
    consecutive window points, ascending in lambda. ``converged`` is False
    when the fit stopped at its iteration cap. ``at_bound`` names the
    parameter that ended on one of its fit bounds, "lambda_c" before "nu", so
    that the bound and not the data set it; None when neither did.
    """

    lambda_c: float
    nu: float
    amplitude: float
    residual: float
    window: tuple[float, float]
    slopes: tuple[float, ...]
    converged: bool
    at_bound: str | None


@lru_cache(maxsize=None)
def sector_indices(L: int, n_max: int) -> dict[tuple[int, int], np.ndarray]:
    """Basis indices of every non-empty (Z2, P) sector, ascending, keyed in (Z2, P) order.

    Z2 = sum_j n_j mod 2 and P = sum_j j n_j mod L of the occupation labels,
    mode 0 the slowest tensor index. The index arrays are read-only.
    """
    occ = np.indices((n_max,) * L).reshape(L, -1)
    z2, p = occ.sum(axis=0) % 2, np.arange(L) @ occ % L
    out = {}
    for label in itertools.product(range(2), range(L)):
        indices = np.flatnonzero((z2 == label[0]) & (p == label[1]))
        if indices.size:
            indices.setflags(write=False)
            out[label] = indices
    return out


def sector_blocks(M: np.ndarray, L: int, n_max: int) -> dict[tuple[int, int], np.ndarray]:
    """Read-only blocks M[sector, sector] per (Z2, P) sector, keyed in sector_indices order.

    Rows and columns follow sector_indices. Raises ValueError when M has a
    non-numeric, NaN or inf entry, is not n_max^L square, or has an entry above
    SECTOR_TOL between two sectors, so that the blocks hold the whole matrix;
    the messages call M "H", the matrix parity_blocks passes.
    """
    M = _numeric(M, "H")
    if M.shape != (n_max**L, n_max**L):
        raise ValueError(f"expected a {n_max**L} x {n_max**L} matrix for L={L}, "
                         f"n_max={n_max}, got shape {M.shape}")
    sectors = sector_indices(L, n_max)
    rest = np.abs(M)
    for indices in sectors.values():
        rest[np.ix_(indices, indices)] = 0.0
    leak = rest.max()
    if leak > SECTOR_TOL:
        raise ValueError(f"H couples two (Z2, P) sectors (max |entry| = {leak:.3e})")
    blocks = {label: M[np.ix_(indices, indices)] for label, indices in sectors.items()}
    for block in blocks.values():
        block.setflags(write=False)
    return blocks


@lru_cache(maxsize=8)
def _sector_parts(L: int, m_sq: float, n_max: int) -> dict[tuple[int, int], tuple[np.ndarray, ...]]:
    """Read-only float64 (h0, A, B) per (Z2, P) sector, built once per Fock basis.

    H = diag(h0) + delta_m A + lambda B: H0 is diagonal, so it is kept as the
    vector h0. Phi_k maps sector (z, P) onto (1 - z, P - k) alone, so each of
    its blocks is filled straight from the source sector's occupation labels.
    C_q = sum_k Phi_k Phi_{q-k}, A = C_0 / 2 and B = sum_q C_q C_{-q} / (24 L)
    are @ products of those blocks (see the module docstring); keyed in
    sector_indices order. The build holds one C_q block at a time: M_q, the
    block of C_q into sector s, gives A[s] = M_0 / 2 and the term M_q M_q^T of
    B[s], since C_{-q} = C_q^T; at L >= 3 that transpose sums the k terms in
    another order than C_{-q} itself, so it may differ in the last bit. The vqe
    outputs at (L, n_max) = (1, 8) and (2, 4) rest on the rounding of @:
    OpenBLAS's dgemm fuses multiply-adds, so sums of separately rounded
    products differ from it in the last bit.
    """
    params = ModelParams(L=L, m_sq=m_sq, delta_m=0.0, lam=0.0, n_max=n_max)
    omega = momentum_grid(params).frequencies
    sectors = sector_indices(L, n_max)  # all 2L of them: n_max >= 2 fills each
    position = np.empty(n_max**L, dtype=np.intp)  # basis index -> row in its sector
    for indices in sectors.values():
        position[indices] = np.arange(indices.size)
    stride = n_max ** np.arange(L - 1, -1, -1)

    def field(k, z, p):
        """The dense block of Phi_k = (a_k + a_dag_{-k}) / sqrt(2 omega_k) from (z, p) to (1 - z, p - k)."""
        indices = sectors[z, p]
        n = np.unravel_index(indices, (n_max,) * L)
        norm = math.sqrt(2.0 * omega[k])
        out = np.zeros((sectors[1 - z, (p - k) % L].size, indices.size))
        down = np.flatnonzero(n[k] > 0)  # a_k
        out[position[indices[down] - stride[k]], down] = np.sqrt(n[k][down]) / norm
        up = np.flatnonzero(n[-k % L] < n_max - 1)  # a_dag_{-k}, which annihilates the top level
        out[position[indices[up] + stride[-k % L]], up] = np.sqrt(n[-k % L][up] + 1) / norm
        return out

    # Phi entries are >= 0, so a sum started from its first term equals one
    # started from 0 bit for bit; k and q run in ascending order, summed in place
    parts = {}
    for z, p in sectors:
        for q in range(L):
            # the block of C_q from (z, p + q) into (z, p), its k term Phi_k Phi_{q-k}
            M = field(0, 1 - z, p) @ field(q, z, (p + q) % L)
            for k in range(1, L):
                M += field(k, 1 - z, (p + k) % L) @ field((q - k) % L, z, (p + q) % L)
            if q == 0:
                A, B = M / 2.0, M @ np.ascontiguousarray(M.T)
            else:
                B += M @ np.ascontiguousarray(M.T)
            del M
        B /= 24.0 * L
        h0 = sum(w * n for w, n in zip(omega, np.unravel_index(sectors[z, p], (n_max,) * L)))
        parts[z, p] = (h0, A, B)
        for part in parts[z, p]:
            part.setflags(write=False)
    return parts


def _weighted(parts: tuple[np.ndarray, ...], params: ModelParams) -> np.ndarray:
    """diag(h0) + delta_m A + lambda B of one sector's parts, as a fresh matrix."""
    h0, A, B = parts
    out = params.delta_m * A
    out.reshape(-1)[::h0.size + 1] += h0  # the diagonal, as a strided view
    out += params.lam * B
    return out


def _scatter(params: ModelParams, combine) -> np.ndarray:
    """combine(parts) per (Z2, P) sector, scattered into a fresh n_max^L matrix."""
    dim = params.n_max**params.L
    out = np.zeros((dim, dim))
    blocks = _sector_parts(params.L, params.m_sq, params.n_max)
    for sector, indices in sector_indices(params.L, params.n_max).items():
        out[np.ix_(indices, indices)] = combine(blocks[sector])
    return out


def build_HI(params: ModelParams) -> np.ndarray:
    """Interaction sum_x [ (delta_m / 2) phi(x)^2 + (lambda / 4!) phi(x)^4 ] on n_max^L states."""
    return _scatter(params, lambda parts: params.delta_m * parts[1] + params.lam * parts[2])


def build_H(params: ModelParams, sector: tuple[int, int] | None = None) -> np.ndarray:
    """H0 + delta_m A + lambda B as a fresh writeable float64 matrix.

    With a (Z2, P) sector label, only that sector's block, rows and columns in
    the order of sector_indices. Without one, the n_max^L matrix those blocks
    fill, zero between sectors; only small bases need it.
    """
    if sector is None:
        return _scatter(params, lambda parts: _weighted(parts, params))
    blocks = _sector_parts(params.L, params.m_sq, params.n_max)
    if sector not in blocks:
        raise ValueError(f"no (Z2, P) sector {sector} at L={params.L}, "
                         f"n_max={params.n_max}; sectors: {sorted(blocks)}")
    return _weighted(blocks[sector], params)


def _require_finite_hermitian(H: np.ndarray, caller: str) -> None:
    _numeric(H, "H")
    # a real H is compared with H.T directly, and an exactly Hermitian one
    # (every block build_H makes) skips the difference matrix
    adjoint = H.T if np.isrealobj(H) else H.conj().T
    if not np.array_equal(H, adjoint) and np.max(np.abs(H - adjoint)) > 1e-10:
        raise ValueError(f"{caller} requires a Hermitian matrix")


def _spectrum(eigenvalues: np.ndarray) -> Spectrum:
    gap = float(eigenvalues[1]) - float(eigenvalues[0])
    if not (np.isfinite(eigenvalues).all() and math.isfinite(gap)):
        raise ValueError("exact_spectrum: eigenvalues overflow; the matrix entries are too large")
    if gap < DEGENERACY_TOL:
        return Spectrum(eigenvalues=eigenvalues, gap=0.0, degenerate=True)
    return Spectrum(eigenvalues=eigenvalues, gap=gap)


def exact_spectrum(H: np.ndarray) -> Spectrum:
    """All eigenvalues of a Hermitian operator, ascending, with the gap.

    Rejects non-square, smaller than 2 x 2, non-numeric, non-finite and non-Hermitian input,
    and raises when the eigenvalues overflow.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 2:
        raise ValueError(
            f"exact_spectrum requires a square matrix of size >= 2, got shape {H.shape}"
        )
    _require_finite_hermitian(H, "exact_spectrum")
    return _spectrum(np.linalg.eigvalsh(H))


def sector_spectrum(params: ModelParams) -> Spectrum:
    """The spectrum of build_H(params), merged from its (Z2, P) sector blocks.

    Every sector is diagonalized, so the gap takes E1 from whichever sector
    holds it. A one-state block is its own eigenvalue, after the same input
    checks as exact_spectrum.
    """
    levels = []
    for sector in sector_indices(params.L, params.n_max):
        block = build_H(params, sector)
        if block.shape[0] == 1:
            _require_finite_hermitian(block, "sector_spectrum")
            levels.append(block[0])
        else:
            levels.append(exact_spectrum(block).eigenvalues)
    return _spectrum(np.sort(np.concatenate(levels)))


def mass_gap(params: ModelParams) -> float:
    return sector_spectrum(params).gap


def _brentq(f, xa: float, xb: float, fa: float, fb: float, xtol: float,
            maxiter: int = 100) -> float:
    """A root of f in [xa, xb] by Brent's method (Brent 1973), given fa = f(xa), fb = f(xb).

    Follows the classic C brentq operation for operation, with its default
    relative tolerance 4 eps, so it evaluates f at the same points and returns
    the same root as that reference implementation. Raises ValueError when fa
    and fb have the same sign or when maxiter iterations do not converge.
    """
    xpre, xcur, fpre, fcur = float(xa), float(xb), fa, fb
    xblk = fblk = spre = scur = 0.0
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4 * _EPS * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise ValueError(f"Brent's method did not converge in {maxiter} iterations, "
                     f"last point {xcur!r}")


def solve_counterterm(params: ModelParams, target_m_sq: float) -> float:
    """Counter term delta_m at which the squared mass gap equals target_m_sq.

    Brent's method on delta_m over [-|m0_sq| - m_sq - lambda, m_sq + lambda],
    to COUNTERTERM_TOL; the gap is continuous and monotone increasing in
    delta_m on the physical branch. Raises ValueError when the bracket shows
    no sign change or Brent's method does not converge; an error inside
    mass_gap reaches the caller unchanged.
    """
    if not (_real(target_m_sq) and target_m_sq > 0):
        raise ValueError(f"target_m_sq must be a finite number > 0, got {target_m_sq!r}")
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
    return _brentq(excess, lo, hi, f_lo, f_hi, xtol=COUNTERTERM_TOL)


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


def _power_law_fit(lams: np.ndarray, gaps: np.ndarray, start, lower, upper):
    """Least-squares gap = A (lambda - lambda_c)^nu by variable projection.

    For each (lambda_c, nu) the amplitude is the linear least-squares one, held
    at FIT_MIN_AMPLITUDE or above (Golub & Pereyra 1973), so a damped
    Gauss-Newton (Levenberg-Marquardt) loop with the analytic Jacobian of the
    projected residuals runs over (lambda_c, nu) alone, from start (clipped
    into [lower, upper]) and within those bounds. Returns (lambda_c, nu, amplitude, residuals, converged).
    """
    def project(theta):
        lc, nu = theta
        d = lams - lc
        b = d**nu
        bb = b @ b
        amp = max(b @ gaps / bb, FIT_MIN_AMPLITUDE)
        db = np.column_stack([-nu * b / d, b * np.log(d)])  # d b / d (lambda_c, nu)
        jac = amp * db
        if amp > FIT_MIN_AMPLITUDE:  # the amplitude moves with (lambda_c, nu)
            jac += np.outer(b, (gaps - 2.0 * amp * b) @ db / bb)
        return amp, amp * b - gaps, jac

    theta = np.clip(np.asarray(start, dtype=float), lower, upper)
    amp, res, jac = project(theta)
    cost, damping = res @ res, 1e-3
    for _ in range(FIT_MAXITER):
        grad = jac.T @ res
        # a parameter on a bound that the gradient pushes outward stays there
        free = ~(((theta <= lower) & (grad > 0)) | ((theta >= upper) & (grad < 0)))
        step = np.zeros(2)
        if free.any():
            normal = jac[:, free].T @ jac[:, free]
            step[free] = np.linalg.solve(normal + damping * np.diag(np.diag(normal)), -grad[free])
        size = np.linalg.norm(step)
        if size <= FIT_TOL * (FIT_TOL + np.linalg.norm(theta)):
            return float(theta[0]), float(theta[1]), float(amp), res, True
        trial = np.clip(theta + step, lower, upper)
        amp_t, res_t, jac_t = project(trial)
        # a step under sqrt(eps) relative moves the cost by less than its
        # rounding, so it is taken on the Jacobian's word
        cost_t = res_t @ res_t
        if cost_t < cost or size <= math.sqrt(_EPS) * np.linalg.norm(theta):
            theta, amp, res, jac, cost = trial, amp_t, res_t, jac_t, cost_t
            damping /= 10.0
        else:
            damping *= 10.0
    return float(theta[0]), float(theta[1]), float(amp), res, False


def critical_exponent_fit(
    points: list[tuple[float, float]],
    window: int = 6,
) -> CriticalFit:
    """Least-squares power-law fit over the `window` smallest-gap points.

    The window points are the ones nearest the critical coupling when the gap
    data approaches lambda_c from above. Starts from lambda_c of a linear
    pre-fit and nu = 1, and keeps lambda_c in [lambda_min - 20, lambda_min)
    and nu in [0.05, 5] (see _power_law_fit). Points with gap <= 0 are
    dropped. Raises ValueError when window is not an integer >= 4, when a
    coupling or a gap is NaN or inf, or when a coupling repeats.
    """
    if not _int_in(window, 4):
        raise ValueError(f"window must be an integer >= 4, got {window!r}")
    seen = set()
    for lam, gap in points:
        if not _real(lam):
            raise ValueError(f"coupling must be finite, got {lam!r}")
        if not _real(gap):
            raise ValueError(f"gap at coupling {lam!r} must be finite, got {gap!r}")
        if lam in seen:
            raise ValueError(f"coupling {lam!r} repeats")
        seen.add(lam)
    usable = [(lam, gap) for lam, gap in points if gap > 0]
    if len(usable) < 4:
        raise ValueError(f"need at least 4 points with gap > 0, got {len(usable)}")
    usable.sort(key=lambda p: p[1])
    selected = sorted(usable[:window])
    lams = np.array([p[0] for p in selected])
    gaps = np.array([p[1] for p in selected])
    if np.ptp(gaps) < 1e-14:
        raise ValueError("degenerate fit input: all gaps equal")

    slope, intercept = np.polyfit(lams, gaps, 1)
    if slope > 0:
        lc0 = min(-intercept / slope, lams[0] - 1e-3)
    else:
        lc0 = lams[0] - 1.0
    lower, upper = [lams[0] - 20.0, 0.05], [lams[0] - 1e-9, 5.0]
    lc, nu, amp, res, converged = _power_law_fit(lams, gaps, start=[lc0, 1.0],
                                                 lower=lower, upper=upper)
    on_bound = [name for name, value, lo, hi in zip(("lambda_c", "nu"), (lc, nu), lower, upper)
                if value in (lo, hi)]
    return CriticalFit(
        lambda_c=lc,
        nu=nu,
        amplitude=amp,
        residual=float(np.sqrt(np.mean(res**2))),
        window=(float(lams[0]), float(lams[-1])),
        slopes=tuple(np.diff(gaps) / np.diff(lams)),
        converged=converged,
        at_bound=on_bound[0] if on_bound else None,
    )
