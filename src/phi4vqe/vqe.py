"""Hybrid variational loop over the parity-sector Hamiltonians.

Energies are minimized by coordinate sweeps (sequential minimal optimization,
Nakanishi, Fujii & Todo, arXiv:1903.12166) over one of two ansatz families:
two local RotY rotations (product) or the same plus one controlled rotation
(entangled). Backends: exact statevector expectations, finite-shot sampling,
or sampled noisy estimates pushed through readout correction and tomography +
purification.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit_sim import (
    NoiseModel,
    ansatz_entangled,
    ansatz_product,
    apply_circuit,
    counts_expectation,
    expectation_exact,
    measure_pauli,
    measure_pauli_density,
    simulate_density,
    zero_state,
)
from .fock_space import build_H, exact_spectrum
from .lattice_model import ModelParams
from .mitigation import (
    PurificationReport,
    ReadoutCalibration,
    energy_from_state,
    mcweeny_purify,
    ro_correct,
    tomography_2q_detail,
)
from .qubit_encoding import SectorHamiltonian, parity_blocks, sector_by_parity

__all__ = [
    "BackendSpec",
    "VqeResult",
    "GapEstimate",
    "MitigationComparison",
    "benchmark_sectors",
    "energy_objective",
    "optimize",
    "mass_gap_vqe",
    "mitigation_comparison",
    "sector_minima",
]

BACKEND_KINDS = ("exact", "sampled", "noisy_mitigated")

# fixed restart corners; the entangled set was chosen so that every target
# state in the ansatz manifold is reached from at least one corner
RESTARTS_PRODUCT = (
    (0.0, 0.0),
    (0.0, math.pi / 2),
    (math.pi / 2, 0.0),
    (math.pi / 2, math.pi / 2),
)
RESTARTS_ENTANGLED = (
    (0.0, 0.0, 0.0),
    (0.0, math.pi / 2, math.pi / 2),
    (math.pi / 2, 0.0, math.pi / 2),
    (math.pi / 2, math.pi / 2, 0.0),
)

# sweeps per corner on the stochastic backends, so their evaluation count
# follows from the config alone; the exact backend sweeps to a tolerance
SWEEPS = 6
EXACT_TOL = 1e-12
EXACT_MAX_SWEEPS = 100
REEVALUATIONS = 10


@dataclass(frozen=True)
class BackendSpec:
    """How objective values are produced: exact, shot-sampled, or noisy+mitigated."""

    kind: str
    shots: int = 8192
    noise: NoiseModel | None = None
    readout_correction: bool = True
    purification: bool = True
    calibration_shots: int = 100_000

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind != "exact":
            if self.shots < 1:
                raise ValueError("sampling backends need shots >= 1")
            if self.noise is None:
                raise ValueError(f"backend kind {self.kind!r} needs a noise model (noiseless is fine for plain sampling)")
        if self.kind == "sampled" and self.noise is not None:
            if any(self.noise.p10) or any(self.noise.p01) or self.noise.p_dep:
                raise ValueError("kind 'sampled' is ideal shot sampling; use 'noisy_mitigated' for nonzero noise")
        if self.kind == "exact" and self.noise is not None:
            raise ValueError("exact backend takes no noise model")
        if self.calibration_shots < 1:
            raise ValueError("calibration_shots must be >= 1")

    @classmethod
    def exact(cls) -> "BackendSpec":
        return cls(kind="exact")

    @classmethod
    def sampled(cls, shots: int = 8192, seed: int = 0) -> "BackendSpec":
        return cls(kind="sampled", shots=shots, noise=NoiseModel.noiseless(2, seed=seed))

    @classmethod
    def noisy(cls, noise: NoiseModel, shots: int = 8192, readout_correction: bool = True,
              purification: bool = True, calibration_shots: int = 100_000) -> "BackendSpec":
        return cls(kind="noisy_mitigated", shots=shots, noise=noise,
                   readout_correction=readout_correction, purification=purification,
                   calibration_shots=calibration_shots)


@dataclass(frozen=True)
class VqeResult:
    ansatz: str
    parameters: tuple[float, ...]
    energy: float
    uncertainty: float
    history: tuple[float, ...]
    purification_reports: tuple[PurificationReport, ...]
    converged: bool
    calibration: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class MitigationComparison:
    """Energies from one tomography run, with and without mitigation.

    e_exact is the noiseless expectation at the same parameters, so the two
    error magnitudes isolate what correction plus purification buys.
    """

    e_exact: float
    e_mitigated: float
    e_raw: float
    report: PurificationReport


@dataclass(frozen=True)
class GapEstimate:
    """Gap benchmark for one coupling: sector optimizations and their difference."""

    ground: VqeResult
    excited: VqeResult
    gap: float
    gap_err: float


def _build_circuit(theta):
    if len(theta) == 2:
        return ansatz_product(theta[0], theta[1])
    if len(theta) == 3:
        return ansatz_entangled(theta[0], theta[1], theta[2])
    raise ValueError(f"parameter count {len(theta)} matches no ansatz (2 for product, 3 for entangled)")


def _require_two_qubit(sector: SectorHamiltonian) -> None:
    if sector.block.shape != (4, 4):
        raise ValueError(
            f"sector spans {sector.block.shape[0]} states; the two-qubit ansatz needs exactly 4"
        )


# Coordinate slices. With the other angles fixed, theta0 and theta1 each enter
# one RotY, so the energy is a + c cos(u) + s sin(u) in the offset u. theta2
# enters as -theta2/2 and +theta2/2 (the compiled controlled rotation), which
# adds the half frequency: in v = u/2 the slice is a degree-2 trigonometric
# polynomial of period 4 pi in u. Samples equally spaced over one period fix
# the coefficients by a discrete Fourier transform: 3 samples for frequency 1,
# 5 for frequencies 1/2 and 1.
def _fourier_rows(n: int) -> np.ndarray:
    """Rows mapping samples at v = 2 pi k / n to (mean, cos v, sin v, cos 2v, sin 2v, ...)."""
    v = 2.0 * np.pi * np.arange(n) / n
    harmonics = [2.0 / n * f(j * v) for j in range(1, n // 2 + 1) for f in (np.cos, np.sin)]
    return np.array([np.full(n, 1.0 / n)] + harmonics)


_OFFSETS = {3: 2.0 * np.pi * np.arange(3) / 3, 5: 4.0 * np.pi * np.arange(5) / 5}
_FIT = {n: _fourier_rows(n) for n in _OFFSETS}
_SAMPLES_PER_ANGLE = (3, 3, 5)
# coarse argmin grid over v in [-pi, pi) for the theta2 slice, refined by Newton steps
_COARSE_V = np.pi * (np.arange(16) / 8.0 - 1.0)
_COARSE_BASIS = np.array([f(j * _COARSE_V) for j in (1, 2) for f in (np.cos, np.sin)])


def _slice_minimum(values: np.ndarray) -> tuple[float, float]:
    """Offset and value of the minimum of the slice through 3 or 5 samples at _OFFSETS."""
    if len(values) == 3:
        a, c, s = _FIT[3] @ values
        return math.atan2(-s, -c), float(a - math.hypot(c, s))
    coeffs = _FIT[5] @ values
    coarse = coeffs[0] + coeffs[1:] @ _COARSE_BASIS
    k = int(np.argmin(coarse))
    a, c1, s1, c2, s2 = coeffs.tolist()
    v = float(_COARSE_V[k])
    for _ in range(8):  # quadratic convergence from within pi/16 of the minimum
        cv, sv, c2v, s2v = math.cos(v), math.sin(v), math.cos(2.0 * v), math.sin(2.0 * v)
        curvature = -(c1 * cv + s1 * sv) - 4.0 * (c2 * c2v + s2 * s2v)
        if curvature <= 0.0:
            break
        v -= (s1 * cv - c1 * sv + 2.0 * (s2 * c2v - c2 * s2v)) / curvature
    value = (a + c1 * math.cos(v) + s1 * math.sin(v)
             + c2 * math.cos(2.0 * v) + s2 * math.sin(2.0 * v))
    if value > coarse[k]:
        v, value = float(_COARSE_V[k]), float(coarse[k])
    return 2.0 * v, value


def _coordinate_sweeps(fun, start, max_sweeps: int, tol: float) -> tuple[np.ndarray, float, bool]:
    """Move each angle in turn to its slice minimum, sweep after sweep, from ``start``.

    Returns the angles, the fitted energy after the last sweep, and whether a
    sweep lowered that energy by less than ``tol`` within ``max_sweeps``.
    """
    theta = np.array(start, dtype=float)
    unit = np.eye(len(theta))
    energy = math.inf
    for _ in range(max_sweeps):
        previous = energy
        for i in range(len(theta)):
            values = [fun(theta + offset * unit[i]) for offset in _OFFSETS[_SAMPLES_PER_ANGLE[i]]]
            step, energy = _slice_minimum(np.array(values))
            theta[i] += step
        if previous - energy < tol:
            return theta, energy, True
    return theta, energy, False


def energy_objective(theta, sector: SectorHamiltonian, backend: BackendSpec,
                     cal: ReadoutCalibration | None = None,
                     purification_log: list | None = None) -> float:
    """Energy of the ansatz state under the sector Hamiltonian, per backend.

    The noisy backend samples every expectation from the depolarized density
    matrix and applies readout correction when enabled; with the entangled
    ansatz and purification enabled the energy instead comes from Tr(rho H)
    over the purified tomographic state. ``cal`` is measured on the fly when
    needed but not supplied (optimize() measures it once and reuses it).
    """
    _require_two_qubit(sector)
    circuit = _build_circuit(theta)
    H = sector.pauli
    if backend.kind == "exact":
        return expectation_exact(apply_circuit(circuit, zero_state(2)), H)

    noise = backend.noise
    correct = backend.kind == "noisy_mitigated" and backend.readout_correction
    if correct and cal is None:
        cal = ReadoutCalibration.from_noise_model(noise, backend.calibration_shots)
    if backend.kind == "sampled":
        state, measure = apply_circuit(circuit, zero_state(2)), measure_pauli
    elif len(theta) == 3 and backend.purification:
        detail = tomography_2q_detail(circuit, noise, backend.shots,
                                      cal if cal is not None
                                      else ReadoutCalibration.exact_from_noise(noise))
        rho = detail.rho if backend.readout_correction else detail.rho_raw
        rho, report = mcweeny_purify(rho)
        if purification_log is not None:
            purification_log.append(report)
        return energy_from_state(rho, H)
    else:
        state, measure = simulate_density(circuit, noise), measure_pauli_density
    words = tuple(w for _, w in H.terms if set(w) != {"I"})
    counts = measure(state, words, backend.shots, noise)
    values = ro_correct(counts.tallies, words, cal) if correct else counts_expectation(counts)
    coeffs = np.array([c.real for c, w in H.terms if set(w) != {"I"}])
    return H.coefficient("I" * H.qubit_count).real + float(coeffs @ values)


def _reseeded(backend: BackendSpec, seed) -> BackendSpec:
    """Fresh copy whose noise stream starts from ``seed``; exact passes through."""
    if backend.noise is None or seed is None:
        return backend
    return dataclasses.replace(backend, noise=dataclasses.replace(backend.noise, seed=seed))


def optimize(sector: SectorHamiltonian, ansatz: str, backend: BackendSpec,
             seed=None) -> VqeResult:
    """Minimize the sector energy by coordinate sweeps from four fixed corners.

    The exact backend sweeps until a sweep lowers the fitted energy by less
    than EXACT_TOL, at most EXACT_MAX_SWEEPS times; the stochastic backends
    run SWEEPS sweeps from every corner. The corner with the lowest fitted
    energy wins. ``converged`` is true on the exact backend when that corner
    met EXACT_TOL within the cap; the stochastic backends have no stopping
    test, so there it only records that the fixed budget ran.

    The reported energy is the mean of REEVALUATIONS fresh evaluations at the
    best parameters found and its standard deviation is the quoted
    uncertainty; the exact backend evaluates once and quotes zero. ``seed``
    restarts the backend's random stream so identical inputs reproduce
    identical results bit for bit.
    """
    _require_two_qubit(sector)
    starts = {"product": RESTARTS_PRODUCT, "entangled": RESTARTS_ENTANGLED}.get(ansatz)
    if starts is None:
        raise ValueError(f"unknown ansatz {ansatz!r}")
    backend = _reseeded(backend, seed)

    cal = None
    if backend.kind == "noisy_mitigated" and backend.readout_correction:
        cal = ReadoutCalibration.from_noise_model(backend.noise, backend.calibration_shots)

    history: list[float] = []

    def fun(x):
        val = energy_objective(x, sector, backend, cal=cal)
        history.append(float(val))
        return val

    exact = backend.kind == "exact"
    runs = [_coordinate_sweeps(fun, start, EXACT_MAX_SWEEPS if exact else SWEEPS,
                               EXACT_TOL if exact else -math.inf)
            for start in starts]
    best_x, _, settled = min(runs, key=lambda run: run[1])

    reports: list[PurificationReport] = []
    samples = [
        energy_objective(best_x, sector, backend, cal=cal, purification_log=reports)
        for _ in range(1 if exact else REEVALUATIONS)
    ]
    energy = float(np.mean(samples))
    uncertainty = 0.0 if exact else float(np.std(samples, ddof=1))
    return VqeResult(
        ansatz=ansatz,
        parameters=tuple(float(v) for v in best_x),
        energy=energy,
        uncertainty=uncertainty,
        history=tuple(history),
        purification_reports=tuple(reports),
        converged=settled or not exact,
        calibration=None if cal is None else cal.rates,
    )


@lru_cache(maxsize=8)
def benchmark_sectors(params: ModelParams) -> tuple[SectorHamiltonian, SectorHamiltonian]:
    """The two sectors the gap benchmark compares: (ground, excited).

    The ground state lives in the all-even sector (+,+,...) and the first
    excited state in the sector odd in mode 0 only, (-,+,...). Memoized on
    the frozen params, so the optimizer, the oracle and the mitigation
    comparison of one point share one build; the blocks are read-only.
    """
    blocks = parity_blocks(build_H(params), params)
    rest = ("+",) * (params.L - 1)
    pair = sector_by_parity(blocks, ("+",) + rest), sector_by_parity(blocks, ("-",) + rest)
    for sector in pair:
        sector.block.setflags(write=False)
    return pair


def mass_gap_vqe(params: ModelParams, backend: BackendSpec,
                 ansatz: str = "entangled", seed=None) -> GapEstimate:
    """Optimize the two benchmark sectors and report the gap.

    The ground and first excited states live in different parity sectors
    (see benchmark_sectors), so the gap needs no excited-state machinery
    beyond a second sector optimization. Uncertainties add in quadrature.
    """
    ground_sector, excited_sector = benchmark_sectors(params)
    seed0 = None if seed is None else [seed, 0]
    seed1 = None if seed is None else [seed, 1]
    ground = optimize(ground_sector, ansatz, backend, seed=seed0)
    excited = optimize(excited_sector, ansatz, backend, seed=seed1)
    gap = excited.energy - ground.energy
    gap_err = math.hypot(ground.uncertainty, excited.uncertainty)
    return GapEstimate(ground=ground, excited=excited, gap=gap, gap_err=gap_err)


def mitigation_comparison(sector: SectorHamiltonian, theta, backend: BackendSpec,
                          seed=None) -> MitigationComparison:
    """One tomography pass at fixed parameters, scored against the ideal value.

    The corrected and raw reconstructions come from the same counts, so the
    comparison is free of sampling luck between the two pipelines.
    """
    _require_two_qubit(sector)
    if backend.kind != "noisy_mitigated":
        raise ValueError("mitigation comparison needs the noisy_mitigated backend")
    backend = _reseeded(backend, seed)
    cal = (ReadoutCalibration.from_noise_model(backend.noise, backend.calibration_shots)
           if backend.readout_correction
           else ReadoutCalibration.exact_from_noise(backend.noise))
    circuit = _build_circuit(theta)
    detail = tomography_2q_detail(circuit, backend.noise, backend.shots, cal)
    rho, report = mcweeny_purify(detail.rho)
    e_mitigated = energy_from_state(rho, sector.pauli)
    e_raw = energy_from_state(detail.rho_raw, sector.pauli)
    e_exact = expectation_exact(apply_circuit(circuit, zero_state(2)), sector.pauli)
    return MitigationComparison(e_exact=e_exact, e_mitigated=e_mitigated,
                                e_raw=e_raw, report=report)


def sector_minima(params: ModelParams) -> tuple[float, float, float]:
    """Oracle (E0, E1, gap) from exact diagonalization of the two benchmark sectors."""
    ground, excited = benchmark_sectors(params)
    e0 = exact_spectrum(ground.block).eigenvalues[0]
    e1 = exact_spectrum(excited.block).eigenvalues[0]
    return float(e0), float(e1), float(e1 - e0)
