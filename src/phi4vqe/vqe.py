"""Hybrid variational loop over the parity-sector Hamiltonians.

Energies are minimized with restarted Nelder-Mead over one of two ansatz
families: two local RotY rotations (product) or the same plus one controlled
rotation (entangled). Backends: exact statevector expectations, finite-shot
sampling, or sampled noisy estimates pushed through readout correction and
tomography + purification.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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

EXACT_XATOL = 1e-7
EXACT_FATOL = 1e-9
SAMPLED_XATOL = 1e-2
SAMPLED_MAXITER = 300
COARSE_SIMPLEX_STEP = 0.4
REFINE_STEPS = (0.1, 0.03)
REFINE_XATOL = 1e-3
REFINE_MAXITER = 400
REFINE_AVERAGING = 3
NOISE_PROBES = 5
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


def _build_circuit(theta) -> tuple[str, object]:
    if len(theta) == 2:
        return "product", ansatz_product(theta[0], theta[1])
    if len(theta) == 3:
        return "entangled", ansatz_entangled(theta[0], theta[1], theta[2])
    raise ValueError(f"parameter count {len(theta)} matches no ansatz (2 for product, 3 for entangled)")


def _require_two_qubit(sector: SectorHamiltonian) -> None:
    if sector.pauli is None:
        raise ValueError("sector block has no qubit encoding (per-mode level count is not a power of two)")
    if sector.pauli.qubit_count != 2:
        raise ValueError(
            f"sector spans {sector.block.shape[0]} states; the two-qubit ansatz needs exactly 4"
        )


def _coefficient_scale(sector: SectorHamiltonian) -> float:
    return sum(abs(c) for c, w in sector.pauli.terms if set(w) != {"I"})


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
    _, circuit = _build_circuit(theta)
    H = sector.pauli
    if backend.kind == "exact":
        return expectation_exact(apply_circuit(circuit, zero_state(2)), H)

    noise = backend.noise
    if backend.kind == "sampled":
        state = apply_circuit(circuit, zero_state(2))
        total = 0.0
        for coeff, word in H.terms:
            if set(word) == {"I"}:
                total += coeff.real
                continue
            counts = measure_pauli(state, word, backend.shots, noise)
            total += coeff.real * counts_expectation(counts)
        return total

    # noisy_mitigated
    if backend.readout_correction and cal is None:
        cal = ReadoutCalibration.from_noise_model(noise, backend.calibration_shots)
    if len(theta) == 3 and backend.purification:
        detail = tomography_2q_detail(circuit, noise, backend.shots,
                                      cal if cal is not None
                                      else ReadoutCalibration.exact_from_noise(noise))
        rho = detail.rho if backend.readout_correction else detail.rho_raw
        rho, report = mcweeny_purify(rho)
        if purification_log is not None:
            purification_log.append(report)
        return energy_from_state(rho, H)
    rho = simulate_density(circuit, noise)
    total = 0.0
    for coeff, word in H.terms:
        if set(word) == {"I"}:
            total += coeff.real
            continue
        counts = measure_pauli_density(rho, word, backend.shots, noise)
        if backend.readout_correction:
            total += coeff.real * ro_correct(counts, counts.support, cal)
        else:
            total += coeff.real * counts_expectation(counts)
    return total


def _reseeded(backend: BackendSpec, seed) -> BackendSpec:
    """Fresh copy whose noise stream starts from ``seed``; exact passes through."""
    if backend.noise is None or seed is None:
        return backend
    return dataclasses.replace(backend, noise=dataclasses.replace(backend.noise, seed=seed))


def optimize(sector: SectorHamiltonian, ansatz: str, backend: BackendSpec,
             seed=None) -> VqeResult:
    """Minimize the sector energy with Nelder-Mead from four fixed corners.

    The reported energy is the mean of ten fresh evaluations at the best
    parameters found; its standard deviation is the quoted uncertainty (zero
    on the exact backend). ``seed`` restarts the backend's random stream so
    identical inputs reproduce identical results bit for bit.
    """
    _require_two_qubit(sector)
    if ansatz == "product":
        starts = RESTARTS_PRODUCT
    elif ansatz == "entangled":
        starts = RESTARTS_ENTANGLED
    else:
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

    if backend.kind == "exact":
        best = None
        any_success = False
        for start in starts:
            res = minimize(fun, np.asarray(start, dtype=float), method="Nelder-Mead",
                           options={"xatol": EXACT_XATOL, "fatol": EXACT_FATOL})
            any_success = any_success or bool(res.success)
            if best is None or res.fun < best.fun:
                best = res
        best_x = best.x
    else:
        best_x, any_success = _optimize_stochastic(fun, starts, sector, backend)

    reports: list[PurificationReport] = []
    samples = [
        energy_objective(best_x, sector, backend, cal=cal, purification_log=reports)
        for _ in range(REEVALUATIONS)
    ]
    if max(samples) == min(samples):
        # deterministic backend: identical samples, no spread to report
        energy = float(samples[0])
        uncertainty = 0.0
    else:
        energy = float(np.mean(samples))
        uncertainty = float(np.std(samples, ddof=1))
    return VqeResult(
        ansatz=ansatz,
        parameters=tuple(float(v) for v in best_x),
        energy=energy,
        uncertainty=uncertainty,
        history=tuple(history),
        purification_reports=tuple(reports),
        converged=any_success,
        calibration=None if cal is None else cal.rates,
    )


def _simplex(x0, step: float) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    return np.vstack([x0] + [x0 + step * row for row in np.eye(len(x0))])


def _optimize_stochastic(fun, starts, sector: SectorHamiltonian,
                         backend: BackendSpec) -> tuple[np.ndarray, bool]:
    """Restarted Nelder-Mead tuned for noisy objectives.

    scipy's default initial simplex is microscopic, so under shot noise the
    simplex contracts before it ever sees the landscape; every stage therefore
    supplies a macroscopic simplex. A coarse pass over the fixed restarts is
    followed by chained refinements that average repeated evaluations and use
    the empirically probed noise floor as their function tolerance.
    """
    coarse_fatol = _coefficient_scale(sector) / math.sqrt(backend.shots)
    best = None
    any_success = False
    for start in starts:
        res = minimize(fun, np.asarray(start, dtype=float), method="Nelder-Mead",
                       options={"xatol": SAMPLED_XATOL, "fatol": coarse_fatol,
                                "maxiter": SAMPLED_MAXITER,
                                "initial_simplex": _simplex(start, COARSE_SIMPLEX_STEP)})
        any_success = any_success or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res

    probes = [fun(best.x) for _ in range(NOISE_PROBES)]
    sigma = max(float(np.std(probes, ddof=1)), 1e-12)
    best_x = best.x
    best_f = float(np.mean(probes))

    def averaged(x):
        return float(np.mean([fun(x) for _ in range(REFINE_AVERAGING)]))

    refine_fatol = 2.0 * sigma / math.sqrt(REFINE_AVERAGING)
    for step in REFINE_STEPS:
        res = minimize(averaged, best_x, method="Nelder-Mead",
                       options={"xatol": REFINE_XATOL, "fatol": refine_fatol,
                                "maxiter": REFINE_MAXITER,
                                "initial_simplex": _simplex(best_x, step)})
        if res.fun < best_f:
            best_x, best_f = res.x, float(res.fun)
    return best_x, any_success


def benchmark_sectors(params: ModelParams) -> tuple[SectorHamiltonian, SectorHamiltonian]:
    """The two sectors the gap benchmark compares: (ground, excited).

    The ground state lives in the all-even sector (+,+,...) and the first
    excited state in the sector odd in mode 0 only, (-,+,...).
    """
    blocks = parity_blocks(build_H(params), params)
    rest = ("+",) * (params.L - 1)
    return sector_by_parity(blocks, ("+",) + rest), sector_by_parity(blocks, ("-",) + rest)


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
    _, circuit = _build_circuit(theta)
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
