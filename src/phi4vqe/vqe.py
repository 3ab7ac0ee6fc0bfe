"""Hybrid variational loop over the symmetry-sector Hamiltonians.

Energies are minimized by coordinate sweeps (sequential minimal optimization,
Nakanishi, Fujii & Todo, arXiv:1903.12166) over one of the ANSATZE families:
two local RotY rotations (product) or the same plus one controlled rotation
(entangled). Backends: exact statevector expectations, finite-shot sampling,
or a noisy two-qubit tomography per evaluation with readout correction and
purification. The four restart corners advance in lockstep; each coordinate
slice of every active corner is one batch, as are the re-evaluations at the
optimum: one circuit-simulation stack, one multinomial draw and one
purification, in each state's eigenbasis.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit_sim import (
    Circuit,
    NoiseModel,
    ReadoutCalibration,
    _check_seed,
    _check_shots,
    ansatz_entangled,
    ansatz_product,
    apply_circuit,
    counts_expectation,
    expectation_exact,
    measure_pauli,
    zero_state,
)
from .fock_space import build_H, exact_spectrum
from .lattice_model import ModelParams
from .mitigation import (
    PurificationReport,
    _purify,
    _reports,
    energy_from_state,
    mcweeny_purify,
    tomography_2q_detail,
)
from .qubit_encoding import SectorHamiltonian, parity_blocks

__all__ = [
    "ANSATZE",
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

# name -> (circuit builder, fixed restart corners, slice samples per angle,
# each a key of _OFFSETS). The entangled corners were chosen so that every
# target state in the ansatz manifold is reached from at least one corner.
ANSATZE = {
    "product": (ansatz_product, ((0.0, 0.0), (0.0, math.pi / 2), (math.pi / 2, 0.0),
                                 (math.pi / 2, math.pi / 2)), (3, 3)),
    "entangled": (ansatz_entangled, ((0.0, 0.0, 0.0), (0.0, math.pi / 2, math.pi / 2),
                                     (math.pi / 2, 0.0, math.pi / 2),
                                     (math.pi / 2, math.pi / 2, 0.0)), (3, 3, 5)),
}

# sweeps per corner on the stochastic backends, so their evaluation count
# follows from the config alone; the exact backend sweeps to a tolerance
SWEEPS = 6
EXACT_TOL = 1e-12
EXACT_MAX_SWEEPS = 100
REEVALUATIONS = 10
# zero flip rates: readout correction with them is the raw tomography estimate
_RAW = ReadoutCalibration(((0.0, 0.0),) * 2)


@dataclass(frozen=True)
class BackendSpec:
    """How objective values are produced: BackendSpec("exact"), BackendSpec.sampled(shots,
    seed) or BackendSpec("noisy_mitigated", noise=noise). The field defaults are the
    program's one home of backend defaults; ``sampled`` and the CLI schema read them."""

    kind: str
    shots: int = 8192
    noise: NoiseModel | None = None
    readout_correction: bool = True
    purification: bool = True
    calibration_shots: int = 100_000

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        for name in ("readout_correction", "purification"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.kind != "exact":
            _check_shots("shots", self.shots)
            if not isinstance(self.noise, NoiseModel):
                raise ValueError(f"backend kind {self.kind!r} needs a noise model (noiseless is fine for plain sampling), got {self.noise!r}")
            if self.noise.n_qubits != 2:
                raise ValueError(f"noise model covers {self.noise.n_qubits} qubits; "
                                 "the ansatz circuits act on 2")
        if self.kind == "sampled" and (any(map(any, self.noise.readout.rates)) or self.noise.p_dep):
            raise ValueError("kind 'sampled' is ideal shot sampling; use 'noisy_mitigated' for nonzero noise")
        if self.kind == "exact" and self.noise is not None:
            raise ValueError("exact backend takes no noise model")
        _check_shots("calibration_shots", self.calibration_shots)

    @classmethod
    def sampled(cls, shots: int = shots, seed: int = 0) -> "BackendSpec":
        """Ideal shot sampling: the noiseless noise model on two qubits, seeded; shots
        defaults to the shots field's default."""
        return cls(kind="sampled", shots=shots, noise=NoiseModel.uniform(2, seed=seed))


@dataclass(frozen=True)
class VqeResult:
    ansatz: str
    parameters: tuple[float, ...]
    energy: float
    uncertainty: float
    history: tuple[float, ...]  # slice by slice, each active corner's samples in turn
    purification_reports: tuple[PurificationReport, ...]
    converged: bool
    calibration: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class MitigationComparison:
    """Energies from one tomography run, with and without mitigation.

    e_exact is the noiseless expectation of the same circuit, so the two
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
# coarse argmin grid over v in [-pi, pi) for the theta2 slice, refined by Newton steps
_COARSE_V = np.pi * (np.arange(16) / 8.0 - 1.0)
_COARSE_BASIS = np.array([f(j * _COARSE_V) for j in (1, 2) for f in (np.cos, np.sin)])


def _slice_minima(values: np.ndarray) -> np.ndarray:
    """Offsets and values of the minima of r slices, each through its row of 3 or 5
    samples at _OFFSETS: (r, n) samples give a (2, r) array of (offsets, values).

    The Fourier fits and the coarse grid are one stacked product each (row for row
    bit-equal to a matrix-vector product); the angles and Newton steps stay scalar,
    since np.arctan2 and np.hypot can differ from math's in the last bit.
    """
    n = values.shape[1]
    coeffs = (_FIT[n] @ values[:, :, None])[:, :, 0]
    if n == 3:
        return np.array([(math.atan2(-s, -c), a - math.hypot(c, s))
                         for a, c, s in coeffs.tolist()]).T
    coarse = coeffs[:, :1] + (coeffs[:, None, 1:] @ _COARSE_BASIS)[:, 0]
    minima = []
    for (a, c1, s1, c2, s2), k, row in zip(coeffs.tolist(), coarse.argmin(axis=1).tolist(),
                                           coarse.tolist()):
        v = float(_COARSE_V[k])
        for _ in range(8):  # quadratic convergence from within pi/16 of the minimum
            cv, sv, c2v, s2v = math.cos(v), math.sin(v), math.cos(2.0 * v), math.sin(2.0 * v)
            curvature = -(c1 * cv + s1 * sv) - 4.0 * (c2 * c2v + s2 * s2v)
            if curvature <= 0.0:
                break
            step = (s1 * cv - c1 * sv + 2.0 * (s2 * c2v - c2 * s2v)) / curvature
            if step == 0.0:  # a fixed point: every later step would be zero too
                break
            v -= step
        value = (a + c1 * math.cos(v) + s1 * math.sin(v)
                 + c2 * math.cos(2.0 * v) + s2 * math.sin(2.0 * v))
        if value > row[k]:
            v, value = float(_COARSE_V[k]), row[k]
        minima.append((2.0 * v, value))
    return np.array(minima).T


def _coordinate_sweeps(fun, starts, sample_counts: tuple[int, ...], max_sweeps: int,
                       tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Move each angle of every corner in ``starts`` (r, d) in turn to its slice minimum,
    fitted through ``sample_counts[i]`` samples at _OFFSETS for angle i.

    The corners advance in lockstep: each slice of every active corner is one
    call of ``fun``. A corner stops once a sweep lowers its fitted energy by
    less than ``tol``, or after ``max_sweeps``. Returns the (r, d) angles, the
    fitted energies after each corner's last sweep, and which corners met ``tol``.
    """
    theta = np.array(starts, dtype=float)
    unit = np.eye(theta.shape[1])
    energy = np.full(len(theta), math.inf)
    active = np.arange(len(theta))
    for _ in range(max_sweeps):
        previous = energy[active]
        for i, n in enumerate(sample_counts):
            probes = theta[active, None] + _OFFSETS[n][:, None] * unit[i]
            values = fun(probes.reshape(-1, len(unit))).reshape(len(active), n)
            steps, energy[active] = _slice_minima(values)
            theta[active, i] += steps
        active = active[~(previous - energy[active] < tol)]
        if not active.size:
            break
    return theta, energy, ~np.isin(np.arange(len(theta)), active)


def energy_objective(circuit: Circuit, sector: SectorHamiltonian, backend: BackendSpec,
                     cal: ReadoutCalibration | None = None,
                     purification_log: list | None = None) -> float | np.ndarray:
    """Energy of the circuit's state from |00> under the sector Hamiltonian, per backend.

    One circuit gives a float, and a batch of k circuits gives k energies
    from one batch: the same values, draws and purification reports as k
    calls in batch order. The sampled backend
    measures the Hamiltonian's words on the statevector. Every noisy
    evaluation is one two-qubit tomography of the depolarized state (all 15
    non-identity words, drawn for the whole batch at once) and one
    reconstruction: readout-corrected with ``cal``, or with zero flip rates
    (the raw estimate) when correction is off, whatever ``cal`` says. The
    energy is Tr(rho H), purified first when purification is on and the
    circuit has a CNOT, the only gate the depolarizer follows. Tr(rho H)
    weighs only the Hamiltonian's own words, so without purification it
    equals the word-by-word estimate. ``cal`` is measured on the fly when
    correcting but not supplied (optimize() measures it once and reuses it).
    """
    _require_two_qubit(sector)
    if not isinstance(circuit, Circuit):
        raise ValueError(f"energy_objective takes a Circuit, got {circuit!r}")
    if circuit.qubit_count != 2:
        raise ValueError(f"energy_objective takes a 2-qubit circuit, got one on "
                         f"{circuit.qubit_count} qubits")
    single = circuit.batch_size is None
    if single:  # a batch of one, so every backend branch sees (k, ...) stacks
        circuit = Circuit(circuit.qubit_count, tuple(
            (kind, a, np.array([b])) if kind == "ry" else (kind, a, b) for kind, a, b in circuit.gates))
    H = sector.pauli
    if backend.kind == "exact":
        energies = expectation_exact(apply_circuit(circuit, zero_state(2)), H)
    elif backend.kind == "sampled":
        words = tuple(w for _, w in H.terms if set(w) != {"I"})
        tallies = measure_pauli(apply_circuit(circuit, zero_state(2)), words, backend.shots,
                                backend.noise)
        coeffs = np.array([c.real for c, w in H.terms if set(w) != {"I"}])
        # a stack of (1, W) @ (W, 1) products: row for row bit-equal to one dot per row,
        # where a (k, W) @ (W,) matrix-vector product can differ in the last bit
        energies = H.coefficient("I" * H.qubit_count).real + (
            counts_expectation(tallies, words)[:, None, :] @ coeffs[:, None])[:, 0, 0]
    else:
        if not backend.readout_correction:
            cal = _RAW
        elif cal is None:
            cal = ReadoutCalibration.from_noise_model(backend.noise, backend.calibration_shots)
        (rho,) = tomography_2q_detail(circuit, backend.noise, backend.shots, cal)
        if backend.purification and any(gate[0] == "cx" for gate in circuit.gates):
            rho, stats = _purify(rho)
            if purification_log is not None:
                purification_log.extend(_reports(stats))
        energies = energy_from_state(rho, H)
    return float(energies[0]) if single else energies


def _reseeded(backend: BackendSpec, seed) -> BackendSpec:
    """Fresh copy whose noise stream starts from ``seed``; exact passes through, its
    seed checked all the same, so every backend rejects the same seeds."""
    if seed is None:
        return backend
    _check_seed(seed)
    return backend if backend.noise is None else dataclasses.replace(
        backend, noise=dataclasses.replace(backend.noise, seed=seed))


def optimize(sector: SectorHamiltonian, ansatz: str, backend: BackendSpec,
             seed=None) -> VqeResult:
    """Minimize the sector energy by coordinate sweeps from four fixed corners.

    The four corners advance in lockstep; each coordinate slice of every
    active corner is one batch. On the exact backend a corner sweeps until a
    sweep lowers its fitted energy by less than EXACT_TOL, at most
    EXACT_MAX_SWEEPS times; the stochastic backends run SWEEPS sweeps from
    every corner. The corner with the lowest fitted energy wins. ``converged``
    is true on the exact backend when that corner met EXACT_TOL within the
    cap; the stochastic backends have no stopping test, so there it only
    records that the fixed budget ran.

    The reported energy is the mean of REEVALUATIONS fresh evaluations at the
    best parameters found and its standard deviation is the quoted
    uncertainty; the exact backend evaluates once and quotes zero. ``seed``
    restarts the backend's random stream so identical inputs reproduce
    identical results bit for bit.
    """
    _require_two_qubit(sector)
    if not (isinstance(ansatz, str) and ansatz in ANSATZE):
        raise ValueError(f"unknown ansatz {ansatz!r}")
    build, starts, sample_counts = ANSATZE[ansatz]
    backend = _reseeded(backend, seed)

    cal = None
    if backend.kind == "noisy_mitigated" and backend.readout_correction:
        cal = ReadoutCalibration.from_noise_model(backend.noise, backend.calibration_shots)

    history: list[float] = []

    def fun(thetas):
        values = energy_objective(build(*thetas.T), sector, backend, cal=cal)
        history.extend(values.tolist())
        return values

    exact = backend.kind == "exact"
    budget = (EXACT_MAX_SWEEPS, EXACT_TOL) if exact else (SWEEPS, -math.inf)
    thetas, energies, settled = _coordinate_sweeps(fun, starts, sample_counts, *budget)
    best = min(range(len(starts)), key=energies.__getitem__)
    best_x = thetas[best]

    reports: list[PurificationReport] = []
    samples = energy_objective(build(*np.tile(best_x, (1 if exact else REEVALUATIONS, 1)).T),
                               sector, backend, cal=cal, purification_log=reports)
    energy = float(np.mean(samples))
    uncertainty = 0.0 if exact else float(np.std(samples, ddof=1))
    return VqeResult(
        ansatz=ansatz,
        parameters=tuple(float(v) for v in best_x),
        energy=energy,
        uncertainty=uncertainty,
        history=tuple(history),
        purification_reports=tuple(reports),
        converged=bool(settled[best]) or not exact,
        calibration=None if cal is None else cal.rates,
    )


@lru_cache(maxsize=8)
def benchmark_sectors(params: ModelParams) -> tuple[SectorHamiltonian, SectorHamiltonian]:
    """The two sectors the gap benchmark compares: (ground, excited).

    The ground state lives in the even zero-momentum sector (Z2, P) = (0, 0)
    and the first excited state, one quantum at rest, in (1, 0). Memoized on
    the frozen params, so the optimizer, the oracle and the mitigation
    comparison of one point share one build; the blocks are read-only.
    """
    sectors = {sector.label: sector for sector in parity_blocks(build_H(params), params)}
    return sectors[(0, 0)], sectors[(1, 0)]


def mass_gap_vqe(params: ModelParams, backend: BackendSpec,
                 ansatz: str = "entangled", seed=None) -> GapEstimate:
    """Optimize the two benchmark sectors and report the gap.

    The ground and first excited states live in different (Z2, P) sectors
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


def mitigation_comparison(sector: SectorHamiltonian, circuit: Circuit, backend: BackendSpec,
                          seed=None) -> MitigationComparison:
    """One tomography pass of one circuit, scored against the ideal value.

    The mitigated energy is full mitigation whatever the backend's switches:
    correction with a freshly sampled readout calibration, then purification.
    The raw one is the same tomography at zero flip rates. Both come from
    the same counts, so the comparison is free of sampling luck between the
    two pipelines.
    """
    _require_two_qubit(sector)
    if backend.kind != "noisy_mitigated":
        raise ValueError("mitigation comparison needs the noisy_mitigated backend")
    backend = _reseeded(backend, seed)
    if not isinstance(circuit, Circuit) or circuit.batch_size is not None:
        raise ValueError(f"mitigation comparison takes one circuit, got {circuit!r}")
    cal = ReadoutCalibration.from_noise_model(backend.noise, backend.calibration_shots)
    rho, rho_raw = tomography_2q_detail(circuit, backend.noise, backend.shots, cal, _RAW)
    rho, report = mcweeny_purify(rho)
    e_mitigated = energy_from_state(rho, sector.pauli)
    e_raw = energy_from_state(rho_raw, sector.pauli)
    e_exact = expectation_exact(apply_circuit(circuit, zero_state(2)), sector.pauli)
    return MitigationComparison(e_exact=e_exact, e_mitigated=e_mitigated,
                                e_raw=e_raw, report=report)


def sector_minima(params: ModelParams) -> tuple[float, float, float]:
    """Oracle (E0, E1, gap) from exact diagonalization of the two benchmark sectors."""
    ground, excited = benchmark_sectors(params)
    e0 = exact_spectrum(ground.block).eigenvalues[0]
    e1 = exact_spectrum(excited.block).eigenvalues[0]
    return float(e0), float(e1), float(e1 - e0)
