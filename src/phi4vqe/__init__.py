"""Truncated-Fock lattice phi^4 Hamiltonians and a simulated variational solver.

The package is organized in layers: lattice_model (parameters, momentum grid,
counterterms), fock_space (truncated operators, (Z2, P) sector blocks, exact
spectra, critical fits), qubit_encoding (sector Hamiltonians and Pauli sums),
circuit_sim (gates, sampling, noise), mitigation (readout correction,
tomography, purification), vqe (the hybrid loop), and cli (config-driven
experiments).
"""

from .circuit_sim import (
    Circuit,
    NoiseModel,
    ReadoutCalibration,
    ansatz_entangled,
    ansatz_product,
    apply_circuit,
    counts_expectation,
    expectation_exact,
    measure_pauli,
    simulate_density,
    zero_state,
)
from .fock_space import (
    CriticalFit,
    Spectrum,
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
from .lattice_model import (
    ModelParams,
    MomentumGrid,
    counterterm_continuum,
    counterterm_first_order,
    momentum_grid,
)
from .mitigation import (
    PurificationReport,
    energy_from_state,
    mcweeny_purify,
    ro_correct,
    tomography_2q_detail,
)
from .qubit_encoding import (
    PauliSum,
    SectorHamiltonian,
    encode_matrix,
    parity_blocks,
    pauli_word_matrix,
)
from .vqe import (
    BackendSpec,
    GapEstimate,
    MitigationComparison,
    VqeResult,
    benchmark_sectors,
    energy_objective,
    mass_gap_vqe,
    mitigation_comparison,
    optimize,
    sector_minima,
)

__version__ = "0.1.0"
