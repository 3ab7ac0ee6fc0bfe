"""Truncated-Fock lattice phi^4 Hamiltonians and a simulated variational solver.

The package is organized in layers: lattice_model (parameters, dispersion,
counterterms), fock_space (truncated operators, exact spectra, critical
fits), qubit_encoding (parity sectors and Pauli sums), circuit_sim (gates,
sampling, noise), mitigation (readout correction, tomography, purification),
vqe (the hybrid loop), and cli (config-driven experiments).
"""

from .circuit_sim import (
    Circuit,
    Counts,
    NoiseModel,
    ansatz_entangled,
    ansatz_product,
    apply_circuit,
    calibrate_readout,
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
    build_H0,
    build_HI,
    critical_curve,
    critical_exponent_fit,
    exact_spectrum,
    ladder_ops,
    mass_gap,
    number_op,
    quadrature,
    solve_counterterm,
)
from .lattice_model import (
    ModelParams,
    MomentumGrid,
    counterterm_continuum,
    counterterm_first_order,
    dispersion,
    momentum_grid,
)
from .mitigation import (
    PurificationReport,
    ReadoutCalibration,
    TomographyResult,
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
    qubit_count,
    sector_by_parity,
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
