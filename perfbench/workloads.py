"""Workload definitions shared by run.py, the worker and the reference maker.

A workload is a closed loop: one process runs its CLI commands back to back.
Commands are grouped into units; a run repeats units until its time is up, and
every unit is complete on its own (each end-to-end number is a median over
units). The workload seed becomes the config ``seed`` of every command, so on
the stochastic backends it picks the RNG stream.

Stdlib only: run.py imports this module without numpy.
"""

from __future__ import annotations

WORKLOADS = ("noisy_grid", "ideal_grid", "fock_scan")

MODEL = {"L": 2, "m_sq": 1.0, "m0_sq": -1.5, "n_max": 4}

# criterion-10 backend: depolarizing 0.02 after each CNOT, 3% readout flips
NOISY_BACKEND = {"kind": "noisy_mitigated", "shots": 8192, "calibration_shots": 100_000,
                 "p_dep": 0.02, "readout": 0.03}
SAMPLED_BACKEND = {"kind": "sampled", "shots": 8192}
EXACT_BACKEND = {"kind": "exact"}

# Both VQE workloads run the point lambda=6 of the default grid. A noisy point
# costs 15-25 s at ~1200 optimizer evaluations and up to ~2 min on RNG streams
# that need 4-7k, so a run holds one noisy point; with one coupling every run
# measures the same work per evaluation.
VQE_LAMBDA = 6.0

SPECTRUM = {
    "model": MODEL,
    "lambda_grid": [0.0, 6.0, 12.0],
    "n_max_values": [8, 16, 24],
    "eigenvalue_count": 8,
}
COUNTERTERM = {
    "firstorder": {"m_sq_values": [1.0, 0.1], "L_values": [2, 8, 32, "inf"],
                   "lambda_grid": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]},
    "roots": {"L": 2, "m_sq": 1.0, "n_max": 16, "target_m_sq": 1.0,
              "lambda_values": [6.0, 10.0], "sweep_points": 9, "sweep_halfwidth": 2.5},
}
# criterion-11 fit grids plus one critical curve
CRITICAL = {
    "model": {"L": 2, "m_sq": 1.0, "n_max": 8},
    "curves": {"target_gap_sq_values": [0.25], "lambda_grid": [0.0, 2.5, 5.0, 7.5, 10.0]},
    "fits": [{"m0_sq": -1.5, "lambda_grid": [3.5, 4.0, 4.5, 5.0, 5.5, 6.0]},
             {"m0_sq": -2.5, "lambda_grid": [9.0, 9.5, 10.0, 10.5, 11.0, 11.5]}],
    "fit_window": 6,
}


def lam_key(lam: float) -> str:
    return repr(float(lam))


def vqe_config(lam: float, ansatz, backend: dict, seed: int) -> dict:
    return {"model": MODEL, "lambda_grid": [lam], "ansatz": ansatz,
            "backend": backend, "seed": seed}


def configs(workload: str, seed: int) -> dict[str, tuple[str, dict]]:
    """Config key -> (CLI command, config) for every command the workload runs."""
    if workload == "noisy_grid":
        return {"noisy": ("vqe", vqe_config(VQE_LAMBDA, "entangled", NOISY_BACKEND, seed))}
    if workload == "ideal_grid":
        both = ["product", "entangled"]
        return {"exact": ("vqe", vqe_config(VQE_LAMBDA, both, EXACT_BACKEND, seed)),
                "sampled": ("vqe", vqe_config(VQE_LAMBDA, both, SAMPLED_BACKEND, seed))}
    if workload == "fock_scan":
        return {name: (name, dict(cfg, seed=seed))
                for name, cfg in (("spectrum", SPECTRUM), ("counterterm", COUNTERTERM),
                                  ("critical", CRITICAL))}
    raise ValueError(f"unknown workload {workload!r}")


# the config keys of one unit, run in this order
UNITS = {
    "noisy_grid": ["noisy"],
    "ideal_grid": ["exact", "sampled"],
    "fock_scan": ["spectrum", "counterterm", "critical"],
}


# Layer coverage the traced run must show: functions each workload calls, and
# functions it must bypass (zero calls).
VQE_CALLED = (
    "cli.main", "vqe.energy_objective", "vqe.optimize", "vqe.mass_gap_vqe",
    "vqe.sector_minima", "circuit_sim.apply_circuit", "qubit_encoding.parity_blocks",
    "qubit_encoding.encode_matrix", "fock_space.build_H", "fock_space.exact_spectrum",
)
DENSITY_AND_MITIGATION = (
    "circuit_sim.simulate_density", "circuit_sim.measure_pauli_density",
    "mitigation.ro_correct", "mitigation.tomography_2q_detail",
    "mitigation.mcweeny_purify", "mitigation.calibration", "vqe.mitigation_comparison",
)
COVERAGE = {
    "noisy_grid": {
        "called": VQE_CALLED + DENSITY_AND_MITIGATION + (
            "circuit_sim.measure_pauli", "circuit_sim.expectation_exact"),
        "bypassed": ("fock_space.solve_counterterm",),
        "max_dim": 16,
    },
    "ideal_grid": {
        "called": VQE_CALLED + ("circuit_sim.measure_pauli", "circuit_sim.expectation_exact"),
        "bypassed": DENSITY_AND_MITIGATION + ("fock_space.solve_counterterm",),
        "max_dim": 16,
    },
    "fock_scan": {
        "called": ("cli.main", "fock_space.build_H", "fock_space.exact_spectrum",
                   "fock_space.solve_counterterm"),
        "bypassed": (
            "vqe.energy_objective", "vqe.optimize", "vqe.mass_gap_vqe", "vqe.sector_minima",
            "circuit_sim.apply_circuit", "circuit_sim.expectation_exact",
            "circuit_sim.measure_pauli", "qubit_encoding.parity_blocks",
            "qubit_encoding.encode_matrix",
        ) + DENSITY_AND_MITIGATION,
        "max_dim": None,
    },
}
