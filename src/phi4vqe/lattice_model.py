"""Model parameters and closed-form lattice quantities.

The model is a real scalar field with a quartic self-interaction on a periodic
chain of L sites (lattice spacing fixed to 1). The Hamiltonian is split as

    H = H0(m^2) + H_I(delta_m, lambda),      delta_m = m0^2 - m^2,

where m^2 > 0 is an arbitrary reference mass defining the oscillator basis and
m0^2 is the bare mass of the field. Mode frequencies follow the dispersion
relation omega(k)^2 = m^2 + 4 sin^2(k/2) on the dual lattice k = 2 pi j / L.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "MomentumGrid",
    "momentum_grid",
    "dispersion",
    "counterterm_first_order",
    "counterterm_continuum",
]


@dataclass(frozen=True)
class ModelParams:
    """Single source of truth for one physics configuration.

    The counter term ``delta_m`` is stored; the bare mass
    ``m0_sq = m_sq + delta_m`` is derived from it. Use :meth:`from_bare` or
    :meth:`from_counterterm` to supply either one.

    ``lam`` may be negative at the library level (finite-difference probes of
    the renormalization condition evaluate the gap at lambda = +-epsilon); the
    CLI rejects negative couplings in experiment configurations.
    """

    L: int
    m_sq: float
    delta_m: float
    lam: float
    n_max: int

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError(f"L must be a positive integer, got {self.L}")
        if not (math.isfinite(self.m_sq) and self.m_sq > 0):
            raise ValueError(f"reference mass m_sq must be finite and > 0, got {self.m_sq}")
        for name in ("delta_m", "lam"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n_max < 2:
            raise ValueError(f"n_max must be at least 2, got {self.n_max}")

    @property
    def m0_sq(self) -> float:
        """Bare mass of the field."""
        return self.m_sq + self.delta_m

    @classmethod
    def from_bare(cls, L: int, m_sq: float, m0_sq: float, lam: float, n_max: int) -> "ModelParams":
        if not math.isfinite(m0_sq):
            raise ValueError(f"m0_sq must be finite, got {m0_sq}")
        return cls(L=L, m_sq=m_sq, delta_m=m0_sq - m_sq, lam=lam, n_max=n_max)

    @classmethod
    def from_counterterm(
        cls, L: int, m_sq: float, delta_m: float, lam: float, n_max: int
    ) -> "ModelParams":
        return cls(L=L, m_sq=m_sq, delta_m=delta_m, lam=lam, n_max=n_max)

    def with_delta(self, delta_m: float) -> "ModelParams":
        """Same configuration with a new counter term (bare mass follows)."""
        return dataclasses.replace(self, delta_m=delta_m)

    def with_lam(self, lam: float) -> "ModelParams":
        return dataclasses.replace(self, lam=lam)


@dataclass(frozen=True)
class MomentumGrid:
    """Dual-lattice momenta k = 2 pi j / L, j ascending, with frequencies omega(k)."""

    momenta: np.ndarray
    frequencies: np.ndarray


def dispersion(k: float, m_sq: float) -> float:
    """Nonnegative root of omega(k)^2 = m_sq + 4 sin^2(k/2)."""
    radicand = m_sq + 4.0 * math.sin(k / 2.0) ** 2
    if radicand < 0:
        raise ValueError(f"negative dispersion radicand {radicand}: unphysical reference mass")
    return math.sqrt(radicand)


def momentum_grid(params: ModelParams) -> MomentumGrid:
    momenta = 2.0 * np.pi * np.arange(params.L) / params.L
    frequencies = np.sqrt(params.m_sq + 4.0 * np.sin(momenta / 2.0) ** 2)
    return MomentumGrid(momenta=momenta, frequencies=frequencies)


def counterterm_first_order(params: ModelParams) -> float:
    """First-order counter term delta_m = -(lambda / 4L) sum_k 1/omega(k).

    Linear in lambda and exact to first order in perturbation theory: with this
    choice the O(lambda) correction to the mass gap cancels.
    """
    grid = momentum_grid(params)
    return -(params.lam / (4.0 * params.L)) * float(np.sum(1.0 / grid.frequencies))


def counterterm_continuum(m_sq: float, lam: float) -> float:
    """Infinite-lattice limit of the first-order counter term.

    Valid for 0 < m_sq <= 64, where the closed form is
    -(lambda / 8 pi) log(64 / m^2); rejected outside that range rather than
    extrapolated.
    """
    if not 0 < m_sq <= 64:
        raise ValueError(f"continuum formula requires 0 < m_sq <= 64, got {m_sq}")
    return -(lam / (8.0 * math.pi)) * math.log(64.0 / m_sq)
