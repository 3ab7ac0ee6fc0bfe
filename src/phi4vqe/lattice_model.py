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
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "MomentumGrid",
    "momentum_grid",
    "counterterm_first_order",
    "counterterm_continuum",
]


# The boundary checks every module shares; each rule and message is written here alone.

def _real(value) -> bool:
    """A finite real number that is not a bool: numpy floats and integers count."""
    if isinstance(value, np.floating):  # a float64 bound: a float16 or float32 is promoted, not cast down
        return bool(abs(value) <= np.finfo(np.float64).max)
    # abs() <= max is False for NaN and inf, and compares ints too large for a float exactly
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _int_in(value, low, high=math.inf) -> bool:
    """An integer in [low, high) that is not a bool: numpy integers count, floats do not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and low <= value < high


def _numeric(array, name: str, finite: bool = True) -> np.ndarray:
    """``array`` as an ndarray of booleans, integers, floats or complex numbers, free of NaN
    and inf unless ``finite`` is False; name labels it in the messages."""
    array = np.asarray(array)
    if array.dtype.kind not in "biufc":
        raise ValueError(f"{name} entries must be numbers, got dtype {array.dtype}")
    if finite and not np.isfinite(array).all():
        raise ValueError(f"{name} has NaN or inf entries")
    return array


@dataclass(frozen=True)
class ModelParams:
    """Single source of truth for one physics configuration.

    The counter term ``delta_m`` is stored; the bare mass
    ``m0_sq = m_sq + delta_m`` is derived from it. The constructor takes
    ``delta_m``; :meth:`from_bare` takes ``m0_sq`` instead.

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
        for name, least in (("L", 1), ("n_max", 2)):
            if not _int_in(getattr(self, name), least):
                raise ValueError(f"{name} must be an integer >= {least}, got {getattr(self, name)!r}")
        if not (_real(self.m_sq) and self.m_sq > 0):
            raise ValueError(f"reference mass m_sq must be finite, real and > 0, got {self.m_sq!r}")
        for name in ("delta_m", "lam"):
            value = getattr(self, name)
            if not _real(value):
                raise ValueError(f"{name} must be finite and real, got {value!r}")

    @property
    def m0_sq(self) -> float:
        """Bare mass of the field."""
        return self.m_sq + self.delta_m

    @classmethod
    def from_bare(cls, L: int, m_sq: float, m0_sq: float, lam: float, n_max: int) -> "ModelParams":
        if not _real(m0_sq):
            raise ValueError(f"m0_sq must be finite and real, got {m0_sq!r}")
        # m_sq is checked before it enters the difference
        return cls(L=L, m_sq=m_sq, delta_m=0.0, lam=lam, n_max=n_max).with_delta(m0_sq - m_sq)

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
    if not (_real(m_sq) and 0 < m_sq <= 64):
        raise ValueError(f"continuum formula requires 0 < m_sq <= 64, got {m_sq!r}")
    if not _real(lam):
        raise ValueError(f"lam must be finite and real, got {lam!r}")
    return -(lam / (8.0 * math.pi)) * math.log(64.0 / m_sq)
