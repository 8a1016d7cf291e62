"""Physical parameters of the emitter + two-mode chiral cavity system.

All rates are dimensionless, expressed in units of a reference decay rate
gamma0 = 1 (conversions to eV live in :mod:`epqed.ldos` and the CLI).
Frequencies are absolute; most computations subtract a rotating-frame
reference so only detunings matter.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def _as_tuple(value) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),)
    return tuple(float(v) for v in value)


@dataclass(frozen=True)
class ModelParams:
    """Rates and phases of the emitter(s) + two CCW-mode cavity.

    omega0 and phi_azim accept a scalar (applied to every qubit) or one
    value per qubit.  r_abs is the mirror reflectivity |r|; phi_prop the
    propagation phase of the waveguide round trip; phi_azim the azimuthal
    phase(s) set by the emitter position(s).  Only delta_phi
    = phi_prop - 2*phi_azim is physical for a single emitter.
    """

    omega0: float | tuple[float, ...] = 0.0
    omega_c: float = 0.0
    gamma: float = 1.0
    kappa: float = 20.0
    g: float = 1.0
    r_abs: float = 1.0
    phi_prop: float = 0.0
    phi_azim: float | tuple[float, ...] = 0.0

    def __post_init__(self):
        for name in ("gamma", "kappa", "g"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.r_abs <= 1.0:
            raise ValueError(f"r_abs must lie in [0, 1], got {self.r_abs}")

    @property
    def n_qubits(self) -> int:
        """Number of qubits implied by per-qubit fields (>= 1)."""
        n = 1
        for v in (self.omega0, self.phi_azim):
            if not np.isscalar(v):
                n = max(n, len(v))
        return n

    def _per_qubit(self, name: str, n: int | None) -> tuple[float, ...]:
        """Field `name` as one value per qubit, a scalar broadcast to all n."""
        vals = _as_tuple(getattr(self, name))
        n = n or self.n_qubits
        if len(vals) == 1:
            vals = vals * n
        if len(vals) != n:
            raise ValueError(f"{name} has {len(vals)} entries, expected {n}")
        return vals

    def omega0_list(self, n: int | None = None) -> tuple[float, ...]:
        return self._per_qubit("omega0", n)

    def phi_azim_list(self, n: int | None = None) -> tuple[float, ...]:
        return self._per_qubit("phi_azim", n)

    @property
    def delta_phi(self) -> float:
        """phi_prop - 2*phi_azim of the first qubit, wrapped to [0, 2pi)."""
        return float(np.mod(self.phi_prop - 2.0 * self.phi_azim_list()[0], TWO_PI))

    def replace(self, **changes) -> "ModelParams":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_delta_phi(cls, delta_phi: float, **kwargs) -> "ModelParams":
        """Build params with phi_prop = delta_phi and phi_azim = 0."""
        kwargs.pop("phi_prop", None)
        kwargs.setdefault("phi_azim", 0.0)
        return cls(phi_prop=float(delta_phi), **kwargs)


@dataclass(frozen=True)
class DriveSpec:
    """Coherent drive Omega*(c^dag + c) on one cavity mode at omega_drive."""

    omega_drive: float
    amplitude: float
    target: str = "cavity_R"

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError(f"drive amplitude must be >= 0, got {self.amplitude}")
        if self.target not in ("cavity_L", "cavity_R"):
            raise ValueError(f"drive target must be cavity_L or cavity_R, got {self.target!r}")
