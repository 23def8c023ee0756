"""Strang split-step integration of i u_t - Lap(u) + f(u) = 0.

Both substeps are exact flows (a Fourier multiplier and a pointwise phase
rotation), so mass is conserved to machine precision and all Hamiltonian
drift is attributable to the splitting error.

Sign convention: the equation is i u_t - Lap(u) + f(u) = 0, so the free flow
multiplies each mode by exp(i |xi|^2 tau); the nonlinear substep is i u_t = -f(u), whose exact flow
rotates pointwise by exp(+i F'(|u|^2/2) tau). The conserved Hamiltonian for
this convention and f(u) = u F'(|u|^2/2) is (1/2)||grad u||^2 + int F,
which is what the diagnostics record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field_core import GridSpec, NlsState, nls_energy
from .wave_integrator import BlowUpError, _integrate, _RunSchedule

__all__ = [
    "NlsRunConfig",
    "NlsTrajectory",
    "linear_flow",
    "nonlinear_flow",
    "strang_step",
    "run",
]


def accuracy_error(dt: float, h: float) -> str | None:
    """Why dt fails the accuracy gate dt <= h, or None when it passes."""
    if dt > h * (1.0 + 1e-12):
        return f"dt={dt:g} exceeds the accuracy gate h={h:g}"


@dataclass(frozen=True)
class NlsRunConfig(_RunSchedule):
    grid: GridSpec
    spec: object
    dt: float
    T: float
    u0: np.ndarray
    diagnostics_stride: int = 0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if problem := accuracy_error(self.dt, self.grid.h):
            raise ValueError(problem)
        if self.T <= 0:
            raise ValueError("T must be positive")


@dataclass
class NlsTrajectory:
    grid: GridSpec
    spec: object
    times: np.ndarray
    us: list

    def __len__(self) -> int:
        return len(self.us)

    def dt_field(self, i: int) -> np.ndarray:
        """u_t recovered from the equation: u_t = -i (Lap u - f(u))."""
        from .field_core import laplacian

        u = self.us[i]
        return -1j * (laplacian(u, self.grid) - self.spec.force(u))


@lru_cache(maxsize=8)
def _propagator(grid: GridSpec, tau: float) -> np.ndarray:
    prop = np.exp(1j * grid.wavenumber_sq() * tau)
    prop.flags.writeable = False
    return prop


def linear_flow(state: NlsState, tau: float) -> NlsState:
    """Exact free flow: unitary Fourier multiplier exp(i |xi|^2 tau)."""
    uh = np.fft.fftn(state.u)
    uh *= _propagator(state.grid, tau)
    return NlsState(state.grid, np.fft.ifftn(uh), state.t + tau)


def nonlinear_flow(state: NlsState, tau: float, spec) -> NlsState:
    """Exact pointwise flow of i u_t = -f(u): modulus-preserving phase rotation."""
    # an overflow here is reported as BlowUpError, so numpy's warning is silenced
    with np.errstate(over="ignore", invalid="ignore"):
        phase = spec.Fsprime(0.5 * np.abs(state.u) ** 2)
    if not np.all(np.isfinite(phase)):
        raise BlowUpError(state.t)
    return NlsState(state.grid, state.u * np.exp(1j * phase * tau), state.t + tau)


def strang_step(state: NlsState, cfg: NlsRunConfig) -> NlsState:
    """Half nonlinear, full linear, half nonlinear: second order in dt."""
    dt = cfg.dt
    s = nonlinear_flow(state, 0.5 * dt, cfg.spec)
    s = linear_flow(s, dt)
    s = nonlinear_flow(s, 0.5 * dt, cfg.spec)
    return NlsState(cfg.grid, s.u, state.t + dt)


def run(cfg: NlsRunConfig):
    def energy(s: NlsState):
        rep = nls_energy(s, cfg.spec)
        return rep.mass, rep.total, rep.gradient, rep.potential

    times, states, trace = _integrate(
        lambda s: strang_step(s, cfg),
        NlsState(cfg.grid, np.asarray(cfg.u0, complex), 0.0),
        cfg,
        ("t", "mass", "H_total", "H_gradient", "H_potential", "leakage", "sup_norm"),
        energy,
    )
    traj = NlsTrajectory(cfg.grid, cfg.spec, times, [s.u for s in states])
    return traj, trace
