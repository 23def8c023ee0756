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

from .field_core import GridSpec, NlsState, laplacian, nls_energy
from .stepping import BlowUpError, RunSchedule, run_single

__all__ = [
    "NlsRunConfig",
    "linear_flow",
    "nonlinear_flow",
    "strang_step",
    "member",
    "run",
]


def accuracy_error(dt: float, h: float) -> str | None:
    """Why dt fails the accuracy gate dt <= h, or None when it passes."""
    if dt > h * (1.0 + 1e-12):
        return f"dt={dt:g} exceeds the accuracy gate h={h:g}"


@dataclass(frozen=True)
class NlsRunConfig(RunSchedule):
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


class _Strang:
    """The Strang stepper of one run config, as stepping.integrate drives it."""

    columns = ("mass", "H_total", "H_gradient", "H_potential")

    def __init__(self, cfg: NlsRunConfig):
        self.cfg = cfg

    def __call__(self, s: NlsState) -> NlsState:
        return strang_step(s, self.cfg)

    def energy(self, s: NlsState):
        rep = nls_energy(s, self.cfg.spec)
        return rep.mass, rep.total, rep.gradient, rep.potential

    def velocity(self, s: NlsState) -> np.ndarray:
        """u_t recovered from the equation: u_t = -i (Lap u - f(u))."""
        return -1j * (laplacian(s.u, s.grid) - self.cfg.spec.force(s.u))


def member(cfg: NlsRunConfig):
    """The (stepper, initial state) pair of cfg, a member for stepping.integrate."""
    return _Strang(cfg), NlsState(cfg.grid, np.asarray(cfg.u0, complex), 0.0)


def run(cfg: NlsRunConfig):
    """Evolve to T; returns the final record (a RunEnd) and the diagnostics trace."""
    return run_single(*member(cfg), cfg)
