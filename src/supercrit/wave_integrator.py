"""Time integration of u_tt - Lap(u) + f(u) = 0 with conservation diagnostics.

Two time-reversible symplectic steppers are provided:

* ``verlet``: plain velocity leapfrog (the textbook kick-drift-kick form);
* ``impulse``: kick-drift-kick where the drift is the exact Fourier flow of
  the linearization at zero, i.e. frequencies sqrt(|xi|^2 + f'(0)) and kicks
  applied only to the residual f(u) - f'(0)u (the impulse method of
  Garcia-Archilla, Sanz-Serna & Skeel, SIAM J. Sci. Comput. 20, 1999).

``impulse`` is the default for runs: it has no linear-part energy error at
all, so the measured O(dt^2) drift is purely attributable to the genuine
nonlinearity. Plain leapfrog carries an irreducible dt^2 omega^2 / 8 energy
oscillation on every excited mode, which drowns tight conservation budgets.

The impulse stepper keeps its state in spectral form: the ``np.fft.rfftn``
half spectra of u and u_t, the physical u, and the half spectrum of the
residual force at u. A step is a half kick with that cached residual, the
exact linear flow on the half spectrum, one ``irfftn`` for the new u, one
``rfftn`` for its residual, and the closing half kick: two real transforms.
Setting the state up from (u0, u1) takes three forward transforms. The
energies come from the half spectra by Parseval, so a record makes no
transform unless an observer asks for the physical u_t (one ``irfftn``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field_core import (
    GridSpec,
    WaveState,
    _potential_integral,
    gradient_norm_sq,
    half_gradient_norm_sq,
    half_l2_norm_sq,
    l2_inner,
    l2_norm_sq,
    laplacian,
    wave_energy,
)
from .stepping import DiagnosticTrace, RunSchedule, run_single

__all__ = [
    "WaveRunConfig",
    "WeakIdentity",
    "step",
    "member",
    "run",
    "max_leakage",
]

CFL_SAFETY = 0.25


def stable_dt(h: float, d: int) -> float:
    """The largest stable wave time step, CFL_SAFETY * h / sqrt(d)."""
    return CFL_SAFETY * h / np.sqrt(d)


def stability_error(dt: float, h: float, d: int) -> str | None:
    """Why dt is not a positive step within the stability bound, or None."""
    if not 0.0 < dt <= (limit := stable_dt(h, d)) * (1.0 + 1e-12):
        return f"dt={dt:g} violates the stability bound {CFL_SAFETY}*h/sqrt(d)={limit:g}"


WAVE_COLUMNS = ("E_total", "E_kinetic", "E_gradient", "E_potential")


@dataclass(frozen=True)
class WaveRunConfig(RunSchedule):
    grid: GridSpec
    spec: object
    dt: float
    T: float
    u0: np.ndarray
    u1: np.ndarray
    diagnostics_stride: int = 0  # 0: choose for ~128 snapshots
    # "verlet" is kept only as the tests' independent oracle for "impulse"
    method: str = "impulse"      # "impulse" | "verlet"

    def __post_init__(self):
        if problem := stability_error(self.dt, self.grid.h, self.grid.d):
            raise ValueError(problem)
        if self.T <= 0:
            raise ValueError("T must be positive")


def step(state: WaveState, cfg: WaveRunConfig) -> WaveState:
    """One velocity-leapfrog step; exactly reversible under ut -> -ut."""
    dt, grid, spec = cfg.dt, cfg.grid, cfg.spec
    ut_half = state.ut + 0.5 * dt * (laplacian(state.u, grid) - spec.f(state.u))
    u_new = state.u + dt * ut_half
    ut_new = ut_half + 0.5 * dt * (laplacian(u_new, grid) - spec.f(u_new))
    return WaveState(grid, u_new, ut_new, state.t + dt)


@dataclass(frozen=True)
class _SpectralState:
    """Impulse-stepper state: u with the rfftn half spectra of u, u_t and f(u) - m u."""

    u: np.ndarray
    uh: np.ndarray
    uth: np.ndarray
    rh: np.ndarray
    t: float

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.uth)))


class _SpectralImpulse:
    """Kick-drift-kick with the linearized flow solved exactly per mode."""

    columns = WAVE_COLUMNS

    def __init__(self, cfg: WaveRunConfig):
        self.cfg = cfg
        self.axes = tuple(range(cfg.grid.d))
        self.mass = max(0.0, float(cfg.spec.fprime(0.0)))
        ksq_half = cfg.grid.wavenumber_sq()[..., : cfg.grid.N // 2 + 1]
        om = np.sqrt(ksq_half + self.mass)
        self.cos = np.cos(om * cfg.dt)
        self.sin_om = np.where(om > 0, np.sin(om * cfg.dt) / np.where(om > 0, om, 1.0),
                               cfg.dt)
        self.om_sin = om * np.sin(om * cfg.dt)

    def _residual_spectrum(self, u: np.ndarray) -> np.ndarray:
        # an overflow here leaves a non-finite u_t, which the loop turns into
        # BlowUpError, so numpy's warning is silenced
        with np.errstate(over="ignore", invalid="ignore"):
            return np.fft.rfftn(self.cfg.spec.f(u) - self.mass * u)

    def start(self, state: WaveState) -> _SpectralState:
        return _SpectralState(state.u, np.fft.rfftn(state.u), np.fft.rfftn(state.ut),
                              self._residual_spectrum(state.u), state.t)

    def __call__(self, s: _SpectralState) -> _SpectralState:
        half_dt = 0.5 * self.cfg.dt
        uth = s.uth - half_dt * s.rh
        uh = self.cos * s.uh + self.sin_om * uth
        uth = self.cos * uth - self.om_sin * s.uh
        u = np.fft.irfftn(uh, s=self.cfg.grid.shape, axes=self.axes)
        rh = self._residual_spectrum(u)
        uth -= half_dt * rh
        return _SpectralState(u, uh, uth, rh, s.t + self.cfg.dt)

    def energy(self, s: _SpectralState):
        grid = self.cfg.grid
        kin = 0.5 * half_l2_norm_sq(s.uth, grid)
        grad = 0.5 * half_gradient_norm_sq(s.uh, grid)
        pot = _potential_integral(self.cfg.spec.F, s.u, grid)
        return kin + grad + pot, kin, grad, pot

    def velocity(self, s: _SpectralState) -> np.ndarray:
        return np.fft.irfftn(s.uth, s=self.cfg.grid.shape, axes=self.axes)


class _Verlet:
    """The velocity-leapfrog stepper, kept as the tests' oracle for the impulse one."""

    columns = WAVE_COLUMNS

    def __init__(self, cfg: WaveRunConfig):
        self.cfg = cfg

    def start(self, state: WaveState) -> WaveState:
        return state

    def __call__(self, s: WaveState) -> WaveState:
        return step(s, self.cfg)

    def energy(self, s: WaveState):
        rep = wave_energy(s, self.cfg.spec)
        return rep.total, rep.kinetic, rep.gradient, rep.potential

    def velocity(self, s: WaveState) -> np.ndarray:
        return s.ut


_STEPPERS = {"impulse": _SpectralImpulse, "verlet": _Verlet}


def member(cfg: WaveRunConfig):
    """The (stepper, initial state) pair of cfg, a member for stepping.integrate."""
    if cfg.method not in _STEPPERS:
        raise ValueError(f"unknown method {cfg.method!r}")
    stepper = _STEPPERS[cfg.method](cfg)
    u0, u1 = np.asarray(cfg.u0, float), np.asarray(cfg.u1, float)
    return stepper, stepper.start(WaveState(cfg.grid, u0, u1, 0.0))


def run(cfg: WaveRunConfig):
    """Evolve to T; returns the final record (a RunEnd) and the diagnostics trace."""
    return run_single(*member(cfg), cfg)


def max_leakage(trace: DiagnosticTrace) -> float:
    return float(np.max(trace.column("leakage")))


class WeakIdentity:
    """Observer: relative residual of the multiplier identity for member 0.

    The space-time integral of |grad u|^2 - |u_t|^2 + u f(u) must equal
    B(0) - B(T) with B(t) = integral of u_t u, since d/dt B = |u_t|^2 -
    |grad u|^2 - u f(u). The time quadrature needs 64 records.
    """

    def __init__(self, spec, grid: GridSpec):
        self.spec, self.grid = spec, grid
        self.times, self.integrand = [], []
        self.b0 = self.bT = None

    def observe(self, records):
        r, grid = records[0], self.grid
        self.times.append(r.t)
        self.integrand.append(gradient_norm_sq(r.u, grid) - l2_norm_sq(r.ut, grid)
                              + l2_inner(r.u, self.spec.f(r.u), grid))
        self.bT = l2_inner(r.ut, r.u, grid)
        if self.b0 is None:
            self.b0 = self.bT

    def result(self) -> float:
        if len(self.times) < 64:
            raise ValueError("need at least 64 records for the time quadrature")
        lhs = float(np.trapezoid(np.array(self.integrand), np.array(self.times)))
        rhs = self.b0 - self.bT
        return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)
