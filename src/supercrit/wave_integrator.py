"""Time integration of u_tt - Lap(u) + f(u) = 0 with conservation diagnostics.

Two time-reversible symplectic steppers are provided:

* the impulse stepper, which every run uses: kick-drift-kick where the drift
  is the exact Fourier flow of the linearization at zero, i.e. frequencies
  sqrt(|xi|^2 + f'(0)) and kicks applied only to the residual f(u) - f'(0)u
  (the impulse method of Garcia-Archilla, Sanz-Serna & Skeel, SIAM J. Sci.
  Comput. 20, 1999);
* ``Verlet``: plain velocity leapfrog (the textbook kick-drift-kick form),
  kept only as the tests' independent oracle for the impulse stepper.

Both step a ``stepping.RunSchedule`` by its ``step()``. The impulse stepper
refuses a schedule whose requested dt breaks the stability bound
CFL_SAFETY * h / sqrt(d).

The impulse stepper has no linear-part energy error at all, so the measured
O(dt^2) drift is purely attributable to the genuine nonlinearity. Plain
leapfrog carries an irreducible dt^2 omega^2 / 8 energy oscillation on every
excited mode, which drowns tight conservation budgets.

The impulse stepper keeps its state in spectral form: the ``np.fft.rfftn``
half spectra of u and u_t, the physical u, and the half spectrum of the
residual force at u. A step is a half kick with that cached residual, the
exact linear flow on the half spectrum, one ``irfftn`` for the new u, one
``rfftn`` for its residual, and the closing half kick: two real transforms.
Setting the state up from (u0, u1) takes three forward transforms. The
energies come from the half spectra by Parseval, so a record makes no
transform unless an observer asks for the physical u_t (one ``irfftn``).

A step works in place, so a run holds its state, the stepper's three
multiplier tables (made from the half spectrum's |xi|^2, which is not kept;
no full-grid |xi|^2 is made) and the cached Parseval multiplier of the
energies, and nothing else. ``start`` makes the three half spectra from
(u0, u1) and then copies u0 into the state's own u, which each step's
inverse transform overwrites, so the caller's arrays are never written; an
at-rest u1 is a broadcast zero and allocates no field. A step's one scratch
half spectrum holds its intermediate products and the inverse transform's
per-axis ``ifft`` results, and is dropped before the residual, the step's
largest allocation. The residual f(u) - m u is written into one new field,
one ``field_core._BLOCK`` of points at a time, so that f's temporaries are
block-sized; f acts pointwise, so the field is bitwise the one a single
whole-field evaluation gives, whatever the block size. A step makes the same
ufunc calls on the same values in the same order as one that allocates a
new state, so its results are bitwise the same.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import field_core
from .field_core import (
    GridSpec,
    WaveState,
    _potential_density,
    _potential_integral,
    half_gradient_norm_sq,
    half_l2_norm_sq,
    l2_inner,
    l2_norm_sq,
    laplacian,
    wave_energy,
)
from .stepping import RunSchedule

__all__ = [
    "WeakIdentity",
    "Verlet",
    "step",
    "member",
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


def step(state: WaveState, cfg: RunSchedule) -> WaveState:
    """One velocity-leapfrog step of cfg.step(); exactly reversible under ut -> -ut."""
    dt, grid, spec = cfg.step(), cfg.grid, cfg.spec
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
    """Kick-drift-kick with the linearized flow solved exactly per mode.

    A step overwrites the state it is given (see the module docstring) and
    returns a new state over the same arrays.
    """

    columns = WAVE_COLUMNS

    def __init__(self, cfg: RunSchedule):
        if problem := stability_error(cfg.dt, cfg.grid.h, cfg.grid.d):
            raise ValueError(problem)
        dt = cfg.step()
        self.grid, self.spec, self.dt = cfg.grid, cfg.spec, dt
        self.mass = max(0.0, float(cfg.spec.fprime(0.0)))
        om = np.sqrt(cfg.grid.half_wavenumber_sq() + self.mass)
        self.cos = np.cos(om * dt)
        self.sin_om = np.where(om > 0, np.sin(om * dt) / np.where(om > 0, om, 1.0), dt)
        self.om_sin = om * np.sin(om * dt)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(x, out=np.empty(self.cos.shape, complex))

    def _inverse(self, xh: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``np.fft.irfftn(xh, s=grid.shape)`` into out, the same transforms in the
        same order; the per-axis ``ifft`` calls go through the half spectrum scratch."""
        for axis in range(self.grid.d - 1):
            xh = np.fft.ifft(xh, axis=axis, out=scratch)
        return np.fft.irfft(xh, n=self.grid.N, axis=-1, out=out)

    def _residual_spectrum(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The half spectrum of f(u) - m u, into out."""
        # an overflow here leaves a non-finite u_t, which the loop turns into
        # BlowUpError, so numpy's warning is silenced
        with np.errstate(over="ignore", invalid="ignore"):
            return np.fft.rfftn(self._residual(u), out=out)

    def _residual(self, u: np.ndarray) -> np.ndarray:
        """f(u) - m u in a new field, evaluated one field_core._BLOCK of points at a
        time, so that besides the field only block-sized temporaries are made."""
        out = np.empty(u.shape)
        flat_u, flat_out = u.reshape(-1), out.reshape(-1)
        block = field_core._BLOCK
        for a in range(0, flat_u.size, block):
            ub, rb = flat_u[a:a + block], flat_out[a:a + block]
            np.multiply(self.mass, ub, out=rb)
            np.subtract(self.spec.f(ub), rb, out=rb)
        return out

    def start(self, u0: np.ndarray, u1: np.ndarray) -> _SpectralState:
        """The state at t = 0 of u = u0, u_t = u1; all its arrays are new."""
        uh, uth = self._forward(u0), self._forward(u1)
        rh = self._residual_spectrum(u0, np.empty(self.cos.shape, complex))
        # copied last, so the copy is not alive while the residual is made
        return _SpectralState(np.array(u0, float), uh, uth, rh, 0.0)

    def __call__(self, s: _SpectralState) -> _SpectralState:
        half_dt = 0.5 * self.dt
        uh, uth, rh = s.uh, s.uth, s.rh
        scratch = np.multiply(half_dt, rh)
        uth -= scratch
        # exact flow; rh is free until the new residual, so it holds sin_om * uth
        np.multiply(self.om_sin, uh, out=scratch)
        uh *= self.cos
        uh += np.multiply(self.sin_om, uth, out=rh)
        uth *= self.cos
        uth -= scratch
        u = self._inverse(uh, scratch, s.u)
        # the residual is the step's largest allocation, so the scratch goes first
        del scratch
        self._residual_spectrum(u, rh)
        uth -= half_dt * rh
        return _SpectralState(u, uh, uth, rh, s.t + self.dt)

    def spectrum(self, rec) -> np.ndarray:
        return rec.state.uh

    def force(self, rec) -> np.ndarray:
        return self.spec.f(rec.u)

    def potential(self, rec) -> np.ndarray:
        return _potential_density(self.spec.F, rec.u)

    def energy(self, rec):
        kin = 0.5 * half_l2_norm_sq(rec.state.uth, self.grid)
        grad = 0.5 * half_gradient_norm_sq(rec.uh, self.grid)
        pot = _potential_integral(rec.potential, self.grid)
        return kin + grad + pot, kin, grad, pot

    def velocity(self, rec) -> np.ndarray:
        return self._inverse(rec.state.uth, np.empty(self.cos.shape, complex),
                             np.empty(self.grid.shape))


class Verlet:
    """The velocity-leapfrog stepper, kept only as the tests' oracle for the impulse one.

    Its member for stepping.integrate is (Verlet(cfg), the initial WaveState).
    Its records give the energies, u_t, f(u) and the rfftn half spectrum, what
    the diagnostics trace and the weak identity read.
    """

    columns = WAVE_COLUMNS

    def __init__(self, cfg: RunSchedule):
        self.cfg = cfg

    def __call__(self, s: WaveState) -> WaveState:
        return step(s, self.cfg)

    def energy(self, rec):
        rep = wave_energy(rec.state, self.cfg.spec)
        return rep.total, rep.kinetic, rep.gradient, rep.potential

    def velocity(self, rec) -> np.ndarray:
        return rec.state.ut

    def spectrum(self, rec) -> np.ndarray:
        return np.fft.rfftn(rec.u)

    def force(self, rec) -> np.ndarray:
        return self.cfg.spec.f(rec.u)


def member(cfg: RunSchedule, u0: np.ndarray, u1: np.ndarray | None = None):
    """The impulse (stepper, initial state) pair of the schedule cfg from u = u0 and
    u_t = u1, a member for stepping.integrate; u1 None is at rest. u0 and u1 are not
    written. Raises ValueError if cfg's dt breaks the stability bound."""
    stepper = _SpectralImpulse(cfg)
    # rfftn of zeros has -0.0 imaginary parts, so a broadcast zero stands in for
    # an at-rest u_t: the same bytes as a zero field, without allocating one
    u1 = np.broadcast_to(0.0, cfg.grid.shape) if u1 is None else np.asarray(u1, float)
    return stepper, stepper.start(np.asarray(u0, float), u1)


# the records WeakIdentity's time quadrature needs; config refuses a run with fewer
WEAK_IDENTITY_RECORDS = 64


class WeakIdentity:
    """Observer: relative residual of the multiplier identity for member 0.

    The space-time integral of |grad u|^2 - |u_t|^2 + u f(u) must equal
    B(0) - B(T) with B(t) = integral of u_t u, since d/dt B = |u_t|^2 -
    |grad u|^2 - u f(u). |grad u|^2 comes from the record's rfftn half
    spectrum by Parseval, so a record of the impulse stepper makes one
    transform, the inverse one of u_t. The time quadrature needs
    WEAK_IDENTITY_RECORDS records.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.times, self.integrand = [], []
        self.b0 = self.bT = None

    def observe(self, r):
        grid = self.grid
        self.times.append(r.t)
        self.integrand.append(half_gradient_norm_sq(r.uh, grid) - l2_norm_sq(r.ut, grid)
                              + l2_inner(r.u, r.force, grid))
        self.bT = l2_inner(r.ut, r.u, grid)
        if self.b0 is None:
            self.b0 = self.bT

    def result(self) -> float:
        if len(self.times) < WEAK_IDENTITY_RECORDS:
            raise ValueError(f"need at least {WEAK_IDENTITY_RECORDS} records for the "
                             "time quadrature")
        lhs = float(np.trapezoid(np.array(self.integrand), np.array(self.times)))
        rhs = self.b0 - self.bT
        return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)
