"""Strang split-step integration of i u_t - Lap(u) + f(u) = 0.

Both substeps are exact flows (a Fourier multiplier and a pointwise phase
rotation), so mass is conserved to machine precision and all Hamiltonian
drift is attributable to the splitting error.

Sign convention: the equation is i u_t - Lap(u) + f(u) = 0, so the free flow
multiplies each mode by exp(i |xi|^2 tau); the nonlinear substep is
i u_t = -f(u), whose exact flow rotates pointwise by exp(+i F'(|u|^2/2) tau).
The conserved Hamiltonian for this convention and f(u) = u F'(|u|^2/2) is
(1/2)||grad u||^2 + int F, which is what the diagnostics record.

Every run uses the rotation-reusing stepper of ``member``, which steps a
``stepping.RunSchedule`` by its ``step()`` and refuses a schedule whose
requested dt fails the accuracy gate dt <= h. Its step is half nonlinear,
full linear, half nonlinear (N-L-N), with its state holding u, the phase
Fs'(|u|^2/2) and the half rotation exp(i phase dt/2). The rotation preserves
|u|, so the closing half rotation of one step is also the opening one of the
next (Hairer, Lubich & Wanner, Geometric Numerical Integration, 2006, on
first-same-as-last compositions): a step makes two transforms, one Fs' call
and one tangent, from which ``nonlinearity._sin_cos`` takes the rotation's
cos and sin. The kernel runs on the previous state's rotation, which is dead
once the step has rotated u by it, so what a step allocates peaks at the
new state's u, phase and rotation. The propagator exp(i |xi|^2 dt) is a cached table;
|xi|^2 is bitwise even in each frequency, so for d >= 2 the table keeps rows
0..N/2 of axis 0 only, and ``field_core.mirror_halves`` applies it to all N
rows in two calls. At a record the stepper gives the ``Record`` fields: the
spectrum u_hat (one ``fftn`` per member) and f(u) = u * phase; the
potential integral sums F(|u|^2/2) over blocks of u, so no record builds a
potential density; the mass and the gradient energy, from u_hat by Parseval
(``field_core.parseval_norm_sq``), are summed only for a record whose energy
columns are read; and u_t = -i (Lap u - f(u)) takes one ``ifftn`` of
-|xi|^2 u_hat, which is made in one new array from -u_hat and the |xi|^2
table of the Parseval gradient, mirrored like the propagator. No run makes a
full-grid |xi|^2.

``strang_step``, ``linear_flow`` and ``nonlinear_flow`` take one Strang step
from its three substeps; no run calls them, they are the tests' oracles for
the stepper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .field_core import (
    GridSpec,
    NlsState,
    _parseval_multiplier,
    _potential_integral,
    l2_norm_sq,
    mirror_halves,
    parseval_norm_sq,
)
from .nonlinearity import _sin_cos, density
from .stepping import BlowUpError, RunSchedule

__all__ = [
    "linear_flow",
    "nonlinear_flow",
    "strang_step",
    "member",
]


def accuracy_error(dt: float, h: float) -> str | None:
    """Why dt fails the accuracy gate dt <= h, or None when it passes."""
    if dt > h * (1.0 + 1e-12):
        return f"dt={dt:g} exceeds the accuracy gate h={h:g}"


@lru_cache(maxsize=8)
def _propagator(grid: GridSpec, tau: float) -> np.ndarray:
    """exp(i |xi|^2 tau) on the rows of axis 0 a table keeps (see mirror_halves)."""
    prop = np.exp(1j * grid.table_wavenumber_sq(half=False) * tau)
    prop.flags.writeable = False
    return prop


def _propagate(uh: np.ndarray, table: np.ndarray) -> np.ndarray:
    """uh times a table kept as the propagator is (see mirror_halves), in place."""
    for rows, (p,) in mirror_halves(uh.shape[0], table):
        uh[rows] *= p
    return uh


def linear_flow(state: NlsState, tau: float) -> NlsState:
    """Exact free flow: unitary Fourier multiplier exp(i |xi|^2 tau).

    A substep of the ``strang_step`` oracle; no run calls it."""
    uh = _propagate(np.fft.fftn(state.u), _propagator(state.grid, tau))
    return NlsState(state.grid, np.fft.ifftn(uh), state.t + tau)


def nonlinear_flow(state: NlsState, tau: float, spec) -> NlsState:
    """Exact pointwise flow of i u_t = -f(u): modulus-preserving phase rotation.

    A substep of the ``strang_step`` oracle; no run calls it."""
    # an overflow here is reported as BlowUpError, so numpy's warning is silenced
    with np.errstate(over="ignore", invalid="ignore"):
        phase = spec.Fsprime(density(state.u))
    if not np.all(np.isfinite(phase)):
        raise BlowUpError(state.t)
    return NlsState(state.grid, state.u * np.exp(1j * phase * tau), state.t + tau)


def strang_step(state: NlsState, cfg: RunSchedule) -> NlsState:
    """Half nonlinear, full linear, half nonlinear, over cfg.step(): second order in dt.

    The tests' oracle for the stepper every run uses (``member``), which
    takes the same step with the rotations shared between steps."""
    dt = cfg.step()
    s = nonlinear_flow(state, 0.5 * dt, cfg.spec)
    s = linear_flow(s, dt)
    s = nonlinear_flow(s, 0.5 * dt, cfg.spec)
    return NlsState(cfg.grid, s.u, state.t + dt)


@dataclass(frozen=True)
class _RotatedState:
    """Spectral-state Strang state: u with phase = Fs'(|u|^2/2) and the half
    rotation exp(i phase dt/2) that both closes the step to u and opens the next."""

    u: np.ndarray
    phase: np.ndarray
    rot: np.ndarray
    t: float

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.u)))


class _SpectralStrang:
    """N-L-N Strang splitting that applies each half rotation to two half-steps.

    Its initial state holds u0 itself, and the first step makes a new u, so
    no stepper keeps an initial field past the first step."""

    columns = ("mass", "H_total", "H_gradient", "H_potential")

    def __init__(self, cfg: RunSchedule):
        if problem := accuracy_error(cfg.dt, cfg.grid.h):
            raise ValueError(problem)
        self.grid, self.spec, self.dt = cfg.grid, cfg.spec, cfg.step()
        self.prop = _propagator(cfg.grid, self.dt)
        # |xi|^2 on the propagator's rows: the Parseval gradient's cached table,
        # called as parseval_norm_sq calls it (lru_cache keys keywords apart)
        self.ksq = _parseval_multiplier(cfg.grid, False)

    def _phase_rotation(self, v: np.ndarray, scratch: np.ndarray | None = None):
        """phase = Fs'(|v|^2/2) and the half rotation cos + i sin of phase dt/2.

        ``scratch`` is a complex array shaped like v that no one reads again:
        ``_sin_cos`` runs on the two contiguous halves of its float view, the
        angle, its half angle's tangent and then sin in the first, r and then
        cos in the second, and both are copied into the new rotation. On
        contiguous halves ``np.tan`` took 31 us per 128^2 points, against 76 us
        on the stride-2 planes of the rotation (2-vCPU Xeon, numpy 2.4). The
        initial state has no spent rotation, so without scratch the kernel
        runs on those planes, and setting up a member holds no extra field;
        the kernel gives the same bits on either layout. A phase that
        overflows leaves a nan rotation, so the rotated u is not finite and
        the loop raises BlowUpError; numpy's warnings are silenced.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            phase = self.spec.Fsprime(density(v))
            rot = np.empty(v.shape, complex)
            sin, cos = ((rot.imag, rot.real) if scratch is None
                        else scratch.reshape(-1).view(float).reshape((2,) + v.shape))
            np.multiply(phase, 0.5 * self.dt, out=sin)
            _sin_cos(sin, out=(sin, cos))
        if scratch is not None:
            rot.real, rot.imag = cos, sin
        return phase, rot

    def start(self, u0: np.ndarray) -> _RotatedState:
        """The initial state: u0 itself, with the opening rotation of step 1."""
        phase, rot = self._phase_rotation(u0)
        if not np.all(np.isfinite(phase)):
            raise BlowUpError(0.0)
        return _RotatedState(u0, phase, rot, 0.0)

    def __call__(self, s: _RotatedState) -> _RotatedState:
        # transforms in place: one field-sized buffer is the spectrum and then v
        v = s.u * s.rot
        np.fft.ifftn(_propagate(np.fft.fftn(v, out=v), self.prop), out=v)
        # s.rot is dead once v is made: integrate never reads a stepped state
        phase, rot = self._phase_rotation(v, s.rot)
        v *= rot
        return _RotatedState(v, phase, rot, s.t + self.dt)

    def spectrum(self, rec) -> np.ndarray:
        return np.fft.fftn(rec.u, out=np.empty_like(rec.u))

    def force(self, rec) -> np.ndarray:
        return rec.u * rec.state.phase

    def potential(self, rec) -> float:
        return _potential_integral(self.spec.potential, rec.u, self.grid)

    def energy(self, rec):
        grad = 0.5 * parseval_norm_sq(rec.uh, self.grid, gradient=True)
        pot = rec.potential
        return l2_norm_sq(rec.u, self.grid), grad + pot, grad, pot

    def velocity(self, rec) -> np.ndarray:
        """u_t recovered from the equation: u_t = -i (Lap u - f(u))."""
        # -|xi|^2 u_hat, the product of the exact negation -u_hat
        ut = _propagate(np.negative(rec.uh), self.ksq)
        np.fft.ifftn(ut, out=ut)  # Lap u
        ut -= rec.force
        ut *= -1j
        return ut


def member(cfg: RunSchedule, u0: np.ndarray):
    """The (stepper, initial state) pair of the schedule cfg from u = u0, a member
    for stepping.integrate; u0 is not written. Raises ValueError if cfg's dt fails
    the accuracy gate."""
    stepper = _SpectralStrang(cfg)
    return stepper, stepper.start(np.asarray(u0, complex))
