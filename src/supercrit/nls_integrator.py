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
Fs'(|u|^2/2) and tan(phase dt/4), the half-angle tangent of the half
rotation exp(i phase dt/2). The rotation preserves |u|, so the closing half
rotation of one step is also the opening one of the next (Hairer, Lubich &
Wanner, Geometric Numerical Integration, 2006, on first-same-as-last
compositions): a step makes two transforms, one Fs' call and one tangent,
and ``nonlinearity._tangent_rotation`` rebuilds each rotation's cos and sin
from its tangent, bitwise the rotation ``nonlinearity._sin_cos`` gives. A
state holds 32 bytes per point. A step builds the opening rotation in the
new u's buffer and multiplies the old u into it, and builds the closing
rotation in the old u, dead once rotated, with its r in the old tangent; so
a step allocates the new state's u, phase and tangent only, and peaks at
40 bytes per point, the density and Fs' temporaries beside the new u and
phase.

The propagator exp(i |xi|^2 dt) is a cached table. |xi|^2 is bitwise even in
each frequency, so the table keeps rows 0..N/2 of every axis but the last,
and ``field_core.mirrored_chunks`` applies it to all N rows in chunks of
about ``field_core._BLOCK`` points; at d = 3 each chunk is expanded on axis
1 into a buffer of its size, and the table and the |xi|^2 table of u_t
below hold 24 bytes per point of (N/2+1)^2 N, where kept on axis 0 only they
held (N/2+1) N^2.

At a record the stepper gives the ``Record`` fields: the spectrum u_hat (one
``fftn``, made only for a record whose energies, boundary shares or u_t are
read) and f(u) = u * phase, which no run's record caches; the potential
integral sums F(|u|^2/2) over blocks of u, so no record builds a potential
density; the mass and the gradient energy, from u_hat by Parseval
(``field_core.parseval_norm_sq``), are summed only for a record whose energy
columns are read; and u_t = -i (Lap u - f(u)) takes one ``ifftn`` of -|xi|^2
u_hat, made in u_hat's own buffer with the |xi|^2 table of the Parseval
gradient, mirrored like the propagator, and f(u) as a transient product. u_t
takes that buffer from the record (``Record.take_spectrum``), so a record
holds its spectrum or its u_t, not both, and a read of u_hat after u_t
transforms u again; no run makes one. No run makes a full-grid |xi|^2.

``strang_step``, ``linear_flow`` and ``nonlinear_flow`` take one Strang step
from its three substeps; no run calls them, they are the tests' oracles for
the stepper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import field_core
from .field_core import (
    GridSpec,
    NlsState,
    _parseval_multiplier,
    _potential_integral,
    l2_norm_sq,
    mirrored_chunks,
    parseval_norm_sq,
)
from .nonlinearity import _half_tangent, _tangent_rotation, density
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
    """exp(i |xi|^2 tau) on the rows a table keeps (see field_core.mirrored_chunks)."""
    prop = np.exp(1j * grid.table_wavenumber_sq(half=False) * tau)
    prop.flags.writeable = False
    return prop


def _propagate(uh: np.ndarray, table: np.ndarray) -> np.ndarray:
    """uh times a table kept as the propagator is, in place, in chunks of about
    field_core._BLOCK points (see field_core.mirrored_chunks); at d = 3 a
    chunk's expansion takes a buffer of its size."""
    chunk = max(1, field_core._BLOCK // uh[0].size)
    for rows, (p,) in mirrored_chunks(uh.shape[0], (table,), chunk):
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
    """Spectral-state Strang state: u with phase = Fs'(|u|^2/2) and tan =
    tan(phase dt/4), the half-angle tangent of the half rotation
    exp(i phase dt/2) that both closes the step to u and opens the next."""

    u: np.ndarray
    phase: np.ndarray
    tan: np.ndarray
    t: float

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.u)))


class _SpectralStrang:
    """N-L-N Strang splitting that applies each half rotation to two half-steps.

    Its initial state holds the u0 it is given, which the first step
    overwrites, so no stepper keeps an initial field past the first step."""

    columns = ("mass", "H_total", "H_gradient", "H_potential")

    def __init__(self, cfg: RunSchedule):
        if problem := accuracy_error(cfg.dt, cfg.grid.h):
            raise ValueError(problem)
        self.grid, self.spec, self.dt = cfg.grid, cfg.spec, cfg.step()
        self.prop = _propagator(cfg.grid, self.dt)
        # |xi|^2 on the propagator's rows: the Parseval gradient's cached table,
        # called as parseval_norm_sq calls it (lru_cache keys keywords apart)
        self.ksq = _parseval_multiplier(cfg.grid, False)

    def _phase_tangent(self, v: np.ndarray):
        """phase = Fs'(|v|^2/2) and tan(phase dt/4), the tangent of the half
        rotation's half angle (``nonlinearity._half_tangent`` of phase dt/2)."""
        # an overflow leaves a nan tangent, so the rotated u is not finite and
        # the loop raises BlowUpError; numpy's warnings are silenced
        with np.errstate(over="ignore", invalid="ignore"):
            phase = self.spec.Fsprime(density(v))
            tan = phase * (0.5 * self.dt)
            _half_tangent(tan, out=tan)
        return phase, tan

    def start(self, u0: np.ndarray) -> _RotatedState:
        """The initial state: u0 itself, which the first step overwrites, with
        the tangent of the opening rotation of step 1; u0 must be an array
        that no one reads again."""
        phase, tan = self._phase_tangent(u0)
        if not np.all(np.isfinite(phase)):
            raise BlowUpError(0.0)
        return _RotatedState(u0, phase, tan, 0.0)

    def __call__(self, s: _RotatedState) -> _RotatedState:
        # integrate never reads a stepped state, so its arrays are free once
        # used. The opening rotation is built in v's buffer, with a contiguous
        # r in the old phase, and u times it is written over it in the operand
        # order u * rotation: numpy's complex product of two arrays does not
        # commute bitwise on AVX512 hosts. The transforms are in place
        v = np.empty_like(s.u)
        _tangent_rotation(s.tan, s.phase, out=(v.imag, v.real))
        np.multiply(s.u, v, out=v)
        np.fft.ifftn(_propagate(np.fft.fftn(v, out=v), self.prop), out=v)
        phase, tan = self._phase_tangent(v)
        # the closing rotation in the old u, with a contiguous r in the old tangent
        rot = s.u
        _tangent_rotation(tan, s.tan, out=(rot.imag, rot.real))
        v *= rot
        return _RotatedState(v, phase, tan, s.t + self.dt)

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
        """u_t recovered from the equation: u_t = -i (Lap u - f(u)), in the
        buffer of the record's spectrum, which it takes."""
        # -|xi|^2 u_hat, the product of the exact negation -u_hat
        ut = rec.take_spectrum()
        _propagate(np.negative(ut, out=ut), self.ksq)
        np.fft.ifftn(ut, out=ut)  # Lap u
        ut -= self.force(rec)
        ut *= -1j
        return ut


def member(cfg: RunSchedule, u0: np.ndarray):
    """The (stepper, initial state) pair of the schedule cfg from u = u0, a member
    for stepping.integrate; u0 is not written. Raises ValueError if cfg's dt fails
    the accuracy gate."""
    stepper = _SpectralStrang(cfg)
    # a new array, which the first step overwrites: a real u0 is converted
    # into it, a complex one copied
    return stepper, stepper.start(np.array(u0, complex))
