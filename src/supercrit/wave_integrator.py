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
half spectra of u and u_t, the physical u, and the half kick, 0.5 dt times
the half spectrum of the residual force f(u) - m u at u. A step is the half
kick, the exact linear flow on the half spectrum, one inverse transform for
the new u, one forward transform for its kick, and the closing half kick:
two real transforms. Setting the state up from (u0, u1) takes two forward
transforms; the first step makes the opening kick from the state's u, a
third. The energies come from the half spectra by Parseval, so a record
makes no transform unless an observer asks for the physical u_t (one
inverse transform).

A run holds its state and the stepper's three multiplier tables, and nothing
else; after its first step, a step allocates no field-sized array:

* the tables cos(om dt), sin(om dt) / om and om sin(om dt) are made from the
  half spectrum's |xi|^2, which is not kept. |xi|^2 is bitwise even in each
  frequency, so for d >= 2 each table keeps rows 0..N/2 of axis 0 only, and
  ``field_core.mirror_halves`` applies it to all N rows in two calls: a
  table is about half a real half spectrum. No full-grid |xi|^2 is made. The
  tables are cached read-only per (grid, dt, mass), so the members of a
  ladder share one set; so does the Parseval multiplier of the energies,
  kept on the same rows;
* ``start`` makes the two half spectra from (u0, u1) and then copies u0 into
  the state's own u, which each step's inverse transform overwrites, so the
  caller's arrays are never written; it makes no kick, so u0 and the copy
  are never alive beside one. An at-rest u1 is a broadcast zero and
  allocates no field;
* the state keeps the kick already scaled, so each half kick is one in-place
  subtraction. Between the opening kick and the new one the kick's array is
  free: the flow goes through each mirror half in chunks of whole axis-0
  rows, about ``field_core._BLOCK`` points each but at most half the kick's
  rows, and writes a chunk's om_sin * u into the kick's first rows and its
  sin_om * u_t into the next ones; then the inverse transform's per-axis
  ``ifft`` results go through it. A chunk's arrays then stay in a core's
  L2: the flow took 0.96-1.0 ms at d = 3, N = 64 (7 rows), against
  1.29-1.36 ms in chunks of half the kick (32 rows; best of 30 calls, 3
  rounds, 2-vCPU Xeon, numpy 2.4);
* the residual is evaluated one slab of whole last-axis lines at a time,
  about ``field_core._BLOCK`` points (the whole line at d = 1), so that f's
  temporaries are block-sized, and each slab is ``rfft``'d straight into the
  kick's lines; then axes d-2..0 are ``fft``'d in place, rfftn's transforms
  in its order. f acts pointwise and each line is transformed alone, so the
  kick is bitwise the one a whole-field residual gives, whatever the block
  size;
* a record's potential energy sums F over blocks of u
  (``field_core._potential_integral``), bitwise np.sum of the density,
  which no record builds.

A step makes the same elementwise operations on the same values as one that
allocates a new state and whole tables, so its results are bitwise the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import field_core
from .field_core import (
    GridSpec,
    WaveState,
    _potential_integral,
    l2_inner,
    l2_norm_sq,
    laplacian,
    mirror_halves,
    parseval_norm_sq,
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
    """Impulse-stepper state: u with the rfftn half spectra of u and u_t, and rh,
    the half kick: 0.5 dt times the half spectrum of f(u) - m u, or None at t = 0."""

    u: np.ndarray
    uh: np.ndarray
    uth: np.ndarray
    rh: np.ndarray | None
    t: float

    def is_finite(self) -> bool:
        """Whether uth is finite: a step ends with the kick of its u, and a
        non-finite u, f(u) or uh leaves every entry of that kick, and so of
        uth, non-finite (the transforms spread one entry to all), so u need
        not be read."""
        return bool(np.all(np.isfinite(self.uth)))


@lru_cache(maxsize=8)
def _flow_tables(grid: GridSpec, dt: float, mass: float) -> tuple:
    """The impulse stepper's read-only cos(om dt), sin(om dt) / om and om sin(om dt),
    om = sqrt(|xi|^2 + mass), on the rows of axis 0 a table keeps (see
    mirror_halves); cached, so the members of a ladder share one set."""
    om = np.sqrt(grid.table_wavenumber_sq(half=True) + mass)
    tables = (np.cos(om * dt),
              np.where(om > 0, np.sin(om * dt) / np.where(om > 0, om, 1.0), dt),
              om * np.sin(om * dt))
    for table in tables:
        table.flags.writeable = False
    return tables


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
        self.half_shape = cfg.grid.shape[:-1] + (cfg.grid.N // 2 + 1,)
        self.cos, self.sin_om, self.om_sin = _flow_tables(cfg.grid, dt, self.mass)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(x, out=np.empty(self.half_shape, complex))

    def _inverse(self, xh: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``np.fft.irfftn(xh, s=grid.shape)`` into out, the same transforms in the
        same order; the per-axis ``ifft`` calls go through the half spectrum scratch."""
        for axis in range(self.grid.d - 1):
            xh = np.fft.ifft(xh, axis=axis, out=scratch)
        return np.fft.irfft(xh, n=self.grid.N, axis=-1, out=out)

    def _kick(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The half kick, 0.5 dt times the half spectrum of f(u) - m u, into out.

        f(u) - m u is evaluated one slab of whole last-axis lines at a time,
        about field_core._BLOCK points (one line if a line is longer), and each
        slab is ``rfft``'d straight into its lines of out; then axes d-2..0 are
        ``fft``'d in place, rfftn's transforms in its order. f acts pointwise
        and each line is transformed alone, so out is bitwise
        0.5 dt * rfftn(f(u) - m u), whatever the block size.
        """
        N = self.grid.N
        flat_u, lines = u.reshape(-1), out.reshape(-1, N // 2 + 1)
        slab = max(1, field_core._BLOCK // N) * N
        buf = np.empty(min(slab, flat_u.size))
        # an overflow here leaves a non-finite u_t, which the loop turns into
        # BlowUpError, so numpy's warnings are silenced; the scaling too can
        # overflow, so it stays inside
        with np.errstate(over="ignore", invalid="ignore"):
            for a in range(0, flat_u.size, slab):
                ub = flat_u[a:a + slab]
                rb = buf[:ub.size]
                np.multiply(self.mass, ub, out=rb)
                np.subtract(self.spec.f(ub), rb, out=rb)
                np.fft.rfft(rb.reshape(-1, N), axis=-1, out=lines[a // N:(a + ub.size) // N])
            for axis in range(self.grid.d - 2, -1, -1):
                np.fft.fft(out, axis=axis, out=out)
            out *= 0.5 * self.dt
        return out

    def start(self, u0: np.ndarray, u1: np.ndarray) -> _SpectralState:
        """The state at t = 0 of u = u0, u_t = u1, without its kick (rh None), which
        the first step makes from the state's u; all its arrays are new."""
        return _SpectralState(np.array(u0, float), self._forward(u0), self._forward(u1),
                              None, 0.0)

    def __call__(self, s: _SpectralState) -> _SpectralState:
        uh, uth, kick = s.uh, s.uth, s.rh
        if kick is None:
            kick = self._kick(s.u, np.empty(self.half_shape, complex))
        uth -= kick
        # the exact flow, in chunks of about field_core._BLOCK points (at most
        # half the kick's rows) of each mirror half: kick is free until the new
        # one, so a chunk's om_sin * uh goes into its first r rows and
        # sin_om * uth into the next r
        chunk = max(1, min(kick.shape[0] // 2, field_core._BLOCK // kick[0].size))
        for rows, tables in mirror_halves(uh.shape[0], self.cos, self.sin_om, self.om_sin):
            for i in range(0, len(tables[0]), chunk):
                part = slice(i, i + chunk)
                a, b = uh[rows][part], uth[rows][part]
                cos, sin_om, om_sin = (table[part] for table in tables)
                r = len(a)
                t = np.multiply(om_sin, a, out=kick[:r])
                a *= cos
                a += np.multiply(sin_om, b, out=kick[r:2 * r])
                b *= cos
                b -= t
        u = self._inverse(uh, kick, s.u)
        uth -= self._kick(u, kick)
        return _SpectralState(u, uh, uth, kick, s.t + self.dt)

    def spectrum(self, rec) -> np.ndarray:
        return rec.state.uh

    def force(self, rec) -> np.ndarray:
        return self.spec.f(rec.u)

    def potential(self, rec) -> float:
        return _potential_integral(self.spec.F, rec.u, self.grid)

    def energy(self, rec):
        kin = 0.5 * parseval_norm_sq(rec.state.uth, self.grid)
        grad = 0.5 * parseval_norm_sq(rec.uh, self.grid, gradient=True)
        pot = rec.potential
        return kin + grad + pot, kin, grad, pot

    def velocity(self, rec) -> np.ndarray:
        uth = rec.state.uth
        return self._inverse(uth, np.empty_like(uth), np.empty(self.grid.shape))


class Verlet:
    """The velocity-leapfrog stepper, kept only as the tests' oracle for the impulse one.

    Its member for stepping.integrate is (Verlet(cfg), the initial WaveState).
    Its records give the energies (the potential integral as their last
    column), u_t, f(u) and the half spectrum of u, what the diagnostics trace,
    the weak identity and the boundary shares read.
    """

    columns = WAVE_COLUMNS

    def __init__(self, cfg: RunSchedule):
        self.cfg, self.grid = cfg, cfg.grid

    def __call__(self, s: WaveState) -> WaveState:
        return step(s, self.cfg)

    def energy(self, rec):
        rep = wave_energy(rec.state, self.cfg.spec)
        return rep.total, rep.kinetic, rep.gradient, rep.potential

    def potential(self, rec) -> float:
        # the oracle's energies compute the integral, so its records take it there
        return rec.energy[-1]

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
# The weak identity holds when its residual, scaled by the size of its terms,
# stays below this gate plus the time quadrature's error estimate. Correct
# default identity-checks of the seven wave catalog entries read 1.9e-7 to
# 9.1e-6 (estimates up to 2.3e-6), and the d = 1, N = 128, L = 16 run 2.5e-6,
# 4.3e-6 and 3.4e-5 at T = 2, 4 and 8, where two steps per record leave an
# estimate of 4.4e-5. With the identity's force scaled by 1.01, the defaults
# read 3.5e-5 (pure_power:p=3, whose u f(u) is the smallest term) to 1.8e-3.
WEAK_IDENTITY_GATE = 1.5e-5


@dataclass(frozen=True)
class WeakIdentityReport:
    """The weak identity's residual |lhs - rhs| / scale; scale, the time integral
    of |grad u|^2 + |u_t|^2 + |u f(u)| plus |B(0)| + |B(T)|; and quadrature, the
    trapezoid rule's error estimate (Richardson: its difference from the rule
    over every other record, over 3) relative to scale."""

    residual: float
    scale: float
    quadrature: float

    @property
    def holds(self) -> bool:
        return self.residual < WEAK_IDENTITY_GATE + self.quadrature


class WeakIdentity:
    """Observer: the multiplier identity for member 0, as a WeakIdentityReport.

    The space-time integral of |grad u|^2 - |u_t|^2 + u f(u) must equal
    B(0) - B(T) with B(t) = integral of u_t u, since d/dt B = |u_t|^2 -
    |grad u|^2 - u f(u). The left side is a difference of terms up to
    hundreds of times larger than itself, so the residual is scaled by the
    size of the terms (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 3.1), not by the sides. The integral of
    |grad u|^2 is twice the record's gradient energy, so a record of the
    impulse stepper makes one transform, the inverse one of u_t. The time
    quadrature needs WEAK_IDENTITY_RECORDS records.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.times, self.integrand, self.size = [], [], []
        self.b0 = self.bT = None

    def observe(self, r):
        grid = self.grid
        grad, kin = 2.0 * r.energy[2], l2_norm_sq(r.ut, grid)
        self.times.append(r.t)
        self.integrand.append(grad - kin + l2_inner(r.u, r.force, grid))
        uf = np.multiply(r.u, r.force)
        self.size.append(grad + kin + grid.cell_volume * float(np.sum(np.abs(uf, out=uf))))
        self.bT = l2_inner(r.ut, r.u, grid)
        if self.b0 is None:
            self.b0 = self.bT

    def result(self) -> WeakIdentityReport:
        n = len(self.times)
        if n < WEAK_IDENTITY_RECORDS:
            raise ValueError(f"need at least {WEAK_IDENTITY_RECORDS} records for the "
                             "time quadrature")
        t, y = np.array(self.times), np.array(self.integrand)
        lhs = float(np.trapezoid(y, t))
        every_other = np.r_[0:n - 1:2, n - 1]  # and the last record
        error = abs(float(np.trapezoid(y[every_other], t[every_other])) - lhs) / 3.0
        scale = float(np.trapezoid(np.array(self.size), t)) + abs(self.b0) + abs(self.bT)
        unit = max(scale, 1e-300)
        return WeakIdentityReport(abs(lhs - (self.b0 - self.bT)) / unit, scale, error / unit)
