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
A diagnostics record takes the kinetic and gradient energies from the half
spectra by Parseval and makes one ``irfftn`` for the stored u_t (none for the
initial record, whose u_t is the data). Setting the state up from (u0, u1)
takes three forward transforms. Stored snapshots are plain real (u, u_t)
arrays that own their buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .field_core import (
    GridSpec,
    WaveState,
    _potential_integral,
    boundary_leakage,
    gradient_norm_sq,
    half_gradient_norm_sq,
    half_l2_norm_sq,
    l2_inner,
    l2_norm_sq,
    laplacian,
    wave_energy,
)

__all__ = [
    "WaveRunConfig",
    "WaveTrajectory",
    "DiagnosticTrace",
    "BlowUpError",
    "step",
    "run",
    "max_leakage",
    "verify_prop_weak_identity",
]

CFL_SAFETY = 0.25


def stable_dt(h: float, d: int) -> float:
    """The largest stable wave time step, CFL_SAFETY * h / sqrt(d)."""
    return CFL_SAFETY * h / np.sqrt(d)


def stability_error(dt: float, h: float, d: int) -> str | None:
    """Why dt is not a positive step within the stability bound, or None."""
    if not 0.0 < dt <= (limit := stable_dt(h, d)) * (1.0 + 1e-12):
        return f"dt={dt:g} violates the stability bound {CFL_SAFETY}*h/sqrt(d)={limit:g}"


class BlowUpError(RuntimeError):
    def __init__(self, t_last: float):
        super().__init__(f"non-finite state; last valid time t={t_last:.6g}")
        self.t_last = t_last


class _RunSchedule:
    """Step count, record stride and leakage margin of a wave or NLS run.

    Mixed into the run configs, which supply ``grid``, ``dt``, ``T`` and
    ``diagnostics_stride``.
    """

    def steps(self) -> int:
        return max(1, round(self.T / self.dt))

    def stride(self) -> int:
        if self.diagnostics_stride > 0:
            return self.diagnostics_stride
        return max(1, self.steps() // 128)

    def margin(self) -> float:
        return self.grid.L / 8.0


@dataclass(frozen=True)
class WaveRunConfig(_RunSchedule):
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


@dataclass
class WaveTrajectory:
    grid: GridSpec
    spec: object
    times: np.ndarray
    us: list
    uts: list

    def state(self, i: int) -> WaveState:
        return WaveState(self.grid, self.us[i], self.uts[i], float(self.times[i]))

    def __len__(self) -> int:
        return len(self.us)


@dataclass
class DiagnosticTrace:
    columns: tuple
    rows: list = field(default_factory=list)

    def add(self, *values: float):
        self.rows.append(tuple(float(v) for v in values))

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([r[i] for r in self.rows])

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"


def step(state: WaveState, cfg: WaveRunConfig) -> WaveState:
    """One velocity-leapfrog step; exactly reversible under ut -> -ut."""
    dt, grid, spec = cfg.dt, cfg.grid, cfg.spec
    ut_half = state.ut + 0.5 * dt * (laplacian(state.u, grid) - spec.f(state.u))
    u_new = state.u + dt * ut_half
    ut_new = ut_half + 0.5 * dt * (laplacian(u_new, grid) - spec.f(u_new))
    return WaveState(grid, u_new, ut_new, state.t + dt)


@dataclass(frozen=True)
class _SpectralState:
    """Impulse-stepper state: u with the rfftn half spectra of u, u_t and f(u) - m u.

    ``ut`` is the physical u_t where it is known without a transform (the
    initial data), else None.
    """

    u: np.ndarray
    uh: np.ndarray
    uth: np.ndarray
    rh: np.ndarray
    t: float
    ut: np.ndarray | None = None

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.uth)))


class _SpectralImpulse:
    """Kick-drift-kick with the linearized flow solved exactly per mode."""

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
                              self._residual_spectrum(state.u), state.t, state.ut)

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

    def snapshot(self, s: _SpectralState) -> WaveState:
        ut = s.ut
        if ut is None:
            ut = np.fft.irfftn(s.uth, s=self.cfg.grid.shape, axes=self.axes)
        return WaveState(self.cfg.grid, s.u, ut, s.t)


def _integrate(advance, state, cfg, columns, energy, snapshot=lambda s: s):
    """The time-stepping loop shared by the wave and NLS integrators.

    Applies ``advance`` cfg.steps() times and records the initial state, every
    cfg.stride()-th state and the final one: ``snapshot(state)`` is stored,
    and the trace gets time, the values ``energy(state)`` returns for
    ``columns[1:-2]``, boundary leakage and sup norm. Raises BlowUpError at
    the first non-finite state. Returns (times, snapshots, trace).
    """
    n, stride, margin = cfg.steps(), cfg.stride(), cfg.margin()
    times, states = [], []
    trace = DiagnosticTrace(columns)

    def record(s):
        times.append(s.t)
        states.append(snapshot(s))
        trace.add(s.t, *energy(s), boundary_leakage(s.u, cfg.grid, margin),
                  np.max(np.abs(s.u)))

    record(state)
    for i in range(1, n + 1):
        state = advance(state)
        if not state.is_finite():
            raise BlowUpError(times[-1])
        if i % stride == 0 or i == n:
            record(state)
    return np.array(times), states, trace


def run(cfg: WaveRunConfig):
    """Evolve to T, recording snapshots and the conservation diagnostics."""
    state = WaveState(cfg.grid, np.asarray(cfg.u0, float), np.asarray(cfg.u1, float), 0.0)
    if cfg.method == "impulse":
        stepper = _SpectralImpulse(cfg)
        advance, energy, snapshot = stepper, stepper.energy, stepper.snapshot
        state = stepper.start(state)
    elif cfg.method == "verlet":
        def advance(s):
            return step(s, cfg)

        def energy(s: WaveState):
            rep = wave_energy(s, cfg.spec)
            return rep.total, rep.kinetic, rep.gradient, rep.potential

        def snapshot(s):
            return s
    else:
        raise ValueError(f"unknown method {cfg.method!r}")

    times, states, trace = _integrate(
        advance, state, cfg,
        ("t", "E_total", "E_kinetic", "E_gradient", "E_potential", "leakage", "sup_norm"),
        energy, snapshot,
    )
    traj = WaveTrajectory(cfg.grid, cfg.spec, times,
                          [s.u for s in states], [s.ut for s in states])
    return traj, trace


def max_leakage(trace: DiagnosticTrace) -> float:
    return float(np.max(trace.column("leakage")))


def verify_prop_weak_identity(traj: WaveTrajectory, spec=None) -> float:
    """Residual of the multiplier identity for the solution itself.

    Space-time integral of |grad v|^2 - |v_t|^2 + v f(v) must equal
    B(0) - B(T) with B(t) = integral of v_t v. (The sign of the boundary
    term follows from d/dt B = |v_t|^2 - |grad v|^2 - v f(v).)
    """
    spec = spec if spec is not None else traj.spec
    grid = traj.grid
    if len(traj) < 64:
        raise ValueError("need at least 64 snapshots for the time quadrature")
    integrand = np.array(
        [
            gradient_norm_sq(u, grid) - l2_norm_sq(ut, grid)
            + l2_inner(u, spec.f(u), grid)
            for u, ut in zip(traj.us, traj.uts)
        ]
    )
    lhs = float(np.trapezoid(integrand, traj.times))
    b0 = l2_inner(traj.uts[0], traj.us[0], grid)
    bT = l2_inner(traj.uts[-1], traj.us[-1], grid)
    rhs = b0 - bT
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)
