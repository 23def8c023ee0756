"""The one time-stepping loop of the wave and NLS integrators, and its observers.

``integrate(members, schedule, observers)`` advances one or more
``(stepper, state)`` members in lockstep on the grid, dt, T and record stride
of ``schedule``; each stepper carries its own nonlinearity. It records the
initial states, every ``schedule.stride()``-th step and the last one. A
record streams the members through the observers, one member at a time. It
wraps member 0's state in a ``Record``, evaluates its potential integral and
calls ``observer.observe(ref)`` on every observer; an observer returns None,
or a reader that takes each later member's ``Record``. Then each later member
in turn gets its ``Record``, its potential integral, and every reader's call,
and its ``Record`` is dropped before the next member's is built. So a record
holds the derived fields of member 0 and of at most one other member. A
potential that overflows raises AmplitudeError when that member's potential
integral is evaluated, before any observer reads its record (the observers
may have read the members before it). The other energies are summed only
for an observer that reads them. At the end
``integrate`` returns the final records, each ``observer.result()`` and the
run's ``Boundary``: the largest shell and tail shares of member 0's records.
It keeps nothing else, so no run stores a trajectory: an observer keeps the
per-record numbers it needs, not the records.

``Boundary.reached`` is the one rule for whether a run reached the periodic
box's boundary, which the runner applies to every integrating kind: the
largest shell share exceeds both ``field_core.LEAKAGE_LIMIT`` and the largest
tail share. A field whose top third of modes holds more than the shell is
under-resolved, and its spectral tail is what the shell reads, not mass that
travelled there (Boyd, Chebyshev and Fourier Spectral Methods, 2001, ch. 11).

A ``Record`` holds a member's ``stepper``, ``state``, ``t`` and ``u``, and
computes each derived field once, on first use, by calling the stepper
method named in brackets with the record; the energies and every observer
share them:

* ``potential`` [``potential``]: the potential integral
  (``field_core._potential_integral``, which sums the potential a block at a
  time, so no record builds a potential density), which every record takes;
* ``energy`` [``energy``]: the stepper's energy columns, whose last is
  ``potential`` for both equations; an observer that reads no other column
  reads ``potential``, so its run sums no other energy;
* ``ut`` [``velocity``]: the physical u_t;
* ``uh`` [``spectrum``]: the spectrum of u (the ``np.fft.fftn`` spectrum
  for NLS, the ``np.fft.rfftn`` half spectrum for wave);
* ``force`` [``force``]: f(u);
* ``leakage`` and ``tail``: the boundary shares of u and ``uh``
  (``field_core.leakage``), computed together, with no transform.

A stepper advances a state by dt when called, has ``columns`` and ``grid``,
and provides the fields its records are asked for; the energies come from
the record's own fields. A state has ``t``, ``u`` and ``is_finite()``. A
non-finite member raises BlowUpError with the last record time.

A stepper may overwrite the arrays of the state it is given (the wave
stepper does, and the NLS stepper its rotation), and ``integrate`` never
reads a state after stepping it. So an observer must copy, not keep, any
array of a record it needs after the record: the next step may overwrite it.
Its reader may keep member 0's ``Record`` until the record ends, and must not
keep a later member's.

A ``RunSchedule`` holds a run's grid, nonlinearity, the dt asked for, T and
record stride, the same for both equations; it refuses a T/dt that
overflows. The step count is ceil(T/dt - 1e-9), so a T that is a whole
number of steps up to rounding takes exactly that many, and every stepper
steps by ``step()`` = T / steps: a run ends at T, and its step never
exceeds the dt asked for (up to rounding). Each stepper checks its own
bound, stability or accuracy, on the dt asked for, which the configs check
too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .field_core import LEAKAGE_LIMIT, GridSpec, leakage

__all__ = ["BlowUpError", "RunSchedule", "Boundary", "DiagnosticTrace", "Record",
           "integrate", "run_single"]


class BlowUpError(RuntimeError):
    def __init__(self, t_last: float):
        super().__init__(f"non-finite state; last valid time t={t_last:.6g}")
        self.t_last = t_last


@dataclass(frozen=True)
class RunSchedule:
    """The schedule of a wave or NLS run; the initial data go to a member, not here."""

    grid: GridSpec
    spec: object
    dt: float
    T: float
    diagnostics_stride: int = 0  # 0: choose for ~128 records

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.T > 0:
            raise ValueError("T must be positive")
        # as Python floats, whose overflow is inf rather than a numpy warning
        if not math.isfinite(float(self.T) / float(self.dt)):
            raise ValueError(f"T/dt = {self.T:g}/{self.dt:g} overflows: no finite step count")

    def steps(self) -> int:
        return max(1, math.ceil(self.T / self.dt - 1e-9))

    def step(self) -> float:
        """The step length T / steps(), so that the last step ends at T."""
        return self.T / self.steps()

    def stride(self) -> int:
        if self.diagnostics_stride > 0:
            return self.diagnostics_stride
        return max(1, self.steps() // 128)

    def records(self) -> int:
        """How many records integrate makes: t = 0, every stride()-th step and the last."""
        return 1 + -(-self.steps() // self.stride())


@dataclass(frozen=True)
class Boundary:
    """The largest boundary shares of member 0's records over a run: shell
    (``leakage``) and tail; its fields are a payload's evidence."""

    leakage: float
    tail: float

    @property
    def reached(self) -> bool:
        """Whether the run reached the box boundary: the one rule (see the
        module docstring)."""
        return self.leakage > max(LEAKAGE_LIMIT, self.tail)


@dataclass
class DiagnosticTrace:
    """Per-record diagnostics of a run; as an observer it traces member 0.

    An observed row is t, the stepper's energies, the record's boundary
    shares (``leakage`` and ``tail``) and the sup norm; observing sets
    ``columns`` to their names.
    """

    columns: tuple = ()
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

    def observe(self, r):
        self.columns = ("t", *r.stepper.columns, "leakage", "tail", "sup_norm")
        # a real field's sup norm as max(max u, -min u) makes no |u| field
        sup = np.max(np.abs(r.u)) if np.iscomplexobj(r.u) else np.maximum(r.u.max(), -r.u.min())
        self.add(r.t, *r.energy, r.leakage, r.tail, sup)

    def result(self) -> DiagnosticTrace:
        return self


class Record:
    """One member's state at a record; each derived field is computed once."""

    def __init__(self, stepper, state):
        self.stepper, self.state = stepper, state
        self.t, self.u = state.t, state.u

    @cached_property
    def potential(self) -> float:
        return self.stepper.potential(self)

    @cached_property
    def energy(self) -> tuple:
        return self.stepper.energy(self)

    @cached_property
    def ut(self) -> np.ndarray:
        return self.stepper.velocity(self)

    @cached_property
    def uh(self) -> np.ndarray:
        return self.stepper.spectrum(self)

    @cached_property
    def force(self) -> np.ndarray:
        return self.stepper.force(self)

    @cached_property
    def shares(self) -> tuple:
        return leakage(self.u, self.uh, self.stepper.grid)

    @property
    def leakage(self) -> float:
        return self.shares[0]

    @property
    def tail(self) -> float:
        return self.shares[1]


def integrate(members, schedule, observers=()):
    """Advance every (stepper, state) member to T in lockstep, feeding observers.

    Returns (final records, observer results, Boundary); see the module docstring.
    """
    steppers = [stepper for stepper, _ in members]
    states = [state for _, state in members]
    # a caller that builds the member list in the call holds no initial
    # state, so each one is released by its first step
    del members
    n, stride = schedule.steps(), schedule.stride()
    shell = tail = 0.0  # member 0's largest boundary shares

    def record() -> float:
        nonlocal shell, tail
        ref = Record(steppers[0], states[0])
        ref.potential  # raises AmplitudeError before an observer reads the record
        shell, tail = max(shell, ref.leakage), max(tail, ref.tail)
        readers = [read for obs in observers if (read := obs.observe(ref)) is not None]
        for stepper, state in zip(steppers[1:], states[1:]):
            rec = Record(stepper, state)
            rec.potential
            for read in readers:
                read(rec)
            # dropped before the next member's record is built
            del rec
        return ref.t

    t_last = record()
    for i in range(1, n + 1):
        for k, stepper in enumerate(steppers):
            # in place, so at most one member holds an old and a new state
            states[k] = stepper(states[k])
        if not all(s.is_finite() for s in states):
            raise BlowUpError(t_last)
        if i % stride == 0 or i == n:
            t_last = record()
    finals = [Record(stepper, s) for stepper, s in zip(steppers, states)]
    return finals, [obs.result() for obs in observers], Boundary(shell, tail)


def run_single(member, schedule):
    """Integrate member(schedule), a (stepper, initial state) pair, with the
    diagnostics trace; returns (final Record, trace, Boundary).

    The member is built in the integrate call, so initial data that member()
    builds are gone once it returns, and its initial state goes at the first
    step."""
    trace = DiagnosticTrace()
    (last,), _, boundary = integrate([member(schedule)], schedule, [trace])
    return last, trace, boundary
