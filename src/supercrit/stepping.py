"""The one time-stepping loop of the wave and NLS integrators, and its observers.

``integrate(members, schedule, observers)`` advances one or more
``(stepper, state)`` members in lockstep on the grid, dt, T and record stride
of ``schedule``; each stepper carries its own nonlinearity. It records the
initial states, every ``schedule.stride()``-th step and the last one. At a
record it evaluates each member's energies, wraps the states in ``Record``s
(in member order), and calls ``observer.observe(records)`` on every
observer; at the end it returns the final records and each
``observer.result()``. It keeps nothing else, so no run stores a trajectory:
an observer keeps the per-record numbers it needs, not the records. A
``Record`` computes the physical u_t once, on first use.

A stepper advances a state by dt when called and has ``columns``,
``energy(state)`` and ``velocity(state)``; a state has ``t``, ``u`` and
``is_finite()``. A non-finite member raises BlowUpError with the last record
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .field_core import boundary_leakage

__all__ = ["BlowUpError", "RunSchedule", "DiagnosticTrace", "Record", "RunEnd",
           "integrate", "run_single"]


class BlowUpError(RuntimeError):
    def __init__(self, t_last: float):
        super().__init__(f"non-finite state; last valid time t={t_last:.6g}")
        self.t_last = t_last


class RunSchedule:
    """Steps, record stride and leakage margin; mixed into the wave and NLS run
    configs, which supply ``grid``, ``dt``, ``T`` and ``diagnostics_stride``."""

    def steps(self) -> int:
        return max(1, round(self.T / self.dt))

    def stride(self) -> int:
        if self.diagnostics_stride > 0:
            return self.diagnostics_stride
        return max(1, self.steps() // 128)

    def margin(self) -> float:
        return self.grid.L / 8.0


@dataclass
class DiagnosticTrace:
    """Per-record diagnostics of a run; as an observer it traces member 0.

    An observed row is t, the stepper's energies, the boundary leakage
    (the shell ``margin`` wide) and the sup norm.
    """

    columns: tuple
    rows: list = field(default_factory=list)
    grid: object = None
    margin: float = 0.0

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

    def observe(self, records):
        r = records[0]
        self.add(r.t, *r.energy, boundary_leakage(r.u, self.grid, self.margin),
                 np.max(np.abs(r.u)))

    def result(self) -> DiagnosticTrace:
        return self


class Record:
    """One member's state at a record; derived quantities are computed once."""

    def __init__(self, stepper, state):
        self.stepper, self.state = stepper, state
        self.t, self.u = state.t, state.u

    @cached_property
    def energy(self) -> tuple:
        return self.stepper.energy(self.state)

    @cached_property
    def ut(self) -> np.ndarray:
        return self.stepper.velocity(self.state)


@dataclass(frozen=True)
class RunEnd:
    """The final record of a one-member run and the number of records made."""

    last: Record
    records: int

    def __len__(self) -> int:
        return self.records

    @property
    def us(self) -> tuple:
        """The fields the run keeps besides its trace: the final u only."""
        return (self.last.u,)


def integrate(members, schedule, observers=()):
    """Advance every (stepper, state) member to T in lockstep, feeding observers.

    Returns (final records, observer results); see the module docstring.
    """
    steppers = [stepper for stepper, _ in members]
    states = [state for _, state in members]
    n, stride = schedule.steps(), schedule.stride()

    def record() -> float:
        records = [Record(stepper, s) for stepper, s in zip(steppers, states)]
        for r in records:
            # a potential that overflows raises AmplitudeError here, before
            # any observer evaluates the force on the record
            r.energy
        for obs in observers:
            obs.observe(records)
        return records[0].t

    t_last = record()
    for i in range(1, n + 1):
        states = [stepper(s) for stepper, s in zip(steppers, states)]
        if not all(s.is_finite() for s in states):
            raise BlowUpError(t_last)
        if i % stride == 0 or i == n:
            t_last = record()
    finals = [Record(stepper, s) for stepper, s in zip(steppers, states)]
    return finals, [obs.result() for obs in observers]


def run_single(stepper, state, schedule):
    """Integrate one member with the diagnostics trace; returns (RunEnd, trace)."""
    trace = DiagnosticTrace(("t", *stepper.columns, "leakage", "sup_norm"),
                            grid=schedule.grid, margin=schedule.margin())
    (last,), _ = integrate([(stepper, state)], schedule, [trace])
    return RunEnd(last, len(trace.rows)), trace
