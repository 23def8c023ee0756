"""Flat key=value experiment configuration with exact error reporting.

Format: one ``key = value`` per line and ``#`` comments. Every parameter is
flat: a ``[section]`` header line, whatever its name, is skipped, and the
keys below it are read as they stand. A key set twice takes its last value.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .assumption_lab import LAB_D
from .field_core import GridSpec
from .nonlinearity import (
    NlsNonlinearitySpec,
    SelectionError,
    TruncationError,
    find_truncation_abscissae,
    from_selection,
    truncate,
    two_star,
)
from .nls_integrator import accuracy_error
from .stepping import RunSchedule
from .wave_integrator import WEAK_IDENTITY_RECORDS, stability_error, stable_dt

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "serialize_config"]

KINDS = (
    "check-assumptions",
    "simulate-wave",
    "simulate-nls",
    "weak-strong",
    "appendix-construct",
    "identity-check",
)

# the perturbation sizes of a weak-strong run whose config sets no ladder,
# increasing as validate asks of every ladder
DEFAULT_LADDER = (1e-3, 1e-2, 1e-1)
# The keys a kind takes where its config sets none. check-assumptions takes its
# constants at d = LAB_D only. simulate-nls takes the nls-ladder geometry: its
# bump disperses at unbounded speed, so on the wave's L = 8 it reaches the
# boundary shell by T = 1 (largest shell share 0.20 at d = 1, 0.36 at d = 2),
# while L = 40, radius 5, T = 0.5 keep it at 2.9e-8 (d = 1, N = 256), 9.4e-7
# (d = 2, N = 64) and 9.2e-9 (d = 3, N = 32).
KIND_DEFAULTS = {
    "check-assumptions": {"d": LAB_D},
    "simulate-nls": {"L": 40.0, "radius": 5.0, "T": 0.5},
}
# A config whose estimated working set exceeds this fixed limit (not read from
# the host) is refused at parse time, before any field is allocated.
WORKING_SET_LIMIT = 4 * 2 ** 30
# A config whose work, steps x N^d x states stepped in lockstep, exceeds this
# fixed limit is refused at parse time. A point-step took 38 ns in wave3d
# (45 steps of 64^3 points in 0.45 s) and 120 ns in nls-ladder (4 states of
# 100 steps of 128^2 points in 0.80 s) on a 2-vCPU Xeon, so the limit is 20 to
# 60 minutes of stepping.
WORK_LIMIT = 3e10


class ConfigError(ValueError):
    def __init__(self, errors: list):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    nonlinearity: str = "defocusing_exp:m=1"
    d: int = 1
    N: int = 256
    L: float = 8.0
    dt: float = 0.0          # 0: kind-dependent default
    T: float = 1.0
    amplitude: float = 0.5
    radius: float = 1.0
    ladder: tuple = ()
    R: float = 2.0           # sampling radius for assumption checks
    seed: int = 0
    stride: int = 0          # 0: auto (~128 snapshots)

    def grid(self) -> GridSpec:
        return GridSpec(self.d, self.N, self.L)

    def spec(self):
        return from_selection(self.nonlinearity)

    def effective_dt(self) -> float:
        if self.dt > 0:
            return self.dt
        h = self.L / self.N
        if self.kind == "simulate-nls":
            return min(h / 4.0, 1e-3)
        return stable_dt(h, self.d)

    def experiment_id(self) -> str:
        canon = serialize_config(self)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _ladder(value: str) -> tuple:
    return tuple(float(v) for v in value.split(",") if v.strip())


# each key's parser, from the annotation of its ExperimentConfig field
_FIELDS = {f.name: {"str": str, "int": int, "float": float, "tuple": _ladder}[f.type]
           for f in fields(ExperimentConfig)}


def parse_config(text: str, kind: str | None = None, overrides=()) -> ExperimentConfig:
    """Parse text, then the ``(source, line)`` pairs of overrides, and fully validate.

    Raises ConfigError listing every problem. An error names its line number
    in text, or the source of its override (such as the environment variable
    that set it).
    """
    errors: list = []
    values: dict = {}
    numbered = [(f"line {n}", raw) for n, raw in enumerate(text.splitlines(), start=1)]
    for where, raw in [*numbered, *overrides]:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            errors.append(f"{where}: expected key=value, got {raw.strip()!r}")
            continue
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            errors.append(f"{where}: unknown key {key!r}")
            continue
        try:
            values[key] = _FIELDS[key](value)
        except ValueError:
            errors.append(f"{where}: bad value for {key!r}: {value!r}")

    if kind is not None:
        if "kind" in values and values["kind"] != kind:
            errors.append(f"config kind {values['kind']!r} conflicts with subcommand {kind!r}")
        values["kind"] = kind
    if "kind" not in values:
        errors.append("missing required key 'kind'")
    elif values["kind"] not in KINDS:
        errors.append(f"unknown kind {values['kind']!r}; expected one of {KINDS}")

    if errors:
        raise ConfigError(errors)
    for key, value in KIND_DEFAULTS.get(values["kind"], {}).items():
        values.setdefault(key, value)
    cfg = ExperimentConfig(**values)
    errors = validate(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def validate(cfg: ExperimentConfig) -> list:
    errors = []
    for name, conv in _FIELDS.items():
        value = getattr(cfg, name)
        values = value if conv is _ladder else (value,)
        if conv in (float, _ladder) and not all(map(math.isfinite, values)):
            errors.append(f"{name}={value} must be finite")
    if cfg.d not in (1, 2, 3):
        errors.append(f"d={cfg.d} must be 1, 2 or 3")
    elif cfg.kind == "check-assumptions" and cfg.d != LAB_D:
        errors.append(f"d={cfg.d}: check-assumptions takes its constants at d = {LAB_D} only")
    if cfg.N < 8 or cfg.N & (cfg.N - 1):
        errors.append(f"N={cfg.N} must be a power of two >= 8")
    if cfg.L <= 0:
        errors.append(f"L={cfg.L} must be positive")
    if cfg.T <= 0:
        errors.append(f"T={cfg.T} must be positive")
    if cfg.dt < 0:
        errors.append(f"dt={cfg.dt} must be nonnegative")
    if cfg.radius <= 0:
        errors.append(f"radius={cfg.radius} must be positive")
    if cfg.R <= 0:
        errors.append(f"R={cfg.R} must be positive")
    if cfg.stride < 0:
        errors.append(f"stride={cfg.stride} must be nonnegative")
    if cfg.seed < 0 or cfg.seed >= 2 ** 64:
        errors.append("seed must fit in 64 bits")
    try:
        spec = from_selection(cfg.nonlinearity)
    except SelectionError as exc:
        errors.append(str(exc))
        return errors
    if cfg.d >= 3 and spec.q is not None and spec.q >= two_star(cfg.d):
        errors.append(
            f"q={spec.q:g} >= 2*={two_star(cfg.d):g} for d={cfg.d} "
            "violates the subcritical growth bound"
        )
    wants_nls = isinstance(spec, NlsNonlinearitySpec)
    with np.errstate(all="ignore"):
        at_zero = (spec.Fs(0.0), spec.Fsprime(0.0)) if wants_nls else (spec.F(0.0), spec.f(0.0))
    if not np.all(np.isfinite(at_zero)):
        names = "Fs or Fs'" if wants_nls else "F or f"
        errors.append(f"{cfg.nonlinearity!r}: {names} is not finite at 0")
    if cfg.kind == "simulate-nls" and not wants_nls:
        errors.append(f"{cfg.nonlinearity!r} is not an NLS nonlinearity")
    wave_kinds = ("simulate-wave", "appendix-construct", "identity-check")
    if cfg.kind in wave_kinds and wants_nls:
        errors.append(f"{cfg.nonlinearity!r} is not a wave nonlinearity")
    wave_run = cfg.kind in wave_kinds + ("weak-strong",) and not wants_nls
    if not errors and wave_run and cfg.dt > 0 \
            and (problem := stability_error(cfg.dt, cfg.L / cfg.N, cfg.d)):
        errors.append(problem)
    schedule = None
    if not errors and cfg.kind != "check-assumptions":
        # the run's own schedule, so that its rules are checked where they are kept
        try:
            schedule = RunSchedule(cfg.grid(), spec, cfg.effective_dt(), cfg.T, cfg.stride)
        except ValueError as exc:
            errors.append(str(exc))
    if schedule is not None and cfg.kind == "identity-check" \
            and (records := schedule.records()) < WEAK_IDENTITY_RECORDS:
        errors.append(f"identity-check makes {records} records, but the weak identity's "
                      f"time quadrature needs {WEAK_IDENTITY_RECORDS}: raise T, or lower "
                      "dt or stride")
    if not errors and cfg.kind in ("simulate-nls", "weak-strong") and wants_nls \
            and (problem := accuracy_error(cfg.dt, cfg.L / cfg.N)):
        errors.append(problem)
    if cfg.kind == "appendix-construct" and len(cfg.ladder) < 3:
        errors.append("appendix-construct needs a ladder of at least 3 levels")
    # weak-strong divides by eps^2, so each square must be a positive float
    if not all(v > 0.0 and v * v > 0.0 for v in cfg.ladder):
        errors.append(f"ladder={cfg.ladder} entries must be positive, with positive squares")
    if cfg.ladder and list(cfg.ladder) != sorted(set(cfg.ladder)):
        errors.append("ladder values must be strictly increasing")
    if not errors and cfg.kind == "appendix-construct":
        # each cut height needs an admissible abscissa and finite cut values
        for k in cfg.ladder:
            try:
                truncate(spec, find_truncation_abscissae(spec, k))
            except TruncationError as exc:
                errors.append(f"ladder level {k:g}: {exc}")
    if not errors and (need := working_set_bytes(cfg)) > WORKING_SET_LIMIT:
        errors.append(f"estimated working set {need / 2 ** 30:.3g} GiB exceeds the "
                      f"{WORKING_SET_LIMIT / 2 ** 30:g} GiB limit")
    if not errors and schedule is not None \
            and (work := schedule.steps() * _states(cfg) * float(cfg.N) ** cfg.d) > WORK_LIMIT:
        errors.append(f"the run's {work:.3g} point-steps exceed the {WORK_LIMIT:g} limit: "
                      "raise dt, or lower T or N")
    return errors


def _states(cfg: ExperimentConfig) -> int:
    """The states a run of cfg steps in lockstep: one per ladder member of
    weak-strong and appendix-construct, plus the reference."""
    ladder = cfg.kind in ("weak-strong", "appendix-construct")
    return 1 + ladder * len(cfg.ladder or DEFAULT_LADDER)


def working_set_bytes(cfg: ExperimentConfig) -> float:
    """Bytes a run of a valid cfg holds at once.

    160 per grid point for each state stepped in lockstep, one per ladder
    member plus the reference. Measured as the tracemalloc peak of a CLI
    run: simulate-wave 43 at d = 2, N = 512, 43 at d = 3, N = 64 and 77 at
    d = 1, N = 65536 (L = 10, radius 1.5); a wave weak-strong ladder 56 per
    state at d = 3, N = 64; NLS 97 for one state and 76 per state of a
    weak-strong ladder at d = 2, N = 512 (L = 40, radius 1.5), so one NLS
    state needs the larger bound. The integrability probe of
    appendix-construct keeps scalars per record.
    """
    points = 0.0 if cfg.kind == "check-assumptions" else float(cfg.N) ** cfg.d
    return 160.0 * points * _states(cfg)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg and hashes are stable."""
    lines = []
    for name in sorted(_FIELDS):
        value = getattr(cfg, name)
        if name == "ladder":
            if not value:
                continue
            rendered = ",".join(format(v, ".17g") for v in value)
        elif isinstance(value, float):
            rendered = format(value, ".17g")
        else:
            rendered = str(value)
        lines.append(f"{name} = {rendered}")
    return "\n".join(lines) + "\n"
