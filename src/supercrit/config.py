"""Flat key=value experiment configuration with exact error reporting.

Format: one ``key = value`` per line, ``#`` comments, optional ``[section]``
headers that prefix the following keys as ``section.key``. Every parameter in
this artifact is flat, so no nesting beyond that is supported.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from .field_core import GridSpec
from .nonlinearity import (
    NlsNonlinearitySpec,
    SelectionError,
    from_selection,
    two_star,
)
from .nls_integrator import accuracy_error
from .wave_integrator import stability_error, stable_dt

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "serialize_config"]

KINDS = (
    "check-assumptions",
    "simulate-wave",
    "simulate-nls",
    "weak-strong",
    "appendix-construct",
    "identity-check",
)

# the perturbation sizes of a weak-strong run whose config sets no ladder
DEFAULT_LADDER = (1e-1, 1e-2, 1e-3)
# A config whose estimated working set exceeds this fixed limit (not read from
# the host) is refused at parse time, before any field is allocated.
WORKING_SET_LIMIT = 4 * 2 ** 30


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


_FIELDS = {
    "kind": str,
    "nonlinearity": str,
    "d": int,
    "N": int,
    "L": float,
    "dt": float,
    "T": float,
    "amplitude": float,
    "radius": float,
    "ladder": "ladder",
    "R": float,
    "seed": int,
    "stride": int,
}

# accepted with or without the section prefix
_SECTION_ALIASES = {"grid.d": "d", "grid.N": "N", "grid.L": "L", "run.dt": "dt",
                    "run.T": "T", "run.seed": "seed", "run.stride": "stride"}


def parse_config(text: str, kind: str | None = None) -> ExperimentConfig:
    """Parse and fully validate; raises ConfigError listing every problem."""
    errors: list = []
    values: dict = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        key, eq, value = line.partition("=")
        if not eq:
            errors.append(f"line {lineno}: expected key=value, got {raw.strip()!r}")
            continue
        key, value = key.strip(), value.strip()
        full = f"{section}.{key}" if section else key
        full = _SECTION_ALIASES.get(full, full if full in _FIELDS else key)
        if full not in _FIELDS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        conv = _FIELDS[full]
        try:
            if conv == "ladder":
                values[full] = tuple(float(v) for v in value.split(",") if v.strip())
            else:
                values[full] = conv(value)
        except ValueError:
            errors.append(f"line {lineno}: bad value for {key!r}: {value!r}")

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
    cfg = ExperimentConfig(**values)
    errors = validate(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg


def validate(cfg: ExperimentConfig) -> list:
    errors = []
    for name, conv in _FIELDS.items():
        value = getattr(cfg, name)
        values = value if conv == "ladder" else (value,)
        if conv in (float, "ladder") and not all(map(math.isfinite, values)):
            errors.append(f"{name}={value} must be finite")
    if cfg.d not in (1, 2, 3):
        errors.append(f"d={cfg.d} must be 1, 2 or 3")
    if cfg.N < 8 or cfg.N & (cfg.N - 1):
        errors.append(f"N={cfg.N} must be a power of two >= 8")
    if cfg.L <= 0:
        errors.append(f"L={cfg.L} must be positive")
    if cfg.T <= 0:
        errors.append(f"T={cfg.T} must be positive")
    if cfg.dt < 0:
        errors.append(f"dt={cfg.dt} must be nonnegative")
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
    if cfg.kind == "simulate-nls" and not wants_nls:
        errors.append(f"{cfg.nonlinearity!r} is not an NLS nonlinearity")
    if cfg.kind in ("simulate-wave", "appendix-construct") and wants_nls:
        errors.append(f"{cfg.nonlinearity!r} is not a wave nonlinearity")
    if not errors and cfg.kind in ("simulate-wave", "weak-strong", "appendix-construct") \
            and not wants_nls and cfg.dt > 0 \
            and (problem := stability_error(cfg.dt, cfg.L / cfg.N, cfg.d)):
        errors.append(problem)
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
    if not errors and (need := working_set_bytes(cfg)) > WORKING_SET_LIMIT:
        errors.append(f"estimated working set {need / 2 ** 30:.3g} GiB exceeds the "
                      f"{WORKING_SET_LIMIT / 2 ** 30:g} GiB limit")
    return errors


def working_set_bytes(cfg: ExperimentConfig) -> float:
    """Bytes a run of a valid cfg holds at once.

    160 per grid point for each state stepped in lockstep (measured: 135 for
    wave, 96 for NLS), one per ladder member plus the reference; the probe
    of appendix-construct adds 40 per point and record (measured: 33).
    """
    points = 0.0 if cfg.kind == "check-assumptions" else float(cfg.N) ** cfg.d
    ladder = cfg.kind in ("weak-strong", "appendix-construct")
    total = 160.0 * points * (1 + ladder * len(cfg.ladder or DEFAULT_LADDER))
    if cfg.kind == "appendix-construct":
        steps = cfg.T / cfg.effective_dt()
        total += 40.0 * points * (2 + (steps / cfg.stride if cfg.stride else min(steps, 256)))
    return total


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


def with_overrides(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    cfg = replace(cfg, **{k: v for k, v in kwargs.items() if v is not None})
    errors = validate(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg
