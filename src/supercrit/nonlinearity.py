"""Catalog of nonlinearities, Lipschitz truncation, and the C1 saturation cutoff.

All evaluators are plain numpy-vectorized closures over floats; specs are
immutable and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "NonlinearitySpec",
    "NlsNonlinearitySpec",
    "TruncationLevel",
    "AssumptionClass",
    "builtin_catalog",
    "from_selection",
    "truncate",
    "find_truncation_abscissae",
    "beta_cutoff",
    "two_star",
    "TruncationError",
    "SelectionError",
]


class TruncationError(ValueError):
    """Raised when a truncation level violates the sign condition."""


class SelectionError(ValueError):
    """Raised for malformed or unknown nonlinearity selection strings."""


class AssumptionClass:
    DEFOCUSING = "defocusing"          # u f(u) >= 0
    OSCILLATING = "oscillating"        # |f| <= C|u|^q and F >= -C|u|^2
    NLS_COERCIVE = "nls_coercive"      # 0 <= sqrt(s) F'(s) <= C F(s)
    NLS_SUBCRIT = "nls_subcrit"        # |f| <= C|u|^q, F(|u|^2/2) >= -C|u|^2


def two_star(d: int, q_max: float = 10.0) -> float:
    """Critical Sobolev exponent 2d/(d-2); for d <= 2 a finite surrogate q_max."""
    if d >= 3:
        return 2.0 * d / (d - 2.0)
    return q_max


@dataclass(frozen=True)
class NonlinearitySpec:
    """Real scalar nonlinearity: potential F, force f = F', and f'."""

    name: str
    F: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    assumption_class: str
    q: float | None = None
    C_growth: float | None = None
    # DefocusingExp(m=1) has F''(0) = 2 rather than 0; tracked so invariant
    # checks can skip the one catalog entry that breaks the normalization.
    normalized_second_derivative: bool = True

    def __repr__(self) -> str:  # evaluators are not informative to print
        return f"NonlinearitySpec({self.name!r}, class={self.assumption_class})"


@dataclass(frozen=True)
class NlsNonlinearitySpec:
    """Complex nonlinearity f(u) = u * Fs'(|u|^2/2) given by its density potential."""

    name: str
    Fs: Callable[[np.ndarray], np.ndarray]
    Fsprime: Callable[[np.ndarray], np.ndarray]
    Fsprime2: Callable[[np.ndarray], np.ndarray]
    assumption_class: str
    q: float | None = None
    C_growth: float | None = None
    coercivity_constant: float | None = None

    def force(self, u: np.ndarray) -> np.ndarray:
        """f(u) = u Fs'(|u|^2 / 2) on complex fields."""
        return u * self.Fsprime(0.5 * np.abs(u) ** 2)

    def dforce(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Real-linear derivative Df(u)w = Fs'(s) w + Fs''(s) Re(u conj(w)) u."""
        s = 0.5 * np.abs(u) ** 2
        return self.Fsprime(s) * w + self.Fsprime2(s) * np.real(u * np.conj(w)) * u

    def potential(self, u: np.ndarray) -> np.ndarray:
        return self.Fs(0.5 * np.abs(u) ** 2)

    def __repr__(self) -> str:
        return f"NlsNonlinearitySpec({self.name!r}, class={self.assumption_class})"


@dataclass(frozen=True)
class TruncationLevel:
    """Cut height k with admissible abscissae r_minus < 0 < r_plus."""

    k: float
    r_plus: float
    r_minus: float

    def __post_init__(self):
        if not (self.k > 0 and self.r_minus < 0.0 < self.r_plus):
            raise TruncationError(
                f"invalid truncation level k={self.k}, "
                f"r=({self.r_minus}, {self.r_plus})"
            )


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------

def _defocusing_exp(m: int) -> NonlinearitySpec:
    p = 2 * m

    def F(u):
        u = np.asarray(u, dtype=float)
        return np.expm1(u ** p)

    def f(u):
        u = np.asarray(u, dtype=float)
        return p * u ** (p - 1) * np.exp(u ** p)

    def fprime(u):
        u = np.asarray(u, dtype=float)
        return (p * (p - 1) * u ** (p - 2) + p * p * u ** (2 * p - 2)) * np.exp(u ** p)

    return NonlinearitySpec(
        name=f"defocusing_exp:m={m}",
        F=F,
        f=f,
        fprime=fprime,
        assumption_class=AssumptionClass.DEFOCUSING,
        normalized_second_derivative=(m >= 2),
    )


def _oscillating_sin(q: int) -> NonlinearitySpec:
    def g(u):
        return u * np.abs(u) ** q

    def F(u):
        u = np.asarray(u, dtype=float)
        return np.sin(g(u))

    def f(u):
        u = np.asarray(u, dtype=float)
        return (q + 1) * np.abs(u) ** q * np.cos(g(u))

    def fprime(u):
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        return (
            q * (q + 1) * a ** (q - 1) * np.sign(u) * np.cos(g(u))
            - (q + 1) ** 2 * a ** (2 * q) * np.sin(g(u))
        )

    return NonlinearitySpec(
        name=f"oscillating_sin:q={q}",
        F=F,
        f=f,
        fprime=fprime,
        assumption_class=AssumptionClass.OSCILLATING,
        q=float(q),
        C_growth=float(q + 1),
        normalized_second_derivative=(q >= 2),
    )


def _pure_power(p: int) -> NonlinearitySpec:
    def F(u):
        u = np.asarray(u, dtype=float)
        return np.abs(u) ** (p + 1) / (p + 1)

    def f(u):
        u = np.asarray(u, dtype=float)
        return np.abs(u) ** (p - 1) * u

    def fprime(u):
        u = np.asarray(u, dtype=float)
        return p * np.abs(u) ** (p - 1)

    return NonlinearitySpec(
        name=f"pure_power:p={p}",
        F=F,
        f=f,
        fprime=fprime,
        assumption_class=AssumptionClass.DEFOCUSING,
        q=float(p),
        C_growth=1.0,
        normalized_second_derivative=(p >= 2),
    )


def _nls_coercive_exp() -> NlsNonlinearitySpec:
    e = float(np.e)

    def Fs(s):
        s = np.asarray(s, dtype=float)
        return np.exp(np.sqrt(1.0 + 2.0 * s)) - e

    def Fsprime(s):
        s = np.asarray(s, dtype=float)
        r = np.sqrt(1.0 + 2.0 * s)
        return np.exp(r) / r

    def Fsprime2(s):
        s = np.asarray(s, dtype=float)
        r = np.sqrt(1.0 + 2.0 * s)
        return np.exp(r) * (r - 1.0) / r ** 3

    # sqrt(s) Fs'(s) / Fs(s) diverges like 1/sqrt(s) as s -> 0, so no single C
    # works on all of (0, inf); 160 covers the fixed sample plan (s >= ~5e-5).
    return NlsNonlinearitySpec(
        name="nls_coercive_exp",
        Fs=Fs,
        Fsprime=Fsprime,
        Fsprime2=Fsprime2,
        assumption_class=AssumptionClass.NLS_COERCIVE,
        coercivity_constant=160.0,
    )


def _nls_cubic() -> NlsNonlinearitySpec:
    # Fs(s) = s^2 / 2, f(u) = u |u|^2 / 2: defocusing cubic NLS.
    def Fs(s):
        s = np.asarray(s, dtype=float)
        return 0.5 * s ** 2

    def Fsprime(s):
        return np.asarray(s, dtype=float)

    def Fsprime2(s):
        return np.ones_like(np.asarray(s, dtype=float))

    return NlsNonlinearitySpec(
        name="nls_cubic",
        Fs=Fs,
        Fsprime=Fsprime,
        Fsprime2=Fsprime2,
        assumption_class=AssumptionClass.NLS_SUBCRIT,
        q=3.0,
        C_growth=0.5,
    )


def builtin_catalog() -> list:
    """All built-in wave and NLS nonlinearities."""
    return [
        _defocusing_exp(1),
        _defocusing_exp(2),
        _oscillating_sin(1),
        _oscillating_sin(2),
        _oscillating_sin(3),
        _pure_power(2),
        _pure_power(3),
        _nls_coercive_exp(),
        _nls_cubic(),
    ]


_FACTORIES = {
    "defocusing_exp": (_defocusing_exp, {"m": int}),
    "oscillating_sin": (_oscillating_sin, {"q": int}),
    "pure_power": (_pure_power, {"p": int}),
    "nls_coercive_exp": (_nls_coercive_exp, {}),
    "nls_cubic": (_nls_cubic, {}),
}


def from_selection(selection: str):
    """Build a spec from a selection string, e.g. ``defocusing_exp:m=1``.

    Grammar: ``name[:key=value{,key=value}]``.
    """
    selection = selection.strip()
    name, _, rest = selection.partition(":")
    if name not in _FACTORIES:
        raise SelectionError(f"unknown nonlinearity {name!r}")
    factory, params = _FACTORIES[name]
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in params:
                raise SelectionError(f"bad parameter {item!r} for {name!r}")
            try:
                kwargs[key] = params[key](value.strip())
            except ValueError as exc:
                raise SelectionError(f"bad value in {item!r}: {exc}") from exc
    missing = set(params) - set(kwargs)
    if missing:
        raise SelectionError(f"{name!r} requires parameters {sorted(missing)}")
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# Lipschitz truncation
# ---------------------------------------------------------------------------

def find_truncation_abscissae(
    spec: NonlinearitySpec, k: float, C: float = 1.0, resolution: int = 1000
) -> TruncationLevel:
    """Pick abscissae in [k, 2k] (and its mirror) with s f(s) >= -C s^2.

    Defocusing specs admit any abscissa; otherwise the interval is scanned at
    a fixed resolution and the first admissible sample is taken.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if spec.assumption_class == AssumptionClass.DEFOCUSING:
        return TruncationLevel(k=k, r_plus=k, r_minus=-k)

    def scan(sign: float) -> float:
        s = sign * np.linspace(k, 2.0 * k, resolution)
        ok = s * spec.f(s) >= -C * s ** 2
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            raise TruncationError(
                f"no admissible abscissa in [{k}, {2 * k}] "
                f"(sign {sign:+.0f}) for {spec.name} with C={C}"
            )
        return float(s[idx[0]])

    return TruncationLevel(k=k, r_plus=scan(1.0), r_minus=scan(-1.0))


def truncate(
    spec: NonlinearitySpec, level: TruncationLevel, C: float = 1.0
) -> NonlinearitySpec:
    """Clamp f outside [r_minus, r_plus]; the primitive is extended affinely."""
    rp, rm = level.r_plus, level.r_minus
    if rp * float(spec.f(rp)) < -C * rp ** 2 or rm * float(spec.f(rm)) < -C * rm ** 2:
        raise TruncationError(
            f"abscissae ({rm}, {rp}) violate the sign condition for {spec.name}"
        )
    f_rp, f_rm = float(spec.f(rp)), float(spec.f(rm))
    F_rp, F_rm = float(spec.F(rp)), float(spec.F(rm))
    base = spec

    def f_k(u):
        u = np.asarray(u, dtype=float)
        return np.where(u > rp, f_rp, np.where(u < rm, f_rm, base.f(np.clip(u, rm, rp))))

    def F_k(u):
        u = np.asarray(u, dtype=float)
        inner = base.F(np.clip(u, rm, rp))
        above = F_rp + f_rp * (u - rp)
        below = F_rm + f_rm * (u - rm)
        return np.where(u > rp, above, np.where(u < rm, below, inner))

    def fprime_k(u):
        u = np.asarray(u, dtype=float)
        inside = (u >= rm) & (u <= rp)
        return np.where(inside, base.fprime(np.clip(u, rm, rp)), 0.0)

    return replace(
        spec,
        name=f"{spec.name}|trunc:k={level.k:g}",
        F=F_k,
        f=f_k,
        fprime=fprime_k,
    )


# ---------------------------------------------------------------------------
# C1 saturation cutoff
# ---------------------------------------------------------------------------

def beta_cutoff(s, k: float):
    """Odd C1 saturation: identity up to k, parabolic blend, constant 3k/2.

    Middle branch is s - (s-k)^2/(2k); the additive variant sometimes quoted
    is discontinuous at s = 2k and cannot be the C1 function intended.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    mid = a - (a - k) ** 2 / (2.0 * k)
    out = np.where(a <= k, a, np.where(a <= 2.0 * k, mid, 1.5 * k))
    res = np.sign(s) * out
    if res.ndim == 0:
        return float(res)
    return res
