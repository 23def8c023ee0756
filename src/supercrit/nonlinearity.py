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
    "density",
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


# 2* is infinite for d <= 2; every caller uses this finite surrogate instead
TWO_STAR_SURROGATE = 10.0
# the constant C of the sign condition s f(s) >= -C s^2 at truncation abscissae
TRUNCATION_C = 1.0


def _abs_sq(u) -> np.ndarray:
    """|u|^2 of a complex (or real) field as re^2 + im^2, a new float array.

    Two squares and a sum, where np.abs(u) ** 2 is a hypot and a square: 30
    against 49 us per 128^2 points (2-vCPU Xeon, numpy 2.4), and within 1.3
    ulp of the exact value on random fields, where that formula is up to 4.1
    ulp off.
    """
    u = np.asarray(u)
    out = np.square(u.real)
    out += np.square(u.imag)
    return out


def density(u) -> np.ndarray:
    """|u|^2 / 2 of a complex (or real) field, as (re^2 + im^2) / 2 (see _abs_sq),
    a new float array; the argument of every Fs, Fs' and Fs''."""
    out = _abs_sq(u)
    out *= 0.5
    return out


def two_star(d: int) -> float:
    """Critical Sobolev exponent 2d/(d-2); for d <= 2 the TWO_STAR_SURROGATE."""
    if d >= 3:
        return 2.0 * d / (d - 2.0)
    return TWO_STAR_SURROGATE


@dataclass(frozen=True)
class NonlinearitySpec:
    """Real scalar nonlinearity: potential F, force f = F', and f'.

    ``fused_jet(u, order)``, when given, returns the same values as ``jet``
    from shared subexpressions. The assumption lab writes into the arrays of
    a jet, so each is a new array, not u and not another of the jet's.
    """

    name: str
    F: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    assumption_class: str
    q: float | None = None
    C_growth: float | None = None
    fused_jet: Callable[[np.ndarray, int], tuple] | None = None

    def jet(self, u: np.ndarray, order: int) -> tuple:
        """(F(u), f(u), f'(u)) up to derivative ``order``."""
        if self.fused_jet is not None:
            return self.fused_jet(u, order)
        return tuple(g(u) for g in (self.F, self.f, self.fprime)[:order + 1])

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
        return u * self.Fsprime(density(u))

    def dforce(self, u: np.ndarray, w: np.ndarray, phase, curv, out=None,
               scratch=None) -> np.ndarray:
        """Real-linear derivative Df(u)w = Fs'(s) w + Fs''(s) Re(u conj(w)) u.

        ``phase`` and ``curv`` are Fs'(s) and Fs''(s) at u, s = |u|^2/2. The
        result goes into ``out`` if given, which may be w itself. ``scratch``,
        a complex and a real array shaped like u, neither of them w, holds the
        intermediate products; without it two new arrays do.
        """
        t, re = scratch if scratch is not None else (np.empty(u.shape, complex),
                                                     np.empty(u.shape))
        np.multiply(u, np.conj(w, out=t), out=t)
        np.multiply(curv, t.real, out=re)
        np.multiply(re, u, out=t)
        out = np.multiply(phase, w, out=out)
        out += t
        return out

    def potential(self, u: np.ndarray) -> np.ndarray:
        return self.Fs(density(u))

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

def _int_power(u, k: int):
    """u ** k for an integer k >= 0, u a float array or scalar.

    k <= 2 is numpy's own u ** k, whose fast paths give ones, a copy and a
    square. A larger k goes by squarings and multiplications by u, left to
    right through k's bits, in the result's buffer. libm's pow is slow for a
    negative base: u ** 4 took 1.33 ms per 2^14 points, against 10-13 us
    for np.square(np.square(u)) and 62-81 us for |u| ** 4 (2-vCPU Xeon,
    numpy 2.4). On the assumption lab's blocks of 2^14 points pow is slow on
    any base: |w| ** 6 took 50 us, |u| ** 3 52 us and |u| ** 4 50 us, against
    15-16 us for this function and 12 us for (w^2)^3 from a kept w^2. A
    product of k factors is within k - 1 rounding errors of the exact power
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1),
    so it may differ from pow in the last digits.
    """
    if k <= 2:
        return u ** k
    out = u * u
    for i, bit in enumerate(bin(k)[3:]):
        if i:
            out *= out
        if bit == "1":
            out *= u
    return out


def _half_tangent(x, out):
    """tan(x/2) of a float array x into out, which may be x itself: the
    tangent half of ``_sin_cos``, always through ``np.tan`` (see there)."""
    np.multiply(x, 0.5, out=out)
    return np.tan(out, out=out)


def _tangent_rotation(t, r, out):
    """(sin x, cos x) from t = tan(x/2): the rotation half of ``_sin_cos``.

    r = 2/(1 + t^2) goes into the float array ``r``, then sin x = t r and
    cos x = r - 1 into ``out``, a pair of float arrays shaped like t, whose
    first may be t and whose second may be r; r may not be t or sin x's
    array. Each operation is one correctly rounded ufunc, so the bits do not
    depend on the arrays' layouts.
    """
    sin, cos = out
    np.multiply(t, t, out=r)
    r += 1.0
    np.divide(2.0, r, out=r)
    np.multiply(t, r, out=sin)
    np.subtract(r, 1.0, out=cos)
    return sin, cos


def _sin_cos(x, out=None):
    """(sin x, cos x) of a float array or scalar x from one tangent.

    With t = tan(x/2) and r = 2/(1 + t^2), sin x = t r and cos x = r - 1, the
    half-angle (Weierstrass) identities (Muller, Elementary Functions, 3rd
    ed., 2016, ch. 11): ``_half_tangent`` and then ``_tangent_rotation``.
    ``out`` is a pair of float arrays shaped like x: t and then sin x go into
    the first, which may be x itself, and r and then cos x into the second,
    which may not; without it two new arrays do, and a 0-d x gives numpy
    scalars. Every call goes through ``np.tan``, never ``math.tan``, so 0-d,
    contiguous and strided inputs give the same bits.

    numpy's float64 sin and cos are scalar libm calls, about 20 ns a point
    each, while its tan is a SIMD (SVML) loop on AVX512 hosts: 34 us per 2^14
    points of |x| < 3000, against 730 us for sin plus cos (2-vCPU Xeon, numpy
    2.4). Elsewhere tan is libm's too, and the kernel is still one
    transcendental call instead of two. The values may therefore differ
    between CPU families in their last bits; on one machine they repeat.
    Against long-double sin and cos on three draws of 2^18 points from each
    of [0.002, 0.02], [-8, 8], [-6e3, 6e3], [-2.2e6, 2.2e6] and [-3e8, 3e8],
    sin x is within 2.75 ulp and cos x within 3.6e-16 absolute; libm gives
    0.52 ulp and 5.6e-17.
    """
    x = np.asarray(x, dtype=float)
    t, r = out if out is not None else (np.empty(x.shape), np.empty(x.shape))
    _tangent_rotation(_half_tangent(x, out=t), r, out=(t, r))
    return (t[()], r[()]) if x.ndim == 0 else (t, r)


def _defocusing_exp(m: int) -> NonlinearitySpec:
    p = 2 * m

    # a field is evaluated in place, with at most one temporary beside the result
    def F(u):
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            return np.expm1(_int_power(u, p))
        out = _int_power(u, p)
        return np.expm1(out, out=out)

    def f(u):
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            return p * _int_power(u, p - 1) * np.exp(_int_power(u, p))
        out = _int_power(u, p - 1)
        out *= p
        e = _int_power(u, p)
        out *= np.exp(e, out=e)
        return out

    def fprime(u):
        u = np.asarray(u, dtype=float)
        return ((p * (p - 1) * _int_power(u, p - 2) + p * p * _int_power(u, 2 * p - 2))
                * np.exp(_int_power(u, p)))

    return NonlinearitySpec(
        name=f"defocusing_exp:m={m}",
        F=F,
        f=f,
        fprime=fprime,
        assumption_class=AssumptionClass.DEFOCUSING,
    )


def _oscillating_sin(q: int) -> NonlinearitySpec:
    # each quantity is one expression in |u|^q, g = u|u|^q, sin g and cos g,
    # so the jet, which shares them, returns the evaluators' values. force and
    # slope work in place, and on numpy scalars the same statements rebind.
    def sin_cos(g):
        """sin g into g's buffer and cos g into a new array (see _sin_cos)."""
        return _sin_cos(g, out=(g, np.empty_like(g)) if g.ndim else None)

    def force(aq, cos_g):
        """(q + 1)|u|^q cos g, written into aq."""
        aq *= q + 1
        aq *= cos_g
        return aq

    def slope(u, cos_g, sin_g):
        """f'(u) = q(q+1) u|u|^(q-2) cos g - (q+1)^2 (u^q)^2 sin g, u|u|^-1 read
        as sign(u), in two new buffers, without writing u, cos g or sin g."""
        if q == 1:
            out = np.sign(u)
            out *= q * (q + 1)
        else:
            out = u * (q * (q + 1))
            if q > 2:
                out *= _int_power(np.abs(u), q - 2)
        out *= cos_g
        rest = _int_power(u, q)
        rest *= rest
        rest *= (q + 1) ** 2
        rest *= sin_g
        out -= rest
        return out

    def F(u):
        u = np.asarray(u, dtype=float)
        return sin_cos(u * _int_power(np.abs(u), q))[0]

    def f(u):
        u = np.asarray(u, dtype=float)
        aq = _int_power(np.abs(u), q)
        return force(aq, sin_cos(u * aq)[1])

    def fprime(u):
        u = np.asarray(u, dtype=float)
        sin_g, cos_g = sin_cos(u * _int_power(np.abs(u), q))
        return slope(u, cos_g, sin_g)

    def jet(u, order):
        u = np.asarray(u, dtype=float)
        if order == 0 or u.ndim == 0:  # a numpy scalar has no buffer to write
            return tuple(g(u) for g in (F, f, fprime)[:order + 1])
        # F = sin g goes into g's buffer and f into |u|^q's
        aq = _int_power(np.abs(u), q)
        sin_g, cos_g = sin_cos(u * aq)
        out = (sin_g, force(aq, cos_g))
        return out + (slope(u, cos_g, sin_g),) if order == 2 else out

    return NonlinearitySpec(
        name=f"oscillating_sin:q={q}",
        F=F,
        f=f,
        fprime=fprime,
        assumption_class=AssumptionClass.OSCILLATING,
        fused_jet=jet,
        q=float(q),
        C_growth=float(q + 1),
    )


def _pure_power(p: int) -> NonlinearitySpec:
    def F(u):
        u = np.asarray(u, dtype=float)
        out = _int_power(np.abs(u), p + 1)
        out /= p + 1
        return out

    def f(u):
        u = np.asarray(u, dtype=float)
        return _int_power(np.abs(u), p - 1) * u

    def fprime(u):
        u = np.asarray(u, dtype=float)
        return p * _int_power(np.abs(u), p - 1)

    return NonlinearitySpec(
        name=f"pure_power:p={p}",
        F=F,
        f=f,
        fprime=fprime,
        assumption_class=AssumptionClass.DEFOCUSING,
        q=float(p),
        C_growth=1.0,
    )


def _nls_coercive_exp() -> NlsNonlinearitySpec:
    e = float(np.e)

    def Fs(s):
        # e expm1(r - 1), in place like Fs'' with r - 1 as s / ((1 + r) / 2):
        # exp(r) - e cancels as s -> 0 (1.7e-4 relative at s = 1e-12)
        s = np.asarray(s, dtype=float)
        x = np.multiply(s, 2.0, out=np.empty(s.shape))
        x += 1.0
        np.sqrt(x, out=x)
        x += 1.0
        x *= 0.5
        np.divide(s, x, out=x)
        np.expm1(x, out=x)
        x *= e
        return x

    def Fsprime(s):
        # in place, so that beside s it holds r and its result only
        s = np.asarray(s, dtype=float)
        r = np.multiply(s, 2.0, out=np.empty(s.shape))  # an array even for a scalar s
        r += 1.0
        np.sqrt(r, out=r)
        out = np.exp(r)
        out /= r
        return out

    def Fsprime2(s):
        # in place, like Fs', beside s holding r, r - 1 and its result only:
        # r - 1 as s / ((1 + r) / 2), the rounding of 2s / (1 + r), which does
        # not cancel as s -> 0, and r * r * r, not r ** 3, which is libm's pow
        s = np.asarray(s, dtype=float)
        r = np.multiply(s, 2.0, out=np.empty(s.shape))
        r += 1.0
        np.sqrt(r, out=r)
        t = np.add(r, 1.0, out=np.empty(s.shape))
        t *= 0.5
        np.divide(s, t, out=t)
        out = np.exp(r)
        out *= t
        np.multiply(r, r, out=t)
        t *= r
        out /= t
        return out

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
        known = ", ".join(spec.name for spec in builtin_catalog())
        raise SelectionError(f"unknown nonlinearity {name!r}; the catalog has {known}")
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

def find_truncation_abscissae(spec: NonlinearitySpec, k: float) -> TruncationLevel:
    """Pick abscissae in [k, 2k] and its mirror with s f(s) >= -TRUNCATION_C s^2.

    Defocusing specs admit any abscissa; otherwise the interval is scanned at
    1000 points and the first admissible sample is taken.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if spec.assumption_class == AssumptionClass.DEFOCUSING:
        return TruncationLevel(k=k, r_plus=k, r_minus=-k)

    def scan(sign: float) -> float:
        s = sign * np.linspace(k, 2.0 * k, 1000)
        # a force that overflows to inf or nan at s admits no abscissa there
        with np.errstate(over="ignore", invalid="ignore"):
            ok = s * spec.f(s) >= -TRUNCATION_C * s ** 2
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            raise TruncationError(
                f"no admissible abscissa in [{k}, {2 * k}] "
                f"(sign {sign:+.0f}) for {spec.name} with C={TRUNCATION_C}"
            )
        return float(s[idx[0]])

    return TruncationLevel(k=k, r_plus=scan(1.0), r_minus=scan(-1.0))


def truncate(spec: NonlinearitySpec, level: TruncationLevel) -> NonlinearitySpec:
    """Clamp f outside [r_minus, r_plus]; the primitive is extended affinely.

    The abscissae must satisfy the sign condition find_truncation_abscissae
    picks them by, s f(s) >= -TRUNCATION_C s^2, and f and F must be finite
    there.
    """
    rp, rm = level.r_plus, level.r_minus
    with np.errstate(over="ignore", invalid="ignore"):
        f_rp, f_rm = float(spec.f(rp)), float(spec.f(rm))
        F_rp, F_rm = float(spec.F(rp)), float(spec.F(rm))
    if not np.all(np.isfinite((f_rp, f_rm, F_rp, F_rm))):
        raise TruncationError(f"f or F of {spec.name} is not finite at ({rm}, {rp})")
    # s f(s) >= -C s^2 divided by s^2, so no large abscissa overflows
    if f_rp / rp < -TRUNCATION_C or f_rm / rm < -TRUNCATION_C:
        raise TruncationError(
            f"abscissae ({rm}, {rp}) violate the sign condition for {spec.name}"
        )
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
        fused_jet=None,  # the base's jet would evaluate the untruncated force
    )


# ---------------------------------------------------------------------------
# C1 saturation cutoff
# ---------------------------------------------------------------------------

def beta_cutoff(s, k: float):
    """Odd C1 saturation: identity up to k, parabolic blend, constant 3k/2.

    Middle branch is s - (s-k)^2/(2k); the additive variant sometimes quoted
    is discontinuous at s = 2k and cannot be the C1 function intended. No run
    calls it: it is kept as a test oracle of the paper's cutoff, whose C1
    knots acceptance criterion 1 checks.
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
