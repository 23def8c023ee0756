"""Sampled verification of the remainder inequalities and their constants.

Every estimator draws from a seeded plan (quasi-uniform grid plus pseudo-random
pairs) and reports a sup only when it is stable under sample doubling. These
are empirical constants, not proofs.

The sampled constants H11, H22, Gronw6 and H222 share one skeleton,
``_sampled_constants``, and keep its window and sample sups as ``evidence``.
Constants that share a plan share its sweep, each still judged on its own:
``_wave_constants`` folds H11 and H22 over one draw of each ``_pairs`` plan,
``_nls_constants`` Gronw6 and H222 over ``_complex_pairs``. The convexity shift
(ClaimA) is a sampled sup of the same ``_sup_ratio`` form on windows of its
own, kept as ``evidence["window_sups"]``.

Every sample plan, the scalar plans included, is drawn and evaluated one
block of ``field_core._BLOCK`` points at a time, and a block's arithmetic is
done in place: the wave ratios build their numerators in the buffers of the
jet of u + w, and ``_sup_ratio`` takes each ratio in its numerator. A check
holds a few block-sized arrays whatever its sample count, and no report
depends on the block size. Every integer power of a sweep is taken by
multiplication (``nonlinearity._int_power``), never by libm's pow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import field_core
from .nonlinearity import (
    AssumptionClass,
    NlsNonlinearitySpec,
    NonlinearitySpec,
    _abs_sq,
    _int_power,
    density,
    two_star,
)

__all__ = [
    "ConstantEstimate",
    "InequalityReport",
    "UnboundedEstimateError",
    "verify_wave_pointwise",
    "verify_nls_coercivity",
    "verify_nls_cancellation",
    "find_convexity_shift",
    "classify",
]

DEFAULT_SEED = 20240811
_STABILITY_SLACK = 0.05  # sup accepted when doubling moves it less than 5%
_NONNEG_SLACK = 1e-9     # numerical slack for analytic ">= 0" statements
SCALAR_RADIUS = 8.0      # the wave pointwise checks sample [-8, 8]
POTENTIAL_LOWER_C = 1.0  # the C of H21, F(u) >= -C u^2
COERCIVITY_S_MIN = 5e-5  # the coercivity check samples densities in [5e-5, 50]
COERCIVITY_S_MAX = 50.0
MAX_CONVEXITY_SHIFT = 1e6  # a larger sampled shift counts as unbounded
# the space dimension of every constant whose denominator reads 2*(d):
# check-assumptions runs at this d only
LAB_D = 3
# p / 2 for the p = 2*(LAB_D) = 6 of the H22, Gronw6 and H222 denominators
_HALF_P = int(two_star(LAB_D)) // 2


class UnboundedEstimateError(RuntimeError):
    """Sup keeps growing under window doubling: the hypothesis looks violated."""


@dataclass(frozen=True)
class ConstantEstimate:
    name: str
    R: float
    value: float
    samples: int
    worst_pair: tuple | None
    stable: bool = True
    evidence: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InequalityReport:
    inequality: str
    holds: bool
    violations: list = field(default_factory=list)
    constant: ConstantEstimate | None = None


def _blocks(u, w):
    """The broadcastable part (u, w) in blocks of about field_core._BLOCK points.

    A 2-D part (u column, w row) is cut into whole rows, so u-only terms are
    evaluated once per row and w-only terms once per column of a block.
    """
    block = field_core._BLOCK
    step = max(1, block // w.shape[-1]) if w.ndim == 2 else block
    for a in range(0, len(u), step):
        yield u[a:a + step], (w if w.ndim == 2 else w[a:a + step])


def _uniform_blocks(seed: int, n: int, bounds, pair):
    """pair(*draws) for n uniform draws per (lo, hi) of bounds, one block at a time.

    The k-th draw comes from PCG64(seed) advanced by k * n, so the blocks
    hold the values of one bulk draw of n per bound, in bounds order, from
    PCG64(seed) (each uniform takes one 64-bit output). The draws are
    released once pair returns, so a yielded block holds only its pair.
    """
    rngs = [np.random.Generator(np.random.PCG64(seed).advance(k * n))
            for k in range(len(bounds))]
    block = field_core._BLOCK
    for a in range(0, n, block):
        m = min(block, n - a)
        yield pair(*[rng.uniform(lo, hi, m) for rng, (lo, hi) in zip(rngs, bounds)])


def _pairs(R: float, W: float, n_random: int, seed: int):
    """Grid plus random (u, w) samples with |u| <= R, |w| <= W, as blocks.

    The grid (ug[:, None], wg[None, :]) broadcasts to side x side pairs,
    row-major in (u, w); n_random random pairs follow it, drawn one block at a
    time by _uniform_blocks: every u and then every w of one bulk draw.
    """
    side = max(8, int(np.sqrt(n_random)))
    yield from _blocks(np.linspace(-R, R, side)[:, None], np.linspace(-W, W, side)[None, :])
    yield from _uniform_blocks(seed, n_random, ((-R, R), (-W, W)), lambda u, w: (u, w))


def _sup_ratio(ratio, blocks):
    """Max of num/den over samples with den > 0, for each (num, den) of ratio(u, w).

    ``blocks`` are broadcastable (u, w) pairs in plan order, at least one; the
    ratio returns the same number of (num, den) terms for each. Each num must
    be a new array of the block's full shape: the term's ratio is taken in it.
    A den is only read, so terms may share one, and it may be smaller than
    its num (a grid block's w row). Returns, per term, the sup and the first
    sample attaining it, or (0.0, None) when no sample has a positive ratio.

    A sample counts when its den is positive and its ratio finite. A term and
    block take one unmasked divide and one argmax: a NaN or +inf ratio always
    wins the argmax, and a -inf one never raises a slot above 0, so when the
    winner is finite and every den is positive it is the counted samples'
    first maximum. Only otherwise are the uncounted samples zeroed and the
    argmax taken again. On 2^14 points the divide, argmax and den check take
    21 us, against 37 us for a masked divide and the zeroing (2-vCPU Xeon,
    numpy 2.4).
    """
    found = None
    for ub, wb in blocks:
        terms = ratio(ub, wb)
        if found is None:
            found = [[0.0, None] for _ in terms]
        for slot, (r, den) in zip(found, terms):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                np.divide(r, den, out=r)
            k = np.unravel_index(int(np.argmax(r)), r.shape)
            if not (np.isfinite(r[k]) and den.min() > 0):
                np.copyto(r, 0.0, where=~(den > 0))
                r[~np.isfinite(r)] = 0.0
                k = np.unravel_index(int(np.argmax(r)), r.shape)
            if r[k] > slot[0]:
                slot[:] = float(r[k]), (np.broadcast_to(ub, r.shape)[k],
                                        np.broadcast_to(wb, r.shape)[k])
        # the next block and its ratio are computed without this block's
        del terms, r, den
    return [(best, _as_pair(worst)) for best, worst in found]


def _as_pair(worst):
    if worst is None:
        return None
    uk, wk = worst
    if np.iscomplexobj(uk) or np.iscomplexobj(wk):
        return str(complex(uk)), str(complex(wk))
    return float(uk), float(wk)


def _polynomial_den(wsq):
    """|w|^2 + |w|^p with p = 2*(LAB_D), from wsq = |w|^2, in a new array: p is
    even, so |w|^p is wsq^(p/2), taken by multiplication (see _int_power)."""
    den = _int_power(wsq, _HALF_P)
    den += wsq
    return den


@np.errstate(over="ignore", invalid="ignore")
def _sampled_constants(names, R, plan, ratio, n_random, seed, windows=None):
    """The sups of the terms of ratio(u, w), one per name, over plan(R, 8R, n_random, seed).

    Every plan is drawn and swept once for all terms. Each term is then judged
    on its own, in the order of ``names``. With ``windows``, the subjects of
    the terms' error messages, the sups are also taken on the w-windows 16R,
    32R and 64R (seeds seed + j), and a sup that grows by more than 1% at each
    doubling raises. A 2 * n_random sample at seed + 101 then decides
    ``stable``: the two sups differ by at most 5%. The value is the larger
    sup; the worst pair is the first sample's.
    """
    def sweep(W: float, n: int, s: int):
        return _sup_ratio(ratio, plan(R, W, n, s))

    W = 8.0 * R
    first = sweep(W, n_random, seed)
    evidence = [{} for _ in names]
    if windows is not None:
        wider = [sweep(W * 2 ** j, n_random, seed + j) for j in range(1, 4)]
        for i, subject in enumerate(windows):
            sups = [first[i][0]] + [found[i][0] for found in wider]
            if all(b > a * 1.01 for a, b in zip(sups, sups[1:])):
                raise UnboundedEstimateError(f"{subject} grows under window doubling: {sups}")
            evidence[i]["window_sups"] = sups
    second = sweep(W, 2 * n_random, seed + 101)
    out = []
    for name, (value, worst), (value2, _), ev in zip(names, first, second, evidence):
        ev["sample_sups"] = [value, value2]
        stable = abs(value2 - value) <= _STABILITY_SLACK * max(value, value2, 1e-12)
        out.append(ConstantEstimate(name, R, max(value, value2), n_random, worst, stable, ev))
    return out


def _scalar_plan(grid: np.ndarray, n: int, seed: int, lo: float, hi: float):
    """Fixed sample plan, one block at a time: the grid, then n seeded uniforms on [lo, hi].

    The uniforms are the values of default_rng(seed).uniform(lo, hi, n).
    """
    block = field_core._BLOCK
    for a in range(0, len(grid), block):
        yield grid[a:a + block]
    yield from _uniform_blocks(seed, n, ((lo, hi),), lambda u: u)


@np.errstate(over="ignore", invalid="ignore")
def _violations(plan, sides, limit: int = 16) -> list:
    """Per (lhs, rhs) term of sides(u), the first ``limit`` samples of the plan
    where lhs <= rhs fails (NaN included), in plan order."""
    found = None
    for u in plan:
        terms = sides(u)
        if found is None:
            found = [[] for _ in terms]
        for bad, (lhs, rhs) in zip(found, terms):
            bad += [{"u": float(u[i]), "lhs": float(lhs[i]), "rhs": float(rhs[i])}
                    for i in np.flatnonzero(~(lhs <= rhs))[:limit - len(bad)]]
        # the next block is drawn without this block's arrays
        del terms, lhs, rhs
    return found


def verify_wave_pointwise(
    spec: NonlinearitySpec,
    samples: int = 100_000,
    seed: int = DEFAULT_SEED,
) -> list:
    """The pointwise hypotheses of a wave spec, from one sweep of the scalar plan.

    The sign condition H1, u f(u) >= 0, for the defocusing class, or the
    potential lower bound H21, F(u) >= -POTENTIAL_LOWER_C u^2, for the
    oscillating class; then the growth bound H2, |f(u)| <= C |u|^q, when the
    spec declares C and q. The plan is the grid of max(8, samples // 4)
    points of [-SCALAR_RADIUS, SCALAR_RADIUS], then ``samples`` uniforms.
    A block evaluates the spec once: one jet of order 1 when H21 reads F,
    else one f, which H1 and H2 share. Each report lists the first 16
    violations of its inequality in plan order.
    """
    lower = {AssumptionClass.DEFOCUSING: "H1",
             AssumptionClass.OSCILLATING: "H21"}.get(spec.assumption_class)
    growth = spec.q is not None and spec.C_growth is not None
    if growth and spec.q != int(spec.q):
        raise ValueError(f"{spec.name}: the growth bound takes a whole q, not {spec.q}")
    names = ([lower] if lower else []) + (["H2"] if growth else [])

    def sides(u):
        F, f = spec.jet(u, 1) if lower == "H21" else (None, spec.f(u))
        terms = []
        if lower == "H1":
            prod = u * f
            terms.append((np.zeros_like(prod), prod))
        elif lower == "H21":
            # each bound in one buffer (C * x is x * C bitwise): no temporaries
            floor = u ** 2
            floor *= -POTENTIAL_LOWER_C
            floor -= _NONNEG_SLACK
            terms.append((floor, F))
        if growth:
            bound = _int_power(np.abs(u), int(spec.q))
            bound *= spec.C_growth
            bound *= 1.0 + 1e-12
            terms.append((np.abs(f), bound))
        return terms

    R = SCALAR_RADIUS
    plan = _scalar_plan(np.linspace(-R, R, max(8, samples // 4)), samples, seed, -R, R)
    return [InequalityReport(name, not bad, bad)
            for name, bad in zip(names, _violations(plan, sides))]


def verify_nls_coercivity(
    spec: NlsNonlinearitySpec,
    samples: int = 100_000,
    seed: int = DEFAULT_SEED,
) -> InequalityReport:
    """Coercivity 0 <= sqrt(s) F'(s) <= C F(s) on the density plan
    [COERCIVITY_S_MIN, COERCIVITY_S_MAX].

    The lower end matters: for the built-in coercive entry the quotient
    behaves like 1/sqrt(s) near zero, so the declared constant is only valid
    down to the plan's lower end. The first 16 violations of each side are
    reported, the lower side's first.
    """
    if spec.coercivity_constant is None:
        raise ValueError(f"{spec.name} declares no coercivity constant")

    def sides(s):
        mid = np.sqrt(s) * spec.Fsprime(s)
        return [(np.zeros_like(mid), mid), (mid, spec.coercivity_constant * spec.Fs(s))]

    lo, hi = COERCIVITY_S_MIN, COERCIVITY_S_MAX
    grid = np.geomspace(lo, hi, max(8, samples // 4))
    low_bad, high_bad = _violations(_scalar_plan(grid, samples, seed, lo, hi), sides)
    violations = low_bad + high_bad
    return InequalityReport("coercive", not violations, violations)


def _wave_constants(spec: NonlinearitySpec, R: float, n_random: int, seed: int) -> list:
    """H11, and H22 when the spec declares a growth exponent q, from one sweep of
    each _pairs plan.

    Per block the ratios read one jet of u + w and one of u: H11 is
    F(u+w) - F(u) - f(u)w against w^2, H22 is f(u+w) - f(u) - f'(u)w against
    w^2 + |w|^p with p = 2*(LAB_D).
    """
    if R <= 0:
        raise ValueError("R must be positive")
    p = None
    if spec.q is not None:
        p = two_star(LAB_D)
        if spec.q >= p:
            raise ValueError(f"q={spec.q} is not subcritical for d={LAB_D} (2*={p})")
    top = 0 if p is None else 1  # only H22 reads f(u + w) and f'(u)

    # the numerators are taken in the buffers of the jet of u + w, and the
    # association of every operation is that of the formulas above
    def ratio(u, w):
        at_v, at_u = spec.jet(u + w, top), spec.jet(u, top + 1)
        wsq = w ** 2
        num = at_v[0]
        num -= at_u[0]
        num -= at_u[1] * w
        np.negative(num, out=num)
        terms = [(np.maximum(0.0, num, out=num), wsq)]
        if p is not None:
            num = at_v[1]
            num -= at_u[1]
            num -= at_u[2] * w
            terms.append((np.abs(num, out=num), _polynomial_den(wsq)))
        return terms

    names = ["H11"] if p is None else ["H11", "H22"]
    subjects = {"H11": "remainder constant", "H22": "Taylor constant"}
    return _sampled_constants(names, R, _pairs, ratio, n_random, seed,
                              windows=[f"{subjects[n]} for {spec.name}" for n in names])


# ---------------------------------------------------------------------------
# NLS-side estimators
# ---------------------------------------------------------------------------

def _complex_pairs(R: float, W: float, n_random: int, seed: int):
    """Grid plus random complex (u, w) samples with |u| <= R, as blocks.

    On the side x side grid g of [-1, 1]^2 (row-major in (re, im)), the k-th
    pair is u = R g_k and w = W g_(m-1-k), the grid reversed; the mismatched
    pairing is deliberate, the randoms cover the rest. n_random random pairs
    follow, re u, im u, re w and im w each from _uniform_blocks. Only pairs
    with |u| <= R are kept, block by block, so no whole plan is held.
    """
    side = max(8, int(np.sqrt(n_random // 2)))
    re = np.linspace(-1.0, 1.0, side)
    er = re[::-1]

    def in_disk(u, w):
        keep = np.abs(u) <= R
        return u[keep], w[keep]

    rows = max(1, field_core._BLOCK // side)
    grid = (in_disk((R * (re[a:a + rows, None] + 1j * re[None, :])).ravel(),
                    (W * (er[a:a + rows, None] + 1j * er[None, :])).ravel())
            for a in range(0, side, rows))
    randoms = _uniform_blocks(seed, n_random, ((-R, R), (-R, R), (-W, W), (-W, W)),
                              lambda ur, ui, wr, wi: in_disk(ur + 1j * ui, wr + 1j * wi))
    for u, w in chain(grid, randoms):
        if len(u):
            yield u, w


def _dot(a, b):
    """The paper-style real pairing Re(a conj(b))."""
    return np.real(a * np.conj(b))


def verify_nls_cancellation(
    spec: NlsNonlinearitySpec,
    samples: int = 100_000,
    seed: int = DEFAULT_SEED,
) -> InequalityReport:
    """Check (f(u)-f(u+w)).(iw) = f(u).(iw) + f(u+w).(iu) on |u|, |w| <= 5.

    The identity rests on f(z) conj(z) being real, so it must hold to 1e-12
    relative to the size of its terms, 1 + |f(u)||w| + |f(u+w)|(|u| + |w|):
    each pairing can be far larger than lhs and rhs, and rounds on its own
    scale (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sec. 3.1). Any violation flags a broken spec rather than numerical
    noise. The first 16 violations in sample order are reported.

    The samples are drawn block by block: the radii and angles of u and w
    are the values of default_rng(seed).uniform(0, 1, (2, samples)) and then
    of .uniform(0, 2 pi, (2, samples)), read from four _uniform_blocks draws.
    """
    def disk(r, theta):
        """5 sqrt(r) exp(i theta), built in the buffer of i theta and in r's draw."""
        z = np.multiply(1j, theta)
        np.exp(z, out=z)
        z *= np.multiply(np.sqrt(r, out=r), 5.0, out=r)
        return z

    def polar(ru, rw, tu, tw):
        return disk(ru, tu), disk(rw, tw)

    violations = []
    bounds = ((0.0, 1.0), (0.0, 1.0), (0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi))
    for u, w in _uniform_blocks(seed, samples, bounds, polar):
        fu, fv = spec.force(u), spec.force(u + w)
        lhs = _dot(fu - fv, 1j * w)
        rhs = _dot(fu, 1j * w) + _dot(fv, 1j * u)
        aw = np.abs(w)
        scale = 1.0 + np.abs(fu) * aw + np.abs(fv) * (np.abs(u) + aw)
        bad = np.abs(lhs - rhs) > 1e-12 * scale
        violations += [
            {
                "u": [float(u[i].real), float(u[i].imag)],
                "w": [float(w[i].real), float(w[i].imag)],
                "lhs": float(lhs[i]),
                "rhs": float(rhs[i]),
            }
            for i in np.flatnonzero(bad)[:16 - len(violations)]
        ]
        # the next block is drawn without this block's arrays
        del u, w, fu, fv, lhs, rhs, aw, scale, bad
    return InequalityReport("Gronw4", not violations, violations)


def _nls_constants(spec: NlsNonlinearitySpec, R: float, n_random: int, seed: int) -> list:
    """Gronw6 and H222 from one sweep of each _complex_pairs plan.

    Per block f(u + w), f(u) = u Fs'(s) and Fs''(s), s = |u|^2/2, are
    evaluated once for both ratios, each against |w|^2 + |w|^p with p = 2*(LAB_D):
    Gronw6 is (f(u) - f(u+w)).(iw), H222 is f(u+w) - f(u) - Df(u)w.
    """
    def ratio(u, w):
        s = density(u)
        phase = spec.Fsprime(s)
        fu, fv = u * phase, spec.force(u + w)
        den = _polynomial_den(_abs_sq(w))
        gronw6 = np.abs(_dot(fu - fv, 1j * w))
        dfw = spec.dforce(u, w, phase=phase, curv=spec.Fsprime2(s))
        return [(gronw6, den), (np.abs(fv - fu - dfw), den)]

    return _sampled_constants(["Gronw6", "H222"], R, _complex_pairs, ratio, n_random, seed)


def find_convexity_shift(
    spec: NlsNonlinearitySpec,
    R: float,
    n_random: int = 200_000,
    seed: int = DEFAULT_SEED,
) -> ConstantEstimate:
    """Smallest sampled A >= 0 making the shifted convexity defect nonnegative.

    With D = F(|u+w|^2/2) - F(|u|^2/2) - f(u).w + |w|^2, the smallest A with
    D + A|w|^2 >= -slack on every sample is the sup of max(0, -(D + slack))
    / |w|^2; a non-finite D places no constraint. The sup is taken on the
    w-windows 4R, 8R, ... (seeds seed + j) until two consecutive ones agree
    within 1%, and a sup above MAX_CONVEXITY_SHIFT raises.
    """
    if spec.assumption_class not in (
        AssumptionClass.NLS_COERCIVE,
        AssumptionClass.NLS_SUBCRIT,
    ):
        raise ValueError(f"{spec.name} is not an admissible NLS class")

    def ratio(u, w):
        wsq = _abs_sq(w)
        D = spec.potential(u + w) - spec.potential(u) - _dot(spec.force(u), w) + wsq
        return [(np.maximum(0.0, -(D + _NONNEG_SLACK)), wsq)]

    @np.errstate(over="ignore", invalid="ignore")
    def sweep(W: float, s: int):
        [(value, worst)] = _sup_ratio(ratio, _complex_pairs(R, W, n_random, s))
        if value > MAX_CONVEXITY_SHIFT:
            raise UnboundedEstimateError(
                f"no shift A <= {MAX_CONVEXITY_SHIFT:g} suffices for {spec.name} at R={R}"
            )
        return value, worst

    sups = []
    for j in range(5):
        value, worst = sweep(4.0 * R * 2 ** j, seed + j)
        sups.append(value)
        stable = j > 0 and abs(value - sups[-2]) <= 1e-2 * (1.0 + max(sups[-2:]))
        if stable:
            break
    value = max(sups[-2:]) if stable else value
    return ConstantEstimate("ClaimA", R, value, n_random, worst, stable,
                            {"window_sups": sups})


# ---------------------------------------------------------------------------
# bundle
# ---------------------------------------------------------------------------

def classify(
    spec,
    R: float = 2.0,
    seed: int = DEFAULT_SEED,
    n_random: int | None = None,
) -> list:
    """Run every verifier applicable to the spec's assumption class.

    ``n_random`` overrides the default sample counts of every estimator, which
    is mainly useful to keep exploratory calls quick.
    """
    reports = []
    nv = n_random if n_random is not None else 100_000
    if isinstance(spec, NonlinearitySpec):
        n = n_random if n_random is not None else 1_000_000
        reports += verify_wave_pointwise(spec, samples=nv, seed=seed)
        constants = _wave_constants(spec, R, n, seed)
    elif isinstance(spec, NlsNonlinearitySpec):
        n = n_random if n_random is not None else 400_000
        reports.append(verify_nls_cancellation(spec, samples=nv, seed=seed))
        if spec.assumption_class == AssumptionClass.NLS_COERCIVE:
            reports.append(verify_nls_coercivity(spec, samples=nv, seed=seed))
        constants = [find_convexity_shift(spec, R, n_random=min(n, 200_000), seed=seed)]
        if spec.assumption_class == AssumptionClass.NLS_SUBCRIT:
            # polynomial-denominator bounds presume the subcritical growth
            # hypothesis; they are meaningless for exponential densities
            constants += _nls_constants(spec, R, n, seed)
    else:
        raise TypeError(f"unsupported spec type {type(spec)!r}")
    # a sampled constant holds when it is stable under doubling
    return reports + [InequalityReport(c.name, c.stable, [], c) for c in constants]
