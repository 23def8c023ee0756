"""Discrepancy functionals between trajectory pairs and the Gronwall mechanism.

A "weak-like" trajectory is any of three proxy families: the Lipschitz
truncation ladder, coarse grids, or perturbed data. All conclusions are about
these proxies; no genuinely non-smooth weak solution is constructed.

Every functional is an observer of a lockstep run (``stepping.integrate``):
the reference is member 0, the proxies are the other members, and each
observer keeps per-record numbers only. At a record an observer takes the
reference's ``Record`` first and does the work that depends on it alone
once; its reader then takes each proxy's ``Record`` in turn, so the derived
fields of the reference and of one proxy are alive at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assumption_lab import find_convexity_shift
from .field_core import l2_inner, l2_norm_sq, parseval_norm_sq
from .nls_integrator import member as nls_member
from .nonlinearity import (NlsNonlinearitySpec, density, find_truncation_abscissae, truncate,
                           two_star)
from .stepping import RunSchedule, integrate
from .wave_integrator import member as wave_member

__all__ = [
    "GronwallTrace",
    "ConvergenceReport",
    "WaveGronwall",
    "NlsGronwall",
    "ForceSamples",
    "IntegrabilityProbe",
    "gronwall_ladder",
    "ladder_ratios",
    "ladder_problems",
    "appendix_construction",
    "uniform_integrability_probe",
]

G_FLOOR = 1e-14
# the integrability probe holds iff its grid exponent is below this: the
# midpoint between a resolved force (0) and one concentrated at grid scale on
# a set of codimension 1 (1)
GRID_EXPONENT_LIMIT = 0.5
# a ladder member's energy drift may be at most this multiple of the
# untruncated reference's: measured members read at most 1.0 times it
DRIFT_MULTIPLE = 2.0
# the convexity shift is estimated on |u| <= max(visited sup norm, this floor),
# so a run that stays near zero still samples a box of useful width
SHIFT_R_FLOOR = 0.1


def _cumtrapz(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def _fit_certificate(times: np.ndarray, G: np.ndarray):
    """Smallest C with G(t) <= (G(0) + floor) * exp(C t) on the trace."""
    G0 = float(G[0]) + G_FLOOR
    with np.errstate(divide="ignore"):
        rates = np.log(np.maximum(G[1:], G_FLOOR) / G0) / times[1:]
    return float(max(0.0, np.max(rates))), G0


@dataclass
class GronwallTrace:
    times: np.ndarray
    G: np.ndarray
    w_l2: np.ndarray
    I: np.ndarray
    J: np.ndarray
    fitted_C: float
    fitted_G0: float
    remainder_min: float | None = None  # NLS only: min of the shifted defect
    # wave only, not serialized: max_t |E(v) - E(u) - I - J| / max(|E(u,0)|, |E(v,0)|)
    expansion_residual: float | None = None

    def as_dict(self) -> dict:
        d = {
            "times": self.times.tolist(),
            "G": self.G.tolist(),
            "w_l2": self.w_l2.tolist(),
            "I": self.I.tolist(),
            "J": self.J.tolist(),
            "fitted_C": self.fitted_C,
            "fitted_G0": self.fitted_G0,
        }
        if self.remainder_min is not None:
            d["remainder_min"] = self.remainder_min
        return d

    def to_csv(self) -> str:
        lines = ["t,G,w_l2,I,J,bound"]
        # a steep enough growth overflows the bound to inf, which is its honest value
        with np.errstate(over="ignore"):
            bound = self.fitted_G0 * np.exp(self.fitted_C * self.times)
        for i in range(len(self.times)):
            vals = (self.times[i], self.G[i], self.w_l2[i], self.I[i], self.J[i], bound[i])
            lines.append(",".join(format(float(v), ".17g") for v in vals))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# observers of a lockstep run: member 0 is the reference u, the others are v
# ---------------------------------------------------------------------------

class WaveGronwall:
    """Observer: G = ||Dw||^2 and the expansion E(v) = E(u) + I + J per member.

    Keeps per record the reference's time and energy, and the scalars of each
    member v against it (w = v - u) with v's energy, one row per member; the
    reference's f'(u) is evaluated once per record. ||grad w||^2 comes from
    the half spectra's difference by Parseval, so a record makes no forward
    transform (and one inverse per member, its u_t), and the potential
    integrals of J from the members' records (``Record.potential``, the last
    energy column), so F is evaluated once per member and record. result()
    is one GronwallTrace per member. I is anchored at E(v,0) - E(u,0) - J(0),
    which carries the initial cross term of perturbed data, so
    ``expansion_residual`` measures only the evolution error (order >= 2
    under refinement).
    """

    def __init__(self, spec, grid):
        self.spec, self.grid = spec, grid
        self.times, self.Eu, self.rows = [], [], []

    def observe(self, ref):
        grid = self.grid
        u, ut = ref.u, ref.ut
        fu, fpu = ref.force, self.spec.fprime(u)
        self.times.append(ref.t)
        self.Eu.append(ref.energy[0])
        self.rows.append(rows := [])

        def read(rec):
            w, wt = rec.u - u, rec.ut - ut
            dw_sq = l2_norm_sq(wt, grid) + parseval_norm_sq(rec.uh - ref.uh, grid, gradient=True)
            # int F(v) - F(u) - f(u) w, with the records' potential integrals
            J = 0.5 * dw_sq + (rec.potential - ref.potential) - l2_inner(fu, w, grid)
            I_rate = l2_inner(fu + fpu * w - rec.force, ut, grid)
            rows.append((dw_sq, l2_norm_sq(w, grid), J, I_rate, rec.energy[0]))
        return read

    def result(self) -> list:
        times, Eu = np.array(self.times), np.array(self.Eu)
        traces = []
        for rows in zip(*self.rows):
            G, w_l2, J, I_rate, Ev = (np.array(c) for c in zip(*rows))
            I0 = Ev[0] - Eu[0] - J[0]
            I = I0 + _cumtrapz(I_rate, times)
            scale = max(abs(Eu[0]), abs(Ev[0]), 1e-30)
            residual = float(np.max(np.abs(Ev - Eu - I - J)) / scale)
            C, G0 = _fit_certificate(times, G)
            traces.append(GronwallTrace(times, G, w_l2, I, J, C, G0,
                                        expansion_residual=residual))
        return traces


class NlsGronwall:
    """Observer: the NLS discrepancy G = ||grad w||^2 + (A+1)||w||^2 per member.

    Keeps per record ||grad w||^2, ||w||^2, the integral of the defect
    F(|u+w|^2/2) - F(|u|^2/2) - f(u).w and the drift integrand, and the largest
    sup norm of any member. G and the shifted remainder are linear in the
    convexity shift A, so traces(A) applies A once the visited radius is known.
    ||grad w||^2 comes from ``fftn(w)`` by Parseval: w = v - u is exact where
    the parts of v and u are within a factor 2 of each other (Sterbenz's
    lemma), where v_hat - u_hat would keep the rounding of both spectra, and
    no member's record makes a spectrum of its own. The defect's potential
    integrals come from the members' records (``Record.potential``; no energy
    column is read, so no record sums a mass or gradient energy), and the
    derivative of f at u from the reference's phase Fs'(|u|^2/2), so a record
    evaluates Fs'' once for all members and makes one transform per member
    (its w_hat) beside the reference's u_t. A sup norm is sqrt(max(re^2 +
    im^2)), the reference's from the density Fs'' reads, not a hypot pass.
    Each member's squares, w, w_hat, Df(u)w, force f(v) = v Fs'(|v|^2/2) and
    drift residual are built in two complex buffers and one real buffer,
    made after the member's potential integral; its record caches no field.
    ``rows`` holds per record one row per member.
    """

    def __init__(self, spec, grid):
        self.spec, self.grid = spec, grid
        self.times, self.rows, self.sup_norm = [], [], 0.0

    def observe(self, ref):
        spec, grid = self.spec, self.grid
        u, fu, dtu = ref.u, ref.force, ref.ut
        phase = ref.state.phase
        s = density(u)
        # sup |u| = sqrt(2 max s): re^2 + im^2 halved and doubled exactly
        self.sup_norm = max(self.sup_norm, float(np.sqrt(2.0 * s.max())))
        curv = spec.Fsprime2(s)
        self.times.append(ref.t)
        self.rows.append(rows := [])

        def read(rec):
            v = rec.u
            # the member's fields are built in these three buffers
            w, c, re = np.empty_like(u), np.empty_like(u), np.empty(u.shape)
            # sup |v| as sqrt(max(re^2 + im^2)), squared in re and w's real plane
            np.square(v.real, out=re)
            re += np.square(v.imag, out=w.real)
            self.sup_norm = max(self.sup_norm, float(np.sqrt(re.max())))
            np.subtract(v, u, out=w)
            gw = parseval_norm_sq(np.fft.fftn(w, out=c), grid, gradient=True)
            # int F(|u+w|^2/2) - F(|u|^2/2) - Re(f(u) conj(w))
            defect = rec.potential - ref.potential - l2_inner(fu, w, grid)
            row = (gw, l2_norm_sq(w, grid), defect)
            dfw = spec.dforce(u, w, phase, curv, out=w, scratch=(c, re))
            drift = np.multiply(v, rec.state.phase, out=c)  # f(v), as force(rec) makes it
            drift -= fu
            drift -= dfw
            rows.append(row + (-l2_inner(drift, dtu, grid),))
        return read

    def result(self) -> NlsGronwall:
        return self

    def traces(self, A: float) -> list:
        times = np.array(self.times)
        traces = []
        for rows in zip(*self.rows):
            gw, wl2, defect, I_rate = (np.array(c) for c in zip(*rows))
            G = gw + (A + 1.0) * wl2
            J = 0.5 * gw + defect
            C, G0 = _fit_certificate(times, G)
            traces.append(GronwallTrace(
                times, G, wl2, _cumtrapz(I_rate, times), J, C, G0,
                remainder_min=float(np.min((A + 1.0) * wl2 + defect)),
            ))
        return traces


def gronwall_ladder(base, u0: np.ndarray, pert: np.ndarray, ladder, seed: int = 0):
    """Gronwall traces of the members u0 + eps * pert against u0, run on base,
    and the reference's ``stepping.Boundary``.

    Wave data start at rest. The reference and every member are stepped in
    lockstep. For NLS the convexity shift A is estimated after the run at
    the largest sup norm any of them reached (at least SHIFT_R_FLOOR), the
    radius the defect visits.
    """
    nls = isinstance(base.spec, NlsNonlinearitySpec)
    member = nls_member if nls else wave_member
    observer = (NlsGronwall if nls else WaveGronwall)(base.spec, base.grid)
    # no member state outlives the run: the members are built in the call, so
    # each initial state goes at its first step, and the final records are
    # dropped here, before the shift allocates its sample plan
    (result,), boundary = integrate([member(base, u0)] + [member(base, u0 + eps * pert)
                                                          for eps in ladder], base, [observer])[1:]
    if not nls:
        return result, boundary
    R = max(result.sup_norm, SHIFT_R_FLOOR)
    return result.traces(find_convexity_shift(base.spec, R=R, seed=seed).value), boundary


def ladder_ratios(ladder, traces):
    """G(0)/eps^2 and sup G / G(0) of each member, as two arrays."""
    with np.errstate(divide="ignore", invalid="ignore"):
        g0 = np.array([tr.G[0] for tr in traces]) / np.square(ladder)
    amp = np.array([np.max(tr.G) / max(tr.G[0], 1e-300) for tr in traces])
    return g0, amp


def ladder_problems(ladder, traces, volume: float) -> list:
    """Within-run checks of a perturbed-data ladder, one message per failure.

    G(0)/eps^2 must agree within a factor 2 across the ladder (the discrepancy
    starts quadratic in the perturbation), and the relative spread of
    sup G / G(0) must stay below 0.5 (the growth does not depend on eps). An
    NLS trace's shifted defect must not fall below -1e-9 times the box volume.
    """
    g0, amp = ladder_ratios(ladder, traces)
    problems = []
    # written so that a nan (eps = 0) fails the check
    if not g0.max() <= 2.0 * g0.min():
        problems.append(f"G0/eps^2 varies from {g0.min():.4g} to {g0.max():.4g}")
    if not amp.max() - amp.min() < 0.5 * amp.min():
        problems.append(f"sup G / G0 spreads from {amp.min():.4g} to {amp.max():.4g}")
    for eps, tr in zip(ladder, traces):
        if tr.remainder_min is not None and tr.remainder_min < -1e-9 * volume:
            problems.append(f"shifted defect {tr.remainder_min:.4g} < 0 at eps={eps:g}")
    return problems


# ---------------------------------------------------------------------------
# Appendix: truncation ladder construction
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    ladder: list
    l2_discrepancy: list          # sup_t ||v^k - v_ref||_L2
    force_l1_discrepancy: list    # spacetime L1 of f_k(v^k) - f(v_ref)
    energy_drift: list            # max_t |E(t) - E(0)| / |E(0)|
    reference_drift: float        # the same for the untruncated reference
    monotone_l2: bool = True
    monotone_force: bool = True
    bounded_drift: bool = True    # every drift <= DRIFT_MULTIPLE * reference_drift


def _nonincreasing(values, slack: float = 0.10) -> bool:
    return all(b <= a * (1.0 + slack) + G_FLOOR for a, b in zip(values, values[1:]))


def _drift(E) -> float:
    """The relative energy drift max_t |E(t) - E(0)| / |E(0)|."""
    return float(np.max(np.abs(E - E[0])) / max(abs(E[0]), 1e-30))


class _LadderDiscrepancy:
    """Observer: each truncated member against the untruncated member 0.

    Keeps per record the reference's energy, and one row per member:
    ||v - u||, the integral of |f_k(v) - f(u)| and v's energy.
    """

    def __init__(self, grid):
        self.grid = grid
        self.times, self.reference, self.rows = [], [], []

    def observe(self, ref):
        grid = self.grid
        self.times.append(ref.t)
        self.reference.append(ref.energy[0])
        self.rows.append(rows := [])

        def read(rec):
            rows.append((np.sqrt(l2_norm_sq(rec.u - ref.u, grid)),
                         grid.cell_volume * float(np.sum(np.abs(rec.force - ref.force))),
                         rec.energy[0]))
        return read

    def result(self):
        times = np.array(self.times)
        # each (members, records)
        l2, force_rate, energy = np.array(self.rows).T
        l2_disc = [float(np.max(s)) for s in l2]
        force_disc = [float(np.trapezoid(rate, times)) for rate in force_rate]
        return l2_disc, force_disc, [_drift(E) for E in energy], _drift(np.array(self.reference))


def appendix_construction(base: RunSchedule, u0: np.ndarray, ladder):
    """Ladder-vs-reference convergence of the truncation construction.

    The problems truncated at every cut height and the untruncated reference,
    the finest object available, are stepped in lockstep from u0 at rest.
    Returns the ConvergenceReport, the reference's ForceSamples, the input
    of the uniform-integrability probe, and its ``stepping.Boundary``.
    """
    if list(ladder) != sorted(set(ladder)):
        raise ValueError("ladder values must be strictly increasing")
    if len(ladder) < 3:
        raise ValueError("need at least 3 ladder levels")
    specs = [base.spec] + [truncate(base.spec, find_truncation_abscissae(base.spec, k))
                           for k in ladder]
    observers = [_LadderDiscrepancy(base.grid), ForceSamples(base)]
    # the members are built in the call, so each initial state goes at its first step
    _, ((l2_disc, force_disc, drifts, ref_drift), samples), boundary = integrate(
        [wave_member(replace(base, spec=spec), u0) for spec in specs], base, observers)
    report = ConvergenceReport(
        list(ladder),
        l2_disc,
        force_disc,
        drifts,
        ref_drift,
        monotone_l2=_nonincreasing(l2_disc),
        monotone_force=_nonincreasing(force_disc),
        bounded_drift=all(d <= DRIFT_MULTIPLE * ref_drift for d in drifts),
    )
    return report, samples, boundary


# ---------------------------------------------------------------------------
# uniform integrability probe
# ---------------------------------------------------------------------------

class ForceSamples:
    """Observer: the L^r sums of f(u) of member 0 at every record, all the
    probe reads of a run, with r = 2*/q the exponent of the Hoelder bound.

    ``rows`` holds per record the logs of the sums of |f|^r over the grid
    and of |fbar|^r over the grid coarse-grained by 2 along each space axis,
    fbar the mean of f on each block of 2^d cells. Each sum is taken in units
    of the record's max |f|, so no finite force overflows. ``r`` is None, and
    nothing is kept, when the bound does not decay (q <= 0 or q >= 2*).
    """

    def __init__(self, schedule: RunSchedule):
        self.grid = schedule.grid
        p = two_star(self.grid.d)
        q = schedule.spec.q if schedule.spec.q is not None else p - 1.0
        self.r = p / q if 0.0 < q < p else None
        self.times, self.rows = [], []

    def observe(self, ref):
        if self.r is None:
            return
        f, d, r = ref.force, self.grid.d, self.r
        self.times.append(ref.t)
        m = float(max(f.max(), -f.min()))
        if m == 0.0:
            self.rows.append((-np.inf, -np.inf))
            return
        # new arrays: a later observer of the record reads ref.force
        fine = np.abs(f)
        fine /= m
        fine **= r
        coarse = f.reshape((self.grid.N // 2, 2) * d).sum(axis=tuple(range(1, 2 * d, 2)))
        np.abs(coarse, out=coarse)
        coarse /= 2 ** d * m
        coarse **= r
        # a coarse sum of 0 (f cancels on every block) is log 0 = -inf
        with np.errstate(divide="ignore"):
            self.rows.append((r * np.log(m) + np.log(np.sum(fine)),
                              r * np.log(m) + np.log(np.sum(coarse))))

    def result(self) -> ForceSamples:
        return self


@dataclass(frozen=True)
class IntegrabilityProbe:
    """The integrability probe's evidence and verdict; its fields are the payload."""

    r: float | None        # the Hoelder exponent 2*/q
    norm: float            # ||f(u)||_{L^r} over space-time on the grid, N_h
    coarse_norm: float     # the same on the grid coarse-grained by 2, N_2h
    grid_exponent: float   # g = log2(N_h / N_2h) / (1 - 1/r)
    vacuous: bool

    @property
    def holds(self) -> bool:
        return self.vacuous or self.grid_exponent < GRID_EXPONENT_LIMIT


def uniform_integrability_probe(samples: ForceSamples) -> IntegrabilityProbe:
    """Whether the force's L^r norm over space-time is resolved on the grid.

    The Hoelder bound int_E |f| <= ||f||_{L^r} |E|^t, with t = eta/2* =
    1 - 1/r, makes the force uniformly integrable with the constant
    ||f(u)||_{L^r}, each record weighted by its trapezoid time width. By
    Jensen, g = log2(N_h / N_2h) / t >= 0. A force resolved on the grid
    reads g near 0, so the constant belongs to the solution; a force whose
    norm sits at grid scale on a set of codimension k reads k (a one-cell
    spike reads d), so its constant grows without bound under refinement.
    Vacuous when every |f| is 0 or the bound does not decay.
    """
    if samples.r is None or max(row[0] for row in samples.rows) == -np.inf:
        return IntegrabilityProbe(samples.r, 0.0, 0.0, 0.0, True)
    r, grid = samples.r, samples.grid
    fine, coarse = np.array(samples.rows).T
    dt = np.diff(samples.times)
    log_w = np.log(np.concatenate([[dt[0] / 2], (dt[1:] + dt[:-1]) / 2, [dt[-1] / 2]]))
    log_norm = (np.logaddexp.reduce(log_w + fine) + grid.d * np.log(grid.h)) / r
    log_coarse = (np.logaddexp.reduce(log_w + coarse) + grid.d * np.log(2.0 * grid.h)) / r
    g = (log_norm - log_coarse) / (np.log(2.0) * (1.0 - 1.0 / r))
    return IntegrabilityProbe(r, float(np.exp(log_norm)), float(np.exp(log_coarse)),
                              float(g), False)
