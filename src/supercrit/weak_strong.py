"""Discrepancy functionals between trajectory pairs and the Gronwall mechanism.

A "weak-like" trajectory is any of three proxy families: the Lipschitz
truncation ladder, coarse grids, or perturbed data. All conclusions are about
these proxies; no genuinely non-smooth weak solution is constructed.

Every functional is an observer of a lockstep run (``stepping.integrate``):
the reference is member 0, the proxies are the other members, and each
observer keeps per-record numbers only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assumption_lab import find_convexity_shift
from .field_core import gradient_norm_sq, l2_inner, l2_norm_sq
from .nls_integrator import NlsRunConfig, member as nls_member
from .nonlinearity import find_truncation_abscissae, truncate, two_star
from .stepping import integrate
from .wave_integrator import WaveRunConfig, member as wave_member

__all__ = [
    "GronwallTrace",
    "ConvergenceReport",
    "WaveGronwall",
    "NlsGronwall",
    "ForceSamples",
    "gronwall_ladder",
    "ladder_problems",
    "appendix_construction",
    "uniform_integrability_probe",
]

G_FLOOR = 1e-14
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

    Keeps per record the scalars of each member v against member 0 (w = v - u)
    and the stepper energies; result() is one GronwallTrace per member. I is
    anchored at E(v,0) - E(u,0) - J(0), which carries the initial cross term
    of perturbed data, so ``expansion_residual`` measures only the evolution
    error (order >= 2 under refinement).
    """

    def __init__(self, spec, grid):
        self.spec, self.grid = spec, grid
        self.times, self.Eu, self.rows = [], [], None

    def observe(self, records):
        spec, grid = self.spec, self.grid
        ref, members = records[0], records[1:]
        if self.rows is None:
            self.rows = [[] for _ in members]
        u, ut = ref.u, ref.ut
        fu, Fu, fpu = spec.f(u), spec.F(u), spec.fprime(u)
        self.times.append(ref.t)
        self.Eu.append(ref.energy[0])
        for rows, rec in zip(self.rows, members):
            v = rec.u
            w, wt = v - u, rec.ut - ut
            dw_sq = l2_norm_sq(wt, grid) + gradient_norm_sq(w, grid)
            fv = spec.f(v)
            J = 0.5 * dw_sq + grid.cell_volume * float(np.sum(spec.F(v) - Fu - fu * w))
            I_rate = l2_inner(fu + fpu * w - fv, ut, grid)
            rows.append((dw_sq, l2_norm_sq(w, grid), J, I_rate, rec.energy[0]))

    def result(self) -> list:
        times, Eu = np.array(self.times), np.array(self.Eu)
        traces = []
        for rows in self.rows:
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
    """

    def __init__(self, spec, grid):
        self.spec, self.grid = spec, grid
        self.times, self.rows, self.sup_norm = [], None, 0.0

    def observe(self, records):
        spec, grid = self.spec, self.grid
        ref, members = records[0], records[1:]
        if self.rows is None:
            self.rows = [[] for _ in members]
        u, dtu = ref.u, ref.ut
        fu, Pu = spec.force(u), spec.potential(u)
        self.times.append(ref.t)
        self.sup_norm = max(self.sup_norm, *(float(np.max(np.abs(r.u))) for r in records))
        for rows, rec in zip(self.rows, members):
            v = rec.u
            w = v - u
            defect = spec.potential(v) - Pu - np.real(fu * np.conj(w))
            rows.append((
                gradient_norm_sq(w, grid),
                l2_norm_sq(w, grid),
                grid.cell_volume * float(np.sum(defect)),
                -l2_inner(spec.force(v) - fu - spec.dforce(u, w), dtu, grid),
            ))

    def result(self) -> NlsGronwall:
        return self

    def traces(self, A: float) -> list:
        times = np.array(self.times)
        traces = []
        for rows in self.rows:
            gw, wl2, defect, I_rate = (np.array(c) for c in zip(*rows))
            G = gw + (A + 1.0) * wl2
            J = 0.5 * gw + defect
            C, G0 = _fit_certificate(times, G)
            traces.append(GronwallTrace(
                times, G, wl2, _cumtrapz(I_rate, times), J, C, G0,
                remainder_min=float(np.min((A + 1.0) * wl2 + defect)),
            ))
        return traces


def gronwall_ladder(base, pert: np.ndarray, ladder, seed: int = 0) -> list:
    """Gronwall traces of the members u0 + eps * pert against the run base.

    The reference and every member are stepped in lockstep. For NLS the
    convexity shift A is estimated after the run at the largest sup norm any
    of them reached (at least SHIFT_R_FLOOR), the radius the defect visits.
    """
    nls = isinstance(base, NlsRunConfig)
    member = nls_member if nls else wave_member
    members = [member(base)] + [member(replace(base, u0=base.u0 + eps * pert))
                                for eps in ladder]
    observer = (NlsGronwall if nls else WaveGronwall)(base.spec, base.grid)
    _, (result,) = integrate(members, base, [observer])
    if not nls:
        return result
    R = max(result.sup_norm, SHIFT_R_FLOOR)
    return result.traces(find_convexity_shift(base.spec, R=R, seed=seed).value)


def ladder_problems(ladder, traces) -> list:
    """Within-run checks of a perturbed-data ladder, one message per failure.

    G(0)/eps^2 must agree within a factor 2 across the ladder (the discrepancy
    starts quadratic in the perturbation), and the relative spread of
    sup G / G(0) must stay below 0.5 (the growth does not depend on eps).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        g0 = np.array([tr.G[0] for tr in traces]) / np.square(ladder)
    amp = np.array([np.max(tr.G) / max(tr.G[0], 1e-300) for tr in traces])
    problems = []
    # written so that a nan (eps = 0) fails the check
    if not g0.max() <= 2.0 * g0.min():
        problems.append(f"G0/eps^2 varies from {g0.min():.4g} to {g0.max():.4g}")
    if not amp.max() - amp.min() < 0.5 * amp.min():
        problems.append(f"sup G / G0 spreads from {amp.min():.4g} to {amp.max():.4g}")
    return problems


# ---------------------------------------------------------------------------
# Appendix: truncation ladder construction
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceReport:
    ladder: list
    l2_discrepancy: list          # sup_t ||v^k - v_ref||_L2
    force_l1_discrepancy: list    # spacetime L1 of f_k(v^k) - f(v_ref)
    energy_drift: list            # max_t (E(t) - E(0)) / |E(0)|
    monotone_l2: bool = True
    monotone_force: bool = True

    def as_dict(self) -> dict:
        return {
            "ladder": list(self.ladder),
            "l2_discrepancy": self.l2_discrepancy,
            "force_l1_discrepancy": self.force_l1_discrepancy,
            "energy_drift": self.energy_drift,
            "monotone_l2": self.monotone_l2,
            "monotone_force": self.monotone_force,
        }


def _nonincreasing(values, slack: float = 0.10) -> bool:
    return all(b <= a * (1.0 + slack) + G_FLOOR for a, b in zip(values, values[1:]))


class _LadderDiscrepancy:
    """Observer: each truncated member against the untruncated member 0."""

    def __init__(self, specs, grid):
        self.specs, self.grid = specs, grid
        self.times = []
        self.sup_l2 = [0.0] * (len(specs) - 1)
        self.force_rate = [[] for _ in specs[1:]]
        self.energy = [[] for _ in specs[1:]]

    def observe(self, records):
        grid, ref = self.grid, records[0]
        f_ref = self.specs[0].f(ref.u)
        self.times.append(ref.t)
        for k, (spec_k, rec) in enumerate(zip(self.specs[1:], records[1:])):
            self.sup_l2[k] = max(self.sup_l2[k], np.sqrt(l2_norm_sq(rec.u - ref.u, grid)))
            self.force_rate[k].append(
                grid.cell_volume * float(np.sum(np.abs(spec_k.f(rec.u) - f_ref)))
            )
            self.energy[k].append(rec.energy[0])

    def result(self):
        l2_disc = [float(s) for s in self.sup_l2]
        force_disc = [float(np.trapezoid(np.array(rate), np.array(self.times)))
                      for rate in self.force_rate]
        drifts = [float(np.max(E - E[0]) / max(abs(E[0]), 1e-30))
                  for E in map(np.array, self.energy)]
        return l2_disc, force_disc, drifts


def appendix_construction(base: WaveRunConfig, ladder):
    """Ladder-vs-reference convergence of the truncation construction.

    The problems truncated at every cut height and the untruncated reference,
    the finest object available, are stepped in lockstep. Returns the
    ConvergenceReport and the reference's ForceSamples, the input of the
    uniform-integrability probe.
    """
    if list(ladder) != sorted(set(ladder)):
        raise ValueError("ladder values must be strictly increasing")
    if len(ladder) < 3:
        raise ValueError("need at least 3 ladder levels")
    specs = [base.spec] + [truncate(base.spec, find_truncation_abscissae(base.spec, k))
                           for k in ladder]
    members = [wave_member(replace(base, spec=spec)) for spec in specs]
    observers = [_LadderDiscrepancy(specs, base.grid), ForceSamples(base.spec, base.grid)]
    _, ((l2_disc, force_disc, drifts), samples) = integrate(members, base, observers)
    report = ConvergenceReport(
        list(ladder),
        l2_disc,
        force_disc,
        drifts,
        monotone_l2=_nonincreasing(l2_disc),
        monotone_force=_nonincreasing(force_disc),
    )
    return report, samples


# ---------------------------------------------------------------------------
# uniform integrability probe
# ---------------------------------------------------------------------------

class ForceSamples:
    """Observer: |f(u)| of member 0 at every record, all the probe reads of a run."""

    def __init__(self, spec, grid):
        self.spec, self.grid = spec, grid
        self.times, self.absf = [], []

    def observe(self, records):
        self.times.append(records[0].t)
        self.absf.append(np.abs(self.spec.f(records[0].u)).ravel())

    def result(self) -> ForceSamples:
        return self


def uniform_integrability_probe(
    samples: ForceSamples,
    trials: int = 1000,
    seed: int = 0,
    q_max: float = 10.0,
):
    """Fit the measure-vs-integral scaling of the force over random cell unions.

    Returns (slope, eta_over_2star, vacuous). The target exponent is
    eta/2* with eta = 2* - q; the Hoelder bound makes any slope above it
    admissible, and random unions of cells typically fit close to 1.
    """
    grid, spec = samples.grid, samples.spec
    p = two_star(grid.d, q_max)
    q = spec.q if spec.q is not None else p - 1.0
    eta = max(p - q, 0.0)
    absf = np.array(samples.absf)
    dt_snap = np.diff(samples.times)
    cell_w = np.concatenate(
        [[dt_snap[0] / 2], (dt_snap[1:] + dt_snap[:-1]) / 2, [dt_snap[-1] / 2]]
    )
    weights = (cell_w[:, None] * grid.cell_volume * np.ones_like(absf)).ravel()
    values = (absf * cell_w[:, None] * grid.cell_volume).ravel()
    if np.max(absf) == 0.0:
        return 0.0, eta / p, True

    rng = np.random.default_rng(seed)
    n_cells = values.size
    log_m, log_i = [], []
    fractions = 10.0 ** rng.uniform(-4.0, 0.0, trials)
    for frac in fractions:
        count = max(1, int(frac * n_cells))
        idx = rng.choice(n_cells, size=count, replace=False)
        integral = float(np.sum(values[idx]))
        if integral <= 0.0:
            continue
        log_m.append(np.log(float(np.sum(weights[idx]))))
        log_i.append(np.log(integral))
    if len(log_m) < 10:
        return 0.0, eta / p, True
    slope = float(np.polyfit(log_m, log_i, 1)[0])
    return slope, eta / p, False
