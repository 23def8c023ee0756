"""Discrepancy functionals between trajectory pairs and the Gronwall mechanism.

A "weak-like" trajectory is any of three proxy families: the Lipschitz
truncation ladder, coarse grids, or perturbed data. All conclusions are about
these proxies; no genuinely non-smooth weak solution is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .field_core import gradient_norm_sq, l2_inner, l2_norm_sq, wave_energy
from .nonlinearity import find_truncation_abscissae, truncate, two_star
from .wave_integrator import WaveRunConfig, WaveTrajectory, run as wave_run
from .nls_integrator import NlsTrajectory

__all__ = [
    "GronwallTrace",
    "ConvergenceReport",
    "energy_expansion",
    "gronwall_trace_wave",
    "gronwall_trace_nls",
    "ladder_problems",
    "appendix_construction",
    "uniform_integrability_probe",
    "lemma_main33_probe",
]

G_FLOOR = 1e-14


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


def _check_pair(a, b):
    if a.grid != b.grid:
        raise ValueError("trajectories live on different grids")
    if len(a) != len(b) or not np.allclose(a.times, b.times, atol=1e-12):
        raise ValueError("trajectories have different snapshot times")


# ---------------------------------------------------------------------------
# wave energy expansion E(v) = E(u) + I + J
# ---------------------------------------------------------------------------

def _wave_functionals(u_traj: WaveTrajectory, v_traj: WaveTrajectory, spec):
    """Per-snapshot pieces shared by the expansion and the Gronwall trace."""
    grid = u_traj.grid
    n = len(u_traj)
    J = np.empty(n)
    G = np.empty(n)
    w_l2 = np.empty(n)
    I_rate = np.empty(n)          # integrand of I(t)
    coupling = np.empty(n)        # integral of w (f(u+w) - f(u)), for main33
    for i in range(n):
        u, ut = u_traj.us[i], u_traj.uts[i]
        v, vt = v_traj.us[i], v_traj.uts[i]
        w, wt = v - u, vt - ut
        dw_sq = l2_norm_sq(wt, grid) + gradient_norm_sq(w, grid)
        fu = spec.f(u)
        fv = spec.f(v)
        J[i] = 0.5 * dw_sq + grid.cell_volume * float(
            np.sum(spec.F(v) - spec.F(u) - fu * w)
        )
        G[i] = dw_sq
        w_l2[i] = l2_norm_sq(w, grid)
        I_rate[i] = l2_inner(fu + spec.fprime(u) * w - fv, ut, grid)
        coupling[i] = l2_inner(w, fv - fu, grid)
    return J, G, w_l2, I_rate, coupling


def energy_expansion(u_traj: WaveTrajectory, v_traj: WaveTrajectory, spec):
    """Drift integral I(t), remainder J(t), and the expansion residual.

    For matched data I(0) = 0; for perturbed data the exact expansion carries
    the initial cross term, so I is anchored at E(v,0) - E(u,0) - J(0) and the
    residual measures only the evolution error (order >= 2 under refinement).
    """
    _check_pair(u_traj, v_traj)
    return _expansion(u_traj, v_traj, spec, _wave_functionals(u_traj, v_traj, spec))


def _expansion(u_traj: WaveTrajectory, v_traj: WaveTrajectory, spec, functionals):
    J, _, _, I_rate, _ = functionals
    Eu = np.array([wave_energy(u_traj.state(i), spec).total for i in range(len(u_traj))])
    Ev = np.array([wave_energy(v_traj.state(i), spec).total for i in range(len(v_traj))])
    I0 = Ev[0] - Eu[0] - J[0]
    I = I0 + _cumtrapz(I_rate, u_traj.times)
    scale = max(abs(Eu[0]), abs(Ev[0]), 1e-30)
    residual = float(np.max(np.abs(Ev - Eu - I - J)) / scale)
    return I, J, residual


def gronwall_trace_wave(u_traj: WaveTrajectory, v_traj: WaveTrajectory, spec) -> GronwallTrace:
    """Record G = ||Dw||^2 and fit the exponential certificate constant."""
    _check_pair(u_traj, v_traj)
    functionals = _wave_functionals(u_traj, v_traj, spec)
    I, J, _ = _expansion(u_traj, v_traj, spec, functionals)
    _, G, w_l2, _, _ = functionals
    C, G0 = _fit_certificate(u_traj.times, G)
    return GronwallTrace(u_traj.times, G, w_l2, I, J, C, G0)


def gronwall_trace_nls(
    u_traj: NlsTrajectory, v_traj: NlsTrajectory, spec, A: float
) -> GronwallTrace:
    """NLS discrepancy G = ||grad w||^2 + (A+1)||w||^2 with the shifted defect.

    The per-snapshot remainder integral of
    (A+1)|w|^2 + F(|u+w|^2/2) - F(|u|^2/2) - f(u).w must stay >= -1e-9 per
    cell if A came from a valid convexity-shift estimate.
    """
    _check_pair(u_traj, v_traj)
    grid = u_traj.grid
    n = len(u_traj)
    G = np.empty(n)
    w_l2 = np.empty(n)
    J = np.empty(n)
    I_rate = np.empty(n)
    rem_min = np.inf
    for i in range(n):
        u, v = u_traj.us[i], v_traj.us[i]
        w = v - u
        wl2 = l2_norm_sq(w, grid)
        gw = gradient_norm_sq(w, grid)
        fu = spec.force(u)
        defect = (
            spec.potential(v) - spec.potential(u) - np.real(fu * np.conj(w))
        )
        shifted = (A + 1.0) * np.abs(w) ** 2 + defect
        rem_min = min(rem_min, float(grid.cell_volume * np.sum(shifted)))
        G[i] = gw + (A + 1.0) * wl2
        w_l2[i] = wl2
        J[i] = 0.5 * gw + grid.cell_volume * float(np.sum(defect))
        dtu = u_traj.dt_field(i)
        I_rate[i] = -l2_inner(spec.force(v) - fu - spec.dforce(u, w), dtu, grid)
    I = _cumtrapz(I_rate, u_traj.times)
    C, G0 = _fit_certificate(u_traj.times, G)
    return GronwallTrace(u_traj.times, G, w_l2, I, J, C, G0, remainder_min=rem_min)


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


def run_truncation_ladder(base: WaveRunConfig, ladder):
    """Simulate the approximate problems at every cut height, plus f itself."""
    trajectories = {}
    for k in ladder:
        spec_k = truncate(base.spec, find_truncation_abscissae(base.spec, k))
        traj, trace = wave_run(replace(base, spec=spec_k))
        trajectories[k] = (spec_k, traj, trace)
    ref_traj, ref_trace = wave_run(base)
    return trajectories, (base.spec, ref_traj, ref_trace)


def appendix_construction(base: WaveRunConfig, ladder):
    """Ladder-vs-reference convergence of the truncation construction.

    The reference is the untruncated run, the finest object available.
    Returns the ConvergenceReport and the reference trajectory.
    """
    if list(ladder) != sorted(set(ladder)):
        raise ValueError("ladder values must be strictly increasing")
    if len(ladder) < 3:
        raise ValueError("need at least 3 ladder levels")
    trajectories, (ref_spec, ref_traj, _) = run_truncation_ladder(base, ladder)
    grid = base.grid

    l2_disc, force_disc, drifts = [], [], []
    for k in ladder:
        spec_k, traj, trace = trajectories[k]
        _check_pair(traj, ref_traj)
        sup_l2 = 0.0
        force_rate = np.empty(len(traj))
        for i in range(len(traj)):
            diff = traj.us[i] - ref_traj.us[i]
            sup_l2 = max(sup_l2, np.sqrt(l2_norm_sq(diff, grid)))
            force_rate[i] = grid.cell_volume * float(
                np.sum(np.abs(spec_k.f(traj.us[i]) - ref_spec.f(ref_traj.us[i])))
            )
        l2_disc.append(float(sup_l2))
        force_disc.append(float(np.trapezoid(force_rate, traj.times)))
        E = trace.column("E_total")
        drifts.append(float(np.max(E - E[0]) / max(abs(E[0]), 1e-30)))
    report = ConvergenceReport(
        list(ladder),
        l2_disc,
        force_disc,
        drifts,
        monotone_l2=_nonincreasing(l2_disc),
        monotone_force=_nonincreasing(force_disc),
    )
    return report, ref_traj


# ---------------------------------------------------------------------------
# uniform integrability probe
# ---------------------------------------------------------------------------

def uniform_integrability_probe(
    traj: WaveTrajectory,
    spec,
    trials: int = 1000,
    seed: int = 0,
    q_max: float = 10.0,
):
    """Fit the measure-vs-integral scaling of the force over random cell unions.

    Returns (slope, eta_over_2star, vacuous). The target exponent is
    eta/2* with eta = 2* - q; the Hoelder bound makes any slope above it
    admissible, and random unions of cells typically fit close to 1.
    """
    grid = traj.grid
    p = two_star(grid.d, q_max)
    q = spec.q if spec.q is not None else p - 1.0
    eta = max(p - q, 0.0)
    absf = np.array([np.abs(spec.f(u)).ravel() for u in traj.us])
    dt_snap = np.diff(traj.times)
    cell_w = np.concatenate(
        [[dt_snap[0] / 2], (dt_snap[1:] + dt_snap[:-1]) / 2, [dt_snap[-1] / 2]]
    )
    weights = (cell_w[:, None] * grid.cell_volume * np.ones_like(absf)).ravel()
    values = (absf * cell_w[:, None] * grid.cell_volume).ravel()
    total_measure = float(np.sum(weights))
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


# ---------------------------------------------------------------------------
# Lemma main33 probe
# ---------------------------------------------------------------------------

def lemma_main33_probe(u_traj: WaveTrajectory, v_traj: WaveTrajectory, spec) -> dict:
    """Smallest empirical C with
    I(t) <= C * (int ||w||^2 + int int w (f(u+w) - f(u))) on the trace."""
    _check_pair(u_traj, v_traj)
    _, _, w_l2, I_rate, coupling = _wave_functionals(u_traj, v_traj, spec)
    t = u_traj.times
    lhs = _cumtrapz(I_rate, t)
    rhs = _cumtrapz(w_l2, t) + _cumtrapz(coupling, t)
    C = 0.0
    finite = True
    for i in range(1, len(t)):
        if lhs[i] <= G_FLOOR:
            continue
        if rhs[i] <= G_FLOOR:
            finite = False
            continue
        C = max(C, lhs[i] / rhs[i])
    return {"C": C, "finite": finite, "lhs_max": float(np.max(lhs)),
            "rhs_max": float(np.max(rhs))}
