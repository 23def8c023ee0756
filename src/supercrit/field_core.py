"""Periodic-grid fields, spectral operators, quadrature norms, and energies.

The periodic box stands in for free space, so a run is valid only until its
solution reaches the box boundary. ``leakage`` gives a record's two shares:
the share of |u|^2 in the boundary shell and the share of |u_hat|^2 in the
top third of the modes. A run reached the boundary iff its largest shell
share exceeds both ``LEAKAGE_LIMIT`` and its largest tail share: a field that
is under-resolved puts its spectral tail in the shell too. That one rule is
``stepping.Boundary.reached``.

Runs read |xi|^2 from one layout, the tables of ``table_wavenumber_sq``,
which keep rows 0..N/2 of axis 0 (``mirror_halves``): the steppers'
multipliers, the NLS u_t and every Parseval sum (``parseval_norm_sq``, which
reads an ``fftn`` spectrum or an ``rfftn`` half spectrum by its shape). The
full-grid ``GridSpec.wavenumber_sq`` is the oracles' and the tests' only.

The quadrature norms, pairings and Parseval sums and the boundary shares
make no field-sized temporary: each is one ``np.einsum`` pass over its
fields' interleaved float views, or with a weight one per float view
(``_re_pairing``); a half spectrum's norms add a pass over each of its zero
and Nyquist planes (``_half_norm_sq``). They do not sum in ``np.sum``'s
order, so they may differ from an np.sum formula in the last digits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridSpec",
    "WaveState",
    "NlsState",
    "EnergyReport",
    "AmplitudeError",
    "laplacian",
    "l2_norm_sq",
    "l2_inner",
    "gradient_norm_sq",
    "parseval_norm_sq",
    "mirror_halves",
    "wave_energy",
    "nls_energy",
    "leakage",
    "bump_field",
]


# Points per block of a pointwise evaluation done a block at a time: the
# assumption lab's sample plans, the wave stepper's residual (in slabs of
# whole last-axis lines) and linear flow (in chunks of whole axis-0 rows)
# and every energy's potential integral. An assumption
# lab sweep holds about ten arrays of one block, so 2^14 points (128 KiB per
# float array) keep them in a core's 2 MiB L2: classify(oscillating_sin:q=2)
# peaks at 1.1 MiB and takes 0.38-0.54 s (median 0.39 s), against 4.5 MiB and
# 0.61-0.64 s at 2^16 and 0.4 MiB and 0.51-0.56 s at 2^12 (5 alternating runs
# per size, 2-vCPU Xeon, numpy 2.4). Read at call time, so patching this one
# name changes every blocked evaluation.
_BLOCK = 1 << 14

# a run's boundary shell is this share of L wide on each side of the box
LEAKAGE_SHELL = 1.0 / 8.0
# the shell share a run must exceed, beside its tail share, to have reached the boundary
LEAKAGE_LIMIT = 1e-6


class AmplitudeError(RuntimeError):
    """Potential overflowed: field amplitude outside the safe range."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, L)^d with N points per axis."""

    d: int
    N: int
    L: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("d must be 1, 2 or 3")
        if self.N < 8 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two >= 8")
        if self.L <= 0:
            raise ValueError("L must be positive")

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.h ** self.d

    def axis(self) -> np.ndarray:
        return np.arange(self.N) * self.h

    def coords(self) -> list:
        """Per-axis coordinates broadcastable to the field shape."""
        x = self.axis()
        return [
            x.reshape((1,) * i + (self.N,) + (1,) * (self.d - 1 - i))
            for i in range(self.d)
        ]

    def wavenumber_sq(self) -> np.ndarray:
        """|xi|^2 on the full np.fft.fftn frequency grid, a new array each call;
        only the oracles ``laplacian`` and ``gradient_norm_sq`` and the tests
        read it, runs read the tables of table_wavenumber_sq()."""
        return _wavenumber_sq(self.shape, self.N, self.L)

    def half_wavenumber_sq(self) -> np.ndarray:
        """|xi|^2 on the np.fft.rfftn half spectrum, a new array each call; the
        tests' oracle for the tables kept on rows 0..N/2 of axis 0.

        Its values are bitwise those of the last-axis half of wavenumber_sq().
        """
        return _wavenumber_sq(self.shape[:-1] + (self.N // 2 + 1,), self.N, self.L)

    def table_wavenumber_sq(self, half: bool) -> np.ndarray:
        """|xi|^2 as a multiplier table keeps it, a new array each call: on the
        np.fft.fftn grid, or with ``half`` on the rfftn half spectrum, and for
        d >= 2 on rows 0..N/2 of axis 0 only, which ``mirror_halves`` applies
        to all N rows. Its values are bitwise those rows of wavenumber_sq()
        (of half_wavenumber_sq())."""
        shape = list(self.shape)
        if half:
            shape[-1] = self.N // 2 + 1
        if self.d >= 2:
            shape[0] = self.N // 2 + 1
        return _wavenumber_sq(tuple(shape), self.N, self.L)


def _wavenumber_sq(shape: tuple, N: int, L: float) -> np.ndarray:
    """|xi|^2 on the frequency grid whose axis i keeps its first shape[i] frequencies.

    np.fft.fftfreq gives exact +-k, so |xi|^2 is bitwise even in each frequency.
    """
    k = 2.0 * np.pi / L * np.fft.fftfreq(N) * N
    d = len(shape)
    ksq = np.zeros(shape)
    for i in range(d):
        ksq += (k[: shape[i]] ** 2).reshape((1,) * i + (shape[i],) + (1,) * (d - 1 - i))
    return ksq


def mirror_halves(n: int, *tables: np.ndarray) -> list:
    """(rows, views) pairs that apply tables kept on rows 0..n/2 of axis 0 to a
    spectrum whose axis 0 has all n rows, one call per pair on spectrum[rows].

    Rows 0..n/2 read the tables; rows n/2+1..n-1, the frequencies -(n/2-1)..-1,
    read the views table[n/2-1:0:-1], so a table even in its axis-0 frequency
    gives bitwise the product of the full table. A table whose axis 0 already
    has n rows is one pair, the whole spectrum. Only axis 0 is mirrored: views
    reversed on a second axis too leave inner loops of n/2+1 elements, and
    the wave flow at d = 3, N = 64 took 3.8-4.0 ms that way, against
    1.8-1.9 ms mirrored on axis 0 and 2.0-2.2 ms with whole tables (median
    of 30 calls each, 3 rounds, 2-vCPU Xeon, numpy 2.4).
    """
    if tables[0].shape[0] == n:
        return [(slice(None), tables)]
    h = n // 2
    return [(slice(0, h + 1), tables),
            (slice(h + 1, n), tuple(t[h - 1:0:-1] for t in tables))]


@dataclass(frozen=True)
class WaveState:
    """A wave state (u, u_t) at time t, for the oracles ``wave_integrator.step`` and
    ``Verlet``; runs step the impulse stepper's own state."""

    grid: GridSpec
    u: np.ndarray
    ut: np.ndarray
    t: float

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.ut)))


@dataclass(frozen=True)
class NlsState:
    """An NLS state u at time t, for the oracle ``nls_integrator.strang_step`` and its
    substeps; runs step the Strang stepper's own state."""

    grid: GridSpec
    u: np.ndarray
    t: float

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.u)))


@dataclass(frozen=True)
class EnergyReport:
    """The energies of a state, as the oracles ``wave_energy`` and ``nls_energy``
    compute them; runs take theirs from their records."""

    kinetic: float
    gradient: float
    potential: float
    total: float
    mass: float | None = None


# ---------------------------------------------------------------------------
# spectral operators and norms
# ---------------------------------------------------------------------------

def _check(field: np.ndarray, grid: GridSpec):
    if field.shape != grid.shape:
        raise ValueError(f"field shape {field.shape} does not match grid {grid.shape}")


def laplacian(field: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Exact spectral Laplacian: each mode scaled by -|xi|^2.

    Only the oracle ``wave_integrator.step`` calls it; the steppers apply
    -|xi|^2 to the spectra they keep."""
    _check(field, grid)
    out = np.fft.ifftn(-grid.wavenumber_sq() * np.fft.fftn(field))
    if np.isrealobj(field):
        return out.real
    return out


def _re_pairing(a: np.ndarray, b: np.ndarray, *weight: np.ndarray) -> float:
    """The sum of weight * Re(a conj(b)) over the broadcast shape, weight optional.

    Without a weight, one ``np.einsum`` pass over the fields' float views,
    which interleave the real and imaginary parts when both are complex: 33 us
    on 128^2 points, against 42-66 us for one pass per part (2-vCPU Xeon,
    numpy 2.4). A complex field whose last axis is not unit-stride has no
    such view and is copied first, so every layout sums in the same loops and
    gives the same bits; no run passes one. With a weight, one pass over the
    real parts and one over the imaginary parts: einsum over the interleaved
    views takes each weight twice and three operands, 3x slower on a 64^3
    half spectrum. einsum makes no temporary and, unlike ``np.dot``,
    ``np.vdot`` and ``@``, calls no BLAS, whose threads spin on a second
    core. It sums in sequence, so it keeps a field's first axis and
    np.sum adds the partial sums: on the nls-ladder fields that rounds like
    np.sum (5e-16 relative, against 2e-14 for one sequential sum). The
    weight is a table of the fields' rank; one kept on rows 0..n/2 of axis 0
    (see mirror_halves) pairs each mirror half of the fields with its view,
    and the rows' partial sums are concatenated in row order, so the sum is
    bitwise the whole table's.
    """
    views = [(a.real, b.real)]
    if np.iscomplexobj(a) and np.iscomplexobj(b):
        if weight:
            views.append((a.imag, b.imag))
        else:
            views = [(_interleaved(a), _interleaved(b))]
    pairs = mirror_halves(a.shape[0], *weight) if weight else [(slice(None), ())]
    total = 0.0
    for x, y in views:
        parts = []
        for rows, w in pairs:
            ops = w + (x[rows], y[rows])
            n = max(op.ndim for op in ops)
            args = [z for op in ops for z in (op, list(range(n - op.ndim, n)))]
            parts.append(np.einsum(*args, [0] if n > 1 else []))
        total += float(np.sum(np.concatenate(parts) if len(parts) > 1 else parts[0]))
    return total


def _interleaved(x: np.ndarray) -> np.ndarray:
    """A complex field's float view, its (re, im) pairs along its last axis; of
    a contiguous copy if that axis is not unit-stride."""
    if x.strides[-1] != x.itemsize:
        x = np.ascontiguousarray(x)
    return x.view(float)


def l2_norm_sq(field: np.ndarray, grid: GridSpec) -> float:
    """Periodic trapezoid quadrature of |u|^2 (exact for the Riemann sum), in one
    pass (see _re_pairing)."""
    _check(field, grid)
    return grid.cell_volume * _re_pairing(field, field)


def l2_inner(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> float:
    """Real L2 pairing h^d sum Re(a conj(b)), in one pass (see _re_pairing)."""
    _check(a, grid)
    return grid.cell_volume * _re_pairing(a, b)


def gradient_norm_sq(field: np.ndarray, grid: GridSpec) -> float:
    """Parseval evaluation of the gradient norm: sum |xi|^2 |u_hat|^2 over the
    full-grid wavenumber_sq(); the tests' oracle for ``parseval_norm_sq``."""
    _check(field, grid)
    uh = np.fft.fftn(field)
    return grid.cell_volume / grid.N ** grid.d * _re_pairing(uh, uh, grid.wavenumber_sq())


@lru_cache(maxsize=32)
def _parseval_multiplier(grid: GridSpec, half: bool) -> np.ndarray:
    """The read-only weight of a Parseval gradient sum: the |xi|^2 table of
    ``GridSpec.table_wavenumber_sq``, which keeps rows 0..N/2 of axis 0 only
    for d >= 2 and which _re_pairing mirrors, on a half spectrum with its
    interior last-axis planes doubled.

    An interior last-axis plane of a half spectrum also stands for its mirror
    image -k, which the half spectrum leaves out, so it weighs 2; the zero
    and Nyquist planes are their own mirrors and weigh 1.
    """
    out = grid.table_wavenumber_sq(half)
    if half:
        out[..., 1:-1] *= 2.0  # in place, so that the first record holds one copy
    out.flags.writeable = False
    return out


def parseval_norm_sq(uh: np.ndarray, grid: GridSpec, gradient: bool = False) -> float:
    """l2_norm_sq, or with ``gradient`` gradient_norm_sq, of the field whose
    spectrum is uh (see _re_pairing).

    uh of the grid's shape is an np.fft.fftn spectrum; uh whose last axis
    keeps the frequencies 0..N/2 is the np.fft.rfftn half spectrum of a real
    field. Any other shape raises ValueError. The gradient is one pass per
    float view with the |xi|^2 table of _parseval_multiplier; the norm is
    one unweighted pass, or _half_norm_sq's of a half spectrum.
    """
    half = _is_half(uh, grid)
    if gradient:
        total = _re_pairing(uh, uh, _parseval_multiplier(grid, half))
    else:
        total = _half_norm_sq(uh, True) if half else _re_pairing(uh, uh)
    return grid.cell_volume / grid.N ** grid.d * total


def _half_norm_sq(view: np.ndarray, nyquist: bool) -> float:
    """sum |u_hat|^2 over the modes of a full spectrum that a view of a half
    spectrum stands for, its last axis starting at frequency 0 and, with
    ``nyquist``, ending at N/2.

    An interior last-axis plane also stands for its mirror image -k, which
    the half spectrum leaves out, while the zero and Nyquist planes are
    their own mirrors, so the sum is twice the view's unweighted pass less
    the passes of those planes (see _re_pairing), which are views keeping a
    last axis of one, so none is copied: 190 against 245 us for one pass per
    float view with the plane weights on a 64^3 half spectrum (2-vCPU Xeon,
    numpy 2.4).
    """
    planes = (view[..., :1], view[..., -1:]) if nyquist else (view[..., :1],)
    return 2.0 * _re_pairing(view, view) - sum(_re_pairing(p, p) for p in planes)


def _is_half(uh: np.ndarray, grid: GridSpec) -> bool:
    """Whether uh is an rfftn half spectrum of the grid, not an fftn spectrum;
    ValueError if it is neither."""
    if uh.shape not in (grid.shape, half := grid.shape[:-1] + (grid.N // 2 + 1,)):
        raise ValueError(f"spectrum shape {uh.shape} matches neither layout of grid "
                         f"{grid.shape}")
    return uh.shape == half


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def _potential_integral(potential, u: np.ndarray, grid: GridSpec) -> float:
    """h^d times the sum of potential(u), made without a potential field;
    raises AmplitudeError if it is not finite.

    potential is evaluated one _BLOCK of points at a time, and the block sums
    are added pairwise, halving the list as np.sum's pairwise summation
    halves an array. A grid has a power of two of points, so with a power of
    two _BLOCK the sum is bitwise ``grid.cell_volume * np.sum(potential(u))``.
    The overflow this reports is expected, so numpy's warning is silenced.
    """
    flat, block = u.reshape(-1), _BLOCK

    def pairwise(sums):
        h = len(sums) // 2
        return sums[0] if h == 0 else pairwise(sums[:h]) + pairwise(sums[h:])

    with np.errstate(over="ignore", invalid="ignore"):
        pot = grid.cell_volume * pairwise(
            [np.sum(potential(flat[a:a + block])) for a in range(0, flat.size, block)])
    if not np.isfinite(pot):
        raise AmplitudeError("potential integral is not finite; reduce amplitude")
    return float(pot)


def wave_energy(state: WaveState, spec) -> EnergyReport:
    """Kinetic, gradient and potential energy of a wave state and their total.

    Only the oracle ``wave_integrator.Verlet`` calls it: the impulse stepper
    takes the same energies from its records' fields."""
    kin = 0.5 * l2_norm_sq(state.ut, state.grid)
    grad = 0.5 * gradient_norm_sq(state.u, state.grid)
    pot = _potential_integral(spec.F, state.u, state.grid)
    return EnergyReport(kin, grad, pot, kin + grad + pot)


def nls_energy(state: NlsState, spec) -> EnergyReport:
    """Mass and the conserved Hamiltonian (1/2)||grad u||^2 + int F(|u|^2/2).

    With f(u) = u F'(|u|^2/2) the gradient term carries the factor 1/2; the
    variant without it is not an invariant of the flow (checked against an
    independent RK4 integration of the collocation system). No run calls it:
    the NLS stepper takes the same energies from its records' fields, and
    this is the tests' oracle for them.
    """
    grad = 0.5 * gradient_norm_sq(state.u, state.grid)
    pot = _potential_integral(spec.potential, state.u, state.grid)
    mass = l2_norm_sq(state.u, state.grid)
    return EnergyReport(0.0, grad, pot, grad + pot, mass=mass)


def leakage(field: np.ndarray, spectrum: np.ndarray, grid: GridSpec) -> tuple:
    """A record's boundary shares (shell, tail) of the field and its spectrum.

    shell is the share of |u|^2 in the shell LEAKAGE_SHELL * L wide at the
    box boundary. Data are centered at the box center, so the shell is where
    any coordinate is within the shell's width of 0 or L. On each axis that
    edge set is a prefix and a suffix of the grid, so the shell is the
    disjoint union of slabs: for each axis, its prefix and its suffix, with
    the earlier axes kept to their interior.

    tail is the share of |u_hat|^2 on the modes with some |k_i| > N/3, the
    top third of the resolved frequencies (Orszag's 2/3 rule). The modes
    with every |k_i| <= N/3 are the 2^d low corner blocks of an fftn
    spectrum, or the 2^(d-1) of an rfftn half spectrum (read by its shape,
    as parseval_norm_sq reads it, and summed by _half_norm_sq, as it sums
    the norm), and the tail is what they leave of N^d times the shell's
    total, by Parseval.

    Each slab and block is a view, summed in one pass, so no mask, gather,
    square or transform is made.
    """
    _check(field, grid)
    half = _is_half(spectrum, grid)
    total = _re_pairing(field, field)
    if total == 0.0:
        return 0.0, 0.0
    N = grid.N
    x = grid.axis()
    edge = np.minimum(x, grid.L - x) < LEAKAGE_SHELL * grid.L
    # the grid's middle point, x = L/2, is never in the edge set
    lo, hi = int(np.argmin(edge)), N - int(np.argmin(edge[::-1]))
    shell = 0.0
    for axis in range(grid.d):
        for part in (slice(0, lo), slice(hi, N)):
            slab = field[(slice(lo, hi),) * axis + (part,)]
            shell += _re_pairing(slab, slab)
    # |k| <= N/3 (never a whole number) is the first K + 1 and the last K indices
    K = N // 3
    axes = [(slice(0, K + 1), slice(N - K, N))] * grid.d
    if half:
        axes[-1] = (slice(0, K + 1),)
    kept = 0.0
    for block in itertools.product(*axes):
        view = spectrum[block]
        # K < N/2, so a half spectrum's block holds no Nyquist plane
        kept += _half_norm_sq(view, False) if half else _re_pairing(view, view)
    return shell / total, max(0.0, 1.0 - kept / (N ** grid.d * total))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def bump_field(
    grid: GridSpec,
    amplitude: float = 1.0,
    radius: float = 1.0,
    center: float | None = None,
) -> np.ndarray:
    """Tensor product of smooth compactly supported bumps per axis.

    Each factor is exp(1/((x/r)^2 - 1)) inside |x - c| < r and 0 outside.
    """
    if center is None:
        center = grid.L / 2.0
    out = np.full(grid.shape, amplitude)
    for xi in grid.coords():
        s = (xi - center) / radius
        with np.errstate(divide="ignore", over="ignore"):
            factor = np.where(np.abs(s) < 1.0, np.exp(1.0 / (s ** 2 - 1.0)), 0.0)
        out = out * factor
    return out

