"""Spectral operators, quadrature norms, and energies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercrit import field_core
from supercrit.field_core import (
    AmplitudeError,
    _potential_integral,
    GridSpec,
    NlsState,
    WaveState,
    bump_field,
    gradient_norm_sq,
    l2_inner,
    l2_norm_sq,
    laplacian,
    leakage,
    mirrored_chunks,
    nls_energy,
    parseval_norm_sq,
    wave_energy,
)
from supercrit.nonlinearity import from_selection


def random_smooth_field(grid, seed=0, modes=5, complex_valued=False):
    """Band-limited random field: low Fourier modes with seeded coefficients."""
    rng = np.random.default_rng(seed)
    shape = grid.shape
    coeffs = np.zeros(shape, dtype=complex)
    for _ in range(modes):
        idx = tuple(rng.integers(-3, 4) % grid.N for _ in range(grid.d))
        coeffs[idx] = rng.normal() + 1j * rng.normal()
    u = np.fft.ifftn(coeffs)
    return u if complex_valued else u.real


@pytest.mark.parametrize("bad", [
    dict(d=4, N=64, L=8.0),
    dict(d=1, N=100, L=8.0),
    dict(d=1, N=4, L=8.0),
    dict(d=1, N=64, L=-1.0),
])
def test_grid_validation(bad):
    with pytest.raises(ValueError):
        GridSpec(**bad)


def test_grid_geometry():
    grid = GridSpec(2, 64, 16.0)
    assert grid.h == 0.25
    assert grid.shape == (64, 64)
    assert grid.cell_volume == 0.0625
    assert len(grid.axis()) == 64
    assert grid.axis()[1] == grid.h


@pytest.mark.parametrize("d,m", [(1, 1), (1, 3), (2, 2)])
def test_laplacian_eigenfunction(d, m):
    grid = GridSpec(d, 32, 8.0)
    k = 2.0 * np.pi * m / grid.L
    u = np.cos(k * grid.coords()[0]) * np.ones(grid.shape)
    lap = laplacian(u, grid)
    assert np.allclose(lap, -k ** 2 * u, atol=1e-10)
    assert lap.dtype.kind == "f"


def test_norms_on_single_mode():
    grid = GridSpec(1, 128, 8.0)
    k = 2.0 * np.pi * 2 / grid.L
    u = 3.0 * np.sin(k * grid.axis())
    assert l2_norm_sq(u, grid) == pytest.approx(9.0 * grid.L / 2.0)
    assert gradient_norm_sq(u, grid) == pytest.approx(9.0 * k ** 2 * grid.L / 2.0)


def test_norm_of_constant_field():
    grid = GridSpec(2, 16, 4.0)
    u = np.full(grid.shape, 1.5 + 0.5j)
    assert l2_norm_sq(u, grid) == pytest.approx(2.5 * grid.L ** 2)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("transform", [np.fft.rfftn, np.fft.fftn], ids=["half", "full"])
def test_parseval_matches_physical_norms(d, transform):
    # white noise puts weight on every mode, the Nyquist planes included
    grid = GridSpec(d, 16, 8.0)
    u = np.random.default_rng(d).normal(size=grid.shape)
    uh = transform(u)
    assert np.abs(uh[..., grid.N // 2]).max() > 0.1
    assert parseval_norm_sq(uh, grid) == pytest.approx(l2_norm_sq(u, grid), rel=1e-12)
    assert parseval_norm_sq(uh, grid, gradient=True) == pytest.approx(
        gradient_norm_sq(u, grid), rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_parseval_refuses_a_shape_of_neither_layout(d):
    grid = GridSpec(d, 16, 8.0)
    uh = np.fft.fftn(np.random.default_rng(d).normal(size=grid.shape))
    for bad in (uh[..., :grid.N // 2], uh[..., :grid.N // 2 + 2], uh[:-1]):
        with pytest.raises(ValueError, match="neither layout"):
            parseval_norm_sq(bad, grid)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [8, 64])
def test_half_wavenumbers_are_the_full_grid_half_bitwise(d, N):
    # the last-axis half of wavenumber_sq(), the tests' |xi|^2 of an rfftn
    # half spectrum, is bitwise |xi|^2 on the rfftfreq grid: the Nyquist
    # frequency is -N/2 there and +N/2 here, whose squares are equal
    grid = GridSpec(d, N, 7.3)
    k = [2.0 * np.pi / grid.L * np.fft.fftfreq(N) * N] * (d - 1)
    k.append(2.0 * np.pi / grid.L * np.fft.rfftfreq(N) * N)
    ref = sum(np.square(ki).reshape((1,) * i + (-1,) + (1,) * (d - 1 - i))
              for i, ki in enumerate(k))
    half = grid.wavenumber_sq()[..., : N // 2 + 1]
    assert np.array_equal(half.view(np.int64), ref.view(np.int64))


def _whole_table_pairing(a, b, weight):
    """sum weight * Re(a conj(b)) as the whole table pairs it: one einsum pass per
    float view, keeping axis 0, whose partial sums np.sum adds."""
    total = 0.0
    for x, y in ((a.real, b.real), (a.imag, b.imag)):
        axes = list(range(x.ndim))
        total += float(np.sum(np.einsum(weight, axes, x, axes, y, axes,
                                        [0] if x.ndim > 1 else [])))
    return total


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("half", [True, False], ids=["half", "full"])
@pytest.mark.parametrize("block", [1 << 10, 1 << 14, 1 << 16])
def test_mirrored_chunks_product_and_pairing_are_the_full_tables_bitwise(monkeypatch, d, N,
                                                                         half, block):
    # a table keeps rows 0..N/2 of every axis but the last; applied in chunks
    # of about block points to the rfftn half spectrum of the wave tables or
    # the fftn spectrum of the NLS ones, its products and weighted sums are
    # bitwise the whole table's
    monkeypatch.setattr(field_core, "_BLOCK", block)
    grid = GridSpec(d, N, 7.3)
    last = N // 2 + 1 if half else N
    ksq = grid.table_wavenumber_sq(half)
    assert ksq.shape == (N // 2 + 1,) * (d - 1) + (last,)
    full = grid.wavenumber_sq()[..., :last]
    shape = full.shape
    rng = np.random.default_rng(d)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    chunk = max(1, block // x[0].size)
    # a real table and a complex one, both even in each frequency
    for table, whole in ((ksq, full), (np.exp(1j * ksq), np.exp(1j * full))):
        ours = x.copy()
        for rows, (view,) in mirrored_chunks(len(x), (table,), chunk):
            ours[rows] *= view
        assert np.array_equal(ours.view(np.int64), (x * whole).view(np.int64))
    assert field_core._re_pairing(x, x, ksq) == _whole_table_pairing(x, x, full)


@pytest.mark.parametrize("d, N", [(1, 1024), (1, 1 << 16), (2, 128), (2, 256), (3, 32),
                                  (3, 64)])
def test_blocked_potential_integral_is_the_np_sum_formula_bitwise(d, N):
    grid = GridSpec(d, N, 10.0)
    u = bump_field(grid, 1.2, 4.0) * np.random.default_rng(d).uniform(-1, 1, grid.shape)
    spec = from_selection("defocusing_exp:m=1")
    assert _potential_integral(spec.F, u, grid) == grid.cell_volume * np.sum(spec.F(u))
    # the NLS energies sum F(|u|^2/2) of a complex field the same way
    z = u * np.exp(1j * grid.coords()[0])
    nls = from_selection("nls_coercive_exp")
    expected = grid.cell_volume * np.sum(nls.potential(z))
    assert _potential_integral(nls.potential, z, grid) == expected


def test_shape_mismatch_raises():
    grid = GridSpec(1, 32, 8.0)
    with pytest.raises(ValueError):
        l2_norm_sq(np.zeros(16), grid)


@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_integration_by_parts(seed):
    """<u, -Lap u> equals the squared gradient norm exactly in spectral space."""
    grid = GridSpec(1, 64, 8.0)
    u = random_smooth_field(grid, seed=seed, complex_valued=True)
    lhs = l2_inner(u, -laplacian(u, grid), grid)
    assert lhs == pytest.approx(gradient_norm_sq(u, grid), rel=1e-10, abs=1e-12)


@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_inner_product_symmetry_and_cauchy_schwarz(seed):
    grid = GridSpec(1, 32, 8.0)
    a = random_smooth_field(grid, seed=seed, complex_valued=True)
    b = random_smooth_field(grid, seed=seed + 1, complex_valued=True)
    assert l2_inner(a, b, grid) == pytest.approx(l2_inner(b, a, grid), rel=1e-12)
    assert abs(l2_inner(a, b, grid)) <= np.sqrt(
        l2_norm_sq(a, grid) * l2_norm_sq(b, grid)
    ) * (1.0 + 1e-12)


def test_wave_energy_parts():
    grid = GridSpec(1, 128, 8.0)
    spec = from_selection("pure_power:p=3")
    u = np.full(grid.shape, 2.0)
    ut = np.full(grid.shape, 1.0)
    total, kinetic, gradient, potential = wave_energy(WaveState(grid, u, ut, 0.0), spec)
    assert kinetic == pytest.approx(0.5 * grid.L)
    assert gradient == pytest.approx(0.0, abs=1e-12)
    assert potential == pytest.approx(4.0 * grid.L)
    assert total == pytest.approx(kinetic + gradient + potential)


def test_nls_energy_parts_and_mass():
    grid = GridSpec(1, 64, 4.0)
    spec = from_selection("nls_cubic")
    u = np.full(grid.shape, 1.0 + 1.0j)  # |u|^2 = 2, density 0.5 * 1^2
    mass, total, gradient, potential = nls_energy(NlsState(grid, u, 0.0), spec)
    assert mass == pytest.approx(2.0 * grid.L)
    assert gradient == pytest.approx(0.0, abs=1e-12)
    assert potential == pytest.approx(0.5 * grid.L)
    assert total == pytest.approx(gradient + potential)


def test_overflowing_potential_raises():
    grid = GridSpec(1, 32, 8.0)
    spec = from_selection("defocusing_exp:m=2")
    state = WaveState(grid, np.full(grid.shape, 40.0), np.zeros(grid.shape), 0.0)
    with pytest.raises(AmplitudeError):
        wave_energy(state, spec)
    with pytest.raises(AmplitudeError):
        _potential_integral(spec.F, state.u, grid)


def test_bump_compact_support_and_peak():
    grid = GridSpec(1, 256, 8.0)
    u = bump_field(grid, amplitude=2.0, radius=1.5)
    x = grid.axis()
    outside = np.abs(x - grid.L / 2.0) >= 1.5
    assert np.all(u[outside] == 0.0)
    assert np.max(u) == pytest.approx(2.0 / np.e)
    assert np.argmax(u) == np.argmin(np.abs(x - grid.L / 2.0))


def _shell(field, grid):
    """The shell share of leakage, read beside the field's fftn spectrum."""
    return leakage(field, np.fft.fftn(field), grid)[0]


def test_leakage_centered_vs_edge():
    # the shell is L/8 = 2 wide
    grid = GridSpec(1, 256, 16.0)
    centered = bump_field(grid, 1.0, 1.0)
    assert _shell(centered, grid) == 0.0
    edge = bump_field(grid, 1.0, 1.0, center=0.5)
    assert _shell(edge, grid) > 0.9


def test_leakage_of_zero_field():
    grid = GridSpec(1, 32, 8.0)
    zero = np.zeros(grid.shape)
    assert leakage(zero, np.fft.rfftn(zero), grid) == (0.0, 0.0)



def _plane_weights(grid):
    """A half spectrum's last-axis plane weights: 1 for the zero and Nyquist planes, else 2."""
    w = np.full(grid.N // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    return w


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_reductions_equal_their_np_sum_formulas(d, complex_valued):
    # the einsum passes sum in another order than np.sum, so they agree to
    # rounding, not bitwise
    grid = GridSpec(d, 16, 8.0)
    rng = np.random.default_rng(d)

    def field():
        u = rng.normal(size=grid.shape)
        return u + 1j * rng.normal(size=grid.shape) if complex_valued else u

    a, b = field(), field()
    h, n = grid.cell_volume, grid.N ** grid.d
    assert l2_norm_sq(a, grid) == pytest.approx(h * np.sum(np.abs(a) ** 2), rel=1e-13)
    assert l2_inner(a, b, grid) == pytest.approx(h * np.sum(np.real(a * np.conj(b))),
                                                 rel=1e-13)
    # a real field against a complex one pairs with the complex one's real part
    assert l2_inner(a.real, b, grid) == pytest.approx(h * np.sum(a.real * b.real), rel=1e-13)
    uh = np.fft.fftn(a)
    assert parseval_norm_sq(uh, grid, gradient=True) == pytest.approx(
        h / n * np.sum(grid.wavenumber_sq() * np.abs(uh) ** 2), rel=1e-13)
    if not complex_valued:
        half = np.fft.rfftn(a)
        sq = _plane_weights(grid) * np.abs(half) ** 2
        assert parseval_norm_sq(half, grid) == pytest.approx(h / n * np.sum(sq), rel=1e-13)
        assert parseval_norm_sq(half, grid, gradient=True) == pytest.approx(
            h / n * np.sum(grid.wavenumber_sq()[..., :grid.N // 2 + 1] * sq), rel=1e-13)


@pytest.mark.parametrize("d, N, L", [(2, 8, 3.0), (2, 64, 7.3), (2, 256, 40.0),
                                     (3, 16, 8.0), (3, 64, 10.0)])
@pytest.mark.parametrize("half", [True, False], ids=["half", "full"])
def test_mirrored_gradient_multiplier_pairs_like_the_whole_table_bitwise(d, N, L, half):
    # the multiplier keeps rows 0..N/2 of every axis but the last, as the
    # stepper tables do; each row's partial sum reads its mirror row, so the
    # total is the whole table's:
    # the weighted half-spectrum |xi|^2 of the wave energies, or the full-grid
    # |xi|^2 of the NLS ones
    grid = GridSpec(d, N, L)
    mult = field_core._parseval_multiplier(grid, half)
    width = N // 2 + 1 if half else N
    assert mult.shape == (N // 2 + 1,) * (d - 1) + (width,)
    whole = grid.wavenumber_sq()[..., :width]
    if half:
        whole = whole * _plane_weights(grid)
    rng = np.random.default_rng(N)
    for scale in (1e-4, 1.0, 1e5):
        u = scale * rng.normal(size=grid.shape)
        uh = np.fft.rfftn(u) if half else np.fft.fftn(u + 1j * rng.normal(size=grid.shape))
        ref = grid.cell_volume / N ** d * _whole_table_pairing(uh, uh, whole)
        assert parseval_norm_sq(uh, grid, gradient=True) == ref
        strided = np.stack([uh, uh], axis=-1)[..., 1]
        assert not strided.flags.c_contiguous
        assert parseval_norm_sq(strided, grid, gradient=True) == ref


def test_reductions_read_non_contiguous_fields():
    grid = GridSpec(2, 16, 8.0)
    rng = np.random.default_rng(7)
    big = rng.normal(size=(32, 16, 3)) + 1j * rng.normal(size=(32, 16, 3))
    a, b = big[::2, :, 0], big[1::2, :, 2]
    assert not a.flags.c_contiguous
    h = grid.cell_volume
    assert l2_norm_sq(a, grid) == pytest.approx(h * np.sum(np.abs(a) ** 2), rel=1e-13)
    assert l2_inner(a, b, grid) == pytest.approx(h * np.sum(np.real(a * np.conj(b))),
                                                 rel=1e-13)
    half = np.fft.rfftn(big[:, :, 1].real)[::2]
    assert not half.flags.c_contiguous
    assert parseval_norm_sq(half, grid) == pytest.approx(
        h / 16 ** 2 * np.sum(_plane_weights(grid) * np.abs(half) ** 2), rel=1e-13)


def _mask_leakage(field, grid, margin):
    """The boolean-mask formula of the boundary leakage, the oracle of its slab sums."""
    x = grid.axis()
    edge = np.minimum(x, grid.L - x) < margin
    mask = np.zeros(grid.shape, dtype=bool)
    for i in range(grid.d):
        mask |= edge.reshape((1,) * i + (grid.N,) + (1,) * (grid.d - 1 - i))
    total = np.sum(np.abs(field) ** 2)
    return 0.0 if total == 0.0 else float(np.sum(np.abs(field[mask]) ** 2) / total)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_slab_leakage_equals_the_mask_formula(d, complex_valued):
    grid = GridSpec(d, 32, 10.0)
    margin = grid.L / 8.0
    # the edge set is x < 1.25 (4 points) and x > 8.75 (3 points)
    x = grid.axis()
    assert (x < margin).sum() == 4 and (grid.L - x < margin).sum() == 3
    rng = np.random.default_rng(d)
    u = rng.normal(size=grid.shape)
    if complex_valued:
        u = u + 1j * rng.normal(size=grid.shape)
    assert _shell(u, grid) == pytest.approx(_mask_leakage(u, grid, margin), rel=1e-14)
    # a bump across the shell's inner edge, and one clear of the shell
    edge = bump_field(grid, 1.0, 1.0, center=0.5)
    assert _shell(edge, grid) == pytest.approx(_mask_leakage(edge, grid, margin), rel=1e-14)
    assert _shell(bump_field(grid, 1.0, 1.0), grid) == 0.0
    assert _shell(np.zeros(grid.shape, u.dtype), grid) == 0.0


def _mask_tail(field, grid):
    """The boolean-mask formula of the tail share, the oracle of its corner-block sums:
    the share of |fftn(u)|^2 on the modes with some |k_i| > N/3."""
    k = np.fft.fftfreq(grid.N) * grid.N
    high = np.abs(k) > grid.N / 3.0
    mask = np.zeros(grid.shape, dtype=bool)
    for i in range(grid.d):
        mask |= high.reshape((1,) * i + (grid.N,) + (1,) * (grid.d - 1 - i))
    power = np.abs(np.fft.fftn(field)) ** 2
    return float(np.sum(power[mask]) / np.sum(power))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("layout", ["fftn", "rfftn", "fftn-complex"])
def test_tail_equals_the_mask_formula(d, layout):
    grid = GridSpec(d, 32, 10.0)
    # |k| <= 32/3 keeps 21 of each axis's 32 frequencies
    assert (np.abs(np.fft.fftfreq(32) * 32) <= 32 / 3).sum() == 21
    rng = np.random.default_rng(d)
    u = rng.normal(size=grid.shape)
    if layout == "fftn-complex":
        u = u + 1j * rng.normal(size=grid.shape)
    transform = np.fft.rfftn if layout == "rfftn" else np.fft.fftn
    # noise puts about 1 - (21/32)^d of its power in the tail (0.20 at d = 1 here)
    shell, tail = leakage(u, transform(u), grid)
    assert tail == pytest.approx(_mask_tail(u, grid), rel=1e-12) and tail > 0.15
    assert shell == pytest.approx(_shell(u, grid), rel=1e-14)
    # a resolved bump's tail is small, and its difference from 1 keeps the
    # absolute rounding of the sums
    bump = bump_field(grid, 1.0, 2.0)
    assert leakage(bump, transform(bump), grid)[1] == pytest.approx(_mask_tail(bump, grid),
                                                                    abs=1e-14)
    with pytest.raises(ValueError, match="neither layout"):
        leakage(u, transform(u)[..., :-1], grid)
