from functools import cached_property

import numpy as np
import pytest

import helpers
from mfgkit import (
    Coupling,
    DensityField,
    GameState,
    GridError,
    PeriodicState,
    PositivityError,
    ScalarField,
    SpaceTimeGrid,
    SpatialTerm,
    StationaryState,
    TorusGrid,
    VectorField,
    bifurcation,
    fields,
    load_field,
    save_field,
    spectral,
    stationary,
)


@pytest.fixture(scope="module")
def g1():
    return TorusGrid((32,))


@pytest.fixture(scope="module")
def g2():
    return TorusGrid((16, 16))


def test_grid_rejects_odd_or_tiny_axes():
    with pytest.raises(GridError):
        TorusGrid((15,))
    with pytest.raises(GridError):
        TorusGrid((2,))
    with pytest.raises(GridError):
        TorusGrid((16, 7))


def test_wavenumbers_are_integers(g1):
    k = g1.wavenumbers[0]
    assert k.dtype.kind == "i"
    assert set(k) == set(range(-16, 16))


def test_gradient_of_sine_mode(g1):
    x = np.arange(32) / 32
    grad = spectral.gradient(g1, np.sin(2 * np.pi * x))
    assert grad.shape == (1, 32)
    assert abs(grad[0, 0] - 2 * np.pi) < 1e-12
    assert np.max(np.abs(grad[0] - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-12


def test_first_derivative_kills_nyquist(g1):
    saw = (-1.0) ** np.arange(32)
    assert np.max(np.abs(spectral.gradient(g1, saw))) == 0.0
    # the Laplacian keeps the full symbol on the same mode
    assert np.max(np.abs(spectral.laplacian(g1, saw) + (16 * 2 * np.pi) ** 2 * saw)) < 1e-9


def test_laplacian_eigenvalues(g1, g2):
    x = np.arange(32) / 32
    f = np.cos(2 * np.pi * x)
    assert np.max(np.abs(spectral.laplacian(g1, f) + 4 * np.pi**2 * f)) < 1e-11
    xx = np.arange(16) / 16
    X, Y = np.meshgrid(xx, xx, indexing="ij")
    f2 = np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    assert np.max(np.abs(spectral.laplacian(g2, f2) + 8 * np.pi**2 * f2)) < 1e-11


def test_integrate_and_mean(g2):
    assert spectral.integrate(g2, np.ones((16, 16))) == 1.0
    rng = np.random.default_rng(0)
    f = spectral.random_band_limited(g2, rng)
    assert abs(spectral.mean(g2, f)) < 1e-14


def test_gradient_divergence_adjointness(g2):
    rng = np.random.default_rng(1)
    f = spectral.random_band_limited(g2, rng)
    w = np.stack([spectral.random_band_limited(g2, rng) for _ in range(2)])
    lhs = spectral.integrate(g2, np.sum(spectral.gradient(g2, f) * w, axis=0))
    rhs = -spectral.integrate(g2, f * spectral.divergence(g2, w))
    assert abs(lhs - rhs) < 1e-12


def test_laplacian_self_adjoint_and_divgrad_consistent(g2):
    rng = np.random.default_rng(2)
    f = spectral.random_band_limited(g2, rng)
    h = spectral.random_band_limited(g2, rng)
    lhs = spectral.integrate(g2, f * spectral.laplacian(g2, h))
    rhs = spectral.integrate(g2, h * spectral.laplacian(g2, f))
    assert abs(lhs - rhs) < 1e-12
    # div(grad f) agrees with the dedicated symbol on band-limited data
    gap = spectral.div_grad(g2, f) - spectral.divergence(g2, spectral.gradient(g2, f))
    assert np.max(np.abs(gap)) < 1e-11


def test_parseval(g1):
    rng = np.random.default_rng(3)
    f = spectral.random_band_limited(g1, rng)
    coeffs = np.fft.fftn(f) / f.size
    assert abs(spectral.integrate(g1, f * f) - np.sum(np.abs(coeffs) ** 2)) < 1e-12


def test_project_div_free(g2):
    rng = np.random.default_rng(4)
    w = np.stack([spectral.random_band_limited(g2, rng) for _ in range(2)])
    pw = spectral.project_div_free(g2, w)
    assert np.max(np.abs(spectral.divergence(g2, pw))) < 1e-11
    assert np.max(np.abs(spectral.project_div_free(g2, pw) - pw)) < 1e-12
    # pure gradients are annihilated, constants pass through
    gradf = spectral.gradient(g2, spectral.random_band_limited(g2, rng))
    assert np.max(np.abs(spectral.project_div_free(g2, gradf))) < 1e-11
    const = np.stack([np.full((16, 16), 0.7), np.full((16, 16), -0.2)])
    assert np.max(np.abs(spectral.project_div_free(g2, const) - const)) < 1e-14
    # projection is orthogonal: <pw, gradf> = 0
    ip = spectral.integrate(g2, np.sum(pw * gradf, axis=0))
    assert abs(ip) < 1e-12


def test_solve_poisson(g2):
    rng = np.random.default_rng(5)
    rhs = spectral.random_band_limited(g2, rng)
    u = spectral.solve_poisson(g2, rhs)
    assert abs(spectral.mean(g2, u)) < 1e-14
    assert np.max(np.abs(spectral.laplacian(g2, u) - rhs)) < 1e-11


def test_time_derivative_periodic():
    g = TorusGrid((8,))
    st = SpaceTimeGrid(g, 16, 1.0, periodic_time=True)
    t = np.arange(16)[:, None] / 16
    arr = np.cos(2 * np.pi * t) * np.ones((1, 8))
    d = spectral.time_derivative_periodic(st, arr)
    assert np.max(np.abs(d + 2 * np.pi * np.sin(2 * np.pi * t))) < 1e-11
    saw = ((-1.0) ** np.arange(16))[:, None] * np.ones((1, 8))
    assert np.max(np.abs(spectral.time_derivative_periodic(st, saw))) == 0.0


def test_time_derivative_scales_with_horizon():
    g = TorusGrid((8,))
    st = SpaceTimeGrid(g, 16, 0.5, periodic_time=True)
    t = np.arange(16)[:, None] / 16  # unit cylinder coordinate
    arr = np.sin(2 * np.pi * t) * np.ones((1, 8))
    d = spectral.time_derivative_periodic(st, arr)
    assert np.max(np.abs(d - (2 * np.pi / 0.5) * np.cos(2 * np.pi * t))) < 1e-10


def test_random_band_limited_is_banded_and_seeded(g1):
    a = spectral.random_band_limited(g1, np.random.default_rng(7), kmax=3)
    b = spectral.random_band_limited(g1, np.random.default_rng(7), kmax=3)
    assert np.array_equal(a, b)
    coeffs = np.fft.fftn(a)
    k = g1.wavenumbers[0]
    assert np.max(np.abs(coeffs[np.abs(k) > 3])) < 1e-12
    assert abs(a.mean()) < 1e-14


def test_sampler_draws_the_same_bytes_for_the_same_seed():
    draws = []
    for seed in (3, 3, 4):
        rng = spectral.Sampler(seed)
        draws.append(rng.standard_normal((4, 5)).tobytes() + rng.uniform(0.2, 2.0, 7).tobytes())
    assert draws[0] == draws[1] != draws[2]
    # Every value takes a fixed number of words, so draws chunk freely.
    whole, parts = spectral.Sampler(9), spectral.Sampler(9)
    joined = np.concatenate([parts.standard_normal(3), parts.standard_normal((2, 2))], axis=None)
    assert np.array_equal(joined, whole.standard_normal(7))
    assert np.array_equal(parts.uniform(0.0, 1.0, 5), whole.uniform(0.0, 1.0, 5))


def test_sampler_moments_and_range():
    rng = spectral.Sampler(0)
    z = rng.standard_normal(40000)
    assert abs(z.mean()) < 0.02 and abs(z.std() - 1.0) < 0.02
    u = rng.uniform(0.2, 2.0, 40000)
    assert 0.2 <= u.min() and u.max() < 2.0 and abs(u.mean() - 1.1) < 0.02


def test_field_roundtrip(tmp_path, g2):
    rng = np.random.default_rng(8)
    scalar = ScalarField(g2, spectral.random_band_limited(g2, rng))
    vec = VectorField(g2, np.stack([spectral.random_band_limited(g2, rng) for _ in range(2)]))
    dens_vals = 1.0 + spectral.random_band_limited(g2, rng, amplitude=0.3)
    dens_vals /= dens_vals.mean()
    dens = DensityField(g2, dens_vals)
    for name, fld in (("s", scalar), ("v", vec), ("d", dens)):
        path = tmp_path / f"{name}.field"
        save_field(path, fld)
        loaded = load_field(path)
        assert type(loaded) is type(fld)
        assert loaded.grid.shape == g2.shape
        assert np.array_equal(loaded.values, fld.values)


def test_field_roundtrip_space_time(tmp_path):
    g = TorusGrid((8,))
    st = SpaceTimeGrid(g, 4, 0.25)
    vals = np.linspace(0.0, 1.0, 5 * 8).reshape(5, 8)
    path = tmp_path / "u.field"
    save_field(path, ScalarField(st, vals))
    loaded = load_field(path)
    assert loaded.grid.n_t == 4
    assert loaded.grid.horizon == 0.25
    assert np.array_equal(loaded.values, vals)


def test_save_field_writes_the_per_value_bytes(tmp_path):
    # One formatted write must give the bytes of one f"{v:.17g}" line per
    # value, on normal draws and on the special values.
    g = TorusGrid((64,))
    special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e308, -1.5e-310]
    vals = np.random.default_rng(12).standard_normal(64) * 10.0 ** np.arange(-32, 32)
    vals[: len(special)] = special
    fld = ScalarField(g, vals)
    path = tmp_path / "s.field"
    save_field(path, fld)
    expected = fields._header_for(fld) + "".join(f"{v:.17g}\n" for v in fld.values.ravel())
    assert path.read_bytes() == expected.encode()


def test_density_field_validation(g1):
    with pytest.raises(PositivityError):
        DensityField(g1, -np.ones(32))
    with pytest.raises(PositivityError):
        DensityField(g1, np.full(32, 2.0))


def test_density_field_rejects_nan():
    # NaN compares False with any bound, so the checks are written to fail on it.
    with pytest.raises(PositivityError, match="min = nan"):
        DensityField(TorusGrid((4,)), [1.0, np.nan, 1.0, 1.0])


def test_load_field_revalidates_a_nan_density(tmp_path):
    path = tmp_path / "m.field"
    save_field(path, DensityField(TorusGrid((4,)), np.ones(4)))
    header = path.read_text().splitlines()[:2]
    path.write_text("\n".join(header + ["1", "nan", "1", "1"]) + "\n")
    with pytest.raises(PositivityError, match="min = nan"):
        load_field(path)


def _conjugate_symmetric(rng, shape, k, complex_blocks):
    """Random blocks of shape (*shape, k, k) on every mode in FFT order with
    B(-k) = conj(B(k)), so that they stand for a real operator."""
    raw = rng.standard_normal(shape + (k, k))
    if complex_blocks:
        raw = raw + 1j * rng.standard_normal(shape + (k, k))
    flipped = raw[tuple(np.ix_(*[(-np.arange(n)) % n for n in shape]))]
    return 0.5 * (raw + np.conj(flipped))


@pytest.mark.parametrize("complex_blocks", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "shape, k", [((8,), 1), ((16,), 2), ((6, 8), 2), ((4, 6, 8), 3), ((8, 4, 4), 2)],
    ids=["1d-k1", "1d-k2", "2d", "space-time-1d", "space-time-2d"],
)
@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batched"])
def test_modewise_matches_dense_dft(shape, k, complex_blocks, batch):
    rng = np.random.default_rng(sum(shape) + 7 * k)
    full = _conjugate_symmetric(rng, shape, k, complex_blocks)
    arr = rng.standard_normal(batch + (k,) + shape)
    got = spectral.modewise(spectral.rfft_modes(full), arr)
    want = helpers.modewise_dense(full, arr)
    assert got.shape == arr.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_modewise_applies_hermitian_mode_blocks():
    # Hermitian 2 x 2 blocks in the form of the periodic operator: odd
    # imaginary off-diagonal part, even real part.
    st = SpaceTimeGrid(TorusGrid((8,)), n_t=8, horizon=1.0, periodic_time=True)
    iw = st.time_derivative_symbol.reshape(-1, 1)
    lam = -st.space.divgrad_symbol.reshape(1, -1)
    full = np.empty(st.field_shape + (2, 2), dtype=complex)
    full[..., 0, 0], full[..., 1, 1] = lam, 2.0 + 0.0 * lam
    full[..., 0, 1], full[..., 1, 0] = iw + lam, -iw + lam
    arr = np.random.default_rng(2).standard_normal((2,) + st.field_shape)
    got = spectral.modewise(spectral.rfft_modes(full), arr)
    assert np.max(np.abs(got - helpers.modewise_dense(full, arr))) <= 1e-12 * np.max(np.abs(got))


def test_rfft_modes_keeps_the_half_rfftn_keeps():
    full = np.arange(6 * 8 * 2 * 2).reshape(6, 8, 2, 2)
    half = spectral.rfft_modes(full)
    assert half.shape == np.fft.rfftn(np.zeros((6, 8))).shape + (2, 2)
    assert np.array_equal(half, full[:, :5])


@pytest.mark.parametrize("horizon", [np.inf, np.nan, 0.0, -1.0])
def test_space_time_grid_rejects_a_horizon_outside_0_inf(horizon):
    with pytest.raises(GridError, match="horizon must be positive and finite"):
        SpaceTimeGrid(TorusGrid((8,)), n_t=8, horizon=horizon)


BIT_GRIDS = [(16,), (8, 12), (4, 6, 8)]


def _bit_field(grid, lead, kind, rng):
    """A random field of shape lead + grid.shape; "nyquist" adds every
    axis's Nyquist line and the Nyquist corner."""
    out = rng.standard_normal(lead + grid.shape)
    if kind == "nyquist":
        idx = np.indices(grid.shape)
        for i in idx:
            out = out + rng.standard_normal() * (-1.0) ** i
        out = out + (-1.0) ** idx.sum(axis=0)
    return out


@pytest.mark.parametrize("kind", ["random", "nyquist"])
@pytest.mark.parametrize("lead", [(), (6,)], ids=["space", "space-time"])
@pytest.mark.parametrize("shape", BIT_GRIDS, ids=["1d", "2d", "3d"])
def test_batched_transforms_match_per_component_fftn_bit_for_bit(shape, lead, kind):
    """Stationary outcomes near tol flip at roundoff, so the batched,
    per-axis transforms must give exactly the bits of one fftn/ifftn call
    per component."""
    grid = TorusGrid(shape)
    rng = np.random.default_rng(sum(shape) + len(lead))
    f = _bit_field(grid, lead, kind, rng)
    vec = np.stack([_bit_field(grid, lead, kind, rng) for _ in range(grid.dim)])
    hat = helpers.fftn_space(grid, f)
    assert np.array_equal(spectral._fft(grid, f), hat)
    assert np.array_equal(spectral._ifft_real(grid, hat), helpers.ifftn_space_real(grid, hat))
    assert np.array_equal(spectral.gradient(grid, f), helpers.gradient_per_component(grid, f))
    assert np.array_equal(
        spectral.divergence(grid, vec), helpers.divergence_per_component(grid, vec)
    )
    assert np.array_equal(
        spectral.project_div_free(grid, vec), helpers.project_div_free_per_component(grid, vec)
    )
    assert np.array_equal(
        stationary._half_inverse_divgrad(grid, f),
        helpers.half_inverse_divgrad_per_component(grid, f),
    )


@pytest.mark.parametrize("kind", ["random", "nyquist"])
@pytest.mark.parametrize("lead", [(), (6,)], ids=["space", "space-time"])
@pytest.mark.parametrize("shape", BIT_GRIDS, ids=["1d", "2d", "3d"])
def test_gradient_laplacians_equal_the_three_calls_bit_for_bit(shape, lead, kind):
    grid = TorusGrid(shape)
    rng = np.random.default_rng(sum(shape) + len(lead) + 1)
    um = np.stack([_bit_field(grid, lead, kind, rng) for _ in range(2)])
    grad, lap_u, lap_m = spectral.gradient_laplacians(grid, um)
    assert np.array_equal(grad, spectral.gradient(grid, um[0]))
    assert np.array_equal(lap_u, spectral.laplacian(grid, um[0]))
    assert np.array_equal(lap_m, spectral.laplacian(grid, um[1]))


@pytest.mark.parametrize(
    "lead, amplitude",
    [((5,), 1.0), ((3, 2), (0.3, 0.5)), ((1,), 0.2)],
    ids=["stack", "pairs", "one"],
)
@pytest.mark.parametrize("shape", BIT_GRIDS + [(6, 6)], ids=["1d", "2d", "3d", "2d-small"])
def test_random_band_limited_stack_equals_per_slice_draws(shape, lead, amplitude):
    grid = TorusGrid(shape)
    amps = np.broadcast_to(amplitude, lead)
    batched_rng, sliced_rng = np.random.default_rng(11), np.random.default_rng(11)
    stack = spectral.random_band_limited_stack(grid, batched_rng, lead, amplitude=amplitude)
    assert stack.shape == lead + grid.shape
    for index in np.ndindex(*lead):
        one = spectral.random_band_limited(grid, sliced_rng, amplitude=float(amps[index]))
        assert np.array_equal(stack[index], one)
    # Both generators drew the same normals: their next draws agree.
    assert batched_rng.standard_normal() == sliced_rng.standard_normal()


def test_band_index_is_built_once_per_grid_and_kmax():
    grid = TorusGrid((12,))
    assert spectral._band_index(grid, 3) is spectral._band_index(TorusGrid((12,)), 3)
    assert spectral._band_index(grid, 2) is not spectral._band_index(grid, 3)


def _cached_arrays(grid):
    """Every array that ``grid`` caches, by cached property name."""
    for name, attr in vars(type(grid)).items():
        if isinstance(attr, cached_property):
            try:
                value = getattr(grid, name)
            except GridError:  # the d/dt symbol of an interval grid
                continue
            for i, arr in enumerate(value if isinstance(value, tuple) else (value,)):
                yield f"{grid!r}.{name}[{i}]", arr


def test_every_kept_array_is_read_only():
    space = TorusGrid((6, 8))
    interval = SpaceTimeGrid(space, 4, 0.5)
    periodic = bifurcation.periodic_grid(2, 6, 4)
    kept = [*_cached_arrays(space), *_cached_arrays(interval), *_cached_arrays(periodic)]
    # Space: axes, coords and wavenumbers (two each) and four symbols; time:
    # times and weights, and on the periodic grid the d/dt symbol.
    assert len(kept) == 10 + 2 + 3
    kept += [("band index", index) for index in spectral._band_index(space, 2)]
    kept.append(("Coupling.spatial", Coupling(terms=(SpatialTerm(0.1, (1, 0)),)).spatial(space)))
    game = GameState(
        interval, np.ones(interval.field_shape), np.zeros(interval.field_shape),
        np.ones(space.shape), np.zeros(space.shape),
    )
    stationary_state = StationaryState(space, np.ones(space.shape), np.zeros(space.shape))
    periodic_state = PeriodicState(periodic, np.zeros(periodic.field_shape), np.zeros(periodic.field_shape))
    kept += [(f"GameState.{n}", getattr(game, n)) for n in ("m", "u", "m0", "uT")]
    kept += [(f"StationaryState.{n}", getattr(stationary_state, n)) for n in ("m", "u")]
    kept += [(f"PeriodicState.{n}", getattr(periodic_state, n)) for n in ("U", "M")]
    for field in (
        ScalarField(interval, np.zeros(interval.field_shape)),
        DensityField(space, np.ones(space.shape)),
        VectorField(space, np.zeros((2,) + space.shape)),
    ):
        kept.append((type(field).__name__, field.values))
    for name, arr in kept:
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable, name


def test_grid_symbol_stacks_are_built_once_and_read_only(g2):
    assert g2.grad_symbols.shape == (2, 16, 16)
    for name in ("grad_symbols", "half_inverse_divgrad_symbol"):
        sym = getattr(g2, name)
        assert sym is getattr(g2, name)
        assert not sym.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sym[0] = 1.0


@pytest.mark.parametrize(
    "shape, k", [((16,), 2), ((6, 8), 2), ((4, 6, 8), 3), ((8, 4, 4), 2)],
    ids=["1d", "2d", "space-time-1d-k3", "space-time-2d"],
)
@pytest.mark.parametrize("batch", [(), (5,)], ids=["single", "batched"])
def test_modewise_complex_rows_equal_the_broadcast_product_bit_for_bit(shape, k, batch):
    rng = np.random.default_rng(3 * sum(shape) + k)
    full = _conjugate_symmetric(rng, shape, k, complex_blocks=True)
    arr = rng.standard_normal(batch + (k,) + shape)
    blocks = spectral.rfft_modes(full)
    assert np.array_equal(spectral.modewise(blocks, arr), helpers.modewise_broadcast(blocks, arr))
