"""Array-level spectral operators on torus grids.

All functions act on plain ndarrays whose *trailing* axes are the spatial
axes of the grid, so the same kernels serve spatial fields, space-time
stacks of shape (n_time, *space), and batched inputs. Vector fields carry
their component axis first: shape (d, ...).

Exactness properties relied on elsewhere (and asserted in the tests):

* ``divergence`` is the exact negative adjoint of ``gradient`` under the
  node-average inner product (the shared first-derivative symbol is odd
  in k, Nyquist zeroed);
* ``project_div_free`` reproduces divergence-free fields, kills gradients
  exactly, is idempotent and self-adjoint, and leaves the k = 0 (constant)
  component untouched;
* ``integrate`` of a resolved trigonometric polynomial is exact.

:func:`modewise` applies one k x k block per mode between real FFTs, and
:func:`modewise_solve` any solve that acts on each mode alone. The
operators above keep complex FFTs because the bit-for-bit oracle tests
below pin them. Real transforms done per axis (``rfft`` on the last axis,
``fft`` on the others) gain on most of the benchmark's stacks and lose on
the smallest; an earlier attempt measured no gain because it used
``rfftn``, which loses to its own argument handling at these sizes.

``_fft``/``_ifft_real`` run ``np.fft.fft``/``ifft`` over the trailing
axes, last axis first, which is the loop ``np.fft.fftn`` runs. The vector
operators transform their whole (d, ...) field in one call each way
against the grid's stacked symbols, and sum the components in axis order
after the inverse transform, so every bit equals one ``fftn``/``ifftn``
call per component. ``tests/test_spectral.py`` pins this with
``np.array_equal`` against per-component oracles on 1-D, 2-D and 3-D
grids, space-time stacks and Nyquist-carrying fields.

:func:`gradient_laplacians` returns grad u, lap u and lap m from one
forward transform of the (u, m) stack and one inverse transform of the
three results, with the symbol products of :func:`gradient` and
:func:`laplacian`, so its bits are those of the three calls.

:func:`random_band_limited_stack` draws a stack of the fields that
:func:`random_band_limited` draws one at a time, with the same bits: the
normals in one call, in the same order, and one inverse transform. Both
take any ``rng`` with a ``standard_normal(shape)`` method; the library's
own draws come from :class:`Sampler`, seeded by the standard library's
Mersenne Twister, so no command loads ``numpy.random``.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial

import numpy as np

from .errors import GridError
from .grids import SpaceTimeGrid, TorusGrid, read_only

__all__ = [
    "gradient",
    "gradient_laplacians",
    "divergence",
    "laplacian",
    "div_grad",
    "integrate",
    "mean",
    "project_div_free",
    "solve_poisson",
    "time_derivative_periodic",
    "integrate_space_time",
    "rfft_modes",
    "modewise",
    "modewise_solve",
    "Sampler",
    "random_band_limited",
    "random_band_limited_stack",
]


def _space_axes(grid: TorusGrid, arr: np.ndarray) -> tuple[int, ...]:
    d = grid.dim
    if arr.ndim < d or arr.shape[-d:] != grid.shape:
        raise GridError(
            f"field with trailing shape {arr.shape} does not live on grid {grid.shape}"
        )
    return tuple(range(arr.ndim - d, arr.ndim))


def _fft(grid: TorusGrid, arr: np.ndarray) -> np.ndarray:
    _space_axes(grid, arr)
    for axis in range(-1, -grid.dim - 1, -1):
        arr = np.fft.fft(arr, axis=axis)
    return arr


def _ifft_real(grid: TorusGrid, hat: np.ndarray) -> np.ndarray:
    for axis in range(-1, -grid.dim - 1, -1):
        hat = np.fft.ifft(hat, axis=axis)
    return hat.real


def _per_component(stack: np.ndarray, ndim: int) -> np.ndarray:
    """A (d, *shape) symbol stack shaped to act on a (d, ..., *shape) field
    of ``ndim`` axes."""
    return stack.reshape(stack.shape[:1] + (1,) * (ndim - stack.ndim) + stack.shape[1:])


def gradient(grid: TorusGrid, arr: np.ndarray) -> np.ndarray:
    """Spatial gradient; returns shape (d, *arr.shape)."""
    syms = _per_component(grid.grad_symbols, arr.ndim + 1)
    # A contiguous copy: downstream sums then reduce a plain array, and the
    # complex transform is freed.
    return np.ascontiguousarray(_ifft_real(grid, syms * _fft(grid, arr)))


def gradient_laplacians(grid: TorusGrid, um: np.ndarray):
    """(gradient(u), laplacian(u), laplacian(m)) of the stack um = (u, m),
    from one forward and one inverse transform."""
    d = grid.dim
    hat = _fft(grid, um)
    prod = np.empty((d + 2,) + hat.shape[1:], dtype=complex)
    prod[:d] = _per_component(grid.grad_symbols, um.ndim) * hat[0]
    np.multiply(grid.laplacian_symbol, hat, out=prod[d:])
    out = np.ascontiguousarray(_ifft_real(grid, prod))
    return out[:d], out[d], out[d + 1]


def divergence(grid: TorusGrid, vec: np.ndarray) -> np.ndarray:
    """Divergence of a vector field with leading component axis."""
    if vec.shape[0] != grid.dim:
        raise GridError(f"expected {grid.dim} components, got {vec.shape[0]}")
    syms = _per_component(grid.grad_symbols, vec.ndim)
    terms = _ifft_real(grid, syms * _fft(grid, vec))
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


def laplacian(grid: TorusGrid, arr: np.ndarray) -> np.ndarray:
    """Laplacian with the full symbol -4 pi^2 |k|^2 (Nyquist included)."""
    return _ifft_real(grid, grid.laplacian_symbol * _fft(grid, arr))


def div_grad(grid: TorusGrid, arr: np.ndarray) -> np.ndarray:
    """div(grad(arr)); equals ``laplacian`` except on Nyquist content."""
    return _ifft_real(grid, grid.divgrad_symbol * _fft(grid, arr))


def integrate(grid: TorusGrid, arr: np.ndarray) -> np.ndarray | float:
    """Integral over the unit torus: node average times unit volume."""
    axes = _space_axes(grid, arr)
    out = arr.mean(axis=axes)
    return float(out) if np.ndim(out) == 0 else out


def mean(grid: TorusGrid, arr: np.ndarray) -> np.ndarray | float:
    """Alias of :func:`integrate` (the torus has unit volume)."""
    return integrate(grid, arr)


def project_div_free(grid: TorusGrid, vec: np.ndarray) -> np.ndarray:
    """Project onto divergence-free fields (constants are kept).

    Per mode k the projector is I - s s^T / |s|^2 with s the (real
    vector of) first-derivative symbols divided by i. Modes where every
    symbol vanishes (k = 0 and pure-Nyquist lines) are passed through,
    hence project to themselves.
    """
    if vec.shape[0] != grid.dim:
        raise GridError(f"expected {grid.dim} components, got {vec.shape[0]}")
    syms = _per_component(grid.grad_symbols.imag, vec.ndim)  # real per-mode vectors
    s2 = -grid.divgrad_symbol
    hats = _fft(grid, vec)
    dot = syms[0] * hats[0]
    for s, h in zip(syms[1:], hats[1:]):
        dot = dot + s * h
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(s2 > 0.0, dot / np.where(s2 > 0.0, s2, 1.0), 0.0)
    return np.ascontiguousarray(_ifft_real(grid, hats - syms * scale))


def solve_poisson(grid: TorusGrid, rhs: np.ndarray) -> np.ndarray:
    """Solve div(grad(phi)) = rhs with zero-mean gauge.

    The k = 0 component of ``rhs`` is discarded (it must be ~0 for the
    problem to be solvable); pure-Nyquist content, which div_grad cannot
    produce, is discarded as well.
    """
    hat = _fft(grid, rhs)
    sym = grid.divgrad_symbol
    with np.errstate(invalid="ignore", divide="ignore"):
        phi_hat = np.where(sym != 0.0, hat / np.where(sym != 0.0, sym, 1.0), 0.0)
    return _ifft_real(grid, phi_hat)


def time_derivative_periodic(st: SpaceTimeGrid, arr: np.ndarray) -> np.ndarray:
    """Spectral d/dt along axis 0 of a periodic space-time field."""
    if arr.shape[0] != st.n_t:
        raise GridError(f"expected {st.n_t} time rows, got {arr.shape[0]}")
    hat = np.fft.fft(arr, axis=0)
    sym = st.time_derivative_symbol.reshape((-1,) + (1,) * (arr.ndim - 1))
    return np.fft.ifft(sym * hat, axis=0).real


def integrate_space_time(st: SpaceTimeGrid, arr: np.ndarray) -> float:
    """Integral over torus x time with trapezoid (or periodic) weights."""
    if arr.shape[0] != st.num_time_nodes:
        raise GridError(
            f"expected {st.num_time_nodes} time rows, got {arr.shape[0]}"
        )
    slice_means = arr.reshape(arr.shape[0], -1).mean(axis=1)
    return float(np.dot(st.time_weights, slice_means))


def rfft_modes(full: np.ndarray) -> np.ndarray:
    """The modes ``rfftn`` keeps of blocks (*modes, k, k) given on every mode."""
    return full[..., : full.shape[-3] // 2 + 1, :, :]


def modewise(blocks: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """irfftn(B rfftn(arr)) over the trailing axes, one k x k block B per mode.

    ``arr`` has shape (..., k, *shape), ``blocks`` (*half, k, k) on the
    :func:`rfft_modes` of ``shape``. Real blocks act on the real and
    imaginary parts in real arithmetic; complex blocks must satisfy
    B(-k) = conj(B(k)) to stand for a real operator.
    """
    return modewise_solve(partial(_block_product, blocks), arr, blocks.ndim - 2)


def modewise_solve(solve, arr: np.ndarray, ndim: int) -> np.ndarray:
    """irfftn(solve(rfftn(arr))) over the last ``ndim`` axes of ``arr``.

    ``solve`` maps the coefficients (..., *half) on the :func:`rfft_modes`
    of those axes to new ones of the same shape: a solve that acts on each
    mode alone, as :func:`modewise`'s blocks do, but need not store them.
    """
    axes = tuple(range(-ndim, 0))
    hat = np.fft.rfftn(arr, axes=axes)
    return np.fft.irfftn(solve(hat), s=arr.shape[arr.ndim - ndim :], axes=axes)


def _block_product(blocks: np.ndarray, hat: np.ndarray) -> np.ndarray:
    """:func:`modewise`'s product of its blocks with the coefficients hat
    (..., k, *half)."""
    ndim = blocks.ndim - 2
    if np.iscomplexobj(blocks):
        # Row i is B_i0 h_0 + B_i1 h_1 + ..., summed in j order as np.sum of
        # the (k, k) broadcast product would, without building that product.
        rows = np.moveaxis(blocks, (-2, -1), (0, 1))  # (k, k, *half)
        hats = np.moveaxis(hat, -ndim - 1, 0)  # (k, ..., *half)
        out = np.empty(hat.shape, dtype=complex)
        for b_i, out_i in zip(rows, np.moveaxis(out, -ndim - 1, 0)):
            out_i[...] = b_i[0] * hats[0]
            for b_ij, h_j in zip(b_i[1:], hats[1:]):
                out_i += b_ij * h_j
        return out
    hat = np.moveaxis(hat, -ndim - 1, -1)  # (..., *half, k)
    x = blocks @ np.stack([hat.real, hat.imag], axis=-1)
    return np.moveaxis(x[..., 0] + 1j * x[..., 1], -1, -ndim - 1)


@lru_cache(maxsize=16)
def _band_index(grid: TorusGrid, kmax: int) -> tuple[np.ndarray, ...]:
    """Index arrays of the modes with |k_i| <= min(kmax, n_i / 2 - 1)."""
    mesh = np.meshgrid(*grid.wavenumbers, indexing="ij")
    keep = np.ones(grid.shape, dtype=bool)
    for kk, nv in zip(mesh, grid.shape):
        keep &= np.abs(kk) <= min(kmax, nv // 2 - 1)
    return tuple(read_only(np.argwhere(keep).T))


class Sampler:
    """Seeded draws from the standard library's ``random.Random(seed)``.

    Each uniform is the top 53 bits of one little-endian 64-bit word of
    ``randbytes``, scaled into [0, 1); each normal is the cosine branch of
    Box-Muller on two consecutive uniforms. Every value thus consumes a fixed
    number of words, so one draw of n values equals draws of a and n - a
    values in turn. A seed draws the same uniforms on every platform; the
    normals are then as portable as numpy's ``log`` and ``cos``.
    """

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def _unit(self, count: int) -> np.ndarray:
        words = np.frombuffer(self._random.randbytes(8 * count), dtype="<u8")
        return (words >> np.uint64(11)) * 2.0**-53

    def standard_normal(self, shape) -> np.ndarray:
        """Standard normals of the given shape, drawn in C order."""
        u = self._unit(2 * int(np.prod(shape))).reshape(-1, 2)
        # 1 - u lies in (0, 1], so the logarithm is finite.
        radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))
        return (radius * np.cos(2.0 * np.pi * u[:, 1])).reshape(shape)

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        """``size`` uniforms in [low, high)."""
        return low + (high - low) * self._unit(size)


def random_band_limited(
    grid: TorusGrid,
    rng,
    kmax: int = 3,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Smooth random real mean-zero field built from modes with |k_i| <= kmax,
    from the normals of ``rng.standard_normal`` (a :class:`Sampler` or any
    object with that method)."""
    return random_band_limited_stack(grid, rng, (), kmax, amplitude)


def random_band_limited_stack(
    grid: TorusGrid,
    rng,
    lead: tuple[int, ...],
    kmax: int = 3,
    amplitude=1.0,
) -> np.ndarray:
    """Fields of shape lead + grid.shape, each the :func:`random_band_limited`
    field that calls in the C order of ``lead`` would draw; ``amplitude``
    broadcasts against ``lead``."""
    idx = _band_index(grid, kmax)
    normals = rng.standard_normal(tuple(lead) + (2, len(idx[0])))
    hat = np.zeros(tuple(lead) + grid.shape, dtype=complex)
    hat[(...,) + idx] = normals[..., 0, :] + 1j * normals[..., 1, :]
    fields = np.fft.ifftn(hat, axes=tuple(range(-grid.dim, 0))).real
    amplitude = np.broadcast_to(amplitude, lead)
    for index in np.ndindex(*lead):
        field = fields[index]
        field -= field.mean()
        scale = np.max(np.abs(field))
        if scale > 0:
            field *= amplitude[index] / scale
    return fields
