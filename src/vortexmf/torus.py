"""Spectral calculus on the flat torus [0, L)^2.

Fields live on a uniform n x n grid (n a power of two) and all derivatives
are computed in the discrete Fourier basis, where -Laplacian is diagonal
with eigenvalues (2 pi / L)^2 (j^2 + m^2).  Quadrature is the uniform grid
sum, which is spectrally accurate for the band-limited fields produced
here.

A real field is transformed by :func:`rfft2` to its half spectrum, an
n x (n/2 + 1) array holding the columns m = 0 .. n/2; the other columns
are the complex conjugates of these, so :func:`irfft2` gives the field
back.  This pair is every real transform of the package: each makes the
two axis-wise calls that numpy's ``rfft2``/``irfft2`` make, so it gives
the same bits, and skips the n-d wrapper around them, whose Python
overhead is a visible share of a transform on the small grids.  Every cached
symbol is a half-spectrum array.  Parseval's sum over the full spectrum
becomes a sum over the half with weight 2 on the interior columns
0 < m < n/2, each of which stands for itself and its mirror, and weight 1
on columns 0 and n/2, which are their own mirrors.

The constant Fourier mode carries no energy: -Laplacian maps it to 0 and
the Poisson solve drops it, so a field and its shift by a constant are the
same state.  Zero mean is a normalisation (:func:`project_zero_mean`), not
a property a field must certify.

The solver works on even fields: f(-x, y) = f(x, -y) = f(x, y) about node
(0, 0), so node (i, j) carries the value of node (n - i, j) and of
(i, n - j).  Such a field is fixed by its values at the (n/2 + 1)^2
quarter-cell nodes 0 <= i, j <= n/2 (:func:`quarter`), and a grid sum of
any pointwise function of it is a sum over those nodes with weights 1 at
the four corners (i and j each 0 or n/2), 2 on the edges and 4 inside
(``SpectralTorus.quarter_weights``).  ``SpectralTorus.fold`` maps every
node to its quarter-cell node, so :func:`unfold` gathers quarter-cell
values back to the grid, even bit for bit by construction.
:func:`project_even` is the mean of a field's four reflections, and
:func:`check_even` rejects a field that is not even bit for bit.  Fields
stay n x n, and the transforms stay the full-grid pair above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SpectralTorus:
    """Geometry and cached Fourier symbols for one grid resolution."""

    side_length: float
    grid_n: int

    def __post_init__(self) -> None:
        if not 0.0 < self.side_length < math.inf:
            raise ValueError("side_length must be positive and finite")
        n = self.grid_n
        if n < 16 or n & (n - 1) != 0:
            raise ValueError("grid_n must be a power of two >= 16")

    @property
    def volume(self) -> float:
        return self.side_length * self.side_length

    @property
    def cell_area(self) -> float:
        return (self.side_length / self.grid_n) ** 2

    @property
    def spacing(self) -> float:
        return self.side_length / self.grid_n

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of -Laplacian per mode of the half spectrum; (0,0) is
        exactly 0."""
        n = self.grid_n
        scale = 2.0 * math.pi / self.side_length
        kx = scale * np.fft.fftfreq(n, d=1.0 / n)
        ky = scale * np.fft.rfftfreq(n, d=1.0 / n)
        return kx[:, None] ** 2 + ky[None, :] ** 2

    @cached_property
    def inverse_eigenvalues(self) -> np.ndarray:
        """1/eigenvalues with the (0,0) mode mapped to 0."""
        eig = self.eigenvalues
        inv = np.zeros_like(eig)
        nonzero = eig > 0.0
        inv[nonzero] = 1.0 / eig[nonzero]
        return inv

    @cached_property
    def gradient_weights(self) -> np.ndarray:
        """The symbol of int grad f . grad g over the half spectrum: the
        eigenvalues times the Parseval weight (2 on the interior columns, 1
        on columns 0 and n/2) times |Omega| / n^4."""
        weights = self.eigenvalues * (2.0 * self.volume / self.grid_n**4)
        weights[:, 0] *= 0.5
        weights[:, -1] *= 0.5
        return weights

    @cached_property
    def reflection(self) -> np.ndarray:
        """The index of the mirror image of each grid line, i -> (n - i) mod n."""
        return -np.arange(self.grid_n) % self.grid_n

    @cached_property
    def fold(self) -> np.ndarray:
        """Per grid node (i, j), the flat index of its quarter-cell node
        (min(i, n - i), min(j, n - j)) in the row-major order of
        :func:`quarter`."""
        n = self.grid_n
        idx = np.arange(n)
        half = np.minimum(idx, n - idx)
        return half[:, None] * (n // 2 + 1) + half[None, :]

    @cached_property
    def quarter_weights(self) -> np.ndarray:
        """Per quarter-cell node, the number of grid nodes it stands for: 1,
        2 or 4.  Powers of two, so a product or a quotient with them is
        exact."""
        w = np.full(self.grid_n // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return np.outer(w, w).ravel()


@dataclass(frozen=True)
class Field:
    """Grid values of a scalar field on a square grid; a value type, never
    mutated in place (the values are read-only)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"field values must be square 2-d, got {vals.shape}")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)


def rfft2(x: np.ndarray) -> np.ndarray:
    """The half spectrum of the real n x n array x, bit for bit
    ``np.fft.rfft2(x)``: the same two axis-wise calls, rfft along axis 1 and
    then fft along axis 0, without numpy's n-d wrapper around them."""
    return np.fft.fft(np.fft.rfft(x, axis=1), axis=0)


def irfft2(X: np.ndarray, n: int) -> np.ndarray:
    """The real n x n field with half spectrum X, bit for bit
    ``np.fft.irfft2(X, s=(n, n))``: ifft along axis 0 and then irfft along
    axis 1."""
    return np.fft.irfft(np.fft.ifft(X, axis=0), n, axis=1)


def _check(T: SpectralTorus, f: Field) -> np.ndarray:
    if f.values.shape != (T.grid_n, T.grid_n):
        raise ValueError(f"field shape {f.values.shape} does not match grid {T.grid_n}")
    return f.values


def integrate(T: SpectralTorus, f: Field) -> float:
    """Domain integral by the uniform grid rule (L/n)^2 sum."""
    return T.cell_area * float(_check(T, f).sum())


def project_zero_mean(T: SpectralTorus, f: Field) -> Field:
    """Subtract the grid mean."""
    vals = _check(T, f)
    return Field(vals - vals.mean())


def project_even(T: SpectralTorus, f: Field) -> Field:
    """The mean of f's four reflections about node (0, 0), the even part
    of f.  The pairs are summed so that every reflection of the result is
    the same sum in the same order, so it is even bit for bit; an even f
    comes back unchanged."""
    vals = _check(T, f)
    r = T.reflection
    even = vals + vals[r]
    even += even[:, r]
    even *= 0.25
    return Field(even)


def check_even(T: SpectralTorus, f: Field) -> None:
    """Raise ValueError unless f equals its reflections bit for bit: line
    i equals line n - i for 0 < i < n, in each direction."""
    vals = _check(T, f)
    if not (np.array_equal(vals[1:], vals[:0:-1]) and np.array_equal(vals[:, 1:], vals[:, :0:-1])):
        raise ValueError("field is not even about node (0, 0) in x and in y")


def quarter(T: SpectralTorus, values: np.ndarray) -> np.ndarray:
    """The grid values at the quarter-cell nodes, flat and contiguous."""
    h = T.grid_n // 2 + 1
    return values[:h, :h].ravel()


def unfold(T: SpectralTorus, nodes: np.ndarray) -> np.ndarray:
    """The even n x n grid values whose quarter-cell values are ``nodes``."""
    return nodes[T.fold]


def laplacian(T: SpectralTorus, f: Field) -> Field:
    """Spectral Laplacian; the constant mode maps to 0."""
    F = rfft2(_check(T, f))
    F *= -T.eigenvalues
    return Field(irfft2(F, T.grid_n))


def solve_poisson_zero_mean(T: SpectralTorus, rhs: Field) -> Field:
    """Solve -Laplacian u = rhs - mean(rhs) with int u = 0.

    The (0,0) mode of both sides is dropped, so the mean of the right-hand
    side (the solvability condition) needs no check.
    """
    F = rfft2(_check(T, rhs))
    F *= T.inverse_eigenvalues
    return Field(irfft2(F, T.grid_n))


def _spectral_inner(T: SpectralTorus, F: np.ndarray, G: np.ndarray) -> float:
    """int grad f . grad g by Parseval, from the half spectra F of f and G of g."""
    cross = F.real * G.real
    cross += F.imag * G.imag
    cross *= T.gradient_weights
    return float(cross.sum())


def dirichlet_energy(T: SpectralTorus, f: Field) -> float:
    """(1/2) int |grad f|^2 by Parseval on the spectral gradient."""
    F = rfft2(_check(T, f))
    return 0.5 * _spectral_inner(T, F, F)


def gradient_inner(T: SpectralTorus, f: Field, g: Field) -> float:
    """int grad f . grad g, the bilinear form under dirichlet_energy."""
    return _spectral_inner(T, rfft2(_check(T, f)), rfft2(_check(T, g)))


def periodic_distance(T: SpectralTorus, center: tuple[int, int]) -> np.ndarray:
    """Minimum-image distance of every grid point to a grid center."""
    n = T.grid_n
    ci, cj = center
    if not (0 <= ci < n and 0 <= cj < n):
        raise ValueError(f"center {center} outside grid")
    idx = np.arange(n)
    di = ((idx - ci + n // 2) % n - n // 2) * T.spacing
    dj = ((idx - cj + n // 2) % n - n // 2) * T.spacing
    dx, dy = np.meshgrid(di, dj, indexing="ij")
    return np.hypot(dx, dy)


def radial_average(
    T: SpectralTorus,
    f: Field,
    center: tuple[int, int],
    n_bins: int,
) -> list[tuple[float, float, int]]:
    """Bin f by periodic distance to center, up to L/2.

    Returns (mean radius, mean value, count) per nonempty bin, ordered by
    radius.  Bin radii are sample means, not bin midpoints, so a radial
    function is reproduced up to in-bin variation only.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    vals = _check(T, f)
    r = periodic_distance(T, center)
    r_max = T.side_length / 2.0
    keep = r <= r_max
    rk = r[keep]
    vk = vals[keep]
    edges = np.linspace(0.0, r_max, n_bins + 1)
    which = np.clip(np.digitize(rk, edges) - 1, 0, n_bins - 1)
    counts = np.bincount(which, minlength=n_bins)
    r_sums = np.bincount(which, weights=rk, minlength=n_bins)
    v_sums = np.bincount(which, weights=vk, minlength=n_bins)
    out = []
    for b in range(n_bins):
        if counts[b] == 0:
            continue
        out.append((float(r_sums[b] / counts[b]), float(v_sums[b] / counts[b]), int(counts[b])))
    return out
