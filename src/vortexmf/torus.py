"""Spectral calculus on the flat torus [0, L)^2.

Fields live on a uniform n x n grid (n a power of two) and all derivatives
are computed in the discrete Fourier basis, where -Laplacian is diagonal
with eigenvalues (2 pi / L)^2 (k^2 + m^2).  Quadrature is the uniform grid
sum, which is spectrally accurate for the band-limited fields produced
here.

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
(``SpectralTorus.quarter_weights``).  The solver's state stays at those
nodes; the grid holds only a cold start's noise, made even by
:func:`project_even` (the mean of its four reflections), a warm start's
mean and the output side, which :func:`unfold` serves through
``SpectralTorus.fold``, even bit for bit by construction.

An even field's spectrum is real and even, so it is fixed by its
(n/2 + 1)^2 cosine modes 0 <= k, m <= n/2, the DCT-I of the quarter cell:
X = C x C^T for quarter-cell values x, and back x = C X C^T / n^2, with
C = ``SpectralTorus.cosines`` (:func:`cosine_transform`,
:func:`inverse_cosine_transform`).  The way back is (C / n^2) X C^T, with
C / n^2 cached per grid (``SpectralTorus.scaled_cosines``): n^2 is a
power of two, so the scaling is exact and the products give the
quotient's bits with no division pass.  This is the one calculus here: the
symbols are built on the cosine modes, :func:`laplacian`,
:func:`solve_poisson_zero_mean`, :func:`gradient_inner` and
:func:`dirichlet_energy` take cosine modes, and :func:`integrate` takes
quarter-cell values.  On one OpenBLAS thread of a 2-core Xeon a transform
and its inverse take 11-13 us against 60 us for numpy's pair of real 2-d
FFTs at 64^2 and 2.6-3.1 ms against 4.6-4.9 ms at 512^2; at 2048^2 they
take 124 ms against 104-122 ms, where the products' O(n^3) cost has met
the FFT's.  Their last bits depend on the BLAS library and its thread
count.
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

    @cached_property
    def volume(self) -> float:
        return self.side_length * self.side_length

    @cached_property
    def cell_area(self) -> float:
        return (self.side_length / self.grid_n) ** 2

    @property
    def spacing(self) -> float:
        return self.side_length / self.grid_n

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of -Laplacian at the cosine modes 0 <= k, m <= n/2,
        flat like the quarter cell; (0,0) is exactly 0."""
        k = (2.0 * math.pi / self.side_length) * np.arange(self.grid_n // 2 + 1)
        return (k[:, None] ** 2 + k[None, :] ** 2).ravel()

    @cached_property
    def inverse_eigenvalues(self) -> np.ndarray:
        """1/eigenvalues with the (0,0) mode mapped to 0."""
        eig = self.eigenvalues
        inv = np.zeros_like(eig)
        nonzero = eig > 0.0
        inv[nonzero] = 1.0 / eig[nonzero]
        return inv

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

    @cached_property
    def inverse_quarter_weights(self) -> np.ndarray:
        """1 / quarter_weights: 1, 1/2 or 1/4, exact, so a product with them
        is the quotient by the weights bit for bit."""
        return 1.0 / self.quarter_weights

    @cached_property
    def cosines(self) -> np.ndarray:
        """C[j, k] = cos(2 pi ((j k) mod n) / n) w_k for 0 <= j, k <= n/2,
        w = 1, 2, ..., 2, 1.  The angle is reduced in integers: the unreduced
        cos(2 pi j k / n) is off by 3e-14 relative at 512^2."""
        idx = np.arange(self.grid_n // 2 + 1)
        C = np.cos((2.0 * math.pi / self.grid_n) * (np.outer(idx, idx) % self.grid_n))
        C[:, 1:-1] *= 2.0
        return C

    @cached_property
    def scaled_cosines(self) -> np.ndarray:
        """C / n^2, the left factor of :func:`inverse_cosine_transform`.  n^2
        is a power of two, so the scaling is exact: every product and sum
        of (C / n^2) X C^T is that of C X C^T scaled by 2^-k, and rounds to
        the same bits, scaled, away from the subnormal range."""
        return self.cosines / self.grid_n**2

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """The symbol of int grad f . grad g over the cosine modes of even f
        and g: eig w_k w_m |Omega| / n^4."""
        return self.eigenvalues * self.quarter_weights * (self.volume / self.grid_n**4)


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


def _check(T: SpectralTorus, f: Field) -> np.ndarray:
    if f.values.shape != (T.grid_n, T.grid_n):
        raise ValueError(f"field shape {f.values.shape} does not match grid {T.grid_n}")
    return f.values


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


def quarter(T: SpectralTorus, values: np.ndarray) -> np.ndarray:
    """The grid values at the quarter-cell nodes, flat and contiguous."""
    h = T.grid_n // 2 + 1
    return values[:h, :h].ravel()


def unfold(T: SpectralTorus, nodes: np.ndarray) -> np.ndarray:
    """The even n x n grid values whose quarter-cell values are ``nodes``;
    values of another grid raise ValueError."""
    if nodes.shape != T.quarter_weights.shape:
        raise ValueError(f"quarter-cell values of shape {nodes.shape} do not match grid {T.grid_n}")
    return nodes[T.fold]


def cosine_transform(T: SpectralTorus, x: np.ndarray) -> np.ndarray:
    """The cosine modes X = C x C^T of the even field with quarter-cell
    values x, flat like x: the field's discrete Fourier transform at the
    modes 0 <= k, m <= n/2, which is real, to rounding."""
    h = T.grid_n // 2 + 1
    C = T.cosines
    return (C @ x.reshape(h, h) @ C.T).ravel()


def inverse_cosine_transform(T: SpectralTorus, X: np.ndarray) -> np.ndarray:
    """The quarter-cell values x = C X C^T / n^2 of the even field with
    cosine modes X, as (C / n^2) X C^T: two matrix products and no division
    pass, bit for bit the quotient (``SpectralTorus.scaled_cosines``)."""
    h = T.grid_n // 2 + 1
    return (T.scaled_cosines @ X.reshape(h, h) @ T.cosines.T).ravel()


def prolong(coarse: SpectralTorus, fine: SpectralTorus, x: np.ndarray) -> np.ndarray:
    """The quarter-cell values on ``fine``, a grid of twice the points per
    side of ``coarse``, of the even field with quarter-cell values x on
    ``coarse``: its cosine modes, times 4, zero-padded to the fine modes.

    The coarse Nyquist line, the modes with k or m = n/2, is dropped: on
    the coarse grid cos(pi j) cannot tell cos(2 pi (n/2) x) from its
    aliases, and on the fine grid it is not a Nyquist mode.  So a field of
    the modes below n/2 is sampled on the fine grid as the same
    trigonometric polynomial, and a field of the Nyquist line alone
    prolongs to 0."""
    if fine.grid_n != 2 * coarse.grid_n or fine.side_length != coarse.side_length:
        raise ValueError("prolong needs a grid of twice the points per side on the same torus")
    h = coarse.grid_n // 2
    X = np.zeros((fine.grid_n // 2 + 1,) * 2)
    # the fine transform divides by (2n)^2, the coarse one by n^2
    X[:h, :h] = 4.0 * cosine_transform(coarse, x).reshape(h + 1, h + 1)[:h, :h]
    return inverse_cosine_transform(fine, X.ravel())


def integrate(T: SpectralTorus, x: np.ndarray) -> float:
    """Domain integral of the even field with quarter-cell values x by the
    uniform grid rule (L/n)^2 sum, summed over the quarter cell."""
    return T.cell_area * float(T.quarter_weights @ x)


def laplacian(T: SpectralTorus, F: np.ndarray) -> np.ndarray:
    """The cosine modes of the Laplacian of the even field with cosine
    modes F; the constant mode maps to 0."""
    return F * -T.eigenvalues


def solve_poisson_zero_mean(T: SpectralTorus, F: np.ndarray) -> np.ndarray:
    """The cosine modes of u with -Laplacian u = f - mean(f) and int u = 0,
    for the even f with cosine modes F.

    The (0,0) mode of both sides is dropped, so the mean of the right-hand
    side (the solvability condition) needs no check.
    """
    return F * T.inverse_eigenvalues


@np.errstate(over="ignore", invalid="ignore")
def gradient_inner(T: SpectralTorus, F: np.ndarray, G: np.ndarray) -> float:
    """int grad f . grad g by Parseval, from the cosine modes F of the even
    field f and G of g.  A sum past the largest float is inf or nan with no
    warning; the caller checks it.  The error state is set by decorating,
    which costs half what a ``with`` block built per call does."""
    return float(F @ (G * T.parseval_weights))


def dirichlet_energy(T: SpectralTorus, F: np.ndarray) -> float:
    """(1/2) int |grad f|^2 of the even field f with cosine modes F."""
    return 0.5 * gradient_inner(T, F, F)


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
