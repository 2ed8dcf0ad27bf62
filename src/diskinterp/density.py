"""Density functionals of a point sequence in the disk.

Implements the crowding weight k_Z, its exact circle average k_hat, the
density quotient D(Z, r), grid estimates of the two upper uniform
densities, and local q-means over pseudohyperbolic disks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGrid, GridTooCoarse
from .geometry import PseudoDisk, as_complex, psi_array, pseudo_to_euclidean
from .grids import midpoint_radii, ring_angles
from .reps import rep_as_callable
from . import schemes
from .schemes import PointSequence


def k_weight(Z: PointSequence, zeta) -> float:
    """Crowding weight (|zeta|^2 / 2) * sum (1-|z_k|^2)^2 / |1 - conj(z_k) zeta|^2."""
    z = as_complex(zeta)
    if len(Z) == 0:
        return 0.0
    a = Z.array
    terms = (1.0 - np.abs(a) ** 2) ** 2 / np.abs(1.0 - np.conj(a) * z) ** 2
    return float(0.5 * abs(z) ** 2 * terms.sum())


# (point, node) pairs per block of k_weight_many.  A block's real product
# holds 2 K_WEIGHT_BLOCK doubles: 256 KB at 2^14, which stays in a 2 MB L2
# cache with the block's other temporaries.  Measured over 2^12..2^16 at 5,
# 50 and 500 points, 2^14 was fastest; 2^16 (a 1 MB product) took 1.3-1.7x
# as long at 50 and 500 points, and 2^12 lost to the per-block overhead
K_WEIGHT_BLOCK = 2 ** 14


def k_weight_many(Z: PointSequence, zetas: np.ndarray) -> np.ndarray:
    """Vectorized k_weight over an array of evaluation points.

    Re(1 - conj(z_k) zeta) and Im(conj(z_k) zeta) come from one real matrix
    product on the columns (1, Re zeta, Im zeta), in blocks of at most
    K_WEIGHT_BLOCK pairs, and |1 - conj(z_k) zeta|^2 is the sum of their
    squares.  The expanded form 1 - 2 Re(conj(z_k) zeta) + |z_k|^2 |zeta|^2
    would cancel near the rim.
    """
    zetas = np.asarray(zetas, dtype=complex)
    if len(Z) == 0:
        return np.zeros(zetas.shape)
    a = Z.array
    n = len(a)
    mass = (1.0 - np.abs(a) ** 2) ** 2
    re, im = a.real[:, None], a.imag[:, None]
    rot = np.block([[np.ones((n, 1)), -re, -im], [np.zeros((n, 1)), -im, re]])
    flat = zetas.reshape(-1)
    step = max(1, K_WEIGHT_BLOCK // n)
    cols = np.ones((3, min(step, len(flat))))
    sums = np.empty(len(flat))
    for s in range(0, len(flat), step):
        block = flat[s : s + step]
        col = cols[:, : len(block)]
        col[1], col[2] = block.real, block.imag
        prod = rot @ col
        np.square(prod, out=prod)
        d = prod[:n]
        d += prod[n:]
        sums[s : s + step] = mass @ np.reciprocal(d, out=d)
    return 0.5 * np.abs(zetas) ** 2 * sums.reshape(zetas.shape)


def k_hat(Z: PointSequence, r: float) -> float:
    """Average of k_weight over the circle |zeta| = r, in closed form:
    (r^2 / 2) * sum (1-|z_k|^2)^2 / (1 - |z_k|^2 r^2)."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must be in (0,1), got {r}")
    if len(Z) == 0:
        return 0.0
    m = np.abs(Z.array) ** 2
    return float(0.5 * r * r * ((1.0 - m) ** 2 / (1.0 - m * r * r)).sum())


def density_quotient(Z: PointSequence, r: float) -> float:
    """D(Z, r) = (1/2) sum_{|z_k| < r} (1 - |z_k|^2) / log(1/(1-r^2)).

    The sum counts multiplicity; the inequality |z_k| < r is strict.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must be in (0,1), got {r}")
    a = np.abs(Z.array) if len(Z) else np.array([])
    num = 0.5 * (1.0 - a[a < r] ** 2).sum()
    return float(num / math.log(1.0 / (1.0 - r * r)))


@dataclass(frozen=True)
class DensityReport:
    radii: tuple[float, ...]
    mobius_centers: tuple[complex, ...]
    # row (i, j): value for radii[i], mobius_centers[j]
    d_values: np.ndarray
    s_values: np.ndarray
    d_plus_estimate: float
    s_plus_estimate: float

    def rows(self):
        for i, r in enumerate(self.radii):
            for j, a in enumerate(self.mobius_centers):
                yield r, a, float(self.d_values[i, j]), float(self.s_values[i, j])


def estimate_upper_densities(
    Z: PointSequence, radii, centers
) -> DensityReport:
    """Tabulate D and k_hat/log over a (radius, Moebius center) grid.

    The two upper-density estimates are the maxima over centers at the
    largest radius.  This approximates a limsup of a sup; no convergence
    rate is claimed and the grids are recorded in the report.  The Moebius
    images of Z about all centers form one centres x points matrix, taken
    in row blocks of at most schemes.PAIR_BLOCK entries (one row may exceed
    it), and each radius row of the table comes from masked row sums of the
    sums in density_quotient and k_hat.
    """
    radii = [float(r) for r in radii]
    centers = [as_complex(a) for a in centers]
    if not radii or not centers:
        raise EmptyGrid("radii and centers must be nonempty")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])) or not all(
        0.0 < r < 1.0 for r in radii
    ):
        raise ValueError("radii must be strictly increasing in (0,1)")
    z = Z.array[None, :]
    a = np.array(centers)[:, None]
    d = np.empty((len(radii), len(centers)))
    s = np.empty_like(d)
    rows = max(1, schemes.PAIR_BLOCK // max(1, len(Z)))
    for lo in range(0, len(centers), rows):
        ab = a[lo:lo + rows]
        w = psi_array(z, ab)
        m = w ** 2
        for i, r in enumerate(radii):
            log = math.log(1.0 / (1.0 - r * r))
            d[i, lo:lo + rows] = 0.5 * np.where(w < r, 1.0 - m, 0.0).sum(axis=1) / log
            s[i, lo:lo + rows] = 0.5 * r * r * ((1.0 - m) ** 2 / (1.0 - m * r * r)).sum(axis=1) / log
    return DensityReport(
        radii=tuple(radii),
        mobius_centers=tuple(centers),
        d_values=d,
        s_values=s,
        d_plus_estimate=float(d[-1].max()),
        s_plus_estimate=float(s[-1].max()),
    )


def default_density_report(Z: PointSequence, radii=(0.9, 0.95, 0.99)) -> DensityReport:
    """Report with the default grids: Moebius centers = 0 and the distinct
    points of Z, in order of first appearance."""
    candidates = np.concatenate([[0j], Z.array])
    _, first = np.unique(candidates, return_index=True)
    return estimate_upper_densities(Z, radii, candidates[np.sort(first)])


def local_mean(f, z, q, r: float, grid: tuple[int, int] = (64, 64)) -> float:
    """q-mean of |f| over the pseudohyperbolic disk D(z, r).

    For finite q >= 1 this is (|D|^{-1} int_D |f|^q dA)^{1/q} by a midpoint
    polar rule on the Euclidean image disk; q = inf returns the grid
    supremum.  When f is a grid function with fewer than 16 nodes inside
    the disk, GridTooCoarse is raised.
    """
    disk = pseudo_to_euclidean(PseudoDisk(as_complex(z), float(r)))
    if hasattr(f, "nodes_in_euclidean_disk"):
        if f.nodes_in_euclidean_disk(disk.center, disk.radius) < 16:
            raise GridTooCoarse("fewer than 16 grid nodes in the local-mean disk")
    return float(local_means(rep_as_callable(f), [disk.center], [disk.radius], q, grid)[0])


def local_means(fun, centers, radii, q, grid: tuple[int, int]) -> np.ndarray:
    """q-means of |fun| over the Euclidean disks with the given centre and
    radius arrays by local_mean's midpoint polar rule, with one call of fun
    on the nodes of all disks."""
    if not (q == np.inf or q == "inf" or float(q) >= 1.0):
        raise ValueError(f"q must be >= 1 or inf, got {q}")
    n_r, n_t = grid
    center = np.asarray(centers, dtype=complex)[:, None, None]
    radius = np.asarray(radii, dtype=float)
    rr = midpoint_radii(radius, n_r)
    tt = ring_angles(n_t)
    w = center + rr[:, :, None] * np.exp(1j * tt)[None, None, :]
    vals = np.asarray(fun(w))
    # a real integrand is taken as real: no complex copy of every node's value
    vals = np.abs(vals.astype(complex if np.iscomplexobj(vals) else float, copy=False))
    if q == np.inf or q == "inf":
        return vals.max(axis=(1, 2))
    q = float(q)
    dr = radius / n_r
    dt = 2.0 * np.pi / n_t
    integral = ((vals ** q) * rr[:, :, None]).sum(axis=(1, 2)) * dr * dt
    return (integral / (np.pi * radius ** 2)) ** (1.0 / q)
