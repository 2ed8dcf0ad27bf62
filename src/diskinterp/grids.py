"""Polar grids and quadrature rules on disks.

A GridFunction stores complex samples on a midpoint polar grid of radius
max_radius < 1: radii r_i = (i + 1/2) dr, angles t_j = j dt.  Cell areas
r_i dr dt make the node set a midpoint quadrature of the disk.
`ring_blocks` walks a grid in blocks of whole rings, so that work which
writes or reduces every node holds one block of temporaries, not a grid.
`disk_rule` is the Gauss-Legendre x uniform-angle rule for dA on a
Euclidean disk; `gauss_jacobi` and `gauss_laguerre` are the Gauss rules
for the weights (1 - x)^alpha on [-1, 1] and y^alpha e^-y on [0, inf).
Every rule raises ValueError for a node count below 1, and the Gauss
rules for an alpha outside (-1, inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridTooLarge


def _check_count(*counts):
    """Raise ValueError unless every quadrature node count is at least 1."""
    for n in counts:
        if n < 1:
            raise ValueError(f"quadrature node counts must be at least 1, got {n}")


def _check_alpha(alpha):
    """Raise ValueError unless -1 < alpha < inf, where the weight's total
    mass is finite; nan fails the comparison too."""
    if not -1.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > -1, got {alpha}")


def ring_angles(n_angular: int) -> np.ndarray:
    """The n_angular equally spaced angles 2 pi j / n_angular of a ring."""
    _check_count(n_angular)
    return 2.0 * np.pi * np.arange(n_angular) / n_angular


def midpoint_radii(radius, n_radial: int) -> np.ndarray:
    """Midpoints (i + 1/2) radius / n_radial of n_radial equal radial cells;
    an array of radii gives one row per radius."""
    _check_count(n_radial)
    return np.multiply.outer(radius, np.arange(n_radial) + 0.5) / n_radial


@lru_cache(maxsize=8)
def _leggauss(n):
    """numpy's Gauss-Legendre rule on [-1, 1], read-only.  numpy computes it
    afresh on every call (about 1.5 ms at n = 64 on a 2-core x86 machine),
    longer than a disk's whole p = 2 quotient norm."""
    x, wx = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = wx.flags.writeable = False
    return x, wx


def _golub_welsch(diag, off, mu0):
    """Gauss rule of the Jacobi matrix with the given diagonal and
    off-diagonal (Golub and Welsch, Math. Comp. 23, 1969): its eigenvalues
    are the nodes, and mu0 (the weight's total mass) times the squared
    first components of its unit eigenvectors are the weights."""
    x, V = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = mu0 * V[0] ** 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=8)
def gauss_jacobi(n: int, alpha: float):
    """n-node Gauss rule for the weight (1 - x)^alpha on [-1, 1], alpha > -1,
    read-only, from the recurrence of the Jacobi polynomials P^(alpha, 0)."""
    _check_count(n)
    _check_alpha(alpha)
    k = np.arange(n, dtype=float)
    s = 2.0 * k + alpha
    diag = -alpha * alpha / np.where(k > 0, s * (s + 2.0), 1.0)
    diag[0] = -alpha / (alpha + 2.0)
    k, s = k[1:], s[1:]
    off = 2.0 * k * (k + alpha) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    return _golub_welsch(diag, off, 2.0 ** (alpha + 1.0) / (alpha + 1.0))


@lru_cache(maxsize=8)
def gauss_laguerre(n: int, alpha: float):
    """n-node Gauss rule for the weight y^alpha e^-y on [0, inf), alpha > -1,
    read-only, from the recurrence of the Laguerre polynomials L^(alpha)."""
    _check_count(n)
    _check_alpha(alpha)
    k = np.arange(n, dtype=float)
    return _golub_welsch(2.0 * k + alpha + 1.0, np.sqrt(k[1:] * (k[1:] + alpha)),
                         math.gamma(alpha + 1.0))


def disk_rule(radius: float, n_radial: int, n_angular: int):
    """Rule for dA on the Euclidean disk of the given radius about 0: the
    radii of its n_radial Gauss-Legendre rings, and the weight of each of
    the n_angular equally spaced nodes on each ring.  It integrates
    |polynomial|^2 exactly for degrees below the node counts; dividing the
    weights by (1 - r^2)^2 gives the rule for the invariant measure."""
    _check_count(n_radial, n_angular)
    x, wx = _leggauss(n_radial)
    r = 0.5 * (x + 1.0) * radius
    return r, 0.5 * radius * wx * r * (2.0 * np.pi / n_angular)


# nodes per block of ring_blocks: a complex block of 2^13 nodes is 128 KiB.
# Measured over 2^11..2^16 on grids from 64 x 128 to 800 x 800 (2-core Xeon,
# 4 MiB L2, one BLAS thread): GridFunction.sample was within 12 % of its
# best from 2^13 to 2^15 on each grid, and dbar_residual at 400 x 400 took
# 2.9 ms at 2^13, 2.4-2.6 ms at 2^14..2^16 and 3.3 ms at 2^12.  At 2^14,
# sampling z (1 - |z|^2) on 400 x 400 peaks at 1.31 grid arrays, against
# 1.18 at 2^13
GRID_BLOCK = 2 ** 13
# largest node count n_radial x n_angular of a PolarGridSpec, checked where
# the grid is made, before any grid is sampled.  dbar-check holds up to four
# complex grids (g, cauchy_transform's spectra and result, f) beside
# cauchy_transform's n_r x n_r arrays, at most 1.6 GiB (CAUCHY_MAX_RINGS).
# Four grids of 2^25 nodes are 2 GiB, so the whole stays under half of an
# 8 GB machine
GRID_MAX_NODES = 2 ** 25


@dataclass(frozen=True)
class PolarGridSpec:
    n_radial: int
    n_angular: int
    max_radius: float = 0.995

    def __post_init__(self):
        if self.n_radial < 16 or self.n_angular < 16:
            raise ValueError("grid must be at least 16 x 16")
        if self.n_radial * self.n_angular > GRID_MAX_NODES:
            raise GridTooLarge(
                f"a {self.n_radial} x {self.n_angular} grid has "
                f"{self.n_radial * self.n_angular} nodes, "
                f"{16 * self.n_radial * self.n_angular / 2 ** 30:.1f} GiB per complex grid; "
                f"at most {GRID_MAX_NODES} nodes are allowed"
            )
        if not 0.0 < self.max_radius <= 0.999:
            raise ValueError("max_radius must be in (0, 0.999]")

    @property
    def radii(self) -> np.ndarray:
        dr = self.max_radius / self.n_radial
        return (np.arange(self.n_radial) + 0.5) * dr

    @property
    def angles(self) -> np.ndarray:
        return ring_angles(self.n_angular)

    @property
    def nodes(self) -> np.ndarray:
        """Complex nodes, shape (n_radial, n_angular)."""
        return self.radii[:, None] * np.exp(1j * self.angles[None, :])

    @property
    def cell_areas(self) -> np.ndarray:
        dr = self.max_radius / self.n_radial
        dt = 2.0 * np.pi / self.n_angular
        return np.broadcast_to(
            (self.radii * dr * dt)[:, None], (self.n_radial, self.n_angular)
        )


def ring_blocks(spec: PolarGridSpec, start: int = 0, stop: int | None = None):
    """Row slices lo:hi of the rings start, ..., stop - 1 (all rings by
    default), in order, each of at most GRID_BLOCK nodes, or of one ring
    when a ring alone holds more."""
    stop = spec.n_radial if stop is None else stop
    step = max(1, GRID_BLOCK // spec.n_angular)
    for lo in range(start, stop, step):
        yield slice(lo, min(lo + step, stop))


class GridFunction:
    """Complex samples on a polar grid, with nearest-node evaluation off-grid.
    The values are read-only: the constructor copies the array it is given,
    so the caller's array stays its own."""

    def __init__(self, spec: PolarGridSpec, values: np.ndarray):
        values = np.array(values, dtype=complex)
        if values.shape != (spec.n_radial, spec.n_angular):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({spec.n_radial}, {spec.n_angular})"
            )
        values.setflags(write=False)
        self.spec = spec
        self.values = values

    @classmethod
    def _adopt(cls, spec: PolarGridSpec, values: np.ndarray) -> "GridFunction":
        """Grid function over a fresh complex array of the grid's shape that
        no one else holds: made read-only in place, not copied."""
        out = cls.__new__(cls)
        values.setflags(write=False)
        out.spec = spec
        out.values = values
        return out

    @classmethod
    def sample(cls, fun, spec: PolarGridSpec) -> "GridFunction":
        """fun at every node.  fun is called on the nodes of each block of
        ring_blocks (an array of shape (rings, n_angular)), so it must act
        elementwise and return an array of its argument's shape; its
        values fill one complex grid, and no node grid is formed."""
        values = np.empty((spec.n_radial, spec.n_angular), dtype=complex)
        radii, phase = spec.radii, np.exp(1j * spec.angles)
        for rows in ring_blocks(spec):
            # the nodes go where their values will: no block of its own
            nodes = np.multiply(radii[rows, None], phase, out=values[rows])
            block = fun(nodes)
            if np.shape(block) != nodes.shape:
                raise ValueError(
                    f"fun gave shape {np.shape(block)} on nodes of shape "
                    f"{nodes.shape}: it must act elementwise"
                )
            values[rows] = block
        return cls._adopt(spec, values)

    def nodes_in_euclidean_disk(self, center: complex, radius: float) -> int:
        """Number of nodes z with |z - center| < radius, ring by ring: on
        the ring of radius t the condition reads cos(theta - arg center) >
        kappa = (t^2 + |center|^2 - radius^2) / (2 t |center|), an open arc
        of half-width arccos(kappa) (all of the ring below kappa = -1, none
        from kappa = 1), which holds the grid angles j dt strictly between
        its ends over dt."""
        spec = self.spec
        t = spec.radii
        n = spec.n_angular
        dist = abs(complex(center))
        if dist == 0.0:
            return n * int(np.count_nonzero(t < radius))
        kappa = (t * t + dist * dist - radius * radius) / (2.0 * t * dist)
        half = np.arccos(np.clip(kappa, -1.0, 1.0)) * n / (2.0 * np.pi)
        mid = np.angle(center) * n / (2.0 * np.pi)
        arc = np.ceil(mid + half) - np.floor(mid - half) - 1.0
        count = np.where(kappa < -1.0, n, np.where(kappa < 1.0, arc, 0.0))
        return int(count.sum())

    def nearest(self, z):
        """Ring and angle indices of the node nearest each z (rings clamped
        at the rim), to index the values or any table of their shape."""
        spec = self.spec
        dr = spec.max_radius / spec.n_radial
        dt = 2.0 * np.pi / spec.n_angular
        z = np.asarray(z, dtype=complex)
        x = np.abs(z.reshape(-1))
        x /= dr
        x -= 0.5
        i = np.clip(np.rint(x, out=x).astype(int), 0, spec.n_radial - 1)
        x = np.angle(z.reshape(-1))
        x /= dt
        j = np.rint(x, out=x).astype(int)
        n = spec.n_angular
        if n & (n - 1):
            np.mod(j, n, out=j)
        else:  # in two's complement j mod 2^k is j & (2^k - 1), in a twentieth of np.mod's time
            np.bitwise_and(j, n - 1, out=j)
        # [()]: numpy integers for a single z, arrays of z's shape otherwise
        return i.reshape(z.shape)[()], j.reshape(z.shape)[()]

    def as_callable(self):
        """Nearest-node interpolant (clamped at the rim); vectorized."""
        return lambda z: self.values[self.nearest(z)]

    def integrate(self) -> complex:
        """Area integral over the grid disk (midpoint rule)."""
        return complex((self.values * self.spec.cell_areas).sum())

    def to_table(self) -> str:
        """Tabular text dump: r theta Re(value) Im(value), one node per line."""
        lines = ["# r theta re im"]
        rr = self.spec.radii
        tt = self.spec.angles
        for i in range(self.spec.n_radial):
            for j in range(self.spec.n_angular):
                v = self.values[i, j]
                lines.append(f"{rr[i]:.12g} {tt[j]:.12g} {v.real:.12g} {v.imag:.12g}")
        return "\n".join(lines) + "\n"
