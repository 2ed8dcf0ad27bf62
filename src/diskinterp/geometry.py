"""Pseudohyperbolic geometry primitives of the unit disk.

Everything else in the library is built on the handful of exact formulas
here: the pseudohyperbolic metric, the disk automorphisms exchanging a
point with the origin, the invariant area weight, and the identification
of pseudohyperbolic disks with Euclidean ones.

All operations are pure functions of immutable values and accept either
``DiskPoint`` instances or plain complex numbers.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import PointOutsideDisk

# Points this close to the unit circle are rejected so that factors of
# (1 - |z|^2)^(-k) stay finite downstream.
BOUNDARY_MARGIN = 1e-12


@dataclass(frozen=True)
class DiskPoint:
    """A complex scalar strictly inside the unit disk."""

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        if abs(v) >= 1.0 - BOUNDARY_MARGIN:
            raise PointOutsideDisk(f"|{v}| = {abs(v)} is not < 1")
        object.__setattr__(self, "value", v)


def as_complex(z) -> complex:
    """Coerce a DiskPoint or scalar to a validated complex number."""
    if isinstance(z, DiskPoint):
        return z.value
    v = complex(z)
    if abs(v) >= 1.0 - BOUNDARY_MARGIN:
        raise PointOutsideDisk(f"|{v}| = {abs(v)} is not < 1")
    return v


@dataclass(frozen=True)
class PseudoDisk:
    """Pseudohyperbolic disk { z : psi(center, z) < radius }, radius in (0,1)."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_complex(self.center))
        r = float(self.radius)
        if not 0.0 < r < 1.0:
            raise ValueError(f"pseudohyperbolic radius must be in (0,1), got {r}")
        object.__setattr__(self, "radius", r)

    def contains(self, z) -> bool:
        return psi(self.center, z) < self.radius


@dataclass(frozen=True)
class EuclideanDisk:
    """Plain Euclidean disk; quadrature carrier for a PseudoDisk."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        r = float(self.radius)
        if r < 0.0:
            raise ValueError(f"radius must be nonnegative, got {r}")
        object.__setattr__(self, "radius", r)

    @property
    def area(self) -> float:
        return np.pi * self.radius ** 2


def psi(z, w) -> float:
    """Pseudohyperbolic metric |(z - w) / (1 - conj(w) z)|.

    Returns exactly 0.0 for bit-identical arguments, avoiding cancellation
    noise in nearest-neighbor separations.
    """
    zv = as_complex(z)
    wv = as_complex(w)
    if zv == wv:
        return 0.0
    return abs((zv - wv) / (1.0 - wv.conjugate() * zv))


def psi_array(z, w) -> np.ndarray:
    """Broadcasting psi(z, w) = |(z - w) / (1 - conj(w) z)| over arrays.

    Exactly 0 where z and w are bit-identical: the numerator is 0 and
    1 - |w|^2 > 0 inside the disk.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return np.abs((z - w) / (1.0 - np.conj(w) * z))


def psi_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise psi between two arrays of points, shape (len(a), len(b))."""
    return psi_array(np.asarray(a)[:, None], np.asarray(b)[None, :])


def moebius(a, z) -> complex:
    """The disk automorphism (a - z)/(1 - conj(a) z); swaps a and 0.

    Involution: moebius(a, moebius(a, z)) == z.
    """
    av = as_complex(a)
    zv = as_complex(z)
    return (av - zv) / (1.0 - av.conjugate() * zv)


def moebius_many(a, points: np.ndarray) -> np.ndarray:
    """Vectorized moebius(a, .) over an array of points."""
    av = as_complex(a)
    pts = np.asarray(points, dtype=complex)
    return (av - pts) / (1.0 - av.conjugate() * pts)


def moebius_deriv(a, z) -> complex:
    """d/dz of moebius(a, .) at z, equal to (|a|^2 - 1)/(1 - conj(a) z)^2."""
    av = as_complex(a)
    zv = as_complex(z)
    return (abs(av) ** 2 - 1.0) / (1.0 - av.conjugate() * zv) ** 2


def rho(z) -> float:
    """Distance 1 - |z| of a point to the unit circle."""
    return 1.0 - abs(as_complex(z))


def hyp_sum(s: float, t: float) -> float:
    """Tight hyperbolic triangle bound (s + t)/(1 + s t) for s, t in [0,1)."""
    if not (0.0 <= s < 1.0 and 0.0 <= t < 1.0):
        raise ValueError(f"hyp_sum arguments must be in [0,1), got {s}, {t}")
    return (s + t) / (1.0 + s * t)


def invariant_area_weight(z) -> float:
    """Density (1 - |z|^2)^(-2) of the Moebius-invariant area measure."""
    zv = as_complex(z)
    return (1.0 - abs(zv) ** 2) ** -2


def euclidean_images(centers, radii):
    """Centres and radii of the Euclidean disks equal, as point sets, to the
    pseudohyperbolic disks D(centers, radii), elementwise over scalars or
    arrays:

    center = (1 - r^2) c / (1 - r^2 |c|^2),  radius = r (1 - |c|^2) / (1 - r^2 |c|^2).

    |c|^2 is Re(c conj(c)), so scalars stay in plain float arithmetic.
    """
    m = (centers * centers.conjugate()).real
    denom = 1.0 - radii ** 2 * m
    return (1.0 - radii ** 2) * centers / denom, radii * (1.0 - m) / denom


def pseudo_to_euclidean(d: PseudoDisk) -> EuclideanDisk:
    """Euclidean disk equal, as a point set, to the pseudohyperbolic one."""
    return EuclideanDisk(*euclidean_images(d.center, d.radius))


def hyperbolic_midpoint(a, b) -> complex:
    """Point equidistant (in psi) from a and b on their geodesic."""
    av = as_complex(a)
    bv = as_complex(b)
    d = psi(av, bv)
    if d == 0.0:
        return av
    # t solves hyp_sum(t, t) = d
    t = (1.0 - cmath.sqrt(1.0 - d * d).real) / d
    w = moebius(av, bv)
    return moebius(av, t * w / abs(w))

