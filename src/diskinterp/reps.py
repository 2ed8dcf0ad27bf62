"""Concrete carriers for analytic functions on the disk.

Two representations cover everything the solvers and the worked
examples produce: combinations of (derivatives of) Bergman kernel
sections, and sums of products of Moebius-factor ratios
(Blaschke-Lagrange style interpolants).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .geometry import moebius, moebius_many

# Matrix entries per block in KernelRep.derivative.
KERNEL_BLOCK = 1 << 15


def bergman_kernel_deriv(z, w, m: int, n: int, center: complex = 0.0, s: float = 1.0):
    """Mixed derivative d_z^m d_wbar^n of the Bergman kernel of a Euclidean
    disk of radius s centered at `center` (area measure dA):

        K(z, w) = s^2 / (pi * (s^2 - (z-c)(conj(w)-conj(c)))^2).

    The default (s=1, c=0) is the kernel of the unit disk.  Broadcasts over
    z and w, so z[:, None] and w[None, :] give the matrix of values.
    """
    u = np.asarray(z, dtype=complex) - center
    vbar = np.conj(np.asarray(w, dtype=complex) - center)
    base = s * s - u * vbar
    out = 0.0
    for j in range(min(m, n) + 1):
        coeff = (
            comb(m, j)
            * factorial(n)
            // factorial(n - j)
            * factorial(n + 1 + m - j)
        )
        term = base ** -(2 + n + m - j)
        if coeff != 1:
            term = coeff * term
        if n > j:
            term = term * u ** (n - j)
        if m > j:
            term = term * vbar ** (m - j)
        out = out + term
    return s * s / np.pi * out


def complex_derivative(fun, z, order: int, radius: float = 1e-2):
    """order-th complex derivative of an analytic callable via the Cauchy
    integral over a small circle (trapezoid rule, spectrally accurate)."""
    if order == 0:
        return fun(np.asarray(z, dtype=complex))
    z = np.asarray(z, dtype=complex)
    n = 64
    ang = 2.0 * np.pi * np.arange(n) / n
    ring = radius * np.exp(1j * ang)
    vals = fun(z[..., None] + ring)
    coeffs = (vals * np.exp(-1j * order * ang)).mean(axis=-1)
    return factorial(order) * coeffs / radius ** order


class AnalyticFunctionRep:
    """Base: evaluable at disk points together with derivatives."""

    def __call__(self, z):
        raise NotImplementedError

    def derivative(self, z, order: int):
        if order == 0:
            return self(z)
        return complex_derivative(self, z, order)

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class KernelRep(AnalyticFunctionRep):
    """f(z) = sum_j coeff_j * d_wbar^{order_j} K(z, point_j)."""

    terms: tuple[tuple[complex, int, complex], ...]  # (point, order, coeff)
    center: complex = 0.0
    scale: float = 1.0

    def __call__(self, z):
        return self.derivative(z, 0)

    def derivative(self, z, order: int):
        """Sum of the terms at the points z, as a (points x terms) matrix of
        kernel derivatives times the coefficients, one product per term
        order and per block of at most KERNEL_BLOCK matrix entries."""
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        out = np.zeros(flat.shape, dtype=complex)
        if self.terms:
            points = np.array([p for p, _, _ in self.terms], dtype=complex)
            orders = np.array([n for _, n, _ in self.terms])
            coeffs = np.array([c for _, _, c in self.terms], dtype=complex)
            rows = max(1, KERNEL_BLOCK // len(self.terms))
            for n in np.unique(orders):
                w, c = points[orders == n], coeffs[orders == n]
                for lo in range(0, len(flat), rows):
                    out[lo:lo + rows] += bergman_kernel_deriv(
                        flat[lo:lo + rows, None], w[None, :], order, int(n),
                        center=self.center, s=self.scale,
                    ) @ c
        return out.reshape(z.shape)[()]

    def to_dict(self) -> dict:
        return {
            "kind": "kernel",
            "center": [self.center.real, self.center.imag],
            "scale": self.scale,
            "terms": [
                {"point": [p.real, p.imag], "order": n, "coeff": [c.real, c.imag]}
                for p, n, c in self.terms
            ],
        }


@dataclass(frozen=True)
class BlaschkeLagrangeRep(AnalyticFunctionRep):
    """f(z) = sum_t coeff_t * prod_{(beta,gamma) in factors_t} M_beta(z)/M_beta(gamma)."""

    terms: tuple[tuple[complex, tuple[tuple[complex, complex], ...]], ...]

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for coeff, factors in self.terms:
            prod = np.full_like(z, coeff)
            for beta, gamma in factors:
                prod = prod * (moebius_many(beta, z) / moebius(beta, gamma))
            out = out + prod
        return out

    def to_dict(self) -> dict:
        return {
            "kind": "blaschke_lagrange",
            "terms": [
                {
                    "coeff": [c.real, c.imag],
                    "factors": [
                        {"beta": [b.real, b.imag], "gamma": [g.real, g.imag]}
                        for b, g in factors
                    ],
                }
                for c, factors in self.terms
            ],
        }


def rep_as_callable(f):
    """Uniform access: AnalyticFunctionRep, grid function, or plain callable."""
    if isinstance(f, AnalyticFunctionRep):
        return f
    if hasattr(f, "as_callable"):
        return f.as_callable()
    if callable(f):
        return f
    raise TypeError(f"not evaluable on the disk: {type(f)!r}")
