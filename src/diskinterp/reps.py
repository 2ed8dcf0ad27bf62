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

# Matrix entries per block in KernelRep.derivative: a block of 2^13 complex
# entries is 128 KiB.  On a 2-core Xeon (4 MiB L2) order 0 on 4,608 points
# x 86 terms took about 3 ms at 2^13 against 6-8 ms at 2^15.
KERNEL_BLOCK = 1 << 13


def _kernel_powers(base, m: int, n: int):
    """Yield (j, c_j, base^-(2 + n + m - j)) for j = min(m, n), ..., 0, the
    terms of d_z^m d_wbar^n base^-2 = sum_j c_j base^-(2+n+m-j) u^(n-j)
    vbar^(m-j), base = s^2 - u vbar, with the integer coefficients
    c_j = C(m, j) n!/(n - j)! (n + 1 + m - j)!.  The powers are products
    of q = 1/base, one more factor per term: on a 380 x 86 block numpy's
    complex base ** -2 takes about four times as long as np.reciprocal."""
    q = np.reciprocal(base)
    power = q * q
    for _ in range(max(m, n)):
        power = power * q
    for j in range(min(m, n), -1, -1):
        yield j, comb(m, j) * factorial(n) // factorial(n - j) * factorial(n + 1 + m - j), power
        if j:
            power = power * q


def bergman_kernel_deriv(z, w, m: int, n: int, center: complex = 0.0, s: float = 1.0):
    """Mixed derivative d_z^m d_wbar^n of the Bergman kernel of a Euclidean
    disk of radius s centered at `center` (area measure dA):

        K(z, w) = s^2 / (pi * (s^2 - (z-c)(conj(w)-conj(c)))^2).

    The default (s=1, c=0) is the kernel of the unit disk.  Broadcasts over
    z, w, center and s, so z[:, None] and w[None, :] give the matrix of
    values.  The powers of 1/(s^2 - (z-c)(conj(w)-conj(c))) are repeated
    products of one reciprocal (_kernel_powers), not complex powers.
    """
    u = np.asarray(z, dtype=complex) - center
    vbar = np.conj(np.asarray(w, dtype=complex) - center)
    out = 0.0
    for j, coeff, power in _kernel_powers(s * s - u * vbar, m, n):
        term = power if coeff == 1 else coeff * power
        if n > j:
            term = term * u ** (n - j)
        if m > j:
            term = term * vbar ** (m - j)
        out = out + term
    return s * s / np.pi * out


class AnalyticFunctionRep:
    """Base: evaluable at disk points together with derivatives."""

    def __call__(self, z):
        raise NotImplementedError

    def derivative(self, z, order: int):
        raise NotImplementedError

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
        """Sum of the terms at the points z, one product per term order and
        per block of at most KERNEL_BLOCK matrix entries.  Only the powers
        of 1/(s^2 - (z-c)(conj(w)-conj(c))) (_kernel_powers) are formed as
        points x terms matrices: s^2/pi, the integer coefficients and the
        powers of conj(w - c) scale the coefficient vector, and the powers
        of z - c the product."""
        z = np.asarray(z, dtype=complex)
        flat = z.reshape(-1)
        out = np.zeros(flat.shape, dtype=complex)
        if self.terms:
            points = np.array([p for p, _, _ in self.terms], dtype=complex)
            orders = np.array([n for _, n, _ in self.terms])
            coeffs = np.array([c for _, _, c in self.terms], dtype=complex)
            rows = max(1, KERNEL_BLOCK // len(self.terms))
            s2 = self.scale * self.scale
            for n in np.unique(orders).tolist():
                vbar = np.conj(points[orders == n] - self.center)
                c = s2 / np.pi * coeffs[orders == n]
                for lo in range(0, len(flat), rows):
                    u = flat[lo:lo + rows] - self.center
                    for j, coeff, power in _kernel_powers(s2 - u[:, None] * vbar, order, n):
                        part = power @ (coeff * vbar ** (order - j) * c)
                        out[lo:lo + rows] += part if n == j else u ** (n - j) * part
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
        return self.derivative(z, 0)

    def derivative(self, z, order: int):
        """order! times the Taylor coefficient of that order at z.  A factor
        M_b(z)/M_b(g) has a_0 = M_b(z)/M_b(g) and a_j = (|b|^2 - 1)
        conj(b)^(j-1) q^(j+1) / M_b(g), q = 1/(1 - conj(b) z); a term's jet
        is its coefficient times its factors' lists, cut at the order.  a_0
        is a fresh temporary in each product, as in the product of ratios
        (numpy may reuse it in place, swapping the operands and the last
        bit), so order 0 is that product bit for bit."""
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for coeff, factors in self.terms:
            jet = [np.full_like(z, coeff)] + [0.0] * order
            for beta, gamma in factors:
                m, bbar = moebius(beta, gamma), np.conj(beta)
                a = [(abs(beta) ** 2 - 1.0) * bbar ** (j - 1) / (1.0 - bbar * z) ** (j + 1) / m
                     for j in range(1, order + 1)]
                for j in range(order, -1, -1):  # top down: jet[:j] still the old ones
                    jet[j] = sum((jet[i] * a[j - i - 1] for i in range(j)),
                                 jet[j] * (moebius_many(beta, z) / m))
            out = out + jet[order]
        return factorial(order) * out

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
