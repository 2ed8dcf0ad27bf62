"""Numerical d-bar machinery on the disk.

The invariant Laplacian, the density potential tau and its invariant
log-kernel smoothing, the explicit Green-type potential that produces a
harmonic majorant from a negative bounded invariant Laplacian, Cauchy
transform particular solutions of d-bar u = g, and weighted residual /
norm diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import k_weight_many, local_means
from .errors import (
    GridTooCoarse,
    PositiveLaplacian,
    QuadratureDivergence,
    StencilOutOfDomain,
)
from .geometry import PseudoDisk, as_complex, euclidean_images, moebius_many, pseudo_to_euclidean
from .grids import (
    GridFunction,
    PolarGridSpec,
    disk_rule,
    gauss_laguerre,
    midpoint_radii,
    ring_angles,
)
from .reps import rep_as_callable
from .schemes import PointSequence

@dataclass(frozen=True)
class TauSpec:
    """Parameters of tau(z) = log(1/(1-|z|^2)) - (p/beta) k_Z(z)."""

    Z: PointSequence
    p: float
    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0,1), got {self.beta}")
        if not 0.0 < self.p < math.inf:
            raise ValueError(f"p must be finite and positive, got {self.p}")


def tau_eval(spec: TauSpec, zeta) -> float:
    """tau at one point."""
    z = as_complex(zeta)
    return float(tau_eval_many(spec, np.array([z]))[0])


def tau_eval_many(spec: TauSpec, zetas: np.ndarray) -> np.ndarray:
    zetas = np.asarray(zetas, dtype=complex)
    base = np.log(1.0 / (1.0 - np.abs(zetas) ** 2))
    return base - (spec.p / spec.beta) * k_weight_many(spec.Z, zetas)


def invariant_laplacian(f, z, h: float = 1e-4):
    """(1 - |z|^2)^2 * d d-bar of f at z by the five-point stencil
    (d d-bar = one quarter of the Euclidean Laplacian)."""
    zv = as_complex(z)
    fun = rep_as_callable(f)
    if abs(zv) + h >= 1.0 - 1e-12:
        raise StencilOutOfDomain(f"stencil around {zv} leaves the disk")
    if hasattr(f, "spec") and abs(zv) + 2 * h > f.spec.max_radius:
        raise StencilOutOfDomain(f"stencil around {zv} leaves the grid")
    pts = np.array([zv + h, zv - h, zv + 1j * h, zv - 1j * h, zv], dtype=complex)
    v = np.asarray(fun(pts))
    lap = (v[0] + v[1] + v[2] + v[3] - 4.0 * v[4]) / (h * h)
    out = (1.0 - abs(zv) ** 2) ** 2 * 0.25 * lap
    return out if np.iscomplexobj(v) and abs(out.imag) > 1e-8 else float(np.real(out))


def _log_kernel_radial(r_star: float, n_radial: int):
    """Nodes/weights for int_0^{r*} g(t) log(r*^2/t^2) (1-t^2)^(-2) t dt via
    t = r* exp(-y/2) and generalized Gauss-Laguerre (weight y e^-y)."""
    y, wy = gauss_laguerre(n_radial, 1.0)
    t = r_star * np.exp(-0.5 * y)
    w = 0.5 * r_star ** 2 * wy / (1.0 - r_star ** 2 * np.exp(-y)) ** 2
    return t, w


def log_kernel_smooth(
    fun, z, r_star: float = 0.5, grid: tuple[int, int] = (48, 64)
) -> float:
    """Invariant smoothing over D(z, r_star) against the normalized log
    kernel:

        f*(z) = int_{D(z,r*)} f(w) log(r*^2/psi(w,z)^2) dlambda(w)
                / (pi log(1/(1-r*^2))).

    Computed after transporting z to the origin (psi and dlambda are both
    Moebius invariant), so the log singularity sits at 0 and is absorbed
    by a generalized Gauss-Laguerre radial rule; the kernel has unit mass
    against the normalizing prefactor, so constants are reproduced.
    """
    if not 0.0 < r_star < 1.0:
        raise ValueError(f"r_star must be in (0,1), got {r_star}")
    zv = as_complex(z)
    n_r, n_t = grid
    t, wt = _log_kernel_radial(r_star, n_r)
    zeta = t[:, None] * np.exp(1j * ring_angles(n_t)[None, :])
    vals = np.asarray(fun(moebius_many(zv, zeta)), dtype=float)  # at the transported nodes
    if not np.isfinite(vals).all():
        raise QuadratureDivergence("integrand not finite on the smoothing grid")
    integral = float((wt[:, None] * vals).sum() * (2.0 * np.pi / n_t))
    return integral / (math.pi * math.log(1.0 / (1.0 - r_star ** 2)))


def tau_smooth(
    spec: TauSpec, z, r_star: float = 0.5, grid: tuple[int, int] = (48, 64)
) -> float:
    """Log-kernel smoothing of tau (see log_kernel_smooth)."""
    return log_kernel_smooth(lambda w: tau_eval_many(spec, w), z, r_star, grid)


def green_potential_pieces(
    laplacian_values, z, grid: tuple[int, int] = (160, 128)
) -> tuple[float, float, float]:
    """Three kernel-piece contributions to the explicit potential u with
    d d-bar u = d d-bar tau, for given L(w) = invariant Laplacian of tau:

        u(z) = (2/pi) int L(w) [ log|wbar (w-z)/(1-wbar z)|
                                 + Re (1-|w|^2)/(1-wbar z) ] dlambda(w).

    The kernel is split into its two origin-/z-singular logarithmic pieces
    and a bounded positive piece (whose contribution is nonpositive when
    L <= 0); the z-singular piece is integrated after transporting z to the
    origin.  Raises PositiveLaplacian if L > 0 at any sampled node (the
    potential requires a negative Laplacian).
    """
    zv = as_complex(z)
    n_r, n_t = grid
    t, wt = disk_rule(1.0, n_r, n_t)
    wt = wt[:, None] / (1.0 - t[:, None] ** 2) ** 2  # dlambda = dA / (1 - |w|^2)^2
    nodes = t[:, None] * np.exp(1j * ring_angles(n_t)[None, :])

    lw = np.asarray(laplacian_values(nodes), dtype=float)
    if (lw > 1e-12).any():
        raise PositiveLaplacian("invariant Laplacian must be <= 0 everywhere")

    aw = np.abs(nodes)
    # piece 1: log|w| + (1-|w|^2)/2, singular only at the origin
    k1 = np.log(aw) + 0.5 * (1.0 - aw ** 2)
    i1 = float((wt * lw * k1).sum())
    # piece 3: bounded, nonpositive contribution for L <= 0
    k3 = abs(zv) ** 2 * (1.0 - aw ** 2) ** 2 / (
        2.0 * np.abs(1.0 - np.conj(nodes) * zv) ** 2
    )
    i3 = float((wt * lw * k3).sum())
    # piece 2 equals piece 1 after the substitution w -> phi_z(w); dlambda
    # and the pseudohyperbolic modulus are invariant under the transport
    lw2 = np.asarray(laplacian_values(moebius_many(zv, nodes)), dtype=float)
    if (lw2 > 1e-12).any():
        raise PositiveLaplacian("invariant Laplacian must be <= 0 everywhere")
    i2 = float((wt * lw2 * k1).sum())

    if not all(map(np.isfinite, (i1, i2, i3))):
        raise QuadratureDivergence("potential quadrature produced non-finite value")
    scale = 2.0 / math.pi
    return scale * i1, scale * i2, scale * i3


def green_potential(
    laplacian_values, z, grid: tuple[int, int] = (160, 128)
) -> float:
    """Value of the explicit potential (sum of its three kernel pieces)."""
    return float(sum(green_potential_pieces(laplacian_values, z, grid)))


# Calibrated once (see tests): max over the constant-Laplacian family
# {-1, -0.5, -0.1} of sup_{|z|<=0.9} u(z)/|L| is 2.0 (attained at z = 0);
# frozen with headroom for quadrature wiggle.
GREEN_POTENTIAL_CALIBRATION = 2.0 + 1e-6


def harmonic_majorant_gap(
    laplacian_values,
    z,
    lap_sup: float,
    c_cal: float = GREEN_POTENTIAL_CALIBRATION,
) -> float:
    """tau(z) - v(z) for the majorant v = tau - u + c_cal * sup|L|; equals
    u(z) - c_cal * sup|L| and is nonpositive when the calibration constant
    dominates the potential."""
    return green_potential(laplacian_values, z) - c_cal * lap_sup


# consecutive powers e of the ring ratio that one triangle T_e serves in
# cauchy_transform: each of its two real matrix products per block has
# 2 CAUCHY_BLOCK right-hand columns
CAUCHY_BLOCK = 32
# entries of T_e below this fraction of 2 pi dr are set to 0 before a block's
# products: their terms lie hundreds of binary orders below the rounding of
# the ring sums, and as subnormal numbers they slow each product
CAUCHY_FLOOR = 2.0 ** -600


def _ratio_powers(x, n):
    """x ** n and x ** CAUCHY_BLOCK (None when n < CAUCHY_BLOCK) by
    repeated squaring of x in place: one product a pass, where a power
    call costs several."""
    xn = xk = None
    b = 1
    while True:
        if n & b:
            xn = x.copy() if xn is None else np.multiply(xn, x, out=xn)
        if b == CAUCHY_BLOCK:
            xk = x.copy()
        b <<= 1
        if b > n:
            return xn, xk
        np.square(x, out=x)


def cauchy_transform(g: GridFunction) -> GridFunction:
    """Particular solution u(z) = -(1/pi) int g(w)/(w - z) dA(w) of
    d-bar u = g over the grid disk.

    The smooth-part subtraction u = g(z) zbar - (1/pi) int (g(w)-g(z))/(w-z) dA
    removes the kernel singularity (the identity (1/pi) int_{|w|<R} dA/(z-w)
    = zbar holds for |z| < R); the remaining bounded integrand is summed by
    the midpoint rule.  With w = t e^{i phi}, z = r e^{i theta} on a grid of
    n angles, 1/(w - z) = e^{-i theta} / (t e^{i(phi - theta)} - r) is a
    circular convolution in angle, so the sum S1(z) = sum_w area_w g(w)/(w - z)
    is diagonal in the angular Fourier index m: its ring spectrum is
    sum_t K_m(r, t) G_t[m], G_t the DFT of area_t g on ring t.  The ring
    spectra K_m(r, t) = sum_k e^{2 pi i m k / n} / (t e^{2 pi i k / n} - r)
    are geometric sums with the closed forms (x = r/t, y = t/r)

        t > r:  (n/t) x^((m-1) mod n) / (1 - x^n),
        t < r:  -(n/r) y^((-m) mod n) / (1 - y^n),
        t = r:  -(1/r) ((n-1)/2 - ((-m) mod n))   (self cell w = z left out:
                the exact 1/(w-z) integral over an equal-area disk vanishes
                by symmetry),

    where 1/(1 - x^n) sums the aliases x^(e + n l), l >= 0, of the power e.
    Times the area t dr dtheta, n/t becomes 2 pi dr, the self-ring term no
    longer depends on the ring, and with the triangle
    T_e = 2 pi dr x^e / (1 - x^n) on t > r the part t < r at power e is
    -T_{e+1} transposed.  So for e = 0..n, T_e gives mode (e+1) mod n
    (e < n) and -T_e^T mode (1-e) mod n (e > 0).

    The ratio is separable: x_ij = rho_i / rho_j with rho_i = i + 1/2 the
    ring radius over dr, so T_{e0+k} = diag(rho^k) T_{e0} diag(rho^-k).
    One triangle T_{e0} therefore serves the K = CAUCHY_BLOCK powers
    e = e0 + k, k < K: the part t > r is the one real product
    T_{e0} [rho^-k G_{e+1}] and the part t < r is T_{e0}^T [rho^k G_{1-e}],
    each column pair rescaled by rho^k or rho^-k after, in place of one
    matrix-vector product per power.  Scaling by rho, not by r, keeps every
    factor in [n_r^-K, n_r^K] whatever max_radius is.  T_{e0+K} = T_{e0} x^K
    (entries below CAUCHY_FLOOR of 2 pi dr set to 0), and x^n and x^K come
    from repeated squaring.  S2(z) = sum_w area_w/(w - z) is S1 for g = 1,
    whose only nonzero mode is m = 0: the row sums of T_{n-1}, the column
    sums of -T_1 and the self ring.
    """
    spec = g.spec
    n_r, n = spec.n_radial, spec.n_angular
    radii = spec.radii
    dr = spec.max_radius / n_r
    dt = 2.0 * np.pi / n
    vals = g.values
    K = CAUCHY_BLOCK

    # row i: z ring r = radii[i]; column j: w ring t = radii[j]
    rho = np.arange(n_r) + 0.5
    x = np.triu(np.divide.outer(rho, rho), 1)  # r/t where t > r, else 0
    xn, xk = _ratio_powers(x, n)
    del x
    np.subtract(1.0, xn, out=xn)
    kern = np.triu(np.divide(2.0 * np.pi * dr, xn, out=xn), 1)  # T_0
    del xn
    floor = 2.0 * np.pi * dr * CAUCHY_FLOOR
    # rho^k and rho^-k for k < K, each twice: the Re and Im columns of a mode
    up = np.repeat(rho[:, None] ** np.arange(K), 2, axis=1)
    down = 1.0 / up
    # S2 = mode 0 of S1 for g = 1: row sums of T_{n-1} (in the loop) and
    # of -T_1^T, and the self ring
    s2 = -(rho @ kern) / rho - dr * dt * (n - 1) / 2.0

    # column c of the spectra holds mode c + 1 (the DFT of g e^{-i phi}), so
    # power e reads column e for t > r and column n - e for t < r; the real
    # view holds each column as an adjacent (Re, Im) pair
    phase = np.exp(-1j * spec.angles)
    G = np.fft.fft(vals * phase, axis=1)
    S1 = G * (dr * dt * ((n - 1) / 2.0 - np.arange(n)))  # self ring
    Gf, Sf = G.view(float), S1.view(float)
    for e0 in range(0, n + 1, K):
        if e0:
            kern *= xk  # T_{e0}
            kern *= kern >= floor
        # t > r, powers e0 + k < n: rho^k T_{e0} [rho^-k G], columns ascending in k
        cols = slice(2 * e0, 2 * min(e0 + K, n))
        k2 = cols.stop - cols.start
        if k2:
            P = kern @ (Gf[:, cols] * down[:, :k2])
            P *= up[:, :k2]
            Sf[:, cols] += P
        # t < r, powers 0 < e0 + k <= n: rho^-k T_{e0}^T [rho^k G], columns
        # n - e0 - k ascending, so descending in k
        lo, hi = (1 if e0 == 0 else 0), min(K, n + 1 - e0)
        cols = slice(2 * (n - e0 - hi + 1), 2 * (n - e0 - lo + 1))
        P = kern.T @ (Gf[:, cols] * up[:, 2 * lo:2 * hi][:, ::-1])
        P *= down[:, 2 * lo:2 * hi][:, ::-1]
        Sf[:, cols] -= P
        if e0 < n <= e0 + K:  # the row sums of T_{n-1}
            k = 2 * (n - 1 - e0)
            s2 += up[:, k] * (kern @ down[:, k])
    del G, Gf, kern, xk  # the spectra go before the inverse FFT

    # u = vals zbar - (S1 - vals S2)/pi with zbar = r e^{-i theta} and
    # S1, S2 carrying the factor e^{-i theta}: the inverse DFT of the shifted
    # columns gives S1 that factor
    u = np.fft.ifft(S1, axis=1)
    del S1, Sf
    u *= -1.0 / np.pi
    w = vals * phase
    w *= (radii + s2 / np.pi)[:, None]
    u += w
    return GridFunction(spec, u)


def dbar_derivative(u: GridFunction) -> GridFunction:
    """d-bar u on the grid by centered differences in polar form:
    d-bar = (e^{i theta}/2)(d_r + (i/r) d_theta).  First and last radial
    rings are filled by copying the nearest interior ring."""
    spec = u.spec
    vals = u.values
    dr = spec.max_radius / spec.n_radial
    dt = 2.0 * np.pi / spec.n_angular
    dudr = np.empty_like(vals)
    dudr[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * dr)
    dudr[0] = dudr[1]
    dudr[-1] = dudr[-2]
    dudt = (np.roll(vals, -1, axis=1) - np.roll(vals, 1, axis=1)) / (2.0 * dt)
    theta = spec.angles[None, :]
    r = spec.radii[:, None]
    out = 0.5 * np.exp(1j * theta) * (dudr + 1j * dudt / r)
    return GridFunction(spec, out)


def dbar_residual(u: GridFunction, f: GridFunction) -> float:
    """Max over interior nodes of |(1 - |z|^2) d-bar u - f|."""
    if u.spec != f.spec:
        raise ValueError("u and f must share a grid")
    du = dbar_derivative(u).values
    z = u.spec.nodes
    resid = np.abs((1.0 - np.abs(z) ** 2) * du - f.values)
    return float(resid[1:-1].max())


def weighted_space_norm(
    f: GridFunction,
    Z: PointSequence,
    p: float,
    q,
    r: float = 0.5,
    alpha: float = 0.0,
    outer_grid: tuple[int, int] = (24, 32),
) -> float:
    """L^p(dA_alpha) norm of z -> m_q(|f e^{k_Z}|, z, r): the local q-means
    of the weighted modulus, integrated in p-th power against
    (1-|z|^2)^alpha dA over a polar grid of outer nodes."""
    if not 0.0 < p < math.inf:
        raise ValueError(f"p must be finite and positive, got {p}")
    modulus = np.abs(f.values)  # |f| at the nodes, looked up by nearest node

    def weighted(z):
        return modulus[f.nearest(z)] * np.exp(k_weight_many(Z, z))

    n_r, n_t = outer_grid
    rmax = f.spec.max_radius
    rr = midpoint_radii(rmax, n_r)
    tt = ring_angles(n_t)
    # the m_q disk is (Euclideanly) smallest at the outermost outer node;
    # require the sample grid of f to resolve it
    edge = pseudo_to_euclidean(PseudoDisk(rr[-1], float(r)))
    if f.nodes_in_euclidean_disk(edge.center, edge.radius) < 16:
        raise GridTooCoarse("f grid does not resolve the local-mean disks")
    drho = rmax / n_r
    dth = 2.0 * np.pi / n_t
    total = 0.0
    for ri in rr:
        # one call of the weighted modulus per outer ring
        m = local_means(weighted, *euclidean_images(ri * np.exp(1j * tt), r), q, grid=(24, 24))
        total += float((m ** p).sum()) * (1.0 - ri ** 2) ** alpha * ri * drho * dth
    return total ** (1.0 / p)
