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

from .density import _check_q, _CircleWeight, _mean_nodes, _q_means, k_weight_many
from .errors import (
    GridTooCoarse,
    GridTooLarge,
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
    ring_blocks,
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


# largest ring count of cauchy_transform.  At its peak it holds three
# n_r x n_r float arrays (x, x^n and x^K, then T_0 beside x^n and x^K) and
# in its loop a boolean mask of that shape: about 25 n_r^2 bytes, which is
# 1.6 GiB at 8192 rings, a fifth of an 8 GB machine
CAUCHY_MAX_RINGS = 8192
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

    Working memory: three n_r x n_r float arrays at the peak, and two
    complex grids (the spectra, then the result).  The blocks' work arrays
    (the floor mask, n_r x n_r booleans, and the scaled spectra columns and
    their product, n_r x 2 CAUCHY_BLOCK floats each) are allocated once per
    call.  Raises GridTooLarge, before it allocates, above
    CAUCHY_MAX_RINGS rings.
    """
    spec = g.spec
    n_r, n = spec.n_radial, spec.n_angular
    if n_r > CAUCHY_MAX_RINGS:
        raise GridTooLarge(
            f"cauchy_transform holds n_r x n_r arrays of about 25 n_r^2 bytes: "
            f"{n_r} rings would need {25 * n_r * n_r / 2 ** 30:.1f} GiB; "
            f"at most {CAUCHY_MAX_RINGS} rings are allowed"
        )
    radii = spec.radii
    dr = spec.max_radius / n_r
    dt = 2.0 * np.pi / n
    vals = g.values
    K = CAUCHY_BLOCK

    # row i: z ring r = radii[i]; column j: w ring t = radii[j]
    rho = np.arange(n_r) + 0.5
    # the one n_r x n_r mask: the triangle t > r here, the floor test in the
    # loop; multiplying by it zeroes in place what np.triu would copy
    mask = np.less.outer(np.arange(n_r), np.arange(n_r))
    x = np.divide.outer(rho, rho)
    x *= mask  # r/t where t > r, else 0
    xn, xk = _ratio_powers(x, n)
    del x
    np.subtract(1.0, xn, out=xn)
    kern = np.divide(2.0 * np.pi * dr, xn, out=xn)
    kern *= mask  # T_0
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
    # the blocks' other work arrays, allocated once: the scaled spectra
    # columns and their product with T_e0
    scaled = np.empty((n_r, 2 * K))
    prod = np.empty((n_r, 2 * K))
    for e0 in range(0, n + 1, K):
        if e0:
            kern *= xk  # T_{e0}
            kern *= np.greater_equal(kern, floor, out=mask)
        # t > r, powers e0 + k < n: rho^k T_{e0} [rho^-k G], columns ascending in k
        cols = slice(2 * e0, 2 * min(e0 + K, n))
        k2 = cols.stop - cols.start
        if k2:
            scale = np.multiply(Gf[:, cols], down[:, :k2], out=scaled[:, :k2])
            P = np.matmul(kern, scale, out=prod[:, :k2])
            P *= up[:, :k2]
            Sf[:, cols] += P
        # t < r, powers 0 < e0 + k <= n: rho^-k T_{e0}^T [rho^k G], columns
        # n - e0 - k ascending, so descending in k
        lo, hi = (1 if e0 == 0 else 0), min(K, n + 1 - e0)
        cols = slice(2 * (n - e0 - hi + 1), 2 * (n - e0 - lo + 1))
        k2 = cols.stop - cols.start
        scale = np.multiply(Gf[:, cols], up[:, 2 * lo:2 * hi][:, ::-1], out=scaled[:, :k2])
        P = np.matmul(kern.T, scale, out=prod[:, :k2])
        P *= down[:, 2 * lo:2 * hi][:, ::-1]
        Sf[:, cols] -= P
        if e0 < n <= e0 + K:  # the row sums of T_{n-1}
            k = 2 * (n - 1 - e0)
            s2 += up[:, k] * (kern @ down[:, k])
    del G, Gf, kern, xk, mask, scaled, prod, scale, P  # the spectra go before the inverse FFT

    # u = vals zbar - (S1 - vals S2)/pi with zbar = r e^{-i theta} and
    # S1, S2 carrying the factor e^{-i theta}: the inverse DFT of the shifted
    # columns gives S1 that factor
    u = np.fft.ifft(S1, axis=1)
    del S1, Sf
    u *= -1.0 / np.pi
    w = vals * phase
    w *= (radii + s2 / np.pi)[:, None]
    u += w
    return GridFunction._adopt(spec, u)


def _dbar_rings(u: GridFunction, lo: int, hi: int) -> np.ndarray:
    """d-bar u on rings lo:hi by centred differences in polar form,
    d-bar = (e^{i theta}/2)(d_r + (i/r) d_theta), as a fresh complex array.
    Ring 0 and the last ring take the radial difference of their interior
    neighbour.  Every difference is of two slices of u; no node grid is
    formed."""
    spec = u.spec
    vals = u.values
    n_r = spec.n_radial
    dr = spec.max_radius / n_r
    dt = 2.0 * np.pi / spec.n_angular
    # rings a..b-1 are the radial centres of rings lo..hi-1
    a = min(max(lo, 1), n_r - 2)
    b = max(min(hi, n_r - 1), a + 1)
    du = np.subtract(vals[a + 1:b + 1], vals[a - 1:b - 1])
    if lo < a or hi > b:
        du = du[np.clip(np.arange(lo, hi), a, b - 1) - a]
    # numpy divides a complex number by c + 0i as both parts times 1/c: the
    # same product on the real view costs a fraction of the complex loop
    du.view(float)[...] *= 1.0 / (2.0 * dr)
    w = vals[lo:hi]
    dudt = np.empty_like(w)
    np.subtract(w[:, 2:], w[:, :-2], out=dudt[:, 1:-1])
    np.subtract(w[:, 1], w[:, -1], out=dudt[:, 0])
    np.subtract(w[:, 0], w[:, -2], out=dudt[:, -1])
    dudt.view(float)[...] *= 1.0 / (2.0 * dt)
    dudt.view(float)[...] *= 1.0 / spec.radii[lo:hi, None]
    dudt *= 1j
    du += dudt
    return np.multiply(0.5 * np.exp(1j * spec.angles), du, out=du)


def dbar_derivative(u: GridFunction) -> GridFunction:
    """d-bar u on the grid by centred differences in polar form:
    d-bar = (e^{i theta}/2)(d_r + (i/r) d_theta).  First and last radial
    rings take the radial difference of the nearest interior ring."""
    return GridFunction._adopt(u.spec, _dbar_rings(u, 0, u.spec.n_radial))


def dbar_residual(u: GridFunction, f: GridFunction) -> float:
    """Max over interior nodes of |(1 - |z|^2) d-bar u - f|, ring block by
    ring block: its working memory is a few blocks of ring_blocks, not a
    grid.  1 - |z|^2 is 1 - r^2 of the node's ring."""
    spec = u.spec
    if spec != f.spec:
        raise ValueError("u and f must share a grid")
    weight = 1.0 - spec.radii ** 2
    worst = 0.0
    for rows in ring_blocks(spec, 1, spec.n_radial - 1):
        du = _dbar_rings(u, rows.start, rows.stop)
        du.view(float)[...] *= weight[rows, None]
        du -= f.values[rows]
        worst = np.maximum(worst, np.abs(du).max())  # nan, if any, stays
    return float(worst)


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
    (1-|z|^2)^alpha dA over a polar grid of outer nodes.

    Outer ring by outer ring, the local-mean disks D(z, r) of the ring's
    n_t outer nodes are taken as their Euclidean images (centre C, radius
    s), and on each, local_mean's 24 x 24 midpoint polar nodes
    C + rho e^{i t} (local_means' node layout).  |f| is read at the grid
    node nearest each of them, and k_Z there comes from k_weight_circles,
    in the frame of each disk's centre: one real product entry and one
    reciprocal per (point, node) pair.  Its error model: per term a few
    roundoffs times ((1 + q)/(1 - q))^2, below ((1 + r)/(1 - r))^4 (81 at
    r = 0.5), plus the u / |1 - conj(z_k) w| of any evaluation at a rounded
    node; e^k then carries k's absolute error as a relative one.  Working
    memory is one outer ring at a time: its n_t x 576 nodes, their lookups
    and values, k_weight_circles' table of 4 doubles per node, 7 doubles
    per (disk, point) pair and one 256 KB product block, allocated once
    per call.
    """
    if not 0.0 < p < math.inf:
        raise ValueError(f"p must be finite and positive, got {p}")
    _check_q(q)
    # |f| at the grid nodes, read at the node nearest each local-mean node
    # through one flat index, a fraction of the cost of a (ring, angle) pair
    modulus = np.abs(f.values).reshape(-1)
    n_r, n_t = outer_grid
    rmax = f.spec.max_radius
    rr = midpoint_radii(rmax, n_r)
    tt = ring_angles(n_t)
    local = (24, 24)
    # the m_q disk is (Euclideanly) smallest at the outermost outer node;
    # require the sample grid of f to resolve it
    edge = pseudo_to_euclidean(PseudoDisk(rr[-1], float(r)))
    if f.nodes_in_euclidean_disk(edge.center, edge.radius) < 16:
        raise GridTooCoarse("f grid does not resolve the local-mean disks")
    drho = rmax / n_r
    dth = 2.0 * np.pi / n_t
    total = 0.0
    crowding = _CircleWeight(Z, n_t, local[0], ring_angles(local[1])) if len(Z) else None
    for ri in rr:
        centers, radii = euclidean_images(ri * np.exp(1j * tt), r)
        nodes, rings = _mean_nodes(centers, radii, local)
        index, angle = f.nearest(nodes)
        index *= f.spec.n_angular
        index += angle
        vals = modulus.take(index)
        if crowding is not None:
            vals *= np.exp(crowding.weight(centers, rings, nodes))
        m = _q_means(vals, radii, rings, q)
        total += float((m ** p).sum()) * (1.0 - ri ** 2) ** alpha * ri * drho * dth
    return total ** (1.0 / p)
