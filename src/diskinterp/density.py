"""Density functionals of a point sequence in the disk.

Implements the crowding weight k_Z (at any points, and on circles about
given centres in each centre's frame), its exact circle average k_hat, the
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
# as long at 50 and 500 points, and 2^12 lost to the per-block overhead.
# k_weight_circles' blocks hold the powers of at most 2 K_WEIGHT_BLOCK
# (disk, point) pairs, 25 complex numbers each on local_mean's 24 x 24
# grid: 512 KB of powers, and about 1.3 MB with the block's W.  Measured on
# the 24 outer rings of weighted_space_norm's default grid (32 disks of 576
# nodes each, best of 7, one BLAS thread, 2-core x86), budgets of 2^13,
# 2^14, 2^15 and 2^16 powers took 5.3, 5.1, 5.1 and 5.2 ms at 5 points,
# 20.7, 18.6, 18.4 and 17.7 ms at 50 and 178, 148, 137 and 138 ms at 500:
# 2^15 (2 K_WEIGHT_BLOCK) was within noise of the best at each size, and
# smaller budgets lost at 500 points
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


def k_weight_circles(Z: PointSequence, centers, radii, grid: tuple[int, int]) -> np.ndarray:
    """k_weight at the nodes of local_means' rule on the Euclidean disks with
    the given centres and radii (_mean_nodes(centers, radii, grid), bit for
    bit), shape (m, grid[0], grid[1]).

    Take a disk with centre C and radius s.  Its nodes are
    w_ab = C + sigma_a s omega^b, with sigma_a = (a + 1/2)/n_a,
    omega = e^{2 pi i/N} and N = grid[1].  With alpha_k = 1 - conj(z_k) C and
    x_k = s conj(z_k)/alpha_k, 1 - conj(z_k) w_ab = alpha_k (1 - y omega^b),
    y = sigma_a x_k.  1/|1 - y e^{it}|^2 is a Poisson kernel, and its
    Fourier series sampled at the N angles folds into N terms, the factor
    1/(1 - y^N) summing the aliases of each power (the trapezoidal rule's
    aliasing, Trefethen and Weideman, SIAM Review 56, 2014):

        S_ab = sum_k m_k / |1 - conj(z_k) w_ab|^2
             = Re B_a0 + Re B_aN + 2 sum_{j=1}^{N-1} Re(B_aj omega^{bj}),
        B_aj = sigma_a^j sum_k W_ak x_k^j,
        W_ak = m_k / (|alpha_k|^2 (1 - sigma_a^2 |x_k|^2)(1 - sigma_a^N x_k^N)),

    with m_k = (1 - |z_k|^2)^2.  So a disk costs the powers x_k^0..x_k^N of
    each point (by doubling), its n_a x n matrix W (the only divisions), one
    complex product of W with those powers, the scaling by sigma_a^j and one
    real product with a fixed 2(N + 1) x N table of 2 cos and -2 sin of
    2 pi bj/N.  k is |w|^2 / 2 S, |w|^2 from the parts of the node.

    Error model (u = 2^-53, the unit roundoff): each circle lies in its
    disk, which lies in the unit disk, so |x_k| < 1 and q = |y| < 1, and no
    power can overflow.  A point's series terms, the aliases included, have
    absolute sum at most ((1 + q)/(1 - q))^2 = kappa times the least value
    of their sum on the circle, so each term t_k = m_k / |1 - conj(z_k) w|^2
    carries a relative error of a few u times kappa.  On a circle of a
    pseudohyperbolic disk D(c, r), q < 2r / (1 + r^2) for every |c| < 1,
    and kappa < ((1 + r)/(1 - r))^4, 81 at r = 0.5.  Beside it each term
    carries a few u / |1 - conj(z_k) w|, the error of any evaluation at a
    rounded node (k_weight_many's too).  The tests hold the difference
    from k_weight_many on the same nodes to
    32 u (|w|^2 / 2) sum_k t_k (kappa_k + 1 / |1 - conj(z_k) w|).

    Working memory: the nodes, the result, one more array of its size and
    B, N + 1 complex numbers a circle; and the work arrays of a block: for
    each of its (disk, point) pairs, N + 1 powers and the n_a entries of W
    (complex), n_a more doubles and five numbers.  A block holds at most
    2 K_WEIGHT_BLOCK pairs' powers, 512 KB: whole disks, or blocks of points
    summed into B when one disk alone has more.  At n_a = N = 24 its arrays
    take at most 1.3 MB, whatever |Z| is.  Each work array is allocated
    once per call.
    """
    nodes = _mean_nodes(centers, radii, grid)[0]
    if len(Z) == 0:
        return np.zeros(nodes.shape)
    return _CircleSeries(Z, len(nodes), grid)(centers, radii, nodes)


class _CircleSeries:
    """k_weight_circles for Z at sets of up to m disks on one grid, with
    every work array allocated once: a call serves one set of disks (one
    outer ring of weighted_space_norm each), given its centres, radii and
    nodes, and its result is a view of one array, valid until the next
    call.  Z must not be empty.  Allocated afresh for each ring, the
    arrays cost a 50-point weighted_space_norm call about 8,800 minor page
    faults, and a third of its time."""

    def __init__(self, Z: PointSequence, m: int, grid: tuple[int, int]):
        n_a, n_b = grid
        self.zbar = Z.array.conj()
        n = len(self.zbar)
        self.mass = (1.0 - np.abs(self.zbar) ** 2) ** 2
        sigma = (np.arange(n_a) + 0.5) / n_a
        self.sigma_sq, self.sigma_n = sigma[:, None] ** 2, sigma[:, None] ** n_b
        # sigma_a^j for each part of B_aj
        self.scale = np.repeat(sigma[:, None] ** np.arange(n_b + 1), 2, axis=1)
        # rows Re B_j and Im B_j, columns b: 2 cos and -2 sin of 2 pi bj/N,
        # and 1 and 0 for j = 0 and N
        t = (2.0 * np.pi / n_b) * (np.multiply.outer(np.arange(n_b + 1), np.arange(n_b)) % n_b)
        table = np.empty((n_b + 1, 2, n_b))
        table[:, 0], table[:, 1] = 2.0 * np.cos(t), -2.0 * np.sin(t)
        table[[0, n_b], 0], table[[0, n_b], 1] = 1.0, 0.0
        self.table = table.reshape(-1, n_b)
        # blocks of whole disks, or of points when one disk alone has more
        # than the 2 K_WEIGHT_BLOCK powers of a block
        budget = 2 * K_WEIGHT_BLOCK
        self.disks = max(1, min(m, budget // (n * (n_b + 1))))
        self.points = min(n, max(1, budget // (n_b + 1)))
        pairs = self.disks * self.points
        self.pair = np.empty((3, pairs), dtype=complex)  # alpha, x, x^p
        self.reals = np.empty((2, pairs))  # m_k / |alpha|^2, |x|^2
        self.powers = np.empty((n_b + 1) * pairs, dtype=complex)
        self.W = np.empty(n_a * pairs, dtype=complex)
        self.factor = np.empty(n_a * pairs)
        self.B = np.empty((m, n_a, n_b + 1), dtype=complex)
        self.part = np.empty((n_a, n_b + 1), dtype=complex)
        self.out = np.empty((m, n_a, n_b))
        self.sums = np.empty((m, n_a, n_b))

    def __call__(self, centers, radii, nodes) -> np.ndarray:
        m, n_a, n_b = nodes.shape
        centers = np.asarray(centers, dtype=complex)
        radii = np.asarray(radii, dtype=float)
        zbar, n = self.zbar, len(self.zbar)
        B = self.B[:m]
        for j in range(0, m, self.disks):
            jb = min(self.disks, m - j)
            for k in range(0, n, self.points):
                kb = min(self.points, n - k)
                P = jb * kb
                alpha, x, xp = (v[:P].reshape(jb, kb) for v in self.pair)
                c, x2 = (v[:P].reshape(jb, kb) for v in self.reals)
                np.multiply.outer(centers[j:j + jb], zbar[k:k + kb], out=alpha)
                np.subtract(1.0, alpha, out=alpha)
                np.multiply.outer(radii[j:j + jb], zbar[k:k + kb], out=x)
                x /= alpha
                # c = m_k / |alpha_k|^2 and x2 = |x_k|^2
                np.square(alpha.real, out=c)
                c += np.square(alpha.imag, out=x2)
                np.divide(self.mass[k:k + kb], c, out=c)
                np.square(x.real, out=x2)
                x2 += np.square(x.imag)
                # x^0..x^N by doubling: x^(p..2p-1) = x^(0..p-1) x^p
                V = self.powers[:(n_b + 1) * P].reshape(n_b + 1, P)
                V[0] = 1.0
                xp[...] = x
                p = 1
                while p <= n_b:
                    hi = min(2 * p, n_b + 1)
                    np.multiply(V[:hi - p], xp.reshape(P), out=V[p:hi])
                    np.square(xp, out=xp)
                    p *= 2
                # W = m_k / |alpha_k|^2 / (1 - sigma^2 |x|^2) / (1 - sigma^N x^N)
                f = self.factor[:n_a * P].reshape(n_a, P)
                np.multiply(self.sigma_sq, x2.reshape(P), out=f)
                np.subtract(1.0, f, out=f)
                np.divide(c.reshape(P), f, out=f)
                w = self.W[:n_a * P].reshape(n_a, P)
                np.multiply(self.sigma_n, V[n_b], out=w)
                np.subtract(1.0, w, out=w)
                np.divide(f, w, out=w)
                # B_aj (before sigma_a^j) = sum_k W_ak x_k^j, disk by disk
                w = w.reshape(n_a, jb, kb).transpose(1, 0, 2)
                v = V.reshape(n_b + 1, jb, kb).transpose(1, 2, 0)
                if k == 0:
                    np.matmul(w, v, out=B[j:j + jb])
                else:
                    B[j] += np.matmul(w[0], v[0], out=self.part)
        Bf = B.view(float)
        Bf *= self.scale
        out, sums = self.out[:m], self.sums[:m]
        # |w|^2 / 2 from the parts of the nodes
        np.square(nodes.real, out=out)
        out += np.square(nodes.imag, out=sums)
        out *= 0.5
        np.matmul(Bf.reshape(m * n_a, len(self.table)), self.table, out=sums.reshape(m * n_a, n_b))
        out *= sums
        return out


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
    on the nodes of all disks.

    Node layout (_mean_nodes): the nodes of disk j (centre c_j, radius s_j)
    lie on grid[0] circles about c_j of the midpoint radii
    (a + 1/2) s_j / grid[0], grid[1] nodes each at the angles of
    ring_angles, in one array of shape (m, grid[0], grid[1]).  _q_means
    then takes the midpoint rule over fun's values there; it adds no error
    beyond the rule's own and the rounding of its sums.  Working memory:
    the node array, fun's values and their moduli.
    """
    _check_q(q)
    nodes, rings = _mean_nodes(centers, radii, grid)
    return _q_means(fun(nodes), radii, rings, q)


def _check_q(q):
    """Raise ValueError unless q >= 1 or q is inf."""
    if not (q == np.inf or q == "inf" or float(q) >= 1.0):
        raise ValueError(f"q must be >= 1 or inf, got {q}")


def _mean_nodes(centers, radii, grid: tuple[int, int]):
    """Nodes of local_mean's midpoint polar rule on each Euclidean disk:
    w[j, a, b] = centers[j] + rings[j, a] e^{i t_b}, rings[j] the grid[0]
    midpoint radii of disk j and t_b the grid[1] angles of ring_angles.
    Returns (w, rings), shapes (m, n_r, n_t) and (m, n_r).  Each part of w
    is the one rounded product of the radius with the part of e^{i t},
    then the one rounded sum with the part of the centre: the numbers of
    the complex broadcast centers + rings e^{i t}, without its complex
    products."""
    rings = midpoint_radii(np.asarray(radii, dtype=float), grid[0])
    phase = np.exp(1j * ring_angles(grid[1]))
    w = np.empty(rings.shape + phase.shape, dtype=complex)
    np.multiply(rings[:, :, None, None], phase.view(float).reshape(-1, 2),
                out=w.view(float).reshape(w.shape + (2,)))
    w += np.asarray(centers, dtype=complex)[:, None, None]
    return w, rings


def _q_means(vals, radii, rings, q) -> np.ndarray:
    """q-means over each disk of |vals|, the values at _mean_nodes' nodes
    (shape (m, n_r, n_t)), by the midpoint polar rule: the grid supremum
    for q = inf."""
    # a real integrand is taken as real: no complex copy of every node's value
    vals = np.asarray(vals)
    vals = np.abs(vals.astype(complex if np.iscomplexobj(vals) else float, copy=False))
    if q == np.inf or q == "inf":
        return vals.max(axis=(1, 2))
    q = float(q)
    radius = np.asarray(radii, dtype=float)
    n_r, n_t = vals.shape[1:]
    dr = radius / n_r
    dt = 2.0 * np.pi / n_t
    integral = ((vals ** q) * rings[:, :, None]).sum(axis=(1, 2)) * dr * dt
    return (integral / (np.pi * radius ** 2)) ** (1.0 / q)
