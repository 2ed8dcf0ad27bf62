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
# k_weight_circles holds one double per pair, so its blocks of at most
# 2 K_WEIGHT_BLOCK pairs fill the same 256 KB.  Measured on the 24 outer
# rings of weighted_space_norm's default grid (32 disks of 576 nodes each,
# best of 5, one BLAS thread, 2-core Xeon), blocks of 2^12, 2^13, 2^14 and
# 2^15 pairs took 10.4, 8.4, 7.8 and 7.2 ms at 5 points, 59.7, 44.0, 35.3
# and 33.8 ms at 50 and 545, 387, 313 and 284 ms at 500: the largest block
# within the budget was the fastest at each size
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


def k_weight_circles(Z: PointSequence, centers, radii, angles) -> np.ndarray:
    """k_weight at the nodes w = centers[j] + radii[j, a] e^{i angles[b]} on
    circles about each centre: centers has shape (m,), radii (m, n_a), and
    the result (m, n_a, len(angles)).  With local_mean's midpoint radii and
    ring angles these are the nodes of its rule, bit for bit.

    In the frame of the centre C, with alpha = 1 - conj(z_k) C and
    beta = conj(alpha) conj(z_k), the denominator is the trigonometric form

        |1 - conj(z_k) w|^2 = |alpha|^2 + |z_k|^2 rho^2
                              - 2 Re(beta) rho cos t + 2 Im(beta) rho sin t,

    a product of the row (|alpha|^2, |z_k|^2, -2 Re beta, 2 Im beta) of
    point k and disk j with disk j's table of columns
    (1, rho^2, rho cos t, rho sin t), one column per node.  So each
    (point, node) pair costs one entry of a real matrix product and one
    reciprocal, and the mass-weighted sum over the points is one more
    product.  rho cos t and rho sin t are the parts of the node's offset
    from C, and |w|^2 comes from the node's parts C + rho e^{it}.

    Error model (u = 2^-53, the unit roundoff): the form's four terms have
    absolute sum at most |alpha|^2 (1 + q)^2 and its value is at least
    |alpha|^2 (1 - q)^2, q = |z_k| rho / |alpha|, which is below 1 when the
    circle lies in the unit disk.  So rounding the form costs each term
    t_k = (1 - |z_k|^2)^2 / |1 - conj(z_k) w|^2 a relative error of a few u
    times kappa = ((1 + q)/(1 - q))^2.  On a circle of local_mean's rule in
    a pseudohyperbolic disk D(c, r), q < 2r / (1 + r^2) for every |c| < 1,
    so (1 + q)/(1 - q) < ((1 + r)/(1 - r))^2 and kappa < ((1 + r)/(1 - r))^4,
    81 at r = 0.5.  Beside it each term carries a few u / |1 - conj(z_k) w|,
    the error of any evaluation at a rounded node (k_weight_many's too).
    The tests hold the difference from k_weight_many on the same nodes to
    32 u (|w|^2 / 2) sum_k t_k (kappa_k + 1 / |1 - conj(z_k) w|).

    Working memory: the nodes and the result, a table of 4 doubles per
    node, 7 doubles per (disk, point) pair (its row, alpha and one real
    temporary) and one product block of at most 2 K_WEIGHT_BLOCK pairs
    (256 KB of doubles): whole disks, or blocks of points when one disk
    alone has more.  Each work array is allocated once per call.
    """
    center = np.asarray(centers, dtype=complex)
    rho = np.asarray(radii, dtype=float)
    if len(Z) == 0:
        return np.zeros(rho.shape + np.shape(angles))
    nodes = _circle_nodes(center, rho, angles)
    return _CircleWeight(Z, len(rho), rho.shape[1], angles).weight(center, rho, nodes)


class _CircleWeight:
    """k_weight_circles for Z at up to m disks of n_a circles each, at the
    given angles, with every work array allocated once: weight() serves
    many sets of disks (one outer ring of weighted_space_norm each), and
    its result is a view of one array, valid until its next call.  Z must
    not be empty."""

    def __init__(self, Z: PointSequence, m: int, n_a: int, angles):
        a = Z.array
        n = len(a)
        self.a = a
        self.mass = (1.0 - np.abs(a) ** 2) ** 2
        self.phase = np.exp(1j * np.asarray(angles, dtype=float))
        n_b = len(self.phase)
        nodes = n_a * n_b
        # the table of disk j, rows (1, rho^2, rho cos t, rho sin t) by
        # (circle, angle), and the rows (|alpha|^2, |z_k|^2, -2 Re beta,
        # 2 Im beta) of its (disk, point) pairs
        self.table = np.empty((m, 4, n_a, n_b))
        self.table[:, 0] = 1.0
        self.rows = np.empty((m, n, 4))
        self.rows[:, :, 1] = a.real ** 2 + a.imag ** 2
        self.alpha = np.empty((m, n), dtype=complex)
        self.square = np.empty((m, n))
        # product blocks of whole disks, or of points when one disk alone
        # has more than the 256 KB of 2 K_WEIGHT_BLOCK doubles
        budget = 2 * K_WEIGHT_BLOCK
        self.disks = max(1, budget // (n * nodes))
        self.points = min(n, max(1, budget // nodes))
        self.work = np.empty(min(self.disks, m) * self.points * nodes)
        self.sums = np.empty((m, nodes))
        self.part = np.empty(nodes)
        self.out = np.empty((m, n_a, n_b))

    def weight(self, centers, rho, nodes) -> np.ndarray:
        """k_weight at nodes[j, a, b] = centers[j] + rho[j, a] e^{i t_b}, for
        the first len(centers) disks."""
        m = len(centers)
        a, n = self.a, len(self.a)
        table = self.table[:m]
        np.multiply(rho[:, :, None], rho[:, :, None], out=table[:, 1])
        np.multiply(rho[:, :, None], self.phase.real, out=table[:, 2])
        np.multiply(rho[:, :, None], self.phase.imag, out=table[:, 3])
        table = table.reshape(m, 4, -1)
        out, sums = self.out[:m], self.sums[:m]
        # |w|^2 / 2 from the parts of the nodes
        w = nodes.view(float)
        np.multiply(w[..., ::2], w[..., ::2], out=out)
        out += np.multiply(w[..., 1::2], w[..., 1::2], out=sums.reshape(out.shape))
        out *= 0.5
        alpha = np.multiply.outer(centers, a.conj(), out=self.alpha[:m])
        np.subtract(1.0, alpha, out=alpha)
        rows = self.rows[:m]
        np.square(alpha.real, out=rows[:, :, 0])
        rows[:, :, 0] += np.square(alpha.imag, out=self.square[:m])
        beta = np.multiply(alpha, a, out=alpha)  # conj(beta)
        np.multiply(beta.real, -2.0, out=rows[:, :, 2])
        np.multiply(beta.imag, -2.0, out=rows[:, :, 3])
        disks, points, mass = self.disks, self.points, self.mass
        for j in range(0, m, disks):
            jb = min(disks, m - j)
            for k in range(0, n, points):
                kb = min(points, n - k)
                prod = self.work[: jb * kb * table.shape[2]].reshape(jb, kb, -1)
                np.matmul(rows[j:j + jb, k:k + kb], table[j:j + jb], out=prod)
                np.reciprocal(prod, out=prod)
                if k == 0:
                    np.matmul(mass[:kb], prod, out=sums[j:j + jb])
                else:
                    sums[j] += np.matmul(mass[k:k + kb], prod[0], out=self.part)
        out *= sums.reshape(out.shape)
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
    Returns (w, rings), shapes (m, n_r, n_t) and (m, n_r)."""
    rings = midpoint_radii(np.asarray(radii, dtype=float), grid[0])
    return _circle_nodes(np.asarray(centers, dtype=complex), rings, ring_angles(grid[1])), rings


def _circle_nodes(center, rho, angles) -> np.ndarray:
    """center[j] + rho[j, a] e^{i angles[b]}, shape (m, n_a, len(angles)),
    each part the one rounded product of rho with the part of e^{i t},
    then the one rounded sum with the part of the centre: the numbers of
    the complex broadcast center + rho e^{i t}, without its complex
    products."""
    phase = np.exp(1j * np.asarray(angles, dtype=float))
    w = np.empty(rho.shape + phase.shape, dtype=complex)
    np.multiply(rho[:, :, None, None], phase.view(float).reshape(-1, 2),
                out=w.view(float).reshape(w.shape + (2,)))
    w.reshape(len(rho), -1)[...] += center[:, None]
    return w


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
