"""Minimum-norm interpolation on the disk.

Exact p=2 solves via reproducing kernels (locally on disk domains, and
globally on the whole disk), a convex discretized minimizer for general
p >= 1, the l^p target norm over cluster quotient norms, empirical
interpolation constants, the worked closed-form norms for single /
multiple / paired-point schemes, and the crowding-weighted (O-type)
interpolation machinery with its Blaschke product bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, perm

import numpy as np

from . import geometry as geo
from .errors import (
    DegeneratePair,
    DuplicatePoint,
    InfeasibleConstraints,
    MalformedJet,
    NonConvergence,
    PairTooFar,
    QuadratureDivergence,
    SingularGram,
)
from .geometry import PseudoDisk, as_complex, psi, psi_array, pseudo_to_euclidean
from .grids import disk_rule, gauss_jacobi, ring_angles
from .reps import (
    AnalyticFunctionRep,
    BlaschkeLagrangeRep,
    KernelRep,
    bergman_kernel_deriv,
    rep_as_callable,
)
from .schemes import Domain, InterpolationScheme, PointSequence, _touching_pairs

GRAM_CONDITION_LIMIT = 1e12
# Relative duality gap at which quotient_norm_general returns its value.
GAP_TOL = 1e-9
# Newton steps quotient_norm_general may take before it raises NonConvergence.
NEWTON_MAX_ITER = 60
# Quadrature nodes per block when assembling a Newton system.
_NODE_CHUNK = 4096
# Rows per block of the blocked QR of a union's basis values.
QR_BLOCK = 1024
# Default (radial, angular) quadrature grid of quotient_norm_general.
QUAD_GRID = (64, 256)
# target_norm's polynomial basis size for m constraints: max(UNION_BASIS, m).
UNION_BASIS = 32


@dataclass(frozen=True)
class JetConstraint:
    """Prescribe the order-th derivative value at a point."""

    point: complex
    order: int
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "point", as_complex(self.point))
        object.__setattr__(self, "value", complex(self.value))
        if int(self.order) < 0:
            raise MalformedJet(f"derivative order must be >= 0, got {self.order}")
        object.__setattr__(self, "order", int(self.order))


class JetTargets:
    """Per-cluster lists of jet constraints, parallel to a scheme's clusters.

    Constraints at a repeated point within a cluster must carry distinct
    orders 0..m-1 (m = number of constraints at that point).
    """

    def __init__(self, per_cluster):
        self.per_cluster = [list(c) for c in per_cluster]
        for cons in self.per_cluster:
            by_point: dict[complex, list[int]] = {}
            for c in cons:
                if not isinstance(c, JetConstraint):
                    raise MalformedJet(f"not a JetConstraint: {c!r}")
                by_point.setdefault(c.point, []).append(c.order)
            for pt, orders in by_point.items():
                if sorted(orders) != list(range(len(orders))):
                    raise MalformedJet(
                        f"orders at point {pt} must be 0..{len(orders) - 1}, got {orders}"
                    )

    def __len__(self) -> int:
        return len(self.per_cluster)

    def all_constraints(self) -> list[JetConstraint]:
        return [c for cons in self.per_cluster for c in cons]

    @classmethod
    def values_on_scheme(cls, scheme: InterpolationScheme, values) -> "JetTargets":
        """Order the flat value list along the scheme's clusters; repeated
        points within a cluster become jets of increasing order."""
        values = [complex(v) for v in values]
        if len(values) != len(scheme.sequence):
            raise MalformedJet("one value per sequence entry required")
        return cls([
            [JetConstraint(pt, o, values[i]) for i, pt, o in zip(*jets)]
            for jets in _cluster_jets(scheme)
        ])


def _repeat_orders(points) -> list[int]:
    """Derivative order of each point: the k-th repeat of a point is its
    order-k jet."""
    seen: dict[complex, int] = {}
    orders = []
    for z in points:
        orders.append(seen.get(z, 0))
        seen[z] = orders[-1] + 1
    return orders


def _cluster_jets(scheme: InterpolationScheme):
    """Per cluster: (member indices, points, derivative orders), repeats
    within a cluster being jets (_repeat_orders)."""
    out = []
    for c in scheme.clusters:
        points = [complex(scheme.sequence[i]) for i in c.members]
        out.append((list(c.members), points, _repeat_orders(points)))
    return out


@dataclass(frozen=True)
class SolveReport:
    function: AnalyticFunctionRep
    norm_value: float
    target_norm: float
    residuals: tuple[complex, ...]


def _gram(points, orders, center=0.0, s=1.0):
    """G[i, j] = d_z^{o_i} d_wbar^{o_j} K(z_i, z_j) for the kernel K of the
    Euclidean disk (center, s), filled one block per pair of orders."""
    z = np.asarray(points, dtype=complex)
    o = np.asarray(orders)
    levels = sorted(set(o.tolist()))
    if len(levels) == 1:
        m = levels[0]
        return bergman_kernel_deriv(z[:, None], z[None, :], m, m, center=center, s=s)
    G = np.empty((len(z), len(z)), dtype=complex)
    groups = [(k, np.flatnonzero(o == k)) for k in levels]
    for m, rows in groups:
        for n, cols in groups:
            G[np.ix_(rows, cols)] = bergman_kernel_deriv(
                z[rows, None], z[None, cols], m, n, center=center, s=s
            )
    return G


def _kernel_factor(points, orders, center=0.0, s=1.0):
    """Cholesky factor L of the kernel Gram matrix G = L L^H of the jets on
    the Euclidean disk (center, s) (_gram), so that the minimum A^2 norm of
    an interpolant of w is ||L^-1 w||.  Raises SingularGram unless G's
    2-norm condition number is at most GRAM_CONDITION_LIMIT."""
    G = _gram(points, orders, center, s)
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
        raise SingularGram(
            f"Gram condition number {cond:.3e} exceeds {GRAM_CONDITION_LIMIT:.0e}"
        )
    return np.linalg.cholesky(G)


def _p2_norm(domain, constraints) -> float:
    """The p = 2 quotient norm ||F^-1 w|| of the constraints on a domain
    (a scheme's Domain), F its _cluster_factor."""
    F = _cluster_factor(domain, [c.point for c in constraints], [c.order for c in constraints])
    return float(np.linalg.norm(np.linalg.solve(F, [c.value for c in constraints])))


def quotient_norm_p2(domain: PseudoDisk, constraints) -> float:
    """Exact minimum A^2(G) norm over functions meeting the jet constraints,
    G the given pseudohyperbolic disk, via its reproducing kernel."""
    constraints = list(constraints)
    if not constraints:
        return 0.0
    for c in constraints:
        if psi(domain.center, c.point) > domain.radius:
            raise ValueError(f"constraint point {c.point} outside the domain")
    return _p2_norm(Domain((domain,)), constraints)


def _ball_rules(domain, n_radial, n_angular):
    """Per ball of the domain, in order: (e, r, w, nodes, own), e its
    Euclidean disk, r and w the radii and per-node weights of its
    disk_rule rings, nodes its n_radial x n_angular nodes (one row per
    ring) and own the mask of those it owns.

    A node is owned by the lowest-index ball containing it, so overlaps
    count once.  A ball's nodes lie strictly inside it (the largest
    Gauss-Legendre radius is below the ball's), so only the earlier balls
    that meet it, found by `schemes._touching_pairs`, are tested.
    """
    balls = [domain] if isinstance(domain, PseudoDisk) else list(domain.balls)
    # earlier[k]: the balls before ball k that meet it
    earlier = [[] for _ in balls]
    if len(balls) > 1:
        pairs = _touching_pairs(np.array([b.center for b in balls], dtype=complex),
                                np.array([b.radius for b in balls]))
        for i, j in zip(*pairs):
            earlier[max(i, j)].append(balls[min(i, j)])
    ang = ring_angles(n_angular)
    rules = []
    for e, before in zip((pseudo_to_euclidean(b) for b in balls), earlier):
        r, w = disk_rule(e.radius, n_radial, n_angular)
        nodes = e.center + r[:, None] * np.exp(1j * ang[None, :])
        own = np.ones(nodes.shape, dtype=bool)
        for b2 in before:
            own &= psi_array(nodes, b2.center) >= b2.radius
        rules.append((e, r, w, nodes, own))
    return rules


def domain_quadrature(domain, n_radial: int = QUAD_GRID[0], n_angular: int = QUAD_GRID[1]):
    """Quadrature nodes/weights for dA over a pseudohyperbolic disk or a
    union-of-balls domain.

    Gauss-Legendre radial x uniform angular per ball; in a union, a node
    not owned by its ball (_ball_rules) has weight 0, so overlaps count
    once.  The single-disk rule integrates |polynomial|^2 exactly for
    degrees below the node counts.
    """
    all_nodes = []
    all_weights = []
    for _, _, w, nodes, own in _ball_rules(domain, n_radial, n_angular):
        weights = np.broadcast_to(w[:, None], nodes.shape).copy()
        weights[~own] = 0.0
        all_nodes.append(nodes.ravel())
        all_weights.append(weights.ravel())
    return np.concatenate(all_nodes), np.concatenate(all_weights)


def _constraint_matrix(points, orders, center, s, basis_size):
    """The constraint functionals on the scaled monomials ((z - center)/s)^k."""
    v = (np.asarray(points, dtype=complex)[:, None] - center) / s
    o = np.asarray(orders)[:, None]
    k = np.arange(basis_size)[None, :]
    falling = np.array([[perm(kk, oo) for kk in range(basis_size)] for oo in orders], dtype=float)
    return falling * v ** np.maximum(k - o, 0) / s ** o


def _lp_norm(u, weights, p):
    """(sum_i w_i |u_i|^p)^(1/p), or max |u_i| at p = inf, scaled against overflow."""
    a = np.abs(u)
    top = float(a.max())
    if p == np.inf or top == 0.0:
        return top
    return top * float((weights * (a / top) ** p).sum()) ** (1.0 / p)


class _DenseMap:
    """t -> M t into values at the quadrature nodes, M a dense node x
    coordinate matrix (on a union of balls)."""

    def __init__(self, M):
        self.M = M

    def values(self, t):
        return self.M @ t

    def adjoint(self, y):
        """M^H y."""
        return np.conj(np.conj(y) @ self.M)

    def forms(self, S, D):
        """(M^H diag(S) M, M^T diag(D) M), assembled in node chunks."""
        m = self.M.shape[1]
        A = np.zeros((m, m), dtype=complex)
        B = np.zeros((m, m), dtype=complex)
        for lo in range(0, len(S), _NODE_CHUNK):
            Mc = self.M[lo:lo + _NODE_CHUNK]
            A += Mc.conj().T @ (S[lo:lo + _NODE_CHUNK, None] * Mc)
            B += Mc.T @ (D[lo:lo + _NODE_CHUNK, None] * Mc)
        return A, B


class _RingMap:
    """t -> Phi X t at the nodes of a disk's quadrature, n_t nodes on each
    ring, without forming Phi: basis function k of Phi is
    x_j^modes[k] / nu[k] e^(i modes[k] theta) at angle theta of ring j, so
    each operation is one FFT per ring."""

    def __init__(self, x, nu, modes, n_t, X):
        self.x, self.nu, self.modes, self.n_t, self.X = x, nu, modes, n_t, X
        self.P = x[:, None] ** modes / nu

    def values(self, t):
        F = np.zeros((len(self.x), self.n_t), dtype=complex)
        F[:, self.modes] = self.P * (self.X @ t)
        return np.fft.ifft(F, axis=1, norm="forward").ravel()

    def adjoint(self, y):
        """(Phi X)^H y."""
        Y = np.fft.fft(y.reshape(len(self.x), self.n_t), axis=1)[:, self.modes]
        return self.X.conj().T @ (self.P * Y).sum(axis=0)

    def forms(self, S, D):
        """((Phi X)^H diag(S) Phi X, (Phi X)^T diag(D) Phi X).

        Entry (k, l) of the first sums P_jk P_jl = x_j^(k+l) / (nu_k nu_l)
        against the FFT of S on ring j at k - l, of the second against the
        FFT of D at -(k + l): both come from sums over the rings of
        x_j^a times one FFT coefficient, a = k + l."""
        k, n = self.modes, self.n_t
        a = np.arange(2 * k[-1] + 1)
        xa = self.x[:, None] ** a
        # S is real, so its FFT at n - i is the conjugate of that at i
        i = (a - k[-1]) % n
        Sh = np.fft.rfft(S.reshape(len(self.x), n), axis=1)[:, np.minimum(i, n - i)]
        Sh = np.where(i > n - i, np.conj(Sh), Sh)
        Dh = np.fft.fft(D.reshape(len(self.x), n), axis=1)[:, -a % n]
        kk, nn = k[:, None] + k[None, :], np.outer(self.nu, self.nu)
        A = (xa.T @ Sh)[kk, k[:, None] - k[None, :] + k[-1]] / nn
        B = (xa * Dh).sum(axis=0)[kk] / nn
        return self.X.conj().T @ A @ self.X, self.X.T @ B @ self.X


def _newton_system(u, M, weights, p, delta):
    """Gradient and Hessian of sum_i w_i (|u_i|^2 + delta^2)^(p/2) in the
    real unknowns (Re t, Im t) of u = b + M t.

    Each node's 2 x 2 Hessian in u has the radial and tangential
    eigenvalues rad = p (p-1) |u|^(p-2) and tang = p |u|^(p-2) (smoothed
    when delta > 0), so a step du = M t adds the quadratic form
    sum S |du|^2 + Re(D du^2), S = (rad + tang)/2 and D = (rad - tang)/2
    conj(u)^2/|u|^2.  With A = M^H S M and B = M^T D M the real Hessian is
    [[A + B, -Ai - Bi], [Ai - Bi, A - B]], real parts unsubscripted.
    """
    a2 = np.abs(u) ** 2
    rho = a2 + delta * delta
    tang = weights * p * rho ** (0.5 * p - 1.0)
    rad = tang * ((p - 1.0) * a2 + delta * delta) / rho if delta else (p - 1.0) * tang
    A, B = M.forms(0.5 * (rad + tang),
                   0.5 * (rad - tang) / np.where(a2 > 0.0, a2, 1.0) * np.conj(u) ** 2)
    v = M.adjoint(tang * u)
    H = np.block([[A.real + B.real, -A.imag - B.imag], [A.imag - B.imag, A.real - B.real]])
    return np.concatenate([v.real, v.imag]), H


def _holder_bracket(u, b, M, weights, p, delta):
    """(upper, lower) bounds on min_t ||b + M t||_p at the feasible u.

    upper = ||u||_p.  Any k projected onto the annihilator of M (whose
    columns are orthonormal in the quadrature inner product) has
    <b + M t, k> = <b, k> for every t, so Hölder gives
    lower = |<b, k>| / ||k||_q, q = p / (p - 1).  The gradient of the
    smoothed objective, k = (|u|^2 + delta^2)^(p/2 - 1) u, makes it tight
    at the minimiser; the smoothing keeps k right where u vanishes.
    """
    k = u * (np.abs(u) ** 2 + delta * delta) ** (0.5 * p - 1.0)
    k -= M.values(M.adjoint(weights * k))
    kq = _lp_norm(k, weights, np.inf if p == 1.0 else p / (p - 1.0))
    lower = abs(complex(np.vdot(k, weights * b))) / kq if kq > 0.0 else 0.0
    return _lp_norm(u, weights, p), lower


def _tsqr_r(A, overwrite_q=False):
    """R of a QR factorisation A = Q R of the matrix A (R's rows up to unit
    factors; min(rows, columns) of them): Householder QR of row blocks of
    QR_BLOCK, then of their stacked R factors, so it is as backward stable
    as one QR of A.  With overwrite_q, A is overwritten by Q, each block's
    Q times its rows of the second QR's Q, and no other array of A's size
    is formed.  It factors a union's whole basis values at p != 2, and at
    p = 2 only those at the nodes of its partly owned rings (_union_r)."""
    blocks = range(0, len(A), QR_BLOCK)
    Rs = []
    for lo in blocks:
        if overwrite_q:
            Qb, Rb = np.linalg.qr(A[lo:lo + QR_BLOCK])
            A[lo:lo + QR_BLOCK, :Qb.shape[1]] = Qb
        else:
            Rb = np.linalg.qr(A[lo:lo + QR_BLOCK], mode="r")
        Rs.append(Rb)
    if len(Rs) == 1:
        return Rs[0]
    if not overwrite_q:
        return np.linalg.qr(np.vstack(Rs), mode="r")
    Q2, R = np.linalg.qr(np.vstack(Rs))
    row = 0
    for lo, Rb in zip(blocks, Rs):
        k = len(Rb)
        A[lo:lo + QR_BLOCK] = A[lo:lo + QR_BLOCK, :k] @ Q2[row:row + k]
        row += k
    return R


def _rank(sv, rows, basis_size):
    """Which singular values sv to keep: those above eps * max(rows,
    basis_size) of the largest, as numpy's lstsq keeps them."""
    return sv > sv.max() * np.finfo(float).eps * max(rows, basis_size)


def _ring_norms(r, w, s, n_t, basis_size):
    """nu_l = (n_t sum_j w_j (r_j/s)^(2l))^(1/2), l < basis_size: the
    quadrature norm of ((z - c)/s)^l over rings of radii r_j about c, n_t
    nodes of weight w_j on ring j."""
    powers = (r / s)[:, None] ** np.arange(basis_size)
    return np.sqrt(n_t * (w @ powers ** 2))


def _weighted_monomials(x, weights, basis_size):
    """sqrt(weights) x^k for k < basis_size, column by column in Fortran
    order, so that each column is contiguous."""
    A = np.empty((len(x), basis_size), dtype=complex, order="F")
    A[:, 0] = np.sqrt(weights)
    for k in range(1, basis_size):
        np.multiply(A[:, k - 1], x, out=A[:, k])
    return A


def _union_r(domain, center, basis_size, grid):
    """(R, s, rows): an upper-triangular R with R^H R = A^H A for the
    weighted scaled monomials A = sqrt(w) ((z - center)/s)^k at the `rows`
    nodes a union of balls owns (_ball_rules), s the largest |z - center|
    among them, without forming A.

    On a ring of radius r about ball j's Euclidean centre c_j,
    ((z - center)/s)^k = sum_{l <= k} C(k, l) a^(k - l) (r/s)^l e^(il theta),
    a = (c_j - center)/s, and the e^(il theta) for l < n_t are orthogonal
    over the ring's n_t angles.  So the rows of the rings the ball owns in
    full have the exact triangle diag(nu) P, nu from _ring_norms over those
    rings and P[l, k] = C(k, l) a^(k - l).  Only the owned nodes of rings
    owned in part are formed, and reduced by _tsqr_r; R is the R of their
    factor stacked over the triangles.  The triangles go last: rows of very
    different size at the top of an unpivoted Householder QR cost it about
    a digit.
    """
    rules = _ball_rules(domain, *grid)
    s = max(float(np.abs(z[own] - center).max(initial=0.0)) for _, _, _, z, own in rules)
    k = np.arange(basis_size)
    binom = np.array([[comb(kk, ll) for kk in k] for ll in k], dtype=float)
    part_x, part_w, triangles = [], [], []
    for e, r, w, nodes, own in rules:
        full = own.all(axis=1)
        part = own & ~full[:, None]
        part_x.append((nodes[part] - center) / s)
        part_w.append(np.broadcast_to(w[:, None], own.shape)[part])
        if full.any():
            nu = _ring_norms(r[full], w[full], s, grid[1], basis_size)
            a = (e.center - center) / s
            triangles.append(nu[:, None] * binom * a ** np.maximum(k - k[:, None], 0))
    x = np.concatenate(part_x)
    if len(x):
        triangles.insert(0, _tsqr_r(_weighted_monomials(x, np.concatenate(part_w), basis_size)))
    rows = sum(int(own.sum()) for *_, own in rules)
    return np.linalg.qr(np.vstack(triangles), mode="r"), s, rows


def _disk_constraints(e, points, orders, basis_size, grid, with_span):
    """_basis_constraints on the Euclidean disk e, in closed form.

    The scaled monomials ((z - c)/s)^k about its centre are orthogonal in
    the quadrature inner product: on each ring their angular sums are sums
    of roots of unity, which vanish for 0 < |k - k'| < n_t.  Divided by
    their quadrature norms nu_k (_ring_norms) they are orthonormal to
    rounding with no QR, and nu holds the singular values.  s is the
    largest Gauss-Legendre radius.
    """
    n_r, n_t = grid
    r, w = disk_rule(e.radius, n_r, n_t)
    s = float(r.max())
    nu = _ring_norms(r, w, s, n_t, basis_size)
    modes = np.flatnonzero(_rank(nu, n_r * n_t, basis_size))
    C = _constraint_matrix(points, orders, e.center, s, basis_size)[:, modes] / nu[modes]
    if not with_span:
        return C, None, None
    return C, lambda X: _RingMap(r / s, nu[modes], modes, n_t, X), np.repeat(w, n_t)


def _basis_constraints(domain, points, orders, basis_size, grid, with_span):
    """The constraint matrix C in quotient_norm_general's orthonormal basis
    Phi of the scaled monomials.

    Returns (C, span, weights).  span(X) is the map t -> Phi X t into the
    values at the quadrature nodes that carry weight, whose weights are
    `weights`; both are None unless `with_span`.  A disk has the closed
    form of _disk_constraints.  On a union of balls the weighted scaled
    monomials at the owned nodes factor as Q R, and R's SVD gives Phi.
    Without `with_span` only R is needed: _union_r QRs the partly owned
    rings alone, and the rings a ball owns in full enter as closed-form
    triangles.  With it the blocked QR writes Q over the monomials at
    every owned node, and Q @ Ur is Phi times sqrt(weights) there.
    """
    balls = [domain] if isinstance(domain, PseudoDisk) else list(domain.balls)
    if len(balls) == 1:
        return _disk_constraints(pseudo_to_euclidean(balls[0]), points, orders, basis_size,
                                 grid, with_span)
    center = np.mean([pseudo_to_euclidean(b).center for b in balls])
    if with_span:
        nodes, weights = domain_quadrature(domain, *grid)
        owned = weights > 0.0
        U, weights = nodes[owned] - center, weights[owned]
        s = float(np.abs(U).max())
        rows = len(U)
        Q = _weighted_monomials(U / s, weights, basis_size)
        R = _tsqr_r(Q, overwrite_q=True)
    else:
        # R alone carries the singular values and right singular vectors
        R, s, rows = _union_r(domain, center, basis_size, grid)
    Ur, sa, Wh = np.linalg.svd(R)
    r = int(_rank(sa, rows, basis_size).sum())
    T = Wh[:r].conj().T / sa[:r]  # monomial coefficients of the orthonormal basis
    C = _constraint_matrix(points, orders, center, s, basis_size) @ T
    if not with_span:
        return C, None, None
    sw = np.sqrt(weights)
    return C, lambda X: _DenseMap((Q @ (Ur[:, :r] @ X)) / sw[:, None]), weights


def _min_norm_coeffs(C, W):
    """Minimum-norm solutions of C c = w for the columns w of W, by the SVD
    of C; returns (coefficients, rows spanning the null space of C).
    Raises InfeasibleConstraints if some column has no solution."""
    Uc, sv, Vh = np.linalg.svd(C, full_matrices=True)
    rank = int((sv > sv[0] * 1e-13).sum())
    c2 = Vh[:rank].conj().T @ ((Uc[:, :rank].conj().T @ W) / sv[:rank, None])
    if (np.abs(C @ c2 - W).max(axis=0) > 1e-8 * (1.0 + np.abs(W).max(axis=0))).any():
        raise InfeasibleConstraints("constraint system unsolvable in this basis")
    return c2, Vh[rank:]


def quotient_norm_general(
    domain,
    constraints,
    p: float,
    basis_size: int = 32,
    grid: tuple[int, int] = QUAD_GRID,
) -> float:
    """Minimum (int_G |g|^p dA)^(1/p) over polynomials g of degree
    < basis_size meeting the constraints, on the `domain_quadrature` grid.

    Works in the scaled basis ((z - c)/s)^k, c the mean of the balls'
    Euclidean centres and s the largest |node - c| over nodes with weight,
    made orthonormal in the quadrature inner product to rounding: on a disk
    by dividing each monomial by its quadrature norm (the monomials are
    orthogonal there), on a union of balls by a Householder QR of the
    weighted basis values.  Directions whose singular value is below
    eps * (node count) of the largest, which float64 cannot resolve, are
    dropped, as numpy's lstsq drops them.  In that basis the p = 2
    minimiser is closed form, and at p = 2 its norm is returned; on a
    union that needs R alone, and only the nodes of its partly owned rings
    are QR'd, the rings a ball owns in full entering as closed-form
    triangles (_union_r).  Otherwise damped Newton runs from it on the
    real and imaginary parts of the null-space coordinates (on the
    smoothed (|g|^2 + d^2)^(p/2), d shrinking towards 0, when p < 2) and
    the value is returned once the relative gap between
    the objective and a Hölder lower bound is at most GAP_TOL: it is then
    certified to GAP_TOL for the discretised problem.  On a disk every
    product with the null-space basis is one FFT per ring of nodes
    (_RingMap), so no node x basis matrix is formed.  Raises
    NonConvergence if the gap is still open after NEWTON_MAX_ITER steps,
    and ValueError if basis_size exceeds the angular node count, past which
    a ring cannot keep the monomials orthogonal.
    """
    constraints = list(constraints)
    if not constraints:
        return 0.0
    if p < 1.0:
        raise ValueError(f"general quotient norm requires p >= 1, got {p}")
    if basis_size < len(constraints):
        raise ValueError("basis_size must be >= number of constraints")
    if basis_size > grid[1]:
        raise ValueError(f"basis_size must be <= the angular node count {grid[1]}")
    w = np.array([c.value for c in constraints], dtype=complex)
    if not w.any():
        return 0.0
    C, span, weights = _basis_constraints(
        domain, [c.point for c in constraints], [c.order for c in constraints],
        basis_size, grid, with_span=p != 2.0,
    )
    c2, null = _min_norm_coeffs(C, w[:, None])
    if p == 2.0:
        return float(np.linalg.norm(c2))
    b = span(c2).values(np.ones(1))  # the p = 2 minimiser at the nodes
    M = span(null.conj().T)
    del span  # on a union, frees Q

    m = len(null)
    delta = 0.1 * _lp_norm(b, weights, 2.0) / np.sqrt(weights.sum()) if p < 2.0 else 0.0
    u = b

    def objective(v):
        return float((weights * (np.abs(v) ** 2 + delta * delta) ** (0.5 * p)).sum())

    for it in range(NEWTON_MAX_ITER + 1):
        upper, lower = _holder_bracket(u, b, M, weights, p, delta)
        if upper - lower <= GAP_TOL * upper:
            return upper
        if it == NEWTON_MAX_ITER:
            break
        g, H = _newton_system(u, M, weights, p, delta)
        x = np.linalg.solve(H, -g)
        du = M.values(x[:m] + 1j * x[m:])
        f0, slope = objective(u), float(g @ x)
        step = 1.0
        # Armijo backtracking while the predicted decrease is above the
        # rounding in f; below it Newton is in its quadratic range
        while (-slope > 1e-12 * f0 and step > 1e-12
               and objective(u + step * du) > f0 + 0.25 * step * slope):
            step *= 0.5
        u = u + step * du
        # shrink the smoothing once its problem is nearly solved, while it
        # still moves the objective by more than the tolerance
        if delta and -slope <= 1e-3 * f0 and f0 - upper ** p > 0.1 * GAP_TOL * upper ** p:
            delta *= 0.1
    raise NonConvergence(
        f"relative gap {(upper - lower) / upper:.2e} above {GAP_TOL:.0e} "
        f"after {NEWTON_MAX_ITER} Newton steps"
    )


def target_norm(scheme: InterpolationScheme, targets: JetTargets, p: float) -> float:
    """l^p direct-sum norm (sum_k ||w_k||_{E_k}^p)^(1/p) over the clusters.

    At p = 2 each cluster norm is ||F^-1 w||, F the cluster's
    _cluster_factor (so a union raises InfeasibleConstraints if any target
    of the cluster would); at other p it is quotient_norm_general's, with
    max(UNION_BASIS, m) monomials for m constraints.
    """
    if len(targets) != len(scheme.clusters):
        raise MalformedJet("targets must be parallel to the scheme's clusters")
    total = 0.0
    for dom, cons in zip(scheme.domains, targets.per_cluster):
        if not cons:
            continue
        if p == 2.0:
            q = _p2_norm(dom, cons)
        else:
            q = quotient_norm_general(dom, cons, p, basis_size=max(UNION_BASIS, len(cons)))
        total += q ** p
    return total ** (1.0 / p)


def solve_p2(scheme: InterpolationScheme, targets: JetTargets) -> SolveReport:
    """Unique minimum-A^2(disk)-norm function meeting every constraint of
    every cluster, via the global kernel K(z,w) = 1/(pi (1 - conj(w) z)^2).

    The residuals evaluate the returned function, one batched
    `KernelRep.derivative` call per constraint order, independently of the
    solve."""
    cons = targets.all_constraints()
    if not cons:
        return SolveReport(KernelRep(()), 0.0, 0.0, ())
    pts = np.array([c.point for c in cons])
    orders = np.array([c.order for c in cons])
    vals = np.array([c.value for c in cons])
    L = _kernel_factor(pts, orders)
    y = np.linalg.solve(L, vals)
    coeffs = np.linalg.solve(L.conj().T, y)
    f = KernelRep(tuple((c.point, c.order, complex(a)) for c, a in zip(cons, coeffs)))
    residuals = np.empty(len(cons), dtype=complex)
    for k in np.unique(orders):
        sel = orders == k
        residuals[sel] = f.derivative(pts[sel], int(k)) - vals[sel]
    return SolveReport(
        function=f,
        norm_value=float(np.linalg.norm(y)),
        target_norm=target_norm(scheme, targets, 2.0),
        residuals=tuple(complex(r) for r in residuals),
    )


def _cluster_factor(domain, points, orders):
    """The m x m lower-triangular F with the cluster's p = 2 quotient norm
    ||w|| = ||F^-1 w||, after the checks every target of the cluster must
    pass.

    On a disk F is the _kernel_factor of its Euclidean image, after its
    condition gate.  On a union of balls, with C the constraint matrix in
    quotient_norm_general's orthonormal basis (max(UNION_BASIS, m)
    monomials, default grid), the norm is that of the minimum-norm solution
    of C c = w, sqrt(w^H (C C^H)^-1 w); after the feasibility test for
    every unit target (so C has full row rank), F = R^H from the QR of C^H,
    so F F^H = C C^H.  C comes from the union's R factor (_union_r), for
    which only its partly owned rings are QR'd and the rings a ball owns
    in full enter as closed-form triangles.
    """
    if domain.is_disk:
        e = pseudo_to_euclidean(domain.balls[0])
        return _kernel_factor(points, orders, e.center, e.radius)
    C = _basis_constraints(
        domain, points, orders, max(UNION_BASIS, len(points)), QUAD_GRID, with_span=False
    )[0]
    _min_norm_coeffs(C, np.eye(len(C)))
    return np.linalg.qr(C.conj().T, mode="r").conj().T


def _scheme_forms(scheme: InterpolationScheme):
    """(members, L, factors): each cluster's member indices, the
    _kernel_factor L of the scheme's jets in cluster order and each
    cluster's _cluster_factor."""
    jets = _cluster_jets(scheme)
    L = _kernel_factor([z for _, pts, _ in jets for z in pts],
                       [o for _, _, ords in jets for o in ords])
    factors = [_cluster_factor(dom, pts, ords) for dom, (_, pts, ords) in zip(scheme.domains, jets)]
    return [m for m, _, _ in jets], L, factors


def interpolation_constant_probe(
    scheme: InterpolationScheme, trials: int, seed: int
) -> float:
    """Empirical interpolation constant: max over random unit-sphere target
    draws of global-solve norm over target norm, at p = 2.

    A lower bound of `interpolation_constant_p2`, kept as a cross-check of
    it, from the same factors: the global norm of a target v is
    ||L^-1 v||, a cluster's norm of its part v_k is ||F_k^-1 v_k||.  All
    draws are solved as the columns of one right-hand side."""
    rng = np.random.default_rng(seed)
    n = len(scheme.sequence)
    V = np.empty((n, trials), dtype=complex)
    for t in range(trials):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        V[:, t] = v / np.linalg.norm(v)
    if not trials:
        return 0.0
    members, L, factors = _scheme_forms(scheme)
    norms = np.linalg.norm(np.linalg.solve(L, V[[i for m in members for i in m]]), axis=0)
    target = np.sqrt(sum(np.linalg.norm(np.linalg.solve(F, V[m]), axis=0) ** 2
                         for F, m in zip(factors, members)))
    ok = target > 0.0
    return float((norms[ok] / target[ok]).max(initial=0.0))


def interpolation_constant_p2(scheme: InterpolationScheme) -> float:
    """Exact p = 2 interpolation constant of the scheme: the largest ratio of
    the minimum A^2(disk) norm of an interpolant to the target norm,
    sqrt(lambda_max(G^-1, B)) = ||L^-1 F||_2.

    G = L L^H is the kernel Gram matrix of the scheme's jets and B the block
    diagonal of the clusters' p = 2 quotient forms B_k = (F_k F_k^H)^-1,
    F_k the square factor of _cluster_factor: the inverse kernel Gram
    matrix of a disk domain, and on a union of balls (C C^H)^-1 for its
    constraint matrix C in quotient_norm_general's orthonormal basis, so
    union blocks are exact only up to that quadrature and polynomial
    basis.  With F the block diagonal of the F_k,
    lambda_max(G^-1, B) = lambda_max(F^H G^-1 F), the largest squared
    singular value of L^-1 F; no inverse of B and no product F_k F_k^H is
    formed.  Raises SingularGram and InfeasibleConstraints where the probe
    would.
    """
    _, L, factors = _scheme_forms(scheme)
    F = np.zeros_like(L)
    lo = 0
    for f in factors:
        F[lo:lo + len(f), lo:lo + len(f)] = f
        lo += len(f)
    return float(np.linalg.norm(np.linalg.solve(L, F), 2))


def example1_norm(Z: PointSequence, values, p: float) -> float:
    """Simple-interpolation norm (sum |w_k|^p (1-|z_k|^2)^2)^(1/p)."""
    a = Z.array
    if len(np.unique(a)) != len(a):
        raise DuplicatePoint("example1_norm requires distinct points")
    w = np.asarray(values, dtype=complex)
    return float((np.abs(w) ** p * (1.0 - np.abs(a) ** 2) ** 2).sum() ** (1.0 / p))


def example2_norm(points, jets, p: float) -> float:
    """Multiple-interpolation norm
    (sum_k sum_j |w_k^(j)|^p (1-|z_k|^2)^(p j + 2))^(1/p);
    `jets` is one list of derivative values (order 0, 1, ...) per point."""
    total = 0.0
    for z, jet in zip(points, jets):
        zz = as_complex(z)
        for j, w in enumerate(jet):
            total += abs(complex(w)) ** p * (1.0 - abs(zz) ** 2) ** (p * j + 2)
    return total ** (1.0 / p)


def example3_representative(a, b, u, v) -> BlaschkeLagrangeRep:
    """Two-point interpolant f = u + (v - u) M_a(z)/M_a(b); f(a)=u, f(b)=v."""
    av, bv = as_complex(a), as_complex(b)
    if psi(av, bv) < 1e-10:
        raise DegeneratePair(f"points {av} and {bv} are pseudohyperbolically equal")
    return BlaschkeLagrangeRep(
        (
            (complex(u), ()),
            (complex(v) - complex(u), ((av, bv),)),
        )
    )


def example3_norm(pairs, p: float) -> float:
    """Paired-point norm
    (sum (|u_k|^p + |(v_k - u_k)/psi(a_k,b_k)|^p)(1-|a_k|^2)^2)^(1/p)."""
    total = 0.0
    for a, b, u, v in pairs:
        av, bv = as_complex(a), as_complex(b)
        d = psi(av, bv)
        if d >= 0.99:
            raise PairTooFar(f"psi({av},{bv}) = {d} >= 0.99")
        if d < 1e-10:
            raise DegeneratePair(f"points {av} and {bv} coincide")
        total += (abs(complex(u)) ** p + abs((complex(v) - complex(u)) / d) ** p) * (
            1.0 - abs(av) ** 2
        ) ** 2
    return total ** (1.0 / p)


def _crowding(points: np.ndarray):
    """Per-point (n_gamma, delta_gamma): number of *other* points within
    psi-distance 1/2, and psi-distance to the nearest other point (1 for
    singletons)."""
    n = len(points)
    if n == 1:
        return np.array([0]), np.array([1.0])
    d = geo.psi_matrix(points, points)
    np.fill_diagonal(d, np.inf)
    n_gamma = (d < 0.5).sum(axis=1)
    delta = d.min(axis=1)
    return n_gamma, delta


def o_interp_weight(Z: PointSequence, coeffs, p: float, alpha: float = 0.0) -> float:
    """Crowding-weighted interpolation sum
    sum |c|^p (1-|gamma|^2)^(alpha+2) / delta^(p n); n counts the other
    points within psi-distance 1/2 of gamma, delta is the distance to the
    nearest other point (1 for singletons)."""
    a = Z.array
    if len(np.unique(a)) != len(a):
        raise DuplicatePoint("o_interp_weight requires distinct points")
    if not -1.0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and > -1, got {alpha}")
    if not 0.0 < p < np.inf:
        raise ValueError(f"p must be finite and positive, got {p}")
    c = np.asarray(coeffs, dtype=complex)
    n_gamma, delta = _crowding(a)
    return float(
        (
            np.abs(c) ** p
            * (1.0 - np.abs(a) ** 2) ** (alpha + 2.0)
            / delta ** (p * n_gamma)
        ).sum()
    )


def lagrange_cluster_interpolant(points, values) -> BlaschkeLagrangeRep:
    """Blaschke-Lagrange interpolant
    f(z) = sum_gamma c_gamma prod_{beta != gamma} M_beta(z)/M_beta(gamma);
    exact at every node."""
    pts = [as_complex(z) for z in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoint("interpolation nodes must be distinct")
    if len(pts) > 16:
        raise ValueError("cluster size capped at 16")
    vals = [complex(v) for v in values]
    terms = []
    for g, (gamma, c) in enumerate(zip(pts, vals)):
        factors = tuple((beta, gamma) for k, beta in enumerate(pts) if k != g)
        terms.append((c, factors))
    return BlaschkeLagrangeRep(tuple(terms))


def blaschke_bound_check(points, gamma_index: int, z) -> tuple[float, float]:
    """Magnitude of prod_{beta != gamma} M_beta(z)/M_beta(gamma) together
    with the bound 2^B / delta_gamma^{n_gamma} (B = cluster size)."""
    pts = np.array([as_complex(p) for p in points], dtype=complex)
    zv = as_complex(z)
    gamma = pts[gamma_index]
    beta = np.delete(pts, gamma_index)
    value = np.prod(psi_array(beta, zv) / psi_array(beta, gamma))
    n_gamma, delta = _crowding(pts)
    bound = 2.0 ** len(pts) / delta[gamma_index] ** n_gamma[gamma_index]
    return float(value), float(bound)


def weighted_norms(
    f, p: float, alpha: float = 0.0, grid: tuple[int, int] = (128, 256)
) -> float:
    """(int_D |f|^p (1-|z|^2)^alpha dA)^(1/p) by Gauss-Jacobi radial (weight
    (1-x)^alpha in x = r^2, so the boundary weight is integrated exactly)
    times a uniform angular rule."""
    if not -1.0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and > -1, got {alpha}")
    if not 0.0 < p < np.inf:
        raise ValueError(f"p must be finite and positive, got {p}")
    fun = rep_as_callable(f)
    n_r, n_t = grid
    x, wx = gauss_jacobi(n_r, alpha)  # weight (1-x)^alpha on [-1, 1]
    u = 0.5 * (x + 1.0)  # u = r^2 in [0, 1]
    wu = wx * 0.5 ** (alpha + 1.0)  # maps (1-x)^alpha dx to (1-u)^alpha du
    r = np.sqrt(u)
    nodes = r[:, None] * np.exp(1j * ring_angles(n_t)[None, :])
    vals = np.abs(np.asarray(fun(nodes), dtype=complex)) ** p
    ring = vals.mean(axis=1) * 2.0 * np.pi
    total = float(0.5 * (wu * ring).sum())
    # crude divergence guard: the outermost decile must not dominate
    tail = float(0.5 * (wu[u > 0.9] * ring[u > 0.9]).sum())
    if total > 0.0 and tail > 0.9 * total:
        raise QuadratureDivergence("boundary decile dominates the norm integral")
    return total ** (1.0 / p)


def two_point_probe_constant(d: float) -> float:
    """Ratio of the interpolant's norm to the target norm for the
    two-cluster probe {0, d} with eps = d/4 (clusters stay separate) and
    the values 0, 1."""
    from .schemes import build_minimal_scheme

    Z = PointSequence([0.0, d])
    scheme = build_minimal_scheme(Z, d / 4.0)
    if len(scheme.clusters) != 2:
        raise ValueError(f"probe separation {d} did not produce two clusters")
    targets = JetTargets.values_on_scheme(scheme, [0.0, 1.0])
    report = solve_p2(scheme, targets)
    return report.norm_value / report.target_norm
