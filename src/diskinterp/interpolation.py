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
from functools import lru_cache
from math import comb, perm
from numbers import Integral

import numpy as np

from .errors import (
    DegeneratePair,
    DuplicatePoint,
    InfeasibleConstraints,
    MalformedJet,
    NonConvergence,
    NumericalError,
    PairTooFar,
    QuadratureDivergence,
    SingularGram,
)
from .geometry import (
    PseudoDisk,
    as_complex,
    euclidean_images,
    psi,
    psi_array,
    pseudo_to_euclidean,
)
from .grids import disk_rule, gauss_jacobi, ring_angles
from .reps import (
    AnalyticFunctionRep,
    BlaschkeLagrangeRep,
    KernelRep,
    bergman_kernel_deriv,
    rep_as_callable,
)
from .schemes import Domain, InterpolationScheme, PointSequence, _psi_rows, _touching_pairs

GRAM_CONDITION_LIMIT = 1e12
# Relative duality gap at which quotient_norm_general returns its value.
GAP_TOL = 1e-9
# Newton steps quotient_norm_general may take before it raises NonConvergence.
NEWTON_MAX_ITER = 60
# Quadrature nodes per block when assembling a Newton system.
_NODE_CHUNK = 4096
# Default (radial, angular) quadrature grid of quotient_norm_general.
QUAD_GRID = (64, 256)
# quotient_norm_general's default polynomial basis size; target_norm and
# the p = 2 union factors take max(UNION_BASIS, m) for m constraints.
UNION_BASIS = 32


@dataclass(frozen=True)
class JetConstraint:
    """Prescribe the order-th derivative value at a point; the order is an
    integer >= 0 (a bool is not one)."""

    point: complex
    order: int
    value: complex

    def __post_init__(self):
        object.__setattr__(self, "point", as_complex(self.point))
        object.__setattr__(self, "value", complex(self.value))
        if not isinstance(self.order, Integral) or isinstance(self.order, bool) or self.order < 0:
            raise MalformedJet(f"derivative order must be an integer >= 0, got {self.order!r}")
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
    """G[..., i, j] = d_z^{o_i} d_wbar^{o_j} K(z_i, z_j) for the kernel K of the
    Euclidean disk (center, s), filled one block per pair of orders.
    Points of shape (m,) give one m x m matrix; a stack of shape (k, m),
    with k centres and radii, gives k of them, all with the one order list."""
    z = np.asarray(points, dtype=complex)
    c = np.asarray(center, dtype=complex)[..., None, None]
    s = np.asarray(s, dtype=float)[..., None, None]
    o = np.asarray(orders)
    levels = sorted(set(o.tolist()))
    if len(levels) == 1:
        m = levels[0]
        return bergman_kernel_deriv(z[..., :, None], z[..., None, :], m, m, center=c, s=s)
    G = np.empty(z.shape + z.shape[-1:], dtype=complex)
    groups = [(k, np.flatnonzero(o == k)) for k in levels]
    for m, rows in groups:
        for n, cols in groups:
            G[..., rows[:, None], cols] = bergman_kernel_deriv(
                z[..., rows, None], z[..., None, cols], m, n, center=c, s=s
            )
    return G


def _kernel_factor(points, orders, center=0.0, s=1.0):
    """Cholesky factors L of the kernel Gram matrices G = L L^H of the jets
    on the Euclidean disks (center, s) (_gram, one matrix or a stack), so
    that the minimum A^2 norm of an interpolant of w is ||L^-1 w||.  One
    condition number per matrix and one Cholesky call cover the stack.
    Raises SingularGram for the first matrix of the stack whose 2-norm
    condition number is not at most GRAM_CONDITION_LIMIT: the message
    names that number and the error's `index` is the matrix's position in
    the stack (0 for a single matrix)."""
    G = _gram(points, orders, center, s)
    cond = np.ravel(np.linalg.cond(G))
    # a nan condition number fails the test too
    failed = ~(cond <= GRAM_CONDITION_LIMIT)
    if failed.any():
        k = int(np.argmax(failed))
        exc = SingularGram(
            f"Gram condition number {cond[k]:.3e} exceeds {GRAM_CONDITION_LIMIT:.0e}"
        )
        exc.index = k
        raise exc
    return np.linalg.cholesky(G)


def quotient_norm_p2(domain: PseudoDisk, constraints) -> float:
    """Exact minimum A^2(G) norm over functions meeting the jet constraints,
    G the given pseudohyperbolic disk, via its reproducing kernel."""
    constraints = list(constraints)
    if not constraints:
        return 0.0
    dom = Domain((domain,))
    _check_inside([(dom, constraints)])
    ((_, F),) = _cluster_factors(
        [dom], [[c.point for c in constraints]], [[c.order for c in constraints]]
    )
    return float(np.linalg.norm(np.linalg.solve(F[0], [c.value for c in constraints])))


def _ball_rules(domain, n_radial, n_angular):
    """Per ball of the domain, in order: (e, r, w, nodes, own), e its
    Euclidean disk, r and w the radii and per-node weights of its
    disk_rule rings, nodes its n_radial x n_angular nodes (one row per
    ring) and own the mask of those it owns.

    A node is owned by the lowest-index ball containing it, so overlaps
    count once.  A ball's nodes lie strictly inside it (the largest
    Gauss-Legendre radius is below the ball's), so only the earlier balls
    that meet it, found by `schemes._touching_pairs`, are tested, and of
    its rings only those that come within an earlier ball's Euclidean
    radius of its centre.
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
            e2 = pseudo_to_euclidean(b2)
            # a ring whose nearest point to e2's centre lies beyond e2's
            # radius by more than rounding has no node in e2
            near = np.abs(abs(e.center - e2.center) - r) <= e2.radius * (1.0 + 1e-9)
            own[near] &= psi_array(nodes[near], b2.center) >= b2.radius
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
        # two node-chunk arrays that every forms call reuses
        self.work = np.empty((2, min(len(M), _NODE_CHUNK), M.shape[1]), dtype=complex)

    def values(self, t):
        return self.M @ t

    def adjoint(self, y):
        """M^H y."""
        return np.conj(np.conj(y) @ self.M)

    def forms(self, S, D):
        """(M^H diag(S) M, M^T diag(D) M), assembled in node chunks in the
        work arrays, so that a Newton step allocates no chunk of nodes."""
        m = self.M.shape[1]
        A = np.zeros((m, m), dtype=complex)
        B = np.zeros((m, m), dtype=complex)
        for lo in range(0, len(S), _NODE_CHUNK):
            Mc = self.M[lo:lo + _NODE_CHUNK]
            C, W = self.work[:, :len(Mc)]
            np.conjugate(Mc, out=C)
            A += C.T @ np.multiply(S[lo:lo + _NODE_CHUNK, None], Mc, out=W)
            B += Mc.T @ np.multiply(D[lo:lo + _NODE_CHUNK, None], Mc, out=W)
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


def _arcs(own):
    """(row, start, length): the circular runs of True in the rows of the
    boolean node mask `own` that are partly True, one entry per run, a run
    being `length` nodes from index `start` on, modulo the row length (so a
    run wraps past index 0 when start + length exceeds it).

    A run starts at a True after a False and stops at a False after a
    True; counted from its row's first False, where no run wraps, the
    k-th start and the k-th stop of a row bound one run."""
    rows = np.flatnonzero(own.any(axis=1) & ~own.all(axis=1))
    part = own[rows]
    n = own.shape[1]
    before = np.roll(part, 1, axis=1)
    i, start = np.nonzero(part & ~before)
    j, stop = np.nonzero(before & ~part)
    first = part.argmin(axis=1)
    a = (start - first[i]) % n
    b = (stop - first[j] - 1) % n + 1
    start_order, stop_order = np.argsort(i * n + a), np.argsort(j * n + b)
    return rows[i[start_order]], start[start_order], b[stop_order] - a[start_order]


def _ring_phases(n_t, rows, cols):
    """e^(2 pi i j l / n_t) for j in rows and l in cols: the n_t-th roots of
    unity, indexed by j l reduced modulo n_t in integers."""
    return np.exp(2j * np.pi * np.arange(n_t) / n_t)[np.multiply.outer(rows, cols) % n_t]


@lru_cache(maxsize=128)
def _arc_r(n_t, b, L):
    """R(E_L), read-only: the R of one Householder QR of E_L, an
    upper-trapezoidal min(L, b) x b matrix with R^H R = E_L^H E_L,
    E_L[j, l] = e^(2 pi i j l / n_t) for j < L and l < b (_ring_phases):
    the monomials up to degree b - 1 at L consecutive nodes of a ring of
    n_t equally spaced angles, in the angle's phase.  It is bit for bit the
    R of np.linalg.qr(E_L), whose Q the basis at p != 2 keeps (_arc_q).
    The cache holds at most 128 entries of at most b^2 complex numbers:
    128 b^2 16 bytes, 2 MiB at b = 32."""
    R = np.linalg.qr(_ring_phases(n_t, np.arange(L), np.arange(b)), mode="r")
    R.flags.writeable = False
    return R


@lru_cache(maxsize=128)
def _arc_q(n_t, b, L):
    """Q(E_L), read-only: the L x min(L, b) Q of np.linalg.qr(E_L), with
    E_L = Q(E_L) _arc_r(n_t, b, L); only the basis at p != 2 asks for it.
    At most 128 entries of at most n_t b complex numbers: 16 MiB at (256, 32)."""
    Q = np.linalg.qr(_ring_phases(n_t, np.arange(L), np.arange(b)))[0]
    Q.flags.writeable = False
    return Q


@lru_cache(maxsize=8)
def _binomials(b):
    """C(k, l) at [l, k] for k, l < b (0 for l > k), read-only."""
    B = np.array([[comb(k, l) for k in range(b)] for l in range(b)], dtype=float)
    B.flags.writeable = False
    return B


def _owned_reach(rules, center):
    """The largest |z - center| over the owned nodes of _ball_rules' rules.
    A ring of radius r about c has its nodes within |c - center| + r of
    center, so each ball's rings are read outermost first, until that
    bound, with room for rounding, falls below the largest found."""
    s = 0.0
    for e, r, _, z, own in rules:
        bound = (abs(e.center - center) + r) * (1.0 + 1e-12)
        for j in reversed(range(len(r))):
            if bound[j] < s:
                break
            s = max(s, float(np.abs(z[j, own[j]] - center).max(initial=0.0)))
    return s


def _union_r(domain, center, basis_size, grid, with_span=False):
    """(R, s, rows, basis): an upper-triangular R with R^H R = A^H A for the
    weighted scaled monomials A = sqrt(w) ((z - center)/s)^k at the `rows`
    nodes a union of balls owns (_ball_rules), s the largest |z - center|
    among them, without forming A or any row of it.

    On a ring of radius r about ball j's Euclidean centre c_j,
    ((z - center)/s)^k = sum_{l <= k} C(k, l) a^(k - l) y^l,
    y = (r/s) e^(i theta) and a = (c_j - center)/s, so A's rows on ball j
    are its rows V in the ball's own monomials y^l times
    P[l, k] = C(k, l) a^(k - l).  The e^(il theta) for l < n_t are
    orthogonal over a ring's n_t angles, so the rings the ball owns in
    full have the exact triangle diag(nu) of V, nu from _ring_norms over
    those rings.  A ring it owns in part, it owns as arcs (_arcs); an arc
    of L nodes from angle index i0 has V = E_L diag(e^(2 pi i i0 l / n_t)
    sqrt(w) (r/s)^l), so its triangle is _arc_r's cached R(E_L) times that
    diagonal.  The QR of the ball's arc triangles stacked over diag(nu),
    about b rows per arc, gives the ball's R_j with R_j^H R_j = V^H V, and
    R is the R of the balls' R_j P stacked: b rows per ball.  (A ball with
    no full ring has nu = 0, and one that owns no node R_j = 0.)

    basis is None unless `with_span`; then the Q factors of those QRs are
    kept too (Q_L of E_L from _arc_q, Q_j of the ball's stack, Q_s of the
    balls' R_j P), so that A = Q R with Q = [Q_L ... ; V_full / nu] Q_j
    Q_s,j on ball j's rows, V_full its rows on the full rings: orthonormal
    by construction, with no QR over node rows.  basis is (q, weights),
    q(Y) = Q Y / sqrt(w) at the owned nodes in domain_quadrature's order
    (one product with Q_L per arc length, one with E_(n_t) for the full
    rings) and weights their weights.
    """
    rules = _ball_rules(domain, *grid)
    s = _owned_reach(rules, center)
    n_t = grid[1]
    k = np.arange(basis_size)
    blocks, Qjs, arcs, full_rings, lo, g = [], [], {}, [], 0, 0
    for e, r, w, _, own in rules:
        row, start, length = _arcs(own)
        tri = [_arc_r(n_t, basis_size, L) for L in length.tolist()]
        m = [len(t) for t in tri]
        full = own.all(axis=1)
        nu = _ring_norms(r[full], w[full], s, n_t, basis_size)
        V = np.vstack(tri + [np.diag(nu)], dtype=complex)
        V[:len(V) - basis_size] *= np.repeat(
            np.sqrt(w[row])[:, None] * (r[row] / s)[:, None] ** k * _ring_phases(n_t, start, k),
            m, axis=0)
        a = (e.center - center) / s
        P = _binomials(basis_size) * (a ** k)[np.maximum(k - k[:, None], 0)]
        if not with_span:
            blocks.append(np.linalg.qr(V, mode="r") @ P)
            continue
        Qj, Rj = np.linalg.qr(V)
        blocks.append(Rj @ P)
        # an arc's rows of Q_j over sqrt(w) of its ring: Q_L times them is
        # the arc's part of Q over sqrt(w)
        Qj[:len(V) - basis_size] /= np.repeat(np.sqrt(w[row]), m)[:, None]
        Qjs.append(Qj)
        # rows of the balls' Q_j stacked, and places in the owned order
        at = lo + np.cumsum(own.ravel()) - 1
        for first, j, i0, L in zip((g + np.cumsum([0] + m)).tolist(), row.tolist(),
                                   start.tolist(), length.tolist()):
            arcs.setdefault(L, []).append((first, at[j * n_t + (i0 + np.arange(L)) % n_t]))
        full_rings.append((np.full(np.count_nonzero(full), g + len(V) - basis_size),
                           (r[full] / s)[:, None] ** k / nu,
                           at[np.flatnonzero(full)[:, None] * n_t + np.arange(n_t)]))
        lo += np.count_nonzero(own)
        g += len(V)
    rows = sum(np.count_nonzero(own) for *_, own in rules)
    if not with_span:
        return np.linalg.qr(np.vstack(blocks), mode="r"), s, rows, None
    Qs, R = np.linalg.qr(np.vstack(blocks))
    G = np.vstack([Qj @ Qsj for Qj, Qsj in zip(Qjs, np.split(Qs, len(Qjs)))])
    # per arc length L: Q_L, the rows of G its arcs take and their nodes,
    # one column per arc
    groups = []
    for L, items in arcs.items():
        QL = _arc_q(n_t, basis_size, L)
        first, at = zip(*items)
        groups.append((QL, np.add.outer(np.arange(QL.shape[1]), first), np.array(at).T))
    first, y, full_at = (np.concatenate(part) for part in zip(*full_rings))
    y, nu_rows, full_at = y.T, np.add.outer(k, first), full_at.T  # one column per full ring
    ring = _ring_phases(n_t, np.arange(n_t), k)  # E_(n_t): the monomials on a whole ring

    def q(Y):
        H = G @ Y
        out = np.empty((rows, Y.shape[1]), dtype=complex)
        for QL, idx, at in groups:
            out[at] = (QL @ H[idx].reshape(len(idx), -1)).reshape(at.shape + (-1,))
        Z = y[:, :, None] * H[nu_rows]
        out[full_at] = (ring @ Z.reshape(basis_size, -1)).reshape(full_at.shape + (-1,))
        return out

    weights = np.concatenate([np.broadcast_to(w[:, None], own.shape)[own]
                              for _, _, w, _, own in rules])
    return R, s, rows, (q, weights)


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
    monomials at the owned nodes factor as Q R (_union_r: closed-form
    triangles of the rings a ball owns in full, cached ones of the arcs of
    those it owns in part), R = Ur S Wh gives the basis coefficients, and
    Q Ur is Phi times sqrt(weights).  Only `with_span` keeps Q's factors,
    and span(X) writes Q Ur X / sqrt(w) from them into a _DenseMap.
    """
    balls = [domain] if isinstance(domain, PseudoDisk) else list(domain.balls)
    if len(balls) == 1:
        return _disk_constraints(pseudo_to_euclidean(balls[0]), points, orders, basis_size,
                                 grid, with_span)
    center = np.mean([pseudo_to_euclidean(b).center for b in balls])
    R, s, rows, basis = _union_r(domain, center, basis_size, grid, with_span)
    Ur, sa, Wh = np.linalg.svd(R)
    r = int(_rank(sa, rows, basis_size).sum())
    T = Wh[:r].conj().T / sa[:r]  # monomial coefficients of the orthonormal basis
    C = _constraint_matrix(points, orders, center, s, basis_size) @ T
    if not with_span:
        return C, None, None
    q, weights = basis
    return C, lambda X: _DenseMap(q(Ur[:, :r] @ X)), weights


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
    basis_size: int = UNION_BASIS,
    grid: tuple[int, int] = QUAD_GRID,
) -> float:
    """Minimum (int_G |g|^p dA)^(1/p) over polynomials g of degree
    < basis_size meeting the constraints, on the `domain_quadrature` grid.

    Works in the scaled basis ((z - c)/s)^k, c the mean of the balls'
    Euclidean centres and s the largest |node - c| over nodes with weight,
    made orthonormal in the quadrature inner product to rounding: on a disk
    by dividing each monomial by its quadrature norm (the monomials are
    orthogonal there), on a union of balls by the R factor of the weighted
    basis values.  Directions whose singular value is below
    eps * (node count) of the largest, which float64 cannot resolve, are
    dropped, as numpy's lstsq drops them.  In that basis the p = 2
    minimiser is closed form, and at p = 2 its norm is returned.  On a
    union the one factorisation of _union_r serves every p: closed-form
    triangles of the rings a ball owns in full and cached triangles of the
    arcs of those it owns in part, with no QR over nodes; at p = 2 it forms
    R alone, and otherwise it keeps the Q factors of those triangles,
    which give the basis at the nodes.  At p != 2 damped Newton then runs
    from the minimiser on the real and imaginary parts of the null-space
    coordinates (on the smoothed (|g|^2 + d^2)^(p/2), d shrinking towards
    0, when p < 2); the value is returned once the relative gap between
    the objective and a Hölder lower bound is at most GAP_TOL: it is then
    certified to GAP_TOL for the discretised problem.  On a disk every
    product with the null-space basis is one FFT per ring of nodes
    (_RingMap), so no node x basis matrix is formed.  Raises
    NonConvergence if the gap is still open after NEWTON_MAX_ITER steps,
    and ValueError unless 1 <= p < inf, if a constraint point lies outside
    every ball of the domain, or if basis_size exceeds the angular node
    count, past which a ring cannot keep the monomials orthogonal.
    """
    if not 1.0 <= p < np.inf:
        raise ValueError(f"general quotient norm requires finite p >= 1, got {p}")
    constraints = list(constraints)
    if not constraints:
        return 0.0
    if isinstance(domain, PseudoDisk):
        domain = Domain((domain,))
    _check_inside([(domain, constraints)])
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

    At p = 2 each cluster norm is ||F_k^-1 w_k||, F_k the cluster's factor
    from _cluster_factors (so a union raises InfeasibleConstraints if any
    target of the cluster would), with one stacked solve per group of
    disk clusters that share an order list.  At other p a disk cluster
    with one constraint, a value w at z, is exact: A^p point evaluation on
    the Euclidean image (c, R) of its disk, by Moebius transport and the
    sub-mean-value property, gives ||w||^p = pi R^2 (1 - a^2)^2 |w|^p with
    a = |z - c| / R, which is pi eps^2 (1 - |z|^2)^2 |w|^p (example1_norm's
    weight) when z is the centre of its eps-disk, as in both scheme
    builders.  Every other cluster norm is quotient_norm_general's, with
    max(UNION_BASIS, m) monomials for m constraints.  Raises ValueError
    unless 1 <= p < inf, or if a constraint point lies outside every ball
    of its cluster's domain.
    """
    if not 1.0 <= p < np.inf:
        raise ValueError(f"target norm requires finite p >= 1, got {p}")
    if len(targets) != len(scheme.clusters):
        raise MalformedJet("targets must be parallel to the scheme's clusters")
    live = [(dom, cons) for dom, cons in zip(scheme.domains, targets.per_cluster) if cons]
    _check_inside(live)
    if p == 2.0:
        groups = _cluster_factors([dom for dom, _ in live],
                                  [[c.point for c in cons] for _, cons in live],
                                  [[c.order for c in cons] for _, cons in live])
        total = 0.0
        for idx, F in groups:
            W = np.array([[c.value for c in live[i][1]] for i in idx], dtype=complex)
            total += float((np.abs(np.linalg.solve(F, W[..., None])) ** 2).sum())
        return total ** 0.5
    total = 0.0
    for dom, cons in live:
        if dom.is_disk and len(cons) == 1:
            e = pseudo_to_euclidean(dom.balls[0])
            a = abs(cons[0].point - e.center) / e.radius
            total += abs(cons[0].value) ** p * np.pi * e.radius ** 2 * (1.0 - a * a) ** 2
        else:
            total += quotient_norm_general(dom, cons, p,
                                           basis_size=max(UNION_BASIS, len(cons))) ** p
    return total ** (1.0 / p)


def _check_inside(live):
    """Raise ValueError if a constraint point of the (domain, constraints)
    pairs lies outside every ball of its domain
    (psi to each centre above that ball's radius): one psi_array test over
    every (constraint, ball) pair."""
    starts, z, c, r = [], [], [], []
    for dom, cons in live:
        for con in cons:
            starts.append(len(z))
            for b in dom.balls:
                z.append(con.point)
                c.append(b.center)
                r.append(b.radius)
    if not z:
        return
    inside = np.logical_or.reduceat(psi_array(z, c) <= np.array(r), starts)
    if not inside.all():
        raise ValueError(f"constraint point {z[starts[np.argmin(inside)]]} outside its domain")


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


def _cluster_factors(domains, points, orders):
    """[(idx, F)]: the clusters' p = 2 factors, ||w_k|| = ||F_k^-1 w_k||,
    F_k square and lower triangular, in groups: idx the cluster indices of
    a group and F the stack of their factors, F[i] that of cluster idx[i].

    The disk clusters that share an order list form one group, and F is
    the _kernel_factor stack of their Euclidean images: one Gram
    assembly, one condition gate and one Cholesky call per group.  Each
    union of balls is a group of one: with C the constraint matrix in
    quotient_norm_general's orthonormal basis (max(UNION_BASIS, m)
    monomials, default grid, from _union_r's R factor alone), the norm is
    that of the minimum-norm solution of C c = w, sqrt(w^H (C C^H)^-1 w);
    after the feasibility test for every unit target (so C has full row
    rank), F = R^H from the QR of C^H, so F F^H = C C^H.

    The first failing cluster in cluster order raises.  A failing gate
    names the position of its first failing matrix, so the first failing
    disk is the least such cluster over the stacks; only the unions before
    it are factored, in order, and the first of them that fails raises
    InfeasibleConstraints instead.  No cluster is factored twice.
    """
    by_orders: dict[tuple, list[int]] = {}
    for i, dom in enumerate(domains):
        if dom.is_disk:
            by_orders.setdefault(tuple(orders[i]), []).append(i)
    groups, failures = [], []
    for key, idx in by_orders.items():
        # scalar images, as pseudo_to_euclidean gives them: numpy's complex
        # product may round |c|^2 differently, and a stacked factor would
        # then differ from a one-cluster call in the last bits
        c, r = zip(*(euclidean_images(domains[i].balls[0].center, domains[i].balls[0].radius)
                     for i in idx))
        z = np.array([points[i] for i in idx], dtype=complex)
        try:
            groups.append((np.array(idx), _kernel_factor(z, key, c, r)))
        except SingularGram as exc:
            failures.append((idx[exc.index], exc))
    stop, failure = min(failures, key=lambda f: f[0], default=(len(domains), None))
    for i in range(stop):
        if not domains[i].is_disk:
            C = _basis_constraints(domains[i], points[i], orders[i],
                                   max(UNION_BASIS, len(points[i])), QUAD_GRID, with_span=False)[0]
            _min_norm_coeffs(C, np.eye(len(C)))
            groups.append((np.array([i]), np.linalg.qr(C.conj().T, mode="r").conj().T[None]))
    if failure is not None:
        raise failure
    return groups


def _scheme_forms(scheme: InterpolationScheme):
    """(members, L, groups): each cluster's member indices, the
    _kernel_factor L of the scheme's jets in cluster order and the
    clusters' factors in _cluster_factors' groups."""
    jets = _cluster_jets(scheme)
    L = _kernel_factor([z for _, pts, _ in jets for z in pts],
                       [o for _, _, ords in jets for o in ords])
    groups = _cluster_factors(scheme.domains, [pts for _, pts, _ in jets],
                              [ords for _, _, ords in jets])
    return [m for m, _, _ in jets], L, groups


def interpolation_constant_probe(
    scheme: InterpolationScheme, trials: int, seed: int
) -> float:
    """Empirical interpolation constant: max over random unit-sphere target
    draws of global-solve norm over target norm, at p = 2.

    A lower bound of `interpolation_constant_p2`, kept as a cross-check of
    it, from the same factors: the global norm of a target v is
    ||L^-1 v||, a cluster's norm of its part v_k is ||F_k^-1 v_k||.  All
    draws are solved as the columns of one right-hand side, and the
    clusters' parts as one stacked solve per group of _cluster_factors."""
    rng = np.random.default_rng(seed)
    n = len(scheme.sequence)
    V = np.empty((n, trials), dtype=complex)
    for t in range(trials):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        V[:, t] = v / np.linalg.norm(v)
    if not trials:
        return 0.0
    members, L, groups = _scheme_forms(scheme)
    norms = np.linalg.norm(np.linalg.solve(L, V[[i for m in members for i in m]]), axis=0)
    target = np.sqrt(sum((np.abs(np.linalg.solve(F, V[[members[i] for i in idx]])) ** 2)
                         .sum(axis=(0, 1)) for idx, F in groups))
    ok = target > 0.0
    return float((norms[ok] / target[ok]).max(initial=0.0))


def interpolation_constant_p2(scheme: InterpolationScheme) -> float:
    """Exact p = 2 interpolation constant of the scheme: the largest ratio of
    the minimum A^2(disk) norm of an interpolant to the target norm,
    sqrt(lambda_max(G^-1, B)) = ||L^-1 F||_2.

    G = L L^H is the kernel Gram matrix of the scheme's jets and B the block
    diagonal of the clusters' p = 2 quotient forms B_k = (F_k F_k^H)^-1,
    F_k the square factor from _cluster_factors: the inverse kernel Gram
    matrix of a disk domain, and on a union of balls (C C^H)^-1 for its
    constraint matrix C in quotient_norm_general's orthonormal basis, so
    union blocks are exact only up to that quadrature and polynomial
    basis.  With F the block diagonal of the F_k,
    lambda_max(G^-1, B) = lambda_max(F^H G^-1 F), the largest squared
    singular value of L^-1 F; no inverse of B and no product F_k F_k^H is
    formed.  Raises SingularGram and InfeasibleConstraints where the probe
    would.
    """
    members, L, groups = _scheme_forms(scheme)
    start = np.cumsum([0] + [len(m) for m in members])
    F = np.zeros_like(L)
    for idx, Fk in groups:
        rows = start[idx, None] + np.arange(Fk.shape[-1])
        F[rows[:, :, None], rows[:, None, :]] = Fk
    return float(np.linalg.norm(np.linalg.solve(L, F), 2))


def example1_norm(Z: PointSequence, values, p: float) -> float:
    """Simple-interpolation norm (sum |w_k|^p (1-|z_k|^2)^2)^(1/p).

    Times (pi eps^2)^(1/p) it is target_norm at p on a scheme whose
    clusters are the singletons z_k with their eps-disks: the A^p quotient
    norm of one value w at the centre z of D(z, eps) is
    (pi eps^2)^(1/p) (1 - |z|^2)^(2/p) |w|."""
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
    singletons), from the row blocks of _psi_rows with the diagonal
    masked: no n x n matrix is formed."""
    n = len(points)
    if n == 1:
        return np.array([0]), np.array([1.0])
    n_gamma, delta = np.empty(n, dtype=np.intp), np.empty(n)
    for lo, d in _psi_rows(points):
        rows = np.arange(len(d))
        d[rows, lo + rows] = np.inf
        n_gamma[lo:lo + len(d)] = (d < 0.5).sum(axis=1)
        delta[lo:lo + len(d)] = d.min(axis=1)
    return n_gamma, delta


def o_interp_weight(Z: PointSequence, coeffs, p: float, alpha: float = 0.0) -> float:
    """Crowding-weighted interpolation sum
    sum |c|^p (1-|gamma|^2)^(alpha+2) / delta^(p n); n counts the other
    points within psi-distance 1/2 of gamma, delta is the distance to the
    nearest other point (1 for singletons).

    Raises NumericalError, naming the first point, when a term is not
    finite (delta^(p n) underflows to 0 on crowded sets), or when the sum
    overflows.
    """
    a = Z.array
    if len(np.unique(a)) != len(a):
        raise DuplicatePoint("o_interp_weight requires distinct points")
    if not -1.0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and > -1, got {alpha}")
    if not 0.0 < p < np.inf:
        raise ValueError(f"p must be finite and positive, got {p}")
    c = np.asarray(coeffs, dtype=complex)
    n_gamma, delta = _crowding(a)
    with np.errstate(all="ignore"):
        terms = (
            np.abs(c) ** p
            * (1.0 - np.abs(a) ** 2) ** (alpha + 2.0)
            / delta ** (p * n_gamma)
        )
        total = float(terms.sum())
    bad = np.flatnonzero(~np.isfinite(terms))
    if len(bad):
        k = int(bad[0])
        d, e = float(delta[k]), float(p * n_gamma[k])
        raise NumericalError(f"o_interp_weight: the term of point {k} is {terms[k]}: "
                             f"delta = {d!r} to the power p n = {e!r} is {d ** e!r}")
    if not np.isfinite(total):
        raise NumericalError(f"o_interp_weight: the sum of {len(terms)} finite terms overflows")
    return total


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
