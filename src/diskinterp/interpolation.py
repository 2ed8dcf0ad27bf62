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
from math import factorial

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
from .geometry import PseudoDisk, as_complex, psi, pseudo_to_euclidean
from .reps import (
    AnalyticFunctionRep,
    BlaschkeLagrangeRep,
    KernelRep,
    bergman_kernel_deriv,
    rep_as_callable,
)
from .schemes import InterpolationScheme, PointSequence

GRAM_CONDITION_LIMIT = 1e12
# Relative duality gap at which quotient_norm_general returns its value.
GAP_TOL = 1e-9
# Newton steps quotient_norm_general may take before it raises NonConvergence.
NEWTON_MAX_ITER = 60
# Quadrature nodes per block when assembling a Newton system.
_NODE_CHUNK = 4096


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
        per_cluster = []
        for c in scheme.clusters:
            cons = []
            seen: dict[complex, int] = {}
            for i in c.members:
                pt = complex(scheme.sequence[i])
                order = seen.get(pt, 0)
                seen[pt] = order + 1
                cons.append(JetConstraint(pt, order, values[i]))
            per_cluster.append(cons)
        return cls(per_cluster)


@dataclass(frozen=True)
class SolveReport:
    function: AnalyticFunctionRep
    norm_value: float
    target_norm: float
    residuals: tuple[complex, ...]


def _gram_solve(points, orders, values, center=0.0, s=1.0):
    """Solve the kernel-representer system for minimum A^2 norm.

    G[i, j] = d_z^{o_i} d_wbar^{o_j} K(z_i, w_j); returns (coeffs, norm).
    """
    n = len(points)
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            G[i, j] = bergman_kernel_deriv(
                points[i], points[j], orders[i], orders[j], center=center, s=s
            )
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
        raise SingularGram(f"Gram condition number {cond:.3e} exceeds 1e12")
    w = np.asarray(values, dtype=complex)
    coeffs = np.linalg.solve(G, w)
    norm_sq = float(np.real(np.vdot(w, coeffs)))
    return coeffs, np.sqrt(max(norm_sq, 0.0))


def quotient_norm_p2(domain: PseudoDisk, constraints) -> float:
    """Exact minimum A^2(G) norm over functions meeting the jet constraints,
    G the given pseudohyperbolic disk, via its reproducing kernel."""
    constraints = list(constraints)
    if not constraints:
        return 0.0
    for c in constraints:
        if not domain.contains(c.point) and psi(domain.center, c.point) > domain.radius:
            raise ValueError(f"constraint point {c.point} outside the domain")
    e = pseudo_to_euclidean(domain)
    pts = [c.point for c in constraints]
    orders = [c.order for c in constraints]
    vals = [c.value for c in constraints]
    _, norm = _gram_solve(pts, orders, vals, center=e.center, s=e.radius)
    return norm


def domain_quadrature(domain, n_radial: int = 64, n_angular: int = 256):
    """Quadrature nodes/weights for dA over a pseudohyperbolic disk or a
    union-of-balls domain.

    Gauss-Legendre radial x uniform angular per ball; in a union, a node is
    owned by the lowest-index ball containing it, so overlaps count once.
    The single-disk rule integrates |polynomial|^2 exactly for degrees
    below the node counts.
    """
    if isinstance(domain, PseudoDisk):
        balls = [domain]
    else:
        balls = list(domain.balls)
    euclid = [pseudo_to_euclidean(b) for b in balls]
    x, wx = np.polynomial.legendre.leggauss(n_radial)
    all_nodes = []
    all_weights = []
    for k, e in enumerate(euclid):
        r = 0.5 * (x + 1.0) * e.radius
        wr = 0.5 * e.radius * wx * r
        ang = 2.0 * np.pi * np.arange(n_angular) / n_angular
        wa = 2.0 * np.pi / n_angular
        nodes = e.center + r[:, None] * np.exp(1j * ang[None, :])
        weights = np.broadcast_to((wr * wa)[:, None], nodes.shape).copy()
        if len(balls) > 1:
            own = np.ones(nodes.shape, dtype=bool)
            for k2, b2 in enumerate(balls[:k]):
                d = np.abs((nodes - b2.center) / (1.0 - np.conj(b2.center) * nodes))
                own &= d >= b2.radius
            weights[~own] = 0.0
        all_nodes.append(nodes.ravel())
        all_weights.append(weights.ravel())
    return np.concatenate(all_nodes), np.concatenate(all_weights)


def _constraint_matrix(constraints, center, s, basis_size):
    """The constraint functionals on the scaled monomials ((z - center)/s)^k."""
    C = np.zeros((len(constraints), basis_size), dtype=complex)
    for i, c in enumerate(constraints):
        v = (c.point - center) / s
        for k in range(c.order, basis_size):
            falling = factorial(k) // factorial(k - c.order)
            C[i, k] = falling * v ** (k - c.order) / s ** c.order
    return C


def _lp_norm(u, weights, p):
    """(sum_i w_i |u_i|^p)^(1/p), or max |u_i| at p = inf, scaled against overflow."""
    a = np.abs(u)
    top = float(a.max())
    if p == np.inf or top == 0.0:
        return top
    return top * float((weights * (a / top) ** p).sum()) ** (1.0 / p)


def _newton_system(u, M, weights, p, delta):
    """Gradient and Hessian of sum_i w_i (|u_i|^2 + delta^2)^(p/2) in the
    real unknowns (Re t, Im t) of u = b + M t, assembled in node chunks.

    Each node's 2 x 2 Hessian in u has the radial and tangential
    eigenvalues p (p-1) |u|^(p-2) and p |u|^(p-2) (smoothed when delta > 0);
    rotating the rows of M by the phase of u separates the two directions.
    """
    m = M.shape[1]
    g = np.zeros(2 * m)
    H = np.zeros((2 * m, 2 * m))
    for lo in range(0, len(u), _NODE_CHUNK):
        uc, wc = u[lo:lo + _NODE_CHUNK], weights[lo:lo + _NODE_CHUNK]
        a2 = np.abs(uc) ** 2
        rho = a2 + delta * delta
        tang = wc * p * rho ** (0.5 * p - 1.0)
        rad = tang * ((p - 1.0) * a2 + delta * delta) / rho if delta else (p - 1.0) * tang
        R = np.exp(-1j * np.angle(uc))[:, None] * M[lo:lo + _NODE_CHUNK]
        Jr = np.hstack([R.real, -R.imag])  # radial part of M dt
        Jt = np.hstack([R.imag, R.real])  # tangential part
        g += Jr.T @ (tang * np.sqrt(a2))
        H += Jr.T @ (rad[:, None] * Jr) + Jt.T @ (tang[:, None] * Jt)
    return g, H


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
    k -= M @ np.conj(np.conj(weights * k) @ M)
    kq = _lp_norm(k, weights, np.inf if p == 1.0 else p / (p - 1.0))
    lower = abs(complex(np.vdot(k, weights * b))) / kq if kq > 0.0 else 0.0
    return _lp_norm(u, weights, p), lower


def quotient_norm_general(
    domain,
    constraints,
    p: float,
    basis_size: int = 32,
    grid: tuple[int, int] = (64, 256),
) -> float:
    """Minimum (int_G |g|^p dA)^(1/p) over polynomials g of degree
    < basis_size meeting the constraints, on the `domain_quadrature` grid.

    Works in the scaled basis ((z - c)/s)^k, c the mean of the balls'
    Euclidean centres and s the largest |node - c| over nodes with weight.
    A Householder QR of the weighted basis values gives functions
    orthonormal in the quadrature inner product to rounding; directions
    whose singular value is below eps * (node count) of the largest, which
    float64 cannot resolve, are dropped, as numpy's lstsq drops them.  In
    that basis the p = 2 minimiser is closed form, and at p = 2 its norm is
    returned.  Otherwise damped Newton runs from it on the real and
    imaginary parts of the null-space coordinates (on the smoothed
    (|g|^2 + d^2)^(p/2), d shrinking towards 0, when p < 2) and the value
    is returned once the relative gap between the objective and a Hölder
    lower bound is at most GAP_TOL: it is then certified to GAP_TOL for
    the discretised problem.  Raises NonConvergence if the gap is still
    open after NEWTON_MAX_ITER steps.
    """
    constraints = list(constraints)
    if not constraints:
        return 0.0
    if p < 1.0:
        raise ValueError(f"general quotient norm requires p >= 1, got {p}")
    if basis_size < len(constraints):
        raise ValueError("basis_size must be >= number of constraints")
    w = np.array([c.value for c in constraints], dtype=complex)
    if not w.any():
        return 0.0
    balls = [domain] if isinstance(domain, PseudoDisk) else list(domain.balls)
    center = np.mean([pseudo_to_euclidean(b).center for b in balls])
    nodes, weights = domain_quadrature(domain, *grid)
    owned = weights > 0.0
    U, weights = nodes[owned] - center, weights[owned]
    s = float(np.abs(U).max())
    sw = np.sqrt(weights)
    from scipy.linalg import qr

    # sqrt(w) ((z - c)/s)^k at the nodes, column by column in Fortran order,
    # which LAPACK factors in place
    x = U / s
    A = np.empty((len(x), basis_size), dtype=complex, order="F")
    A[:, 0] = sw
    for k in range(1, basis_size):
        np.multiply(A[:, k - 1], x, out=A[:, k])
    # R alone carries the singular values and right singular vectors of A;
    # Q is formed only for the Newton iteration
    if p == 2.0:
        _, R = qr(A, mode="raw", overwrite_a=True, check_finite=False)
    else:
        Q, R = qr(A, mode="economic", overwrite_a=True, check_finite=False)
    del A
    Ur, sa, Wh = np.linalg.svd(R)
    r = int((sa > sa[0] * np.finfo(float).eps * max(len(x), basis_size)).sum())
    T = Wh[:r].conj().T / sa[:r]  # monomial coefficients of the orthonormal basis

    C = _constraint_matrix(constraints, center, s, basis_size) @ T
    Uc, sv, Vh = np.linalg.svd(C, full_matrices=True)
    rank = int((sv > sv[0] * 1e-13).sum())
    c2 = Vh[:rank].conj().T @ ((Uc[:, :rank].conj().T @ w) / sv[:rank])
    if np.abs(C @ c2 - w).max() > 1e-8 * (1.0 + np.abs(w).max()):
        raise InfeasibleConstraints("constraint system unsolvable in this basis")
    if p == 2.0:
        return float(np.linalg.norm(c2))
    # Q @ Ur[:, :r] is the orthonormal basis times sqrt(weights) at the nodes
    b = (Q @ (Ur[:, :r] @ c2)) / sw  # the p = 2 minimiser at the nodes
    M = (Q @ (Ur[:, :r] @ Vh[rank:].conj().T)) / sw[:, None]
    del Q

    m = M.shape[1]
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
        du = M @ (x[:m] + 1j * x[m:])
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

    Uses the exact kernel path when p = 2 and the domain is a single ball,
    the discretized convex minimizer otherwise.
    """
    if len(targets) != len(scheme.clusters):
        raise MalformedJet("targets must be parallel to the scheme's clusters")
    total = 0.0
    for k, cons in enumerate(targets.per_cluster):
        dom = scheme.domains[k]
        if not cons:
            continue
        if p == 2.0 and dom.is_disk:
            q = quotient_norm_p2(dom.balls[0], cons)
        else:
            q = quotient_norm_general(dom, cons, p, basis_size=max(32, len(cons)))
        total += q ** p
    return total ** (1.0 / p)


def solve_p2(scheme: InterpolationScheme, targets: JetTargets) -> SolveReport:
    """Unique minimum-A^2(disk)-norm function meeting every constraint of
    every cluster, via the global kernel K(z,w) = 1/(pi (1 - conj(w) z)^2)."""
    cons = targets.all_constraints()
    if not cons:
        return SolveReport(KernelRep(()), 0.0, 0.0, ())
    pts = [c.point for c in cons]
    orders = [c.order for c in cons]
    vals = [c.value for c in cons]
    coeffs, norm = _gram_solve(pts, orders, vals)
    f = KernelRep(tuple((p_, o, complex(c)) for p_, o, c in zip(pts, orders, coeffs)))
    residuals = tuple(
        complex(f.derivative(np.array(c.point), c.order)) - c.value for c in cons
    )
    return SolveReport(
        function=f,
        norm_value=norm,
        target_norm=target_norm(scheme, targets, 2.0),
        residuals=residuals,
    )


def interpolation_constant_probe(
    scheme: InterpolationScheme, trials: int, seed: int
) -> float:
    """Empirical interpolation constant: max over random unit-sphere target
    draws of global-solve norm over target norm, at p = 2."""
    rng = np.random.default_rng(seed)
    n = len(scheme.sequence)
    best = 0.0
    for _ in range(trials):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        targets = JetTargets.values_on_scheme(scheme, v)
        report = solve_p2(scheme, targets)
        if report.target_norm > 0.0:
            best = max(best, report.norm_value / report.target_norm)
    return best


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
    if alpha <= -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha}")
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
    value = 1.0
    for k, beta in enumerate(pts):
        if k == gamma_index:
            continue
        value *= abs((beta - zv) / (1.0 - np.conj(beta) * zv)) / abs(
            (beta - gamma) / (1.0 - np.conj(beta) * gamma)
        )
    n_gamma, delta = _crowding(pts)
    bound = 2.0 ** len(pts) / delta[gamma_index] ** n_gamma[gamma_index]
    return float(value), float(bound)


def weighted_norms(
    f, p: float, alpha: float = 0.0, grid: tuple[int, int] = (128, 256)
) -> float:
    """(int_D |f|^p (1-|z|^2)^alpha dA)^(1/p) by Gauss-Jacobi radial (weight
    (1-x)^alpha in x = r^2, so the boundary weight is integrated exactly)
    times a uniform angular rule."""
    if alpha <= -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    fun = rep_as_callable(f)
    n_r, n_t = grid
    from scipy.special import roots_jacobi

    x, wx = roots_jacobi(n_r, alpha, 0.0)  # weight (1-x)^alpha on [-1, 1]
    u = 0.5 * (x + 1.0)  # u = r^2 in [0, 1]
    wu = wx * 0.5 ** (alpha + 1.0)  # maps (1-x)^alpha dx to (1-u)^alpha du
    r = np.sqrt(u)
    ang = 2.0 * np.pi * np.arange(n_t) / n_t
    nodes = r[:, None] * np.exp(1j * ang[None, :])
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
