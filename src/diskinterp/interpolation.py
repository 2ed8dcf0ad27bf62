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
from scipy.optimize import minimize

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


def _constraint_matrix(constraints, center, basis_size):
    C = np.zeros((len(constraints), basis_size), dtype=complex)
    for i, c in enumerate(constraints):
        u = c.point - center
        for k in range(c.order, basis_size):
            C[i, k] = factorial(k) // factorial(k - c.order) * u ** (k - c.order)
    return C


def quotient_norm_general(
    domain,
    constraints,
    p: float,
    basis_size: int = 32,
    grid: tuple[int, int] = (64, 256),
) -> float:
    """Minimum (int_G |g|^p dA)^(1/p) over polynomials of degree < basis_size
    satisfying the constraints (convex for p >= 1; solved from the p=2
    minimizer as starting point)."""
    constraints = list(constraints)
    if not constraints:
        return 0.0
    if p < 1.0:
        raise ValueError(f"general quotient norm requires p >= 1, got {p}")
    if basis_size < len(constraints):
        raise ValueError("basis_size must be >= number of constraints")
    if isinstance(domain, PseudoDisk):
        balls = [domain]
    else:
        balls = list(domain.balls)
    center = np.mean([pseudo_to_euclidean(b).center for b in balls])
    nodes, weights = domain_quadrature(domain, *grid)

    C = _constraint_matrix(constraints, center, basis_size)
    w = np.array([c.value for c in constraints], dtype=complex)
    a_part, *_ = np.linalg.lstsq(C, w, rcond=None)
    if np.abs(C @ a_part - w).max() > 1e-8 * (1.0 + np.abs(w).max()):
        raise InfeasibleConstraints("constraint system unsolvable in this basis")
    _, sv, Vh = np.linalg.svd(C, full_matrices=True)
    rank = int((sv > sv[0] * 1e-13).sum()) if len(sv) else 0
    N = Vh[rank:].conj().T  # null-space basis, shape (basis, basis - rank)

    # node values of the basis monomials
    U = nodes - center
    V = np.vander(U, basis_size, increasing=True)
    b = V @ a_part
    M = V @ N

    # p=2 minimizer in closed form (weighted least squares), used as start
    sw = np.sqrt(weights)
    if M.shape[1]:
        t2, *_ = np.linalg.lstsq(sw[:, None] * M, -sw * b, rcond=None)
    else:
        t2 = np.zeros(0, dtype=complex)

    def objective(t):
        u = b + M @ t
        return float((weights * np.abs(u) ** p).sum())

    if p == 2.0 or M.shape[1] == 0:
        return objective(t2) ** (1.0 / p)

    nt = M.shape[1]

    def fun_grad(x):
        t = x[:nt] + 1j * x[nt:]
        u = b + M @ t
        absu = np.abs(u)
        f = float((weights * absu ** p).sum())
        # d|u|^p/dt with u = b + M t, t = x + i y
        scale = weights * p * np.where(absu > 0.0, absu ** (p - 2.0), 0.0)
        inner = M.conj() * (scale * u)[:, None]
        gx = inner.sum(axis=0)
        return f, np.concatenate([gx.real, gx.imag])

    x0 = np.concatenate([t2.real, t2.imag])
    res = minimize(fun_grad, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10})
    f_best = min(res.fun, objective(t2))
    if not res.success and res.fun > objective(t2) * (1.0 + 1e-6):
        raise NonConvergence(f"optimizer failed: {res.message}")
    return f_best ** (1.0 / p)


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


def two_point_probe_constant(d: float, trials: int = 8, seed: int = 0) -> float:
    """Interpolation constant of the two-cluster probe {0, d} with
    eps = d/4 (clusters stay separate) and targets drawn on the sphere."""
    from .schemes import build_minimal_scheme

    Z = PointSequence([0.0, d])
    scheme = build_minimal_scheme(Z, d / 4.0)
    if len(scheme.clusters) != 2:
        raise ValueError(f"probe separation {d} did not produce two clusters")
    targets = JetTargets.values_on_scheme(scheme, [0.0, 1.0])
    report = solve_p2(scheme, targets)
    return report.norm_value / report.target_norm
