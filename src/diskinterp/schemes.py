"""Construction and verification of cluster interpolation schemes.

A scheme partitions a finite point multiset into clusters, attaches a
domain of bounded pseudohyperbolic diameter to each cluster, and carries
the four structural constants: diameter R, inner radius epsilon,
separation delta, and cluster bound B.  The minimal construction takes
the clusters to be the connected components of the union of epsilon-balls
around the points, found by union-find on the ball-intersection graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import DiameterOverflow, NoValidEpsilon
from .geometry import PseudoDisk, as_complex, hyp_sum, psi_matrix

# Components whose diameter reaches this value are rejected outright.
DIAMETER_CAP = 1.0 - 1e-9


class PointSequence:
    """Finite multiset of disk points; repeats encode multiplicity."""

    def __init__(self, points):
        vals = [as_complex(p) for p in points]
        self._array = np.asarray(vals, dtype=complex)

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def points(self) -> list[complex]:
        return list(self._array)

    def __len__(self) -> int:
        return len(self._array)

    def __iter__(self):
        return iter(self._array)

    def __getitem__(self, i) -> complex:
        return self._array[i]

    def moebius_image(self, a) -> "PointSequence":
        """Apply the automorphism swapping a and 0 to every point."""
        return PointSequence(geo.moebius_many(a, self._array))


@dataclass(frozen=True)
class Cluster:
    """Indices into the parent sequence forming one cluster."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("cluster must be nonempty")
        object.__setattr__(self, "members", tuple(int(i) for i in self.members))

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Domain:
    """Union of pseudohyperbolic balls of a common radius (one or many)."""

    balls: tuple[PseudoDisk, ...]

    def __post_init__(self):
        if not self.balls:
            raise ValueError("domain must contain at least one ball")
        object.__setattr__(self, "balls", tuple(self.balls))

    @property
    def is_disk(self) -> bool:
        return len(self.balls) == 1

    @property
    def centers(self) -> np.ndarray:
        return np.array([b.center for b in self.balls], dtype=complex)

    @property
    def radius(self) -> float:
        return self.balls[0].radius

    @property
    def radii(self) -> np.ndarray:
        return np.array([b.radius for b in self.balls])

    def contains(self, z) -> bool:
        return any(b.contains(z) for b in self.balls)

    def diameter(self) -> float:
        """Exact pseudohyperbolic diameter (a supremum) of the union.

        psi is tanh of an additive geodesic distance, so points of the balls
        about c_i and c_j reach hyp_sum(psi(c_i, c_j), hyp_sum(r_i, r_j))
        apart and no further; i = j gives the diameter of one ball.
        """
        r = self.radii
        s = (r[:, None] + r[None, :]) / (1.0 + r[:, None] * r[None, :])
        d = psi_matrix(self.centers, self.centers)
        return float(((d + s) / (1.0 + d * s)).max())


@dataclass(frozen=True)
class InterpolationScheme:
    sequence: PointSequence
    clusters: tuple[Cluster, ...]
    domains: tuple[Domain, ...]
    diameter: float
    inner_radius: float
    separation: float
    cluster_bound: int

    def __post_init__(self):
        if len(self.clusters) != len(self.domains):
            raise ValueError("clusters and domains must be parallel lists")
        seen = sorted(i for c in self.clusters for i in c.members)
        if seen != list(range(len(self.sequence))):
            raise ValueError("clusters must partition the sequence indices")

    def cluster_points(self, k: int) -> np.ndarray:
        return self.sequence.array[list(self.clusters[k].members)]


@dataclass(frozen=True)
class AdmissibilityReport:
    p1_ok: bool
    p2_ok: bool
    p3_ok: bool
    p4_ok: bool
    measured_diameter: float
    measured_inner_radius: float
    measured_separation: float
    measured_cluster_bound: int
    bounded_density_at_R: int

    @property
    def all_ok(self) -> bool:
        return self.p1_ok and self.p2_ok and self.p3_ok and self.p4_ok


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri


def _components(Z: PointSequence, eps: float) -> list[tuple[int, ...]]:
    """Connected components of the epsilon-ball intersection graph.

    Two open psi-balls of radius eps intersect iff their centers are at
    psi-distance < hyp_sum(eps, eps); this tight threshold is the merge
    relation.  Repeated point values merge automatically (distance 0).
    """
    n = len(Z)
    merge = psi_matrix(Z.array, Z.array) < hyp_sum(eps, eps)
    uf = _UnionFind(n)
    ii, jj = np.nonzero(np.triu(merge, 1))
    for i, j in zip(ii, jj):
        uf.union(int(i), int(j))
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    comps = [tuple(sorted(g)) for g in groups.values()]
    comps.sort(key=lambda c: c[0])
    return comps


def _measured_separation(Z: PointSequence, clusters) -> float:
    """Minimum psi over pairs of points in distinct clusters (0 if one cluster)."""
    if len(clusters) < 2:
        return 0.0
    label = np.empty(len(Z), dtype=int)
    for k, c in enumerate(clusters):
        label[list(c.members)] = k
    d = psi_matrix(Z.array, Z.array)
    diff = label[:, None] != label[None, :]
    return float(d[diff].min())


def build_minimal_scheme(Z: PointSequence, eps: float) -> InterpolationScheme:
    """Scheme whose domains are the connected components of the union of
    eps-balls around the points of Z.

    Raises DiameterOverflow if any component has pseudohyperbolic diameter
    >= 1 - 1e-9 (eps too large for this sequence).
    """
    if len(Z) == 0:
        raise ValueError("point sequence must be nonempty")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    comps = _components(Z, eps)
    clusters = tuple(Cluster(c) for c in comps)
    domains = []
    max_diam = 0.0
    for c in comps:
        # one ball per distinct point value; repeats add nothing to the union
        centers = []
        for i in c:
            v = Z[i]
            if all(v != w for w in centers):
                centers.append(v)
        dom = Domain(tuple(PseudoDisk(v, eps) for v in centers))
        diam = dom.diameter()
        if diam >= DIAMETER_CAP:
            raise DiameterOverflow(
                f"component diameter {diam} >= {DIAMETER_CAP}; reduce eps"
            )
        max_diam = max(max_diam, diam)
        domains.append(dom)
    return InterpolationScheme(
        sequence=Z,
        clusters=clusters,
        domains=tuple(domains),
        diameter=max_diam,
        inner_radius=eps,
        separation=_measured_separation(Z, clusters),
        cluster_bound=max(len(c) for c in clusters),
    )


def build_maximal_scheme(Z: PointSequence, eps: float) -> InterpolationScheme:
    """Same clusters as the minimal scheme, each domain replaced by a single
    ball: center = the cluster member minimizing the maximum psi to the
    others (ties to the lowest index), radius = that minimax value + eps."""
    base = build_minimal_scheme(Z, eps)
    domains = []
    max_diam = 0.0
    for k, c in enumerate(base.clusters):
        pts = base.cluster_points(k)
        d = psi_matrix(pts, pts)
        worst = d.max(axis=1)
        best = int(np.argmin(worst))  # argmin takes the first (lowest index) tie
        radius = float(worst[best]) + eps
        if radius >= DIAMETER_CAP:
            raise DiameterOverflow(f"maximal-domain radius {radius} >= {DIAMETER_CAP}")
        dom = Domain((PseudoDisk(pts[best], radius),))
        max_diam = max(max_diam, dom.diameter())
        domains.append(dom)
    return InterpolationScheme(
        sequence=Z,
        clusters=base.clusters,
        domains=tuple(domains),
        diameter=max_diam,
        inner_radius=eps,
        separation=base.separation,
        cluster_bound=base.cluster_bound,
    )


def _recursion_reaches(eps: float, B: int, r0: float) -> bool:
    """Radius recursion e_1 = eps, e_{j+1} = hyp_sum(e_j, diam of eps-ball);
    True iff e_{B+1} <= r0."""
    diam = hyp_sum(eps, eps)
    e = eps
    for _ in range(B):
        e = hyp_sum(e, diam)
        if e > r0:
            return False
    return e <= r0


def auto_epsilon(Z: PointSequence, r0: float) -> float:
    """Largest eps (by bisection, 40 iterations over [1e-6, r0]) whose radius
    recursion stays below r0 after B steps, B = bounded_density(Z, r0).

    The resulting eps guarantees every connected component of the eps-union
    fits in some ball of radius r0, so build_minimal_scheme succeeds.
    """
    if not 0.0 < r0 < 1.0:
        raise ValueError(f"r0 must be in (0,1), got {r0}")
    if r0 <= 1e-6:
        # below the bisection floor even one recursion step overshoots
        raise NoValidEpsilon(f"r0={r0} is below the bisection floor 1e-6")
    B = bounded_density(Z, r0)
    lo, hi = 1e-6, r0
    if not _recursion_reaches(lo, B, r0):
        raise NoValidEpsilon(f"no eps >= 1e-6 works for B={B}, r0={r0}")
    if _recursion_reaches(hi, B, r0):
        return hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _recursion_reaches(mid, B, r0):
            lo = mid
        else:
            hi = mid
    return lo


def hyperbolic_lattice(max_radius: float, pitch: float) -> np.ndarray:
    """Rings of points around the origin, consecutive rings and angular
    neighbors about one pitch apart in psi. Includes the origin."""
    pts = [0.0 + 0.0j]
    t = 0.0
    while True:
        t = hyp_sum(t, pitch)
        if t > max_radius:
            break
        m = max(int(np.ceil(2.0 * np.pi * t / (pitch * (1.0 - t * t)))), 4)
        ang = 2.0 * np.pi * np.arange(m) / m
        pts.extend(t * np.exp(1j * ang))
        if t > 1.0 - 1e-9:
            break
    return np.asarray(pts, dtype=complex)


def bounded_density(Z: PointSequence, R: float) -> int:
    """Maximum number of points of Z (with multiplicity) in any psi-ball of
    radius R, estimated over candidate centers: the points of Z themselves
    plus a hyperbolic lattice of pitch R/4 covering the region of Z.

    A lower bound for the true sup over all centers; exact on small
    instances (brute-force checked in the test suite).
    """
    if len(Z) == 0:
        return 0
    if not 0.0 < R < 1.0:
        raise ValueError(f"R must be in (0,1), got {R}")
    zmax = float(np.abs(Z.array).max())
    cover = hyp_sum(min(zmax, 1.0 - 1e-9), R)
    candidates = np.concatenate([Z.array, hyperbolic_lattice(cover, R / 4.0)])
    # count in blocks of about 2^20 candidate-point pairs, so memory stays
    # bounded however large the lattice grows
    rows = max(1, 2 ** 20 // len(Z))
    return max(
        int((psi_matrix(candidates[lo:lo + rows], Z.array) < R).sum(axis=1).max())
        for lo in range(0, len(candidates), rows)
    )


def overlap_bound(s: InterpolationScheme) -> int:
    """Max number of scheme domains covering any one sample point."""
    samples = [np.array([b.center for d in s.domains for b in d.balls])]
    pitch = max(s.inner_radius / 2.0, 1e-3)
    reach = min(hyp_sum(s.diameter, 1e-3), 1.0 - 1e-9)
    zmax = float(np.abs(s.sequence.array).max())
    samples.append(hyperbolic_lattice(min(hyp_sum(zmax, reach), 1 - 1e-9), pitch))
    grid = np.concatenate(samples)
    count = np.zeros(len(grid), dtype=int)
    for d in s.domains:
        inside = np.zeros(len(grid), dtype=bool)
        for b in d.balls:
            inside |= np.abs((grid - b.center) / (1.0 - np.conj(b.center) * grid)) < b.radius
        count += inside
    return int(count.max())


def check_admissibility(s: InterpolationScheme) -> AdmissibilityReport:
    """Measure R, eps, delta, B from the scheme data and compare against the
    declared constants.  Failures are reported, never raised."""
    tol = 1e-9
    meas_R = max(d.diameter() for d in s.domains)
    # inner radius: a cluster point at psi-distance t from the centre of a
    # ball of radius r sees (r - t)/(1 - r t) of room to that ball's edge.
    # The best ball per point, least over points, is a lower bound: exact
    # on one-ball domains, <= 0 if a point lies outside its domain.
    meas_eps = np.inf
    for k, d in enumerate(s.domains):
        t = psi_matrix(s.cluster_points(k), d.centers)
        room = (d.radii - t) / (1.0 - d.radii * t)
        meas_eps = min(meas_eps, float(room.max(axis=1).min()))
    meas_delta = _measured_separation(s.sequence, s.clusters)
    meas_B = max(len(c) for c in s.clusters)
    dens = bounded_density(s.sequence, min(max(meas_R, 1e-3), 0.999))
    p1 = meas_R <= s.diameter + tol
    p2 = meas_eps >= s.inner_radius - 1e-6
    if len(s.clusters) == 1:
        p3 = True
    else:
        p3 = meas_delta > 0.0 and meas_delta + tol >= s.separation
    p4 = meas_B <= s.cluster_bound
    return AdmissibilityReport(
        p1_ok=bool(p1),
        p2_ok=bool(p2),
        p3_ok=bool(p3),
        p4_ok=bool(p4),
        measured_diameter=float(meas_R),
        measured_inner_radius=float(meas_eps),
        measured_separation=float(meas_delta),
        measured_cluster_bound=int(meas_B),
        bounded_density_at_R=int(dens),
    )
