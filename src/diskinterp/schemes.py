"""Construction and verification of cluster interpolation schemes.

A scheme partitions a finite point multiset into clusters, attaches a
domain of bounded pseudohyperbolic diameter to each cluster, and carries
the four structural constants: diameter R, inner radius epsilon,
separation delta, and cluster bound B.  The minimal construction takes
the clusters to be the connected components of the union of epsilon-balls
around the points, found by union-find on the ball-intersection graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import DiameterOverflow, NoValidEpsilon
from .geometry import PseudoDisk, as_complex, euclidean_images, hyp_sum, psi_array, psi_matrix

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
    """Union of pseudohyperbolic balls (one or many); their radii may
    differ."""

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
    def radii(self) -> np.ndarray:
        return np.array([b.radius for b in self.balls])

    def contains(self, z) -> bool:
        return any(b.contains(z) for b in self.balls)

    def diameter(self) -> float:
        """Exact pseudohyperbolic diameter (a supremum) of the union.

        psi is tanh of an additive geodesic distance, so points of the balls
        about c_i and c_j reach hyp_sum(psi(c_i, c_j), hyp_sum(r_i, r_j))
        apart and no further; i = j gives the diameter of one ball, and one
        ball is taken in closed form.

        With equal radii only the farthest pair of centres matters.  The
        closed psi-ball about c_i through its farthest centre holds every
        centre and is a Euclidean disk, and a centre on its edge is no
        convex combination of the others.  So both centres of a farthest
        pair are vertices of the centres' Euclidean convex hull, and the
        pairs are taken over the hull points (_hull) alone.  Mixed radii
        take every pair.
        """
        r = self.radii
        if len(r) == 1:
            return float((r[0] + r[0]) / (1.0 + r[0] * r[0]))
        c = self.centers
        if (r == r[0]).all():
            c, r = c[_hull(c)], r[:1]
        s = (r[:, None] + r[None, :]) / (1.0 + r[:, None] * r[None, :])
        d = psi_matrix(c, c)
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


# Candidate pairs tested at once by _touching_pairs, and point pairs per
# row block of _measured_separation: bounds their temporaries.
PAIR_BLOCK = 2 ** 18
# Arcs swept at once by _deepest (a single circle may exceed it), and the
# circles of one block, whose index takes the top bits of a sort key.
SWEEP_BLOCK = 2 ** 17
SWEEP_CIRCLES = 2 ** 11


def _hull(points: np.ndarray) -> np.ndarray:
    """Sorted indices of the points kept as vertices of their Euclidean
    convex hull: every true vertex, and any point within rounding of the
    hull's edge.

    A closed psi-ball is a Euclidean disk, and a point on the edge of a
    disk is no convex combination of other points of the disk.  So within
    a finite set the farthest point (in psi) from any point is a hull
    vertex, and so are both points of a farthest pair.

    A point is dropped only when it lies deeper than tau inside the hull,
    so that no rounding can drop a true vertex.  With m = min(1 - |z|^2),
    tau = 64 eps / m^2 also keeps every point that rounding of psi could
    make a farthest one.  psi = tanh(d/2) for the hyperbolic metric
    2|dz|/(1 - |z|^2), at least twice the Euclidean one, and
    1 - psi^2 >= m^2 / 4 for every pair; so from a depth of tau, psi to any
    point falls at least tau m^2 / 4 = 16 eps short of its maximum over
    the hull.  Extra points never change a maximum.

    First the points deeper than tau inside the polygon of the extreme
    points in eight directions are dropped (Akl and Toussaint 1978), all at
    once.  The rest go through Andrew's monotone chain (1979), sorted by
    (Re z, Im z), a lower and an upper pass; a pass drops its last point a
    between o and the new point b when a - o and b - o have a cross product
    below -tau (|a - o|_1 + |b - o|_1).  Rounding moves each cross product
    by a few eps times that sum.
    """
    n = len(points)
    if n < 3:
        return np.arange(n)
    m = float((1.0 - (points * points.conjugate()).real).min())
    tau = 64.0 * np.finfo(float).eps / (m * m)
    # counterclockwise: the extremes at 0, 45, ..., 315 degrees
    x, y = points.real, points.imag
    p = points[[x.argmax(), (x + y).argmax(), y.argmax(), (y - x).argmax(),
                x.argmin(), (x + y).argmin(), y.argmin(), (x - y).argmax()]]
    e = np.roll(p, -1) - p
    p, e = p[e != 0], e[e != 0]
    w = points[:, None] - p
    # Im(conj(e) w) is the cross product of e and w, > 0 inside; equal
    # points leave no edge and nothing inside
    deep = (e.conjugate() * w).imag > tau * (abs(e.real) + abs(e.imag) + abs(w.real) + abs(w.imag))
    rest = np.flatnonzero(~deep.all(axis=1) | (len(e) == 0))
    order = rest[np.lexsort((y[rest], x[rest]))]
    x, y = x[order].tolist(), y[order].tolist()
    kept = []
    for sweep in (range(len(order)), range(len(order) - 1, -1, -1)):
        chain = []
        for b in sweep:
            while len(chain) > 1:
                o, a = chain[-2], chain[-1]
                ax, ay, bx, by = x[a] - x[o], y[a] - y[o], x[b] - x[o], y[b] - y[o]
                if ax * by - ay * bx >= -tau * (abs(ax) + abs(ay) + abs(bx) + abs(by)):
                    break
                chain.pop()
            chain.append(b)
        kept += chain
    return np.unique(order[kept])


def _touching_pairs(centers: np.ndarray, radii: np.ndarray):
    """Index arrays (a, b), one entry per unordered pair i != j of open
    pseudo-disks D(centers[i], radii[i]) that intersect, i.e. whose centres
    are at psi < hyp_sum(r_i, r_j).

    Candidates come from a sort-and-sweep over the real extents of the
    Euclidean image disks (widened by a relative 1e-9, so rounding drops no
    pair), tested in blocks of PAIR_BLOCK; the psi test decides.
    """
    n = len(centers)
    c, r = euclidean_images(centers, radii)
    pad = r * (1.0 + 1e-9) + 1e-15
    order = np.argsort(c.real - pad, kind="stable")
    lo = (c.real - pad)[order]
    hi = (c.real + pad)[order]
    # sorted position p meets positions p+1 .. p+cnt[p]
    cnt = np.searchsorted(lo, hi, side="right") - np.arange(1, n + 1)
    cum = np.concatenate([[0], np.cumsum(cnt)])
    out_a, out_b = [], []
    p = 0
    while p < n:
        q = max(p + 1, int(np.searchsorted(cum, cum[p] + PAIR_BLOCK, side="right")) - 1)
        k = cnt[p:q]
        first = np.repeat(np.arange(p, q), k)
        second = first + 1 + np.arange(len(first)) - np.repeat(cum[p:q] - cum[p], k)
        a, b = order[first], order[second]
        d = psi_array(centers[a], centers[b])
        ra, rb = radii[a], radii[b]
        keep = d < (ra + rb) / (1.0 + ra * rb)
        out_a.append(a[keep].astype(np.int32))
        out_b.append(b[keep].astype(np.int32))
        p = q
    # one list freed before the other is joined
    a = np.concatenate(out_a)
    del out_a[:]
    return a, np.concatenate(out_b)


def _components(Z: PointSequence, eps: float) -> list[tuple[int, ...]]:
    """Connected components of the epsilon-ball intersection graph.

    Two open psi-balls of radius eps intersect iff their centers are at
    psi-distance < hyp_sum(eps, eps); this tight threshold is the merge
    relation.  Repeated point values merge automatically (distance 0).
    """
    n = len(Z)
    uf = _UnionFind(n)
    for i, j in zip(*_touching_pairs(Z.array, np.full(n, float(eps)))):
        uf.union(int(i), int(j))
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    comps = [tuple(sorted(g)) for g in groups.values()]
    comps.sort(key=lambda c: c[0])
    return comps


def _measured_separation(Z: PointSequence, clusters) -> float:
    """Minimum psi over pairs of points in distinct clusters (0 if one
    cluster), in row blocks of at most PAIR_BLOCK pairs."""
    if len(clusters) < 2:
        return 0.0
    z = Z.array
    label = np.empty(len(z), dtype=int)
    for k, c in enumerate(clusters):
        label[list(c.members)] = k
    rows = max(1, PAIR_BLOCK // len(z))
    best = np.inf
    for lo in range(0, len(z), rows):
        d = psi_matrix(z[lo:lo + rows], z)
        d[label[lo:lo + rows, None] == label[None, :]] = np.inf
        best = min(best, float(d.min()))
    return best


def _build(Z: PointSequence, eps: float, domain) -> InterpolationScheme:
    """The step both builders share.  The clusters are the connected
    components of the union of eps-balls around the points of Z, and
    domain(points) gives the domain of a cluster's points.  Raises
    DiameterOverflow at the first domain whose diameter reaches
    DIAMETER_CAP, before the separation is measured."""
    if len(Z) == 0:
        raise ValueError("point sequence must be nonempty")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    clusters = tuple(Cluster(c) for c in _components(Z, eps))
    domains = []
    max_diam = 0.0
    for c in clusters:
        dom = domain(Z.array[list(c.members)])
        diam = dom.diameter()
        if diam >= DIAMETER_CAP:
            raise DiameterOverflow(f"domain diameter {diam} >= {DIAMETER_CAP}; reduce eps")
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


def build_minimal_scheme(Z: PointSequence, eps: float) -> InterpolationScheme:
    """Scheme whose domains are the connected components of the union of
    eps-balls around the points of Z.

    Raises DiameterOverflow if any component has pseudohyperbolic diameter
    >= 1 - 1e-9 (eps too large for this sequence).
    """
    # one ball per distinct point value, in order of first appearance;
    # repeats add nothing to the union
    return _build(Z, eps, lambda pts: Domain(tuple(PseudoDisk(v, eps) for v in dict.fromkeys(pts))))


def build_maximal_scheme(Z: PointSequence, eps: float) -> InterpolationScheme:
    """Same clusters, separation and cluster bound as the minimal scheme,
    each domain a single ball: center = the cluster member minimizing the
    maximum psi to the others (ties to the lowest index), radius = that
    minimax value + eps.

    A member's farthest member is a vertex of the cluster's Euclidean
    convex hull (see _hull), so each member's largest psi is taken over the
    h hull points alone: an m x h matrix, with the same floats as the
    m x m one.

    Raises DiameterOverflow if a ball's radius or diameter reaches
    1 - 1e-9.  The ball holds its cluster's eps-union (the radius is at
    least hyp_sum(minimax, eps)), so this happens wherever the minimal
    scheme overflows, and also where only the ball does.
    """
    def ball(pts):
        worst = psi_matrix(pts, pts[_hull(pts)]).max(axis=1)
        best = int(np.argmin(worst))  # argmin takes the first (lowest index) tie
        radius = float(worst[best]) + eps
        if radius >= DIAMETER_CAP:
            raise DiameterOverflow(f"maximal-domain radius {radius} >= {DIAMETER_CAP}")
        return Domain((PseudoDisk(pts[best], radius),))

    return _build(Z, eps, ball)


def auto_epsilon(Z: PointSequence, r0: float) -> float:
    """Largest eps whose radius recursion e_1 = eps,
    e_{j+1} = hyp_sum(e_j, hyp_sum(eps, eps)) stays at most r0 after B
    steps, B = bounded_density(Z, r0).

    hyp_sum(s, t) = tanh(artanh s + artanh t), so artanh e_{B+1} =
    (2B + 1) artanh eps, and that eps is tanh(artanh r0 / (2B + 1)).  It
    guarantees every connected component of the eps-union fits in some
    ball of radius r0, so build_minimal_scheme succeeds.  Raises
    NoValidEpsilon when it is below 1e-6.
    """
    if not 0.0 < r0 < 1.0:
        raise ValueError(f"r0 must be in (0,1), got {r0}")
    B = bounded_density(Z, r0)
    eps = math.tanh(math.atanh(r0) / (2 * B + 1))
    if eps < 1e-6:
        raise NoValidEpsilon(f"eps = {eps} < 1e-6 for B={B}, r0={r0}")
    return eps


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


def _sweep(c, r, a, b, circles, local, labels, weights, merge, unit):
    """Deepest point along some Euclidean circles (c[i], r[i]):
    (depth, i, theta).

    The circles swept are circles[k], k < SWEEP_CIRCLES, and local[i] is k
    for them and -1 for the other circles.  Each pair (a[j], b[j]) is two
    disks of different labels that meet, one of them swept.  depth is the
    largest, over those circles i and angles theta, of weights[labels[i]]
    plus the weight of the other labels whose open disks hold the point at
    angle theta of circle i; 0 when no arc is left.  A disk covers an open
    arc of the circle, or all of it when disk i lies in it; tangency and
    disks inside disk i give nothing.  With merge, a label's arcs on a
    circle are first merged, so that it counts once however many disks it
    has; unit says that every weight is 1.

    Arc ends are compared on the grid of angles k 2^-48 (3.6e-15 rad, four
    doubles near 2 pi, about the rounding error of the ends themselves),
    with ends before starts at one grid angle: arcs that overlap by less
    than a grid step count as touching, so rounding never adds depth.
    """
    la, lb = local[a], local[b]
    v = c[b] - c[a]
    d, ra, rb = np.abs(v), r[a], r[b]
    # half-widths from Heron's product: its factors carry no cancellation
    # beyond the data's, unlike the arccos of the cosine rule near tangency
    s, t = ra + rb, ra - rb
    root = np.sqrt(np.maximum((s + d) * (s - d) * (d - t) * (d + t), 0.0))
    dd, st = d * d, s * t
    # arcs on circle a (from disk b), then on circle b (from disk a)
    full = np.concatenate([d <= -t, d <= t])
    half = np.concatenate([np.arctan2(root, dd + st), np.arctan2(root, dd - st)])
    keep = np.concatenate([(la >= 0) & (d > t), (lb >= 0) & (d > -t)]) & (half > 0.0)
    keep |= np.concatenate([la >= 0, lb >= 0]) & full
    toward = np.angle(v)
    lo = np.concatenate([toward, toward + np.pi])[keep] - half[keep]
    lo[lo < 0.0] += 2.0 * np.pi
    lo[lo >= 2.0 * np.pi] -= 2.0 * np.pi
    hi = lo + 2.0 * half[keep]
    full = full[keep]
    lo[full], hi[full] = 0.0, 2.0 * np.pi
    # an arc across angle 0 is cut there into two
    wrap = np.flatnonzero(hi > 2.0 * np.pi)
    hi[wrap] -= 2.0 * np.pi
    # sort key: block circle, grid angle, then 0 for an end and 1 for a start
    circle = np.concatenate([la, lb])[keep].astype(np.int64) << 52
    grid = 2.0 ** 48
    key = np.concatenate([
        circle | (lo * grid).astype(np.int64) << 1 | 1,
        circle[wrap] | 1,
        circle | (hi * grid).astype(np.int64) << 1,
        circle[wrap] | int(2.0 * np.pi * grid) << 1])
    if merge or not unit:
        label = labels[np.concatenate([b, a])[keep]]
        label = np.concatenate([label, label[wrap], label, label[wrap]])
    if merge:
        # a label comes on where its cover count leaves 0 and goes off
        # where it returns there; each (label, circle) group's steps sum
        # to 0, so one running sum serves every group
        idx = np.lexsort((key, label))
        cover = np.cumsum((key[idx] & 1) * 2 - 1)
        idx = idx[np.where(key[idx] & 1, cover == 1, cover == 0)]
        key, label = key[idx], label[idx]
    if len(key) == 0:
        return 0, -1, 0.0
    if unit:
        key = np.sort(key)
        depth = 2 * np.cumsum(key & 1) - np.arange(len(key))
    else:
        idx = np.argsort(key)
        key = key[idx]
        depth = np.cumsum(weights[label[idx]] * ((key & 1) * 2 - 1))
        depth += weights[labels[circles]][key >> 52]
    k = int(np.argmax(depth))
    # the maximum follows a start, and the circle's next event, an end or
    # a later start, lies at a larger grid angle
    grid = (key[k:k + 2] >> 1) & (2 ** 51 - 1)
    return int(depth[k]), int(circles[key[k] >> 52]), float(grid.sum()) * 2.0 ** -49


def _deepest(centers, radii, labels, weights):
    """Deepest point of labelled open pseudo-disks: (depth, i, theta).

    depth is the largest total weight of labels having some disk that holds
    one common point (disk i has label labels[i], label l weight
    weights[l] >= 1).  Every pseudo-disk is a Euclidean disk, and the
    deepest cell of their arrangement is bounded by arcs of disks that
    contain it.  So depth is the maximum over disks i of the weight of
    labels[i] plus the weight of the other labels whose open disks hold
    some point of circle i (or all of it); it is attained just inside disk
    i near the point at angle theta of its Euclidean image circle.

    Pairs come from _touching_pairs.  Circles are swept (_sweep) in
    decreasing order of the bound weights[labels[i]] + the weights of the
    disks of other labels meeting disk i: first the top one, then blocks of
    at most SWEEP_CIRCLES circles and, unless one circle has more,
    SWEEP_BLOCK arcs, stopping once no bound exceeds the depth found.
    """
    n = len(centers)
    labels = np.asarray(labels)
    weights = np.asarray(weights)
    own = weights[labels]
    merge = bool((np.bincount(labels) > 1).any())
    unit = bool((weights == 1).all())
    a, b = _touching_pairs(centers, radii)
    if merge:
        other = labels[a] != labels[b]
        a, b = a[other], b[other]
    degree = np.bincount(a, minlength=n) + np.bincount(b, minlength=n)
    if unit:
        # spares two float temporaries as long as the pair list
        bound = 1 + degree
    else:
        bound = own + np.bincount(a, own[b], n) + np.bincount(b, own[a], n)
    order = np.argsort(-bound, kind="stable")
    arcs = np.concatenate([[0], np.cumsum(2 * degree[order])])
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n)
    # the pairs by rank from here on: a block is a range of ranks
    np.take(rank, a, out=a)
    np.take(rank, b, out=b)
    c, r = euclidean_images(centers, radii)
    first = int(np.argmax(own))
    best = (int(own[first]), first, 0.0)
    start = 0
    while True:
        live = int(np.searchsorted(-bound[order], -best[0], side="left"))
        if start >= live:
            return best
        stop = int(np.searchsorted(arcs, arcs[start] + SWEEP_BLOCK, side="right")) - 1
        stop = 1 if start == 0 else min(max(stop, start + 1), live, start + SWEEP_CIRCLES)
        pick = np.flatnonzero(((a >= start) & (a < stop)) | ((b >= start) & (b < stop)))
        local = np.where((rank >= start) & (rank < stop), rank - start, -1)
        found = _sweep(c, r, order[a[pick]], order[b[pick]], order[start:stop], local,
                       labels, weights, merge, unit)
        if found[0] > best[0]:
            best = found
        start = stop


def bounded_density(Z: PointSequence, R: float) -> int:
    """Bounded density of Z at radius R: the exact sup over w in the disk
    of the number of points of Z, counted with multiplicity, in the open
    psi-ball D(w, R).

    w lies in D(z, R) iff z lies in D(w, R), so the sup is the largest
    number of the open balls D(z, R), one per point of Z with multiplicity,
    that hold one common point.  _deepest finds it by sweeping their
    boundary circles; no centres are sampled.
    """
    if len(Z) == 0:
        return 0
    if not 0.0 < R < 1.0:
        raise ValueError(f"R must be in (0,1), got {R}")
    points, counts = np.unique(Z.array, return_counts=True)
    return _deepest(points, np.full(len(points), float(R)),
                    np.arange(len(points)), counts)[0]


def overlap_bound(s: InterpolationScheme) -> int:
    """Exact maximum number of scheme domains, each the union of its open
    psi-balls, that hold one common point of the disk (found by _deepest,
    each domain counted once).  1 for a minimal scheme, whose domains are
    disjoint components of the eps-union."""
    balls = [(b.center, b.radius, k) for k, d in enumerate(s.domains) for b in d.balls]
    centers, radii, labels = (np.array(x) for x in zip(*balls))
    return _deepest(centers, radii, labels, np.ones(len(s.domains), dtype=int))[0]


def check_admissibility(s: InterpolationScheme) -> AdmissibilityReport:
    """Measure R, eps, delta, B from the scheme data and compare against the
    declared constants.  Failures are reported, never raised.

    R is the largest domain diameter (Domain.diameter).

    Inner radius: a cluster point at psi-distance t from the centre of a
    ball of radius r sees (r - t)/(1 - r t) of room to that ball's edge.
    The best ball per point, least over points, is a lower bound: exact on
    one-ball domains, <= 0 if a point lies outside its domain.  Only a ball
    that holds a point gives it positive room, so each point is measured
    against the balls of its domain that _touching_pairs finds holding it
    (points as disks of radius 0); a point with no positive room there,
    outside its domain or on its edge, is measured against every ball of
    its domain.  A holding ball is missed only by rounding of psi in the
    candidate test, with the point on its edge to rounding: the bound
    stays a lower bound.
    """
    tol = 1e-9
    meas_R = max(d.diameter() for d in s.domains)
    z = s.sequence.array[np.concatenate([c.members for c in s.clusters])]
    owner = np.repeat(np.arange(len(s.clusters)), [len(c) for c in s.clusters])
    c = np.concatenate([d.centers for d in s.domains])
    r = np.concatenate([d.radii for d in s.domains])
    label = np.repeat(np.arange(len(s.domains)), [len(d.balls) for d in s.domains])
    # radius-0 points meet no other point: a pair whose lower index is
    # a point is a point and a ball holding it
    a, b = _touching_pairs(np.concatenate([z, c]), np.concatenate([np.zeros(len(z)), r]))
    a, b = np.minimum(a, b), np.maximum(a, b) - len(z)
    keep = a < len(z)
    a, b = a[keep], b[keep]
    keep = owner[a] == label[b]
    a, b = a[keep], b[keep]
    t = psi_array(z[a], c[b])
    best = np.full(len(z), -np.inf)
    np.maximum.at(best, a, (r[b] - t) / (1.0 - r[b] * t))
    for i in np.flatnonzero(best <= 0.0):
        own = label == owner[i]
        t = psi_array(z[i], c[own])
        best[i] = ((r[own] - t) / (1.0 - r[own] * t)).max()
    meas_eps = float(best.min())
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
