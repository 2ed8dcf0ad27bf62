import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskinterp.errors import DiameterOverflow, NoValidEpsilon
from diskinterp.geometry import (
    PseudoDisk,
    hyp_sum,
    moebius,
    moebius_many,
    pseudo_to_euclidean,
    psi,
    psi_matrix,
)
from diskinterp.schemes import (
    DIAMETER_CAP,
    Cluster,
    Domain,
    InterpolationScheme,
    PointSequence,
    auto_epsilon,
    bounded_density,
    build_maximal_scheme,
    build_minimal_scheme,
    check_admissibility,
    hyperbolic_lattice,
    overlap_bound,
)
from diskinterp.schemes import _deepest


def brute_force_components(points, eps):
    """Transitive closure over the merge relation, independent of union-find."""
    thr = hyp_sum(eps, eps)
    n = len(points)
    adj = [[psi(points[i], points[j]) < thr for j in range(n)] for i in range(n)]
    labels = list(range(n))
    changed = True
    while changed:
        changed = False
        for i, j in itertools.combinations(range(n), 2):
            if adj[i][j] and labels[i] != labels[j]:
                lo, hi = sorted((labels[i], labels[j]))
                labels = [lo if l == hi else l for l in labels]
                changed = True
    groups = {}
    for i, l in enumerate(labels):
        groups.setdefault(l, []).append(i)
    return sorted(tuple(g) for g in groups.values())


def scheme_components(scheme):
    return sorted(c.members for c in scheme.clusters)


def test_components_match_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = rng.integers(2, 12)
        pts = rng.uniform(-0.8, 0.8, n) + 1j * rng.uniform(-0.5, 0.5, n)
        eps = rng.uniform(0.02, 0.4)
        seq = PointSequence(pts)
        s = build_minimal_scheme(seq, eps)
        assert scheme_components(s) == brute_force_components(pts, eps)


def test_repeats_land_in_one_cluster():
    s = build_minimal_scheme(PointSequence([0.3, 0.3, -0.5]), 0.01)
    comps = scheme_components(s)
    assert comps == [(0, 1), (2,)]
    assert s.cluster_bound == 2


def test_domain_balls_at_distinct_points_in_first_order():
    # one ball per distinct value of a component, in order of first
    # appearance, against the pairwise scan over the members
    z = [0.3, 0.31j, 0.3, 0.2 + 0.1j, 0.31j, 0.2 + 0.1j, 0.3]
    s = build_minimal_scheme(PointSequence(z), 0.2)
    ((dom),) = s.domains
    want = []
    for v in z:
        if all(v != w for w in want):
            want.append(v)
    assert [b.center for b in dom.balls] == want
    assert all(b.radius == 0.2 for b in dom.balls)


def test_two_point_merge_threshold():
    # psi(0, 0.1) = 0.1; merge iff 0.1 < hyp_sum(eps, eps)
    seq = PointSequence([0.0, 0.1])
    s = build_minimal_scheme(seq, 0.06)
    assert len(s.clusters) == 1
    s = build_minimal_scheme(seq, 0.05)
    assert len(s.clusters) == 2  # hyp_sum(0.05, 0.05) ~ 0.0998 < 0.1


def test_minimal_scheme_covers_points():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.7, 0.7, 8) + 1j * rng.uniform(-0.5, 0.5, 8)
    s = build_minimal_scheme(PointSequence(pts), 0.2)
    for k, c in enumerate(s.clusters):
        dom = s.domains[k]
        for i in c.members:
            assert any(psi(b.center, pts[i]) <= b.radius + 1e-12 for b in dom.balls)


def test_maximal_scheme_single_ball_radius():
    # merged pair: the enclosing ball sits at a minimax member point
    s = build_maximal_scheme(PointSequence([0.0, 0.1]), 0.06)
    assert len(s.clusters) == 1
    dom = s.domains[0]
    assert dom.is_disk
    ball = dom.balls[0]
    worst = max(psi(ball.center, 0.0), psi(ball.center, 0.1))
    assert ball.radius == pytest.approx(worst + 0.06, abs=1e-12)
    # ties go to the lowest index member
    assert ball.center == 0.0


# Samples at angular step h miss a circle's extreme points by O(h^2); with
# 256 per circle the shortfall stays below this on the balls drawn below.
CIRCLE_SAMPLES = 256
DIAMETER_SAMPLING_TOL = 1e-4

ball_specs = st.tuples(
    st.floats(0.0, 0.8), st.floats(0.0, 2.0 * np.pi), st.floats(0.01, 0.7)
)


@settings(max_examples=50, deadline=None)
@given(st.lists(ball_specs, min_size=1, max_size=5))
def test_diameter_against_boundary_samples(specs):
    balls = tuple(PseudoDisk(m * np.exp(1j * a), r) for m, a, r in specs)
    ang = 2.0 * np.pi * np.arange(CIRCLE_SAMPLES) / CIRCLE_SAMPLES
    circles = []
    for b in balls:
        e = pseudo_to_euclidean(b)
        circles.append(e.center + e.radius * np.exp(1j * ang))
    sampled = max(
        psi_matrix(p, q).max()
        for p, q in itertools.combinations_with_replacement(circles, 2)
    )
    diam = Domain(balls).diameter()
    assert sampled - 1e-12 <= diam <= sampled + DIAMETER_SAMPLING_TOL


def test_diameter_overflow():
    with pytest.raises(DiameterOverflow):
        build_maximal_scheme(PointSequence([-0.99, 0.99]), 0.9999)
    # the eps-union of 0 and 0.6 has diameter 0.912, but the maximal ball
    # about 0 has radius 0.6 + 0.39996 and diameter 1 - 8e-10 >= cap
    Z, eps = PointSequence([0.0, 0.6]), 0.39996
    s = build_minimal_scheme(Z, eps)
    assert len(s.clusters) == 1 and s.diameter < 0.92
    assert 2 * 0.99996 / (1 + 0.99996 ** 2) >= DIAMETER_CAP > 0.99996
    with pytest.raises(DiameterOverflow):
        build_maximal_scheme(Z, eps)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10), st.floats(0.01, 0.9))
def test_maximal_scheme_shares_the_minimal_step(seed, n, eps):
    # 1-10 points in |z| < 0.95, some repeated: the same clusters,
    # separation and cluster bound, and a DiameterOverflow wherever the
    # minimal builder raises one
    rng = np.random.default_rng(seed)
    distinct = 0.95 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    Z = PointSequence(distinct[rng.integers(0, rng.integers(1, n + 1), n)])
    try:
        s = build_minimal_scheme(Z, eps)
    except DiameterOverflow:
        with pytest.raises(DiameterOverflow):
            build_maximal_scheme(Z, eps)
        return
    try:
        m = build_maximal_scheme(Z, eps)
    except DiameterOverflow:
        # only a ball overflows: its radius or its diameter reaches the cap
        radii = []
        for k in range(len(s.clusters)):
            pts = s.cluster_points(k)
            radii.append(float(psi_matrix(pts, pts).max(axis=1).min()) + eps)
        r = max(radii)
        assert r >= DIAMETER_CAP or 2 * r / (1 + r * r) >= DIAMETER_CAP
        return
    assert m.clusters == s.clusters
    assert m.separation == s.separation
    assert m.cluster_bound == s.cluster_bound
    assert m.inner_radius == s.inner_radius == eps
    assert m.diameter == max(d.diameter() for d in m.domains) < DIAMETER_CAP


def test_separation_positive_for_disjoint_clusters():
    s = build_minimal_scheme(PointSequence([0.0, 0.8]), 0.1)
    assert len(s.clusters) == 2
    assert s.separation == pytest.approx(0.8, abs=1e-12)


def test_auto_epsilon_recursion_property():
    seq = PointSequence([0.0, 0.05, 0.6])
    r0 = 0.5
    eps = auto_epsilon(seq, r0)
    assert 0.0 < eps < r0
    # every component of the eps-union fits within a ball of radius r0
    s = build_minimal_scheme(seq, eps)
    for dom in s.domains:
        assert dom.diameter() <= 2.0 * r0 / (1.0 + r0 * r0) + 1e-9


def bisection_epsilon(B, r0):
    """auto_epsilon as it was found before its closed form: 40 bisection
    steps over [1e-6, r0] on the radius recursion e_1 = eps,
    e_{j+1} = hyp_sum(e_j, hyp_sum(eps, eps)), keeping e_{B+1} <= r0."""
    def reaches(eps):
        e, diam = eps, hyp_sum(eps, eps)
        for _ in range(B):
            e = hyp_sum(e, diam)
            if e > r0:
                return False
        return True

    lo, hi = 1e-6, r0
    if reaches(hi):
        return hi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 37), st.floats(0.05, 0.95))
def test_auto_epsilon_is_the_closed_form(seed, n, copies, r0):
    # 1-8 distinct points in |z| < 0.9, each taken 1 to `copies` times:
    # bounded densities from 1 to 296
    rng = np.random.default_rng(seed)
    distinct = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    Z = PointSequence(np.repeat(distinct, rng.integers(1, copies + 1, n)))
    eps = auto_epsilon(Z, r0)
    B = bounded_density(Z, r0)
    assert B <= 300
    assert math.tanh((2 * B + 1) * math.atanh(eps)) == pytest.approx(r0, rel=1e-12)
    assert eps == pytest.approx(bisection_epsilon(B, r0), rel=1e-9)
    s = build_minimal_scheme(Z, eps)
    assert max(d.diameter() for d in s.domains) <= hyp_sum(r0, r0) + 1e-9


def test_auto_epsilon_no_solution():
    with pytest.raises(NoValidEpsilon):
        auto_epsilon(PointSequence([0.0, 0.1]), 1e-8)


def test_hyperbolic_lattice_inside_disk():
    lat = hyperbolic_lattice(0.8, 0.2)
    assert len(lat) > 1
    assert lat[0] == 0.0
    assert np.all(np.abs(lat) < 1.0)


def test_bounded_density_examples():
    assert bounded_density(PointSequence([0.0]), 0.3) == 1
    assert bounded_density(PointSequence([0.0, 0.5]), 0.3) == 2
    # widely separated points: each ball of radius 0.1 sees at most one
    assert bounded_density(PointSequence([0.0, 0.9]), 0.1) == 1
    # multiplicity counts
    assert bounded_density(PointSequence([0.2, 0.2, 0.2]), 0.05) == 3


def test_bounded_density_monotone_in_radius():
    seq = PointSequence([0.0, 0.2, 0.5, -0.3j])
    vals = [bounded_density(seq, r) for r in (0.1, 0.3, 0.6, 0.9)]
    assert vals == sorted(vals)


def test_bounded_density_blocks_match_dense_count():
    # the densest 0.3-ball is centred on a lattice point: 40 points, each
    # taken 20 times, on a psi-circle of radius 0.28 about it, plus 100
    # points across the disk
    R = 0.3
    centre = hyperbolic_lattice(0.9, R / 4.0)[1930]
    ring = moebius_many(centre, 0.28 * np.exp(2j * np.pi * np.arange(40) / 40))
    rng = np.random.default_rng(7)
    far = -0.3 * centre / abs(centre) + 0.1 * rng.uniform(size=100) * np.exp(
        2j * np.pi * rng.uniform(size=100))
    z = np.concatenate([np.repeat(ring, 20), far])
    cover = hyp_sum(float(np.abs(z).max()), R)
    candidates = np.concatenate([z, hyperbolic_lattice(cover, R / 4.0)])
    a, b = candidates[:, None], z[None, :]
    counts = (np.abs((a - b) / (1.0 - np.conj(b) * a)) < R).sum(axis=1)
    assert bounded_density(PointSequence(z), R) == int(counts.max()) == 800


def lattice_count(z, R):
    """The estimate bounded_density gave before it was exact: the largest
    count of points in a psi-ball of radius R about a point of z or of a
    hyperbolic lattice of pitch R/4 covering them.  A lower bound."""
    cover = hyp_sum(min(float(np.abs(z).max()), 1.0 - 1e-9), R)
    candidates = np.concatenate([z, hyperbolic_lattice(cover, R / 4.0)])
    return int((psi_matrix(candidates, z) < R).sum(axis=1).max())


def sampled_depth(centers, radii, labels, fractions=(1.0 - 1e-9, 0.999, 0.9, 0.5, 0.0)):
    """Largest number of labels having a ball that holds one sample point,
    over points at the given fractions of each Euclidean image radius."""
    ang = np.exp(2j * np.pi * np.arange(1024) / 1024)
    best = 0
    for c, r in zip(centers, radii):
        e = pseudo_to_euclidean(PseudoDisk(c, r))
        x = e.center + np.multiply.outer(fractions, e.radius * ang).ravel()
        inside = psi_matrix(x, centers) < radii
        best = max(best, max(len(set(labels[row])) for row in inside))
    return best


def witness_depth(centers, radii, labels, weights, i, theta):
    """Weight of labels[i] and of the other labels having a ball that holds
    the point at angle theta of ball i's Euclidean image circle."""
    e = pseudo_to_euclidean(PseudoDisk(centers[i], radii[i]))
    inside = psi_matrix([e.center + e.radius * np.exp(1j * theta)], centers)[0] < radii
    return int(weights[labels[i]] + sum(weights[l] for l in set(labels[inside]) - {labels[i]}))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.floats(0.05, 0.9))
def test_bounded_density_is_exact_sup(seed, n, R):
    # 1-8 points in |z| < 0.9, some of them repeated
    rng = np.random.default_rng(seed)
    distinct = 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    z = distinct[rng.integers(0, rng.integers(1, n + 1), n)]
    got = bounded_density(PointSequence(z), R)
    points, counts = np.unique(z, return_counts=True)
    radii = np.full(len(points), R)
    labels = np.arange(len(points))
    depth, i, theta = _deepest(points, radii, labels, counts)
    assert got == depth <= n
    assert got >= lattice_count(z, R)
    sample = psi_matrix(
        np.concatenate([pseudo_to_euclidean(PseudoDisk(p, R)).center
                        + (1.0 - 1e-9) * pseudo_to_euclidean(PseudoDisk(p, R)).radius
                        * np.exp(2j * np.pi * np.arange(1024) / 1024) for p in points]), z)
    assert got >= int((sample < R).sum(axis=1).max())
    assert witness_depth(points, radii, labels, counts, i, theta) == got


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.floats(0.02, 0.3))
def test_overlap_bound_is_exact_on_maximal_schemes(seed, n, eps):
    # maximal domains: one ball per cluster, radii differ, balls may nest
    rng = np.random.default_rng(seed)
    distinct = 0.8 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    z = distinct[rng.integers(0, rng.integers(1, n + 1), n)]
    try:
        s = build_maximal_scheme(PointSequence(z), eps)
    except DiameterOverflow:
        return
    got = overlap_bound(s)
    centers = np.array([d.balls[0].center for d in s.domains])
    radii = np.array([d.balls[0].radius for d in s.domains])
    labels = np.arange(len(centers))
    ones = np.ones(len(centers), dtype=int)
    depth, i, theta = _deepest(centers, radii, labels, ones)
    assert got == depth <= len(s.domains)
    assert got >= sampled_depth(centers, radii, labels)
    assert witness_depth(centers, radii, labels, ones, i, theta) == got


def test_overlap_bound_counts_each_domain_once():
    # domain 0 is two overlapping balls, both holding the ball of domain 1
    # (so a count per ball would give 3) and both meeting the ball of
    # domain 2, which misses domain 1: two domains at most
    s = InterpolationScheme(
        sequence=PointSequence([0.0, 0.2, 0.55]),
        clusters=(Cluster((0,)), Cluster((1,)), Cluster((2,))),
        domains=(Domain((PseudoDisk(0.0, 0.5), PseudoDisk(0.1, 0.5))),
                 Domain((PseudoDisk(0.2, 0.05),)),
                 Domain((PseudoDisk(0.55, 0.1),))),
        diameter=0.9, inner_radius=0.05, separation=0.2, cluster_bound=1,
    )
    centers = np.array([0.0, 0.1, 0.2, 0.55])
    radii = np.array([0.5, 0.5, 0.05, 0.1])
    labels = np.array([0, 0, 1, 2])
    assert overlap_bound(s) == sampled_depth(centers, radii, labels) == 2
    depth, i, theta = _deepest(centers, radii, labels, np.ones(3, dtype=int))
    assert depth == witness_depth(centers, radii, labels, np.ones(3, dtype=int), i, theta) == 2


def spiral_cloud(seed, n=300, rmax=0.55, jitter=0.05):
    """The benchmark's cloud: n points evenly in area over |z| < rmax on a
    golden-angle spiral, turned at random and moved by up to `jitter`
    spacings."""
    rng = np.random.default_rng(seed)
    k = np.arange(n)
    turn = rng.uniform(0.0, 2.0 * np.pi)
    z = rmax * np.sqrt((k + 0.5) / n) * np.exp(1j * (k * np.pi * (3.0 - math.sqrt(5.0)) + turn))
    step = rmax * math.sqrt(math.pi / n)
    z = z + jitter * step * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    return np.where(np.abs(z) > rmax, z * rmax / np.abs(z), z)


def test_bounded_density_beats_the_lattice_on_a_cloud():
    z = spiral_cloud(0)
    assert lattice_count(z, 0.3) == 90
    assert bounded_density(PointSequence(z), 0.3) == 93
    depth, i, theta = _deepest(z, np.full(300, 0.3), np.arange(300), np.ones(300, dtype=int))
    assert depth == witness_depth(z, np.full(300, 0.3), np.arange(300),
                                  np.ones(300, dtype=int), i, theta) == 93


def test_tangent_balls_and_repeats_do_not_inflate():
    # psi(-0.5, 0.5) = 0.8 = hyp_sum(0.5, 0.5): the open 0.5-balls only touch
    assert bounded_density(PointSequence([-0.5, 0.5]), 0.5) == 1
    assert bounded_density(PointSequence([-0.5, 0.5, 0.5]), 0.5) == 2
    assert bounded_density(PointSequence([0.3, 0.3, 0.3, -0.5]), 0.1) == 3
    touching = InterpolationScheme(
        sequence=PointSequence([-0.5, 0.5]),
        clusters=(Cluster((0,)), Cluster((1,))),
        domains=(Domain((PseudoDisk(-0.5, 0.5),)), Domain((PseudoDisk(0.5, 0.5),))),
        diameter=0.8, inner_radius=0.5, separation=0.8, cluster_bound=1,
    )
    assert overlap_bound(touching) == 1
    # the same ball in two domains, and a ball inside another domain's
    same = InterpolationScheme(
        sequence=PointSequence([0.3, 0.3, 0.35]),
        clusters=(Cluster((0,)), Cluster((1,)), Cluster((2,))),
        domains=(Domain((PseudoDisk(0.3, 0.2),)), Domain((PseudoDisk(0.3, 0.2),)),
                 Domain((PseudoDisk(0.35, 0.01),))),
        diameter=0.4, inner_radius=0.01, separation=0.0, cluster_bound=1,
    )
    assert overlap_bound(same) == 3


def test_admissibility_memory_is_bounded():
    # 2000 uniform points in |z| < 0.9: no n x n matrix is formed, and the
    # bounded density at the measured diameter is the exact 747
    rng = np.random.default_rng(0)
    z = 0.9 * np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
    tracemalloc.start()
    try:
        s = build_minimal_scheme(PointSequence(z), 0.02)
        rep = check_admissibility(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 2 ** 20
    assert rep.bounded_density_at_R == 747


def _per_domain_measures(s):
    """(diameter, inner radius) measured one domain at a time."""
    meas_eps = np.inf
    for k, d in enumerate(s.domains):
        t = psi_matrix(s.cluster_points(k), d.centers)
        room = (d.radii - t) / (1.0 - d.radii * t)
        meas_eps = min(meas_eps, float(room.max(axis=1).min()))
    return max(d.diameter() for d in s.domains), meas_eps


def test_admissibility_matches_the_per_domain_loop():
    # every domain is measured from point-ball pairs; the report must
    # equal the domain-by-domain measurement against every ball exactly
    rng = np.random.default_rng(0)
    z = 0.9 * np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000))
    cloud = build_minimal_scheme(PointSequence(z), 0.02)
    assert len(cloud.clusters) == 956
    mixed_points = PointSequence([0.0, 0.03, 0.03, 0.5, 0.5j, 0.52j, -0.6, 0.7 - 0.2j, 0.7 - 0.2j])
    mixed = build_minimal_scheme(mixed_points, 0.05)
    assert {len(d.balls) for d in mixed.domains} == {1, 2}
    # one ball per cluster with radii that differ from cluster to cluster
    maximal = build_maximal_scheme(mixed_points, 0.05)
    # one component of 300 balls
    component = build_minimal_scheme(PointSequence(spiral_cloud(1)), 0.05)
    assert len(component.clusters) == 1
    # one-ball domains, 0.8 outside the ball about 0.5
    outside = InterpolationScheme(
        sequence=PointSequence([0.0, 0.8]),
        clusters=(Cluster((0,)), Cluster((1,))),
        domains=(Domain((PseudoDisk(0.0, 0.05),)), Domain((PseudoDisk(0.5, 0.05),))),
        diameter=0.1, inner_radius=0.05, separation=0.8, cluster_bound=1,
    )
    # 0.3 lies outside both balls of its domain, inside one of the other
    # domain's: measured against each ball of its own
    far = InterpolationScheme(
        sequence=PointSequence([0.0, 0.04, 0.3, 0.32]),
        clusters=(Cluster((0, 1, 2)), Cluster((3,))),
        domains=(Domain((PseudoDisk(0.0, 0.05), PseudoDisk(0.04, 0.05))),
                 Domain((PseudoDisk(0.32, 0.05), PseudoDisk(0.36, 0.05)))),
        diameter=0.4, inner_radius=0.05, separation=0.02, cluster_bound=3,
    )
    # mixed radii in one domain: 0.1 is held by both balls, 0.14 by the
    # small one alone
    mixed_radii = InterpolationScheme(
        sequence=PointSequence([0.0, 0.1, 0.14, 0.5j]),
        clusters=(Cluster((0, 1, 2)), Cluster((3,))),
        domains=(Domain((PseudoDisk(0.0, 0.2), PseudoDisk(0.12, 0.05))),
                 Domain((PseudoDisk(0.5j, 0.1),))),
        diameter=0.5, inner_radius=0.02, separation=0.3, cluster_bound=3,
    )
    # rim-style: 24 points at |z| = 0.98 and a partner at psi 0.05 inside
    # every other one, at the auto eps: one- and two-ball domains near the
    # circle
    ring = 0.98 * np.exp(2j * np.pi * np.arange(24) / 24)
    rim_points = PointSequence(np.concatenate([ring, [moebius(z, 0.05 * z / abs(z)) for z in ring[::2]]]))
    rim = build_minimal_scheme(rim_points, auto_epsilon(rim_points, 0.5))
    assert [len(d.balls) for d in rim.domains].count(2) == 12
    assert [len(d.balls) for d in rim.domains].count(1) == 12
    # maximal: a chain of 13 points at psi steps of 0.05 along [0, 0.54],
    # and a point at psi 0.15 off its minimax centre whose ball lies inside
    # the chain's ball
    chain = np.tanh(math.atanh(0.05) * np.arange(13))
    nested = build_maximal_scheme(PointSequence(np.append(chain, moebius(chain[6], 0.15j))), 0.03)
    (big,), (small,) = (d.balls for d in nested.domains)
    assert big.center == chain[6] and small.radius == 0.03
    assert psi(big.center, small.center) + small.radius < big.radius
    for s in (cloud, mixed, maximal, component, outside, far, mixed_radii, rim, nested):
        rep = check_admissibility(s)
        assert (rep.measured_diameter, rep.measured_inner_radius) == _per_domain_measures(s)
    assert check_admissibility(far).measured_inner_radius < 0.0
    assert not check_admissibility(far).p2_ok
    assert check_admissibility(mixed_radii).p2_ok


def pairwise_diameter(domain):
    """Diameter of a ball union from every pair of balls."""
    c, r = domain.centers, domain.radii
    s = (r[:, None] + r[None, :]) / (1.0 + r[:, None] * r[None, :])
    d = psi_matrix(c, c)
    return float(((d + s) / (1.0 + d * s)).max())


# a centre t e^(i angle), |t| <= 0.999, and `copies` more moved inward by
# k * ulps units of 2^-53 (ulps = 0: exact repeats)
centre_specs = st.tuples(
    st.floats(-0.999, 0.999), st.floats(0.0, 2.0 * np.pi), st.integers(0, 3), st.integers(0, 4)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(centre_specs, min_size=1, max_size=20),
       st.none() | st.floats(0.0, np.pi), st.floats(1e-3, 0.9))
def test_diameter_over_hull_pairs_is_the_pairwise_one(specs, axis, r):
    # axis: every centre on the diameter at that angle, collinear to rounding
    centres = []
    for t, angle, copies, ulps in specs:
        c = t * np.exp(1j * (angle if axis is None else axis))
        centres += [c * (1.0 - k * ulps * 2.0 ** -53) for k in range(copies + 1)]
    dom = Domain(tuple(PseudoDisk(c, r) for c in centres))
    if len(centres) == 1:
        assert dom.diameter() == (r + r) / (1.0 + r * r)
    else:
        assert dom.diameter() == pairwise_diameter(dom)


def test_maximal_balls_are_the_dense_minimax():
    # every member's largest psi over all members, least one to the lowest
    # index, against the scheme's one ball per cluster
    def dense(s, eps):
        balls = []
        for k in range(len(s.clusters)):
            pts = s.cluster_points(k)
            worst = psi_matrix(pts, pts).max(axis=1)
            best = int(np.argmin(worst))
            balls.append((pts[best], float(worst[best]) + eps))
        return balls

    square = 0.02 * np.array([1, 1j, -1, -1j])
    hexagon = moebius_many(0.5, 0.02 * np.exp(1j * np.pi / 3 * np.arange(6)))
    sets = [
        # the four vertices tie exactly: the first must win
        (square, 0.015),
        # the hexagon about a member given twice, out of index order
        (np.concatenate([hexagon[:2], [0.5], hexagon[2:], [0.5]]), 0.015),
        (spiral_cloud(1), 0.05),
    ]
    for z, eps in sets:
        s = build_maximal_scheme(PointSequence(z), eps)
        assert len(s.clusters) == 1
        assert [(d.balls[0].center, d.balls[0].radius) for d in s.domains] == dense(s, eps)
    worst = psi_matrix(square, square).max(axis=1)
    assert (worst == worst[0]).all()
    assert build_maximal_scheme(PointSequence(square), 0.015).domains[0].balls[0].center == square[0]


def test_scheme_geometry_forms_no_square_matrix():
    # one component of 1,500 balls, where a single 1,500 x 1,500 complex
    # matrix takes 36 MB; the check's peak is bounded_density's pair list
    z = spiral_cloud(0, n=1500, rmax=0.3)
    tracemalloc.start()
    try:
        s = build_minimal_scheme(PointSequence(z), 0.009)
        build_maximal_scheme(PointSequence(z), 0.009)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        check_admissibility(s)
        check_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s.clusters) == 1
    assert build_peak <= 16 * 2 ** 20
    assert check_peak <= 48 * 2 ** 20


def test_overlap_bound_disjoint():
    s = build_minimal_scheme(PointSequence([0.0, 0.8]), 0.05)
    assert overlap_bound(s) == 1


def test_admissibility_passes_for_auto_scheme():
    seq = PointSequence([0.1, 0.12, 0.7, -0.5j])
    eps = auto_epsilon(seq, 0.5)
    s = build_minimal_scheme(seq, eps)
    rep = check_admissibility(s)
    assert rep.all_ok
    assert rep.measured_cluster_bound <= rep.bounded_density_at_R


def test_admissibility_p3_failure():
    # declared separation larger than the measured one must fail P3
    seq = PointSequence([0.0, 0.8])
    s = InterpolationScheme(
        sequence=seq,
        clusters=(Cluster((0,)), Cluster((1,))),
        domains=(Domain((PseudoDisk(0.0, 0.05),)), Domain((PseudoDisk(0.8, 0.05),))),
        diameter=0.1,
        inner_radius=0.05,
        separation=0.95,
        cluster_bound=1,
    )
    rep = check_admissibility(s)
    assert not rep.p3_ok
    assert not rep.all_ok


def test_admissibility_p2_failure_point_outside_domain():
    # 0.8 lies at psi-distance 0.5 from the ball about 0.5, outside its domain
    seq = PointSequence([0.0, 0.8])
    s = InterpolationScheme(
        sequence=seq,
        clusters=(Cluster((0,)), Cluster((1,))),
        domains=(Domain((PseudoDisk(0.0, 0.05),)), Domain((PseudoDisk(0.5, 0.05),))),
        diameter=0.1,
        inner_radius=0.05,
        separation=0.8,
        cluster_bound=1,
    )
    rep = check_admissibility(s)
    assert not rep.p2_ok
    assert rep.measured_inner_radius == pytest.approx((0.05 - 0.5) / (1.0 - 0.025))


def test_admissibility_p4_failure():
    seq = PointSequence([0.0, 0.01])
    s = build_minimal_scheme(seq, 0.1)
    forged = InterpolationScheme(
        sequence=seq,
        clusters=s.clusters,
        domains=s.domains,
        diameter=s.diameter,
        inner_radius=s.inner_radius,
        separation=s.separation,
        cluster_bound=1,  # true bound is 2
    )
    assert not check_admissibility(forged).p4_ok


def test_partition_validation():
    seq = PointSequence([0.0, 0.3, 0.6])
    with pytest.raises(ValueError):
        InterpolationScheme(
            sequence=seq,
            clusters=(Cluster((0, 1)),),
            domains=(Domain((PseudoDisk(0.0, 0.4),)),),
            diameter=0.4,
            inner_radius=0.1,
            separation=0.0,
            cluster_bound=2,
        )


def test_clusters_covariant_under_rotation():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.7, 0.7, 7) + 1j * rng.uniform(-0.5, 0.5, 7)
    eps = 0.25
    base = scheme_components(build_minimal_scheme(PointSequence(pts), eps))
    rot = pts * np.exp(1j * 0.73)
    assert scheme_components(build_minimal_scheme(PointSequence(rot), eps)) == base


def test_clusters_covariant_under_moebius():
    rng = np.random.default_rng(17)
    pts = rng.uniform(-0.6, 0.6, 6) + 1j * rng.uniform(-0.4, 0.4, 6)
    eps = 0.3
    base = scheme_components(build_minimal_scheme(PointSequence(pts), eps))
    moved = np.array([moebius(0.35 - 0.1j, p) for p in pts])
    assert scheme_components(build_minimal_scheme(PointSequence(moved), eps)) == base
