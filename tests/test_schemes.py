import itertools

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
    # the densest 0.3-ball is centred on a lattice candidate that falls in
    # the third of the 2^20 // |Z| blocks: 40 points, each taken 20 times,
    # on a psi-circle of radius 0.28 about it, plus 100 points across the disk
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
    assert candidates[int(np.argmax(counts))] == centre
    assert int(np.argmax(counts)) >= 2 * (2 ** 20 // len(z))
    assert bounded_density(PointSequence(z), R) == int(counts.max()) == 800


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
