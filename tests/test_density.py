import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskinterp.density import (
    K_WEIGHT_BLOCK,
    default_density_report,
    density_quotient,
    estimate_upper_densities,
    k_hat,
    k_weight,
    k_weight_circles,
    k_weight_many,
    local_mean,
    local_means,
)
from diskinterp.errors import EmptyGrid
from diskinterp.geometry import PseudoDisk, euclidean_images, pseudo_to_euclidean
from diskinterp.grids import GridFunction, PolarGridSpec, midpoint_radii, ring_angles
from diskinterp.schemes import PointSequence


def circle_average_oracle(Z, r, n=512):
    """Trapezoid rule on |zeta| = r; the integrand is smooth and periodic,
    so 512 points are far beyond machine precision here."""
    t = 2.0 * np.pi * np.arange(n) / n
    zeta = r * np.exp(1j * t)
    return float(np.mean([k_weight(Z, z) for z in zeta]))


def test_k_weight_examples():
    Z = PointSequence([0.5])
    # at zeta = 0.8: (0.64/2) * (0.75^2 / 0.36)
    assert k_weight(Z, 0.8) == pytest.approx(0.5, abs=1e-12)
    assert k_weight(Z, 0.0) == 0.0
    assert k_weight(PointSequence([]), 0.7) == 0.0


def test_k_weight_many_matches_scalar():
    Z = PointSequence([0.5, -0.2 + 0.1j])
    zs = np.array([0.1, 0.8j, -0.3 + 0.3j])
    out = k_weight_many(Z, zs)
    for v, z in zip(out, zs):
        assert v == pytest.approx(k_weight(Z, z), abs=1e-14)
    # near-rim pairs, |a| = |z| = 0.999 an angle 1e-4 apart, in a 2-D array:
    # 1 - 2 Re(conj(a) z) + |a|^2 |z|^2 loses about 1e-10 relative there
    a = 0.999 * np.exp(1j * np.array([0.3, 2.0, -1.2]))
    Z = PointSequence(a)
    zs = 0.999 * np.exp(1j * (np.angle(a)[None, :] + np.array([[1e-4], [-1e-4]])))
    out = k_weight_many(Z, zs)
    assert out.shape == zs.shape
    for v, z in zip(out.ravel(), zs.ravel()):
        assert v == pytest.approx(k_weight(Z, z), rel=1e-12)


def test_k_weight_many_blocks():
    # a 2-D array spanning several blocks of (point, node) pairs, against
    # the direct complex formula
    rng = np.random.default_rng(5)
    a = 0.95 * np.sqrt(rng.uniform(size=7)) * np.exp(2j * np.pi * rng.uniform(size=7))
    zs = 0.99 * np.sqrt(rng.uniform(size=(300, 80))) * np.exp(2j * np.pi * rng.uniform(size=(300, 80)))
    assert zs.size * len(a) > 2 * K_WEIGHT_BLOCK
    terms = (1.0 - np.abs(a) ** 2)[:, None, None] ** 2 / np.abs(
        1.0 - np.conj(a)[:, None, None] * zs[None]
    ) ** 2
    expect = 0.5 * np.abs(zs) ** 2 * terms.sum(axis=0)
    got = k_weight_many(PointSequence(a), zs)
    assert got.shape == zs.shape
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


_polar = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_polar, max_size=30),
    st.lists(st.integers(0, 29), max_size=30),
    st.lists(_polar, min_size=1, max_size=4),
    st.floats(0.05, 0.95),
    st.integers(1, 12),
    st.integers(3, 26),
    st.floats(0.0, 1.0),
)
@example([(1.0, 0.3), (1.0, 0.3)], [0, 1], [(1.0, 0.3)], 0.9, 12, 26, 1.0)
@example([], [], [(0.5, 1.0)], 0.5, 5, 7, 0.5)
# three angles on one circle about a centre at |c| = 0.95, points by the
# disk: sigma^N |x|^N is far above 1e-3, so the aliases of each power count
@example([(0.97, 2.0), (1.0, 2.1), (0.9, 1.9)], [], [(0.95, 2.0)], 0.95, 1, 3, 0.0)
def test_k_weight_circles_matches_k_weight_many(points, repeats, centres, r, n_a, n_b, squeeze):
    # 0-60 points with repeats, |z_k| up to 0.9999 (squeeze pulls some onto
    # the nodes), on local_mean's circles in psi-disks of radius up to 0.95
    # about centres out to |c| = 0.999, for odd and even angle counts
    z = np.array([0.9999 * m * np.exp(1j * t) for m, t in points], dtype=complex)
    z = np.concatenate([z, z[[i for i in repeats if i < len(z)]]])
    c = np.array([0.999 * m * np.exp(1j * t) for m, t in centres])
    C, s = euclidean_images(c, r)
    seen = []
    local_means(lambda w: seen.append(w) or np.ones(w.shape), C, s, 2.0, grid=(n_a, n_b))
    (nodes,) = seen
    rings = midpoint_radii(s, n_a)
    # the nodes are local_mean's midpoint polar nodes, bit for bit
    assert np.array_equal(nodes, C[:, None, None] + rings[:, :, None] * np.exp(1j * ring_angles(n_b)))
    if len(z):
        near = nodes.reshape(-1)[np.arange(len(z)) % nodes.size]
        z = np.where(np.arange(len(z)) % 2, z, (1.0 - squeeze) * z + squeeze * near)
    got = k_weight_circles(PointSequence(z), C, s, (n_a, n_b))
    want = k_weight_many(PointSequence(z), nodes)
    assert got.shape == nodes.shape
    if not len(z):
        assert not got.any()
        return
    # the error model of k_weight_circles: per term t_k a few roundoffs times
    # kappa = ((1 + q)/(1 - q))^2, q = |z_k| rho / |1 - conj(z_k) C| below
    # 2r/(1 + r^2), and the 1/|1 - conj(z_k) w| that any evaluation at a
    # rounded node has; 32 roundoffs of each, summed over the points
    u = np.finfo(float).eps / 2
    d = np.abs(1.0 - np.conj(z) * nodes[..., None])
    t = (1.0 - np.abs(z) ** 2) ** 2 / d ** 2
    q = np.abs(z) * rings[:, :, None, None] / np.abs(1.0 - np.conj(z) * C[:, None, None, None])
    assert q.max() < 2.0 * r / (1.0 + r * r)
    kappa = ((1.0 + q) / (1.0 - q)) ** 2
    bound = 32.0 * u * 0.5 * np.abs(nodes) ** 2 * (t * (kappa + 1.0 / d)).sum(axis=-1)
    assert (np.abs(got - want) <= bound).all()


def test_k_weight_circles_blocks():
    # 5 points take many disks a block; one disk of 500 points fills more
    # than half a block, and 2,000 points are more than one disk's block, so
    # their products are summed over blocks of points
    rng = np.random.default_rng(11)
    c = 0.9 * np.sqrt(rng.uniform(size=9)) * np.exp(2j * np.pi * rng.uniform(size=9))
    C, s = euclidean_images(c, 0.5)
    nodes = C[:, None, None] + midpoint_radii(s, 24)[:, :, None] * np.exp(1j * ring_angles(24))
    assert 2 * 5 * 25 <= 2 * K_WEIGHT_BLOCK < 2000 * 25
    for n in (5, 500, 2000):
        z = 0.95 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        got = k_weight_circles(PointSequence(z), C, s, (24, 24))
        want = k_weight_many(PointSequence(z), nodes)
        assert np.abs(got - want).max() <= 1e-14 * want.max()
    # no disks: no nodes and no values
    assert k_weight_circles(PointSequence(z), [], [], (24, 24)).shape == (0, 24, 24)
    assert local_means(np.abs, [], [], 2.0, (24, 24)).shape == (0,)


def test_k_hat_example():
    assert k_hat(PointSequence([0.5]), 0.8) == pytest.approx(0.214285714285, abs=1e-10)


def test_k_hat_matches_circle_average():
    rng = np.random.default_rng(4)
    for _ in range(10):
        pts = rng.uniform(-0.8, 0.8, 4) + 1j * rng.uniform(-0.5, 0.5, 4)
        Z = PointSequence(pts)
        r = rng.uniform(0.1, 0.95)
        assert k_hat(Z, r) == pytest.approx(circle_average_oracle(Z, r), rel=1e-10)


def test_k_functionals_additive_in_points():
    Z1 = PointSequence([0.3])
    Z2 = PointSequence([-0.4j])
    Z = PointSequence([0.3, -0.4j])
    for r in (0.2, 0.7):
        assert k_hat(Z, r) == pytest.approx(k_hat(Z1, r) + k_hat(Z2, r), abs=1e-14)
    z = 0.5 + 0.1j
    assert k_weight(Z, z) == pytest.approx(k_weight(Z1, z) + k_weight(Z2, z), abs=1e-14)


def test_k_hat_rotation_invariant():
    pts = np.array([0.3, 0.5j, -0.2 + 0.4j])
    rot = pts * np.exp(1j * 1.3)
    for r in (0.4, 0.9):
        assert k_hat(PointSequence(pts), r) == pytest.approx(
            k_hat(PointSequence(rot), r), abs=1e-14
        )


def test_density_quotient():
    # single point at 0, r = 0.8: 0.5 / log(1/0.36)
    val = density_quotient(PointSequence([0.0]), 0.8)
    assert val == pytest.approx(0.5 / math.log(1.0 / 0.36), abs=1e-12)
    # strict inequality: a point exactly at |z| = r does not count
    assert density_quotient(PointSequence([0.8]), 0.8) == 0.0
    # multiplicity doubles the sum
    single = density_quotient(PointSequence([0.3]), 0.9)
    double = density_quotient(PointSequence([0.3, 0.3]), 0.9)
    assert double == pytest.approx(2.0 * single, abs=1e-14)


def test_density_quotient_vanishes_for_finite_sequences():
    Z = PointSequence([0.1, 0.5, -0.3j])
    vals = [density_quotient(Z, r) for r in (0.9, 0.99, 0.999, 0.9999999)]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] < 0.1


def test_estimate_upper_densities_report_shape():
    Z = PointSequence([0.2, -0.5j])
    rep = estimate_upper_densities(Z, (0.9, 0.95), (0.0, 0.2))
    assert rep.d_values.shape == (2, 2)
    assert rep.d_plus_estimate == pytest.approx(float(rep.d_values[-1].max()))
    assert rep.s_plus_estimate == pytest.approx(float(rep.s_values[-1].max()))
    assert len(list(rep.rows())) == 4


def test_estimate_upper_densities_validation():
    Z = PointSequence([0.2])
    with pytest.raises(EmptyGrid):
        estimate_upper_densities(Z, (), (0.0,))
    with pytest.raises(ValueError):
        estimate_upper_densities(Z, (0.95, 0.9), (0.0,))


def test_estimate_upper_densities_matches_loop():
    # the loop over Moebius images that the table replaces
    rng = np.random.default_rng(5)
    pts = 0.9 * np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40))
    Z = PointSequence(np.concatenate([pts, pts[:5]]))
    radii = (0.3, 0.9, 0.95, 0.99)
    centers = [0.0, 0.5j, *pts[:10]]
    rep = estimate_upper_densities(Z, radii, centers)
    for j, a in enumerate(centers):
        W = Z.moebius_image(a)
        for i, r in enumerate(radii):
            log = math.log(1.0 / (1.0 - r * r))
            assert rep.d_values[i, j] == pytest.approx(density_quotient(W, r), rel=1e-12, abs=1e-15)
            assert rep.s_values[i, j] == pytest.approx(k_hat(W, r) / log, rel=1e-12)


def test_default_report_centers_in_first_appearance_order():
    Z = PointSequence([0.2, -0.5j, 0.2, 0.0, 0.3, -0.5j])
    assert default_density_report(Z).mobius_centers == (0.0, 0.2, -0.5j, 0.3)


def test_default_report_centers_include_origin_and_points():
    Z = PointSequence([0.2, 0.2, -0.5j])
    rep = default_density_report(Z)
    assert rep.mobius_centers[0] == 0.0
    assert set(rep.mobius_centers) == {0.0, 0.2, -0.5j}
    assert rep.radii == (0.9, 0.95, 0.99)


def test_local_mean_constant_function():
    for q in (1.0, 2.0, 3.5, np.inf):
        assert local_mean(lambda w: np.full_like(w, 2.0, dtype=complex), 0.3, q, 0.4) \
            == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("q", [1.0, 2.5, np.inf])
def test_local_means_of_a_real_integrand_match_its_complex_copy(q):
    # a real integrand is taken without a complex copy, bit for bit
    def real(w):
        return np.cos(3.0 * w.real) - w.imag * np.abs(w)

    centers, radii = [0.1 + 0.2j, -0.5j, 0.7], [0.05, 0.2, 0.25]
    got = local_means(real, centers, radii, q, grid=(12, 16))
    expect = local_means(lambda w: real(w) + 0j, centers, radii, q, grid=(12, 16))
    assert got.dtype == float
    assert np.array_equal(got, expect)


def test_local_mean_monotone_in_q():
    f = lambda w: w  # |f| is not constant, so means strictly increase with q
    means = [local_mean(f, 0.5, q, 0.3) for q in (1.0, 2.0, 4.0)]
    sup = local_mean(f, 0.5, np.inf, 0.3)
    assert means == sorted(means)
    assert means[-1] <= sup + 1e-12


def test_local_mean_q2_oracle():
    # |f|^2 = |w|^2 over the Euclidean disk D(c, s):
    # mean = c^2 + s^2/2 for real c
    z, r = 0.4, 0.3
    e = pseudo_to_euclidean(PseudoDisk(z, r))
    expect = math.sqrt(e.center.real ** 2 + e.radius ** 2 / 2.0)
    assert local_mean(lambda w: w, z, 2.0, r) == pytest.approx(expect, rel=1e-4)


@pytest.mark.parametrize("q", [2.0, np.inf])
def test_local_mean_matches_midpoint_rule(q):
    # the polar midpoint rule on the Euclidean image disk, nodes unrotated;
    # on a nearest-node grid function a rotated node set gives other values
    f = GridFunction.sample(lambda z: 0.3 + (0.5 - 0.2j) * z ** 2 + z.imag, PolarGridSpec(64, 128, 0.9))
    z, r, n = 0.5 + 0.3j, 0.4, 24
    disk = pseudo_to_euclidean(PseudoDisk(z, r))
    rr = (np.arange(n) + 0.5) * disk.radius / n
    tt = 2.0 * np.pi * np.arange(n) / n
    vals = np.abs(f.as_callable()(disk.center + rr[:, None] * np.exp(1j * tt[None, :])))
    if q == np.inf:
        expect = vals.max()
    else:
        dr, dt = disk.radius / n, 2.0 * np.pi / n
        expect = math.sqrt((vals ** 2 * rr[:, None]).sum() * dr * dt / disk.area)
    assert local_mean(f, z, q, r, grid=(n, n)) == pytest.approx(expect, rel=1e-12)
