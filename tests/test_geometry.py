import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskinterp import geometry as geo
from diskinterp.errors import PointOutsideDisk
from diskinterp.geometry import (
    DiskPoint,
    PseudoDisk,
    hyp_sum,
    hyperbolic_midpoint,
    invariant_area_weight,
    moebius,
    moebius_deriv,
    euclidean_images,
    pseudo_to_euclidean,
    psi,
    psi_array,
    rho,
)

disk_points = st.complex_numbers(max_magnitude=0.95, allow_infinity=False, allow_nan=False)


def test_diskpoint_rejects_boundary_and_outside():
    with pytest.raises(PointOutsideDisk):
        DiskPoint(1.0)
    with pytest.raises(PointOutsideDisk):
        DiskPoint(1.5 + 0.2j)
    with pytest.raises(PointOutsideDisk):
        DiskPoint(1.0 - 1e-14)
    DiskPoint(0.999)


def test_psi_examples():
    assert psi(0.0, 0.5) == 0.5
    assert psi(0.3 + 0.4j, 0.3 + 0.4j) == 0.0
    assert psi(0.3, -0.3) == pytest.approx(0.6 / 1.09, abs=1e-12)


def test_psi_symmetry_and_range():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z, w = rng.uniform(-0.7, 0.7, 2) + 1j * rng.uniform(-0.7, 0.7, 2)
        assert psi(z, w) == pytest.approx(psi(w, z), abs=1e-15)
        assert 0.0 <= psi(z, w) < 1.0


def test_moebius_examples():
    a = 0.3 + 0.2j
    assert moebius(a, a) == 0.0
    assert moebius(a, 0.0) == a
    assert moebius(0.5, 0.25) == pytest.approx(0.25 / 0.875, abs=1e-15)


@settings(max_examples=200)
@given(disk_points, disk_points)
def test_moebius_involution(a, z):
    assert abs(moebius(a, moebius(a, z)) - z) < 1e-14


def test_rho():
    assert rho(0.0) == 1.0
    assert rho(0.9) == pytest.approx(0.1, abs=1e-15)
    assert rho(0.6 + 0.0j) == pytest.approx(0.4, abs=1e-15)


def test_pseudo_to_euclidean_examples():
    e = pseudo_to_euclidean(PseudoDisk(0.0, 0.3))
    assert e.center == 0.0 and e.radius == pytest.approx(0.3)
    e = pseudo_to_euclidean(PseudoDisk(0.5, 0.5))
    assert e.center == pytest.approx(0.4, abs=1e-15)
    assert e.radius == pytest.approx(0.4, abs=1e-15)


def test_pseudo_to_euclidean_area_comparable_to_rho_squared():
    # |D(z, r)| vs (1 - |z|)^2 stays in a fixed bracket as |z| -> 1
    ratios = []
    for a in (0.9, 0.99, 0.999):
        e = pseudo_to_euclidean(PseudoDisk(a, 0.5))
        ratios.append(e.area / (1.0 - a) ** 2)
    assert max(ratios) / min(ratios) < 2.0


def test_boundary_set_equality():
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
        r = rng.uniform(0.1, 0.8)
        e = pseudo_to_euclidean(PseudoDisk(c, r))
        for s in e.center + e.radius * np.exp(2j * np.pi * np.arange(16) / 16):
            assert psi(c, s) == pytest.approx(r, abs=1e-10)


def test_hyp_sum():
    assert hyp_sum(0.0, 0.7) == 0.7
    assert hyp_sum(0.1, 0.1) == pytest.approx(0.2 / 1.01, abs=1e-15)
    rng = np.random.default_rng(0)
    for s, t in rng.uniform(0.0, 0.999999, (100, 2)):
        assert hyp_sum(s, t) < 1.0


def test_invariant_area_weight():
    assert invariant_area_weight(0.0) == 1.0
    assert invariant_area_weight(0.5) == pytest.approx(0.75 ** -2, abs=1e-12)


def test_invariant_area_weight_transforms_like_measure():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, z = rng.uniform(-0.7, 0.7, 2) + 1j * rng.uniform(-0.7, 0.7, 2)
        w = moebius(a, z)
        jac = abs(moebius_deriv(a, z)) ** 2
        assert invariant_area_weight(w) * jac == pytest.approx(
            invariant_area_weight(z), rel=1e-10
        )


def test_moebius_invariance_of_psi():
    rng = np.random.default_rng(11)
    for _ in range(500):
        z, w, a = rng.uniform(-0.9, 0.9, 3) + 1j * rng.uniform(-0.4, 0.4, 3)
        assert abs(psi(moebius(a, z), moebius(a, w)) - psi(z, w)) < 1e-12


def test_hyperbolic_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(500):
        x, y, z = rng.uniform(-0.7, 0.7, 3) + 1j * rng.uniform(-0.6, 0.6, 3)
        assert psi(x, z) <= hyp_sum(psi(x, y), psi(y, z)) + 1e-12


def test_hyperbolic_midpoint():
    m = hyperbolic_midpoint(0.0, 0.5)
    assert psi(0.0, m) == pytest.approx(psi(m, 0.5), abs=1e-12)
    assert m.real == pytest.approx(2.0 - np.sqrt(3.0), abs=1e-12)


def test_psi_array_matches_scalar():
    pts = np.array([0.1, -0.2 + 0.3j, 0.5j])
    out = geo.psi_array(0.2, pts)
    for v, p in zip(out, pts):
        assert v == pytest.approx(psi(0.2, p), abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0 - 1e-12), st.floats(0.0, 2.0 * np.pi))
def test_psi_array_of_a_point_and_itself_is_zero(r, t):
    a = r * np.exp(1j * t)
    assert psi_array(a, a) == 0.0
    z = np.array([a, 0.5 * a, a])
    np.testing.assert_array_equal(psi_array(z[:, None], z[None, :]).diagonal(), 0.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(disk_points, st.floats(0.01, 0.99)), min_size=1, max_size=8))
def test_euclidean_images_match_pseudo_to_euclidean(disks):
    # arrays agree with the per-disk images to 1e-15 relative, times the
    # formula's condition 1 / ((1 - |c|^2)(1 - r^2 |c|^2)): numpy's complex
    # product may round |c|^2 differently from Python's.  Scalars stay
    # Python numbers.
    centers = np.array([c for c, _ in disks], dtype=complex)
    radii = np.array([r for _, r in disks])
    got_c, got_r = euclidean_images(centers, radii)
    for c, r, gc, gr in zip(centers, radii, got_c, got_r):
        e = pseudo_to_euclidean(PseudoDisk(complex(c), float(r)))
        tol = 1e-15 / ((1.0 - abs(c) ** 2) * (1.0 - r * r * abs(c) ** 2))
        assert abs(gc - e.center) <= tol * abs(e.center)
        assert abs(gr - e.radius) <= tol * e.radius
        sc, sr = euclidean_images(complex(c), float(r))
        assert type(sc) is complex and type(sr) is float
        assert abs(sc - e.center) <= 1e-15 * abs(e.center)
        assert abs(sr - e.radius) <= 1e-15 * e.radius
