import math
from fractions import Fraction

import numpy as np
import pytest

from diskinterp.dbar import green_potential, log_kernel_smooth, weighted_space_norm
from diskinterp.density import local_mean
from diskinterp.grids import GridFunction, PolarGridSpec, gauss_jacobi, gauss_laguerre
from diskinterp.interpolation import weighted_norms
from diskinterp.reps import (
    BlaschkeLagrangeRep,
    KernelRep,
    bergman_kernel_deriv,
    complex_derivative,
)
from diskinterp.schemes import PointSequence


def test_bergman_kernel_values():
    # unit disk: K(z, w) = 1/(pi (1 - wbar z)^2)
    z, w = 0.3 + 0.1j, -0.2 + 0.4j
    expect = 1.0 / (math.pi * (1.0 - np.conj(w) * z) ** 2)
    assert complex(bergman_kernel_deriv(z, w, 0, 0)) == pytest.approx(expect, rel=1e-14)
    # K(0, 0) on a disk of radius s: 1/(pi s^2)
    assert complex(bergman_kernel_deriv(0.0, 0.0, 0, 0, s=0.5)) == pytest.approx(
        1.0 / (math.pi * 0.25), rel=1e-14
    )


def test_bergman_kernel_derivatives_match_finite_differences():
    w = 0.2 - 0.3j
    h = 1e-5
    for m in (1, 2):
        exact = complex(bergman_kernel_deriv(0.1, w, m, 0))
        stencil = [complex(bergman_kernel_deriv(0.1 + k * h, w, 0, 0)) for k in (-1, 0, 1)]
        if m == 1:
            fd = (stencil[2] - stencil[0]) / (2 * h)
        else:
            fd = (stencil[2] - 2 * stencil[1] + stencil[0]) / (h * h)
        assert exact == pytest.approx(fd, rel=1e-4)
    # hermitian symmetry of the mixed derivative: d_z d_wbar K(z,w)
    # conjugates under swapping the arguments
    a = complex(bergman_kernel_deriv(0.1, w, 1, 1))
    b = complex(bergman_kernel_deriv(w, 0.1, 1, 1))
    assert a == pytest.approx(np.conj(b), rel=1e-12)


def test_complex_derivative_of_polynomial():
    fun = lambda z: z ** 4 - 2.0 * z
    z = np.array(0.3 + 0.2j)
    assert complex(complex_derivative(fun, z, 1)) == pytest.approx(
        4.0 * (0.3 + 0.2j) ** 3 - 2.0, rel=1e-10
    )
    assert complex(complex_derivative(fun, z, 3)) == pytest.approx(
        24.0 * (0.3 + 0.2j), rel=1e-8
    )


def test_kernelrep_matches_kernel():
    f = KernelRep(((0.2 + 0j, 0, 1.0 + 0j),))
    z = np.array(0.5j)
    assert complex(f(z)) == pytest.approx(
        complex(bergman_kernel_deriv(0.5j, 0.2, 0, 0)), rel=1e-14
    )


def test_kernelrep_derivative_matches_term_sum(monkeypatch):
    # the blocked (points x terms) product against the sum over terms, with
    # mixed term orders, a local kernel and blocks of a few rows
    from diskinterp import reps

    rng = np.random.default_rng(3)
    pts = 0.4 * (rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7))
    terms = tuple((complex(p), int(n), complex(c)) for p, n, c in zip(
        pts, [0, 1, 2, 0, 1, 0, 2], rng.standard_normal(7) + 1j * rng.standard_normal(7)))
    z = 0.5 * (rng.uniform(-1, 1, (6, 5)) + 1j * rng.uniform(-1, 1, (6, 5)))
    monkeypatch.setattr(reps, "KERNEL_BLOCK", 20)
    for center, scale in ((0.0, 1.0), (0.1 - 0.05j, 0.9)):
        f = KernelRep(terms, center, scale)
        for order in (0, 1, 2):
            want = sum(c * bergman_kernel_deriv(z, p, order, n, center, scale) for p, n, c in terms)
            got = f.derivative(z, order)
            assert got.shape == z.shape
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            assert complex(f.derivative(z[2, 3], order)) == pytest.approx(complex(want[2, 3]), rel=1e-13)
    assert KernelRep(()).derivative(z, 1).shape == z.shape
    assert not KernelRep(()).derivative(z, 1).any()


def test_blaschke_rep_constant_term():
    f = BlaschkeLagrangeRep(((2.5 + 0j, ()),))
    assert complex(f(np.array(0.3 + 0.3j))) == pytest.approx(2.5, rel=1e-14)


def test_rep_serialization_roundtrippable():
    for rep in (
        KernelRep(((0.1 + 0j, 1, 0.5j),)),
        BlaschkeLagrangeRep(((1.0 + 0j, ((0.2 + 0j, 0.4 + 0j),)),)),
    ):
        d = rep.to_dict()
        assert isinstance(d["kind"], str)
        import json

        json.dumps(d)  # must be JSON-ready


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        PolarGridSpec(8, 64)
    with pytest.raises(ValueError):
        PolarGridSpec(64, 64, 1.1)


def test_grid_function_shape_check():
    spec = PolarGridSpec(32, 32)
    with pytest.raises(ValueError):
        GridFunction(spec, np.zeros((4, 4)))


def test_grid_integrate_constant():
    spec = PolarGridSpec(64, 64, 0.9)
    g = GridFunction.sample(lambda z: np.ones_like(z), spec)
    assert complex(g.integrate()) == pytest.approx(math.pi * 0.81, rel=1e-12)


def test_grid_as_callable_nearest_node():
    spec = PolarGridSpec(64, 64, 0.9)
    g = GridFunction.sample(lambda z: z, spec)
    fun = g.as_callable()
    z = 0.412 + 0.333j
    assert abs(complex(fun(np.array(z))) - z) < 0.05


def test_grid_to_table_format():
    spec = PolarGridSpec(16, 16, 0.5)
    g = GridFunction.sample(lambda z: np.ones_like(z), spec)
    table = g.to_table()
    lines = table.strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) == 1 + 16 * 16
    assert len(lines[1].split()) == 4


def test_nodes_in_euclidean_disk_matches_direct_count():
    rng = np.random.default_rng(3)
    for spec in (PolarGridSpec(16, 16, 0.9), PolarGridSpec(40, 64), PolarGridSpec(64, 128, 0.5)):
        g = GridFunction(spec, np.zeros((spec.n_radial, spec.n_angular)))
        disks = [
            (0.6, 0.2),  # straddles angle 0
            (0.05 - 0.01j, 0.3),  # holds the origin
            (0.0, 0.37),  # centred at the origin
            (0.8j, spec.max_radius - 0.8 + 0.05),  # reaches past the rim
            (-0.9, 0.5),  # centre beyond the grid
        ]
        disks += [(rng.uniform(0, 1.1) * np.exp(2j * np.pi * rng.uniform()),
                   rng.uniform(0.01, 1.2)) for _ in range(200)]
        for c, r in disks:
            want = int((np.abs(spec.nodes - c) < r).sum())
            assert g.nodes_in_euclidean_disk(c, r) == want


@pytest.mark.parametrize("n", [1, 2, 24, 128])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 2.5])
def test_gauss_jacobi_matches_scipy_and_beta_moments(n, alpha):
    from scipy.special import roots_jacobi

    x, w = gauss_jacobi(n, alpha)
    want_x, want_w = roots_jacobi(n, alpha, 0.0)
    np.testing.assert_allclose(x, want_x, rtol=0, atol=1e-14)
    np.testing.assert_allclose(w, want_w, rtol=0, atol=1e-12 * want_w.sum())
    assert not (x.flags.writeable or w.flags.writeable)
    # int_0^1 u^k (1 - u)^alpha du = B(k + 1, alpha + 1), u = (1 + x)/2,
    # exact in rationals; degrees up to n, where u^k adds at most n
    # roundings per node
    u, wu = 0.5 * (x + 1.0), w * 0.5 ** (alpha + 1.0)
    a = Fraction(alpha)
    beta = 1 / (a + 1)
    for k in range(n + 1):
        if k:
            beta *= k / (k + a + 1)
        assert (wu * u ** k).sum() == pytest.approx(float(beta), rel=1e-13, abs=0.0), k


@pytest.mark.parametrize("n", [1, 48])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_gauss_laguerre_matches_scipy_and_gamma_moments(n, alpha):
    from scipy.special import roots_genlaguerre

    y, w = gauss_laguerre(n, alpha)
    want_y, want_w = roots_genlaguerre(n, alpha)
    # eigenvalues are accurate relative to the largest node
    np.testing.assert_allclose(y, want_y, rtol=0, atol=1e-14 * want_y.max())
    np.testing.assert_allclose(w, want_w, rtol=0, atol=1e-14 * want_w.sum())
    assert not (y.flags.writeable or w.flags.writeable)
    # int_0^inf y^k y^alpha e^-y dy = (k + alpha)!.  The eigenvectors give
    # the outermost weights (down to e^-170 at n = 48) to an accuracy
    # relative to the total mass only, and y^k from degree 16 on leans on
    # them; the smoothing rule integrates bounded functions of e^(-y/2)
    for k in range(min(2 * n, 16)):
        want = math.factorial(k + int(alpha))
        assert (w * y ** k).sum() == pytest.approx(want, rel=1e-13, abs=0.0), k


def _grid_function():
    return GridFunction.sample(lambda z: np.ones(np.shape(z), dtype=complex),
                               PolarGridSpec(16, 16))


@pytest.mark.parametrize("call", [
    lambda: weighted_norms(lambda z: np.ones(np.shape(z)), 2.0, grid=(8, 0)),
    lambda: local_mean(lambda z: np.ones(np.shape(z)), 0.2, 2.0, 0.3, grid=(0, 8)),
    lambda: local_mean(lambda z: np.ones(np.shape(z)), 0.2, 2.0, 0.3, grid=(8, 0)),
    lambda: green_potential(lambda w: -np.ones(np.shape(w)), 0.2, grid=(16, 0)),
    lambda: log_kernel_smooth(lambda w: np.ones(np.shape(w)), 0.2, grid=(8, 0)),
    lambda: weighted_space_norm(_grid_function(), PointSequence([0.3]), 2.0, 2.0,
                                outer_grid=(8, 0)),
    lambda: weighted_space_norm(_grid_function(), PointSequence([0.3]), 2.0, 2.0,
                                outer_grid=(0, 8)),
], ids=["weighted_norms", "local_mean-radial", "local_mean-angular", "green_potential",
        "log_kernel_smooth", "weighted_space_norm-angular", "weighted_space_norm-radial"])
def test_quadrature_size_below_one_is_rejected(call):
    with pytest.raises(ValueError, match="at least 1"):
        call()
