import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from diskinterp.dbar import (
    cauchy_transform,
    dbar_derivative,
    green_potential,
    log_kernel_smooth,
    weighted_space_norm,
)
from diskinterp.density import local_mean
from diskinterp.errors import GridTooLarge
from diskinterp.geometry import moebius, moebius_many
from diskinterp.grids import (
    GRID_BLOCK,
    GRID_MAX_NODES,
    GridFunction,
    PolarGridSpec,
    gauss_jacobi,
    gauss_laguerre,
    ring_blocks,
)
from diskinterp.interpolation import lagrange_cluster_interpolant, weighted_norms
from diskinterp.reps import (
    BlaschkeLagrangeRep,
    KernelRep,
    bergman_kernel_deriv,
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


def _exact_kernel_taylor(z, w, m, n, center, s):
    """(d_z^m d_wbar^n K(z, w) pi, a bound on its terms) from the Taylor
    coefficients of 1/B in exact complex rationals, B = s^2 - (u + h)(vb + g),
    u = z - c and vb = conj(w - c): R_ij = (vb R_(i-1)j + u R_i(j-1)
    + R_(i-1)(j-1)) / B(0, 0) for i, j > 0, and the derivative is
    m! n! s^2 times the coefficient of h^m g^n in R^2.  The bound runs the
    same recursion on |vb|, |u| and |B(0, 0)|."""
    def cx(a):
        a = complex(a)
        return Fraction(a.real), Fraction(a.imag)

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    (zr, zi), (wr, wi), (cr, ci) = cx(z), cx(w), cx(center)
    u, vb = (zr - cr, zi - ci), (wr - cr, ci - wi)
    s2 = Fraction(s) ** 2
    uv = mul(u, vb)
    b0 = (s2 - uv[0], -uv[1])
    inv = (b0[0] / (b0[0] ** 2 + b0[1] ** 2), -b0[1] / (b0[0] ** 2 + b0[1] ** 2))
    au, av, ab = (float(abs(complex(*map(float, x)))) for x in (u, vb, b0))
    R, A = {}, {}
    for i in range(m + 1):
        for j in range(n + 1):
            acc, bound = ((Fraction(1), Fraction(0)), 1.0) if i == j == 0 else ((0, 0), 0.0)
            for (di, dj, f, af) in ((1, 0, vb, av), (0, 1, u, au), (1, 1, (1, 0), 1.0)):
                if i >= di and j >= dj:
                    t = mul(f, R[i - di, j - dj])
                    acc = (acc[0] + t[0], acc[1] + t[1])
                    bound += af * A[i - di, j - dj]
            R[i, j], A[i, j] = mul(acc, inv), bound / ab
    sq = [mul(R[i, j], R[m - i, n - j]) for i in range(m + 1) for j in range(n + 1)]
    f = math.factorial(m) * math.factorial(n) * s2
    exact = complex(float(sum(t[0] for t in sq) * f), float(sum(t[1] for t in sq) * f))
    bound = sum(A[i, j] * A[m - i, n - j] for i in range(m + 1) for j in range(n + 1)) * float(f)
    return exact, bound


def test_bergman_kernel_deriv_matches_exact_rationals():
    # every m, n <= 3 on the unit disk and a local disk, at points out to
    # 0.999 s from the centre, z = w among them.  Dyadic inputs make u and
    # vb exact, so the error is the rounding of s^2 - u vb, which a
    # condition number kappa = (s^2 + |u| |vb|) / |s^2 - u vb| magnifies
    # (about 1000 at z = w, |z| = 0.999 s), and of the products after it:
    # within 2 (2 + m + n) eps kappa of the terms' bound.  Without
    # cancellation the bound is |K| and it is relative.
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for center, s in ((0.0, 1.0), (0.25 - 0.125j, 0.5)):
        for rz in (0.0, 0.3, 0.9, 0.99, 0.999):
            for rw in (rz, 0.5, 0.999):
                for same in (True, False) if rw == rz else (False,):
                    z = center + s * rz * np.exp(2j * np.pi * rng.uniform())
                    w = z if same else center + s * rw * np.exp(2j * np.pi * rng.uniform())
                    z, w = (complex(round(x.real * 2 ** 30), round(x.imag * 2 ** 30)) / 2 ** 30
                            for x in (z, w))
                    u, vb = z - center, np.conj(w - center)
                    kappa = (s * s + abs(u) * abs(vb)) / abs(s * s - u * vb)
                    for m in range(4):
                        for n in range(4):
                            got = complex(bergman_kernel_deriv(z, w, m, n, center, s)) * math.pi
                            exact, bound = _exact_kernel_taylor(z, w, m, n, center, s)
                            assert abs(got - exact) <= 2 * (2 + m + n) * eps * kappa * bound, (
                                z, w, m, n)


def _exact_blaschke_jet(terms, z, order):
    """order! times the Taylor coefficient of that order of
    sum_t c_t prod M_b(z)/M_b(g) at z, in exact complex rationals (the
    floats read as the rationals they are).  Each factor's series
    (b - z - h) / (1 - conj(b) z - conj(b) h) comes from long division in h,
    not from the closed form of its coefficients."""
    def cx(a):
        a = complex(a)
        return Fraction(a.real), Fraction(a.imag)

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def add(a, b):
        return a[0] + b[0], a[1] + b[1]

    def inv(a):
        d = a[0] ** 2 + a[1] ** 2
        return a[0] / d, -a[1] / d

    zero = (Fraction(0), Fraction(0))
    u = cx(z)
    total = zero
    for coeff, factors in terms:
        jet = [cx(coeff)] + [zero] * order
        for beta, gamma in factors:
            b, g = cx(beta), cx(gamma)
            bbar = (b[0], -b[1])
            bg, bu = mul(bbar, g), mul(bbar, u)
            ratio = inv(mul((b[0] - g[0], b[1] - g[1]), inv((1 - bg[0], -bg[1]))))
            num = [(b[0] - u[0], b[1] - u[1]), (Fraction(-1), Fraction(0))]
            den0, den1 = (1 - bu[0], -bu[1]), (-bbar[0], -bbar[1])
            series = []
            for k in range(order + 1):
                acc = num[k] if k < 2 else zero
                if k:
                    t = mul(den1, series[k - 1])
                    acc = (acc[0] - t[0], acc[1] - t[1])
                series.append(mul(acc, inv(den0)))
            series = [mul(a, ratio) for a in series]
            new = []
            for j in range(order + 1):
                acc = zero
                for i in range(j + 1):
                    acc = add(acc, mul(jet[i], series[j - i]))
                new.append(acc)
            jet = new
        total = add(total, jet[order])
    f = math.factorial(order)
    return complex(float(total[0] * f), float(total[1] * f))


def test_blaschke_jets_match_exact_rationals():
    # one to four factors, orders 0-3, points out to modulus 0.999, among
    # them the rim cases beta = 0.999, z = 0.9985 and beta = 0.995,
    # z = 0.9945, whose poles 1/conj(beta) lie within 0.003 of z, and
    # z = beta, a zero of the product
    rng = np.random.default_rng(11)
    cases = [
        (((1.0, ((0.999, 0.2),)),), 0.9985),
        (((1.0, ((0.995, 0.5j),)),), 0.9945),
        (((1.0, ((0.999, 0.2), (0.999j, -0.3))),), 0.9985),
        (((2.0 - 1.0j, ((0.9 + 0.3j, 0.1),)),), 0.9 + 0.3j),
    ]
    for nf in (1, 2, 3, 4):
        for _ in range(8):
            terms = []
            for _ in range(int(rng.integers(1, 3))):
                factors = tuple(
                    (complex(rng.choice([0.0, 0.3, 0.9, 0.99, 0.999]) * np.exp(2j * np.pi * rng.uniform())),
                     complex(rng.choice([0.2, 0.6, 0.95]) * np.exp(2j * np.pi * rng.uniform())))
                    for _ in range(nf))
                terms.append((complex(rng.standard_normal(), rng.standard_normal()), factors))
            beta = terms[0][1][0][0]
            near = beta * (1.0 - 0.5 * (1.0 - abs(beta)))  # on beta's ray, (1 - |beta|)/2 inside
            far = rng.choice([0.0, 0.5, 0.99, 0.999]) * np.exp(2j * np.pi * rng.uniform())
            cases += [(tuple(terms), complex(near)), (tuple(terms), complex(far))]
    for terms, z in cases:
        f = BlaschkeLagrangeRep(tuple((complex(c), tuple((complex(b), complex(g)) for b, g in fs))
                                      for c, fs in terms))
        for order in range(4):
            exact = _exact_blaschke_jet(f.terms, z, order)
            got = complex(f.derivative(np.array(z), order))
            assert abs(got - exact) <= 1e-12 * abs(exact), (terms, z, order, got, exact)


def _product_of_ratios(f, z):
    """The Blaschke-Lagrange value as the plain loop over factor ratios."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for coeff, factors in f.terms:
        prod = np.full_like(z, coeff)
        for beta, gamma in factors:
            prod = prod * (moebius_many(beta, z) / moebius(beta, gamma))
        out = out + prod
    return out


def test_blaschke_value_is_the_product_of_ratios():
    # bit for bit, on arrays below and above numpy's 256 KiB threshold for
    # reusing a temporary operand in place, and on 0-d arrays and scalars
    rng = np.random.default_rng(5)
    for size in (1, 4, 9):
        pts = 0.95 * np.sqrt(rng.uniform(size=size)) * np.exp(2j * np.pi * rng.uniform(size=size))
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        reps = [lagrange_cluster_interpolant(pts, vals),
                BlaschkeLagrangeRep(((1.5 - 2j, ()),) + lagrange_cluster_interpolant(pts, vals).terms)]
        for f in reps:
            for shape in ((), (7, 5), (128, 160)):
                z = 0.99 * np.sqrt(rng.uniform(size=shape)) * np.exp(2j * np.pi * rng.uniform(size=shape))
                want = _product_of_ratios(f, z)
                got = f(z)
                assert type(got) is type(want)
                assert np.array_equal(got, want) and np.array_equal(f.derivative(z, 0), want)
            assert f(complex(pts[0])) == _product_of_ratios(f, complex(pts[0]))


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


def test_grid_spec_node_cap():
    # refused where the grid is made, before any node array exists; the
    # CLI default, the benchmark's grid and the cap itself are made
    for n_r, n_t in ((200, 200), (400, 400), (100000, 16), (GRID_MAX_NODES // 16, 16)):
        assert PolarGridSpec(n_r, n_t).n_radial == n_r
    tracemalloc.start()
    try:
        for n_r, n_t in ((GRID_MAX_NODES // 16 + 1, 16), (20000000, 16), (16, GRID_MAX_NODES)):
            with pytest.raises(GridTooLarge, match="nodes"):
                PolarGridSpec(n_r, n_t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_grid_function_shape_check():
    spec = PolarGridSpec(32, 32)
    with pytest.raises(ValueError):
        GridFunction(spec, np.zeros((4, 4)))


def test_grid_function_copies_the_callers_values():
    spec = PolarGridSpec(16, 16)
    v = np.zeros((16, 16), complex)
    g = GridFunction(spec, v)
    v[0, 0] = 1.0  # the caller's array stays writable and its own
    assert g.values[0, 0] == 0.0
    base = np.zeros((16, 32), complex)
    h = GridFunction(spec, base[:, ::2])  # a view
    base[:] = 2.0
    assert not h.values.any()
    with pytest.raises(ValueError):
        g.values[0, 0] = 1.0


def test_library_grid_functions_are_not_copied(monkeypatch):
    # sample, cauchy_transform and dbar_derivative hand over their fresh
    # arrays without the public, copying constructor
    def copying(self, spec, values):
        raise AssertionError("grid copied")

    monkeypatch.setattr(GridFunction, "__init__", copying)
    spec = PolarGridSpec(32, 48)
    g = GridFunction.sample(lambda z: z * z, spec)
    for h in (g, cauchy_transform(g), dbar_derivative(g)):
        assert h.values.shape == (32, 48)
        assert not h.values.flags.writeable


@pytest.mark.parametrize("shape", [(400, 400), (301, 80), (16, 16), (17, GRID_BLOCK + 3)])
def test_ring_blocks_cover_every_ring_once(shape):
    spec = PolarGridSpec(*shape)
    for start, stop in ((0, None), (1, shape[0] - 1)):
        blocks = list(ring_blocks(spec, start, stop))
        rings = np.concatenate([np.arange(shape[0])[rows] for rows in blocks])
        assert rings.tolist() == list(range(start, stop or shape[0]))
        sizes = [(rows.stop - rows.start) * shape[1] for rows in blocks]
        assert all(n <= GRID_BLOCK or n == shape[1] for n in sizes)


_ELEMENTWISE = [
    np.conj,
    np.exp,
    lambda z: z,
    lambda z: z ** 3 - 2.0 * z,
    lambda z: z * (1 - np.abs(z) ** 2),
    lambda z: 1.0 / (1.5 - z),
    lambda z: np.log(1.0 - z),
    lambda z: np.abs(z) ** 2,  # real values
    lambda z: np.full(np.shape(z), 0.3 - 0.2j),
    lambda z: (0.7 - 1.3j) * (1.0 - np.abs(z) ** 2),
]


@pytest.mark.parametrize("shape", [(400, 400), (301, 80), (17, GRID_BLOCK + 3)])
@pytest.mark.parametrize("fun", _ELEMENTWISE)
def test_sample_is_the_whole_grid_call(shape, fun):
    # ring blocks hold the nodes r_i e^{i t_j} as spec.nodes does, bit for bit
    spec = PolarGridSpec(*shape, 0.97)
    got = GridFunction.sample(fun, spec).values
    want = np.asarray(fun(spec.nodes), dtype=complex)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("fun", [lambda z: 1.0, lambda z: z[0], lambda z: z[:, :1], lambda z: z.ravel()])
def test_sample_rejects_a_callable_that_is_not_elementwise(fun):
    # a block assignment would broadcast a scalar, a ring or a column
    with pytest.raises(ValueError):
        GridFunction.sample(fun, PolarGridSpec(40, 64))


def test_sample_memory_at_400():
    # the values and one block of fun's temporaries: at most 1.25 grid arrays
    spec = PolarGridSpec(400, 400, 0.995)
    fun = lambda z: z * (1 - np.abs(z) ** 2)  # noqa: E731
    GridFunction.sample(fun, spec)
    tracemalloc.start()
    try:
        GridFunction.sample(fun, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 400 * 400 * 16


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


@pytest.mark.parametrize("n_angular", [64, 33])
def test_grid_nearest_indices(n_angular):
    # the ring and angle of the nearest node, rings clamped at the rim and
    # angles taken mod n_angular (a power of two or not), for points on every
    # side of the origin and beyond the grid
    spec = PolarGridSpec(20, n_angular, 0.9)
    g = GridFunction.sample(lambda z: z, spec)
    rng = np.random.default_rng(4)
    z = rng.uniform(-1.0, 1.0, (30, 7)) + 1j * rng.uniform(-1.0, 1.0, (30, 7))
    i, j = g.nearest(z)
    dr, dt = 0.9 / 20, 2.0 * np.pi / n_angular
    assert np.array_equal(i, np.clip(np.round(np.abs(z) / dr - 0.5).astype(int), 0, 19))
    assert np.array_equal(j, np.mod(np.round(np.angle(z) / dt).astype(int), n_angular))
    assert (j >= 0).all() and (j < n_angular).all()


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


@pytest.mark.parametrize("rule", [gauss_jacobi, gauss_laguerre])
@pytest.mark.parametrize("alpha", [math.inf, -1.0, -2.0, -1.5, math.nan, -math.inf])
def test_gauss_rules_reject_alpha_outside_minus_one_to_inf(rule, alpha):
    # inf and -1 warned of a division, -2 divided by zero, -1.5 and nan
    # failed in eigh; a call that raises is not cached
    before = rule.cache_info().currsize
    with pytest.raises(ValueError, match="alpha must be finite and > -1"):
        rule(8, alpha)
    assert rule.cache_info().currsize == before


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
