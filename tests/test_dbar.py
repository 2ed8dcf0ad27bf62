import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskinterp.dbar import (
    CAUCHY_BLOCK,
    CAUCHY_MAX_RINGS,
    GREEN_POTENTIAL_CALIBRATION,
    TauSpec,
    cauchy_transform,
    dbar_derivative,
    dbar_residual,
    green_potential,
    green_potential_pieces,
    harmonic_majorant_gap,
    invariant_laplacian,
    log_kernel_smooth,
    tau_eval,
    tau_smooth,
    weighted_space_norm,
)
from diskinterp.density import k_weight_many, local_mean
from diskinterp.errors import (
    GridTooCoarse,
    GridTooLarge,
    NumericalError,
    PositiveLaplacian,
    QuadratureDivergence,
    StencilOutOfDomain,
)
from diskinterp.grids import GRID_BLOCK, GridFunction, PolarGridSpec
from diskinterp.schemes import PointSequence

SPEC = PolarGridSpec(96, 128, 0.99)


# ----------------------------------------------------------- Laplacian + tau


def test_invariant_laplacian_closed_forms():
    # three functions with known invariant Laplacian
    for z in (0.0 + 0j, 0.3 + 0.2j, 0.6j):
        # harmonic: Re z -> 0
        assert invariant_laplacian(lambda w: w.real, z) == pytest.approx(0.0, abs=1e-6)
        # |z|^2 -> (1 - |z|^2)^2
        assert invariant_laplacian(lambda w: np.abs(w) ** 2, z) == pytest.approx(
            (1.0 - abs(z) ** 2) ** 2, rel=1e-6
        )
        # log(1/(1-|z|^2)) -> 1 (the hyperbolic-volume potential)
        assert invariant_laplacian(
            lambda w: np.log(1.0 / (1.0 - np.abs(w) ** 2)), z
        ) == pytest.approx(1.0, rel=1e-5)


def test_invariant_laplacian_stencil_guard():
    with pytest.raises(StencilOutOfDomain):
        invariant_laplacian(lambda w: np.abs(w), 0.99999, h=1e-3)


def test_tau_eval():
    # empty sequence: tau = log(1/(1-|z|^2))
    spec = TauSpec(PointSequence([]), 2.0, 0.5)
    assert tau_eval(spec, 0.6) == pytest.approx(math.log(1.0 / 0.64), abs=1e-12)
    # one point at the origin, p/beta = 4: k_Z(0.8) = 0.32
    spec = TauSpec(PointSequence([0.0]), 2.0, 0.5)
    assert tau_eval(spec, 0.8) == pytest.approx(
        math.log(1.0 / 0.36) - 4.0 * 0.32, abs=1e-12
    )


def test_tau_spec_validation():
    with pytest.raises(ValueError):
        TauSpec(PointSequence([]), 2.0, 1.5)
    with pytest.raises(ValueError):
        TauSpec(PointSequence([]), -1.0, 0.5)


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_tau_spec_rejects_non_finite_p(p):
    # p = inf made tau -inf, and p = nan made it nan
    with pytest.raises(ValueError, match="finite"):
        TauSpec(PointSequence([0.3]), p, 0.5)


def test_log_kernel_smooth_reproduces_constants():
    for z in (0.0, 0.4, 0.3 - 0.5j):
        got = log_kernel_smooth(lambda w: np.full(w.shape, 3.25), z)
        assert got == pytest.approx(3.25, rel=1e-10)


def test_log_kernel_smooth_raises_on_an_infinite_integrand():
    # the smoothing disk D(0.2, 1/2) reaches past |w| = 0.3, where the
    # integrand is infinite
    with pytest.raises(QuadratureDivergence):
        log_kernel_smooth(lambda w: np.where(np.abs(w) > 0.3, np.inf, 1.0), 0.2)


def test_tau_smooth_close_to_tau():
    # smoothing changes tau by a bounded amount (the base term is smooth
    # away from the boundary; nodes inject an integrable dent)
    spec = TauSpec(PointSequence([0.3]), 2.0, 0.5)
    for z in (0.0, 0.3, 0.6j):
        star = tau_smooth(spec, z)
        assert abs(star - tau_eval(spec, z)) < 4.0


def test_tau_smooth_rotation_symmetry():
    spec = TauSpec(PointSequence([0.0]), 2.0, 0.5)
    vals = [tau_smooth(spec, 0.5 * np.exp(1j * t)) for t in (0.0, 1.1, 2.7)]
    assert max(vals) - min(vals) < 1e-9


def test_smoothed_base_term_laplacian_near_one():
    # the smoothed hyperbolic potential keeps invariant Laplacian 1
    spec = TauSpec(PointSequence([]), 2.0, 0.5)
    lap = invariant_laplacian(lambda w: np.array(
        [[tau_smooth(spec, v) for v in row] for row in np.atleast_2d(w)]
    ).reshape(np.shape(w)), 0.3, h=1e-3)
    assert lap == pytest.approx(1.0, abs=1e-3)


# -------------------------------------------------------------- the potential


def const_lap(c):
    return lambda w: np.full(np.shape(w), c)


def test_green_potential_constant_closed_form():
    # L = -1: u(z) = 2 - log(1/(1-|z|^2)) solves the equation; quadrature
    # against the exact value
    for z in (0.0, 0.3, 0.6, 0.9):
        expect = 2.0 - math.log(1.0 / (1.0 - z * z))
        assert green_potential(const_lap(-1.0), z) == pytest.approx(expect, abs=5e-6)


def test_green_potential_linear_in_laplacian():
    z = 0.4 + 0.2j
    u1 = green_potential(const_lap(-1.0), z)
    u2 = green_potential(const_lap(-0.25), z)
    assert u2 == pytest.approx(0.25 * u1, rel=1e-10)


def test_green_potential_third_piece_nonpositive():
    for z in (0.2, 0.5 - 0.3j, 0.8):
        _, _, i3 = green_potential_pieces(const_lap(-0.5), z)
        assert i3 <= 1e-12


def _leggauss_green_potential(laplacian_values, z, grid=(160, 128)):
    """green_potential with numpy's Gauss-Legendre rule built inline on
    each call: the reference for the shared, cached disk rule."""
    n_r, n_t = grid
    x, wx = np.polynomial.legendre.leggauss(n_r)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * wx * t / (1.0 - t ** 2) ** 2
    nodes = t[:, None] * np.exp(2j * np.pi * np.arange(n_t)[None, :] / n_t)
    moved = (z - nodes) / (1.0 - np.conj(z) * nodes)
    aw = np.abs(nodes)
    k1 = np.log(aw) + 0.5 * (1.0 - aw ** 2)
    k3 = abs(z) ** 2 * (1.0 - aw ** 2) ** 2 / (2.0 * np.abs(1.0 - np.conj(nodes) * z) ** 2)
    lw, lw2 = laplacian_values(nodes), laplacian_values(moved)
    total = (wt[:, None] * (lw * k1 + lw2 * k1 + lw * k3)).sum() * (2.0 * np.pi / n_t)
    return 2.0 / math.pi * total


def test_green_potential_matches_per_call_rule(monkeypatch):
    def lap(w):
        return -1.0 - 0.5 * np.abs(w) ** 2

    for z in (0.0, 0.3, 0.5 + 0.4j, -0.85j):
        assert green_potential(lap, z) == pytest.approx(
            _leggauss_green_potential(lap, z), rel=1e-14, abs=1e-14)
    # the rule is cached: a second call does not ask numpy for it again
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or leggauss(n))
    green_potential(lap, 0.3)
    assert calls == []


def test_green_potential_rejects_positive_laplacian():
    with pytest.raises(PositiveLaplacian):
        green_potential(const_lap(0.5), 0.3)


def test_calibration_dominates_constant_family():
    # freeze check: u(z) <= C_cal * |L| for the constant family on |z| <= 0.9
    for c in (-1.0, -0.5, -0.1):
        for z in (0.0, 0.45, 0.9, 0.6j):
            gap = harmonic_majorant_gap(const_lap(c), z, abs(c))
            assert gap <= 1e-9


def test_majorant_gap_sign():
    assert harmonic_majorant_gap(const_lap(-1.0), 0.0, 1.0) <= 0.0
    # too-small declared sup makes the gap positive (majorant fails)
    assert harmonic_majorant_gap(const_lap(-1.0), 0.0, 1.0, c_cal=0.5) > 0.0


# -------------------------------------------------------- Cauchy transform


def test_cauchy_transform_of_zero():
    g = GridFunction(SPEC, np.zeros((SPEC.n_radial, SPEC.n_angular)))
    u = cauchy_transform(g)
    assert np.abs(u.values).max() == 0.0


def test_cauchy_transform_constant_exact():
    # g = 1: u(z) = zbar exactly (smooth-part subtraction leaves no residual)
    g = GridFunction.sample(lambda z: np.ones_like(z), SPEC)
    u = cauchy_transform(g)
    assert np.abs(u.values - np.conj(SPEC.nodes)).max() < 1e-12


def cauchy_transform_fft_loop(g):
    """Reference: the per-radius loop that FFTs the ring kernels
    1/(t e^{i phi} - r) of every radius r (the self cell left out)."""
    spec = g.spec
    n_r, n_t = spec.n_radial, spec.n_angular
    radii = spec.radii
    dr = spec.max_radius / n_r
    dt = 2.0 * np.pi / n_t
    vals = g.values
    e_ipsi = np.exp(2j * np.pi * np.arange(n_t) / n_t)
    G = np.fft.fft(vals, axis=1) * (radii * dr * dt)[:, None]
    A = np.fft.fft(np.ones_like(vals), axis=1) * (radii * dr * dt)[:, None]
    S1 = np.zeros((n_r, n_t), dtype=complex)
    S2 = np.zeros((n_r, n_t), dtype=complex)
    for iz, r in enumerate(radii):
        with np.errstate(divide="ignore", invalid="ignore"):
            kern = 1.0 / (radii[:, None] * e_ipsi[None, :] - r)
        kern[iz, 0] = 0.0
        kt = np.fft.fft(np.roll(kern[:, ::-1], 1, axis=1), axis=1)
        S1[iz] = np.fft.ifft((G * kt).sum(axis=0))
        S2[iz] = np.fft.ifft((A * kt).sum(axis=0))
    phase = np.exp(-1j * spec.angles)[None, :]
    return vals * np.conj(spec.nodes) - (S1 - vals * S2) * phase / np.pi


@pytest.mark.parametrize("n_r,n_t", [(17, 33), (37, 53), (20, 48)])
def test_cauchy_transform_matches_fft_loop(n_r, n_t):
    spec = PolarGridSpec(n_r, n_t, 0.97)
    g = GridFunction.sample(
        lambda z: np.exp(2.0 * z) * (1.0 + np.conj(z)) + 1j * z.real ** 2, spec
    )
    got = cauchy_transform(g).values
    expect = cauchy_transform_fft_loop(g)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(16, 40),
    st.sampled_from([16, CAUCHY_BLOCK - 1, CAUCHY_BLOCK, CAUCHY_BLOCK + 1,
                     2 * CAUCHY_BLOCK, 2 * CAUCHY_BLOCK + 3, 3 * CAUCHY_BLOCK - 1]),
    st.one_of(st.floats(1e-9, 0.999), st.sampled_from([1e-9, 1e-5, 0.999])),
    st.integers(0, 2 ** 32 - 1),
)
@example(16, CAUCHY_BLOCK + 1, 1e-9, 0)
@example(40, 3 * CAUCHY_BLOCK - 1, 1e-9, 1)
def test_cauchy_transform_blocks_match_fft_loop(n_r, n_t, max_radius, seed):
    # random samples on grids with fewer, as many and more angles than one
    # block of powers serves, out to max_radius = 1e-9, where powers of the
    # radii themselves would overflow the block's scalings
    spec = PolarGridSpec(n_r, n_t, max_radius)
    rng = np.random.default_rng(seed)
    g = GridFunction(spec, rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t)))
    got = cauchy_transform(g).values
    expect = cauchy_transform_fft_loop(g)
    assert np.isfinite(got).all()
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def _cauchy_peak(n):
    spec = PolarGridSpec(n, n, 0.995)
    g = GridFunction.sample(lambda z: z, spec)
    tracemalloc.start()
    try:
        cauchy_transform(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cauchy_transform_memory():
    # no n_r x n_r x n_t kernel array: the peak stays within ten grid arrays
    assert _cauchy_peak(200) <= 10 * 200 * 200 * 16


def test_cauchy_transform_memory_at_400():
    # the spectra, the result and two n_r x n_r triangles: at most four
    # grid arrays
    assert _cauchy_peak(400) <= 4 * 400 * 400 * 16


def test_cauchy_transform_ring_cap():
    # refused before any n_r x n_r array is formed
    spec = PolarGridSpec(CAUCHY_MAX_RINGS + 1, 16)
    g = GridFunction(spec, np.ones((spec.n_radial, 16)))
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge, match="rings"):
            cauchy_transform(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cauchy_transform_linearity():
    g1 = GridFunction.sample(lambda z: z.real + 0j, SPEC)
    g2 = GridFunction.sample(lambda z: np.abs(z) ** 2 + 0j, SPEC)
    g12 = GridFunction(SPEC, g1.values + 2.0 * g2.values)
    u = cauchy_transform(g12).values
    v = cauchy_transform(g1).values + 2.0 * cauchy_transform(g2).values
    assert np.abs(u - v).max() < 1e-10


def test_dbar_derivative_of_zbar():
    # centered differences: O(dt^2) error from the angular oscillation
    u = GridFunction.sample(np.conj, SPEC)
    du = dbar_derivative(u).values
    assert np.abs(du[1:-1] - 1.0).max() < 1e-3


def test_dbar_derivative_of_analytic_vanishes():
    u = GridFunction.sample(lambda z: z ** 3 - 2.0 * z, SPEC)
    du = dbar_derivative(u).values
    assert np.abs(du[1:-1]).max() < 1e-2


def test_cauchy_solves_dbar_equation():
    # d-bar (cauchy_transform g) = g up to grid error, for smooth g
    g = GridFunction.sample(lambda z: (1.0 - np.abs(z) ** 2) + 0j, SPEC)
    u = cauchy_transform(g)
    du = dbar_derivative(u).values
    err = np.abs(du - g.values)[2:-2].max()
    assert err < 2e-3


def _roll_dbar(vals, spec):
    """d-bar by centred differences over the whole grid, angular neighbours
    from two np.roll copies: the reference for the ring-block stencil."""
    dr = spec.max_radius / spec.n_radial
    dt = 2.0 * np.pi / spec.n_angular
    dudr = np.empty_like(vals)
    dudr[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * dr)
    dudr[0] = dudr[1]
    dudr[-1] = dudr[-2]
    dudt = (np.roll(vals, -1, axis=1) - np.roll(vals, 1, axis=1)) / (2.0 * dt)
    theta = spec.angles[None, :]
    r = spec.radii[:, None]
    return 0.5 * np.exp(1j * theta) * (dudr + 1j * dudt / r)


# ring counts about the first block boundary of the interior rings 1..n_r - 2
# at 16 angles, three blocks and a short one, and a grid whose rings each
# exceed a block
_STEP = GRID_BLOCK // 16


@pytest.mark.parametrize("shape", [(_STEP + k, 16) for k in range(-1, 4)]
                         + [(3 * _STEP + 7, 16), (40, 64), (18, GRID_BLOCK + 5)])
def test_dbar_stencil_matches_the_roll_formula(shape):
    rng = np.random.default_rng(shape[0])
    spec = PolarGridSpec(*shape, 0.97)
    u = GridFunction(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    f = GridFunction(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    du = _roll_dbar(u.values, spec)
    assert np.array_equal(dbar_derivative(u).values, du)
    # the residual takes 1 - |z|^2 as 1 - r^2 of the ring, not from the
    # complex node: equal to a few rounding errors of the largest term
    want = np.abs((1.0 - np.abs(spec.nodes) ** 2) * du - f.values)[1:-1].max()
    assert abs(dbar_residual(u, f) - want) <= 4 * np.finfo(float).eps * np.abs(du).max()


def test_dbar_residual_memory_at_400():
    # a few blocks of ring_blocks on top of the held u and f: at most one
    # grid array
    spec = PolarGridSpec(400, 400, 0.995)
    g = GridFunction.sample(lambda z: np.full(z.shape, 0.5 - 1.2j), spec)
    u = cauchy_transform(g)
    f = GridFunction.sample(lambda z: (0.5 - 1.2j) * (1.0 - np.abs(z) ** 2), spec)
    tracemalloc.start()
    try:
        dbar_residual(u, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 400 * 400 * 16


def test_dbar_residual_diagnostic():
    # u solving (1-|z|^2) d-bar u = f for f = (1-|z|^2): u = zbar
    f = GridFunction.sample(lambda z: (1.0 - np.abs(z) ** 2) + 0j, SPEC)
    u = GridFunction.sample(np.conj, SPEC)
    assert dbar_residual(u, f) < 1e-3
    with pytest.raises(ValueError):
        dbar_residual(u, GridFunction.sample(np.conj, PolarGridSpec(32, 32)))


# ------------------------------------------------------------ weighted norm


def test_weighted_space_norm_constant_no_points():
    # f = 1, Z empty: every local mean is 1, so the norm is
    # (int (1-|z|^2)^alpha dA)^(1/p) over the grid disk
    f = GridFunction.sample(lambda z: np.ones_like(z), PolarGridSpec(64, 128, 0.9))
    got = weighted_space_norm(f, PointSequence([]), 2.0, 2.0, r=0.4)
    rmax = 0.9
    expect = math.sqrt(math.pi * rmax ** 2)
    assert got == pytest.approx(expect, rel=1e-2)


def test_weighted_space_norm_weight_increases_norm():
    f = GridFunction.sample(lambda z: np.ones_like(z), PolarGridSpec(64, 128, 0.9))
    bare = weighted_space_norm(f, PointSequence([]), 2.0, 2.0, r=0.4)
    weighted = weighted_space_norm(f, PointSequence([0.2]), 2.0, 2.0, r=0.4)
    assert weighted > bare


def weighted_space_norm_loop(f, Z, p, q, r, alpha, outer_grid=(24, 32)):
    """Reference: one local_mean call per outer node."""
    base = f.as_callable()

    def weighted(z):
        return np.abs(base(z)) * np.exp(k_weight_many(Z, z))

    n_r, n_t = outer_grid
    rmax = f.spec.max_radius
    rr = (np.arange(n_r) + 0.5) * rmax / n_r
    tt = 2.0 * np.pi * np.arange(n_t) / n_t
    drho = rmax / n_r
    dth = 2.0 * np.pi / n_t
    total = 0.0
    for ri in rr:
        for tj in tt:
            m = local_mean(weighted, ri * np.exp(1j * tj), q, r, grid=(24, 24))
            total += m ** p * (1.0 - ri ** 2) ** alpha * ri * drho * dth
    return total ** (1.0 / p)


_INTERIOR = (PolarGridSpec(64, 128, 0.9), [0.2, -0.5 + 0.3j, 0.7j, 0.6, -0.1 - 0.4j])
# points at |z| = 0.99, among the local-mean disks of a 0.999 grid
_RIM = (PolarGridSpec(256, 512, 0.999),
        [0.99, 0.99j, 0.99 * np.exp(2.5j), 0.99 * np.exp(-0.7j), -0.3 + 0.2j, 0.99 * np.exp(2.5j)])


@pytest.mark.parametrize("q, spec, points", [
    (2.0, *_INTERIOR), (np.inf, *_INTERIOR), (2.0, *_RIM), (np.inf, *_RIM),
], ids=["2.0", "inf", "rim-2.0", "rim-inf"])
def test_weighted_space_norm_matches_local_mean_loop(q, spec, points):
    f = GridFunction.sample(lambda z: 0.3 + (0.5 - 0.2j) * z ** 2 + z.imag, spec)
    Z = PointSequence(points)
    got = weighted_space_norm(f, Z, 2.0, q, r=0.5, alpha=1.0)
    expect = weighted_space_norm_loop(f, Z, 2.0, q, 0.5, 1.0)
    assert got == pytest.approx(expect, rel=1e-12)


def test_weighted_space_norm_does_not_call_k_weight_many(monkeypatch):
    # k_Z comes from k_weight_circles' series on each disk's circles, never
    # from k_weight_many's per-pair passes
    import diskinterp.dbar
    import diskinterp.density

    def refuse(*args, **kwargs):
        raise AssertionError("k_weight_many called")

    monkeypatch.setattr(diskinterp.density, "k_weight_many", refuse)
    monkeypatch.setattr(diskinterp.dbar, "k_weight_many", refuse)
    f = GridFunction.sample(lambda z: 0.3 + z * z, PolarGridSpec(64, 128, 0.9))
    assert weighted_space_norm(f, PointSequence([0.2, -0.5 + 0.3j]), 2.0, 2.0) > 0.0


def test_weighted_space_norm_memory_at_2000_points():
    # one outer ring at a time: the ring's nodes, lookups and values and
    # k_weight_circles' work arrays, whose blocks of at most 1.3 MB do not
    # grow with |Z|; the bound allows 3 MiB and 64 bytes for each (disk,
    # point) pair of the n_t = 32 disks of a ring.  The points lie outside
    # the grid disk, so that e^k stays finite
    f = GridFunction.sample(lambda z: 0.3 + z * z, PolarGridSpec(64, 128, 0.9))
    n = 2000
    Z = PointSequence(0.995 * np.exp(2j * np.pi * np.arange(n) / n))
    tracemalloc.start()
    try:
        weighted_space_norm(f, Z, 2.0, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20 + 64 * 32 * n


def test_weighted_space_norm_overflow_is_a_numerical_failure():
    # 8,000 points on |z| = 0.89: on the last of 4 outer rings k_Z reaches
    # 441, and the square of e^441 overflows.  4,000 points give a finite
    # 3.6e94.  No numpy warning escapes
    f = GridFunction.sample(lambda z: 0.3 + z * z, PolarGridSpec(64, 128, 0.9))

    def circle(n):
        return PointSequence(0.89 * np.exp(2j * np.pi * np.arange(n) / n))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(weighted_space_norm(f, circle(4000), 2.0, 2.0, outer_grid=(4, 4)))
        with pytest.raises(NumericalError, match="outer ring 3 of 4"):
            weighted_space_norm(f, circle(8000), 2.0, 2.0, outer_grid=(4, 4))


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_weighted_space_norm_rejects_non_finite_p(p):
    # total ** (1 / inf) = 1 would report 1 for every f
    f = GridFunction.sample(lambda z: 100.0 * np.ones_like(z), PolarGridSpec(64, 128, 0.9))
    with pytest.raises(ValueError, match="finite"):
        weighted_space_norm(f, PointSequence([0.2]), p, 2.0, r=0.4)


def test_weighted_space_norm_grid_too_coarse():
    f = GridFunction.sample(lambda z: np.ones_like(z), PolarGridSpec(16, 16, 0.9))
    with pytest.raises(GridTooCoarse):
        weighted_space_norm(f, PointSequence([0.2]), 2.0, 2.0, r=0.4)
