import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskinterp import interpolation
from diskinterp.errors import (
    DegeneratePair,
    DiameterOverflow,
    DuplicatePoint,
    InfeasibleConstraints,
    MalformedJet,
    NonConvergence,
    PairTooFar,
    QuadratureDivergence,
    SingularGram,
)
from diskinterp.geometry import PseudoDisk, moebius, moebius_deriv, psi, pseudo_to_euclidean
from diskinterp.interpolation import (
    JetConstraint,
    JetTargets,
    blaschke_bound_check,
    domain_quadrature,
    example1_norm,
    example2_norm,
    example3_norm,
    example3_representative,
    interpolation_constant_p2,
    interpolation_constant_probe,
    lagrange_cluster_interpolant,
    o_interp_weight,
    quotient_norm_general,
    quotient_norm_p2,
    solve_p2,
    target_norm,
    two_point_probe_constant,
    weighted_norms,
)
from diskinterp.reps import BlaschkeLagrangeRep, bergman_kernel_deriv
from diskinterp.schemes import Domain, PointSequence, build_minimal_scheme


def poly_quotient_oracle(domain, constraints, degree=24):
    """Minimum A^2 norm over polynomials of degree < `degree`, by a direct
    least-squares elimination in the monomial basis.  Converges to the
    kernel value as the degree grows (the kernel solution is analytic)."""
    return quotient_norm_general(domain, constraints, 2.0, basis_size=degree)


# ---------------------------------------------------------------- p = 2 exact


def test_single_point_value_norm():
    # one constraint f(z0) = w: norm = |w| / sqrt(K(z0, z0)) with
    # K(z, z) = s^2 / (pi (s^2 - |z - c|^2)^2) on the Euclidean image disk
    dom = PseudoDisk(0.3, 0.4)
    e = pseudo_to_euclidean(dom)
    z0, w = 0.3, 2.0 - 1.0j
    k = e.radius ** 2 / (math.pi * (e.radius ** 2 - abs(z0 - e.center) ** 2) ** 2)
    got = quotient_norm_p2(dom, [JetConstraint(z0, 0, w)])
    assert got == pytest.approx(abs(w) / math.sqrt(k), rel=1e-12)
    # centered disk: the simple form |w| sqrt(pi) s
    got0 = quotient_norm_p2(PseudoDisk(0.0, 0.4), [JetConstraint(0.0, 0, w)])
    assert got0 == pytest.approx(abs(w) * math.sqrt(math.pi) * 0.4, rel=1e-12)


def test_empty_constraints_zero_norm():
    assert quotient_norm_p2(PseudoDisk(0.0, 0.5), []) == 0.0


def test_constant_jet_is_optimal():
    # f(c)=1, f'(c)=0 at the disk center: the constant wins, so adding the
    # derivative constraint does not change the norm
    dom = PseudoDisk(0.0, 0.5)
    base = quotient_norm_p2(dom, [JetConstraint(0.0, 0, 1.0)])
    both = quotient_norm_p2(
        dom, [JetConstraint(0.0, 0, 1.0), JetConstraint(0.0, 1, 0.0)]
    )
    assert both == pytest.approx(base, rel=1e-12)


def test_quotient_norm_monotone_in_constraints():
    dom = PseudoDisk(0.0, 0.6)
    c1 = [JetConstraint(0.1, 0, 1.0)]
    c2 = c1 + [JetConstraint(-0.2, 0, 0.5j)]
    assert quotient_norm_p2(dom, c1) <= quotient_norm_p2(dom, c2) + 1e-14


def test_quotient_norm_matches_polynomial_oracle():
    dom = PseudoDisk(0.1, 0.5)
    cons = [JetConstraint(0.1, 0, 1.0), JetConstraint(0.25, 0, -0.5 + 0.2j)]
    exact = quotient_norm_p2(dom, cons)
    approx = poly_quotient_oracle(dom, cons)
    assert approx == pytest.approx(exact, rel=1e-6)
    # the polynomial space is a subspace, so its minimum can only be larger
    assert approx >= exact - 1e-12


def test_quotient_norm_p2_moebius_isometry():
    # composing with a disk automorphism multiplied by the cocycle
    # phi' preserves the A^2 norm; the quotient norm inherits the identity
    # ||w||_{D(0,r)} with data w at 0 equals ||w phi_a'(a)|| ... simplest
    # invariant check: rotation invariance
    dom = PseudoDisk(0.0, 0.5)
    cons = [JetConstraint(0.2, 0, 1.0), JetConstraint(-0.1j, 0, 0.3)]
    rot = np.exp(1j * 0.9)
    cons_r = [JetConstraint(c.point * rot, c.order, c.value) for c in cons]
    assert quotient_norm_p2(dom, cons_r) == pytest.approx(
        quotient_norm_p2(dom, cons), rel=1e-12
    )


def test_singular_gram_raised():
    dom = PseudoDisk(0.0, 0.5)
    cons = [JetConstraint(0.1, 0, 1.0), JetConstraint(0.1 + 1e-14, 0, 1.0)]
    with pytest.raises(SingularGram):
        quotient_norm_p2(dom, cons)


def test_constraint_outside_domain_rejected():
    with pytest.raises(ValueError):
        quotient_norm_p2(PseudoDisk(0.0, 0.2), [JetConstraint(0.5, 0, 1.0)])


# ------------------------------------------------------------------ general p


def test_domain_quadrature_disk_area():
    dom = PseudoDisk(0.3, 0.4)
    e = pseudo_to_euclidean(dom)
    nodes, weights = domain_quadrature(dom)
    assert weights.sum() == pytest.approx(e.area, rel=1e-12)
    # integrates |z - c|^2 exactly: 2 pi s^4 / 4
    val = (weights * np.abs(nodes - e.center) ** 2).sum()
    assert val == pytest.approx(math.pi * e.radius ** 4 / 2.0, rel=1e-12)


def test_domain_quadrature_union_counts_overlap_once():
    from diskinterp.schemes import Domain

    d1, d2 = PseudoDisk(0.0, 0.3), PseudoDisk(0.1, 0.3)
    union = Domain((d1, d2))
    _, w = domain_quadrature(union)
    e1, e2 = pseudo_to_euclidean(d1), pseudo_to_euclidean(d2)
    assert w.sum() < e1.area + e2.area - 1e-6
    assert w.sum() > max(e1.area, e2.area)


def test_general_p2_matches_kernel():
    dom = PseudoDisk(0.0, 0.5)
    cons = [JetConstraint(0.1, 0, 1.0), JetConstraint(-0.2, 1, 0.5)]
    exact = quotient_norm_p2(dom, cons)
    approx = quotient_norm_general(dom, cons, 2.0)
    assert approx == pytest.approx(exact, rel=1e-8)


def test_general_p1_single_point():
    # f(c) = 1 at the center: for every p the constant is optimal
    # (mean-value property), giving norm (pi s^2)^(1/p)
    dom = PseudoDisk(0.0, 0.5)
    e = pseudo_to_euclidean(dom)
    for p in (1.0, 1.5, 3.0):
        got = quotient_norm_general(dom, [JetConstraint(0.0, 0, 1.0)], p)
        assert got == pytest.approx((math.pi * e.radius ** 2) ** (1.0 / p), rel=1e-6)


def test_general_p_monotone_normalized():
    # the normalized mean q -> (avg |f|^q)^{1/q} is nondecreasing; on the
    # fixed minimizer this transfers to a sanity ordering of the norms after
    # area normalization
    dom = PseudoDisk(0.0, 0.5)
    cons = [JetConstraint(0.1, 0, 1.0), JetConstraint(-0.15, 0, 2.0)]
    e = pseudo_to_euclidean(dom)
    area = e.area
    vals = [
        quotient_norm_general(dom, cons, p) / area ** (1.0 / p) for p in (1.0, 2.0, 4.0)
    ]
    assert vals == sorted(vals)


def _lp(u, weights, p):
    top = np.abs(u).max()
    if p == np.inf:
        return top
    return top * np.sum(weights * (np.abs(u) / top) ** p) ** (1.0 / p)


def _cgs2(A):
    """Q with orthonormal columns and upper-triangular R, A = Q R, by
    classical Gram-Schmidt run twice per column."""
    Q = np.zeros_like(A)
    R = np.zeros((A.shape[1], A.shape[1]), dtype=A.dtype)
    for j in range(A.shape[1]):
        v = A[:, j].copy()
        for _ in range(2):
            c = Q[:, :j].conj().T @ v
            v -= Q[:, :j] @ c
            R[:j, j] += c
        R[j, j] = np.sqrt(np.sum(np.abs(v) ** 2))
        Q[:, j] = v / R[j, j]
    return Q, R


@functools.lru_cache(maxsize=4)
def _long_double_p2(domain, constraints, degree, grid):
    """(weights, Q, P, sw, g2) of general_p_bracket, independent of p."""
    ld, cld = np.longdouble, np.clongdouble
    nodes, weights = domain_quadrature(domain, *grid)
    keep = weights > 0.0
    weights = weights[keep].astype(ld)
    balls = [domain] if isinstance(domain, PseudoDisk) else domain.balls
    c = cld(np.mean([pseudo_to_euclidean(b).center for b in balls]))
    u = nodes[keep].astype(cld) - c
    s = np.sqrt(np.max(np.abs(u) ** 2))
    u = u / s
    V = np.ones((len(u), degree), dtype=cld)
    for k in range(1, degree):
        V[:, k] = V[:, k - 1] * u
    sw = np.sqrt(weights)
    Q, R = _cgs2(sw[:, None] * V)
    C = np.zeros((len(constraints), degree), dtype=cld)
    for i, con in enumerate(constraints):
        v = (cld(con.point) - c) / s
        for k in range(con.order, degree):
            C[i, k] = (ld(math.factorial(k) // math.factorial(k - con.order))
                       * v ** (k - con.order) / s ** con.order)
    Cy = np.zeros_like(C)  # C R^-1, by forward substitution
    for j in range(degree):
        Cy[:, j] = (C[:, j] - Cy[:, :j] @ R[:j, j]) / R[j, j]
    P, S = _cgs2(Cy.conj().T)  # Cy = S^H P^H
    w = np.array([con.value for con in constraints], dtype=cld)
    z = np.zeros(len(constraints), dtype=cld)  # S^H z = w
    for i in range(len(constraints)):
        z[i] = (w[i] - S[:i, i].conj() @ z[:i]) / S[i, i].conj()
    return weights, Q, P, sw, Q @ (P @ z) / sw


def general_p_bracket(domain, constraints, p, degree, grid):
    """(lower, upper) for the discretised general-p quotient norm, computed
    without the library's solver on the library's quadrature, in long
    double and without forming a Gram matrix, whose condition passes 1e16
    on long ball chains.

    sqrt(w) V = Q R for the monomials V about the mean of the balls'
    Euclidean centres; the constraints on coefficients y in the basis Q
    are C R^-1 y = values, with minimum-norm solution y2.  upper: the L^p
    norm of the p = 2 minimiser g2 = Q y2 / sqrt(w), the exact value at
    p = 2.  lower: Hölder with the dual vector k = |g2|^(p-2) g2, projected
    onto the annihilator of the polynomials that vanish on the constraints.
    """
    weights, Q, P, sw, g2 = _long_double_p2(domain, tuple(constraints), degree, grid)
    k = np.abs(g2) ** (p - 2.0) * g2
    kt = Q.conj().T @ (sw * k)  # remove the null-space part, (I - P P^H) Q^H k
    k -= Q @ (kt - P @ (P.conj().T @ kt)) / sw
    kq = _lp(k, weights, np.inf if p == 1.0 else p / (p - 1.0))
    lower = abs(np.sum(weights * g2 * k.conj())) / kq
    return float(lower), float(_lp(g2, weights, p))


def _ball_chain(center, radius, steps):
    balls = [PseudoDisk(center, radius)]
    for d, theta in steps:
        balls.append(PseudoDisk(moebius(balls[-1].center, -d * radius * np.exp(1j * theta)),
                                radius))
    return balls[0] if len(balls) == 1 else Domain(tuple(balls))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.0, 0.6),
    st.floats(0.0, 2.0 * np.pi),
    st.floats(0.15, 0.5),
    st.lists(st.tuples(st.floats(0.4, 1.4), st.floats(0.0, 2.0 * np.pi)), max_size=2),
    st.lists(
        st.tuples(st.floats(0.2, 0.6), st.integers(0, 1), st.floats(0.2, 1.0),
                  st.floats(0.0, 2.0 * np.pi)),
        min_size=1, max_size=3,
    ),
    st.floats(1.0, 4.0),
)
def test_general_p_within_p2_bracket(c_abs, c_arg, radius, steps, jets, p):
    # random disks and 2-3 ball chains, 1-3 jets of order <= 1: the
    # certified value never exceeds the p = 2 minimiser's L^p norm and
    # never falls below a Hölder bound of the test's own
    domain = _ball_chain(c_abs * np.exp(1j * c_arg), radius, steps)
    balls = [domain] if isinstance(domain, PseudoDisk) else domain.balls
    cons = []
    for j, (t, order, mod, arg) in enumerate(jets):
        ball = balls[j % len(balls)]
        z = moebius(ball.center, -t * radius * np.exp(2j * np.pi * j / 3.0))
        cons += [JetConstraint(z, o, mod * np.exp(1j * (arg + o))) for o in range(order + 1)]
    got = quotient_norm_general(domain, cons, p, basis_size=12, grid=(24, 96))
    lower, upper = general_p_bracket(domain, cons, p, 12, (24, 96))
    assert lower * (1.0 - 1e-8) <= got <= upper * (1.0 + 1e-8)


def test_general_p_nonconvergence_at_iteration_cap(monkeypatch):
    # the p = 2 minimiser is not the p = 3 one, so with no Newton steps
    # allowed the gap stays open and the solver must say so
    dom = PseudoDisk(0.0, 0.5)
    cons = [JetConstraint(0.1, 0, 1.0), JetConstraint(-0.2j, 0, 1.0)]
    assert quotient_norm_general(dom, cons, 3.0, basis_size=12, grid=(24, 96)) > 0.0
    monkeypatch.setattr(interpolation, "NEWTON_MAX_ITER", 0)
    with pytest.raises(NonConvergence):
        quotient_norm_general(dom, cons, 3.0, basis_size=12, grid=(24, 96))
    # at p = 2 the start is the answer and needs no step
    assert quotient_norm_general(dom, cons, 2.0) == pytest.approx(
        quotient_norm_p2(dom, cons), rel=1e-8)


def test_general_p_zero_targets():
    dom = PseudoDisk(0.0, 0.5)
    zero = [JetConstraint(0.1, 0, 0.0), JetConstraint(-0.15, 0, 0.0)]
    assert quotient_norm_general(dom, zero, 1.0) == 0.0


def test_general_p_long_chain():
    # 20 points along an arc at eps = 0.05 make one cluster whose domain is
    # a 20-ball chain; the weighted monomials there have condition about
    # 6e9 and their Gram matrix about 4e19, past float64
    pts = 0.5 * np.exp(1j * np.linspace(0.0, 1.2, 20))
    scheme = build_minimal_scheme(PointSequence(pts), 0.05)
    (domain,) = scheme.domains
    assert len(domain.balls) == 20
    cons = JetTargets.values_on_scheme(scheme, np.ones(20)).per_cluster[0]
    for p in (2.0, 1.5, 3.0):
        got = quotient_norm_general(domain, cons, p, grid=(24, 96))
        lower, upper = general_p_bracket(domain, cons, p, 32, (24, 96))
        if p == 2.0:
            assert got == pytest.approx(upper, rel=1e-9)
        assert lower * (1.0 - 1e-9) <= got <= upper * (1.0 + 1e-9)


def _all_pairs_quadrature(domain, n_radial, n_angular):
    """domain_quadrature's rule with each ball's nodes tested against every
    earlier ball."""
    x, wx = np.polynomial.legendre.leggauss(n_radial)
    ang = 2.0 * np.pi * np.arange(n_angular) / n_angular
    all_nodes, all_weights = [], []
    for k, ball in enumerate(domain.balls):
        e = pseudo_to_euclidean(ball)
        r = 0.5 * (x + 1.0) * e.radius
        wr = 0.5 * e.radius * wx * r
        nodes = e.center + r[:, None] * np.exp(1j * ang[None, :])
        weights = np.broadcast_to((wr * (2.0 * np.pi / n_angular))[:, None], nodes.shape).copy()
        own = np.ones(nodes.shape, dtype=bool)
        for b2 in domain.balls[:k]:
            own &= np.abs((nodes - b2.center) / (1.0 - np.conj(b2.center) * nodes)) >= b2.radius
        weights[~own] = 0.0
        all_nodes.append(nodes.ravel())
        all_weights.append(weights.ravel())
    return np.concatenate(all_nodes), np.concatenate(all_weights)


# a closed ring of balls: the last meets the first, far back in order
_RING = Domain(tuple(PseudoDisk(0.4 * np.exp(2j * np.pi * k / 9), 0.2) for k in range(9)))
_BLOB = Domain(tuple(PseudoDisk(z, 0.2) for z in (0.0, 0.05, 0.1j, -0.08, 0.3, 0.04 - 0.06j)))


def test_domain_quadrature_matches_all_pairs_ownership():
    # only earlier balls that meet a ball are tested against its nodes; the
    # rule must be bit for bit the one that tests every earlier ball
    chain = build_minimal_scheme(
        PointSequence(0.5 * np.exp(1j * np.linspace(0.0, 1.2, 20))), 0.05).domains[0]
    for domain in (chain, _RING, _BLOB):
        for grid in ((24, 96), (64, 256)):
            nodes, weights = domain_quadrature(domain, *grid)
            want_nodes, want_weights = _all_pairs_quadrature(domain, *grid)
            assert np.array_equal(nodes, want_nodes)
            assert np.array_equal(weights, want_weights)
        assert (weights == 0.0).any()


def _disk_jets(center, radius):
    return [JetConstraint(moebius(center, -0.2 * radius), 0, 1.0),
            JetConstraint(moebius(center, -0.2 * radius), 1, 0.5j),
            JetConstraint(moebius(center, 0.3j * radius), 0, -0.7 + 0.2j)]


def test_disk_basis_is_orthonormal():
    # the disk basis ((z - c)/s)^k / nu_k, evaluated through its ring FFTs,
    # is orthonormal in domain_quadrature's inner product
    dom = PseudoDisk(0.6 * np.exp(2.0j), 0.4)
    cons = _disk_jets(dom.center, dom.radius)
    C, span, weights = interpolation._basis_constraints(
        dom, [c.point for c in cons], [c.order for c in cons], 32, (64, 256), True)
    nodes, quad_weights = domain_quadrature(dom, 64, 256)
    assert np.array_equal(weights, quad_weights)
    basis = span(np.eye(C.shape[1]))
    Phi = np.column_stack([basis.values(col) for col in np.eye(C.shape[1])])
    assert Phi.shape == (64 * 256, 32)
    gram = Phi.conj().T @ (weights[:, None] * Phi)
    assert np.abs(gram - np.eye(32)).max() <= 1e-13
    # and it is the scaled monomials at the quadrature's nodes
    c = pseudo_to_euclidean(dom).center
    x = (nodes - c) / np.abs(nodes - c).max()
    mono = x[:, None] ** np.arange(32)
    nu = np.sqrt(weights @ np.abs(mono) ** 2)
    assert np.abs(Phi - mono / nu).max() <= 1e-12 * np.abs(Phi).max()


def test_disk_general_p_within_long_double_bracket():
    # library defaults (32 monomials, 64 x 256 nodes) on a disk near the rim
    # with a jet
    center = 0.9 * np.exp(0.3j)
    dom = PseudoDisk(center, 0.3)
    cons = _disk_jets(center, 0.3)
    for p in (1.0, 1.5, 3.0, 4.0):
        got = quotient_norm_general(dom, cons, p)
        lower, upper = general_p_bracket(dom, cons, p, 32, (64, 256))
        assert lower * (1.0 - 1e-9) <= got <= upper * (1.0 + 1e-9)


def test_disk_path_matches_the_dense_path():
    # a one-ball Domain takes the disk path too; the disk listed twice is a
    # union whose second ball owns no node, so the dense QR path runs on
    # the same nodes and must give the same values
    dom = PseudoDisk(0.3 - 0.5j, 0.45)
    cons = _disk_jets(dom.center, dom.radius)
    for p in (1.0, 1.5, 2.0, 3.0):
        got = quotient_norm_general(dom, cons, p, grid=(32, 128))
        assert quotient_norm_general(Domain((dom,)), cons, p, grid=(32, 128)) == got
        dense = quotient_norm_general(Domain((dom, dom)), cons, p, grid=(32, 128))
        assert got == pytest.approx(dense, rel=1e-12)


def test_basis_larger_than_a_ring_is_rejected():
    dom = PseudoDisk(0.0, 0.5)
    cons = [JetConstraint(0.1, 0, 1.0)]
    assert quotient_norm_general(dom, cons, 3.0, basis_size=16, grid=(8, 16)) > 0.0
    with pytest.raises(ValueError, match="angular"):
        quotient_norm_general(dom, cons, 3.0, basis_size=17, grid=(8, 16))


def test_general_p_on_disks_loads_no_scipy():
    # singleton clusters and disks take the ring-FFT path, which needs no
    # QR and so no scipy
    src = str(Path(interpolation.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from diskinterp import PointSequence, build_minimal_scheme\n"
        "from diskinterp.geometry import PseudoDisk\n"
        "from diskinterp.interpolation import JetConstraint, JetTargets, "
        "quotient_norm_general, target_norm\n"
        "s = build_minimal_scheme(PointSequence([0.4, 0.5j, -0.55]), 0.05)\n"
        "t = JetTargets.values_on_scheme(s, [1.0, 0.7j, -0.5])\n"
        "assert target_norm(s, t, 3.0) > 0.0\n"
        "cons = [JetConstraint(0.1, 0, 1.0), JetConstraint(0.1, 1, 0.5j)]\n"
        "assert quotient_norm_general(PseudoDisk(0.2, 0.4), cons, 1.5) > 0.0\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# ----------------------------------------------------------- scheme-level API


def test_jet_targets_validation():
    with pytest.raises(MalformedJet):
        JetConstraint(0.1, -1, 1.0)
    with pytest.raises(MalformedJet):
        JetTargets([[JetConstraint(0.1, 1, 1.0)]])  # order 1 without order 0


def test_values_on_scheme_builds_jets_for_repeats():
    scheme = build_minimal_scheme(PointSequence([0.3, 0.3]), 0.1)
    t = JetTargets.values_on_scheme(scheme, [1.0, 2.0])
    cons = t.all_constraints()
    assert [c.order for c in cons] == [0, 1]


def test_target_norm_lp_aggregation():
    scheme = build_minimal_scheme(PointSequence([0.0, 0.7]), 0.1)
    t = JetTargets.values_on_scheme(scheme, [1.0, 1.0])
    n1 = target_norm(scheme, t, 2.0)
    parts = [
        quotient_norm_p2(scheme.domains[k].balls[0], t.per_cluster[k]) for k in (0, 1)
    ]
    assert n1 == pytest.approx(math.hypot(*parts), rel=1e-12)


def test_solve_p2_single_value():
    # f(0) = 1 on the unit disk: minimum norm is the constant 1, ||1|| = sqrt(pi)
    scheme = build_minimal_scheme(PointSequence([0.0]), 0.2)
    rep = solve_p2(scheme, JetTargets.values_on_scheme(scheme, [1.0]))
    assert rep.norm_value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert max(abs(r) for r in rep.residuals) < 1e-10
    z = np.array([0.3 + 0.1j])
    assert complex(rep.function(z)[0]) == pytest.approx(1.0, abs=1e-12)


def test_solve_p2_reproduces_jets():
    scheme = build_minimal_scheme(PointSequence([0.2, 0.2, -0.4]), 0.05)
    rep = solve_p2(scheme, JetTargets.values_on_scheme(scheme, [1.0, 0.5j, -2.0]))
    assert max(abs(r) for r in rep.residuals) < 1e-8
    # check the jet directly: f(0.2), f'(0.2), f(-0.4)
    f = rep.function
    assert complex(f.derivative(np.array(0.2 + 0j), 0)) == pytest.approx(1.0, abs=1e-8)
    assert complex(f.derivative(np.array(0.2 + 0j), 1)) == pytest.approx(0.5j, abs=1e-7)
    assert complex(f(np.array(-0.4 + 0j))) == pytest.approx(-2.0, abs=1e-8)


def test_solve_norm_dominates_target_norm():
    # restricting the global solution to each domain meets the local
    # constraints, so the quotient target norm never exceeds the global norm
    rng = np.random.default_rng(31)
    for _ in range(5):
        pts = rng.uniform(-0.6, 0.6, 4) + 1j * rng.uniform(-0.4, 0.4, 4)
        scheme = build_minimal_scheme(PointSequence(pts), 0.1)
        vals = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rep = solve_p2(scheme, JetTargets.values_on_scheme(scheme, vals))
        assert rep.target_norm <= rep.norm_value * (1.0 + 1e-9)


def test_probe_constant_two_far_points():
    # Z = {0, 1/2} with separate singleton clusters of radius 1/8
    scheme = build_minimal_scheme(PointSequence([0.0, 0.5]), 0.125)
    c = interpolation_constant_probe(scheme, trials=24, seed=5)
    assert c >= 1.0 - 1e-9
    assert c < 50.0


def test_probe_constant_blows_up_as_pair_merges():
    consts = [two_point_probe_constant(d) for d in (0.1, 0.05, 0.025, 0.0125)]
    assert consts == sorted(consts)
    # fit the growth exponent in 1/d: should look like d^-2 (jet collision)
    x = np.log(1.0 / np.array([0.1, 0.05, 0.025, 0.0125]))
    slope = np.polyfit(x, np.log(consts), 1)[0]
    assert slope >= 0.9


# ------------------------------------------------ p = 2 Gram pipeline


def _scalar_gram(points, orders, center=0.0, s=1.0):
    n = len(points)
    return np.array([[complex(bergman_kernel_deriv(points[i], points[j], orders[i], orders[j],
                                                    center=center, s=s))
                      for j in range(n)] for i in range(n)])


def test_gram_matches_scalar_kernel_loop():
    rng = np.random.default_rng(11)
    pts = list(0.5 * (rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)))
    orders = [0, 2, 1, 0, 1, 2, 0, 0, 1]
    for center, s in ((0.0, 1.0), (0.2 - 0.1j, 0.55)):
        got = interpolation._gram(pts, orders, center, s)
        want = _scalar_gram(pts, orders, center, s)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def _jet_union_scheme():
    # a triple point (jets of order 0..2) with a point at psi 0.3 from it is
    # one two-ball domain at eps = 0.18; two far singletons are disks
    c = 0.5 * np.exp(0.4j)
    pts = [c, c, c, moebius(c, 0.3 * np.exp(2.0j)), -0.4 + 0.1j, 0.2 - 0.6j]
    scheme = build_minimal_scheme(PointSequence(pts), 0.18)
    assert sorted(len(d.balls) for d in scheme.domains) == [1, 1, 2]
    return scheme


def test_target_norm_p2_on_a_union_matches_the_quadrature_norm():
    # the union cluster's ||F^-1 w|| against the minimum-norm polynomial of
    # quotient_norm_general at p = 2, the disks against quotient_norm_p2
    scheme = _jet_union_scheme()
    rng = np.random.default_rng(11)
    n = len(scheme.sequence)
    t = JetTargets.values_on_scheme(scheme, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    parts = [
        quotient_norm_p2(dom.balls[0], cons) if dom.is_disk else quotient_norm_general(
            dom, cons, 2.0, max(interpolation.UNION_BASIS, len(cons)))
        for dom, cons in zip(scheme.domains, t.per_cluster)
    ]
    assert target_norm(scheme, t, 2.0) == pytest.approx(math.sqrt(sum(q * q for q in parts)),
                                                        rel=1e-12)


def _union_of(scheme):
    (i,) = [i for i, d in enumerate(scheme.domains) if not d.is_disk]
    return i, scheme.domains[i]


@pytest.mark.parametrize("grid", [(24, 96), interpolation.QUAD_GRID])
def test_union_factor_matches_the_owned_rows(grid):
    # R from _tsqr_r of the partly owned rings and closed-form triangles of
    # the fully owned ones, against the weighted monomials formed at every
    # node domain_quadrature gives weight; the disk listed twice is a union
    # whose second ball owns no node
    disk = PseudoDisk(0.3 - 0.5j, 0.45)
    for domain in (_union_of(_jet_union_scheme())[1], _RING, _BLOB, Domain((disk, disk))):
        center = np.mean([pseudo_to_euclidean(b).center for b in domain.balls])
        R, s, rows = interpolation._union_r(domain, center, 32, grid)
        nodes, weights = domain_quadrature(domain, *grid)
        owned = weights > 0.0
        assert rows == owned.sum()
        assert s == np.abs(nodes[owned] - center).max()
        x = (nodes[owned] - center) / s
        A = np.sqrt(weights[owned])[:, None] * x[:, None] ** np.arange(32)
        AhA = A.conj().T @ A
        assert np.allclose(np.tril(R, -1), 0.0)
        assert np.linalg.norm(R.conj().T @ R - AhA) <= 1e-12 * np.linalg.norm(AhA)


def test_union_p2_norm_within_long_double_bracket():
    # the two-ball domain of a jet-clusters scheme at the library defaults
    scheme = _jet_union_scheme()
    i, domain = _union_of(scheme)
    rng = np.random.default_rng(4)
    n = len(scheme.sequence)
    cons = JetTargets.values_on_scheme(
        scheme, rng.standard_normal(n) + 1j * rng.standard_normal(n)).per_cluster[i]
    got = quotient_norm_general(domain, cons, 2.0)
    _, upper = general_p_bracket(domain, cons, 2.0, 32, interpolation.QUAD_GRID)
    assert got == pytest.approx(upper, rel=1e-10)


def test_target_norm_p2_raises_when_a_union_loses_rank():
    # two points 1e-12 apart make a two-ball domain whose two constraint
    # rows agree to rounding: some unit target is unsolvable, so the
    # cluster's norm raises for every target, as the exact constant's
    # cluster factor does, though the target (1, 1) itself has a solution
    scheme = build_minimal_scheme(PointSequence([0.3, 0.3 + 1e-12, -0.5j]), 0.1)
    assert sorted(len(d.balls) for d in scheme.domains) == [1, 2]
    t = JetTargets.values_on_scheme(scheme, [1.0, 1.0, 1.0])
    with pytest.raises(InfeasibleConstraints):
        target_norm(scheme, t, 2.0)


def test_probe_matches_per_trial_loop():
    # the one-solve probe against solving every draw separately
    scheme = _jet_union_scheme()
    n, trials, seed = len(scheme.sequence), 6, 17
    rng = np.random.default_rng(seed)
    best = [0.0]
    for _ in range(trials):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        report = solve_p2(scheme, JetTargets.values_on_scheme(scheme, v))
        best.append(max(best[-1], report.norm_value / report.target_norm))
    # the first k draws do not depend on the number of trials
    for k in range(trials + 1):
        assert interpolation_constant_probe(scheme, k, seed) == pytest.approx(best[k], rel=1e-12)


def _oracle_constant(scheme, union_form=None):
    """sqrt(lambda_max(G^-1, B)) from scalar-kernel Gram matrices,
    scipy.linalg.inv and eigh; the union blocks of B by polarisation of
    union_form(domain, constraints), the squared quotient norm."""
    import scipy.linalg

    targets = JetTargets.values_on_scheme(scheme, np.ones(len(scheme.sequence)))
    blocks, pts, ords = [], [], []
    for dom, cons in zip(scheme.domains, targets.per_cluster):
        p, o = [c.point for c in cons], [c.order for c in cons]
        pts += p
        ords += o
        if dom.is_disk:
            e = pseudo_to_euclidean(dom.balls[0])
            blocks.append(scipy.linalg.inv(_scalar_gram(p, o, e.center, e.radius)))
            continue
        m = len(cons)

        def q(w):
            return union_form(dom, [JetConstraint(z, k, a) for z, k, a in zip(p, o, w)])

        eye = np.eye(m)
        diag = [q(eye[i]) for i in range(m)]
        B = np.diag(np.array(diag, dtype=complex))
        for i in range(m):
            for j in range(i + 1, m):
                re = 0.5 * (q(eye[i] + eye[j]) - diag[i] - diag[j])
                im = -0.5 * (q(eye[i] + 1j * eye[j]) - diag[i] - diag[j])
                B[i, j], B[j, i] = re + 1j * im, re - 1j * im
        blocks.append(B)
    Ginv = scipy.linalg.inv(_scalar_gram(pts, ords))
    lam = scipy.linalg.eigh(Ginv, scipy.linalg.block_diag(*blocks), eigvals_only=True)[-1]
    return math.sqrt(lam)


def test_exact_constant_matches_oracle_on_disks():
    # singleton and jet clusters, every domain a disk
    z = [0.0, 0.0, 0.5, 0.45j, 0.45j, 0.45j, -0.3 + 0.4j, 0.7 - 0.2j]
    scheme = build_minimal_scheme(PointSequence(z), 0.1)
    assert all(d.is_disk for d in scheme.domains)
    exact = interpolation_constant_p2(scheme)
    assert exact == pytest.approx(_oracle_constant(scheme), rel=1e-10)
    assert interpolation_constant_probe(scheme, 20, 3) <= exact * (1.0 + 1e-9)
    # two points: the constant is the largest ratio over all targets, so
    # the probe's best draw comes close to it
    pair = build_minimal_scheme(PointSequence([0.0, 0.5]), 0.125)
    assert interpolation_constant_probe(pair, 200, 5) == pytest.approx(
        interpolation_constant_p2(pair), rel=1e-2)


def test_exact_constant_matches_oracle_on_a_union():
    scheme = _jet_union_scheme()
    exact = interpolation_constant_p2(scheme)
    oracle = _oracle_constant(
        scheme, lambda dom, cons: quotient_norm_general(
            dom, cons, 2.0, max(interpolation.UNION_BASIS, len(cons))) ** 2)
    assert exact == pytest.approx(oracle, rel=1e-9)
    assert interpolation_constant_probe(scheme, 20, 1) <= exact * (1.0 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(st.floats(0.0, 0.8), st.floats(0.0, 2.0 * np.pi), st.integers(1, 2)),
             min_size=1, max_size=4),
    st.floats(0.02, 0.15),
    st.integers(0, 2**16),
)
def test_probe_never_exceeds_exact_constant(points, eps, seed):
    # 1-4 points, some doubled into jets; the probe's best draw is one
    # target, so its ratio is at most the largest one
    z = [r * np.exp(1j * t) for r, t, k in points for _ in range(k)]
    try:
        scheme = build_minimal_scheme(PointSequence(z), eps)
        exact = interpolation_constant_p2(scheme)
    except (SingularGram, InfeasibleConstraints, DiameterOverflow):
        return
    assert 0.0 < interpolation_constant_probe(scheme, 5, seed) <= exact * (1.0 + 1e-9)


def _hegv_constant(scheme):
    """sqrt(lambda_max(G^-1, B)) as eigvalsh(L^-1 D L^-H), D the block
    diagonal of the clusters' B_k^-1: the disk's kernel Gram matrix, and
    C C^H on a union of balls, C its constraint matrix."""
    jets = interpolation._cluster_jets(scheme)
    G = interpolation._gram([z for _, p, _ in jets for z in p], [k for _, _, o in jets for k in o])
    D = np.zeros_like(G)
    lo = 0
    for dom, (_, p, o) in zip(scheme.domains, jets):
        if dom.is_disk:
            e = pseudo_to_euclidean(dom.balls[0])
            block = interpolation._gram(p, o, e.center, e.radius)
        else:
            C = interpolation._basis_constraints(dom, p, o, max(interpolation.UNION_BASIS, len(p)),
                                                 interpolation.QUAD_GRID, with_span=False)[0]
            block = C @ C.conj().T
        D[lo:lo + len(p), lo:lo + len(p)] = block
        lo += len(p)
    L = np.linalg.cholesky(G)
    LiD = np.linalg.solve(L, D)
    return math.sqrt(np.linalg.eigvalsh(np.linalg.solve(L, LiD.conj().T))[-1])


def test_exact_constant_matches_hegv_reduction():
    # the factor form ||L^-1 F||_2 against the Hermitian reduction of the
    # pencil, on a union with a jet and on disks with jets
    eight = [0.0, 0.0, 0.5, 0.45j, 0.45j, 0.45j, -0.3 + 0.4j, 0.7 - 0.2j]
    for scheme in (_jet_union_scheme(), build_minimal_scheme(PointSequence(eight), 0.1)):
        assert interpolation_constant_p2(scheme) == pytest.approx(
            _hegv_constant(scheme), rel=1e-10)


def test_exact_constant_raises_like_the_probe():
    # a jet pair on top of a point 1e-7 away: the global Gram is singular
    scheme = build_minimal_scheme(PointSequence([0.2, 0.2 + 1e-7, 0.5j]), 0.1)
    with pytest.raises(SingularGram):
        interpolation_constant_probe(scheme, 3, 0)
    with pytest.raises(SingularGram):
        interpolation_constant_p2(scheme)


def test_blocked_r_matches_scipy_qr():
    # a node count that is not a multiple of the block size
    import scipy.linalg

    rng = np.random.default_rng(5)
    n = 2 * interpolation.QR_BLOCK + 37
    x = 0.9 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    A = np.sqrt(rng.uniform(0.5, 1.0, n))[:, None] * x[:, None] ** np.arange(16)
    R = interpolation._tsqr_r(A)
    assert R.shape == (16, 16)
    assert np.allclose(np.tril(R, -1), 0.0)
    got = np.linalg.svd(R, compute_uv=False)
    want = scipy.linalg.svdvals(scipy.linalg.qr(A, mode="r")[0])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * want[0])
    np.testing.assert_allclose(R.conj().T @ R, A.conj().T @ A, rtol=0,
                               atol=1e-13 * want[0] ** 2)


@pytest.mark.parametrize("rows", [2 * interpolation.QR_BLOCK + 37, interpolation.QR_BLOCK + 5])
def test_blocked_qr_writes_q_over_a(rows):
    # the second size leaves a last block of 5 rows, fewer than the columns
    rng = np.random.default_rng(6)
    x = 0.9 * (rng.uniform(-1, 1, rows) + 1j * rng.uniform(-1, 1, rows))
    A0 = np.asfortranarray(np.sqrt(rng.uniform(0.5, 1.0, rows))[:, None]
                           * x[:, None] ** np.arange(16))
    A = A0.copy(order="F")
    R = interpolation._tsqr_r(A, overwrite_q=True)
    np.testing.assert_array_equal(R, interpolation._tsqr_r(A0))
    np.testing.assert_allclose(A.conj().T @ A, np.eye(16), rtol=0, atol=1e-13)
    np.testing.assert_allclose(A @ R, A0, rtol=0, atol=1e-13 * np.linalg.norm(A0, 2))


def test_blocked_qr_forms_no_second_matrix():
    # Q takes A's place: at a union's size (two balls at 0 and 0.05 own
    # 20,004 nodes of the default grid, 20 blocks) A and the call's own
    # arrays stay within 1.25 A.  At a block or two each block is half of
    # A, and so are the block QR's arrays
    rng = np.random.default_rng(7)
    rows = 32 * interpolation.QR_BLOCK + 37
    x = 0.9 * (rng.uniform(-1, 1, rows) + 1j * rng.uniform(-1, 1, rows))
    A = np.asfortranarray(x[:, None] ** np.arange(32))
    tracemalloc.start()
    try:
        interpolation._tsqr_r(A, overwrite_q=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A.nbytes + peak <= 1.25 * A.nbytes
    np.testing.assert_allclose(A.conj().T @ A, np.eye(32), rtol=0, atol=1e-13)


# -------------------------------------------------------------- worked norms


def test_example1_norm():
    Z = PointSequence([0.0, 0.5])
    # p=2: (|1|^2 * 1 + |2|^2 * (0.75)^2)^(1/2)
    got = example1_norm(Z, [1.0, 2.0], 2.0)
    assert got == pytest.approx(math.sqrt(1.0 + 4.0 * 0.5625), rel=1e-12)
    with pytest.raises(DuplicatePoint):
        example1_norm(PointSequence([0.1, 0.1]), [1.0, 1.0], 2.0)


def test_example2_norm():
    # one point, jet (w0, w1): (|w0|^p (1-|z|^2)^2 + |w1|^p (1-|z|^2)^{p+2})^{1/p}
    z, w0, w1, p = 0.5, 1.0, 2.0, 2.0
    t = (1.0 - 0.25) ** 2 + 4.0 * (1.0 - 0.25) ** 4
    assert example2_norm([z], [[w0, w1]], p) == pytest.approx(math.sqrt(t), rel=1e-12)
    # order-0-only jets reduce to example 1
    Z = PointSequence([0.1, -0.4j])
    vals = [1.5, -2.0 + 1.0j]
    assert example2_norm(Z.points, [[v] for v in vals], 2.0) == pytest.approx(
        example1_norm(Z, vals, 2.0), rel=1e-12
    )


def test_example3_representative_interpolates():
    a, b, u, v = 0.1, 0.4, 1.0 + 0.5j, -2.0
    f = example3_representative(a, b, u, v)
    assert complex(f(np.array(a + 0j))) == pytest.approx(u, abs=1e-12)
    assert complex(f(np.array(b + 0j))) == pytest.approx(v, abs=1e-12)
    with pytest.raises(DegeneratePair):
        example3_representative(0.2, 0.2, 1.0, 2.0)


def test_example3_norm():
    a, b, u, v = 0.0, 0.3, 1.0, 2.0
    d = psi(a, b)
    expect = (abs(u) ** 2 + abs((v - u) / d) ** 2) ** 0.5
    assert example3_norm([(a, b, u, v)], 2.0) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(PairTooFar):
        example3_norm([(-0.9, 0.9, 1.0, 2.0)], 2.0)


def test_example3_degenerates_to_example1_for_far_pairs():
    # when v = u the pair norm is |u|(1-|a|^2)^{2/p}, matching example 1 at a
    a, u = 0.3, 1.5
    pairs = [(a, 0.7, u, u)]
    assert example3_norm(pairs, 2.0) == pytest.approx(
        example1_norm(PointSequence([a]), [u], 2.0), rel=1e-12
    )


# ----------------------------------------------- crowding weight and Blaschke


def test_o_interp_weight_singleton():
    # n=0, delta=1: weight reduces to |c|^p (1-|z|^2)^(alpha+2)
    Z = PointSequence([0.5])
    got = o_interp_weight(Z, [2.0], 2.0, alpha=0.0)
    assert got == pytest.approx(4.0 * 0.75 ** 2, rel=1e-12)


def test_o_interp_weight_crowded_pair_blows_up():
    vals = []
    for d in (0.4, 0.2, 0.1, 0.05):
        Z = PointSequence([0.0, d])
        vals.append(o_interp_weight(Z, [1.0, 1.0], 2.0))
    assert vals == sorted(vals)
    # growth like 1/d^2 over a factor-8 shrink in d
    assert vals[-1] > 50.0 * vals[0]


def test_o_interp_weight_far_pair_no_penalty():
    # psi(0, 0.8) = 0.8 > 1/2: no crowding, delta powers are 0
    Z = PointSequence([0.0, 0.8])
    got = o_interp_weight(Z, [1.0, 1.0], 2.0)
    assert got == pytest.approx(1.0 + (1.0 - 0.64) ** 2, rel=1e-12)


@pytest.mark.parametrize("p, alpha", [(math.nan, 0.0), (-1.0, 0.0), (0.0, 0.0), (math.inf, 0.0),
                                      (2.0, math.nan), (2.0, math.inf), (2.0, -1.0)])
def test_o_interp_weight_rejects_bad_params(p, alpha):
    # p = -1 gave 0.531 and nan parameters gave nan
    with pytest.raises(ValueError):
        o_interp_weight(PointSequence([0.0, 0.3]), [1.0, 1.0], p, alpha=alpha)


def test_lagrange_cluster_interpolant():
    pts = [0.1, -0.2 + 0.1j, 0.3j]
    vals = [1.0, 2.0 - 1.0j, -0.5]
    f = lagrange_cluster_interpolant(pts, vals)
    for z, w in zip(pts, vals):
        assert complex(f(np.array(complex(z)))) == pytest.approx(w, abs=1e-12)
    with pytest.raises(DuplicatePoint):
        lagrange_cluster_interpolant([0.1, 0.1], [1.0, 2.0])


def test_blaschke_bound_holds_on_random_draws():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = rng.integers(2, 6)
        pts = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        g = int(rng.integers(0, n))
        z = rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)
        value, bound = blaschke_bound_check(pts, g, z)
        assert value <= bound * (1.0 + 1e-9)


# ------------------------------------------------------------ weighted norms


def test_weighted_norm_constant():
    # f = 1: norm^p = int (1-|z|^2)^alpha dA = pi/(alpha+1)
    for alpha in (0.0, 1.0, 2.5, -0.5):
        got = weighted_norms(lambda z: np.ones_like(z), 2.0, alpha=alpha)
        assert got == pytest.approx(math.sqrt(math.pi / (alpha + 1.0)), rel=1e-10)


def test_weighted_norm_monomial():
    # f = z, p = 2, alpha = 0: int |z|^2 dA = pi/2; f as a rep, the
    # Moebius ratio 0.5 M_0(z) / M_0(0.5) with M_0(z) = -z
    f = BlaschkeLagrangeRep(((0.5 + 0j, ((0j, 0.5 + 0j),)),))
    assert complex(f(np.array(0.3 - 0.2j))) == pytest.approx(0.3 - 0.2j, rel=1e-15)
    got = weighted_norms(f, 2.0)
    assert got == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-10)


def test_weighted_norm_rejects_bad_params():
    with pytest.raises(ValueError):
        weighted_norms(lambda z: z, 2.0, alpha=-1.0)
    with pytest.raises(ValueError):
        weighted_norms(lambda z: z, 0.0)


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_weighted_norm_rejects_non_finite_p(p):
    # total ** (1 / inf) = 1 would report 1 for every f
    with pytest.raises(ValueError, match="finite"):
        weighted_norms(lambda z: 100.0 * np.ones_like(z), p)


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_weighted_norm_rejects_non_finite_alpha(alpha):
    # both returned nan
    with pytest.raises(ValueError, match="finite"):
        weighted_norms(lambda z: 1.0 + 0.0 * z, 2.0, alpha=alpha)


def test_weighted_norm_raises_when_the_boundary_dominates():
    # |f|^2 = (1 - |z|^2)^-2 is not integrable: the outer decile of the
    # radial rule carries nearly all of the finite sum
    with pytest.raises(QuadratureDivergence):
        weighted_norms(lambda z: (1.0 - np.abs(z) ** 2) ** -1.0, 2.0)
