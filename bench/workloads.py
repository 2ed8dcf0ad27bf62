"""The four workloads: seeded inputs and a fixed job list for each.

A job is ``(name, run, check_names)``.  ``run(rec)`` calls the library
only through ``rec.call("<module>.<function>", fn, ...)`` and returns what
the named checks (``checks.CHECKS``) need.  ``WORKLOADS[name](seed)``
returns the job list and the warm-up jobs: one small call of every function
the workload times, so that set-up pays first-call costs.  Input sizes are
fixed; the seed moves points, values and jitter only, so every seed costs
about the same.
"""

from __future__ import annotations

import math

import numpy as np

import diskinterp as di
from diskinterp import Domain, JetConstraint, JetTargets, PointSequence, PseudoDisk
from diskinterp.dbar import GridFunction, PolarGridSpec, TauSpec

import checks

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


# ------------------------------------------------------------------ inputs


def sunflower(rng, n, rmax, jitter):
    """n points spread evenly (in area) over |z| < rmax on a golden-angle
    spiral, turned by a random angle and moved by up to `jitter` spacings
    (pulled back to |z| = rmax if that takes them further out)."""
    k = np.arange(n)
    turn = rng.uniform(0, 2 * np.pi)
    z = rmax * np.sqrt((k + 0.5) / n) * np.exp(1j * (k * GOLDEN_ANGLE + turn))
    step = rmax * math.sqrt(math.pi / n)
    z = z + jitter * step * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    return np.where(np.abs(z) > rmax, z * rmax / np.abs(z), z)


def at_psi(c, d, theta):
    """The point at pseudohyperbolic distance d from c in direction theta."""
    w = d * np.exp(1j * theta)
    return complex((c - w) / (1.0 - np.conj(c) * w))


def ring_lattice(rng, max_radius, pitch):
    """Origin plus rings one pitch apart in psi, each ring's points about one
    pitch apart, each ring turned by its own random angle (none when rng is
    None)."""
    pts = [0j]
    t = 0.0
    while True:
        t = checks.hyp_sum(t, pitch)
        if t > max_radius:
            break
        m = max(int(math.ceil(2 * math.pi * t / (pitch * (1 - t * t)))), 4)
        ang = 2 * np.pi * np.arange(m) / m + (0.0 if rng is None else angle(rng))
        pts.extend(t * np.exp(1j * ang))
    return np.asarray(pts)


def unit_values(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.abs(v)


def angle(rng):
    return rng.uniform(0, 2 * np.pi)


# ======================================================== clustered-schemes

SCHEME_CHECKS = [
    "clusters_equal_bfs",
    "domain_diameter_bracket",
    "maximal_balls",
    "bounded_density_bracket",
    "density_sums",
    "minimal_overlap_is_1",
    "admissibility_measures",
]


def tight_clusters(rng, n_clusters=24, rmax=0.8, spread=0.012):
    """Clusters of five points: four within `spread` (psi) of a centre and a
    repeat of the first, so every cluster holds a double point."""
    pts = []
    for c in sunflower(rng, n_clusters, rmax, 0.15):
        members = [at_psi(c, spread * rng.uniform(0.2, 1.0), angle(rng)) for _ in range(4)]
        pts.extend(members + [members[0]])
    return np.asarray(pts)


def rim_set(rng, pitch=0.85, max_radius=0.99, sector=0.5 * np.pi):
    """A ring lattice of pitch 0.85 out to |z| = 0.988 in one quarter of the
    disk, with a partner at psi 0.05 inside every other point: tight pairs
    near the circle.  The layout is fixed and turned by a seeded angle, its
    points moved by up to psi 0.005, so auto_epsilon sees the same
    bounded density (3) on every seed."""
    lat = ring_lattice(None, max_radius, pitch)
    lat = lat[np.angle(lat) % (2 * np.pi) < sector]
    turn = np.exp(1j * angle(rng))
    lat = [at_psi(z * turn, 0.005 * rng.uniform(), angle(rng)) for z in lat]
    partners = [at_psi(z, 0.05, np.angle(z) + rng.uniform(-0.1, 0.1)) for z in lat[::2]]
    return np.asarray(lat + partners)


def scheme_job(Z, eps, bd_radius):
    """One point set through every scheme and density layer; eps=None
    takes auto_epsilon(Z, 0.5)."""

    def run(rec):
        if eps is None:
            e = rec.call("schemes.auto_epsilon", di.auto_epsilon, Z, 0.5)
        else:
            e = eps
        s = rec.call("schemes.build_minimal_scheme", di.build_minimal_scheme, Z, e)
        m = rec.call("schemes.build_maximal_scheme", di.build_maximal_scheme, Z, e)
        adm = rec.call("schemes.check_admissibility", di.check_admissibility, s)
        ob = rec.call("schemes.overlap_bound", di.overlap_bound, s)
        bd = rec.call("schemes.bounded_density", di.bounded_density, Z, bd_radius)
        rep = rec.call("density.default_density_report", di.default_density_report, Z)
        adm_radius = min(max(adm.measured_diameter, 1e-3), 0.999)
        return {
            "Z": Z.array, "eps": e, "minimal": s, "maximal": m, "adm": adm,
            "overlap": ob, "density": rep,
            "bounded_density": [(bd_radius, bd), (adm_radius, adm.bounded_density_at_R)],
        }

    return run


def clustered_schemes(seed):
    rng = np.random.default_rng(seed)
    sets = [
        ("tight-clusters", PointSequence(tight_clusters(rng)), 0.03, 0.3),
        ("cloud", PointSequence(sunflower(rng, 300, 0.55, 0.05)), 0.05, 0.3),
        ("rim", PointSequence(rim_set(rng)), None, 0.5),
    ]
    jobs = [(name, scheme_job(Z, eps, R), SCHEME_CHECKS) for name, Z, eps, R in sets]
    small = PointSequence([0.0, 0.02, 0.02, 0.3j])
    warm = [("warm", scheme_job(small, None, 0.3), [])]
    return jobs, warm


# ================================================================ kernel-p2


def jet_clusters(rng, n_clusters=4, radius=0.9, d=0.3):
    """Clusters about n_clusters points of the circle |z| = 0.9: a triple
    point (jets of order 0..2) and a point at psi 0.3 from it, which is a
    two-ball domain at eps = 0.18.  Kept hyperbolically sparse: denser
    clusters of jets make the Gram matrix singular to working precision."""
    turn = angle(rng)
    pts = []
    for k in range(n_clusters):
        c = at_psi(radius * np.exp(1j * (turn + 2 * np.pi * k / n_clusters)), 0.05 * rng.uniform(), angle(rng))
        pts.extend([c, c, c, at_psi(c, d, angle(rng))])
    return np.asarray(pts)


def polar_grid(n_r, n_t, rmax):
    rr = (np.arange(n_r) + 0.5) * rmax / n_r
    return rr[:, None] * np.exp(2j * np.pi * np.arange(n_t)[None, :] / n_t)


def solve_job(Z, eps, values, grid=None, extra=None):
    """build_minimal_scheme, solve_p2 and target_norm(p=2); with a grid, the
    returned KernelRep and its first derivative evaluated on it."""

    def run(rec):
        s = rec.call("schemes.build_minimal_scheme", di.build_minimal_scheme, Z, eps)
        t = JetTargets.values_on_scheme(s, values)
        rep = rec.call("interpolation.solve_p2", di.solve_p2, s, t)
        tn = rec.call("interpolation.target_norm", di.target_norm, s, t, 2.0)
        out = {"scheme": s, "targets": t, "report": rep, "target_norm": tn, **(extra or {})}
        if grid is not None:
            out["grid"] = grid
            out["grid_values"] = [
                (k, rec.call("reps.KernelRep.derivative", rep.function.derivative, grid, k))
                for k in (0, 1)
            ]
        return out

    return run


def union_job(Z, eps, values):
    """solve_p2 on multi-ball clusters (its target norm takes the quadrature
    path on each of them), and quotient_norm_general at p = 2 on the domain
    with the most balls."""

    def run(rec):
        s = rec.call("schemes.build_minimal_scheme", di.build_minimal_scheme, Z, eps)
        t = JetTargets.values_on_scheme(s, values)
        rep = rec.call("interpolation.solve_p2", di.solve_p2, s, t)
        k = max(range(len(s.domains)), key=lambda i: len(s.domains[i].balls))
        q = rec.call(
            "interpolation.quotient_norm_general", di.quotient_norm_general,
            s.domains[k], t.per_cluster[k], 2.0,
        )
        return {"scheme": s, "targets": t, "report": rep, "target_norm": rep.target_norm,
                "union_norms": [(s.domains[k], t.per_cluster[k], q)]}

    return run


def disk_data(rng, n_disks):
    """Disks with values and first derivatives at two points on opposite
    sides of the centre."""
    disks = []
    for _ in range(n_disks):
        c = 0.6 * math.sqrt(rng.uniform()) * np.exp(1j * angle(rng))
        d = PseudoDisk(c, rng.uniform(0.3, 0.6))
        th = angle(rng)
        a, b = (at_psi(c, 0.5 * d.radius * rng.uniform(0.4, 1.0), th + k * np.pi) for k in range(2))
        v = unit_values(rng, 4)
        cons = [JetConstraint(a, 0, v[0]), JetConstraint(a, 1, v[1]),
                JetConstraint(b, 0, v[2]), JetConstraint(b, 1, v[3])]
        disks.append((d, cons))
    return disks


def quotient_job(disks):
    def run(rec):
        return {
            "quotients": [
                (d, cons, rec.call("interpolation.quotient_norm_p2", di.quotient_norm_p2, d, cons))
                for d, cons in disks
            ]
        }

    return run


def probe_job(Z, eps, trials, seed):
    def run(rec):
        s = rec.call("schemes.build_minimal_scheme", di.build_minimal_scheme, Z, eps)
        k = rec.call(
            "interpolation.interpolation_constant_probe", di.interpolation_constant_probe,
            s, trials, seed,
        )
        t = JetTargets.values_on_scheme(s, np.ones(len(Z)))
        return {"scheme": s, "targets": t, "probe": k}

    return run


def combination_job(rng, eps):
    """Data of a kernel combination g of 8 sections: values on a jittered
    ring lattice (pitch 0.8, out to 0.95) and first derivatives at 8 of its
    points."""
    nodes = [at_psi(z, 0.05 * rng.uniform(), angle(rng)) for z in ring_lattice(rng, 0.95, 0.8)]
    nodes += [nodes[i] for i in rng.choice(len(nodes), 8, replace=False)]
    g_points = 0.9 * np.sqrt(rng.uniform(size=8)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    g_coeffs = unit_values(rng, 8)
    terms = [(p, 0, c) for p, c in zip(g_points, g_coeffs)]
    orders, seen = [], {}
    for z in nodes:
        orders.append(seen.get(z, 0))
        seen[z] = orders[-1] + 1
    values = [complex(checks.kernel_combination(terms, z, o)) for z, o in zip(nodes, orders)]
    return solve_job(PointSequence(nodes), eps, values,
                     extra={"g_points": g_points, "g_coeffs": g_coeffs})


def kernel_p2(seed):
    rng = np.random.default_rng(seed)
    lattice = ring_lattice(rng, 0.97, 0.7)
    jets = jet_clusters(rng)
    small = ring_lattice(rng, 0.93, 0.7)
    z1 = at_psi(0j, 0.9 * rng.uniform(), angle(rng))
    w1 = complex(unit_values(rng, 1)[0])
    jobs = [
        ("lattice-solve",
         solve_job(PointSequence(lattice), 0.05, unit_values(rng, len(lattice)),
                   grid=polar_grid(48, 96, 0.97)),
         ["residuals", "target_norm_p2", "kernelrep_grid_values"]),
        ("jet-clusters", union_job(PointSequence(jets), 0.18, unit_values(rng, len(jets))),
         ["residuals", "target_norm_p2", "multi_ball_p2_bracket"]),
        ("disk-quotients", quotient_job(disk_data(rng, 6)), ["disk_quotient_p2"]),
        ("probe", probe_job(PointSequence(small), 0.05, 20, seed), ["probe_below_exact_constant"]),
        ("kernel-combination", combination_job(rng, 0.05),
         ["residuals", "norm_below_kernel_combination"]),
        ("single-point",
         solve_job(PointSequence([z1]), 0.1, [w1], extra={"point": z1, "value": w1}),
         ["residuals", "single_point_norm"]),
    ]
    wrng = np.random.default_rng(seed + 1)
    warm = [
        ("warm-solve", solve_job(PointSequence([0.1, 0.5j]), 0.1, [1.0, 1.0],
                                 grid=polar_grid(16, 16, 0.9)), []),
        ("warm-union", union_job(PointSequence([0.0, 0.0, 0.1]), 0.1, unit_values(wrng, 3)), []),
        ("warm-quotient", quotient_job(disk_data(wrng, 1)), []),
        ("warm-probe", probe_job(PointSequence([0.0, 0.5]), 0.1, 1, seed), []),
    ]
    return jobs, warm


# ================================================================ general-p

GENERAL_PS = (1.5, 2.0, 3.0)
JITTER = 0.005  # psi; larger moves change L-BFGS-B's iteration count
BASIS = 12
QUAD_GRID = (24, 96)


def general_job(domain, cons, with_kernel, basis=BASIS, grid=QUAD_GRID):
    """quotient_norm_general at p = 1.5, 2, 3 on one domain (by default 12
    monomials and a 24 x 96 quadrature); on one disk also quotient_norm_p2."""

    def run(rec):
        norms = {
            p: rec.call(
                "interpolation.quotient_norm_general", di.quotient_norm_general,
                domain, cons, p, basis_size=basis, grid=grid,
            )
            for p in GENERAL_PS
        }
        out = {"domain": domain, "cons": cons, "degree": basis, "norms": norms}
        if with_kernel:
            out["kernel_p2"] = rec.call(
                "interpolation.quotient_norm_p2", di.quotient_norm_p2, domain, cons
            )
        return out

    return run


def target_job(Z, eps, values, p):
    """target_norm at p != 2 on a scheme of singleton clusters (library
    defaults: 32 monomials, 64 x 256 quadrature per cluster)."""

    def run(rec):
        s = rec.call("schemes.build_minimal_scheme", di.build_minimal_scheme, Z, eps)
        t = JetTargets.values_on_scheme(s, values)
        val = rec.call("interpolation.target_norm", di.target_norm, s, t, p)
        return {"clusters": list(zip(s.domains, t.per_cluster)), "p": p, "degree": 32,
                "value": val}

    return run


def general_p(seed):
    """A fixed layout turned by a seeded angle, its points moved by up to
    0.005 in psi and its values turned by a seeded phase.  L-BFGS-B's
    iteration count depends on the data, and this keeps the work per seed
    nearly the same; rotations and a common phase do not change it."""
    rng = np.random.default_rng(seed)
    turn, phase = np.exp(1j * angle(rng)), np.exp(1j * angle(rng))

    def pt(z):
        return at_psi(complex(z) * turn, JITTER * rng.uniform(), angle(rng))

    def jets(items):
        return [JetConstraint(z, order, complex(v) * phase) for z, order, v in items]

    # one disk, three values
    c = 0.3
    d1 = PseudoDisk(pt(c), 0.5)
    cons1 = jets([(pt(at_psi(c, 0.1, 0.0)), 0, 1.0),
                  (pt(at_psi(c, 0.12, 2.1)), 0, 0.6 * np.exp(1j)),
                  (pt(at_psi(c, 0.08, 4.2)), 0, 0.8 * np.exp(-2j))])
    # one disk, values at two points and a first derivative at one
    c = 0.25j
    d2 = PseudoDisk(pt(c), 0.45)
    a, b = pt(at_psi(c, 0.1, 0.5)), pt(at_psi(c, 0.1, 3.5))
    cons2 = jets([(a, 0, 1.0), (a, 1, 0.5j), (b, 0, -0.7)])
    # a chain of three balls, a jet in the first and a value in the last
    c0 = 0.2
    c1 = at_psi(c0, 0.35, 1.0)
    c2 = at_psi(c1, 0.35, 1.5)
    c0, c1, c2v = pt(c0), pt(c1), pt(at_psi(c2, 0.1, 2.0))
    dom = Domain((PseudoDisk(c0, 0.3), PseudoDisk(c1, 0.3), PseudoDisk(pt(c2), 0.3)))
    cons3 = jets([(c0, 0, 1.0), (c0, 1, 0.5j), (c2v, 0, -0.8)])
    # three singleton clusters for target_norm
    pts = PointSequence([pt(0.4), pt(0.5 * np.exp(2.1j)), pt(0.55 * np.exp(4.2j))])
    values = [v * phase for v in (1.0, 0.7j, -0.5)]
    bracket = ["general_p_bracket", "normalised_norm_monotone_in_p"]
    jobs = [
        ("disk-values", general_job(d1, cons1, True), bracket + ["p2_matches_kernel"]),
        ("disk-jets", general_job(d2, cons2, True), bracket + ["p2_matches_kernel"]),
        ("ball-chain", general_job(dom, cons3, False), bracket),
        ("scheme-target-p3", target_job(pts, 0.05, values, 3.0), ["target_norm_bracket"]),
    ]
    tiny = [JetConstraint(0.05, 0, 1.0)]
    warm = [
        ("warm-general", general_job(PseudoDisk(0.0, 0.3), tiny, True), []),
        ("warm-target", target_job(PointSequence([0.0]), 0.05, [1.0], 3.0), []),
    ]
    return jobs, warm


# ================================================================ dbar-grid


def cauchy_job(n, kind, c):
    """cauchy_transform of g = c (kind "const") or g(w) = w on an n x n grid,
    and its dbar_residual against (1 - |z|^2) g."""
    spec = PolarGridSpec(n, n, 0.995)
    if kind == "const":
        gfun = lambda z: np.full(np.shape(z), c, dtype=complex)  # noqa: E731
    else:
        gfun = lambda z: np.asarray(z, dtype=complex)  # noqa: E731
    ffun = lambda z: gfun(z) * (1.0 - np.abs(z) ** 2)  # noqa: E731

    def run(rec):
        g = rec.call("grids.GridFunction.sample", GridFunction.sample, gfun, spec)
        u = rec.call("dbar.cauchy_transform", di.cauchy_transform, g)
        f = rec.call("grids.GridFunction.sample", GridFunction.sample, ffun, spec)
        r = rec.call("dbar.dbar_residual", di.dbar_residual, u, f)
        R = spec.max_radius
        return {
            "cauchy": [(kind, c, spec.nodes, R, u.values, R / n)],
            "residuals": [(r, float(np.abs(g.values).max()), R / n)],
            "samples": [(g.values, n, n, R, gfun), (f.values, n, n, R, ffun)],
        }

    return run


def weighted_job(rng, n_points, outer_grid=(24, 32)):
    """weighted_space_norm (p = q = 2, outer grid 24 x 32 by default) of a
    quadratic f with |Z| points, of a multiple of f, and of 1 with no
    points."""
    spec = PolarGridSpec(64, 128, 0.9)
    a, b = unit_values(rng, 2)
    Z = PointSequence(sunflower(rng, n_points, 0.8, 0.3))
    scale = complex(2.0 * unit_values(rng, 1)[0])
    empty = PointSequence([])

    def run(rec):
        sample = lambda fun: rec.call("grids.GridFunction.sample", GridFunction.sample, fun, spec)  # noqa: E731
        f = sample(lambda z: a + b * z ** 2)
        fs = sample(lambda z: scale * (a + b * z ** 2))
        one = sample(lambda z: np.ones_like(z))
        wsn = lambda g, pts: rec.call(  # noqa: E731
            "dbar.weighted_space_norm", di.weighted_space_norm, g, pts, 2.0, 2.0,
            outer_grid=outer_grid,
        )
        base = wsn(f, Z)
        scaled = wsn(fs, Z)
        unit = wsn(one, empty)
        return {"rmax": spec.max_radius, "unit_norm": unit, "homogeneity": (scale, base, scaled)}

    return run


def potential_job(rng, n_points):
    """green_potential for L = -1 and tau_smooth with and without points, at
    three centres with |z| <= 0.9."""
    zs = [at_psi(0j, 0.9 * math.sqrt(rng.uniform()), angle(rng)) for _ in range(3)]
    Z = PointSequence(sunflower(rng, n_points, 0.8, 0.3))
    minus_one = lambda w: -np.ones(np.shape(w))  # noqa: E731
    bare, crowded = TauSpec(PointSequence([]), 2.0, 0.5), TauSpec(Z, 2.0, 0.5)

    def run(rec):
        green = [(z, rec.call("dbar.green_potential", di.green_potential, minus_one, z)) for z in zs]
        tau = [
            (z, rec.call("dbar.tau_smooth", di.tau_smooth, bare, z),
             rec.call("dbar.tau_smooth", di.tau_smooth, crowded, z))
            for z in zs
        ]
        return {"green": green, "tau": tau}

    return run


def dbar_grid(seed):
    rng = np.random.default_rng(seed)
    c = complex(unit_values(rng, 1)[0] * rng.uniform(0.5, 2.0))
    jobs = [
        ("cauchy-w-200", cauchy_job(200, "w", None),
         ["cauchy_closed_forms", "dbar_residual_bound", "grid_samples"]),
        ("cauchy-const-400", cauchy_job(400, "const", c),
         ["cauchy_closed_forms", "dbar_residual_bound", "grid_samples"]),
        ("weighted-norm", weighted_job(rng, 50), ["weighted_norm_unit_and_homogeneous"]),
        ("potentials", potential_job(rng, 50), ["green_potential_constant_laplacian",
                                               "tau_smooth_submean"]),
    ]
    wrng = np.random.default_rng(seed + 1)
    warm = [
        ("warm-cauchy", cauchy_job(16, "w", None), []),
        ("warm-potentials", potential_job(wrng, 3), []),
        ("warm-weighted", weighted_job(wrng, 3, outer_grid=(4, 4)), []),
    ]
    return jobs, warm


WORKLOADS = {
    "clustered-schemes": clustered_schemes,
    "kernel-p2": kernel_p2,
    "general-p": general_p,
    "dbar-grid": dbar_grid,
}
