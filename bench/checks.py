"""Correctness checks on the library's outputs, computed apart from it.

Nothing here imports diskinterp.  Each check recomputes a quantity from its
definition or closed form (pseudohyperbolic distances, kernel derivatives,
monomial Gram matrices on a disk, BFS components), or tests a property the
method must have (a bracket, a monotonicity, a homogeneity).  No check
compares against stored output of the library.

Every ``check_*`` function takes one job's output and returns
``(ok, detail)``; ``detail`` says what was compared.
"""

from __future__ import annotations

import math

import numpy as np

# scipy is imported inside the functions that use it: worker set-up imports
# this module, and set-up time should count only the library's imports.

# --------------------------------------------------------------- geometry


def psi(a, b):
    """Pseudohyperbolic distance, broadcasting; exactly 0 for equal points."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.abs(a - b) / np.abs(1.0 - np.conj(b) * a)
    return np.where(a == b, 0.0, d)


def hyp_sum(s, t):
    return (s + t) / (1.0 + s * t)


def euclidean_image(center, radius):
    """Centre and radius of the Euclidean disk equal to the psi-ball."""
    c = complex(center)
    k = 1.0 - radius ** 2 * abs(c) ** 2
    return (1.0 - radius ** 2) * c / k, radius * (1.0 - abs(c) ** 2) / k


def bfs_components(points, eps):
    """Components of the graph joining points at psi < hyp_sum(eps, eps)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adj = csr_matrix(psi(points[:, None], points[None, :]) < hyp_sum(eps, eps))
    n, labels = connected_components(adj, directed=False)
    return {frozenset(np.flatnonzero(labels == k).tolist()) for k in range(n)}


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ------------------------------------------------------------ Bergman kernel


PI_LONG = np.longdouble("3.14159265358979323846264338327950288")


def kernel(z, w, m, n, center=0j, s=1.0, dtype=complex):
    """d_z^m d_wbar^n of the Bergman kernel s^2 / (pi (s^2 - u conj(v))^2)
    of the Euclidean disk |z - center| < s, with u = z - center and
    v = w - center.  Obtained from the unit-disk kernel by the scaling
    x = u / s, y = v / s, and Leibniz's rule applied to
    d_ybar^n (1 - x ybar)^-2 = (n + 1)! x^n (1 - x ybar)^-(n + 2).
    dtype=np.clongdouble evaluates in extended precision."""
    x = (np.asarray(z).astype(dtype) - dtype(center)) / s
    yb = np.conj((np.asarray(w).astype(dtype) - dtype(center)) / s)
    q = 1 - x * yb
    total = 0
    for j in range(min(m, n) + 1):
        c = math.comb(m, j) * math.perm(n, j) * math.factorial(n + 1 + m - j)
        total = total + c * x ** (n - j) * yb ** (m - j) / q ** (n + m + 2 - j)
    pi = PI_LONG if dtype is np.clongdouble else math.pi
    return total / (pi * s ** (2 + m + n))


def gram(points, orders, center=0j, s=1.0):
    n = len(points)
    G = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            G[i, j] = kernel(points[i], points[j], orders[i], orders[j], center, s)
    return G


def kernel_norm(points, orders, values, center=0j, s=1.0):
    """Minimum A^2 norm of the jet data on the disk |z - center| < s."""
    G = gram(points, orders, center, s)
    w = np.asarray(values, dtype=complex)
    return math.sqrt(max(np.real(np.vdot(w, np.linalg.solve(G, w))), 0.0))


def kernel_combination(terms, z, order):
    """sum coeff * d_z^order d_wbar^n K(z, point), terms (point, n, coeff)."""
    return sum(c * kernel(z, p, order, n) for p, n, c in terms)


# ------------------------------------------------ polynomial minimisers


def _jet_rows(points, orders, center, scale, degree):
    """Rows of the constraint matrix: the order-o derivative of
    ((z - center) / scale)^k at each point, k < degree."""
    k = np.arange(degree)
    C = np.zeros((len(points), degree), dtype=complex)
    for i, (z, o) in enumerate(zip(points, orders)):
        fall = np.array([math.perm(kk, o) if kk >= o else 0 for kk in k], dtype=float)
        C[i] = fall * ((z - center) / scale) ** np.maximum(k - o, 0) / scale ** o
    return C


def poly_p2_norm_on_disk(points, orders, values, center, radius, degree):
    """Norm of the minimum L^2(disk) polynomial of degree < `degree` meeting
    the jet data.  The monomials ((z - center) / radius)^k are orthogonal on
    the disk with squared norm pi radius^2 / (k + 1), so it is closed form."""
    C = _jet_rows(points, orders, center, radius, degree)
    winv = (np.arange(degree) + 1) / (math.pi * radius ** 2)
    w = np.asarray(values, dtype=complex)
    lam = np.linalg.solve((C * winv) @ C.conj().T, w)
    return math.sqrt(max(np.real(np.vdot(w, lam)), 0.0))


def union_quadrature(balls, n_radial=128, n_angular=512):
    """Midpoint polar nodes and weights over a union of psi-balls; a node is
    kept by the first ball containing it, so overlaps count once."""
    nodes, weights = [], []
    for k, (c, r) in enumerate(balls):
        ec, es = euclidean_image(c, r)
        rr = (np.arange(n_radial) + 0.5) * es / n_radial
        tt = 2.0 * np.pi * (np.arange(n_angular) + 0.5) / n_angular
        z = (ec + rr[:, None] * np.exp(1j * tt[None, :])).ravel()
        wt = np.repeat(rr * (es / n_radial) * (2.0 * np.pi / n_angular), n_angular)
        keep = np.ones(z.shape, dtype=bool)
        for c2, r2 in balls[:k]:
            keep &= psi(z, c2) >= r2
        nodes.append(z[keep])
        weights.append(wt[keep])
    return np.concatenate(nodes), np.concatenate(weights)


def poly_p2_on_union(points, orders, values, balls, degree, nodes, weights):
    """Minimum L^2(union) polynomial by least squares on the quadrature, in
    the basis ((z - c) / s)^k about the centre of the balls' images."""
    import scipy.linalg

    images = [euclidean_image(c, r) for c, r in balls]
    center = np.mean([c for c, _ in images])
    scale = max(abs(c - center) + s for c, s in images)
    C = _jet_rows(points, orders, center, scale, degree)
    V = np.sqrt(weights)[:, None] * ((nodes - center) / scale)[:, None] ** np.arange(degree)
    # minimise |V a| subject to C a = w: a = a0 + N t
    w = np.asarray(values, dtype=complex)
    a0 = np.linalg.lstsq(C, w, rcond=None)[0]
    N = scipy.linalg.null_space(C)
    t = np.linalg.lstsq(V @ N, -(V @ a0), rcond=None)[0]
    a = a0 + N @ t
    return a, center, scale


def poly_eval(a, x):
    out = np.zeros_like(x)
    for c in a[::-1]:
        out = out * x + c
    return out


def lp_norm(vals, weights, p):
    return float((weights * np.abs(vals) ** p).sum()) ** (1.0 / p)


def submean_lower_bound(points, orders, values, balls, p):
    """Lower bound for any L^p(union) norm meeting the value constraints.
    |g|^p is subharmonic, so on a disk of radius rho about z inside the union
    its integral is at least pi rho^2 |g(z)|^p.  The larger of: the best
    single such disk, and a sum over disks kept pairwise disjoint."""
    vals = [(complex(z), complex(v)) for z, o, v in zip(points, orders, values) if o == 0]
    room = []
    for z, _ in vals:
        rho = 0.0
        for c, r in balls:
            ec, es = euclidean_image(c, r)
            rho = max(rho, es - abs(z - ec))
        room.append(rho)
    single = max(math.pi * rho ** 2 * abs(v) ** p for rho, (_, v) in zip(room, vals))
    disjoint = 0.0
    for i, (z, v) in enumerate(vals):
        rho = min([room[i]] + [0.5 * abs(z - z2) for j, (z2, _) in enumerate(vals) if j != i])
        disjoint += math.pi * rho ** 2 * abs(v) ** p
    return max(single, disjoint) ** (1.0 / p)


# ================================================== clustered-schemes checks


def check_clusters_bfs(out):
    """Minimal and maximal clusters equal the BFS components."""
    want = bfs_components(out["Z"], out["eps"])
    got = [{frozenset(c.members) for c in s.clusters} for s in (out["minimal"], out["maximal"])]
    ok = all(g == want for g in got)
    return ok, f"{len(want)} components, largest {max(map(len, want))}"


def check_domain_diameters(out):
    """Each minimal domain is the eps-balls about its cluster's distinct
    points, and its diameter lies between the largest centre distance and
    hyp_sum(max psi(c_i, c_j), hyp_sum(eps, eps))."""
    s, eps, Z = out["minimal"], out["eps"], out["Z"]
    tol = 1e-12
    ok = True
    lo_max = hi_max = 0.0
    for cl, dom in zip(s.clusters, s.domains):
        diam = dom.diameter()
        centers = dom.centers
        ok &= set(centers.tolist()) == set(Z[list(cl.members)].tolist())
        ok &= all(b.radius == eps for b in dom.balls)
        lo = float(psi(centers[:, None], centers[None, :]).max())
        hi = hyp_sum(lo, hyp_sum(eps, eps))
        ok &= lo - tol <= diam <= hi + tol
        lo_max, hi_max = max(lo_max, lo), max(hi_max, hi)
    for diam in (s.diameter, out["adm"].measured_diameter):
        ok &= lo_max - tol <= diam <= hi_max + tol
    return bool(ok), f"scheme diameter {s.diameter:.6f} in [{lo_max:.6f}, {hi_max:.6f}]"


def check_maximal_balls(out):
    """Maximal domain: one ball about a member minimising the largest psi to
    the others (to rounding), radius that minimax plus eps, holding every
    member."""
    m, eps, Z = out["maximal"], out["eps"], out["Z"]
    ok = True
    for cl, dom in zip(m.clusters, m.domains):
        pts = Z[list(cl.members)]
        worst = psi(pts[:, None], pts[None, :]).max(axis=1)
        b = dom.balls[0]
        ok &= len(dom.balls) == 1 and b.center in pts
        ok &= _rel(b.radius, worst.min() + eps) < 1e-12
        ok &= bool((psi(pts, b.center) < b.radius).all())
    return bool(ok), f"{len(m.domains)} balls"


def check_bounded_density(out):
    """brute-force max count about the points of Z <= bounded_density <= |Z|,
    at the job's radius and at the admissibility report's radius."""
    Z = out["Z"]
    d = psi(Z[:, None], Z[None, :])
    ok = True
    detail = []
    for R, got in out["bounded_density"]:
        brute = int((d < R).sum(axis=1).max())
        ok &= brute <= got <= len(Z)
        detail.append(f"R={R:.4f}: {brute} <= {got} <= {len(Z)}")
    return bool(ok), "; ".join(detail)


def check_density_report(out):
    """D(Z, r) and k_hat(Z, r) / log(1/(1-r^2)) recomputed from their sums
    over the Moebius images about 0 and each distinct point of Z."""
    Z, rep = out["Z"], out["density"]
    centers = [0j]
    for z in Z.tolist():
        if z not in centers:
            centers.append(z)
    ok = list(rep.mobius_centers) == centers
    worst = 0.0
    for j, a in enumerate(centers):
        W = (a - Z) / (1.0 - np.conj(a) * Z)
        aw = np.abs(W)
        m = aw ** 2
        for i, r in enumerate(rep.radii):
            L = math.log(1.0 / (1.0 - r * r))
            d = 0.5 * (1.0 - m[aw < r]).sum() / L
            s = 0.5 * r * r * ((1.0 - m) ** 2 / (1.0 - m * r * r)).sum() / L
            worst = max(worst, _rel(d, rep.d_values[i, j]), _rel(s, rep.s_values[i, j]))
    ok &= worst < 1e-9
    ok &= rep.d_plus_estimate == rep.d_values[-1].max()
    ok &= rep.s_plus_estimate == rep.s_values[-1].max()
    return bool(ok), f"{len(centers)} centres x {len(rep.radii)} radii, worst rel {worst:.1e}"


def check_overlap(out):
    """The minimal domains are components of the eps-union, hence disjoint:
    no sample lies in two of them, and each ball centre lies in one."""
    return out["overlap"] == 1, f"overlap_bound {out['overlap']}"


def check_admissibility_measures(out):
    """Measured cluster bound and separation recomputed from the BFS
    components."""
    Z, adm = out["Z"], out["adm"]
    comps = bfs_components(Z, out["eps"])
    label = np.empty(len(Z), dtype=int)
    for k, c in enumerate(comps):
        label[list(c)] = k
    diff = label[:, None] != label[None, :]
    sep = float(psi(Z[:, None], Z[None, :])[diff].min()) if len(comps) > 1 else 0.0
    ok = adm.measured_cluster_bound == max(map(len, comps))
    ok &= _rel(adm.measured_separation, sep) < 1e-12 or adm.measured_separation == sep
    return bool(ok), f"B={adm.measured_cluster_bound}, delta={adm.measured_separation:.6f}"


# ========================================================= kernel-p2 checks


def check_residuals(out):
    """Interpolation residuals of the returned kernel combination, evaluated
    in extended precision with the kernel formula above, are below
    1e-9 + 4 eps max_i sum_j |c_j K_ij|.  The second term is what rounding
    the coefficients c_j to float64 alone can leave: on the 86-point lattice
    the terms reach 3.5e6, so no float64 coefficient vector is sure to meet
    1e-9 there."""
    f = out["report"].function
    worst = scale = 0.0
    for c in out["targets"].all_constraints():
        terms = [
            np.clongdouble(coeff) * kernel(c.point, p, c.order, n, f.center, f.scale, np.clongdouble)
            for p, n, coeff in f.terms
        ]
        worst = max(worst, float(abs(sum(terms) - np.clongdouble(c.value))))
        scale = max(scale, float(sum(abs(t) for t in terms)))
    limit = 1e-9 + 4 * np.finfo(float).eps * scale
    return worst < limit, f"max residual {worst:.2e} < {limit:.2e} over {len(f.terms)} terms"


def check_single_point(out):
    """One constraint f(z) = w: the minimum norm is |w| sqrt(pi) (1 - |z|^2)."""
    z, w = out["point"], out["value"]
    want = abs(w) * math.sqrt(math.pi) * (1.0 - abs(z) ** 2)
    got = out["report"].norm_value
    return _rel(got, want) < 1e-12, f"{got:.12g} vs {want:.12g}"


def check_below_combination(out):
    """The minimum norm is at most the norm of a kernel combination g that
    meets the same data (the data are g's values and derivatives)."""
    pts, coeffs = out["g_points"], out["g_coeffs"]
    G = kernel(pts[:, None], pts[None, :], 0, 0)
    g_norm = math.sqrt(np.real(np.vdot(coeffs, G @ coeffs)))
    got = out["report"].norm_value
    return got <= g_norm * (1.0 + 1e-9), f"{got:.6g} <= ||g|| = {g_norm:.6g}"


def _domain_balls(domain):
    """(centre, radius) of each ball of a Domain, or of a single PseudoDisk."""
    return [(b.center, b.radius) for b in getattr(domain, "balls", [domain])]


def _jets(cons):
    return [c.point for c in cons], [c.order for c in cons], [c.value for c in cons]


def _bracket_union(balls, cons, degree):
    """(lower, upper) for the p = 2 polynomial quotient norm on a union of
    psi-balls.  Lower: the kernel norm, on one ball, of the data inside it
    (a smaller domain and fewer constraints can only lower the norm).
    Upper: the exact polynomial minimiser on an enclosing Euclidean disk (a
    larger domain can only raise it).  One ball: both are the kernel norm."""
    pts, ords, vals = _jets(cons)
    if len(balls) == 1:
        q = kernel_norm(pts, ords, vals, *euclidean_image(*balls[0]))
        return q, q
    lo = 0.0
    for c, r in balls:
        inside = [i for i, z in enumerate(pts) if psi(z, c) < r]
        if inside:
            sub = [[x[i] for i in inside] for x in (pts, ords, vals)]
            lo = max(lo, kernel_norm(*sub, *euclidean_image(c, r)))
    images = [euclidean_image(c, r) for c, r in balls]
    center = np.mean([c for c, _ in images])
    radius = max(abs(c - center) + s for c, s in images)
    return lo, poly_p2_norm_on_disk(pts, ords, vals, center, radius, degree)


def check_target_norm_p2(out):
    """Target norm at p = 2 against sqrt(sum_k q_k^2): q_k is the kernel norm
    w_k* G_k^-1 w_k on a one-ball domain, bracketed on a multi-ball one."""
    lo2 = hi2 = 0.0
    for dom, cons in zip(out["scheme"].domains, out["targets"].per_cluster):
        lo, hi = _bracket_union(_domain_balls(dom), cons, max(32, len(cons)))
        lo2, hi2 = lo2 + lo * lo, hi2 + hi * hi
    lo, hi, got = math.sqrt(lo2), math.sqrt(hi2), out["target_norm"]
    return lo * (1 - 1e-9) <= got <= hi * (1 + 1e-9), f"{lo:.10g} <= {got:.10g} <= {hi:.10g}"


def check_probe_bound(out):
    """Probe value <= sqrt(lambda_max(G^-1, B)), B the block diagonal of the
    local inverse Gram matrices, by scipy.linalg.eigh."""
    import scipy.linalg

    blocks = []
    for dom, cons in zip(out["scheme"].domains, out["targets"].per_cluster):
        (c, r), = _domain_balls(dom)
        pts, ords, _ = _jets(cons)
        blocks.append((pts, ords, euclidean_image(c, r)))
    Ginv = scipy.linalg.inv(gram([z for b in blocks for z in b[0]], [o for b in blocks for o in b[1]]))
    B = scipy.linalg.block_diag(*(scipy.linalg.inv(gram(*b[:2], *b[2])) for b in blocks))
    lam = scipy.linalg.eigh(Ginv, B, eigvals_only=True)[-1]
    exact = math.sqrt(lam)
    got = out["probe"]
    return 0.0 < got <= exact * (1.0 + 1e-9), f"probe {got:.6g} <= exact {exact:.6g}"


def check_disk_quotients(out):
    """quotient_norm_p2 equals the kernel norm on the disk's Euclidean image,
    to 1e-12 cond(G) relative: either evaluation of w* G^-1 w carries a
    relative rounding error of order cond(G) eps."""
    worst = 0.0
    for disk, cons, got in out["quotients"]:
        pts, ords, vals = _jets(cons)
        image = euclidean_image(disk.center, disk.radius)
        want = kernel_norm(pts, ords, vals, *image)
        tol = max(1e-10, 1e-12 * np.linalg.cond(gram(pts, ords, *image)))
        worst = max(worst, _rel(got, want) / tol)
    return worst < 1.0, f"{len(out['quotients'])} disks, worst error / tolerance {worst:.1e}"


def check_grid_evaluation(out):
    """KernelRep.derivative on the polar grid equals the kernel sum."""
    f = out["report"].function
    worst = 0.0
    for order, vals in out["grid_values"]:
        want = sum(
            c * kernel(out["grid"], p, order, n, f.center, f.scale) for p, n, c in f.terms
        )
        worst = max(worst, float(np.abs(vals - want).max() / np.abs(want).max()))
    return worst < 1e-10, f"worst rel {worst:.1e} on {out['grid'].size} nodes"


def check_union_bracket(out):
    """quotient_norm_general at p = 2 on a multi-ball domain lies between the
    one-ball kernel bound and the enclosing-disk bound."""
    ok = True
    detail = []
    for dom, cons, got in out["union_norms"]:
        lo, hi = _bracket_union(_domain_balls(dom), cons, max(32, len(cons)))
        ok &= lo * (1.0 - 1e-9) <= got <= hi * (1.0 + 1e-9)
        detail.append(f"{lo:.4g} <= {got:.4g} <= {hi:.4g}")
    return bool(ok), "; ".join(detail)


# ========================================================= general-p checks

# Relative slack on the upper bound of the general-p bracket: the library
# and this module integrate the same polynomial by different rules over a
# domain whose edge cuts through grid cells.
UPPER_SLACK = 1e-3


def general_bracket(domain, cons, p, degree):
    """(lower, upper) for the general-p quotient norm on a union of balls:
    the subharmonic-mean bound, and the L^p norm of the p = 2 polynomial
    minimiser; both on this module's quadrature."""
    balls = _domain_balls(domain)
    pts, ords, vals = _jets(cons)
    nodes, weights = union_quadrature(balls)
    a, center, scale = poly_p2_on_union(pts, ords, vals, balls, degree, nodes, weights)
    upper = lp_norm(poly_eval(a, (nodes - center) / scale), weights, p)
    return submean_lower_bound(pts, ords, vals, balls, p), upper


def check_general_bracket(out):
    """subharmonic-mean bound <= quotient_norm_general <= ||g_2||_p at every
    p of the job."""
    ok = True
    detail = []
    for p, got in sorted(out["norms"].items()):
        lo, hi = general_bracket(out["domain"], out["cons"], p, out["degree"])
        ok &= lo <= got <= hi * (1.0 + UPPER_SLACK)
        detail.append(f"p={p}: {lo:.4g} <= {got:.6g} <= {hi:.6g}")
    return bool(ok), "; ".join(detail)


def check_target_bracket(out):
    """target_norm at p != 2 lies in the l^p sum of the clusters' brackets."""
    p = out["p"]
    lo = hi = 0.0
    for dom, cons in out["clusters"]:
        l, h = general_bracket(dom, cons, p, out["degree"])
        lo, hi = lo + l ** p, hi + h ** p
    lo, hi, got = lo ** (1 / p), hi ** (1 / p), out["value"]
    return lo <= got <= hi * (1.0 + UPPER_SLACK), f"{lo:.4g} <= {got:.6g} <= {hi:.6g}"


def check_p2_matches_kernel(out):
    """At p = 2 on one disk, quotient_norm_general is within 1e-6 of
    quotient_norm_p2."""
    a, b = out["norms"][2.0], out["kernel_p2"]
    return _rel(a, b) < 1e-6, f"{a:.10g} vs {b:.10g}"


def check_monotone_in_p(out):
    """Area-normalised norms q_p / area^(1/p) do not decrease with p."""
    balls = _domain_balls(out["domain"])
    if len(balls) == 1:
        area = math.pi * euclidean_image(*balls[0])[1] ** 2
    else:
        area = float(union_quadrature(balls)[1].sum())
    ps = sorted(out["norms"])
    normed = [out["norms"][p] / area ** (1.0 / p) for p in ps]
    ok = all(a <= b * (1.0 + 1e-9) for a, b in zip(normed, normed[1:]))
    return ok, ", ".join(f"{v:.6g}" for v in normed)


# ========================================================== dbar-grid checks


def check_cauchy(out):
    """u = c conj(z) for g = c (to rounding), and u = |z|^2 - R^2 for
    g(w) = w (to the grid bound 3 dr^2), at every node."""
    ok = True
    detail = []
    for kind, c, nodes, R, u, dr in out["cauchy"]:
        if kind == "const":
            err = float(np.abs(u - c * np.conj(nodes)).max())
            bound = 1e-10 * abs(c)
        else:
            err = float(np.abs(u - (np.abs(nodes) ** 2 - R * R)).max())
            bound = 3.0 * dr * dr
        ok &= err <= bound
        detail.append(f"{kind} {nodes.shape[0]}: {err:.1e} <= {bound:.1e}")
    return bool(ok), "; ".join(detail)


def check_dbar_residual(out):
    """dbar_residual of the Cauchy transform against (1 - |z|^2) g is within
    the grid bound 5 dr^2 max|g| of centred differences."""
    ok = True
    for resid, gmax, dr in out["residuals"]:
        ok &= 0.0 <= resid <= 5.0 * dr * dr * gmax
    return bool(ok), ", ".join(f"{r:.2e} <= {5 * dr * dr * g:.2e}" for r, g, dr in out["residuals"])


def check_samples(out):
    """GridFunction.sample holds fun at the nodes r_i e^{i t_j}."""
    worst = 0.0
    for spec_vals, n_r, n_t, R, fun in out["samples"]:
        rr = (np.arange(n_r) + 0.5) * R / n_r
        tt = 2.0 * np.pi * np.arange(n_t) / n_t
        nodes = rr[:, None] * np.exp(1j * tt[None, :])
        worst = max(worst, float(np.abs(spec_vals - fun(nodes)).max()))
    return worst < 1e-14, f"max deviation {worst:.1e}"


def check_weighted_norm(out):
    """weighted_space_norm(1, no points, p=2, alpha=0) = sqrt(pi R^2), and
    the norm is homogeneous of degree 1 in f."""
    R = out["rmax"]
    ok = _rel(out["unit_norm"], math.sqrt(math.pi * R * R)) < 1e-12
    scale, base, scaled = out["homogeneity"]
    ok &= _rel(scaled, abs(scale) * base) < 1e-12
    return bool(ok), f"unit {out['unit_norm']:.12g}, homogeneity rel {_rel(scaled, abs(scale) * base):.1e}"


def check_green(out):
    """For L = -1 the potential is <= 2.0 and within 5e-6 of the closed form
    2 - log(1 / (1 - |z|^2))."""
    ok = True
    for z, u in out["green"]:
        exact = 2.0 - math.log(1.0 / (1.0 - abs(z) ** 2))
        ok &= u <= 2.0 + 1e-6 and abs(u - exact) <= 5e-6
    return bool(ok), ", ".join(f"{u:.6f}" for _, u in out["green"])


def check_tau_smooth(out):
    """With no points tau = log(1/(1-|z|^2)) is subharmonic, so its
    smoothing against the positive log kernel is >= tau(z); the smoothing
    with points is finite."""
    ok = True
    for z, val, with_points in out["tau"]:
        ok &= val >= math.log(1.0 / (1.0 - abs(z) ** 2)) and math.isfinite(with_points)
    return bool(ok), f"{len(out['tau'])} centres"


CHECKS = {
    "clusters_equal_bfs": check_clusters_bfs,
    "domain_diameter_bracket": check_domain_diameters,
    "maximal_balls": check_maximal_balls,
    "bounded_density_bracket": check_bounded_density,
    "density_sums": check_density_report,
    "minimal_overlap_is_1": check_overlap,
    "admissibility_measures": check_admissibility_measures,
    "residuals": check_residuals,
    "single_point_norm": check_single_point,
    "norm_below_kernel_combination": check_below_combination,
    "target_norm_p2": check_target_norm_p2,
    "probe_below_exact_constant": check_probe_bound,
    "disk_quotient_p2": check_disk_quotients,
    "kernelrep_grid_values": check_grid_evaluation,
    "multi_ball_p2_bracket": check_union_bracket,
    "general_p_bracket": check_general_bracket,
    "target_norm_bracket": check_target_bracket,
    "p2_matches_kernel": check_p2_matches_kernel,
    "normalised_norm_monotone_in_p": check_monotone_in_p,
    "cauchy_closed_forms": check_cauchy,
    "dbar_residual_bound": check_dbar_residual,
    "grid_samples": check_samples,
    "weighted_norm_unit_and_homogeneous": check_weighted_norm,
    "green_potential_constant_laplacian": check_green,
    "tau_smooth_submean": check_tau_smooth,
}
