"""Batch command-line front end.

One command per invocation; JSON in, JSON report out.  Identical inputs
and seed produce byte-identical reports.  Exit codes: 0 success, 2 parse
error, 3 precondition violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .density import default_density_report
from .dbar import cauchy_transform, dbar_residual
from .errors import (
    DiameterOverflow,
    DuplicatePoint,
    EmptyGrid,
    GridTooCoarse,
    InfeasibleConstraints,
    MalformedJet,
    NoValidEpsilon,
    NonConvergence,
    PairTooFar,
    PointOutsideDisk,
    PositiveLaplacian,
    QuadratureDivergence,
    SingularGram,
    StencilOutOfDomain,
)
from .grids import GridFunction, PolarGridSpec
from .interpolation import (
    JetConstraint,
    JetTargets,
    interpolation_constant_probe,
    o_interp_weight,
    quotient_norm_general,
    quotient_norm_p2,
    solve_p2,
    target_norm,
)
from .geometry import PseudoDisk
from .schemes import (
    PointSequence,
    auto_epsilon,
    build_minimal_scheme,
    check_admissibility,
    overlap_bound,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

_PRECONDITION_ERRORS = (
    DiameterOverflow,
    NoValidEpsilon,
    EmptyGrid,
    PairTooFar,
    DuplicatePoint,
    GridTooCoarse,
    StencilOutOfDomain,
    InfeasibleConstraints,
    ValueError,
)
_NUMERICAL_ERRORS = (
    SingularGram,
    NonConvergence,
    QuadratureDivergence,
    PositiveLaplacian,
)


@dataclass
class JobConfig:
    command: str
    input_path: str
    output_path: str | None = None
    p: float = 2.0
    alpha: float = 0.0
    epsilon: float | None = None
    auto_eps: bool = False
    r0: float = 0.5
    radii: tuple[float, ...] = (0.9, 0.95, 0.99)
    grid: tuple[int, int] = (200, 200)
    seed: int = 0
    trials: int = 20


def _c(value) -> complex:
    """[re, im] pair (or bare real) to complex."""
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise MalformedJet(f"expected [re, im], got {value!r}")


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def parse_sequence(doc: dict):
    """Points (with multiplicity by repetition) and optional jet triples
    from a JSON-shaped document."""
    if "points" not in doc:
        raise MalformedJet("document must contain a 'points' list")
    pts = []
    for i, entry in enumerate(doc["points"]):
        try:
            pts.append(_c(entry))
        except PointOutsideDisk:
            raise
        except Exception as exc:
            raise MalformedJet(f"bad point at index {i}: {entry!r}") from exc
    try:
        Z = PointSequence(pts)
    except PointOutsideDisk as exc:
        for i, p in enumerate(pts):
            if abs(p) >= 1.0 - 1e-12:
                raise PointOutsideDisk(f"point index {i}: {exc}") from exc
        raise
    jets = None
    if "jets" in doc:
        jets = []
        for j in doc["jets"]:
            try:
                idx = int(j["point_index"])
                order = int(j.get("order", 0))
                value = _c(j["value"])
            except Exception as exc:
                raise MalformedJet(f"bad jet entry {j!r}") from exc
            if not 0 <= idx < len(Z):
                raise MalformedJet(f"jet point_index {idx} out of range")
            jets.append((idx, order, value))
    return Z, jets


def _scheme_dict(s) -> dict:
    return {
        "clusters": [list(c.members) for c in s.clusters],
        "domains": [
            {"balls": [{"center": _pair(b.center), "radius": b.radius} for b in d.balls]}
            for d in s.domains
        ],
        "diameter": s.diameter,
        "inner_radius": s.inner_radius,
        "separation": s.separation,
        "cluster_bound": s.cluster_bound,
    }


def _provenance(cfg: JobConfig) -> dict:
    return {
        "tool": "diskinterp",
        "version": __version__,
        "command": cfg.command,
        "p": cfg.p,
        "alpha": cfg.alpha,
        "seed": cfg.seed,
        "grid": list(cfg.grid),
    }


def _build_scheme(cfg: JobConfig, Z: PointSequence):
    eps = cfg.epsilon
    if cfg.auto_eps or eps is None:
        eps = auto_epsilon(Z, cfg.r0)
    return build_minimal_scheme(Z, eps), eps


def _targets_from_doc(scheme, Z, jets, doc) -> JetTargets:
    if jets:
        per_cluster = [[] for _ in scheme.clusters]
        owner = {}
        for k, c in enumerate(scheme.clusters):
            for i in c.members:
                owner[i] = k
        for idx, order, value in jets:
            per_cluster[owner[idx]].append(JetConstraint(Z[idx], order, value))
        return JetTargets(per_cluster)
    if "values" in doc:
        return JetTargets.values_on_scheme(scheme, [_c(v) for v in doc["values"]])
    raise MalformedJet("interpolation needs 'jets' or 'values' in the input")


def _cmd_scheme(cfg: JobConfig, doc: dict) -> dict:
    Z, _ = parse_sequence(doc)
    scheme, eps = _build_scheme(cfg, Z)
    report = check_admissibility(scheme)
    return {
        "epsilon": eps,
        "scheme": _scheme_dict(scheme),
        "n_clusters": len(scheme.clusters),
        "overlap_bound": overlap_bound(scheme),
        "admissibility": {
            "p1_ok": report.p1_ok,
            "p2_ok": report.p2_ok,
            "p3_ok": report.p3_ok,
            "p4_ok": report.p4_ok,
            "measured_diameter": report.measured_diameter,
            "measured_inner_radius": report.measured_inner_radius,
            "measured_separation": report.measured_separation,
            "measured_cluster_bound": report.measured_cluster_bound,
            "bounded_density_at_R": report.bounded_density_at_R,
        },
    }


def _cmd_density(cfg: JobConfig, doc: dict) -> dict:
    Z, _ = parse_sequence(doc)
    rep = default_density_report(Z, cfg.radii)
    return {
        "radii": list(rep.radii),
        "centers": [_pair(c) for c in rep.mobius_centers],
        "table": [
            {"r": r, "center": _pair(a), "d": dv, "s": sv}
            for r, a, dv, sv in rep.rows()
        ],
        "d_plus_estimate": rep.d_plus_estimate,
        "s_plus_estimate": rep.s_plus_estimate,
    }


def _cmd_interpolate(cfg: JobConfig, doc: dict) -> dict:
    if cfg.p < 1.0:
        raise ValueError("solver commands require p >= 1")
    Z, jets = parse_sequence(doc)
    scheme, eps = _build_scheme(cfg, Z)
    targets = _targets_from_doc(scheme, Z, jets, doc)
    report = solve_p2(scheme, targets)
    out = {
        "epsilon": eps,
        "norm_value": report.norm_value,
        "target_norm_p2": report.target_norm,
        "max_residual": max((abs(r) for r in report.residuals), default=0.0),
        "function": report.function.to_dict(),
    }
    if cfg.p != 2.0:
        out["target_norm_p"] = target_norm(scheme, targets, cfg.p)
    return out


def _cmd_quotient(cfg: JobConfig, doc: dict) -> dict:
    if cfg.p < 1.0:
        raise ValueError("solver commands require p >= 1")
    Z, jets = parse_sequence(doc)
    if "domain" not in doc:
        raise MalformedJet("quotient needs a 'domain' {center, radius} entry")
    dom = PseudoDisk(_c(doc["domain"]["center"]), float(doc["domain"]["radius"]))
    if jets:
        cons = [JetConstraint(Z[i], order, v) for i, order, v in jets]
    elif "values" in doc:
        cons = [JetConstraint(z, 0, _c(v)) for z, v in zip(Z, doc["values"])]
    else:
        raise MalformedJet("quotient needs 'jets' or 'values'")
    out = {"domain": {"center": _pair(dom.center), "radius": dom.radius}}
    if cfg.p == 2.0:
        out["quotient_norm"] = quotient_norm_p2(dom, cons)
        out["method"] = "kernel-exact"
    else:
        out["quotient_norm"] = quotient_norm_general(dom, cons, cfg.p)
        out["method"] = "convex-discretized"
    return out


def _cmd_dbar_check(cfg: JobConfig, doc: dict) -> dict:
    g0 = _c(doc.get("g_constant", [1.0, 0.0]))
    spec = PolarGridSpec(cfg.grid[0], cfg.grid[1])
    g = GridFunction(spec, np.full((spec.n_radial, spec.n_angular), g0))
    u = cauchy_transform(g)
    f = GridFunction(spec, g.values * (1.0 - np.abs(spec.nodes) ** 2))
    exact = g0 * np.conj(spec.nodes)
    return {
        "g_constant": _pair(g0),
        "max_error_vs_zbar": float(np.abs(u.values - exact).max()),
        "dbar_residual": dbar_residual(u, f),
        "grid": [spec.n_radial, spec.n_angular],
    }


def _cmd_o_weight(cfg: JobConfig, doc: dict) -> dict:
    Z, _ = parse_sequence(doc)
    if "coefficients" not in doc:
        raise MalformedJet("o-weight needs a 'coefficients' list")
    coeffs = [_c(v) for v in doc["coefficients"]]
    if len(coeffs) != len(Z):
        raise MalformedJet("one coefficient per point required")
    return {
        "o_interp_weight": o_interp_weight(Z, coeffs, cfg.p, cfg.alpha),
    }


def _cmd_probe(cfg: JobConfig, doc: dict) -> dict:
    Z, _ = parse_sequence(doc)
    scheme, eps = _build_scheme(cfg, Z)
    K = interpolation_constant_probe(scheme, cfg.trials, cfg.seed)
    return {
        "epsilon": eps,
        "trials": cfg.trials,
        "interpolation_constant": K,
    }


_COMMANDS = {
    "scheme": _cmd_scheme,
    "density": _cmd_density,
    "interpolate": _cmd_interpolate,
    "quotient": _cmd_quotient,
    "dbar-check": _cmd_dbar_check,
    "o-weight": _cmd_o_weight,
    "probe": _cmd_probe,
}


def run(cfg: JobConfig) -> int:
    """Dispatch a job; write the report; return the process exit status."""
    try:
        with open(cfg.input_path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        body = _COMMANDS[cfg.command](cfg, doc)
    except (PointOutsideDisk, MalformedJet) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _PRECONDITION_ERRORS as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _NUMERICAL_ERRORS as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report = {"provenance": _provenance(cfg), "inputs": doc, "results": body}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except Exception as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 200x200: {text}") from exc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diskinterp",
        description="Interpolation schemes, densities and dbar checks on the unit disk",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("input", help="input JSON document")
        sp.add_argument("--out", default=None, help="report path (default stdout)")
        sp.add_argument("--p", type=float, default=2.0)
        sp.add_argument("--alpha", type=float, default=0.0)
        group = sp.add_mutually_exclusive_group()
        group.add_argument("--epsilon", type=float, default=None)
        group.add_argument(
            "--auto-epsilon", action="store_true", help="choose epsilon automatically"
        )
        sp.add_argument("--r0", type=float, default=0.5, help="auto-epsilon target radius")
        sp.add_argument(
            "--radii", default="0.9,0.95,0.99", help="comma-separated density radii"
        )
        sp.add_argument("--grid", type=_parse_grid, default=(200, 200), metavar="RxT")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--trials", type=int, default=20)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        radii = tuple(float(r) for r in str(args.radii).split(",") if r)
    except ValueError:
        print(f"error: bad radii list: {args.radii}", file=sys.stderr)
        return EXIT_PARSE
    cfg = JobConfig(
        command=args.command,
        input_path=args.input,
        output_path=args.out,
        p=args.p,
        alpha=args.alpha,
        epsilon=args.epsilon,
        auto_eps=args.auto_epsilon,
        r0=args.r0,
        radii=radii,
        grid=args.grid,
        seed=args.seed,
        trials=args.trials,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
