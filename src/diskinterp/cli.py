"""Batch command-line front end.

One command per invocation; JSON in, JSON report out.  Identical inputs
and seed produce byte-identical reports.  Exit codes: 0 success, 2 parse
error, 3 precondition violation, 4 numerical failure, a nan or infinite
number anywhere in the report among them (strict JSON has none, and no
report is written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from numbers import Integral

import numpy as np

from . import __version__
from .density import default_density_report
from .dbar import cauchy_transform, dbar_residual
from .errors import (
    InputError,
    MalformedJet,
    NumericalError,
    PointOutsideDisk,
    PreconditionError,
)
from .grids import GridFunction, PolarGridSpec, ring_blocks
from .interpolation import (
    JetConstraint,
    JetTargets,
    _repeat_orders,
    interpolation_constant_p2,
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


def _c(value) -> complex:
    """[re, im] pair (or bare real) to complex."""
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise MalformedJet(f"expected [re, im], got {value!r}")


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _list(doc: dict, key: str) -> list:
    """The list doc[key]; MalformedJet if it is missing or not a list."""
    value = doc.get(key)
    if not isinstance(value, list):
        raise MalformedJet(f"the input needs a '{key}' list")
    return value


def parse_sequence(doc: dict):
    """Points (with multiplicity by repetition) and optional jet triples
    from a JSON-shaped document; a jet's point_index is an integer (not a
    bool), and JetConstraint checks its order."""
    pts = []
    for i, entry in enumerate(_list(doc, "points")):
        try:
            pts.append(_c(entry))
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
        for j in _list(doc, "jets"):
            try:
                idx = j["point_index"]
                order = j.get("order", 0)
                value = _c(j["value"])
            except Exception as exc:
                raise MalformedJet(f"bad jet entry {j!r}") from exc
            if not isinstance(idx, Integral) or isinstance(idx, bool):
                raise MalformedJet(f"jet point_index must be an integer, got {idx!r}")
            if not 0 <= idx < len(Z):
                raise MalformedJet(f"jet point_index {idx} out of range")
            jets.append((idx, order, value))
    return Z, jets


def _constraints(Z: PointSequence, jets, doc) -> list[tuple[int, JetConstraint]]:
    """(point index, constraint) pairs: the document's jets, or else one
    value per point, the k-th repeat of a point being its order-k jet."""
    if jets:
        return [(i, JetConstraint(Z[i], order, v)) for i, order, v in jets]
    if "values" not in doc:
        raise MalformedJet("the input needs 'jets' or 'values'")
    values = [_c(v) for v in _list(doc, "values")]
    if len(values) != len(Z):
        raise MalformedJet(f"one value per point required: {len(Z)} points, {len(values)} values")
    points = [complex(z) for z in Z]
    return [(i, JetConstraint(z, order, v))
            for i, (z, order, v) in enumerate(zip(points, _repeat_orders(points), values))]


def _targets_from_doc(scheme, cons) -> JetTargets:
    """Sort (point index, constraint) pairs into the scheme's clusters."""
    owner = {i: k for k, c in enumerate(scheme.clusters) for i in c.members}
    per_cluster = [[] for _ in scheme.clusters]
    for i, con in cons:
        per_cluster[owner[i]].append(con)
    return JetTargets(per_cluster)


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


def _non_finite(value, path: str = ""):
    """'path = value' for the first nan or infinite float in a report
    value, or None: JSON has no such numbers."""
    if isinstance(value, float):
        return None if math.isfinite(value) else f"{path} = {float(value)!r}"
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else key, item) for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        items = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
    else:
        return None
    for sub, item in items:
        found = _non_finite(item, sub)
        if found:
            return found
    return None


def _provenance(args) -> dict:
    """Tool, version, command and the value of every flag the command reads."""
    flags = _COMMANDS[args.command][1]
    return {
        "tool": "diskinterp",
        "version": __version__,
        "command": args.command,
        **{flag[2:]: getattr(args, flag[2:]) for flag in flags},
    }


def _build_scheme(args, Z: PointSequence):
    eps = auto_epsilon(Z, args.r0) if args.epsilon is None else args.epsilon
    return build_minimal_scheme(Z, eps), eps


def _cmd_scheme(args, doc: dict) -> dict:
    Z, _ = parse_sequence(doc)
    scheme, eps = _build_scheme(args, Z)
    return {
        "epsilon": eps,
        "scheme": _scheme_dict(scheme),
        "n_clusters": len(scheme.clusters),
        "overlap_bound": overlap_bound(scheme),
        "admissibility": dataclasses.asdict(check_admissibility(scheme)),
    }


def _cmd_density(args, doc: dict) -> dict:
    Z, _ = parse_sequence(doc)
    rep = default_density_report(Z, args.radii)
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


def _cmd_interpolate(args, doc: dict) -> dict:
    if not 1.0 <= args.p < math.inf:
        raise ValueError(f"solver commands require finite p >= 1, got {args.p}")
    Z, jets = parse_sequence(doc)
    scheme, eps = _build_scheme(args, Z)
    targets = _targets_from_doc(scheme, _constraints(Z, jets, doc))
    report = solve_p2(scheme, targets)
    out = {
        "epsilon": eps,
        "norm_value": report.norm_value,
        "target_norm_p2": report.target_norm,
        "max_residual": max((abs(r) for r in report.residuals), default=0.0),
        "function": report.function.to_dict(),
    }
    if args.p != 2.0:
        out["target_norm_p"] = target_norm(scheme, targets, args.p)
    return out


def _cmd_quotient(args, doc: dict) -> dict:
    if not 1.0 <= args.p < math.inf:
        raise ValueError(f"solver commands require finite p >= 1, got {args.p}")
    Z, jets = parse_sequence(doc)
    domain = doc.get("domain")
    if not isinstance(domain, dict) or not {"center", "radius"} <= domain.keys():
        raise MalformedJet("quotient needs a 'domain' {center, radius} entry")
    try:
        radius = float(domain["radius"])
    except (TypeError, ValueError) as exc:
        raise MalformedJet(f"bad domain radius {domain['radius']!r}") from exc
    dom = PseudoDisk(_c(domain["center"]), radius)
    cons = [con for _, con in _constraints(Z, jets, doc)]
    out = {"domain": {"center": _pair(dom.center), "radius": dom.radius}}
    if args.p == 2.0:
        out["quotient_norm"] = quotient_norm_p2(dom, cons)
        out["method"] = "kernel-exact"
    else:
        out["quotient_norm"] = quotient_norm_general(dom, cons, args.p)
        out["method"] = "convex-discretized"
    return out


def _cmd_dbar_check(args, doc: dict) -> dict:
    g0 = _c(doc.get("g_constant", [1.0, 0.0]))
    spec = PolarGridSpec(args.grid[0], args.grid[1])
    g = GridFunction.sample(lambda z: np.full(z.shape, g0), spec)
    u = cauchy_transform(g)
    f = GridFunction.sample(lambda z: g0 * (1.0 - np.abs(z) ** 2), spec)
    # the exact solution is g0 zbar: its error ring block by ring block
    radii, phase = spec.radii, np.exp(1j * spec.angles)
    error = 0.0
    for rows in ring_blocks(spec):
        exact = g0 * np.conj(radii[rows, None] * phase)
        error = np.maximum(error, np.abs(u.values[rows] - exact).max())
    return {
        "g_constant": _pair(g0),
        "max_error_vs_zbar": float(error),
        "dbar_residual": dbar_residual(u, f),
        "grid": [spec.n_radial, spec.n_angular],
    }


def _cmd_o_weight(args, doc: dict) -> dict:
    Z, _ = parse_sequence(doc)
    coeffs = [_c(v) for v in _list(doc, "coefficients")]
    if len(coeffs) != len(Z):
        raise MalformedJet("one coefficient per point required")
    return {
        "o_interp_weight": o_interp_weight(Z, coeffs, args.p, args.alpha),
    }


def _cmd_probe(args, doc: dict) -> dict:
    Z, _ = parse_sequence(doc)
    scheme, eps = _build_scheme(args, Z)
    return {
        "epsilon": eps,
        "trials": args.trials,
        "interpolation_constant": interpolation_constant_probe(scheme, args.trials, args.seed),
        "exact_constant": interpolation_constant_p2(scheme),
    }


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except Exception as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 200x200: {text}") from exc


def _parse_radii(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(r) for r in text.split(",") if r)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"radii must look like 0.9,0.95: {text}") from exc


# --epsilon and --r0 are mutually exclusive: --r0 is read only when
# --epsilon is left out, to choose epsilon by auto_epsilon
_EPSILON = ("--epsilon", "--r0")
_FLAGS = {
    "--p": dict(type=float, default=2.0, help="Lebesgue exponent, p >= 1"),
    "--alpha": dict(type=float, default=0.0, help="weight exponent, alpha > -1"),
    "--epsilon": dict(type=float, default=None, help="radius of the scheme's balls"),
    "--r0": dict(type=float, default=0.5, help="auto_epsilon target radius"),
    "--radii": dict(type=_parse_radii, default=(0.9, 0.95, 0.99), metavar="R,R,...",
                    help="comma-separated density radii"),
    "--grid": dict(type=_parse_grid, default=(200, 200), metavar="RxT"),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=20),
}
# command -> (handler, the parameter flags it reads)
_COMMANDS = {
    "scheme": (_cmd_scheme, _EPSILON),
    "density": (_cmd_density, ("--radii",)),
    "interpolate": (_cmd_interpolate, ("--p", *_EPSILON)),
    "quotient": (_cmd_quotient, ("--p",)),
    "dbar-check": (_cmd_dbar_check, ("--grid",)),
    "o-weight": (_cmd_o_weight, ("--p", "--alpha")),
    "probe": (_cmd_probe, (*_EPSILON, "--seed", "--trials")),
}


def _no_constant(name: str):
    """json's hook for NaN, Infinity and -Infinity, which are not JSON."""
    raise ValueError(f"{name} is not a JSON number")


def run(args) -> int:
    """Dispatch a parsed command line; write the report; return the process
    exit status."""
    try:
        with open(args.input) as fh:
            doc = json.load(fh, parse_constant=_no_constant)
    except (OSError, ValueError) as exc:
        print(f"error: cannot parse input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if not isinstance(doc, dict):
            raise MalformedJet(f"the input must be a JSON object, got {type(doc).__name__}")
        body = _COMMANDS[args.command][0](args, doc)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, ValueError) as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report = {"provenance": _provenance(args), "inputs": doc, "results": body}
    bad = _non_finite(report)
    if bad:
        print(f"error: numerical failure: {bad} is not a JSON number; no report written",
              file=sys.stderr)
        return EXIT_NUMERICAL
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diskinterp",
        description="Interpolation schemes, densities and dbar checks on the unit disk",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("input", help="input JSON document")
        sp.add_argument("--out", default=None, help="report path (default stdout)")
        # argparse cannot format the usage of an empty group
        pair = sp.add_mutually_exclusive_group() if _EPSILON[0] in flags else sp
        for flag in flags:
            (pair if flag in _EPSILON else sp).add_argument(flag, **_FLAGS[flag])
    return ap


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
