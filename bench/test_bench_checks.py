"""The benchmark's correctness checks, on tiny inputs: each passes on the
library's output and fails once that output is perturbed.

Run with the repository's test suite (PYTHONPATH=src) or alone:
    PYTHONPATH=src python -m pytest bench/test_bench_checks.py
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import checks
import workloads as wl
from diskinterp import Domain, JetConstraint, PointSequence, PseudoDisk
from spans import Recorder


def _tiny_outputs():
    rng = np.random.default_rng(7)
    rec = Recorder("off")
    lattice = PointSequence(wl.ring_lattice(rng, 0.9, 0.7))
    jobs = {
        "scheme": wl.scheme_job(PointSequence(wl.tight_clusters(rng, n_clusters=4)), None, 0.3),
        "solve": wl.solve_job(lattice, 0.05, wl.unit_values(rng, len(lattice)),
                              grid=wl.polar_grid(8, 8, 0.9)),
        "union": wl.union_job(PointSequence(wl.jet_clusters(rng, n_clusters=2)), 0.18,
                              wl.unit_values(rng, 8)),
        "quotients": wl.quotient_job(wl.disk_data(rng, 2)),
        "probe": wl.probe_job(lattice, 0.05, 3, 0),
        "combination": wl.combination_job(rng, 0.05),
        "single": wl.solve_job(PointSequence([0.3 + 0.2j]), 0.1, [0.5 - 1j],
                               extra={"point": 0.3 + 0.2j, "value": 0.5 - 1j}),
        "disk": wl.general_job(PseudoDisk(0.2, 0.5), [JetConstraint(0.25, 0, 1.0),
                                                      JetConstraint(0.2 + 0.05j, 0, -0.5j)],
                               True, basis=6, grid=(8, 32)),
        "chain": wl.general_job(Domain((PseudoDisk(0.0, 0.3), PseudoDisk(0.35, 0.3))),
                                [JetConstraint(0.0, 0, 1.0), JetConstraint(0.0, 1, 0.5),
                                 JetConstraint(0.4, 0, -1.0)],
                                False, basis=6, grid=(8, 32)),
        "target": wl.target_job(PointSequence([0.3]), 0.05, [1.0 + 1j], 3.0),
        "cauchy_w": wl.cauchy_job(32, "w", None),
        "cauchy_c": wl.cauchy_job(32, "const", 0.5 - 0.3j),
        "weighted": wl.weighted_job(rng, 5, outer_grid=(4, 4)),
        "potentials": wl.potential_job(rng, 5),
    }
    return {name: run(rec) for name, run in jobs.items()}


@pytest.fixture(scope="module")
def outputs():
    return _tiny_outputs()


def _replace_scheme_clusters(out):
    s = out["minimal"]
    merged = (dataclasses.replace(s.clusters[0], members=s.clusters[0].members + s.clusters[1].members),)
    out["minimal"] = dataclasses.replace(
        s, clusters=merged + s.clusters[2:], domains=s.domains[:1] + s.domains[2:]
    )


def _scale_coeff(out):
    f = out["report"].function
    (p, n, c), *rest = f.terms
    out["report"] = dataclasses.replace(
        out["report"], function=dataclasses.replace(f, terms=((p, n, c * (1 + 1e-6)), *rest))
    )


def _set(key, fn):
    def perturb(out):
        out[key] = fn(out[key])

    return perturb


def _report(field, fn):
    def perturb(out):
        out["report"] = dataclasses.replace(out["report"], **{field: fn(getattr(out["report"], field))})

    return perturb


def _scale_norm(p, factor):
    def perturb(out):
        out["norms"] = {**out["norms"], p: out["norms"][p] * factor}

    return perturb


def _first_tuple(key, index, fn):
    def perturb(out):
        items = list(out[key])
        row = list(items[0])
        row[index] = fn(row[index])
        out[key] = [tuple(row)] + items[1:]

    return perturb


def _density(out):
    d = out["density"].d_values.copy()
    d[0, 0] *= 1 + 1e-6
    out["density"] = dataclasses.replace(out["density"], d_values=d)


def _maximal_radius(out):
    m = out["maximal"]
    dom = m.domains[0]
    ball = dataclasses.replace(dom.balls[0], radius=dom.balls[0].radius + 0.01)
    out["maximal"] = dataclasses.replace(m, domains=(Domain((ball,)),) + m.domains[1:])


CASES = [
    ("clusters_equal_bfs", "scheme", _replace_scheme_clusters),
    ("domain_diameter_bracket", "scheme",
     lambda o: o.update(minimal=dataclasses.replace(o["minimal"], diameter=o["minimal"].diameter + 0.05))),
    ("maximal_balls", "scheme", _maximal_radius),
    ("bounded_density_bracket", "scheme", _first_tuple("bounded_density", 1, lambda b: 0)),
    ("density_sums", "scheme", _density),
    ("minimal_overlap_is_1", "scheme", _set("overlap", lambda v: v + 1)),
    ("admissibility_measures", "scheme",
     lambda o: o.update(adm=dataclasses.replace(o["adm"], measured_cluster_bound=o["adm"].measured_cluster_bound + 1))),
    ("residuals", "solve", _scale_coeff),
    ("residuals", "union", _scale_coeff),
    ("single_point_norm", "single", _report("norm_value", lambda v: v * (1 + 1e-9))),
    ("norm_below_kernel_combination", "combination", _report("norm_value", lambda v: v * 1.1)),
    ("target_norm_p2", "solve", _set("target_norm", lambda v: v * (1 + 1e-6))),
    ("target_norm_p2", "union", _set("target_norm", lambda v: v * 10)),
    ("probe_below_exact_constant", "probe", _set("probe", lambda v: v * 10)),
    ("disk_quotient_p2", "quotients", _first_tuple("quotients", 2, lambda v: v * (1 + 1e-6))),
    ("kernelrep_grid_values", "solve", _first_tuple("grid_values", 1, lambda v: v + 1e-6 * np.abs(v).max())),
    ("multi_ball_p2_bracket", "union", _first_tuple("union_norms", 2, lambda v: v * 10)),
    ("general_p_bracket", "disk", _scale_norm(3.0, 1.05)),
    ("general_p_bracket", "chain", _scale_norm(1.5, 0.2)),
    ("target_norm_bracket", "target", _set("value", lambda v: v * 1.05)),
    ("p2_matches_kernel", "disk", _scale_norm(2.0, 1 + 1e-5)),
    ("normalised_norm_monotone_in_p", "chain", _scale_norm(1.5, 2.0)),
    ("cauchy_closed_forms", "cauchy_c", _first_tuple("cauchy", 4, lambda u: u + 1e-8)),
    ("cauchy_closed_forms", "cauchy_w", _first_tuple("cauchy", 4, lambda u: u + 0.01)),
    ("dbar_residual_bound", "cauchy_w", _first_tuple("residuals", 0, lambda r: r + 0.01)),
    ("grid_samples", "cauchy_w", _first_tuple("samples", 0, lambda v: v + 1e-12)),
    ("weighted_norm_unit_and_homogeneous", "weighted", _set("unit_norm", lambda v: v * (1 + 1e-9))),
    ("weighted_norm_unit_and_homogeneous", "weighted",
     _set("homogeneity", lambda h: (h[0], h[1], h[2] * (1 + 1e-9)))),
    ("green_potential_constant_laplacian", "potentials",
     _first_tuple("green", 1, lambda u: u + 1e-5)),
    ("tau_smooth_submean", "potentials",
     _first_tuple("tau", 1, lambda v: -1.0)),
]


@pytest.mark.parametrize("check, job, perturb", CASES, ids=[f"{c}-{j}" for c, j, _ in CASES])
def test_check_accepts_output_and_rejects_perturbation(outputs, check, job, perturb):
    fn = checks.CHECKS[check]
    ok, detail = fn(dict(outputs[job]))
    assert ok, detail
    bad = dict(outputs[job])
    perturb(bad)
    ok, detail = fn(bad)
    assert not ok, f"perturbed output passed: {detail}"


def test_every_check_is_exercised():
    assert {c for c, _, _ in CASES} == set(checks.CHECKS)


def test_kernel_formula_matches_power_series():
    z, w = 0.3 + 0.1j, -0.2 + 0.4j
    for m in range(3):
        for n in range(3):
            series = sum(
                (k + 1) * math.perm(k, m) * math.perm(k, n) * z ** (k - m) * np.conj(w) ** (k - n)
                for k in range(max(m, n), 200)
            ) / math.pi
            assert abs(checks.kernel(z, w, m, n) - series) < 1e-12 * abs(series)


def test_benchmark_json_names_every_metric():
    import json
    from pathlib import Path

    import run

    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    names = [m["name"] for m in doc["per_layer"]]
    want = [f"{c}.busy_s" for c in run.BUSY_CALLS] + [f"{c}.peak_mb" for c in run.PEAK_CALLS]
    want += ["cli.import_s"] + [f"cli.{c}.wall_s" for c in run.CLI_CASES] + ["traced.jobs_per_s"]
    assert names == want
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
