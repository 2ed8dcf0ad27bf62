import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diskinterp
from diskinterp import cli, errors
from diskinterp.cli import main


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run_cli(tmp_path, args):
    out = str(tmp_path / "report.json")
    code = main(args + ["--out", out])
    report = json.loads(open(out).read()) if code == 0 else None
    return code, report


def test_scheme_two_clusters(tmp_path):
    inp = write_doc(tmp_path, "in.json", {"points": [0.0, 0.5]})
    code, rep = run_cli(tmp_path, ["scheme", inp, "--epsilon", "0.1"])
    assert code == 0
    res = rep["results"]
    assert res["n_clusters"] == 2
    assert res["epsilon"] == 0.1
    assert all(res["admissibility"][k] for k in ("p1_ok", "p2_ok", "p3_ok", "p4_ok"))
    assert res["scheme"]["separation"] == pytest.approx(0.5)


def test_scheme_auto_epsilon(tmp_path):
    inp = write_doc(tmp_path, "in.json", {"points": [0.0, 0.05, [0.0, 0.6]]})
    code, rep = run_cli(tmp_path, ["scheme", inp, "--r0", "0.4"])
    assert code == 0
    assert 0.0 < rep["results"]["epsilon"] < 0.4


def test_interpolate_sqrt_pi(tmp_path):
    inp = write_doc(tmp_path, "in.json", {"points": [0.0], "values": [1.0]})
    code, rep = run_cli(tmp_path, ["interpolate", inp, "--epsilon", "0.2"])
    assert code == 0
    res = rep["results"]
    assert res["norm_value"] == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    assert res["max_residual"] < 1e-10
    assert res["function"]["kind"] == "kernel"


def test_quotient_kernel_exact(tmp_path):
    inp = write_doc(
        tmp_path,
        "in.json",
        {"points": [0.0], "values": [2.0], "domain": {"center": 0.0, "radius": 0.5}},
    )
    code, rep = run_cli(tmp_path, ["quotient", inp])
    assert code == 0
    res = rep["results"]
    assert res["method"] == "kernel-exact"
    assert res["quotient_norm"] == pytest.approx(2.0 * math.sqrt(math.pi) * 0.5, rel=1e-10)


def test_density_report(tmp_path):
    inp = write_doc(tmp_path, "in.json", {"points": [0.1, 0.3]})
    code, rep = run_cli(tmp_path, ["density", inp, "--radii", "0.9,0.95"])
    assert code == 0
    res = rep["results"]
    assert res["radii"] == [0.9, 0.95]
    assert len(res["table"]) == 2 * 3  # 2 radii x (origin + 2 points)
    assert res["d_plus_estimate"] >= 0.0


def test_o_weight(tmp_path):
    inp = write_doc(tmp_path, "in.json", {"points": [0.5], "coefficients": [2.0]})
    code, rep = run_cli(tmp_path, ["o-weight", inp])
    assert code == 0
    assert rep["results"]["o_interp_weight"] == pytest.approx(4.0 * 0.75 ** 2, rel=1e-12)


@pytest.mark.parametrize("p", ["-1", "nan", "inf"])
def test_o_weight_rejects_bad_p(tmp_path, p):
    inp = write_doc(tmp_path, "in.json", {"points": [0.5], "coefficients": [2.0]})
    code, _ = run_cli(tmp_path, ["o-weight", inp, "--p", p])
    assert code == 3


@pytest.mark.parametrize("command", ["interpolate", "quotient"])
@pytest.mark.parametrize("p", ["0.5", "nan", "inf"])
def test_solver_commands_reject_bad_p_before_any_solve(tmp_path, monkeypatch, command, p):
    # p = nan passed the old p < 1 test: interpolate ran its p = 2 solve
    # and then 60 Newton steps before failing
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    for name in ("solve_p2", "target_norm", "quotient_norm_p2", "quotient_norm_general"):
        monkeypatch.setattr(cli, name, no_solve)
    inp = write_doc(tmp_path, "in.json", {"points": [0.0], "values": [2.0],
                                          "domain": {"center": 0.0, "radius": 0.5}})
    code, _ = run_cli(tmp_path, [command, inp, "--p", p]
                      + (["--epsilon", "0.1"] if command == "interpolate" else []))
    assert code == 3


@pytest.mark.parametrize("p", ["1.5", "2", "3"])
def test_quotient_rejects_a_point_outside_its_domain(tmp_path, p):
    # 0.9 lies outside D(0, 0.5): a precondition violation at every p
    inp = write_doc(tmp_path, "in.json", {"points": [0.9], "values": [1.0],
                                          "domain": {"center": 0.0, "radius": 0.5}})
    code, _ = run_cli(tmp_path, ["quotient", inp, "--p", p])
    assert code == 3


def test_dbar_check(tmp_path):
    inp = write_doc(tmp_path, "in.json", {"g_constant": [1.0, 0.0]})
    code, rep = run_cli(tmp_path, ["dbar-check", inp, "--grid", "64x64"])
    assert code == 0
    res = rep["results"]
    assert res["max_error_vs_zbar"] < 1e-10
    assert res["dbar_residual"] < 5e-3


def test_dbar_check_grid_above_the_ring_cap(tmp_path, capsys):
    # cauchy_transform refuses 10^5 rings (about 233 GiB of n_r x n_r
    # arrays) before it allocates: one error line, exit status 3
    inp = write_doc(tmp_path, "in.json", {"g_constant": [1.0, 0.0]})
    code, _ = run_cli(tmp_path, ["dbar-check", inp, "--grid", "100000x16"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: precondition violated:") and err.count("\n") == 1


def test_dbar_check_grid_above_the_node_cap(tmp_path, capsys):
    # 3.2e8 nodes: PolarGridSpec refuses the grid before g is sampled (it
    # alone would be 4.8 GiB): one error line, exit status 3
    import tracemalloc

    inp = write_doc(tmp_path, "in.json", {"g_constant": [1.0, 0.0]})
    tracemalloc.start()
    try:
        code, _ = run_cli(tmp_path, ["dbar-check", inp, "--grid", "20000000x16"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 1 << 20
    err = capsys.readouterr().err
    assert err.startswith("error: precondition violated:") and "nodes" in err
    assert err.count("\n") == 1


def _crowded_doc():
    """300 points uniform in |z| < 0.5 (default_rng(0)), coefficients 1."""
    rng = np.random.default_rng(0)
    z = 0.5 * np.sqrt(rng.uniform(size=300)) * np.exp(2j * np.pi * rng.uniform(size=300))
    return {"points": [[p.real, p.imag] for p in z], "coefficients": [1.0] * 300}


def test_o_weight_that_overflows_is_a_numerical_failure(tmp_path, capsys):
    # delta^(p n) underflows to 0: the library raises NumericalError, with
    # no numpy warning, naming the first point; exit status 4, no report
    # written
    inp = write_doc(tmp_path, "in.json", _crowded_doc())
    out = tmp_path / "report.json"
    code = main(["o-weight", inp, "--p", "2", "--out", str(out)])
    assert code == 4 and not out.exists()
    err = capsys.readouterr().err
    assert err == ("error: numerical failure: o_interp_weight: the term of point 0 is inf: "
                   "delta = 0.013874137581359998 to the power p n = 278.0 is 0.0\n")


@pytest.mark.parametrize("command, text", [
    ("o-weight", '{"points": [0.5], "coefficients": [NaN]}'),
    ("dbar-check", '{"g_constant": [Infinity, 0.0]}'),
    ("scheme", '{"points": [[0.1, -Infinity]]}'),
])
def test_nan_and_infinity_in_an_input_document_are_parse_errors(tmp_path, capsys, command, text):
    # json.load alone reads these non-JSON tokens as floats: o-weight then
    # exited 4 on its nan coefficient
    inp = tmp_path / "in.json"
    inp.write_text(text)
    out = tmp_path / "report.json"
    assert main([command, str(inp), "--out", str(out)]) == 2 and not out.exists()
    err = capsys.readouterr().err
    token = re.search(r"-?Infinity|NaN", text).group()
    assert err == f"error: cannot parse input: {token} is not a JSON number\n"


@pytest.mark.parametrize("bad, path", [
    (math.nan, "results.a[1].b = nan"),
    (-math.inf, "results.a[1].b = -inf"),
    (np.float64(math.inf), "results.a[1].b = inf"),
])
def test_any_non_finite_number_in_a_report_is_a_numerical_failure(tmp_path, monkeypatch, capsys,
                                                                    bad, path):
    # one check in cli.run, whatever the command and wherever the number
    monkeypatch.setitem(cli._COMMANDS, "scheme",
                        (lambda args, doc: {"a": [1.0, {"b": bad}], "c": 2}, cli._EPSILON))
    inp = write_doc(tmp_path, "in.json", {"points": [0.0]})
    out = tmp_path / "report.json"
    assert main(["scheme", inp, "--out", str(out)]) == 4 and not out.exists()
    assert capsys.readouterr().err == (
        f"error: numerical failure: {path} is not a JSON number; no report written\n")


def test_probe(tmp_path):
    inp = write_doc(tmp_path, "in.json", {"points": [0.0, 0.5]})
    code, rep = run_cli(tmp_path, ["probe", inp, "--epsilon", "0.1", "--trials", "8"])
    assert code == 0
    assert rep["results"]["interpolation_constant"] >= 1.0 - 1e-9


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["scheme", str(bad)]) == 2
    # structurally valid JSON but a point outside the disk
    inp = write_doc(tmp_path, "in.json", {"points": [1.5]})
    assert main(["scheme", inp, "--epsilon", "0.1"]) == 2
    # missing required keys
    inp = write_doc(tmp_path, "in2.json", {})
    assert main(["scheme", inp, "--epsilon", "0.1"]) == 2


@pytest.mark.parametrize("command", ["scheme", "dbar-check"])
def test_top_level_that_is_not_an_object_is_a_parse_error(tmp_path, command, capsys):
    inp = write_doc(tmp_path, "in.json", 5)
    assert main([command, inp]) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("domain", [{"center": 0.0}, {"radius": 0.5}, [0.0, 0.5]])
def test_quotient_domain_without_center_or_radius_is_a_parse_error(tmp_path, domain, capsys):
    inp = write_doc(tmp_path, "in.json", {"points": [0.0], "values": [1.0], "domain": domain})
    assert main(["quotient", inp]) == 2
    assert "'domain' {center, radius}" in capsys.readouterr().err


_POINT_COMMANDS = ("scheme", "density", "interpolate", "quotient", "o-weight", "probe")
_DOMAIN = {"center": 0.0, "radius": 0.5}


@pytest.mark.parametrize("command, doc", [
    *[(c, {"points": 5, "values": [1.0], "coefficients": [1.0], "domain": _DOMAIN})
      for c in _POINT_COMMANDS],
    ("interpolate", {"points": [0.0], "values": 5}),
    *[(c, {"points": [0.0], "jets": 5, "domain": _DOMAIN})
      for c in ("scheme", "interpolate", "quotient", "probe")],
    ("o-weight", {"points": [0.0], "coefficients": 3}),
    ("quotient", {"points": [0.0], "values": [1.0], "domain": {"center": 0.0, "radius": "x"}}),
    ("quotient", {"points": [0.0], "values": [1.0], "domain": {"center": 0.0, "radius": [0.5]}}),
])
def test_malformed_document_is_a_parse_error(tmp_path, command, doc, capsys):
    # a scalar where a list or number belongs exits 2 with a message, no traceback
    inp = write_doc(tmp_path, "in.json", doc)
    assert main([command, inp, "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


_JETS = [{"point_index": 0, "order": 0, "value": 1.0}, {"point_index": 0, "order": 1, "value": 2.0},
         {"point_index": 1, "value": 3.0}]


@pytest.mark.parametrize("command", ["interpolate", "quotient"])
@pytest.mark.parametrize("key, bad", [("order", 1.9), ("order", 1.0), ("order", "1"), ("order", True),
                                      ("point_index", 1.7), ("point_index", "1"),
                                      ("point_index", True)])
def test_jet_index_or_order_that_is_not_an_integer_is_a_parse_error(tmp_path, command, key, bad, capsys):
    # they were truncated: order 1.9 solved for f'(0) = 2, point_index 1.7 for f(0.5) = 3
    extra = ["--epsilon", "0.1"] if command == "interpolate" else []
    doc = {"points": [0.0, 0.5], "jets": _JETS, "domain": {"center": 0.0, "radius": 0.9}}
    assert main([command, write_doc(tmp_path, "good.json", doc), "--out", str(tmp_path / "good.out.json"),
                 *extra]) == 0
    jets = [dict(j) for j in _JETS]
    jets[2 if key == "point_index" else 1][key] = bad
    inp = write_doc(tmp_path, "in.json", dict(doc, jets=jets))
    assert main([command, inp, "--out", str(tmp_path / "x.json"), *extra]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_exit_code_precondition(tmp_path):
    # epsilon so large the merged component's diameter overflows
    inp = write_doc(tmp_path, "in.json", {"points": [-0.99, 0.99]})
    assert main(["scheme", inp, "--epsilon", "0.9999"]) == 3


def test_import_loads_no_scipy():
    # the package import every CLI command pays for loads no scipy
    src = str(Path(diskinterp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, diskinterp; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_exit_code_numerical(tmp_path):
    # two nearly identical points make the Gram matrix singular
    inp = write_doc(
        tmp_path, "in.json", {"points": [0.1, 0.1000000000000002], "values": [1.0, 1.0]}
    )
    assert main(["interpolate", inp, "--epsilon", "0.2", "--out",
                 str(tmp_path / "x.json")]) == 4


def test_reports_are_byte_identical(tmp_path):
    inp = write_doc(tmp_path, "in.json", {"points": [0.0, 0.5]})
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["probe", inp, "--epsilon", "0.1", "--seed", "7", "--out", out1]) == 0
    assert main(["probe", inp, "--epsilon", "0.1", "--seed", "7", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_report_carries_provenance(tmp_path):
    inp = write_doc(tmp_path, "in.json", {"points": [0.2]})
    code, rep = run_cli(tmp_path, ["probe", inp, "--epsilon", "0.1", "--seed", "3"])
    assert code == 0
    prov = rep["provenance"]
    assert prov["tool"] == "diskinterp"
    assert prov["command"] == "probe"
    assert prov["seed"] == 3
    assert "tolerance" not in prov
    assert rep["inputs"] == {"points": [0.2]}


# the parameter flags each command reads, besides `input` and `--out`
COMMAND_FLAGS = {
    "scheme": {"--epsilon", "--r0"},
    "density": {"--radii"},
    "interpolate": {"--p", "--epsilon", "--r0"},
    "quotient": {"--p"},
    "dbar-check": {"--grid"},
    "o-weight": {"--p", "--alpha"},
    "probe": {"--epsilon", "--r0", "--seed", "--trials"},
}
FLAG_VALUES = {"--p": "3", "--alpha": "0.5", "--epsilon": "0.1", "--r0": "0.4",
               "--radii": "0.9,0.95", "--grid": "32x32", "--seed": "3", "--trials": "4"}
# one valid input per command
COMMAND_DOCS = {
    "scheme": {"points": [0.0, 0.5]},
    "density": {"points": [0.1, 0.3]},
    "interpolate": {"points": [0.0, 0.5], "values": [1.0, 2.0]},
    "quotient": {"points": [0.0], "values": [2.0], "domain": {"center": 0.0, "radius": 0.5}},
    "dbar-check": {"g_constant": [1.0, 0.0]},
    "o-weight": {"points": [0.5], "coefficients": [2.0]},
    "probe": {"points": [0.0, 0.5]},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_command_takes_only_its_flags(tmp_path, command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    assert listed - {"--help", "--out"} == COMMAND_FLAGS[command]
    # a flag of another command is a parse error
    inp = write_doc(tmp_path, "in.json", COMMAND_DOCS[command])
    foreign = set().union(*COMMAND_FLAGS.values()) - COMMAND_FLAGS[command]
    assert foreign
    for flag in sorted(foreign):
        with pytest.raises(SystemExit) as exc:
            main([command, inp, flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_provenance_records_exactly_the_commands_flags(tmp_path, command):
    inp = write_doc(tmp_path, "in.json", COMMAND_DOCS[command])
    # every flag the command reads, --r0 standing for the exclusive pair
    flags = [a for f in sorted(COMMAND_FLAGS[command] - {"--epsilon"})
             for a in (f, FLAG_VALUES[f])]
    code, rep = run_cli(tmp_path, [command, inp, *flags])
    assert code == 0
    prov = rep["provenance"]
    assert set(prov) == {"tool", "version", "command"} | {f[2:] for f in COMMAND_FLAGS[command]}
    assert prov["command"] == command
    assert prov["version"] == diskinterp.__version__
    if "--epsilon" in COMMAND_FLAGS[command]:
        assert prov["epsilon"] is None and prov["r0"] == 0.4


def test_epsilon_and_r0_are_exclusive(tmp_path, capsys):
    inp = write_doc(tmp_path, "in.json", {"points": [0.0, 0.5], "values": [1.0, 2.0]})
    for command in ("scheme", "interpolate", "probe"):
        with pytest.raises(SystemExit) as exc:
            main([command, inp, "--epsilon", "0.1", "--r0", "0.4"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


def test_quotient_one_value_short_is_a_parse_error(tmp_path):
    inp = write_doc(tmp_path, "in.json", {
        "points": [0.0, 0.2, 0.3], "values": [1.0, 2.0],
        "domain": {"center": 0.0, "radius": 0.5},
    })
    assert main(["quotient", inp, "--out", str(tmp_path / "x.json")]) == 2


def test_quotient_values_at_a_repeated_point_are_its_jet(tmp_path):
    domain = {"center": 0.0, "radius": 0.5}
    by_values = write_doc(tmp_path, "values.json", {
        "points": [0.1, 0.1], "values": [1.0, 2.0], "domain": domain})
    by_jets = write_doc(tmp_path, "jets.json", {
        "points": [0.1, 0.1], "domain": domain,
        "jets": [{"point_index": 0, "order": 0, "value": 1.0},
                 {"point_index": 1, "order": 1, "value": 2.0}]})
    code_v, rep_v = run_cli(tmp_path, ["quotient", by_values])
    code_j, rep_j = run_cli(tmp_path, ["quotient", by_jets])
    assert code_v == code_j == 0
    assert rep_v["results"]["quotient_norm"] == rep_j["results"]["quotient_norm"]


def test_probe_reports_exact_constant_on_a_union(tmp_path):
    # 0 and 0.05 form one two-ball cluster, whose p = 2 form comes from the
    # quadrature basis
    inp = write_doc(tmp_path, "in.json", {"points": [0.0, 0.05, 0.5]})
    code, rep = run_cli(tmp_path, ["probe", inp, "--epsilon", "0.1"])
    assert code == 0
    res = rep["results"]
    assert res["exact_constant"] >= res["interpolation_constant"] * (1.0 - 1e-9)
    assert res["interpolation_constant"] >= 1.0 - 1e-9


def test_runtime_needs_no_scipy(tmp_path):
    # with every import of scipy made to fail, each CLI command runs, and so
    # does each function that once imported it: a union's QR at p != 2 and
    # the Gauss-Jacobi and Gauss-Laguerre rules
    cluster = write_doc(tmp_path, "cluster.json", {"points": [0.0, 0.05, 0.5]})
    values = write_doc(tmp_path, "values.json",
                       {"points": [0.0, 0.05, 0.5], "values": [1.0, 2.0, -1.0]})
    docs = {c: write_doc(tmp_path, f"{c}.json", doc) for c, doc in COMMAND_DOCS.items()}
    runs = [
        ["scheme", docs["scheme"], "--epsilon", "0.1"],
        ["density", docs["density"], "--radii", "0.9,0.95"],
        ["interpolate", values, "--epsilon", "0.1", "--p", "3"],
        ["quotient", docs["quotient"], "--p", "1.5"],
        ["dbar-check", docs["dbar-check"], "--grid", "32x32"],
        ["o-weight", docs["o-weight"], "--p", "3", "--alpha", "0.5"],
        ["probe", cluster, "--epsilon", "0.1", "--trials", "4"],
    ]
    runs = [args + ["--out", str(tmp_path / f"{args[0]}.out.json")] for args in runs]
    code = f"""
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises
import numpy as np
from diskinterp import PointSequence, build_minimal_scheme
from diskinterp.cli import main
from diskinterp.dbar import TauSpec, tau_smooth
from diskinterp.interpolation import JetTargets, quotient_norm_general, weighted_norms
for args in {runs!r}:
    assert main(args) == 0, args
scheme = build_minimal_scheme(PointSequence([0.0, 0.05]), 0.1)
(domain,) = scheme.domains
assert len(domain.balls) == 2
cons = JetTargets.values_on_scheme(scheme, [1.0, -0.5j]).per_cluster[0]
assert quotient_norm_general(domain, cons, 3.0, basis_size=12, grid=(24, 96)) > 0.0
assert np.isfinite(tau_smooth(TauSpec(PointSequence([0.1, 0.5j]), 2.0, 0.5), 0.3))
assert weighted_norms(lambda z: 1.0 + z, 2.0, alpha=2.5) > 0.0
print("ok")
"""
    src = str(Path(diskinterp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_every_error_has_one_exit_status():
    families = (errors.InputError, errors.PreconditionError, errors.NumericalError)
    leaves = [c for c in vars(errors).values() if isinstance(c, type)
              and issubclass(c, errors.DiskInterpError)
              and c not in families and c is not errors.DiskInterpError]
    assert len(leaves) == 16
    for cls in leaves:
        assert sum(issubclass(cls, f) for f in families) == 1, cls.__name__
    assert issubclass(errors.DegeneratePair, errors.PreconditionError)
    assert issubclass(errors.GridTooLarge, errors.PreconditionError)
