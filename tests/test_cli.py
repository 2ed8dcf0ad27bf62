import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diskinterp
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
    code, rep = run_cli(tmp_path, ["scheme", inp, "--auto-epsilon", "--r0", "0.4"])
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


def test_dbar_check(tmp_path):
    inp = write_doc(tmp_path, "in.json", {"g_constant": [1.0, 0.0]})
    code, rep = run_cli(tmp_path, ["dbar-check", inp, "--grid", "64x64"])
    assert code == 0
    res = rep["results"]
    assert res["max_error_vs_zbar"] < 1e-10
    assert res["dbar_residual"] < 5e-3


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


def test_exit_code_precondition(tmp_path):
    # epsilon so large the merged component's diameter overflows
    inp = write_doc(tmp_path, "in.json", {"points": [-0.99, 0.99]})
    assert main(["scheme", inp, "--epsilon", "0.9999"]) == 3


def test_import_loads_no_scipy():
    # scipy is imported by the few functions that need it, never by the
    # package import every CLI command pays for
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
    code, rep = run_cli(tmp_path, ["scheme", inp, "--epsilon", "0.1", "--seed", "3"])
    assert code == 0
    prov = rep["provenance"]
    assert prov["tool"] == "diskinterp"
    assert prov["command"] == "scheme"
    assert prov["seed"] == 3
    assert "tolerance" not in prov
    assert rep["inputs"] == {"points": [0.2]}
