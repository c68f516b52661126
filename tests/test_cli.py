import csv
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jetgauge
from jetgauge import cli, writer
from jetgauge.cli import main
from jetgauge.dynamics import BLOCK_STEPS, Trajectory
from jetgauge.report import FLAGGED, VerificationReport, dump_json


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def test_signature_text(capsys):
    assert main(["signature", "--axes", "4", "--order", "3"]) == 0
    assert capsys.readouterr().out.strip() == "(11, 23)"


def test_signature_json(capsys):
    assert main(["signature", "--axes", "4", "--order", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["p"], data["q"]) == (4, 10)


def test_signature_listing(capsys):
    main(["signature", "--axes", "4", "--order", "1", "--list"])
    out = capsys.readouterr().out
    assert "d^t" in out and "d^z" in out


def test_signature_counts_without_enumerating(capsys):
    # about 7.5e10 monomials: only the closed form can answer this
    assert main(["signature", "--axes", "50", "--order", "10"]) == 0
    assert capsys.readouterr().out.strip() == "(10883976010, 64510051555)"


def test_signature_list_cap_exits_2(capsys):
    assert main(["signature", "--axes", "50", "--order", "10", "--list"]) == 2
    captured = capsys.readouterr()
    assert "capped" in one_line(captured.err) and captured.out == ""
    assert main(["signature", "--axes", "4", "--order", "101"]) == 2
    assert "capped" in one_line(capsys.readouterr().err)


def test_unknown_subcommand_exits_2(capsys):
    assert main(["no-such-command"]) == 2


def test_malformed_flags_exit_2(capsys):
    assert main(["signature", "--axes"]) == 2
    assert main(["census", "--sector", "nonsense"]) == 2


def test_domain_errors_exit_2(capsys):
    assert main(["signature", "--axes", "0", "--order", "1"]) == 2
    assert main(["signature", "--axes", "1", "--order", "2"]) == 2  # no spacelike axis
    assert "error" in capsys.readouterr().err


def test_proca_table_csv(capsys):
    assert main(["proca-table", "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert len(rows) == 28 and all(len(r) == 28 for r in rows)
    assert rows[0][4] == "-1"


def test_proca_table_json(capsys):
    main(["proca-table", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 28
    assert data["table"][4][15] == -2


def test_census_json(capsys):
    assert main(["census", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    sectors = {tuple(r["sector"]): (r["positive"], r["negative"], r["zero"])
               for r in data["censuses"]}
    assert sectors[(3, 3)] == (21, 78, 91)
    assert sectors[(2, 3)] == (21, 13, 46)
    assert data["flags"]


def test_census_single_sector(capsys):
    assert main(["census", "--sector", "1,3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["censuses"]) == 1
    assert data["censuses"][0]["positive"] == 28


def test_isotropic(capsys):
    assert main(["isotropic", "--sector", "23", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["size"] == 7
    assert data["gram_identically_zero"] is True
    assert data["hypercharge_first_order_invariant"] is True


def test_electroweak_json(capsys):
    assert main(["electroweak"]) == 0
    data = json.loads(capsys.readouterr().out)
    diag = [data["mixed_mass_matrix_display"][i][i] for i in range(4)]
    assert diag == ["0", "5", "4", "4"]
    assert data["mixing"]["sin2_theta_w"] == "1/5"


def test_octonion_verify(capsys):
    assert main(["octonion", "verify"]) == 0
    assert "0 fail" in capsys.readouterr().out


def test_su3_json(capsys):
    assert main(["su3", "--fix", "e4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dimension"] == 8
    used = set().union(*(set(row) for row in data["basis"]))
    assert used == {"A1", "A2", "A3", "A4", "A5", "A6", "A7", "G4"}


def test_pheno_consistency(capsys):
    assert main(["pheno", "consistency"]) == 0
    out = capsys.readouterr().out
    assert "iota" in out and "[pass]" in out


def test_pheno_constants_override(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"M_W": 80.3790}), encoding="utf-8")
    assert main(["pheno", "consistency", "--constants", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    chi = next(e for e in data["entries"] if e["name"].startswith("chi"))
    assert chi["status"] == "pass"


def test_verify_all_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify-all", "--format", "json", "--out", str(out1)]) == 0
    assert main(["verify-all", "--format", "json", "--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    data = json.loads(b1)
    assert data["counts"]["fail"] == 0
    assert data["counts"]["flagged"] >= 1


# the same digest perfbench/workloads.py pins for the verify_all workload
VERIFY_ALL_SHA256 = "121a65f762c21d2e7b1910c4c84713f7fbc7265b638895930a8ac8c6a1246abf"


def test_verify_all_report_bytes_pinned(capsys):
    assert main(["verify-all", "--format", "json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert json.loads(out)["counts"] == {"pass": 68, "fail": 0, "flagged": 11}
    assert hashlib.sha256(out).hexdigest() == VERIFY_ALL_SHA256


@pytest.mark.parametrize("seed", ["0", "1", "7"])
def test_verify_all_report_is_seed_independent(capsys, seed):
    # the random octonion pairs must not change the report bytes
    assert main(["verify-all", "--format", "json", "--seed", seed]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == VERIFY_ALL_SHA256


# sha256 of the stdout of the exact commands; `su3 --fix 1,0,0,1,0,0,1/2`
# has a non-integral stabilizer basis, `isotropic --sector 23` carries 1/sqrt2
# and `electroweak` sqrt5
EXACT_OUTPUT_SHA256 = {
    ("proca-table",): "d20c43ef8c47f7176605fa2293d033d949f0b9dd82893f3ca8d09bd9cbb2359e",
    ("proca-table", "--format", "csv"): "237166c6596baa85fba624eca74f8c04a89fa8fa6aea3d52ca93f8cfff56c160",
    ("proca-table", "--format", "json"): "bb91dd1f4d8d5023832160f717557ad2f377fc3061b5d88c373cf85e30983c60",
    ("su3", "--fix", "e4"): "a56108cf7254397ac4eae23af588ee9036e163541d6a1131ecab5fdecec5dc12",
    ("su3", "--fix", "e4", "--format", "text"): "9dbed0c2ac8beadf80e37133806b4b44547a9124a203a7245aef8497abe637b1",
    ("su3", "--fix", "e1"): "ac231a8b9a41fed7960ccac964dd5093c39586849c65b9091f9c88dac54f1899",
    ("su3", "--fix", "1,0,0,1,0,0,1/2"): "717b982a07bfe1663722a4673a38b0f71e233965c01eb350bc0daacce9fa4bd8",
    ("octonion", "verify"): "bea8c5c382aaa6826f39c53fc2b30e46068ebb6e1246d580809ea94d9b1b0009",
    ("octonion", "verify", "--format", "json"): "0c687c1eaa9f5cae03972d258d1fc3d867e6b7306a68cc21844f40d658242a22",
    ("verify-all",): "e47b42446b08c0b865958750cb6dd24e83e583a5faf634a2508a7f961b0824b5",
    ("census",): "a8465edc5d1a0e863b1643bc49ebd878a554e1364ce19e6a527e7f416fbfbd9d",
    ("census", "--format", "json"): "45e69e8b6b150aa1e1dff0682b6d55fb5fc150722299d8eef414abb3adc40084",
    ("isotropic", "--sector", "33", "--format", "json"): "203819430bc6b0ac53b3616e8c2db35604eef92969347968b005344b5b3ba631",
    ("isotropic", "--sector", "23", "--format", "json"): "f76aad971d6ecc6f1949f32fb86c4517452c03b81da29d8e5496075e2393e0b8",
    ("isotropic", "--sector", "13", "--format", "json"): "3c05685fc76d93bfc0f6425b4859f74e1acb8ae9256c1938fec758edbb16a7ce",
    ("isotropic", "--sector", "13"): "72d3d81ef287e6b4820c85a0ece0ac072abddf0a237b3c20c3703ca580579543",
    ("electroweak",): "75b5461d6810bd816118227c741c2887705deadba537eebf6a3a3c8689ba5452",
}


@pytest.mark.parametrize("argv", sorted(EXACT_OUTPUT_SHA256), ids=" ".join)
def test_exact_output_bytes_pinned(capsys, argv):
    main(list(argv))
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == EXACT_OUTPUT_SHA256[argv]


def _child(argv, **env):
    """Run python with argv in a child process that imports this jetgauge."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(jetgauge.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return subprocess.run([sys.executable, *argv], capture_output=True, check=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env))


@pytest.mark.parametrize("argv", [("verify-all", "--format", "json"),
                                  ("isotropic", "--sector", "23", "--format", "json")],
                         ids=" ".join)
def test_pinned_bytes_hold_on_a_non_fma_blas_kernel(argv):
    # OpenBLAS's Sandybridge kernels multiply and add in separate roundings;
    # the float rows print the same bits because no BLAS computes them
    out = _child(["-m", "jetgauge.cli", *argv], OPENBLAS_CORETYPE="Sandybridge").stdout
    digest = {**EXACT_OUTPUT_SHA256, ("verify-all", "--format", "json"): VERIFY_ALL_SHA256}[argv]
    assert hashlib.sha256(out).hexdigest() == digest


def test_exact_layer_imports_no_numpy():
    code = (
        "import sys\n"
        "from jetgauge import electroweak, proca, verify\n"
        "verify.build_report()\n"
        "electroweak.breaking_report()\n"
        "proca.u1y_finite_rotation_residual(proca.isotropic_23_basis(), 0.7)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert _child(["-c", code]).stdout == b"False\n"


def test_float_layer_imports_no_exact_module():
    # dynamics and curvature meet the exact layer only in cli
    code = (
        "import sys\n"
        "import jetgauge.curvature, jetgauge.dynamics\n"
        "print(sorted(m for m in ('proca', 'liealg', 'exactnum') if 'jetgauge.' + m in sys.modules))\n"
    )
    assert _child(["-c", code]).stdout == b"[]\n"


# sha256 of `pheno <what> --format <format>` stdout with the default constants
PHENO_SHA256 = {
    ("table1", "text"): "71ad1dad7a39e8431bf612601c6cc5be16568f2cd4f0ec76cf775adf640be1dd",
    ("table1", "json"): "c8708fd5f56077d92d98a2760661ae9ab71d43de0ac48ddf05b18d24cb7a49e1",
    ("consistency", "text"): "d43331dd6866fb8d2bb5c2c6417b7e63762a42fe667ab90197e905fb1a7f6f05",
    ("consistency", "json"): "8fd8c71141232eff0ef70ca2dc3c6396c46a438a04234ed5876156ea0f3aa7da",
    ("predict", "text"): "5f69e16ab5de1203ced931757f4b5bbef664dbf83472f6501dba4d7724cde1d2",
    ("predict", "json"): "7f8f51073f9f9e28d130df772b8ed6aa2d6bdd5a49110af316b391ab89e2af46",
}


@pytest.mark.parametrize("what, fmt", sorted(PHENO_SHA256))
def test_pheno_report_bytes_pinned(capsys, what, fmt):
    assert main(["pheno", what, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == PHENO_SHA256[what, fmt]


def test_exit_code_contract_on_failure():
    rep = VerificationReport()
    s = rep.suite("demo")
    s.check("good", True)
    assert rep.exit_code == 0
    s.check("bad", False)
    assert rep.exit_code == 1
    s2 = VerificationReport()
    st = s2.suite("flag-only")
    st.flag("note", "reference-data inconsistency")
    assert s2.exit_code == 0  # flagged rows never fail a run

    # measured rows: past tolerance a row fails, unless a note flags it
    rep = VerificationReport()
    s = rep.suite("measured")
    c = s.measure("inside", 1.00005, "GeV", 1.0, 1e-4)
    assert c.status == "pass" and c.deviation == pytest.approx(5e-5)
    assert rep.exit_code == 0
    c = s.measure("outside", 1.001, "GeV", 1.0, 1e-4)
    assert c.status == "fail" and rep.exit_code == 1
    flagged = VerificationReport()
    c = flagged.suite("noted").measure("outside", 1.001, "GeV", 1.0, 1e-4,
                                       note="the reference contradicts itself")
    assert c.status == FLAGGED and c.detail == "the reference contradicts itself"
    assert flagged.exit_code == 0
    # "abs" compares |actual - expected|, "rel" divides it by |expected|
    assert s.measure("rel", 3.0, "", 2.0, 0.6).deviation == 0.5
    c = s.measure("abs", 3.0, "", 2.0, 0.6, kind="abs")
    assert c.deviation == 1.0 and c.status == "fail"
    c = s.measure("unreferenced", 7.0, "cm")
    assert c.deviation is None and c.status == "pass"
    # a NaN would pass any tolerance, so a non-finite value is refused
    for value in (float("nan"), float("inf")):
        with pytest.raises(FloatingPointError):
            s.measure("non-finite", value, "GeV", 1.0, 1e-4)


def test_simulate_csv(tmp_path, capsys):
    traj_path = tmp_path / "traj.csv"
    cfg = {
        "field": {"kind": "uniform_B", "params": {"B": [0, 0, 1.0]}},
        "particle": {"x0": [0, 0, 0, 0], "u0": [1.0, 0.01, 0, 0], "m": 1.0, "q": 1.0},
        "integrator": {"dlambda": 0.01, "steps": 50},
        "output": {"path": str(traj_path), "format": "csv"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    rows = list(csv.reader(traj_path.read_text().splitlines()))
    assert rows[0] == ["lambda", "x0", "x1", "x2", "x3", "u0", "u1", "u2", "u3"]
    assert len(rows) == 52  # header + 51 samples


def test_simulate_wong_abelian(tmp_path, capsys):
    traj_path = tmp_path / "traj.json"
    cfg = {
        "field": {"kind": "uniform_E", "params": {"E": [0.5, 0, 0]}},
        "particle": {
            "x0": [0, 0, 0, 0],
            "u0": [1.0, 0, 0, 0],
            "m": 1.0,
            "q": 1.0,
            "I": {"dim": 2, "pair": [1, 2], "value": 0.5},
        },
        "integrator": {"dlambda": 0.01, "steps": 20},
        "output": {"path": str(traj_path), "format": "json"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    data = json.loads(traj_path.read_text())
    assert data["meta"]["law"] == "wong"
    assert len(data["samples"]) == 21


def test_simulate_bad_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{\"field\": {\"kind\": \"warp\"}}", encoding="utf-8")
    assert main(["simulate", "--config", str(cfg_path)]) == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jetgauge.cli", "signature", "--axes", "4", "--order", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(4, 10)"


def _simulate_config(tmp_path, field, particle, dlambda, steps):
    cfg = {
        "field": field,
        "particle": particle,
        "integrator": {"dlambda": dlambda, "steps": steps},
        "output": {"path": str(tmp_path / "traj.csv"), "format": "csv"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(cfg_path)


def one_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err, err
    return lines[0]


def test_simulate_charge_without_dim_names_key(tmp_path, capsys):
    particle = {"x0": [0, 0, 0, 0], "u0": [1.0, 0.1, 0, 0], "m": 1.0, "q": 1.0,
                "I": {"pair": [1, 2], "value": 0.5}}
    cfg = _simulate_config(tmp_path, {"kind": "uniform_B", "params": {"B": [0, 0, 1.0]}},
                           particle, 0.01, 5)
    assert main(["simulate", "--config", cfg]) == 2
    assert "particle.I.dim" in one_line(capsys.readouterr().err)
    assert not (tmp_path / "traj.csv").exists()


def test_simulate_divergence_exits_1_with_step(tmp_path, capsys):
    particle = {"x0": [0, 0, 0, 0], "u0": [1.0, 1e5, 0, 0], "m": 1.0, "q": 1.0}
    cfg = _simulate_config(tmp_path, {"kind": "uniform_B", "params": {"B": [0, 0, 1e308]}},
                           particle, 1, 10)
    assert main(["simulate", "--config", cfg]) == 1
    assert "step 1" in one_line(capsys.readouterr().err)
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("where", ["a directory", "a missing directory"])
def test_simulate_unwritable_output_path_exits_2_before_integrating(tmp_path, capsys, where):
    # 200k steps take seconds; the path is checked before the first one
    particle = {"x0": [0, 0, 0, 0], "u0": [1.0, 0.1, 0, 0], "m": 1.0, "q": 1.0}
    cfg = _simulate_config(tmp_path, {"kind": "uniform_B", "params": {"B": [0, 0, 1.0]}},
                           particle, 0.001, 200_000)
    data = json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8"))
    path = tmp_path if where == "a directory" else tmp_path / "missing" / "traj.csv"
    data["output"]["path"] = str(path)
    (tmp_path / "cfg.json").write_text(json.dumps(data), encoding="utf-8")
    start = time.perf_counter()
    assert main(["simulate", "--config", cfg]) == 2
    assert time.perf_counter() - start < 1.0
    assert one_line(capsys.readouterr().err).startswith("bad simulate config: output.path: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_simulate_divergence_keeps_an_existing_output_file(tmp_path, capsys):
    particle = {"x0": [0, 0, 0, 0], "u0": [1.0, 1e5, 0, 0], "m": 1.0, "q": 1.0}
    cfg = _simulate_config(tmp_path, {"kind": "uniform_B", "params": {"B": [0, 0, 1e308]}},
                           particle, 1, 10)
    (tmp_path / "traj.csv").write_text("earlier run\n", encoding="utf-8")
    assert main(["simulate", "--config", cfg]) == 1
    assert (tmp_path / "traj.csv").read_text(encoding="utf-8") == "earlier run\n"


@pytest.mark.parametrize("bz, value", [(1.5e308, 0.7), (1.0, 1e308)])
def test_simulate_wong_at_rest_in_a_huge_field_exits_0(tmp_path, capsys, bz, value):
    """The Wong force is that of value F, finite here though 2 value F is
    not; a particle at rest in a magnetic field feels none of it."""
    particle = {"x0": [0, 0, 0, 0], "u0": [1.0, 0, 0, 0], "m": 1.0, "q": 1.0,
                "I": {"dim": 3, "pair": [1, 2], "value": value}}
    cfg = _simulate_config(tmp_path, {"kind": "uniform_B", "params": {"B": [0, 0, bz]}},
                           particle, 0.01, 5)
    assert main(["simulate", "--config", cfg]) == 0
    rows = list(csv.reader((tmp_path / "traj.csv").read_text().splitlines()))
    assert rows[-1] == ["0.05", "0.05", "0.0", "0.0", "0.0", "1.0", "0.0", "0.0", "0.0"]


NAN, INF = float("nan"), float("inf")
BAD_VALUES = [
    ("integrator.dlambda", NAN), ("integrator.dlambda", INF),
    ("integrator.dlambda", -0.01), ("integrator.dlambda", 0),
    ("particle.m", NAN), ("particle.q", -INF), ("output.format", "jsn"),
    ("particle.u0", [1.0, NAN, 0, 0]), ("particle.x0", [0, 0, 0]),
    ("particle.x0", [0, INF, 0, 0]), ("particle.u0", "up"), ("particle.u0", [1.0, True, 0, 0]),
    ("integrator.steps", cli.MAX_STEPS + 1),  # rejected before the table is allocated
]
# each field value is read by its own field kind only
BAD_FIELDS = [
    ("uniform_B", "field.params.B", [0, 0, NAN]), ("uniform_B", "field.params.B", [0, 1.0]),
    ("uniform_E", "field.params.E", [0.5, 0, 0, 0]), ("uniform_E", "field.params.E", [-INF, 0, 0]),
]


@pytest.mark.parametrize(
    "kind, key, value",
    [(kind, key, value) for kind in ("uniform_B", "grid") for key, value in BAD_VALUES]
    + BAD_FIELDS,
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, list) else None,
)
def test_simulate_rejects_bad_values_before_integrating(tmp_path, capsys, kind, key, value):
    field = {"kind": kind, "params": {"B": [0, 0, 1.0], "E": [0.5, 0, 0]}}
    if kind == "grid":
        small_grid_npz(tmp_path / "grid.npz")
        field = {"kind": "grid", "params": {"npz": str(tmp_path / "grid.npz")}}
    particle = {"x0": [0, 0, 0, 0], "u0": [1.0, 0.1, 0, 0], "m": 1.0, "q": 1.0}
    cfg = _simulate_config(tmp_path, field, particle, 0.01, 5)
    data = json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8"))
    *parents, name = key.split(".")
    node = data
    for part in parents:
        node = node[part]
    node[name] = value
    (tmp_path / "cfg.json").write_text(json.dumps(data), encoding="utf-8")  # NaN, Infinity
    assert main(["simulate", "--config", cfg]) == 2
    line = one_line(capsys.readouterr().err)
    assert line.startswith("bad simulate config:") and key in line
    assert not (tmp_path / "traj.csv").exists()


def test_pheno_unknown_constant_exits_2(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"M_W": 80.4, "not_a_constant": 1.0}), encoding="utf-8")
    assert main(["pheno", "table1", "--constants", str(path)]) == 2
    assert "not_a_constant" in one_line(capsys.readouterr().err)
    path.write_text(json.dumps({"M_W": "heavy"}), encoding="utf-8")
    assert main(["pheno", "table1", "--constants", str(path)]) == 2
    assert "M_W" in one_line(capsys.readouterr().err)


# JSON reads NaN and Infinity; M_W**2 overflows at 1e200; e_cgs = 1e300 makes
# both predicted masses inf, so their ratio comes out NaN
@pytest.mark.parametrize("constants, argv, message", [
    ('{"M_W": NaN}', ["pheno", "table1"], "M_W must be finite and positive"),
    ('{"M_W": Infinity}', ["pheno", "table1"], "M_W must be finite and positive"),
    ('{"M_W": NaN}', ["verify-all"], "M_W must be finite and positive"),
    ('{"M_W": Infinity}', ["verify-all"], "M_W must be finite and positive"),
    ('{"M_W": 1e200}', ["pheno", "consistency"], "pheno consistency out of float range"),
    ('{"M_W": 1e200}', ["verify-all"], "pheno table1 out of float range"),
    ('{"e_cgs": 1e300}', ["pheno", "predict"], "M_W predicted = nan"),
    ('{"M_W": 1%s}' % ("0" * 400), ["pheno", "table1"],
     "M_W must be finite and positive, got an integer beyond float range"),
    ('{"M_W": 1%s}' % ("0" * 400), ["verify-all"],
     "M_W must be finite and positive, got an integer beyond float range"),
], ids=["table1-nan", "table1-inf", "verify-nan", "verify-inf", "consistency-overflow",
        "verify-overflow", "predict-nan-result", "table1-huge-int", "verify-huge-int"])
def test_constants_out_of_range_exit_2(tmp_path, capsys, constants, argv, message):
    path = tmp_path / "k.json"
    path.write_text(constants, encoding="utf-8")
    assert main([*argv, "--constants", str(path)]) == 2
    captured = capsys.readouterr()
    line = one_line(captured.err)
    assert line.startswith("error:") and message in line
    assert captured.out == ""


def test_verify_all_rejects_constants_before_any_suite(tmp_path, capsys, monkeypatch):
    from jetgauge import verify

    calls = []
    for name in [n for n in vars(verify) if n.startswith("suite_")]:
        monkeypatch.setattr(verify, name, lambda *a, n=name: calls.append(n))
    path = tmp_path / "k.json"
    path.write_text('{"M_W": 1e200}', encoding="utf-8")
    assert main(["verify-all", "--constants", str(path)]) == 2
    assert "pheno table1 out of float range" in one_line(capsys.readouterr().err)
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["signature", "--axes", "4", "--order", "1", "--seed", "1"],
    ["signature", "--axes", "4", "--order", "1", "--full-precision"],
    ["census", "--full-precision"],
    ["proca-table", "--full-precision"],
    ["su3", "--full-precision"],
    ["su3", "--seed", "1"],
    ["pheno", "table1", "--seed", "1"],
    ["isotropic", "--seed", "1"],
    ["electroweak", "--seed", "1"],
], ids="-".join)
def test_options_exist_only_where_read(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_all_keeps_seed(capsys):
    # the argv of perfbench's verify_all workload; its simulate argv with
    # --full-precision runs in test_simulate_grid_json_bytes_pinned
    assert main(["verify-all", "--format", "json", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["fail"] == 0


def test_su3_malformed_fix_exits_2(capsys):
    assert main(["su3", "--fix", "1,2,3"]) == 2
    assert "--fix" in one_line(capsys.readouterr().err)


@pytest.mark.parametrize("fix", ["1/0,0,0,0,0,0,0", "0/0,0,0,0,0,0,1"], ids=["1/0", "0/0"])
def test_su3_fix_with_a_zero_denominator_exits_2(capsys, fix):
    assert main(["su3", "--fix", fix]) == 2
    captured = capsys.readouterr()
    assert one_line(captured.err).startswith("error: --fix") and captured.out == ""


@pytest.mark.parametrize("fix", ["1e4000,0,0,0,0,0,1", "1e2000000,0,0,0,0,0,1",
                                 "9" * 5000 + ",0,0,0,0,0,1", "e" + "9" * 5000],
                         ids=["1e4000", "1e2000000", "5000-digit", "e-5000-digit"])
def test_su3_fix_over_the_literal_cap_exits_2_at_once(capsys, fix):
    # Fraction would build 10**2000000 and the stabilizer would run on it
    start = time.perf_counter()
    assert main(["su3", "--fix", fix]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert one_line(captured.err).startswith("error: --fix") and captured.out == ""
    assert "longer than 100 characters or has an exponent of more than two digits" in captured.err
    assert len(captured.err) < 200  # the argument is echoed only in part


@pytest.mark.parametrize("fix", ["x,0,0,0,0,0,0,0", "1/0," * 100_000 + "1"],
                         ids=["8-literals", "100001-literals"])
def test_su3_fix_count_is_checked_before_any_literal_is_parsed(capsys, fix):
    assert main(["su3", "--fix", fix]) == 2
    line = one_line(capsys.readouterr().err)
    assert "expected a unit like e4 or 7 comma-separated rationals" in line and len(line) < 200


def test_su3_fix_at_the_literal_cap_is_accepted(capsys):
    big = "9" * 97 + "e99"  # 100 characters
    assert len(big) == 100
    assert main(["su3", "--fix", ",".join([big, "1e-99", "1e+0_99", "0", "0", "0", "1"])]) == 0
    assert str(10**196 - 10**99) in capsys.readouterr().out


# sha256 of the bytes `simulate` writes: a change to the RK4 arithmetic order,
# the float formatting or the CSV/JSON layout shows here.
UNIFORM_CSV_SHA256 = "ab42bb685b92227000f17f1c8660f0a607d3d8da35dca92ba76ca65b8c1377d0"
GRID_JSON_SHA256 = {
    "lorentz": "e5458ab2ada80b045b87d6ece65303e3e3c803998c09cfac6dcd6bd51d090d2f",
    "wong": "cea851695770d8fb74f9c02d11ad59ca1814299a501c360050cb3a9544cf0429",
}
# the same runs without --full-precision
GRID_ROUNDED_JSON_SHA256 = {
    "lorentz": "818d352a2f9edbd298a70538cfde9d879bdf57ca72e00513f4be021fada739b1",
    "wong": "72df577e16495215a3e7b9eabe5e321cd2b1f900c8ea8dcf145bcf7e6062db03",
}
# the constant-field runs: field kind and law -> sha256 of the CSV
CONSTANT_CSV_SHA256 = {
    ("uniform_B", "lorentz"): UNIFORM_CSV_SHA256,
    ("uniform_E", "lorentz"): "f912d1bd3a768169f835fa8ba2f2d9df7d07ed9ee88bbb3b9e757b77a77fa68a",
    ("uniform_B", "wong"): "07c0febb4be3c9b47d4f9287f580fcd69ed5bb14225557f2be5cc971f791c71d",
}
CONSTANT_FIELDS = {
    "uniform_B": {"kind": "uniform_B", "params": {"B": [0.3, -0.7, 1.1]}},
    "uniform_E": {"kind": "uniform_E", "params": {"E": [0.4, 0.2, -0.9]}},
}


def constant_field_config(tmp_path, kind, law):
    """200 steps of one particle in a constant field, written as CSV."""
    particle = {"x0": [0.1, -0.2, 0.3, 0.05], "u0": [1.2, 0.3, -0.4, 0.5], "m": 0.9, "q": 1.3}
    if law == "wong":
        particle["I"] = {"dim": 3, "pair": [1, 3], "value": 0.7}
    return _simulate_config(tmp_path, CONSTANT_FIELDS[kind], particle, 0.01, 200)


def written_csv_sha256(tmp_path):
    data = (tmp_path / "traj.csv").read_bytes()
    assert data.count(b"\r\n") == 202  # header + 201 samples
    return hashlib.sha256(data).hexdigest()


def test_simulate_uniform_csv_bytes_pinned(tmp_path, capsys):
    cfg = constant_field_config(tmp_path, "uniform_B", "lorentz")
    assert main(["simulate", "--config", cfg]) == 0
    assert written_csv_sha256(tmp_path) == UNIFORM_CSV_SHA256


@pytest.mark.parametrize("kind, law", [("uniform_E", "lorentz"), ("uniform_B", "wong")])
def test_simulate_constant_field_csv_bytes_pinned(tmp_path, capsys, kind, law):
    assert main(["simulate", "--config", constant_field_config(tmp_path, kind, law)]) == 0
    assert written_csv_sha256(tmp_path) == CONSTANT_CSV_SHA256[kind, law]


@pytest.mark.parametrize("kind, law", sorted(CONSTANT_CSV_SHA256))
def test_simulate_through_a_wrapped_field_evaluator(tmp_path, capsys, monkeypatch, kind, law):
    """Run tracing (perfbench/instrument.py) replaces cli._field_from_config
    by a function that wraps each evaluator it returns in a pass-through
    callable; the integrator takes that callable and writes the same bytes."""
    build, calls = cli._field_from_config, []

    def wrapped(cfg):
        f_eval = build(cfg)

        def traced(*args, **kwargs):
            calls.append(args)
            return f_eval(*args, **kwargs)

        return traced

    monkeypatch.setattr(cli, "_field_from_config", wrapped)
    assert main(["simulate", "--config", constant_field_config(tmp_path, kind, law)]) == 0
    assert len(calls) == 4 * 200
    assert written_csv_sha256(tmp_path) == CONSTANT_CSV_SHA256[kind, law]


def small_grid_npz(path):
    """An 8^4-node grid of a cubic metric, filled elementwise (no BLAS).  Each
    row of F has three nonzero entries, so the matvec order shows in the bytes."""
    n, h = 8, 0.125
    origin = np.array([-0.5, -0.25, 0.0, -0.375])
    t, a, b, c = origin[:, None, None, None, None] + h * np.indices((n,) * 4)
    g = np.stack([
        1.2 * a * b + 0.8 * c * c - 0.4 * t * a,
        2.0 * t * c + b * b * a,
        -1.6 * t * a + 1.2 * c * a + 0.4 * t * t,
        0.8 * a * a - 1.4 * t * b + 0.6 * b * c * t,
    ])
    np.savez(path, g=g, origin=origin, spacing=h)
    return origin, h


def grid_config(tmp_path, law):
    """A config of 200 steps on small_grid_npz, written as JSON."""
    origin, h = small_grid_npz(tmp_path / "grid.npz")
    x0 = origin + h * np.array([2.5, 3.5, 3.5, 3.5])
    particle = {"x0": x0.tolist(), "u0": [1.1, 0.3, -0.2, 0.25], "m": 0.8, "q": 1.2}
    if law == "wong":
        particle["I"] = {"dim": 3, "pair": [1, 3], "value": 0.7}
    cfg = {
        "field": {"kind": "grid", "params": {"npz": str(tmp_path / "grid.npz")}},
        "particle": particle,
        "integrator": {"dlambda": 0.001, "steps": 200},
        "output": {"path": str(tmp_path / "traj.json"), "format": "json"},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    return str(tmp_path / "cfg.json")


def grid_json(tmp_path, law, *flags):
    """The JSON bytes of 200 steps on small_grid_npz."""
    assert main(["simulate", "--config", grid_config(tmp_path, law), *flags]) == 0
    data = (tmp_path / "traj.json").read_bytes()
    assert len(json.loads(data)["samples"]) == 201
    return data


@pytest.mark.parametrize("law", ["lorentz", "wong"])
def test_simulate_grid_json_bytes_pinned(tmp_path, capsys, law):
    data = grid_json(tmp_path, law, "--full-precision")
    assert hashlib.sha256(data).hexdigest() == GRID_JSON_SHA256[law]


@pytest.mark.parametrize("law", ["lorentz", "wong"])
def test_simulate_grid_rounded_json_bytes_pinned(tmp_path, capsys, law):
    """Without --full-precision every float is rounded to 6 digits first."""
    data = grid_json(tmp_path, law)
    assert hashlib.sha256(data).hexdigest() == GRID_ROUNDED_JSON_SHA256[law]


@pytest.mark.parametrize("law", ["lorentz", "wong"])
def test_simulate_zero_steps_never_evaluates_the_field(tmp_path, capsys, law):
    """x0 on the grid's corner node, where the stencil leaves the grid: with
    no step taken, neither law reads the field."""
    origin, _ = small_grid_npz(tmp_path / "grid.npz")
    particle = {"x0": origin.tolist(), "u0": [1.0, 0, 0, 0], "m": 1.0, "q": 1.0}
    if law == "wong":
        particle["I"] = {"dim": 3, "pair": [1, 3], "value": 0.7}
    field = {"kind": "grid", "params": {"npz": str(tmp_path / "grid.npz")}}
    cfg = _simulate_config(tmp_path, field, particle, 0.01, 0)
    assert main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / "traj.csv").read_bytes().count(b"\r\n") == 2


def small_grid_arrays(tmp_path):
    """The arrays of small_grid_npz, read back."""
    small_grid_npz(tmp_path / "grid.npz")
    with np.load(tmp_path / "grid.npz") as data:
        return {name: data[name] for name in data.files}


def simulate_on_arrays(tmp_path, save=np.savez, **arrays):
    """Exit code and output of grid_config's run with the .npz holding these arrays."""
    cfg = grid_config(tmp_path, "lorentz")
    (tmp_path / "grid.npz").unlink()
    save(tmp_path / "grid.npz", **arrays)
    code = main(["simulate", "--config", cfg, "--full-precision"])
    out = tmp_path / "traj.json"
    return code, out.read_bytes() if out.exists() else None


def changed(arrays, name, value):
    arrays = dict(arrays)
    if value is None:
        del arrays[name]
    else:
        arrays[name] = value
    return arrays


BAD_GRID_ARRAYS = {
    "zero-spacing": ("spacing", 0.0, "spacing must be positive and finite"),
    "negative-spacing": ("spacing", -0.125, "spacing must be positive and finite"),
    "nan-spacing": ("spacing", NAN, "spacing must be positive and finite"),
    "inf-spacing": ("spacing", INF, "spacing must be positive and finite"),
    "two-spacings": ("spacing", [0.125, 0.125], "spacing must be one number"),
    "origin-of-3": ("origin", [-0.5, -0.25, 0.0], "origin must be 4 finite numbers"),
    "nan-origin": ("origin", [-0.5, NAN, 0.0, 0.0], "origin must be 4 finite numbers"),
    "g-of-3-components": ("g", lambda g: g[:3], "grid values must have shape (4, n0"),
    "g-of-4-axes": ("g", lambda g: g[..., 0], "grid values must have shape (4, n0"),
    "missing-g": ("g", None, "missing array 'g'"),
    "missing-origin": ("origin", None, "missing array 'origin'"),
    "missing-spacing": ("spacing", None, "missing array 'spacing'"),
    "complex-g": ("g", lambda g: g.astype(complex), "dtype '<c16'"),
    "float16-g": ("g", lambda g: g.astype(np.float16), "dtype '<f2'"),
    "bool-g": ("g", lambda g: g > 0, "dtype '|b1'"),
    "text-spacing": ("spacing", np.array("0.125"), "dtype '<U5'"),
}


@pytest.mark.parametrize("case", sorted(BAD_GRID_ARRAYS))
def test_simulate_rejects_a_bad_grid_npz(tmp_path, capsys, case):
    name, value, message = BAD_GRID_ARRAYS[case]
    arrays = small_grid_arrays(tmp_path)
    if callable(value):
        value = value(arrays[name])
    code, out = simulate_on_arrays(tmp_path, **changed(arrays, name, value))
    assert code == 2 and out is None
    line = one_line(capsys.readouterr().err)
    assert line.startswith("bad simulate config: field.params.npz: ") and message in line


def central_headers_changed(data, offset, bits):
    """The archive with these bits set in byte `offset` of each central
    directory header."""
    data, i = bytearray(data), 0
    while (i := data.find(b"PK\x01\x02", i)) >= 0:
        data[i + offset] |= bits
        i += 4
    return bytes(data)


@pytest.mark.parametrize("content", [
    b"not a zip archive",
    b"\x93NUMPY\x01\x00",
    lambda npz: npz[: len(npz) // 2],
    lambda npz: central_headers_changed(npz, 8, 1),  # the encrypted flag
    lambda npz: central_headers_changed(npz, 10, 99),  # compression method 0 -> 99
], ids=["text", "npy-not-npz", "truncated", "encrypted", "unknown-compression"])
def test_simulate_rejects_a_grid_file_that_is_no_npz(tmp_path, capsys, content):
    cfg = grid_config(tmp_path, "lorentz")
    npz = (tmp_path / "grid.npz").read_bytes()
    (tmp_path / "grid.npz").write_bytes(content(npz) if callable(content) else content)
    assert main(["simulate", "--config", cfg]) == 2
    line = one_line(capsys.readouterr().err)
    assert line.startswith("bad simulate config: field.params.npz: not a readable .npz archive")


def test_simulate_reads_every_accepted_grid_layout(tmp_path, capsys):
    """float32, big-endian, Fortran-order and compressed arrays read as the
    float64 values they hold (every dtype: test_read_npz_matches_np_load)."""
    arrays = small_grid_arrays(tmp_path)
    g32 = arrays["g"].astype("<f4")
    code, want = simulate_on_arrays(tmp_path, **dict(arrays, g=g32.astype(float)))
    assert code == 0
    for save, layout in ((np.savez, dict(arrays, g=g32)),
                         (np.savez_compressed, dict(
                             g=np.asfortranarray(g32.astype(">f8")),
                             origin=arrays["origin"].astype(">f4"),
                             spacing=arrays["spacing"].astype(">f8")))):
        assert simulate_on_arrays(tmp_path, save=save, **layout) == (0, want)


def test_simulate_stops_at_a_node_whose_field_is_not_finite(tmp_path, capsys):
    arrays = small_grid_arrays(tmp_path)
    g = arrays["g"].copy()
    g[0, 2, 3, 3, 5] = INF  # d_3 g_0 at node (2, 3, 3, 3), a corner of the start cell
    assert simulate_on_arrays(tmp_path, **dict(arrays, g=g)) == (2, None)
    line = one_line(capsys.readouterr().err)
    assert line == "error: field strength at grid node (2, 3, 3, 3) is not finite"


def test_simulate_wong_in_a_huge_so_dim(tmp_path, capsys):
    """X_13 and I = 0.7 X_13 list two entries each at any dim, and pair to 0.7."""
    cfg = constant_field_config(tmp_path, "uniform_B", "wong")
    data = json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8"))
    data["particle"]["I"]["dim"] = 10**9
    (tmp_path / "cfg.json").write_text(json.dumps(data), encoding="utf-8")
    assert main(["simulate", "--config", cfg]) == 0
    assert written_csv_sha256(tmp_path) == CONSTANT_CSV_SHA256["uniform_B", "wong"]


# sha256 of a 5,000-step uniform_B run: the samples cross four block seams
# and end on a partial block; the 200-step pins above fit in one block
SEAM_SHA256 = {
    "csv": "99a53d81294e22ea2846a55b1a542730de48a41c1dcb515df8d5d4acf03d098c",
    "json --full-precision": "707389f84c1e3ef20d9bcca786e9940ae01d507618e57ffba826978307adfc8e",
    "json": "2f33382619715e98ad1b97bdae2aa93c9b05c578268c58498b7120fb19f79487",
}


def simulate_written(tmp_path, fmt, steps, *flags):
    """The bytes the constant_field_config particle writes in uniform_B over
    `steps` steps, in format fmt."""
    cfg = constant_field_config(tmp_path, "uniform_B", "lorentz")
    data = json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8"))
    data["integrator"]["steps"] = steps
    data["output"] = {"path": str(tmp_path / f"traj.{fmt}"), "format": fmt}
    (tmp_path / "cfg.json").write_text(json.dumps(data), encoding="utf-8")
    assert main(["simulate", "--config", cfg, *flags]) == 0
    return (tmp_path / f"traj.{fmt}").read_bytes()


@pytest.mark.parametrize("output", sorted(SEAM_SHA256))
def test_simulate_block_seams_bytes_pinned(tmp_path, capsys, output):
    fmt, *flags = output.split()
    data = simulate_written(tmp_path, fmt, 5000, *flags)
    assert 5000 % BLOCK_STEPS and 5000 > 4 * BLOCK_STEPS
    assert hashlib.sha256(data).hexdigest() == SEAM_SHA256[output]


@pytest.mark.parametrize("output", sorted(SEAM_SHA256))
@pytest.mark.parametrize("steps", [0, 1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1])
def test_simulate_forked_and_in_process_writers_agree(tmp_path, capsys, monkeypatch,
                                                      output, steps):
    fmt, *flags = output.split()
    forked = simulate_written(tmp_path, fmt, steps, *flags)
    monkeypatch.delattr(os, "fork")
    assert simulate_written(tmp_path, fmt, steps, *flags) == forked
    rows = forked.count(b"\r\n") - 1 if fmt == "csv" else len(json.loads(forked)["samples"])
    assert rows == steps + 1


@pytest.mark.parametrize("kind, law", sorted(CONSTANT_CSV_SHA256))
def test_simulate_in_process_writer_csv_bytes_pinned(tmp_path, capsys, monkeypatch, kind, law):
    """Without os.fork the same formatter writes the pinned bytes in process."""
    monkeypatch.delattr(os, "fork")
    assert main(["simulate", "--config", constant_field_config(tmp_path, kind, law)]) == 0
    assert written_csv_sha256(tmp_path) == CONSTANT_CSV_SHA256[kind, law]


@pytest.mark.parametrize("law", ["lorentz", "wong"])
def test_simulate_in_process_writer_grid_json_bytes_pinned(tmp_path, capsys, monkeypatch, law):
    monkeypatch.delattr(os, "fork")
    data = grid_json(tmp_path, law, "--full-precision")
    assert hashlib.sha256(data).hexdigest() == GRID_JSON_SHA256[law]
    data = grid_json(tmp_path, law)
    assert hashlib.sha256(data).hexdigest() == GRID_ROUNDED_JSON_SHA256[law]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open files in /proc")
def test_simulate_fork_failure_exits_2_and_closes_its_pipes(tmp_path, capsys, monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    cfg = constant_field_config(tmp_path, "uniform_B", "lorentz")
    monkeypatch.setattr(os, "fork", fork)
    open_fds = len(os.listdir("/proc/self/fd"))
    assert main(["simulate", "--config", cfg]) == 2
    assert one_line(capsys.readouterr().err) == "error: [Errno 11] Resource temporarily unavailable"
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert not (tmp_path / "traj.csv").exists()


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_simulate_write_failure_exits_2_with_one_line(tmp_path, capsys):
    """The writer reports its OSError; no traceback and no process is left."""
    cfg = constant_field_config(tmp_path, "uniform_B", "lorentz")
    data = json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8"))
    data["output"]["path"] = "/dev/full"
    (tmp_path / "cfg.json").write_text(json.dumps(data), encoding="utf-8")
    assert main(["simulate", "--config", cfg]) == 2
    assert one_line(capsys.readouterr().err) == "error: [Errno 28] No space left on device"
    assert_no_child_process()


# outcome -> (B_z, u0, dlambda, exit code); 5,000 steps each
OUTCOMES = {
    "success": (1.0, [1.0, 0.1, 0, 0], 0.01, 0),
    "config error": (1.0, [1.0, 0.1, 0, 0], -0.01, 2),
    "divergence": (1e308, [1.0, 1e5, 0, 0], 1.0, 1),
    "grid error": (None, [1.0, 0.5, 0, 0], 1e-4, 2),  # leaves the grid in block 3
}


@pytest.mark.parametrize("outcome", sorted(OUTCOMES))
def test_simulate_leaves_no_child_process(tmp_path, capsys, outcome):
    bz, u0, dlambda, code = OUTCOMES[outcome]
    field = {"kind": "uniform_B", "params": {"B": [0, 0, bz]}}
    x0 = [0, 0, 0, 0]
    if bz is None:
        origin, h = small_grid_npz(tmp_path / "grid.npz")
        field = {"kind": "grid", "params": {"npz": str(tmp_path / "grid.npz")}}
        x0 = (origin + 3 * h).tolist()
    particle = {"x0": x0, "u0": u0, "m": 1.0, "q": 1.0}
    assert main(["simulate", "--config",
                 _simulate_config(tmp_path, field, particle, dlambda, 5000)]) == code
    assert (tmp_path / "traj.csv").exists() == (code == 0)
    assert_no_child_process()


def test_simulate_rejects_an_integer_beyond_float_range(tmp_path, capsys):
    """json reads 1 followed by 400 zeros as an int, which no float holds."""
    particle = {"x0": [0, 0, 0, 0], "u0": [1.0, 0.1, 0, 0], "m": 10**400, "q": 1.0}
    cfg = _simulate_config(tmp_path, {"kind": "uniform_B", "params": {"B": [0, 0, 1.0]}},
                           particle, 0.01, 5)
    assert main(["simulate", "--config", cfg]) == 2
    line = one_line(capsys.readouterr().err)
    assert line == ("bad simulate config: particle.m must be a finite number, "
                    "got an integer beyond float range")
    assert not (tmp_path / "traj.csv").exists()


@pytest.fixture(scope="module")
def request_imports(tmp_path_factory):
    """One child imports jetgauge.cli, then runs verify-all and six simulate
    requests: the report path, and [exit code, loaded] after the import and
    after each request, where loaded lists which of numpy, dataclasses,
    inspect and csv are in sys.modules."""
    tmp_path = tmp_path_factory.mktemp("requests")
    argvs = [["verify-all", "--format", "json", "--out", str(tmp_path / "report.json")]]
    for kind, law in sorted(CONSTANT_CSV_SHA256):
        (tmp_path / f"{kind}-{law}").mkdir()
        argvs.append(["simulate", "--config",
                      constant_field_config(tmp_path / f"{kind}-{law}", kind, law)])
    for law in ("lorentz", "wong"):
        (tmp_path / f"grid-{law}").mkdir()
        argvs.append(["simulate", "--config", grid_config(tmp_path / f"grid-{law}", law)])
    code = (
        "import json, sys\n"
        "import jetgauge.cli\n"
        "def loaded():\n"
        "    return [m for m in ('numpy', 'dataclasses', 'inspect', 'csv') if m in sys.modules]\n"
        "seen = [[None, loaded()]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    seen.append([jetgauge.cli.main(argv), loaded()])\n"
        "print(json.dumps(seen))\n"
    )
    out = _child(["-c", code, json.dumps(argvs)]).stdout.decode().splitlines()[-1]
    seen = json.loads(out)
    assert [c for c, _ in seen] == [None] + [0] * len(argvs)
    return tmp_path / "report.json", seen


def test_cli_requests_import_no_numpy(request_imports):
    """import jetgauge.cli, verify-all and simulate leave numpy unimported."""
    report, seen = request_imports
    assert not any("numpy" in loaded for _, loaded in seen)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == VERIFY_ALL_SHA256


def test_cli_requests_import_no_dataclasses_inspect_or_csv(request_imports):
    """The package defines plain classes and imports no csv, so these
    requests skip dataclasses with inspect, ast, dis and tokenize."""
    _, seen = request_imports
    assert not any({"dataclasses", "inspect", "csv"} & set(loaded) for _, loaded in seen)


def reference_trajectory_json(traj, full_precision):
    """One dict per sample through dump_json: the oracle of writer.SampleText."""
    payload = {
        "meta": traj.meta,
        "samples": [
            {"lambda": r[0], "x": r[1:5], "u": r[5:9]}
            for r in np.asarray(traj.table).tolist()
        ],
    }
    return dump_json(payload, full_precision)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# repr changes form at 1e-4 / 1e-5 and 1e16; 5e-324 and 1e308 are the extremes
EDGES = [-0.0, 5e-324, 1e308, 1e-5, 1e-4, 9999999999999998.0, 1e16, -1.7976931348623157e308, 0.1]


@given(st.lists(st.lists(FINITE, min_size=9, max_size=9), min_size=1, max_size=5),
       FINITE, st.booleans(), st.integers(1, 5))
@example([EDGES], 5e-324, True, 1)
@example([EDGES], 1e16, False, 1)
@example([[0.0] * 9], 0.0, True, 1)  # steps = 0: one sample
@example([[0.0] * 9], -0.0, False, 1)
@example([EDGES, [0.0] * 9, EDGES], 0.0, False, 2)  # two blocks
@settings(max_examples=200, deadline=None)
def test_trajectory_json_matches_dump_json(rows, drift, full_precision, block_rows):
    table = memoryview(np.array(rows, dtype=float))
    traj = Trajectory(table, {"law": "wong", "dlam": 0.01, "eta_drift": drift})
    samples = writer.SampleText("json", full_precision)
    for k in range(0, len(rows), block_rows):
        samples.add(memoryview(np.array(rows[k:k + block_rows], dtype=float).ravel()))
    meta = json.loads(json.dumps(traj.meta))  # as the forked writer receives it
    assert "".join(samples.parts(meta)) == reference_trajectory_json(traj, full_precision)
