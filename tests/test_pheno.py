import json
import math

import pytest

from jetgauge.pheno import (
    Constants,
    REF,
    as_dict,
    b_parameter,
    b_parameter_geometrical,
    consistency,
    iota,
    mass_scale,
    predicted_masses,
    table1,
)


def changed(k, **values):
    """k with the given constants changed."""
    return Constants(**{**vars(k), **values})


def rel(x, ref):
    return abs(x - ref) / abs(ref)


def test_constants_defaults_pinned():
    k = Constants.defaults()
    assert k.Lambda == 1.1056e-56
    assert k.M_W == 80.377
    assert k.M_Z == 91.1876
    assert k.e_cgs == 4.80312e-10
    assert k.e_SI == 1.602176634e-19
    assert k.m_P == 1.22089e19
    assert k.lambda_sq == 2 * k.Lambda


def test_constants_validation_and_overrides(tmp_path):
    with pytest.raises(ValueError):
        Constants(M_W=-1.0)
    k = changed(Constants.defaults(), M_W=80.4)
    assert k.M_W == 80.4
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"not_a_constant": 1.0}), encoding="utf-8")
    with pytest.raises(ValueError):
        Constants.from_json(str(path))


def test_constants_from_json_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"M_W": 80.3790}), encoding="utf-8")
    assert Constants.from_json(str(path)).M_W == 80.3790


def test_iota():
    k = Constants.defaults()
    assert rel(iota(k), REF["iota"]) < 1e-4
    unit = changed(k, e_cgs=1.0, e_SI=1.0)
    assert iota(unit) == 1e7
    scaled = changed(k, e_SI=k.e_SI * 10.0)
    assert rel(iota(scaled), iota(k) / 100.0) < 1e-12


def test_b_parameter():
    k = Constants.defaults()
    b = b_parameter(k)
    assert rel(b, REF["B_cm"]) < 5e-4
    assert rel(b_parameter_geometrical(k), REF["B_geometrical"]) < 5e-4
    doubled = changed(k, M_W=2 * k.M_W)
    assert rel(b_parameter(doubled), 2 * b) < 1e-12


def test_mass_scale_normalization_exact():
    k = Constants.defaults()
    mp_units, gev = mass_scale(k, 2, 2)
    assert gev == pytest.approx(k.M_W, rel=1e-14)
    assert mp_units == pytest.approx(k.M_W / k.m_P, rel=1e-14)


def test_mass_scale_roundtrip_with_b():
    # substituting B back through the scale relation reproduces M_W
    k = Constants.table_inputs()
    b = b_parameter(k)
    ratio = 2.0 * k.lambda_sq * b * k.ell_P * k.alpha**0.25
    assert ratio * k.m_P == pytest.approx(k.M_W, rel=1e-14)


def test_mass_scale_rejects_bad_orders():
    k = Constants.defaults()
    for a, b in ((0, 2), (1, 4), (5, 5)):
        with pytest.raises(ValueError):
            mass_scale(k, a, b)


def test_mass_scale_sector_symmetry():
    k = Constants.defaults()
    assert mass_scale(k, 1, 3) == mass_scale(k, 2, 2)
    assert mass_scale(k, 1, 3) == mass_scale(k, 3, 1)


def test_table1_with_table_inputs_five_significant_figures():
    """With the computational W mass every consistent entry agrees to 5e-5."""
    k = Constants.table_inputs()
    for (a, b), (ref_mp, ref_gev) in REF["table1"].items():
        mp_units, gev = mass_scale(k, a, b)
        assert rel(mp_units, ref_mp) < 5e-5, (a, b)
        if (a, b) != (1, 2):
            assert rel(gev, ref_gev) < 5e-5, (a, b)


def test_table1_defaults_within_one_last_place_unit():
    k = Constants.defaults()
    for (a, b), (ref_mp, _) in REF["table1"].items():
        mp_units, _ = mass_scale(k, a, b)
        assert rel(mp_units, ref_mp) < 1e-4, (a, b)


def test_table1_row1_gev_flagged_as_internal_inconsistency():
    """The quoted (1,2) GeV value contradicts the quoted Planck-units value
    of the same row; our GeV column is internally consistent instead."""
    ref_mp, ref_gev = REF["table1"][(1, 2)]
    m_p = REF["table1"][(2, 2)][1] / REF["table1"][(2, 2)][0]
    assert rel(ref_mp * m_p, ref_gev) > 1e-3  # the reference contradicts itself
    k = Constants.table_inputs()
    mp_units, gev = mass_scale(k, 1, 2)
    assert gev == pytest.approx(mp_units * k.m_P, rel=1e-14)
    rep = table1(k)
    flagged = [e for e in rep.checks if e.status == "flagged" and e.actual is not None]
    assert len(flagged) == 1
    assert flagged[0].name == "M(1,2)" and flagged[0].unit == "GeV"
    assert not rep.counts["fail"]


def test_consistency_numbers():
    k = Constants.defaults()
    i = iota(k)
    v_w = math.pi * k.M_W**2 / (2 * k.m_P**2) * i
    v_z = 2 * math.pi * k.M_Z**2 / (5 * k.m_P**2) * i
    assert rel(v_w, REF["consistency_w"]) < 1e-3
    assert rel(v_z, REF["consistency_z"]) < 1e-3
    rep = consistency(k)
    assert not rep.counts["fail"]


def test_chi_against_quoted_value():
    # with the stated W mass chi misses the quoted value by ~2.6e-5 (flagged);
    # with the tables' computational W mass it agrees to ~1e-6
    k_stated = Constants.defaults()
    chi_stated = 2 * k_stated.M_Z / (math.sqrt(5) * k_stated.M_W)
    assert 1e-5 < abs(chi_stated - REF["chi"]) < 5e-5
    k_tables = Constants.table_inputs()
    chi_tables = 2 * k_tables.M_Z / (math.sqrt(5) * k_tables.M_W)
    assert abs(chi_tables - REF["chi"]) <= 1e-5
    rep = consistency(k_stated)
    chi_entries = [e for e in rep.checks if e.name.startswith("chi")]
    assert chi_entries[0].status == "flagged"
    rep2 = consistency(k_tables)
    chi_entries2 = [e for e in rep2.checks if e.name.startswith("chi")]
    assert chi_entries2[0].status == "pass"


def test_second_relation_ratio_reported():
    rep = consistency(Constants.defaults())
    names = [e.name for e in rep.checks]
    assert "MW^3 iota / (MZ mP^2)" in names
    ratio = next(e for e in rep.checks if e.name == "ratio of the previous two")
    assert 0.998 < ratio.actual < 1.0


def test_predicted_masses_structure_and_known_deviations():
    """The formulae land ~4.5e-4 (W) and ~2.2e-4 (Z) off; the report flags
    them (reference-data overclaim) rather than failing."""
    k = Constants.defaults()
    rep = predicted_masses(k)
    mw = next(e for e in rep.checks if e.name == "M_W predicted")
    mz = next(e for e in rep.checks if e.name == "M_Z predicted")
    assert 3e-4 < mw.deviation < 6e-4
    assert 1e-4 < mz.deviation < 4e-4
    assert mw.status == "flagged" and mz.status == "flagged"
    assert not rep.counts["fail"]
    # the alpha -> 0 limit of the predicted ratio is sqrt(10)/(2 sqrt(2)) = sqrt(5)/2
    k0 = changed(k, alpha=1e-300)
    rep0 = predicted_masses(k0)
    r = next(e for e in rep0.checks if e.name == "predicted ratio MZ/MW")
    assert abs(r.actual - math.sqrt(5) / 2) < 1e-12


def test_report_serialization():
    d = as_dict(table1(Constants.defaults()))
    assert d["title"] == "sector mass scales"
    assert {e["status"] for e in d["entries"]} <= {"pass", "fail", "flagged"}
