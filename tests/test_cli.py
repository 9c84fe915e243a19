import json
import math
import time

import pytest

from elongate.cli import main, resolve_config, ConfigError


def _write_config(path, **overrides):
    cfg = {
        "domain": {"r": 1, "cross_section": "box", "ell_list": [2.0, 3.0], "vertical_halfwidths": [1.0]},
        "grid": {"target_h": 0.25},
        "density": {"kind": "quadratic"},
        "load": {"kind": "constant", "value": 2.0},
        "solver": {"grad_tol": 1e-10},
    }
    for section, values in overrides.items():
        cfg.setdefault(section, {}).update(values)
    path.write_text(json.dumps(cfg))
    return path


def test_missing_config_exits_nonzero(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_unknown_density_kind_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", density={"kind": "mystery"})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


def test_inconsistent_dimension_is_config_error(tmp_path):
    cfg = _write_config(tmp_path / "c.json", domain={"n": 5})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_descending_ell_list_rejected(tmp_path):
    cfg = _write_config(tmp_path / "c.json", domain={"ell_list": [3.0, 2.0]})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_dry_run_prints_budget_and_writes_nothing(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["--dry-run", "solve", "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "nodes=" in captured
    assert not out.exists()


def test_dry_run_honours_node_budget(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", grid={"max_nodes": 50})
    out = tmp_path / "o"
    assert main(["--dry-run", "sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "budget is 50" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_load_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", load={"value": float("nan")})
    assert "NaN" in cfg.read_text()
    t0 = time.perf_counter()
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section,key", [
    ("study", "floor"), ("study", "ell0"), ("grid", "max_nodes"), ("grid", "target_h"),
    ("solver", "max_iters"), ("domain", "r"),
])
def test_nan_config_number_is_config_error(tmp_path, capsys, section, key):
    cfg = _write_config(tmp_path / "c.json", **{section: {key: float("nan")}})
    assert "NaN" in cfg.read_text()
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [
    ("ell_list", [2.0, float("inf")]),
    ("ell_list", [2.0, float("nan")]),
    ("vertical_halfwidths", [float("inf")]),
    ("r", float("inf")),
])
def test_non_finite_domain_number_is_config_error(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path / "c.json", domain={key: value})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_unknown_fit_model_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", study={"fit_models": ["powr"]})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fit_models" in err and "powr" in err
    assert not (tmp_path / "o").exists()


def test_removed_options_are_config_errors():
    with pytest.raises(ConfigError):
        resolve_config({"solver": {"method": "auto"}})
    with pytest.raises(ConfigError):
        resolve_config({"output": {"formats": ["csv"]}})
    with pytest.raises(ConfigError):
        resolve_config({"solver": {"grad_tol": float("nan")}})


def test_solve_writes_artifacts(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("field.bin", "field.json", "solve-report.json", "minimality-audit.json",
                 "resolved-config.json"):
        assert (out / name).exists(), name
    audit = json.loads((out / "minimality-audit.json").read_text())
    assert audit["violations"] == 0
    report = json.loads((out / "solve-report.json").read_text())
    assert report["solve"]["converged"] is True
    assert report["solve"]["trials"] >= report["solve"]["iterations"]


def test_solver_failure_exit_code(tmp_path, capsys):
    # a ball cross-section: the box preconditioner is not exact there, so
    # one iteration cannot converge
    cfg = _write_config(tmp_path / "c.json", domain={"r": 2, "cross_section": "ball"},
                        solver={"max_iters": 1, "grad_tol": 1e-12})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "converge" in capsys.readouterr().err


def test_resolved_config_round_trip(tmp_path):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolve_config(resolved) == resolved


def test_line_search_failure_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "c.json",
        grid={"target_h": 0.125},
        density={"kind": "p-dirichlet", "p": 4.0},
        solver={"grad_tol": 1e-16, "max_iters": 400},
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "solver failures" in err


def test_sweep_default_floor_uses_cell_volume(tmp_path):
    h = 0.25
    cfg = _write_config(tmp_path / "c.json", domain={"vertical_halfwidths": [1.0, 1.0]},
                        grid={"target_h": h})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    fits = json.loads((out / "fits.json").read_text())
    for fit in fits.values():
        assert fit["floor"] == pytest.approx(100 * 1e-10 * 2.0 * h**3, rel=1e-12)


def test_sweep_artifacts_and_exit(tmp_path):
    cfg = _write_config(
        tmp_path / "c.json",
        domain={"ell_list": [4.0, 5.0, 6.0, 7.0, 8.0]},
        grid={"target_h": 0.125},
    )
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("sweep.csv", "fits.json", "verdicts.json", "plot-exponential.dat",
                 "plot-power.dat", "resolved-config.json"):
        assert (out / name).exists(), name
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0].startswith("ell,ell0,h_horiz")
    assert len(lines) == 6
    verdicts = {v["name"]: v for v in json.loads((out / "verdicts.json").read_text())}
    assert verdicts["exponential_rate"]["passed"] is True
    fits = json.loads((out / "fits.json").read_text())
    assert fits["exponential"]["exponent"] > 0
    # plot data is two-column text
    for fname in ("plot-exponential.dat", "plot-power.dat"):
        row = (out / fname).read_text().strip().splitlines()[0].split()
        assert len(row) == 2
        float(row[0]), float(row[1])


def test_sweep_short_ell_list_warns_but_succeeds(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")  # two elongations only
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning" in err
    fits = json.loads((out / "fits.json").read_text())
    assert fits["exponential"]["ok"] is False


def test_profile_rows_ascending_and_monotone(tmp_path):
    cfg = _write_config(tmp_path / "c.json", domain={"ell_list": [4.0]}, grid={"target_h": 0.125})
    out = tmp_path / "o"
    assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "profile.csv").read_text().strip().splitlines()[1:]
    ts = [float(r.split(",")[0]) for r in rows]
    gs = [float(r.split(",")[1]) for r in rows]
    assert ts == sorted(ts)
    assert all(b >= a - 1e-18 for a, b in zip(gs, gs[1:]))
    assert len(ts) == 4
    # interior contraction is visible in the profile
    assert gs[0] <= 0.9 * gs[1]


def test_audit_density_pass(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["audit-density", "--kind", "p-dirichlet", "--p", "4", "--samples", "20000",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert "0 violations" in capsys.readouterr().out
    payload = json.loads((out / "density-audit.json").read_text())
    assert payload["growth"]["violations"] == 0


def test_audit_density_wrong_constant_fails(tmp_path, capsys):
    rc = main(["audit-density", "--kind", "quadratic", "--lam", "0.6", "--samples", "2000",
               "--seed", "1"])
    assert rc == 3
    assert "violations" in capsys.readouterr().out


def test_audit_density_byte_identical_given_seed(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["audit-density", "--kind", "quadratic", "--samples", "5000", "--seed", "9",
                     "--out", str(out)]) == 0
        outs.append((out / "density-audit.json").read_bytes())
    assert outs[0] == outs[1]


def test_resolve_config_rejects_unknown_sections():
    with pytest.raises(ConfigError):
        resolve_config({"domains": {}})
    with pytest.raises(ConfigError):
        resolve_config({"grid": {"target_g": 0.1}})
    with pytest.raises(ConfigError):
        resolve_config([1, 2, 3])


def test_resolve_config_fills_defaults():
    rc = resolve_config({})
    assert rc["density"]["kind"] == "quadratic"
    assert rc["study"]["floor"] is None  # resolved to 100 * grad_tol * scale at run time
    assert math.isclose(rc["load"]["value"], 2.0)
