import json
import math
import os
import stat
import time

import pytest

from elongate.cli import _KEYS, main, resolve_config, ConfigError
from elongate.ioutil import atomic_write_bytes


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


@pytest.mark.parametrize("command", ["solve", "sweep", "profile"])
def test_dry_run_prints_budget_and_writes_nothing(tmp_path, capsys, command):
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["--dry-run", command, "--config", str(cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "nodes=" in captured
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "sweep", "profile"])
def test_dry_run_honours_node_budget(tmp_path, capsys, command):
    cfg = _write_config(tmp_path / "c.json", grid={"max_nodes": 50})
    out = tmp_path / "o"
    assert main(["--dry-run", command, "--config", str(cfg), "--out", str(out)]) == 1
    assert "budget is 50" in capsys.readouterr().err
    assert not out.exists()


def test_node_budget_names_the_exact_count(tmp_path, capsys):
    # 17^40 * 9 nodes is far past 2^63, where an int64 product wraps around
    cfg = _write_config(tmp_path / "c.json", domain={"r": 40})
    assert main(["--dry-run", "sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"grid would have {17**40 * 9} nodes" in capsys.readouterr().err


def test_thread_variable_is_ignored(tmp_path, monkeypatch):
    # ELONGATE_THREADS once sized a thread pool; any value now selects nothing
    cfg = _write_config(tmp_path / "c.json")

    def sweep_rows(out):
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        return [line.rsplit(",", 1)[0] for line in (out / "sweep.csv").read_text().splitlines()]

    monkeypatch.delenv("ELONGATE_THREADS", raising=False)
    ref = sweep_rows(tmp_path / "unset")
    monkeypatch.setenv("ELONGATE_THREADS", "junk")
    assert sweep_rows(tmp_path / "junk") == ref


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


def test_empty_vertical_halfwidths_is_config_error(tmp_path, capsys):
    # a grid needs a vertical axis: the key names itself, not the density's r < n
    cfg = _write_config(tmp_path / "c.json", domain={"vertical_halfwidths": []})
    out = tmp_path / "o"
    for command in (["--dry-run", "sweep"], ["sweep"]):
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "domain.vertical_halfwidths" in err and "nonempty" in err
        assert "Traceback" not in err and not out.exists()


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


@pytest.mark.parametrize("section,key,value", [("domain", "r", 1.5), ("solver", "max_iters", 2.7)])
def test_non_integral_config_number_is_config_error(tmp_path, capsys, section, key, value):
    # int() would truncate: r = 1.5 ran as r = 1 while resolved-config.json said 1.5
    cfg = _write_config(tmp_path / "c.json", **{section: {key: value}})
    for command in ("solve", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{section}.{key}" in err and "integer" in err
        assert not out.exists()
    assert resolve_config({section: {key: float(int(value))}})[section][key] == int(value)


@pytest.mark.parametrize("section,key,value", [
    ("solver", "warm_start", "false"),  # bool("false") is True: ran warm
    ("solver", "warm_start", 0),
    ("domain", "ell_list", "234"),  # iterated as ell = 2, 3, 4
    ("domain", "vertical_halfwidths", "1"),
    ("grid", "max_nodes", 1000.5),  # passed as "budget 1000.5"
    ("grid", "max_nodes", "1000"),
    ("solver", "grad_tol", True),  # ran at the tolerance 1.0
    ("solver", "grad_tol", "1e-9"),
    ("load", "value", "2.0"),
    ("load", "value", True),
    ("grid", "target_h", True),  # resolved to h = 1
    ("grid", "target_h", "0.125"),
    ("study", "ell0", "1.0"),
    ("study", "floor", "1e-8"),
    ("study", "floor", True),
    ("density", "p", "2"),
])
def test_wrong_config_type_is_config_error(tmp_path, capsys, section, key, value):
    cfg = _write_config(tmp_path / "c.json", **{section: {key: value}})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{section}.{key}" in err and "Traceback" not in err
    assert not out.exists()


def _table_cases():
    """A value of the wrong JSON type for every key of the config table, and
    NaN and Infinity for every number, or in every array of numbers."""
    for (section, key), (_, check, _) in _KEYS.items():
        name = f"{section}.{key}"
        yield pytest.param(section, key, "1" if check(1) else 5, id=f"{name}-type")
        for bad in (float("nan"), float("inf")):
            if check(1):
                yield pytest.param(section, key, bad, id=f"{name}-{bad}")
            if check([1.0]):
                yield pytest.param(section, key, [bad], id=f"{name}-[{bad}]")


@pytest.mark.parametrize("section,key,value", [
    *_table_cases(),
    pytest.param("density", "kind", None, id="density.kind-null"),
    pytest.param("output", "directory", "", id="output.directory-empty"),
    pytest.param("output", "directory", None, id="output.directory-null"),
])
def test_every_config_key_is_checked(tmp_path, capsys, section, key, value):
    cfg = _write_config(tmp_path / "c.json", **{section: {key: value}})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{section}.{key}" in err and "Traceback" not in err
    if "NaN" in cfg.read_text() or "Infinity" in cfg.read_text():
        assert "finite" in err
    assert not out.exists()


@pytest.mark.parametrize("section,key,value", [
    ("domain", "ell_list", [1e308]),  # the grid's extent 2e308 is inf
    ("domain", "vertical_halfwidths", [1e308]),
    ("grid", "target_h", 5e-324),
    ("domain", "r", 10**400),  # too large for a float
    ("load", "value", 10**400),
], ids=["ell_list", "vertical_halfwidths", "target_h", "r", "load_value"])
def test_overflowing_config_number_is_config_error(tmp_path, capsys, section, key, value):
    cfg = _write_config(tmp_path / "c.json", **{section: {key: value}})
    out = tmp_path / "o"
    for command in (["--dry-run", "sweep"], ["sweep"]):
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("section,key", [("solver", "max_iters"), ("grid", "max_nodes")])
def test_huge_integer_limits_are_accepted(tmp_path, section, key):
    cfg = _write_config(tmp_path / "c.json", **{section: {key: 10**400}})
    assert main(["--dry-run", "sweep", "--config", str(cfg)]) == 0
    assert resolve_config(json.loads(cfg.read_text()))[section][key] == 10**400


def test_profile_below_ell_1_is_config_error(tmp_path, capsys, monkeypatch):
    # profile's levels t are 1 .. floor(ell): below ell = 1 there are none
    def no_solve(*args, **kwargs):
        raise AssertionError("profile solved")

    monkeypatch.setattr("elongate.cli.run_sweep", no_solve)
    cfg = _write_config(tmp_path / "c.json", domain={"ell_list": [0.5]}, study={"ell0": 0.5})
    out = tmp_path / "o"
    for command in (["profile"], ["--dry-run", "profile"]):
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "domain.ell_list" in err
        assert not out.exists()


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
    # the symmetric box problem and its limit were solved on halved grids
    assert report["solve"]["mirror_axes"] == [0, 1] and report["limit"]["mirror_axes"] == [0]
    # the preconditioner's set-up time is reported as part of each solve's time
    for name in ("solve", "limit"):
        assert 0.0 <= report[name]["precond_s"] <= report[name]["wall_time"]


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_solve_report_gives_the_load_conjugate_exponent(tmp_path, p):
    cfg = _write_config(tmp_path / "c.json", domain={"ell_list": [2.0]}, density={"kind": "p-dirichlet", "p": p},
                        solver={"grad_tol": None})
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "solve-report.json").read_text())
    assert (report["p"], report["load_conjugate_exponent"]) == (p, p / (p - 1))


def test_failed_atomic_write_cleans_up(tmp_path):
    # a write that fails inside the file write (text to a binary file)
    # re-raises, leaves no temp file and leaves the old target as it was
    target = tmp_path / "field.bin"
    target.write_bytes(b"old bytes")
    with pytest.raises(TypeError):
        atomic_write_bytes(str(target), "text")
    assert [p.name for p in tmp_path.iterdir()] == ["field.bin"]
    assert target.read_bytes() == b"old bytes"


def test_artifacts_get_the_mode_of_a_plain_open(tmp_path):
    # 0o666 less the umask, as open(path, "w") gives, for text and binary
    # artifacts alike; no temporary file is left behind
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    umask = os.umask(0o022)
    try:
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
    assert modes == dict.fromkeys(
        ["field.bin", "field.json", "minimality-audit.json", "resolved-config.json", "solve-report.json"], 0o644
    )


def test_solver_failure_exit_code(tmp_path, capsys):
    # p = 4 on a ball cross-section: the preconditioner inverts only the
    # quadratic Hessian, so one iteration cannot converge
    cfg = _write_config(tmp_path / "c.json", domain={"r": 2, "cross_section": "ball"},
                        density={"kind": "p-dirichlet", "p": 4.0},
                        solver={"max_iters": 1, "grad_tol": 1e-12})
    for command in ("solve", "profile"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "converge" in capsys.readouterr().err
        # written right after the run, whatever its outcome
        assert (out / "resolved-config.json").exists()


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


def test_sweep_off_lattice_ell_list(tmp_path):
    # ell = 2.3 gets another spacing than ell = 2 at h = 1/8: the grids do
    # not nest, and the sweep solves each of them from scratch
    cfg = _write_config(tmp_path / "c.json", domain={"ell_list": [2, 2.3]}, grid={"target_h": 0.125})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["2.0", "2.3"]


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


def test_ball_sweep_failing_two_verdicts_exits_3(tmp_path, capsys):
    # ball r = 2, quadratic, ell = 2, 3, 4, h = 1/8: the coarse scaling and
    # the horizontal-gradient verdicts fail; every artifact is still written
    cfg = _write_config(tmp_path / "c.json", domain={"r": 2, "cross_section": "ball", "ell_list": [2, 3, 4]},
                        grid={"target_h": 0.125}, solver={"grad_tol": None})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "verdict coarse_energy_scaling failed" in err
    assert "verdict horizontal_gradient_vanishes failed" in err
    assert sorted(os.listdir(out)) == ["fits.json", "plot-exponential.dat", "plot-power.dat",
                                       "resolved-config.json", "sweep.csv", "verdicts.json"]
    failed = {v["name"] for v in json.loads((out / "verdicts.json").read_text()) if v["passed"] is False}
    assert failed == {"coarse_energy_scaling", "horizontal_gradient_vanishes"}


def test_solve_failing_the_minimality_audit_exits_3(tmp_path, monkeypatch, capsys):
    from elongate.solver import MinimalityReport

    monkeypatch.setattr("elongate.cli.minimality_audit", lambda *a, **k: MinimalityReport(125, 2, 1.0, 1e-9, "bump 0"))
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
    assert "minimality audit failed: 2 violations" in capsys.readouterr().err
    assert json.loads((out / "minimality-audit.json").read_text())["violations"] == 2


def test_sweep_without_an_exponential_fit_leaves_its_verdict_open(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", study={"fit_models": ["power"]})
    out = tmp_path / "o"
    main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert list(json.loads((out / "fits.json").read_text())) == ["power"]
    (verdict,) = [v for v in json.loads((out / "verdicts.json").read_text()) if v["name"] == "exponential_rate"]
    assert (verdict["applicable"], verdict["passed"], verdict["note"]) == (True, None, "no exponential fit supplied")
    assert "verdict exponential_rate indeterminate (no exponential fit supplied)" in capsys.readouterr().err


def test_negative_floor_is_config_error(tmp_path, capsys):
    # a fit floor is non-negative (fit_rate's range); the config says so before any solve
    cfg = _write_config(tmp_path / "c.json", study={"floor": -1.0})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "study.floor" in err and ">= 0" in err
    assert not out.exists()


def test_profile_does_not_run_the_minimality_audit(tmp_path, monkeypatch):
    def no_audit(*args, **kwargs):
        raise AssertionError("profile ran the minimality audit")

    monkeypatch.setattr("elongate.cli.minimality_audit", no_audit)
    cfg = _write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["profile", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "profile.csv").exists()


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


@pytest.mark.parametrize("flag", ["--lam", "--Lam", "--beta"])
def test_audit_density_rejects_a_nan_constant(flag, capsys):
    assert main(["audit-density", "--kind", "quadratic", flag, "nan", "--samples", "100"]) == 1
    assert "finite" in capsys.readouterr().err


def test_audit_density_rejects_a_huge_negative_p(capsys):
    # the range check runs before the certified constant 2^(1 - p/2), which
    # would overflow here
    assert main(["audit-density", "--kind", "separable-p", "--p=-1e308", "--samples", "100"]) == 1
    assert "error:" in capsys.readouterr().err


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
