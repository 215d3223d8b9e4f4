"""Scenario front end: parsing, round-trips, artifact runs, exit codes."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import jkoflow.cli as cli
from jkoflow.cli import (
    Scenario,
    build_flow_config,
    main,
    parse_scenario,
    run_scenario,
    serialize_scenario,
)
from jkoflow.energy import custom_energy
from jkoflow.errors import InvalidInputError
from jkoflow.flow import ContractionReport, run_flow
from jkoflow.presets import PRESETS

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
name: minimal
flow:
  domain: {lower: 0.0, upper: 1.0}
  h: 0.05
  n_steps: 3
  populations:
    - energy: {type: entropy}
      initial: {n: 8, profile: {type: gaussian, center: 0.4, sigma: 0.1}}
    - energy: {type: entropy}
      initial: {n: 8, profile: {type: bump, center: 0.6, half_width: 0.2}}
"""

# non-McCann but step-solvable at tiny h: r * sqrt(1/r) = sqrt(r) increases
BACKWARD = """
name: backward
flow:
  domain: {lower: 0.0, upper: 1.0}
  h: 0.0001
  n_steps: 2
  populations:
    - energy: {type: custom, exponent: 0.5, coefficient: 1.0}
      initial: {n: 8, profile: {type: gaussian, center: 0.4, sigma: 0.1}}
    - energy: {type: entropy}
      initial: {n: 8, profile: {type: gaussian, center: 0.6, sigma: 0.1}}
probes:
  - kind: contraction_probe
    second_initials:
      - {type: gaussian, center: 0.5, sigma: 0.12}
      - {type: gaussian, center: 0.5, sigma: 0.12}
"""


# ------------------------------------------------------------------- parsing


def test_minimal_scenario_parses_with_defaults():
    s = parse_scenario(MINIMAL)
    assert s.name == "minimal"
    assert s.flow.record_every == 1
    assert s.flow.tol is None
    assert s.probes == ()
    assert s.output_dir is None
    config = build_flow_config(s)
    assert len(config.populations) == 2
    assert config.h == 0.05


def test_h_zero_rejected_naming_field():
    bad = MINIMAL.replace("h: 0.05", "h: 0.0")
    with pytest.raises(InvalidInputError, match=r"flow\.h"):
        parse_scenario(bad)


def test_unknown_key_rejected_with_field_path():
    bad = MINIMAL.replace("initial: {n: 8, profile: {type: bump, center: 0.6, half_width: 0.2}}",
                          "initial: {n: 8, wobble: 3, profile: {type: bump, center: 0.6, half_width: 0.2}}")
    with pytest.raises(InvalidInputError, match=r"flow\.populations\[1\]\.initial\.wobble"):
        parse_scenario(bad)


def test_syntax_error_reports_line_and_column():
    with pytest.raises(InvalidInputError, match=r"line \d+, column \d+"):
        parse_scenario("name: [unclosed\nflow: {")


def test_both_yaml_loaders_parse_shipped_scenarios_alike(monkeypatch):
    # libyaml's loader, the default where PyYAML was built with it, against the pure-Python one
    fast = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert cli.YAML_LOADER is fast
    paths = sorted(SCENARIO_DIR.glob("*.yaml"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=fast) == yaml.load(text, Loader=yaml.SafeLoader)
        scenario = parse_scenario(text)
        with monkeypatch.context() as m:
            m.setattr(cli, "YAML_LOADER", yaml.SafeLoader)
            assert parse_scenario(text) == scenario


def test_tab_refused_alike_by_both_yaml_loaders(monkeypatch):
    # libyaml reads "a:\t1" as {a: 1} where the pure-Python loader raises, so a
    # tab is refused before either loader sees the text
    text = (SCENARIO_DIR / "identity.yaml").read_text(encoding="utf-8")
    line = next(i for i, row in enumerate(text.splitlines()) if row.startswith("name: "))
    tabbed = text.replace("name: ", "name:\t", 1)
    want = f"syntax error at line {line + 1}, column 6"
    messages = []
    for loader in (cli.YAML_LOADER, yaml.SafeLoader):
        with monkeypatch.context() as m:
            m.setattr(cli, "YAML_LOADER", loader)
            with pytest.raises(InvalidInputError) as info:
                parse_scenario(tabbed)
        messages.append(str(info.value))
    assert messages == [want, want]


def test_unknown_energy_name_rejected():
    bad = MINIMAL.replace("type: entropy}\n      initial: {n: 8, profile: {type: gaussian",
                          "type: enthalpy}\n      initial: {n: 8, profile: {type: gaussian")
    with pytest.raises(InvalidInputError, match="enthalpy"):
        parse_scenario(bad)


def test_unknown_cost_name_rejected():
    text = MINIMAL + "      coupling: {type: cubic, partner: 0}\n"
    # appending places the coupling under the last population
    with pytest.raises(InvalidInputError, match="cubic"):
        parse_scenario(text)


def test_probe_second_initials_count_checked():
    text = MINIMAL + (
        "probes:\n"
        "  - kind: contraction_probe\n"
        "    second_initials:\n"
        "      - {type: gaussian, center: 0.5, sigma: 0.1}\n"
    )
    with pytest.raises(InvalidInputError, match=r"second_initials"):
        parse_scenario(text)


def test_weak_form_population_range_checked():
    text = MINIMAL + "probes:\n  - {kind: weak_form_residual, population: 7}\n"
    with pytest.raises(InvalidInputError, match=r"probes\[0\]\.population"):
        parse_scenario(text)


def test_non_mapping_document_rejected():
    with pytest.raises(InvalidInputError, match="mapping"):
        parse_scenario("- just\n- a\n- list\n")


# ---------------------------------------------------------------- round-trip


@pytest.mark.parametrize(
    "name", ["identity", "heat_flow", "barycenter3", "porous_medium"]
)
def test_shipped_scenarios_round_trip(name):
    s = parse_scenario((SCENARIO_DIR / f"{name}.yaml").read_text())
    assert parse_scenario(serialize_scenario(s)) == s


@pytest.mark.parametrize(
    "name", ["identity", "heat_flow", "barycenter3", "porous_medium"]
)
def test_shipped_scenarios_match_presets(name):
    # the gates test the presets and users run the files: both must be one flow
    from_file = build_flow_config(parse_scenario((SCENARIO_DIR / f"{name}.yaml").read_text()))
    preset = PRESETS[name]()
    for field in ("h", "n_steps", "record_every", "tol"):
        assert getattr(from_file, field) == getattr(preset, field), field
    runs = [run_flow(dataclasses.replace(c, n_steps=2)) for c in (from_file, preset)]
    assert runs[0].times == runs[1].times
    for state_a, state_b in zip(runs[0].states, runs[1].states, strict=True):
        for a, b in zip(state_a, state_b, strict=True):
            assert a.domain == b.domain
            assert np.array_equal(a.positions, b.positions)


def test_round_trip_preserves_custom_energy_and_probe_options():
    s = parse_scenario(BACKWARD)
    s2 = parse_scenario(serialize_scenario(s))
    assert s2 == s
    assert s2.flow.populations[0].energy.coefficient == 1.0


def test_barycenter3_weights_keep_document_order():
    s = parse_scenario((SCENARIO_DIR / "barycenter3.yaml").read_text())
    coupling = s.flow.populations[0].coupling
    assert coupling.type == "barycenter"
    assert coupling.weights == ((1, 1.0), (2, 1.0))


# ------------------------------------------------------------------- running


def test_identity_run_all_probes_pass(tmp_path):
    s = parse_scenario((SCENARIO_DIR / "identity.yaml").read_text())
    code = run_scenario(s, output_dir=tmp_path, quiet=True)
    assert code == 0
    manifest = (tmp_path / "MANIFEST.txt").read_text()
    assert "complete: yes" in manifest
    for fname in (
        "trajectory_pop0.csv",
        "trajectory_pop1.csv",
        "diagnostics.csv",
        "probe_estimate_report.txt",
        "probe_contraction_probe.txt",
        "probe_weak_form_residual.txt",
    ):
        assert (tmp_path / fname).exists()
        assert f"file: {fname}" in manifest
    estimate = (tmp_path / "probe_estimate_report.txt").read_text()
    assert "status: PASS" in estimate
    assert estimate.count("sum_w2_sq=0.0 ") == 2  # inert flow: zero motion
    for fname in ("probe_contraction_probe.txt", "probe_weak_form_residual.txt"):
        assert "status: PASS" in (tmp_path / fname).read_text()


def test_non_mccann_contraction_probe_skipped(tmp_path):
    code = run_scenario(parse_scenario(BACKWARD), output_dir=tmp_path, quiet=True)
    assert code == 0  # skipped probes are not failures
    report = (tmp_path / "probe_contraction_probe.txt").read_text()
    assert "status: SKIPPED" in report
    assert "McCann check failed" in report


def test_failing_probe_exits_1_and_names_probe(tmp_path, monkeypatch, capsys):
    def fake_probe(config, others, slack=1e-3):
        return ContractionReport("FAIL", "forced for the exit-code path",
                                 0.5, 2.0, (1.0, 1.5))

    monkeypatch.setattr("jkoflow.cli.contraction_probe", fake_probe)
    s = parse_scenario((SCENARIO_DIR / "identity.yaml").read_text())
    code = run_scenario(s, output_dir=tmp_path, quiet=True)
    assert code == 1
    assert "probe failed: contraction_probe" in capsys.readouterr().err
    assert "complete: yes" in (tmp_path / "MANIFEST.txt").read_text()
    assert "status: FAIL" in (tmp_path / "probe_contraction_probe.txt").read_text()


def test_unsolvable_step_exits_3_with_partial_manifest(tmp_path, capsys):
    # concentrating integrand: the step objective falls without bound as
    # particles merge, so it has no minimizer and the solver must give up
    text = BACKWARD.replace("coefficient: 1.0", "coefficient: -1.0").replace(
        "exponent: 0.5", "exponent: 2.0").replace("h: 0.0001", "h: 0.05")
    code = run_scenario(parse_scenario(text), output_dir=tmp_path, quiet=True)
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert "complete: no" in (tmp_path / "MANIFEST.txt").read_text()


def test_failed_line_search_exits_3_with_partial_manifest(tmp_path, monkeypatch, capsys):
    # the integrand's derivative with its sign flipped: the search direction
    # climbs the step objective, so the line search fails on the first step
    monkeypatch.setattr(
        "jkoflow.cli.custom_energy", lambda f, df: custom_energy(f, lambda x: -df(x))
    )
    text = BACKWARD.replace("exponent: 0.5, coefficient: 1.0",
                            "exponent: 2.0, coefficient: 1.0e+6").replace("h: 0.0001", "h: 0.05")
    code = run_scenario(parse_scenario(text), output_dir=tmp_path, quiet=True)
    assert code == 3
    err = capsys.readouterr().err
    assert "step 1, population 0:" in err
    assert "line search failed" in err
    assert "complete: no" in (tmp_path / "MANIFEST.txt").read_text()


def test_duplicate_probe_kinds_get_distinct_files(tmp_path):
    s = parse_scenario((SCENARIO_DIR / "identity.yaml").read_text())
    doubled = dataclasses.replace(s, probes=s.probes[:1] + s.probes[:1])
    assert run_scenario(doubled, output_dir=tmp_path, quiet=True) == 0
    assert (tmp_path / "probe_estimate_report.txt").exists()
    assert (tmp_path / "probe_estimate_report_2.txt").exists()


def test_rerun_is_byte_identical(tmp_path):
    s = parse_scenario((SCENARIO_DIR / "identity.yaml").read_text())
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_scenario(s, output_dir=a, quiet=True) == 0
    assert run_scenario(s, output_dir=b, quiet=True) == 0
    for fname in ("trajectory_pop0.csv", "trajectory_pop1.csv", "diagnostics.csv"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()


def test_scenario_output_dir_field_used(tmp_path):
    s = parse_scenario(MINIMAL)
    s = dataclasses.replace(s, output_dir=str(tmp_path / "nested" / "out"))
    assert run_scenario(s, quiet=True) == 0
    assert (tmp_path / "nested" / "out" / "MANIFEST.txt").exists()


# ---------------------------------------------------------------- main() CLI


def test_main_validate_only_does_not_run(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL)
    out = tmp_path / "never"
    code = main([str(path), "--validate-only", "--quiet", "--output-dir", str(out)])
    assert code == 0
    assert not out.exists()


@pytest.mark.parametrize("old, new, field", [
    ("  n_steps: 3\n", "  n_steps: 3\n  tol: .nan\n", r"flow\.tol"),
    ("  n_steps: 3\n", "  n_steps: 3\n  tol: .inf\n", r"flow\.tol"),
    ("probes: []", "probes: [{kind: contraction_probe, slack: .nan, second_initials: "
     "[{type: uniform}, {type: uniform}]}]", r"probes\[0\]\.slack"),
], ids=["tol-nan", "tol-inf", "slack-nan"])
def test_main_validate_only_rejects_non_finite_tolerances(tmp_path, capsys, old, new, field):
    path = tmp_path / "s.yaml"
    path.write_text((MINIMAL + "probes: []\n").replace(old, new))
    assert main([str(path), "--validate-only"]) == 2
    assert re.search(field, capsys.readouterr().err)


@pytest.mark.parametrize("flow_keys, probe, message", [
    ("  record_every: 2\n", "{kind: weak_form_residual, population: 0}", r"probes\[0\]: weak-form"),
    ("", "{kind: contraction_probe, second_initials: "
     "[{type: barenblatt, t0: 100.0}, {type: uniform}]}", "source solution"),
], ids=["weak-form-thinned", "unbuildable-second-initial"])
def test_scenario_that_cannot_run_fails_validation_and_runs_nothing(
    tmp_path, capsys, flow_keys, probe, message
):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace("  n_steps: 3\n", "  n_steps: 3\n" + flow_keys)
                    + f"probes: [{probe}]\n")
    assert main([str(path), "--validate-only"]) == 2
    assert re.search(message, capsys.readouterr().err)
    out = tmp_path / "out"
    assert main([str(path), "--output-dir", str(out), "--quiet"]) == 2
    assert not (out / "trajectory_pop0.csv").exists()


@pytest.mark.parametrize("old, new, field", [
    ("{type: bump, center: 0.6, half_width: 0.2}", "{type: barenblatt, t0: 100.0}",
     r"flow\.populations\[1\]\.initial\.profile: domain too small"),
    ("probes: []", "probes: [{kind: estimate_report}, {kind: contraction_probe, second_initials: "
     "[{type: uniform}, {type: barenblatt, t0: 100.0}]}]",
     r"probes\[1\]\.second_initials\[1\]: domain too small"),
], ids=["initial", "second-initial"])
def test_unbuildable_profile_error_names_its_field(tmp_path, capsys, old, new, field):
    path = tmp_path / "s.yaml"
    path.write_text((MINIMAL + "probes: []\n").replace(old, new))
    assert main([str(path), "--validate-only"]) == 2
    assert re.search(field, capsys.readouterr().err)


def test_main_missing_scenario_file_exits_2(capsys):
    assert main(["/nonexistent/scenario.yaml"]) == 2
    assert "input error" in capsys.readouterr().err


def test_main_invalid_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(MINIMAL.replace("h: 0.05", "h: -1.0"))
    assert main([str(path)]) == 2
    assert "flow.h" in capsys.readouterr().err


def test_main_missing_initial_csv_exits_2(tmp_path, capsys):
    text = MINIMAL.replace(
        "initial: {n: 8, profile: {type: gaussian, center: 0.4, sigma: 0.1}}",
        "initial: {n: 8, csv: /nonexistent/grid.csv}",
    )
    path = tmp_path / "s.yaml"
    path.write_text(text)
    assert main([str(path), "--validate-only"]) == 2
    assert "grid.csv" in capsys.readouterr().err


def test_main_runs_scenario_quiet(tmp_path, capsys):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL)
    out = tmp_path / "out"
    code = main([str(path), "--output-dir", str(out), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert (out / "diagnostics.csv").exists()
