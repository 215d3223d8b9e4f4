"""Scenario front end: parsing, round-trips, artifact runs, exit codes."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import jkoflow.cli as cli
import jkoflow.jko
from jkoflow.cli import (
    Scenario,
    build_flow_config,
    main,
    parse_scenario,
    run_scenario,
)
from jkoflow.errors import InvalidInputError
from jkoflow.flow import ContractionReport, contraction_rerun, run_flow
from jkoflow.geometry import Domain, from_grid
from jkoflow.presets import PRESETS, barenblatt_profile, heat_flow_preset, porous_medium_preset

from helpers import leak_past_wall, serialize_scenario, wrong_sign_energy

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
    - energy: {type: power_law, exponent: 0.5, coefficient: 1.0}
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
    # a flow records every step: there is no thinning key
    with pytest.raises(InvalidInputError, match=r"^flow\.record_every: unknown key$"):
        parse_scenario(MINIMAL.replace("  n_steps: 3\n", "  n_steps: 3\n  record_every: 1\n"))


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


def test_power_law_takes_any_positive_exponent_and_custom_is_gone(tmp_path, capsys):
    fast = parse_scenario(MINIMAL.replace("{type: entropy}", "{type: power_law, exponent: 0.5}", 1))
    assert fast.flow.populations[0].energy.coefficient is None  # 1.0 when built
    with pytest.raises(InvalidInputError, match=r"energy\.exponent: must be positive"):
        parse_scenario(MINIMAL.replace("{type: entropy}", "{type: power_law, exponent: 0.0}", 1))
    path = tmp_path / "custom.yaml"
    path.write_text(BACKWARD.replace("type: power_law", "type: custom"))
    assert main([str(path), "--validate-only"]) == 2
    assert "energy.type: unknown energy 'custom'" in capsys.readouterr().err


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


@pytest.mark.parametrize("coupling, message", [
    ("{type: quadratic_pairwise, partner: 1}",
     r"flow\.populations\[1\]\.coupling: partners must be distinct other populations"),
    ("{type: zero, partners: [0, 0]}",
     r"flow\.populations\[1\]\.coupling: partners must be distinct other populations"),
    ("{type: quadratic_pairwise, partner: 2}",
     r"flow\.populations\[1\]\.coupling: partner 2 out of range"),
    ("{type: quadratic_pairwise}",
     r"flow\.populations\[1\]\.coupling\.partner: missing required key"),
], ids=["partner-is-owner", "duplicate-partners", "partner-out-of-range", "missing-key"])
def test_malformed_coupling_refused_naming_its_field(coupling, message):
    # appending places the coupling under the last population
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        parse_scenario(MINIMAL + f"      coupling: {coupling}\n")


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


def test_presets_are_the_shipped_files_with_the_given_values():
    # a preset reads its file, so every shipped file has one and enters each PRESETS gate
    assert sorted(PRESETS) == sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml"))
    for name, make in PRESETS.items():
        flow = parse_scenario((SCENARIO_DIR / f"{name}.yaml").read_text()).flow
        config = make()
        assert (config.h, config.n_steps) == (flow.h, flow.n_steps)
        assert [p.initial.n for p in config.populations] == [p.initial.n for p in flow.populations]
    heat = heat_flow_preset(n=16, h=0.02, n_steps=3)
    assert (heat.h, heat.n_steps) == (0.02, 3)
    assert [p.initial.n for p in heat.populations] == [16, 16]
    want = from_grid(barenblatt_profile(0.02, Domain(-1.0, 1.0)), 32)
    for pop in porous_medium_preset(n=32, t0=0.02).populations:
        assert pop.initial.domain == want.domain
        assert np.array_equal(pop.initial.positions, want.positions)


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


CONVEXITY = """probes:
  - kind: convexity_probe
    second_initials:
      - {type: gaussian, center: 0.5, sigma: 0.12}
      - {type: uniform}
"""


@pytest.mark.parametrize("coupling, status, report", [
    ("      coupling: {type: quadratic_pairwise, partner: 0}\n", "PASS",
     r"population 1 cost=quadratic_pairwise: q=(\S+) margin=(\S+)\n"
     r"criterion: each t's violation is -t\(1-t\) q exactly, and q >= 0; "
     r"margin = min over t of t\(1-t\) q"),
    ("", "SKIPPED", "reason: no couplings declared"),
], ids=["coupled", "uncoupled"])
def test_convexity_probe_report(tmp_path, coupling, status, report):
    s = parse_scenario(MINIMAL + coupling + CONVEXITY)
    assert run_scenario(s, output_dir=tmp_path, quiet=True) == 0
    text = (tmp_path / "probe_convexity_probe.txt").read_text()
    match = re.fullmatch(f"probe: convexity_probe\nstatus: {status}\n{report}\n", text)
    assert match
    if match.groups():  # the margin is t(1-t) q at the default t = 0.25 and 0.75
        q, margin = map(float, match.groups())
        assert margin == 0.1875 * q > 0.0


def test_non_mccann_contraction_probe_skipped(tmp_path):
    code = run_scenario(parse_scenario(BACKWARD), output_dir=tmp_path, quiet=True)
    assert code == 0  # skipped probes are not failures
    report = (tmp_path / "probe_contraction_probe.txt").read_text()
    assert "status: SKIPPED" in report
    assert "McCann check failed" in report


def test_fast_diffusion_runs_and_probes_contraction(tmp_path):
    # f = -sqrt(s) is fast diffusion: c (m - 1) = 0.5 >= 0, displacement convex
    path = tmp_path / "fast.yaml"
    path.write_text(BACKWARD.replace("coefficient: 1.0", "coefficient: -1.0"))
    assert main([str(path), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 0
    report = (tmp_path / "out" / "probe_contraction_probe.txt").read_text()
    assert "status: PASS" in report


def test_probes_do_not_change_the_flow_artifacts(tmp_path):
    # the contraction probe's second flow runs in the scenario flow's kernel
    full = parse_scenario((SCENARIO_DIR / "heat_flow.yaml").read_text())
    assert run_scenario(full, output_dir=tmp_path / "full", quiet=True) == 0
    bare = dataclasses.replace(full, probes=())
    assert run_scenario(bare, output_dir=tmp_path / "bare", quiet=True) == 0
    for name in ("trajectory_pop0.csv", "trajectory_pop1.csv", "diagnostics.csv"):
        assert (tmp_path / "full" / name).read_bytes() == (tmp_path / "bare" / name).read_bytes()
    # and its report is the one that a separately run second flow gives
    config = build_flow_config(full)
    j = [p.kind for p in full.probes].index("contraction_probe")
    rerun = run_flow(contraction_rerun(config, cli._probe_initials(full, config)[j]))
    status, lines = cli._run_contraction_probe(full.probes[j], config, run_flow(config), rerun)
    assert status == "PASS"
    expected = "\n".join(["probe: contraction_probe", f"status: {status}", *lines]) + "\n"
    assert (tmp_path / "full" / "probe_contraction_probe.txt").read_text() == expected


def test_failing_probe_exits_1_and_names_probe(tmp_path, monkeypatch, capsys):
    def fake_probe(traj, rerun, slack=1e-3):
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
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert re.search(r"; residual=\S+\n$", err)
    assert "complete: no" in (tmp_path / "MANIFEST.txt").read_text()


def test_failed_line_search_exits_3_with_partial_manifest(tmp_path, monkeypatch, capsys):
    # the integrand's derivative with its sign flipped: the search direction
    # climbs the step objective, so the line search fails on the first step
    monkeypatch.setattr("jkoflow.cli.power_law_energy", lambda m, c: wrong_sign_energy(c))
    text = BACKWARD.replace("exponent: 0.5, coefficient: 1.0",
                            "exponent: 2.0, coefficient: 1.0e+6").replace("h: 0.0001", "h: 0.05")
    code = run_scenario(parse_scenario(text), output_dir=tmp_path, quiet=True)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: step 1, population 0: step solver line search "
                          "failed at iteration 2: the accepted step does not move; residual=")
    assert float(re.search(r"; residual=(\S+)\n$", err).group(1)) > 1e-9 * 8**0.5
    assert "complete: no" in (tmp_path / "MANIFEST.txt").read_text()


def test_solver_state_past_a_wall_exits_3(tmp_path, monkeypatch, capsys):
    # a state the solver made that is no density is a numerical failure, not an
    # input error; the flow charges it to its step and population
    leak_past_wall(monkeypatch, "upper")
    code = run_scenario(parse_scenario(MINIMAL), output_dir=tmp_path, quiet=True)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: step 1, population 1: step solver made a state")
    assert "complete: no" in (tmp_path / "MANIFEST.txt").read_text()


WITH_CONTRACTION = MINIMAL + """probes:
  - kind: estimate_report
  - kind: contraction_probe
    second_initials:
      - {type: gaussian, center: 0.5, sigma: 0.12}
      - {type: bump, center: 0.5, half_width: 0.3}
"""


def test_flow_failure_reads_alike_with_and_without_probes(tmp_path, monkeypatch, capsys):
    # the contraction probe's second flow runs beside the scenario flow; a
    # failure in the scenario flow must not read differently for it
    leak_past_wall(monkeypatch, "upper")
    errors = []
    for name, text in (("bare", MINIMAL), ("probed", WITH_CONTRACTION)):
        assert run_scenario(parse_scenario(text), output_dir=tmp_path / name, quiet=True) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("numerical failure: step 1, population 1: step solver made")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_flow_failure_leaves_no_trajectory(tmp_path, monkeypatch, capsys):
    leak_past_wall(monkeypatch, "upper")
    assert run_scenario(parse_scenario(MINIMAL), output_dir=tmp_path, quiet=True) == 3
    assert capsys.readouterr().err.startswith("numerical failure: step 1, population 1: ")
    assert list(tmp_path.glob("trajectory_pop*.csv")) == []
    assert (tmp_path / "MANIFEST.txt").read_text() == "scenario: minimal\ncomplete: no\n"
    _assert_no_child_left()


def test_unwritable_inline_trajectory_is_an_output_error(tmp_path, capsys):
    # the writer cannot open population 0's file
    (tmp_path / "trajectory_pop0.csv").mkdir()
    assert run_scenario(parse_scenario(MINIMAL), output_dir=tmp_path, quiet=True) == 4
    err = capsys.readouterr().err
    assert err.startswith("output error: [Errno 21] Is a directory") and err.count("\n") == 1
    assert not (tmp_path / "trajectory_pop1.csv").exists()
    assert (tmp_path / "MANIFEST.txt").read_text() == "scenario: minimal\ncomplete: no\n"
    _assert_no_child_left()


def test_failed_run_leaves_no_trajectory(tmp_path, monkeypatch, capfd):
    # population 1's trajectory cannot be written; population 0's can
    (tmp_path / "a" / "trajectory_pop1.csv").mkdir(parents=True)
    assert run_scenario(parse_scenario(MINIMAL), output_dir=tmp_path / "a", quiet=True) == 4
    assert "output error: " in capfd.readouterr().err
    assert not (tmp_path / "a" / "trajectory_pop0.csv").exists()
    manifest = (tmp_path / "a" / "MANIFEST.txt").read_text()
    assert manifest.startswith("scenario: minimal\ncomplete: no\n") and "trajectory" not in manifest
    # a stale trajectory from an earlier run, then a flow that fails at step 1
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "trajectory_pop0.csv").write_text("t,particle_0\n0.0,0.5\n")
    leak_past_wall(monkeypatch, "upper")
    assert run_scenario(parse_scenario(MINIMAL), output_dir=tmp_path / "b", quiet=True) == 3
    assert capfd.readouterr().err.startswith("numerical failure: step 1, population 1: ")
    assert list((tmp_path / "b").glob("trajectory_pop*.csv")) == []
    _assert_no_child_left()


def test_unwritable_manifest_is_an_output_error(tmp_path, monkeypatch, capsys):
    (tmp_path / "MANIFEST.txt").mkdir()
    assert run_scenario(parse_scenario(MINIMAL), output_dir=tmp_path, quiet=True) == 4
    err = capsys.readouterr().err
    assert err.startswith("output error: [Errno 21] Is a directory") and err.count("\n") == 1
    # an otherwise complete run: the other outputs stay as written
    assert (tmp_path / "trajectory_pop1.csv").is_file() and (tmp_path / "diagnostics.csv").is_file()
    # a numerical failure's exit code stands, and both errors are reported
    leak_past_wall(monkeypatch, "upper")
    assert run_scenario(parse_scenario(MINIMAL), output_dir=tmp_path, quiet=True) == 3
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[0] for line in err] == ["numerical failure", "output error"]
    assert list(tmp_path.glob("trajectory_pop*.csv")) == []
    done = _run_module(str(SCENARIO_DIR / "identity.yaml"), "--output-dir", str(tmp_path),
                       "--quiet")
    assert done.returncode == 4 and "Traceback" not in done.stderr
    assert done.stderr.startswith("output error: [Errno 21] Is a directory")
    _assert_no_child_left()


def test_output_directory_that_is_a_file_is_an_output_error(tmp_path, capsys):
    # no directory can be made, so no MANIFEST either: the code and stderr say so
    (tmp_path / "out").write_text("")
    assert main([str(SCENARIO_DIR / "identity.yaml"), "--output-dir", str(tmp_path / "out"),
                 "--quiet"]) == 4
    assert capsys.readouterr().err.startswith("output error: [Errno 17] File exists")


def test_second_flow_failure_names_its_probe(tmp_path, monkeypatch, capsys):
    # population 1 of the contraction probe's second flow, row 3 of the kernel
    # that all four populations share, leaves the box
    minimize = jkoflow.jko._minimize

    def leaky(rows, x, at):
        x, at, res, iters = minimize(rows, x, at)
        x = x.copy()
        x[4 * rows.n - 1] = np.nextafter(rows.domain.upper, np.inf)
        return x, at, res, iters

    monkeypatch.setattr(jkoflow.jko, "_minimize", leaky)
    code = run_scenario(parse_scenario(WITH_CONTRACTION), output_dir=tmp_path, quiet=True)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: probes[1] second flow, step 1, population 1: "
                          "step solver made a state")
    assert re.search(r"; residual=\S+\n$", err)
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


@pytest.mark.parametrize("probe, message", [
    ("{kind: contraction_probe, second_initials: "
     "[{type: barenblatt, t0: 100.0}, {type: uniform}]}", "source solution"),
], ids=["unbuildable-second-initial"])
def test_scenario_that_cannot_run_fails_validation_and_runs_nothing(
    tmp_path, capsys, probe, message
):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL + f"probes: [{probe}]\n")
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


def test_scenario_file_not_utf8_exits_2_naming_it(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_bytes(b"name: x\n\xff\xfe\n")
    done = _run_module(str(path), "--validate-only")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"input error: {path}: 'utf-8' codec can't decode byte 0xff in "
                           "position 8: invalid start byte\n")


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
    assert capsys.readouterr().err == ("input error: flow.populations[0].initial.csv: "
                                       "/nonexistent/grid.csv: No such file or directory\n")


@pytest.mark.parametrize("content, message", [
    # a grid on [0, 2] is readable but wider than the scenario's [0, 1]
    (b"0.0,2.0,0.5\n", "grid support must be contained in the requested domain"),
    (b"0.0,1.0,1.0\n\xff\n", "'utf-8' codec can't decode byte 0xff in position 12: "
                               "invalid start byte"),
    # an infinite edge makes the mass sum inf * 0: refused before it is summed
    (b"0.0,1.0,1.0\n1.0,inf,0.0\n", ":2: non-finite value"),
], ids=["outside-domain", "not-utf8", "inf-edge"])
def test_bad_csv_initial_names_its_field(tmp_path, capsys, content, message):
    grid = tmp_path / "grid.csv"
    grid.write_bytes(content)
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL.replace(
        "initial: {n: 8, profile: {type: bump, center: 0.6, half_width: 0.2}}",
        f"initial: {{n: 8, csv: {grid}}}",
    ))
    where = f"{grid}{message}" if message.startswith(":") else f"{grid}: {message}"
    for args in (["--validate-only"], ["--output-dir", str(tmp_path / "out"), "--quiet"]):
        assert main([str(path), *args]) == 2
        assert capsys.readouterr().err == (
            f"input error: flow.populations[1].initial.csv: {where}\n")
    assert not (tmp_path / "out" / "trajectory_pop0.csv").exists()


def test_main_builds_a_csv_initial(tmp_path):
    # a grid of mass 0.2 on [0, 0.5] and 0.8 on [0.5, 1]: the midpoint quantiles
    # of 8 particles, two in the first cell and six in the second
    grid = tmp_path / "grid.csv"
    grid.write_text("edge_left,edge_right,value\n0.0,0.5,0.4\n0.5,1.0,1.6\n")
    text = MINIMAL.replace(
        "initial: {n: 8, profile: {type: gaussian, center: 0.4, sigma: 0.1}}",
        f"initial: {{n: 8, csv: {grid}}}",
    )
    initial = build_flow_config(parse_scenario(text)).populations[0].initial
    u = (np.arange(8) + 0.5) / 8
    want = np.where(u <= 0.2, u / 0.4, 0.5 + (u - 0.2) / 1.6)
    np.testing.assert_allclose(initial.positions, want, rtol=0, atol=1e-15)
    path = tmp_path / "s.yaml"
    path.write_text(text)
    assert main([str(path), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 0
    assert "complete: yes" in (tmp_path / "out" / "MANIFEST.txt").read_text()


def _run_module(*args):
    """``python -m jkoflow.cli`` with ``args``, in a fresh interpreter that imports this
    checkout's package and turns every RuntimeWarning into an error."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    return subprocess.run([sys.executable, "-m", "jkoflow.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_and_reports_its_exit_code(tmp_path):
    # importing the package does not import jkoflow.cli, so runpy runs it once,
    # as __main__, with no RuntimeWarning to turn into an error
    out = tmp_path / "out"
    done = _run_module(str(SCENARIO_DIR / "identity.yaml"), "--output-dir", str(out), "--quiet")
    assert "RuntimeWarning" not in done.stderr
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert "complete: yes" in (out / "MANIFEST.txt").read_text()
    assert (out / "diagnostics.csv").exists()
    missing = _run_module(str(tmp_path / "missing.yaml"))
    assert "RuntimeWarning" not in missing.stderr
    assert missing.returncode == 2
    assert missing.stderr.startswith("input error")


def test_main_runs_scenario_quiet(tmp_path, capsys):
    path = tmp_path / "s.yaml"
    path.write_text(MINIMAL)
    out = tmp_path / "out"
    code = main([str(path), "--output-dir", str(out), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert (out / "diagnostics.csv").exists()
