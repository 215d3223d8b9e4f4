"""The package surface: every export resolves, the README examples run or parse, and the
import stays lean."""

import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import jkoflow
from jkoflow import cli
from jkoflow.cli import parse_scenario
from jkoflow.errors import InvalidInputError

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# modules that `import jkoflow` and every shipped scenario run must not load:
# jko loads LAPACK dptsv from scipy's compiled _flapack file, so no scipy
# module loads at all, in particular not scipy.linalg and the numpy.f2py it
# pulls in (together more than half of a fresh import); the package never
# loads scipy.sparse (only the LP in tests/oracle.py does) or scipy.special,
# and the exact ordered-box projection imports scipy.optimize when called
HEAVY = ("numpy.f2py", "scipy", "scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.special")


def test_every_export_resolves():
    assert [name for name in jkoflow.__all__ if not hasattr(jkoflow, name)] == []


def test_exports_are_the_public_names_and_the_cli_keeps_its_own():
    public = [name for name, value in vars(jkoflow).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(jkoflow.__all__) == sorted(public) and len(set(public)) == len(public)
    gone = ("DomainError", "Scenario", "build_flow_config", "parse_scenario", "run_scenario")
    assert [name for name in gone if hasattr(jkoflow, name)] == []
    assert "__getattr__" not in vars(jkoflow)
    assert [name for name in gone[1:] if not hasattr(cli, name)] == []
    errors = [name for name, value in vars(jkoflow.errors).items()
              if isinstance(value, type) and issubclass(value, Exception)]
    assert sorted(errors) == ["InvalidInputError", "NumericalFailureError"]


# the types whose constructor validates its fields (__post_init__), and FlowTrajectory,
# whose cached states need an instance dict; every other record is a named tuple
VALIDATING = {"Domain", "ParticleDensity", "GridDensity", "QuadraticCost", "Coupling",
              "FlowConfig", "StepProblem"}


def test_only_validating_types_are_dataclasses():
    modules = [importlib.import_module(f"jkoflow.{m.name}")
               for m in pkgutil.iter_modules(jkoflow.__path__)]
    classes = {v for module in modules for v in vars(module).values()
               if isinstance(v, type) and v.__module__ == module.__name__}
    classes |= {v.cls for v in vars(cli).values() if isinstance(v, cli.Record)}
    dataclass_types = {c for c in classes if dataclasses.is_dataclass(c)}
    assert sorted(c.__name__ for c in dataclass_types) == sorted(VALIDATING | {"FlowTrajectory"})
    for c in dataclass_types:
        assert ("__post_init__" in vars(c)) == (c.__name__ in VALIDATING), c.__name__


def test_a_record_reads_an_optional_key_before_a_required_one():
    record = cli.Record("Spec", {"a": cli.Opt(float, 1.5), "b": int, "c": cli.Opt(str)})
    spec = cli._read({"b": 2}, record, "spec")
    assert (spec.a, spec.b, spec.c) == (1.5, 2, None)  # each key's own default
    with pytest.raises(InvalidInputError, match="^spec.b: missing required key$"):
        cli._read({"a": 0.5}, record, "spec")


def test_readme_python_example_runs_as_written(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "True\n"


def test_readme_scenario_schema_parses():
    # parsing opens no file, so the schema's example csv path need not exist
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert blocks
    for block in blocks:
        parse_scenario(block)


def _heavy_modules_after(code: str) -> set[str]:
    """The HEAVY modules a fresh interpreter holds after running code."""
    script = f"import sys\n{code}\nprint(*(m for m in {HEAVY!r} if m in sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return set(done.stdout.split())


def test_import_loads_only_what_runs_need(tmp_path):
    assert _heavy_modules_after("import jkoflow") == set()
    run = "from jkoflow.cli import main\nassert main([{!r}, '--output-dir', {!r}, '--quiet']) == 0"
    scenarios = sorted((ROOT / "scenarios").glob("*.yaml"))
    assert len(scenarios) >= 4
    for scenario in scenarios:
        code = run.format(str(scenario), str(tmp_path / scenario.stem))
        assert _heavy_modules_after(code) == set(), scenario.name
