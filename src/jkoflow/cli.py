"""Scenario-driven front end: YAML in, CSV artifacts and probe reports out.

A scenario file is a single YAML document holding the flow definition plus
an optional list of verification probes.  Parsing is strict: unknown keys,
out-of-range numbers, and unresolvable names are rejected with the full
field path.  Running a scenario writes per-population trajectory CSVs, the
step diagnostics CSV, one text report per probe, and a MANIFEST listing
what was completed.  Every initial state, probe second initials included, is
built before the first step, and ``--validate-only`` builds them all too.

Each trajectory is written after the flows, as repr text made in whole-array
passes (see jkoflow._trajectory_text).  A failed run (exit 2, 3 or 4) leaves
no trajectory CSV, and its MANIFEST lists only what was written.

Exit codes: 0 success (skipped probes are not failures), 1 probe failure,
2 invalid input, 3 numerical failure, 4 an unwritable output, MANIFEST included.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import yaml

from .energy import entropy_energy, power_law_energy, zero_energy
from .errors import InvalidInputError, NumericalFailureError
from .flow import (
    Coupling,
    FlowConfig,
    PopulationSpec,
    bump_test_function,
    contraction_probe,
    contraction_rerun,
    diagnostics_csv,
    estimate_report,
    run_flows,
    trajectory_csv,
    weak_form_residual,
)
from .geometry import Domain, ParticleDensity, from_grid, grid_from_csv
from .presets import barenblatt_profile, bump_profile, gaussian_profile, profile_grid
from .transport import QuadraticCost, convexity_probe

# ------------------------------------------------------------------- schema
#
# The scenario schema is stated once, in the tables further down.  A kind is
# float, int or str; [kind] or {int: kind} for a YAML list or mapping, read
# into a tuple; a Record or a Union; or Bound(kind, reject, why), refusing
# with ``why`` the values for which ``reject`` is true.  A table key of kind
# Opt(kind, default) is optional.

Bound = namedtuple("Bound", "kind reject why")
Opt = namedtuple("Opt", "kind default", defaults=(None,))


class Record:
    """A YAML mapping with the keys of ``fields``, read into the named tuple ``cls``: every
    field has its own default, an Opt's or None, and _read refuses a missing required key."""

    def __init__(self, name: str, fields: dict):
        self.fields = fields
        self.cls = namedtuple(name, fields, module=__name__,
                              defaults=[getattr(kind, "default", None) for kind in fields.values()])


class Union(Record):
    """A YAML mapping whose ``tag`` key picks a (fields, builder) entry of ``variants``."""

    def __init__(self, name: str, tag: str, label: str, variants: dict):
        self.tag, self.label, self.variants = tag, label, variants
        keys = {k: Opt(v) for fields, _ in variants.values() for k, v in fields.items()}
        super().__init__(name, {tag: str, **keys})

    def build(self, spec, *args):
        """Run the builder of ``spec``'s variant on ``spec`` and ``args``."""
        return self.variants[getattr(spec, self.tag)][1](spec, *args)


_NOUNS = {float: "a number", int: "an integer", str: "a string", list: "a list", dict: "a mapping"}


def _fail(path: str, message: str):
    raise InvalidInputError(f"{path or 'scenario'}: {message}")


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _read(node, kind, path: str):
    """Check ``node`` against ``kind`` and return its parsed value."""
    if isinstance(kind, Bound):
        value = _read(node, kind.kind, path)
        if kind.reject(value):
            _fail(path, kind.why)
        return value
    shape = kind if isinstance(kind, type) else list if isinstance(kind, list) else dict
    if isinstance(node, bool) or not isinstance(node, (int, float) if shape is float else shape):
        _fail(path, f"expected {_NOUNS[shape]}")
    if isinstance(kind, type):
        try:
            return kind(node)
        except OverflowError:  # an integer too large for a float
            _fail(path, "out of range for a float")
    if isinstance(kind, list):
        return tuple(_read(v, kind[0], f"{path}[{i}]") for i, v in enumerate(node))
    if isinstance(kind, dict):
        [(key_kind, item_kind)] = kind.items()
        return tuple((_read(k, key_kind, f"{path}[{k!r}]"), _read(v, item_kind, f"{path}[{k!r}]"))
                     for k, v in node.items())
    fields = kind.fields
    if isinstance(kind, Union):
        tag = node.get(kind.tag)
        if not isinstance(tag, str) or tag not in kind.variants:
            _fail(_at(path, kind.tag),
                  f"unknown {kind.label} {tag!r} (choose from {', '.join(kind.variants)})")
        fields = {kind.tag: str, **kind.variants[tag][0]}
    for key in node:
        if key not in fields:
            _fail(_at(path, key), "unknown key")
    values = {}
    for key, entry in fields.items():
        required = not isinstance(entry, Opt)
        if key in node:
            values[key] = _read(node[key], entry if required else entry.kind, _at(path, key))
        elif required:
            _fail(_at(path, key), "missing required key")
    return kind.cls(**values)


# ------------------------------------------------------------------- probes


def _fmt(x) -> str:
    return repr(float(x))


def _run_estimate_probe(probe, config, traj, others) -> tuple[str, list[str]]:
    report = estimate_report(traj)
    lines = [
        f"population {row.population}: f_initial={_fmt(row.f_initial)} "
        f"f_max={_fmt(row.f_max)} f_max_bound={_fmt(row.f_max_bound)} "
        f"sum_w2_sq={_fmt(row.sum_w2_sq)} sum_w2_sq_bound={_fmt(row.sum_w2_sq_bound)}"
        for row in report.populations
    ]
    return ("PASS" if report.satisfied else "FAIL"), lines


def _run_contraction_probe(probe, config, traj, rerun) -> tuple[str, list[str]]:
    slack = probe.slack if probe.slack is not None else 1e-3
    report = contraction_probe(traj, rerun, slack=slack)
    lines = [f"reason: {report.reason}"]
    if report.status != "SKIPPED":
        lines += [
            f"max_increase={_fmt(report.max_increase)} slack={_fmt(slack)}",
            f"normalized_rate={_fmt(report.normalized_rate)}",
        ]
    return report.status, lines


def _run_convexity_probe(probe, config, traj, others) -> tuple[str, list[str]]:
    t_samples = probe.t_samples if probe.t_samples is not None else (0.25, 0.5, 0.75)
    lines = []
    for i, pop in enumerate(config.populations):
        if pop.coupling is None:
            continue
        slots = (i, *pop.coupling.partners)
        end_a = tuple(config.populations[m].initial for m in slots)
        end_b = tuple(others[m] for m in slots)
        report = convexity_probe(pop.coupling.cost, (end_a, end_b), t_samples)
        lines.append(f"population {i} cost={pop.coupling.cost.name}: "
                     f"q={_fmt(report.curvature)} margin={_fmt(0.0 - report.max_violation)}")
    if not lines:
        return "SKIPPED", ["reason: no couplings declared"]
    lines.append("criterion: each t's violation is -t(1-t) q exactly, and q >= 0; "
                 "margin = min over t of t(1-t) q")
    return "PASS", lines


def _run_weak_form_probe(probe, config, traj, others) -> tuple[str, list[str]]:
    dom = config.domain
    tf = probe.test_function or TestFunctionSpec("bump")
    center = tf.center if tf.center is not None else dom.lower + 0.5 * dom.length
    half_width = tf.half_width if tf.half_width is not None else 0.35 * dom.length
    t_cut = tf.t_cut if tf.t_cut is not None else 0.5 * config.horizon
    phi = bump_test_function(center, half_width, t_cut)
    report = weak_form_residual(traj, phi, probe.population)
    lines = [
        f"test function: bump center={_fmt(center)} half_width={_fmt(half_width)} "
        f"t_cut={_fmt(t_cut)}",
        f"residual={_fmt(report.residual)} bound={_fmt(report.bound)}",
        "criterion: |residual| <= bound plus a rounding cushion of 1e-12 (1 + bound)",
    ]
    return ("PASS" if report.satisfied else "FAIL"), lines


# ------------------------------------------------------------------- tables


def _cost_partners(c) -> tuple[int, ...]:
    """The populations a coupling fills its cost slots with, after its owner."""
    if c.weights is not None:
        return tuple(k for k, _ in c.weights)
    return c.partners if c.partners is not None else (c.partner,)


POSITIVE = Bound(float, lambda v: not 0 < v < math.inf, "must be positive and finite")
AT_LEAST_ONE = Bound(int, lambda v: v < 1, "must be at least 1")
NO_PARTNER = "need at least one partner"

PROFILE = Union("ProfileSpec", "type", "profile", {
    "gaussian": ({"center": float, "sigma": POSITIVE},
                 lambda p, dom: gaussian_profile(dom, p.center, p.sigma)),
    "bump": ({"center": float, "half_width": POSITIVE},
             lambda p, dom: bump_profile(dom, p.center, p.half_width)),
    "uniform": ({}, lambda p, dom: profile_grid(dom, lambda x: np.ones_like(x), cells=1)),
    "barenblatt": ({"t0": POSITIVE}, lambda p, dom: barenblatt_profile(p.t0, dom)),
})

ENERGY = Union("EnergySpec", "type", "energy", {
    "entropy": ({}, lambda e: entropy_energy()),
    "power_law": ({"exponent": POSITIVE, "coefficient": Opt(float)},
                  lambda e: power_law_energy(e.exponent, 1.0 if e.coefficient is None
                                             else e.coefficient)),
    "zero": ({}, lambda e: zero_energy()),
})

COST = Union("CostSpec", "type", "cost", {
    "zero": ({"partners": Bound([int], lambda v: not v, NO_PARTNER)},
             lambda c: QuadraticCost((0.0,) * len(c.partners), "zero")),
    "quadratic_pairwise": ({"partner": int},
                           lambda c: QuadraticCost((1.0,), "quadratic_pairwise")),
    "barycenter": ({"weights": Bound({int: POSITIVE}, lambda v: not v, NO_PARTNER)},
                   lambda c: QuadraticCost(tuple(w for _, w in c.weights), "barycenter")),
})

TEST_FUNCTION = Record("TestFunctionSpec", {
    "name": Bound(str, lambda v: v != "bump", "unknown test function (only bump)"),
    "center": Opt(float), "half_width": Opt(POSITIVE), "t_cut": Opt(POSITIVE),
})

PROBE = Union("ProbeSpec", "kind", "probe", {
    "estimate_report": ({}, _run_estimate_probe),
    "contraction_probe": ({"second_initials": [PROFILE], "slack": Opt(POSITIVE)},
                          _run_contraction_probe),
    "convexity_probe": ({
        "second_initials": [PROFILE],
        "t_samples": Opt([Bound(float, lambda v: not 0.0 <= v <= 1.0, "must lie in [0, 1]")]),
    }, _run_convexity_probe),
    "weak_form_residual": ({"population": int, "test_function": Opt(TEST_FUNCTION)},
                           _run_weak_form_probe),
})

INITIAL = Record("InitialSpec", {
    "n": Bound(int, lambda v: v < 2, "need at least two particles"),
    "profile": Opt(PROFILE), "csv": Opt(str),
})

POPULATION = Record("PopulationConfigSpec", {
    "energy": ENERGY,
    "initial": Bound(INITIAL, lambda s: (s.profile is None) == (s.csv is None),
                     "give exactly one of 'profile' or 'csv'"),
    "coupling": Opt(COST),
})

DOMAIN = Record("DomainSpec", {"lower": float, "upper": float})

FLOW = Record("FlowSpec", {
    "domain": Bound(DOMAIN, lambda d: not d.upper > d.lower, "upper must exceed lower"),
    "h": POSITIVE,
    "n_steps": AT_LEAST_ONE,
    "populations": Bound([POPULATION], lambda v: len(v) < 2, "need at least two populations"),
    "tol": Opt(POSITIVE),
})

SCENARIO = Record("Scenario", {
    "name": str, "flow": FLOW, "probes": Opt([PROBE], ()), "output_dir": Opt(str),
})

EnergySpec, TestFunctionSpec, Scenario = ENERGY.cls, TEST_FUNCTION.cls, SCENARIO.cls


# ---------------------------------------------------------- parse and build


# libyaml's loader when PyYAML was built with it: the same documents and
# error marks, parsed about eight times faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a single-document YAML scenario."""
    # libyaml accepts some tabs the pure-Python loader refuses, so no loader sees one
    tab = text.find("\t")
    if tab >= 0:
        line, column = text.count("\n", 0, tab) + 1, tab - text.rfind("\n", 0, tab)
        raise InvalidInputError(f"syntax error at line {line}, column {column}")
    try:
        doc = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else f": {err}"
        raise InvalidInputError(f"syntax error{where}") from err
    scenario = _read(doc, SCENARIO, "")
    n_pops = len(scenario.flow.populations)
    for i, p in enumerate(scenario.flow.populations):
        slots = (i,) + (_cost_partners(p.coupling) if p.coupling is not None else ())
        if len(set(slots)) != len(slots):
            _fail(f"flow.populations[{i}].coupling", "partners must be distinct other populations")
        for j in slots:
            if not 0 <= j < n_pops:
                _fail(f"flow.populations[{i}].coupling", f"partner {j} out of range")
    for i, probe in enumerate(scenario.probes):
        if probe.second_initials is not None and len(probe.second_initials) != n_pops:
            _fail(f"probes[{i}].second_initials", f"need one profile per population ({n_pops})")
        if probe.population is not None and not 0 <= probe.population < n_pops:
            _fail(f"probes[{i}].population", "out of range")
    return scenario


def _build_profile(spec, domain: Domain, n: int, path: str) -> ParticleDensity:
    try:
        return from_grid(PROFILE.build(spec, domain), n)
    except InvalidInputError as err:
        _fail(path, str(err))


def _build_initial(spec, domain: Domain, path: str) -> ParticleDensity:
    if spec.profile is not None:
        return _build_profile(spec.profile, domain, spec.n, _at(path, "profile"))
    try:
        return from_grid(grid_from_csv(spec.csv), spec.n, domain=domain)
    except (OSError, ValueError) as err:  # ValueError: InvalidInputError, or bytes not UTF-8
        # grid_from_csv's refusals start with the file's name; the others do not
        message = getattr(err, "strerror", None) or str(err)
        if not message.startswith(f"{spec.csv}:"):
            message = f"{spec.csv}: {message}"
        _fail(_at(path, "csv"), message)


def build_flow_config(scenario: Scenario) -> FlowConfig:
    """Resolve a parsed scenario into runnable flow data."""
    flow = scenario.flow
    domain = Domain(flow.domain.lower, flow.domain.upper)
    pops = []
    for i, p in enumerate(flow.populations):
        coupling = None
        if p.coupling is not None:
            coupling = Coupling(COST.build(p.coupling), _cost_partners(p.coupling))
        initial = _build_initial(p.initial, domain, f"flow.populations[{i}].initial")
        pops.append(PopulationSpec(initial, ENERGY.build(p.energy), coupling))
    return FlowConfig(tuple(pops), flow.h, flow.n_steps, flow.tol)


def _probe_initials(scenario: Scenario, config: FlowConfig) -> tuple:
    """Each probe's second initial states (None where it has none), built before any flow."""
    return tuple(
        None if probe.second_initials is None else tuple(
            _build_profile(p, config.domain, pop.initial.n, f"probes[{j}].second_initials[{k}]")
            for k, (p, pop) in enumerate(zip(probe.second_initials, config.populations))
        )
        for j, probe in enumerate(scenario.probes)
    )


# ------------------------------------------------------------------- running

FAILURES = (InvalidInputError, NumericalFailureError)

def _exit_code(err: Exception) -> int:
    """Report a failure on stderr, with its residual if known; 3 if numerical, 2 for bad input."""
    numerical = isinstance(err, NumericalFailureError)
    message = str(err)
    if numerical and err.residual is not None:
        message += f"; residual={float(err.residual)!r}"
    print(f"{'numerical failure' if numerical else 'input error'}: {message}", file=sys.stderr)
    return 3 if numerical else 2


def run_scenario(scenario: Scenario, output_dir=None, quiet: bool = False) -> int:
    """Run the flow, write artifacts and probe reports, return the exit code."""
    if output_dir is None:
        output_dir = scenario.output_dir or f"out_{scenario.name}"
    out = Path(output_dir)
    names = [f"trajectory_pop{i}.csv" for i in range(len(scenario.flow.populations))]
    written: list[str] = []
    code = 0
    say = (lambda *a: None) if quiet else print
    failed_probe = None
    try:
        out.mkdir(parents=True, exist_ok=True)
        config = build_flow_config(scenario)
        # each probe's input: its second initials, or a contraction probe's
        # second flow (None when skipped), run in the scenario flow's kernels
        inputs = [contraction_rerun(config, others) if probe.kind == "contraction_probe"
                  else others for probe, others in zip(scenario.probes,
                                                       _probe_initials(scenario, config))]
        reruns = [j for j, given in enumerate(inputs) if isinstance(given, FlowConfig)]
        try:
            traj, *rerun_trajs = run_flows([config, *(inputs[j] for j in reruns)])
        except NumericalFailureError as err:
            if not err.row:
                raise
            # a failure in a second flow is named by the probe it serves
            raise NumericalFailureError(f"probes[{reruns[err.row - 1]}] second flow, {err}",
                                        residual=err.residual) from err
        for j, rerun in zip(reruns, rerun_trajs):
            inputs[j] = rerun
        for i, name in enumerate(names):
            trajectory_csv(traj, i, out / name)
        diagnostics_csv(traj, out / "diagnostics.csv")
        written.append("diagnostics.csv")
        kind_counts: dict[str, int] = {}
        for probe, given in zip(scenario.probes, inputs):
            kind_counts[probe.kind] = kind_counts.get(probe.kind, 0) + 1
            suffix = "" if kind_counts[probe.kind] == 1 else f"_{kind_counts[probe.kind]}"
            fname = f"probe_{probe.kind}{suffix}.txt"
            status, lines = PROBE.build(probe, config, traj, given)
            body = "\n".join([f"probe: {probe.kind}", f"status: {status}"] + lines) + "\n"
            (out / fname).write_text(body)
            written.append(fname)
            say(f"{probe.kind}: {status}")
            if status == "FAIL" and failed_probe is None:
                failed_probe = probe.kind
        written[:0] = names  # listed once the run is complete: a failed run removes them
    except FAILURES as err:
        code = _exit_code(err)
    except OSError as err:  # an output that cannot be written
        print(f"output error: {err}", file=sys.stderr)
        code = 4
    try:
        if code:  # a failed run leaves no trajectory, from this run or an earlier one
            for path in (out / name for name in names):
                if path.is_file():
                    path.unlink()
        if out.is_dir():  # else it could not be made, which the error reports
            manifest = [f"scenario: {scenario.name}", f"complete: {'no' if code else 'yes'}"]
            manifest += [f"file: {name}" for name in written]
            (out / "MANIFEST.txt").write_text("\n".join(manifest) + "\n")
    except OSError as err:  # a 2, 3 or 4 already reached stands
        print(f"output error: {err}", file=sys.stderr)
        code = code or 4
    if code:
        return code
    if failed_probe is not None:
        print(f"probe failed: {failed_probe}", file=sys.stderr)
        return 1
    say(f"wrote {len(written)} files to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jkoflow",
        description="Run a particle-flow scenario and its verification probes.",
    )
    parser.add_argument("scenario", help="path to a YAML scenario file")
    parser.add_argument("--output-dir", default=None, help="override the output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--validate-only", action="store_true",
        help="parse the scenario and build its initial states, then exit without running",
    )
    args = parser.parse_args(argv)
    try:
        try:
            text = Path(args.scenario).read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            raise InvalidInputError(f"{args.scenario}: {err}") from err
        scenario = parse_scenario(text)
        if args.validate_only:
            _probe_initials(scenario, build_flow_config(scenario))
            if not args.quiet:
                print(f"scenario {scenario.name!r} is valid")
            return 0
    except (OSError, *FAILURES) as err:
        return _exit_code(err)
    return run_scenario(scenario, output_dir=args.output_dir, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
