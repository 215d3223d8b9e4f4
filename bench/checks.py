"""Output checks of one scenario run, read from the files the CLI wrote.

The checks use no jkoflow code: the reference densities and the L1
distance are computed here, so a change inside the package cannot change
what counts as a correct output.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PROFILE_CELLS = 2048  # midpoint resolution of the closed-form references
EL_FACTOR = 10.0  # an EL residual above EL_FACTOR * tol marks a step non-optimal


@dataclass
class RunCheck:
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    csv_bytes: int = 0
    nonoptimal: int = 0
    population_steps: int = 0
    ref_l1: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def expected_files(spec: dict) -> list[str]:
    """Every file a complete run writes, named as the CLI names them."""
    files = [f"trajectory_pop{i}.csv" for i in range(len(spec["flow"]["populations"]))]
    files.append("diagnostics.csv")
    seen: dict[str, int] = {}
    for probe in spec.get("probes", []):
        kind = probe["kind"]
        seen[kind] = seen.get(kind, 0) + 1
        files.append(f"probe_{kind}{'' if seen[kind] == 1 else '_' + str(seen[kind])}.txt")
    return files


def step_density(x: np.ndarray, lower: float, upper: float):
    """Edges and values of the particle step density.

    Each particle spreads mass 1/N over the cell between its neighbour
    midpoints, the walls closing the end cells; zero-width cells of
    collided particles pass their mass to the next cell.
    """
    edges = np.concatenate([[lower], 0.5 * (x[:-1] + x[1:]), [upper]])
    merged = np.unique(edges)
    cell = np.searchsorted(merged, 0.5 * (edges[:-1] + edges[1:]), side="right") - 1
    cell = np.clip(cell, 0, merged.size - 2)
    mass = np.bincount(cell, minlength=merged.size - 1) / x.size
    return merged, mass / np.diff(merged)


def sampled_density(fn, lower: float, upper: float):
    """Midpoint samples of a closed-form density, renormalized to mass 1."""
    edges = np.linspace(lower, upper, PROFILE_CELLS + 1)
    values = np.maximum(fn(0.5 * (edges[:-1] + edges[1:])), 0.0)
    return edges, values / np.sum(values * np.diff(edges))


def barenblatt(t: float):
    """Source solution of d_t rho = Lap(rho^2) centred at 0, unit mass."""
    c = 3.0 ** (1.0 / 3.0) / 4.0
    return lambda x: np.maximum(c - x * x * t ** (-2.0 / 3.0) / 12.0, 0.0) * t ** (-1.0 / 3.0)


def l1_distance(a, b) -> float:
    """Exact L1 distance of two piecewise-constant densities on one interval."""
    (ea, va), (eb, vb) = a, b
    edges = np.union1d(ea, eb)
    mids = 0.5 * (edges[:-1] + edges[1:])
    ia = np.clip(np.searchsorted(ea, mids) - 1, 0, va.size - 1)
    ib = np.clip(np.searchsorted(eb, mids) - 1, 0, vb.size - 1)
    return float(np.sum(np.abs(va[ia] - vb[ib]) * np.diff(edges)))


def references(workload: str, spec: dict):
    """Closed-form final density per population, or None where none is known.

    Heat flow with no-flux walls relaxes to the uniform density; each
    porous population follows the Barenblatt solution from its own t0.
    """
    flow = spec["flow"]
    lower, upper = flow["domain"]["lower"], flow["domain"]["upper"]
    pops = flow["populations"]
    if workload == "heat_flow":
        uniform = (np.array([lower, upper]), np.array([1.0 / (upper - lower)]))
        return [uniform for _ in pops]
    if workload == "porous_wide":
        t_end = flow["n_steps"] * flow["h"]
        return [
            sampled_density(barenblatt(p["initial"]["profile"]["t0"] + t_end), lower, upper)
            for p in pops
        ]
    return None


def _final_positions(path: Path) -> np.ndarray:
    last = path.read_text().rstrip("\n").rsplit("\n", 1)[-1]
    return np.array([float(v) for v in last.split(",")[1:]])


def check_run(
    out: Path, rc: int | None, spec: dict, workload: str, ref_tol: float | None
) -> RunCheck:
    """All output checks of one run; ``ref_tol`` None reports ref_l1 unchecked."""
    result = RunCheck()
    problems = result.problems
    if rc != 0:
        problems.append(f"exit code {rc}")
    files = expected_files(spec)
    manifest_path = out / "MANIFEST.txt"
    manifest = manifest_path.read_text().splitlines() if manifest_path.exists() else []
    if "complete: yes" not in manifest:
        problems.append("MANIFEST.txt does not say 'complete: yes'")
    listed = {line[len("file: "):] for line in manifest if line.startswith("file: ")}
    missing = [f for f in files if f not in listed or not (out / f).is_file()]
    if missing:
        problems.append(f"missing from MANIFEST or disk: {', '.join(missing)}")
        return result

    for name in files:
        if name.startswith("probe_"):
            status = next(
                (line.split(":", 1)[1].strip()
                 for line in (out / name).read_text().splitlines()
                 if line.startswith("status:")),
                None,
            )
            if status not in ("PASS", "SKIPPED"):
                problems.append(f"{name}: status {status}")

    csvs = [f for f in files if f.endswith(".csv")]
    digest = hashlib.sha256()
    for name in csvs:
        data = (out / name).read_bytes()
        digest.update(name.encode() + b"\0" + data)
        result.csv_bytes += len(data)
    result.digest = digest.hexdigest()

    flow = spec["flow"]
    sizes = [p["initial"]["n"] for p in flow["populations"]]
    rows = (out / "diagnostics.csv").read_text().splitlines()
    header = rows[0].split(",")
    col_i, col_el = header.index("i"), header.index("el_residual")
    for row in rows[1:]:
        cells = row.split(",")
        n = sizes[int(cells[col_i])]
        tol = flow.get("tol") or 1e-9 * math.sqrt(n)
        result.nonoptimal += float(cells[col_el]) > EL_FACTOR * tol
        result.population_steps += 1
    if result.population_steps != flow["n_steps"] * len(sizes):
        problems.append(
            f"diagnostics.csv has {result.population_steps} rows, "
            f"expected {flow['n_steps'] * len(sizes)}"
        )

    refs = references(workload, spec)
    if refs is not None:
        lower, upper = flow["domain"]["lower"], flow["domain"]["upper"]
        result.ref_l1 = max(
            l1_distance(step_density(_final_positions(out / f"trajectory_pop{i}.csv"),
                                     lower, upper), ref)
            for i, ref in enumerate(refs)
        )
        if ref_tol is not None and not result.ref_l1 <= ref_tol:
            problems.append(f"ref_l1 {result.ref_l1:.4g} above {ref_tol}")
    return result
