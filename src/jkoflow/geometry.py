"""One-dimensional probability densities and the distances between them.

Two representations are used throughout:

* ``GridDensity``: a histogram (piecewise-constant density) on an interval.
* ``ParticleDensity``: N equal-mass particles at sorted positions.  A density
  rho with cumulative function G is discretized by placing particle j at the
  midpoint quantile G^{-1}((j - 1/2) / N); conversely N sorted particles carry
  mass 1/N each.

With equal particle counts every quadratic transport quantity reduces to
aligned differences of the sorted position vectors, which is what makes the
rest of the library cheap:  W_2^2(rho, mu) = (1/N) sum_j (x_j - y_j)^2.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Mass defect tolerated by the GridDensity normalization invariant.
MASS_TOL = 1e-12


@dataclass(frozen=True)
class Domain:
    """Closed interval [lower, upper] on which all densities live."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (isinstance(self.lower, numbers.Real) and isinstance(self.upper, numbers.Real)):
            raise InvalidInputError(
                f"domain bounds must be real numbers, got [{self.lower!r}, {self.upper!r}]")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InvalidInputError("domain bounds must be finite")
        if not self.lower < self.upper:
            raise InvalidInputError(
                f"domain needs lower < upper, got [{self.lower}, {self.upper}]"
            )

    @property
    def length(self) -> float:
        return self.upper - self.lower


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def accepted(domain: Domain, positions: np.ndarray):
    """Whether ParticleDensity accepts positions (one bool per row of a 2-d block): sorted
    and inside the domain, which a NaN or an infinity fails too, the domain being finite."""
    return (np.logical_and.reduce(positions[..., 1:] >= positions[..., :-1], -1)
            & (positions[..., 0] >= domain.lower) & (positions[..., -1] <= domain.upper))


@dataclass(frozen=True, eq=False)
class ParticleDensity:
    """N equal-mass particles at sorted positions inside a domain.

    Ties are allowed (particles may coincide); every position must lie in
    [domain.lower, domain.upper].
    """

    domain: Domain
    positions: np.ndarray

    def __post_init__(self):
        pos = _as_readonly(np.atleast_1d(self.positions))
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 1 or pos.size < 1:
            raise InvalidInputError("positions must be a nonempty 1-d array")
        # one pass when all is well.  On failure, the first refused check names why
        if accepted(self.domain, pos):
            return
        lower, upper = self.domain.lower, self.domain.upper
        if not np.all(np.isfinite(pos)):
            raise InvalidInputError("positions must be finite")
        if np.any(np.diff(pos) < 0):
            raise InvalidInputError("positions must be sorted nondecreasing")
        raise InvalidInputError(f"positions must lie in [{lower}, {upper}]")

    @property
    def n(self) -> int:
        return int(self.positions.size)


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Histogram density: cell_values[k] on [cell_edges[k], cell_edges[k+1]).

    Normalized: sum_k values[k] * width[k] = 1 within MASS_TOL.
    """

    cell_edges: np.ndarray
    cell_values: np.ndarray

    def __post_init__(self):
        edges = _as_readonly(np.atleast_1d(self.cell_edges))
        values = _as_readonly(np.atleast_1d(self.cell_values))
        object.__setattr__(self, "cell_edges", edges)
        object.__setattr__(self, "cell_values", values)
        if edges.ndim != 1 or edges.size < 2:
            raise InvalidInputError("cell_edges must be 1-d with at least two entries")
        if values.ndim != 1 or values.size != edges.size - 1:
            raise InvalidInputError("cell_values must have len(cell_edges) - 1 entries")
        if not (np.all(np.isfinite(edges)) and np.all(np.isfinite(values))):
            raise InvalidInputError("grid entries must be finite")
        if np.any(np.diff(edges) <= 0):
            raise InvalidInputError("cell_edges must be strictly increasing")
        if np.any(values < 0):
            raise InvalidInputError("cell_values must be nonnegative")
        mass = math.fsum((values * np.diff(edges)).tolist())
        if abs(mass - 1.0) > MASS_TOL:
            raise InvalidInputError(
                f"grid density must integrate to 1, got {mass!r}"
            )

    @property
    def domain(self) -> Domain:
        return Domain(float(self.cell_edges[0]), float(self.cell_edges[-1]))

    @property
    def n_cells(self) -> int:
        return int(self.cell_values.size)


def normalized_grid(cell_edges, cell_values) -> GridDensity:
    """Build a GridDensity from raw histogram data, rescaling to unit mass.

    Zero or negative total mass is rejected.
    """
    edges = np.asarray(cell_edges, dtype=float)
    values = np.asarray(cell_values, dtype=float)
    if edges.ndim != 1 or values.ndim != 1 or values.size != edges.size - 1:
        raise InvalidInputError("inconsistent grid shapes")
    if np.any(values < 0):
        raise InvalidInputError("cell_values must be nonnegative")
    widths = np.diff(edges)
    if np.any(widths <= 0):
        raise InvalidInputError("cell_edges must be strictly increasing")
    mass = math.fsum((values * widths).tolist())
    if mass <= 0:
        raise InvalidInputError("grid has zero total mass")
    return GridDensity(edges, values / mass)


def grid_from_csv(path) -> GridDensity:
    """Load a GridDensity from CSV rows ``edge_left, edge_right, value``.

    The first non-blank row is a header, skipped, if its first field is not a
    number; any other non-numeric field, and any inf or nan, is refused with
    its line.  Cells must be contiguous (edge_right of one row equals
    edge_left of the next within 1e-12) and increasing.  Values are rescaled
    to unit mass; a total mass farther than 1e-6 from 1 is rejected as
    ill-formed.
    """
    rows, first = [], True  # first: no non-blank row read yet
    with open(path, newline="", encoding="utf-8") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            header, first = first, False
            if len(row) != 3:
                raise InvalidInputError(
                    f"{path}:{lineno}: expected 3 columns (edge_left, edge_right, value)"
                )
            triple = []
            for c in row:
                try:
                    triple.append(float(c))
                except ValueError:
                    break
            if len(triple) < 3:
                if header and not triple:  # the first non-blank row, its first field no number
                    continue
                raise InvalidInputError(f"{path}:{lineno}: non-numeric row")
            if not all(map(math.isfinite, triple)):
                raise InvalidInputError(f"{path}:{lineno}: non-finite value")
            rows.append((lineno, triple))
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    edges = [rows[0][1][0]]
    values = []
    for lineno, (left, right, value) in rows:
        if abs(left - edges[-1]) > 1e-12:
            raise InvalidInputError(
                f"{path}:{lineno}: cells not contiguous ({left!r} after {edges[-1]!r})"
            )
        if right <= left:
            raise InvalidInputError(f"{path}:{lineno}: edge_right must exceed edge_left")
        if value < 0:
            raise InvalidInputError(f"{path}:{lineno}: negative value")
        edges.append(right)
        values.append(value)
    edges_arr = np.asarray(edges)
    values_arr = np.asarray(values)
    mass = math.fsum((values_arr * np.diff(edges_arr)).tolist())
    if mass <= 0:
        raise InvalidInputError(f"{path}: zero total mass")
    if abs(mass - 1.0) > 1e-6:
        raise InvalidInputError(
            f"{path}: grid mass {mass!r} too far from 1 (normalize the file first)"
        )
    return GridDensity(edges_arr, values_arr / mass)


def from_grid(grid: GridDensity, n: int, domain: Domain | None = None) -> ParticleDensity:
    """Particle discretization of a grid density at midpoint quantiles.

    Inverts the piecewise-linear CDF exactly at u_j = (j - 1/2)/N.  The
    result lives on `domain` if given (which must contain the grid), else on
    the grid's own interval.
    """
    if n < 1:
        raise InvalidInputError("need at least one particle")
    gd = grid.domain
    if domain is None:
        domain = gd
    elif gd.lower < domain.lower - 1e-12 or gd.upper > domain.upper + 1e-12:
        raise InvalidInputError("grid support must be contained in the requested domain")
    edges = grid.cell_edges
    values = grid.cell_values
    widths = np.diff(edges)
    masses = values * widths
    total = masses.sum()  # > 0: a GridDensity's mass is within 1e-12 of 1
    cum = np.concatenate([[0.0], np.cumsum(masses)]) / total
    cum[-1] = 1.0
    u = (np.arange(n) + 0.5) / n
    # smallest cell k with cum[k+1] >= u, so cum[k] < u <= cum[k+1]
    k = np.searchsorted(cum[1:], u, side="left")
    k = np.minimum(k, len(values) - 1)
    dens = values[k] / total
    pos = edges[k] + (u - cum[k]) / dens
    pos = np.minimum(np.maximum(pos, edges[k]), edges[k + 1])
    pos = np.maximum.accumulate(pos)  # guard rounding at cell boundaries
    pos = np.clip(pos, domain.lower, domain.upper)
    return ParticleDensity(domain, pos)


def w2_distance(rho: ParticleDensity, mu: ParticleDensity) -> float:
    """Quadratic transport distance between equal-count particle densities.

    Both inputs sorted with mass 1/N per particle, so the optimal coupling
    is index-aligned and W_2^2 = (1/N) sum_j (x_j - y_j)^2.
    """
    if rho.n != mu.n:
        raise InvalidInputError(f"particle counts differ: {rho.n} vs {mu.n}")
    if rho.domain != mu.domain:
        raise InvalidInputError("densities live on different domains")
    d = rho.positions - mu.positions
    return math.sqrt(float(np.mean(d * d)))


def particle_step_density(rho: ParticleDensity) -> GridDensity:
    """Piecewise-constant density spreading each particle's 1/N mass over
    its cell between the neighbor midpoints (walls close the end cells).

    Coincident midpoints (collided particles) are merged, accumulating mass.
    """
    n = rho.n
    mids = 0.5 * (rho.positions[:-1] + rho.positions[1:])
    edges = np.concatenate([[rho.domain.lower], mids, [rho.domain.upper]])
    merged = np.unique(edges)  # exact duplicates collapse; endpoints survive
    cell_mid = 0.5 * (edges[:-1] + edges[1:])
    r = np.clip(np.searchsorted(merged, cell_mid, side="right") - 1, 0, merged.size - 2)
    mass = np.bincount(r, weights=np.full(n, 1.0 / n), minlength=merged.size - 1)
    return GridDensity(merged, mass / np.diff(merged))


def l1_grid_distance(a: GridDensity, b: GridDensity) -> float:
    """Exact L1 distance between two piecewise-constant densities.

    Integrates |a - b| over the union of both edge sets; the grids must
    span the same interval.
    """
    if abs(a.cell_edges[0] - b.cell_edges[0]) > 1e-12 or abs(
        a.cell_edges[-1] - b.cell_edges[-1]
    ) > 1e-12:
        raise InvalidInputError("grids must span the same interval")
    edges = np.union1d(a.cell_edges, b.cell_edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    ia = np.clip(np.searchsorted(a.cell_edges, mids) - 1, 0, a.n_cells - 1)
    ib = np.clip(np.searchsorted(b.cell_edges, mids) - 1, 0, b.n_cells - 1)
    return float(
        np.sum(np.abs(a.cell_values[ia] - b.cell_values[ib]) * np.diff(edges))
    )


def l1_distance_to_profile(rho: ParticleDensity, reference: GridDensity) -> float:
    """L1 defect of the particle density's step reconstruction against a
    piecewise-constant reference on the same domain."""
    return l1_grid_distance(particle_step_density(rho), reference)
