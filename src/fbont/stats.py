"""Correlation between a domain's triple volume and its ontology complexity.

Plain two-pass formulas with compensated summation (math.fsum), which keeps
billion-scale integer counts exact in double precision. x is always the
complexity score and y the triple count: the regression slope is then
triples per unit of complexity, the only assignment under which
five-digit slopes over ~90 domains make sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


class ConstantInputError(ValueError):
    """Correlation is undefined when either variable never varies."""


class DegenerateFitError(ValueError):
    """A regression line is undefined over constant x."""


class InsufficientDataError(ValueError):
    """Fewer than two rows remain after exclusions."""


def _moments(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float, float, float]:
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 points, got {n}")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    syy = math.fsum((y - mean_y) ** 2 for y in ys)
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return mean_x, mean_y, sxx, syy, sxy


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation. Symmetric, affine-invariant, in [-1, 1]."""
    _, _, sxx, syy, sxy = _moments(xs, ys)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantInputError("correlation undefined for constant input")
    return sxy / math.sqrt(sxx * syy)


def linreg(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares (slope, intercept) of y on x."""
    mean_x, mean_y, sxx, _, sxy = _moments(xs, ys)
    if sxx == 0.0:
        raise DegenerateFitError("regression undefined for constant x")
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


@dataclass(frozen=True)
class StudyRow:
    """One subject-matter domain: its triple volume and ontology complexity."""

    domain: str
    triple_count: int
    complexity: float


@dataclass(frozen=True)
class StudyResult:
    n: int
    pearson_r: float
    slope: float
    intercept: float
    excluded: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "pearson_r": self.pearson_r,
            "slope": self.slope,
            "intercept": self.intercept,
            "excluded": list(self.excluded),
        }


def run_study(
    rows: Iterable[StudyRow],
    exclusions: Iterable[str] = (),
) -> StudyResult:
    """Correlate complexity (x) against triple count (y) across domains.

    ``exclusions`` names domains dropped by inspection (the published outlier
    run drops music); names that match no row are ignored here, callers warn.
    Row order never matters. A ConstantInputError names the variable that
    never varies and the domains left.
    """
    excluded_names = set(exclusions)
    rows = list(rows)
    used = [row for row in rows if row.domain not in excluded_names]
    if len(used) < 2:
        raise InsufficientDataError(
            f"{len(used)} rows remain after excluding {sorted(excluded_names)}"
        )
    xs = [row.complexity for row in used]
    ys = [float(row.triple_count) for row in used]
    try:
        r = pearson_r(xs, ys)
    except ConstantInputError:
        variables = (("complexity score", xs), ("triple count", ys))
        constant = [name for name, values in variables if len(set(values)) == 1]
        domains = ", ".join(sorted(row.domain for row in used))
        raise ConstantInputError(
            f"correlation undefined: the same {' and '.join(constant)} for every domain left: {domains}"
        ) from None
    slope, intercept = linreg(xs, ys)
    applied = sorted(excluded_names & {row.domain for row in rows})
    return StudyResult(
        n=len(used),
        pearson_r=r,
        slope=slope,
        intercept=intercept,
        excluded=tuple(applied),
    )
