"""Deterministic renderers for taxonomy tables, schema summaries, and the study.

Identical inputs always produce byte-identical documents: no timestamps, no
environment-dependent formatting, and the scatterplot is a self-contained SVG
built from plain strings (generic font family, no external resources).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence
from xml.sax.saxutils import escape as _xml_escape

from .schema import DomainSchema, UndefinedComplexityError, complexity_score
from .slicer import Group, SliceStats
from .stats import StudyResult, StudyRow

GROUP_TITLES = {
    Group.IMPLEMENTATION: "Freebase Implementation Domains",
    Group.OWL: "OWL Domains",
    Group.SUBJECT_MATTER: "Subject Matter Domains",
}

TAXONOMY_COLUMNS = ("group", "name", "predicate_pattern", "triples", "total_pct", "group_pct")
SCHEMA_COLUMNS = ("domain", "n_types", "n_properties", "n_descriptions", "n_details", "complexity_score")
SCATTER_COLUMNS = ("domain", "complexity", "triples", "excluded")
# Taxonomy format -> file suffix; markdown, csv and tsv are written by default.
TAXONOMY_SUFFIX = {"markdown": "md", "csv": "csv", "tsv": "tsv", "json": "json"}
DEFAULT_TAXONOMY_FORMATS = ("markdown", "csv", "tsv")


def _pct(fraction: float) -> str:
    """Percentage with three decimals; float formatting rounds half-even."""
    return f"{fraction * 100.0:.3f}"


def render_taxonomy(stats: Sequence[SliceStats], fmt: str = "markdown") -> str:
    """Taxonomy document in markdown, csv, tsv, or json.

    Markdown mirrors the published table layout: one section per group,
    per-group row numbering, comma-grouped counts. The machine formats carry
    the columns (group, name, predicate_pattern, triples, total_pct,
    group_pct) with raw integers.
    """
    if fmt == "markdown":
        return _taxonomy_markdown(stats)
    if fmt == "json":
        rows = [
            {
                "group": row.group.value,
                "name": row.key.name,
                "predicate_pattern": row.key.pattern(),
                "triples": row.triples,
                "total_pct": float(_pct(row.total_pct)),
                "group_pct": float(_pct(row.group_pct)),
            }
            for row in stats
        ]
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if fmt in ("csv", "tsv"):
        out = io.StringIO()
        writer = csv.writer(out, delimiter="," if fmt == "csv" else "\t", lineterminator="\n")
        writer.writerow(TAXONOMY_COLUMNS)
        for row in stats:
            writer.writerow(
                (
                    row.group.value,
                    row.key.name,
                    row.key.pattern(),
                    row.triples,
                    _pct(row.total_pct),
                    _pct(row.group_pct),
                )
            )
        return out.getvalue()
    raise ValueError(f"unknown taxonomy format: {fmt!r}")


def _taxonomy_markdown(stats: Sequence[SliceStats]) -> str:
    header = "| No. | Name | Domain | Triples | Total % | Group % |\n"
    divider = "| ---: | :--- | :--- | ---: | ---: | ---: |\n"
    if not stats:
        return header + divider
    lines: list[str] = []
    current_group: Group | None = None
    number = 0
    for row in stats:
        if row.group is not current_group:
            if current_group is not None:
                lines.append("\n")
            lines.append(f"### {GROUP_TITLES[row.group]}\n\n")
            lines.append(header)
            lines.append(divider)
            current_group = row.group
            number = 0
        number += 1
        lines.append(
            f"| {number} | {row.key.name} | {row.key.pattern()} "
            f"| {row.triples:,} | {_pct(row.total_pct)}% | {_pct(row.group_pct)}% |\n"
        )
    return "".join(lines)


def parse_taxonomy_csv(text: str, delimiter: str = ",") -> list[dict]:
    """Read a taxonomy CSV/TSV back into plain dict rows (round-trip aid)."""
    reader = csv.DictReader(io.StringIO(text), delimiter=delimiter)
    rows = []
    for record in reader:
        rows.append(
            {
                "group": record["group"],
                "name": record["name"],
                "predicate_pattern": record["predicate_pattern"],
                "triples": int(record["triples"]),
                "total_pct": float(record["total_pct"]),
                "group_pct": float(record["group_pct"]),
            }
        )
    return rows


def render_schema_table(schemas: Mapping[str, DomainSchema]) -> str:
    """Schema summary CSV, one row per domain, sorted by domain name.

    Domains with no types and no properties get an empty score field.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SCHEMA_COLUMNS)
    for domain in sorted(schemas):
        schema = schemas[domain]
        try:
            score = repr(complexity_score(schema))
        except UndefinedComplexityError:
            score = ""
        writer.writerow(
            (
                domain,
                len(schema.types),
                len(schema.properties),
                schema.description_count,
                schema.property_detail_count,
                score,
            )
        )
    return out.getvalue()


def schema_to_json(schemas: Mapping[str, DomainSchema]) -> str:
    """JSON twin of the schema CSV; undefined scores come out as null."""
    rows = []
    for domain in sorted(schemas):
        schema = schemas[domain]
        try:
            score = complexity_score(schema)
        except UndefinedComplexityError:
            score = None
        rows.append(
            {
                "domain": domain,
                "n_types": len(schema.types),
                "n_properties": len(schema.properties),
                "n_descriptions": schema.description_count,
                "n_details": schema.property_detail_count,
                "complexity_score": score,
            }
        )
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def study_to_json(result: StudyResult) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class ScatterPoint:
    domain: str
    complexity: float
    triples: int
    excluded: bool


def build_scatter_points(
    rows: Iterable[StudyRow], exclusions: Iterable[str] = ()
) -> list[ScatterPoint]:
    excluded_names = set(exclusions)
    return [
        ScatterPoint(row.domain, row.complexity, row.triple_count, row.domain in excluded_names)
        for row in rows
    ]


def render_scatter_csv(points: Sequence[ScatterPoint]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SCATTER_COLUMNS)
    for point in sorted(points, key=lambda p: p.domain):
        writer.writerow(
            (point.domain, repr(point.complexity), point.triples, str(point.excluded).lower())
        )
    return out.getvalue()


# --- SVG scatterplot ----------------------------------------------------------

_WIDTH, _HEIGHT = 800.0, 560.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 90.0, 30.0, 30.0, 65.0


def _nice_step(span: float, target_ticks: int = 5) -> float:
    raw = span / target_ticks
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for multiple in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= multiple * magnitude:
            return multiple * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(value)
        value += step
    return ticks


def _tick_label(value: float) -> str:
    if float(value).is_integer():
        return f"{int(round(value)):,}"
    return f"{value:g}"


def render_scatter_svg(
    points: Sequence[ScatterPoint],
    result: StudyResult,
    x_label: str = "complexity score",
    y_label: str = "triple count",
) -> str:
    """Self-contained SVG: the points, the fitted line, excluded points hollow.

    The fitted line element carries data-slope / data-intercept attributes so
    the plotted fit is machine-checkable against the study result.
    """
    if not points:
        raise ValueError("cannot plot an empty point set")
    xs = [p.complexity for p in points]
    ys = [float(p.triples) for p in points]
    x0, x1 = min(0.0, min(xs)), max(xs)
    y0, y1 = min(0.0, min(ys)), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    x1 += (x1 - x0) * 0.05
    y1 += (y1 - y0) * 0.05

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x0) / (x1 - x0) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y0) / (y1 - y0) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:g}" height="{_HEIGHT:g}" '
        f'viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}" font-family="sans-serif" font-size="12">\n'
    )
    parts.append(
        f'<clipPath id="plot"><rect x="{_MARGIN_L:.2f}" y="{_MARGIN_T:.2f}" '
        f'width="{plot_w:.2f}" height="{plot_h:.2f}"/></clipPath>\n'
    )
    parts.append(f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>\n')

    left, right = px(x0), _MARGIN_L + plot_w
    top, bottom = _MARGIN_T, _MARGIN_T + plot_h
    parts.append(
        f'<line x1="{left:.2f}" y1="{bottom:.2f}" x2="{right:.2f}" y2="{bottom:.2f}" stroke="black"/>\n'
    )
    parts.append(
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" y2="{bottom:.2f}" stroke="black"/>\n'
    )
    for tick in _ticks(x0, x1):
        tx = px(tick)
        parts.append(
            f'<line x1="{tx:.2f}" y1="{bottom:.2f}" x2="{tx:.2f}" y2="{bottom + 5:.2f}" stroke="black"/>\n'
        )
        parts.append(
            f'<text x="{tx:.2f}" y="{bottom + 18:.2f}" text-anchor="middle">{_tick_label(tick)}</text>\n'
        )
    for tick in _ticks(y0, y1):
        ty = py(tick)
        parts.append(
            f'<line x1="{left - 5:.2f}" y1="{ty:.2f}" x2="{left:.2f}" y2="{ty:.2f}" stroke="black"/>\n'
        )
        parts.append(
            f'<text x="{left - 8:.2f}" y="{ty + 4:.2f}" text-anchor="end">{_tick_label(tick)}</text>\n'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 18:.2f}" '
        f'text-anchor="middle">{_xml_escape(x_label)}</text>\n'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.2f})">{_xml_escape(y_label)}</text>\n'
    )

    fit_x0, fit_x1 = x0, x1
    fit_y0 = result.slope * fit_x0 + result.intercept
    fit_y1 = result.slope * fit_x1 + result.intercept
    parts.append(
        f'<line clip-path="url(#plot)" x1="{px(fit_x0):.2f}" y1="{py(fit_y0):.2f}" '
        f'x2="{px(fit_x1):.2f}" y2="{py(fit_y1):.2f}" stroke="#555555" stroke-dasharray="6 3" '
        f'data-slope="{result.slope!r}" data-intercept="{result.intercept!r}"/>\n'
    )

    for point in sorted(points, key=lambda p: p.domain):
        cx, cy = px(point.complexity), py(float(point.triples))
        if point.excluded:
            style = 'fill="none" stroke="#c43d3d" stroke-width="1.5"'
        else:
            style = 'fill="#2565ae"'
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" {style}>'
            f"<title>{_xml_escape(point.domain)}</title></circle>\n"
        )
    parts.append("</svg>\n")
    return "".join(parts)


@dataclass
class ReportBundle:
    """Everything one analysis run renders, bundled for writing as files."""

    taxonomy: Sequence[SliceStats] | None = None
    schemas: Mapping[str, DomainSchema] | None = None
    study: StudyResult | None = None
    scatter: Sequence[ScatterPoint] | None = None

    def documents(self, taxonomy_formats: Sequence[str] = DEFAULT_TAXONOMY_FORMATS) -> dict[str, str]:
        """Filename to document-text mapping for every piece present."""
        docs: dict[str, str] = {}
        if self.taxonomy is not None:
            for fmt in taxonomy_formats:
                docs[f"taxonomy.{TAXONOMY_SUFFIX[fmt]}"] = render_taxonomy(self.taxonomy, fmt)
        if self.schemas is not None:
            docs["schema.csv"] = render_schema_table(self.schemas)
        if self.study is not None:
            docs["study.json"] = study_to_json(self.study)
        if self.scatter is not None and self.study is not None:
            docs["scatter.csv"] = render_scatter_csv(self.scatter)
            docs["scatter.svg"] = render_scatter_svg(self.scatter, self.study)
        return docs
