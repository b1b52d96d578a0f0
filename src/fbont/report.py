"""Deterministic renderers and readers for every table this tool writes.

This module knows the output tables' columns and formats, and writes every
table: the taxonomy, the schema summary, the scatter points, value
notations and violations all render through :func:`stream_table` as csv,
tsv or json records, in chunks, or joined into one document by
:func:`render_table`. The notation shards (:func:`write_notation_rows`) and
``merges.tsv`` (``semantics.merge_tsv_rows``) take their rows from the same
row writer, and one reader (:func:`_records`) reads ``taxonomy.csv``,
``schema.csv`` and ``valuenotes.csv`` back. Identical inputs always produce
byte-identical documents on every supported Python: no timestamps, no
environment-dependent formatting, a field holding a carriage return always
quoted, and the scatterplot is a self-contained SVG built from
plain strings (generic font family, no external resources).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, TextIO

from .model import render
from .schema import DomainSchema, UndefinedComplexityError, complexity_score
from .slicer import DOMAIN, OWL_TERM, Group, SliceKey, SliceStats
from .stats import StudyResult, StudyRow

if TYPE_CHECKING:  # semantics writes merges.tsv through this module's row writer
    from .semantics import ValueNotation, Violation

GROUP_TITLES = {
    Group.IMPLEMENTATION: "Freebase Implementation Domains",
    Group.OWL: "OWL Domains",
    Group.SUBJECT_MATTER: "Subject Matter Domains",
}

TAXONOMY_COLUMNS = ("group", "name", "predicate_pattern", "triples", "total_pct", "group_pct")
SCHEMA_COLUMNS = ("domain", "n_types", "n_properties", "n_descriptions", "n_details", "complexity_score")
SCATTER_COLUMNS = ("domain", "complexity", "triples", "excluded")
VALUENOTE_COLUMNS = ("property", "object", "kind", "orientation")
VIOLATION_COLUMNS = ("mid", "type_a", "type_b")
# Taxonomy format -> file suffix; markdown, csv and tsv are written by default.
TAXONOMY_SUFFIX = {"markdown": "md", "csv": "csv", "tsv": "tsv", "json": "json"}
DEFAULT_TAXONOMY_FORMATS = ("markdown", "csv", "tsv")
_DELIMITER = {"csv": ",", "tsv": "\t"}


def render_json(value: object) -> str:
    """A JSON document: two-space indent, sorted keys, one final newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def render_table(header: Sequence[str], rows: Iterable[Sequence], fmt: str = "csv") -> str:
    """A table as csv, tsv, or json records keyed by ``header``: ``stream_table``'s chunks, joined."""
    return "".join(stream_table(header, rows, fmt))


def stream_table(header: Sequence[str], rows: Iterable[Sequence], fmt: str = "csv") -> Iterator[str]:
    """A table as csv, tsv, or json records keyed by ``header``, one chunk per row.

    One row list serves every format: csv and tsv write ``None`` as an empty
    field and a float as its repr, json writes them as null and a number.
    The json chunks lay the records out as ``render_json`` lays out their list.
    """
    if fmt == "json":
        opening = "[\n  "
        for row in rows:
            yield opening + json.dumps(dict(zip(header, row)), indent=2, sort_keys=True).replace("\n", "\n  ")
            opening = ",\n  "
        yield "[]\n" if opening == "[\n  " else "\n]\n"
        return
    yield from _csv_lines(chain([header], rows), _DELIMITER[fmt])


def _csv_lines(rows: Iterable[Sequence], delimiter: str = ",") -> Iterator[str]:
    """Each row as one csv line ended by a line feed.

    The writer ends a line with CR LF, which this cuts to LF, so that it
    quotes a field holding a carriage return on Python 3.10-3.12 as 3.13
    quotes it, and ``csv.reader`` reads the field back whole.
    """
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\r\n")
    for row in rows:
        writer.writerow(row)
        yield out.getvalue()[:-2] + "\n"
        out.seek(0)
        out.truncate()


def write_notation_rows(path: str, notations: Iterable[ValueNotation]) -> None:
    """Append the notations to a shard as valuenotes.csv rows: property, object, kind, orientation."""
    with open(path, "a", encoding="utf-8", newline="") as handle:
        handle.writelines(
            _csv_lines((render(n.property), render(n.object), n.kind.value, n.orientation) for n in notations)
        )


def _pct(fraction: float) -> str:
    """Percentage with three decimals; float formatting rounds half-even."""
    return f"{fraction * 100.0:.3f}"


def render_taxonomy(stats: Sequence[SliceStats], fmt: str = "markdown") -> str:
    """Taxonomy document in markdown, csv, tsv, or json.

    Markdown mirrors the published table layout: one section per group,
    per-group row numbering, comma-grouped counts. The machine formats carry
    the columns (group, name, predicate_pattern, triples, total_pct,
    group_pct) with raw integers; json's percentages are numbers.
    """
    if fmt == "markdown":
        return _taxonomy_markdown(stats)
    if fmt not in TAXONOMY_SUFFIX:
        raise ValueError(f"unknown taxonomy format: {fmt!r}")
    pct = float if fmt == "json" else str
    rows = [
        (
            row.group.value,
            row.key.name,
            row.key.pattern(),
            row.triples,
            pct(_pct(row.total_pct)),
            pct(_pct(row.group_pct)),
        )
        for row in stats
    ]
    return render_table(TAXONOMY_COLUMNS, rows, fmt)


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


def _records(lines: Iterable[str], columns: Sequence[str], delimiter: str = ",") -> csv.DictReader:
    """The dict rows of a table, after checking that its header has ``columns``."""
    reader = csv.DictReader(lines, delimiter=delimiter, restval="")
    for column in columns:
        if column not in (reader.fieldnames or ()):
            raise ValueError(f"missing column {column!r}")
    return reader


def parse_taxonomy_csv(text: str, delimiter: str = ",") -> list[dict]:
    """Read a taxonomy CSV/TSV back into plain dict rows (round-trip aid).

    Raises ValueError on a missing column or a field that is not a number.
    """
    numbers = {"triples": int, "total_pct": float, "group_pct": float}
    return [
        {column: numbers.get(column, str)(record[column]) for column in TAXONOMY_COLUMNS}
        for record in _records(io.StringIO(text), TAXONOMY_COLUMNS, delimiter)
    ]


def load_counts_csv(stream: TextIO) -> dict[SliceKey, int]:
    """Triples per slice from a ``taxonomy.csv`` written by ``slice``."""
    counts: dict[SliceKey, int] = {}
    for row in parse_taxonomy_csv(stream.read()):
        kind = DOMAIN if row["predicate_pattern"].startswith("/") else OWL_TERM
        counts[SliceKey(kind, row["name"])] = row["triples"]
    return counts


def load_schema_csv(stream: TextIO) -> dict[str, float]:
    """Complexity score per domain from a ``schema.csv`` written by ``schema``.

    Domains whose score is undefined (an empty field) are left out. Raises
    ValueError on a missing column or a score that is not a number.
    """
    return {
        record["domain"]: float(record["complexity_score"])
        for record in _records(stream, ("domain", "complexity_score"))
        if record["complexity_score"]
    }


def schema_rows(schemas: Mapping[str, DomainSchema]) -> list[tuple]:
    """One row per domain, sorted by domain name; the score is None when undefined."""
    rows = []
    for domain, schema in sorted(schemas.items()):
        try:
            score = complexity_score(schema)
        except UndefinedComplexityError:
            score = None
        rows.append(
            (
                domain,
                len(schema.types),
                len(schema.properties),
                schema.description_count,
                schema.property_detail_count,
                score,
            )
        )
    return rows


def violation_rows(violations: Iterable[Violation]) -> Iterator[tuple]:
    return ((render(v.mid), render(v.type_a), render(v.type_b)) for v in violations)


def study_to_json(result: StudyResult) -> str:
    return render_json(result.to_dict())


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
    rows = [
        (point.domain, point.complexity, point.triples, str(point.excluded).lower())
        for point in sorted(points, key=lambda p: p.domain)
    ]
    return render_table(SCATTER_COLUMNS, rows)


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


def _xml_escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as entities, as ``xml.sax.saxutils.escape`` gives them.

    That module is not imported: it pulls ``urllib.request`` and with it
    ``http.client``, ``ssl`` and ``email`` into every CLI process.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
    study: StudyResult | None = None
    scatter: Sequence[ScatterPoint] | None = None

    def documents(self, taxonomy_formats: Sequence[str] = DEFAULT_TAXONOMY_FORMATS) -> dict[str, str]:
        """Filename to document-text mapping for every piece present."""
        docs: dict[str, str] = {}
        if self.taxonomy is not None:
            for fmt in taxonomy_formats:
                docs[f"taxonomy.{TAXONOMY_SUFFIX[fmt]}"] = render_taxonomy(self.taxonomy, fmt)
        if self.study is not None:
            docs["study.json"] = study_to_json(self.study)
        if self.scatter is not None and self.study is not None:
            docs["scatter.csv"] = render_scatter_csv(self.scatter)
            docs["scatter.svg"] = render_scatter_svg(self.scatter, self.study)
        return docs
