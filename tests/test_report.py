import csv
import io
import json
import math
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load_census
from fbont.model import IdPath, Mid, render
from fbont.pipeline import concatenate_shards
from fbont.report import (
    SCHEMA_COLUMNS,
    VALUENOTE_COLUMNS,
    ReportBundle,
    ScatterPoint,
    build_scatter_points,
    parse_taxonomy_csv,
    render_scatter_csv,
    render_json,
    render_scatter_svg,
    render_table,
    render_taxonomy,
    schema_rows,
    stream_table,
    study_to_json,
    write_notation_rows,
)
from fbont.schema import DomainSchema
from fbont.semantics import NotationKind, ValueNotation
from fbont.slicer import DOMAIN, OWL_TERM, SliceKey, build_taxonomy
from fbont.stats import StudyRow, run_study

from test_schema import SCHEMA_FIXTURE, fixture_schemas


def census_taxonomy():
    counts = {
        SliceKey(OWL_TERM if row["group"] == "owl" else DOMAIN, row["name"]): row["triples"]
        for row in load_census()
    }
    return build_taxonomy(counts)


class TestRenderTaxonomy:
    def test_music_markdown_row(self):
        doc = render_taxonomy(census_taxonomy(), "markdown")
        assert "| 1 | music | /music/* | 209,244,812 | 6.684% | 60.062% |" in doc

    def test_chess_markdown_row(self):
        doc = render_taxonomy(census_taxonomy(), "markdown")
        assert "| 85 | chess | /chess/* | 558 | 0.000% | 0.000% |" in doc

    def test_owl_pattern_rows(self):
        doc = render_taxonomy(census_taxonomy(), "markdown")
        assert "| 1 | type | rdf-syntax-ns#type | 266,321,867 | 8.507% | 78.520% |" in doc
        assert "| 2 | label | rdf-schema#label | 72,698,733 | 2.322% | 21.434% |" in doc

    def test_group_sections_in_order(self):
        doc = render_taxonomy(census_taxonomy(), "markdown")
        first = doc.index("Freebase Implementation Domains")
        second = doc.index("OWL Domains")
        third = doc.index("Subject Matter Domains")
        assert first < second < third

    def test_empty_stats_header_only(self):
        doc = render_taxonomy([], "markdown")
        assert doc == "| No. | Name | Domain | Triples | Total % | Group % |\n| ---: | :--- | :--- | ---: | ---: | ---: |\n"
        assert render_taxonomy([], "csv") == "group,name,predicate_pattern,triples,total_pct,group_pct\n"

    def test_csv_matches_published_strings(self):
        doc = render_taxonomy(census_taxonomy(), "csv")
        rows = {(r["group"], r["name"]): r for r in parse_taxonomy_csv(doc)}
        for row in load_census():
            got = rows[(row["group"], row["name"])]
            assert got["triples"] == row["triples"]
            assert f"{got['total_pct']:.3f}" == row["total_pct"]
            assert f"{got['group_pct']:.3f}" == row["group_pct"]
            assert got["predicate_pattern"] == row["predicate_pattern"]

    def test_csv_roundtrip_rerenders_identically(self):
        taxonomy = census_taxonomy()
        doc = render_taxonomy(taxonomy, "csv")
        again = render_taxonomy(taxonomy, "csv")
        assert doc == again
        parsed = parse_taxonomy_csv(doc)
        assert len(parsed) == 105

    def test_tsv_variant(self):
        doc = render_taxonomy(census_taxonomy(), "tsv")
        assert doc.splitlines()[0] == "group\tname\tpredicate_pattern\ttriples\ttotal_pct\tgroup_pct"
        parsed = parse_taxonomy_csv(doc, delimiter="\t")
        assert parsed[0]["name"] == "common"


def schema_csv(schemas) -> str:
    """The schema summary CSV that ``fbont schema`` writes as schema.csv."""
    return render_table(SCHEMA_COLUMNS, schema_rows(schemas))


class TestRenderSchemaTable:
    def test_fixture_row(self):
        schemas = fixture_schemas(SCHEMA_FIXTURE)
        doc = schema_csv(schemas)
        assert "people,2,3,4,6,2.0" in doc.splitlines()

    def test_sorted_and_headed(self):
        schemas = fixture_schemas(SCHEMA_FIXTURE)
        lines = schema_csv(schemas).splitlines()
        assert lines[0] == "domain,n_types,n_properties,n_descriptions,n_details,complexity_score"
        assert [l.split(",")[0] for l in lines[1:]] == ["film", "music", "people"]

    def test_empty_schemas(self):
        assert schema_csv({}).splitlines() == [
            "domain,n_types,n_properties,n_descriptions,n_details,complexity_score"
        ]

    def test_undefined_score_is_empty_in_csv_and_null_in_json(self):
        schemas = {"x": DomainSchema("x")}
        assert schema_csv(schemas).splitlines()[1] == "x,0,0,0,0,"
        doc = render_table(SCHEMA_COLUMNS, schema_rows(schemas), "json")
        assert '"complexity_score": null' in doc
        assert json.loads(doc) == [dict(zip(SCHEMA_COLUMNS, ("x", 0, 0, 0, 0, None)))]


def sample_study():
    rows = [
        StudyRow("music", 500_000, 12.0),
        StudyRow("film", 60_000, 4.0),
        StudyRow("tv", 45_000, 3.5),
        StudyRow("book", 20_000, 2.0),
        StudyRow("zoo", 1_000, 0.5),
    ]
    result = run_study(rows, {"music"})
    points = build_scatter_points(rows, {"music"})
    return rows, result, points


class TestStudyOutputs:
    def test_study_json_shape(self):
        _, result, _ = sample_study()
        text = study_to_json(result)
        assert '"n": 4' in text
        assert '"excluded": [\n    "music"\n  ]' in text
        assert text == study_to_json(result)

    def test_scatter_csv(self):
        _, result, points = sample_study()
        doc = render_scatter_csv(points)
        lines = doc.splitlines()
        assert lines[0] == "domain,complexity,triples,excluded"
        assert "music,12.0,500000,true" in lines
        assert "zoo,0.5,1000,false" in lines
        assert len(lines) == 6


class TestScatterSvg:
    def test_deterministic_bytes(self):
        _, result, points = sample_study()
        assert render_scatter_svg(points, result) == render_scatter_svg(points, result)

    def test_fit_metadata_equals_study(self):
        _, result, points = sample_study()
        svg = ET.fromstring(render_scatter_svg(points, result))
        ns = "{http://www.w3.org/2000/svg}"
        fit = [e for e in svg.iter(f"{ns}line") if e.get("data-slope")]
        assert len(fit) == 1
        assert float(fit[0].get("data-slope")) == result.slope
        assert float(fit[0].get("data-intercept")) == result.intercept

    def test_two_points_line_passes_through_both(self):
        rows = [StudyRow("a", 100, 1.0), StudyRow("b", 300, 3.0)]
        result = run_study(rows)
        points = build_scatter_points(rows)
        svg = ET.fromstring(render_scatter_svg(points, result))
        ns = "{http://www.w3.org/2000/svg}"
        fit = next(e for e in svg.iter(f"{ns}line") if e.get("data-slope"))
        x1, y1 = float(fit.get("x1")), float(fit.get("y1"))
        x2, y2 = float(fit.get("x2")), float(fit.get("y2"))
        length = math.hypot(x2 - x1, y2 - y1)
        for circle in svg.iter(f"{ns}circle"):
            cx, cy = float(circle.get("cx")), float(circle.get("cy"))
            distance = abs((x2 - x1) * (y1 - cy) - (x1 - cx) * (y2 - y1)) / length
            assert distance < 0.1  # pixel-rounding tolerance

    def test_excluded_points_visually_distinct(self):
        _, result, points = sample_study()
        svg = ET.fromstring(render_scatter_svg(points, result))
        ns = "{http://www.w3.org/2000/svg}"
        fills = {c.get("fill") for c in svg.iter(f"{ns}circle")}
        assert "none" in fills  # hollow excluded marker
        assert len(fills) == 2

    def test_axis_labels_present(self):
        _, result, points = sample_study()
        text = render_scatter_svg(points, result)
        assert "complexity score" in text
        assert "triple count" in text

    def test_empty_points_rejected(self):
        _, result, _ = sample_study()
        with pytest.raises(ValueError):
            render_scatter_svg([], result)

    def test_hostile_domain_names_stay_valid_xml(self):
        rows = [StudyRow("a&b<c>", 10, 1.0), StudyRow("plain", 30, 3.0)]
        result = run_study(rows)
        svg = render_scatter_svg(build_scatter_points(rows), result)
        parsed = ET.fromstring(svg)  # must not raise
        titles = {t.text for t in parsed.iter("{http://www.w3.org/2000/svg}title")}
        assert "a&b<c>" in titles


class TestReportBundle:
    def test_documents_cover_all_outputs(self):
        rows, result, points = sample_study()
        bundle = ReportBundle(taxonomy=census_taxonomy(), study=result, scatter=points)
        docs = bundle.documents()
        assert set(docs) == {
            "taxonomy.md",
            "taxonomy.csv",
            "taxonomy.tsv",
            "study.json",
            "scatter.csv",
            "scatter.svg",
        }
        assert ScatterPoint("music", 12.0, 500_000, True) in points

    @pytest.mark.parametrize("name", ["a&b<c>", "&amp;", "x>&<y", "<&>&<>"])
    def test_escaping_equals_saxutils(self, name, monkeypatch):
        from xml.sax.saxutils import escape

        import fbont.report as report_module

        rows = [StudyRow(name, 10, 1.0), StudyRow("plain", 30, 3.0)]
        result = run_study(rows)
        points = build_scatter_points(rows, {name})
        labels = {"x_label": f"{name} complexity", "y_label": f"{name} triples"}
        ours = render_scatter_svg(points, result, **labels)
        monkeypatch.setattr(report_module, "_xml_escape", escape)
        assert ours == render_scatter_svg(points, result, **labels)
        assert escape(name) in ours


# Text a table field may hold: quotes, commas, a mid-line CR, tabs, spaces,
# non-ASCII and astral characters among any others.
TRICKY = st.sampled_from(['"', ",", "\r", "\t", " ", "é", "\u2028", "\U0001d11e"])
FIELD = st.text(st.one_of(TRICKY, st.characters(blacklist_categories=("Cs",))), max_size=8)
VALUE = st.one_of(FIELD, st.integers(), st.none())


def tables(value=VALUE):
    """(header, rows): up to four distinct column names and up to six rows of values."""
    return st.integers(1, 4).flatmap(
        lambda width: st.tuples(
            st.lists(FIELD, min_size=width, max_size=width, unique=True),
            st.lists(st.lists(value, min_size=width, max_size=width), max_size=6),
        )
    )


class TestStreamTable:
    @settings(max_examples=200, deadline=None)
    @given(tables(), st.sampled_from(["csv", "tsv", "json"]))
    @example((["property", "object"], []), "json")
    @example((["property", "object"], []), "csv")
    @example((["a"], [["x\ry"], ['q"uo,te'], ["\U0001d11e"]]), "json")
    @example((["a", "b"], [["x\ry", "\r"], ["p\r\nq", None]]), "csv")
    @example((["a", "b"], [["x\ry", "\r"], ["\r\t", 7]]), "tsv")
    def test_chunks_join_to_the_whole_document(self, table, fmt):
        """The chunks are the document rendered whole: csv.writer's rows, each ended by LF
        where the writer ends it by CR LF, or render_json's list. csv.reader reads the
        rows back, a field holding a CR included."""
        header, rows = table
        chunks = list(stream_table(header, iter(rows), fmt))
        if fmt == "json":
            whole = render_json([dict(zip(header, row)) for row in rows])
        else:
            delimiter = "," if fmt == "csv" else "\t"
            out = io.StringIO()
            writer = csv.writer(out, delimiter=delimiter, lineterminator="\r\n")
            lines = []
            for row in [header, *rows]:
                writer.writerow(row)
                lines.append(out.getvalue().removesuffix("\r\n") + "\n")
                out.seek(0)
                out.truncate()
            whole = "".join(lines)
            if "\0" not in whole or sys.version_info >= (3, 11):  # csv.reader took no NUL before 3.11
                read = list(csv.reader(io.StringIO(whole, newline=""), delimiter=delimiter))
                assert read == [["" if v is None else str(v) for v in row] for row in [header, *rows]]
        assert "".join(chunks) == whole == render_table(header, rows, fmt)
        assert len(chunks) == len(rows) + 1  # one chunk per row, and the header or the closing bracket

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                FIELD.filter(lambda t: t and not set(t) & set("/.\n")),
                FIELD.filter(lambda t: t and not set(t) & set("/.\n")),
                st.sampled_from(NotationKind),
                st.sampled_from(["forward", "reversed"]),
            ),
            max_size=12,
        ),
        st.integers(1, 5),
    )
    def test_notation_shards_read_back_as_the_rows_written(self, tmp_path_factory, drawn, batch):
        """Shards of notation rows, written a batch at a time and joined behind a header
        shard, give valuenotes.csv, and valuenotes.json through the csv module, as
        render_table gives them."""
        root = tmp_path_factory.mktemp("shards")
        header, shard = root / "header", root / "notes"
        header.mkdir()
        shard.mkdir()
        (header / "valuenotes.csv").write_bytes("".join(stream_table(VALUENOTE_COLUMNS, ())).encode())
        notations = [ValueNotation(IdPath(("people", "person", p)), Mid(m), k, o) for p, m, k, o in drawn]
        for start in range(0, len(notations), batch):
            write_notation_rows(str(shard / "valuenotes.csv"), notations[start : start + batch])
        concatenate_shards([str(header), str(shard)], str(root / "out"))
        rows = [(render(n.property), render(n.object), n.kind.value, n.orientation) for n in notations]
        with open(root / "out" / "valuenotes.csv", encoding="utf-8", newline="") as handle:
            csv_doc = handle.read()
        assert csv_doc == render_table(VALUENOTE_COLUMNS, rows)
        read = list(csv.reader(io.StringIO(csv_doc, newline="")))
        assert read == [list(VALUENOTE_COLUMNS), *map(list, rows)]
        json_doc = "".join(stream_table(VALUENOTE_COLUMNS, read[1:], "json"))
        assert json_doc == render_table(VALUENOTE_COLUMNS, rows, "json")
