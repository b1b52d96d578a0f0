import gzip
import io
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dump_stream, fb, lit_line, obj_line
from dumpgen import oracle_count_wellformed, random_dump_lines
from fbont.model import ExternalIri, Literal, Mid, Triple, idpath
from fbont.parser import (
    MalformedLineError,
    ParseReport,
    ParserConfig,
    iter_triples,
    parse_line,
    serialize,
    unescape_literal,
)

from test_model import idpaths, mids, noderefs


def parsed(source, max_errors: int = 20) -> tuple[list[Triple], ParseReport]:
    """The triples of a path or binary stream, and its report."""
    report = ParseReport(max_errors=max_errors)
    return list(iter_triples(source, report)), report


class TestParseLine:
    def test_date_of_birth_literal(self):
        triple = parse_line(lit_line("m.abc123", "people.person.date_of_birth", "1960"))
        assert triple == Triple(
            Mid("abc123"), idpath("/people/person/date_of_birth"), Literal("1960")
        )

    def test_replaced_by_edge(self):
        triple = parse_line(obj_line("m.xyz123", "dataworld.gardening_hint.replaced_by", "m.abc123"))
        assert triple.subject == Mid("xyz123")
        assert triple.predicate == idpath("/dataworld/gardening_hint/replaced_by")
        assert triple.object == Mid("abc123")

    def test_not_a_triple_is_field_count(self):
        with pytest.raises(MalformedLineError) as err:
            parse_line("not a triple")
        assert err.value.reason == "field-count"

    def test_space_separated_fallback(self):
        triple = parse_line(f'{fb("m.a")} {fb("people.person.name")} "Ann Smith" .')
        assert triple.object == Literal("Ann Smith")

    def test_terminator_glued_to_object(self):
        triple = parse_line(f'{fb("m.a")} {fb("people.person.name")} "x".')
        assert triple.object == Literal("x")

    def test_tab_fields_tolerate_space_padding(self):
        padded = f'{fb("m.a")} \t {fb("people.person.name")}\t"Ann Smith" \t.'
        triple = parse_line(padded)
        assert triple.subject == Mid("a")
        assert triple.object == Literal("Ann Smith")

    def test_language_tag(self):
        triple = parse_line(lit_line("m.a", "type.object.name", "Platon", "@de"))
        assert triple.object == Literal("Platon", language="de")

    def test_datatype(self):
        suffix = "^^<http://www.w3.org/2001/XMLSchema#date>"
        triple = parse_line(lit_line("m.a", "people.person.date_of_birth", "1960-01-01", suffix))
        assert triple.object.datatype == ExternalIri("http://www.w3.org/2001/XMLSchema#date")

    @pytest.mark.parametrize(
        "bad,reason",
        [
            ("", "field-count"),
            ("<http://a>\t<http://b>\t<http://c>", "field-count"),
            ("<http://a>\t<http://b>\t<http://c>\t<http://d>\t.", "field-count"),
            ("<http://a> <http://b> <http://c> ;", "missing-terminator"),
            ('"lit"\t<http://b>\t<http://c>\t.', "literal-position"),
            ('<http://a>\t"lit"\t<http://c>\t.', "literal-position"),
            ('<http://a>\t<http://b>\t"unclosed\t.', "unbalanced-quotes"),
            ("<http://a\t<http://b>\t<http://c>\t.", "unbalanced-brackets"),
            ("<>\t<http://b>\t<http://c>\t.", "empty-iri"),
            ("_:b0\t<http://b>\t<http://c>\t.", "blank-node"),
            ("<http://a>\t<http://b>\tbare\t.", "bad-term"),
            ('<http://a>\t<http://b>\t"x"@\t.', "bad-literal-suffix"),
            ('<http://a>\t<http://b>\t"x"junk\t.', "bad-literal-suffix"),
        ],
    )
    def test_malformed_reasons(self, bad, reason):
        with pytest.raises(MalformedLineError) as err:
            parse_line(bad)
        assert err.value.reason == reason

    def test_strict_ids_rejects_mixed_case(self):
        line_text = obj_line("m.ABC", "people.person.spouse_s", "m.def")
        assert parse_line(line_text).subject == Mid("ABC")  # lint mode accepts
        with pytest.raises(MalformedLineError) as err:
            parse_line(line_text, ParserConfig(strict_ids=True))
        assert err.value.reason == "nonstandard-id"

    def test_nonstandard_id_lint_counter(self):
        counters = Counter()
        parse_line(obj_line("m.ABC", "people.person.spouse_s", "m.def"), counters=counters)
        assert counters["nonstandard-id"] == 1


class TestEscapes:
    def test_known_escapes(self):
        assert unescape_literal(r"a\tb\nc\"d\\e") == ("a\tb\nc\"d\\e", 0)

    def test_unicode_escapes(self):
        assert unescape_literal(r"A\U00000042") == ("AB", 0)

    def test_unknown_escape_preserved_and_counted(self):
        text, unknown = unescape_literal(r"a\qb\u12")
        assert text == r"a\qb\u12"
        assert unknown == 2

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (r"\uA", (r"\uA", 1)),
            (r"\uD800A", (r"\uD800A", 1)),
            ("ab\\", ("ab\\", 0)),  # a lone trailing backslash is kept, not counted
            ("a\\\nb", ("a\\\nb", 1)),
            (r"x\U0001F600y", ("x\U0001F600y", 0)),
            (r"\UFFFFFFFF", (r"\UFFFFFFFF", 1)),
        ],
        ids=["short-u", "surrogate", "trailing-backslash", "before-newline", "astral-U", "past-max-U"],
    )
    def test_edge_escapes(self, raw, expected):
        assert unescape_literal(raw) == expected

    def test_unknown_escape_lint_flows_to_report(self):
        _, report = parsed(dump_stream([lit_line("m.a", "type.object.name", r"x\qy")]))
        assert report.lint["unknown-escape"] == 1

    @given(st.text(max_size=60))
    def test_escape_roundtrip(self, text):
        triple = Triple(Mid("a"), idpath("/type/object/name"), Literal(text))
        assert parse_line(serialize(triple)) == triple


literals = st.builds(
    Literal,
    lexical=st.text(max_size=40),
    language=st.none() | st.from_regex(r"[a-zA-Z]{2,3}(-[a-zA-Z0-9]{1,4})?", fullmatch=True),
)
datatyped = st.builds(
    Literal,
    lexical=st.text(max_size=40),
    datatype=st.from_regex(r"https?://[a-z]{2,6}\.example/[a-zA-Z0-9#]{1,10}", fullmatch=True).map(
        ExternalIri
    ),
)
triples = st.builds(
    Triple,
    subject=st.one_of(mids, idpaths),
    predicate=st.one_of(idpaths, st.shared(noderefs).filter(lambda r: not isinstance(r, Literal))),
    object=st.one_of(noderefs, literals, datatyped),
)


class TestRoundTrip:
    @given(triples)
    @settings(max_examples=300)
    def test_no_wellformed_line_is_malformed(self, triple):
        assert parse_line(serialize(triple)) == triple


class TestStreamParse:
    def test_empty_stream(self):
        _, report = parsed(dump_stream([]))
        assert (report.lines_read, report.triples_ok, report.lines_malformed) == (0, 0, 0)

    def test_counting_contract(self):
        lines = [
            obj_line("m.a", "people.person.spouse_s", "m.b"),
            lit_line("m.a", "people.person.name", "Ann"),
            "garbage here",
            obj_line("m.b", "film.film.directed_by", "m.c"),
        ]
        collected, report = parsed(dump_stream(lines))
        assert (report.lines_read, report.triples_ok, report.lines_malformed) == (4, 3, 1)
        assert len(collected) == 3
        assert report.errors == [(3, "field-count")]

    def test_oracle_equivalence_on_random_dump(self):
        lines = random_dump_lines(10_000, seed=7, malformed_rate=0.02)
        _, report = parsed(dump_stream(lines))
        assert report.triples_ok == oracle_count_wellformed(lines)
        assert report.lines_read == len(lines)
        assert report.lines_read == report.triples_ok + report.lines_malformed

    def test_gzip_detected_by_magic_bytes(self, tmp_path):
        lines = [obj_line("m.a", "people.person.spouse_s", "m.b")]
        path = tmp_path / "dump.data"  # deliberately not named .gz
        path.write_bytes(gzip.compress("".join(l + "\n" for l in lines).encode()))
        _, report = parsed(str(path))
        assert report.triples_ok == 1

    def test_plain_file_and_crlf(self, tmp_path):
        path = tmp_path / "dump.nt"
        path.write_bytes(obj_line("m.a", "people.person.spouse_s", "m.b").encode() + b"\r\n")
        _, report = parsed(str(path))
        assert report.triples_ok == 1

    def test_invalid_utf8_replaced_and_counted(self):
        raw = obj_line("m.a", "people.person.name", "m.b").encode()
        bad = raw.replace(b"m.b", b"m.\xff")
        _, report = parsed(io.BytesIO(bad + b"\n"))
        assert report.triples_ok == 1
        assert report.lint["invalid-utf8-lines"] == 1

    def test_max_errors_caps_sample(self):
        lines = ["junk"] * 50
        _, report = parsed(dump_stream(lines), max_errors=5)
        assert len(report.errors) == 5
        assert report.lines_malformed == 50


class TestReportMerge:
    reports = st.builds(
        lambda ok, bad, errs: _make_report(ok, bad, errs),
        st.integers(0, 50),
        st.integers(0, 10),
        st.lists(st.tuples(st.integers(1, 60), st.sampled_from(["field-count", "bad-term"])), max_size=5),
    )

    @given(reports, reports, reports)
    def test_merge_is_associative(self, a, b, c):
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left == right

    @given(reports)
    def test_identity(self, a):
        empty = ParseReport(max_errors=a.max_errors)
        assert empty.merge(a) == a
        assert a.merge(empty) == a

    @given(reports, reports)
    def test_count_fields_commute(self, a, b):
        ab, ba = a.merge(b), b.merge(a)
        assert (ab.lines_read, ab.triples_ok, ab.lines_malformed) == (
            ba.lines_read,
            ba.triples_ok,
            ba.lines_malformed,
        )
        assert ab.lint == ba.lint

    def test_partitioned_equals_single_pass(self):
        lines = random_dump_lines(2_000, seed=3, malformed_rate=0.05)
        _, whole = parsed(dump_stream(lines))
        for cut in (0, 1, 997, 1999, 2000):
            _, first = parsed(dump_stream(lines[:cut]))
            _, second = parsed(dump_stream(lines[cut:]))
            assert first.merge(second) == whole

    def test_partitioned_triples_equal_single_pass(self):
        lines = random_dump_lines(500, seed=11, malformed_rate=0.05)
        whole, _ = parsed(dump_stream(lines))
        parts = parsed(dump_stream(lines[:200]))[0] + parsed(dump_stream(lines[200:]))[0]
        assert parts == whole


def _make_report(ok, bad, errs):
    report = ParseReport(
        lines_read=ok + bad,
        triples_ok=ok,
        lines_malformed=bad,
        errors=sorted(errs)[:20],
        lint=Counter(),
    )
    return report
