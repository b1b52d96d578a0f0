"""Differential tests: parse_line's regex fast path against parse_line_reference,
and the block loop against one parse_line call per line.

For every input line both routes must agree on the triple (or the malformed
reason code) and on every lint count, under both strict_ids settings and
under the default and non-default namespaces.
"""

import io
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fbont.parser as parser_module
from conftest import NS
from dumpgen import MALFORMED_LINES, random_dump_lines
from fbont.model import IdPath, Mid
from fbont.parser import (
    MalformedLineError,
    ParseReport,
    ParserConfig,
    Projection,
    iter_triples,
    parse_line,
    parse_line_reference,
)

ALT_NS = "http://example.org/kb+(v1)?/"
NAMESPACES = [NS, ALT_NS, ""]
CONFIGS = [ParserConfig(ns, strict) for ns in NAMESPACES for strict in (False, True)]


def outcome(parse, text: str, config: ParserConfig):
    counters: Counter = Counter()
    try:
        result = parse(text, config, counters)
    except MalformedLineError as exc:
        result = exc.reason
    return result, counters


def assert_same(lines, configs=CONFIGS):
    for config in configs:
        for text in lines:
            fast, fast_lint = outcome(parse_line, text, config)
            ref, ref_lint = outcome(parse_line_reference, text, config)
            assert fast == ref, (config, text)
            assert fast_lint == ref_lint, (config, text)


def fbt(local: str, ns: str = NS) -> str:
    return f"<{ns}{local}>"


S = fbt("m.0abc")
P = fbt("people.person.name")
O = fbt("m.0def")

EDGE_CASES = [
    # A literal group that spans tabs would take a 5-field line as a literal.
    f'{S}\t{P}\t"a"\t"b"\t.',
    # The tab split strips the space; a literal ending in a space must not match.
    f'{S}\t{P}\t"a" \t.',
    f'{S}\t{P}\t"a"  \t.',
    f' {S} \t {P} \t {O} \t.',
    f'{S}\t{P}\t{O} \t.',
    f'{S}\t{P}\t{O}\t .',
    f'{S}\t{P}\t{O}\t. ',
    f'{S}\t{P}\t{O}\t.\r',
    f'{S}\t{P}\t{O}\t.\n',
    f'{S}\t{P}\t{O} .',
    f'{S} {P} {O} .',
    f'{S}\t{P}\t{O}.',
    f'{S}\t{P}\t{O}\t.\t.',
    f'{S}\t{P}\t{O}',
    f"<>\t{P}\t{O}\t.",
    f"{S}\t<>\t{O}\t.",
    f"{S}\t{P}\t<>\t.",
    f"{S}\t{P}\t<<>>\t.",
    f"{S}\t<a<b>\t{O}\t.",
    f"{S}\t<a b>\t{O}\t.",
    f"{S}\t<a\x0bb>\t{O}\t.",
    f"{S}\t{P}\t{fbt('m.ABC')}\t.",
    f"{fbt('m.ABC')}\t{P}\t{O}\t.",
    f"{S}\t{fbt('m.ABC')}\t{O}\t.",
    f"{S}\t{fbt('m.abc')}\t{O}\t.",
    f"{fbt('m.a.b')}\t{P}\t{fbt('m.a.b')}\t.",
    f"{fbt('m')}\t{P}\t{fbt('m')}\t.",
    f"{fbt('m.')}\t{P}\t{fbt('m.')}\t.",
    f"{fbt('m.a')}\t{P}\t{fbt('m._')}\t.",
    f"{fbt('a..b')}\t{P}\t{fbt('.a')}\t.",
    f"{fbt('a.b.c.d')}\t{P}\t{fbt('a.b.c.d')}\t.",
    f"{fbt('A.b')}\t{P}\t{fbt('a.B')}\t.",
    f"{fbt('m.é')}\t{P}\t{fbt('people.é')}\t.",
    f"{fbt('a/b')}\t{P}\t{fbt('a/b')}\t.",
    f"<{NS}>\t{P}\t<{NS}>\t.",
    f"<http://x>\t{P}\t<http://x>\t.",
    f"<http://x y>\t{P}\t<http://en.wikipedia.org/wiki/a b>\t.",
    f"{S}\t{P}\t<{NS[:-1]}>\t.",
    f"{S}\t{P}\t<{NS}{NS}m.a>\t.",
    f"<{ALT_NS}m.a>\t<{ALT_NS}b.c>\t<{ALT_NS}d.e.f>\t.",
    f"<{ALT_NS}m.a>\t<{ALT_NS}base.a.b.c>\t<{ALT_NS}M.a>\t.",
    f"_:b0\t{P}\t{O}\t.",
    f"{S}\t{P}\t_:b0\t.",
    f'"x"\t{P}\t{O}\t.',
    f'{S}\t"x"\t{O}\t.',
    f"{S}\t{P}\tbare\t.",
    # Four-segment predicates, repeated so memo hits must lint every time.
    *[f"{S}\t{fbt('base.a.b.c')}\t{O}\t."] * 3,
    *[f"{S}\t{fbt('base.x.y.z')}\t\"v\"\t."] * 2,
    *[f"{S}\t{fbt('people.Person.name')}\t{O}\t."] * 2,
    f"{S}\t{fbt('base.a.b.c')}\t\"bad\"@\t.",
    # Escapes, valid and not.
    f'{S}\t{P}\t"a\\u00e9b"\t.',
    f'{S}\t{P}\t"a\\U0001F600"\t.',
    f'{S}\t{P}\t"a\\u12"\t.',
    f'{S}\t{P}\t"a\\uZZZZ"\t.',
    # \u and \U decode only 4 or 8 ASCII hex digits naming a Unicode scalar value.
    f'{S}\t{P}\t"x\\UFFFFFFFF"\t.',
    f'{S}\t{P}\t"x\\U80000000"\t.',
    f'{S}\t{P}\t"x\\U00110000"\t.',
    f'{S}\t{P}\t"x\\U0010FFFF"\t.',
    f'{S}\t{P}\t"x\\uD800"\t.',
    f'{S}\t{P}\t"x\\udfff\\uFFFF"\t.',
    f'{S}\t{P}\t"x\\U0000D83D\\uDE00"\t.',
    f'{S}\t{P}\t"x\\u+fff"\t.',
    f'{S}\t{P}\t"x\\u fff"\t.',
    f'{S}\t{P}\t"x\\uf_ff"\t.',
    f'{S}\t{P}\t"x\\u-fff"@en\t.',
    f'{S}\t{P}\t"x\\u\u0661\u0662\u0663\u0664"\t.',
    f'{S}\t{P}\t"x\\\\u0041\\u0041"\t.',
    f'{S}\t{P}\t"a\\qb\\z"\t.',
    f'{S}\t{P}\t"a\\"b"\t.',
    f'{S}\t{P}\t"a\\tb\\nc\\\\"\t.',
    f'{S}\t{P}\t"trailing\\"\t.',
    f'{S}\t{P}\t"\\\t.',
    f'{S}\t{P}\t"\t.',
    f'{S}\t{P}\t""\t.',
    f'{S}\t{P}\t"a b"\t.',
    f'{S}\t{P}\t"a"b"\t.',
    # Suffixes, valid and not.
    f'{S}\t{P}\t"x"@en\t.',
    f'{S}\t{P}\t"x"@en-GB\t.',
    f'{S}\t{P}\t"x"@\t.',
    f'{S}\t{P}\t"x"@e n\t.',
    f'{S}\t{P}\t"x"@en_US\t.',
    f'{S}\t{P}\t"x"@@en\t.',
    f'{S}\t{P}\t"x"^^<http://www.w3.org/2001/XMLSchema#int>\t.',
    f'{S}\t{P}\t"x"^^<a>\t.',
    f'{S}\t{P}\t"x"^^<>\t.',
    f'{S}\t{P}\t"x"^^int\t.',
    f'{S}\t{P}\t"x"^^<a\t.',
    f'{S}\t{P}\t"x"^<a>\t.',
    f'{S}\t{P}\t"x" @en\t.',
    "",
    "\t\t\t.",
    " \t \t \t.",
    ".",
]


class TestDifferential:
    def test_dumpgen_lines_with_malformed_injection(self):
        lines = random_dump_lines(3000, seed=11, malformed_rate=0.2)
        alt = [text.replace(NS, ALT_NS) for text in lines[:1000]]
        assert_same(lines + alt + MALFORMED_LINES)

    def test_edge_cases(self):
        assert_same(EDGE_CASES)

    def test_namespace_with_tab_or_bracket_uses_reference_only(self):
        for ns in ("http://x/\tns/", "http://x/<ns>/"):
            lines = [f"<{ns}m.a>\t{P}\t<{ns}d>\t.", f'<{ns}m.a>\t{P}\t"x"\t.', *EDGE_CASES[:10]]
            assert_same(lines, [ParserConfig(ns), ParserConfig(ns, strict_ids=True)])


ID_CHARS = "mabz09_AZé"
ALPHABET = '<>"\\\t .@^' + ID_CHARS
FRAGMENTS = [f"<{NS}", f"<{NS}m.", f"<{ALT_NS}", ">", ">\t", "\t.", '"', "^^<", "@en", "."]

soup_lines = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(alphabet=ALPHABET, max_size=6)),
    max_size=14,
).map("".join)

locals_ = st.text(alphabet=ID_CHARS + ".", min_size=0, max_size=8)
iri_fields = st.builds(lambda ns, local: f"<{ns}{local}>", st.sampled_from(NAMESPACES), locals_)
literal_fields = st.builds(
    lambda body, suffix: f'"{body}"{suffix}',
    st.text(alphabet=ALPHABET.replace("\t", "") + "ntu", max_size=8),
    st.sampled_from(["", "@en", "@", "@e n", "^^<a>", "^^<>", "^^x", " ", "  "]),
)
fields = st.one_of(iri_fields, literal_fields, st.text(alphabet=ALPHABET, max_size=6))
shaped_lines = st.builds(
    lambda s, p, o, pad: f"{s}\t{p}\t{o}\t{pad}",
    st.one_of(iri_fields, fields),
    st.one_of(iri_fields, fields),
    fields,
    st.sampled_from([".", ".", " .", ". ", "", ".\t."]),
)


class TestDifferentialGenerated:
    @settings(max_examples=300)
    @given(st.lists(soup_lines, min_size=1, max_size=5))
    def test_fragment_soup(self, lines):
        assert_same(lines)

    @settings(max_examples=300)
    @given(st.lists(shaped_lines, min_size=1, max_size=5))
    def test_tab_shaped_lines(self, lines):
        assert_same(lines)


class TestFastPathIsTaken:
    def test_canonical_lines_skip_the_reference(self, monkeypatch):
        lines = [t for t in random_dump_lines(500, seed=3) if f"\t<{NS}" in t]
        expected = [parse_line(t, ParserConfig(), Counter()) for t in lines]

        def refuse(*args):
            raise AssertionError("canonical line reached the reference parser")

        monkeypatch.setattr(parser_module, "parse_line_reference", refuse)
        assert [parse_line(t, ParserConfig(), Counter()) for t in lines] == expected
        assert len(lines) > 100

    def test_two_segment_m_path_is_an_idpath(self):
        triple = parse_line(f"{fbt('m.a.b')}\t{P}\t{fbt('m.abc')}\t.")
        assert triple.subject == IdPath(("m", "a", "b"))
        assert triple.object == Mid("abc")

    def test_memo_does_not_hold_strictness(self):
        text = f"{S}\t{fbt('base.a.b.c')}\t{O}\t."
        counters: Counter = Counter()
        parse_line(text, ParserConfig(), counters)
        with pytest.raises(MalformedLineError):
            parse_line(text, ParserConfig(strict_ids=True))
        parse_line(text, ParserConfig(), counters)
        assert counters["nonstandard-id"] == 2


# --- the projected route -------------------------------------------------------
#
# With a Projection, a regex-route line that no consumer reads for its
# predicate and subject kind is counted, not built. Validation must not
# change: the same malformed reason and the same lint as parse_line, line by
# line; and the lines built plus the lines counted are every well-formed line,
# per predicate and subject kind.

READS = {
    "nothing": lambda pred, mid: False,
    "people": lambda pred, mid: isinstance(pred, IdPath) and pred.domain == "people",
    "non-mid subjects": lambda pred, mid: not mid,
}


def assert_projected_same(lines, configs=CONFIGS):
    counted_lines = 0
    for config in configs:
        for reads in READS.values():
            projection = Projection(reads, config.namespace)
            expected: Counter = Counter()
            built: Counter = Counter()
            for text in lines:
                full, full_lint = outcome(parse_line, text, config)
                got, got_lint = outcome(
                    lambda t, c, k: parse_line(t, c, k, projection), text, config
                )
                assert got_lint == full_lint, (config, text)
                if isinstance(full, str):
                    assert got == full, (config, text)
                    continue
                kind = (full.predicate, isinstance(full.subject, Mid))
                expected[kind] += 1
                if got is None:
                    assert not reads(*kind), (config, text)
                    counted_lines += 1
                else:  # read, or a reference-route line, always built in full
                    assert got == full, (config, text)
                    built[kind] += 1
            tallied: Counter = Counter()
            for predicate, mid, count in projection.tallies():
                assert count > 0
                tallied[predicate, mid] += count
            assert built + tallied == expected, config
    return counted_lines


class TestProjectedDifferential:
    def test_dumpgen_lines_with_malformed_injection(self):
        lines = random_dump_lines(3000, seed=11, malformed_rate=0.2)
        alt = [text.replace(NS, ALT_NS) for text in lines[:1000]]
        assert assert_projected_same(lines + alt + MALFORMED_LINES) > 3000

    def test_edge_cases(self):
        assert assert_projected_same(EDGE_CASES) > 0

    @settings(max_examples=200)
    @given(st.lists(shaped_lines, min_size=1, max_size=5))
    def test_tab_shaped_lines(self, lines):
        assert_projected_same(lines)

    def test_reads_is_asked_once_per_predicate_token(self):
        """Once per distinct token and subject kind."""
        asked = []
        projection = Projection(lambda pred, mid: asked.append((pred, mid)) or not mid)
        for text in random_dump_lines(500, seed=4):
            parse_line(text, ParserConfig(), None, projection)
        assert len(asked) == len(set(asked)) == 2 * len(projection)
        assert {mid for _, mid, _ in projection.tallies()} == {True}


# --- literal tokens ---------------------------------------------------------------
#
# A counted line parses its literal and drops it; it must raise the reason and
# count the unknown escapes that building the line does.

LITERAL_PIECES = [
    '"', "\\", "u", "U", *"0123456789abcdefABCDEF", "+", "-", "_", " ", "@", "en",
    "^^<", "^^<a>", "^^<>", ">", "<", "é", "\u0663", "\U0001d7d8", "ß", "t", "n", "q",
]
literal_tokens = st.lists(st.sampled_from(LITERAL_PIECES), max_size=20).map(
    lambda pieces: '"' + "".join(pieces)
)


class TestLiteralTokens:
    @settings(max_examples=1000)
    @given(literal_tokens)
    def test_routes_agree(self, token):
        lines = [f"{S}\t{P}\t{token}\t."]
        assert_same(lines)
        assert_projected_same(lines)


# --- the block loop -------------------------------------------------------------
#
# parse_blocks scans each block with one finditer and sends the lines between
# matches through parse_line. Over any bytes it must give what a parse_line
# call per line gives: the same report, the same tallies, the same triples.

UNICODE_LINES = [
    f'{S}\t{P}\t"a\x85b"\t.',
    f'{S}\t{P}\t"a\u2028b"@en\t.',
    f'{S}\t{P}\t"\x1c\x0b\x0c"\t.',
    f'{S}\t{P}\t"\U0001F600 non-BMP"\t.',
    f'{S}\t{P}\t"\\u00e9\U0001F600"\t.',
    f"{S}\t{P}\t<http://x/\U0001F600>\t.",
    f"{S}\t{P}\t<http://x/a\x85b>\t.",
    f'{S}\t{P}\t"a\rb"\t.',
]
# Pairs of lines that one regex match could take for one line if a class
# of the block regex matched a newline.
STRADDLING = [
    f'{S}\t{P}\t"open', 'close"\t.',
    f'{S}\t{P}\t"open\\', 'n"@en\t.',
    f'{S}\t{P}\t"x"^^<http://a', 'b>\t.',
    f"{S}\t{P}\t<http://a", "b>\t.",
]
TEXT_POOL = (
    random_dump_lines(300, seed=12, malformed_rate=0.2)
    + [text.replace(NS, ALT_NS) for text in random_dump_lines(100, seed=13)]
    + MALFORMED_LINES
    + EDGE_CASES
    + UNICODE_LINES
)
INVALID_UTF8 = [
    f'{S}\t{P}\t"\xff"\t.'.encode("latin-1"),
    f"{S}\t{P}\t{O}\t.".encode() + b"\xc3",
    b"\xe2\x82\r",
    b"\x80abc",
    f'{S}\t{P}\t"'.encode() + "é".encode()[:1] + b'"\t.',
]
ENDINGS = ["", "", "", "\r", "\r\r", "\t"]

byte_lines = st.one_of(
    st.builds(lambda text, end: (text + end).encode(), st.sampled_from(TEXT_POOL), st.sampled_from(ENDINGS)),
    st.sampled_from(INVALID_UTF8),
    st.sampled_from(STRADDLING).map(str.encode),
)


def per_line_parse(data: bytes, config: ParserConfig, reads):
    """The stream as one parse_line call per line: the loop the blocks replace."""
    report = ParseReport()
    projection = Projection(reads, config.namespace) if reads else None
    triples = []
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # the final newline ends the last line, it begins none
    for number, raw in enumerate(lines, 1):
        raw = raw.rstrip(b"\r")
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            report.lint["invalid-utf8-lines"] += 1
            text = raw.decode("utf-8", errors="replace")
        try:
            triple = parse_line(text, config, report.lint, projection)
        except MalformedLineError as exc:
            report.record_malformed(number, exc.reason)
            continue
        report.record_ok()
        if triple is not None:
            triples.append(triple)
    return report.to_dict(), projection.tallies() if projection else None, triples


def block_parse(source, config: ParserConfig, reads):
    report = ParseReport()
    projection = Projection(reads, config.namespace) if reads else None
    triples = list(iter_triples(source, report, config, projection))
    return report.to_dict(), projection.tallies() if projection else None, triples


def assert_blocks_same(data: bytes, cap: int, configs=CONFIGS):
    with mock.patch.object(parser_module, "_BLOCK", cap):
        for config in configs:
            for reads in (None, *READS.values()):
                expected = per_line_parse(data, config, reads)
                assert block_parse(io.BytesIO(data), config, reads) == expected, (config, cap)
                try:
                    lines = data.decode("utf-8").split("\n")
                except UnicodeDecodeError:
                    continue
                if lines[-1] == "":
                    lines.pop()
                assert block_parse(lines, config, reads) == expected, (config, cap)


class TestBlockDifferential:
    @pytest.mark.parametrize("cap", [5, 64, 16 * 1024])
    def test_dumpgen_lines_with_malformed_injection(self, cap):
        lines = random_dump_lines(800, seed=11, malformed_rate=0.2)
        data = "\n".join(lines + MALFORMED_LINES + EDGE_CASES + UNICODE_LINES + STRADDLING).encode()
        assert_blocks_same(data + b"\n", cap)
        assert_blocks_same(data.replace(b"\n", b"\r\n"), cap, CONFIGS[:2])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(byte_lines, max_size=12),
        st.booleans(),
        st.integers(min_value=1, max_value=64),
    )
    def test_generated_streams(self, lines, final_newline, cap):
        data = b"\n".join(lines) + (b"\n" if final_newline else b"")
        assert_blocks_same(data, cap)

    def test_the_scan_counts_canonical_lines_itself(self, monkeypatch):
        data = "".join(t + "\n" for t in random_dump_lines(500, seed=3)).encode()
        expected = block_parse(io.BytesIO(data), ParserConfig(), READS["nothing"])

        def refuse(*args):
            raise AssertionError("a canonical line reached parse_line")

        monkeypatch.setattr(parser_module, "parse_line", refuse)
        assert block_parse(io.BytesIO(data), ParserConfig(), READS["nothing"]) == expected
        assert expected[0]["triples_ok"] == 500


# --- the copy disposition ----------------------------------------------------------
#
# With a projection that copies, parse_blocks appends each well-formed line of
# a copied predicate to its buffer: as it was read where the regex matched it
# without its literal-parser group, else as serialize of the built triple.
# Either way the buffer must hold serialize(parse_line(line)) for each such
# line, in input order; so a line copied as it was read must be its own
# serialization.

real_serialize = parser_module.serialize


class Serialized(str):
    """serialize's text, marked so a built line can be told from one copied as read."""


def marked_serialize(triple, namespace=NS):
    return Serialized(real_serialize(triple, namespace))


def assert_copies_serialize(lines: list[str], cap: int = 16 * 1024, configs=CONFIGS) -> int:
    """Copy every non-mid predicate into one buffer; returns the lines copied as read."""
    data = "".join(text + "\n" for text in lines).encode()
    raw_lines = data.split(b"\n")[:-1]
    as_read = 0
    with mock.patch.object(parser_module, "_BLOCK", cap), mock.patch.object(
        parser_module, "serialize", marked_serialize
    ):
        for config in configs:
            expected_copies, expected_triples = [], []
            for raw in raw_lines:
                try:
                    triple = parse_line(raw.decode().rstrip("\r"), config)
                except MalformedLineError:
                    continue
                if isinstance(triple.predicate, Mid):
                    expected_triples.append(triple)
                else:
                    expected_copies.append(real_serialize(triple, config.namespace))
            buffer: list[str] = []
            projection = Projection(
                namespace=config.namespace,
                copy=lambda predicate: None if isinstance(predicate, Mid) else buffer,
            )
            report, full_report = ParseReport(), ParseReport()
            triples = list(iter_triples(io.BytesIO(data), report, config, projection))
            list(iter_triples(io.BytesIO(data), full_report, config))
            assert report.to_dict() == full_report.to_dict(), config
            assert triples == expected_triples, config
            assert [str(text) for text in buffer] == expected_copies, config
            for text in buffer:
                if not isinstance(text, Serialized):
                    assert text.encode() in raw_lines, (config, text)
                    assert real_serialize(parse_line(text, config), config.namespace) == text
                    as_read += 1
    return as_read


COPY_LITERAL_LINES = [
    f'{S}\t{P}\t"a\rb"\t.',
    f'{S}\t{P}\t"a\rb"@en\t.',
    f'{S}\t{P}\t"\r"^^<http://www.w3.org/2001/XMLSchema#string>\t.',
    f'{S}\t{P}\t"x"^^<a\rb>\t.',
    f'{S}\t{P}\t"a\x85b"\t.',
    f'{S}\t{P}\t"a\u2028b"@en\t.',
    f'{S}\t{P}\t"\U0001F600 non-BMP"\t.',
    f'{S}\t{P}\t"\\u0041b"\t.',
    f'{S}\t{P}\t"x\\uD800"\t.',
    f'{S}\t{P}\t"q\\"uote"\t.',
    f'{S}\t{fbt("people.Person.name")}\t"nonstandard"\t.',
    f'{S}\t{fbt("base.a.b.c")}\t{O}\t.',
    f"{S}\t{fbt('m.0pred')}\t{O}\t.",
    f"{S}\t<http://www.w3.org/2000/01/rdf-schema#label>\t\"label\"@en\t.",
]

copy_terms = st.one_of(
    st.builds(
        lambda ns, local: f"<{ns}{local}>",
        st.sampled_from(NAMESPACES),
        st.sampled_from(["m.0abc", "m.ABC", "people.person", "film", "a.b.c.d", "m.a.b", "people.é"]),
    ),
    st.sampled_from(["<http://x/a>", "<http://x/\U0001F600>"]),
)
copy_predicates = st.one_of(
    st.builds(
        lambda ns, local: f"<{ns}{local}>",
        st.sampled_from(NAMESPACES),
        st.sampled_from(["people.person.name", "people.Person.name", "base.a.b.c", "m.0pred", "film"]),
    ),
    st.sampled_from(["<http://www.w3.org/2000/01/rdf-schema#label>", "<http://x/p>"]),
)
copy_literals = st.builds(
    lambda body, suffix: f'"{body}"{suffix}',
    st.text(alphabet='ab "\\uU0A\r\x85\u2028\U0001F600é\t', max_size=8),
    st.sampled_from(["", "@en", "@en-GB", "^^<http://www.w3.org/2001/XMLSchema#int>", "^^<a\rb>", "@", "^^<>"]),
)
copy_lines = st.builds(
    lambda s, p, o, sep, end: sep.join([s, p, o, "."]) + end,
    copy_terms,
    copy_predicates,
    st.one_of(copy_terms, copy_literals),
    st.sampled_from(["\t", "\t", "\t", " "]),
    st.sampled_from(["", "", "\r"]),
)


class TestCopyDifferential:
    def test_dumpgen_lines_with_malformed_injection(self):
        lines = random_dump_lines(1500, seed=11, malformed_rate=0.2)
        alt = [text.replace(NS, ALT_NS) for text in lines[:500]]
        assert assert_copies_serialize(lines + alt + MALFORMED_LINES) > 1000

    @pytest.mark.parametrize("cap", [1, 64, 16 * 1024])
    def test_edge_cases_and_literals(self, cap):
        lines = EDGE_CASES + UNICODE_LINES + COPY_LITERAL_LINES
        alt = [text.replace(NS, ALT_NS) for text in lines] + [text.replace(NS, "") for text in lines]
        assert assert_copies_serialize(lines + alt, cap) > 50

    def test_a_raw_cr_in_a_literal_is_never_copied_as_read(self):
        lines = [text for text in COPY_LITERAL_LINES if '"' in text and "\r" in text.split('"')[1]]
        assert len(lines) == 3
        assert assert_copies_serialize(lines) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(copy_lines, min_size=1, max_size=8), st.integers(min_value=1, max_value=64))
    def test_generated_lines(self, lines, cap):
        assert_copies_serialize(lines, cap)
        assert_copies_serialize(lines)


# --- escapes the regex vouches for ------------------------------------------------
#
# A literal whose only escapes are \\ \" \n \r \t takes the regex's plain
# group: escape_literal writes each of them back as read and none is unknown,
# so such a line is counted and copied from the scan like an unescaped one,
# and built by unescaping its lexical. Any other escape, an escaped quote
# that closes nothing, or a raw tab keeps the line off the plain group.

ESCAPE_CLASS_LINES = [
    *[f'{S}\t{P}\t"a{e}b"\t.' for e in ("\\\\", '\\"', "\\n", "\\r", "\\t")],
    f'{S}\t{P}\t"\\\\\\"\\n\\r\\t"\t.',
    f'{S}\t{P}\t"line one\\nline \\"two\\"\\r\\n\\tand a \\\\ path"\t.',
    f'{S}\t{P}\t"\\nstarts"\t.',
    f'{S}\t{P}\t"ends\\t"\t.',
    f'{S}\t{P}\t"a\\\\"\t.',  # an escaped backslash before the closing quote
    f'{S}\t{P}\t"\\\\"\t.',
    f'{S}\t{P}\t"\\""\t.',
    f'{S}\t{P}\t"\\\\\\\\n"\t.',  # two escaped backslashes, then a plain n
    f'{S}\t{P}\t"say \\"hi\\""@en\t.',
    f'{S}\t{P}\t"a\\nb"@en-GB\t.',
    f'{S}\t{P}\t"1\\t2"^^<http://www.w3.org/2001/XMLSchema#string>\t.',
    f'{S}\t{P}\t"\\\\"^^<a>\t.',
    f'{S}\t{P}\t"é\\n\U0001F600\\"\x85"\t.',
    f"{S}\t<http://www.w3.org/2000/01/rdf-schema#label>\t\"q\\\"uote\\\\\"@en\t.",
]
ESCAPE_NEAR_MISSES = [
    f'{S}\t{P}\t"a\\bb"\t.',
    f'{S}\t{P}\t"a\\fb"\t.',
    f"{S}\t{P}\t\"a\\'b\"\t.",
    f'{S}\t{P}\t"a\\u0041"\t.',
    f'{S}\t{P}\t"x\\uD800"\t.',
    f'{S}\t{P}\t"a\\qb"\t.',
    f'{S}\t{P}\t"a\\n\\U0001F600"@en\t.',
    f'{S}\t{P}\t"a\\"\t.',  # the escaped quote closes nothing
    f'{S}\t{P}\t"a\\\\\\"\t.',  # an escaped backslash, then the same
    f'{S}\t{P}\t"a\tb"\t.',  # a raw tab
    f'{S}\t{P}\t"a\\nb\tc"@en\t.',
]


def takes_plain_group(text: str, namespace: str = NS) -> bool:
    found = parser_module._canonical_line(namespace).fullmatch(text)
    return found is not None and found[11] is None


def in_escape_class(body: str) -> bool:
    """Whether a literal body (between its quotes) holds only the five escapes."""
    i = 0
    while i < len(body):
        if body[i] in '"\t\n\r':
            return False
        if body[i] == "\\":
            if body[i + 1 : i + 2] not in ("\\", '"', "n", "r", "t"):
                return False
            i += 1
        i += 1
    return True


escape_class_literals = st.tuples(
    st.text(alphabet="\\ntrbf'\"a", max_size=10),
    st.sampled_from(["", "@en", "@en-GB", "^^<http://www.w3.org/2001/XMLSchema#string>"]),
)


class TestEscapeClass:
    def test_class_lines_take_the_plain_group(self):
        for text in ESCAPE_CLASS_LINES:
            assert takes_plain_group(text), text
            assert takes_plain_group(text.replace(NS, ALT_NS), ALT_NS), text

    def test_near_misses_do_not(self):
        for text in ESCAPE_NEAR_MISSES:
            assert not takes_plain_group(text), text
        found = [parser_module._canonical_line(NS).fullmatch(t) for t in ESCAPE_NEAR_MISSES]
        # all but the two with a raw tab, which no alternative matches, take group 11
        assert sum(f is not None and f[11] is not None for f in found) == len(found) - 2

    def test_same_triple_reason_and_lint_as_the_reference(self):
        lines = ESCAPE_CLASS_LINES + ESCAPE_NEAR_MISSES
        assert_same(lines)
        reference = [outcome(parse_line_reference, t, ParserConfig())[0] for t in lines]
        assert all(not isinstance(r, str) for r in reference[: len(ESCAPE_CLASS_LINES)])
        assert [r for r in reference if isinstance(r, str)] == ["unbalanced-quotes"] * 2
        lint: Counter = Counter()
        for text in ESCAPE_NEAR_MISSES:
            lint += outcome(parse_line, text, ParserConfig())[1]
        assert lint == Counter({"unknown-escape": 2})  # \uD800 and \q

    def test_projected_and_block_routes_agree(self):
        lines = ESCAPE_CLASS_LINES + ESCAPE_NEAR_MISSES
        assert assert_projected_same(lines) > 0
        for cap in (1, 64, 16 * 1024):
            assert_blocks_same("".join(t + "\n" for t in lines).encode(), cap)

    @pytest.mark.parametrize("cap", [1, 64, 16 * 1024])
    def test_class_lines_are_copied_as_read(self, cap):
        for ns in NAMESPACES:
            lines = [text.replace(NS, ns) for text in ESCAPE_CLASS_LINES]
            configs = [config for config in CONFIGS if config.namespace == ns]
            assert assert_copies_serialize(lines, cap, configs) == 2 * len(lines), ns
        assert assert_copies_serialize(ESCAPE_NEAR_MISSES, cap) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(escape_class_literals, min_size=1, max_size=8), st.integers(min_value=1, max_value=64))
    def test_generated_escapes(self, literals, cap):
        lines = [f'{S}\t{P}\t"{body}"{suffix}\t.' for body, suffix in literals]
        in_class = sum(in_escape_class(body) for body, _ in literals)
        assert_same(lines)
        assert_projected_same(lines)
        assert assert_copies_serialize(lines, cap, CONFIGS[:2]) == 2 * in_class
