"""Differential tests: the block scan against parse_line, the reference.

A stream has two parse routes: the scan of each block with the canonical
regex, and parse_line for every line between its matches. Over any input,
each line alone or many as one stream, iter_triples must give what one
parse_line call per line gives: the same triples, the same malformed reason
codes at the same line numbers and the same lint counts. With a Projection
it must count exactly the lines worked out line by line below, and copy
each copied line as serialize gives it back. All of it under both
strict_ids settings and under the default and non-default namespaces.
"""

import io
import re
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
    parse_blocks,
    parse_line,
    serialize,
)

ALT_NS = "http://example.org/kb+(v1)?/"
NAMESPACES = [NS, ALT_NS, ""]
CONFIGS = [ParserConfig(ns, strict) for ns in NAMESPACES for strict in (False, True)]
# Every malformed line's reason is compared, not just the first twenty.
MAX_ERRORS = 1 << 30


def outcome(parse, text: str, config: ParserConfig):
    counters: Counter = Counter()
    try:
        result = parse(text, config, counters)
    except MalformedLineError as exc:
        result = exc.reason
    return result, counters


# What a Projection's consumers read; None is a stream parsed without one.
READS = {
    "nothing": lambda pred, mid: False,
    "people": lambda pred, mid: isinstance(pred, IdPath) and pred.domain == "people",
    "non-mid subjects": lambda pred, mid: not mid,
}
MODES = [(reads, copies) for reads in (None, *READS.values()) for copies in (False, True)]


def copied(predicate) -> bool:
    """The predicates whose lines a copying projection takes as text."""
    return not isinstance(predicate, Mid)


def per_line_parse(data: bytes, config: ParserConfig):
    """The stream as one parse_line call per line.

    Returns the report, and (triple or None, match) for each line that is
    well-formed or that the canonical regex fullmatches once its line-end
    CRs are dropped, in input order.
    """
    report = ParseReport(max_errors=MAX_ERRORS)
    pattern = parser_module._canonical_line(config.namespace)
    parsed = []
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
        found = pattern.fullmatch(text) if pattern is not None else None
        try:
            triple = parse_line(text, config, report.lint)
        except MalformedLineError as exc:
            report.record_malformed(number, exc.reason)
            triple = None
        else:
            report.record_ok()
        if triple is not None or found is not None:
            parsed.append((triple, found))
    return report.to_dict(), parsed


def dispositions(parsed, config: ParserConfig, reads, copies: bool):
    """What the scan yields, tallies and copies, worked out line by line.

    A well-formed line is counted, not yielded, iff no reader reads its
    (predicate, mid-subject) kind and the canonical regex fullmatches it;
    but a copied line that needs the regex's literal-parser group is
    yielded, since its text comes from serialize. Every copied line's text
    is serialize of its triple. Tallies come in the order their predicate
    tokens were first matched, on any line.
    """
    counts: dict[str, list] = {}  # predicate token -> [predicate, other subjects, mids]
    triples, texts = [], []
    for triple, found in parsed:
        if found is not None:
            cells = counts.setdefault(found[4], [None, 0, 0])
        if triple is None:
            continue
        copy = copies and copied(triple.predicate)
        if copy:
            texts.append(serialize(triple, config.namespace))
        mid = isinstance(triple.subject, Mid)
        if (
            reads is not None
            and found is not None
            and not reads(triple.predicate, mid)
            and not (copy and found[11] is not None)
        ):
            cells[0] = triple.predicate
            cells[1 + mid] += 1
        else:
            triples.append(triple)
    tallies = [
        (predicate, mid, cells[mid])
        for predicate, *cells in counts.values()
        for mid in (False, True)
        if cells[mid]
    ]
    return tallies, triples, texts


def block_parse(source, config: ParserConfig, reads, copies: bool = False, blocks: bool = False):
    """iter_triples over ``source``, or parse_blocks when ``source`` is ``blocks`` already."""
    report = ParseReport(max_errors=MAX_ERRORS)
    buffer: list[str] = []
    projection = None
    if reads is not None or copies:
        projection = Projection(
            reads or parser_module._reads_everything,
            config.namespace,
            (lambda predicate: buffer if copied(predicate) else None) if copies else None,
        )
    if blocks:
        triples = [t for block in parse_blocks(source, report, config, projection) for t in block]
    else:
        triples = list(iter_triples(source, report, config, projection))
    return report.to_dict(), projection.tallies() if projection else [], triples, buffer


def assert_blocks_same(data: bytes, cap: int = 16 * 1024, configs=CONFIGS, alone: bool = False) -> int:
    """The scan of ``data``, as bytes and as a list of lines, against per_line_parse.

    In every mode; returns the lines counted, over all configs and modes.
    ``alone`` gives parse_blocks each line as a block of its own instead,
    as bytes and as text.
    """
    raws = data.split(b"\n")
    if raws[-1] == b"":
        raws.pop()
    try:
        lines = [raw.decode("utf-8") for raw in raws]
    except UnicodeDecodeError:
        lines = None
    counted = 0
    with mock.patch.object(parser_module, "_BLOCK", cap):
        for config in configs:
            report, parsed = per_line_parse(data, config)
            for reads, copies in MODES:
                expected = (report, *dispositions(parsed, config, reads, copies))
                if alone:
                    got = block_parse([raw + b"\n" for raw in raws], config, reads, copies, blocks=True)
                else:
                    got = block_parse(io.BytesIO(data), config, reads, copies)
                assert got == expected, (config, cap)
                if lines is not None:
                    if alone:
                        got = block_parse([line + "\n" for line in lines], config, reads, copies, blocks=True)
                    else:
                        got = block_parse(lines, config, reads, copies)
                    assert got == expected, (config, cap)
                counted += sum(count for _, _, count in expected[1])
    return counted


def assert_alone_same(lines, configs=CONFIGS) -> None:
    """Each line alone: a block of its own."""
    assert_blocks_same("".join(text + "\n" for text in lines).encode(), configs=configs, alone=True)


def assert_stream_same(lines, configs=CONFIGS) -> int:
    """All the lines as one stream; returns the lines counted."""
    return assert_blocks_same("".join(text + "\n" for text in lines).encode(), configs=configs)


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
    """Each line alone."""

    def test_dumpgen_lines_with_malformed_injection(self):
        lines = random_dump_lines(3000, seed=11, malformed_rate=0.2)
        alt = [text.replace(NS, ALT_NS) for text in lines[:1000]]
        assert_alone_same(lines + alt + MALFORMED_LINES)

    def test_edge_cases(self):
        assert_alone_same(EDGE_CASES)

    def test_namespace_with_tab_or_bracket_uses_reference_only(self):
        for ns in ("http://x/\tns/", "http://x/<ns>/"):
            lines = [f"<{ns}m.a>\t{P}\t<{ns}d>\t.", f'<{ns}m.a>\t{P}\t"x"\t.', *EDGE_CASES[:10]]
            configs = [ParserConfig(ns), ParserConfig(ns, strict_ids=True)]
            assert_alone_same(lines, configs)
            assert assert_stream_same(lines, configs) == 0


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
        assert_alone_same(lines)
        assert_stream_same(lines)

    @settings(max_examples=300)
    @given(st.lists(shaped_lines, min_size=1, max_size=5))
    def test_tab_shaped_lines(self, lines):
        assert_alone_same(lines)
        assert_stream_same(lines)


class TestFastPathIsTaken:
    def test_two_segment_m_path_is_an_idpath(self):
        text = f"{fbt('m.a.b')}\t{P}\t{fbt('m.abc')}\t."
        triple = parse_line(text)
        assert triple.subject == IdPath(("m", "a", "b"))
        assert triple.object == Mid("abc")
        assert list(iter_triples([text], ParseReport())) == [triple]

    def test_memo_does_not_hold_strictness(self):
        """The projection keeps whether a predicate is nonstandard; each line is linted or rejected."""
        text = f"{S}\t{fbt('base.a.b.c')}\t{O}\t."
        with pytest.raises(MalformedLineError):
            parse_line(text, ParserConfig(strict_ids=True))
        for reads in (None, READS["nothing"]):
            report = block_parse([text] * 2, ParserConfig(), reads)[0]
            assert report["lint"] == {"nonstandard-id": 2} and report["triples_ok"] == 2
            report = block_parse([text] * 2, ParserConfig(strict_ids=True), reads)[0]
            assert report["first_errors"] == [[1, "nonstandard-id"], [2, "nonstandard-id"]]


# --- many lines as one stream ---------------------------------------------------
#
# Lines that a projection counts, or copies, share its table with the lines
# around them: the same entry per predicate token, one count per line.


class TestProjectedDifferential:
    def test_dumpgen_lines_with_malformed_injection(self):
        lines = random_dump_lines(3000, seed=11, malformed_rate=0.2)
        alt = [text.replace(NS, ALT_NS) for text in lines[:1000]]
        assert assert_stream_same(lines + alt + MALFORMED_LINES) > 3000

    def test_edge_cases(self):
        assert assert_stream_same(EDGE_CASES) > 0

    @settings(max_examples=200)
    @given(st.lists(shaped_lines, min_size=1, max_size=5))
    def test_tab_shaped_lines(self, lines):
        assert_stream_same(lines)

    def test_reads_is_asked_once_per_predicate_token(self):
        """Once per distinct token and subject kind."""
        asked = []
        projection = Projection(lambda pred, mid: asked.append((pred, mid)) or not mid)
        list(iter_triples(random_dump_lines(500, seed=4), ParseReport(), ParserConfig(), projection))
        assert len(asked) == len(set(asked)) == 2 * len(projection)
        assert {mid for _, mid, _ in projection.tallies()} == {True}


# --- literal tokens ---------------------------------------------------------------
#
# A counted line parses its literal and drops it; it must raise the reason and
# count the unknown escapes that parse_line does.

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
        assert_stream_same([f"{S}\t{P}\t{token}\t."])


# --- the block loop -------------------------------------------------------------
#
# Blocks of many lines, cut small or large, with every line end, invalid
# UTF-8 and lines that one regex match could take for one.

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

    @pytest.mark.parametrize("reads, copies", [(READS["nothing"], False), (None, False), (None, True)])
    def test_crs_ending_canonical_lines_never_reach_parse_line(self, monkeypatch, reads, copies):
        """The CRs before a line's ``\\n`` are its line end, so the scan still matches it."""
        lines = random_dump_lines(500, seed=3)
        data = "".join(text + "\n" for text in lines).encode()
        crs = "".join(text + ("\r\n", "\r\r\n")[i % 2] for i, text in enumerate(lines)).encode()
        expected = block_parse(io.BytesIO(data), ParserConfig(), reads, copies)

        def refuse(*args):
            raise AssertionError("a canonical line reached parse_line")

        monkeypatch.setattr(parser_module, "parse_line", refuse)
        assert block_parse(io.BytesIO(crs), ParserConfig(), reads, copies) == expected
        assert expected[0]["triples_ok"] == 500

    @pytest.mark.parametrize("cap", [1, 16 * 1024])
    @pytest.mark.parametrize("final", [b"\r", b"\r\r"])
    def test_a_final_line_of_crs_is_malformed(self, cap, final):
        """A last line made only of CRs, with no ``\\n``, is still a line."""
        data = f"{S}\t{P}\t{O}\t.\n".encode() + final
        assert assert_blocks_same(data, cap) > 0
        for source in (io.BytesIO(data), data.decode().split("\n")):
            report = block_parse(source, ParserConfig(), None)[0]
            assert report["lines_read"] == 2 and report["triples_ok"] == 1
            assert report["first_errors"] == [[2, "field-count"]]


# --- the copy disposition ----------------------------------------------------------
#
# With a projection that copies, parse_blocks appends each well-formed line of
# a copied predicate to its buffer: as it was read where the regex matched it
# without its literal-parser group, else as serialize of the built triple.
# Either way the buffer must hold serialize(parse_line(line)) for each such
# line, in input order; so a line copied as it was read must be its own
# serialization. Copying is beside counting and building: the line is still
# counted or yielded as the projection's reads decide.

real_serialize = parser_module.serialize


class Serialized(str):
    """serialize's text, marked so a built line can be told from one copied as read."""


def marked_serialize(triple, namespace=NS):
    return Serialized(real_serialize(triple, namespace))


def assert_copies_serialize(lines: list[str], cap: int = 16 * 1024, configs=CONFIGS) -> int:
    """Copy every non-mid predicate into one buffer; returns the lines copied as read.

    Copy is independent of the count/build decision: a projection that reads
    everything and one that reads nothing fill the same buffer and report,
    and each well-formed line is either yielded or tallied.
    """
    data = "".join(text + "\n" for text in lines).encode()
    raw_lines = [raw.rstrip(b"\r") for raw in data.split(b"\n")[:-1]]  # without their line ends
    as_read = 0
    with mock.patch.object(parser_module, "_BLOCK", cap), mock.patch.object(
        parser_module, "serialize", marked_serialize
    ):
        for config in configs:
            expected_copies, expected_triples = [], []
            for raw in raw_lines:
                try:
                    triple = parse_line(raw.decode(), config)
                except MalformedLineError:
                    continue
                expected_triples.append(triple)
                if not isinstance(triple.predicate, Mid):
                    expected_copies.append(real_serialize(triple, config.namespace))
            full_report = ParseReport()
            list(iter_triples(io.BytesIO(data), full_report, config))
            buffers = []
            for reads in (parser_module._reads_everything, READS["nothing"]):
                buffer: list[str] = []
                projection = Projection(
                    reads,
                    config.namespace,
                    copy=lambda predicate: None if isinstance(predicate, Mid) else buffer,
                )
                report = ParseReport()
                triples = list(iter_triples(io.BytesIO(data), report, config, projection))
                assert report.to_dict() == full_report.to_dict(), config
                tallied = sum(count for _, _, count in projection.tallies())
                assert len(triples) + tallied == report.triples_ok, config
                remaining = iter(expected_triples)
                assert all(triple in remaining for triple in triples), config  # in input order
                if reads is parser_module._reads_everything:
                    assert triples == expected_triples, config
                buffers.append([(type(text), text) for text in buffer])
            assert buffers[0] == buffers[1], config
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
        assert_alone_same(lines)
        reference = [outcome(parse_line, t, ParserConfig())[0] for t in lines]
        assert all(not isinstance(r, str) for r in reference[: len(ESCAPE_CLASS_LINES)])
        assert [r for r in reference if isinstance(r, str)] == ["unbalanced-quotes"] * 2
        lint: Counter = Counter()
        for text in ESCAPE_NEAR_MISSES:
            lint += outcome(parse_line, text, ParserConfig())[1]
        assert lint == Counter({"unknown-escape": 2})  # \uD800 and \q

    def test_projected_and_block_routes_agree(self):
        lines = ESCAPE_CLASS_LINES + ESCAPE_NEAR_MISSES
        for cap in (1, 64, 16 * 1024):
            assert assert_blocks_same("".join(t + "\n" for t in lines).encode(), cap) > 0

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
        assert_alone_same(lines)
        assert_stream_same(lines)
        assert assert_copies_serialize(lines, cap, CONFIGS[:2]) == 2 * in_class


def test_spelled_out_space_is_the_whitespace_class():
    """The scan's spelled-out whitespace set is exactly what ``\\s`` matches, on
    every code point under this interpreter's Unicode tables."""
    every = "".join(map(chr, range(0x110000)))
    category = re.compile(r"[^<>\s]")
    spelled = re.compile(rf"[^<>{parser_module._SPACE}]")
    assert spelled.sub("", every) == category.sub("", every)
    assert set(category.sub("", every)) == {c for c in every if c.isspace()} | {"<", ">"}
