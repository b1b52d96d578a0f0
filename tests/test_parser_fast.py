"""Differential tests: the block scan against parse_line, the reference.

A stream has two parse routes: the scan of each block with the canonical
regex, which yields one row per line, and parse_line for each line the scan
does not take itself (a line outside the canonical grammar, or one whose
predicate token is). Over any input, each line alone or many as one stream,
iter_triples must give what one parse_line call per line gives: the same
triples, the same malformed reason codes at the same line numbers and the
same lint counts. With a Projection it must count every well-formed line by
predicate, build exactly the lines worked out line by line below, and copy
each copied line as it was read, less its line-end CRs. All of it under both
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
from conftest import NS, dump_stream
from dumpgen import MALFORMED_LINES, random_dump_lines
from fbont.model import ExternalIri, IdPath, Mid, normalize_iri
from fbont.parser import (
    MalformedLineError,
    ParseReport,
    ParserConfig,
    Projection,
    iter_triples,
    parse_blocks,
    parse_line,
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


def scanned(pattern, text: str):
    """The canonical regex's fullmatch of a line it does not catch whole and
    whose predicate token holds no bracket or whitespace inside its brackets,
    else None: the lines the scan takes itself, and does not leave to
    parse_line."""
    found = pattern.fullmatch(text)
    return found if found[4] is None and re.fullmatch(r"<[^<>\s]+>", found[2]) else None


def per_line_parse(data: bytes, config: ParserConfig):
    """The stream as one parse_line call per line.

    Returns the report, and (triple or None, match, text) for each line that
    is well-formed or that the scan takes itself (see ``scanned``) once its
    line-end CRs are dropped, in input order; the text is the line without
    them.
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
        found = scanned(pattern, text)
        try:
            triple = parse_line(text, config, report.lint)
        except MalformedLineError as exc:
            report.record_malformed(number, exc.reason)
            triple = None
        else:
            report.record_ok()
        if triple is not None or found is not None:
            parsed.append((triple, found, text))
    return report.to_dict(), parsed


def dispositions(parsed, reads, copies: bool, namespace: str):
    """What the scan yields, tallies and copies, worked out line by line.

    Every well-formed line is counted under its predicate. It is yielded
    unless no reader reads its (predicate, mid-subject) kind and the scan
    takes it itself. Every copied line's text is the line as read, less its
    line-end CRs. Tallies come in the order their predicates were first
    seen, on a line the scan takes or a well-formed one; a line it leaves
    to parse_line is counted under the same predicate as one it takes.
    """
    counts: dict = {}  # predicate -> well-formed lines
    triples, texts = [], []
    for triple, found, text in parsed:
        predicate = normalize_iri(found[2][1:-1], namespace) if found is not None else triple.predicate
        counts.setdefault(predicate, 0)
        if triple is None:
            continue
        counts[predicate] += 1
        if copies and copied(triple.predicate):
            texts.append(text)
        if reads is None or found is None or reads(triple.predicate, isinstance(triple.subject, Mid)):
            triples.append(triple)
    tallies = [(predicate, count) for predicate, count in counts.items() if count]
    return tallies, triples, texts


def block_parse(source, config: ParserConfig, reads, copies: bool = False, blocks: bool = False):
    """iter_triples over a binary stream, or parse_blocks when ``source`` is ``blocks`` of bytes."""
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
    """The scan of ``data``, read as a binary stream, against per_line_parse.

    In every mode; returns the well-formed lines not built, over all configs
    and modes. ``alone`` gives parse_blocks each line as a block of its own
    instead.
    """
    raws = data.split(b"\n")
    if raws[-1] == b"":
        raws.pop()
    unbuilt = 0
    with mock.patch.object(parser_module, "_BLOCK", cap):
        for config in configs:
            report, parsed = per_line_parse(data, config)
            for reads, copies in MODES:
                tallies, triples, texts = dispositions(parsed, reads, copies, config.namespace)
                projected = reads is not None or copies
                expected = (report, tallies if projected else [], triples, texts)
                if alone:
                    got = block_parse([raw + b"\n" for raw in raws], config, reads, copies, blocks=True)
                else:
                    got = block_parse(io.BytesIO(data), config, reads, copies)
                assert got == expected, (config, cap)
                unbuilt += report["triples_ok"] - len(triples)
    return unbuilt


def assert_alone_same(lines, configs=CONFIGS) -> None:
    """Each line alone: a block of its own."""
    assert_blocks_same(dump_stream(lines).getvalue(), configs=configs, alone=True)


def assert_stream_same(lines, configs=CONFIGS) -> int:
    """All the lines as one stream; returns the well-formed lines not built."""
    return assert_blocks_same(dump_stream(lines).getvalue(), configs=configs)


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
# What a predicate token can hold that the canonical grammar does not.
PREDICATE_PIECES = [" ", "\xa0", "\u2028", "<", ">"]
FRAGMENTS = [f"<{NS}", f"<{NS}m.", f"<{ALT_NS}", ">", ">\t", "\t.", '"', "^^<", "@en", ".", "<>", *PREDICATE_PIECES]

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
# A piece inside, at the head or at the tail, or nothing at all: ``<>`` in the empty namespace.
odd_predicates = st.builds(
    lambda ns, head, piece, tail: f"<{ns}{head}{piece}{tail}>",
    st.sampled_from(NAMESPACES),
    locals_,
    st.sampled_from(["", *PREDICATE_PIECES]),
    locals_,
)
shaped_lines = st.builds(
    lambda s, p, o, pad: f"{s}\t{p}\t{o}\t{pad}",
    st.one_of(iri_fields, fields),
    st.one_of(iri_fields, odd_predicates, fields),
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
        assert list(iter_triples(dump_stream([text]), ParseReport())) == [triple]

    def test_memo_does_not_hold_strictness(self):
        """The projection keeps whether a predicate is nonstandard; each line is linted or rejected."""
        text = f"{S}\t{fbt('base.a.b.c')}\t{O}\t."
        with pytest.raises(MalformedLineError):
            parse_line(text, ParserConfig(strict_ids=True))
        for reads in (None, READS["nothing"]):
            report = block_parse(dump_stream([text] * 2), ParserConfig(), reads)[0]
            assert report["lint"] == {"nonstandard-id": 2} and report["triples_ok"] == 2
            report = block_parse(dump_stream([text] * 2), ParserConfig(strict_ids=True), reads)[0]
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
        source = dump_stream(random_dump_lines(500, seed=4))
        triples = list(iter_triples(source, ParseReport(), ParserConfig(), projection))
        entries = [entry for entry in projection.values() if entry is not None]
        assert len(asked) == len(set(asked)) == 2 * len(entries)
        assert triples == [] and sum(count for _, count in projection.tallies()) == 500  # every subject a mid

    def test_copy_is_asked_once_per_predicate_token(self):
        """Once per distinct predicate, also for the lines the scan leaves to parse_line:
        those it catches whole, and those whose token holds whitespace."""
        asked = []
        projection = Projection(copy=lambda pred: asked.append(pred))
        gap_only = fbt("people.person.gap_only")
        spaced = "<http://x/a b>"
        lines = random_dump_lines(200, seed=4) + [f"{S} {P} {O} .", f"{S} {gap_only} {O} .", f"{S} {gap_only} {O} ."]
        lines += [f"{S}\t{spaced}\t{O}\t.", f"{S}\t{spaced}\t{O}\t."]
        report = ParseReport()
        triples = list(iter_triples(dump_stream(lines), report, ParserConfig(), projection))
        assert report.triples_ok == len(lines)
        assert len(asked) == len(set(asked)) == sum(entry is not None for entry in projection.values())
        assert set(asked) == {triple.predicate for triple in triples}
        assert (IdPath(("people", "person", "gap_only")), 2) in projection.tallies()
        assert (ExternalIri("http://x/a b"), 2) in projection.tallies()


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
# of the block regex matched a newline. The predicate's class does: the
# last pair is one match of the block scan, which then rescans its block.
STRADDLING = [
    f'{S}\t{P}\t"open', 'close"\t.',
    f'{S}\t{P}\t"open\\', 'n"@en\t.',
    f'{S}\t{P}\t"x"^^<http://a', 'b>\t.',
    f"{S}\t{P}\t<http://a", "b>\t.",
    f"{S}\t{P[:-6]}", f"name>\t{O}\t.",
]
# Predicate tokens outside the canonical grammar, with objects that the
# scan takes, gives the literal parser, or that make the line malformed.
ODD_PREDICATE_LINES = [
    f"{S}\t{predicate}\t{obj}\t."
    for predicate in [
        "<a b>", "<a\xa0b>", "<a\u2028b>", "<a<b>", "<a>b>", "< a>", "<a >", "<>", "< >", "<<>>",
        fbt("people.person name"), fbt("people.person.name "), fbt("people.person.name\xa0"),
    ]
    for obj in (O, '"x"', '"x\\q"', '"x"@')
]
TEXT_POOL = (
    random_dump_lines(300, seed=12, malformed_rate=0.2)
    + [text.replace(NS, ALT_NS) for text in random_dump_lines(100, seed=13)]
    + MALFORMED_LINES
    + EDGE_CASES
    + UNICODE_LINES
    + ODD_PREDICATE_LINES
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
        """A line that is only counted costs a step of the block scan: with a
        projection that neither reads nor copies, no canonical line reaches
        parse_line or a build of its own."""
        data = dump_stream(random_dump_lines(500, seed=3)).getvalue()
        expected = block_parse(io.BytesIO(data), ParserConfig(), READS["nothing"])

        def refuse(*args):
            raise AssertionError("a counted canonical line reached parse_line or was built")

        monkeypatch.setattr(parser_module, "parse_line", refuse)
        monkeypatch.setattr(parser_module, "Triple", refuse)
        assert block_parse(io.BytesIO(data), ParserConfig(), READS["nothing"]) == expected
        assert expected[0]["triples_ok"] == 500

    @pytest.mark.parametrize("reads, copies", [(READS["nothing"], False), (None, False), (None, True)])
    def test_crs_ending_canonical_lines_never_reach_parse_line(self, monkeypatch, reads, copies):
        """The CRs before a line's ``\\n`` are its line end, so the scan still matches it."""
        lines = random_dump_lines(500, seed=3)
        crs = "".join(text + ("\r\n", "\r\r\n")[i % 2] for i, text in enumerate(lines)).encode()
        expected = block_parse(dump_stream(lines), ParserConfig(), reads, copies)

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
        report = block_parse(io.BytesIO(data), ParserConfig(), None)[0]
        assert report["lines_read"] == 2 and report["triples_ok"] == 1
        assert report["first_errors"] == [[2, "field-count"]]


# --- predicate tokens ---------------------------------------------------------------
#
# The block scan reads the predicate field as any token without a tab, and
# the projection checks each distinct token once against the canonical
# predicate grammar: a line whose token holds whitespace or a bracket inside
# its brackets, or is ``<>``, goes to parse_line, and a token missing its
# closing bracket can run into the next line, which makes the scan rescan
# its block line by line.


class TestPredicateTokens:
    @pytest.mark.parametrize("cap", [1, 16 * 1024])
    def test_odd_tokens(self, cap):
        lines = ODD_PREDICATE_LINES + [text.replace(NS, ALT_NS) for text in ODD_PREDICATE_LINES]
        data = dump_stream(random_dump_lines(100, seed=7) + lines).getvalue()
        assert assert_blocks_same(data, cap) > 0
        assert_blocks_same(data.replace(b"\n", b"\r\n"), cap, CONFIGS[:2])
        assert_alone_same(lines)

    @pytest.mark.parametrize("cap", [1, 16 * 1024])
    def test_a_token_running_past_a_line_end(self, cap):
        crossing = STRADDLING[-2:]
        assert len(parser_module._canonical_line(NS).findall("\n".join(crossing))) == 1
        lines = random_dump_lines(300, seed=8)
        # the pair in the middle of a block, at its start and end, and alone
        lines = lines[:150] + crossing + lines[150:] + crossing + ODD_PREDICATE_LINES + crossing
        data = dump_stream(lines).getvalue()
        assert assert_blocks_same(data, cap) > 0
        assert_blocks_same(data.replace(b"\n", b"\r\n"), cap, CONFIGS[:2])

    @pytest.mark.parametrize("config", [ParserConfig(), ParserConfig(strict_ids=True)])
    def test_reads_and_copy_skip_tokens_only_malformed_lines_hold(self, config):
        """Nor for a token outside the canonical predicate grammar that only
        lines parse_line rejects hold."""
        rejected = [
            f"{S}\t<a<b>\t{O}\t.",
            f'{S}\t<a b>\t"x"@\t.',
            f"{S}\t<a\xa0b>\t{O}\t.\t.",
            f"{S}\t<>\t{O}\t.",
            f"{S}\t{fbt('people.Person name')}\t{O}\t.",  # nonstandard: rejected only under strict_ids
        ]
        lines = random_dump_lines(50, seed=9) + rejected + [f"{S}\t<a\u2028b>\t{O}\t."]
        asked = []
        projection = Projection(
            lambda predicate, mid: asked.append(predicate) or True,
            copy=lambda predicate: asked.append(predicate),
        )
        report = ParseReport()
        triples = list(iter_triples(dump_stream(lines), report, config, projection))
        assert report.lines_malformed == len(rejected) - (not config.strict_ids)
        assert set(asked) == {triple.predicate for triple in triples}
        assert len(asked) == 3 * len(set(asked))


# --- the copy disposition ----------------------------------------------------------
#
# With a projection that copies, parse_blocks appends each well-formed line of
# a copied predicate to its buffer as it was read, less its line-end CRs, in
# input order, whichever route parsed it, and never serializes a triple for
# it. Copying is beside counting and building: the line is still counted or
# yielded as the projection's reads decide.


def refuse_serialize(*args):
    raise AssertionError("a copied line was serialized")


def assert_copies_input(lines: list[str], cap: int = 16 * 1024, configs=CONFIGS) -> int:
    """Copy every non-mid predicate into one buffer; returns the lines copied.

    Copy is independent of the count/build decision: a projection that reads
    everything and one that reads nothing fill the same buffer and report,
    and each well-formed line is either yielded or tallied.
    """
    data = dump_stream(lines).getvalue()
    raw_lines = [raw.rstrip(b"\r") for raw in data.split(b"\n")[:-1]]  # without their line ends
    copies = 0
    with mock.patch.object(parser_module, "_BLOCK", cap), mock.patch.object(
        parser_module, "serialize", refuse_serialize
    ):
        for config in configs:
            expected_copies, expected_triples = [], []
            for raw in raw_lines:
                text = raw.decode()
                try:
                    triple = parse_line(text, config)
                except MalformedLineError:
                    continue
                expected_triples.append(triple)
                if not isinstance(triple.predicate, Mid):
                    expected_copies.append(text)
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
                assert sum(count for _, count in projection.tallies()) == report.triples_ok, config
                remaining = iter(expected_triples)
                assert all(triple in remaining for triple in triples), config  # in input order
                if reads is parser_module._reads_everything:
                    assert triples == expected_triples, config
                buffers.append(buffer)
            assert buffers[0] == buffers[1] == expected_copies, config
            copies += len(expected_copies)
    return copies


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
    odd_predicates,
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
        assert assert_copies_input(lines + alt + MALFORMED_LINES) > 1000

    @pytest.mark.parametrize("cap", [1, 64, 16 * 1024])
    def test_edge_cases_and_literals(self, cap):
        lines = EDGE_CASES + UNICODE_LINES + COPY_LITERAL_LINES
        alt = [text.replace(NS, ALT_NS) for text in lines] + [text.replace(NS, "") for text in lines]
        assert assert_copies_input(lines + alt, cap) > 50

    def test_a_raw_cr_in_a_literal_is_copied_as_read(self):
        lines = [text for text in COPY_LITERAL_LINES if '"' in text and "\r" in text.split('"')[1]]
        assert len(lines) == 3
        assert assert_copies_input(lines) == 3 * len(CONFIGS)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(copy_lines, min_size=1, max_size=8), st.integers(min_value=1, max_value=64))
    def test_generated_lines(self, lines, cap):
        assert_copies_input(lines, cap)
        assert_copies_input(lines)


# --- escapes the regex vouches for ------------------------------------------------
#
# A literal whose only escapes are \\ \" \n \r \t takes the regex's plain
# group: none of them is unknown, so such a line is counted like an
# unescaped one, without the literal parser, and built by unescaping its
# lexical. Any other escape, an escaped quote that closes nothing, or a raw
# tab keeps the line off the plain group.

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
    return found[4] is None and found[3] is None


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
        # all but the two with a raw tab, which only the catch-all matches, take group 3
        assert sum(f[3] is not None for f in found) == len(found) - 2

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
            assert assert_blocks_same(dump_stream(lines).getvalue(), cap) > 0

    @pytest.mark.parametrize("cap", [1, 64, 16 * 1024])
    def test_class_lines_are_copied_as_read(self, cap):
        for ns in NAMESPACES:
            lines = [text.replace(NS, ns) for text in ESCAPE_CLASS_LINES]
            configs = [config for config in CONFIGS if config.namespace == ns]
            assert assert_copies_input(lines, cap, configs) == 2 * len(lines), ns
        # so are the well-formed near misses: all but the two with unbalanced quotes
        assert assert_copies_input(ESCAPE_NEAR_MISSES, cap) == (len(ESCAPE_NEAR_MISSES) - 2) * len(CONFIGS)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(escape_class_literals, min_size=1, max_size=8), st.integers(min_value=1, max_value=64))
    def test_generated_escapes(self, literals, cap):
        lines = [f'{S}\t{P}\t"{body}"{suffix}\t.' for body, suffix in literals]
        in_class = sum(in_escape_class(body) for body, _ in literals)
        assert_alone_same(lines)
        assert_stream_same(lines)
        assert sum(takes_plain_group(text) for text in lines) == in_class
        wellformed = sum(not isinstance(outcome(parse_line, t, ParserConfig())[0], str) for t in lines)
        assert assert_copies_input(lines, cap, CONFIGS[:2]) == 2 * wellformed


def test_spelled_out_space_is_the_whitespace_class():
    """The scan's spelled-out whitespace set is exactly what ``\\s`` matches, on
    every code point under this interpreter's Unicode tables."""
    every = "".join(map(chr, range(0x110000)))
    category = re.compile(r"[^<>\s]")
    spelled = re.compile(rf"[^<>{parser_module._SPACE}]")
    assert spelled.sub("", every) == category.sub("", every)
    assert set(category.sub("", every)) == {c for c in every if c.isspace()} | {"<", ">"}
