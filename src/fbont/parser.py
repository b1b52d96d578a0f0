"""Streaming, fault-tolerant reader for N-Triples dumps.

Built for multi-billion-line inputs: one pass, constant memory, malformed
lines counted and sampled instead of aborting the run.

A stream has two parse routes to one answer. The dump convention is one
tab-separated statement per line (``<s>\\t<p>\\t<o>\\t.``), and nearly every
subject and object is a canonical ``m.<suffix>`` mid, a 1-3 segment dotted
path under the namespace, an IRI outside it, or a literal. A stream is
parsed a block at a time: :func:`read_blocks` reads every source (a plain
or gzip range, a whole file, standard input) as blocks of whole lines, at
most 16 KiB each, and :func:`parse_blocks` decodes a block at once, drops
the CRs before each ``\\n`` (N-Triples counts them in the line end), and
scans it with one ``finditer`` of a compiled regex per namespace that
recognizes such lines:

- the subject and an IRI object are built directly: a canonical id carries
  no lint and an external IRI none either, so neither can fail;
- a literal whose only escapes are ``\\\\``, ``\\"``, ``\\n``, ``\\r`` and
  ``\\t`` is built directly too, since none of those can be unknown; any
  other literal goes through the literal parser (other escapes, suffix
  checks);
- the predicate resolves through the stream's :class:`Projection` entry;
  the ``nonstandard-id`` lint and the ``strict_ids`` check are applied again
  on every line.

A match that does not start where the previous one ended leaves a gap; each
line in it goes to :func:`parse_line`, the reference: a plain tab split,
falling back to a quote-aware whitespace tokenizer so hand-written fixtures
parse too. Both routes give the same triple, the same malformed-reason code,
the same lint counts and the same line numbers; ``tests/test_parser_fast.py``
checks that line by line. Both read a literal with the one literal parser,
which spells the N-Triples literal grammar once: one quote pattern finds the
closing quote (the tokenizer uses it too) and one escape pattern decodes the
body.

The :class:`Projection` is the per-stream table from predicate token to the
predicate's term, whether it is nonstandard, two count cells, one for mid
subjects and one for the rest, decided once per distinct predicate and
subject kind by the consumers' ``reads(predicate, mid_subject)``, and a copy
buffer. A matched line that no consumer reads is still validated whole (the
predicate's lint and ``strict_ids``, and the literal parser on any literal
the regex does not build), then counted in its cell instead of built; the
consumers get the non-zero cells once, from :meth:`Projection.tallies`.
Lines in the gaps are always built in full, so projection never changes
which lines are malformed or any lint. A stream parsed without one gets a
Projection that reads everything.

Copy is an extra action beside count and build, for a consumer that wants
a predicate's lines as text, as a materialized slice does. Where the
projection's ``copy(predicate)`` gives a buffer, :func:`parse_blocks`
appends each well-formed line of that predicate to it, in input order: as
it was read when the regex matched it without its literal-parser group,
which makes the line exactly what :func:`serialize` gives back, and
otherwise as the :func:`serialize` text of the built triple. The line is
then counted or built exactly as it would be without a buffer, except that
a copied line whose text must come from :func:`serialize` is built, never
counted.

Parsing is pure per line. Callers may split a file at line boundaries,
parse partitions independently, and merge the resulting reports in partition
order (see :meth:`ParseReport.merge`).
"""

from __future__ import annotations

import gzip
import io
import os
import re
import stat
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import islice
from typing import IO, Callable, Iterable, Iterator, Union

from .model import (
    DEFAULT_NAMESPACE,
    ExternalIri,
    IdPath,
    Literal,
    Mid,
    NodeRef,
    Triple,
    normalize_iri,
    to_iri,
)

GZIP_MAGIC = b"\x1f\x8b"

# Malformed-line reason codes, kept short and stable for reports.
FIELD_COUNT = "field-count"
MISSING_TERMINATOR = "missing-terminator"
UNBALANCED_QUOTES = "unbalanced-quotes"
UNBALANCED_BRACKETS = "unbalanced-brackets"
LITERAL_POSITION = "literal-position"
BLANK_NODE = "blank-node"
BAD_TERM = "bad-term"
BAD_LITERAL_SUFFIX = "bad-literal-suffix"
EMPTY_IRI = "empty-iri"
NONSTANDARD_ID = "nonstandard-id"


@dataclass(frozen=True)
class ParserConfig:
    """Knobs for one parsing run.

    namespace: prefix mapped onto slash notation (mirrors with other
    prefixes stay readable by overriding it).
    strict_ids: reject lines whose Freebase identifiers fall outside the
    canonical [0-9a-z_] alphabet instead of merely counting them.
    """

    namespace: str = DEFAULT_NAMESPACE
    strict_ids: bool = False


DEFAULT_CONFIG = ParserConfig()


class MalformedLineError(ValueError):
    """A single line that is not a well-formed triple. Never fatal to a stream."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(reason if not detail else f"{reason}: {detail}")
        self.reason = reason


class StreamAbortedError(IOError):
    """Unrecoverable I/O failure mid-stream; carries the partial report."""

    def __init__(self, report: "ParseReport", cause: BaseException):
        super().__init__(f"stream aborted after {report.lines_read} lines: {cause}")
        self.report = report
        self.cause = cause

    def __reduce__(self):
        # Rebuilt from both arguments, so a worker process can send it back.
        return type(self), (self.report, self.cause)


@dataclass
class ParseReport:
    """Counts for one parsed stream (or one partition of it).

    The count fields form a commutative monoid under addition with
    ``ParseReport()`` as identity. The error sample is positional: it holds
    the first ``max_errors`` (line_number, reason) pairs in stream order, so
    partition reports must be merged in partition order for line numbers to
    stay global.
    """

    lines_read: int = 0
    triples_ok: int = 0
    lines_malformed: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)
    max_errors: int = 20
    lint: Counter = field(default_factory=Counter)

    def record_ok(self) -> None:
        self.lines_read += 1
        self.triples_ok += 1

    def record_malformed(self, line_number: int, reason: str) -> None:
        self.lines_read += 1
        self.lines_malformed += 1
        if len(self.errors) < self.max_errors:
            self.errors.append((line_number, reason))

    def merge(self, other: "ParseReport") -> "ParseReport":
        """Combine with the report of the partition that follows this one.

        Count fields add; the follower's line numbers are shifted by this
        report's ``lines_read`` so the sample stays globally numbered.
        """
        max_errors = max(self.max_errors, other.max_errors)
        errors = list(self.errors)
        for line_number, reason in other.errors:
            errors.append((line_number + self.lines_read, reason))
        errors.sort()
        return ParseReport(
            lines_read=self.lines_read + other.lines_read,
            triples_ok=self.triples_ok + other.triples_ok,
            lines_malformed=self.lines_malformed + other.lines_malformed,
            errors=errors[:max_errors],
            max_errors=max_errors,
            lint=self.lint + other.lint,
        )

    def to_dict(self) -> dict:
        return {
            "lines_read": self.lines_read,
            "triples_ok": self.triples_ok,
            "lines_malformed": self.lines_malformed,
            "first_errors": [list(e) for e in self.errors],
            "lint": {k: self.lint[k] for k in sorted(self.lint)},
        }


# --- literal escape handling -------------------------------------------------

_SIMPLE_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


# One escape: a backslash and the 4 or 8 ASCII hex digits of a ``\u``/``\U``
# escape, or else the one character after it. ``int`` alone would also take
# signs, underscores, spaces and non-ASCII digits.
_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL)


def unescape_literal(raw: str) -> tuple[str, int]:
    """Decode N-Triples escapes. Returns (text, count of unknown escapes).

    Unknown or truncated escapes, and ``\\u``/``\\U`` escapes that are not
    exactly 4 or 8 hex digits naming a Unicode scalar value (surrogates and
    values past U+10FFFF name no character UTF-8 can encode), are preserved
    verbatim rather than dropped; the count lets the stream surface them as
    lint. A lone backslash at the end is kept and not counted.
    """
    if "\\" not in raw:
        return raw, 0
    unknown = 0

    def decode(escape: re.Match) -> str:
        nonlocal unknown
        short, long, code = escape.groups()
        if code is None:
            value = int(short or long, 16)
            if value <= 0x10FFFF and not 0xD800 <= value <= 0xDFFF:
                return chr(value)
        elif code in _SIMPLE_ESCAPES:
            return _SIMPLE_ESCAPES[code]
        unknown += 1
        return escape[0]

    return _ESCAPE.sub(decode, raw), unknown


def escape_literal(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


# --- single-line parsing ------------------------------------------------------


# A quoted literal body: up to the first quote no backslash escapes. Unrolled,
# every backslash taking the character after it, so it cannot backtrack
# catastrophically.
_QUOTED = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"', re.DOTALL).match
_BLANKS = re.compile(r"[ \t]*").match
_UNBLANKS = re.compile(r"[^ \t]*").match


def _tokenize(line: str) -> list[str]:
    """Split on runs of whitespace outside quoted literals.

    A trailing ``.`` glued to the last token is split off so forms like
    ``<s> <p> <o>.`` parse; inside quotes nothing splits.
    """
    tokens: list[str] = []
    start = _BLANKS(line).end()
    while start < len(line):
        end = start
        if line[start] == '"':
            quoted = _QUOTED(line, start)
            if quoted is None:
                raise MalformedLineError(UNBALANCED_QUOTES)
            end = quoted.end()
        end = _UNBLANKS(line, end).end()
        tokens.append(line[start:end])
        start = _BLANKS(line, end).end()
    if tokens and tokens[-1] != "." and tokens[-1].endswith("."):
        tokens[-1] = tokens[-1][:-1]
        tokens.append(".")
    return tokens


def _is_nonstandard(ref: NodeRef) -> bool:
    return isinstance(ref, (Mid, IdPath)) and not ref.is_standard


def _flag_nonstandard(config: ParserConfig, counters: Counter | None) -> None:
    if config.strict_ids:
        raise MalformedLineError(NONSTANDARD_ID)
    if counters is not None:
        counters[NONSTANDARD_ID] += 1


def _parse_iri_term(token: str, config: ParserConfig, counters: Counter | None) -> NodeRef:
    if not token.endswith(">") or len(token) < 2:
        raise MalformedLineError(UNBALANCED_BRACKETS)
    iri = token[1:-1]
    if not iri:
        raise MalformedLineError(EMPTY_IRI)
    if "<" in iri or ">" in iri:
        raise MalformedLineError(UNBALANCED_BRACKETS)
    ref = normalize_iri(iri, config.namespace)
    if _is_nonstandard(ref):
        _flag_nonstandard(config, counters)
    return ref


def _parse_literal_term(token: str, counters: Counter | None) -> Literal:
    quoted = _QUOTED(token)
    if quoted is None:
        raise MalformedLineError(UNBALANCED_QUOTES)
    lexical, unknown = unescape_literal(quoted[1])
    if unknown and counters is not None:
        counters["unknown-escape"] += unknown
    rest = token[quoted.end() :]
    if not rest:
        return Literal(lexical)
    if rest.startswith("@"):
        tag = rest[1:]
        if not tag or not all(c.isalnum() or c == "-" for c in tag):
            raise MalformedLineError(BAD_LITERAL_SUFFIX)
        return Literal(lexical, language=tag)
    if rest.startswith("^^<") and rest.endswith(">") and len(rest) > 4:
        return Literal(lexical, datatype=ExternalIri(rest[3:-1]))
    raise MalformedLineError(BAD_LITERAL_SUFFIX)


def _parse_term(
    token: str,
    position: str,
    config: ParserConfig,
    counters: Counter | None,
) -> NodeRef | Literal:
    head = token[0]
    if head == "<":
        return _parse_iri_term(token, config, counters)
    if head == '"':
        if position != "object":
            raise MalformedLineError(LITERAL_POSITION, f"literal in {position} position")
        return _parse_literal_term(token, counters)
    if token.startswith("_:"):
        raise MalformedLineError(BLANK_NODE)
    raise MalformedLineError(BAD_TERM, token[:40])


def parse_line(
    line: str,
    config: ParserConfig = DEFAULT_CONFIG,
    counters: Counter | None = None,
) -> Triple:
    """Parse one physical line (no line end) into a Triple.

    Raises MalformedLineError with a short reason code otherwise. Pure when
    ``counters`` is omitted; pass a Counter to collect lint tallies
    (nonstandard ids, unknown escapes). Splits on tabs, or tokenizes when the
    line is not in the tab convention, and builds every term through
    :func:`normalize_iri`. It is the reference the block scan is checked
    against, and the route of every line the scan does not match.
    """
    fields = line.split("\t")
    if len(fields) == 4 and fields[3] == ".":
        tokens = [f.strip(" ") for f in fields[:3]]
    else:
        tokens = _tokenize(line)
        if len(tokens) != 4:
            raise MalformedLineError(FIELD_COUNT, f"{len(tokens)} fields")
        if tokens[3] != ".":
            raise MalformedLineError(MISSING_TERMINATOR)
        tokens = tokens[:3]
    if not all(tokens):
        raise MalformedLineError(FIELD_COUNT, "empty field")
    subject = _parse_term(tokens[0], "subject", config, counters)
    predicate = _parse_term(tokens[1], "predicate", config, counters)
    obj = _parse_term(tokens[2], "object", config, counters)
    return Triple(subject, predicate, obj)


# Exactly the characters ``\s`` matches in a str pattern (those for which
# str.isspace() is true), spelled out: sre compiles a set of plain characters
# into one bitmap test, but tests a set holding a category item by item.
_SPACE = r"\t\n\x0b\x0c\r\x1c-\x1f \x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000"


@lru_cache(maxsize=16)
def _canonical_line(namespace: str) -> re.Pattern | None:
    """The block scan's line regex for one namespace, compiled once.

    Each IRI term is three groups: a mid suffix, a dotted path, or an IRI
    outside the namespace. Only standard ids match the first two (a
    2-segment ``m.x`` is a mid, as in normalize_iri). The outside IRI and
    the predicate hold no bracket and no whitespace; whitespace is the
    ``\\s`` set spelled out as ``_SPACE``, which scans faster. A literal object is
    either plain (no raw quote, tab or CR inside, and no backslash but one
    that starts a ``\\\\``, ``\\"``, ``\\n``, ``\\r`` or ``\\t`` escape,
    with an optional ASCII language tag or datatype) and built here, or any
    other token without a tab and not ending in a space, which equals the
    token the tab split gives and goes to the literal parser. Every term
    but that last group is written back by :func:`serialize` as it was
    read (:func:`escape_literal` writes exactly those five escapes, while
    ``\\b``, ``\\f``, ``\\'``, ``\\u`` and ``\\U`` come back otherwise), so a
    line matched without it is its own serialization. The plain body is
    unrolled, every backslash starting an escape, so it cannot backtrack
    catastrophically.

    The pattern is anchored as ``(?m)^...$`` and no class matches a
    newline, so every match of its ``finditer`` on a block is one whole
    line. None when the namespace holds a tab, bracket or newline, since the
    regex and the tab split could then disagree on where a term or line ends.
    """
    if any(c in namespace for c in "\t<>\n"):
        return None
    ns = re.escape(namespace)
    segment = "[0-9a-z_]+"
    term = rf"<(?:{ns}(?:m\.({segment})|({segment}(?:\.{segment}){{0,2}}))|(?!{ns})([^<>{_SPACE}]+))>"
    predicate = rf"(<[^<>{_SPACE}]+>)"
    body = r'[^"\\\t\n\r]*'
    plain = rf'"({body}(?:\\[\\"nrt]{body})*)"(?:@([A-Za-z0-9-]+)|\^\^<([^\t\n]+)>)?'
    literal = r'("(?:[^\t\n]*[^\t\n ])?)'
    return re.compile(rf"(?m)^{term}\t{predicate}\t(?:{term}|{plain}|{literal})\t\.$")


def _matched_term(mid: str | None, path: str | None, iri: str) -> NodeRef:
    if mid is not None:
        return Mid(mid)
    if path is not None:
        return IdPath(tuple(path.split(".")))
    return ExternalIri(iri)


Tally = tuple[NodeRef, bool, int]  # (predicate, mid_subject, lines counted)


def _reads_everything(predicate: NodeRef, mid_subject: bool) -> bool:
    return True


class Projection(dict):
    """Per-stream table: predicate token -> (predicate, nonstandard, cell, cell, copy).

    ``reads(predicate, mid_subject)`` says whether some consumer reads the
    subject and object of that predicate's triples whose subject is (or is
    not) a mid; it is asked once per distinct token and subject kind. The
    entry holds the predicate term, whether it is a nonstandard id, and one
    cell for other subjects and one for mids: a one-item list that counts
    the lines nobody reads, or None where they are built in full. Without
    ``reads`` every line is built.

    ``copy(predicate)`` returns the list that takes the text of that
    predicate's lines, or None. The list is independent of the cells:
    :func:`parse_blocks` appends each well-formed line of a predicate with a
    list to it, and also counts or yields the line as ``reads`` decides, but
    builds any line whose text must come from :func:`serialize`. ``copy`` is
    asked once per distinct token, and again for each built line between
    matches, so it must give the same list for the same predicate.
    """

    def __init__(
        self,
        reads: Callable[[NodeRef, bool], bool] = _reads_everything,
        namespace: str = DEFAULT_NAMESPACE,
        copy: Callable[[NodeRef], list[str] | None] | None = None,
    ):
        super().__init__()
        self.reads = reads
        self.namespace = namespace
        self.copy = copy

    def __missing__(self, token: str) -> tuple:
        predicate = _parse_iri_term(token, ParserConfig(self.namespace), None)
        nonstandard = _is_nonstandard(predicate)
        plain, mid = (None if self.reads(predicate, kind) else [0] for kind in (False, True))
        buffer = self.copy(predicate) if self.copy is not None else None
        entry = self[token] = (predicate, nonstandard, plain, mid, buffer)
        return entry

    def tallies(self) -> list[Tally]:
        """The non-zero counts, in the order their predicates were first seen."""
        return [
            (predicate, mid, cell[0])
            for predicate, _, *cells, _ in self.values()
            for mid, cell in zip((False, True), cells)
            if cell is not None and cell[0]
        ]


def _matched_triple(found: re.Match, predicate: NodeRef, literal: Literal | None) -> Triple:
    """The triple of a line the canonical regex matched.

    ``literal`` is the parsed literal-parser group, if the line has one.
    """
    (s_mid, s_path, s_iri, _, o_mid, o_path, o_iri, lexical, language, datatype, _) = found.groups()
    subject = _matched_term(s_mid, s_path, s_iri)
    if lexical is not None:
        if "\\" in lexical:
            lexical = unescape_literal(lexical)[0]
        obj: NodeRef | Literal = Literal(
            lexical, language, ExternalIri(datatype) if datatype is not None else None
        )
    elif literal is not None:
        obj = literal
    else:
        obj = _matched_term(o_mid, o_path, o_iri)
    return Triple(subject, predicate, obj)


def serialize(triple: Triple, namespace: str = DEFAULT_NAMESPACE) -> str:
    """Render a Triple back to one dump-convention line (tab-separated, no newline).

    parse_line(serialize(t)) == t for every well-formed triple, but the line
    equals its source only when the source was canonical: a space-separated
    line comes out tab-separated, a decodable escape such as ``"\\u0041b"``
    comes out decoded (``"Ab"``), and an escape kept verbatim as
    ``unknown-escape`` such as ``"x\\uD800"`` comes out with its backslash
    escaped (``"x\\\\uD800"``), which re-reads to the same triple but
    without the lint. A Literal keeps no raw escapes to write back.
    """
    parts = [
        "<" + to_iri(triple.subject, namespace) + ">",
        "<" + to_iri(triple.predicate, namespace) + ">",
    ]
    obj = triple.object
    if isinstance(obj, Literal):
        text = '"' + escape_literal(obj.lexical) + '"'
        if obj.language is not None:
            text += "@" + obj.language
        elif obj.datatype is not None:
            text += "^^<" + obj.datatype.iri + ">"
        parts.append(text)
    else:
        parts.append("<" + to_iri(obj, namespace) + ">")
    parts.append(".")
    return "\t".join(parts)


# --- stream parsing -----------------------------------------------------------

Source = Union[str, os.PathLike, IO[bytes], Iterable[bytes], Iterable[str]]


# How a dump path can be read (see source_kind).
PLAIN = "plain"
GZIP = "gzip"
STREAM = "stream"


def _starts_gzip(stream: IO[bytes]) -> bool:
    """Whether a buffered stream starts with the gzip magic; peeks, consuming nothing."""
    return stream.peek(2)[:2] == GZIP_MAGIC  # type: ignore[attr-defined]


def source_kind(path: str | os.PathLike) -> str:
    """Classify a dump path for partition planning: PLAIN, GZIP or STREAM.

    A regular file is PLAIN or GZIP by its first two bytes; those are the
    sources that can be split into byte ranges. ``-`` (standard input) and
    anything else (a pipe, a device) is a STREAM: it can be read only once,
    front to back, so it is left unopened here. Raises OSError when the path
    does not exist.
    """
    if os.fspath(path) == "-" or not stat.S_ISREG(os.stat(path).st_mode):
        return STREAM
    with open(path, "rb") as probe:
        return GZIP if _starts_gzip(probe) else PLAIN


# Bytes per block of whole lines at most, unless one line is longer. A block
# is decoded and scanned at once, and a worker's peak memory grows with it:
# 64 KiB blocks cost about 10 MB more than 16 KiB ones.
_BLOCK = 16 * 1024
# Decompressed bytes asked of each read of a gzip file, and compressed bytes
# read from the file at a time, at most. Every worker must use the same read
# loop, since a gzip range owns lines by where those reads end. The compressed
# cap is no more than any Python's gzip module asks for (8 KiB up to 3.11,
# 128 KiB after), so where the reads end does not depend on the interpreter.
_INFLATE_READ = 256 * 1024
_COMPRESSED_READ = 8 * 1024

# Where a chunk of a range's stream lies: before the range, in it, or past it.
_BEFORE, _OWNED, _AFTER = range(3)


class _CappedReads:
    """A binary stream whose reads return at most ``_COMPRESSED_READ`` bytes;
    ``offset`` counts the bytes returned, for a file or a pipe alike."""

    def __init__(self, raw: IO[bytes]):
        self.raw = raw
        self.offset = 0

    def read(self, size: int = -1) -> bytes:
        data = self.raw.read(_COMPRESSED_READ if size < 0 else min(size, _COMPRESSED_READ))
        self.offset += len(data)
        return data


def read_blocks(
    source: str | os.PathLike | IO[bytes],
    start: int = 0,
    end: int = -1,
) -> Iterator[bytes]:
    """Yield, in blocks, exactly the lines a byte range of ``source`` owns.

    A block is whole lines, each ending in ``\\n`` except the stream's last,
    cut at line ends to at most ``_BLOCK`` bytes unless one line is longer.
    ``source`` is a path or a binary stream, opened once and peeked at once,
    so a pipe loses no bytes; it is gzip when it starts with the gzip magic,
    as :func:`source_kind` decides. ``end == -1`` reads all of it. Otherwise
    ``source`` is a regular file's path, and a plain range owns the lines that
    begin in ``[start, end)``. A gzip range counts compressed bytes: the
    stream is inflated from byte 0, a decompressed read belongs to the range
    holding the compressed offset after it, and a line to the range of the
    read that gave its first byte. A whole gzip stream runs the same read
    loop as a range. Gzip is read with ``read1``, which returns every byte
    inflated before a truncation or CRC error is raised.
    """
    with ExitStack() as stack:
        if isinstance(source, (str, os.PathLike)):
            source = stack.enter_context(open(source, "rb"))
        elif not hasattr(source, "peek"):
            source = io.BufferedReader(source)  # type: ignore[arg-type]
        chunks = _gzip_chunks if _starts_gzip(source) else _chunks
        yield from _owned_blocks(chunks(source, start, end))


def _gzip_chunks(stream: IO[bytes], start: int, end: int) -> Iterator[tuple[bytes, int]]:
    """A gzip stream's decompressed reads, each placed by the compressed offset after it."""
    raw = _CappedReads(stream)
    with gzip.GzipFile(fileobj=raw) as unzipped:  # type: ignore[arg-type]
        for chunk in iter(partial(unzipped.read1, _INFLATE_READ), b""):
            offset = raw.offset
            yield chunk, _BEFORE if offset <= start else _OWNED if end == -1 or offset <= end else _AFTER


def _chunks(stream: IO[bytes], start: int, end: int) -> Iterator[tuple[bytes, int]]:
    """The reads of a plain range (or of a whole stream), each with where it lies."""
    if start > 0:
        stream.seek(start - 1)
        yield stream.read(1), _BEFORE  # whether ``start`` begins a line
    position = start
    while end == -1 or position < end:
        chunk = stream.read1(_BLOCK if end == -1 else min(_BLOCK, end - position))  # type: ignore[attr-defined]
        if not chunk:
            return
        position += len(chunk)
        yield chunk, _OWNED
    for chunk in iter(partial(stream.read1, _BLOCK), b""):  # type: ignore[attr-defined]
        yield chunk, _AFTER


def _owned_blocks(chunks: Iterable[tuple[bytes, int]]) -> Iterator[bytes]:
    """Blocks of the whole lines whose first byte lies in an ``_OWNED`` chunk.

    Every whole line of a chunk is yielded before the next chunk is read, so
    a read error loses only the line in progress. Past the range the reader
    only finishes the line it owns.
    """
    # Pieces of the owned line begun so far; None inside a line begun before
    # the range. Joined once the line ends, so a long line costs linear time.
    pending: list[bytes] | None = []
    for chunk, where in chunks:
        if where == _BEFORE:
            pending = [] if chunk.endswith(b"\n") else None
            continue
        if where == _AFTER:
            if not pending:
                return
            cut = chunk.find(b"\n") + 1
            pending.append(chunk[:cut] if cut else chunk)
            if cut:
                break
            continue
        if pending is None:
            cut = chunk.find(b"\n") + 1
            if not cut:
                continue
            chunk, pending = chunk[cut:], []
            if not chunk:
                continue
        pending.append(chunk)
        if b"\n" not in chunk:
            continue
        data = b"".join(pending)
        stop = data.rfind(b"\n") + 1
        pending = [data[stop:]] if stop < len(data) else []
        begin = 0
        while stop - begin > _BLOCK:
            cut = data.rfind(b"\n", begin, begin + _BLOCK) + 1 or data.find(b"\n", begin + _BLOCK) + 1
            yield data[begin:cut]
            begin = cut
        if stop > begin:
            yield data[begin:stop]
    if pending:
        yield b"".join(pending)


def _line_blocks(lines: Iterable[bytes] | Iterable[str]) -> Iterator[bytes | str]:
    """An iterable of lines as blocks, each item one line without its line end."""
    items = iter(lines)
    while group := list(islice(items, 256)):
        if isinstance(group[0], bytes):
            yield b"".join([line.rstrip(b"\r\n") + b"\n" for line in group])
        else:
            yield "".join([line.rstrip("\r\n") + "\n" for line in group])


def _decode(raw: bytes, report: ParseReport) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        report.lint["invalid-utf8-lines"] += 1
        return raw.decode("utf-8", errors="replace")


def _decode_block(block: bytes, report: ParseReport) -> str:
    """A block as text; one that is not UTF-8 is decoded line by line, for the lint."""
    try:
        return block.decode("utf-8")
    except UnicodeDecodeError:
        return "\n".join([_decode(line, report) for line in block.split(b"\n")])


# The CRs that end a line with its ``\\n`` (N-Triples' ``EOL ::= [#xD#xA]+``).
_LINE_END_CRS = re.compile(r"\r+\n").sub


def parse_blocks(
    blocks: Iterable[bytes | str],
    report: ParseReport,
    config: ParserConfig = DEFAULT_CONFIG,
    projection: Projection | None = None,
) -> Iterator[list[Triple]]:
    """Parse a stream given as blocks of whole lines; yield each block's triples.

    A block (see :func:`read_blocks`) is ended with a ``\\n`` if it is not,
    stripped of the CRs before each ``\\n``, and scanned with one
    ``finditer`` of the canonical regex. A matched line is validated (its
    predicate's lint and ``strict_ids``, and the literal parser on a literal
    the regex's plain group does not take), then counted if the projection
    counts it, else built from its match. A literal needs no validating when
    the plain group takes it: its only escapes are ``\\\\``, ``\\"``,
    ``\\n``, ``\\r`` and ``\\t``, which are never unknown and which
    :func:`serialize` writes back as read. Lines between matches go through
    :func:`parse_line` and are always built. A line of a predicate with a
    buffer is appended there too, as it was read when the regex matched it
    without its literal-parser group, else as the :func:`serialize` text of
    its triple, which is then built, at its place in the scan, so each
    buffer keeps input order. The results equal a :func:`parse_line` call
    per line. Without a ``projection`` every line is built. Each block
    yields its triples, an empty list when every line was counted, so a
    caller can empty the buffers block by block.
    ``report`` takes the block's counts before its triples are yielded, and
    an I/O failure while reading raises StreamAbortedError with the report
    of every line before it.
    """
    pattern = _canonical_line(config.namespace)
    scan = pattern.finditer if pattern is not None else lambda text: ()
    if projection is None:
        projection = Projection(namespace=config.namespace)
    lint = report.lint
    lines = 0  # in the blocks before this one
    try:
        for block in blocks:
            text = block if isinstance(block, str) else _decode_block(block, report)
            if not text:
                continue
            if not text.endswith("\n"):
                text += "\n"
            if "\r" in text:
                text = _LINE_END_CRS("\n", text)
            triples: list[Triple] = []
            malformed = report.lines_malformed
            base = lines  # lines before ``mark``, a line start at or before ``pos``
            mark = pos = 0
            for found in scan(text):
                start, end = found.span()
                if start != pos:
                    base += text.count("\n", mark, pos)
                    mark = start
                    base = _parse_lines(text[pos : start - 1], base, report, config, projection, triples)
                pos = end + 1
                predicate, nonstandard, plain, mid, buffer = projection[found[4]]
                literal = found[11]
                try:
                    if nonstandard:
                        _flag_nonstandard(config, lint)
                    if literal is not None:
                        literal = _parse_literal_term(literal, lint)
                except MalformedLineError as exc:
                    base += text.count("\n", mark, start)
                    mark = start
                    report.record_malformed(base + 1, exc.reason)
                    continue
                cell = mid if found[1] is not None else plain
                if cell is not None and (literal is None or buffer is None):
                    cell[0] += 1
                    if buffer is not None:
                        buffer.append(found[0])
                    continue
                triple = _matched_triple(found, predicate, literal)
                if buffer is not None:
                    buffer.append(found[0] if literal is None else serialize(triple, config.namespace))
                triples.append(triple)
            if pos < len(text):
                base += text.count("\n", mark, pos)
                _parse_lines(text[pos:-1], base, report, config, projection, triples)
            count = text.count("\n")
            lines += count
            ok = count - (report.lines_malformed - malformed)
            report.lines_read += ok
            report.triples_ok += ok
            yield triples
    except (OSError, EOFError) as exc:
        raise StreamAbortedError(report, exc) from exc


def _parse_lines(
    text: str,
    base: int,
    report: ParseReport,
    config: ParserConfig,
    projection: Projection,
    triples: list[Triple],
) -> int:
    """Parse the ``\\n``-separated lines of ``text``, numbered from ``base + 1``.

    Malformed lines are recorded; each other line's triple is appended to
    ``triples``, and its :func:`serialize` text to its copy buffer, if any.
    Returns the number of the last line.
    """
    copy = projection.copy
    for base, line in enumerate(text.split("\n"), base + 1):
        try:
            triple = parse_line(line, config, report.lint)
        except MalformedLineError as exc:
            report.record_malformed(base, exc.reason)
            continue
        buffer = copy(triple.predicate) if copy is not None else None
        if buffer is not None:
            buffer.append(serialize(triple, config.namespace))
        triples.append(triple)
    return base


def iter_triples(
    source: Source,
    report: ParseReport,
    config: ParserConfig = DEFAULT_CONFIG,
    projection: Projection | None = None,
) -> Iterator[Triple]:
    """Yield the well-formed triples of ``source``, tallying into ``report``.

    ``source`` may be a path (gzip detected by magic bytes), a binary file
    object, or any iterable of lines (bytes or str; a newline inside an item
    ends a line there). Malformed lines are counted and sampled, never fatal;
    an I/O failure raises StreamAbortedError with the partial report
    attached. ``projection`` is passed to :func:`parse_blocks`; the lines it
    counts are recorded as well-formed but not yielded.
    """
    if isinstance(source, (str, os.PathLike)) or hasattr(source, "read"):
        blocks = read_blocks(source)  # type: ignore[arg-type]
    else:
        blocks = _line_blocks(source)  # type: ignore[arg-type]
    for triples in parse_blocks(blocks, report, config, projection):
        yield from triples


def stream_parse(
    source: Source,
    sink: Callable[[Triple], None],
    config: ParserConfig = DEFAULT_CONFIG,
    max_errors: int = 20,
) -> ParseReport:
    """Parse every line of ``source`` (see :func:`iter_triples`), feeding ``sink``."""
    report = ParseReport(max_errors=max_errors)
    for triple in iter_triples(source, report, config):
        sink(triple)
    return report
