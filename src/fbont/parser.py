"""Streaming, fault-tolerant reader for N-Triples dumps.

Built for multi-billion-line inputs: one pass, constant memory, malformed
lines counted and sampled instead of aborting the run.

A stream has two parse routes to one answer. The dump convention is one
tab-separated statement per line (``<s>\\t<p>\\t<o>\\t.``), and nearly every
subject and object is a canonical ``m.<suffix>`` mid, a 1-3 segment dotted
path under the namespace, an IRI outside it, or a literal. Every stream
comes in one way and is parsed a block at a time: :func:`read_blocks`
reads a path or a binary stream (a plain or gzip range, a whole file,
standard input) as bytes blocks of whole lines, at most 16 KiB each, and
:func:`parse_blocks` decodes a block at once, drops the CRs before each
``\\n`` (N-Triples counts them in the line end) and scans it with one
``findall`` of a compiled regex per namespace that recognizes such lines
and catches any other line whole, so it yields one row per line:

- the predicate field is read as a token, any text without a tab between
  brackets, and resolves through the stream's :class:`Projection` entry,
  which checks each distinct token once against the canonical predicate
  grammar (no bracket and no whitespace inside) and notes a nonstandard id,
  whose lint is counted again on every line;
- a line that is only counted costs its step of the scan, the entry lookup
  and an increment; the block is split into lines, once, only for a line
  that is built, copied or sent to :func:`parse_line`;
- a built line is split on its tabs and built as parse_line builds it, each
  IRI term by :func:`normalize_iri` (a mid subject from its scanned suffix)
  and a literal by the literal parser; no term of it carries lint, since a
  literal is taken only when its escapes cannot be unknown.

Every line the scan takes is thus well-formed, and :func:`parse_line`, the
reference, is the only code that rejects a line. It takes each line the
scan catches whole, whose predicate token the entry rejects, or, under
``strict_ids``, whose predicate is a nonstandard id. It splits a line on
its tabs and falls back to a quote-aware whitespace tokenizer, so
hand-written fixtures parse too.
A predicate token missing its closing bracket can run past a line end and
take two lines as one row; a block that yields fewer rows than it has
lines is scanned again one line at a time. Both routes give the same
triple, the same malformed-reason code, the same lint counts and the same
line numbers; ``tests/test_parser_fast.py`` checks that line by line. Both
build every literal with the one literal parser, which spells the N-Triples
literal grammar once: one quote pattern finds the closing quote (the
tokenizer uses it too) and one escape pattern decodes the body.

The :class:`Projection` is the per-stream table from predicate token to the
predicate's term, whether it is nonstandard, a count cell, two read flags,
one for mid subjects and one for the rest, decided once per distinct
predicate and subject kind by the consumers' ``reads(predicate,
mid_subject)``, and a copy buffer. Every well-formed line adds 1 to its
predicate's cell, matched or not, read or not; the consumers get the
non-zero counts once, from :meth:`Projection.tallies`. A scanned line that
no consumer reads is well-formed all the same and adds its predicate's
lint, but is not built. Lines that go to :func:`parse_line` are always
built in full, so projection never changes which lines are malformed or
any lint. A stream parsed without one gets a Projection that reads
everything.

Copy is an extra action beside count and build, for a consumer that wants
a predicate's lines as text, as a materialized slice does. Where the
projection's ``copy(predicate)`` gives a buffer, :func:`parse_blocks`
appends each well-formed line of that predicate to it, in input order, as
it was read, less its line-end CRs. The line is then counted and built
exactly as it would be without a buffer.

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
from typing import IO, Callable, Iterable, Iterator

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
        if config.strict_ids:
            raise MalformedLineError(NONSTANDARD_ID)
        if counters is not None:
            counters[NONSTANDARD_ID] += 1
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
    against, and the route of every line the scan does not take itself.
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


@lru_cache(maxsize=32)
def _canonical_line(namespace: str) -> re.Pattern:
    """The canonical line regex for one namespace, compiled once, for ``findall`` on a block.

    Each IRI term is a mid suffix, a dotted path, or an IRI outside the
    namespace. Only standard ids match the first two (a 2-segment ``m.x`` is
    a mid, as in normalize_iri). The outside IRI holds no bracket and no
    whitespace; whitespace is the ``\\s`` set spelled out as ``_SPACE``,
    which scans faster. The predicate is any token without a tab, which sre
    scans as one tight loop; :class:`Projection` checks each distinct token
    once against the same class as the outside IRI. A literal object is
    plain: no raw quote, tab or CR inside, and no backslash but one that
    starts a ``\\\\``, ``\\"``, ``\\n``, ``\\r`` or ``\\t`` escape, with an
    optional ASCII language tag or datatype; the literal parser takes it,
    and none of its escapes can be unknown. The body is unrolled, every
    backslash starting an escape, so it cannot backtrack catastrophically.

    The pattern is MULTILINE, and a line it does not match is caught whole
    by a last alternative, so it yields one row per line of three groups:
    (subject mid suffix, predicate token, caught line), each empty where it
    did not match. A matched line is four tab-separated fields, the last
    ``.``, and well-formed unless :class:`Projection` rejects its predicate
    token, or ``strict_ids`` its id. Only a predicate token holding a
    newline can make a match run past a line end. Every line is caught when
    the namespace holds a tab, bracket or newline, since the regex and the
    tab split could then disagree on where a term or line ends.
    """
    if any(c in namespace for c in "\t<>\n"):
        return re.compile(r"^()()(.*)$", re.MULTILINE)

    ns = re.escape(namespace)
    segment = "[0-9a-z_]+"
    path = rf"{segment}(?:\.{segment}){{0,2}}"
    iri = rf"[^<>{_SPACE}]+"

    def term(mid: str = segment) -> str:
        return rf"<(?:{ns}(?:m\.{mid}|{path})|(?!{ns}){iri})>"

    body = r'[^"\\\t\n\r]*'
    plain = rf'"{body}(?:\\[\\"nrt]{body})*"(?:@[A-Za-z0-9-]+|\^\^<[^\t\n]+>)?'
    line = rf"{term(f'({segment})')}\t(<[^\t]+>)\t(?:{term()}|{plain})\t\."
    return re.compile(rf"^(?:{line}|(.*))$", re.MULTILINE)


Tally = tuple[NodeRef, int]  # (predicate, well-formed lines)


def _reads_everything(predicate: NodeRef, mid_subject: bool) -> bool:
    return True


class Projection(dict):
    """Per-stream table: predicate token -> (predicate, nonstandard, cell, plain, mid, copy) or None.

    The entry holds the predicate term, whether it is a nonstandard id, a
    one-item list that counts every well-formed line of the token, read or
    not, and two flags, one for other subjects and one for mids: whether
    ``reads(predicate, mid_subject)`` says some consumer reads the subject
    and object of that predicate's triples whose subject is (or is not) a
    mid, so that a matched line of that kind is built. Without ``reads``
    every line is built.

    ``copy(predicate)`` returns the list that takes the text of that
    predicate's lines, or None. :func:`parse_blocks` appends each
    well-formed line of a predicate with a list to it, and also counts it,
    and builds it as ``reads`` decides. ``reads`` and ``copy`` are asked
    once per distinct token.

    The scan's predicate field is any token without a tab, so each distinct
    token is checked once: a token holding a bracket or whitespace inside
    its brackets (or the empty token of a line the scan caught) gets None,
    which sends its lines to :func:`parse_line`, and ``reads`` and ``copy``
    are not asked for it; under ``strict_ids`` a nonstandard predicate's
    lines go there too. A line parse_line built finds its entry under
    ``"<" + to_iri(predicate, namespace) + ">"``, which is its token, since
    ``to_iri(normalize_iri(iri, namespace), namespace) == iri``; where that
    token has None, under the predicate term itself.
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

    def __missing__(self, key: str | NodeRef) -> tuple | None:
        if isinstance(key, str):
            if re.fullmatch(rf"<[^<>{_SPACE}]+>", key) is None:
                self[key] = None
                return None
            predicate = normalize_iri(key[1:-1], self.namespace)
        else:
            predicate = key
        nonstandard = _is_nonstandard(predicate)
        plain, mid = (self.reads(predicate, kind) for kind in (False, True))
        buffer = self.copy(predicate) if self.copy is not None else None
        entry = self[key] = (predicate, nonstandard, [0], plain, mid, buffer)
        return entry

    def tallies(self) -> list[Tally]:
        """The non-zero counts, in the order their predicates were first seen."""
        return [(entry[0], entry[2][0]) for entry in self.values() if entry is not None and entry[2][0]]


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
# 64 KiB blocks raise a worker's peak RSS from about 15 MB to 20-23 MB.
_BLOCK = 16 * 1024
# Decompressed bytes asked of each read of a gzip file, and compressed bytes
# read from the file at a time, at most. Every worker must use the same read
# loop, since a gzip range owns lines by where those reads end. The compressed
# cap is no more than any Python's gzip module asks for (8 KiB up to 3.11,
# 128 KiB after), so where the reads end does not depend on the interpreter
# while 8 KiB inflates to at most 120 KiB (3.10 and 3.11 split a larger output
# and read its input again). Each read allocates its whole size: under glibc's
# 128 KiB mmap threshold, from the heap, not from fresh pages that fault.
_INFLATE_READ = 120 * 1024
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
    blocks: Iterable[bytes],
    report: ParseReport,
    config: ParserConfig = DEFAULT_CONFIG,
    projection: Projection | None = None,
) -> Iterator[list[Triple]]:
    """Parse a stream given as bytes blocks of whole lines; yield each block's triples.

    A block (see :func:`read_blocks`) is decoded, ended with a ``\\n`` if it
    is not, stripped of the CRs before each ``\\n`` and scanned with one
    ``findall`` of the canonical regex, one row per line, numbered on from the
    previous block's; a block with fewer rows than lines (a predicate token
    ran past a line end) is scanned again line by line. A line the regex
    matches, whose projection entry accepts its predicate token (and, under
    ``strict_ids``, its id), is well-formed: it adds its predicate's lint, is
    counted in the entry and, if the projection reads its kind, is split on
    its tabs and built as parse_line builds it, a mid subject from its
    scanned suffix. Any other line goes through :func:`parse_line`, the only
    code here that rejects a line; a well-formed one is counted too, and
    always built. The block is split into lines at most once, and only for
    a line that is built, copied or sent to parse_line. A well-formed line
    of a predicate with a buffer is appended there too, as it was read (less
    its line-end CRs), in input order. The results equal a
    :func:`parse_line` call per line. Without a ``projection`` every line is
    built. Each block yields its triples, an empty list when none was built,
    so a caller can empty the buffers block by block. ``report`` takes the
    block's counts before its triples are yielded; an I/O failure while
    reading raises StreamAbortedError with the report of every line before it.
    """
    scan = _canonical_line(config.namespace).findall
    if projection is None:
        projection = Projection(namespace=config.namespace)
    namespace = projection.namespace
    lint = report.lint
    lines = 0  # in the blocks before this one
    try:
        for block in blocks:
            text = _decode_block(block, report)
            if not text:
                continue
            if not text.endswith("\n"):
                text += "\n"
            if "\r" in text:
                text = _LINE_END_CRS("\n", text)
            count = text.count("\n")
            rows = scan(text, 0, len(text) - 1)
            texts = None  # the block's lines, split once, for the rows that need their text
            if len(rows) != count:  # a predicate token ran past a line end
                texts = text.split("\n")
                rows = [scan(line)[0] for line in texts[:count]]
            triples: list[Triple] = []
            malformed = report.lines_malformed
            for i, (mid_subject, token, line) in enumerate(rows):
                entry = projection[token]
                if entry is None or entry[1] and config.strict_ids:
                    if token:  # a canonical line but for its predicate token or id
                        if texts is None:
                            texts = text.split("\n")
                        line = texts[i]
                    try:
                        triple = parse_line(line, config, lint)
                    except MalformedLineError as exc:
                        report.record_malformed(lines + i + 1, exc.reason)
                        continue
                    token = "<" + to_iri(triple.predicate, namespace) + ">"
                    _, _, cell, _, _, buffer = projection[token] or projection[triple.predicate]
                else:
                    predicate, nonstandard, cell, plain, mid, buffer = entry
                    if nonstandard:
                        lint[NONSTANDARD_ID] += 1
                    triple = None
                    if mid if mid_subject else plain:
                        if texts is None:
                            texts = text.split("\n")
                        subject, _, obj, _ = texts[i].split("\t")
                        obj = normalize_iri(obj[1:-1], config.namespace) if obj[0] == "<" else _parse_literal_term(obj, lint)
                        subject = Mid(mid_subject) if mid_subject else normalize_iri(subject[1:-1], config.namespace)
                        triple = Triple(subject, predicate, obj)
                cell[0] += 1
                if buffer is not None:
                    if texts is None:
                        texts = text.split("\n")
                    buffer.append(texts[i])
                if triple is not None:
                    triples.append(triple)
            lines += count
            ok = count - (report.lines_malformed - malformed)
            report.lines_read += ok
            report.triples_ok += ok
            yield triples
    except (OSError, EOFError) as exc:
        raise StreamAbortedError(report, exc) from exc


def iter_triples(
    source: str | os.PathLike | IO[bytes],
    report: ParseReport,
    config: ParserConfig = DEFAULT_CONFIG,
    projection: Projection | None = None,
) -> Iterator[Triple]:
    """Yield the well-formed triples of ``source``, tallying into ``report``.

    ``source`` is a path or a binary stream, read by :func:`read_blocks`
    (gzip detected by magic bytes) and parsed by :func:`parse_blocks`.
    Malformed lines are counted and sampled, never fatal; an I/O failure
    raises StreamAbortedError with the partial report attached.
    ``projection`` counts every well-formed line, and a matched line whose
    kind it does not read is recorded as well-formed but not yielded.
    """
    for triples in parse_blocks(read_blocks(source), report, config, projection):
        yield from triples
