"""Streaming, fault-tolerant reader for N-Triples dumps.

Built for multi-billion-line inputs: one pass, constant memory, malformed
lines counted and sampled instead of aborting the run.

:func:`parse_line` has two routes to one answer. The dump convention is one
tab-separated statement per line (``<s>\\t<p>\\t<o>\\t.``), and nearly every
subject and object is a canonical ``m.<suffix>`` mid, a 1-3 segment dotted
path under the namespace, an IRI outside it, or a literal. One compiled
regex per namespace recognizes such lines:

- the subject and an IRI object are built directly: a canonical id carries
  no lint and an external IRI none either, so neither can fail;
- a literal without escapes or inner quotes is built directly too, and any
  other literal goes through the literal parser (escapes, suffix checks);
- the predicate resolves through a bounded memo of token -> (term,
  is-nonstandard); the ``nonstandard-id`` lint and the ``strict_ids``
  check are applied again on every line, hit or miss.

Every line the regex rejects goes to :func:`parse_line_reference`: a plain
tab split, falling back to a quote-aware whitespace tokenizer so
hand-written fixtures parse too. Both routes give the same triple, the same
malformed-reason code and the same lint counts; ``tests/test_parser_fast.py``
checks that line by line.

A caller whose consumers read only the predicate of most triples may pass a
:class:`Projection`: a per-stream memo from predicate token to two count
cells, one for mid subjects and one for the rest, decided once per distinct
predicate and subject kind by the consumers' ``reads(predicate,
mid_subject)``. A regex-route line that no consumer reads is still validated
whole (the predicate's lint and ``strict_ids``, a validate-only check of any
literal the regex does not build), then counted in its cell instead of
built: :func:`parse_line` returns None for it, and the consumers get the
non-zero cells once, from :meth:`Projection.tallies`. Lines that take the
reference route are always built in full, so projection never changes which
lines are malformed or any lint.

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
from dataclasses import dataclass, field
from functools import lru_cache
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


_HEX_DIGITS = re.compile("[0-9A-Fa-f]+").fullmatch


def _code_point(hexpart: str) -> int | None:
    """The Unicode scalar value a ``\\u``/``\\U`` escape's digits name, or None.

    Only ASCII hex digits count (``int`` would also take signs, underscores,
    spaces and non-ASCII digits), and surrogates and values past U+10FFFF
    name no character that UTF-8 can encode.
    """
    if not _HEX_DIGITS(hexpart):
        return None
    value = int(hexpart, 16)
    if value > 0x10FFFF or 0xD800 <= value <= 0xDFFF:
        return None
    return value


def unescape_literal(raw: str) -> tuple[str, int]:
    """Decode N-Triples escapes. Returns (text, count of unknown escapes).

    Unknown or truncated escapes, and ``\\u``/``\\U`` escapes that are not
    exactly 4 or 8 hex digits naming a Unicode scalar value, are preserved
    verbatim rather than dropped; the count lets the stream surface them as
    lint.
    """
    if "\\" not in raw:
        return raw, 0
    out: list[str] = []
    unknown = 0
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch != "\\" or i + 1 >= n:
            out.append(ch)
            i += 1
            continue
        code = raw[i + 1]
        if code in _SIMPLE_ESCAPES:
            out.append(_SIMPLE_ESCAPES[code])
            i += 2
            continue
        if code in ("u", "U"):
            width = 4 if code == "u" else 8
            hexpart = raw[i + 2 : i + 2 + width]
            value = _code_point(hexpart) if len(hexpart) == width else None
            if value is not None:
                out.append(chr(value))
                i += 2 + width
                continue
        out.append(raw[i : i + 2])
        unknown += 1
        i += 2
    return "".join(out), unknown


def escape_literal(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


# --- single-line parsing ------------------------------------------------------


def _tokenize(line: str) -> list[str]:
    """Split on runs of whitespace outside quoted literals.

    A trailing ``.`` glued to the last token is split off so forms like
    ``<s> <p> <o>.`` parse; inside quotes nothing splits.
    """
    tokens: list[str] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n:
                c = line[j]
                if c == "\\":
                    j += 2
                    continue
                if c == '"':
                    break
                j += 1
            if j >= n:
                raise MalformedLineError(UNBALANCED_QUOTES)
            k = j + 1
            while k < n and line[k] not in " \t":
                k += 1
            tokens.append(line[i:k])
            i = k
        else:
            k = i
            while k < n and line[k] not in " \t":
                k += 1
            tokens.append(line[i:k])
            i = k
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
    j = 1
    n = len(token)
    while j < n:
        c = token[j]
        if c == "\\":
            j += 2
            continue
        if c == '"':
            break
        j += 1
    if j >= n:
        raise MalformedLineError(UNBALANCED_QUOTES)
    lexical, unknown = unescape_literal(token[1:j])
    if unknown and counters is not None:
        counters["unknown-escape"] += unknown
    rest = token[j + 1 :]
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


# A literal _parse_literal_term accepts: the body up to the first unescaped
# quote, then nothing, an alphanumeric-or-hyphen language tag, or a datatype
# IRI. ``[^\W_]`` is exactly str.isalnum.
_VALID_LITERAL = re.compile(
    r'"((?:[^"\\]|\\.)*)"(?:@(?:[^\W_]|-)+|\^\^<.+>)?', re.DOTALL
).fullmatch
# One escape of a body, aligned as unescape_literal reads them.
_ESCAPES = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))", re.DOTALL).findall


def _check_literal_term(token: str, counters: Counter | None) -> None:
    """Validate a literal as :func:`_parse_literal_term` does, without building it.

    Same reason codes and the same ``unknown-escape`` count; the body is not
    unescaped. Any token the one regex does not accept takes the full parse,
    which raises its reason.
    """
    found = _VALID_LITERAL(token)
    if found is None:
        _parse_literal_term(token, counters)
        return
    body = found[1]
    if "\\" not in body or counters is None:
        return
    unknown = 0
    for short, long, other in _ESCAPES(body):
        if other:
            unknown += other not in _SIMPLE_ESCAPES
        else:
            unknown += _code_point(short or long) is None
    if unknown:
        counters["unknown-escape"] += unknown


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


def parse_line_reference(
    line: str,
    config: ParserConfig = DEFAULT_CONFIG,
    counters: Counter | None = None,
) -> Triple:
    """The general route of :func:`parse_line`, with the same contract.

    Splits on tabs, or tokenizes when the line is not in the tab convention,
    and builds every term through :func:`normalize_iri`. It is the reference
    the regex fast path is checked against.
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


@lru_cache(maxsize=8)
def _canonical_line(namespace: str) -> Callable[[str], re.Match | None] | None:
    """The fast path's line matcher for one namespace, compiled once.

    Each IRI term is three groups: a mid suffix, a dotted path, or an IRI
    outside the namespace. Only standard ids match the first two (a
    2-segment ``m.x`` is a mid, as in normalize_iri). A literal object is
    either plain (no quote or backslash inside, with an optional ASCII
    language tag or datatype) and built here, or any other token without a
    tab and not ending in a space, which equals the token the tab split
    gives and goes to the literal parser. None when the namespace holds a
    tab or bracket, since the regex and the tab split could then disagree on
    where a term ends.
    """
    if any(c in namespace for c in "\t<>"):
        return None
    ns = re.escape(namespace)
    segment = "[0-9a-z_]+"
    term = rf"<(?:{ns}(?:m\.({segment})|({segment}(?:\.{segment}){{0,2}}))|(?!{ns})([^<>\s]+))>"
    predicate = r"(<[^<>\s]+>)"
    plain = r'"([^"\\\t]*)"(?:@([A-Za-z0-9-]+)|\^\^<([^\t]+)>)?'
    literal = r'("(?:[^\t]*[^\t ])?)'
    return re.compile(rf"{term}\t{predicate}\t(?:{term}|{plain}|{literal})\t\.").fullmatch


def _matched_term(mid: str | None, path: str | None, iri: str) -> NodeRef:
    if mid is not None:
        return Mid(mid)
    if path is not None:
        return IdPath(tuple(path.split(".")))
    return ExternalIri(iri)


@lru_cache(maxsize=1 << 14)
def _predicate_term(token: str, namespace: str) -> tuple[NodeRef, bool]:
    """Memoized predicate token -> (term, is-nonstandard); lint is the caller's."""
    ref = _parse_iri_term(token, ParserConfig(namespace), None)
    return ref, _is_nonstandard(ref)


Tally = tuple[NodeRef, bool, int]  # (predicate, mid_subject, lines counted)


class Projection(dict):
    """Per-stream memo: predicate token -> (predicate, cell, cell) of unread lines.

    ``reads(predicate, mid_subject)`` says whether some consumer reads the
    subject and object of that predicate's triples whose subject is (or is
    not) a mid; it is asked once per distinct token and subject kind. The
    entry's cells are indexed by ``1 + mid_subject``: a one-item list that
    counts the lines nobody reads, or None where they are built in full.
    """

    def __init__(self, reads: Callable[[NodeRef, bool], bool], namespace: str = DEFAULT_NAMESPACE):
        super().__init__()
        self.reads = reads
        self.namespace = namespace

    def __missing__(self, token: str) -> tuple:
        predicate, _ = _predicate_term(token, self.namespace)
        plain, mid = (None if self.reads(predicate, kind) else [0] for kind in (False, True))
        entry = self[token] = (predicate, plain, mid)
        return entry

    def tallies(self) -> list[Tally]:
        """The non-zero counts, in the order their predicates were first seen."""
        return [
            (predicate, mid, cell[0])
            for predicate, *cells in self.values()
            for mid, cell in zip((False, True), cells)
            if cell is not None and cell[0]
        ]


def parse_line(
    line: str,
    config: ParserConfig = DEFAULT_CONFIG,
    counters: Counter | None = None,
    projection: Projection | None = None,
) -> Triple | None:
    """Parse one physical line (no trailing newline) into a Triple.

    Raises MalformedLineError with a short reason code otherwise. Pure when
    ``counters`` is omitted; pass a Counter to collect lint tallies
    (nonstandard ids, unknown escapes). Canonical dump lines take the regex
    fast path; every other line goes to :func:`parse_line_reference`. With a
    ``projection`` (same namespace as ``config``), a fast-path line that no
    consumer reads is counted in the projection and None is returned.
    """
    match = _canonical_line(config.namespace)
    found = match(line) if match is not None else None
    if found is None:
        return parse_line_reference(line, config, counters)
    p_token = found[4]
    predicate, nonstandard = _predicate_term(p_token, config.namespace)
    if nonstandard:
        _flag_nonstandard(config, counters)
    if projection is not None:
        cell = projection[p_token][1 + (found[1] is not None)]
        if cell is not None:
            if found[11] is not None:
                _check_literal_term(found[11], counters)  # its errors and lint still count
            cell[0] += 1
            return None
    (s_mid, s_path, s_iri, _, o_mid, o_path, o_iri,
     lexical, language, datatype, o_literal) = found.groups()
    subject = _matched_term(s_mid, s_path, s_iri)
    if lexical is not None:
        obj: NodeRef | Literal = Literal(
            lexical, language, ExternalIri(datatype) if datatype is not None else None
        )
    elif o_literal is not None:
        obj = _parse_literal_term(o_literal, counters)
    else:
        obj = _matched_term(o_mid, o_path, o_iri)
    return Triple(subject, predicate, obj)


def serialize(triple: Triple, namespace: str = DEFAULT_NAMESPACE) -> str:
    """Render a Triple back to one dump-convention line (tab-separated, no newline).

    parse_line(serialize(t)) == t for every well-formed triple.
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


def _sniffed(stream: IO[bytes]) -> IO[bytes]:
    """``stream``, or a gzip reader over it when it starts with the gzip magic."""
    buffered = stream if hasattr(stream, "peek") else io.BufferedReader(stream)  # type: ignore[arg-type]
    if _starts_gzip(buffered):
        return gzip.GzipFile(fileobj=buffered)  # type: ignore[return-value]
    return buffered


def open_dump(path: str | os.PathLike) -> IO[bytes]:
    """Open a dump path for binary reading, decompressing gzip by magic bytes.

    The path is opened once and peeked at, so a pipe loses no bytes.
    """
    handle = open(path, "rb")
    stream = _sniffed(handle)
    if stream is not handle:
        stream.myfileobj = handle  # type: ignore[attr-defined]  # closing the reader closes the file
    return stream


def _as_line_iter(source: Source) -> tuple[Iterator[bytes | str], Callable[[], None]]:
    if isinstance(source, (str, os.PathLike)):
        handle = open_dump(source)
        return iter(handle), handle.close
    if hasattr(source, "read"):
        return iter(_sniffed(source)), lambda: None  # type: ignore[arg-type]
    return iter(source), lambda: None


def _decode(raw: bytes, report: ParseReport) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        report.lint["invalid-utf8-lines"] += 1
        return raw.decode("utf-8", errors="replace")


def iter_triples(
    source: Source,
    report: ParseReport,
    config: ParserConfig = DEFAULT_CONFIG,
    projection: Projection | None = None,
) -> Iterator[Triple]:
    """Yield the well-formed triples of ``source``, tallying into ``report``.

    ``source`` may be a path (gzip detected by magic bytes), a binary file
    object, or any iterable of lines. Malformed lines are counted and sampled,
    never fatal; an I/O failure raises StreamAbortedError with the partial
    report attached. ``projection`` is passed to :func:`parse_line`; the
    lines it counts are recorded as well-formed but neither built nor
    yielded.
    """
    lines, close = _as_line_iter(source)
    try:
        # Only reading raises OSError/EOFError here: a consumer's exception
        # is raised in its own frame, never at this generator's yield.
        for line_number, raw in enumerate(lines, 1):
            if isinstance(raw, bytes):
                line = _decode(raw.rstrip(b"\r\n"), report)
            else:
                line = raw.rstrip("\r\n")
            try:
                triple = parse_line(line, config, report.lint, projection)
            except MalformedLineError as exc:
                report.record_malformed(line_number, exc.reason)
                continue
            report.record_ok()
            if triple is not None:
                yield triple
    except (OSError, EOFError) as exc:
        raise StreamAbortedError(report, exc) from exc
    finally:
        close()


def stream_parse(
    source: Source,
    sink: Callable[[Triple], None],
    config: ParserConfig = DEFAULT_CONFIG,
    max_errors: int = 20,
) -> ParseReport:
    """Dispatch every line of ``source`` through parse_line, feeding ``sink``."""
    report = ParseReport(max_errors=max_errors)
    for triple in iter_triples(source, report, config):
        sink(triple)
    return report
