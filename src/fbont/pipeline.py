"""Partition-parallel execution of the parse/aggregate pipeline.

Dump files are split into byte ranges, one per worker; each partition is
parsed once by one ``Job``, which feeds every triple to each of its folds. A
plain file's range owns exactly the lines that *begin* inside it. A gzip
file's range is a range of compressed bytes: every worker inflates the file
from byte 0 with the same fixed read loop, and a range owns exactly the
lines whose first byte came out of a read that left the compressed file
offset inside ``(start, end]``. Either way every line lands in exactly one
range, in file order. One block reader (``parser.read_blocks``) applies
both rules, and reads whole files and standard input as the range without
bounds; ``Job.run`` parses its blocks with ``parser.parse_blocks``.

A fold returns its per-partition aggregate as payload fields, and every
field is a mergeable monoid with one declared merge law (``MERGE_LAWS``)
that ``merge_payloads`` applies in partition order. Any worker count
therefore produces byte-identical outputs to a single-threaded run.

Standard input, pipes and gzip files under two minimum ranges are read as
one partition.
"""

from __future__ import annotations

import io
import operator
import os
import shutil
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .model import IdPath, Mid, NodeRef, Triple
from .parser import (
    PLAIN,
    STREAM,
    ParseReport,
    ParserConfig,
    Projection,
    StreamAbortedError,
    Tally,
    parse_blocks,
    read_blocks,
    source_kind,
)
from .schema import (
    DomainSchema,
    SchemaConfig,
    UndefinedComplexityError,
    absorb_schema_tally,
    complexity_score,
    feed_schema_triple,
    merge_schemas,
    reads_terms,
)
from .semantics import (
    HAS_NO_VALUE_PREDICATE,
    HAS_VALUE_PREDICATE,
    REPLACED_BY_PREDICATE,
    TYPE_ASSERTION_PREDICATE,
    IncompatibilityRule,
    MergeMap,
    ValueNotation,
    feed_merge_edge,
    feed_value_notation,
    match_rule,
    match_type_assertion,
)
from .slicer import (
    DEFAULT_GROUPS,
    DOMAIN,
    Group,
    GroupConfig,
    SliceKey,
    SliceWriter,
    classify_predicate,
    count_slice,
    group_for,
    merge_counts,
)
from .stats import StudyRow

Feed = Callable[[Triple], None]
Absorb = Callable[[Sequence[Tally]], None]
Finish = Callable[[], dict]


@dataclass(frozen=True)
class Partition:
    """A byte range of one file; end == -1 means the whole file.

    A range of a gzip file counts compressed bytes.
    """

    path: str
    start: int
    end: int
    index: int


# Compressed bytes per gzip range at least. A gzip file under two ranges is
# one partition, parsed in-process, so a small file starts no worker pool.
GZIP_MIN_RANGE = 128 * 1024


def plan_partitions(paths: Sequence[str], workers: int) -> list[Partition]:
    """Split inputs into up to ``workers`` ranges each, in file order."""
    partitions: list[Partition] = []
    index = 0
    for path in paths:
        path = os.fspath(path)
        count = 1
        if workers > 1:
            kind = source_kind(path)
            if kind != STREAM:
                size = os.path.getsize(path)
                count = workers if kind == PLAIN else min(workers, size // GZIP_MIN_RANGE)
        if count <= 1:
            partitions.append(Partition(path, 0, -1, index))
            index += 1
            continue
        bounds = [size * i // count for i in range(count + 1)]
        for start, end in zip(bounds, bounds[1:]):
            partitions.append(Partition(path, start, end, index))
            index += 1
    return partitions


def partition_blocks(part: Partition) -> Iterator[bytes]:
    """The lines the partition's range owns, in file order, as blocks (see read_blocks)."""
    source = sys.stdin.buffer if part.path == "-" else part.path
    return read_blocks(source, part.start, part.end)


def iter_partition_lines(part: Partition) -> Iterator[bytes]:
    """Yield exactly the lines the partition's range owns, in file order."""
    for block in partition_blocks(part):
        yield from io.BytesIO(block)


# --- folds and the one per-partition job ------------------------------------------
#
# A fold is a frozen, picklable recipe for one aggregate. ``start`` binds the
# fold's per-partition state once and returns a (feed, absorb, finish)
# triple: ``feed`` folds one triple in, writing lint straight into the
# partition report's counter, ``absorb`` folds in the lines the parser
# counted instead of building, and ``finish`` returns the fold's payload
# fields. Every payload field has one merge law in MERGE_LAWS, so partitions
# reduce in order to the single-pass result.
#
# A fold also declares what it reads, and only that: ``reads(predicate,
# mid_subject)`` is False when its feed looks at nothing but the predicate of
# that predicate's triples whose subject is (or is not) a mid. Job.run asks
# once per distinct predicate, subject kind and partition: where no fold
# reads them, the parser validates each such line and counts it instead of
# building it (see parser.Projection). Once per partition, after the last
# line and before ``finish``, every fold's ``absorb`` gets the non-zero
# (predicate, mid_subject, count) tallies. A fold must give the same payload
# and lint for a tally as for that many full triples, for every predicate and
# subject kind it declares unread.
#
# A fold that wants lines as text returns two more functions from ``start``:
# ``copy(predicate)``, the list that takes the text of that predicate's
# lines (or None), and ``flush``, which Job.run calls after each block to
# take the lines out of those lists. The parser appends each line of a
# predicate with a list in the scan (see parser.Projection), as it was read
# where that is its serialization, and still counts or builds and feeds the
# line as ``reads`` decides, so copying changes no fold's input. One fold of
# a Job at most may copy.


@dataclass(frozen=True)
class SliceFold:
    """Slice counts; optionally materialized shards and the distinct-triple set.

    The fold reads no line: it counts each slice from the predicate alone,
    whether the line is fed or tallied. Materializing or counting distinct
    triples needs each line's text besides, so the fold then takes its
    slices' lines as text (``copy``) and writes them, or adds them to the
    distinct set, once per block (``flush``).
    """

    shard_root: str | None = None
    count_distinct: bool = False

    def reads(self, predicate: NodeRef, mid_subject: bool) -> bool:
        return False

    def start(self, part: Partition, parser: ParserConfig, lint: Counter) -> tuple[Callable, ...]:
        counts: dict[SliceKey, int] = {}
        keys: dict[NodeRef, SliceKey] = {}
        distinct: set[str] | None = set() if self.count_distinct else None
        writer: SliceWriter | None = None
        shard_dir: str | None = None
        if self.shard_root is not None:
            shard_dir = os.path.join(self.shard_root, f"{part.index:05d}")
            writer = SliceWriter(shard_dir, parser.namespace)

        def feed(triple: Triple) -> None:
            count_slice(counts, keys, triple.predicate, 1, lint)

        def absorb(tallies: Sequence[Tally]) -> None:
            for predicate, _, count in tallies:
                count_slice(counts, keys, predicate, count, lint)

        def finish() -> dict[str, Any]:
            if writer is not None:
                writer.close()
            return {"counts": counts, "shard_dir": shard_dir, "distinct": distinct}

        if writer is None and distinct is None:
            return feed, absorb, finish

        buffers: dict[SliceKey, list[str]] = {}  # each slice's lines since the last flush

        def copy(predicate: NodeRef) -> list[str] | None:
            key = keys.get(predicate)
            if key is None:
                if isinstance(predicate, Mid):
                    return None  # counted as mid-predicate lint, in no slice
                key = keys[predicate] = classify_predicate(predicate)
            buffer = buffers.get(key)
            if buffer is None:
                buffer = buffers[key] = []
            return buffer

        def flush() -> None:
            for key, lines in buffers.items():
                if lines:
                    if writer is not None:
                        writer.write_lines(key, lines)
                    if distinct is not None:
                        distinct.update(lines)
                    lines.clear()

        return feed, absorb, finish, copy, flush


@dataclass(frozen=True)
class SchemaFold:
    """Per-domain ontology summaries."""

    schema: SchemaConfig = SchemaConfig()

    def reads(self, predicate: NodeRef, mid_subject: bool) -> bool:
        return reads_terms(predicate, mid_subject, self.schema)

    def start(self, part: Partition, parser: ParserConfig, lint: Counter) -> tuple[Feed, Absorb, Finish]:
        schemas: dict[str, DomainSchema] = {}
        config = self.schema

        def feed(triple: Triple) -> None:
            feed_schema_triple(schemas, triple, config, lint)

        def absorb(tallies: Sequence[Tally]) -> None:
            for predicate, mid_subject, count in tallies:
                absorb_schema_tally(predicate, mid_subject, count, config, lint)

        return feed, absorb, lambda: {"schemas": schemas}


@dataclass(frozen=True)
class SemanticsFold:
    """Merge edges, value notations, type assertions and dump-stated rules.

    ``known_rules`` are the incompatibility rules known before the parse.
    When they are given and no rule can come from the dump (no
    ``incompatibility_predicate``), only the assertions of a type some known
    rule names are kept: a violation needs both of a rule's types, so no
    other assertion can take part in one. With None, or with an
    ``incompatibility_predicate``, every assertion is kept. Either way each
    kept type is one shared IdPath per partition, so a payload holds and
    pickles each type once.
    """

    replaced_by: IdPath = REPLACED_BY_PREDICATE
    type_predicate: IdPath = TYPE_ASSERTION_PREDICATE
    incompatibility_predicate: IdPath | None = None
    accept_reversed: bool = False
    known_rules: frozenset[IncompatibilityRule] | None = None

    def reads(self, predicate: NodeRef, mid_subject: bool) -> bool:
        return predicate in (
            self.replaced_by,
            HAS_VALUE_PREDICATE,
            HAS_NO_VALUE_PREDICATE,
            self.type_predicate,
            self.incompatibility_predicate,
        )

    def start(self, part: Partition, parser: ParserConfig, lint: Counter) -> tuple[Feed, Absorb, Finish]:
        merge_map = MergeMap()
        notations: list[ValueNotation] = []
        assertions: list[tuple[Mid, IdPath]] = []
        rules: set[IncompatibilityRule] = set()
        filtering = self.known_rules is not None and self.incompatibility_predicate is None
        types: dict[IdPath, IdPath] = {}  # each kept type to its one shared object
        if filtering:
            types = {named: named for rule in self.known_rules for named in (rule.type_a, rule.type_b)}

        def feed(triple: Triple) -> None:
            feed_merge_edge(merge_map, triple, self.replaced_by, lint)
            feed_value_notation(notations, triple, self.accept_reversed, lint)
            assertion = match_type_assertion(triple, self.type_predicate)
            if assertion is not None:
                mid, asserted = assertion
                asserted = types.get(asserted) if filtering else types.setdefault(asserted, asserted)
                if asserted is not None:
                    assertions.append((mid, asserted))
            if self.incompatibility_predicate is not None:
                rule = match_rule(triple, self.incompatibility_predicate)
                if rule is not None:
                    rules.add(rule)

        def absorb(tallies: Sequence[Tally]) -> None:
            pass  # the triples of a predicate it does not read leave no trace

        def finish() -> dict[str, Any]:
            return {
                "merge_map": merge_map,
                "notations": notations,
                "assertions": assertions,
                "rules": rules,
            }

        return feed, absorb, finish


@dataclass(frozen=True)
class Job:
    """Parse a partition once, feeding every triple to each fold.

    Frozen so it pickles cleanly into worker processes; ``run`` returns the
    partition's (ParseReport, payload), the payload being the union of the
    folds' fields.
    """

    folds: tuple[Any, ...]
    parser: ParserConfig = ParserConfig()
    max_errors: int = 20

    def reads(self, predicate: NodeRef, mid_subject: bool) -> bool:
        return any(fold.reads(predicate, mid_subject) for fold in self.folds)

    def run(self, part: Partition) -> tuple[ParseReport, dict[str, Any]]:
        report = ParseReport(max_errors=self.max_errors)
        started = [fold.start(part, self.parser, report.lint) for fold in self.folds]
        feeds = [functions[0] for functions in started]
        copying = [functions[3:] for functions in started if len(functions) > 3]
        if len(copying) > 1:
            raise ValueError("at most one fold of a Job may copy lines")
        copy, flush = copying[0] if copying else (None, None)
        projection = Projection(self.reads, self.parser.namespace, copy)
        payload: dict[str, Any] = {}
        try:
            for triples in parse_blocks(partition_blocks(part), report, self.parser, projection):
                for triple in triples:
                    for feed in feeds:
                        feed(triple)
                if flush is not None:
                    flush()
        finally:
            # Also on an abort, so a partial report's lint counts every line read.
            tallies = projection.tallies()
            for _, absorb, finish, *_ in started:
                absorb(tallies)
                payload.update(finish())
        return report, payload


# One merge law per payload field; each is associative, so merging partition
# payloads in order equals the single-pass aggregate.
MERGE_LAWS: dict[str, Callable[[Any, Any], Any]] = {
    "counts": merge_counts,
    "schemas": merge_schemas,
    "merge_map": MergeMap.merge,
    "notations": operator.add,
    "assertions": operator.add,
    "rules": operator.or_,
    "distinct": operator.or_,
    "lint": operator.add,  # bench/traced.py returns lint as a payload field
}


def merge_payloads(payloads: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Merge partition payloads field by field, in partition order.

    A None value means the field was not collected and is skipped. Each
    partition's ``shard_dir`` is appended to the ordered ``shard_dirs`` list.
    """
    merged: dict[str, Any] = {}
    for payload in payloads:
        for name, value in payload.items():
            if name == "shard_dir":
                shard_dirs = merged.setdefault("shard_dirs", [])
                if value is not None:
                    shard_dirs.append(value)
            elif merged.get(name) is None:
                merged[name] = value
            elif value is not None:
                merged[name] = MERGE_LAWS[name](merged[name], value)
    return merged


# The benchmark's traced replica imports these per-command names.
merge_slice_payloads = merge_study_payloads = merge_semantics_payloads = merge_payloads


def join_scores(
    counts: Mapping[SliceKey, int],
    scores: Mapping[str, float],
    group_config: GroupConfig = DEFAULT_GROUPS,
) -> tuple[list[StudyRow], list[str]]:
    """Pair each subject-matter domain's triple count with its complexity score.

    Domains with no score come back by name, in key order, for the caller
    to warn about.
    """
    rows: list[StudyRow] = []
    skipped: list[str] = []
    for key in sorted(counts):
        if key.kind != DOMAIN or group_for(key, group_config) is not Group.SUBJECT_MATTER:
            continue
        if key.name in scores:
            rows.append(StudyRow(key.name, counts[key], scores[key.name]))
        else:
            skipped.append(key.name)
    return rows, skipped


def join_study_rows(
    counts: Mapping[SliceKey, int],
    schemas: Mapping[str, DomainSchema],
    group_config: GroupConfig = DEFAULT_GROUPS,
) -> tuple[list[StudyRow], list[str]]:
    """join_scores over the extracted schemas; undefined scores are skipped."""
    scores: dict[str, float] = {}
    for domain, schema in schemas.items():
        try:
            scores[domain] = complexity_score(schema)
        except UndefinedComplexityError:
            pass
    return join_scores(counts, scores, group_config)


def run_partitioned(
    job: Job, partitions: Sequence[Partition], workers: int
) -> tuple[ParseReport, list[dict[str, Any]]]:
    """Run a job over every partition, merging reports in partition order."""
    if workers <= 1 or len(partitions) <= 1:
        return _merge_results(job, map(job.run, partitions))
    with ProcessPoolExecutor(max_workers=min(workers, len(partitions))) as pool:
        return _merge_results(job, pool.map(job.run, partitions))


def _merge_results(
    job: Job, results: Iterable[tuple[ParseReport, dict[str, Any]]]
) -> tuple[ParseReport, list[dict[str, Any]]]:
    """Merge partition reports as the results arrive, in partition order.

    A partition's StreamAbortedError is raised again with the report of the
    stream so far: every earlier partition's, then the failing one's partial
    report, so its line count does not depend on the worker count.
    """
    report = ParseReport(max_errors=job.max_errors)
    payloads = []
    try:
        for part_report, payload in results:
            report = report.merge(part_report)
            payloads.append(payload)
    except StreamAbortedError as exc:
        raise StreamAbortedError(report.merge(exc.report), exc.cause) from exc.cause
    return report, payloads


@contextmanager
def replacing(path: str) -> Iterator[str]:
    """A temp path beside ``path``, renamed over ``path`` when the block ends.

    On any exception the temp file is removed and ``path`` keeps its old
    content, so no reader sees a half-written file. The temp name holds only
    the process id, so it is short enough wherever ``path``'s name is.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    temp = os.path.join(directory, f".{os.getpid()}.tmp")
    try:
        yield temp
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.remove(temp)
        raise


def concatenate_shards(shard_dirs: Sequence[str], out_dir: str) -> list[str]:
    """Merge worker-private slice shards into final per-slice files.

    Shards concatenate in partition order, so the result is byte-identical to
    a single-worker run. Each final file is replaced atomically. Shard
    directories are removed afterwards.
    """
    relpaths: list[str] = []
    seen = set()
    for shard_dir in shard_dirs:
        for root, _, files in sorted(os.walk(shard_dir)):
            for name in sorted(files):
                rel = os.path.relpath(os.path.join(root, name), shard_dir)
                if rel not in seen:
                    seen.add(rel)
                    relpaths.append(rel)
    relpaths.sort()
    for rel in relpaths:
        with replacing(os.path.join(out_dir, rel)) as temp, open(temp, "wb") as out:
            for shard_dir in shard_dirs:
                piece = os.path.join(shard_dir, rel)
                if os.path.exists(piece):
                    with open(piece, "rb") as src:
                        shutil.copyfileobj(src, out)
    for shard_dir in shard_dirs:
        shutil.rmtree(shard_dir, ignore_errors=True)
    for parent in {os.path.dirname(d) for d in shard_dirs}:
        try:
            os.rmdir(parent)
        except OSError:
            pass  # parent still holds other runs' shards
    return relpaths
