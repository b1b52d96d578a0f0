"""Partition-parallel execution of the parse/aggregate pipeline.

Plain dump files are split into byte ranges aligned to line boundaries; each
partition is parsed once (its lines are exactly those that *begin* inside its
range) by one ``Job``, which feeds every triple to each of its folds. A fold
returns its per-partition aggregate as payload fields, and every field is a
mergeable monoid with one declared merge law (``MERGE_LAWS``) that
``merge_payloads`` applies in partition order. Any worker count therefore
produces byte-identical outputs to a single-threaded run.

Gzip inputs and standard input are inherently sequential and are processed
as one partition.
"""

from __future__ import annotations

import operator
import os
import shutil
import stat
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from .model import IdPath, Mid, Triple
from .parser import GZIP_MAGIC, ParseReport, ParserConfig, _as_line_iter, iter_triples, serialize
from .schema import (
    DomainSchema,
    SchemaConfig,
    UndefinedComplexityError,
    complexity_score,
    feed_schema_triple,
    merge_schemas,
)
from .semantics import (
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
    DEFAULT_SLICE_LAYOUT,
    DOMAIN,
    Group,
    GroupConfig,
    SliceKey,
    SliceWriter,
    feed_slice_triple,
    group_for,
    merge_counts,
)
from .stats import StudyRow

Feed = Callable[[Triple], None]
Finish = Callable[[], dict]


@dataclass(frozen=True)
class Partition:
    """A line-aligned byte range of one file; end == -1 means the whole file."""

    path: str
    start: int
    end: int
    index: int


def _is_plain_seekable(path: str) -> bool:
    if path == "-":
        return False
    try:
        mode = os.stat(path).st_mode
    except OSError:
        return False
    if not stat.S_ISREG(mode):
        return False
    with open(path, "rb") as handle:
        return handle.read(2) != GZIP_MAGIC


def plan_partitions(paths: Sequence[str], workers: int) -> list[Partition]:
    """Split inputs into up to ``workers`` ranges each, in file order."""
    partitions: list[Partition] = []
    index = 0
    for path in paths:
        path = os.fspath(path)
        if workers <= 1 or not _is_plain_seekable(path):
            partitions.append(Partition(path, 0, -1, index))
            index += 1
            continue
        size = os.path.getsize(path)
        bounds = [size * i // workers for i in range(workers + 1)]
        for start, end in zip(bounds, bounds[1:]):
            partitions.append(Partition(path, start, end, index))
            index += 1
    return partitions


def iter_partition_lines(part: Partition) -> Iterator[bytes]:
    """Yield exactly the lines that begin inside the partition's range."""
    if part.end == -1:
        lines, close = _as_line_iter(sys.stdin.buffer if part.path == "-" else part.path)
        try:
            yield from lines  # type: ignore[misc]
        finally:
            close()
        return
    with open(part.path, "rb") as handle:
        if part.start > 0:
            handle.seek(part.start - 1)
            if handle.read(1) != b"\n":
                handle.readline()  # partial line: belongs to the previous partition
        while True:
            position = handle.tell()
            if position >= part.end:
                break
            line = handle.readline()
            if not line:
                break
            yield line


# --- folds and the one per-partition job ------------------------------------------
#
# A fold is a frozen, picklable recipe for one aggregate. ``start`` binds the
# fold's per-partition state once and returns a (feed, finish) pair: ``feed``
# folds one triple in, writing lint straight into the partition report's
# counter, and ``finish`` returns the fold's payload fields. Every payload
# field has one merge law in MERGE_LAWS, so partitions reduce in order to the
# single-pass result.


@dataclass(frozen=True)
class SliceFold:
    """Slice counts; optionally materialized shards and the distinct-triple set."""

    shard_root: str | None = None
    count_distinct: bool = False
    slice_layout: str = DEFAULT_SLICE_LAYOUT

    def start(self, part: Partition, parser: ParserConfig, lint: Counter) -> tuple[Feed, Finish]:
        counts: dict[SliceKey, int] = {}
        distinct: set[str] | None = set() if self.count_distinct else None
        writer: SliceWriter | None = None
        shard_dir: str | None = None
        if self.shard_root is not None:
            shard_dir = os.path.join(self.shard_root, f"{part.index:05d}")
            writer = SliceWriter(shard_dir, parser.namespace, self.slice_layout)

        def feed(triple: Triple) -> None:
            key = feed_slice_triple(counts, triple, writer, lint)
            if distinct is not None and key is not None:
                distinct.add(serialize(triple, parser.namespace))

        def finish() -> dict[str, Any]:
            if writer is not None:
                writer.close()
            return {"counts": counts, "shard_dir": shard_dir, "distinct": distinct}

        return feed, finish


@dataclass(frozen=True)
class SchemaFold:
    """Per-domain ontology summaries."""

    schema: SchemaConfig = SchemaConfig()

    def start(self, part: Partition, parser: ParserConfig, lint: Counter) -> tuple[Feed, Finish]:
        schemas: dict[str, DomainSchema] = {}
        config = self.schema

        def feed(triple: Triple) -> None:
            feed_schema_triple(schemas, triple, config, lint)

        return feed, lambda: {"schemas": schemas}


@dataclass(frozen=True)
class SemanticsFold:
    """Merge edges, value notations, type assertions and dump-stated rules."""

    replaced_by: IdPath = REPLACED_BY_PREDICATE
    type_predicate: IdPath = TYPE_ASSERTION_PREDICATE
    incompatibility_predicate: IdPath | None = None
    accept_reversed: bool = False

    def start(self, part: Partition, parser: ParserConfig, lint: Counter) -> tuple[Feed, Finish]:
        merge_map = MergeMap()
        notations: list[ValueNotation] = []
        assertions: list[tuple[Mid, IdPath]] = []
        rules: set[IncompatibilityRule] = set()

        def feed(triple: Triple) -> None:
            feed_merge_edge(merge_map, triple, self.replaced_by, lint)
            feed_value_notation(notations, triple, self.accept_reversed, lint)
            assertion = match_type_assertion(triple, self.type_predicate)
            if assertion is not None:
                assertions.append(assertion)
            if self.incompatibility_predicate is not None:
                rule = match_rule(triple, self.incompatibility_predicate)
                if rule is not None:
                    rules.add(rule)

        def finish() -> dict[str, Any]:
            return {
                "merge_map": merge_map,
                "notations": notations,
                "assertions": assertions,
                "rules": rules,
            }

        return feed, finish


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

    def run(self, part: Partition) -> tuple[ParseReport, dict[str, Any]]:
        report = ParseReport(max_errors=self.max_errors)
        started = [fold.start(part, self.parser, report.lint) for fold in self.folds]
        feeds = [feed for feed, _ in started]
        payload: dict[str, Any] = {}
        try:
            for triple in iter_triples(iter_partition_lines(part), report, self.parser):
                for feed in feeds:
                    feed(triple)
        finally:
            for _, finish in started:
                payload.update(finish())
        return report, payload


# Single-command shorthands, kept because the test suites build jobs by these names.
def SliceJob(parser: ParserConfig = ParserConfig(), max_errors: int = 20, **fold: Any) -> Job:
    return Job((SliceFold(**fold),), parser, max_errors)


def StudyJob(
    parser: ParserConfig = ParserConfig(),
    max_errors: int = 20,
    schema: SchemaConfig = SchemaConfig(),
) -> Job:
    return Job((SliceFold(), SchemaFold(schema)), parser, max_errors)


def SemanticsJob(parser: ParserConfig = ParserConfig(), max_errors: int = 20, **fold: Any) -> Job:
    return Job((SemanticsFold(**fold),), parser, max_errors)


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
    "lint": operator.add,
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
        results = [job.run(part) for part in partitions]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(partitions))) as pool:
            results = list(pool.map(job.run, partitions))
    report = ParseReport(max_errors=job.max_errors)
    payloads = []
    for part_report, payload in results:
        report = report.merge(part_report)
        payloads.append(payload)
    return report, payloads


def concatenate_shards(shard_dirs: Sequence[str], out_dir: str) -> list[str]:
    """Merge worker-private slice shards into final per-slice files.

    Shards concatenate in partition order, so the result is byte-identical to
    a single-worker run. Shard directories are removed afterwards.
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
        out_path = os.path.join(out_dir, rel)
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        with open(out_path, "wb") as out:
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
