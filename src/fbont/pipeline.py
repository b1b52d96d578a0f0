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
that ``merge_payloads`` applies in partition order, merged as the results
arrive. Any worker count therefore produces byte-identical outputs to a
single-threaded run. Each law folds the later partition into the running
value in place, so the parent holds one copy of the running aggregate. No
fold keeps the dump's lines: a materializing ``SliceFold`` holds one
block's copied lines at a time, and ``SemanticsFold`` holds at most
``NOTATION_BATCH`` value notations and ``MASK_RUN_ENTRIES`` type masks (one
bitmask per mid of the types its known rules name that the mid asserts) at
a time. The rest are on disk: one shard of notation rows per partition,
which the parent joins as it joins slice shards, and sorted mask runs,
which it merges as a stream; only their paths are in the payload. Its merge
map is the one aggregate in memory that grows with the dump.

Standard input, pipes and gzip files under two minimum ranges are read as
one partition.

Workers are forked where ``os.fork`` exists: each inherits the job and
pickles its partitions' results back down its own pipe (``run_partitioned``).
Elsewhere the partitions run in-process, with the same outputs.

``run_folds`` is the library's one entry point, and the CLI's: it plans the
partitions, runs one ``Job`` of the given folds over them and returns the
merged report and payload, e.g. ``run_folds(["dump.nt.gz"], [SliceFold(),
SchemaFold()], workers=4)``.
"""

from __future__ import annotations

import io
import operator
import os
import pickle
import shutil
import signal
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

from .model import DEFAULT_NAMESPACE, Mid, NodeRef, Triple
from .parser import (
    PLAIN,
    STREAM,
    ParseReport,
    Projection,
    StreamAbortedError,
    Tally,
    _canonical_line,
    parse_blocks,
    read_blocks,
    source_kind,
)
from .report import write_notation_rows
from .schema import (
    DomainSchema,
    SchemaConfig,
    UndefinedComplexityError,
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
    Violation,
    feed_merge_edge,
    feed_type_mask,
    feed_value_notation,
    mask_run_path,
    mask_violations,
    merge_mask_runs,
    type_bits,
    write_mask_run,
)
from .slicer import (
    DEFAULT_GROUPS,
    DOMAIN,
    Group,
    GroupConfig,
    SliceKey,
    SliceWriter,
    _open_file_cap,
    classify_predicate,
    count_slice,
    group_for,
    merge_counts,
)
from .stats import StudyRow

Feed = Callable[[Triple], None]
Finish = Callable[[Sequence[Tally]], dict]


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
# one partition, parsed in-process, so a small file forks no worker.
GZIP_MIN_RANGE = 128 * 1024


def plan_partitions(paths: Sequence[str], workers: int) -> list[Partition]:
    """Split inputs into up to ``workers`` ranges each, in file order.

    No plain range is empty, so an empty file is one partition, as is a
    gzip file under two ``GZIP_MIN_RANGE``s.
    """
    partitions: list[Partition] = []
    index = 0
    for path in paths:
        path = os.fspath(path)
        count = 1
        if workers > 1:
            kind = source_kind(path)
            if kind != STREAM:
                size = os.path.getsize(path)
                count = min(workers, size if kind == PLAIN else size // GZIP_MIN_RANGE)
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
# A fold is a frozen recipe for one aggregate. ``start`` binds the
# fold's per-partition state once and returns a (feed, finish) pair:
# ``feed`` folds one built triple in, writing lint straight into the
# partition report's counter, or is None for a fold that reads no triple;
# ``finish`` takes the partition's tallies and returns the fold's payload
# fields. Every payload field has one merge law in MERGE_LAWS, so partitions
# reduce in order to the single-pass result.
#
# A fold also declares what it reads, and only that: ``reads(predicate,
# mid_subject)`` is False for the triples of a predicate whose subject is
# (or is not) a mid that its feed does nothing with. Job.run asks once per
# distinct predicate, subject kind and partition, and where no fold reads
# them the parser validates each such line without building it (see
# parser.Projection). The contract: a fold's feed, given a triple of a kind
# the fold declares unread (as when another fold reads it), leaves the
# payload and the lint as they were. The parser counts every well-formed
# line by predicate, read or not; after a partition's last line each
# ``finish`` gets the non-zero (predicate, count) tallies, from which a fold
# that needs only each line's predicate, as slice counts do, folds them all.
#
# A fold that wants lines as text returns two more functions from ``start``:
# ``copy(predicate)``, the list that takes the text of that predicate's
# lines (or None), and ``flush``, which Job.run calls after each block to
# take the lines out of those lists. The parser appends each well-formed
# line of a predicate with a list in the scan (see parser.Projection), as it
# was read, and still counts it and builds and feeds it as ``reads``
# decides, so copying changes no fold's input. One fold of a Job at most may
# copy.


@dataclass(frozen=True)
class SliceFold:
    """Slice counts; optionally materialized shards.

    The fold reads no line: it counts each slice from the predicate tallies
    alone. Materializing needs each line's text besides, so the fold then
    takes its slices' lines as text (``copy``) and writes them once per
    block (``flush``).
    """

    shard_root: str | None = None

    def reads(self, predicate: NodeRef, mid_subject: bool) -> bool:
        return False

    def start(self, part: Partition, lint: Counter) -> tuple[Callable | None, ...]:
        writer: SliceWriter | None = None
        shard_dir: str | None = None
        if self.shard_root is not None:
            shard_dir = os.path.join(self.shard_root, f"{part.index:05d}")
            writer = SliceWriter(shard_dir)

        def finish(tallies: Sequence[Tally]) -> dict[str, Any]:
            counts: dict[SliceKey, int] = {}
            for predicate, count in tallies:
                count_slice(counts, predicate, count, lint)
            if writer is not None:
                writer.close()
            return {"counts": counts, "shard_dir": shard_dir}

        if writer is None:
            return None, finish

        buffers: dict[SliceKey, list[str]] = {}  # each slice's lines since the last flush

        def copy(predicate: NodeRef) -> list[str] | None:
            if isinstance(predicate, Mid):
                return None  # counted as mid-predicate lint, in no slice
            return buffers.setdefault(classify_predicate(predicate), [])

        def flush() -> None:
            for key, lines in buffers.items():
                if lines:
                    writer.write_lines(key, lines)
                    lines.clear()

        return None, finish, copy, flush


@dataclass(frozen=True)
class SchemaFold:
    """Per-domain ontology summaries."""

    schema: SchemaConfig = SchemaConfig()

    def reads(self, predicate: NodeRef, mid_subject: bool) -> bool:
        return reads_terms(predicate, mid_subject, self.schema)

    def start(self, part: Partition, lint: Counter) -> tuple[Feed, Finish]:
        schemas: dict[str, DomainSchema] = {}
        config = self.schema

        def feed(triple: Triple) -> None:
            feed_schema_triple(schemas, triple, config, lint)

        return feed, lambda tallies: {"schemas": schemas}


_SEMANTICS_PREDICATES = frozenset({REPLACED_BY_PREDICATE, HAS_VALUE_PREDICATE, HAS_NO_VALUE_PREDICATE})


# Mask entries a semantics worker holds before it writes them out as one
# sorted run, so its memory does not grow with the dump's typed mids (about
# 5 MB at 80 bytes an entry).
MASK_RUN_ENTRIES = 1 << 16
# Value notations a semantics worker holds before it appends them to its
# partition's notation shard (about 0.4 MB at 400 bytes a notation).
NOTATION_BATCH = 1 << 10


@dataclass(frozen=True)
class SemanticsFold:
    """Merge edges, value notations and each mid's mask of the types the known rules name.

    Everything but the merge map goes to disk under ``run_root``, which every
    fold needs and the caller removes. Each partition appends its value
    notations, ``NOTATION_BATCH`` at a time, as rows to the valuenotes.csv
    of one shard directory (``report.write_notation_rows``), made at its
    first notation. The ``notations`` field lists the partition's shard
    directories, made or not, and ``notation_rows`` counts their rows;
    ``concatenate_shards`` joins them, headerless, like slice shards.

    ``known_rules`` are the incompatibility rules, known before the parse.
    A violation needs both of a rule's types, so only the assertions of a
    type some known rule names are kept, none without rules: each as one
    bit (``semantics.type_bits``) ORed into a map from mid suffix to mask. A
    mid costs one entry whatever the number of its assertions. At
    ``MASK_RUN_ENTRIES`` entries, and at the partition's end, the map is
    written sorted by suffix as one mask run under ``run_root`` and
    cleared, so the ``type_masks`` field is the list of the partition's run
    paths. ``violations`` streams the merged runs.
    """

    run_root: str
    known_rules: frozenset[IncompatibilityRule] = frozenset()
    accept_reversed: bool = False

    def reads(self, predicate: NodeRef, mid_subject: bool) -> bool:
        if predicate == TYPE_ASSERTION_PREDICATE:  # feed_type_mask takes a mid's, for known rules
            return mid_subject and bool(self.known_rules)
        return predicate in _SEMANTICS_PREDICATES

    def violations(self, runs: Sequence[str]) -> Iterator[Violation]:
        """The stream of the known rules' violations in the ``type_masks`` runs, by mid, then rule.

        The runs are merged as the stream is read, never more of them open
        than ``slicer._open_file_cap()`` (three at least); a merge pass writes
        its runs under ``run_root`` and removes them.
        """
        return mask_violations(merge_mask_runs(runs, self.run_root, _open_file_cap()), self.known_rules)

    def start(self, part: Partition, lint: Counter) -> tuple[Feed, Finish]:
        merge_map = MergeMap()
        notations: list[ValueNotation] = []
        shard = mask_run_path(self.run_root, f"notes-{part.index:05d}")
        noted = 0  # the rows written to the shard
        type_masks: dict[str, int] = {}
        runs: list[str] = []
        bits = type_bits(self.known_rules)

        def spill() -> None:
            os.makedirs(self.run_root, exist_ok=True)
            path = mask_run_path(self.run_root, f"{part.index:05d}")
            runs.append(path)
            write_mask_run(path, ((suffix, type_masks[suffix]) for suffix in sorted(type_masks)))
            type_masks.clear()

        def write_notations() -> None:
            nonlocal noted
            os.makedirs(shard, exist_ok=True)
            write_notation_rows(os.path.join(shard, "valuenotes.csv"), notations)
            noted += len(notations)
            notations.clear()

        def feed(triple: Triple) -> None:
            feed_merge_edge(merge_map, triple, lint)
            feed_value_notation(notations, triple, self.accept_reversed, lint)
            if len(notations) >= NOTATION_BATCH:
                write_notations()
            feed_type_mask(type_masks, bits, triple)
            if len(type_masks) >= MASK_RUN_ENTRIES:
                spill()

        def finish(tallies: Sequence[Tally]) -> dict[str, Any]:
            if type_masks:
                spill()
            if notations:
                write_notations()
            return {
                "merge_map": merge_map,
                "notations": [shard],
                "notation_rows": noted,
                "type_masks": runs,
            }

        return feed, finish


@dataclass(frozen=True)
class Job:
    """Parse a partition once, in the public dump's namespace, feeding every
    built triple to each fold's feed and the partition's tallies to each
    fold's finish.

    Forked workers inherit it, so only what ``run`` returns crosses a pipe:
    the partition's (ParseReport, payload), the payload being the union of
    the folds' fields.
    """

    folds: tuple[Any, ...]

    def reads(self, predicate: NodeRef, mid_subject: bool) -> bool:
        return any(fold.reads(predicate, mid_subject) for fold in self.folds)

    def run(self, part: Partition) -> tuple[ParseReport, dict[str, Any]]:
        report = ParseReport()
        started = [fold.start(part, report.lint) for fold in self.folds]
        feeds = [functions[0] for functions in started if functions[0] is not None]
        copying = [functions[2:] for functions in started if len(functions) > 2]
        if len(copying) > 1:
            raise ValueError("at most one fold of a Job may copy lines")
        copy, flush = copying[0] if copying else (None, None)
        projection = Projection(self.reads, copy=copy)
        payload: dict[str, Any] = {}
        try:
            for triples in parse_blocks(partition_blocks(part), report, projection=projection):
                for triple in triples:
                    for feed in feeds:
                        feed(triple)
                if flush is not None:
                    flush()
        finally:
            # Also on an abort, so a partial report's lint counts every line read.
            tallies = projection.tallies()
            for _, finish, *_ in started:
                payload.update(finish(tallies))
        return report, payload


# One merge law per payload field; each is associative, so merging partition
# payloads in order equals the single-pass aggregate. A law folds the later
# value into the one it is given and returns it (an int is just summed).
MERGE_LAWS: dict[str, Callable[[Any, Any], Any]] = {
    "counts": merge_counts,
    "schemas": merge_schemas,
    "merge_map": MergeMap.merge,
    "notations": operator.iadd,
    "notation_rows": operator.add,
    "type_masks": operator.iadd,
    # bench/traced.py's replica returns these three payload fields; the folds do not
    "assertions": operator.add,
    "rules": operator.or_,
    "lint": operator.add,
}


def merge_payloads(payloads: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Merge partition payloads field by field, in partition order.

    It consumes its payloads: the first payload's value of each field becomes
    the merged value, and the later values are folded into it (MERGE_LAWS).
    A None value means the field was not collected and is skipped. Each
    partition's ``shard_dir`` is appended to the ordered ``shard_dirs`` list,
    so ``merge_payloads((merged, payload))`` folds one more partition in.
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


class WorkerFailure(Exception):
    """A worker process ended before it sent a partition's result: killed, or
    holding an exception that cannot be pickled."""


def run_partitioned(job: Job, partitions: Sequence[Partition], workers: int) -> tuple[ParseReport, dict[str, Any]]:
    """Run a job over every partition; the reports and payloads merged in partition order.

    Child k of W = min(workers, partitions) forked children runs partitions
    k, k + W, ...; the parent reads partition i from child i % W, and on any
    exit kills and reaps every child. In-process over one partition, at one
    worker or without ``os.fork``. fbont starts no thread, so a fork copies no
    lock another thread holds.
    """
    if workers <= 1 or len(partitions) <= 1 or not hasattr(os, "fork"):
        return _merge_results(map(job.run, partitions))
    _canonical_line(DEFAULT_NAMESPACE)  # compiled once here, so every child inherits it
    count = min(workers, len(partitions))
    pids: list[int] = []
    pipes: list[BinaryIO] = []
    try:
        for k in range(count):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    for pipe in pipes:
                        pipe.close()  # a write then fails, not blocks, once the parent is gone
                    _run_child(job, partitions[k::count], write_fd)
            finally:
                os.close(write_fd)  # a child never gets here: it ends in os._exit
            pids.append(pid)
        return _merge_results(_read_results(partitions, pids, pipes))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # a child that has exited stays a zombie until reaped
            os.waitpid(pid, 0)


def _run_child(job: Job, partitions: Sequence[Partition], write_fd: int) -> NoReturn:
    """Send each partition's pickled (ok, result or exception) down the pipe, then exit."""
    try:
        with open(write_fd, "wb") as out:
            for part in partitions:
                try:
                    outcome = pickle.dumps((True, job.run(part)), pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    out.write(pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL))
                    break
                out.write(outcome)
                out.flush()
    finally:
        os._exit(0)


def _read_results(partitions: Sequence[Partition], pids: list[int], pipes: list[BinaryIO]) -> Iterator[Any]:
    """Each partition's result in partition order, from the child that ran it."""
    for i, part in enumerate(partitions):
        try:
            ok, value = pickle.load(pipes[i % len(pipes)])
        except (EOFError, pickle.UnpicklingError) as exc:
            raise WorkerFailure(f"worker {pids[i % len(pids)]} ended before partition {part.index}'s result") from exc
        if not ok:
            raise value
        yield value


def run_folds(
    inputs: Sequence[str],
    folds: Sequence[Any],
    workers: int = 1,
) -> tuple[ParseReport, dict[str, Any]]:
    """Parse the inputs once, feeding every triple to each fold; the merged report and payload."""
    return run_partitioned(Job(tuple(folds)), plan_partitions(inputs, workers), workers)


def _merge_results(results: Iterable[tuple[ParseReport, dict[str, Any]]]) -> tuple[ParseReport, dict[str, Any]]:
    """Fold each partition's report and payload into the running merge as it arrives, in order.

    A partition's StreamAbortedError is raised again with the report of the
    stream so far: every earlier partition's, then the failing one's partial
    report, so its line count does not depend on the worker count.
    """
    report, merged = ParseReport(), {}
    try:
        for part_report, payload in results:
            report = report.merge(part_report)
            merged = merge_payloads((merged, payload))
    except StreamAbortedError as exc:
        raise StreamAbortedError(report.merge(exc.report), exc.cause) from exc.cause
    return report, merged


def concatenate_shards(shard_dirs: Sequence[str], out_dir: str) -> list[str]:
    """Merge worker-private slice shards into final per-slice files.

    Shards concatenate in partition order, so the result is byte-identical to
    a single-worker run. Each output is its first piece, moved into place (a
    rename in the CLI's work directory), with the later pieces appended.
    The shard directories and their parents are removed afterwards.
    """
    relpaths = sorted(
        {
            os.path.relpath(os.path.join(root, name), shard_dir)
            for shard_dir in shard_dirs
            for root, _, files in os.walk(shard_dir)
            for name in files
        }
    )
    for rel in relpaths:
        path = os.path.join(out_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        first, *later = filter(os.path.exists, (os.path.join(shard_dir, rel) for shard_dir in shard_dirs))
        shutil.move(first, path)
        with open(path, "ab") as out:
            for piece in later:
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
