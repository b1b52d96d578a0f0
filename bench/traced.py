"""Traced replica of one workload's command, for the per-layer split.

Does what ``fbont.cli`` does for the workload, but from this driver: it
calls each module's public functions itself and records a span around every
call into a layer (name, start, end, parent, pid). Worker processes record
their own spans and return them with their payload. Lines move through the
layers in bounded batches, so each batch gets one span per layer instead of
one span per line; ``normalize_iri`` calls are timed by a wrapper and rolled
up into one child span of each parse batch.

Usage: python3 bench/traced.py WORKLOAD FIXTURE_DIR OUT_DIR
Writes the command's outputs under OUT_DIR/out and the spans plus derived
per-layer figures to OUT_DIR/trace.json.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import csv  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from itertools import islice  # noqa: E402

from workloads import SRC, WORKERS, WORKLOADS  # noqa: E402

sys.path.insert(0, SRC)

import fbont.parser as fb_parser  # noqa: E402
from fbont.model import IdPath, Mid, render  # noqa: E402
from fbont.parser import MalformedLineError, ParseReport, ParserConfig, parse_line  # noqa: E402
from fbont.pipeline import (  # noqa: E402
    concatenate_shards,
    iter_partition_lines,
    join_study_rows,
    merge_semantics_payloads,
    merge_slice_payloads,
    merge_study_payloads,
    plan_partitions,
)
from fbont.report import ReportBundle, build_scatter_points, render_taxonomy  # noqa: E402
from fbont.schema import SchemaConfig, feed_schema_triple  # noqa: E402
from fbont.semantics import (  # noqa: E402
    CyclePolicy,
    MergeMap,
    check_incompatibilities,
    feed_merge_edge,
    feed_value_notation,
    load_rules,
    match_type_assertion,
    write_merge_tsv,
)
from fbont.stats import run_study  # noqa: E402
from fbont.slicer import (  # noqa: E402
    DEFAULT_IMPLEMENTATION_DOMAINS,
    DEFAULT_SLICE_LAYOUT,
    GroupConfig,
    SliceWriter,
    build_taxonomy,
    classify_predicate,
)

IMPORTS_DONE = time.perf_counter()

BATCH_LINES = 4096
MAX_ERRORS = 20
TAXONOMY_FORMATS = (("markdown", "md"), ("csv", "csv"), ("tsv", "tsv"))


_SPAN_IDS = itertools.count(1)


class Tracer:
    """Spans of one partition or driver, kept in memory as plain tuples.

    Span ids are (pid, n) with n from one counter per process, so tracers
    created in the same process never hand out the same id.
    """

    def __init__(self, parent: tuple[int, int] | None = None):
        self.spans: list[tuple] = []  # (id, name, start, end, parent)
        self.stack: list[tuple[int, int]] = [parent] if parent else []

    def _new_id(self) -> tuple[int, int]:
        return (os.getpid(), next(_SPAN_IDS))

    @contextmanager
    def span(self, name: str, start: float | None = None):
        span_id = self._new_id()
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        if start is None:
            start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def add(self, name: str, start: float, end: float, parent: tuple[int, int] | None) -> None:
        self.spans.append((self._new_id(), name, start, end, parent))


class IriTimer:
    """Wraps parser's normalize_iri, summing its time and calls."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0
        self.original = fb_parser.normalize_iri

    def __call__(self, iri, namespace):
        start = time.perf_counter()
        try:
            return self.original(iri, namespace)
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1

    def take(self) -> float:
        seconds, self.seconds = self.seconds, 0.0
        return seconds


def _decode(raw: bytes, report: ParseReport) -> str:
    """The parser's decode step (a private helper there), with its lint count."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        report.lint["invalid-utf8-lines"] += 1
        return raw.decode("utf-8", errors="replace")


def _schema_size(schemas, domain) -> int:
    schema = schemas.get(domain)
    if schema is None:
        return 0
    return (
        len(schema.types)
        + len(schema.properties)
        + schema.description_count
        + schema.property_detail_count
    )


def run_partition(args) -> dict:
    """One partition of the workload's job, with spans; mirrors the CLI's jobs."""
    command, part, shard_root, parent, in_process = args
    tracer = Tracer(parent)
    timer = IriTimer()
    fb_parser.normalize_iri = timer
    config = ParserConfig()
    report = ParseReport(max_errors=MAX_ERRORS)
    lint: Counter = Counter()
    counts: dict = {}
    schemas: dict = {}
    merge_map = MergeMap()
    notations: list = []
    assertions: list = []
    predicates: set = set()
    fed = useful = bytes_read = 0
    writer = None
    shard_dir = None
    try:
        with tracer.span("pipeline.partition"):
            if shard_root is not None:
                shard_dir = os.path.join(shard_root, f"{part.index:05d}")
                writer = SliceWriter(shard_dir, config.namespace, DEFAULT_SLICE_LAYOUT)
            lines = iter_partition_lines(part)
            line_number = 0
            while True:
                with tracer.span("parser.read"):
                    raw = list(islice(lines, BATCH_LINES))
                    bytes_read += sum(map(len, raw))
                if not raw:
                    break
                with tracer.span("parser.decode"):
                    texts = [_decode(r.rstrip(b"\r\n"), report) for r in raw]
                with tracer.span("parser.parse") as parse_id:
                    parse_start = time.perf_counter()
                    triples = []
                    for text in texts:
                        line_number += 1
                        try:
                            triple = parse_line(text, config, report.lint)
                        except MalformedLineError as exc:
                            report.record_malformed(line_number, exc.reason)
                            continue
                        report.record_ok()
                        triples.append(triple)
                    model_s = timer.take()
                    tracer.add("model.normalize_iri", parse_start, parse_start + model_s, parse_id)
                with tracer.span("trace.tally"):
                    predicates.update([t.predicate for t in triples])
                if command in ("slice", "study"):
                    with tracer.span("slicer.fold"):
                        keyed = []
                        for triple in triples:
                            if isinstance(triple.predicate, Mid):
                                lint["mid-predicate"] += 1
                                continue
                            key = classify_predicate(triple.predicate)
                            counts[key] = counts.get(key, 0) + 1
                            if writer is not None:
                                keyed.append((key, triple))
                    if writer is not None:
                        with tracer.span("slicer.write"):
                            for key, triple in keyed:
                                writer.write(key, triple)
                if command == "study":
                    with tracer.span("schema.fold"):
                        schema_config = SchemaConfig()
                        for triple in triples:
                            fed += 1
                            subject = triple.subject
                            if isinstance(subject, IdPath):
                                before = _schema_size(schemas, subject.domain)
                                feed_schema_triple(schemas, triple, schema_config, lint)
                                useful += _schema_size(schemas, subject.domain) != before
                            else:
                                feed_schema_triple(schemas, triple, schema_config, lint)
                if command == "semantics":
                    with tracer.span("semantics.fold"):
                        for triple in triples:
                            feed_merge_edge(merge_map, triple, counters=lint)
                            feed_value_notation(notations, triple, False, lint)
                            assertion = match_type_assertion(triple)
                            if assertion is not None:
                                assertions.append(assertion)
            if writer is not None:
                with tracer.span("slicer.write"):
                    writer.close()
    finally:
        fb_parser.normalize_iri = timer.original
    if command == "slice":
        payload = {"counts": counts, "lint": lint, "shard_dir": shard_dir, "distinct": None}
    elif command == "study":
        payload = {"counts": counts, "schemas": schemas, "lint": lint}
    else:
        payload = {
            "merge_map": merge_map,
            "notations": notations,
            "assertions": assertions,
            "rules": set(),
            "lint": lint,
        }
    stats = {
        "iri_calls": timer.calls,
        "predicates": {render(p) for p in predicates},
        "schema_fed": fed,
        "schema_useful": useful,
        "bytes_read": bytes_read,
    }
    if in_process:
        return {"report": report, "payload": payload, "spans": tracer.spans, "stats": stats}
    with tracer.span("pipeline.pickle"):
        blob = pickle.dumps((report, payload), protocol=pickle.HIGHEST_PROTOCOL)
    return {"blob": blob, "spans": tracer.spans, "stats": stats}


def run_job(tracer: Tracer, command: str, partitions, shard_root):
    """run_partitioned's contract: in-process for one partition, else a pool."""
    results = []
    with tracer.span("pipeline.run") as run_id:
        if len(partitions) <= 1:
            for part in partitions:
                results.append(run_partition((command, part, shard_root, run_id, True)))
        else:
            context = multiprocessing.get_context("fork")  # the CLI's pool default on Linux
            with ProcessPoolExecutor(max_workers=min(WORKERS, len(partitions)), mp_context=context) as pool:
                jobs = [(command, part, shard_root, run_id, False) for part in partitions]
                results = list(pool.map(run_partition, jobs))
    payload_bytes = 0
    reports, payloads = [], []
    for result in results:
        tracer.spans.extend(result["spans"])
        if "blob" in result:
            payload_bytes += len(result["blob"])
            with tracer.span("pipeline.unpickle"):
                report, payload = pickle.loads(result["blob"])
        else:
            report, payload = result["report"], result["payload"]
        reports.append(report)
        payloads.append(payload)
    return reports, payloads, [r["stats"] for r in results], payload_bytes


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def run_command(tracer: Tracer, name: str, fixture: str, out: str) -> dict:
    workload = WORKLOADS[name]
    command = workload.command
    source = os.path.join(fixture, workload.input)
    materialize = "--materialize" in workload.extra
    docs: dict[str, str] = {}
    with tracer.span("cli.main"):
        with tracer.span("pipeline.plan"):
            partitions = plan_partitions([source], WORKERS)
        shard_root = os.path.join(out, "slices", ".parts") if materialize else None
        reports, payloads, stats, payload_bytes = run_job(tracer, command, partitions, shard_root)
        with tracer.span("pipeline.merge"):
            report = ParseReport(max_errors=MAX_ERRORS)
            for partial in reports:
                report = report.merge(partial)
            merge = {
                "slice": merge_slice_payloads,
                "study": merge_study_payloads,
                "semantics": merge_semantics_payloads,
            }[command]
            merged = merge(payloads)
            report.lint.update(merged["lint"])
        if materialize:
            with tracer.span("pipeline.concat"):
                concatenate_shards(merged["shard_dirs"], os.path.join(out, "slices"))
        if command == "slice":
            with tracer.span("slicer.taxonomy"):
                taxonomy = build_taxonomy(merged["counts"], GroupConfig(DEFAULT_IMPLEMENTATION_DOMAINS))
            with tracer.span("report.render"):
                for fmt, suffix in TAXONOMY_FORMATS:
                    docs[f"taxonomy.{suffix}"] = render_taxonomy(taxonomy, fmt)
        elif command == "study":
            exclude = ["music"]
            with tracer.span("pipeline.join"):
                rows, _ = join_study_rows(merged["counts"], merged["schemas"], GroupConfig(DEFAULT_IMPLEMENTATION_DOMAINS))
            with tracer.span("stats.study"):
                result = run_study(rows, exclude)
            with tracer.span("report.render"):
                points = build_scatter_points(rows, exclude)
                docs.update(ReportBundle(study=result, scatter=points).documents())
        else:
            with tracer.span("semantics.resolve"):
                buffer = io.StringIO()
                write_merge_tsv(merged["merge_map"], buffer, CyclePolicy.FAIL)
                docs["merges.tsv"] = buffer.getvalue()
            with tracer.span("report.render"):
                docs["valuenotes.csv"] = _csv_text(
                    ("property", "object", "kind", "orientation"),
                    (
                        (render(n.property), render(n.object), n.kind.value, n.orientation)
                        for n in merged["notations"]
                    ),
                )
            with tracer.span("semantics.check"):
                rules = set(merged["rules"])
                with open(os.path.join(fixture, "rules.tsv"), "r", encoding="utf-8") as handle:
                    rules |= load_rules(handle)
                violations = check_incompatibilities(merged["assertions"], rules)
            with tracer.span("report.render"):
                docs["violations.csv"] = _csv_text(
                    ("mid", "type_a", "type_b"),
                    ((render(v.mid), render(v.type_a), render(v.type_b)) for v in violations),
                )
        with tracer.span("report.render"):
            docs["parse_report.json"] = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        with tracer.span("cli.write"):
            for rel, text in docs.items():
                _write(os.path.join(out, rel), text)
    counts = {
        "lines": report.lines_read,
        "malformed": report.lines_malformed,
        "triples": report.triples_ok,
        "iri_calls": sum(s["iri_calls"] for s in stats),
        "distinct_predicates": len(set().union(*(s["predicates"] for s in stats))),
        "schema_fed": sum(s["schema_fed"] for s in stats),
        "schema_useful": sum(s["schema_useful"] for s in stats),
        "bytes_read": sum(s["bytes_read"] for s in stats),
        "payload_bytes": payload_bytes,
        "partitions": len(partitions),
    }
    if command == "semantics":
        counts["assertions"] = len(merged["assertions"])
        counts["edges"] = len(merged["merge_map"].edges)
        counts["notations"] = len(merged["notations"])
    if materialize:
        counts["bytes_written"] = sum(
            os.path.getsize(os.path.join(base, f))
            for base, _, files in os.walk(os.path.join(out, "slices"))
            for f in files
        )
    return counts


# --- span analysis ---------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def analyse(spans, root_id) -> dict:
    """Self time per span name, coverage of the root, and partition balance.

    A span's self time is its duration minus the union of its children's
    intervals, clipped to it; children may run in parallel in other processes.
    """
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        children[parent].append((start, end))
    self_s: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _ in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children[span_id] if e > start and s < end]
        self_s[name] += (end - start) - _union_length(inside)
    root = next(s for s in spans if s[0] == root_id)
    partitions = [s for s in spans if s[1] == "pipeline.partition"]
    durations = [p[3] - p[2] for p in partitions]
    return {
        "self_s": dict(self_s),
        "wall_s": root[3] - root[2],
        "coverage": _union_length([(s[2], s[3]) for s in spans if s[0] != root_id]) / (root[3] - root[2]),
        "partition_coverage": sum(_union_length(children[p[0]]) for p in partitions) / sum(durations),
        "partition_skew": max(durations) / (sum(durations) / len(durations)),
    }


def main() -> int:
    name, fixture, work = sys.argv[1:4]
    out = os.path.join(work, "out")
    tracer = Tracer()
    with tracer.span("trace.process", start=PROCESS_START) as root_id:
        tracer.add("cli.import", PROCESS_START, IMPORTS_DONE, root_id)
        counts = run_command(tracer, name, fixture, out)
    result = {"counts": counts, **analyse(tracer.spans, root_id)}
    result["spans"] = [[list(s[0]), s[1], s[2], s[3], list(s[4]) if s[4] else None] for s in tracer.spans]
    with open(os.path.join(work, "trace.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
