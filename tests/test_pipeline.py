import gzip
import io
import os
import pickle
import random
import signal
import threading
from collections import Counter
from dataclasses import dataclass, field

import pytest

from conftest import lit_line, obj_line
from dumpgen import random_dump_lines
from fbont import parser as parser_module
from fbont import pipeline
from fbont.model import Mid, idpath
from fbont.parser import (
    ParseReport,
    ParserConfig,
    Projection,
    StreamAbortedError,
    iter_triples,
    parse_line,
    serialize,
)
from fbont.pipeline import (
    Job,
    Partition,
    SchemaFold,
    SemanticsFold,
    SliceFold,
    concatenate_shards,
    iter_partition_lines,
    join_study_rows,
    merge_payloads,
    merge_semantics_payloads,
    merge_slice_payloads,
    merge_study_payloads,
    plan_partitions,
    run_partitioned,
)
from fbont.schema import SchemaConfig, extract_schema
from fbont.semantics import IncompatibilityRule
from fbont.slicer import DOMAIN, SliceKey, SliceWriter, slice_stream
from fbont.stats import StudyRow

from test_cli import read_tree
from test_schema import SCHEMA_FIXTURE, parse_fixture


def write_lines(tmp_path, lines, name="dump.nt"):
    path = tmp_path / name
    path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    return str(path)


class TestPartitionPlanning:
    def test_single_worker_single_partition(self, tmp_path):
        path = write_lines(tmp_path, random_dump_lines(10))
        parts = plan_partitions([path], 1)
        assert parts == [Partition(path, 0, -1, 0)]

    def test_plain_file_splits_cover_everything(self, tmp_path):
        lines = random_dump_lines(1_000, seed=1)
        path = write_lines(tmp_path, lines)
        parts = plan_partitions([path], 7)
        assert len(parts) == 7
        collected = []
        for part in parts:
            collected.extend(iter_partition_lines(part))
        with open(path, "rb") as handle:
            assert b"".join(collected) == handle.read()

    def test_gzip_is_one_partition(self, tmp_path):
        data = "".join(l + "\n" for l in random_dump_lines(50))
        path = tmp_path / "dump.nt.gz"
        path.write_bytes(gzip.compress(data.encode()))
        parts = plan_partitions([str(path)], 8)
        assert len(parts) == 1
        assert parts[0].end == -1
        text = b"".join(iter_partition_lines(parts[0])).decode()
        assert text == data

    def test_gzip_ranges_cover_every_line_once(self, tmp_path, monkeypatch):
        rng = random.Random(7)
        noise = bytes(rng.randrange(32, 127) for _ in range(40_000))  # spans several compressed reads
        lines = [l.encode() for l in random_dump_lines(2_000, seed=5, malformed_rate=0.1)]
        lines[100:100] = [b"", b"<http://a>\t<http://b>\t<http://c>\t.\r", b"\r", b""]
        lines[500:500] = [b""] * 300_000  # over one decompressed read: reads that end at a line end
        lines[900:900] = [b"x" * 1_200_000, noise]  # longer than several decompressed reads
        last = b"\n<http://a>\t<http://b>\t<http://c>\t."  # no final newline
        text = b"\n".join(lines) + last
        # the same lines and more that barely compress: over 3 x 128 KiB of gzip
        printable = bytes(32 + i % 95 for i in range(256))
        for at in range(lines.index(noise) + 1_000, 0, -100):
            lines.insert(at, rng.randbytes(rng.randrange(1, 40_000)).translate(printable))
        wide = b"\n".join(lines) + last

        def two_member_gzip(name, data):
            path = tmp_path / name
            cut = len(data) // 3
            path.write_bytes(gzip.compress(data[:cut], 1) + gzip.compress(data[cut:], 9))
            return path

        monkeypatch.setattr(pipeline, "GZIP_MIN_RANGE", 1)
        path = two_member_gzip("wide.nt.gz", wide)
        assert path.stat().st_size > 3 * 128 * 1024
        for workers in (2, 3, 5, 8, 16):
            parts = plan_partitions([str(path)], workers)
            assert len(parts) == workers
            owned = [list(iter_partition_lines(part)) for part in parts]
            assert b"".join(l for lines in owned for l in lines) == wide
            assert sum(1 for lines in owned if lines) >= min(workers, 5)
        # every cut at or next to a point where a read of the range loop ends
        path = two_member_gzip("dump.nt.gz", text)
        size = path.stat().st_size
        with open(path, "rb") as raw, gzip.GzipFile(fileobj=parser_module._CappedReads(raw)) as unzipped:
            ends = set()
            while unzipped.read1(parser_module._INFLATE_READ):
                ends.add(raw.tell())
        assert len(ends) > 5
        for cut in sorted({c + d for c in ends for d in (-1, 0, 1)} & set(range(1, size))):
            first = list(iter_partition_lines(Partition(str(path), 0, cut, 0)))
            second = list(iter_partition_lines(Partition(str(path), cut, size, 1)))
            assert b"".join(first + second) == text

    @pytest.mark.parametrize("compress", [False, True])
    def test_pipe_loses_no_bytes(self, tmp_path, compress):
        data = "".join(l + "\n" for l in random_dump_lines(3_000)).encode()
        fifo = tmp_path / "dump.fifo"
        os.mkfifo(fifo)
        payload = gzip.compress(data) if compress else data
        writer = threading.Thread(target=fifo.write_bytes, args=(payload,), daemon=True)
        writer.start()

        def stuck(signum, frame):
            raise TimeoutError("reading the pipe blocked: was it opened twice?")

        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(10)
        try:
            parts = plan_partitions([str(fifo)], 4)
            assert parts == [Partition(str(fifo), 0, -1, 0)]
            assert b"".join(iter_partition_lines(parts[0])) == data
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        writer.join(10)
        assert not writer.is_alive()

    def test_small_gzip_is_one_partition(self, tmp_path, monkeypatch):
        empty = tmp_path / "empty.nt.gz"
        empty.write_bytes(gzip.compress(b""))
        small = tmp_path / "small.nt.gz"
        small.write_bytes(gzip.compress("".join(l + "\n" for l in random_dump_lines(500)).encode()))
        size = small.stat().st_size
        assert plan_partitions([str(empty)], 8) == [Partition(str(empty), 0, -1, 0)]
        monkeypatch.setattr(pipeline, "GZIP_MIN_RANGE", size // 2 + 1)
        assert plan_partitions([str(small)], 8) == [Partition(str(small), 0, -1, 0)]
        monkeypatch.setattr(pipeline, "GZIP_MIN_RANGE", size // 2)
        assert len(plan_partitions([str(small)], 8)) == 2

    def test_boundary_never_duplicates_or_drops(self, tmp_path):
        lines = ["<http://a>\t<http://b>\t<http://c>\t."] * 100
        path = write_lines(tmp_path, lines)
        size = os.path.getsize(path)
        for cut in (0, 1, 17, size // 2, size - 1, size):
            first = list(iter_partition_lines(Partition(path, 0, cut, 0)))
            second = list(iter_partition_lines(Partition(path, cut, size, 1)))
            assert len(first) + len(second) == 100

    def test_multiple_inputs_in_order(self, tmp_path):
        a = write_lines(tmp_path, random_dump_lines(10, seed=1), "a.nt")
        b = write_lines(tmp_path, random_dump_lines(10, seed=2), "b.nt")
        parts = plan_partitions([a, b], 2)
        assert [p.path for p in parts] == [a, a, b, b]
        assert [p.index for p in parts] == [0, 1, 2, 3]


class TestBlockReader:
    @pytest.mark.parametrize("cap", [1, 3, 16 * 1024])
    def test_every_three_way_split_owns_each_line_once(self, tmp_path, monkeypatch, cap):
        monkeypatch.setattr(parser_module, "_BLOCK", cap)
        data = b"a\n\nbcd\nefghij\r\nk\n\n\nlmnopq\n" + b"x" * 9 + b"\nrs"  # no final newline
        path = str(tmp_path / "dump.nt")
        with open(path, "wb") as handle:
            handle.write(data)
        size = len(data)
        for a in range(size + 1):
            for b in range(a, size + 1):
                bounds = [(0, a), (a, b), (b, size)]
                owned = [list(iter_partition_lines(Partition(path, s, e, i))) for i, (s, e) in enumerate(bounds)]
                assert b"".join(line for lines in owned for line in lines) == data, (a, b)
                for i, (s, e) in enumerate(bounds):  # a block over the cap is one line
                    for block in pipeline.partition_blocks(Partition(path, s, e, i)):
                        assert block and (len(block) <= cap or block.count(b"\n") <= 1)


class TestWorkerEquivalence:
    def test_slice_job_identical_across_worker_counts(self, tmp_path):
        lines = random_dump_lines(5_000, seed=3, malformed_rate=0.02)
        path = write_lines(tmp_path, lines)
        results = {}
        for workers in (1, 4, 16):
            parts = plan_partitions([path], workers)
            report, payloads = run_partitioned(Job((SliceFold(),)), parts, workers)
            merged = merge_slice_payloads(payloads)
            results[workers] = (report, merged["counts"])
        assert results[1] == results[4] == results[16]

    def test_materialized_slices_identical_across_worker_counts(self, tmp_path):
        lines = random_dump_lines(2_000, seed=8)
        path = write_lines(tmp_path, lines)
        outputs = {}
        for workers in (1, 4):
            out_dir = tmp_path / f"slices_w{workers}"
            shard_root = str(out_dir / ".parts")
            parts = plan_partitions([path], workers)
            _, payloads = run_partitioned(Job((SliceFold(shard_root),)), parts, workers)
            merged = merge_slice_payloads(payloads)
            concatenate_shards(merged["shard_dirs"], str(out_dir))
            tree = {}
            for root, _, files in os.walk(out_dir):
                for name in files:
                    full = os.path.join(root, name)
                    with open(full, "rb") as handle:
                        tree[os.path.relpath(full, out_dir)] = handle.read()
            outputs[workers] = tree
        assert outputs[1] == outputs[4]
        assert not (tmp_path / "slices_w1" / ".parts").exists()

    def test_study_job_across_workers(self, tmp_path):
        from test_cli import study_fixture_lines

        lines, _ = study_fixture_lines()
        path = write_lines(tmp_path, lines)
        outcomes = {}
        for workers in (1, 5):
            parts = plan_partitions([path], workers)
            report, payloads = run_partitioned(Job((SliceFold(), SchemaFold())), parts, workers)
            merged = merge_study_payloads(payloads)
            rows, skipped = join_study_rows(merged["counts"], merged["schemas"])
            outcomes[workers] = (report, rows, skipped)
        assert outcomes[1] == outcomes[5]

    def test_semantics_job_across_workers(self, tmp_path):
        lines = [obj_line(f"m.d{i}", "dataworld.gardening_hint.replaced_by", f"m.c{i % 5}") for i in range(200)]
        lines += [obj_line(f"people.person.p{i}", "freebase.valuenotation.has_value", f"m.x{i}") for i in range(30)]
        path = write_lines(tmp_path, lines)
        merged = {}
        for workers in (1, 6):
            parts = plan_partitions([path], workers)
            _, payloads = run_partitioned(Job((SemanticsFold(),)), parts, workers)
            result = merge_semantics_payloads(payloads)
            merged[workers] = (result["merge_map"].edges, result["notations"])
        assert merged[1] == merged[6]


class TestJoinStudyRows:
    def test_joins_subject_matter_only(self, tmp_path):
        data_lines = []
        for i in range(10):
            data_lines.append(obj_line(f"m.s{i}", "people.person.spouse_s", f"m.o{i}"))
        for i in range(4):
            data_lines.append(obj_line(f"m.s{i}", "film.film.directed_by", f"m.o{i}"))
        lines = SCHEMA_FIXTURE + data_lines
        path = write_lines(tmp_path, lines)
        parts = plan_partitions([path], 1)
        _, payloads = run_partitioned(Job((SliceFold(), SchemaFold())), parts, 1)
        merged = merge_study_payloads(payloads)
        rows, skipped = join_study_rows(merged["counts"], merged["schemas"])
        by_domain = {r.domain: r for r in rows}
        # schema triples live under /type and /common: implementation, not counted here
        assert by_domain["people"].triple_count == 10
        assert by_domain["people"].complexity == 2.0
        assert by_domain["film"].triple_count == 4
        # music has schema but no subject-matter triples, so no slice count row
        assert "music" not in by_domain

    def test_domains_without_schema_are_skipped(self):
        counts = {SliceKey(DOMAIN, "zoo"): 5, SliceKey(DOMAIN, "film"): 2}
        schemas = extract_schema(parse_fixture(SCHEMA_FIXTURE))
        rows, skipped = join_study_rows(counts, schemas)
        assert [r.domain for r in rows] == ["film"]
        assert skipped == ["zoo"]
        assert rows[0] == StudyRow("film", 2, (3 + 1) / (1 + 2))


# --- projection: folds declare what they read -------------------------------------

# Lines that reach every branch of every fold under the default and the custom
# configs below, including each branch's lint.
PROBE_LINES = SCHEMA_FIXTURE + random_dump_lines(400, seed=5, malformed_rate=0.05) + [
    lit_line("people", "common.topic.description", "domain-level doc"),
    lit_line("people.person.name.x", "common.topic.description", "too deep"),
    obj_line("people.person", "type.property.expected_type", "type.text"),
    obj_line("people.person.name", "type.object.type", "type.type"),
    obj_line("people.person", "type.object.type", "type.property"),
    obj_line("people", "type.object.type", "type.type"),
    lit_line("people", "type.object.name", "People"),
    lit_line("people.person", "type.object.name", "Person"),
    obj_line("base.pets", "base.schema.owner", "m.a"),
    lit_line("base", "base.schema.note", "x"),
    lit_line("base.pets", "base.custom.describes", "custom doc"),
    lit_line("base", "base.custom.describes", "custom doc"),
    obj_line("base.pets.name", "base.custom.detail", "type.text"),
    obj_line("m.a", "base.custom.detail", "type.text"),
    obj_line("m.a", "type.property.expected_type", "type.text"),
    obj_line("m.a", "type.property.unique", "m.b"),
    obj_line("m.a", "common.topic.description", "m.b"),
    lit_line("m.a", "type.object.name", "A"),
    obj_line("m.a", "m.b", "m.c"),
    obj_line("people.person", "m.b", "m.c"),
    obj_line("base.pets.name", "base.custom.is_a", "type.property"),
    obj_line("m.a", "base.custom.is_a", "film.film"),
    obj_line("m.a", "dataworld.gardening_hint.replaced_by", "m.b"),
    lit_line("m.a", "dataworld.gardening_hint.replaced_by", "m.b"),
    obj_line("m.c", "base.custom.replaced", "m.d"),
    obj_line("film.film", "base.custom.replaced", "m.d"),
    obj_line("people.person.name", "freebase.valuenotation.has_value", "m.a"),
    obj_line("m.a", "freebase.valuenotation.has_no_value", "people.person.name"),
    lit_line("m.a", "freebase.valuenotation.has_value", "x"),
    obj_line("m.a", "type.object.type", "people.person"),
    obj_line("m.b", "type.object.type", "film.film"),
    obj_line("people.person", "base.rules.incompatible_with", "film.film"),
    obj_line("people.person", "base.rules.incompatible_with", "people.person"),
]

CUSTOM_SCHEMA = SchemaConfig(
    schema_domains=frozenset({"type", "base"}),
    description_predicate=idpath("/base/custom/describes"),
    detail_predicates=frozenset({idpath("/base/custom/detail")}),
    type_declaration_predicate=idpath("/base/custom/is_a"),
)
CUSTOM_SEMANTICS = SemanticsFold(
    replaced_by=idpath("/base/custom/replaced"),
    type_predicate=idpath("/base/custom/is_a"),
    incompatibility_predicate=idpath("/base/rules/incompatible_with"),
    accept_reversed=True,
)
PROJECTING_FOLDS = {
    "slice": SliceFold(),
    "schema": SchemaFold(),
    "schema-custom": SchemaFold(CUSTOM_SCHEMA),
    "semantics": SemanticsFold(),
    "semantics-custom": CUSTOM_SEMANTICS,
}


@dataclass(frozen=True)
class ReadsEverything:
    """A fold with no payload that reads every triple, so Job.run projects nothing."""

    def reads(self, predicate, mid_subject):
        return True

    def start(self, part, parser, lint):
        return (lambda triple: None), (lambda tallies: None), dict


@dataclass(frozen=True)
class Recorder:
    """A fold that reads nothing and keeps the triples and tallies Job.run hands it."""

    fed: list = field(default_factory=list)
    absorbed: list = field(default_factory=list)

    def reads(self, predicate, mid_subject):
        return False

    def start(self, part, parser, lint):
        return self.fed.append, self.absorbed.extend, dict


def built_and_counted(folds, path):
    """Run the folds over the whole file in-process: (lines built, tallies, report)."""
    recorder = Recorder()
    report, _ = Job(folds + (recorder,)).run(Partition(path, 0, -1, 0))
    assert len(recorder.fed) + sum(count for _, _, count in recorder.absorbed) == report.triples_ok
    return len(recorder.fed), recorder.absorbed, report


class TestProjection:
    @pytest.mark.parametrize("name", sorted(PROJECTING_FOLDS))
    def test_projected_triple_feeds_like_the_full_one(self, name):
        """The lines built and fed plus the tallies absorbed fold like every full triple fed."""
        fold = PROJECTING_FOLDS[name]
        part = Partition("-", 0, -1, 0)
        full_report, projected_report = ParseReport(), ParseReport()
        feed_full, absorb_full, finish_full = fold.start(part, ParserConfig(), full_report.lint)
        feed_projected, absorb, finish_projected = fold.start(part, ParserConfig(), projected_report.lint)
        projection = Projection(fold.reads)
        full = list(iter_triples(PROBE_LINES, full_report))
        projected = list(iter_triples(PROBE_LINES, projected_report, ParserConfig(), projection))
        for triple in full:
            feed_full(triple)
        for triple in projected:
            feed_projected(triple)
        absorb_full([])
        tallies = projection.tallies()
        absorb(tallies)
        assert finish_full() == finish_projected()
        assert full_report.to_dict() == projected_report.to_dict()
        read = [t for t in full if fold.reads(t.predicate, isinstance(t.subject, Mid))]
        remaining = iter(projected)
        assert all(triple in remaining for triple in read)  # every read line is built, in order
        assert not any(fold.reads(predicate, mid) for predicate, mid, _ in tallies)
        counted = sum(count for _, _, count in tallies)
        assert len(projected) + counted == len(full)
        assert counted > 100
        assert name == "slice" or len(read) > 3

    def test_mid_subjects_are_counted_for_schema_and_linted(self):
        lines = [
            obj_line("m.a", "type.property.expected_type", "type.text"),
            obj_line("m.a", "type.object.type", "people.person"),
            obj_line("people.person.name", "type.property.expected_type", "type.text"),
        ]
        projection = Projection(SchemaFold().reads)
        report = ParseReport()
        assert list(iter_triples(lines, report, ParserConfig(), projection)) == [parse_line(lines[2])]
        feed, absorb, finish = SchemaFold().start(Partition("-", 0, -1, 0), ParserConfig(), report.lint)
        absorb(projection.tallies())
        assert report.lint == Counter({"unattributable-detail": 1})

    def test_folds_reading_every_triple_disable_projection(self, tmp_path):
        path = write_lines(tmp_path, PROBE_LINES)
        for folds in [
            (SliceFold(), SchemaFold(), SemanticsFold()),
            (SliceFold(count_distinct=True),),
            (SliceFold(shard_root=str(tmp_path / "parts")), SchemaFold()),
        ]:
            built, tallies, report = built_and_counted(folds, path)
            assert tallies and built < report.triples_ok, folds
        built, tallies, report = built_and_counted((SemanticsFold(), ReadsEverything()), path)
        assert tallies == [] and built == report.triples_ok > 300

    @pytest.mark.parametrize("workers", [1, 3])
    def test_job_output_is_the_same_with_and_without_projection(self, tmp_path, workers):
        path = write_lines(tmp_path, PROBE_LINES + random_dump_lines(2_000, seed=9, malformed_rate=0.02))
        parts = plan_partitions([path], workers)
        fold_sets = [
            (SliceFold(),),
            (SliceFold(), SchemaFold()),
            (SliceFold(), SchemaFold(CUSTOM_SCHEMA)),
            (SemanticsFold(),),
            (CUSTOM_SEMANTICS,),
            (SliceFold(), SchemaFold(CUSTOM_SCHEMA), CUSTOM_SEMANTICS),
        ]
        for folds in fold_sets:
            projected = Job(folds)
            unprojected = Job(folds + (ReadsEverything(),))
            assert built_and_counted(projected.folds, path)[1]
            assert built_and_counted(unprojected.folds, path)[1] == []
            report, payloads = run_partitioned(projected, parts, workers)
            ref_report, ref_payloads = run_partitioned(unprojected, parts, workers)
            assert report.to_dict() == ref_report.to_dict(), folds
            assert merge_payloads(payloads) == merge_payloads(ref_payloads), folds

    def test_aborted_partition_report_keeps_tallied_lint(self, tmp_path, monkeypatch):
        path = write_lines(tmp_path, PROBE_LINES * 2)
        real_blocks = pipeline.partition_blocks

        def failing_blocks(part):  # one line per block, then a read error
            for number, text in enumerate(io.BytesIO(b"".join(real_blocks(part)))):
                if number == len(PROBE_LINES) + 40:
                    raise OSError(5, "Input/output error")
                yield text

        monkeypatch.setattr(pipeline, "partition_blocks", failing_blocks)
        reports = []
        for folds in [(SliceFold(), SchemaFold()), (SliceFold(), SchemaFold(), ReadsEverything())]:
            with pytest.raises(StreamAbortedError) as caught:
                Job(folds).run(Partition(path, 0, -1, 0))
            reports.append(caught.value.report.to_dict())
        assert reports[0] == reports[1]
        assert reports[0]["lint"]["mid-predicate"] > 0
        assert reports[0]["lint"]["unattributable-detail"] > 0


# --- copied slices -------------------------------------------------------------------
#
# A Job with a materializing SliceFold copies each slice's lines in the block
# scan: a canonical line as it was read, any other line as its serialize
# text, at its place in the scan. The slice files must equal what
# SliceWriter writes for iter_triples' triples, in input order.

FB = "http://rdf.freebase.com/ns/"


def alternating_lines(groups=40):
    """Lines of one slice alternating canonical and rewritten ones, with others between."""
    lines = []
    for i in range(groups):
        s, p = f"<{FB}m.0s{i}>", f"<{FB}people.person.p{i % 3}>"
        lines += [
            f"{s}\t{p}\t<{FB}m.0o{i}>\t.",
            f'{s}\t{p}\t"crlf {i}"@en\t.\r',
            f'{s}\t{p}\t"v{i}"\t.',
            f"{s} {p} <{FB}m.0x> .",
            f'{s}\t{p}\t"\\u0041b"\t.',
            f'{s}\t{p}\t"typed"^^<http://www.w3.org/2001/XMLSchema#string>\t.',
            f'{s}\t{p}\t"x\\uD800"\t.',
            f'{s}\t{p}\t"a\rb"@en\t.',
            f"{s}\t<{FB}m.0pred>\t<{FB}m.0o>\t.",
            f"{s}\t<{FB}film.film.genre>\t<{FB}m.0g{i}>\t.",
            f"{s}\t{p}\tbroken\t.",
        ]
    return lines


REWRITTEN_PER_GROUP = 4  # space-separated, two escapes, raw CR


def copied_slices(path, out_dir, workers, parser=ParserConfig()):
    """Slice files of a materializing, distinct-counting Job, its partitions run in-process."""
    fold = SliceFold(str(out_dir / ".parts"), count_distinct=True)
    report, payloads = run_partitioned(Job((fold,), parser), plan_partitions([path], workers), 1)
    merged = merge_payloads(payloads)
    concatenate_shards(merged["shard_dirs"], str(out_dir))
    return report, merged, read_tree(out_dir)


class TestCopiedSlices:
    @pytest.mark.parametrize("cap", [1, 17, 64, 300, 16 * 1024])
    def test_slice_files_equal_the_built_triples_written_in_order(self, tmp_path, monkeypatch, cap):
        path = write_lines(tmp_path, alternating_lines())
        monkeypatch.setattr(parser_module, "_BLOCK", cap)
        oracle_report = ParseReport()
        with SliceWriter(tmp_path / "oracle", FB) as writer:
            triples = list(iter_triples(path, oracle_report))
            oracle_counts = slice_stream(triples, writer, oracle_report.lint)
        oracle = read_tree(tmp_path / "oracle")
        assert len(oracle) == 2 and len(oracle["domain/people.nt"].splitlines()) == 40 * 8
        built = []

        class CountedTriple(parser_module.Triple):
            def __post_init__(self):
                super().__post_init__()
                built.append(self)

        monkeypatch.setattr(parser_module, "Triple", CountedTriple)
        for workers in (1, 2, 4):
            built.clear()
            report, merged, tree = copied_slices(path, tmp_path / f"w{workers}", workers)
            assert tree == oracle, workers
            assert report.to_dict() == oracle_report.to_dict()
            assert merged["counts"] == oracle_counts
            assert merged["distinct"] == {serialize(t) for t in triples if not isinstance(t.predicate, Mid)}
            assert len(built) == 40 * REWRITTEN_PER_GROUP  # the scan builds only what it cannot copy

    def test_crlf_lines_are_copied_without_building(self, tmp_path, monkeypatch):
        """A materializing SliceFold alone builds no canonical line, whatever CRs end it."""
        lines = random_dump_lines(500, seed=3)
        built = []

        class CountedTriple(parser_module.Triple):
            def __post_init__(self):
                super().__post_init__()
                built.append(self)

        monkeypatch.setattr(parser_module, "Triple", CountedTriple)
        trees = []
        for name, end in (("lf", "\n"), ("crlf", "\r\n")):
            path = tmp_path / f"{name}.nt"
            path.write_bytes("".join(text + end for text in lines).encode())
            out = tmp_path / name
            report, payload = Job((SliceFold(str(out / ".parts")),)).run(Partition(str(path), 0, -1, 0))
            concatenate_shards([payload["shard_dir"]], str(out))
            assert report.triples_ok == 500 and built == [], name
            trees.append(read_tree(out))
        assert trees[0] == trees[1] != {}

    def test_strict_ids_drops_a_nonstandard_predicate_line(self, tmp_path):
        odd = f'<{FB}m.0a>\t<{FB}people.Person.name>\t"odd"\t.'
        lines = [f'<{FB}m.0a>\t<{FB}people.person.name>\t"n{i}"\t.' for i in range(3)]
        path = write_lines(tmp_path, lines[:1] + [odd] + lines[1:])
        report, merged, tree = copied_slices(path, tmp_path / "lenient", 1)
        assert tree["domain/people.nt"].decode().splitlines() == lines[:1] + [odd] + lines[1:]
        assert report.lint["nonstandard-id"] == 1 and report.lines_malformed == 0
        report, merged, tree = copied_slices(path, tmp_path / "strict", 2, ParserConfig(strict_ids=True))
        assert tree["domain/people.nt"].decode().splitlines() == lines
        assert report.errors == [(2, "nonstandard-id")] and not report.lint
        assert merged["counts"] == {SliceKey(DOMAIN, "people"): 3} and len(merged["distinct"]) == 3

    @pytest.mark.parametrize("cap", [1, 64, 16 * 1024])
    def test_escaped_literals_are_copied_without_building(self, tmp_path, monkeypatch, cap):
        """Literals whose only escapes are \\\\ \\" \\n \\r \\t are copied from the scan."""
        lines = []
        for i in range(40):
            s, p = f"<{FB}m.0s{i}>", f"<{FB}people.person.p{i % 3}>"
            lines += [
                f'{s}\t{p}\t"line {i}\\nsecond \\"quoted\\""@en\t.',
                f'{s}\t{p}\t"\\ttab\\r\\n"\t.',
                f'{s}\t{p}\t"C:\\\\dir\\\\{i}"^^<http://www.w3.org/2001/XMLSchema#string>\t.',
                f'{s}\t{p}\t"a\\\\"\t.',
                f"{s}\t{p}\t<{FB}m.0o{i}>\t.",
                f"{s}\t<{FB}film.film.genre>\t\"\\\"{i}\\\"\"@en-GB\t.",
                f'{s}\t<http://www.w3.org/2000/01/rdf-schema#label>\t"x\\ty"@en\t.',
            ]
        path = write_lines(tmp_path, lines)
        monkeypatch.setattr(parser_module, "_BLOCK", cap)
        oracle_report = ParseReport()
        with SliceWriter(tmp_path / "oracle", FB) as writer:
            triples = list(iter_triples(path, oracle_report))
            oracle_counts = slice_stream(triples, writer, oracle_report.lint)
        oracle = read_tree(tmp_path / "oracle")
        assert sum(len(text.splitlines()) for text in oracle.values()) == len(lines)
        assert [line.encode() for line in lines[:4]] == oracle["domain/people.nt"].splitlines()[:4]
        built = []

        class CountedTriple(parser_module.Triple):
            def __post_init__(self):
                super().__post_init__()
                built.append(self)

        monkeypatch.setattr(parser_module, "Triple", CountedTriple)
        for workers in (1, 2, 4):
            report, merged, tree = copied_slices(path, tmp_path / f"w{workers}", workers)
            assert tree == oracle, workers
            assert report.to_dict() == oracle_report.to_dict()
            assert merged["counts"] == oracle_counts
            assert len(merged["distinct"]) == len(set(lines))
        assert built == []  # every line was copied as it was read


# --- copy beside other folds -------------------------------------------------------
#
# Copy is an extra action: a materializing SliceFold in a Job with other folds
# copies its slices' lines in the scan and changes nothing that the other
# folds are fed or absorb, so each line is built only where some fold reads it.

OTHER_FOLDS = (SchemaFold(CUSTOM_SCHEMA), CUSTOM_SEMANTICS)


def merged_run(folds, parts, out_dir=None):
    """(report dict, merged payload) of a Job over the partitions, run in-process."""
    report, payloads = run_partitioned(Job(folds), parts, 1)
    merged = merge_payloads(payloads)
    shard_dirs = merged.pop("shard_dirs", [])
    if out_dir is not None:
        concatenate_shards(shard_dirs, str(out_dir))
    return report.to_dict(), merged


def materializing(out_dir):
    return SliceFold(str(out_dir / ".parts"), count_distinct=True)


class TestCopyBesideOtherFolds:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_outputs_equal_the_separate_jobs(self, tmp_path, workers):
        lines = PROBE_LINES + alternating_lines() + random_dump_lines(2_000, seed=9, malformed_rate=0.02)
        parts = plan_partitions([write_lines(tmp_path, lines)], workers)
        together, alone = tmp_path / "together", tmp_path / "alone"
        report, merged = merged_run((materializing(together),) + OTHER_FOLDS, parts, together)
        slice_report, sliced = merged_run((materializing(alone),), parts, alone)
        other_report, others = merged_run(OTHER_FOLDS, parts)
        assert read_tree(together) == read_tree(alone) != {}
        assert merged.pop("counts") == sliced["counts"] and merged.pop("distinct") == sliced["distinct"]
        assert merged == others
        # the slice fold's one lint of its own is the mid-predicate count
        mid_predicates = report["lint"].pop("mid-predicate")
        assert mid_predicates == slice_report["lint"]["mid-predicate"] > 0
        assert report == other_report

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_builds_only_what_the_other_folds_read(self, tmp_path, monkeypatch, workers):
        lines = SCHEMA_FIXTURE + random_dump_lines(3_000, seed=4)
        lines += [lit_line(f"m.0n{i}", "people.Person.name", f"n{i}") for i in range(30)]  # nonstandard
        parts = plan_partitions([write_lines(tmp_path, lines)], workers)
        built = []

        class CountedTriple(parser_module.Triple):
            def __post_init__(self):
                super().__post_init__()
                built.append(self)

        monkeypatch.setattr(parser_module, "Triple", CountedTriple)
        merged_run(OTHER_FOLDS, parts)
        read = len(built)
        built.clear()
        merged_run((materializing(tmp_path / "out"),) + OTHER_FOLDS, parts, tmp_path / "out")
        assert len(built) == read > 0

    def test_two_copying_folds_are_refused(self, tmp_path):
        path = write_lines(tmp_path, random_dump_lines(10))
        job = Job((SliceFold(count_distinct=True), SliceFold(str(tmp_path / "parts"))))
        with pytest.raises(ValueError, match="one fold"):
            job.run(Partition(path, 0, -1, 0))


# --- the semantics fold keeps only the type assertions a known rule can use ------

NAMED_TYPES = ("film.film", "film.film_series", "tv.tv_series", "book.book")
KNOWN_RULES = frozenset(
    {
        IncompatibilityRule(idpath("/film/film"), idpath("/film/film_series")),
        IncompatibilityRule(idpath("/tv/tv_series"), idpath("/book/book")),
    }
)
KEEP_ALL = {"known_rules": KNOWN_RULES, "incompatibility_predicate": idpath("/base/incompatible/with")}


def typed_lines(seed):
    """Type assertions of the named types and of unnamed ones, among other lines."""
    rng = random.Random(seed)
    types = NAMED_TYPES + ("people.person", "location.location")
    lines = random_dump_lines(500, seed=seed, malformed_rate=0.02)
    lines += [obj_line(f"m.t{rng.randrange(80)}", "type.object.type", rng.choice(types)) for _ in range(600)]
    lines += [obj_line(f"m.t{i}", "type.object.type", f"m.x{i}") for i in range(10)]  # no type object
    rng.shuffle(lines)
    return lines


def semantics_payload(path, **fold):
    return Job((SemanticsFold(**fold),)).run(Partition(path, 0, -1, 0))[1]


class TestSemanticsRetainedState:
    def test_assertions_of_unnamed_types_leave_no_trace(self, tmp_path):
        lines = typed_lines(seed=6)
        extra = [obj_line(f"m.e{i}", "type.object.type", "zoo.animal") for i in range(5_000)]
        padded, rng = list(lines), random.Random(7)
        for line in extra:  # among the other lines, which keep their order
            padded.insert(rng.randrange(len(padded) + 1), line)
        plain = write_lines(tmp_path, lines, "plain.nt")
        path = write_lines(tmp_path, padded, "padded.nt")
        kept = semantics_payload(plain, known_rules=KNOWN_RULES)["assertions"]
        padded_kept = semantics_payload(path, known_rules=KNOWN_RULES)["assertions"]
        assert padded_kept == kept and pickle.dumps(padded_kept) == pickle.dumps(kept)
        everything = semantics_payload(path)["assertions"]
        assert len(everything) == len(semantics_payload(plain)["assertions"]) + 5_000
        assert kept == [(mid, t) for mid, t in everything if t.domain in ("film", "tv", "book")]
        # with rules that can come from the dump, every assertion is kept
        assert semantics_payload(path, **KEEP_ALL)["assertions"] == everything

    @pytest.mark.parametrize(
        "fold", [{}, {"known_rules": KNOWN_RULES}, KEEP_ALL], ids=["default", "filter", "keep-all"]
    )
    def test_one_object_per_asserted_type(self, tmp_path, fold):
        assertions = semantics_payload(write_lines(tmp_path, typed_lines(seed=8)), **fold)["assertions"]
        assert assertions
        assert len({id(t) for _, t in assertions}) == len({t for _, t in assertions})
