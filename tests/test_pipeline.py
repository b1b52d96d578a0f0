import gzip
import io
import os
import pickle
import random
import shutil
import signal
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from conftest import RUN_ROOT, dump_stream, lit_line, obj_line, read_masks, read_notations
from dumpgen import random_dump_lines
from fbont import parser as parser_module
from fbont import pipeline, semantics
from fbont.model import IdPath, Mid, idpath
from fbont.parser import (
    MalformedLineError,
    ParseReport,
    ParserConfig,
    Projection,
    StreamAbortedError,
    iter_triples,
    parse_line,
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
    plan_partitions,
    run_partitioned,
)
from fbont.schema import DomainSchema, SchemaConfig
from fbont.semantics import (
    IncompatibilityRule,
    check_incompatibilities,
    feed_value_notation,
    match_type_assertion,
    type_bits,
)
from fbont.slicer import DOMAIN, SliceKey, SliceWriter, count_slice
from fbont.stats import StudyRow

from test_cli import read_tree
from test_schema import SCHEMA_FIXTURE, fixture_schemas


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

    def test_no_plain_range_is_empty(self, tmp_path):
        """An empty file is one in-process partition, and a file of fewer
        bytes than workers gets one range per byte."""
        empty = tmp_path / "empty.nt"
        empty.write_bytes(b"")
        assert plan_partitions([str(empty)], 8) == [Partition(str(empty), 0, -1, 0)]
        tiny = tmp_path / "tiny.nt"
        tiny.write_bytes(b"x\ny")
        parts = plan_partitions([str(tiny)], 8)
        assert [(part.start, part.end) for part in parts] == [(0, 1), (1, 2), (2, 3)]
        assert b"".join(line for part in parts for line in iter_partition_lines(part)) == b"x\ny"

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
            report, merged = run_partitioned(Job((SliceFold(),)), parts, workers)
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
            _, merged = run_partitioned(Job((SliceFold(shard_root),)), parts, workers)
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

    def test_each_output_is_its_first_shard_file_moved_into_place(self, tmp_path):
        """The first partition's piece of an output becomes the output (same inode),
        the later pieces are appended in partition order, and the relpaths are the shards' own."""
        path = write_lines(tmp_path, random_dump_lines(2_000, seed=8))
        parts = plan_partitions([path], 4)
        _, merged = run_partitioned(Job((SliceFold(str(tmp_path / ".parts")),)), parts, 1)
        shard_dirs = merged["shard_dirs"]
        pieces, inodes = {}, {}  # each relpath's pieces, in partition order, and its first piece's inode
        for shard_dir in shard_dirs:
            for root, _, files in os.walk(shard_dir):
                for name in files:
                    full = os.path.join(root, name)
                    rel = os.path.relpath(full, shard_dir)
                    pieces.setdefault(rel, []).append(Path(full).read_bytes())
                    inodes.setdefault(rel, os.stat(full).st_ino)
        first = {rel for rel in pieces if os.path.exists(os.path.join(shard_dirs[0], rel))}
        assert first and any(len(found) > 1 for found in pieces.values())
        out = tmp_path / "slices"
        assert concatenate_shards(shard_dirs, str(out)) == sorted(pieces)
        for rel, found in pieces.items():
            assert os.stat(out / rel).st_ino == inodes[rel], rel
            assert (out / rel).read_bytes() == b"".join(found), rel
        assert not any(os.path.exists(shard_dir) for shard_dir in shard_dirs)

    def test_study_job_across_workers(self, tmp_path):
        from test_cli import study_fixture_lines

        lines, _ = study_fixture_lines()
        path = write_lines(tmp_path, lines)
        outcomes = {}
        for workers in (1, 5):
            parts = plan_partitions([path], workers)
            report, merged = run_partitioned(Job((SliceFold(), SchemaFold())), parts, workers)
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
            _, result = run_partitioned(Job((SemanticsFold(RUN_ROOT),)), parts, workers)
            notations = read_notations(result["notations"])
            merged[workers] = (result["merge_map"].edges, notations, result["notation_rows"])
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
        _, merged = run_partitioned(Job((SliceFold(), SchemaFold())), parts, 1)
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
        schemas = fixture_schemas(SCHEMA_FIXTURE)
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
    obj_line("people.person.name", "freebase.valuenotation.has_value", "m.a"),
    obj_line("m.a", "freebase.valuenotation.has_no_value", "people.person.name"),
    lit_line("m.a", "freebase.valuenotation.has_value", "x"),
    obj_line("m.a", "type.object.type", "people.person"),
    obj_line("m.b", "type.object.type", "film.film"),
    obj_line("base.pets", "type.object.type", "film.film"),  # a rule's type, of no mid
]

CUSTOM_SCHEMA = SchemaConfig(
    schema_domains=frozenset({"type", "base"}),
    description_predicate=idpath("/base/custom/describes"),
    detail_predicates=frozenset({idpath("/base/custom/detail")}),
    type_declaration_predicate=idpath("/base/custom/is_a"),
)


def read_back(payload):
    """The payload, its ``type_masks`` runs and ``notations`` shards (if any) read back."""
    if "type_masks" not in payload:
        return payload
    shards = payload["notations"]
    return {**payload, "type_masks": read_masks(payload["type_masks"]), "notations": read_notations(shards)}


CUSTOM_SEMANTICS = SemanticsFold(
    known_rules=frozenset({IncompatibilityRule(idpath("/people/person"), idpath("/film/film"))}),
    accept_reversed=True,
    run_root=RUN_ROOT,
)
PROJECTING_FOLDS = {
    "slice": SliceFold(),
    "schema": SchemaFold(),
    "schema-custom": SchemaFold(CUSTOM_SCHEMA),
    "semantics": SemanticsFold(RUN_ROOT),
    "semantics-custom": CUSTOM_SEMANTICS,
    "semantics-reversed": SemanticsFold(RUN_ROOT, accept_reversed=True),  # no rules
}


@dataclass(frozen=True)
class ReadsEverything:
    """A fold with no payload that reads every triple, so Job.run builds every line."""

    def reads(self, predicate, mid_subject):
        return True

    def start(self, part, lint):
        return (lambda triple: None), (lambda tallies: {})


@dataclass(frozen=True)
class Recorder:
    """A fold that reads nothing and keeps the triples and tallies Job.run hands it."""

    fed: list = field(default_factory=list)
    tallies: list = field(default_factory=list)

    def reads(self, predicate, mid_subject):
        return False

    def start(self, part, lint):
        return self.fed.append, lambda tallies: self.tallies.extend(tallies) or {}


def built_and_counted(folds, path):
    """Run the folds over the whole file in-process: (lines built, tallies, report)."""
    recorder = Recorder()
    report, _ = Job(folds + (recorder,)).run(Partition(path, 0, -1, 0))
    assert sum(count for _, count in recorder.tallies) == report.triples_ok >= len(recorder.fed)
    return len(recorder.fed), recorder.tallies, report


def started(fold, lint):
    """The (feed, finish) of a fresh start of the fold over standard input."""
    return fold.start(Partition("-", 0, -1, 0), lint)[:2]


class TestProjection:
    @pytest.mark.parametrize("name", sorted(PROJECTING_FOLDS))
    def test_projected_triple_feeds_like_the_full_one(self, name):
        """The lines built and fed, and the tallies, fold like every full triple fed."""
        fold = PROJECTING_FOLDS[name]
        full_report, projected_report = ParseReport(), ParseReport()
        feed_full, finish_full = started(fold, full_report.lint)
        feed_projected, finish_projected = started(fold, projected_report.lint)
        full_projection, projection = Projection(), Projection(fold.reads)
        full = list(iter_triples(dump_stream(PROBE_LINES), full_report, ParserConfig(), full_projection))
        projected = list(iter_triples(dump_stream(PROBE_LINES), projected_report, ParserConfig(), projection))
        for feed, triples in ((feed_full, full), (feed_projected, projected)):
            for triple in triples if feed is not None else ():
                feed(triple)
        tallies = projection.tallies()
        assert tallies == full_projection.tallies()
        assert read_back(finish_full(tallies)) == read_back(finish_projected(tallies))
        assert full_report.to_dict() == projected_report.to_dict()
        read = [t for t in full if fold.reads(t.predicate, isinstance(t.subject, Mid))]
        remaining = iter(projected)
        assert all(triple in remaining for triple in read)  # every read line is built, in order
        assert sum(count for _, count in tallies) == len(full)
        assert len(full) - len(projected) > 100
        assert name == "slice" or len(read) > 3

    @pytest.mark.parametrize("name", sorted(PROJECTING_FOLDS))
    def test_unread_triples_leave_no_trace(self, name):
        """Fed every PROBE_LINES triple it declares unread, a fold ends as a fresh start does."""
        fold = PROJECTING_FOLDS[name]
        unread = [t for t in iter_triples(dump_stream(PROBE_LINES), ParseReport()) if not fold.reads(t.predicate, isinstance(t.subject, Mid))]
        assert len(unread) > 100
        fed_lint, fresh_lint = Counter(), Counter()
        feed, finish = started(fold, fed_lint)
        for triple in unread if feed is not None else ():
            feed(triple)
        assert read_back(finish([])) == read_back(started(fold, fresh_lint)[1]([]))
        assert fed_lint == fresh_lint
        typing = [t.subject for t in unread if t.predicate == idpath("/type/object/type")]
        if name.startswith("semantics"):  # of no mid always, and of a mid without rules
            assert any(not isinstance(s, Mid) for s in typing)
            assert any(isinstance(s, Mid) for s in typing) != bool(fold.known_rules)

    def test_mid_subjects_are_counted_for_schema_and_linted(self):
        lines = [
            obj_line("m.a", "type.property.expected_type", "type.text"),
            obj_line("m.a", "type.object.type", "people.person"),
            obj_line("people.person.name", "type.property.expected_type", "type.text"),
        ]
        projection = Projection(SchemaFold().reads)
        report = ParseReport()
        built = list(iter_triples(dump_stream(lines), report, ParserConfig(), projection))
        assert built == [parse_line(lines[0]), parse_line(lines[2])]  # the typing of a mid is not read
        assert projection.tallies() == [(idpath("/type/property/expected_type"), 2), (idpath("/type/object/type"), 1)]
        feed, finish = started(SchemaFold(), report.lint)
        for triple in built:
            feed(triple)
        assert finish(projection.tallies())["schemas"]["people"].property_detail_count == 1
        assert report.lint == Counter({"unattributable-detail": 1})

    def test_folds_reading_every_triple_disable_projection(self, tmp_path):
        path = write_lines(tmp_path, PROBE_LINES)
        for folds in [
            (SliceFold(), SchemaFold(), SemanticsFold(RUN_ROOT)),
            (SliceFold(shard_root=str(tmp_path / "parts")), SchemaFold()),
        ]:
            built, tallies, report = built_and_counted(folds, path)
            assert tallies and built < report.triples_ok, folds
        built, tallies, report = built_and_counted((SemanticsFold(RUN_ROOT), ReadsEverything()), path)
        assert tallies and built == report.triples_ok > 300

    @pytest.mark.parametrize("workers", [1, 3])
    def test_job_output_is_the_same_with_and_without_projection(self, tmp_path, workers):
        path = write_lines(tmp_path, PROBE_LINES + random_dump_lines(2_000, seed=9, malformed_rate=0.02))
        parts = plan_partitions([path], workers)
        fold_sets = [
            (SliceFold(),),
            (SliceFold(), SchemaFold()),
            (SliceFold(), SchemaFold(CUSTOM_SCHEMA)),
            (SemanticsFold(RUN_ROOT),),
            (CUSTOM_SEMANTICS,),
            (SliceFold(), SchemaFold(CUSTOM_SCHEMA), CUSTOM_SEMANTICS),
        ]
        for folds in fold_sets:
            projected = Job(folds)
            unprojected = Job(folds + (ReadsEverything(),))
            built, _, full_report = built_and_counted(projected.folds, path)
            assert built < built_and_counted(unprojected.folds, path)[0] == full_report.triples_ok
            report, merged = run_partitioned(projected, parts, workers)
            ref_report, ref_merged = run_partitioned(unprojected, parts, workers)
            assert report.to_dict() == ref_report.to_dict(), folds
            assert read_back(merged) == read_back(ref_merged), folds

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
# A Job with a materializing SliceFold copies each slice's well-formed lines
# in the block scan, as they were read less their line-end CRs, at their
# place in the scan. The slice files must equal those lines written to their
# slices in input order.

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


# The lines the scan does not match, which parse_line builds: the space-separated
# line, and the three whose literal the scan's plain group does not take,
# "\u0041b" and "x\uD800" (an escape that could be unknown) and "a\rb"@en (a raw CR).
BUILT_PER_GROUP = 4


def written_slices(lines, out_dir, lint):
    """The reference the copy path is compared with: every well-formed line, less
    its line-end CRs, counted and written to its slice by SliceWriter, in input order."""
    counts = {}
    with SliceWriter(out_dir, FB) as writer:
        for line in lines:
            line = line.rstrip("\r")
            try:
                triple = parse_line(line)
            except MalformedLineError:
                continue
            key = count_slice(counts, triple.predicate, 1, lint)
            if key is not None:
                writer.write_lines(key, [line])
    return counts


def copied_slices(path, out_dir, workers):
    """Slice files of a materializing Job, its partitions run in-process."""
    fold = SliceFold(str(out_dir / ".parts"))
    report, merged = run_partitioned(Job((fold,)), plan_partitions([path], workers), 1)
    concatenate_shards(merged["shard_dirs"], str(out_dir))
    return report, merged, read_tree(out_dir)


class TestCopiedSlices:
    @pytest.mark.parametrize("cap", [1, 17, 64, 300, 16 * 1024])
    def test_slice_files_equal_the_built_triples_written_in_order(self, tmp_path, monkeypatch, cap):
        lines = alternating_lines()
        path = write_lines(tmp_path, lines)
        monkeypatch.setattr(parser_module, "_BLOCK", cap)
        oracle_report = ParseReport()
        list(iter_triples(path, oracle_report))
        oracle_counts = written_slices(lines, tmp_path / "oracle", oracle_report.lint)
        oracle = read_tree(tmp_path / "oracle")
        assert len(oracle) == 2 and oracle["domain/people.nt"].count(b"\n") == 40 * 8
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
            assert len(built) == 40 * BUILT_PER_GROUP  # the scan builds only the lines it does not match

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

    def test_a_nonstandard_predicate_line_is_copied_and_linted(self, tmp_path):
        """A nonstandard id is lint: its line is well-formed, counted and copied in input order."""
        odd = f'<{FB}m.0a>\t<{FB}people.Person.name>\t"odd"\t.'
        lines = [f'<{FB}m.0a>\t<{FB}people.person.name>\t"n{i}"\t.' for i in range(3)]
        lines[1:1] = [odd]
        path = write_lines(tmp_path, lines)
        for workers in (1, 2):
            report, merged, tree = copied_slices(path, tmp_path / f"w{workers}", workers)
            assert tree["domain/people.nt"].decode().splitlines() == lines, workers
            assert report.lint["nonstandard-id"] == 1 and report.lines_malformed == 0
            assert merged["counts"] == {SliceKey(DOMAIN, "people"): 4}

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
        list(iter_triples(path, oracle_report))
        oracle_counts = written_slices(lines, tmp_path / "oracle", oracle_report.lint)
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
        assert built == []  # every line was copied as it was read


# --- copy beside other folds -------------------------------------------------------
#
# Copy is an extra action: a materializing SliceFold in a Job with other folds
# copies its slices' lines in the scan and changes nothing that the other
# folds are fed or finish with, so each line is built only where some fold
# reads it.

OTHER_FOLDS = (SchemaFold(CUSTOM_SCHEMA), CUSTOM_SEMANTICS)


def merged_run(folds, parts, out_dir=None):
    """(report dict, merged payload) of a Job over the partitions, run in-process."""
    report, merged = run_partitioned(Job(folds), parts, 1)
    shard_dirs = merged.pop("shard_dirs", [])
    if out_dir is not None:
        concatenate_shards(shard_dirs, str(out_dir))
    return report.to_dict(), read_back(merged)


def materializing(out_dir):
    return SliceFold(str(out_dir / ".parts"))


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
        assert merged.pop("counts") == sliced["counts"]
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
        job = Job((SliceFold(str(tmp_path / "a")), SliceFold(str(tmp_path / "b"))))
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


def typed_lines(seed):
    """Type assertions of the named types and of unnamed ones, among other lines."""
    rng = random.Random(seed)
    types = NAMED_TYPES + ("people.person", "location.location")
    lines = random_dump_lines(500, seed=seed, malformed_rate=0.02)
    lines += [obj_line(f"m.t{rng.randrange(80)}", "type.object.type", rng.choice(types)) for _ in range(600)]
    lines += [obj_line(f"m.t{i}", "type.object.type", f"m.x{i}") for i in range(10)]  # no type object
    rng.shuffle(lines)
    return lines


def semantics_payload(path, run_root, **fold):
    return Job((SemanticsFold(run_root=str(run_root), **fold),)).run(Partition(path, 0, -1, 0))[1]


def oracle_notations(path):
    """The value notations of every triple, in dump order."""
    notations = []
    for triple in iter_triples(path, ParseReport()):
        feed_value_notation(notations, triple)
    return notations


def oracle_masks(path, rules):
    """Each mid suffix to the OR of the bits of the rules' types it asserts, from every triple."""
    bits = type_bits(rules)
    masks: dict[str, int] = {}
    for triple in iter_triples(path, ParseReport()):
        assertion = match_type_assertion(triple)
        if assertion is not None and assertion[1] in bits:
            masks[assertion[0].suffix] = masks.get(assertion[0].suffix, 0) | bits[assertion[1]]
    return masks


class TestSemanticsRetainedState:
    def test_assertions_of_unnamed_types_leave_no_trace(self, tmp_path):
        lines = typed_lines(seed=6)
        extra = [obj_line(f"m.e{i}", "type.object.type", "zoo.animal") for i in range(5_000)]
        padded, rng = list(lines), random.Random(7)
        for line in extra:  # among the other lines, which keep their order
            padded.insert(rng.randrange(len(padded) + 1), line)
        plain = write_lines(tmp_path, lines, "plain.nt")
        path = write_lines(tmp_path, padded, "padded.nt")
        runs = semantics_payload(plain, tmp_path / "runs", known_rules=KNOWN_RULES)["type_masks"]
        padded_runs = semantics_payload(path, tmp_path / "runs", known_rules=KNOWN_RULES)["type_masks"]
        kept, padded_kept = read_masks(runs), read_masks(padded_runs)
        assert padded_kept == kept and pickle.dumps(padded_kept) == pickle.dumps(kept)
        assert [Path(run).read_bytes() for run in padded_runs] == [Path(run).read_bytes() for run in runs]
        assert kept == oracle_masks(path, KNOWN_RULES)
        no_rules = semantics_payload(path, tmp_path / "none")["type_masks"]
        assert no_rules == [] and read_masks(no_rules) == {}  # no rules, no mask kept
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("rules", [frozenset(), KNOWN_RULES], ids=["no-rules", "rules"])
    def test_builds_the_typing_of_mids_only_for_rules(self, tmp_path, rules):
        """Typing triples are built only of mid subjects, and only for known rules;
        the other semantics predicates always."""
        lines = law_lines(seed=5) + [obj_line(f"film.film.f{i}", "type.object.type", "film.film") for i in range(20)]
        path = write_lines(tmp_path, lines)
        triples = list(iter_triples(path, ParseReport()))
        typing = [t for t in triples if t.predicate == semantics.TYPE_ASSERTION_PREDICATE]
        typed_mids = [t for t in typing if isinstance(t.subject, Mid)]
        assert 20 < len(typed_mids) < len(typing)
        others = (semantics.REPLACED_BY_PREDICATE, semantics.HAS_VALUE_PREDICATE, semantics.HAS_NO_VALUE_PREDICATE)
        read = sum(t.predicate in others for t in triples) + (len(typed_mids) if rules else 0)
        built, _, _ = built_and_counted((SemanticsFold(str(tmp_path / "runs"), rules),), path)
        assert built == read > 300

    @pytest.mark.parametrize("fold", [{}, {"known_rules": KNOWN_RULES}], ids=["default", "filter"])
    def test_one_entry_per_typed_mid(self, tmp_path, fold):
        path = write_lines(tmp_path, typed_lines(seed=8))
        type_masks = read_masks(semantics_payload(path, tmp_path / "runs", **fold)["type_masks"])
        assert bool(type_masks) == bool(fold)  # none kept without rules
        typed = [m for m in map(match_type_assertion, iter_triples(path, ParseReport())) if m]
        assert len(typed) > 2 * len(type_masks)  # many assertions, one entry per mid
        assert type_masks == oracle_masks(path, fold.get("known_rules", ()))

    def test_payload_holds_run_paths_and_no_mask_map(self, tmp_path, monkeypatch):
        path = write_lines(tmp_path, typed_lines(seed=9))
        run_root = tmp_path / "runs"
        counts = []
        for cap in (pipeline.MASK_RUN_ENTRIES, 10):
            monkeypatch.setattr(pipeline, "MASK_RUN_ENTRIES", cap)
            payload = semantics_payload(path, run_root, known_rules=KNOWN_RULES)
            runs = payload["type_masks"]
            assert isinstance(runs, list)
            assert all(isinstance(run, str) and os.path.dirname(run) == str(run_root) for run in runs)
            assert not any(isinstance(value, dict) for value in payload.values())
            assert len(pickle.dumps(runs)) < sum(len(run) + 10 for run in runs) + 20  # the paths alone
            assert read_masks(runs) == oracle_masks(path, KNOWN_RULES)
            counts.append(len(runs))
        assert counts[0] == 1 and counts[1] > 5


class TestMaskRunMerge:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open files in /proc/self/fd")
    def test_more_runs_than_the_open_file_budget(self, tmp_path, monkeypatch):
        """Merged in passes, the runs give the violations of a one-run parse, and
        no more runs are open at once than the budget."""
        path = write_lines(tmp_path, law_lines(seed=21))
        parts = plan_partitions([path], 3)
        single = SemanticsFold(known_rules=KNOWN_RULES, run_root=str(tmp_path / "single"))
        (run,) = semantics_payload(path, tmp_path / "single", known_rules=KNOWN_RULES)["type_masks"]
        expected = list(single.violations([run]))
        assertions = [m for m in map(match_type_assertion, iter_triples(path, ParseReport())) if m]
        assert expected == check_incompatibilities(assertions, KNOWN_RULES) != []

        run_root = str(tmp_path / "runs")
        fold = SemanticsFold(known_rules=KNOWN_RULES, run_root=run_root)
        monkeypatch.setattr(pipeline, "MASK_RUN_ENTRIES", 4)
        runs = run_partitioned(Job((fold,)), parts, 1)[1]["type_masks"]
        budget = 3
        assert len(runs) > 3 * budget

        def open_runs():
            targets = []
            for fd in os.listdir("/proc/self/fd"):
                try:
                    targets.append(os.readlink(f"/proc/self/fd/{fd}"))
                except OSError:
                    pass  # the descriptor listdir itself used
            return sum(target.startswith(run_root + os.sep) for target in targets)

        read_run = semantics.read_mask_run
        seen, opened = [], []

        def counted_read(run):
            opened.append(run)
            for record in read_run(run):
                seen.append(open_runs())
                yield record

        monkeypatch.setattr(semantics, "read_mask_run", counted_read)
        monkeypatch.setattr(pipeline, "_open_file_cap", lambda: budget)
        assert list(fold.violations(runs)) == expected
        assert max(seen) == budget
        assert len(opened) > len(runs)  # the merge took passes
        left = [name for name in os.listdir(run_root) if not name.startswith("notes-")]  # beside the notation shards
        assert sorted(left) == sorted(os.path.basename(run) for run in runs)


# --- every payload field merges by an associative law into the value it is given --

def law_lines(seed):
    """Slice, schema and semantics lines, with replaced-by edges that conflict."""
    rng = random.Random(seed)
    lines = random_dump_lines(600, seed=seed, malformed_rate=0.02) + SCHEMA_FIXTURE + typed_lines(seed)
    lines += [
        obj_line(f"m.d{rng.randrange(40)}", "dataworld.gardening_hint.replaced_by", f"m.c{rng.randrange(3)}")
        for _ in range(300)
    ]
    lines += [obj_line(f"people.person.p{i}", "freebase.valuenotation.has_value", f"m.x{i}") for i in range(60)]
    rng.shuffle(lines)
    return lines


def all_folds(root):
    return SliceFold(str(root / "parts")), SchemaFold(), SemanticsFold(str(root / "runs"), KNOWN_RULES)


class TestMergeLaws:
    @pytest.mark.parametrize(
        "fold",
        [SliceFold(), SchemaFold(), SemanticsFold(known_rules=KNOWN_RULES, run_root=RUN_ROOT)],
        ids=["slice", "schema", "semantics"],
    )
    def test_three_partitions_merge_associatively_into_the_first_payloads(self, tmp_path, fold):
        """A law folds the later value into the one it is given, so each side
        of the associativity check merges its own unpickled copies."""
        path = write_lines(tmp_path, law_lines(seed=13))
        parts = plan_partitions([path], 3)
        assert len(parts) == 3
        pickled = pickle.dumps([Job((fold,)).run(part)[1] for part in parts])
        whole = Job((fold,)).run(Partition(path, 0, -1, 0))[1]
        payloads = pickle.loads(pickled)
        merged = merge_payloads(payloads)
        fields = set(whole) - {"shard_dir"}
        assert fields and fields <= set(pipeline.MERGE_LAWS)
        for name in fields:
            law = pipeline.MERGE_LAWS[name]
            read = {"type_masks": read_masks, "notations": read_notations}.get(name, lambda value: value)
            p0, p1, p2 = (payload[name] for payload in pickle.loads(pickled))
            assert all(p != type(p)() for p in (p0, p1, p2))  # each partition holds some of every field
            left = law(law(p0, p1), p2)
            q0, q1, q2 = (payload[name] for payload in pickle.loads(pickled))
            right = law(q0, law(q1, q2))
            assert read(left) == read(right) == read(merged[name]) == read(whole[name])
            if name == "type_masks":  # run paths, which read back as the oracle's masks
                assert read(left) == oracle_masks(path, KNOWN_RULES)
            if name == "notations":  # shard paths, which read back as the oracle's notations
                assert read(left) == oracle_notations(path)
            if not isinstance(left, int):  # an int has no state to fold into
                assert left is p0 and right is q0 and merged[name] is payloads[0][name]

    def test_the_running_merge_folds_into_the_first_partitions_values(self, tmp_path):
        """_merge_results copies no aggregate: partition 0's values become the merged ones."""
        path = write_lines(tmp_path, law_lines(seed=19))
        parts = plan_partitions([path], 4)
        assert len(parts) == 4
        results = [Job(all_folds(tmp_path)).run(part) for part in parts]
        first = dict(results[0][1])
        _, merged = pipeline._merge_results(results)
        for name in ("counts", "schemas", "merge_map", "notations", "type_masks"):
            assert merged[name] is first[name], name

    def test_any_partition_count_merges_to_the_single_pass(self, tmp_path):
        path = write_lines(tmp_path, law_lines(seed=23))

        def fields(count):
            root = tmp_path / str(count)
            parts = plan_partitions([path], count)
            assert len(parts) == count
            _, merged = run_partitioned(Job(all_folds(root)), parts, 1)
            concatenate_shards(merged.pop("shard_dirs"), str(root / "slices"))
            merge_map = merged.pop("merge_map")
            return {
                **read_back(merged),
                "edges": merge_map.edges,
                "conflicts": merge_map.conflicts,
                "firsts": merge_map.firsts,
                "slices": read_tree(root / "slices"),
            }

        single = fields(1)
        assert single["conflicts"] and single["firsts"] and single["slices"]
        for count in (2, 16, 64):
            assert fields(count) == single, count


class TestStreamingMerge:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_running_merge_equals_the_merge_of_every_payload(self, tmp_path, workers):
        """run_partitioned folds each payload in as it arrives; merge_payloads takes them all at once."""
        path = write_lines(tmp_path, law_lines(seed=17))
        parts = plan_partitions([path], 8)
        assert len(parts) == 8

        def job(root):
            return Job((SliceFold(str(root / "parts")), SchemaFold(), SemanticsFold(str(root / "runs"), KNOWN_RULES)))

        listed, running = tmp_path / "listed", tmp_path / "running"
        expected = merge_payloads([job(listed).run(part)[1] for part in parts])
        _, merged = run_partitioned(job(running), parts, workers)
        for payload, root in ((expected, listed), (merged, running)):
            shard_dirs = payload.pop("shard_dirs")
            assert shard_dirs == [str(root / "parts" / f"{i:05d}") for i in range(8)]
            concatenate_shards(shard_dirs, str(root / "slices"))
        assert read_tree(listed / "slices") == read_tree(running / "slices") != {}
        assert merged["notation_rows"] == 60 and len(merged["notations"]) == len(merged["type_masks"]) == 8
        assert read_back(merged) == read_back(expected)
        assert read_masks(merged["type_masks"]) == oracle_masks(path, KNOWN_RULES)
        assert read_notations(merged["notations"]) == oracle_notations(path)


# --- a payload's equal id segments are one str, which pickle writes once ----------

def fresh(text):
    """An equal str that is a new object (CPython shares only the one-character ones)."""
    return text.encode().decode()


def fresh_path(path):
    return IdPath(tuple(map(fresh, path.segments)))


def segment_strings(schemas):
    """Every str of a ``schemas`` payload field that spells an id segment."""
    for key, schema in schemas.items():
        yield key
        yield schema.domain
        for item in schema.types | schema.properties:
            yield from item.segments


def with_fresh_segments(schemas):
    """The same field, each segment a str of its own, as the parser builds them."""
    return {
        fresh(key): DomainSchema(
            fresh(schema.domain),
            set(map(fresh_path, schema.types)),
            set(map(fresh_path, schema.properties)),
            schema.description_count,
            schema.property_detail_count,
        )
        for key, schema in schemas.items()
    }


class TestSharedSegments:
    @pytest.mark.parametrize("fold, name", [(SchemaFold(), "schemas")], ids=["schema"])
    def test_equal_segments_are_one_str_that_pickles_once(self, tmp_path, fold, name):
        value = Job((fold,)).run(Partition(write_lines(tmp_path, law_lines(seed=13)), 0, -1, 0))[1][name]
        data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        loaded = pickle.loads(data)
        assert loaded == value
        for held in (value, loaded):  # in the worker, and in the parent
            spelled: dict[str, str] = {}
            for text in segment_strings(held):
                assert spelled.setdefault(text, text) is text, text
            assert len(spelled) > 3
        rebuilt = with_fresh_segments(value)
        assert rebuilt == value
        assert len(data) < len(pickle.dumps(rebuilt, pickle.HIGHEST_PROTOCOL))

    def test_notations_field_pickles_alike_for_0_and_10000_notations(self, tmp_path, monkeypatch):
        """The ``notations`` field names the partition's shard, so it pickles to the same
        bytes whatever the number of notations the shard holds."""
        def fixed_path(directory, prefix):  # one name for both shards
            return os.path.join(directory, prefix)

        monkeypatch.setattr(pipeline, "mask_run_path", fixed_path)
        run_root = str(tmp_path / "runs")
        has_value = "freebase.valuenotation.has_value"
        notes = [obj_line(f"people.person.p{i % 50}", has_value, f"m.x{i}") for i in range(10_000)]
        fields = []
        for count in (0, 10_000):
            shutil.rmtree(run_root, ignore_errors=True)
            path = write_lines(tmp_path, random_dump_lines(300, seed=3) + notes[:count], f"{count}.nt")
            payload = Job((SemanticsFold(run_root, accept_reversed=True),)).run(Partition(path, 0, -1, 0))[1]
            assert payload["notation_rows"] == len(read_notations(payload["notations"])) == count
            fields.append(pickle.dumps(payload["notations"], pickle.HIGHEST_PROTOCOL))
        assert fields[0] == fields[1]
