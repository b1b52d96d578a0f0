import argparse
import ast
import csv
import gc
import gzip
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import pytest

from conftest import fb, fold_triples, line, lit_line, obj_line, read_masks
from dumpgen import oracle_linreg, oracle_pearson, oracle_violations, random_dump_lines
from fbont import cli, pipeline
from fbont.cli import main
from fbont.model import Mid, idpath, render
from fbont.parser import ParseReport, StreamAbortedError, iter_triples
from fbont.pipeline import Job, SemanticsFold, SliceFold
from fbont.report import VALUENOTE_COLUMNS, render_table
from fbont.semantics import NotationKind, ValueNotation, load_rules, type_bits, write_mask_run
from fbont.slicer import slice_relpath

TEST_PID = os.getpid()


def write_lines(tmp_path, lines, name="dump.nt"):
    path = tmp_path / name
    path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    return str(path)


def modules_loaded_by_importing_the_cli():
    """The names in sys.modules after ``import fbont.cli`` in a new ``python -S``."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import fbont.cli, sys; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout))


def read_tree(directory):
    tree = {}
    for root, _, files in os.walk(directory):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as handle:
                tree[os.path.relpath(full, directory)] = handle.read()
    return tree


def study_fixture_lines():
    """Five subject domains with schema documentation and data volume."""
    profile = {
        # domain: (data triples, types, properties, descriptions, details)
        "music": (60, 2, 4, 10, 14),
        "film": (40, 2, 3, 6, 4),
        "tv": (25, 1, 2, 3, 3),
        "book": (10, 2, 2, 2, 2),
        "zoo": (5, 1, 1, 0, 0),
    }
    lines = []
    expected = {}
    for domain, (data, n_types, n_props, n_desc, n_det) in profile.items():
        for i in range(n_types):
            lines.append(obj_line(f"{domain}.t{i}", "type.object.type", "type.type"))
        for i in range(n_props):
            lines.append(obj_line(f"{domain}.t0.p{i}", "type.object.type", "type.property"))
        for i in range(n_desc):
            target = f"{domain}.t{i % n_types}" if i % 2 else f"{domain}.t0.p{i % n_props}"
            lines.append(lit_line(target, "common.topic.description", f"doc {i}"))
        for i in range(n_det):
            lines.append(
                obj_line(f"{domain}.t0.p{i % n_props}", "type.property.expected_type", "type.text")
            )
        for i in range(data):
            lines.append(obj_line(f"m.s{i}", f"{domain}.t0.p0", f"m.o{i}"))
        expected[domain] = (data, (n_desc + n_det) / (n_types + n_props))
    return lines, expected


class TestCmdSlice:
    def test_parse_report_samples_the_first_twenty_errors(self, tmp_path):
        """Each of two partitions holds more than 20 malformed lines;
        parse_report.json keeps the stream's first 20, globally numbered, at
        any worker count."""
        good = random_dump_lines(400, seed=6)
        lines = good[:100] + ["junk"] * 25 + good[100:300] + ["junk"] * 25 + good[300:]
        dump = write_lines(tmp_path, lines)
        parts = pipeline.plan_partitions([dump], 2)
        assert [Job((SliceFold(),)).run(part)[0].lines_malformed for part in parts] == [25, 25]
        documents = []
        for workers in (1, 2):
            out = tmp_path / f"out-w{workers}"
            assert main(["slice", dump, "--out", str(out), "--workers", str(workers)]) == 0
            documents.append((out / "parse_report.json").read_bytes())
        assert documents[0] == documents[1]
        report = json.loads(documents[0])
        assert report["lines_malformed"] == 50
        assert report["first_errors"] == [[101 + i, "field-count"] for i in range(20)]

    def test_counts_only(self, tmp_path, capsys):
        lines = random_dump_lines(500, seed=5)
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["slice", dump, "--out", str(out)]) == 0
        assert (out / "taxonomy.csv").exists()
        assert (out / "taxonomy.md").exists()
        assert (out / "taxonomy.tsv").exists()
        report = json.loads((out / "parse_report.json").read_text())
        assert report["lines_read"] == 500
        assert report["triples_ok"] + report["lines_malformed"] == 500
        assert "parsed 500 lines" in capsys.readouterr().out

    def test_dev_null_empty_taxonomy(self, tmp_path):
        out = tmp_path / "out"
        assert main(["slice", "/dev/null", "--out", str(out)]) == 0
        text = (out / "taxonomy.csv").read_text()
        assert text == "group,name,predicate_pattern,triples,total_pct,group_pct\n"
        report = json.loads((out / "parse_report.json").read_text())
        assert report["lines_read"] == 0

    def test_unreadable_input_exits_2(self, tmp_path):
        assert main(["slice", str(tmp_path / "missing.nt"), "--out", str(tmp_path / "o")]) == 2

    def test_materialized_slices_partition_input(self, tmp_path):
        lines = random_dump_lines(2_000, seed=9)
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["slice", dump, "--out", str(out), "--materialize"]) == 0
        slice_dir = out / "slices"
        concatenated = []
        for root, _, files in os.walk(slice_dir):
            for name in files:
                with open(os.path.join(root, name), encoding="utf-8") as handle:
                    concatenated.extend(handle.read().splitlines())
        # concatenate-and-diff oracle: slices are a permutation of the input
        assert sorted(concatenated) == sorted(lines)
        # and every slice file is valid N-Triples readable by the parser
        for root, _, files in os.walk(slice_dir):
            for name in files:
                report = ParseReport()
                list(iter_triples(os.path.join(root, name), report))
                assert report.lines_malformed == 0

    def test_materialize_takes_no_directory(self, tmp_path):
        """A dump after --materialize is one more input, not the slice directory."""
        a = write_lines(tmp_path, random_dump_lines(300, seed=3), "a.nt")
        b = write_lines(tmp_path, random_dump_lines(200, seed=4), "b.nt")
        data = (tmp_path / "b.nt").read_bytes()
        out = tmp_path / "out"
        assert main(["slice", a, "--out", str(out), "--materialize", b]) == 0
        report = json.loads((out / "parse_report.json").read_text())
        assert report["lines_read"] == 500
        tree = read_tree(tmp_path)
        assert tree.pop("b.nt") == data and tree.pop("a.nt")
        slices = [path for path in tree if path.startswith(os.path.join("out", "slices", ""))]
        assert slices
        names = ("parse_report.json", "taxonomy.csv", "taxonomy.md", "taxonomy.tsv")
        assert set(tree) - set(slices) == {os.path.join("out", name) for name in names}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_slice_names_stay_inside_their_kind(self, tmp_path, workers):
        """A slice name is dump text: "/", ".." or a NUL in it must neither leave
        slices/ nor share a file with another name. A name of 252 UTF-8 bytes
        keeps its own file name, and a longer one is still written."""
        long_a, long_b = "a" * 252 + "x" * 48, "a" * 252 + "y" * 48
        names = ["x/../../../../escaped", "x/../y", "y", "a\x00b", "100%", "100%25", "%2F"]
        names += ["", ".", "..", "b" * 252, long_a, long_b, "\u00e9" * 200]
        lines = random_dump_lines(300, seed=2)
        lines += [f'{fb("m.0a")}\t<http://example.org/v#{name}>\t"v{i}"\t.' for i, name in enumerate(names)]
        dump = write_lines(tmp_path, lines)
        data = (tmp_path / "dump.nt").read_bytes()
        out = os.path.join("run", "out")
        argv = ["slice", dump, "--out", str(tmp_path / out), "--materialize", "--format", "json"]
        assert main(argv + ["--workers", str(workers)]) == 0
        tree = read_tree(tmp_path)
        assert tree.pop("dump.nt") == data
        assert tree.pop(os.path.join(out, "parse_report.json")) and tree.pop(os.path.join(out, "taxonomy.json"))
        assert all(path.startswith(os.path.join(out, "slices", "")) for path in tree)
        counts = fold_triples(SliceFold(), iter_triples(dump, ParseReport()))[0]["counts"]
        assert {key.name for key in counts} >= set(names)
        assert len(tree) == len(counts)  # one file per slice key
        for key, count in counts.items():
            assert tree[os.path.join(out, "slices", slice_relpath(key))].count(b"\n") == count, key
        assert os.path.join(out, "slices", "owl", "b" * 252 + ".nt") in tree  # 255 bytes: its own name
        rows = json.loads((tmp_path / out / "taxonomy.json").read_text())
        assert {(row["name"], row["triples"]) for row in rows} == {(k.name, n) for k, n in counts.items()}

    def test_workers_produce_identical_outputs(self, tmp_path):
        lines = random_dump_lines(3_000, seed=13, malformed_rate=0.01)
        dump = write_lines(tmp_path, lines)
        trees = {}
        for workers in (1, 4):
            out = tmp_path / f"out_w{workers}"
            code = main(
                ["slice", dump, "--out", str(out), "--materialize", "--workers", str(workers)]
            )
            assert code == 0
            trees[workers] = read_tree(out)
        assert trees[1] == trees[4]

    def test_rerun_is_byte_identical(self, tmp_path):
        dump = write_lines(tmp_path, random_dump_lines(400, seed=21))
        out = tmp_path / "out"
        argv = ["slice", dump, "--out", str(out), "--materialize"]
        assert main(argv) == 0
        first = read_tree(out)
        assert main(argv) == 0
        assert read_tree(out) == first

    def test_implementation_domain_override(self, tmp_path):
        lines = [obj_line("m.a", "people.person.p", "m.b")]
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["slice", dump, "--out", str(out), "--implementation-domain", "people"]) == 0
        text = (out / "taxonomy.csv").read_text()
        assert "implementation,people" in text

    def test_json_format(self, tmp_path):
        dump = write_lines(tmp_path, random_dump_lines(200, seed=4))
        out = tmp_path / "out"
        assert main(["slice", dump, "--out", str(out), "--format", "json"]) == 0
        rows = json.loads((out / "taxonomy.json").read_text())
        assert sum(r["triples"] for r in rows) > 0
        assert {"group", "name", "predicate_pattern", "triples", "total_pct", "group_pct"} <= set(rows[0])
        assert not (out / "taxonomy.csv").exists()  # only the requested format


    @pytest.mark.parametrize("escape", [r"\UFFFFFFFF", r"\uD800"])
    @pytest.mark.parametrize("materialize", [False, True])
    def test_undecodable_unicode_escape_is_lint(self, tmp_path, escape, materialize):
        lines = [obj_line("m.a", "people.person.spouse_s", "m.b"), lit_line("m.a", "type.object.name", f"x{escape}")]
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        argv = ["slice", dump, "--out", str(out)] + (["--materialize"] if materialize else [])
        assert main(argv) == 0
        report = json.loads((out / "parse_report.json").read_text())
        assert report["triples_ok"] == 2
        assert report["lint"] == {"unknown-escape": 1}
        if materialize:  # copied as it was read
            written = (out / "slices" / "domain" / "type.nt").read_text(encoding="utf-8")
            assert written == lines[1] + "\n"

    def test_materialized_slices_are_the_well_formed_input_lines(self, tmp_path):
        """Each well-formed line is written as it was read, less its line-end CRs, in any form,
        so re-reading the slices gives the input's escape and identifier lint."""
        lines = []
        for i in range(20):
            s, p, o = fb(f"m.0s{i}"), fb(f"people.person.p{i % 3}"), fb(f"m.0o{i}")
            lines += [
                f"{s} {p} {o} .",  # space-separated
                f"{s}\t{p}\t{o}.",  # the terminator glued to the object
                line(s, p, '"\\u0041b"'),  # a decodable escape
                line(s, p, '"x\\uD800"'),  # an unknown escape, kept verbatim
                line(fb(f"m.0S{i}"), p, f'"v{i}"@en'),  # a nonstandard mid
                line(s, fb("film.film.genre"), o),
                f"{s}\t{p}\tbroken\t.",  # malformed
            ]
        ends = ["\r\n" if i % 2 else "\n" for i in range(len(lines))]
        dump = tmp_path / "dump.nt"
        dump.write_bytes("".join(text + end for text, end in zip(lines, ends)).encode())
        wellformed = [text for text in lines if not text.endswith("broken\t.")]
        lint = {}
        for workers in (1, 2):
            out = tmp_path / f"out_w{workers}"
            assert main(["slice", str(dump), "--out", str(out), "--materialize", "--workers", str(workers)]) == 0
            tree = read_tree(out / "slices")
            written = [text for data in tree.values() for text in data.decode().split("\n")[:-1]]
            assert sorted(written) == sorted(wellformed), workers
            lint[workers] = json.loads((out / "parse_report.json").read_text())["lint"]
            again = tmp_path / f"again_w{workers}"
            paths = [str(out / "slices" / name) for name in sorted(tree)]
            assert main(["slice", *paths, "--out", str(again)]) == 0
            assert json.loads((again / "parse_report.json").read_text())["lint"] == lint[workers]
        assert lint[1] == lint[2] == {"nonstandard-id": 20, "unknown-escape": 20}


class TestCmdSchema:
    def test_fixture_row(self, tmp_path):
        from test_schema import SCHEMA_FIXTURE

        dump = write_lines(tmp_path, SCHEMA_FIXTURE)
        out = tmp_path / "out"
        assert main(["schema", dump, "--out", str(out)]) == 0
        lines = (out / "schema.csv").read_text().splitlines()
        assert "people,2,3,4,6,2.0" in lines

    def test_empty_dump_header_only(self, tmp_path):
        out = tmp_path / "out"
        assert main(["schema", "/dev/null", "--out", str(out)]) == 0
        assert (out / "schema.csv").read_text() == (
            "domain,n_types,n_properties,n_descriptions,n_details,complexity_score\n"
        )

    def test_json_twin(self, tmp_path):
        from test_schema import SCHEMA_FIXTURE

        dump = write_lines(tmp_path, SCHEMA_FIXTURE)
        out = tmp_path / "out"
        assert main(["schema", dump, "--out", str(out), "--json"]) == 0
        rows = {r["domain"]: r for r in json.loads((out / "schema.json").read_text())}
        assert rows["people"]["complexity_score"] == 2.0
        assert rows["music"]["n_types"] == 2


class TestCmdSemantics:
    def test_single_edge_and_notation(self, tmp_path):
        lines = [
            obj_line("m.xyz123", "dataworld.gardening_hint.replaced_by", "m.abc123"),
            obj_line("people.person.date_of_birth", "freebase.valuenotation.has_value", "m.plato"),
        ]
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["semantics", dump, "--out", str(out)]) == 0
        assert (out / "merges.tsv").read_text() == "/m/xyz123\t/m/abc123\n"
        notes = (out / "valuenotes.csv").read_text().splitlines()
        assert notes[0] == "property,object,kind,orientation"
        assert notes[1] == "/people/person/date_of_birth,/m/plato,has_value,forward"

    def test_violations_with_rules_file(self, tmp_path):
        lines = [
            obj_line("m.terminator", "type.object.type", "film.film"),
            obj_line("m.terminator", "type.object.type", "film.film_series"),
            obj_line("m.other", "type.object.type", "film.film"),
        ]
        dump = write_lines(tmp_path, lines)
        rules = tmp_path / "rules.tsv"
        rules.write_text("/film/film\t/film/film_series\n")
        out = tmp_path / "out"
        assert main(["semantics", dump, "--out", str(out), "--rules", str(rules)]) == 0
        body = (out / "violations.csv").read_text().splitlines()
        assert body[0] == "mid,type_a,type_b"
        assert body[1] == "/m/terminator,/film/film,/film/film_series"
        assert len(body) == 2

    @pytest.mark.parametrize("rules_text", [None, "/film/film\n", "/film/film\tm.x\n", b"\xff\n"])
    def test_bad_rules_file_exits_2_before_the_parse(self, tmp_path, monkeypatch, capsys, rules_text):
        def no_parse(*args):
            raise AssertionError("the dump was parsed before the rules file was read")

        monkeypatch.setattr(pipeline, "run_partitioned", no_parse)
        rules = tmp_path / "rules.tsv"
        if isinstance(rules_text, str):
            rules.write_text(rules_text)
        elif rules_text is not None:
            rules.write_bytes(rules_text)
        dump = write_lines(tmp_path, random_dump_lines(20, seed=2))
        out = tmp_path / "out"
        for workers in ("1", "2"):
            argv = ["semantics", dump, "--out", str(out), "--rules", str(rules), "--workers", workers]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(rules) in err
            assert not out.exists()

    def test_cycle_fail_loud_exits_4(self, tmp_path, capsys):
        """A replaced-by cycle exits 4 before any stdout, with and without --rules, and
        leaves no OUT, although the workers wrote notation shards and mask runs under it."""
        dump, rules = typed_semantics_fixture(tmp_path)
        lines = [
            obj_line("m.p", "dataworld.gardening_hint.replaced_by", "m.q"),
            obj_line("m.q", "dataworld.gardening_hint.replaced_by", "m.r"),
            obj_line("m.r", "dataworld.gardening_hint.replaced_by", "m.p"),
        ]
        lines += [obj_line(f"people.person.p{i}", "freebase.valuenotation.has_value", f"m.x{i}") for i in range(50)]
        with open(dump, "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
        out = tmp_path / "out"
        for options in ([], ["--rules", rules]):
            for workers in ("1", "2"):
                assert main(["semantics", dump, "--workers", workers, "--out", str(out), *options]) == 4
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == "error: replaced-by cycle: /m/p, /m/q, /m/r\n"
                assert not out.exists()

    def test_cycle_smallest_policy_canonicalizes(self, tmp_path):
        lines = [
            obj_line("m.p", "dataworld.gardening_hint.replaced_by", "m.q"),
            obj_line("m.q", "dataworld.gardening_hint.replaced_by", "m.r"),
            obj_line("m.r", "dataworld.gardening_hint.replaced_by", "m.p"),
        ]
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["semantics", dump, "--out", str(out), "--cycle-policy", "smallest"]) == 0
        rows = dict(
            line.split("\t") for line in (out / "merges.tsv").read_text().splitlines()
        )
        assert rows == {"/m/p": "/m/p", "/m/q": "/m/p", "/m/r": "/m/p"}

    def test_reversed_notation_flag(self, tmp_path):
        lines = [obj_line("m.plato", "freebase.valuenotation.has_value", "people.person.date_of_birth")]
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["semantics", dump, "--out", str(out), "--accept-reversed"]) == 0
        notes = (out / "valuenotes.csv").read_text().splitlines()
        assert notes[1] == "/people/person/date_of_birth,/m/plato,has_value,reversed"

    def test_json_twins(self, tmp_path):
        lines = [
            obj_line("people.person.date_of_birth", "freebase.valuenotation.has_value", "m.plato"),
            obj_line("m.terminator", "type.object.type", "film.film"),
            obj_line("m.terminator", "type.object.type", "film.film_series"),
        ]
        dump = write_lines(tmp_path, lines)
        rules = tmp_path / "rules.tsv"
        rules.write_text("/film/film /film/film_series\n")
        out = tmp_path / "out"
        assert main(["semantics", dump, "--out", str(out), "--rules", str(rules), "--json"]) == 0
        notes = json.loads((out / "valuenotes.json").read_text())
        assert notes == [
            {
                "kind": "has_value",
                "object": "/m/plato",
                "orientation": "forward",
                "property": "/people/person/date_of_birth",
            }
        ]
        violations = json.loads((out / "violations.json").read_text())
        assert violations[0]["mid"] == "/m/terminator"

    def test_rules_naming_some_types_give_the_oracle_violations(self, tmp_path, monkeypatch):
        """The fold keeps one mask per mid of the named types' bits; the violations
        are those of all assertions, at any worker count, on plain and gzip input."""
        rng = random.Random(5)
        types = ["film.film", "film.film_series", "tv.tv_series", "book.book", "people.person", "zoo.animal"]
        lines = random_dump_lines(2_000, seed=5, malformed_rate=0.02)
        typed = [(f"m.t{rng.randrange(150)}", rng.choice(types)) for _ in range(1_500)]
        lines += [obj_line(mid, "type.object.type", asserted) for mid, asserted in typed]
        rng.shuffle(lines)
        plain = write_lines(tmp_path, lines)
        packed = tmp_path / "dump.nt.gz"
        packed.write_bytes(gzip.compress((tmp_path / "dump.nt").read_bytes(), 6))
        monkeypatch.setattr(pipeline, "GZIP_MIN_RANGE", 1024)
        assert len(pipeline.plan_partitions([str(packed)], 4)) == 4
        rules = tmp_path / "rules.tsv"
        rules.write_text("/film/film /film/film_series\n/tv/tv_series /book/book\n/film/film /book/book\n")
        checked = []
        violations = SemanticsFold.violations

        def check(fold, runs):
            checked.append(read_masks(runs))
            return violations(fold, runs)

        monkeypatch.setattr(SemanticsFold, "violations", check)
        names = ("violations.csv", "violations.json", "parse_report.json")
        trees = []
        for dump in (plain, str(packed)):
            for workers in (1, 2, 4):
                out = tmp_path / f"out-{len(trees)}"
                argv = ["semantics", dump, "--rules", str(rules), "--json", "--workers", str(workers)]
                assert main(argv + ["--out", str(out)]) == 0
                trees.append({name: (out / name).read_bytes() for name in names})
        assert all(tree == trees[0] for tree in trees)
        assertions = [("/" + mid.replace(".", "/"), "/" + t.replace(".", "/")) for mid, t in typed]
        pairs = [line.split() for line in rules.read_text().splitlines()]
        expected = oracle_violations(assertions, pairs)
        rows = json.loads(trees[0]["violations.json"])
        assert {(row["mid"], row["type_a"], row["type_b"]) for row in rows} == expected
        assert len(rows) == len(expected) > 0
        bits = type_bits(load_rules(io.StringIO(rules.read_text())))
        assert {render(t) for t in bits} == {t for pair in pairs for t in pair}  # 4 of 6 types
        masks: dict[str, int] = {}
        for mid, asserted in typed:
            bit = bits.get(idpath("/" + asserted.replace(".", "/")), 0)
            if bit:
                masks[mid[2:]] = masks.get(mid[2:], 0) | bit
        assert len(checked) == len(trees) and all(kept == masks for kept in checked)


    def test_mask_runs_per_partition_change_no_output(self, tmp_path, monkeypatch, capsys):
        """One, two and many mask runs per partition give the same files and stdout,
        at 1, 2 and 4 workers, on plain, gzip and stdin input, and leave no run."""
        rng = random.Random(8)
        types = ["film.film", "film.film_series", "tv.tv_series", "book.book", "people.person"]
        lines = random_dump_lines(3_000, seed=8, malformed_rate=0.02)
        typed = iter([obj_line(f"m.t{i}", "type.object.type", t) for i in range(600) for t in rng.sample(types, 2)])
        slots = set(rng.sample(range(len(lines) + 1_200), 1_200))
        others = iter(lines)  # the typing lines spread evenly, in mid order, among the others
        lines = [next(typed if i in slots else others) for i in range(len(lines) + 1_200)]
        plain = write_lines(tmp_path, lines)
        packed = tmp_path / "dump.nt.gz"
        packed.write_bytes(gzip.compress((tmp_path / "dump.nt").read_bytes(), 6))
        monkeypatch.setattr(pipeline, "GZIP_MIN_RANGE", 1024)
        rules = tmp_path / "rules.tsv"
        rules.write_text("/film/film /film/film_series\n/tv/tv_series /book/book\n/book/book /people/person\n")
        seen = []
        violations = SemanticsFold.violations

        def check(fold, runs):
            seen.append(sorted(Counter(os.path.basename(run).split("-")[0] for run in runs).values()))
            return violations(fold, runs)

        monkeypatch.setattr(SemanticsFold, "violations", check)
        outputs = []
        for source in (plain, str(packed), "-"):
            for workers in (1, 2, 4):
                partitions = 1 if source == "-" else len(pipeline.plan_partitions([source], workers))
                # one run per partition, two (three for a long gzip range) and many
                for cap, low, high in ((pipeline.MASK_RUN_ENTRIES, 1, 1), (360 // partitions, 2, 3), (2, 100, 600)):
                    if source == "-":
                        stdin = io.TextIOWrapper(io.BytesIO((tmp_path / "dump.nt").read_bytes()))
                        monkeypatch.setattr(sys, "stdin", stdin)
                    out = tmp_path / f"out-{len(outputs)}"
                    argv = ["semantics", source, "--rules", str(rules), "--json", "--workers", str(workers)]
                    with monkeypatch.context() as patch:
                        patch.setattr(pipeline, "MASK_RUN_ENTRIES", cap)
                        assert main(argv + ["--out", str(out)]) == 0
                    outputs.append((read_tree(out), capsys.readouterr()))
                    assert len(seen[-1]) == partitions and low <= min(seen[-1]) <= max(seen[-1]) <= high
        assert all(output == outputs[0] for output in outputs)
        assert json.loads(outputs[0][0]["violations.json"]) != []
        assert not any(name.startswith(".fbont-") for name in outputs[0][0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_runs_a_killed_run_left_are_removed_before_the_parse(self, tmp_path, monkeypatch, workers):
        """A run killed outright cannot remove its mask runs; the next run removes
        them before it parses, so none can reach its violations."""
        lines = [obj_line(f"m.{mid}", "type.object.type", t) for mid in ("a", "b") for t in ("film.film", "book.book")]
        lines += random_dump_lines(300, seed=3)
        dump = write_lines(tmp_path, lines)
        rules = tmp_path / "rules.tsv"
        rules.write_text("/film/film /film/film_series\n/book/book /tv/tv_series\n")
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        stale = out / ".fbont-semantics" / "runs" / "00000-1-0.run"
        stale.parent.mkdir(parents=True)
        # bits 1 and 2 are /film/film and /film/film_series: a violation, were it read
        write_mask_run(str(stale), [("never_typed", 0b0110)])
        run_folds = cli.run_folds

        def parse(inputs, folds, *args):
            assert not os.path.exists(folds[0].run_root)  # removed before the parse
            return run_folds(inputs, folds, *args)

        monkeypatch.setattr(cli, "run_folds", parse)
        for target in (fresh, out):
            argv = ["semantics", dump, "--rules", str(rules), "--workers", str(workers), "--out", str(target)]
            assert main(argv) == 0
        assert read_tree(out) == read_tree(fresh)
        assert (out / "violations.csv").read_text().splitlines() == ["mid,type_a,type_b"]
        assert not (out / ".fbont-semantics").exists()

    def test_notation_shards_change_no_output(self, tmp_path, monkeypatch, capsys):
        """One, a few and many shard writes per partition give the same files and stdout,
        at 1, 2 and 4 workers, on plain, gzip and stdin input, and the rows the oracle
        gives, whatever quotes, commas, CRs or astral text the ids hold."""
        has_value, has_no_value = "freebase.valuenotation.has_value", "freebase.valuenotation.has_no_value"
        odd = ['p\rx', 'q"u,o', "r\u00e9\U0001d11e", "s t"]
        rows, notes = [], []
        for i in range(300):
            prop, mid = f"people.person.{odd[i % 4]}{i}", f"m.n{i}{odd[(i // 4) % 4]}"
            kind = (has_value, has_no_value)[i % 3 == 0]
            if i % 5 == 0:  # written entity-first
                notes.append(line(fb(mid), fb(kind), fb(prop)))
            else:
                notes.append(line(fb(prop), fb(kind), fb(mid)))
            slash = "/" + prop.replace(".", "/"), "/" + mid.replace(".", "/")
            rows.append((*slash, kind.rsplit(".", 1)[1], "reversed" if i % 5 == 0 else "forward"))
        lines = random_dump_lines(2_000, seed=6)
        for i, note in enumerate(notes):  # spread evenly, in order, among the others
            lines.insert(i * 7, note)
        plain = write_lines(tmp_path, lines)
        packed = tmp_path / "dump.nt.gz"
        packed.write_bytes(gzip.compress((tmp_path / "dump.nt").read_bytes(), 6))
        monkeypatch.setattr(pipeline, "GZIP_MIN_RANGE", 1024)
        outputs = []
        for source in (plain, str(packed), "-"):
            for workers in (1, 2, 4):
                for batch in (pipeline.NOTATION_BATCH, 40, 1):
                    if source == "-":
                        stdin = io.TextIOWrapper(io.BytesIO((tmp_path / "dump.nt").read_bytes()))
                        monkeypatch.setattr(sys, "stdin", stdin)
                    out = tmp_path / f"out-{len(outputs)}"
                    argv = ["semantics", source, "--accept-reversed", "--json", "--workers", str(workers)]
                    with monkeypatch.context() as patch:
                        patch.setattr(pipeline, "NOTATION_BATCH", batch)
                        assert main(argv + ["--out", str(out)]) == 0
                    outputs.append((read_tree(out), capsys.readouterr()))
        assert all(output == outputs[0] for output in outputs)
        tree, printed = outputs[0]
        assert tree["valuenotes.csv"] == render_table(VALUENOTE_COLUMNS, rows).encode()
        assert tree["valuenotes.json"] == render_table(VALUENOTE_COLUMNS, rows, "json").encode()
        records = list(csv.reader(io.StringIO(tree["valuenotes.csv"].decode(), newline="")))
        assert records == [list(VALUENOTE_COLUMNS), *map(list, rows)]  # one row per notation
        assert json.loads(tree["valuenotes.json"]) == [dict(zip(records[0], record)) for record in records[1:]]
        assert "value notations: 300\n" in printed.out

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stale_notation_shard_never_reaches_valuenotes(self, tmp_path, workers):
        """A shard a killed run left in the work directory is removed before the parse."""
        notes = [obj_line(f"people.person.p{i}", "freebase.valuenotation.has_value", f"m.x{i}") for i in range(30)]
        dump = write_lines(tmp_path, notes + random_dump_lines(300, seed=3))
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        for name in ("notes-00000-1-0.run", "notes-00001-1-0.run"):
            stale = out / ".fbont-semantics" / "runs" / name / "valuenotes.csv"
            stale.parent.mkdir(parents=True, exist_ok=True)
            stale.write_text("/stale/stale/stale,/m/stale,has_value,forward\n")
        for target in (fresh, out):
            argv = ["semantics", dump, "--json", "--workers", str(workers), "--out", str(target)]
            assert main(argv) == 0
        assert read_tree(out) == read_tree(fresh)
        assert b"stale" not in (out / "valuenotes.csv").read_bytes()
        assert len((out / "valuenotes.csv").read_text().splitlines()) == 31
        assert not (out / ".fbont-semantics").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parent_holds_no_value_notation(self, tmp_path, monkeypatch, workers):
        """After the parse, and after every table is written, this process holds no
        ValueNotation: the workers wrote them to shards, and the tables stream from there."""

        def held():
            gc.collect()
            return sum(isinstance(obj, ValueNotation) for obj in gc.get_objects())

        baseline = held()
        probe = [ValueNotation(idpath("/people/person/p"), Mid("x"), NotationKind.HAS_VALUE)]
        assert held() == baseline + 1  # the scan sees a held one
        del probe
        notes = [obj_line(f"people.person.p{i}", "freebase.valuenotation.has_value", f"m.x{i}") for i in range(500)]
        dump, rules = typed_semantics_fixture(tmp_path)
        with open(dump, "a", encoding="utf-8") as handle:
            handle.write("".join(note + "\n" for note in notes))
        counts = []
        publish_docs = cli._publish

        def publish_and_count(args, docs, report=None):
            counts.append(held())  # after run_folds, with the merged payload in hand
            publish_docs(args, docs, report)
            counts.append(held())  # after every document is written

        monkeypatch.setattr(cli, "_publish", publish_and_count)
        out = tmp_path / "out"
        argv = ["semantics", dump, "--rules", rules, "--json", "--workers", str(workers), "--out", str(out)]
        assert main(argv) == 0
        assert counts == [baseline, baseline]
        assert len((out / "valuenotes.csv").read_text().splitlines()) == 501

    def test_no_run_is_written_without_rules(self, tmp_path, monkeypatch):
        def refuse(path, records):
            raise AssertionError(f"a run was written: {path}")

        monkeypatch.setattr(pipeline, "write_mask_run", refuse)
        lines = [obj_line("m.a", "type.object.type", t) for t in ("film.film", "film.film_series")]
        dump = write_lines(tmp_path, lines + random_dump_lines(300, seed=3))
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            assert main(["semantics", dump, "--workers", str(workers), "--out", str(out)]) == 0
            assert sorted(read_tree(out)) == ["merges.tsv", "parse_report.json", "valuenotes.csv"]


class TestCmdStudy:
    def test_five_domain_fixture_matches_oracle(self, tmp_path):
        lines, expected = study_fixture_lines()
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["study", dump, "--out", str(out)]) == 0
        study = json.loads((out / "study.json").read_text())
        xs = [score for _, score in expected.values()]
        ys = [float(count) for count, _ in expected.values()]
        assert study["n"] == 5
        assert study["pearson_r"] == pytest.approx(oracle_pearson(xs, ys), rel=1e-12)
        slope, intercept = oracle_linreg(xs, ys)
        assert study["slope"] == pytest.approx(slope, rel=1e-12)
        assert study["intercept"] == pytest.approx(intercept, rel=1e-12)
        assert (out / "scatter.svg").exists()
        assert (out / "scatter.csv").exists()

    def test_exclusion_changes_r_as_oracle_predicts(self, tmp_path):
        lines, expected = study_fixture_lines()
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["study", dump, "--out", str(out), "--exclude", "music"]) == 0
        study = json.loads((out / "study.json").read_text())
        remaining = {d: v for d, v in expected.items() if d != "music"}
        xs = [score for _, score in remaining.values()]
        ys = [float(count) for count, _ in remaining.values()]
        assert study["excluded"] == ["music"]
        assert study["n"] == 4
        assert study["pearson_r"] == pytest.approx(oracle_pearson(xs, ys), rel=1e-12)
        scatter = (out / "scatter.csv").read_text()
        assert "music" in scatter  # excluded point still plotted, flagged
        assert ",true" in scatter

    def test_single_domain_exits_3(self, tmp_path):
        lines = [
            obj_line("zoo.t0", "type.object.type", "type.type"),
            obj_line("m.s", "zoo.t0.p", "m.o"),
        ]
        dump = write_lines(tmp_path, lines)
        assert main(["study", dump, "--out", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "details, data",
        [((1, 1), (1, 2)), ((1, 0), (3, 3))],
        ids=["same-complexity", "same-triple-count"],
    )
    @pytest.mark.parametrize("route", ["dump", "intermediates"])
    def test_a_constant_variable_exits_3_and_writes_nothing(self, tmp_path, capsys, details, data, route):
        # Each domain: one type, one property, its /type/property/unique details
        # and its data triples; so one of the two variables never varies.
        lines = []
        for domain, n_det, n_data in zip(("zoo", "opera"), details, data):
            lines += [
                obj_line(f"{domain}.t0", "type.object.type", "type.type"),
                obj_line(f"{domain}.t0.p", "type.object.type", "type.property"),
            ]
            lines += [lit_line(f"{domain}.t0.p", "type.property.unique", "true")] * n_det
            lines += [obj_line(f"m.s{i}", f"{domain}.t0.p", "m.o") for i in range(n_data)]
        dump = write_lines(tmp_path, lines)
        argv = ["study", dump]
        if route == "intermediates":
            pre = tmp_path / "pre"
            assert main(["slice", dump, "--out", str(pre)]) == 0
            assert main(["schema", dump, "--out", str(pre)]) == 0
            argv = ["study", "--from-counts", str(pre / "taxonomy.csv"), "--from-schema", str(pre / "schema.csv")]
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: insufficient data: ") and captured.err.count("\n") == 1, captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "route, details, data, constant",
        [
            ("dump", (1, 1, 0), (1, 2, 3), "complexity score"),
            ("intermediates", (1, 0, 0), (2, 2, 3), "triple count"),
        ],
        ids=["dump", "intermediates"],
    )
    def test_a_constant_variable_is_named_with_the_domains_left(self, tmp_path, capsys, route, details, data, constant):
        # jazz differs in both variables, so only excluding it leaves one constant.
        lines = []
        for domain, n_det, n_data in zip(("zoo", "opera", "jazz"), details, data):
            lines += [
                obj_line(f"{domain}.t0", "type.object.type", "type.type"),
                obj_line(f"{domain}.t0.p", "type.object.type", "type.property"),
            ]
            lines += [lit_line(f"{domain}.t0.p", "type.property.unique", "true")] * n_det
            lines += [obj_line(f"m.s{i}", f"{domain}.t0.p", "m.o") for i in range(n_data)]
        dump = write_lines(tmp_path, lines)
        argv = ["study", dump]
        if route == "intermediates":
            pre = tmp_path / "pre"
            assert main(["slice", dump, "--out", str(pre)]) == 0
            assert main(["schema", dump, "--out", str(pre)]) == 0
            argv = ["study", "--from-counts", str(pre / "taxonomy.csv"), "--from-schema", str(pre / "schema.csv")]
        assert main(argv + ["--out", str(tmp_path / "all")]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "out"), "--exclude", "jazz"]) == 3
        assert capsys.readouterr().err == (
            "error: insufficient data: correlation undefined: "
            f"the same {constant} for every domain left: opera, zoo\n"
        )

    def test_unknown_exclusion_warns(self, tmp_path, capsys):
        lines, _ = study_fixture_lines()
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["study", dump, "--out", str(out), "--exclude", "nonexistent"]) == 0
        assert "matches no study domain" in capsys.readouterr().err

    def test_from_precomputed_intermediates(self, tmp_path):
        """taxonomy.csv and schema.csv give the study the dump gives, a domain whose name
        holds a CR included."""
        lines, expected = study_fixture_lines()
        for zoo in ("zoo", "zo\ro"):
            dump = write_lines(tmp_path, [line.replace("/ns/zoo.", f"/ns/{zoo}.") for line in lines])
            pre, out, direct_out = (tmp_path / f"{name}-{len(zoo)}" for name in ("pre", "out", "direct"))
            assert main(["slice", dump, "--out", str(pre)]) == 0
            assert main(["schema", dump, "--out", str(pre)]) == 0
            code = main(
                [
                    "study",
                    "--from-counts", str(pre / "taxonomy.csv"),
                    "--from-schema", str(pre / "schema.csv"),
                    "--out", str(out),
                ]
            )
            assert code == 0
            assert main(["study", dump, "--out", str(direct_out)]) == 0
            tree = read_tree(out)
            assert tree == {name: text for name, text in read_tree(direct_out).items() if name != "parse_report.json"}
            scatter = csv.DictReader(io.StringIO(tree["scatter.csv"].decode(), newline=""))
            assert zoo in [record["domain"] for record in scatter]

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("taxonomy.csv", b"predicate_pattern", b"pattern"),
            ("taxonomy.csv", b",60,", b",sixty,"),
            ("schema.csv", b",2.0\n", b",two\n"),
            ("schema.csv", b"domain", b"\xffdomain"),
            ("schema.csv", b",2.0\n", b",nan\n"),
            ("schema.csv", b",2.0\n", b",inf\n"),
            ("schema.csv", b",2.0\n", b",-2.0\n"),
            ("taxonomy.csv", b",60,", b",-60,"),
            ("taxonomy.csv", b",60,", b",6_0,"),
            ("schema.csv", b",2.0\n", b",2_0\n"),
            ("schema.csv", b",2.0\n", b", 2.0\n"),
        ],
        ids=[
            "missing-column",
            "triples-not-integer",
            "score-not-number",
            "not-utf8",
            "score-nan",
            "score-inf",
            "score-negative",
            "triples-negative",
            "triples-underscore",
            "score-underscore",
            "score-space",
        ],
    )
    def test_bad_intermediate_file_exits_2_before_any_write(self, tmp_path, capsys, name, old, new):
        lines, _ = study_fixture_lines()
        dump = write_lines(tmp_path, lines)
        pre = tmp_path / "pre"
        assert main(["slice", dump, "--out", str(pre)]) == 0
        assert main(["schema", dump, "--out", str(pre)]) == 0
        bad = pre / name
        assert old in bad.read_bytes()
        bad.write_bytes(bad.read_bytes().replace(old, new))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = ["study", "--from-counts", str(pre / "taxonomy.csv"), "--from-schema", str(pre / "schema.csv")]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: ") and captured.err.count("\n") == 1, captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_a_dump_study_equals_the_replay_of_slice_and_schema(self, tmp_path, monkeypatch, capsys):
        """A study of a dump writes and prints what a replay of slice's taxonomy.csv and
        schema's schema.csv writes and prints, at 1 and 2 workers on plain, gzip and stdin
        input, with --exclude music, and once with its own implementation domains."""
        packed = gzip_ranges_fixture(tmp_path, monkeypatch)
        plain = tmp_path / "dump.nt"
        plain.write_bytes(gzip.decompress((tmp_path / "dump.nt.gz").read_bytes()))
        cases = [(source, workers, []) for source in (str(plain), packed, "-") for workers in (1, 2)]
        cases.append((str(plain), 2, ["--implementation-domain", "film"]))
        replays = set()
        for number, (source, workers, groups) in enumerate(cases):
            pre, direct, replay = (tmp_path / f"{name}-{number}" for name in ("pre", "direct", "replay"))
            for command, options, out in [
                ("slice", groups, pre),
                ("schema", [], pre),
                ("study", [*groups, "--exclude", "music"], direct),
            ]:
                if source == "-":
                    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(plain.read_bytes())))
                assert main([command, source, "--workers", str(workers), "--out", str(out), *options]) == 0
            printed = capsys.readouterr()
            argv = ["study", "--from-counts", str(pre / "taxonomy.csv"), "--from-schema", str(pre / "schema.csv")]
            assert main([*argv, *groups, "--exclude", "music", "--out", str(replay)]) == 0
            replayed = capsys.readouterr()
            tree = read_tree(direct)
            assert sorted(tree) == ["parse_report.json", "scatter.csv", "scatter.svg", "study.json"]
            assert read_tree(replay) == {name: text for name, text in tree.items() if name != "parse_report.json"}
            assert printed.err.endswith(replayed.err) and "warning: no ontology" in replayed.err
            assert replayed.out == printed.out.splitlines(keepends=True)[-1]
            replays.add(tree["study.json"])
        assert len(replays) == 2  # film leaves the study for the implementation group

    def test_study_outputs_are_idempotent(self, tmp_path):
        lines, _ = study_fixture_lines()
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        argv = ["study", dump, "--out", str(out), "--exclude", "music"]
        assert main(argv) == 0
        first = read_tree(out)
        assert main(argv) == 0
        assert read_tree(out) == first

    def test_no_inputs_and_no_intermediates_exits_2(self, tmp_path, capsys):
        assert main(["study", "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "dump, flags",
        [
            (True, ["--from-counts"]),
            (True, ["--from-schema"]),
            (True, ["--from-counts", "--from-schema"]),
            (False, ["--from-counts"]),
            (False, ["--from-schema"]),
        ],
        ids=["dump-and-counts", "dump-and-schema", "dump-and-both", "counts-alone", "schema-alone"],
    )
    def test_mixed_inputs_exit_2_before_parsing(self, tmp_path, capsys, monkeypatch, dump, flags):
        lines, _ = study_fixture_lines()
        path = write_lines(tmp_path, lines)
        pre = tmp_path / "pre"
        assert main(["slice", path, "--out", str(pre)]) == 0
        assert main(["schema", path, "--out", str(pre)]) == 0
        files = {"--from-counts": pre / "taxonomy.csv", "--from-schema": pre / "schema.csv"}
        monkeypatch.setattr(cli, "_run", mock.Mock(side_effect=AssertionError("dump parsed")))
        capsys.readouterr()
        out = tmp_path / "out"
        argv = ["study", *([path] if dump else []), "--out", str(out)]
        for flag in flags:
            argv += [flag, str(files[flag])]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert captured.out == ""
        assert not out.exists()


def gzip_ranges_fixture(tmp_path, monkeypatch, fault=None):
    """A gzip dump with study, semantics and malformed lines, split into ranges.

    The minimum range size is lowered so the small file splits at any worker
    count. ``fault`` truncates the file mid-stream or corrupts its CRC.
    """
    lines, _ = study_fixture_lines()
    lines += random_dump_lines(3_000, seed=11, malformed_rate=0.05)
    lines += [obj_line(f"m.d{i}", "dataworld.gardening_hint.replaced_by", f"m.c{i % 5}") for i in range(200)]
    lines += [obj_line(f"people.person.p{i}", "freebase.valuenotation.has_value", f"m.x{i}") for i in range(50)]
    types = ("film.film", "film.film_series", "tv.tv_series")
    lines += [obj_line(f"m.t{i % 120}", "type.object.type", types[i % 3]) for i in range(300)]
    random.Random(3).shuffle(lines)
    data = bytearray(gzip.compress("".join(l + "\n" for l in lines).encode(), 6))
    if fault == "truncated":
        del data[len(data) * 2 // 3 :]
    elif fault == "bad-crc":
        data[-8] ^= 0xFF  # the trailer is CRC-32, then the length
    path = tmp_path / "dump.nt.gz"
    path.write_bytes(bytes(data))
    monkeypatch.setattr(pipeline, "GZIP_MIN_RANGE", 1024)
    return str(path)


class TestGzipRanges:
    def test_workers_produce_identical_outputs(self, tmp_path, monkeypatch):
        dump = gzip_ranges_fixture(tmp_path, monkeypatch)
        parts = pipeline.plan_partitions([dump], 4)
        assert len(parts) == 4
        assert all(next(pipeline.iter_partition_lines(part), None) for part in parts)  # each owns lines
        rules = tmp_path / "rules.tsv"
        rules.write_text("/film/film\t/film/film_series\n")
        commands = {
            "study": ["study", "--exclude", "music"],
            "semantics": ["semantics", "--rules", str(rules), "--json"],
            "slice": ["slice", "--materialize"],
        }
        for name, command in commands.items():
            trees = []
            for workers in (1, 2, 4):
                out = tmp_path / f"{name}-w{workers}"
                assert main([*command, dump, "--workers", str(workers), "--out", str(out)]) == 0
                trees.append(read_tree(out))
            assert trees[0] == trees[1] == trees[2], name
            report = json.loads(trees[0]["parse_report.json"])
            assert report["lines_malformed"] > 0 and report["first_errors"]
        assert "violations.json" in read_tree(tmp_path / "semantics-w1")
        assert not (tmp_path / "slice-w4" / ".fbont-slice").exists()

    @pytest.mark.parametrize("fault", ["truncated", "bad-crc"])
    def test_corrupt_gzip_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, fault):
        dump = gzip_ranges_fixture(tmp_path, monkeypatch, fault)
        for workers in (1, 2):
            assert len(pipeline.plan_partitions([dump], workers)) == workers
            for extra in ([], ["--materialize"]):
                out = tmp_path / f"out-w{workers}-{len(extra)}"
                argv = ["slice", dump, "--workers", str(workers), "--out", str(out), *extra]
                assert main(argv) == 2
                assert "stream aborted" in capsys.readouterr().err
                assert read_tree(out) == {}  # no taxonomy.*, no parse_report.json, no shards
                assert not (out / ".fbont-slice").exists()


    def test_abort_counts_the_lines_of_every_partition(self, tmp_path, monkeypatch, capsys):
        dump = gzip_ranges_fixture(tmp_path, monkeypatch, "truncated")
        with open(dump, "rb") as handle:
            inflated = zlib.decompressobj(wbits=31).decompress(handle.read())
        complete_lines = inflated.count(b"\n")
        expected = f"stream aborted after {complete_lines} lines"
        messages, errors = [], []
        for workers in (1, 2, 4):
            parts = pipeline.plan_partitions([dump], workers)
            assert len(parts) == workers
            with pytest.raises(StreamAbortedError) as caught:
                pipeline.run_partitioned(Job((SliceFold(),)), parts, workers)
            messages.append(str(caught.value))
            argv = ["study", dump, "--workers", str(workers), "--out", str(tmp_path / "out")]
            assert main(argv) == 2
            errors.append(capsys.readouterr().err)
        assert messages[0].startswith(expected)
        assert messages[0] == messages[1] == messages[2]
        assert errors[0] == errors[1] == errors[2] == f"error: {messages[0]}\n"


@dataclass(frozen=True)
class KillingSliceFold(SliceFold):
    """A slice fold whose worker process kills itself with SIGKILL in partition 1."""

    def start(self, part, lint):
        if part.index == 1 and os.getpid() != TEST_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().start(part, lint)


@dataclass(frozen=True)
class OutOfMemorySemanticsFold(SemanticsFold):
    """A semantics fold that runs out of memory in every partition once it has written a mask run."""

    def start(self, part, lint):
        feed, finish = super().start(part, lint)

        def feed_until_a_run(triple):
            feed(triple)
            runs = os.listdir(self.run_root) if os.path.isdir(self.run_root) else []
            if any(name.startswith(f"{part.index:05d}-") for name in runs):
                raise MemoryError(f"cannot allocate a mask entry in partition {part.index}")

        return feed_until_a_run, finish


def typed_semantics_fixture(tmp_path, lines=2_000, mids=300):
    """(dump path, rules path): random lines among type assertions of mids that break the rules."""
    rng = random.Random(lines)
    types = ("film.film", "film.film_series")
    typed = [obj_line(f"m.t{rng.randrange(mids)}", "type.object.type", rng.choice(types)) for _ in range(2 * mids)]
    dump_lines = random_dump_lines(lines, seed=4) + typed
    rng.shuffle(dump_lines)
    rules = tmp_path / "rules.tsv"
    rules.write_text("/film/film /film/film_series\n")
    return write_lines(tmp_path, dump_lines), str(rules)


def publish(out, docs):
    """cli._publish of the documents into ``out``, inside a slice command's work directory."""
    with cli._work_dir(str(out), "slice") as work:
        cli._publish(argparse.Namespace(out=str(out), work=work), docs)


def limit_file_size(limit):
    """A preexec_fn that caps the child's file size, with SIGXFSZ ignored so a write fails with EFBIG."""

    def preexec():  # runs in the child only, never in this process
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    return preexec


class TestFailureExits:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_out_of_memory_exits_5_and_writes_nothing(self, tmp_path, monkeypatch, capsys, workers):
        """A MemoryError, raised in this process at 1 worker and sent back by a worker at 2,
        is one line and exit 5, with no output and no mask run left."""
        dump, rules = typed_semantics_fixture(tmp_path)
        monkeypatch.setattr(pipeline, "MASK_RUN_ENTRIES", 5)
        monkeypatch.setattr(cli, "SemanticsFold", OutOfMemorySemanticsFold)
        assert len(pipeline.plan_partitions([dump], workers)) == workers
        out = tmp_path / "out"
        argv = ["semantics", dump, "--rules", rules, "--workers", str(workers), "--out", str(out)]
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory: cannot allocate a mask entry in partition 0\n"
        assert captured.out == ""
        assert read_tree(out) == {}
        assert not (out / ".fbont-semantics").exists()

    @pytest.mark.parametrize("code", [0, 2, 4, 5])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_mask_run_is_left_on_any_exit(self, tmp_path, monkeypatch, capsys, code, workers):
        """No mask run and no notation shard is left, whatever the exit."""
        dump, rules = typed_semantics_fixture(tmp_path)
        with open(dump, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for i in range(200):  # notations among the first lines, so shards are written before a read error
            lines.insert(i * 4, obj_line(f"people.person.p{i}", "freebase.valuenotation.has_value", f"m.x{i}"))
        write_lines(tmp_path, lines)
        monkeypatch.setattr(pipeline, "MASK_RUN_ENTRIES", 5)
        monkeypatch.setattr(pipeline, "NOTATION_BATCH", 3)
        if code == 2:  # a read error once the first runs are written
            real_blocks = pipeline.partition_blocks

            def failing_blocks(part):
                for number, line in enumerate(io.BytesIO(b"".join(real_blocks(part)))):
                    if number == 1_000:
                        raise OSError(5, "Input/output error")
                    yield line

            monkeypatch.setattr(pipeline, "partition_blocks", failing_blocks)
        elif code == 4:
            replaced_by = "dataworld.gardening_hint.replaced_by"
            cycle = [obj_line("m.p", replaced_by, "m.q"), obj_line("m.q", replaced_by, "m.p")]
            with open(dump, "a", encoding="utf-8") as handle:
                handle.write("".join(line + "\n" for line in cycle))
        elif code == 5:
            monkeypatch.setattr(cli, "SemanticsFold", OutOfMemorySemanticsFold)
        written = []
        write_run = pipeline.write_mask_run

        def counted_write(path, records):
            written.append(path)
            write_run(path, records)

        monkeypatch.setattr(pipeline, "write_mask_run", counted_write)
        shards = []
        write_notations = pipeline.write_notation_rows

        def counted_notations(path, notations):
            shards.append(path)
            write_notations(path, notations)

        monkeypatch.setattr(pipeline, "write_notation_rows", counted_notations)
        out = tmp_path / "out"
        argv = ["semantics", dump, "--rules", rules, "--workers", str(workers), "--out", str(out)]
        assert main(argv) == code
        assert (written and shards) or workers == 2  # a forked worker's files are written in the worker
        assert not (out / ".fbont-semantics").exists()
        assert (out / "violations.csv").exists() == (code == 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_disk_exits_2_and_leaves_no_parts_or_runs(self, tmp_path, workers):
        """A write past the file-size limit fails with EFBIG, as on a full disk: exit 2,
        with no slice shard and no mask run left."""
        dump, rules = typed_semantics_fixture(tmp_path, lines=4_000, mids=12_000)  # runs past 64 KiB
        assert os.path.getsize(dump) > 4 * 64 * 1024
        limit = limit_file_size(64 * 1024)
        cli_argv = [sys.executable, "-m", "fbont.cli"]
        out = tmp_path / "sliced"
        argv = cli_argv + ["slice", dump, "--materialize", "--workers", str(workers), "--out", str(out)]
        proc = subprocess.run(argv, capture_output=True, text=True, preexec_fn=limit)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: [Errno 27] File too large")
        assert read_tree(out) == {}
        out = tmp_path / "semantics"
        argv = cli_argv + ["semantics", dump, "--rules", rules, "--workers", str(workers), "--out", str(out)]
        proc = subprocess.run(argv, capture_output=True, text=True, preexec_fn=limit)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: [Errno 27] File too large")
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "command, old_argv, failing",
        [
            # merges.tsv and valuenotes.csv are written, then valuenotes.json fails
            (["semantics", "--rules", "RULES", "--json"], ["semantics"], 3),
            # the slices and taxonomy.json are written, then parse_report.json fails
            (["slice", "--materialize", "--format", "json"], ["slice", "--materialize"], 2),
        ],
    )
    def test_failed_publish_leaves_out_as_it_was(
        self, tmp_path, monkeypatch, capsys, command, old_argv, failing, workers
    ):
        """A document that fails to write after others were written exits 2 and leaves
        OUT byte-identical to its state before the run: the old files unchanged, no
        new file and no work directory."""
        dump, rules = typed_semantics_fixture(tmp_path)
        edge = obj_line("m.old", "dataworld.gardening_hint.replaced_by", "m.new")  # changes merges.tsv
        old = write_lines(tmp_path, random_dump_lines(200, seed=5) + [edge], "old.nt")
        out = tmp_path / "out"
        assert main([*old_argv, old, "--out", str(out)]) == 0
        before = read_tree(out), sorted(root for root, _, _ in os.walk(out))
        real_open = open
        written = []

        def failing_open(file, mode="r", *args, **kwargs):
            if "w" in mode:
                written.append(os.path.basename(file))
                if len(written) == failing:
                    raise OSError(28, "No space left on device")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        argv = [rules if arg == "RULES" else arg for arg in command]
        assert main([*argv, dump, "--workers", str(workers), "--out", str(out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert len(written) == failing
        assert (read_tree(out), sorted(root for root, _, _ in os.walk(out))) == before
        assert not any(name.startswith(".fbont-") for name in os.listdir(out))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("code", [0, 2, 3, 4, 5])
    def test_no_work_directory_is_left_on_any_exit(self, tmp_path, monkeypatch, code, workers):
        """Whatever a command exits with, it leaves no work directory, and the stale
        work directory a killed run left is never read."""
        dump, rules = typed_semantics_fixture(tmp_path)
        command = ["slice", "--materialize"]
        if code == 2:  # a read error once the first shards are written
            real_blocks = pipeline.partition_blocks

            def failing_blocks(part):
                for number, line in enumerate(io.BytesIO(b"".join(real_blocks(part)))):
                    if number == 500:
                        raise OSError(5, "Input/output error")
                    yield line

            monkeypatch.setattr(pipeline, "partition_blocks", failing_blocks)
        elif code == 3:
            lines, _ = study_fixture_lines()
            dump = write_lines(tmp_path, lines, "study.nt")
            command = ["study", *(arg for name in ("music", "film", "tv", "book") for arg in ("--exclude", name))]
        elif code == 4:
            replaced_by = "dataworld.gardening_hint.replaced_by"
            cycle = [obj_line("m.p", replaced_by, "m.q"), obj_line("m.q", replaced_by, "m.p")]
            with open(dump, "a", encoding="utf-8") as handle:
                handle.write("".join(line + "\n" for line in cycle))
            command = ["semantics", "--rules", rules]
        elif code == 5:
            monkeypatch.setattr(pipeline, "MASK_RUN_ENTRIES", 5)
            monkeypatch.setattr(cli, "SemanticsFold", OutOfMemorySemanticsFold)
            command = ["semantics", "--rules", rules]
        out = tmp_path / "out"
        work = out / f".fbont-{command[0]}"
        for stale in ("out/stale.csv", "parts/00000/domain/music.nt", "runs/00000-1-0.run"):
            (work / stale).parent.mkdir(parents=True, exist_ok=True)
            (work / stale).write_text("stale\n")
        assert main([*command, dump, "--workers", str(workers), "--out", str(out)]) == code
        names = os.listdir(out)
        assert not any(name.startswith(".fbont-") for name in names)
        assert bool(names) == (code == 0)  # a failed run writes nothing
        assert all(b"stale" not in text for text in read_tree(out).values())

    def test_worker_crash_exits_5(self, tmp_path, monkeypatch, capsys):
        def crash(*args):
            raise pipeline.WorkerFailure("worker process 1 ended before the result of partition 1")

        monkeypatch.setattr(pipeline, "run_partitioned", crash)
        dump = write_lines(tmp_path, random_dump_lines(20, seed=2))
        assert main(["slice", dump, "--workers", "2", "--out", str(tmp_path / "out")]) == 5
        assert "worker failure" in capsys.readouterr().err

    def test_materialize_worker_crash_leaves_no_shards(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"

        def crash(job, partitions, workers):
            job.run(partitions[0])  # one partition's shards are written, then a worker dies
            assert os.listdir(out / ".fbont-slice" / "parts") == ["00000"]
            raise pipeline.WorkerFailure("worker process 1 ended before the result of partition 1")

        monkeypatch.setattr(pipeline, "run_partitioned", crash)
        dump = write_lines(tmp_path, random_dump_lines(20, seed=2))
        argv = ["slice", dump, "--workers", "2", "--out", str(out), "--materialize"]
        assert main(argv) == 5
        assert "worker failure" in capsys.readouterr().err
        assert read_tree(out) == {}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers run in-process without os.fork")
    def test_killed_worker_exits_5_and_leaves_no_shards(self, tmp_path, monkeypatch, capsys):
        dump = write_lines(tmp_path, random_dump_lines(2_000, seed=2))
        parts = pipeline.plan_partitions([dump], 2)
        with pytest.raises(pipeline.WorkerFailure):
            pipeline.run_partitioned(Job((KillingSliceFold(),)), parts, 2)
        monkeypatch.setattr(cli, "SliceFold", KillingSliceFold)
        out = tmp_path / "out"
        argv = ["slice", dump, "--workers", "2", "--out", str(out), "--materialize"]
        assert main(argv) == 5
        assert "worker failure" in capsys.readouterr().err
        assert not (out / ".fbont-slice").exists()
        assert not (out / "taxonomy.csv").exists()

    def test_materialize_read_failure_leaves_no_shards(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        real_blocks = pipeline.partition_blocks

        def failing_blocks(part):  # one line per block, then a read error
            for number, line in enumerate(io.BytesIO(b"".join(real_blocks(part)))):
                if number == 30:
                    raise OSError(5, "Input/output error")
                yield line

        monkeypatch.setattr(pipeline, "partition_blocks", failing_blocks)
        dump = write_lines(tmp_path, random_dump_lines(100, seed=2))
        argv = ["slice", dump, "--workers", "1", "--out", str(out), "--materialize"]
        assert main(argv) == 2
        assert "Input/output error" in capsys.readouterr().err
        assert read_tree(out) == {}
        assert not os.path.exists(out / "taxonomy.csv")

    def test_failed_slice_concatenation_keeps_previous_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        old = write_lines(tmp_path, [lit_line("m.0a", "people.person.name", "old")], "old.nt")
        assert main(["slice", old, "--out", str(out), "--materialize"]) == 0
        previous = (out / "slices" / "domain" / "people.nt").read_bytes()
        lines = [lit_line(f"m.0{i}", "people.person.name", f"new {i}") for i in range(200)]
        dump = write_lines(tmp_path, lines)
        real_copy = pipeline.shutil.copyfileobj
        calls = []

        def failing_copy(source, target):  # the second shard piece fails to copy
            calls.append(source.name)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            real_copy(source, target)

        monkeypatch.setattr(pipeline.shutil, "copyfileobj", failing_copy)
        argv = ["slice", dump, "--workers", "2", "--out", str(out), "--materialize"]
        assert main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert len(calls) == 2 and all(name.endswith("people.nt") for name in calls)
        assert (out / "slices" / "domain" / "people.nt").read_bytes() == previous
        assert os.listdir(out / "slices") == ["domain"]
        assert os.listdir(out / "slices" / "domain") == ["people.nt"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shards_a_killed_run_left_never_reach_the_slices(self, tmp_path, workers):
        """A run killed outright cannot remove its shards; the next run must not read them."""
        dump = write_lines(tmp_path, [lit_line(f"m.0{i}", "film.film.name", f"film {i}") for i in range(50)])
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        stale = out / ".fbont-slice" / "parts" / "00000" / "domain" / "music.nt"
        stale.parent.mkdir(parents=True)
        stale.write_text(lit_line("m.0x", "music.artist.name", "stale") + "\n", encoding="utf-8")
        for target in (fresh, out):
            argv = ["slice", dump, "--workers", str(workers), "--out", str(target), "--materialize"]
            assert main(argv) == 0
        assert read_tree(out) == read_tree(fresh)
        assert not (out / ".fbont-slice").exists()

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out" / "taxonomy.csv"
        publish(target.parent, {"taxonomy.csv": "old\n"})
        real_open = open

        class FailingHandle:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda *a, **k: FailingHandle(real_open(*a, **k)), raising=False)
        with pytest.raises(OSError):
            publish(target.parent, {"taxonomy.csv": "new content that does not fit\n"})
        assert target.read_text() == "old\n"
        assert os.listdir(target.parent) == ["taxonomy.csv"]

    def test_write_replaces_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taxonomy.csv"
        publish(tmp_path, {"taxonomy.csv": "old\n"})
        publish(tmp_path, {"taxonomy.csv": "new\n"})
        assert target.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["taxonomy.csv"]


@dataclass(frozen=True)
class SleepingSliceFold(SliceFold):
    """A slice fold whose worker process sleeps for a minute before partition 1."""

    def start(self, part, lint):
        if part.index == 1 and os.getpid() != TEST_PID:
            time.sleep(60)
        return super().start(part, lint)


class UnpicklableError(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.callback = lambda: None


@dataclass(frozen=True)
class UnpicklableErrorSliceFold(SliceFold):
    """A slice fold whose worker raises an exception that pickle refuses, in partition 1."""

    def start(self, part, lint):
        if part.index == 1 and os.getpid() != TEST_PID:
            raise UnpicklableError()
        return super().start(part, lint)


@contextmanager
def reaps_and_closes_within(seconds=30):
    """The block must end within ``seconds``, reap every child it forks and close
    every descriptor it opens."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    before = set(os.listdir("/dev/fd"))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert set(os.listdir("/dev/fd")) == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers run in-process without os.fork")
class TestForkedWorkers:
    def test_killed_worker_leaves_no_child_or_pipe(self, tmp_path):
        dump = write_lines(tmp_path, random_dump_lines(2_000, seed=2))
        with reaps_and_closes_within(), pytest.raises(pipeline.WorkerFailure):
            pipeline.run_partitioned(Job((KillingSliceFold(),)), pipeline.plan_partitions([dump], 2), 2)

    def test_aborted_stream_leaves_no_child_or_pipe(self, tmp_path, monkeypatch):
        dump = gzip_ranges_fixture(tmp_path, monkeypatch, "truncated")
        with reaps_and_closes_within(), pytest.raises(StreamAbortedError):
            pipeline.run_partitioned(Job((SliceFold(),)), pipeline.plan_partitions([dump], 2), 2)

    def test_parent_exception_kills_running_children(self, tmp_path, monkeypatch):
        def failing_merge(results):
            next(iter(results))  # partition 0 arrives while partition 1's worker sleeps
            raise RuntimeError("merge failed")

        monkeypatch.setattr(pipeline, "_merge_results", failing_merge)
        dump = write_lines(tmp_path, random_dump_lines(2_000, seed=2))
        # within 30 s: the sleeping worker is killed, not waited out
        with reaps_and_closes_within(30), pytest.raises(RuntimeError, match="merge failed"):
            pipeline.run_partitioned(Job((SleepingSliceFold(),)), pipeline.plan_partitions([dump], 2), 2)

    def three_inputs(self, tmp_path, monkeypatch, fault=None):
        """A plain file, a gzip file of at least three minimum ranges and a plain file."""
        first = write_lines(tmp_path, random_dump_lines(400, seed=4), "first.nt")
        middle = gzip_ranges_fixture(tmp_path, monkeypatch, fault)
        last = write_lines(tmp_path, random_dump_lines(400, seed=5), "last.nt")
        assert os.path.getsize(middle) >= 3 * pipeline.GZIP_MIN_RANGE
        inputs = [first, middle, last]
        assert len(pipeline.plan_partitions(inputs, 2)) == 6
        return inputs

    def counting_forks(self, monkeypatch):
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return forks

    def test_more_partitions_than_workers_give_identical_trees(self, tmp_path, monkeypatch):
        inputs = self.three_inputs(tmp_path, monkeypatch)
        forks = self.counting_forks(monkeypatch)
        rules = tmp_path / "rules.tsv"
        rules.write_text("/film/film\t/film/film_series\n")
        commands = {
            "study": ["study", "--exclude", "music"],
            "semantics": ["semantics", "--rules", str(rules)],
            "slice": ["slice", "--materialize"],
        }
        for name, command in commands.items():
            trees = []
            for workers in (1, 2):
                forks.clear()
                out = tmp_path / f"{name}-w{workers}"
                assert main([*command, *inputs, "--workers", str(workers), "--out", str(out)]) == 0
                assert len(forks) == (0 if workers == 1 else 2), name
                trees.append(read_tree(out))
            assert trees[0] == trees[1], name
        assert "violations.csv" in read_tree(tmp_path / "semantics-w1")

    def test_truncated_middle_input_aborts_after_the_same_lines(self, tmp_path, monkeypatch, capsys):
        inputs = self.three_inputs(tmp_path, monkeypatch, "truncated")
        with open(inputs[1], "rb") as handle:
            inflated = zlib.decompressobj(wbits=31).decompress(handle.read())
        with open(inputs[0], "rb") as handle:
            lines = handle.read().count(b"\n") + inflated.count(b"\n")
        errors = []
        for workers in (1, 2):
            argv = ["slice", *inputs, "--workers", str(workers), "--out", str(tmp_path / "out")]
            assert main(argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith(f"error: stream aborted after {lines} lines")
        assert errors[0] == errors[1]

    def test_unpicklable_exception_is_a_worker_failure(self, tmp_path, monkeypatch):
        parts = pipeline.plan_partitions(self.three_inputs(tmp_path, monkeypatch), 2)
        with reaps_and_closes_within(), pytest.raises(pipeline.WorkerFailure, match="partition 1"):
            pipeline.run_partitioned(Job((UnpicklableErrorSliceFold(),)), parts, 2)

    def test_stdin_beside_a_file_is_read_by_a_worker(self, tmp_path):
        """A worker reads standard input from the descriptor it inherits: a
        process-pool worker read /dev/null there, and dropped every stdin line."""
        data = "".join(l + "\n" for l in random_dump_lines(30, seed=6)).encode()
        dump = write_lines(tmp_path, random_dump_lines(40, seed=7))
        trees = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            proc = subprocess.run(
                [sys.executable, "-m", "fbont.cli", "slice", "-", dump, "--workers", str(workers), "--out", str(out)],
                input=data,
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            trees.append(read_tree(out))
        assert json.loads(trees[0]["parse_report.json"])["lines_read"] == 70
        assert trees[0] == trees[1]


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        dump = write_lines(tmp_path, random_dump_lines(50, seed=1))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "fbont.cli", "slice", dump, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "taxonomy.csv").exists()

    def test_stdin_input(self, tmp_path):
        data = "".join(l + "\n" for l in random_dump_lines(30, seed=6)).encode()
        for name, stdin in (("plain", data), ("gzip", gzip.compress(data))):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "fbont.cli", "slice", "-", "--out", str(out)],
                input=stdin,
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            report = json.loads((out / "parse_report.json").read_text())
            assert report["lines_read"] == 30
            assert report["lines_malformed"] == 0

    def test_materialize_under_a_low_open_file_limit(self, tmp_path):
        """Workers keep a bounded number of slice files open: 350 slices under a
        soft RLIMIT_NOFILE of 64 give the same tree as an unlimited run."""
        rng = random.Random(64)
        lines = [obj_line(f"m.s{i}", f"d{i % 350}.t.p", f"m.o{i}") for i in range(3_500)]
        rng.shuffle(lines)  # each slice's lines spread over many 16 KiB blocks
        dump = write_lines(tmp_path, lines)
        argv = [sys.executable, "-m", "fbont.cli", "slice", dump, "--materialize", "--workers", "2"]

        def lower_open_file_limit():  # runs in the child only, never in this process
            resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))

        trees = []
        for name, preexec in (("unlimited", None), ("limited", lower_open_file_limit)):
            out = tmp_path / name
            proc = subprocess.run(argv + ["--out", str(out)], capture_output=True, text=True, preexec_fn=preexec)
            assert proc.returncode == 0, proc.stderr
            trees.append(read_tree(out))
        assert len(trees[0]) == 350 + 4  # the slices, taxonomy.csv/.md/.tsv and parse_report.json
        assert trees[1] == trees[0]

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        dump = write_lines(tmp_path, random_dump_lines(20, seed=3))
        out = tmp_path / "env_out"
        monkeypatch.setenv("FBONT_OUT", str(out))
        assert main(["slice", dump]) == 0
        assert (out / "taxonomy.csv").exists()

    def test_import_loads_no_network_modules(self):
        """The scatterplot's XML escaping must not pull urllib.request and its imports,
        and hashlib is imported only for a slice name too long for a file name:
        each of them raises every command's peak RSS by megabytes."""
        loaded = modules_loaded_by_importing_the_cli()
        assert "fbont.report" in loaded
        assert not loaded & {"urllib.request", "http.client", "ssl", "email", "hashlib"}

    def test_import_loads_none_of_the_lazily_imported_modules(self):
        """slicer imports hashlib and resource only where it needs them, report
        escapes XML by itself, and pipeline forks its workers without a process
        pool: xml.sax alone once added 5.6 MB to every command's peak RSS, and
        concurrent.futures with multiprocessing 2.2 MB. Importing the CLI must
        load no module of these packages."""
        packages = {name.split(".")[0] for name in modules_loaded_by_importing_the_cli()}
        assert not packages & {"hashlib", "xml", "resource", "concurrent", "multiprocessing"}


# No option respells the public dump's namespace or predicates, chooses the
# slice path, keeps state that grows with the dump (--count-distinct kept
# every line, --incompatibility-predicate every type assertion) or resizes the
# error sample (--max-errors; parse_report.json keeps the first 20): the
# commands read the dump's own spellings, and argparse refuses these.
SCHEMA_OPTIONS = ("--description-predicate", "--detail-predicate", "--type-predicate", "--schema-domain")
COMMANDS = ("slice", "schema", "semantics", "study")
REMOVED_OPTIONS = [(command, option) for command in ("schema", "study") for option in SCHEMA_OPTIONS] + [
    ("semantics", "--replaced-by-predicate"),
    ("semantics", "--type-predicate"),
    ("slice", "--slice-layout"),
    ("slice", "--count-distinct"),
    ("semantics", "--incompatibility-predicate"),
    *[(command, "--namespace") for command in COMMANDS],
    *[(command, "--max-errors") for command in COMMANDS],
]


@pytest.mark.parametrize("command,option", REMOVED_OPTIONS)
def test_removed_option_is_a_usage_error(tmp_path, capsys, command, option):
    dump = write_lines(tmp_path, random_dump_lines(10, seed=1))
    with pytest.raises(SystemExit) as exc:
        main([command, dump, "--out", str(tmp_path / "out"), option, "/x/y/z"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Every value each subcommand lets a user set (argparse dests, --help aside).
# A new knob must be added here on purpose.
SETTABLE_DESTS = {
    "slice": [
        "format",
        "implementation_domain",
        "inputs",
        "materialize",
        "out",
        "strict_ids",
        "workers",
    ],
    "schema": ["inputs", "json", "out", "strict_ids", "workers"],
    "semantics": [
        "accept_reversed",
        "cycle_policy",
        "inputs",
        "json",
        "out",
        "rules",
        "strict_ids",
        "workers",
    ],
    "study": [
        "exclude",
        "from_counts",
        "from_schema",
        "implementation_domain",
        "inputs",
        "out",
        "strict_ids",
        "workers",
    ],
}


def test_settable_values_are_pinned():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    settable = {
        name: sorted(a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction))
        for name, parser in sub.choices.items()
    }
    assert settable == SETTABLE_DESTS
