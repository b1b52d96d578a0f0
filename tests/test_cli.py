import ast
import gzip
import io
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import zlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from unittest import mock

import pytest

from conftest import fb, lit_line, obj_line
from dumpgen import oracle_linreg, oracle_pearson, oracle_violations, random_dump_lines
from fbont import cli, pipeline
from fbont.cli import main
from fbont.model import render
from fbont.parser import StreamAbortedError, stream_parse
from fbont.pipeline import Job, SliceFold
from fbont.semantics import check_incompatibilities
from fbont.slicer import slice_relpath, slice_stream

TEST_PID = os.getpid()


def write_lines(tmp_path, lines, name="dump.nt"):
    path = tmp_path / name
    path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    return str(path)


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
                report = stream_parse(os.path.join(root, name), lambda t: None)
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
        triples = []
        stream_parse(dump, triples.append)
        counts = slice_stream(triples)
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

    def test_count_distinct(self, tmp_path, capsys):
        base = random_dump_lines(100, seed=2)
        dump = write_lines(tmp_path, base + base)  # exact duplicates
        for workers in (1, 3):  # 3 partitions: the distinct sets must union
            out = tmp_path / f"out_w{workers}"
            argv = ["slice", dump, "--out", str(out), "--count-distinct", "--workers", str(workers)]
            assert main(argv) == 0
            report = json.loads((out / "parse_report.json").read_text())
            assert report["distinct_triples"] == 100
            assert report["triples_ok"] == 200

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
        if materialize:  # kept verbatim, so the backslash itself is escaped on output
            written = (out / "slices" / "domain" / "type.nt").read_text(encoding="utf-8")
            assert f'"x\\{escape}"' in written


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

        monkeypatch.setattr(cli, "run_partitioned", no_parse)
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

    def test_cycle_fail_loud_exits_4(self, tmp_path):
        lines = [
            obj_line("m.p", "dataworld.gardening_hint.replaced_by", "m.q"),
            obj_line("m.q", "dataworld.gardening_hint.replaced_by", "m.r"),
            obj_line("m.r", "dataworld.gardening_hint.replaced_by", "m.p"),
        ]
        dump = write_lines(tmp_path, lines)
        assert main(["semantics", dump, "--out", str(tmp_path / "out")]) == 4

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
        """The fold keeps only the named types' assertions; the violations are
        those of all assertions, at any worker count, on plain and gzip input."""
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

        def check(assertions, rules):
            checked.extend(assertions)
            return check_incompatibilities(assertions, rules)

        monkeypatch.setattr(cli, "check_incompatibilities", check)
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
        assert {render(t) for _, t in checked} == {t for pair in pairs for t in pair}  # 4 of 6 types


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

    def test_unknown_exclusion_warns(self, tmp_path, capsys):
        lines, _ = study_fixture_lines()
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["study", dump, "--out", str(out), "--exclude", "nonexistent"]) == 0
        assert "matches no study domain" in capsys.readouterr().err

    def test_from_precomputed_intermediates(self, tmp_path):
        lines, expected = study_fixture_lines()
        dump = write_lines(tmp_path, lines)
        pre = tmp_path / "pre"
        assert main(["slice", dump, "--out", str(pre)]) == 0
        assert main(["schema", dump, "--out", str(pre)]) == 0
        out = tmp_path / "out"
        code = main(
            [
                "study",
                "--from-counts", str(pre / "taxonomy.csv"),
                "--from-schema", str(pre / "schema.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        direct_out = tmp_path / "direct"
        assert main(["study", dump, "--out", str(direct_out)]) == 0
        assert (out / "study.json").read_text() == (direct_out / "study.json").read_text()

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("taxonomy.csv", b"predicate_pattern", b"pattern"),
            ("taxonomy.csv", b",60,", b",sixty,"),
            ("schema.csv", b",2.0\n", b",two\n"),
            ("schema.csv", b"domain", b"\xffdomain"),
        ],
        ids=["missing-column", "triples-not-integer", "score-not-number", "not-utf8"],
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
            "slice": ["slice", "--materialize", "--count-distinct"],
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
        assert not (tmp_path / "slice-w4" / "slices" / ".parts").exists()

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
                assert not (out / "slices" / ".parts").exists()


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

    def start(self, part, parser, lint):
        if part.index == 1 and os.getpid() != TEST_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().start(part, parser, lint)


class TestFailureExits:
    def test_worker_crash_exits_5(self, tmp_path, monkeypatch, capsys):
        def crash(*args):
            raise BrokenProcessPool("a worker process terminated abruptly")

        monkeypatch.setattr(cli, "run_partitioned", crash)
        dump = write_lines(tmp_path, random_dump_lines(20, seed=2))
        assert main(["slice", dump, "--workers", "2", "--out", str(tmp_path / "out")]) == 5
        assert "worker failure" in capsys.readouterr().err

    def test_materialize_worker_crash_leaves_no_shards(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"

        def crash(job, partitions, workers):
            job.run(partitions[0])  # one partition's shards are written, then a worker dies
            assert os.listdir(out / "slices" / ".parts") == ["00000"]
            raise BrokenProcessPool("a worker process terminated abruptly")

        monkeypatch.setattr(cli, "run_partitioned", crash)
        dump = write_lines(tmp_path, random_dump_lines(20, seed=2))
        argv = ["slice", dump, "--workers", "2", "--out", str(out), "--materialize"]
        assert main(argv) == 5
        assert "worker failure" in capsys.readouterr().err
        assert os.listdir(out / "slices") == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="a fold defined in a test module reaches workers by fork",
    )
    def test_killed_worker_exits_5_and_leaves_no_shards(self, tmp_path, monkeypatch, capsys):
        dump = write_lines(tmp_path, random_dump_lines(2_000, seed=2))
        parts = pipeline.plan_partitions([dump], 2)
        with pytest.raises(BrokenProcessPool):
            pipeline.run_partitioned(Job((KillingSliceFold(),)), parts, 2)
        monkeypatch.setattr(cli, "SliceFold", KillingSliceFold)
        out = tmp_path / "out"
        argv = ["slice", dump, "--workers", "2", "--out", str(out), "--materialize"]
        assert main(argv) == 5
        assert "worker failure" in capsys.readouterr().err
        assert not (out / "slices" / ".parts").exists()
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
        assert os.listdir(out / "slices") == []
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

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out" / "taxonomy.csv"
        cli._write_text(str(target), "old\n")
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
            cli._write_text(str(target), "new content that does not fit\n")
        assert target.read_text() == "old\n"
        assert os.listdir(target.parent) == ["taxonomy.csv"]

    def test_write_replaces_and_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taxonomy.csv"
        cli._write_text(str(target), "old\n")
        cli._write_text(str(target), "new\n")
        assert target.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["taxonomy.csv"]


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
        proc = subprocess.run(
            [sys.executable, "-c", "import fbont.cli, sys; print(sorted(sys.modules))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(ast.literal_eval(proc.stdout))
        assert "fbont.report" in loaded
        assert not loaded & {"urllib.request", "http.client", "ssl", "email", "hashlib"}


# No option respells the public dump's predicates or chooses the slice path:
# the commands read the dump's own spellings, and argparse refuses these.
SCHEMA_OPTIONS = ("--description-predicate", "--detail-predicate", "--type-predicate", "--schema-domain")
REMOVED_OPTIONS = [(command, option) for command in ("schema", "study") for option in SCHEMA_OPTIONS] + [
    ("semantics", "--replaced-by-predicate"),
    ("semantics", "--type-predicate"),
    ("slice", "--slice-layout"),
]


@pytest.mark.parametrize("command,option", REMOVED_OPTIONS)
def test_removed_option_is_a_usage_error(tmp_path, capsys, command, option):
    dump = write_lines(tmp_path, random_dump_lines(10, seed=1))
    with pytest.raises(SystemExit) as exc:
        main([command, dump, "--out", str(tmp_path / "out"), option, "/x/y/z"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
