import gzip
import json
import os
import subprocess
import sys

import pytest

from conftest import lit_line, obj_line
from dumpgen import oracle_linreg, oracle_pearson, random_dump_lines
from fbont.cli import main
from fbont.parser import stream_parse


def write_lines(tmp_path, lines, name="dump.nt"):
    path = tmp_path / name
    path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    return str(path)


def read_tree(directory):
    tree = {}
    for root, _, files in os.walk(directory):
        for name in files:
            full = os.path.join(root, name)
            tree[os.path.relpath(full, directory)] = open(full, "rb").read()
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
                concatenated.extend(
                    open(os.path.join(root, name), encoding="utf-8").read().splitlines()
                )
        # concatenate-and-diff oracle: slices are a permutation of the input
        assert sorted(concatenated) == sorted(lines)
        # and every slice file is valid N-Triples readable by the parser
        for root, _, files in os.walk(slice_dir):
            for name in files:
                report = stream_parse(os.path.join(root, name), lambda t: None)
                assert report.lines_malformed == 0

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

    def test_slice_layout_template(self, tmp_path):
        lines = [obj_line("m.a", "people.person.p", "m.b")]
        dump = write_lines(tmp_path, lines)
        out = tmp_path / "out"
        code = main(
            ["slice", dump, "--out", str(out), "--materialize",
             "--slice-layout", "flat_{kind}_{name}.nt"]
        )
        assert code == 0
        assert (out / "slices" / "flat_domain_people.nt").exists()


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
