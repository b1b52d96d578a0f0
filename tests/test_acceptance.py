"""Binding acceptance suite.

One test per criterion, each at its stated tolerance and runtime budget,
printing one pass/fail line (run with ``pytest tests/test_acceptance.py -s``
to see them inline). The full-dump correlation figures are out of desk reach
(criterion 8): the README documents the exact reproduction command and this
suite binds criteria 1-7 plus determinism instead.
"""

import json
import os
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import load_census, obj_line
from dumpgen import (
    oracle_count_wellformed,
    oracle_linreg,
    oracle_pearson,
    oracle_resolve,
    oracle_slice_counts,
    random_dump_lines,
)
from fbont.cli import main
from fbont.model import Mid, idpath
from fbont.parser import stream_parse
from fbont.pipeline import (
    Job,
    SliceFold,
    merge_slice_payloads,
    plan_partitions,
    run_partitioned,
)
from fbont.schema import extract_schema, merge_schemas
from fbont.semantics import (
    CyclePolicy,
    MergeCycleError,
    MergeMap,
    NotationKind,
    build_merge_map,
    extract_value_notations,
    rewrite_canonical,
)
from fbont.slicer import DOMAIN, OWL_TERM, SliceKey, SliceWriter, build_taxonomy, slice_stream
from fbont.stats import linreg, pearson_r, run_study

from test_cli import read_tree, study_fixture_lines, write_lines
from test_schema import parse_fixture

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
CENSUS = os.path.join(os.path.dirname(__file__), "data", "domain_census.tsv")


class criterion:
    """Prints one pass/fail line per acceptance criterion."""

    def __init__(self, number: int, title: str):
        self.number = number
        self.title = title

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        print(f"[acceptance] criterion {self.number} ({self.title}): {status}")
        return False


def test_criterion_1_published_percentages_reproduce():
    with criterion(1, "published taxonomy percentages within 0.001 points"):
        started = time.perf_counter()
        census = load_census()
        counts = {
            SliceKey(OWL_TERM if row["group"] == "owl" else DOMAIN, row["name"]): row["triples"]
            for row in census
        }
        rows = {(r.key.kind, r.key.name): r for r in build_taxonomy(counts)}
        assert len(rows) == 105
        for row in census:
            kind = OWL_TERM if row["group"] == "owl" else DOMAIN
            stat = rows[(kind, row["name"])]
            assert abs(stat.total_pct * 100 - float(row["total_pct"])) <= 1e-3, row["name"]
            assert abs(stat.group_pct * 100 - float(row["group_pct"])) <= 1e-3, row["name"]
        spot = rows[(DOMAIN, "common")]
        assert (f"{spot.total_pct:.3%}"[:-1], f"{spot.group_pct:.3%}"[:-1]) == ("45.658", "58.507")
        spot = rows[(DOMAIN, "music")]
        assert (f"{spot.total_pct:.3%}"[:-1], f"{spot.group_pct:.3%}"[:-1]) == ("6.684", "60.062")
        spot = rows[(OWL_TERM, "type")]
        assert (f"{spot.total_pct:.3%}"[:-1], f"{spot.group_pct:.3%}"[:-1]) == ("8.507", "78.520")
        assert time.perf_counter() - started < 1.0


def test_criterion_2_slicer_oracle_equivalence(tmp_path):
    with criterion(2, "slice counts equal naive filter oracle; slices partition input"):
        started = time.perf_counter()
        lines = random_dump_lines(100_000, seed=1234)
        triples = []
        stream_parse(lines, triples.append)
        with SliceWriter(tmp_path / "slices", "http://rdf.freebase.com/ns/") as writer:
            counts = slice_stream(triples, writer)
        got = {(k.kind, k.name): v for k, v in counts.items()}
        expected = oracle_slice_counts(lines)
        assert got == expected
        assert len([k for k in counts if k.kind == DOMAIN]) >= 20
        assert any(k.kind == OWL_TERM for k in counts)
        materialized = []
        for root, _, files in os.walk(tmp_path / "slices"):
            for name in files:
                with open(os.path.join(root, name), encoding="utf-8") as handle:
                    materialized.extend(handle.read().splitlines())
        assert sorted(materialized) == sorted(lines)
        assert time.perf_counter() - started < 10.0


def test_criterion_3_parser_robustness_and_worker_determinism(tmp_path):
    with criterion(3, "1M lines, 1% malformed; identical at workers 1/4/16; <30s"):
        lines = random_dump_lines(1_000_000, seed=42, malformed_rate=0.01)
        path = write_lines(tmp_path, lines, "million.nt")
        started = time.perf_counter()
        parts = plan_partitions([path], 1)
        report, payloads = run_partitioned(Job((SliceFold(),)), parts, 1)
        elapsed = time.perf_counter() - started
        assert report.lines_read == 1_000_000
        assert report.triples_ok + report.lines_malformed == report.lines_read
        assert report.lines_malformed > 0
        assert report.triples_ok == oracle_count_wellformed(lines)
        baseline = (report, merge_slice_payloads(payloads)["counts"])
        for workers in (4, 16):
            parts = plan_partitions([path], workers)
            worker_report, worker_payloads = run_partitioned(Job((SliceFold(),)), parts, workers)
            assert worker_report == baseline[0]
            assert merge_slice_payloads(worker_payloads)["counts"] == baseline[1]
        assert elapsed < 30.0


def test_criterion_4_merge_semantics():
    with criterion(4, "deep chains, cycle policies, count-preserving rewrite"):
        for depth in (10, 100, 1000):
            edges = {Mid(f"n{i}"): Mid(f"n{i + 1}") for i in range(depth)}
            merge_map = MergeMap(dict(edges))
            for probe in (0, depth // 2, depth - 1):
                mid = Mid(f"n{probe}")
                assert merge_map.resolve(mid) == oracle_resolve(edges, mid) == Mid(f"n{depth}")

        cycle = MergeMap({Mid("p"): Mid("q"), Mid("q"): Mid("r"), Mid("r"): Mid("p")})
        with pytest.raises(MergeCycleError):
            cycle.resolve(Mid("q"))
        resilient = MergeMap(dict(cycle.edges))
        assert resilient.resolve(Mid("q"), CyclePolicy.SMALLEST) == Mid("p")

        lines = [
            obj_line(f"m.d{i}", "dataworld.gardening_hint.replaced_by", f"m.c{i % 7}")
            for i in range(100)
        ] + [
            obj_line(f"m.d{i % 150}", "people.person.spouse_s", f"m.d{(i * 3) % 150}")
            for i in range(400)
        ]
        triples = parse_fixture(lines)
        merge_map = build_merge_map(triples)
        rewritten = []
        report = rewrite_canonical(triples, merge_map, rewritten.append)
        assert report.triples_seen == len(triples) == len(rewritten)
        assert [t.predicate for t in rewritten] == [t.predicate for t in triples]


def test_criterion_5_value_notations():
    with criterion(5, "7 HV + 5 HNV in both orientations"):
        forward = [
            obj_line(f"people.person.p{i}", "freebase.valuenotation.has_value", f"m.v{i}")
            for i in range(7)
        ] + [
            obj_line(f"people.person.q{i}", "freebase.valuenotation.has_no_value", f"m.w{i}")
            for i in range(5)
        ] + [
            obj_line("m.a", "people.person.spouse_s", "m.b")
        ]
        notations = extract_value_notations(parse_fixture(forward))
        assert sum(1 for n in notations if n.kind is NotationKind.HAS_VALUE) == 7
        assert sum(1 for n in notations if n.kind is NotationKind.HAS_NO_VALUE) == 5

        reversed_fixture = [
            obj_line(f"m.v{i}", "freebase.valuenotation.has_value", f"people.person.p{i}")
            for i in range(7)
        ] + [
            obj_line(f"m.w{i}", "freebase.valuenotation.has_no_value", f"people.person.q{i}")
            for i in range(5)
        ]
        flagged = extract_value_notations(parse_fixture(reversed_fixture), accept_reversed=True)
        assert sum(1 for n in flagged if n.kind is NotationKind.HAS_VALUE) == 7
        assert sum(1 for n in flagged if n.kind is NotationKind.HAS_NO_VALUE) == 5
        assert all(n.orientation == "reversed" for n in flagged)


def _random_regression_instance(rng):
    n = rng.randint(3, 40)
    slope = rng.uniform(-5, 5)
    intercept = rng.choice([-1, 1]) * rng.uniform(5, 50)
    xs = [rng.uniform(-100, 100) for _ in range(n)]
    ys = [slope * x + intercept + rng.gauss(0, 4) for x in xs]
    if len(set(xs)) == 1:
        xs[0] += 1.0
    if len(set(ys)) == 1:
        ys[0] += 1.0
    return xs, ys


def test_criterion_6_statistics_oracle_equivalence():
    with criterion(6, "pearson/linreg vs extended-precision oracles, 1000 instances"):
        rng = random.Random(987)
        for _ in range(1000):
            xs, ys = _random_regression_instance(rng)
            assert pearson_r(xs, ys) == pytest.approx(oracle_pearson(xs, ys), rel=1e-12, abs=0.0)
            slope, intercept = linreg(xs, ys)
            ref_slope, ref_intercept = oracle_linreg(xs, ys)
            assert slope == pytest.approx(ref_slope, rel=1e-9, abs=0.0)
            assert intercept == pytest.approx(ref_intercept, rel=1e-9, abs=0.0)


@settings(max_examples=200)
@given(
    data=st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e6, 1e6)), min_size=3, max_size=30
    ),
    scale=st.floats(0.001, 1e3),
    shift=st.floats(-1e4, 1e4),
    seed=st.integers(0, 2**16),
)
def test_criterion_6b_affine_and_permutation_invariance(data, scale, shift, seed):
    xs = [x for x, _ in data]
    ys = [y for _, y in data]
    # the property presumes non-constant, well-conditioned inputs: a spread
    # that float absorption under scale/shift cannot collapse
    spread_x = max(xs) - min(xs)
    assume(spread_x > 1e-3 and max(ys) - min(ys) > 1e-3)
    assume(spread_x * scale > 1e-3 * max(1.0, abs(shift)))
    base = pearson_r(xs, ys)
    transformed = pearson_r([x * scale + shift for x in xs], ys)
    assert transformed == pytest.approx(base, rel=1e-6, abs=1e-9)
    order = list(range(len(xs)))
    random.Random(seed).shuffle(order)
    permuted = pearson_r([xs[i] for i in order], [ys[i] for i in order])
    assert permuted == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_criterion_7_complexity_score_and_merge_stability():
    with criterion(7, "score fixture equals 2.0; partitioned extraction merges exactly"):
        from test_schema import SCHEMA_FIXTURE

        schemas = extract_schema(parse_fixture(SCHEMA_FIXTURE))
        people = schemas["people"]
        assert (len(people.types), len(people.properties)) == (2, 3)
        assert (people.description_count, people.property_detail_count) == (4, 6)
        from fbont.schema import complexity_score

        assert complexity_score(people) == 2.0

        rng = random.Random(31)
        subjects = ["people.person", "people.person.dob", "film.film", "m.x", "people", "a.b.c.d"]
        predicates = [
            "type.object.type", "common.topic.description",
            "type.property.expected_type", "people.person.spouse_s",
        ]
        objects = ["type.type", "type.property", "m.y"]
        for trial in range(25):
            lines = [
                obj_line(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
                for _ in range(rng.randint(0, 60))
            ]
            cut = rng.randint(0, len(lines)) if lines else 0
            whole = extract_schema(parse_fixture(lines))
            merged = merge_schemas(
                extract_schema(parse_fixture(lines[:cut])),
                extract_schema(parse_fixture(lines[cut:])),
            )
            assert merged == whole, f"trial {trial}"


def test_criterion_8_full_dump_figures_documented_not_asserted():
    with criterion(8, "full-dump study documented; count divergence noted as expected"):
        with open(README, encoding="utf-8") as handle:
            readme = handle.read()
        # the exact reproduction command for the full-dump figures
        assert "fbont study" in readme
        assert "--exclude music" in readme
        # headline figures stated as full-dump-only expectations, not tests
        for figure in ("0.2824", "78,424.08", "0.6680", "33,899.53"):
            assert figure in readme
        # the known published-count divergence is an expected note, not a failure
        with open(CENSUS, encoding="utf-8") as handle:
            census_text = handle.read()
        assert "278,179" in census_text and "american_football" in census_text
        census_value = next(
            row["triples"] for row in load_census() if row["name"] == "american_football"
        )
        assert census_value == 483_372
        assert census_value != 278_179


def test_criterion_9_byte_identical_reruns(tmp_path):
    with criterion(9, "every command rerun is byte-identical, svg included"):
        study_lines, _ = study_fixture_lines()
        mixed = study_lines + random_dump_lines(1_500, seed=77, malformed_rate=0.01)
        dump = write_lines(tmp_path, mixed, "fixture.nt")
        rules = tmp_path / "rules.tsv"
        rules.write_text("/film/film\t/film/film_series\n")
        commands = {
            "slice": ["slice", dump, "--materialize", "--workers", "3"],
            "schema": ["schema", dump],
            "semantics": ["semantics", dump, "--rules", str(rules)],
            "study": ["study", dump, "--exclude", "music"],
        }
        for name, argv in commands.items():
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == 0
            first = read_tree(out)
            assert main(argv + ["--out", str(out)]) == 0
            second = read_tree(out)
            assert second == first, f"{name} rerun differed"
            assert first, f"{name} wrote no outputs"
        svg = (tmp_path / "study" / "scatter.svg").read_bytes()
        assert svg.startswith(b"<svg")
