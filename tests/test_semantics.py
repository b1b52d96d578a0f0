import csv
import io
import os
import pickle
import random
import subprocess
from collections import Counter

import pytest

from conftest import RUN_ROOT, dump_stream, fold_triples, lit_line, obj_line, read_masks, read_notations
from dumpgen import oracle_resolve, oracle_violations
from fbont.model import Literal, Mid, idpath, parse_ref
from fbont.parser import ParseReport, iter_triples, serialize
from fbont.pipeline import Job, Partition, SemanticsFold
from fbont.semantics import (
    CyclePolicy,
    IncompatibilityRule,
    MergeCycleError,
    MergeMap,
    NotationKind,
    Violation,
    check_incompatibilities,
    load_rules,
    mask_run_path,
    merge_mask_runs,
    merge_tsv_rows,
    read_mask_run,
    rewrite_canonical,
    write_mask_run,
    write_merge_tsv,
)
from test_interpreters import SRC, interpreters_on_path, skip_unless_it_starts

REPLACED_BY = "dataworld.gardening_hint.replaced_by"


def parse_lines(lines):
    return list(iter_triples(dump_stream(lines), ParseReport()))


def merge_map_of(triples):
    """The merge map the semantics fold makes of these triples."""
    return fold_triples(SemanticsFold(RUN_ROOT), triples)[0]["merge_map"]


def notations_of(triples, accept_reversed=False):
    """The value notations the semantics fold makes of these triples."""
    payload = fold_triples(SemanticsFold(RUN_ROOT, accept_reversed=accept_reversed), triples)[0]
    return read_notations(payload["notations"])


def read_merge_tsv(stream):
    """A merge map of the duplicate/canonical rows write_merge_tsv writes."""
    merge_map = MergeMap()
    for line_number, line in enumerate(stream, 1):
        text = line.rstrip("\n")
        if not text:
            continue
        parts = text.split("\t")
        if len(parts) != 2:
            raise ValueError(f"merge tsv line {line_number}: expected two columns")
        if not all(isinstance(parse_ref(p), Mid) for p in parts):
            raise ValueError(f"merge tsv line {line_number}: not mids: {text!r}")
        merge_map.add_edge(*parts)
    return merge_map


def forest_lines(n_nodes, seed, edge_probability=0.6):
    """Random replaced-by forest (edges only point to lower indexes: acyclic), edges by rendered id."""
    rng = random.Random(seed)
    lines, edges = [], {}
    for i in range(1, n_nodes):
        if rng.random() < edge_probability:
            j = rng.randrange(i)
            lines.append(obj_line(f"m.n{i}", REPLACED_BY, f"m.n{j}"))
            edges[f"/m/n{i}"] = f"/m/n{j}"
        else:
            lines.append(obj_line(f"m.n{i}", "people.person.spouse_s", f"m.n{i - 1}"))
    rng.shuffle(lines)
    return lines, edges


class TestBuildMergeMap:
    def test_single_edge(self):
        merge_map = merge_map_of(parse_lines([obj_line("m.xyz123", REPLACED_BY, "m.abc123")]))
        assert merge_map.edges == {"/m/xyz123": "/m/abc123"}

    def test_empty_stream(self):
        assert merge_map_of([]).edges == {}

    def test_forest_matches_filter_oracle(self):
        lines, expected = forest_lines(10_000, seed=5)
        merge_map = merge_map_of(parse_lines(lines))
        assert merge_map.edges == expected

    def test_conflicting_edge_last_writer_wins(self):
        lines = [
            obj_line("m.a", REPLACED_BY, "m.b"),
            obj_line("m.a", REPLACED_BY, "m.c"),
        ]
        merge_map = merge_map_of(parse_lines(lines))
        assert merge_map.edges == {"/m/a": "/m/c"}
        assert merge_map.conflicts == 1

    def test_conflicts_count_as_one_pass_counts_them_wherever_the_edges_split(self):
        """A later partition's first edge of a duplicate is checked against the
        earlier partition's last edge of it, so every split gives the one-pass map."""
        rng = random.Random(4)
        edges = [(f"/m/d{rng.randrange(5)}", f"/m/c{rng.randrange(3)}") for _ in range(40)]

        def built(pairs):
            merge_map = MergeMap()
            for duplicate, replacement in pairs:
                merge_map.add_edge(duplicate, replacement)
            return merge_map

        def split(i, j):  # new maps for each side of the law, since merge folds into its map
            return built(edges[:i]), built(edges[i:j]), built(edges[j:])

        whole = built(edges)
        assert whole.conflicts > 0 and whole.firsts
        for i in range(len(edges) + 1):
            for j in range(i, len(edges) + 1):
                a, b, c = split(i, j)
                assert a.merge(b).merge(c) is a
                d, e, f = split(i, j)
                assert d.merge(e.merge(f)) is d
                assert a == d == whole

    def test_non_mid_endpoint_is_lint(self):
        _, lint = fold_triples(SemanticsFold(RUN_ROOT), parse_lines([lit_line("m.a", REPLACED_BY, "b")]))
        assert lint["replaced-by-shape"] == 1

    def test_partition_merge_equals_single_pass(self):
        lines, _ = forest_lines(500, seed=9)
        whole = merge_map_of(parse_lines(lines))
        first = merge_map_of(parse_lines(lines[:250]))
        second = merge_map_of(parse_lines(lines[250:]))
        assert first.merge(second).edges == whole.edges


class TestResolve:
    def test_single_edge_resolves_to_replacement(self):
        merge_map = MergeMap({"/m/xyz123": "/m/abc123"})
        assert merge_map.resolve("/m/xyz123") == "/m/abc123"

    def test_identity_without_edges(self):
        assert MergeMap().resolve("/m/zzz") == "/m/zzz"

    def test_chain_resolves_to_terminus(self):
        merge_map = MergeMap({"/m/a": "/m/b", "/m/b": "/m/c", "/m/c": "/m/d"})
        assert merge_map.resolve("/m/a") == "/m/d"
        assert oracle_resolve(merge_map.edges, "/m/a") == "/m/d"

    def test_deep_chain_against_uncompressed_walk(self):
        depth = 1000
        edges = {f"/m/c{i}": f"/m/c{i + 1}" for i in range(depth)}
        merge_map = MergeMap(dict(edges))
        for start in (0, 1, 500, 999):
            mid = f"/m/c{start}"
            assert merge_map.resolve(mid) == oracle_resolve(edges, mid) == f"/m/c{depth}"

    def test_a_merged_edge_redirects_a_resolved_chain(self):
        merge_map = MergeMap({"/m/a": "/m/b"})
        assert merge_map.resolve("/m/a") == "/m/b"
        assert merge_map.merge(MergeMap({"/m/b": "/m/c"})).resolve("/m/a") == "/m/c"

    def test_idempotent(self):
        lines, edges = forest_lines(300, seed=2)
        merge_map = merge_map_of(parse_lines(lines))
        for mid in list(edges)[:50]:
            once = merge_map.resolve(mid)
            assert merge_map.resolve(once) == once

    def test_cycle_fails_loud_naming_members(self):
        merge_map = MergeMap({"/m/p": "/m/q", "/m/q": "/m/r", "/m/r": "/m/p"})
        with pytest.raises(MergeCycleError) as err:
            merge_map.resolve("/m/p")
        assert err.value.members == ["/m/p", "/m/q", "/m/r"]

    def test_cycle_members_and_message_sorted_by_suffix(self):
        merge_map = MergeMap({"/m/p": "/m/q", "/m/q": "/m/r", "/m/r": "/m/p"})
        with pytest.raises(MergeCycleError) as err:
            merge_map.resolve("/m/r")  # walks r, p, q
        assert err.value.members == ["/m/p", "/m/q", "/m/r"]
        assert str(err.value) == "replaced-by cycle: /m/p, /m/q, /m/r"

    def test_cycle_smallest_policy(self):
        merge_map = MergeMap({"/m/p": "/m/q", "/m/q": "/m/c", "/m/c": "/m/p"})
        for start in ("p", "q", "c"):
            assert merge_map.resolve(f"/m/{start}", CyclePolicy.SMALLEST) == "/m/c"

    def test_tail_into_cycle_smallest(self):
        merge_map = MergeMap(
            {"/m/t": "/m/p", "/m/p": "/m/q", "/m/q": "/m/p"}
        )
        assert merge_map.resolve("/m/t", CyclePolicy.SMALLEST) == "/m/p"

    def test_merge_tsv_rows_resolve_every_duplicate(self):
        lines, edges = forest_lines(200, seed=13)
        merge_map = merge_map_of(parse_lines(lines))
        rows = [row.rstrip("\n").split("\t") for row in merge_tsv_rows(merge_map)]
        assert [duplicate for duplicate, _ in rows] == sorted(edges)
        for duplicate, terminal in rows:
            assert terminal == oracle_resolve(edges, duplicate)


class TestRewriteCanonical:
    def test_direct_substitution(self):
        triples = parse_lines([lit_line("m.xyz123", "people.person.date_of_birth", "1960")])
        merge_map = MergeMap({"/m/xyz123": "/m/abc123"})
        out = []
        report = rewrite_canonical(triples, merge_map, out.append)
        assert out[0].subject == Mid("abc123")
        assert out[0].object == Literal("1960")
        assert (report.subjects_rewritten, report.objects_rewritten) == (1, 0)

    def test_zero_edges_reserializes_identically(self):
        lines = [
            obj_line("m.a", "people.person.spouse_s", "m.b"),
            lit_line("m.a", "people.person.name", "Ann"),
        ]
        triples = parse_lines(lines)
        out = []
        rewrite_canonical(triples, MergeMap(), out.append)
        assert [serialize(t) for t in out] == lines

    def test_duplicate_collapse_matches_set_oracle(self):
        rng = random.Random(42)
        canonical = [f"c{i}" for i in range(20)]
        lines, naive = [], set()
        edges = {}
        for i in range(100):
            dup = f"d{i}"
            target = rng.choice(canonical)
            edges[dup] = target
            lines.append(obj_line(f"m.{dup}", REPLACED_BY, f"m.{target}"))
        for i in range(300):
            subject = rng.choice(list(edges) + canonical)
            resolved = edges.get(subject, subject)
            naive.add(resolved)
            lines.append(obj_line(f"m.{subject}", "people.person.gender", f"m.g{i % 3}"))
        triples = parse_lines(lines)
        merge_map = merge_map_of(triples)
        out = []
        rewrite_canonical((t for t in triples if t.predicate == idpath("/people/person/gender")), merge_map, out.append)
        assert {t.subject.suffix for t in out} == naive

    def test_preserves_count_and_predicates(self):
        lines, _ = forest_lines(400, seed=3)
        triples = parse_lines(lines)
        merge_map = merge_map_of(triples)
        out = []
        report = rewrite_canonical(triples, merge_map, out.append)
        assert report.triples_seen == len(triples) == len(out)
        assert [t.predicate for t in out] == [t.predicate for t in triples]


class TestValueNotations:
    def test_plato_example(self):
        lines = [obj_line("people.person.date_of_birth", "freebase.valuenotation.has_value", "m.plato")]
        notations = notations_of(parse_lines(lines))
        assert len(notations) == 1
        note = notations[0]
        assert note.property == idpath("/people/person/date_of_birth")
        assert note.object == Mid("plato")
        assert note.kind is NotationKind.HAS_VALUE

    def test_no_notation_triples(self):
        assert notations_of(parse_lines([obj_line("m.a", "people.person.spouse_s", "m.b")])) == []

    def test_mixed_counts_match_filter_oracle(self):
        lines = []
        for i in range(7):
            lines.append(obj_line(f"people.person.p{i}", "freebase.valuenotation.has_value", f"m.x{i}"))
        for i in range(5):
            lines.append(obj_line(f"film.film.q{i}", "freebase.valuenotation.has_no_value", f"m.y{i}"))
        for i in range(9):
            lines.append(obj_line(f"m.s{i}", "people.person.spouse_s", f"m.o{i}"))
        notations = notations_of(parse_lines(lines))
        kinds = Counter(n.kind for n in notations)
        assert kinds[NotationKind.HAS_VALUE] == 7
        assert kinds[NotationKind.HAS_NO_VALUE] == 5

    def test_reversed_orientation_flag(self):
        reversed_lines = [
            obj_line(f"m.e{i}", "freebase.valuenotation.has_value", f"people.person.p{i}")
            for i in range(7)
        ] + [
            obj_line(f"m.e{i}", "freebase.valuenotation.has_no_value", f"film.film.q{i}")
            for i in range(5)
        ]
        strict = notations_of(parse_lines(reversed_lines))
        assert strict == []
        both = notations_of(parse_lines(reversed_lines), accept_reversed=True)
        kinds = Counter(n.kind for n in both)
        assert kinds[NotationKind.HAS_VALUE] == 7
        assert kinds[NotationKind.HAS_NO_VALUE] == 5
        assert all(n.orientation == "reversed" for n in both)

    def test_nonconforming_shape_is_lint(self):
        lines = [lit_line("people.person.p", "freebase.valuenotation.has_value", "oops")]
        _, lint = fold_triples(SemanticsFold(RUN_ROOT), parse_lines(lines))
        assert lint["valuenotation-shape"] == 1

    def test_partition_counts_add(self):
        lines = [
            obj_line(f"people.person.p{i}", "freebase.valuenotation.has_value", f"m.x{i}")
            for i in range(10)
        ]
        whole = notations_of(parse_lines(lines))
        first = notations_of(parse_lines(lines[:4]))
        second = notations_of(parse_lines(lines[4:]))
        assert first + second == whole


class TestIncompatibilities:
    film = idpath("/film/film")
    series = idpath("/film/film_series")

    def test_terminator_case(self):
        rule = IncompatibilityRule(self.film, self.series)
        assertions = [(Mid("terminator"), self.film), (Mid("terminator"), self.series)]
        violations = check_incompatibilities(assertions, [rule])
        assert violations == [Violation(Mid("terminator"), self.film, self.series)]

    def test_rule_is_symmetric(self):
        assert IncompatibilityRule(self.series, self.film) == IncompatibilityRule(self.film, self.series)

    def test_rule_rejects_self_pair(self):
        with pytest.raises(ValueError):
            IncompatibilityRule(self.film, self.film)

    def test_empty_rules_no_violations(self):
        assert check_incompatibilities([(Mid("a"), self.film)], []) == []

    def test_random_fixture_matches_bruteforce(self):
        rng = random.Random(17)
        type_pool = [idpath(f"/d/t{i}") for i in range(8)]
        assertions = []
        for i in range(50):
            mid = Mid(f"o{i}")
            for typ in rng.sample(type_pool, rng.randint(1, 4)):
                assertions.append((mid, typ))
        rules = [
            IncompatibilityRule(type_pool[0], type_pool[1]),
            IncompatibilityRule(type_pool[2], type_pool[5]),
            IncompatibilityRule(type_pool[3], type_pool[4]),
        ]
        violations = check_incompatibilities(assertions, rules)
        expected = oracle_violations(assertions, [(r.type_a, r.type_b) for r in rules])
        assert {(v.mid, v.type_a, v.type_b) for v in violations} == expected
        # deterministic order: by mid then rule
        assert violations == sorted(violations)

    @pytest.mark.parametrize("seed", range(40))
    def test_one_pass_matches_the_oracle(self, seed):
        """Duplicates, mids with 3-6 named types, shared and unasserted rule types, >64 types."""
        rng = random.Random(seed)
        n_types = rng.choice([3, 8, 70, 150])
        pool = [idpath(f"/d{i % 5}/t{i}") for i in range(n_types)]
        asserted_pool = pool[: max(2, n_types * 3 // 4)]  # the rest are named by rules only
        assertions = []
        for i in range(rng.randint(0, 120)):
            mid = Mid(f"o{rng.randrange(10_000)}")
            for typ in rng.sample(asserted_pool, rng.randint(1, min(6, len(asserted_pool)))):
                assertions.append((mid, typ))
        assertions += rng.sample(assertions, len(assertions) // 4)  # duplicate assertions
        rng.shuffle(assertions)
        hub = rng.choice(pool)  # a type many rules share
        rules = [IncompatibilityRule(hub, other) for other in rng.sample(pool, n_types // 2) if other != hub]
        rules += [IncompatibilityRule(*rng.sample(pool, 2)) for _ in range(rng.randint(0, 3 * n_types))]
        if seed % 10 == 0:
            rules = []
        violations = check_incompatibilities(assertions, rules)
        expected = oracle_violations(assertions, [(r.type_a, r.type_b) for r in rules])
        assert len(violations) == len(expected)
        assert {(v.mid, v.type_a, v.type_b) for v in violations} == expected
        assert violations == sorted(violations)

    def test_one_pass_many_named_types_per_mid(self):
        pool = [idpath(f"/d/t{i:03d}") for i in range(100)]
        assertions = [(Mid("many"), typ) for typ in pool] + [(Mid("two"), pool[0]), (Mid("two"), pool[7])]
        rules = [IncompatibilityRule(pool[i], pool[j]) for i in range(100) for j in range(i + 1, 100) if (i + j) % 7 == 0]
        violations = check_incompatibilities(reversed(assertions), iter(rules))
        assert violations == sorted(Violation(Mid("many"), r.type_a, r.type_b) for r in rules) + [
            Violation(Mid("two"), pool[0], pool[7])
        ]

    def test_monotone_in_rules(self):
        rng = random.Random(23)
        type_pool = [idpath(f"/d/t{i}") for i in range(6)]
        assertions = []
        for i in range(30):
            mid = Mid(f"o{i}")
            for typ in rng.sample(type_pool, rng.randint(1, 3)):
                assertions.append((mid, typ))
        rules = [IncompatibilityRule(type_pool[0], type_pool[1])]
        base = set(check_incompatibilities(assertions, rules))
        more = set(check_incompatibilities(assertions, rules + [IncompatibilityRule(type_pool[2], type_pool[3])]))
        assert base <= more

    def test_type_assertions_from_stream(self, tmp_path):
        lines = [
            obj_line("m.terminator", "type.object.type", "film.film"),
            obj_line("m.terminator", "type.object.type", "film.film_series"),
            lit_line("m.terminator", "type.object.name", "The Terminator"),
        ]
        rules = frozenset({IncompatibilityRule(self.film, self.series)})
        fold = SemanticsFold(known_rules=rules, run_root=str(tmp_path))
        runs = fold_triples(fold, parse_lines(lines))[0]["type_masks"]
        assert read_masks(runs) == {"terminator": 0b11}  # /film/film is bit 0, /film/film_series bit 1
        assert list(fold.violations(runs)) == [Violation(Mid("terminator"), self.film, self.series)]

    def test_load_rules_file(self):
        text = "# pairs\n/film/film\t/film/film_series\n\n/people/person /people/deceased_person\n"
        rules = load_rules(io.StringIO(text))
        assert IncompatibilityRule(self.film, self.series) in rules
        assert len(rules) == 2


# Mid suffixes the parser builds from non-canonical ids: non-ASCII, a space, a
# CR inside the id, a quote, upper case, and characters beyond the BMP.
ODD_SUFFIXES = ["é", "a b", "x\ry", "日本", "\U0001F600", "Z", "_", 'A"q', "0", "\u00ff", "\uffff", "zz"]


class TestMaskRuns:
    def test_records_round_trip(self, tmp_path):
        records = [(suffix, (1 << i) | (1 << (3 * i + 70))) for i, suffix in enumerate(sorted(ODD_SUFFIXES))]
        records.append(("\U0010ffff", 1))
        path = mask_run_path(str(tmp_path), "00000")
        write_mask_run(path, records)
        assert list(read_mask_run(path)) == records
        with pytest.raises(FileExistsError):  # a run is never written over
            write_mask_run(path, records[:1])

    def test_fold_runs_hold_parsed_suffixes_in_str_order(self, tmp_path):
        film, series = idpath("/film/film"), idpath("/film/film_series")
        lines = [obj_line(f"m.{suffix}", "type.object.type", "film.film") for suffix in ODD_SUFFIXES]
        lines += [obj_line(f"m.{suffix}", "type.object.type", "film.film_series") for suffix in ODD_SUFFIXES[::3]]
        triples = parse_lines(lines)
        assert {t.subject.suffix for t in triples} == set(ODD_SUFFIXES)
        fold = SemanticsFold(known_rules=frozenset({IncompatibilityRule(film, series)}), run_root=str(tmp_path))
        (run,) = fold_triples(fold, triples)[0]["type_masks"]
        records = list(read_mask_run(run))
        assert [suffix for suffix, _ in records] == sorted(ODD_SUFFIXES)
        assert dict(records) == {s: 0b11 if s in ODD_SUFFIXES[::3] else 0b01 for s in ODD_SUFFIXES}
        expected = [Violation(Mid(s), film, series) for s in sorted(ODD_SUFFIXES[::3])]
        assert list(fold.violations([run])) == expected

    @pytest.mark.parametrize("open_runs", [1, 3, 4, 100])
    def test_merge_ors_equal_suffixes_in_str_order(self, tmp_path, open_runs):
        rng = random.Random(open_runs)
        oracle: dict[str, int] = {}
        runs = []
        for n in range(9):
            masks = {rng.choice(ODD_SUFFIXES) + str(rng.randrange(5)): 1 << rng.randrange(6) for _ in range(12)}
            for suffix, mask in masks.items():
                oracle[suffix] = oracle.get(suffix, 0) | mask
            runs.append(mask_run_path(str(tmp_path), f"{n:05d}"))
            write_mask_run(runs[-1], sorted(masks.items()))
        merged = list(merge_mask_runs(runs, str(tmp_path), open_runs))
        assert merged == sorted(oracle.items())
        assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(run) for run in runs)  # passes removed


class TestMergeTsv:
    def test_roundtrip(self):
        lines, edges = forest_lines(100, seed=31)
        merge_map = merge_map_of(parse_lines(lines))
        out = io.StringIO()
        count = write_merge_tsv(merge_map, out)
        assert count == len(edges)
        again = read_merge_tsv(io.StringIO(out.getvalue()))
        # exported rows are fully resolved, so resolution is single-step stable
        for duplicate in edges:
            assert again.resolve(duplicate) == merge_map.resolve(duplicate)

    def test_rows_sort_by_duplicate_mid(self):
        lines, edges = forest_lines(300, seed=37)  # shuffled, so edges arrive out of order
        out = io.StringIO()
        write_merge_tsv(merge_map_of(parse_lines(lines)), out)
        duplicates = [row.split("\t")[0] for row in out.getvalue().splitlines()]
        assert duplicates == sorted(edges) == ["/m/" + suffix for suffix in sorted(dup[3:] for dup in edges)]

    def test_rows_sorted_and_canonical(self):
        merge_map = MergeMap({"/m/b": "/m/a", "/m/c": "/m/b"})
        out = io.StringIO()
        write_merge_tsv(merge_map, out)
        assert out.getvalue() == "/m/b\t/m/a\n/m/c\t/m/a\n"

    @pytest.mark.parametrize("odd", ["a\rb", 'a"b'])
    def test_a_mid_holding_cr_or_quote_is_quoted_and_reads_back_whole(self, odd):
        """The rows come from the row writer of every other table, which quotes such a field."""
        lines = [obj_line(f"m.{odd}", REPLACED_BY, "m.c"), obj_line("m.d", REPLACED_BY, f"m.{odd}")]
        out = io.StringIO()
        assert write_merge_tsv(merge_map_of(parse_lines(lines)), out) == 2
        quoted = '"/m/' + odd.replace('"', '""') + '"'
        assert out.getvalue() == f"{quoted}\t/m/c\n/m/d\t/m/c\n"
        rows = list(csv.reader(io.StringIO(out.getvalue(), newline=""), delimiter="\t"))
        assert rows == [[f"/m/{odd}", "/m/c"], ["/m/d", "/m/c"]]


# The traced bytes a merge map holds per edge, fed parser-built replaced-by
# triples: its dicts' share and the two rendered ids it keeps of each edge.
EDGE_BUDGET_BYTES = 200
BUDGET_EDGES = 50_000
EDGE_BYTES_SCRIPT = """
import sys, tracemalloc
from fbont.parser import ParseReport, iter_triples
from fbont.semantics import MergeMap, feed_merge_edge
def built():
    merge_map = MergeMap()
    for triple in iter_triples(sys.argv[1], ParseReport()):
        feed_merge_edge(merge_map, triple)
    return merge_map
built()  # so the parser's one-time state is made before the trace
tracemalloc.start()
merge_map = built()
print(len(merge_map.edges), tracemalloc.get_traced_memory()[0] / len(merge_map.edges))
"""


class TestMergeMapMemory:
    @pytest.mark.parametrize("python", interpreters_on_path())
    def test_bytes_per_edge_stay_under_the_budget(self, python, tmp_path):
        """Traced while the parser streams the triples, so the map pays for every
        object it keeps alive of them; each supported interpreter on PATH is measured."""
        skip_unless_it_starts(python)
        lines = [  # distinct duplicates, three to a replacement
            obj_line(f"m.0{i * 7919 % (2 * BUDGET_EDGES):06x}", REPLACED_BY, f"m.1{i // 3:06x}")
            for i in range(BUDGET_EDGES)
        ]
        dump = tmp_path / "edges.nt"
        dump.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        argv = [python, "-c", EDGE_BYTES_SCRIPT, str(dump)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        edges, per_edge = proc.stdout.split()
        assert int(edges) == BUDGET_EDGES
        assert float(per_edge) < EDGE_BUDGET_BYTES, f"{python}: {float(per_edge):.0f} bytes per edge"

    def test_a_partitions_pickled_merge_map_holds_no_mid(self, tmp_path):
        """The map crosses the pipe as plain strings: unpickling it loads no Mid class."""
        lines, edges = forest_lines(300, seed=41)
        path = tmp_path / "dump.nt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        payload = Job((SemanticsFold(str(tmp_path / "runs")),)).run(Partition(str(path), 0, -1, 0))[1]
        loaded = []

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                loaded.append((module, name))
                return super().find_class(module, name)

        pickled = pickle.dumps(payload["merge_map"], pickle.HIGHEST_PROTOCOL)
        merge_map = Recording(io.BytesIO(pickled)).load()
        assert ("fbont.semantics", "MergeMap") in loaded
        assert ("fbont.model", "Mid") not in loaded
        assert merge_map.edges == edges

