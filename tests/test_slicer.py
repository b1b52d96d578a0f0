from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dump_stream, fold_triples, load_census
from dumpgen import oracle_slice_counts, random_dump_lines
from fbont.model import ExternalIri, Mid, Triple, idpath
from fbont import slicer
from fbont.parser import ParseReport, iter_triples
from fbont.pipeline import SliceFold
from fbont.slicer import (
    DEFAULT_IMPLEMENTATION_DOMAINS,
    DOMAIN,
    OWL_TERM,
    Group,
    PredicateKindError,
    SliceKey,
    SliceWriter,
    build_taxonomy,
    classify_predicate,
    count_slice,
    group_for,
    merge_counts,
)


class TestClassifyPredicate:
    def test_people_property(self):
        key = classify_predicate(idpath("/people/person/date_of_birth"))
        assert key == SliceKey(DOMAIN, "people")

    def test_owl_label(self):
        key = classify_predicate(ExternalIri("http://www.w3.org/2000/01/rdf-schema#label"))
        assert key == SliceKey(OWL_TERM, "label")

    def test_first_segment_rule(self):
        assert classify_predicate(idpath("/music/album/artist")) == SliceKey(DOMAIN, "music")

    def test_slash_local_name(self):
        key = classify_predicate(ExternalIri("http://purl.example/terms/creator"))
        assert key == SliceKey(OWL_TERM, "creator")

    def test_mid_predicate_raises(self):
        with pytest.raises(PredicateKindError):
            classify_predicate(Mid("abc"))

    def test_predicates_of_one_slice_share_one_key_object(self):
        counts: dict = {}
        name = count_slice(counts, idpath("/people/person/name"))
        born = count_slice(counts, idpath("/people/person/born"))
        assert name == born
        assert list(counts) == [name] and counts[name] == 2
        label = ExternalIri("http://www.w3.org/2000/01/rdf-schema#label")
        other = ExternalIri("http://example.org/vocab#label")
        assert classify_predicate(label) == classify_predicate(other)


class TestGroups:
    def test_implementation_membership_is_the_published_eleven(self):
        assert DEFAULT_IMPLEMENTATION_DOMAINS == {
            "common", "type", "key", "kg", "base", "freebase",
            "dataworld", "topic_server", "user", "pipeline", "kp_lw",
        }

    def test_partition_is_exhaustive_and_exclusive(self):
        for name in ("common", "music", "zoo", "type"):
            groups = [group_for(SliceKey(DOMAIN, name)), group_for(SliceKey(OWL_TERM, name))]
            assert groups[0] in (Group.IMPLEMENTATION, Group.SUBJECT_MATTER)
            assert groups[1] is Group.OWL


class TestSliceWriter:
    def test_open_files_stay_under_the_cap(self, tmp_path, monkeypatch):
        """The least recently written file is closed first; a reopened file is
        appended to, and a file from an earlier writer is overwritten."""
        monkeypatch.setattr(slicer, "MAX_OPEN_SLICE_FILES", 2)
        keys = [SliceKey(DOMAIN, f"d{i}") for i in range(5)]
        (tmp_path / "domain").mkdir()
        (tmp_path / "domain" / "d0.nt").write_text("stale\n")
        expected = {key: "" for key in keys}
        with SliceWriter(tmp_path, "ns") as writer:
            for round_ in range(3):
                for key in keys[round_:] + keys[:round_]:
                    writer.write_lines(key, [f"{key.name} {round_}"])
                    expected[key] += f"{key.name} {round_}\n"
                    assert len(writer._files) <= 2
        for key in keys:
            assert (tmp_path / "domain" / f"{key.name}.nt").read_text() == expected[key]


class TestSliceStream:
    def test_direct_counting(self):
        lines = []
        for i in range(5):
            lines.append(f"<http://rdf.freebase.com/ns/m.s{i}>\t<http://rdf.freebase.com/ns/people.person.p>\t<http://rdf.freebase.com/ns/m.o{i}>\t.")
        for i in range(3):
            lines.append(f"<http://rdf.freebase.com/ns/m.s{i}>\t<http://rdf.freebase.com/ns/film.film.f>\t<http://rdf.freebase.com/ns/m.o{i}>\t.")
        triples = iter_triples(dump_stream(lines), ParseReport())
        counts = fold_triples(SliceFold(), triples)[0]["counts"]
        assert counts == {SliceKey(DOMAIN, "people"): 5, SliceKey(DOMAIN, "film"): 3}

    def test_oracle_equivalence_10k(self):
        lines = random_dump_lines(10_000, seed=21)
        report = ParseReport()
        triples = iter_triples(dump_stream(lines), report)
        counts = fold_triples(SliceFold(), triples)[0]["counts"]
        expected = oracle_slice_counts(lines)
        assert {(k.kind, k.name): v for k, v in counts.items()} == expected
        # every parsed triple lands in exactly one slice
        assert sum(counts.values()) == report.triples_ok

    def test_repeated_mid_predicate_is_linted_every_time(self):
        people = idpath("/people/person/name")
        triples = [
            Triple(Mid("a"), Mid("p"), Mid("b")),
            Triple(Mid("a"), people, Mid("b")),
            Triple(Mid("c"), Mid("p"), Mid("d")),
            Triple(Mid("c"), idpath("/people/person/age"), Mid("d")),
            Triple(Mid("e"), Mid("p"), Mid("f")),
        ]
        payload, lint = fold_triples(SliceFold(), triples)
        assert payload["counts"] == {SliceKey(DOMAIN, "people"): 2}
        assert lint == Counter({"mid-predicate": 3})

    counts_maps = st.dictionaries(
        st.tuples(st.sampled_from([DOMAIN, OWL_TERM]), st.sampled_from("abcdef")).map(
            lambda kv: SliceKey(*kv)
        ),
        st.integers(0, 1000),
        max_size=8,
    )

    @given(counts_maps, counts_maps, counts_maps)
    def test_merge_monoid(self, a, b, c):
        """merge_counts adds into its first map, so each side of a law merges its own copies."""
        whole = {key: a.get(key, 0) + b.get(key, 0) + c.get(key, 0) for key in {**a, **b, **c}}
        left = dict(a)
        assert merge_counts(merge_counts(left, b), c) is left
        assert left == merge_counts(dict(a), merge_counts(dict(b), c)) == whole
        assert merge_counts(dict(a), b) == merge_counts(dict(b), a)
        assert merge_counts(dict(a), {}) == a == merge_counts({}, a)


class TestBuildTaxonomy:
    def test_single_domain(self):
        rows = build_taxonomy({SliceKey(DOMAIN, "zoo"): 10})
        assert len(rows) == 1
        assert rows[0].total_pct == 1.0
        assert rows[0].group_pct == 1.0
        assert rows[0].group is Group.SUBJECT_MATTER

    def test_empty_counts_give_empty_taxonomy(self):
        assert build_taxonomy({}) == []

    def test_census_percentages_reproduce(self):
        census = load_census()
        counts = {
            SliceKey(OWL_TERM if row["group"] == "owl" else DOMAIN, row["name"]): row["triples"]
            for row in census
        }
        rows = build_taxonomy(counts)
        assert len(rows) == 105
        by_key = {(r.key.kind, r.key.name): r for r in rows}
        for row in census:
            kind = OWL_TERM if row["group"] == "owl" else DOMAIN
            stat = by_key[(kind, row["name"])]
            assert stat.group.value == row["group"]
            # printed values reproduce within one thousandth of a point
            assert abs(stat.total_pct * 100 - float(row["total_pct"])) < 1e-3
            assert abs(stat.group_pct * 100 - float(row["group_pct"])) < 1e-3

    def test_census_spot_values(self):
        census = load_census()
        counts = {
            SliceKey(OWL_TERM if row["group"] == "owl" else DOMAIN, row["name"]): row["triples"]
            for row in census
        }
        rows = {(r.key.kind, r.key.name): r for r in build_taxonomy(counts)}
        common = rows[(DOMAIN, "common")]
        assert f"{common.total_pct * 100:.3f}" == "45.658"
        assert f"{common.group_pct * 100:.3f}" == "58.507"
        music = rows[(DOMAIN, "music")]
        assert f"{music.total_pct * 100:.3f}" == "6.684"
        assert f"{music.group_pct * 100:.3f}" == "60.062"
        rdf_type = rows[(OWL_TERM, "type")]
        assert f"{rdf_type.total_pct * 100:.3f}" == "8.507"
        assert f"{rdf_type.group_pct * 100:.3f}" == "78.520"

    def test_ordering_matches_census(self):
        census = load_census()
        counts = {
            SliceKey(OWL_TERM if row["group"] == "owl" else DOMAIN, row["name"]): row["triples"]
            for row in census
        }
        rows = build_taxonomy(counts)
        assert [r.key.name for r in rows] == [row["name"] for row in census]

    def test_group_pct_sums_to_one(self):
        counts = {
            SliceKey(DOMAIN, "common"): 70,
            SliceKey(DOMAIN, "music"): 20,
            SliceKey(DOMAIN, "film"): 5,
            SliceKey(OWL_TERM, "label"): 5,
        }
        rows = build_taxonomy(counts)
        for group in {r.group for r in rows}:
            total = sum(r.group_pct for r in rows if r.group is group)
            assert total == pytest.approx(1.0)
        assert sum(r.total_pct for r in rows) == pytest.approx(1.0)
