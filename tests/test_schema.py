import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dump_stream, fold_triples, lit_line, obj_line
from fbont.model import idpath
from fbont.parser import ParseReport, iter_triples
from fbont.pipeline import SchemaFold
from fbont.schema import (
    DomainSchema,
    SchemaConfig,
    UndefinedComplexityError,
    complexity_score,
    merge_schemas,
)

# Hand-tallied fixture: people has 2 types, 3 properties, 4 descriptions and
# 6 property details; film has 1/2/3/1; music has 2 types and nothing else.
SCHEMA_FIXTURE = [
    obj_line("people.person", "type.object.type", "type.type"),
    obj_line("people.deceased_person", "type.object.type", "type.type"),
    obj_line("people.person.date_of_birth", "type.object.type", "type.property"),
    obj_line("people.person.place_of_birth", "type.object.type", "type.property"),
    obj_line("people.deceased_person.date_of_death", "type.object.type", "type.property"),
    lit_line("people.person", "common.topic.description", "A human being"),
    lit_line("people.person", "common.topic.description", "Person class"),
    lit_line("people.person.date_of_birth", "common.topic.description", "Birth date"),
    lit_line("people.person.place_of_birth", "common.topic.description", "Birth place"),
    obj_line("people.person.date_of_birth", "type.property.expected_type", "type.datetime"),
    obj_line("people.person.place_of_birth", "type.property.expected_type", "location.location"),
    obj_line("people.deceased_person.date_of_death", "type.property.expected_type", "type.datetime"),
    lit_line("people.person.date_of_birth", "type.property.unique", "true"),
    lit_line("people.deceased_person.date_of_death", "type.property.unique", "true"),
    obj_line("people.person.date_of_birth", "type.property.schema", "people.person"),
    obj_line("film.film", "type.object.type", "type.type"),
    obj_line("film.film.directed_by", "type.object.type", "type.property"),
    obj_line("film.film.runtime", "type.object.type", "type.property"),
    lit_line("film.film", "common.topic.description", "A motion picture"),
    lit_line("film.film.directed_by", "common.topic.description", "Director link"),
    lit_line("film.film.runtime", "common.topic.description", "Running time"),
    obj_line("film.film.directed_by", "type.property.expected_type", "film.director"),
    obj_line("music.artist", "type.object.type", "type.type"),
    obj_line("music.album", "type.object.type", "type.type"),
    # instance data that must not count as schema
    obj_line("m.abc", "type.object.type", "people.person"),
    lit_line("m.abc", "common.topic.description", "Some person"),
    lit_line("m.abc", "type.object.name", "Ann"),
]


def parse_fixture(lines):
    return list(iter_triples(dump_stream(lines), ParseReport()))


def fixture_schemas(lines, config=SchemaConfig()):
    """The per-domain summaries the schema fold makes of these dump lines."""
    return fold_triples(SchemaFold(config), parse_fixture(lines))[0]["schemas"]


class TestExtractSchema:
    def test_property_declaration_example(self):
        schemas = fixture_schemas([obj_line("people.person.date_of_birth", "type.object.type", "type.property")])
        assert idpath("/people/person/date_of_birth") in schemas["people"].properties

    def test_description_attributed_by_subject_domain(self):
        line = lit_line(
            "freebase.valuenotation.has_value",
            "common.topic.description",
            "Note: this property takes a MID as value",
        )
        schemas = fixture_schemas([line])
        assert schemas["freebase"].description_count == 1
        # the described property itself registers under its own domain
        assert idpath("/freebase/valuenotation/has_value") in schemas["freebase"].properties

    def test_empty_stream(self):
        assert fixture_schemas([]) == {}

    def test_hand_tally_oracle(self):
        schemas = fixture_schemas(SCHEMA_FIXTURE)
        assert set(schemas) == {"people", "film", "music"}
        people = schemas["people"]
        assert len(people.types) == 2
        assert len(people.properties) == 3
        assert people.description_count == 4
        assert people.property_detail_count == 6
        film = schemas["film"]
        assert (len(film.types), len(film.properties)) == (1, 2)
        assert (film.description_count, film.property_detail_count) == (3, 1)
        music = schemas["music"]
        assert (len(music.types), len(music.properties)) == (2, 0)
        assert (music.description_count, music.property_detail_count) == (0, 0)

    def test_domain_level_description_is_lint(self):
        _, lint = fold_triples(SchemaFold(), parse_fixture([lit_line("people", "common.topic.description", "The domain")]))
        assert lint["domain-description-skipped"] == 1

    def test_declaration_mismatch_is_lint(self):
        # a two-segment subject explicitly declared a property
        _, lint = fold_triples(SchemaFold(), parse_fixture([obj_line("people.person", "type.object.type", "type.property")]))
        assert lint["declaration-mismatch"] == 1

    def test_property_of_an_undeclared_type_is_counted(self):
        schemas = fixture_schemas([obj_line("people.stray.thing", "type.object.type", "type.property")])
        people = schemas["people"]
        assert people.properties == {idpath("/people/stray/thing")} and people.types == set()

    def test_custom_detail_predicates(self):
        config = SchemaConfig(detail_predicates=frozenset({idpath("/type/property/reverse_property")}))
        lines = [obj_line("people.person.parents", "type.property.reverse_property", "people.person.children")]
        schemas = fixture_schemas(lines, config)
        assert schemas["people"].property_detail_count == 1


class TestComplexityScore:
    def test_forced_example(self):
        schemas = fixture_schemas(SCHEMA_FIXTURE)
        assert complexity_score(schemas["people"]) == 2.0

    def test_zero_documentation_scores_zero(self):
        schemas = fixture_schemas(SCHEMA_FIXTURE)
        assert complexity_score(schemas["music"]) == 0.0

    def test_hand_tally_all_domains(self):
        schemas = fixture_schemas(SCHEMA_FIXTURE)
        assert complexity_score(schemas["people"]) == pytest.approx((4 + 6) / (2 + 3))
        assert complexity_score(schemas["film"]) == pytest.approx((3 + 1) / (1 + 2))

    def test_undefined_when_no_schema_items(self):
        with pytest.raises(UndefinedComplexityError):
            complexity_score(DomainSchema("empty"))

    def test_scale_covariance(self):
        base = DomainSchema(
            "d",
            {idpath("/d/t1"), idpath("/d/t2")},
            {idpath("/d/t1/p1")},
            description_count=5,
            property_detail_count=7,
        )
        doubled = DomainSchema(
            "d",
            {idpath("/d/t1"), idpath("/d/t2"), idpath("/d/t3"), idpath("/d/t4")},
            {idpath("/d/t1/p1"), idpath("/d/t1/p2")},
            description_count=10,
            property_detail_count=14,
        )
        assert complexity_score(base) == complexity_score(doubled)


subjects = st.sampled_from(
    ["people.person", "people.person.date_of_birth", "film.film", "film.film.runtime",
     "music.artist.albums", "m.abc", "people", "a.b.c.d"]
)
predicates = st.sampled_from(
    ["type.object.type", "common.topic.description", "type.property.expected_type",
     "type.property.unique", "type.object.name", "people.person.spouse_s"]
)
objects = st.sampled_from(["type.type", "type.property", "type.datetime", "m.xyz"])


@st.composite
def schema_lines(draw):
    n = draw(st.integers(0, 40))
    return [obj_line(draw(subjects), draw(predicates), draw(objects)) for _ in range(n)]


class TestMergeStability:
    @given(schema_lines(), st.integers(0, 40))
    @settings(max_examples=60)
    def test_partitioned_equals_single_pass(self, lines, cut_raw):
        cut = min(cut_raw, len(lines))
        whole = fixture_schemas(lines)
        first = fixture_schemas(lines[:cut])
        second = fixture_schemas(lines[cut:])
        merged = merge_schemas(first, second)
        assert merged == whole

    def test_merge_identity_and_order(self):
        schemas = fixture_schemas(SCHEMA_FIXTURE)
        assert merge_schemas({}, schemas) == schemas
        assert merge_schemas(schemas, {}) == schemas
