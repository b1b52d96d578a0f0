import dataclasses
import pickle
import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fbont.model import (
    DEFAULT_NAMESPACE,
    ExternalIri,
    IdPath,
    Literal,
    Mid,
    Triple,
    idpath,
    normalize_iri,
    parse_ref,
    render,
    to_iri,
)
from fbont.semantics import IncompatibilityRule, NotationKind, ValueNotation, Violation
from fbont.slicer import DOMAIN, SliceKey

STANDARD = string.digits + string.ascii_lowercase + "_"

mids = st.text(alphabet=STANDARD, min_size=1, max_size=12).map(Mid)
segments = st.text(alphabet=STANDARD, min_size=1, max_size=8)
idpaths = (
    st.lists(segments, min_size=1, max_size=4)
    .map(tuple)
    .filter(lambda s: not (len(s) == 2 and s[0] == "m"))  # /m/x is reserved for mids
    .map(IdPath)
)
external = st.from_regex(r"https?://[a-z]{2,8}\.example/[a-z0-9#/]{1,12}", fullmatch=True).map(
    ExternalIri
)
noderefs = st.one_of(mids, idpaths, external)


class TestNormalizeIri:
    def test_mid_form(self):
        # dump convention: ns + "m." + suffix
        assert normalize_iri(DEFAULT_NAMESPACE + "m.abc123") == Mid("abc123")

    def test_dotted_path_form(self):
        ref = normalize_iri(DEFAULT_NAMESPACE + "people.person.date_of_birth")
        assert ref == idpath("/people/person/date_of_birth")

    def test_foreign_namespace_passes_through(self):
        iri = "http://www.w3.org/2000/01/rdf-schema#label"
        assert normalize_iri(iri) == ExternalIri(iri)

    def test_custom_namespace(self):
        ref = normalize_iri("http://mirror.example/fb/m.xyz", "http://mirror.example/fb/")
        assert ref == Mid("xyz")

    def test_degenerate_locals_fall_back_to_external(self):
        for local in ("m.", "a..b", ".people", "people."):
            ref = normalize_iri(DEFAULT_NAMESPACE + local)
            assert isinstance(ref, ExternalIri)

    def test_empty_iri_rejected(self):
        with pytest.raises(ValueError):
            normalize_iri("")

    @given(st.from_regex(r"m\.[0-9a-z_]{1,12}", fullmatch=True))
    def test_mid_locals_classify_as_mid(self, local):
        assert isinstance(normalize_iri(DEFAULT_NAMESPACE + local), Mid)

    @given(st.lists(segments, min_size=1, max_size=4))
    def test_partition_is_exclusive(self, segs):
        # every normalized IRI lands in exactly one variant
        ref = normalize_iri(DEFAULT_NAMESPACE + ".".join(segs))
        kinds = [isinstance(ref, k) for k in (Mid, IdPath, ExternalIri)]
        assert sum(kinds) == 1


class TestRender:
    def test_mid(self):
        assert render(Mid("abc123")) == "/m/abc123"

    def test_type_path(self):
        assert render(IdPath(("people", "person"))) == "/people/person"

    def test_domain_path(self):
        assert render(IdPath(("people",))) == "/people"

    def test_external_verbatim(self):
        iri = "http://www.w3.org/2002/07/owl#inverseOf"
        assert render(ExternalIri(iri)) == iri

    @given(noderefs)
    def test_roundtrip_through_parse_ref(self, ref):
        assert parse_ref(render(ref)) == ref

    @given(noderefs)
    def test_roundtrip_through_iri(self, ref):
        assert normalize_iri(to_iri(ref)) == ref

    # parser.Projection finds the entry of a line parse_line built by this
    # identity: the IRI a predicate term renders back to is its token's.
    @given(
        st.sampled_from([DEFAULT_NAMESPACE, "http://example.org/kb+(v1)?/", ""]),
        st.text(alphabet="ambZ09_./#é", max_size=10),
    )
    @example(DEFAULT_NAMESPACE, "a..b")
    @example(DEFAULT_NAMESPACE, "m.")
    @example(DEFAULT_NAMESPACE, "m.a/b")
    def test_iri_roundtrips_through_normalize(self, namespace, local):
        iri = namespace + local
        if iri:
            assert to_iri(normalize_iri(iri, namespace), namespace) == iri

    @pytest.mark.parametrize("local", ["a..b", "m.", "m.a/b"])
    def test_fallback_locals_roundtrip_as_external(self, local):
        ref = normalize_iri(DEFAULT_NAMESPACE + local)
        assert isinstance(ref, ExternalIri) and to_iri(ref) == DEFAULT_NAMESPACE + local

    @given(st.lists(segments, min_size=1, max_size=4))
    def test_freebase_renderings_use_slash_alphabet(self, segs):
        ref = normalize_iri(DEFAULT_NAMESPACE + ".".join(segs))
        allowed = set("/" + STANDARD)
        assert set(render(ref)) <= allowed

    @given(noderefs)
    def test_segment_classification_stable_under_roundtrip(self, ref):
        again = parse_ref(render(ref))
        if isinstance(ref, IdPath):
            assert (ref.is_domain, ref.is_type, ref.is_property) == (
                again.is_domain,
                again.is_type,
                again.is_property,
            )


class TestInvariants:
    def test_mid_needs_suffix(self):
        with pytest.raises(ValueError):
            Mid("")

    def test_idpath_needs_segments(self):
        with pytest.raises(ValueError):
            IdPath(())
        with pytest.raises(ValueError):
            IdPath(("a", ""))

    def test_nonstandard_ids_accepted_but_flagged(self):
        assert not Mid("ABC").is_standard
        assert Mid("0sxg_").is_standard
        deep = IdPath(("a", "b", "c", "d"))
        assert not deep.is_standard
        assert idpath("/people/person").is_standard

    def test_literal_excludes_dual_annotation(self):
        with pytest.raises(ValueError):
            Literal("x", language="en", datatype=ExternalIri("http://t"))

    def test_triple_rejects_literal_subject_and_predicate(self):
        lit = Literal("x")
        ref = Mid("a")
        with pytest.raises(ValueError):
            Triple(lit, ref, ref)
        with pytest.raises(ValueError):
            Triple(ref, lit, ref)


XSD_DATE = ExternalIri("http://www.w3.org/2001/XMLSchema#date")
SLOTTED_VALUES = [
    Mid("0dl567"),
    idpath("/people/person/date_of_birth"),
    XSD_DATE,
    Literal("plain"),
    Literal("Platon", language="de"),
    Literal("1960-01-01", datatype=XSD_DATE),
    Triple(Mid("a"), idpath("/people/person/name"), Literal("Ann", language="en")),
    Triple(Mid("a"), ExternalIri("http://www.w3.org/2000/01/rdf-schema#label"), Mid("b")),
    SliceKey(DOMAIN, "people"),
    ValueNotation(idpath("/people/person/date_of_birth"), Mid("plato"), NotationKind.HAS_VALUE, "reversed"),
    IncompatibilityRule(idpath("/film/film_series"), idpath("/film/film")),
    Violation(Mid("terminator"), idpath("/film/film"), idpath("/film/film_series")),
]


@pytest.mark.parametrize("protocol", range(2, 6))
@pytest.mark.parametrize("value", SLOTTED_VALUES, ids=lambda v: type(v).__name__)
def test_slotted_value_round_trips_through_pickle(value, protocol):
    assert value.__reduce_ex__(protocol)[0] is type(value)  # a constructor call, not __setstate__
    again = pickle.loads(pickle.dumps(value, protocol))
    assert again == value
    assert type(again) is type(value)
    assert hash(again) == hash(value)
    assert not hasattr(again, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(again, dataclasses.fields(again)[0].name, None)
