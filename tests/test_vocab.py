import pytest

from etdgraph.errors import UnknownProperty
from etdgraph.model import Datatype
from etdgraph.vocab import (
    DEFAULT_VOCAB,
    EntityKind,
    FradCategory,
    KIND_CLASS,
    Vocabulary,
)


def test_relator_codes_match_the_cataloguing_table():
    degree = DEFAULT_VOCAB.lookup("etd:degreeGrantedBy")
    assert degree.relator_unimarc == "295"
    assert degree.relator_marc21 == "dgg"
    advisor = DEFAULT_VOCAB.lookup("etd:advisedBy")
    assert advisor.relator_unimarc == "727"
    assert advisor.relator_marc21 == "ths"
    author = DEFAULT_VOCAB.lookup("etd:createdBy")
    assert author.relator_marc21 == "dis"
    assert author.relator_unimarc is None  # no UNIMARC equivalent exists


def test_exactly_three_properties_carry_relator_codes():
    coded = [p for p in DEFAULT_VOCAB.table() if p.relator_unimarc or p.relator_marc21]
    assert sorted(p.curie for p in coded) == [
        "etd:advisedBy",
        "etd:createdBy",
        "etd:degreeGrantedBy",
    ]


def test_hierarchical_relationship():
    sub = DEFAULT_VOCAB.lookup("etd:hasSubdivision")
    assert sub.frad_category is FradCategory.HIERARCHICAL
    assert sub.inverse_id == DEFAULT_VOCAB.expand("isSubdivisionOf")


def test_membership_relationship():
    prof = DEFAULT_VOCAB.lookup("etd:isProfessorAt")
    assert prof.frad_category is FradCategory.MEMBERSHIP
    assert prof.temporal_expected


def test_sequential_relationship_is_instant():
    changed = DEFAULT_VOCAB.lookup("etd:changedTo")
    assert changed.frad_category is FradCategory.SEQUENTIAL
    assert changed.temporal_expected and changed.instant


def test_unknown_property():
    with pytest.raises(UnknownProperty):
        DEFAULT_VOCAB.lookup("etd:nonsense")


def test_inverse_direction_of_authorship():
    assert DEFAULT_VOCAB.inverse_of(DEFAULT_VOCAB.expand("createdBy")) == DEFAULT_VOCAB.expand("created")


def test_attribute_properties_have_no_inverse():
    assert DEFAULT_VOCAB.inverse_of(DEFAULT_VOCAB.expand("hasGender")) is None
    assert DEFAULT_VOCAB.inverse_of(DEFAULT_VOCAB.expand("establishedIn")) is None


def test_inverse_is_an_involution():
    for pdef in DEFAULT_VOCAB.table():
        if pdef.inverse_id is not None:
            assert DEFAULT_VOCAB.inverse_of(pdef.inverse_id) == pdef.id


def test_inverse_pairs_swap_domain_and_range():
    for pdef in DEFAULT_VOCAB.table():
        if pdef.inverse_id is not None:
            other = DEFAULT_VOCAB.lookup_id(pdef.inverse_id)
            assert other.domain_kind == pdef.range_kind
            assert other.range_kind == pdef.domain_kind


def test_expected_property_shapes():
    v = DEFAULT_VOCAB
    assert v.lookup("etd:kind").range_kind is KIND_CLASS
    assert v.lookup("etd:establishedIn").range_kind is Datatype.YEAR
    assert v.lookup("etd:label").temporal_expected
    assert v.lookup("etd:hasGender").range_kind is EntityKind.GENDER
    assert v.lookup("etd:hasGender").temporal_expected
    assert v.lookup("etd:birthPlace").range_kind is EntityKind.PLACE
    assert v.lookup("etd:sameAs").range_kind is EntityKind.EXTERNAL_RESOURCE
    assert v.lookup("etd:bodyKind").value_set == frozenset(
        {"university", "school", "faculty", "other"}
    )
    assert v.lookup("etd:workKind").value_set == frozenset({"master", "phd"})


def test_namespace_override():
    other = Vocabulary("http://catalog.example.edu/terms#")
    pdef = other.lookup("etd:advisedBy")
    assert pdef.id.value == "http://catalog.example.edu/terms#advisedBy"
    assert other.class_iri(EntityKind.PERSON).value == "http://catalog.example.edu/terms#Person"


def test_class_iri_resolution():
    iri = DEFAULT_VOCAB.resolve_curie("etd:Person")
    assert DEFAULT_VOCAB.kind_for_class(iri) is EntityKind.PERSON
    with pytest.raises(UnknownProperty):
        DEFAULT_VOCAB.resolve_curie("etd:NoSuchClass")


def test_every_property_in_the_fixture_graph_is_known(network):
    # the vocabulary is closed over everything ingest emits
    for triple in network:
        assert network.vocab.lookup_id(triple.property) is not None


def test_expand_shares_one_iri_per_term():
    assert DEFAULT_VOCAB.expand("label") is DEFAULT_VOCAB.expand("label")
    assert DEFAULT_VOCAB.expand("Person") is DEFAULT_VOCAB.class_iri(EntityKind.PERSON)
    assert DEFAULT_VOCAB.lookup("etd:hasSubdivision").inverse_id is DEFAULT_VOCAB.expand(
        "isSubdivisionOf"
    )
    with pytest.raises(UnknownProperty):
        DEFAULT_VOCAB.expand("nonsense")
