"""The fixed ontology for the academic-network graph.

Entity kinds, property definitions grouped by authority-data
relationship category, declared inverses, temporality expectations,
and the MARC/UNIMARC relator codes for the three degree-related roles
(degree grantor dgg/295, thesis advisor ths/727, dissertant dis).

The namespace prefix ``etd:`` expands to ``http://example.org/etd/vocab#``
by default and can be overridden by constructing a Vocabulary with a
different namespace. A Vocabulary is immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import UnknownProperty
from .model import Datatype, Iri

DEFAULT_NAMESPACE = "http://example.org/etd/vocab#"
PREFIX = "etd"


class EntityKind(Enum):
    PERSON = "Person"
    CORPORATE_BODY = "CorporateBody"
    WORK = "Work"
    PLACE = "Place"
    GENDER = "Gender"
    EXTERNAL_RESOURCE = "ExternalResource"


class CorporateBodySubkind(str, Enum):
    UNIVERSITY = "university"
    SCHOOL = "school"
    FACULTY = "faculty"
    OTHER = "other"


class WorkSubkind(str, Enum):
    MASTER_THESIS = "master"
    PHD_DISSERTATION = "phd"


class FradCategory(Enum):
    SEQUENTIAL = "sequential"
    HIERARCHICAL = "hierarchical"
    MEMBERSHIP = "membership"
    CREATION = "creation"
    CONTRIBUTION = "contribution"
    ATTRIBUTE = "attribute"
    LINKING = "linking"


class _KindClassRange:
    """Range marker: the object must be one of the entity-kind class IRIs."""

    def __repr__(self):
        return "KIND_CLASS"


KIND_CLASS = _KindClassRange()


@dataclass(frozen=True)
class PropertyDef:
    id: Iri
    curie: str
    domain_kind: EntityKind | None  # None: any entity
    range_kind: EntityKind | Datatype | _KindClassRange
    frad_category: FradCategory
    temporal_expected: bool = False
    instant: bool = False  # validity must be a single point (e.g. changedTo)
    inverse_id: Iri | None = None
    relator_unimarc: str | None = None
    relator_marc21: str | None = None
    value_set: frozenset[str] | None = None  # closed string sets (bodyKind, workKind)


# (local name, domain, range, category, temporal, instant, inverse local,
#  relator unimarc, relator marc21, value set)
_P = EntityKind.PERSON
_B = EntityKind.CORPORATE_BODY
_W = EntityKind.WORK
_TABLE = [
    ("kind", None, KIND_CLASS, FradCategory.ATTRIBUTE, False, False, None, None, None, None),
    ("bodyKind", _B, Datatype.STRING, FradCategory.ATTRIBUTE, False, False, None, None, None,
     frozenset(k.value for k in CorporateBodySubkind)),
    ("workKind", _W, Datatype.STRING, FradCategory.ATTRIBUTE, False, False, None, None, None,
     frozenset(k.value for k in WorkSubkind)),
    ("label", None, Datatype.STRING, FradCategory.ATTRIBUTE, True, False, None, None, None, None),
    ("isStudentOf", _P, _B, FradCategory.MEMBERSHIP, True, False, None, None, None, None),
    ("isProfessorAt", _P, _B, FradCategory.MEMBERSHIP, True, False, None, None, None, None),
    ("hasSubdivision", _B, _B, FradCategory.HIERARCHICAL, True, False, "isSubdivisionOf", None, None, None),
    ("isSubdivisionOf", _B, _B, FradCategory.HIERARCHICAL, True, False, "hasSubdivision", None, None, None),
    ("changedTo", _B, _B, FradCategory.SEQUENTIAL, True, True, "changedFrom", None, None, None),
    ("changedFrom", _B, _B, FradCategory.SEQUENTIAL, True, True, "changedTo", None, None, None),
    ("createdBy", _W, _P, FradCategory.CREATION, True, False, "created", None, "dis", None),
    ("created", _P, _W, FradCategory.CREATION, True, False, "createdBy", None, None, None),
    ("advisedBy", _W, _P, FradCategory.CONTRIBUTION, False, False, "advised", "727", "ths", None),
    ("advised", _P, _W, FradCategory.CONTRIBUTION, False, False, "advisedBy", None, None, None),
    ("degreeGrantedBy", _W, _B, FradCategory.CONTRIBUTION, False, False, "grantedDegreeFor", "295", "dgg", None),
    ("grantedDegreeFor", _B, _W, FradCategory.CONTRIBUTION, False, False, "degreeGrantedBy", None, None, None),
    ("committeeMember", _W, _P, FradCategory.CONTRIBUTION, False, False, "committeeMemberOf", None, None, None),
    ("committeeMemberOf", _P, _W, FradCategory.CONTRIBUTION, False, False, "committeeMember", None, None, None),
    ("hasGender", _P, EntityKind.GENDER, FradCategory.ATTRIBUTE, True, False, None, None, None, None),
    ("establishedIn", _B, Datatype.YEAR, FradCategory.ATTRIBUTE, False, False, None, None, None, None),
    ("birthPlace", _P, EntityKind.PLACE, FradCategory.ATTRIBUTE, False, False, None, None, None, None),
    ("sameAs", None, EntityKind.EXTERNAL_RESOURCE, FradCategory.LINKING, False, False, None, None, None, None),
    ("relatedTo", None, EntityKind.EXTERNAL_RESOURCE, FradCategory.LINKING, False, False, None, None, None, None),
]


class Vocabulary:
    """Closed property table plus the entity-kind class IRIs."""

    def __init__(self, namespace: str = DEFAULT_NAMESPACE):
        self.namespace = namespace
        self._by_curie: dict[str, PropertyDef] = {}
        self._by_id: dict[Iri, PropertyDef] = {}
        self._class_by_kind: dict[EntityKind, Iri] = {
            k: Iri(namespace + k.value) for k in EntityKind
        }
        self._kind_by_class: dict[Iri, EntityKind] = {
            v: k for k, v in self._class_by_kind.items()
        }
        # one shared Iri per term, so `expand` builds none
        self._terms: dict[str, Iri] = {k.value: v for k, v in self._class_by_kind.items()}
        self._terms.update((row[0], Iri(namespace + row[0])) for row in _TABLE)
        for (local, dom, rng, cat, temporal, instant, inv, uni, marc, values) in _TABLE:
            pd = PropertyDef(
                id=self._terms[local],
                curie=f"{PREFIX}:{local}",
                domain_kind=dom,
                range_kind=rng,
                frad_category=cat,
                temporal_expected=temporal,
                instant=instant,
                inverse_id=self._terms[inv] if inv else None,
                relator_unimarc=uni,
                relator_marc21=marc,
                value_set=values,
            )
            self._by_curie[pd.curie] = pd
            self._by_id[pd.id] = pd
        self._check()

    def _check(self):
        for pd in self._by_id.values():
            if pd.inverse_id is not None:
                other = self._by_id[pd.inverse_id]
                assert other.inverse_id == pd.id, f"inverse of {pd.curie} not symmetric"
                assert other.domain_kind == pd.range_kind, pd.curie
                assert other.range_kind == pd.domain_kind, pd.curie
        with_codes = [p for p in self._by_id.values() if p.relator_unimarc or p.relator_marc21]
        assert len(with_codes) == 3, "exactly three properties carry relator codes"

    def table(self) -> list[PropertyDef]:
        """The full ontology, sorted by curie."""
        return sorted(self._by_id.values(), key=lambda p: p.curie)

    def lookup(self, curie: str) -> PropertyDef:
        try:
            return self._by_curie[curie]
        except KeyError:
            raise UnknownProperty(f"unknown property {curie!r}") from None

    def lookup_id(self, property_id: Iri) -> PropertyDef:
        try:
            return self._by_id[property_id]
        except KeyError:
            raise UnknownProperty(f"unknown property <{property_id}>") from None

    def inverse_of(self, property_id: Iri) -> Iri | None:
        return self.lookup_id(property_id).inverse_id

    def expand(self, local: str) -> Iri:
        """The IRI of a property or entity-kind class by its local name."""
        try:
            return self._terms[local]
        except KeyError:
            raise UnknownProperty(f"unknown vocabulary term {local!r}") from None

    def class_iri(self, kind: EntityKind) -> Iri:
        return self._class_by_kind[kind]

    def kind_for_class(self, iri: Iri) -> EntityKind | None:
        return self._kind_by_class.get(iri)

    def resolve_curie(self, curie: str) -> Iri:
        """Resolve a curie to a property or class IRI; strict about typos."""
        pd = self._by_curie.get(curie)
        if pd is not None:
            return pd.id
        prefix, _, local = curie.partition(":")
        if prefix == PREFIX:
            candidate = Iri(self.namespace + local)
            if candidate in self._kind_by_class:
                return candidate
        raise UnknownProperty(f"unknown vocabulary term {curie!r}")


DEFAULT_VOCAB = Vocabulary()
