"""Flat record parsing and deconstruction into temporal statements.

The record format is line oriented: records are separated by blank
lines, every line is ``key SP value``, the first two lines of a record
are ``id LOCALID`` and ``type person|body|work``. Validity qualifiers
are attached to a value with ``@``, e.g. ``student-of facB@1996..2000``.
Interval syntax is ``start..end`` with either side omittable; a bare
point means an instant. Points are ``YYYY[-MM[-DD]]``.

Batches are all-or-nothing: any error means no graph is produced.
Entities are referenced by (kind, local id) and resolved to minted
IRIs; labels never participate in identity, so two bodies both named
"Athens" with different local ids stay distinct.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from urllib.parse import quote

from .errors import (
    DanglingReference,
    DuplicateLocalId,
    EtdError,
    IngestError,
    InvalidLocalId,
    MissingRequiredKey,
    NotFound,
    RecordSyntaxError,
    UnknownKey,
)
from .model import (
    ALWAYS,
    Iri,
    Literal,
    Datatype,
    ProvenanceTag,
    TemporalTriple,
    TimeInterval,
    TimePoint,
    Validity,
)
from .store import DEFAULT_BASE_IRI, Effect, Store
from .vocab import DEFAULT_VOCAB, CorporateBodySubkind, EntityKind

DEFAULT_AUTHORITY_IRI = "http://example.org/etd/authority"

RECORD_KINDS = ("person", "body", "work")

_KEYS = {
    "person": frozenset(
        {"name", "gender", "student-of", "professor-at", "birth-place", "same-as"}
    ),
    "body": frozenset(
        {"name", "body-kind", "established", "subdivision-of", "changed-to", "same-as"}
    ),
    "work": frozenset(
        {"title", "work-kind", "dissertant", "study", "advisor", "committee",
         "grantor", "same-as", "related-to"}
    ),
}

_REQUIRED = {
    "person": ("name",),
    "body": ("name", "body-kind"),
    "work": ("title", "work-kind", "dissertant", "study", "grantor"),
}

_REPEATABLE = {
    "person": frozenset({"name", "gender", "student-of", "professor-at", "same-as"}),
    "body": frozenset({"name", "subdivision-of", "changed-to", "same-as"}),
    "work": frozenset({"advisor", "committee", "grantor", "same-as", "related-to"}),
}

_KIND_SEGMENT = {
    EntityKind.PERSON: "person",
    EntityKind.CORPORATE_BODY: "body",
    EntityKind.WORK: "work",
    EntityKind.PLACE: "place",
    EntityKind.GENDER: "gender",
}

_RECORD_ENTITY_KIND = {
    "person": EntityKind.PERSON,
    "body": EntityKind.CORPORATE_BODY,
    "work": EntityKind.WORK,
}


@dataclass(frozen=True)
class RecordField:
    key: str
    value: str
    line: int


@dataclass
class Record:
    local_id: str
    kind: str  # person | body | work
    fields: list[RecordField]
    line: int  # line of the `id` header

    def values(self, key: str) -> list[RecordField]:
        return [f for f in self.fields if f.key == key]

    def first(self, key: str) -> RecordField | None:
        for f in self.fields:
            if f.key == key:
                return f
        return None


@dataclass
class IngestIssue:
    record_id: str
    line: int
    message: str

    def __str__(self):
        return f"{self.record_id} (line {self.line}): {self.message}"


@dataclass
class IngestReport:
    records_parsed: int = 0
    triples_emitted: int = 0
    # what storing each emitted triple did; the counts sum to triples_emitted
    effects: Counter[Effect] = field(default_factory=Counter)
    warnings: list[str] = field(default_factory=list)
    errors: list[IngestIssue] = field(default_factory=list)


def parse_records(text: str) -> list[Record]:
    """Parse a record document; raises on the first syntax problem."""
    records: list[Record] = []
    seen: set[tuple[str, str]] = set()
    block: list[tuple[int, str]] = []

    def flush():
        if not block:
            return
        records.append(_parse_block(block, seen))
        block.clear()

    for lineno, raw in enumerate(text.split("\n"), start=1):
        if raw.strip() == "":
            flush()
            continue
        block.append((lineno, raw))
    flush()
    return records


def _parse_block(block: list[tuple[int, str]], seen: set[tuple[str, str]]) -> Record:
    pairs = []
    for lineno, raw in block:
        if raw != raw.rstrip():
            raise RecordSyntaxError(lineno, "trailing whitespace")
        key, sep, value = raw.partition(" ")
        if not sep or not key or not value.strip():
            raise RecordSyntaxError(lineno, f"expected 'key value', got {raw!r}")
        pairs.append((lineno, key, value))

    first_line, first_key, local_id = pairs[0]
    if first_key != "id":
        raise RecordSyntaxError(first_line, "record must start with an 'id' line")
    if len(pairs) < 2 or pairs[1][1] != "type":
        raise RecordSyntaxError(first_line, "second line must be 'type person|body|work'")
    kind = pairs[1][2]
    if kind not in RECORD_KINDS:
        raise RecordSyntaxError(pairs[1][0], f"unknown record type {kind!r}")
    if (kind, local_id) in seen:
        raise DuplicateLocalId(first_line, f"duplicate {kind} id {local_id!r}")
    seen.add((kind, local_id))

    allowed = _KEYS[kind]
    repeatable = _REPEATABLE[kind]
    fields = []
    used: set[str] = set()
    for lineno, key, value in pairs[2:]:
        if key in ("id", "type"):
            raise RecordSyntaxError(lineno, f"{key!r} only allowed in the record header")
        if key not in allowed:
            raise UnknownKey(lineno, f"unknown {kind} key {key!r}")
        if key in used and key not in repeatable:
            raise RecordSyntaxError(lineno, f"{key!r} may not repeat")
        used.add(key)
        fields.append(RecordField(key, value, lineno))
    for req in _REQUIRED[kind]:
        if req not in used:
            raise MissingRequiredKey(first_line, f"{kind} record needs {req!r}")
    return Record(local_id=local_id, kind=kind, fields=fields, line=first_line)


def print_records(records: list[Record]) -> str:
    """Serialize records back to the record format (field order kept)."""
    chunks = []
    for r in records:
        lines = [f"id {r.local_id}", f"type {r.kind}"]
        lines.extend(f"{f.key} {f.value}" for f in r.fields)
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


def mint_iri(base: Iri, kind: EntityKind, local_id: str) -> Iri:
    """Deterministic entity IRI: base/segment/percent-encoded-local-id."""
    if not local_id or not local_id.strip():
        raise InvalidLocalId(f"empty local id for {kind.value}")
    segment = _KIND_SEGMENT[kind]
    return Iri(f"{base.value.rstrip('/')}/{segment}/{quote(local_id, safe='')}")


def resolve_entity(store: Store, kind: EntityKind, local_id: str, base: Iri | None = None) -> Iri:
    """Look an entity up by minted identifier, never by label."""
    iri = mint_iri(base if base is not None else store.base_iri, kind, local_id)
    if not store.has_entity(iri):
        raise NotFound(f"no {kind.value} with id {local_id!r} ({iri})")
    return iri


def _split_qualifier(value: str) -> tuple[str, str | None]:
    head, sep, tail = value.rpartition("@")
    if not sep:
        return value, None
    return head, tail


def parse_interval_text(text: str) -> TimeInterval:
    """`start..end` with either side omittable (not both); a bare point
    is an instant."""
    if ".." in text:
        left, _, right = text.partition("..")
        start = TimePoint.parse(left) if left else None
        end = TimePoint.parse(right) if right else None
        return TimeInterval(start, end)
    return TimeInterval.instant(TimePoint.parse(text))


class _Builder:
    """Collects one batch's statements before any of them are stored."""

    def __init__(self, records, base: Iri, authority: Iri,
                 batch_date: TimePoint | None, into: Store | None):
        self.records = records
        self.base = base
        self.authority = authority
        self.batch_date = batch_date
        self.existing = into
        self.vocab = into.vocab if into is not None else DEFAULT_VOCAB
        self.report = IngestReport(records_parsed=len(records))
        self.triples: list[TemporalTriple] = []
        self.local: dict[tuple[EntityKind, str], Iri] = {}  # records, genders, places
        self.tags: dict[str, ProvenanceTag] = {}

    def error(self, record: Record, line: int, message: str):
        self.report.errors.append(IngestIssue(record.local_id, line, message))

    def run(self) -> tuple[Store, IngestReport]:
        for r in self.records:
            kind = _RECORD_ENTITY_KIND[r.kind]
            self.local[(kind, r.local_id)] = mint_iri(self.base, kind, r.local_id)
        for r in self.records:
            try:
                self._emit_record(r)
            except EtdError as exc:
                self.error(r, r.line, str(exc))
        if self.report.errors:
            self.report.errors.sort(key=lambda e: (e.line, e.record_id, e.message))
            raise IngestError(self.report)

        store = self.existing.copy() if self.existing is not None else Store(
            self.vocab, self.base
        )
        for triple in self.triples:
            try:
                self.report.effects[store.insert(triple).effect] += 1
            except EtdError as exc:
                self.report.errors.append(
                    IngestIssue(triple.provenance.source_record_id, 0, str(exc))
                )
        if self.report.errors:
            raise IngestError(self.report)
        self.report.triples_emitted = len(self.triples)
        self._grantor_warnings(store)
        self.report.warnings.sort()
        return store, self.report

    # -- helpers ------------------------------------------------------------

    def _provenance(self, source: str) -> ProvenanceTag:
        # one tag object for all of a source's statements
        tag = self.tags.get(source)
        if tag is None:
            tag = self.tags[source] = ProvenanceTag(source, self.authority, self.batch_date)
        return tag

    def _resolve(self, kind: EntityKind, local_id: str) -> Iri:
        hit = self.local.get((kind, local_id))
        if hit is not None:
            return hit
        if self.existing is not None:
            candidate = mint_iri(self.base, kind, local_id)
            if self.existing.has_entity(candidate):
                return candidate
        raise DanglingReference(
            f"{kind.value} {local_id!r} is not in this batch or the store"
        )

    def _emit(self, record: Record, subject: Iri, prop: str,
              obj: Iri | Literal, validity: Validity = ALWAYS):
        self.triples.append(
            TemporalTriple(
                subject=subject,
                property=self.vocab.expand(prop),
                object=obj,
                validity=validity,
                provenance=self._provenance(record.local_id),
            )
        )

    def _emit_kind(self, record: Record, entity: Iri, kind: EntityKind):
        self._emit(record, entity, "kind", self.vocab.class_iri(kind))

    def _value_entity(self, kind: EntityKind, local_id: str) -> Iri:
        # Genders and places are authority entities: one kind and one label
        # row per batch, under their own path, whichever record mentions
        # them first; none when `into` already holds the entity as `kind`.
        iri = self.local.get((kind, local_id))
        if iri is None:
            iri = self.local[(kind, local_id)] = mint_iri(self.base, kind, local_id)
            if self.existing is None or self.existing.kind_of(iri) is not kind:
                tag = self._provenance(f"{_KIND_SEGMENT[kind]}/{local_id}")
                for prop, obj in (("kind", self.vocab.class_iri(kind)),
                                  ("label", Literal(local_id))):
                    self.triples.append(
                        TemporalTriple(iri, self.vocab.expand(prop), obj, ALWAYS, tag))
        return iri

    def _validity(self, qualifier: str | None, line: int,
                  required_key: str | None = None) -> Validity:
        if qualifier is None:
            if required_key is not None:
                raise RecordSyntaxError(
                    line, f"{required_key} needs an @interval qualifier"
                )
            return ALWAYS
        return Validity.during(parse_interval_text(qualifier))

    def _emit_record(self, record: Record):
        kind = _RECORD_ENTITY_KIND[record.kind]
        entity = self.local[(kind, record.local_id)]
        self._emit_kind(record, entity, kind)
        emit = getattr(self, f"_emit_{record.kind}")
        emit(record, entity)
        for f in record.values("same-as"):
            self._link(record, entity, "sameAs", f)

    def _link(self, record: Record, entity: Iri, prop: str, f: RecordField):
        target = Iri(f.value)
        self._emit(record, target, "kind", self.vocab.class_iri(EntityKind.EXTERNAL_RESOURCE))
        self._emit(record, entity, prop, target)

    def _names(self, record: Record, entity: Iri, key: str):
        for f in record.values(key):
            text, qualifier = _split_qualifier(f.value)
            validity = self._validity(qualifier, f.line)
            self._emit(record, entity, "label", Literal(text), validity)

    def _emit_person(self, record: Record, person: Iri):
        self._names(record, person, "name")
        for f in record.values("gender"):
            value, qualifier = _split_qualifier(f.value)
            gender = self._value_entity(EntityKind.GENDER, value)
            self._emit(record, person, "hasGender", gender,
                       self._validity(qualifier, f.line))
        for f in record.values("student-of"):
            body_id, qualifier = _split_qualifier(f.value)
            body = self._resolve(EntityKind.CORPORATE_BODY, body_id)
            self._emit(record, person, "isStudentOf", body,
                       self._validity(qualifier, f.line, "student-of"))
        for f in record.values("professor-at"):
            body_id, qualifier = _split_qualifier(f.value)
            body = self._resolve(EntityKind.CORPORATE_BODY, body_id)
            self._emit(record, person, "isProfessorAt", body,
                       self._validity(qualifier, f.line, "professor-at"))
        f = record.first("birth-place")
        if f is not None:
            place = self._value_entity(EntityKind.PLACE, f.value)
            self._emit(record, person, "birthPlace", place)

    def _emit_body(self, record: Record, body: Iri):
        self._names(record, body, "name")
        f = record.first("body-kind")
        self._emit(record, body, "bodyKind", Literal(f.value))
        f = record.first("established")
        if f is not None:
            self._emit(record, body, "establishedIn", Literal(f.value, Datatype.YEAR))
        for f in record.values("subdivision-of"):
            parent_id, qualifier = _split_qualifier(f.value)
            parent = self._resolve(EntityKind.CORPORATE_BODY, parent_id)
            # stored from the parent side; the child side is inferred
            self._emit(record, parent, "hasSubdivision", body,
                       self._validity(qualifier, f.line, "subdivision-of"))
        for f in record.values("changed-to"):
            succ_id, qualifier = _split_qualifier(f.value)
            if qualifier is None:
                raise RecordSyntaxError(f.line, "changed-to needs an @point qualifier")
            successor = self._resolve(EntityKind.CORPORATE_BODY, succ_id)
            self._emit(record, body, "changedTo", successor,
                       Validity.at(TimePoint.parse(qualifier)))

    def _emit_work(self, record: Record, work: Iri):
        for f in record.values("title"):
            self._emit(record, work, "label", Literal(f.value))
        self._emit(record, work, "workKind", Literal(record.first("work-kind").value))
        study = record.first("study")
        study_validity = Validity.during(parse_interval_text(study.value))
        f = record.first("dissertant")
        author = self._resolve(EntityKind.PERSON, f.value)
        self._emit(record, work, "createdBy", author, study_validity)
        for f in record.values("advisor"):
            person = self._resolve(EntityKind.PERSON, f.value)
            self._emit(record, work, "advisedBy", person)
        for f in record.values("committee"):
            person = self._resolve(EntityKind.PERSON, f.value)
            self._emit(record, work, "committeeMember", person)
        for f in record.values("grantor"):
            body = self._resolve(EntityKind.CORPORATE_BODY, f.value)
            self._emit(record, work, "degreeGrantedBy", body)
        for f in record.values("related-to"):
            self._link(record, work, "relatedTo", f)

    def _grantor_warnings(self, store: Store):
        # unsorted probes: `run` sorts the warnings
        university = CorporateBodySubkind.UNIVERSITY.value
        body_kind = self.vocab.expand("bodyKind")
        has_subdivision = self.vocab.expand("hasSubdivision")
        granted = store._match(None, self.vocab.expand("degreeGrantedBy"), None, None, False)
        for t in granted:
            body = t.object
            subkinds = [x.object.lexical for x in store._match(body, body_kind, None, None, False)]
            if university not in subkinds:
                continue
            if store._match(body, has_subdivision, None, None, False):
                self.report.warnings.append(
                    f"work <{t.subject}> granted by university <{body}> "
                    "which has its own subdivisions"
                )


def records_to_graph(
    records: list[Record],
    base: Iri | str = DEFAULT_BASE_IRI,
    authority: Iri | str = DEFAULT_AUTHORITY_IRI,
    batch_date: TimePoint | None = None,
    into: Store | None = None,
) -> tuple[Store, IngestReport]:
    """Deconstruct a parsed batch into a store of temporal statements.

    The batch is atomic: any dangling reference, bad date, or kind
    violation raises IngestError carrying the full report and nothing
    is produced. `into` supplies an existing store whose entities may
    be referenced; the result is a new store, the original is untouched.
    """
    base_iri = base if isinstance(base, Iri) else Iri(base)
    authority_iri = authority if isinstance(authority, Iri) else Iri(authority)
    builder = _Builder(records, base_iri, authority_iri, batch_date, into)
    return builder.run()
