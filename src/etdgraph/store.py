"""Indexed, canonical set of temporal statements.

Statements that agree on subject, property, object, and provenance but
have overlapping or day-adjacent validity are coalesced into one row on
insert, so the stored set is always canonical: any insert order gives
the same rows. Rows that together cover every day become one unqualified
row; a membership, which must keep an interval, becomes one row
`[0001..]`, which starts on the first representable day.
Instants of an instant property (`changedTo`) coalesce only when one
contains the other; day-adjacent instants stay two rows.
Statements differing in provenance are kept apart deliberately: merging
assertions from different sources would destroy the audit trail.

Index layout: rows live only in `_by_subject[s][p]`, `_by_object[o][p]`
and `_by_key`, in lists, so no row is hashed; only coalescing removes
rows. A probe with a bound property and a bound subject or object scans
exactly the rows of that term pair; one without the property chains the
term's groups. `_by_property[p]` holds the `_by_subject[s][p]` lists
themselves. `_by_key` stays: a file may hold many rows on one `(s, p)`
that differ only in provenance, and finding the rows to coalesce with in
that group would make import quadratic. Files written before genders and
places were minted once per batch have a `gender/male` `label` row per
mention (4,637 at 9.6k persons); without `_by_key` that file took 30-40 s
to import instead of 5-7 s.

Concurrency contract: many readers or one writer. A store that is no
longer mutated can be shared between threads as an immutable snapshot.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain

from .errors import InvalidTriple, KindMismatch
from .model import (
    ALWAYS,
    Datatype,
    Iri,
    Literal,
    TemporalTriple,
    TimeInterval,
    TimePoint,
    Validity,
    interval_hull,
    intervals_overlap,
    intervals_touch,
    triple_sort_key,
)
from .vocab import (
    DEFAULT_VOCAB,
    EntityKind,
    FradCategory,
    KIND_CLASS,
    PropertyDef,
    Vocabulary,
)

DEFAULT_BASE_IRI = "http://example.org/etd"


@dataclass(frozen=True)
class At:
    point: TimePoint


@dataclass(frozen=True)
class During:
    interval: TimeInterval


@dataclass(frozen=True)
class Overlaps:
    interval: TimeInterval


TimeConstraint = At | During | Overlaps


class Inference(Enum):
    NONE = "none"
    INVERSE = "inverse"


@dataclass(frozen=True)
class Pattern:
    """Triple pattern; None fields are wildcards. All-wildcard scans the
    whole store."""

    subject: Iri | None = None
    property: Iri | None = None
    object: Iri | Literal | None = None
    time: TimeConstraint | None = None
    inference: Inference = Inference.NONE


class Effect(Enum):
    INSERTED = "inserted"
    COALESCED = "coalesced"
    DUPLICATE = "duplicate"


@dataclass(frozen=True)
class InsertResult:
    effect: Effect
    validity: Validity | None = None  # resulting validity for COALESCED


def _key(triple: TemporalTriple) -> tuple:
    return (triple.subject, triple.property, triple.object, triple.provenance)


_ALL_DAYS = Validity.during(TimeInterval(TimePoint(1), None))


def _requires_interval(pdef: PropertyDef) -> bool:
    return pdef.frad_category is FradCategory.MEMBERSHIP and pdef.temporal_expected


def _coalesce(
    validity: Validity, rows: Sequence[TemporalTriple], pdef: PropertyDef
) -> tuple[Validity, list[TemporalTriple]]:
    """The validity a time-scoped statement takes in a key holding `rows`,
    and the rows it absorbs."""
    # Rows of one key never touch each other (only day-adjacent instants
    # may), so while the hull is representable, the rows the new interval
    # touches are exactly the ones it joins into one. Instants join only
    # into an instant: calendar points are nested or disjoint, so
    # overlapping ones have the coarser point as their hull, and
    # day-adjacent ones stay apart.
    interval = validity.interval
    touches = intervals_overlap if pdef.instant else intervals_touch
    touching = [t for t in rows if touches(interval, t.validity.interval)]
    if not touching:
        return validity, touching
    hull = interval_hull([interval] + [t.validity.interval for t in touching])
    if hull is not None:
        return Validity.during(hull), touching
    # together the rows cover every day: an unqualified statement, or one
    # from the first day on for a membership, which needs an interval
    return _ALL_DAYS if _requires_interval(pdef) else ALWAYS, list(rows)


def _group(index: dict, term, prop) -> tuple[int, Iterable[TemporalTriple]]:
    """The rows of `term` in a two-level index, only those of `prop` when
    it is given, and their number."""
    groups = index.get(term)
    if groups is None:
        return 0, ()
    if prop is not None:
        rows = groups.get(prop, ())
        return len(rows), rows
    return sum(map(len, groups.values())), chain.from_iterable(groups.values())


def _passes(validity: Validity, constraint: TimeConstraint | None) -> bool:
    if constraint is None:
        return True
    if isinstance(constraint, At):
        return validity.contains(constraint.point)
    if isinstance(constraint, During):
        return validity.within(constraint.interval)
    return validity.overlaps(constraint.interval)


def _unifies(t: TemporalTriple, subject, obj, time: TimeConstraint | None) -> bool:
    return (
        (subject is None or t.subject == subject)
        and (obj is None or t.object == obj)
        and _passes(t.validity, time)
    )


class Store:
    def __init__(self, vocab: Vocabulary | None = None, base_iri: str | Iri = DEFAULT_BASE_IRI):
        self.vocab = vocab if vocab is not None else DEFAULT_VOCAB
        self.base_iri = base_iri if isinstance(base_iri, Iri) else Iri(base_iri)
        self._by_subject: dict[Iri, dict[Iri, list[TemporalTriple]]] = {}
        self._by_object: dict[Iri | Literal, dict[Iri, list[TemporalTriple]]] = {}
        self._by_property: dict[Iri, dict[Iri, list[TemporalTriple]]] = {}
        self._property_rows: Counter[Iri] = Counter()
        # coalescing index: (subject, property, object, provenance) -> rows
        self._by_key: dict[tuple, list[TemporalTriple]] = {}
        self._kinds: dict[Iri, EntityKind] = {}

    def __len__(self) -> int:
        return sum(self._property_rows.values())

    def __iter__(self):
        return chain.from_iterable(self._by_key.values())

    def __contains__(self, triple: TemporalTriple) -> bool:
        return triple in self._by_key.get(_key(triple), ())

    def sorted_triples(self) -> list[TemporalTriple]:
        return sorted(self, key=triple_sort_key)

    def kind_of(self, entity: Iri) -> EntityKind | None:
        return self._kinds.get(entity)

    def entities_of_kind(self, kind: EntityKind) -> list[Iri]:
        return sorted(
            (e for e, k in self._kinds.items() if k is kind), key=lambda i: i.value
        )

    def has_entity(self, entity: Iri) -> bool:
        return (
            entity in self._kinds
            or entity in self._by_subject
            or entity in self._by_object
        )

    def copy(self) -> "Store":
        clone = Store(self.vocab, self.base_iri)
        clone._by_subject = {s: {p: list(r) for p, r in g.items()} for s, g in self._by_subject.items()}
        clone._by_object = {o: {p: list(r) for p, r in g.items()} for o, g in self._by_object.items()}
        clone._by_property = {p: {s: clone._by_subject[s][p] for s in g} for p, g in self._by_property.items()}
        clone._property_rows = Counter(self._property_rows)
        clone._by_key = {key: list(rows) for key, rows in self._by_key.items()}
        clone._kinds = dict(self._kinds)
        return clone

    # -- insertion ----------------------------------------------------------

    def insert(self, triple: TemporalTriple) -> InsertResult:
        pdef = self.vocab.lookup_id(triple.property)
        self._validate(triple, pdef)
        same_key = self._by_key.get(_key(triple), ())
        if same_key and same_key[0].validity.is_always:
            # an unqualified statement is the key's only row and subsumes
            # any repeat
            return InsertResult(Effect.DUPLICATE)

        if triple.validity.is_always:
            validity, absorbed = ALWAYS, list(same_key)
        else:
            validity, absorbed = _coalesce(triple.validity, same_key, pdef)
            if len(absorbed) == 1 and absorbed[0].validity == validity:
                return InsertResult(Effect.DUPLICATE)
        if not absorbed:
            self._add(triple, pdef)
            return InsertResult(Effect.INSERTED)
        for existing in absorbed:
            self._remove(existing)
        self._add(replace(triple, validity=validity), pdef)
        return InsertResult(Effect.COALESCED, validity)

    def _validate(self, triple: TemporalTriple, pdef: PropertyDef):
        if triple.derived:
            raise InvalidTriple("derived statements are virtual and cannot be stored")
        if pdef.instant:
            iv = triple.validity.interval
            if iv is None or not iv.is_instant:
                raise InvalidTriple(
                    f"{pdef.curie} takes an instant validity, got {triple.validity}"
                )
        if _requires_interval(pdef) and triple.validity.is_always:
            raise InvalidTriple(f"{pdef.curie} requires a validity interval")

        obj = triple.object
        if pdef.range_kind is KIND_CLASS:
            if not isinstance(obj, Iri) or self.vocab.kind_for_class(obj) is None:
                raise InvalidTriple(f"{pdef.curie} object must be an entity-kind class IRI")
            declared = self.vocab.kind_for_class(obj)
            existing = self._kinds.get(triple.subject)
            if existing is not None and existing is not declared:
                raise InvalidTriple(
                    f"conflicting kind for <{triple.subject}>: "
                    f"{existing.value} vs {declared.value}"
                )
        elif isinstance(pdef.range_kind, Datatype):
            if not isinstance(obj, Literal) or obj.datatype is not pdef.range_kind:
                raise InvalidTriple(
                    f"{pdef.curie} object must be a {pdef.range_kind.value} literal"
                )
            if pdef.value_set is not None:
                if obj.lexical not in pdef.value_set:
                    raise InvalidTriple(
                        f"{pdef.curie} value {obj.lexical!r} not in "
                        f"{sorted(pdef.value_set)}"
                    )
                for other in self._by_subject.get(triple.subject, {}).get(triple.property, ()):
                    if other.object != obj:
                        raise InvalidTriple(
                            f"conflicting {pdef.curie} for <{triple.subject}>: "
                            f"{other.object} vs {obj}"
                        )
        else:
            if not isinstance(obj, Iri):
                raise InvalidTriple(f"{pdef.curie} object must be an entity IRI")

        if pdef.domain_kind is not None:
            known = self._kinds.get(triple.subject)
            if known is not None and known is not pdef.domain_kind:
                raise KindMismatch(
                    f"subject of {pdef.curie} must be {pdef.domain_kind.value}, "
                    f"<{triple.subject}> is {known.value}"
                )
        if isinstance(pdef.range_kind, EntityKind) and isinstance(obj, Iri):
            known = self._kinds.get(obj)
            if known is not None and known is not pdef.range_kind:
                raise KindMismatch(
                    f"object of {pdef.curie} must be {pdef.range_kind.value}, "
                    f"<{obj}> is {known.value}"
                )

    def _add(self, triple: TemporalTriple, pdef: PropertyDef):
        self._by_key.setdefault(_key(triple), []).append(triple)
        rows = self._by_subject.setdefault(triple.subject, {}).setdefault(triple.property, [])
        if not rows:  # a new list (or one emptied to coalesce): share it
            self._by_property.setdefault(triple.property, {})[triple.subject] = rows
        rows.append(triple)
        self._by_object.setdefault(triple.object, {}).setdefault(triple.property, []).append(triple)
        self._property_rows[triple.property] += 1
        if pdef.range_kind is KIND_CLASS:
            self._kinds[triple.subject] = self.vocab.kind_for_class(triple.object)

    def _remove(self, triple: TemporalTriple):
        key = _key(triple)
        rows = self._by_key[key]
        rows.remove(triple)
        if not rows:
            del self._by_key[key]
        self._by_subject[triple.subject][triple.property].remove(triple)
        self._by_object[triple.object][triple.property].remove(triple)
        self._property_rows[triple.property] -= 1

    # -- matching -----------------------------------------------------------

    def match(self, pattern: Pattern) -> list[TemporalTriple]:
        """All statements unifying with the pattern, canonically sorted.

        With inverse inference, statements whose property declares an
        inverse also yield a flipped, derived copy; a stored statement
        wins over a derived one that compares equal.
        """
        if pattern.property is not None:
            self.vocab.lookup_id(pattern.property)
        hits = self._match(
            pattern.subject, pattern.property, pattern.object, pattern.time,
            pattern.inference is Inference.INVERSE,
        )
        return sorted(hits, key=triple_sort_key)

    def _match(self, subject, prop, obj, time, inverse: bool) -> Iterable[TemporalTriple]:
        """`match` unsorted, for a known property: the probe a query join
        makes once per binding."""
        (_, stored, s, o), (_, flippable, fs, fo) = self._pools(subject, prop, obj, inverse)
        hits = [t for t in stored if _unifies(t, s, o, time)]
        if not flippable:
            return hits  # index rows are distinct
        out = dict.fromkeys(hits)
        for t in flippable:  # matched unflipped: flipping keeps the validity
            if _unifies(t, fs, fo, time) and isinstance(t.object, Iri):
                inverse_prop = self.vocab.inverse_of(t.property)
                if inverse_prop is not None:
                    out.setdefault(t.flipped(inverse_prop))  # an equal stored row keeps its key
        return out.keys()

    def _probe_size(self, subject, prop, obj) -> int:
        """Rows a probe with inverse inference scans, stored and flippable."""
        stored, flippable = self._pools(subject, prop, obj, True)
        return stored[0] + flippable[0]

    def _pools(self, subject, prop, obj, inverse: bool):
        """The smallest pool of stored rows that may unify with the terms and,
        with `inverse`, of rows whose flipped copy may (see `_smallest_pool`)."""
        stored = self._smallest_pool(subject, prop, obj)
        if not inverse or isinstance(subject, Literal) or isinstance(obj, Literal):
            return stored, (0, (), None, None)  # a flipped copy has entities at both ends
        # Flipping swaps s/o and maps the property to its inverse (an
        # involution), so the flippable rows are those of the reversed terms.
        stored_prop = None
        if prop is not None:
            stored_prop = self.vocab.inverse_of(prop)
            if stored_prop is None:
                return stored, (0, (), None, None)
        return stored, self._smallest_pool(obj, stored_prop, subject)

    def _smallest_pool(self, subject, prop, obj) -> tuple:
        """The smallest pool of rows with the terms, its size, and the subject
        and object its rows must still match (every pool fixes the property)."""
        if subject is not None:
            size, rows = _group(self._by_subject, subject, prop)
            if obj is not None:
                by_object = _group(self._by_object, obj, prop)
                if by_object[0] < size:
                    return *by_object, subject, None
            return size, rows, None, obj
        if obj is not None:
            return *_group(self._by_object, obj, prop), None, None
        if prop is None:
            return len(self), iter(self), None, None
        subjects = self._by_property.get(prop, {})
        return self._property_rows[prop], chain.from_iterable(subjects.values()), None, None

    def snapshot_at(self, t: TimePoint) -> set[TemporalTriple]:
        """Statements valid at t; Always statements are always included."""
        return {x for x in self if x.validity.contains(t)}
