"""Core value types: IRIs, calendar points and intervals, typed literals,
provenance tags, and the temporal statements built from them.

All types here are immutable and hashable, so they can be shared freely
between threads. The value types are slotted, with no per-instance
`__dict__`. There is one live `Iri` object per normalized text, so `Iri`
equality and hashing are identity, and an `Iri` is never equal to a
`str` or a `Literal`.

Time comparisons work on closed day ranges: a point or interval of any
precision (year, month, day) is first normalized to its first and last
calendar day, which makes mixed-precision comparisons well defined. The
calendar is proleptic Gregorian with no time zones.
"""

from __future__ import annotations

import calendar
import re
import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass, field
from datetime import date, timedelta
from enum import Enum
from urllib.parse import quote

from .errors import (
    InvalidDate,
    InvalidInterval,
    InvalidIri,
    InvalidLiteral,
)

_IRI_SHAPE = re.compile(r"^https?://[^/?#]+")
_LANG_TAG = re.compile(r"^[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*$")
_POINT_TEXT = re.compile(r"^(\d{4})(?:-(\d{2})(?:-(\d{2}))?)?$")
_IRI_EXCLUDED = '<>"{}|\\^`'  # printable ASCII that RFC 3987 excludes from IRIs
# printable ASCII except % and the excluded characters
_PLAIN_IRI_TEXT = re.compile(f"[^\\x00-\\x20\\x7f-\\U0010ffff%{re.escape(_IRI_EXCLUDED)}]*")
_HEX = set("0123456789abcdefABCDEF")


def _normalize_iri_text(text: str) -> str:
    # Almost every IRI is printable ASCII without escapes and is already
    # in normal form.
    if _PLAIN_IRI_TEXT.fullmatch(text):
        return text
    return _normalize_iri_chars(text)


def _normalize_iri_chars(text: str) -> str:
    # Uppercase existing %hh escapes, percent-encode raw non-ASCII bytes.
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        code = ord(ch)
        if ch == "%":
            if i + 2 < n and text[i + 1] in _HEX and text[i + 2] in _HEX:
                out.append(text[i : i + 3].upper())
                i += 3
                continue
            raise InvalidIri(f"malformed percent escape at offset {i} in {text!r}")
        if code <= 0x20 or code == 0x7F:
            raise InvalidIri(f"whitespace or control character at offset {i} in {text!r}")
        if ch in _IRI_EXCLUDED or 0xD800 <= code <= 0xDFFF:  # or a lone surrogate
            raise InvalidIri(f"character {ch!r} not allowed in an IRI at offset {i} in {text!r}")
        if code > 0x7E:
            out.append(quote(ch, safe=""))
        else:
            out.append(ch)
        i += 1
    return "".join(out)


# normalized text -> weak reference to its one live Iri
_interned: dict[str, weakref.KeyedRef] = {}
# Reentrant: a collection triggered inside the miss path may run `_forget`.
_intern_lock = threading.RLock()


def _forget(ref: weakref.KeyedRef) -> None:
    """Drop a dead IRI's entry, unless a new Iri for its text replaced it."""
    with _intern_lock:
        if _interned.get(ref.key) is ref:
            del _interned[ref.key]


class Iri:
    """An absolute http(s) IRI. `Iri(text)` returns the one live object
    for the text after percent-encoding normalization (uppercase hex,
    non-ASCII encoded), so equality is identity. The table holds IRIs
    weakly: one that nothing else holds is dropped."""

    __slots__ = ("value", "__weakref__")
    value: str

    def __new__(cls, value: str) -> "Iri":
        ref = _interned.get(value)
        iri = ref() if ref is not None else None
        if iri is not None:
            return iri
        normalized = _normalize_iri_text(value)
        if not _IRI_SHAPE.match(normalized):
            raise InvalidIri(f"not an absolute http(s) IRI: {value!r}")
        with _intern_lock:
            ref = _interned.get(normalized)
            iri = ref() if ref is not None else None
            if iri is None:
                iri = object.__new__(cls)
                object.__setattr__(iri, "value", normalized)
                _interned[normalized] = weakref.KeyedRef(iri, _forget, normalized)
        return iri

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Iri, (self.value,)

    def __repr__(self) -> str:
        return f"Iri(value={self.value!r})"

    def __str__(self) -> str:
        return self.value

    def local_name(self) -> str:
        """Last path/fragment segment, percent-decoding left alone."""
        tail = self.value.rsplit("#", 1)[-1]
        return tail.rsplit("/", 1)[-1]


@dataclass(frozen=True, slots=True)
class TimePoint:
    """A calendar point with year, month, or day precision.

    Day precision requires month precision: there are no gaps.
    """

    year: int
    month: int | None = None
    day: int | None = None

    def __post_init__(self):
        if not 1 <= self.year <= 9999:
            raise InvalidDate("year", f"{self.year} out of range 1..9999")
        if self.month is not None and not 1 <= self.month <= 12:
            raise InvalidDate("month", f"{self.month} out of range 1..12")
        if self.day is not None:
            if self.month is None:
                raise InvalidDate("day", "day given without month")
            last = calendar.monthrange(self.year, self.month)[1]
            if not 1 <= self.day <= last:
                raise InvalidDate(
                    "day", f"{self.day} out of range 1..{last} for {self.year}-{self.month:02d}"
                )

    @classmethod
    def parse(cls, text: str) -> "TimePoint":
        m = _POINT_TEXT.match(text)
        if not m:
            raise InvalidDate("point", f"cannot parse {text!r}, expected YYYY[-MM[-DD]]")
        year, month, day = m.groups()
        return cls(int(year), int(month) if month else None, int(day) if day else None)

    def first_day(self) -> date:
        if self.month is None:
            return date(self.year, 1, 1)
        if self.day is None:
            return date(self.year, self.month, 1)
        return date(self.year, self.month, self.day)

    def last_day(self) -> date:
        if self.month is None:
            return date(self.year, 12, 31)
        if self.day is None:
            return date(self.year, self.month, calendar.monthrange(self.year, self.month)[1])
        return date(self.year, self.month, self.day)

    def text(self) -> str:
        if self.month is None:
            return f"{self.year:04d}"
        if self.day is None:
            return f"{self.year:04d}-{self.month:02d}"
        return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True, slots=True)
class TimeInterval:
    """Closed interval between two points; either bound may be absent,
    meaning unbounded on that side (never both). An instant is
    start == end."""

    start: TimePoint | None = None
    end: TimePoint | None = None

    def __post_init__(self):
        if self.start is None and self.end is None:
            raise InvalidInterval("interval needs at least one bound")
        if self.start is not None and self.end is not None:
            if self.start.first_day() > self.end.last_day():
                raise InvalidInterval(
                    f"start {self.start} after end {self.end}"
                )

    @classmethod
    def instant(cls, t: TimePoint) -> "TimeInterval":
        return cls(t, t)

    @property
    def is_instant(self) -> bool:
        return self.start is not None and self.start == self.end

    def first_day(self) -> date:
        return self.start.first_day() if self.start is not None else date.min

    def last_day(self) -> date:
        return self.end.last_day() if self.end is not None else date.max

    def text(self) -> str:
        if self.is_instant:
            return f"[{self.start}]"
        left = self.start.text() if self.start else ""
        right = self.end.text() if self.end else ""
        return f"[{left}..{right}]"

    def __str__(self) -> str:
        return self.text()


def interval_contains(iv: TimeInterval, t: TimePoint) -> bool:
    """True iff the whole day range of t lies inside the day range of iv."""
    return iv.first_day() <= t.first_day() and t.last_day() <= iv.last_day()


def intervals_overlap(a: TimeInterval, b: TimeInterval) -> bool:
    """True iff the closed day ranges intersect (a shared day counts)."""
    return a.first_day() <= b.last_day() and b.first_day() <= a.last_day()


def _adjacent(earlier_end: date, later_start: date) -> bool:
    return earlier_end != date.max and earlier_end + timedelta(days=1) == later_start


def intervals_touch(a: TimeInterval, b: TimeInterval) -> bool:
    """True iff the closed day ranges overlap or are day-adjacent."""
    return (
        intervals_overlap(a, b)
        or _adjacent(a.last_day(), b.first_day())
        or _adjacent(b.last_day(), a.first_day())
    )


def _precision(t: TimePoint) -> int:
    return 1 if t.month is None else 2 if t.day is None else 3


def _start_rank(t: TimePoint | None):
    return (date.min, 0) if t is None else (t.first_day(), _precision(t))


def _end_rank(t: TimePoint | None):
    return (date.max, 0) if t is None else (t.last_day(), -_precision(t))


def interval_hull(intervals) -> TimeInterval | None:
    """Smallest interval covering every one of `intervals`, or None when
    it would be unbounded on both sides.

    Points of different precision can name the same boundary day
    (1996, 1996-01 and 1996-01-01 all start on 1 January); the coarsest
    wins, so the result does not depend on the order of `intervals`.
    """
    start = min((iv.start for iv in intervals), key=_start_rank)
    end = max((iv.end for iv in intervals), key=_end_rank)
    if start is None and end is None:
        return None
    return TimeInterval(start, end)


def merge_if_coalescable(a: TimeInterval, b: TimeInterval) -> TimeInterval | None:
    """Union of a and b when they overlap or are day-adjacent, else None.

    A union that would be unbounded on both sides is not a representable
    interval, so such pairs are reported as not coalescable.
    """
    if not intervals_touch(a, b):
        return None
    return interval_hull((a, b))


@dataclass(frozen=True, slots=True)
class Validity:
    """Either time-unqualified (Always) or scoped to an interval."""

    interval: TimeInterval | None = None

    @classmethod
    def during(cls, iv: TimeInterval) -> "Validity":
        return cls(iv)

    @classmethod
    def at(cls, t: TimePoint) -> "Validity":
        return cls(TimeInterval.instant(t))

    @property
    def is_always(self) -> bool:
        return self.interval is None

    def contains(self, t: TimePoint) -> bool:
        return True if self.interval is None else interval_contains(self.interval, t)

    def overlaps(self, iv: TimeInterval) -> bool:
        return True if self.interval is None else intervals_overlap(self.interval, iv)

    def within(self, iv: TimeInterval) -> bool:
        # Always is never contained in a bounded window.
        if self.interval is None:
            return iv.start is None and iv.end is None
        return (
            iv.first_day() <= self.interval.first_day()
            and self.interval.last_day() <= iv.last_day()
        )

    def text(self) -> str:
        return "always" if self.interval is None else self.interval.text()

    def __str__(self) -> str:
        return self.text()


ALWAYS = Validity()


class Datatype(str, Enum):
    STRING = "string"
    INTEGER = "integer"
    YEAR = "year"
    DATE = "date"


@dataclass(frozen=True, slots=True)
class Literal:
    lexical: str
    datatype: Datatype = Datatype.STRING
    language: str | None = None

    def __post_init__(self):
        if self.language is not None:
            if self.datatype is not Datatype.STRING:
                raise InvalidLiteral("language tags are only valid on string literals")
            if not _LANG_TAG.match(self.language):
                raise InvalidLiteral(f"bad language tag {self.language!r}")
        if self.datatype is Datatype.INTEGER:
            if not re.fullmatch(r"[+-]?\d+", self.lexical):
                raise InvalidLiteral(f"not an integer literal: {self.lexical!r}")
        elif self.datatype is Datatype.YEAR:
            if not re.fullmatch(r"\d{4}", self.lexical):
                raise InvalidLiteral(f"not a 4-digit year literal: {self.lexical!r}")
        elif self.datatype is Datatype.DATE:
            m = re.fullmatch(r"(\d{4})-(\d{2})-(\d{2})", self.lexical)
            if not m:
                raise InvalidLiteral(f"not a date literal: {self.lexical!r}")
            try:
                date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
            except ValueError as exc:
                raise InvalidLiteral(f"invalid calendar date {self.lexical!r}") from exc

    def __str__(self) -> str:
        return self.lexical


@dataclass(frozen=True, slots=True)
class ProvenanceTag:
    """Who asserted a statement and from which source record."""

    source_record_id: str
    asserting_authority: Iri
    asserted_at: TimePoint | None = None

    def __post_init__(self):
        if not self.source_record_id.strip():
            raise InvalidLiteral("provenance source record id must be non-empty")


@dataclass(frozen=True, slots=True)
class TemporalTriple:
    """One subject-property-object statement with validity and provenance.

    `derived` marks statements synthesized by inverse inference; it does
    not participate in equality, so a derived triple compares equal to
    the stored statement it mirrors when flipped back.
    """

    subject: Iri
    property: Iri
    object: Iri | Literal
    validity: Validity
    provenance: ProvenanceTag
    derived: bool = field(default=False, compare=False)

    def flipped(self, inverse_property: Iri) -> "TemporalTriple":
        if not isinstance(self.object, Iri):
            raise InvalidLiteral("cannot flip a literal-valued statement")
        return TemporalTriple(
            subject=self.object,
            property=inverse_property,
            object=self.subject,
            validity=self.validity,
            provenance=self.provenance,
            derived=True,
        )


def object_sort_text(obj: Iri | Literal) -> str:
    if isinstance(obj, Iri):
        return "<" + obj.value + ">"
    tag = f"@{obj.language}" if obj.language else ""
    # `_value_` is the plain attribute behind the Enum.value property
    return f'"{obj.lexical}"^^{obj.datatype._value_}{tag}'


def _validity_key(v: Validity):
    if v.interval is None:
        return (0, 0, 0)
    return (1, v.interval.first_day().toordinal(), v.interval.last_day().toordinal())


def triple_sort_key(t: TemporalTriple):
    """Canonical total order: subject, property, object, validity start,
    then provenance for ties."""
    prov = t.provenance
    return (
        t.subject.value,
        t.property.value,
        object_sort_text(t.object),
        _validity_key(t.validity),
        prov.source_record_id,
        prov.asserting_authority.value,
        prov.asserted_at.text() if prov.asserted_at else "",
    )
