"""Temporal knowledge-graph engine for thesis and dissertation
repositories: time-scoped, provenance-tagged statements over persons,
corporate bodies, and works, with a small query language, canned
academic-network analytics, a canonical quad serialization, and a
read-only dereference endpoint."""

import logging

from .model import (
    ALWAYS,
    Datatype,
    Iri,
    Literal,
    ProvenanceTag,
    TemporalTriple,
    TimeInterval,
    TimePoint,
    Validity,
    interval_contains,
    intervals_overlap,
    merge_if_coalescable,
)
from .store import At, During, Effect, Inference, Overlaps, Pattern, Store
from .vocab import (
    DEFAULT_VOCAB,
    CorporateBodySubkind,
    EntityKind,
    FradCategory,
    PropertyDef,
    Vocabulary,
    WorkSubkind,
)

__version__ = "0.1.0"

# a library leaves logging output to the application
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "ALWAYS",
    "At",
    "CorporateBodySubkind",
    "Datatype",
    "DEFAULT_VOCAB",
    "During",
    "Effect",
    "EntityKind",
    "FradCategory",
    "Inference",
    "Iri",
    "Literal",
    "Overlaps",
    "Pattern",
    "PropertyDef",
    "ProvenanceTag",
    "Store",
    "TemporalTriple",
    "TimeInterval",
    "TimePoint",
    "Validity",
    "Vocabulary",
    "WorkSubkind",
    "interval_contains",
    "intervals_overlap",
    "merge_if_coalescable",
    "__version__",
]
