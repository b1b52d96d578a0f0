"""Per-domain ontology reconstruction from the schema triples in a dump.

The ontology layer is itself stored as triples: type and property
declarations live under the ``/type`` domain, descriptions hang off
``/common/topic/description``, and property constraints (expected value
type, uniqueness, schema membership) are the property details. This module
gathers those per domain and scores each domain's ontology by how densely
its types and properties are documented and constrained.

Extraction is merge-stable: schemas built over stream partitions and merged
(set union, count addition) equal the single-pass result.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .model import IdPath, Mid, Triple, idpath

TYPE_DECLARATION_PREDICATE = idpath("/type/object/type")
TYPE_MARKER = idpath("/type/type")
PROPERTY_MARKER = idpath("/type/property")
DESCRIPTION_PREDICATE = idpath("/common/topic/description")

# Constraint predicates that count as property details: what a property may
# link to, whether it is single-valued, and which schema owns it.
DEFAULT_DETAIL_PREDICATES = frozenset(
    {
        idpath("/type/property/expected_type"),
        idpath("/type/property/unique"),
        idpath("/type/property/schema"),
    }
)


@dataclass(frozen=True)
class SchemaConfig:
    """Recognition rules for schema-bearing triples.

    The dump does not announce its schema conventions, so all predicate
    spellings are configurable; the defaults follow the ``/type`` domain
    conventions of the public dump.
    """

    schema_domains: frozenset[str] = frozenset({"type"})
    type_declaration_predicate: IdPath = TYPE_DECLARATION_PREDICATE
    type_marker: IdPath = TYPE_MARKER
    property_marker: IdPath = PROPERTY_MARKER
    description_predicate: IdPath = DESCRIPTION_PREDICATE
    detail_predicates: frozenset[IdPath] = DEFAULT_DETAIL_PREDICATES


DEFAULT_SCHEMA_CONFIG = SchemaConfig()


@dataclass
class DomainSchema:
    """Ontology summary for one domain."""

    domain: str
    types: set[IdPath] = field(default_factory=set)
    properties: set[IdPath] = field(default_factory=set)
    description_count: int = 0
    property_detail_count: int = 0

    def merge(self, other: "DomainSchema") -> None:
        if other.domain != self.domain:
            raise ValueError(f"cannot merge schema of {other.domain} into {self.domain}")
        self.types |= other.types
        self.properties |= other.properties
        self.description_count += other.description_count
        self.property_detail_count += other.property_detail_count

    def orphan_properties(self) -> set[IdPath]:
        """Properties whose parent type was never declared (lint, still counted)."""
        return {p for p in self.properties if p.parent_type() not in self.types}


class UndefinedComplexityError(ValueError):
    """The domain has no types and no properties, so its score is undefined."""


def complexity_score(schema: DomainSchema) -> float:
    """Average documentation per schema item.

    (descriptions + details) / (types + properties).
    """
    items = len(schema.types) + len(schema.properties)
    if items == 0:
        raise UndefinedComplexityError(
            f"domain {schema.domain!r} has no types or properties"
        )
    return (schema.description_count + schema.property_detail_count) / items


def _register(
    schemas: dict[str, DomainSchema], subject: IdPath
) -> DomainSchema:
    schema = schemas.get(subject.domain)
    if schema is None:
        schema = DomainSchema(subject.domain)
        schemas[subject.domain] = schema
    if subject.is_type:
        schema.types.add(subject)
    else:
        schema.properties.add(subject)
    return schema


def feed_schema_triple(
    schemas: dict[str, DomainSchema],
    triple: Triple,
    config: SchemaConfig = DEFAULT_SCHEMA_CONFIG,
    counters: Counter | None = None,
) -> None:
    """Fold one triple into the per-domain summaries (see extract_schema)."""
    pred = triple.predicate
    if not isinstance(pred, IdPath):
        return
    subj = triple.subject

    def lint(key: str) -> None:
        if counters is not None:
            counters[key] += 1

    if pred == config.description_predicate:
        if isinstance(subj, IdPath):
            if subj.depth in (2, 3):
                _register(schemas, subj).description_count += 1
            elif subj.is_domain:
                lint("domain-description-skipped")
            else:
                lint("unattributable-description")
        # descriptions of mids are instance data, not schema
        return

    if pred in config.detail_predicates:
        if isinstance(subj, IdPath) and subj.is_property:
            _register(schemas, subj).property_detail_count += 1
        else:
            lint("unattributable-detail")
        return

    if pred == config.type_declaration_predicate:
        if isinstance(subj, IdPath) and subj.depth in (2, 3):
            _register(schemas, subj)
            obj = triple.object
            if (obj == config.type_marker and not subj.is_type) or (
                obj == config.property_marker and not subj.is_property
            ):
                lint("declaration-mismatch")
        elif isinstance(subj, Mid):
            pass  # ordinary instance typing
        else:
            lint("unattributable-declaration")
        return

    if pred.domain in config.schema_domains:
        if isinstance(subj, IdPath):
            if subj.depth in (2, 3):
                _register(schemas, subj)
            else:
                lint("unattributable-schema-subject")
        # mid subjects under /type/* (names, keys, ...) are instance data


def extract_schema(
    triples: Iterable[Triple],
    config: SchemaConfig = DEFAULT_SCHEMA_CONFIG,
    counters: Counter | None = None,
) -> dict[str, DomainSchema]:
    """Attribute every schema-bearing triple to exactly one domain's summary.

    Subjects are recognized by segment count (two segments: type, three:
    property) and cross-checked against explicit declarations when present;
    mismatches and unattributable schema triples are counted as lint, never
    fatal. Triples about mids are knowledge-base content and are ignored.
    """
    schemas: dict[str, DomainSchema] = {}
    for triple in triples:
        feed_schema_triple(schemas, triple, config, counters)
    return schemas


def merge_schemas(
    a: Mapping[str, DomainSchema], b: Mapping[str, DomainSchema]
) -> dict[str, DomainSchema]:
    """Union of two partition extractions; associative with {} as identity."""
    merged: dict[str, DomainSchema] = {}
    for source in (a, b):
        for domain, schema in source.items():
            into = merged.get(domain)
            if into is None:
                merged[domain] = DomainSchema(
                    domain,
                    set(schema.types),
                    set(schema.properties),
                    schema.description_count,
                    schema.property_detail_count,
                )
            else:
                into.merge(schema)
    return merged
