"""Predicate-domain slicing and the three-group domain taxonomy.

Every triple belongs to exactly one slice, keyed by its predicate: Freebase
predicates slice by their top-level domain (``/people/*``), external
vocabulary predicates by their local name (``rdf-schema#label``). Slice
counts are a mergeable monoid (key-wise addition), so partition-parallel
runs reduce to exactly the single-threaded result.

Domains fall into three groups: the fixed list of Freebase-implementation
domains, OWL/RDFS vocabulary terms, and everything else as subject matter.
"""

from __future__ import annotations

import enum
import os
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

from .model import ExternalIri, IdPath, Mid, NodeRef, Triple
from .parser import serialize

# Domains implementing Freebase itself rather than describing the world.
DEFAULT_IMPLEMENTATION_DOMAINS = frozenset(
    {
        "common",
        "type",
        "key",
        "kg",
        "base",
        "freebase",
        "dataworld",
        "topic_server",
        "user",
        "pipeline",
        "kp_lw",
    }
)

# Standard vocabulary IRIs whose local names appear as OWL-group slices.
WELL_KNOWN_OWL_IRIS = {
    "type": "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
    "label": "http://www.w3.org/2000/01/rdf-schema#label",
    "domain": "http://www.w3.org/2000/01/rdf-schema#domain",
    "range": "http://www.w3.org/2000/01/rdf-schema#range",
    "inverseOf": "http://www.w3.org/2002/07/owl#inverseOf",
}

# Conventional short spellings for those terms (vocabulary file + fragment).
WELL_KNOWN_OWL_PATTERNS = {
    "type": "rdf-syntax-ns#type",
    "label": "rdf-schema#label",
    "domain": "rdf-schema#domain",
    "range": "rdf-schema#range",
    "inverseOf": "owl#inverseOf",
}


class Group(enum.Enum):
    IMPLEMENTATION = "implementation"
    OWL = "owl"
    SUBJECT_MATTER = "subject_matter"


_GROUP_ORDER = {Group.IMPLEMENTATION: 0, Group.OWL: 1, Group.SUBJECT_MATTER: 2}

DOMAIN = "domain"
OWL_TERM = "owl"


@dataclass(frozen=True, order=True)
class SliceKey:
    """Identity of one slice: a Freebase domain name or an OWL-term local name."""

    kind: str  # DOMAIN or OWL_TERM
    name: str

    def pattern(self) -> str:
        """Human-readable predicate pattern, e.g. ``/people/*`` or ``rdf-schema#label``."""
        if self.kind == DOMAIN:
            return f"/{self.name}/*"
        return WELL_KNOWN_OWL_PATTERNS.get(self.name, f"#{self.name}")


class PredicateKindError(ValueError):
    """A predicate that cannot be sliced (a mid in predicate position)."""


def classify_predicate(pred: NodeRef) -> SliceKey:
    """Total over IdPath and ExternalIri predicates; mids raise."""
    if isinstance(pred, IdPath):
        return SliceKey(DOMAIN, pred.domain)
    if isinstance(pred, ExternalIri):
        return SliceKey(OWL_TERM, pred.local_name)
    raise PredicateKindError(f"mid predicate cannot be sliced: {pred!r}")


@dataclass(frozen=True)
class GroupConfig:
    implementation_domains: frozenset[str] = DEFAULT_IMPLEMENTATION_DOMAINS


DEFAULT_GROUPS = GroupConfig()


def group_for(key: SliceKey, config: GroupConfig = DEFAULT_GROUPS) -> Group:
    if key.kind == OWL_TERM:
        return Group.OWL
    if key.name in config.implementation_domains:
        return Group.IMPLEMENTATION
    return Group.SUBJECT_MATTER


@dataclass(frozen=True)
class SliceStats:
    """One taxonomy row: a slice with its group and share of the whole."""

    key: SliceKey
    group: Group
    triples: int
    total_pct: float  # fraction of the grand total, 0..1
    group_pct: float  # fraction of the group total, 0..1


DEFAULT_SLICE_LAYOUT = os.path.join("{kind}", "{name}.nt")


class SliceWriter:
    """Materializes slices as N-Triples files, one per slice key.

    Files open lazily under ``directory`` at the path the ``layout`` template
    gives them (``{kind}``/``{name}`` placeholders, default
    ``<kind>/<name>.nt``) and must be closed (use as a context manager). A
    writer owns its files exclusively; parallel runs give each worker a
    private directory and concatenate afterwards.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        namespace: str,
        layout: str = DEFAULT_SLICE_LAYOUT,
    ):
        self.directory = os.fspath(directory)
        self.namespace = namespace
        self.layout = layout
        self._files: dict[SliceKey, IO[str]] = {}

    def write(self, key: SliceKey, triple: Triple) -> None:
        handle = self._files.get(key)
        if handle is None:
            path = os.path.join(self.directory, slice_relpath(key, self.layout))
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            handle = open(path, "w", encoding="utf-8", newline="\n")
            self._files[key] = handle
        handle.write(serialize(triple, self.namespace))
        handle.write("\n")

    def close(self) -> None:
        for handle in self._files.values():
            handle.close()
        self._files.clear()

    def __enter__(self) -> "SliceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def slice_relpath(key: SliceKey, layout: str = DEFAULT_SLICE_LAYOUT) -> str:
    return layout.format(kind=key.kind, name=key.name)


def feed_slice_triple(
    counts: dict[SliceKey, int],
    triple: Triple,
    writer: SliceWriter | None = None,
    counters: Counter | None = None,
) -> SliceKey | None:
    """Fold one triple into its slice count (see slice_stream).

    Returns the triple's slice key, or None for a mid-predicate triple.
    """
    pred = triple.predicate
    if isinstance(pred, Mid):
        if counters is not None:
            counters["mid-predicate"] += 1
        return None
    key = classify_predicate(pred)
    counts[key] = counts.get(key, 0) + 1
    if writer is not None:
        writer.write(key, triple)
    return key


def slice_stream(
    triples: Iterable[Triple],
    writer: SliceWriter | None = None,
    counters: Counter | None = None,
) -> dict[SliceKey, int]:
    """Count (and optionally materialize) every triple into its slice.

    Mid-predicate triples are a data error: counted under the
    ``mid-predicate`` lint key and excluded from every slice.
    """
    counts: dict[SliceKey, int] = {}
    for triple in triples:
        feed_slice_triple(counts, triple, writer, counters)
    return counts


def merge_counts(
    a: Mapping[SliceKey, int], b: Mapping[SliceKey, int]
) -> dict[SliceKey, int]:
    """Key-wise addition; associative and commutative with {} as identity."""
    merged = dict(a)
    for key, count in b.items():
        merged[key] = merged.get(key, 0) + count
    return merged


def build_taxonomy(
    counts: Mapping[SliceKey, int],
    config: GroupConfig = DEFAULT_GROUPS,
) -> list[SliceStats]:
    """Assign groups and percentages, ordered by group then descending triples."""
    grand_total = sum(counts.values())
    group_totals: dict[Group, int] = {}
    grouped: dict[SliceKey, Group] = {}
    for key, count in counts.items():
        group = group_for(key, config)
        grouped[key] = group
        group_totals[group] = group_totals.get(group, 0) + count
    rows = [
        SliceStats(
            key=key,
            group=grouped[key],
            triples=count,
            total_pct=count / grand_total,
            group_pct=count / group_totals[grouped[key]],
        )
        for key, count in counts.items()
    ]
    rows.sort(key=lambda r: (_GROUP_ORDER[r.group], -r.triples, r.key))
    return rows

