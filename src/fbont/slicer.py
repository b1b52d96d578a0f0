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
from typing import IO, Mapping

from .model import DEFAULT_NAMESPACE, ExternalIri, IdPath, Mid, NodeRef, Triple, reduce_value
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

# Conventional short spellings (vocabulary file + fragment) of the standard
# vocabulary terms whose local names appear as OWL-group slices.
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


@dataclass(frozen=True, order=True, slots=True)
class SliceKey:
    """Identity of one slice: a Freebase domain name or an OWL-term local name."""

    kind: str  # DOMAIN or OWL_TERM
    name: str
    __reduce__ = reduce_value

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

# Slice files one writer keeps open at most, so a worker's open files do not
# grow with the dump's slice count; under a lower soft RLIMIT_NOFILE a writer
# keeps half of that limit instead.
MAX_OPEN_SLICE_FILES = 128


def _open_file_cap() -> int:
    try:
        import resource  # only where slices are written; Unix only
    except ImportError:
        return MAX_OPEN_SLICE_FILES
    soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    if soft == resource.RLIM_INFINITY:
        return MAX_OPEN_SLICE_FILES
    return max(1, min(MAX_OPEN_SLICE_FILES, soft // 2))


class SliceWriter:
    """Materializes slices as N-Triples files, one per slice key.

    Files open lazily under ``directory`` at the path the ``layout`` template
    gives them (``{kind}``/``{name}`` placeholders, default
    ``<kind>/<name>.nt``) and must be closed (use as a context manager). At
    most ``MAX_OPEN_SLICE_FILES`` are open at once: a file is created the
    first time it is written and appended to when it is reopened. A writer
    owns its files exclusively; parallel runs give each worker a private
    directory and concatenate afterwards.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        namespace: str = DEFAULT_NAMESPACE,
        layout: str = DEFAULT_SLICE_LAYOUT,
    ):
        self.directory = os.fspath(directory)
        self.namespace = namespace
        self.layout = layout
        self._files: dict[SliceKey, IO[str]] = {}  # least recently written first
        self._created: set[SliceKey] = set()
        self._cap = _open_file_cap()

    def write(self, key: SliceKey, triple: Triple) -> None:
        self.write_lines(key, [serialize(triple, self.namespace)])

    def write_lines(self, key: SliceKey, lines: list[str]) -> None:
        """Append dump-convention lines (no line ends) to the key's file, in one write."""
        handle = self._files.pop(key, None)
        if handle is None:
            handle = self._open(key)
        self._files[key] = handle
        handle.write("\n".join(lines) + "\n")

    def _open(self, key: SliceKey) -> IO[str]:
        if len(self._files) >= self._cap:
            self._files.pop(next(iter(self._files))).close()
        path = os.path.join(self.directory, slice_relpath(key, self.layout))
        mode = "a" if key in self._created else "w"
        parent = os.path.dirname(path)
        if mode == "w" and parent:
            os.makedirs(parent, exist_ok=True)
        handle = open(path, mode, encoding="utf-8", newline="\n")
        self._created.add(key)
        return handle

    def close(self) -> None:
        for handle in self._files.values():
            handle.close()
        self._files.clear()

    def __enter__(self) -> "SliceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# A slice name is dump text. Percent-encoding "%", "/" and NUL keeps every
# name one file under its kind, never the same file as another name's. An
# encoding longer than a file name allows (255 bytes, less ".nt") is cut to
# a prefix, then "%~" and 32 hex digits of the SHA-256 of the name: no
# shorter encoding holds "%~", so two names share a file only if their
# 128-bit digests collide.
_PATH_ESCAPES = str.maketrans({"%": "%25", "/": "%2F", "\0": "%00"})
_NAME_BYTES = 255 - len(".nt")


def slice_relpath(key: SliceKey, layout: str = DEFAULT_SLICE_LAYOUT) -> str:
    name = key.name.translate(_PATH_ESCAPES)
    encoded = name.encode("utf-8")
    if len(encoded) > _NAME_BYTES:
        import hashlib  # only here: a module-level import raises every command's peak RSS by megabytes

        digest = hashlib.sha256(key.name.encode("utf-8")).hexdigest()[:32]
        prefix = encoded[: _NAME_BYTES - len(digest) - 2].decode("utf-8", "ignore")
        name = f"{prefix}%~{digest}"
    return layout.format(kind=key.kind, name=name)


def count_slice(
    counts: dict[SliceKey, int],
    pred: NodeRef,
    count: int = 1,
    counters: Counter | None = None,
) -> SliceKey | None:
    """Add ``count`` triples of predicate ``pred`` to its slice count.

    Returns the slice key, or None for a mid predicate, whose triples are
    counted as ``mid-predicate`` lint instead.
    """
    if isinstance(pred, Mid):
        if counters is not None:
            counters["mid-predicate"] += count
        return None
    key = classify_predicate(pred)
    counts[key] = counts.get(key, 0) + count
    return key


def merge_counts(
    a: dict[SliceKey, int], b: Mapping[SliceKey, int]
) -> dict[SliceKey, int]:
    """Key-wise addition of ``b`` into ``a``, which is returned; associative
    and commutative with {} as identity."""
    for key, count in b.items():
        a[key] = a.get(key, 0) + count
    return a


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

