"""Identifier and triple data model for Freebase-style RDF dumps.

The public dump writes node identifiers as namespace IRIs with dotted local
names (``http://rdf.freebase.com/ns/people.person.date_of_birth``). Everything
here is normalized at parse time into the slash notation the Freebase schema
uses for itself (``/people/person/date_of_birth``); the raw IRI stays
recoverable through :func:`to_iri` with a configurable namespace prefix.

All types are immutable values and all functions are pure, so they are safe
to share across any number of worker processes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

DEFAULT_NAMESPACE = "http://rdf.freebase.com/ns/"

_STANDARD_TOKEN = re.compile(r"[0-9a-z_]+\Z")


@dataclass(frozen=True, order=True)
class Mid:
    """A machine ID, canonically rendered as ``/m/`` + suffix.

    Canonical suffixes use only ``[0-9a-z_]``; anything else (user-era keys,
    mixed case) is accepted and reported through :attr:`is_standard` so
    callers can lint rather than reject.
    """

    suffix: str

    def __post_init__(self) -> None:
        if not self.suffix:
            raise ValueError("mid suffix must be non-empty")
        if "/" in self.suffix or "." in self.suffix:
            raise ValueError(f"mid suffix may not contain separators: {self.suffix!r}")

    @property
    def is_standard(self) -> bool:
        return _STANDARD_TOKEN.match(self.suffix) is not None


@dataclass(frozen=True, order=True)
class IdPath:
    """Slash-notation schema identifier: domain, type, or property.

    One segment names a domain (``/people``), two a type (``/people/person``),
    three a property (``/people/person/date_of_birth``). Deeper paths are
    preserved but reported as nonstandard. A two-segment path starting with
    ``m`` would render identically to a :class:`Mid`, so that form is reserved
    for mids and never produced by the normalizer.
    """

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("id path needs at least one segment")
        for seg in self.segments:
            if not seg:
                raise ValueError("id path segments must be non-empty")
            if "/" in seg or "." in seg:
                raise ValueError(f"id path segment may not contain separators: {seg!r}")

    @property
    def domain(self) -> str:
        return self.segments[0]

    @property
    def depth(self) -> int:
        return len(self.segments)

    @property
    def is_domain(self) -> bool:
        return len(self.segments) == 1

    @property
    def is_type(self) -> bool:
        return len(self.segments) == 2

    @property
    def is_property(self) -> bool:
        return len(self.segments) == 3

    @property
    def is_standard(self) -> bool:
        """True for 1-3 segments drawn from the canonical [0-9a-z_] alphabet."""
        return len(self.segments) <= 3 and all(
            _STANDARD_TOKEN.match(seg) for seg in self.segments
        )

    def parent_type(self) -> IdPath:
        """The two-segment type this property belongs to."""
        if len(self.segments) < 2:
            raise ValueError(f"/{self.segments[0]} has no parent type")
        return IdPath(self.segments[:2])


def idpath(text: str) -> IdPath:
    """Build an IdPath from slash notation, e.g. ``idpath('/people/person')``."""
    return IdPath(tuple(text.strip("/").split("/")))


@dataclass(frozen=True, order=True)
class ExternalIri:
    """An identifier outside the Freebase namespace, kept verbatim.

    Typically RDFS/OWL vocabulary such as ``rdf-schema#label``.
    """

    iri: str

    def __post_init__(self) -> None:
        if not self.iri:
            raise ValueError("iri must be non-empty")

    @property
    def local_name(self) -> str:
        """The fragment after the last ``#``, or failing that the last ``/``."""
        if "#" in self.iri:
            return self.iri.rsplit("#", 1)[1]
        return self.iri.rstrip("/").rsplit("/", 1)[-1]


NodeRef = Mid | IdPath | ExternalIri


@dataclass(frozen=True)
class Literal:
    """An RDF literal: lexical form plus at most one of language tag / datatype."""

    lexical: str
    language: str | None = None
    datatype: ExternalIri | None = None

    def __post_init__(self) -> None:
        if self.language is not None and self.datatype is not None:
            raise ValueError("a literal cannot carry both a language tag and a datatype")


@dataclass(frozen=True)
class Triple:
    """One parsed RDF statement. Predicates and subjects are never literals."""

    subject: NodeRef
    predicate: NodeRef
    object: NodeRef | Literal

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise ValueError("literal in subject position")
        if isinstance(self.predicate, Literal):
            raise ValueError("literal in predicate position")


def normalize_iri(iri: str, namespace: str = DEFAULT_NAMESPACE) -> NodeRef:
    """Map a dump IRI onto a NodeRef. Total: anything unrecognized stays external.

    Under the configured namespace, ``m.<suffix>`` local names become mids and
    dotted local names become slash paths; every other IRI passes through
    verbatim as :class:`ExternalIri`.
    """
    if not iri:
        raise ValueError("iri must be non-empty")
    if iri.startswith(namespace) and len(iri) > len(namespace):
        local = iri[len(namespace):]
        try:
            if local.startswith("m.") and "." not in local[2:]:
                return Mid(local[2:])
            return IdPath(tuple(local.split(".")))
        except ValueError:
            return ExternalIri(iri)
    return ExternalIri(iri)


def render(ref: NodeRef) -> str:
    """Canonical slash-notation string for mids and paths; verbatim IRI otherwise."""
    if isinstance(ref, Mid):
        return "/m/" + ref.suffix
    if isinstance(ref, IdPath):
        return "/" + "/".join(ref.segments)
    return ref.iri


def parse_ref(text: str) -> NodeRef:
    """Inverse of :func:`render`. Raises ValueError outside render's image."""
    if not text:
        raise ValueError("empty node reference")
    if text.startswith("/"):
        if text.startswith("/m/") and "/" not in text[3:]:
            return Mid(text[3:])
        return IdPath(tuple(seg for seg in text[1:].split("/")))
    return ExternalIri(text)


def to_iri(ref: NodeRef, namespace: str = DEFAULT_NAMESPACE) -> str:
    """Recover the dump-form IRI for a NodeRef under the given namespace prefix."""
    if isinstance(ref, Mid):
        return namespace + "m." + ref.suffix
    if isinstance(ref, IdPath):
        return namespace + ".".join(ref.segments)
    return ref.iri
