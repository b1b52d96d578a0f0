"""Freebase graph semantics: merges, value notations, type incompatibility.

Duplicate objects are merged by pointing the duplicate at the node that
subsumes it (``/dataworld/gardening_hint/replaced_by``); resolving a mid
follows that relation to its terminus. ``has_value`` / ``has_no_value``
notations mark known-but-unstated and definitely-absent values. Type
incompatibility rules flag objects asserting mutually exclusive types,
which is also the reporting hook for conflated objects needing a split.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TextIO

from .model import IdPath, Mid, Triple, idpath, parse_ref, render

REPLACED_BY_PREDICATE = idpath("/dataworld/gardening_hint/replaced_by")
HAS_VALUE_PREDICATE = idpath("/freebase/valuenotation/has_value")
HAS_NO_VALUE_PREDICATE = idpath("/freebase/valuenotation/has_no_value")
TYPE_ASSERTION_PREDICATE = idpath("/type/object/type")


class CyclePolicy(enum.Enum):
    """What to do when replaced-by edges form a cycle.

    FAIL is the default: cycles mean corrupt data. SMALLEST canonicalizes
    every cycle member to its lexicographically smallest mid so resilience
    runs can proceed.
    """

    FAIL = "fail"
    SMALLEST = "smallest"


class MergeCycleError(ValueError):
    def __init__(self, members: list[Mid]):
        rendered = ", ".join(render(m) for m in sorted(members))
        super().__init__(f"replaced-by cycle: {rendered}")
        self.members = sorted(members)


@dataclass
class MergeMap:
    """Directed duplicate-to-replacement edges over mids.

    A later conflicting edge for an already-seen duplicate wins and is
    counted. Resolution caches its results (path compression), so resolve a
    shared map fully (``resolve_all``) before handing it to workers.
    """

    edges: dict[Mid, Mid] = field(default_factory=dict)
    conflicts: int = 0
    cycles_resolved: int = 0
    _cache: dict[Mid, Mid] = field(default_factory=dict, repr=False, compare=False)

    def add_edge(self, duplicate: Mid, replacement: Mid) -> None:
        existing = self.edges.get(duplicate)
        if existing is not None and existing != replacement:
            self.conflicts += 1
        self.edges[duplicate] = replacement
        self._cache.clear()

    def merge(self, later: "MergeMap") -> "MergeMap":
        """Combine with edges from a later partition (later edges win)."""
        merged = MergeMap(dict(self.edges), self.conflicts + later.conflicts)
        for duplicate, replacement in later.edges.items():
            existing = merged.edges.get(duplicate)
            if existing is not None and existing != replacement:
                merged.conflicts += 1
            merged.edges[duplicate] = replacement
        return merged

    def resolve(self, mid: Mid, policy: CyclePolicy = CyclePolicy.FAIL) -> Mid:
        """Follow edges to the chain's terminal mid.

        Mids with no edge resolve to themselves. Visited nodes are cached, so
        repeated resolution over long chains is amortized near-constant.
        """
        cache = self._cache
        cached = cache.get(mid)
        if cached is not None:
            return cached
        path: list[Mid] = []
        position: dict[Mid, int] = {}
        current = mid
        while True:
            cached = cache.get(current)
            if cached is not None:
                terminal = cached
                break
            nxt = self.edges.get(current)
            if nxt is None:
                terminal = current
                break
            if current in position:
                members = path[position[current]:]
                if policy is CyclePolicy.FAIL:
                    raise MergeCycleError(members)
                terminal = min(members, key=lambda m: m.suffix)
                self.cycles_resolved += 1
                break
            position[current] = len(path)
            path.append(current)
            current = nxt
        for node in path:
            cache[node] = terminal
        return terminal

    def resolve_all(self, policy: CyclePolicy = CyclePolicy.FAIL) -> dict[Mid, Mid]:
        """Canonical mapping for every known duplicate; immutable and shareable."""
        return {duplicate: self.resolve(duplicate, policy) for duplicate in self.edges}


def feed_merge_edge(
    merge_map: MergeMap,
    triple: Triple,
    predicate: IdPath = REPLACED_BY_PREDICATE,
    counters: Counter | None = None,
) -> None:
    """Fold one triple's replaced-by edge (if any) into the map."""
    if triple.predicate != predicate:
        return
    if isinstance(triple.subject, Mid) and isinstance(triple.object, Mid):
        merge_map.add_edge(triple.subject, triple.object)
    elif counters is not None:
        counters["replaced-by-shape"] += 1


def build_merge_map(
    triples: Iterable[Triple],
    predicate: IdPath = REPLACED_BY_PREDICATE,
    counters: Counter | None = None,
) -> MergeMap:
    """Collect duplicate-to-replacement edges from a stream.

    Replaced-by triples whose endpoints are not both mids are skipped and
    counted under the ``replaced-by-shape`` lint key.
    """
    merge_map = MergeMap()
    for triple in triples:
        feed_merge_edge(merge_map, triple, predicate, counters)
    return merge_map


@dataclass
class RewriteReport:
    triples_seen: int = 0
    subjects_rewritten: int = 0
    objects_rewritten: int = 0


def rewrite_canonical(
    triples: Iterable[Triple],
    merge_map: MergeMap,
    sink: Callable[[Triple], None],
    policy: CyclePolicy = CyclePolicy.FAIL,
) -> RewriteReport:
    """Replace every subject/object mid with its canonical terminus.

    Predicates are never touched. Triple count is preserved exactly: each
    input triple yields exactly one output triple.
    """
    report = RewriteReport()
    for triple in triples:
        report.triples_seen += 1
        subject = triple.subject
        obj = triple.object
        if isinstance(subject, Mid):
            resolved = merge_map.resolve(subject, policy)
            if resolved != subject:
                report.subjects_rewritten += 1
                subject = resolved
        if isinstance(obj, Mid):
            resolved = merge_map.resolve(obj, policy)
            if resolved != obj:
                report.objects_rewritten += 1
                obj = resolved
        if subject is triple.subject and obj is triple.object:
            sink(triple)
        else:
            sink(Triple(subject, triple.predicate, obj))
    return report


class NotationKind(enum.Enum):
    HAS_VALUE = "has_value"
    HAS_NO_VALUE = "has_no_value"


@dataclass(frozen=True)
class ValueNotation:
    """One has-value / has-no-value statement: a property paired with an object.

    The dump states these with the property as subject ("date of birth - has
    value - Plato"); ``orientation`` records which way the source triple ran
    when reversed matching is enabled.
    """

    property: IdPath
    object: Mid
    kind: NotationKind
    orientation: str = "forward"


_NOTATION_KINDS = {
    HAS_VALUE_PREDICATE: NotationKind.HAS_VALUE,
    HAS_NO_VALUE_PREDICATE: NotationKind.HAS_NO_VALUE,
}


def feed_value_notation(
    notations: list[ValueNotation],
    triple: Triple,
    accept_reversed: bool = False,
    counters: Counter | None = None,
) -> None:
    """Append the ValueNotation stated by one triple, if it states one."""
    kind = _NOTATION_KINDS.get(triple.predicate)  # type: ignore[arg-type]
    if kind is None:
        return
    subj, obj = triple.subject, triple.object
    if isinstance(subj, IdPath) and subj.is_property and isinstance(obj, Mid):
        notations.append(ValueNotation(subj, obj, kind))
    elif (
        accept_reversed
        and isinstance(subj, Mid)
        and isinstance(obj, IdPath)
        and obj.is_property
    ):
        notations.append(ValueNotation(obj, subj, kind, orientation="reversed"))
    elif counters is not None:
        counters["valuenotation-shape"] += 1


def extract_value_notations(
    triples: Iterable[Triple],
    accept_reversed: bool = False,
    counters: Counter | None = None,
) -> list[ValueNotation]:
    """One ValueNotation per conforming notation triple, in stream order.

    Notation triples with unexpected endpoint kinds are skipped and counted
    under ``valuenotation-shape``.
    """
    notations: list[ValueNotation] = []
    for triple in triples:
        feed_value_notation(notations, triple, accept_reversed, counters)
    return notations


@dataclass(frozen=True, order=True)
class IncompatibilityRule:
    """An unordered pair of mutually exclusive types."""

    type_a: IdPath
    type_b: IdPath

    def __post_init__(self) -> None:
        if not (self.type_a.is_type and self.type_b.is_type):
            raise ValueError("incompatibility rules pair two-segment types")
        if self.type_a == self.type_b:
            raise ValueError("a type cannot be incompatible with itself")
        if self.type_b < self.type_a:  # normalize so rule(a,b) == rule(b,a)
            low, high = self.type_b, self.type_a
            object.__setattr__(self, "type_a", low)
            object.__setattr__(self, "type_b", high)


@dataclass(frozen=True, order=True)
class Violation:
    mid: Mid
    type_a: IdPath
    type_b: IdPath


def match_type_assertion(
    triple: Triple,
    predicate: IdPath = TYPE_ASSERTION_PREDICATE,
) -> tuple[Mid, IdPath] | None:
    """The (object mid, asserted type) pair a typing triple states, or None."""
    if (
        triple.predicate == predicate
        and isinstance(triple.subject, Mid)
        and isinstance(triple.object, IdPath)
        and triple.object.is_type
    ):
        return triple.subject, triple.object
    return None


def iter_type_assertions(
    triples: Iterable[Triple],
    predicate: IdPath = TYPE_ASSERTION_PREDICATE,
) -> Iterator[tuple[Mid, IdPath]]:
    """(object mid, asserted type) pairs from instance-typing triples."""
    for triple in triples:
        assertion = match_type_assertion(triple, predicate)
        if assertion is not None:
            yield assertion


def check_incompatibilities(
    assertions: Iterable[tuple[Mid, IdPath]],
    rules: Iterable[IncompatibilityRule],
) -> list[Violation]:
    """Every (object, rule) pair where the object asserts both types.

    Output is deterministically ordered by mid, then rule. Adding a rule can
    only add violations, never remove one.
    """
    types_by_mid: dict[Mid, set[IdPath]] = {}
    for mid, asserted in assertions:
        types_by_mid.setdefault(mid, set()).add(asserted)
    rule_list = sorted(set(rules))
    violations: list[Violation] = []
    for mid in sorted(types_by_mid):
        asserted = types_by_mid[mid]
        for rule in rule_list:
            if rule.type_a in asserted and rule.type_b in asserted:
                violations.append(Violation(mid, rule.type_a, rule.type_b))
    return violations


def load_rules(stream: TextIO) -> frozenset[IncompatibilityRule]:
    """Read incompatibility rules: two slash-notation types per line.

    Blank lines and ``#`` comments are skipped; pairs may be separated by
    any whitespace.
    """
    rules = set()
    for line_number, line in enumerate(stream, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ValueError(f"rules line {line_number}: expected two types, got {text!r}")
        a, b = (parse_ref(p) for p in parts)
        if not (isinstance(a, IdPath) and isinstance(b, IdPath)):
            raise ValueError(f"rules line {line_number}: not type paths: {text!r}")
        rules.add(IncompatibilityRule(a, b))
    return frozenset(rules)


def match_rule(triple: Triple, predicate: IdPath) -> IncompatibilityRule | None:
    """The incompatibility rule a dump triple states, or None."""
    if (
        triple.predicate == predicate
        and isinstance(triple.subject, IdPath)
        and triple.subject.is_type
        and isinstance(triple.object, IdPath)
        and triple.object.is_type
        and triple.subject != triple.object
    ):
        return IncompatibilityRule(triple.subject, triple.object)
    return None


def write_merge_tsv(merge_map: MergeMap, stream: TextIO, policy: CyclePolicy = CyclePolicy.FAIL) -> int:
    """Export the resolved canonical mapping as duplicate/canonical TSV rows."""
    resolved = merge_map.resolve_all(policy)
    count = 0
    for duplicate in sorted(resolved):
        stream.write(f"{render(duplicate)}\t{render(resolved[duplicate])}\n")
        count += 1
    return count


def read_merge_tsv(stream: TextIO) -> MergeMap:
    merge_map = MergeMap()
    for line_number, line in enumerate(stream, 1):
        text = line.rstrip("\n")
        if not text:
            continue
        parts = text.split("\t")
        if len(parts) != 2:
            raise ValueError(f"merge tsv line {line_number}: expected two columns")
        duplicate, canonical = (parse_ref(p) for p in parts)
        if not (isinstance(duplicate, Mid) and isinstance(canonical, Mid)):
            raise ValueError(f"merge tsv line {line_number}: not mids: {text!r}")
        merge_map.add_edge(duplicate, canonical)
    return merge_map
