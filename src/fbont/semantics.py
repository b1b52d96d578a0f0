"""Freebase graph semantics: merges, value notations, type incompatibility.

Duplicate objects are merged by pointing the duplicate at the node that
subsumes it (``/dataworld/gardening_hint/replaced_by``); resolving a mid's
rendered id ``/m/<suffix>`` follows that relation to its terminus.
``has_value`` / ``has_no_value`` notations mark known-but-unstated and
definitely-absent values. Type incompatibility rules flag objects asserting
mutually exclusive types, the reporting hook for conflated objects to split.
"""

from __future__ import annotations

import enum
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, count, groupby
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence, TextIO

from .model import IdPath, Mid, Triple, idpath, intern_path, parse_ref, reduce_value, render
from .report import _csv_lines

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
    """A replaced-by cycle; ``members`` are its rendered ids, sorted."""

    def __init__(self, members: list[str]):
        self.members = sorted(members)
        super().__init__(f"replaced-by cycle: {', '.join(self.members)}")


@dataclass
class MergeMap:
    """Directed duplicate-to-replacement edges over mids' rendered ids.

    Under their shared ``/m/`` prefix the ids sort as the suffixes do. A
    later conflicting edge for an already-seen duplicate wins and is
    counted. ``firsts`` keeps a duplicate's first replacement only while its
    last one differs, so a later map's first edge is counted against the
    earlier map's last, as a single pass counts it. ``merge`` folds a later
    map into this one, not a copy. Resolution caches its results (path
    compression) in the map, as ``merge_tsv_rows`` relies on, until an edge
    is added or merged in.
    """

    edges: dict[str, str] = field(default_factory=dict)
    conflicts: int = 0
    firsts: dict[str, str] = field(default_factory=dict)
    _cache: dict[str, str] = field(default_factory=dict, repr=False, compare=False)

    def add_edge(self, duplicate: str, replacement: str) -> None:
        existing = self.edges.get(duplicate)
        if existing is not None and existing != replacement:
            self.conflicts += 1
            self._set_last(duplicate, self.firsts.get(duplicate, existing), replacement)
        self.edges[duplicate] = replacement
        self._cache.clear()

    def _set_last(self, duplicate: str, first: str, last: str) -> None:
        if first != last:
            self.firsts[duplicate] = first
        else:
            self.firsts.pop(duplicate, None)

    def merge(self, later: "MergeMap") -> "MergeMap":
        """Fold in a later partition's edges (later edges win) and return this map."""
        self.conflicts += later.conflicts
        for duplicate, replacement in later.edges.items():
            later_first = later.firsts.get(duplicate, replacement)
            existing = self.edges.get(duplicate)
            if existing is None:
                first = later_first
            else:
                first = self.firsts.get(duplicate, existing)
                self.conflicts += existing != later_first
            self._set_last(duplicate, first, replacement)
            self.edges[duplicate] = replacement
        self._cache.clear()
        return self

    def resolve(self, mid: str, policy: CyclePolicy = CyclePolicy.FAIL) -> str:
        """Follow edges from a rendered id to the chain's terminal one.

        Mids with no edge resolve to themselves. Visited nodes are cached, so
        repeated resolution over long chains is amortized near-constant.
        """
        cache = self._cache
        cached = cache.get(mid)
        if cached is not None:
            return cached
        path: list[str] = []
        position: dict[str, int] = {}
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
                terminal = min(members)
                break
            position[current] = len(path)
            path.append(current)
            current = nxt
        for node in path:
            cache[node] = terminal
        return terminal


def feed_merge_edge(
    merge_map: MergeMap,
    triple: Triple,
    counters: Counter | None = None,
) -> None:
    """Fold one triple's replaced-by edge (if any) into the map, as two rendered ids."""
    if triple.predicate != REPLACED_BY_PREDICATE:
        return
    if isinstance(triple.subject, Mid) and isinstance(triple.object, Mid):
        merge_map.add_edge(render(triple.subject), render(triple.object))
    elif counters is not None:
        counters["replaced-by-shape"] += 1


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
    input triple yields exactly one output triple. Mids resolve by rendered id.
    """
    report = RewriteReport()
    for triple in triples:
        report.triples_seen += 1
        subject = triple.subject
        obj = triple.object
        if isinstance(subject, Mid):
            resolved = merge_map.resolve(rendered := render(subject), policy)
            if resolved != rendered:
                report.subjects_rewritten += 1
                subject = parse_ref(resolved)
        if isinstance(obj, Mid):
            resolved = merge_map.resolve(rendered := render(obj), policy)
            if resolved != rendered:
                report.objects_rewritten += 1
                obj = parse_ref(resolved)
        if subject is triple.subject and obj is triple.object:
            sink(triple)
        else:
            sink(Triple(subject, triple.predicate, obj))
    return report


class NotationKind(enum.Enum):
    HAS_VALUE = "has_value"
    HAS_NO_VALUE = "has_no_value"


@dataclass(frozen=True, slots=True)
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
    __reduce__ = reduce_value


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
        notations.append(ValueNotation(intern_path(subj), obj, kind))
    elif (
        accept_reversed
        and isinstance(subj, Mid)
        and isinstance(obj, IdPath)
        and obj.is_property
    ):
        notations.append(ValueNotation(intern_path(obj), subj, kind, orientation="reversed"))
    elif counters is not None:
        counters["valuenotation-shape"] += 1


@dataclass(frozen=True, order=True, slots=True)
class IncompatibilityRule:
    """An unordered pair of mutually exclusive types."""

    type_a: IdPath
    type_b: IdPath
    __reduce__ = reduce_value

    def __post_init__(self) -> None:
        if not (self.type_a.is_type and self.type_b.is_type):
            raise ValueError("incompatibility rules pair two-segment types")
        if self.type_a == self.type_b:
            raise ValueError("a type cannot be incompatible with itself")
        if self.type_b < self.type_a:  # normalize so rule(a,b) == rule(b,a)
            low, high = self.type_b, self.type_a
            object.__setattr__(self, "type_a", low)
            object.__setattr__(self, "type_b", high)


@dataclass(frozen=True, order=True, slots=True)
class Violation:
    mid: Mid
    type_a: IdPath
    type_b: IdPath
    __reduce__ = reduce_value


def match_type_assertion(triple: Triple) -> tuple[Mid, IdPath] | None:
    """The (object mid, asserted type) pair a typing triple states, or None."""
    if (
        triple.predicate == TYPE_ASSERTION_PREDICATE
        and isinstance(triple.subject, Mid)
        and isinstance(triple.object, IdPath)
        and triple.object.is_type
    ):
        return triple.subject, triple.object
    return None


def type_bits(rules: Iterable[IncompatibilityRule]) -> dict[IdPath, int]:
    """Each type the rules name to its mask bit: ``1 << i`` for the i-th in IdPath order.

    Rule order is then the order of the rules' (low bit, high bit) pairs.
    """
    named = sorted({typ for rule in rules for typ in (rule.type_a, rule.type_b)})
    return {typ: 1 << i for i, typ in enumerate(named)}


def feed_type_mask(type_masks: dict[str, int], bits: Mapping[IdPath, int], triple: Triple) -> None:
    """OR the bit of the type one typing triple asserts into its mid's mask, if ``bits`` has one.

    ``bits`` comes from ``type_bits``, so only two-segment types have a bit.
    """
    if triple.predicate != TYPE_ASSERTION_PREDICATE or not isinstance(triple.subject, Mid):
        return
    bit = bits.get(triple.object)  # type: ignore[arg-type]
    if bit is not None:
        suffix = triple.subject.suffix
        type_masks[suffix] = type_masks.get(suffix, 0) | bit


# A mask run is one file of (suffix, mask) records in suffix order, each
# suffix once: the two byte lengths, then the suffix as UTF-8 and the mask
# as little-endian bytes.
_RECORD = struct.Struct("<II")
# Numbers this process's runs, so two folds sharing a directory, or two
# starts of one fold, never name a run alike.
_RUN_SERIAL = count()


def mask_run_path(directory: str, prefix: str) -> str:
    """A run or shard path under ``directory`` that no other of this process, or of another live one, takes."""
    return os.path.join(directory, f"{prefix}-{os.getpid()}-{next(_RUN_SERIAL)}.run")


def write_mask_run(path: str, records: Iterable[tuple[str, int]]) -> None:
    """Write (suffix, mask) records, already in suffix order, as one new mask run."""
    pack = _RECORD.pack
    with open(path, "xb") as handle:
        write = handle.write
        for suffix, mask in records:
            key = suffix.encode("utf-8", "surrogatepass")
            width = (mask.bit_length() + 7) // 8
            write(pack(len(key), width) + key + mask.to_bytes(width, "little"))


def read_mask_run(path: str) -> Iterator[tuple[str, int]]:
    """The (suffix, mask) records of one mask run, in file order; the file is open until the last."""
    size, unpack = _RECORD.size, _RECORD.unpack
    with open(path, "rb") as handle:
        read = handle.read
        while head := read(size):
            length, width = unpack(head)
            body = read(length + width)
            yield body[:length].decode("utf-8", "surrogatepass"), int.from_bytes(body[length:], "little")


def _or_runs(runs: Sequence[str]) -> Iterator[tuple[str, int]]:
    """Each suffix of the runs once, in str order, with the OR of its masks."""
    import heapq  # only where runs are merged, so no other command's peak RSS pays for it

    for suffix, group in groupby(heapq.merge(*map(read_mask_run, runs)), itemgetter(0)):
        mask = 0
        for _, bits in group:
            mask |= bits
        yield suffix, mask


def merge_mask_runs(runs: Sequence[str], directory: str, open_runs: int) -> Iterator[tuple[str, int]]:
    """Stream every suffix of the runs once, in str order, with the OR of its masks.

    At most ``open_runs`` runs (three at least) are open at once: while
    there are more, ``open_runs - 1`` of them are merged into one new run
    under ``directory``, which is removed once it is merged in turn. The
    given runs are only read.
    """
    fan_in = max(3, open_runs) - 1
    runs, made = list(runs), []
    try:
        while len(runs) > fan_in + 1:
            group, runs = runs[:fan_in], runs[fan_in:]
            path = mask_run_path(directory, "merged")
            made.append(path)
            write_mask_run(path, _or_runs(group))
            runs.append(path)
            for done in group:
                if done in made:
                    os.remove(done)
        yield from _or_runs(runs)
    finally:
        for path in made:
            if os.path.exists(path):
                os.remove(path)


def mask_violations(type_masks: Iterable[tuple[str, int]], rules: Collection[IncompatibilityRule]) -> Iterator[Violation]:
    """Yield every (object, rule) pair whose two type bits the object's mask holds.

    ``type_masks`` gives each mid suffix once, in str order, with the OR of
    the ``type_bits(rules)`` of the types it asserts, so the output is
    ordered by mid, then rule. A mask with fewer than two bits costs one
    test, and a mid with k named types costs k bit extractions and k(k-1)/2
    pair lookups.
    """
    bits = type_bits(rules)
    named = {bit: typ for typ, bit in bits.items()}
    pairs = {(bits[rule.type_a], bits[rule.type_b]) for rule in rules}
    for suffix, mask in type_masks:
        if not mask & (mask - 1):
            continue
        held = []  # the mask's bits, low to high
        while mask:
            low = mask & -mask
            held.append(low)
            mask ^= low
        mid = Mid(suffix)
        for a, b in combinations(held, 2):
            if (a, b) in pairs:
                yield Violation(mid, named[a], named[b])


def check_incompatibilities(
    assertions: Iterable[tuple[Mid, IdPath]],
    rules: Iterable[IncompatibilityRule],
) -> list[Violation]:
    """Every (object, rule) pair where the object asserts both types.

    Output is deterministically ordered by mid, then rule. Adding a rule can
    only add violations, never remove one. The assertions are folded into
    one type mask per mid suffix and checked, in suffix order, by
    ``mask_violations``.
    """
    rules = set(rules)
    bits = type_bits(rules)
    type_masks: dict[str, int] = {}
    for mid, asserted in assertions:
        bit = bits.get(asserted)
        if bit is not None:
            type_masks[mid.suffix] = type_masks.get(mid.suffix, 0) | bit
    return list(mask_violations(sorted(type_masks.items()), rules))


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


def merge_tsv_rows(merge_map: MergeMap, policy: CyclePolicy = CyclePolicy.FAIL) -> Iterator[str]:
    """The resolved canonical mapping as duplicate/canonical TSV rows, by duplicate.

    Every duplicate is resolved here, into the map's own cache, so a
    MergeCycleError is raised before the first row. The rows come from
    ``report``'s row writer, which quotes a mid holding a ``\\r`` or ``"``.
    """
    for duplicate in merge_map.edges:
        merge_map.resolve(duplicate, policy)
    terminal = merge_map._cache
    return _csv_lines(((dup, terminal[dup]) for dup in sorted(merge_map.edges)), "\t")


def write_merge_tsv(merge_map: MergeMap, stream: TextIO, policy: CyclePolicy = CyclePolicy.FAIL) -> int:
    """Export the resolved canonical mapping as duplicate/canonical TSV rows; the row count."""
    stream.writelines(merge_tsv_rows(merge_map, policy))
    return len(merge_map.edges)
