"""
Merges, value notations, and incompatibility
============================================

Three pieces of graph semantics beyond raw triples:

- duplicate objects point at their replacement through
  /dataworld/gardening_hint/replaced_by; resolving follows chains to the
  surviving node, and rewriting canonicalizes a whole stream;
- /freebase/valuenotation/has_value and has_no_value state that a property
  has an unknown value or definitely none;
- incompatibility rules flag objects asserting mutually exclusive types
  (the reporting hook for conflated objects that need splitting).

The demo writes miniature dumps under demos/out/ and runs the semantics fold
of ``fbont semantics`` over them.
"""

import csv
import os
import shutil

from fbont import (
    CyclePolicy,
    IncompatibilityRule,
    ParseReport,
    idpath,
    iter_triples,
    render,
    rewrite_canonical,
    serialize,
)
from fbont.pipeline import SemanticsFold, concatenate_shards, run_folds

NS = "http://rdf.freebase.com/ns/"
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def obj(s, p, o):
    return f"<{NS}{s}>\t<{NS}{p}>\t<{NS}{o}>\t."


def write_dump(name, lines):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))
    return path


lines = [
    # a merge chain: xyz123 was merged into mid456, which was merged into abc123
    obj("m.xyz123", "dataworld.gardening_hint.replaced_by", "m.mid456"),
    obj("m.mid456", "dataworld.gardening_hint.replaced_by", "m.abc123"),
    # facts still attached to the duplicates
    obj("m.xyz123", "people.person.place_of_birth", "m.hawaii"),
    obj("m.spouse", "people.person.spouse_s", "m.mid456"),
    # a property whose value exists but is unknown, one definitely absent
    obj("people.person.date_of_birth", "freebase.valuenotation.has_value", "m.plato"),
    obj("people.person.date_of_death", "freebase.valuenotation.has_no_value", "m.immortal"),
    # one object asserting two types that exclude each other
    obj("m.terminator", "type.object.type", "film.film"),
    obj("m.terminator", "type.object.type", "film.film_series"),
]

dump = write_dump("semantics.nt", lines)
# The fold writes the value notations as rows of one shard directory per
# partition under its run_root.
# The rule is known before the parse, so the fold keeps, per mid, a bitmask
# of only the types it names. It writes those masks as sorted runs under its
# run_root too, and its violations() merges them as a stream and decodes them.
rule = IncompatibilityRule(idpath("/film/film"), idpath("/film/film_series"))
run_root = os.path.join(OUT_DIR, ".semantics-runs")
fold = SemanticsFold(run_root, known_rules=frozenset({rule}))
_, merged = run_folds([dump], [fold])

merge_map = merged["merge_map"]
print("merge edges:", merge_map.edges)  # rendered ids
print("resolve(/m/xyz123) ->", merge_map.resolve("/m/xyz123"))

rewritten = []
report = rewrite_canonical(iter_triples(dump, ParseReport()), merge_map, rewritten.append)
print(f"rewrote {report.subjects_rewritten} subjects, {report.objects_rewritten} objects:")
for triple in rewritten[2:4]:
    print("  ", serialize(triple))

print()
concatenate_shards(merged["notations"], OUT_DIR)  # the shard directories, joined and removed
with open(os.path.join(OUT_DIR, "valuenotes.csv"), encoding="utf-8", newline="") as handle:
    for prop, mid, kind, _ in csv.reader(handle):
        print(f"{prop} - {kind} - {mid}")

print()
violations = fold.violations(merged["type_masks"])  # the run paths
for violation in violations:
    print(f"split candidate: {render(violation.mid)} asserts both "
          f"{render(violation.type_a)} and {render(violation.type_b)}")

# Cycles mean corrupt data; the default policy raises, the resilience policy
# canonicalizes to the lexicographically smallest member.
cycle_lines = [
    obj("m.b", "dataworld.gardening_hint.replaced_by", "m.c"),
    obj("m.c", "dataworld.gardening_hint.replaced_by", "m.b"),
]
_, cycle = run_folds([write_dump("cycle.nt", cycle_lines)], [SemanticsFold(run_root)])
shutil.rmtree(run_root)
cycle_map = cycle["merge_map"]
survivor = cycle_map.resolve(next(iter(cycle_map.edges)), CyclePolicy.SMALLEST)
print(f"\ncycle canonicalized to {survivor} under the resilience policy")
