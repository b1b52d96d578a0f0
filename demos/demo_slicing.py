"""
Slicing a dump by predicate domain
==================================

Writes a miniature N-Triples dump under demos/out/, runs the slice fold of
``fbont slice`` over it to count one slice per predicate domain, and renders
the three-group taxonomy the way the published census table lays it out.
"""

import os

from fbont import build_taxonomy
from fbont.pipeline import SliceFold, run_folds
from fbont.report import render_taxonomy

NS = "http://rdf.freebase.com/ns/"

# A dump line is subject, predicate, object, terminator, tab-separated.
# The predicate's first path segment decides which slice the line lands in.
lines = []
for i in range(60):
    lines.append(f"<{NS}m.s{i}>\t<{NS}music.album.artist>\t<{NS}m.a{i}>\t.")
for i in range(25):
    lines.append(f"<{NS}m.s{i}>\t<{NS}film.film.directed_by>\t<{NS}m.d{i}>\t.")
for i in range(10):
    lines.append(f'<{NS}m.s{i}>\t<{NS}people.person.date_of_birth>\t"19{60 + i}"\t.')
for i in range(30):
    lines.append(f"<{NS}m.s{i}>\t<{NS}type.object.name>\t\"Thing {i}\"\t.")
for i in range(15):
    lines.append(f'<{NS}m.s{i}>\t<http://www.w3.org/2000/01/rdf-schema#label>\t"thing"@en\t.')
lines.append("this line is corrupt and will be counted, not fatal")

out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)
dump = os.path.join(out_dir, "slicing.nt")
with open(dump, "w", encoding="utf-8") as handle:
    handle.write("".join(line + "\n" for line in lines))

# One parse feeds every triple to the fold; every triple lands in exactly one slice.
report, merged = run_folds([dump], [SliceFold()])
print(f"parsed {report.lines_read} lines -> {report.triples_ok} triples, "
      f"{report.lines_malformed} malformed {report.errors}")
counts = merged["counts"]
for key, count in sorted(counts.items()):
    print(f"  {key.kind:6s} {key.name:10s} {count}")

# Group assignment: /type is implementation machinery, rdfs labels are OWL
# vocabulary, the rest is subject matter. Percentages come in fractions and
# render at three decimals.
print()
print(render_taxonomy(build_taxonomy(counts), "markdown"))
