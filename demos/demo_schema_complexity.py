"""
Reconstructing the ontology layer
=================================

The ontology is stored in the dump as ordinary triples: declarations under
/type, descriptions under /common/topic/description, and constraint triples
(expected value type, uniqueness, schema membership) as property details.
This demo writes a miniature dump under demos/out/, runs the schema fold of
``fbont schema`` over it to extract the per-domain summaries, and scores how
densely each domain's schema is documented.
"""

import os

from fbont import complexity_score
from fbont.pipeline import SchemaFold, run_folds
from fbont.report import SCHEMA_COLUMNS, render_table, schema_rows

NS = "http://rdf.freebase.com/ns/"


def obj(s, p, o):
    return f"<{NS}{s}>\t<{NS}{p}>\t<{NS}{o}>\t."


def lit(s, p, text):
    return f'<{NS}{s}>\t<{NS}{p}>\t"{text}"\t.'


lines = [
    # the people domain: two types, two properties, well documented
    obj("people.person", "type.object.type", "type.type"),
    obj("people.deceased_person", "type.object.type", "type.type"),
    obj("people.person.date_of_birth", "type.object.type", "type.property"),
    obj("people.person.place_of_birth", "type.object.type", "type.property"),
    lit("people.person", "common.topic.description", "A human being"),
    lit("people.person.date_of_birth", "common.topic.description", "When they were born"),
    obj("people.person.date_of_birth", "type.property.expected_type", "type.datetime"),
    obj("people.person.place_of_birth", "type.property.expected_type", "location.location"),
    lit("people.person.date_of_birth", "type.property.unique", "true"),
    # the zoo domain: one bare type, nothing else
    obj("zoo.zoo", "type.object.type", "type.type"),
    # instance data: typed mids do not count toward the schema
    obj("m.obama", "type.object.type", "people.person"),
    lit("m.obama", "common.topic.description", "A person, not schema"),
]

out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)
dump = os.path.join(out_dir, "schema.nt")
with open(dump, "w", encoding="utf-8") as handle:
    handle.write("".join(line + "\n" for line in lines))

_, merged = run_folds([dump], [SchemaFold()])
schemas = merged["schemas"]

for domain, schema in sorted(schemas.items()):
    score = complexity_score(schema)
    print(
        f"{domain}: {len(schema.types)} types, {len(schema.properties)} properties, "
        f"{schema.description_count} descriptions, {schema.property_detail_count} details "
        f"-> complexity {score:.3f}"
    )

# people pools (2 descriptions + 3 details) over (2 types + 2 properties);
# zoo has a type but zero documentation, so it scores 0.0
print()
print(render_table(SCHEMA_COLUMNS, schema_rows(schemas)), end="")
