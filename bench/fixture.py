"""Seeded, census-shaped dump generator for the benchmark.

Which predicate domain each line belongs to is drawn with the published
triple counts in ``tests/data/domain_census.tsv``; everything inside a
domain (entity mids, type and property names, literal text, how a domain's
lines split across predicate shapes) is synthetic. NOTES.md lists the shapes.

``ensure_fixture`` writes the plain dump, its ``gzip -1`` twin, an
incompatibility rules file and ``truth.json`` (what the generator knows it
wrote: merge edges, type assertions, value notations, per-domain schema
tallies) into a per-seed cache directory, so generation is never timed.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import random
import shutil
from collections import Counter

NS = "http://rdf.freebase.com/ns/"
LINES = 150_000
MALFORMED_RATE = 0.01
# Bump when the generated bytes change, so stale caches are not reused.
VERSION = 2
KEEP_FIXTURES = 10

OWL_IRIS = {
    "type": "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
    "label": "http://www.w3.org/2000/01/rdf-schema#label",
    "domain": "http://www.w3.org/2000/01/rdf-schema#domain",
    "range": "http://www.w3.org/2000/01/rdf-schema#range",
    "inverseOf": "http://www.w3.org/2002/07/owl#inverseOf",
}
XSD_DATE = "http://www.w3.org/2001/XMLSchema#date"
XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"

# Literal text: raw non-ASCII plus only those escapes the library writes back
# unchanged, so materialized slices stay a permutation of the input lines.
TEXTS = [
    "Zürich", "São Paulo", "東京", "Ελλάδα",
    "Москва", "O'Brien", "Naïve café",
    'He said \\"hi\\"', "line one\\nline two", "tab\\tseparated", "back\\\\slash",
    "plain ascii text", "Résumé", "© 2013 – ½",
]
LANGS = ["en", "de", "fr", "ja", "zh-Hans", "pt-BR"]

# Share of /type/* lines that are /type/object/type instance assertions. The
# dump mirrors every such assertion as an rdf-syntax-ns#type triple, so the
# census row for rdf:type gives their count.
TYPE_ASSERTION_ROW = ("owl", "type")
# Share of /freebase/* lines that are forward has-value / has-no-value notes.
NOTATION_SHARE = 0.7


def census_path(root: str) -> str:
    return os.path.join(root, "tests", "data", "domain_census.tsv")


def load_census(path: str) -> list[tuple[str, str, int]]:
    """(group, name, triples) rows of the published census, file order."""
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            text = raw.rstrip("\n")
            if not text or text.startswith("#"):
                continue
            parts = text.split("\t")
            if header is None:
                header = parts
                continue
            record = dict(zip(header, parts))
            rows.append((record["group"], record["name"], int(record["triples"])))
    return rows


def _iri(local: str) -> str:
    return f"<{NS}{local}>"


def _line(s: str, p: str, o: str) -> str:
    return f"{s}\t{p}\t{o}\t."


class _Generator:
    def __init__(self, seed: int, census: list[tuple[str, str, int]], malformed: list[str], n: int):
        self.rng = random.Random(seed)
        self.n = n
        self.census = census
        self.malformed = malformed
        self.pool = max(1000, n // 20)
        weights = {(group, name): triples for group, name, triples in census}
        self.subject_domains = [name for group, name, _ in census if group == "subject_matter"]
        self.subject_cum = list(
            itertools.accumulate(weights[("subject_matter", d)] for d in self.subject_domains)
        )
        self.assertion_share = weights[TYPE_ASSERTION_ROW] / weights[("implementation", "type")]
        self.fresh = 0
        self.edges: list[tuple[str, str]] = []
        self.pending_edges: list[tuple[str, str]] = []
        self.assertions: list[tuple[str, str]] = []
        self.notations: list[tuple[str, str, str]] = []
        self._build_schema()

    # -- schema layer ---------------------------------------------------------

    def _build_schema(self) -> None:
        rng = self.rng
        self.types: dict[str, list[str]] = {}
        self.props: dict[str, list[str]] = {}
        self.tally: dict[str, dict[str, int]] = {}
        type_lines: list[str] = []
        description_lines: list[str] = []
        for domain in self.subject_domains:
            n_types = rng.randint(1, 6)
            p_desc = rng.random()
            p_detail = rng.random()
            types = [f"{domain}.type_{t}" for t in range(n_types)]
            props: list[str] = []
            descriptions = details = 0
            for typ in types:
                type_lines.append(_line(_iri(typ), _iri("type.object.type"), _iri("type.type")))
                type_lines.append(
                    _line(_iri(typ), _iri("type.object.name"), f'"{rng.choice(TEXTS)}"@en')
                )
                if rng.random() < p_desc:
                    description_lines.append(self._description(typ))
                    descriptions += 1
                for p in range(rng.randint(1, 6)):
                    prop = f"{typ}.prop_{p}"
                    props.append(prop)
                    type_lines.append(
                        _line(_iri(prop), _iri("type.object.type"), _iri("type.property"))
                    )
                    if rng.random() < p_desc:
                        description_lines.append(self._description(prop))
                        descriptions += 1
                    if rng.random() < p_detail:
                        other = rng.choice(self.subject_domains)
                        type_lines.append(
                            _line(_iri(prop), _iri("type.property.expected_type"), _iri(f"{other}.type_0"))
                        )
                        details += 1
                    if rng.random() < p_detail:
                        type_lines.append(
                            _line(_iri(prop), _iri("type.property.unique"), f'"true"^^<{XSD_BOOLEAN}>')
                        )
                        details += 1
                    if rng.random() < p_detail / 2:
                        type_lines.append(_line(_iri(prop), _iri("type.property.schema"), _iri(typ)))
                        details += 1
            self.types[domain] = types
            self.props[domain] = props
            self.tally[domain] = {
                "types": len(types),
                "properties": len(props),
                "descriptions": descriptions,
                "details": details,
                "triples": 0,
            }
        rng.shuffle(type_lines)
        rng.shuffle(description_lines)
        self.schema_lines = {"type": type_lines, "common": description_lines}

    def _description(self, subject: str) -> str:
        text = f"{self.rng.choice(TEXTS)} — {self.rng.choice(TEXTS)}"
        return _line(_iri(subject), _iri("common.topic.description"), f'"{text}"@en')

    # -- instance data ----------------------------------------------------------

    def mid(self) -> str:
        """An entity mid, skewed so that popular entities recur."""
        return f"m.0{int(self.pool * self.rng.random() ** 2):x}"

    def fresh_mid(self) -> str:
        self.fresh += 1
        return f"m.0z{self.fresh:x}"

    def literal(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.5:
            return f'"{rng.choice(TEXTS)}"@{rng.choice(LANGS)}'
        if roll < 0.7:
            return f'"{rng.randint(1800, 2013)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"^^<{XSD_DATE}>'
        return f'"{rng.choice(TEXTS)} {rng.randrange(10**6)}"'

    def a_type(self) -> str:
        domain = self.rng.choices(self.subject_domains, cum_weights=self.subject_cum)[0]
        return self.rng.choice(self.types[domain])

    def a_prop(self) -> str:
        domain = self.rng.choice(self.subject_domains)
        return self.rng.choice(self.props[domain])

    def replaced_by(self) -> str:
        """One edge of a replaced-by chain; chains have depth 1 to 4."""
        if len(self.pending_edges) < 8:
            depth = self.rng.choice((1, 2, 2, 3, 3, 4))
            chain = [self.fresh_mid() for _ in range(depth + 1)]
            self.pending_edges.extend(zip(chain, chain[1:]))
        index = self.rng.randrange(len(self.pending_edges))
        self.pending_edges[index], self.pending_edges[-1] = self.pending_edges[-1], self.pending_edges[index]
        duplicate, canonical = self.pending_edges.pop()
        self.edges.append((duplicate, canonical))
        return _line(_iri(duplicate), _iri("dataworld.gardening_hint.replaced_by"), _iri(canonical))

    def shape(self, group: str, name: str) -> str:
        rng = self.rng
        if group == "owl":
            return self.owl_shape(name)
        if group == "subject_matter":
            self.tally[name]["triples"] += 1
            prop = rng.choice(self.props[name])
            obj = _iri(self.mid()) if rng.random() < 0.6 else self.literal()
            return _line(_iri(self.mid()), _iri(prop), obj)
        subject = _iri(self.mid())
        if name == "type":
            if rng.random() < self.assertion_share:
                mid = self.mid()
                typ = self.a_type() if rng.random() < 0.8 else "common.topic"
                self.assertions.append((mid, typ))
                return _line(_iri(mid), _iri("type.object.type"), _iri(typ))
            pred = rng.choice(("type.object.name", "type.object.key"))
            return _line(subject, _iri(pred), self.literal())
        if name == "common":
            roll = rng.random()
            if roll < 0.3:
                return _line(subject, _iri("common.topic.notable_for"), _iri(self.mid()))
            if roll < 0.6:
                return _line(subject, _iri("common.topic.alias"), self.literal())
            if roll < 0.8:
                return _line(subject, _iri("common.topic.description"), self.literal())
            return _line(
                subject,
                _iri("common.topic.topic_equivalent_webpage"),
                f"<http://en.wikipedia.org/wiki/index_{rng.randrange(10**6)}>",
            )
        if name == "key":
            pred = rng.choice(("key.wikipedia.en", "key.en", "key.authority.imdb"))
            return _line(subject, _iri(pred), f'"Key_{rng.randrange(10**6)}$0028x$0029"')
        if name == "dataworld":
            return self.replaced_by()
        if name == "freebase" and rng.random() < NOTATION_SHARE:
            prop = self.a_prop()
            mid = self.mid()
            kind = rng.choice(("has_value", "has_no_value"))
            self.notations.append((prop, mid, kind))
            return _line(_iri(prop), _iri(f"freebase.valuenotation.{kind}"), _iri(mid))
        if name == "base":
            # user-created bases nest one level deeper: nonstandard ids, still valid
            return _line(subject, _iri(f"base.schemastaging.thing_{rng.randrange(8)}.prop"), self.literal())
        obj = _iri(self.mid()) if rng.random() < 0.5 else self.literal()
        return _line(subject, _iri(f"{name}.thing.prop_{rng.randrange(4)}"), obj)

    def owl_shape(self, name: str) -> str:
        rng = self.rng
        pred = f"<{OWL_IRIS[name]}>"
        if name == "type":
            return _line(_iri(self.mid()), pred, _iri(self.a_type()))
        if name == "label":
            return _line(_iri(self.mid()), pred, f'"{rng.choice(TEXTS)}"@{rng.choice(LANGS)}')
        if name == "inverseOf":
            return _line(_iri(self.a_prop()), pred, _iri(self.a_prop()))
        return _line(_iri(self.a_prop()), pred, _iri(self.a_type()))

    # -- whole dump -------------------------------------------------------------

    def generate(self) -> list[str]:
        rng = self.rng
        n = self.n
        keys = [(group, name) for group, name, _ in self.census]
        cum = list(itertools.accumulate(triples for _, _, triples in self.census))
        draws = rng.choices(keys, cum_weights=cum, k=n)
        schema_at: dict[int, str] = {}
        for name, lines in self.schema_lines.items():
            slots = [i for i, key in enumerate(draws) if key == ("implementation", name)]
            if len(slots) < len(lines):
                raise ValueError(f"{n} lines leave too few /{name}/ slots for the schema layer")
            for slot, text in zip(rng.sample(slots, len(lines)), lines):
                schema_at[slot] = text

        out = []
        for i, (group, name) in enumerate(draws):
            text = schema_at.get(i)
            if text is None:
                if rng.random() < MALFORMED_RATE:
                    text = rng.choice(self.malformed)
                else:
                    text = self.shape(group, name)
            out.append(text)
        return out

    def rules(self) -> list[tuple[str, str]]:
        """Pairs of popular types (many hits) plus pairs of rare ones (few or none)."""
        uses = Counter(typ for _, typ in self.assertions if typ != "common.topic")
        popular = sorted(uses, key=lambda t: (-uses[t], t))
        pairs: set[tuple[str, str]] = set()
        for types, count in ((popular[:12], 10), (popular[-12:], 6)):
            candidates = list(itertools.combinations(sorted(types), 2))
            pairs.update(self.rng.sample(candidates, min(count, len(candidates))))
        return sorted(pairs)


def slash(local: str) -> str:
    """Dotted dump local name to the slash notation the outputs use."""
    return "/" + local.replace(".", "/")


def generate(seed: int, root: str, n: int = LINES) -> tuple[list[str], str, dict]:
    """Lines, rules-file text and truth record for one seed."""
    import dumpgen  # tests/dumpgen.py, on sys.path via the caller

    gen = _Generator(seed, load_census(census_path(root)), list(dumpgen.MALFORMED_LINES), n)
    lines = gen.generate()
    rules = gen.rules()
    rules_text = "# incompatible type pairs (synthetic)\n\n" + "".join(
        f"{slash(a)}\t{slash(b)}\n" for a, b in rules
    )
    truth = {
        "seed": seed,
        "lines": len(lines),
        "edges": gen.edges,
        "assertions": gen.assertions,
        "notations": gen.notations,
        "rules": rules,
        "schema": gen.tally,
    }
    return lines, rules_text, truth


def cache_root(root: str) -> str:
    return os.path.join(root, "bench", ".cache")


def _evict(cache: str, keep: str) -> None:
    """Keep only the most recently used fixtures, so disk use stays bounded."""
    entries = [
        os.path.join(cache, name)
        for name in os.listdir(cache)
        if name.startswith("fixture-") and os.path.join(cache, name) != keep
    ]
    entries.sort(key=os.path.getmtime, reverse=True)
    for stale in entries[KEEP_FIXTURES - 1:]:
        shutil.rmtree(stale, ignore_errors=True)


def ensure_fixture(seed: int, root: str) -> str:
    """Directory holding this seed's dump, gzip twin, empty inputs, rules and truth."""
    cache = cache_root(root)
    final = os.path.join(cache, f"fixture-v{VERSION}-{LINES}-{seed}")
    if os.path.exists(os.path.join(final, "truth.json")):
        os.utime(final)
        return final
    os.makedirs(cache, exist_ok=True)
    shutil.rmtree(final, ignore_errors=True)
    staging = final + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    lines, rules_text, truth = generate(seed, root)
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    with open(os.path.join(staging, "dump.nt"), "wb") as handle:
        handle.write(data)
    with open(os.path.join(staging, "dump.nt.gz"), "wb") as handle:
        handle.write(gzip.compress(data, compresslevel=1, mtime=0))
    with open(os.path.join(staging, "empty.nt"), "wb"):
        pass
    with open(os.path.join(staging, "empty.nt.gz"), "wb") as handle:
        handle.write(gzip.compress(b"", compresslevel=1, mtime=0))
    with open(os.path.join(staging, "rules.tsv"), "w", encoding="utf-8") as handle:
        handle.write(rules_text)
    truth["bytes"] = len(data)
    with open(os.path.join(staging, "truth.json"), "w", encoding="utf-8") as handle:
        json.dump(truth, handle)
    os.rename(staging, final)
    _evict(cache, final)
    return final
