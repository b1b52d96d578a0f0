"""Checks of a reference run's outputs against the independent oracles.

The oracles live in ``tests/dumpgen.py`` and work on raw line strings; the
expected values come from the dump's lines and from what the generator knows
it wrote (``truth.json``). Every function returns a list of problems, empty
when the outputs are right.
"""

from __future__ import annotations

import csv
import json
import os
from collections import Counter

import dumpgen
from fixture import slash

# Tolerances of the binding acceptance suite (criterion 6).
R_REL_TOL = 1e-12
SLOPE_REL_TOL = 1e-9


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return handle.read()


def _csv_rows(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _rel_close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(abs(want), 1e-300)


def check_parse_report(out: str, lines: list[str]) -> list[str]:
    report = json.loads(_read(os.path.join(out, "parse_report.json")))
    wellformed = dumpgen.oracle_count_wellformed(lines)
    want = {
        "lines_read": len(lines),
        "triples_ok": wellformed,
        "lines_malformed": len(lines) - wellformed,
    }
    return [
        f"parse_report {key}: {report[key]} != oracle {value}"
        for key, value in want.items()
        if report[key] != value
    ]


def check_slices(out: str, lines: list[str], truth: dict) -> list[str]:
    problems = []
    got = {}
    for row in _csv_rows(os.path.join(out, "taxonomy.csv")):
        kind = "domain" if row["predicate_pattern"].startswith("/") else "owl"
        got[(kind, row["name"])] = int(row["triples"])
    want = dumpgen.oracle_slice_counts(lines)
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))[:5]
        problems.append(f"taxonomy.csv counts differ from oracle_slice_counts: {diff}")
    for domain, tally in truth["schema"].items():
        if want.get(("domain", domain), 0) != tally["triples"]:
            problems.append(f"generator tally for {domain} disagrees with the oracle")
    return problems


def check_materialized(out: str, lines: list[str]) -> list[str]:
    """The concatenated slices must be a permutation of the well-formed lines."""
    written: Counter = Counter()
    for base, _, files in os.walk(os.path.join(out, "slices")):
        for name in files:
            with open(os.path.join(base, name), "r", encoding="utf-8", newline="") as handle:
                written.update(handle.read().splitlines())
    wanted = Counter(line for line in lines if dumpgen.WELLFORMED_RE.match(line))
    if written != wanted:
        extra = sum((written - wanted).values())
        missing = sum((wanted - written).values())
        return [f"materialized slices are not a permutation of the input: +{extra} -{missing} lines"]
    return []


def study_rows(truth: dict, exclude: set[str]) -> tuple[list[float], list[float]]:
    xs, ys = [], []
    for domain in sorted(truth["schema"]):
        tally = truth["schema"][domain]
        if domain in exclude or tally["triples"] == 0:
            continue
        items = tally["types"] + tally["properties"]
        xs.append((tally["descriptions"] + tally["details"]) / items)
        ys.append(float(tally["triples"]))
    return xs, ys


def check_study(out: str, truth: dict, exclude: set[str]) -> list[str]:
    study = json.loads(_read(os.path.join(out, "study.json")))
    xs, ys = study_rows(truth, exclude)
    problems = []
    if study["n"] != len(xs):
        problems.append(f"study n {study['n']} != {len(xs)} rows written")
    r = dumpgen.oracle_pearson(xs, ys)
    slope, _ = dumpgen.oracle_linreg(xs, ys)
    if not _rel_close(study["pearson_r"], r, R_REL_TOL):
        problems.append(f"pearson_r {study['pearson_r']!r} != oracle {r!r}")
    if not _rel_close(study["slope"], slope, SLOPE_REL_TOL):
        problems.append(f"slope {study['slope']!r} != oracle {slope!r}")
    if sorted(study["excluded"]) != sorted(exclude):
        problems.append(f"excluded {study['excluded']} != {sorted(exclude)}")
    return problems


def check_semantics(out: str, truth: dict) -> list[str]:
    problems = []
    edges = {slash(dup): slash(canonical) for dup, canonical in truth["edges"]}
    want_merges = {dup: dumpgen.oracle_resolve(edges, dup) for dup in edges}
    got_merges = dict(
        line.split("\t") for line in _read(os.path.join(out, "merges.tsv")).splitlines()
    )
    if got_merges != want_merges:
        problems.append("merges.tsv differs from oracle_resolve over the written edges")
    if not any(want_merges[d] != edges[d] for d in edges):
        problems.append("fixture has no replaced-by chain deeper than 1")

    assertions = [(slash(mid), slash(typ)) for mid, typ in truth["assertions"]]
    rules = [(slash(a), slash(b)) for a, b in truth["rules"]]
    want_violations = {
        (mid, frozenset((a, b))) for mid, a, b in dumpgen.oracle_violations(assertions, rules)
    }
    got_violations = {
        (row["mid"], frozenset((row["type_a"], row["type_b"])))
        for row in _csv_rows(os.path.join(out, "violations.csv"))
    }
    if got_violations != want_violations:
        problems.append(
            f"violations.csv has {len(got_violations)} rows, oracle_violations {len(want_violations)}"
        )
    if not want_violations:
        problems.append("rules file hits no object")

    want_notes = [
        (slash(prop), slash(mid), kind, "forward") for prop, mid, kind in truth["notations"]
    ]
    got_notes = [
        (row["property"], row["object"], row["kind"], row["orientation"])
        for row in _csv_rows(os.path.join(out, "valuenotes.csv"))
    ]
    if got_notes != want_notes:
        problems.append("valuenotes.csv differs from the notations written")
    return problems


def check_reference(workload: str, out: str, fixture: str) -> list[str]:
    """Every oracle check that applies to this workload's reference outputs."""
    with open(os.path.join(fixture, "dump.nt"), "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")[:-1]
    with open(os.path.join(fixture, "truth.json"), "r", encoding="utf-8") as handle:
        truth = json.load(handle)
    if len(lines) != truth["lines"]:
        return [f"dump has {len(lines)} lines, generator wrote {truth['lines']}"]
    problems = check_parse_report(out, lines)
    if workload.startswith("slice"):
        problems += check_slices(out, lines, truth)
    if workload == "slice-materialize":
        problems += check_materialized(out, lines)
    if workload == "study-gzip":
        problems += check_study(out, truth, {"music"})
    if workload == "semantics-plain":
        problems += check_semantics(out, truth)
    return problems
