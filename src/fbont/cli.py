"""Command-line pipeline over dump files.

Subcommands compose the library end to end: ``slice`` counts and optionally
materializes predicate-domain slices, ``schema`` summarizes each domain's
ontology, ``semantics`` exports merges / value notations / incompatibility
violations, and ``study`` runs the triples-vs-complexity correlation.

Exit codes: 0 success, 2 I/O failure, 3 insufficient data, 4 data integrity
(replaced-by cycle under the fail policy). Reruns on identical inputs write
byte-identical output files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .model import DEFAULT_NAMESPACE, idpath, render
from .parser import ParseReport, ParserConfig
from .pipeline import (
    Job,
    SchemaFold,
    SemanticsFold,
    SliceFold,
    concatenate_shards,
    join_scores,
    join_study_rows,
    merge_payloads,
    plan_partitions,
    run_partitioned,
)
from .report import (
    ReportBundle,
    build_scatter_points,
    render_schema_table,
    render_taxonomy,
    schema_to_json,
)
from .schema import SchemaConfig
from .semantics import (
    CyclePolicy,
    MergeCycleError,
    check_incompatibilities,
    load_rules,
    write_merge_tsv,
)
from .slicer import (
    DEFAULT_IMPLEMENTATION_DOMAINS,
    DEFAULT_SLICE_LAYOUT,
    DOMAIN,
    GroupConfig,
    SliceKey,
    build_taxonomy,
)
from .stats import InsufficientDataError, run_study

OUTPUT_DIR_ENV = "FBONT_OUT"

_FORMAT_SUFFIX = {"markdown": "md", "csv": "csv", "tsv": "tsv", "json": "json"}
_DEFAULT_FORMATS = ("markdown", "csv", "tsv")


def _write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _write_parse_report(out_dir: str, report: ParseReport, extra: dict | None = None) -> None:
    payload = report.to_dict()
    if extra:
        payload.update(extra)
    _write_text(
        os.path.join(out_dir, "parse_report.json"),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )


def _print_summary(report: ParseReport) -> None:
    print(
        f"parsed {report.lines_read:,} lines: "
        f"{report.triples_ok:,} triples, {report.lines_malformed:,} malformed"
    )
    for key in sorted(report.lint):
        print(f"  lint {key}: {report.lint[key]:,}")


def _parser_config(args: argparse.Namespace) -> ParserConfig:
    return ParserConfig(namespace=args.namespace, strict_ids=args.strict_ids)


def _group_config(args: argparse.Namespace) -> GroupConfig:
    if getattr(args, "implementation_domain", None):
        return GroupConfig(frozenset(args.implementation_domain))
    return GroupConfig(frozenset(DEFAULT_IMPLEMENTATION_DOMAINS))


def _schema_config(args: argparse.Namespace) -> SchemaConfig:
    kwargs: dict = {"description_predicate": idpath(args.description_predicate)}
    if args.schema_domain:
        kwargs["schema_domains"] = frozenset(args.schema_domain)
    if args.detail_predicate:
        kwargs["detail_predicates"] = frozenset(idpath(p) for p in args.detail_predicate)
    if args.type_predicate:
        kwargs["type_declaration_predicate"] = idpath(args.type_predicate)
    return SchemaConfig(**kwargs)


# --- subcommands ----------------------------------------------------------------


def _run(args: argparse.Namespace, *folds) -> tuple[ParseReport, dict]:
    """Parse the inputs once, feeding every triple to each fold; merged report and payload."""
    job = Job(folds, _parser_config(args), args.max_errors)
    partitions = plan_partitions(args.inputs, args.workers)
    report, payloads = run_partitioned(job, partitions, args.workers)
    return report, merge_payloads(payloads)


def _write_rows(args: argparse.Namespace, name: str, header: tuple, rows: list[tuple]) -> None:
    """Write rows as NAME.csv and, with --json, as NAME.json records keyed by header."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(os.path.join(args.out, f"{name}.csv"), out.getvalue())
    if args.json:
        records = [dict(zip(header, row)) for row in rows]
        _write_text(
            os.path.join(args.out, f"{name}.json"),
            json.dumps(records, indent=2, sort_keys=True) + "\n",
        )


def cmd_slice(args: argparse.Namespace) -> int:
    materialize_dir = None
    if args.materialize is not None:
        materialize_dir = args.materialize or os.path.join(args.out, "slices")
    shard_root = os.path.join(materialize_dir, ".parts") if materialize_dir else None
    report, merged = _run(args, SliceFold(shard_root, args.count_distinct, args.slice_layout))

    if shard_root is not None:
        concatenate_shards(merged["shard_dirs"], materialize_dir)

    taxonomy = build_taxonomy(merged["counts"], _group_config(args))
    for fmt in args.format or _DEFAULT_FORMATS:
        path = os.path.join(args.out, f"taxonomy.{_FORMAT_SUFFIX[fmt]}")
        _write_text(path, render_taxonomy(taxonomy, fmt))
    extra = {}
    if merged["distinct"] is not None:
        extra["distinct_triples"] = len(merged["distinct"])
    _write_parse_report(args.out, report, extra)
    _print_summary(report)
    if merged["distinct"] is not None:
        print(f"distinct triples: {len(merged['distinct']):,}")
    return 0


def cmd_schema(args: argparse.Namespace) -> int:
    report, merged = _run(args, SchemaFold(_schema_config(args)))
    _write_text(os.path.join(args.out, "schema.csv"), render_schema_table(merged["schemas"]))
    if args.json:
        _write_text(os.path.join(args.out, "schema.json"), schema_to_json(merged["schemas"]))
    _write_parse_report(args.out, report)
    _print_summary(report)
    return 0


def cmd_semantics(args: argparse.Namespace) -> int:
    incompat = idpath(args.incompatibility_predicate) if args.incompatibility_predicate else None
    fold = SemanticsFold(
        replaced_by=idpath(args.replaced_by_predicate),
        type_predicate=idpath(args.type_predicate_sem),
        incompatibility_predicate=incompat,
        accept_reversed=args.accept_reversed,
    )
    report, merged = _run(args, fold)
    policy = CyclePolicy(args.cycle_policy)

    merge_map = merged["merge_map"]
    out = io.StringIO()
    write_merge_tsv(merge_map, out, policy)  # MergeCycleError propagates: exit 4
    _write_text(os.path.join(args.out, "merges.tsv"), out.getvalue())

    _write_rows(
        args,
        "valuenotes",
        ("property", "object", "kind", "orientation"),
        [
            (render(n.property), render(n.object), n.kind.value, n.orientation)
            for n in merged["notations"]
        ],
    )

    rules = set(merged["rules"])
    if args.rules:
        with open(args.rules, "r", encoding="utf-8") as handle:
            rules |= load_rules(handle)
    if rules or args.rules or incompat:
        violations = check_incompatibilities(merged["assertions"], rules)
        _write_rows(
            args,
            "violations",
            ("mid", "type_a", "type_b"),
            [(render(v.mid), render(v.type_a), render(v.type_b)) for v in violations],
        )
        print(f"violations: {len(violations)}")

    _write_parse_report(args.out, report)
    _print_summary(report)
    print(
        f"merge edges: {len(merge_map.edges)}, conflicts: {merge_map.conflicts}, "
        f"value notations: {len(merged['notations'])}"
    )
    return 0


def _load_counts_csv(path: str) -> dict[SliceKey, int]:
    counts: dict[SliceKey, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for record in csv.DictReader(handle):
            kind = DOMAIN if record["predicate_pattern"].startswith("/") else "owl"
            counts[SliceKey(kind, record["name"])] = int(record["triples"])
    return counts


def _load_schema_csv(path: str) -> dict[str, float]:
    scores: dict[str, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for record in csv.DictReader(handle):
            if record["complexity_score"]:
                scores[record["domain"]] = float(record["complexity_score"])
    return scores


def cmd_study(args: argparse.Namespace) -> int:
    group_config = _group_config(args)
    report = None
    if args.from_counts and args.from_schema:
        counts = _load_counts_csv(args.from_counts)
        rows, skipped = join_scores(counts, _load_schema_csv(args.from_schema), group_config)
    elif args.inputs:
        report, merged = _run(args, SliceFold(), SchemaFold(_schema_config(args)))
        rows, skipped = join_study_rows(merged["counts"], merged["schemas"], group_config)
    else:
        print("error: provide dump inputs or --from-counts with --from-schema", file=sys.stderr)
        return 2

    for name in skipped:
        print(f"warning: no ontology extracted for domain {name!r}; excluded", file=sys.stderr)
    known = {row.domain for row in rows}
    for name in args.exclude:
        if name not in known:
            print(f"warning: exclusion {name!r} matches no study domain", file=sys.stderr)

    result = run_study(rows, args.exclude)  # InsufficientDataError: exit 3
    points = build_scatter_points(rows, args.exclude)
    bundle = ReportBundle(study=result, scatter=points)
    for name, text in bundle.documents().items():
        _write_text(os.path.join(args.out, name), text)
    if report is not None:
        _write_parse_report(args.out, report)
        _print_summary(report)
    print(
        f"study: n={result.n} r={result.pearson_r:.4f} slope={result.slope:,.2f} "
        f"excluded={list(result.excluded)}"
    )
    return 0


# --- argument parsing -------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, inputs_required: bool = True) -> None:
    sub.add_argument(
        "inputs",
        nargs="+" if inputs_required else "*",
        help="dump files, or - for standard input (gzip detected by magic bytes)",
    )
    sub.add_argument(
        "--out",
        "-o",
        default=os.environ.get(OUTPUT_DIR_ENV, "out"),
        help=f"output directory (default: ${OUTPUT_DIR_ENV} or ./out)",
    )
    sub.add_argument("--workers", type=int, default=1, help="partition-parallel worker count")
    sub.add_argument(
        "--namespace",
        default=DEFAULT_NAMESPACE,
        help="IRI prefix normalized to slash notation",
    )
    sub.add_argument("--max-errors", type=int, default=20, help="malformed-line samples to keep")
    sub.add_argument(
        "--strict-ids",
        action="store_true",
        help="treat identifiers outside [0-9a-z_] as malformed instead of lint",
    )


def _add_schema_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--description-predicate",
        default="/common/topic/description",
        help="predicate carrying schema descriptions",
    )
    sub.add_argument(
        "--detail-predicate",
        action="append",
        default=None,
        help="property-detail predicate (repeatable; replaces the default set)",
    )
    sub.add_argument(
        "--type-predicate",
        default=None,
        help="explicit is-a declaration predicate (default /type/object/type)",
    )
    sub.add_argument(
        "--schema-domain",
        action="append",
        default=None,
        help="domain whose predicates mark schema triples (repeatable; default: type)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbont",
        description="Slice, summarize, and analyze Freebase-style N-Triples dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_slice = sub.add_parser("slice", help="count triples per predicate domain")
    _add_common(p_slice)
    p_slice.add_argument(
        "--materialize",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="also write one N-Triples file per slice (default DIR: OUT/slices)",
    )
    p_slice.add_argument(
        "--format",
        action="append",
        choices=tuple(_FORMAT_SUFFIX),
        default=None,
        help="taxonomy formats to write (repeatable; default all)",
    )
    p_slice.add_argument(
        "--implementation-domain",
        action="append",
        default=None,
        help="override the implementation-group domain list (repeatable)",
    )
    p_slice.add_argument(
        "--count-distinct",
        action="store_true",
        help="also count distinct triples (in-memory; fixture scale only)",
    )
    p_slice.add_argument(
        "--slice-layout",
        default=DEFAULT_SLICE_LAYOUT,
        help="materialized-slice path template with {kind} and {name} placeholders",
    )
    p_slice.set_defaults(func=cmd_slice)

    p_schema = sub.add_parser("schema", help="summarize each domain's ontology")
    _add_common(p_schema)
    _add_schema_options(p_schema)
    p_schema.add_argument("--json", action="store_true", help="also write schema.json")
    p_schema.set_defaults(func=cmd_schema)

    p_sem = sub.add_parser("semantics", help="merges, value notations, incompatibilities")
    _add_common(p_sem)
    p_sem.add_argument(
        "--replaced-by-predicate",
        default="/dataworld/gardening_hint/replaced_by",
        help="merge-edge predicate",
    )
    p_sem.add_argument(
        "--type-predicate",
        dest="type_predicate_sem",
        default="/type/object/type",
        help="instance-typing predicate for incompatibility checks",
    )
    p_sem.add_argument(
        "--incompatibility-predicate",
        default=None,
        help="dump predicate stating incompatibility rules, if the dump has one",
    )
    p_sem.add_argument("--rules", default=None, help="incompatibility rules file (two types per line)")
    p_sem.add_argument(
        "--cycle-policy",
        choices=tuple(p.value for p in CyclePolicy),
        default=CyclePolicy.FAIL.value,
        help="replaced-by cycles: fail loud, or canonicalize to the smallest member",
    )
    p_sem.add_argument(
        "--accept-reversed",
        action="store_true",
        help="also match value notations written entity-first",
    )
    p_sem.add_argument("--json", action="store_true", help="also write JSON twins of the CSVs")
    p_sem.set_defaults(func=cmd_semantics)

    p_study = sub.add_parser("study", help="correlate triple volume with ontology complexity")
    _add_common(p_study, inputs_required=False)
    _add_schema_options(p_study)
    p_study.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="DOMAIN",
        help="drop a domain from the study (repeatable)",
    )
    p_study.add_argument("--from-counts", default=None, help="reuse a taxonomy.csv instead of parsing")
    p_study.add_argument("--from-schema", default=None, help="reuse a schema.csv instead of parsing")
    p_study.add_argument(
        "--implementation-domain",
        action="append",
        default=None,
        help="override the implementation-group domain list (repeatable)",
    )
    p_study.set_defaults(func=cmd_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except MergeCycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InsufficientDataError as exc:
        print(f"error: insufficient data: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
