"""Command-line pipeline over dump files.

Subcommands compose the library end to end: ``slice`` counts and optionally
materializes predicate-domain slices, ``schema`` summarizes each domain's
ontology, ``semantics`` exports merges / value notations / incompatibility
violations, and ``study`` runs the triples-vs-complexity correlation.
The commands read the public dump's own predicate spellings (the library
defaults of :class:`fbont.schema.SchemaConfig` and
:class:`fbont.pipeline.SemanticsFold`); ``slice --materialize`` is a flag
that takes no value, and always writes ``OUT/slices/<kind>/<name>.nt``.

Each subcommand builds its documents as a ``{file name: text}`` map, the
tables rendered by :mod:`fbont.report`, and ends in one publish step
(:func:`_publish`) that writes them, with ``parse_report.json`` when the dump
was parsed, and prints the parse summary.

Exit codes: 0 success, 2 I/O failure, a bad ``semantics --rules`` file (read
before the dump), a bad ``study --from-counts``/``--from-schema`` file (read
before anything is written) or a ``study`` given anything but dump inputs
alone or both of those files alone, 3 insufficient data, 4 data integrity
(replaced-by cycle under the fail policy), 5 worker failure (a worker process
died, e.g. killed or out of memory). Reruns on identical inputs write
byte-identical output files, and each file is replaced atomically, so a
failed write leaves the previous content in place. ``slice --materialize``
removes its ``.parts`` shard directory on every failure exit.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import shutil
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, TextIO, TypeVar

from .model import DEFAULT_NAMESPACE, idpath
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
    replacing,
    run_partitioned,
)
from .report import (
    DEFAULT_TAXONOMY_FORMATS,
    SCHEMA_COLUMNS,
    TAXONOMY_SUFFIX,
    VALUENOTE_COLUMNS,
    VIOLATION_COLUMNS,
    ReportBundle,
    build_scatter_points,
    load_counts_csv,
    load_schema_csv,
    render_json,
    render_table,
    schema_rows,
    valuenote_rows,
    violation_rows,
)
from .semantics import (
    CyclePolicy,
    MergeCycleError,
    check_incompatibilities,
    load_rules,
    write_merge_tsv,
)
from .slicer import (
    DEFAULT_IMPLEMENTATION_DOMAINS,
    GroupConfig,
    build_taxonomy,
)
from .stats import InsufficientDataError, run_study

OUTPUT_DIR_ENV = "FBONT_OUT"
T = TypeVar("T")


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over ``path``."""
    with replacing(path) as temp, open(temp, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _publish(
    args: argparse.Namespace, docs: dict[str, str], report: ParseReport | None = None, **extra
) -> None:
    """Write each ``{file name: text}`` document into --out, each replaced atomically.

    With a parse report, also write parse_report.json, with ``extra`` added
    to it, and print the parse summary.
    """
    if report is not None:
        docs = {**docs, "parse_report.json": render_json({**report.to_dict(), **extra})}
    for name, text in docs.items():
        _write_text(os.path.join(args.out, name), text)
    if report is None:
        return
    print(
        f"parsed {report.lines_read:,} lines: "
        f"{report.triples_ok:,} triples, {report.lines_malformed:,} malformed"
    )
    for key in sorted(report.lint):
        print(f"  lint {key}: {report.lint[key]:,}")


class _InputFileError(Exception):
    """A rules or intermediate file read before the dump is not valid: exit 2."""


def _read_input(path: str, load: Callable[[TextIO], T]) -> T:
    """``load`` of a UTF-8 file that is read before the dump.

    A ValueError (a malformed line, a missing column, a bad number, bytes that
    are not UTF-8) is raised again as an _InputFileError naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return load(handle)
    except (ValueError, csv.Error) as exc:
        raise _InputFileError(f"{path}: {exc}") from exc


def _parser_config(args: argparse.Namespace) -> ParserConfig:
    return ParserConfig(namespace=args.namespace, strict_ids=args.strict_ids)


def _group_config(args: argparse.Namespace) -> GroupConfig:
    if getattr(args, "implementation_domain", None):
        return GroupConfig(frozenset(args.implementation_domain))
    return GroupConfig(frozenset(DEFAULT_IMPLEMENTATION_DOMAINS))


# --- subcommands ----------------------------------------------------------------


def _run(args: argparse.Namespace, *folds) -> tuple[ParseReport, dict]:
    """Parse the inputs once, feeding every triple to each fold; merged report and payload."""
    job = Job(folds, _parser_config(args), args.max_errors)
    partitions = plan_partitions(args.inputs, args.workers)
    report, payloads = run_partitioned(job, partitions, args.workers)
    return report, merge_payloads(payloads)


def _tables(args: argparse.Namespace, name: str, header: tuple, rows: list[tuple]) -> dict[str, str]:
    """NAME.csv and, with --json, NAME.json: the rows as records keyed by header."""
    formats = ("csv", "json") if args.json else ("csv",)
    return {f"{name}.{fmt}": render_table(header, rows, fmt) for fmt in formats}


def cmd_slice(args: argparse.Namespace) -> int:
    materialize_dir = os.path.join(args.out, "slices")
    shard_root = os.path.join(materialize_dir, ".parts") if args.materialize else None
    try:
        report, merged = _run(args, SliceFold(shard_root, args.count_distinct))
        if shard_root is not None:
            concatenate_shards(merged["shard_dirs"], materialize_dir)
    except BaseException:
        if shard_root is not None:
            shutil.rmtree(shard_root, ignore_errors=True)  # no half-written shards on any exit
        raise

    bundle = ReportBundle(taxonomy=build_taxonomy(merged["counts"], _group_config(args)))
    docs = bundle.documents(args.format or DEFAULT_TAXONOMY_FORMATS)
    extra = {} if merged["distinct"] is None else {"distinct_triples": len(merged["distinct"])}
    _publish(args, docs, report, **extra)
    if extra:
        print(f"distinct triples: {extra['distinct_triples']:,}")
    return 0


def cmd_schema(args: argparse.Namespace) -> int:
    report, merged = _run(args, SchemaFold())
    _publish(args, _tables(args, "schema", SCHEMA_COLUMNS, schema_rows(merged["schemas"])), report)
    return 0


def cmd_semantics(args: argparse.Namespace) -> int:
    """Merges, value notations and, given rules, the objects that break one.

    The --rules file is read before the parse, so a bad file fails fast and
    writes nothing, and so the fold keeps only the type assertions those
    rules can use, none without --rules (see SemanticsFold.known_rules).
    """
    rules = _read_input(args.rules, load_rules) if args.rules else frozenset()
    incompat = idpath(args.incompatibility_predicate) if args.incompatibility_predicate else None
    fold = SemanticsFold(
        incompatibility_predicate=incompat, accept_reversed=args.accept_reversed, known_rules=rules
    )
    report, merged = _run(args, fold)
    policy = CyclePolicy(args.cycle_policy)

    merge_map = merged["merge_map"]
    out = io.StringIO()
    write_merge_tsv(merge_map, out, policy)  # MergeCycleError propagates: exit 4
    docs = {"merges.tsv": out.getvalue()}
    docs.update(_tables(args, "valuenotes", VALUENOTE_COLUMNS, valuenote_rows(merged["notations"])))

    rules |= merged["rules"]
    if rules or args.rules or incompat:
        violations = check_incompatibilities(merged["assertions"], rules)
        docs.update(_tables(args, "violations", VIOLATION_COLUMNS, violation_rows(violations)))
        print(f"violations: {len(violations)}")

    _publish(args, docs, report)
    print(
        f"merge edges: {len(merge_map.edges)}, conflicts: {merge_map.conflicts}, "
        f"value notations: {len(merged['notations'])}"
    )
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    # Dump inputs and no intermediate file, or both intermediate files alone.
    unset = (args.from_counts, args.from_schema).count(None)
    if (bool(args.inputs), unset) not in ((True, 2), (False, 0)):
        print("error: give dump inputs, or both --from-counts and --from-schema", file=sys.stderr)
        return 2
    group_config = _group_config(args)
    report = None
    if args.inputs:
        report, merged = _run(args, SliceFold(), SchemaFold())
        rows, skipped = join_study_rows(merged["counts"], merged["schemas"], group_config)
    else:
        counts = _read_input(args.from_counts, load_counts_csv)
        rows, skipped = join_scores(counts, _read_input(args.from_schema, load_schema_csv), group_config)

    for name in skipped:
        print(f"warning: no ontology extracted for domain {name!r}; excluded", file=sys.stderr)
    known = {row.domain for row in rows}
    for name in args.exclude:
        if name not in known:
            print(f"warning: exclusion {name!r} matches no study domain", file=sys.stderr)

    result = run_study(rows, args.exclude)  # InsufficientDataError: exit 3
    points = build_scatter_points(rows, args.exclude)
    _publish(args, ReportBundle(study=result, scatter=points).documents(), report)
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
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; plain and gzip files are split into byte ranges, "
        "standard input is read by one process",
    )
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
        action="store_true",
        help="also write one N-Triples file per slice, under OUT/slices",
    )
    p_slice.add_argument(
        "--format",
        action="append",
        choices=tuple(TAXONOMY_SUFFIX),
        default=None,
        help="taxonomy formats to write (repeatable; default markdown, csv and tsv)",
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
    p_slice.set_defaults(func=cmd_slice)

    p_schema = sub.add_parser("schema", help="summarize each domain's ontology")
    _add_common(p_schema)
    p_schema.add_argument("--json", action="store_true", help="also write schema.json")
    p_schema.set_defaults(func=cmd_schema)

    p_sem = sub.add_parser("semantics", help="merges, value notations, incompatibilities")
    _add_common(p_sem)
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
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    # argparse fills the inputs from one run of arguments, so it leaves a dump
    # named after an option (``slice a.nt --materialize b.nt``) unrecognized.
    more_inputs = [arg for arg in extras if arg == "-" or not arg.startswith("-")]
    if len(more_inputs) < len(extras):
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.inputs += more_inputs
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
    except (OSError, _InputFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:
        print(f"error: worker failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
