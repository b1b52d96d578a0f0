"""Command-line pipeline over dump files.

Subcommands compose the library end to end: ``slice`` counts and optionally
materializes predicate-domain slices, ``schema`` summarizes each domain's
ontology, ``semantics`` exports merges / value notations / incompatibility
violations, and ``study`` runs the triples-vs-complexity correlation.
The commands read the public dump's own namespace and predicate spellings
(the library defaults of :class:`fbont.parser.ParserConfig` and
:class:`fbont.schema.SchemaConfig`, and the predicates
:class:`fbont.pipeline.SemanticsFold` reads). No option keeps state that
grows with the dump: ``slice --materialize`` is a flag that takes no value
and writes each well-formed line, as it was read, to
``OUT/slices/<kind>/<name>.nt``, and ``semantics`` keeps, per mid, one
bitmask of the types its ``--rules`` name (its workers write them as sorted
runs in the work directory, which the fold merges as a stream, and write
their value notations there as shard directories of valuenotes.csv rows)
and writes violations exactly when given ``--rules``.

Each subcommand builds its documents as a ``{file name: document}`` map, a
document being text or an iterable of text chunks, the tables rendered by
:mod:`fbont.report`, and ends in one publish step (:func:`_publish`) that
writes them, with ``parse_report.json`` when the dump was parsed, and prints
the parse summary. ``semantics`` gives every table as chunks but
``valuenotes.csv``, joined from shards as slices are.

Each run has one work directory, ``OUT/.fbont-<command>`` (:func:`_work_dir`):
slice shards go under its ``parts/``, mask runs and notation shards under
its ``runs/``, and every output file, joined shards included, is written
under its ``out/`` and then renamed into OUT, so no file reaches OUT until
all of them are written. The directory is removed when the run starts, so
files a killed run left are never read, and on every exit, with an OUT the
run made if that is left empty.

Exit codes: 0 success, 2 I/O failure, a bad ``semantics --rules`` file (read
before the dump), a bad ``study --from-counts``/``--from-schema`` file (read
before anything is written) or a ``study`` given anything but dump inputs
alone or both of those files alone, 3 insufficient data (fewer than two
study domains left, or all of them with the same complexity score or the
same triple count), 4 data integrity (replaced-by cycle under the fail
policy), 5 worker failure (a forked worker process ended before it sent its
result: killed, or holding an exception that cannot be pickled) or out of
memory (a MemoryError raised in this process or sent back by a worker: one
line, ``error: out of memory: ...``). Reruns on identical inputs write
byte-identical output files, and a run that fails leaves OUT as it was.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import shutil
import sys
from contextlib import contextmanager, suppress
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

from .parser import ParseReport, ParserConfig
from .pipeline import (
    SchemaFold,
    SemanticsFold,
    SliceFold,
    WorkerFailure,
    concatenate_shards,
    join_scores,
    run_folds,
)
from .report import (
    DEFAULT_TAXONOMY_FORMATS,
    SCHEMA_COLUMNS,
    TAXONOMY_SUFFIX,
    VALUENOTE_COLUMNS,
    VIOLATION_COLUMNS,
    ReportBundle,
    _records,
    build_scatter_points,
    load_counts_csv,
    load_schema_csv,
    render_json,
    render_table,
    schema_rows,
    stream_table,
    violation_rows,
)
from .semantics import CyclePolicy, MergeCycleError, load_rules, merge_tsv_rows
from .slicer import (
    DEFAULT_IMPLEMENTATION_DOMAINS,
    GroupConfig,
    build_taxonomy,
)
from .stats import ConstantInputError, InsufficientDataError, run_study

OUTPUT_DIR_ENV = "FBONT_OUT"
T = TypeVar("T")


@contextmanager
def _work_dir(out: str, command: str) -> Iterator[str]:
    """The command's work directory, OUT/.fbont-<command>, removed on entry and on every exit.

    Nothing creates it here. An OUT that did not exist on entry is removed
    on exit if it is empty, so a command that fails leaves no OUT. Each
    command has its own, so two commands can write into one OUT at once.
    """
    work = os.path.join(out, f".fbont-{command}")
    made_out = not os.path.exists(out)
    shutil.rmtree(work, ignore_errors=True)  # what a killed run left behind
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if made_out:
            with suppress(OSError):  # it holds the outputs, or another command's files
                os.rmdir(out)


def _publish(
    args: argparse.Namespace, docs: dict[str, str | Iterable[str]], report: ParseReport | None = None
) -> None:
    """Write each document, given as text or as an iterable of text chunks, under
    the work directory's out/, then rename every file there into --out.

    With a parse report, also write parse_report.json and print the parse
    summary.
    """
    if report is not None:
        docs = {**docs, "parse_report.json": render_json(report.to_dict())}
    staged = os.path.join(args.work, "out")
    os.makedirs(staged, exist_ok=True)
    for name, doc in docs.items():
        with open(os.path.join(staged, name), "w", encoding="utf-8", newline="") as handle:
            for chunk in [doc] if isinstance(doc, str) else doc:
                handle.write(chunk)
    for root, _, files in os.walk(staged):
        target = os.path.join(args.out, os.path.relpath(root, staged))
        os.makedirs(target, exist_ok=True)
        for name in files:
            os.replace(os.path.join(root, name), os.path.join(target, name))
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


def _csv_rows(path: str, columns: Sequence[str]) -> Iterator[Iterable[str]]:
    """The rows of a csv table this run wrote, read back as the columns' values."""
    with open(path, encoding="utf-8", newline="") as handle:
        for record in _records(handle, columns):
            yield record.values()


def _parser_config(args: argparse.Namespace) -> ParserConfig:
    return ParserConfig(strict_ids=args.strict_ids)


def _group_config(args: argparse.Namespace) -> GroupConfig:
    return GroupConfig(frozenset(args.implementation_domain or DEFAULT_IMPLEMENTATION_DOMAINS))


# --- subcommands ----------------------------------------------------------------


def _run(args: argparse.Namespace, *folds) -> tuple[ParseReport, dict]:
    """run_folds over the command's inputs, with its --workers and parser options."""
    return run_folds(args.inputs, folds, args.workers, _parser_config(args))


def cmd_slice(args: argparse.Namespace) -> int:
    shard_root = os.path.join(args.work, "parts") if args.materialize else None
    report, merged = _run(args, SliceFold(shard_root))
    if shard_root is not None:
        concatenate_shards(merged["shard_dirs"], os.path.join(args.work, "out", "slices"))
    bundle = ReportBundle(taxonomy=build_taxonomy(merged["counts"], _group_config(args)))
    docs = bundle.documents(args.format or DEFAULT_TAXONOMY_FORMATS)
    _publish(args, docs, report)
    return 0


def cmd_schema(args: argparse.Namespace) -> int:
    report, merged = _run(args, SchemaFold())
    rows = schema_rows(merged["schemas"])
    formats = ("csv", "json") if args.json else ("csv",)
    _publish(args, {f"schema.{fmt}": render_table(SCHEMA_COLUMNS, rows, fmt) for fmt in formats}, report)
    return 0


def cmd_semantics(args: argparse.Namespace) -> int:
    """Merges, value notations and, given --rules, the objects that break a rule.

    The --rules file is read before the parse, so a bad file fails fast and
    writes nothing, and so the fold keeps, per mid, only the bits of the
    types those rules name, and reads the typing of mids only, and only
    with --rules. The workers write the value notations as shards
    of valuenotes.csv rows and those masks as sorted runs, both under the
    work directory's runs/ (see SemanticsFold). concatenate_shards joins a
    header shard and the shards into valuenotes.csv, which the csv module
    reads back for valuenotes.json; the runs are merged as a stream. Every
    table, merges.tsv too, is written row by row through report's row
    writer, so no table is ever one string here, and no notation is held
    once the parse is done.
    """
    rules = _read_input(args.rules, load_rules) if args.rules else frozenset()
    fold = SemanticsFold(os.path.join(args.work, "runs"), rules, args.accept_reversed)
    report, merged = _run(args, fold)
    violations = fold.violations(merged["type_masks"])
    merge_map = merged["merge_map"]
    docs = {"merges.tsv": merge_tsv_rows(merge_map, CyclePolicy(args.cycle_policy))}  # MergeCycleError: exit 4
    header = os.path.join(args.work, "header")
    os.makedirs(header)
    with open(os.path.join(header, "valuenotes.csv"), "w", encoding="utf-8", newline="") as handle:
        handle.writelines(stream_table(VALUENOTE_COLUMNS, ()))
    concatenate_shards([header, *merged["notations"]], os.path.join(args.work, "out"))
    if args.json:
        notes = _csv_rows(os.path.join(args.work, "out", "valuenotes.csv"), VALUENOTE_COLUMNS)
        docs["valuenotes.json"] = stream_table(VALUENOTE_COLUMNS, notes, "json")
    if args.rules:
        for fmt in ("csv", "json") if args.json else ("csv",):
            docs[f"violations.{fmt}"] = stream_table(VIOLATION_COLUMNS, violation_rows(violations), fmt)
        print(f"violations: {len(violations)}")

    _publish(args, docs, report)
    print(
        f"merge edges: {len(merge_map.edges)}, conflicts: {merge_map.conflicts}, "
        f"value notations: {merged['notation_rows']}"
    )
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    # A dump's taxonomy.csv and schema.csv are rendered and read back as a replay reads them: one join.
    unset = (args.from_counts, args.from_schema).count(None)
    if (bool(args.inputs), unset) not in ((True, 2), (False, 0)):
        print("error: give dump inputs, or both --from-counts and --from-schema", file=sys.stderr)
        return 2
    group_config = _group_config(args)
    report = None
    if args.inputs:
        report, merged = _run(args, SliceFold(), SchemaFold())
        taxonomy = ReportBundle(taxonomy=build_taxonomy(merged["counts"], group_config)).documents(("csv",))
        counts = load_counts_csv(io.StringIO(taxonomy["taxonomy.csv"]))
        scores = load_schema_csv(io.StringIO(render_table(SCHEMA_COLUMNS, schema_rows(merged["schemas"]))))
    else:
        counts = _read_input(args.from_counts, load_counts_csv)
        scores = _read_input(args.from_schema, load_schema_csv)
    rows, skipped = join_scores(counts, scores, group_config)

    for name in skipped:
        print(f"warning: no ontology extracted for domain {name!r}; excluded", file=sys.stderr)
    known = {row.domain for row in rows}
    for name in args.exclude:
        if name not in known:
            print(f"warning: exclusion {name!r} matches no study domain", file=sys.stderr)

    result = run_study(rows, args.exclude)  # too few rows, or a constant variable: exit 3
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
    p_slice.set_defaults(func=cmd_slice)

    p_schema = sub.add_parser("schema", help="summarize each domain's ontology")
    _add_common(p_schema)
    p_schema.add_argument("--json", action="store_true", help="also write schema.json")
    p_schema.set_defaults(func=cmd_schema)

    p_sem = sub.add_parser("semantics", help="merges, value notations, incompatibilities")
    _add_common(p_sem)
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
    p_study.set_defaults(func=cmd_study)

    for p in (p_slice, p_study):
        p.add_argument(
            "--implementation-domain",
            action="append",
            default=None,
            help="override the implementation-group domain list (repeatable)",
        )
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
        with _work_dir(args.out, args.command) as args.work:
            return args.func(args)
    except MergeCycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InsufficientDataError, ConstantInputError) as exc:
        print(f"error: insufficient data: {exc}", file=sys.stderr)
        return 3
    except (OSError, _InputFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerFailure as exc:
        print(f"error: worker failure: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:  # raised here or in a worker, which sends it back
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
