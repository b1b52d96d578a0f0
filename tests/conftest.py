"""Shared fixture helpers: dump-line builders, feeding triples to one fold, reading mask runs and
notation shards back, and the published domain census."""

from __future__ import annotations

import csv
import io
import os
import shutil
import sys
import tempfile
from collections import Counter

import pytest

from fbont.model import parse_ref
from fbont.pipeline import Partition
from fbont.semantics import NotationKind, ValueNotation, read_mask_run

sys.path.insert(0, os.path.dirname(__file__))

NS = "http://rdf.freebase.com/ns/"

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
# Where the semantics folds built without a tmp_path write their notation
# shards and mask runs; every name there is unique, and the session removes it.
RUN_ROOT = os.path.join(tempfile.gettempdir(), f"fbont-test-runs-{os.getpid()}")
CENSUS_PATH = os.path.join(DATA_DIR, "domain_census.tsv")


def fb(local: str) -> str:
    """Bracketed Freebase-namespace IRI from a dotted local name."""
    return f"<{NS}{local}>"


def line(subject: str, predicate: str, obj: str) -> str:
    """One dump-convention line from already-bracketed/quoted terms."""
    return f"{subject}\t{predicate}\t{obj}\t."


def obj_line(s_local: str, p_local: str, o_local: str) -> str:
    return line(fb(s_local), fb(p_local), fb(o_local))


def lit_line(s_local: str, p_local: str, lexical: str, suffix: str = "") -> str:
    return line(fb(s_local), fb(p_local), f'"{lexical}"{suffix}')


def dump_stream(lines: list[str]) -> io.BytesIO:
    """The lines as one UTF-8 binary dump, each ended by a newline.

    The parser reads bytes only, so a test hands it lines the way the CLI
    does: as a binary stream, which ``read_blocks`` cuts into blocks.
    """
    return io.BytesIO("".join(l + "\n" for l in lines).encode())


def fold_triples(fold, triples) -> tuple[dict, Counter]:
    """(payload, lint) of one fold fed these triples through its own start() closures.

    Each triple goes to ``feed`` (if the fold has one), as Job.run feeds a
    built triple, and is counted by predicate, as the parser counts every
    well-formed line; ``finish`` takes those tallies and gives the payload,
    so a test drives the code the CLI runs.
    """
    lint: Counter = Counter()
    feed, finish, *_ = fold.start(Partition("-", 0, -1, 0), lint)
    tallies: Counter = Counter()
    for triple in triples:
        if feed is not None:
            feed(triple)
        tallies[triple.predicate] += 1
    return finish(list(tallies.items())), lint


def read_masks(runs) -> dict[str, int]:
    """A semantics payload's ``type_masks`` runs read back as one suffix -> mask map.

    Each run must hold each of its suffixes once, in str order, with a mask;
    the masks of a suffix found in several runs are ORed, as the merge does.
    """
    masks: dict[str, int] = {}
    for path in runs:
        records = list(read_mask_run(path))
        suffixes = [suffix for suffix, _ in records]
        assert suffixes == sorted(set(suffixes)), path
        for suffix, mask in records:
            assert mask > 0, path
            masks[suffix] = masks.get(suffix, 0) | mask
    return masks


def read_notations(shards) -> list[ValueNotation]:
    """A semantics payload's ``notations`` shard directories read back as value notations, in order.

    A directory holds one valuenotes.csv of headerless rows, or does not
    exist: its partition had no notation.
    """
    rows = []
    for shard in shards:
        if os.path.exists(shard):
            assert os.listdir(shard) == ["valuenotes.csv"], shard
            with open(os.path.join(shard, "valuenotes.csv"), encoding="utf-8", newline="") as handle:
                rows += csv.reader(handle)
    return [
        ValueNotation(parse_ref(prop), parse_ref(obj), NotationKind(kind), orientation)
        for prop, obj, kind, orientation in rows
    ]


@pytest.fixture(autouse=True, scope="session")
def remove_run_root():
    yield
    shutil.rmtree(RUN_ROOT, ignore_errors=True)


def load_census() -> list[dict]:
    """The 105 published (group, name, pattern, triples, pct strings) rows."""
    rows = []
    with open(CENSUS_PATH, "r", encoding="utf-8") as handle:
        header = None
        for raw in handle:
            text = raw.rstrip("\n")
            if not text or text.startswith("#"):
                continue
            parts = text.split("\t")
            if header is None:
                header = parts
                continue
            record = dict(zip(header, parts))
            record["triples"] = int(record["triples"])
            rows.append(record)
    return rows


@pytest.fixture
def write_dump(tmp_path):
    """Factory writing a list of lines as an .nt file, returning its path."""

    def _write(lines: list[str], name: str = "dump.nt") -> str:
        path = tmp_path / name
        path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        return str(path)

    return _write
