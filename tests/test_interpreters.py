"""Every supported interpreter on PATH writes the same ``study``, slice and semantics outputs.

A gzip range owns the lines whose first byte came out of a read that ended
inside it, so the outputs hold only while every interpreter's ``gzip`` module
reads the same way (3.12 raised its read size to 128 KiB). A materialized
slice copies each well-formed line as it was read, so its files hold only
while every interpreter's parser accepts and slices the same lines.
``semantics`` pickles slotted value types (mids, types, notations) from each
worker to the parent, so its files hold only while every interpreter
rebuilds them alike. For each ``python3.X`` on PATH at or above the
package's floor, this runs ``python3.X -m fbont.cli study``, ``slice
--materialize`` and ``semantics --rules R --json`` on a gzip
file of at least three minimum ranges, holding literals with ``\\\\``,
``\\"``, ``\\n``, ``\\r`` and ``\\t`` escapes, type assertions, replaced-by
edges and value notations, and a property, mids (one of them replaced) and a
slice name that hold a carriage return, which every csv and tsv table must
quote alike (``csv.writer`` quotes it by itself only from 3.13), at 1 and 2
workers, and compares each output tree with this interpreter's.
Interpreters that do not start are skipped; with pyenv, list the versions
to test in ``PYENV_VERSION`` (e.g. ``3.11.7:3.10.13:3.12.1:3.13.0``) so
that their shims resolve.
"""

import base64
import gzip
import os
import random
import re
import subprocess
import sys

import pytest

from conftest import lit_line, obj_line
from fbont.pipeline import GZIP_MIN_RANGE
from test_cli import read_tree, study_fixture_lines

FLOOR = (3, 10)  # requires-python in pyproject.toml
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def interpreters_on_path() -> list[str]:
    names = set()
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        try:
            entries = os.listdir(directory or ".")
        except OSError:
            continue
        for name in entries:
            found = re.fullmatch(r"python3\.(\d+)", name)
            if found and (3, int(found[1])) >= FLOOR:
                names.add(name)
    return sorted(names, key=lambda name: int(name.split(".")[1]))


def skip_unless_it_starts(python: str) -> None:
    probe = subprocess.run([python, "-c", "import sys"], capture_output=True, timeout=60)
    if probe.returncode != 0:
        pytest.skip(f"{python} does not start")


STUDY = ("study",)
SLICE = ("slice", "--materialize")


def run_fbont(python: str, command: tuple, dump: str, out: str, workers: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    argv = [python, "-m", "fbont.cli", *command, dump, "--workers", str(workers), "--out", out]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return read_tree(out)


TYPES = ("film.film", "film.film_series", "people.person", "music.artist", "book.author", "tv.tv_program")
RULES = "/film/film /film/film_series\n/people/person /music/artist\n/book/author /film/film\n"


def semantics_lines(rng: random.Random) -> list[str]:
    """Type assertions of named types, an acyclic replaced-by forest and value notations."""
    lines = []
    for i in range(1_500):
        for typ in rng.sample(TYPES, rng.randint(1, 3)):
            lines.append(obj_line(f"m.t{i}", "type.object.type", typ))
    for i in range(1, 600):
        lines.append(obj_line(f"m.t{i}", "dataworld.gardening_hint.replaced_by", f"m.t{rng.randrange(i)}"))
    for i in range(400):
        kind = "has_value" if i % 3 else "has_no_value"
        lines.append(obj_line("people.person.date_of_birth", f"freebase.valuenotation.{kind}", f"m.t{i}"))
    return lines


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A gzip dump of at least three ranges, and this interpreter's study tree."""
    root = tmp_path_factory.mktemp("interpreters")
    rng = random.Random(94)
    lines, _ = study_fixture_lines()
    # base64 of random bytes barely compresses, so the file spans several ranges
    lines += [
        lit_line(f"m.r{i}", "common.topic.alias", base64.b64encode(rng.randbytes(60)).decode())
        for i in range(7_000)
    ]
    lines += [
        lit_line(f"m.e{i}", "common.topic.description", f'line {i}\\n\\"quoted\\"\\tand C:\\\\dir\\r', "@en")
        for i in range(500)
    ]
    lines += semantics_lines(rng)
    lines += [
        obj_line("people.person.p\rx", "freebase.valuenotation.has_value", "m.t\ry"),
        obj_line("m.t\ry", "type.object.type", "film.film"),
        obj_line("m.t\ry", "type.object.type", "film.film_series"),
        obj_line("m.d\rz", "dataworld.gardening_hint.replaced_by", "m.t\ry"),
        obj_line("m.s0", "fo\ro.bar.baz", "m.o0"),
    ]
    rng.shuffle(lines)
    dump = root / "dump.nt.gz"
    dump.write_bytes(gzip.compress("".join(l + "\n" for l in lines).encode(), 1))
    assert dump.stat().st_size >= 3 * GZIP_MIN_RANGE
    trees = [run_fbont(sys.executable, STUDY, str(dump), str(root / f"ref-w{w}"), w) for w in (1, 2)]
    assert trees[0] == trees[1]
    assert "study.json" in trees[0]
    return str(dump), trees[0]


@pytest.mark.parametrize("python", interpreters_on_path())
def test_study_tree_equals_this_interpreters(python, reference, tmp_path):
    skip_unless_it_starts(python)
    dump, expected = reference
    for workers in (1, 2):
        assert run_fbont(python, STUDY, dump, str(tmp_path / f"w{workers}"), workers) == expected, (python, workers)


@pytest.fixture(scope="module")
def slice_reference(reference, tmp_path_factory):
    """This interpreter's materialized slice tree of the same dump."""
    root = tmp_path_factory.mktemp("slices")
    dump, _ = reference
    trees = [run_fbont(sys.executable, SLICE, dump, str(root / f"ref-w{w}"), w) for w in (1, 2)]
    assert trees[0] == trees[1]
    assert b'\\"quoted\\"' in trees[0]["slices/domain/common.nt"]
    assert b',"fo\ro",' in trees[0]["taxonomy.csv"]
    return trees[0]


@pytest.mark.parametrize("python", interpreters_on_path())
def test_materialized_slice_tree_equals_this_interpreters(python, reference, slice_reference, tmp_path):
    skip_unless_it_starts(python)
    dump, _ = reference
    for workers in (1, 2):
        tree = run_fbont(python, SLICE, dump, str(tmp_path / f"w{workers}"), workers)
        assert tree == slice_reference, (python, workers)


@pytest.fixture(scope="module")
def semantics_reference(reference, tmp_path_factory):
    """The semantics command with its rules file, and this interpreter's tree of the same dump."""
    root = tmp_path_factory.mktemp("semantics")
    dump, _ = reference
    rules = root / "rules.tsv"
    rules.write_text(RULES)
    command = ("semantics", "--rules", str(rules), "--json")
    trees = [run_fbont(sys.executable, command, dump, str(root / f"ref-w{w}"), w) for w in (1, 2)]
    assert trees[0] == trees[1]
    for name in ("merges.tsv", "valuenotes.csv", "violations.csv"):
        assert trees[0][name].count(b"\n") > 100, name
    for name in ("valuenotes.csv", "violations.csv"):
        assert b'"/m/t\ry"' in trees[0][name], name
    assert b'"/m/d\rz"\t"/m/t\ry"\n' in trees[0]["merges.tsv"]
    return command, trees[0]


@pytest.mark.parametrize("python", interpreters_on_path())
def test_semantics_tree_equals_this_interpreters(python, reference, semantics_reference, tmp_path):
    skip_unless_it_starts(python)
    dump, _ = reference
    command, expected = semantics_reference
    for workers in (1, 2):
        tree = run_fbont(python, command, dump, str(tmp_path / f"w{workers}"), workers)
        assert tree == expected, (python, workers)
