"""The documented routes into the library run as documented.

Each demo prints the text pinned under tests/data/demos/, in development mode
with warnings as errors. A demo is run as a user runs it, as its own process,
so a leaked file handle or any other warning fails it. The absolute
``demos/out`` path that a demo prints is compared as ``$DEMOS_OUT``.

The README's Library example runs on a gzip dump, and its counts are checked
against the naive filter oracle and its scores against the hand-tallied
schema fixture.
"""

import gzip
import os
import re
import subprocess
import sys

import pytest

from dumpgen import oracle_slice_counts, random_dump_lines
from fbont import pipeline
from test_schema import SCHEMA_FIXTURE

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DEMOS = os.path.join(ROOT, "demos")
EXPECTED = os.path.join(os.path.dirname(__file__), "data", "demos")


@pytest.mark.parametrize("name", sorted(n[:-3] for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_prints_the_pinned_text(name):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    argv = [sys.executable, "-X", "dev", "-W", "error", os.path.join(DEMOS, f"{name}.py")]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    with open(os.path.join(EXPECTED, f"{name}.txt"), encoding="utf-8") as handle:
        expected = handle.read()
    assert result.stdout.replace(os.path.join(DEMOS, "out"), "$DEMOS_OUT") == expected


def library_example() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    return blocks[0]


@pytest.mark.parametrize("workers", [1, 2])
def test_readme_library_example_counts_match_the_oracle(tmp_path, monkeypatch, workers):
    lines = random_dump_lines(3_000, seed=19, malformed_rate=0.01) + SCHEMA_FIXTURE
    (tmp_path / "dump.nt.gz").write_bytes(gzip.compress("".join(l + "\n" for l in lines).encode()))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pipeline, "GZIP_MIN_RANGE", 1024)  # so the small file splits into ranges
    assert len(pipeline.plan_partitions(["dump.nt.gz"], workers)) == workers
    code = library_example()
    assert code.count("workers=4") == 1
    namespace: dict = {}
    exec(code.replace("workers=4", f"workers={workers}"), namespace)
    counts = {(row.key.kind, row.key.name): row.triples for row in namespace["taxonomy"]}
    assert counts == oracle_slice_counts(lines)
    assert namespace["report"].triples_ok == sum(counts.values())
    assert namespace["scores"] == {"people": 2.0, "film": (3 + 1) / (1 + 2), "music": 0.0}
