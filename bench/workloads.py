"""The four CLI workloads and the shared process helpers of the benchmark."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(ROOT, "bench", "launch.py")
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    command: str
    input: str
    extra: tuple[str, ...] = ()
    # exit code of the command on an empty input (study has no rows: 3)
    empty_exit: int = 0

    def argv(self, fixture: str, out: str, workers: int, empty: bool = False) -> list[str]:
        source = ("empty" + self.input[len("dump"):]) if empty else self.input
        extra = [arg.replace("{fixture}", fixture) for arg in self.extra]
        return [
            self.command,
            os.path.join(fixture, source),
            "--workers",
            str(workers),
            "--out",
            out,
            *extra,
        ]


WORKLOADS = {
    "slice-plain": Workload("slice", "dump.nt"),
    "study-gzip": Workload("study", "dump.nt.gz", ("--exclude", "music"), empty_exit=3),
    "semantics-plain": Workload("semantics", "dump.nt", ("--rules", "{fixture}/rules.tsv")),
    "slice-materialize": Workload("slice", "dump.nt", ("--materialize",)),
}


def program_present() -> str | None:
    """Why the program cannot be run from this checkout, or None when it can."""
    for rel in ("src/fbont/cli.py", "tests/dumpgen.py", "tests/data/domain_census.tsv"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            return f"missing {rel}: run from the root of a full checkout"
    return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("FBONT_OUT", None)
    return env


@dataclass
class Result:
    exit_code: int | None  # None: killed at the timeout
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_timed(argv: list[str], timeout: float, stderr_path: str) -> Result:
    """Time argv from exec to exit through launch.py; see there for why."""
    proc = subprocess.run(
        [sys.executable, "-S", LAUNCH, str(timeout), stderr_path, *argv],
        env=child_env(),
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        timeout=timeout + 30.0,
        check=True,
    )
    return Result(**json.loads(proc.stdout))


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "fbont.cli", *args]


def tree_digest(directory: str) -> dict[str, str]:
    """relpath -> sha256 of every file under directory."""
    digests = {}
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h = hashlib.sha256()
            with open(path, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    h.update(chunk)
            digests[os.path.relpath(path, directory)] = h.hexdigest()
    return digests


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
