"""Build (or reuse) one seed's fixture and the checked reference outputs.

Run as its own process by run.py, so the driver that times the CLI stays
small: a child's peak RSS as wait4 reports it includes its parent's RSS at
fork time.

For each named workload it runs the CLI once with ``--workers 1`` into
``<fixture>/ref-<workload>``, checks that tree against the independent
oracles, and records the tree's digests in ``ref-<workload>.json``. Timed
runs are then compared byte for byte with those digests. Prints one JSON
object; exits 1 when a reference fails its oracle checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from workloads import ROOT, WORKLOADS, cli_argv, fresh_dir, run_timed, tree_digest

sys.path.insert(0, os.path.join(ROOT, "tests"))

import checks  # noqa: E402  (needs tests/ on sys.path for dumpgen)
import fixture  # noqa: E402

REFERENCE_TIMEOUT = 60.0


def ensure_reference(name: str, fixture_dir: str) -> tuple[dict, list[str]]:
    record_path = os.path.join(fixture_dir, f"ref-{name}.json")
    if os.path.exists(record_path):
        with open(record_path, "r", encoding="utf-8") as handle:
            return json.load(handle), []
    out = fresh_dir(os.path.join(fixture_dir, f"ref-{name}"))
    argv = cli_argv(WORKLOADS[name].argv(fixture_dir, out, workers=1))
    result = run_timed(argv, REFERENCE_TIMEOUT, os.path.join(fixture_dir, f"ref-{name}.stderr"))
    if result.exit_code != 0:
        return {}, [f"{name}: reference run exited {result.exit_code}"]
    problems = [f"{name}: {p}" for p in checks.check_reference(name, out, fixture_dir)]
    if problems:
        return {}, problems
    record = {"digests": tree_digest(out), "wall_s": result.wall_s}
    with open(record_path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    os.replace(record_path + ".tmp", record_path)
    return record, []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    fixture_dir = fixture.ensure_fixture(args.seed, ROOT)
    with open(os.path.join(fixture_dir, "truth.json"), "r", encoding="utf-8") as handle:
        truth = json.load(handle)
    refs = {}
    problems: list[str] = []
    for name in args.workloads:
        refs[name], found = ensure_reference(name, fixture_dir)
        problems += found
    for problem in problems:
        print(f"oracle check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "fixture": fixture_dir,
                "lines": truth["lines"],
                "bytes": truth["bytes"],
                "references": refs,
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
