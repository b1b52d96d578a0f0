"""Benchmark driver: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload slice-plain --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it runs the workload's ``fbont`` command as a subprocess,
closed loop (one command at a time, ``--workers 2``), for ``--seconds``
seconds, after timing the same command on an empty input a few times
(``setup_s``). Every run's output tree must equal, byte for byte, the
``--workers 1`` reference that prepare.py checked against the oracles.

With ``--trace 1`` it runs traced.py, the traced replica of each workload's
command, and reports the per-layer split; see NOTES.md for what each figure
means and which end-to-end metric it should move.

The last stdout line is the result object; the lines before it are the run
facts and a readable table. Exits 1 when any correctness check fails and 2
when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import ROOT, WORKERS, WORKLOADS, cli_argv, fresh_dir, program_present, run_timed, tree_digest

HERE = os.path.dirname(os.path.abspath(__file__))
FULL_DUMP_LINES = 3.1e9
SETUP_PER_RUN = 2
MIN_RUNS = 3
RUN_TIMEOUT = 60.0
PREPARE_TIMEOUT = 120.0
# Stop starting runs once this much of the 180 s budget is gone.
BUDGET_S = 150.0
UNTRACED_RUNS = 2

# Where a per-layer metric is measured when the workload's own command never
# enters that layer (e.g. semantics.check_s on slice-plain).
HOME = {
    "slicer.fold_s": "slice-plain",
    "slicer.taxonomy_s": "slice-plain",
    "slicer.write_s": "slice-materialize",
    "slicer.bytes_written": "slice-materialize",
    "pipeline.concat_s": "slice-materialize",
    "schema.fold_s": "study-gzip",
    "schema.useful_ratio": "study-gzip",
    "stats.study_s": "study-gzip",
    "semantics.fold_s": "semantics-plain",
    "semantics.check_s": "semantics-plain",
    "semantics.resolve_s": "semantics-plain",
    "semantics.assertions": "semantics-plain",
    "semantics.edges": "semantics-plain",
    "semantics.notations": "semantics-plain",
    "pipeline.payload_mb": "semantics-plain",
    "pipeline.transfer_s": "semantics-plain",
    "pipeline.pool_s": "semantics-plain",
}


def calibrate() -> float:
    """A fixed pure-Python loop; shows machine drift, normalizes nothing."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def git_sha() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


class Ledger:
    """Runs attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def record_run(self, what: str, result, expected_exit: int, outputs_right) -> bool:
        """One run: it must exit as expected, then ``outputs_right()`` must hold."""
        if result.exit_code != expected_exit:
            return self.record(False, f"{what} exited {result.exit_code}, expected {expected_exit}")
        return self.record(outputs_right(), f"{what}: outputs differ from the reference")


def prepare(seed: int, names: list[str], work: str) -> dict | None:
    """Fixture and checked references, built in a separate small process."""
    err = os.path.join(work, "prepare.stderr")
    with open(err, "wb") as handle:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "prepare.py"), "--seed", str(seed), *names],
            stdout=subprocess.PIPE,
            stderr=handle,
            cwd=ROOT,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=PREPARE_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"error: preparing seed {seed} took over {PREPARE_TIMEOUT:.0f} s", file=sys.stderr)
            return None
    with open(err, "r", encoding="utf-8", errors="replace") as handle:
        sys.stderr.write(handle.read())
    if proc.returncode != 0:
        return None
    return json.loads(stdout.decode().strip().splitlines()[-1])


def check_empty_outputs(name: str, out: str) -> bool:
    if WORKLOADS[name].empty_exit != 0:
        return not os.listdir(out)
    with open(os.path.join(out, "parse_report.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)["lines_read"] == 0


def measure_end_to_end(name: str, prep: dict, seconds: int, work: str, ledger: Ledger, t0: float) -> dict:
    """Alternate empty-input and full runs, so both medians sample the same stretch of time."""
    workload = WORKLOADS[name]
    fixture = prep["fixture"]
    reference = prep["references"][name]["digests"]
    setup = []
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        if runs and time.perf_counter() - t0 + 2 * max(r.wall_s for r in runs) > BUDGET_S:
            break
        for _ in range(SETUP_PER_RUN):
            out = fresh_dir(os.path.join(work, "out"))
            result = run_timed(
                cli_argv(workload.argv(fixture, out, WORKERS, empty=True)),
                RUN_TIMEOUT,
                os.path.join(work, "stderr"),
            )
            ledger.record_run(
                f"empty-input run {len(setup)}",
                result,
                workload.empty_exit,
                lambda: check_empty_outputs(name, out),
            )
            setup.append(result.wall_s)
        out = fresh_dir(os.path.join(work, "out"))
        result = run_timed(
            cli_argv(workload.argv(fixture, out, WORKERS)), RUN_TIMEOUT, os.path.join(work, "stderr")
        )
        ledger.record_run(f"timed run {len(runs)}", result, 0, lambda: tree_digest(out) == reference)
        runs.append(result)

    wall = statistics.median(r.wall_s for r in runs)
    lines_per_s = prep["lines"] / wall
    return {
        "wall_s": wall,
        "lines_per_s": lines_per_s,
        "mb_per_s": prep["bytes"] / 1e6 / wall,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": statistics.median(setup),
        "full_dump_h": FULL_DUMP_LINES / lines_per_s / 3600.0,
        "_summary": (
            f"median of {len(runs)} runs (wall min {min(r.wall_s for r in runs):.3f} s, "
            f"max {max(r.wall_s for r in runs):.3f} s); setup_s: median of {len(setup)} empty-input runs"
        ),
    }


def traced_run(name: str, prep: dict, work: str, ledger: Ledger) -> tuple[dict, float] | None:
    tdir = fresh_dir(os.path.join(work, f"trace-{name}"))
    result = run_timed(
        [sys.executable, os.path.join(HERE, "traced.py"), name, prep["fixture"], tdir],
        RUN_TIMEOUT,
        os.path.join(tdir, "stderr"),
    )
    reference = prep["references"][name]["digests"]
    if not ledger.record_run(
        f"traced {name}", result, 0, lambda: tree_digest(os.path.join(tdir, "out")) == reference
    ):
        return None
    with open(os.path.join(tdir, "trace.json"), "r", encoding="utf-8") as handle:
        return json.load(handle), result.wall_s


def layer_metrics(trace: dict) -> dict:
    """Per-layer figures of one traced command; layers it never entered are absent."""
    self_s = trace["self_s"]
    counts = trace["counts"]
    m: dict[str, float] = {}

    def span(metric: str, *names: str) -> None:
        if any(n in self_s for n in names):
            m[metric] = sum(self_s.get(n, 0.0) for n in names)

    for metric, names in {
        "parser.read_s": ("parser.read",),
        "parser.decode_s": ("parser.decode",),
        "parser.parse_s": ("parser.parse",),
        "model.normalize_iri_s": ("model.normalize_iri",),
        "slicer.fold_s": ("slicer.fold",),
        "slicer.write_s": ("slicer.write",),
        "slicer.taxonomy_s": ("slicer.taxonomy",),
        "schema.fold_s": ("schema.fold",),
        "semantics.fold_s": ("semantics.fold",),
        "semantics.check_s": ("semantics.check",),
        "semantics.resolve_s": ("semantics.resolve",),
        "pipeline.plan_s": ("pipeline.plan",),
        "pipeline.merge_s": ("pipeline.merge",),
        "pipeline.concat_s": ("pipeline.concat",),
        "pipeline.transfer_s": ("pipeline.pickle", "pipeline.unpickle"),
        "stats.study_s": ("stats.study",),
        "report.render_s": ("report.render",),
        "cli.import_s": ("cli.import",),
        "cli.write_s": ("cli.write",),
        "trace.tally_s": ("trace.tally",),
    }.items():
        span(metric, *names)
    if counts["partitions"] > 1:
        m["pipeline.pool_s"] = self_s.get("pipeline.run", 0.0)
        m["pipeline.payload_mb"] = counts["payload_bytes"] / 1e6
    m["parser.read_mb_per_s"] = counts["bytes_read"] / 1e6 / m["parser.read_s"]
    m["parser.ns_per_line"] = (
        (m["parser.decode_s"] + m["parser.parse_s"] + m["model.normalize_iri_s"]) * 1e9 / counts["lines"]
    )
    m["parser.lines"] = counts["lines"]
    m["parser.malformed"] = counts["malformed"]
    m["model.iri_calls"] = counts["iri_calls"]
    m["model.distinct_predicate_ratio"] = counts["distinct_predicates"] / counts["triples"]
    if counts["schema_fed"]:
        m["schema.useful_ratio"] = counts["schema_useful"] / counts["schema_fed"]
    for key in ("assertions", "edges", "notations"):
        if key in counts:
            m[f"semantics.{key}"] = counts[key]
    if "bytes_written" in counts:
        m["slicer.bytes_written"] = counts["bytes_written"]
    m["pipeline.partition_skew"] = trace["partition_skew"]
    m["trace.coverage"] = trace["coverage"]
    m["trace.partition_coverage"] = trace["partition_coverage"]
    return m


def measure_layers(name: str, prep: dict, seconds: int, work: str, ledger: Ledger, t0: float) -> dict:
    fixture = prep["fixture"]
    reference = prep["references"][name]["digests"]
    untraced = {}
    for workers, reps in ((1, 1), (WORKERS, UNTRACED_RUNS)):
        runs = []
        for _ in range(reps):
            out = fresh_dir(os.path.join(work, "out"))
            result = run_timed(
                cli_argv(WORKLOADS[name].argv(fixture, out, workers)),
                RUN_TIMEOUT,
                os.path.join(work, "stderr"),
            )
            ledger.record_run(
                f"untraced --workers {workers} run", result, 0, lambda: tree_digest(out) == reference
            )
            runs.append(result)
        untraced[workers] = runs

    own: list[tuple[dict, float]] = []
    start = time.perf_counter()
    while not own or (time.perf_counter() - start < seconds and time.perf_counter() - t0 < BUDGET_S / 2):
        traced = traced_run(name, prep, work, ledger)
        if traced is None:
            return {}
        own.append(traced)
    per_run = [layer_metrics(trace) for trace, _ in own]
    metrics = {key: statistics.median(run[key] for run in per_run) for key in per_run[0]}
    homes = {}
    for other in WORKLOADS:
        if other != name:
            traced = traced_run(other, prep, work, ledger)
            if traced is None:
                return {}
            homes[other] = layer_metrics(traced[0])

    wall_w2 = statistics.median(r.wall_s for r in untraced[WORKERS])
    cpu_w2 = statistics.median(r.cpu_s for r in untraced[WORKERS])
    metrics["pipeline.cpu_util"] = cpu_w2 / (wall_w2 * WORKERS)
    metrics["pipeline.speedup_w2"] = untraced[1][0].wall_s / wall_w2
    metrics["trace.overhead"] = statistics.median(wall for _, wall in own) / wall_w2 - 1.0
    metrics["_homes"] = homes
    metrics["_summary"] = f"median of {len(own)} traced runs; other workloads traced once"
    return metrics


def fill_from_homes(metrics: dict, wanted: list[str]) -> dict[str, str]:
    """Take layers this workload never enters from their home workload's trace."""
    sources = {}
    for metric in wanted:
        if metric not in metrics:
            where = HOME[metric]
            metrics[metric] = metrics["_homes"][where][metric]
            sources[metric] = where
    return sources


def main() -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description="fbont benchmark driver")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    missing = program_present()
    if missing:
        print(f"error: {missing}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    calib_start = calibrate()
    work = fresh_dir(os.path.join(ROOT, "bench", ".cache", f"work-{args.workload}"))
    names = sorted(WORKLOADS) if args.trace else [args.workload]
    ledger = Ledger()
    prep = prepare(args.seed, names, work)
    if prep is None:
        ledger.record(False, "reference outputs failed the oracle checks")
        measured: dict = {}
    elif args.trace:
        measured = measure_layers(args.workload, prep, args.seconds, work, ledger, t0)
    else:
        measured = measure_end_to_end(args.workload, prep, args.seconds, work, ledger, t0)
    calib_end = calibrate()

    correct = not ledger.failures and bool(measured)
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        "machine.calib_s": {"start": calib_start, "end": calib_end},
    }
    if prep is not None:
        facts["fixture"] = {"lines": prep["lines"], "mb": prep["bytes"] / 1e6}
    print("facts " + json.dumps(facts, sort_keys=True))
    for failure in ledger.failures:
        print(f"FAILED: {failure}")

    metrics = {}
    if correct:
        if args.trace:
            measured["machine.calib_s"] = (calib_start + calib_end) / 2
            sources = fill_from_homes(measured, [m["name"] for m in listed])
        else:
            sources = {}
        print(f"{args.workload}: fbont {WORKLOADS[args.workload].command} --workers {WORKERS}, {measured['_summary']}")
        for metric in listed:
            value = measured[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            note = f"  (from {sources[metric['name']]})" if metric["name"] in sources else ""
            print(f"  {metric['name']:<32} {value:>16.6g} {metric['unit']}{note}")
    print(
        f"  {'error_rate':<32} {len(ledger.failures) / ledger.attempted:>16.6g} "
        f"({len(ledger.failures)} of {ledger.attempted} runs failed)"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": len(ledger.failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
