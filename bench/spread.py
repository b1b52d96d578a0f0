"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 [--workload slice-plain ...] [--seconds 10]

Runs bench/run.py once per (workload, seed), one after another, and prints
for each metric the median, the quartiles and the interquartile range as a
share of the median next to the metric's bound in BENCHMARK.json. Each run's
result line is appended to bench/.cache/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import ROOT, WORKLOADS


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--write", default=None, help="also write the summary as JSON to this path")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    log = os.path.join(ROOT, "bench", ".cache", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    failed = False
    summary: dict = {}
    facts: dict = {}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE,
                cwd=ROOT,
                text=True,
            )
            took = time.perf_counter() - started
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for line in lines:
                if line.startswith("facts ") and not facts:
                    facts = json.loads(line[len("facts "):])
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": name, "seed": seed, "took_s": took, **result}) + "\n")
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})")
                failed = True
                continue
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed} ({took:.1f} s): " + " ".join(
                f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()), flush=True)
        for metric in spec["end_to_end"]:
            series = values.get(metric["name"], [])
            if len(series) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(series, n=4)
            summary.setdefault(name, {})[metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(series),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(series),
                "runs": len(series),
            }
            print(
                f"  {name:<18} {metric['name']:<14} median {statistics.median(series):.5g} "
                f"q1 {q1:.5g} q3 {q3:.5g} spread {(q3 - q1) / statistics.median(series):.4f} "
                f"(bound {metric['bound']})"
            )
    if args.write:
        with open(args.write, "w", encoding="utf-8") as handle:
            machine = {key: facts.get(key) for key in ("nproc", "python", "git_sha", "src_lines", "fixture")}
            json.dump(
                {"seeds": args.seeds, "seconds": seconds, "machine": machine, "workloads": summary},
                handle,
                indent=2,
            )
            handle.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
