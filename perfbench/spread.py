"""Run one workload at several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py WORKLOAD SEED [SEED ...] [--seconds S] [--trace 1]
        [--record FILE]

Prints, per end-to-end metric, the median of the runs and the distance
between their first and third quartiles as a share of the median, next
to the metric's bound in BENCHMARK.json.  A bound needs spreads well
inside it for two sets of runs of one commit to agree.  With --trace 1
it prints the per-layer counts that must repeat exactly for a seed.
--record adds every run's metrics and the summary, under the workload's
name, to a JSON trajectory file such as perfbench/trajectory/*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench/run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = {}
    if args.trace:
        for name in sorted(runs[0]["metrics"]):
            if name.endswith((".calls", ".errors", ".decomp_per_op", ".refinements", ".flagged")):
                print(f"  {name:32s} " + " ".join(str(r["metrics"][name]["value"]) for r in runs))
    else:
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            summary[name] = {"median": median, "unit": first["unit"]}
            line = f"  {name:18s} median {median:12.6g} {first['unit']:5s}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                summary[name].update(q1=q1, q3=q3, spread=spread(values))
                line += f" spread {spread(values):7.4f} bound {bounds.get(name, '-')}"
            print(line)
    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        key = args.workload + (".trace" if args.trace else "")
        record[key] = {
            "env": env, "seconds": seconds, "seeds": args.seeds, "summary": summary,
            "runs": [
                {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                 **{k: v["value"] for k, v in r["metrics"].items()}}
                for r in runs
            ],
        }
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
