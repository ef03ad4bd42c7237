"""statgeom benchmark: one workload, one seed, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {acceptance,state_pairs,billiard,means_classical}
        [--seed N] [--seconds S] [--trace {0,1}]

Prints the environment, a line per metric with its unit, and last a JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the ``end_to_end`` ones of BENCHMARK.json,
measured with no wrapper installed; with ``--trace 1`` they are the
``per_layer`` ones, from a separate traced run.  See perfbench/README.md.

The load runs in one process on one thread: the BLAS and OpenMP thread
variables are set to 1 here, for this process and its children only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from probe import speed_scale  # noqa: E402
from workloads import (  # noqa: E402
    ACCEPTANCE_WHY, PAIR_WORKLOADS, verify_all_passed, verify_all_validator,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Why each workload is measured, as workloads.py records it.
WORKLOADS = {"acceptance": ACCEPTANCE_WHY, **{name: w.why for name, w in PAIR_WORKLOADS.items()}}
DEFAULT_SEED = 1729
# Fresh-interpreter imports timed per run; setup_s is their median.
SETUP_IMPORTS = 9
# Printed and recorded, but not in BENCHMARK.json (see README.md).
EXTRA_UNITS = {"verify_all_s": "s", "op_tail_ms": "ms", "ops_per_s.mean": "1/s"}
# Every child must end within this many seconds of the start of the run.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv, deadline: float, stdout=subprocess.DEVNULL) -> tuple[int, float, float]:
    """Run a child to completion; return its exit code, wall seconds and
    peak resident memory in MB, read from the child's own rusage.

    A thread blocks in ``wait4`` so the end is seen at once without
    polling; a child still running at ``deadline`` is killed.
    """
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=stdout)
    reaped = []
    waiter = threading.Thread(target=lambda: reaped.append(os.wait4(proc.pid, 0)))
    waiter.start()
    waiter.join(max(0.0, deadline - perf_counter()))
    wall = perf_counter() - start
    if not reaped:
        proc.kill()
        waiter.join()
        raise BenchError(f"{' '.join(argv[1:3])} did not finish in time")
    _, status, usage = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def setup_seconds(deadline: float) -> tuple[float, float]:
    """Median time of a fresh interpreter running ``import statgeom``, at
    nominal speed and raw.

    One untimed import first writes the bytecode caches a user would have.
    Each import's wall time is scaled by the speed probe's reference ops
    run in this process just before and just after it (see probe.py).
    """
    argv = [sys.executable, "-c", "import statgeom"]
    scaled, raw = [], []
    for i in range(SETUP_IMPORTS + 1):
        before = speed_scale()
        code, wall, _ = spawn(argv, deadline)
        after = speed_scale()
        if code != 0:
            raise BenchError("import statgeom failed")
        if i:
            raw.append(wall)
            scaled.append(wall * (before + after) / 2)
    return statistics.median(scaled), statistics.median(raw)


def acceptance_untraced(seed: int, seconds: float, deadline: float) -> dict:
    """Fresh ``python -m statgeom.cli verify-all --seed S`` processes, as
    many as start within ``seconds``; ``verify_all_s`` is their median
    wall time, not scaled by the speed probe.

    A run fails when it exits non-zero, its stdout fails the schema, it
    does not pass, or it prints other bytes than the first run.
    """
    validator = verify_all_validator()
    stdout_path = OUT / "verify-all.json"
    argv = [sys.executable, "-m", "statgeom.cli", "verify-all", "--seed", str(seed)]
    walls, peak, failed, first = [], 0.0, 0, None
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        with open(stdout_path, "wb") as out:
            code, wall, rss = spawn(argv, deadline, stdout=out)
        text = stdout_path.read_bytes()
        first = text if first is None else first
        peak = max(peak, rss)
        walls.append(wall)
        failed += text != first or not verify_all_passed(code, text, validator)
    return {
        "attempted": len(walls), "failed": failed,
        "metrics": {"verify_all_s": statistics.median(walls), "peak_rss_mb": peak},
    }


def worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    out_path = OUT / f"worker-{workload}.json"
    out_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
            str(trace), str(out_path)]
    if trace:
        argv.append(str(OUT / f"spans-{workload}.tsv"))
    code, _, rss = spawn(argv, deadline, stdout=None)
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    result = json.loads(out_path.read_text())
    if not trace:
        result["metrics"]["peak_rss_mb"] = rss
    return result


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    bench = benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src/statgeom/__init__.py").is_file():
        print("perfbench: src/statgeom is missing; run from a statgeom checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        env = environment()
        if args.trace:
            result = worker(args.workload, args.seed, args.seconds, 1, deadline)
            declared = bench["per_layer"]
        else:
            setup_s, setup_raw = setup_seconds(deadline)
            if args.workload == "acceptance":
                result = acceptance_untraced(args.seed, args.seconds, deadline)
            else:
                result = worker(args.workload, args.seed, args.seconds, 0, deadline)
            result["metrics"]["setup_s"] = setup_s
            result.setdefault("raw", {})["setup_s"] = setup_raw
            declared = bench["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = {**EXTRA_UNITS, **{m["name"]: m["unit"] for m in declared}}
    computed = {name: {"value": v, "unit": units[name]} for name, v in result["metrics"].items()}
    if args.workload in {w["name"] for w in bench["workloads"]}:
        metrics = {m["name"]: computed[m["name"]] for m in declared}
    else:  # run by hand only: report what it measures
        metrics = computed
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload, "why": WORKLOADS[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "metrics": computed, "raw": result.get("raw"), "scale": result.get("scale"),
        "tail": result.get("tail"), "spans": result.get("spans"),
        "measured_overhead_frac": result.get("measured_overhead_frac"),
    }
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed}: {WORKLOADS[args.workload]}")
    raw = result.get("raw") or {}
    if raw:
        print("  times at nominal speed, raw wall times in brackets")
    for name, m in computed.items():
        line = f"  {name:40s} {m['value']:14.6g} {m['unit']}"
        if name in raw and raw[name] != m["value"]:
            line += f"  [{raw[name]:.6g}]"
        print(line)
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} ratio ({failed} failed of {attempted})")
    if record["tail"]:
        t = record["tail"]
        print(f"  op_tail_ms is p{t['percentile']:.2f} of {t['samples']} requests, "
              f"{t['beyond']} beyond it")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
