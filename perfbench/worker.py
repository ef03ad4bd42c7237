"""One workload run inside a fresh interpreter, started by ``run.py``.

Usage: python perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT_JSON [SPANS]

Untraced (TRACE 0), a pair workload runs its closed loop for SECONDS,
with a speed-probe sample after each round, and reports the end-to-end
numbers.  Each
request is timed on its own; making its inputs and checking its output
happen outside that time, with no wrapper installed.  Traced (TRACE 1),
it runs a fixed number of rounds once untraced and once traced and
reports the per-layer numbers; the traced outputs are checked after the
wrappers are removed.  ``acceptance`` runs ``statgeom.cli.main``
in-process once each way, because wrappers cannot reach a subprocess.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from metrics import op_metrics
from probe import SpeedProbe, speed_scale
from tracing import Tracer, span_cost
from workloads import PAIR_WORKLOADS, verify_all_passed, verify_all_validator

import statgeom as sg
import statgeom.serialize  # noqa: F401  (reached as sg.serialize)

WARMUP = 3
STATE_PAIR_KERNELS = (
    "eigh", "eig_hermitian", "matrix_sqrt", "density_matrix",
    "fidelity", "fuchs_caves_operator", "geodesic",
)
KERNELS = {
    "state_pairs": [(fn, d) for fn in STATE_PAIR_KERNELS for d in (2, 4, 8, 16, 32)],
    "billiard": [("bounce_points", d) for d in (2, 4, 8, 12)],
}


def passes(workload, args, out) -> bool:
    """Whether one request's output passes the workload's checks."""
    if isinstance(out, Exception):
        return False
    try:
        return bool(workload.check(sg, args[0], args[1], out))
    except Exception:  # a check that cannot run has failed
        return False


def run_rounds(workload, seed, rounds=None, seconds=None, first_round=0, tracer=None,
               probe=None):
    """Issue rounds of requests, one per dimension, until done.

    Runs ``rounds`` rounds from round ``first_round`` on, or as many as
    start within ``seconds``.  Untraced, each output is checked as soon as
    its request's time is taken; traced, the inputs and outputs are kept
    for the caller to check once the wrappers are gone.  ``probe`` takes
    one speed sample after each round.
    Returns per-op ``(dim, latency_s)``, the failed count and the kept
    ``(args, output)`` pairs.
    """
    ops, kept, failed = [], [], 0
    start = perf_counter()
    k = 0
    while (k < rounds) if rounds is not None else (perf_counter() - start < seconds):
        round_ = first_round + k
        for j, dim in enumerate(workload.dims):
            args = workload.inputs(seed, round_, dim)
            if tracer is not None:
                tracer.request = round_ * len(workload.dims) + j
                tracer.dim = dim
            t0 = perf_counter()
            try:
                out = workload.request(sg, *args)
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            ops.append((dim, perf_counter() - t0))
            if tracer is None:
                failed += not passes(workload, args, out)
            else:
                kept.append((args, out))
        if probe is not None:
            probe.sample()
        k += 1
    return ops, failed, kept


def by_dim(workload, ops) -> dict:
    out = {dim: [] for dim in workload.dims}
    for dim, latency in ops:
        out[dim].append(latency)
    return out


def pair_untraced(workload, seed: int, seconds: float) -> dict:
    run_rounds(workload, seed, rounds=WARMUP)
    probe = SpeedProbe()
    ops, failed, _ = run_rounds(
        workload, seed, seconds=seconds, first_round=WARMUP, probe=probe
    )
    args = (by_dim(workload, ops), workload.small, workload.large)
    scale = probe.scale()
    metrics, tail_info = op_metrics(*args, scale=scale)
    return {
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "raw": op_metrics(*args)[0],
        "scale": scale,
        "tail": tail_info,
    }


def pair_traced(workload, seed: int, spans_path) -> dict:
    """One untraced and one traced pass over the same ``trace_rounds``
    rounds, so the traced counts repeat exactly for a seed.

    The measured ratio of the two passes' request times is recorded next
    to ``trace.overhead_frac``, but on a shared machine its noise is as
    large as the overhead itself.
    """
    run_rounds(workload, seed, rounds=WARMUP)
    probe = SpeedProbe()
    untraced_ops, _, _ = run_rounds(
        workload, seed, rounds=workload.trace_rounds, first_round=WARMUP, probe=probe
    )
    untraced = sum(latency for _, latency in untraced_ops)
    nominal = untraced * probe.scale()
    tracer = Tracer()
    tracer.install()
    try:
        ops, _, kept = run_rounds(
            workload, seed, rounds=workload.trace_rounds, first_round=WARMUP, tracer=tracer
        )
    finally:
        tracer.remove()
    traced = sum(latency for _, latency in ops)
    return {
        "attempted": len(ops),
        "failed": sum(not passes(workload, args, out) for args, out in kept),
        "metrics": layer_report(
            tracer, len(ops), overhead(tracer, nominal), KERNELS.get(workload.name, [])
        ),
        "measured_overhead_frac": traced / untraced - 1.0,
        "spans": write_spans(tracer, spans_path),
    }


def verify_all(cli, seed: int) -> tuple[int, str, float]:
    """Run ``statgeom verify-all`` in-process; return code, stdout, wall."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify-all", "--seed", str(seed)])
    return code, out.getvalue(), perf_counter() - start


def acceptance_traced(seed: int, spans_path) -> dict:
    """One untraced and one traced verify-all run; the request is the
    traced run, which must also print the untraced run's bytes."""
    import statgeom.cli as cli

    validator = verify_all_validator()
    before = speed_scale()
    code0, text0, untraced = verify_all(cli, seed)
    scale = (before + speed_scale()) / 2
    tracer = Tracer()
    tracer.request = 0
    tracer.install()
    try:
        code1, text1, traced = verify_all(cli, seed)
    finally:
        tracer.remove()
    ok = verify_all_passed(code0, text0, validator) and verify_all_passed(code1, text1, validator)
    return {
        "attempted": 1,
        "failed": int(not ok or text0 != text1),
        "metrics": layer_report(tracer, 1, overhead(tracer, untraced * scale), []),
        "measured_overhead_frac": traced / untraced - 1.0,
        "spans": write_spans(tracer, spans_path),
    }


def overhead(tracer: Tracer, untraced: float) -> float:
    """``trace.overhead_frac``: the traced pass's spans times the cost of
    one span, over the untraced pass's time; both at nominal speed."""
    cost = span_cost()
    return len(tracer.spans) * cost * speed_scale() / untraced


def layer_report(tracer: Tracer, ops: int, overhead_frac: float, kernels) -> dict:
    """Every per-layer metric; one not exercised by this workload reads 0."""
    out = tracer.layer_metrics()
    counters = tracer.counters
    refinements = counters["billiard.refinements"]
    out["lapack.decomp_per_op"] = out["lapack.calls"] / ops
    out["billiard.refinements"] = refinements
    out["billiard.contact_yield"] = counters["billiard.contacts"] / refinements if refinements else 0.0
    out["billiard.flagged"] = counters["billiard.flagged"]
    for n in range(1, 11):
        out[f"acceptance.criterion_{n}_s"] = float(counters[f"acceptance.criterion_{n}_s"])
    out["trace.overhead_frac"] = overhead_frac
    durations = {}
    for name, _, start, end, _, _, dim, _ in tracer.spans:
        durations.setdefault((name, dim), []).append(end - start)
    for kind in KERNELS.values():
        for fn, dim in kind:
            samples = durations.get((fn, dim)) if (fn, dim) in kernels else None
            out[f"kernel.{fn}.p50_us.d{dim}"] = statistics.median(samples) * 1e6 if samples else 0.0
    return out


def write_spans(tracer: Tracer, path) -> int:
    if path:
        tracer.write(path)
    return len(tracer.spans)


def main(argv) -> int:
    workload, seed, seconds, trace, out_path = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    if workload == "acceptance":
        if not trace:
            raise SystemExit("untraced acceptance runs as a subprocess of run.py")
        result = acceptance_traced(seed, spans_path)
    elif trace:
        result = pair_traced(PAIR_WORKLOADS[workload], seed, spans_path)
    else:
        result = pair_untraced(PAIR_WORKLOADS[workload], seed, seconds)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
