"""Decode benchmark for sparsevcd.

    python3 decodebench/run.py --workload logical-512 --seed 0 --seconds 30 --trace 0

Run from the repository root. It imports the engine from ``src/`` and fails
(exit 2, nothing on stdout) when that is missing. ``--trace 0`` times the
workload untraced and prints the end-to-end metrics, CPU times scaled by a
speed probe run between operations; ``--trace 1`` wraps the
engine's public functions and prints the per-layer metrics. Either way every
operation's output is checked against ``pinned.json``; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The run
record and, when traced, the spans go to ``.bench_out/``. See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import operator
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_EVERY = 0.05  # share of an untraced run spent on repeated set-ups ...
PROBE_EVERY = 0.08  # ... and on the speed probe
PROBE_START_S = 0.1  # probe CPU time before the first operation
MIN_OPS = 3         # timed operations per run, however short --seconds is
CLOCK_SHARE = 0.4   # share of a traced run spent on the bare/clocked pairs

WORKLOAD_NAMES = ["logical-512", "compacted-2048-beam4", "contrastive-deep-256",
                  "composer-corpus"]

END_TO_END = {
    "setup_s": "s",
    "session_s_p50": "s",
    "prefill_s_p50": "s",
    "decode_tok_per_s": "tok/s",
    "peak_rows": "rows",
    "examples_per_s": "ex/s",
}

# span name -> work metrics beside calls and self_s (per-layer table)
SPAN_METRICS = {
    "numerics.matvec": ("calls", "self_s", "rows"),
    "numerics.weighted_sum_rows": ("calls", "self_s", "rows"),
    "numerics.stable_softmax": ("calls", "self_s", "rows"),
    "cache.append": ("calls", "self_s"),
    "cache.support": ("calls", "self_s", "rows"),
    "cache.record_attention": ("calls", "self_s"),
    "cache.compact": ("calls", "self_s", "evicted", "aggregates"),
    "cache.clone": ("calls", "self_s", "bytes"),
    "cache.set_sparsification": ("calls",),
    "cache.clear_sparsification": ("calls",),
    "vats.cluster_pruned": ("calls", "self_s", "points"),
    "vats.select_topS": ("calls", "self_s"),
    "vats.visual_saliency": ("calls", "self_s"),
    "vats.layer_visual_saliency": ("calls", "self_s"),
    "sac.calibrate_scores": ("calls", "self_s"),
    "models.forward_step.prefill": ("calls", "self_s"),
    "models.forward_step.decode": ("calls", "self_s"),
    "models.lm_head": ("calls", "self_s"),
    "models.forward_sequence": ("calls", "self_s", "positions"),
    "models.model_from_config": ("calls", "self_s"),
    "decoding.decode": ("calls", "self_s"),
    "decoding.EngineAttention.attend": ("calls", "self_s"),
    "decoding.contrastive_logits": ("calls", "self_s"),
    "decoding.mask_visual": ("calls", "self_s"),
    "decoding.fuse": ("calls", "self_s"),
    "decoding.plausible_set": ("calls", "self_s"),
    "experiment.run_seed_row": ("calls", "self_s"),
}
WORK_UNITS = {"calls": "count/op", "self_s": "s/op", "bytes": "B/op"}
EXTRA_PER_LAYER = {
    "corpus.gen_corpus.self_s": "s",
    "decoding.plan_fire_ratio": "ratio",
    "bench.traced_ops": "count",
    "bench.trace_overhead": "ratio",
    "bench.clock_cost": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{span}.{m}": WORK_UNITS.get(m, "rows/op")
             for span, metrics in SPAN_METRICS.items() for m in metrics}
    units.update(EXTRA_PER_LAYER)
    return units


@dataclass
class Op:
    seconds: float      # CPU time
    wall: float
    examples: int
    ok: bool


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_one(workload, state, pinned, i, log) -> Op:
    """Operation ``i``, timed around the call. It fails if it raises or its
    output differs from the pinned reference."""
    t0, w0 = time.process_time(), time.perf_counter()
    try:
        examples, ok = workload.run_op(state, i, pinned, log)
    except Exception:  # noqa: BLE001 - a raising operation is a failed one
        traceback.print_exc(file=sys.stderr)
        examples, ok = 0, False
    return Op(time.process_time() - t0, time.perf_counter() - w0, examples, ok)


def run_ops(workload, state, pinned, seconds, log, tracer=None, between=None) -> list[Op]:
    """Run operations until the next one would likely end past ``seconds``,
    and at least MIN_OPS of them. ``between(op)`` runs after each one."""
    ops: list[Op] = []
    t_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op = len(ops)
        ops.append(run_one(workload, state, pinned, len(ops), log))
        if between is not None:
            between(ops[-1])
        if len(ops) >= MIN_OPS and time.perf_counter() - t_start + ops[-1].wall > seconds:
            break
    if tracer is not None:
        tracer.op = -1
    return ops


def tail(samples: list[float]) -> str:
    """The highest percentile of the ladder with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.99, 99.9, 99.0, 90.0):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(samples, n=10000, method="inclusive")
            return f"p{p:g} {q[round(p * 100) - 1]:.6g} s over {n} sessions"
    return f"n/a: {n} sessions, a tail needs at least 11"


def untraced(workload, seed, seconds, pinned, report) -> tuple[list[Op], dict]:
    from decodebench.probe import NOMINAL_S, probe
    from decodebench.workloads import SessionLog
    setups: list[tuple[float, int]] = []    # (CPU seconds, probe batches before it)
    batches: list[list[float]] = []         # probe times, one batch between operations
    session_ends: list[int] = []            # sessions logged by the end of each operation
    op_wall = 0.0

    def set_up():
        t0 = time.process_time()
        state = workload.setup(seed)
        setups.append((time.process_time() - t0, len(batches)))
        return state

    def probe_batch(cpu_s):
        batch = [probe()]
        while sum(batch) < cpu_s:
            batch.append(probe())
        batches.append(batch)

    def between_ops(op):
        # repeat set-ups and probes over the whole run, so that they sample
        # the same stretch of the host's speed as the operations do
        nonlocal op_wall
        op_wall += op.wall
        session_ends.append(len(log.session))
        while sum(t for t, _ in setups[1:]) < SETUP_EVERY * op_wall:
            set_up()
        probe_batch(PROBE_EVERY * op.wall)

    state = set_up()
    log = SessionLog()
    probe_batch(PROBE_START_S)
    ops = run_ops(workload, state, pinned, seconds, log, between=between_ops)

    # Seconds at the probe's nominal speed per measured second, for whatever
    # ran after probe batch k - 1 and before batch k. Operation i ran between
    # batches i and i + 1; set-ups between an operation and the next batch.
    scale = [NOMINAL_S / statistics.median(batches[max(0, k - 1)] + batches[k])
             for k in range(len(batches))]
    op_scale = scale[1:]
    session_scale = [op_scale[bisect.bisect_right(session_ends, j)]
                     for j in range(len(log.session))]
    decode_s = [w - p for w, p in zip(log.session, log.prefill)]
    metrics = {
        "setup_s": statistics.median(t * scale[k] for t, k in setups),
        "session_s_p50": statistics.median(map(operator.mul, log.session, session_scale)),
        "prefill_s_p50": statistics.median(map(operator.mul, log.prefill, session_scale)),
        "decode_tok_per_s": statistics.median(
            n / (d * c) for n, d, c in zip(log.tokens, decode_s, session_scale)),
        "peak_rows": max(log.peak_rows),
        "examples_per_s": statistics.median(
            op.examples / (op.seconds * c) for op, c in zip(ops, op_scale)),
    }
    probes = [t for batch in batches for t in batch]
    raw = {
        "setup_s": statistics.median(t for t, _ in setups),
        "session_s_p50": statistics.median(log.session),
        "prefill_s_p50": statistics.median(log.prefill),
        "decode_tok_per_s": statistics.median(n / d for n, d in zip(log.tokens, decode_s)),
        "examples_per_s": statistics.median(op.examples / op.seconds for op in ops),
    }
    report["unscaled"] = raw
    report["probes"] = f"{len(probes)}, median {statistics.median(probes):.6g} s"
    report["probe_batches_s"] = batches
    report["scale"] = scale
    report["setups"] = len(setups)
    report["setups_s"] = [t for t, _ in setups]
    report["op_s"] = [op.seconds for op in ops]
    report["op_wall_s"] = [op.wall for op in ops]
    report["cpu_share"] = sum(op.seconds for op in ops) / sum(op.wall for op in ops)
    report["wall_s_p50"] = statistics.median(op.wall for op in ops)
    report["session_s"] = log.session
    report["prefill_s"] = log.prefill
    report["session_s_tail"] = tail(log.session)
    report["first_op_s"] = ops[0].seconds
    rows = state.get("rows")
    if rows:
        chairs = [r.chair for r in rows.values() if r.chair is not None]
        recalls = [r.recall for r in rows.values() if r.recall is not None]
        report["chair_mean"] = sum(chairs) / len(chairs)
        report["recall_mean"] = sum(recalls) / len(recalls)
        report["distinct_rows"] = len(rows)
    return ops, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced(workload, seed, seconds, pinned, report) -> tuple[list[Op], dict, list[str]]:
    from decodebench.tracer import Tracer
    from decodebench.workloads import SessionLog
    problems: list[str] = []
    state = workload.setup(seed)

    # bare and clocked sessions on the same inputs, alternating which runs first
    ops: list[Op] = []
    pair_ratios = []
    clocked = SessionLog(clock=time.perf_counter)
    t_start = time.perf_counter()
    while not pair_ratios or time.perf_counter() - t_start < CLOCK_SHARE * seconds:
        i = len(pair_ratios)
        pair = {}
        for mode in (("bare", "clock") if i % 2 == 0 else ("clock", "bare")):
            pair[mode] = run_one(workload, state, pinned, i,
                                 clocked if mode == "clock" else None)
            ops.append(pair[mode])
        pair_ratios.append(pair["clock"].seconds / pair["bare"].seconds)

    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(seed)
        log = SessionLog(clock=time.perf_counter)
        remaining = max(0.0, seconds - (time.perf_counter() - t_start))
        traced_ops = run_ops(workload, state, pinned, remaining, log, tracer=tracer)
    finally:
        tracer.uninstall()
    ops += traced_ops
    report["pair_s"] = [op.seconds for op in ops[:-len(traced_ops)]]
    report["traced_op_s"] = [op.seconds for op in traced_ops]

    leftover = tracer.leftover_wrappers()
    if leftover:
        problems.append(f"bindings not restored: {leftover}")
    if tracer.missing:
        report["not_traced"] = tracer.missing
    if len(tracer) and tracer.self_ns().min() < 0:
        problems.append("negative span self time")
    for i, (self_s, wall) in enumerate(zip(tracer.session_self_seconds(), log.session)):
        if self_s > wall:
            problems.append(f"session {i}: span self times {self_s:.6f} s exceed its "
                            f"wall time {wall:.6f} s")
    if tracer.sessions != len(log.session):
        problems.append(f"{tracer.sessions} traced sessions, {len(log.session)} timed")

    n = len(traced_ops)
    totals = tracer.totals("op")
    units = per_layer_units()
    metrics = {}
    for span, kinds in SPAN_METRICS.items():
        calls, self_s = totals.get(span, (0, 0.0))
        for kind in kinds:
            value = {"calls": calls, "self_s": self_s}.get(kind)
            if value is None:
                value = tracer.work.get(f"{span}.{kind}", 0.0)
            metrics[f"{span}.{kind}"] = value / n
    attends = totals.get("decoding.EngineAttention.attend", (0, 0.0))[0]
    plans = totals.get("cache.set_sparsification", (0, 0.0))[0]
    metrics["corpus.gen_corpus.self_s"] = tracer.totals("setup").get("corpus.gen_corpus", (0, 0.0))[1]
    metrics["decoding.plan_fire_ratio"] = plans / attends if attends else 0.0
    metrics["bench.traced_ops"] = n
    metrics["bench.trace_overhead"] = statistics.median(log.session) / statistics.median(clocked.session)
    metrics["bench.clock_cost"] = statistics.median(pair_ratios)
    report["spans"] = len(tracer)
    report["trace_file"] = str(OUT_DIR / f"{workload.name}-seed{seed}.spans.npz")
    tracer.write(Path(report["trace_file"]))
    return ops, {k: (v, units[k]) for k, v in metrics.items()}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sparsevcd" / "__init__.py").is_file():
        print(f"decodebench: no engine source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # one thread does all the work, so the process's CPU time is its busy time
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    from decodebench.workloads import WORKLOADS, load_pinned

    workload = WORKLOADS[args.workload]
    pinned = load_pinned()[workload.name]
    report: dict = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "env": environment(),
                    "loadavg_before": os.getloadavg()}
    if args.trace:
        ops, metrics, problems = traced(workload, args.seed, args.seconds, pinned, report)
    else:
        ops, metrics = untraced(workload, args.seed, args.seconds, pinned, report)
        problems = []
    report["loadavg_after"] = os.getloadavg()
    failed = sum(not op.ok for op in ops)
    report["problems"] = problems
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))

    for key in ("workload", "seed", "env", "loadavg_before", "loadavg_after",
                "setups", "probes", "first_op_s", "cpu_share", "wall_s_p50", "unscaled",
                "session_s_tail", "chair_mean", "recall_mean", "distinct_rows", "spans",
                "not_traced", "problems"):
        if key in report:
            print(f"# {key}: {report[key]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"# attempted {len(ops)}, failed {failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
