"""ptmarkov benchmark: closed-loop `ptr simulate` -> `ptr analyze` pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload memory-k4 --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` next to this directory. A run
repeats the workload's round of pipelines (each through
``ptmarkov.cli.main`` in this process) for up to ``--seconds``, starting a
round only while the previous round's duration still fits, and always at
least one round. Every pipeline is checked by an independent route outside
the timed region; a failed check or a non-zero exit counts as a failed
pipeline and the run goes on.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds (at least one of each), reports the per-layer
metrics of the traced rounds and the tracing overhead, and prints the
memoryless rows of the ROADMAP baseline table. The last line of standard
output is one JSON object; a readable summary goes to standard error and
the full result, with spans, to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# One BLAS thread keeps all work on the core the speed sampler measures.
BLAS_THREADS = 1
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def pin_environment() -> None:
    """Fix the BLAS thread count and keep the sweep from forking a worker
    pool; must run before numpy is imported."""
    os.environ.pop("PTR_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program() -> None:
    """Import ptmarkov from this checkout's ``src/`` and nowhere else."""
    init = os.path.join(SRC, "ptmarkov", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no ptmarkov sources at {SRC}")
    sys.path[:0] = [SRC, HERE]
    import ptmarkov
    if os.path.abspath(ptmarkov.__file__) != init:
        raise SystemExit(f"error: imported ptmarkov from {ptmarkov.__file__}")
    # Everything a `ptr` call loads, so that setup_s covers it.
    import ptmarkov.cli  # noqa: F401


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": blas_id, "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0))}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure_setup(args) -> float:
    """Median time of fresh processes that start the interpreter, import
    ptmarkov with its CLI and generate this run's inputs, speed-normalized by the
    reference kernel each process times at its end."""
    from speed import NOMINAL_S

    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        kernel_s, kernel_total_s = json.loads(proc.stdout)
        times.append((wall - kernel_total_s) * NOMINAL_S / kernel_s)
    return statistics.median(times)


def run_rounds(workload: str, cfgs: list[dict], seed: int, seconds: float,
               workdir: str, tracer=None):
    """Closed loop over whole rounds. With a tracer, odd rounds are traced
    and at least two rounds run. Returns (records, traced ids)."""
    from pipeline import run_pipeline
    from workloads import WORKLOADS

    specs = WORKLOADS[workload]
    min_rounds = 1 if tracer is None else 2
    records, traced_ids = [], set()
    start = time.perf_counter()
    last = 0.0
    rounds = 0
    while rounds < min_rounds or \
            time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        traced = tracer is not None and rounds % 2 == 1
        with (tracer.installed() if traced else contextlib.nullcontext()):
            for i, (spec, cfg) in enumerate(zip(specs, cfgs)):
                pid = len(records)
                if traced:
                    traced_ids.add(pid)
                records.append(run_pipeline(
                    spec, cfg, workdir, f"p{i}", check_seed=seed + pid,
                    tracer=tracer if traced else None, pipeline_id=pid,
                    round_index=rounds))
        last = time.perf_counter() - t0
        rounds += 1
    return records, traced_ids


def end_to_end(records, setup_s: float, sampler) -> dict:
    """Timings are speed-normalized (see speed.py). The p50 timings are
    medians over rounds of each round's mean per pipeline: a median over
    the pipelines of a mixed round would fall in the gap between its fast
    and slow models. p90 is over pipelines."""
    sim = [sampler.scaled(*r.simulate) for r in records]
    ana = [sampler.scaled(*r.analyze) for r in records]
    pipe = [a + b for a, b in zip(sim, ana)]
    rounds: dict[int, list[int]] = {}
    for i, r in enumerate(records):
        rounds.setdefault(r.round, []).append(i)

    def p50(values):
        return statistics.median(statistics.fmean(values[i] for i in ids)
                                 for ids in rounds.values())

    ok = sum(r.ok for r in records)
    values = {
        "simulate_s.p50": (p50(sim), "s"),
        "analyze_s.p50": (p50(ana), "s"),
        "pipeline_s.p50": (p50(pipe), "s"),
        "pipeline_s.p90": (percentile(pipe, 90), "s"),
        "pipelines_per_s": (ok / sum(pipe), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(records, traced_ids, tracer, cfgs) -> tuple[dict, dict]:
    """Per-layer metrics of the traced rounds, the tracing overhead per
    pipeline, and the memoryless baseline rows keyed by K."""
    import tracing

    metrics = tracing.layer_metrics(tracer.spans, traced_ids)
    n = len(cfgs)
    traced = [r.pipeline_s for i, r in enumerate(records) if i in traced_ids]
    plain = [r.pipeline_s for i, r in enumerate(records)
             if i not in traced_ids]
    if len(plain) > n:
        # The first round also pays first-call costs; leave it out when a
        # later untraced round exists.
        plain = plain[n:]
    metrics["trace.overhead_s"] = {
        "value": statistics.fmean(traced) - statistics.fmean(plain),
        "unit": "s"}
    memoryless = {pid: len(cfgs[pid % n]["times"]) - 1
                  for pid in traced_ids if cfgs[pid % n]["model"] == "markov"}
    return metrics, tracing.baseline_rows(tracer.spans, memoryless)


def summarize(args, env, records, metrics, baseline) -> str:
    failed = sum(not r.ok for r in records)
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
             f"{len(records)} pipelines, failed_frac "
             f"{failed / len(records):.4g}",
             "env " + " ".join(f"{k}={v}" for k, v in env.items())]
    lines += [f"  {name:42s} {m['value']:.6g} {m['unit']}"
              for name, m in metrics.items()]
    by_label: dict[str, list[float]] = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r.pipeline_s)
    lines += [f"  pipeline {label:12s} n={len(v):3d} "
              f"median raw wall time {statistics.median(v):.4g} s"
              for label, v in by_label.items()]
    lines += [f"  FAILED {r.label}: {'; '.join(r.problems)}"
              for r in records if not r.ok]
    if baseline:
        import tracing
        lines += ["ROADMAP baseline layout (memoryless dilation, s per call):",
                  tracing.format_baseline(baseline)]
    return "\n".join(lines)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    import_program()
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cfgs = make_inputs(args.workload, args.seed)
    if args.setup_only:
        from speed import time_kernel
        print(json.dumps(time_kernel()))
        return 0
    setup_s = None if args.trace else measure_setup(args)

    import tracing
    from speed import SpeedSampler
    tracer = tracing.Tracer() if args.trace else None
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    # Traced runs report raw times; the sampler's interrupts would land in
    # the spans.
    sampler = None if args.trace else SpeedSampler()
    try:
        with sampler or contextlib.nullcontext():
            records, traced_ids = run_rounds(
                args.workload, cfgs, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    baseline = {}
    if args.trace:
        metrics, baseline = per_layer(records, traced_ids, tracer, cfgs)
    else:
        metrics = end_to_end(records, setup_s, sampler)
    env = environment()
    if sampler:
        env["speed_vs_nominal"] = round(sampler.speed(), 4)
    failed = sum(not r.ok for r in records)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    full = dict(result, workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, env=env,
                pipelines=[dict(label=r.label, simulate_s=r.simulate_s,
                                analyze_s=r.analyze_s, problems=r.problems,
                                traced=i in traced_ids)
                           for i, r in enumerate(records)],
                baseline=baseline,
                spans=[vars(s) for s in tracer.spans] if tracer else [])
    out = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    print(summarize(args, env, records, metrics, baseline), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
