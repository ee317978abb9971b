"""sfgen benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cold_wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; sfgen is imported from its `src/`.
With `--trace 0` the run measures ops untraced and reports the end-to-end
metrics. With `--trace 1` it alternates untraced and traced ops and reports
the per-layer metrics and the tracing overhead. Human-readable lines come
first; the last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (the benchmark's own modules live next to this file)
import workloads  # noqa: E402

SETUP_LAUNCHES = 3  # setup_s is the median over this many fresh processes
MIN_SAMPLES = 11  # so the tail percentile has 10 samples beyond it
GRACE_SECONDS = 60  # past --seconds, stop even without MIN_SAMPLES
TRACED_PATTERN = (False, False, True, True)  # untraced/traced op alternation

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it; the maximum when there are fewer than eleven samples."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 10  # 1-based rank
    return ordered[k - 1], 100.0 * k / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_sfgen() -> None:
    """Import sfgen from this checkout's sources, and only from there."""
    if not (SRC / "sfgen" / "cli.py").is_file():
        sys.exit(f"error: no sfgen sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import sfgen

    if not Path(sfgen.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported sfgen from {sfgen.__file__}, not from {SRC}")


def timed_setups(args: argparse.Namespace, work: Path) -> tuple[list[float], Path]:
    """Launch SETUP_LAUNCHES fresh processes that each set the workload up;
    time each from launch until it reports ready. Returns the times and the
    last process's work directory, which the ops then use."""
    times = []
    for k in range(SETUP_LAUNCHES):
        probe = work / f"setup-{k}"
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", str(probe)]
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            rest, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"error: setup failed: {line}{rest}{err}")
        if k < SETUP_LAUNCHES - 1:
            # at once, while the files are young: deleting files that were
            # already written back to disk is far slower
            shutil.rmtree(probe)
    return times, probe


def measure(workload: workloads.Workload, seconds: float,
            instrumentation: tracing.Instrumentation | None) -> dict:
    """Run ops for `seconds` (op 0 is an untimed warm-up) and check each."""
    samples: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = 0
    failures: list[str] = []
    kinds = (False, True) if instrumentation else (False,)
    wanted = 2 if instrumentation else MIN_SAMPLES
    start = time.perf_counter()
    i = 0
    while True:
        traced = instrumentation is not None and i > 0 and \
            TRACED_PATTERN[i % len(TRACED_PATTERN)]
        argv = workload.prepare(i)
        if traced:
            instrumentation.tracer.begin_op()
            with instrumentation.installed():
                result = workloads.run_op(argv)
        else:
            result = workloads.run_op(argv)
        try:
            errors = workload.check(i, result)
        except Exception as exc:  # a check that cannot read the output is a failed op
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        attempted += 1
        if errors:
            failed += 1
            failures.append(f"op {i}: {errors[0]}")
        if i > 0:
            samples[traced].append(result.seconds)
        i += 1
        elapsed = time.perf_counter() - start
        enough = all(len(samples[kind]) >= wanted for kind in kinds)
        if elapsed >= seconds + GRACE_SECONDS or (elapsed >= seconds and enough):
            break
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "failures": failures}


def report(args: argparse.Namespace, workload: workloads.Workload, run: dict,
           metrics: dict[str, tuple[float, str]], notes: dict[str, str]) -> None:
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {workload.shape}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<42} {value:>14.4f} {unit}{note}")
    ratio = run["failed"] / run["attempted"]
    print(f"  {'fail_ratio':<42} {ratio:>14.4f} ratio  "
          f"({run['failed']} of {run['attempted']} ops failed)")
    for failure in run["failures"][:5]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def end_to_end(workload: workloads.Workload, run: dict,
               setups: list[float]) -> tuple[dict, dict]:
    ops = run["samples"][False]
    p50 = statistics.median(ops)
    tail_value, percentile = tail(ops)
    metrics = {
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "entities_per_s": (workload.entities / p50, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = {
        "op_p50_ms": f"median of {len(ops)} ops",
        "op_tail_ms": f"p{percentile:.1f} of {len(ops)} ops, "
                      f"{len(ops) - round(percentile * len(ops) / 100)} beyond",
        "entities_per_s": f"{workload.entities} entities per op at the median op time",
        "setup_s": f"median of {len(setups)} launches: "
                   + ", ".join(f"{s:.3f}" for s in setups),
    }
    return metrics, notes


# (name, unit, better) of every per-layer metric; BENCHMARK.json lists the same
PER_LAYER = [
    ("xmlsubset.parse_document.ms", "ms", "lower"),
    ("xmlsubset.parse_document.mb_per_s", "MB/s", "higher"),
    ("xmlsubset.parse_document.bytes", "bytes", "lower"),
    ("xmlsubset.nodes", "count", "lower"),
    ("loader.bind_model.ms", "ms", "lower"),
    ("loader.validate_model.ms", "ms", "lower"),
    ("loader.diagnostics", "count", "lower"),
    ("stats.lint_model.ms", "ms", "lower"),
    ("packs.read_pack_dir.ms", "ms", "lower"),
    ("packs.load_pack.ms", "ms", "lower"),
    ("packs.generate_all.self_ms", "ms", "lower"),
    ("packs.artifacts", "count", "lower"),
    ("atl.render.ms", "ms", "lower"),
    ("atl.render.calls", "count", "lower"),
    ("atl.render.out_bytes", "bytes", "lower"),
    *[(f"atl.render.{t}.ms", "ms", "lower") for t in tracing.TEMPLATES],
    ("atl.render.unchanged_ratio", "ratio", "lower"),
    ("ownership.load_manifest.ms", "ms", "lower"),
    ("ownership.plan_writes.ms", "ms", "lower"),
    ("ownership.digest.calls", "count", "lower"),
    ("ownership.digest.bytes", "bytes", "lower"),
    *[(f"ownership.plan.{a}", "count", "lower") for a in tracing.PLAN_ACTIONS],
    ("ownership.apply_plan.ms", "ms", "lower"),
    ("ownership.apply_plan.files_written", "count", "lower"),
    ("ownership.apply_plan.bytes_written", "bytes", "lower"),
    ("ownership.save_manifest.ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.observe.ms", "ms", "lower"),
    ("trace.self_sum_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.untraced_op_p50_ms", "ms", "lower"),
    ("trace.traced_op_p50_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]


def per_layer(instrumentation: tracing.Instrumentation, run: dict) -> tuple[dict, dict]:
    layers = tracing.layer_metrics(instrumentation.tracer)
    untraced = statistics.median(run["samples"][False]) * 1e3
    traced = statistics.median(run["samples"][True]) * 1e3
    layers["trace.untraced_op_p50_ms"] = untraced
    layers["trace.traced_op_p50_ms"] = traced
    layers["trace.overhead_ms"] = traced - untraced
    layers["trace.ops"] = float(len(run["samples"][True]))
    metrics = {name: (layers.get(name, 0.0), unit) for name, unit, _ in PER_LAYER}
    gap = layers.get("trace.self_sum_ms", 0.0) - untraced
    notes = {
        "atl.render.unchanged_ratio": f"base: {layers.get('atl.render.calls', 0):.0f} "
                                      "artifacts rendered",
        "xmlsubset.parse_document.mb_per_s": "base: "
        f"{layers.get('xmlsubset.parse_document.bytes', 0) / 1e6:.3f} MB per op",
        "trace.overhead_ms": f"base: untraced op p50 {untraced:.1f} ms",
        "trace.self_sum_ms": f"self times under an op minus untraced op p50: {gap:+.1f} ms, "
                             f"tracing overhead {traced - untraced:+.1f} ms",
    }
    if instrumentation.absent:
        print("absent spans (reported as 0): " + ", ".join(instrumentation.absent))
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_sfgen()
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(ROOT, Path(args.setup_only), args.seed).build()
        print("ready", flush=True)
        return 0

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            workload = cls(ROOT, work / "main", args.seed)
            workload.build()
            instrumentation = tracing.Instrumentation(tracing.Tracer())
            run = measure(workload, args.seconds, instrumentation)
            metrics, notes = per_layer(instrumentation, run)
            instrumentation.tracer.write(
                ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.json",
                {name: value for name, (value, _) in metrics.items()})
        else:
            setups, ready = timed_setups(args, work)
            workload = cls(ROOT, ready, args.seed)
            workload.load()
            run = measure(workload, args.seconds, None)
            metrics, notes = end_to_end(workload, run, setups)
        report(args, workload, run, metrics, notes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
