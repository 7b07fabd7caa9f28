"""cfstcap benchmark: pipeline, fit and predict workloads.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

Each invocation is one fresh single-threaded process running one workload
as a closed loop with one caller. The package is imported from ./src; the
workload seed only makes the inputs (configs, synthetic datasets, a
specimen CSV). The run sets up, then repeats passes of the workload's
timed phase until --seconds have gone, checking the outputs between
timed calls. Header lines go first; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

The end-to-end times are seconds at a fixed reference speed
(reference.py): the host changes speed by up to 2x for seconds to
minutes at a time, so every timed part of a pass (pipeline: a config's
stage; fit: each model; predict: the CSV load and each batch) is divided
by the time of a fixed loop run around it, and a part's figure is the
median of that ratio over the passes, times the loop's nominal REF_S
seconds. The header gives the times as measured and the loop's median.

--trace 0 reports the end-to-end metrics:
  setup_s       the package's import, timed inside 3 fresh interpreters,
                plus 3 set-ups (inputs made, models fitted for predict):
                the median of each
  wall_s        seconds of one pass of the timed phase, the sum of its
                parts (pipeline: averaged over its configs)
  peak_rss_mb   getrusage peak resident set of the workload process
  mape_pct      held-out MAPE of the network (pipeline: median over the
                configs' model.json; fit: the fitted network; predict: the
                scored CSV)
  batch_p90_ms  90th percentile latency of one 256-specimen scoring batch
                (predict: network, ensemble, design codes and metrics;
                pipeline and fit: the held-out network scoring), taken
                over the batches (100 at full size), each the median of
                its passes; the header gives the p50, the sample count
                and how many samples lie beyond p90
The header also gives rows_per_s, the specimens scored per second as
measured (predict: over the CSV load and the batches; pipeline and fit:
over the held-out scoring). Failed operations and checks are `failed`
out of `attempted`; a failure makes the exit code 1.

--trace 1 alternates untraced and traced passes for --seconds, and
reports the per-layer metrics of tracing.PER_LAYER: busy seconds as
measured and counts of one traced set-up plus one traced pass (the
timed-phase totals divided by the traced passes), and
trace.overhead_frac, traced over untraced wall_s. Spans are written
to .bench_out/trace-<workload>-<size>-seed<seed>.json.
"""
from __future__ import annotations

import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS/OpenMP pools are sized when numpy loads, so pin them first.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import at_reference_speed, timed  # noqa: E402
from tracing import PER_LAYER, STAGES, Tracer  # noqa: E402

WORKLOADS = ("pipeline", "fit", "predict")
SETUP_REPEATS = 3
OUT_DIR = ".bench_out"
HERE = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="all: each workload untraced and traced, each run "
                             "in a fresh process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test inputs, same checks")
    return parser.parse_args(argv)


def import_samples(src: Path) -> list:
    """Samples of a fresh interpreter importing the package, each timed
    inside that interpreter (the parent's wait for it polls)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    code = ("import json; from reference import timed; "
            "print(json.dumps(timed(__import__, 'cfstcap.cli')[1]))")
    return [json.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True, timeout=120).stdout)
            for _ in range(SETUP_REPEATS)]


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=60)
    return done.stdout.strip() or "unknown"


def run_passes(wl, seconds: float) -> list[dict]:
    """Closed loop: passes back to back until `seconds` have gone."""
    passes = []
    start = time.perf_counter()
    while len(passes) < wl.min_passes or time.perf_counter() - start < seconds:
        passes.append(wl.run_pass(len(passes)))
    return passes


def measured_s(sampled: dict) -> float:
    """Seconds a pass measured, at the host's speed of the moment."""
    return sum(seconds for seconds, _ in sampled.values())


def pass_s(wl, passes: list[dict]) -> float:
    """Seconds of one pass at the reference speed: the sum of its parts."""
    parts: dict[str, list] = {}
    for sampled in passes:
        for part, sample in sampled.items():
            parts.setdefault(part, []).append(sample)
    return sum(map(at_reference_speed, parts.values())) / wl.variants


def run_plain(wl, seconds, src):
    """End-to-end metrics of an untraced run."""
    imports = import_samples(src)
    setups = [timed(wl.setup)[1] for _ in range(SETUP_REPEATS)]
    passes = run_passes(wl, seconds)
    batches = [at_reference_speed(samples) * 1e3 for samples in wl.batches.values()]
    p90 = statistics.quantiles(batches, n=10)[8]
    metrics = {
        "setup_s": at_reference_speed(imports) + at_reference_speed(setups),
        "wall_s": pass_s(wl, passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mape_pct": statistics.median(wl.mapes),
        "batch_p90_ms": p90,
    }
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "mape_pct": "%", "batch_p90_ms": "ms"}
    extra = {"measured_pass_s": [measured_s(p) for p in passes],
             "reference_loop_s": statistics.median(
                 ref for p in passes for _, ref in p.values()),
             "import_samples": imports, "setup_samples": setups,
             "rows_per_s": wl.rows_per_s(),
             "batch_p50_ms": statistics.median(batches),
             "batch_samples": len(batches),
             "batch_samples_beyond_p90": sum(x > p90 for x in batches),
             "batch_timings": sum(map(len, wl.batches.values()))}
    return metrics, units, extra


def run_traced(wl, seconds, trace_path, header):
    """Per-layer metrics: one traced set-up, then passes that alternate
    untraced and traced until `seconds` have gone, so that both kinds see
    the same machine speed and, on pipeline, the same configs. Writes the
    spans to trace_path."""
    tracer = Tracer()
    tracer.install()
    wl.tracer = tracer
    wl.call("setup", wl.setup)
    setup_totals = dict(tracer.totals())
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < 1 or time.perf_counter() - start < seconds:
        if len(plain) == len(traced):
            wl.tracer = None
            tracer.uninstall()
            plain.append(wl.run_pass(len(plain)))
        else:
            tracer.install()
            wl.tracer = tracer
            traced.append(wl.call("pass", wl.run_pass, len(traced)))
    wl.tracer = None
    tracer.uninstall()
    totals = tracer.totals()
    metrics = {}
    for name in PER_LAYER:
        pass_part = totals.get(name, 0.0) - setup_totals.get(name, 0.0)
        metrics[name] = setup_totals.get(name, 0.0) + pass_part / len(traced)
    metrics["trace.overhead_frac"] = pass_s(wl, traced) / pass_s(wl, plain) - 1.0
    traced_s = [measured_s(p) for p in traced]
    stage_s = sum(metrics[f"cli.{s}_s"] for s in STAGES)
    extra = {"untraced_pass_s": [measured_s(p) for p in plain],
             "traced_pass_s": traced_s, "spans": len(tracer.spans),
             "stage_share_of_wall": stage_s / statistics.fmean(traced_s)}
    tracer.write(trace_path, {**header, **extra,
                              "layer_moves": {k: v[2] for k, v in PER_LAYER.items()}})
    return metrics, {k: v[0] for k, v in PER_LAYER.items()}, extra


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process; the
    last line sums the runs and prefixes each metric with its workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            total["correct"] = total["correct"] and result["correct"] and done.returncode == 0
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{workload}.{k}": v
                                     for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cfstcap" / "__init__.py").is_file():
        print(f"error: no cfstcap package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import cfstcap
    from cfstcap.trees import SPLIT_BACKEND
    if Path(cfstcap.__file__).resolve().parent != (src / "cfstcap").resolve():
        print(f"error: imported cfstcap from {cfstcap.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOAD_CLASSES

    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    wl = WORKLOAD_CLASSES[args.workload](args.seed, args.size, out)
    header = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "split_backend": SPLIT_BACKEND,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": git_commit(root),
    }
    try:
        if args.trace:
            trace_path = out / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
            metrics, units, extra = run_traced(wl, args.seconds, trace_path, header)
        else:
            metrics, units, extra = run_plain(wl, args.seconds, src)
        header.update(extra)
    except Exception as exc:  # a failed operation: report it, exit non-zero
        traceback.print_exc()
        wl.checks.expect(False, f"{type(exc).__name__}: {exc}")
        metrics, units = {}, {}
    checks = wl.checks
    header.update(failed_frac=checks.failed / max(checks.attempted, 1),
                  failures=checks.failures[:20])
    print("header " + json.dumps(header, sort_keys=True))
    result = {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
