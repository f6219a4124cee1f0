#!/usr/bin/env python3
"""Benchmark of evifuse: training throughput, CLI scoring throughput, layer times.

Run from the root of a checkout:

    python3 bench/run.py --workload train-c07 --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py for why each exists): train-c07, train-wide,
eval-cli. With --trace 0 the run is untraced and reports the end-to-end
metrics; with --trace 1 it times untraced repeats, then traces one set-up and
one repeat by rebinding the library's functions (tracer.py) and reports the
per-layer metrics. Either way the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it records the machine and software. A fuller record goes to
.bench_out/<workload>-seed<seed>-trace<0|1>.json, and the traced run writes its
spans to .bench_out/spans-<workload>-seed<seed>.npz. Temporary files live in
.bench_work/ and are removed at exit.

Exit codes: 0 all output checks passed, 1 an output check failed, 2 bad
arguments or no evifuse sources next to this directory.
"""

import os

# One process with one BLAS thread; must be set before numpy is imported.
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("train-c07", "train-wide", "eval-cli")
MIN_REPEATS = 3

# Counts the traced run is predicted to show at this design of the library.
# A change that moves work between specfun's scalar and vector kernels, or
# into the read-only path, is expected to break them; they are reported, not
# treated as failed outputs.
PREDICTIONS = {
    "train-c07": [("specfun.vector_calls", "==", 0)],
    "train-wide": [("specfun.vector_calls", ">", 0)],
    "eval-cli": [("losses.loss_grad_calls", "==", 0), ("specfun.calls", "==", 0)],
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the repeats run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- machine and software ------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "git_commit": _git_commit(),
        "blas_threads": {v: os.environ[v] for v in _BLAS_VARS},
        "seed": seed,
    }


# -- measuring -----------------------------------------------------------------


def _same_outputs(checks, ref: dict, got: dict, what: str) -> None:
    for name, expected in ref.items():
        checks.expect(got.get(name) == expected, f"{what}: {name} differs from the first repeat")


def _setups(wl, seed, workdir, count, checks):
    """`count` set-ups into fresh directories; (last state, seconds each)."""
    state, times, ref = None, [], None
    for i in range(count):
        d = workdir / f"setup{i}"
        d.mkdir()
        t0 = perf_counter()
        state = wl.setup(d, seed)
        times.append(perf_counter() - t0)
        fingerprint = wl.fingerprint(state)
        if ref is None:
            ref = fingerprint
        else:
            _same_outputs(checks, ref, fingerprint, "set-up")
    return state, times


def _repeats(wl, state, workdir, seconds, checks, min_repeats):
    """Untraced repeats filling `seconds`; (repeats, wall of each).

    A repeat is started only if one of median length still fits, so a run
    lasts about `seconds`, but never has fewer than `min_repeats` repeats.
    """
    reps, walls, ref = [], [], None
    t_end = perf_counter() + seconds
    while len(reps) < min_repeats or perf_counter() + statistics.median(walls) <= t_end:
        t0 = perf_counter()
        rep = wl.run_once(state, workdir)
        walls.append(perf_counter() - t0)
        checks.add(rep.checks)
        if ref is None:
            ref = rep.outputs
        else:
            _same_outputs(checks, ref, rep.outputs, "repeat")
            rep.outputs = None  # keeps peak_rss_mb independent of the repeat count
        reps.append(rep)
    return reps, walls


def measure(wl, seed, seconds, workdir, checks):
    """End-to-end metrics from untraced set-ups and repeats."""
    state, setup_times = _setups(wl, seed, workdir, wl.setup_repeats, checks)
    reps, _ = _repeats(wl, state, workdir, seconds, checks, MIN_REPEATS)
    rates = [r.samples / r.wall for r in reps]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "samples_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # 0 when the output carried no accuracy; that output check has failed.
        "accuracy": (float(reps[0].quality.get("accuracy") or 0.0), "frac"),
    }
    details = {
        "setup_s_each": setup_times,
        "samples_per_s_each": rates,
        "samples_per_repeat": reps[0].samples,
        "quality": reps[0].quality,
    }
    return metrics, details


def measure_traced(wl, seed, seconds, workdir, checks):
    """Per-layer metrics from one traced set-up and one traced repeat."""
    import tracer

    state, _ = _setups(wl, seed, workdir, 1, checks)
    reps, walls = _repeats(wl, state, workdir, seconds / 2, checks, 2)
    untraced_wall = statistics.median(walls)

    rec = tracer.SpanRecorder()
    traced_dir = workdir / "traced"
    traced_dir.mkdir()
    rec.install()
    try:
        with rec.phase("setup"):
            traced_state = wl.setup(traced_dir, seed)
        with rec.phase("run"):
            t0 = perf_counter()
            rep = wl.run_once(traced_state, workdir, span=rec.span)
            traced_wall = perf_counter() - t0
            rec.count("cli.stdout_bytes", rep.stdout_bytes)
    finally:
        rec.uninstall()
    checks.add(rep.checks)
    _same_outputs(checks, reps[0].outputs, rep.outputs, "traced repeat")

    metrics = tracer.layer_metrics(rec, traced_wall / untraced_wall - 1.0)
    unmet = []
    for name, op, value in PREDICTIONS[wl.name]:
        got = metrics[name][0]
        if not (got == value if op == "==" else got > value):
            unmet.append(f"{name} {op} {value}, measured {got}")
    metrics["trace.predictions_unmet"] = (len(unmet), "count")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.npz"
    rec.save(spans_path)
    details = {
        "untraced_repeat_s_each": walls,
        "traced_repeat_s": traced_wall,
        "predictions": [f"{n} {op} {v}" for n, op, v in PREDICTIONS[wl.name]],
        "predictions_unmet": unmet,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evifuse" / "__init__.py").is_file():
        print(f"error: no evifuse sources at {SRC}; run this from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    workdir = WORK / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = measure_traced if args.trace else measure
        metrics, details = run(wl, args.seed, args.seconds, workdir, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    env = environment(args.seed)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": int(value) if unit in ("count", "B") else float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    record = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds, "env": env,
              **result, "failed_frac": checks.failed / checks.attempted,
              "problems": checks.problems, **details}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}", file=sys.stderr)
    for line in checks.problems + details.get("predictions_unmet", []):
        print(f"check: {line}", file=sys.stderr)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
