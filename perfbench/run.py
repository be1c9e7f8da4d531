"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload arm8-c5 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the library is imported from ./src.
With --trace 0 the run sets up the workload several times, then repeats
the timed operation for at least --seconds, and reports the end-to-end
metrics, their times restated at a reference host speed (see hostspeed.py;
the raw wall figures are printed too). With --trace 1 it sets up once
under the tracer, then alternates untraced and traced operations for at
least --seconds, and reports the per-module metrics and the tracing
overhead. Either way it checks every
operation's output; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics, and the exit code is
0 only when nothing failed. BENCHMARK.json at the checkout root names the
metrics of each mode.
"""
from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: the matrices here are at most
# a few hundred rows, where threads only add run-to-run spread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
HASH_SEED = "0"
OUT_DIR = ROOT / "perfbench_out"


def _import_library():
    """Import egoinf from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import egoinf

    if src.resolve() not in Path(egoinf.__file__).resolve().parents:
        raise ImportError(f"egoinf was imported from {egoinf.__file__}, not {src}")


def _blas_threads() -> int | None:
    """The thread count OpenBLAS reports, when numpy bundles OpenBLAS."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _fix_hash_seed() -> None:
    """Re-execute this process with a fixed PYTHONHASHSEED. String hashing is
    randomised per process, and with it how the library's dicts and sets lie
    in memory: that alone moved the median run_s of arm2-warm by up to 15%
    from one process to the next, where a fixed seed keeps it within 4%.
    exec replaces the process, so no child is left behind."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank), or the maximum when there are ten samples or fewer."""
    xs = sorted(values)
    n = len(xs)
    best = (100, xs[-1])
    for q in range(1, 100):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            best = (q, xs[rank - 1])
    return best


def per_ego_median(latencies: list[float], repeats: int) -> list[float]:
    """Each ego's latency: the median of its calls, one per operation.
    latencies lists every operation's calls in turn, egos in the same order
    in each. A predict call of a few milliseconds is now and then slowed
    several-fold by a host hiccup or a garbage collection that lands in
    it; the median over repeats keeps such one-off delays out of the tail."""
    n, rest = divmod(len(latencies), repeats)
    if rest:
        raise ValueError(f"{len(latencies)} predict calls over {repeats} operations")
    return [statistics.median(latencies[e::n]) for e in range(n)]


def _repeat(seconds: float, step, problems: list[str]) -> tuple[int, int]:
    """Call step() at least once, and again while another call should end
    within --seconds of the first. step returns how many operations it ran
    and how many of them failed a check; an exception counts as one failed
    operation. The first failure ends the loop."""
    attempted = failed = 0
    start = time.perf_counter()
    durations: list[float] = []
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        try:
            ran, bad = step()
        except Exception:  # a raising operation is a failed operation
            problems.append(traceback.format_exc())
            return attempted + 1, failed + 1
        durations.append(time.perf_counter() - t0)
        attempted += ran
        failed += bad
        if bad:
            break
    return attempted, failed


def measure_end_to_end(wl, seed: int, seconds: float) -> dict:
    """Set up SETUP_REPEATS times, then repeat the timed operation. Times
    are restated at the reference host speed (hostspeed.py); the raw wall
    figures go into the report's "wall" entry."""
    import hostspeed
    import workloads

    problems: list[str] = []
    setup_spans, digests = [], set()
    results = []
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = wl.setup(seed)
            setup_spans.append((t0, time.perf_counter()))
            digests.add(wl.fingerprint(ctx))
        if len(digests) != 1:
            problems.append("repeated set-ups produced different inputs or models")
        gate = workloads.Gate(ctx, problems)

        def step():
            results.append(wl.run_op(ctx))
            return 1, gate.failed(results[-1])

        attempted, failed = _repeat(seconds, step, problems)
    finally:
        sampler.stop()

    def both(spans, scale=1.0):
        """Each span at the reference speed, and its wall time less probes."""
        return (
            [scale * sampler.seconds(a, b) for a, b in spans],
            [scale * sampler.wall_seconds(a, b) for a, b in spans],
        )

    setup_times, setup_wall = both(setup_spans)
    op_times, op_wall = both([(r.start, r.end) for r in results])
    calls = [s for r in results for s in r.predict_spans]
    latencies, latencies_wall = both(calls, 1000.0)
    report = {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "setup_times": setup_times,
        "op_times": op_times,
        "host_slowdown": hostspeed.summary(sampler.slowdown()),
    }
    if latencies:
        # every operation scores each test ego once, in the same order
        ego_ms = per_ego_median(latencies, len(results))
        ego_ms_wall = per_ego_median(latencies_wall, len(results))
        q, tail = tail_percentile(ego_ms)
        report["tail_percentile"] = q
        report["predict_samples"] = len(ego_ms)
        report["predict_repeats"] = len(results)
        report["auc"] = results[0].auc
        report["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(op_times),
            "predict_ms.p50": statistics.median(ego_ms),
            "predict_ms.tail": tail,
            "egos_per_s": 1000.0 * len(latencies) / sum(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["wall"] = {
            "setup_s": statistics.median(setup_wall),
            "run_s": statistics.median(op_wall),
            "predict_ms.p50": statistics.median(ego_ms_wall),
            "predict_ms.tail": tail_percentile(ego_ms_wall)[1],
            "egos_per_s": 1000.0 * len(latencies_wall) / sum(latencies_wall),
        }
    return report


def measure_traced(wl, seed: int, seconds: float) -> dict:
    import tracing
    import workloads

    problems: list[str] = []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ctx = wl.setup(seed)
    finally:
        tracer.uninstall()
    tracer.phase = "op"
    gate = workloads.Gate(ctx, problems)
    plain, traced = [], []

    def step():
        # an untraced and a traced operation, back to back
        plain.append(wl.run_op(ctx))
        bad = gate.failed(plain[-1])
        tracer.install()
        try:
            traced.append(wl.run_op(ctx))
        finally:
            tracer.uninstall()
        return 2, bad + gate.failed(traced[-1])

    attempted, failed = _repeat(seconds, step, problems)
    report = {"problems": problems, "attempted": attempted, "failed": failed}
    if traced:
        problems.extend(check_counts(tracer, wl.expected_calls(ctx), len(traced)))
        layer = tracing.layer_metrics(tracer, "op", len(traced))
        setup = tracing.layer_metrics(tracer, "setup", 1)
        layer.update({f"setup.{k}": v for k, v in setup.items()})
        layer["metrics.auc"] = traced[0].auc
        layer["trace.overhead_frac"] = (
            statistics.median(r.seconds for r in traced)
            / statistics.median(r.seconds for r in plain)
            - 1.0
        )
        report["metrics"] = layer
        report["span_table"] = tracer.span_table()
        report["spans"] = tracer.spans
    return report


def check_counts(tracer, expected: dict, ops: int) -> list[str]:
    """Exact call counts: once for the set-up, per operation for the rest."""
    problems = []
    for (phase, name), want in sorted(expected.items()):
        per = 1 if phase == "setup" else ops
        got = tracer.calls[(phase, name)]
        if got != want * per:
            problems.append(
                f"{phase} {name}: {got} calls over {per} operations, want {want} each"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        _import_library()
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")

    env = environment()
    wl = workloads.build(args.workload)
    measure = measure_traced if args.trace else measure_end_to_end
    try:
        report = measure(wl, args.seed, args.seconds)
    except Exception:  # set-up failed: no operation could be attempted
        traceback.print_exc()
        return 1
    problems = report["problems"]
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    computed = report.get("metrics", {})
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env}
    record.update({k: v for k, v in report.items() if k != "metrics"})
    record["metrics"] = computed
    out.write_text(json.dumps(record))

    failed_frac = report["failed"] / report["attempted"]
    correct = not problems and report["failed"] == 0
    print(json.dumps({"env": env}))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(
            f"{'  predict_ms.tail is p' + str(report['tail_percentile']):44s} "
            f"{report['predict_samples']:>14d} egos, "
            f"each the median of {report['predict_repeats']} calls"
        )
        print(f"{'auc':44s} {report['auc']:>14.6g} ratio")
        slow = report["host_slowdown"]
        print(
            f"host slow-down over the reference: median {slow['median']:.3f}, "
            f"range {slow['min']:.3f}-{slow['max']:.3f} over {slow['probes']} probes"
        )
        for name, value in report["wall"].items():
            print(f"{'  wall ' + name:44s} {value:>14.6g}")
    print(f"{'failed_frac':44s} {failed_frac:>14.6g} ratio")
    print(f"details in {out.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    _fix_hash_seed()
    sys.exit(main())
