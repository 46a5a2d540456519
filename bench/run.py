"""Benchmark of the dessins pipeline: three closed-loop workloads, one
caller on one thread, timed end to end and, in a separate traced run,
layer by layer.

    python3 bench/run.py --workload subdivide_pipeline --seed 1 \\
        --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones.  Earlier lines
give every metric by name and unit, the error rate with its base and
the stamp (seed, versions, git SHA, CPU count, thread settings).  The
full result, and with --trace 1 every span, is written under
bench/results/.  See bench/NOTES.md for why the workloads are what they
are.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads, so the
# numbers measure the program and not the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

from speed import REFERENCE_NS, SpeedGauge  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

WORKLOADS = ("subdivide_pipeline", "coordinate_maps", "classify_surfaces")
SETUP_PROBES = 7
MIN_PASSES = 3

END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "op_p50_ms", "op_p90_ms")

# Library calls wrapped in spans; the csmap ones take no size.
LAYER_FUNCTIONS = (
    "document.parse", "document.to_dessin", "cartography.violations",
    "cartography.genus", "tiling.corner_bipartition", "tiling.refine_2x2",
    "tiling.diagonal_subdivision", "document.from_tricolored",
    "document.serialize", "document.to_tricolored", "belyi.passport",
    "belyi.riemann_hurwitz_genus", "belyi.barycentric_subdivide",
    "metric.square_structure", "metric.cone_angle",
    "cartography.canonical_code", "cartography.is_isomorphic",
    "csmap.cs_map", "csmap.triangle_to_square", "csmap.invert_cs_map",
)
UNSIZED = {"csmap.cs_map", "csmap.triangle_to_square", "csmap.invert_cs_map"}
LAYER_EXTRAS = {  # name: unit
    "tiling.refine_share": "ratio",
    "cli.main_s": "s",
    "cli.main_calls": "count",
    "catalog.build_s": "s",
    "cartography.relabeled_s": "s",
    "csmap.invert_failures.NonConvergenceError": "count",
    "csmap.invert_failures.OutsideImageError": "count",
    "csmap.invert_failures.other": "count",
    "csmap.invert_failures.check": "count",
    "csmap.first_call_s.square_cell": "s",
    "csmap.first_call_s.triangle_coord": "s",
    "csmap.first_call_s.square_coord": "s",
    "trace.overhead_share": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}_s"] = "s"
        units[f"{fn}_calls"] = "count"
        units[f"{fn}_share"] = "ratio"
        if fn not in UNSIZED:
            units[f"{fn}_size_exp"] = "exponent"
    units.update(LAYER_EXTRAS)
    return units


class BenchmarkError(Exception):
    """The benchmark cannot run here, or its definition is inconsistent."""


def import_library():
    """Put the checkout's src/ first on the path; refuse to run against
    any other copy of the package."""
    src = ROOT / "src"
    if not (src / "dessins" / "__init__.py").is_file():
        raise BenchmarkError(f"no dessins package under {src}")
    sys.path.insert(0, str(src))
    import dessins
    if Path(dessins.__file__).resolve().parent != src / "dessins":
        raise BenchmarkError(f"imported dessins from {dessins.__file__}")


def make_workload(name: str, seed: int):
    if name == "subdivide_pipeline":
        from subdivide_pipeline import SubdividePipeline
        return SubdividePipeline(seed)
    if name == "coordinate_maps":
        from coordinate_maps import CoordinateMaps
        return CoordinateMaps(seed)
    from classify_surfaces import ClassifySurfaces
    return ClassifySurfaces(seed)


@dataclass
class Record:
    item: int  # position in the workload's input list
    kind: str
    seconds: float  # wall clock
    squares: int
    error: str | None  # exception type, "check" or "pass-check"
    tolerated: bool
    detail: str = ""
    speed: float = 1.0  # speed.SpeedGauge.factor around the op

    @property
    def corrected(self) -> float:
        """Seconds at the gauge's reference speed."""
        return self.seconds * self.speed


def run_pass(wl, tr, checked: dict, gauge) -> list[Record]:
    """One pass over the workload's inputs.  Only wl.run is timed; the
    checks follow each op, and the cross-op checks follow the pass.
    The library is deterministic, so an output whose summary equals that
    of an output already checked for the same input is not checked
    again; ``checked`` maps input position to that summary.  ``gauge``
    samples the machine's speed between ops."""
    items = wl.items()
    gc.collect()
    records = []
    results = []
    samples = []
    for i, item in enumerate(items):
        samples.append(gauge.before_op())
        tr.open_op(i)
        start = perf_counter_ns()
        try:
            out = wl.run(item, tr)
            error = None
        except (ValueError, RuntimeError) as exc:  # the library's errors
            out, error = None, exc
        end = perf_counter_ns()
        tr.close_op(start, end)
        rec = Record(i, wl.kind(item), (end - start) * 1e-9,
                     wl.squares(item), None, False)
        if error is not None:
            rec.error = type(error).__name__
            rec.tolerated = wl.tolerated(item, error)
            rec.detail = str(error)
        elif checked.get(i) != (summary := wl.summary(out)):
            try:
                problem = wl.check(item, out)
            except (ValueError, RuntimeError) as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is None:
                checked[i] = summary
            else:
                rec.error, rec.detail = "check", problem
        records.append(rec)
        results.append(out)
    gauge.sample()
    for rec, before in zip(records, samples):
        rec.speed = gauge.factor(before)
    for i, problem in wl.check_pass(items, results).items():
        if records[i].error is None:
            records[i].error, records[i].detail = "pass-check", problem
    return records


def measure(wl, seconds: float, traced, gauge, between_passes):
    """Whole passes over the same inputs until about ``seconds`` of op
    time, calling ``between_passes`` after each.  With a tracer, passes
    alternate between untraced and traced, and the difference is the
    tracing overhead."""
    from tracing import NullTracer
    plain = NullTracer()
    records = {False: [], True: []}
    checked = {}
    busy = 0.0
    passes = 0
    while True:
        mode = traced is not None and passes % 2 == 1
        recs = run_pass(wl, traced if mode else plain, checked, gauge)
        records[mode] += recs
        busy += sum(r.seconds for r in recs)
        passes += 1
        between_passes()
        if busy + busy / passes / 2 >= seconds and passes >= MIN_PASSES \
                and (traced is None or passes % 2 == 0):
            return records[False], records[True], passes


@dataclass
class Op:
    """One input of the workload, over all the passes that ran it."""
    first: Record
    seconds: float  # median over the passes
    failed: bool  # in any pass


def ops(records, corrected: bool = True) -> list[Op]:
    """Each input's median time over its passes, at the gauge's
    reference speed or, with ``corrected`` false, on the wall clock.
    The speed correction takes out the machine's speed at the time of
    each op; the median takes out what it misses, such as an op
    interrupted in one pass."""
    by_item: dict[int, list[Record]] = {}
    for r in records:
        by_item.setdefault(r.item, []).append(r)
    return [Op(rs[0], statistics.median(r.corrected if corrected
                                        else r.seconds for r in rs),
               any(r.error is not None for r in rs))
            for _, rs in sorted(by_item.items())]


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(wl, timed: list[Op]) -> dict[str, tuple[float, str]]:
    busy = sum(op.seconds for op in timed)
    ms = [op.seconds * 1e3 for op in timed]
    out = {
        "ops_per_s": (len(timed) / busy, "1/s"),
        "op_p50_ms": (percentile(ms, 50), "ms"),
        "op_p90_ms": (percentile(ms, 90), "ms"),
    }
    if wl.unit == "squares":
        out["squares_per_s"] = (
            sum(op.first.squares for op in timed) / busy, "1/s")
    else:
        for kind in ("forward", "inverse"):
            mine = [op.seconds for op in timed if op.first.kind == kind]
            out[f"{kind}_points_per_s"] = (len(mine) / sum(mine), "1/s")
        inverse = [op.seconds * 1e3 for op in timed
                   if op.first.kind == "inverse"]
        out["inverse_p50_ms"] = (percentile(inverse, 50), "ms")
        out["inverse_p99_ms"] = (percentile(inverse, 99), "ms")
    return out


def setup_probe(workload: str, seed: int, gauge) -> float:
    """Time from starting a fresh interpreter until it has built its
    inputs and is about to time its first op, at the gauge's reference
    speed, as measured just before and just after."""
    before = gauge.sample()
    start = perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise BenchmarkError(f"setup probe exited with {code}")
    gauge.sample()
    return elapsed * gauge.factor(before)


def git_sha() -> str:
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def stamp(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def check_definition(reported: list[str], trace: int) -> None:
    """The metric names printed must be the ones BENCHMARK.json lists."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(listed) != sorted(reported):
        raise BenchmarkError(
            f"BENCHMARK.json lists {sorted(listed)}, "
            f"the benchmark reports {sorted(reported)}")


def run_one(args) -> int:
    from tracing import Tracer
    probes = []
    gauge = SpeedGauge()

    def probe():
        # spread over the run, so that the probes do not all land in one
        # busy stretch of a shared machine
        if not args.trace and len(probes) < SETUP_PROBES:
            probes.append(setup_probe(args.workload, args.seed, gauge))

    wl = make_workload(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    records, traced_records, passes = measure(wl, args.seconds, tracer,
                                              gauge, probe)
    while not args.trace and len(probes) < SETUP_PROBES:
        probe()
    all_records = records + traced_records
    # an op is one input, run in every pass; the library is
    # deterministic, so whether it fails does not depend on the pass
    attempted = ops(all_records)
    failed = [op for op in attempted if op.failed]
    failures = [r for r in all_records if r.error is not None]
    wrong = [r for r in failures if not r.tolerated]

    report: dict[str, tuple[float, str]] = {}
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        units = per_layer_units()
        values = {name: 0 for name in units}
        values.update(tracer.layer_metrics(LAYER_FUNCTIONS,
                                           set(LAYER_FUNCTIONS) - UNSIZED))
        values.update(wl.setup_times)
        values.update(wl.traced_extras(tracer, traced_records, RESULTS))
        values["trace.overhead_share"] = (
            sum(op.seconds for op in ops(traced_records))
            / sum(op.seconds for op in ops(records)) - 1.0)
        report = {name: (values[name], units[name]) for name in units}
        gated = list(units)
    else:
        report["setup_s"] = (statistics.median(probes), "s")
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        report.update(end_to_end(wl, ops(records)))
        report.update({f"wall.{name}": value for name, value in
                       end_to_end(wl, ops(records, corrected=False)).items()})
        gated = list(END_TO_END)
    check_definition(gated, args.trace)

    info = stamp(args)
    info.update(passes=passes, setup_probes_s=probes,
                speed_reference_ns=REFERENCE_NS)
    print(f"# {args.workload} seed={args.seed} passes={passes} "
          f"ops={len(attempted)} runs={len(all_records)} "
          f"busy={sum(r.seconds for r in all_records):.3f}s")
    print("# stamp " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in report.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'error_rate':48s} {len(failed)}/{len(attempted)} = "
          f"{len(failed) / len(attempted):.6g} ratio")
    for r in wrong[:10]:
        print(f"FAILED CHECK {r.error}: {r.detail}", file=sys.stderr)

    result = {
        "correct": not wrong,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {name: {"value": report[name][0], "unit": report[name][1]}
                    for name in gated},
    }
    base = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = dict(result, stamp=info, all_metrics={
        name: {"value": v, "unit": u} for name, (v, u) in report.items()},
        error_rate={"failed": len(failed), "attempted": len(attempted)},
        failures=[{"item": r.item, "error": r.error, "detail": r.detail,
                   "kind": r.kind} for r in failures])
    base.with_suffix(".json").write_text(json.dumps(full, indent=1) + "\n",
                                         encoding="utf-8")
    if tracer is not None:
        tracer.write(base.with_suffix(".spans.jsonl"))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode not in (0, 1):  # no result printed
            return child.returncode
        code = code or child.returncode
        result = json.loads(child.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_library()
        if args.setup_only:
            make_workload(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        return run_one(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
