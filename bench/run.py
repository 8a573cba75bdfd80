"""grwin benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload kmatrix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; grwin is imported from its `src/`.  The
workload's fixed op set is run in passes, closed loop with one caller,
until `--seconds` would be exceeded (at least one pass).  With `--trace 0`
the last stdout line is a JSON object holding the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of bench/METRICS.md, taken from
traced passes that alternate with plain ones.  `--workload all` runs the
three workloads one after another in this process.  Every op's output is
checked outside the timing window and compared with bench/reference.json.

Timings are reported at a reference interpreter speed: bench/calibrate.py
times a fixed kernel around the measured work, and each time is scaled by
the kernel's reference time over its measured time.  The raw figures are
printed too, as `*_raw` lines and a `slowdown` line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("kmatrix", "exactness", "cli")
END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}
IMPORT_REPEATS = 11
SPAN_FILE_MIN_S = 1e-4
# Calibrates after the import, since the kernel itself imports fractions.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import grwin, grwin.cli; "
                "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
                "import calibrate; print(t, calibrate.kernel_seconds(), grwin.__file__)")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_grwin() -> dict:
    if not (SRC / "grwin" / "__init__.py").is_file():
        fail(f"no grwin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"grwin.{m}") for m in tracing.MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "grwin":
        fail(f"grwin was imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def measure_setup(name: str, seed: int, smoke: bool) -> tuple[float, float, object]:
    """Median fresh-process import of grwin and grwin.cli, plus the median
    time to generate the workload's inputs, at reference speed and raw.
    The first import compiles bytecode and is not counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = []
    for i in range(IMPORT_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(BENCH)],
                              env=env, capture_output=True, text=True, timeout=60,
                              cwd=ROOT)
        if proc.returncode:
            fail(f"importing grwin failed:\n{proc.stderr}")
        seconds, kernel, where = proc.stdout.split()
        if Path(where).resolve().parent != SRC / "grwin":
            fail(f"grwin was imported from {where}, not {SRC}")
        if i:
            imports.append((float(seconds), float(kernel)))
    gens = []
    for _ in range(IMPORT_REPEATS):
        t = perf_counter()
        specs = workloads.SPECS[name](seed, smoke)
        gens.append((perf_counter() - t, calibrate.kernel_seconds()))
    ref = statistics.median(t * calibrate.REFERENCE_S / k for t, k in imports) + \
        statistics.median(t * calibrate.REFERENCE_S / k for t, k in gens)
    raw = statistics.median(t for t, _ in imports) + statistics.median(t for t, _ in gens)
    return ref, raw, specs


@dataclass
class Pass:
    wall_raw: float            # seconds, calibration excluded
    segments: list             # per op, at reference speed: cache clear + call
    latencies: list            # per op, at reference speed: the call
    latencies_raw: list
    outputs: list


def run_pass(workload, caches: dict, tracer=None) -> Pass:
    """One pass over the op set.

    Each interval is scaled by the interpreter speed a calibrate.SpeedSampler
    measured along it, and the sampler's own time is left out.  Plain passes
    sample from a timer; traced passes only between ops, outside every span,
    so that the sampler's time stays out of the layers' self times.  A
    segment runs from the end of the previous op to the end of this one, so
    segments add up to the pass.
    """
    if not workload.clear_per_op:
        for c in caches.values():
            c.cache_clear()
    spans, outputs = [], []
    with calibrate.SpeedSampler(timer=tracer is None) as sampler:
        mark = perf_counter()
        for i, op in enumerate(workload.ops):
            if workload.clear_per_op:
                for c in caches.values():
                    c.cache_clear()
            if tracer:
                tracer.op_begin(i)
            t = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # an op that raises is a failed op
                out = OpError(f"{type(exc).__name__}: {exc}")
            end = perf_counter()
            if tracer:
                tracer.op_end()
                if sampler.due():
                    sampler.sample()
            spans.append((mark, t, end))
            outputs.append(out)
            mark = end
    lat = [end - t - sampler.busy(t, end) for _, t, end in spans]
    seg = [end - m - sampler.busy(m, end) for m, _, end in spans]
    factor = [sampler.factor(t, end) for _, t, end in spans]
    return Pass(sum(seg), [x * f for x, f in zip(seg, factor)],
                [x * f for x, f in zip(lat, factor)], lat, outputs)


class OpError(str):
    pass


def failed_checks(workload, ops, outputs, reference: dict) -> list[tuple[str, list]]:
    """(op key, problems) for every op whose check or digest failed."""
    by_key = {op.key: out for op, out in zip(ops, outputs)}
    group = workload.group_checks(by_key)
    ref = reference.get(workload.name, {})
    failed = []
    for op, out in zip(ops, outputs):
        if isinstance(out, OpError):
            failed.append((op.key, [f"raised {out}"]))
            continue
        problems = list(op.check(out)) + group.get(op.key, [])
        expected = ref.get(op.key)
        got = workloads.output_digest(workload.name, out)
        if expected is None:
            problems.append("no reference digest")
        elif got != expected:
            problems.append(f"digest {got} != reference {expected}")
        if problems:
            failed.append((op.key, problems))
    return failed


def run_untimed(workload) -> tuple[list, list]:
    outputs = []
    for op in workload.untimed:
        try:
            outputs.append(op.call())
        except Exception as exc:
            outputs.append(OpError(f"{type(exc).__name__}: {exc}"))
    return workload.untimed, outputs


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(name: str, args, mods: dict, caches: dict, reference: dict) -> dict:
    setup_s, setup_raw, specs = measure_setup(name, args.seed, args.smoke)
    workload = workloads.BUILDERS[name](mods, specs)
    plain: list[Pass] = []
    layer_passes: list[dict] = []
    traced_walls: list[float] = []
    attempted, failed = 0, []
    start = perf_counter()
    while True:
        # a traced run alternates plain and traced passes, for the overhead
        traced = args.trace and len(plain) > len(layer_passes)
        tracer = tracing.Tracer(caches) if traced else None
        if tracer:
            tracer.install(mods)
        try:
            p = run_pass(workload, caches, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        # outputs are dropped once checked, so they add nothing to peak RSS
        failed += failed_checks(workload, workload.ops, p.outputs, reference)
        attempted += len(p.outputs)
        p.outputs = []
        if tracer:
            layer_passes.append(tracing.pass_layer_values(tracer, p.wall_raw))
            traced_walls.append(sum(p.segments))
            last_tracer = tracer
        else:
            plain.append(p)
        if args.trace and not layer_passes:
            continue
        if perf_counter() - start + p.wall_raw > args.seconds:
            break
    untimed_ops, untimed_out = run_untimed(workload)
    failed += failed_checks(workload, untimed_ops, untimed_out, reference)
    attempted += len(untimed_out)

    for key, problems in failed[:20]:
        print(f"FAILED {name} {key}: {'; '.join(problems)}", file=sys.stderr)
    result = {"attempted": attempted, "failed": len(failed),
              "passes": len(plain) + len(layer_passes)}
    if args.trace:
        # both at reference speed, or a change of machine speed between the
        # passes would read as tracing overhead
        overhead = (statistics.median(traced_walls)
                    - statistics.median(sum(p.segments) for p in plain))
        result["metrics"] = tracing.median_layer_values(layer_passes, overhead)
        out_file = BENCH / "out" / f"trace-{name}.jsonl"
        last_tracer.write(out_file, {"workload": name, "seed": args.seed},
                          SPAN_FILE_MIN_S)
        result["notes"] = [f"self times are raw seconds; spans in "
                           f"{out_file.relative_to(ROOT)}"]
        return result
    # An op has the same input and cache state in every pass, so each op
    # gets the median of its times over the passes; the percentiles and the
    # pass time are taken over those per-op medians.
    per_op = [statistics.median(x) for x in zip(*(p.latencies for p in plain))]
    per_op_raw = [statistics.median(x) for x in zip(*(p.latencies_raw for p in plain))]
    result["metrics"] = {
        "wall_s": sum(statistics.median(x) for x in zip(*(p.segments for p in plain))),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_p99_ms": 1e3 * percentile(per_op, 0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    result["raw"] = {
        "wall_raw_s": statistics.median(p.wall_raw for p in plain),
        "op_p50_raw_ms": 1e3 * statistics.median(per_op_raw),
        "op_p99_raw_ms": 1e3 * percentile(per_op_raw, 0.99),
        "setup_raw_s": setup_raw,
        "slowdown": sum(per_op_raw) / sum(per_op),
    }
    result["notes"] = [f"{len(per_op)} ops a pass; timings at reference speed, "
                       f"raw = as measured; slowdown = raw / reference"]
    return result


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric in tracing.LAYER_METRICS:
        return tracing.LAYER_METRICS[metric][0]
    if metric in ("slowdown", "failed_ratio"):
        return "ratio"
    return "ms" if metric.endswith("_ms") else "s"


def report(name: str, result: dict) -> None:
    rows = {**result["metrics"], **result.get("raw", {}),
            "failed_ratio": result["failed"] / result["attempted"]}
    for metric, value in rows.items():
        print(f"{name:10s} {metric:42s} {value:14.6g} {unit(metric)}")
    print(f"{name:10s} # {result['failed']} failed / {result['attempted']} attempted "
          f"checks, {result['passes']} passes; " + "; ".join(result["notes"]))


def environment() -> str:
    return (f"python={platform.python_version()} platform={platform.platform()} "
            f"nproc={os.cpu_count()}")


def record_reference(mods: dict, caches: dict) -> None:
    """Write the digest of every op any seed can produce."""
    ref: dict = {}
    for name in WORKLOADS:
        ref[name] = {}
        for smoke in (False, True):
            workload = workloads.BUILDERS[name](mods, workloads.SPECS[name](0, smoke))
            outputs = run_pass(workload, caches).outputs
            ops, extra = run_untimed(workload)
            for op, out in zip(workload.ops + ops, outputs + extra):
                if isinstance(out, OpError):
                    fail(f"{name} {op.key} raised {out}")
                ref[name][op.key] = workloads.output_digest(name, out)
    path = BENCH / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, ref.values()))} digests to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced op sets, for the benchmark's own test")
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this checkout's outputs")
    args = parser.parse_args(argv)
    if not (args.workload or args.record_reference):
        parser.error("--workload is required")

    mods = import_grwin()
    caches = tracing.cache_objects(mods)
    if args.record_reference:
        record_reference(mods, caches)
        return 0
    reference = json.loads(args.reference.read_text())
    print(f"# grwin benchmark  {environment()}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = run_workload(name, args, mods, caches, reference)
        report(name, result)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + m: {"value": v, "unit": unit(m)}
                        for m, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
