#!/usr/bin/env python3
"""quiverz benchmark: four workloads, end-to-end timings, per-module trace.

Run from the repository root:

    python3 bench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-check

Workloads (see ``workloads.py``): ``suite``, ``exhaustive``, ``theta-sweep``
and ``certify``.  The program under test is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits with code 2.

With ``--trace 0`` the run repeats untraced passes until one more would take
their summed time past ``--seconds``, sets up in a fresh interpreter before
the first pass and after each pass until it has done so ``SETUP_SAMPLES``
times, and reports the end-to-end metrics.  With ``--trace 1`` it makes the
same untraced passes, then one traced pass, and reports the per-layer
metrics.  Every pass output is checked right after its pass, untimed; failed
checks count in ``failed``.  The last stdout line is the JSON result.  A
record of the run (inputs, seed, Python version, nproc, git SHA and item
times) goes to ``bench/out/``, with the spans of a traced pass
beside it.

A pass is a list of items, each timed on its own: one CLI call for
``suite``, one sweep for ``theta-sweep``, one table or report for
``exhaustive`` and one verdict for ``certify``; the verdict times of
``certify`` give its latency percentiles.

Every time the benchmark reports is at reference host speed (see
``hostspeed.py``): the host speed kernel runs before the first item of a
pass and after each item, and each item's time is scaled by ``REFERENCE_S``
over the mean of the two kernel times around it; a set-up is scaled by the
kernel times its fresh interpreter measures around it.  On a shared 2-vCPU
virtual machine (Intel Xeon, Python 3.11.7) the same item ran at speeds up
to 2x apart, each held for seconds to minutes and set by other tenants, and
the kernel slowed with it.  ``wall_ref_s`` and ``cpu_ref_s`` sum, over the
items of a pass, each item's median scaled time in the run; ``setup_s`` is
the median scaled set-up.  The unscaled times are reported with the
per-layer metrics as ``raw.wall_s`` and ``raw.cpu_s``, and the host speed
(``REFERENCE_S`` over the median kernel time) as ``host.speed``.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("suite", "exhaustive", "theta-sweep", "certify")
MODULES = ("partitions", "abdiagrams", "exactmat", "quiverrep", "verify", "cli")
SETUP_SAMPLES = 6

EXACTMAT = (
    "mul", "rank", "kernel_basis", "inverse", "jordan_type", "jordan_basis",
    "conjugator", "all_subspaces",
)
QUIVERREP = (
    "build_from_chain", "sample_stable", "act", "witness_reducible", "check_relations",
    "nilpotency_degrees", "is_stable", "is_stable_subspace_criterion",
)
VERIFY = ("pair_type_table", "ab_step_report", "stability_report", "theta_image_report")
ENUMERATORS = ("verify.pair_type_table", "verify.ab_step_report", "verify.stability_report")

# Run in a fresh interpreter: import the program and generate the inputs,
# between two runs of the host speed kernel.
SETUP_PROBE = """\
import sys
sys.path[:0] = [{bench!r}]
import time
import hostspeed
before = hostspeed.probe()[0]
t0 = time.perf_counter()
sys.path[:0] = [{src!r}]
import workloads
workloads.WORKLOADS[{name!r}].setup({seed!r})
t1 = time.perf_counter()
print(repr((t1 - t0, (before + hostspeed.probe()[0]) / 2)))
"""


class Unavailable(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def load_program():
    if not (SRC / "quiverz" / "__init__.py").is_file():
        raise Unavailable(f"no quiverz package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import quiverz

    if Path(quiverz.__file__).resolve().parent != SRC / "quiverz":
        raise Unavailable(f"quiverz imported from {quiverz.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"quiverz.{name}") for name in MODULES}


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def clear_caches(modules: dict) -> None:
    """Empty every functools cache of the program: a CLI user starts each
    invocation with cold caches, so every pass does too."""
    for module in modules.values():
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) == module.__name__ and hasattr(obj, "cache_clear"):
                obj.cache_clear()


def setup_seconds(name: str, seed: int) -> tuple:
    """Seconds of one set-up in a fresh interpreter, raw and at reference speed."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=ROOT
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    raw, kernel_s = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    return raw, raw * hostspeed.REFERENCE_S / kernel_s


def scale(raw: float, kernel_before: float, kernel_after: float) -> float:
    """``raw`` seconds at reference speed, by the kernel times around it."""
    return raw * hostspeed.REFERENCE_S * 2 / (kernel_before + kernel_after)


def timed_pass(workload, inputs, modules, first_item_s: float = 0.0) -> dict:
    """One timed pass, with a host speed probe before the first item and
    after each; each probe runs for ``SHARE`` of the item it follows, and the
    first for ``SHARE`` of ``first_item_s``, the first item's time last pass."""
    clear_caches(modules)
    start = time.perf_counter()
    kernels = [hostspeed.probe(hostspeed.SHARE * first_item_s)]
    raw_walls, raw_cpus, walls, cpus, outputs = [], [], [], [], []
    for _, call in workload.items(inputs):
        c0 = time.process_time()
        t0 = time.perf_counter()
        outputs.append(call())
        t1 = time.perf_counter()
        c1 = time.process_time()
        kernels.append(hostspeed.probe(hostspeed.SHARE * (t1 - t0)))
        (kw0, kc0), (kw1, kc1) = kernels[-2:]
        raw_walls.append(t1 - t0)
        raw_cpus.append(c1 - c0)
        walls.append(scale(t1 - t0, kw0, kw1))
        cpus.append(scale(c1 - c0, kc0, kc1))
    return {"elapsed_s": time.perf_counter() - start, "item_wall_s": walls,
            "item_cpu_s": cpus, "item_raw_wall_s": raw_walls, "item_raw_cpu_s": raw_cpus,
            "kernel_wall_s": [k[0] for k in kernels], "output": outputs}


def traced_pass(workload, inputs, modules, pass_s: float = 0.0) -> tuple:
    """One traced pass; its times are scaled by the probes around it, each
    run for ``SHARE`` of ``pass_s``, an untraced pass's time."""
    from tracer import Tracer

    clear_caches(modules)
    kw0, kc0 = hostspeed.probe(hostspeed.SHARE * pass_s)
    with Tracer(modules, modules["exactmat"].ExactMatrix) as tracer:
        c0 = time.process_time()
        t0 = time.perf_counter()
        output = [call() for _, call in workload.items(inputs)]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    kw1, kc1 = hostspeed.probe(hostspeed.SHARE * pass_s)
    return {"raw_wall_s": wall, "raw_cpu_s": cpu, "wall_s": scale(wall, kw0, kw1),
            "cpu_scale": scale(1.0, kc0, kc1), "output": output}, tracer


def measure(workload, inputs, modules, seconds: float, after_pass) -> list:
    """Untraced passes until one more would take the time spent in passes past
    ``seconds``.  ``after_pass`` gets each pass right after it, untimed."""
    passes = []
    spent = 0.0
    while True:
        first = passes[-1]["item_raw_wall_s"][0] if passes else 0.0
        p = timed_pass(workload, inputs, modules, first)
        spent += p["elapsed_s"]
        after_pass(p)
        passes.append(p)
        if spent + statistics.median(q["elapsed_s"] for q in passes) > seconds:
            return passes


def percentile(values: list, q: int) -> float:
    """The q-th percentile (1..99) by Python's inclusive quantile rule."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_items(passes: list, key: str) -> float:
    """Sum over the items of a pass of each item's median time."""
    return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))


def end_to_end_metrics(passes: list, setup_samples: list) -> dict:
    return {
        "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
        "wall_ref_s": (median_items(passes, "item_wall_s"), "s"),
        "cpu_ref_s": (median_items(passes, "item_cpu_s"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(workload, inputs, passes: list, traced: dict, tracer) -> dict:
    """Metrics of the traced pass; a layer the workload never reaches reads 0.
    Span times are thread CPU times, scaled to reference speed by the kernel's
    CPU times around the traced pass."""
    k = traced["cpu_scale"]
    summary = {
        name: {"calls": e["calls"], "incl_s": e["incl_s"] * k, "self_s": e["self_s"] * k}
        for name, e in tracer.summary().items()
    }
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    m: dict = {}
    for module, names in (("exactmat", EXACTMAT), ("quiverrep", QUIVERREP)):
        listed = {f"{module}.{f}" for f in names}
        for f in names:
            entry = summary.get(f"{module}.{f}", zero)
            m[f"{module}.{f}.calls"] = (entry["calls"], "count")
            m[f"{module}.{f}.self_s"] = (entry["self_s"], "s")
        rest = [e for k, e in summary.items() if k.startswith(module + ".") and k not in listed]
        m[f"{module}.other.calls"] = (sum(e["calls"] for e in rest), "count")
        m[f"{module}.other.self_s"] = (sum(e["self_s"] for e in rest), "s")
    m["exactmat.matrices_built"] = (tracer.matrices_built, "count")
    m["exactmat.entries_built"] = (tracer.entries_built, "count")
    m["exactmat.mul.ops"] = (tracer.mul_ops, "computed_madd")
    jt, rk = summary.get("exactmat.jordan_type", zero), summary.get("exactmat.rank", zero)
    ratio = 0.0
    if jt["calls"] and rk["calls"] and rk["incl_s"] > 0:
        ratio = (jt["incl_s"] / jt["calls"]) / (rk["incl_s"] / rk["calls"])
    m["exactmat.jordan_type.rank_ratio"] = (ratio, "ratio")
    for module in ("abdiagrams", "partitions"):
        entries = [e for k, e in summary.items() if k.startswith(module + ".")]
        m[f"{module}.calls"] = (sum(e["calls"] for e in entries), "count")
        m[f"{module}.self_s"] = (sum(e["self_s"] for e in entries), "s")
    for f in VERIFY:
        m[f"verify.{f}.self_s"] = (summary.get(f"verify.{f}", zero)["self_s"], "s")
    tuples = workload.tuples(inputs, traced["output"])
    enum_s = sum(summary.get(k, zero)["incl_s"] for k in ENUMERATORS)
    m["verify.tuples"] = (tuples, "count")
    m["verify.tuples_per_s"] = (tuples / enum_s if tuples and enum_s > 0 else 0.0, "1/s")
    wall = median_items(passes, "item_wall_s")
    m["verify.pool.cpu_per_wall"] = (median_items(passes, "item_cpu_s") / wall, "ratio")
    m["cli.self_s"] = (sum(e["self_s"] for k, e in summary.items() if k.startswith("cli.")), "s")
    m["trace.overhead_frac"] = ((traced["wall_s"] - wall) / wall, "ratio")
    m["trace.spans"] = (tracer.span_count(), "count")
    m["raw.wall_s"] = (median_items(passes, "item_raw_wall_s"), "s")
    m["raw.cpu_s"] = (median_items(passes, "item_raw_cpu_s"), "s")
    kernel_s = statistics.median(t for p in passes for t in p["kernel_wall_s"])
    m["host.speed"] = (hostspeed.REFERENCE_S / kernel_s, "ratio")
    lat = latencies_ms(workload, passes)
    m["verdict_p50_ms"] = (percentile(lat, 50) if lat else 0.0, "ms")
    m["verdict_p90_ms"] = (percentile(lat, 90) if lat else 0.0, "ms")
    m["verdict_samples"] = (len(lat), "count")
    return m


def latencies_ms(workload, passes: list) -> list:
    """Verdict latencies pooled over all passes; none where items are not verdicts."""
    if not workload.latency_items:
        return []
    return [t * 1000.0 for p in passes for t in p["item_wall_s"]]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def run(args) -> dict:
    modules = load_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    setup_samples: list = []

    def probe() -> None:
        if not args.trace and len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_seconds(workload.name, args.seed))

    probe()
    inputs = workload.setup(args.seed)
    check = workload.checker(inputs)
    attempted = failed = 0

    def after_pass(p: dict) -> None:
        nonlocal attempted, failed
        a, f = check(p.pop("output"))
        attempted, failed = attempted + a, failed + f
        probe()

    passes = measure(workload, inputs, modules, args.seconds, after_pass)
    while not args.trace and len(setup_samples) < SETUP_SAMPLES:
        probe()
    traced = tracer = None
    if args.trace:
        pass_s = statistics.median(sum(p["item_raw_wall_s"]) for p in passes)
        traced, tracer = traced_pass(workload, inputs, modules, pass_s)
        a, f = check(traced["output"])
        attempted, failed = attempted + a, failed + f
        metrics = per_layer_metrics(workload, inputs, passes, traced, tracer)
    else:
        metrics = end_to_end_metrics(passes, setup_samples)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    lat = latencies_ms(workload, passes)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "setup_samples_raw_and_ref_s": setup_samples,
        "items": [label for label, _ in workload.items(inputs)],
        "passes": passes,
        "verdict_latency_ms": {
            "samples": len(lat),
            "p50": percentile(lat, 50) if lat else None,
            "p90": percentile(lat, 90) if lat else None,
        },
        "traced_wall_s": traced["wall_s"] if traced else None,
        "traced_raw_wall_s": traced["raw_wall_s"] if traced else None,
        "reference_kernel_s": hostspeed.REFERENCE_S,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        record["spans_file"] = f"{stem}.spans.tsv.gz"
        tracer.write(OUT / record["spans_file"])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="check the benchmark itself")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            modules = load_program()
            import selfcheck

            return selfcheck.main(sys.modules[__name__], modules)
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except Unavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
