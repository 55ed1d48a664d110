"""Self-check of the benchmark itself: ``python3 bench/run.py --self-check``.

On reduced inputs, each workload's output check must accept a real pass and
reject a corrupted copy of it; a traced pass must leave every patched
function restored, and the self times of all its threads must add up to no
more than the pass's CPU time; the set-up probe must run in a fresh
interpreter; and the workloads, metric names and units the benchmark emits
must match ``BENCHMARK.json``.
"""

from __future__ import annotations

import copy
import json

import workloads
from tracer import public_functions

SEED = 3


def corrupt(name: str, outputs: list) -> list:
    out = copy.deepcopy(outputs)
    if name == "suite":
        code, text = out[0]
        out[0] = (code, text.replace('"pass":true', '"pass":false', 1))
    elif name == "exhaustive":
        table = out[0]
        del table[max(table)]
    elif name == "theta-sweep":
        out[0].instances[-1]["lambda"] = [1]
    else:
        out[0]["witnesses"][0]["rep"]["A"][-1]["entries"][0] += 1
    return out


def snapshot(modules: dict) -> dict:
    state = {(m, attr): obj for m, module in modules.items() for attr, obj in vars(module).items()}
    state[("exactmat", "ExactMatrix.__init__")] = modules["exactmat"].ExactMatrix.__init__
    return state


def main(run, modules: dict) -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok: bool, message: str) -> None:
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            problems.append(message)

    expect(
        {w["name"]: w["why"] for w in spec["workloads"]}
        == {w.name: w.why for w in workloads.WORKLOADS.values()}
        and tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES,
        "BENCHMARK.json workloads and reasons match workloads.py and run.py",
    )
    before = snapshot(modules)
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.reduced(SEED)
        check = workload.checker(inputs)
        passes = [run.timed_pass(workload, inputs, modules)]
        output = passes[0].pop("output")
        attempted, failed = check(output)
        expect(attempted > 0 and failed == 0, f"{name}: check accepts a reduced pass ({attempted} items)")
        _, failed = check(corrupt(name, output))
        expect(failed > 0, f"{name}: check rejects a corrupted pass")

        traced, tracer = run.traced_pass(workload, inputs, modules)
        expect(snapshot(modules) == before, f"{name}: traced pass restores every patched function")
        expect(tracer.span_count() > 0, f"{name}: traced pass recorded {tracer.span_count()} spans")
        _, failed = check(traced["output"])
        expect(failed == 0, f"{name}: traced output passes the check")
        by_thread = tracer.self_s_by_thread()
        expect(
            sum(by_thread.values()) <= traced["raw_cpu_s"],
            f"{name}: self times of {len(by_thread)} thread(s) add up to "
            f"{sum(by_thread.values()):.4f} s, within the pass's {traced['raw_cpu_s']:.4f} s of CPU",
        )

        layer = run.per_layer_metrics(workload, inputs, passes, traced, tracer)
        expect(
            {k: u for k, (_, u) in layer.items()}
            == {m["name"]: m["unit"] for m in spec["per_layer"]},
            f"{name}: per-layer metric names and units match BENCHMARK.json",
        )
        e2e = run.end_to_end_metrics(passes, [run.setup_seconds(name, SEED)])
        expect(
            {k: u for k, (_, u) in e2e.items()}
            == {m["name"]: m["unit"] for m in spec["end_to_end"]},
            f"{name}: end-to-end metric names and units match BENCHMARK.json",
        )
    traced_names = {n for short, m in modules.items() for n, _ in public_functions(short, m)}
    listed = {f"exactmat.{f}" for f in run.EXACTMAT} | {f"quiverrep.{f}" for f in run.QUIVERREP}
    listed |= {f"verify.{f}" for f in run.VERIFY}
    expect(listed <= traced_names, "every function named in a per-layer metric is traced")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0
