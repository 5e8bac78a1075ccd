"""The repository benchmark: scheduler workloads through ``Session.run``.

Run from the repository root::

    python3 perfbench/run.py --workload churn-storm --seed 0 --seconds 20 --trace 0

One process, no threads. The run

1. measures set-up: import ``repro`` from scratch, build the scheduler
   stack and prepare the drive backend, several times (median);
2. generates the workload's requests from ``--seed`` (untimed);
3. repeats fresh ``Session.run`` calls on those requests for about
   ``--seconds`` seconds, timing each step's scheduler call; the first
   call only warms the heap and first-call paths and is not measured;
4. checks every run with the correctness gate (``gate.py``).

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1``
it alternates untraced and traced runs (``tracing.py``) and drives the
same requests through the layer cut, and it reports the per-layer
metrics instead. The timed runs of ``--trace 0`` never trace.

Every line before the last is for people: the environment block, every
metric with its unit and the context of the tail percentile. The last
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The full result (and, when traced, every
span) is also written under ``.perfbench_out/``. The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from workloads import (WORKLOADS, Workload, build_plan, build_stack,
                       cut_stacks, generate, hold_start)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 7


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for kind in ("end_to_end", "per_layer") for metric in spec[kind]}


def measure_setup(workload: Workload) -> list[int]:
    """CPU ns to import ``repro``, build the stack and prepare the backend.

    Each repetition drops every ``repro`` module first, so the import
    runs in full every time. The modules of the last repetition stay
    loaded and every later step of the run uses them, which is why the
    benchmark's other modules are imported only after this returns.
    """
    samples = []
    for _ in range(SETUP_REPS):
        for name in [n for n in sys.modules
                     if n == "repro" or n.startswith("repro.")]:
            del sys.modules[name]
        gc.collect()
        gc.disable()
        try:
            start = time.process_time_ns()
            from repro.sim.session import resolve_backend

            scheduler = build_stack(workload)
            plan = build_plan(workload)
            resolve_backend(plan).prepare(scheduler, plan)
            samples.append(time.process_time_ns() - start)
        finally:
            gc.enable()
    return samples


def measured_loop(seconds: float, body: Any, minimum: int = 1) -> int:
    """Call ``body()`` until about ``seconds`` have passed.

    A new call starts only if one more of the same length still ends
    within the budget, but there are at least ``minimum`` calls. Stops
    early when ``body`` returns False.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        began = time.perf_counter()
        keep_going = body()
        rounds += 1
        now = time.perf_counter()
        if not keep_going or (rounds >= minimum
                              and now - start + (now - began) > seconds):
            return rounds


def count_requests(tally: dict[str, int], attempted: int, done: int) -> None:
    """Add ``attempted`` requests, ``done`` of which were accepted."""
    tally["attempted"] += attempted
    tally["failed"] += attempted - done


def timed_runs(workload: Workload, requests: list, active: dict,
               seconds: float, tally: dict[str, int],
               ) -> tuple[dict, dict, list[str]]:
    """The end-to-end measurement: repeated untraced sessions."""
    import gate
    import measure

    cpu_ns: list[int] = []
    steps: list[list[int]] = []
    prints: list[tuple] = []
    problems: list[str] = []
    costs: dict[str, Any] = {}

    def one_session() -> bool:
        run = measure.run_session(workload, requests)
        count_requests(tally, len(requests),
                       run["result"].requests_processed)
        problems.extend(gate.check_session(workload.name, requests,
                                           active, run))
        prints.append(gate.fingerprint(run))
        if len(prints) == 1:
            return not problems  # warm-up: heap growth, first-call paths
        cpu_ns.append(run["cpu_ns"])
        steps.append(run["steps"])
        if not costs:
            entries = run["result"].ledger.entries
            costs["realloc"] = [e.reallocation_cost for e in entries]
            costs["migrations"] = sum(e.migration_cost for e in entries)
        return not problems

    measured_loop(seconds, one_session, minimum=2)
    if problems:
        return {}, {}, problems
    if len(set(prints)) > 1:
        problems.append(f"{workload.name}: placements or ledger differ "
                        "between runs of the same requests")
    hold = hold_start(workload, requests)
    latency = measure.latency_summary([rep[hold:] for rep in steps])
    n = len(requests)
    metrics = {
        "throughput_rps": statistics.median(n * 1e9 / ns for ns in cpu_ns),
        "latency_p50_us": latency["latency_p50_us"],
        "latency_p99_us": latency["latency_p99_us"],
        "latency_tail_us": latency["latency_tail_us"],
        "realloc_mean": sum(costs["realloc"]) / n,
        "realloc_max": max(costs["realloc"]),
    }
    extra = {
        "latency_from_step": hold,
        "tail_percentile": latency["tail_percentile"],
        "latency_samples": latency["latency_samples"],
        "migrations_mean": costs["migrations"] / n,
        "placements_fingerprint": prints[0][0],
        "session_rps": [n * 1e9 / ns for ns in cpu_ns],
    }
    return metrics, extra, problems


def traced_runs(workload: Workload, requests: list, active: dict,
                seconds: float, tally: dict[str, int],
                ) -> tuple[dict, dict, list[str]]:
    """The per-layer measurement: paired untraced/traced sessions + cut."""
    import gate
    import measure
    from repro.core.exceptions import ReproError
    from tracing import Tracer

    n = len(requests)
    plain_ns: list[int] = []
    traced_ns: list[int] = []
    summaries: list[dict] = []
    cut_rps: dict[str, list[float]] = {}
    problems: list[str] = []
    state: dict[str, Any] = {}

    def untraced() -> None:
        run = measure.run_session(workload, requests)
        count_requests(tally, n, run["result"].requests_processed)
        problems.extend(gate.check_session(workload.name, requests,
                                           active, run))
        plain_ns.append(run["cpu_ns"])

    def traced() -> None:
        tracer = Tracer()
        with tracer.installed():
            run = measure.run_session(workload, requests)
            count_requests(tally, n, run["result"].requests_processed)
            # the gate's end-state audit runs through the verifier, so
            # the verifier layer is traced on every workload
            problems.extend(gate.check_session(workload.name, requests,
                                               active, run))
        traced_ns.append(run["cpu_ns"])
        summary = tracer.summary()
        summary["steps"] = len(run["steps"])
        summary["migrations"] = run["result"].ledger.total_migrations
        machines = run["scheduler"].delegator.machines
        summary["journal_entries"] = sum(sub.journal_entries_total
                                         for sub in machines)
        summary["machine_rebuilds"] = sum(sub.rebuilds for sub in machines)
        summaries.append(summary)
        state["tracer"] = tracer

    def cut() -> None:
        for name, stack in cut_stacks(workload).items():
            apply = stack.apply

            def drive() -> None:
                for request in requests:
                    apply(request)

            try:
                _, ns = measure.timed(drive)
            except ReproError as exc:  # a failed cut fails the gate
                problems.append(f"cut {name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                count_requests(tally, n, len(stack.ledger))
            problems.extend(gate.check_end_state(f"cut {name}", stack, active))
            cut_rps.setdefault(name, []).append(n * 1e9 / ns)

    def one_round() -> bool:
        # alternate which side of the pair runs first
        pair = (untraced, traced) if len(plain_ns) % 2 == 0 \
            else (traced, untraced)
        for step in (*pair, cut):
            step()
        return not problems

    untraced()  # warm-up: heap growth, first-call paths
    plain_ns.clear()
    rounds = measured_loop(seconds, one_round)
    if problems:
        return {}, {}, problems

    def med(key: str, layer: str | None = None) -> float:
        values = [s[key][layer] if layer else s[key] for s in summaries]
        return statistics.median(values)

    calls = summaries[0]["calls"]
    metrics = {
        "trimming.rebuilds": summaries[0]["rebuilds"],
        "trimming.rebuild_share": statistics.median(
            s["rebuild_ns"] / s["root_ns"] for s in summaries),
        "trimming.rebuild_jobs": summaries[0]["rebuild_jobs"],
        "trimming.self_s": med("self_ns", "trimming") / 1e9,
        "core.calls": calls["core"],
        "core.useful_ratio": n / calls["core"],
        "core.self_s": med("self_ns", "core") / 1e9,
        "core.journal_entries": summaries[0]["journal_entries"],
        "delegation.self_s": med("self_ns", "delegation") / 1e9,
        "delegation.calls": calls["delegation"],
        "delegation.migrations": summaries[0]["migrations"],
        "api.self_s": med("self_ns", "api") / 1e9,
        "api.calls": calls["api"],
        "incremental.busy_s": med("self_ns", "incremental") / 1e9,
        "incremental.calls": calls["incremental"],
        "incremental.full_audit_s": med("full_audit_ns") / 1e9,
        "session.self_s": med("self_ns", "session") / 1e9,
        "session.steps": summaries[0]["steps"],
        "cut.core_rps": statistics.median(cut_rps["core"]),
        "cut.trimmed_rps": statistics.median(cut_rps["trimmed"]),
        "cut.facade_rps": statistics.median(cut_rps["facade"]),
        "trace.overhead": (statistics.median(traced_ns)
                           / statistics.median(plain_ns) - 1),
    }
    last = summaries[-1]
    extra = {
        "tracer": state["tracer"],
        "traced_total_s": last["root_ns"] / 1e9,
        "self_time_sum_s": sum(last["self_ns"].values()) / 1e9,
        "self_share": {layer: ns / last["root_ns"]
                       for layer, ns in last["self_ns"].items()},
        "rounds": rounds,
    }
    if sum(last["self_ns"].values()) != last["root_ns"]:
        problems.append("trace: layer self times do not add up to the "
                        "traced total")
    if any(s["rebuilds"] != s["machine_rebuilds"] for s in summaries):
        problems.append("trace: rebuilds seen by the trace differ from "
                        "the trimming layers' own count")
    return metrics, extra, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    units = declared_units()

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    setup_ns = measure_setup(workload)

    import gate
    import measure

    env = measure.environment(ROOT)
    requests = generate(workload, args.seed)
    active = gate.active_set(requests)
    gc.collect()
    rss_before = measure.rss_bytes()
    runs = timed_runs if args.trace == 0 else traced_runs
    tally = {"attempted": 0, "failed": 0}
    metrics, extra, problems = runs(workload, requests, active,
                                    args.seconds, tally)
    extra["failed_fraction"] = tally["failed"] / max(1, tally["attempted"])
    if args.trace == 0 and not problems:
        metrics["setup_s"] = statistics.median(setup_ns) / 1e9
        metrics["peak_rss_mb"] = (measure.peak_rss_bytes() - rss_before) / 1e6
    tracer = extra.pop("tracer", None)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.csv")
    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "requests": len(requests),
        "environment": env,
        "setup_samples_s": [ns / 1e9 for ns in setup_ns],
        "metrics": reported,
        "context": extra,
        "problems": problems,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=2)
                                             + "\n")

    print(f"workload {workload.name}: {len(requests)} requests, m="
          f"{workload.machines}, seed {args.seed}, plan {workload.plan}")
    for key, value in env.items():
        print(f"env {key}: {value}")
    for key, value in metrics.items():
        print(f"{key:26s} {value:>16.6g} {units[key]}")
    for key, value in extra.items():
        print(f"{key}: {value}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": reported,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
