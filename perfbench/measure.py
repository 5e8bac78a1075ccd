"""One estimator for every number the benchmark reports.

Every duration is process CPU time (``time.process_time_ns``), so time
the process spends waiting for a core does not count. Garbage
collection is disabled inside every timed region, and a full
collection runs before each one, so every run uses the same GC policy.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Callable

from repro.sim.session import DriveBackend, Session, resolve_backend

from workloads import Workload, build_plan, build_stack

clock = time.process_time_ns

GC_POLICY = "disabled inside timed regions; gc.collect() before each"
TIMER = "time.process_time_ns (process CPU time)"


def timed(fn: Callable[[], Any]) -> tuple[Any, int]:
    """Run ``fn`` under the GC policy; return its result and CPU ns."""
    gc.collect()
    gc.disable()
    try:
        start = clock()
        result = fn()
        return result, clock() - start
    finally:
        gc.enable()


def git_sha(root: Path) -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict[str, Any]:
    """The host and policy block recorded with every result."""
    info = time.get_clock_info("process_time")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "gc_policy": GC_POLICY,
        "timer": f"{TIMER}, resolution {info.resolution} s",
    }


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    """High-water resident set size of this process (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class StepTimer(DriveBackend):
    """Drive backend that times each step's scheduler call.

    Delegates everything to the backend the plan would build and
    appends the CPU ns of every ``apply`` to ``samples``.
    """

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.name = inner.name
        self.chunked = inner.chunked
        self.samples: list[int] = []

    def prepare(self, scheduler: Any, plan: Any) -> None:
        self.inner.prepare(scheduler, plan)

    def steps(self, sequence: Any, plan: Any, skip: int = 0) -> Any:
        return self.inner.steps(sequence, plan, skip)

    def apply(self, scheduler: Any, step: Any) -> Any:
        start = clock()
        outcome = self.inner.apply(scheduler, step)
        self.samples.append(clock() - start)
        return outcome

    def finish(self, scheduler: Any) -> None:
        self.inner.finish(scheduler)


def run_session(workload: Workload, requests: list) -> dict[str, Any]:
    """One timed ``Session.run`` of the workload on a fresh stack."""
    scheduler = build_stack(workload)
    timer = StepTimer(resolve_backend(build_plan(workload)))
    plan = build_plan(workload, backend=timer)
    session = Session(scheduler, requests, plan)
    result, ns = timed(session.run)
    return {"scheduler": scheduler, "result": result, "cpu_ns": ns,
            "steps": timer.samples}


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of sorted data."""
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_summary(reps: list[list[int]]) -> dict[str, Any]:
    """Latency percentiles over steps, each step at its median over reps.

    Every repetition drives the same steps, so taking each step's
    median across repetitions removes one-off interruptions without
    hiding a step that is slow every time. The tail is the highest of
    p90, p99, p99.9, ... with at least ten samples beyond it. (The
    exact 11th-largest step would fall among the ramp's rebuild stalls
    on steady-state-m3, where it jumps between rebuild sizes from seed
    to seed.)
    """
    per_step = [statistics.median(col) / 1e3 for col in zip(*reps)]
    ordered = sorted(per_step)
    n = len(ordered)
    nines = 1
    while n * 10 ** -(nines + 1) >= 10:
        nines += 1
    tail_q = 100 * (1 - 10 ** -nines)
    return {
        "latency_p50_us": percentile(ordered, 50),
        "latency_p99_us": percentile(ordered, 99),
        "latency_tail_us": percentile(ordered, tail_q),
        "tail_percentile": tail_q,
        "latency_samples": n,
    }
