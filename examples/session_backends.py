#!/usr/bin/env python
"""The unified execution API: one Session, pluggable drive backends.

Run:  PYTHONPATH=src python examples/session_backends.py

Every execution surface in this repo (the classic driver, the batch
engine, sweeps, benchmarks) drives requests through ONE loop:
``Session.run()`` with an ``ExecutionPlan``. This example runs the same
3-machine churn workload through all three drive backends — sequential
(per-request), batched (apply_batch bursts), and sharded (per-machine
shard workers consuming the delegation layer's machine sub-batches) —
and shows that they produce bit-identical schedules, then demonstrates
a resumable traced run (kill after N requests, resume from the trace).
"""

import tempfile
from pathlib import Path

from repro.core.api import ReservationScheduler
from repro.sim import ExecutionPlan, Session, SessionTrace
from repro.workloads.scenarios import churn_storm_sequence

MACHINES = 3
REQUESTS = 4000


def main() -> None:
    seq = churn_storm_sequence(requests=REQUESTS, seed=0,
                               num_machines=MACHINES)

    print(f"== one workload ({REQUESTS} requests, m={MACHINES}), "
          "three drive backends ==")
    plans = {
        "sequential": ExecutionPlan(backend="sequential"),
        "batched":    ExecutionPlan(backend="batched", batch_size=64,
                                    atomic_batches=True),
        "sharded":    ExecutionPlan(backend="sharded", batch_size=64),
    }
    schedulers = {}
    for label, plan in plans.items():
        sched = ReservationScheduler(MACHINES, gamma=8)
        result = Session(sched, seq, plan).run()
        schedulers[label] = sched
        print(f"  {label:<10} {result.requests_per_second:8.0f} req/s "
              f"(sched {result.scheduler_time_s:.2f}s, "
              f"verify {result.verify_time_s:.2f}s)")

    base = schedulers["sequential"]
    for label, sched in schedulers.items():
        assert dict(sched.placements) == dict(base.placements)
        assert sched.ledger.entries == base.ledger.entries
    print("  -> identical placements and ledgers across all backends\n")

    print("== resumable traced run: stop after 1500 requests, resume ==")
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "run.jsonl"
        partial = Session(
            ReservationScheduler(MACHINES, gamma=8), seq,
            ExecutionPlan(backend="sharded", batch_size=64,
                          checkpoint_every=500,
                          trace_path=trace, stop_after=1500),
        ).run()
        print(f"  first session: processed {partial.requests_processed}, "
              f"interrupted={partial.interrupted}")
        resumed = Session(
            ReservationScheduler(MACHINES, gamma=8), seq,
            ExecutionPlan(backend="sharded", batch_size=64,
                          checkpoint_every=500,
                          trace_path=trace, resume=True),
        ).run()
        print(f"  resumed from {resumed.resumed_from}, "
              f"processed {resumed.requests_processed} total")
        final = SessionTrace.final_record(SessionTrace.read_records(trace))
        print(f"  trace final record: processed={final['processed']}, "
              f"placements fingerprint {final['placements']}")
        assert resumed.ledger.entries == base.ledger.entries
    print("  -> resumed run matches an uninterrupted one bit for bit")


if __name__ == "__main__":
    main()
