"""repro — reproduction of "Reallocation Problems in Scheduling"
(Bender, Farach-Colton, Fekete, Fineman, Gilbert; SPAA 2013).

Public API quick reference
--------------------------
- :class:`repro.ReservationScheduler` — the paper's Theorem 1 scheduler
  (multi-machine, unaligned windows, O(log* n) reallocations/request,
  at most one migration/request).
- :mod:`repro.baselines` — EDF/LLF rebuilds, the naive pecking-order
  scheduler (Lemma 4), the per-request-optimal matcher.
- :mod:`repro.workloads` / :mod:`repro.adversaries` — request-sequence
  generators, including the paper's lower-bound constructions.
- :mod:`repro.sim` — the unified execution API: one
  :class:`~repro.sim.session.Session` drive loop with pluggable
  backends (sequential / batched / sharded per-machine workers),
  feasibility verification, phase-split timing, and resumable JSONL
  traces; ``run_sequence``/``run_engine``/``run_sweep`` are thin
  adapters over it.
- :class:`repro.Batch` / :class:`repro.BatchResult` — the batch-first
  request surface: ``scheduler.apply_batch(batch, atomic=True)``
  applies a whole burst transactionally under one cost/journal context;
  delegating stacks additionally offer ``apply_batch_sharded`` (one
  in-process shard worker per machine, run serially, with merged
  touched logs and whole-burst rollback).
"""

from .core import (
    Batch,
    BatchResult,
    CostLedger,
    InfeasibleError,
    InvalidRequestError,
    Job,
    Placement,
    ReallocatingScheduler,
    RequestCost,
    RequestSequence,
    UnderallocationError,
    ValidationError,
    Window,
    iter_batches,
)

__version__ = "1.1.0"

__all__ = [
    "Batch",
    "BatchResult",
    "iter_batches",
    "CostLedger",
    "InfeasibleError",
    "InvalidRequestError",
    "Job",
    "Placement",
    "ReallocatingScheduler",
    "RequestCost",
    "RequestSequence",
    "UnderallocationError",
    "ValidationError",
    "Window",
    "__version__",
]
