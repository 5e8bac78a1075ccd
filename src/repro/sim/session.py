"""The unified execution API: one drive loop, pluggable backends.

Every way of running a request stream through a scheduler — the classic
per-request driver, the batch engine, scenario sweeps, benchmarks —
used to carry its own copy of the drive loop, and the copies drifted
(timing splits, verifier wiring, failure handling, even the
``full_audit_every`` default). :class:`Session` is the one loop they
all share now:

- an :class:`ExecutionPlan` bundles every policy knob — batching,
  verification, validation, checkpoint cadence, trace/resume, failure
  handling — with ONE set of defaults;
- a :class:`DriveBackend` turns the request stream into *steps* and
  applies each step to the scheduler:

  * :class:`SequentialBackend` — one request per step via
    ``scheduler.apply`` (the classic loop);
  * :class:`BatchedBackend` — one :class:`~repro.core.requests.Batch`
    per step via ``apply_batch`` (optionally atomic);
  * :class:`ShardedBackend` — one batch per step via
    ``apply_batch_sharded``: the delegation layer splits the burst into
    per-machine sub-batches (``machine_sub_batches`` /
    ``plan_shard_execution``), one worker drives each machine's
    sub-batch, and the per-shard touched logs merge back into the
    incrementally-maintained placement map with a merged-commit verify
    per batch. Requires a delegating scheduler stack
    (``supports_sharded_batches()``). Every sharded burst is
    transactional: a shard failure rolls the whole burst back before
    anything merges, the session's normal failure policy sees the
    burst's error, and the scheduler remains usable.

  All three backends produce identical placements, ledger entries, and
  max-span tracking on the same sequence (property-tested); they differ
  only in *how* the work is driven.

- the session owns the timing split (scheduler / verify / validate),
  the :class:`~repro.sim.incremental.IncrementalVerifier` wiring with
  periodic and final full audits, checkpointing, and the disk-backed
  JSONL trace writer (:class:`SessionTrace`) that makes long runs
  resumable (deterministic prefix replay) and comparable across PRs.

``repro.sim.driver.run_sequence``, ``repro.sim.engine.run_engine``, and
``repro.sim.engine.run_sweep`` are thin adapters over ``Session.run()``.

The one full-audit period
-------------------------
:data:`DEFAULT_FULL_AUDIT_EVERY` is 1024, defined here and nowhere
else (the driver used 256 and the engine 1024 before they were
collapsed). Rationale: periodic full audits are O(n) each and exist
only to *localize* an unreported placement change earlier than the
mandatory end-of-run audit would; at 1024 their cost is negligible even
at engine scale (10^5+ requests), while the old 256 default bought
nothing for driver-scale runs (a few hundred requests) because those
are covered by the final audit anyway.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from ..core.base import ReallocatingScheduler, resolve_batch_semantics
from ..core.costs import BatchResult, CostLedger, RequestCost
from ..core.exceptions import InvalidRequestError, ReproError
from ..core.requests import Batch, InsertJob, Request, iter_batches
from .incremental import IncrementalVerifier

#: The single full-audit period for incremental verification (see the
#: module docstring for why 1024). 0 disables periodic audits; the
#: final audit always runs.
DEFAULT_FULL_AUDIT_EVERY = 1024

#: Checkpoint cadence a traced run falls back to when the plan sets no
#: ``checkpoint_every`` — a trace without periodic records would not be
#: resumable at all.
DEFAULT_TRACE_CHECKPOINT_EVERY = 1024

VERIFY_MODES = ("incremental", "full", "off")
BACKENDS = ("auto", "sequential", "batched", "sharded")


@dataclass
class Checkpoint:
    """Progress snapshot emitted on the plan's checkpoint cadence."""

    processed: int
    wall_time_s: float
    scheduler_time_s: float
    verify_time_s: float
    validate_time_s: float

    @property
    def requests_per_second(self) -> float:
        if self.scheduler_time_s <= 0:
            return float("nan")
        return self.processed / self.scheduler_time_s


@dataclass
class ExecutionPlan:
    """Everything a drive loop needs beyond (scheduler, sequence).

    Parameters
    ----------
    batch_size:
        Step size for the batched/sharded backends (1 = per-request).
    atomic_batches:
        Batched backend only: apply each burst all-or-nothing. The
        sharded backend is always transactional per burst.
    batch_semantics:
        ``"strict"`` (default — bursts replay request-for-request, the
        placement-identical oracle) or ``"flexible"`` (each burst is
        planned jointly: deletes coalesced first, interior insert/delete
        pairs elided, surviving inserts placed in span order; placements
        may differ from strict but feasibility, the job table, max-span
        tracking, and the Theorem 1 per-request cost bounds are
        preserved). Applies to the batched and sharded backends; the
        sequential backend ignores it (a size-1 step has nothing to
        plan).
    backend:
        ``"sequential"``, ``"batched"``, ``"sharded"``, ``"auto"``
        (batched when ``batch_size > 1``, else sequential), or a
        ready-made :class:`DriveBackend` instance.
    verify:
        ``"incremental"`` (default), ``"full"``, or ``"off"``.
    full_audit_every:
        Full-audit period for incremental verification — THE default
        lives here (:data:`DEFAULT_FULL_AUDIT_EVERY`; 0 disables
        periodic audits).
    validator / validate_every:
        Optional invariant validator, called every ``validate_every``
        processed requests (0 disables); timed separately.
    checkpoint_every:
        Record (and trace) a :class:`Checkpoint` every this many
        requests (0 = off; a set ``trace_path`` falls back to
        :data:`DEFAULT_TRACE_CHECKPOINT_EVERY` so traces stay
        resumable).
    stop_on_error:
        Raise scheduler failures instead of finishing gracefully with
        ``failed=True``.
    stop_after:
        End the run (gracefully, ``interrupted=True``) after this many
        requests processed *in this session* — the deterministic "kill"
        half of a resumable-run round trip (0 = off).
    trace_path / resume:
        JSONL trace file. With ``resume=True`` the session reads the
        trace, replays the already-committed prefix through the plan's
        own backend (same bursts, same semantics — schedulers are
        deterministic, so the replay reproduces placements and ledger
        bit for bit), seeds the verifier mirror, and continues from the
        last checkpoint, appending to the trace.

    The four cadences (``full_audit_every``, ``validate_every``,
    ``checkpoint_every``, ``stop_after``) must be >= 0.
    """

    batch_size: int = 1
    atomic_batches: bool = False
    batch_semantics: str = "strict"
    backend: "str | DriveBackend" = "auto"
    verify: str = "incremental"
    full_audit_every: int = DEFAULT_FULL_AUDIT_EVERY
    validator: Callable[[ReallocatingScheduler], None] | None = None
    validate_every: int = 1
    checkpoint_every: int = 0
    on_checkpoint: Callable[[Checkpoint], None] | None = None
    stop_on_error: bool = False
    stop_after: int = 0
    trace_path: str | Path | None = None
    resume: bool = False
    name: str | None = None

    def __post_init__(self) -> None:
        if self.verify not in VERIFY_MODES:
            raise ValueError(
                f"verify must be one of {VERIFY_MODES}, got {self.verify!r}")
        if isinstance(self.backend, str) and self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for cadence in ("full_audit_every", "validate_every",
                        "checkpoint_every", "stop_after"):
            if getattr(self, cadence) < 0:
                raise ValueError(
                    f"{cadence} must be >= 0 (0 = off), "
                    f"got {getattr(self, cadence)}")
        resolve_batch_semantics(self.batch_semantics)


@dataclass
class StepOutcome:
    """What one backend step did: requests committed, costs, failure."""

    processed: int
    cost: RequestCost | None = None
    batch: BatchResult | None = None
    error: ReproError | None = None


class DriveBackend:
    """How a session turns the request stream into applied steps.

    ``steps`` chunks the stream (honoring a resume offset); ``apply``
    executes one step against the scheduler and reports a
    :class:`StepOutcome`. Per-request backends may let scheduler
    exceptions propagate (the session's failure handling catches them);
    batch-shaped backends report failures through the outcome so the
    committed prefix still gets verified.
    """

    name = "?"
    #: batch-shaped backends commit in multiples of batch_size, which
    #: constrains the offsets a resume may start from
    chunked = False

    def prepare(self, scheduler: ReallocatingScheduler,
                plan: ExecutionPlan) -> None:
        """Hook: validate scheduler/plan compatibility at run start.

        Raise :class:`~repro.core.exceptions.InvalidRequestError` for an
        incompatible pairing — it flows through the session's normal
        failure policy (``failed=True`` or raise per ``stop_on_error``),
        so one bad sweep cell cannot take down the whole sweep.
        """

    def steps(self, sequence: Iterable[Request], plan: ExecutionPlan,
              skip: int = 0) -> Iterator:
        raise NotImplementedError

    def apply(self, scheduler: ReallocatingScheduler,
              step: Any) -> StepOutcome:
        raise NotImplementedError


class SequentialBackend(DriveBackend):
    """The classic per-request loop: one ``scheduler.apply`` per step."""

    name = "sequential"

    def steps(self, sequence: Iterable[Request], plan: ExecutionPlan,
              skip: int = 0) -> Iterator[Request]:
        return islice(iter(sequence), skip, None)

    def apply(self, scheduler: ReallocatingScheduler,
              step: Request) -> StepOutcome:
        return StepOutcome(processed=1, cost=scheduler.apply(step))


class BatchedBackend(DriveBackend):
    """One ``apply_batch`` burst per step (atomic per the plan)."""

    name = "batched"
    chunked = True

    def __init__(self, *, atomic: bool = False,
                 semantics: str = "strict") -> None:
        self.atomic = atomic
        self.semantics = resolve_batch_semantics(semantics)

    def steps(self, sequence: Iterable[Request], plan: ExecutionPlan,
              skip: int = 0) -> Iterator[Batch]:
        return iter_batches(islice(iter(sequence), skip, None),
                            plan.batch_size)

    def apply(self, scheduler: ReallocatingScheduler,
              step: Batch) -> StepOutcome:
        result = scheduler.apply_batch(step, atomic=self.atomic,
                                       semantics=self.semantics)
        return StepOutcome(processed=result.processed, batch=result,
                           error=result.error if result.failed else None)


class ShardedBackend(DriveBackend):
    """One ``apply_batch_sharded`` burst per step: per-machine workers.

    The delegation layer plans each burst's per-machine sub-batches,
    one shard worker applies each machine's stream, and the per-shard
    touched logs merge into the incrementally-maintained placement map;
    the session then verifies the merged commit once per batch. Bursts
    are always transactional (a shard failure rolls the burst back
    wholesale).
    """

    name = "sharded"
    chunked = True

    def __init__(self, *, semantics: str = "strict") -> None:
        self.semantics = resolve_batch_semantics(semantics)

    def prepare(self, scheduler: ReallocatingScheduler,
                plan: ExecutionPlan) -> None:
        if not scheduler.supports_sharded_batches():
            raise InvalidRequestError(
                f"{type(scheduler).__name__} does not support sharded "
                "execution (needs a delegating scheduler stack with "
                "atomic-capable per-machine sub-schedulers)"
            )

    def steps(self, sequence: Iterable[Request], plan: ExecutionPlan,
              skip: int = 0) -> Iterator[Batch]:
        return iter_batches(islice(iter(sequence), skip, None),
                            plan.batch_size)

    def apply(self, scheduler: ReallocatingScheduler,
              step: Batch) -> StepOutcome:
        result = scheduler.apply_batch_sharded(step, semantics=self.semantics)
        return StepOutcome(processed=result.processed, batch=result,
                           error=result.error if result.failed else None)


def resolve_backend(plan: ExecutionPlan) -> DriveBackend:
    """Build the plan's backend (``auto`` keys off ``batch_size``)."""
    backend = plan.backend
    if isinstance(backend, DriveBackend):
        return backend
    if backend == "auto":
        backend = "batched" if plan.batch_size > 1 else "sequential"
    if backend == "sequential":
        return SequentialBackend()
    if backend == "batched":
        return BatchedBackend(atomic=plan.atomic_batches,
                              semantics=plan.batch_semantics)
    return ShardedBackend(semantics=plan.batch_semantics)


# ----------------------------------------------------------------------
# disk-backed JSONL trace (resumable runs, cross-PR comparison)
# ----------------------------------------------------------------------
def sequence_fingerprint(sequence: Iterable[Request]) -> str:
    """Stable hash of a request stream (guards resume against mixups)."""
    h = hashlib.sha256()
    for r in sequence:
        if isinstance(r, InsertJob):
            job = r.job
            h.update(f"i|{job.id}|{job.release}|{job.deadline}|{job.size}\n"
                     .encode())
        else:
            h.update(f"d|{r.job_id}\n".encode())
    return h.hexdigest()[:16]


def placements_fingerprint(scheduler: ReallocatingScheduler) -> str:
    """Stable hash of the final placements (cross-PR drift detection)."""
    h = hashlib.sha256()
    for job_id, pl in sorted(scheduler.placements.items(),
                             key=lambda kv: str(kv[0])):
        h.update(f"{job_id}|{pl.machine}|{pl.slot}\n".encode())
    return h.hexdigest()[:16]


class SessionTrace:
    """Append-only JSONL record of one session's progress.

    One ``header`` line (run identity + sequence fingerprint), a
    ``checkpoint`` line per checkpoint cadence, an optional ``resume``
    line per continuation, and a ``final`` line when the run completes.
    Every line is flushed immediately, so a killed run leaves a valid
    trace ending at its last checkpoint — :meth:`read_records` /
    :meth:`resume_offset` are what a resuming session reads back.
    """

    def __init__(self, path: str | Path, *, append: bool = False) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "a" if append else "w")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    # -- reading ---------------------------------------------------------
    @staticmethod
    def read_records(path: str | Path) -> list[dict]:
        records = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records

    @staticmethod
    def resume_offset(records: list[dict]) -> int:
        """Requests durably committed per the last checkpoint/final line."""
        processed = 0
        for rec in records:
            if rec.get("type") in ("checkpoint", "final"):
                processed = max(processed, int(rec.get("processed", 0)))
        return processed

    @staticmethod
    def final_record(records: list[dict]) -> dict | None:
        for rec in reversed(records):
            if rec.get("type") == "final":
                return rec
        return None


# ----------------------------------------------------------------------
# the session
# ----------------------------------------------------------------------
@dataclass
class SessionResult:
    """Outcome of one :meth:`Session.run`, with per-phase timing.

    ``scheduler_time_s`` covers only the backend's apply calls (the
    honest algorithm cost throughput must be computed from);
    ``verify_time_s`` / ``validate_time_s`` the audit hooks. A resumed
    run reports the prefix replay separately (``replay_time_s``,
    excluded from ``scheduler_time_s``) while the ledger covers the
    whole execution.
    """

    name: str
    scheduler_name: str
    backend: str
    requests_processed: int
    wall_time_s: float
    scheduler_time_s: float
    verify_time_s: float
    validate_time_s: float
    verify_mode: str
    ledger: CostLedger
    failed: bool = False
    failure: str | None = None
    interrupted: bool = False
    resumed_from: int = 0
    replay_time_s: float = 0.0
    checkpoints: list[Checkpoint] = field(default_factory=list)

    @property
    def audit_time_s(self) -> float:
        return self.verify_time_s + self.validate_time_s

    @property
    def requests_per_second(self) -> float:
        if self.scheduler_time_s <= 0:
            return float("nan")
        worked = self.requests_processed - self.resumed_from
        return worked / self.scheduler_time_s


class Session:
    """One scheduler, one request stream, one plan — one drive loop.

    Example
    -------
    >>> from repro.core.api import ReservationScheduler
    >>> from repro.sim.session import ExecutionPlan, Session
    >>> from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence
    >>> seq = random_aligned_sequence(AlignedWorkloadConfig(num_requests=64))
    >>> plan = ExecutionPlan(batch_size=16, backend="batched")
    >>> result = Session(ReservationScheduler(1, gamma=8), seq, plan).run()
    >>> result.requests_processed
    64
    """

    def __init__(
        self,
        scheduler: ReallocatingScheduler,
        sequence: Iterable[Request],
        plan: ExecutionPlan | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.sequence = sequence
        self.plan = plan if plan is not None else ExecutionPlan()
        self.backend = resolve_backend(self.plan)
        self.label = (self.plan.name if self.plan.name is not None
                      else type(scheduler).__name__)

    # ------------------------------------------------------------------
    def run(self) -> SessionResult:
        plan = self.plan
        scheduler = self.scheduler
        backend = self.backend
        label = self.label
        verifier = (IncrementalVerifier(scheduler.num_machines,
                                        full_audit_every=plan.full_audit_every,
                                        where=label)
                    if plan.verify == "incremental" else None)

        trace: SessionTrace | None = None
        resume_from = 0
        fingerprint = None
        if plan.trace_path is not None:
            # Fingerprinting (and a resume's prefix replay) iterate the
            # stream before the drive loop does, so a one-shot iterator
            # must be materialized or the loop would see it exhausted.
            if iter(self.sequence) is self.sequence:
                self.sequence = list(self.sequence)
            fingerprint = sequence_fingerprint(self.sequence)
            resume_from = self._prepare_resume(fingerprint)
            trace = SessionTrace(plan.trace_path, append=resume_from > 0)

        if trace is not None and not resume_from:
            trace.write(self._header(fingerprint))
        cadence = plan.checkpoint_every or (
            DEFAULT_TRACE_CHECKPOINT_EVERY if trace is not None else 0)

        perf = time.perf_counter
        t0 = perf()
        replay_s = 0.0
        processed = 0
        sched_s = verify_s = validate_s = 0.0
        checkpoints: list[Checkpoint] = []
        last_marker = resume_from
        interrupted = False

        def checkpoint() -> None:
            cp = Checkpoint(processed, perf() - t0, sched_s,
                            verify_s, validate_s)
            checkpoints.append(cp)
            if plan.on_checkpoint is not None:
                plan.on_checkpoint(cp)
            if trace is not None:
                trace.write({
                    "type": "checkpoint", "processed": processed,
                    "wall_s": round(cp.wall_time_s, 4),
                    "sched_s": round(sched_s, 4),
                    "verify_s": round(verify_s, 4),
                    "validate_s": round(validate_s, 4),
                    "ledger": scheduler.ledger.summary(),
                })

        def finish(failure: str | None = None) -> SessionResult:
            result = SessionResult(
                name=label,
                scheduler_name=type(scheduler).__name__,
                backend=backend.name,
                requests_processed=processed,
                wall_time_s=perf() - t0,
                scheduler_time_s=sched_s,
                verify_time_s=verify_s,
                validate_time_s=validate_s,
                verify_mode=plan.verify,
                ledger=scheduler.ledger,
                failed=failure is not None,
                failure=failure,
                interrupted=interrupted,
                resumed_from=resume_from,
                replay_time_s=replay_s,
                checkpoints=checkpoints,
            )
            if trace is not None:
                if not interrupted:
                    trace.write({
                        "type": "final", "processed": processed,
                        "resumed_from": resume_from,
                        "failed": result.failed, "failure": failure,
                        "wall_s": round(result.wall_time_s, 4),
                        "sched_s": round(sched_s, 4),
                        "verify_s": round(verify_s, 4),
                        "validate_s": round(validate_s, 4),
                        "verify_mode": plan.verify,
                        "scheduler": type(scheduler).__name__,
                        "backend": backend.name,
                        "ledger": scheduler.ledger.summary(),
                        "placements": placements_fingerprint(scheduler),
                    })
                trace.close()
            return result

        try:
            backend.prepare(scheduler, plan)
            if resume_from:
                # Replay the committed prefix through the plan's own
                # backend: resume_from sits on a burst boundary, so the
                # bursts (and flexible plans) match the original run.
                prefix = islice(iter(self.sequence), resume_from)
                for step in backend.steps(prefix, plan):
                    outcome = backend.apply(scheduler, step)
                    processed += outcome.processed
                    if outcome.error is not None:
                        raise outcome.error
                replay_s = perf() - t0
                if verifier is not None:
                    verifier.seed(scheduler, processed=resume_from)
                if trace is not None:
                    trace.write({"type": "resume", "processed": resume_from,
                                 "replay_s": round(replay_s, 4)})
            for step in backend.steps(self.sequence, plan, skip=resume_from):
                ta = perf()
                outcome = backend.apply(scheduler, step)
                tb = perf()
                sched_s += tb - ta
                processed += outcome.processed
                if verifier is not None:
                    if outcome.batch is not None:
                        verifier.verify_batch(scheduler, outcome.batch)
                    else:
                        verifier.observe(scheduler, outcome.cost)
                    verify_s += perf() - tb
                elif plan.verify == "full":
                    _full_verify(scheduler, label, processed)
                    verify_s += perf() - tb
                if (plan.validator is not None and plan.validate_every
                        and processed // plan.validate_every
                        > last_marker // plan.validate_every):
                    tc = perf()
                    plan.validator(scheduler)
                    validate_s += perf() - tc
                if (cadence and processed // cadence > last_marker // cadence):
                    checkpoint()
                last_marker = processed
                if outcome.error is not None:
                    raise outcome.error
                if (plan.stop_after
                        and processed - resume_from >= plan.stop_after):
                    interrupted = True
                    if not checkpoints or checkpoints[-1].processed != processed:
                        checkpoint()
                    break
            if verifier is not None and not interrupted:
                ta = perf()
                verifier.full_audit(scheduler)
                verify_s += perf() - ta
        except ReproError as exc:
            failure = f"{type(exc).__name__}: {exc}"
            if plan.stop_on_error:
                finish(failure)
                raise
            return finish(failure)
        return finish()

    # ------------------------------------------------------------------
    def _header(self, fingerprint: str | None) -> dict:
        total = None
        try:
            total = len(self.sequence)  # type: ignore[arg-type]
        except TypeError:
            pass
        return {
            "type": "header", "name": self.label,
            "scheduler": type(self.scheduler).__name__,
            "backend": self.backend.name,
            "batch_size": self.plan.batch_size,
            "atomic": self.plan.atomic_batches,
            "semantics": self.plan.batch_semantics,
            "verify": self.plan.verify,
            "full_audit_every": self.plan.full_audit_every,
            "total": total,
            "fingerprint": fingerprint,
        }

    def _prepare_resume(self, fingerprint: str) -> int:
        plan = self.plan
        path = Path(plan.trace_path)
        if not plan.resume or not path.exists():
            return 0
        records = SessionTrace.read_records(path)
        header = next((r for r in records if r.get("type") == "header"), None)
        if header is None:
            raise ValueError(f"trace {path} has no header record")
        if header.get("fingerprint") != fingerprint:
            raise ValueError(
                f"trace {path} was recorded for a different request "
                "sequence (fingerprint mismatch); refusing to resume"
            )
        resume_from = SessionTrace.resume_offset(records)
        if self.backend.chunked and plan.batch_size > 1:
            # batch-shaped backends commit whole bursts; restart at the
            # last burst boundary at or below the recorded offset
            resume_from -= resume_from % plan.batch_size
        return resume_from


def _full_verify(scheduler: ReallocatingScheduler, label: str,
                 processed: int) -> None:
    from ..core.schedule import verify_schedule

    verify_schedule(
        scheduler.jobs, scheduler.placements,
        scheduler.num_machines,
        where=f"{label} after request {processed}",
    )
