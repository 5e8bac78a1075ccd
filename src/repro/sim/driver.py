"""The classic driver surface: thin adapters over the Session loop.

:func:`run_sequence` is the small-run entry point — feed a
:class:`~repro.core.requests.RequestSequence` to any
:class:`~repro.core.base.ReallocatingScheduler`, get a
:class:`RunResult` back. Since the unified execution API landed, it no
longer owns a drive loop: it builds an
:class:`~repro.sim.session.ExecutionPlan` and delegates to
:class:`~repro.sim.session.Session`, which carries the one shared loop
(timing split, verifier wiring, failure handling) for this module,
:mod:`repro.sim.engine`, and every benchmark. Use ``Session`` directly
for the full surface (drive backends, traces, resume); use
``run_sequence`` when you want the historical call shape:

- ``batch_size > 1`` drives bursts through ``apply_batch``
  (``atomic_batches=True`` for all-or-nothing bursts); ``backend=``
  picks the drive backend explicitly (``"sharded"`` fans each burst
  out to per-machine shard workers on delegating stacks).
- ``verify_each``/``verify_mode`` wire the incremental or full
  feasibility checker; the full-audit period defaults to the one
  shared :data:`~repro.sim.session.DEFAULT_FULL_AUDIT_EVERY`.
- timing stays split by phase: ``scheduler_time_s`` is the honest
  algorithm cost, ``audit_time_s`` the verify/validate hooks.

:func:`run_comparison` runs several schedulers over the same sequence
and aligns their ledgers for head-to-head reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..core.base import ReallocatingScheduler
from ..core.costs import CostLedger
from ..core.requests import RequestSequence
from .session import DEFAULT_FULL_AUDIT_EVERY, DriveBackend, ExecutionPlan, Session


@dataclass
class RunResult:
    """Outcome of driving one scheduler over one request sequence.

    ``wall_time_s`` is the full loop time; ``scheduler_time_s`` is the
    time spent inside ``scheduler.apply`` only, and ``audit_time_s`` the
    time spent in feasibility verification and invariant validation.
    Throughput numbers must be computed from ``scheduler_time_s``.
    """

    scheduler_name: str
    ledger: CostLedger
    requests_processed: int
    wall_time_s: float
    scheduler_time_s: float = 0.0
    audit_time_s: float = 0.0
    failed: bool = False
    failure: str | None = None
    extras: dict = field(default_factory=dict)

    @property
    def requests_per_second(self) -> float:
        """Throughput over scheduler time only (audits excluded)."""
        if self.scheduler_time_s <= 0:
            return float("nan")
        return self.requests_processed / self.scheduler_time_s

    @property
    def summary(self) -> dict:
        out = {"scheduler": self.scheduler_name,
               "processed": self.requests_processed,
               "wall_s": round(self.wall_time_s, 4),
               "sched_s": round(self.scheduler_time_s, 4),
               "audit_s": round(self.audit_time_s, 4)}
        out.update(self.ledger.summary())
        if self.failed:
            out["FAILED"] = self.failure
        return out


def run_sequence(
    scheduler: ReallocatingScheduler,
    sequence: RequestSequence,
    *,
    batch_size: int = 1,
    atomic_batches: bool = False,
    batch_semantics: str = "strict",
    backend: "str | DriveBackend" = "auto",
    verify_each: bool = True,
    verify_mode: str = "incremental",
    full_audit_every: int | None = None,
    validate_each: Callable[[ReallocatingScheduler], None] | None = None,
    stop_on_error: bool = True,
    name: str | None = None,
) -> RunResult:
    """Drive ``sequence`` through ``scheduler`` (a Session adapter).

    Parameters
    ----------
    batch_size:
        Chunk the stream into bursts of this size and drive them
        through ``apply_batch`` (1 = classic per-request loop).
        Feasibility and invariant hooks then run once per batch commit.
    atomic_batches:
        With ``batch_size > 1``: apply each burst all-or-nothing; a
        mid-batch failure rolls the burst back entirely.
    batch_semantics:
        ``"strict"`` (default, placement-identical replay) or
        ``"flexible"`` (jointly planned bursts — bounds-equivalent, see
        :class:`~repro.sim.session.ExecutionPlan`).
    backend:
        Drive backend: ``"auto"`` (default — batched when
        ``batch_size > 1``, else sequential), ``"sequential"``,
        ``"batched"``, ``"sharded"``, or a
        :class:`~repro.sim.session.DriveBackend` instance.
    verify_each:
        Check schedule feasibility after every request — or, when
        batching, after every batch commit (default on; turn off only
        for throughput benchmarks).
    verify_mode:
        ``"incremental"`` (default) checks each step's placement
        changes in O(changes) and runs a full audit every
        ``full_audit_every`` requests plus once at the end;
        ``"full"`` re-verifies the whole schedule after every step.
    full_audit_every:
        Full-audit period for incremental mode (None = the shared
        :data:`~repro.sim.session.DEFAULT_FULL_AUDIT_EVERY`; 0 disables
        periodic audits; the final audit always runs).
    validate_each:
        Optional extra validator called with the scheduler after each
        request / batch (e.g. reservation invariant validation).
    stop_on_error:
        If False, a scheduler failure (InfeasibleError or
        UnderallocationError) ends the run gracefully with
        ``failed=True`` instead of raising — used by the gamma-threshold
        ablation, which probes exactly where schedulers break.
    """
    if verify_mode not in ("incremental", "full"):
        raise ValueError(f"unknown verify_mode {verify_mode!r}")
    plan = ExecutionPlan(
        batch_size=batch_size,
        atomic_batches=atomic_batches,
        batch_semantics=batch_semantics,
        backend=backend,
        verify=verify_mode if verify_each else "off",
        full_audit_every=(full_audit_every if full_audit_every is not None
                          else DEFAULT_FULL_AUDIT_EVERY),
        validator=validate_each,
        validate_every=1,
        stop_on_error=stop_on_error,
        name=name,
    )
    res = Session(scheduler, sequence, plan).run()
    return RunResult(
        scheduler_name=res.name,
        ledger=res.ledger,
        requests_processed=res.requests_processed,
        wall_time_s=res.wall_time_s,
        scheduler_time_s=res.scheduler_time_s,
        audit_time_s=res.audit_time_s,
        failed=res.failed,
        failure=res.failure,
    )


def run_comparison(
    factories: Mapping[str, Callable[[], ReallocatingScheduler]],
    sequence: RequestSequence,
    *,
    batch_size: int = 1,
    atomic_batches: bool = False,
    batch_semantics: str = "strict",
    backend: "str | DriveBackend" = "auto",
    verify_each: bool = True,
    verify_mode: str = "incremental",
    validate_each: Callable[[ReallocatingScheduler], None] | None = None,
    stop_on_error: bool = True,
) -> dict[str, RunResult]:
    """Run several schedulers over the same sequence (fresh instance each)."""
    results: dict[str, RunResult] = {}
    for label, factory in factories.items():
        results[label] = run_sequence(
            factory(), sequence,
            batch_size=batch_size,
            atomic_batches=atomic_batches,
            batch_semantics=batch_semantics,
            backend=backend,
            verify_each=verify_each,
            verify_mode=verify_mode,
            validate_each=validate_each,
            stop_on_error=stop_on_error,
            name=label,
        )
    return results


def max_cost_series(
    results: Sequence[RunResult],
    key: str = "max_realloc",
) -> list[tuple[str, float]]:
    """Extract one summary metric across runs (label, value) for reports."""
    return [(r.scheduler_name, r.summary.get(key, float("nan"))) for r in results]
