"""The engine surface: scenario-scale adapters over the Session loop.

:func:`run_engine` is the scaled-up sibling of
:func:`~repro.sim.driver.run_sequence`, built for driving 10^4-10^6
request workloads. Like the driver it no longer owns a drive loop —
both are thin adapters over :class:`~repro.sim.session.Session`, the
one shared loop (timing split, verifier wiring, checkpoint cadence,
failure handling) with pluggable drive backends. What this module adds
is the engine-shaped result surface:

- **Separated timing phases** — scheduler, verify, and validate time
  reported independently (:class:`EngineResult`), so throughput is
  always computed over pure scheduler time even in audited runs.
- **Checkpointed progress** — every ``checkpoint_every`` requests the
  session records (and optionally reports through ``on_checkpoint``)
  the running request rate and phase split.
- **Backends as a first-class axis** — ``backend="sequential"`` /
  ``"batched"`` / ``"sharded"`` selects how requests are driven; the
  sharded backend fans each burst out to per-machine shard workers on
  delegating scheduler stacks.
- **Disk-backed traces** — ``trace_path=`` writes the session's JSONL
  checkpoint trace so a killed multi-hour run resumes from its last
  checkpoint (``resume=True``, deterministic prefix replay) and runs
  stay comparable across PRs.

:func:`run_sweep` fans one or many schedulers across a dictionary of
scenario sequences — the CLI's ``sweep`` command builds the scenario set
from :data:`~repro.workloads.scenarios.SCENARIOS` — and returns per-cell
:class:`EngineResult` objects plus a formatted comparison table. With
``trace_dir=`` every cell writes its own trace and a re-run with
``resume=True`` skips completed cells and resumes the interrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from ..core.base import ReallocatingScheduler
from ..core.requests import RequestSequence
from .report import format_table
from .session import (
    Checkpoint,
    DEFAULT_FULL_AUDIT_EVERY,
    DriveBackend,
    ExecutionPlan,
    Session,
    SessionResult,
    SessionTrace,
    VERIFY_MODES,
    sequence_fingerprint,
)


@dataclass
class EngineResult:
    """Outcome of one engine run, with per-phase timing.

    ``scheduler_time_s`` covers only ``scheduler.apply``;
    ``verify_time_s`` the feasibility checks; ``validate_time_s`` the
    invariant validator. ``requests_per_second`` is computed over
    scheduler time alone — the honest per-request algorithm cost.
    """

    name: str
    scheduler_name: str
    requests_processed: int
    wall_time_s: float
    scheduler_time_s: float
    verify_time_s: float
    validate_time_s: float
    verify_mode: str
    ledger_summary: dict
    failed: bool = False
    failure: str | None = None
    checkpoints: list[Checkpoint] = field(default_factory=list)
    backend: str = "sequential"
    interrupted: bool = False
    resumed_from: int = 0

    @property
    def requests_per_second(self) -> float:
        """Throughput over scheduler time (resumed prefix excluded)."""
        if self.scheduler_time_s <= 0:
            return float("nan")
        worked = self.requests_processed - self.resumed_from
        return worked / self.scheduler_time_s

    @property
    def audit_time_s(self) -> float:
        return self.verify_time_s + self.validate_time_s

    @property
    def summary(self) -> dict:
        out = {
            "run": self.name,
            "scheduler": self.scheduler_name,
            "backend": self.backend,
            "processed": self.requests_processed,
            "wall_s": round(self.wall_time_s, 4),
            "sched_s": round(self.scheduler_time_s, 4),
            "verify_s": round(self.verify_time_s, 4),
            "validate_s": round(self.validate_time_s, 4),
            "req_per_s": (round(self.requests_per_second, 1)
                          if self.scheduler_time_s > 0 else 0.0),
        }
        out.update(self.ledger_summary)
        if self.failed:
            out["FAILED"] = self.failure
        if self.interrupted:
            out["INTERRUPTED"] = f"after {self.requests_processed}"
        return out


def _engine_result(res: SessionResult) -> EngineResult:
    return EngineResult(
        name=res.name,
        scheduler_name=res.scheduler_name,
        requests_processed=res.requests_processed,
        wall_time_s=res.wall_time_s,
        scheduler_time_s=res.scheduler_time_s,
        verify_time_s=res.verify_time_s,
        validate_time_s=res.validate_time_s,
        verify_mode=res.verify_mode,
        ledger_summary=res.ledger.summary(),
        failed=res.failed,
        failure=res.failure,
        checkpoints=res.checkpoints,
        backend=res.backend,
        interrupted=res.interrupted,
        resumed_from=res.resumed_from,
    )


def run_engine(
    scheduler: ReallocatingScheduler,
    sequence: RequestSequence,
    *,
    batch_size: int = 1,
    atomic_batches: bool = False,
    batch_semantics: str = "strict",
    backend: "str | DriveBackend" = "auto",
    verify: str = "incremental",
    full_audit_every: int | None = None,
    validator: Callable[[ReallocatingScheduler], None] | None = None,
    validate_every: int = 1,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[Checkpoint], None] | None = None,
    stop_on_error: bool = False,
    stop_after: int = 0,
    trace_path: "str | Path | None" = None,
    resume: bool = False,
    name: str | None = None,
) -> EngineResult:
    """Drive ``sequence`` through ``scheduler`` with phase-split timing.

    Parameters
    ----------
    batch_size:
        Chunk the stream into bursts of this size and drive them
        through the batch-shaped backends (1 = per-request loop).
        Verification then checks once per batch commit, and the
        validator / the checkpoint cadence fire on batch boundaries.
    atomic_batches:
        Batched backend: apply each burst all-or-nothing (the sharded
        backend is always transactional per burst).
    batch_semantics:
        ``"strict"`` (default, placement-identical replay) or
        ``"flexible"`` (jointly planned bursts — bounds-equivalent, see
        :class:`~repro.sim.session.ExecutionPlan`).
    backend:
        ``"auto"`` (default), ``"sequential"``, ``"batched"``,
        ``"sharded"``, or a DriveBackend instance.
    verify:
        ``"incremental"`` (default), ``"full"``, or ``"off"``.
    full_audit_every:
        Full-audit period for incremental verification (None = the
        shared :data:`~repro.sim.session.DEFAULT_FULL_AUDIT_EVERY`).
    validator:
        Optional invariant validator (e.g. ``validate_scheduler``),
        called every ``validate_every`` requests (0 disables it, like
        the other periodic knobs); timed separately.
    checkpoint_every:
        Record a :class:`Checkpoint` every this many requests (0 = off).
    stop_on_error:
        If True, scheduler failures raise; by default the engine ends
        the run gracefully with ``failed=True`` (sweeps keep going).
    stop_after:
        End the run gracefully after this many requests this session
        (0 = off) — pairs with ``trace_path`` for resumable runs.
    trace_path / resume:
        Write (and with ``resume=True`` continue from) the session's
        JSONL trace; see :class:`~repro.sim.session.SessionTrace`.
    """
    plan = ExecutionPlan(
        batch_size=batch_size,
        atomic_batches=atomic_batches,
        batch_semantics=batch_semantics,
        backend=backend,
        verify=verify,
        full_audit_every=(full_audit_every if full_audit_every is not None
                          else DEFAULT_FULL_AUDIT_EVERY),
        validator=validator,
        validate_every=validate_every,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
        stop_on_error=stop_on_error,
        stop_after=stop_after,
        trace_path=trace_path,
        resume=resume,
        name=name,
    )
    return _engine_result(Session(scheduler, sequence, plan).run())


def _cell_trace_path(trace_dir: "str | Path", label: str) -> Path:
    return Path(trace_dir) / (label.replace("/", "--") + ".jsonl")


def _read_cell_trace(
    path: Path, label: str, fingerprint: str,
) -> tuple[EngineResult | None, bool]:
    """One read of a cell's trace: (completed result, trace is current).

    Both answers are guarded by the sequence fingerprint like an
    in-session resume: a trace recorded for different scenario content
    (e.g. a re-run with a new ``--requests``) is neither completed nor
    resumable — the caller re-runs the cell from scratch, overwriting
    the stale trace. A recorded ``resumed_from`` carries over so
    throughput stays computed over the session that actually ran.
    """
    if not path.exists():
        return None, True  # nothing recorded yet; a fresh resume is fresh
    records = SessionTrace.read_records(path)
    header = next((r for r in records if r.get("type") == "header"), None)
    if header is None or header.get("fingerprint") != fingerprint:
        return None, False
    final = SessionTrace.final_record(records)
    if final is None:
        return None, True
    return EngineResult(
        name=label,
        scheduler_name=final.get("scheduler", ""),
        requests_processed=final.get("processed", 0),
        wall_time_s=final.get("wall_s", 0.0),
        scheduler_time_s=final.get("sched_s", 0.0),
        verify_time_s=final.get("verify_s", 0.0),
        validate_time_s=final.get("validate_s", 0.0),
        verify_mode=final.get("verify_mode", ""),
        ledger_summary=final.get("ledger", {}),
        failed=bool(final.get("failed")),
        failure=final.get("failure"),
        backend=final.get("backend", ""),
        resumed_from=final.get("resumed_from", 0),
    ), True


def run_sweep(
    scenarios: Mapping[str, RequestSequence],
    factories: Mapping[str, Callable[[], ReallocatingScheduler]],
    *,
    batch_size: int = 1,
    atomic_batches: bool = False,
    batch_semantics: str = "strict",
    backend: "str | DriveBackend" = "auto",
    verify: str = "incremental",
    full_audit_every: int | None = None,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[str, Checkpoint], None] | None = None,
    stop_after: int = 0,
    trace_dir: "str | Path | None" = None,
    resume: bool = False,
) -> dict[tuple[str, str], EngineResult]:
    """Run every scheduler over every scenario (fresh instance per cell).

    With ``trace_dir`` each cell writes ``<scenario>--<scheduler>.jsonl``
    there; re-running with ``resume=True`` reconstructs completed cells
    from their final trace record (no re-run) and resumes interrupted
    ones from their last checkpoint. ``stop_after`` bounds the requests
    processed per invocation (across-cells budget is per cell), which
    together with resume gives kill-and-continue sweeps.
    """
    results: dict[tuple[str, str], EngineResult] = {}
    if trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    for scen_name, sequence in scenarios.items():
        fingerprint = (sequence_fingerprint(sequence)
                       if trace_dir is not None and resume else None)
        for sched_name, factory in factories.items():
            label = f"{scen_name}/{sched_name}"
            trace_path = None
            cell_resume = resume
            if trace_dir is not None:
                trace_path = _cell_trace_path(trace_dir, label)
                if resume:
                    done, current = _read_cell_trace(trace_path, label,
                                                     fingerprint)
                    if done is not None:
                        results[(scen_name, sched_name)] = done
                        continue
                    # a trace for different scenario content is stale:
                    # re-run the cell fresh instead of refusing to resume
                    cell_resume = current
            hook = (None if on_checkpoint is None
                    else (lambda cp, _l=label: on_checkpoint(_l, cp)))
            results[(scen_name, sched_name)] = run_engine(
                factory(), sequence,
                batch_size=batch_size,
                atomic_batches=atomic_batches,
                batch_semantics=batch_semantics,
                backend=backend,
                verify=verify,
                full_audit_every=full_audit_every,
                checkpoint_every=checkpoint_every,
                on_checkpoint=hook,
                stop_after=stop_after,
                trace_path=trace_path,
                resume=cell_resume,
                name=label,
            )
    return results


def sweep_table(results: Mapping[tuple[str, str], EngineResult],
                *, title: str = "scenario sweep") -> str:
    """Format sweep results as an aligned comparison table."""
    rows = []
    for (scen, sched), r in sorted(results.items()):
        rows.append([
            scen, sched, r.requests_processed,
            round(r.requests_per_second, 1) if r.scheduler_time_s > 0 else 0.0,
            round(r.scheduler_time_s, 3),
            round(r.verify_time_s, 3),
            round(r.validate_time_s, 3),
            r.ledger_summary.get("max_realloc", ""),
            r.ledger_summary.get("mean_realloc", ""),
            ("FAILED" if r.failed
             else "partial" if r.interrupted else "ok"),
        ])
    return format_table(
        ["scenario", "scheduler", "requests", "req/s", "sched_s",
         "verify_s", "validate_s", "max realloc", "mean realloc", "status"],
        rows, title=title,
    )
