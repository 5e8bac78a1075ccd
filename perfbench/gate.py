"""Correctness gate: checks every measured run after its timed region.

Each check returns a list of problems; an empty list means the run is
correct. Any problem makes the benchmark exit nonzero.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.bounds import theorem1_cost_bound
from repro.core.exceptions import ReproError
from repro.core.requests import InsertJob
from repro.core.schedule import verify_schedule
from repro.sim.incremental import IncrementalVerifier
from repro.sim.session import placements_fingerprint


def active_set(requests: list) -> dict:
    """Job id -> job of every job the request stream leaves active."""
    active = {}
    for request in requests:
        if isinstance(request, InsertJob):
            active[request.job.id] = request.job
        else:
            del active[request.job_id]
    return active


def audit_end_state(scheduler: Any, where: str) -> list[str]:
    """Feasibility of the end state, through the verifier's full audit.

    ``seed`` runs ``verify_schedule`` on the live schedule and
    ``full_audit`` runs it again and compares the verifier's mirror
    with the scheduler's placement map.
    """
    verifier = IncrementalVerifier(scheduler.num_machines, where=where)
    try:
        verifier.seed(scheduler)
        verifier.full_audit(scheduler)
    except ReproError as exc:
        return [f"{type(exc).__name__}: {exc}"]
    return []


def check_session(name: str, requests: list, active: dict,
                  run: dict[str, Any]) -> list[str]:
    """Check one ``Session.run`` of the workload against its inputs."""
    scheduler, result = run["scheduler"], run["result"]
    entries = result.ledger.entries
    problems = []
    if result.failed:
        problems.append(f"{name}: session failed: {result.failure}")
    if result.requests_processed != len(requests):
        problems.append(f"{name}: processed {result.requests_processed} "
                        f"of {len(requests)} requests")
    if len(entries) != len(requests):
        problems.append(f"{name}: ledger holds {len(entries)} entries for "
                        f"{len(requests)} requests")
    problems += audit_end_state(scheduler, f"{name} end state")
    if dict(scheduler.jobs) != active:
        problems.append(f"{name}: job table differs from the generator's "
                        "active set")
    over = sum(1 for e in entries if e.migration_cost > 1)
    if over:
        problems.append(f"{name}: {over} requests migrated more than one job")
    total = sum(e.reallocation_cost for e in entries)
    budget = sum(theorem1_cost_bound(max(1, e.n_active), max(1, e.max_span))
                 for e in entries)
    if total > budget:
        problems.append(f"{name}: {total} reallocations exceed the summed "
                        f"Theorem 1 bound {budget:.0f}")
    return problems


def check_end_state(name: str, scheduler: Any, active: dict) -> list[str]:
    """Feasibility and job table of a stack driven outside a session."""
    problems = []
    try:
        verify_schedule(scheduler.jobs, scheduler.placements,
                        scheduler.num_machines, where=f"{name} end state")
    except ReproError as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    if set(scheduler.jobs) != set(active):
        problems.append(f"{name}: job ids differ from the generator's "
                        "active set")
    return problems


def fingerprint(run: dict[str, Any]) -> tuple:
    """What must repeat exactly when the same inputs run again."""
    entries = run["result"].ledger.entries
    return (placements_fingerprint(run["scheduler"]),
            tuple(e.reallocation_cost for e in entries),
            tuple(e.migration_cost for e in entries))
